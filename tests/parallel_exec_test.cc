// Determinism of the morsel-parallel execution engine: for every query and
// every option set, running with num_threads ∈ {2, 8} must produce results
// ROW-EXACTLY equal to the serial num_threads = 1 run — same row order,
// same value representations (int64 vs float64), not merely bag-equal.
// This is the engine's contract (DESIGN.md): per-morsel output slots are
// concatenated in morsel index order, hash-join tables chain their rows
// in arrival order, and the parallel merge sort is stable, so scheduling
// can never leak into results.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/date.h"
#include "nra/executor.h"
#include "query_generator.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::QueryGenerator;

constexpr int kParallelDegrees[] = {2, 8};

// Row-exact equality: deep Value::operator== per cell, so a result that
// drifted to a different-but-numerically-equal representation (or a
// different row order) fails.
void ExpectRowExact(const Table& serial, const Table& parallel,
                    const std::string& context) {
  ASSERT_EQ(serial.num_rows(), parallel.num_rows()) << context;
  for (int64_t i = 0; i < serial.num_rows(); ++i) {
    ASSERT_TRUE(serial.rows()[static_cast<size_t>(i)] ==
                parallel.rows()[static_cast<size_t>(i)])
        << context << "\nfirst divergence at row " << i << "\nserial:\n"
        << serial.ToString() << "parallel:\n"
        << parallel.ToString();
  }
}

std::vector<std::pair<std::string, NraOptions>> OptionVariants() {
  std::vector<std::pair<std::string, NraOptions>> configs;
  configs.emplace_back("optimized", NraOptions::Optimized());
  configs.emplace_back("original", NraOptions::Original());
  {
    NraOptions o = NraOptions::Optimized();
    o.push_down_nest = true;
    o.rewrite_positive = true;
    o.bottom_up_linear = true;
    configs.emplace_back("all-rewrites", o);
  }
  {
    NraOptions o = NraOptions::Optimized();
    o.magic_restriction = true;
    configs.emplace_back("magic", o);
  }
  return configs;
}

void CheckParallelMatchesSerial(const Catalog& catalog,
                                const std::string& sql) {
  for (const auto& [name, base] : OptionVariants()) {
    NraOptions serial_opts = base;
    serial_opts.num_threads = 1;
    NraExecutor serial_exec(catalog, serial_opts);
    Result<Table> serial = serial_exec.ExecuteSql(sql);
    ASSERT_TRUE(serial.ok()) << name << ": " << serial.status().ToString();
    for (const int threads : kParallelDegrees) {
      NraOptions par_opts = base;
      par_opts.num_threads = threads;
      NraExecutor par_exec(catalog, par_opts);
      Result<Table> parallel = par_exec.ExecuteSql(sql);
      ASSERT_TRUE(parallel.ok())
          << name << "/threads=" << threads << ": "
          << parallel.status().ToString();
      ExpectRowExact(*serial, *parallel,
                     name + "/threads=" + std::to_string(threads) + "\n" +
                         sql);
    }
  }
}

// ---------- The paper's experiment queries on TPC-H data ----------

class ParallelTpchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig config;
    config.scale = 0.04;  // 600 orders / 80 parts: seconds, not minutes
    config.declare_not_null = true;
    ASSERT_OK(PopulateTpch(&catalog_, config));
  }

  std::string Query1Sql() {
    const Table* orders = *catalog_.GetTable("orders");
    const Value lo = *ColumnQuantile(*orders, "o_orderdate", 0.2);
    const Value hi = *ColumnQuantile(*orders, "o_orderdate", 0.8);
    return MakeQuery1(FormatDate(lo.int64()), FormatDate(hi.int64()));
  }

  Catalog catalog_;
};

TEST_F(ParallelTpchTest, Query1) {
  CheckParallelMatchesSerial(catalog_, Query1Sql());
}

TEST_F(ParallelTpchTest, Query2aMixed) {
  CheckParallelMatchesSerial(
      catalog_,
      MakeQuery2(10, 40, 5000, 25, OuterLink::kAny, InnerLink::kNotExists));
}

TEST_F(ParallelTpchTest, Query2bNegative) {
  CheckParallelMatchesSerial(
      catalog_,
      MakeQuery2(10, 40, 5000, 25, OuterLink::kAll, InnerLink::kNotExists));
}

TEST_F(ParallelTpchTest, Query3aMixed) {
  CheckParallelMatchesSerial(
      catalog_, MakeQuery3(10, 40, 5000, 25, OuterLink::kAll,
                           InnerLink::kExists, Query3Variant::kVariantA));
}

TEST_F(ParallelTpchTest, Query3bNegative) {
  CheckParallelMatchesSerial(
      catalog_, MakeQuery3(10, 40, 5000, 25, OuterLink::kAll,
                           InnerLink::kNotExists, Query3Variant::kVariantB));
}

TEST_F(ParallelTpchTest, Query3cPositive) {
  CheckParallelMatchesSerial(
      catalog_, MakeQuery3(10, 40, 5000, 25, OuterLink::kAny,
                           InnerLink::kExists, Query3Variant::kVariantC));
}

// ---------- Fuzzed query corpus ----------

class ParallelFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelFuzzTest, ParallelIsBitIdenticalToSerial) {
  QueryGenerator gen(GetParam());
  Catalog catalog;
  gen.PopulateTables(&catalog);

  for (int i = 0; i < 12; ++i) {
    const std::string sql = gen.RandomQuery();
    SCOPED_TRACE(sql);
    CheckParallelMatchesSerial(catalog, sql);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelFuzzTest,
                         ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace nestra
