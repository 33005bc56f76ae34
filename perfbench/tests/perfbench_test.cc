// Tests of the benchmark itself: the oracle gate trips on a wrong result,
// traced runs produce well-formed span trees, and the generators keep
// their guarantees (templates identical to tpch/queries.h, corpus coverage,
// seeded determinism).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "gate.h"
#include "generators.h"
#include "nra/executor.h"
#include "spans.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using nestra::Catalog;
using nestra::Table;

class GateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    nestra::TpchConfig config;
    config.scale = 0.1;
    config.declare_not_null = true;
    ASSERT_TRUE(nestra::PopulateTpch(&catalog_, config).ok());
    auto queries = PaperQueries(catalog_);
    ASSERT_TRUE(queries.ok());
    sql_ = (*queries)[0].sql;  // Q1
    nestra::NraExecutor executor(catalog_);
    auto engine = executor.ExecuteSql(sql_);
    ASSERT_TRUE(engine.ok());
    engine_ = *engine;
    auto oracle = OracleResult(catalog_, sql_);
    ASSERT_TRUE(oracle.ok());
    oracle_ = *oracle;
    ASSERT_GT(engine_.num_rows(), 1);
  }

  Catalog catalog_;
  std::string sql_;
  Table engine_, oracle_;
};

TEST_F(GateTest, AdmitsTheEngineResult) {
  OracleGate gate;
  ASSERT_TRUE(gate.Admit("Q1", engine_, oracle_).ok());
  EXPECT_TRUE(gate.Matches("Q1", engine_));
  EXPECT_TRUE(gate.Agree("Q1", engine_).ok());
  EXPECT_FALSE(gate.Matches("unknown", engine_));
}

TEST_F(GateTest, TripsOnAnInjectedWrongResult) {
  Table dropped = engine_;
  dropped.rows().pop_back();
  Table altered = engine_;
  altered.rows()[0] = altered.rows()[1];

  OracleGate gate;
  EXPECT_FALSE(gate.Admit("Q1", dropped, oracle_).ok());
  EXPECT_FALSE(gate.Admit("Q1", altered, oracle_).ok());
  EXPECT_FALSE(gate.Matches("Q1", engine_));  // nothing was admitted

  ASSERT_TRUE(gate.Admit("Q1", engine_, oracle_).ok());
  EXPECT_FALSE(gate.Matches("Q1", dropped));
  EXPECT_FALSE(gate.Matches("Q1", altered));
  EXPECT_FALSE(gate.Agree("Q1", altered).ok());
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfChildren) {
  SpanLog log(Clock::now(), 0);
  const int64_t stmt = log.NewStatement();
  const int64_t root = log.Add("root", -1, stmt, 0, 100);
  log.Add("a", root, stmt, 10, 40);
  log.Add("b", root, stmt, 30, 60);  // overlaps a: counted once
  EXPECT_EQ(ValidateSpanTree(log.spans()), "");
  const std::vector<double> self = SelfTimesUs(log.spans());
  EXPECT_DOUBLE_EQ(self[0], 50);
  EXPECT_DOUBLE_EQ(self[1], 30);
  EXPECT_DOUBLE_EQ(self[2], 30);
}

TEST(SpanTest, RejectsMalformedTrees) {
  SpanLog log(Clock::now(), 0);
  const int64_t stmt = log.NewStatement();
  const int64_t root = log.Add("root", -1, stmt, 0, 100);
  std::vector<Span> outside = log.spans();
  outside.push_back(log.Get(log.Add("late", root, stmt, 90, 120)));
  EXPECT_NE(ValidateSpanTree(outside), "");

  std::vector<Span> orphan = {log.Get(root)};
  orphan.push_back(orphan[0]);
  orphan[1].id = root + 1;
  orphan[1].parent = root + 99;
  EXPECT_NE(ValidateSpanTree(orphan), "");

  std::vector<Span> other_statement = {log.Get(root), log.Get(root)};
  other_statement[1].id = root + 1;
  other_statement[1].parent = root;
  other_statement[1].statement = stmt + 1;
  EXPECT_NE(ValidateSpanTree(other_statement), "");
}

// A short traced run records request -> session -> parse/bind/verify ->
// execute -> stage spans, and every tree is well formed.
TEST(SpanTest, TracedRunProducesWellFormedTrees) {
  RunOptions opts;
  opts.workload = "point_sessions";
  opts.seed = 3;
  opts.seconds = 0.3;
  opts.trace = true;
  auto report = RunWorkload(opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->correct);
  ASSERT_FALSE(report->spans.empty());
  EXPECT_EQ(ValidateSpanTree(report->spans), "");
  std::set<std::string> names;
  for (const Span& s : report->spans) names.insert(s.name);
  for (const char* name :
       {"client.request", "session.query", "session.execute_prepared",
        "sql.parse", "plan.bind", "verify.verify", "nra.execute",
        "nra.stage"}) {
    EXPECT_TRUE(names.count(name)) << name;
  }
  for (double self : SelfTimesUs(report->spans)) EXPECT_GE(self, -1e-3);
}

TEST(GeneratorTest, PointTemplatesMatchThePaperQueries) {
  using nestra::InnerLink;
  using nestra::OuterLink;
  using nestra::Query3Variant;
  EXPECT_EQ(PointSql(0, {"'1995-01-01'", "'1995-02-01'"}),
            nestra::MakeQuery1("1995-01-01", "1995-02-01"));
  EXPECT_EQ(PointSql(1, {"3", "5", "4000", "7"}),
            nestra::MakeQuery2(3, 5, 4000, 7, OuterLink::kAny,
                               InnerLink::kNotExists));
  EXPECT_EQ(PointSql(2, {"3", "5", "4000", "7"}),
            nestra::MakeQuery2(3, 5, 4000, 7, OuterLink::kAll,
                               InnerLink::kNotExists));
  EXPECT_EQ(PointSql(3, {"3", "5", "4000", "7"}),
            nestra::MakeQuery3(3, 5, 4000, 7, OuterLink::kAll,
                               InnerLink::kExists, Query3Variant::kVariantA));
  EXPECT_EQ(PointSql(4, {"3", "5", "4000", "7"}),
            nestra::MakeQuery3(3, 5, 4000, 7, OuterLink::kAll,
                               InnerLink::kNotExists,
                               Query3Variant::kVariantB));
  EXPECT_EQ(PointSql(5, {"3", "5", "4000", "7"}),
            nestra::MakeQuery3(3, 5, 4000, 7, OuterLink::kAny,
                               InnerLink::kExists, Query3Variant::kVariantC));
}

// The link kind of the first subquery in `sql` (the root's first link).
int RootLinkKind(const std::string& sql) {
  const size_t at = sql.find("(select ");
  const std::string before = sql.substr(0, at);
  auto ends_with = [&](const std::string& tail) {
    return before.size() >= tail.size() &&
           before.compare(before.size() - tail.size(), tail.size(), tail) == 0;
  };
  if (ends_with(" not exists ")) return 1;
  if (ends_with(" exists ")) return 0;
  if (ends_with(" not in ")) return 3;
  if (ends_with(" in ")) return 2;
  if (ends_with(" any ")) return 4;
  if (ends_with(" all ")) return 5;
  return sql.compare(at + 8, 6, "count(") == 0 ? 7 : 6;
}

TEST(GeneratorTest, NullsCorpusIsSeededAndCoversEveryRootOperator) {
  const std::vector<Statement> a = NullsCorpus(1, 80);
  const std::vector<Statement> b = NullsCorpus(1, 80);
  const std::vector<Statement> c = NullsCorpus(2, 80);
  ASSERT_EQ(a.size(), 80u);
  int differ = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sql, b[i].sql);
    differ += a[i].sql != c[i].sql;
  }
  EXPECT_GT(differ, 0);
  // Root link kinds cycle every kNumShapes queries.
  for (int kind = 0; kind < kNumLinkKinds; ++kind) {
    for (int shape = 0; shape < kNumShapes; ++shape) {
      const std::string& sql =
          a[static_cast<size_t>(kind * kNumShapes + shape)].sql;
      EXPECT_EQ(RootLinkKind(sql), kind)
          << "shape " << shape << ": " << sql;
    }
  }
}

}  // namespace
}  // namespace perfbench
