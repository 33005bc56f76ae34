// The single-table base scan (EvalBlockBase's one morsel scan) against a
// hand-built ScanNode -> FilterNode pipeline over the same table. That
// pipeline is the generic node path multi-table blocks still take, so it is
// an independent reference for every setting the morsel scan folds into one
// loop: threads {1,2,8}, compiled kernels and the per-row fallback for a
// predicate that does not compile, the proven-2VL kernel compile on and off
// over NULL-bearing columns, and zone-map pruning both
// firing (tables of at least kMinPruneGranules granules) and not (smaller
// tables, cost_based off, or predicates no zone can reject).
//
// Rows must match row-exactly, in table order. At one thread the IoSim
// charges must also match the reference under a freshly Reset() simulator:
// the ScanNode's per-row SeqRow charges for unpruned scans, and the same
// per-row charges restricted to the kept granules for pruned ones.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exec/filter.h"
#include "exec/scan.h"
#include "nra/planner.h"
#include "nra/profile.h"
#include "plan/binder.h"
#include "storage/io_sim.h"
#include "storage/table_stats.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::I;
using testing_util::MakeTable;
using testing_util::N;

// Rows: zk = i + 1 (key, NULL-free), zv = i (sorted, so zone ranges are
// tight), zs = i % 97 with every 97th value NULL, zn = i % 1000 with every
// 5th value NULL.
Table MakeScanTable(int64_t granules) {
  Table t = MakeTable({"zk", "zv", "zs", "zn"}, {});
  for (int64_t i = 0; i < granules * kZoneGranuleRows; ++i) {
    t.AppendUnchecked(Row({I(i + 1), I(i), i % 97 == 0 ? N() : I(i % 97),
                           i % 5 == 0 ? N() : I(i % 1000)}));
  }
  return t;
}

struct ScanCase {
  std::string where;  // empty: no local predicate
  // Granules the zone map keeps on the 16-granule table with cost_based
  // on; -1 when no granule is provably empty (pruning does not fire).
  int64_t kept_on_big = -1;
};

const std::vector<ScanCase>& Cases() {
  static const std::vector<ScanCase> cases = {
      {"", -1},
      {"z.zv >= 3500", 13},
      {"z.zv < 900 and z.zs is not null", 1},
      {"z.zv = 16000", 1},
      {"z.zv > 100000", 0},
      {"z.zs > 50", -1},
      {"z.zk <> 7 and z.zs = 3", -1},
      {"z.zn >= 990 and z.zs is null", -1},
      // Not compilable to kernels (arithmetic, OR): the per-row fallback.
      {"z.zv + 1 > 10 or z.zs is null", -1},
  };
  return cases;
}

class MorselScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(catalog_.RegisterTable("big", MakeScanTable(16), "zk"));
    // Below kMinPruneGranules: never pruned, whatever the predicate.
    ASSERT_OK(catalog_.RegisterTable("small", MakeScanTable(4), "zk"));
  }

  QueryBlockPtr Bind(const std::string& table, const ScanCase& c) {
    std::string sql = "select z.zk from " + table + " z";
    if (!c.where.empty()) sql += " where " + c.where;
    Result<QueryBlockPtr> bound = ParseAndBind(sql, catalog_);
    EXPECT_TRUE(bound.ok()) << sql << ": " << bound.status().ToString();
    return bound.ok() ? std::move(bound).ValueOrDie() : nullptr;
  }

  // The reference: Scan -> Filter over the block's one table, drained row
  // at a time.
  Table Reference(const QueryBlock& block) {
    const Table* table = *catalog_.GetTable(block.tables[0].table);
    ExecNodePtr node =
        std::make_unique<ScanNode>(table, block.tables[0].alias);
    if (block.local_pred != nullptr) {
      node = std::make_unique<FilterNode>(std::move(node),
                                          block.local_pred->Clone());
    }
    Table out(node->output_schema());
    Status s = node->Open();
    Row row;
    bool eof = false;
    while (s.ok()) {
      s = node->Next(&row, &eof);
      if (!s.ok() || eof) break;
      out.AppendUnchecked(std::move(row));
    }
    node->Close();
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  Catalog catalog_;
};

void ExpectRowExact(const Table& want, const Table& got,
                    const std::string& context) {
  ASSERT_EQ(want.num_rows(), got.num_rows()) << context;
  ASSERT_EQ(want.schema().num_fields(), got.schema().num_fields()) << context;
  for (int64_t i = 0; i < want.num_rows(); ++i) {
    ASSERT_TRUE(want.rows()[static_cast<size_t>(i)] ==
                got.rows()[static_cast<size_t>(i)])
        << context << "\nfirst divergence at row " << i;
  }
}

TEST_F(MorselScanTest, RowsMatchScanFilterPipelineEverywhere) {
  for (const char* table : {"big", "small"}) {
    for (const ScanCase& c : Cases()) {
      const QueryBlockPtr block = Bind(table, c);
      ASSERT_NE(block, nullptr);
      const Table want = Reference(*block);
      for (const int threads : {1, 2, 8}) {
        for (const bool two_valued : {false, true}) {
          for (const bool cost_based : {false, true}) {
            const std::string context =
                std::string(table) + " where " + c.where +
                "\nthreads=" + std::to_string(threads) +
                " two_valued=" + std::to_string(two_valued) +
                " cost_based=" + std::to_string(cost_based);
            QueryProfile profile;
            ASSERT_OK_AND_ASSIGN(Table got,
                                 EvalBlockBase(*block, catalog_, threads,
                                               &profile, two_valued,
                                               cost_based));
            ExpectRowExact(want, got, context);

            // Pruning fires exactly where the zone map can prove
            // granules empty, and EXPLAIN reports how many it kept.
            ASSERT_EQ(profile.stages().size(), 1u) << context;
            const ProfiledStage& stage = profile.stages()[0];
            ASSERT_TRUE(stage.has_tree) << context;
            const bool pruned = cost_based && std::string(table) == "big" &&
                                c.kept_on_big >= 0;
            EXPECT_EQ(stage.tree.detail,
                      pruned ? "granules=" + std::to_string(c.kept_on_big) +
                                   "/16"
                             : "")
                << context;
            EXPECT_EQ(stage.rows_out, want.num_rows()) << context;
          }
        }
      }
    }
  }
}

TEST_F(MorselScanTest, SerialIoChargesMatchPerRowReference) {
  IoSim sim;
  for (const std::string& name : catalog_.TableNames()) {
    sim.RegisterTable(*catalog_.GetTable(name));
  }
  IoSim::Install(&sim);
  for (const char* table_name : {"big", "small"}) {
    const Table* table = *catalog_.GetTable(table_name);
    for (const ScanCase& c : Cases()) {
      const QueryBlockPtr block = Bind(table_name, c);
      ASSERT_NE(block, nullptr);
      for (const bool cost_based : {false, true}) {
        const bool pruned = cost_based &&
                            std::string(table_name) == "big" &&
                            c.kept_on_big >= 0;
        // Reference charges from a fresh pool: the ScanNode's per-row
        // SeqRow calls, or — when pruning fires — the same per-row calls
        // over just the granules holding matching rows (the predicates
        // above are ranges over the sorted zv, so those are exactly the
        // granules the zone map keeps).
        sim.Reset();
        if (!pruned) {
          (void)Reference(*block);
        } else {
          const Table want = Reference(*block);
          sim.Reset();
          std::vector<bool> kept(16, false);
          for (const Row& r : want.rows()) {
            kept[static_cast<size_t>(r[1].int64() / kZoneGranuleRows)] =
                true;
          }
          int64_t kept_count = 0;
          for (int64_t g = 0; g < 16; ++g) {
            if (!kept[static_cast<size_t>(g)]) continue;
            ++kept_count;
            for (int64_t i = g * kZoneGranuleRows;
                 i < (g + 1) * kZoneGranuleRows; ++i) {
              sim.SeqRow(table, i);
            }
          }
          ASSERT_EQ(kept_count, c.kept_on_big) << c.where;
        }
        const int64_t hits = sim.hits();
        const int64_t seq_misses = sim.seq_misses();
        const int64_t random_misses = sim.random_misses();

        for (const bool two_valued : {false, true}) {
          const std::string context =
              std::string(table_name) + " where " + c.where +
              "\ntwo_valued=" + std::to_string(two_valued) +
              " cost_based=" + std::to_string(cost_based);
          sim.Reset();
          QueryProfile profile;
          const Result<Table> got =
              EvalBlockBase(*block, catalog_, /*num_threads=*/1, &profile,
                            two_valued, cost_based);
          if (!got.ok()) {
            IoSim::Install(nullptr);
            FAIL() << context << ": " << got.status().ToString();
          }
          EXPECT_EQ(sim.hits(), hits) << context;
          EXPECT_EQ(sim.seq_misses(), seq_misses) << context;
          EXPECT_EQ(sim.random_misses(), random_misses) << context;
          // The stage attributes exactly the simulator's delta.
          const ProfiledOperator& op = profile.stages()[0].tree;
          EXPECT_EQ(op.stats.io_hits, hits) << context;
          EXPECT_EQ(op.stats.io_seq_misses, seq_misses) << context;
          EXPECT_EQ(op.stats.io_random_misses, random_misses) << context;
        }
      }
    }
  }
  IoSim::Install(nullptr);
}

}  // namespace
}  // namespace nestra
