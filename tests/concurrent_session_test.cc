// Concurrency tests for the shared-state layers: the Catalog under
// concurrent DDL + lookups, the slow-query log under many writers, and the
// headline contract of the session subsystem — N concurrent sessions over
// one shared Catalog/ThreadPool produce results bit-identical to a serial
// run of the same statements.
//
// This suite is part of the TSan CI job: the catalog and slow-query tests
// exist precisely to fail under -fsanitize=thread if the shared_mutex /
// write-serialization fixes regress.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "json_checker.h"
#include "query_generator.h"
#include "server/connection_manager.h"
#include "server/harness.h"
#include "server/session.h"
#include "storage/catalog.h"
#include "telemetry/slow_query.h"
#include "test_util.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"

namespace nestra {
namespace {

using testing_util::I;
using testing_util::JsonChecker;
using testing_util::MakeTable;
using testing_util::N;

// ---------- Catalog: concurrent DDL vs. lookups ----------

// Regression for the Catalog data race: RegisterTable used to mutate the
// table map (and run its NULL scan) with no synchronization against readers.
// Under TSan this test fails on the old code; on the fixed code it must be
// clean AND observe consistent values.
TEST(CatalogConcurrencyTest, ConcurrentRegisterAndLookup) {
  Catalog catalog;
  // Stable tables the readers hammer while writers churn other names.
  ASSERT_OK(catalog.RegisterTable(
      "stable", MakeTable({"k", "v"}, {{I(1), I(10)}, {I(2), N()}}), "k"));
  ASSERT_OK(catalog.RegisterTable(
      "probe", MakeTable({"k"}, {{I(1)}, {I(2)}, {I(3)}}), "k"));

  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kTablesPerWriter = 24;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&catalog, w] {
      for (int i = 0; i < kTablesPerWriter; ++i) {
        const std::string name =
            "t" + std::to_string(w) + "_" + std::to_string(i);
        // Rows include NULLs so registration's NULL scan runs concurrently
        // with readers (the scan must happen outside the exclusive lock,
        // on the argument, not on shared state).
        Table t = MakeTable({"a", "b"},
                            {{I(i), N()}, {I(i + 1), I(i)}, {I(i + 2), N()}});
        ASSERT_OK(catalog.RegisterTable(name, std::move(t)));
        ASSERT_OK(catalog.AddNotNull(name, "a"));
        if (i % 3 == 0) ASSERT_OK(catalog.DropTable(name));
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&catalog, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        EXPECT_TRUE(catalog.HasTable("stable"));
        const Result<const Table*> t = catalog.GetTable("stable");
        ASSERT_TRUE(t.ok());
        EXPECT_EQ((*t)->num_rows(), 2);
        // PK is proven NOT NULL, data column is not (it has a NULL).
        EXPECT_TRUE(catalog.ProvenNotNull("stable", "k"));
        EXPECT_FALSE(catalog.ProvenNotNull("stable", "v"));
        EXPECT_GE(catalog.TableNames().size(), 2u);
        EXPECT_GE(catalog.TableVersion("stable"), 1u);
        EXPECT_EQ(catalog.TableVersion("no_such_table"), 0u);
        const Result<const HashIndex*> idx = catalog.GetHashIndex("probe", "k");
        ASSERT_TRUE(idx.ok());
      }
    });
  }
  // Writers finish first; then release the readers.
  for (int i = 0; i < kWriters; ++i) threads[i].join();
  stop.store(true, std::memory_order_release);
  for (int i = kWriters; i < kWriters + kReaders; ++i) threads[i].join();

  // 1/3 of each writer's tables were dropped again.
  int survivors = 0;
  for (const std::string& name : catalog.TableNames()) {
    if (name[0] == 't') ++survivors;
  }
  EXPECT_EQ(survivors, kWriters * kTablesPerWriter * 2 / 3);
}

TEST(CatalogConcurrencyTest, ConcurrentIndexBuildsReturnOneIndex) {
  Catalog catalog;
  Table t = MakeTable({"k", "v"}, {});
  for (int i = 0; i < 256; ++i) {
    t.AppendUnchecked(Row({I(i), I(i % 7)}));
  }
  ASSERT_OK(catalog.RegisterTable("big", std::move(t), "k"));

  constexpr int kThreads = 8;
  std::vector<const HashIndex*> hash_seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      // All threads race to build the same lazily-cached indexes.
      const Result<const HashIndex*> h = catalog.GetHashIndex("big", "v");
      ASSERT_TRUE(h.ok());
      hash_seen[i] = *h;
    });
  }
  for (std::thread& th : threads) th.join();
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(hash_seen[i], hash_seen[0]) << "thread " << i;
  }
}

// ---------- slow-query log: many writers, no torn lines ----------

TEST(SlowQueryConcurrencyTest, ManyWritersProduceOnlyWholeJsonLines) {
  const std::string path =
      ::testing::TempDir() + "nestra_slow_concurrent.jsonl";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("NESTRA_SLOW_QUERY_LOG", path.c_str(), 1), 0);

  constexpr int kThreads = 8;
  constexpr int kLines = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        telemetry::SlowQueryRecord rec;
        // Long, distinctive payloads: if whole-line writes were not
        // serialized, interleavings would corrupt the JSON below.
        rec.sql = "select \"pad\" from t" + std::to_string(t) +
                  " where x = " + std::to_string(i) + " and y in (" +
                  std::string(512, 'q') + ")";
        rec.session = "s" + std::to_string(t + 1);
        rec.total_ms = t * 1000 + i;
        rec.output_rows = i;
        rec.num_threads = kThreads;
        telemetry::LogSlowQuery(rec);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  unsetenv("NESTRA_SLOW_QUERY_LOG");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  int total = 0;
  std::map<std::string, int> per_session;
  std::string line;
  while (std::getline(in, line)) {
    ++total;
    ASSERT_TRUE(JsonChecker(line).Valid()) << "torn line: " << line;
    ASSERT_EQ(line.rfind("{\"event\":\"slow_query\"", 0), 0u) << line;
    const size_t at = line.find("\"session\":\"");
    ASSERT_NE(at, std::string::npos) << line;
    const size_t begin = at + 11;
    ++per_session[line.substr(begin, line.find('"', begin) - begin)];
  }
  EXPECT_EQ(total, kThreads * kLines);
  EXPECT_EQ(per_session.size(), static_cast<size_t>(kThreads));
  for (const auto& [session, count] : per_session) {
    EXPECT_EQ(count, kLines) << session;
  }
  std::remove(path.c_str());
}

// ---------- sessions: concurrent == serial, bit for bit ----------

std::vector<std::string> StressStatements() {
  std::vector<std::string> statements;
  testing_util::QueryGenerator gen(20260809);
  for (int i = 0; i < 6; ++i) statements.push_back(gen.RandomQuery());
  statements.push_back(MakeQuery1("1994-01-01", "1995-01-01"));
  statements.push_back(MakeQuery2(1, 25, 500, 10, OuterLink::kAny,
                                  InnerLink::kNotExists));
  statements.push_back(MakeQuery3(1, 25, 500, 10, OuterLink::kAll,
                                  InnerLink::kExists,
                                  Query3Variant::kVariantA));
  return statements;
}

void PopulateStressCatalog(Catalog* catalog) {
  testing_util::QueryGenerator gen(20260809);
  gen.PopulateTables(catalog);
  TpchConfig config;
  config.scale = 0.02;
  config.declare_not_null = true;
  ASSERT_OK(PopulateTpch(catalog, config));
}

TEST(ConcurrentSessionTest, EightSessionsMatchSerialBitForBit) {
  Catalog catalog;
  PopulateStressCatalog(&catalog);
  const std::vector<std::string> statements = StressStatements();

  for (const int threads : {1, 2, 8}) {
    ServerOptions options;
    options.max_in_flight = 4;
    options.session_defaults.num_threads = threads;
    const std::string config = "threads=" + std::to_string(threads);

    // Serial baseline: one session, statements in order.
    ConnectionManager serial_manager(&catalog, options);
    std::vector<uint64_t> serial_hashes;
    {
      std::unique_ptr<Session> session = serial_manager.Connect();
      for (const std::string& sql : statements) {
        ASSERT_OK_AND_ASSIGN(Table t, session->Query(sql));
        serial_hashes.push_back(HashTable(t));
      }
    }

    // 8 concurrent sessions, same script each, sharing catalog + pool.
    ConnectionManager manager(&catalog, options);
    std::vector<ClientScript> clients(8);
    for (ClientScript& c : clients) {
      c.statements = statements;
      c.repeat = 2;
    }
    const HarnessResult result = RunConcurrentClients(manager, clients);
    ASSERT_EQ(result.errors, 0) << config;
    ASSERT_EQ(result.total_statements,
              static_cast<int64_t>(8 * 2 * statements.size()))
        << config;
    for (size_t c = 0; c < clients.size(); ++c) {
      for (size_t i = 0; i < result.per_client[c].size(); ++i) {
        const HarnessResult::Outcome& out = result.per_client[c][i];
        ASSERT_TRUE(out.ok) << config << " client " << c << ": " << out.error;
        EXPECT_EQ(out.hash, serial_hashes[i % statements.size()])
            << config << " client " << c << " statement " << i << ": "
            << statements[i % statements.size()];
      }
    }
    EXPECT_LE(manager.admission().peak_in_flight(), 4) << config;
    EXPECT_EQ(manager.admission().admitted_total(),
              static_cast<int64_t>(8 * 2 * statements.size()))
        << config;
  }
}

TEST(ConcurrentSessionTest, ConcurrentPreparedExecutionsMatchSerial) {
  Catalog catalog;
  PopulateStressCatalog(&catalog);
  const std::string parameterized =
      "select uk from u where uk >= $1 and u1 in ("
      "  select v1 from v where vk >= 0 and v2 = u2)";

  ServerOptions options;
  options.max_in_flight = 4;
  ConnectionManager manager(&catalog, options);

  // Serial truth for each argument value, via the literal SQL.
  std::vector<uint64_t> want;
  {
    std::unique_ptr<Session> session = manager.Connect();
    for (int arg = 0; arg < 4; ++arg) {
      ASSERT_OK_AND_ASSIGN(
          Table t,
          session->Query("select uk from u where uk >= " +
                         std::to_string(arg) + " and u1 in ("
                         "  select v1 from v where vk >= 0 and v2 = u2)"));
      want.push_back(HashTable(t));
    }
  }

  std::vector<ClientScript> clients(8);
  for (ClientScript& c : clients) {
    c.setup = [&parameterized](Session& session) {
      return session.Prepare("q", parameterized);
    };
    for (int arg = 0; arg < 4; ++arg) {
      c.statements.push_back("EXECUTE q (" + std::to_string(arg) + ")");
    }
    c.repeat = 3;
  }
  const HarnessResult result = RunConcurrentClients(manager, clients);
  ASSERT_EQ(result.errors, 0);
  for (const std::vector<HarnessResult::Outcome>& outcomes :
       result.per_client) {
    ASSERT_EQ(outcomes.size(), 12u);
    for (size_t i = 0; i < outcomes.size(); ++i) {
      ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
      EXPECT_EQ(outcomes[i].hash, want[i % want.size()]) << "statement " << i;
    }
  }
}

TEST(ConcurrentSessionTest, DdlIsSerializedAgainstRunningQueries) {
  Catalog catalog;
  PopulateStressCatalog(&catalog);
  ConnectionManager manager(&catalog);

  std::atomic<bool> stop{false};
  // One thread churns DDL on tables no query references...
  std::thread ddl([&] {
    int i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::string name = "churn" + std::to_string(i++ % 4);
      if (manager.catalog().HasTable(name)) {
        ASSERT_OK(manager.DropTable(name));
      } else {
        ASSERT_OK(manager.RegisterTable(
            name, MakeTable({"a"}, {{I(i)}, {N()}})));
      }
    }
  });
  // ...while sessions keep querying the stable ones. The exclusive schema
  // lock must only delay them, never break them.
  std::vector<ClientScript> clients(4);
  for (ClientScript& c : clients) {
    c.statements = {
        "select uk from u where uk >= 0 and exists ("
        "  select vk from v where v1 = u1)",
        "select wk from w where w1 > 2",
    };
    c.repeat = 20;
  }
  const HarnessResult result = RunConcurrentClients(manager, clients);
  stop.store(true, std::memory_order_release);
  ddl.join();
  EXPECT_EQ(result.errors, 0);
  EXPECT_EQ(result.total_statements, 4 * 2 * 20);
}

}  // namespace
}  // namespace nestra
