// Tiered retention end-to-end tests: result identity across residence
// states (hot, cold, merged, mid-compaction), memory-budgeted eviction
// under concurrent queries, crash/abort injection at the compaction and
// demotion commit points, recovery from the retention directory, the
// retention horizon (tombstoning + entity aging), and QueryContext byte
// budgets governing cold materialization.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/cancellation.h"
#include "common/failpoint.h"
#include "common/time_utils.h"
#include "engine/aiql_engine.h"
#include "engine/result.h"
#include "simulator/scenario.h"
#include "storage/database.h"
#include "storage/tiered.h"

namespace aiql {
namespace {

Timestamp T0() { return *MakeTimestamp(2018, 5, 10); }

EventRecord Rec(AgentId agent, OpType op, Timestamp start, uint64_t amount,
                const std::string& exe, ObjectRef object) {
  EventRecord record;
  record.agent_id = agent;
  record.op = op;
  record.start_ts = start;
  record.end_ts = start + kSecond;
  record.amount = amount;
  record.subject =
      ProcessRef{agent, static_cast<uint32_t>(100 + agent), exe, "root"};
  record.object = std::move(object);
  return record;
}

/// 3 agents x 5 hourly buckets, enough per-bucket volume to roll over the
/// (tiny) partition event cap several times — so every bucket has multiple
/// seq siblings for merge compaction to fold.
std::vector<EventRecord> BuildRecords() {
  std::vector<EventRecord> records;
  for (AgentId agent = 1; agent <= 3; ++agent) {
    for (int hour = 0; hour < 5; ++hour) {
      Timestamp base = T0() + hour * kHour;
      for (int i = 0; i < 60; ++i) {
        OpType op = i % 3 == 0   ? OpType::kRead
                    : i % 3 == 1 ? OpType::kWrite
                                 : OpType::kExecute;
        // Bucket-unique file paths: entities of expired buckets have no
        // later touches, so the aging pass has something to count.
        records.push_back(Rec(agent, op, base + i * kMinute, 10 + i,
                              "proc" + std::to_string(i % 4),
                              FileRef{agent, "/h" + std::to_string(hour) +
                                                 "/f" + std::to_string(i % 7)}));
      }
      records.push_back(
          Rec(agent, OpType::kConnect, base + 45 * kMinute, 0, "net",
              NetworkRef{agent, "10.0.0." + std::to_string(agent),
                         "172.16.0.9", 49152, 443, "tcp"}));
    }
  }
  return records;
}

StorageOptions SmallPartitions() {
  StorageOptions options;
  options.partition_duration = kHour;
  options.max_partition_events = 16;  // force seq rollover inside buckets
  return options;
}

const char* kQueries[] = {
    // Full scan with projection.
    "proc p1 write file f1 as e1 return p1, f1, e1.amount",
    // Filtered scan (entity predicate pushdown over every tier).
    "proc p1 read file f1[\"/h1/%\"] as e1 return p1, f1, e1.amount",
    // Ordered scan (limit above the total row count, so the canonicalized
    // row multiset is tier-independent even with tied timestamps).
    "proc p1 execute file f1 as e1 "
    "return p1, f1, e1.start_ts order by e1.start_ts limit 1000",
};

/// Canonicalized result tables for every probe query (rows sorted, so
/// multiset identity compares with ==; ordered queries stay stable because
/// the sort is a no-op permutation within equal rows).
std::vector<ResultTable> RunProbes(AiqlEngine* engine) {
  std::vector<ResultTable> out;
  for (const char* query : kQueries) {
    auto result = engine->Execute(query);
    EXPECT_TRUE(result.ok()) << query << ": " << result.status().ToString();
    ResultTable table =
        result.ok() ? std::move(result->table) : ResultTable{};
    table.SortRows();
    out.push_back(std::move(table));
  }
  return out;
}

class RetentionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoint::ClearAll();
    dir_ = std::string("/tmp/aiql_retention_test_") +
           std::to_string(reinterpret_cast<uintptr_t>(this)) + "_" +
           std::to_string(getpid());
    RemoveDir(dir_);
  }
  void TearDown() override {
    Failpoint::ClearAll();
    RemoveDir(dir_);
  }

  static void RemoveDir(const std::string& dir) {
    std::remove((dir + "/DATA").c_str());
    for (uint64_t seq = 0; seq <= 256; ++seq) {
      std::remove((dir + "/FOOTER." + std::to_string(seq)).c_str());
    }
    std::remove((dir + "/FOOTER.tmp").c_str());
    rmdir(dir.c_str());
  }

  /// Sealed tiered store over BuildRecords() in this test's directory.
  std::unique_ptr<TieredStore> BuildTiered(RetentionOptions retention) {
    retention.dir = dir_;
    auto store = TieredStore::Create(SmallPartitions(), retention);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    if (!store.ok()) return nullptr;
    EXPECT_TRUE((*store)->AppendBatch(BuildRecords()).ok());
    EXPECT_TRUE((*store)->Seal().ok());
    return std::move(*store);
  }

  /// All-hot baseline: the same records in a plain sealed database.
  std::vector<ResultTable> Baseline() {
    auto db = IngestRecords(BuildRecords(), SmallPartitions());
    EXPECT_TRUE(db.ok());
    EXPECT_TRUE(db->Seal().ok());
    AiqlEngine engine(&*db);
    return RunProbes(&engine);
  }

  std::string dir_;
};

TEST_F(RetentionTest, FullDemotionKeepsResultsIdentical) {
  std::vector<ResultTable> baseline = Baseline();

  RetentionOptions retention;
  retention.hot_buckets = -1;  // everything sealed is past the hot window
  retention.compact_min_partitions = 0;  // isolate demotion from merging
  auto store = BuildTiered(retention);
  ASSERT_NE(store, nullptr);

  AiqlEngine engine(store.get());
  EXPECT_EQ(RunProbes(&engine), baseline);  // all-hot tiered

  ASSERT_TRUE(store->CompactOnce().ok());
  RetentionStats stats = store->stats();
  EXPECT_EQ(stats.hot_partitions, 0u);
  EXPECT_GT(stats.cold_partitions, 0u);
  EXPECT_GT(stats.demotions, 0u);
  EXPECT_GT(stats.commits, 0u);

  EXPECT_EQ(RunProbes(&engine), baseline);  // all-cold tiered
  // Second run hits the (unlimited) cache — no extra disk decodes.
  uint64_t resident = store->stats().cache.resident;
  EXPECT_EQ(RunProbes(&engine), baseline);
  EXPECT_EQ(store->stats().cache.resident, resident);
}

TEST_F(RetentionTest, MergeCompactionKeepsResultsIdentical) {
  std::vector<ResultTable> baseline = Baseline();

  RetentionOptions retention;
  retention.hot_buckets = 1000;  // no demotion: isolate merging
  retention.compact_min_partitions = 2;
  auto store = BuildTiered(retention);
  ASSERT_NE(store, nullptr);
  uint64_t before = store->stats().hot_partitions;

  ASSERT_TRUE(store->CompactOnce().ok());
  RetentionStats stats = store->stats();
  EXPECT_GT(stats.merges, 0u);
  EXPECT_GT(stats.merged_partitions, stats.merges);  // >= 2 sources each
  EXPECT_LT(stats.hot_partitions, before);
  EXPECT_EQ(stats.cold_partitions, 0u);

  AiqlEngine engine(store.get());
  EXPECT_EQ(RunProbes(&engine), baseline);
}

TEST_F(RetentionTest, TinyBudgetMatchesUnlimitedWithEvictions) {
  std::vector<ResultTable> baseline = Baseline();

  RetentionOptions retention;
  retention.hot_buckets = -1;
  retention.compact_min_partitions = 0;
  retention.memory_budget_bytes = 1;  // at most one resident cold partition
  auto store = BuildTiered(retention);
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->CompactOnce().ok());
  ASSERT_GT(store->stats().cold_partitions, 0u);

  AiqlEngine engine(store.get());
  EXPECT_EQ(RunProbes(&engine), baseline);
  RetentionStats stats = store->stats();
  EXPECT_GT(stats.cache.evictions, 0u);
  EXPECT_LE(stats.cache.resident, 1u);

  // Re-running must re-materialize (reopens), still byte-identical.
  EXPECT_EQ(RunProbes(&engine), baseline);
  EXPECT_GT(store->stats().reopens, 0u);
}

TEST_F(RetentionTest, ConcurrentQueriesDuringCompactionStayIdentical) {
  std::vector<ResultTable> baseline = Baseline();

  RetentionOptions retention;
  retention.hot_buckets = 2;
  retention.compact_min_partitions = 2;
  retention.memory_budget_bytes = 64 * 1024;  // small: eviction under load
  auto store = BuildTiered(retention);
  ASSERT_NE(store, nullptr);

  // Queries race merge + demotion passes; every view must see each
  // partition in exactly one tier, so every result is byte-identical.
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      AiqlEngine engine(store.get());
      while (!stop.load(std::memory_order_relaxed)) {
        if (RunProbes(&engine) != baseline) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int pass = 0; pass < 8; ++pass) {
    ASSERT_TRUE(store->CompactOnce().ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);

  RetentionStats stats = store->stats();
  EXPECT_GT(stats.demotions, 0u);
  EXPECT_GT(stats.compactor_passes, 0u);
  AiqlEngine engine(store.get());
  EXPECT_EQ(RunProbes(&engine), baseline);
}

TEST_F(RetentionTest, BackgroundCompactorThreadDemotes) {
  RetentionOptions retention;
  retention.hot_buckets = -1;
  retention.compact_min_partitions = 0;
  retention.compact_interval = 1 * kMillisecond;
  auto store = BuildTiered(retention);
  ASSERT_NE(store, nullptr);

  store->StartCompactor();
  AiqlEngine engine(store.get());
  std::vector<ResultTable> baseline = Baseline();
  for (int i = 0; i < 200; ++i) {
    if (store->stats().hot_partitions == 0) break;
    EXPECT_EQ(RunProbes(&engine), baseline);  // query while it demotes
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  store->StopCompactor();
  EXPECT_EQ(store->stats().hot_partitions, 0u);
  EXPECT_EQ(RunProbes(&engine), baseline);
}

TEST_F(RetentionTest, RecoveryServesDemotedPartitions) {
  std::vector<ResultTable> baseline = Baseline();
  DatabaseStats want_stats;

  {
    RetentionOptions retention;
    retention.hot_buckets = -1;
    retention.compact_min_partitions = 0;
    auto store = BuildTiered(retention);
    ASSERT_NE(store, nullptr);
    want_stats = store->StatsSnapshot();
    ASSERT_TRUE(store->CompactOnce().ok());
    ASSERT_EQ(store->stats().hot_partitions, 0u);
  }  // destroy the store; everything lives in the retention directory

  RetentionOptions retention;
  retention.dir = dir_;
  auto reopened = TieredStore::Create(SmallPartitions(), retention);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  RetentionStats stats = (*reopened)->stats();
  EXPECT_EQ(stats.hot_partitions, 0u);
  EXPECT_GT(stats.cold_partitions, 0u);

  DatabaseStats recovered_stats = (*reopened)->StatsSnapshot();
  EXPECT_EQ(recovered_stats.total_events, want_stats.total_events);
  EXPECT_EQ(recovered_stats.raw_events, want_stats.raw_events);
  EXPECT_EQ(recovered_stats.min_ts, want_stats.min_ts);
  EXPECT_EQ(recovered_stats.max_ts, want_stats.max_ts);

  AiqlEngine engine(reopened->get());
  EXPECT_EQ(RunProbes(&engine), baseline);
}

TEST_F(RetentionTest, AbortedMergeLeavesSourcesUntouched) {
  std::vector<ResultTable> baseline = Baseline();

  RetentionOptions retention;
  retention.hot_buckets = 1000;
  retention.compact_min_partitions = 2;
  auto store = BuildTiered(retention);
  ASSERT_NE(store, nullptr);
  uint64_t before = store->stats().hot_partitions;

  ASSERT_TRUE(
      Failpoint::Configure("retention.compact.commit=error(Unavailable)")
          .ok());
  Status pass = store->CompactOnce();
  EXPECT_EQ(pass.code(), StatusCode::kUnavailable);
  Failpoint::ClearAll();

  RetentionStats stats = store->stats();
  EXPECT_EQ(stats.merges, 0u);
  EXPECT_EQ(stats.hot_partitions, before);
  AiqlEngine engine(store.get());
  EXPECT_EQ(RunProbes(&engine), baseline);

  // The next (clean) pass completes the merge.
  ASSERT_TRUE(store->CompactOnce().ok());
  EXPECT_GT(store->stats().merges, 0u);
  EXPECT_EQ(RunProbes(&engine), baseline);
}

TEST_F(RetentionTest, FailedDemotionWriteKeepsPartitionsHot) {
  std::vector<ResultTable> baseline = Baseline();

  RetentionOptions retention;
  retention.hot_buckets = -1;
  retention.compact_min_partitions = 0;
  auto store = BuildTiered(retention);
  ASSERT_NE(store, nullptr);
  uint64_t before = store->stats().hot_partitions;

  ASSERT_TRUE(
      Failpoint::Configure("retention.demote.write=error(IOError)").ok());
  Status pass = store->CompactOnce();
  EXPECT_EQ(pass.code(), StatusCode::kIOError);
  Failpoint::ClearAll();

  // Nothing was extracted: the failure happened before the durable commit.
  RetentionStats stats = store->stats();
  EXPECT_EQ(stats.demotions, 0u);
  EXPECT_EQ(stats.hot_partitions, before);
  EXPECT_EQ(stats.cold_partitions, 0u);
  AiqlEngine engine(store.get());
  EXPECT_EQ(RunProbes(&engine), baseline);

  ASSERT_TRUE(store->CompactOnce().ok());
  EXPECT_EQ(store->stats().hot_partitions, 0u);
  EXPECT_EQ(RunProbes(&engine), baseline);
}

TEST_F(RetentionTest, FailedReopenSurfacesAndRecovers) {
  RetentionOptions retention;
  retention.hot_buckets = -1;
  retention.compact_min_partitions = 0;
  retention.memory_budget_bytes = 1;  // keep nothing resident between runs
  auto store = BuildTiered(retention);
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->CompactOnce().ok());

  AiqlEngine engine(store.get());
  ASSERT_TRUE(
      Failpoint::Configure("retention.reopen=error(IOError)").ok());
  auto result = engine.Execute(kQueries[0]);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  Failpoint::ClearAll();

  // Transient fault: the next query materializes cleanly.
  EXPECT_EQ(RunProbes(&engine), Baseline());
}

TEST_F(RetentionTest, QueryByteBudgetGovernsColdMaterialization) {
  RetentionOptions retention;
  retention.hot_buckets = -1;
  retention.compact_min_partitions = 0;
  auto store = BuildTiered(retention);
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->CompactOnce().ok());

  AiqlEngine engine(store.get());
  QueryLimits limits;
  limits.max_bytes = 64;  // far below one partition's footprint
  QueryContext ctx(limits);
  auto result = engine.Execute(kQueries[0], &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);

  // An ungoverned query on the same store still runs to completion.
  auto clean = engine.Execute(kQueries[0]);
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
}

TEST_F(RetentionTest, RetentionHorizonTombstonesAndAgesEntities) {
  RetentionOptions retention;
  retention.hot_buckets = -1;
  retention.compact_min_partitions = 0;
  retention.retention_buckets = 2;  // keep the newest ~2 buckets only
  auto store = BuildTiered(retention);
  ASSERT_NE(store, nullptr);

  // Pass 1 demotes everything; pass 2 tombstones the expired buckets.
  ASSERT_TRUE(store->CompactOnce().ok());
  ASSERT_TRUE(store->CompactOnce().ok());
  RetentionStats stats = store->stats();
  EXPECT_GT(stats.tombstones, 0u);
  EXPECT_GT(stats.entities_aged, 0u);

  // Only partitions within the horizon remain visible — but some must.
  AiqlEngine engine(store.get());
  auto result = engine.Execute(kQueries[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(stats.cold_partitions + stats.hot_partitions, 0u);

  // Expired data stays gone across recovery (the committed footer already
  // dropped it).
  uint64_t cold_before = stats.cold_partitions;
  store.reset();
  RetentionOptions reopen_opts;
  reopen_opts.dir = dir_;
  auto reopened = TieredStore::Create(SmallPartitions(), reopen_opts);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->stats().cold_partitions, cold_before);
}

/// Partition order of a bucket-0 selection, as (agent, first start_ts)
/// pairs: what scans see, and so what row order they produce.
std::vector<std::pair<AgentId, Timestamp>> BucketZeroOrder(
    const ReadView& view) {
  auto selected =
      view.SelectPartitions(TimeRange{T0(), T0() + kHour}, std::nullopt);
  EXPECT_TRUE(selected.ok()) << selected.status().ToString();
  std::vector<std::pair<AgentId, Timestamp>> order;
  if (!selected.ok()) return order;
  for (const auto& [key, partition] : *selected) {
    order.emplace_back(key.agent_id, partition->events().front().start_ts);
  }
  return order;
}

TEST_F(RetentionTest, LateDataIntoDemotedBucketKeepsAllHotOrder) {
  // One event per agent in bucket 0 and bucket 3; then, after bucket 0 was
  // demoted, one late event per agent in bucket 0 and one in bucket 4. The
  // hot map no longer holds the demoted sibling, so each late partition
  // restarts at seq 0; once it is demoted too, the catalog holds two equal
  // (bucket, agent, seq) keys per agent.
  constexpr AgentId kAgents = 40;
  auto event = [](AgentId agent, Timestamp start) {
    return Rec(agent, OpType::kWrite, start, 1, "proc",
               FileRef{agent, "/f"});
  };
  std::vector<EventRecord> first, late;
  for (AgentId agent = 1; agent <= kAgents; ++agent) {
    first.push_back(event(agent, T0() + agent * kSecond));
    first.push_back(event(agent, T0() + 3 * kHour));
    late.push_back(event(agent, T0() + 30 * kMinute + agent * kSecond));
    late.push_back(event(agent, T0() + 4 * kHour));
  }

  AuditDatabase all_hot(StorageOptions{});
  ASSERT_TRUE(all_hot.AppendBatch(first).ok());
  ASSERT_TRUE(all_hot.AppendBatch(late).ok());
  ASSERT_TRUE(all_hot.Flush().ok());
  std::vector<std::pair<AgentId, Timestamp>> want =
      BucketZeroOrder(all_hot.OpenReadView());
  ASSERT_EQ(want.size(), 2 * kAgents);

  RetentionOptions retention;
  retention.dir = dir_;
  retention.hot_buckets = 1;
  retention.compact_min_partitions = 0;
  auto store = TieredStore::Create(StorageOptions{}, retention);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->AppendBatch(first).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->CompactOnce().ok());
  ASSERT_TRUE((*store)->AppendBatch(late).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->CompactOnce().ok());
  EXPECT_EQ((*store)->stats().demotions, 2 * kAgents);
  EXPECT_EQ(BucketZeroOrder((*store)->OpenReadView()), want);

  // Recovery keeps the order the committed catalog had.
  store->reset();
  retention.hot_buckets = 2;
  auto reopened = TieredStore::Create(StorageOptions{}, retention);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(BucketZeroOrder((*reopened)->OpenReadView()), want);
}

}  // namespace
}  // namespace aiql
