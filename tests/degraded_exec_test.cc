// Degraded sharded execution under injected faults: strict vs partial
// shard policy, bounded retry of transient storage faults, per-shard
// degradation annotations, the 50ms-deadline-vs-500ms-slow-shard
// acceptance scenario, snapshot-read fault handling (error and corrupt
// actions), and degraded sharded provenance tracking.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/failpoint.h"
#include "common/status.h"
#include "common/time_utils.h"
#include "engine/aiql_engine.h"
#include "engine/result.h"
#include "storage/database.h"
#include "storage/shard_map.h"
#include "storage/snapshot.h"
#include "storage/tiered.h"

namespace aiql {
namespace {

Timestamp T0() { return *MakeTimestamp(2018, 5, 10); }

EventRecord Rec(AgentId agent, Timestamp start, const std::string& exe,
                const std::string& path) {
  EventRecord record;
  record.agent_id = agent;
  record.op = OpType::kWrite;
  record.start_ts = start;
  record.end_ts = start + kSecond;
  record.amount = 1;
  record.subject =
      ProcessRef{agent, static_cast<uint32_t>(100 + agent), exe, "root"};
  record.object = FileRef{agent, path};
  return record;
}

/// 4 shards, one agent each; agent a writes files "/data/a<a>_<i>" from
/// process "p<a>.exe", so every result row names the shard it came from.
struct FaultWorld {
  std::vector<std::unique_ptr<AuditDatabase>> dbs;
  std::vector<std::unique_ptr<SnapshotStore>> snaps;
  std::vector<std::string> snap_paths;
  ShardMap map;

  ~FaultWorld() {
    snaps.clear();
    for (const std::string& path : snap_paths) std::remove(path.c_str());
  }
};

std::unique_ptr<FaultWorld> BuildFaultWorld(int events_per_shard,
                                            bool snapshot_backed) {
  auto world = std::make_unique<FaultWorld>();
  auto ranges = EvenAgentRanges(4, 1, 4);
  for (size_t s = 0; s < 4; ++s) {
    AgentId agent = static_cast<AgentId>(s + 1);
    auto db = std::make_unique<AuditDatabase>(StorageOptions{});
    std::string exe = "p" + std::to_string(agent) + ".exe";
    for (int i = 0; i < events_per_shard; ++i) {
      std::string path =
          "/data/a" + std::to_string(agent) + "_" + std::to_string(i);
      EXPECT_TRUE(
          db->Append(Rec(agent, T0() + i * kSecond, exe, path)).ok());
    }
    EXPECT_TRUE(db->Seal().ok());
    world->dbs.push_back(std::move(db));
    Status added;
    if (snapshot_backed) {
      std::string path = "/tmp/aiql_degraded_exec_" + std::to_string(s) +
                         ".snap";
      Status saved = SaveSnapshot(*world->dbs.back(), path);
      if (!saved.ok()) {
        ADD_FAILURE() << saved.ToString();
        return nullptr;
      }
      world->snap_paths.push_back(path);
      auto store = SnapshotStore::Open(path);
      if (!store.ok()) {
        ADD_FAILURE() << store.status().ToString();
        return nullptr;
      }
      world->snaps.push_back(std::move(*store));
      added = world->map.AddShard(world->snaps.back().get(), ranges[s]);
    } else {
      added = world->map.AddShard(world->dbs.back().get(), ranges[s]);
    }
    if (!added.ok()) {
      ADD_FAILURE() << added.ToString();
      return nullptr;
    }
  }
  return world;
}

constexpr const char* kScanQuery = "proc p1 write file f1 as e1 return p1, f1";

EngineOptions FastRetryOptions(ShardPolicy policy) {
  EngineOptions options;
  options.shard_policy = policy;
  options.shard_retry_backoff = std::chrono::milliseconds(1);
  return options;
}

/// Multiset of rendered rows, for subset / equality comparisons.
std::multiset<std::string> RowSet(const ResultTable& table) {
  std::multiset<std::string> out;
  for (const auto& row : table.rows) {
    std::string rendered;
    for (const auto& cell : row) rendered += ValueToString(cell) + "|";
    out.insert(rendered);
  }
  return out;
}

bool IsSubset(const std::multiset<std::string>& sub,
              const std::multiset<std::string>& super) {
  auto pool = super;
  for (const auto& row : sub) {
    auto it = pool.find(row);
    if (it == pool.end()) return false;
    pool.erase(it);
  }
  return true;
}

class DegradedExecTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoint::ClearAll(); }
  void TearDown() override { Failpoint::ClearAll(); }
};

TEST_F(DegradedExecTest, StrictPolicyAggregatesPersistentShardFault) {
  auto world = BuildFaultWorld(50, /*snapshot_backed=*/false);
  ASSERT_NE(world, nullptr);
  AiqlEngine engine(&world->map, FastRetryOptions(ShardPolicy::kStrict));
  ASSERT_TRUE(Failpoint::Configure("shard.scatter=error(IOError)@arg2").ok());
  auto result = engine.Execute(kScanQuery);
  ASSERT_FALSE(result.ok());
  // Every attempt failed, so the transient fault maps to kUnavailable and
  // the aggregate names the shard and the injected cause.
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("shard 2"), std::string::npos);
  EXPECT_NE(result.status().message().find("3 attempt(s)"),
            std::string::npos);
  EXPECT_NE(result.status().message().find(
                "injected by failpoint 'shard.scatter'"),
            std::string::npos);
}

TEST_F(DegradedExecTest, RetryRecoversFromTransientFault) {
  auto world = BuildFaultWorld(50, /*snapshot_backed=*/false);
  ASSERT_NE(world, nullptr);
  AiqlEngine engine(&world->map, FastRetryOptions(ShardPolicy::kStrict));
  auto clean = engine.Execute(kScanQuery);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // Only shard 1's FIRST scatter attempt fails; the retry succeeds, so even
  // strict mode returns the full result, annotated with the retry.
  ASSERT_TRUE(
      Failpoint::Configure("shard.scatter=error(IOError)@nth1@arg1").ok());
  auto result = engine.Execute(kScanQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(RowSet(result->table), RowSet(clean->table));
  EXPECT_FALSE(result->degraded.partial);
  EXPECT_EQ(result->degraded.shards_retried, 1);
  ASSERT_EQ(result->degraded.shard_status.size(), 4u);
  EXPECT_EQ(result->degraded.shard_status[1].attempts, 2);
  EXPECT_FALSE(result->degraded.shard_status[1].dropped);
}

TEST_F(DegradedExecTest, PartialPolicyDropsFailedShardAndAnnotates) {
  auto world = BuildFaultWorld(50, /*snapshot_backed=*/false);
  ASSERT_NE(world, nullptr);
  AiqlEngine strict_engine(&world->map,
                           FastRetryOptions(ShardPolicy::kStrict));
  auto clean = strict_engine.Execute(kScanQuery);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  AiqlEngine engine(&world->map, FastRetryOptions(ShardPolicy::kPartial));
  ASSERT_TRUE(Failpoint::Configure("shard.scatter=error(IOError)@arg2").ok());
  auto result = engine.Execute(kScanQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Shard 2 (agent 3) is gone; the survivors' rows are intact.
  EXPECT_EQ(result->table.num_rows(), 3u * 50u);
  EXPECT_TRUE(IsSubset(RowSet(result->table), RowSet(clean->table)));
  for (const auto& row : result->table.rows) {
    EXPECT_NE(ValueToString(row[0]), "p3.exe");
  }
  EXPECT_TRUE(result->degraded.partial);
  EXPECT_EQ(result->degraded.shards_failed, 1);
  EXPECT_EQ(result->degraded.shards_timed_out, 0);
  ASSERT_EQ(result->degraded.shard_status.size(), 4u);
  EXPECT_TRUE(result->degraded.shard_status[2].dropped);
  EXPECT_EQ(result->degraded.shard_status[2].status.code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(result->degraded.ToString().empty());
}

TEST_F(DegradedExecTest, AllShardsFailedIsAFailureEvenInPartialMode) {
  auto world = BuildFaultWorld(20, /*snapshot_backed=*/false);
  ASSERT_NE(world, nullptr);
  AiqlEngine engine(&world->map, FastRetryOptions(ShardPolicy::kPartial));
  ASSERT_TRUE(Failpoint::Configure("shard.scatter=error(IOError)").ok());
  auto result = engine.Execute(kScanQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("4 of 4 shard(s) failed"),
            std::string::npos);
}

TEST_F(DegradedExecTest, DeadlineVsSlowShardStrictAndPartial) {
  // The acceptance scenario: a 50ms deadline against a shard with an
  // injected 500ms stall. Strict fails with kDeadlineExceeded; partial
  // drops the slow shard and returns the survivors' rows — both well under
  // 100ms wall clock because the injected stall is interruptible.
  auto world = BuildFaultWorld(50, /*snapshot_backed=*/false);
  ASSERT_NE(world, nullptr);
  QueryLimits limits;
  limits.timeout = std::chrono::milliseconds(50);

  ASSERT_TRUE(
      Failpoint::Configure("shard.scatter=latency(500000)@arg3").ok());
  {
    AiqlEngine engine(&world->map, FastRetryOptions(ShardPolicy::kStrict));
    QueryContext ctx(limits);
    auto start = std::chrono::steady_clock::now();
    auto result = engine.Execute(kScanQuery, &ctx);
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_LT(elapsed.count(), 100);
  }
  {
    AiqlEngine engine(&world->map, FastRetryOptions(ShardPolicy::kPartial));
    QueryContext ctx(limits);
    auto start = std::chrono::steady_clock::now();
    auto result = engine.Execute(kScanQuery, &ctx);
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_LT(elapsed.count(), 100);
    EXPECT_EQ(result->table.num_rows(), 3u * 50u);
    EXPECT_TRUE(result->degraded.partial);
    EXPECT_EQ(result->degraded.shards_timed_out, 1);
    EXPECT_EQ(result->degraded.shards_failed, 0);
    ASSERT_EQ(result->degraded.shard_status.size(), 4u);
    EXPECT_TRUE(result->degraded.shard_status[3].dropped);
    EXPECT_EQ(result->degraded.shard_status[3].status.code(),
              StatusCode::kDeadlineExceeded);
  }
}

TEST_F(DegradedExecTest, SnapshotReadFaultRetriedThenUnavailable) {
  auto world = BuildFaultWorld(50, /*snapshot_backed=*/true);
  ASSERT_NE(world, nullptr);
  // Persistent read fault on every partition materialization: strict mode
  // surfaces kUnavailable after retries; partial mode returns survivors.
  // @arg filtering is not available here (the site's arg is not a shard
  // index), so the fault hits every shard and partial mode degenerates to
  // the all-failed error.
  ASSERT_TRUE(
      Failpoint::Configure("snapshot.read.partition=error(IOError)").ok());
  AiqlEngine engine(&world->map, FastRetryOptions(ShardPolicy::kStrict));
  auto result = engine.Execute(kScanQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find(
                "injected by failpoint 'snapshot.read.partition'"),
            std::string::npos);

  // Cleared: the same engine serves the full result again.
  Failpoint::ClearAll();
  auto healed = engine.Execute(kScanQuery);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed->table.num_rows(), 4u * 50u);
}

TEST_F(DegradedExecTest, CorruptSnapshotReadIsCaughtAndRetried) {
  auto world = BuildFaultWorld(50, /*snapshot_backed=*/true);
  ASSERT_NE(world, nullptr);
  AiqlEngine engine(&world->map, FastRetryOptions(ShardPolicy::kStrict));
  // One bit-flip on the first partition read: the checksum must catch it
  // and the shard retry must re-read cleanly — full result, no error.
  ASSERT_TRUE(
      Failpoint::Configure("snapshot.read.partition=corrupt@nth1").ok());
  auto result = engine.Execute(kScanQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.num_rows(), 4u * 50u);
  EXPECT_GE(result->degraded.shards_retried, 1);
}

TEST_F(DegradedExecTest, TrackDegradesPerShardPolicy) {
  auto world = BuildFaultWorld(30, /*snapshot_backed=*/false);
  ASSERT_NE(world, nullptr);
  TrackRequest request;
  request.type = EntityType::kFile;
  request.name_like = "/data/a%";  // roots on every shard

  // Clean reference: every shard contributes its writer process.
  {
    AiqlEngine engine(&world->map, FastRetryOptions(ShardPolicy::kStrict));
    auto clean = engine.Track(request);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_EQ(clean->stats.shards_dropped, 0);
  }

  ASSERT_TRUE(Failpoint::Configure("shard.track=error(IOError)@arg1").ok());
  {
    AiqlEngine engine(&world->map, FastRetryOptions(ShardPolicy::kStrict));
    auto result = engine.Track(request);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(result.status().message().find("shard 1"), std::string::npos);
  }
  {
    AiqlEngine engine(&world->map, FastRetryOptions(ShardPolicy::kPartial));
    auto result = engine.Track(request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->stats.truncated);
    EXPECT_EQ(result->stats.shards_dropped, 1);
    bool annotated = false;
    for (const ShardTrackStatus& s : result->stats.shard_status) {
      if (s.shard == 1 && s.dropped) annotated = true;
    }
    EXPECT_TRUE(annotated) << "dropped shard not annotated in stats";
    // Root selection precedes the failing hop, so shard 1's root files may
    // appear — but nothing can have been EXPANDED on the dropped shard.
    for (const ProvenanceNode& node : result->nodes) {
      if (node.depth > 0) {
        EXPECT_NE(node.shard, 1u);
      }
    }
  }
}

TEST_F(DegradedExecTest, TrackRetryRecordsAttempts) {
  auto world = BuildFaultWorld(30, /*snapshot_backed=*/false);
  ASSERT_NE(world, nullptr);
  AiqlEngine engine(&world->map, FastRetryOptions(ShardPolicy::kStrict));
  TrackRequest request;
  request.type = EntityType::kFile;
  request.name_like = "/data/a%";
  ASSERT_TRUE(
      Failpoint::Configure("shard.track=error(IOError)@nth1@arg2").ok());
  auto result = engine.Track(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.shards_dropped, 0);
  bool recorded = false;
  for (const ShardTrackStatus& s : result->stats.shard_status) {
    if (s.shard == 2 && s.attempts > 1 && !s.dropped) recorded = true;
  }
  EXPECT_TRUE(recorded) << "recovered retry not annotated in stats";
}

// ---------------------------------------------------------------------------
// Tiered shards: one shard's partitions all live cold in a retention
// directory, so the `retention.reopen` failpoint makes that shard's lazy
// materialization fail — the degraded machinery must treat it exactly like
// any other storage fault.
// ---------------------------------------------------------------------------

/// Like FaultWorld, but shard 2 (agent 3) is a fully demoted TieredStore.
struct TieredFaultWorld {
  std::vector<std::unique_ptr<AuditDatabase>> dbs;
  std::unique_ptr<TieredStore> tiered;
  std::string dir;
  ShardMap map;

  ~TieredFaultWorld() {
    tiered.reset();
    std::remove((dir + "/DATA").c_str());
    for (uint64_t seq = 0; seq <= 64; ++seq) {
      std::remove((dir + "/FOOTER." + std::to_string(seq)).c_str());
    }
    std::remove((dir + "/FOOTER.tmp").c_str());
    rmdir(dir.c_str());
  }
};

std::unique_ptr<TieredFaultWorld> BuildTieredFaultWorld(int events_per_shard) {
  auto world = std::make_unique<TieredFaultWorld>();
  world->dir = "/tmp/aiql_degraded_tiered_" +
               std::to_string(reinterpret_cast<uintptr_t>(world.get()));
  auto ranges = EvenAgentRanges(4, 1, 4);
  for (size_t s = 0; s < 4; ++s) {
    AgentId agent = static_cast<AgentId>(s + 1);
    std::string exe = "p" + std::to_string(agent) + ".exe";
    std::vector<EventRecord> records;
    for (int i = 0; i < events_per_shard; ++i) {
      records.push_back(Rec(agent, T0() + i * kSecond, exe,
                            "/data/a" + std::to_string(agent) + "_" +
                                std::to_string(i)));
    }
    Status added;
    if (s == 2) {
      RetentionOptions retention;
      retention.dir = world->dir;
      retention.hot_buckets = -1;  // demote every sealed partition
      retention.compact_min_partitions = 0;
      // Nothing stays resident between queries, so every execution takes
      // the lazy-reopen path where `retention.reopen` is injected.
      retention.memory_budget_bytes = 1;
      auto store = TieredStore::Create(StorageOptions{}, retention);
      if (!store.ok()) {
        ADD_FAILURE() << store.status().ToString();
        return nullptr;
      }
      world->tiered = std::move(*store);
      EXPECT_TRUE(world->tiered->AppendBatch(std::move(records)).ok());
      EXPECT_TRUE(world->tiered->Seal().ok());
      EXPECT_TRUE(world->tiered->CompactOnce().ok());
      EXPECT_EQ(world->tiered->stats().hot_partitions, 0u);
      added = world->map.AddShard(world->tiered.get(), ranges[s]);
    } else {
      auto db = std::make_unique<AuditDatabase>(StorageOptions{});
      EXPECT_TRUE(db->AppendBatch(std::move(records)).ok());
      EXPECT_TRUE(db->Seal().ok());
      world->dbs.push_back(std::move(db));
      added = world->map.AddShard(world->dbs.back().get(), ranges[s]);
    }
    if (!added.ok()) {
      ADD_FAILURE() << added.ToString();
      return nullptr;
    }
  }
  return world;
}

TEST_F(DegradedExecTest, TieredShardReopenFaultDroppedUnderPartialPolicy) {
  auto world = BuildTieredFaultWorld(40);
  ASSERT_NE(world, nullptr);
  EXPECT_STREQ(world->map.source(2)->kind(), "tiered");
  AiqlEngine engine(&world->map, FastRetryOptions(ShardPolicy::kPartial));
  auto clean = engine.Execute(kScanQuery);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  // Drop the partition the clean query left resident, so the next query
  // must take the disk-reopen path where the fault is injected.
  world->tiered->cache()->EraseOwner(world->tiered.get());

  ASSERT_TRUE(
      Failpoint::Configure("retention.reopen=error(IOError)").ok());
  auto result = engine.Execute(kScanQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->degraded.partial);
  ASSERT_EQ(result->degraded.shard_status.size(), 4u);
  EXPECT_TRUE(result->degraded.shard_status[2].dropped);
  EXPECT_TRUE(IsSubset(RowSet(result->table), RowSet(clean->table)));
  EXPECT_LT(result->table.rows.size(), clean->table.rows.size());
  // No row from the dropped shard's agent leaked through.
  for (const auto& row : result->table.rows) {
    for (const auto& cell : row) {
      EXPECT_EQ(ValueToString(cell).find("p3.exe"), std::string::npos);
    }
  }
}

TEST_F(DegradedExecTest, TieredShardReopenFaultFailsStrictPolicy) {
  auto world = BuildTieredFaultWorld(40);
  ASSERT_NE(world, nullptr);
  AiqlEngine engine(&world->map, FastRetryOptions(ShardPolicy::kStrict));
  ASSERT_TRUE(
      Failpoint::Configure("retention.reopen=error(IOError)").ok());
  auto result = engine.Execute(kScanQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("shard 2"), std::string::npos);
}

TEST_F(DegradedExecTest, TieredShardReopenTransientRetryRecovers) {
  auto world = BuildTieredFaultWorld(40);
  ASSERT_NE(world, nullptr);
  AiqlEngine engine(&world->map, FastRetryOptions(ShardPolicy::kStrict));
  auto clean = engine.Execute(kScanQuery);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  world->tiered->cache()->EraseOwner(world->tiered.get());

  // Only the first materialization attempt fails; the shard-level retry
  // re-runs the scan and finds the fault gone.
  ASSERT_TRUE(
      Failpoint::Configure("retention.reopen=error(IOError)@nth1").ok());
  auto result = engine.Execute(kScanQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(RowSet(result->table), RowSet(clean->table));
  EXPECT_FALSE(result->degraded.partial);
  ASSERT_EQ(result->degraded.shard_status.size(), 4u);
  EXPECT_EQ(result->degraded.shard_status[2].attempts, 2);
  EXPECT_FALSE(result->degraded.shard_status[2].dropped);
}

TEST_F(DegradedExecTest, TieredShardMemoryBudgetSplit) {
  auto world = BuildTieredFaultWorld(40);
  ASSERT_NE(world, nullptr);
  // One tiered shard in the map: it receives the whole budget.
  EXPECT_EQ(world->map.SetMemoryBudget(8192), 1u);
  EXPECT_EQ(world->tiered->cache()->stats().budget_bytes, 8192u);

  AiqlEngine engine(&world->map, FastRetryOptions(ShardPolicy::kStrict));
  auto result = engine.Execute(kScanQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Lifting the budget (0) keeps queries working too.
  EXPECT_EQ(world->map.SetMemoryBudget(0), 1u);
  EXPECT_EQ(world->tiered->cache()->stats().budget_bytes, 0u);
}

}  // namespace
}  // namespace aiql
