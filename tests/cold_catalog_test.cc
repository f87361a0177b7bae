// Cold materialization concurrency: single-flight decode per partition,
// independence of distinct partitions, deterministic error order of a
// parallel selection, and identical selections with and without a decode
// pool over snapshot and tiered views.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "common/cancellation.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "storage/database.h"
#include "storage/snapshot.h"
#include "storage/tiered.h"

namespace aiql {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kAgents = 3;
constexpr int kHours = 4;

Timestamp T0() { return *MakeTimestamp(2018, 5, 10); }

/// kAgents x kHours hourly partitions of 30 events each, agent-distinct
/// amounts so the partitions differ in content.
std::vector<EventRecord> BuildRecords() {
  std::vector<EventRecord> records;
  for (AgentId agent = 1; agent <= kAgents; ++agent) {
    for (int hour = 0; hour < kHours; ++hour) {
      for (int i = 0; i < 30; ++i) {
        EventRecord record;
        record.agent_id = agent;
        record.op = i % 2 == 0 ? OpType::kRead : OpType::kWrite;
        record.start_ts = T0() + hour * kHour + i * kMinute;
        record.end_ts = record.start_ts + kSecond;
        record.amount = static_cast<uint64_t>(agent * 1000 + i);
        record.subject = ProcessRef{agent, static_cast<uint32_t>(100 + agent),
                                    "proc" + std::to_string(i % 3), "root"};
        record.object =
            FileRef{agent, "/h" + std::to_string(hour) + "/f" +
                               std::to_string(i % 5)};
        records.push_back(std::move(record));
      }
    }
  }
  return records;
}

/// (bucket, agent, events) of each selected partition, in selection order.
using Selection = std::vector<std::tuple<int64_t, AgentId, size_t>>;

Selection Describe(
    const std::vector<std::pair<PartitionKey, const EventPartition*>>& parts) {
  Selection out;
  for (const auto& [key, partition] : parts) {
    out.emplace_back(key.bucket, key.agent_id, partition->size());
  }
  return out;
}

class ColdCatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoint::ClearAll();
    std::string base = "/tmp/aiql_cold_catalog_test_" +
                       std::to_string(reinterpret_cast<uintptr_t>(this)) +
                       "_" + std::to_string(getpid());
    snapshot_path_ = base + ".snap";
    dir_ = base + ".dir";
    RemoveDir(dir_);
  }
  void TearDown() override {
    Failpoint::ClearAll();
    std::remove(snapshot_path_.c_str());
    RemoveDir(dir_);
  }

  static void RemoveDir(const std::string& dir) {
    std::remove((dir + "/DATA").c_str());
    for (uint64_t seq = 0; seq <= 64; ++seq) {
      std::remove((dir + "/FOOTER." + std::to_string(seq)).c_str());
    }
    std::remove((dir + "/FOOTER.tmp").c_str());
    rmdir(dir.c_str());
  }

  /// Saves the records as a v2 snapshot (footer index = catalog order:
  /// hour-major, then agent).
  void SaveRecords() {
    StorageOptions options;
    options.partition_duration = kHour;
    AuditDatabase db(options);
    ASSERT_TRUE(db.AppendBatch(BuildRecords()).ok());
    ASSERT_TRUE(db.Seal().ok());
    ASSERT_TRUE(SaveSnapshot(db, snapshot_path_).ok());
  }

  std::unique_ptr<SnapshotStore> OpenSnapshot() {
    auto store = SnapshotStore::Open(snapshot_path_);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return store.ok() ? std::move(*store) : nullptr;
  }

  std::string snapshot_path_;
  std::string dir_;
};

TEST_F(ColdCatalogTest, ConcurrentRequestsForOnePartitionDecodeOnce) {
  SaveRecords();
  auto store = OpenSnapshot();
  ASSERT_NE(store, nullptr);
  // Stall the decode so the other threads arrive while it is in flight.
  ASSERT_TRUE(Failpoint::Configure("retention.reopen=latency(20000)").ok());

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const EventPartition>> pins(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      auto pin = store->MaterializePartition(5);
      EXPECT_TRUE(pin.ok()) << pin.status().ToString();
      if (pin.ok()) pins[t] = std::move(*pin);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(store->loaded_partitions(), 1u);
  EXPECT_EQ(store->reopens(), 0u);
  ASSERT_NE(pins[0], nullptr);
  for (const auto& pin : pins) EXPECT_EQ(pin.get(), pins[0].get());
}

TEST_F(ColdCatalogTest, StalledDecodeDoesNotBlockAnotherPartition) {
  SaveRecords();
  auto store = OpenSnapshot();
  ASSERT_NE(store, nullptr);
  constexpr size_t kStalled = 3;
  constexpr size_t kOther = 8;
  // Two seconds of stall on partition kStalled only; the stalled thread's
  // context is cancelled afterwards, which ends the sleep early.
  ASSERT_TRUE(Failpoint::Configure("retention.reopen=latency(2000000)@arg" +
                                   std::to_string(kStalled))
                  .ok());
  QueryContext stalled_ctx(QueryLimits{});
  std::atomic<bool> stalled_done{false};
  std::thread stalled([&] {
    ScopedQueryContext bind(&stalled_ctx);
    (void)store->MaterializePartition(kStalled);
    stalled_done.store(true, std::memory_order_release);
  });
  // Filtered hits do not count, so one hit means the stall has begun.
  auto wait_start = Clock::now();
  while (Failpoint::HitCount("retention.reopen") == 0 &&
         Clock::now() - wait_start < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(Failpoint::HitCount("retention.reopen"), 1u);

  auto start = Clock::now();
  auto other = store->MaterializePartition(kOther);
  auto elapsed = Clock::now() - start;
  bool finished_during_stall = !stalled_done.load(std::memory_order_acquire);
  stalled_ctx.Cancel();
  stalled.join();

  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_TRUE(finished_during_stall)
      << "partition " << kOther << " waited for partition " << kStalled;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
}

TEST_F(ColdCatalogTest, ParallelSelectionReturnsFirstErrorInSelectionOrder) {
  SaveRecords();
  ThreadPool pool(4);
  // Footer index of (hour, agent): hour-major, then agent.
  auto key_of = [](int hour, AgentId agent) {
    return static_cast<uint64_t>(hour * kAgents + (agent - 1));
  };
  struct Case {
    const char* failpoint;
    TimeRange range;
    std::optional<std::vector<AgentId>> agents;
    uint64_t want_key;  // the partition whose error must surface
  };
  const std::string reopen_error = "retention.reopen=error(IOError)";
  const std::string later_only =
      reopen_error + "@arg" + std::to_string(key_of(2, 2));
  // Every read fails, but the first selected partition only after a stall,
  // so its error is the last to arrive.
  const std::string first_slowest =
      "retention.reopen=latency(50000)@arg" + std::to_string(key_of(0, 3)) +
      ";snapshot.read.partition=error(IOError)";
  const std::vector<Case> cases = {
      // Two selected partitions, both failing: the earlier one's error.
      {reopen_error.c_str(), TimeRange{T0() + kHour, T0() + 3 * kHour},
       std::vector<AgentId>{2}, key_of(1, 2)},
      // Every partition of a wide selection failing.
      {reopen_error.c_str(), TimeRange{T0(), T0() + kHours * kHour},
       std::vector<AgentId>{3, 2}, key_of(0, 2)},
      // Only the later of the two failing.
      {later_only.c_str(), TimeRange{T0() + kHour, T0() + 3 * kHour},
       std::vector<AgentId>{2}, key_of(2, 2)},
      {first_slowest.c_str(), TimeRange{T0(), T0() + kHours * kHour},
       std::vector<AgentId>{3}, key_of(0, 3)},
  };
  for (const Case& c : cases) {
    const std::string want =
        "(arg " + std::to_string(c.want_key) + ")";
    for (int rep = 0; rep < 10; ++rep) {
      // A fresh store per run: its cache is empty, so every selected
      // partition goes to disk.
      auto store = OpenSnapshot();
      ASSERT_NE(store, nullptr);
      ASSERT_TRUE(Failpoint::Configure(c.failpoint).ok());
      ReadView view = store->OpenReadView();
      view.set_decode_pool(&pool);
      auto selected = view.SelectPartitions(c.range, c.agents);
      Failpoint::ClearAll();
      ASSERT_FALSE(selected.ok()) << c.failpoint;
      EXPECT_EQ(selected.status().code(), StatusCode::kIOError);
      EXPECT_NE(selected.status().message().find(want), std::string::npos)
          << c.failpoint << " rep " << rep << ": "
          << selected.status().ToString();
    }
  }
}

TEST_F(ColdCatalogTest, StoppedQueryClaimsNoDecodes) {
  SaveRecords();
  auto store = OpenSnapshot();
  ASSERT_NE(store, nullptr);
  ThreadPool pool(4);
  QueryContext ctx(QueryLimits{});
  ctx.Cancel();
  ScopedQueryContext bind(&ctx);
  ReadView view = store->OpenReadView();
  view.set_decode_pool(&pool);
  auto selected = view.SelectPartitions(
      TimeRange{T0(), T0() + kHours * kHour}, std::nullopt);
  ASSERT_FALSE(selected.ok());
  EXPECT_EQ(selected.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(store->loaded_partitions(), 0u);
}

/// Random time ranges and agent filters over the test's span.
std::vector<std::pair<TimeRange, std::optional<std::vector<AgentId>>>>
RandomSelections(uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<std::pair<TimeRange, std::optional<std::vector<AgentId>>>> out;
  for (int i = 0; i < count; ++i) {
    Timestamp a = T0() - kHour +
                  static_cast<Timestamp>(rng.Uniform((kHours + 2) * 60)) *
                      kMinute;
    Timestamp b = T0() - kHour +
                  static_cast<Timestamp>(rng.Uniform((kHours + 2) * 60)) *
                      kMinute;
    if (a > b) std::swap(a, b);
    std::optional<std::vector<AgentId>> agents;
    if (rng.Uniform(3) != 0) {
      agents.emplace();
      for (AgentId agent = 1; agent <= kAgents + 1; ++agent) {
        if (rng.Uniform(2) == 0) agents->push_back(agent);
      }
    }
    out.emplace_back(TimeRange{a, b + kMinute}, std::move(agents));
  }
  return out;
}

/// Runs every selection on a serial view and on a pooled view of `source`
/// and requires identical (bucket, agent, events) sequences.
void ExpectPoolMatchesSerial(const PartitionSource& source, ThreadPool* pool,
                             uint64_t seed) {
  size_t nonempty = 0;
  for (const auto& [range, agents] : RandomSelections(seed, 60)) {
    ReadView serial = source.OpenReadView();
    ReadView pooled = source.OpenReadView();
    pooled.set_decode_pool(pool);
    auto want = serial.SelectPartitions(range, agents);
    auto got = pooled.SelectPartitions(range, agents);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(Describe(*got), Describe(*want));
    if (!want->empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 10u);  // the ranges actually select partitions
}

TEST_F(ColdCatalogTest, PooledSelectionsMatchSerialOnSnapshotViews) {
  SaveRecords();
  ThreadPool pool(4);
  auto store = OpenSnapshot();
  ASSERT_NE(store, nullptr);
  ExpectPoolMatchesSerial(*store, &pool, 7);
  // Under a one-byte budget every selection reopens or revives.
  PartitionCache tiny(1);
  auto budgeted = OpenSnapshot();
  ASSERT_NE(budgeted, nullptr);
  budgeted->AttachCache(&tiny);
  ExpectPoolMatchesSerial(*budgeted, &pool, 11);
  EXPECT_GT(budgeted->reopens(), 0u);
}

TEST_F(ColdCatalogTest, PooledSelectionsMatchSerialOnTieredViews) {
  ThreadPool pool(4);
  StorageOptions storage;
  storage.partition_duration = kHour;
  storage.max_partition_events = 8;  // several seq siblings per bucket
  RetentionOptions retention;
  retention.dir = dir_;
  retention.hot_buckets = 1;  // the last two buckets stay hot
  retention.compact_min_partitions = 0;
  retention.memory_budget_bytes = 4096;  // evicts as selections sweep
  auto store = TieredStore::Create(storage, retention);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->AppendBatch(BuildRecords()).ok());
  ASSERT_TRUE((*store)->Seal().ok());
  ASSERT_TRUE((*store)->CompactOnce().ok());
  RetentionStats stats = (*store)->stats();
  ASSERT_GT(stats.hot_partitions, 0u);
  ASSERT_GT(stats.cold_partitions, 0u);
  ExpectPoolMatchesSerial(**store, &pool, 13);
}

}  // namespace
}  // namespace aiql
