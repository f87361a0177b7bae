// Snapshot v2 unit tests: full round trip (events, statistics, indexes,
// options), lazy partition materialization through SnapshotStore, write-path
// error handling (short writes, failed sync/close), and format dispatch.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "engine/aiql_engine.h"
#include "storage/database.h"
#include "storage/partition_cache.h"
#include "storage/snapshot.h"

namespace aiql {
namespace {

Timestamp T0() { return *MakeTimestamp(2018, 5, 10); }

EventRecord Rec(AgentId agent, OpType op, Timestamp start, uint64_t amount,
                std::string exe, ObjectRef object) {
  EventRecord record;
  record.agent_id = agent;
  record.op = op;
  record.start_ts = start;
  record.end_ts = start + kSecond;
  record.amount = amount;
  record.subject = ProcessRef{agent, 100 + agent, std::move(exe), "root"};
  record.object = std::move(object);
  return record;
}

/// 3 agents x 4 hour buckets with dedup-merged runs, several ops and all
/// three object types — enough structure to exercise every column encoder.
AuditDatabase BuildDatabase() {
  StorageOptions options;
  options.partition_duration = kHour;
  options.dedup_window = 3 * kSecond;
  AuditDatabase db(options);
  for (AgentId agent = 1; agent <= 3; ++agent) {
    for (int hour = 0; hour < 4; ++hour) {
      Timestamp base = T0() + hour * kHour;
      for (int i = 0; i < 20; ++i) {
        OpType op = i % 3 == 0   ? OpType::kRead
                    : i % 3 == 1 ? OpType::kWrite
                                 : OpType::kExecute;
        EXPECT_TRUE(db.Append(Rec(agent, op, base + i * kMinute, 10 + i,
                                  "proc" + std::to_string(i % 4),
                                  FileRef{agent,
                                          "/data/f" + std::to_string(i % 5)}))
                        .ok());
      }
      // Back-to-back writes that merge (merge_count > 1, raw > stored).
      for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(db.Append(Rec(agent, OpType::kWrite,
                                  base + 30 * kMinute + i * kSecond, 100,
                                  "merger", FileRef{agent, "/merged"}))
                        .ok());
      }
      EXPECT_TRUE(
          db.Append(Rec(agent, OpType::kConnect, base + 40 * kMinute, 0,
                        "net", NetworkRef{agent, "10.0.0." +
                                          std::to_string(agent),
                                          "172.16.0.9", 49152, 443, "tcp"}))
              .ok());
      EXPECT_TRUE(db.Append(Rec(agent, OpType::kStart, base + 45 * kMinute, 0,
                                "parent",
                                ProcessRef{agent, 900 + agent, "child",
                                           "svc"}))
                      .ok());
    }
  }
  EXPECT_TRUE(db.Seal().ok());
  return db;
}

class SnapshotV2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::string("/tmp/aiql_snapshot_v2_test_") +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".snap";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(SnapshotV2Test, FullRoundTripPreservesEverything) {
  AuditDatabase db = BuildDatabase();
  ASSERT_TRUE(SaveSnapshot(db, path_).ok());

  auto loaded = LoadSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->sealed());

  // Options (including the field v1 never persisted).
  EXPECT_EQ(loaded->options().partition_duration,
            db.options().partition_duration);
  EXPECT_EQ(loaded->options().dedup_window, db.options().dedup_window);
  EXPECT_EQ(loaded->options().max_partition_events,
            db.options().max_partition_events);

  // Database statistics.
  EXPECT_EQ(loaded->stats().total_events, db.stats().total_events);
  EXPECT_EQ(loaded->stats().raw_events, db.stats().raw_events);
  EXPECT_GT(loaded->stats().raw_events, loaded->stats().total_events);
  EXPECT_EQ(loaded->stats().total_partitions, db.stats().total_partitions);
  EXPECT_EQ(loaded->stats().min_ts, db.stats().min_ts);
  EXPECT_EQ(loaded->stats().max_ts, db.stats().max_ts);
  for (int op = 0; op < kNumOpTypes; ++op) {
    EXPECT_EQ(loaded->stats().op_counts[op], db.stats().op_counts[op]);
  }

  // Entities and interned strings.
  EXPECT_EQ(loaded->entities().processes(), db.entities().processes());
  EXPECT_EQ(loaded->entities().files(), db.entities().files());
  EXPECT_EQ(loaded->entities().networks(), db.entities().networks());
  EXPECT_EQ(loaded->entities().exe_names().size(),
            db.entities().exe_names().size());
  for (StringId id = 0; id < db.entities().exe_names().size(); ++id) {
    EXPECT_EQ(loaded->entities().exe_names().Get(id),
              db.entities().exe_names().Get(id));
  }

  // Per-partition events and seal artifacts (no rebuild at load).
  ASSERT_EQ(loaded->partitions().size(), db.partitions().size());
  auto orig_it = db.partitions().begin();
  StringId merger = db.entities().exe_names().Lookup("merger");
  ASSERT_NE(merger, kInvalidStringId);
  for (auto load_it = loaded->partitions().begin();
       load_it != loaded->partitions().end(); ++load_it, ++orig_it) {
    ASSERT_EQ(load_it->first, orig_it->first);
    const EventPartition& a = *orig_it->second;
    const EventPartition& b = *load_it->second;
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.raw_event_count(), b.raw_event_count());
    EXPECT_EQ(a.min_ts(), b.min_ts());
    EXPECT_EQ(a.max_ts(), b.max_ts());
    EXPECT_EQ(a.SubjectExeCount(merger), b.SubjectExeCount(merger));
    for (size_t i = 0; i < a.size(); ++i) {
      const Event& x = a.events()[i];
      const Event& y = b.events()[i];
      EXPECT_EQ(x.start_ts, y.start_ts);
      EXPECT_EQ(x.end_ts, y.end_ts);
      EXPECT_EQ(x.amount, y.amount);
      EXPECT_EQ(x.subject, y.subject);
      EXPECT_EQ(x.object, y.object);
      EXPECT_EQ(x.agent_id, y.agent_id);
      EXPECT_EQ(x.merge_count, y.merge_count);
      EXPECT_EQ(x.op, y.op);
      EXPECT_EQ(x.object_type, y.object_type);
    }
    for (int op = 0; op < kNumOpTypes; ++op) {
      EXPECT_EQ(a.posting(static_cast<OpType>(op)).indexes,
                b.posting(static_cast<OpType>(op)).indexes);
    }
    EXPECT_EQ(b.OpCountInRange(0x1FF, TimeRange{INT64_MIN, INT64_MAX}),
              b.size());
  }
}

TEST_F(SnapshotV2Test, V2IsSubstantiallySmallerThanV1) {
  AuditDatabase db = BuildDatabase();
  std::string v1_path = path_ + ".v1";
  ASSERT_TRUE(SaveSnapshotV1(db, v1_path).ok());
  ASSERT_TRUE(SaveSnapshot(db, path_).ok());
  auto file_size = [](const std::string& p) -> long {
    FILE* f = std::fopen(p.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    return size;
  };
  long v1 = file_size(v1_path);
  long v2 = file_size(path_);
  std::remove(v1_path.c_str());
  EXPECT_GE(v1, v2 * 2) << "v1=" << v1 << " v2=" << v2;
}

TEST_F(SnapshotV2Test, OpenIsLazyAndQueriesMaterializeOnlyTouchedPartitions) {
  AuditDatabase db = BuildDatabase();
  ASSERT_TRUE(SaveSnapshot(db, path_).ok());

  auto store = SnapshotStore::Open(path_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->loaded_partitions(), 0u);
  EXPECT_EQ((*store)->total_partitions(), 12u);  // 3 agents x 4 buckets
  EXPECT_EQ((*store)->stats().total_events, db.stats().total_events);

  AiqlEngine db_engine(&db);
  AiqlEngine snap_engine(store->get());

  // One agent, one hour: only that partition is materialized.
  const std::string narrow =
      "(from \"00:00:00 05/10/2018\" to \"00:59:59 05/10/2018\") "
      "agentid = 2 proc p read || write file f return p, f";
  auto expected = db_engine.Execute(narrow);
  auto actual = snap_engine.Execute(narrow);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_EQ((*store)->loaded_partitions(), 1u);
  expected->table.SortRows();
  actual->table.SortRows();
  EXPECT_EQ(actual->table, expected->table);

  // Re-running the same query hits the cache — no further loads.
  ASSERT_TRUE(snap_engine.Execute(narrow).ok());
  EXPECT_EQ((*store)->loaded_partitions(), 1u);

  // An unfiltered query touches everything and still matches the database.
  const std::string broad = "proc p write file f return distinct p, f";
  auto expected_all = db_engine.Execute(broad);
  auto actual_all = snap_engine.Execute(broad);
  ASSERT_TRUE(expected_all.ok());
  ASSERT_TRUE(actual_all.ok());
  EXPECT_EQ((*store)->loaded_partitions(), (*store)->total_partitions());
  expected_all->table.SortRows();
  actual_all->table.SortRows();
  EXPECT_EQ(actual_all->table, expected_all->table);
}

/// Runs every query of `queries` `rounds` times from each of `threads`
/// threads (each starting at a different query) against one store, and
/// returns each thread's results in query order.
std::vector<std::vector<ResultTable>> QueryConcurrently(
    AiqlEngine* engine, const std::vector<std::string>& queries,
    int threads, int rounds) {
  std::vector<std::vector<ResultTable>> results(
      threads, std::vector<ResultTable>(queries.size()));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < rounds; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          size_t q = (i + t) % queries.size();
          auto result = engine->Execute(queries[q]);
          EXPECT_TRUE(result.ok()) << result.status().ToString();
          if (result.ok()) results[t][q] = std::move(result->table);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return results;
}

TEST_F(SnapshotV2Test, ConcurrentQueriesMatchSingleThreadedRun) {
  AuditDatabase db = BuildDatabase();
  ASSERT_TRUE(SaveSnapshot(db, path_).ok());
  const std::vector<std::string> queries = {
      "(from \"00:00:00 05/10/2018\" to \"01:59:59 05/10/2018\") "
      "agentid = 2 proc p read || write file f return p, f",
      "proc p write file f as e return p, f, e.amount",
      "proc p1 start proc p2 as e return p1, p2, e.start_ts "
      "order by e.start_ts",
      "proc p connect ip i return distinct p, i",
  };
  EngineOptions options;
  options.enable_parallelism = false;  // row order is the scan order

  std::vector<ResultTable> want;
  {
    auto store = SnapshotStore::Open(path_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    AiqlEngine engine(store->get(), options);
    for (const std::string& query : queries) {
      auto result = engine.Execute(query);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_GT(result->table.num_rows(), 0u) << query;
      want.push_back(std::move(result->table));
    }
  }

  // No cache attached: the store's private unlimited cache decodes every
  // partition exactly once, however many threads race for it.
  {
    auto store = SnapshotStore::Open(path_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    AiqlEngine engine(store->get(), options);
    for (const auto& got : QueryConcurrently(&engine, queries, 4, 3)) {
      EXPECT_EQ(got, want);
    }
    EXPECT_EQ((*store)->loaded_partitions(), (*store)->total_partitions());
    EXPECT_EQ((*store)->reopens(), 0u);
  }

  // A one-byte budget evicts on every insert: queries keep reopening and
  // reviving partitions other threads still pin.
  PartitionCache tiny(1);
  auto store = SnapshotStore::Open(path_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  (*store)->AttachCache(&tiny);
  AiqlEngine engine(store->get(), options);
  for (const auto& got : QueryConcurrently(&engine, queries, 4, 3)) {
    EXPECT_EQ(got, want);
  }
  EXPECT_GT((*store)->reopens(), 0u);
  EXPECT_LE(tiny.stats().resident, 1u);
}

TEST_F(SnapshotV2Test, EmptyDatabaseRoundTrips) {
  AuditDatabase db;
  ASSERT_TRUE(db.Seal().ok());
  ASSERT_TRUE(SaveSnapshot(db, path_).ok());
  auto loaded = LoadSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->stats().total_events, 0u);
  EXPECT_EQ(loaded->partitions().size(), 0u);

  auto store = SnapshotStore::Open(path_);
  ASSERT_TRUE(store.ok());
  AiqlEngine engine(store->get());
  auto result = engine.Execute("proc p read file f return p");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.num_rows(), 0u);
}

TEST_F(SnapshotV2Test, RefusesUnsealedDatabase) {
  AuditDatabase db;
  ASSERT_TRUE(
      db.Append(Rec(1, OpType::kWrite, T0(), 1, "a", FileRef{1, "/f"})).ok());
  EXPECT_EQ(SaveSnapshot(db, path_).code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotV2Test, FailedSaveLeavesNoFileBehind) {
  AuditDatabase db = BuildDatabase();
  std::string bad_path = "/nonexistent_aiql_dir/db.snap";
  EXPECT_EQ(SaveSnapshot(db, bad_path).code(), StatusCode::kIOError);
  // Neither the target nor the temporary may exist after a failed save.
  EXPECT_EQ(std::fopen(bad_path.c_str(), "rb"), nullptr);
  EXPECT_EQ(std::fopen((bad_path + ".tmp").c_str(), "rb"), nullptr);
}

// --- write-path error injection ---------------------------------------------

/// Sink that fails a chosen operation; Append simulates a short write once
/// `fail_after` bytes have been accepted.
class FailingSink : public SnapshotSink {
 public:
  enum class Mode { kShortWrite, kFailSync, kFailClose, kNone };

  explicit FailingSink(Mode mode, size_t fail_after = 0)
      : mode_(mode), fail_after_(fail_after) {}

  Status Append(const void* /*data*/, size_t n) override {
    if (mode_ == Mode::kShortWrite && written_ + n > fail_after_) {
      return Status::IOError("injected short write after " +
                             std::to_string(written_) + " bytes");
    }
    written_ += n;
    return Status::OK();
  }
  Status Sync() override {
    if (mode_ == Mode::kFailSync) {
      return Status::IOError("injected sync failure");
    }
    synced_ = true;
    return Status::OK();
  }
  Status Close() override {
    if (mode_ == Mode::kFailClose) {
      return Status::IOError("injected close failure");
    }
    closed_ = true;
    return Status::OK();
  }

  size_t written() const { return written_; }
  bool synced() const { return synced_; }
  bool closed() const { return closed_; }

 private:
  Mode mode_;
  size_t fail_after_;
  size_t written_ = 0;
  bool synced_ = false;
  bool closed_ = false;
};

TEST(SnapshotSinkTest, ShortWritesAreNeverReportedAsSuccess) {
  AuditDatabase db = BuildDatabase();
  // Probe cut-offs across the whole file: header, segments, footer, trailer.
  FailingSink probe(FailingSink::Mode::kNone);
  ASSERT_TRUE(SaveSnapshotToSink(db, &probe).ok());
  size_t total = probe.written();
  ASSERT_GT(total, 100u);
  for (size_t cut : {size_t{0}, size_t{5}, size_t{11}, size_t{100},
                     total / 3, total / 2, total - 25, total - 1}) {
    FailingSink sink(FailingSink::Mode::kShortWrite, cut);
    Status status = SaveSnapshotToSink(db, &sink);
    EXPECT_FALSE(status.ok()) << "cut at " << cut << " bytes";
    EXPECT_EQ(status.code(), StatusCode::kIOError);
  }
}

TEST(SnapshotSinkTest, SyncAndCloseFailuresPropagate) {
  AuditDatabase db = BuildDatabase();
  FailingSink sync_fail(FailingSink::Mode::kFailSync);
  EXPECT_EQ(SaveSnapshotToSink(db, &sync_fail).code(), StatusCode::kIOError);

  FailingSink close_fail(FailingSink::Mode::kFailClose);
  Status status = SaveSnapshotToSink(db, &close_fail);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_TRUE(close_fail.synced());  // failure came from close, after sync

  FailingSink ok_sink(FailingSink::Mode::kNone);
  EXPECT_TRUE(SaveSnapshotToSink(db, &ok_sink).ok());
  EXPECT_TRUE(ok_sink.synced());
  EXPECT_TRUE(ok_sink.closed());
}

}  // namespace
}  // namespace aiql
