// Tiered retention: one unified residence model for sealed partitions.
//
// The deployed system retains 0.5-1 year of audit data — far more than fits
// in RAM — while the freshest hours take nearly all queries. TieredStore
// layers that lifecycle over AuditDatabase: every sealed partition is in
// exactly one residence state,
//
//   hot        in RAM inside the AuditDatabase (recently sealed, or pinned
//              there because its bucket is inside the hot window),
//   cold       demoted to an on-disk retention directory (incremental v2
//              snapshot, storage/snapshot_append.h); reopened lazily through
//              a memory-budgeted LRU PartitionCache when a query selects it,
//   compacting transiently owned by the background Compactor while small
//              sibling partitions of one (bucket, agent) are merged.
//
// A background compactor pass (the same seal-pool pattern the database uses
// for background sealing) performs, in order: merge compaction of
// small/overflow partitions, demotion of sealed partitions older than the
// hot window (append to the retention log + durable footer commit, then
// atomic extraction from the hot map), tombstoning of cold partitions past
// the retention horizon, and entity-store aging accounting.
//
// Queries open a ReadView exactly as against a plain database; the view
// captures the hot partitions (under the database's shared state lock) and
// an immutable snapshot of the cold directory in one atomic step, so a
// query runs against a consistent residence assignment even while the
// compactor keeps moving partitions between tiers — results are
// byte-identical whether a partition is hot, cold, or was merged
// mid-stream. The cold directory is a ColdCatalog (storage/cold_catalog.h)
// whose materializations are pinned for the view's lifetime
// (PartitionPinSet), so cache eviction reclaims budget without invalidating
// in-flight scans, and are charged to the running QueryContext's memory
// budget.
//
// Crash safety: demotion only extracts a partition from RAM after the
// retention directory's footer commit made it durable; recovery reopens the
// newest valid footer, so a crash at any point loses no partition (it was
// either still hot in the writer's WAL-equivalent upstream, or durable).

#ifndef AIQL_STORAGE_TIERED_H_
#define AIQL_STORAGE_TIERED_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/time_utils.h"
#include "storage/cold_catalog.h"
#include "storage/database.h"
#include "storage/partition_cache.h"
#include "storage/snapshot_append.h"

namespace aiql {

/// Tiered-retention tuning knobs.
struct RetentionOptions {
  /// Retention directory (created if missing). Required.
  std::string dir;

  /// Byte budget for materialized cold partitions (the PartitionCache
  /// budget); 0 = unlimited. Charged by actual partition footprint.
  size_t memory_budget_bytes = 0;

  /// Sealed partitions stay hot while their bucket is within this many
  /// buckets of the newest bucket seen; older ones are demoted to cold.
  /// Negative values demote every sealed partition, the newest bucket
  /// included (tests and benchmarks use -1 to force an all-cold store).
  int64_t hot_buckets = 2;

  /// Cold partitions whose bucket falls this many buckets behind the newest
  /// bucket are tombstoned (dropped from the committed footer); 0 = keep
  /// forever.
  int64_t retention_buckets = 0;

  /// Minimum sibling partitions of one (bucket, agent) for merge compaction
  /// to fire; values < 2 disable merging.
  size_t compact_min_partitions = 2;

  /// Background compactor pass period.
  Duration compact_interval = 200 * kMillisecond;
};

/// Counters describing the tiered lifecycle (all monotone except the
/// residence/cache gauges).
struct RetentionStats {
  uint64_t hot_partitions = 0;   ///< sealed partitions resident in RAM
  uint64_t cold_partitions = 0;  ///< partitions in the retention directory
  uint64_t compactor_passes = 0;
  uint64_t merges = 0;             ///< merge-compaction commits
  uint64_t merged_partitions = 0;  ///< source partitions consumed by merges
  uint64_t demotions = 0;          ///< partitions demoted to cold
  uint64_t tombstones = 0;         ///< cold partitions expired + dropped
  uint64_t commits = 0;            ///< durable footer commits
  uint64_t reopens = 0;            ///< cold decodes after first residence
  uint64_t entities_aged = 0;      ///< entities past the retention horizon
  PartitionCacheStats cache;
};

/// The tiered store. Write path and lifecycle:
///   Append/AppendBatch/Flush  ->  hot partitions seal as usual
///   Compactor (background)    ->  merge / demote / tombstone / age
/// Read path: OpenReadView() from any thread. Thread model matches
/// AuditDatabase (single writer, many readers) plus exactly one maintenance
/// thread (the compactor, or a test calling CompactOnce()).
class TieredStore final : public PartitionSource {
 public:
  /// Opens (or creates) the retention directory and recovers any committed
  /// cold partitions + entity dictionaries from its newest valid footer.
  static Result<std::unique_ptr<TieredStore>> Create(StorageOptions storage,
                                                     RetentionOptions
                                                         retention);

  /// Stops the compactor.
  ~TieredStore() override;

  TieredStore(const TieredStore&) = delete;
  TieredStore& operator=(const TieredStore&) = delete;

  // --- write path (single writer thread) -----------------------------------

  Status Append(EventRecord record) { return db_->Append(std::move(record)); }
  Status AppendBatch(std::vector<EventRecord> records) {
    return db_->AppendBatch(std::move(records));
  }
  Status Flush() { return db_->Flush(); }
  /// Flushes + seals the hot database (appends then fail); cold tiers and
  /// the compactor keep working.
  Status Seal() { return db_->Seal(); }

  // --- read path -----------------------------------------------------------

  /// A consistent view over hot + cold partitions: the hot set under the
  /// database's shared state lock, the cold directory as an immutable
  /// snapshot taken in the same atomic step. Safe concurrently with
  /// ingestion and compaction.
  ReadView OpenReadView() const override;

  const AuditDatabase& db() const { return *db_; }
  AuditDatabase* mutable_db() { return db_.get(); }
  const EntityStore& entities() const override { return db_->entities(); }
  const RetentionOptions& retention() const { return retention_; }
  PartitionCache* cache() const override { return &cache_; }
  const char* kind() const override { return "tiered"; }

  /// Full aggregates over hot data plus the cold partitions recovered from
  /// the retention directory (data demoted by a previous process).
  DatabaseStats StatsSnapshot() const override;

  RetentionStats stats() const;

  // --- maintenance ---------------------------------------------------------

  /// Starts the background compactor thread (idempotent).
  void StartCompactor();
  /// Stops and joins it (idempotent; also run by the destructor).
  void StopCompactor();

  /// One synchronous maintenance pass: merge small sibling partitions,
  /// demote sealed partitions older than the hot window, tombstone expired
  /// cold partitions, refresh aging counters. Only the compactor thread or
  /// a test may call this (single-maintenance-thread contract). Errors from
  /// one stage (e.g. an injected demotion-write failure) abort the pass
  /// but leave the store consistent: demotion extracts from RAM only after
  /// the footer commit, merges replace only after the merged partition is
  /// fully built.
  Status CompactOnce();

 private:
  TieredStore() = default;

  /// Newest bucket seen by ingestion (INT64_MIN when empty).
  int64_t NewestBucket() const;

  /// Compaction stages (single maintenance thread).
  Status MergeSmallPartitions();
  Status DemoteColdPartitions();
  Status TombstoneExpired();
  void AgeEntities();

  /// Commits `catalog` as the new durable footer (META re-encoded under an
  /// open read view for entity stability).
  Status CommitCatalog(const ColdCatalog& catalog);

  StorageOptions storage_;
  RetentionOptions retention_;
  std::unique_ptr<AuditDatabase> db_;
  std::unique_ptr<SnapshotAppender> appender_;
  mutable PartitionCache cache_;

  // Decode state shared by every published catalog.
  ColdTier tier_;

  // Cold catalog, copy-on-write: readers grab the shared_ptr under
  // tier_mu_ (or inherit it from a view's captured snapshot) and never see
  // a mutation. Lock order: db state_mu (shared or exclusive) before
  // tier_mu_.
  mutable std::mutex tier_mu_;
  std::shared_ptr<const ColdCatalog> cold_;
  uint64_t next_cold_key_ = 0;

  // Aggregates of the partitions recovered from the retention directory at
  // Create() — data durable from a previous process, not present in the hot
  // database's own stats. Views report the sum of both.
  DatabaseStats recovered_stats_;

  // Lifecycle counters (relaxed; read by stats()).
  std::atomic<uint64_t> compactor_passes_{0};
  std::atomic<uint64_t> merges_{0};
  std::atomic<uint64_t> merged_partitions_{0};
  std::atomic<uint64_t> demotions_{0};
  std::atomic<uint64_t> tombstones_{0};
  std::atomic<uint64_t> entities_aged_{0};

  // Compactor thread.
  std::mutex compactor_mu_;
  std::condition_variable compactor_cv_;
  std::thread compactor_;
  bool compactor_stop_ = false;
};

}  // namespace aiql

#endif  // AIQL_STORAGE_TIERED_H_
