// On-disk snapshot persistence for AuditDatabase.
//
// The deployed system keeps 0.5-1 year of monitoring data on disk, so the
// snapshot format matters as much as the scan path: the v2 format written
// here is a compressed, partition-granular store that can be *opened*
// without being read. Layout (little-endian; full spec in
// docs/snapshot-format.md):
//
//   [header]   magic "AIQLSNP2" + format version
//   [segments] one META segment (string dictionaries + entity tables) and
//              one PARTITION segment per (bucket, agent, seq) partition —
//              columns delta/varint/RLE-encoded, posting lists and
//              statistics persisted so load skips the index rebuild
//   [footer]   segment directory: per-segment offset/length/checksum plus
//              per-partition statistics (time bounds, event and op counts)
//   [trailer]  footer offset + footer checksum + magic again
//
// SnapshotStore::Open reads only the trailer, footer, and META segment;
// every partition is cold (storage/cold_catalog.h) and is materialized
// through a PartitionCache when a query's time range and agent filter
// select it, so cold-start latency is driven by data touched, not data
// stored. Every section is independently checksummed; truncation and bit
// flips surface as clean Status errors.
//
// The v1 single-blob format (magic "AIQLSNP1") remains loadable through
// LoadSnapshot, and SaveSnapshotV1 keeps writing it for compatibility tests
// and size comparisons.

#ifndef AIQL_STORAGE_SNAPSHOT_H_
#define AIQL_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "storage/cold_catalog.h"
#include "storage/database.h"
#include "storage/partition_cache.h"

namespace aiql {

/// Byte sink for snapshot serialization. The production implementation
/// writes a file; tests inject failing sinks to prove that short writes,
/// sync failures, and close failures are reported instead of swallowed.
class SnapshotSink {
 public:
  virtual ~SnapshotSink() = default;

  /// Appends exactly `n` bytes; a partial write must return an error.
  virtual Status Append(const void* data, size_t n) = 0;

  /// Flushes buffered bytes to durable storage (fflush + fsync for files).
  virtual Status Sync() = 0;

  /// Releases the sink. Must fail if buffered bytes could not be committed.
  virtual Status Close() = 0;
};

/// Serializes a sealed database in v2 format into `sink`, then Sync() and
/// Close() it. Fails if the database is not sealed; any I/O error —
/// including a short write, a failed sync, or a failed close — is
/// propagated rather than reported as success.
Status SaveSnapshotToSink(const AuditDatabase& db, SnapshotSink* sink);

/// Serializes a sealed database to `path` in v2 format. Writes to a
/// temporary file first and renames it into place only after a successful
/// sync, so a failed save never leaves a truncated snapshot at `path`.
Status SaveSnapshot(const AuditDatabase& db, const std::string& path);

/// Legacy v1 single-blob writer, retained so compatibility tests can
/// generate v1 fixtures and benchmarks can compare on-disk sizes. New
/// snapshots should use SaveSnapshot (v2).
Status SaveSnapshotV1(const AuditDatabase& db, const std::string& path);

/// Fully loads a snapshot (v1 or v2) into a sealed database. Detects
/// truncation, bad magic, version mismatch, and checksum corruption. For
/// lazy, partition-granular access to a v2 snapshot use SnapshotStore::Open
/// instead.
Result<AuditDatabase> LoadSnapshot(const std::string& path);

/// A lazily opened v2 snapshot. Open() reads the footer directory, the
/// persisted statistics, and the entity/dictionary segment — no event data.
/// OpenReadView() then serves the same ReadView interface the engine uses
/// against a live database, with every partition in its cold catalog:
/// partition selection runs on the persisted per-partition statistics, and
/// only the selected partitions are read, checksum-verified, decoded, and
/// cached.
///
/// Thread-safe: concurrent queries may materialize partitions through one
/// store. Distinct partitions decode in parallel; concurrent requests for
/// one partition decode it once.
class SnapshotStore final : public PartitionSource {
 public:
  /// Opens a v2 snapshot. Returns InvalidArgument for v1 snapshots (use
  /// LoadSnapshot), Corruption/IOError for damaged files.
  static Result<std::unique_ptr<SnapshotStore>> Open(const std::string& path);

  ~SnapshotStore() override;

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  const std::string& path() const { return file_->path; }
  const EntityStore& entities() const override { return entities_; }
  const StorageOptions& options() const { return options_; }

  /// Database-wide statistics as persisted at save time.
  const DatabaseStats& stats() const { return stats_; }
  DatabaseStats StatsSnapshot() const override { return stats_; }

  const char* kind() const override { return "snapshot"; }

  uint64_t total_partitions() const { return catalog_->partitions().size(); }

  /// Partition decodes so far (monotone; for tests and metrics), reopens
  /// of evicted partitions included.
  uint64_t loaded_partitions() const {
    return tier_.decodes.load(std::memory_order_relaxed);
  }

  /// Attaches a memory-budgeted LRU cache (borrowed; must outlive the
  /// store) in place of the store's private unlimited one: when it evicts
  /// a partition under budget pressure, the next selection reopens it from
  /// disk. Call before the store is shared across threads.
  void AttachCache(PartitionCache* cache);
  /// The attached cache; null while the private unlimited one serves.
  PartitionCache* cache() const override {
    return tier_.cache == &own_cache_ ? nullptr : tier_.cache;
  }

  /// Reopen decodes (a reopen is any decode after the first).
  uint64_t reopens() const {
    return tier_.reopens.load(std::memory_order_relaxed);
  }

  /// Materializes partition `index` (footer order), returning a pin that
  /// keeps it alive independent of cache eviction.
  Result<std::shared_ptr<const EventPartition>> MaterializePartition(
      size_t index) const;

  /// Opens a snapshot-backed read view over this store. The store must
  /// outlive the view.
  ReadView OpenReadView() const override;

  /// Consumes the store into a standalone sealed AuditDatabase (full
  /// materialization) — the LoadSnapshot compat path for v2 files.
  Result<AuditDatabase> ToDatabase() &&;

 private:
  SnapshotStore() = default;

  std::unique_ptr<snapfmt::SegmentFile> file_;
  StorageOptions options_;
  EntityStore entities_;
  DatabaseStats stats_;
  PartitionCache own_cache_;  // unlimited; serves until AttachCache
  ColdTier tier_;
  std::shared_ptr<const ColdCatalog> catalog_;
};

}  // namespace aiql

#endif  // AIQL_STORAGE_SNAPSHOT_H_
