// Cold partitions: sealed partitions that live in a segment file on disk
// and are materialized on demand through a memory-budgeted PartitionCache.
//
// Every partition of a lazily opened snapshot is cold, and so is every
// partition a tiered store has demoted. Both stores describe their cold
// partitions with a ColdCatalog — an immutable, ordered list of directory
// entries that a ReadView captures at open time — and decode them through
// ColdCatalog::Materialize, the one path that consults the cache, revives
// a partition a query still pins after the cache evicted it, fires the
// `retention.reopen` failpoint, decodes the segment, charges the running
// QueryContext and inserts the result into the cache.
//
// Materialization is single-flight per partition: each ColdPartition has
// its own mutex, so concurrent requests for one partition decode it once
// (the waiters revive the winner's copy), while distinct partitions decode
// in parallel. ReadView::SelectPartitions uses that to decode a query's
// cold selection on the engine's worker pool.

#ifndef AIQL_STORAGE_COLD_CATALOG_H_
#define AIQL_STORAGE_COLD_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "storage/partition_cache.h"
#include "storage/snapshot_format.h"

namespace aiql {

/// One cold partition: its committed directory entry plus the revival
/// state of the materialize path.
struct ColdPartition {
  snapfmt::PartitionDirEntry entry;
  /// Cache key, unique per store and ascending in the order partitions
  /// joined the store — which is how equal (bucket, agent, seq) keys sort.
  uint64_t key = 0;
  /// Serializes the decodes and revivals of this partition only; guards
  /// `weak` and `bytes`.
  mutable std::mutex mu;
  mutable std::weak_ptr<const EventPartition> weak;
  mutable size_t bytes = 0;  ///< footprint charged per residence
};

/// Decode state of one store, shared by every catalog version the store
/// publishes. Set the fields before the store is shared across threads.
/// Decodes of distinct partitions run concurrently; only the segment read
/// itself is serialized, briefly, on the file's mutex.
struct ColdTier {
  const void* owner = nullptr;  ///< the store; the cache's owner key
  const snapfmt::SegmentFile* file = nullptr;
  const EntityStore* entities = nullptr;
  PartitionCache* cache = nullptr;
  /// Fires on the raw bytes of every segment read (null for none).
  const char* read_failpoint = nullptr;
  std::atomic<uint64_t> decodes{0};
  std::atomic<uint64_t> reopens{0};  ///< decodes after a first residence
};

/// An immutable list of cold partitions ordered by (bucket, agent, seq,
/// key). Tiered stores publish a new catalog on every tier move; views
/// keep the one they opened with.
class ColdCatalog {
 public:
  ColdCatalog(ColdTier* tier,
              std::vector<std::shared_ptr<const ColdPartition>> partitions);

  const std::vector<std::shared_ptr<const ColdPartition>>& partitions()
      const {
    return partitions_;
  }

  /// Events across every partition of the catalog.
  uint64_t events() const { return events_; }

  /// Returns a pin on the materialized partition that stays valid after
  /// the cache evicts it. Thread-safe; concurrent calls for one partition
  /// decode it once.
  Result<std::shared_ptr<const EventPartition>> Materialize(
      const ColdPartition& cold) const;

 private:
  ColdTier* tier_;
  std::vector<std::shared_ptr<const ColdPartition>> partitions_;
  uint64_t events_ = 0;
};

}  // namespace aiql

#endif  // AIQL_STORAGE_COLD_CATALOG_H_
