#include "storage/cold_catalog.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/cancellation.h"
#include "common/failpoint.h"

namespace aiql {

ColdCatalog::ColdCatalog(
    ColdTier* tier,
    std::vector<std::shared_ptr<const ColdPartition>> partitions)
    : tier_(tier), partitions_(std::move(partitions)) {
  // A late partition of an already demoted (bucket, agent) starts over at
  // seq 0, so equal (bucket, agent, seq) keys fall back on `key`: the
  // partition that joined first comes first, as it would in an all-hot
  // database.
  std::sort(partitions_.begin(), partitions_.end(),
            [](const std::shared_ptr<const ColdPartition>& a,
               const std::shared_ptr<const ColdPartition>& b) {
              return std::tie(a->entry.bucket, a->entry.agent, a->entry.seq,
                              a->key) < std::tie(b->entry.bucket,
                                                 b->entry.agent, b->entry.seq,
                                                 b->key);
            });
  for (const auto& cold : partitions_) events_ += cold->entry.events;
}

Result<std::shared_ptr<const EventPartition>> ColdCatalog::Materialize(
    const ColdPartition& cold) const {
  ColdTier& tier = *tier_;
  if (auto pin = tier.cache->Lookup(tier.owner, cold.key)) return pin;
  std::lock_guard<std::mutex> lock(cold.mu);
  // Another thread may have materialized it between the cache miss and the
  // lock; a query pin may also still hold a copy the cache already evicted.
  // Either way `weak` revives it without touching disk.
  if (auto pin = cold.weak.lock()) {
    tier.cache->Insert(tier.owner, cold.key, pin, cold.bytes);
    return pin;
  }
  // Every disk decode passes here, the first one included, so chaos tests
  // can fail or delay exactly this path.
  const auto arg = static_cast<int64_t>(cold.key);
  AIQL_RETURN_IF_ERROR(Failpoint::Hit("retention.reopen", arg));
  AIQL_ASSIGN_OR_RETURN(
      std::unique_ptr<EventPartition> partition,
      tier.file->ReadPartition(cold.entry, *tier.entities,
                               tier.read_failpoint, arg));
  if (cold.bytes == 0) {
    cold.bytes = partition->MemoryFootprint();
  } else {
    // bytes was set by an earlier residence: this decode is a reopen of an
    // evicted partition.
    tier.reopens.fetch_add(1, std::memory_order_relaxed);
  }
  std::shared_ptr<const EventPartition> pin(std::move(partition));
  cold.weak = pin;
  tier.decodes.fetch_add(1, std::memory_order_relaxed);
  if (QueryContext* ctx = ScopedQueryContext::Current()) {
    AIQL_RETURN_IF_ERROR(ctx->ChargeMemory(cold.bytes));
  }
  tier.cache->Insert(tier.owner, cold.key, pin, cold.bytes);
  return pin;
}

}  // namespace aiql
