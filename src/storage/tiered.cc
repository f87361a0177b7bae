#include "storage/tiered.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <tuple>
#include <utility>

#include "common/failpoint.h"

namespace aiql {

namespace {

/// Folds `add` into `base` (the view-visible aggregates over hot +
/// recovered cold data).
void MergeStats(DatabaseStats* base, const DatabaseStats& add) {
  base->total_events += add.total_events;
  base->raw_events += add.raw_events;
  base->total_partitions += add.total_partitions;
  base->partitions_sealed += add.partitions_sealed;
  for (size_t i = 0; i < base->op_counts.size(); ++i) {
    base->op_counts[i] += add.op_counts[i];
  }
  base->min_ts = std::min(base->min_ts, add.min_ts);
  base->max_ts = std::max(base->max_ts, add.max_ts);
}

}  // namespace

// =============================================================================
// lifecycle
// =============================================================================

Result<std::unique_ptr<TieredStore>> TieredStore::Create(
    StorageOptions storage, RetentionOptions retention) {
  if (retention.dir.empty()) {
    return Status::InvalidArgument("RetentionOptions.dir must be set");
  }
  std::unique_ptr<TieredStore> store(new TieredStore());
  store->storage_ = storage;
  store->retention_ = retention;
  store->cache_.SetBudget(retention.memory_budget_bytes);
  AIQL_ASSIGN_OR_RETURN(store->appender_, SnapshotAppender::Open(retention.dir));
  store->db_ = std::make_unique<AuditDatabase>(storage);
  ColdTier& tier = store->tier_;
  tier.owner = store.get();
  tier.file = &store->appender_->data();
  tier.entities = &store->db_->entities();
  tier.cache = &store->cache_;

  std::vector<std::shared_ptr<const ColdPartition>> cold_list;
  if (std::optional<SnapshotAppender::RecoveredState>& recovered =
          store->appender_->recovered()) {
    // Entities recover from the committed META segment; interning continues
    // from the restored dictionaries, so recovered cold segments and new
    // ingestion share one id space.
    *store->db_->mutable_entities() = std::move(recovered->entities);
    cold_list.reserve(recovered->partitions.size());
    // Keys follow footer order, which is catalog order: ties keep the
    // demotion order of the process that committed it.
    for (const snapfmt::PartitionDirEntry& entry : recovered->partitions) {
      auto cold = std::make_shared<ColdPartition>();
      cold->entry = entry;
      cold->key = store->next_cold_key_++;
      cold_list.push_back(std::move(cold));
      // Recovered aggregates are rebuilt from the directory entries — the
      // persisted DatabaseStats describe the previous process's full
      // ingest, including hot partitions that (intentionally) did not
      // survive the crash.
      store->recovered_stats_.total_events += entry.events;
      store->recovered_stats_.raw_events += entry.raw_events;
      store->recovered_stats_.total_partitions += 1;
      store->recovered_stats_.partitions_sealed += 1;
      for (size_t i = 0; i < entry.op_counts.size(); ++i) {
        store->recovered_stats_.op_counts[i] += entry.op_counts[i];
      }
      store->recovered_stats_.min_ts =
          std::min(store->recovered_stats_.min_ts, entry.min_ts);
      store->recovered_stats_.max_ts =
          std::max(store->recovered_stats_.max_ts, entry.max_ts);
    }
  }
  store->cold_ =
      std::make_shared<const ColdCatalog>(&tier, std::move(cold_list));
  return store;
}

TieredStore::~TieredStore() { StopCompactor(); }

DatabaseStats TieredStore::StatsSnapshot() const {
  DatabaseStats stats = db_->StatsSnapshot();
  MergeStats(&stats, recovered_stats_);
  return stats;
}

int64_t TieredStore::NewestBucket() const {
  DatabaseStats stats = db_->StatsSnapshot();
  Timestamp newest = stats.max_ts;
  {
    std::lock_guard<std::mutex> lock(tier_mu_);
    for (const auto& cold : cold_->partitions()) {
      newest = std::max(newest, cold->entry.max_ts);
    }
  }
  if (newest == INT64_MIN) return INT64_MIN;
  int64_t bucket = newest / storage_.partition_duration;
  if (newest < 0 && newest % storage_.partition_duration != 0) bucket -= 1;
  return bucket;
}

// =============================================================================
// read path
// =============================================================================

ReadView TieredStore::OpenReadView() const {
  // The database view takes the shared state lock first; tier_mu_ second —
  // the same order the demotion sink uses (exclusive state lock, then
  // tier_mu_) — so the hot set and the cold catalog are mutually
  // consistent: a partition is visible in exactly one of them.
  ReadView view = db_->OpenReadView();
  std::shared_ptr<const ColdCatalog> cold;
  {
    std::lock_guard<std::mutex> lock(tier_mu_);
    cold = cold_;
  }
  view.AddCold(std::move(cold));
  MergeStats(&view.stats_, recovered_stats_);
  return view;
}

// =============================================================================
// maintenance
// =============================================================================

Status TieredStore::CommitCatalog(const ColdCatalog& catalog) {
  std::vector<snapfmt::PartitionDirEntry> entries;
  entries.reserve(catalog.partitions().size());
  for (const auto& cold : catalog.partitions()) entries.push_back(cold->entry);
  DatabaseStats stats = db_->StatsSnapshot();
  MergeStats(&stats, recovered_stats_);
  return appender_->Commit(db_->options(), stats, db_->entities(), entries);
}

Status TieredStore::MergeSmallPartitions() {
  if (retention_.compact_min_partitions < 2) return Status::OK();
  std::vector<std::pair<PartitionMapKey, const EventPartition*>> sealed =
      db_->ListSealedPartitions();

  // Group consecutive sealed siblings of one (bucket, agent); the listing
  // is already in (bucket, agent, seq) order.
  size_t i = 0;
  while (i < sealed.size()) {
    size_t j = i + 1;
    while (j < sealed.size() &&
           std::get<0>(sealed[j].first) == std::get<0>(sealed[i].first) &&
           std::get<1>(sealed[j].first) == std::get<1>(sealed[i].first)) {
      ++j;
    }
    if (j - i >= retention_.compact_min_partitions) {
      // Build the merged partition outside any lock: the sources are sealed
      // and only this (single) maintenance thread ever removes them. Events
      // are concatenated, NOT re-deduplicated — dedup already ran at ingest
      // within each source, so re-merging across rollover boundaries would
      // change the stored rows and break result identity.
      auto merged = std::make_unique<EventPartition>();
      std::vector<PartitionMapKey> keys;
      keys.reserve(j - i);
      {
        // Entity/partition stability while we read rows + rebuild stats.
        ReadView view = db_->OpenReadView();
        size_t total = 0;
        for (size_t k = i; k < j; ++k) total += sealed[k].second->size();
        merged->mutable_events()->reserve(total);
        for (size_t k = i; k < j; ++k) {
          keys.push_back(sealed[k].first);
          const std::vector<Event>& events = sealed[k].second->events();
          merged->mutable_events()->insert(merged->mutable_events()->end(),
                                           events.begin(), events.end());
        }
        merged->RebuildStats(db_->entities().processes());
      }
      merged->Seal();
      // Commit point of a merge. An injected error here proves that an
      // aborted compaction leaves every source partition untouched.
      AIQL_RETURN_IF_ERROR(Failpoint::Hit(
          "retention.compact.commit", static_cast<int64_t>(keys.size())));
      AIQL_RETURN_IF_ERROR(
          db_->ReplaceSealedPartitions(keys, std::move(merged)));
      merges_.fetch_add(1, std::memory_order_relaxed);
      merged_partitions_.fetch_add(keys.size(), std::memory_order_relaxed);
    }
    i = j;
  }
  return Status::OK();
}

Status TieredStore::DemoteColdPartitions() {
  int64_t newest = NewestBucket();
  if (newest == INT64_MIN) return Status::OK();
  int64_t demote_before = newest - retention_.hot_buckets;

  std::vector<std::pair<PartitionMapKey, const EventPartition*>> sealed =
      db_->ListSealedPartitions();
  std::vector<PartitionMapKey> keys;
  std::vector<const EventPartition*> partitions;
  for (const auto& [key, partition] : sealed) {
    if (std::get<0>(key) < demote_before) {
      keys.push_back(key);
      partitions.push_back(partition);
    }
  }
  if (keys.empty()) return Status::OK();

  // Next cold catalog: current entries + the partitions being demoted.
  std::vector<std::shared_ptr<const ColdPartition>> next;
  {
    std::lock_guard<std::mutex> lock(tier_mu_);
    next = cold_->partitions();
  }
  std::shared_ptr<const ColdCatalog> published;
  {
    // A read view pins the shared state lock: entities and the sealed
    // partitions stay stable while their segments stream to disk. This
    // stalls ingest batch commits for the duration of the demotion write,
    // exactly like any long-running query would.
    ReadView view = db_->OpenReadView();
    for (size_t i = 0; i < keys.size(); ++i) {
      AIQL_ASSIGN_OR_RETURN(
          snapfmt::PartitionDirEntry entry,
          appender_->AppendPartition(std::get<0>(keys[i]),
                                     std::get<1>(keys[i]),
                                     std::get<2>(keys[i]), *partitions[i]));
      auto cold = std::make_shared<ColdPartition>();
      cold->entry = entry;
      cold->key = next_cold_key_++;
      next.push_back(std::move(cold));
      // Aging: a demoted partition's entities were last referenced no later
      // than its bucket.
      for (const Event& event : partitions[i]->events()) {
        db_->entities().TouchEntity(EntityType::kProcess, event.subject,
                                    std::get<0>(keys[i]));
        db_->entities().TouchEntity(event.object_type, event.object,
                                    std::get<0>(keys[i]));
      }
    }
    published = std::make_shared<const ColdCatalog>(&tier_, std::move(next));
    // Durable commit. Failure (or a crash) before this point loses only
    // uncommitted appended bytes; the partitions remain hot.
    AIQL_RETURN_IF_ERROR(CommitCatalog(*published));
  }

  // The partitions are durable; extract them from the hot map and publish
  // the new cold catalog inside the same exclusive-lock window, so every
  // view sees each partition in exactly one tier.
  bool done = false;
  db_->ExtractSealedPartitions(
      keys, [&](const PartitionMapKey&, std::unique_ptr<EventPartition>) {
        if (!done) {
          std::lock_guard<std::mutex> lock(tier_mu_);
          cold_ = published;
          done = true;
        }
        demotions_.fetch_add(1, std::memory_order_relaxed);
        // The RAM copy is dropped here; queries reopen from disk.
      });
  return Status::OK();
}

Status TieredStore::TombstoneExpired() {
  if (retention_.retention_buckets <= 0) return Status::OK();
  int64_t newest = NewestBucket();
  if (newest == INT64_MIN) return Status::OK();
  int64_t horizon = newest - retention_.retention_buckets;

  std::shared_ptr<const ColdCatalog> current;
  {
    std::lock_guard<std::mutex> lock(tier_mu_);
    current = cold_;
  }
  std::vector<std::shared_ptr<const ColdPartition>> keep;
  std::vector<std::shared_ptr<const ColdPartition>> dropped;
  for (const auto& cold : current->partitions()) {
    if (cold->entry.bucket < horizon) {
      dropped.push_back(cold);
    } else {
      keep.push_back(cold);
    }
  }
  if (dropped.empty()) return Status::OK();

  auto kept = std::make_shared<const ColdCatalog>(&tier_, std::move(keep));
  {
    // Entity stability for the META re-encode inside the commit.
    ReadView view = db_->OpenReadView();
    AIQL_RETURN_IF_ERROR(CommitCatalog(*kept));
  }
  {
    std::lock_guard<std::mutex> lock(tier_mu_);
    cold_ = std::move(kept);
  }
  for (const auto& cold : dropped) {
    // Views that captured the old directory keep their entries alive (and
    // the segments stay readable in the append log); only the budget charge
    // and the committed footer drop the partition.
    cache_.Erase(this, cold->key);
  }
  tombstones_.fetch_add(dropped.size(), std::memory_order_relaxed);
  return Status::OK();
}

void TieredStore::AgeEntities() {
  if (retention_.retention_buckets <= 0) return;
  int64_t newest = NewestBucket();
  if (newest == INT64_MIN) return;
  entities_aged_.store(
      db_->entities().CountAgedEntities(newest - retention_.retention_buckets),
      std::memory_order_relaxed);
}

Status TieredStore::CompactOnce() {
  compactor_passes_.fetch_add(1, std::memory_order_relaxed);
  AIQL_RETURN_IF_ERROR(MergeSmallPartitions());
  AIQL_RETURN_IF_ERROR(DemoteColdPartitions());
  AIQL_RETURN_IF_ERROR(TombstoneExpired());
  AgeEntities();
  return Status::OK();
}

void TieredStore::StartCompactor() {
  std::lock_guard<std::mutex> lock(compactor_mu_);
  if (compactor_.joinable()) return;
  compactor_stop_ = false;
  compactor_ = std::thread([this] {
    std::unique_lock<std::mutex> lk(compactor_mu_);
    while (!compactor_stop_) {
      compactor_cv_.wait_for(
          lk, std::chrono::microseconds(retention_.compact_interval),
          [this] { return compactor_stop_; });
      if (compactor_stop_) break;
      lk.unlock();
      // Background pass; an injected failpoint error only skips this pass —
      // the next one retries from a consistent state.
      Status pass = CompactOnce();
      (void)pass;
      lk.lock();
    }
  });
}

void TieredStore::StopCompactor() {
  {
    std::lock_guard<std::mutex> lock(compactor_mu_);
    compactor_stop_ = true;
  }
  compactor_cv_.notify_all();
  if (compactor_.joinable()) compactor_.join();
}

RetentionStats TieredStore::stats() const {
  RetentionStats out;
  out.hot_partitions = db_->ListSealedPartitions().size();
  {
    std::lock_guard<std::mutex> lock(tier_mu_);
    out.cold_partitions = cold_->partitions().size();
  }
  out.compactor_passes = compactor_passes_.load(std::memory_order_relaxed);
  out.merges = merges_.load(std::memory_order_relaxed);
  out.merged_partitions = merged_partitions_.load(std::memory_order_relaxed);
  out.demotions = demotions_.load(std::memory_order_relaxed);
  out.tombstones = tombstones_.load(std::memory_order_relaxed);
  out.commits = appender_->footer_seq();
  out.reopens = tier_.reopens.load(std::memory_order_relaxed);
  out.entities_aged = entities_aged_.load(std::memory_order_relaxed);
  out.cache = cache_.stats();
  return out;
}

}  // namespace aiql
