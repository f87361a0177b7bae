#include "storage/database.h"

#include <algorithm>

#include "common/cancellation.h"
#include "common/failpoint.h"
#include "storage/cold_catalog.h"

namespace aiql {

bool PartitionStatsSelected(const TimeRange& range,
                            const std::optional<std::vector<AgentId>>& agents,
                            bool partitioning_enabled, AgentId agent,
                            Timestamp min_ts, Timestamp max_ts,
                            uint64_t num_events) {
  if (agents.has_value() && partitioning_enabled) {
    bool found =
        std::find(agents->begin(), agents->end(), agent) != agents->end();
    if (!found) return false;
  }
  if (num_events == 0) return false;
  TimeRange span{min_ts, max_ts + 1};
  return range.Overlaps(span);
}

// --- ReadView ---------------------------------------------------------------

void ReadView::AddCold(std::shared_ptr<const ColdCatalog> cold) {
  visible_events_ += cold->events();
  if (!cold->partitions().empty()) {
    pins_ = std::make_unique<PartitionPinSet>();
  }
  cold_ = std::move(cold);
}

Result<std::vector<std::pair<PartitionKey, const EventPartition*>>>
ReadView::SelectPartitions(
    const TimeRange& range,
    const std::optional<std::vector<AgentId>>& agents) const {
  static const std::vector<std::shared_ptr<const ColdPartition>> kNoCold;
  const auto& cold_list = cold_ != nullptr ? cold_->partitions() : kNoCold;
  const bool partitioned = options_->enable_partitioning;

  std::vector<std::pair<PartitionKey, const EventPartition*>> out;
  // (slot in `out`, partition) of each selected cold partition, decoded
  // after the walk; empty, and unallocated, for a view without cold ones.
  std::vector<std::pair<size_t, const ColdPartition*>> selected;
  // Both lists are ordered by (bucket, agent, seq). Within one
  // (bucket, agent) the cold partitions carry the lower seqs (they were
  // sealed — and demoted — before any hot sibling existed), so emitting
  // cold before hot on a key tie preserves the all-hot selection order.
  size_t hot = 0;
  size_t cold = 0;
  while (hot < partitions_.size() || cold < cold_list.size()) {
    bool take_cold;
    if (cold == cold_list.size()) {
      take_cold = false;
    } else if (hot == partitions_.size()) {
      take_cold = true;
    } else {
      const auto& ce = cold_list[cold]->entry;
      const PartitionKey& hk = partitions_[hot].first;
      take_cold = std::pair<int64_t, AgentId>(ce.bucket, ce.agent) <=
                  std::pair<int64_t, AgentId>(hk.bucket, hk.agent_id);
    }
    if (take_cold) {
      const ColdPartition& entry = *cold_list[cold++];
      if (!PartitionStatsSelected(range, agents, partitioned,
                                  entry.entry.agent, entry.entry.min_ts,
                                  entry.entry.max_ts, entry.entry.events)) {
        continue;
      }
      selected.emplace_back(out.size(), &entry);
      out.emplace_back(PartitionKey{entry.entry.bucket, entry.entry.agent},
                       nullptr);
    } else {
      const auto& [key, partition] = partitions_[hot++];
      if (!PartitionStatsSelected(range, agents, partitioned, key.agent_id,
                                  partition->min_ts(), partition->max_ts(),
                                  partition->size())) {
        continue;
      }
      out.emplace_back(key, partition);
    }
  }
  if (!selected.empty()) {
    AIQL_RETURN_IF_ERROR(MaterializeSelected(selected, &out));
  }
  return out;
}

Status ReadView::MaterializeSelected(
    const std::vector<std::pair<size_t, const ColdPartition*>>& selected,
    std::vector<std::pair<PartitionKey, const EventPartition*>>* out) const {
  const size_t n = selected.size();
  std::vector<std::shared_ptr<const EventPartition>> pins(n);
  if (decode_pool_ != nullptr && n > 1) {
    // Distinct partitions lock independently, so these decodes run side by
    // side. Workers bind the caller's context so charges, deadlines and
    // cancellation apply as on the caller's thread.
    QueryContext* ctx = ScopedQueryContext::Current();
    std::vector<Status> errors(n);
    auto decode = [&](size_t i) {
      ScopedQueryContext bind(ctx);
      Result<std::shared_ptr<const EventPartition>> pin =
          cold_->Materialize(*selected[i].second);
      if (pin.ok()) {
        pins[i] = std::move(*pin);
      } else {
        errors[i] = pin.status();
      }
    };
    if (ctx != nullptr) {
      decode_pool_->ParallelFor(n, decode, [ctx] { return ctx->stopped(); });
    } else {
      decode_pool_->ParallelFor(n, decode);
    }
    // Errors surface in selection order, whichever worker saw one first.
    for (size_t i = 0; i < n; ++i) {
      AIQL_RETURN_IF_ERROR(errors[i]);
      // Skipped once the query stopped: report why. (A partial-shard merge
      // may have lifted the deadline since; then decode it here.)
      if (pins[i] == nullptr) AIQL_RETURN_IF_ERROR(ctx->Check());
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (pins[i] == nullptr) {
      AIQL_ASSIGN_OR_RETURN(pins[i], cold_->Materialize(*selected[i].second));
    }
    (*out)[selected[i].first].second = pins[i].get();
    pins_->Add(std::move(pins[i]));
  }
  return Status::OK();
}

// --- AuditDatabase ----------------------------------------------------------

AuditDatabase::AuditDatabase(StorageOptions options)
    : options_(options), sync_(std::make_unique<Sync>()) {
  if (options_.partition_duration <= 0) options_.partition_duration = kHour;
  if (options_.batch_commit_size == 0) options_.batch_commit_size = 1;
}

AuditDatabase::~AuditDatabase() {
  if (sync_ != nullptr) WaitForBackgroundSeals();
}

Status AuditDatabase::ValidateRecord(EventRecord* record) const {
  if (record->end_ts == 0) record->end_ts = record->start_ts;
  if (record->end_ts < record->start_ts) {
    return Status::InvalidArgument("event ends before it starts");
  }
  if (record->subject.exe_name.empty()) {
    return Status::InvalidArgument("event subject has no executable name");
  }
  return Status::OK();
}

Status AuditDatabase::Append(EventRecord record) {
  if (sealed()) {
    return Status::InvalidArgument("database is sealed");
  }
  AIQL_RETURN_IF_ERROR(ValidateRecord(&record));
  pending_.push_back(std::move(record));
  if (pending_.size() >= options_.batch_commit_size) return Flush();
  return Status::OK();
}

Status AuditDatabase::AppendBatch(std::vector<EventRecord> records) {
  if (sealed()) {
    return Status::InvalidArgument("database is sealed");
  }
  // All-or-nothing: validate the whole batch before buffering anything, so
  // a malformed record mid-batch leaves the database unchanged.
  for (EventRecord& record : records) {
    AIQL_RETURN_IF_ERROR(ValidateRecord(&record));
  }
  pending_.reserve(pending_.size() + records.size());
  for (EventRecord& record : records) {
    pending_.push_back(std::move(record));
  }
  if (pending_.size() >= options_.batch_commit_size) return Flush();
  return Status::OK();
}

Status AuditDatabase::Flush() {
  if (pending_.empty()) return Status::OK();
  std::vector<EventRecord> batch;
  batch.swap(pending_);
  std::unique_lock<std::shared_mutex> lock(sync_->state_mu);
  Status first_error;
  for (const EventRecord& record : batch) {
    // Records were validated in Append; a commit failure here is an
    // invariant violation — propagate it instead of discarding it.
    Status status = CommitRecordLocked(record);
    if (!status.ok() && first_error.ok()) first_error = std::move(status);
  }
  return first_error;
}

Status AuditDatabase::CommitRecordLocked(const EventRecord& record) {
  EntityId subject = entities_.InternProcess(record.subject);
  auto [object_type, object] = entities_.InternObject(record.object);

  Event event;
  event.start_ts = record.start_ts;
  event.end_ts = record.end_ts;
  event.amount = record.amount;
  event.subject = subject;
  event.object = object;
  event.agent_id = record.agent_id;
  event.merge_count = 1;
  event.op = record.op;
  event.object_type = object_type;

  int64_t bucket = 0;
  AgentId agent = 0;
  if (options_.enable_partitioning) {
    bucket = record.start_ts / options_.partition_duration;
    if (record.start_ts < 0 &&
        record.start_ts % options_.partition_duration != 0) {
      bucket -= 1;  // floor division for negative timestamps
    }
    agent = record.agent_id;
    // Bucket rotation: once this agent's stream moves into a later bucket,
    // its older open partitions can no longer grow — seal them.
    auto [clock_it, first_seen] = agent_clock_.try_emplace(agent, bucket);
    if (!first_seen && bucket > clock_it->second) {
      RotateAgentLocked(agent, bucket);
      clock_it->second = bucket;
    }
  }
  EventPartition* partition = GetOrCreatePartitionLocked(bucket, agent);
  StringId exe = entities_.processes()[subject].exe_name;
  bool merged = partition->AppendWithExe(event, exe, options_.dedup_window);

  stats_.raw_events += 1;
  if (!merged) {
    stats_.total_events += 1;
    stats_.op_counts[static_cast<size_t>(event.op)] += 1;
  }
  if (event.start_ts < stats_.min_ts) stats_.min_ts = event.start_ts;
  if (event.end_ts > stats_.max_ts) stats_.max_ts = event.end_ts;

  if (options_.max_partition_events != 0 &&
      partition->size() >= options_.max_partition_events) {
    CloseAndSealLocked(std::make_pair(bucket, agent));
  }
  return Status::OK();
}

EventPartition* AuditDatabase::GetOrCreatePartition(int64_t bucket,
                                                    AgentId agent) {
  std::unique_lock<std::shared_mutex> lock(sync_->state_mu);
  return GetOrCreatePartitionLocked(bucket, agent);
}

EventPartition* AuditDatabase::GetOrCreatePartitionLocked(int64_t bucket,
                                                          AgentId agent) {
  auto open_key = std::make_pair(bucket, agent);
  auto open_it = open_.find(open_key);
  if (open_it != open_.end()) return open_it->second.second;

  // A rollover (size threshold) or a late arrival into an already-rotated
  // bucket continues in a fresh partition of the same (bucket, agent): the
  // next free seq after the existing ones.
  uint32_t seq = 0;
  auto hint = partitions_.upper_bound(PartitionMapKey{bucket, agent, UINT32_MAX});
  if (hint != partitions_.begin()) {
    const PartitionMapKey& prev = std::prev(hint)->first;
    if (std::get<0>(prev) == bucket && std::get<1>(prev) == agent) {
      seq = std::get<2>(prev) + 1;
    }
  }
  auto it = partitions_.emplace_hint(hint, PartitionMapKey{bucket, agent, seq},
                                     std::make_unique<EventPartition>());
  stats_.total_partitions += 1;
  EventPartition* partition = it->second.get();
  open_.emplace(open_key, std::make_pair(seq, partition));
  return partition;
}

void AuditDatabase::CloseAndSealLocked(std::pair<int64_t, AgentId> key) {
  auto it = open_.find(key);
  if (it == open_.end()) return;
  EventPartition* partition = it->second.second;
  open_.erase(it);
  if (!partition->TryBeginSeal()) return;  // already handed off
  stats_.partitions_sealed += 1;
  if (options_.seal_pool != nullptr) {
    {
      std::lock_guard<std::mutex> seal_lock(sync_->seal_mu);
      sync_->seals_in_flight += 1;
    }
    // The task runs without the state mutex: the partition is unreachable
    // for writes once closed, and readers ignore it until FinishSeal()
    // publishes the sealed flag. Sync outlives the task: the database's
    // destructor (and final Seal()) wait for seals_in_flight to drain.
    Sync* sync = sync_.get();
    options_.seal_pool->Submit([sync, partition] {
      partition->FinishSeal();
      // Notify while holding seal_mu: a waiter (final Seal, destructor) may
      // destroy the condition variable as soon as it observes zero seals in
      // flight, so the notification must complete before the lock releases.
      std::lock_guard<std::mutex> seal_lock(sync->seal_mu);
      sync->seals_in_flight -= 1;
      sync->seal_cv.notify_all();
    });
  } else {
    partition->FinishSeal();
  }
}

void AuditDatabase::RotateAgentLocked(AgentId agent, int64_t bucket) {
  std::vector<std::pair<int64_t, AgentId>> to_close;
  for (const auto& [key, open] : open_) {
    if (key.second == agent && key.first < bucket) to_close.push_back(key);
  }
  for (const auto& key : to_close) CloseAndSealLocked(key);
}

void AuditDatabase::WaitForBackgroundSeals() {
  std::unique_lock<std::mutex> lock(sync_->seal_mu);
  sync_->seal_cv.wait(lock, [&] { return sync_->seals_in_flight == 0; });
}

Status AuditDatabase::Seal() {
  AIQL_RETURN_IF_ERROR(Failpoint::Hit("db.seal"));
  Status status = Flush();
  {
    std::unique_lock<std::shared_mutex> lock(sync_->state_mu);
    open_.clear();
    agent_clock_.clear();
    sync_->finalized.store(true, std::memory_order_release);
  }
  WaitForBackgroundSeals();
  // The map can no longer change (finalized; no commits, no rotations), so
  // the remaining unsealed partitions can be sealed without the state
  // mutex; concurrent views skip them until their sealed flag publishes.
  uint64_t newly_sealed = 0;
  for (auto& [key, partition] : partitions_) {
    if (partition->TryBeginSeal()) {
      partition->FinishSeal();
      newly_sealed += 1;
    }
  }
  if (newly_sealed > 0) {
    std::unique_lock<std::shared_mutex> lock(sync_->state_mu);
    stats_.partitions_sealed += newly_sealed;
  }
  return status;
}

void AuditDatabase::RestoreSealedState() {
  std::unique_lock<std::shared_mutex> lock(sync_->state_mu);
  stats_ = DatabaseStats{};
  stats_.total_partitions = partitions_.size();
  stats_.partitions_sealed = partitions_.size();
  for (auto& [key, partition] : partitions_) {
    partition->RebuildStats(entities_.processes());
    partition->Seal();
    stats_.total_events += partition->size();
    stats_.raw_events += partition->raw_event_count();
    for (int op = 0; op < kNumOpTypes; ++op) {
      stats_.op_counts[op] += partition->OpCount(static_cast<OpType>(op));
    }
    if (partition->size() > 0) {
      stats_.min_ts = std::min(stats_.min_ts, partition->min_ts());
      stats_.max_ts = std::max(stats_.max_ts, partition->max_ts());
    }
  }
  open_.clear();
  agent_clock_.clear();
  sync_->finalized.store(true, std::memory_order_release);
}

void AuditDatabase::AdoptSealedPartition(
    int64_t bucket, AgentId agent, std::unique_ptr<EventPartition> partition) {
  std::unique_lock<std::shared_mutex> lock(sync_->state_mu);
  uint32_t seq = 0;
  auto hint =
      partitions_.upper_bound(PartitionMapKey{bucket, agent, UINT32_MAX});
  if (hint != partitions_.begin()) {
    const PartitionMapKey& prev = std::prev(hint)->first;
    if (std::get<0>(prev) == bucket && std::get<1>(prev) == agent) {
      seq = std::get<2>(prev) + 1;
    }
  }
  partitions_.emplace_hint(hint, PartitionMapKey{bucket, agent, seq},
                           std::move(partition));
}

void AuditDatabase::FinishRestore() {
  std::unique_lock<std::shared_mutex> lock(sync_->state_mu);
  stats_ = DatabaseStats{};
  stats_.total_partitions = partitions_.size();
  stats_.partitions_sealed = partitions_.size();
  for (const auto& [key, partition] : partitions_) {
    stats_.total_events += partition->size();
    stats_.raw_events += partition->raw_event_count();
    for (int op = 0; op < kNumOpTypes; ++op) {
      stats_.op_counts[op] += partition->OpCount(static_cast<OpType>(op));
    }
    if (partition->size() > 0) {
      stats_.min_ts = std::min(stats_.min_ts, partition->min_ts());
      stats_.max_ts = std::max(stats_.max_ts, partition->max_ts());
    }
  }
  open_.clear();
  agent_clock_.clear();
  sync_->finalized.store(true, std::memory_order_release);
}

std::vector<std::pair<PartitionMapKey, const EventPartition*>>
AuditDatabase::ListSealedPartitions() const {
  std::shared_lock<std::shared_mutex> lock(sync_->state_mu);
  std::vector<std::pair<PartitionMapKey, const EventPartition*>> out;
  out.reserve(partitions_.size());
  for (const auto& [key, partition] : partitions_) {
    if (!partition->sealed()) continue;
    out.emplace_back(key, partition.get());
  }
  return out;
}

void AuditDatabase::ExtractSealedPartitions(
    const std::vector<PartitionMapKey>& keys,
    const std::function<void(const PartitionMapKey&,
                             std::unique_ptr<EventPartition>)>& sink) {
  std::unique_lock<std::shared_mutex> lock(sync_->state_mu);
  for (const PartitionMapKey& key : keys) {
    auto it = partitions_.find(key);
    if (it == partitions_.end() || !it->second->sealed()) continue;
    std::unique_ptr<EventPartition> partition = std::move(it->second);
    partitions_.erase(it);
    sink(key, std::move(partition));
  }
}

Status AuditDatabase::ReplaceSealedPartitions(
    const std::vector<PartitionMapKey>& old_keys,
    std::unique_ptr<EventPartition> merged) {
  if (old_keys.empty() || merged == nullptr || !merged->sealed()) {
    return Status::InvalidArgument("merge replacement needs sealed input");
  }
  std::unique_lock<std::shared_mutex> lock(sync_->state_mu);
  uint32_t lowest_seq = UINT32_MAX;
  for (const PartitionMapKey& key : old_keys) {
    if (std::get<0>(key) != std::get<0>(old_keys[0]) ||
        std::get<1>(key) != std::get<1>(old_keys[0])) {
      return Status::InvalidArgument(
          "merge replacement spans multiple (bucket, agent) groups");
    }
    auto it = partitions_.find(key);
    if (it == partitions_.end() || !it->second->sealed()) {
      return Status::InvalidArgument(
          "merge replacement names a missing or unsealed partition");
    }
    lowest_seq = std::min(lowest_seq, std::get<2>(key));
  }
  for (const PartitionMapKey& key : old_keys) partitions_.erase(key);
  partitions_.emplace(PartitionMapKey{std::get<0>(old_keys[0]),
                                      std::get<1>(old_keys[0]), lowest_seq},
                      std::move(merged));
  return Status::OK();
}

ReadView AuditDatabase::OpenReadView() const {
  ReadView view;
  view.lock_ = std::shared_lock<std::shared_mutex>(sync_->state_mu);
  view.entities_ = &entities_;
  view.options_ = &options_;
  view.stats_ = stats_;
  view.partitions_.reserve(partitions_.size());
  for (const auto& [key, partition] : partitions_) {
    if (!partition->sealed()) continue;
    view.partitions_.emplace_back(
        PartitionKey{std::get<0>(key), std::get<1>(key)}, partition.get());
    view.visible_events_ += partition->size();
  }
  return view;
}

DatabaseStats AuditDatabase::StatsSnapshot() const {
  std::shared_lock<std::shared_mutex> lock(sync_->state_mu);
  return stats_;
}

std::vector<std::pair<PartitionKey, const EventPartition*>>
AuditDatabase::SelectPartitions(
    const TimeRange& range,
    const std::optional<std::vector<AgentId>>& agents) const {
  std::shared_lock<std::shared_mutex> lock(sync_->state_mu);
  std::vector<std::pair<PartitionKey, const EventPartition*>> out;
  for (const auto& [key, partition] : partitions_) {
    AgentId agent = std::get<1>(key);
    if (!PartitionStatsSelected(range, agents, options_.enable_partitioning,
                                agent, partition->min_ts(),
                                partition->max_ts(), partition->size())) {
      continue;
    }
    out.emplace_back(PartitionKey{std::get<0>(key), agent}, partition.get());
  }
  return out;
}

void AuditDatabase::ForEachPartition(
    const TimeRange& range,
    const std::optional<std::vector<AgentId>>& agents,
    const std::function<void(const PartitionKey&, const EventPartition&)>& fn)
    const {
  for (const auto& [key, partition] : SelectPartitions(range, agents)) {
    fn(key, *partition);
  }
}

}  // namespace aiql
