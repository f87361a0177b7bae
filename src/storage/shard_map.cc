#include "storage/shard_map.h"

#include <utility>

#include "storage/partition_cache.h"

namespace aiql {

std::vector<ShardRange> EvenAgentRanges(size_t num_shards, AgentId min_agent,
                                        AgentId max_agent) {
  std::vector<ShardRange> ranges;
  if (num_shards == 0 || max_agent < min_agent) return ranges;
  ranges.reserve(num_shards);
  uint64_t span = static_cast<uint64_t>(max_agent) - min_agent + 1;
  uint64_t width = span / num_shards;
  uint64_t extra = span % num_shards;
  uint64_t begin = min_agent;
  for (size_t i = 0; i < num_shards; ++i) {
    uint64_t end = begin + width + (i < extra ? 1 : 0);
    ranges.push_back(ShardRange{static_cast<AgentId>(begin),
                                static_cast<AgentId>(end)});
    begin = end;
  }
  return ranges;
}

Result<std::vector<std::vector<EventRecord>>> RouteRecordsByAgent(
    const std::vector<ShardRange>& ranges,
    const std::vector<EventRecord>& records) {
  std::vector<std::vector<EventRecord>> routed(ranges.size());
  for (const EventRecord& record : records) {
    size_t shard = ranges.size();
    for (size_t i = 0; i < ranges.size(); ++i) {
      if (ranges[i].Contains(record.agent_id)) {
        shard = i;
        break;
      }
    }
    if (shard == ranges.size()) {
      return Status::InvalidArgument(
          "record agent " + std::to_string(record.agent_id) +
          " falls outside every shard range");
    }
    routed[shard].push_back(record);
  }
  return routed;
}

Status ShardMap::AddShard(const PartitionSource* source, ShardRange range) {
  if (source == nullptr) {
    return Status::InvalidArgument("shard backend is null");
  }
  if (range.end <= range.begin) {
    return Status::InvalidArgument("shard agent range is empty");
  }
  for (const Shard& existing : shards_) {
    if (range.begin < existing.range.end && existing.range.begin < range.end) {
      return Status::InvalidArgument(
          "shard agent range overlaps an existing shard");
    }
  }
  shards_.push_back(Shard{source, range});
  return Status::OK();
}

int ShardMap::ShardForAgent(AgentId agent) const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].range.Contains(agent)) return static_cast<int>(i);
  }
  return -1;
}

std::vector<ReadView> ShardMap::OpenReadViews() const {
  std::vector<ReadView> views;
  views.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    views.push_back(shard.source->OpenReadView());
  }
  return views;
}

const EntityStore& ShardMap::entities(size_t shard) const {
  return shards_[shard].source->entities();
}

uint64_t ShardMap::TotalEvents() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.source->StatsSnapshot().total_events;
  }
  return total;
}

size_t ShardMap::SetMemoryBudget(size_t total_bytes) const {
  std::vector<PartitionCache*> caches;
  for (const Shard& shard : shards_) {
    if (PartitionCache* cache = shard.source->cache()) {
      caches.push_back(cache);
    }
  }
  if (caches.empty()) return 0;
  size_t share = total_bytes == 0 ? 0 : total_bytes / caches.size();
  if (total_bytes != 0 && share == 0) share = 1;  // never round down to ∞
  for (PartitionCache* cache : caches) cache->SetBudget(share);
  return caches.size();
}

// ---------------------------------------------------------------------------
// Cross-shard entity translation.
// ---------------------------------------------------------------------------

ObjectRef MakeEntityRef(const EntityStore& store, EntityType type,
                        EntityId id) {
  switch (type) {
    case EntityType::kProcess: {
      const ProcessEntity& p = store.processes()[id];
      ProcessRef ref;
      ref.agent_id = p.agent_id;
      ref.pid = p.pid;
      ref.exe_name = std::string(store.exe_names().Get(p.exe_name));
      ref.user = std::string(store.users().Get(p.user));
      return ref;
    }
    case EntityType::kFile: {
      const FileEntity& f = store.files()[id];
      FileRef ref;
      ref.agent_id = f.agent_id;
      ref.path = std::string(store.paths().Get(f.path));
      return ref;
    }
    case EntityType::kNetwork: {
      const NetworkEntity& n = store.networks()[id];
      NetworkRef ref;
      ref.agent_id = n.agent_id;
      ref.src_ip = std::string(store.ips().Get(n.src_ip));
      ref.dst_ip = std::string(store.ips().Get(n.dst_ip));
      ref.src_port = n.src_port;
      ref.dst_port = n.dst_port;
      ref.protocol = std::string(store.protocols().Get(n.protocol));
      return ref;
    }
  }
  return FileRef{};
}

std::string EntityRefKey(const ObjectRef& ref) {
  // '\x1f' (unit separator) cannot appear in simulator/agent attribute
  // strings, so joined fields cannot collide across distinct tuples.
  constexpr char kSep = '\x1f';
  std::string key;
  if (const auto* p = std::get_if<ProcessRef>(&ref)) {
    key += 'P';
    key += std::to_string(p->agent_id);
    key += kSep;
    key += std::to_string(p->pid);
    key += kSep;
    key += p->exe_name;
    key += kSep;
    key += p->user;
  } else if (const auto* f = std::get_if<FileRef>(&ref)) {
    key += 'F';
    key += std::to_string(f->agent_id);
    key += kSep;
    key += f->path;
  } else {
    const auto& n = std::get<NetworkRef>(ref);
    key += 'N';
    key += std::to_string(n.agent_id);
    key += kSep;
    key += n.src_ip;
    key += kSep;
    key += std::to_string(n.src_port);
    key += kSep;
    key += n.dst_ip;
    key += kSep;
    key += std::to_string(n.dst_port);
    key += kSep;
    key += n.protocol;
  }
  return key;
}

EntityId FindEntity(const EntityStore& store, const ObjectRef& ref) {
  if (const auto* p = std::get_if<ProcessRef>(&ref)) {
    return store.FindProcess(*p);
  }
  if (const auto* f = std::get_if<FileRef>(&ref)) {
    return store.FindFile(*f);
  }
  return store.FindNetwork(std::get<NetworkRef>(ref));
}

EntityType EntityRefType(const ObjectRef& ref) { return ObjectRefType(ref); }

EventRecord RecordForEvent(const Event& event, const EntityStore& store) {
  EventRecord record;
  record.agent_id = event.agent_id;
  record.op = event.op;
  record.start_ts = event.start_ts;
  record.end_ts = event.end_ts;
  record.amount = event.amount;
  record.subject = std::get<ProcessRef>(
      MakeEntityRef(store, EntityType::kProcess, event.subject));
  record.object = MakeEntityRef(store, event.object_type, event.object);
  return record;
}

}  // namespace aiql
