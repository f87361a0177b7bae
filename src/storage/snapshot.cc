#include "storage/snapshot.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <string_view>
#include <unordered_map>

#include "common/checksum.h"
#include "common/failpoint.h"
#include "common/varint.h"
#include "storage/partition_cache.h"
#include "storage/snapshot_format.h"

#if !defined(_WIN32)
#include <fcntl.h>   // open, O_DIRECTORY
#include <unistd.h>  // fsync, fileno, close
#endif

namespace aiql {

// Byte-layout helpers (header/footer/segment codecs, cursor, 64-bit seek)
// live in storage/snapshot_format.{h,cc}, shared with the append-log
// writer so both stores produce and validate identical bytes.
using namespace snapfmt;  // NOLINT(build/namespaces)

namespace {

// --- v1 format constants (legacy single-blob snapshots) ----------------------

constexpr uint64_t kV1Magic = 0x4149514C534E5031ULL;  // "AIQLSNP1"
constexpr uint32_t kV1Version = 2;

// --- file sink ---------------------------------------------------------------

class FileSnapshotSink : public SnapshotSink {
 public:
  explicit FileSnapshotSink(FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  ~FileSnapshotSink() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Append(const void* data, size_t n) override {
    AIQL_RETURN_IF_ERROR(Failpoint::Hit("snapshot.sink.append"));
    size_t written = std::fwrite(data, 1, n, file_);
    if (written != n) {
      return Status::IOError("short write to '" + path_ + "' (" +
                             std::to_string(written) + " of " +
                             std::to_string(n) + " bytes)");
    }
    return Status::OK();
  }

  Status Sync() override {
    AIQL_RETURN_IF_ERROR(Failpoint::Hit("snapshot.sink.sync"));
    if (std::fflush(file_) != 0) {
      return Status::IOError("flush failed for '" + path_ + "'");
    }
#if !defined(_WIN32)
    if (fsync(fileno(file_)) != 0) {
      return Status::IOError("fsync failed for '" + path_ + "'");
    }
#endif
    return Status::OK();
  }

  Status Close() override {
    FILE* file = file_;
    file_ = nullptr;
    if (file != nullptr && std::fclose(file) != 0) {
      return Status::IOError("close failed for '" + path_ + "'");
    }
    return Status::OK();
  }

 private:
  FILE* file_;
  std::string path_;
};

// =============================================================================
// v2 encoding (moved to storage/snapshot_format.cc)
// =============================================================================

// =============================================================================
// v1 format (legacy, single eager blob)
// =============================================================================

class V1Writer {
 public:
  explicit V1Writer(FILE* file) : file_(file) {}

  void PutBytes(const void* data, size_t n) {
    if (!ok_) return;
    hash_.Update(data, n);
    if (std::fwrite(data, 1, n, file_) != n) ok_ = false;
  }
  void PutU8(uint8_t v) { PutBytes(&v, 1); }
  void PutU16(uint16_t v) { PutBytes(&v, 2); }
  void PutU32(uint32_t v) { PutBytes(&v, 4); }
  void PutU64(uint64_t v) { PutBytes(&v, 8); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutBytes(s.data(), s.size());
  }

  bool ok() const { return ok_; }

  /// Writes the accumulated checksum (not itself hashed).
  bool WriteChecksum() {
    uint64_t h = hash_.digest();
    return ok_ && std::fwrite(&h, 1, 8, file_) == 8;
  }

 private:
  FILE* file_;
  Fnv1a64 hash_;
  bool ok_ = true;
};

class V1Reader {
 public:
  explicit V1Reader(FILE* file) : file_(file) {}

  bool GetBytes(void* data, size_t n) {
    if (!ok_) return false;
    if (std::fread(data, 1, n, file_) != n) {
      ok_ = false;
      return false;
    }
    hash_.Update(data, n);
    return true;
  }
  uint8_t GetU8() {
    uint8_t v = 0;
    GetBytes(&v, 1);
    return v;
  }
  uint16_t GetU16() {
    uint16_t v = 0;
    GetBytes(&v, 2);
    return v;
  }
  uint32_t GetU32() {
    uint32_t v = 0;
    GetBytes(&v, 4);
    return v;
  }
  uint64_t GetU64() {
    uint64_t v = 0;
    GetBytes(&v, 8);
    return v;
  }
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  std::string GetString() {
    uint32_t n = GetU32();
    if (!ok_ || n > (1u << 28)) {
      ok_ = false;
      return {};
    }
    std::string s(n, '\0');
    GetBytes(s.data(), n);
    return s;
  }

  bool ok() const { return ok_; }

  /// Reads the trailing checksum (not hashed) and compares.
  bool VerifyChecksum() {
    uint64_t expected = hash_.digest();
    uint64_t stored = 0;
    if (!ok_ || std::fread(&stored, 1, 8, file_) != 8) return false;
    return stored == expected;
  }

 private:
  FILE* file_;
  Fnv1a64 hash_;
  bool ok_ = true;
};

struct FileCloser {
  void operator()(FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<FILE, FileCloser>;

void V1WriteEvent(V1Writer* w, const Event& e) {
  w->PutI64(e.start_ts);
  w->PutI64(e.end_ts);
  w->PutU64(e.amount);
  w->PutU32(e.subject);
  w->PutU32(e.object);
  w->PutU32(e.agent_id);
  w->PutU32(e.merge_count);
  w->PutU8(static_cast<uint8_t>(e.op));
  w->PutU8(static_cast<uint8_t>(e.object_type));
}

Event V1ReadEvent(V1Reader* r) {
  Event e;
  e.start_ts = r->GetI64();
  e.end_ts = r->GetI64();
  e.amount = r->GetU64();
  e.subject = r->GetU32();
  e.object = r->GetU32();
  e.agent_id = r->GetU32();
  e.merge_count = r->GetU32();
  e.op = static_cast<OpType>(r->GetU8());
  e.object_type = static_cast<EntityType>(r->GetU8());
  return e;
}

Result<AuditDatabase> LoadSnapshotV1(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (!file) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  V1Reader r(file.get());
  if (r.GetU64() != kV1Magic) {
    return Status::Corruption("'" + path + "' is not an AIQL snapshot");
  }
  uint32_t version = r.GetU32();
  if (version != kV1Version) {
    return Status::Corruption("snapshot version " + std::to_string(version) +
                              " unsupported (expected " +
                              std::to_string(kV1Version) + ")");
  }
  StorageOptions opt;
  opt.partition_duration = r.GetI64();
  opt.dedup_window = r.GetI64();
  opt.enable_partitioning = r.GetU8() != 0;
  opt.batch_commit_size = r.GetU64();
  if (!r.ok()) return Status::Corruption("snapshot header truncated");

  AuditDatabase db(opt);
  EntityStore* es = db.mutable_entities();

  uint64_t num_procs = r.GetU64();
  for (uint64_t i = 0; i < num_procs && r.ok(); ++i) {
    ProcessRef ref;
    ref.agent_id = r.GetU32();
    ref.pid = r.GetU32();
    ref.exe_name = r.GetString();
    ref.user = r.GetString();
    es->InternProcess(ref);
  }
  uint64_t num_files = r.GetU64();
  for (uint64_t i = 0; i < num_files && r.ok(); ++i) {
    FileRef ref;
    ref.agent_id = r.GetU32();
    ref.path = r.GetString();
    es->InternFile(ref);
  }
  uint64_t num_nets = r.GetU64();
  for (uint64_t i = 0; i < num_nets && r.ok(); ++i) {
    NetworkRef ref;
    ref.agent_id = r.GetU32();
    ref.src_ip = r.GetString();
    ref.dst_ip = r.GetString();
    ref.src_port = r.GetU16();
    ref.dst_port = r.GetU16();
    ref.protocol = r.GetString();
    es->InternNetwork(ref);
  }

  uint64_t num_partitions = r.GetU64();
  for (uint64_t i = 0; i < num_partitions && r.ok(); ++i) {
    int64_t bucket = r.GetI64();
    AgentId agent = r.GetU32();
    uint64_t count = r.GetU64();
    EventPartition* partition = db.GetOrCreatePartition(bucket, agent);
    partition->mutable_events()->reserve(count);
    for (uint64_t j = 0; j < count && r.ok(); ++j) {
      partition->mutable_events()->push_back(V1ReadEvent(&r));
    }
  }
  if (!r.ok()) return Status::Corruption("snapshot body truncated");
  if (!r.VerifyChecksum()) {
    return Status::Corruption("snapshot checksum mismatch in '" + path + "'");
  }
  db.RestoreSealedState();
  return db;
}

}  // namespace

// =============================================================================
// public save paths
// =============================================================================

Status SaveSnapshotToSink(const AuditDatabase& db, SnapshotSink* sink) {
  if (!db.sealed()) {
    return Status::InvalidArgument("cannot snapshot an unsealed database");
  }

  std::string header;
  EncodeHeader(&header);
  AIQL_RETURN_IF_ERROR(sink->Append(header.data(), header.size()));
  uint64_t offset = header.size();

  FooterData dir;
  dir.options = db.options();
  dir.stats = db.stats();

  std::string segment;
  EncodeMetaSegment(db.entities(), &segment);
  dir.meta = SegmentRef{offset, segment.size(), Checksum64(segment)};
  AIQL_RETURN_IF_ERROR(sink->Append(segment.data(), segment.size()));
  offset += segment.size();

  dir.partitions.reserve(db.partitions().size());
  for (const auto& [key, partition] : db.partitions()) {
    segment.clear();
    EncodePartitionSegment(*partition, &segment);
    SegmentRef ref{offset, segment.size(), Checksum64(segment)};
    dir.partitions.push_back(MakeDirEntry(std::get<0>(key), std::get<1>(key),
                                          std::get<2>(key), ref, *partition));
    AIQL_RETURN_IF_ERROR(sink->Append(segment.data(), segment.size()));
    offset += segment.size();
  }

  std::string footer;
  EncodeFooter(dir, &footer);
  AIQL_RETURN_IF_ERROR(sink->Append(footer.data(), footer.size()));
  std::string trailer;
  EncodeTrailer(offset, Checksum64(footer), &trailer);
  AIQL_RETURN_IF_ERROR(sink->Append(trailer.data(), trailer.size()));

  AIQL_RETURN_IF_ERROR(sink->Sync());
  return sink->Close();
}

Status SaveSnapshot(const AuditDatabase& db, const std::string& path) {
  std::string tmp_path = path + ".tmp";
  FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot open '" + tmp_path + "' for writing");
  }
  FileSnapshotSink sink(file, tmp_path);
  Status status = SaveSnapshotToSink(db, &sink);
  if (!status.ok()) {
    std::remove(tmp_path.c_str());
    return status;
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("cannot move snapshot into place at '" + path +
                           "'");
  }
#if !defined(_WIN32)
  // The rename itself must reach the journal, or a power loss can undo an
  // already-reported-durable save.
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int dir_fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    return Status::IOError("cannot open directory '" + dir +
                           "' to sync snapshot rename");
  }
  int rc = fsync(dir_fd);
  close(dir_fd);
  if (rc != 0) {
    return Status::IOError("fsync of directory '" + dir + "' failed");
  }
#endif
  return Status::OK();
}

Status SaveSnapshotV1(const AuditDatabase& db, const std::string& path) {
  if (!db.sealed()) {
    return Status::InvalidArgument("cannot snapshot an unsealed database");
  }
  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (!file) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  V1Writer w(file.get());
  w.PutU64(kV1Magic);
  w.PutU32(kV1Version);

  const StorageOptions& opt = db.options();
  w.PutI64(opt.partition_duration);
  w.PutI64(opt.dedup_window);
  w.PutU8(opt.enable_partitioning ? 1 : 0);
  w.PutU64(opt.batch_commit_size);

  const EntityStore& es = db.entities();
  w.PutU64(es.processes().size());
  for (const ProcessEntity& p : es.processes()) {
    w.PutU32(p.agent_id);
    w.PutU32(p.pid);
    w.PutString(es.exe_names().Get(p.exe_name));
    w.PutString(es.users().Get(p.user));
  }
  w.PutU64(es.files().size());
  for (const FileEntity& f : es.files()) {
    w.PutU32(f.agent_id);
    w.PutString(es.paths().Get(f.path));
  }
  w.PutU64(es.networks().size());
  for (const NetworkEntity& n : es.networks()) {
    w.PutU32(n.agent_id);
    w.PutString(es.ips().Get(n.src_ip));
    w.PutString(es.ips().Get(n.dst_ip));
    w.PutU16(n.src_port);
    w.PutU16(n.dst_port);
    w.PutString(es.protocols().Get(n.protocol));
  }

  w.PutU64(db.partitions().size());
  for (const auto& [key, partition] : db.partitions()) {
    // Rollover partitions of the same (bucket, agent) are written as
    // separate runs and re-merged on load, so the format needs no seq.
    w.PutI64(std::get<0>(key));
    w.PutU32(std::get<1>(key));
    w.PutU64(partition->events().size());
    for (const Event& e : partition->events()) {
      V1WriteEvent(&w, e);
    }
  }
  if (!w.WriteChecksum()) {
    return Status::IOError("write failure while saving snapshot to '" + path +
                           "'");
  }
  // Same durability contract as the v2 path: flush/fsync/close failures are
  // errors, not success.
  FileSnapshotSink sink(file.release(), path);
  AIQL_RETURN_IF_ERROR(sink.Sync());
  return sink.Close();
}

// =============================================================================
// SnapshotStore
// =============================================================================

SnapshotStore::~SnapshotStore() { tier_.cache->EraseOwner(this); }

void SnapshotStore::AttachCache(PartitionCache* cache) {
  tier_.cache = cache != nullptr ? cache : &own_cache_;
}

Result<std::unique_ptr<SnapshotStore>> SnapshotStore::Open(
    const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (!file) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }

  char header[kV2HeaderSize];
  if (std::fread(header, 1, sizeof(header), file.get()) != sizeof(header)) {
    return Status::Corruption("'" + path + "' is too short to be a snapshot");
  }
  uint64_t magic = GetFixed64(header);
  if (magic == kV1Magic) {
    return Status::InvalidArgument(
        "'" + path +
        "' is a v1 snapshot; open it with LoadSnapshot (full load)");
  }
  if (magic != kV2Magic) {
    return Status::Corruption("'" + path + "' is not an AIQL snapshot");
  }
  uint32_t version = GetFixed32(header + 8);
  if (version != kV2Version) {
    return Status::Corruption("snapshot format version " +
                              std::to_string(version) + " unsupported");
  }

  if (Seek64(file.get(), 0, SEEK_END) != 0) {
    return Status::IOError("cannot seek in '" + path + "'");
  }
  int64_t file_size = Tell64(file.get());
  if (file_size < 0 ||
      static_cast<size_t>(file_size) < kV2HeaderSize + kV2TrailerSize) {
    return Status::Corruption("'" + path + "' is truncated");
  }

  char trailer[kV2TrailerSize];
  if (Seek64(file.get(), file_size - static_cast<int64_t>(kV2TrailerSize),
             SEEK_SET) != 0 ||
      std::fread(trailer, 1, sizeof(trailer), file.get()) !=
          sizeof(trailer)) {
    return Status::Corruption("cannot read snapshot trailer of '" + path +
                              "'");
  }
  uint64_t footer_offset = GetFixed64(trailer);
  uint64_t footer_checksum = GetFixed64(trailer + 8);
  if (GetFixed64(trailer + 16) != kV2Magic) {
    return Status::Corruption("snapshot trailer corrupt in '" + path +
                              "' (file truncated?)");
  }
  uint64_t trailer_offset =
      static_cast<uint64_t>(file_size) - kV2TrailerSize;
  if (footer_offset < kV2HeaderSize || footer_offset > trailer_offset) {
    return Status::Corruption("snapshot footer offset out of range in '" +
                              path + "'");
  }

  std::string footer_bytes(
      static_cast<size_t>(trailer_offset - footer_offset), '\0');
  if (Seek64(file.get(), static_cast<int64_t>(footer_offset), SEEK_SET) !=
          0 ||
      std::fread(footer_bytes.data(), 1, footer_bytes.size(), file.get()) !=
          footer_bytes.size()) {
    return Status::Corruption("cannot read snapshot footer of '" + path +
                              "'");
  }
  if (Checksum64(footer_bytes) != footer_checksum) {
    return Status::Corruption("snapshot footer checksum mismatch in '" +
                              path + "'");
  }

  FooterData footer;
  AIQL_RETURN_IF_ERROR(DecodeFooter(footer_bytes, footer_offset, &footer));

  std::string meta_bytes(static_cast<size_t>(footer.meta.length), '\0');
  if (Seek64(file.get(), static_cast<int64_t>(footer.meta.offset),
             SEEK_SET) != 0 ||
      std::fread(meta_bytes.data(), 1, meta_bytes.size(), file.get()) !=
          meta_bytes.size()) {
    return Status::IOError("cannot read snapshot META segment of '" + path +
                           "'");
  }
  AIQL_RETURN_IF_ERROR(Failpoint::HitBuffer(
      "snapshot.read.meta", meta_bytes.data(), meta_bytes.size()));
  if (Checksum64(meta_bytes) != footer.meta.checksum) {
    return Status::Corruption("snapshot META checksum mismatch in '" + path +
                              "'");
  }

  std::unique_ptr<SnapshotStore> store(new SnapshotStore());
  store->options_ = footer.options;
  store->stats_ = footer.stats;
  AIQL_RETURN_IF_ERROR(DecodeMetaSegment(meta_bytes, &store->entities_));
  store->file_ = std::make_unique<SegmentFile>(file.release(), path);

  ColdTier& tier = store->tier_;
  tier.owner = store.get();
  tier.file = store->file_.get();
  tier.entities = &store->entities_;
  tier.cache = &store->own_cache_;
  // Chaos injection on the lazy-load read path: a corrupt action damages
  // the segment bytes so the checksum catches it exactly like real bit rot.
  tier.read_failpoint = "snapshot.read.partition";
  // Keys are footer indexes: the footer is already in catalog order.
  std::vector<std::shared_ptr<const ColdPartition>> partitions;
  partitions.reserve(footer.partitions.size());
  for (const PartitionDirEntry& entry : footer.partitions) {
    auto cold = std::make_shared<ColdPartition>();
    cold->entry = entry;
    cold->key = partitions.size();
    partitions.push_back(std::move(cold));
  }
  store->catalog_ =
      std::make_shared<const ColdCatalog>(&tier, std::move(partitions));
  return store;
}

Result<std::shared_ptr<const EventPartition>>
SnapshotStore::MaterializePartition(size_t index) const {
  return catalog_->Materialize(*catalog_->partitions()[index]);
}

ReadView SnapshotStore::OpenReadView() const {
  ReadView view;
  view.entities_ = &entities_;
  view.options_ = &options_;
  view.stats_ = stats_;
  view.AddCold(catalog_);
  return view;
}

Result<AuditDatabase> SnapshotStore::ToDatabase() && {
  AuditDatabase db(options_);
  // Catalog order is ascending (bucket, agent, seq), so adoption reassigns
  // the same seqs.
  for (const auto& cold : catalog_->partitions()) {
    AIQL_ASSIGN_OR_RETURN(
        std::unique_ptr<EventPartition> partition,
        file_->ReadPartition(cold->entry, entities_, tier_.read_failpoint,
                             static_cast<int64_t>(cold->key)));
    db.AdoptSealedPartition(cold->entry.bucket, cold->entry.agent,
                            std::move(partition));
  }
  *db.mutable_entities() = std::move(entities_);
  db.FinishRestore();
  return db;
}

// =============================================================================
// load dispatch
// =============================================================================

Result<AuditDatabase> LoadSnapshot(const std::string& path) {
  Result<std::unique_ptr<SnapshotStore>> store = SnapshotStore::Open(path);
  if (store.ok()) return std::move(**store).ToDatabase();
  // The lazy store reports v1 files as InvalidArgument; everything else
  // (missing file, corruption, version mismatch) propagates as-is.
  if (store.status().code() == StatusCode::kInvalidArgument) {
    return LoadSnapshotV1(path);
  }
  return store.status();
}

}  // namespace aiql
