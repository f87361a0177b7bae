// Incremental snapshot appends for tiered retention.
//
// SaveSnapshot writes a whole sealed database in one shot; a retention
// directory instead grows over the lifetime of a long-running server as the
// compactor demotes cold partitions to disk one at a time. SnapshotAppender
// manages such a directory:
//
//   <dir>/DATA        v2 header + an append log of META / PARTITION
//                     segments, byte-identical to the segments SaveSnapshot
//                     writes (shared codec in storage/snapshot_format.h)
//   <dir>/FOOTER.<n>  commit n: footer directory bytes + trailer, where the
//                     trailer's footer_offset records DATA's durable length
//                     (`data_end`) at commit time
//
// Appends land in DATA immediately but become visible only when Commit()
// fsyncs DATA and publishes FOOTER.<n+1> via tmp-file + rename + directory
// fsync. Open() recovers by picking the highest FOOTER.<n> whose checksum,
// trailer, and segment bounds validate against DATA — so a crash at any
// point (mid-append, mid-commit, mid-rename) falls back to the previous
// committed state with no partition loss and no repair step. A few older
// footers are retained as an extra safety margin against a torn latest
// footer; everything older is pruned at commit.
//
// Thread-compatibility: one appender thread; reads through data() may run
// concurrently with appends and with each other. Only the seek + read of a
// segment holds the segment file's mutex; checksum and decode run outside
// it.

#ifndef AIQL_STORAGE_SNAPSHOT_APPEND_H_
#define AIQL_STORAGE_SNAPSHOT_APPEND_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/database.h"
#include "storage/snapshot_format.h"

namespace aiql {

class SnapshotAppender {
 public:
  /// Committed state read back by Open() from the newest valid footer.
  struct RecoveredState {
    StorageOptions options;
    DatabaseStats stats;
    EntityStore entities;
    std::vector<snapfmt::PartitionDirEntry> partitions;
    uint64_t footer_seq = 0;  ///< <n> of the footer recovered from
    uint64_t data_end = 0;    ///< durable DATA length at that commit
  };

  /// Opens (creating if needed) a retention directory. An existing
  /// directory is recovered from its newest valid footer; uncommitted DATA
  /// bytes past that footer's data_end are simply overwritten by subsequent
  /// appends. A directory with no valid footer starts empty.
  static Result<std::unique_ptr<SnapshotAppender>> Open(
      const std::string& dir);

  SnapshotAppender(const SnapshotAppender&) = delete;
  SnapshotAppender& operator=(const SnapshotAppender&) = delete;

  const std::string& dir() const { return dir_; }

  /// State recovered at Open(); nullopt for a fresh directory.
  std::optional<RecoveredState>& recovered() { return recovered_; }

  /// Durable DATA length as of the last commit.
  uint64_t committed_data_end() const { return committed_data_end_; }

  /// Footer commits so far (monotone across restarts).
  uint64_t footer_seq() const { return footer_seq_; }

  /// Encodes `partition` and appends its segment to DATA. NOT durable (and
  /// not visible to recovery) until the next Commit(). The returned
  /// directory entry carries the segment ref + partition statistics; the
  /// caller accumulates entries and passes the full set to Commit(). The
  /// `retention.demote.write` failpoint covers the segment write.
  Result<snapfmt::PartitionDirEntry> AppendPartition(
      int64_t bucket, AgentId agent, uint32_t seq,
      const EventPartition& partition);

  /// Publishes a new committed state: appends a fresh META segment (the
  /// entity store grows monotonically, so it is re-encoded each commit),
  /// fsyncs DATA, then writes FOOTER.<n+1> describing `partitions` —
  /// tmp-file + rename + directory fsync — and prunes footers older than
  /// the last kKeepFooters. On any error the directory still recovers to
  /// the previous commit. The `retention.commit` failpoint fires after the
  /// DATA fsync, before the footer becomes visible.
  Status Commit(const StorageOptions& options, const DatabaseStats& stats,
                const EntityStore& entities,
                const std::vector<snapfmt::PartitionDirEntry>& partitions);

  /// The DATA append log, for reading committed partition segments back.
  const snapfmt::SegmentFile& data() const { return *data_; }

  /// Old footers kept beyond the newest (crash-recovery safety margin).
  static constexpr uint64_t kKeepFooters = 4;

 private:
  SnapshotAppender() = default;

  Status WriteAt(uint64_t offset, const void* data, size_t n);

  std::string dir_;
  std::unique_ptr<snapfmt::SegmentFile> data_;  // DATA, "r+b"
  uint64_t write_offset_ = 0;  // next append position in DATA
  uint64_t committed_data_end_ = 0;
  uint64_t footer_seq_ = 0;
  std::optional<RecoveredState> recovered_;
};

}  // namespace aiql

#endif  // AIQL_STORAGE_SNAPSHOT_APPEND_H_
