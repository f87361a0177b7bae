// AiqlServer — the long-lived network front-end over the query engine
// (ROADMAP item 1): a TCP listener speaking the length-prefixed protocol
// of server/protocol.h, multiplexing concurrent client sessions over one
// sharded (or single-source) AiqlEngine.
//
// Threading: one accept thread, one thread per live session reading
// frames, and a bounded ThreadPool executing queries. Admission control
// sits in front of the pool: at most `max_concurrent_queries` queries run
// at once, at most `admission_queue_depth` more wait (bounded, with a
// wait deadline); anything beyond that is refused immediately with
// kResourceExhausted — overload produces a clean reply, never unbounded
// queueing. Session connects beyond `max_sessions` are likewise refused
// with an error frame before close.
//
// Per-session state: the session's QueryLimits (deadline + row/node/byte
// budgets, enforced through a per-query QueryContext bound via
// ScopedQueryContext on the executing thread), its engine selection
// (the single served source vs the shard map, strict vs partial
// degradation), and the DegradedInfo of its last sharded query.

#ifndef AIQL_SERVER_AIQL_SERVER_H_
#define AIQL_SERVER_AIQL_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/net.h"
#include "common/thread_pool.h"
#include "engine/aiql_engine.h"
#include "engine/scheduler.h"
#include "server/protocol.h"

namespace aiql {

class ShardMap;
class TieredStore;

/// Admission control for one shared execution resource: up to
/// `max_running` holders at once, up to `max_waiting` queued behind them
/// (each waiting at most `max_wait`), everything else refused immediately
/// with kResourceExhausted. Thread-safe.
class AdmissionGate {
 public:
  AdmissionGate(size_t max_running, size_t max_waiting,
                std::chrono::milliseconds max_wait);

  /// Acquires a running slot: immediate when one is free, bounded wait
  /// when the queue has room, kResourceExhausted otherwise (queue full or
  /// wait expired), kCancelled after Shutdown().
  Status Enter();

  /// Releases a slot acquired by a successful Enter().
  void Leave();

  /// Wakes every waiter with kCancelled; subsequent Enters fail.
  void Shutdown();

  /// Adjusts the running-slot cap (clamped to >= 1). Lowering it never
  /// evicts running holders — the gate just stops admitting until enough
  /// Leave(); raising it wakes waiters. Used by the server to shed query
  /// concurrency while the cold-partition cache is over budget.
  void SetMaxRunning(size_t max_running);

  size_t running() const;
  size_t waiting() const;
  size_t max_running() const;

 private:
  size_t max_running_;  ///< guarded by mu_
  const size_t max_waiting_;
  const std::chrono::milliseconds max_wait_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t running_ = 0;
  size_t waiting_ = 0;
  bool shutdown_ = false;
};

/// Server configuration.
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; AiqlServer::port() reports the bound port after Start.
  uint16_t port = 0;
  /// Concurrent client sessions; further connects get an error frame.
  size_t max_sessions = 64;
  /// Queries (and tracks / explains) executing at once.
  size_t max_concurrent_queries = 4;
  /// Bounded admission queue behind the running queries.
  size_t admission_queue_depth = 16;
  /// Longest a queued query waits for a slot before kResourceExhausted.
  std::chrono::milliseconds admission_wait{2000};
  /// Per-frame payload cap, both directions.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Initial per-session limits (sessions adjust via the wire protocol's
  /// timeout/budget options). All-zero = ungoverned by default.
  QueryLimits session_limits;
};

/// Monotonic counters, snapshotted by stats().
struct ServerCounters {
  uint64_t sessions_accepted = 0;
  uint64_t sessions_rejected = 0;   ///< refused at the session cap
  uint64_t queries_executed = 0;    ///< queries / explains completing OK
  uint64_t queries_failed = 0;      ///< completing with an error status
  uint64_t queries_rejected = 0;    ///< refused by admission control
  uint64_t tracks_executed = 0;
  uint64_t frames_rejected = 0;     ///< malformed / oversized frames
};

/// The long-lived AIQL query server. Construction wires the engines;
/// Start() binds the listener and spawns the accept thread; Stop() (or
/// destruction) cancels in-flight queries, unblocks every session, and
/// joins all threads.
class AiqlServer {
 public:
  /// Serves `source` (single-database sessions: any store) and/or `shards`
  /// (sharded sessions); either may be null, not both. Both are borrowed
  /// and must outlive the server. Sessions start in sharded mode when a
  /// shard map is present, single-database mode otherwise, and switch with
  /// the `shards` option. `engine_options.default_limits` is ignored —
  /// governance comes from per-session limits.
  AiqlServer(const PartitionSource* source, const ShardMap* shards,
             ServerOptions options = {}, EngineOptions engine_options = {});
  /// Serves a tiered store as above and attaches it as if by
  /// AttachRetention.
  AiqlServer(const TieredStore* tiered, const ShardMap* shards,
             ServerOptions options = {}, EngineOptions engine_options = {});
  ~AiqlServer();

  AiqlServer(const AiqlServer&) = delete;
  AiqlServer& operator=(const AiqlServer&) = delete;

  /// Binds host:port and starts accepting. Fails on bind errors or when
  /// no backend was supplied.
  Status Start();

  /// Idempotent shutdown: stops accepting, cancels in-flight query
  /// contexts, unblocks session reads, joins every thread.
  void Stop();

  /// Registers a tiered-retention store whose lifecycle counters feed the
  /// kStatsOk structured tail and whose cache charge feeds admission
  /// control (call once per store, before Start; borrowed). While the
  /// aggregate cold-cache charge exceeds the aggregate budget, the server
  /// halves the concurrent-query cap. The cache evicts to fit and stops
  /// charging evicted entries even while queries still pin them, so the
  /// charge exceeds the budget only when a single materialized partition
  /// is larger than the whole budget; bytes pinned by running queries do
  /// not count.
  void AttachRetention(const TieredStore* tiered);

  /// Bound port (after a successful Start).
  uint16_t port() const { return listener_.port(); }

  ServerCounters stats() const;
  size_t active_sessions() const;

  const ServerOptions& options() const { return options_; }

 private:
  struct Session;

  void AcceptLoop();
  void ServeSession(Session* session);
  /// Builds the response frame for one decoded request.
  std::string HandleRequest(Session* session, const Request& request);
  std::string HandleQuery(Session* session, const std::string& text,
                          bool explain_only);
  std::string HandleTrack(Session* session, const TrackCommand& command);
  std::string HandleSetOption(Session* session, const std::string& name,
                              const std::string& value);
  std::string RenderStats(const Session& session) const;
  /// Aggregated retention counters across every attached store.
  StatsFields RetentionFields() const;
  /// Re-derives the admission cap from current cache pressure.
  void UpdateAdmissionPressure();
  AiqlEngine* EngineFor(const Session& session) const;
  void ReapFinishedSessions();

  const PartitionSource* source_ = nullptr;
  const ShardMap* shards_ = nullptr;
  std::vector<const TieredStore*> retention_;
  ServerOptions options_;

  // One engine per (backend, degradation policy) the sessions can select;
  // AiqlEngine is thread-safe for concurrent Execute/Track.
  std::unique_ptr<AiqlEngine> engine_single_;
  std::unique_ptr<AiqlEngine> engine_sharded_strict_;
  std::unique_ptr<AiqlEngine> engine_sharded_partial_;

  Listener listener_;
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> query_pool_;
  AdmissionGate gate_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  mutable std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;

  // Counters (relaxed atomics; stats() snapshots).
  std::atomic<uint64_t> sessions_accepted_{0};
  std::atomic<uint64_t> sessions_rejected_{0};
  std::atomic<uint64_t> queries_executed_{0};
  std::atomic<uint64_t> queries_failed_{0};
  std::atomic<uint64_t> queries_rejected_{0};
  std::atomic<uint64_t> tracks_executed_{0};
  std::atomic<uint64_t> frames_rejected_{0};
};

}  // namespace aiql

#endif  // AIQL_SERVER_AIQL_SERVER_H_
