#include "server/aiql_server.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "common/string_utils.h"
#include "common/table_printer.h"
#include "common/time_utils.h"
#include "graph/cypher_gen.h"
#include "graph/graph_store.h"
#include "storage/shard_map.h"
#include "storage/tiered.h"

namespace aiql {

// ---------------------------------------------------------------------------
// AdmissionGate
// ---------------------------------------------------------------------------

AdmissionGate::AdmissionGate(size_t max_running, size_t max_waiting,
                             std::chrono::milliseconds max_wait)
    : max_running_(std::max<size_t>(1, max_running)),
      max_waiting_(max_waiting),
      max_wait_(max_wait) {}

Status AdmissionGate::Enter() {
  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) return Status::Cancelled("server shutting down");
  if (running_ < max_running_) {
    ++running_;
    return Status::OK();
  }
  if (waiting_ >= max_waiting_) {
    return Status::ResourceExhausted(
        "server overloaded: " + std::to_string(running_) +
        " queries running, " + std::to_string(waiting_) +
        " queued (admission queue full)");
  }
  ++waiting_;
  bool admitted = cv_.wait_for(lock, max_wait_, [this] {
    return shutdown_ || running_ < max_running_;
  });
  --waiting_;
  if (shutdown_) return Status::Cancelled("server shutting down");
  if (!admitted) {
    return Status::ResourceExhausted(
        "server overloaded: no execution slot freed within " +
        std::to_string(max_wait_.count()) + " ms");
  }
  ++running_;
  return Status::OK();
}

void AdmissionGate::Leave() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --running_;
  }
  cv_.notify_one();
}

void AdmissionGate::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

void AdmissionGate::SetMaxRunning(size_t max_running) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    max_running_ = std::max<size_t>(1, max_running);
  }
  // Raising the cap may free slots for waiters; lowering is a no-op for
  // them and the spurious wakeup is harmless.
  cv_.notify_all();
}

size_t AdmissionGate::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

size_t AdmissionGate::waiting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiting_;
}

size_t AdmissionGate::max_running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_running_;
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

struct AiqlServer::Session {
  uint64_t id = 0;
  Connection conn;
  std::thread thread;
  std::atomic<bool> done{false};

  // Session state, touched only by the session thread.
  QueryLimits limits;
  bool use_shards = false;
  bool partial = false;
  DegradedInfo last_degraded;

  // Cancel coordination with Stop(): the context of the in-flight query,
  // if any. Stop() cancels it under the lock so the stack-allocated
  // context cannot die mid-Cancel.
  std::mutex ctx_mu;
  QueryContext* active_ctx = nullptr;
};

namespace {

bool HasAnyLimit(const QueryLimits& limits) {
  return limits.timeout.count() > 0 || limits.max_rows > 0 ||
         limits.max_nodes > 0 || limits.max_bytes > 0;
}

std::string RenderLimits(const QueryLimits& limits) {
  return "timeout=" + std::to_string(limits.timeout.count()) +
         "ms rows=" + std::to_string(limits.max_rows) +
         " nodes=" + std::to_string(limits.max_nodes) +
         " bytes=" + std::to_string(limits.max_bytes);
}

/// Statistics and entity counts of one store, read through `view` so a
/// live writer's commits cannot race the read.
std::string RenderDbStats(const ReadView& view) {
  const DatabaseStats& stats = view.stats();
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "raw events      : %" PRIu64 "\n", stats.raw_events);
  out += line;
  std::snprintf(line, sizeof(line),
                "stored events   : %" PRIu64 "  (dedup ratio %.2fx)\n",
                stats.total_events,
                stats.total_events > 0
                    ? static_cast<double>(stats.raw_events) /
                          static_cast<double>(stats.total_events)
                    : 0.0);
  out += line;
  std::snprintf(line, sizeof(line),
                "partitions      : %" PRIu64 "\n", stats.total_partitions);
  out += line;
  std::snprintf(line, sizeof(line),
                "processes/files/connections: %zu / %zu / %zu\n",
                view.entities().processes().size(),
                view.entities().files().size(),
                view.entities().networks().size());
  out += line;
  if (stats.total_events > 0) {
    out += "time range      : " + FormatTimestamp(stats.min_ts) + " .. " +
           FormatTimestamp(stats.max_ts) + "\n";
  }
  return out;
}

std::string RenderShardLayout(const ShardMap& shards) {
  TablePrinter printer({"shard", "agents", "backend", "events"});
  for (size_t s = 0; s < shards.num_shards(); ++s) {
    const ShardRange& range = shards.range(s);
    const PartitionSource* source = shards.source(s);
    printer.AddRow({std::to_string(s),
                    "[" + std::to_string(range.begin) + ", " +
                        std::to_string(range.end) + ")",
                    source->kind(),
                    std::to_string(source->StatsSnapshot().total_events)});
  }
  std::string out = printer.ToString();
  out += "-- " + std::to_string(shards.num_shards()) + " shards, " +
         std::to_string(shards.TotalEvents()) +
         " events total; queries scatter/gather\n";
  return out;
}

/// The shell's track footer, rendered to a string (the client appends its
/// own elapsed time).
std::string RenderTrackSummary(const ProvenanceResult& result) {
  std::string out;
  char buf[256];
  Duration total_us = 0;
  for (Duration us : result.stats.hop_latency_us) total_us += us;
  std::snprintf(buf, sizeof(buf),
                "-- %zu nodes (%zu roots), %zu edges in %d hops%s; "
                "%" PRIu64 " postings inspected, %" PRIu64
                " partition scans",
                result.nodes.size(), result.num_roots, result.edges.size(),
                result.stats.hops,
                result.stats.truncated ? " (TRUNCATED by budget)" : "",
                result.stats.events_inspected,
                result.stats.partitions_selected);
  out += buf;
  out += "; hop latency us:";
  for (Duration us : result.stats.hop_latency_us) {
    out += " " + std::to_string(us);
  }
  out += " (total " + std::to_string(total_us) + ")";
  if (!result.stats.truncated_expansions.empty()) {
    uint64_t dropped = 0;
    for (const TruncatedExpansion& cut : result.stats.truncated_expansions) {
      dropped += cut.dropped;
    }
    std::snprintf(buf, sizeof(buf),
                  "\n-- %zu frontier expansion(s) truncated by budget "
                  "(%" PRIu64 " candidate events dropped)",
                  result.stats.truncated_expansions.size(), dropped);
    out += buf;
  }
  for (const ShardTrackStatus& shard : result.stats.shard_status) {
    std::snprintf(buf, sizeof(buf), "\n-- shard %u: %s%s after %d attempt(s)",
                  shard.shard, shard.dropped ? "DROPPED " : "recovered",
                  shard.dropped ? shard.status.ToString().c_str() : "",
                  shard.attempts);
    out += buf;
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// AiqlServer
// ---------------------------------------------------------------------------

AiqlServer::AiqlServer(const PartitionSource* source, const ShardMap* shards,
                       ServerOptions options, EngineOptions engine_options)
    : source_(source),
      shards_(shards),
      options_(std::move(options)),
      gate_(options_.max_concurrent_queries, options_.admission_queue_depth,
            options_.admission_wait) {
  // Session limits govern every query via a per-query context; engine
  // defaults must not stack a second context on top.
  engine_options.default_limits = QueryLimits{};
  if (source_ != nullptr) {
    engine_single_ = std::make_unique<AiqlEngine>(source_, engine_options);
  }
  if (shards_ != nullptr) {
    EngineOptions strict = engine_options;
    strict.shard_policy = ShardPolicy::kStrict;
    engine_sharded_strict_ = std::make_unique<AiqlEngine>(shards_, strict);
    EngineOptions partial = engine_options;
    partial.shard_policy = ShardPolicy::kPartial;
    engine_sharded_partial_ = std::make_unique<AiqlEngine>(shards_, partial);
  }
}

AiqlServer::AiqlServer(const TieredStore* tiered, const ShardMap* shards,
                       ServerOptions options, EngineOptions engine_options)
    : AiqlServer(static_cast<const PartitionSource*>(tiered), shards,
                 std::move(options), engine_options) {
  AttachRetention(tiered);
}

AiqlServer::~AiqlServer() { Stop(); }

void AiqlServer::AttachRetention(const TieredStore* tiered) {
  if (tiered != nullptr) retention_.push_back(tiered);
}

StatsFields AiqlServer::RetentionFields() const {
  StatsFields fields;
  fields.has_fields = true;
  for (const TieredStore* store : retention_) {
    RetentionStats s = store->stats();
    fields.hot_partitions += s.hot_partitions;
    fields.cold_partitions += s.cold_partitions;
    fields.cache_budget_bytes += s.cache.budget_bytes;
    fields.cache_charged_bytes += s.cache.charged_bytes;
    fields.cache_resident += s.cache.resident;
    fields.cache_hits += s.cache.hits;
    fields.cache_misses += s.cache.misses;
    fields.cache_evictions += s.cache.evictions;
    fields.compactor_passes += s.compactor_passes;
    fields.merges += s.merges;
    fields.demotions += s.demotions;
    fields.tombstones += s.tombstones;
    fields.commits += s.commits;
    fields.reopens += s.reopens;
    fields.entities_aged += s.entities_aged;
  }
  return fields;
}

void AiqlServer::UpdateAdmissionPressure() {
  if (retention_.empty()) return;
  uint64_t budget = 0, charged = 0;
  for (const TieredStore* store : retention_) {
    PartitionCacheStats cache = store->cache()->stats();
    budget += cache.budget_bytes;
    charged += cache.charged_bytes;
  }
  if (budget == 0) return;  // unlimited caches exert no pressure
  // The cache evicts to fit and uncharges evicted entries that queries
  // still pin, so the charge exceeds the budget only while one resident
  // partition is larger than the whole budget. Halve the query cap then,
  // and restore it once the charge is back under budget.
  size_t cap = options_.max_concurrent_queries;
  if (charged > budget) cap = std::max<size_t>(1, cap / 2);
  gate_.SetMaxRunning(cap);
}

Status AiqlServer::Start() {
  if (source_ == nullptr && shards_ == nullptr) {
    return Status::InvalidArgument("server needs a database or a shard map");
  }
  if (started_) return Status::AlreadyExists("server already started");
  AIQL_ASSIGN_OR_RETURN(listener_,
                        Listener::Bind(options_.host, options_.port));
  query_pool_ =
      std::make_unique<ThreadPool>(options_.max_concurrent_queries);
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void AiqlServer::Stop() {
  if (!started_ || stopping_.exchange(true)) {
    if (started_ && accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  listener_.Shutdown();
  gate_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (auto& session : sessions) {
    {
      std::lock_guard<std::mutex> lock(session->ctx_mu);
      if (session->active_ctx != nullptr) session->active_ctx->Cancel();
    }
    session->conn.Shutdown();
  }
  for (auto& session : sessions) {
    if (session->thread.joinable()) session->thread.join();
  }
}

ServerCounters AiqlServer::stats() const {
  ServerCounters counters;
  counters.sessions_accepted = sessions_accepted_.load();
  counters.sessions_rejected = sessions_rejected_.load();
  counters.queries_executed = queries_executed_.load();
  counters.queries_failed = queries_failed_.load();
  counters.queries_rejected = queries_rejected_.load();
  counters.tracks_executed = tracks_executed_.load();
  counters.frames_rejected = frames_rejected_.load();
  return counters;
}

size_t AiqlServer::active_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  size_t active = 0;
  for (const auto& session : sessions_) {
    if (!session->done.load()) ++active;
  }
  return active;
}

void AiqlServer::ReapFinishedSessions() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void AiqlServer::AcceptLoop() {
  while (!stopping_.load()) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (stopping_.load() ||
          accepted.status().code() == StatusCode::kCancelled) {
        return;
      }
      continue;  // transient accept failure; keep serving
    }
    ReapFinishedSessions();
    Connection conn = std::move(*accepted);
    conn.set_max_frame_bytes(options_.max_frame_bytes);
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (sessions_.size() >= options_.max_sessions) {
      // Session-level admission: refuse with a clean overload reply
      // instead of queueing the connection indefinitely.
      sessions_rejected_.fetch_add(1, std::memory_order_relaxed);
      (void)conn.WriteFrame(EncodeError(Status::ResourceExhausted(
          "session limit reached (" + std::to_string(options_.max_sessions) +
          " active sessions)")));
      continue;  // conn closes on scope exit
    }
    auto session = std::make_unique<Session>();
    session->id = next_session_id_++;
    session->conn = std::move(conn);
    session->limits = options_.session_limits;
    session->use_shards = shards_ != nullptr;
    sessions_accepted_.fetch_add(1, std::memory_order_relaxed);
    Session* raw = session.get();
    session->thread = std::thread([this, raw] { ServeSession(raw); });
    sessions_.push_back(std::move(session));
  }
}

void AiqlServer::ServeSession(Session* session) {
  while (!stopping_.load()) {
    auto frame = session->conn.ReadFrame();
    if (!frame.ok()) {
      if (!IsConnectionClosed(frame.status())) {
        // Framing-level damage (truncated prefix, oversized declaration,
        // transport error): there is no way to resynchronize the stream,
        // so reply best-effort and drop the connection. The server stays
        // up; only this session ends.
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        (void)session->conn.WriteFrame(EncodeError(frame.status()));
      }
      break;
    }
    auto request = DecodeRequest(*frame);
    std::string reply;
    if (!request.ok()) {
      // Body-level damage is recoverable: frame boundaries are intact, so
      // answer with the decode error and keep the session.
      frames_rejected_.fetch_add(1, std::memory_order_relaxed);
      reply = EncodeError(request.status());
    } else {
      reply = HandleRequest(session, *request);
    }
    if (!session->conn.WriteFrame(reply).ok()) break;
  }
  session->conn.Shutdown();
  session->done.store(true);
}

AiqlEngine* AiqlServer::EngineFor(const Session& session) const {
  if (session.use_shards) {
    return session.partial ? engine_sharded_partial_.get()
                           : engine_sharded_strict_.get();
  }
  return engine_single_.get();
}

std::string AiqlServer::HandleRequest(Session* session,
                                      const Request& request) {
  switch (request.type) {
    case MsgType::kHello: {
      if (request.version != kProtocolVersion) {
        return EncodeError(Status::InvalidArgument(
            "protocol version mismatch: client speaks " +
            std::to_string(request.version) + ", server speaks " +
            std::to_string(kProtocolVersion)));
      }
      uint64_t events = shards_ != nullptr
                            ? shards_->TotalEvents()
                            : source_->OpenReadView().stats().total_events;
      std::string banner =
          "aiql-server protocol " + std::to_string(kProtocolVersion) + "; " +
          std::to_string(events) + " events, " +
          (shards_ != nullptr ? std::to_string(shards_->num_shards()) +
                                    " shards"
                              : std::string("single database")) +
          "; session " + std::to_string(session->id);
      return EncodeHelloOk(banner);
    }
    case MsgType::kPing:
      return EncodePong();
    case MsgType::kStats:
      // Without retention state send the legacy text-only frame — the
      // same bytes a pre-retention server produces — so both decode
      // paths stay exercised.
      if (retention_.empty()) {
        return EncodeTextResponse(MsgType::kStatsOk, RenderStats(*session));
      }
      return EncodeStatsOk(RenderStats(*session), RetentionFields());
    case MsgType::kCheck: {
      auto kind = EngineFor(*session)->Check(request.text);
      if (!kind.ok()) return EncodeError(kind.status());
      return EncodeTextResponse(MsgType::kCheckOk, QueryKindToString(*kind));
    }
    case MsgType::kQuery:
      return HandleQuery(session, request.text, /*explain_only=*/false);
    case MsgType::kExplain:
      return HandleQuery(session, request.text, /*explain_only=*/true);
    case MsgType::kTrack:
      return HandleTrack(session, request.track);
    case MsgType::kSetOption:
      return HandleSetOption(session, request.option_name,
                             request.option_value);
    default:
      return EncodeError(Status::InvalidArgument(
          "request type " +
          std::to_string(static_cast<int>(request.type)) +
          " is not valid client -> server"));
  }
}

std::string AiqlServer::HandleQuery(Session* session, const std::string& text,
                                    bool explain_only) {
  UpdateAdmissionPressure();
  Status admitted = gate_.Enter();
  if (!admitted.ok()) {
    queries_rejected_.fetch_add(1, std::memory_order_relaxed);
    return EncodeError(admitted);
  }
  // Always run under a context, even with all-zero limits: Stop() uses it
  // to cancel in-flight queries promptly.
  QueryContext ctx(session->limits);
  {
    std::lock_guard<std::mutex> lock(session->ctx_mu);
    session->active_ctx = &ctx;
  }
  AiqlEngine* engine = EngineFor(*session);
  Result<QueryResult> result = Status::Internal("query task never ran");
  query_pool_
      ->Submit([&] {
        ScopedQueryContext bind(&ctx);
        result = engine->Execute(text, &ctx);
      })
      .wait();
  {
    std::lock_guard<std::mutex> lock(session->ctx_mu);
    session->active_ctx = nullptr;
  }
  gate_.Leave();
  if (!result.ok()) {
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
    return EncodeError(result.status());
  }
  queries_executed_.fetch_add(1, std::memory_order_relaxed);
  session->last_degraded = result->degraded;
  if (explain_only) {
    return EncodeTextResponse(MsgType::kExplainOk, result->plan);
  }
  QueryReply reply;
  reply.table = std::move(result->table);
  reply.stats = result->stats;
  reply.degraded = result->degraded.ToString();
  return EncodeQueryOk(reply);
}

std::string AiqlServer::HandleTrack(Session* session,
                                    const TrackCommand& command) {
  if ((command.want_dot || command.want_cypher) &&
      (session->use_shards || source_ == nullptr)) {
    return EncodeError(Status::InvalidArgument(
        "dot/cypher export is single-database only; send `shards off` "
        "first"));
  }
  UpdateAdmissionPressure();
  Status admitted = gate_.Enter();
  if (!admitted.ok()) {
    queries_rejected_.fetch_add(1, std::memory_order_relaxed);
    return EncodeError(admitted);
  }
  QueryContext ctx(session->limits);
  {
    std::lock_guard<std::mutex> lock(session->ctx_mu);
    session->active_ctx = &ctx;
  }
  AiqlEngine* engine = EngineFor(*session);
  Result<ProvenanceResult> result = Status::Internal("track task never ran");
  query_pool_
      ->Submit([&] {
        ScopedQueryContext bind(&ctx);
        result = engine->Track(command.request, &ctx);
      })
      .wait();
  {
    std::lock_guard<std::mutex> lock(session->ctx_mu);
    session->active_ctx = nullptr;
  }
  gate_.Leave();
  if (!result.ok()) {
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
    return EncodeError(result.status());
  }
  tracks_executed_.fetch_add(1, std::memory_order_relaxed);
  // Names render under fresh views: entity stores only grow, so every id
  // the track returned is still there, and the views keep a live writer
  // from interning while we read.
  std::vector<ReadView> views;
  if (session->use_shards) {
    views = shards_->OpenReadViews();
  } else {
    views.push_back(source_->OpenReadView());
  }
  TrackReply reply;
  if (command.want_dot || command.want_cypher) {
    reply.text = command.want_dot
                     ? ProvenanceToDot(*result, views[0].entities())
                     : ProvenanceToCypher(*result, views[0].entities());
  } else {
    reply.table.columns = {"depth", "type", "entity", "bound"};
    for (const ProvenanceNode& node : result->nodes) {
      const EntityStore& entities =
          views[session->use_shards ? node.shard : 0].entities();
      reply.table.rows.push_back(
          {std::string(std::to_string(node.depth)),
           std::string(EntityTypeToString(node.type)),
           entities.EntityName(node.type, node.id),
           node.bound == INT64_MAX || node.bound == INT64_MIN
               ? std::string("-")
               : FormatTimestamp(node.bound)});
    }
    reply.summary = RenderTrackSummary(*result);
  }
  return EncodeTrackOk(reply);
}

std::string AiqlServer::HandleSetOption(Session* session,
                                        const std::string& name,
                                        const std::string& value) {
  auto ok = [](std::string message) {
    return EncodeTextResponse(MsgType::kOptionOk, message);
  };
  // Positive bounded integer with the shared checked parser — the same
  // rejection the shell applies locally (out-of-range saturation is an
  // error, not a silently accepted LLONG_MAX).
  auto parse_positive = [&](const std::string& text) -> Result<int64_t> {
    AIQL_ASSIGN_OR_RETURN(int64_t parsed, ParseInt64(text));
    if (parsed <= 0 || parsed > 1000000000000LL) {
      return Status::InvalidArgument("value '" + text +
                                     "' must be in [1, 1e12]");
    }
    return parsed;
  };
  if (name == "timeout_ms") {
    if (EqualsIgnoreCase(value, "off")) {
      session->limits.timeout = std::chrono::milliseconds(0);
      return ok("deadline off");
    }
    auto ms = parse_positive(value);
    if (!ms.ok()) return EncodeError(ms.status());
    session->limits.timeout = std::chrono::milliseconds(*ms);
    return ok("deadline " + std::to_string(*ms) + " ms per query");
  }
  if (name == "rows" || name == "nodes" || name == "bytes") {
    auto amount = parse_positive(value);
    if (!amount.ok()) return EncodeError(amount.status());
    if (name == "rows") {
      session->limits.max_rows = static_cast<uint64_t>(*amount);
    } else if (name == "nodes") {
      session->limits.max_nodes = static_cast<uint64_t>(*amount);
    } else {
      session->limits.max_bytes = static_cast<uint64_t>(*amount);
    }
    return ok("budget: " + name + " <= " + std::to_string(*amount) +
              " per query");
  }
  if (name == "budget_off") {
    session->limits.max_rows = session->limits.max_nodes =
        session->limits.max_bytes = 0;
    return ok("budgets off");
  }
  if (name == "partial") {
    if (!EqualsIgnoreCase(value, "on") && !EqualsIgnoreCase(value, "off")) {
      return EncodeError(
          Status::InvalidArgument("'partial' expects on|off"));
    }
    session->partial = EqualsIgnoreCase(value, "on");
    return ok(std::string("degraded sharded execution ") +
              (session->partial ? "on (failed shards drop, results "
                                  "annotated)"
                                : "off (any shard failure fails the "
                                  "query)"));
  }
  if (name == "shards") {
    if (EqualsIgnoreCase(value, "on")) {
      if (shards_ == nullptr) {
        return EncodeError(
            Status::NotFound("server has no shard map; single-database "
                             "only"));
      }
      session->use_shards = true;
      return ok("sharded mode on\n" + RenderShardLayout(*shards_));
    }
    if (EqualsIgnoreCase(value, "off")) {
      if (source_ == nullptr) {
        return EncodeError(Status::NotFound(
            "server has no single database; sharded only"));
      }
      session->use_shards = false;
      return ok("single-database mode");
    }
    return EncodeError(Status::InvalidArgument(
        "the server's shard layout is fixed" +
        (shards_ != nullptr
             ? " at " + std::to_string(shards_->num_shards()) + " shards"
             : std::string()) +
        "; use 'shards on' or 'shards off'"));
  }
  return EncodeError(
      Status::InvalidArgument("unknown option '" + name + "'"));
}

std::string AiqlServer::RenderStats(const Session& session) const {
  std::string out;
  if (source_ != nullptr) out += RenderDbStats(source_->OpenReadView());
  if (shards_ != nullptr) out += RenderShardLayout(*shards_);
  if (!retention_.empty()) {
    StatsFields f = RetentionFields();
    out += "retention: " + std::to_string(f.hot_partitions) + " hot, " +
           std::to_string(f.cold_partitions) + " cold partitions; cache " +
           std::to_string(f.cache_charged_bytes) + "/" +
           (f.cache_budget_bytes == 0
                ? std::string("unlimited")
                : std::to_string(f.cache_budget_bytes)) +
           " bytes (" + std::to_string(f.cache_resident) + " resident, " +
           std::to_string(f.cache_evictions) + " evictions); admission cap " +
           std::to_string(gate_.max_running()) + "\n";
    out += "compactor: " + std::to_string(f.compactor_passes) + " passes, " +
           std::to_string(f.merges) + " merges, " +
           std::to_string(f.demotions) + " demotions, " +
           std::to_string(f.tombstones) + " tombstones, " +
           std::to_string(f.commits) + " commits, " +
           std::to_string(f.reopens) + " reopens, " +
           std::to_string(f.entities_aged) + " entities aged\n";
  }
  out += "session " + std::to_string(session.id) + ": shards=" +
         (session.use_shards ? "on" : "off") + " partial=" +
         (session.partial ? "on" : "off");
  if (HasAnyLimit(session.limits)) {
    out += " limits: " + RenderLimits(session.limits);
  }
  out += "\n";
  std::string degraded = session.last_degraded.ToString();
  if (!degraded.empty()) out += "last degraded: " + degraded + "\n";
  ServerCounters counters = stats();
  out += "server: " + std::to_string(active_sessions()) +
         " active sessions, " +
         std::to_string(counters.queries_executed) + " queries ok, " +
         std::to_string(counters.queries_failed) + " failed, " +
         std::to_string(counters.queries_rejected) +
         " rejected (overload), " +
         std::to_string(counters.tracks_executed) + " tracks\n";
  return out;
}

}  // namespace aiql
