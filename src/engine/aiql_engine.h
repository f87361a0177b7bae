// AiqlEngine — the public query-system facade (the paper's Figure 1):
// language parser -> query optimization -> executors, over the optimized
// storage. This is the entry point examples and the REPL shell use.

#ifndef AIQL_ENGINE_AIQL_ENGINE_H_
#define AIQL_ENGINE_AIQL_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/provenance.h"
#include "engine/result.h"
#include "engine/scheduler.h"
#include "query/ast.h"
#include "storage/database.h"

namespace aiql {

class ShardMap;

/// Point-of-interest specification for AiqlEngine::Track(): every entity of
/// `type` whose default attribute (exe name / path / dst ip) matches
/// `name_like` becomes a tracking root.
struct TrackRequest {
  std::string name_like;
  EntityType type = EntityType::kFile;
  /// Anchor timestamp: backward tracking admits events ending at or before
  /// it, forward tracking events starting at or after it. Defaults to the
  /// whole timeline (INT64_MAX backward, INT64_MIN forward).
  std::optional<Timestamp> anchor;
  ProvenanceOptions options;
};

/// Executes AIQL queries (multievent, dependency, anomaly) against one
/// PartitionSource or a ShardMap. Each Execute opens a ReadView — a
/// consistent snapshot of the currently-sealed partitions — so queries are
/// safe and consistent while a writer thread keeps ingesting (bounded
/// staleness: events become visible once their partition seals). Cold
/// partitions (snapshot, or demoted by a tiered store) materialize only
/// when a query selects them, blocking it for the read and charging the
/// query's byte budget. Thread-safe for concurrent Execute calls (views
/// are shared-locked and the pool is internally synchronized).
class AiqlEngine {
 public:
  /// Queries one store: an AuditDatabase (which may still be ingesting;
  /// batch workloads Seal() it first so every event is visible), a
  /// SnapshotStore or a TieredStore. `source` must outlive the engine.
  explicit AiqlEngine(const PartitionSource* source,
                      EngineOptions options = {});

  /// Sharded mode: queries scatter across the map's shards (agent ranges,
  /// each backed by any store) and gather through the merge layer; Track()
  /// exchanges provenance frontiers across shards. `shards` must outlive
  /// the engine.
  explicit AiqlEngine(const ShardMap* shards, EngineOptions options = {});

  ~AiqlEngine();

  /// Parses, analyzes, optimizes, and executes `text`. When
  /// EngineOptions::default_limits sets any limit, the run is governed by a
  /// per-query QueryContext built from them (deadline / budget breaches
  /// surface as kDeadlineExceeded / kResourceExhausted); all-zero limits
  /// keep the ungoverned hot path.
  Result<QueryResult> Execute(std::string_view text);

  /// Same, governed by a caller-owned context — the caller can Cancel() it
  /// from another thread, inspect charged budgets afterwards, or share one
  /// context across several queries under a common deadline.
  Result<QueryResult> Execute(std::string_view text, QueryContext* ctx);

  /// Syntax/semantic check only (the web UI's query debugging feature):
  /// returns OK plus the query kind without executing.
  Result<QueryKind> Check(std::string_view text) const;

  /// Returns the execution plan without running the query.
  Result<std::string> Explain(std::string_view text);

  /// Iterative causal provenance tracking (engine/provenance.h) from the
  /// entities matching `request`. Runs against the same consistent ReadView
  /// machinery as Execute — including lazily materialized snapshot views,
  /// where each hop reads only the partitions its time bounds select.
  /// Governance mirrors Execute (default_limits / caller context). Sharded
  /// tracking applies the engine's shard retry/degradation policy: the
  /// request's ProvenanceOptions retry knobs are overridden from
  /// EngineOptions (shard_max_attempts, shard_retry_backoff, and
  /// partial_shards = (shard_policy == kPartial)).
  Result<ProvenanceResult> Track(const TrackRequest& request);
  Result<ProvenanceResult> Track(const TrackRequest& request,
                                 QueryContext* ctx);

  const EngineOptions& options() const { return options_; }

 private:
  Result<QueryResult> Dispatch(const ParsedQuery& parsed, QueryContext* ctx);

  Result<ProvenanceResult> TrackSharded(const TrackRequest& request,
                                        QueryContext* ctx);

  const PartitionSource* source_ = nullptr;
  const ShardMap* shards_ = nullptr;
  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace aiql

#endif  // AIQL_ENGINE_AIQL_ENGINE_H_
