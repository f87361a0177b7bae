#include "engine/aiql_engine.h"

#include <chrono>
#include <thread>

#include "engine/anomaly.h"
#include "engine/dependency.h"
#include "engine/executor.h"
#include "engine/shard_exec.h"
#include "query/analyzer.h"
#include "query/parser.h"
#include "storage/shard_map.h"

namespace aiql {

namespace {

using Clock = std::chrono::steady_clock;

std::unique_ptr<ThreadPool> MakePool(const EngineOptions& options) {
  if (!options.enable_parallelism) return nullptr;
  size_t threads = options.num_threads != 0
                       ? options.num_threads
                       : std::max(1u, std::thread::hardware_concurrency());
  return std::make_unique<ThreadPool>(threads);
}

bool HasLimits(const QueryLimits& limits) {
  return limits.timeout.count() > 0 || limits.max_rows > 0 ||
         limits.max_nodes > 0 || limits.max_bytes > 0;
}

}  // namespace

AiqlEngine::AiqlEngine(const PartitionSource* source, EngineOptions options)
    : source_(source), options_(options), pool_(MakePool(options_)) {}

AiqlEngine::AiqlEngine(const ShardMap* shards, EngineOptions options)
    : shards_(shards), options_(options), pool_(MakePool(options_)) {}

AiqlEngine::~AiqlEngine() = default;

Result<QueryResult> AiqlEngine::Execute(std::string_view text) {
  // Engine-default governance: any nonzero default limit builds a fresh
  // per-query context; all-zero limits keep the ungoverned hot path.
  if (HasLimits(options_.default_limits)) {
    QueryContext ctx(options_.default_limits);
    return Execute(text, &ctx);
  }
  return Execute(text, nullptr);
}

Result<QueryResult> AiqlEngine::Execute(std::string_view text,
                                        QueryContext* ctx) {
  auto parse_start = Clock::now();
  AIQL_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseAiql(text));
  Duration parse_time = std::chrono::duration_cast<std::chrono::microseconds>(
                            Clock::now() - parse_start)
                            .count();
  AIQL_ASSIGN_OR_RETURN(QueryResult result, Dispatch(parsed, ctx));
  result.stats.parse_time = parse_time;
  return result;
}

Result<QueryResult> AiqlEngine::Dispatch(const ParsedQuery& parsed,
                                         QueryContext* ctx) {
  if (shards_ != nullptr) {
    ShardedExecutor executor(shards_, options_, pool_.get());
    return executor.Execute(parsed, ctx);
  }
  // One consistent snapshot of the sealed partitions per query: a view over
  // a live database holds its state lock shared, so ingestion keeps
  // buffering while this query runs and commits apply once the view
  // closes; cold partitions materialize only if this query selects them.
  ReadView view = source_->OpenReadView();
  view.set_decode_pool(pool_.get());
  // Bind the context for the dispatching thread: partition selection may
  // materialize cold partitions, which charge the query's memory budget
  // through the ambient context (workers re-bind it themselves).
  ScopedQueryContext bind(ctx);
  switch (parsed.kind) {
    case QueryKind::kMultievent: {
      AIQL_ASSIGN_OR_RETURN(
          AnalyzedQuery analyzed,
          AnalyzeMultievent(*parsed.multievent, parsed.kind));
      MultieventExecutor executor(&view, options_, pool_.get());
      return executor.Execute(analyzed, ctx);
    }
    case QueryKind::kAnomaly: {
      AIQL_ASSIGN_OR_RETURN(
          AnalyzedQuery analyzed,
          AnalyzeMultievent(*parsed.multievent, parsed.kind));
      AnomalyExecutor executor(&view, options_, pool_.get());
      return executor.Execute(analyzed, ctx);
    }
    case QueryKind::kDependency: {
      AIQL_ASSIGN_OR_RETURN(auto rewritten,
                            RewriteDependency(*parsed.dependency));
      AIQL_ASSIGN_OR_RETURN(
          AnalyzedQuery analyzed,
          AnalyzeMultievent(*rewritten, QueryKind::kMultievent));
      MultieventExecutor executor(&view, options_, pool_.get());
      AIQL_ASSIGN_OR_RETURN(QueryResult result,
                            executor.Execute(analyzed, ctx));
      result.plan = "dependency query rewritten to multievent:\n" +
                    result.plan;
      return result;
    }
  }
  return Status::Internal("unknown query kind");
}

Result<QueryKind> AiqlEngine::Check(std::string_view text) const {
  AIQL_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseAiql(text));
  switch (parsed.kind) {
    case QueryKind::kDependency: {
      AIQL_ASSIGN_OR_RETURN(auto rewritten,
                            RewriteDependency(*parsed.dependency));
      AIQL_RETURN_IF_ERROR(
          AnalyzeMultievent(*rewritten, QueryKind::kMultievent).status());
      break;
    }
    default:
      AIQL_RETURN_IF_ERROR(
          AnalyzeMultievent(*parsed.multievent, parsed.kind).status());
  }
  return parsed.kind;
}

Result<std::string> AiqlEngine::Explain(std::string_view text) {
  AIQL_ASSIGN_OR_RETURN(QueryResult result, Execute(text));
  return result.plan;
}

Result<ProvenanceResult> AiqlEngine::Track(const TrackRequest& request) {
  if (HasLimits(options_.default_limits)) {
    QueryContext ctx(options_.default_limits);
    return Track(request, &ctx);
  }
  return Track(request, nullptr);
}

Result<ProvenanceResult> AiqlEngine::Track(const TrackRequest& request,
                                           QueryContext* ctx) {
  if (shards_ != nullptr) return TrackSharded(request, ctx);
  ReadView view = source_->OpenReadView();
  view.set_decode_pool(pool_.get());
  ScopedQueryContext bind(ctx);
  const EntityStore& entities = view.entities();
  LikeMatcher matcher(request.name_like);
  std::vector<EntityId> ids;
  switch (request.type) {
    case EntityType::kProcess:
      ids = entities.FindProcessesByExe(matcher);
      break;
    case EntityType::kFile:
      ids = entities.FindFilesByPath(matcher);
      break;
    case EntityType::kNetwork:
      ids = entities.FindNetworksByIp(matcher, /*use_src=*/false);
      break;
  }
  if (ids.empty()) {
    return Status::NotFound("no " +
                            std::string(EntityTypeToString(request.type)) +
                            " entity matches '" + request.name_like + "'");
  }
  std::vector<std::pair<EntityType, EntityId>> roots;
  roots.reserve(ids.size());
  for (EntityId id : ids) roots.emplace_back(request.type, id);
  Timestamp anchor = request.anchor.value_or(
      request.options.backward ? INT64_MAX : INT64_MIN);
  return TrackProvenance(view, roots, anchor, request.options, pool_.get(),
                         ctx);
}

Result<ProvenanceResult> AiqlEngine::TrackSharded(const TrackRequest& request,
                                                  QueryContext* ctx) {
  if (shards_->num_shards() == 0) {
    return Status::InvalidArgument("shard map has no shards");
  }
  // One atomic view per shard, taken up front — root resolution and every
  // hop run against this consistent scatter-time snapshot.
  std::vector<ReadView> views = shards_->OpenReadViews();
  for (ReadView& view : views) view.set_decode_pool(pool_.get());
  LikeMatcher matcher(request.name_like);
  std::vector<ShardEntity> roots;
  for (size_t s = 0; s < views.size(); ++s) {
    const EntityStore& entities = views[s].entities();
    std::vector<EntityId> ids;
    switch (request.type) {
      case EntityType::kProcess:
        ids = entities.FindProcessesByExe(matcher);
        break;
      case EntityType::kFile:
        ids = entities.FindFilesByPath(matcher);
        break;
      case EntityType::kNetwork:
        ids = entities.FindNetworksByIp(matcher, /*use_src=*/false);
        break;
    }
    for (EntityId id : ids) {
      roots.push_back(ShardEntity{static_cast<uint32_t>(s), request.type, id});
    }
  }
  if (roots.empty()) {
    return Status::NotFound("no " +
                            std::string(EntityTypeToString(request.type)) +
                            " entity matches '" + request.name_like + "'");
  }
  Timestamp anchor = request.anchor.value_or(
      request.options.backward ? INT64_MAX : INT64_MIN);
  // Engine-level degradation policy overrides the request's retry knobs.
  ProvenanceOptions track_options = request.options;
  track_options.shard_max_attempts = options_.shard_max_attempts;
  track_options.shard_retry_backoff = options_.shard_retry_backoff;
  track_options.partial_shards =
      options_.shard_policy == ShardPolicy::kPartial;
  return TrackProvenanceSharded(views, roots, anchor, track_options,
                                pool_.get(), ctx);
}

}  // namespace aiql
