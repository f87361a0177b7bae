#include "investigation.h"

#include <algorithm>

#include "arith.h"
#include "common/time_utils.h"
#include "simulator/attack_atc.h"
#include "simulator/attack_campaign.h"
#include "simulator/attack_demo.h"
#include "simulator/background.h"
#include "simulator/queries_c.h"
#include "simulator/topology.h"

namespace investbench {

using aiql::Duration;
using aiql::EventRecord;
using aiql::kHour;

Investigation BuildInvestigation(uint64_t seed) {
  Investigation world;
  aiql::Enterprise enterprise = aiql::BuildEnterprise(kClients);
  // The catalogs query the monitored day `(at "05/10/2018")`.
  aiql::Timestamp start = *aiql::MakeTimestamp(2018, 5, 10);
  world.span = kHours * kHour;

  aiql::BackgroundOptions background;
  background.events_per_host_per_hour = kEventsPerHostHour;
  background.seed = seed;
  aiql::GenerateBackground(enterprise, start, start + world.span, background,
                           &world.records);
  // One attack per hour from the second hour on, so their chains do not
  // interleave.
  aiql::DemoAttackTruth demo =
      aiql::InjectDemoAttack(enterprise, start + 1 * kHour, &world.records);
  aiql::AtcAttackTruth atc =
      aiql::InjectAtcAttack(enterprise, start + 2 * kHour, &world.records);
  aiql::CampaignChainTruth campaign = aiql::InjectCampaignChain(
      enterprise, start + 3 * kHour, &world.records);
  std::stable_sort(world.records.begin(), world.records.end(),
                   [](const EventRecord& a, const EventRecord& b) {
                     return a.start_ts < b.start_ts;
                   });

  world.queries = aiql::DemoInvestigationQueries(demo);
  for (aiql::CatalogQuery& query : aiql::AtcInvestigationQueries(atc)) {
    world.queries.push_back(std::move(query));
  }
  world.track.type = aiql::EntityType::kNetwork;
  world.track.name_like = campaign.poi_like;
  world.track.anchor = campaign.anchor;
  return world;
}

EventRecord Shifted(const EventRecord& record, Duration shift) {
  EventRecord out = record;
  out.start_ts += shift;
  if (out.end_ts != 0) out.end_ts += shift;
  return out;
}

RequestMix::RequestMix(size_t num_queries, uint64_t seed, int analyst)
    : rng_(aiql::Rng(seed).Fork(static_cast<uint64_t>(analyst))) {
  for (size_t i = 0; i < num_queries; ++i) {
    deck_.push_back(static_cast<int>(i));
  }
  pos_ = deck_.size();  // shuffle on first use
}

int RequestMix::Next() {
  if (++count_ % 10 == 0) return kTrack;
  if (pos_ == deck_.size()) {
    for (size_t i = deck_.size(); i > 1; --i) {
      std::swap(deck_[i - 1], deck_[rng_.Uniform(i)]);
    }
    pos_ = 0;
  }
  return deck_[pos_++];
}

aiql::ResultTable RenderTrackNodes(const aiql::ProvenanceResult& result,
                                   const aiql::EntityStore& entities) {
  aiql::ResultTable table;
  table.columns = {"depth", "type", "entity", "bound"};
  for (const aiql::ProvenanceNode& node : result.nodes) {
    table.rows.push_back(
        {std::string(std::to_string(node.depth)),
         std::string(aiql::EntityTypeToString(node.type)),
         entities.EntityName(node.type, node.id),
         node.bound == INT64_MAX || node.bound == INT64_MIN
             ? std::string("-")
             : aiql::FormatTimestamp(node.bound)});
  }
  return table;
}

aiql::Result<Reference> ComputeReference(const aiql::AuditDatabase& db,
                                         const Investigation& world) {
  Reference ref;
  aiql::AiqlEngine engine(&db);
  for (const aiql::CatalogQuery& query : world.queries) {
    auto result = engine.Execute(query.text);
    if (!result.ok()) {
      return aiql::Status::Internal("reference " + query.id + ": " +
                                    result.status().ToString());
    }
    ref.query_fp.push_back(RowsFingerprint(result->table));
  }
  auto track = engine.Track(world.track);
  if (!track.ok()) {
    return aiql::Status::Internal("reference track: " +
                                  track.status().ToString());
  }
  ref.track_fp = RowsFingerprint(RenderTrackNodes(*track, db.entities()));
  ref.track_nodes = track->nodes.size();
  return ref;
}

}  // namespace investbench
