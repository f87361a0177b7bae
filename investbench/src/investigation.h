// The investigation world a run measures, the analysts' request mix, and
// the reference answers every reply is checked against.

#ifndef INVESTBENCH_INVESTIGATION_H_
#define INVESTBENCH_INVESTIGATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "engine/aiql_engine.h"
#include "simulator/queries_a.h"
#include "storage/database.h"

namespace investbench {

/// Pinned scale: client hosts, benign events per host per hour, hours.
inline constexpr int kClients = 5;
inline constexpr double kEventsPerHostHour = 20000;
inline constexpr int kHours = 6;

/// One enterprise background from the simulator with the demo, ATC and
/// campaign attacks injected, plus the catalog queries that investigate
/// them (paper Fig. 4 and Fig. 5) and the backward track of the campaign's
/// exfiltration connection.
struct Investigation {
  std::vector<aiql::EventRecord> records;  ///< time-ordered
  std::vector<aiql::CatalogQuery> queries;  ///< fig4, then fig5
  aiql::TrackRequest track;
  aiql::Duration span = 0;  ///< monitored window length
};

/// Deterministic in `seed` (the background's seed; attack placement is
/// fixed).
Investigation BuildInvestigation(uint64_t seed);

/// Copy of `record` moved `shift` later in time (ingest-hunt's passes).
aiql::EventRecord Shifted(const aiql::EventRecord& record,
                          aiql::Duration shift);

/// An analyst's request stream: the catalog in a seeded shuffled order,
/// reshuffled each time it is used up, with every 10th request replaced by
/// the campaign track. Next() returns a query index, or kTrack.
class RequestMix {
 public:
  static constexpr int kTrack = -1;

  RequestMix(size_t num_queries, uint64_t seed, int analyst);
  int Next();

 private:
  aiql::Rng rng_;
  std::vector<int> deck_;
  size_t pos_ = 0;
  uint64_t count_ = 0;
};

/// Reference answers, as order-independent fingerprints.
struct Reference {
  std::vector<uint64_t> query_fp;  ///< per catalog query
  uint64_t track_fp = 0;  ///< rendered node set of the track
  size_t track_nodes = 0;
};

/// Computes the reference answers with AiqlEngine on an all-hot single
/// database. Fails when any query or the track fails.
aiql::Result<Reference> ComputeReference(const aiql::AuditDatabase& db,
                                         const Investigation& world);

/// The track's node table exactly as the server renders it on the wire
/// (depth, type, entity, bound), for fingerprinting.
aiql::ResultTable RenderTrackNodes(const aiql::ProvenanceResult& result,
                                   const aiql::EntityStore& entities);

}  // namespace investbench

#endif  // INVESTBENCH_INVESTIGATION_H_
