// End-to-end investigation benchmark: hosts AiqlServer in-process on an
// ephemeral loopback port and drives it over TCP, through the public
// protocol.h encoders and decoders, the way analysts interleave catalog
// queries and provenance tracks. Every reply is checked against reference
// answers computed in-process on an all-hot single database.
//
//   investbench --workload hunt-hot|hunt-cold|ingest-hunt --seed N
//               --seconds S --trace 0|1 --work-dir DIR
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits non-zero when any reply is wrong or a step fails.
// DIR holds the run's retention directories and snapshot; the run-health
// line and a traced run's spans go to DIR's parent, which outlives it.
// investbench/FINDINGS.md lists the workloads and metrics.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "arith.h"
#include "client.h"
#include "investigation.h"
#include "query/analyzer.h"
#include "query/parser.h"
#include "simulator/scenario.h"
#include "server/aiql_server.h"
#include "server/protocol.h"
#include "storage/shard_map.h"
#include "storage/snapshot.h"
#include "storage/tiered.h"
#include "trace.h"

namespace investbench {
namespace {

using aiql::AuditDatabase;
using aiql::EventRecord;
using aiql::MsgType;
using aiql::ShardMap;
using aiql::Status;
using aiql::TieredStore;
using Clock = std::chrono::steady_clock;

constexpr size_t kShards = 4;
constexpr size_t kAppendBatch = 8192;
constexpr int kSetupRepeats = 3;
/// Most windows a phase's tail percentiles are read over. Medians pool the
/// whole phase: a burst of interference moves a median only by the share
/// of the phase it covers, and pooling keeps every sample's information.
constexpr size_t kWindows = 10;
/// ingest-hunt: writer rate, writer batch, and total analyst request rate.
constexpr double kIngestRate = 200000;
constexpr size_t kWriterBatch = 2000;
constexpr double kOpenLoopRate = 200;

enum class Workload { kHuntHot, kHuntCold, kIngestHunt };

struct Args {
  Workload workload = Workload::kHuntHot;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "investbench: %s\n", what.c_str());
  std::exit(2);
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

// ---------------------------------------------------------------------------
// Process health: resident memory and CPU steal.
// ---------------------------------------------------------------------------

uint64_t RssBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTimes ReadCpuTimes() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTimes out;
  if (label != "cpu") return out;
  for (int field = 0; field < 10; ++field) {
    uint64_t value = 0;
    if (!(stat >> value)) break;
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user/nice.
    if (field < 8) out.total += value;
    if (field == 7) out.steal = value;
  }
  return out;
}

/// Samples RSS (and, when a store is attached, the cold cache's charge)
/// every few milliseconds on its own thread.
class Sampler {
 public:
  Sampler() : baseline_(RssBytes()), thread_([this] { Loop(); }) {}
  ~Sampler() { Stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// `store` must outlive sampling (until Stop()).
  void Watch(const TieredStore* store) {
    std::lock_guard<std::mutex> lock(mu_);
    store_ = store;
  }
  /// Ends sampling; the peaks are final afterwards.
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  uint64_t baseline() const { return baseline_; }
  uint64_t peak_rss() const { return peak_rss_.load(); }
  uint64_t peak_charged() const { return peak_charged_.load(); }
  void ResetCharged() { peak_charged_.store(0); }

 private:
  void Loop() {
    while (!stop_.load()) {
      uint64_t rss = RssBytes();
      if (rss > peak_rss_.load()) peak_rss_.store(rss);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (store_ != nullptr) {
          uint64_t charged = store_->cache()->stats().charged_bytes;
          if (charged > peak_charged_.load()) peak_charged_.store(charged);
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  const uint64_t baseline_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> peak_rss_{0};
  std::atomic<uint64_t> peak_charged_{0};
  std::mutex mu_;
  const TieredStore* store_ = nullptr;  // guarded by mu_
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Backends: what one set-up builds and serves.
// ---------------------------------------------------------------------------

/// Layer timings taken while a backend is built.
struct SetupTimes {
  double total_s = 0;
  double append_s = 0;
  uint64_t appended = 0;
  double seal_ms = 0;
  double demote_ms = 0;
};

struct Backend {
  std::vector<std::unique_ptr<AuditDatabase>> shard_dbs;
  std::unique_ptr<ShardMap> shards;
  std::unique_ptr<TieredStore> tiered;
  std::unique_ptr<aiql::AiqlServer> server;
  std::string dir;  ///< retention directory, removed with the backend
  SetupTimes times;

  Backend() = default;
  ~Backend() {
    server.reset();
    tiered.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;
};

/// Appends `records` in ingest-sized batches, timing the appends.
template <typename AppendFn>
void TimedAppend(const std::vector<EventRecord>& records, SetupTimes* times,
                 AppendFn&& append) {
  for (size_t i = 0; i < records.size(); i += kAppendBatch) {
    std::vector<EventRecord> batch(
        records.begin() + static_cast<std::ptrdiff_t>(i),
        records.begin() + static_cast<std::ptrdiff_t>(
                              std::min(records.size(), i + kAppendBatch)));
    auto start = Clock::now();
    Check(append(std::move(batch)), "append");
    times->append_s += Seconds(Clock::now() - start);
  }
  times->appended += records.size();
}

/// 4-shard agent-range ShardMap of all-hot databases.
void BuildShardMap(const std::vector<EventRecord>& records, Backend* b) {
  aiql::AgentId lo = records.front().agent_id, hi = lo;
  for (const EventRecord& r : records) {
    lo = std::min(lo, r.agent_id);
    hi = std::max(hi, r.agent_id);
  }
  std::vector<aiql::ShardRange> ranges = aiql::EvenAgentRanges(kShards, lo, hi);
  auto routed = aiql::RouteRecordsByAgent(ranges, records);
  Check(routed.status(), "route records");
  b->shards = std::make_unique<ShardMap>();
  for (size_t s = 0; s < ranges.size(); ++s) {
    auto db = std::make_unique<AuditDatabase>(aiql::StorageOptions{});
    TimedAppend((*routed)[s], &b->times,
                [&](std::vector<EventRecord> batch) {
                  return db->AppendBatch(std::move(batch));
                });
    auto seal = Clock::now();
    Check(db->Seal(), "seal shard");
    b->times.seal_ms += Ms(Clock::now() - seal);
    Check(b->shards->AddShard(db.get(), ranges[s]), "add shard");
    b->shard_dbs.push_back(std::move(db));
  }
}

/// Tiered store under `dir`, fed `records`; `demote_all` seals and demotes
/// every partition with one synchronous compaction pass.
void BuildTiered(const std::vector<EventRecord>& records,
                 aiql::RetentionOptions retention, bool demote_all,
                 Backend* b) {
  b->dir = retention.dir;
  std::filesystem::remove_all(b->dir);
  auto store = TieredStore::Create(aiql::StorageOptions{}, retention);
  Check(store.status(), "open tiered store");
  b->tiered = std::move(*store);
  TimedAppend(records, &b->times, [&](std::vector<EventRecord> batch) {
    return b->tiered->AppendBatch(std::move(batch));
  });
  if (demote_all) {
    auto seal = Clock::now();
    Check(b->tiered->Seal(), "seal tiered store");
    b->times.seal_ms += Ms(Clock::now() - seal);
    auto demote = Clock::now();
    Check(b->tiered->CompactOnce(), "demote");
    b->times.demote_ms += Ms(Clock::now() - demote);
    if (b->tiered->stats().hot_partitions != 0) {
      Fail("demotion left hot partitions");
    }
  }
}

/// Sum of the sealed-partition footprints of `db` (the all-hot size).
uint64_t AllHotBytes(const AuditDatabase& db) {
  uint64_t bytes = 0;
  for (const auto& [key, partition] : db.ListSealedPartitions()) {
    bytes += partition->MemoryFootprint();
  }
  return bytes;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Analysts.
// ---------------------------------------------------------------------------

/// What the analysts send: the pre-encoded request frames.
struct Frames {
  std::vector<std::string> queries;
  std::string track;
};

/// Everything one analyst observed in one phase.
struct AnalystStats {
  std::vector<TimedSample> query_ms, track_ms;
  std::vector<double> ok_at_s, late_ms;
  uint64_t attempted = 0, ok = 0, errors = 0, refused = 0, wrong = 0;
  // Reply-derived layer figures (queries only).
  std::vector<double> parse_us, plan_us, exec_us, overhead_us;
  double scanned = 0, matched = 0, rows = 0, partitions = 0, joins = 0;
  uint64_t replies = 0, shard_retries = 0;
  // Track replies (ProvenanceStats from the summary line).
  double track_partitions = 0, track_inspected = 0;
  uint64_t track_replies = 0;
  // Traced phase: client-side reply decode spans.
  std::vector<double> decode_us;
  std::string first_problem;

  void Merge(const AnalystStats& o) {
    auto cat = [](auto* a, const auto& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    cat(&query_ms, o.query_ms);
    cat(&track_ms, o.track_ms);
    cat(&ok_at_s, o.ok_at_s);
    cat(&late_ms, o.late_ms);
    cat(&parse_us, o.parse_us);
    cat(&plan_us, o.plan_us);
    cat(&exec_us, o.exec_us);
    cat(&overhead_us, o.overhead_us);
    cat(&decode_us, o.decode_us);
    attempted += o.attempted;
    ok += o.ok;
    errors += o.errors;
    refused += o.refused;
    wrong += o.wrong;
    scanned += o.scanned;
    matched += o.matched;
    rows += o.rows;
    partitions += o.partitions;
    joins += o.joins;
    replies += o.replies;
    shard_retries += o.shard_retries;
    track_partitions += o.track_partitions;
    track_inspected += o.track_inspected;
    track_replies += o.track_replies;
    if (first_problem.empty()) first_problem = o.first_problem;
  }
};

/// One analyst: a connection and its request stream.
struct Analyst {
  int index = 0;
  std::unique_ptr<WireClient> client;
  std::unique_ptr<RequestMix> mix;
  /// First query reply seen per catalog query (codec probe input).
  std::map<int, aiql::QueryReply> captured;
};

/// How a phase sends: closed loop (next request after the reply) or open
/// loop at `rate` requests/s across all analysts, timed from due time.
struct PhasePlan {
  double seconds = 0;
  bool open_loop = false;
  double rate = 0;
  int analysts = 1;
  const Reference* reference = nullptr;  ///< null: replies not compared
  /// Record spans, and keep the first reply per query for the codec probe.
  bool traced = false;
};

uint64_t RetriedShards(const std::string& degraded) {
  // "... (F shard(s) failed, T timed out, R retried)"
  size_t pos = degraded.find(" retried)");
  if (pos == std::string::npos) return 0;
  size_t begin = degraded.rfind(' ', pos - 1);
  return std::strtoull(degraded.c_str() + begin + 1, nullptr, 10);
}

void ParseTrackSummary(const std::string& summary, AnalystStats* stats) {
  unsigned long long inspected = 0, scans = 0;
  size_t pos = summary.find("; ");
  if (pos != std::string::npos &&
      std::sscanf(summary.c_str() + pos + 2,
                  "%llu postings inspected, %llu partition scans", &inspected,
                  &scans) == 2) {
    stats->track_inspected += static_cast<double>(inspected);
    stats->track_partitions += static_cast<double>(scans);
    ++stats->track_replies;
  }
}

void NoteProblem(AnalystStats* stats, const std::string& what) {
  if (stats->first_problem.empty()) stats->first_problem = what;
}

void RunAnalystPhase(Analyst* analyst, const Frames& frames,
                     const PhasePlan& plan, const Investigation& world,
                     AnalystStats* stats, SpanLog* log) {
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(plan.seconds));
  const double interval =
      plan.open_loop ? static_cast<double>(plan.analysts) / plan.rate : 0;
  uint64_t sent = 0;
  while (true) {
    Clock::time_point due = Clock::now();
    if (plan.open_loop) {
      due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            interval * (static_cast<double>(sent) +
                                        static_cast<double>(analyst->index) /
                                            plan.analysts)));
      if (due >= end) break;
      std::this_thread::sleep_until(due);
    } else if (due >= end) {
      break;
    }
    const int op = analyst->mix->Next();
    const bool is_track = op == RequestMix::kTrack;
    ++sent;
    ++stats->attempted;
    const uint64_t request_id =
        (static_cast<uint64_t>(analyst->index) << 48) | sent;

    // Encode (traced runs encode per request so the span measures it).
    int32_t root = log->Begin("request", request_id);
    std::string encoded;
    const std::string* frame =
        is_track ? &frames.track : &frames.queries[static_cast<size_t>(op)];
    if (plan.traced) {
      int32_t span = log->Begin("client.encode", request_id, root);
      if (is_track) {
        aiql::TrackCommand command;
        command.request = world.track;
        encoded = aiql::EncodeTrack(command);
      } else {
        encoded = aiql::EncodeTextRequest(
            MsgType::kQuery, world.queries[static_cast<size_t>(op)].text);
      }
      log->End(span);
      frame = &encoded;
    }

    const auto sent_at = Clock::now();
    int32_t wire = log->Begin("wire", request_id, root);
    auto payload = analyst->client->RoundTrip(*frame);
    log->End(wire);
    const auto done = Clock::now();
    if (plan.open_loop) stats->late_ms.push_back(Ms(sent_at - due));
    if (!payload.ok()) {
      // The connection is gone: nothing further can be sent on it.
      ++stats->errors;
      NoteProblem(stats, "transport: " + payload.status().ToString());
      log->End(root);
      break;
    }
    int32_t dec = log->Begin("client.decode", request_id, root);
    auto decoded = aiql::DecodeResponse(*payload);
    log->End(dec);
    if (plan.traced && dec >= 0) {
      const Span& e = log->spans()[static_cast<size_t>(dec)];
      stats->decode_us.push_back(static_cast<double>(e.end_ns - e.start_ns) /
                                 1e3);
    }
    const double latency_ms = Ms(done - (plan.open_loop ? due : sent_at));
    const double at_s = Seconds(done - start);

    int32_t verify = log->Begin("client.verify", request_id, root);
    if (!decoded.ok()) {
      ++stats->errors;
      NoteProblem(stats, "undecodable reply: " + decoded.status().ToString());
    } else if (decoded->type == MsgType::kError) {
      if (decoded->error.code() == aiql::StatusCode::kResourceExhausted) {
        ++stats->refused;
      } else {
        ++stats->errors;
      }
      NoteProblem(stats, (is_track ? std::string("track")
                                   : world.queries[static_cast<size_t>(op)].id) +
                             ": " + decoded->error.ToString());
    } else if (!is_track && decoded->type == MsgType::kQueryOk) {
      const aiql::QueryReply& reply = decoded->query;
      if (plan.reference != nullptr &&
          RowsFingerprint(reply.table) !=
              plan.reference->query_fp[static_cast<size_t>(op)]) {
        ++stats->wrong;
        NoteProblem(stats, "wrong answer to " +
                               world.queries[static_cast<size_t>(op)].id);
      } else {
        ++stats->ok;
        stats->ok_at_s.push_back(at_s);
        stats->query_ms.push_back({at_s, latency_ms});
      }
      const aiql::QueryStats& qs = reply.stats;
      stats->parse_us.push_back(static_cast<double>(qs.parse_time));
      stats->plan_us.push_back(static_cast<double>(qs.plan_time));
      stats->exec_us.push_back(static_cast<double>(qs.exec_time));
      stats->overhead_us.push_back(Us(done - sent_at) -
                                   static_cast<double>(qs.total_time()));
      stats->scanned += static_cast<double>(qs.events_scanned);
      stats->matched += static_cast<double>(qs.events_matched);
      stats->rows += static_cast<double>(reply.table.num_rows());
      stats->partitions += static_cast<double>(qs.partitions_scanned);
      stats->joins += static_cast<double>(qs.join_candidates);
      stats->shard_retries += RetriedShards(reply.degraded);
      ++stats->replies;
      if (plan.traced && !analyst->captured.count(op)) {
        analyst->captured.emplace(op, reply);
      }
    } else if (is_track && decoded->type == MsgType::kTrackOk) {
      if (plan.reference != nullptr &&
          RowsFingerprint(decoded->track.table) != plan.reference->track_fp) {
        ++stats->wrong;
        NoteProblem(stats, "wrong track node set");
      } else {
        ++stats->ok;
        stats->ok_at_s.push_back(at_s);
        stats->track_ms.push_back({at_s, latency_ms});
      }
      ParseTrackSummary(decoded->track.summary, stats);
    } else {
      ++stats->errors;
      NoteProblem(stats, "unexpected reply type");
    }
    log->End(verify);
    log->End(root);
  }
}

/// Runs one phase on every analyst in parallel and merges what they saw.
AnalystStats RunPhase(std::vector<Analyst>* analysts, const Frames& frames,
                      const PhasePlan& plan, const Investigation& world,
                      std::vector<SpanLog>* logs) {
  std::vector<AnalystStats> per(analysts->size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < analysts->size(); ++i) {
    threads.emplace_back([&, i] {
      RunAnalystPhase(&(*analysts)[i], frames, plan, world, &per[i],
                      &(*logs)[i]);
    });
  }
  for (std::thread& t : threads) t.join();
  AnalystStats all;
  for (const AnalystStats& s : per) all.Merge(s);
  return all;
}

// ---------------------------------------------------------------------------
// ingest-hunt writer.
// ---------------------------------------------------------------------------

/// Appends the record stream into the tiered store at a fixed rate, each
/// pass of the stream shifted later by the stream's span.
class Writer {
 public:
  Writer(TieredStore* store, const Investigation& world, uint64_t position)
      : store_(store), world_(world), position_(position) {}
  ~Writer() { Stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  uint64_t position() const { return position_; }  ///< after Stop()
  const std::vector<double>& lag_ms() const { return lag_ms_; }
  double append_s() const { return append_s_; }
  uint64_t appended() const { return appended_; }
  const Status& status() const { return status_; }

 private:
  void Loop() {
    const auto start = Clock::now();
    const size_t n = world_.records.size();
    for (uint64_t batch = 0; !stop_.load(); ++batch) {
      auto release = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     static_cast<double>(batch) *
                                     kWriterBatch / kIngestRate));
      std::this_thread::sleep_until(release);
      std::vector<EventRecord> records;
      records.reserve(kWriterBatch);
      for (size_t i = 0; i < kWriterBatch; ++i, ++position_) {
        records.push_back(Shifted(
            world_.records[position_ % n],
            static_cast<aiql::Duration>(position_ / n) * world_.span));
      }
      auto begin = Clock::now();
      status_ = store_->AppendBatch(std::move(records));
      auto end = Clock::now();
      if (!status_.ok()) return;
      append_s_ += Seconds(end - begin);
      appended_ += kWriterBatch;
      lag_ms_.push_back(Ms(end - release));
    }
  }

  TieredStore* store_;
  const Investigation& world_;
  uint64_t position_;
  std::vector<double> lag_ms_;
  double append_s_ = 0;
  uint64_t appended_ = 0;
  Status status_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Layer probes (traced runs): the benchmark's own timed calls into public
// functions of each layer.
// ---------------------------------------------------------------------------

struct ProbeResults {
  double parse_us = 0, analyze_us = 0;
  double codec_us = 0, reply_bytes = 0, ping_us = 0;
  double shard_ratio = 0, track_us = 0, track_sharded_us = 0;
  double decode_us = 0;
};

template <typename Fn>
double MedianUs(int reps, Fn&& fn) {
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    auto start = Clock::now();
    fn();
    us.push_back(Us(Clock::now() - start));
  }
  return Median(us);
}

ProbeResults RunProbes(const Investigation& world, const AuditDatabase& single,
                       const ShardMap& shards,
                       const std::map<int, aiql::QueryReply>& captured,
                       WireClient* client, const std::string& work_dir,
                       SpanLog* log) {
  ProbeResults out;
  constexpr int kReps = 15;
  uint64_t probe_id = 1ull << 62;

  // query layer: ParseAiql and AnalyzeMultievent.
  std::vector<double> parse, analyze;
  for (const aiql::CatalogQuery& query : world.queries) {
    int32_t span = log->Begin("query.parse", ++probe_id);
    parse.push_back(
        MedianUs(kReps, [&] { (void)aiql::ParseAiql(query.text); }));
    log->End(span);
    auto parsed = aiql::ParseAiql(query.text);
    if (parsed.ok() && parsed->multievent != nullptr) {
      span = log->Begin("query.analyze", probe_id);
      analyze.push_back(MedianUs(kReps, [&] {
        (void)aiql::AnalyzeMultievent(*parsed->multievent, parsed->kind);
      }));
      log->End(span);
    }
  }
  out.parse_us = Mean(parse);
  out.analyze_us = Mean(analyze);

  // server layer: reply codec and ping.
  std::vector<double> codec, bytes;
  for (const auto& [op, reply] : captured) {
    int32_t span = log->Begin("server.codec", ++probe_id);
    codec.push_back(MedianUs(kReps, [&] {
      std::string encoded = aiql::EncodeQueryOk(reply);
      (void)aiql::DecodeResponse(encoded);
    }));
    log->End(span);
    bytes.push_back(static_cast<double>(aiql::EncodeQueryOk(reply).size()));
  }
  out.codec_us = Mean(codec);
  out.reply_bytes = Mean(bytes);
  std::string ping = aiql::EncodeBare(MsgType::kPing);
  int32_t span = log->Begin("server.ping", ++probe_id);
  out.ping_us = MedianUs(200, [&] { (void)client->RoundTrip(ping); });
  log->End(span);

  // engine layer: the same query on the single database and on the
  // 4-shard map; the campaign track on both.
  aiql::AiqlEngine single_engine(&single);
  aiql::AiqlEngine sharded_engine(&shards);
  std::vector<double> ratios;
  for (const aiql::CatalogQuery& query : world.queries) {
    span = log->Begin("engine.execute.single", ++probe_id);
    double one = MedianUs(5, [&] { (void)single_engine.Execute(query.text); });
    log->End(span);
    span = log->Begin("engine.execute.sharded", probe_id);
    double many =
        MedianUs(5, [&] { (void)sharded_engine.Execute(query.text); });
    log->End(span);
    if (one > 0) ratios.push_back(many / one);
  }
  out.shard_ratio = Median(ratios);
  span = log->Begin("engine.track.single", ++probe_id);
  out.track_us = MedianUs(kReps, [&] { (void)single_engine.Track(world.track); });
  log->End(span);
  span = log->Begin("engine.track.sharded", probe_id);
  out.track_sharded_us =
      MedianUs(kReps, [&] { (void)sharded_engine.Track(world.track); });
  log->End(span);

  // storage layer: v2 partition decode over a snapshot of the same data.
  std::string path = work_dir + "/probe.snap";
  Check(aiql::SaveSnapshot(single, path), "save probe snapshot");
  {
    auto store = aiql::SnapshotStore::Open(path);
    Check(store.status(), "open probe snapshot");
    std::vector<double> decode;
    for (size_t i = 0; i < (*store)->total_partitions(); ++i) {
      span = log->Begin("storage.decode", ++probe_id);
      auto start = Clock::now();
      Check((*store)->MaterializePartition(i).status(), "decode partition");
      decode.push_back(Us(Clock::now() - start));
      log->End(span);
    }
    out.decode_us = Median(decode);
  }
  std::filesystem::remove(path);
  return out;
}

/// What the streaming writer saw: ingest-hunt's own writer, or in the
/// other workloads' traced runs a short probe run of the same writer.
struct IngestFigures {
  double lag_p99_ms = 0;
  uint64_t compactor_passes = 0, demotions = 0, commits = 0;
  double disk_bytes_per_event = 0;
};

IngestFigures StreamFigures(const Writer& writer, const TieredStore& store,
                            const aiql::RetentionStats& before,
                            const std::string& dir) {
  IngestFigures out;
  out.lag_p99_ms = TailPercentile(writer.lag_ms(), 0.99).value;
  aiql::RetentionStats after = store.stats();
  out.compactor_passes = after.compactor_passes - before.compactor_passes;
  out.demotions = after.demotions - before.demotions;
  out.commits = after.commits - before.commits;
  out.disk_bytes_per_event =
      Ratio(static_cast<double>(DirBytes(dir)),
            static_cast<double>(store.StatsSnapshot().total_events));
  return out;
}

/// ingest-hunt's store, writer and compactor for a few seconds, with no
/// readers: the first pass preloaded, then the writer continues.
IngestFigures RunIngestProbe(const Investigation& world,
                             const std::string& work_dir) {
  Backend stream;
  aiql::RetentionOptions retention;
  retention.dir = work_dir + "/probe-stream";
  BuildTiered(world.records, retention, /*demote_all=*/false, &stream);
  stream.tiered->StartCompactor();
  const aiql::RetentionStats before = stream.tiered->stats();
  Writer writer(stream.tiered.get(), world, world.records.size());
  writer.Start();
  std::this_thread::sleep_for(std::chrono::seconds(3));
  writer.Stop();
  Check(writer.status(), "probe writer append");
  Check(stream.tiered->Seal(), "probe seal");
  return StreamFigures(writer, *stream.tiered, before, stream.dir);
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

/// One set-up: builds the workload's backend from the first append to the
/// server accepting connections, timed as setup_s.
std::unique_ptr<Backend> BuildBackend(Workload w, const Investigation& world,
                                      uint64_t all_hot_bytes,
                                      const std::string& work_dir) {
  auto b = std::make_unique<Backend>();
  auto start = Clock::now();
  aiql::RetentionOptions retention;
  retention.dir = work_dir + "/retention";
  switch (w) {
    case Workload::kHuntHot:
      BuildShardMap(world.records, b.get());
      b->server = std::make_unique<aiql::AiqlServer>(
          static_cast<const AuditDatabase*>(nullptr), b->shards.get());
      break;
    case Workload::kHuntCold:
      retention.hot_buckets = -1;
      retention.memory_budget_bytes = all_hot_bytes / 4;
      BuildTiered(world.records, retention, /*demote_all=*/true, b.get());
      b->server = std::make_unique<aiql::AiqlServer>(
          static_cast<const TieredStore*>(b->tiered.get()), nullptr);
      break;
    case Workload::kIngestHunt:
      retention.hot_buckets = 2;
      BuildTiered(world.records, retention, /*demote_all=*/false, b.get());
      b->tiered->StartCompactor();
      b->server = std::make_unique<aiql::AiqlServer>(
          static_cast<const TieredStore*>(b->tiered.get()), nullptr);
      break;
  }
  Check(b->server->Start(), "server start");
  b->times.total_s = Seconds(Clock::now() - start);
  return b;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      args->workload_name = value;
      if (value == "hunt-hot") {
        args->workload = Workload::kHuntHot;
      } else if (value == "hunt-cold") {
        args->workload = Workload::kHuntCold;
      } else if (value == "ingest-hunt") {
        args->workload = Workload::kIngestHunt;
      } else {
        return false;
      }
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload_name.empty() && !args->work_dir.empty() &&
         args->seconds > 0;
}

int Run(const Args& args) {
  std::filesystem::create_directories(args.work_dir);
  const Workload w = args.workload;
  const int num_analysts = w == Workload::kIngestHunt ? 2 : 3;

  // --- Inputs and references (not part of setup_s). ------------------------
  auto t0 = Clock::now();
  Investigation world = BuildInvestigation(args.seed);
  std::fprintf(stderr, "generated %zu records, %zu queries in %.2fs\n",
               world.records.size(), world.queries.size(),
               Seconds(Clock::now() - t0));
  t0 = Clock::now();
  auto ingested = aiql::IngestRecords(world.records, aiql::StorageOptions{});
  Check(ingested.status(), "reference ingest");
  auto single = std::make_unique<AuditDatabase>(std::move(*ingested));
  auto reference = ComputeReference(*single, world);
  Check(reference.status(), "reference answers");
  const uint64_t all_hot_bytes = AllHotBytes(*single);
  const uint64_t stored_events = single->stats().total_events;
  std::fprintf(stderr,
               "reference: %" PRIu64 " events, %" PRIu64
               " partitions, %.1f MB all-hot, %zu track nodes in %.2fs\n",
               stored_events, single->stats().total_partitions,
               static_cast<double>(all_hot_bytes) / 1e6,
               reference->track_nodes, Seconds(Clock::now() - t0));

  Frames frames;
  for (const aiql::CatalogQuery& query : world.queries) {
    frames.queries.push_back(
        aiql::EncodeTextRequest(MsgType::kQuery, query.text));
  }
  {
    aiql::TrackCommand command;
    command.request = world.track;
    frames.track = aiql::EncodeTrack(command);
  }

  // --- Set-up: the served backend first, so rss_mb sees one build from a
  // clean baseline; the remaining timed repeats run after the workload. ----
  Sampler sampler;
  std::vector<double> setup_s;
  std::unique_ptr<Backend> backend =
      BuildBackend(w, world, all_hot_bytes, args.work_dir);
  setup_s.push_back(backend->times.total_s);
  sampler.Watch(backend->tiered.get());

  // --- Analysts. -----------------------------------------------------------
  std::vector<Analyst> analysts(static_cast<size_t>(num_analysts));
  for (int i = 0; i < num_analysts; ++i) {
    Analyst& a = analysts[static_cast<size_t>(i)];
    a.index = i;
    auto client = WireClient::Connect(backend->server->port());
    Check(client.status(), "connect");
    a.client = std::make_unique<WireClient>(std::move(*client));
    a.mix = std::make_unique<RequestMix>(world.queries.size(), args.seed, i);
  }
  std::vector<SpanLog> untraced(static_cast<size_t>(num_analysts),
                                SpanLog(false));
  std::vector<SpanLog> traced(static_cast<size_t>(num_analysts),
                              SpanLog(true));

  std::unique_ptr<Writer> writer;
  if (w == Workload::kIngestHunt) {
    writer = std::make_unique<Writer>(backend->tiered.get(), world,
                                      world.records.size());
    writer->Start();
  }
  PhasePlan plan;
  plan.analysts = num_analysts;
  plan.open_loop = w == Workload::kIngestHunt;
  plan.rate = kOpenLoopRate;
  // ingest-hunt's data moves under the queries; its replies are checked by
  // the final sweep instead.
  plan.reference = w == Workload::kIngestHunt ? nullptr : &*reference;

  // Warm-up: caches fill, lazy set-up finishes; not measured.
  plan.seconds = std::min(2.0, args.seconds / 5);
  RunPhase(&analysts, frames, plan, world, &untraced);

  const aiql::ServerCounters counters_before = backend->server->stats();
  const aiql::RetentionStats ret_before =
      backend->tiered ? backend->tiered->stats() : aiql::RetentionStats{};
  sampler.ResetCharged();
  const CpuTimes cpu_before = ReadCpuTimes();
  // A traced run spends half its time untraced, as the baseline of the
  // tracing overhead, and half traced.
  plan.seconds = args.trace ? args.seconds / 2 : args.seconds;
  AnalystStats timed = RunPhase(&analysts, frames, plan, world, &untraced);
  AnalystStats traced_stats;
  if (args.trace) {
    plan.traced = true;
    traced_stats = RunPhase(&analysts, frames, plan, world, &traced);
  }
  const CpuTimes cpu_after = ReadCpuTimes();
  const aiql::ServerCounters counters_after = backend->server->stats();
  const aiql::RetentionStats ret_after =
      backend->tiered ? backend->tiered->stats() : aiql::RetentionStats{};
  sampler.Stop();
  const uint64_t peak_rss = sampler.peak_rss();
  const uint64_t peak_charged = sampler.peak_charged();

  // --- ingest-hunt: stop the writer, seal, and sweep against an all-hot
  // store of every appended record. ----------------------------------------
  uint64_t sweep_attempted = 0, sweep_failed = 0;
  double final_seal_ms = 0;
  IngestFigures ingest;
  if (writer != nullptr) {
    writer->Stop();
    Check(writer->status(), "writer append");
    auto seal = Clock::now();
    Check(backend->tiered->Seal(), "final seal");
    final_seal_ms = Ms(Clock::now() - seal);
    ingest = StreamFigures(*writer, *backend->tiered, ret_before, backend->dir);
    std::unique_ptr<AuditDatabase> all = std::make_unique<AuditDatabase>();
    std::vector<EventRecord> batch;
    const size_t n = world.records.size();
    for (uint64_t p = 0; p < writer->position(); ++p) {
      batch.push_back(Shifted(world.records[p % n],
                              static_cast<aiql::Duration>(p / n) * world.span));
      if (batch.size() == kAppendBatch || p + 1 == writer->position()) {
        Check(all->AppendBatch(std::move(batch)), "sweep reference append");
        batch.clear();
      }
    }
    Check(all->Seal(), "sweep reference seal");
    auto sweep_ref = ComputeReference(*all, world);
    Check(sweep_ref.status(), "sweep reference answers");
    for (size_t q = 0; q <= world.queries.size(); ++q) {
      const bool is_track = q == world.queries.size();
      ++sweep_attempted;
      auto reply = analysts[0].client->Call(is_track ? frames.track
                                                     : frames.queries[q]);
      bool ok = reply.ok() &&
                (is_track ? reply->type == MsgType::kTrackOk &&
                                RowsFingerprint(reply->track.table) ==
                                    sweep_ref->track_fp
                          : reply->type == MsgType::kQueryOk &&
                                RowsFingerprint(reply->query.table) ==
                                    sweep_ref->query_fp[q]);
      if (!ok) {
        ++sweep_failed;
        std::fprintf(stderr, "final sweep: %s does not match\n",
                     is_track ? "track" : world.queries[q].id.c_str());
      }
    }
    std::fprintf(stderr,
                 "final sweep: %" PRIu64 " records appended in %.1f passes, "
                 "%" PRIu64 "/%" PRIu64 " replies match\n",
                 writer->position(),
                 static_cast<double>(writer->position()) /
                     static_cast<double>(n),
                 sweep_attempted - sweep_failed, sweep_attempted);
  }

  // --- Correctness and health. ---------------------------------------------
  AnalystStats all = timed;
  all.Merge(traced_stats);
  const uint64_t attempted = all.attempted + sweep_attempted;
  const uint64_t wrong = all.wrong + sweep_failed;
  const uint64_t failed = all.errors + all.refused + wrong;
  const bool correct = wrong == 0 && all.errors == 0;
  if (!all.first_problem.empty()) {
    std::fprintf(stderr, "first problem: %s\n", all.first_problem.c_str());
  }
  const double steal_pct =
      100.0 * Ratio(static_cast<double>(cpu_after.steal - cpu_before.steal),
                    static_cast<double>(cpu_after.total - cpu_before.total));
  const double late_p99 =
      timed.late_ms.empty() ? 0 : TailPercentile(timed.late_ms, 0.99).value;
  Percentile query_p50 = WindowedPercentile(timed.query_ms, 0.5, 1);
  Percentile query_p99 = WindowedPercentile(timed.query_ms, 0.99, kWindows);
  Percentile track_p50 = WindowedPercentile(timed.track_ms, 0.5, 1);
  Percentile track_p90 = WindowedPercentile(timed.track_ms, 0.9, kWindows);
  const double throughput =
      Ratio(static_cast<double>(std::count_if(
                timed.ok_at_s.begin(), timed.ok_at_s.end(),
                [&](double t) { return t < plan.seconds; })),
            plan.seconds);
  std::fprintf(stderr,
               "%s: %" PRIu64 " attempted, %" PRIu64 " ok, %" PRIu64
               " errors, %" PRIu64 " refused, %" PRIu64
               " wrong; %.1f ops/s; query p50 %.3f ms p%.1f %.3f ms (n=%zu); "
               "track p50 %.3f ms p%.1f %.3f ms (n=%zu)\n",
               args.workload_name.c_str(), timed.attempted, timed.ok,
               timed.errors, timed.refused, timed.wrong, throughput,
               query_p50.value, query_p99.quantile * 100, query_p99.value,
               query_p99.samples, track_p50.value, track_p90.quantile * 100,
               track_p90.value, track_p90.samples);
  std::fprintf(stderr, "health: steal %.2f%%, generator late p99 %.3f ms\n",
               steal_pct, late_p99);
  {
    // OK replies per second of the measured phase, to see interference.
    std::vector<int> per_second(static_cast<size_t>(plan.seconds) + 1, 0);
    for (double t : timed.ok_at_s) {
      if (t >= 0 && t < plan.seconds) ++per_second[static_cast<size_t>(t)];
    }
    std::fprintf(stderr, "per-second ok:");
    for (int c : per_second) std::fprintf(stderr, " %d", c);
    std::fprintf(stderr, "\n");
  }
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"throughput_ops", throughput, "ops/s"},
        {"query_p50_ms", query_p50.value, "ms"},
        {"query_p99_ms", query_p99.value, "ms"},
        {"track_p50_ms", track_p50.value, "ms"},
        {"track_p90_ms", track_p90.value, "ms"},
        {"rss_mb",
         static_cast<double>(peak_rss - std::min(peak_rss,
                                                 sampler.baseline())) /
             1e6,
         "MB"},
    };
  } else {
    // Probes run on the world's own records: the reference database and a
    // 4-shard map of it (hunt-hot serves that map; the others build one).
    Backend probe_shards;
    const ShardMap* shard_map = backend->shards.get();
    if (shard_map == nullptr) {
      BuildShardMap(world.records, &probe_shards);
      shard_map = probe_shards.shards.get();
    }
    std::map<int, aiql::QueryReply> captured;
    for (const Analyst& a : analysts) {
      captured.insert(a.captured.begin(), a.captured.end());
    }
    SpanLog probe_log(true);
    ProbeResults probe =
        RunProbes(world, *single, *shard_map, captured,
                  analysts[0].client.get(), args.work_dir, &probe_log);
    double demote_ms = backend->times.demote_ms;
    if (w != Workload::kHuntCold) {
      // The served backend demotes nothing at set-up: time one demotion
      // pass over a fully cold store of the same records.
      Backend cold;
      aiql::RetentionOptions retention;
      retention.dir = args.work_dir + "/probe-retention";
      retention.hot_buckets = -1;
      BuildTiered(world.records, retention, /*demote_all=*/true, &cold);
      demote_ms = cold.times.demote_ms;
    }
    double append_s = backend->times.append_s;
    uint64_t appended = backend->times.appended;
    double seal_ms = backend->times.seal_ms;
    if (writer != nullptr) {
      append_s = writer->append_s();
      appended = writer->appended();
      seal_ms = final_seal_ms;
    } else {
      ingest = RunIngestProbe(world, args.work_dir);
    }
    const double hits =
        static_cast<double>(ret_after.cache.hits - ret_before.cache.hits);
    const double misses =
        static_cast<double>(ret_after.cache.misses - ret_before.cache.misses);
    const double ops = static_cast<double>(all.attempted);
    const AnalystStats& t = traced_stats;
    Percentile traced_p50 = WindowedPercentile(t.query_ms, 0.5, 1);
    metrics = {
        {"server.overhead_us", Median(t.overhead_us), "us"},
        {"server.ping_us", probe.ping_us, "us"},
        {"server.codec_us", probe.codec_us, "us"},
        {"server.reply_bytes", probe.reply_bytes, "B"},
        {"server.refused",
         Ratio(static_cast<double>(counters_after.queries_rejected -
                                   counters_before.queries_rejected),
               ops),
         "fraction"},
        {"client.decode_us", Median(t.decode_us), "us"},
        {"query.parse_us", probe.parse_us, "us"},
        {"query.server_parse_us", Mean(all.parse_us), "us"},
        {"query.analyze_us", probe.analyze_us, "us"},
        {"engine.plan_us", Mean(all.plan_us), "us"},
        {"engine.exec_us_p50", TailPercentile(all.exec_us, 0.5).value, "us"},
        {"engine.exec_us_p99", TailPercentile(all.exec_us, 0.99).value,
         "us"},
        {"engine.scanned_per_row", Ratio(all.scanned, all.rows), "ratio"},
        {"engine.match_ratio", Ratio(all.matched, all.scanned), "ratio"},
        {"engine.partitions_scanned",
         Ratio(all.partitions, static_cast<double>(all.replies)), "count"},
        {"engine.join_candidates",
         Ratio(all.joins, static_cast<double>(all.replies)), "count"},
        {"engine.shard_ratio", probe.shard_ratio, "ratio"},
        {"engine.track_us", probe.track_us, "us"},
        {"engine.track_sharded_us", probe.track_sharded_us, "us"},
        {"engine.track_partitions_selected",
         Ratio(all.track_partitions, static_cast<double>(all.track_replies)),
         "count"},
        {"engine.track_events_inspected",
         Ratio(all.track_inspected, static_cast<double>(all.track_replies)),
         "count"},
        {"engine.shard_retries", static_cast<double>(all.shard_retries),
         "count"},
        {"storage.append_rps",
         Ratio(static_cast<double>(appended), append_s), "rec/s"},
        {"storage.seal_ms", seal_ms, "ms"},
        {"storage.demote_ms", demote_ms, "ms"},
        {"storage.cache_hit_ratio", Ratio(hits, hits + misses), "ratio"},
        {"storage.cache_evictions",
         Ratio(static_cast<double>(ret_after.cache.evictions -
                                   ret_before.cache.evictions),
               ops),
         "count/op"},
        {"storage.reopens",
         Ratio(static_cast<double>(ret_after.reopens - ret_before.reopens),
               ops),
         "count/op"},
        {"storage.cache_peak_mb", static_cast<double>(peak_charged) / 1e6,
         "MB"},
        {"storage.decode_us", probe.decode_us, "us"},
        {"storage.compactor_passes",
         static_cast<double>(ingest.compactor_passes), "count"},
        {"storage.demotions", static_cast<double>(ingest.demotions),
         "count"},
        {"storage.commits", static_cast<double>(ingest.commits), "count"},
        {"storage.disk_bytes_per_event", ingest.disk_bytes_per_event, "B"},
        {"ingest.lag_p99_ms", ingest.lag_p99_ms, "ms"},
        {"error_rate", Ratio(static_cast<double>(failed),
                             static_cast<double>(attempted)),
         "fraction"},
        {"trace.overhead_ms", traced_p50.value - query_p50.value, "ms"},
        {"health.steal_pct", steal_pct, "%"},
        {"health.generator_late_p99_ms", late_p99, "ms"},
    };
    std::filesystem::path trace_path =
        std::filesystem::path(args.work_dir).parent_path() /
        ("investbench-trace-" + args.workload_name + ".jsonl");
    std::vector<const SpanLog*> logs;
    for (const SpanLog& log : traced) logs.push_back(&log);
    logs.push_back(&probe_log);
    if (!WriteSpans(trace_path.string(), logs)) {
      std::fprintf(stderr, "could not write %s\n", trace_path.c_str());
    }
  }

  // Disconnect before the server stops, then the remaining set-up repeats.
  analysts.clear();
  backend.reset();
  if (!args.trace) {
    for (int rep = 1; rep < kSetupRepeats; ++rep) {
      setup_s.push_back(
          BuildBackend(w, world, all_hot_bytes, args.work_dir)->times.total_s);
    }
    std::fprintf(stderr, "setup: %.3f s median of", Median(setup_s));
    for (double s : setup_s) std::fprintf(stderr, " %.3f", s);
    std::fprintf(stderr, "\n");
    metrics.front().value = Median(setup_s);
  }
  {
    // Run-health record, one line per run, kept beside the build.
    std::filesystem::path health =
        std::filesystem::path(args.work_dir).parent_path() /
        "investbench-health.jsonl";
    if (FILE* f = std::fopen(health.c_str(), "a")) {
      std::fprintf(f,
                   "{\"workload\":\"%s\",\"seed\":%" PRIu64
                   ",\"trace\":%d,\"steal_pct\":%.3f,"
                   "\"generator_late_p99_ms\":%.4f,\"throughput_ops\":%.2f,"
                   "\"setup_s\":%.4f,\"query_p99_supported\":%s,"
                   "\"track_p90_supported\":%s}\n",
                   args.workload_name.c_str(), args.seed,
                   args.trace ? 1 : 0, steal_pct, late_p99, throughput,
                   Median(setup_s), query_p99.supported ? "true" : "false",
                   track_p90.supported ? "true" : "false");
      std::fclose(f);
    }
  }

  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace investbench

int main(int argc, char** argv) {
  investbench::Args args;
  if (!investbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: investbench --workload hunt-hot|hunt-cold|"
                 "ingest-hunt --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR\n");
    return 2;
  }
  return investbench::Run(args);
}
