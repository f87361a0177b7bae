// AiqlServer integration tests: wire-protocol round-trips, concurrent
// sessions returning byte-identical rows vs the in-process engine,
// admission-control overload, session caps, per-session deadlines killing
// failpoint-stalled queries, and protocol torture (malformed frames must
// produce clean errors, never crashes).

#include "server/aiql_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/net.h"
#include "common/time_utils.h"
#include "engine/aiql_engine.h"
#include "server/protocol.h"
#include "simulator/queries_a.h"
#include "simulator/scenario.h"
#include "storage/database.h"
#include "storage/shard_map.h"
#include "storage/tiered.h"

#include <unistd.h>

namespace aiql {
namespace {

/// Shared demo-scenario world: one single database plus a 4-way agent-range
/// shard map over the same records; built once for the whole suite.
struct World {
  DemoScenarioData data;
  std::unique_ptr<AuditDatabase> db;
  std::vector<std::unique_ptr<AuditDatabase>> shard_dbs;
  ShardMap shards;
  std::vector<CatalogQuery> catalog;
};

World& GetWorld() {
  static World* world = [] {
    auto* w = new World();
    ScenarioOptions options;
    options.num_clients = 4;
    options.events_per_host_per_hour = 200;  // small but attack-complete
    w->data = GenerateDemoScenario(options);
    auto db = IngestRecords(w->data.records, StorageOptions{});
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    w->db = std::make_unique<AuditDatabase>(std::move(*db));
    AgentId min_agent = UINT32_MAX, max_agent = 0;
    for (const EventRecord& record : w->data.records) {
      min_agent = std::min(min_agent, record.agent_id);
      max_agent = std::max(max_agent, record.agent_id);
    }
    auto ranges = EvenAgentRanges(4, min_agent, max_agent);
    auto routed = RouteRecordsByAgent(ranges, w->data.records);
    EXPECT_TRUE(routed.ok());
    for (size_t s = 0; s < ranges.size(); ++s) {
      auto shard_db = IngestRecords((*routed)[s], StorageOptions{});
      EXPECT_TRUE(shard_db.ok());
      w->shard_dbs.push_back(
          std::make_unique<AuditDatabase>(std::move(*shard_db)));
      EXPECT_TRUE(
          w->shards.AddShard(w->shard_dbs.back().get(), ranges[s]).ok());
    }
    w->catalog = DemoInvestigationQueries(w->data.truth);
    return w;
  }();
  return *world;
}

/// One client connection to a test server, with the hello handshake done.
struct TestClient {
  Connection conn;

  static TestClient Connect(uint16_t port, bool hello = true) {
    TestClient client;
    auto connected = ConnectTo("127.0.0.1", port);
    EXPECT_TRUE(connected.ok()) << connected.status().ToString();
    client.conn = std::move(*connected);
    if (hello) {
      auto greeted = client.Call(EncodeHello());
      EXPECT_TRUE(greeted.ok()) << greeted.status().ToString();
      EXPECT_EQ(greeted->type, MsgType::kHelloOk);
      EXPECT_EQ(greeted->version, kProtocolVersion);
    }
    return client;
  }

  Result<Response> Call(const std::string& frame) {
    AIQL_RETURN_IF_ERROR(conn.WriteFrame(frame));
    AIQL_ASSIGN_OR_RETURN(std::string reply, conn.ReadFrame());
    return DecodeResponse(reply);
  }
};

class ServerTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoint::ClearAll(); }
};

// --- Protocol unit round-trips (no sockets) ---

TEST(ProtocolTest, RequestRoundTrips) {
  auto query = DecodeRequest(EncodeTextRequest(MsgType::kQuery, "proc p"));
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->type, MsgType::kQuery);
  EXPECT_EQ(query->text, "proc p");

  TrackCommand command;
  command.request.name_like = "%db.bak%";
  command.request.type = EntityType::kNetwork;
  command.request.anchor = int64_t{-12345};
  command.request.options.backward = true;
  command.request.options.max_depth = 7;
  command.request.options.max_fanout = 9;
  command.request.options.max_nodes = 11;
  command.request.options.hop_window = 30 * kMinute;
  command.want_cypher = true;
  auto track = DecodeRequest(EncodeTrack(command));
  ASSERT_TRUE(track.ok());
  EXPECT_EQ(track->type, MsgType::kTrack);
  EXPECT_EQ(track->track.request.name_like, "%db.bak%");
  EXPECT_EQ(track->track.request.type, EntityType::kNetwork);
  ASSERT_TRUE(track->track.request.anchor.has_value());
  EXPECT_EQ(*track->track.request.anchor, -12345);
  EXPECT_TRUE(track->track.request.options.backward);
  EXPECT_EQ(track->track.request.options.max_depth, 7);
  EXPECT_EQ(track->track.request.options.max_fanout, 9u);
  EXPECT_EQ(track->track.request.options.max_nodes, 11u);
  EXPECT_EQ(track->track.request.options.hop_window, 30 * kMinute);
  EXPECT_FALSE(track->track.want_dot);
  EXPECT_TRUE(track->track.want_cypher);

  auto option = DecodeRequest(EncodeSetOption("timeout_ms", "250"));
  ASSERT_TRUE(option.ok());
  EXPECT_EQ(option->option_name, "timeout_ms");
  EXPECT_EQ(option->option_value, "250");
}

TEST(ProtocolTest, ResponseRoundTripsPreserveValueTypes) {
  QueryReply reply;
  reply.table.columns = {"s", "i", "d"};
  reply.table.rows.push_back(
      {std::string("text"), int64_t{-42}, 0.1 + 0.2});
  reply.stats.events_scanned = 12345;
  reply.stats.parse_time = -1;  // signed fields survive
  reply.degraded = "PARTIAL 1/2 shards";
  auto decoded = DecodeResponse(EncodeQueryOk(reply));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, MsgType::kQueryOk);
  // operator== over the variant rows: exact, including the double bits.
  EXPECT_EQ(decoded->query.table, reply.table);
  EXPECT_EQ(decoded->query.stats.events_scanned, 12345u);
  EXPECT_EQ(decoded->query.stats.parse_time, -1);
  EXPECT_EQ(decoded->query.degraded, "PARTIAL 1/2 shards");

  auto error = DecodeResponse(
      EncodeError(Status::ResourceExhausted("queue full")));
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->type, MsgType::kError);
  EXPECT_EQ(error->error.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(error->error.message(), "queue full");
}

TEST(ProtocolTest, DecodersRejectMalformedPayloads) {
  EXPECT_FALSE(DecodeRequest("").ok());
  EXPECT_FALSE(DecodeResponse("").ok());
  // Unknown discriminators.
  EXPECT_FALSE(DecodeRequest(std::string(1, '\x3f')).ok());
  EXPECT_FALSE(DecodeResponse(std::string(1, '\x01')).ok());
  // Trailing bytes after a valid message.
  EXPECT_FALSE(DecodeRequest(EncodeBare(MsgType::kPing) + "x").ok());
  EXPECT_FALSE(DecodeResponse(EncodePong() + "x").ok());
  // Truncations at every prefix of a structured message.
  std::string track = EncodeTrack(TrackCommand{});
  for (size_t cut = 1; cut < track.size(); ++cut) {
    EXPECT_FALSE(DecodeRequest(track.substr(0, cut)).ok())
        << "accepted prefix of " << cut << " bytes";
  }
  QueryReply reply;
  reply.table.columns = {"a"};
  reply.table.rows.push_back({int64_t{1}});
  std::string ok_frame = EncodeQueryOk(reply);
  for (size_t cut = 1; cut < ok_frame.size(); ++cut) {
    EXPECT_FALSE(DecodeResponse(ok_frame.substr(0, cut)).ok());
  }
  // A forged row count cannot force a huge reservation: counts larger than
  // the remaining payload are rejected up front.
  std::string forged;
  forged.push_back(static_cast<char>(MsgType::kQueryOk));
  forged += '\x01';          // 1 column
  forged += '\x01';          // name length 1
  forged += 'c';
  forged += "\xff\xff\xff\xff\x0f";  // varint row count ~4 billion
  EXPECT_FALSE(DecodeResponse(forged).ok());
}

// --- Live server ---

TEST_F(ServerTest, HelloPingAndStats) {
  World& world = GetWorld();
  AiqlServer server(world.db.get(), &world.shards);
  ASSERT_TRUE(server.Start().ok());
  TestClient client = TestClient::Connect(server.port());
  auto pong = client.Call(EncodeBare(MsgType::kPing));
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->type, MsgType::kPong);
  auto stats = client.Call(EncodeBare(MsgType::kStats));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->type, MsgType::kStatsOk);
  EXPECT_NE(stats->text.find("4 shards"), std::string::npos) << stats->text;
  server.Stop();
}

TEST_F(ServerTest, HelloVersionMismatchIsRejected) {
  World& world = GetWorld();
  AiqlServer server(world.db.get(), nullptr);
  ASSERT_TRUE(server.Start().ok());
  TestClient client = TestClient::Connect(server.port(), /*hello=*/false);
  // A hand-built hello claiming protocol version 99.
  std::string hello;
  hello.push_back(static_cast<char>(MsgType::kHello));
  hello.push_back('\x63');
  auto reply = client.Call(hello);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, MsgType::kError);
  EXPECT_EQ(reply->error.code(), StatusCode::kInvalidArgument);
  server.Stop();
}

TEST_F(ServerTest, EightConcurrentSessionsMatchInProcessByteForByte) {
  World& world = GetWorld();
  ServerOptions options;
  options.max_concurrent_queries = 4;
  AiqlServer server(world.db.get(), &world.shards, options);
  ASSERT_TRUE(server.Start().ok());

  // In-process oracle over the same shard map and engine configuration the
  // server uses for sharded-strict sessions.
  EngineOptions engine_options;
  AiqlEngine oracle(&world.shards, engine_options);
  struct Expected {
    std::string text;
    Status status = Status::OK();
    ResultTable table;
  };
  std::vector<Expected> expected;
  for (const CatalogQuery& query : world.catalog) {
    Expected e;
    e.text = query.text;
    auto result = oracle.Execute(query.text);
    if (result.ok()) {
      e.table = result->table;
      e.table.SortRows();
    } else {
      e.status = result.status();
    }
    expected.push_back(std::move(e));
  }

  constexpr size_t kSessions = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> sessions;
  for (size_t s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      TestClient client = TestClient::Connect(server.port());
      // Each session walks the whole catalog starting at its own offset so
      // different queries are in flight simultaneously.
      for (size_t q = 0; q < expected.size(); ++q) {
        const Expected& e = expected[(s + q) % expected.size()];
        auto reply = client.Call(EncodeTextRequest(MsgType::kQuery, e.text));
        if (!reply.ok()) {
          ++mismatches;
          continue;
        }
        if (!e.status.ok()) {
          if (reply->type != MsgType::kError ||
              reply->error.code() != e.status.code()) {
            ++mismatches;
          }
          continue;
        }
        if (reply->type != MsgType::kQueryOk) {
          ++mismatches;
          continue;
        }
        ResultTable table = std::move(reply->query.table);
        table.SortRows();
        if (!(table == e.table)) ++mismatches;
      }
    });
  }
  for (std::thread& session : sessions) session.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.stats().sessions_accepted, kSessions);
  server.Stop();
}

TEST_F(ServerTest, TrackMatchesInProcessRendering) {
  World& world = GetWorld();
  AiqlServer server(world.db.get(), &world.shards);
  ASSERT_TRUE(server.Start().ok());

  TrackCommand command;
  command.request.name_like = "%" + world.data.truth.attacker_ip + "%";
  command.request.type = EntityType::kNetwork;
  command.request.options.backward = true;
  command.request.options.max_depth = 4;

  EngineOptions engine_options;
  AiqlEngine oracle(&world.shards, engine_options);
  auto local = oracle.Track(command.request);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  ASSERT_GT(local->nodes.size(), 0u);
  ResultTable expected;
  expected.columns = {"depth", "type", "entity", "bound"};
  for (const ProvenanceNode& node : local->nodes) {
    expected.rows.push_back(
        {std::string(std::to_string(node.depth)),
         std::string(EntityTypeToString(node.type)),
         world.shards.entities(node.shard).EntityName(node.type, node.id),
         node.bound == INT64_MAX || node.bound == INT64_MIN
             ? std::string("-")
             : FormatTimestamp(node.bound)});
  }
  expected.SortRows();

  TestClient client = TestClient::Connect(server.port());
  auto reply = client.Call(EncodeTrack(command));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, MsgType::kTrackOk);
  ResultTable remote = std::move(reply->track.table);
  remote.SortRows();
  EXPECT_TRUE(remote == expected);
  EXPECT_NE(reply->track.summary.find("roots"), std::string::npos);
  EXPECT_EQ(server.stats().tracks_executed, 1u);
  server.Stop();
}

TEST_F(ServerTest, ExplainAndCheckTravelTheWire) {
  World& world = GetWorld();
  AiqlServer server(world.db.get(), nullptr);
  ASSERT_TRUE(server.Start().ok());
  const std::string query = "proc p read file f return distinct p limit 3";

  EngineOptions engine_options;
  AiqlEngine oracle(world.db.get(), engine_options);
  auto local_plan = oracle.Explain(query);
  ASSERT_TRUE(local_plan.ok());

  TestClient client = TestClient::Connect(server.port());
  auto plan = client.Call(EncodeTextRequest(MsgType::kExplain, query));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->type, MsgType::kExplainOk);
  EXPECT_EQ(plan->text, *local_plan);

  auto check = client.Call(EncodeTextRequest(MsgType::kCheck, query));
  ASSERT_TRUE(check.ok());
  ASSERT_EQ(check->type, MsgType::kCheckOk);
  EXPECT_EQ(check->text, "multievent");

  auto bad = client.Call(EncodeTextRequest(MsgType::kCheck, "%%nonsense"));
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->type, MsgType::kError);
  server.Stop();
}

TEST_F(ServerTest, AdmissionOverloadRepliesResourceExhausted) {
  World& world = GetWorld();
  ServerOptions options;
  options.max_concurrent_queries = 1;
  options.admission_queue_depth = 0;  // no queue: reject immediately
  AiqlServer server(world.db.get(), &world.shards, options);
  ASSERT_TRUE(server.Start().ok());

  // Stall the scatter path so the first query holds the only slot.
  ASSERT_TRUE(Failpoint::Configure("shard.scatter=latency(400000)").ok());
  TestClient slow = TestClient::Connect(server.port());
  TestClient fast = TestClient::Connect(server.port());
  const std::string query = "proc p read file f return distinct p limit 1";
  ASSERT_TRUE(slow.conn.WriteFrame(
      EncodeTextRequest(MsgType::kQuery, query)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  auto start = std::chrono::steady_clock::now();
  auto rejected = fast.Call(EncodeTextRequest(MsgType::kQuery, query));
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  ASSERT_EQ(rejected->type, MsgType::kError);
  EXPECT_EQ(rejected->error.code(), StatusCode::kResourceExhausted);
  // Overload must answer instantly, not after the slow query finishes.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            300);

  // The stalled query itself still completes normally.
  auto slow_reply = slow.conn.ReadFrame();
  ASSERT_TRUE(slow_reply.ok());
  auto decoded = DecodeResponse(*slow_reply);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, MsgType::kQueryOk);
  EXPECT_GE(server.stats().queries_rejected, 1u);
  server.Stop();
}

TEST_F(ServerTest, SessionCapRefusesExtraConnections) {
  World& world = GetWorld();
  ServerOptions options;
  options.max_sessions = 1;
  AiqlServer server(world.db.get(), nullptr, options);
  ASSERT_TRUE(server.Start().ok());
  TestClient first = TestClient::Connect(server.port());
  // The second connection gets an error frame instead of a session.
  auto second = ConnectTo("127.0.0.1", server.port());
  ASSERT_TRUE(second.ok());
  auto refusal = second->ReadFrame();
  ASSERT_TRUE(refusal.ok()) << refusal.status().ToString();
  auto decoded = DecodeResponse(*refusal);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, MsgType::kError);
  EXPECT_EQ(decoded->error.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server.stats().sessions_rejected, 1u);
  // The first session is unaffected.
  auto pong = first.Call(EncodeBare(MsgType::kPing));
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->type, MsgType::kPong);
  server.Stop();
}

TEST_F(ServerTest, SessionDeadlineKillsStalledQueryWithinTwiceTheDeadline) {
  World& world = GetWorld();
  AiqlServer server(world.db.get(), &world.shards);
  ASSERT_TRUE(server.Start().ok());
  TestClient client = TestClient::Connect(server.port());
  auto option = client.Call(EncodeSetOption("timeout_ms", "500"));
  ASSERT_TRUE(option.ok());
  ASSERT_EQ(option->type, MsgType::kOptionOk);

  // Each scatter hit would stall 10s; the 500ms session deadline must cut
  // through (InterruptibleSleep polls the bound context).
  ASSERT_TRUE(Failpoint::Configure("shard.scatter=latency(10000000)").ok());
  auto start = std::chrono::steady_clock::now();
  auto reply = client.Call(EncodeTextRequest(
      MsgType::kQuery, "proc p read file f return distinct p limit 1"));
  auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, MsgType::kError);
  EXPECT_EQ(reply->error.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(wall_ms, 1000) << "deadline kill took " << wall_ms << " ms";
  server.Stop();
}

TEST_F(ServerTest, SetOptionValidatesAndGoverns) {
  World& world = GetWorld();
  AiqlServer server(world.db.get(), &world.shards);
  ASSERT_TRUE(server.Start().ok());
  TestClient client = TestClient::Connect(server.port());

  // Malformed numerics are rejected by the shared checked parser.
  for (const char* bad : {"abc", "12x", "-5", "0", "99999999999999999999"}) {
    auto reply = client.Call(EncodeSetOption("timeout_ms", bad));
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, MsgType::kError) << "accepted: " << bad;
    EXPECT_EQ(reply->error.code(), StatusCode::kInvalidArgument);
  }
  auto unknown = client.Call(EncodeSetOption("no_such_option", "1"));
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->type, MsgType::kError);
  // The server's layout is fixed: numeric shard counts are refused with a
  // message naming it.
  auto numeric = client.Call(EncodeSetOption("shards", "16"));
  ASSERT_TRUE(numeric.ok());
  ASSERT_EQ(numeric->type, MsgType::kError);
  EXPECT_NE(numeric->error.message().find("fixed"), std::string::npos);

  // A rows budget of 1 turns a multi-row query into kResourceExhausted.
  auto budget = client.Call(EncodeSetOption("rows", "1"));
  ASSERT_TRUE(budget.ok());
  ASSERT_EQ(budget->type, MsgType::kOptionOk);
  auto governed = client.Call(EncodeTextRequest(
      MsgType::kQuery, "proc p read file f return distinct p"));
  ASSERT_TRUE(governed.ok());
  ASSERT_EQ(governed->type, MsgType::kError);
  EXPECT_EQ(governed->error.code(), StatusCode::kResourceExhausted);
  // budget_off restores the session.
  ASSERT_TRUE(client.Call(EncodeSetOption("budget_off", "")).ok());
  auto clean = client.Call(EncodeTextRequest(
      MsgType::kQuery, "proc p read file f return distinct p limit 2"));
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->type, MsgType::kQueryOk);
  server.Stop();
}

TEST_F(ServerTest, SessionsSwitchBackendsIndependently) {
  World& world = GetWorld();
  AiqlServer server(world.db.get(), &world.shards);
  ASSERT_TRUE(server.Start().ok());
  TestClient sharded = TestClient::Connect(server.port());
  TestClient single = TestClient::Connect(server.port());
  auto switched = single.Call(EncodeSetOption("shards", "off"));
  ASSERT_TRUE(switched.ok());
  ASSERT_EQ(switched->type, MsgType::kOptionOk);
  // Both modes agree on the rows for the same query (single-db vs
  // scatter/gather differential, now through two live sessions). No LIMIT:
  // a limit binds before cross-engine ordering, so only the full distinct
  // set is comparable.
  const std::string query = "proc p read file f return distinct p";
  auto from_shards = sharded.Call(EncodeTextRequest(MsgType::kQuery, query));
  auto from_single = single.Call(EncodeTextRequest(MsgType::kQuery, query));
  ASSERT_TRUE(from_shards.ok());
  ASSERT_TRUE(from_single.ok());
  ASSERT_EQ(from_shards->type, MsgType::kQueryOk);
  ASSERT_EQ(from_single->type, MsgType::kQueryOk);
  ResultTable a = std::move(from_shards->query.table);
  ResultTable b = std::move(from_single->query.table);
  a.SortRows();
  b.SortRows();
  EXPECT_TRUE(a == b);
  server.Stop();
}

// --- Backend state read through views ---

/// One write by agent `agent` of a fresh file at `start`.
EventRecord LiveRecord(AgentId agent, Timestamp start, int i) {
  EventRecord record;
  record.agent_id = agent;
  record.op = OpType::kWrite;
  record.start_ts = start;
  record.end_ts = start + kSecond;
  record.amount = 1;
  record.subject = ProcessRef{agent, 100, "writer.exe", "root"};
  record.object = FileRef{agent, "/live/f" + std::to_string(i)};
  return record;
}

/// Retention directory removed before and after use.
struct TempRetentionDir {
  std::string path = "/tmp/aiql_server_test_" +
                     std::to_string(reinterpret_cast<uintptr_t>(this)) +
                     "_" + std::to_string(getpid());
  TempRetentionDir() { Remove(); }
  ~TempRetentionDir() { Remove(); }
  void Remove() const {
    std::remove((path + "/DATA").c_str());
    for (int seq = 0; seq <= 64; ++seq) {
      std::remove((path + "/FOOTER." + std::to_string(seq)).c_str());
    }
    std::remove((path + "/FOOTER.tmp").c_str());
    rmdir(path.c_str());
  }
};

TEST_F(ServerTest, HelloStatsAndTrackReadThroughViewsDuringIngest) {
  StorageOptions storage;
  storage.batch_commit_size = 16;  // frequent commits, each interning
  AuditDatabase db(storage);
  const Timestamp t0 = *MakeTimestamp(2018, 5, 10);
  int next = 0;
  for (; next < 600; ++next) {
    ASSERT_TRUE(db.Append(LiveRecord(1, t0 + next * kMinute, next)).ok());
  }
  ASSERT_TRUE(db.Flush().ok());

  AiqlServer server(&db, nullptr);
  ASSERT_TRUE(server.Start().ok());
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = next; !stop.load() && i < 200000; ++i) {
      if (!db.Append(LiveRecord(1, t0 + i * kMinute, i)).ok()) return;
    }
  });

  TrackCommand track;
  track.request.name_like = "/live/f1";
  track.request.type = EntityType::kFile;
  track.request.options.backward = true;
  track.request.options.max_depth = 2;
  for (int round = 0; round < 20; ++round) {
    TestClient client = TestClient::Connect(server.port());
    auto stats = client.Call(EncodeBare(MsgType::kStats));
    ASSERT_TRUE(stats.ok());
    ASSERT_EQ(stats->type, MsgType::kStatsOk);
    EXPECT_NE(stats->text.find("stored events"), std::string::npos);
    auto reply = client.Call(EncodeTrack(track));
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->type, MsgType::kTrackOk)
        << reply->error.ToString();
    EXPECT_GE(reply->track.table.rows.size(), 2u);
    TrackCommand dot = track;
    dot.want_dot = true;
    auto exported = client.Call(EncodeTrack(dot));
    ASSERT_TRUE(exported.ok());
    ASSERT_EQ(exported->type, MsgType::kTrackOk);
    EXPECT_NE(exported->track.text.find("writer.exe"), std::string::npos);
  }
  stop.store(true);
  writer.join();
  server.Stop();
}

TEST_F(ServerTest, RecoveredTieredStoreBannerCountsColdEvents) {
  TempRetentionDir dir;
  RetentionOptions retention;
  retention.dir = dir.path;
  retention.hot_buckets = -1;  // demote everything sealed
  const Timestamp t0 = *MakeTimestamp(2018, 5, 10);
  constexpr int kEvents = 150;
  {
    auto store = TieredStore::Create(StorageOptions{}, retention);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (int i = 0; i < kEvents; ++i) {
      ASSERT_TRUE((*store)->Append(LiveRecord(1, t0 + i * kMinute, i)).ok());
    }
    ASSERT_TRUE((*store)->Seal().ok());
    ASSERT_TRUE((*store)->CompactOnce().ok());
    ASSERT_EQ((*store)->stats().hot_partitions, 0u);
  }
  auto store = TieredStore::Create(StorageOptions{}, retention);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_EQ((*store)->StatsSnapshot().total_events,
            static_cast<uint64_t>(kEvents));

  AiqlServer server(store->get(), nullptr);
  ASSERT_TRUE(server.Start().ok());
  TestClient client = TestClient::Connect(server.port(), /*hello=*/false);
  auto hello = client.Call(EncodeHello());
  ASSERT_TRUE(hello.ok());
  ASSERT_EQ(hello->type, MsgType::kHelloOk);
  EXPECT_NE(hello->text.find(std::to_string(kEvents) + " events"),
            std::string::npos)
      << hello->text;
  auto stats = client.Call(EncodeBare(MsgType::kStats));
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->type, MsgType::kStatsOk);
  EXPECT_NE(stats->text.find("stored events   : " + std::to_string(kEvents)),
            std::string::npos)
      << stats->text;
  server.Stop();
}

TEST_F(ServerTest, StatsShardLayoutNamesBackendsAndCountsEvents) {
  TempRetentionDir dir;
  const Timestamp t0 = *MakeTimestamp(2018, 5, 10);
  AuditDatabase db{StorageOptions{}};
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(db.Append(LiveRecord(1, t0 + i * kMinute, i)).ok());
  }
  ASSERT_TRUE(db.Seal().ok());
  RetentionOptions retention;
  retention.dir = dir.path;
  auto tiered = TieredStore::Create(StorageOptions{}, retention);
  ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();
  for (int i = 0; i < 45; ++i) {
    ASSERT_TRUE((*tiered)->Append(LiveRecord(2, t0 + i * kMinute, i)).ok());
  }
  ASSERT_TRUE((*tiered)->Seal().ok());
  ShardMap map;
  ASSERT_TRUE(map.AddShard(&db, ShardRange{1, 2}).ok());
  ASSERT_TRUE(map.AddShard(tiered->get(), ShardRange{2, 3}).ok());

  AiqlServer server(static_cast<const PartitionSource*>(nullptr), &map);
  ASSERT_TRUE(server.Start().ok());
  TestClient client = TestClient::Connect(server.port());
  auto stats = client.Call(EncodeBare(MsgType::kStats));
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->type, MsgType::kStatsOk);
  // One layout row per shard: its backend and its own event count.
  bool database_row = false, tiered_row = false;
  size_t pos = 0;
  while (pos < stats->text.size()) {
    size_t end = stats->text.find('\n', pos);
    if (end == std::string::npos) end = stats->text.size();
    std::string line = stats->text.substr(pos, end - pos);
    pos = end + 1;
    if (line.find("database") != std::string::npos) {
      database_row = line.find(" 30") != std::string::npos;
    }
    if (line.find("tiered") != std::string::npos) {
      tiered_row = line.find(" 45") != std::string::npos;
    }
  }
  EXPECT_TRUE(database_row) << stats->text;
  EXPECT_TRUE(tiered_row) << stats->text;
  EXPECT_NE(stats->text.find("75 events total"), std::string::npos)
      << stats->text;
  server.Stop();
}

/// Reply to a partition-free query sent while another query, stalled in a
/// cold decode, holds one of the server's two execution slots (no admission
/// queue). The server serves a fully demoted tiered store of 16 equal
/// partitions whose cold cache holds `budget_partitions` partitions' worth
/// of bytes, warmed by one full sweep. kError means admission halved the cap.
Result<Response> QueryBesideStalledSweep(double budget_partitions) {
  TempRetentionDir dir;
  RetentionOptions retention;
  retention.dir = dir.path;
  retention.hot_buckets = -1;  // demote everything sealed
  retention.compact_min_partitions = 0;
  const Timestamp t0 = *MakeTimestamp(2018, 5, 10);
  constexpr int kAgents = 4;
  constexpr int kHours = 4;
  auto created = TieredStore::Create(StorageOptions{}, retention);
  AIQL_RETURN_IF_ERROR(created.status());
  TieredStore& store = **created;
  for (AgentId agent = 1; agent <= kAgents; ++agent) {
    for (int i = 0; i < kHours * 60; ++i) {
      AIQL_RETURN_IF_ERROR(
          store.Append(LiveRecord(agent, t0 + i * kMinute, i)));
    }
  }
  AIQL_RETURN_IF_ERROR(store.Seal());
  AIQL_RETURN_IF_ERROR(store.CompactOnce());
  EXPECT_EQ(store.stats().cold_partitions,
            static_cast<uint64_t>(kAgents * kHours));

  const std::string sweep = "proc p write file f return distinct p";
  {
    // Size the budget from the partitions' actual footprint.
    AiqlEngine engine(&store);
    AIQL_RETURN_IF_ERROR(engine.Execute(sweep).status());
  }
  PartitionCacheStats all = store.cache()->stats();
  EXPECT_EQ(all.resident, static_cast<uint64_t>(kAgents * kHours));
  store.cache()->EraseOwner(&store);
  store.cache()->SetBudget(static_cast<size_t>(
      static_cast<double>(all.charged_bytes) / (kAgents * kHours) *
      budget_partitions));

  ServerOptions options;
  options.max_concurrent_queries = 2;
  options.admission_queue_depth = 0;
  AiqlServer server(&store, nullptr, options);
  AIQL_RETURN_IF_ERROR(server.Start());
  TestClient warm = TestClient::Connect(server.port());
  AIQL_ASSIGN_OR_RETURN(Response warmed,
                        warm.Call(EncodeTextRequest(MsgType::kQuery, sweep)));
  EXPECT_EQ(warmed.type, MsgType::kQueryOk) << warmed.error.ToString();

  AIQL_RETURN_IF_ERROR(
      Failpoint::Configure("retention.reopen=latency(400000)"));
  TestClient slow = TestClient::Connect(server.port());
  AIQL_RETURN_IF_ERROR(
      slow.conn.WriteFrame(EncodeTextRequest(MsgType::kQuery, sweep)));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  TestClient fast = TestClient::Connect(server.port());
  Result<Response> reply = fast.Call(EncodeTextRequest(
      MsgType::kQuery, "(at \"01/01/2010\") proc p write file f return p"));
  Failpoint::ClearAll();
  EXPECT_TRUE(slow.conn.ReadFrame().ok());
  server.Stop();
  return reply;
}

// Admission halves the query cap only while the cold caches' charge exceeds
// their budget. PartitionCache::Insert evicts to fit and uncharges evicted
// entries even while queries still pin them, so the charge exceeds the
// budget only when one partition alone is larger than the whole budget.
TEST_F(ServerTest, AdmissionHalvesCapOnlyWhenOnePartitionExceedsBudget) {
  auto below_one = QueryBesideStalledSweep(0.5);
  ASSERT_TRUE(below_one.ok()) << below_one.status().ToString();
  ASSERT_EQ(below_one->type, MsgType::kError);
  EXPECT_EQ(below_one->error.code(), StatusCode::kResourceExhausted);

  auto quarter = QueryBesideStalledSweep(4);
  ASSERT_TRUE(quarter.ok()) << quarter.status().ToString();
  EXPECT_EQ(quarter->type, MsgType::kQueryOk) << quarter->error.ToString();
}

TEST_F(ServerTest, TortureMalformedFramesNeverKillTheServer) {
  World& world = GetWorld();
  AiqlServer server(world.db.get(), &world.shards);
  ASSERT_TRUE(server.Start().ok());

  {
    // Body-level garbage: error reply, session survives.
    TestClient client = TestClient::Connect(server.port());
    auto garbage = client.Call(std::string("\x02\xff\xff\xff\xff", 5));
    ASSERT_TRUE(garbage.ok());
    EXPECT_EQ(garbage->type, MsgType::kError);
    auto empty = client.Call("");
    ASSERT_TRUE(empty.ok());
    EXPECT_EQ(empty->type, MsgType::kError);
    auto unknown_type = client.Call(std::string(1, '\x3f'));
    ASSERT_TRUE(unknown_type.ok());
    EXPECT_EQ(unknown_type->type, MsgType::kError);
    auto pong = client.Call(EncodeBare(MsgType::kPing));
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong->type, MsgType::kPong);
  }
  {
    // Oversized declaration: clean error reply, then the stream ends.
    TestClient client = TestClient::Connect(server.port());
    ASSERT_TRUE(client.conn.WriteBytes("\xff\xff\xff\x7f", 4).ok());
    auto refusal = client.conn.ReadFrame();
    ASSERT_TRUE(refusal.ok()) << refusal.status().ToString();
    auto decoded = DecodeResponse(*refusal);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->type, MsgType::kError);
    EXPECT_EQ(decoded->error.code(), StatusCode::kInvalidArgument);
  }
  {
    // Truncated prefix then disconnect.
    TestClient client = TestClient::Connect(server.port(), /*hello=*/false);
    ASSERT_TRUE(client.conn.WriteBytes("\x10\x00", 2).ok());
    client.conn.Close();
  }
  {
    // Mid-frame disconnect.
    TestClient client = TestClient::Connect(server.port(), /*hello=*/false);
    ASSERT_TRUE(client.conn.WriteBytes("\x40\x00\x00\x00half", 8).ok());
    client.conn.Close();
  }
  // Give the reaper a moment, then prove the server still serves cleanly.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  TestClient survivor = TestClient::Connect(server.port());
  auto result = survivor.Call(EncodeTextRequest(
      MsgType::kQuery, "proc p read file f return distinct p limit 2"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->type, MsgType::kQueryOk);
  EXPECT_GE(server.stats().frames_rejected, 3u);
  server.Stop();
}

TEST_F(ServerTest, StopCancelsInFlightQueriesAndJoins) {
  World& world = GetWorld();
  AiqlServer server(world.db.get(), &world.shards);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(Failpoint::Configure("shard.scatter=latency(10000000)").ok());
  TestClient client = TestClient::Connect(server.port());
  ASSERT_TRUE(client.conn.WriteFrame(EncodeTextRequest(
      MsgType::kQuery, "proc p read file f return distinct p limit 1"))
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto start = std::chrono::steady_clock::now();
  server.Stop();  // must cancel the 40s worth of injected stalls
  auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_LT(stop_ms, 2000) << "Stop() took " << stop_ms << " ms";
}

}  // namespace
}  // namespace aiql
