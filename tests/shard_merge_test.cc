// Unit tests for the scatter/gather merge layer (engine/shard_merge.h) and
// the shard map (storage/shard_map.h): top-k heap merge behaviour at the
// LIMIT boundary, DISTINCT re-deduplication across shards, degenerate shard
// counts, per-shard error propagation, and agent-range bookkeeping.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "engine/shard_merge.h"
#include "storage/shard_map.h"

namespace aiql {
namespace {

Value I(int64_t v) { return Value{v}; }
Value S(std::string v) { return Value{std::move(v)}; }

QueryResult MakeResult(std::vector<std::string> columns,
                       std::vector<std::vector<Value>> rows) {
  QueryResult result;
  result.table.columns = std::move(columns);
  result.table.rows = std::move(rows);
  return result;
}

std::vector<std::string> Column(const QueryResult& result, size_t col) {
  std::vector<std::string> values;
  for (const auto& row : result.table.rows) {
    values.push_back(ValueToString(row[col]));
  }
  return values;
}

// ---------------------------------------------------------------------------
// ordered top-k merge

TEST(ShardMergeTest, TopKMergeWithDuplicateKeysAtLimitBoundary) {
  // Keys across shards: 1,3,3,5 | 2,3,4 | 3,6. Globally sorted:
  // 1,2,3,3,3,3,4,5,6. LIMIT 5 cuts through the run of equal 3s — the merge
  // must emit exactly five rows with key sequence 1,2,3,3,3 and break ties
  // by (shard, row) for determinism.
  std::vector<Result<QueryResult>> shards;
  shards.push_back(MakeResult({"k", "tag"}, {{I(1), S("s0r0")},
                                             {I(3), S("s0r1")},
                                             {I(3), S("s0r2")},
                                             {I(5), S("s0r3")}}));
  shards.push_back(MakeResult(
      {"k", "tag"}, {{I(2), S("s1r0")}, {I(3), S("s1r1")}, {I(4), S("s1r2")}}));
  shards.push_back(MakeResult({"k", "tag"}, {{I(3), S("s2r0")},
                                             {I(6), S("s2r1")}}));

  ShardMergeSpec spec;
  spec.order_keys = {{0, false}};
  spec.limit = 5;
  auto merged = MergeShardResults(std::move(shards), spec);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(Column(*merged, 0),
            (std::vector<std::string>{"1", "2", "3", "3", "3"}));
  // Equal keys pop lowest (shard, row) first.
  EXPECT_EQ(Column(*merged, 1),
            (std::vector<std::string>{"s0r0", "s1r0", "s0r1", "s0r2", "s1r1"}));
}

TEST(ShardMergeTest, DescendingMergeAndUnlimited) {
  std::vector<Result<QueryResult>> shards;
  shards.push_back(MakeResult({"k"}, {{I(9)}, {I(4)}, {I(1)}}));
  shards.push_back(MakeResult({"k"}, {{I(8)}, {I(3)}}));

  ShardMergeSpec spec;
  spec.order_keys = {{0, true}};
  auto merged = MergeShardResults(std::move(shards), spec);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(Column(*merged, 0),
            (std::vector<std::string>{"9", "8", "4", "3", "1"}));
}

TEST(ShardMergeTest, MixedTypeKeysCompareLikeOrderResultRows) {
  // Numeric columns mixing int64 and double compare numerically, exactly as
  // the single-db ORDER BY does.
  std::vector<Result<QueryResult>> shards;
  shards.push_back(MakeResult({"k"}, {{Value{1.5}}, {I(3)}}));
  shards.push_back(MakeResult({"k"}, {{I(1)}, {Value{2.5}}}));

  ShardMergeSpec spec;
  spec.order_keys = {{0, false}};
  auto merged = MergeShardResults(std::move(shards), spec);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(Column(*merged, 0),
            (std::vector<std::string>{"1", "1.5", "2.5", "3"}));
}

TEST(ShardMergeTest, SecondaryKeyBreaksPrimaryTies) {
  std::vector<Result<QueryResult>> shards;
  shards.push_back(
      MakeResult({"a", "b"}, {{I(1), S("z")}, {I(2), S("a")}}));
  shards.push_back(
      MakeResult({"a", "b"}, {{I(1), S("m")}, {I(2), S("b")}}));

  ShardMergeSpec spec;
  spec.order_keys = {{0, false}, {1, false}};
  auto merged = MergeShardResults(std::move(shards), spec);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(Column(*merged, 1),
            (std::vector<std::string>{"m", "z", "a", "b"}));
}

// ---------------------------------------------------------------------------
// DISTINCT re-dedup

TEST(ShardMergeTest, DistinctRededupsRowsAppearingOnTwoShards) {
  // Per-shard results are already distinct; the same projected row appears
  // on two shards and must survive exactly once after the merge.
  std::vector<Result<QueryResult>> shards;
  shards.push_back(MakeResult({"exe"}, {{S("cmd.exe")}, {S("sh")}}));
  shards.push_back(MakeResult({"exe"}, {{S("sh")}, {S("httpd")}}));
  shards.push_back(MakeResult({"exe"}, {{S("cmd.exe")}}));

  ShardMergeSpec spec;
  spec.distinct = true;
  auto merged = MergeShardResults(std::move(shards), spec);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(Column(*merged, 0),
            (std::vector<std::string>{"cmd.exe", "sh", "httpd"}));
}

TEST(ShardMergeTest, DistinctDoesNotConflateEqualRenderingsOfDifferentTypes) {
  // The row key is type-tagged: string "7" and integer 7 render identically
  // but are distinct rows.
  std::vector<Result<QueryResult>> shards;
  shards.push_back(MakeResult({"v"}, {{S("7")}}));
  shards.push_back(MakeResult({"v"}, {{I(7)}}));

  ShardMergeSpec spec;
  spec.distinct = true;
  auto merged = MergeShardResults(std::move(shards), spec);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->table.num_rows(), 2u);
}

TEST(ShardMergeTest, DistinctOrderedLimitedTogether) {
  std::vector<Result<QueryResult>> shards;
  shards.push_back(MakeResult({"k"}, {{I(1)}, {I(2)}, {I(4)}}));
  shards.push_back(MakeResult({"k"}, {{I(1)}, {I(3)}, {I(4)}}));

  ShardMergeSpec spec;
  spec.distinct = true;
  spec.order_keys = {{0, false}};
  spec.limit = 3;
  auto merged = MergeShardResults(std::move(shards), spec);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(Column(*merged, 0), (std::vector<std::string>{"1", "2", "3"}));
}

// ---------------------------------------------------------------------------
// degenerate shapes

TEST(ShardMergeTest, EmptyShardListYieldsEmptyResult) {
  auto merged = MergeShardResults({}, ShardMergeSpec{});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->table.num_rows(), 0u);
  EXPECT_EQ(merged->table.num_columns(), 0u);
}

TEST(ShardMergeTest, AllShardsEmptyPreservesColumns) {
  std::vector<Result<QueryResult>> shards;
  shards.push_back(MakeResult({"a", "b"}, {}));
  shards.push_back(MakeResult({"a", "b"}, {}));

  ShardMergeSpec spec;
  spec.order_keys = {{0, false}};
  auto merged = MergeShardResults(std::move(shards), spec);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->table.columns, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(merged->table.num_rows(), 0u);
}

TEST(ShardMergeTest, SingleShardPassesThrough) {
  QueryResult input = MakeResult({"k"}, {{I(2)}, {I(1)}, {I(2)}});
  input.stats.events_scanned = 17;
  std::vector<Result<QueryResult>> shards;
  shards.push_back(input);

  // Unordered, no distinct, no limit: rows come back verbatim.
  auto merged = MergeShardResults(std::move(shards), ShardMergeSpec{});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->table, input.table);
  EXPECT_EQ(merged->stats.events_scanned, 17u);
}

TEST(ShardMergeTest, EmptyShardAmongPopulatedShardsIsHarmless) {
  std::vector<Result<QueryResult>> shards;
  shards.push_back(MakeResult({"k"}, {{I(2)}}));
  shards.push_back(MakeResult({"k"}, {}));
  shards.push_back(MakeResult({"k"}, {{I(1)}}));

  ShardMergeSpec spec;
  spec.order_keys = {{0, false}};
  auto merged = MergeShardResults(std::move(shards), spec);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(Column(*merged, 0), (std::vector<std::string>{"1", "2"}));
}

// ---------------------------------------------------------------------------
// error propagation

TEST(ShardMergeTest, AggregateErrorNamesEveryFailedShard) {
  std::vector<Result<QueryResult>> shards;
  shards.push_back(MakeResult({"k"}, {{I(1)}}));
  shards.push_back(Result<QueryResult>(Status::IOError("shard 1 exploded")));
  shards.push_back(
      Result<QueryResult>(Status::Internal("shard 2 also exploded")));

  auto merged = MergeShardResults(std::move(shards), ShardMergeSpec{});
  ASSERT_FALSE(merged.ok());
  // Code comes from the lowest failed shard; the message names each failed
  // shard with its index and cause — no silent first-error-only collapse.
  EXPECT_EQ(merged.status().code(), StatusCode::kIOError);
  EXPECT_NE(merged.status().message().find("2 of 3 shard(s) failed"),
            std::string::npos);
  EXPECT_NE(merged.status().message().find("shard 1: IOError: shard 1 "
                                           "exploded"),
            std::string::npos);
  EXPECT_NE(merged.status().message().find("shard 2: Internal: shard 2 also "
                                           "exploded"),
            std::string::npos);
}

TEST(ShardMergeTest, SingleFailedShardStillNamesItsIndex) {
  std::vector<Result<QueryResult>> shards;
  shards.push_back(MakeResult({"k"}, {{I(1)}}));
  shards.push_back(
      Result<QueryResult>(Status::Unavailable("gone after retries")));

  auto merged = MergeShardResults(std::move(shards), ShardMergeSpec{});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(merged.status().message().find("1 of 2 shard(s) failed"),
            std::string::npos);
  EXPECT_NE(merged.status().message().find("shard 1: Unavailable: gone "
                                           "after retries"),
            std::string::npos);
}

TEST(ShardMergeTest, TransientShardErrorClassification) {
  EXPECT_TRUE(IsTransientShardError(StatusCode::kIOError));
  EXPECT_TRUE(IsTransientShardError(StatusCode::kCorruption));
  EXPECT_TRUE(IsTransientShardError(StatusCode::kUnavailable));
  EXPECT_FALSE(IsTransientShardError(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsTransientShardError(StatusCode::kDeadlineExceeded));
  EXPECT_FALSE(IsTransientShardError(StatusCode::kCancelled));
  EXPECT_FALSE(IsTransientShardError(StatusCode::kResourceExhausted));
  EXPECT_FALSE(IsTransientShardError(StatusCode::kInternal));
}

TEST(ShardMergeTest, ColumnMismatchIsInternalError) {
  std::vector<Result<QueryResult>> shards;
  shards.push_back(MakeResult({"a"}, {{I(1)}}));
  shards.push_back(MakeResult({"b"}, {{I(2)}}));

  auto merged = MergeShardResults(std::move(shards), ShardMergeSpec{});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInternal);
}

TEST(ShardMergeTest, StatsAreSummedAcrossShards) {
  QueryResult a = MakeResult({"k"}, {{I(1)}});
  a.stats.events_scanned = 10;
  a.stats.events_matched = 4;
  a.stats.partitions_scanned = 2;
  a.stats.join_candidates = 3;
  a.stats.threads_used = 2;
  a.stats.patterns = 1;
  QueryResult b = MakeResult({"k"}, {{I(2)}});
  b.stats.events_scanned = 5;
  b.stats.events_matched = 1;
  b.stats.partitions_scanned = 7;
  b.stats.join_candidates = 2;
  b.stats.threads_used = 8;
  b.stats.patterns = 1;

  std::vector<Result<QueryResult>> shards;
  shards.push_back(std::move(a));
  shards.push_back(std::move(b));
  auto merged = MergeShardResults(std::move(shards), ShardMergeSpec{});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->stats.events_scanned, 15u);
  EXPECT_EQ(merged->stats.events_matched, 5u);
  EXPECT_EQ(merged->stats.partitions_scanned, 9u);
  EXPECT_EQ(merged->stats.join_candidates, 5u);
  EXPECT_EQ(merged->stats.threads_used, 8);
  EXPECT_EQ(merged->stats.patterns, 1);
}

// ---------------------------------------------------------------------------
// shard map bookkeeping

TEST(ShardMapTest, EvenAgentRangesCoverAndBalance) {
  auto two = EvenAgentRanges(2, 1, 8);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].begin, 1u);
  EXPECT_EQ(two[0].end, 5u);
  EXPECT_EQ(two[1].begin, 5u);
  EXPECT_EQ(two[1].end, 9u);

  // 10 agents over 3 shards: remainder goes to the leading ranges.
  auto three = EvenAgentRanges(3, 1, 10);
  ASSERT_EQ(three.size(), 3u);
  EXPECT_EQ(three[0].end - three[0].begin, 4u);
  EXPECT_EQ(three[1].end - three[1].begin, 3u);
  EXPECT_EQ(three[2].end - three[2].begin, 3u);
  EXPECT_EQ(three[0].begin, 1u);
  EXPECT_EQ(three[2].end, 11u);
  EXPECT_EQ(three[0].end, three[1].begin);
  EXPECT_EQ(three[1].end, three[2].begin);
}

TEST(ShardMapTest, RouteRecordsByAgentPartitionsAndRejectsUnowned) {
  std::vector<EventRecord> records(3);
  records[0].agent_id = 1;
  records[1].agent_id = 6;
  records[2].agent_id = 2;
  auto ranges = EvenAgentRanges(2, 1, 8);

  auto routed = RouteRecordsByAgent(ranges, records);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  ASSERT_EQ(routed->size(), 2u);
  EXPECT_EQ((*routed)[0].size(), 2u);
  EXPECT_EQ((*routed)[1].size(), 1u);
  EXPECT_EQ((*routed)[1][0].agent_id, 6u);

  records[1].agent_id = 42;  // outside every range
  auto bad = RouteRecordsByAgent(ranges, records);
  EXPECT_FALSE(bad.ok());
}

TEST(ShardMapTest, AddShardValidatesRanges) {
  AuditDatabase a{StorageOptions{}};
  AuditDatabase b{StorageOptions{}};
  ShardMap map;
  ASSERT_TRUE(map.AddShard(&a, ShardRange{1, 5}).ok());
  // Overlapping range rejected.
  EXPECT_FALSE(map.AddShard(&b, ShardRange{4, 9}).ok());
  // Empty range rejected.
  EXPECT_FALSE(map.AddShard(&b, ShardRange{7, 7}).ok());
  // Null shard rejected.
  EXPECT_FALSE(
      map.AddShard(static_cast<const AuditDatabase*>(nullptr), ShardRange{5, 9})
          .ok());
  // Disjoint range accepted; lookups route correctly.
  ASSERT_TRUE(map.AddShard(&b, ShardRange{5, 9}).ok());
  EXPECT_EQ(map.num_shards(), 2u);
  EXPECT_EQ(map.ShardForAgent(3), 0);
  EXPECT_EQ(map.ShardForAgent(5), 1);
  EXPECT_EQ(map.ShardForAgent(9), -1);
  EXPECT_EQ(map.source(0), &a);
  EXPECT_STREQ(map.source(0)->kind(), "database");
}

}  // namespace
}  // namespace aiql
