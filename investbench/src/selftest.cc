// Self-tests of the benchmark's own arithmetic: the percentile rule and its
// windowed form, span self time, and fingerprint independence from row
// order. Exits non-zero when any expectation fails.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "arith.h"
#include "trace.h"

namespace investbench {
namespace {

int failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> Range(int n) {
  std::vector<double> out;
  // Descending, so the percentile code must sort.
  for (int i = n; i >= 1; --i) out.push_back(i);
  return out;
}

void TestPercentileRule() {
  // 1000 samples 1..1000: p99 is the 990th value, 10 samples beyond it.
  Percentile p99 = TailPercentile(Range(1000), 0.99);
  Expect(p99.supported && p99.value == 990 && p99.quantile == 0.99,
         "p99 of 1..1000 is 990 with exactly ten samples beyond");
  // 999 samples: nearest rank 990 leaves only 9 beyond, so the rule falls
  // back to the value with ten beyond (989) and says so.
  Percentile short_p99 = TailPercentile(Range(999), 0.99);
  Expect(!short_p99.supported && short_p99.value == 989,
         "p99 of 999 samples falls back to ten beyond");
  Expect(short_p99.quantile < 0.99, "fallback reports its own quantile");
  // p90 of 100 samples: 90, ten beyond.
  Percentile p90 = TailPercentile(Range(100), 0.9);
  Expect(p90.supported && p90.value == 90, "p90 of 1..100 is 90");
  // Median: supported once 21 samples exist.
  Percentile p50 = TailPercentile(Range(21), 0.5);
  Expect(p50.supported && p50.value == 11, "median of 1..21 is 11");
  Percentile tiny = TailPercentile(Range(5), 0.99);
  Expect(!tiny.supported && tiny.value == 3 && tiny.quantile == 0.5,
         "too few samples fall back to the median");
  Percentile none = TailPercentile({}, 0.5);
  Expect(!none.supported && none.samples == 0, "empty sample");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even-size median");
}

void TestWindows() {
  Expect(SamplesNeeded(0.99) == 1001 && SamplesNeeded(0.9) == 101 &&
             SamplesNeeded(0.5) == 21,
         "samples needed for ten beyond");
  // 5000 samples over 5 s, value 1 except a burst of 100 slow samples
  // (value 50) inside the third second: the pooled p99 is the burst, the
  // windowed p99 is the quiet windows' value.
  std::vector<TimedSample> samples;
  std::vector<double> pooled;
  for (int i = 0; i < 5000; ++i) {
    double v = (i >= 2400 && i < 2500) ? 50 : 1;
    samples.push_back({i / 1000.0, v});
    pooled.push_back(v);
  }
  Expect(TailPercentile(pooled, 0.99).value == 50, "pooled p99 is the burst");
  Percentile windowed = WindowedPercentile(samples, 0.99, 10);
  Expect(windowed.supported && windowed.value == 1,
         "windowed p99 outvotes a one-window burst");
  // Too few samples for two windows: same as pooled.
  std::vector<TimedSample> few(samples.begin(), samples.begin() + 1500);
  std::vector<double> few_values(pooled.begin(), pooled.begin() + 1500);
  Expect(WindowedPercentile(few, 0.99, 10).value ==
             TailPercentile(few_values, 0.99).value,
         "one window equals the pooled percentile");
  // Windows follow completion time, not input order.
  std::vector<TimedSample> shuffled = samples;
  std::swap(shuffled[0], shuffled[4999]);
  Expect(WindowedPercentile(shuffled, 0.99, 10).value == 1,
         "windows are cut in completion order");
}

void TestSelfTime() {
  // Parent [0,100); children [10,30) and [20,50) overlap: union 40.
  Expect(SelfTime({0, 100}, {{10, 30}, {20, 50}}) == 60,
         "overlapping children are counted once");
  // A child nested inside another adds nothing.
  Expect(SelfTime({0, 100}, {{10, 60}, {20, 30}}) == 50,
         "nested child adds nothing");
  // Children sticking out of the parent are clipped.
  Expect(SelfTime({10, 20}, {{0, 15}, {18, 40}}) == 3,
         "children are clipped to the parent");
  Expect(SelfTime({0, 10}, {{20, 30}}) == 10, "disjoint child ignored");
  Expect(SelfTime({0, 10}, {}) == 10, "no children");
  Expect(SelfTime({0, 10}, {{0, 10}, {0, 10}}) == 0, "fully covered");

  // Through the span log: request -> {encode, wire}, wire -> {server}.
  SpanLog log(true);
  int32_t root = log.Add("request", 1, 0, 100);
  log.Add("encode", 1, 0, 10, root);
  int32_t wire = log.Add("wire", 1, 10, 90, root);
  log.Add("server", 1, 20, 70, wire);
  std::vector<int64_t> self = SelfTimes(log);
  Expect(self[0] == 10 && self[1] == 10 && self[2] == 30 && self[3] == 50,
         "span log self times");
  SpanLog off(false);
  Expect(off.Begin("x", 1) == -1 && off.spans().empty(),
         "disabled log records nothing");
}

void TestFingerprint() {
  aiql::ResultTable a;
  a.columns = {"p", "n"};
  a.rows = {{std::string("cmd.exe"), int64_t{3}},
            {std::string("sh"), int64_t{1}},
            {std::string("cmd.exe"), int64_t{2}}};
  aiql::ResultTable b = a;
  std::swap(b.rows[0], b.rows[2]);
  std::swap(b.rows[1], b.rows[2]);
  Expect(RowsFingerprint(a) == RowsFingerprint(b),
         "fingerprint ignores row order");
  aiql::ResultTable c = a;
  c.rows[1][1] = int64_t{4};
  Expect(RowsFingerprint(a) != RowsFingerprint(c),
         "fingerprint sees a changed cell");
  aiql::ResultTable d = a;
  d.rows.pop_back();
  Expect(RowsFingerprint(a) != RowsFingerprint(d),
         "fingerprint sees a missing row");
  aiql::ResultTable e = a;
  e.rows.push_back(e.rows[0]);
  Expect(RowsFingerprint(a) != RowsFingerprint(e),
         "fingerprint counts duplicate rows");
  // Cell boundaries matter: {"ab","c"} is not {"a","bc"}.
  aiql::ResultTable f, g;
  f.rows = {{std::string("ab"), std::string("c")}};
  g.rows = {{std::string("a"), std::string("bc")}};
  Expect(RowsFingerprint(f) != RowsFingerprint(g),
         "fingerprint keeps cell boundaries");
  // Row boundaries matter: moving a cell between rows changes it.
  aiql::ResultTable h, k;
  h.rows = {{std::string("a"), std::string("b")},
            {std::string("c"), std::string("d")}};
  k.rows = {{std::string("a"), std::string("c")},
            {std::string("b"), std::string("d")}};
  Expect(RowsFingerprint(h) != RowsFingerprint(k),
         "fingerprint keeps row boundaries");
}

}  // namespace
}  // namespace investbench

int main() {
  investbench::TestPercentileRule();
  investbench::TestWindows();
  investbench::TestSelfTime();
  investbench::TestFingerprint();
  if (investbench::failures != 0) return 1;
  std::fprintf(stderr, "investbench selftest: all checks passed\n");
  return 0;
}
