// The benchmark's own arithmetic: tail percentiles under the ten-sample
// rule, order-independent result fingerprints, and span self time. Pure
// functions, covered by selftest.cc.

#ifndef INVESTBENCH_ARITH_H_
#define INVESTBENCH_ARITH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/result.h"

namespace investbench {

/// A percentile read off a sample, with the rank it actually reports.
struct Percentile {
  double value = 0;
  /// The quantile reported: the one asked for when at least ten samples
  /// lie beyond it, otherwise the highest quantile that still has ten
  /// samples beyond it (the median when even that does not exist).
  double quantile = 0;
  bool supported = false;  ///< the asked-for quantile was reported
  size_t samples = 0;
};

/// Nearest-rank `q`-quantile of `samples`, following the rule that at least
/// ten samples lie beyond a reported tail percentile. The median (q = 0.5)
/// is supported from 21 samples on.
inline Percentile TailPercentile(std::vector<double> samples, double q) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  size_t index = rank - 1;
  out.quantile = q;
  out.supported = n - 1 - index >= 10;
  if (!out.supported) {
    if (n >= 21) {
      index = n - 11;  // exactly ten samples beyond
      out.quantile = static_cast<double>(index + 1) / static_cast<double>(n);
    } else {
      index = (n - 1) / 2;
      out.quantile = 0.5;
    }
  }
  out.value = samples[index];
  return out;
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

/// One latency sample and when (seconds into the phase) it completed.
struct TimedSample {
  double at_s = 0;
  double value = 0;
};

/// The smallest sample size at which quantile `q` has ten samples beyond
/// its nearest rank.
inline size_t SamplesNeeded(double q) {
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9)) + 1;
}

/// Quantile `q` read per window, then the median across windows: the
/// samples, in completion order, are cut into as many consecutive windows
/// of equal size (at most `max_windows`) as still leave every window
/// enough samples for the ten-sample rule. A burst of interference that
/// fills one window then moves the result by one window's vote instead of
/// dominating a pooled tail. With too few samples for two windows, or with
/// `max_windows` = 1, this is the pooled TailPercentile.
inline Percentile WindowedPercentile(std::vector<TimedSample> samples,
                                     double q, size_t max_windows) {
  std::stable_sort(samples.begin(), samples.end(),
                   [](const TimedSample& a, const TimedSample& b) {
                     return a.at_s < b.at_s;
                   });
  const size_t n = samples.size();
  size_t windows = std::clamp<size_t>(n / SamplesNeeded(q), 1, max_windows);
  std::vector<double> per_window;
  Percentile out;
  out.supported = true;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> values;
    for (size_t i = w * n / windows; i < (w + 1) * n / windows; ++i) {
      values.push_back(samples[i].value);
    }
    Percentile p = TailPercentile(std::move(values), q);
    out.supported = out.supported && p.supported;
    out.quantile = p.quantile;
    per_window.push_back(p.value);
  }
  out.samples = n;
  out.value = Median(std::move(per_window));
  if (n == 0) out.supported = false;
  return out;
}

/// FNV-1a over `bytes`, continuing from `hash`.
inline uint64_t Fnv1a(const std::string& bytes,
                      uint64_t hash = 1469598103934665603ull) {
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Order-independent fingerprint of a result table: every row rendered
/// with unit separators, the rendered rows sorted, then chain-hashed with a
/// row terminator. Two tables get the same fingerprint exactly when they
/// hold the same multiset of rows (up to hash collisions) — row order,
/// which sealed partitions and shard merges may permute among ties, does
/// not matter; cell and row boundaries do.
inline uint64_t RowsFingerprint(const aiql::ResultTable& table) {
  std::vector<std::string> rendered;
  rendered.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    std::string r;
    for (const auto& cell : row) {
      r += aiql::ValueToString(cell);
      r += '\x1f';
    }
    rendered.push_back(std::move(r));
  }
  std::sort(rendered.begin(), rendered.end());
  uint64_t hash = Fnv1a(std::to_string(table.columns.size()));
  for (const std::string& r : rendered) {
    hash = Fnv1a(r, hash);
    hash ^= 0x9e3779b97f4a7c15ull;
    hash *= 1099511628211ull;
  }
  return hash;
}

/// A closed time interval in nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// Self time of `parent`: its duration minus the part of it that the union
/// of `children` covers. Children may overlap each other (parallel work)
/// and may stick out of the parent; only the covered part inside the
/// parent is subtracted, and each instant once.
inline int64_t SelfTime(Interval parent, std::vector<Interval> children) {
  int64_t total = std::max<int64_t>(0, parent.end - parent.start);
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t covered = 0;
  int64_t cursor = parent.start;  // everything before cursor is accounted
  for (const Interval& child : children) {
    int64_t s = std::max(child.start, cursor);
    int64_t e = std::min(child.end, parent.end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return total - covered;
}

}  // namespace investbench

#endif  // INVESTBENCH_ARITH_H_
