// Spans recorded by the benchmark around its own calls into each layer.
// Each thread appends to its own SpanLog (no locking); logs are merged and
// written out once the run ends.

#ifndef INVESTBENCH_TRACE_H_
#define INVESTBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "arith.h"

namespace investbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index into the same log, -1 for a root
  uint64_t request = 0;
};

/// One thread's spans. Disabled logs record nothing and cost one branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (-1 when disabled).
  int32_t Begin(const char* name, uint64_t request, int32_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }
  /// Records a finished span with known bounds.
  int32_t Add(const char* name, uint64_t request, int64_t start_ns,
              int64_t end_ns, int32_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Self time of every span in `log`, indexed like the log.
inline std::vector<int64_t> SelfTimes(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].push_back(
          Interval{span.start_ns, span.end_ns});
    }
  }
  std::vector<int64_t> out(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    out[i] = SelfTime(Interval{spans[i].start_ns, spans[i].end_ns},
                      std::move(children[i]));
  }
  return out;
}

/// Writes `logs` as JSON lines (one span per line, with its self time).
/// Returns false when the file cannot be written.
inline bool WriteSpans(const std::string& path,
                       const std::vector<const SpanLog*>& logs) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t t = 0; t < logs.size(); ++t) {
    std::vector<int64_t> self = SelfTimes(*logs[t]);
    const std::vector<Span>& spans = logs[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(out,
                   "{\"thread\":%zu,\"id\":%zu,\"name\":\"%s\",\"request\":"
                   "%llu,\"parent\":%d,\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"self_ns\":%lld}\n",
                   t, i, spans[i].name,
                   static_cast<unsigned long long>(spans[i].request),
                   spans[i].parent, static_cast<long long>(spans[i].start_ns),
                   static_cast<long long>(spans[i].end_ns),
                   static_cast<long long>(self[i]));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace investbench

#endif  // INVESTBENCH_TRACE_H_
