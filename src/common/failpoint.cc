#include "common/failpoint.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "common/cancellation.h"
#include "common/string_utils.h"

namespace aiql {

std::atomic<int> Failpoint::active_count_{0};
std::atomic<bool> Failpoint::env_checked_{false};

namespace {

struct ArmedPoint {
  FailpointSpec spec;
  uint64_t hits = 0;  ///< hits observed while armed (guarded by registry mu)
};

struct Registry {
  std::mutex mu;
  std::map<std::string, ArmedPoint> points;
  bool env_loaded = false;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // leaked: outlives all users
  return *registry;
}

/// splitmix64: deterministic per-hit trigger decision for @p specs.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool Triggers(const FailpointSpec& spec, uint64_t hit_index) {
  if (spec.nth != 0) return hit_index == spec.nth;
  if (spec.probability >= 1.0) return true;
  if (spec.probability <= 0.0) return false;
  uint64_t h = Mix64(hit_index ^ Mix64(spec.seed));
  double unit = static_cast<double>(h >> 11) / static_cast<double>(1ULL << 53);
  return unit < spec.probability;
}

/// The injected error names the site and, when it has one, the hit's arg
/// (a shard index, a partition key), so a run that fails several hits at
/// once tells which one surfaced.
Status MakeInjectedError(const char* name, StatusCode code, int64_t arg) {
  std::string msg = "injected by failpoint '" + std::string(name) + "'";
  if (arg >= 0) msg += " (arg " + std::to_string(arg) + ")";
  return Status(code, std::move(msg));
}

Result<StatusCode> ParseCodeName(const std::string& name) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnavailable); ++c) {
    if (name == StatusCodeToString(static_cast<StatusCode>(c))) {
      return static_cast<StatusCode>(c);
    }
  }
  return Status::InvalidArgument("unknown status code '" + name + "'");
}

/// Parses one `name=action[@mod...]` entry into (name, spec).
Status ParseEntry(const std::string& entry, std::string* name,
                  FailpointSpec* spec) {
  size_t eq = entry.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument("failpoint entry '" + entry +
                                   "' missing name=action");
  }
  *name = entry.substr(0, eq);
  std::string rest = entry.substr(eq + 1);
  // Split off @modifiers.
  std::vector<std::string> mods;
  size_t at;
  while ((at = rest.rfind('@')) != std::string::npos) {
    mods.push_back(rest.substr(at + 1));
    rest = rest.substr(0, at);
  }
  if (rest.rfind("error(", 0) == 0 && rest.back() == ')') {
    spec->action = FailpointAction::kReturnError;
    AIQL_ASSIGN_OR_RETURN(spec->code,
                          ParseCodeName(rest.substr(6, rest.size() - 7)));
  } else if (rest.rfind("latency(", 0) == 0 && rest.back() == ')') {
    spec->action = FailpointAction::kInjectLatency;
    // Strict parse: `latency(abc)` must fail loudly, not arm a 0us sleep —
    // a typo'd AIQL_FAILPOINTS would otherwise run with no injection.
    auto us = ParseUint64(rest.substr(8, rest.size() - 9));
    if (!us.ok()) {
      return Status::InvalidArgument("failpoint entry '" + entry +
                                     "' has a bad latency: " +
                                     us.status().message());
    }
    spec->latency_us = *us;
  } else if (rest == "corrupt") {
    spec->action = FailpointAction::kCorruptRead;
  } else {
    return Status::InvalidArgument("failpoint entry '" + entry +
                                   "' has unknown action '" + rest + "'");
  }
  for (const std::string& mod : mods) {
    // Numeric modifier payloads are parsed strictly: every digit must be
    // consumed and the value must be in range, so `@arg1x` or `@nth` with
    // a saturating count is a configuration error, not a silent no-op.
    auto bad_mod = [&](const Status& why) {
      return Status::InvalidArgument("failpoint entry '" + entry +
                                     "' has a bad modifier '@" + mod +
                                     "': " + why.message());
    };
    if (mod.rfind("arg", 0) == 0) {
      auto arg = ParseInt64(mod.substr(3));
      if (!arg.ok()) return bad_mod(arg.status());
      if (*arg < 0) {
        return bad_mod(Status::InvalidArgument("arg filter must be >= 0"));
      }
      spec->arg_filter = *arg;
    } else if (mod.rfind("p", 0) == 0 && mod.size() > 1 &&
               (std::isdigit(static_cast<unsigned char>(mod[1])) ||
                mod[1] == '.')) {
      auto probability = ParseDouble(mod.substr(1));
      if (!probability.ok()) return bad_mod(probability.status());
      if (*probability < 0.0 || *probability > 1.0) {
        return bad_mod(
            Status::InvalidArgument("probability must be in [0, 1]"));
      }
      spec->probability = *probability;
    } else if (mod.rfind("nth", 0) == 0) {
      auto nth = ParseUint64(mod.substr(3));
      if (!nth.ok()) return bad_mod(nth.status());
      if (*nth == 0) {
        return bad_mod(Status::InvalidArgument("hit counts are 1-based"));
      }
      spec->nth = *nth;
    } else if (mod == "once") {
      spec->once = true;
    } else if (mod.rfind("seed", 0) == 0) {
      auto seed = ParseUint64(mod.substr(4));
      if (!seed.ok()) return bad_mod(seed.status());
      spec->seed = *seed;
    } else {
      return Status::InvalidArgument("failpoint entry '" + entry +
                                     "' has unknown modifier '@" + mod + "'");
    }
  }
  return Status::OK();
}

/// Looks up `name`, advances its hit counter, and decides the action.
/// Returns false when nothing triggers. `*erased` reports a consumed @once
/// point — the caller owns the active-count decrement.
bool Resolve(const char* name, int64_t arg, FailpointSpec* out,
             bool* erased) {
  *erased = false;
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.points.find(name);
  if (it == registry.points.end()) return false;
  ArmedPoint& point = it->second;
  if (point.spec.arg_filter >= 0 && arg != point.spec.arg_filter) {
    return false;  // filtered hits do not consume the counter
  }
  uint64_t hit_index = ++point.hits;
  if (!Triggers(point.spec, hit_index)) return false;
  *out = point.spec;
  if (point.spec.once) {
    registry.points.erase(it);
    *erased = true;
  }
  return true;
}

}  // namespace

void Failpoint::Set(const std::string& name, const FailpointSpec& spec) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto [it, inserted] = registry.points.insert_or_assign(
      name, ArmedPoint{spec, /*hits=*/0});
  (void)it;
  if (inserted) active_count_.fetch_add(1, std::memory_order_relaxed);
}

void Failpoint::Clear(const std::string& name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  if (registry.points.erase(name) != 0) {
    active_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Failpoint::ClearAll() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  active_count_.fetch_sub(static_cast<int>(registry.points.size()),
                          std::memory_order_relaxed);
  registry.points.clear();
}

Status Failpoint::Configure(const std::string& spec_string) {
  size_t start = 0;
  while (start < spec_string.size()) {
    size_t end = spec_string.find(';', start);
    if (end == std::string::npos) end = spec_string.size();
    std::string entry = spec_string.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;
    std::string name;
    FailpointSpec spec;
    AIQL_RETURN_IF_ERROR(ParseEntry(entry, &name, &spec));
    Set(name, spec);
  }
  return Status::OK();
}

uint64_t Failpoint::HitCount(const std::string& name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.points.find(name);
  return it == registry.points.end() ? 0 : it->second.hits;
}

std::vector<std::string> Failpoint::ActiveNames() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<std::string> names;
  names.reserve(registry.points.size());
  for (const auto& [name, point] : registry.points) names.push_back(name);
  return names;
}

void Failpoint::InitFromEnv() {
  Registry& registry = GetRegistry();
  {
    std::lock_guard<std::mutex> lock(registry.mu);
    if (registry.env_loaded) {
      env_checked_.store(true, std::memory_order_release);
      return;
    }
    registry.env_loaded = true;
  }
  const char* env = std::getenv("AIQL_FAILPOINTS");
  if (env != nullptr && env[0] != '\0') {
    Status configured = Configure(env);
    if (!configured.ok()) {
      std::fprintf(stderr, "AIQL_FAILPOINTS ignored: %s\n",
                   configured.ToString().c_str());
    }
  }
  env_checked_.store(true, std::memory_order_release);
}

Status Failpoint::Hit(const char* name, int64_t arg) {
  if (!AnyActive()) return Status::OK();
  FailpointSpec spec;
  bool erased = false;
  bool triggered = Resolve(name, arg, &spec, &erased);
  if (erased) active_count_.fetch_sub(1, std::memory_order_relaxed);
  if (!triggered) return Status::OK();
  switch (spec.action) {
    case FailpointAction::kReturnError:
      return MakeInjectedError(name, spec.code, arg);
    case FailpointAction::kInjectLatency:
      InterruptibleSleep(std::chrono::microseconds(spec.latency_us));
      return Status::OK();
    case FailpointAction::kCorruptRead:
      // No buffer at this site; treat as a read error so the injection is
      // still visible rather than silently dropped.
      return MakeInjectedError(name, StatusCode::kCorruption, arg);
  }
  return Status::OK();
}

Status Failpoint::HitBuffer(const char* name, char* buffer, size_t size,
                            int64_t arg) {
  if (!AnyActive()) return Status::OK();
  FailpointSpec spec;
  bool erased = false;
  bool triggered = Resolve(name, arg, &spec, &erased);
  if (erased) active_count_.fetch_sub(1, std::memory_order_relaxed);
  if (!triggered) return Status::OK();
  switch (spec.action) {
    case FailpointAction::kReturnError:
      return MakeInjectedError(name, spec.code, arg);
    case FailpointAction::kInjectLatency:
      InterruptibleSleep(std::chrono::microseconds(spec.latency_us));
      return Status::OK();
    case FailpointAction::kCorruptRead:
      if (size != 0 && buffer != nullptr) {
        buffer[size / 2] ^= 0x40;  // flip one bit mid-buffer
      }
      return Status::OK();
  }
  return Status::OK();
}

}  // namespace aiql
