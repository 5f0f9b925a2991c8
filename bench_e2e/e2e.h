// Shared pieces of the end-to-end benchmark binary (bench_e2e.cc): run
// options, the metric record every workload fills, and small helpers.
#pragma once

#include <sys/resource.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/platform/thread_pool.h"

namespace volut::e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured time budget of one run, split across its timed phases.
  double seconds = 10.0;
  /// false: untraced run, end-to-end metrics. true: traced run, per-layer
  /// metrics (and a Chrome trace when trace_json is set).
  bool trace = false;
  std::string trace_json;
  /// Scratch directory for generated inputs (the LUT .npy file).
  std::string workdir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `attempted`/`failed` count operations
/// (client requests or run_fleet calls); any failure makes the run fail.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Fleet workloads: make_mixed_fleet sessions on LTE replica uplinks,
/// optionally with a fault schedule.
struct FleetSpec {
  std::size_t sessions = 0;
  std::size_t replicas = 0;
  bool faults = false;
};

/// Client workloads: Dress frames served at `density` of full density and
/// super-resolved back to full density on `pool`.
Outcome run_client(const Options& options, float density, ThreadPool& pool);
Outcome run_fleet_workload(const Options& options, const FleetSpec& spec);

/// Minor page faults taken by this process so far. Per-operation deltas show
/// allocator churn: memory the allocator hands back to the kernel and then
/// faults in again, which sits in the client's unattributed time.
inline double minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_minflt);
}

/// FNV-1a over `bytes`, folded eight bytes at a time (the outputs hashed per
/// request are megabytes; a byte-wise loop would dominate the check).
inline std::uint64_t fnv1a_words(const void* data, std::size_t bytes,
                                 std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 1099511628211ull;
  }
  for (; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

}  // namespace volut::e2e
