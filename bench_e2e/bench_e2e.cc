// End-to-end benchmark binary: runs one named workload in this process and
// prints its result as the last line of stdout.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-json t.json] [--json out.json] [--workdir dir]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// a separate run that reports the per-layer budget (and writes a Chrome
// trace to --trace-json). The last line is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and --json writes the same record plus run facts ("meta") to a file.
// The exit code is nonzero when any operation failed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_e2e/e2e.h"
#include "src/core/rng.h"
#include "src/metrics/stats.h"
#include "src/obs/trace.h"
#include "src/platform/timer.h"
#include "src/spatial/knn_simd.h"

namespace volut::e2e {
namespace {

struct Workload {
  const char* name;
  bool client;
  float density;  // client workloads
  FleetSpec fleet;
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const Workload kWorkloads[] = {
    {"client-x2", true, 0.5f, {}},
    {"client-x4", true, 0.25f, {}},
    {"client-full", true, 1.0f, {}},
    {"fleet-1k", false, 0.0f, {.sessions = 1024, .replicas = 32}},
    {"fleet-faults", false, 0.0f,
     {.sessions = 256, .replicas = 8, .faults = true}},
};

struct MetricName {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every untraced run reports exactly these. A client
/// operation is one frame (request wall / frames in the request), a fleet
/// operation one run_fleet call; throughput is frames/s or simulated
/// timeline events/s.
const MetricName kEndToEnd[] = {
    {"latency_ms_p50", "ms"},
    {"throughput_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics: every traced run reports exactly these, 0 for a layer
/// its workload does not exercise (a fleet run does no kNN).
const MetricName kPerLayer[] = {
    {"client.frame_ms_p50", "ms"},
    {"client.frame_ms_p90", "ms"},
    {"stream.parse_ms", "ms"},
    {"stream.chunk_decode_ms", "ms"},
    {"codec.decode_ms", "ms"},
    {"sr.knn_ms", "ms"},
    {"sr.interpolate_ms", "ms"},
    {"sr.colorize_ms", "ms"},
    {"sr.refine_ms", "ms"},
    {"client.unattributed_ms", "ms"},
    {"spatial.octree_build_ms", "ms"},
    {"spatial.octree_query_ms", "ms"},
    {"spatial.points_scanned_per_query", "count"},
    {"spatial.heap_pushes_per_query", "count"},
    {"stream.wire_bytes_per_frame", "bytes"},
    {"sr.input_points", "count"},
    {"sr.output_points", "count"},
    {"platform.page_faults_per_op", "count"},
    {"platform.pool_speedup", "ratio"},
    {"obs.trace_overhead_pct", "%"},
    {"serve.us_per_event", "us"},
    {"serve.events_per_session", "count"},
    {"serve.cache_hit_rate", "fraction"},
    {"serve.coalesced_join_rate", "fraction"},
    {"serve.encode_retries", "count"},
    {"serve.failovers", "count"},
    {"serve.downloads_aborted", "count"},
    {"serve.wait_p95_s", "s"},
    {"serve.queue_depth_peak", "count"},
    {"net.peak_flows_per_replica", "count"},
    {"net.next_completion_us", "us"},
    {"net.advance_us", "us"},
    {"abr.plan_chunk_us", "us"},
};

/// Host-drift canary: a fixed single-thread integer loop, median of three.
/// Two sets of runs of one commit whose canaries differ by more than 10%
/// ran on a host that changed speed in between (agree.py flags them).
double host_ref_ms() {
  std::vector<double> times;
  // The volatile store keeps the loop from being folded away.
  [[maybe_unused]] volatile std::uint64_t sink = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Timer timer;
    std::uint64_t x = 0x9E3779B97F4A7C15ull + std::uint64_t(rep);
    for (std::uint64_t i = 0; i < 8'000'000; ++i) x = mix64(x + i);
    sink = x;
    times.push_back(timer.elapsed_ms());
  }
  return percentile(times, 50.0);
}

std::size_t cpu_count() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Orders the workload's metrics as `names` lists them, filling a missing
/// name with 0. A value that is not finite, or a name the list does not
/// hold, is a bug in this benchmark and fails the run.
std::vector<Metric> select(const std::vector<Metric>& got,
                           std::span<const MetricName> names, bool zero_fill,
                           bool& ok) {
  std::vector<Metric> out;
  for (const MetricName& want : names) {
    const auto it = std::find_if(got.begin(), got.end(), [&](const Metric& m) {
      return m.name == want.name;
    });
    if (it == got.end() && !zero_fill) {
      std::fprintf(stderr, "bench_e2e: metric %s missing\n", want.name);
      ok = false;
    }
    Metric m{want.name, it == got.end() ? 0.0 : it->value, want.unit};
    if (it != got.end() && it->unit != want.unit) {
      std::fprintf(stderr, "bench_e2e: metric %s has unit %s\n", want.name,
                   it->unit.c_str());
      ok = false;
    }
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "bench_e2e: metric %s is not finite\n", want.name);
      m.value = 0.0;
      ok = false;
    }
    out.push_back(std::move(m));
  }
  for (const Metric& m : got) {
    if (std::none_of(names.begin(), names.end(), [&](const MetricName& n) {
          return m.name == n.name;
        })) {
      std::fprintf(stderr, "bench_e2e: unlisted metric %s\n", m.name.c_str());
      ok = false;
    }
  }
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}";
  return os.str();
}

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-json path] "
               "[--json path] [--workdir dir]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  Options options;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage("every flag takes a value");
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::string_view(value) == "1";
    } else if (arg == "--trace-json") {
      options.trace_json = value;
    } else if (arg == "--json") {
      json_path = value;
    } else if (arg == "--workdir") {
      options.workdir = value;
    } else {
      return usage("unknown flag");
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage("unknown workload");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  const double ref_before = host_ref_ms();
  const std::size_t nproc = cpu_count();
  // nproc - 1 workers plus the calling thread, which helps drain the pool
  // while it waits: at most nproc threads do work.
  ThreadPool pool(std::max<std::size_t>(1, nproc - 1));
  Outcome outcome = workload->client
                        ? run_client(options, workload->density, pool)
                        : run_fleet_workload(options, workload->fleet);
  const double ref_after = host_ref_ms();

  bool ok = outcome.attempted > 0 && outcome.failed == 0;
  std::vector<Metric> metrics;
  if (options.trace) {
    metrics = select(outcome.metrics, kPerLayer, /*zero_fill=*/true, ok);
  } else {
    outcome.add("peak_rss_mb", peak_rss_mb(), "MB");
    metrics = select(outcome.metrics, kEndToEnd, /*zero_fill=*/false, ok);
  }

  std::ostringstream meta;
  meta << "{\"workload\": \"" << workload->name << "\", \"seed\": "
       << options.seed << ", \"seconds\": " << number(options.seconds)
       << ", \"trace\": " << (options.trace ? 1 : 0)
       << ", \"nproc\": " << nproc
       << ", \"pool_workers\": " << pool.worker_count()
       << ", \"simd\": \"" << simd_level_name(simd_active_level())
       << "\", \"build_type\": \"" << VOLUT_E2E_BUILD_TYPE
       << "\", \"volut_obs\": " << VOLUT_OBS_ENABLED
       << ", \"host_ref_ms\": [" << number(ref_before) << ", "
       << number(ref_after) << "]}";
  std::ostringstream result;
  result << "{\"correct\": " << (ok ? "true" : "false")
         << ", \"attempted\": " << outcome.attempted
         << ", \"failed\": " << outcome.failed
         << ", \"metrics\": " << metrics_json(metrics) << "}";

  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("meta %s\n", meta.str().c_str());
  if (!json_path.empty()) {
    std::string record = result.str();
    record.insert(1, "\"meta\": " + meta.str() + ", ");
    std::ofstream out(json_path);
    out << record << "\n";
    if (!out) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace volut::e2e

int main(int argc, char** argv) {
  try {
    return volut::e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
