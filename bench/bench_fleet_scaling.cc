// Fleet serving scale-out: sessions x replicas x encode-cache sweeps.
//
// Exercises the serve/ subsystem the way a capacity-planning study would:
//   1. session scale-up on a fixed replica pool (contention -> QoE tails),
//   2. replica scale-out under a fixed 64-session load,
//   3. encode-cache size sweep (hit rate vs eviction churn),
//   4. admission sweep under a tight session cap: reject-at-cap
//      (max_wait = 0) vs waiting rooms of growing patience,
//   5. fault sweep: stochastic crash rate x uplink-blackout duty cycle
//      (QoE tails, stall rate, failover count/latency, session failures),
//   6. ThreadPool scaling of the measured-SR fan-out with a bit-identity
//      check across 1/2/4/8 workers (same discipline as bench_micro_kernels),
//   7. simulator throughput (events/s) at 256, 1024, 4096 and 16384
//      sessions on a fixed 32-replica pool, with per-replica load held
//      constant,
//   8. simulator throughput for 1024 sessions on 8, 32, 128 and 512
//      replicas, each uplink provisioned for its share of the load.
// Every run reports QoE p50/p95/p99, stall rate, cache hit rate, bytes
// served, waiting-room p50/p95 wait and peak queue depth (the latter three
// also land in the --json records). VOLUT_BENCH_FLEET_SESSIONS overrides the
// base session count.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "bench/common.h"
#include "src/platform/timer.h"
#include "src/serve/fleet.h"

namespace {

using namespace volut;

std::size_t base_sessions() {
  if (const char* env = std::getenv("VOLUT_BENCH_FLEET_SESSIONS")) {
    const long v = std::atol(env);
    if (v > 0) return std::size_t(v);
  }
  return 64;
}

/// Per-replica uplink capacity provisioned for the BASE load (base_sessions
/// on 2 replicas at ~55% of full-density demand), then held fixed across the
/// sweeps — scaling sessions up strains it, adding replicas relieves it.
double provisioned_mbps() {
  const std::vector<FleetClientConfig> probe = make_mixed_fleet(1, 0.0, 1);
  VideoServer server(probe[0].session.video);
  const double full_mbps = server.chunk_bytes(1.0, 1.0) * 8.0 / 1e6;
  return full_mbps * double(base_sessions()) / 2.0 * 0.55;
}

FleetConfig fleet_config(std::size_t sessions, std::size_t replicas,
                         std::size_t cache_mb) {
  FleetConfig fleet;
  fleet.clients = make_mixed_fleet(sessions, /*arrival_spacing=*/0.25,
                                   /*max_chunks=*/20, /*video_scale=*/0.01);
  const double mean_mbps = provisioned_mbps();
  for (std::size_t r = 0; r < replicas; ++r) {
    fleet.replica_uplinks.push_back(BandwidthTrace::lte(
        mean_mbps, mean_mbps * 0.2, 600.0, 100 + r));
  }
  fleet.rtt_seconds = 0.020;
  fleet.cache_budget_bytes = cache_mb << 20;
  fleet.encode_seconds_full = 0.040;
  return fleet;
}

/// Fleet for the simulator-throughput sweeps: arrivals spread over 64 s and
/// each uplink provisioned at 55% of its share of full-density demand, so
/// per-replica contention stays put as sessions or replicas grow.
FleetConfig scale_config(std::size_t sessions, std::size_t replicas) {
  FleetConfig fleet;
  fleet.clients = make_mixed_fleet(sessions, 64.0 / double(sessions),
                                   /*max_chunks=*/20, /*video_scale=*/0.01);
  const VideoServer server(fleet.clients.front().session.video);
  const double full_mbps = server.chunk_bytes(1.0, 1.0) * 8.0 / 1e6;
  const double mean_mbps =
      full_mbps * double(sessions) / double(replicas) * 0.55;
  for (std::size_t r = 0; r < replicas; ++r) {
    fleet.replica_uplinks.push_back(BandwidthTrace::lte(
        mean_mbps, mean_mbps * 0.2, 600.0, 200 + r));
  }
  fleet.rtt_seconds = 0.020;
  fleet.cache_budget_bytes = std::size_t(64) << 20;
  fleet.encode_seconds_full = 0.040;
  return fleet;
}

void print_result_row(const char* label, const FleetResult& r,
                      double wall_ms) {
  std::printf("%-18s %8.1f %8.1f %8.1f %8.2f%% %7.0f%% %9.1f %9.0f\n", label,
              r.normalized_qoe.p50, r.normalized_qoe.p95,
              r.normalized_qoe.p99, 100.0 * r.stall_rate,
              100.0 * r.cache.hit_rate(), r.total_bytes / 1e6, wall_ms);
}

void record_result(bench::JsonReporter& json, const std::string& sweep,
                   const std::string& label, const FleetResult& r,
                   double wall_ms) {
  const std::string prefix = sweep + "/" + label;
  json.add(prefix + "/qoe_p50", r.normalized_qoe.p50, "qoe");
  json.add(prefix + "/qoe_p95", r.normalized_qoe.p95, "qoe");
  json.add(prefix + "/qoe_p99", r.normalized_qoe.p99, "qoe");
  json.add(prefix + "/stall_rate", r.stall_rate, "fraction");
  json.add(prefix + "/cache_hit_rate", r.cache.hit_rate(), "fraction");
  json.add(prefix + "/total_mb", r.total_bytes / 1e6, "MB");
  json.add(prefix + "/wait_p50", r.wait_time.p50, "s");
  json.add(prefix + "/wait_p95", r.wait_time.p95, "s");
  json.add(prefix + "/queue_depth_peak", double(r.queue_depth_peak), "count");
  json.add(prefix + "/wall_ms", wall_ms, "ms");
  json.add(prefix + "/timeline_events", double(r.timeline_events), "count");
  if (wall_ms > 0.0) {
    json.add(prefix + "/events_per_sec",
             double(r.timeline_events) / (wall_ms / 1000.0), "1/s");
  }
}

/// Runs one simulator-throughput fleet, prints its events/s row under
/// `label` and records it as `<sweep>/<key>/...`.
void throughput_run(bench::JsonReporter& json, const std::string& sweep,
                    const std::string& key, const char* label,
                    const FleetConfig& fleet) {
  Timer timer;
  const FleetResult r = run_fleet(fleet);
  const double wall = timer.elapsed_ms();
  std::printf("%-18s %10llu %9.0f %12.0f\n", label,
              (unsigned long long)r.timeline_events, wall,
              wall > 0.0 ? double(r.timeline_events) / (wall / 1000.0) : 0.0);
  record_result(json, sweep, key, r, wall);
}

void print_throughput_header(const char* title, const char* column) {
  bench::print_header(title);
  std::printf("%-18s %10s %9s %12s\n", column, "events", "wall ms",
              "events/s");
  bench::print_rule();
}

void print_table_header() {
  std::printf("%-18s %8s %8s %8s %9s %8s %9s %9s\n", "config", "QoE p50",
              "QoE p95", "QoE p99", "stall", "cache", "MB", "wall ms");
  bench::print_rule();
}

std::uint64_t fingerprint(const FleetResult& r) {
  // FNV over the deterministic doubles; any cross-thread divergence flips it.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](double v) { h = bench::fnv1a(&v, sizeof(v), h); };
  for (const SessionResult& s : r.sessions) {
    mix(s.qoe);
    mix(s.total_bytes);
    mix(s.stall_seconds);
  }
  for (const FleetSrSample& s : r.sr_samples) mix(s.chamfer);
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsDump obs = bench::ObsDump::from_args(argc, argv);
  bench::JsonReporter json =
      bench::JsonReporter::from_args(argc, argv, "bench_fleet_scaling");
  const std::size_t n = base_sessions();

  bench::print_header("Fleet scaling: sessions on a 2-replica pool");
  print_table_header();
  // Timeline throughput over the session sweep: the tracked "how fast does
  // the fleet simulator turn events" number for bench_compare.
  std::uint64_t sweep_events = 0;
  double sweep_wall_ms = 0.0;
  for (std::size_t sessions : {n / 4, n / 2, n, n * 2}) {
    const FleetConfig fleet = fleet_config(sessions, 2, 64);
    Timer timer;
    const FleetResult r = run_fleet(fleet);
    const double wall = timer.elapsed_ms();
    sweep_events += r.timeline_events;
    sweep_wall_ms += wall;
    char label[64];
    std::snprintf(label, sizeof(label), "%zu sessions", sessions);
    print_result_row(label, r, wall);
    std::snprintf(label, sizeof(label), "%zu_sessions", sessions);
    record_result(json, "sessions", label, r, wall);
  }
  if (sweep_wall_ms > 0.0) {
    const double events_per_sec =
        double(sweep_events) / (sweep_wall_ms / 1000.0);
    std::printf("\ntimeline throughput: %.0f events/s over the session "
                "sweep (%llu events)\n",
                events_per_sec, (unsigned long long)sweep_events);
    json.add("fleet/events_per_sec", events_per_sec, "1/s");
  }

  bench::print_header("Replica scale-out under a fixed session load");
  print_table_header();
  for (std::size_t replicas : {1u, 2u, 4u, 8u}) {
    const FleetConfig fleet = fleet_config(n, replicas, 64);
    Timer timer;
    const FleetResult r = run_fleet(fleet);
    const double wall = timer.elapsed_ms();
    char label[64];
    std::snprintf(label, sizeof(label), "%zu replicas", replicas);
    print_result_row(label, r, wall);
    std::snprintf(label, sizeof(label), "%zu_replicas", replicas);
    record_result(json, "replicas", label, r, wall);
  }

  bench::print_header("Encode-cache size sweep (2 replicas)");
  std::printf("%-18s %8s %8s %10s %10s %10s\n", "budget", "hits", "misses",
              "evictions", "hit rate", "stall");
  bench::print_rule();
  for (std::size_t cache_mb : {1u, 4u, 16u, 64u, 256u}) {
    const FleetConfig fleet = fleet_config(n, 2, cache_mb);
    const FleetResult r = run_fleet(fleet);
    char label[64];
    std::snprintf(label, sizeof(label), "%zu MB", cache_mb);
    std::printf("%-18s %8llu %8llu %10llu %9.0f%% %9.2f%%\n", label,
                (unsigned long long)r.cache.hits,
                (unsigned long long)r.cache.misses,
                (unsigned long long)r.cache.evictions,
                100.0 * r.cache.hit_rate(), 100.0 * r.stall_rate);
    std::snprintf(label, sizeof(label), "cache/%zu_mb", cache_mb);
    json.add(std::string(label) + "/hit_rate", r.cache.hit_rate(),
             "fraction");
    json.add(std::string(label) + "/evictions", double(r.cache.evictions),
             "count");
    json.add(std::string(label) + "/stall_rate", r.stall_rate, "fraction");
  }

  bench::print_header(
      "Admission under a tight session cap: reject vs waiting room");
  std::printf("%-18s %8s %8s %9s %9s %9s %10s %9s\n", "max wait", "admit",
              "reject", "timeout", "wait p50", "wait p95", "depth peak",
              "QoE p50");
  bench::print_rule();
  {
    const double kInfWait = std::numeric_limits<double>::infinity();
    for (double max_wait : {0.0, 0.5, 2.0, kInfWait}) {
      FleetConfig fleet = fleet_config(n, 2, 64);
      fleet.max_sessions_per_replica = std::max<std::size_t>(1, n / 16);
      fleet.max_wait_seconds = max_wait;
      Timer timer;
      const FleetResult r = run_fleet(fleet);
      const double wall = timer.elapsed_ms();
      char label[64];
      if (std::isinf(max_wait)) {
        std::snprintf(label, sizeof(label), "unbounded");
      } else {
        std::snprintf(label, sizeof(label), "%.1f s", max_wait);
      }
      std::printf("%-18s %8zu %8zu %9zu %8.2fs %8.2fs %10zu %9.1f\n", label,
                  r.admitted, r.rejected, r.timed_out, r.wait_time.p50,
                  r.wait_time.p95, r.queue_depth_peak, r.normalized_qoe.p50);
      if (std::isinf(max_wait)) {
        std::snprintf(label, sizeof(label), "wait_unbounded");
      } else {
        std::snprintf(label, sizeof(label), "wait_%.1fs", max_wait);
      }
      record_result(json, "admission", label, r, wall);
      const std::string prefix = std::string("admission/") + label;
      json.add(prefix + "/admitted", double(r.admitted), "count");
      json.add(prefix + "/rejected", double(r.rejected), "count");
      json.add(prefix + "/timed_out", double(r.timed_out), "count");
    }
  }

  bench::print_header(
      "Fault sweep: crash rate x blackout duty cycle (2 replicas)");
  std::printf("%-18s %8s %8s %8s %9s %9s %8s %9s\n", "faults", "QoE p50",
              "QoE p95", "stall", "failovers", "fo p95", "failed",
              "wall ms");
  bench::print_rule();
  for (double crash_rate : {0.0, 2.0, 6.0}) {
    for (double blackout_duty : {0.0, 0.10}) {
      FleetConfig fleet = fleet_config(n, 2, 64);
      fleet.faults.seed = 1234;
      fleet.faults.horizon_seconds = 600.0;
      fleet.faults.crash_rate_per_minute = crash_rate;
      fleet.faults.crash_restart_seconds = 3.0;
      fleet.faults.blackout_seconds = 1.5;
      fleet.faults.blackout_rate_per_minute =
          blackout_duty * 60.0 / fleet.faults.blackout_seconds;
      // Crashed-over sessions may find the survivor loaded: give them a
      // waiting room instead of failing on the spot.
      fleet.max_wait_seconds = 10.0;
      Timer timer;
      const FleetResult r = run_fleet(fleet);
      const double wall = timer.elapsed_ms();
      char label[64];
      std::snprintf(label, sizeof(label), "crash%.0f duty%.0f%%", crash_rate,
                    100.0 * blackout_duty);
      std::printf("%-18s %8.1f %8.1f %7.2f%% %9zu %8.2fs %8zu %9.0f\n",
                  label, r.normalized_qoe.p50, r.normalized_qoe.p95,
                  100.0 * r.stall_rate, r.failovers, r.failover_time.p95,
                  r.failed_sessions, wall);
      std::snprintf(label, sizeof(label), "crash%.0f_duty%.0f", crash_rate,
                    100.0 * blackout_duty);
      const std::string prefix = std::string("faults/") + label;
      json.add(prefix + "/qoe_p50", r.normalized_qoe.p50, "qoe");
      json.add(prefix + "/qoe_p95", r.normalized_qoe.p95, "qoe");
      json.add(prefix + "/stall_rate", r.stall_rate, "fraction");
      json.add(prefix + "/failovers", double(r.failovers), "count");
      json.add(prefix + "/failover_p95", r.failover_time.p95, "s");
      json.add(prefix + "/session_failures", double(r.failed_sessions),
               "count");
      json.add(prefix + "/downloads_aborted", double(r.downloads_aborted),
               "count");
      json.add(prefix + "/encode_retries", double(r.encode_queue.retries),
               "count");
      json.add(prefix + "/wall_ms", wall, "ms");
    }
  }

  print_throughput_header(
      "Simulator throughput: sessions on a fixed 32-replica pool",
      "sessions");
  for (std::size_t sessions : {256u, 1024u, 4096u, 16384u}) {
    const std::string count = std::to_string(sessions);
    throughput_run(json, "scale32", count + "_sessions",
                   (count + " sessions").c_str(), scale_config(sessions, 32));
  }

  print_throughput_header(
      "Simulator throughput: 1024 sessions on a growing replica pool",
      "replicas");
  for (std::size_t replicas : {8u, 32u, 128u, 512u}) {
    const std::string count = std::to_string(replicas);
    throughput_run(json, "replicas1k", count,
                   (count + " replicas").c_str(), scale_config(1024, replicas));
  }

  bench::print_header(
      "Measured-SR fan-out: ThreadPool scaling + bit-identity");
  std::printf("(training refinement LUT for the measured-SR pipeline...)\n");
  const bench::TrainedAssets assets =
      bench::train_assets(bench::bench_scale(0.02), /*bins=*/16);
  std::printf("%-18s %9s %12s %14s\n", "workers", "wall ms", "SR samples",
              "fingerprint");
  bench::print_rule();
  FleetConfig measured = fleet_config(n, 2, 64);
  measured.measure_sr_stride = 4;
  measured.sr_lut = assets.lut;
  std::uint64_t reference = 0;
  bool identical = true;
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(workers);
    Timer timer;
    const FleetResult r = run_fleet(measured, &pool);
    const double wall = timer.elapsed_ms();
    const std::uint64_t fp = fingerprint(r);
    if (workers == 1) reference = fp;
    identical = identical && fp == reference;
    char label[64];
    std::snprintf(label, sizeof(label), "%zu workers", workers);
    std::printf("%-18s %9.1f %12zu %14llx\n", label, wall,
                r.sr_samples.size(), (unsigned long long)fp);
    std::snprintf(label, sizeof(label), "measured_sr/%zu_workers/wall_ms",
                  workers);
    json.add(label, wall, "ms");
  }
  std::printf("\nbit-identical across worker counts: %s\n",
              identical ? "yes" : "NO — DETERMINISM BUG");
  json.add("measured_sr/bit_identical", identical ? 1.0 : 0.0, "bool");
  if (!json.write()) return 1;
  return identical ? 0 : 1;
}
