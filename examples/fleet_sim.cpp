// Fleet serving walkthrough: many concurrent viewers, a small replica pool,
// one shared encode cache.
//
// Runs a mixed fleet (VoLUT H1/H2, YuZu-SR and raw clients cycling the four
// synthetic videos) against capacity-constrained replicas, then prints the
// per-replica load, the encode-cache behavior, and the fleet QoE tail — the
// serving-side view the single-session example (streaming_session) lacks.
//
// With --faults the run also demonstrates the failure-recovery layer:
// replica 0 crashes mid-run, its sessions fail over through re-admission,
// and the walkthrough prints the fault accounting plus one affected
// session's full event timeline (EventLog::session_json).
//
// Usage: ./example_fleet_sim [sessions] [replicas] [--faults]
//                            [--events <path>] [--metrics <path>]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/serve/fleet.h"

namespace {

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace volut;
  bool with_faults = false;
  std::string events_path, metrics_path;
  std::vector<std::size_t> positional;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--faults") == 0) {
      with_faults = true;
    } else if (std::strcmp(argv[a], "--events") == 0 && a + 1 < argc) {
      events_path = argv[++a];
    } else if (std::strcmp(argv[a], "--metrics") == 0 && a + 1 < argc) {
      metrics_path = argv[++a];
    } else {
      positional.push_back(std::size_t(std::atol(argv[a])));
    }
  }
  const std::size_t sessions = !positional.empty() ? positional[0] : 24;
  const std::size_t replicas = positional.size() > 1 ? positional[1] : 2;

  FleetConfig fleet;
  fleet.clients = make_mixed_fleet(sessions, /*arrival_spacing=*/0.5,
                                   /*max_chunks=*/20, /*video_scale=*/0.01);
  // Provision each replica at ~45% of what its share of viewers would need
  // for full density — the constrained regime where ABR, fair-sharing and
  // the encode cache all matter.
  VideoServer probe(fleet.clients[0].session.video);
  const double full_mbps = probe.chunk_bytes(1.0, 1.0) * 8.0 / 1e6;
  const double mean_mbps =
      full_mbps * double(sessions) / double(replicas) * 0.45;
  for (std::size_t r = 0; r < replicas; ++r) {
    fleet.replica_uplinks.push_back(BandwidthTrace::lte(
        mean_mbps, mean_mbps * 0.25, 600.0, 40 + r));
  }
  fleet.rtt_seconds = 0.020;
  // Cap below a fair split so the waiting room sees traffic; queued viewers
  // give up (convert to rejections) after 10 s.
  fleet.max_sessions_per_replica =
      std::max<std::size_t>(1, sessions / (2 * replicas));
  fleet.max_wait_seconds = 10.0;
  fleet.cache_budget_bytes = 32u << 20;
  fleet.shard_cache_per_replica = true;  // one consistent-hash shard/replica
  fleet.encode_seconds_full = 0.040;
  fleet.measure_sr_stride = 5;

  if (with_faults) {
    // Crash replica 0 for 2 s while arrivals are still streaming in: its
    // sessions abort their downloads and fail over (re-admission, waiting
    // room when the survivors are full).
    fleet.faults.crashes = {{/*replica=*/0, /*start=*/3.0, /*seconds=*/2.0}};
    std::printf("faults armed: replica 0 crashes at t=3.0 s for 2.0 s\n\n");
  }

  ThreadPool pool;  // sized from the device profile / VOLUT_THREADS
  const FleetResult result = run_fleet(fleet, &pool);

  std::printf("fleet: %zu sessions over %zu replicas (%zu admitted, %zu "
              "rejected of which %zu timed out), %.1f s simulated\n",
              sessions, replicas, result.admitted, result.rejected,
              result.timed_out, result.sim_seconds);
  std::printf("waiting room: peak depth %zu, wait p50 %.2f s / p95 %.2f s "
              "(max %.2f s)\n",
              result.queue_depth_peak, result.wait_time.p50,
              result.wait_time.p95, result.wait_time.max);

  std::printf("\nper-replica load:\n");
  for (std::size_t r = 0; r < result.replicas.size(); ++r) {
    const ReplicaStats& stats = result.replicas[r];
    std::printf("  replica %zu: %zu sessions, peak %zu concurrent flows, "
                "%.1f MB served%s\n",
                r, stats.sessions_assigned, stats.peak_concurrent_flows,
                stats.bytes_completed / 1e6,
                stats.uplink_trace_wraps > 0 ? " [uplink trace wrapped]" : "");
  }

  std::printf("\nencode cache: %llu hits / %llu misses (%.0f%% hit rate), "
              "%llu evictions\n",
              (unsigned long long)result.cache.hits,
              (unsigned long long)result.cache.misses,
              100.0 * result.cache.hit_rate(),
              (unsigned long long)result.cache.evictions);
  std::printf("single-flight encodes: %llu started, %llu requests coalesced "
              "onto in-flight encodes (peak %zu in flight)\n",
              (unsigned long long)result.encode_queue.encode_starts,
              (unsigned long long)result.encode_queue.coalesced_joins,
              result.encode_queue.peak_in_flight);
  for (std::size_t s = 0; s < result.cache_shards.size(); ++s) {
    const EncodeCacheStats& shard = result.cache_shards[s];
    std::printf("  shard %zu (replica %zu): %llu hits / %llu misses "
                "(%.0f%% hit rate)\n",
                s, s, (unsigned long long)shard.hits,
                (unsigned long long)shard.misses, 100.0 * shard.hit_rate());
  }

  std::printf("\nfleet QoE (normalized 0-100):\n");
  std::printf("  p50 %.1f   p95 %.1f   p99 %.1f   mean %.1f\n",
              result.normalized_qoe.p50, result.normalized_qoe.p95,
              result.normalized_qoe.p99, result.normalized_qoe.mean);
  std::printf("  stall rate %.2f%%, %.1f MB total, %.0f s played\n",
              100.0 * result.stall_rate, result.total_bytes / 1e6,
              result.played_seconds);

  if (!result.sr_samples.empty()) {
    double chamfer = 0.0, ms = 0.0;
    for (const FleetSrSample& s : result.sr_samples) {
      chamfer += s.chamfer;
      ms += s.sr_ms;
    }
    const double inv = 1.0 / double(result.sr_samples.size());
    std::printf("\nmeasured SR on %zu sampled chunks: mean chamfer %.4f, "
                "mean %.1f ms/frame\n",
                result.sr_samples.size(), chamfer * inv, ms * inv);
  }

  std::printf("\nper-system QoE breakdown:\n");
  std::printf("  %-24s %8s %10s %10s\n", "system", "n", "mean QoE", "stalls");
  for (const char* wanted : {"volut-h1-continuous", "volut-h2-discrete",
                             "yuzu-sr-h3", "raw"}) {
    double qoe = 0.0, stalls = 0.0;
    std::size_t count = 0;
    for (const SessionResult& s : result.sessions) {
      if (s.system != wanted) continue;
      qoe += s.normalized_qoe();
      stalls += s.stall_seconds;
      ++count;
    }
    if (count == 0) continue;
    std::printf("  %-24s %8zu %10.1f %9.1fs\n", wanted, count,
                qoe / double(count), stalls);
  }

  if (with_faults) {
    std::printf("\nfault recovery:\n");
    std::printf("  %zu failovers (latency p50 %.2f s / p95 %.2f s), "
                "%zu session failures\n",
                result.failovers, result.failover_time.p50,
                result.failover_time.p95, result.failed_sessions);
    std::printf("  %zu downloads aborted (%.1f MB of partial transfer "
                "discarded)\n",
                result.downloads_aborted, result.bytes_discarded / 1e6);
    for (std::size_t r = 0; r < result.replicas.size(); ++r) {
      if (result.replicas[r].crashes == 0) continue;
      std::printf("  replica %zu: %zu crash(es), down %.1f s\n", r,
                  result.replicas[r].crashes,
                  result.replicas[r].down_seconds);
    }

    // The per-session view an on-call engineer would pull up: the full
    // timeline of the first session that had to fail over.
    std::uint32_t victim = kNoSession;
    for (const FleetEvent& event : result.events.events()) {
      if (event.type == FleetEventType::kFailoverStart) {
        victim = event.session;
        break;
      }
    }
    if (victim != kNoSession) {
      std::printf("\nfailover timeline of session %u "
                  "(EventLog::session_json):\n%s\n",
                  victim, result.events.session_json(victim).c_str());
    }
  }

  if (!events_path.empty() &&
      !write_text_file(events_path, result.events.to_json())) {
    return 1;
  }
  if (!metrics_path.empty() &&
      !MetricsRegistry::global().write_json(metrics_path)) {
    return 1;
  }
  return 0;
}
