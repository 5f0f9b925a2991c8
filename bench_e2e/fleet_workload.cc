// Fleet workloads: run_fleet called back to back on one seeded FleetConfig.
// Each call is one operation; it fails when it throws, when the timeline
// stops before every admitted session finished, or when its result differs
// from the first call's (the simulator is deterministic).
#include <algorithm>
#include <cstdio>
#include <exception>
#include <vector>

#include "bench_e2e/e2e.h"
#include "src/core/rng.h"
#include "src/metrics/stats.h"
#include "src/net/shared_link.h"
#include "src/obs/trace.h"
#include "src/platform/timer.h"
#include "src/serve/fleet.h"
#include "src/stream/server.h"
#include "src/stream/session.h"

namespace volut::e2e {
namespace {

/// Arrivals are spread over this window whatever the session count, so the
/// session count sets how many sessions overlap.
constexpr double kArrivalWindowSeconds = 64.0;
constexpr std::size_t kChunksPerSession = 20;
constexpr double kVideoScale = 0.01;
constexpr std::size_t kSetupRounds = 8;
constexpr std::size_t kSetupRepeats = 16;

FleetConfig make_config(const FleetSpec& spec, std::uint64_t seed) {
  FleetConfig fleet;
  fleet.clients = make_mixed_fleet(
      spec.sessions, kArrivalWindowSeconds / double(spec.sessions),
      kChunksPerSession, kVideoScale);
  // Clients of one video keep sharing content (the cache depends on it):
  // every video seed moves by the same run seed.
  const std::uint64_t content = mix64(seed ^ 0xC0);
  for (FleetClientConfig& client : fleet.clients) {
    client.session.video.seed ^= content;
    client.session.seed ^= content;
  }
  // Each replica's uplink carries its share of the sessions at 55% of their
  // full-density demand.
  const VideoServer probe(fleet.clients.front().session.video);
  const double full_mbps = probe.chunk_bytes(1.0, 1.0) * 8.0 / 1e6;
  const double mean_mbps = full_mbps * double(spec.sessions) /
                           double(spec.replicas) * 0.55;
  for (std::size_t r = 0; r < spec.replicas; ++r) {
    fleet.replica_uplinks.push_back(BandwidthTrace::lte(
        mean_mbps, mean_mbps * 0.2, 600.0, mix64(seed ^ (0x100 + r))));
  }
  fleet.rtt_seconds = 0.020;
  fleet.cache_budget_bytes = std::size_t(64) << 20;
  fleet.encode_seconds_full = 0.040;
  fleet.measure_sr_stride = 0;
  if (spec.faults) {
    FaultScheduleConfig& f = fleet.faults;
    f.seed = mix64(seed ^ 0xFA);
    f.horizon_seconds = 600.0;
    f.crash_rate_per_minute = 2.0;
    f.crash_restart_seconds = 3.0;
    f.blackout_rate_per_minute = 4.0;
    f.blackout_seconds = 1.5;
    f.brownout_rate_per_minute = 1.0;
    f.degrade_rate_per_minute = 0.5;
    f.encode_failure_rate = 0.05;
    fleet.max_wait_seconds = 10.0;
    fleet.max_sessions_per_replica = 40;
  }
  return fleet;
}

/// FNV over the deterministic outcome of a run; any divergence between
/// repetitions flips it.
std::uint64_t fingerprint(const FleetResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](double v) { h = fnv1a_words(&v, sizeof(v), h); };
  for (const SessionResult& s : r.sessions) {
    mix(s.qoe);
    mix(s.total_bytes);
    mix(s.stall_seconds);
  }
  mix(double(r.timeline_events));
  mix(double(r.failovers));
  mix(double(r.cache.hits));
  return h;
}

struct LoopStats {
  std::vector<double> run_ms;
  double wall_ms = 0.0;
  double events = 0.0;
};

class FleetRun {
 public:
  FleetRun(const Options& options, const FleetSpec& spec)
      : options_(options), spec_(spec) {}

  Outcome run() {
    config_ = make_config(spec_, options_.seed);
    if (options_.trace) return traced();
    // Set-up is timed in rounds spread over the whole run: one construction
    // takes under 3 ms, and a shared 4-vCPU VM changed speed by up to 40% for
    // seconds at a time, so back-to-back samples all land in one phase.
    std::vector<double> setup_s;
    LoopStats loop;
    const Timer clock;
    for (std::size_t round = 1; round <= kSetupRounds; ++round) {
      for (std::size_t i = 0; i < kSetupRepeats; ++i) {
        Timer timer;
        config_ = make_config(spec_, options_.seed);
        setup_s.push_back(timer.elapsed_ms() / 1000.0);
      }
      timed_loop(loop, clock,
                 options_.seconds * double(round) / double(kSetupRounds));
    }
    Outcome out = std::move(outcome_);
    out.add("latency_ms_p50", percentile(loop.run_ms, 50.0), "ms");
    out.add("throughput_per_s", loop.events / (loop.wall_ms / 1000.0), "1/s");
    out.add("setup_s", percentile(setup_s, 50.0), "s");
    std::printf("runs %zu, events/run %.0f\n", loop.run_ms.size(),
                loop.events / double(std::max<std::size_t>(
                                  1, loop.run_ms.size())));
    return out;
  }

 private:
  /// Calls run_fleet back to back, appending to `s`, until `clock` reads
  /// `until_s` seconds (at least once).
  void timed_loop(LoopStats& s, const Timer& clock, double until_s) {
    do {
      ++outcome_.attempted;
      FleetResult r;
      double wall = 0.0;
      try {
        TraceSpan span("bench/run_fleet");
        r = run_fleet(config_);
        wall = span.stop_ms();
      } catch (const std::exception& e) {
        ++outcome_.failed;
        std::fprintf(stderr, "fleet: run_fleet threw: %s\n", e.what());
        continue;
      }
      const std::uint64_t fp = fingerprint(r);
      if (!have_reference_) {
        reference_ = fp;
        have_reference_ = true;
      }
      if (!r.completed || fp != reference_) {
        ++outcome_.failed;
        std::fprintf(stderr, "fleet: run %llu %s\n",
                     (unsigned long long)outcome_.attempted,
                     r.completed ? "diverged from the first run"
                                 : "did not complete");
        continue;
      }
      s.run_ms.push_back(wall);
      s.wall_ms += wall;
      s.events += double(r.timeline_events);
      last_ = std::move(r);
    } while (clock.elapsed_ms() < until_s * 1000.0);
  }

  /// Per-layer run: untraced repetitions for the event-loop cost, traced
  /// ones for the Chrome trace and the tracing overhead, outcome counts
  /// from the (deterministic) result, and isolated probes of the link and
  /// ABR calls the event loop makes per event and per chunk.
  Outcome traced() {
    LoopStats loop;
    LoopStats traced_loop;
    const double faults0 = minor_faults();
    timed_loop(loop, Timer(), options_.seconds * 0.4);
    const double faults = minor_faults() - faults0;
    TraceCollector::global().start();
    timed_loop(traced_loop, Timer(), options_.seconds * 0.4);
    const double net_budget_ms = options_.seconds * 1000.0 * 0.1;
    const LinkProbe link = probe_link(net_budget_ms);
    const double plan_us = probe_plan_chunk(net_budget_ms);
    TraceCollector::global().stop();
    if (!options_.trace_json.empty()) {
      TraceCollector::global().write_json(options_.trace_json);
    }

    const FleetResult& r = last_;
    Outcome out = std::move(outcome_);
    out.add("obs.trace_overhead_pct",
            100.0 * (percentile(traced_loop.run_ms, 50.0) /
                         percentile(loop.run_ms, 50.0) -
                     1.0),
            "%");
    out.add("platform.page_faults_per_op",
            faults / double(std::max<std::size_t>(1, loop.run_ms.size())),
            "count");
    out.add("serve.us_per_event", 1000.0 * loop.wall_ms / loop.events, "us");
    out.add("serve.events_per_session",
            double(r.timeline_events) / double(spec_.sessions), "count");
    out.add("serve.cache_hit_rate", r.cache.hit_rate(), "fraction");
    out.add("serve.coalesced_join_rate",
            r.cache.misses > 0 ? double(r.encode_queue.coalesced_joins) /
                                     double(r.cache.misses)
                               : 0.0,
            "fraction");
    out.add("serve.encode_retries", double(r.encode_queue.retries), "count");
    out.add("serve.failovers", double(r.failovers), "count");
    out.add("serve.downloads_aborted", double(r.downloads_aborted), "count");
    out.add("serve.wait_p95_s", r.wait_time.p95, "s");
    out.add("serve.queue_depth_peak", double(r.queue_depth_peak), "count");
    out.add("net.peak_flows_per_replica", double(link.flows), "count");
    out.add("net.next_completion_us", link.next_completion_us, "us");
    out.add("net.advance_us", link.advance_us, "us");
    out.add("abr.plan_chunk_us", plan_us, "us");
    return out;
  }

  struct LinkProbe {
    std::size_t flows = 0;
    double next_completion_us = 0.0;
    double advance_us = 0.0;
  };

  /// A SharedLink on the workload's first uplink trace, held at the fleet's
  /// peak per-replica flow count: each step asks for the next completion,
  /// advances to it, and starts a replacement flow.
  LinkProbe probe_link(double budget_ms) const {
    LinkProbe probe;
    for (const ReplicaStats& replica : last_.replicas) {
      probe.flows = std::max(probe.flows, replica.peak_concurrent_flows);
    }
    SharedLink link(config_.replica_uplinks.front());
    const VideoServer server(config_.clients.front().session.video);
    const double chunk_bytes = server.chunk_bytes(0.5, 1.0);
    for (std::size_t i = 0; i < std::max<std::size_t>(1, probe.flows); ++i) {
      link.start_flow(chunk_bytes * (1.0 + 0.01 * double(i)));
    }
    TraceSpan span("bench/net.shared_link");
    double now = 0.0;
    double next_us = 0.0;
    double advance_us = 0.0;
    std::size_t steps = 0;
    Timer budget;
    while (budget.elapsed_ms() < budget_ms) {
      Timer next_timer;
      const double t = link.next_completion_time(now);
      next_us += next_timer.elapsed_us();
      Timer advance_timer;
      const std::size_t done = link.advance(now, t).size();
      advance_us += advance_timer.elapsed_us();
      for (std::size_t i = 0; i < done; ++i) link.start_flow(chunk_bytes);
      now = t;
      ++steps;
    }
    const double n = double(std::max<std::size_t>(1, steps));
    probe.next_completion_us = next_us / n;
    probe.advance_us = advance_us / n;
    return probe;
  }

  /// SessionEngine::plan_chunk + complete_chunk per chunk for the fleet's
  /// first client (a VoLUT session), restarting the session when it ends.
  double probe_plan_chunk(double budget_ms) const {
    const SessionConfig& session = config_.clients.front().session;
    TraceSpan span("bench/abr.plan_chunk");
    double total_us = 0.0;
    std::size_t chunks = 0;
    Timer budget;
    while (budget.elapsed_ms() < budget_ms) {
      SessionEngine engine(session);
      double now = 0.0;
      while (!engine.done()) {
        Timer timer;
        const ChunkPlan plan = engine.plan_chunk(now, 40.0);
        now = engine.complete_chunk(plan, now, now + 0.5);
        total_us += timer.elapsed_us();
        ++chunks;
      }
    }
    return total_us / double(std::max<std::size_t>(1, chunks));
  }

  const Options& options_;
  const FleetSpec& spec_;
  FleetConfig config_;
  FleetResult last_;
  std::uint64_t reference_ = 0;
  bool have_reference_ = false;
  Outcome outcome_;
};

}  // namespace

Outcome run_fleet_workload(const Options& options, const FleetSpec& spec) {
  return FleetRun(options, spec).run();
}

}  // namespace volut::e2e
