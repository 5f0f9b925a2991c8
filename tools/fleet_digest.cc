// Fleet behaviour digest: runs the two benchmark fleets (fleet-1k: 1024
// sessions on 32 replicas; fleet-faults: 256 sessions on 8 replicas with
// faults) for seeds 1-5 and prints one FNV-1a line per run. A change that
// must keep fleet behaviour byte-identical prints the same ten lines as its
// parent commit. The ctest entry fleet_digest_golden checks exactly that:
// it compares this binary's output with tools/fleet_digest.expected.
//
// A change that moves fleet behaviour on purpose re-baselines the golden
// from a Release build and says in its commit why the digests moved:
//
//   cmake --build build --target fleet_digest
//   ./build/fleet_digest > tools/fleet_digest.expected
//   git diff tools/fleet_digest.expected   # only the runs you meant to move
//
// Each digest covers the events JSON, every session's qoe, total_bytes and
// stall_seconds, every replica's bits_drained and bytes_completed,
// sim_seconds and bytes_discarded.
#include <cstdint>
#include <cstdio>
#include <string>

#include "src/core/rng.h"
#include "src/serve/fleet.h"
#include "src/stream/server.h"

namespace {

using namespace volut;

struct Workload {
  const char* name;
  std::size_t sessions;
  std::size_t replicas;
  bool faults;
};

// Copied from make_config in bench_e2e/fleet_workload.cc, so the digest runs
// the benchmark's fleets. The one addition is a ring large enough that the
// events JSON holds every event of the run.
FleetConfig make_config(const Workload& w, std::uint64_t seed) {
  constexpr double kArrivalWindowSeconds = 64.0;
  constexpr std::size_t kChunksPerSession = 20;
  constexpr double kVideoScale = 0.01;
  FleetConfig fleet;
  fleet.clients = make_mixed_fleet(
      w.sessions, kArrivalWindowSeconds / double(w.sessions),
      kChunksPerSession, kVideoScale);
  const std::uint64_t content = mix64(seed ^ 0xC0);
  for (FleetClientConfig& client : fleet.clients) {
    client.session.video.seed ^= content;
    client.session.seed ^= content;
  }
  const VideoServer probe(fleet.clients.front().session.video);
  const double full_mbps = probe.chunk_bytes(1.0, 1.0) * 8.0 / 1e6;
  const double mean_mbps =
      full_mbps * double(w.sessions) / double(w.replicas) * 0.55;
  for (std::size_t r = 0; r < w.replicas; ++r) {
    fleet.replica_uplinks.push_back(BandwidthTrace::lte(
        mean_mbps, mean_mbps * 0.2, 600.0, mix64(seed ^ (0x100 + r))));
  }
  fleet.rtt_seconds = 0.020;
  fleet.cache_budget_bytes = std::size_t(64) << 20;
  fleet.encode_seconds_full = 0.040;
  fleet.measure_sr_stride = 0;
  if (w.faults) {
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
  fleet.event_log_capacity = std::size_t(1) << 22;
  return fleet;
}

class Fnv {
 public:
  void add(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ ^= bytes[i];
      h_ *= 1099511628211ull;
    }
  }
  void add(double v) { add(&v, sizeof(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

}  // namespace

int main() {
  const Workload workloads[] = {{"fleet-1k", 1024, 32, false},
                                {"fleet-faults", 256, 8, true}};
  for (const Workload& w : workloads) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const FleetResult r = run_fleet(make_config(w, seed));
      Fnv fnv;
      const std::string events = r.events.to_json();
      fnv.add(events.data(), events.size());
      for (const SessionResult& s : r.sessions) {
        fnv.add(s.qoe);
        fnv.add(s.total_bytes);
        fnv.add(s.stall_seconds);
      }
      for (const ReplicaStats& replica : r.replicas) {
        fnv.add(replica.bits_drained);
        fnv.add(replica.bytes_completed);
      }
      fnv.add(r.sim_seconds);
      fnv.add(r.bytes_discarded);
      std::printf("%s seed=%llu digest=0x%016llx events=%llu dropped=%llu "
                  "completed=%d sim_seconds=%.17g\n",
                  w.name, (unsigned long long)seed,
                  (unsigned long long)fnv.value(),
                  (unsigned long long)r.events.recorded(),
                  (unsigned long long)r.events.dropped(), int(r.completed),
                  r.sim_seconds);
    }
  }
  return 0;
}
