// Integration sweep for the fleet simulator: a 64-session, 2-replica run
// with single-flight encode queues, per-replica cache shards, the admission
// waiting room and measured SR enabled, checked for bit-identical results
// across 1/2/4/8 pool workers (the acceptance bar for the serve/ subsystem),
// plus four ~128-session timelines pinned by digest. Labeled "integration"
// in ctest.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/serve/fleet.h"
#include "src/stream/server.h"

namespace volut {
namespace {

FleetConfig sweep_config() {
  FleetConfig fleet;
  fleet.clients = make_mixed_fleet(/*n=*/64, /*arrival_spacing=*/0.25,
                                   /*max_chunks=*/15, /*video_scale=*/0.01);
  fleet.replica_uplinks = {BandwidthTrace::lte(120.0, 25.0, 600.0, 21),
                           BandwidthTrace::lte(120.0, 25.0, 600.0, 22)};
  fleet.rtt_seconds = 0.020;
  // Tight enough that late arrivals queue in the waiting room; the infinite
  // patience means everyone is eventually admitted, so the QoE rollups still
  // cover all 64 sessions.
  fleet.max_sessions_per_replica = 4;
  fleet.max_wait_seconds = std::numeric_limits<double>::infinity();
  fleet.cache_budget_bytes = 64u << 20;
  fleet.shard_cache_per_replica = true;
  fleet.encode_seconds_full = 0.040;
  fleet.measure_sr_stride = 5;
  return fleet;
}

TEST(FleetSweepTest, SixtyFourSessionsTwoReplicas) {
  const FleetConfig fleet = sweep_config();
  const FleetResult result = run_fleet(fleet);

  EXPECT_EQ(result.admitted, 64u);
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_EQ(result.qoe.count, 64u);
  // Rollups are populated and ordered.
  EXPECT_LE(result.qoe.p50, result.qoe.p99 + 1e-9);
  EXPECT_LE(result.normalized_qoe.p95, 100.0 + 1e-9);
  EXPECT_GE(result.stall_rate, 0.0);
  EXPECT_LE(result.stall_rate, 1.0);
  EXPECT_GT(result.total_bytes, 0.0);
  EXPECT_GT(result.played_seconds, 0.0);
  // Shared content across viewers must produce real cache reuse.
  EXPECT_GT(result.cache.hits, 0u);
  EXPECT_GT(result.cache.hit_rate(), 0.1);
  // The tight session cap pushed arrivals through the waiting room.
  EXPECT_GT(result.queue_depth_peak, 0u);
  EXPECT_GT(result.wait_time.max, 0.0);
  EXPECT_EQ(result.wait_time.count, 64u);
  EXPECT_EQ(result.timed_out, 0u);
  // Per-replica cache shards: one per replica, aggregating to the totals.
  ASSERT_EQ(result.cache_shards.size(), 2u);
  EXPECT_EQ(result.cache_shards[0].hits + result.cache_shards[1].hits,
            result.cache.hits);
  EXPECT_EQ(result.cache_shards[0].misses + result.cache_shards[1].misses,
            result.cache.misses);
  // Single-flight bookkeeping: every miss either started an encode or
  // coalesced onto one, and every started encode completed.
  EXPECT_EQ(result.encode_queue.encode_starts +
                result.encode_queue.coalesced_joins,
            result.cache.misses);
  EXPECT_EQ(result.encode_queue.completions,
            result.encode_queue.encode_starts);
  // Both replicas carried sessions and bytes.
  EXPECT_GT(result.replicas[0].sessions_assigned, 0u);
  EXPECT_GT(result.replicas[1].sessions_assigned, 0u);
  EXPECT_GT(result.replicas[0].bytes_completed, 0.0);
  EXPECT_GT(result.replicas[1].bytes_completed, 0.0);
  EXPECT_FALSE(result.sr_samples.empty());
}

TEST(FleetSweepTest, ZeroMaxWaitReproducesRejectAtCapAdmissionCounts) {
  // Admission counts pinned against the pre-waiting-room fleet (verified by
  // temporarily reverting this PR): encodes are free, so the timeline is
  // identical and max_wait_seconds = 0 must reproduce reject-at-cap exactly.
  FleetConfig fleet;
  fleet.clients = make_mixed_fleet(/*n=*/24, /*arrival_spacing=*/0.25,
                                   /*max_chunks=*/8, /*video_scale=*/0.01);
  fleet.replica_uplinks = {BandwidthTrace::stable(15.0, 600.0),
                           BandwidthTrace::stable(15.0, 600.0)};
  fleet.rtt_seconds = 0.020;
  fleet.max_sessions_per_replica = 6;
  fleet.encode_seconds_full = 0.0;
  ASSERT_EQ(fleet.max_wait_seconds, 0.0);  // the default: reject at cap
  const FleetResult rejecting = run_fleet(fleet);
  EXPECT_EQ(rejecting.admitted, 14u);
  EXPECT_EQ(rejecting.rejected, 10u);
  EXPECT_EQ(rejecting.timed_out, 0u);
  EXPECT_EQ(rejecting.queue_depth_peak, 0u);
  EXPECT_EQ(rejecting.replicas[0].sessions_assigned, 7u);
  EXPECT_EQ(rejecting.replicas[1].sessions_assigned, 7u);

  // The same overload with an unbounded waiting room loses nobody.
  FleetConfig queued = fleet;
  queued.max_wait_seconds = std::numeric_limits<double>::infinity();
  const FleetResult waiting = run_fleet(queued);
  EXPECT_EQ(waiting.admitted, 24u);
  EXPECT_EQ(waiting.rejected, 0u);
  EXPECT_GT(waiting.queue_depth_peak, 0u);
  EXPECT_TRUE(waiting.completed);
}

TEST(FleetSweepTest, BitIdenticalAcrossPoolWorkerCounts) {
  const FleetConfig fleet = sweep_config();
  ThreadPool pool1(1);
  const FleetResult reference = run_fleet(fleet, &pool1);
  for (std::size_t workers : {2u, 4u, 8u}) {
    ThreadPool pool(workers);
    const FleetResult run = run_fleet(fleet, &pool);
    ASSERT_EQ(run.sessions.size(), reference.sessions.size());
    for (std::size_t i = 0; i < run.sessions.size(); ++i) {
      EXPECT_DOUBLE_EQ(run.sessions[i].qoe, reference.sessions[i].qoe)
          << "session " << i << " @ " << workers << " workers";
      EXPECT_DOUBLE_EQ(run.sessions[i].total_bytes,
                       reference.sessions[i].total_bytes);
      EXPECT_DOUBLE_EQ(run.sessions[i].stall_seconds,
                       reference.sessions[i].stall_seconds);
    }
    EXPECT_DOUBLE_EQ(run.qoe.p50, reference.qoe.p50);
    EXPECT_DOUBLE_EQ(run.qoe.p95, reference.qoe.p95);
    EXPECT_DOUBLE_EQ(run.qoe.p99, reference.qoe.p99);
    EXPECT_DOUBLE_EQ(run.stall_rate, reference.stall_rate);
    EXPECT_EQ(run.cache.hits, reference.cache.hits);
    EXPECT_EQ(run.cache.evictions, reference.cache.evictions);
    EXPECT_EQ(run.encode_queue.coalesced_joins,
              reference.encode_queue.coalesced_joins);
    ASSERT_EQ(run.wait_seconds.size(), reference.wait_seconds.size());
    for (std::size_t i = 0; i < run.wait_seconds.size(); ++i) {
      EXPECT_DOUBLE_EQ(run.wait_seconds[i], reference.wait_seconds[i]);
    }
    EXPECT_EQ(run.queue_depth_peak, reference.queue_depth_peak);
    ASSERT_EQ(run.sr_samples.size(), reference.sr_samples.size());
    for (std::size_t i = 0; i < run.sr_samples.size(); ++i) {
      EXPECT_DOUBLE_EQ(run.sr_samples[i].chamfer,
                       reference.sr_samples[i].chamfer)
          << "sample " << i << " @ " << workers << " workers";
    }
    // The sim-time event timeline (per-type totals AND retained events) is
    // part of the bit-identity contract: the timeline is single-threaded,
    // so worker count must not change a single record.
    EXPECT_EQ(run.timeline_events, reference.timeline_events);
    EXPECT_TRUE(run.events == reference.events)
        << "event timeline diverged @ " << workers << " workers";
  }
}

TEST(FleetFaultSweepTest, ArmedScheduleBitIdenticalAcrossPoolWorkerCounts) {
  // The fault acceptance bar: with crashes, blackouts, a degradation window
  // and stochastic encode failures all armed, the run — recovery cascades
  // included — stays bit-identical for any worker count. Faults live on the
  // single-threaded timeline; the pool still only fans out SR measurement.
  FleetConfig fleet = sweep_config();
  fleet.faults.seed = 0xBADF00Du;
  fleet.faults.crashes = {{0, 3.0, 2.0}, {1, 9.0, 1.0}};
  fleet.faults.blackouts = {{1, 5.0, 1.5}};
  fleet.faults.brownouts = {{0, 12.0, 4.0}};
  fleet.faults.degradations = {{1, 14.0, 6.0}};
  fleet.faults.encode_failure_rate = 0.15;
  fleet.recovery.encode_backoff_base_seconds = 0.1;
  fleet.recovery.degrade_density_when_degraded = true;

  ThreadPool pool1(1);
  const FleetResult reference = run_fleet(fleet, &pool1);
  EXPECT_TRUE(reference.completed);
  EXPECT_GT(reference.failovers, 0u);
  EXPECT_GT(reference.encode_queue.retries, 0u);
  for (std::size_t workers : {2u, 4u, 8u}) {
    ThreadPool pool(workers);
    const FleetResult run = run_fleet(fleet, &pool);
    EXPECT_EQ(run.failovers, reference.failovers);
    EXPECT_EQ(run.failed_sessions, reference.failed_sessions);
    EXPECT_EQ(run.downloads_aborted, reference.downloads_aborted);
    EXPECT_DOUBLE_EQ(run.bytes_discarded, reference.bytes_discarded);
    EXPECT_EQ(run.degraded_chunks, reference.degraded_chunks);
    EXPECT_DOUBLE_EQ(run.failover_time.p95, reference.failover_time.p95);
    EXPECT_EQ(run.encode_queue.failures, reference.encode_queue.failures);
    EXPECT_EQ(run.encode_queue.retries, reference.encode_queue.retries);
    EXPECT_EQ(run.encode_queue.exhausted, reference.encode_queue.exhausted);
    ASSERT_EQ(run.sessions.size(), reference.sessions.size());
    for (std::size_t i = 0; i < run.sessions.size(); ++i) {
      EXPECT_DOUBLE_EQ(run.sessions[i].qoe, reference.sessions[i].qoe)
          << "session " << i << " @ " << workers << " workers";
      EXPECT_DOUBLE_EQ(run.sessions[i].stall_seconds,
                       reference.sessions[i].stall_seconds);
    }
    for (std::size_t r = 0; r < run.replicas.size(); ++r) {
      EXPECT_EQ(run.replicas[r].crashes, reference.replicas[r].crashes);
      EXPECT_DOUBLE_EQ(run.replicas[r].down_seconds,
                       reference.replicas[r].down_seconds);
      EXPECT_DOUBLE_EQ(run.replicas[r].degraded_seconds,
                       reference.replicas[r].degraded_seconds);
    }
    EXPECT_EQ(run.timeline_events, reference.timeline_events);
    EXPECT_TRUE(run.events == reference.events)
        << "fault timeline diverged @ " << workers << " workers";
  }
}

// ~128-session fleets on 4 replicas, each pinned by the FNV-1a digest of its
// whole event timeline, its end time and the bits of its drain accounting.
// The constants were re-captured once when each uplink came to be walked
// only at its own events, which moved drain cut points and completion times
// by ulps (bytes_completed kept its bits); any drift in event order,
// timestamps or values flips a digest.
FleetConfig digest_config() {
  FleetConfig fleet;
  fleet.clients = make_mixed_fleet(/*n=*/128, /*arrival_spacing=*/0.125,
                                   /*max_chunks=*/12, /*video_scale=*/0.01);
  // Each uplink carries a quarter of the sessions at ~55% of their
  // full-density demand, so flows contend and the ABR moves.
  const VideoServer probe(fleet.clients.front().session.video);
  const double mbps = probe.chunk_bytes(1.0, 1.0) * 8.0 / 1e6 * 32.0 * 0.55;
  for (std::uint64_t r = 0; r < 4; ++r) {
    fleet.replica_uplinks.push_back(
        BandwidthTrace::lte(mbps, mbps * 0.2, 600.0, 40 + r));
  }
  fleet.rtt_seconds = 0.020;
  fleet.encode_seconds_full = 0.040;
  fleet.cache_budget_bytes = 16u << 20;
  fleet.event_log_capacity = std::size_t(1) << 20;  // nothing drops
  return fleet;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= std::uint8_t(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(FleetDigestTest, TimelinesMatchPinnedDigests) {
  struct Case {
    const char* name;
    FleetConfig config;
    std::uint64_t digest;
    double sim_seconds;
    // Bit patterns of each replica's (bits_drained, bytes_completed), then
    // the fleet's bytes_discarded: the link's drain accounting, pinned.
    std::vector<std::uint64_t> drain;
  };
  std::vector<Case> cases;

  cases.push_back({"fault_free", digest_config(), 0x5f4c9044581bd1f7ull,
                   32.429634459296473,
                   {0x41d4bd8c2f28f615ull, 0x41a4bd8c2f28f5c2ull,
                    0x41d478f2b624dd44ull, 0x41a478f2b624dd2full,
                    0x41d1c02fc4e56052ull, 0x41a1c02fc4e56040ull,
                    0x41d4811d869999aaull, 0x41a4811d8699999aull,
                    0x0000000000000000ull}});

  FleetConfig faulted = digest_config();
  faulted.faults.seed = 0x5EED13u;
  faulted.faults.crash_rate_per_minute = 2.0;
  faulted.faults.crash_restart_seconds = 3.0;
  faulted.faults.blackout_rate_per_minute = 4.0;
  faulted.faults.blackout_seconds = 1.5;
  faulted.faults.brownout_rate_per_minute = 1.0;
  faulted.faults.degrade_rate_per_minute = 0.5;
  faulted.faults.encode_failure_rate = 0.05;
  faulted.faults.crashes = {{0, 6.0, 2.0}};
  faulted.recovery.degrade_density_when_degraded = true;
  faulted.max_wait_seconds = 10.0;
  faulted.max_sessions_per_replica = 24;
  cases.push_back({"faults_waiting_room", faulted, 0x1d69282abd0f27e9ull,
                   68.273960894410664,
                   {0x41db6656a7d8eac4ull, 0x41a5d1fb806872b0ull,
                    0x41d6b2211ea90fe7ull, 0x4197774795900aeeull,
                    0x41d733f75e46ff81ull, 0x41a733f75e46ff51ull,
                    0x41d01f6eb11c98f1ull, 0x419ee955087d9c56ull,
                    0x41a1359ca82f4d43ull}});

  FleetConfig instant = digest_config();
  instant.rtt_seconds = 0.0;
  instant.encode_seconds_full = 0.0;
  cases.push_back({"zero_rtt_zero_encode", instant, 0xc02e7d2125d7d2c6ull,
                   32.67357670767769,
                   {0x41d4a7b720168720ull, 0x41a4a7b72016872cull,
                    0x41d4ed01f8a3d778ull, 0x41a4ed01f8a3d70aull,
                    0x41d1299a8aeb8565ull, 0x41a1299a8aeb8520ull,
                    0x41d4b0d34ae147d1ull, 0x41a4b0d34ae147aeull,
                    0x0000000000000000ull}});

  FleetConfig patient = digest_config();
  patient.max_wait_seconds = std::numeric_limits<double>::infinity();
  patient.max_sessions_per_replica = 16;
  cases.push_back({"unbounded_wait_capped", patient, 0xcb63732e62fcd482ull,
                   34.547557040471496,
                   {0x41d66914d2b43951ull, 0x41a66914d2b43958ull,
                    0x41d33dc0f39fbee1ull, 0x41a33dc0f39fbe77ull,
                    0x41d29924a56666b8ull, 0x41a29924a5666664ull,
                    0x41d39a1088e55ffeull, 0x41a39a1088e56042ull,
                    0x0000000000000000ull}});

  for (const Case& c : cases) {
    const FleetResult r = run_fleet(c.config);
    ASSERT_EQ(r.events.dropped(), 0u) << c.name;
    EXPECT_TRUE(r.completed) << c.name;
    const std::uint64_t digest = fnv1a(r.events.to_json());
    char got[96];
    std::snprintf(got, sizeof(got), "0x%016llxull, %.17g",
                  (unsigned long long)digest, r.sim_seconds);
    EXPECT_EQ(digest, c.digest) << c.name << ": got " << got;
    EXPECT_EQ(r.sim_seconds, c.sim_seconds) << c.name << ": got " << got;
    std::vector<std::uint64_t> drain;
    std::string drain_got;
    const auto pin = [&](double v) {
      drain.push_back(std::bit_cast<std::uint64_t>(v));
      std::snprintf(got, sizeof(got), " 0x%016llxull,",
                    (unsigned long long)drain.back());
      drain_got += got;
    };
    for (const ReplicaStats& replica : r.replicas) {
      pin(replica.bits_drained);
      pin(replica.bytes_completed);
    }
    pin(r.bytes_discarded);
    EXPECT_EQ(drain, c.drain) << c.name << ": got" << drain_got;
    // Each config exercises the path it names.
    if (c.config.max_sessions_per_replica != 0) {
      EXPECT_GT(r.queue_depth_peak, 0u) << c.name;
    }
    if (!c.config.faults.empty()) {
      EXPECT_GT(r.failovers, 0u) << c.name;
      EXPECT_GT(r.encode_queue.retries, 0u) << c.name;
    }
  }
}

TEST(FleetWorkTest, LinkWalksPinnedAndBoundedPerFlow) {
  // Link walks are a deterministic work count: the same on any host, so
  // pinned exactly. A flow costs about two walks: the projection after it
  // starts and the one after it completes; a sync to a flow start or fault
  // edge inside a projection's first rate segment resumes without one.
  const FleetResult r = run_fleet(digest_config());
  ASSERT_TRUE(r.completed);
  std::uint64_t walks = 0;
  for (const ReplicaStats& replica : r.replicas) walks += replica.link_walks;
  const std::uint64_t flows =
      r.events.type_count(FleetEventType::kDownloadStart);
  EXPECT_EQ(walks, 3263u);
  EXPECT_LE(double(walks), 2.5 * double(flows));
}

}  // namespace
}  // namespace volut
