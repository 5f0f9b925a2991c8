// Tests for the fleet serving layer: encode cache eviction, single-flight
// encode queues, fair-share link conservation, admission/routing (waiting
// room + reject-at-cap), single-session parity and determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/core/rng.h"
#include "src/net/shared_link.h"
#include "src/platform/timer.h"
#include "src/serve/encode_cache.h"
#include "src/serve/encode_queue.h"
#include "src/serve/fleet.h"
#include "src/stream/server.h"
#include "src/stream/session.h"

namespace volut {
namespace {

EncodeCacheKey key_of(std::uint32_t chunk, std::uint32_t bucket = 8) {
  EncodeCacheKey key;
  key.video = 1;
  key.points_per_frame = 1000;
  key.chunk = chunk;
  key.density_bucket = bucket;
  return key;
}

// Serves `key` as a zero-latency encode would: probe at request time and, on
// a miss, admit the artifact at once. Returns whether the probe hit.
bool serve(EncodeCache& cache, const EncodeCacheKey& key, std::size_t bytes) {
  if (cache.lookup(key)) return true;
  cache.insert(key, bytes);
  return false;
}

TEST(EncodeCacheTest, HitMissCounters) {
  EncodeCache cache(1000);
  EXPECT_FALSE(serve(cache, key_of(0), 100));  // cold miss
  EXPECT_TRUE(serve(cache, key_of(0), 100));   // now resident
  EXPECT_TRUE(serve(cache, key_of(0), 100));
  EXPECT_FALSE(serve(cache, key_of(1), 100));
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().insertions, 2u);
  EXPECT_EQ(cache.bytes_cached(), 200u);
  EXPECT_NEAR(cache.stats().hit_rate(), 0.5, 1e-12);
}

TEST(EncodeCacheTest, DensityBucketsSeparateEntries) {
  EncodeCache cache(1000);
  EXPECT_FALSE(serve(cache, key_of(0, 4), 100));
  EXPECT_FALSE(serve(cache, key_of(0, 8), 100));  // same chunk, other bucket
  EXPECT_TRUE(serve(cache, key_of(0, 4), 100));
  EXPECT_EQ(cache.entry_count(), 2u);
}

TEST(EncodeCacheTest, LruEvictionRespectsByteBudget) {
  EncodeCache cache(100);
  serve(cache, key_of(0), 40);
  serve(cache, key_of(1), 40);
  // Touch chunk 0 so chunk 1 is the LRU victim.
  EXPECT_TRUE(serve(cache, key_of(0), 40));
  serve(cache, key_of(2), 40);  // needs an eviction: 40+40+40 > 100
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.bytes_cached(), 100u);
  EXPECT_TRUE(cache.contains(key_of(0)));   // recently used: survives
  EXPECT_FALSE(cache.contains(key_of(1)));  // LRU: evicted
  EXPECT_TRUE(cache.contains(key_of(2)));
}

TEST(EncodeCacheTest, OversizedArtifactsNeverAdmitted) {
  EncodeCache cache(100);
  serve(cache, key_of(0), 40);
  EXPECT_FALSE(serve(cache, key_of(1), 500));
  EXPECT_FALSE(serve(cache, key_of(1), 500));  // still a miss, still rejected
  EXPECT_EQ(cache.stats().oversized_rejects, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);  // must not wipe the cache for it
  EXPECT_TRUE(cache.contains(key_of(0)));
}

TEST(EncodeCacheTest, LookupProbesWithoutInserting) {
  EncodeCache cache(1000);
  EXPECT_FALSE(cache.lookup(key_of(0)));
  // The miss counted but did NOT insert: the artifact does not exist until
  // its encode completes (single-flight discipline).
  EXPECT_FALSE(cache.contains(key_of(0)));
  cache.insert(key_of(0), 100);
  EXPECT_TRUE(cache.lookup(key_of(0)));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  // Re-inserting a resident key is a no-op, not a double count.
  cache.insert(key_of(0), 100);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.bytes_cached(), 100u);
  // Oversized artifacts are dropped at insert time.
  cache.insert(key_of(1), 5000);
  EXPECT_FALSE(cache.contains(key_of(1)));
  EXPECT_EQ(cache.stats().oversized_rejects, 1u);
}

TEST(EncodeQueueTest, FirstMissStartsEncodeInsertedAtCompletion) {
  EncodeQueue queue(1, 1000);
  const auto first = queue.request(key_of(0), 100, /*now=*/1.0,
                                   /*encode_seconds=*/0.5);
  EXPECT_FALSE(first.hit);
  EXPECT_FALSE(first.coalesced);
  EXPECT_DOUBLE_EQ(first.ready_at, 1.5);
  // Not resident mid-encode: this is exactly the phantom-hit fix.
  EXPECT_FALSE(queue.shard(0).contains(key_of(0)));
  EXPECT_EQ(queue.in_flight(), 1u);

  // A concurrent requester coalesces onto the in-flight encode and waits
  // for the same completion instead of seeing an instant hit.
  const auto second = queue.request(key_of(0), 100, 1.2, 0.5);
  EXPECT_FALSE(second.hit);
  EXPECT_TRUE(second.coalesced);
  EXPECT_DOUBLE_EQ(second.ready_at, 1.5);
  EXPECT_EQ(queue.stats().encode_starts, 1u);
  EXPECT_EQ(queue.stats().coalesced_joins, 1u);

  EXPECT_DOUBLE_EQ(queue.next_ready(), 1.5);
  queue.complete_until(1.5);
  EXPECT_TRUE(queue.shard(0).contains(key_of(0)));
  EXPECT_EQ(queue.in_flight(), 0u);
  EXPECT_EQ(queue.stats().completions, 1u);
  const auto third = queue.request(key_of(0), 100, 1.6, 0.5);
  EXPECT_TRUE(third.hit);
  EXPECT_DOUBLE_EQ(third.ready_at, 1.6);
}

TEST(EncodeQueueTest, ZeroLatencyEncodesAreSynchronous) {
  // encode_seconds = 0 must reproduce the plain lookup-then-insert cache
  // (the run_session-parity setting): resident immediately, nothing queued.
  EncodeQueue queue(1, 1000);
  const auto miss = queue.request(key_of(0), 100, 2.0, 0.0);
  EXPECT_FALSE(miss.hit);
  EXPECT_DOUBLE_EQ(miss.ready_at, 2.0);
  EXPECT_EQ(queue.in_flight(), 0u);
  EXPECT_TRUE(queue.shard(0).contains(key_of(0)));
  EXPECT_TRUE(queue.request(key_of(0), 100, 2.0, 0.0).hit);
}

TEST(EncodeQueueTest, ShardsSplitBudgetAndSpreadKeys) {
  EncodeQueue queue(4, 4000);
  ASSERT_EQ(queue.shard_count(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(queue.shard(s).budget_bytes(), 1000u);
  }
  std::array<bool, 4> touched{};
  for (std::uint32_t chunk = 0; chunk < 64; ++chunk) {
    const std::size_t s = queue.shard_of(key_of(chunk));
    ASSERT_LT(s, 4u);
    touched[s] = true;
    queue.request(key_of(chunk), 10, 0.0, 0.0);
    // shard_of is a pure function of the key.
    EXPECT_EQ(queue.shard_of(key_of(chunk)), s);
  }
  for (bool b : touched) EXPECT_TRUE(b);
  const EncodeCacheStats total = queue.cache_stats();
  EXPECT_EQ(total.misses, 64u);
  EXPECT_EQ(total.insertions, 64u);
}

TEST(HashRingTest, GrowingTheRingOnlyMovesKeysToTheNewShard) {
  // The consistent-hashing contract: adding a shard remaps only the keys
  // that now belong to it; nothing shuffles between surviving shards.
  const HashRing four(4);
  const HashRing five(5);
  std::size_t moved = 0;
  for (std::uint32_t chunk = 0; chunk < 500; ++chunk) {
    const std::uint64_t h = EncodeCacheKeyHash{}(key_of(chunk));
    const std::size_t before = four.shard_of(h);
    const std::size_t after = five.shard_of(h);
    if (before != after) {
      EXPECT_EQ(after, 4u) << "key moved between surviving shards";
      ++moved;
    }
  }
  EXPECT_GT(moved, 0u);    // the new shard took some of the space...
  EXPECT_LT(moved, 250u);  // ...but nowhere near a full reshuffle
}

TEST(DensityBucketTest, MonotoneAndBounded) {
  EXPECT_EQ(density_bucket(0.0, 16), 1u);
  EXPECT_EQ(density_bucket(1.0, 16), 16u);
  EXPECT_EQ(density_bucket(2.0, 16), 16u);  // clamped
  std::uint32_t prev = 0;
  for (double r = 0.01; r <= 1.0; r += 0.01) {
    const std::uint32_t b = density_bucket(r, 16);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

TEST(DensityBucketTest, NonFiniteAndNegativeRatiosAreDeterministic) {
  // NaN used to flow into std::clamp (unspecified comparisons / UB on the
  // float->uint cast); corrupt ratios must map to a pinned bucket instead.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(density_bucket(nan, 16), 1u);
  EXPECT_EQ(density_bucket(-inf, 16), 1u);
  EXPECT_EQ(density_bucket(inf, 16), 16u);
  EXPECT_EQ(density_bucket(-0.25, 16), 1u);
  EXPECT_EQ(density_bucket(nan, 1), 1u);
  EXPECT_EQ(density_bucket(inf, 1), 1u);
}

TEST(SharedLinkTest, EqualFlowsShareCapacityFairly) {
  // Two equal flows on a stable 80 Mbps link: each sees 40 Mbps, so 10 MB
  // flows complete together at t = 2 s — twice the solo transfer time.
  SharedLink link(BandwidthTrace::stable(80.0, 600.0));
  link.start_flow(10e6);
  link.start_flow(10e6);
  const auto done = link.advance(0.0, 10.0);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0].time, 2.0, 1e-9);
  EXPECT_NEAR(done[1].time, 2.0, 1e-9);
  EXPECT_EQ(done[0].id, 1u);  // simultaneous completions: id order
  EXPECT_EQ(done[1].id, 2u);
}

TEST(SharedLinkTest, SmallFlowFinishesFirstThenShareGrows) {
  // 80 Mbps shared by a 5 MB and a 20 MB flow. Phase 1: both at 40 Mbps;
  // the small one needs 1 s. Phase 2: the big one has 15 MB left at the
  // full 80 Mbps -> 1.5 s more.
  SharedLink link(BandwidthTrace::stable(80.0, 600.0));
  const std::uint64_t small = link.start_flow(5e6);
  const std::uint64_t big = link.start_flow(20e6);
  const auto done = link.advance(0.0, 10.0);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].id, small);
  EXPECT_NEAR(done[0].time, 1.0, 1e-9);
  EXPECT_EQ(done[1].id, big);
  EXPECT_NEAR(done[1].time, 2.5, 1e-9);
}

TEST(SharedLinkTest, ConservationUnderContention) {
  // However many flows contend, drained bits over a saturated window equal
  // the integral of the trace capacity.
  const BandwidthTrace trace = BandwidthTrace::lte(60.0, 15.0, 300.0, 7);
  SharedLink link(trace);
  for (int i = 0; i < 5; ++i) link.start_flow(1e9);  // will not finish
  const double horizon = 50.0;
  link.advance(0.0, horizon);
  double capacity_bits = 0.0;
  const double dt = trace.sample_seconds();
  for (double t = 0.0; t < horizon; t += dt) {
    capacity_bits += trace.bandwidth_at(t) * 1e6 * dt;
  }
  EXPECT_NEAR(link.bits_drained(), capacity_bits, capacity_bits * 1e-9);
  EXPECT_EQ(link.active_flows(), 5u);
}

TEST(SharedLinkTest, PerClientCapLimitsBelowFairShare) {
  // 100 Mbps uplink, one flow capped at 10 Mbps: 10 MB takes 8 s, not 0.8 s.
  const BandwidthTrace cap = BandwidthTrace::stable(10.0, 600.0);
  SharedLink link(BandwidthTrace::stable(100.0, 600.0));
  link.start_flow(10e6, &cap);
  const auto done = link.advance(0.0, 20.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0].time, 8.0, 1e-9);
}

TEST(SharedLinkTest, AdvanceAcrossChoppedWindowsIsConsistent) {
  // Draining in many small steps must complete the flow at the same time as
  // draining in one go (the fleet chops windows at global events).
  const BandwidthTrace trace = BandwidthTrace::lte(40.0, 10.0, 120.0, 11);
  SharedLink one(trace);
  SharedLink many(trace);
  one.start_flow(30e6);
  many.start_flow(30e6);
  const double t_one = one.next_completion_time(0.0);
  one.advance(0.0, t_one);
  double t = 0.0;
  std::vector<SharedLink::Completion> done;
  while (done.empty() && t < 100.0) {
    const double step = std::min(t + 0.37, many.next_completion_time(t));
    done = many.advance(t, step);
    t = step;
  }
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0].time, t_one, 1e-6);
}

// ---------------------------------------------------------------- fleet ---

SessionConfig small_session(SystemKind kind) {
  SessionConfig cfg;
  cfg.kind = kind;
  cfg.video = VideoSpec::dress(0.01);
  cfg.video.frame_count = 1200;
  cfg.video.loops = 1;
  cfg.max_chunks = 30;
  return cfg;
}

// Every SessionResult and ChunkRecord field of `via_fleet` equals `solo`'s,
// bit for bit: a 1-client fleet drains each chunk on the same one-flow
// SharedLink arithmetic that run_session uses.
void expect_bit_identical(const SessionResult& via_fleet,
                          const SessionResult& solo) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(via_fleet.system, solo.system);
  EXPECT_EQ(bits(via_fleet.total_bytes), bits(solo.total_bytes));
  EXPECT_EQ(bits(via_fleet.stall_seconds), bits(solo.stall_seconds));
  EXPECT_EQ(bits(via_fleet.qoe), bits(solo.qoe));
  EXPECT_EQ(bits(via_fleet.mean_quality), bits(solo.mean_quality));
  EXPECT_EQ(bits(via_fleet.mean_density), bits(solo.mean_density));
  EXPECT_EQ(via_fleet.quality_switches, solo.quality_switches);
  EXPECT_EQ(bits(via_fleet.data_usage_fraction),
            bits(solo.data_usage_fraction));
  ASSERT_EQ(via_fleet.chunks.size(), solo.chunks.size());
  for (std::size_t i = 0; i < solo.chunks.size(); ++i) {
    const ChunkRecord& a = via_fleet.chunks[i];
    const ChunkRecord& b = solo.chunks[i];
    EXPECT_EQ(a.index, b.index) << "chunk " << i;
    EXPECT_EQ(bits(a.density_ratio), bits(b.density_ratio)) << "chunk " << i;
    EXPECT_EQ(bits(a.bytes), bits(b.bytes)) << "chunk " << i;
    EXPECT_EQ(bits(a.download_seconds), bits(b.download_seconds))
        << "chunk " << i;
    EXPECT_EQ(bits(a.sr_seconds), bits(b.sr_seconds)) << "chunk " << i;
    EXPECT_EQ(bits(a.stall_seconds), bits(b.stall_seconds)) << "chunk " << i;
    EXPECT_EQ(bits(a.quality), bits(b.quality)) << "chunk " << i;
    EXPECT_EQ(bits(a.qoe), bits(b.qoe)) << "chunk " << i;
    EXPECT_EQ(bits(a.buffer_after), bits(b.buffer_after)) << "chunk " << i;
  }
}

TEST(FleetTest, OneClientFleetReproducesRunSession) {
  const BandwidthTrace trace = BandwidthTrace::lte(40.0, 12.0, 300.0, 9);
  const double rtt = 0.020;
  for (SystemKind kind : {SystemKind::kVolutContinuous,
                          SystemKind::kVolutDiscrete, SystemKind::kYuzuSr,
                          SystemKind::kRaw}) {
    const SessionConfig session = small_session(kind);
    const SessionResult solo =
        run_session(session, SimulatedLink{trace, rtt});

    FleetConfig fleet;
    fleet.clients.push_back({session, 0.0, {}, nullptr});
    fleet.replica_uplinks = {trace};
    fleet.rtt_seconds = rtt;
    fleet.encode_seconds_full = 0.0;  // parity: encodes are free
    const FleetResult result = run_fleet(fleet);

    ASSERT_EQ(result.admitted, 1u);
    SCOPED_TRACE(solo.system);
    expect_bit_identical(result.sessions[0], solo);
  }
}

TEST(FleetTest, SharedUplinkDegradesWithLoad) {
  // Same replica capacity, 1 vs 6 clients: contention must cost QoE (or at
  // least force lower fetched density).
  const BandwidthTrace trace = BandwidthTrace::stable(60.0, 600.0);
  FleetConfig solo;
  solo.clients.push_back(
      {small_session(SystemKind::kVolutContinuous), 0.0, {}, nullptr});
  solo.replica_uplinks = {trace};
  const FleetResult one = run_fleet(solo);

  FleetConfig crowded = solo;
  for (int i = 1; i < 6; ++i) {
    crowded.clients.push_back(
        {small_session(SystemKind::kVolutContinuous), 0.25 * i, {}, nullptr});
  }
  const FleetResult six = run_fleet(crowded);
  EXPECT_GT(one.sessions[0].mean_density,
            six.sessions[0].mean_density - 1e-12);
  EXPECT_LT(six.qoe.mean, one.qoe.mean + 1e-9);
  EXPECT_GT(six.replicas[0].peak_concurrent_flows, 1u);
}

TEST(FleetTest, AdmissionControlRejectsBeyondCapacityAndBalances) {
  FleetConfig fleet;
  for (int i = 0; i < 7; ++i) {
    SessionConfig session = small_session(SystemKind::kRaw);
    session.max_chunks = 5;
    fleet.clients.push_back({session, 0.0, {}, nullptr});
  }
  fleet.replica_uplinks = {BandwidthTrace::stable(100.0, 600.0),
                           BandwidthTrace::stable(100.0, 600.0)};
  fleet.max_sessions_per_replica = 3;
  const FleetResult result = run_fleet(fleet);
  EXPECT_EQ(result.admitted, 6u);
  EXPECT_EQ(result.rejected, 1u);
  // Least-loaded routing: 3 sessions per replica.
  EXPECT_EQ(result.replicas[0].sessions_assigned, 3u);
  EXPECT_EQ(result.replicas[1].sessions_assigned, 3u);
  // The rejected client produced no session record.
  EXPECT_EQ(result.replica_of[6], std::size_t(-1));
  EXPECT_TRUE(result.sessions[6].chunks.empty());
}

TEST(FleetTest, ConcurrentMissesCoalesceOntoOneEncodeAndBothWait) {
  // Phantom-hit regression: two viewers of the same video whose requests
  // land inside one encode window. Pre-single-flight, the second viewer got
  // an instant "hit" on an artifact that did not exist yet and paid no
  // encode delay; now it must coalesce onto the in-flight encode and wait
  // for its completion.
  FleetConfig fleet;
  SessionConfig session = small_session(SystemKind::kRaw);
  session.max_chunks = 6;
  fleet.clients.push_back({session, 0.0, {}, nullptr});
  fleet.clients.push_back({session, 0.01, {}, nullptr});
  fleet.replica_uplinks = {BandwidthTrace::stable(400.0, 600.0)};
  fleet.rtt_seconds = 0.020;
  fleet.encode_seconds_full = 0.5;
  const FleetResult result = run_fleet(fleet);

  // Both clients pay the encode on the cold chunk (transfer itself is ~ms).
  EXPECT_GT(result.sessions[0].chunks[0].download_seconds, 0.5);
  EXPECT_GT(result.sessions[1].chunks[0].download_seconds, 0.45);
  // ...but the server ran ONE encode per artifact, not two.
  EXPECT_GT(result.encode_queue.coalesced_joins, 0u);
  EXPECT_EQ(result.encode_queue.encode_starts, 6u);
  EXPECT_EQ(result.encode_queue.encode_starts +
                result.encode_queue.coalesced_joins,
            result.cache.misses);
  EXPECT_EQ(result.encode_queue.completions, 6u);
  EXPECT_EQ(result.cache.insertions, 6u);
  EXPECT_TRUE(result.completed);
}

TEST(FleetTest, WaitingRoomAdmitsFifoAsSlotsFree) {
  FleetConfig fleet;
  SessionConfig session = small_session(SystemKind::kRaw);
  session.max_chunks = 3;
  // Simultaneous arrivals: exactly one gets the only slot; the other two
  // queue no matter how short the sessions are.
  fleet.clients.push_back({session, 0.0, {}, nullptr});
  fleet.clients.push_back({session, 0.0, {}, nullptr});
  fleet.clients.push_back({session, 0.0, {}, nullptr});
  fleet.replica_uplinks = {BandwidthTrace::stable(100.0, 600.0)};
  fleet.max_sessions_per_replica = 1;
  fleet.max_wait_seconds = 60.0;
  const FleetResult result = run_fleet(fleet);

  EXPECT_EQ(result.admitted, 3u);
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_EQ(result.timed_out, 0u);
  EXPECT_EQ(result.queue_depth_peak, 2u);
  EXPECT_TRUE(result.completed);
  // FIFO: the first arrival (lowest index on simultaneous arrivals) never
  // waited; each later one waited its whole predecessor's session longer.
  EXPECT_DOUBLE_EQ(result.wait_seconds[0], 0.0);
  EXPECT_GT(result.wait_seconds[1], 0.0);
  EXPECT_GT(result.wait_seconds[2], result.wait_seconds[1]);
  EXPECT_EQ(result.wait_time.count, 3u);
  EXPECT_DOUBLE_EQ(result.wait_time.max, result.wait_seconds[2]);
  for (const SessionResult& s : result.sessions) {
    EXPECT_EQ(s.chunks.size(), 3u);
  }

  // Admission order and wait accounting are deterministic run to run.
  const FleetResult again = run_fleet(fleet);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(again.wait_seconds[i], result.wait_seconds[i]);
    EXPECT_EQ(again.replica_of[i], result.replica_of[i]);
  }
}

TEST(FleetTest, WaitingRoomTimeoutConvertsToRejection) {
  FleetConfig fleet;
  SessionConfig session = small_session(SystemKind::kRaw);
  session.max_chunks = 10;
  fleet.clients.push_back({session, 0.0, {}, nullptr});
  fleet.clients.push_back({session, 0.1, {}, nullptr});
  fleet.replica_uplinks = {BandwidthTrace::stable(8.0, 600.0)};
  fleet.max_sessions_per_replica = 1;
  fleet.max_wait_seconds = 0.5;  // far shorter than session 0
  const FleetResult result = run_fleet(fleet);

  EXPECT_EQ(result.admitted, 1u);
  EXPECT_EQ(result.rejected, 1u);
  EXPECT_EQ(result.timed_out, 1u);
  // The timeout deadline is an event: the conversion lands exactly at it.
  EXPECT_NEAR(result.wait_seconds[1], 0.5, 1e-9);
  EXPECT_TRUE(result.sessions[1].chunks.empty());
  EXPECT_EQ(result.replica_of[1], std::size_t(-1));
  EXPECT_TRUE(result.completed);
}

TEST(FleetTest, OneClientParityHoldsWithWaitingRoomAndShardsEnabled) {
  // Arming the waiting room and per-replica cache shards must not perturb
  // an uncontended session: still exactly run_session.
  const BandwidthTrace trace = BandwidthTrace::lte(40.0, 12.0, 300.0, 9);
  const SessionConfig session = small_session(SystemKind::kVolutContinuous);
  const SessionResult solo = run_session(session, SimulatedLink{trace, 0.020});

  FleetConfig fleet;
  fleet.clients.push_back({session, 0.0, {}, nullptr});
  fleet.replica_uplinks = {trace};
  fleet.rtt_seconds = 0.020;
  fleet.max_sessions_per_replica = 1;
  fleet.max_wait_seconds = 30.0;
  fleet.shard_cache_per_replica = true;
  fleet.encode_seconds_full = 0.0;
  const FleetResult result = run_fleet(fleet);

  ASSERT_EQ(result.admitted, 1u);
  ASSERT_EQ(result.cache_shards.size(), 1u);
  expect_bit_identical(result.sessions[0], solo);
  EXPECT_EQ(result.queue_depth_peak, 0u);
  EXPECT_DOUBLE_EQ(result.wait_time.max, 0.0);
}

TEST(FleetTest, SharedVideoPopulatesEncodeCache) {
  // Four raw clients on one video request identical full-density chunks:
  // after the first viewer everything is a cache hit.
  FleetConfig fleet;
  for (int i = 0; i < 4; ++i) {
    SessionConfig session = small_session(SystemKind::kRaw);
    session.max_chunks = 10;
    fleet.clients.push_back({session, 2.0 * i, {}, nullptr});
  }
  fleet.replica_uplinks = {BandwidthTrace::stable(200.0, 600.0)};
  fleet.encode_seconds_full = 0.050;
  const FleetResult result = run_fleet(fleet);
  EXPECT_GT(result.cache.hits, 0u);
  EXPECT_GT(result.cache.hit_rate(), 0.5);  // 3 of 4 viewers ride the cache
  EXPECT_EQ(result.cache.hits + result.cache.misses, 40u);
}

TEST(FleetTest, CacheBudgetForcesEvictions) {
  FleetConfig fleet;
  for (int i = 0; i < 2; ++i) {
    SessionConfig session = small_session(SystemKind::kRaw);
    session.max_chunks = 12;
    fleet.clients.push_back({session, 5.0 * i, {}, nullptr});
  }
  fleet.replica_uplinks = {BandwidthTrace::stable(200.0, 600.0)};
  VideoServer probe(fleet.clients[0].session.video);
  // Room for only ~2 full-density chunks: the second viewer arrives after
  // the first's early chunks were already evicted.
  fleet.cache_budget_bytes =
      std::size_t(probe.chunk_bytes(1.0, 1.0) * 2.5);
  const FleetResult result = run_fleet(fleet);
  EXPECT_GT(result.cache.evictions, 0u);
  EXPECT_LE(result.cache.hit_rate(), 0.5);
}

TEST(FleetTest, EncodeLatencySlowsColdFetches) {
  FleetConfig fleet;
  SessionConfig session = small_session(SystemKind::kRaw);
  session.max_chunks = 10;
  fleet.clients.push_back({session, 0.0, {}, nullptr});
  fleet.replica_uplinks = {BandwidthTrace::stable(100.0, 600.0)};
  fleet.encode_seconds_full = 0.0;
  const FleetResult fast = run_fleet(fleet);
  fleet.encode_seconds_full = 0.200;
  const FleetResult slow = run_fleet(fleet);
  // A solo client never hits the cache, so every chunk pays the encode.
  EXPECT_EQ(slow.cache.hits, 0u);
  EXPECT_GT(slow.sessions[0].chunks[5].download_seconds,
            fast.sessions[0].chunks[5].download_seconds + 0.19);
}

TEST(FleetTest, ReportsUplinkTraceWraps) {
  FleetConfig fleet;
  SessionConfig session = small_session(SystemKind::kVolutContinuous);
  session.max_chunks = 20;
  fleet.clients.push_back({session, 0.0, {}, nullptr});
  // A 1-second capture serving a multi-second session must report wrapping
  // instead of silently looping.
  fleet.replica_uplinks = {BandwidthTrace::stable(50.0, 1.0)};
  const FleetResult result = run_fleet(fleet);
  EXPECT_GT(result.sim_seconds, 1.0);
  EXPECT_GE(result.replicas[0].uplink_trace_wraps, 1u);
  EXPECT_TRUE(fleet.replica_uplinks[0].wrap_count(result.sim_seconds) > 0);
}

TEST(FleetTest, ConstantUplinkSampledAtAnyWidthRunsTheSameFleet) {
  // The same constant 30 Mbps uplinks sampled every 0.5, 0.1 and 0.03 s. At
  // the two finer widths some segment edges round onto the walk's own time;
  // a walk that stops there would strand flows and end the run early.
  FleetResult reference;
  for (const double dt : {0.5, 0.1, 0.03}) {
    FleetConfig fleet;
    fleet.clients = make_mixed_fleet(16, 0.25, 8);
    const BandwidthTrace uplink(
        std::vector<double>(std::size_t(std::lround(600.0 / dt)), 30.0), dt);
    fleet.replica_uplinks = {uplink, uplink};
    const FleetResult result = run_fleet(fleet);
    EXPECT_TRUE(result.completed) << "dt " << dt;
    EXPECT_EQ(result.unfinished_sessions, 0u) << "dt " << dt;
    if (dt == 0.5) {
      reference = result;
      continue;
    }
    EXPECT_EQ(result.total_bytes, reference.total_bytes) << "dt " << dt;
    for (std::size_t i = 0; i < result.sessions.size(); ++i) {
      EXPECT_EQ(result.sessions[i].qoe, reference.sessions[i].qoe)
          << "dt " << dt << " session " << i;
    }
    EXPECT_NEAR(result.sim_seconds, reference.sim_seconds, 1e-9)
        << "dt " << dt;
  }
}

TEST(FleetTest, MeasuredSrSamplesAreDeterministicAcrossPools) {
  FleetConfig fleet;
  fleet.clients = make_mixed_fleet(8, 0.5, 12, 0.01);
  fleet.replica_uplinks = {BandwidthTrace::lte(80.0, 20.0, 300.0, 3),
                           BandwidthTrace::lte(80.0, 20.0, 300.0, 4)};
  fleet.encode_seconds_full = 0.030;
  fleet.measure_sr_stride = 4;

  ThreadPool pool1(1), pool4(4);
  const FleetResult a = run_fleet(fleet, &pool1);
  const FleetResult b = run_fleet(fleet, &pool4);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.sessions[i].qoe, b.sessions[i].qoe);
    EXPECT_DOUBLE_EQ(a.sessions[i].total_bytes, b.sessions[i].total_bytes);
  }
  ASSERT_FALSE(a.sr_samples.empty());
  ASSERT_EQ(a.sr_samples.size(), b.sr_samples.size());
  for (std::size_t i = 0; i < a.sr_samples.size(); ++i) {
    EXPECT_EQ(a.sr_samples[i].client, b.sr_samples[i].client);
    EXPECT_EQ(a.sr_samples[i].chunk, b.sr_samples[i].chunk);
    EXPECT_DOUBLE_EQ(a.sr_samples[i].chamfer, b.sr_samples[i].chamfer);
  }
  EXPECT_DOUBLE_EQ(a.qoe.p99, b.qoe.p99);
  EXPECT_EQ(a.cache.hits, b.cache.hits);
}

TEST(FleetTest, ReplicaUplinkReplaysStandalone) {
  // A replica's uplink is walked only at its own events: flow starts and its
  // projected completions. So replaying one replica's flow starts on a fresh
  // SharedLink, completing every flow whose projection is due by each start
  // first, must reproduce the replica's finish timeline bit for bit.
  FleetConfig fleet;
  fleet.clients = make_mixed_fleet(/*n=*/96, /*arrival_spacing=*/0.125,
                                   /*max_chunks=*/10);
  // Every third viewer sits behind its own access link.
  for (std::size_t i = 0; i < fleet.clients.size(); i += 3) {
    fleet.clients[i].downlink = BandwidthTrace::lte(6.0, 2.0, 120.0, 70 + i);
  }
  const VideoServer probe(fleet.clients.front().session.video);
  const double mbps = probe.chunk_bytes(1.0, 1.0) * 8.0 / 1e6 * 24.0 * 0.55;
  for (std::uint64_t r = 0; r < 4; ++r) {
    fleet.replica_uplinks.push_back(
        BandwidthTrace::lte(mbps, mbps * 0.2, 600.0, 60 + r));
  }
  fleet.rtt_seconds = 0.020;
  fleet.encode_seconds_full = 0.040;
  fleet.event_log_capacity = std::size_t(1) << 20;
  const FleetResult result = run_fleet(fleet);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.events.dropped(), 0u);
  const std::vector<FleetEvent> events = result.events.events();

  using Finish = std::pair<std::uint64_t, std::uint32_t>;  // time bits, id
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t r = 0; r < fleet.replica_uplinks.size(); ++r) {
    std::vector<Finish> want;
    std::vector<Finish> got;
    SharedLink link(fleet.replica_uplinks[r]);
    double clock = 0.0;
    const auto complete_due_by = [&](double t) {
      for (double due = link.next_completion_time(clock); due <= t;
           due = link.next_completion_time(clock)) {
        for (const SharedLink::Completion& done : link.advance(clock, due)) {
          got.emplace_back(bits(done.time), std::uint32_t(done.owner));
        }
        clock = due;
      }
    };
    for (const FleetEvent& e : events) {
      if (e.replica != std::int32_t(r)) continue;
      if (e.type == FleetEventType::kDownloadFinish) {
        want.emplace_back(bits(e.time), e.session);
      } else if (e.type == FleetEventType::kDownloadStart) {
        complete_due_by(e.time);
        EXPECT_TRUE(link.advance(clock, e.time).empty());
        clock = e.time;
        const BandwidthTrace& downlink = fleet.clients[e.session].downlink;
        link.start_flow(e.value, downlink.empty() ? nullptr : &downlink,
                        e.session);
      }
    }
    complete_due_by(std::numeric_limits<double>::max());
    EXPECT_EQ(link.active_flows(), 0u) << "replica " << r;
    ASSERT_FALSE(want.empty()) << "replica " << r;
    EXPECT_EQ(got, want) << "replica " << r;
  }
}

TEST(FleetTest, SimultaneousUplinkCompletionsSettleInReplicaOrder) {
  // One viewer per replica, all arriving together with the same video on
  // identical stable uplinks: each chunk's coalesced encode releases every
  // download at one instant, so all of them finish at the same time, and
  // they must settle in ascending replica order. Pools: a power of two, an
  // odd size, and more replicas than viewers (idle links stay at +inf).
  struct Shape {
    std::size_t replicas;
    std::size_t sessions;
  };
  for (const Shape shape : {Shape{2, 2}, Shape{5, 5}, Shape{6, 3}}) {
    SessionConfig session = small_session(SystemKind::kRaw);
    session.max_chunks = 6;
    FleetConfig fleet;
    fleet.clients.assign(shape.sessions, {session, 0.0, {}, nullptr});
    fleet.replica_uplinks.assign(shape.replicas,
                                 BandwidthTrace::stable(40.0, 600.0));
    fleet.max_sessions_per_replica = 1;
    fleet.rtt_seconds = 0.020;
    fleet.encode_seconds_full = 0.040;
    const FleetResult result = run_fleet(fleet);
    ASSERT_TRUE(result.completed);
    ASSERT_EQ(result.events.dropped(), 0u);
    std::vector<FleetEvent> finishes;
    for (const FleetEvent& e : result.events.events()) {
      if (e.type == FleetEventType::kDownloadFinish) finishes.push_back(e);
    }
    ASSERT_GE(finishes.size(), shape.sessions * 6);
    ASSERT_EQ(finishes.size() % shape.sessions, 0u);
    for (std::size_t k = 0; k < finishes.size(); ++k) {
      const FleetEvent& first = finishes[k - k % shape.sessions];
      EXPECT_EQ(finishes[k].time, first.time)
          << shape.replicas << " replicas, finish " << k;
      EXPECT_EQ(finishes[k].replica, std::int32_t(k % shape.sessions))
          << shape.replicas << " replicas, finish " << k;
      EXPECT_EQ(finishes[k].session, std::uint32_t(k % shape.sessions));
    }
  }
}

TEST(FleetTest, LateVivoArrivalSamplesMotionFromSessionStart) {
  // Two identical ViVo viewers, one arriving 7 s late, each alone on an
  // identical stable replica: their viewport planning must see the same
  // session-relative head motion, so per-chunk quality sequences match.
  MotionTraceSpec mspec;
  mspec.frames = 1500;
  const MotionTrace motion = MotionTrace::generate(mspec, 2);
  SessionConfig session = small_session(SystemKind::kVivo);
  session.max_chunks = 12;
  FleetConfig fleet;
  fleet.clients.push_back({session, 0.0, {}, &motion});
  fleet.clients.push_back({session, 7.0, {}, &motion});
  fleet.replica_uplinks = {BandwidthTrace::stable(40.0, 600.0),
                           BandwidthTrace::stable(40.0, 600.0)};
  fleet.max_sessions_per_replica = 1;
  const FleetResult result = run_fleet(fleet);
  ASSERT_EQ(result.admitted, 2u);
  const auto& early = result.sessions[0].chunks;
  const auto& late = result.sessions[1].chunks;
  ASSERT_EQ(early.size(), late.size());
  for (std::size_t i = 0; i < early.size(); ++i) {
    EXPECT_NEAR(early[i].quality, late[i].quality, 1e-9) << "chunk " << i;
    EXPECT_NEAR(early[i].density_ratio, late[i].density_ratio, 1e-9);
  }
}

TEST(SharedLinkTest, ZeroByteFlowCompletesEvenOnDeadLink) {
  // Regression: the segment walk skips rate-0 flows, which used to strand a
  // zero-byte flow on a zero-bandwidth uplink forever even though it has
  // nothing left to transfer.
  SharedLink link(BandwidthTrace({0.0, 0.0}, 0.5));
  link.start_flow(0.0);
  EXPECT_EQ(link.next_completion_time(1.25), 1.25);
  const auto done = link.advance(1.25, 1.25);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].time, 1.25);
  EXPECT_EQ(link.active_flows(), 0u);
}

TEST(SharedLinkTest, ZeroByteFlowDoesNotDelayOthers) {
  SharedLink link(BandwidthTrace::stable(80.0, 600.0));
  const std::uint64_t data = link.start_flow(10e6);
  const std::uint64_t empty = link.start_flow(0.0);
  const auto done = link.advance(0.0, 10.0);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].id, empty);
  EXPECT_EQ(done[0].time, 0.0);
  EXPECT_EQ(done[1].id, data);
  // The empty flow exits instantly, so the real one keeps the whole link.
  EXPECT_NEAR(done[1].time, 1.0, 1e-9);
}

TEST(SharedLinkTest, DeadTraceReturnsInfinityQuickly) {
  // A link is dead, and the walk answers +inf at once instead of walking 10M
  // segments, when its uplink trace is all zero...
  constexpr double kInf = std::numeric_limits<double>::infinity();
  SharedLink link(BandwidthTrace({0.0, 0.0}, 0.5));
  link.start_flow(1e6);
  EXPECT_EQ(link.next_completion_time(0.0), kInf);

  // ...or when every flow is capped by an all-zero access link.
  const BandwidthTrace dead_cap({0.0, 0.0}, 0.01);
  SharedLink capped(BandwidthTrace::stable(50.0));
  capped.start_flow(1e6, &dead_cap);
  capped.start_flow(2e6, &dead_cap);
  EXPECT_EQ(capped.next_completion_time(0.0), kInf);
  EXPECT_TRUE(capped.advance(0.0, 100.0).empty());

  // A live flow beside a dead-capped one completes at its finite time: the
  // dead flow keeps its unused half share, so 1 MB takes 2 s at 0.5 MB/s.
  // Then only the dead flow is left, and the peek is +inf at once.
  SharedLink mixed(BandwidthTrace::stable(8.0));  // 1 MB/s
  mixed.start_flow(1e6, &dead_cap);
  const std::uint64_t live = mixed.start_flow(1e6);
  const double t = mixed.next_completion_time(0.0);
  EXPECT_NEAR(t, 2.0, 1e-9);
  const auto done = mixed.advance(0.0, t);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, live);
  EXPECT_EQ(mixed.active_flows(), 1u);
  EXPECT_EQ(mixed.next_completion_time(t), kInf);
}

TEST(SharedLinkTest, UplinkAndCapThatNeverOverlapAreDead) {
  // The uplink carries only odd seconds and the cap only even ones, so no
  // instant has both above zero: the peek answers +inf at once instead of
  // walking all 10M segments.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const BandwidthTrace cap({50.0, 0.0}, 1.0);
  SharedLink link(BandwidthTrace({0.0, 50.0}, 1.0));
  link.start_flow(1e6, &cap);
  const std::uint64_t walks = link.walks();
  const Timer timer;
  EXPECT_EQ(link.next_completion_time(0.0), kInf);
  EXPECT_LT(timer.elapsed_ms(), 1000.0);
  EXPECT_EQ(link.walks(), walks + 1);
  EXPECT_TRUE(link.advance(0.0, 100.0).empty());

  // The same pair with the cap sampled every half second.
  const BandwidthTrace half_cap({50.0, 50.0, 0.0, 0.0}, 0.5);
  SharedLink fine(BandwidthTrace({0.0, 50.0}, 1.0));
  fine.start_flow(1e6, &half_cap);
  EXPECT_EQ(fine.next_completion_time(0.0), kInf);

  // An uncapped flow beside the dead one still completes: it gets half of
  // the uplink's 50 Mbps from t = 1, so 1 MB lands at 1 + 8 / 25 s.
  const std::uint64_t live = link.start_flow(1e6);
  const double t = link.next_completion_time(0.0);
  EXPECT_NEAR(t, 1.32, 1e-9);
  const auto done = link.advance(0.0, t);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, live);
  EXPECT_EQ(link.next_completion_time(t), kInf);
}

TEST(SharedLinkTest, CapThatMeetsTheUplinkOnlyAtAPeriodOffsetIsLive) {
  // Uplink period 2 s (up on odd seconds), cap period 3 s (up in the first
  // second of each): both are up only in [3, 4) of their common 6 s
  // period. 1 MB = 8 Mbit at 50 Mbps completes 0.16 s into that second.
  const BandwidthTrace cap({50.0, 0.0, 0.0}, 1.0);
  SharedLink link(BandwidthTrace({0.0, 50.0}, 1.0));
  link.start_flow(1e6, &cap);
  const double t = link.next_completion_time(0.0);
  EXPECT_NEAR(t, 3.16, 1e-9);
  const auto done = link.advance(0.0, t);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].time, t);
}

TEST(SharedLinkTest, IncommensurateUplinkAndCapStayLive) {
  // 1 s uplink samples against 0.7 s cap samples share no integer grid, so
  // the flow stays live and the walk finds their overlap: the cap's second
  // live sample starts at 1.4 s, inside the uplink's live [1, 2).
  const BandwidthTrace cap({50.0, 0.0}, 0.7);
  SharedLink link(BandwidthTrace({0.0, 50.0}, 1.0));
  link.start_flow(1e6, &cap);
  const double t = link.next_completion_time(0.0);
  EXPECT_NEAR(t, 1.56, 1e-9);
  ASSERT_EQ(link.advance(0.0, t).size(), 1u);
}

TEST(SharedLinkTest, AdvanceCompletesExactlyAtThePeekedTime) {
  // The contract the fleet event loop relies on, bit for bit: after
  // t = next_completion_time(now), advance(now, t) delivers its first
  // completion at exactly t, and +inf means nothing completes however long
  // one waits. Random flow sets as in the horizon sweep, each driven
  // peek -> advance until it drains or the link stalls. The mostly-zero
  // uplink under the 0.01 s cap pauses for hundreds of cap segments at a
  // time without being dead; the all-zero cap kills the flows it carries.
  std::vector<double> mostly_zero(10, 0.0);
  mostly_zero[9] = 50.0;
  const std::vector<BandwidthTrace> uplinks = {
      BandwidthTrace::lte(40.0, 10.0, 60.0, 7),
      BandwidthTrace::stable(25.0, 60.0),
      BandwidthTrace({0.0, 6.0, 0.0, 0.0, 12.0}, 0.5),
      BandwidthTrace::lte(5.0, 2.0, 30.0, 9),
      BandwidthTrace(mostly_zero, 1.0)};
  const std::vector<BandwidthTrace> caps = {
      BandwidthTrace::lte(8.0, 3.0, 20.0, 11),
      BandwidthTrace::stable(6.0, 20.0),
      BandwidthTrace(std::vector<double>(100, 20.0), 0.01),
      BandwidthTrace({0.0}, 0.01)};
  const double scales[] = {1.0, 0.5, 0.0, 2.0};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  CounterRng rng(0x11C0DEu);
  std::size_t steps = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    SharedLink link(uplinks[rng.next(uplinks.size())]);
    link.set_rate_scale(scales[rng.next(4)]);
    const std::uint64_t flows = 1 + rng.next(8);
    for (std::uint64_t f = 0; f < flows; ++f) {
      const double bytes =
          rng.next(10) == 0 ? 0.0 : 1e4 + double(rng.uniform()) * 4e6;
      const BandwidthTrace* cap =
          rng.next(3) == 0 ? &caps[rng.next(caps.size())] : nullptr;
      link.start_flow(bytes, cap);
    }
    double now = double(rng.uniform()) * 20.0;
    if (rng.next(2) == 0) link.advance(0.0, now);
    while (link.active_flows() > 0) {
      const double t = link.next_completion_time(now);
      if (!std::isfinite(t)) {
        // Longer than any uplink or cap period above.
        EXPECT_TRUE(link.advance(now, now + 100.0).empty())
            << "trial " << trial;
        break;
      }
      const std::size_t before = link.active_flows();
      const auto done = link.advance(now, t);
      ASSERT_FALSE(done.empty()) << "trial " << trial << " t " << t;
      EXPECT_EQ(bits(done[0].time), bits(t)) << "trial " << trial;
      EXPECT_EQ(link.active_flows(), before - done.size());
      now = t;
      ++steps;
    }
  }
  // Most sets drain through several completions each.
  EXPECT_GT(steps, 4000u);
}

TEST(SharedLinkTest, AdvanceAfterPeekMatchesAdvanceWithoutPeek) {
  // advance adopts the walk of the peek before it. Twin links get the same
  // calls, except that `peeked` also peeks before every step; their
  // completions and drain totals must match bit for bit. Between a peek
  // and the advance, the steps mix in everything that must discard the
  // kept walk: a flow start, an abort, a rate-scale flip, an advance short
  // of the peeked time, and a peek from another start.
  const std::vector<BandwidthTrace> uplinks = {
      BandwidthTrace::lte(40.0, 10.0, 60.0, 7),
      BandwidthTrace::stable(25.0, 60.0),
      BandwidthTrace({0.0, 6.0, 0.0, 0.0, 12.0}, 0.5)};
  const std::vector<BandwidthTrace> caps = {
      BandwidthTrace::lte(8.0, 3.0, 20.0, 11),
      BandwidthTrace(std::vector<double>(100, 20.0), 0.01)};
  const double scales[] = {1.0, 0.5, 0.0, 2.0};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  CounterRng rng(0xAD097u);
  std::size_t completions = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const BandwidthTrace& uplink = uplinks[rng.next(uplinks.size())];
    SharedLink plain(uplink);
    SharedLink peeked(uplink);
    std::vector<std::uint64_t> live;
    const auto start = [&]() {
      const double bytes =
          rng.next(10) == 0 ? 0.0 : 1e4 + double(rng.uniform()) * 2e6;
      const BandwidthTrace* cap =
          rng.next(3) == 0 ? &caps[rng.next(caps.size())] : nullptr;
      live.push_back(plain.start_flow(bytes, cap));
      EXPECT_EQ(peeked.start_flow(bytes, cap), live.back());
    };
    const auto advance = [&](double now, double until) {
      const auto want = plain.advance(now, until);
      const auto got = peeked.advance(now, until);
      ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
      for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(got[k].id, want[k].id) << "trial " << trial;
        EXPECT_EQ(bits(got[k].time), bits(want[k].time)) << "trial " << trial;
        std::erase(live, want[k].id);
      }
      completions += want.size();
      EXPECT_EQ(bits(peeked.bits_drained()), bits(plain.bits_drained()))
          << "trial " << trial;
    };
    for (std::uint64_t f = 1 + rng.next(4); f > 0; --f) start();
    double now = 0.0;
    for (int step = 0; step < 24; ++step) {
      const double t = peeked.next_completion_time(now);
      const double until = std::isfinite(t) ? t : now + 1.0;
      switch (rng.next(8)) {
        case 0:
          start();
          break;
        case 1:
          if (!live.empty()) {
            const std::uint64_t id = live[rng.next(live.size())];
            EXPECT_EQ(bits(peeked.abort_flow(id)), bits(plain.abort_flow(id)));
            std::erase(live, id);
          }
          break;
        case 2: {
          const double scale = scales[rng.next(4)];
          plain.set_rate_scale(scale);
          peeked.set_rate_scale(scale);
          break;
        }
        case 3: {  // stop short of the peeked time, then go on to it
          const double mid = now + (until - now) * double(rng.uniform());
          advance(now, mid);
          now = mid;
          break;
        }
        case 4: {  // re-peek from a later start, advance from `now`
          const double later = peeked.next_completion_time(now + 0.125);
          advance(now, std::isfinite(later) ? later : until);
          now = std::max(now, std::isfinite(later) ? later : until);
          continue;
        }
        default:
          break;
      }
      advance(now, until);
      now = std::max(now, until);
    }
    for (const std::uint64_t id : live) {
      EXPECT_EQ(bits(peeked.abort_flow(id)), bits(plain.abort_flow(id)))
          << "trial " << trial;
    }
    EXPECT_EQ(bits(peeked.bits_drained()), bits(plain.bits_drained()));
    EXPECT_EQ(bits(peeked.bytes_completed()), bits(plain.bytes_completed()));
  }
  // The peeks must have had completions to adopt.
  EXPECT_GT(completions, 1000u);
}

TEST(SharedLinkTest, SyncResumeMatchesPlainWalk) {
  // run_fleet syncs a link to `now` mid-projection before it starts, aborts
  // or re-rates a flow; inside the kept projection's first rate segment the
  // link drains at that segment's rates instead of walking. Twin links get
  // the same calls, except that `peeked` peeks before every step and
  // `plain` never does. Most steps sync both to an instant short of the
  // projection: one that crosses 0, 1 or several uplink segment edges, or
  // one a few ulps before the projected completion. The rest mutate the
  // link at the peeked instant itself, as run_fleet does on a link it
  // already synced. Completions, drain totals and abort returns must match
  // bit for bit.
  const std::vector<BandwidthTrace> uplinks = {
      BandwidthTrace::lte(40.0, 10.0, 60.0, 7),
      BandwidthTrace::stable(25.0, 60.0),
      BandwidthTrace({0.0, 6.0, 0.0, 0.0, 12.0}, 0.5)};
  // On the uplinks' 0.5 s grid, and one much finer.
  const std::vector<BandwidthTrace> caps = {
      BandwidthTrace::lte(8.0, 3.0, 20.0, 11),
      BandwidthTrace(std::vector<double>(100, 20.0), 0.01)};
  const double scales[] = {1.0, 0.5, 0.0, 2.0};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::size_t resumed = 0;
  std::size_t walked = 0;
  std::size_t rounded = 0;
  std::size_t completions = 0;
  // Runs one sync on both twins and checks them against each other.
  const auto sync = [&](SharedLink& plain, SharedLink& peeked, double now,
                        double until, int trial) {
    const auto want = plain.advance(now, until);
    const auto got = peeked.advance(now, until);
    EXPECT_EQ(got.size(), want.size()) << "trial " << trial;
    for (std::size_t k = 0; k < std::min(got.size(), want.size()); ++k) {
      EXPECT_EQ(got[k].id, want[k].id) << "trial " << trial;
      EXPECT_EQ(bits(got[k].time), bits(want[k].time)) << "trial " << trial;
    }
    completions += want.size();
    EXPECT_EQ(bits(peeked.bits_drained()), bits(plain.bits_drained()))
        << "trial " << trial;
    return want;
  };

  CounterRng rng(0x5E5C0u);
  for (int trial = 0; trial < 1000; ++trial) {
    const BandwidthTrace& uplink = uplinks[rng.next(uplinks.size())];
    SharedLink plain(uplink);
    SharedLink peeked(uplink);
    std::vector<std::uint64_t> live;
    const auto start = [&]() {
      const double bytes =
          rng.next(10) == 0 ? 0.0 : 1e4 + double(rng.uniform()) * 2e6;
      const BandwidthTrace* cap = nullptr;
      if (rng.next(4) == 0) cap = &caps[rng.next(8) == 0 ? 1 : 0];
      live.push_back(plain.start_flow(bytes, cap));
      EXPECT_EQ(peeked.start_flow(bytes, cap), live.back());
    };
    const auto advance = [&](double now, double until) {
      for (const SharedLink::Completion& done :
           sync(plain, peeked, now, until, trial)) {
        std::erase(live, done.id);
      }
    };
    for (std::uint64_t f = 1 + rng.next(4); f > 0; --f) start();
    double now = rng.next(2) == 0 ? 0.0 : double(rng.uniform()) * 5.0;
    if (now > 0.0) advance(0.0, now);
    for (int step = 0; step < 24; ++step) {
      const double t = peeked.next_completion_time(now);
      if (rng.next(4) != 0) {
        double at = now;
        if (rng.next(4) == 0 && std::isfinite(t)) {
          at = t;
          for (std::uint64_t k = 1 + rng.next(3); k > 0; --k) {
            at = std::nextafter(at, 0.0);
          }
        } else {
          const std::uint64_t kind = rng.next(3);
          for (std::uint64_t e = kind < 2 ? kind : 2 + rng.next(4); e > 0;
               --e) {
            at = uplink.next_edge_after(at);
          }
          at += (uplink.next_edge_after(at) - at) * double(rng.uniform());
        }
        if (at >= t) at = now + (t - now) * double(rng.uniform());
        at = std::max(at, now);
        const std::uint64_t walks = peeked.walks();
        const std::size_t before = live.size();
        advance(now, at);
        if (at < t && live.size() < before) ++rounded;
        ++(peeked.walks() == walks ? resumed : walked);
        now = at;
      }
      switch (live.size() < 2 ? 0 : rng.next(4)) {
        case 0:
          start();
          break;
        case 1: {
          const std::uint64_t id = live[rng.next(live.size())];
          EXPECT_EQ(bits(peeked.abort_flow(id)), bits(plain.abort_flow(id)))
              << "trial " << trial;
          std::erase(live, id);
          break;
        }
        case 2: {
          const double scale = scales[rng.next(4)];
          plain.set_rate_scale(scale);
          peeked.set_rate_scale(scale);
          break;
        }
        default: {  // a projection from a later instant, then a sync to it
          const double later = now + 0.25 * double(rng.uniform());
          peeked.next_completion_time(later);
          advance(now, later);
          now = later;
          break;
        }
      }
      const double next = peeked.next_completion_time(now);
      const double until = std::isfinite(next) ? next : now + 1.0;
      advance(now, until);
      now = until;
    }
    for (const std::uint64_t id : live) {
      EXPECT_EQ(bits(peeked.abort_flow(id)), bits(plain.abort_flow(id)))
          << "trial " << trial;
    }
    EXPECT_EQ(bits(peeked.bits_drained()), bits(plain.bits_drained()));
    EXPECT_EQ(bits(peeked.bytes_completed()), bits(plain.bytes_completed()));
  }

  // One flow on a 25 Mbps link from `start`, synced one ulp before its
  // projected completion inside the first segment. Depending on how the
  // drain rounds, the flow is left with a remainder at or below zero, or
  // with one so small that its completion time rounds to the sync instant;
  // either way it completes at the sync, on both twins. Both cases occur
  // in this sweep, and so do remainders strictly below zero, which walk
  // completes without adding them to the drain total.
  for (const double start : {0.0, 0.25, 0.3, 2.25}) {
    for (int k = 0; k < 1400; ++k) {
      const double bytes = 1e4 + double(k) * 1537.0;
      SharedLink plain(BandwidthTrace::stable(25.0, 60.0));
      SharedLink peeked(BandwidthTrace::stable(25.0, 60.0));
      plain.start_flow(bytes);
      peeked.start_flow(bytes);
      const double t = peeked.next_completion_time(start);
      const double at = std::nextafter(t, 0.0);
      const std::uint64_t walks = peeked.walks();
      if (!sync(plain, peeked, start, at, k).empty()) {
        ++rounded;
        continue;
      }
      // Inside the first segment, the sync that completes nothing resumes.
      if (t < std::floor(start) + 1.0) {
        EXPECT_EQ(peeked.walks(), walks) << bytes;
        ++resumed;
      }
      sync(plain, peeked, at, t, k);
      EXPECT_EQ(bits(peeked.bits_drained()), bits(plain.bits_drained()));
    }
  }

  // Syncs one to four ulps short of an edge of a 0.01 s cap that is off in
  // every other cell, before and after the uplink and the cap wrap. The
  // walk's pass at `until` reads the rates there, and a double just short
  // of an edge can index the next cell (it is off) while floor(until / dt)
  // still puts the edge after it; the sweep includes every start in the
  // cap's first period whose edge is such a one. The flow is sized to
  // finish within a few hundred ulps of the edge, so some syncs leave it a
  // remainder that rounds to done at the sync.
  std::vector<double> on_off(100, 20.0);
  for (std::size_t k = 1; k < on_off.size(); k += 2) on_off[k] = 0.0;
  const BandwidthTrace blink(on_off, 0.01);
  std::vector<double> starts = {0.005, 0.965, 61.245, 125.505};
  for (int j = 0; j < 100; j += 2) {
    const double start = (j + 0.5) * 0.01;
    const double edge = blink.next_edge_after(start);
    if (blink.bandwidth_at(std::nextafter(edge, 0.0)) == 0.0) {
      starts.push_back(start);
    }
  }
  ASSERT_GT(starts.size(), 4u);
  std::size_t edge_resumed = 0;
  for (const double start : starts) {
    const double edge = blink.next_edge_after(start);
    double bytes = 20e6 * (edge - start) / 8.0;
    for (int k = 0; k < 200; ++k) bytes = std::nextafter(bytes, 0.0);
    for (int k = 0; k < 400; ++k) {
      bytes = std::nextafter(bytes, 1e300);
      for (int ulps = 1; ulps <= 4; ++ulps) {
        SharedLink plain(BandwidthTrace::stable(25.0, 60.0));
        SharedLink peeked(BandwidthTrace::stable(25.0, 60.0));
        plain.start_flow(bytes, &blink);
        peeked.start_flow(bytes, &blink);
        const double t = peeked.next_completion_time(start);
        double at = std::min(t, edge);
        for (int u = 0; u < ulps; ++u) at = std::nextafter(at, 0.0);
        const std::uint64_t walks = peeked.walks();
        if (!sync(plain, peeked, start, at, k).empty()) ++rounded;
        if (peeked.walks() == walks) ++edge_resumed;
        const double next = peeked.next_completion_time(at);
        sync(plain, peeked, at, next, k);
        EXPECT_EQ(bits(peeked.bytes_completed()),
                  bits(plain.bytes_completed()));
      }
    }
  }
  EXPECT_GT(edge_resumed, 4000u);

  // Every sync kind must have run: resumed inside the first segment, walked
  // across an edge, and completed a flow that rounded to done at the sync.
  EXPECT_GT(resumed, 2000u);
  EXPECT_GT(walked, 1000u);
  EXPECT_GT(rounded, 20u);
  EXPECT_GT(completions, 2000u);
}

TEST(SharedLinkTest, SimultaneousCompletionAfterAdoptedPeek) {
  // 12 Mbps over three flows is 4 Mbit/s each, so the two 4 Mbit flows both
  // finish at exactly t = 1 and the 8 Mbit one at 1 + 4/12. advance(0, 1)
  // adopts the peek, completes flow 1, and finds flow 2 due at the same
  // instant with a peek from 1 rather than a second walk. The peek after
  // that is the projection for the survivor, kept for the caller: asking
  // for it walks no more.
  SharedLink link(BandwidthTrace::stable(12.0));
  SharedLink plain(BandwidthTrace::stable(12.0));
  for (SharedLink* l : {&link, &plain}) {
    l->start_flow(5e5);
    l->start_flow(5e5);
    l->start_flow(1e6);
  }
  const double t = link.next_completion_time(0.0);
  EXPECT_EQ(t, 1.0);
  const std::vector<SharedLink::Completion> done = link.advance(0.0, t);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].id, 1u);
  EXPECT_EQ(done[1].id, 2u);
  EXPECT_EQ(done[0].time, t);
  EXPECT_EQ(done[1].time, t);
  const std::uint64_t walks = link.walks();
  const double next = link.next_completion_time(t);
  EXPECT_EQ(link.walks(), walks);
  EXPECT_DOUBLE_EQ(next, 1.0 + 4.0 / 12.0);

  const std::vector<SharedLink::Completion> want = plain.advance(0.0, t);
  ASSERT_EQ(want.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(done[k].id, want[k].id);
    EXPECT_EQ(done[k].time, want[k].time);
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(link.bits_drained()),
            std::bit_cast<std::uint64_t>(plain.bits_drained()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(next),
            std::bit_cast<std::uint64_t>(plain.next_completion_time(t)));
  const auto last = link.advance(t, next);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].id, 3u);
  EXPECT_EQ(link.active_flows(), 0u);
}

TEST(FleetTest, DeadUplinkFlagsTruncatedRun) {
  FleetConfig fleet;
  SessionConfig session = small_session(SystemKind::kRaw);
  session.max_chunks = 5;
  fleet.clients.push_back({session, 0.0, {}, nullptr});
  fleet.replica_uplinks = {BandwidthTrace({0.0, 0.0}, 1.0)};
  const FleetResult result = run_fleet(fleet);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.unfinished_sessions, 1u);
}

TEST(FleetTest, DeadDownlinkUnderAPausedUplinkFlagsTruncatedRun) {
  // The client's access link is up only when the uplink is down, so its
  // flows never drain. Each peek answers +inf at once, and the run ends
  // truncated well inside the wall bound instead of walking 10M segments
  // per peek.
  FleetConfig fleet;
  SessionConfig session = small_session(SystemKind::kRaw);
  session.max_chunks = 5;
  fleet.clients.push_back(
      {session, 0.0, BandwidthTrace({50.0, 0.0}, 1.0), nullptr});
  fleet.replica_uplinks = {BandwidthTrace({0.0, 50.0}, 1.0)};
  const Timer timer;
  const FleetResult result = run_fleet(fleet);
  EXPECT_LT(timer.elapsed_ms(), 1000.0);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.unfinished_sessions, 1u);
}

TEST(FleetTest, PausedUplinkUnderAFineCapStillServesEveryone) {
  // The uplink carries nothing for [0, 9) s of its 10 s period, and client 0
  // sits behind a 20 Mbps access link sampled every 0.01 s, so a peek walks
  // hundreds of idle cap segments before capacity returns. The link is
  // paused, not dead: every session, the 9.2 s arrival included, finishes
  // inside the first live second.
  std::vector<double> uplink(10, 0.0);
  uplink[9] = 50.0;
  SessionConfig session;
  session.kind = SystemKind::kRaw;
  session.video = VideoSpec::dress(0.01);
  session.max_chunks = 6;
  FleetConfig fleet;
  for (const double arrival : {0.0, 0.5, 1.0, 9.2}) {
    fleet.clients.push_back({session, arrival, {}, nullptr});
  }
  fleet.clients[0].downlink =
      BandwidthTrace(std::vector<double>(100, 20.0), 0.01);
  fleet.replica_uplinks = {BandwidthTrace(uplink, 1.0)};
  FleetResult result;
  ASSERT_NO_THROW(result = run_fleet(fleet));
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.unfinished_sessions, 0u);
  EXPECT_GT(result.sim_seconds, 9.2);
  EXPECT_LT(result.sim_seconds, 10.0);
}

TEST(FleetTest, HealthyRunReportsCompleted) {
  FleetConfig fleet;
  fleet.clients.push_back(
      {small_session(SystemKind::kRaw), 0.0, {}, nullptr});
  fleet.replica_uplinks = {BandwidthTrace::stable(100.0, 600.0)};
  const FleetResult result = run_fleet(fleet);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.unfinished_sessions, 0u);
}

TEST(EncodeQueueTest, AbandonedEncodeStillLandsInCacheAndIsCounted) {
  EncodeQueue queue(1, 1000);
  queue.request(key_of(0), 100, /*now=*/0.0, /*encode_seconds=*/1.0);
  queue.request(key_of(0), 100, 0.2, 1.0);  // coalesced second waiter
  // Both requesters depart mid-encode (sessions failed over or died).
  queue.abandon(key_of(0));
  queue.abandon(key_of(0));
  const auto settled = queue.complete_until(1.0);
  ASSERT_EQ(settled.size(), 1u);
  EXPECT_TRUE(settled[0].success);
  EXPECT_EQ(queue.stats().abandoned, 1u);
  EXPECT_EQ(queue.stats().completions, 1u);
  // The work was paid for: the artifact is resident and the next request
  // of the key is a plain hit.
  EXPECT_EQ(queue.key_state(key_of(0)), EncodeQueue::KeyState::kResident);
  EXPECT_TRUE(queue.request(key_of(0), 100, 1.5, 1.0).hit);
}

TEST(EncodeQueueTest, DepartureOfOneWaiterIsNotAbandonment) {
  EncodeQueue queue(1, 1000);
  queue.request(key_of(0), 100, 0.0, 1.0);
  queue.request(key_of(0), 100, 0.2, 1.0);
  queue.abandon(key_of(0));  // one of two waiters departs
  queue.complete_until(1.0);
  EXPECT_EQ(queue.stats().abandoned, 0u);
  // Abandoning a key that is not in flight is a no-op.
  queue.abandon(key_of(3));
  EXPECT_EQ(queue.stats().abandoned, 0u);
}

TEST(EncodeQueueTest, FailedAttemptsRetryUnderCappedExponentialBackoff) {
  EncodeQueue queue(1, 1000);
  EncodeFaultPolicy policy;
  policy.attempt_fails = [](std::uint64_t, std::uint32_t attempt) {
    return attempt <= 2;  // first two attempts fail, third succeeds
  };
  policy.max_attempts = 4;
  policy.backoff_base_seconds = 0.25;
  policy.backoff_cap_seconds = 4.0;
  queue.set_fault_policy(policy);

  const auto decision = queue.request(key_of(0), 100, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(decision.ready_at, 1.0);
  // Attempt 1 fails at 1.0: backoff 0.25, re-run -> ready 2.25.
  auto settled = queue.complete_until(1.0);
  ASSERT_EQ(settled.size(), 1u);
  EXPECT_FALSE(settled[0].success);
  EXPECT_FALSE(settled[0].terminal);
  EXPECT_EQ(settled[0].attempt, 1u);
  EXPECT_EQ(queue.key_state(key_of(0)), EncodeQueue::KeyState::kInFlight);
  EXPECT_DOUBLE_EQ(queue.in_flight_ready_at(key_of(0)), 2.25);
  // Attempt 2 fails at 2.25: backoff 0.5 (doubled), re-run -> ready 3.75.
  settled = queue.complete_until(2.25);
  ASSERT_EQ(settled.size(), 1u);
  EXPECT_EQ(settled[0].attempt, 2u);
  EXPECT_DOUBLE_EQ(queue.in_flight_ready_at(key_of(0)), 3.75);
  // Attempt 3 succeeds; the artifact finally lands.
  settled = queue.complete_until(3.75);
  ASSERT_EQ(settled.size(), 1u);
  EXPECT_TRUE(settled[0].success);
  EXPECT_EQ(settled[0].attempt, 3u);
  EXPECT_EQ(queue.key_state(key_of(0)), EncodeQueue::KeyState::kResident);
  EXPECT_EQ(queue.stats().failures, 2u);
  EXPECT_EQ(queue.stats().retries, 2u);
  EXPECT_EQ(queue.stats().exhausted, 0u);
  EXPECT_EQ(queue.stats().completions, 1u);
}

TEST(EncodeQueueTest, ExhaustedAttemptsTurnTerminalUntilRefetch) {
  EncodeQueue queue(1, 1000);
  EncodeFaultPolicy policy;
  policy.attempt_fails = [](std::uint64_t, std::uint32_t) { return true; };
  policy.max_attempts = 2;
  policy.backoff_base_seconds = 0.25;
  queue.set_fault_policy(policy);

  queue.request(key_of(0), 100, 0.0, 1.0);
  const auto settled = queue.complete_until(10.0);
  ASSERT_EQ(settled.size(), 2u);
  EXPECT_TRUE(settled[1].terminal);
  EXPECT_EQ(queue.key_state(key_of(0)), EncodeQueue::KeyState::kFailed);
  EXPECT_EQ(queue.stats().exhausted, 1u);
  EXPECT_EQ(queue.stats().completions, 0u);
  // A fresh request clears the terminal failure and re-encodes from scratch.
  const auto retry = queue.request(key_of(0), 100, 20.0, 1.0);
  EXPECT_FALSE(retry.hit);
  EXPECT_FALSE(retry.coalesced);
  EXPECT_EQ(queue.key_state(key_of(0)), EncodeQueue::KeyState::kInFlight);
}

TEST(SharedLinkTest, RateScaleThrottlesAndBlackoutPausesFlows) {
  SharedLink link(BandwidthTrace::stable(8.0));  // 1 MB/s
  link.start_flow(1e6);
  EXPECT_DOUBLE_EQ(link.next_completion_time(0.0), 1.0);

  link.set_rate_scale(0.5);  // brownout: half capacity
  EXPECT_DOUBLE_EQ(link.next_completion_time(0.0), 2.0);
  EXPECT_DOUBLE_EQ(link.share_mbps(0.0), 0.5 * 8.0 / 2.0);

  link.set_rate_scale(0.0);  // blackout: flows stall in place
  EXPECT_EQ(link.next_completion_time(0.0),
            std::numeric_limits<double>::infinity());
  EXPECT_TRUE(link.advance(0.0, 5.0).empty());
  EXPECT_EQ(link.active_flows(), 1u);

  link.set_rate_scale(1.0);  // restore: remaining bytes drain at full rate
  const auto done = link.advance(5.0, 6.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].time, 6.0);

  EXPECT_THROW(link.set_rate_scale(-0.1), std::invalid_argument);
  EXPECT_THROW(link.set_rate_scale(std::nan("")), std::invalid_argument);
}

TEST(SharedLinkTest, AbortFlowDiscardsPartialBytesAndFreesShare) {
  SharedLink link(BandwidthTrace::stable(8.0));  // 1 MB/s shared
  const std::uint64_t a = link.start_flow(1e6);
  const std::uint64_t b = link.start_flow(1e6);
  link.advance(0.0, 1.0);  // each flow got 0.5 MB

  const double discarded = link.abort_flow(a);
  EXPECT_NEAR(discarded, 5e5, 1.0);
  EXPECT_EQ(link.active_flows(), 1u);

  // The survivor now owns the whole link: 0.5 MB left at 1 MB/s.
  EXPECT_NEAR(link.next_completion_time(1.0), 1.5, 1e-9);
  const auto done = link.advance(1.0, 2.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, b);
  // Aborted bytes stay in the drain accounting but not in completions.
  EXPECT_NEAR(link.bytes_completed(), 1e6, 1.0);
  EXPECT_NEAR(link.bits_drained(), (1e6 + 5e5) * 8.0, 8.0);

  EXPECT_THROW(link.abort_flow(a), std::invalid_argument);  // already gone
  EXPECT_THROW(link.abort_flow(999), std::invalid_argument);
}

TEST(FleetTest, RequiresAtLeastOneReplica) {
  FleetConfig fleet;
  fleet.clients.push_back(
      {small_session(SystemKind::kRaw), 0.0, {}, nullptr});
  EXPECT_THROW(run_fleet(fleet), std::invalid_argument);
}

}  // namespace
}  // namespace volut
