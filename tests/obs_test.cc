// Unit tests for the observability layer (src/obs/): metrics registry
// exactness under pool hammering and JSON shape, trace JSON shape,
// and fleet EventLog semantics including bit-identity across worker counts.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/platform/thread_pool.h"
#include "src/serve/fleet.h"

namespace volut {
namespace {

TEST(MetricsRegistryTest, CounterExactUnderPoolHammering) {
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& counter = reg.counter("obs_test/hammer");
  counter.reset();
  ThreadPool pool(8);
  constexpr std::size_t kN = 200'000;
  pool.parallel_for(
      kN,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) counter.add();
      },
      /*min_grain=*/64);
#if VOLUT_OBS_ENABLED
  EXPECT_EQ(counter.value(), kN);
#else
  EXPECT_EQ(counter.value(), 0u);
#endif
}

TEST(MetricsRegistryTest, HandlesAreStableAcrossReset) {
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& before = reg.counter("obs_test/stable");
  before.add(3);
  reg.reset();
  Counter& after = reg.counter("obs_test/stable");
  EXPECT_EQ(&before, &after);
  EXPECT_EQ(after.value(), 0u);  // reset zeroes but keeps the registration
  after.add(2);
#if VOLUT_OBS_ENABLED
  EXPECT_EQ(reg.counter_value("obs_test/stable"), 2u);
#endif
}

TEST(MetricsRegistryTest, ExpositionShapes) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("obs_test/json").add(1);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"schema\": \"volut-metrics-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test/json\""), std::string::npos);
  // Counters only: no gauge or histogram objects.
  EXPECT_EQ(json.find("\"gauges\""), std::string::npos);
  EXPECT_EQ(json.find("\"histograms\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

TEST(TraceTest, SpansRecordChromeTraceEvents) {
  TraceCollector& collector = TraceCollector::global();
  collector.start();
  {
    TraceSpan outer("obs_test/outer");
    {
      TraceSpan inner("obs_test/inner");
    }
    ThreadPool pool(4);
    pool.parallel_for(
        8, [](std::size_t, std::size_t) { TraceSpan span("obs_test/pool"); },
        /*min_grain=*/1);
  }
  collector.stop();
#if VOLUT_OBS_ENABLED
  EXPECT_GE(collector.event_count(), 3u);
#else
  EXPECT_EQ(collector.event_count(), 0u);
#endif
  const std::string json = collector.to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
#if VOLUT_OBS_ENABLED
  EXPECT_NE(json.find("\"obs_test/inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
#endif
}

TEST(TraceTest, SpanMeasuresWithoutCollection) {
  TraceCollector::global().stop();
  TraceSpan span("obs_test/uncollected");
  const double first = span.stop_ms();
  EXPECT_GE(first, 0.0);
  EXPECT_DOUBLE_EQ(span.stop_ms(), first);  // idempotent
  EXPECT_DOUBLE_EQ(span.elapsed_ms(), first);
}

TEST(TraceTest, StartClearsPreviousCollection) {
  TraceCollector& collector = TraceCollector::global();
  collector.start();
  { TraceSpan span("obs_test/first"); }
  collector.start();  // re-arm: previous events dropped
  collector.stop();
  EXPECT_EQ(collector.event_count(), 0u);
}

// Regression for the epoch data race the thread-safety annotation pass
// surfaced: now_us() read the collection epoch unguarded while start()
// rewrote it under the collector mutex, so a span opening concurrently with
// a restart raced on the anchor (UB; visible to the TSan CI leg). The epoch
// is now an atomic tick count — this test hammers exactly that interleaving
// (pool threads opening/closing spans while the main thread re-anchors) and
// must stay clean under -DVOLUT_SANITIZE=thread.
TEST(TraceTest, TraceRestartWhileSpansActive) {
  TraceCollector& collector = TraceCollector::global();
  ThreadPool pool(4);
  collector.start();
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(
        16,
        [](std::size_t, std::size_t) { TraceSpan span("obs_test/race"); },
        /*min_grain=*/1);
    collector.start();  // re-anchor while spans may be mid-flight
  }
  pool.wait_idle();
  collector.stop();
  // Timestamps of surviving events are measured against a coherent anchor:
  // every span recorded after the final re-anchor has a sane microsecond
  // offset (the race used to make these garbage, not just torn).
  const std::string json = collector.to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // No negative start timestamps: every surviving event was stamped against
  // a coherent (not torn/stale-mixed) anchor.
  EXPECT_EQ(json.find("\"ts\": -"), std::string::npos);
}

// ---------------------------------------------------------------------------
// EventLog
// ---------------------------------------------------------------------------

TEST(EventLogTest, RecordsInOrderWithTypeCounts) {
  EventLog log(/*capacity=*/8);
  log.record(0.5, FleetEventType::kAdmit, 0, 1);
  log.record(1.0, FleetEventType::kCacheMiss, 0, 1);
  log.record(1.0, FleetEventType::kEncodeStart, 0, 1, 0.040);
  EXPECT_EQ(log.recorded(), 3u);
  EXPECT_EQ(log.dropped(), 0u);
  const std::vector<FleetEvent> events = log.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, FleetEventType::kAdmit);
  EXPECT_DOUBLE_EQ(events[2].value, 0.040);
  EXPECT_EQ(log.type_count(FleetEventType::kAdmit), 1u);
  EXPECT_EQ(log.type_count(FleetEventType::kCacheMiss), 1u);
  EXPECT_EQ(log.type_count(FleetEventType::kReject), 0u);
}

TEST(EventLogTest, RingDropsOldestButKeepsTotals) {
  EventLog log(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    log.record(double(i), FleetEventType::kChunkRequest, 7, 0, double(i));
  }
  EXPECT_EQ(log.recorded(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  const std::vector<FleetEvent> events = log.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest retained first: 6, 7, 8, 9.
  EXPECT_DOUBLE_EQ(events.front().time, 6.0);
  EXPECT_DOUBLE_EQ(events.back().time, 9.0);
  // Per-type totals still cover every recorded event.
  EXPECT_EQ(log.type_count(FleetEventType::kChunkRequest), 10u);
}

TEST(EventLogTest, ZeroCapacityCountsWithoutRetention) {
  EventLog log(/*capacity=*/0);
  log.record(1.0, FleetEventType::kAdmit, 0);
  EXPECT_EQ(log.recorded(), 1u);
  EXPECT_TRUE(log.events().empty());
  EXPECT_EQ(log.type_count(FleetEventType::kAdmit), 1u);
}

TEST(EventLogTest, SessionJsonFiltersAndNamesAreStable) {
  EventLog log(/*capacity=*/16);
  log.record(0.0, FleetEventType::kAdmit, 1, 0);
  log.record(0.5, FleetEventType::kAdmit, 2, 1);
  log.record(1.0, FleetEventType::kRebufferStart, 1, 0, 0.25);
  const std::string all = log.to_json();
  EXPECT_NE(all.find("\"schema\": \"volut-fleet-events-v1\""),
            std::string::npos);
  EXPECT_NE(all.find("\"type\": \"rebuffer_start\""), std::string::npos);
  const std::string s1 = log.session_json(1);
  EXPECT_NE(s1.find("\"type\": \"rebuffer_start\""), std::string::npos);
  EXPECT_EQ(s1.find("\"session\": 2"), std::string::npos);
  const std::string s9 = log.session_json(9);
  EXPECT_EQ(s9.find("\"type\": \"admit\""), std::string::npos);
  // Per-type totals describe the whole log in every export.
  EXPECT_NE(s9.find("\"admit\": 2, "), std::string::npos);
}

TEST(EventLogTest, EqualityComparesCountsAndRetainedEvents) {
  EventLog a(4), b(4);
  a.record(1.0, FleetEventType::kAdmit, 0);
  b.record(1.0, FleetEventType::kAdmit, 0);
  EXPECT_TRUE(a == b);
  b.record(2.0, FleetEventType::kReject, 1);
  EXPECT_FALSE(a == b);
}

TEST(EventLogTest, WrapCursorMatchesModulo) {
  // Once full, the ring overwrites its oldest slot. A reference ring that
  // writes event k to slot k % capacity and reads from slot
  // recorded % capacity must agree with events() exactly full, one past
  // full and after several wraps, and operator== must see the retained
  // events but not the dropped ones.
  constexpr std::size_t kCapacity = 5;
  const auto event_at = [](std::size_t k, double value) {
    return FleetEvent{double(k), FleetEventType::kChunkRequest,
                      std::uint32_t(k % 3), 0, value};
  };
  const auto record = [](EventLog& log, const FleetEvent& e) {
    log.record(e.time, e.type, e.session, e.replica, e.value);
  };
  for (const std::size_t n : {kCapacity, kCapacity + 1, 4 * kCapacity + 2}) {
    EventLog log(kCapacity);
    EventLog dropped_differs(kCapacity);
    EventLog retained_differs(kCapacity);
    std::vector<FleetEvent> ring(kCapacity);
    for (std::size_t k = 0; k < n; ++k) {
      const FleetEvent e = event_at(k, double(k));
      record(log, e);
      ring[k % kCapacity] = e;
      record(dropped_differs, k == 0 && n > kCapacity ? event_at(k, -1.0) : e);
      record(retained_differs, k + 1 == n ? event_at(k, -1.0) : e);
    }
    std::vector<FleetEvent> want;
    for (std::size_t k = 0; k < kCapacity; ++k) {
      want.push_back(ring[(n + k) % kCapacity]);
    }
    EXPECT_EQ(log.events(), want) << n << " recorded";
    EXPECT_EQ(log.dropped(), n - kCapacity);
    EXPECT_TRUE(log == dropped_differs) << n << " recorded";
    EXPECT_FALSE(log == retained_differs) << n << " recorded";
  }
}

// ---------------------------------------------------------------------------
// Fleet timeline determinism
// ---------------------------------------------------------------------------

FleetConfig small_fleet() {
  FleetConfig fleet;
  fleet.clients = make_mixed_fleet(/*n=*/12, /*arrival_spacing=*/0.25,
                                   /*max_chunks=*/6, /*video_scale=*/0.01);
  fleet.replica_uplinks = {BandwidthTrace::lte(120.0, 25.0, 600.0, 31),
                           BandwidthTrace::lte(120.0, 25.0, 600.0, 32)};
  fleet.rtt_seconds = 0.020;
  fleet.max_sessions_per_replica = 3;
  fleet.max_wait_seconds = std::numeric_limits<double>::infinity();
  fleet.cache_budget_bytes = 8u << 20;
  fleet.shard_cache_per_replica = true;
  fleet.encode_seconds_full = 0.040;
  return fleet;
}

TEST(EventLogTest, FleetTimelineBitIdenticalAcrossWorkerCounts) {
  const FleetConfig fleet = small_fleet();
  ThreadPool pool1(1);
  const FleetResult reference = run_fleet(fleet, &pool1);
  ASSERT_GT(reference.timeline_events, 0u);
  EXPECT_EQ(reference.timeline_events, reference.events.recorded());
  EXPECT_GT(reference.events.type_count(FleetEventType::kAdmit), 0u);
  EXPECT_GT(reference.events.type_count(FleetEventType::kDownloadFinish), 0u);

  for (std::size_t workers : {2u, 4u, 8u}) {
    ThreadPool pool(workers);
    const FleetResult run = run_fleet(fleet, &pool);
    EXPECT_TRUE(run.events == reference.events)
        << "timeline diverged @ " << workers << " workers";
    EXPECT_EQ(run.timeline_events, reference.timeline_events);
  }
}

TEST(EventLogTest, FleetTimelineMatchesRollups) {
  const FleetConfig fleet = small_fleet();
  const FleetResult result = run_fleet(fleet);
  const EventLog& events = result.events;
  EXPECT_EQ(events.type_count(FleetEventType::kAdmit), result.admitted);
  EXPECT_EQ(events.type_count(FleetEventType::kReject) +
                events.type_count(FleetEventType::kWaitTimeout),
            result.rejected);
  EXPECT_EQ(events.type_count(FleetEventType::kCacheHit), result.cache.hits);
  EXPECT_EQ(events.type_count(FleetEventType::kCacheMiss),
            result.cache.misses);
  EXPECT_EQ(events.type_count(FleetEventType::kEncodeStart),
            result.encode_queue.encode_starts);
  EXPECT_EQ(events.type_count(FleetEventType::kEncodeComplete),
            result.encode_queue.completions);
  EXPECT_EQ(events.type_count(FleetEventType::kSessionDone),
            result.admitted);
  // Every download that started also finished (the run completed).
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(events.type_count(FleetEventType::kDownloadStart),
            events.type_count(FleetEventType::kDownloadFinish));
}

}  // namespace
}  // namespace volut
