// Fault injection + failure recovery for the fleet serving layer.
//
// Five layers of coverage:
//   * FaultSchedule unit tests — window queries, stochastic determinism,
//     pure encode-failure draws, config validation;
//   * an empty-schedule regression pin — run_fleet with the default (empty)
//     fault config must reproduce the pre-fault-PR goldens bit for bit
//     (captured by tools/capture_fleet_golden.cc);
//   * recovery scenarios — replica crash (failover, waiting-room reuse,
//     FIFO ordering, exact-deadline admission), uplink blackout, and encode
//     failures (retry-until-success and terminal give-up), each proving the
//     timeline terminates and the accounting adds up;
//   * fault-edge timing and the circuit breaker — edges at time 0, edges
//     sharing an instant with other events, windows in a quiet gap, and
//     breaker resets exactly breaker_reset_seconds after their trips;
//   * event-derived accounting — the FleetResult totals read off the
//     EventLog stay exact, in the result and the JSON dump, when the ring
//     wraps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/serve/faults.h"
#include "src/serve/fleet.h"

namespace volut {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------- schedule

TEST(FaultScheduleTest, DefaultConfigIsEmpty) {
  EXPECT_TRUE(FaultScheduleConfig{}.empty());
  const FaultSchedule schedule;
  EXPECT_TRUE(schedule.empty());
  EXPECT_EQ(schedule.transition_count(), 0u);
  EXPECT_EQ(schedule.next_transition_after(0.0), kInf);

  const FaultSchedule compiled(FaultScheduleConfig{}, 4);
  EXPECT_TRUE(compiled.empty());
  EXPECT_FALSE(compiled.replica_down(0, 0.0));
  EXPECT_EQ(compiled.uplink_scale(3, 100.0), 1.0);
}

TEST(FaultScheduleTest, ExplicitCrashWindowIsHalfOpen) {
  FaultScheduleConfig config;
  config.crashes = {{/*replica=*/0, /*start=*/2.0, /*seconds=*/1.0}};
  const FaultSchedule schedule(config, 2);
  EXPECT_FALSE(schedule.empty());
  EXPECT_FALSE(schedule.replica_down(0, 1.999));
  EXPECT_TRUE(schedule.replica_down(0, 2.0));
  EXPECT_TRUE(schedule.replica_down(0, 2.999));
  EXPECT_FALSE(schedule.replica_down(0, 3.0));  // [start, start + seconds)
  EXPECT_FALSE(schedule.replica_down(1, 2.5));
  EXPECT_EQ(schedule.transition_count(), 2u);
  EXPECT_EQ(schedule.next_transition_after(0.0), 2.0);
  EXPECT_EQ(schedule.next_transition_after(2.0), 3.0);
  EXPECT_EQ(schedule.next_transition_after(3.0), kInf);
}

TEST(FaultScheduleTest, BlackoutWinsOverlappingBrownout) {
  FaultScheduleConfig config;
  config.brownouts = {{0, 0.0, 4.0}};
  config.brownout_scale = 0.3;
  config.blackouts = {{0, 1.0, 2.0}};
  const FaultSchedule schedule(config, 1);
  EXPECT_DOUBLE_EQ(schedule.uplink_scale(0, 0.5), 0.3);
  EXPECT_DOUBLE_EQ(schedule.uplink_scale(0, 1.5), 0.0);  // blackout wins
  EXPECT_DOUBLE_EQ(schedule.uplink_scale(0, 3.5), 0.3);
  EXPECT_DOUBLE_EQ(schedule.uplink_scale(0, 4.5), 1.0);
}

TEST(FaultScheduleTest, StochasticWindowsAreSeedDeterministic) {
  FaultScheduleConfig config;
  config.seed = 99;
  config.horizon_seconds = 300.0;
  config.crash_rate_per_minute = 2.0;
  config.blackout_rate_per_minute = 3.0;
  config.degrade_rate_per_minute = 1.0;

  const auto boundaries = [](const FaultSchedule& s) {
    std::vector<double> out;
    double t = -1.0;
    while (out.size() < 64) {
      t = s.next_transition_after(t);
      if (!(t < kInf)) break;
      out.push_back(t);
    }
    return out;
  };

  const FaultSchedule a(config, 3);
  const FaultSchedule b(config, 3);
  EXPECT_FALSE(a.empty());
  EXPECT_GT(a.transition_count(), 0u);
  EXPECT_EQ(boundaries(a), boundaries(b));

  config.seed = 100;
  const FaultSchedule c(config, 3);
  EXPECT_NE(boundaries(a), boundaries(c));
}

TEST(FaultScheduleTest, EncodeFailureDrawIsPure) {
  FaultScheduleConfig config;
  config.encode_failure_rate = 0.5;
  const FaultSchedule a(config, 1);
  const FaultSchedule b(config, 1);
  bool saw_fail = false, saw_pass = false;
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    for (std::uint32_t attempt = 1; attempt <= 4; ++attempt) {
      const bool fails = a.encode_attempt_fails(seq, attempt);
      EXPECT_EQ(fails, a.encode_attempt_fails(seq, attempt));  // idempotent
      EXPECT_EQ(fails, b.encode_attempt_fails(seq, attempt));  // pure in seed
      (fails ? saw_fail : saw_pass) = true;
    }
  }
  EXPECT_TRUE(saw_fail);
  EXPECT_TRUE(saw_pass);

  config.encode_failure_rate = 0.0;
  EXPECT_FALSE(FaultSchedule(config, 1).encode_attempt_fails(7, 1));
  config.encode_failure_rate = 1.0;
  EXPECT_TRUE(FaultSchedule(config, 1).encode_attempt_fails(7, 1));
}

TEST(FaultScheduleTest, ValidationRejectsBadConfigs) {
  const auto nan = std::numeric_limits<double>::quiet_NaN();
  FaultScheduleConfig config;
  config.crash_rate_per_minute = -1.0;
  EXPECT_THROW(FaultSchedule(config, 1), std::invalid_argument);
  config = {};
  config.blackout_rate_per_minute = nan;
  EXPECT_THROW(FaultSchedule(config, 1), std::invalid_argument);
  config = {};
  config.brownout_scale = 1.5;
  EXPECT_THROW(FaultSchedule(config, 1), std::invalid_argument);
  config = {};
  config.encode_failure_rate = -0.1;
  EXPECT_THROW(FaultSchedule(config, 1), std::invalid_argument);
  config = {};
  config.crashes = {{/*replica=*/2, 0.0, 1.0}};  // out of range for 2 replicas
  EXPECT_THROW(FaultSchedule(config, 2), std::invalid_argument);
  config = {};
  config.degradations = {{0, 1.0, -2.0}};
  EXPECT_THROW(FaultSchedule(config, 1), std::invalid_argument);
}

// ---------------------------------------------- empty-schedule regression

// The exact configuration captured by tools/capture_fleet_golden.cc before
// the fault layer landed. An empty fault schedule must leave every one of
// these outputs bit-identical — faults are opt-in, never a perturbation.
FleetConfig golden_config() {
  FleetConfig fleet;
  fleet.clients = make_mixed_fleet(/*n=*/24, /*arrival_spacing=*/0.25,
                                   /*max_chunks=*/10, /*video_scale=*/0.01);
  fleet.replica_uplinks = {BandwidthTrace::lte(20.0, 5.0, 600.0, 31),
                           BandwidthTrace::lte(20.0, 5.0, 600.0, 32)};
  fleet.rtt_seconds = 0.020;
  fleet.max_sessions_per_replica = 4;
  fleet.max_wait_seconds = 4.0;
  fleet.cache_budget_bytes = 8u << 20;
  fleet.shard_cache_per_replica = true;
  fleet.encode_seconds_full = 0.040;
  return fleet;
}

TEST(FaultFreeFleetTest, EmptyScheduleReproducesPreFaultGoldens) {
  const FleetResult r = run_fleet(golden_config());
  EXPECT_EQ(r.admitted, 17u);
  EXPECT_EQ(r.rejected, 7u);
  EXPECT_EQ(r.timed_out, 7u);
  EXPECT_EQ(r.cache.hits, 88u);
  EXPECT_EQ(r.cache.misses, 82u);
  EXPECT_EQ(r.cache.evictions, 49u);
  EXPECT_EQ(r.encode_queue.encode_starts, 79u);
  EXPECT_EQ(r.encode_queue.coalesced_joins, 3u);
  EXPECT_EQ(r.encode_queue.completions, 79u);
  EXPECT_EQ(r.timeline_events, 964u);
  EXPECT_EQ(r.queue_depth_peak, 11u);
  EXPECT_DOUBLE_EQ(r.normalized_qoe.p50, 100.0);
  EXPECT_DOUBLE_EQ(r.total_stall_seconds, 0.0);
  EXPECT_NEAR(r.total_bytes, 77910880.0, 1.0);
  EXPECT_NEAR(r.wait_time.p95, 3.8072315013261111, 1e-6);
  EXPECT_NEAR(r.sim_seconds, 17.446668573364633, 1e-6);
  // The fault surface stays untouched.
  EXPECT_EQ(r.failovers, 0u);
  EXPECT_EQ(r.failed_sessions, 0u);
  EXPECT_EQ(r.downloads_aborted, 0u);
  EXPECT_EQ(r.degraded_chunks, 0u);
  EXPECT_EQ(r.encode_queue.failures, 0u);
  EXPECT_EQ(r.events.type_count(FleetEventType::kReplicaDown), 0u);
}

// -------------------------------------------------------------- scenarios

FleetConfig small_fleet(std::size_t n, std::size_t replicas) {
  FleetConfig fleet;
  fleet.clients = make_mixed_fleet(n, /*arrival_spacing=*/0.25,
                                   /*max_chunks=*/8, /*video_scale=*/0.01);
  fleet.replica_uplinks.assign(replicas, BandwidthTrace::stable(50.0));
  fleet.rtt_seconds = 0.010;
  fleet.encode_seconds_full = 0.020;
  return fleet;
}

TEST(FaultScenarioTest, ReplicaCrashFailsSessionsOverAndCompletes) {
  // Sessions are download-limited, not paced to playback, so the whole
  // 8-chunk run lasts ~2 s of sim time — the crash window must hit early.
  FleetConfig fleet = small_fleet(3, 2);
  fleet.faults.crashes = {{/*replica=*/0, /*start=*/0.4, /*seconds=*/0.3}};
  const FleetResult r = run_fleet(fleet);

  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.admitted, 3u);
  EXPECT_EQ(r.failed_sessions, 0u);
  // Capacity is unbounded, so every session on the crashed replica fails
  // over immediately (zero-latency re-admission to the survivor).
  EXPECT_GE(r.failovers, 1u);
  EXPECT_EQ(r.events.type_count(FleetEventType::kReplicaDown), 1u);
  EXPECT_EQ(r.events.type_count(FleetEventType::kReplicaUp), 1u);
  EXPECT_EQ(r.events.type_count(FleetEventType::kFailoverStart), r.failovers);
  EXPECT_EQ(r.events.type_count(FleetEventType::kFailoverComplete),
            r.failovers);
  EXPECT_EQ(r.failover_time.count, r.failovers);
  EXPECT_DOUBLE_EQ(r.failover_time.max, 0.0);
  EXPECT_NEAR(r.replicas[0].down_seconds, 0.3, 1e-12);
  EXPECT_EQ(r.replicas[0].crashes, 1u);
  // Every session still ran to completion.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.sessions[i].chunks.size(), 8u) << "client " << i;
  }
}

TEST(FaultScenarioTest, UplinkBlackoutStallsAndRecovers) {
  FleetConfig fleet = small_fleet(1, 1);
  const FleetResult baseline = run_fleet(fleet);
  ASSERT_TRUE(baseline.completed);

  fleet.faults.blackouts = {{/*replica=*/0, /*start=*/0.5, /*seconds=*/2.5}};
  const FleetResult r = run_fleet(fleet);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.failovers, 0u);  // blackouts stall in place, never fail over
  EXPECT_EQ(r.failed_sessions, 0u);
  EXPECT_EQ(r.events.type_count(FleetEventType::kUplinkDegrade), 1u);
  EXPECT_EQ(r.events.type_count(FleetEventType::kUplinkRestore), 1u);
  // A 2.5 s outage on a 1 s chunk cadence cannot hide in idle time.
  EXPECT_GT(r.sim_seconds, baseline.sim_seconds);
  EXPECT_EQ(r.sessions[0].chunks.size(), 8u);
}

TEST(FaultScenarioTest, EncodeFailuresRetryUntilSuccess) {
  FleetConfig fleet = small_fleet(4, 1);
  fleet.faults.encode_failure_rate = 0.3;
  fleet.faults.seed = 7;
  fleet.recovery.encode_max_attempts = 12;
  fleet.recovery.encode_backoff_base_seconds = 0.05;
  fleet.recovery.encode_backoff_cap_seconds = 0.5;
  const FleetResult r = run_fleet(fleet);

  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.encode_queue.failures, 0u);
  EXPECT_EQ(r.encode_queue.retries, r.encode_queue.failures);
  EXPECT_EQ(r.encode_queue.exhausted, 0u);
  EXPECT_EQ(r.failed_sessions, 0u);
  EXPECT_EQ(r.events.type_count(FleetEventType::kEncodeRetry),
            r.encode_queue.retries);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(r.sessions[i].chunks.size(), 8u) << "client " << i;
  }
}

TEST(FaultScenarioTest, TerminalEncodeFailuresConvertToSessionErrors) {
  FleetConfig fleet = small_fleet(4, 1);
  fleet.faults.encode_failure_rate = 1.0;  // every attempt fails
  fleet.recovery.encode_max_attempts = 2;
  fleet.recovery.encode_backoff_base_seconds = 0.05;
  const FleetResult r = run_fleet(fleet);

  // The run terminates — sessions convert to errors instead of hanging.
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.unfinished_sessions, 0u);
  EXPECT_GT(r.encode_queue.exhausted, 0u);
  EXPECT_EQ(r.failed_sessions, r.admitted);
  EXPECT_EQ(r.events.type_count(FleetEventType::kSessionFail),
            r.failed_sessions);
  EXPECT_GT(r.events.type_count(FleetEventType::kEncodeGiveUp), 0u);
}

// ----------------------------------- waiting room × failover interactions

// One client, one replica, admission cap 1: a crash forces the failover
// through the waiting room, and the replica restart races the waiter's
// deadline.
FleetConfig single_slot_fleet(double max_wait_seconds) {
  FleetConfig fleet = small_fleet(1, 1);
  fleet.max_sessions_per_replica = 1;
  fleet.max_wait_seconds = max_wait_seconds;
  return fleet;
}

TEST(FaultWaitingRoomTest, AdmissionAtExactDeadlineBeatsTimeout) {
  // Downtime == max_wait: the replica restarts at the waiter's exact
  // deadline, and the admission drain runs before the timeout check.
  FleetConfig fleet = single_slot_fleet(/*max_wait_seconds=*/0.2);
  fleet.faults.crashes = {{0, 0.3, 0.2}};
  const FleetResult r = run_fleet(fleet);

  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.failovers, 1u);
  EXPECT_EQ(r.failed_sessions, 0u);
  EXPECT_EQ(r.timed_out, 0u);
  EXPECT_NEAR(r.failover_time.max, 0.2, 1e-12);
  EXPECT_EQ(r.sessions[0].chunks.size(), 8u);
}

TEST(FaultWaitingRoomTest, FailoverWaitTimeoutFailsTheSession) {
  // Downtime outlasts the waiter's patience: the failed-over session is a
  // session failure, not a rejection (it was admitted and streamed chunks).
  FleetConfig fleet = single_slot_fleet(/*max_wait_seconds=*/0.1);
  fleet.faults.crashes = {{0, 0.3, 0.2}};
  const FleetResult r = run_fleet(fleet);

  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.failovers, 0u);
  EXPECT_EQ(r.failed_sessions, 1u);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.timed_out, 0u);
  EXPECT_EQ(r.events.type_count(FleetEventType::kWaitTimeout), 1u);
  EXPECT_EQ(r.events.type_count(FleetEventType::kSessionFail), 1u);
  // The partial session's chunks stay in the rollups.
  EXPECT_GT(r.sessions[0].chunks.size(), 0u);
  EXPECT_LT(r.sessions[0].chunks.size(), 8u);
}

TEST(FaultWaitingRoomTest, FailoverQueuesFifoBehindEarlierWaiters) {
  // c0 -> r0, c1 -> r1 (cap 1 each); c2 arrives into a full fleet at 0.35
  // and waits. r0 crashes at 0.4, putting c0 in the waiting room *behind*
  // c2. When r0 restarts at 0.55 the freed slot goes to c2 (FIFO), and c0
  // only fails over once another slot opens.
  FleetConfig fleet = small_fleet(3, 2);
  fleet.max_sessions_per_replica = 1;
  fleet.max_wait_seconds = 60.0;
  fleet.clients[2].arrival_seconds = 0.35;
  fleet.faults.crashes = {{0, 0.4, 0.15}};
  const FleetResult r = run_fleet(fleet);

  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.admitted, 3u);
  EXPECT_EQ(r.failovers, 1u);
  EXPECT_EQ(r.failed_sessions, 0u);
  // The restart slot went to the earlier waiter, not the failover.
  EXPECT_EQ(r.replica_of[2], 0u);
  EXPECT_NEAR(r.wait_seconds[2], 0.2, 1e-12);
  // c0's failover had to wait past the restart for a second slot.
  EXPECT_GT(r.failover_time.max, 0.15);
  std::vector<std::uint32_t> promote_order;
  for (const FleetEvent& event : r.events.events()) {
    if (event.type == FleetEventType::kWaitPromote) {
      promote_order.push_back(event.session);
    }
  }
  ASSERT_EQ(promote_order.size(), 2u);
  EXPECT_EQ(promote_order[0], 2u);
  EXPECT_EQ(promote_order[1], 0u);
}

// --------------------------------------------- fault edges and breakers

/// Times of every logged `type` event on `replica`, in timeline order.
std::vector<double> event_times(const FleetResult& r, FleetEventType type,
                                std::int32_t replica) {
  std::vector<double> out;
  for (const FleetEvent& e : r.events.events()) {
    if (e.type == type && e.replica == replica) out.push_back(e.time);
  }
  return out;
}

/// Timeline position of the first `type` event on `replica` (and of
/// `session`, unless kNoSession); the log size when there is none.
std::size_t event_index(const FleetResult& r, FleetEventType type,
                        std::int32_t replica,
                        std::uint32_t session = kNoSession) {
  const std::vector<FleetEvent> events = r.events.events();
  for (std::size_t k = 0; k < events.size(); ++k) {
    const FleetEvent& e = events[k];
    if (e.type == type && e.replica == replica &&
        (session == kNoSession || e.session == session)) {
      return k;
    }
  }
  return events.size();
}

TEST(FaultBreakerTest, EachResetLandsBreakerResetSecondsAfterItsTrip) {
  // Two consecutive failed encodes attributed to one replica trip its
  // breaker; the breaker re-closes exactly breaker_reset_seconds later, and
  // with a zero reset time in the very instant it tripped. Each case trips
  // two to four times.
  for (const double rate : {0.3, 0.5}) {
    for (const double reset : {0.5, 0.0}) {
      SCOPED_TRACE("encode_failure_rate=" + std::to_string(rate) +
                   " breaker_reset_seconds=" + std::to_string(reset));
      FleetConfig fleet = small_fleet(4, 2);
      fleet.faults.encode_failure_rate = rate;
      fleet.faults.seed = 7;
      fleet.recovery.breaker_failure_threshold = 2;
      fleet.recovery.breaker_reset_seconds = reset;
      // The retry budget of EncodeFailuresRetryUntilSuccess: every session
      // finishes, and no breaker is still open when the run ends.
      fleet.recovery.encode_max_attempts = 12;
      fleet.recovery.encode_backoff_base_seconds = 0.05;
      fleet.recovery.encode_backoff_cap_seconds = 0.5;
      const FleetResult r = run_fleet(fleet);
      EXPECT_TRUE(r.completed);
      EXPECT_EQ(r.failed_sessions, 0u);
      ASSERT_EQ(r.events.dropped(), 0u);

      std::size_t trips = 0;
      for (std::int32_t replica = 0; replica < 2; ++replica) {
        const std::vector<double> tripped =
            event_times(r, FleetEventType::kBreakerTrip, replica);
        const std::vector<double> reset_at =
            event_times(r, FleetEventType::kBreakerReset, replica);
        ASSERT_EQ(tripped.size(), reset_at.size()) << "replica " << replica;
        for (std::size_t k = 0; k < tripped.size(); ++k) {
          EXPECT_EQ(reset_at[k], tripped[k] + reset)
              << "replica " << replica << " trip " << k;
        }
        EXPECT_EQ(r.replicas[std::size_t(replica)].breaker_trips,
                  tripped.size());
        trips += tripped.size();
      }
      EXPECT_GE(trips, 2u);
      EXPECT_EQ(r.events.type_count(FleetEventType::kBreakerTrip),
                r.events.type_count(FleetEventType::kBreakerReset));
    }
  }
}

TEST(FaultEdgeTest, WindowOpenAtZeroIsAppliedAtTheFirstEvent) {
  // Replica 0 is down over [0, 0.5), but nothing happens before the first
  // arrival at 0.25: the crash is logged there, and its exposure counts
  // from there. The arrival routes around the down replica.
  FleetConfig fleet = small_fleet(2, 2);
  fleet.clients[0].arrival_seconds = 0.25;
  fleet.clients[1].arrival_seconds = 0.5;
  fleet.faults.crashes = {{/*replica=*/0, /*start=*/0.0, /*seconds=*/0.5}};
  const FleetResult r = run_fleet(fleet);

  EXPECT_TRUE(r.completed);
  EXPECT_EQ(event_times(r, FleetEventType::kReplicaDown, 0),
            std::vector<double>{0.25});
  EXPECT_EQ(event_times(r, FleetEventType::kReplicaUp, 0),
            std::vector<double>{0.5});
  EXPECT_EQ(r.events.events().front().type, FleetEventType::kReplicaDown);
  EXPECT_EQ(r.replicas[0].down_seconds, 0.25);
  EXPECT_EQ(r.replicas[0].crashes, 1u);
  EXPECT_EQ(r.replica_of[0], 1u);
  EXPECT_EQ(r.failovers, 0u);  // nobody was on the replica when it crashed
}

TEST(FaultEdgeTest, EdgesSharingAnInstantWithAnArrivalApplyBeforeIt) {
  // Replica 0's crash ends at 0.75, exactly when replica 1's blackout
  // starts and client 3 arrives. Both edges apply in replica order before
  // the arrival, which therefore lands on the restarted replica 0.
  FleetConfig fleet = small_fleet(4, 2);
  fleet.faults.crashes = {{/*replica=*/0, /*start=*/0.5, /*seconds=*/0.25}};
  fleet.faults.blackouts = {{/*replica=*/1, /*start=*/0.75, /*seconds=*/0.5}};
  ASSERT_EQ(fleet.clients[3].arrival_seconds, 0.75);
  const FleetResult r = run_fleet(fleet);

  EXPECT_TRUE(r.completed);
  EXPECT_EQ(event_times(r, FleetEventType::kReplicaDown, 0),
            std::vector<double>{0.5});
  EXPECT_EQ(event_times(r, FleetEventType::kReplicaUp, 0),
            std::vector<double>{0.75});
  EXPECT_EQ(event_times(r, FleetEventType::kUplinkDegrade, 1),
            std::vector<double>{0.75});
  EXPECT_EQ(event_times(r, FleetEventType::kUplinkRestore, 1),
            std::vector<double>{1.25});
  EXPECT_EQ(r.replicas[0].down_seconds, 0.25);
  EXPECT_EQ(r.replicas[1].down_seconds, 0.0);

  const std::size_t up = event_index(r, FleetEventType::kReplicaUp, 0);
  const std::size_t blackout =
      event_index(r, FleetEventType::kUplinkDegrade, 1);
  const std::size_t admit =
      event_index(r, FleetEventType::kAdmit, 0, /*session=*/3);
  EXPECT_LT(up, blackout);
  EXPECT_LT(blackout, admit);
  const std::vector<FleetEvent> events = r.events.events();
  ASSERT_LT(admit, events.size());
  EXPECT_EQ(events[admit].time, 0.75);
  EXPECT_EQ(r.replica_of[3], 0u);
}

TEST(FaultEdgeTest, DegradationWindowBetweenTwoClientEvents) {
  // Client 0 finishes long before client 1 arrives at 10 s; the
  // degradation window [5, 6) opens and closes in that quiet gap, so its
  // two edges are timeline steps of their own.
  FleetConfig fleet = small_fleet(2, 1);
  fleet.clients[1].arrival_seconds = 10.0;
  fleet.faults.degradations = {{/*replica=*/0, /*start=*/5.0,
                                /*seconds=*/1.0}};
  const FleetResult r = run_fleet(fleet);

  EXPECT_TRUE(r.completed);
  EXPECT_EQ(event_times(r, FleetEventType::kReplicaDegraded, 0),
            std::vector<double>{5.0});
  EXPECT_EQ(event_times(r, FleetEventType::kReplicaRecovered, 0),
            std::vector<double>{6.0});
  EXPECT_EQ(r.replicas[0].degraded_seconds, 1.0);
  EXPECT_EQ(r.replicas[0].down_seconds, 0.0);
  // The window really is between two client events: client 0's last one
  // and client 1's arrival.
  double before = -kInf;
  double after = kInf;
  for (const FleetEvent& e : r.events.events()) {
    if (e.session == kNoSession) continue;
    if (e.time < 5.0) before = std::max(before, e.time);
    if (e.time >= 5.0) after = std::min(after, e.time);
  }
  EXPECT_GT(before, 0.0);
  EXPECT_EQ(after, 10.0);
  // Nothing ran on the degraded replica, so no chunk was downshifted.
  EXPECT_EQ(r.degraded_chunks, 0u);
}

// ------------------------------------------------ event-derived accounting

/// Value of `"<name>": n` inside the "counts" object of an EventLog JSON
/// dump; -1 when the object or the key is missing.
long long json_count(const std::string& json, const char* name) {
  const std::size_t open = json.find("\"counts\": {");
  if (open == std::string::npos) return -1;
  const std::size_t close = json.find('}', open);
  const std::string key = std::string("\"") + name + "\": ";
  const std::size_t at = json.find(key, open);
  if (at == std::string::npos || at > close) return -1;
  return std::stoll(json.substr(at + key.size()));
}

TEST(FaultAccountingTest, DerivedTotalsStayExactWhenTheRingWraps) {
  // Crashes that abort downloads and fail sessions over (some outlast the
  // 0.1 s waiting-room patience), a degradation window with density
  // downshift, and encode failures that sometimes exhaust their retries:
  // every event-derived total is live.
  FleetConfig fleet = small_fleet(8, 2);
  fleet.max_sessions_per_replica = 4;
  fleet.max_wait_seconds = 0.1;
  fleet.faults.seed = 11;
  fleet.faults.crashes = {{/*replica=*/0, /*start=*/0.4, /*seconds=*/0.5},
                          {1, 1.17, 0.2},
                          {0, 1.53, 0.2}};
  fleet.faults.degradations = {{/*replica=*/1, /*start=*/0.2, /*seconds=*/3.0}};
  fleet.faults.encode_failure_rate = 0.2;
  fleet.recovery.encode_max_attempts = 2;
  fleet.recovery.encode_backoff_base_seconds = 0.05;
  fleet.recovery.degrade_density_when_degraded = true;
  const FleetResult full = run_fleet(fleet);
  EXPECT_GT(full.admitted, 0u);
  EXPECT_GT(full.failovers, 0u);
  EXPECT_GT(full.failed_sessions, 0u);
  EXPECT_GT(full.downloads_aborted, 0u);
  EXPECT_GT(full.degraded_chunks, 0u);
  ASSERT_EQ(full.events.dropped(), 0u);

  // Download conservation, from the EventLog and the link tallies alone:
  // every started flow finishes or aborts, finished payloads add up to the
  // bytes the uplinks completed, and aborted ones to the discarded bytes.
  EXPECT_EQ(full.events.type_count(FleetEventType::kDownloadStart),
            full.events.type_count(FleetEventType::kDownloadFinish) +
                full.events.type_count(FleetEventType::kDownloadAbort));
  double finished_bytes = 0.0;
  double aborted_bytes = 0.0;
  for (const FleetEvent& e : full.events.events()) {
    if (e.type == FleetEventType::kDownloadFinish) finished_bytes += e.value;
    if (e.type == FleetEventType::kDownloadAbort) aborted_bytes += e.value;
  }
  double link_bytes = 0.0;
  for (const ReplicaStats& stats : full.replicas) {
    link_bytes += stats.bytes_completed;
  }
  EXPECT_GT(link_bytes, 0.0);
  EXPECT_NEAR(finished_bytes, link_bytes, 1e-9 * link_bytes);
  EXPECT_GT(full.bytes_discarded, 0.0);
  EXPECT_EQ(aborted_bytes, full.bytes_discarded);

  fleet.event_log_capacity = 1;
  const FleetResult r = run_fleet(fleet);
  const EventLog& log = r.events;
  ASSERT_GT(log.dropped(), 0u);
  EXPECT_EQ(r.admitted, log.type_count(FleetEventType::kAdmit));
  EXPECT_EQ(r.failovers, log.type_count(FleetEventType::kFailoverComplete));
  EXPECT_EQ(r.failed_sessions, log.type_count(FleetEventType::kSessionFail));
  EXPECT_EQ(r.downloads_aborted,
            log.type_count(FleetEventType::kDownloadAbort));
  EXPECT_EQ(r.degraded_chunks,
            log.type_count(FleetEventType::kDensityDownshift));
  EXPECT_EQ(r.admitted, full.admitted);
  EXPECT_EQ(r.failovers, full.failovers);
  EXPECT_EQ(r.failed_sessions, full.failed_sessions);
  EXPECT_EQ(r.downloads_aborted, full.downloads_aborted);
  EXPECT_EQ(r.degraded_chunks, full.degraded_chunks);

  // The JSON dump carries the exact per-type totals despite the drops.
  const std::string json = log.to_json();
  for (std::size_t t = 0; t < kFleetEventTypeCount; ++t) {
    const auto type = static_cast<FleetEventType>(t);
    EXPECT_EQ(json_count(json, fleet_event_name(type)),
              static_cast<long long>(log.type_count(type)))
        << fleet_event_name(type);
  }
}

}  // namespace
}  // namespace volut
