// Deterministic fault injection for the fleet serving layer.
//
// Production serving is defined by how it degrades, not by its healthy
// median: replicas crash mid-session, uplinks black out or brown out, and
// encoders fail. FaultSchedule turns those disturbances into a first-class
// *input* of run_fleet: a sim-time schedule of fault windows, fully
// determined by (config, replica count) before the run starts, so a fault
// scenario replays bit-identically — across runs and across ThreadPool
// worker counts (the pool never touches the schedule).
//
// Two ways to author faults, freely composable:
//   * explicit windows (FaultScheduleConfig::crashes et al.) pin exact
//     (replica, start, duration) triples — what scenario tests and demos use;
//   * stochastic axes (crash_rate_per_minute, ...) draw Poisson arrivals and
//     windows from CounterRng streams keyed by (seed, replica, fault class),
//     so draw order never depends on event-loop interleaving.
// Encode failures are a per-attempt Bernoulli draw keyed by the encode's
// start sequence number and attempt index — a pure function, so a replayed
// encode fails (or not) identically regardless of when it is asked.
//
// The schedule is pure data: queries are const, never mutate, and never read
// wall time. All faults live within [0, horizon_seconds]; beyond the horizon
// the fleet is healthy (schedules do not repeat).
//
// FaultRecoveryConfig is the policy side — how the fleet *reacts* (retry
// budgets, backoff, circuit breaker, graceful density degradation). It lives
// here so serving code has one header for the whole fault surface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace volut {

/// One explicit fault interval [start, start + seconds) on a replica.
struct FaultWindow {
  std::size_t replica = 0;
  double start = 0.0;
  double seconds = 0.0;
};

struct FaultScheduleConfig {
  /// Root seed of every stochastic stream (explicit windows ignore it).
  std::uint64_t seed = 0xFA0175u;
  /// Stochastic windows are drawn within [0, horizon_seconds].
  double horizon_seconds = 600.0;

  /// Replica crashes: the replica is down (routes around it, sessions fail
  /// over) for crash_restart_seconds, then restarts healthy.
  double crash_rate_per_minute = 0.0;
  double crash_restart_seconds = 5.0;

  /// Uplink blackout: capacity drops to zero for blackout_seconds (flows
  /// stall in place; the session does not fail over).
  double blackout_rate_per_minute = 0.0;
  double blackout_seconds = 2.0;

  /// Uplink brownout: capacity scales by brownout_scale for
  /// brownout_seconds. Overlapping blackout wins (scale 0).
  double brownout_rate_per_minute = 0.0;
  double brownout_seconds = 10.0;
  double brownout_scale = 0.3;

  /// Slow-replica windows: the replica stays up but is marked degraded
  /// (routing deprioritizes it; encodes slow down; optional density
  /// downshift) for degrade_seconds.
  double degrade_rate_per_minute = 0.0;
  double degrade_seconds = 20.0;

  /// Per-attempt probability in [0, 1] that an encode completion fails and
  /// must re-run (queue-managed encodes only; ViVo per-viewer encodes
  /// bypass the queue and are not subject to this axis).
  double encode_failure_rate = 0.0;

  /// Explicit windows, composable with the stochastic axes above.
  std::vector<FaultWindow> crashes;
  std::vector<FaultWindow> blackouts;
  std::vector<FaultWindow> brownouts;
  std::vector<FaultWindow> degradations;

  /// True when no axis is armed: no windows (explicit or stochastic) and a
  /// zero encode-failure rate. An empty schedule must leave run_fleet
  /// bit-identical to a fault-free build (pinned by serve_faults_test).
  bool empty() const;
};

/// How the fleet reacts to injected faults.
struct FaultRecoveryConfig {
  /// Encode attempts per key before the failure converts to a session error
  /// for every waiter (>= 1).
  std::uint32_t encode_max_attempts = 4;
  /// Capped exponential backoff between encode attempts:
  /// min(cap, base * 2^(attempt-1)).
  double encode_backoff_base_seconds = 0.25;
  double encode_backoff_cap_seconds = 4.0;
  /// Circuit breaker: this many *consecutive* encode failures attributed to
  /// one replica mark it degraded for breaker_reset_seconds (0 disables).
  std::uint32_t breaker_failure_threshold = 3;
  double breaker_reset_seconds = 10.0;
  /// Graceful degradation: when a session's replica is degraded, downshift
  /// its requested density one bucket instead of paying the slow encode at
  /// full density (VoLUT/YuZu SR sessions only — raw has no ladder, ViVo
  /// plans per-viewport).
  bool degrade_density_when_degraded = false;
  /// Encode-latency multiplier on a degraded replica.
  double degraded_encode_factor = 3.0;
};

/// Compiled fault schedule: per-replica window lists + merged transition
/// times, built once from (config, n_replicas). Windows may overlap, so a
/// query binary-searches the windows starting at or before t and scans back
/// over them: a crash or degradation query stops at the first one covering
/// t, uplink_scale visits all of them for the smallest scale. A query costs
/// O(windows before t), not O(log windows). run_fleet asks only at edges:
/// it caches next_transition_after and queries again when that edge (or a
/// breaker expiry) comes due.
class FaultSchedule {
 public:
  /// Empty schedule (no faults; empty() == true).
  FaultSchedule() = default;

  /// Compiles explicit windows and draws the stochastic ones. Throws
  /// std::invalid_argument on NaN/negative rates or durations, scales
  /// outside [0, 1], probabilities outside [0, 1], or an explicit window
  /// naming a replica >= n_replicas.
  FaultSchedule(const FaultScheduleConfig& config, std::size_t n_replicas);

  bool empty() const { return empty_; }
  std::size_t replica_count() const { return replicas_.size(); }

  /// True while t lies in a crash window of replica r.
  bool replica_down(std::size_t r, double t) const;
  /// True while t lies in a scheduled degradation window of replica r
  /// (circuit-breaker degradation is the fleet's, not the schedule's).
  bool replica_degraded(std::size_t r, double t) const;
  /// Uplink capacity multiplier at t: 0 in a blackout, brownout_scale in a
  /// brownout (blackout wins when overlapping), 1 otherwise.
  double uplink_scale(std::size_t r, double t) const;

  /// Pure per-attempt failure draw for encode `seq` (the queue's start
  /// sequence number), attempt >= 1. Independent of call order.
  bool encode_attempt_fails(std::uint64_t seq, std::uint32_t attempt) const;

  /// First window boundary strictly after t; +inf when none remain. The
  /// fleet event loop treats these as event sources so state flips land on
  /// exact timeline steps.
  double next_transition_after(double t) const;
  /// Total number of window boundaries (event-budget sizing).
  std::size_t transition_count() const { return transitions_.size(); }

 private:
  struct Window {
    double start = 0.0;
    double end = 0.0;
    double scale = 0.0;  // uplink windows only
  };
  struct ReplicaWindows {
    std::vector<Window> crashes;
    std::vector<Window> degradations;
    /// Blackouts and brownouts merged, sorted by start; overlaps resolve to
    /// the smaller scale at query time.
    std::vector<Window> uplink;
  };

  static bool in_any(const std::vector<Window>& windows, double t);

  // Immutable after construction (every query is const), so instances are
  // safe to read from any thread without a guard — unlike the
  // `// single-threaded: run_fleet` state, which is single-loop by design.
  bool empty_ = true;
  std::uint64_t seed_ = 0;
  double encode_failure_rate_ = 0.0;
  std::vector<ReplicaWindows> replicas_;
  std::vector<double> transitions_;  // sorted, deduplicated boundaries
};

}  // namespace volut
