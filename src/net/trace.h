// Bandwidth traces (§7.1 "Network traces").
//
// Two trace families drive the streaming evaluation:
//   * stable wired links at 50 / 75 / 100 Mbps with ~10 ms RTT;
//   * fluctuating LTE traces. The paper uses real-world captures with mean
//     throughput 32.5-176.5 Mbps and std 13.5-26.8 Mbps; per DESIGN.md
//     substitution #4 we synthesize matched traces with an
//     Ornstein-Uhlenbeck process around a slowly drifting mean, which
//     reproduces the burstiness ABR reacts to.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace volut {

/// Piecewise-constant bandwidth over time.
class BandwidthTrace {
 public:
  BandwidthTrace() = default;
  /// `samples_mbps[i]` applies over [i*dt, (i+1)*dt); the trace repeats
  /// periodically past its end. Throws std::invalid_argument on an empty
  /// sample list, non-positive dt, or any NaN/negative rate (all-zero
  /// "dead link" traces remain valid).
  BandwidthTrace(std::vector<double> samples_mbps, double dt_seconds,
                 std::string name = "trace");

  static BandwidthTrace stable(double mbps, double duration_s = 600.0);

  /// Synthetic LTE trace matching the paper's statistics. `mean_mbps` in
  /// [32.5, 176.5], `std_mbps` in [13.5, 26.8] for paper-matched traces.
  static BandwidthTrace lte(double mean_mbps, double std_mbps,
                            double duration_s, std::uint64_t seed);

  const std::string& name() const { return name_; }
  bool empty() const { return samples_.empty(); }
  double duration() const { return double(samples_.size()) * dt_; }
  /// Width of one piecewise-constant sample.
  double sample_seconds() const { return dt_; }
  /// True when no sample is above zero (vacuously for the empty trace): the
  /// link never carries a bit, however long one waits.
  bool all_zero() const { return all_zero_; }

  /// Instantaneous bandwidth in Mbps at time t (periodic extension).
  double bandwidth_at(double t) const;

  /// The first sample edge strictly after `t`. For a sample width that is
  /// not a power of two, (floor(t / dt) + 1) * dt can round onto t itself
  /// (t = 4.3 at dt 0.1); the edge is then the next double after t, so a
  /// walk over edges always makes progress.
  double next_edge_after(double t) const;

  /// True when some instant has both this trace and `other` above zero.
  /// Decided exactly when one sample width is an integer multiple of the
  /// other; any pair it cannot decide counts as overlapping.
  bool overlaps(const BandwidthTrace& other) const;

  /// How many complete passes of the trace lie before time `t` (0 within the
  /// first, genuine pass). bandwidth_at silently repeats the trace past its
  /// capture; long simulations surface that through this count.
  std::uint64_t wrap_count(double t) const;

  double mean_mbps() const;
  double std_mbps() const;

 private:
  std::vector<double> samples_;  // Mbps
  double dt_ = 1.0;
  std::string name_;
  bool all_zero_ = true;
  bool any_zero_ = false;  // some sample is zero: the link pauses
};

/// A link = trace + round-trip time. A download issued at t starts its
/// transfer one RTT later (the DASH-like protocol issues one request per
/// chunk, §6); run_session drains it as the one flow of a SharedLink.
struct SimulatedLink {
  BandwidthTrace trace;
  double rtt_seconds = 0.010;
};

}  // namespace volut
