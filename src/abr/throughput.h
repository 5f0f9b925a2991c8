// Harmonic-mean throughput estimation over a sliding window (§5.1: "network
// throughput estimates computed via harmonic mean over sliding windows").
#pragma once

#include <cstddef>
#include <vector>

#include "src/metrics/stats.h"

namespace volut {

class ThroughputEstimator {
 public:
  explicit ThroughputEstimator(std::size_t window = 5) : window_(window) {
    samples_.reserve(window_ + 1);
  }

  /// Records one measured chunk throughput (Mbps).
  void add_sample(double mbps) {
    samples_.push_back(mbps);
    if (samples_.size() > window_) samples_.erase(samples_.begin());
  }

  /// Harmonic-mean estimate; `fallback_mbps` until the first sample lands.
  double estimate_mbps(double fallback_mbps = 20.0) const {
    if (samples_.empty()) return fallback_mbps;
    return harmonic_mean(samples_);
  }

 private:
  std::size_t window_;
  std::vector<double> samples_;  // oldest first
};

}  // namespace volut
