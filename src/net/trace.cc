#include "src/net/trace.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "src/core/rng.h"

namespace volut {

BandwidthTrace::BandwidthTrace(std::vector<double> samples_mbps,
                               double dt_seconds, std::string name)
    : samples_(std::move(samples_mbps)), dt_(dt_seconds),
      name_(std::move(name)) {
  // Reject garbage rates here rather than let them stall a SharedLink
  // periods later. All-zero traces stay valid: "link is down" is a scenario,
  // and all_zero() and overlaps() let SharedLink answer +inf at once;
  // corrupt data is not. The default-constructed empty trace also stays
  // valid — it is the documented "no cap" sentinel for per-client downlinks.
  if (samples_.empty()) {
    throw std::invalid_argument(
        "BandwidthTrace '" + name_ + "': needs at least one sample");
  }
  if (!(std::isfinite(dt_) && dt_ > 0.0)) {
    throw std::invalid_argument(
        "BandwidthTrace '" + name_ + "': dt_seconds must be finite and > 0");
  }
  for (double s : samples_) {
    if (!(std::isfinite(s) && s >= 0.0)) {
      throw std::invalid_argument(
          "BandwidthTrace '" + name_ +
          "': rates must be finite and >= 0 (got " + std::to_string(s) + ")");
    }
    if (s > 0.0) all_zero_ = false;
    if (s == 0.0) any_zero_ = true;
  }
}

BandwidthTrace BandwidthTrace::stable(double mbps, double duration_s) {
  const std::size_t n = std::max<std::size_t>(1, std::size_t(duration_s));
  return BandwidthTrace(std::vector<double>(n, mbps), 1.0,
                        "stable-" + std::to_string(int(mbps)) + "mbps");
}

BandwidthTrace BandwidthTrace::lte(double mean_mbps, double std_mbps,
                                   double duration_s, std::uint64_t seed) {
  // Ornstein-Uhlenbeck around a slowly drifting mean; quantized to 0.5 s
  // samples like typical LTE capture logs. Counter-based draws: sample i of
  // a trace is a pure function of (seed, i), so synthesis could batch or
  // parallelize without changing the trace. (The final rescale pins mean/std
  // to the requested values regardless of the underlying sequence.)
  const double dt = 0.5;
  const std::size_t n = std::max<std::size_t>(2, std::size_t(duration_s / dt));
  CounterRng rng(seed, /*stream=*/0x17ACEull);
  std::vector<double> samples(n);
  const double theta = 0.25;  // mean reversion per sample
  double x = mean_mbps;
  for (std::size_t i = 0; i < n; ++i) {
    // Slow sinusoidal drift models cell-load cycles.
    const double drift =
        mean_mbps * (1.0 + 0.25 * std::sin(2.0 * M_PI * double(i) / 120.0));
    x += theta * (drift - x) +
         std_mbps * std::sqrt(2.0 * theta) * rng.gaussian(1.0f);
    samples[i] = std::max(1.0, x);  // LTE rarely drops to true zero
  }
  // Rescale to hit the requested mean/std exactly.
  const double m =
      std::accumulate(samples.begin(), samples.end(), 0.0) / double(n);
  double var = 0.0;
  for (double s : samples) var += (s - m) * (s - m);
  const double sd = std::sqrt(var / double(n));
  for (double& s : samples) {
    s = std::max(0.5, mean_mbps + (s - m) * (sd > 0 ? std_mbps / sd : 0.0));
  }
  return BandwidthTrace(std::move(samples), dt,
                        "lte-" + std::to_string(int(mean_mbps)) + "mbps");
}

std::uint64_t BandwidthTrace::wrap_count(double t) const {
  if (samples_.empty() || t < duration()) return 0;
  return static_cast<std::uint64_t>(std::floor(t / duration()));
}

double BandwidthTrace::bandwidth_at(double t) const {
  if (samples_.empty()) return 0.0;
  const double wrapped = std::fmod(std::max(0.0, t), duration());
  const std::size_t idx =
      std::min(samples_.size() - 1, std::size_t(wrapped / dt_));
  return samples_[idx];
}

double BandwidthTrace::next_edge_after(double t) const {
  const double edge = (std::floor(t / dt_) + 1.0) * dt_;
  return edge > t ? edge
                  : std::nextafter(t, std::numeric_limits<double>::infinity());
}

bool BandwidthTrace::overlaps(const BandwidthTrace& other) const {
  if (all_zero_ || other.all_zero_) return false;
  if (!any_zero_ || !other.any_zero_) return true;
  // Both traces pause. In cells of the finer sample width, a trace whose
  // samples are k cells wide repeats every n*k cells, and cell c of one meets
  // cell d of the other iff c = d modulo the gcd of the two periods. Widths
  // that are no integer multiple of each other, and grids over 2^20 cells,
  // stay undecided.
  const double fine = std::min(dt_, other.dt_);
  if (std::max(dt_, other.dt_) / fine > double(1 << 20)) return true;
  const std::size_t a = std::size_t(dt_ / fine);
  const std::size_t b = std::size_t(other.dt_ / fine);
  const std::size_t na = samples_.size() * a, nb = other.samples_.size() * b;
  if (double(a) * fine != dt_ || double(b) * fine != other.dt_ ||
      na + nb > (std::size_t(1) << 20)) {
    return true;
  }
  std::vector<bool> up(std::gcd(na, nb));
  for (std::size_t c = 0; c < na; ++c) {
    if (samples_[c / a] > 0.0) up[c % up.size()] = true;
  }
  for (std::size_t c = 0; c < nb; ++c) {
    if (other.samples_[c / b] > 0.0 && up[c % up.size()]) return true;
  }
  return false;
}

double BandwidthTrace::mean_mbps() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         double(samples_.size());
}

double BandwidthTrace::std_mbps() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean_mbps();
  double var = 0.0;
  for (double s : samples_) var += (s - m) * (s - m);
  return std::sqrt(var / double(samples_.size()));
}

}  // namespace volut
