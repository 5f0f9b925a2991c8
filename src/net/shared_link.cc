#include "src/net/shared_link.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace volut {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Bounds segment walks the same way BandwidthTrace::transfer_time does.
constexpr int kMaxSegments = 10'000'000;
}  // namespace

void SharedLink::set_rate_scale(double scale) {
  if (!(scale >= 0.0)) {  // rejects NaN too
    throw std::invalid_argument(
        "SharedLink::set_rate_scale: scale must be finite and >= 0");
  }
  rate_scale_ = scale;
}

double SharedLink::abort_flow(std::uint64_t id) {
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (flows_[i].id != id) continue;
    const double received =
        flows_[i].total_bytes - flows_[i].remaining_bits / 8.0;
    bytes_aborted_ += received;
    ++flows_aborted_;
    flows_.erase(flows_.begin() + std::ptrdiff_t(i));
    return received;
  }
  throw std::invalid_argument("SharedLink::abort_flow: unknown flow id");
}

std::uint64_t SharedLink::start_flow(double bytes, const BandwidthTrace* cap,
                                     std::uint64_t owner) {
  Flow flow;
  flow.id = next_id_++;
  flow.total_bytes = std::max(0.0, bytes);
  flow.remaining_bits = flow.total_bytes * 8.0;
  flow.cap = cap;
  flow.owner = owner;
  flows_.push_back(flow);
  return flow.id;
}

void SharedLink::fill_rates(double t) const {
  const double share =
      rate_scale_ * trace_.bandwidth_at(t) * 1e6 / double(flows_.size());
  rates_.resize(flows_.size());
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const Flow& flow = flows_[i];
    double rate = share;
    if (flow.cap != nullptr && !flow.cap->empty()) {
      rate = std::min(rate, flow.cap->bandwidth_at(t) * 1e6);
    }
    rates_[i] = rate;
  }
}

double SharedLink::next_boundary(double t) const {
  const double dt = trace_.sample_seconds();
  double b = (std::floor(t / dt) + 1.0) * dt;
  for (const Flow& f : flows_) {
    if (f.cap != nullptr && !f.cap->empty()) {
      const double cdt = f.cap->sample_seconds();
      b = std::min(b, (std::floor(t / cdt) + 1.0) * cdt);
    }
  }
  return b;
}

double SharedLink::next_completion_time(double now, double horizon) const {
  if (flows_.empty()) return kInf;
  const std::size_t n = flows_.size();
  double t = std::max(0.0, now);
  // A flow with nothing left to send (zero-byte artifact, or drained exactly
  // dry at a window edge) completes immediately — even on a dead link, where
  // the rate-gated segment walk below would never see it.
  for (const Flow& f : flows_) {
    if (f.remaining_bits <= 0.0) return t;
  }
  // A blackout (scale 0) pins every rate to zero until the caller flips the
  // scale back — that restore is the caller's own event, so report idle
  // here instead of walking segments into the dead-trace detector.
  if (rate_scale_ <= 0.0) return kInf;
  // Zero-capacity futility cutoff: every involved trace is periodic, so if
  // no flow drains a single bit across a span covering a couple of full
  // periods of each trace, capacity is effectively zero and nothing will
  // ever complete — stop instead of grinding through kMaxSegments.
  std::size_t dead_span = 2 * trace_.sample_count() + 4;
  for (const Flow& f : flows_) {
    if (f.cap != nullptr && !f.cap->empty()) {
      dead_span = std::max(dead_span, 2 * f.cap->sample_count() + 4);
    }
  }
  std::vector<double>& rem = remaining_;
  rem.resize(n);
  for (std::size_t i = 0; i < n; ++i) rem[i] = flows_[i].remaining_bits;
  int idle_segments = 0;
  // Until the first completion the flow set is fixed, so shares are too:
  // walk trace segments draining every flow at its current rate. The
  // arithmetic intentionally matches advance() bit for bit.
  for (int guard = 0; guard < kMaxSegments; ++guard) {
    // Every completion in a segment that starts after the horizon lies
    // after the horizon too.
    if (t > horizon) return kInf;
    const double boundary = next_boundary(t);
    const double window = boundary - t;
    fill_rates(t);
    double best = kInf;
    for (std::size_t i = 0; i < n; ++i) {
      const double rate = rates_[i];
      if (rate <= 0.0) continue;
      if (rate * window >= rem[i]) {
        best = std::min(best, t + rem[i] / rate);
      }
    }
    if (best < kInf) return best;
    bool drained = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (rates_[i] > 0.0) {
        rem[i] -= rates_[i] * window;
        drained = true;
      }
    }
    idle_segments = drained ? 0 : idle_segments + 1;
    if (std::size_t(idle_segments) > dead_span) {
      ++dead_trace_detections_;
      return kInf;
    }
    t = boundary;
  }
  return kInf;
}

std::vector<SharedLink::Completion> SharedLink::advance(double now,
                                                        double until) {
  std::vector<Completion> done;
  double t = std::max(0.0, now);
  for (int guard = 0; guard < kMaxSegments; ++guard) {
    // Flows with nothing left to send complete at t before any rate math —
    // the segment walk below skips rate-0 flows, which would strand a
    // zero-byte flow on a dead uplink forever. Swept ahead of the window
    // check so even a zero-width advance(now, now) delivers them.
    for (std::size_t i = 0; i < flows_.size();) {
      if (flows_[i].remaining_bits <= 0.0) {
        bytes_completed_ += flows_[i].total_bytes;
        done.push_back({flows_[i].id, t, flows_[i].owner});
        flows_.erase(flows_.begin() + std::ptrdiff_t(i));
      } else {
        ++i;
      }
    }
    // `>` (not `>=`): one zero-width pass at t == until still runs the
    // winner scan, so a completion whose time rounds to exactly `until`
    // (tiny remainder / huge rate) is delivered instead of livelocking the
    // caller's event loop, which was promised it by next_completion_time.
    if (flows_.empty() || t > until) break;
    const std::size_t n = flows_.size();
    const double boundary = next_boundary(t);
    const double segment_end = std::min(boundary, until);
    fill_rates(t);
    const std::vector<double>& rates = rates_;
    // Earliest completion within this segment at the current shares;
    // lowest id wins ties (flows_ is in id order, strict < keeps the first).
    std::size_t winner = n;
    double t_complete = kInf;
    const double window = boundary - t;
    for (std::size_t i = 0; i < n; ++i) {
      if (rates[i] <= 0.0) continue;
      if (rates[i] * window >= flows_[i].remaining_bits) {
        const double tc = t + flows_[i].remaining_bits / rates[i];
        if (tc < t_complete) {
          t_complete = tc;
          winner = i;
        }
      }
    }
    if (winner < n && t_complete <= segment_end) {
      for (std::size_t i = 0; i < n; ++i) {
        if (i == winner || rates[i] <= 0.0) continue;
        const double amount = rates[i] * (t_complete - t);
        flows_[i].remaining_bits -= amount;
        bits_drained_ += amount;
      }
      bits_drained_ += flows_[winner].remaining_bits;
      bytes_completed_ += flows_[winner].total_bytes;
      done.push_back({flows_[winner].id, t_complete, flows_[winner].owner});
      flows_.erase(flows_.begin() + std::ptrdiff_t(winner));
      t = t_complete;
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (rates[i] <= 0.0) continue;
      const double amount = rates[i] * (segment_end - t);
      flows_[i].remaining_bits -= amount;
      bits_drained_ += amount;
    }
    if (segment_end <= t) break;  // zero-width segment: no progress possible
    t = segment_end;
  }
  return done;
}

}  // namespace volut
