#include "src/net/shared_link.h"

#include <algorithm>
#include <cmath>
#include <limits>
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
  peek_.winner = kNoPeek;
}

double SharedLink::abort_flow(std::uint64_t id) {
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (flows_[i].id != id) continue;
    const double received = flows_[i].total_bytes - remaining_[i] / 8.0;
    flows_.erase(flows_.begin() + std::ptrdiff_t(i));
    remaining_.erase(remaining_.begin() + std::ptrdiff_t(i));
    peek_.winner = kNoPeek;
    return received;
  }
  throw std::invalid_argument("SharedLink::abort_flow: unknown flow id");
}

std::uint64_t SharedLink::start_flow(double bytes, const BandwidthTrace* cap,
                                     std::uint64_t owner) {
  Flow flow;
  flow.id = next_id_++;
  flow.total_bytes = std::max(0.0, bytes);
  flow.cap = cap;
  flow.owner = owner;
  flows_.push_back(flow);
  remaining_.push_back(flow.total_bytes * 8.0);
  peek_.winner = kNoPeek;
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
  double b = trace_.next_edge_after(t);
  for (const Flow& f : flows_) {
    if (f.cap != nullptr && !f.cap->empty()) {
      b = std::min(b, f.cap->next_edge_after(t));
    }
  }
  return b;
}

std::size_t SharedLink::walk(std::vector<double>& rem, double& t, double until,
                             double& drained) const {
  const std::size_t n = flows_.size();
  // A dead link: no flow can ever drain a bit, because the uplink trace is
  // all zero or every flow is capped by an all-zero trace. Anything else
  // keeps walking, since capacity may return; only kMaxSegments stops an
  // uplink and caps that are never non-zero at the same time.
  const bool dead =
      trace_.all_zero() ||
      (n > 0 && std::all_of(flows_.begin(), flows_.end(), [](const Flow& f) {
         return f.cap != nullptr && !f.cap->empty() && f.cap->all_zero();
       }));
  for (int guard = 0; guard < kMaxSegments; ++guard) {
    // A flow with nothing left to send (zero-byte artifact, or drained
    // exactly dry at a window edge) completes at t before any rate math —
    // even on a dead link, where the rate-gated scan below would never see
    // it, and even in a zero-width advance(now, now).
    for (std::size_t i = 0; i < n; ++i) {
      if (rem[i] <= 0.0) return i;
    }
    // A blackout (scale 0) pins every rate to zero until the caller flips
    // the scale back — that restore is the caller's own event. `>` (not
    // `>=`): one zero-width pass at t == until still runs the winner scan,
    // so a completion whose time rounds to exactly `until` (tiny remainder /
    // huge rate) is delivered instead of livelocking the caller's event
    // loop.
    if (n == 0 || dead || rate_scale_ <= 0.0 || t > until) return n;
    const double boundary = next_boundary(t);
    const double window = boundary - t;
    const double segment_end = std::min(boundary, until);
    fill_rates(t);
    // Earliest completion within this segment at the current shares;
    // lowest id wins ties (flows_ is in id order, strict < keeps the first).
    std::size_t winner = n;
    double t_complete = kInf;
    for (std::size_t i = 0; i < n; ++i) {
      const double rate = rates_[i];
      if (rate <= 0.0) continue;
      if (rate * window >= rem[i]) {
        const double tc = t + rem[i] / rate;
        if (tc < t_complete) {
          t_complete = tc;
          winner = i;
        }
      }
    }
    if (winner < n && t_complete <= segment_end) {
      for (std::size_t i = 0; i < n; ++i) {
        if (i == winner || rates_[i] <= 0.0) continue;
        const double amount = rates_[i] * (t_complete - t);
        rem[i] -= amount;
        drained += amount;
      }
      drained += rem[winner];
      t = t_complete;
      return winner;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (rates_[i] <= 0.0) continue;
      const double amount = rates_[i] * (segment_end - t);
      rem[i] -= amount;
      drained += amount;
    }
    // Segment edges lie strictly after t, so only a walk that has reached
    // `until` gets here without moving on.
    if (segment_end <= t) return n;
    t = segment_end;
  }
  return n;
}

double SharedLink::next_completion_time(double now) const {
  scratch_ = remaining_;
  // The peek drains onto a copy of bits_drained_, adding in the same order
  // as advance's walk, so an adopted total is the total advance would reach.
  peek_.start = std::max(0.0, now);
  peek_.time = peek_.start;
  peek_.drained = bits_drained_;
  const std::size_t winner = walk(scratch_, peek_.time, kInf, peek_.drained);
  peek_.winner = winner < flows_.size() ? winner : kNoPeek;
  return peek_.winner != kNoPeek ? peek_.time : kInf;
}

std::vector<SharedLink::Completion> SharedLink::advance(double now,
                                                        double until) {
  std::vector<Completion> done;
  double t = std::max(0.0, now);
  // A kept peek from this start that completes by `until` is the walk below.
  std::size_t i = peek_.winner;
  if (i != kNoPeek && peek_.start == t && peek_.time <= until) {
    remaining_.swap(scratch_);
    bits_drained_ = peek_.drained;
    t = peek_.time;
  } else {
    i = walk(remaining_, t, until, bits_drained_);
  }
  peek_.winner = kNoPeek;
  while (i < flows_.size()) {
    bytes_completed_ += flows_[i].total_bytes;
    done.push_back({flows_[i].id, t, flows_[i].owner});
    flows_.erase(flows_.begin() + std::ptrdiff_t(i));
    remaining_.erase(remaining_.begin() + std::ptrdiff_t(i));
    i = walk(remaining_, t, until, bits_drained_);
  }
  return done;
}

}  // namespace volut
