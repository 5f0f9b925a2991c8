#include "src/net/shared_link.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace volut {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Bounds a walk whose live flows never drain (an undecided uplink and cap).
constexpr int kMaxSegments = 10'000'000;

// Drains `span` seconds at `rates` from every flow but `skip`, adding each
// flow's amount to `drained` in index order.
void drain(std::vector<double>& rem, const std::vector<double>& rates,
           double span, double& drained, std::size_t skip) {
  for (std::size_t i = 0; i < rem.size(); ++i) {
    if (i == skip || rates[i] <= 0.0) continue;
    const double amount = rates[i] * span;
    rem[i] -= amount;
    drained += amount;
  }
}
}  // namespace

void SharedLink::set_rate_scale(double scale) {
  if (!(scale >= 0.0)) {  // rejects NaN too
    throw std::invalid_argument(
        "SharedLink::set_rate_scale: scale must be finite and >= 0");
  }
  rate_scale_ = scale;
  peek_.valid = false;
}

double SharedLink::abort_flow(std::uint64_t id) {
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (flows_[i].id != id) continue;
    const double received = flows_[i].total_bytes - remaining_[i] / 8.0;
    live_flows_ -= flows_[i].live;
    flows_.erase(flows_.begin() + std::ptrdiff_t(i));
    remaining_.erase(remaining_.begin() + std::ptrdiff_t(i));
    peek_.valid = false;
    return received;
  }
  throw std::invalid_argument("SharedLink::abort_flow: unknown flow id");
}

std::uint64_t SharedLink::start_flow(double bytes, const BandwidthTrace* cap,
                                     std::uint64_t owner) {
  Flow flow;
  flow.id = next_id_++;
  flow.total_bytes = std::max(0.0, bytes);
  flow.cap = cap != nullptr && !cap->empty() ? cap : nullptr;
  flow.owner = owner;
  flow.live = flow.cap ? trace_.overlaps(*flow.cap) : !trace_.all_zero();
  live_flows_ += flow.live;
  flows_.push_back(flow);
  remaining_.push_back(flow.total_bytes * 8.0);
  peek_.valid = false;
  return flow.id;
}

void SharedLink::fill_rates(double t) const {
  const double share =
      rate_scale_ * trace_.bandwidth_at(t) * 1e6 / double(flows_.size());
  rates_.resize(flows_.size());
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const Flow& flow = flows_[i];
    double rate = share;
    if (flow.cap != nullptr) {
      rate = std::min(rate, flow.cap->bandwidth_at(t) * 1e6);
    }
    rates_[i] = rate;
  }
}

double SharedLink::next_boundary(double t) const {
  double b = trace_.next_edge_after(t);
  for (const Flow& f : flows_) {
    if (f.cap != nullptr) {
      b = std::min(b, f.cap->next_edge_after(t));
    }
  }
  return b;
}

std::size_t SharedLink::walk(std::vector<double>& rem, double& t, double until,
                             double& drained, bool keep_first) const {
  ++walks_;
  const std::size_t n = flows_.size();
  for (int guard = 0; guard < kMaxSegments; ++guard) {
    // A flow with nothing left to send (zero-byte artifact, or drained
    // exactly dry at a window edge) completes at t before any rate math —
    // even on a dead link, where the rate-gated scan below would never see
    // it, and even in a zero-width advance(now, now).
    for (std::size_t i = 0; i < n; ++i) {
      if (rem[i] <= 0.0) return i;
    }
    // With no live flow (idle, or a dead link) nothing ever drains. A
    // blackout (scale 0) pins every rate to zero until the caller flips the
    // scale back — that restore is the caller's own event. `>` (not `>=`):
    // one zero-width pass at t == until still runs the winner scan, so a
    // completion whose time rounds to exactly `until` (tiny remainder / huge
    // rate) is delivered instead of livelocking the caller's event loop.
    if (live_flows_ == 0 || rate_scale_ <= 0.0 || t > until) return n;
    const double boundary = next_boundary(t);
    const double window = boundary - t;
    const double segment_end = std::min(boundary, until);
    fill_rates(t);
    if (keep_first && guard == 0) {
      peek_.boundary = boundary;
      peek_.rates = rates_;
    }
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
      drain(rem, rates_, t_complete - t, drained, winner);
      drained += rem[winner];
      t = t_complete;
      return winner;
    }
    drain(rem, rates_, segment_end - t, drained, n);
    // Segment edges lie strictly after t, so only a walk that has reached
    // `until` gets here without moving on.
    if (segment_end <= t) return n;
    t = segment_end;
  }
  return n;
}

std::size_t SharedLink::resume(double until) {
  // walk's first segment from the peek's start, whose end is `until`; no
  // flow completes inside it, since the peek completes none by `until`.
  drain(remaining_, peek_.rates, until - peek_.start, bits_drained_,
        flows_.size());
  // walk then makes a zero-width pass at `until`, with rates and edges read
  // there; a few ulps short of the kept boundary they may be the next
  // cell's. That pass completes flow i only if rem[i] <= 0 or
  // until + rem[i] / rate <= until, and no rate exceeds the uplink's equal
  // share at `until`, so while every flow fails that test at the share the
  // pass changes nothing. Otherwise it runs.
  const double share = rate_scale_ * trace_.bandwidth_at(until) * 1e6 /
                       double(flows_.size());
  for (const double rem : remaining_) {
    if (rem <= 0.0 || until + rem / share <= until) {
      double t = until;
      return walk(remaining_, t, until, bits_drained_);
    }
  }
  return flows_.size();
}

double SharedLink::next_completion_time(double now) const {
  const double start = std::max(0.0, now);
  if (peek_.valid && peek_.start == start) return peek_.time;
  scratch_ = remaining_;
  // The peek drains onto a copy of bits_drained_, adding in the same order
  // as advance's walk, so an adopted total is the total advance would reach.
  peek_.start = start;
  peek_.time = start;
  peek_.drained = bits_drained_;
  peek_.boundary = start;
  peek_.winner = walk(scratch_, peek_.time, kInf, peek_.drained,
                      /*keep_first=*/true);
  if (peek_.winner == flows_.size()) peek_.time = kInf;
  peek_.valid = true;
  return peek_.time;
}

std::size_t SharedLink::adopt(double& t) {
  remaining_.swap(scratch_);
  bits_drained_ = peek_.drained;
  t = peek_.time;
  peek_.valid = false;
  return peek_.winner;
}

const std::vector<SharedLink::Completion>& SharedLink::advance(double now,
                                                               double until) {
  done_.clear();
  double t = std::max(0.0, now);
  const bool kept = peek_.valid && peek_.start == t;
  std::size_t i = flows_.size();
  if (kept && peek_.winner < flows_.size() && peek_.time <= until) {
    i = adopt(t);
  } else if (kept && t <= until && until < peek_.boundary) {
    i = resume(until);
    t = until;
  } else {
    i = walk(remaining_, t, until, bits_drained_);
  }
  peek_.valid = false;
  while (i < flows_.size()) {
    bytes_completed_ += flows_[i].total_bytes;
    done_.push_back({flows_[i].id, t, flows_[i].owner});
    live_flows_ -= flows_[i].live;
    flows_.erase(flows_.begin() + std::ptrdiff_t(i));
    remaining_.erase(remaining_.begin() + std::ptrdiff_t(i));
    if (t != until) {
      i = walk(remaining_, t, until, bits_drained_);
      continue;
    }
    // At `until` the walk would make one zero-width pass. A peek from here
    // makes the same pass first, so it completes a flow at `until` exactly
    // when that pass would, and is otherwise the caller's next projection.
    if (next_completion_time(t) > until) break;
    i = adopt(t);
  }
  return done_;
}

}  // namespace volut
