// Capacity-aware shared uplink: processor-sharing over a bandwidth trace.
//
// A serving replica has one uplink whose instantaneous capacity C(t) comes
// from a BandwidthTrace; every in-flight chunk download gets an equal share
// C(t)/n (optionally capped by the client's own access-link trace, with no
// redistribution of a capped flow's unused share — the classic simplification
// of max-min fairness). This replaces the per-session private link of
// run_session when many clients contend for one replica (serve/fleet).
//
// The model is event-driven and exact: advance() walks the piecewise-constant
// trace segment by segment, so total bits drained over any saturated interval
// equal the integral of C(t) (see serve_test fair-share conservation). It is
// the only link model: run_session drains each download as the one flow of
// its own SharedLink, so a 1-client fleet reproduces it by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "src/net/trace.h"

namespace volut {

class SharedLink {
 public:
  explicit SharedLink(BandwidthTrace trace) : trace_(std::move(trace)) {}

  std::size_t active_flows() const { return flows_.size(); }

  /// Total bits drained across all flows so far (conservation accounting;
  /// includes bits delivered to later-aborted flows).
  double bits_drained() const { return bits_drained_; }
  /// Total bytes of fully completed flows.
  double bytes_completed() const { return bytes_completed_; }

  /// Capacity multiplier applied on top of the trace: 1 nominal, 0 during a
  /// blackout, anything between for a brownout. Fault boundaries re-rate
  /// every active flow from the moment the caller flips this — the caller
  /// must have advance()d up to that moment first. Throws
  /// std::invalid_argument on NaN or negative scales.
  void set_rate_scale(double scale);

  /// Bandwidth (Mbps) a new flow admitted at `now` would start with — the
  /// equal share after joining. This is what the ABR gets to observe.
  double share_mbps(double now) const {
    return rate_scale_ * trace_.bandwidth_at(now) / double(flows_.size() + 1);
  }

  /// Starts a `bytes`-sized download whose transfer begins at `now` (the
  /// caller accounts for RTT / server-side encode latency before that).
  /// `cap` (optional, unowned, must outlive the flow; empty is none) caps
  /// this flow at the client's own access link. `owner` is an opaque caller
  /// tag handed back in the flow's Completion. Returns the flow id.
  std::uint64_t start_flow(double bytes, const BandwidthTrace* cap = nullptr,
                           std::uint64_t owner = 0);

  /// Earliest absolute completion time among active flows assuming no
  /// arrivals before it, or +inf when none can complete (idle, blackout, or
  /// a dead link). Exact: advance(now, t) with the returned t completes that
  /// flow, and advance(now, u) for any u < t completes none, so a caller can
  /// cache t until it next changes the flow set or the rate scale.
  /// The walk that found t is kept as the link's projection until
  /// start_flow, abort_flow, set_rate_scale or advance changes what it
  /// walked; asking again from the same `now` returns it without walking.
  double next_completion_time(double now) const;

  struct Completion {
    std::uint64_t id = 0;
    double time = 0.0;
    std::uint64_t owner = 0;  // the start_flow tag
  };

  /// Drains every active flow from `now` to `until` at its instantaneous
  /// rate, removing flows as they finish. Completions are reported in
  /// (time, id) order; simultaneous completions resolve by lowest id, so the
  /// schedule is deterministic. Flows with zero remaining bytes complete
  /// immediately at max(now, 0) regardless of link capacity (even
  /// advance(now, now) delivers them). The returned buffer is reused: it is
  /// valid until the next advance.
  ///
  /// A projection kept from `now` spares the walk, with a result that is
  /// bit-identical to walking from `now`:
  ///   - when it completes by `until`, advance takes its drained state and
  ///     completes that flow at the peeked time, then walks on from there;
  ///   - when it completes later and `until` lies inside its first rate
  ///     segment, advance drains every flow at that segment's kept rates
  ///     (a mid-projection sync), then runs the walk's pass at `until`
  ///     only when some flow may round to done there.
  /// After a completion at exactly `until`, advance peeks from `until`: it
  /// completes each flow that projection finishes at `until`, and otherwise
  /// keeps the projection for the caller's next_completion_time(until).
  const std::vector<Completion>& advance(double now, double until);

  /// Kills an active flow (replica crash: the partial download is garbage to
  /// the client). Returns the bytes the flow had already received — the
  /// discarded transfer the caller accounts as waste. Throws
  /// std::invalid_argument if no active flow has this id.
  double abort_flow(std::uint64_t id);

  /// Segment walks run so far (peeks and advances): a deterministic work
  /// count, the same on any host.
  std::uint64_t walks() const { return walks_; }

 private:
  struct Flow {
    std::uint64_t id = 0;
    double total_bytes = 0.0;
    const BandwidthTrace* cap = nullptr;  // unowned
    std::uint64_t owner = 0;
    bool live = false;  // uplink and cap are ever above zero at once
  };

  /// The one segment walk behind both public calls. Drains `rem` (bits left
  /// per flow, aligned with flows_) from `t` segment by segment at
  /// fill_rates' rates, adding every drained bit to `drained`, and stops at
  /// the first completion at or before `until`: it drains the other flows up
  /// to that time, counts the completed flow's remainder and returns its
  /// index with `t` at its completion time. Without one it returns
  /// flows_.size() (idle, blackout, no live flow, or past `until`).
  /// advance runs it on remaining_; next_completion_time runs the same walk
  /// on a scratch copy with `until` = +inf, so a peeked time is the time at
  /// which advance completes that flow: with `until` >= that time, every
  /// segment before it ends where the peek's did and the last one picks
  /// the same winner. A peek (`keep_first`) also keeps its first rate
  /// segment's end and rates in peek_.
  std::size_t walk(std::vector<double>& rem, double& t, double until,
                   double& drained, bool keep_first = false) const;
  /// advance's mid-projection sync: drains remaining_ from the kept peek's
  /// start to `until`, which lies inside its first rate segment, at that
  /// segment's rates, then runs the walk's pass at `until` unless no flow
  /// can complete there. Returns what walk(remaining_, start, until, ...)
  /// returns, with `until` as the completion time.
  std::size_t resume(double until);
  /// Takes the kept peek's drained state and returns its winner, with `t`
  /// at its completion time.
  std::size_t adopt(double& t);
  /// Fills rates_ with every active flow's drain rate (bits/s) at time `t`:
  /// the equal share of the scaled uplink, capped per flow by its access
  /// link.
  void fill_rates(double t) const;
  /// First piecewise-constant boundary strictly after `t` across the uplink
  /// trace and every active flow's cap trace.
  double next_boundary(double t) const;

  BandwidthTrace trace_;
  std::vector<Flow> flows_;
  std::vector<double> remaining_;  // bits left per flow, aligned with flows_
  std::size_t live_flows_ = 0;     // flows_ entries with `live` set
  std::uint64_t next_id_ = 1;
  double rate_scale_ = 1.0;
  double bits_drained_ = 0.0;
  double bytes_completed_ = 0.0;
  std::vector<Completion> done_;  // advance's result, reused
  // single-threaded: the walk's per-segment rates, next_completion_time's
  // copy of remaining_ and the walk count, reused across calls so nothing
  // allocates; a SharedLink is driven by one event loop.
  mutable std::vector<double> rates_;
  mutable std::vector<double> scratch_;
  mutable std::uint64_t walks_ = 0;
  /// The kept projection: a peek's walk from `start`, valid until the flow
  /// set, the rate scale or remaining_ changes. It left scratch_ with flow
  /// `winner` completing at `time` (flows_.size() and +inf when none does)
  /// and bits_drained_ grown to `drained`. Its first rate segment ran from
  /// `start` to `boundary` at `rates` (boundary == start when the walk
  /// stopped before computing rates).
  struct Peek {
    bool valid = false;
    double start = 0.0;
    double time = 0.0;
    double drained = 0.0;
    std::size_t winner = 0;
    double boundary = 0.0;
    std::vector<double> rates;
  };
  mutable Peek peek_;
};

}  // namespace volut
