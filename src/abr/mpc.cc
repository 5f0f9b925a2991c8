#include "src/abr/mpc.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <utility>

namespace volut {

namespace {

/// horizon_value when the link delivers nothing.
constexpr double kNoValue = -1e18;

/// evaluate_horizon with the quality scores of `ratio` (q) and of the
/// previous chunk (prev_q) supplied by the caller.
double horizon_value(double ratio, double q, double prev_q,
                     const AbrContext& ctx, const QoeConfig& qoe) {
  const double bytes = ctx.full_chunk_bytes * ratio;
  // Conservative planning: discount the throughput estimate by 10% (the
  // harmonic mean lags genuine dips). Fine-grained control benefits most —
  // it can land exactly at 0.9x of capacity, where a discrete ladder cannot.
  const double rate_bytes_per_s = 0.9 * ctx.throughput_mbps * 1e6 / 8.0;
  if (rate_bytes_per_s <= 0.0) return kNoValue;
  const double download_s = bytes / rate_bytes_per_s;
  // SR compute per chunk scales with fetched points (input-point bound —
  // §7.3: the kNN stage dominates and depends on input size).
  const double sr_s = ctx.sr_seconds_per_chunk_full * ratio;

  double buffer = ctx.buffer_seconds;
  // Every step of the horizon fetches at `ratio`, so q is fixed.
  double total = 0.0;
  for (std::size_t i = 0; i < ctx.horizon; ++i) {
    const double busy_s = download_s + sr_s;
    const double stall = std::max(0.0, busy_s - buffer);
    buffer = std::max(0.0, buffer - busy_s) + ctx.chunk_seconds;
    buffer = std::min(buffer, ctx.max_buffer_seconds);
    total += chunk_qoe(q, prev_q, stall, qoe);
    prev_q = q;
  }
  return total;
}

}  // namespace

double evaluate_horizon(double ratio, const AbrContext& ctx,
                        const QoeConfig& qoe, bool sr_enabled) {
  return horizon_value(ratio, quality_score(ratio, qoe, sr_enabled),
                       quality_score(ctx.prev_density_ratio, qoe, sr_enabled),
                       ctx, qoe);
}

ContinuousMpcAbr::ContinuousMpcAbr(QoeConfig qoe, double min_ratio,
                                   int grid_steps, double switch_margin,
                                   double max_step)
    : qoe_(qoe), min_ratio_(min_ratio), grid_steps_(grid_steps),
      switch_margin_(switch_margin), max_step_(max_step) {}

AbrDecision ContinuousMpcAbr::decide(const AbrContext& ctx) {
  const double prev_q =
      quality_score(ctx.prev_density_ratio, qoe_, /*sr=*/true);
  const auto value_of = [&](double ratio) {
    return horizon_value(ratio, quality_score(ratio, qoe_, /*sr=*/true),
                         prev_q, ctx, qoe_);
  };
  // Exact pruned search for the grid's first max. Every horizon step holds
  // the same q, and with gamma >= 0 stalls only subtract, so
  //   UB(q) = H*alpha*q - beta*V(q, prev_q)
  // bounds horizon_value. UB's slope in q is H*alpha - beta above prev_q and
  // H*alpha + beta*drop_penalty below it, and q = 100 r^exponent rises with
  // r, so under `pruned` UB is non-decreasing in s: once UB(q_s) + margin <
  // best_value, no s' <= s can reach best_value and the scan stops.
  // Otherwise the loop never breaks and is the full scan.
  const double h = double(ctx.horizon);
  const double h_alpha = h * qoe_.alpha;
  const bool pruned = h_alpha >= qoe_.beta && qoe_.beta >= 0.0 &&
                      qoe_.drop_penalty >= 0.0 &&
                      qoe_.sr_quality_exponent > 0.0 && qoe_.gamma >= 0.0;
  // The margin covers rounding (u = DBL_EPSILON / 2). Rounded operations
  // are monotone, so the computed value with stalls is at most the computed
  // stall-free sum of alpha*q - beta*V and H-1 copies of alpha*q. With q
  // and prev_q in [0, 100], every partial sum, UB and H*alpha*q + beta*V are
  // at most S = 100*(H*alpha + beta*max(1, drop_penalty)). Against the exact
  // UB(q): alpha*q and beta*V (at most 3 roundings) err by 3u*S, the H
  // subtract/add steps by H*u*S, the computed UB by 4u*S, and pow's few
  // (<= 4) ulps of non-monotonicity between neighbouring grid points move
  // UB by at most its slope (<= S/100) times 8u*100. That sums to
  // (H + 15)*u*S; (H + 16)*DBL_EPSILON*S doubles it to absorb the
  // second-order terms and the rounding of UB + margin itself.
  const double margin =
      (h + 16.0) * DBL_EPSILON * 100.0 *
      (h_alpha + qoe_.beta * std::max(1.0, qoe_.drop_penalty));
  double best_ratio = min_ratio_;
  double best_value = kNoValue;
  for (int s = grid_steps_; s >= 0; --s) {
    const double ratio = grid_ratio(s);
    const double q = quality_score(ratio, qoe_, /*sr=*/true);
    const double ub =
        h_alpha * q - qoe_.beta * variation_penalty(q, prev_q, qoe_);
    if (pruned && ub + margin < best_value) break;
    const double value = horizon_value(ratio, q, prev_q, ctx, qoe_);
    // Descending, >= lets the lowest s win a tie, as an ascending first-max
    // scan does; a value at kNoValue leaves min_ratio in place, as there.
    if (value >= best_value && value > kNoValue) {
      best_value = value;
      best_ratio = ratio;
    }
  }
  // Hysteresis: stick with the previous density unless the winner clearly
  // beats it over the horizon.
  const double prev =
      std::clamp(ctx.prev_density_ratio, min_ratio_, 1.0);
  const double prev_value = value_of(prev);
  if (prev_value + switch_margin_ >= best_value) best_ratio = prev;
  // Rate-limit density changes (smooth quality transitions, §5). Emergency
  // downshifts are exempt: when even the rate-limited ratio would stall the
  // horizon badly, follow the optimizer.
  if (best_ratio > prev + max_step_) {
    best_ratio = prev + max_step_;
  } else if (best_ratio < prev - max_step_) {
    const double limited = prev - max_step_;
    const double v_lim = value_of(limited);
    if (v_lim + 10.0 * switch_margin_ >= best_value) best_ratio = limited;
  }
  return AbrDecision{best_ratio, 1.0 / best_ratio};
}

AbrDecision RateBasedAbr::decide(const AbrContext& ctx) {
  const double rate_bytes_per_s = safety_ * ctx.throughput_mbps * 1e6 / 8.0;
  // bytes(r) / rate + sr(r) <= chunk_seconds  =>  solve for r.
  const double denom =
      ctx.full_chunk_bytes / rate_bytes_per_s + ctx.sr_seconds_per_chunk_full;
  const double ratio =
      denom > 0.0 ? std::clamp(ctx.chunk_seconds / denom, min_ratio_, 1.0)
                  : 1.0;
  return AbrDecision{ratio, 1.0 / ratio};
}

DiscreteMpcAbr::DiscreteMpcAbr(QoeConfig qoe, std::vector<double> ladder,
                               bool sr_enabled)
    : qoe_(qoe), ladder_(std::move(ladder)), sr_enabled_(sr_enabled) {
  for (double ratio : ladder_) {
    ladder_quality_.push_back(quality_score(ratio, qoe_, sr_enabled_));
  }
}

AbrDecision DiscreteMpcAbr::decide(const AbrContext& ctx) {
  const double prev_q =
      quality_score(ctx.prev_density_ratio, qoe_, sr_enabled_);
  double best_ratio = ladder_.front();
  double best_value = kNoValue;
  for (std::size_t i = 0; i < ladder_.size(); ++i) {
    const double value =
        horizon_value(ladder_[i], ladder_quality_[i], prev_q, ctx, qoe_);
    if (value > best_value) {
      best_value = value;
      best_ratio = ladder_[i];
    }
  }
  return AbrDecision{best_ratio, 1.0 / best_ratio};
}

}  // namespace volut
