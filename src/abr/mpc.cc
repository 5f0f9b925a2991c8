#include "src/abr/mpc.h"

#include <algorithm>
#include <cmath>

namespace volut {

namespace {

/// evaluate_horizon with the quality scores of `ratio` (q) and of the
/// previous chunk (prev_q) supplied by the caller.
double horizon_value(double ratio, double q, double prev_q,
                     const AbrContext& ctx, const QoeConfig& qoe) {
  const double bytes = ctx.full_chunk_bytes * ratio;
  // Conservative planning: discount the throughput estimate by 10% (the
  // harmonic mean lags genuine dips). Fine-grained control benefits most —
  // it can land exactly at 0.9x of capacity, where a discrete ladder cannot.
  const double rate_bytes_per_s = 0.9 * ctx.throughput_mbps * 1e6 / 8.0;
  if (rate_bytes_per_s <= 0.0) return -1e18;
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
      switch_margin_(switch_margin), max_step_(max_step) {
  for (int s = 0; s <= grid_steps_; ++s) {
    grid_quality_.push_back(quality_score(grid_ratio(s), qoe_, /*sr=*/true));
  }
}

AbrDecision ContinuousMpcAbr::decide(const AbrContext& ctx) {
  const double prev_q =
      quality_score(ctx.prev_density_ratio, qoe_, /*sr=*/true);
  const auto value_of = [&](double ratio) {
    return horizon_value(ratio, quality_score(ratio, qoe_, /*sr=*/true),
                         prev_q, ctx, qoe_);
  };
  double best_ratio = min_ratio_;
  double best_value = -1e18;
  for (int s = 0; s <= grid_steps_; ++s) {
    const double ratio = grid_ratio(s);
    const double value =
        horizon_value(ratio, grid_quality_[std::size_t(s)], prev_q, ctx, qoe_);
    if (value > best_value) {
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

AbrDecision DiscreteMpcAbr::decide(const AbrContext& ctx) {
  double best_ratio = ladder_.front();
  double best_value = -1e18;
  for (double ratio : ladder_) {
    const double value = evaluate_horizon(ratio, ctx, qoe_, sr_enabled_);
    if (value > best_value) {
      best_value = value;
      best_ratio = ratio;
    }
  }
  return AbrDecision{best_ratio, 1.0 / best_ratio};
}

}  // namespace volut
