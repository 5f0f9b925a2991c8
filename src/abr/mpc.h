// MPC-based adaptive bitrate control (§5).
//
// The controller optimizes Eq. 10 over a k-chunk horizon assuming the
// harmonic-mean throughput estimate holds, and outputs the
// {to-be-fetched point density, SR ratio} pair. VoLUT's continuous variant
// searches a fine-grained density grid (the SR pipeline accepts any ratio at
// stable latency, so the action space is effectively continuous); the
// discrete variant — the H2 ablation and the YuZu-SR baseline — is limited
// to the density ratios induced by YuZu's fixed SR model set.
#pragma once

#include <vector>

#include "src/abr/qoe.h"

namespace volut {

/// The ABR output: fetch chunks at `density_ratio` of full density and
/// upsample by `sr_ratio` on the client (sr_ratio = 1 / density_ratio).
struct AbrDecision {
  double density_ratio = 1.0;
  double sr_ratio = 1.0;
};

struct AbrContext {
  double throughput_mbps = 20.0;     // harmonic-mean estimate
  double buffer_seconds = 0.0;       // current playout buffer
  double prev_density_ratio = 1.0;   // last chunk's decision
  double chunk_seconds = 1.0;        // chunk playback duration
  double full_chunk_bytes = 0.0;     // full-density chunk size
  /// Client-side SR latency per chunk as a function of density, expressed as
  /// seconds of compute per chunk at density ratio 1.0 (scaled by ratio
  /// internally); lets MPC anticipate SR-induced stalls for slow SR backends.
  double sr_seconds_per_chunk_full = 0.0;
  std::size_t horizon = 5;           // k future chunks
  double max_buffer_seconds = 10.0;
};

class AbrPolicy {
 public:
  virtual ~AbrPolicy() = default;
  virtual AbrDecision decide(const AbrContext& ctx) = 0;
  virtual const char* name() const = 0;
};

/// VoLUT's continuous MPC (H1): fine-grained density grid in
/// [min_ratio, 1]. decide() returns the grid's first-max ratio, found by a
/// descending scan that stops once an upper bound on the horizon value
/// proves no lower ratio can win (~2 horizon evaluations per decision).
class ContinuousMpcAbr : public AbrPolicy {
 public:
  /// `switch_margin`: hysteresis in horizon-QoE points — the controller
  /// keeps the previous density unless a new one beats it by this margin.
  /// `max_step`: per-chunk density rate limit realizing §5's "smoother
  /// quality transitions" — only a continuous action space can move in
  /// increments smaller than a ladder rung, which is where continuous ABR
  /// earns its variation-penalty advantage over discrete ABR.
  explicit ContinuousMpcAbr(QoeConfig qoe = {}, double min_ratio = 0.05,
                            int grid_steps = 200, double switch_margin = 3.0,
                            double max_step = 0.04);

  AbrDecision decide(const AbrContext& ctx) override;
  const char* name() const override { return "continuous-mpc"; }

 private:
  /// Density ratio of grid point s in [0, grid_steps].
  double grid_ratio(int s) const {
    return min_ratio_ + (1.0 - min_ratio_) * double(s) / double(grid_steps_);
  }

  QoeConfig qoe_;
  double min_ratio_;
  int grid_steps_;
  double switch_margin_;
  double max_step_;
};

/// Discrete MPC (H2 / YuZu-SR): density restricted to a fixed ladder. The
/// default ladder mirrors YuZu's SR options (1x2, 2x2, 1x3, 1x4, 4x1, 2x1
/// stage combinations -> effective upsampling ratios {2,3,4,6,8}, i.e.
/// densities {1/2, 1/3, 1/4, 1/6, 1/8}) plus pass-through.
class DiscreteMpcAbr : public AbrPolicy {
 public:
  explicit DiscreteMpcAbr(QoeConfig qoe = {},
                          std::vector<double> ladder = default_ladder(),
                          bool sr_enabled = true);

  static std::vector<double> default_ladder() {
    return {1.0 / 8, 1.0 / 6, 1.0 / 4, 1.0 / 3, 1.0 / 2, 1.0};
  }

  AbrDecision decide(const AbrContext& ctx) override;
  const char* name() const override { return "discrete-mpc"; }

 private:
  QoeConfig qoe_;
  std::vector<double> ladder_;
  bool sr_enabled_;
  /// quality_score of each rung, filled once: the ladder and the QoE model
  /// are fixed, so decide() needs no std::pow per rung.
  std::vector<double> ladder_quality_;
};

/// Rate-based baseline (no horizon optimization): picks the largest density
/// whose predicted download+SR time fits within one chunk duration times a
/// safety factor, the classic throughput-rule controller. Used by the ABR
/// design-choice ablation bench to quantify what MPC's lookahead buys.
class RateBasedAbr : public AbrPolicy {
 public:
  explicit RateBasedAbr(double safety = 0.85, double min_ratio = 0.05)
      : safety_(safety), min_ratio_(min_ratio) {}

  AbrDecision decide(const AbrContext& ctx) override;
  const char* name() const override { return "rate-based"; }

 private:
  double safety_;
  double min_ratio_;
};

/// Shared horizon evaluation: total Eq. 10 value of holding `ratio` for
/// ctx.horizon chunks under the estimated throughput, including buffer
/// dynamics and (optional) SR-compute stalls.
double evaluate_horizon(double ratio, const AbrContext& ctx,
                        const QoeConfig& qoe, bool sr_enabled);

}  // namespace volut
