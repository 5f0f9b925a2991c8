// QoE model (Eq. 10), borrowed from YuZu's SR-targeting formulation:
//   max sum_i  alpha*Q(r_i) - beta*V(r_i, r_{i-1}) - gamma*S(r_i)
// where Q is the post-SR visual quality of the density choice, V penalizes
// quality switches (drops weighted more), and S is stall time.
#pragma once

#include <algorithm>
#include <cmath>

namespace volut {

struct QoeConfig {
  double alpha = 1.0;   // quality weight
  double beta = 1.0;    // variation weight
  /// Stall weight in QoE points per second. Quality lives on a 0-100 scale,
  /// so at 100 points/second a 1 s stall cancels a whole perfect
  /// chunk-second: rebuffering costs more than any quality it could buy.
  double gamma = 100.0;
  /// Multiplier on downward quality switches (drops are more noticeable).
  double drop_penalty = 1.5;
  /// Concavity of SR-recovered quality vs fetched density: SR recovers most
  /// perceptual quality from sparse input, so Q(r) = 100 * r^exponent.
  double sr_quality_exponent = 0.35;
};

/// Post-SR quality score in [0, 100] for a fetched density ratio r in (0,1].
/// With SR the client reconstructs full density, so quality degrades slowly
/// (r^exponent); without SR quality is the delivered density itself.
inline double quality_score(double density_ratio, const QoeConfig& cfg,
                            bool sr_enabled) {
  const double r = std::clamp(density_ratio, 0.0, 1.0);
  return sr_enabled ? 100.0 * std::pow(r, cfg.sr_quality_exponent)
                    : 100.0 * r;
}

/// Variation penalty V(q_now, q_prev) on quality-score scale.
inline double variation_penalty(double q_now, double q_prev,
                                const QoeConfig& cfg) {
  const double d = q_now - q_prev;
  return d >= 0.0 ? d : cfg.drop_penalty * (-d);
}

/// Per-chunk QoE contribution.
inline double chunk_qoe(double q_now, double q_prev, double stall_seconds,
                        const QoeConfig& cfg) {
  return cfg.alpha * q_now - cfg.beta * variation_penalty(q_now, q_prev, cfg) -
         cfg.gamma * stall_seconds;
}

}  // namespace volut
