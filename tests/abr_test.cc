// Tests for the QoE model, throughput estimation and MPC ABR variants.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>

#include "src/abr/mpc.h"
#include "src/abr/qoe.h"
#include "src/abr/throughput.h"
#include "src/core/rng.h"

namespace volut {
namespace {

TEST(QoeTest, QualityScoreRangeAndMonotonicity) {
  const QoeConfig cfg;
  EXPECT_DOUBLE_EQ(quality_score(1.0, cfg, true), 100.0);
  EXPECT_DOUBLE_EQ(quality_score(0.0, cfg, true), 0.0);
  double prev = -1.0;
  for (double r = 0.05; r <= 1.0; r += 0.05) {
    const double q = quality_score(r, cfg, true);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

TEST(QoeTest, SrCompensatesLowDensity) {
  const QoeConfig cfg;
  // With SR, 25% density retains most quality; without it, quality ~= 25.
  EXPECT_GT(quality_score(0.25, cfg, true), 55.0);
  EXPECT_DOUBLE_EQ(quality_score(0.25, cfg, false), 25.0);
}

TEST(QoeTest, VariationPenalizesDropsMore) {
  const QoeConfig cfg;
  const double up = variation_penalty(80, 60, cfg);
  const double down = variation_penalty(60, 80, cfg);
  EXPECT_DOUBLE_EQ(up, 20.0);
  EXPECT_DOUBLE_EQ(down, 30.0);  // 1.5x drop penalty
}

TEST(QoeTest, ChunkQoeComposition) {
  QoeConfig cfg;
  cfg.alpha = 1;
  cfg.beta = 1;
  cfg.gamma = 4.3;
  // quality 90, previous 100 (drop of 10 -> 15), stall 0.5 s -> 2.15.
  EXPECT_NEAR(chunk_qoe(90, 100, 0.5, cfg), 90 - 15 - 2.15, 1e-9);
}

TEST(ThroughputTest, HarmonicMeanWindow) {
  ThroughputEstimator est(3);
  EXPECT_DOUBLE_EQ(est.estimate_mbps(42.0), 42.0);  // fallback
  est.add_sample(10);
  est.add_sample(10);
  est.add_sample(10);
  EXPECT_DOUBLE_EQ(est.estimate_mbps(), 10.0);
  // Window slides: three 20s push the 10s out.
  est.add_sample(20);
  est.add_sample(20);
  est.add_sample(20);
  EXPECT_DOUBLE_EQ(est.estimate_mbps(), 20.0);
}

TEST(ThroughputTest, ConservativeUnderVariance) {
  ThroughputEstimator est(5);
  est.add_sample(100);
  est.add_sample(5);
  // Harmonic mean < arithmetic mean: predictor hedges against slow chunks.
  EXPECT_LT(est.estimate_mbps(), 52.5);
}

AbrContext make_ctx(double mbps, double buffer, double full_mb = 2.0) {
  AbrContext ctx;
  ctx.throughput_mbps = mbps;
  ctx.buffer_seconds = buffer;
  ctx.prev_density_ratio = 0.5;
  ctx.chunk_seconds = 1.0;
  ctx.full_chunk_bytes = full_mb * 1e6;
  ctx.horizon = 5;
  ctx.max_buffer_seconds = 10.0;
  return ctx;
}

TEST(MpcTest, AbundantBandwidthRampsToFullDensity) {
  ContinuousMpcAbr abr;
  // 2 MB chunk = 16 Mbit; at 200 Mbps download takes 0.08 s per 1 s chunk.
  // The controller rate-limits density changes (smooth transitions, §5), so
  // it ramps up across decisions rather than jumping.
  AbrContext ctx = make_ctx(200.0, 5.0);
  AbrDecision d{};
  for (int i = 0; i < 30; ++i) {
    d = abr.decide(ctx);
    EXPECT_GE(d.density_ratio, ctx.prev_density_ratio - 1e-9);
    ctx.prev_density_ratio = d.density_ratio;
  }
  EXPECT_GT(d.density_ratio, 0.95);
  EXPECT_NEAR(d.sr_ratio, 1.0 / d.density_ratio, 1e-9);
}

TEST(MpcTest, ScarceBandwidthDownsamples) {
  ContinuousMpcAbr abr;
  // 16 Mbit chunk at 4 Mbps would take 4 s per 1 s chunk: must downsample.
  const AbrDecision d = abr.decide(make_ctx(4.0, 1.0));
  EXPECT_LT(d.density_ratio, 0.4);
  EXPECT_GT(d.density_ratio, 0.0);
}

TEST(MpcTest, DecisionMonotonicInBandwidth) {
  ContinuousMpcAbr abr;
  double prev = 0.0;
  for (double mbps : {4.0, 8.0, 16.0, 32.0, 64.0, 128.0}) {
    const AbrDecision d = abr.decide(make_ctx(mbps, 2.0));
    EXPECT_GE(d.density_ratio, prev - 1e-9) << mbps;
    prev = d.density_ratio;
  }
}

TEST(MpcTest, LargerBufferAllowsHigherQuality) {
  ContinuousMpcAbr abr;
  const AbrDecision starved = abr.decide(make_ctx(10.0, 0.5));
  const AbrDecision cushy = abr.decide(make_ctx(10.0, 8.0));
  EXPECT_GE(cushy.density_ratio, starved.density_ratio);
}

TEST(MpcTest, ContinuousBeatsDiscreteOnIntermediateBandwidth) {
  // At a bandwidth between two ladder rungs, the continuous policy can pick
  // an intermediate density and achieve a >= horizon objective.
  QoeConfig qoe;
  const AbrContext ctx = make_ctx(11.0, 2.0);
  ContinuousMpcAbr cont(qoe);
  DiscreteMpcAbr disc(qoe);
  const double v_cont =
      evaluate_horizon(cont.decide(ctx).density_ratio, ctx, qoe, true);
  const double v_disc =
      evaluate_horizon(disc.decide(ctx).density_ratio, ctx, qoe, true);
  EXPECT_GE(v_cont, v_disc);
}

TEST(MpcTest, DiscreteChoosesFromLadderOnly) {
  DiscreteMpcAbr abr;
  const auto ladder = DiscreteMpcAbr::default_ladder();
  for (double mbps : {3.0, 9.0, 27.0, 81.0}) {
    const AbrDecision d = abr.decide(make_ctx(mbps, 2.0));
    bool on_ladder = false;
    for (double r : ladder) {
      if (std::abs(r - d.density_ratio) < 1e-12) on_ladder = true;
    }
    EXPECT_TRUE(on_ladder) << d.density_ratio;
  }
}

TEST(MpcTest, SrLatencyAwareControllerBacksOff) {
  // When SR compute is slow (YuZu-like 0.8 s/chunk) and modeled, the
  // controller picks a lower density than when SR is free.
  AbrContext fast = make_ctx(20.0, 1.0);
  AbrContext slow = fast;
  slow.sr_seconds_per_chunk_full = 0.8;
  ContinuousMpcAbr abr;
  EXPECT_LE(abr.decide(slow).density_ratio,
            abr.decide(fast).density_ratio + 1e-9);
}

TEST(MpcTest, EvaluateHorizonPenalizesStalls) {
  QoeConfig qoe;
  const AbrContext ctx = make_ctx(2.0, 0.0);  // hopeless bandwidth
  const double v_full = evaluate_horizon(1.0, ctx, qoe, true);
  const double v_low = evaluate_horizon(0.1, ctx, qoe, true);
  EXPECT_GT(v_low, v_full);
}

// --- ContinuousMpcAbr against a first-max full scan ------------------------

/// One ContinuousMpcAbr configuration and the context it decides on.
struct MpcCase {
  QoeConfig qoe;
  double min_ratio = 0.05;
  int grid_steps = 200;
  AbrContext ctx;
};

std::string describe(const MpcCase& c) {
  std::ostringstream os;
  os.precision(17);
  os << "alpha=" << c.qoe.alpha << " beta=" << c.qoe.beta
     << " gamma=" << c.qoe.gamma << " drop=" << c.qoe.drop_penalty
     << " exp=" << c.qoe.sr_quality_exponent << " min=" << c.min_ratio
     << " steps=" << c.grid_steps << " mbps=" << c.ctx.throughput_mbps
     << " buffer=" << c.ctx.buffer_seconds
     << " prev=" << c.ctx.prev_density_ratio
     << " chunk_s=" << c.ctx.chunk_seconds
     << " bytes=" << c.ctx.full_chunk_bytes
     << " sr_s=" << c.ctx.sr_seconds_per_chunk_full << " H=" << c.ctx.horizon
     << " max_buffer=" << c.ctx.max_buffer_seconds;
  return os.str();
}

/// decide() of ContinuousMpcAbr with max_step = 1 (the rate limit never
/// fires), computed the slow way: an ascending first-max scan of every grid
/// ratio through the public evaluate_horizon, then the hysteresis compare.
double full_scan_decision(const MpcCase& c, double switch_margin) {
  double best_ratio = c.min_ratio;
  double best_value = -1e18;
  for (int s = 0; s <= c.grid_steps; ++s) {
    const double ratio = c.min_ratio + (1.0 - c.min_ratio) * double(s) /
                                           double(c.grid_steps);
    const double value = evaluate_horizon(ratio, c.ctx, c.qoe, true);
    if (value > best_value) {
      best_value = value;
      best_ratio = ratio;
    }
  }
  const double prev = std::clamp(c.ctx.prev_density_ratio, c.min_ratio, 1.0);
  const double prev_value = evaluate_horizon(prev, c.ctx, c.qoe, true);
  if (prev_value + switch_margin >= best_value) best_ratio = prev;
  return best_ratio;
}

/// A switch margin of -inf turns hysteresis off, so decide() returns the
/// grid argmax itself.
constexpr double kNoHysteresis = -std::numeric_limits<double>::infinity();

/// decide() with switch_margin 0 and with hysteresis off; returns the
/// argmax decide() found.
double expect_full_scan_decision(const MpcCase& c) {
  double argmax = 0.0;
  for (double margin : {0.0, kNoHysteresis}) {
    ContinuousMpcAbr abr(c.qoe, c.min_ratio, c.grid_steps, margin,
                         /*max_step=*/1.0);
    const double got = abr.decide(c.ctx).density_ratio;
    EXPECT_EQ(got, full_scan_decision(c, margin))
        << "switch_margin=" << margin << " " << describe(c);
    argmax = got;
  }
  return argmax;
}

double draw(CounterRng& rng, double lo, double hi) {
  return lo + (hi - lo) * double(rng.next_u64() >> 11) * 0x1.0p-53;
}

/// A random configuration and context: QoE weights on both sides of
/// H*alpha = beta, links from starved to abundant, buffers up to and past
/// max_buffer_seconds, previous ratios on and off the grid.
MpcCase draw_case(CounterRng& rng) {
  static constexpr int kSteps[] = {1, 2, 7, 50, 200};
  MpcCase c;
  c.qoe.alpha = draw(rng, 0.0, 2.0);
  c.qoe.beta = draw(rng, 0.0, 4.0);
  c.qoe.gamma = draw(rng, 0.0, 200.0);
  c.qoe.drop_penalty = draw(rng, 0.0, 3.0);
  c.qoe.sr_quality_exponent = draw(rng, 0.05, 1.0);
  c.min_ratio = draw(rng, 0.01, 0.5);
  c.grid_steps = kSteps[rng.next(std::size(kSteps))];
  c.ctx.throughput_mbps = draw(rng, 0.5, 60.0);
  c.ctx.max_buffer_seconds = draw(rng, 1.0, 12.0);
  c.ctx.buffer_seconds = draw(rng, 0.0, 1.2 * c.ctx.max_buffer_seconds);
  c.ctx.chunk_seconds = draw(rng, 0.25, 2.0);
  c.ctx.full_chunk_bytes = draw(rng, 0.1e6, 4e6);
  c.ctx.sr_seconds_per_chunk_full = draw(rng, 0.0, 1.0);
  c.ctx.horizon = 1 + rng.next(8);
  if (rng.next(2) == 0) {
    const int s = int(rng.next(std::uint64_t(c.grid_steps) + 1));
    c.ctx.prev_density_ratio =
        c.min_ratio + (1.0 - c.min_ratio) * double(s) / double(c.grid_steps);
  } else {
    c.ctx.prev_density_ratio = draw(rng, 0.0, 1.1);
  }
  return c;
}

TEST(MpcPruningTest, MatchesFullScanOnRandomContexts) {
  CounterRng rng(0xAB12, /*stream=*/1);
  for (int i = 0; i < 3000; ++i) expect_full_scan_decision(draw_case(rng));
}

TEST(MpcPruningTest, ExactTiesGoToTheLowestRatio) {
  // alpha = beta = 0: every ratio that does not stall scores exactly 0.
  CounterRng rng(0xAB12, /*stream=*/2);
  for (int i = 0; i < 200; ++i) {
    MpcCase c = draw_case(rng);
    c.qoe.alpha = 0.0;
    c.qoe.beta = 0.0;
    c.ctx.buffer_seconds = c.ctx.max_buffer_seconds;
    c.ctx.throughput_mbps = 1e3;
    EXPECT_EQ(expect_full_scan_decision(c), c.min_ratio) << describe(c);
  }
}

TEST(MpcPruningTest, ZeroThroughputKeepsMinRatio) {
  CounterRng rng(0xAB12, /*stream=*/3);
  for (int i = 0; i < 200; ++i) {
    MpcCase c = draw_case(rng);
    c.ctx.throughput_mbps = 0.0;
    EXPECT_EQ(expect_full_scan_decision(c), c.min_ratio) << describe(c);
  }
}

TEST(MpcPruningTest, ValueAtTheNoThroughputSentinelNeverWins) {
  // Negative bytes and buffer make the stall shrink as the ratio grows, so
  // the top ratio scores exactly -1e18 (1 s of stall at gamma = 1e18) and
  // the bottom one less; the first-max scan keeps min_ratio.
  MpcCase c;
  c.qoe.alpha = 0.0;
  c.qoe.beta = 0.0;
  c.qoe.gamma = 1e18;
  c.min_ratio = 0.5;
  c.grid_steps = 1;
  c.ctx.throughput_mbps = 8.0;  // 1e6 bytes/s before the 0.9 discount
  c.ctx.full_chunk_bytes = -0.9e6;  // download_s = -ratio
  c.ctx.buffer_seconds = -2.0;
  c.ctx.horizon = 1;
  ASSERT_EQ(evaluate_horizon(1.0, c.ctx, c.qoe, true), -1e18);
  ASSERT_LT(evaluate_horizon(0.5, c.ctx, c.qoe, true), -1e18);
  EXPECT_EQ(expect_full_scan_decision(c), 0.5);
}

TEST(MpcPruningTest, HorizonOfOne) {
  CounterRng rng(0xAB12, /*stream=*/4);
  for (int i = 0; i < 500; ++i) {
    MpcCase c = draw_case(rng);
    c.ctx.horizon = 1;
    expect_full_scan_decision(c);
  }
}

TEST(MpcPruningTest, BufferClampedAtMax) {
  // A full buffer and a fast link: every horizon step refills past
  // max_buffer_seconds and is clamped.
  CounterRng rng(0xAB12, /*stream=*/5);
  for (int i = 0; i < 500; ++i) {
    MpcCase c = draw_case(rng);
    c.ctx.buffer_seconds = c.ctx.max_buffer_seconds;
    c.ctx.chunk_seconds = c.ctx.max_buffer_seconds;
    expect_full_scan_decision(c);
  }
}

TEST(MpcPruningTest, NoCutoffWhenHorizonQualityWeightIsAtMostBeta) {
  // H*alpha < beta: UB falls with q above prev_q; the cutoff is off.
  // H*alpha == beta: UB is flat there and the cutoff stays on, so values
  // that differ only by rounding must still resolve as in the full scan.
  CounterRng rng(0xAB12, /*stream=*/6);
  for (int i = 0; i < 500; ++i) {
    MpcCase c = draw_case(rng);
    c.ctx.horizon = 5;
    c.qoe.alpha = 0.25;
    c.qoe.beta = i % 2 == 0 ? draw(rng, 1.25, 4.0) : 1.25;
    expect_full_scan_decision(c);
  }
}

TEST(MpcPruningTest, FullScanOutsideTheBoundsPreconditions) {
  // Negative weights or exponents break the bound (stalls that add value, a
  // V that rewards switching, q falling with r); the scan must not cut. The
  // negative-gamma contexts also make stalls shrink as the ratio grows
  // (negative buffer and SR cost), so the stall bonus favours low ratios.
  CounterRng rng(0xAB12, /*stream=*/9);
  for (int i = 0; i < 1000; ++i) {
    MpcCase c = draw_case(rng);
    switch (i % 4) {
      case 0:
        c.qoe.gamma = -draw(rng, 0.0, 200.0);
        c.ctx.buffer_seconds = -draw(rng, 0.0, 5.0);
        c.ctx.sr_seconds_per_chunk_full = -draw(rng, 0.0, 4.0);
        break;
      case 1: c.qoe.beta = -draw(rng, 0.0, 4.0); break;
      case 2: c.qoe.drop_penalty = -draw(rng, 0.0, 3.0); break;
      case 3: c.qoe.sr_quality_exponent = -draw(rng, 0.05, 1.0); break;
    }
    expect_full_scan_decision(c);
  }
}

TEST(MpcPruningTest, ZeroDropPenalty) {
  CounterRng rng(0xAB12, /*stream=*/7);
  for (int i = 0; i < 500; ++i) {
    MpcCase c = draw_case(rng);
    c.qoe.drop_penalty = 0.0;
    expect_full_scan_decision(c);
  }
}

TEST(MpcPruningTest, SingleStepGrid) {
  CounterRng rng(0xAB12, /*stream=*/8);
  for (int i = 0; i < 500; ++i) {
    MpcCase c = draw_case(rng);
    c.grid_steps = 1;
    expect_full_scan_decision(c);
  }
}

}  // namespace
}  // namespace volut
