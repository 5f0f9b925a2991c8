#include "src/stream/session.h"

#include <algorithm>

#include "src/net/shared_link.h"

namespace volut {

std::string system_name(SystemKind kind) {
  switch (kind) {
    case SystemKind::kVolutContinuous: return "volut-h1-continuous";
    case SystemKind::kVolutDiscrete: return "volut-h2-discrete";
    case SystemKind::kYuzuSr: return "yuzu-sr-h3";
    case SystemKind::kVivo: return "vivo";
    case SystemKind::kRaw: return "raw";
  }
  return "unknown";
}

double SessionResult::normalized_qoe() const {
  if (chunks.empty()) return 0.0;
  // A perfect session: full quality every chunk, no switches, no stalls.
  const double ideal = 100.0 * double(chunks.size());
  return std::max(0.0, 100.0 * qoe / ideal);
}

SessionEngine::SessionEngine(const SessionConfig& config,
                             const MotionTrace* motion, double session_start)
    : config_(config), motion_(motion), session_start_(session_start),
      estimator_(5) {
  result_.system = system_name(config_.kind);
  n_chunks_ = std::min<std::size_t>(
      config_.max_chunks, chunk_count(config_.video, config_.chunk_seconds));
  full_bytes_ = chunk_bytes(config_.video, 1.0, config_.chunk_seconds);
  result_.chunks.reserve(n_chunks_);

  switch (config_.kind) {
    case SystemKind::kVolutContinuous:
      abr_ = std::make_unique<ContinuousMpcAbr>(config_.qoe);
      break;
    case SystemKind::kVolutDiscrete:
    case SystemKind::kYuzuSr:
      abr_ = std::make_unique<DiscreteMpcAbr>(config_.qoe);
      break;
    case SystemKind::kVivo:
      // ViVo adapts quality per cell but has no SR: discrete ladder with
      // quality equal to the delivered density.
      abr_ = std::make_unique<DiscreteMpcAbr>(config_.qoe,
                                              DiscreteMpcAbr::default_ladder(),
                                              /*sr_enabled=*/false);
      break;
    case SystemKind::kRaw:
      break;  // fixed policy handled inline
  }

  // YuZu downloads its SR models up front; count the bytes here, the caller
  // simulates the transfer time.
  if (config_.kind == SystemKind::kYuzuSr) {
    startup_bytes_ = config_.yuzu_model_bytes;
    result_.total_bytes += config_.yuzu_model_bytes;
  }

  // Coarse reference frame for ViVo visibility planning (one per session;
  // content extent is stable across frames).
  if (config_.kind == SystemKind::kVivo) {
    VideoSpec coarse = config_.video;
    coarse.points_per_frame = std::min<std::size_t>(
        coarse.points_per_frame, 2000);
    vivo_reference_ = SyntheticVideo(coarse).frame(0);
  }
}

SessionEngine::~SessionEngine() = default;

ChunkPlan SessionEngine::plan_chunk(double now,
                                    double observed_bandwidth_mbps) {
  ChunkPlan plan;
  plan.index = next_index_;
  // The ABR inputs every adaptive system shares; only the chunk size the
  // ABR sees and the SR cost it anticipates differ per system. Feeds the
  // throughput estimator, so each plan builds exactly one context.
  const auto make_ctx = [&](double full_bytes, double sr_seconds_full) {
    AbrContext ctx;
    ctx.throughput_mbps =
        estimator_.estimate_mbps(observed_bandwidth_mbps * 0.8);
    ctx.buffer_seconds = buffer_;
    ctx.prev_density_ratio = prev_ratio_;
    ctx.chunk_seconds = config_.chunk_seconds;
    ctx.full_chunk_bytes = full_bytes;
    ctx.sr_seconds_per_chunk_full = sr_seconds_full;
    ctx.horizon = config_.mpc_horizon;
    ctx.max_buffer_seconds = config_.max_buffer_seconds;
    return ctx;
  };
  switch (config_.kind) {
    case SystemKind::kVolutContinuous:
    case SystemKind::kVolutDiscrete: {
      const AbrDecision d = abr_->decide(
          make_ctx(full_bytes_, config_.volut_sr_seconds_per_chunk));
      return at_density(plan, d.density_ratio);
    }
    case SystemKind::kYuzuSr: {
      // YuZu's ABR does not model its SR latency (the stalls the paper
      // attributes to slow SR under H3).
      const AbrDecision d =
          abr_->decide(make_ctx(full_bytes_, /*sr_seconds_full=*/0.0));
      return at_density(plan, d.density_ratio);
    }
    case SystemKind::kVivo: {
      // Viewer motion runs on session-relative time: a client admitted at
      // fleet time T samples its trace from 0, not from T.
      const double t_decision = now - session_start_;
      const double t_playback = double(next_index_) * config_.chunk_seconds +
                                config_.chunk_seconds * 0.5;
      Pose decision_pose, playback_pose;
      if (motion_ != nullptr && !motion_->empty()) {
        decision_pose =
            motion_->pose(std::size_t(t_decision * motion_->fps()));
        playback_pose =
            motion_->pose(std::size_t(t_playback * motion_->fps()));
      }
      const VivoChunkPlan vivo = vivo_plan_chunk(
          vivo_reference_, decision_pose, playback_pose, config_.vivo);
      // Density adaptation on top of visibility-aware fetching. Both
      // viewport culling (fewer bytes) and misprediction (lost coverage)
      // come from the plan. No client-side SR to anticipate.
      const AbrDecision d = abr_->decide(make_ctx(
          full_bytes_ * vivo.fetch_fraction, /*sr_seconds_full=*/0.0));
      plan.density_ratio = d.density_ratio;
      plan.fetch_fraction = d.density_ratio * vivo.fetch_fraction;
      plan.quality = quality_score(d.density_ratio, config_.qoe, false) *
                     vivo.coverage;
      break;
    }
    case SystemKind::kRaw:
      plan.density_ratio = 1.0;
      plan.fetch_fraction = 1.0;
      plan.quality = 100.0;
      break;
  }
  plan.bytes = full_bytes_ * plan.fetch_fraction;
  return plan;
}

ChunkPlan SessionEngine::at_density(ChunkPlan plan, double ratio) const {
  plan.density_ratio = ratio;
  plan.fetch_fraction = ratio;
  plan.bytes = full_bytes_ * ratio;
  plan.quality = quality_score(ratio, config_.qoe, true);
  // YuZu's neural SR cost scales with output points => flat whenever SR
  // runs; VoLUT's LUT SR cost scales with the input density.
  plan.sr_seconds = config_.kind == SystemKind::kYuzuSr
                        ? (ratio < 1.0 ? config_.yuzu_sr_seconds_per_chunk
                                       : 0.0)
                        : config_.volut_sr_seconds_per_chunk * ratio;
  return plan;
}

double SessionEngine::complete_chunk(const ChunkPlan& plan, double issued_at,
                                     double completed_at) {
  ChunkRecord rec;
  rec.index = plan.index;
  rec.density_ratio = plan.density_ratio;
  rec.bytes = plan.bytes;
  rec.download_seconds = completed_at - issued_at;
  if (rec.download_seconds > 0.0) {
    estimator_.add_sample(rec.bytes * 8.0 / rec.download_seconds / 1e6);
  }

  // The client pipelines download and SR across chunks (§6 "multi-
  // threading and system pipelining"): per-chunk busy time is the longer
  // of the two stages plus a 25% overlap-inefficiency share of the
  // shorter (pipeline bubbles, memory traffic).
  rec.sr_seconds = plan.sr_seconds;
  const double busy =
      std::max(rec.download_seconds, rec.sr_seconds) +
      0.25 * std::min(rec.download_seconds, rec.sr_seconds);
  const bool playing = plan.index >= config_.startup_chunks;
  if (playing) {
    rec.stall_seconds = std::max(0.0, busy - buffer_);
    buffer_ = std::max(0.0, buffer_ - busy) + config_.chunk_seconds;
  } else {
    buffer_ += config_.chunk_seconds;  // startup prefetch
  }
  buffer_ = std::min(buffer_, config_.max_buffer_seconds);
  // When the buffer is full the client idles before the next request.
  double next_request = completed_at;
  if (buffer_ >= config_.max_buffer_seconds - 1e-9 && playing) {
    next_request += config_.chunk_seconds * 0.25;
  }

  rec.quality = plan.quality;
  const double q_prev = prev_quality_ < 0.0 ? plan.quality : prev_quality_;
  rec.qoe = chunk_qoe(plan.quality, q_prev, rec.stall_seconds, config_.qoe);
  rec.buffer_after = buffer_;

  if (prev_quality_ >= 0.0 && std::abs(plan.quality - prev_quality_) > 1.0) {
    ++result_.quality_switches;
  }
  prev_quality_ = plan.quality;
  prev_ratio_ = rec.density_ratio;

  result_.total_bytes += rec.bytes;
  result_.stall_seconds += rec.stall_seconds;
  result_.qoe += rec.qoe;
  result_.mean_quality += rec.quality;
  result_.mean_density += rec.density_ratio;
  result_.chunks.push_back(rec);
  ++next_index_;
  return next_request;
}

SessionResult SessionEngine::finish() const {
  SessionResult result = result_;
  if (!result.chunks.empty()) {
    result.mean_quality /= double(result.chunks.size());
    result.mean_density /= double(result.chunks.size());
    result.data_usage_fraction =
        result.total_bytes / (full_bytes_ * double(result.chunks.size()));
  }
  return result;
}

SessionResult run_session(const SessionConfig& config,
                          const SimulatedLink& link,
                          const MotionTrace* motion) {
  SessionEngine engine(config, motion);
  SharedLink net(link.trace);  // one flow per download, one RTT late
  const auto download = [&](double bytes, double issued_at) {
    net.start_flow(bytes);
    const double done = net.next_completion_time(issued_at + link.rtt_seconds);
    net.advance(issued_at + link.rtt_seconds, done);
    return done;
  };
  double clock = engine.has_startup_download()
                     ? download(engine.startup_bytes(), 0.0)
                     : 0.0;
  while (!engine.done()) {
    const ChunkPlan plan =
        engine.plan_chunk(clock, link.trace.bandwidth_at(clock));
    const double t_done = download(plan.bytes, clock);
    clock = engine.complete_chunk(plan, clock, t_done);
  }
  return engine.finish();
}

}  // namespace volut
