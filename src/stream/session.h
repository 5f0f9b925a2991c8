// End-to-end streaming session simulator.
//
// Drives one playback session of a video over a simulated link with one of
// the evaluated systems, reproducing the paper's end-to-end methodology
// (§7.4-7.5): per-chunk ABR decision -> trace-driven download -> client-side
// SR compute -> buffer dynamics -> Eq. 10 QoE accounting. This is the engine
// behind Figures 12, 13 and 14.
//
// Evaluated systems (Table 2 + §7.4 baselines):
//   kVolutContinuous  H1: VoLUT, continuous MPC ABR, LUT SR
//   kVolutDiscrete    H2: VoLUT, discrete MPC ABR, LUT SR
//   kYuzuSr           H3 / YuZu-SR: discrete ABR, neural SR (slow), per-ratio
//                     model downloads counted in data usage
//   kVivo             ViVo: viewport-adaptive, full density, no SR
//   kRaw              raw full-density streaming (the data-usage reference)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/abr/mpc.h"
#include "src/abr/qoe.h"
#include "src/abr/throughput.h"
#include "src/baselines/vivo.h"
#include "src/data/motion_trace.h"
#include "src/net/trace.h"
#include "src/stream/server.h"

namespace volut {

enum class SystemKind {
  kVolutContinuous,
  kVolutDiscrete,
  kYuzuSr,
  kVivo,
  kRaw,
};

std::string system_name(SystemKind kind);

struct SessionConfig {
  SystemKind kind = SystemKind::kVolutContinuous;
  VideoSpec video = VideoSpec::dress(0.02);
  double chunk_seconds = 1.0;
  /// Cap on simulated chunks (sessions over looped short videos would
  /// otherwise be unbounded).
  std::size_t max_chunks = 120;
  QoeConfig qoe;
  std::size_t mpc_horizon = 5;
  double max_buffer_seconds = 10.0;
  /// Chunks prefetched before playback starts (startup delay is not counted
  /// as stall, as is conventional).
  std::size_t startup_chunks = 2;

  /// Client SR compute per chunk of full-density input, in seconds.
  /// VoLUT's cost scales with *input* points (kNN-bound, §7.3) so the
  /// simulator charges volut_sr * density_ratio; YuZu's neural SR scales
  /// with *output* points (always full density) so its cost is flat.
  /// Defaults anchor to the paper's Figure 17 (VoLUT ~8.4x faster than
  /// YuZu, whose neural SR sits at/just past the 33 ms frame budget):
  /// 0.10 s per 30-frame chunk for VoLUT; 1.1 s for YuZu (borderline
  /// real-time plus scheduling jitter — the SR-induced stall source the
  /// paper's H3 ablation attributes its 36.7% QoE drop to).
  double volut_sr_seconds_per_chunk = 0.10;
  double yuzu_sr_seconds_per_chunk = 1.0;
  /// One-time model downloads for YuZu (per-ratio models; counted in data
  /// usage per §7.4 "including SR models for yuzu SR").
  double yuzu_model_bytes = 8e6;
  VivoConfig vivo;
  std::uint64_t seed = 5;
};

struct ChunkRecord {
  std::size_t index = 0;
  double density_ratio = 1.0;
  double bytes = 0.0;
  double download_seconds = 0.0;
  double sr_seconds = 0.0;
  double stall_seconds = 0.0;
  double quality = 0.0;
  double qoe = 0.0;
  double buffer_after = 0.0;
};

struct SessionResult {
  std::string system;
  std::vector<ChunkRecord> chunks;
  double total_bytes = 0.0;
  double stall_seconds = 0.0;
  double qoe = 0.0;
  double mean_quality = 0.0;
  double mean_density = 0.0;
  std::size_t quality_switches = 0;
  /// Bytes relative to raw full-density streaming of the same chunks.
  double data_usage_fraction = 0.0;

  /// QoE normalized so that a stall-free full-density session scores 100.
  double normalized_qoe() const;
};

/// One ABR-planned chunk fetch: everything decided at request time.
struct ChunkPlan {
  std::size_t index = 0;
  double density_ratio = 1.0;
  /// Fraction of full-density bytes actually fetched (density times viewport
  /// culling for ViVo).
  double fetch_fraction = 1.0;
  double bytes = 0.0;
  double quality = 0.0;
  double sr_seconds = 0.0;
};

/// Per-chunk session stepper: the ABR / buffer / QoE core of run_session,
/// factored out so one timeline driver can interleave many sessions (the
/// serve/ fleet simulator) while run_session keeps the single-link path.
///
/// Per chunk: plan_chunk() at request time, then complete_chunk() once the
/// caller has simulated the download. The caller owns the clock and the link
/// model; the engine owns ABR state, buffer dynamics and QoE accounting.
class SessionEngine {
 public:
  /// `session_start` anchors session-relative time (viewer motion, playback
  /// deadlines) when the caller's clock does not begin at this session's
  /// start — run_fleet passes the client's admission time; run_session
  /// leaves it at 0.
  explicit SessionEngine(const SessionConfig& config,
                         const MotionTrace* motion = nullptr,
                         double session_start = 0.0);
  ~SessionEngine();

  SessionEngine(const SessionEngine&) = delete;
  SessionEngine& operator=(const SessionEngine&) = delete;

  const SessionConfig& config() const { return config_; }
  bool done() const { return next_index_ >= n_chunks_; }
  std::size_t total_chunks() const { return n_chunks_; }
  double full_chunk_bytes() const { return full_bytes_; }
  /// True if the system fetches assets before the first chunk (YuZu SR
  /// models). The request costs one RTT even when startup_bytes() is zero.
  bool has_startup_download() const {
    return config_.kind == SystemKind::kYuzuSr;
  }
  /// Bytes fetched before the first chunk (YuZu SR models). Already counted
  /// in the result's data usage; the caller simulates the transfer time.
  double startup_bytes() const { return startup_bytes_; }

  /// ABR decision for the next chunk, issued at `now` with the link's
  /// currently observable bandwidth (Mbps, pre-headroom). Call once per
  /// chunk, paired with complete_chunk.
  ChunkPlan plan_chunk(double now, double observed_bandwidth_mbps);

  /// `plan` re-priced at density `ratio` on this session's SR ladder: bytes,
  /// quality and the client SR cost all follow the ratio. The one owner of
  /// that pricing for the SR-capable kinds (VoLUT, YuZu); plan_chunk and the
  /// fleet's density downshift both go through it.
  ChunkPlan at_density(ChunkPlan plan, double ratio) const;

  /// Applies download / SR-pipeline / buffer / QoE dynamics for a planned
  /// chunk issued at `issued_at` and fully received at `completed_at`.
  /// Returns the earliest time the client issues its next request.
  double complete_chunk(const ChunkPlan& plan, double issued_at,
                        double completed_at);

  /// Finalizes means and data-usage fractions over the completed chunks.
  SessionResult finish() const;

  /// Most recently completed chunk; null before the first completion. Lets
  /// the fleet timeline read stall/quality outcomes right after
  /// complete_chunk without waiting for finish().
  const ChunkRecord* last_chunk() const {
    return result_.chunks.empty() ? nullptr : &result_.chunks.back();
  }
  /// Quality switches accumulated so far (finish() reports the same total).
  std::size_t quality_switches() const { return result_.quality_switches; }

 private:
  SessionConfig config_;
  const MotionTrace* motion_;
  double session_start_ = 0.0;
  std::unique_ptr<AbrPolicy> abr_;
  ThroughputEstimator estimator_;
  PointCloud vivo_reference_;
  std::size_t n_chunks_ = 0;
  double full_bytes_ = 0.0;
  double startup_bytes_ = 0.0;
  std::size_t next_index_ = 0;
  double buffer_ = 0.0;
  double prev_quality_ = -1.0;
  double prev_ratio_ = 1.0;
  SessionResult result_;
};

/// Runs one session. `motion` is required for kVivo (viewport planning) and
/// optional otherwise.
SessionResult run_session(const SessionConfig& config,
                          const SimulatedLink& link,
                          const MotionTrace* motion = nullptr);

}  // namespace volut
