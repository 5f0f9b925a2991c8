// The VoLUT server (§3): segments videos into fixed-length chunks and encodes
// them at any requested point density.
//
// Because synthetic videos are deterministic generators, the server
// materializes frames on demand instead of storing them; `chunk_bytes` gives
// the exact wire size an encode would produce (frames x points x codec rate),
// which is what the ABR controller and the network simulator consume, while
// `encode_sample_frame` produces a real decoded frame for clients that run
// the actual SR pipeline.
#pragma once

#include <algorithm>
#include <cstddef>

#include "src/codec/codec.h"
#include "src/core/rng.h"
#include "src/data/synthetic_video.h"

namespace volut {

/// Chunk arithmetic of a video. It depends on the VideoSpec alone, so the
/// session simulator prices chunks without holding a VideoServer.
inline std::size_t frames_per_chunk(const VideoSpec& spec,
                                    double chunk_seconds) {
  return std::max<std::size_t>(1,
                               std::size_t(spec.fps * chunk_seconds + 0.5));
}

inline std::size_t chunk_count(const VideoSpec& spec, double chunk_seconds) {
  const std::size_t fpc = frames_per_chunk(spec, chunk_seconds);
  return (spec.total_frames() + fpc - 1) / fpc;
}

/// Wire bytes of one chunk encoded at `density_ratio` of full density.
inline double chunk_bytes(const VideoSpec& spec, double density_ratio,
                          double chunk_seconds) {
  const double points =
      double(spec.points_per_frame) * std::clamp(density_ratio, 0.0, 1.0);
  return double(frames_per_chunk(spec, chunk_seconds)) * points *
             double(kBytesPerPoint) +
         64.0;  // header
}

class VideoServer {
 public:
  explicit VideoServer(VideoSpec spec)
      : video_(std::move(spec)), rng_(video_.spec().seed ^ 0x5151) {}

  const VideoSpec& spec() const { return video_.spec(); }

  std::size_t frames_per_chunk(double chunk_seconds) const {
    return volut::frames_per_chunk(spec(), chunk_seconds);
  }

  std::size_t chunk_count(double chunk_seconds) const {
    return volut::chunk_count(spec(), chunk_seconds);
  }

  /// Wire bytes of one chunk encoded at `density_ratio` of full density.
  double chunk_bytes(double density_ratio, double chunk_seconds) const {
    return volut::chunk_bytes(spec(), density_ratio, chunk_seconds);
  }

  /// Full-density bitrate in Mbps (the paper's "720 Mbps for 200K points"
  /// scale check).
  double full_bitrate_mbps() const {
    return double(spec().points_per_frame) * kBytesPerPoint * 8.0 *
           spec().fps / 1e6;
  }

  /// Materializes + encodes + decodes one representative frame of `chunk` at
  /// the requested density, exactly as a client would receive it (§5.2
  /// random downsampling, bbox-quantized codec).
  PointCloud encode_sample_frame(std::size_t chunk_index,
                                 double density_ratio, double chunk_seconds);

  /// Ground-truth (full-density, uncoded) version of the same frame.
  PointCloud ground_truth_frame(std::size_t chunk_index,
                                double chunk_seconds) const;

 private:
  SyntheticVideo video_;
  Rng rng_;
};

}  // namespace volut
