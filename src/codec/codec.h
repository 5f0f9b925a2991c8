// Point-cloud wire codec and chunk container.
//
// The server "segments videos into fixed-length chunks and encodes them at
// requested point densities" (§3). This codec quantizes positions to 16 bits
// per axis inside the chunk bounding box and stores 8-bit RGB, giving
// 9 bytes/point payload — in line with published per-point rates for
// quantized point-cloud streaming. Decoding is lossy only through position
// quantization (sub-millimeter at human-scale content).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/point_cloud.h"

namespace volut {

struct ChunkHeader {
  std::uint32_t video_id = 0;
  std::uint32_t chunk_index = 0;
  std::uint32_t frame_count = 0;
  /// Fraction of full density the payload carries (the ABR decision).
  float density_ratio = 1.0f;
  /// SR ratio the client should apply (1.0 / density_ratio for VoLUT).
  float sr_ratio = 1.0f;
};

/// Wire bytes ahead of each frame's payload: bounds lo/hi, point count and
/// payload size.
inline constexpr std::size_t kFrameHeaderBytes =
    2 * sizeof(Vec3f) + sizeof(std::uint32_t) + sizeof(std::uint64_t);

struct EncodedFrame {
  AABB bounds;
  std::uint32_t point_count = 0;
  std::vector<std::uint8_t> payload;  // 9 bytes per point

  /// Exact serialized size of this frame.
  std::size_t byte_size() const { return kFrameHeaderBytes + payload.size(); }
};

struct EncodedChunk {
  ChunkHeader header;
  std::vector<EncodedFrame> frames;

  /// Exact size of serialize_chunk(*this).
  std::size_t byte_size() const;
};

/// A frame as it sits in a serialized chunk: the payload is a view into the
/// chunk's bytes, valid as long as they are.
struct FrameView {
  AABB bounds;
  std::uint32_t point_count = 0;
  std::span<const std::uint8_t> payload;
};

/// Bytes per encoded point (position 3x16-bit + color 3x8-bit).
inline constexpr std::size_t kBytesPerPoint = 9;

/// Encodes one frame (bbox-quantized). Empty clouds encode to an empty
/// payload.
EncodedFrame encode_frame(const PointCloud& cloud);

/// Decodes a frame into `out` (positions dequantized to bin centers),
/// reusing its capacity. Throws std::runtime_error on a payload shorter than
/// the point count or on non-finite / inverted bounds.
void decode_frame_into(const FrameView& frame, PointCloud& out);
PointCloud decode_frame(const EncodedFrame& frame);

/// Serializes / parses a chunk to a flat byte stream (the DASH-like wire
/// format, §6).
std::vector<std::uint8_t> serialize_chunk(const EncodedChunk& chunk);
/// Parses the chunk header and one view per frame into `frames` (resized,
/// capacity reused) without copying any payload. Throws std::runtime_error
/// on a truncated stream, before any allocation a hostile count could size,
/// and on a non-finite density or SR ratio in the header.
ChunkHeader parse_chunk_views(std::span<const std::uint8_t> bytes,
                              std::vector<FrameView>& frames);
/// parse_chunk_views with every payload copied out.
EncodedChunk parse_chunk(const std::vector<std::uint8_t>& bytes);

}  // namespace volut
