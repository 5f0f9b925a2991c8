#include "src/codec/codec.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace volut {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(std::uint8_t(v & 0xFF));
  out.push_back(std::uint8_t(v >> 8));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return std::uint16_t(p[0]) | (std::uint16_t(p[1]) << 8);
}

void append_raw(std::vector<std::uint8_t>& out, const void* p,
                std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  out.insert(out.end(), b, b + n);
}

}  // namespace

std::size_t EncodedChunk::byte_size() const {
  std::size_t total = sizeof(ChunkHeader) + sizeof(std::uint32_t);
  for (const EncodedFrame& f : frames) total += f.byte_size();
  return total;
}

EncodedFrame encode_frame(const PointCloud& cloud) {
  EncodedFrame frame;
  frame.bounds = cloud.bounds();
  frame.point_count = static_cast<std::uint32_t>(cloud.size());
  if (cloud.empty()) return frame;

  const Vec3f lo = frame.bounds.lo;
  Vec3f ext = frame.bounds.extent();
  // Avoid division by zero on degenerate axes.
  for (int a = 0; a < 3; ++a) ext[a] = std::max(ext[a], 1e-12f);

  frame.payload.reserve(cloud.size() * kBytesPerPoint);
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    const Vec3f& p = cloud.position(i);
    for (int a = 0; a < 3; ++a) {
      const float norm = (p[a] - lo[a]) / ext[a];
      const auto q = std::uint16_t(
          std::clamp(norm * 65535.0f + 0.5f, 0.0f, 65535.0f));
      put_u16(frame.payload, q);
    }
    const Color& c = cloud.color(i);
    frame.payload.push_back(c.r);
    frame.payload.push_back(c.g);
    frame.payload.push_back(c.b);
  }
  return frame;
}

void decode_frame_into(const FrameView& frame, PointCloud& out) {
  const std::size_t n = frame.point_count;
  if (n == 0) {
    out.clear();
    return;
  }
  if (frame.payload.size() < n * kBytesPerPoint) {
    throw std::runtime_error("decode_frame: truncated payload");
  }
  // Bounds come off the wire: NaN, infinite or inverted ones would decode
  // to non-finite positions, which the spatial index cannot bin. The
  // negated <= also catches NaN, and a finite extent rules out infinities.
  for (int a = 0; a < 3; ++a) {
    if (!(frame.bounds.lo[a] <= frame.bounds.hi[a]) ||
        !std::isfinite(frame.bounds.hi[a] - frame.bounds.lo[a])) {
      throw std::runtime_error("decode_frame: non-finite or inverted bounds");
    }
  }
  const Vec3f lo = frame.bounds.lo;
  Vec3f ext = frame.bounds.extent();
  for (int a = 0; a < 3; ++a) ext[a] = std::max(ext[a], 1e-12f);

  out.resize(n);
  const std::span<Vec3f> positions = out.positions();
  const std::span<Color> colors = out.colors();
  const std::uint8_t* p = frame.payload.data();
  for (std::size_t i = 0; i < n; ++i) {
    Vec3f& pos = positions[i];
    for (int a = 0; a < 3; ++a) {
      pos[a] = lo[a] + (float(get_u16(p)) / 65535.0f) * ext[a];
      p += 2;
    }
    colors[i] = Color{p[0], p[1], p[2]};
    p += 3;
  }
}

PointCloud decode_frame(const EncodedFrame& frame) {
  PointCloud cloud;
  decode_frame_into({frame.bounds, frame.point_count, frame.payload}, cloud);
  return cloud;
}

std::vector<std::uint8_t> serialize_chunk(const EncodedChunk& chunk) {
  std::vector<std::uint8_t> out;
  out.reserve(chunk.byte_size());
  append_raw(out, &chunk.header, sizeof(ChunkHeader));
  const auto frame_count = static_cast<std::uint32_t>(chunk.frames.size());
  append_raw(out, &frame_count, sizeof(frame_count));
  for (const EncodedFrame& f : chunk.frames) {
    append_raw(out, &f.bounds.lo, sizeof(Vec3f));
    append_raw(out, &f.bounds.hi, sizeof(Vec3f));
    append_raw(out, &f.point_count, sizeof(f.point_count));
    const auto payload_size = static_cast<std::uint64_t>(f.payload.size());
    append_raw(out, &payload_size, sizeof(payload_size));
    out.insert(out.end(), f.payload.begin(), f.payload.end());
  }
  return out;
}

ChunkHeader parse_chunk_views(std::span<const std::uint8_t> bytes,
                              std::vector<FrameView>& frames) {
  std::size_t off = 0;
  // off <= bytes.size() always holds, so this side of the comparison
  // cannot wrap, whatever n the stream claims.
  auto need = [&](std::size_t n) {
    if (n > bytes.size() - off) {
      throw std::runtime_error("parse_chunk: truncated stream");
    }
  };
  auto read = [&](void* dst, std::size_t n) {
    std::memcpy(dst, bytes.data() + off, n);
    off += n;
  };
  ChunkHeader header;
  need(sizeof(ChunkHeader));
  read(&header, sizeof(ChunkHeader));
  if (!std::isfinite(header.density_ratio) ||
      !std::isfinite(header.sr_ratio)) {
    throw std::runtime_error("parse_chunk: non-finite ratio in chunk header");
  }
  std::uint32_t frame_count = 0;
  need(sizeof(frame_count));
  read(&frame_count, sizeof(frame_count));
  // Every frame carries at least its header, so the remaining bytes bound
  // the count; check before the count sizes any allocation.
  need(std::size_t(frame_count) * kFrameHeaderBytes);
  frames.resize(frame_count);
  for (FrameView& f : frames) {
    need(kFrameHeaderBytes);
    read(&f.bounds.lo, sizeof(Vec3f));
    read(&f.bounds.hi, sizeof(Vec3f));
    read(&f.point_count, sizeof(f.point_count));
    std::uint64_t payload_size = 0;
    read(&payload_size, sizeof(payload_size));
    need(payload_size);
    f.payload = bytes.subspan(off, payload_size);
    off += payload_size;
  }
  return header;
}

EncodedChunk parse_chunk(const std::vector<std::uint8_t>& bytes) {
  std::vector<FrameView> views;
  EncodedChunk chunk;
  chunk.header = parse_chunk_views(bytes, views);
  chunk.frames.resize(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    EncodedFrame& f = chunk.frames[i];
    f.bounds = views[i].bounds;
    f.point_count = views[i].point_count;
    f.payload.assign(views[i].payload.begin(), views[i].payload.end());
  }
  return chunk;
}

}  // namespace volut
