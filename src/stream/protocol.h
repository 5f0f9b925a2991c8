// The DASH-like client/server protocol (§6: "We develop a custom DASH-like
// protocol over TCP for client-server communication").
//
// Message framing: a 12-byte header (magic, type, body length) followed by a
// type-specific body. The client first fetches the manifest (video metadata,
// chunk geometry), then issues one ChunkRequest per chunk with the
// ABR-decided density; the server answers with the encoded chunk.
//
// Transport is abstracted behind a byte-stream interface so the same protocol
// code runs over an in-memory loopback (tests, simulations) or a real socket.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "src/codec/codec.h"

namespace volut {

enum class MessageType : std::uint32_t {
  kManifestRequest = 1,
  kManifestResponse = 2,
  kChunkRequest = 3,
  kChunkResponse = 4,
  kError = 5,
};

struct ManifestRequest {
  std::uint32_t video_id = 0;
};

struct Manifest {
  std::uint32_t video_id = 0;
  std::uint32_t total_chunks = 0;
  std::uint32_t frames_per_chunk = 0;
  float chunk_seconds = 1.0f;
  std::uint32_t full_points_per_frame = 0;
  /// Exact wire size of a full-density chunk (lets the ABR plan byte
  /// budgets without probing).
  std::uint64_t full_chunk_bytes = 0;
};

struct ChunkRequest {
  std::uint32_t video_id = 0;
  std::uint32_t chunk_index = 0;
  /// Requested density in (0, 1]; the server downsamples to this fraction.
  float density_ratio = 1.0f;
};

struct ErrorResponse {
  std::uint32_t code = 0;
  // (string payloads omitted: numeric codes keep framing trivial)
};

/// A framed protocol message: header + raw body bytes.
struct Message {
  MessageType type = MessageType::kError;
  std::vector<std::uint8_t> body;
};

/// Bytes of framing ahead of every body: magic + type + body length.
inline constexpr std::size_t kMessageHeaderSize = 12;

/// Wire size of `message` once framed, without framing it.
inline std::size_t framed_size(const Message& message) {
  return kMessageHeaderSize + message.body.size();
}

/// Serializes a message with framing (magic + type + length + body).
std::vector<std::uint8_t> frame_message(const Message& message);

/// Frames `req` into `out` (the bytes frame_message(encode_chunk_request(req))
/// returns), reusing `out`'s capacity: the client's per-chunk request path.
void frame_chunk_request(const ChunkRequest& req,
                         std::vector<std::uint8_t>& out);

/// Incremental frame parser: feed arbitrary byte slices, pop complete
/// messages. Throws std::runtime_error on a corrupt magic. Fed bytes are
/// copied once into a contiguous buffer; popping a message copies its body
/// out and advances a read offset, and the next feed drops the consumed
/// prefix, so the buffer stays bounded and keeps its capacity.
class FrameParser {
 public:
  void feed(const std::uint8_t* data, std::size_t size);
  void feed(const std::vector<std::uint8_t>& data) {
    feed(data.data(), data.size());
  }

  /// Pops the next complete message into `out`, reusing `out.body`'s
  /// capacity; returns false (leaving `out` untouched) if more bytes are
  /// needed.
  bool next(Message& out);
  /// Returns the next complete message, or nullopt if more bytes are needed.
  std::optional<Message> next();

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t read_ = 0;  // offset of the first unconsumed byte
};

// --- body encoders/decoders (plain little-endian PODs) ----------------------

Message encode_manifest_request(const ManifestRequest& req);
Message encode_manifest(const Manifest& manifest);
Message encode_chunk_request(const ChunkRequest& req);
/// Chunk responses carry a serialized EncodedChunk (codec.h wire format).
Message encode_chunk_response(const EncodedChunk& chunk);
Message encode_error(const ErrorResponse& err);

ManifestRequest decode_manifest_request(const Message& message);
Manifest decode_manifest(const Message& message);
ChunkRequest decode_chunk_request(const Message& message);
EncodedChunk decode_chunk_response(const Message& message);
/// Views of the chunk response's frames into `message.body` (see
/// parse_chunk_views): valid while the message is alive and unchanged.
ChunkHeader decode_chunk_response_views(const Message& message,
                                        std::vector<FrameView>& frames);
ErrorResponse decode_error(const Message& message);

}  // namespace volut
