#include "src/stream/protocol.h"

#include <cstring>

namespace volut {

namespace {

constexpr std::uint32_t kMagic = 0x564C5554;  // "VLUT"

void expect_type(const Message& message, MessageType expected) {
  if (message.type != expected) {
    throw std::runtime_error("protocol: unexpected message type");
  }
}

/// Writes the framed message (header + `size` body bytes) into `out`.
void frame_into(MessageType type, const void* body, std::size_t size,
                std::vector<std::uint8_t>& out) {
  out.resize(kMessageHeaderSize + size);
  const auto type_word = static_cast<std::uint32_t>(type);
  const auto length = static_cast<std::uint32_t>(size);
  std::memcpy(out.data(), &kMagic, 4);
  std::memcpy(out.data() + 4, &type_word, 4);
  std::memcpy(out.data() + 8, &length, 4);
  if (size > 0) std::memcpy(out.data() + kMessageHeaderSize, body, size);
}

template <typename T>
Message encode_pod(MessageType type, const T& value) {
  Message message;
  message.type = type;
  message.body.resize(sizeof(T));
  std::memcpy(message.body.data(), &value, sizeof(T));
  return message;
}

template <typename T>
T decode_pod(const Message& message, MessageType expected) {
  expect_type(message, expected);
  if (message.body.size() < sizeof(T)) {
    throw std::runtime_error("protocol: truncated body");
  }
  T value;
  std::memcpy(&value, message.body.data(), sizeof(T));
  return value;
}

}  // namespace

std::vector<std::uint8_t> frame_message(const Message& message) {
  std::vector<std::uint8_t> out;
  frame_into(message.type, message.body.data(), message.body.size(), out);
  return out;
}

void frame_chunk_request(const ChunkRequest& req,
                         std::vector<std::uint8_t>& out) {
  frame_into(MessageType::kChunkRequest, &req, sizeof(req), out);
}

void FrameParser::feed(const std::uint8_t* data, std::size_t size) {
  if (read_ == buffer_.size()) {
    buffer_.clear();
  } else if (read_ > 0) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + std::ptrdiff_t(read_));
  }
  read_ = 0;
  buffer_.insert(buffer_.end(), data, data + size);
}

bool FrameParser::next(Message& out) {
  const std::size_t available = buffer_.size() - read_;
  if (available < kMessageHeaderSize) return false;
  const std::uint8_t* header = buffer_.data() + read_;
  std::uint32_t magic, type, length;
  std::memcpy(&magic, header, 4);
  std::memcpy(&type, header + 4, 4);
  std::memcpy(&length, header + 8, 4);
  if (magic != kMagic) throw std::runtime_error("protocol: bad magic");
  if (available - kMessageHeaderSize < length) return false;

  const std::uint8_t* body = header + kMessageHeaderSize;
  out.type = static_cast<MessageType>(type);
  out.body.assign(body, body + length);
  read_ += kMessageHeaderSize + length;
  return true;
}

std::optional<Message> FrameParser::next() {
  Message message;
  if (!next(message)) return std::nullopt;
  return message;
}

Message encode_manifest_request(const ManifestRequest& req) {
  return encode_pod(MessageType::kManifestRequest, req);
}
Message encode_manifest(const Manifest& manifest) {
  return encode_pod(MessageType::kManifestResponse, manifest);
}
Message encode_chunk_request(const ChunkRequest& req) {
  return encode_pod(MessageType::kChunkRequest, req);
}
Message encode_error(const ErrorResponse& err) {
  return encode_pod(MessageType::kError, err);
}

Message encode_chunk_response(const EncodedChunk& chunk) {
  Message message;
  message.type = MessageType::kChunkResponse;
  message.body = serialize_chunk(chunk);
  return message;
}

ManifestRequest decode_manifest_request(const Message& message) {
  return decode_pod<ManifestRequest>(message, MessageType::kManifestRequest);
}
Manifest decode_manifest(const Message& message) {
  return decode_pod<Manifest>(message, MessageType::kManifestResponse);
}
ChunkRequest decode_chunk_request(const Message& message) {
  return decode_pod<ChunkRequest>(message, MessageType::kChunkRequest);
}
ErrorResponse decode_error(const Message& message) {
  return decode_pod<ErrorResponse>(message, MessageType::kError);
}

EncodedChunk decode_chunk_response(const Message& message) {
  expect_type(message, MessageType::kChunkResponse);
  return parse_chunk(message.body);
}

ChunkHeader decode_chunk_response_views(const Message& message,
                                        std::vector<FrameView>& frames) {
  expect_type(message, MessageType::kChunkResponse);
  return parse_chunk_views(message.body, frames);
}

}  // namespace volut
