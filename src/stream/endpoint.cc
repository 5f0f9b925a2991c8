#include "src/stream/endpoint.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace volut {

namespace {

/// Throws the server's error code when `response` is an error response.
/// decode_error rejects an error body too short to hold the code.
void throw_if_error(const Message& response, const char* request) {
  if (response.type != MessageType::kError) return;
  throw std::runtime_error(std::string("VolutClient: server rejected ") +
                           request + " with error code " +
                           std::to_string(decode_error(response).code));
}

}  // namespace

std::pair<std::unique_ptr<InMemoryTransport>,
          std::unique_ptr<InMemoryTransport>>
InMemoryTransport::make_pair() {
  auto a = std::unique_ptr<InMemoryTransport>(new InMemoryTransport());
  auto b = std::unique_ptr<InMemoryTransport>(new InMemoryTransport());
  a->peer_ = b.get();
  b->peer_ = a.get();
  return {std::move(a), std::move(b)};
}

void InMemoryTransport::send(const std::vector<std::uint8_t>& bytes) {
  if (peer_ != nullptr && peer_->sink_) peer_->sink_(bytes);
}

ServerEndpoint::ServerEndpoint(VideoSpec spec, Transport* transport,
                               double chunk_seconds,
                               std::size_t max_frames_per_chunk)
    : server_(std::move(spec)), transport_(transport),
      chunk_seconds_(chunk_seconds),
      max_frames_per_chunk_(max_frames_per_chunk) {
  transport_->set_receive_sink(
      [this](const std::vector<std::uint8_t>& bytes) { on_bytes(bytes); });
}

void ServerEndpoint::on_bytes(const std::vector<std::uint8_t>& bytes) {
  parser_.feed(bytes);
  while (auto message = parser_.next()) handle(*message);
}

void ServerEndpoint::handle(const Message& message) {
  switch (message.type) {
    case MessageType::kManifestRequest: {
      const ManifestRequest req = decode_manifest_request(message);
      Manifest manifest;
      manifest.video_id = req.video_id;
      manifest.total_chunks =
          static_cast<std::uint32_t>(server_.chunk_count(chunk_seconds_));
      manifest.frames_per_chunk = static_cast<std::uint32_t>(
          server_.frames_per_chunk(chunk_seconds_));
      manifest.chunk_seconds = float(chunk_seconds_);
      manifest.full_points_per_frame =
          static_cast<std::uint32_t>(server_.spec().points_per_frame);
      manifest.full_chunk_bytes = static_cast<std::uint64_t>(
          server_.chunk_bytes(1.0, chunk_seconds_));
      transport_->send(frame_message(encode_manifest(manifest)));
      return;
    }
    case MessageType::kChunkRequest: {
      const ChunkRequest req = decode_chunk_request(message);
      // Written so NaN fails too: it would reach random_downsample's
      // float-to-size_t cast.
      if (req.chunk_index >= server_.chunk_count(chunk_seconds_) ||
          !(req.density_ratio > 0.0f && req.density_ratio <= 1.0f)) {
        transport_->send(frame_message(encode_error({/*code=*/400})));
        return;
      }
      EncodedChunk chunk;
      chunk.header.video_id = req.video_id;
      chunk.header.chunk_index = req.chunk_index;
      chunk.header.density_ratio = req.density_ratio;
      chunk.header.sr_ratio = 1.0f / req.density_ratio;
      const std::size_t fpc = server_.frames_per_chunk(chunk_seconds_);
      const std::size_t frames = std::min(fpc, max_frames_per_chunk_);
      chunk.header.frame_count = static_cast<std::uint32_t>(frames);
      for (std::size_t f = 0; f < frames; ++f) {
        const PointCloud full =
            server_.ground_truth_frame(req.chunk_index, chunk_seconds_);
        const PointCloud sampled =
            full.random_downsample(req.density_ratio, rng_);
        chunk.frames.push_back(encode_frame(sampled));
      }
      ++chunks_served_;
      transport_->send(frame_message(encode_chunk_response(chunk)));
      return;
    }
    default:
      transport_->send(frame_message(encode_error({/*code=*/405})));
  }
}

VolutClient::VolutClient(Transport* transport,
                         std::shared_ptr<const RefinementLut> lut,
                         InterpolationConfig interp, ThreadPool* pool)
    : transport_(transport), pipeline_(std::move(lut), interp, pool) {
  transport_->set_receive_sink(
      [this](const std::vector<std::uint8_t>& bytes) { on_bytes(bytes); });
}

void VolutClient::on_bytes(const std::vector<std::uint8_t>& bytes) {
  bytes_received_ += bytes.size();
  parser_.feed(bytes);
}

void VolutClient::await_message() {
  if (!parser_.next(message_)) {
    throw std::runtime_error(
        "VolutClient: no response (asynchronous transport without pump?)");
  }
}

Manifest VolutClient::fetch_manifest(std::uint32_t video_id) {
  transport_->send(frame_message(encode_manifest_request({video_id})));
  await_message();
  throw_if_error(message_, "manifest request");
  return decode_manifest(message_);
}

ClientChunk VolutClient::fetch_chunk(std::uint32_t video_id,
                                     std::uint32_t index,
                                     float density_ratio) {
  ClientChunk chunk;
  fetch_chunk_into(video_id, index, density_ratio, chunk);
  return chunk;
}

void VolutClient::fetch_chunk_into(std::uint32_t video_id,
                                   std::uint32_t index, float density_ratio,
                                   ClientChunk& chunk) {
  frame_chunk_request({video_id, index, density_ratio}, request_bytes_);
  transport_->send(request_bytes_);
  await_message();
  throw_if_error(message_, "chunk request");
  const ChunkHeader header =
      decode_chunk_response_views(message_, frame_views_);

  chunk.index = header.chunk_index;
  chunk.density_ratio = header.density_ratio;
  chunk.wire_bytes = framed_size(message_);
  chunk.sr_timing = SrTiming{};
  chunk.frames.resize(frame_views_.size());
  chunk.sr_frames.resize(frame_views_.size());
  const double sr_ratio = header.sr_ratio;
  for (std::size_t f = 0; f < frame_views_.size(); ++f) {
    decode_frame_into(frame_views_[f], chunk.frames[f]);
    const SrTiming t =
        pipeline_.upsample_into(chunk.frames[f], sr_ratio, chunk.sr_frames[f]);
    chunk.sr_timing.knn_ms += t.knn_ms;
    chunk.sr_timing.interpolate_ms += t.interpolate_ms;
    chunk.sr_timing.colorize_ms += t.colorize_ms;
    chunk.sr_timing.refine_ms += t.refine_ms;
  }
}

}  // namespace volut
