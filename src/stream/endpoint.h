// Server endpoint and client for the DASH-like protocol (§6).
//
// ServerEndpoint binds a VideoServer to the wire protocol: it consumes
// framed request bytes and produces framed response bytes. VolutClient
// drives the protocol from the receiver side: manifest fetch, per-chunk
// requests at ABR-decided densities, decode, and client-side SR. The
// Transport abstraction carries bytes between them — InMemoryTransport is a
// synchronous loopback used by tests and examples; a socket transport would
// implement the same interface.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/sr/pipeline.h"
#include "src/stream/protocol.h"
#include "src/stream/server.h"

namespace volut {

/// Byte-stream transport: send a buffer toward the peer; deliveries arrive
/// through the sink installed by the peer.
class Transport {
 public:
  using Sink = std::function<void(const std::vector<std::uint8_t>&)>;

  virtual ~Transport() = default;
  virtual void send(const std::vector<std::uint8_t>& bytes) = 0;
  virtual void set_receive_sink(Sink sink) = 0;
};

/// Synchronous in-process pipe pair. Bytes sent on one end are delivered to
/// the other end's sink immediately.
class InMemoryTransport : public Transport {
 public:
  /// Creates a connected pair (first = client end, second = server end).
  static std::pair<std::unique_ptr<InMemoryTransport>,
                   std::unique_ptr<InMemoryTransport>>
  make_pair();

  void send(const std::vector<std::uint8_t>& bytes) override;
  void set_receive_sink(Sink sink) override { sink_ = std::move(sink); }

 private:
  InMemoryTransport* peer_ = nullptr;
  Sink sink_;
};

/// Server side: owns the video, answers manifest and chunk requests.
class ServerEndpoint {
 public:
  ServerEndpoint(VideoSpec spec, Transport* transport,
                 double chunk_seconds = 1.0,
                 std::size_t max_frames_per_chunk = 4);

  const VideoServer& server() const { return server_; }

  /// Number of chunk requests served (observability for tests).
  std::size_t chunks_served() const { return chunks_served_; }

 private:
  void on_bytes(const std::vector<std::uint8_t>& bytes);
  void handle(const Message& message);

  VideoServer server_;
  Transport* transport_;
  double chunk_seconds_;
  /// Frames actually materialized per chunk. Synthetic frames regenerate
  /// deterministically, so serving a representative subset keeps tests fast
  /// while exercising the full path; paper-scale deployments set this to
  /// frames_per_chunk.
  std::size_t max_frames_per_chunk_;
  FrameParser parser_;
  std::size_t chunks_served_ = 0;
  Rng rng_{0xC0FFEE};
};

/// One received, decoded and super-resolved chunk on the client.
struct ClientChunk {
  std::uint32_t index = 0;
  float density_ratio = 1.0f;
  std::size_t wire_bytes = 0;
  std::vector<PointCloud> frames;      // decoded low-density frames
  std::vector<PointCloud> sr_frames;   // after client-side SR
  SrTiming sr_timing;                  // summed over frames
};

/// Client side: manifest + chunk fetching + client-side SR.
class VolutClient {
 public:
  /// `pool` (optional) parallelizes the client-side SR anchor loop; results
  /// are bit-identical to serial execution.
  VolutClient(Transport* transport, std::shared_ptr<const RefinementLut> lut,
              InterpolationConfig interp, ThreadPool* pool = nullptr);

  /// Blocking manifest fetch (synchronous transports only). Both fetches
  /// throw std::runtime_error naming the code of a server error response.
  Manifest fetch_manifest(std::uint32_t video_id);

  /// Fetches chunk `index` at `density_ratio`, decodes every frame and runs
  /// SR back to full density.
  ClientChunk fetch_chunk(std::uint32_t video_id, std::uint32_t index,
                          float density_ratio);

  /// fetch_chunk into `chunk`, reusing its frame vectors and clouds: frames
  /// decode straight from the received bytes and SR writes into
  /// `chunk.sr_frames`, so a steady-state call allocates nothing. On a throw
  /// `chunk` holds unspecified (valid) contents.
  void fetch_chunk_into(std::uint32_t video_id, std::uint32_t index,
                        float density_ratio, ClientChunk& chunk);

  std::size_t total_bytes_received() const { return bytes_received_; }

 private:
  void on_bytes(const std::vector<std::uint8_t>& bytes);
  /// Pops the next received message into `message_`.
  void await_message();

  Transport* transport_;
  SrPipeline pipeline_;
  FrameParser parser_;
  /// Per-request buffers, reused across requests.
  Message message_;
  std::vector<std::uint8_t> request_bytes_;
  std::vector<FrameView> frame_views_;
  std::size_t bytes_received_ = 0;
};

}  // namespace volut
