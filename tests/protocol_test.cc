// Tests for the DASH-like wire protocol, the in-memory transport, and the
// end-to-end client/server endpoints (§6).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "src/core/rng.h"
#include "src/metrics/chamfer.h"
#include "src/stream/endpoint.h"
#include "src/stream/protocol.h"

namespace volut {
namespace {

TEST(FrameParserTest, RoundTripSingleMessage) {
  Message m;
  m.type = MessageType::kChunkRequest;
  m.body = {1, 2, 3, 4, 5};
  const auto bytes = frame_message(m);
  FrameParser parser;
  parser.feed(bytes);
  const auto out = parser.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->type, MessageType::kChunkRequest);
  EXPECT_EQ(out->body, m.body);
  EXPECT_FALSE(parser.next().has_value());
}

TEST(FrameParserTest, HandlesFragmentedDelivery) {
  Message m;
  m.type = MessageType::kManifestRequest;
  m.body.assign(100, 7);
  const auto bytes = frame_message(m);
  FrameParser parser;
  // Feed one byte at a time; the message completes only at the last byte.
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    parser.feed(&bytes[i], 1);
    EXPECT_FALSE(parser.next().has_value()) << i;
  }
  parser.feed(&bytes.back(), 1);
  EXPECT_TRUE(parser.next().has_value());
}

TEST(FrameParserTest, HandlesCoalescedMessages) {
  Message a, b;
  a.type = MessageType::kManifestRequest;
  a.body = {1};
  b.type = MessageType::kChunkRequest;
  b.body = {2, 3};
  auto bytes = frame_message(a);
  const auto more = frame_message(b);
  bytes.insert(bytes.end(), more.begin(), more.end());
  FrameParser parser;
  parser.feed(bytes);
  EXPECT_EQ(parser.next()->type, MessageType::kManifestRequest);
  EXPECT_EQ(parser.next()->type, MessageType::kChunkRequest);
  EXPECT_FALSE(parser.next().has_value());
}

TEST(FrameParserTest, BadMagicThrows) {
  std::vector<std::uint8_t> junk(32, 0xAB);
  FrameParser parser;
  parser.feed(junk);
  EXPECT_THROW(parser.next(), std::runtime_error);
}

TEST(FrameParserTest, ByteAtATimeCoalescedMessagesComeOutIntact) {
  Message a, empty, c;
  a.type = MessageType::kManifestRequest;
  a.body = {1, 2, 3};
  empty.type = MessageType::kError;
  c.type = MessageType::kChunkResponse;
  c.body.assign(300, 0x5A);
  std::vector<std::uint8_t> bytes;
  for (const Message* m : {&a, &empty, &c}) {
    const auto framed = frame_message(*m);
    bytes.insert(bytes.end(), framed.begin(), framed.end());
  }
  FrameParser parser;
  std::vector<Message> out;
  for (const std::uint8_t byte : bytes) {
    parser.feed(&byte, 1);
    while (auto message = parser.next()) out.push_back(std::move(*message));
  }
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].type, a.type);
  EXPECT_EQ(out[0].body, a.body);
  EXPECT_EQ(out[1].type, empty.type);
  EXPECT_TRUE(out[1].body.empty());
  EXPECT_EQ(out[2].type, c.type);
  EXPECT_EQ(out[2].body, c.body);
}

TEST(FrameParserTest, FeedsSplitMidMessageAllParse) {
  // Each feed completes one message and carries half of the next, so every
  // feed after the first lands on a partly consumed buffer.
  constexpr std::size_t kMessages = 1000;
  std::vector<std::uint8_t> stream;
  std::vector<std::size_t> cuts;  // feed i ends half way into message i + 1
  for (std::size_t i = 0; i < kMessages; ++i) {
    Message m;
    m.type = MessageType::kChunkRequest;
    m.body.assign(i % 97, std::uint8_t(i));
    const auto framed = frame_message(m);
    if (i > 0) cuts.push_back(stream.size() + framed.size() / 2);
    stream.insert(stream.end(), framed.begin(), framed.end());
  }
  cuts.push_back(stream.size());
  FrameParser parser;
  Message out;
  std::size_t fed = 0;
  for (std::size_t i = 0; i < kMessages; ++i) {
    parser.feed(stream.data() + fed, cuts[i] - fed);
    fed = cuts[i];
    ASSERT_TRUE(parser.next(out)) << i;
    EXPECT_EQ(out.body, std::vector<std::uint8_t>(i % 97, std::uint8_t(i)));
    EXPECT_FALSE(parser.next(out)) << i;
  }
}

TEST(FrameParserTest, BadMagicAfterAGoodMessageThrows) {
  Message good;
  good.type = MessageType::kManifestRequest;
  good.body = {4, 5};
  auto bytes = frame_message(good);
  bytes.insert(bytes.end(), 16, 0xAB);
  FrameParser parser;
  parser.feed(bytes);
  const auto first = parser.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->body, good.body);
  EXPECT_THROW(parser.next(), std::runtime_error);
}

TEST(FrameParserTest, NextReusesTheBodyCapacity) {
  Message big, small;
  big.type = MessageType::kChunkResponse;
  big.body.assign(1000, 1);
  small.type = MessageType::kChunkRequest;
  small.body.assign(10, 2);
  FrameParser parser;
  Message out;
  parser.feed(frame_message(big));
  ASSERT_TRUE(parser.next(out));
  const std::uint8_t* storage = out.body.data();
  const std::size_t capacity = out.body.capacity();
  EXPECT_FALSE(parser.next(out));  // nothing pending: out is left alone
  EXPECT_EQ(out.body, big.body);
  parser.feed(frame_message(small));
  ASSERT_TRUE(parser.next(out));
  EXPECT_EQ(out.type, MessageType::kChunkRequest);
  EXPECT_EQ(out.body, small.body);
  EXPECT_EQ(out.body.data(), storage);
  EXPECT_EQ(out.body.capacity(), capacity);
}

TEST(ProtocolTest, FramedSizeIsTheFramedLength) {
  Message m;
  m.type = MessageType::kError;
  EXPECT_EQ(framed_size(m), frame_message(m).size());
  m.type = MessageType::kChunkResponse;
  m.body.assign(1 << 20, 3);
  EXPECT_EQ(framed_size(m), frame_message(m).size());
}

TEST(ProtocolTest, FrameChunkRequestMatchesFrameMessage) {
  std::vector<std::uint8_t> out(100, 0xEE);  // stale bytes must not survive
  for (const ChunkRequest req : {ChunkRequest{7, 42, 0.31f},
                                 ChunkRequest{1, 0, 1.0f}}) {
    frame_chunk_request(req, out);
    EXPECT_EQ(out, frame_message(encode_chunk_request(req)));
  }
}

TEST(ProtocolTest, PodBodyRoundTrips) {
  const ChunkRequest req{7, 42, 0.31f};
  const ChunkRequest back = decode_chunk_request(encode_chunk_request(req));
  EXPECT_EQ(back.video_id, 7u);
  EXPECT_EQ(back.chunk_index, 42u);
  EXPECT_FLOAT_EQ(back.density_ratio, 0.31f);

  Manifest manifest;
  manifest.total_chunks = 99;
  manifest.full_chunk_bytes = 123456789ull;
  const Manifest mback = decode_manifest(encode_manifest(manifest));
  EXPECT_EQ(mback.total_chunks, 99u);
  EXPECT_EQ(mback.full_chunk_bytes, 123456789ull);
}

TEST(ProtocolTest, TypeMismatchThrows) {
  const Message wrong = encode_chunk_request({1, 2, 0.5f});
  EXPECT_THROW(decode_manifest(wrong), std::runtime_error);
}

TEST(ProtocolTest, TruncatedBodyThrows) {
  // A frame whose header promises a POD body but delivers fewer bytes must
  // be rejected by every decoder, not read out of bounds.
  Message short_req = encode_chunk_request({7, 42, 0.5f});
  short_req.body.resize(3);
  EXPECT_THROW(decode_chunk_request(short_req), std::runtime_error);

  Message short_manifest = encode_manifest({});
  short_manifest.body.resize(short_manifest.body.size() - 1);
  EXPECT_THROW(decode_manifest(short_manifest), std::runtime_error);

  Message empty_error;
  empty_error.type = MessageType::kError;
  EXPECT_THROW(decode_error(empty_error), std::runtime_error);
}

TEST(ProtocolTest, TruncatedFrameStaysPendingAndResumes) {
  // Half a frame is not an error — the parser waits for the rest and still
  // yields the complete message afterwards.
  Message m;
  m.type = MessageType::kChunkRequest;
  m.body.assign(64, 9);
  const auto bytes = frame_message(m);
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size() / 2);
  EXPECT_FALSE(parser.next().has_value());
  parser.feed(bytes.data() + bytes.size() / 2, bytes.size() - bytes.size() / 2);
  const auto out = parser.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->body, m.body);
}

/// Feeds `bytes` to a FrameParser and decodes the message it yields as its
/// type says: chunk responses through parse_chunk_views and
/// decode_frame_into, anything else through decode_error. A parser still
/// waiting for bytes, a std::runtime_error, or a decode consistent with its
/// input is sound and returns ""; anything else is described.
std::string frame_decode_problem(const std::vector<std::uint8_t>& bytes) {
  try {
    FrameParser parser;
    parser.feed(bytes);
    Message message;
    if (!parser.next(message)) return "";
    if (message.type != MessageType::kChunkResponse) {
      decode_error(message);
      return "";
    }
    std::vector<FrameView> frames;
    parse_chunk_views(message.body, frames);
    const std::uint8_t* body_end = message.body.data() + message.body.size();
    PointCloud cloud;
    for (const FrameView& frame : frames) {
      if (frame.payload.data() < message.body.data() ||
          frame.payload.data() + frame.payload.size() > body_end) {
        return "frame payload outside the message body";
      }
      decode_frame_into(frame, cloud);
      if (cloud.size() != frame.point_count) {
        return std::to_string(cloud.size()) + " points for a count of " +
               std::to_string(frame.point_count);
      }
      for (const Vec3f& p : cloud.positions()) {
        for (int a = 0; a < 3; ++a) {
          if (!std::isfinite(p[a])) return "non-finite decoded position";
        }
      }
    }
    return "";
  } catch (const std::runtime_error&) {
    return "";
  } catch (const std::exception& e) {
    return std::string("threw ") + e.what();
  }
}

TEST(ProtocolTest, TruncationsAndByteFlipsThrowOrDecodeConsistently) {
  // A two-frame chunk response (3 and 2 points, one bounds degenerate on an
  // axis) and an error response, each framed.
  PointCloud a, b;
  a.push_back({0.0f, 1.0f, 2.0f}, Color{10, 20, 30});
  a.push_back({0.5f, -1.0f, 2.5f}, Color{40, 50, 60});
  a.push_back({1.0f, 0.0f, 3.0f}, Color{70, 80, 90});
  b.push_back({4.0f, 4.0f, 0.0f}, Color{1, 2, 3});
  b.push_back({5.0f, 4.0f, 1.0f}, Color{4, 5, 6});
  EncodedChunk chunk;
  chunk.header = {2, 7, 2, 0.5f, 2.0f};
  chunk.frames = {encode_frame(a), encode_frame(b)};
  const Message chunk_message = encode_chunk_response(chunk);
  const Message error_message = encode_error({404});
  CounterRng rng(32);
  for (const Message& message : {chunk_message, error_message}) {
    const std::vector<std::uint8_t> valid = frame_message(message);
    ASSERT_EQ(frame_decode_problem(valid), "");
    // Every proper prefix leaves the parser waiting for the rest.
    for (std::size_t n = 0; n < valid.size(); ++n) {
      FrameParser parser;
      parser.feed(valid.data(), n);
      Message out;
      EXPECT_FALSE(parser.next(out)) << "first " << n;
    }
    // Every shorter body, framed whole, must throw or decode consistently.
    for (std::size_t n = 0; n < message.body.size(); ++n) {
      Message cut = message;
      cut.body.resize(n);
      EXPECT_EQ(frame_decode_problem(frame_message(cut)), "") << "body " << n;
    }
    // Four passes, each flipping every byte in turn by a nonzero mask.
    for (int pass = 0; pass < 4; ++pass) {
      for (std::size_t i = 0; i < valid.size(); ++i) {
        std::vector<std::uint8_t> flipped = valid;
        const auto mask = static_cast<std::uint8_t>(1 + rng.next(255));
        flipped[i] ^= mask;
        EXPECT_EQ(frame_decode_problem(flipped), "")
            << "byte " << i << " ^ " << int(mask);
      }
    }
  }
}

class EndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto [client_end, server_end] = InMemoryTransport::make_pair();
    client_transport_ = std::move(client_end);
    server_transport_ = std::move(server_end);
    VideoSpec spec = VideoSpec::loot(0.01);
    spec.frame_count = 600;
    spec.loops = 1;
    server_ = std::make_unique<ServerEndpoint>(spec, server_transport_.get());
    auto lut = std::make_shared<RefinementLut>(LutSpec{4, 16});
    InterpolationConfig interp;
    interp.dilation = 2;
    client_ = std::make_unique<VolutClient>(client_transport_.get(), lut,
                                            interp);
  }

  std::unique_ptr<InMemoryTransport> client_transport_;
  std::unique_ptr<InMemoryTransport> server_transport_;
  std::unique_ptr<ServerEndpoint> server_;
  std::unique_ptr<VolutClient> client_;
};

TEST_F(EndpointTest, ManifestDescribesVideo) {
  const Manifest manifest = client_->fetch_manifest(3);
  EXPECT_EQ(manifest.video_id, 3u);
  EXPECT_EQ(manifest.frames_per_chunk, 30u);
  EXPECT_EQ(manifest.total_chunks, 20u);  // 600 frames at 30 fps, 1 s chunks
  EXPECT_GT(manifest.full_chunk_bytes, 0u);
}

TEST_F(EndpointTest, ChunkFetchDecodesAndUpsamples) {
  const ClientChunk chunk = client_->fetch_chunk(3, 2, 0.5f);
  EXPECT_EQ(chunk.index, 2u);
  ASSERT_FALSE(chunk.frames.empty());
  ASSERT_EQ(chunk.frames.size(), chunk.sr_frames.size());
  const std::size_t full = VideoSpec::loot(0.01).points_per_frame;
  // Received ~50% density; SR restores ~full density.
  EXPECT_NEAR(double(chunk.frames[0].size()), double(full) * 0.5,
              double(full) * 0.15);
  EXPECT_NEAR(double(chunk.sr_frames[0].size()), double(full),
              double(full) * 0.2);
  EXPECT_EQ(server_->chunks_served(), 1u);
}

TEST_F(EndpointTest, LowerDensityMeansFewerWireBytes) {
  const ClientChunk low = client_->fetch_chunk(3, 0, 0.25f);
  const ClientChunk high = client_->fetch_chunk(3, 0, 1.0f);
  EXPECT_LT(low.wire_bytes, high.wire_bytes);
  EXPECT_NEAR(double(low.wire_bytes) / double(high.wire_bytes), 0.25, 0.1);
}

TEST_F(EndpointTest, SrRecoversGeometry) {
  // The SR frames must be geometrically closer to full-density content than
  // the received low-density frames are (coverage-wise).
  VideoSpec spec = VideoSpec::loot(0.01);
  spec.frame_count = 600;
  spec.loops = 1;
  const VideoServer reference(spec);
  const PointCloud gt =
      const_cast<VideoServer&>(reference).ground_truth_frame(1, 1.0);
  const ClientChunk chunk = client_->fetch_chunk(3, 1, 0.4f);
  ASSERT_FALSE(chunk.frames.empty());
  const double cover_low = directed_chamfer(gt, chunk.frames[0]);
  const double cover_sr = directed_chamfer(gt, chunk.sr_frames[0]);
  EXPECT_LT(cover_sr, cover_low);
}

/// what() of the std::runtime_error that `fetch` throws, or "no exception".
std::string rejection_of(const std::function<void()>& fetch) {
  try {
    fetch();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no exception";
}

TEST_F(EndpointTest, InvalidRequestsRejected) {
  // The client surfaces the server's 400 in the exception it throws.
  for (const auto& request :
       {std::pair{99999u, 0.5f}, {0u, 1.5f}, {0u, 0.0f}}) {
    const std::string what = rejection_of(
        [&] { client_->fetch_chunk(3, request.first, request.second); });
    EXPECT_NE(what.find("400"), std::string::npos) << what;
  }
}

/// Client end that forwards to `inner` and passes each delivery through
/// `tap` (which may rewrite it) before the client sees it.
class TapTransport : public Transport {
 public:
  explicit TapTransport(Transport* inner) : inner_(inner) {}

  void send(const std::vector<std::uint8_t>& bytes) override {
    inner_->send(bytes);
  }
  void set_receive_sink(Sink sink) override {
    inner_->set_receive_sink(
        [this, sink = std::move(sink)](const std::vector<std::uint8_t>& in) {
          std::vector<std::uint8_t> bytes = in;
          if (tap) tap(bytes);
          sink(bytes);
        });
  }

  std::function<void(std::vector<std::uint8_t>&)> tap;

 private:
  Transport* inner_;
};

TEST_F(EndpointTest, TruncatedChunkBodyThrowsAndTheClientRecovers) {
  TapTransport tapped(client_transport_.get());
  VolutClient client(&tapped, std::make_shared<RefinementLut>(LutSpec{4, 16}),
                     InterpolationConfig{});
  // A well-framed response whose chunk body is cut short.
  tapped.tap = [](std::vector<std::uint8_t>& bytes) {
    FrameParser parser;
    parser.feed(bytes);
    Message message = *parser.next();
    message.body.resize(message.body.size() / 2);
    bytes = frame_message(message);
  };
  EXPECT_THROW(client.fetch_chunk(3, 0, 0.5f), std::runtime_error);
  tapped.tap = nullptr;
  const ClientChunk chunk = client.fetch_chunk(3, 1, 0.5f);
  EXPECT_EQ(chunk.index, 1u);
  ASSERT_FALSE(chunk.sr_frames.empty());
  EXPECT_GT(chunk.sr_frames[0].size(), chunk.frames[0].size());
}

TEST_F(EndpointTest, ErrorResponsesNameTheirCodeOrAreRejectedWhenTruncated) {
  TapTransport tapped(client_transport_.get());
  VolutClient client(&tapped, std::make_shared<RefinementLut>(LutSpec{4, 16}),
                     InterpolationConfig{});
  // A manifest answered with an error names the code instead of failing on
  // the message type.
  const Message error_503 = encode_error({503});
  tapped.tap = [&](std::vector<std::uint8_t>& bytes) {
    bytes = frame_message(error_503);
  };
  EXPECT_NE(rejection_of([&] { client.fetch_manifest(3); }).find("503"),
            std::string::npos);
  EXPECT_NE(rejection_of([&] { client.fetch_chunk(3, 0, 0.5f); }).find("503"),
            std::string::npos);

  // An error body too short for its code is rejected, not read past.
  Message truncated = encode_error({503});
  truncated.body.resize(2);
  tapped.tap = [&](std::vector<std::uint8_t>& bytes) {
    bytes = frame_message(truncated);
  };
  EXPECT_NE(rejection_of([&] { client.fetch_manifest(3); }).find("truncated"),
            std::string::npos);
  EXPECT_NE(
      rejection_of([&] { client.fetch_chunk(3, 0, 0.5f); }).find("truncated"),
      std::string::npos);

  tapped.tap = nullptr;
  EXPECT_EQ(client.fetch_chunk(3, 1, 0.5f).index, 1u);
}

TEST_F(EndpointTest, NanDensityGets400AndTheClientRecovers) {
  // NaN slips past `r <= 0 || r > 1`; the server must refuse it before
  // random_downsample casts NaN * size to an integer.
  TapTransport tapped(client_transport_.get());
  VolutClient client(&tapped, std::make_shared<RefinementLut>(LutSpec{4, 16}),
                     InterpolationConfig{});
  std::vector<std::uint32_t> error_codes;
  tapped.tap = [&error_codes](std::vector<std::uint8_t>& bytes) {
    FrameParser parser;
    parser.feed(bytes);
    while (auto message = parser.next()) {
      if (message->type == MessageType::kError) {
        error_codes.push_back(decode_error(*message).code);
      }
    }
  };
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(client.fetch_chunk(3, 0, nan), std::runtime_error);
  EXPECT_EQ(error_codes, std::vector<std::uint32_t>{400});
  EXPECT_EQ(server_->chunks_served(), 0u);
  const ClientChunk chunk = client.fetch_chunk(3, 1, 0.5f);
  EXPECT_EQ(chunk.index, 1u);
  EXPECT_EQ(server_->chunks_served(), 1u);
  EXPECT_EQ(error_codes.size(), 1u);
}

bool same_points(const PointCloud& a, const PointCloud& b) {
  return a.size() == b.size() &&
         std::memcmp(a.positions().data(), b.positions().data(),
                     a.positions().size_bytes()) == 0 &&
         std::memcmp(a.colors().data(), b.colors().data(),
                     a.colors().size_bytes()) == 0;
}

TEST_F(EndpointTest, FetchChunkIntoReusedChunkMatchesFreshFetches) {
  // A second server + client with the same seeds answers the same request
  // sequence with fresh by-value fetches.
  auto [fresh_end, fresh_server_end] = InMemoryTransport::make_pair();
  VideoSpec spec = VideoSpec::loot(0.01);
  spec.frame_count = 600;
  spec.loops = 1;
  const ServerEndpoint fresh_server(spec, fresh_server_end.get());
  InterpolationConfig interp;
  interp.dilation = 2;
  VolutClient fresh(fresh_end.get(),
                    std::make_shared<RefinementLut>(LutSpec{4, 16}), interp);

  // Record what the reused client receives, as whole framed messages.
  TapTransport tapped(client_transport_.get());
  VolutClient reused(&tapped, std::make_shared<RefinementLut>(LutSpec{4, 16}),
                     interp);
  std::size_t framed_bytes = 0;
  tapped.tap = [&framed_bytes](std::vector<std::uint8_t>& bytes) {
    FrameParser parser;
    parser.feed(bytes);
    while (auto message = parser.next()) {
      framed_bytes += frame_message(*message).size();
    }
  };

  ClientChunk chunk;
  std::uint32_t index = 0;
  for (const float density : {1.0f, 0.25f, 0.5f, 1.0f}) {
    reused.fetch_chunk_into(3, index, density, chunk);
    const ClientChunk expected = fresh.fetch_chunk(3, index, density);
    EXPECT_EQ(chunk.index, expected.index);
    EXPECT_EQ(chunk.density_ratio, expected.density_ratio);
    EXPECT_EQ(chunk.wire_bytes, expected.wire_bytes);
    ASSERT_EQ(chunk.frames.size(), expected.frames.size());
    ASSERT_EQ(chunk.sr_frames.size(), expected.sr_frames.size());
    for (std::size_t f = 0; f < chunk.frames.size(); ++f) {
      EXPECT_TRUE(same_points(chunk.frames[f], expected.frames[f]))
          << density << " frame " << f;
      EXPECT_TRUE(same_points(chunk.sr_frames[f], expected.sr_frames[f]))
          << density << " frame " << f;
    }
    ++index;
  }
  EXPECT_EQ(reused.total_bytes_received(), framed_bytes);
  EXPECT_EQ(fresh.total_bytes_received(), framed_bytes);
}

// Drives the server over raw framed bytes (no VolutClient) to pin down the
// exact error responses the wire protocol promises.
class RawEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto [client_end, server_end] = InMemoryTransport::make_pair();
    client_transport_ = std::move(client_end);
    server_transport_ = std::move(server_end);
    VideoSpec spec = VideoSpec::loot(0.01);
    spec.frame_count = 600;
    spec.loops = 1;
    server_ = std::make_unique<ServerEndpoint>(spec, server_transport_.get());
    client_transport_->set_receive_sink(
        [this](const std::vector<std::uint8_t>& bytes) {
          parser_.feed(bytes);
        });
  }

  ErrorResponse roundtrip_error(const Message& request) {
    client_transport_->send(frame_message(request));
    const auto response = parser_.next();
    EXPECT_TRUE(response.has_value());
    return decode_error(*response);
  }

  std::unique_ptr<InMemoryTransport> client_transport_;
  std::unique_ptr<InMemoryTransport> server_transport_;
  std::unique_ptr<ServerEndpoint> server_;
  FrameParser parser_;
};

TEST_F(RawEndpointTest, OutOfRangeChunkIndexGets400) {
  EXPECT_EQ(roundtrip_error(encode_chunk_request({3, 99999, 0.5f})).code,
            400u);
  EXPECT_EQ(server_->chunks_served(), 0u);
}

TEST_F(RawEndpointTest, OutOfRangeDensityGets400) {
  EXPECT_EQ(roundtrip_error(encode_chunk_request({3, 0, 0.0f})).code, 400u);
  EXPECT_EQ(roundtrip_error(encode_chunk_request({3, 0, 1.5f})).code, 400u);
  EXPECT_EQ(roundtrip_error(encode_chunk_request({3, 0, -0.25f})).code, 400u);
}

TEST_F(RawEndpointTest, UnknownMessageTypeGets405) {
  Message bogus;
  bogus.type = static_cast<MessageType>(99);
  bogus.body = {1, 2, 3};
  EXPECT_EQ(roundtrip_error(bogus).code, 405u);
  // The connection survives: a valid request still works afterwards.
  client_transport_->send(
      frame_message(encode_manifest_request({3})));
  const auto response = parser_.next();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(decode_manifest(*response).video_id, 3u);
}

TEST_F(EndpointTest, TracksBytesReceived) {
  EXPECT_EQ(client_->total_bytes_received(), 0u);
  client_->fetch_manifest(3);
  const std::size_t after_manifest = client_->total_bytes_received();
  EXPECT_GT(after_manifest, 0u);
  client_->fetch_chunk(3, 0, 0.5f);
  EXPECT_GT(client_->total_bytes_received(), after_manifest);
}

}  // namespace
}  // namespace volut
