// Tests for the wire codec, chunk serialization, NPY and PLY I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/codec/codec.h"
#include "src/codec/npy.h"
#include "src/codec/ply.h"
#include "src/core/rng.h"

namespace volut {
namespace {

PointCloud random_cloud(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  PointCloud pc;
  for (std::size_t i = 0; i < n; ++i) {
    pc.push_back({rng.uniform(-2, 2), rng.uniform(0, 2), rng.uniform(-2, 2)},
                 Color{std::uint8_t(rng.next(256)), std::uint8_t(rng.next(256)),
                       std::uint8_t(rng.next(256))});
  }
  return pc;
}

/// Runs `bytes` through parse_chunk_views, the client's copy-free entry
/// point, so every hostile-input case covers it next to parse_chunk.
std::size_t parse_views(const std::vector<std::uint8_t>& bytes) {
  std::vector<FrameView> views(3);  // stale views must be replaced
  parse_chunk_views(bytes, views);
  return views.size();
}

/// decode_frame_into through a view of `frame`, into a cloud that already
/// holds points (as a reused client cloud does).
PointCloud decode_via_view(const EncodedFrame& frame) {
  PointCloud out = random_cloud(7, 99);
  decode_frame_into({frame.bounds, frame.point_count, frame.payload}, out);
  return out;
}

/// An NPY v1.0 stream whose header is the dict `dict`, then `payload`.
std::string npy_stream(const std::string& dict,
                       const std::string& payload = "") {
  const std::string header = dict + "\n";
  std::string out = "\x93NUMPY";
  out += '\x01';
  out += '\x00';
  out += static_cast<char>(header.size() & 0xFF);
  out += static_cast<char>(header.size() >> 8);
  return out + header + payload;
}

/// Loads `bytes` as an NPY stream. A std::runtime_error, or an array whose
/// payload is exactly its shape's byte count, is a sound outcome and
/// returns ""; anything else is described.
std::string npy_load_problem(const std::string& bytes) {
  std::stringstream ss(bytes);
  try {
    const NpyArray array = npy_load(ss);
    // Every supported dtype ends in its item size ("<f2", "|u1", "<i8").
    long double expected = array.shape.empty() ? 0 : array.dtype.back() - '0';
    for (std::size_t dim : array.shape) expected *= dim;
    if (expected != static_cast<long double>(array.data.size())) {
      return "payload of " + std::to_string(array.data.size()) +
             " bytes for dtype " + array.dtype + " and " +
             std::to_string(array.shape.size()) + " dims";
    }
    return "";
  } catch (const std::runtime_error&) {
    return "";
  } catch (const std::exception& e) {
    return std::string("threw ") + e.what();
  }
}

/// Writes `text` to a scratch file, loads it with load_ply, and removes it.
PointCloud load_ply_text(const std::string& text) {
  const auto path =
      (std::filesystem::temp_directory_path() / "volut_parse_test.ply")
          .string();
  std::ofstream(path, std::ios::binary) << text;
  try {
    PointCloud cloud = load_ply(path);
    std::filesystem::remove(path);
    return cloud;
  } catch (...) {
    std::filesystem::remove(path);
    throw;
  }
}

/// load_ply_text's outcome: a std::runtime_error, or a cloud with no more
/// points than `text` has lines, is sound and returns "".
std::string ply_load_problem(const std::string& text) {
  try {
    const PointCloud cloud = load_ply_text(text);
    const auto lines = std::count(text.begin(), text.end(), '\n') + 1;
    if (cloud.size() > std::size_t(lines)) {
      return std::to_string(cloud.size()) + " points from " +
             std::to_string(lines) + " lines";
    }
    return "";
  } catch (const std::runtime_error&) {
    return "";
  } catch (const std::exception& e) {
    return std::string("threw ") + e.what();
  }
}

bool same_points(const PointCloud& a, const PointCloud& b) {
  return a.size() == b.size() &&
         std::memcmp(a.positions().data(), b.positions().data(),
                     a.positions().size_bytes()) == 0 &&
         std::memcmp(a.colors().data(), b.colors().data(),
                     a.colors().size_bytes()) == 0;
}

TEST(CodecTest, FrameRoundTripPreservesCountAndColors) {
  const PointCloud pc = random_cloud(500, 1);
  const EncodedFrame frame = encode_frame(pc);
  EXPECT_EQ(frame.point_count, 500u);
  EXPECT_EQ(frame.payload.size(), 500u * kBytesPerPoint);
  const PointCloud back = decode_frame(frame);
  ASSERT_EQ(back.size(), pc.size());
  for (std::size_t i = 0; i < pc.size(); i += 13) {
    EXPECT_EQ(back.color(i), pc.color(i));
  }
}

TEST(CodecTest, QuantizationErrorBounded) {
  const PointCloud pc = random_cloud(1000, 2);
  const PointCloud back = decode_frame(encode_frame(pc));
  const Vec3f ext = pc.bounds().extent();
  // 16-bit quantization: error at most one bin = extent / 65535 per axis.
  const float tol = std::max({ext.x, ext.y, ext.z}) / 65535.0f * 1.5f;
  for (std::size_t i = 0; i < pc.size(); ++i) {
    EXPECT_LE(distance(back.position(i), pc.position(i)), tol * 2.0f);
  }
}

TEST(CodecTest, EmptyFrame) {
  const EncodedFrame frame = encode_frame(PointCloud{});
  EXPECT_EQ(frame.point_count, 0u);
  EXPECT_TRUE(decode_frame(frame).empty());
}

TEST(CodecTest, DegenerateFlatCloudSurvives) {
  PointCloud pc;
  for (int i = 0; i < 10; ++i) pc.push_back({float(i), 5.0f, 5.0f});
  const PointCloud back = decode_frame(encode_frame(pc));
  ASSERT_EQ(back.size(), 10u);
  EXPECT_NEAR(back.position(3).y, 5.0f, 1e-3f);
}

TEST(CodecTest, ChunkSerializationRoundTrip) {
  EncodedChunk chunk;
  chunk.header = {7, 3, 2, 0.25f, 4.0f};
  chunk.frames.push_back(encode_frame(random_cloud(100, 3)));
  chunk.frames.push_back(encode_frame(random_cloud(120, 4)));
  const auto bytes = serialize_chunk(chunk);
  const EncodedChunk back = parse_chunk(bytes);
  EXPECT_EQ(back.header.video_id, 7u);
  EXPECT_EQ(back.header.chunk_index, 3u);
  EXPECT_FLOAT_EQ(back.header.density_ratio, 0.25f);
  ASSERT_EQ(back.frames.size(), 2u);
  EXPECT_EQ(back.frames[1].point_count, 120u);
  const PointCloud f0 = decode_frame(back.frames[0]);
  EXPECT_EQ(f0.size(), 100u);
}

TEST(CodecTest, ParseTruncatedThrows) {
  EncodedChunk chunk;
  chunk.frames.push_back(encode_frame(random_cloud(50, 5)));
  auto bytes = serialize_chunk(chunk);
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(parse_chunk(bytes), std::runtime_error);
  EXPECT_THROW(parse_views(bytes), std::runtime_error);
}

TEST(CodecTest, ByteSizeIsTheSerializedSize) {
  for (const std::size_t frames : {0u, 1u, 17u}) {
    EncodedChunk chunk;
    for (std::size_t f = 0; f < frames; ++f) {
      chunk.frames.push_back(encode_frame(random_cloud(10 + f, 20 + f)));
    }
    EXPECT_EQ(chunk.byte_size(), serialize_chunk(chunk).size()) << frames;
  }
}

TEST(CodecTest, ViewsDecodeLikeTheOwningParse) {
  EncodedChunk chunk;
  chunk.header = {1, 9, 3, 0.5f, 2.0f};
  // Sizes shrink then grow, so the reused cloud does both.
  for (const std::size_t n : {120u, 40u, 200u}) {
    chunk.frames.push_back(encode_frame(random_cloud(n, n)));
  }
  const auto bytes = serialize_chunk(chunk);
  const EncodedChunk owned = parse_chunk(bytes);
  std::vector<FrameView> views;
  const ChunkHeader header = parse_chunk_views(bytes, views);
  EXPECT_EQ(std::memcmp(&header, &owned.header, sizeof(header)), 0);
  ASSERT_EQ(views.size(), 3u);
  PointCloud reused;
  for (std::size_t f = 0; f < views.size(); ++f) {
    // The payload is read in place, not copied.
    EXPECT_GE(views[f].payload.data(), bytes.data());
    EXPECT_LE(views[f].payload.data() + views[f].payload.size(),
              bytes.data() + bytes.size());
    decode_frame_into(views[f], reused);
    EXPECT_TRUE(same_points(reused, decode_frame(owned.frames[f]))) << f;
  }
}

/// The chunk header and frame count of a serialized chunk, followed by
/// `tail`: the smallest stream parse_chunk reads a frame count from.
std::vector<std::uint8_t> chunk_prefix(std::uint32_t frame_count,
                                       const std::vector<std::uint8_t>& tail) {
  auto bytes = serialize_chunk(EncodedChunk{});
  bytes.resize(sizeof(ChunkHeader));
  const auto* count = reinterpret_cast<const std::uint8_t*>(&frame_count);
  bytes.insert(bytes.end(), count, count + sizeof(frame_count));
  bytes.insert(bytes.end(), tail.begin(), tail.end());
  return bytes;
}

TEST(CodecTest, ParseRejectsFrameCountBeyondTheStream) {
  // A 24-byte body claiming ~4 billion frames must be refused before the
  // frame vector is sized from the count (tens of GB).
  const auto hostile = chunk_prefix(0xFFFFFFF0u, {});
  ASSERT_EQ(hostile.size(), 24u);
  EXPECT_THROW(parse_chunk(hostile), std::runtime_error);
  EXPECT_THROW(parse_views(hostile), std::runtime_error);
  // One frame header short of the claimed two frames.
  EncodedChunk two;
  two.frames.resize(2);
  auto bytes = serialize_chunk(two);
  EXPECT_EQ(parse_chunk(bytes).frames.size(), 2u);
  EXPECT_EQ(parse_views(bytes), 2u);
  bytes.pop_back();
  EXPECT_THROW(parse_chunk(bytes), std::runtime_error);
  EXPECT_THROW(parse_views(bytes), std::runtime_error);
}

TEST(CodecTest, ParseRejectsNonFiniteHeaderRatios) {
  // A NaN or infinite ratio used to reach SR as "the maximum partner ratio".
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const auto& [density, sr] : std::vector<std::pair<float, float>>{
           {nan, 2.0f}, {0.5f, nan}, {inf, 1.0f}, {0.5f, -inf}}) {
    EncodedChunk chunk;
    chunk.header = {1, 2, 0, density, sr};
    const auto bytes = serialize_chunk(chunk);
    EXPECT_THROW(parse_chunk(bytes), std::runtime_error) << density << sr;
    EXPECT_THROW(parse_views(bytes), std::runtime_error) << density << sr;
  }
  EncodedChunk good;
  good.header = {1, 2, 0, 0.5f, 2.0f};
  EXPECT_EQ(parse_views(serialize_chunk(good)), 0u);
}

TEST(CodecTest, ParseRejectsWrappingPayloadSize) {
  // A payload_size near 2^64 would wrap `off + n` past the bounds check;
  // the parser must still report a truncated stream, not length_error.
  EncodedChunk chunk;
  chunk.frames.resize(1);
  auto bytes = serialize_chunk(chunk);
  const std::uint64_t huge = ~std::uint64_t{0} - 8;
  std::memcpy(bytes.data() + bytes.size() - sizeof(huge), &huge, sizeof(huge));
  try {
    parse_chunk(bytes);
    ADD_FAILURE() << "parse_chunk accepted a 2^64-byte payload";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "parse_chunk: truncated stream");
  }
  try {
    parse_views(bytes);
    ADD_FAILURE() << "parse_chunk_views accepted a 2^64-byte payload";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "parse_chunk: truncated stream");
  }
}

TEST(CodecTest, DecodeRejectsTruncatedPayload) {
  EncodedFrame frame = encode_frame(random_cloud(20, 7));
  frame.payload.pop_back();
  EXPECT_THROW(decode_frame(frame), std::runtime_error);
  EXPECT_THROW(decode_via_view(frame), std::runtime_error);
  // A hostile count is refused before it sizes the cloud.
  frame.point_count = 0xFFFFFFFFu;
  EXPECT_THROW(decode_frame(frame), std::runtime_error);
  EXPECT_THROW(decode_via_view(frame), std::runtime_error);
}

TEST(CodecTest, DecodeRejectsNonFiniteOrInvertedBounds) {
  const EncodedFrame good = encode_frame(random_cloud(20, 6));
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float big = std::numeric_limits<float>::max();
  for (const auto& [lo, hi] : std::vector<std::pair<float, float>>{
           {nan, 1.0f}, {0.0f, nan}, {-inf, 1.0f}, {0.0f, inf},
           {2.0f, 1.0f}, {-big, big}}) {
    EncodedFrame frame = good;
    frame.bounds.lo.y = lo;
    frame.bounds.hi.y = hi;
    EXPECT_THROW(decode_frame(frame), std::runtime_error)
        << "lo " << lo << " hi " << hi;
    EXPECT_THROW(decode_via_view(frame), std::runtime_error)
        << "lo " << lo << " hi " << hi;
  }
  // Empty frames keep their inverted empty-box bounds and decode as before.
  EncodedFrame empty = encode_frame(PointCloud{});
  empty.bounds.lo.x = nan;
  EXPECT_TRUE(decode_frame(empty).empty());
  EXPECT_TRUE(decode_via_view(empty).empty());
}

TEST(NpyTest, HalfRoundTrip) {
  std::vector<half_t> values;
  for (float v : {0.0f, 1.0f, -0.5f, 0.333f, 100.0f}) {
    values.push_back(float_to_half(v));
  }
  const NpyArray array = npy_from_half(values, {5});
  std::stringstream ss;
  npy_save(ss, array);
  const NpyArray back = npy_load(ss);
  EXPECT_EQ(back.dtype, "<f2");
  ASSERT_EQ(back.shape, (std::vector<std::size_t>{5}));
  const auto half_back = npy_to_half(back);
  EXPECT_EQ(half_back, values);
}

TEST(NpyTest, HeaderIsNumpyCompatible) {
  const NpyArray array = npy_from_half({float_to_half(1.0f)}, {1});
  std::stringstream ss;
  npy_save(ss, array);
  const std::string s = ss.str();
  EXPECT_EQ(s.substr(0, 6), "\x93NUMPY");
  EXPECT_EQ(s[6], 1);  // version 1.0
  // Total header (magic..newline) is 64-byte aligned.
  const std::size_t header_len = std::size_t(std::uint8_t(s[8])) |
                                 (std::size_t(std::uint8_t(s[9])) << 8);
  EXPECT_EQ((10 + header_len) % 64, 0u);
  EXPECT_NE(s.find("'descr': '<f2'"), std::string::npos);
  EXPECT_NE(s.find("'fortran_order': False"), std::string::npos);
}

TEST(NpyTest, MultiDimShape) {
  std::vector<half_t> values(12, float_to_half(2.0f));
  const NpyArray array = npy_from_half(values, {3, 4});
  std::stringstream ss;
  npy_save(ss, array);
  const NpyArray back = npy_load(ss);
  EXPECT_EQ(back.shape, (std::vector<std::size_t>{3, 4}));
  EXPECT_EQ(back.element_count(), 12u);
}

TEST(NpyTest, BadMagicThrows) {
  std::stringstream ss;
  ss << "NOTNUMPY............";
  EXPECT_THROW(npy_load(ss), std::runtime_error);
}

TEST(NpyTest, ShapeWhoseByteCountWrapsThrows) {
  // 2^62 <f4 elements and 2^64 <f2 elements both wrap the byte count to 0.
  for (const char* dict :
       {"{'descr': '<f4', 'fortran_order': False, "
        "'shape': (4611686018427387904,), }",
        "{'descr': '<f2', 'fortran_order': False, "
        "'shape': (4294967296, 4294967296), }"}) {
    std::stringstream ss(npy_stream(dict));
    EXPECT_THROW(npy_load(ss), std::runtime_error) << dict;
  }
}

TEST(NpyTest, ElementCountThrowsOnOverflow) {
  NpyArray array;
  array.dtype = "<f2";
  array.shape = {std::size_t(1) << 32, std::size_t(1) << 32};
  EXPECT_THROW(array.element_count(), std::runtime_error);
  array.shape = {std::size_t(1) << 32, 0, std::size_t(1) << 32};
  EXPECT_EQ(array.element_count(), 0u);
}

TEST(NpyTest, OverlongShapeEntryThrowsRuntimeError) {
  std::stringstream ss(npy_stream(
      "{'descr': '<f2', 'fortran_order': False, "
      "'shape': (123456789012345678901234,), }"));
  EXPECT_THROW(npy_load(ss), std::runtime_error);
}

TEST(NpyTest, TruncationsAndByteFlipsThrowOrLoadConsistently) {
  std::stringstream ss;
  npy_save(ss, npy_from_half(std::vector<half_t>(12, float_to_half(2.0f)),
                             {3, 4}));
  const std::string valid = ss.str();
  ASSERT_EQ(npy_load_problem(valid), "");
  for (std::size_t n = 0; n < valid.size(); ++n) {
    EXPECT_EQ(npy_load_problem(valid.substr(0, n)), "") << "first " << n;
  }
  // Four passes, each flipping every byte in turn by a nonzero mask.
  CounterRng rng(30);
  for (int pass = 0; pass < 4; ++pass) {
    for (std::size_t i = 0; i < valid.size(); ++i) {
      std::string flipped = valid;
      const auto mask = static_cast<char>(1 + rng.next(255));
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      EXPECT_EQ(npy_load_problem(flipped), "")
          << "byte " << i << " ^ " << int(std::uint8_t(mask));
    }
  }
}

TEST(PlyTest, RoundTrip) {
  const PointCloud pc = random_cloud(50, 6);
  const auto path =
      (std::filesystem::temp_directory_path() / "volut_test.ply").string();
  ASSERT_TRUE(save_ply(path, pc));
  const PointCloud back = load_ply(path);
  ASSERT_EQ(back.size(), pc.size());
  for (std::size_t i = 0; i < pc.size(); i += 7) {
    EXPECT_NEAR(back.position(i).x, pc.position(i).x, 1e-4f);
    EXPECT_EQ(back.color(i), pc.color(i));
  }
  std::filesystem::remove(path);
}

TEST(PlyTest, MissingFileThrows) {
  EXPECT_THROW(load_ply("/nonexistent/volut.ply"), std::runtime_error);
}

TEST(PlyTest, BadVertexCountsThrowRuntimeError) {
  // Not a number, a 23-digit number, 2^64 - 1 (beyond the cloud's
  // max_size) and a missing count.
  for (const char* count :
       {" abc", " 12345678901234567890123", " 18446744073709551615", ""}) {
    const std::string text = std::string("ply\nformat ascii 1.0\n") +
                             "element vertex" + count +
                             "\nend_header\n0 0 0\n";
    EXPECT_THROW(load_ply_text(text), std::runtime_error) << count;
  }
}

TEST(PlyTest, NegativeVertexCountIsABadCount) {
  // Unsigned extraction would read -1 as 2^64 - 1 and then report a
  // truncated vertex list.
  for (const char* count : {" -1", " -0", "  -7"}) {
    const std::string text = std::string("ply\nformat ascii 1.0\n") +
                             "element vertex" + count +
                             "\nend_header\n0 0 0\n";
    try {
      load_ply_text(text);
      ADD_FAILURE() << count << " loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("bad vertex count"),
                std::string::npos)
          << count << ": " << e.what();
    }
  }
}

TEST(PlyTest, TruncationsAndByteFlipsThrowOrLoadConsistently) {
  const auto path =
      (std::filesystem::temp_directory_path() / "volut_parse_valid.ply")
          .string();
  ASSERT_TRUE(save_ply(path, random_cloud(4, 12)));
  std::ifstream is(path, std::ios::binary);
  const std::string valid((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  is.close();
  std::filesystem::remove(path);
  ASSERT_EQ(load_ply_text(valid).size(), 4u);
  for (std::size_t n = 0; n < valid.size(); ++n) {
    EXPECT_EQ(ply_load_problem(valid.substr(0, n)), "") << "first " << n;
  }
  // Four passes, each flipping every byte in turn by a nonzero mask.
  CounterRng rng(31);
  for (int pass = 0; pass < 4; ++pass) {
    for (std::size_t i = 0; i < valid.size(); ++i) {
      std::string flipped = valid;
      const auto mask = static_cast<char>(1 + rng.next(255));
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      EXPECT_EQ(ply_load_problem(flipped), "")
          << "byte " << i << " ^ " << int(std::uint8_t(mask));
    }
  }
}

}  // namespace
}  // namespace volut
