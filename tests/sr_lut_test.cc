// Tests for position encoding, the axis-separable LUT, NPY persistence and
// Table-1 memory accounting.
#include <gtest/gtest.h>

#include <filesystem>

#include "src/core/rng.h"
#include "src/platform/thread_pool.h"
#include "src/sr/lut.h"
#include "src/sr/lut_builder.h"
#include "src/sr/position_encoding.h"

namespace volut {
namespace {

TEST(QuantizeTest, BinBoundaries) {
  const int b = 128;
  EXPECT_EQ(quantize_coord(-1.0f, b), 0);
  EXPECT_EQ(quantize_coord(1.0f, b), b - 1);
  EXPECT_EQ(quantize_coord(0.0f, b), (b - 1) / 2);
  // Out-of-range values clamp.
  EXPECT_EQ(quantize_coord(-5.0f, b), 0);
  EXPECT_EQ(quantize_coord(5.0f, b), b - 1);
}

TEST(QuantizeTest, DequantizeIsCenterInverse) {
  const int b = 64;
  for (std::uint16_t q = 0; q < b; ++q) {
    EXPECT_EQ(quantize_coord(dequantize_coord(q, b), b), q);
  }
}

TEST(QuantizeTest, QuantizationErrorBound) {
  const int b = 128;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(-1, 1);
    const float back = dequantize_coord(quantize_coord(v, b), b);
    EXPECT_LE(std::abs(back - v), 2.0f / float(b - 1) + 1e-6f);
  }
}

TEST(AxisIndexTest, MixedRadixEncoding) {
  const std::vector<std::uint16_t> seq = {1, 2, 3};
  EXPECT_EQ(axis_index(seq, 10), 123u);
  EXPECT_EQ(axis_index(seq, 4), 1u * 16 + 2u * 4 + 3u);
}

TEST(EncodeTest, CenterAlwaysFirstAndZero) {
  const std::vector<Vec3f> positions = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  const std::vector<Neighbor> nbrs = {{0, 1.f}, {1, 1.f}, {2, 1.f}};
  const auto enc = encode_neighborhood({0, 0, 0}, nbrs, positions, 4, 128);
  EXPECT_EQ(enc.n, 4u);
  EXPECT_FLOAT_EQ(enc.radius, 1.0f);
  for (int a = 0; a < 3; ++a) {
    EXPECT_FLOAT_EQ(enc.normalized[a][0], 0.0f);
    EXPECT_EQ(enc.quantized[a][0], quantize_coord(0.0f, 128));
  }
  // First neighbor is (1,0,0): x-axis normalized 1, others 0.
  EXPECT_FLOAT_EQ(enc.normalized[0][1], 1.0f);
  EXPECT_FLOAT_EQ(enc.normalized[1][1], 0.0f);
}

TEST(EncodeTest, NormalizationIsScaleAndTranslationInvariant) {
  Rng rng(2);
  std::vector<Vec3f> pos;
  for (int i = 0; i < 3; ++i) {
    pos.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1),
                   rng.uniform(-1, 1)});
  }
  const Vec3f center{0.1f, 0.2f, 0.3f};
  const std::vector<Neighbor> nbrs = {{0, 0.f}, {1, 0.f}, {2, 0.f}};
  const auto enc1 = encode_neighborhood(center, nbrs, pos, 4, 64);

  // Scale everything by 7 and translate by (5, -3, 2): Eq. 3 normalization
  // must produce identical bins.
  std::vector<Vec3f> pos2;
  const Vec3f t{5, -3, 2};
  for (const auto& p : pos) pos2.push_back(p * 7.0f + t);
  const auto enc2 =
      encode_neighborhood(center * 7.0f + t, nbrs, pos2, 4, 64);
  for (int a = 0; a < 3; ++a) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(enc1.quantized[a][j], enc2.quantized[a][j]);
    }
  }
  EXPECT_NEAR(enc2.radius, enc1.radius * 7.0f, 1e-4f);
}

TEST(EncodeTest, AllCoordinatesWithinUnitCube) {
  Rng rng(3);
  std::vector<Vec3f> pos;
  for (int i = 0; i < 8; ++i) {
    pos.push_back({rng.uniform(-10, 10), rng.uniform(-10, 10),
                   rng.uniform(-10, 10)});
  }
  std::vector<Neighbor> nbrs;
  for (std::size_t i = 0; i < pos.size(); ++i) nbrs.push_back({i, 0.f});
  const auto enc = encode_neighborhood({0, 0, 0}, nbrs, pos, 5, 32);
  for (int a = 0; a < 3; ++a) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_GE(enc.normalized[a][j], -1.0f - 1e-5f);
      EXPECT_LE(enc.normalized[a][j], 1.0f + 1e-5f);
    }
  }
}

TEST(EncodeTest, ShortNeighborListsPadWithCenter) {
  const std::vector<Vec3f> pos = {{1, 1, 1}};
  const std::vector<Neighbor> nbrs = {{0, 3.f}};
  const auto enc = encode_neighborhood({0, 0, 0}, nbrs, pos, 4, 16);
  // Slots 2 and 3 padded: normalized zero.
  EXPECT_FLOAT_EQ(enc.normalized[0][2], 0.0f);
  EXPECT_FLOAT_EQ(enc.normalized[0][3], 0.0f);
}

TEST(EncodeTest, DegenerateNeighborhoodHasZeroRadius) {
  const std::vector<Vec3f> pos = {{0, 0, 0}, {0, 0, 0}};
  const std::vector<Neighbor> nbrs = {{0, 0.f}, {1, 0.f}};
  const auto enc = encode_neighborhood({0, 0, 0}, nbrs, pos, 3, 16);
  EXPECT_FLOAT_EQ(enc.radius, 0.0f);
}

// --- Table 1 memory accounting ----------------------------------------------

struct Table1Case {
  std::size_t n;
  int b;
  double expected_bytes;
};

class Table1Test : public ::testing::TestWithParam<Table1Case> {};

TEST_P(Table1Test, MemoryMatchesPaperTable) {
  const auto [n, b, expected] = GetParam();
  const LutSpec spec{n, b};
  EXPECT_NEAR(double(spec.bytes()) / expected, 1.0, 0.05)
      << "n=" << n << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table1Test,
    ::testing::Values(Table1Case{3, 128, 12e6},      // 12 MB
                      Table1Case{3, 64, 1.5e6},      // 1.5 MB
                      Table1Case{4, 128, 1.61e9},    // 1.61 GB
                      Table1Case{4, 64, 100e6},      // 100 MB
                      Table1Case{5, 128, 201e9},     // 201 GB
                      Table1Case{5, 64, 6.25e9}),    // 6.25 GB
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_b" +
             std::to_string(info.param.b);
    });

TEST(LutTest, ConstructionValidatesSpec) {
  EXPECT_THROW(RefinementLut(LutSpec{1, 16}), std::invalid_argument);
  EXPECT_THROW(RefinementLut(LutSpec{4, 1}), std::invalid_argument);
  const RefinementLut lut(LutSpec{3, 8});
  EXPECT_FALSE(lut.empty());
  EXPECT_EQ(lut.allocated_bytes(), lut.spec().bytes());
}

TEST(LutTest, SetGetRoundTripThroughHalf) {
  RefinementLut lut(LutSpec{3, 8});
  lut.set(1, 42, 0.25f);
  EXPECT_FLOAT_EQ(lut.get(1, 42), 0.25f);  // exactly representable
  lut.set(2, 0, 0.1f);
  EXPECT_NEAR(lut.get(2, 0), 0.1f, 1e-4f);
}

TEST(LutTest, LookupAppliesRadiusDenormalization) {
  const LutSpec spec{3, 16};
  RefinementLut lut(spec);
  // Build an encoding and plant a known offset at its index.
  const std::vector<Vec3f> pos = {{0.5f, 0, 0}, {0, 0.5f, 0}};
  const std::vector<Neighbor> nbrs = {{0, 0.f}, {1, 0.f}};
  const auto enc = encode_neighborhood({0, 0, 0}, nbrs, pos, 3, spec.bins);
  for (int a = 0; a < 3; ++a) {
    const std::uint64_t idx = axis_index(
        std::span<const std::uint16_t>(enc.quantized[a].data(), 3),
        spec.bins);
    lut.set(a, idx, 0.5f);
  }
  const Vec3f offset = lut.lookup(enc);
  // radius = 0.5, normalized offset 0.5 -> world offset 0.25 per axis.
  EXPECT_NEAR(offset.x, 0.25f, 1e-3f);
  EXPECT_NEAR(offset.y, 0.25f, 1e-3f);
}

TEST(LutTest, ZeroRadiusLookupIsNoop) {
  RefinementLut lut(LutSpec{3, 8});
  EncodedNeighborhood enc;
  enc.n = 3;
  enc.radius = 0.0f;
  EXPECT_EQ(lut.lookup(enc), Vec3f{});
}

TEST(LutTest, NpySaveLoadRoundTrip) {
  const LutSpec spec{3, 8};
  RefinementLut lut(spec);
  Rng rng(4);
  for (int a = 0; a < 3; ++a) {
    for (std::uint64_t i = 0; i < spec.entries_per_axis(); i += 11) {
      lut.set(a, i, rng.uniform(-0.5f, 0.5f));
    }
  }
  const auto path =
      (std::filesystem::temp_directory_path() / "volut_lut.npy").string();
  lut.save_npy(path);
  const RefinementLut back = RefinementLut::load_npy(path);
  EXPECT_EQ(back.spec(), spec);
  for (int a = 0; a < 3; ++a) {
    for (std::uint64_t i = 0; i < spec.entries_per_axis(); i += 11) {
      EXPECT_FLOAT_EQ(back.get(a, i), lut.get(a, i));
    }
  }
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".meta");
}

TEST(LutBuilderTest, DistillMatchesNetworkAtBinCenters) {
  RefineNetConfig cfg;
  cfg.receptive_field = 3;
  cfg.hidden = {8};
  RefineNet net(cfg);
  const LutSpec spec{3, 8};
  const RefinementLut lut = distill_lut(net, spec);

  // For a handful of reachable configurations, the LUT entry must equal the
  // network's prediction at the dequantized coordinates.
  Rng rng(5);
  const std::uint16_t cbin = quantize_coord(0.0f, spec.bins);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint16_t> seq = {
        cbin, std::uint16_t(rng.next(8)), std::uint16_t(rng.next(8))};
    std::vector<float> coords;
    for (auto q : seq) coords.push_back(dequantize_coord(q, spec.bins));
    const float want = net.predict(0, coords);
    const float got = lut.get(0, axis_index(seq, spec.bins));
    EXPECT_NEAR(got, want, 2e-3f) << "trial " << trial;
  }
}

TEST(LutBuilderTest, DistillOnPoolIsBitIdenticalToSerial) {
  RefineNetConfig cfg;
  cfg.receptive_field = 4;
  cfg.hidden = {8};
  const RefineNet net(cfg);
  // 32^3 reachable entries per axis — enough to split into several pool
  // chunks (the parallel path, not the small-n inline fallback).
  const LutSpec spec{4, 32};
  const RefinementLut serial = distill_lut(net, spec);
  ThreadPool pool(4);
  const RefinementLut parallel = distill_lut(net, spec, &pool);
  std::uint64_t mismatches = 0;
  for (int axis = 0; axis < 3; ++axis) {
    for (std::uint64_t idx = 0; idx < spec.entries_per_axis(); ++idx) {
      mismatches += serial.get(axis, idx) != parallel.get(axis, idx);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(LutBuilderTest, DistillRejectsMismatchedReceptiveField) {
  RefineNetConfig cfg;
  cfg.receptive_field = 3;
  RefineNet net(cfg);
  EXPECT_THROW(distill_lut(net, LutSpec{4, 8}), std::invalid_argument);
}

}  // namespace
}  // namespace volut
