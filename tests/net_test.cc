// Tests for bandwidth traces and the simulated link.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/net/trace.h"

namespace volut {
namespace {

TEST(TraceTest, StableTraceIsConstant) {
  const auto trace = BandwidthTrace::stable(50.0, 60.0);
  EXPECT_DOUBLE_EQ(trace.bandwidth_at(0.0), 50.0);
  EXPECT_DOUBLE_EQ(trace.bandwidth_at(30.5), 50.0);
  EXPECT_DOUBLE_EQ(trace.mean_mbps(), 50.0);
  EXPECT_DOUBLE_EQ(trace.std_mbps(), 0.0);
}

TEST(TraceTest, TransferTimeOnStableLink) {
  const auto trace = BandwidthTrace::stable(80.0, 60.0);
  // 10 MB at 80 Mbps = 1 second.
  EXPECT_NEAR(trace.transfer_time(10e6, 0.0), 1.0, 1e-9);
  // Independent of start time on a stable link.
  EXPECT_NEAR(trace.transfer_time(10e6, 17.3), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(trace.transfer_time(0.0, 5.0), 0.0);
}

TEST(TraceTest, TransferIntegratesAcrossRateChange) {
  // 1 s at 8 Mbps then 1 s at 80 Mbps, repeating.
  BandwidthTrace trace({8.0, 80.0}, 1.0);
  // 2 MB = 16 Mbit: 8 Mbit in the first second, 8 Mbit in 0.1 s after.
  EXPECT_NEAR(trace.transfer_time(2e6, 0.0), 1.1, 1e-9);
}

TEST(TraceTest, TransferTimeCrossesAnEdgeThatRoundsOntoTheStart) {
  // At dt 0.1 the edge after t = 4.3 computes as (floor(4.3 / 0.1) + 1) * 0.1,
  // which rounds to 4.3 itself; the walk must still step past it.
  const BandwidthTrace trace(std::vector<double>(100, 80.0), 0.1);
  ASSERT_EQ((std::floor(4.3 / 0.1) + 1.0) * 0.1, 4.3);
  EXPECT_GT(trace.next_edge_after(4.3), 4.3);
  // 1 MB at 80 Mbps = 0.1 s, from any start.
  EXPECT_NEAR(trace.transfer_time(1e6, 4.3), 0.1, 1e-9);
}

TEST(TraceTest, PeriodicExtension) {
  BandwidthTrace trace({10.0, 20.0}, 1.0);
  EXPECT_DOUBLE_EQ(trace.bandwidth_at(0.5), 10.0);
  EXPECT_DOUBLE_EQ(trace.bandwidth_at(1.5), 20.0);
  EXPECT_DOUBLE_EQ(trace.bandwidth_at(2.5), 10.0);  // wrapped
}

TEST(TraceTest, LteTraceMatchesRequestedStatistics) {
  const auto trace = BandwidthTrace::lte(32.5, 13.5, 600.0, 42);
  EXPECT_NEAR(trace.mean_mbps(), 32.5, 3.0);
  EXPECT_NEAR(trace.std_mbps(), 13.5, 3.0);
  // All samples positive (LTE floor).
  for (double t = 0.0; t < 600.0; t += 7.0) {
    EXPECT_GT(trace.bandwidth_at(t), 0.0);
  }
}

TEST(TraceTest, LteTraceIsDeterministicPerSeed) {
  const auto a = BandwidthTrace::lte(80.0, 20.0, 100.0, 7);
  const auto b = BandwidthTrace::lte(80.0, 20.0, 100.0, 7);
  const auto c = BandwidthTrace::lte(80.0, 20.0, 100.0, 8);
  EXPECT_DOUBLE_EQ(a.bandwidth_at(33.0), b.bandwidth_at(33.0));
  EXPECT_NE(a.bandwidth_at(33.0), c.bandwidth_at(33.0));
}

TEST(TraceTest, WrapAccountingExposesPeriodicExtension) {
  BandwidthTrace trace({10.0, 20.0}, 1.0);  // 2 s capture
  EXPECT_FALSE(trace.wrapped(0.0));
  EXPECT_FALSE(trace.wrapped(1.999));
  EXPECT_TRUE(trace.wrapped(2.0));
  EXPECT_TRUE(trace.wrapped(7.5));
  EXPECT_EQ(trace.wrap_count(0.5), 0u);
  EXPECT_EQ(trace.wrap_count(2.0), 1u);
  EXPECT_EQ(trace.wrap_count(7.5), 3u);
  EXPECT_DOUBLE_EQ(trace.sample_seconds(), 1.0);
}

TEST(TraceTest, EmptyTraceNeverWraps) {
  BandwidthTrace trace;
  EXPECT_FALSE(trace.wrapped(100.0));
  EXPECT_EQ(trace.wrap_count(100.0), 0u);
}

TEST(TraceTest, CtorRejectsMalformedSamples) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(BandwidthTrace({}, 1.0), std::invalid_argument);
  EXPECT_THROW(BandwidthTrace({10.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(BandwidthTrace({10.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(BandwidthTrace({10.0}, nan), std::invalid_argument);
  EXPECT_THROW(BandwidthTrace({10.0, -0.5}, 1.0), std::invalid_argument);
  EXPECT_THROW(BandwidthTrace({10.0, nan}, 1.0), std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(BandwidthTrace({inf}, 1.0), std::invalid_argument);
}

TEST(TraceTest, AllZeroDeadLinkTraceStaysValid) {
  // Dead links are a legitimate scenario (fleet truncation tests rely on
  // them); validation must only reject NaN/negative rates.
  const BandwidthTrace dead({0.0, 0.0}, 1.0);
  EXPECT_DOUBLE_EQ(dead.bandwidth_at(0.5), 0.0);
  EXPECT_EQ(dead.transfer_time(100.0, 0.0),
            std::numeric_limits<double>::infinity());
  // A default-constructed (empty) trace is the "no cap" sentinel, not an
  // error.
  EXPECT_TRUE(BandwidthTrace().empty());
}

TEST(LinkTest, DownloadIncludesRtt) {
  SimulatedLink link{BandwidthTrace::stable(80.0), 0.010};
  // 1 MB = 8 Mbit at 80 Mbps = 0.1 s, plus 10 ms RTT.
  EXPECT_NEAR(link.download_complete_time(1e6, 5.0), 5.0 + 0.010 + 0.1, 1e-9);
}

TEST(LinkTest, SlowerTraceTakesLonger) {
  SimulatedLink fast{BandwidthTrace::stable(100.0), 0.010};
  SimulatedLink slow{BandwidthTrace::stable(25.0), 0.010};
  EXPECT_LT(fast.download_complete_time(5e6, 0.0),
            slow.download_complete_time(5e6, 0.0));
}

}  // namespace
}  // namespace volut
