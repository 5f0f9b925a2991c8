// Tests for bandwidth traces and the simulated link.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/net/shared_link.h"
#include "src/net/trace.h"

namespace volut {
namespace {

// Completion time of a `bytes` download issued at `issued_at`, drained as
// the one flow of a SharedLink the way run_session drains each chunk. The
// advance must complete it at the peeked time.
double download_done(const SimulatedLink& link, double bytes,
                     double issued_at) {
  SharedLink net(link.trace);
  net.start_flow(bytes);
  const double start = issued_at + link.rtt_seconds;
  const double done = net.next_completion_time(start);
  if (std::isfinite(done)) {
    const auto completed = net.advance(start, done);
    EXPECT_EQ(completed.size(), 1u);
    EXPECT_EQ(net.active_flows(), 0u);
  }
  return done;
}

// Seconds a download takes on `trace` once its transfer starts at `t0`.
double transfer_seconds(const BandwidthTrace& trace, double bytes,
                        double t0) {
  return download_done(SimulatedLink{trace, 0.0}, bytes, t0) - t0;
}

TEST(TraceTest, StableTraceIsConstant) {
  const auto trace = BandwidthTrace::stable(50.0, 60.0);
  EXPECT_DOUBLE_EQ(trace.bandwidth_at(0.0), 50.0);
  EXPECT_DOUBLE_EQ(trace.bandwidth_at(30.5), 50.0);
  EXPECT_DOUBLE_EQ(trace.mean_mbps(), 50.0);
  EXPECT_DOUBLE_EQ(trace.std_mbps(), 0.0);
}

TEST(LinkTest, TransferTimeOnStableLink) {
  const auto trace = BandwidthTrace::stable(80.0, 60.0);
  // 10 MB at 80 Mbps = 1 second.
  EXPECT_NEAR(transfer_seconds(trace, 10e6, 0.0), 1.0, 1e-9);
  // Independent of start time on a stable link.
  EXPECT_NEAR(transfer_seconds(trace, 10e6, 17.3), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(transfer_seconds(trace, 0.0, 5.0), 0.0);
}

TEST(LinkTest, TransferIntegratesAcrossRateChange) {
  // 1 s at 8 Mbps then 1 s at 80 Mbps, repeating.
  BandwidthTrace trace({8.0, 80.0}, 1.0);
  // 2 MB = 16 Mbit: 8 Mbit in the first second, 8 Mbit in 0.1 s after.
  EXPECT_NEAR(transfer_seconds(trace, 2e6, 0.0), 1.1, 1e-9);
}

TEST(LinkTest, TransferTimeCrossesAnEdgeThatRoundsOntoTheStart) {
  // At dt 0.1 the edge after t = 4.3 computes as (floor(4.3 / 0.1) + 1) * 0.1,
  // which rounds to 4.3 itself; the walk must still step past it.
  const BandwidthTrace trace(std::vector<double>(100, 80.0), 0.1);
  ASSERT_EQ((std::floor(4.3 / 0.1) + 1.0) * 0.1, 4.3);
  EXPECT_GT(trace.next_edge_after(4.3), 4.3);
  // 1 MB at 80 Mbps = 0.1 s, from any start.
  EXPECT_NEAR(transfer_seconds(trace, 1e6, 4.3), 0.1, 1e-9);
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
  EXPECT_FALSE(trace.wrap_count(0.0) > 0);
  EXPECT_FALSE(trace.wrap_count(1.999) > 0);
  EXPECT_TRUE(trace.wrap_count(2.0) > 0);
  EXPECT_TRUE(trace.wrap_count(7.5) > 0);
  EXPECT_EQ(trace.wrap_count(0.5), 0u);
  EXPECT_EQ(trace.wrap_count(2.0), 1u);
  EXPECT_EQ(trace.wrap_count(7.5), 3u);
  EXPECT_DOUBLE_EQ(trace.sample_seconds(), 1.0);
}

TEST(TraceTest, EmptyTraceNeverWraps) {
  BandwidthTrace trace;
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
  EXPECT_EQ(transfer_seconds(dead, 100.0, 0.0),
            std::numeric_limits<double>::infinity());
  // A default-constructed (empty) trace is the "no cap" sentinel, not an
  // error.
  EXPECT_TRUE(BandwidthTrace().empty());
}

TEST(TraceTest, OverlapsDecidesOverOneCommonPeriod) {
  const BandwidthTrace odd({0.0, 50.0}, 1.0);  // up on odd seconds
  // Dead and gap-free traces decide at once.
  EXPECT_FALSE(odd.overlaps(BandwidthTrace({0.0, 0.0}, 1.0)));
  EXPECT_TRUE(odd.overlaps(BandwidthTrace::stable(5.0)));
  // Equal widths: up on even seconds never meets up on odd ones.
  EXPECT_FALSE(odd.overlaps(BandwidthTrace({50.0, 0.0}, 1.0)));
  // Integer multiples, in either order: half-second samples up in [0, 1).
  const BandwidthTrace even_half({50.0, 50.0, 0.0, 0.0}, 0.5);
  EXPECT_FALSE(odd.overlaps(even_half));
  EXPECT_FALSE(even_half.overlaps(odd));
  EXPECT_TRUE(odd.overlaps(BandwidthTrace({0.0, 0.0, 50.0, 0.0}, 0.5)));
  // Periods 2 s and 3 s first meet in [3, 4) of their common 6 s period.
  EXPECT_TRUE(odd.overlaps(BandwidthTrace({50.0, 0.0, 0.0}, 1.0)));
  // 1 s against 0.7 s shares no integer grid: undecided, so overlapping.
  EXPECT_TRUE(odd.overlaps(BandwidthTrace({50.0, 0.0}, 0.7)));
}

TEST(LinkTest, DownloadIncludesRtt) {
  SimulatedLink link{BandwidthTrace::stable(80.0), 0.010};
  // 1 MB = 8 Mbit at 80 Mbps = 0.1 s, plus 10 ms RTT.
  EXPECT_NEAR(download_done(link, 1e6, 5.0), 5.0 + 0.010 + 0.1, 1e-9);
}

TEST(LinkTest, SlowerTraceTakesLonger) {
  SimulatedLink fast{BandwidthTrace::stable(100.0), 0.010};
  SimulatedLink slow{BandwidthTrace::stable(25.0), 0.010};
  EXPECT_LT(download_done(fast, 5e6, 0.0), download_done(slow, 5e6, 0.0));
}

}  // namespace
}  // namespace volut
