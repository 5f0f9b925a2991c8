// Design-choice ablation: ABR controller family.
//
// VoLUT commits to MPC-based continuous control (§5.1). This bench
// quantifies that choice against (a) discrete MPC (the YuZu ladder), and
// (b) a myopic rate-based controller (classic throughput rule, no horizon),
// across stable and LTE links — the ablation DESIGN.md calls out beyond the
// paper's own H1/H2 comparison.
#include <cstdio>
#include <memory>

#include "bench/common.h"
#include "src/abr/throughput.h"
#include "src/net/shared_link.h"
#include "src/stream/session.h"

namespace {

using namespace volut;

/// Runs a VoLUT session but with the given ABR policy patched in via the
/// discrete/continuous session kinds; the rate-based policy is evaluated
/// through a standalone replay of the same link using its decisions.
double rate_based_session_qoe(const SessionConfig& base,
                              const SimulatedLink& link, double* data_out) {
  // Minimal replica of run_session's loop for the rate-based policy.
  VideoServer server(base.video);
  const double full_bytes = server.chunk_bytes(1.0, base.chunk_seconds);
  const std::size_t n = std::min<std::size_t>(
      base.max_chunks, server.chunk_count(base.chunk_seconds));
  RateBasedAbr abr;
  ThroughputEstimator estimator(5);
  SharedLink net(link.trace);
  double clock = 0.0, buffer = 0.0, qoe = 0.0, prev_q = -1.0, bytes_sum = 0.0;
  double prev_ratio = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    AbrContext ctx;
    ctx.throughput_mbps =
        estimator.estimate_mbps(link.trace.bandwidth_at(clock) * 0.8);
    ctx.buffer_seconds = buffer;
    ctx.prev_density_ratio = prev_ratio;
    ctx.chunk_seconds = base.chunk_seconds;
    ctx.full_chunk_bytes = full_bytes;
    ctx.sr_seconds_per_chunk_full = base.volut_sr_seconds_per_chunk;
    const AbrDecision d = abr.decide(ctx);
    const double bytes = full_bytes * d.density_ratio;
    net.start_flow(bytes);
    const double done = net.next_completion_time(clock + link.rtt_seconds);
    net.advance(clock + link.rtt_seconds, done);
    const double dl = done - clock;
    if (dl > 0) estimator.add_sample(bytes * 8.0 / dl / 1e6);
    const double sr = base.volut_sr_seconds_per_chunk * d.density_ratio;
    const double busy = std::max(dl, sr) + 0.25 * std::min(dl, sr);
    double stall = 0.0;
    if (i >= base.startup_chunks) {
      stall = std::max(0.0, busy - buffer);
      buffer = std::max(0.0, buffer - busy) + base.chunk_seconds;
    } else {
      buffer += base.chunk_seconds;
    }
    buffer = std::min(buffer, base.max_buffer_seconds);
    clock = done;
    const double q = quality_score(d.density_ratio, base.qoe, true);
    qoe += chunk_qoe(q, prev_q < 0 ? q : prev_q, stall, base.qoe);
    prev_q = q;
    prev_ratio = d.density_ratio;
    bytes_sum += bytes;
  }
  if (data_out) *data_out = bytes_sum / (full_bytes * double(n));
  return qoe;
}

}  // namespace

int main(int argc, char** argv) {
  auto obs = volut::bench::ObsDump::from_args(argc, argv);
  const double scale = bench::bench_scale();
  SessionConfig base;
  base.video = VideoSpec::dress(scale);
  base.video.frame_count = 3600;
  base.video.loops = 1;
  base.max_chunks = 120;

  VideoServer server(base.video);
  const double full_mbps = server.chunk_bytes(1.0, 1.0) * 8.0 / 1e6;

  bench::print_header("Ablation: ABR controller family");
  struct Link {
    const char* name;
    SimulatedLink link;
  };
  const Link links[] = {
      {"stable 0.25x capacity",
       {BandwidthTrace::stable(full_mbps * 0.25), 0.010}},
      {"LTE 0.15x capacity",
       {BandwidthTrace::lte(full_mbps * 0.15, full_mbps * 0.075, 600.0, 77),
        0.030}},
  };
  for (const Link& l : links) {
    std::printf("\n--- %s ---\n", l.name);
    std::printf("%-26s %12s %12s\n", "controller", "QoE", "data vs raw");
    bench::print_rule();
    for (SystemKind kind : {SystemKind::kVolutContinuous,
                            SystemKind::kVolutDiscrete}) {
      SessionConfig cfg = base;
      cfg.kind = kind;
      const SessionResult r = run_session(cfg, l.link);
      std::printf("%-26s %12.0f %11.0f%%\n",
                  kind == SystemKind::kVolutContinuous ? "continuous MPC"
                                                       : "discrete MPC",
                  r.qoe, 100.0 * r.data_usage_fraction);
    }
    double data = 0.0;
    const double qoe = rate_based_session_qoe(base, l.link, &data);
    std::printf("%-26s %12.0f %11.0f%%\n", "rate-based (myopic)", qoe,
                100.0 * data);
  }
  std::printf(
      "\nExpected: continuous MPC >= discrete MPC on both links. The myopic\n"
      "rate rule under-fetches (lowest data): on stable links that wastes\n"
      "capacity and loses QoE; under bursty LTE its conservatism can win on\n"
      "raw QoE while delivering visibly lower quality — the classic\n"
      "rate-rule trade-off that motivates MPC.\n");
  return 0;
}
