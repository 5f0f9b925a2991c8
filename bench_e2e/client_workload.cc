// Client workloads: the viewer's device path, wire bytes -> protocol ->
// codec -> SR, driven through the real VolutClient::fetch_chunk.
//
// A bench-local ReplayTransport answers each ChunkRequest with response
// bytes framed at set-up, so the server-side downsample and encode stay out
// of the timed loop. The loop is closed: one caller, the next request goes
// out when the previous one returns.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_e2e/e2e.h"
#include "src/codec/codec.h"
#include "src/core/rng.h"
#include "src/data/synthetic_video.h"
#include "src/metrics/stats.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/platform/timer.h"
#include "src/spatial/octree.h"
#include "src/sr/lut_builder.h"
#include "src/sr/pipeline.h"
#include "src/sr/refine_net.h"
#include "src/stream/endpoint.h"
#include "src/stream/protocol.h"

namespace volut::e2e {
namespace {

/// LUT resolution. The paper deploys b = 128, a 1.6 GB table at n = 4;
/// b = 64 keeps it at 100 MB. Lookups touch only the reachable slice:
/// 3 x 64^3 half floats (1.5 MB) here, 12 MB at b = 128.
constexpr int kLutBins = 64;
constexpr std::size_t kColdStarts = 5;
/// Requests of two frames: a run of the slowest client workload then holds
/// 150+ requests. Twelve distinct requests (24 frames) are cycled, so a
/// request never finds the previous one's bytes in cache.
constexpr std::size_t kFramesPerRequest = 2;
constexpr std::size_t kDistinctRequests = 12;

/// Serves pre-framed chunk responses: request i gets responses[i], any
/// other request (or a density the responses were not encoded at) gets a
/// framed error, which fetch_chunk turns into an exception.
class ReplayTransport : public Transport {
 public:
  ReplayTransport(const std::vector<std::vector<std::uint8_t>>& responses,
                  float density)
      : responses_(responses),
        density_(density),
        error_(frame_message(encode_error({/*code=*/404}))) {}

  void send(const std::vector<std::uint8_t>& bytes) override {
    parser_.feed(bytes);
    while (auto message = parser_.next()) {
      const std::vector<std::uint8_t>* reply = &error_;
      if (message->type == MessageType::kChunkRequest) {
        const ChunkRequest req = decode_chunk_request(*message);
        if (req.chunk_index < responses_.size() &&
            req.density_ratio == density_) {
          reply = &responses_[req.chunk_index];
        }
      }
      if (sink_) sink_(*reply);
    }
  }
  void set_receive_sink(Sink sink) override { sink_ = std::move(sink); }

 private:
  const std::vector<std::vector<std::uint8_t>>& responses_;
  float density_;
  std::vector<std::uint8_t> error_;
  FrameParser parser_;
  Sink sink_;
};

/// Dress at paper scale (100k points per frame): request r carries frames
/// [r*F, (r+1)*F), each randomly downsampled to the workload density (the
/// server's §5.2 path) and encoded, then framed as ServerEndpoint sends it.
std::vector<std::vector<std::uint8_t>> make_responses(float density,
                                                      std::uint64_t seed) {
  VideoSpec video_spec = VideoSpec::dress(1.0);
  video_spec.seed = mix64(seed ^ 0xD8E55ull);
  const SyntheticVideo video(video_spec);
  Rng rng(mix64(seed ^ 0x5A3D1Eull));
  std::vector<std::vector<std::uint8_t>> responses;
  for (std::size_t r = 0; r < kDistinctRequests; ++r) {
    EncodedChunk chunk;
    chunk.header.chunk_index = static_cast<std::uint32_t>(r);
    chunk.header.frame_count = static_cast<std::uint32_t>(kFramesPerRequest);
    chunk.header.density_ratio = density;
    chunk.header.sr_ratio = 1.0f / density;
    for (std::size_t f = 0; f < kFramesPerRequest; ++f) {
      const PointCloud full = video.frame(r * kFramesPerRequest + f);
      chunk.frames.push_back(encode_frame(
          density < 1.0f ? full.random_downsample(density, rng) : full));
    }
    responses.push_back(frame_message(encode_chunk_response(chunk)));
  }
  return responses;
}

/// A LUT distilled from a seeded (untrained) refinement net and saved as the
/// .npy a client would ship with. Its values move output points but not the
/// work a lookup does, so training it would only lengthen set-up.
std::string write_lut(const Options& options, ThreadPool& pool) {
  RefineNetConfig cfg;
  cfg.receptive_field = 4;
  cfg.seed = mix64(options.seed ^ 0x1A7ull);
  const RefineNet net(cfg);
  const RefinementLut lut =
      distill_lut(net, LutSpec{cfg.receptive_field, kLutBins}, &pool);
  const std::string path = options.workdir + "/lut.npy";
  lut.save_npy(path);
  return path;
}

std::uint64_t cloud_hash(const PointCloud& c) {
  const std::uint64_t h =
      fnv1a_words(c.positions().data(), c.positions().size_bytes());
  return fnv1a_words(c.colors().data(), c.colors().size_bytes(), h);
}

/// A request's SR output: the FNV of its frames' hashes.
std::uint64_t fingerprint(const std::vector<PointCloud>& clouds) {
  std::uint64_t h = 1469598103934665603ull;
  for (const PointCloud& c : clouds) {
    const std::uint64_t frame = cloud_hash(c);
    h = fnv1a_words(&frame, sizeof(frame), h);
  }
  return h;
}

/// One pass of the timed loop and what it measured.
struct LoopStats {
  std::vector<double> frame_ms;  // per request: wall / frames
  double wall_ms = 0.0;          // summed fetch_chunk wall
  std::size_t frames = 0;
  SrTiming sr;                   // summed over frames
  double wire_bytes = 0.0;
  double input_points = 0.0;
  double output_points = 0.0;
};

class ClientRun {
 public:
  ClientRun(const Options& options, float density, ThreadPool& pool)
      : options_(options), density_(density), pool_(pool) {}

  Outcome run() {
    responses_ = make_responses(density_, options_.seed);
    lut_path_ = write_lut(options_, pool_);
    std::vector<double> setup_s{cold_start()};
    ReplayTransport transport(responses_, density_);
    VolutClient client(&transport, lut_, interp_, &pool_);
    verify_first_cycle(client);

    Outcome out;
    if (options_.trace) {
      out = traced(client);
    } else {
      // The other cold starts are spread over the run: a shared VM changes
      // speed for seconds at a time, longer than five back-to-back starts
      // take.
      LoopStats loop;
      const Timer clock;
      for (std::size_t i = 1; i <= kColdStarts; ++i) {
        timed_loop(client, loop, clock,
                   options_.seconds * double(i) / double(kColdStarts));
        if (i < kColdStarts) setup_s.push_back(cold_start());
      }
      out = std::move(outcome_);
      out.add("latency_ms_p50", percentile(loop.frame_ms, 50.0), "ms");
      out.add("throughput_per_s",
              double(loop.frames) / (loop.wall_ms / 1000.0), "1/s");
      out.add("setup_s", percentile(setup_s, 50.0), "s");
      std::printf("requests %zu, frames %zu\n", loop.frame_ms.size(),
                  loop.frames);
    }
    std::remove(lut_path_.c_str());
    std::remove((lut_path_ + ".meta").c_str());
    return out;
  }

 private:
  /// Counts one fetch as attempted and records whether its output is right:
  /// the index must match and the SR output must hash to `expected` when
  /// one is given.
  bool check(const ClientChunk& chunk, std::size_t index,
             const std::uint64_t* expected) {
    ++outcome_.attempted;
    bool ok = chunk.index == index &&
              chunk.sr_frames.size() == kFramesPerRequest;
    if (ok && expected != nullptr) {
      ok = fingerprint(chunk.sr_frames) == *expected;
    }
    if (!ok) {
      ++outcome_.failed;
      std::fprintf(stderr, "client: request %zu returned a wrong chunk\n",
                   index);
    }
    return ok;
  }

  /// Warm-up cycle over every distinct request: records each request's SR
  /// fingerprint, and re-runs frame r mod F of request r through a serial
  /// (pool = nullptr) pipeline. The pipeline is bit-identical across worker
  /// counts, so that comparison is exact. (Re-running every frame serially
  /// would take longer than the timed loop.) Traced runs also time a pooled
  /// upsample() of the same frame for platform.pool_speedup.
  void verify_first_cycle(VolutClient& client) {
    const SrPipeline serial(lut_, interp_, nullptr);
    const SrPipeline pooled(lut_, interp_, &pool_);
    const double ratio = 1.0 / double(density_);
    for (std::size_t r = 0; r < responses_.size(); ++r) {
      const ClientChunk chunk = safe_fetch(client, r);
      fingerprints_.push_back(fingerprint(chunk.sr_frames));
      if (!check(chunk, r, nullptr)) continue;
      const std::size_t f = r % chunk.frames.size();
      Timer serial_timer;
      const SrResult reference = serial.upsample(chunk.frames[f], ratio);
      serial_ms_ += serial_timer.elapsed_ms();
      if (cloud_hash(reference.cloud) != cloud_hash(chunk.sr_frames[f])) {
        ++outcome_.failed;
        std::fprintf(stderr,
                     "client: request %zu frame %zu differs from the serial "
                     "pipeline\n",
                     r, f);
      }
      if (options_.trace) {
        Timer pooled_timer;
        pooled.upsample(chunk.frames[f], ratio);
        pooled_ms_ += pooled_timer.elapsed_ms();
      }
    }
  }

  /// What a viewer's device pays before its first frame: load the LUT
  /// file, construct the client, fetch and super-resolve the first request.
  /// Returns seconds. The first start's LUT is the one the run keeps.
  double cold_start() {
    Timer timer;
    auto lut = std::make_shared<const RefinementLut>(
        RefinementLut::load_npy(lut_path_));
    ReplayTransport transport(responses_, density_);
    VolutClient client(&transport, lut, interp_, &pool_);
    const ClientChunk first = safe_fetch(client, 0);
    const double seconds = timer.elapsed_ms() / 1000.0;
    check(first, 0, fingerprints_.empty() ? nullptr : &fingerprints_[0]);
    if (lut_ == nullptr) lut_ = std::move(lut);
    return seconds;
  }

  /// fetch_chunk with a throw counted as a failed operation (an empty chunk
  /// then fails the index check too, so it is counted once there).
  ClientChunk safe_fetch(VolutClient& client, std::size_t r) {
    try {
      return client.fetch_chunk(0, static_cast<std::uint32_t>(r),
                                density_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "client: fetch_chunk(%zu) threw: %s\n", r,
                   e.what());
      ClientChunk bad;
      bad.index = ~0u;
      return bad;
    }
  }

  /// Closed loop over the distinct requests, appending to `s`, until
  /// `clock` reads `until_s` seconds (at least one request).
  void timed_loop(VolutClient& client, LoopStats& s, const Timer& clock,
                  double until_s) {
    do {
      const std::size_t r = next_request_++ % responses_.size();
      TraceSpan span("bench/fetch_chunk");
      const ClientChunk chunk = safe_fetch(client, r);
      const double wall = span.stop_ms();
      if (!check(chunk, r, &fingerprints_[r])) continue;
      const std::size_t frames = chunk.sr_frames.size();
      s.frame_ms.push_back(wall / double(frames));
      s.wall_ms += wall;
      s.frames += frames;
      s.sr.knn_ms += chunk.sr_timing.knn_ms;
      s.sr.interpolate_ms += chunk.sr_timing.interpolate_ms;
      s.sr.colorize_ms += chunk.sr_timing.colorize_ms;
      s.sr.refine_ms += chunk.sr_timing.refine_ms;
      s.wire_bytes += double(chunk.wire_bytes);
      for (std::size_t f = 0; f < frames; ++f) {
        s.input_points += double(chunk.frames[f].size());
        s.output_points += double(chunk.sr_frames[f].size());
      }
    } while (clock.elapsed_ms() < until_s * 1000.0);
  }

  /// Per-layer run: an untraced loop gives the frame total the layer rows
  /// reconcile to, a traced loop gives the Chrome trace and the tracing
  /// overhead, and isolated probes time the layers fetch_chunk does not
  /// report on the same wire bytes.
  Outcome traced(VolutClient& client) {
    MetricsRegistry& reg = MetricsRegistry::global();
    const std::uint64_t queries0 = reg.counter_value("spatial/knn_queries");
    const std::uint64_t scanned0 = reg.counter_value("spatial/points_scanned");
    const std::uint64_t pushes0 = reg.counter_value("spatial/heap_pushes");

    LoopStats loop;
    LoopStats traced_loop;
    const double faults0 = minor_faults();
    timed_loop(client, loop, Timer(), options_.seconds * 0.5);
    const double faults = minor_faults() - faults0;
    const double queries =
        double(reg.counter_value("spatial/knn_queries") - queries0);
    const double scanned =
        double(reg.counter_value("spatial/points_scanned") - scanned0);
    const double pushes =
        double(reg.counter_value("spatial/heap_pushes") - pushes0);

    TraceCollector::global().start();
    timed_loop(client, traced_loop, Timer(), options_.seconds * 0.5);
    const Probes probes = run_probes();
    TraceCollector::global().stop();
    if (!options_.trace_json.empty()) {
      TraceCollector::global().write_json(options_.trace_json);
    }

    const double frames = std::max<double>(1.0, double(loop.frames));
    const double frame_p50 = percentile(loop.frame_ms, 50.0);
    const double layers[] = {
        probes.parse_ms,          probes.chunk_decode_ms,
        probes.decode_ms,         loop.sr.knn_ms / frames,
        loop.sr.interpolate_ms / frames, loop.sr.colorize_ms / frames,
        loop.sr.refine_ms / frames};
    double attributed = 0.0;
    for (double ms : layers) attributed += ms;

    Outcome out = std::move(outcome_);
    out.add("client.frame_ms_p50", frame_p50, "ms");
    out.add("client.frame_ms_p90", percentile(loop.frame_ms, 90.0), "ms");
    out.add("stream.parse_ms", layers[0], "ms");
    out.add("stream.chunk_decode_ms", layers[1], "ms");
    out.add("codec.decode_ms", layers[2], "ms");
    out.add("sr.knn_ms", layers[3], "ms");
    out.add("sr.interpolate_ms", layers[4], "ms");
    out.add("sr.colorize_ms", layers[5], "ms");
    out.add("sr.refine_ms", layers[6], "ms");
    out.add("client.unattributed_ms", frame_p50 - attributed, "ms");
    out.add("spatial.octree_build_ms", probes.octree_build_ms, "ms");
    out.add("spatial.octree_query_ms", probes.octree_query_ms, "ms");
    out.add("spatial.points_scanned_per_query",
            queries > 0 ? scanned / queries : 0.0, "count");
    out.add("spatial.heap_pushes_per_query",
            queries > 0 ? pushes / queries : 0.0, "count");
    out.add("stream.wire_bytes_per_frame", loop.wire_bytes / frames, "bytes");
    out.add("sr.input_points", loop.input_points / frames, "count");
    out.add("sr.output_points", loop.output_points / frames, "count");
    out.add("platform.page_faults_per_op", faults / frames, "count");
    out.add("platform.pool_speedup",
            pooled_ms_ > 0 ? serial_ms_ / pooled_ms_ : 0.0, "ratio");
    out.add("obs.trace_overhead_pct",
            100.0 * (percentile(traced_loop.frame_ms, 50.0) / frame_p50 - 1.0),
            "%");
    return out;
  }

  struct Probes {
    double parse_ms = 0.0;
    double chunk_decode_ms = 0.0;
    double decode_ms = 0.0;
    double octree_build_ms = 0.0;
    double octree_query_ms = 0.0;
  };

  /// Times each layer's public entry point alone on every distinct response,
  /// per frame, and reports the median over requests (frames for decode).
  /// The octree rows split sr.knn_ms: they rebuild and query the index the
  /// pipeline builds, with the same k * dilation and pool; at ratio <= 1 the
  /// pipeline builds no index, so they stay 0.
  Probes run_probes() {
    std::vector<double> parse, chunk_decode, decode, build, query;
    const double frames = double(kFramesPerRequest);
    const bool knn = density_ < 1.0f;
    const std::size_t dk = lut_->spec().receptive_field *
                           std::size_t(std::max(1, interp_.dilation));
    TwoLayerOctree octree;
    NeighborBuffer neighbors;
    for (const std::vector<std::uint8_t>& bytes : responses_) {
      TraceSpan parse_span("bench/stream.parse");
      FrameParser parser;
      parser.feed(bytes);
      const std::optional<Message> message = parser.next();
      parse.push_back(parse_span.stop_ms() / frames);
      if (!message) throw std::runtime_error("probe: response did not parse");

      TraceSpan chunk_span("bench/stream.chunk_decode");
      const EncodedChunk chunk = decode_chunk_response(*message);
      chunk_decode.push_back(chunk_span.stop_ms() / frames);

      for (const EncodedFrame& frame : chunk.frames) {
        TraceSpan decode_span("bench/codec.decode");
        const PointCloud cloud = decode_frame(frame);
        decode.push_back(decode_span.stop_ms());
        if (!knn) continue;
        TraceSpan build_span("bench/spatial.octree_build");
        octree.build(cloud.positions(), &pool_);
        build.push_back(build_span.stop_ms());
        TraceSpan query_span("bench/spatial.octree_query");
        octree.batch_knn(std::min(cloud.size() - 1, dk), neighbors, &pool_,
                         /*exact=*/false);
        query.push_back(query_span.stop_ms());
      }
    }
    return {percentile(parse, 50.0), percentile(chunk_decode, 50.0),
            percentile(decode, 50.0), percentile(build, 50.0),
            percentile(query, 50.0)};
  }

  const Options& options_;
  const float density_;
  ThreadPool& pool_;
  InterpolationConfig interp_;
  std::vector<std::vector<std::uint8_t>> responses_;
  std::string lut_path_;
  std::shared_ptr<const RefinementLut> lut_;
  std::vector<std::uint64_t> fingerprints_;
  std::size_t next_request_ = 0;
  double serial_ms_ = 0.0;
  double pooled_ms_ = 0.0;
  Outcome outcome_;
};

}  // namespace

Outcome run_client(const Options& options, float density, ThreadPool& pool) {
  return ClientRun(options, density, pool).run();
}

}  // namespace volut::e2e
