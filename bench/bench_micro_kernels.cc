// Micro-benchmarks (google-benchmark) for the hot kernels underlying the
// paper's headline numbers: per-point LUT lookup vs per-point neural
// inference (the §4.2 claim of >99.9% refinement-latency reduction), spatial
// queries, position encoding, float16 conversion, and the stage-2
// interpolation rewrite (thread scaling + steady-state allocation count),
// and the continuous MPC's per-chunk decision (§5).
//
// Run with `--json <path>` to also emit machine-readable results (see
// bench/common.h JsonReporter); CI uploads that file as a per-PR artifact.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "bench/common.h"
#include "src/abr/mpc.h"
#include "src/core/half.h"
#include "src/core/rng.h"
#include "src/nn/mlp.h"
#include "src/platform/thread_pool.h"
#include "src/spatial/kdtree.h"
#include "src/spatial/knn_simd.h"
#include "src/spatial/octree.h"
#include "src/sr/lut_builder.h"
#include "src/sr/pipeline.h"
#include "src/sr/position_encoding.h"
#include "src/sr/refine_net.h"
#include "src/stream/endpoint.h"
#include "src/stream/protocol.h"

// ---------------------------------------------------------------------------
// Process-wide allocation counter. Replacing the global operators lets the
// steady-state benchmarks assert "zero heap allocations in the neighbor
// path" as a measured fact rather than a code-review claim.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

// Set alongside every state.SkipWithError call so main() can exit nonzero.
// Tracked here rather than via the reporter's Run fields because the error
// API differs across google-benchmark versions (error_occurred was replaced
// by the skipped enum in 1.8).
std::atomic<bool> g_bench_error{false};

void fail_benchmark(benchmark::State& state, const char* message) {
  g_bench_error.store(true, std::memory_order_relaxed);
  state.SkipWithError(message);
}

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size ? size : 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace volut {
namespace {

std::vector<Vec3f> random_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3f> pts(n);
  for (Vec3f& p : pts) {
    p = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  return pts;
}

void BM_HalfRoundTrip(benchmark::State& state) {
  float v = 0.12345f;
  for (auto _ : state) {
    v = half_to_float(float_to_half(v)) + 1e-7f;
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_HalfRoundTrip);

void BM_KdTreeKnn(benchmark::State& state) {
  const auto pts = random_points(std::size_t(state.range(0)), 1);
  KdTree tree(pts);
  Rng rng(2);
  for (auto _ : state) {
    const Vec3f q{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    benchmark::DoNotOptimize(tree.knn(q, 4));
  }
}
BENCHMARK(BM_KdTreeKnn)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_OctreeKnn(benchmark::State& state) {
  const auto pts = random_points(std::size_t(state.range(0)), 1);
  TwoLayerOctree octree(pts);
  Rng rng(2);
  for (auto _ : state) {
    const Vec3f q{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    benchmark::DoNotOptimize(octree.knn(q, 4));
  }
}
BENCHMARK(BM_OctreeKnn)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PositionEncoding(benchmark::State& state) {
  const auto pts = random_points(64, 3);
  const std::vector<Neighbor> nbrs = {{1, 0.1f}, {2, 0.2f}, {3, 0.3f}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        encode_neighborhood(pts[0], nbrs, pts, 4, 128));
  }
}
BENCHMARK(BM_PositionEncoding);

struct LutFixtureState {
  RefinementLut lut{LutSpec{4, 32}};
  EncodedNeighborhood enc;
  LutFixtureState() {
    const auto pts = random_points(8, 4);
    const std::vector<Neighbor> nbrs = {{1, 0.1f}, {2, 0.2f}, {3, 0.3f}};
    enc = encode_neighborhood(pts[0], nbrs, pts, 4, 32);
  }
};

void BM_LutRefineLookup(benchmark::State& state) {
  static LutFixtureState fixture;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.lut.lookup(fixture.enc));
  }
}
BENCHMARK(BM_LutRefineLookup);

void BM_NeuralRefineInference(benchmark::State& state) {
  RefineNetConfig cfg;
  cfg.receptive_field = 4;
  cfg.hidden = {32, 32};
  const RefineNet net(cfg);
  const std::vector<float> coords = {0.0f, 0.2f, -0.4f, 0.7f};
  for (auto _ : state) {
    for (int a = 0; a < 3; ++a) {
      benchmark::DoNotOptimize(net.predict(a, coords));
    }
  }
}
BENCHMARK(BM_NeuralRefineInference);

std::uint64_t cloud_hash(const PointCloud& pc) {
  std::uint64_t h =
      bench::fnv1a(pc.positions().data(), pc.size() * sizeof(Vec3f));
  return bench::fnv1a(pc.colors().data(), pc.size() * sizeof(Color), h);
}

// Thread-scaling of the full SR anchor loop (kNN -> interpolation ->
// colorization -> LUT refinement). Every parallel stage writes disjoint
// output slots, so the result must hash identically at every worker count;
// a mismatch fails the benchmark via SkipWithError.
struct SrScalingFixture {
  PointCloud low;
  std::shared_ptr<const RefinementLut> lut;
  InterpolationConfig interp;
  std::uint64_t reference_hash = 0;

  SrScalingFixture() {
    const double scale = bench::bench_scale();
    const SyntheticVideo video(VideoSpec::dress(scale));
    Rng rng(7);
    low = video.frame(0).random_downsample(0.5f, rng);
    lut = bench::train_assets(scale).lut;
    interp.k = 4;
    interp.dilation = 2;
    const SrPipeline serial(lut, interp, /*pool=*/nullptr);
    reference_hash = cloud_hash(serial.upsample(low, 2.0).cloud);
  }
};

void BM_SrPipelineThreads(benchmark::State& state) {
  static SrScalingFixture fixture;
  const auto threads = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(threads);
  const SrPipeline pipeline(fixture.lut, fixture.interp,
                            threads > 1 ? &pool : nullptr);
  std::uint64_t hash = fixture.reference_hash;
  for (auto _ : state) {
    const SrResult r = pipeline.upsample(fixture.low, 2.0);
    hash = cloud_hash(r.cloud);
    benchmark::DoNotOptimize(hash);
  }
  if (hash != fixture.reference_hash) {
    fail_benchmark(state, "multi-thread SR output differs from single-thread");
  }
  state.counters["identical"] = hash == fixture.reference_hash ? 1 : 0;
  state.counters["input_points"] = static_cast<double>(fixture.low.size());
}
BENCHMARK(BM_SrPipelineThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Thread-scaling of the batched kd-tree kNN kernel alone (the stage-1
// baseline path of the interpolator).
void BM_BatchKnnThreads(benchmark::State& state) {
  const auto pts = random_points(20000, 11);
  const KdTree tree(pts);
  const auto threads = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(batch_knn_kdtree(
        tree, pts, 8, threads > 1 ? &pool : nullptr, /*exclude_self=*/true));
  }
}
BENCHMARK(BM_BatchKnnThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// SIMD leaf-scan trajectory: the batched kd-tree kNN kernel at every
// dispatch level x worker count. Each run is identity-gated against the
// scalar oracle (same indices, distances and tie order), so this doubles as
// the bit-exactness check CI tracks alongside the timings.
std::uint64_t neighbor_buffer_hash(const NeighborBuffer& buf) {
  // Hash the fields, not the raw structs: Neighbor carries tail padding
  // whose bytes are unspecified.
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    for (const Neighbor& n : buf[i]) {
      h = bench::fnv1a(&n.index, sizeof(n.index), h);
      h = bench::fnv1a(&n.dist2, sizeof(n.dist2), h);
    }
  }
  return h;
}

struct BatchKnnSimdFixture {
  std::vector<Vec3f> pts = random_points(20000, 11);
  KdTree tree;
  TwoLayerOctree octree;
  std::uint64_t scalar_hash = 0;
  std::uint64_t own_cell_scalar_hash = 0;
  BatchKnnSimdFixture() {
    tree.build(pts);
    octree.build(pts);
    simd_force_level(SimdLevel::kScalar);
    scalar_hash = neighbor_buffer_hash(
        batch_knn_kdtree(tree, pts, 8, nullptr, /*exclude_self=*/true));
    own_cell_scalar_hash =
        neighbor_buffer_hash(octree.batch_knn(8, nullptr, /*exact=*/false));
    simd_clear_forced_level();
  }
};

/// k = 8 over the fixture, either through the kd-tree baseline (one query
/// per point, each from the root) or through the own-cell octree search SR
/// runs (leaf-order self-queries, the AVX2 level through the top-8 kernel).
void run_batch_knn_simd(benchmark::State& state, bool own_cell) {
  static BatchKnnSimdFixture fixture;
  const auto level = static_cast<volut::SimdLevel>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  if (!simd_force_level(level)) {
    fail_benchmark(state, "requested SIMD level unavailable on this host");
    return;
  }
  ThreadPool pool(threads);
  ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
  NeighborBuffer out;
  for (auto _ : state) {
    if (own_cell) {
      fixture.octree.batch_knn(8, out, pool_ptr, /*exact=*/false);
    } else {
      batch_knn_kdtree(fixture.tree, fixture.pts, 8, out, pool_ptr,
                       /*exclude_self=*/true);
    }
    benchmark::DoNotOptimize(out);
  }
  // Identity gate outside the timed loop (hashing 160k slots would swamp
  // the level-to-level deltas): batch_knn overwrites every slot, so the
  // final state is the per-iteration state.
  const std::uint64_t hash = neighbor_buffer_hash(out);
  const std::uint64_t want =
      own_cell ? fixture.own_cell_scalar_hash : fixture.scalar_hash;
  simd_clear_forced_level();
  if (hash != want) {
    fail_benchmark(state, "SIMD batch kNN differs from the scalar oracle");
  }
  state.counters["identical"] = hash == want ? 1 : 0;
  state.counters["queries"] = static_cast<double>(fixture.pts.size());
  state.SetLabel(simd_level_name(level));
}

void BM_BatchKnnSimd(benchmark::State& state) {
  run_batch_knn_simd(state, /*own_cell=*/false);
}

void BatchKnnSimdArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"simd", "threads"});
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    if (!simd_available(level)) continue;  // skip levels this host lacks
    for (const int threads : {1, 2, 4, 8}) {
      b->Args({static_cast<long>(level), threads});
    }
  }
}
BENCHMARK(BM_BatchKnnSimd)
    ->Apply(BatchKnnSimdArgs)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The own-cell case is registered as BM_BatchKnnSimd/own_cell/..., so the
// kd-tree rows keep the names their committed baselines use.
[[maybe_unused]] const benchmark::internal::Benchmark* const
    kBatchKnnSimdOwnCell =
        benchmark::RegisterBenchmark("BM_BatchKnnSimd/own_cell",
                                     [](benchmark::State& state) {
                                       run_batch_knn_simd(state,
                                                          /*own_cell=*/true);
                                     })
            ->Apply(BatchKnnSimdArgs)
            ->Unit(benchmark::kMillisecond)
            ->UseRealTime();

void BM_MergeAndPrune(benchmark::State& state) {
  const auto pts = random_points(1000, 5);
  KdTree tree(pts);
  const auto a = tree.knn(pts[10], 8);
  const auto b = tree.knn(pts[20], 8);
  const Vec3f mid = midpoint(pts[10], pts[20]);
  std::array<Neighbor, 8> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(merge_and_prune_into(a, b, mid, pts, 4, out));
  }
}
BENCHMARK(BM_MergeAndPrune);

std::uint64_t interp_fingerprint(const InterpolationResult& r) {
  std::uint64_t h =
      bench::fnv1a(r.cloud.positions().data(), r.cloud.size() * sizeof(Vec3f));
  h = bench::fnv1a(r.cloud.colors().data(), r.cloud.size() * sizeof(Color), h);
  return bench::fnv1a(
      r.parents.data(),
      r.parents.size() * sizeof(std::array<std::uint32_t, 2>), h);
}

struct InterpFixture {
  PointCloud cloud;
  InterpolationConfig cfg;
  std::uint64_t reference = 0;
  InterpFixture() {
    const SyntheticVideo video(
        VideoSpec::dress(bench::bench_scale(/*fallback=*/0.2)));
    Rng rng(31);
    cloud = video.frame(0).random_downsample(0.5f, rng);
    cfg.k = 4;
    cfg.dilation = 2;
    reference = interp_fingerprint(interpolate(cloud, 2.0, cfg));
  }
};

// Thread scaling of interpolate() alone — the counter-based stage-2 schedule
// makes the previously serial midpoint stage parallel, so interp_ms must
// both shrink with workers (on multicore hosts) and hash identically at
// every worker count.
void BM_InterpolateThreads(benchmark::State& state) {
  static InterpFixture fixture;
  const auto threads = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(threads);
  ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
  InterpolationScratch scratch;
  InterpolationResult result;
  std::uint64_t hash = fixture.reference;
  double interp_ms = 0.0, knn_ms = 0.0;
  for (auto _ : state) {
    interpolate_into(fixture.cloud, 2.0, fixture.cfg, result, pool_ptr,
                     &scratch);
    interp_ms += result.timing.interpolate_ms;
    knn_ms += result.timing.knn_ms;
    hash = interp_fingerprint(result);
    benchmark::DoNotOptimize(hash);
  }
  if (hash != fixture.reference) {
    fail_benchmark(state,
                   "multi-thread interpolate differs from single-thread");
  }
  state.counters["identical"] = hash == fixture.reference ? 1 : 0;
  state.counters["input_points"] = static_cast<double>(fixture.cloud.size());
  // Stage times are means over every iteration, not the last one.
  const double iters = double(state.iterations());
  state.counters["interp_ms"] = interp_ms / iters;
  state.counters["knn_ms"] = knn_ms / iters;
}
BENCHMARK(BM_InterpolateThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Steady-state allocation count of the full interpolate() frame loop on a
// reused scratch + result (serial: the pool's task dispatch is outside the
// neighbor path). After the warm-up frame sizes every arena, subsequent
// frames must not touch the heap at all — the acceptance bar for the flat
// NeighborBuffer layout.
void BM_InterpolateSteadyStateAllocs(benchmark::State& state) {
  static InterpFixture fixture;
  InterpolationScratch scratch;
  InterpolationResult result;
  interpolate_into(fixture.cloud, 2.0, fixture.cfg, result, nullptr,
                   &scratch);  // warm-up frame grows all buffers
  std::uint64_t allocs = 0;
  std::uint64_t frames = 0;
  for (auto _ : state) {
    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    interpolate_into(fixture.cloud, 2.0, fixture.cfg, result, nullptr,
                     &scratch);
    allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
    ++frames;
  }
  if (allocs != 0) {
    fail_benchmark(state, "steady-state interpolate allocated on the heap");
  }
  state.counters["allocs_per_frame"] =
      frames > 0 ? double(allocs) / double(frames) : 0.0;
  state.counters["arena_bytes"] =
      static_cast<double>(scratch.dilated.arena_capacity_bytes());
}
BENCHMARK(BM_InterpolateSteadyStateAllocs)->Unit(benchmark::kMillisecond);

/// Answers every request with one pre-framed chunk response, without
/// parsing the request, so the transport adds no allocation of its own.
class ReplayTransport : public Transport {
 public:
  explicit ReplayTransport(std::vector<std::uint8_t> response)
      : response_(std::move(response)) {}
  void send(const std::vector<std::uint8_t>& /*request*/) override {
    if (sink_) sink_(response_);
  }
  void set_receive_sink(Sink sink) override { sink_ = std::move(sink); }

 private:
  std::vector<std::uint8_t> response_;
  Sink sink_;
};

// Steady-state allocation count of the client wire path: fetch_chunk_into
// on a reused ClientChunk, serial pipeline, one two-frame Dress response at
// density range(0) / 100. After the warm-up request sizes the parser
// buffer, the message body, the frame views and every cloud, a request must
// not touch the heap: the bytes are copied once into the parser, frames
// decode from the body in place and SR runs in the chunk's own clouds.
void BM_FetchChunkSteadyStateAllocs(benchmark::State& state) {
  const float density = float(state.range(0)) / 100.0f;
  const SyntheticVideo video(
      VideoSpec::dress(bench::bench_scale(/*fallback=*/0.2)));
  Rng rng(17);
  EncodedChunk chunk;
  chunk.header.frame_count = 2;
  chunk.header.density_ratio = density;
  chunk.header.sr_ratio = 1.0f / density;
  for (std::size_t f = 0; f < chunk.header.frame_count; ++f) {
    const PointCloud full = video.frame(f);
    chunk.frames.push_back(encode_frame(
        density < 1.0f ? full.random_downsample(density, rng) : full));
  }
  ReplayTransport transport(frame_message(encode_chunk_response(chunk)));
  InterpolationConfig interp;
  interp.dilation = 2;
  VolutClient client(&transport,
                     std::make_shared<const RefinementLut>(LutSpec{4, 32}),
                     interp);
  ClientChunk out;
  client.fetch_chunk_into(0, 0, density, out);  // warm-up request
  std::uint64_t allocs = 0;
  std::uint64_t requests = 0;
  for (auto _ : state) {
    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    client.fetch_chunk_into(0, 0, density, out);
    allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
    ++requests;
  }
  if (allocs != 0) {
    fail_benchmark(state,
                   "steady-state fetch_chunk_into allocated on the heap");
  }
  state.counters["allocs_per_request"] =
      requests > 0 ? double(allocs) / double(requests) : 0.0;
  state.counters["wire_bytes"] = static_cast<double>(out.wire_bytes);
}
BENCHMARK(BM_FetchChunkSteadyStateAllocs)
    ->Arg(50)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

// Per-decision cost of ContinuousMpcAbr::decide on its default QoE model
// and 201-point grid, over 256 seeded fleet-like contexts (2 MB full
// chunks, 2-40 Mbps, any buffer and previous ratio). Before timing, each
// decision is checked against a first-max full scan of the same grid
// through evaluate_horizon; with switch_margin 0 and max_step 1 only the
// argmax and the hysteresis compare shape the decision.
void BM_ContinuousMpcDecide(benchmark::State& state) {
  constexpr double kMinRatio = 0.05;
  constexpr int kSteps = 200;
  const QoeConfig qoe;
  ContinuousMpcAbr abr(qoe, kMinRatio, kSteps, /*switch_margin=*/0.0,
                       /*max_step=*/1.0);
  CounterRng rng(0x3D7C);
  const auto draw = [&rng](double lo, double hi) {
    return lo + (hi - lo) * double(rng.next_u64() >> 11) * 0x1.0p-53;
  };
  std::vector<AbrContext> contexts(256);
  for (AbrContext& ctx : contexts) {
    ctx.throughput_mbps = draw(2.0, 40.0);
    ctx.buffer_seconds = draw(0.0, ctx.max_buffer_seconds);
    ctx.prev_density_ratio = draw(kMinRatio, 1.0);
    ctx.full_chunk_bytes = 2e6;
    ctx.sr_seconds_per_chunk_full = draw(0.0, 0.2);
  }
  for (const AbrContext& ctx : contexts) {
    double best_ratio = kMinRatio;
    double best_value = -1e18;
    for (int s = 0; s <= kSteps; ++s) {
      const double ratio =
          kMinRatio + (1.0 - kMinRatio) * double(s) / double(kSteps);
      const double value = evaluate_horizon(ratio, ctx, qoe, true);
      if (value > best_value) {
        best_value = value;
        best_ratio = ratio;
      }
    }
    const double prev = std::clamp(ctx.prev_density_ratio, kMinRatio, 1.0);
    if (evaluate_horizon(prev, ctx, qoe, true) >= best_value) {
      best_ratio = prev;
    }
    if (abr.decide(ctx).density_ratio != best_ratio) {
      fail_benchmark(state, "decide() differs from the full grid scan");
      return;
    }
  }
  for (auto _ : state) {
    for (const AbrContext& ctx : contexts) {
      benchmark::DoNotOptimize(abr.decide(ctx));
    }
  }
  state.counters["s_per_decision"] = benchmark::Counter(
      double(contexts.size()), benchmark::Counter::kIsIterationInvariantRate |
                                   benchmark::Counter::kInvert);
}
BENCHMARK(BM_ContinuousMpcDecide)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace volut

namespace {

// Forwards the normal console output and mirrors every per-iteration result
// (plus its user counters) into the shared JsonReporter. Errored runs are
// recorded too (their `identical`/`allocs_per_frame` counters are the
// evidence); the process exit code comes from g_bench_error instead of the
// reporter, because Run's error fields changed across benchmark versions.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(volut::bench::JsonReporter* json)
      : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      const std::string name = run.benchmark_name();
      json_->add(name, run.GetAdjustedRealTime(),
                 benchmark::GetTimeUnitString(run.time_unit));
      for (const auto& [counter, value] : run.counters) {
        json_->add(name + "/" + counter, value.value, "counter");
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  volut::bench::JsonReporter* json_;
};

}  // namespace

int main(int argc, char** argv) {
  volut::bench::ObsDump obs = volut::bench::ObsDump::from_args(argc, argv);
  volut::bench::JsonReporter json =
      volut::bench::JsonReporter::from_args(argc, argv, "bench_micro_kernels");
  // SIMD dispatch metadata: which level the cpuid probe found and which one
  // this process actually runs (after the VOLUT_SIMD env clamp) — so a JSON
  // artifact is self-describing about the kernel behind its kNN numbers.
  json.add(std::string("meta/simd_detected/") +
               volut::simd_level_name(volut::simd_detected_level()),
           static_cast<double>(static_cast<int>(volut::simd_detected_level())),
           "level");
  json.add(std::string("meta/simd_active/") +
               volut::simd_level_name(volut::simd_active_level()),
           static_cast<double>(static_cast<int>(volut::simd_active_level())),
           "level");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json.write()) return 1;
  if (g_bench_error.load(std::memory_order_relaxed)) {
    std::fprintf(stderr, "bench_micro_kernels: a benchmark reported an "
                         "error (see SkipWithError output above)\n");
    return 1;
  }
  return 0;
}
