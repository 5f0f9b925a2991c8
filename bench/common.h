// Shared setup for the paper-reproduction benchmarks.
//
// Every bench binary reproduces one table or figure of the paper. Workloads
// default to a scaled-down point count so the whole suite runs in minutes;
// set VOLUT_BENCH_SCALE (0 < s <= 1, fraction of the paper's 100K
// points/frame) to raise fidelity, e.g. VOLUT_BENCH_SCALE=1.0 for paper
// scale.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/core/rng.h"
#include "src/data/synthetic_video.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sr/lut_builder.h"
#include "src/sr/pipeline.h"
#include "src/sr/refine_net.h"

namespace volut::bench {

inline double bench_scale(double fallback = 0.05) {
  if (const char* env = std::getenv("VOLUT_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0 && v <= 1.0) return v;
  }
  return fallback;
}

struct TrainedAssets {
  std::unique_ptr<RefineNet> net;
  std::shared_ptr<RefinementLut> lut;
};

/// Trains the refinement net on the Long Dress video only (§7.1: "training
/// it exclusively on the Long Dress video") and distills the LUT. `bins` is
/// reduced from the paper's 128 by default to keep the suite fast; pass 128
/// for the deployed configuration.
inline TrainedAssets train_assets(double scale, int bins = 32,
                                  std::size_t receptive_field = 4,
                                  ThreadPool* pool = nullptr) {
  TrainedAssets assets;
  RefineNetConfig cfg;
  cfg.receptive_field = receptive_field;
  cfg.hidden = {32, 32};
  cfg.epochs = 20;

  const SyntheticVideo dress(VideoSpec::dress(scale));
  Rng rng(1234);
  InterpolationConfig interp;
  interp.dilation = 2;
  TrainingSet data =
      build_training_set(dress.frame(0), 0.5, interp, cfg, rng, 20'000);
  for (std::size_t f = 1; f < 4; ++f) {
    TrainingSet more = build_training_set(dress.frame(f * 5), 0.5, interp,
                                          cfg, rng, 20'000);
    merge_training_sets(data, more);
  }
  assets.net = std::make_unique<RefineNet>(cfg);
  assets.net->train(data);
  assets.lut = std::make_shared<RefinementLut>(
      distill_lut(*assets.net, LutSpec{receptive_field, bins}, pool));
  return assets;
}

/// FNV-1a over raw bytes; the benches use it to fingerprint outputs for
/// bit-identity checks across thread counts.
inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                           std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Machine-readable results: every bench accepts `--json <path>` and, when
// given, writes a flat array of (name, value, unit) records alongside its
// human-readable tables. CI uploads these files as per-PR artifacts, so the
// repo accrues a perf trajectory instead of scrollback-only numbers.
// Schema:
//   {"schema": "volut-bench-v1", "benchmark": "<binary>",
//    "results": [{"name": ..., "value": ..., "unit": ...}, ...]}
// ---------------------------------------------------------------------------

class JsonReporter {
 public:
  /// Scans argv for `--json <path>` (or `--json=<path>`) and removes it so
  /// downstream argument parsers (e.g. google-benchmark) never see it.
  /// Returns a disabled reporter when the flag is absent.
  static JsonReporter from_args(int& argc, char** argv,
                                const std::string& benchmark_name) {
    std::string path;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json" && i + 1 < argc) {
        path = argv[++i];
      } else if (arg.rfind("--json=", 0) == 0) {
        path = arg.substr(7);
      } else {
        argv[out++] = argv[i];
      }
    }
    argc = out;
    return JsonReporter(benchmark_name, path);
  }

  bool enabled() const { return !path_.empty(); }

  void add(const std::string& name, double value, const std::string& unit) {
    if (enabled()) records_.push_back({name, value, unit});
  }

  /// Writes the collected records; returns false (and prints to stderr) if
  /// the file cannot be written. No-op when disabled.
  bool write() const {
    if (!enabled()) return true;
    std::ofstream out(path_);
    out << "{\n  \"schema\": \"volut-bench-v1\",\n  \"benchmark\": \""
        << escape(name_) << "\",\n  \"results\": [";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n");
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", records_[i].value);
      out << "    {\"name\": \"" << escape(records_[i].name)
          << "\", \"value\": " << value << ", \"unit\": \""
          << escape(records_[i].unit) << "\"}";
    }
    out << "\n  ]\n}\n";
    if (!out) {
      std::fprintf(stderr, "JsonReporter: cannot write %s\n", path_.c_str());
      return false;
    }
    std::printf("\nwrote %zu results to %s\n", records_.size(),
                path_.c_str());
    return true;
  }

 private:
  struct Record {
    std::string name;
    double value;
    std::string unit;
  };

  JsonReporter(std::string name, std::string path)
      : name_(std::move(name)), path_(std::move(path)) {}

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  std::string name_;
  std::string path_;
  std::vector<Record> records_;
};

// ---------------------------------------------------------------------------
// Observability dumps: every bench also accepts `--trace <path>` (Chrome
// trace-event JSON of the TraceSpans hit during the run, loadable in
// Perfetto / chrome://tracing) and `--metrics <path>` (MetricsRegistry
// snapshot, volut-metrics-v2 JSON). Both flags are stripped before
// downstream parsers see argv, mirroring JsonReporter.
// ---------------------------------------------------------------------------

class ObsDump {
 public:
  /// Scans argv for `--trace <path>` / `--metrics <path>` (and `=` forms)
  /// and removes them. Starts the global trace collector when a trace path
  /// is given, so spans from this point on are captured.
  static ObsDump from_args(int& argc, char** argv) {
    std::string trace_path;
    std::string metrics_path;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--trace" && i + 1 < argc) {
        trace_path = argv[++i];
      } else if (arg.rfind("--trace=", 0) == 0) {
        trace_path = arg.substr(8);
      } else if (arg == "--metrics" && i + 1 < argc) {
        metrics_path = argv[++i];
      } else if (arg.rfind("--metrics=", 0) == 0) {
        metrics_path = arg.substr(10);
      } else {
        argv[out++] = argv[i];
      }
    }
    argc = out;
    return ObsDump(std::move(trace_path), std::move(metrics_path));
  }

  ObsDump(ObsDump&& other) noexcept
      : trace_path_(std::move(other.trace_path_)),
        metrics_path_(std::move(other.metrics_path_)) {
    other.written_ = true;
  }
  ObsDump(const ObsDump&) = delete;
  ObsDump& operator=(const ObsDump&) = delete;
  ObsDump& operator=(ObsDump&&) = delete;

  ~ObsDump() { write(); }

  /// Stops the collector and writes whichever dumps were requested.
  /// Idempotent; called automatically at destruction.
  void write() {
    if (written_) return;
    written_ = true;
    if (!trace_path_.empty()) {
      TraceCollector::global().stop();
      TraceCollector::global().write_json(trace_path_);
    }
    if (!metrics_path_.empty()) {
      MetricsRegistry::global().write_json(metrics_path_);
    }
  }

 private:
  ObsDump(std::string trace_path, std::string metrics_path)
      : trace_path_(std::move(trace_path)),
        metrics_path_(std::move(metrics_path)) {
    if (!trace_path_.empty()) TraceCollector::global().start();
  }

  std::string trace_path_;
  std::string metrics_path_;
  bool written_ = false;
};

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_rule() {
  std::printf("----------------------------------------------------------------\n");
}

}  // namespace volut::bench
