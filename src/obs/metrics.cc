#include "src/obs/metrics.h"

#include <cstdio>
#include <fstream>

namespace volut {

namespace {

std::string json_escape(std::string_view s) {
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

}  // namespace

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  MutexLock lk(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.try_emplace(std::string(name)).first->second;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  MutexLock lk(mu_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second.value() : 0;
}

void MetricsRegistry::reset() {
  MutexLock lk(mu_);
  for (auto& [name, c] : counters_) c.reset();
}

std::string MetricsRegistry::to_json() const {
  MutexLock lk(mu_);
  std::string out = "{\n  \"schema\": \"volut-metrics-v2\",\n";
  out += "  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) +
           "\": " + std::to_string(c.value());
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

bool MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << to_json();
  if (!out) {
    std::fprintf(stderr, "MetricsRegistry: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace volut
