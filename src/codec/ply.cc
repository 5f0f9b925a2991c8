#include "src/codec/ply.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace volut {

bool save_ply(const std::string& path, const PointCloud& cloud) {
  std::ofstream os(path);
  if (!os) return false;
  os << "ply\nformat ascii 1.0\n";
  os << "element vertex " << cloud.size() << "\n";
  os << "property float x\nproperty float y\nproperty float z\n";
  os << "property uchar red\nproperty uchar green\nproperty uchar blue\n";
  os << "end_header\n";
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    const Vec3f& p = cloud.position(i);
    const Color& c = cloud.color(i);
    os << p.x << " " << p.y << " " << p.z << " " << int(c.r) << " "
       << int(c.g) << " " << int(c.b) << "\n";
  }
  return bool(os);
}

PointCloud load_ply(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_ply: cannot open " + path);
  std::string line;
  std::size_t vertex_count = 0;
  bool header_done = false;
  while (std::getline(is, line)) {
    if (line.rfind("element vertex", 0) == 0) {
      // Unsigned extraction would read "-1" as 2^64 - 1.
      std::istringstream count(line.substr(14));
      if ((count >> std::ws).peek() == '-' || !(count >> vertex_count)) {
        throw std::runtime_error("load_ply: bad vertex count: " + line);
      }
    } else if (line.rfind("format", 0) == 0 &&
               line.find("ascii") == std::string::npos) {
      throw std::runtime_error("load_ply: only ascii PLY supported");
    } else if (line == "end_header") {
      header_done = true;
      break;
    }
  }
  if (!header_done) throw std::runtime_error("load_ply: missing end_header");

  // A forged count must not reserve more than the file can hold: each
  // vertex line takes at least "0 0 0\n".
  std::error_code error;
  const std::uintmax_t file_bytes = std::filesystem::file_size(path, error);
  PointCloud cloud;
  if (!error) {
    cloud.reserve(std::min<std::uintmax_t>(vertex_count, file_bytes / 6));
  }
  for (std::size_t i = 0; i < vertex_count; ++i) {
    if (!std::getline(is, line)) {
      throw std::runtime_error("load_ply: truncated vertex list");
    }
    std::istringstream ss(line);
    Vec3f p;
    int r = 0, g = 0, b = 0;
    if (!(ss >> p.x >> p.y >> p.z)) {
      throw std::runtime_error("load_ply: malformed vertex line");
    }
    ss >> r >> g >> b;  // colors optional
    cloud.push_back(p, Color{std::uint8_t(r), std::uint8_t(g),
                             std::uint8_t(b)});
  }
  return cloud;
}

}  // namespace volut
