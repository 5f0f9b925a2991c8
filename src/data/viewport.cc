#include "src/data/viewport.h"

#include <cmath>

namespace volut {

bool Frustum::contains(const Vec3f& p) const {
  const Vec3f c = pose.world_to_camera(p);
  if (c.z < near_plane || c.z > far_plane) return false;
  const float half_h = std::tan(vertical_fov_rad * 0.5f) * c.z;
  const float half_w = half_h * aspect;
  return std::abs(c.x) <= half_w && std::abs(c.y) <= half_h;
}

double visible_fraction(const PointCloud& cloud, const Frustum& frustum) {
  if (cloud.empty()) return 0.0;
  std::size_t visible = 0;
  for (const Vec3f& p : cloud.positions()) {
    if (frustum.contains(p)) ++visible;
  }
  return double(visible) / double(cloud.size());
}

}  // namespace volut
