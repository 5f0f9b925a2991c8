// Viewport / frustum utilities.
//
// Used by the ViVo-style baseline (visibility-aware streaming fetches only
// content inside the predicted viewport) and by evaluation code that needs
// per-view visible fractions.
#pragma once

#include <cstddef>

#include "src/core/point_cloud.h"
#include "src/core/pose.h"

namespace volut {

struct Frustum {
  Pose pose;
  float vertical_fov_rad = 1.0f;
  float aspect = 1.0f;  // width / height
  float near_plane = 0.01f;
  float far_plane = 100.0f;

  /// True when the world-space point is inside the view frustum.
  bool contains(const Vec3f& p) const;
};

/// Fraction of cloud points inside the frustum (0 for an empty cloud).
double visible_fraction(const PointCloud& cloud, const Frustum& frustum);

}  // namespace volut
