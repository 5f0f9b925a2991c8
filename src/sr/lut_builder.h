// Offline LUT construction (§4.2.1, "LUT Construction and Usage").
//
// distill_lut evaluates the trained refinement network on every reachable
// quantized neighborhood configuration (Eq. 6:
// LUT[quantize(q1..qn)] = NN(q1..qn)). Because the target point is always
// first in the index and normalizes to the origin (Eq. 3), only the
// center-bin slice of each axis table is reachable at runtime; the builder
// enumerates exactly the b^(n-1) reachable entries per axis.
#pragma once

#include <cstdint>

#include "src/sr/lut.h"
#include "src/sr/refine_net.h"

namespace volut {

class ThreadPool;

/// Distills `net` into a LUT with the given spec. The net's receptive field
/// must equal spec.receptive_field. The b^(n-1) reachable entries per axis
/// are independent, so they distill as chunked batches on `pool` (serial
/// when null); the table is bit-identical at any worker count.
RefinementLut distill_lut(const RefineNet& net, const LutSpec& spec,
                          ThreadPool* pool = nullptr);

}  // namespace volut
