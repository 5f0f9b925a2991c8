// Minimal NPY (NumPy array format v1.0) reader/writer.
//
// §6: "Our Look Up Table is generated using c++ code and stored as an npy
// file which is language- and platform-neutral." We support the two dtypes
// VoLUT needs: '<f2' (float16 LUT offsets) and '<f4'.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/core/half.h"

namespace volut {

struct NpyArray {
  /// Shape of the stored array (C order).
  std::vector<std::size_t> shape;
  /// dtype descriptor, e.g. "<f2" or "<f4".
  std::string dtype;
  /// Raw little-endian payload.
  std::vector<std::uint8_t> data;

  /// Product of the shape (0 for an empty shape). Throws
  /// std::runtime_error when the running product overflows std::size_t.
  std::size_t element_count() const;
};

/// Serializes `array` in NPY v1.0 format. Throws std::runtime_error on I/O
/// failure.
void npy_save(std::ostream& os, const NpyArray& array);
void npy_save_file(const std::string& path, const NpyArray& array);

/// Parses an NPY v1.0/2.0 stream. Throws std::runtime_error on malformed
/// input or unsupported dtype (only little-endian scalar dtypes pass). `is`
/// must be seekable: header and payload lengths are checked against the
/// bytes left in it before anything is allocated.
NpyArray npy_load(std::istream& is);
NpyArray npy_load_file(const std::string& path);

/// Convenience: wraps a float16 buffer.
NpyArray npy_from_half(const std::vector<half_t>& values,
                       std::vector<std::size_t> shape);
/// Convenience: reinterprets a '<f2' array as float16 values.
std::vector<half_t> npy_to_half(const NpyArray& array);

}  // namespace volut
