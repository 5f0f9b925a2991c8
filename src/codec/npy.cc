#include "src/codec/npy.h"

#include <charconv>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace volut {

namespace {

constexpr char kMagic[] = "\x93NUMPY";

std::string build_header(const NpyArray& array) {
  std::ostringstream shape;
  shape << "(";
  for (std::size_t i = 0; i < array.shape.size(); ++i) {
    shape << array.shape[i];
    if (i + 1 < array.shape.size() || array.shape.size() == 1) shape << ", ";
  }
  shape << ")";
  std::ostringstream h;
  h << "{'descr': '" << array.dtype << "', 'fortran_order': False, "
    << "'shape': " << shape.str() << ", }";
  std::string header = h.str();
  // Pad with spaces so that magic(6)+version(2)+len(2)+header is 64-aligned,
  // terminated by '\n' as the spec requires.
  const std::size_t base = 6 + 2 + 2;
  const std::size_t total = ((base + header.size() + 1 + 63) / 64) * 64;
  header.append(total - base - header.size() - 1, ' ');
  header.push_back('\n');
  return header;
}

std::size_t dtype_size(const std::string& dtype) {
  if (dtype == "<f2") return 2;
  if (dtype == "<f4") return 4;
  if (dtype == "<f8") return 8;
  if (dtype == "<i4") return 4;
  if (dtype == "<i8") return 8;
  if (dtype == "<u2") return 2;
  if (dtype == "|u1" || dtype == "<u1") return 1;
  throw std::runtime_error("npy: unsupported dtype " + dtype);
}

/// Extracts the value of a python-dict style key from the header text.
std::string header_field(const std::string& header, const std::string& key) {
  const std::size_t kpos = header.find("'" + key + "'");
  if (kpos == std::string::npos) {
    throw std::runtime_error("npy: header missing key " + key);
  }
  const std::size_t colon = header.find(':', kpos);
  const std::size_t begin = header.find_first_not_of(" ", colon + 1);
  if (colon == std::string::npos || begin == std::string::npos) {
    throw std::runtime_error("npy: header key " + key + " has no value");
  }
  std::size_t end;
  if (header[begin] == '\'') {
    end = header.find('\'', begin + 1);
    return header.substr(begin + 1, end - begin - 1);
  }
  if (header[begin] == '(') {
    end = header.find(')', begin);
    return header.substr(begin, end - begin + 1);
  }
  end = header.find_first_of(",}", begin);
  return header.substr(begin, end - begin);
}

/// One entry of the shape tuple, e.g. " 4" in "(3, 4)". Blank entries (the
/// trailing comma of a 1-tuple) return false; anything but a decimal that
/// fits std::size_t throws.
bool parse_dim(std::string_view token, std::size_t& dim) {
  const std::size_t first = token.find_first_not_of(' ');
  if (first == std::string_view::npos) return false;
  token.remove_prefix(first);
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), dim);
  if (ec != std::errc() ||
      token.find_first_not_of(' ', std::size_t(end - token.data())) !=
          std::string_view::npos) {
    throw std::runtime_error("npy: bad shape entry '" + std::string(token) +
                             "'");
  }
  return true;
}

/// Bytes between the read position of `is` and its end, so no length field
/// can make the reader allocate more than the stream holds.
std::size_t bytes_left(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(here);
  if (!is || here == std::istream::pos_type(-1) ||
      end == std::istream::pos_type(-1)) {
    throw std::runtime_error("npy: stream is not seekable");
  }
  return std::size_t(end - here);
}

}  // namespace

void npy_save(std::ostream& os, const NpyArray& array) {
  const std::string header = build_header(array);
  os.write(kMagic, 6);
  os.put(1);  // major version
  os.put(0);  // minor version
  const auto len = static_cast<std::uint16_t>(header.size());
  os.put(static_cast<char>(len & 0xFF));
  os.put(static_cast<char>(len >> 8));
  os.write(header.data(), static_cast<std::streamsize>(header.size()));
  os.write(reinterpret_cast<const char*>(array.data.data()),
           static_cast<std::streamsize>(array.data.size()));
  if (!os) throw std::runtime_error("npy: write failed");
}

void npy_save_file(const std::string& path, const NpyArray& array) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("npy: cannot open " + path);
  npy_save(os, array);
}

NpyArray npy_load(std::istream& is) {
  char magic[6];
  is.read(magic, 6);
  if (!is || std::memcmp(magic, kMagic, 6) != 0) {
    throw std::runtime_error("npy: bad magic");
  }
  const int major = is.get();
  is.get();  // minor (ignored)
  std::size_t header_len;
  if (major == 1) {
    const int lo = is.get(), hi = is.get();
    header_len = std::size_t(lo) | (std::size_t(hi) << 8);
  } else {
    std::uint32_t len32 = 0;
    is.read(reinterpret_cast<char*>(&len32), 4);
    header_len = len32;
  }
  if (!is || header_len > bytes_left(is)) {
    throw std::runtime_error("npy: truncated header");
  }
  std::string header(header_len, '\0');
  is.read(header.data(), static_cast<std::streamsize>(header_len));
  if (!is) throw std::runtime_error("npy: truncated header");

  NpyArray array;
  array.dtype = header_field(header, "descr");
  if (header_field(header, "fortran_order") != "False") {
    throw std::runtime_error("npy: fortran order unsupported");
  }
  const std::string shape = header_field(header, "shape");
  std::size_t pos = 1;  // skip '('
  while (pos < shape.size()) {
    const std::size_t end = shape.find_first_of(",)", pos);
    std::size_t dim = 0;
    if (parse_dim(std::string_view(shape).substr(pos, end - pos), dim)) {
      array.shape.push_back(dim);
    }
    if (end == std::string::npos || shape[end] == ')') break;
    pos = end + 1;
  }

  const std::size_t item = dtype_size(array.dtype);
  const std::size_t count = array.element_count();
  if (count > bytes_left(is) / item) {
    throw std::runtime_error("npy: truncated payload");
  }
  array.data.resize(count * item);
  is.read(reinterpret_cast<char*>(array.data.data()),
          static_cast<std::streamsize>(array.data.size()));
  if (!is) throw std::runtime_error("npy: truncated payload");
  return array;
}

std::size_t NpyArray::element_count() const {
  std::size_t n = shape.empty() ? 0 : 1;
  for (const std::size_t dim : shape) {
    if (dim != 0 && n > std::numeric_limits<std::size_t>::max() / dim) {
      throw std::runtime_error("npy: array size overflows");
    }
    n *= dim;
  }
  return n;
}

NpyArray npy_load_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("npy: cannot open " + path);
  return npy_load(is);
}

NpyArray npy_from_half(const std::vector<half_t>& values,
                       std::vector<std::size_t> shape) {
  NpyArray array;
  array.dtype = "<f2";
  array.shape = std::move(shape);
  array.data.resize(values.size() * 2);
  std::memcpy(array.data.data(), values.data(), array.data.size());
  return array;
}

std::vector<half_t> npy_to_half(const NpyArray& array) {
  if (array.dtype != "<f2") {
    throw std::runtime_error("npy: expected <f2, got " + array.dtype);
  }
  std::vector<half_t> out(array.data.size() / 2);
  std::memcpy(out.data(), array.data.data(), array.data.size());
  return out;
}

}  // namespace volut
