#include "util/hash.hpp"

#include <bit>
#include <cmath>
#include <limits>

namespace netpart {

Fnv1a& Fnv1a::bytes(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    state_ ^= static_cast<std::uint64_t>(p[i]);
    state_ *= kPrime;
  }
  return *this;
}

Fnv1a& Fnv1a::u8(std::uint8_t v) { return bytes(&v, 1); }

Fnv1a& Fnv1a::u32(std::uint32_t v) {
  unsigned char le[4];
  for (int i = 0; i < 4; ++i) {
    le[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
  }
  return bytes(le, sizeof(le));
}

Fnv1a& Fnv1a::u64(std::uint64_t v) {
  unsigned char le[8];
  for (int i = 0; i < 8; ++i) {
    le[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
  }
  return bytes(le, sizeof(le));
}

Fnv1a& Fnv1a::i32(std::int32_t v) {
  return u32(static_cast<std::uint32_t>(v));
}

Fnv1a& Fnv1a::i64(std::int64_t v) {
  return u64(static_cast<std::uint64_t>(v));
}

Fnv1a& Fnv1a::f64(double v) {
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  if (v == 0.0) v = 0.0;  // -0.0 == 0.0, canonicalise the bit pattern
  return u64(std::bit_cast<std::uint64_t>(v));
}

Fnv1a& Fnv1a::str(std::string_view s) {
  u64(static_cast<std::uint64_t>(s.size()));
  return bytes(s.data(), s.size());
}

}  // namespace netpart
