// Endian/width-stable hashing (64-bit FNV-1a).
//
// Cache keys for partition decisions must be reproducible across platforms:
// the same request on a big-endian 32-bit box and a little-endian 64-bit box
// must hash identically, or a shared decision store would silently never
// hit.  Every ingest method therefore serialises its input to an explicit
// little-endian byte sequence of fixed width before feeding the FNV-1a
// state; std::hash (implementation-defined) is never used.  Strings and
// vectors are length-prefixed so adjacent fields cannot collide by
// concatenation ("ab"+"c" vs "a"+"bc").
#pragma once

#include <cstdint>
#include <string_view>

namespace netpart {

/// Incremental 64-bit FNV-1a hasher.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 14695981039346656037ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  /// Feed raw bytes.
  Fnv1a& bytes(const void* data, std::size_t len);

  /// Fixed-width integers, serialised little-endian.
  Fnv1a& u8(std::uint8_t v);
  Fnv1a& u32(std::uint32_t v);
  Fnv1a& u64(std::uint64_t v);
  Fnv1a& i32(std::int32_t v);
  Fnv1a& i64(std::int64_t v);

  /// IEEE-754 bit pattern, with -0.0 canonicalised to +0.0 and every NaN
  /// to one quiet NaN so equal-comparing values hash equally.
  Fnv1a& f64(double v);

  /// Length-prefixed string.
  Fnv1a& str(std::string_view s);

  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = kOffsetBasis;
};

}  // namespace netpart
