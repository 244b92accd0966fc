#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace netpart {

namespace {
constexpr double kTwoPi = 6.283185307179586476925286766559;
}  // namespace

std::uint64_t Rng::next_u64() {
  state_ += 0x9e3779b97f4a7c15ULL;
  return splitmix64_finalize(state_);
}

double Rng::next_double() {
  // 53 high bits -> uniform in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) {
  NP_REQUIRE(lo <= hi, "next_int requires lo <= hi");
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  // Multiply-shift rejection-free mapping; bias is < 2^-64 * range, which is
  // negligible for the ranges the simulator uses.
  const std::uint64_t v = next_u64();
  const unsigned __int128 m = static_cast<unsigned __int128>(v) * range;
  return lo + static_cast<std::int64_t>(m >> 64);
}

bool Rng::next_bool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::next_gaussian(double stddev) {
  // Box-Muller; discard the second variate to keep the state machine simple
  // and substream derivation cheap.
  double u1 = next_double();
  const double u2 = next_double();
  if (u1 <= 0.0) u1 = 0x1.0p-53;  // avoid log(0)
  return stddev * std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

double Rng::next_exponential(double mean) {
  NP_REQUIRE(mean > 0.0, "exponential mean must be positive");
  double u = next_double();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

Rng Rng::stream(std::uint64_t salt) const {
  // Mixing the current state with a salted constant yields substreams whose
  // sequences are indistinguishable from independent SplitMix64 generators.
  return Rng(splitmix64_finalize(state_ ^ (salt * 0x9e3779b97f4a7c15ULL) ^
                                 0xd1b54a32d192ed03ULL));
}

ZipfSampler::ZipfSampler(int k, double s) {
  NP_REQUIRE(k >= 1, "zipf needs at least one rank");
  cdf_.reserve(static_cast<std::size_t>(k));
  double total = 0.0;
  for (int i = 0; i < k; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

int ZipfSampler::draw(Rng& rng) const {
  const double u = rng.next_double();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(it - cdf_.begin());
}

}  // namespace netpart
