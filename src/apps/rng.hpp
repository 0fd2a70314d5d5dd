// Deterministic splitmix64 stream used by the workload generators; fixed
// seeds make every experiment bit-reproducible across runs and hosts.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

namespace collrep::apps {

class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  // Uniform double in [0, 1).
  constexpr double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  // Each draw fills 8 bytes, least significant byte first.  A
  // little-endian host stores the whole word at once.
  void fill(std::span<std::uint8_t> out) noexcept {
    static_assert(std::endian::native == std::endian::little,
                  "fill stores words in little-endian byte order");
    std::size_t i = 0;
    for (; i + 8 <= out.size(); i += 8) {
      const std::uint64_t v = next();
      std::memcpy(out.data() + i, &v, sizeof v);
    }
    if (i < out.size()) {
      const std::uint64_t v = next();
      for (int b = 0; b < 8 && i < out.size(); ++b) {
        out[i++] = static_cast<std::uint8_t>(v >> (8 * b));
      }
    }
  }

 private:
  std::uint64_t state_;
};

// One-shot mix of several values into a stream seed.
constexpr std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b,
                                 std::uint64_t c = 0) noexcept {
  SplitMix64 s(a ^ (b * 0xD1B54A32D192ED03ull) ^
               (c * 0x94D049BB133111EBull));
  return s.next();
}

}  // namespace collrep::apps
