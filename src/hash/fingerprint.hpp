// Fingerprint: fixed-width digest identifying a chunk's content.
//
// The paper uses SHA1 (160 bits) as the default fingerprint, so Fingerprint
// is sized for the largest supported digest; shorter hashes (FNV/XX64/CRC)
// zero-pad.  Fingerprints are ordered and hashable so they can key ordered
// and unordered containers, and they serialize as raw bytes.  The order is
// byte-lexicographic, computed as the numeric order of three big-endian
// words (DESIGN.md §9.2).
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>

namespace collrep::hash {

namespace detail {

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "big-endian loads assume a little- or big-endian host");

[[nodiscard]] inline std::uint64_t load_be64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
}

[[nodiscard]] inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  return v;
}

inline void store_be64(std::uint8_t* p, std::uint64_t v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, sizeof v);
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(p, &v, sizeof v);
}

}  // namespace detail

class Fingerprint {
 public:
  static constexpr std::size_t kBytes = 20;  // SHA-1 digest width

  constexpr Fingerprint() noexcept : bytes_{} {}

  explicit Fingerprint(std::span<const std::uint8_t> digest) noexcept : bytes_{} {
    const std::size_t n = digest.size() < kBytes ? digest.size() : kBytes;
    for (std::size_t i = 0; i < n; ++i) bytes_[i] = digest[i];
  }

  // Builds a fingerprint from a 64-bit hash value (FNV, XX64, CRC paths).
  static Fingerprint from_u64(std::uint64_t value) noexcept {
    Fingerprint fp;
    for (std::size_t i = 0; i < 8; ++i) {
      fp.bytes_[i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
    return fp;
  }

  [[nodiscard]] std::span<const std::uint8_t, kBytes> bytes() const noexcept {
    return std::span<const std::uint8_t, kBytes>{bytes_};
  }
  [[nodiscard]] std::span<std::uint8_t, kBytes> bytes() noexcept {
    return std::span<std::uint8_t, kBytes>{bytes_};
  }

  // First 8 bytes as little-endian u64; used for cheap bucketing/sampling.
  [[nodiscard]] std::uint64_t prefix64() const noexcept {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes_.data(), sizeof v);
    return v;
  }

  [[nodiscard]] std::string hex() const {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    out.reserve(2 * kBytes);
    for (std::uint8_t b : bytes_) {
      out.push_back(kDigits[b >> 4]);
      out.push_back(kDigits[b & 0xF]);
    }
    return out;
  }

  // 20 bytes read as one big-endian 160-bit integer: two u64 limbs and a
  // u32, most significant first.  The limbs' numeric order is the bytes'
  // lexicographic order.
  struct Limbs {
    std::uint64_t w0 = 0;
    std::uint64_t w1 = 0;
    std::uint32_t w2 = 0;
  };
  [[nodiscard]] static Limbs load_limbs(const std::uint8_t* p) noexcept {
    return {detail::load_be64(p), detail::load_be64(p + 8),
            detail::load_be32(p + 16)};
  }
  static void store_limbs(std::uint8_t* p, const Limbs& l) noexcept {
    detail::store_be64(p, l.w0);
    detail::store_be64(p + 8, l.w1);
    detail::store_be32(p + 16, l.w2);
  }
  [[nodiscard]] Limbs limbs() const noexcept {
    return load_limbs(bytes_.data());
  }

  // Byte-lexicographic order, three word compares instead of 20 byte ones.
  friend std::strong_ordering operator<=>(const Fingerprint& a,
                                          const Fingerprint& b) noexcept {
    const std::uint8_t* x = a.bytes_.data();
    const std::uint8_t* y = b.bytes_.data();
    if (const auto x0 = detail::load_be64(x), y0 = detail::load_be64(y);
        x0 != y0) {
      return x0 <=> y0;
    }
    if (const auto x1 = detail::load_be64(x + 8), y1 = detail::load_be64(y + 8);
        x1 != y1) {
      return x1 <=> y1;
    }
    return detail::load_be32(x + 16) <=> detail::load_be32(y + 16);
  }
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;

 private:
  std::array<std::uint8_t, kBytes> bytes_;
};

struct FingerprintHash {
  std::size_t operator()(const Fingerprint& fp) const noexcept {
    // The digest bytes are already uniformly distributed; fold the prefix.
    return static_cast<std::size_t>(fp.prefix64());
  }
};

}  // namespace collrep::hash

template <>
struct std::hash<collrep::hash::Fingerprint> {
  std::size_t operator()(const collrep::hash::Fingerprint& fp) const noexcept {
    return collrep::hash::FingerprintHash{}(fp);
  }
};
