// SHA-1 (RFC 3174).  Self-contained implementation used as the default
// crypto-grade fingerprint function, mirroring the paper's use of OpenSSL
// SHA1.  Supports both one-shot and streaming use.  The compression
// function dispatches through src/kernels (SHA-NI or block-pipelined
// scalar, COLLREP_KERNELS=scalar forces the reference rounds loop);
// digest_x16 hashes 16 equal-length messages side by side through the
// kernels' 16-lane slot.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace collrep::hash {

class Sha1 {
 public:
  static constexpr std::size_t kDigestBytes = 20;
  static constexpr std::size_t kBlockBytes = 64;

  Sha1() noexcept { reset(); }

  void reset() noexcept;
  void update(std::span<const std::uint8_t> data) noexcept;
  // Finalizes and writes the 20-byte digest; the object must be reset()
  // before reuse.
  void finish(std::span<std::uint8_t, kDigestBytes> digest) noexcept;

  static std::array<std::uint8_t, kDigestBytes> digest(
      std::span<const std::uint8_t> data) noexcept;

  // out[l] = digest of the `length` bytes at lanes[l], for all 16 lanes at
  // once.  Lanes may alias; each lane's padding block is built in its own
  // scratch buffer, so the inputs are only read.
  static constexpr std::size_t kLanes = 16;
  static void digest_x16(
      const std::uint8_t* const lanes[kLanes], std::size_t length,
      std::array<std::uint8_t, kDigestBytes> out[kLanes]) noexcept;

 private:
  std::array<std::uint32_t, 5> state_{};
  std::array<std::uint8_t, kBlockBytes> buffer_{};
  std::uint64_t total_bytes_ = 0;
  std::size_t buffered_ = 0;
};

}  // namespace collrep::hash
