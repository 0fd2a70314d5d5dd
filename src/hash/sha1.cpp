#include "hash/sha1.hpp"

#include <cstring>

#include "kernels/kernels.hpp"

namespace collrep::hash {

namespace {

constexpr std::array<std::uint32_t, 5> kInitialState = {
    0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};

// Pads a message's last partial block: `block` holds its final `used`
// bytes (used < 64), and this appends the 0x80 marker, the zero fill and
// the big-endian bit length of a `total_bytes` message.  Returns the
// number of 64-byte blocks written (2 when fewer than 9 bytes were free),
// so `block` must have room for 128 bytes.
std::size_t pad(std::uint8_t* block, std::size_t used,
                std::uint64_t total_bytes) noexcept {
  const std::size_t nblocks = used + 9 > Sha1::kBlockBytes ? 2 : 1;
  const std::size_t end = nblocks * Sha1::kBlockBytes;
  block[used] = 0x80;
  std::memset(block + used + 1, 0, end - 8 - used - 1);
  const std::uint64_t bit_len = total_bytes * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    block[end - 8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  return nblocks;
}

void store_be(std::uint32_t word, std::uint8_t* out) noexcept {
  out[0] = static_cast<std::uint8_t>(word >> 24);
  out[1] = static_cast<std::uint8_t>(word >> 16);
  out[2] = static_cast<std::uint8_t>(word >> 8);
  out[3] = static_cast<std::uint8_t>(word);
}

}  // namespace

void Sha1::reset() noexcept {
  state_ = kInitialState;
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha1::update(std::span<const std::uint8_t> data) noexcept {
  // The compression function is dispatched through src/kernels (SHA-NI
  // when the CPU has it, the block-pipelined scalar otherwise) and takes
  // a run of blocks per call, so bulk updates pay one indirection total.
  const kernels::Sha1BlocksFn compress = kernels::dispatch().sha1_blocks;
  total_bytes_ += data.size();
  std::size_t offset = 0;

  if (buffered_ > 0) {
    const std::size_t need = kBlockBytes - buffered_;
    const std::size_t take = data.size() < need ? data.size() : need;
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset += take;
    if (buffered_ == kBlockBytes) {
      compress(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }

  const std::size_t full_blocks = (data.size() - offset) / kBlockBytes;
  if (full_blocks > 0) {
    compress(state_.data(), data.data() + offset, full_blocks);
    offset += full_blocks * kBlockBytes;
  }

  if (offset < data.size()) {
    buffered_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffered_);
  }
}

void Sha1::finish(std::span<std::uint8_t, kDigestBytes> digest) noexcept {
  std::uint8_t tail[2 * kBlockBytes];
  std::memcpy(tail, buffer_.data(), buffered_);
  const std::size_t nblocks = pad(tail, buffered_, total_bytes_);
  kernels::dispatch().sha1_blocks(state_.data(), tail, nblocks);
  for (std::size_t i = 0; i < 5; ++i) store_be(state_[i], &digest[4 * i]);
}

std::array<std::uint8_t, Sha1::kDigestBytes> Sha1::digest(
    std::span<const std::uint8_t> data) noexcept {
  Sha1 h;
  h.update(data);
  std::array<std::uint8_t, kDigestBytes> out{};
  h.finish(out);
  return out;
}

void Sha1::digest_x16(
    const std::uint8_t* const lanes[kLanes], std::size_t length,
    std::array<std::uint8_t, kDigestBytes> out[kLanes]) noexcept {
  static_assert(kLanes == kernels::kSha1Lanes);
  const kernels::Sha1x16Fn compress = kernels::dispatch().sha1_x16;
  std::uint32_t state[5][kLanes];
  for (std::size_t w = 0; w < 5; ++w) {
    for (std::size_t l = 0; l < kLanes; ++l) state[w][l] = kInitialState[w];
  }
  const std::size_t full_blocks = length / kBlockBytes;
  if (full_blocks > 0) compress(state, lanes, full_blocks);

  // Every lane has the same tail length, so the padded tails line up and
  // take one more call of one or two blocks.
  const std::size_t rem = length - full_blocks * kBlockBytes;
  std::uint8_t tails[kLanes][2 * kBlockBytes];
  const std::uint8_t* tail_ptrs[kLanes];
  std::size_t tail_blocks = 0;
  for (std::size_t l = 0; l < kLanes; ++l) {
    if (rem > 0) {
      std::memcpy(tails[l], lanes[l] + full_blocks * kBlockBytes, rem);
    }
    tail_blocks = pad(tails[l], rem, length);
    tail_ptrs[l] = tails[l];
  }
  compress(state, tail_ptrs, tail_blocks);

  for (std::size_t l = 0; l < kLanes; ++l) {
    for (std::size_t w = 0; w < 5; ++w) store_be(state[w][l], &out[l][4 * w]);
  }
}

}  // namespace collrep::hash
