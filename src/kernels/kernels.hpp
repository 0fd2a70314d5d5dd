// Data-plane kernels with runtime CPU-feature dispatch.
//
// Every byte a dump moves passes through a handful of byte-bashing loops:
// GF(256) multiply-accumulate (Reed-Solomon encode/decode), CRC-32C, and
// the SHA-1 compression function.  Each kernel ships as a list of
// *variants* — index 0 is the portable scalar reference, higher indices
// are SIMD implementations gated on CPU features probed once via CPUID —
// and the pipeline calls through a function pointer resolved exactly once
// at startup (one indirection per call, never re-probed).
//
// The scalar variants are always compiled and always tested: the
// differential suite (ctest label `kernels`) checks every *available*
// SIMD variant against variant 0 on randomized inputs.
//
// COLLREP_KERNELS=scalar forces the scalar reference kernels everywhere
// (the baseline that scripts/bench_kernels.sh measures against); any
// other value (or unset) selects the best variant this CPU supports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace collrep::kernels {

struct CpuFeatures {
  bool ssse3 = false;
  bool sse42 = false;
  bool avx2 = false;    // includes the OS-enabled-YMM (XGETBV) check
  bool sha_ni = false;
  bool pclmul = false;  // PCLMULQDQ (carry-less multiply)
};

// CPUID probe, performed once and cached.
[[nodiscard]] const CpuFeatures& cpu_features() noexcept;

// out[i] ^= coeff * in[i] over GF(2^8) mod 0x11D (the mul_add form) and
// out[i] = coeff * in[i] (the mul form).
using GfMulAddFn = void (*)(std::uint8_t* out, const std::uint8_t* in,
                            std::size_t n, std::uint8_t coeff);
using GfMulFn = void (*)(std::uint8_t* out, const std::uint8_t* in,
                         std::size_t n, std::uint8_t coeff);
// Folds `n` bytes into a running CRC-32C state.  The state is the raw
// (already complemented) register: callers do the ~seed / ~result steps.
using Crc32cFn = std::uint32_t (*)(std::uint32_t crc, const std::uint8_t* data,
                                   std::size_t n);
// Runs the SHA-1 compression function over `nblocks` consecutive 64-byte
// blocks (block-pipelined: one call per update, not per block).
using Sha1BlocksFn = void (*)(std::uint32_t state[5],
                              const std::uint8_t* blocks, std::size_t nblocks);

struct GfVariant {
  const char* name;  // "scalar", "ssse3", "avx2"
  bool available;    // true when this CPU can execute it
  GfMulAddFn mul_add;
  GfMulFn mul;
};

struct Crc32cVariant {
  const char* name;  // "scalar", "sse42"
  bool available;
  Crc32cFn fn;
};

struct Sha1Variant {
  const char* name;  // "scalar", "pipelined", "shani"
  bool available;
  Sha1BlocksFn fn;
};

// Variant lists, scalar reference first, fastest last.  Entries with
// available == false are compiled in but must not be called.
[[nodiscard]] std::span<const GfVariant> gf_variants() noexcept;
[[nodiscard]] std::span<const Crc32cVariant> crc32c_variants() noexcept;
[[nodiscard]] std::span<const Sha1Variant> sha1_variants() noexcept;

// The active kernel set: best available variant per kernel, or the scalar
// references when COLLREP_KERNELS=scalar.  Resolved on first use (thread
// safe), then a plain struct of function pointers.
struct Dispatch {
  GfMulAddFn gf_mul_add;
  GfMulFn gf_mul;
  Crc32cFn crc32c;
  Sha1BlocksFn sha1_blocks;
  const char* gf_name;
  const char* crc32c_name;
  const char* sha1_name;
};

[[nodiscard]] const Dispatch& dispatch() noexcept;

}  // namespace collrep::kernels
