// The receive side of a one-sided record exchange (DUMP_OUTPUT phase 4 and
// ship_shortfall).
//
// Each exchange exposes a window, takes puts of records, fences once and
// commits what landed to the receiving rank's store.  Landing owns the
// memory the window exposes: the store's spare landing memory,
// zero-filled to the window size, so unwritten slots read as zero.  After
// the fence, a payload store gets the buffer back and indexes each new
// payload where it landed, or copies them out and keeps the buffer as its
// spare when they fill less than half of it (ChunkStore::commit_landed);
// an accounting store records each chunk with put_accounted() and keeps
// nothing.  DESIGN.md §16.3.
//
// Ownership: the exchange owns the buffer until commit(), so a fault that
// wipes the store mid-exchange cannot free memory a peer is putting into.
// Declare the Landing before the Window over region(): the window is then
// released (its region detached) before the buffer can be freed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "chunk/store.hpp"
#include "hash/fingerprint.hpp"

namespace collrep::core {

// Window record layout shared by DUMP_OUTPUT and ship_shortfall: the
// fingerprint, the u32 payload length, then the payload bytes (payload
// exchanges only).
inline constexpr std::size_t kRecordHeaderBytes =
    hash::Fingerprint::kBytes + sizeof(std::uint32_t);

class Landing {
 public:
  Landing(chunk::ChunkStore& store, std::size_t bytes)
      : store_(store), buffer_(store.landing_buffer(bytes)) {}

  // The memory to expose through Comm::win_create.
  [[nodiscard]] std::span<std::uint8_t> region() noexcept { return buffer_; }

  // After the fence, for an alive store: commits the chunk whose payload
  // landed at `payload_offset` in region().
  void put(const hash::Fingerprint& fp, std::size_t payload_offset,
           std::uint32_t length) {
    if (store_.mode() == chunk::StoreMode::kPayload) {
      records_.push_back({fp, payload_offset, length});
    } else {
      store_.put_accounted(fp, length);
    }
  }

  // Hands the buffer and the payloads put() named to the store.  Call it
  // after the fence and before the window is freed.
  void commit() {
    if (records_.empty()) return;
    store_.commit_landed(std::move(buffer_), records_);
    records_.clear();
  }

 private:
  chunk::ChunkStore& store_;
  std::vector<std::uint8_t> buffer_;
  std::vector<chunk::ChunkStore::LandedRecord> records_;
};

}  // namespace collrep::core
