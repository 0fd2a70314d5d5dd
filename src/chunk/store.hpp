// ChunkStore: one rank's local storage device, content addressed.
//
// kPayload mode keeps chunk bytes (tests, examples, restore); kAccounting
// mode keeps only fingerprints and byte counters so 408-rank benches fit in
// RAM.  A store can be failed (node loss) — reads then behave as if the
// device were gone, which is what the restore path and the failure-injection
// tests exercise.
//
// Received replicas are indexed where they landed: a one-sided exchange
// fills memory handed out by landing_buffer() and passes it back through
// commit_landed(), which keeps the buffer and points the new chunks into
// it instead of copying each payload, as long as they fill at least half
// of it.  A store holds one spare landing buffer for the next exchange: a
// buffer that was too empty to keep, or after clear() the largest one
// that held chunks (DESIGN.md §16.3).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chunk/manifest.hpp"
#include "hash/fingerprint.hpp"

namespace collrep::chunk {

enum class StoreMode : std::uint8_t {
  kPayload,     // keep chunk bytes
  kAccounting,  // keep fingerprints + sizes only
};

class StoreFailedError : public std::runtime_error {
 public:
  StoreFailedError() : std::runtime_error("chunk store has failed") {}
};

class ChunkStore {
 public:
  explicit ChunkStore(StoreMode mode = StoreMode::kPayload) : mode_(mode) {}

  [[nodiscard]] StoreMode mode() const noexcept { return mode_; }

  // Stores a chunk; returns true when the fingerprint was not yet present
  // (content addressing makes duplicate puts free except for the lookup).
  bool put(const hash::Fingerprint& fp, std::span<const std::uint8_t> payload) {
    check_alive();
    auto [it, inserted] = chunks_.try_emplace(fp);
    if (!inserted) return false;
    it->second.length = static_cast<std::uint32_t>(payload.size());
    if (mode_ == StoreMode::kPayload) {
      it->second.payload.assign(payload.begin(), payload.end());
    }
    stored_bytes_ += payload.size();
    return true;
  }

  // Accounting-mode put: records presence and length without a payload.
  bool put_accounted(const hash::Fingerprint& fp, std::uint32_t length) {
    check_alive();
    if (mode_ == StoreMode::kPayload) {
      throw std::logic_error(
          "ChunkStore: put_accounted() requires accounting mode");
    }
    auto [it, inserted] = chunks_.try_emplace(fp);
    if (!inserted) return false;
    it->second.length = length;
    stored_bytes_ += length;
    return true;
  }

  // -- landing buffers --------------------------------------------------------
  // Memory for a window to receive into: the store's spare landing
  // memory (or fresh memory when it has none or too little), zero-filled to
  // `bytes`; an empty buffer for 0 bytes, leaving the spare in place.  The
  // caller owns it until it passes it to commit_landed() or drops it.
  // Works on a failed store: this is host memory, not the device.
  [[nodiscard]] std::vector<std::uint8_t> landing_buffer(std::size_t bytes) {
    if (bytes == 0) return {};
    std::vector<std::uint8_t> out = std::exchange(spare_, {});
    // A spare too small is freed before the fresh memory is taken, so the
    // two never coexist.
    if (out.capacity() < bytes) out = std::vector<std::uint8_t>();
    out.assign(bytes, 0);
    return out;
  }

  // One received payload inside a landing buffer.
  struct LandedRecord {
    hash::Fingerprint fp;
    std::size_t offset = 0;  // of the payload's first byte
    std::uint32_t length = 0;
  };

  // Takes ownership of `buffer` and indexes each record's payload, in
  // order; a fingerprint the store already holds is not indexed again (as
  // put()).  When the new payloads fill at least half of the buffer's
  // capacity, the store keeps the buffer and points them into it.
  // Otherwise it copies them out as put() does and keeps the buffer as its
  // spare landing memory (the larger of it and the current spare), so
  // landed buffers never hold more than twice the payload indexed in them,
  // and an exchange of mostly known chunks hands its memory to the next
  // one.  Returns the number of chunks newly indexed.  Payload mode only;
  // every record must lie inside `buffer`.
  std::size_t commit_landed(std::vector<std::uint8_t> buffer,
                            std::span<const LandedRecord> records) {
    check_alive();
    if (mode_ != StoreMode::kPayload) {
      throw std::logic_error(
          "ChunkStore: commit_landed() requires payload mode");
    }
    for (const LandedRecord& r : records) {
      if (r.offset > buffer.size() || r.length > buffer.size() - r.offset) {
        throw std::out_of_range(
            "ChunkStore: landed record lies outside its buffer");
      }
    }
    const auto landing = static_cast<std::uint32_t>(landed_.size());
    std::size_t indexed = 0;
    std::uint64_t indexed_bytes = 0;
    for (const LandedRecord& r : records) {
      auto [it, inserted] = chunks_.try_emplace(r.fp);
      if (!inserted) continue;
      it->second.length = r.length;
      it->second.landing = landing;
      it->second.offset = r.offset;
      indexed_bytes += r.length;
      ++indexed;
    }
    stored_bytes_ += indexed_bytes;
    if (indexed > 0 && 2 * indexed_bytes >= buffer.capacity()) {
      landed_.push_back(std::move(buffer));
      return indexed;
    }
    // Too little of the buffer is new: the slots that point at `landing`
    // are exactly the chunks indexed above.
    for (const LandedRecord& r : records) {
      Slot& slot = chunks_.find(r.fp)->second;
      if (slot.landing != landing) continue;
      slot.landing = Slot::kOwnPayload;
      const std::uint8_t* at = buffer.data() + r.offset;
      slot.payload.assign(at, at + r.length);
    }
    keep_spare(std::move(buffer));
    return indexed;
  }

  // Capacity of the spare landing memory (0 when none).
  [[nodiscard]] std::size_t spare_landing_bytes() const noexcept {
    return spare_.capacity();
  }

  // Capacity of the landing buffers chunks point into.
  [[nodiscard]] std::size_t landed_bytes() const noexcept {
    std::size_t sum = 0;
    for (const auto& buffer : landed_) sum += buffer.capacity();
    return sum;
  }

  [[nodiscard]] bool contains(const hash::Fingerprint& fp) const {
    check_alive();
    return chunks_.contains(fp);
  }

  // Payload of a stored chunk; nullopt if absent.  Throws in accounting
  // mode (no payloads retained) and when the store has failed.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> get(
      const hash::Fingerprint& fp) const {
    check_alive();
    if (mode_ != StoreMode::kPayload) {
      throw std::logic_error("ChunkStore: get() requires payload mode");
    }
    const auto it = chunks_.find(fp);
    if (it == chunks_.end()) return std::nullopt;
    const Slot& slot = it->second;
    if (slot.landing == Slot::kOwnPayload) {
      return std::span<const std::uint8_t>{slot.payload};
    }
    return std::span<const std::uint8_t>{
        landed_[slot.landing].data() + slot.offset, slot.length};
  }

  [[nodiscard]] std::optional<std::uint32_t> chunk_length(
      const hash::Fingerprint& fp) const {
    check_alive();
    const auto it = chunks_.find(fp);
    if (it == chunks_.end()) return std::nullopt;
    return it->second.length;
  }

  // -- named blobs ------------------------------------------------------------
  // Auxiliary objects that are not content addressed (erasure-coded parity
  // shards, stream manifests).  Last write wins.
  void put_blob(const std::string& key, std::vector<std::uint8_t> bytes) {
    check_alive();
    auto [it, inserted] = blobs_.insert_or_assign(key, std::move(bytes));
    (void)it;
    (void)inserted;
  }

  [[nodiscard]] const std::vector<std::uint8_t>* get_blob(
      const std::string& key) const {
    check_alive();
    const auto it = blobs_.find(key);
    return it == blobs_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] std::uint64_t blob_bytes() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& [k, v] : blobs_) sum += v.size();
    return sum;
  }

  void put_manifest(Manifest manifest) {
    check_alive();
    auto& slot = manifests_[manifest.owner_rank];
    if (slot.has_value() && slot->epoch > manifest.epoch) return;
    slot = std::move(manifest);
  }

  [[nodiscard]] const Manifest* manifest_for(int owner_rank) const {
    check_alive();
    const auto it = manifests_.find(owner_rank);
    if (it == manifests_.end() || !it->second.has_value()) return nullptr;
    return &*it->second;
  }

  // Removes and returns the manifest held for `owner_rank` (nullopt if
  // none).  The shrink rebalance uses this to re-key surviving manifests
  // under the post-shrink dense numbering without copying them.
  [[nodiscard]] std::optional<Manifest> take_manifest(int owner_rank) {
    check_alive();
    const auto it = manifests_.find(owner_rank);
    if (it == manifests_.end()) return std::nullopt;
    std::optional<Manifest> out = std::move(it->second);
    manifests_.erase(it);
    return out;
  }

  // Visits every held manifest as (owner_rank, manifest), ascending by
  // owner rank; throws if failed.  The recovery service uses this to build
  // the post-shrink chunk requirement map.
  template <class Fn>
  void for_each_manifest(Fn&& fn) const {
    check_alive();
    for (const auto& [owner, slot] : manifests_) {
      if (slot.has_value()) fn(owner, *slot);
    }
  }

  // -- failure injection ----------------------------------------------------
  // Two recovery modes model two distinct hardware outcomes:
  //  * recover(): transient outage (power cut, controller reset, network
  //    partition) — the device comes back with its pre-failure contents
  //    intact, so earlier replicas silently resurface;
  //  * recover_empty(): permanent device loss — the node is replaced with a
  //    blank disk, so the store rejoins alive but holding nothing and the
  //    repair scrub (core::repair_replicas) must re-replicate what it
  //    should hold.
  // The failure-injection tests use recover() for blip scenarios and
  // recover_empty() for the ReStore-style "re-replicate after recovery"
  // scenarios.
  void fail() noexcept { failed_ = true; }
  void recover() noexcept { failed_ = false; }
  void recover_empty() {
    wipe();
    failed_ = false;
  }
  // Drops all contents (chunks, manifests, blobs) without changing the
  // failed flag; models a scrubbed or replaced medium.  Keeps landing
  // memory as clear() does.
  void wipe() { clear(); }
  [[nodiscard]] bool failed() const noexcept { return failed_; }

  // Scrub iteration (repair audit): visits every stored chunk as
  // (fingerprint, length).  Order is unspecified; throws if failed.
  template <class Fn>
  void for_each_chunk(Fn&& fn) const {
    check_alive();
    for (const auto& [fp, slot] : chunks_) fn(fp, slot.length);
  }

  // -- accounting -----------------------------------------------------------
  [[nodiscard]] std::uint64_t stored_bytes() const noexcept {
    return stored_bytes_;
  }
  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return chunks_.size();
  }

  // Drops all contents.  Spans from get() end here.  Of the landing
  // buffers that held chunks and the spare, only the largest one's memory
  // is kept, as the spare for landing_buffer().
  void clear() {
    chunks_.clear();
    manifests_.clear();
    blobs_.clear();
    stored_bytes_ = 0;
    for (auto& buffer : landed_) keep_spare(std::move(buffer));
    landed_.clear();
  }

 private:
  void check_alive() const {
    if (failed_) throw StoreFailedError{};
  }

  void keep_spare(std::vector<std::uint8_t> buffer) {
    if (buffer.capacity() > spare_.capacity()) spare_.swap(buffer);
  }

  // A chunk's bytes are its own `payload` (put) or lie at `offset` in
  // landed_[landing] (commit_landed).  An index rather than a pointer keeps
  // get() spans valid across moves and makes copies alias nothing.
  struct Slot {
    static constexpr std::uint32_t kOwnPayload = ~0u;
    std::uint32_t length = 0;
    std::uint32_t landing = kOwnPayload;
    std::size_t offset = 0;
    std::vector<std::uint8_t> payload;  // empty in accounting mode
  };

  StoreMode mode_;
  bool failed_ = false;
  std::unordered_map<hash::Fingerprint, Slot, hash::FingerprintHash> chunks_;
  std::map<int, std::optional<Manifest>> manifests_;
  std::map<std::string, std::vector<std::uint8_t>> blobs_;
  std::uint64_t stored_bytes_ = 0;
  std::vector<std::vector<std::uint8_t>> landed_;  // each holds >= 1 chunk
  std::vector<std::uint8_t> spare_;  // spare landing memory
};

}  // namespace collrep::chunk
