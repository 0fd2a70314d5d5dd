// Byte-oriented serialization used by the typed collectives.
//
// The paper's prototype relies on Boost.MPI's automatic serialization of
// data structures; this archive pair provides the same capability for the
// in-process runtime: trivially copyable types are written raw, standard
// containers recurse, and user types opt in via ADL-discovered
//   void save(OArchive&, const T&);
//   void load(IArchive&, T&);
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace collrep::simmpi {

class OArchive;
class IArchive;

namespace detail {

template <class T>
concept AdlSavable = requires(OArchive& ar, const T& v) { save(ar, v); };
template <class T>
concept AdlLoadable = requires(IArchive& ar, T& v) { load(ar, v); };

template <class T>
struct is_std_vector : std::false_type {};
template <class T, class A>
struct is_std_vector<std::vector<T, A>> : std::true_type {};

template <class T>
struct is_std_pair : std::false_type {};
template <class A, class B>
struct is_std_pair<std::pair<A, B>> : std::true_type {};

template <class T>
struct is_map_like : std::false_type {};
template <class K, class V, class C, class A>
struct is_map_like<std::map<K, V, C, A>> : std::true_type {};
template <class K, class V, class H, class E, class A>
struct is_map_like<std::unordered_map<K, V, H, E, A>> : std::true_type {};

// Lower bound on the encoded size of one T, used to reject element counts
// that the remaining input cannot possibly hold before anything is
// allocated from them.  0 means "unknown" (user types with their own
// load()), which disables the check for that element type.
template <class T>
[[nodiscard]] constexpr std::size_t min_encoded_size() noexcept {
  if constexpr (AdlLoadable<T>) {
    return 0;
  } else if constexpr (is_std_vector<T>::value || is_map_like<T>::value ||
                       std::is_same_v<T, std::string>) {
    return sizeof(std::uint64_t);  // the size prefix
  } else if constexpr (is_std_pair<T>::value) {
    return min_encoded_size<typename T::first_type>() +
           min_encoded_size<typename T::second_type>();
  } else {
    return sizeof(T);
  }
}

}  // namespace detail

class OArchive {
 public:
  void write_raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  template <class T>
  void put(const T& value) {
    if constexpr (detail::AdlSavable<T>) {
      save(*this, value);
    } else if constexpr (detail::is_std_vector<T>::value) {
      put_size(value.size());
      if constexpr (std::is_trivially_copyable_v<typename T::value_type>) {
        write_raw(value.data(), value.size() * sizeof(typename T::value_type));
      } else {
        for (const auto& e : value) put(e);
      }
    } else if constexpr (std::is_same_v<T, std::string>) {
      put_size(value.size());
      write_raw(value.data(), value.size());
    } else if constexpr (detail::is_std_pair<T>::value) {
      put(value.first);
      put(value.second);
    } else if constexpr (detail::is_map_like<T>::value) {
      put_size(value.size());
      for (const auto& [k, v] : value) {
        put(k);
        put(v);
      }
    } else {
      static_assert(std::is_trivially_copyable_v<T>,
                    "type needs an ADL save()/load() pair");
      write_raw(&value, sizeof value);
    }
  }

  void put_size(std::size_t n) {
    const auto v = static_cast<std::uint64_t>(n);
    write_raw(&v, sizeof v);
  }

  // LEB128 unsigned varint: 1 byte for values < 128, <= 10 bytes total.
  // The multi-byte encoding batches into a stack buffer and lands in one
  // append instead of one push_back (capacity check + size bump) per
  // byte — varint-heavy streams like the fingerprint-set entry encoding
  // are measurably faster for it.
  void put_varint(std::uint64_t v) {
    if (v < 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v));
      return;
    }
    std::uint8_t tmp[10];
    std::size_t n = 0;
    while (v >= 0x80) {
      tmp[n++] = static_cast<std::uint8_t>(v) | 0x80u;
      v >>= 7;
    }
    tmp[n++] = static_cast<std::uint8_t>(v);
    buf_.insert(buf_.end(), tmp, tmp + n);
  }

  // Grows the buffer capacity by `n` upcoming bytes; callers that know the
  // payload size (e.g. entry counts) avoid repeated reallocation.
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;
};

class IArchive {
 public:
  explicit IArchive(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  void read_raw(void* out, std::size_t n) {
    if (n > data_.size() - pos_) {
      throw std::runtime_error("IArchive: read past end of buffer");
    }
    if (n == 0) return;  // `out` may be an empty vector's null data()
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  }

  template <class T>
  void get(T& value) {
    if constexpr (detail::AdlLoadable<T>) {
      load(*this, value);
    } else if constexpr (detail::is_std_vector<T>::value) {
      const std::size_t n = get_count<typename T::value_type>();
      value.clear();
      if constexpr (std::is_trivially_copyable_v<typename T::value_type>) {
        value.resize(n);
        read_raw(value.data(), n * sizeof(typename T::value_type));
      } else {
        if constexpr (detail::min_encoded_size<typename T::value_type>() > 0) {
          value.reserve(n);
        }
        for (std::size_t i = 0; i < n; ++i) {
          typename T::value_type e;
          get(e);
          value.push_back(std::move(e));
        }
      }
    } else if constexpr (std::is_same_v<T, std::string>) {
      const std::size_t n = get_count<char>();
      value.resize(n);
      read_raw(value.data(), n);
    } else if constexpr (detail::is_std_pair<T>::value) {
      get(value.first);
      get(value.second);
    } else if constexpr (detail::is_map_like<T>::value) {
      const std::size_t n = get_count<std::pair<typename T::key_type,
                                                typename T::mapped_type>>();
      value.clear();
      for (std::size_t i = 0; i < n; ++i) {
        typename T::key_type k;
        typename T::mapped_type v;
        get(k);
        get(v);
        value.emplace(std::move(k), std::move(v));
      }
    } else {
      static_assert(std::is_trivially_copyable_v<T>,
                    "type needs an ADL save()/load() pair");
      read_raw(&value, sizeof value);
    }
  }

  template <class T>
  [[nodiscard]] T get() {
    T value;
    get(value);
    return value;
  }

  [[nodiscard]] std::size_t get_size() {
    std::uint64_t v = 0;
    read_raw(&v, sizeof v);
    return static_cast<std::size_t>(v);
  }

  // Element count of a container of E.  The bytes are untrusted: a count
  // whose elements cannot fit in the rest of the buffer throws before the
  // caller sizes an allocation from it.
  template <class E>
  [[nodiscard]] std::size_t get_count() {
    const std::size_t n = get_size();
    constexpr std::size_t kMin = detail::min_encoded_size<E>();
    if (kMin > 0 && n > remaining() / kMin) {
      throw std::runtime_error("IArchive: element count exceeds buffer");
    }
    return n;
  }

  [[nodiscard]] std::uint64_t get_varint() {
    // Single-byte fast path: the common case for freq / rank-delta
    // streams, where values are almost always < 128.
    if (pos_ < data_.size() && data_[pos_] < 0x80u) {
      return data_[pos_++];
    }
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      if (pos_ >= data_.size()) {
        throw std::runtime_error("IArchive: varint past end of buffer");
      }
      const std::uint8_t b = data_[pos_++];
      if (shift == 63 && b > 1) {
        throw std::runtime_error("IArchive: varint overflows 64 bits");
      }
      v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
      if ((b & 0x80u) == 0) return v;
    }
    throw std::runtime_error("IArchive: varint overflows 64 bits");
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

template <class T>
[[nodiscard]] std::vector<std::uint8_t> to_bytes(const T& value) {
  OArchive ar;
  ar.put(value);
  return ar.take();
}

template <class T>
[[nodiscard]] T from_bytes(std::span<const std::uint8_t> data) {
  IArchive ar(data);
  return ar.get<T>();
}

}  // namespace collrep::simmpi
