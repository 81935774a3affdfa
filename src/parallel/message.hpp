// Typed pack/unpack buffers in the style of PVM's pvm_pk*/pvm_upk*
// calls (the paper's implementation uses C/PVM, Geist et al. 1994).
// Both checkpoint formats (ga/checkpoint.*) write and read their images
// through them. The farm's work items and replies cross as typed values
// (parallel/master_slave.hpp) and are never packed.
//
// Each packed item is prefixed with a one-byte type tag; unpacking with
// the wrong type throws ParallelError instead of silently reinterpreting
// bytes. That mirrors the strictest PVM data-encoding mode and turns a
// format mistake or a damaged image into an immediate, testable failure.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace ldga::parallel {

namespace detail {

enum class WireTag : std::uint8_t {
  I32 = 1,
  U32,
  I64,
  U64,
  F64,
  Bytes,  ///< length-prefixed blob (strings, vectors)
};

template <typename T>
constexpr WireTag wire_tag_for() {
  if constexpr (std::same_as<T, std::int32_t>) return WireTag::I32;
  else if constexpr (std::same_as<T, std::uint32_t>) return WireTag::U32;
  else if constexpr (std::same_as<T, std::int64_t>) return WireTag::I64;
  else if constexpr (std::same_as<T, std::uint64_t>) return WireTag::U64;
  else if constexpr (std::same_as<T, double>) return WireTag::F64;
  else static_assert(sizeof(T) == 0, "unsupported wire type");
}

}  // namespace detail

/// Scalar types that can be packed directly.
template <typename T>
concept WireScalar = std::same_as<T, std::int32_t> ||
                     std::same_as<T, std::uint32_t> ||
                     std::same_as<T, std::int64_t> ||
                     std::same_as<T, std::uint64_t> ||
                     std::same_as<T, double>;

/// Append-only packing buffer (the "send" side).
class Packer {
 public:
  template <WireScalar T>
  Packer& pack(T value) {
    put_tag(detail::wire_tag_for<T>());
    put_raw(&value, sizeof(value));
    return *this;
  }

  template <WireScalar T>
  Packer& pack_span(std::span<const T> values) {
    put_tag(detail::WireTag::Bytes);
    const auto count = static_cast<std::uint64_t>(values.size());
    put_raw(&count, sizeof(count));
    put_tag(detail::wire_tag_for<T>());
    put_raw(values.data(), values.size_bytes());
    return *this;
  }

  template <WireScalar T>
  Packer& pack_vector(const std::vector<T>& values) {
    return pack_span(std::span<const T>(values));
  }

  Packer& pack_string(const std::string& value);

  /// Finalizes into an immutable byte payload.
  std::vector<std::uint8_t> take() && { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }

 private:
  void put_tag(detail::WireTag tag) {
    bytes_.push_back(static_cast<std::uint8_t>(tag));
  }
  void put_raw(const void* data, std::size_t size);

  std::vector<std::uint8_t> bytes_;
};

/// Sequential reader over a packed payload (the "receive" side).
class Unpacker {
 public:
  explicit Unpacker(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  template <WireScalar T>
  T unpack() {
    expect_tag(detail::wire_tag_for<T>());
    T value;
    get_raw(&value, sizeof(value));
    return value;
  }

  template <WireScalar T>
  std::vector<T> unpack_vector() {
    expect_tag(detail::WireTag::Bytes);
    std::uint64_t count;
    get_raw(&count, sizeof(count));
    expect_tag(detail::wire_tag_for<T>());
    std::vector<T> values(count);
    get_raw(values.data(), count * sizeof(T));
    return values;
  }

  std::string unpack_string();

  bool exhausted() const { return cursor_ == bytes_.size(); }

 private:
  void expect_tag(detail::WireTag expected);
  void get_raw(void* out, std::size_t size);

  std::span<const std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace ldga::parallel
