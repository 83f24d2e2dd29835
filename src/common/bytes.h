// Canonical binary serialization.
//
// Blocks, transactions, and signed payloads must hash identically across the
// whole system, so everything that is hashed or signed round-trips through
// this little-endian, length-prefixed format.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace mv {

using Bytes = std::vector<std::uint8_t>;

class ByteWriter {
 public:
  void reserve(std::size_t n) { buf_.reserve(n); }
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(std::string_view v);
  void bytes(std::span<const std::uint8_t> v);
  /// Raw append without a length prefix (for fixed-size digests).
  void raw(std::span<const std::uint8_t> v) { buf_.insert(buf_.end(), v.begin(), v.end()); }

  [[nodiscard]] const Bytes& data() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// The one wire reader every decoder uses (DESIGN.md §5 "Wire codecs").
///
/// The reader latches its first error — a truncated field, a forged count,
/// or a codec's own check passed to fail()/require() — and from then on every
/// read returns a zero value and consumes nothing. A decoder therefore reads
/// fields as plain values and checks once, at finish(), which also rejects
/// trailing bytes: a buffer is exactly one message. The latched error is the
/// first one in wire order, as if the decoder had returned at each read.
class ByteReader {
 public:
  /// `truncated_code` names the error a short buffer latches; it is kept as
  /// a view, so pass a literal or an errc constant.
  explicit ByteReader(std::span<const std::uint8_t> data,
                      std::string_view truncated_code = "bytes.truncated")
      : data_(data), truncated_code_(truncated_code) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] Bytes bytes();
  /// A u32-length-prefixed sub-message, as a view into the buffer (no copy).
  [[nodiscard]] std::span<const std::uint8_t> nested();
  /// Exactly out.size() unprefixed bytes into `out` (digests: no allocation).
  void fixed(std::span<std::uint8_t> out);

  /// An element count — u32 on the wire (count) or u64 (count64) — checked
  /// before the caller allocates for it: it must be at most `max` and leave
  /// at least `min_elem_bytes` (>= 1) of buffer per element. A forged count
  /// latches `code` and reads as 0.
  [[nodiscard]] std::size_t count(std::size_t max, std::size_t min_elem_bytes,
                                  std::string_view code);
  [[nodiscard]] std::size_t count64(std::size_t max, std::size_t min_elem_bytes,
                                    std::string_view code);

  /// Latch a codec-level error (ignored when one is already latched).
  void fail(std::string_view code, std::string_view message);
  void fail(const Error& error) { fail(error.code, error.message); }
  void require(bool cond, std::string_view code, std::string_view message) {
    if (!cond) fail(code, message);
  }
  /// The value of a nested decode, or T{} after latching its error.
  template <typename T>
  [[nodiscard]] T take(Result<T> result) {
    if (result.ok()) return std::move(result).value();
    fail(result.error());
    return T{};
  }

  [[nodiscard]] bool ok() const { return !failed_; }
  /// The latched error; only meaningful when !ok().
  [[nodiscard]] const Error& error() const { return error_; }
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  /// The first latched error, else `code` when bytes remain unread, else ok.
  [[nodiscard]] Status finish(std::string_view code = "bytes.trailing_bytes",
                              std::string_view message = "unparsed trailing bytes");
  template <typename T>
  [[nodiscard]] Result<T> finish(T value, std::string_view code,
                                 std::string_view message) {
    if (Status s = finish(code, message); !s.ok()) return s.error();
    return value;
  }

 private:
  /// True when n more bytes are there to read; latches truncation otherwise.
  [[nodiscard]] bool need(std::size_t n);
  [[nodiscard]] std::size_t bounded(std::uint64_t n, std::size_t max,
                                    std::size_t min_elem_bytes,
                                    std::string_view code);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::string_view truncated_code_;
  bool failed_ = false;
  Error error_;
};

/// Lenient read of a stored counter or id: the leading u64 of `bytes`, or
/// `fallback` when they are absent or shorter than 8 bytes. Bytes after the
/// first 8 are ignored.
[[nodiscard]] std::uint64_t leading_u64(const Bytes* bytes,
                                        std::uint64_t fallback = 0);

/// Hex encoding for digests in logs and docs.
[[nodiscard]] std::string to_hex(std::span<const std::uint8_t> data);

}  // namespace mv
