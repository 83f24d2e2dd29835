#include "common/bytes.h"

namespace mv {

namespace {
constexpr char kHex[] = "0123456789abcdef";
}  // namespace

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::str(std::string_view v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void ByteWriter::bytes(std::span<const std::uint8_t> v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

bool ByteReader::need(std::size_t n) {
  if (n <= remaining()) return true;
  fail(truncated_code_, "buffer ended mid-field");
  return false;
}

void ByteReader::fail(std::string_view code, std::string_view message) {
  if (failed_) return;
  failed_ = true;
  error_ = Error{std::string(code), std::string(message)};
  // Nothing after the first error is read: every later read is short.
  pos_ = data_.size();
}

std::uint8_t ByteReader::u8() {
  if (!need(1)) return 0;
  return data_[pos_++];
}

std::uint32_t ByteReader::u32() {
  if (!need(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  if (!need(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::span<const std::uint8_t> ByteReader::nested() {
  const std::uint32_t len = u32();
  if (!need(len)) return {};
  const auto out = data_.subspan(pos_, len);
  pos_ += len;
  return out;
}

std::string ByteReader::str() {
  const auto v = nested();
  return std::string(reinterpret_cast<const char*>(v.data()), v.size());
}

Bytes ByteReader::bytes() {
  const auto v = nested();
  return Bytes(v.begin(), v.end());
}

void ByteReader::fixed(std::span<std::uint8_t> out) {
  if (!need(out.size())) return;
  std::memcpy(out.data(), data_.data() + pos_, out.size());
  pos_ += out.size();
}

std::size_t ByteReader::bounded(std::uint64_t n, std::size_t max,
                                std::size_t min_elem_bytes,
                                std::string_view code) {
  if (n > max || n > remaining() / min_elem_bytes) {
    fail(code, "element count exceeds its bound or the buffer");
    return 0;
  }
  return static_cast<std::size_t>(n);
}

std::size_t ByteReader::count(std::size_t max, std::size_t min_elem_bytes,
                              std::string_view code) {
  const std::uint32_t n = u32();
  return ok() ? bounded(n, max, min_elem_bytes, code) : 0;
}

std::size_t ByteReader::count64(std::size_t max, std::size_t min_elem_bytes,
                                std::string_view code) {
  const std::uint64_t n = u64();
  return ok() ? bounded(n, max, min_elem_bytes, code) : 0;
}

Status ByteReader::finish(std::string_view code, std::string_view message) {
  if (failed_) return error_;
  if (!exhausted()) return Error{std::string(code), std::string(message)};
  return {};
}

std::uint64_t leading_u64(const Bytes* bytes, std::uint64_t fallback) {
  if (bytes == nullptr) return fallback;
  ByteReader r(*bytes);
  const std::uint64_t v = r.u64();
  return r.ok() ? v : fallback;
}

std::string to_hex(std::span<const std::uint8_t> data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (const auto b : data) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace mv
