// Bounded LRU set of digests: remembered verification results.
//
// Signature verification is the dominant cost on the block hot path, and the
// same transaction is verified repeatedly — at mempool admission, at block
// assembly, and again when the assembled block is validated and committed on
// every replica that already admitted it. A transaction's digest covers the
// signature bytes, so "this digest was verified" is a sound cache key: any
// tampering changes the digest and misses.
//
// The set is keyed by the digest's 64-bit prefix with a full-digest compare
// on lookup, so a prefix collision can only cause a spurious miss (the
// colliding entry is displaced on insert), never a false hit. Not
// thread-safe: callers consult and populate it from their single-threaded
// control path (mempool admission and block application, ledger/chain.cpp,
// on the replica's own thread; each shard holds its own instance).
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "crypto/sha256.h"

namespace mv::crypto {

class DigestLruSet {
 public:
  /// Default capacity comfortably covers several blocks' worth of pending
  /// transactions; memory is ~56 bytes per entry.
  explicit DigestLruSet(std::size_t capacity = 1u << 16)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// True when `d` is in the set; refreshes its recency on a hit.
  [[nodiscard]] bool contains_and_touch(const Digest& d) {
    const auto it = index_.find(digest_prefix64(d));
    if (it == index_.end() || *it->second != d) return false;
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }

  /// Remember `d`, evicting the least-recently-used entry at capacity. A
  /// prefix collision displaces the colliding entry (newest wins).
  void insert(const Digest& d) {
    const std::uint64_t key = digest_prefix64(d);
    if (const auto it = index_.find(key); it != index_.end()) {
      *it->second = d;
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    if (order_.size() >= capacity_) {
      index_.erase(digest_prefix64(order_.back()));
      order_.pop_back();
    }
    order_.push_front(d);
    index_.emplace(key, order_.begin());
  }

  [[nodiscard]] std::size_t size() const { return order_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::list<Digest> order_;  ///< most recently used at the front
  std::unordered_map<std::uint64_t, std::list<Digest>::iterator> index_;
};

}  // namespace mv::crypto
