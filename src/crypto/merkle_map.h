// Incremental Merkle map: an ordered map from 64-bit keys to 32-byte value
// digests that maintains a Merkle commitment to its full contents.
//
// The commitment is defined purely on the key set (shape-independent, like
// rippled's SHAMap): a subtree spanning a nibble prefix hashes to
//   - the all-zero digest when it holds no keys,
//   - leaf_hash(key, value) when it holds exactly one key (at any depth),
//   - sha256(0x01 || present-children bitmap || child digests) otherwise,
// with children partitioned by the next most-significant nibble of the key.
//
// The in-memory tree caches every subtree digest and re-hashes only dirtied
// paths, so after m point updates the next root() costs O(m · log n) hashing
// instead of O(n). root_with() computes the root of "this map plus a delta"
// without mutating the map at all — the ledger state overlay uses it to
// commit to a block's post-state in O(touched · log n) — and can record what
// it hashed, so that apply() later installs that post-state without hashing
// it a second time.
//
// prove(key) produces a compact inclusion proof — the present-children
// bitmap and sibling digests of every inner node on the key's nibble path —
// or a non-membership proof for an absent key (the path terminated by either
// an empty child slot or the single colliding leaf). The static verify()
// replays the path against a bare 32-byte root with no tree in hand; the
// byte layout is specified in DESIGN.md §"Account proofs & light client".
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "crypto/sha256.h"

namespace mv::crypto {

/// One inner node on a key's lookup path, root-first at consecutive depths.
/// `siblings` holds the digests of the present children in index order,
/// excluding the child the path descends into (when that child is present).
struct MerkleMapProofStep {
  std::uint16_t bitmap = 0;      ///< present-children bitmap
  std::vector<Digest> siblings;  ///< present child digests, index order

  [[nodiscard]] bool operator==(const MerkleMapProofStep&) const = default;
};

/// Inclusion / non-membership proof against a MerkleMap root.
///
/// Shapes (all verified by MerkleMap::verify against the claimed value):
///  - membership: `steps` only — the deepest step's missing child slot is the
///    key's leaf (an empty `steps` means the whole map is that one leaf);
///  - non-membership, absent slot: the deepest step's bitmap has no bit at
///    the key's nibble and `siblings` carries every present child;
///  - non-membership, colliding leaf: the path ends at the single leaf of a
///    different key (`terminal_key`/`terminal_value` reproduce its leaf
///    hash; the key prefix must match the lookup path);
///  - non-membership, empty map: no steps, no terminal — root is all-zero.
struct MerkleMapProof {
  std::vector<MerkleMapProofStep> steps;  ///< root-first, depths 0..n-1
  bool has_terminal_leaf = false;
  std::uint64_t terminal_key = 0;  ///< key of the colliding leaf
  Digest terminal_value{};         ///< its value digest (leaf-hash preimage)

  [[nodiscard]] bool operator==(const MerkleMapProof&) const = default;

  /// Canonical wire format (DESIGN.md). decode() is strict: it rejects
  /// unknown versions/flags, out-of-range counts, sibling counts that the
  /// bitmap cannot support, and trailing bytes — so that no byte of an
  /// encoded proof is semantically inert.
  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<MerkleMapProof> decode(
      std::span<const std::uint8_t> bytes);
};

class MerkleMap {
 public:
  /// Overlay delta: key -> new value digest, or nullopt to erase the key.
  using Delta = std::map<std::uint64_t, std::optional<Digest>>;

  MerkleMap();
  ~MerkleMap();
  MerkleMap(const MerkleMap& other);
  MerkleMap& operator=(const MerkleMap& other);
  MerkleMap(MerkleMap&&) noexcept;
  MerkleMap& operator=(MerkleMap&&) noexcept;

  /// Insert or update. O(log n) pointer work; hashing is deferred to root().
  void put(std::uint64_t key, const Digest& value);

  /// Bulk construction from strictly ascending (key, value-digest) pairs:
  /// the tree is built by structural recursion over the sorted span — one
  /// node allocation per node, no descents, no splits — so loading n keys
  /// costs O(n) pointer work instead of n incremental puts. Inner hashing is
  /// deferred to root() exactly as with put(). The root of the resulting map
  /// is identical to n puts of the same pairs (the commitment is defined on
  /// the key set alone). Ascending order is the caller's contract; it is
  /// assert-checked in debug builds.
  [[nodiscard]] static MerkleMap from_sorted_leaves(
      std::span<const std::pair<std::uint64_t, Digest>> leaves);
  /// Remove a key (no-op when absent).
  void erase(std::uint64_t key);
  [[nodiscard]] bool contains(std::uint64_t key) const;
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Commitment to the current contents; the empty map commits to all-zero.
  /// Lazily re-hashes dirty paths: O(dirty · log n), O(1) when clean.
  [[nodiscard]] Digest root() const;

  /// What root_with() computed for one delta, kept so apply() can install
  /// the post-delta tree without hashing any of it again.
  struct Prepared {
    struct Entry {
      std::uint64_t key = 0;
      std::optional<Digest> value;  ///< nullopt = erase
      Digest leaf{};                ///< leaf_hash(key, *value) when engaged
    };
    Digest base_root{};          ///< root of the map root_with() ran on
    Digest root{};               ///< root with the delta applied
    std::size_t size = 0;        ///< key count with the delta applied
    std::vector<Entry> entries;  ///< the delta, ascending by key
    /// Digest of every subtree root_with() evaluated, keyed by
    /// (key prefix | depth) and ascending by that key. The commitment is
    /// shape-independent — a subtree at (depth, prefix) commits to the keys
    /// under that prefix and nothing else — so each digest holds for any
    /// tree with the same content, whatever its insert/erase history.
    std::vector<std::pair<std::uint64_t, Digest>> inner;
  };

  /// Root of this map with `delta` applied on top, without mutating the map.
  /// O(|delta| · log n) hashing against the cached tree. When `prepared` is
  /// given, everything computed on the way is recorded there for apply().
  [[nodiscard]] Digest root_with(const Delta& delta,
                                 Prepared* prepared = nullptr) const;

  /// Apply a delta that root_with() prepared. When this map's root equals
  /// prepared.base_root (the map root_with() ran on, or one with equal
  /// content), the new leaves keep their known hashes and every dirtied inner
  /// node takes its digest from prepared.inner, so nothing is re-hashed
  /// except subtrees missing there. On any other map the delta is applied as
  /// by put()/erase() and hashed on the next root(). O(|delta| · log n).
  void apply(const Prepared& prepared);

  /// Number of keys after applying `delta` (erases of absent keys ignored).
  [[nodiscard]] std::size_t size_with(const Delta& delta) const;

  /// Inclusion proof for a present key, non-membership proof otherwise.
  /// O(log n); flushes dirty hash caches like root().
  [[nodiscard]] MerkleMapProof prove(std::uint64_t key) const;

  /// Verify `proof` against a bare root, with no tree in hand.
  /// `value` engaged: proves `key -> value` is in the committed map.
  /// `value` nullopt: proves `key` is absent from the committed map.
  [[nodiscard]] static bool verify(const Digest& root, std::uint64_t key,
                                   const std::optional<Digest>& value,
                                   const MerkleMapProof& proof);

  /// Leaf commitment; exposed so oracles can reproduce the format.
  [[nodiscard]] static Digest leaf_hash(std::uint64_t key, const Digest& value);

  struct Node;  ///< opaque; defined in merkle_map.cpp

 private:
  /// put() with the leaf hash already known.
  void put_hashed(std::uint64_t key, const Digest& value, const Digest& leaf);

  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
};

/// Reference oracle: the canonical root of a key->value-digest set, computed
/// by direct structural recursion with no caching or tree reuse. Input pairs
/// need not be sorted; keys must be unique. Differential tests compare this
/// against MerkleMap's incrementally maintained root.
[[nodiscard]] Digest merkle_map_reference_root(
    std::vector<std::pair<std::uint64_t, Digest>> leaves);

}  // namespace mv::crypto
