// Beacon chain: the anchor tying per-shard roots into one signed digest.
//
// A sharded world ledger (ledger/shard.h) commits every shard's block for a
// round, then folds the resulting per-shard anchors — state commitment root
// plus cross-shard receipt tree root — into a single beacon root: a
// crypto::MerkleMap keyed by shard index whose leaf values are domain-tagged
// anchor digests. The beacon header carries the ordered anchor vector, the
// derived beacon root, and a round-robin PoA proposer signature, exactly
// mirroring BlockHeader's trust chain.
//
// Verification composes with the existing proof machinery (DESIGN.md §8/§14):
//   account proof   -> shard state root        (verify_account_proof)
//   shard anchor    -> beacon root             (MerkleMapProof over the index)
//   beacon root     -> signed beacon header    (proposer schedule + signature)
// so a light client holding only beacon headers can audit any account on any
// shard, and a destination shard can check a cross-shard receipt against a
// source-shard receipt root it never shared mutable state with.
#pragma once

#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/result.h"
#include "crypto/merkle_map.h"
#include "crypto/schnorr.h"
#include "crypto/sha256.h"

namespace mv::ledger {

/// What the beacon anchors per shard per round: the shard's post-block state
/// commitment root and the root of its cross-shard receipt tree.
struct ShardAnchor {
  crypto::Digest state_root{};
  crypto::Digest receipts_root{};

  [[nodiscard]] bool operator==(const ShardAnchor&) const = default;
};

/// Leaf value committed for one shard: sha256("mv.shard.anchor.v1" ||
/// state_root || receipts_root). Domain-tagged so an anchor digest can never
/// collide with a raw state root served in some other context.
[[nodiscard]] crypto::Digest shard_anchor_digest(const ShardAnchor& anchor);

/// Combine the ordered anchor vector into the beacon root: the root of a
/// MerkleMap mapping shard index -> shard_anchor_digest. The section-
/// combination idea of combine_commitment_root generalized to a variable
/// number of sections — and, because it is a MerkleMap, each section is
/// individually provable (prove_shard_anchor).
[[nodiscard]] crypto::Digest combine_beacon_root(
    const std::vector<ShardAnchor>& anchors);

/// Inclusion proof of shard `index`'s anchor under combine_beacon_root.
[[nodiscard]] crypto::MerkleMapProof prove_shard_anchor(
    const std::vector<ShardAnchor>& anchors, std::uint32_t index);

/// Verify that `anchor` is shard `index`'s entry under `beacon_root`.
[[nodiscard]] bool verify_shard_anchor(const crypto::Digest& beacon_root,
                                       std::uint32_t index,
                                       const ShardAnchor& anchor,
                                       const crypto::MerkleMapProof& proof);

/// One beacon round: the ordered per-shard anchors for the shard blocks at
/// `height`, hash-chained to the previous beacon and signed by the
/// round-robin proposer for `height`.
struct BeaconHeader {
  std::int64_t height = 0;
  crypto::Digest prev_hash{};
  Tick timestamp = 0;
  std::vector<ShardAnchor> shards;
  /// Derived: combine_beacon_root(shards). Recomputed on decode, never read
  /// off the wire, so a served root that disagrees with its anchors cannot
  /// survive the codec.
  crypto::Digest beacon_root{};
  crypto::PublicKey proposer_pub{};
  crypto::Signature proposer_sig{};

  /// Canonical bytes covered by the proposer signature (everything above it).
  [[nodiscard]] Bytes signing_bytes() const;
  [[nodiscard]] Bytes encode() const;
  /// Strict decode: bounded shard count, beacon_root recomputed, exhausted
  /// check. Every failure names a beacon.* code.
  [[nodiscard]] static Result<BeaconHeader> decode(std::span<const std::uint8_t> bytes);
  /// sha256 over the full encoding (the next beacon's prev_hash).
  [[nodiscard]] crypto::Digest hash() const;
};

/// Append-only archive of finalized beacon headers, shared read-only with
/// the per-shard xshard contracts so a destination shard can resolve "the
/// source shard's anchor at beacon height h" deterministically during block
/// application. Reads may come from validation worker threads while the
/// driver appends between rounds; a shared_mutex keeps both honest.
class BeaconArchive {
 public:
  /// Append the next header; height must equal size() (beacons are dense).
  void push(BeaconHeader header);

  [[nodiscard]] std::int64_t size() const;
  /// Anchor of `shard` at beacon `height`, or nullopt when the height is not
  /// yet archived / the shard index is out of range.
  [[nodiscard]] std::optional<ShardAnchor> anchor(std::int64_t height,
                                                 std::uint32_t shard) const;
  /// Copy of the header at `height` (nullopt when absent).
  [[nodiscard]] std::optional<BeaconHeader> header_at(std::int64_t height) const;
  /// Hash of the newest archived header (zero digest when empty).
  [[nodiscard]] crypto::Digest tip_hash() const;

 private:
  mutable std::shared_mutex mu_;
  std::vector<BeaconHeader> headers_;
};

}  // namespace mv::ledger
