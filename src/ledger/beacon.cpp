#include "ledger/beacon.h"

#include <algorithm>
#include <mutex>
#include <string_view>
#include <utility>

namespace mv::ledger {

namespace {

/// Domain tag for anchor leaf digests; part of the beacon wire format.
constexpr std::string_view kAnchorDomain = "mv.shard.anchor.v1";
/// Sanity bound on the shard count a decoded beacon may claim — far above
/// any deployment, low enough that a forged count cannot drive allocation.
constexpr std::uint32_t kMaxShards = 1u << 16;

}  // namespace

crypto::Digest shard_anchor_digest(const ShardAnchor& anchor) {
  ByteWriter w;
  w.str(kAnchorDomain);
  w.raw(anchor.state_root);
  w.raw(anchor.receipts_root);
  return crypto::sha256(w.data());
}

crypto::Digest combine_beacon_root(const std::vector<ShardAnchor>& anchors) {
  crypto::MerkleMap map;
  for (std::uint32_t i = 0; i < anchors.size(); ++i) {
    map.put(i, shard_anchor_digest(anchors[i]));
  }
  return map.root();
}

crypto::MerkleMapProof prove_shard_anchor(
    const std::vector<ShardAnchor>& anchors, std::uint32_t index) {
  crypto::MerkleMap map;
  for (std::uint32_t i = 0; i < anchors.size(); ++i) {
    map.put(i, shard_anchor_digest(anchors[i]));
  }
  return map.prove(index);
}

bool verify_shard_anchor(const crypto::Digest& beacon_root, std::uint32_t index,
                         const ShardAnchor& anchor,
                         const crypto::MerkleMapProof& proof) {
  return crypto::MerkleMap::verify(beacon_root, index,
                                   shard_anchor_digest(anchor), proof);
}

Bytes BeaconHeader::signing_bytes() const {
  ByteWriter w;
  w.i64(height);
  w.raw(prev_hash);
  w.i64(timestamp);
  w.u32(static_cast<std::uint32_t>(shards.size()));
  for (const ShardAnchor& a : shards) {
    w.raw(a.state_root);
    w.raw(a.receipts_root);
  }
  // The derived root is signed too: a proposer attests to the combination,
  // not just the inputs, so a verifier holding only (root, signature) is
  // covered without re-deriving.
  w.raw(combine_beacon_root(shards));
  return w.take();
}

Bytes BeaconHeader::encode() const {
  ByteWriter w;
  w.raw(signing_bytes());
  w.u64(proposer_pub.y);
  w.u64(proposer_sig.e);
  w.u64(proposer_sig.s);
  return w.take();
}

Result<BeaconHeader> BeaconHeader::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  BeaconHeader h;
  h.height = r.i64();
  r.fixed(h.prev_hash);
  h.timestamp = r.i64();
  const std::size_t count = r.count(kMaxShards, 64, errc::kBeaconBadCount);
  r.require(count != 0, errc::kBeaconBadCount, "shard count out of range");
  h.shards.resize(count);
  for (ShardAnchor& a : h.shards) {
    r.fixed(a.state_root);
    r.fixed(a.receipts_root);
  }
  crypto::Digest root{};
  r.fixed(root);
  // The root is derived state: recompute it and refuse a stream whose
  // claimed root disagrees — no semantically inert bytes.
  if (r.ok()) h.beacon_root = combine_beacon_root(h.shards);
  r.require(root == h.beacon_root, errc::kBeaconBadRoot,
            "beacon root does not recombine");
  h.proposer_pub.y = r.u64();
  h.proposer_sig.e = r.u64();
  h.proposer_sig.s = r.u64();
  return r.finish(std::move(h), errc::kBeaconTrailing, "trailing bytes after header");
}

crypto::Digest BeaconHeader::hash() const { return crypto::sha256(encode()); }

void BeaconArchive::push(BeaconHeader header) {
  std::unique_lock lock(mu_);
  header.beacon_root = combine_beacon_root(header.shards);
  headers_.push_back(std::move(header));
}

std::int64_t BeaconArchive::size() const {
  std::shared_lock lock(mu_);
  return static_cast<std::int64_t>(headers_.size());
}

std::optional<ShardAnchor> BeaconArchive::anchor(std::int64_t height,
                                                 std::uint32_t shard) const {
  std::shared_lock lock(mu_);
  if (height < 0 || height >= static_cast<std::int64_t>(headers_.size())) {
    return std::nullopt;
  }
  const auto& shards = headers_[static_cast<std::size_t>(height)].shards;
  if (shard >= shards.size()) return std::nullopt;
  return shards[shard];
}

std::optional<BeaconHeader> BeaconArchive::header_at(std::int64_t height) const {
  std::shared_lock lock(mu_);
  if (height < 0 || height >= static_cast<std::int64_t>(headers_.size())) {
    return std::nullopt;
  }
  return headers_[static_cast<std::size_t>(height)];
}

crypto::Digest BeaconArchive::tip_hash() const {
  std::shared_lock lock(mu_);
  return headers_.empty() ? crypto::Digest{} : headers_.back().hash();
}

}  // namespace mv::ledger
