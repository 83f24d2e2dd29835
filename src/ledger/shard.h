// Sharded world ledger: per-world shards with parallel commitment,
// beacon-anchored roots, and cross-shard transfer receipts.
//
// The single-chain pipeline serializes every world's traffic through one
// mempool -> assemble -> commit path. ShardedLedger statically partitions
// accounts by world id — a stable hash of the address picks the shard — and
// gives each shard its own Mempool, its own Blockchain (LedgerState +
// validator, reusing ValidationConfig), and its own per-shard
// StateCommitment. Shards commit their round blocks concurrently on the
// shared JobQueue's kConsensus lane, then the driver folds the per-shard
// anchors into a signed BeaconHeader (ledger/beacon.h), so end-to-end
// throughput scales with shard count instead of one pipeline.
//
// Cross-shard transfers use lock-and-mint receipts — no shared mutable
// state, no 2PC:
//   1. lock  (source shard): the xshard contract burns the amount from the
//      sender and appends a receipt under a reserved store key
//      ("receipt/<id>", ids dense per shard). The driver mirrors receipts
//      into a per-shard MerkleMap (id -> sha256(receipt bytes)) whose root
//      is the shard's receipts_root in the next beacon.
//   2. prove: anyone holding the source shard's receipt bytes asks for a
//      MerkleMapProof against the receipts_root anchored at a committed
//      beacon height (ShardedLedger::prove_receipt).
//   3. mint  (destination shard): the xshard contract verifies the proof
//      against the source shard's beacon-anchored receipts_root (resolved
//      through the shared read-only BeaconArchive), rejects spent receipt
//      ids ("spent/<shard>/<id>" set), and mints the amount to the
//      recipient.
// Conservation becomes a cross-shard sum: Σ balances + Σ burned_fees +
// Σ locked_total − Σ minted_total == total supply
// (scenario/invariants.h::check_sharded_invariants holds this).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "crypto/digest_lru.h"
#include "ledger/beacon.h"
#include "ledger/chain.h"
#include "ledger/mempool.h"

namespace mv::ledger {

/// Reserved contract name for the cross-shard lock-and-mint contract.
inline constexpr const char* kXShardContractName = "xshard";

/// Stable account -> shard partition: a splitmix64-style mix of the address
/// (itself a SHA-256 prefix) reduced mod num_shards. Part of the sharded
/// wire/trace format — changing it re-homes every account.
[[nodiscard]] std::uint32_t shard_of(crypto::Address addr,
                                     std::size_t num_shards);

/// Split a genesis state into per-shard genesis states: balances and nonces
/// are routed by shard_of; the audit log, contract stores, and burned fees
/// (normally empty at genesis) stay on shard 0.
[[nodiscard]] std::vector<LedgerState> partition_genesis(
    const LedgerState& genesis, std::size_t num_shards);

struct ShardConfig {
  std::size_t num_shards = 1;
  std::vector<crypto::PublicKey> validators;  ///< shared round-robin order
  std::size_t max_txs_per_block = 256;
  /// Per-shard validation knobs. The job_queue is lifted to the sharded
  /// level — commit_round fans the shards out as one kConsensus batch — and
  /// is NOT passed into the per-shard chains (a queue job must not call
  /// run_batch on its own queue). A non-null sig_cache requests per-shard
  /// verified-signature caches (the LRU is single-threaded; shards get one
  /// each instead of sharing the instance).
  ValidationConfig validation;
  /// Each shard chain's ChainConfig::state_retention (at least 1).
  std::size_t state_retention = 8;
  MempoolConfig mempool;
  /// Seed for the deterministic per-(round, shard) signing streams, so
  /// commit_round needs no caller-supplied Rng and block hashes are
  /// reproducible across runs and thread counts.
  std::uint64_t seed = 1;
};

/// One cross-shard transfer receipt, as stored under "receipt/<id>" on the
/// source shard and presented (with a proof) to the destination shard.
struct CrossShardReceipt {
  std::uint64_t id = 0;            ///< dense per-source-shard sequence
  std::uint32_t source_shard = 0;  ///< shard that locked the funds
  std::uint32_t dest_shard = 0;    ///< only this shard may mint
  crypto::Address from;            ///< locker (burned the amount + fee)
  crypto::Address to;              ///< mint recipient
  std::uint64_t amount = 0;

  [[nodiscard]] bool operator==(const CrossShardReceipt&) const = default;

  /// Strict versioned codec ("mv.xshard.receipt.v1"): every byte is load-
  /// bearing — the mint path hashes the exact wire bytes into the proof
  /// check, and decode rejects trailing bytes, bad magic, and zero amounts.
  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<CrossShardReceipt> decode(
      std::span<const std::uint8_t> bytes);
};

/// Args for xshard "lock": burn `amount` from the caller on this shard and
/// emit a receipt mintable by `to` on `dest_shard`.
struct XShardLockArgs {
  std::uint32_t dest_shard = 0;
  crypto::Address to;
  std::uint64_t amount = 0;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<XShardLockArgs> decode(
      std::span<const std::uint8_t> bytes);
};

/// Args for xshard "mint": present source-shard receipt bytes plus a
/// MerkleMapProof of them against the source shard's receipts_root anchored
/// at `beacon_height`.
struct XShardMintArgs {
  std::int64_t beacon_height = 0;
  std::uint32_t source_shard = 0;  ///< explicit claim; must match the receipt
  Bytes receipt;                   ///< CrossShardReceipt wire bytes
  Bytes proof;                     ///< MerkleMapProof wire bytes

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<XShardMintArgs> decode(
      std::span<const std::uint8_t> bytes);
};

/// Reserved xshard store keys (also read by the invariant checker).
[[nodiscard]] std::string xshard_receipt_key(std::uint64_t id);
[[nodiscard]] std::string xshard_spent_key(std::uint32_t source_shard,
                                           std::uint64_t id);
inline constexpr const char* kXShardNextIdKey = "next_id";
inline constexpr const char* kXShardLockedTotalKey = "locked_total";
inline constexpr const char* kXShardMintedTotalKey = "minted_total";

/// The lock-and-mint contract, installed per shard with that shard's
/// identity and a shared read-only view of finalized beacons. Stateless like
/// every Contract — all persistent data lives in the shard's "xshard" store.
class XShardContract final : public Contract {
 public:
  XShardContract(std::uint32_t shard_id, std::uint32_t num_shards,
                 std::shared_ptr<const BeaconArchive> archive)
      : shard_id_(shard_id), num_shards_(num_shards), archive_(std::move(archive)) {}

  [[nodiscard]] std::string name() const override { return kXShardContractName; }
  [[nodiscard]] Status call(CallContext& ctx, const std::string& method,
                            const Bytes& args) const override;

 private:
  [[nodiscard]] Status lock(CallContext& ctx, const Bytes& args) const;
  [[nodiscard]] Status mint(CallContext& ctx, const Bytes& args) const;

  std::uint32_t shard_id_;
  std::uint32_t num_shards_;
  std::shared_ptr<const BeaconArchive> archive_;
};

/// Everything a destination shard needs to mint: the receipt bytes, their
/// inclusion proof, and the beacon height anchoring the source root.
struct ReceiptProofBundle {
  std::int64_t beacon_height = 0;
  std::uint32_t source_shard = 0;
  Bytes receipt;
  crypto::MerkleMapProof proof;
};

/// Composed proof: account -> shard state root -> beacon root. Verifies with
/// only a trusted beacon root (e.g. from a signed BeaconHeader) in hand.
struct ShardedAccountProof {
  std::uint32_t shard = 0;
  std::int64_t beacon_height = 0;
  ShardAnchor anchor;
  crypto::MerkleMapProof anchor_proof;  ///< anchor under the beacon root
  AccountProof account;                 ///< account under anchor.state_root
};

/// Verify the composed chain: the anchor's inclusion under `beacon_root` at
/// the claimed shard index, then the account proof against the anchor's
/// state root (§8 machinery unchanged).
[[nodiscard]] Status verify_sharded_account_proof(
    const ShardedAccountProof& proof, const crypto::Digest& beacon_root);

class ShardedLedger {
 public:
  /// `extra_contracts` are installed into every shard's registry alongside
  /// the shard's own XShardContract (a multi-world scenario installs the
  /// nft/dao/... set here). num_shards == 0 is clamped to 1.
  ShardedLedger(ShardConfig config, const LedgerState& genesis,
                std::vector<std::shared_ptr<const Contract>> extra_contracts = {});

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  [[nodiscard]] const ShardConfig& config() const { return config_; }
  [[nodiscard]] const Blockchain& shard(std::uint32_t s) const {
    return *shards_[s].chain;
  }
  [[nodiscard]] const Mempool& mempool(std::uint32_t s) const {
    return shards_[s].pool;
  }
  [[nodiscard]] std::shared_ptr<const BeaconArchive> archive() const {
    return archive_;
  }
  /// Beacons committed so far (the next commit_round produces this height).
  [[nodiscard]] std::int64_t beacon_height() const {
    return static_cast<std::int64_t>(beacons_.size());
  }
  [[nodiscard]] const BeaconHeader* beacon_at(std::int64_t height) const;
  /// Receipts the driver has folded into shard `s`'s receipt tree.
  [[nodiscard]] std::uint64_t receipt_count(std::uint32_t s) const {
    return shards_[s].receipts_indexed;
  }

  /// Route a transaction to its sender's shard mempool.
  [[nodiscard]] Status submit(Transaction tx, Tick now = 0);

  /// Commit one round: every shard selects, assembles, and appends a block
  /// (possibly empty — shard heights stay aligned with beacon heights),
  /// concurrently on the configured JobQueue's kConsensus lane when it has
  /// workers, serially otherwise; results are byte-identical either way.
  /// Then the receipt trees are refreshed and the round's BeaconHeader is
  /// built, signed by `proposer` (the round-robin validator for this
  /// height), archived, and returned. A shard failure fails the round
  /// ("shard.round_failed"); other shards' commits stand — shard chains are
  /// independent by design, and a failed round is a driver bug, not a state
  /// to recover from.
  [[nodiscard]] Result<BeaconHeader> commit_round(const crypto::Wallet& proposer,
                                                  Tick timestamp);

  /// Proof of receipt `id` on `source_shard` against the latest beacon's
  /// receipts_root. Requires the receipt's lock round (and thus a beacon
  /// covering it) to have committed.
  [[nodiscard]] Result<ReceiptProofBundle> prove_receipt(
      std::uint32_t source_shard, std::uint64_t id) const;

  /// Composed account proof for `addr` on its home shard, anchored at the
  /// latest beacon.
  [[nodiscard]] Result<ShardedAccountProof> prove_account(
      crypto::Address addr) const;

  /// Per-shard committed state, for invariant checks and tests.
  [[nodiscard]] const LedgerState& state(std::uint32_t s) const {
    return shards_[s].chain->state();
  }

 private:
  struct Shard {
    std::unique_ptr<Blockchain> chain;
    Mempool pool;
    std::shared_ptr<crypto::DigestLruSet> sig_cache;  ///< per-shard (LRU is 1-thread)
    /// Mirror of the shard's "receipt/<id>" store entries: id -> sha256 of
    /// the receipt bytes. Receipts are append-only with dense ids, so the
    /// refresh after each round folds exactly the new suffix.
    crypto::MerkleMap receipts;
    std::uint64_t receipts_indexed = 0;

    Shard() : pool(MempoolConfig{}) {}
  };

  /// Fold store receipts [receipts_indexed, next_id) into the receipt tree.
  void refresh_receipts(Shard& shard);

  ShardConfig config_;
  std::shared_ptr<BeaconArchive> archive_;
  std::vector<Shard> shards_;
  std::vector<BeaconHeader> beacons_;
  crypto::Digest beacon_genesis_hash_{};  ///< prev_hash of beacon 0
};

/// Build-and-sign helpers for the two xshard methods.
[[nodiscard]] Transaction make_xshard_lock(const crypto::Wallet& from,
                                           std::uint64_t nonce,
                                           std::uint32_t dest_shard,
                                           crypto::Address to,
                                           std::uint64_t amount,
                                           std::uint64_t fee, Rng& rng);
[[nodiscard]] Transaction make_xshard_mint(const crypto::Wallet& from,
                                           std::uint64_t nonce,
                                           const ReceiptProofBundle& bundle,
                                           std::uint64_t fee, Rng& rng);

}  // namespace mv::ledger
