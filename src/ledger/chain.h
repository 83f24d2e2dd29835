// The blockchain: validated, totally ordered blocks plus the current state.
//
// Consensus model is proof-of-authority: a fixed validator set takes turns
// proposing (round-robin); the BFT vote itself is simulated in consensus.h.
// Every replica runs this same validation, so a block accepted anywhere is
// accepted everywhere.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "ledger/block.h"
#include "ledger/light_client.h"
#include "ledger/parallel.h"
#include "ledger/snapshot.h"
#include "ledger/state.h"

namespace mv::ledger {

struct ChainConfig {
  std::vector<crypto::PublicKey> validators;  ///< round-robin proposer order
  std::size_t max_txs_per_block = 256;
  /// Block application knobs: the signature memo, plus the shared
  /// prioritized JobQueue (common/job_queue.h) that prove_account queries
  /// ride.
  ValidationConfig validation;
  /// How many recent heights behind the tip stay reconstructible (a ring of
  /// per-block undo deltas + commitments): prove_account and export_snapshot
  /// serve heights in [tip - state_retention, tip]. Capture costs O(touched)
  /// per committed block. At least 1 (the constructor throws on 0): the
  /// ring's newest slot holds the tip's commitment.
  std::size_t state_retention = 8;
};

class Blockchain {
 public:
  Blockchain(ChainConfig config, std::shared_ptr<const ContractRegistry> contracts,
             LedgerState genesis);
  /// Shares the genesis state instead of cloning it into the chain. The
  /// mutable working copy is materialized lazily when the first block
  /// commits, so a replica that bootstraps via init_from_snapshot() never
  /// pays the O(state) genesis clone (or its teardown) at all — the chain
  /// goes straight from empty to the decoded snapshot state. The caller must
  /// not mutate the shared state; computing its commitment writes cached
  /// hashes, so callers sharing one genesis across threads must call
  /// genesis->commitment() once up front.
  Blockchain(ChainConfig config, std::shared_ptr<const ContractRegistry> contracts,
             std::shared_ptr<const LedgerState> genesis);

  [[nodiscard]] const LedgerState& state() const {
    return state_.has_value() ? *state_ : *genesis_;
  }
  [[nodiscard]] const ChainConfig& config() const { return config_; }
  [[nodiscard]] const ContractRegistry& contracts() const { return *contracts_; }

  /// Next block height. Equals the number of committed blocks on a chain
  /// grown from genesis; on a snapshot-initialized chain it starts at
  /// base_height() (heights below it are not held).
  [[nodiscard]] std::int64_t height() const {
    return base_height_ + static_cast<std::int64_t>(blocks_.size());
  }
  /// First block height this chain holds (> 0 after init_from_snapshot).
  [[nodiscard]] std::int64_t base_height() const { return base_height_; }
  /// Blocks held, ascending from base_height(). Prefer block_at() — it
  /// resolves by height regardless of the base offset.
  [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }
  /// Block at `height`, or nullptr when out of range / below base_height().
  [[nodiscard]] const Block* block_at(std::int64_t height) const;
  [[nodiscard]] crypto::Digest tip_hash() const;

  /// Expected proposer public key for a given height (round-robin PoA).
  [[nodiscard]] const crypto::PublicKey& expected_proposer(std::int64_t height) const;

  /// Proposer side: trial-apply candidates in order, drop any that fail, and
  /// build a signed block on top of the current tip. The block's staged
  /// commit goes into the execution memo, so appending it here neither
  /// executes nor hashes it again.
  [[nodiscard]] Block assemble(const crypto::Wallet& proposer,
                               const std::vector<Transaction>& candidates,
                               Tick timestamp, Rng& rng) const;

  /// validate() + commit. On any failure the chain is unchanged. The block's
  /// staged commit comes from the execution memo, which validate() fills on
  /// a miss, and is installed as staged (LedgerState::install): a block
  /// assemble() or validate() already ran here is not executed again, and no
  /// block's post-state is hashed twice. A successful append consumes the
  /// memo.
  [[nodiscard]] Status append(const Block& block);

  /// Observer of successful commits: the block just appended plus the
  /// inverse delta of its state changes — i.e. exactly which accounts and
  /// stores it touched. Runs synchronously inside append() after the state
  /// is committed (height() already counts the block), so the hook sees a
  /// consistent tip and must stay cheap or dispatch elsewhere; it must not
  /// call back into this chain's mutating API. One hook; set empty to clear.
  /// The subscription publisher (ledger/subscription.h) hangs off this.
  using CommitHook = std::function<void(const Block&, const StateUndo&)>;
  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }

  /// Validate without committing (votes in the BFT round use this). Every
  /// header check runs; execution is served from the memo on a key match and
  /// runs in full otherwise. A hit is left in place, and a block that
  /// executes and passes is memoized, so the append after the vote does not
  /// execute it again.
  [[nodiscard]] Status validate(const Block& block) const;

  /// Merkle inclusion proof for tx `tx_index` of block `block_height`.
  [[nodiscard]] Result<crypto::MerkleProof> prove_tx(std::int64_t block_height,
                                                     std::size_t tx_index) const;

  /// Verify an inclusion proof against a committed header.
  [[nodiscard]] bool verify_tx_inclusion(std::int64_t block_height,
                                         const crypto::Digest& tx_digest,
                                         const crypto::MerkleProof& proof) const;

  /// Account proof (balance/nonce leaf + Merkle path to the accounts root)
  /// anchored at block `block_height`'s state commitment. Serves the tip and
  /// every height the retention ring covers (config.state_retention heights
  /// behind it); "chain.stale_height" fires only beyond that window. The
  /// result verifies against that header's state_root with
  /// verify_account_proof / LightClient::verify_account.
  ///
  /// When validation.job_queue is configured, the query runs as a
  /// JobClass::kClientQuery job — the first traffic shed under overload —
  /// and a shed query returns "chain.overloaded" immediately.
  [[nodiscard]] Result<AccountProof> prove_account(crypto::Address addr,
                                                   std::int64_t block_height) const;

  /// Post-state commitment of block `height`, for the tip and every height
  /// the retention ring can roll back to; nullptr otherwise.
  [[nodiscard]] const StateCommitment* commitment_at(std::int64_t height) const;

  /// Build a verified snapshot of the state as of block `height` (the tip or
  /// any height the retention ring covers; "chain.stale_height" beyond).
  /// O(state) — historical heights additionally roll back through the ring.
  [[nodiscard]] Result<Snapshot> export_snapshot(
      std::int64_t height, std::size_t chunk_size = kSnapshotChunkSize) const;

  /// Install a verified snapshot into a fresh chain (no committed blocks).
  /// `anchor` must be the committed header at manifest.height: it is
  /// re-checked here (proposer schedule + signature + state_root binding) on
  /// top of whatever header-chain verification the caller already did, the
  /// chunks are verified and decoded (assemble_snapshot), and the chain
  /// resumes at base_height() == anchor.height + 1 with anchor.hash() as the
  /// parent for the next block. Catch-up then replays only the suffix.
  [[nodiscard]] Status init_from_snapshot(const SnapshotManifest& manifest,
                                          const std::vector<Bytes>& chunks,
                                          const BlockHeader& anchor);

  /// Hash-chain anchor for block 0 (derived from the genesis state root);
  /// light clients seed their header chain with this.
  [[nodiscard]] crypto::Digest genesis_hash() const { return genesis_hash_; }

  /// Counters over block applications (assemble/validate/append) and
  /// execution-memo hits. Updated from const validation paths; like the memo
  /// itself, not meaningful if one chain is driven from several threads at
  /// once (replicas are single-threaded by design).
  [[nodiscard]] const ValidationStats& validation_stats() const { return vstats_; }

  /// Serialize every committed block (bootstrap/archive format).
  [[nodiscard]] Bytes export_blocks() const;
  /// Serialize the suffix starting at `from_height` (snapshot catch-up
  /// serves this instead of the full archive). Heights below base_height()
  /// are not held; the stream starts at max(from_height, base_height()).
  [[nodiscard]] Bytes export_blocks_from(std::int64_t from_height) const;
  /// Replay an exported stream from this chain's current height, fully
  /// re-validating each block. Stops at the first invalid block (the valid
  /// prefix stays committed). A stream whose framing is malformed (a forged
  /// count, a truncated frame, bytes after the last block) is rejected
  /// before any block is applied. Returns the number of blocks appended.
  [[nodiscard]] Result<std::size_t> import_blocks(
      std::span<const std::uint8_t> data);

 private:
  /// One-slot execution memo (DESIGN.md §7 "Execution memo"): the staged
  /// commit of the last block assemble() built or validate() accepted, keyed
  /// by everything execution depends on. The key is the exact digest list,
  /// not the tx root: a Merkle root with a duplicated odd last leaf matches
  /// two different lists.
  struct ExecutionMemo {
    crypto::Digest parent;
    std::int64_t height = 0;
    std::vector<crypto::Digest> tx_digests;
    StagedCommit staged;
  };

  /// The proof construction itself (prove_account minus queue admission).
  [[nodiscard]] Result<AccountProof> prove_account_now(
      crypto::Address addr, std::int64_t block_height) const;

  /// One retention-ring slot: how to revert the block at its height, plus
  /// the post-block commitment (reconstruction sanity anchor).
  struct Retained {
    StateUndo undo;
    StateCommitment commitment;
  };
  /// Roll `state`, which holds the tip's content, back through the ring to
  /// the post-state of block `height` (O(touched) per rolled-back block).
  /// `height` must be retained (commitment_at(height) is set).
  void roll_back(LedgerState& state, std::int64_t height) const;
  /// Reconstruct the post-state of block `height` by rolling a copy of the
  /// tip state back (O(state) copy + roll_back), checked against `expected`,
  /// the retained commitment. `height` must be retained.
  [[nodiscard]] Result<LedgerState> state_at(
      std::int64_t height, const StateCommitment& expected) const;

  /// The working state, or nullopt while the chain still *is* the genesis
  /// state (no committed blocks, no installed snapshot). state() reads
  /// through to *genesis_ in that case; mutable_state() materializes.
  [[nodiscard]] LedgerState& mutable_state();

  ChainConfig config_;
  std::shared_ptr<const ContractRegistry> contracts_;
  std::shared_ptr<const LedgerState> genesis_;
  std::optional<LedgerState> state_;
  crypto::Digest genesis_hash_;
  std::vector<Block> blocks_;
  std::int64_t base_height_ = 0;  ///< height of blocks_[0] (snapshot offset)
  crypto::Digest base_hash_;      ///< parent hash when blocks_ is empty
  /// Undo ring, oldest first; back() reverts the tip block. Capped at
  /// config.state_retention.
  std::deque<Retained> retained_;
  /// Commitment of the state the ring's oldest undo rolls back to (height
  /// tip - retained_.size()), so every height the ring can reach has its
  /// commitment. Set once a block leaves the ring or a snapshot installs.
  std::optional<StateCommitment> ring_floor_;
  mutable ValidationStats vstats_;
  mutable std::optional<ExecutionMemo> memo_;
  CommitHook commit_hook_;
};

}  // namespace mv::ledger
