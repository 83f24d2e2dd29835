#include "ledger/chain.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

namespace mv::ledger {

namespace {

// Block application (DESIGN.md §7 "Block application"): a block's
// transactions applied one by one, in block order, on the calling thread,
// with the verified-signature memo consulted before each signature check.

enum class ApplyMode {
  kAllOrNothing,  ///< validation: first failure rejects the whole block
  kSkipFailures,  ///< assembly: failed candidates are dropped, rest proceed
};

/// Outcome of apply_block(). `status`/`failed_index` are meaningful in
/// kAllOrNothing mode; `applied` lists the indices applied (ascending), which
/// in kSkipFailures mode is the assembled block's content.
struct BlockApplyOutcome {
  Status status;
  std::size_t failed_index = 0;
  std::vector<std::size_t> applied;
  // Both zero when no sig_cache is configured (cacheless verification is
  // not counted).
  std::size_t sig_hits = 0;    ///< signatures vouched for by the sig cache
  std::size_t sig_misses = 0;  ///< cache misses verified afresh
};

/// Apply `txs` onto `scratch` one by one, in order. `digests[i]` is
/// `txs[i].digest()`, which the caller already computed for the tx root.
/// Each signature is looked up in `sig_cache` (when non-null) first; a miss
/// is verified here and, if valid, remembered. An invalid signature is left
/// to apply(), which re-verifies and produces the authoritative error.
/// kAllOrNothing stops at the first failure; kSkipFailures drops failures
/// and stops once `max_applied` transactions have applied. The outcome is
/// counted in `stats`.
BlockApplyOutcome apply_block(
    LedgerStateOverlay& scratch, const std::vector<Transaction>& txs,
    std::span<const crypto::Digest> digests, const ContractRegistry& contracts,
    Tick height, crypto::DigestLruSet* sig_cache, ApplyMode mode,
    ValidationStats& stats,
    std::size_t max_applied = std::numeric_limits<std::size_t>::max()) {
  BlockApplyOutcome out;
  for (std::size_t i = 0; i < txs.size() && out.applied.size() < max_applied;
       ++i) {
    const Transaction& tx = txs[i];
    bool preverified = false;
    if (sig_cache != nullptr) {
      const crypto::Digest& digest = digests[i];
      if (sig_cache->contains_and_touch(digest)) {
        preverified = true;
        ++out.sig_hits;
      } else {
        ++out.sig_misses;
        preverified = tx.signature_valid();
        if (preverified) sig_cache->insert(digest);
      }
    }
    if (Status s = scratch.apply(tx, contracts, height, preverified); s.ok()) {
      out.applied.push_back(i);
    } else if (mode == ApplyMode::kAllOrNothing) {
      out.status = std::move(s);
      out.failed_index = i;
      break;
    }
  }
  ++stats.applies;
  stats.sig_cache_hits += out.sig_hits;
  stats.sig_cache_misses += out.sig_misses;
  return out;
}

std::vector<crypto::Digest> tx_digests(const std::vector<Transaction>& txs) {
  std::vector<crypto::Digest> out;
  out.reserve(txs.size());
  for (const auto& tx : txs) out.push_back(tx.digest());
  return out;
}

}  // namespace

Blockchain::Blockchain(ChainConfig config,
                       std::shared_ptr<const ContractRegistry> contracts,
                       LedgerState genesis)
    : Blockchain(std::move(config), std::move(contracts),
                 std::make_shared<const LedgerState>(std::move(genesis))) {}

Blockchain::Blockchain(ChainConfig config,
                       std::shared_ptr<const ContractRegistry> contracts,
                       std::shared_ptr<const LedgerState> genesis)
    : config_(std::move(config)),
      contracts_(std::move(contracts)),
      genesis_(std::move(genesis)) {
  if (genesis_ == nullptr) {
    throw std::invalid_argument("Blockchain: null genesis state");
  }
  if (config_.validators.empty()) {
    throw std::invalid_argument("Blockchain: empty validator set");
  }
  if (config_.state_retention == 0) {
    throw std::invalid_argument("Blockchain: state_retention must be at least 1");
  }
  ByteWriter w;
  w.str("genesis");
  w.raw(genesis_->commitment().root);
  genesis_hash_ = crypto::sha256(w.data());
  base_hash_ = genesis_hash_;
}

LedgerState& Blockchain::mutable_state() {
  if (!state_.has_value()) state_ = *genesis_;
  return *state_;
}

crypto::Digest Blockchain::tip_hash() const {
  return blocks_.empty() ? base_hash_ : blocks_.back().header.hash();
}

const Block* Blockchain::block_at(std::int64_t height) const {
  if (height < base_height_ || height >= this->height()) return nullptr;
  return &blocks_[static_cast<std::size_t>(height - base_height_)];
}

const crypto::PublicKey& Blockchain::expected_proposer(std::int64_t height) const {
  return config_.validators[static_cast<std::size_t>(height) %
                            config_.validators.size()];
}

Block Blockchain::assemble(const crypto::Wallet& proposer,
                           const std::vector<Transaction>& candidates,
                           Tick timestamp, Rng& rng) const {
  Block block;
  block.header.height = height();
  block.header.prev_hash = tip_hash();
  block.header.timestamp = timestamp;
  block.header.proposer_pub = proposer.public_key();

  // The block holds the first max_txs_per_block candidates that apply.
  const auto digests = tx_digests(candidates);
  auto scratch = LedgerStateOverlay::reader(state());
  const auto outcome = apply_block(
      scratch, candidates, digests, *contracts_, block.header.height,
      config_.validation.sig_cache.get(), ApplyMode::kSkipFailures, vstats_,
      config_.max_txs_per_block);
  std::vector<crypto::Digest> applied;
  applied.reserve(outcome.applied.size());
  for (const std::size_t i : outcome.applied) {
    block.txs.push_back(candidates[i]);
    applied.push_back(digests[i]);
  }
  block.header.tx_root = crypto::MerkleTree(applied).root();
  StagedCommit staged = state().stage(std::move(scratch));
  block.header.state_root = staged.commitment.root;
  block.header.proposer_sig = proposer.sign(block.header.signing_bytes(), rng);
  memo_ = ExecutionMemo{block.header.prev_hash, block.header.height,
                        std::move(applied), std::move(staged)};
  return block;
}

Status Blockchain::validate(const Block& block) const {
  const auto& h = block.header;
  if (h.height != height()) {
    return Status::fail("block.bad_height",
                        "expected " + std::to_string(height()));
  }
  if (h.prev_hash != tip_hash()) {
    return Status::fail("block.bad_parent", "prev_hash does not match tip");
  }
  if (h.proposer_pub != expected_proposer(h.height)) {
    return Status::fail("block.wrong_proposer",
                        "not this round's proposer (PoA round-robin)");
  }
  if (!crypto::verify(h.proposer_pub, h.signing_bytes(), h.proposer_sig)) {
    return Status::fail("block.bad_proposer_sig", "header signature invalid");
  }
  if (block.txs.size() > config_.max_txs_per_block) {
    return Status::fail("block.too_many_txs", "exceeds max_txs_per_block");
  }
  auto digests = tx_digests(block.txs);
  if (h.tx_root != crypto::MerkleTree(digests).root()) {
    return Status::fail("block.bad_tx_root", "Merkle root mismatch");
  }
  // Execution is a deterministic function of parent state, height and the
  // exact tx list, so a memo with this key already holds its result.
  const bool hit = memo_.has_value() && memo_->parent == h.prev_hash &&
                   memo_->height == h.height && memo_->tx_digests == digests;
  crypto::Digest root;
  if (hit) {
    ++vstats_.memo_hits;
    root = memo_->staged.commitment.root;
  } else {
    auto scratch = LedgerStateOverlay::reader(state());
    const auto outcome = apply_block(scratch, block.txs, digests, *contracts_,
                                     h.height, config_.validation.sig_cache.get(),
                                     ApplyMode::kAllOrNothing, vstats_);
    if (!outcome.status.ok()) {
      return Status::fail("block.bad_tx",
                          "tx " + std::to_string(outcome.failed_index) + ": " +
                              outcome.status.error().to_string());
    }
    StagedCommit staged = state().stage(std::move(scratch));
    root = staged.commitment.root;
    if (root == h.state_root) {
      memo_ = ExecutionMemo{h.prev_hash, h.height, std::move(digests),
                            std::move(staged)};
    }
  }
  if (root != h.state_root) {
    return Status::fail("block.bad_state_root", "post-state mismatch");
  }
  return {};
}

Status Blockchain::append(const Block& block) {
  if (auto s = validate(block); !s.ok()) return s;
  // validate() left this block's stage in the memo. On the first committed
  // block it was staged over the shared genesis and installs onto the
  // working copy materialized here, which has equal content.
  LedgerState& state = mutable_state();
  StagedCommit staged = std::move(memo_->staged);
  memo_.reset();
  // The inverse delta feeds the retention ring that serves historical proofs
  // and snapshot export, and tells the commit hook which accounts/stores the
  // block touched.
  Retained slot{std::move(staged.undo), staged.commitment};
  state.install(std::move(staged));
  blocks_.push_back(block);
  if (commit_hook_) commit_hook_(block, slot.undo);
  retained_.push_back(std::move(slot));
  if (retained_.size() > config_.state_retention) {
    // The slot leaving the ring holds the post-state the oldest remaining
    // undo rolls back to: keep its commitment.
    ring_floor_ = retained_.front().commitment;
    retained_.pop_front();
  }
  return {};
}

const StateCommitment* Blockchain::commitment_at(std::int64_t height) const {
  const std::int64_t tip = this->height() - 1;
  const std::int64_t back = tip - height;  // slots behind the ring's back()
  const auto size = static_cast<std::int64_t>(retained_.size());
  if (height > tip || back > size) return nullptr;
  if (back == size) return ring_floor_.has_value() ? &*ring_floor_ : nullptr;
  return &retained_[retained_.size() - 1 - static_cast<std::size_t>(back)].commitment;
}

void Blockchain::roll_back(LedgerState& state, std::int64_t height) const {
  // The undos of blocks (height, tip] are the ring's last tip - height slots,
  // applied newest first.
  const auto steps = static_cast<std::size_t>(this->height() - 1 - height);
  for (std::size_t i = 1; i <= steps; ++i) {
    state.apply_undo(retained_[retained_.size() - i].undo);
  }
}

Result<LedgerState> Blockchain::state_at(std::int64_t height,
                                         const StateCommitment& expected) const {
  LedgerState state = this->state();
  roll_back(state, height);
  // Sanity anchor: the retained commitment must be reproduced exactly.
  if (state.commitment() != expected) {
    return make_error(errc::kChainRetentionCorrupt,
                      "rolled-back state does not match retained commitment");
  }
  return state;
}

Result<crypto::MerkleProof> Blockchain::prove_tx(std::int64_t block_height,
                                                 std::size_t tx_index) const {
  if (block_height < 0 || block_height >= height()) {
    return make_error(errc::kChainBadHeight, "no such block");
  }
  const Block* block = block_at(block_height);
  if (block == nullptr) {
    return make_error(errc::kChainPrunedHeight,
                      "block below the snapshot base is not held");
  }
  if (tx_index >= block->txs.size()) {
    return make_error(errc::kChainBadTxIndex, "no such transaction");
  }
  return block->tx_tree().prove(tx_index);
}

namespace {
/// Fill an AccountProof from any state that holds `addr`'s section.
AccountProof make_account_proof(const LedgerState& state, crypto::Address addr,
                                std::int64_t block_height) {
  AccountProof ap;
  ap.address = addr;
  ap.height = block_height;
  const Account acc = state.account(addr);
  ap.statement.has_balance = acc.has_balance;
  ap.statement.balance = acc.balance;
  ap.statement.nonce = acc.nonce;
  ap.statement.exists = acc.exists();
  ap.commitment = state.commitment();
  ap.proof = state.prove_account(addr);
  return ap;
}
}  // namespace

Result<AccountProof> Blockchain::prove_account(crypto::Address addr,
                                               std::int64_t block_height) const {
  // Client proof queries ride the lowest-priority lane of the job queue when
  // one is configured: under overload they are the first traffic shed, and a
  // shed query answers immediately with chain.overloaded instead of queueing
  // behind consensus work. Without a queue (or inline) behaviour is
  // unchanged.
  if (JobQueue* queue = config_.validation.job_queue.get(); queue != nullptr) {
    std::optional<Result<AccountProof>> out;
    const bool ran = queue->run(JobClass::kClientQuery, [&] {
      out = prove_account_now(addr, block_height);
    });
    if (!ran) {
      return make_error(errc::kChainOverloaded,
                        "client query shed by the job queue (class " +
                            std::string(job_class_name(JobClass::kClientQuery)) +
                            " over its ceiling)");
    }
    return std::move(*out);
  }
  return prove_account_now(addr, block_height);
}

Result<AccountProof> Blockchain::prove_account_now(
    crypto::Address addr, std::int64_t block_height) const {
  if (block_height < 0 || block_height >= height()) {
    return make_error(errc::kChainBadHeight, "no such block");
  }
  const StateCommitment* retained = commitment_at(block_height);
  if (retained == nullptr) {
    return make_error(errc::kChainStaleHeight,
                      "height " + std::to_string(block_height) +
                          " is beyond the retention window (tip " +
                          std::to_string(height() - 1) + ", retention " +
                          std::to_string(config_.state_retention) + ")");
  }
  if (block_height == height() - 1) {
    return make_account_proof(state(), addr, block_height);
  }
  auto state = state_at(block_height, *retained);
  if (!state.ok()) return state.error();
  return make_account_proof(state.value(), addr, block_height);
}

Result<Snapshot> Blockchain::export_snapshot(std::int64_t height,
                                             std::size_t chunk_size) const {
  if (height < 0 || height >= this->height()) {
    return make_error(errc::kChainBadHeight, "no such block");
  }
  const StateCommitment* commitment = commitment_at(height);
  if (commitment == nullptr) {
    return make_error(errc::kChainStaleHeight,
                      "height " + std::to_string(height) +
                          " is beyond the retention window");
  }
  if (height == this->height() - 1) {
    return build_snapshot(state(), height, chunk_size);
  }
  // Historical export: roll the undo ring back over a content-only copy (no
  // O(state) Merkle-tree clone) and take the manifest commitment from the
  // retention ring, which holds the commitment of every height it reaches.
  // The receiver's trust chain (header.state_root == manifest root →
  // per-chunk digests → decoded-state commitment re-check) verifies the
  // result end to end, so a corrupt ring cannot produce an
  // installable-but-wrong snapshot — it produces one every receiver rejects.
  LedgerState content = state().content_clone();
  roll_back(content, height);
  return build_snapshot(content, height, *commitment, chunk_size);
}

Status Blockchain::init_from_snapshot(const SnapshotManifest& manifest,
                                      const std::vector<Bytes>& chunks,
                                      const BlockHeader& anchor) {
  if (height() != 0) {
    return Status::fail(errc::kChainNotFresh,
                        "snapshot install requires a chain with no blocks");
  }
  // Defense in depth: the caller is expected to have walked the header chain
  // (LightClient), but the anchor is cheap to re-check against this chain's
  // own validator schedule before any state is installed.
  if (anchor.height != manifest.height || anchor.height < 0) {
    return Status::fail(errc::kChainBadAnchor,
                        "anchor header height does not match the manifest");
  }
  if (anchor.proposer_pub != expected_proposer(anchor.height)) {
    return Status::fail(errc::kChainBadAnchor, "anchor proposer not in schedule");
  }
  if (!crypto::verify(anchor.proposer_pub, anchor.signing_bytes(),
                      anchor.proposer_sig)) {
    return Status::fail(errc::kChainBadAnchor, "anchor header signature invalid");
  }
  if (anchor.state_root != manifest.commitment.root) {
    return Status::fail(errc::kChainBadAnchor,
                        "anchor state_root does not match the manifest");
  }
  auto state = assemble_snapshot(manifest, chunks);
  if (!state.ok()) {
    return Status::fail(state.error().code, state.error().message);
  }
  state_ = std::move(state).value();
  base_height_ = anchor.height + 1;
  base_hash_ = anchor.hash();
  retained_.clear();
  // The installed state is what the first retained undo will roll back to.
  ring_floor_ = manifest.commitment;
  memo_.reset();
  return {};
}

Bytes Blockchain::export_blocks() const { return export_blocks_from(base_height_); }

Bytes Blockchain::export_blocks_from(std::int64_t from_height) const {
  const std::int64_t start = std::clamp(from_height, base_height_, height());
  const auto begin = static_cast<std::size_t>(start - base_height_);
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(blocks_.size() - begin));
  for (std::size_t i = begin; i < blocks_.size(); ++i) {
    w.bytes(blocks_[i].encode());
  }
  return w.take();
}

Result<std::size_t> Blockchain::import_blocks(std::span<const std::uint8_t> data) {
  // The framing is checked whole before the first block is applied, so a
  // stream with a forged count or trailing bytes changes nothing.
  ByteReader r(data);
  const std::size_t count = r.count(SIZE_MAX, 4, errc::kChainBadBlockCount);
  std::vector<std::span<const std::uint8_t>> frames;
  frames.reserve(count);
  for (std::size_t i = 0; i < count && r.ok(); ++i) frames.push_back(r.nested());
  if (auto s = r.finish(errc::kChainBadBlockCount, "bytes after the last block");
      !s.ok()) {
    return s.error();
  }
  std::size_t appended = 0;
  for (const auto frame : frames) {
    auto block = Block::decode(frame);
    if (!block.ok()) return block.error();
    // Skip blocks we already have (replaying a full archive onto a node
    // that is partially synced).
    if (block.value().header.height < height()) continue;
    if (auto s = append(block.value()); !s.ok()) {
      return make_error(s.error().code,
                        "import stopped at height " +
                            std::to_string(block.value().header.height) + ": " +
                            s.error().message);
    }
    ++appended;
  }
  return appended;
}

bool Blockchain::verify_tx_inclusion(std::int64_t block_height,
                                     const crypto::Digest& tx_digest,
                                     const crypto::MerkleProof& proof) const {
  const Block* block = block_at(block_height);
  if (block == nullptr) return false;
  return crypto::MerkleTree::verify(tx_digest, proof, block->header.tx_root);
}

}  // namespace mv::ledger
