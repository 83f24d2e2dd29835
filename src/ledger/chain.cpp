#include "ledger/chain.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

namespace mv::ledger {

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

namespace {
std::vector<crypto::Digest> tx_digests(const std::vector<Transaction>& txs) {
  std::vector<crypto::Digest> out;
  out.reserve(txs.size());
  for (const auto& tx : txs) out.push_back(tx.digest());
  return out;
}
}  // namespace

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
      config_.validation.sig_cache.get(), ApplyMode::kSkipFailures,
      config_.max_txs_per_block);
  vstats_.record(outcome);
  std::vector<crypto::Digest> applied;
  applied.reserve(outcome.applied.size());
  for (const std::size_t i : outcome.applied) {
    block.txs.push_back(candidates[i]);
    applied.push_back(digests[i]);
  }
  block.header.tx_root = crypto::MerkleTree(applied).root();
  StagedCommit staged = state().stage(std::move(scratch), wants_undo());
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
  // exact tx list, so a memo with this key already holds its result — unless
  // it was staged without the undo a commit now needs (a hook set since).
  const bool hit = memo_.has_value() && memo_->parent == h.prev_hash &&
                   memo_->height == h.height && memo_->tx_digests == digests &&
                   (memo_->staged.undo.has_value() || !wants_undo());
  crypto::Digest root;
  if (hit) {
    ++vstats_.memo_hits;
    root = memo_->staged.commitment.root;
  } else {
    auto scratch = LedgerStateOverlay::reader(state());
    const auto outcome = apply_block(scratch, block.txs, digests, *contracts_,
                                     h.height, config_.validation.sig_cache.get(),
                                     ApplyMode::kAllOrNothing);
    vstats_.record(outcome);
    if (!outcome.status.ok()) {
      return Status::fail("block.bad_tx",
                          "tx " + std::to_string(outcome.failed_index) + ": " +
                              outcome.status.error().to_string());
    }
    StagedCommit staged = state().stage(std::move(scratch), wants_undo());
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
  StateUndo undo = staged.undo.has_value() ? std::move(*staged.undo) : StateUndo{};
  const StateCommitment commitment = staged.commitment;
  state.install(std::move(staged));
  blocks_.push_back(block);
  if (commit_hook_) commit_hook_(block, undo);
  if (config_.state_retention > 0) {
    retained_.push_back(Retained{std::move(undo), commitment});
    if (retained_.size() > config_.state_retention) {
      // The slot leaving the ring holds the post-state the oldest remaining
      // undo rolls back to: keep its commitment.
      ring_floor_ = retained_.front().commitment;
      retained_.pop_front();
    }
  }
  return {};
}

bool Blockchain::retains(std::int64_t height) const {
  const std::int64_t tip = this->height() - 1;
  if (height > tip) return false;
  if (height == tip) return true;  // the tip state is state_ itself
  // Rolling back to `height` consumes the undos of blocks (height, tip].
  return tip - height <= static_cast<std::int64_t>(retained_.size());
}

const StateCommitment* Blockchain::commitment_at(std::int64_t height) const {
  const std::int64_t tip = this->height() - 1;
  const std::int64_t back = tip - height;  // slots behind the ring's back()
  const auto size = static_cast<std::int64_t>(retained_.size());
  if (height > tip || back > size) return nullptr;
  if (back == size) return ring_floor_.has_value() ? &*ring_floor_ : nullptr;
  return &retained_[retained_.size() - 1 - static_cast<std::size_t>(back)].commitment;
}

Result<LedgerState> Blockchain::state_at(std::int64_t height) const {
  const std::int64_t tip = this->height() - 1;
  LedgerState state = this->state();
  for (std::int64_t h = tip; h > height; --h) {
    const std::size_t slot =
        retained_.size() - 1 - static_cast<std::size_t>(tip - h);
    state.apply_undo(retained_[slot].undo);
  }
  // Sanity anchor: the retained commitment for `height` must be reproduced
  // exactly.
  if (const StateCommitment* expected = commitment_at(height);
      expected == nullptr || state.commitment() != *expected) {
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
  if (!retains(block_height)) {
    return make_error(errc::kChainStaleHeight,
                      "height " + std::to_string(block_height) +
                          " is beyond the retention window (tip " +
                          std::to_string(height() - 1) + ", retention " +
                          std::to_string(config_.state_retention) + ")");
  }
  if (block_height == height() - 1) {
    return make_account_proof(state(), addr, block_height);
  }
  auto state = state_at(block_height);
  if (!state.ok()) return state.error();
  return make_account_proof(state.value(), addr, block_height);
}

Result<Snapshot> Blockchain::export_snapshot(std::int64_t height,
                                             std::size_t chunk_size) const {
  if (height < 0 || height >= this->height()) {
    return make_error(errc::kChainBadHeight, "no such block");
  }
  if (!retains(height)) {
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
  const StateCommitment* commitment = commitment_at(height);
  if (commitment == nullptr) {
    return make_error(errc::kChainRetentionCorrupt,
                      "retained height has no retained commitment");
  }
  LedgerState content = state().content_clone();
  const std::int64_t tip = this->height() - 1;
  for (std::int64_t h = tip; h > height; --h) {
    const std::size_t slot =
        retained_.size() - 1 - static_cast<std::size_t>(tip - h);
    content.apply_undo(retained_[slot].undo);
  }
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
  if (config_.state_retention > 0) ring_floor_ = manifest.commitment;
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
