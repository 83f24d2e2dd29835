#include "ledger/consensus.h"

#include "common/logging.h"

namespace mv::ledger {

namespace {

Bytes vote_signing_bytes(std::int64_t height, const crypto::Digest& block_hash) {
  ByteWriter w;
  w.str("vote");
  w.i64(height);
  w.raw(block_hash);
  return w.take();
}

}  // namespace

Bytes VoteMsg::encode() const {
  ByteWriter w;
  w.i64(height);
  w.raw(block_hash);
  w.u64(voter.y);
  w.u64(sig.e);
  w.u64(sig.s);
  return w.take();
}

Result<VoteMsg> VoteMsg::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  VoteMsg v;
  v.height = r.i64();
  r.fixed(v.block_hash);
  v.voter.y = r.u64();
  v.sig.e = r.u64();
  v.sig.s = r.u64();
  return r.finish(v, "vote.trailing_bytes", "unparsed trailing vote data");
}

ValidatorCommittee::ValidatorCommittee(
    net::Network& network, std::size_t n,
    std::shared_ptr<const ContractRegistry> contracts,
    const LedgerState& genesis, std::size_t max_txs_per_block, Rng& rng,
    ValidationConfig validation)
    : network_(network) {
  // Wallets first: every replica needs the full proposer order.
  std::vector<crypto::Wallet> wallets;
  wallets.reserve(n);
  ChainConfig config;
  config.max_txs_per_block = max_txs_per_block;
  config.validation = validation;
  for (std::size_t i = 0; i < n; ++i) {
    wallets.emplace_back(rng);
    config.validators.push_back(wallets.back().public_key());
  }
  validators_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // One verified-signature memo per replica, shared between its mempool
    // and its chain: a tx verified at admission is vouched for at assembly
    // and commit (crypto/digest_lru.h).
    auto sig_cache = std::make_shared<crypto::DigestLruSet>();
    ChainConfig chain_config = config;
    chain_config.validation.sig_cache = sig_cache;
    MempoolConfig mempool_config;
    mempool_config.sig_cache = std::move(sig_cache);
    validators_.push_back(Validator{
        std::move(wallets[i]),
        Blockchain(std::move(chain_config), contracts, genesis),
        Mempool{mempool_config},
        NodeId::invalid(),
        rng.fork(),
        std::nullopt,
        {}});
    validators_.back().node = network_.add_node(
        [this, i](const net::Message& msg) { on_message(i, msg); });
  }
}

void ValidatorCommittee::submit(const Transaction& tx) {
  const Tick now = network_.clock().now();
  for (auto& v : validators_) {
    (void)v.mempool.add(tx, v.chain.state(), now);
  }
}

bool ValidatorCommittee::run_round(Tick timeout) {
  ++stats_.rounds;
  // Expire transactions that have lingered past their TTL (nonce-gapped or
  // priced out) before this round selects candidates.
  for (auto& v : validators_) {
    (void)v.mempool.sweep_expired(network_.clock().now());
  }
  // Rotation follows the committee's best height, so a lagging replica 0
  // cannot anchor leader election to a stale view.
  std::int64_t target_height = 0;
  for (const auto& v : validators_) {
    target_height = std::max(target_height, v.chain.height());
  }
  const std::size_t leader_index =
      static_cast<std::size_t>(target_height) % validators_.size();
  Validator& leader = validators_[leader_index];
  const Tick round_start = network_.clock().now();

  const auto candidates = leader.mempool.select(
      leader.chain.config().max_txs_per_block, leader.chain.state());
  const Block block = leader.chain.assemble(leader.wallet, candidates,
                                            round_start, leader.rng);
  // Encode the proposal once; the local delivery and every broadcast
  // recipient share the same buffer.
  const auto encoded = std::make_shared<const Bytes>(block.encode());
  net::Message self_propose;
  self_propose.from = leader.node;
  self_propose.to = leader.node;
  self_propose.topic = "propose";
  self_propose.payload_buf = encoded;
  handle_propose(leader, self_propose);
  network_.broadcast(leader.node, "propose", encoded);
  network_.run_until_idle(timeout);

  const bool committed = leader.chain.height() >= target_height + 1;
  if (committed) {
    ++stats_.committed_blocks;
    stats_.committed_txs += block.txs.size();
    stats_.total_commit_ticks +=
        static_cast<double>(network_.clock().now() - round_start);
  } else {
    ++stats_.failed_rounds;
  }
  return committed;
}

void ValidatorCommittee::on_message(std::size_t validator_index,
                                    const net::Message& msg) {
  Validator& v = validators_[validator_index];
  if (msg.topic == "propose") {
    handle_propose(v, msg);
  } else if (msg.topic == "vote") {
    handle_vote(v, msg.payload());
  } else if (msg.topic == "sync_req") {
    handle_sync_request(v, msg);
  } else if (msg.topic == "sync_resp") {
    handle_sync_response(v, msg.payload());
  }
}

void ValidatorCommittee::handle_propose(Validator& v, const net::Message& msg) {
  auto block = Block::decode(msg.payload());
  if (!block.ok()) return;
  if (block.value().header.height > v.chain.height()) {
    // We are behind (missed commits during a partition): pull the missing
    // blocks from whoever is ahead, starting at our own height.
    ByteWriter w;
    w.i64(v.chain.height());
    network_.broadcast(v.node, "sync_req", w.take());
    return;
  }
  if (block.value().header.height < v.chain.height()) {
    // The proposer itself is behind: ship it the blocks it missed so the
    // next round's leader rotation is computed from a caught-up replica.
    serve_blocks(v, msg.from, block.value().header.height);
    return;
  }
  if (!v.chain.validate(block.value()).ok()) {
    MV_LOG_DEBUG << "validator rejected proposal at height "
                 << block.value().header.height;
    return;
  }
  v.pending = std::move(block).value();
  broadcast_vote(v, *v.pending);
  try_commit(v);
}

void ValidatorCommittee::serve_blocks(Validator& v, NodeId to,
                                      std::int64_t from_height) {
  for (std::int64_t h = std::max(v.chain.base_height(), from_height);
       h < v.chain.height(); ++h) {
    network_.send(v.node, to, "sync_resp", v.chain.block_at(h)->encode());
  }
}

void ValidatorCommittee::handle_sync_request(Validator& v,
                                             const net::Message& msg) {
  ByteReader r(msg.payload());
  const std::int64_t from_height = r.i64();
  if (!r.finish().ok()) return;
  serve_blocks(v, msg.from, from_height);
}

void ValidatorCommittee::handle_sync_response(Validator& v, const Bytes& payload) {
  auto block = Block::decode(payload);
  if (!block.ok()) return;
  if (block.value().header.height != v.chain.height()) return;  // stale/dup
  if (v.chain.append(block.value()).ok()) {
    v.mempool.remove_included(block.value().txs);
    v.mempool.prune(v.chain.state());
  }
}

void ValidatorCommittee::broadcast_vote(Validator& v, const Block& block) {
  VoteMsg vote;
  vote.height = block.header.height;
  vote.block_hash = block.header.hash();
  vote.voter = v.wallet.public_key();
  vote.sig = v.wallet.sign(vote_signing_bytes(vote.height, vote.block_hash), v.rng);
  const auto encoded = std::make_shared<const Bytes>(vote.encode());
  // Count our own vote, then tell everyone else.
  handle_vote(v, *encoded);
  network_.broadcast(v.node, "vote", encoded);
}

void ValidatorCommittee::handle_vote(Validator& v, const Bytes& payload) {
  auto vote = VoteMsg::decode(payload);
  if (!vote.ok()) return;
  const VoteMsg& m = vote.value();
  // The voter must belong to the committee and the signature must verify.
  bool known = false;
  for (const auto& pub : v.chain.config().validators) {
    if (pub == m.voter) {
      known = true;
      break;
    }
  }
  if (!known) return;
  if (!crypto::verify(m.voter, vote_signing_bytes(m.height, m.block_hash), m.sig)) {
    return;
  }
  v.votes[{m.height, crypto::digest_prefix64(m.block_hash)}].insert(m.voter.y);
  try_commit(v);
}

void ValidatorCommittee::try_commit(Validator& v) {
  if (!v.pending.has_value()) return;
  const crypto::Digest hash = v.pending->header.hash();
  const auto key = std::make_pair(v.pending->header.height,
                                  crypto::digest_prefix64(hash));
  const auto it = v.votes.find(key);
  if (it == v.votes.end() || it->second.size() < quorum()) return;
  if (v.chain.append(*v.pending).ok()) {
    v.mempool.remove_included(v.pending->txs);
    v.mempool.prune(v.chain.state());
  }
  v.pending.reset();
  // Garbage-collect vote sets for heights now below the chain tip.
  std::erase_if(v.votes, [&](const auto& entry) {
    return entry.first.first < v.chain.height();
  });
}

bool ValidatorCommittee::replicas_consistent() const {
  for (std::size_t i = 1; i < validators_.size(); ++i) {
    if (validators_[i].chain.height() != validators_[0].chain.height()) return false;
    if (validators_[i].chain.tip_hash() != validators_[0].chain.tip_hash()) return false;
  }
  return true;
}

}  // namespace mv::ledger
