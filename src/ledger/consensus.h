// Simulated PoA/BFT consensus over the message network.
//
// A fixed validator committee takes turns proposing (round-robin). A round:
//   1. the leader assembles a block from its mempool and broadcasts PROPOSE;
//   2. every validator that finds the block valid broadcasts VOTE;
//   3. a validator that has the block and a quorum (> 2/3) of distinct valid
//      votes commits the block to its replica.
// Catch-up: a validator that sees a proposal ahead of its own height pulls
// the missing blocks from the proposer (SYNC_REQ/SYNC_RESP), so replicas
// that missed commits (partition, loss) converge once connectivity returns.
// Delivery order, jitter, loss, and partitions come from net::Network, so the
// same code exercises both happy-path throughput (bench E7) and fault cases
// (tests: partitioned committee cannot commit; healed laggards catch up).
#pragma once

#include <map>
#include <optional>
#include <set>

#include "ledger/chain.h"
#include "ledger/mempool.h"
#include "net/network.h"

namespace mv::ledger {

/// One replica's vote for a block, as broadcast on the "vote" topic.
struct VoteMsg {
  std::int64_t height = 0;
  crypto::Digest block_hash{};
  crypto::PublicKey voter;
  crypto::Signature sig;

  [[nodiscard]] Bytes encode() const;
  /// Strict: the whole buffer must be one vote ("vote.trailing_bytes").
  [[nodiscard]] static Result<VoteMsg> decode(std::span<const std::uint8_t> bytes);
};

struct ConsensusStats {
  std::uint64_t rounds = 0;
  std::uint64_t committed_blocks = 0;
  std::uint64_t committed_txs = 0;
  std::uint64_t failed_rounds = 0;
  double total_commit_ticks = 0;  ///< summed leader-observed commit latency

  [[nodiscard]] double avg_commit_ticks() const {
    return committed_blocks ? total_commit_ticks / static_cast<double>(committed_blocks) : 0.0;
  }
};

class ValidatorCommittee {
 public:
  /// Creates `n` validators with fresh wallets, replicas of the same genesis,
  /// and nodes on `network`. `validation` (ValidationConfig) configures
  /// every replica's chain; each replica gets its own signature memo.
  ValidatorCommittee(net::Network& network, std::size_t n,
                     std::shared_ptr<const ContractRegistry> contracts,
                     const LedgerState& genesis, std::size_t max_txs_per_block,
                     Rng& rng, ValidationConfig validation = {});

  /// Client entry point: deliver a transaction to every validator's mempool
  /// (models the RPC edge; gossip of txs is exercised separately).
  void submit(const Transaction& tx);

  /// Drive one consensus round to completion or timeout. Returns true when a
  /// quorum committed the leader's block on every connected replica.
  bool run_round(Tick timeout = 1000);

  [[nodiscard]] std::size_t size() const { return validators_.size(); }
  [[nodiscard]] const Blockchain& chain(std::size_t i) const { return validators_[i].chain; }
  [[nodiscard]] const Mempool& mempool(std::size_t i) const { return validators_[i].mempool; }
  [[nodiscard]] const crypto::Wallet& wallet(std::size_t i) const { return validators_[i].wallet; }
  [[nodiscard]] NodeId node(std::size_t i) const { return validators_[i].node; }
  [[nodiscard]] const ConsensusStats& stats() const { return stats_; }

  /// Votes needed to commit: floor(2n/3) + 1.
  [[nodiscard]] std::size_t quorum() const { return validators_.size() * 2 / 3 + 1; }

  /// True when every validator's chain is at the same height with equal tips.
  [[nodiscard]] bool replicas_consistent() const;

 private:
  struct Validator {
    crypto::Wallet wallet;
    Blockchain chain;
    Mempool mempool;
    NodeId node;
    Rng rng;
    // Round-local: pending proposal and votes keyed by (height, block hash).
    std::optional<Block> pending;
    std::map<std::pair<std::int64_t, std::uint64_t>, std::set<std::uint64_t>> votes;
  };

  void on_message(std::size_t validator_index, const net::Message& msg);
  void handle_propose(Validator& v, const net::Message& msg);
  void handle_vote(Validator& v, const Bytes& payload);
  void handle_sync_request(Validator& v, const net::Message& msg);
  void handle_sync_response(Validator& v, const Bytes& payload);
  void serve_blocks(Validator& v, NodeId to, std::int64_t from_height);
  void try_commit(Validator& v);
  void broadcast_vote(Validator& v, const Block& block);

  net::Network& network_;
  std::vector<Validator> validators_;
  ConsensusStats stats_;
};

}  // namespace mv::ledger
