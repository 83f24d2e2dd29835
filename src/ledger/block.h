// Blocks: ordered batches of transactions committed by consensus.
//
// The header commits to the parent (hash chain), the transaction set (Merkle
// root), and the post-state (state root), and is signed by the proposer.
#pragma once

#include <vector>

#include "common/clock.h"
#include "crypto/merkle.h"
#include "crypto/wallet.h"
#include "ledger/transaction.h"

namespace mv::ledger {

struct BlockHeader {
  std::int64_t height = 0;
  crypto::Digest prev_hash{};
  crypto::Digest tx_root{};     ///< Merkle root over tx digests
  crypto::Digest state_root{};  ///< StateCommitment root after applying the block
  Tick timestamp = 0;
  crypto::PublicKey proposer_pub;
  crypto::Signature proposer_sig;

  /// Bytes covered by the proposer signature (everything except the sig).
  [[nodiscard]] Bytes signing_bytes() const;
  [[nodiscard]] Bytes encode() const;
  /// Strict inverse of encode(): the whole buffer must be one header.
  /// Subscription pushes and block decoding both parse headers through this.
  [[nodiscard]] static Result<BlockHeader> decode(std::span<const std::uint8_t> bytes);
  [[nodiscard]] crypto::Digest hash() const;
  [[nodiscard]] crypto::Address proposer() const {
    return crypto::address_of(proposer_pub);
  }
};

struct Block {
  BlockHeader header;
  std::vector<Transaction> txs;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<Block> decode(std::span<const std::uint8_t> bytes);

  /// Merkle root over the digests of `txs` (order-sensitive).
  [[nodiscard]] static crypto::Digest compute_tx_root(
      const std::vector<Transaction>& txs);
  /// Merkle tree over the block's transactions, for inclusion proofs.
  [[nodiscard]] crypto::MerkleTree tx_tree() const;
};

}  // namespace mv::ledger
