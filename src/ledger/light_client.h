// Light client: header-chain follower + account proof verification.
//
// The paper's audit registry (§II-D, §III-B) only delivers accountability if
// a user can check what the chain claims about them without trusting a full
// node. A light client holds just the block headers (32-byte state roots and
// proposer signatures) and verifies served account proofs against them — no
// transaction replay, no LedgerState.
//
// The trust chain, link by link:
//   header.height/prev_hash  — hash-chain linkage back to the known genesis
//   header.proposer_pub/sig  — round-robin PoA proposer actually signed it
//   proof.commitment         — section digests recombine to header.state_root
//   proof.proof              — Merkle path from the account leaf (or a
//                              non-membership path) to commitment.accounts_root
//
// Wire formats are specified in DESIGN.md §"Account proofs & light client".
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/merkle_map.h"
#include "crypto/wallet.h"
#include "ledger/block.h"
#include "ledger/state.h"

namespace mv::ledger {

/// What a full node asserts about one account at one height.
struct AccountStatement {
  bool exists = false;       ///< account leaf present in the accounts trie
  bool has_balance = false;  ///< balance entry present (nonce may still be set)
  std::uint64_t balance = 0;
  std::uint64_t nonce = 0;

  [[nodiscard]] bool operator==(const AccountStatement&) const = default;
};

/// Self-contained, serializable account proof served by a full node.
///
/// Carries the full StateCommitment section breakdown because block headers
/// commit only to the combined root: the verifier recombines the sections
/// (combine_commitment_root) to check them against header.state_root, then
/// walks the Merkle path under commitment.accounts_root.
struct AccountProof {
  crypto::Address address;
  std::int64_t height = 0;  ///< block height the proof is anchored at
  AccountStatement statement;
  StateCommitment commitment;
  crypto::MerkleMapProof proof;

  [[nodiscard]] Bytes encode() const;
  /// Strict decode: rejects trailing bytes and malformed embedded proofs.
  /// `commitment.root` is recombined from the sections, never read off the
  /// wire — a served root that disagrees with its sections cannot survive.
  [[nodiscard]] static Result<AccountProof> decode(std::span<const std::uint8_t> bytes);
};

/// Verify `ap` against a trusted state root (e.g. a checked header's
/// state_root). Confirms the commitment sections recombine to `state_root`,
/// the statement is internally consistent, and the Merkle path proves the
/// claimed leaf (or non-membership) under commitment.accounts_root.
[[nodiscard]] Status verify_account_proof(const AccountProof& ap,
                                          const crypto::Digest& state_root);

struct LightClientConfig {
  std::vector<crypto::PublicKey> validators;  ///< round-robin proposer order
  crypto::Digest genesis_hash{};              ///< prev_hash of block 0
};

/// Follows the header chain and audits account statements against it.
/// Holds headers only — never a LedgerState.
class LightClient {
 public:
  explicit LightClient(LightClientConfig config) : config_(std::move(config)) {}

  /// Accept the next header: height must extend the chain, prev_hash must
  /// link (to genesis_hash for block 0), and the round-robin proposer for
  /// that height must have signed it.
  [[nodiscard]] Status accept_header(const BlockHeader& header);

  /// Number of accepted headers; the next accepted header has this height.
  [[nodiscard]] std::int64_t height() const {
    return static_cast<std::int64_t>(headers_.size());
  }
  [[nodiscard]] const BlockHeader* header_at(std::int64_t h) const;
  /// Hash of the newest accepted header (genesis_hash when empty).
  [[nodiscard]] crypto::Digest tip_hash() const;

  /// Verify an account proof against the accepted header at proof.height and
  /// return the now-trustworthy statement.
  [[nodiscard]] Result<AccountStatement> verify_account(
      const AccountProof& ap) const;

 private:
  LightClientConfig config_;
  std::vector<BlockHeader> headers_;
};

}  // namespace mv::ledger
