#include "ledger/light_client.h"

#include <algorithm>
#include <string>

namespace mv::ledger {

// ------------------------------------------------------------ AccountProof

Bytes AccountProof::encode() const {
  ByteWriter w;
  w.u64(address.value);
  w.i64(height);
  w.u8(statement.exists ? 1 : 0);
  w.u8(statement.has_balance ? 1 : 0);
  w.u64(statement.balance);
  w.u64(statement.nonce);
  write_commitment_sections(w, commitment);
  w.bytes(proof.encode());
  return w.take();
}

Result<AccountProof> AccountProof::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  AccountProof ap;
  ap.address.value = r.u64();
  ap.height = r.i64();
  const std::uint8_t exists = r.u8();
  const std::uint8_t has_balance = r.u8();
  r.require(exists <= 1 && has_balance <= 1, "proof.bad_statement",
            "flag byte is not 0 or 1");
  ap.statement.exists = exists == 1;
  ap.statement.has_balance = has_balance == 1;
  ap.statement.balance = r.u64();
  ap.statement.nonce = r.u64();
  ap.commitment = read_commitment_sections(r);
  ap.proof = r.take(crypto::MerkleMapProof::decode(r.nested()));
  return r.finish(std::move(ap), "proof.trailing_bytes",
                  "unconsumed bytes after proof");
}

Status verify_account_proof(const AccountProof& ap,
                            const crypto::Digest& state_root) {
  // 1. The served section breakdown must recombine to the trusted root.
  if (combine_commitment_root(ap.commitment) != state_root) {
    return Status::fail("proof.bad_commitment",
                        "commitment sections do not match the header state root");
  }
  // 2. The statement must be internally consistent with leaf existence: a
  //    leaf is materialized iff a balance entry is present or the nonce is
  //    nonzero (LedgerState::refresh_account_leaf).
  const AccountStatement& st = ap.statement;
  if (!st.exists && (st.has_balance || st.balance != 0 || st.nonce != 0)) {
    return Status::fail("proof.bad_statement",
                        "absent account must have zero balance and nonce");
  }
  if (st.exists && !st.has_balance && st.nonce == 0) {
    return Status::fail("proof.bad_statement",
                        "present account must have a balance entry or a nonce");
  }
  if (!st.has_balance && st.balance != 0) {
    return Status::fail("proof.bad_statement", "balance value without entry");
  }
  // 3. The Merkle path must prove the claimed leaf (or its absence) under
  //    the accounts root.
  const std::optional<crypto::Digest> leaf =
      st.exists ? std::optional<crypto::Digest>(account_leaf_digest(
                      st.has_balance, st.balance, st.nonce))
                : std::nullopt;
  if (!crypto::MerkleMap::verify(ap.commitment.accounts_root, ap.address.value,
                                 leaf, ap.proof)) {
    return Status::fail("proof.bad_path",
                        "Merkle path does not verify against accounts root");
  }
  return {};
}

// ------------------------------------------------------------- LightClient

Status LightClient::accept_header(const BlockHeader& header) {
  if (header.height != height()) {
    return Status::fail("light.bad_height",
                        "expected height " + std::to_string(height()) + " got " +
                            std::to_string(header.height));
  }
  const crypto::Digest expected_prev =
      headers_.empty() ? config_.genesis_hash : headers_.back().hash();
  if (header.prev_hash != expected_prev) {
    return Status::fail("light.bad_parent", "prev_hash does not link to tip");
  }
  if (config_.validators.empty()) {
    return Status::fail("light.no_validators", "validator set is empty");
  }
  const auto idx = static_cast<std::size_t>(header.height) %
                   config_.validators.size();
  if (header.proposer_pub.y != config_.validators[idx].y) {
    return Status::fail("light.wrong_proposer",
                        "header not signed by the scheduled proposer");
  }
  const Bytes msg = header.signing_bytes();
  if (!crypto::verify(header.proposer_pub, msg, header.proposer_sig)) {
    return Status::fail("light.bad_proposer_sig", "proposer signature invalid");
  }
  headers_.push_back(header);
  return {};
}

const BlockHeader* LightClient::header_at(std::int64_t h) const {
  if (h < 0 || h >= height()) return nullptr;
  return &headers_[static_cast<std::size_t>(h)];
}

crypto::Digest LightClient::tip_hash() const {
  return headers_.empty() ? config_.genesis_hash : headers_.back().hash();
}

Result<AccountStatement> LightClient::verify_account(
    const AccountProof& ap) const {
  const BlockHeader* header = header_at(ap.height);
  if (header == nullptr) {
    return make_error("light.unknown_height",
                      "no accepted header at height " + std::to_string(ap.height));
  }
  if (Status s = verify_account_proof(ap, header->state_root); !s.ok()) {
    return s.error();
  }
  return ap.statement;
}

}  // namespace mv::ledger
