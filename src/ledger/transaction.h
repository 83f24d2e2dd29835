// Transactions: the unit of state change on the ledger.
//
// Three kinds matter to the paper's claims:
//  - kTransfer     — value movement (the NFT market and DAO deposits ride on it)
//  - kAuditRecord  — §II-D: "a distributed ledger can register any party's
//                    data collection and processing activities"; these records
//                    are first-class transactions
//  - kContractCall — invocations of hosted contracts (DAO, NFT, reputation)
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/sha256.h"
#include "crypto/wallet.h"

namespace mv::ledger {

enum class TxKind : std::uint8_t {
  kTransfer = 0,
  kAuditRecord = 1,
  kContractCall = 2,
};

/// Body of a kTransfer.
struct TransferBody {
  crypto::Address to;
  std::uint64_t amount = 0;

  [[nodiscard]] Bytes encode() const;
  /// Strict: the whole buffer must be one body ("tx.trailing_bytes").
  [[nodiscard]] static Result<TransferBody> decode(std::span<const std::uint8_t> bytes);
};

/// Body of a kAuditRecord: who collected what, from whom, why, and which
/// privacy-enhancing technology was applied before sharing.
struct AuditRecordBody {
  std::string data_category;  ///< e.g. "gaze", "spatial_map"
  std::string purpose;        ///< e.g. "avatar_animation"
  std::uint64_t subject = 0;  ///< pseudonymous data-subject id
  std::string pet_applied;    ///< e.g. "laplace(eps=1.0)", "none"

  [[nodiscard]] Bytes encode() const;
  /// Strict: the whole buffer must be one body ("tx.trailing_bytes").
  [[nodiscard]] static Result<AuditRecordBody> decode(
      std::span<const std::uint8_t> bytes);
};

struct Transaction {
  crypto::PublicKey sender_pub;
  std::uint64_t nonce = 0;
  TxKind kind = TxKind::kTransfer;
  std::string contract;  ///< target contract name (kContractCall only)
  std::string method;    ///< target method (kContractCall only)
  Bytes payload;         ///< kind-specific encoded body
  std::uint64_t fee = 0;
  crypto::Signature sig;

  /// Canonical bytes covered by the signature (everything except sig).
  [[nodiscard]] Bytes signing_bytes() const;
  /// Full wire encoding.
  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<Transaction> decode(std::span<const std::uint8_t> bytes);

  /// Transaction id: SHA-256 over the full encoding.
  [[nodiscard]] crypto::Digest digest() const;
  [[nodiscard]] crypto::Address sender() const { return crypto::address_of(sender_pub); }

  /// Signature check against the embedded public key.
  [[nodiscard]] bool signature_valid() const;
};

/// Build-and-sign helpers.
[[nodiscard]] Transaction make_transfer(const crypto::Wallet& from,
                                        std::uint64_t nonce, crypto::Address to,
                                        std::uint64_t amount, std::uint64_t fee,
                                        Rng& rng);
[[nodiscard]] Transaction make_audit_record(const crypto::Wallet& from,
                                            std::uint64_t nonce,
                                            AuditRecordBody body,
                                            std::uint64_t fee, Rng& rng);
[[nodiscard]] Transaction make_contract_call(const crypto::Wallet& from,
                                             std::uint64_t nonce,
                                             std::string contract,
                                             std::string method, Bytes args,
                                             std::uint64_t fee, Rng& rng);

}  // namespace mv::ledger
