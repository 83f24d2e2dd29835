#include "ledger/transaction.h"

namespace mv::ledger {

Bytes TransferBody::encode() const {
  ByteWriter w;
  w.u64(to.value);
  w.u64(amount);
  return w.take();
}

Result<TransferBody> TransferBody::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  TransferBody body;
  body.to.value = r.u64();
  body.amount = r.u64();
  return r.finish(body, errc::kTxTrailingBytes, "unparsed trailing payload");
}

Bytes AuditRecordBody::encode() const {
  ByteWriter w;
  w.str(data_category);
  w.str(purpose);
  w.u64(subject);
  w.str(pet_applied);
  return w.take();
}

Result<AuditRecordBody> AuditRecordBody::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  AuditRecordBody body;
  body.data_category = r.str();
  body.purpose = r.str();
  body.subject = r.u64();
  body.pet_applied = r.str();
  return r.finish(std::move(body), errc::kTxTrailingBytes,
                  "unparsed trailing payload");
}

namespace {

/// Everything covered by the signature, in wire order. Works against any
/// writer with the ByteWriter field interface (ByteWriter, HashWriter).
template <typename Writer>
void write_signing_fields(Writer& w, const Transaction& tx) {
  w.u64(tx.sender_pub.y);
  w.u64(tx.nonce);
  w.u8(static_cast<std::uint8_t>(tx.kind));
  w.str(tx.contract);
  w.str(tx.method);
  w.bytes(tx.payload);
  w.u64(tx.fee);
}

std::size_t signing_fields_size(const Transaction& tx) {
  return 8 + 8 + 1 + (4 + tx.contract.size()) + (4 + tx.method.size()) +
         (4 + tx.payload.size()) + 8;
}

}  // namespace

Bytes Transaction::signing_bytes() const {
  ByteWriter w;
  w.reserve(signing_fields_size(*this));
  write_signing_fields(w, *this);
  return w.take();
}

Bytes Transaction::encode() const {
  ByteWriter w;
  w.reserve(signing_fields_size(*this) + 16);
  write_signing_fields(w, *this);
  w.u64(sig.e);
  w.u64(sig.s);
  return w.take();
}

Result<Transaction> Transaction::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  Transaction tx;
  tx.sender_pub.y = r.u64();
  tx.nonce = r.u64();
  const std::uint8_t kind = r.u8();
  r.require(kind <= static_cast<std::uint8_t>(TxKind::kContractCall),
            errc::kTxBadKind, "unknown transaction kind");
  tx.kind = static_cast<TxKind>(kind);
  tx.contract = r.str();
  tx.method = r.str();
  tx.payload = r.bytes();
  tx.fee = r.u64();
  tx.sig.e = r.u64();
  tx.sig.s = r.u64();
  return r.finish(std::move(tx), errc::kTxTrailingBytes, "unparsed trailing data");
}

crypto::Digest Transaction::digest() const {
  // Streams the exact encode() byte sequence; no intermediate buffer.
  crypto::HashWriter w;
  write_signing_fields(w, *this);
  w.u64(sig.e);
  w.u64(sig.s);
  return w.digest();
}

bool Transaction::signature_valid() const {
  return crypto::verify(sender_pub, signing_bytes(), sig);
}

namespace {
Transaction sign_tx(Transaction tx, const crypto::Wallet& from, Rng& rng) {
  tx.sig = from.sign(tx.signing_bytes(), rng);
  return tx;
}
}  // namespace

Transaction make_transfer(const crypto::Wallet& from, std::uint64_t nonce,
                          crypto::Address to, std::uint64_t amount,
                          std::uint64_t fee, Rng& rng) {
  Transaction tx;
  tx.sender_pub = from.public_key();
  tx.nonce = nonce;
  tx.kind = TxKind::kTransfer;
  tx.payload = TransferBody{to, amount}.encode();
  tx.fee = fee;
  return sign_tx(std::move(tx), from, rng);
}

Transaction make_audit_record(const crypto::Wallet& from, std::uint64_t nonce,
                              AuditRecordBody body, std::uint64_t fee,
                              Rng& rng) {
  Transaction tx;
  tx.sender_pub = from.public_key();
  tx.nonce = nonce;
  tx.kind = TxKind::kAuditRecord;
  tx.payload = body.encode();
  tx.fee = fee;
  return sign_tx(std::move(tx), from, rng);
}

Transaction make_contract_call(const crypto::Wallet& from, std::uint64_t nonce,
                               std::string contract, std::string method,
                               Bytes args, std::uint64_t fee, Rng& rng) {
  Transaction tx;
  tx.sender_pub = from.public_key();
  tx.nonce = nonce;
  tx.kind = TxKind::kContractCall;
  tx.contract = std::move(contract);
  tx.method = std::move(method);
  tx.payload = std::move(args);
  tx.fee = fee;
  return sign_tx(std::move(tx), from, rng);
}

}  // namespace mv::ledger
