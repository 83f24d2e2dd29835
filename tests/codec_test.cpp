// One conformance battery for every wire codec (DESIGN.md §5 "Wire codecs").
//
// Each codec is a trait: canonical sample encodings plus decode-then-encode.
// Four properties hold for every sample:
//   - decode then encode reproduces it byte for byte;
//   - every strict prefix is rejected;
//   - one appended byte is rejected;
//   - every single-byte mutation is rejected or re-encodes to exactly the
//     mutated bytes, so no byte is inert and no two encodings alias.
#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/portability.h"
#include "ledger/beacon.h"
#include "ledger/consensus.h"
#include "ledger/shard.h"
#include "ledger/snapshot.h"
#include "ledger/subscription.h"
#include "net/subscription.h"
#include "scenario/trace.h"

namespace mv {
namespace {

using ledger::LedgerState;

std::optional<Bytes> reencode(const auto& decoded) {
  if constexpr (requires { decoded.has_value(); }) {
    if (!decoded.has_value()) return std::nullopt;
    return decoded->encode();
  } else {
    if (!decoded.ok()) return std::nullopt;
    return decoded.value().encode();
  }
}

crypto::Digest digest_of(std::uint8_t seed) {
  crypto::Digest d{};
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i] = static_cast<std::uint8_t>(seed + 7 * i);
  }
  return d;
}

ledger::Transaction sample_tx(std::uint64_t nonce, ledger::TxKind kind) {
  Rng rng(nonce + 1);
  const crypto::Wallet wallet(rng);
  switch (kind) {
    case ledger::TxKind::kTransfer:
      return ledger::make_transfer(wallet, nonce, crypto::Address{77}, 5, 1, rng);
    case ledger::TxKind::kAuditRecord:
      return ledger::make_audit_record(
          wallet, nonce, ledger::AuditRecordBody{"gaze", "animation", 3, "none"},
          1, rng);
    case ledger::TxKind::kContractCall:
      return ledger::make_contract_call(wallet, nonce, "nft", "mint",
                                        Bytes{1, 2, 3}, 2, rng);
  }
  return {};
}

ledger::BlockHeader sample_header() {
  ledger::BlockHeader h;
  h.height = 12;
  h.prev_hash = digest_of(1);
  h.tx_root = digest_of(2);
  h.state_root = digest_of(3);
  h.timestamp = 99;
  h.proposer_pub.y = 0x1234;
  h.proposer_sig = crypto::Signature{0x55, 0x66};
  return h;
}

LedgerState sample_state() {
  LedgerState s;
  for (std::uint64_t i = 0; i < 12; ++i) {
    const crypto::Address a{0x1000 + i * 7};
    s.credit(a, 10 + i);
    if (i % 3 == 0) s.set_nonce(a, i + 1);
  }
  s.set_nonce(crypto::Address{0x9999}, 42);  // nonce-only account
  s.append_audit(ledger::StoredAuditRecord{
      crypto::Address{0x1000},
      ledger::AuditRecordBody{"gaze", "avatar_animation", 7, "laplace"}, 3});
  s.store_put("kv", "alpha", Bytes{1, 2, 3});
  s.store_put("kv", "beta", Bytes{});
  s.store_put("drained", "gone", Bytes{4});
  s.store_erase("drained", "gone");  // an empty store is still encoded
  s.add_burned_fees(321);
  return s;
}

ledger::AccountProof sample_account_proof(const LedgerState& state,
                                          crypto::Address addr) {
  ledger::AccountProof ap;
  ap.address = addr;
  ap.height = 4;
  const ledger::Account acc = state.account(addr);
  ap.statement.exists = acc.exists();
  ap.statement.has_balance = acc.has_balance;
  ap.statement.balance = acc.balance;
  ap.statement.nonce = acc.nonce;
  ap.commitment = state.commitment();
  ap.proof = state.prove_account(addr);
  return ap;
}

// ------------------------------------------------------------------ traits

struct TransactionCodec {
  static std::vector<Bytes> samples() {
    return {sample_tx(0, ledger::TxKind::kTransfer).encode(),
            sample_tx(1, ledger::TxKind::kContractCall).encode()};
  }
  static std::optional<Bytes> roundtrip(const Bytes& b) {
    return reencode(ledger::Transaction::decode(b));
  }
};

struct TransferBodyCodec {
  static std::vector<Bytes> samples() {
    return {ledger::TransferBody{crypto::Address{42}, 1000}.encode()};
  }
  static std::optional<Bytes> roundtrip(const Bytes& b) {
    return reencode(ledger::TransferBody::decode(b));
  }
};

struct AuditRecordBodyCodec {
  static std::vector<Bytes> samples() {
    return {ledger::AuditRecordBody{"gaze", "animation", 9, "laplace"}.encode()};
  }
  static std::optional<Bytes> roundtrip(const Bytes& b) {
    return reencode(ledger::AuditRecordBody::decode(b));
  }
};

struct BlockHeaderCodec {
  static std::vector<Bytes> samples() { return {sample_header().encode()}; }
  static std::optional<Bytes> roundtrip(const Bytes& b) {
    return reencode(ledger::BlockHeader::decode(b));
  }
};

struct BlockCodec {
  static std::vector<Bytes> samples() {
    ledger::Block empty;
    empty.header = sample_header();
    ledger::Block full = empty;
    full.txs = {sample_tx(0, ledger::TxKind::kTransfer),
                sample_tx(1, ledger::TxKind::kAuditRecord)};
    return {empty.encode(), full.encode()};
  }
  static std::optional<Bytes> roundtrip(const Bytes& b) {
    return reencode(ledger::Block::decode(b));
  }
};

struct VoteMsgCodec {
  static std::vector<Bytes> samples() {
    ledger::VoteMsg vote;
    vote.height = 7;
    vote.block_hash = digest_of(9);
    vote.voter.y = 0x4242;
    vote.sig = crypto::Signature{1, 2};
    return {vote.encode()};
  }
  static std::optional<Bytes> roundtrip(const Bytes& b) {
    return reencode(ledger::VoteMsg::decode(b));
  }
};

struct AccountProofCodec {
  static std::vector<Bytes> samples() {
    const LedgerState state = sample_state();
    return {sample_account_proof(state, crypto::Address{0x1000}).encode(),
            sample_account_proof(state, crypto::Address{0x5}).encode()};
  }
  static std::optional<Bytes> roundtrip(const Bytes& b) {
    return reencode(ledger::AccountProof::decode(b));
  }
};

struct CommitPushCodec {
  static std::vector<Bytes> samples() {
    const LedgerState state = sample_state();
    ledger::CommitPush push;
    push.header = sample_header();
    push.proofs = {sample_account_proof(state, crypto::Address{0x1007})};
    push.events = {ledger::StoreEvent{"kv", "alpha"}};
    return {push.encode()};
  }
  static std::optional<Bytes> roundtrip(const Bytes& b) {
    return reencode(ledger::CommitPush::decode(b));
  }
};

struct SnapshotManifestCodec {
  static std::vector<Bytes> samples() {
    return {ledger::build_snapshot(sample_state(), 5, 64).manifest.encode()};
  }
  static std::optional<Bytes> roundtrip(const Bytes& b) {
    return reencode(ledger::SnapshotManifest::decode(b));
  }
};

struct SnapshotPayloadCodec {
  static std::vector<Bytes> samples() {
    return {ledger::encode_snapshot_payload(sample_state()),
            ledger::encode_snapshot_payload(LedgerState{})};
  }
  static std::optional<Bytes> roundtrip(const Bytes& b) {
    auto state = ledger::decode_snapshot_payload(b);
    if (!state.ok()) return std::nullopt;
    return ledger::encode_snapshot_payload(state.value());
  }
};

struct BeaconHeaderCodec {
  static std::vector<Bytes> samples() {
    ledger::BeaconHeader h;
    h.height = 3;
    h.prev_hash = digest_of(4);
    h.timestamp = 17;
    h.shards = {ledger::ShardAnchor{digest_of(5), digest_of(6)},
                ledger::ShardAnchor{digest_of(7), digest_of(8)}};
    h.beacon_root = ledger::combine_beacon_root(h.shards);
    h.proposer_pub.y = 0x77;
    h.proposer_sig = crypto::Signature{3, 4};
    return {h.encode()};
  }
  static std::optional<Bytes> roundtrip(const Bytes& b) {
    return reencode(ledger::BeaconHeader::decode(b));
  }
};

struct CrossShardReceiptCodec {
  static std::vector<Bytes> samples() {
    return {ledger::CrossShardReceipt{5, 0, 1, crypto::Address{11},
                                      crypto::Address{12}, 250}
                .encode()};
  }
  static std::optional<Bytes> roundtrip(const Bytes& b) {
    return reencode(ledger::CrossShardReceipt::decode(b));
  }
};

struct XShardLockArgsCodec {
  static std::vector<Bytes> samples() {
    return {ledger::XShardLockArgs{2, crypto::Address{13}, 90}.encode()};
  }
  static std::optional<Bytes> roundtrip(const Bytes& b) {
    return reencode(ledger::XShardLockArgs::decode(b));
  }
};

struct XShardMintArgsCodec {
  static std::vector<Bytes> samples() {
    ledger::XShardMintArgs args;
    args.beacon_height = 6;
    args.source_shard = 1;
    args.receipt = Bytes{1, 2, 3, 4};
    args.proof = Bytes{5, 6};
    return {args.encode()};
  }
  static std::optional<Bytes> roundtrip(const Bytes& b) {
    return reencode(ledger::XShardMintArgs::decode(b));
  }
};

struct MerkleMapProofCodec {
  static std::vector<Bytes> samples() {
    constexpr std::uint64_t kSpread = 0x9e3779b97f4a7c15ULL;
    crypto::MerkleMap map;
    for (std::uint64_t k = 0; k < 40; ++k) {
      map.put(k * kSpread, digest_of(static_cast<std::uint8_t>(k)));
    }
    // One present key (terminal leaf) and one absent key.
    return {map.prove(3 * kSpread).encode(), map.prove(12345).encode()};
  }
  static std::optional<Bytes> roundtrip(const Bytes& b) {
    return reencode(crypto::MerkleMapProof::decode(b));
  }
};

struct TraceCodec {
  static std::vector<Bytes> samples() {
    scenario::Trace trace;
    trace.header.scenario = "mixed_city";
    trace.header.seed = 5;
    trace.header.avatars = 8;
    trace.header.validators = 4;
    trace.header.genesis_grant = 1000;
    trace.header.max_txs_per_block = 64;
    trace.header.genesis_root = digest_of(10);
    trace.rounds.push_back(scenario::TraceRound{
        {sample_tx(0, ledger::TxKind::kTransfer)}, digest_of(11)});
    trace.rounds.push_back(scenario::TraceRound{{}, digest_of(12)});
    return {trace.encode()};
  }
  static std::optional<Bytes> roundtrip(const Bytes& b) {
    return reencode(scenario::Trace::decode(b));
  }
};

struct GovernancePackCodec {
  static std::vector<Bytes> samples() {
    core::GovernancePack pack;
    pack.governance_modules = {"privacy", "safety"};
    // Regions one bit apart: a single flip can forge a duplicate binding
    // ("et"/"eu") or an out-of-order pair ("du" after "et").
    pack.region_regulations = {{"et", "gdpr"}, {"eu", "ccpa"}};
    return {pack.encode()};
  }
  static std::optional<Bytes> roundtrip(const Bytes& b) {
    return reencode(core::GovernancePack::decode(b));
  }
};

struct SubscriptionRequestCodec {
  static std::vector<Bytes> samples() {
    net::SubscriptionRequest req;
    req.from_height = 4;
    req.headers = true;
    req.accounts = {1, 0x1000};
    req.stores = {"nft", "dao"};
    return {req.encode()};
  }
  static std::optional<Bytes> roundtrip(const Bytes& b) {
    return reencode(net::SubscriptionRequest::decode(b));
  }
};

struct SubscriptionResponseCodec {
  static std::vector<Bytes> samples() {
    net::SubscriptionResponse resp;
    resp.code = errc::kSubStaleFrom;
    resp.earliest = 3;
    resp.tip = 9;
    return {resp.encode()};
  }
  static std::optional<Bytes> roundtrip(const Bytes& b) {
    return reencode(net::SubscriptionResponse::decode(b));
  }
};

// --------------------------------------------------------------- the battery

/// One codec under test: its trait's samples and decode-then-encode.
struct Codec {
  const char* name;
  std::vector<Bytes> (*samples)();
  std::optional<Bytes> (*roundtrip)(const Bytes&);
};

template <typename Trait>
Codec codec(const char* name) {
  return Codec{name, &Trait::samples, &Trait::roundtrip};
}

/// Names each instance in test listings (ctest shows it in place of the index).
void PrintTo(const Codec& c, std::ostream* os) { *os << c.name; }

class CodecConformance : public ::testing::TestWithParam<Codec> {};

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecConformance,
    ::testing::Values(
        codec<TransactionCodec>("Transaction"),
        codec<TransferBodyCodec>("TransferBody"),
        codec<AuditRecordBodyCodec>("AuditRecordBody"),
        codec<BlockHeaderCodec>("BlockHeader"), codec<BlockCodec>("Block"),
        codec<VoteMsgCodec>("VoteMsg"),
        codec<AccountProofCodec>("AccountProof"),
        codec<CommitPushCodec>("CommitPush"),
        codec<SnapshotManifestCodec>("SnapshotManifest"),
        codec<SnapshotPayloadCodec>("SnapshotPayload"),
        codec<BeaconHeaderCodec>("BeaconHeader"),
        codec<CrossShardReceiptCodec>("CrossShardReceipt"),
        codec<XShardLockArgsCodec>("XShardLockArgs"),
        codec<XShardMintArgsCodec>("XShardMintArgs"),
        codec<MerkleMapProofCodec>("MerkleMapProof"),
        codec<TraceCodec>("Trace"),
        codec<GovernancePackCodec>("GovernancePack"),
        codec<SubscriptionRequestCodec>("SubscriptionRequest"),
        codec<SubscriptionResponseCodec>("SubscriptionResponse")));

TEST_P(CodecConformance, RoundTripIsByteIdentical) {
  for (const Bytes& sample : GetParam().samples()) {
    const auto again = GetParam().roundtrip(sample);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, sample);
  }
}

TEST_P(CodecConformance, EveryStrictPrefixIsRejected) {
  for (const Bytes& sample : GetParam().samples()) {
    for (std::size_t len = 0; len < sample.size(); ++len) {
      const Bytes prefix(sample.begin(),
                         sample.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_FALSE(GetParam().roundtrip(prefix).has_value()) << "length " << len;
    }
  }
}

TEST_P(CodecConformance, OneAppendedByteIsRejected) {
  for (const Bytes& sample : GetParam().samples()) {
    for (const std::uint8_t extra : {0x00, 0x01, 0xff}) {
      Bytes longer = sample;
      longer.push_back(extra);
      EXPECT_FALSE(GetParam().roundtrip(longer).has_value())
          << "appended " << int{extra};
    }
  }
}

TEST_P(CodecConformance, EveryByteMutationIsRejectedOrReencodesExactly) {
  for (const Bytes& sample : GetParam().samples()) {
    for (std::size_t i = 0; i < sample.size(); ++i) {
      for (const std::uint8_t flip : {0x01, 0x80, 0xff}) {
        Bytes mutated = sample;
        mutated[i] ^= flip;
        const auto again = GetParam().roundtrip(mutated);
        if (again.has_value()) {
          EXPECT_EQ(*again, mutated) << "byte " << i << " ^ " << int{flip};
        }
      }
    }
  }
}

}  // namespace
}  // namespace mv
