// Snapshot sync tests: the verified-snapshot codec (strict decode, mutation
// fuzz), historical export through the retention ring, snapshot install +
// suffix replay on a fresh replica, the chunked transfer protocol under a
// lossy network, and the verified-signature cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "crypto/digest_lru.h"
#include "ledger/chain.h"
#include "ledger/mempool.h"
#include "ledger/shard.h"
#include "ledger/snapshot.h"
#include "ledger/snapshot_sync.h"
#include "net/snapshot_transfer.h"

namespace mv::ledger {
namespace {

/// KV contract: method "put" writes the key named by the payload, "del"
/// erases it — exercises contract stores (including emptied ones) through
/// snapshots and the retention ring's undo path.
class KvContract final : public Contract {
 public:
  [[nodiscard]] std::string name() const override { return "kv"; }
  [[nodiscard]] Status call(CallContext& ctx, const std::string& method,
                            const Bytes& arg) const override {
    const std::string key(arg.begin(), arg.end());
    if (method == "put") {
      ctx.put(key, Bytes{0xAB, static_cast<std::uint8_t>(key.size())});
      return {};
    }
    if (method == "del") {
      ctx.erase(key);
      return {};
    }
    return Status::fail("kv.bad_method", method);
  }
};

/// A state with every section populated: balance-only, nonce-only and mixed
/// accounts, audit records, a populated store, an emptied store, burned fees.
LedgerState rich_state(std::size_t accounts = 16) {
  LedgerState s;
  for (std::size_t i = 0; i < accounts; ++i) {
    const crypto::Address a{0x1000 + i * 7};
    s.credit(a, 10 + i);
    if (i % 3 == 0) s.set_nonce(a, i + 1);
  }
  s.set_nonce(crypto::Address{0x9999}, 42);  // nonce-only account
  s.append_audit(StoredAuditRecord{
      crypto::Address{0x1000},
      AuditRecordBody{"gaze", "avatar_animation", 7, "laplace(eps=1.0)"}, 3});
  s.append_audit(StoredAuditRecord{
      crypto::Address{0x1007},
      AuditRecordBody{"spatial_map", "navigation", 9, "none"}, 5});
  s.store_put("kv", "alpha", Bytes{1, 2, 3});
  s.store_put("kv", "beta", Bytes{});
  s.store_put("drained", "gone", Bytes{4});
  s.store_erase("drained", "gone");  // empty store must survive the codec
  s.add_burned_fees(321);
  return s;
}

struct SyncFixture {
  Rng rng{4242};
  crypto::Wallet v0{rng};
  crypto::Wallet v1{rng};
  crypto::Wallet alice{rng};
  crypto::Wallet bob{rng};
  std::shared_ptr<ContractRegistry> contracts =
      std::make_shared<ContractRegistry>();
  ChainConfig config;
  LedgerState genesis;

  SyncFixture() {
    contracts->install(std::make_shared<KvContract>());
    config.validators = {v0.public_key(), v1.public_key()};
    config.state_retention = 8;
    genesis.credit(alice.address(), 1'000'000);
    genesis.credit(bob.address(), 500'000);
  }

  [[nodiscard]] Blockchain make_chain() {
    return Blockchain(config, contracts, genesis);
  }

  /// Append `blocks` blocks mixing transfers, contract puts/erases, and
  /// audit records, so every snapshot section changes block over block.
  void grow(Blockchain& chain, int blocks) {
    for (int b = 0; b < blocks; ++b) {
      const std::int64_t h = chain.height();
      const crypto::Wallet& proposer = (h % 2 == 0) ? v0 : v1;
      std::vector<Transaction> txs;
      txs.push_back(make_transfer(alice, chain.state().nonce(alice.address()),
                                  bob.address(), 3, 1, rng));
      const std::uint64_t bn = chain.state().nonce(bob.address());
      const std::string key = "k" + std::to_string(h % 5);
      const Bytes arg(key.begin(), key.end());
      switch (h % 3) {
        case 0:
          txs.push_back(make_contract_call(bob, bn, "kv", "put", arg, 1, rng));
          break;
        case 1:
          txs.push_back(make_contract_call(bob, bn, "kv", "del", arg, 1, rng));
          break;
        default:
          txs.push_back(make_audit_record(
              bob, bn, AuditRecordBody{"pose", "presence", 5, "none"}, 1, rng));
          break;
      }
      ASSERT_TRUE(
          chain.append(chain.assemble(proposer, txs, h, rng)).ok())
          << "block " << h;
    }
  }
};

// ---------------------------------------------------------- payload codec

TEST(SnapshotCodec, PayloadRoundTripReproducesCommitment) {
  const LedgerState state = rich_state();
  const Bytes payload = encode_snapshot_payload(state);
  auto decoded = decode_snapshot_payload(payload);
  ASSERT_TRUE(decoded.ok());
  // The differential oracle: the decoded state's incremental commitment must
  // equal a from-scratch rehash of the original.
  EXPECT_EQ(decoded.value().commitment(), state.full_rehash_commitment());
  // Decode/encode is the identity on canonical payloads.
  EXPECT_EQ(encode_snapshot_payload(decoded.value()), payload);
  // Structure survived, not just digests.
  EXPECT_EQ(decoded.value().audit_log().size(), 2u);
  ASSERT_NE(decoded.value().find_store("drained"), nullptr);
  EXPECT_TRUE(decoded.value().find_store("drained")->empty());
}

TEST(SnapshotCodec, AccountInsertionOrderIsInvisible) {
  // The account table is unordered, so everything that must be canonical
  // sorts for itself. Two states holding the same accounts, written in
  // opposite orders (and one also through records that were created and
  // dropped again), must export the same bytes, commit identically, and
  // partition into identical shards.
  Rng rng(8080);
  std::vector<std::pair<crypto::Address, Account>> accounts;
  std::set<std::uint64_t> used;
  while (accounts.size() < 3000) {
    const std::uint64_t addr = 1 + rng.next_below(1ULL << 40);
    if (!used.insert(addr).second) continue;
    Account acc;
    acc.has_balance = rng.chance(0.9);
    acc.balance = acc.has_balance ? rng.next_below(1'000'000) : 0;
    acc.nonce = rng.chance(0.5) || !acc.has_balance ? 1 + rng.next_below(50) : 0;
    accounts.emplace_back(crypto::Address{addr}, acc);
  }
  LedgerState forward;
  for (const auto& [addr, acc] : accounts) {
    if (acc.has_balance) forward.set_balance(addr, acc.balance);
    if (acc.nonce != 0) forward.set_nonce(addr, acc.nonce);
    // A record that exists only through a nonce vanishes when it drops to 0.
    const crypto::Address transient{addr.value | (1ULL << 50)};
    forward.set_nonce(transient, 3);
    forward.set_nonce(transient, 0);
  }
  LedgerState backward;
  for (auto it = accounts.rbegin(); it != accounts.rend(); ++it) {
    if (it->second.nonce != 0) backward.set_nonce(it->first, it->second.nonce);
    if (it->second.has_balance) backward.set_balance(it->first, it->second.balance);
  }
  ASSERT_EQ(forward.accounts().size(), accounts.size());
  ASSERT_EQ(backward.accounts().size(), accounts.size());

  EXPECT_EQ(forward.full_rehash_commitment(), backward.full_rehash_commitment());
  EXPECT_EQ(forward.commitment(), backward.commitment());
  EXPECT_EQ(forward.commitment(), forward.full_rehash_commitment());
  const Snapshot a = build_snapshot(forward, 7, 4096);
  const Snapshot b = build_snapshot(backward, 7, 4096);
  ASSERT_GT(a.chunks.size(), 1u);
  EXPECT_EQ(a.chunks, b.chunks);
  EXPECT_EQ(a.manifest.chunk_digests, b.manifest.chunk_digests);
  EXPECT_EQ(a.manifest.encode(), b.manifest.encode());

  const auto shards_a = partition_genesis(forward, 4);
  const auto shards_b = partition_genesis(backward, 4);
  std::size_t total = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(shards_a[s].commitment(), shards_b[s].commitment()) << "shard " << s;
    EXPECT_EQ(shards_a[s].full_rehash_commitment(), shards_b[s].commitment())
        << "shard " << s;
    total += shards_a[s].accounts().size();
  }
  EXPECT_EQ(total, accounts.size());
}

TEST(SnapshotCodec, EmptyStateRoundTrips) {
  LedgerState empty;
  auto decoded = decode_snapshot_payload(encode_snapshot_payload(empty));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().commitment(), empty.full_rehash_commitment());
}

TEST(SnapshotCodec, StrictDecodeBattery) {
  const auto code_of = [](const Bytes& payload) {
    auto r = decode_snapshot_payload(payload);
    return r.ok() ? std::string{} : r.error().code;
  };

  {  // unknown domain tag
    ByteWriter w;
    w.str("mv.snapshot.v2");
    EXPECT_EQ(code_of(w.take()), "snapshot.bad_tag");
  }
  {  // account count that cannot fit the remaining buffer
    ByteWriter w;
    w.str("mv.snapshot.v1");
    w.u64(1u << 30);
    EXPECT_EQ(code_of(w.take()), "snapshot.bad_count");
  }
  {  // flags outside {0,1}
    ByteWriter w;
    w.str("mv.snapshot.v1");
    w.u64(1);
    w.u64(7);  // addr
    w.u8(2);   // flags
    w.u64(0);  // nonce
    w.u64(0);  // audit count
    w.u32(0);  // contract count
    w.u64(0);  // burned
    EXPECT_EQ(code_of(w.take()), "snapshot.bad_flags");
  }
  {  // a leafless account entry is semantically inert — not canonical
    ByteWriter w;
    w.str("mv.snapshot.v1");
    w.u64(1);
    w.u64(7);
    w.u8(0);   // no balance
    w.u64(0);  // no nonce either
    w.u64(0);
    w.u32(0);
    w.u64(0);
    EXPECT_EQ(code_of(w.take()), "snapshot.bad_entry");
  }
  {  // addresses must be strictly ascending
    ByteWriter w;
    w.str("mv.snapshot.v1");
    w.u64(2);
    w.u64(9);
    w.u8(1);
    w.u64(5);
    w.u64(0);
    w.u64(7);  // out of order
    w.u8(1);
    w.u64(5);
    w.u64(0);
    w.u64(0);
    w.u32(0);
    w.u64(0);
    EXPECT_EQ(code_of(w.take()), "snapshot.bad_order");
  }
  {  // trailing bytes after a fully valid payload
    Bytes payload = encode_snapshot_payload(rich_state());
    payload.push_back(0x00);
    EXPECT_EQ(code_of(payload), "snapshot.trailing_bytes");
  }
  {  // truncation anywhere is an error, never a partial state
    const Bytes payload = encode_snapshot_payload(rich_state());
    Bytes truncated(payload.begin(), payload.end() - 1);
    EXPECT_FALSE(decode_snapshot_payload(truncated).ok());
  }
}

// ---------------------------------------------------------- manifest codec

TEST(SnapshotManifestCodec, RoundTripAndChunkRoot) {
  const LedgerState state = rich_state();
  const Snapshot snap = build_snapshot(state, 11, 64);
  ASSERT_GT(snap.manifest.chunk_count(), 2u);
  auto decoded = SnapshotManifest::decode(snap.manifest.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().height, 11);
  EXPECT_EQ(decoded.value().commitment, state.commitment());
  EXPECT_EQ(decoded.value().chunk_digests, snap.manifest.chunk_digests);
  EXPECT_EQ(decoded.value().chunk_root(), snap.manifest.chunk_root());
  EXPECT_EQ(decoded.value().encode(), snap.manifest.encode());
}

TEST(SnapshotManifestCodec, StrictDecodeBattery) {
  const Snapshot snap = build_snapshot(rich_state(), 5, 64);
  const auto code_of = [](const Bytes& bytes) {
    auto r = SnapshotManifest::decode(bytes);
    return r.ok() ? std::string{} : r.error().code;
  };

  {  // unknown version byte
    Bytes enc = snap.manifest.encode();
    enc[0] = 9;
    EXPECT_EQ(code_of(enc), "snapshot.bad_version");
  }
  {  // negative height
    SnapshotManifest m = snap.manifest;
    m.height = -1;
    EXPECT_EQ(code_of(m.encode()), "snapshot.bad_height");
  }
  {  // zero chunk size breaks the geometry invariant
    SnapshotManifest m = snap.manifest;
    m.chunk_size = 0;
    EXPECT_EQ(code_of(m.encode()), "snapshot.bad_geometry");
  }
  {  // chunk count no longer matches ceil(total/chunk_size)
    SnapshotManifest m = snap.manifest;
    m.chunk_digests.pop_back();
    EXPECT_EQ(code_of(m.encode()), "snapshot.bad_geometry");
  }
  {  // total_bytes inconsistent with the digest list
    SnapshotManifest m = snap.manifest;
    m.total_bytes += m.chunk_size;
    EXPECT_EQ(code_of(m.encode()), "snapshot.bad_geometry");
  }
  {  // trailing bytes
    Bytes enc = snap.manifest.encode();
    enc.push_back(0);
    EXPECT_EQ(code_of(enc), "snapshot.trailing_bytes");
  }
  {  // truncation
    Bytes enc = snap.manifest.encode();
    enc.pop_back();
    EXPECT_FALSE(SnapshotManifest::decode(enc).ok());
  }
}

TEST(SnapshotManifestCodec, EveryByteMutationIsCaughtSomewhere) {
  // The full trust chain, adversarially: flip each manifest byte in turn.
  // Every mutation must be stopped by one of the gates a syncing replica
  // runs — strict decode, the header binding (commitment root / height), or
  // chunk verification during assembly. No byte may be semantically inert.
  const Snapshot snap = build_snapshot(rich_state(), 5, 64);
  const Bytes enc = snap.manifest.encode();
  for (std::size_t i = 0; i < enc.size(); ++i) {
    Bytes mutated = enc;
    mutated[i] ^= 0x01;
    auto decoded = SnapshotManifest::decode(mutated);
    if (!decoded.ok()) continue;  // gate 1: strict decode
    const bool header_binding_catches =
        decoded.value().commitment.root != snap.manifest.commitment.root ||
        decoded.value().height != snap.manifest.height;
    const bool assembly_catches =
        !assemble_snapshot(decoded.value(), snap.chunks).ok();
    EXPECT_TRUE(header_binding_catches || assembly_catches)
        << "byte " << i << " mutated without consequence";
  }
}

// ---------------------------------------------------------- chunk assembly

TEST(SnapshotAssembly, VerifiesAndDecodes) {
  const LedgerState state = rich_state();
  const Snapshot snap = build_snapshot(state, 3, 128);
  auto assembled = assemble_snapshot(snap.manifest, snap.chunks);
  ASSERT_TRUE(assembled.ok());
  EXPECT_EQ(assembled.value().commitment(), state.full_rehash_commitment());
}

TEST(SnapshotAssembly, RejectsWrongChunkSets) {
  const Snapshot snap = build_snapshot(rich_state(), 3, 64);
  ASSERT_GT(snap.chunks.size(), 2u);

  {  // missing chunk
    std::vector<Bytes> chunks(snap.chunks.begin(), snap.chunks.end() - 1);
    EXPECT_EQ(assemble_snapshot(snap.manifest, chunks).error().code,
              "snapshot.bad_chunk_count");
  }
  {  // two chunks swapped: index is hashed into the digest, so a valid chunk
     // replayed at another position cannot pass
    std::vector<Bytes> chunks = snap.chunks;
    std::swap(chunks[0], chunks[1]);
    EXPECT_EQ(assemble_snapshot(snap.manifest, chunks).error().code,
              "snapshot.bad_chunk");
  }
  {  // wrong length
    std::vector<Bytes> chunks = snap.chunks;
    chunks[0].push_back(0);
    EXPECT_EQ(assemble_snapshot(snap.manifest, chunks).error().code,
              "snapshot.bad_chunk_size");
  }
  {  // corrupted byte
    std::vector<Bytes> chunks = snap.chunks;
    chunks[1][0] ^= 0xFF;
    EXPECT_EQ(assemble_snapshot(snap.manifest, chunks).error().code,
              "snapshot.bad_chunk");
  }
}

TEST(SnapshotAssembly, TenThousandAccountMutationFuzz) {
  // Every single-byte mutation of a large snapshot must be rejected before
  // any state is installed. The per-chunk digest is the first gate: sweep
  // every byte against it, then drive a sampled subset through the full
  // assemble path (and one through init_from_snapshot) end to end.
  LedgerState state;
  for (std::size_t i = 0; i < 10'000; ++i) {
    state.credit(crypto::Address{0x10000 + i * 3}, 1 + (i % 97));
  }
  const Snapshot snap = build_snapshot(state, 0, 4096);
  ASSERT_GT(snap.chunks.size(), 10u);

  std::size_t swept = 0;
  for (std::uint32_t c = 0; c < snap.chunks.size(); ++c) {
    Bytes chunk = snap.chunks[c];
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      const std::uint8_t original = chunk[i];
      chunk[i] ^= 0xFF;
      ASSERT_NE(snapshot_chunk_digest(c, chunk), snap.manifest.chunk_digests[c])
          << "chunk " << c << " byte " << i;
      chunk[i] = original;
      ++swept;
    }
  }
  EXPECT_EQ(swept, snap.manifest.total_bytes);

  // Sampled end-to-end confirmation that the digest mismatch is fatal.
  for (std::size_t pos = 0; pos < snap.manifest.total_bytes; pos += 4099) {
    std::vector<Bytes> chunks = snap.chunks;
    chunks[pos / 4096][pos % 4096] ^= 0x01;
    EXPECT_EQ(assemble_snapshot(snap.manifest, chunks).error().code,
              "snapshot.bad_chunk");
  }
}

TEST(SnapshotAssembly, PayloadMutationsHaveNoInertBytes) {
  // Below the chunk layer: even if an attacker could forge chunk digests,
  // the payload itself has no semantically inert bytes — any flip either
  // fails strict decode or changes the commitment (and then fails the
  // manifest binding).
  const LedgerState state = rich_state();
  const Bytes payload = encode_snapshot_payload(state);
  const StateCommitment original = state.commitment();
  for (std::size_t i = 0; i < payload.size(); ++i) {
    Bytes mutated = payload;
    mutated[i] ^= 0x01;
    auto decoded = decode_snapshot_payload(mutated);
    if (!decoded.ok()) continue;
    EXPECT_NE(decoded.value().commitment(), original)
        << "payload byte " << i << " is inert";
  }
}

// ------------------------------------------------- historical state access

TEST(SnapshotExport, ServesRetainedHeightsExactly) {
  SyncFixture f;
  Blockchain chain = f.make_chain();
  f.grow(chain, 12);
  const std::int64_t tip = chain.height() - 1;

  for (std::int64_t h = tip - 8; h <= tip; ++h) {
    auto snap = chain.export_snapshot(h, 256);
    ASSERT_TRUE(snap.ok()) << "height " << h;
    EXPECT_EQ(snap.value().manifest.height, h);
    auto state = assemble_snapshot(snap.value().manifest, snap.value().chunks);
    ASSERT_TRUE(state.ok()) << "height " << h;
    // The exported commitment must be the one retained when the block
    // committed.
    if (const StateCommitment* expected = chain.commitment_at(h)) {
      EXPECT_EQ(state.value().commitment(), *expected) << "height " << h;
    }
    // Must match the header the block chain itself committed to.
    EXPECT_EQ(snap.value().manifest.commitment.root,
              chain.block_at(h)->header.state_root);
  }
  EXPECT_EQ(chain.export_snapshot(tip - 9).error().code, "chain.stale_height");
  EXPECT_EQ(chain.export_snapshot(chain.height()).error().code,
            "chain.bad_height");
  EXPECT_EQ(chain.export_snapshot(-1).error().code, "chain.bad_height");
  // Historical export leaves the live chain untouched.
  EXPECT_EQ(chain.state().commitment(), *chain.commitment_at(tip));
}

TEST(SnapshotExport, RingKeepsTheCommitmentItsOldestUndoReaches) {
  // The ring's undos reach tip - retention; that height's commitment must be
  // kept too, so export and proofs there need no verifying full-state copy.
  SyncFixture f;
  Blockchain chain = f.make_chain();
  f.grow(chain, 12);
  const std::int64_t tip = chain.height() - 1;
  const std::int64_t floor = tip - static_cast<std::int64_t>(f.config.state_retention);
  const StateCommitment* at = chain.commitment_at(floor);
  ASSERT_NE(at, nullptr);
  EXPECT_EQ(chain.commitment_at(floor - 1), nullptr);

  // The state at `floor`, rebuilt independently by replaying the prefix.
  Blockchain prefix = f.make_chain();
  for (std::int64_t h = 0; h <= floor; ++h) {
    ASSERT_TRUE(prefix.append(*chain.block_at(h)).ok()) << "height " << h;
  }
  EXPECT_EQ(*at, prefix.state().full_rehash_commitment());
  EXPECT_EQ(at->root, chain.block_at(floor)->header.state_root);

  const auto proof = chain.prove_account(f.alice.address(), floor);
  ASSERT_TRUE(proof.ok());
  EXPECT_EQ(proof.value().commitment, *at);
  auto snap = chain.export_snapshot(floor, 256);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.value().manifest.commitment, *at);
  auto state = assemble_snapshot(snap.value().manifest, snap.value().chunks);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state.value().full_rehash_commitment(), *at);

  // A snapshot-installed replica's floor is the installed state itself.
  Blockchain replica = f.make_chain();
  ASSERT_TRUE(replica
                  .init_from_snapshot(snap.value().manifest, snap.value().chunks,
                                      chain.block_at(floor)->header)
                  .ok());
  ASSERT_NE(replica.commitment_at(floor), nullptr);
  EXPECT_EQ(*replica.commitment_at(floor), *at);
}

TEST(SnapshotExport, RetentionOneServesTipAndOneBehind) {
  // The smallest ring, since retention 0 is refused (see
  // Blockchain.RejectsZeroStateRetention): it serves the tip and the height
  // its one undo reaches, and nothing older.
  SyncFixture f;
  f.config.state_retention = 1;
  Blockchain chain = f.make_chain();
  f.grow(chain, 4);
  const std::int64_t tip = chain.height() - 1;
  for (const std::int64_t h : {tip, tip - 1}) {
    const StateCommitment* at = chain.commitment_at(h);
    ASSERT_NE(at, nullptr) << "height " << h;
    EXPECT_EQ(at->root, chain.block_at(h)->header.state_root);
    auto snap = chain.export_snapshot(h);
    ASSERT_TRUE(snap.ok()) << "height " << h;
    EXPECT_EQ(snap.value().manifest.commitment, *at);
    const auto proof = chain.prove_account(f.alice.address(), h);
    ASSERT_TRUE(proof.ok()) << "height " << h;
    EXPECT_EQ(proof.value().commitment, *at);
  }
  EXPECT_EQ(*chain.commitment_at(tip), chain.state().commitment());
  EXPECT_EQ(chain.commitment_at(tip - 2), nullptr);
  EXPECT_EQ(chain.export_snapshot(tip - 2).error().code, "chain.stale_height");
  EXPECT_EQ(chain.prove_account(f.alice.address(), tip - 2).error().code,
            "chain.stale_height");
}

// ------------------------------------------------- install + suffix replay

TEST(SnapshotInstall, FreshReplicaReachesIdenticalCommitment) {
  SyncFixture f;
  Blockchain source = f.make_chain();
  f.grow(source, 12);
  const std::int64_t snap_height = source.height() - 3;
  auto snap = source.export_snapshot(snap_height, 512);
  ASSERT_TRUE(snap.ok());

  Blockchain replica = f.make_chain();
  const BlockHeader& anchor = source.block_at(snap_height)->header;
  ASSERT_TRUE(
      replica.init_from_snapshot(snap.value().manifest, snap.value().chunks,
                                 anchor)
          .ok());
  EXPECT_EQ(replica.base_height(), snap_height + 1);
  EXPECT_EQ(replica.height(), snap_height + 1);
  EXPECT_EQ(replica.tip_hash(), anchor.hash());

  // Replay only the suffix; the replica must land byte-identical to the
  // source tip (the acceptance oracle for the whole feature).
  auto applied = replica.import_blocks(source.export_blocks_from(replica.height()));
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.value(), 2u);  // blocks snap_height+1 .. tip
  EXPECT_EQ(replica.height(), source.height());
  EXPECT_EQ(replica.tip_hash(), source.tip_hash());
  EXPECT_EQ(replica.state().commitment(), source.state().commitment());
  EXPECT_EQ(replica.state().commitment(),
            source.state().full_rehash_commitment());

  // The snapshot-initialized replica keeps growing and serving proofs.
  f.grow(replica, 2);
  EXPECT_TRUE(replica.prove_account(f.alice.address(), replica.height() - 1).ok());
  // Blocks below the base are pruned, not silently wrong.
  EXPECT_EQ(replica.block_at(0), nullptr);
  EXPECT_EQ(replica.prove_tx(0, 0).error().code, "chain.pruned_height");
}

TEST(SnapshotInstall, RejectsBadAnchorsAndCorruptChunks) {
  SyncFixture f;
  Blockchain source = f.make_chain();
  f.grow(source, 6);
  const std::int64_t snap_height = source.height() - 2;
  auto snap = source.export_snapshot(snap_height, 512);
  ASSERT_TRUE(snap.ok());
  const BlockHeader& anchor = source.block_at(snap_height)->header;

  {  // a header from another height fails the manifest binding
    Blockchain replica = f.make_chain();
    EXPECT_EQ(replica
                  .init_from_snapshot(snap.value().manifest, snap.value().chunks,
                                      source.block_at(snap_height - 1)->header)
                  .error()
                  .code,
              "chain.bad_anchor");
  }
  {  // a tampered anchor signature is rejected before any state installs
    Blockchain replica = f.make_chain();
    BlockHeader forged = anchor;
    forged.proposer_sig.s ^= 1;
    EXPECT_EQ(replica
                  .init_from_snapshot(snap.value().manifest, snap.value().chunks,
                                      forged)
                  .error()
                  .code,
              "chain.bad_anchor");
  }
  {  // a corrupted chunk dies at the digest gate
    Blockchain replica = f.make_chain();
    std::vector<Bytes> chunks = snap.value().chunks;
    chunks.back()[0] ^= 0x10;
    EXPECT_EQ(
        replica.init_from_snapshot(snap.value().manifest, chunks, anchor)
            .error()
            .code,
        "snapshot.bad_chunk");
    EXPECT_EQ(replica.height(), 0);  // nothing installed
  }
  {  // a chain that already holds blocks refuses installation
    Blockchain replica = f.make_chain();
    f.grow(replica, 1);
    EXPECT_EQ(replica
                  .init_from_snapshot(snap.value().manifest, snap.value().chunks,
                                      anchor)
                  .error()
                  .code,
              "chain.not_fresh");
  }
}

// ------------------------------------------------------ transfer protocol

struct NetFixture {
  SyncFixture ledger;
  SimClock clock;
  net::Network net;
  Blockchain source;
  Blockchain replica;
  LightClient lc;

  explicit NetFixture(double drop_rate, int source_blocks = 12)
      : net(clock, Rng(777), net::LinkParams{1.0, 0.5, drop_rate}),
        source(ledger.make_chain()),
        replica(ledger.make_chain()),
        lc(LightClientConfig{{ledger.v0.public_key(), ledger.v1.public_key()},
                             source.genesis_hash()}) {
    ledger.grow(source, source_blocks);
    for (const Block& b : source.blocks()) {
      EXPECT_TRUE(lc.accept_header(b.header).ok());
    }
  }

  /// Drive the simulation until the catch-up finishes or `max_ticks` pass.
  void run(SnapshotCatchup& catchup, Tick max_ticks = 20000) {
    for (Tick t = 0; t < max_ticks && !catchup.done() && !catchup.failed();
         ++t) {
      clock.advance(1);
      net.step();
      catchup.tick();
    }
  }
};

TEST(SnapshotTransfer, LossyNetworkCatchUpConverges) {
  NetFixture f(/*drop_rate=*/0.12);
  const std::int64_t snap_height = f.source.height() - 3;

  net::SnapshotServer server(f.net,
                             make_snapshot_source(f.source, /*chunk_size=*/512));
  SnapshotCatchup catchup(f.net, f.replica, f.lc,
                          net::SnapshotTransferConfig{4, 8, 8, 4});
  const NodeId server_node =
      f.net.add_node([&](const net::Message& m) { server.handle(m); });
  const NodeId client_node =
      f.net.add_node([&](const net::Message& m) { catchup.handle(m); });
  server.bind(server_node);
  catchup.bind(client_node);

  ASSERT_TRUE(catchup.start(server_node, snap_height).ok());
  f.run(catchup);
  ASSERT_TRUE(catchup.done())
      << (catchup.failure() ? catchup.failure()->to_string() : "timed out");

  // The replica converged byte-identically to the source tip...
  EXPECT_EQ(f.replica.height(), f.source.height());
  EXPECT_EQ(f.replica.tip_hash(), f.source.tip_hash());
  EXPECT_EQ(f.replica.state().commitment(), f.source.state().commitment());
  // ...and identically to a replica that replayed the full history.
  Blockchain full_replay = f.ledger.make_chain();
  ASSERT_TRUE(full_replay.import_blocks(f.source.export_blocks()).ok());
  EXPECT_EQ(f.replica.state().commitment(), full_replay.state().commitment());

  // The network was genuinely lossy and the protocol genuinely retried.
  const net::NetworkStats& stats = f.net.stats();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.snapshot_retries, 0u);
  EXPECT_EQ(stats.snapshot_chunks_verified, catchup.chunks_received());
  EXPECT_EQ(stats.snapshot_syncs_completed, 1u);
  EXPECT_EQ(stats.snapshot_syncs_failed, 0u);
}

TEST(SnapshotTransfer, QueueServedChunksConvergeAndShedRecoversViaRetry) {
  // Chunk serving runs as kSnapshotServe jobs on a worker. The lane's depth
  // ceiling is tighter than the client's request window, so bursts may be
  // shed — a shed serve answers a cheap busy NACK the client absorbs by
  // deferring and re-asking, and the sync must converge regardless.
  NetFixture f(/*drop_rate=*/0.0);
  const std::int64_t snap_height = f.source.height() - 2;

  JobQueueConfig qconfig;
  qconfig.threads = 1;
  qconfig.limit(JobClass::kSnapshotServe).max_depth = 2;
  JobQueue queue(qconfig);
  net::SnapshotServer server(f.net, make_snapshot_source(f.source, 512),
                             &queue);
  SnapshotCatchup catchup(f.net, f.replica, f.lc,
                          net::SnapshotTransferConfig{4, 8, 8, 4});
  const NodeId server_node =
      f.net.add_node([&](const net::Message& m) { server.handle(m); });
  const NodeId client_node =
      f.net.add_node([&](const net::Message& m) { catchup.handle(m); });
  server.bind(server_node);
  catchup.bind(client_node);

  ASSERT_TRUE(catchup.start(server_node, snap_height).ok());
  for (Tick t = 0; t < 20000 && !catchup.done() && !catchup.failed(); ++t) {
    f.clock.advance(1);
    f.net.step();
    // Let admitted serves answer before the client scans for timeouts; shed
    // ones stay unanswered on purpose.
    queue.drain();
    catchup.tick();
  }
  ASSERT_TRUE(catchup.done())
      << (catchup.failure() ? catchup.failure()->to_string() : "timed out");
  queue.drain();  // no serve may outlive the server it references
  EXPECT_EQ(f.replica.height(), f.source.height());
  EXPECT_EQ(f.replica.tip_hash(), f.source.tip_hash());
  EXPECT_EQ(f.replica.state().commitment(), f.source.state().commitment());
  EXPECT_GT(queue.stats().of(JobClass::kSnapshotServe).completed, 0u);
}

TEST(SnapshotBusyNack, DefersWithoutBurningRetryBudget) {
  // A saturated serve lane answers chunk requests with an explicit busy
  // NACK. The client must park those requests on a backoff timer — not
  // charge its retry budget (that bounds loss/corruption, and "busy" is
  // neither) and not let its timeout machinery double-fire on them — and
  // the sync must complete once the server frees up.
  NetFixture f(/*drop_rate=*/0.0);
  const std::int64_t snap_height = f.source.height() - 2;

  JobQueueConfig qconfig;
  qconfig.threads = 1;
  qconfig.limit(JobClass::kSnapshotServe).max_depth = 1;
  JobQueue queue(qconfig);
  net::SnapshotServer server(f.net, make_snapshot_source(f.source, 512),
                             &queue);
  SnapshotCatchup catchup(f.net, f.replica, f.lc,
                          net::SnapshotTransferConfig{4, 8, 6, 4});
  const NodeId server_node =
      f.net.add_node([&](const net::Message& m) { server.handle(m); });
  const NodeId client_node =
      f.net.add_node([&](const net::Message& m) { catchup.handle(m); });
  server.bind(server_node);
  catchup.bind(client_node);

  // Pin the single worker, then fill the lane's depth allowance: every chunk
  // request from here until release is answered busy, deterministically.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  ASSERT_TRUE(queue.submit(JobClass::kSnapshotServe, [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  }));
  while (queue.stats().of(JobClass::kSnapshotServe).depth > 0) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(queue.submit(JobClass::kSnapshotServe, [] {}));

  ASSERT_TRUE(catchup.start(server_node, snap_height).ok());
  bool released = false;
  for (Tick t = 0; t < 20000 && !catchup.done() && !catchup.failed(); ++t) {
    f.clock.advance(1);
    f.net.step();
    if (t == 60) {
      {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
      }
      cv.notify_all();
      released = true;
    }
    if (released) queue.drain();
    catchup.tick();
  }
  ASSERT_TRUE(catchup.done())
      << (catchup.failure() ? catchup.failure()->to_string() : "timed out");
  queue.drain();

  EXPECT_EQ(f.replica.height(), f.source.height());
  EXPECT_EQ(f.replica.tip_hash(), f.source.tip_hash());
  const net::NetworkStats& stats = f.net.stats();
  // The busy window really happened, and it cost deferrals, not retries:
  // every NACKed request was parked and re-sent, never timed out.
  EXPECT_GT(stats.snapshot_busy_nacks, 0u);
  EXPECT_EQ(stats.snapshot_retries, 0u);
  EXPECT_EQ(stats.snapshot_syncs_completed, 1u);
  EXPECT_GT(queue.stats().of(JobClass::kSnapshotServe).shed(), 0u);
}

TEST(SnapshotTransfer, CorruptedChunksAreReRequested) {
  NetFixture f(/*drop_rate=*/0.0);
  const std::int64_t snap_height = f.source.height() - 1;

  net::SnapshotServer server(f.net, make_snapshot_source(f.source, 512));
  // The first two servings of chunk 0 arrive corrupted (after the manifest
  // digests were computed) — in-flight corruption the client must detect,
  // count, and survive by re-requesting.
  int faults_left = 2;
  server.set_chunk_fault([&](std::uint32_t index, Bytes& data) {
    if (index == 0 && faults_left > 0) {
      --faults_left;
      data[0] ^= 0xFF;
    }
  });
  SnapshotCatchup catchup(f.net, f.replica, f.lc,
                          net::SnapshotTransferConfig{4, 8, 8, 4});
  const NodeId server_node =
      f.net.add_node([&](const net::Message& m) { server.handle(m); });
  const NodeId client_node =
      f.net.add_node([&](const net::Message& m) { catchup.handle(m); });
  server.bind(server_node);
  catchup.bind(client_node);

  ASSERT_TRUE(catchup.start(server_node, snap_height).ok());
  f.run(catchup);
  ASSERT_TRUE(catchup.done())
      << (catchup.failure() ? catchup.failure()->to_string() : "timed out");
  EXPECT_EQ(f.replica.state().commitment(), f.source.state().commitment());

  const net::NetworkStats& stats = f.net.stats();
  EXPECT_EQ(stats.snapshot_chunks_rejected, 2u);
  EXPECT_EQ(stats.snapshot_retries, 2u);
  EXPECT_EQ(stats.snapshot_syncs_completed, 1u);
}

TEST(SnapshotTransfer, PersistentCorruptionExhaustsRetriesAndFails) {
  NetFixture f(/*drop_rate=*/0.0);
  const std::int64_t snap_height = f.source.height() - 1;

  net::SnapshotServer server(f.net, make_snapshot_source(f.source, 512));
  server.set_chunk_fault([](std::uint32_t index, Bytes& data) {
    if (index == 0) data[0] ^= 0xFF;  // always corrupt chunk 0
  });
  SnapshotCatchup catchup(f.net, f.replica, f.lc,
                          net::SnapshotTransferConfig{4, 8, 3, 4});
  const NodeId server_node =
      f.net.add_node([&](const net::Message& m) { server.handle(m); });
  const NodeId client_node =
      f.net.add_node([&](const net::Message& m) { catchup.handle(m); });
  server.bind(server_node);
  catchup.bind(client_node);

  ASSERT_TRUE(catchup.start(server_node, snap_height).ok());
  f.run(catchup);
  ASSERT_TRUE(catchup.failed());
  EXPECT_EQ(catchup.failure()->code, "snapshot.timeout");
  // Nothing was installed: the replica is still fresh.
  EXPECT_EQ(f.replica.height(), 0);
  EXPECT_EQ(f.net.stats().snapshot_syncs_failed, 1u);
  EXPECT_GE(f.net.stats().snapshot_chunks_rejected, 3u);
}

TEST(SnapshotTransfer, ServedManifestForWrongStateIsRefused) {
  // A lying server: serves a manifest whose commitment does not match the
  // header the light client verified. The client must refuse before
  // requesting a single chunk.
  NetFixture f(/*drop_rate=*/0.0);
  const std::int64_t snap_height = f.source.height() - 1;

  // Tamper with the served manifest bytes: burned_fees +1 changes the
  // recombined root, which no longer matches the verified header.
  auto source_cb = make_snapshot_source(f.source, 512);
  net::SnapshotServer::Source lying = source_cb;
  lying.manifest = [&f](std::int64_t height) -> Bytes {
    auto exported = f.source.export_snapshot(height, 512);
    if (!exported.ok()) return {};
    SnapshotManifest forged = exported.value().manifest;
    forged.commitment.burned_fees += 1;
    return forged.encode();
  };
  net::SnapshotServer server(f.net, lying);
  SnapshotCatchup catchup(f.net, f.replica, f.lc, {});
  const NodeId server_node =
      f.net.add_node([&](const net::Message& m) { server.handle(m); });
  const NodeId client_node =
      f.net.add_node([&](const net::Message& m) { catchup.handle(m); });
  server.bind(server_node);
  catchup.bind(client_node);

  ASSERT_TRUE(catchup.start(server_node, snap_height).ok());
  f.run(catchup);
  ASSERT_TRUE(catchup.failed());
  EXPECT_EQ(catchup.failure()->code, "snapshot.untrusted_manifest");
  EXPECT_EQ(catchup.chunks_received(), 0u);
}

TEST(SnapshotTransfer, StartRequiresVerifiedHeader) {
  NetFixture f(/*drop_rate=*/0.0);
  SnapshotCatchup catchup(f.net, f.replica, f.lc, {});
  EXPECT_EQ(catchup.start(NodeId::invalid(), f.source.height() + 5).error().code,
            "snapshot.unknown_header");
}

TEST(SnapshotTransfer, StartRequiresPeers) {
  NetFixture f(/*drop_rate=*/0.0);
  SnapshotCatchup catchup(f.net, f.replica, f.lc, {});
  EXPECT_EQ(catchup.start(std::vector<NodeId>{}, f.source.height() - 1)
                .error()
                .code,
            "snapshot.no_peers");
}

// ------------------------------------------------------- swarm catch-up

/// NetFixture plus N servers sharing the source chain, each with a pinned
/// export cache (the swarm-serving configuration).
struct SwarmFixture : NetFixture {
  std::vector<std::unique_ptr<SnapshotExportCache>> caches;
  std::vector<std::unique_ptr<net::SnapshotServer>> servers;
  std::vector<NodeId> server_nodes;

  SwarmFixture(double drop_rate, std::size_t n_servers, int source_blocks = 12,
               std::size_t chunk_size = 256)
      : NetFixture(drop_rate, source_blocks) {
    for (std::size_t i = 0; i < n_servers; ++i) {
      caches.push_back(std::make_unique<SnapshotExportCache>());
      servers.push_back(std::make_unique<net::SnapshotServer>(
          net,
          make_snapshot_source(source, chunk_size, caches.back().get())));
      net::SnapshotServer& server = *servers.back();
      server_nodes.push_back(
          net.add_node([&server](const net::Message& m) { server.handle(m); }));
      servers.back()->bind(server_nodes.back());
    }
  }
};

TEST(SnapshotSwarm, StripedLossyCatchUpConvergesAcrossPeers) {
  // Four replicas advertise the snapshot; chunk requests stripe across all
  // of them under a per-peer in-flight cap, through 12% iid loss, and the
  // result is byte-identical to a full replay.
  SwarmFixture f(/*drop_rate=*/0.12, /*n_servers=*/4);
  const std::int64_t snap_height = f.source.height() - 3;

  SnapshotCatchup catchup(
      f.net, f.replica, f.lc,
      net::SnapshotTransferConfig{16, 8, 8, 4, /*per_peer_inflight=*/4});
  const NodeId client_node =
      f.net.add_node([&](const net::Message& m) { catchup.handle(m); });
  catchup.bind(client_node);

  ASSERT_TRUE(catchup.start(f.server_nodes, snap_height).ok());
  f.run(catchup);
  ASSERT_TRUE(catchup.done())
      << (catchup.failure() ? catchup.failure()->to_string() : "timed out");

  EXPECT_EQ(f.replica.height(), f.source.height());
  EXPECT_EQ(f.replica.tip_hash(), f.source.tip_hash());
  EXPECT_EQ(f.replica.state().commitment(), f.source.state().commitment());
  Blockchain full_replay = f.ledger.make_chain();
  ASSERT_TRUE(full_replay.import_blocks(f.source.export_blocks()).ok());
  EXPECT_EQ(f.replica.state().commitment(), full_replay.state().commitment());

  // The stripe genuinely spread: more than one peer served verified chunks
  // (a peer whose manifest response was lost sits the stripe out — that is
  // allowed, the rest carry it).
  std::size_t serving_peers = 0;
  std::size_t total_served = 0;
  for (const auto& p : catchup.peers()) {
    if (p.served > 0) ++serving_peers;
    total_served += p.served;
  }
  EXPECT_GT(serving_peers, 1u);
  EXPECT_EQ(total_served, catchup.chunks_received());
  EXPECT_GT(f.net.stats().dropped, 0u);
  EXPECT_EQ(f.net.stats().snapshot_syncs_completed, 1u);
}

TEST(SnapshotSwarm, ByzantinePeerIsDemotedWhileSyncCompletes) {
  // One of three replicas serves corrupt bytes for every chunk. Each bad
  // chunk is rejected at the digest gate and re-requested from a different
  // peer; the corrupt peer collects strikes until it is demoted, and the
  // sync still converges byte-identically off the honest peers.
  // 24 blocks at tiny chunks => enough chunks that the corrupt peer's
  // initial stripe alone crosses the demotion threshold.
  SwarmFixture f(/*drop_rate=*/0.0, /*n_servers=*/3, /*source_blocks=*/24,
                 /*chunk_size=*/64);
  const std::int64_t snap_height = f.source.height() - 2;
  f.servers[0]->set_chunk_fault(
      [](std::uint32_t, Bytes& data) { data[0] ^= 0xFF; });

  SnapshotCatchup catchup(
      f.net, f.replica, f.lc,
      net::SnapshotTransferConfig{12, 8, 8, 4, /*per_peer_inflight=*/8});
  const NodeId client_node =
      f.net.add_node([&](const net::Message& m) { catchup.handle(m); });
  catchup.bind(client_node);

  ASSERT_TRUE(catchup.start(f.server_nodes, snap_height).ok());
  f.run(catchup);
  ASSERT_TRUE(catchup.done())
      << (catchup.failure() ? catchup.failure()->to_string() : "timed out");

  EXPECT_EQ(f.replica.height(), f.source.height());
  EXPECT_EQ(f.replica.state().commitment(), f.source.state().commitment());
  // The byzantine peer was demoted and served nothing that verified; the
  // honest peers carried the sync.
  const auto& peers = catchup.peers();
  EXPECT_TRUE(peers[0].demoted);
  EXPECT_EQ(peers[0].served, 0u);
  EXPECT_FALSE(peers[1].demoted);
  EXPECT_FALSE(peers[2].demoted);
  EXPECT_EQ(peers[1].served + peers[2].served, catchup.chunks_received());
  const net::NetworkStats& stats = f.net.stats();
  EXPECT_GE(stats.snapshot_peers_demoted, 1u);
  EXPECT_GT(stats.snapshot_chunks_rejected, 0u);
  EXPECT_EQ(stats.snapshot_syncs_completed, 1u);
}

TEST(SnapshotSwarm, DemotedPeerRecoversAndIsPromotedBack) {
  // Regression for permanent demotion: a peer that hits one transient rough
  // patch (its first few chunk serves corrupt in flight) is demoted, then
  // serves clean chunks as last-resort capacity; after promote_after
  // consecutive clean serves it is promoted back to full duty instead of
  // carrying the demotion for the rest of the sync.
  SwarmFixture f(/*drop_rate=*/0.0, /*n_servers=*/2, /*source_blocks=*/24,
                 /*chunk_size=*/64);
  const std::int64_t snap_height = f.source.height() - 2;
  std::size_t faults_left = 2;
  f.servers[0]->set_chunk_fault([&](std::uint32_t, Bytes& data) {
    if (faults_left > 0) {
      --faults_left;
      data[0] ^= 0xFF;
    }
  });

  net::SnapshotTransferConfig cfg{12, 8, 8, 4, /*per_peer_inflight=*/4};
  cfg.demote_after = 2;
  cfg.promote_after = 3;
  SnapshotCatchup catchup(f.net, f.replica, f.lc, cfg);
  const NodeId client_node =
      f.net.add_node([&](const net::Message& m) { catchup.handle(m); });
  catchup.bind(client_node);

  ASSERT_TRUE(catchup.start(f.server_nodes, snap_height).ok());
  f.run(catchup);
  ASSERT_TRUE(catchup.done())
      << (catchup.failure() ? catchup.failure()->to_string() : "timed out");
  EXPECT_EQ(f.replica.height(), f.source.height());
  EXPECT_EQ(f.replica.state().commitment(), f.source.state().commitment());

  // The transiently-faulty peer was demoted, recovered through clean
  // serves, and finished the sync in good standing with real contributions.
  const auto& peers = catchup.peers();
  EXPECT_FALSE(peers[0].demoted);
  EXPECT_EQ(peers[0].strikes, 0u);
  EXPECT_GT(peers[0].served, cfg.promote_after);
  const net::NetworkStats& stats = f.net.stats();
  EXPECT_GE(stats.snapshot_peers_demoted, 1u);
  EXPECT_GE(stats.snapshot_peers_promoted, 1u);
  EXPECT_EQ(stats.snapshot_syncs_completed, 1u);
}

TEST(SnapshotSwarm, BusyPeerReroutesInsteadOfFailing) {
  // Regression for the single-peer dead end: when a server's busy-defer
  // budget ran out the old client failed the sync outright. With a peer
  // set, a busy NACK re-aims the request at another peer and the sync
  // completes without charging the retry budget.
  SwarmFixture f(/*drop_rate=*/0.0, /*n_servers=*/1);
  const std::int64_t snap_height = f.source.height() - 2;

  // Server 0 is wrapped in a saturated queue: its worker is pinned and the
  // lane is full, so every chunk request it sees is answered with a busy
  // NACK for the whole test.
  JobQueueConfig qconfig;
  qconfig.threads = 1;
  qconfig.limit(JobClass::kSnapshotServe).max_depth = 1;
  JobQueue queue(qconfig);
  SnapshotExportCache busy_cache;
  net::SnapshotServer busy_server(
      f.net, make_snapshot_source(f.source, 256, &busy_cache), &queue);
  const NodeId busy_node =
      f.net.add_node([&](const net::Message& m) { busy_server.handle(m); });
  busy_server.bind(busy_node);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  ASSERT_TRUE(queue.submit(JobClass::kSnapshotServe, [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  }));
  while (queue.stats().of(JobClass::kSnapshotServe).depth > 0) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(queue.submit(JobClass::kSnapshotServe, [] {}));

  SnapshotCatchup catchup(
      f.net, f.replica, f.lc,
      net::SnapshotTransferConfig{8, 8, 6, 4, /*per_peer_inflight=*/8});
  const NodeId client_node =
      f.net.add_node([&](const net::Message& m) { catchup.handle(m); });
  catchup.bind(client_node);

  ASSERT_TRUE(
      catchup.start(std::vector<NodeId>{busy_node, f.server_nodes[0]},
                    snap_height)
          .ok());
  f.run(catchup);
  ASSERT_TRUE(catchup.done())
      << (catchup.failure() ? catchup.failure()->to_string() : "timed out");
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  queue.drain();  // no serve may outlive the server it references

  EXPECT_EQ(f.replica.height(), f.source.height());
  EXPECT_EQ(f.replica.state().commitment(), f.source.state().commitment());
  const net::NetworkStats& stats = f.net.stats();
  // Busy answers were re-aimed at the healthy peer — never parked into the
  // retry budget, never fatal.
  EXPECT_GT(stats.snapshot_busy_nacks, 0u);
  EXPECT_GT(stats.snapshot_busy_reroutes, 0u);
  EXPECT_EQ(stats.snapshot_retries, 0u);
  EXPECT_EQ(stats.snapshot_syncs_failed, 0u);
  EXPECT_EQ(catchup.peers()[0].served, 0u);
  EXPECT_EQ(catchup.peers()[1].served, catchup.chunks_received());
}

TEST(SnapshotSwarm, SinglePersistentlyBusyPeerIsStillADeadEnd) {
  // The busy-defer cap keeps its original meaning when there is nowhere to
  // reroute: one peer, permanently saturated, must fail the sync instead of
  // deferring forever.
  NetFixture f(/*drop_rate=*/0.0);
  const std::int64_t snap_height = f.source.height() - 2;

  JobQueueConfig qconfig;
  qconfig.threads = 1;
  qconfig.limit(JobClass::kSnapshotServe).max_depth = 1;
  JobQueue queue(qconfig);
  net::SnapshotServer server(f.net, make_snapshot_source(f.source, 512),
                             &queue);
  const NodeId server_node =
      f.net.add_node([&](const net::Message& m) { server.handle(m); });
  server.bind(server_node);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  ASSERT_TRUE(queue.submit(JobClass::kSnapshotServe, [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  }));
  while (queue.stats().of(JobClass::kSnapshotServe).depth > 0) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(queue.submit(JobClass::kSnapshotServe, [] {}));

  SnapshotCatchup catchup(f.net, f.replica, f.lc,
                          net::SnapshotTransferConfig{4, 8, 6, 4});
  const NodeId client_node =
      f.net.add_node([&](const net::Message& m) { catchup.handle(m); });
  catchup.bind(client_node);

  ASSERT_TRUE(catchup.start(server_node, snap_height).ok());
  f.run(catchup);
  ASSERT_TRUE(catchup.failed());
  EXPECT_EQ(catchup.failure()->code, "snapshot.server_busy");
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  queue.drain();
  EXPECT_EQ(f.replica.height(), 0);
  EXPECT_EQ(f.net.stats().snapshot_syncs_failed, 1u);
}

// --------------------------------------------------------- diff snapshots

TEST(SnapshotDiff, FetchesOnlyChangedChunksAndInstallsIdentically) {
  // A replica holding an older snapshot re-syncs to a newer height. Chunks
  // whose digests already match the target manifest are reused from the
  // local base; exactly the changed ones cross the wire, and the installed
  // state is byte-identical to the source.
  // The snapshot byte stream is fixed-width, so a bulky append-only audit
  // log sandwiched between the constant-size account section and the
  // mutating store tail keeps both its offsets and its bytes across a few
  // blocks of ordinary traffic — that middle run is what the diff reuses.
  SwarmFixture f(/*drop_rate=*/0.0, /*n_servers=*/2, /*source_blocks=*/2);
  const std::size_t headers_seen = f.source.blocks().size();
  const std::string blob(48, 'x');
  for (int b = 0; b < 8; ++b) {
    const std::int64_t h = f.source.height();
    const crypto::Wallet& proposer = (h % 2 == 0) ? f.ledger.v0 : f.ledger.v1;
    std::vector<Transaction> txs;
    std::uint64_t nonce = f.source.state().nonce(f.ledger.alice.address());
    for (int i = 0; i < 3; ++i) {
      txs.push_back(make_audit_record(
          f.ledger.alice, nonce++,
          AuditRecordBody{"pose." + blob, "presence." + blob, 5,
                          "laplace." + blob},
          1, f.ledger.rng));
    }
    ASSERT_TRUE(
        f.source.append(f.source.assemble(proposer, txs, h, f.ledger.rng))
            .ok());
  }
  auto base = f.source.export_snapshot(f.source.height() - 1, 256);
  ASSERT_TRUE(base.ok()) << base.error().to_string();

  // A few blocks of ordinary traffic on top: the delta the diff must fetch.
  f.ledger.grow(f.source, 4);
  for (std::size_t i = headers_seen; i < f.source.blocks().size(); ++i) {
    ASSERT_TRUE(f.lc.accept_header(f.source.blocks()[i].header).ok());
  }
  const std::int64_t snap_height = f.source.height() - 2;
  auto target = f.source.export_snapshot(snap_height, 256);
  ASSERT_TRUE(target.ok());
  // The delta must be real but strictly smaller than the snapshot.
  std::size_t expected_reused = 0;
  const auto& base_digests = base.value().manifest.chunk_digests;
  const auto& target_digests = target.value().manifest.chunk_digests;
  for (std::size_t i = 0;
       i < std::min(base_digests.size(), target_digests.size()); ++i) {
    if (base_digests[i] == target_digests[i]) ++expected_reused;
  }
  ASSERT_GT(expected_reused, 0u) << "base shares no chunks; weaken the test";
  ASSERT_LT(expected_reused, target_digests.size());

  SnapshotCatchup catchup(
      f.net, f.replica, f.lc,
      net::SnapshotTransferConfig{8, 8, 8, 4, /*per_peer_inflight=*/4});
  const NodeId client_node =
      f.net.add_node([&](const net::Message& m) { catchup.handle(m); });
  catchup.bind(client_node);
  catchup.set_diff_base(std::move(base).value());

  ASSERT_TRUE(catchup.start(f.server_nodes, snap_height).ok());
  f.run(catchup);
  ASSERT_TRUE(catchup.done())
      << (catchup.failure() ? catchup.failure()->to_string() : "timed out");

  EXPECT_EQ(f.replica.height(), f.source.height());
  EXPECT_EQ(f.replica.tip_hash(), f.source.tip_hash());
  EXPECT_EQ(f.replica.state().commitment(), f.source.state().commitment());

  // The fetch count is exact: every matching chunk was reused, every
  // changed one was served, nothing twice (no loss in this test).
  const net::NetworkStats& stats = f.net.stats();
  EXPECT_EQ(stats.snapshot_diff_chunks_reused, expected_reused);
  EXPECT_EQ(stats.snapshot_chunks_served,
            target_digests.size() - expected_reused);
  EXPECT_EQ(catchup.chunks_received(), target_digests.size());
}

TEST(SnapshotDiff, StaleBaseDegradesToFullFetch) {
  // A diff base with a different chunk geometry shares no digests: nothing
  // prefills, everything is fetched, and the sync still converges.
  SwarmFixture f(/*drop_rate=*/0.0, /*n_servers=*/1);
  const std::int64_t snap_height = f.source.height() - 2;
  auto base = f.source.export_snapshot(snap_height - 3, 128);  // other size
  ASSERT_TRUE(base.ok());

  SnapshotCatchup catchup(f.net, f.replica, f.lc,
                          net::SnapshotTransferConfig{4, 8, 8, 4});
  const NodeId client_node =
      f.net.add_node([&](const net::Message& m) { catchup.handle(m); });
  catchup.bind(client_node);
  catchup.set_diff_base(std::move(base).value());

  ASSERT_TRUE(catchup.start(f.server_nodes, snap_height).ok());
  f.run(catchup);
  ASSERT_TRUE(catchup.done());
  EXPECT_EQ(f.net.stats().snapshot_diff_chunks_reused, 0u);
  EXPECT_EQ(f.replica.state().commitment(), f.source.state().commitment());
}

// ------------------------------------------------------ pinned export cache

TEST(SnapshotExportCachePinning, ServesConsistentlyPastRetention) {
  // A sync that started inside the retention window keeps being served from
  // the pinned export while the chain commits past it — the direct export
  // is already stale, the cached one is not.
  SyncFixture f;
  Blockchain chain = f.make_chain();
  f.grow(chain, 12);
  const std::int64_t snap_height = chain.height() - 1;

  SnapshotExportCache cache(/*capacity=*/2);
  auto source = make_snapshot_source(chain, 256, &cache);
  const Bytes manifest_bytes = source.manifest(snap_height);
  ASSERT_FALSE(manifest_bytes.empty());
  const Bytes chunk0 = source.chunk(snap_height, 0);
  ASSERT_FALSE(chunk0.empty());
  EXPECT_EQ(cache.stats().misses, 1u);

  // Commit far past the retention ring (retention = 8).
  f.grow(chain, 10);
  ASSERT_EQ(chain.export_snapshot(snap_height).error().code,
            "chain.stale_height");

  // The pinned export still answers, byte-identically.
  EXPECT_EQ(source.manifest(snap_height), manifest_bytes);
  EXPECT_EQ(source.chunk(snap_height, 0), chunk0);
  EXPECT_GE(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // LRU bound: filling past capacity evicts the oldest entry.
  ASSERT_FALSE(source.manifest(chain.height() - 1).empty());
  ASSERT_FALSE(source.manifest(chain.height() - 2).empty());
  EXPECT_EQ(cache.size(), 2u);
}

// ------------------------------------------------------------- sig cache

TEST(DigestLru, InsertContainsAndTouch) {
  crypto::DigestLruSet cache(3);
  const auto d = [](int i) { return crypto::sha256(std::string(1, char(i))); };
  EXPECT_FALSE(cache.contains_and_touch(d(1)));
  cache.insert(d(1));
  cache.insert(d(2));
  cache.insert(d(3));
  EXPECT_TRUE(cache.contains_and_touch(d(1)));
  EXPECT_EQ(cache.size(), 3u);
  // 1 was just touched; inserting 4 evicts the least recently used: 2.
  cache.insert(d(4));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_TRUE(cache.contains_and_touch(d(1)));
  EXPECT_FALSE(cache.contains_and_touch(d(2)));
  EXPECT_TRUE(cache.contains_and_touch(d(3)));
  EXPECT_TRUE(cache.contains_and_touch(d(4)));
  // Re-inserting an existing digest does not grow the set.
  cache.insert(d(4));
  EXPECT_EQ(cache.size(), 3u);
}

TEST(SigCache, ValidateThenAppendVerifiesEachSignatureOnce) {
  SyncFixture f;
  f.config.validation.sig_cache = std::make_shared<crypto::DigestLruSet>();
  Blockchain chain = f.make_chain();
  std::vector<Transaction> txs;
  for (int i = 0; i < 3; ++i) {
    txs.push_back(make_transfer(f.alice, static_cast<std::uint64_t>(i),
                                f.bob.address(), 1, 1, f.rng));
  }
  const Block block = chain.assemble(f.v0, txs, 0, f.rng);
  const ValidationStats& vs = chain.validation_stats();
  // Assembly verified (and remembered) each signature once...
  EXPECT_EQ(vs.sig_cache_misses, 3u);
  EXPECT_EQ(vs.sig_cache_hits, 0u);
  // ...and validation and commit are served from the execution memo, so
  // neither looks at a signature again.
  ASSERT_TRUE(chain.validate(block).ok());
  EXPECT_EQ(vs.sig_cache_hits, 0u);
  EXPECT_EQ(vs.sig_cache_misses, 3u);
  EXPECT_EQ(vs.memo_hits, 1u);
  ASSERT_TRUE(chain.append(block).ok());
  EXPECT_EQ(vs.sig_cache_hits, 0u);
  EXPECT_EQ(vs.sig_cache_misses, 3u);
  EXPECT_EQ(vs.memo_hits, 2u);
  EXPECT_EQ(chain.state().nonce(f.alice.address()), 3u);
}

TEST(SigCache, MempoolAdmissionFeedsBlockValidation) {
  SyncFixture f;
  auto cache = std::make_shared<crypto::DigestLruSet>();
  f.config.validation.sig_cache = cache;
  Blockchain chain = f.make_chain();
  MempoolConfig mc;
  mc.sig_cache = cache;
  Mempool pool(mc);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.add(make_transfer(f.alice, static_cast<std::uint64_t>(i),
                                       f.bob.address(), 1, 1, f.rng),
                         chain.state())
                    .ok());
  }
  EXPECT_EQ(cache->size(), 4u);
  const auto candidates = pool.select(16, chain.state());
  const Block block = chain.assemble(f.v0, candidates, 0, f.rng);
  // Admission already verified every signature: assembly is all hits.
  EXPECT_EQ(chain.validation_stats().sig_cache_hits, 4u);
  EXPECT_EQ(chain.validation_stats().sig_cache_misses, 0u);
  // Commit reuses assembly's execution: no further signature lookups.
  ASSERT_TRUE(chain.append(block).ok());
  EXPECT_EQ(chain.validation_stats().sig_cache_hits, 4u);
  EXPECT_EQ(chain.validation_stats().sig_cache_misses, 0u);
  EXPECT_EQ(chain.validation_stats().memo_hits, 1u);
}

TEST(SigCache, TamperingMissesTheCache) {
  SyncFixture f;
  auto cache = std::make_shared<crypto::DigestLruSet>();
  MempoolConfig mc;
  mc.sig_cache = cache;
  Mempool pool(mc);
  Blockchain chain = f.make_chain();
  Transaction tx = make_transfer(f.alice, 0, f.bob.address(), 1, 5, f.rng);
  ASSERT_TRUE(pool.add(tx, chain.state()).ok());
  ASSERT_TRUE(cache->contains_and_touch(tx.digest()));
  // The digest covers the signed fields: tampering changes it, so the
  // cached verification cannot vouch for the mutated transaction.
  Transaction forged = tx;
  forged.fee = 0;
  EXPECT_FALSE(cache->contains_and_touch(forged.digest()));
  EXPECT_EQ(pool.add(forged, chain.state()).error().code,
            "mempool.bad_signature");
}

}  // namespace
}  // namespace mv::ledger
