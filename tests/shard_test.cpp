// Sharded ledger tests: beacon codec + anchor proofs, account partitioning,
// single-shard byte-identity with the plain chain, thread-count determinism,
// cross-shard lock-and-mint end to end, replay/stale-root/foreign-root
// rejection, receipt codec mutation fuzz, and composed account proofs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "ledger/beacon.h"
#include "ledger/shard.h"

namespace mv::ledger {
namespace {

/// Generate a wallet whose address lives on `target` of `num_shards`.
crypto::Wallet wallet_on_shard(Rng& rng, std::uint32_t target,
                               std::size_t num_shards) {
  while (true) {
    crypto::Wallet w(rng);
    if (shard_of(w.address(), num_shards) == target) return w;
  }
}

std::uint64_t store_u64(const LedgerState& state, const char* key) {
  return leading_u64(state.store_get(kXShardContractName, key));
}

ShardAnchor anchor_of(const crypto::Digest& state_root,
                      const crypto::Digest& receipts_root) {
  ShardAnchor a;
  a.state_root = state_root;
  a.receipts_root = receipts_root;
  return a;
}

crypto::Digest digest_of(std::uint8_t fill) {
  crypto::Digest d{};
  d.fill(fill);
  return d;
}

// ---------------------------------------------------------------- beacon

TEST(Beacon, HeaderCodecRoundTrip) {
  Rng rng(7);
  crypto::Wallet proposer(rng);
  BeaconHeader h;
  h.height = 3;
  h.prev_hash = digest_of(0xaa);
  h.timestamp = 42;
  h.shards = {anchor_of(digest_of(1), digest_of(2)),
              anchor_of(digest_of(3), digest_of(4))};
  h.beacon_root = combine_beacon_root(h.shards);
  h.proposer_pub = proposer.public_key();
  h.proposer_sig = proposer.sign(h.signing_bytes(), rng);

  auto decoded = BeaconHeader::decode(h.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().height, h.height);
  EXPECT_EQ(decoded.value().prev_hash, h.prev_hash);
  EXPECT_EQ(decoded.value().shards, h.shards);
  EXPECT_EQ(decoded.value().beacon_root, h.beacon_root);
  EXPECT_EQ(decoded.value().hash(), h.hash());
  EXPECT_EQ(decoded.value().encode(), h.encode());
}

TEST(Beacon, DecodeRejectsTrailingBytes) {
  BeaconHeader h;
  h.shards = {anchor_of(digest_of(1), digest_of(2))};
  h.beacon_root = combine_beacon_root(h.shards);
  Bytes enc = h.encode();
  enc.push_back(0);
  const auto decoded = BeaconHeader::decode(enc);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, errc::kBeaconTrailing);
}

TEST(Beacon, DecodeRejectsTamperedAnchor) {
  BeaconHeader h;
  h.shards = {anchor_of(digest_of(1), digest_of(2)),
              anchor_of(digest_of(3), digest_of(4))};
  h.beacon_root = combine_beacon_root(h.shards);
  Bytes enc = h.encode();
  // Flip one bit somewhere inside the anchor roots; the recomputed beacon
  // root no longer matches the encoded one.
  enc[enc.size() / 2] ^= 0x01;
  const auto decoded = BeaconHeader::decode(enc);
  EXPECT_FALSE(decoded.ok());
}

TEST(Beacon, DecodeRejectsGarbage) {
  EXPECT_FALSE(BeaconHeader::decode(Bytes{1, 2, 3}).ok());
  EXPECT_FALSE(BeaconHeader::decode(Bytes{}).ok());
}

TEST(Beacon, ShardAnchorProofVerifies) {
  std::vector<ShardAnchor> anchors;
  for (std::uint8_t i = 0; i < 5; ++i) {
    anchors.push_back(anchor_of(digest_of(i), digest_of(0x10 + i)));
  }
  const crypto::Digest root = combine_beacon_root(anchors);
  for (std::uint32_t i = 0; i < anchors.size(); ++i) {
    const auto proof = prove_shard_anchor(anchors, i);
    EXPECT_TRUE(verify_shard_anchor(root, i, anchors[i], proof));
    // Same anchor claimed at the wrong index fails.
    EXPECT_FALSE(verify_shard_anchor(root, (i + 1) % anchors.size(),
                                     anchors[i], proof));
  }
  // A tampered anchor fails against an honest proof.
  auto proof0 = prove_shard_anchor(anchors, 0);
  ShardAnchor forged = anchors[0];
  forged.state_root = digest_of(0xff);
  EXPECT_FALSE(verify_shard_anchor(root, 0, forged, proof0));
}

TEST(Beacon, ArchiveServesAnchors) {
  BeaconArchive archive;
  EXPECT_EQ(archive.size(), 0);
  EXPECT_FALSE(archive.anchor(0, 0).has_value());

  BeaconHeader h;
  h.height = 0;
  h.shards = {anchor_of(digest_of(1), digest_of(2)),
              anchor_of(digest_of(3), digest_of(4))};
  archive.push(h);
  ASSERT_EQ(archive.size(), 1);
  const auto a = archive.anchor(0, 1);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->state_root, digest_of(3));
  EXPECT_FALSE(archive.anchor(0, 2).has_value());  // shard out of range
  EXPECT_FALSE(archive.anchor(1, 0).has_value());  // height not archived
  EXPECT_FALSE(archive.anchor(-1, 0).has_value());
}

// ------------------------------------------------------------ partitioning

TEST(Shard, ShardOfStableAndInRange) {
  Rng rng(11);
  std::map<std::uint32_t, int> histogram;
  for (int i = 0; i < 200; ++i) {
    crypto::Wallet w(rng);
    const std::uint32_t s = shard_of(w.address(), 4);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, shard_of(w.address(), 4));  // stable
    EXPECT_EQ(shard_of(w.address(), 1), 0u);
    ++histogram[s];
  }
  // The mix should spread 200 addresses over all 4 shards.
  EXPECT_EQ(histogram.size(), 4u);
}

TEST(Shard, PartitionGenesisConservesBalances) {
  Rng rng(13);
  LedgerState genesis;
  std::uint64_t total = 0;
  std::vector<crypto::Address> addrs;
  for (int i = 0; i < 50; ++i) {
    crypto::Wallet w(rng);
    genesis.credit(w.address(), 100 + static_cast<std::uint64_t>(i));
    total += 100 + static_cast<std::uint64_t>(i);
    addrs.push_back(w.address());
  }
  const auto parts = partition_genesis(genesis, 4);
  ASSERT_EQ(parts.size(), 4u);
  std::uint64_t sum = 0;
  for (const auto& part : parts) {
    for (const auto& [addr, acc] : part.accounts()) sum += acc.balance;
  }
  EXPECT_EQ(sum, total);
  for (const auto addr : addrs) {
    EXPECT_EQ(parts[shard_of(addr, 4)].balance(addr), genesis.balance(addr));
  }
}

// ------------------------------------------ single-shard byte-identity

TEST(ShardedLedger, SingleShardMatchesPlainChain) {
  Rng rng(17);
  crypto::Wallet proposer(rng);
  crypto::Wallet alice(rng);
  crypto::Wallet bob(rng);
  LedgerState genesis;
  genesis.credit(alice.address(), 10'000);
  genesis.credit(bob.address(), 10'000);

  ShardConfig config;
  config.num_shards = 1;
  config.validators = {proposer.public_key()};
  ShardedLedger sharded(config, genesis);

  ChainConfig chain_config;
  chain_config.validators = config.validators;
  Blockchain plain(chain_config, std::make_shared<ContractRegistry>(),
                   LedgerState(genesis));

  Rng txrng(18);
  Rng signing(19);
  for (int round = 0; round < 4; ++round) {
    std::vector<Transaction> txs;
    txs.push_back(make_transfer(alice, static_cast<std::uint64_t>(round),
                                bob.address(), 10 + round, 1, txrng));
    txs.push_back(make_transfer(bob, static_cast<std::uint64_t>(round),
                                alice.address(), 5, 1, txrng));
    for (const auto& tx : txs) {
      ASSERT_TRUE(sharded.submit(tx).ok());
    }
    const auto beacon = sharded.commit_round(proposer, round);
    ASSERT_TRUE(beacon.ok());

    const Block block = plain.assemble(proposer, txs, round, signing);
    ASSERT_TRUE(plain.append(block).ok());

    // The shard's state commitment is byte-identical to the single-chain
    // path, and the beacon anchors exactly that root.
    const auto* sc = sharded.shard(0).commitment_at(round);
    const auto* pc = plain.commitment_at(round);
    ASSERT_NE(sc, nullptr);
    ASSERT_NE(pc, nullptr);
    EXPECT_EQ(sc->root, pc->root);
    EXPECT_EQ(sc->accounts_root, pc->accounts_root);
    EXPECT_EQ(beacon.value().shards[0].state_root, pc->root);
  }
}

TEST(ShardedLedger, RejectsZeroStateRetention) {
  // Each shard's chain must keep at least its tip's commitment, which the
  // beacon anchors; retention 0 used to leave commit_round a null one.
  Rng rng(31);
  crypto::Wallet proposer(rng);
  LedgerState genesis;
  genesis.credit(proposer.address(), 1'000);
  ShardConfig config;
  config.num_shards = 2;
  config.validators = {proposer.public_key()};
  config.state_retention = 0;
  EXPECT_THROW(ShardedLedger(config, genesis), std::invalid_argument);
}

// ------------------------------------------------- thread determinism

std::vector<crypto::Digest> run_sharded_workload(std::size_t queue_threads) {
  Rng rng(23);
  crypto::Wallet proposer(rng);
  const std::size_t kShards = 4;
  std::vector<crypto::Wallet> wallets;
  LedgerState genesis;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    for (int i = 0; i < 3; ++i) {
      wallets.push_back(wallet_on_shard(rng, s, kShards));
      genesis.credit(wallets.back().address(), 50'000);
    }
  }

  ShardConfig config;
  config.num_shards = kShards;
  config.validators = {proposer.public_key()};
  config.validation.sig_cache = std::make_shared<crypto::DigestLruSet>();
  JobQueueConfig qc;
  qc.threads = queue_threads;
  config.validation.job_queue = std::make_shared<JobQueue>(qc);
  ShardedLedger ledger(config, genesis);

  std::vector<crypto::Digest> roots;
  Rng txrng(29);
  std::vector<std::uint64_t> nonces(wallets.size(), 0);
  for (int round = 0; round < 5; ++round) {
    for (std::size_t i = 0; i < wallets.size(); ++i) {
      const std::size_t peer = (i + 1 + static_cast<std::size_t>(round)) %
                               wallets.size();
      if (peer == i) continue;
      const auto tx = make_transfer(wallets[i], nonces[i]++,
                                    wallets[peer].address(), 7, 1, txrng);
      EXPECT_TRUE(ledger.submit(tx).ok());
    }
    const auto beacon = ledger.commit_round(proposer, round);
    EXPECT_TRUE(beacon.ok());
    roots.push_back(beacon.value().beacon_root);
  }
  return roots;
}

TEST(ShardedLedger, BeaconRootsStableAcrossThreadCounts) {
  const auto inline_roots = run_sharded_workload(0);
  const auto threaded_roots = run_sharded_workload(4);
  EXPECT_EQ(inline_roots, threaded_roots);
}

// --------------------------------------------------- cross-shard transfer

struct CrossShardFixture {
  Rng rng{31};
  crypto::Wallet proposer{rng};
  crypto::Wallet alice;  ///< shard 0
  crypto::Wallet bob;    ///< shard 1
  ShardConfig config;
  std::unique_ptr<ShardedLedger> ledger;

  CrossShardFixture()
      : alice(wallet_on_shard(rng, 0, 2)), bob(wallet_on_shard(rng, 1, 2)) {
    LedgerState genesis;
    genesis.credit(alice.address(), 10'000);
    genesis.credit(bob.address(), 1'000);
    config.num_shards = 2;
    config.validators = {proposer.public_key()};
    ledger = std::make_unique<ShardedLedger>(config, genesis);
  }

  std::uint64_t total_balances() const {
    std::uint64_t sum = 0;
    for (std::uint32_t s = 0; s < 2; ++s) {
      for (const auto& [addr, acc] : ledger->state(s).accounts()) sum += acc.balance;
    }
    return sum;
  }

  std::uint64_t conserved_total() const {
    std::uint64_t sum = total_balances();
    for (std::uint32_t s = 0; s < 2; ++s) {
      sum += ledger->state(s).burned_fees();
      sum += store_u64(ledger->state(s), kXShardLockedTotalKey);
      sum -= store_u64(ledger->state(s), kXShardMintedTotalKey);
    }
    return sum;
  }
};

TEST(CrossShard, LockProveMintEndToEnd) {
  CrossShardFixture f;
  const std::uint64_t supply = f.total_balances();

  // Round 0: alice locks 300 on shard 0 for bob on shard 1.
  Rng txrng(37);
  ASSERT_TRUE(
      f.ledger
          ->submit(make_xshard_lock(f.alice, 0, 1, f.bob.address(), 300, 2,
                                    txrng))
          .ok());
  const auto beacon0 = f.ledger->commit_round(f.proposer, 0);
  ASSERT_TRUE(beacon0.ok());
  EXPECT_EQ(f.ledger->receipt_count(0), 1u);
  EXPECT_EQ(f.ledger->state(0).balance(f.alice.address()), 10'000u - 300 - 2);
  EXPECT_EQ(store_u64(f.ledger->state(0), kXShardLockedTotalKey), 300u);
  EXPECT_EQ(f.conserved_total(), supply);

  // The receipt is provable against the beacon-anchored receipts root.
  const auto bundle = f.ledger->prove_receipt(0, 0);
  ASSERT_TRUE(bundle.ok());
  EXPECT_EQ(bundle.value().beacon_height, 0);
  auto receipt = CrossShardReceipt::decode(bundle.value().receipt);
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt.value().from, f.alice.address());
  EXPECT_EQ(receipt.value().to, f.bob.address());
  EXPECT_EQ(receipt.value().amount, 300u);

  // Round 1: bob presents the proof on shard 1 and mints.
  ASSERT_TRUE(
      f.ledger->submit(make_xshard_mint(f.bob, 0, bundle.value(), 1, txrng))
          .ok());
  const auto beacon1 = f.ledger->commit_round(f.proposer, 1);
  ASSERT_TRUE(beacon1.ok());
  EXPECT_EQ(f.ledger->state(1).balance(f.bob.address()), 1'000u + 300 - 1);
  EXPECT_EQ(store_u64(f.ledger->state(1), kXShardMintedTotalKey), 300u);
  EXPECT_EQ(f.conserved_total(), supply);

  // Round 2: presenting the same receipt again is rejected at application —
  // the tx is dropped from the block and bob's balance does not change.
  ASSERT_TRUE(
      f.ledger->submit(make_xshard_mint(f.bob, 1, bundle.value(), 1, txrng))
          .ok());
  const auto beacon2 = f.ledger->commit_round(f.proposer, 2);
  ASSERT_TRUE(beacon2.ok());
  EXPECT_EQ(f.ledger->state(1).balance(f.bob.address()), 1'000u + 300 - 1);
  EXPECT_EQ(store_u64(f.ledger->state(1), kXShardMintedTotalKey), 300u);
  EXPECT_EQ(f.conserved_total(), supply);
}

TEST(CrossShard, LockRejectsBadDestAndOverdraft) {
  CrossShardFixture f;
  Rng txrng(41);
  // Self-shard destination: tx admitted to the mempool but dropped at apply.
  ASSERT_TRUE(
      f.ledger
          ->submit(make_xshard_lock(f.alice, 0, 0, f.bob.address(), 10, 1,
                                    txrng))
          .ok());
  // Out-of-range destination.
  ASSERT_TRUE(
      f.ledger
          ->submit(make_xshard_lock(f.bob, 0, 7, f.alice.address(), 10, 1,
                                    txrng))
          .ok());
  const auto beacon = f.ledger->commit_round(f.proposer, 0);
  ASSERT_TRUE(beacon.ok());
  EXPECT_EQ(f.ledger->receipt_count(0), 0u);
  EXPECT_EQ(f.ledger->receipt_count(1), 0u);
  EXPECT_EQ(f.ledger->state(0).balance(f.alice.address()), 10'000u);
  EXPECT_EQ(f.ledger->state(1).balance(f.bob.address()), 1'000u);
}

/// Direct-application harness around the mint path: a hand-built archive
/// lets each rejection case target one specific check.
struct MintFixture {
  Rng rng{43};
  crypto::Wallet alice;  ///< locker on shard 0
  crypto::Wallet bob;    ///< recipient on shard 1
  CrossShardReceipt receipt;
  crypto::MerkleMap tree;       ///< shard 0's receipt tree, with the receipt
  crypto::MerkleMap old_tree;   ///< shard 0's receipt tree, before the lock
  std::shared_ptr<BeaconArchive> archive = std::make_shared<BeaconArchive>();
  std::shared_ptr<ContractRegistry> contracts =
      std::make_shared<ContractRegistry>();
  LedgerState dest;  ///< shard 1's state

  MintFixture()
      : alice(wallet_on_shard(rng, 0, 2)), bob(wallet_on_shard(rng, 1, 2)) {
    receipt = CrossShardReceipt{0, 0, 1, alice.address(), bob.address(), 500};
    tree.put(receipt.id, crypto::sha256(receipt.encode()));

    // Beacon 0 predates the lock (empty receipt tree); beacon 1 anchors it.
    BeaconHeader h0;
    h0.height = 0;
    h0.shards = {anchor_of(digest_of(1), old_tree.root()),
                 anchor_of(digest_of(2), digest_of(0))};
    archive->push(h0);
    BeaconHeader h1;
    h1.height = 1;
    h1.shards = {anchor_of(digest_of(3), tree.root()),
                 anchor_of(digest_of(4), digest_of(0))};
    archive->push(h1);

    contracts->install(std::make_shared<XShardContract>(1, 2, archive));
    dest.credit(bob.address(), 1'000);
  }

  [[nodiscard]] ReceiptProofBundle bundle() const {
    ReceiptProofBundle b;
    b.beacon_height = 1;
    b.source_shard = 0;
    b.receipt = receipt.encode();
    b.proof = tree.prove(receipt.id);
    return b;
  }

  [[nodiscard]] Status mint_with(const ReceiptProofBundle& b,
                                 std::uint64_t nonce) {
    Rng txrng(47);
    return dest.apply(make_xshard_mint(bob, nonce, b, 1, txrng), *contracts, 0);
  }
};

TEST(CrossShard, MintAcceptsThenRejectsReplay) {
  MintFixture f;
  ASSERT_TRUE(f.mint_with(f.bundle(), 0).ok());
  EXPECT_EQ(f.dest.balance(f.bob.address()), 1'000u + 500 - 1);
  const auto replay = f.mint_with(f.bundle(), 1);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.error().code, errc::kXShardReceiptSpent);
  EXPECT_EQ(f.dest.balance(f.bob.address()), 1'000u + 500 - 1);
}

TEST(CrossShard, MintRejectsStaleRoot) {
  MintFixture f;
  // Proof is valid for beacon 1's tree but presented against beacon 0's
  // (pre-lock) root: the anchored root does not contain the receipt.
  auto b = f.bundle();
  b.beacon_height = 0;
  const auto s = f.mint_with(b, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, errc::kXShardBadProof);
}

TEST(CrossShard, MintRejectsForeignShardRoot) {
  MintFixture f;
  // Claiming the wrong source shard: the receipt's own source field wins,
  // so a mismatched claim is bad args...
  auto b = f.bundle();
  b.source_shard = 1;
  const auto s = f.mint_with(b, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, errc::kXShardBadArgs);
  // ...a receipt destined for some other shard is refused outright...
  CrossShardReceipt foreign = f.receipt;
  foreign.dest_shard = 0;
  foreign.source_shard = 1;
  crypto::MerkleMap foreign_tree;
  foreign_tree.put(foreign.id, crypto::sha256(foreign.encode()));
  ReceiptProofBundle fb;
  fb.beacon_height = 1;
  fb.source_shard = 1;
  fb.receipt = foreign.encode();
  fb.proof = foreign_tree.prove(foreign.id);
  const auto wrong = f.mint_with(fb, 0);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.error().code, errc::kXShardWrongShard);
  // ...and a genuine receipt presented with a proof rooted in a tree that is
  // NOT the anchored one (an attacker-built side tree) fails the root check.
  crypto::MerkleMap side_tree;
  side_tree.put(f.receipt.id, crypto::sha256(f.receipt.encode()));
  side_tree.put(99, digest_of(0x99));  // diverges from the anchored root
  auto forged_bundle = f.bundle();
  forged_bundle.proof = side_tree.prove(f.receipt.id);
  const auto s2 = f.mint_with(forged_bundle, 0);
  ASSERT_FALSE(s2.ok());
  EXPECT_EQ(s2.error().code, errc::kXShardBadProof);
}

TEST(CrossShard, MintRejectsUnknownBeacon) {
  MintFixture f;
  auto b = f.bundle();
  b.beacon_height = 99;
  const auto s = f.mint_with(b, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, errc::kXShardUnknownBeacon);
}

// -------------------------------------------------------- codec fuzzing

TEST(CrossShard, ReceiptCodecRoundTrip) {
  const CrossShardReceipt r{7, 2, 5, crypto::Address{111}, crypto::Address{222},
                            9'999};
  const auto decoded = CrossShardReceipt::decode(r.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), r);
}

TEST(CrossShard, ReceiptCodecRejectsInvalidFields) {
  CrossShardReceipt r{0, 2, 2, crypto::Address{1}, crypto::Address{2}, 10};
  EXPECT_FALSE(CrossShardReceipt::decode(r.encode()).ok());  // src == dest
  r.dest_shard = 3;
  r.amount = 0;
  EXPECT_FALSE(CrossShardReceipt::decode(r.encode()).ok());  // zero amount
  r.amount = 10;
  r.to = crypto::Address{0};
  EXPECT_FALSE(CrossShardReceipt::decode(r.encode()).ok());  // null recipient
}

TEST(CrossShard, ReceiptCodecMutationFuzz) {
  const CrossShardReceipt r{3, 0, 1, crypto::Address{0xabcd},
                            crypto::Address{0xef01}, 1'234};
  const Bytes wire = r.encode();
  // Every truncation fails.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    Bytes cut(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(CrossShardReceipt::decode(cut).ok()) << "len=" << len;
  }
  // Every single-byte mutation either fails to decode or decodes to a
  // receipt that differs from the original — no mutation is silently
  // absorbed, so sha256(wire) binding the exact bytes is sound.
  Rng rng(53);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    Bytes mutated = wire;
    mutated[i] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    const auto decoded = CrossShardReceipt::decode(mutated);
    if (decoded.ok()) {
      EXPECT_NE(decoded.value(), r) << "mutation at byte " << i;
      EXPECT_EQ(decoded.value().encode(), mutated);
    }
  }
}

// ------------------------------------------------- composed account proof

TEST(ShardedLedger, ComposedAccountProofVerifies) {
  CrossShardFixture f;
  Rng txrng(59);
  ASSERT_TRUE(
      f.ledger
          ->submit(make_transfer(f.alice, 0, f.bob.address(), 100, 1, txrng))
          .ok());
  ASSERT_TRUE(f.ledger->commit_round(f.proposer, 0).ok());

  const auto proof = f.ledger->prove_account(f.alice.address());
  ASSERT_TRUE(proof.ok());
  const auto* beacon = f.ledger->beacon_at(proof.value().beacon_height);
  ASSERT_NE(beacon, nullptr);
  EXPECT_TRUE(
      verify_sharded_account_proof(proof.value(), beacon->beacon_root).ok());

  // Tampering with the anchor or claiming the wrong shard breaks the chain.
  auto tampered = proof.value();
  tampered.anchor.state_root = digest_of(0x77);
  EXPECT_FALSE(
      verify_sharded_account_proof(tampered, beacon->beacon_root).ok());
  auto wrong_shard = proof.value();
  wrong_shard.shard ^= 1;
  EXPECT_FALSE(
      verify_sharded_account_proof(wrong_shard, beacon->beacon_root).ok());
}

TEST(ShardedLedger, ProveReceiptErrors) {
  CrossShardFixture f;
  EXPECT_EQ(f.ledger->prove_receipt(9, 0).error().code, errc::kShardBadConfig);
  EXPECT_EQ(f.ledger->prove_receipt(0, 0).error().code,
            errc::kShardUnknownReceipt);
  Rng txrng(61);
  ASSERT_TRUE(
      f.ledger
          ->submit(make_xshard_lock(f.alice, 0, 1, f.bob.address(), 10, 1,
                                    txrng))
          .ok());
  ASSERT_TRUE(f.ledger->commit_round(f.proposer, 0).ok());
  EXPECT_TRUE(f.ledger->prove_receipt(0, 0).ok());
  EXPECT_EQ(f.ledger->prove_receipt(0, 5).error().code,
            errc::kShardUnknownReceipt);
}

}  // namespace
}  // namespace mv::ledger
