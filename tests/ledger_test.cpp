// Ledger tests: transaction encoding/validation, state transitions, contract
// atomicity, mempool ordering, chain validation, BFT consensus over the
// simulated network, and the on-chain audit registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "ledger/audit.h"
#include "ledger/chain.h"
#include "ledger/consensus.h"
#include "ledger/mempool.h"
#include "net/gossip.h"

namespace mv::ledger {
namespace {

struct Fixture {
  Rng rng{101};
  crypto::Wallet alice{rng};
  crypto::Wallet bob{rng};
  std::shared_ptr<ContractRegistry> contracts = std::make_shared<ContractRegistry>();
  LedgerState state;

  Fixture() {
    state.credit(alice.address(), 1000);
    state.credit(bob.address(), 500);
  }
};

// ---------------------------------------------------------------- tx codec

TEST(Transaction, EncodeDecodeRoundTrip) {
  Fixture f;
  const Transaction tx =
      make_transfer(f.alice, 0, f.bob.address(), 42, 1, f.rng);
  auto decoded = Transaction::decode(tx.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().encode(), tx.encode());
  EXPECT_EQ(decoded.value().digest(), tx.digest());
  EXPECT_TRUE(decoded.value().signature_valid());
}

TEST(Transaction, AuditBodyRoundTrip) {
  const AuditRecordBody body{"gaze", "avatar_animation", 77, "laplace(eps=1.0)"};
  auto decoded = AuditRecordBody::decode(body.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().data_category, "gaze");
  EXPECT_EQ(decoded.value().purpose, "avatar_animation");
  EXPECT_EQ(decoded.value().subject, 77u);
  EXPECT_EQ(decoded.value().pet_applied, "laplace(eps=1.0)");
}

TEST(Transaction, DecodeRejectsGarbage) {
  EXPECT_FALSE(Transaction::decode(Bytes{1, 2, 3}).ok());
  Fixture f;
  Bytes enc = make_transfer(f.alice, 0, f.bob.address(), 1, 0, f.rng).encode();
  enc.push_back(0x00);  // trailing byte
  EXPECT_FALSE(Transaction::decode(enc).ok());
}

TEST(Transaction, TamperedFieldBreaksSignature) {
  Fixture f;
  Transaction tx = make_transfer(f.alice, 0, f.bob.address(), 42, 1, f.rng);
  tx.fee = 0;  // sig covered fee
  EXPECT_FALSE(tx.signature_valid());
}

// ---------------------------------------------------------------- state

TEST(LedgerState, TransferMovesFunds) {
  Fixture f;
  const auto tx = make_transfer(f.alice, 0, f.bob.address(), 100, 5, f.rng);
  ASSERT_TRUE(f.state.apply(tx, *f.contracts, 0).ok());
  EXPECT_EQ(f.state.balance(f.alice.address()), 895u);  // 1000 - 100 - 5
  EXPECT_EQ(f.state.balance(f.bob.address()), 600u);
  EXPECT_EQ(f.state.nonce(f.alice.address()), 1u);
  EXPECT_EQ(f.state.burned_fees(), 5u);
}

TEST(LedgerState, RejectsWrongNonce) {
  Fixture f;
  const auto tx = make_transfer(f.alice, 5, f.bob.address(), 1, 0, f.rng);
  const auto s = f.state.apply(tx, *f.contracts, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "tx.bad_nonce");
}

TEST(LedgerState, RejectsOverdraft) {
  Fixture f;
  const auto tx = make_transfer(f.alice, 0, f.bob.address(), 99999, 0, f.rng);
  const auto root_before = f.state.commitment().root;
  EXPECT_FALSE(f.state.apply(tx, *f.contracts, 0).ok());
  // apply() is atomic: a failed transaction leaves no trace.
  EXPECT_EQ(f.state.nonce(f.alice.address()), 0u);
  EXPECT_EQ(f.state.commitment().root, root_before);
}

TEST(LedgerState, RejectsBadSignature) {
  Fixture f;
  Transaction tx = make_transfer(f.alice, 0, f.bob.address(), 1, 0, f.rng);
  tx.sig.s ^= 1;
  const auto s = f.state.apply(tx, *f.contracts, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "tx.bad_signature");
}

TEST(LedgerState, AuditRecordAppendsToLog) {
  Fixture f;
  const auto tx = make_audit_record(
      f.alice, 0, AuditRecordBody{"spatial_map", "navigation", 9, "none"}, 0,
      f.rng);
  ASSERT_TRUE(f.state.apply(tx, *f.contracts, 7).ok());
  ASSERT_EQ(f.state.audit_log().size(), 1u);
  EXPECT_EQ(f.state.audit_log()[0].collector, f.alice.address());
  EXPECT_EQ(f.state.audit_log()[0].body.data_category, "spatial_map");
  EXPECT_EQ(f.state.audit_log()[0].height, 7);
}

TEST(LedgerState, UnknownContractFails) {
  Fixture f;
  const auto tx = make_contract_call(f.alice, 0, "nope", "m", Bytes{}, 0, f.rng);
  const auto s = f.state.apply(tx, *f.contracts, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "tx.unknown_contract");
}

/// Contract that writes a key then fails — exercises body atomicity.
class FlakyContract final : public Contract {
 public:
  [[nodiscard]] std::string name() const override { return "flaky"; }
  [[nodiscard]] Status call(CallContext& ctx, const std::string& method,
                            const Bytes&) const override {
    ctx.put("touched", Bytes{1});
    if (method == "fail") return Status::fail("flaky.boom", "requested");
    return {};
  }
};

TEST(LedgerState, ContractBodyIsAtomic) {
  Fixture f;
  f.contracts->install(std::make_shared<FlakyContract>());
  const auto bad = make_contract_call(f.alice, 0, "flaky", "fail", Bytes{}, 3, f.rng);
  EXPECT_FALSE(f.state.apply(bad, *f.contracts, 0).ok());
  // Everything rolled back: store write, fee, and nonce.
  EXPECT_EQ(f.state.find_store("flaky"), nullptr);
  EXPECT_EQ(f.state.nonce(f.alice.address()), 0u);
  EXPECT_EQ(f.state.balance(f.alice.address()), 1000u);

  const auto good = make_contract_call(f.alice, 0, "flaky", "ok", Bytes{}, 0, f.rng);
  ASSERT_TRUE(f.state.apply(good, *f.contracts, 0).ok());
  ASSERT_NE(f.state.find_store("flaky"), nullptr);
  EXPECT_TRUE(f.state.find_store("flaky")->contains("touched"));
}

TEST(LedgerState, StateRootChangesWithState) {
  Fixture f;
  const auto before = f.state.commitment().root;
  const auto tx = make_transfer(f.alice, 0, f.bob.address(), 1, 0, f.rng);
  ASSERT_TRUE(f.state.apply(tx, *f.contracts, 0).ok());
  EXPECT_NE(f.state.commitment().root, before);
}

TEST(LedgerState, StateRootDeterministicAcrossCopies) {
  Fixture f;
  LedgerState copy = f.state;
  EXPECT_EQ(copy.commitment().root, f.state.commitment().root);
}

// ---------------------------------------------------------------- mempool

TEST(Mempool, OrdersByFeeThenFifo) {
  Fixture f;
  Mempool pool;
  // Alice sends three txs with ascending nonces, fees 1, 9, 5.
  ASSERT_TRUE(pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state).ok());
  ASSERT_TRUE(pool.add(make_transfer(f.alice, 1, f.bob.address(), 1, 9, f.rng), f.state).ok());
  ASSERT_TRUE(pool.add(make_transfer(f.alice, 2, f.bob.address(), 1, 5, f.rng), f.state).ok());
  const auto picked = pool.select(10, f.state);
  // Nonce order must be respected even though fee order differs.
  ASSERT_EQ(picked.size(), 3u);
  EXPECT_EQ(picked[0].nonce, 0u);
  EXPECT_EQ(picked[1].nonce, 1u);
  EXPECT_EQ(picked[2].nonce, 2u);
}

TEST(Mempool, HighFeeSenderWinsSlots) {
  Fixture f;
  Mempool pool;
  ASSERT_TRUE(pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state).ok());
  ASSERT_TRUE(pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 50, f.rng), f.state).ok());
  const auto picked = pool.select(1, f.state);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0].sender(), f.bob.address());
}

TEST(Mempool, RejectsDuplicateAndStale) {
  Fixture f;
  Mempool pool;
  const auto tx = make_transfer(f.alice, 0, f.bob.address(), 1, 0, f.rng);
  ASSERT_TRUE(pool.add(tx, f.state).ok());
  EXPECT_EQ(pool.add(tx, f.state).error().code, "mempool.duplicate");
  ASSERT_TRUE(f.state.apply(tx, *f.contracts, 0).ok());
  const auto stale = make_transfer(f.alice, 0, f.bob.address(), 2, 0, f.rng);
  EXPECT_EQ(pool.add(stale, f.state).error().code, "mempool.stale_nonce");
}

TEST(Mempool, RemoveIncludedAndPrune) {
  Fixture f;
  Mempool pool;
  const auto tx0 = make_transfer(f.alice, 0, f.bob.address(), 1, 0, f.rng);
  const auto tx1 = make_transfer(f.alice, 1, f.bob.address(), 1, 0, f.rng);
  ASSERT_TRUE(pool.add(tx0, f.state).ok());
  ASSERT_TRUE(pool.add(tx1, f.state).ok());
  pool.remove_included({tx0});
  EXPECT_EQ(pool.size(), 1u);
  ASSERT_TRUE(f.state.apply(tx0, *f.contracts, 0).ok());
  ASSERT_TRUE(f.state.apply(tx1, *f.contracts, 0).ok());
  pool.prune(f.state);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(Mempool, NonceGapBlocksSuccessors) {
  Fixture f;
  Mempool pool;
  // Nonces 0 and 2 are pending; 1 is missing. Only 0 is runnable — the
  // expensive successor behind the gap must not jump the queue.
  ASSERT_TRUE(pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state).ok());
  ASSERT_TRUE(pool.add(make_transfer(f.alice, 2, f.bob.address(), 1, 100, f.rng), f.state).ok());
  auto picked = pool.select(10, f.state);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0].nonce, 0u);
  // Filling the gap releases the whole prefix, still in nonce order.
  ASSERT_TRUE(pool.add(make_transfer(f.alice, 1, f.bob.address(), 1, 1, f.rng), f.state).ok());
  picked = pool.select(10, f.state);
  ASSERT_EQ(picked.size(), 3u);
  EXPECT_EQ(picked[0].nonce, 0u);
  EXPECT_EQ(picked[1].nonce, 1u);
  EXPECT_EQ(picked[2].nonce, 2u);
}

TEST(Mempool, CheapPredecessorDoesNotStarveBehindOtherSenders) {
  Fixture f;
  Mempool pool;
  // Alice: cheap nonce-0 (fee 1) gating an expensive nonce-1 (fee 100).
  // Bob: a single fee-50 tx. Priority must see only runnable heads: bob's
  // fee-50 first, then alice's fee-1, and only then the released fee-100.
  ASSERT_TRUE(pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state).ok());
  ASSERT_TRUE(pool.add(make_transfer(f.alice, 1, f.bob.address(), 1, 100, f.rng), f.state).ok());
  ASSERT_TRUE(pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 50, f.rng), f.state).ok());
  const auto picked = pool.select(3, f.state);
  ASSERT_EQ(picked.size(), 3u);
  EXPECT_EQ(picked[0].sender(), f.bob.address());
  EXPECT_EQ(picked[1].nonce, 0u);
  EXPECT_EQ(picked[1].sender(), f.alice.address());
  EXPECT_EQ(picked[2].nonce, 1u);
  EXPECT_EQ(picked[2].fee, 100u);
}

TEST(Mempool, ReplaceByFeeRequiresStrictlyHigherFee) {
  Fixture f;
  Mempool pool;
  ASSERT_TRUE(pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 5, f.rng), f.state).ok());
  const auto equal = make_transfer(f.alice, 0, f.bob.address(), 2, 5, f.rng);
  EXPECT_EQ(pool.add(equal, f.state).error().code, "mempool.underpriced");
  const auto lower = make_transfer(f.alice, 0, f.bob.address(), 2, 4, f.rng);
  EXPECT_EQ(pool.add(lower, f.state).error().code, "mempool.underpriced");
  const auto higher = make_transfer(f.alice, 0, f.bob.address(), 2, 6, f.rng);
  ASSERT_TRUE(pool.add(higher, f.state).ok());
  EXPECT_EQ(pool.size(), 1u);
  const auto picked = pool.select(10, f.state);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0].fee, 6u);
}

TEST(Mempool, RemovalKeepsIndexesConsistent) {
  Fixture f;
  Mempool pool;
  const auto tx0 = make_transfer(f.alice, 0, f.bob.address(), 1, 0, f.rng);
  const auto tx1 = make_transfer(f.alice, 1, f.bob.address(), 1, 0, f.rng);
  const auto tx2 = make_transfer(f.bob, 0, f.alice.address(), 1, 0, f.rng);
  ASSERT_TRUE(pool.add(tx0, f.state).ok());
  ASSERT_TRUE(pool.add(tx1, f.state).ok());
  ASSERT_TRUE(pool.add(tx2, f.state).ok());
  // Removing a tx that is not pending is a no-op.
  pool.remove_included({make_transfer(f.bob, 1, f.alice.address(), 1, 0, f.rng)});
  EXPECT_EQ(pool.size(), 3u);
  pool.remove_included({tx0, tx2});
  EXPECT_EQ(pool.size(), 1u);
  // Dedupe entries of removed txs are gone: re-admission succeeds...
  ASSERT_TRUE(pool.add(tx0, f.state).ok());
  // ...while a still-pending tx is still recognized as a duplicate.
  EXPECT_EQ(pool.add(tx1, f.state).error().code, "mempool.duplicate");
  EXPECT_EQ(pool.size(), 2u);
  // Prune drops everything below the committed nonce and clears dedupe keys.
  ASSERT_TRUE(f.state.apply(tx0, *f.contracts, 0).ok());
  ASSERT_TRUE(f.state.apply(tx1, *f.contracts, 0).ok());
  pool.prune(f.state);
  EXPECT_TRUE(pool.empty());
  EXPECT_TRUE(pool.select(10, f.state).empty());
}

// ---------------------------------------------------------------- chain

struct ChainFixture : Fixture {
  crypto::Wallet v0{rng};
  crypto::Wallet v1{rng};
  ChainConfig config;

  ChainFixture() {
    config.validators = {v0.public_key(), v1.public_key()};
    config.max_txs_per_block = 16;
  }

  [[nodiscard]] Blockchain make_chain() { return Blockchain(config, contracts, state); }
};

TEST(Blockchain, AssembleAndAppend) {
  ChainFixture f;
  Blockchain chain = f.make_chain();
  const auto tx = make_transfer(f.alice, 0, f.bob.address(), 10, 1, f.rng);
  const Block block = chain.assemble(f.v0, {tx}, 0, f.rng);
  ASSERT_EQ(block.txs.size(), 1u);
  ASSERT_TRUE(chain.append(block).ok());
  EXPECT_EQ(chain.height(), 1);
  EXPECT_EQ(chain.state().balance(f.bob.address()), 510u);
}

TEST(Blockchain, AssembleDropsInvalidTxs) {
  ChainFixture f;
  Blockchain chain = f.make_chain();
  const auto good = make_transfer(f.alice, 0, f.bob.address(), 10, 0, f.rng);
  const auto bad_nonce = make_transfer(f.alice, 7, f.bob.address(), 10, 0, f.rng);
  const auto overdraft = make_transfer(f.bob, 0, f.alice.address(), 99999, 0, f.rng);
  const Block block = chain.assemble(f.v0, {bad_nonce, good, overdraft}, 0, f.rng);
  EXPECT_EQ(block.txs.size(), 1u);
  ASSERT_TRUE(chain.append(block).ok());
}

TEST(Blockchain, AssembleTakesFirstMaxTxsSuccessesInOrder) {
  // 20 candidates against a 16-tx cap, with an overdraft at index 3: the
  // block is the first 16 candidates that apply, in candidate order, and a
  // signature memo changes nothing about which.
  ChainFixture f;
  std::vector<Transaction> candidates;
  for (std::uint64_t i = 0; i < 20; ++i) {
    const std::uint64_t amount = i == 3 ? 99999 : 1;
    candidates.push_back(make_transfer(f.alice, i <= 3 ? i : i - 1,
                                       f.bob.address(), amount, 0, f.rng));
  }
  std::vector<Transaction> want(candidates.begin(), candidates.begin() + 3);
  want.insert(want.end(), candidates.begin() + 4, candidates.begin() + 17);
  for (const bool cached : {false, true}) {
    ChainConfig config = f.config;
    if (cached) config.validation.sig_cache = std::make_shared<crypto::DigestLruSet>();
    Blockchain chain(config, f.contracts, f.state);
    const Block block = chain.assemble(f.v0, candidates, 0, f.rng);
    ASSERT_EQ(block.txs.size(), 16u);
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(block.txs[i].digest(), want[i].digest()) << "tx " << i;
    }
    // Candidates past the cap are never looked at.
    EXPECT_EQ(chain.validation_stats().sig_cache_misses, cached ? 17u : 0u);
    ASSERT_TRUE(chain.append(block).ok());
  }
}

TEST(Blockchain, RejectsWrongProposer) {
  ChainFixture f;
  Blockchain chain = f.make_chain();
  // Height 0 belongs to v0; v1 proposing must be rejected.
  const Block block = chain.assemble(f.v1, {}, 0, f.rng);
  const auto s = chain.append(block);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "block.wrong_proposer");
}

TEST(Blockchain, RoundRobinAlternatesProposers) {
  ChainFixture f;
  Blockchain chain = f.make_chain();
  ASSERT_TRUE(chain.append(chain.assemble(f.v0, {}, 0, f.rng)).ok());
  ASSERT_TRUE(chain.append(chain.assemble(f.v1, {}, 1, f.rng)).ok());
  ASSERT_TRUE(chain.append(chain.assemble(f.v0, {}, 2, f.rng)).ok());
  EXPECT_EQ(chain.height(), 3);
}

TEST(Blockchain, RejectsTamperedBlock) {
  ChainFixture f;
  Blockchain chain = f.make_chain();
  const auto tx = make_transfer(f.alice, 0, f.bob.address(), 10, 0, f.rng);
  Block block = chain.assemble(f.v0, {tx}, 0, f.rng);

  Block wrong_root = block;
  wrong_root.header.tx_root[0] ^= 1;
  EXPECT_EQ(chain.append(wrong_root).error().code, "block.bad_proposer_sig");

  Block dropped_tx = block;
  dropped_tx.txs.clear();
  EXPECT_EQ(chain.append(dropped_tx).error().code, "block.bad_tx_root");

  Block wrong_height = block;
  wrong_height.header.height = 5;
  EXPECT_FALSE(chain.append(wrong_height).ok());
}

TEST(Blockchain, RejectsReplayedBlock) {
  ChainFixture f;
  Blockchain chain = f.make_chain();
  const Block block = chain.assemble(f.v0, {}, 0, f.rng);
  ASSERT_TRUE(chain.append(block).ok());
  EXPECT_FALSE(chain.append(block).ok());
}

TEST(Blockchain, TxInclusionProof) {
  ChainFixture f;
  Blockchain chain = f.make_chain();
  std::vector<Transaction> txs;
  for (std::uint64_t i = 0; i < 5; ++i) {
    txs.push_back(make_transfer(f.alice, i, f.bob.address(), 1, 0, f.rng));
  }
  ASSERT_TRUE(chain.append(chain.assemble(f.v0, txs, 0, f.rng)).ok());
  for (std::size_t i = 0; i < 5; ++i) {
    auto proof = chain.prove_tx(0, i);
    ASSERT_TRUE(proof.ok());
    EXPECT_TRUE(chain.verify_tx_inclusion(0, txs[i].digest(), proof.value()));
    EXPECT_FALSE(chain.verify_tx_inclusion(0, txs[(i + 1) % 5].digest(), proof.value()));
  }
  EXPECT_FALSE(chain.prove_tx(3, 0).ok());
  EXPECT_FALSE(chain.prove_tx(0, 99).ok());
}

TEST(Blockchain, ExportImportReplaysIdentically) {
  ChainFixture f;
  Blockchain source = f.make_chain();
  for (int h = 0; h < 4; ++h) {
    const auto& proposer = (h % 2 == 0) ? f.v0 : f.v1;
    std::vector<Transaction> txs;
    txs.push_back(make_transfer(f.alice, static_cast<std::uint64_t>(h),
                                f.bob.address(), 5, 1, f.rng));
    ASSERT_TRUE(source.append(source.assemble(proposer, txs, h, f.rng)).ok());
  }

  Blockchain fresh = f.make_chain();
  auto imported = fresh.import_blocks(source.export_blocks());
  ASSERT_TRUE(imported.ok());
  EXPECT_EQ(imported.value(), 4u);
  EXPECT_EQ(fresh.height(), source.height());
  EXPECT_EQ(fresh.tip_hash(), source.tip_hash());
  EXPECT_EQ(fresh.state().commitment().root, source.state().commitment().root);

  // Re-importing onto a synced node is a no-op.
  auto again = fresh.import_blocks(source.export_blocks());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 0u);
}

TEST(Blockchain, ImportRejectsTamperedArchive) {
  ChainFixture f;
  Blockchain source = f.make_chain();
  for (int h = 0; h < 3; ++h) {
    const auto& proposer = (h % 2 == 0) ? f.v0 : f.v1;
    ASSERT_TRUE(source.append(source.assemble(proposer, {}, h, f.rng)).ok());
  }
  Bytes archive = source.export_blocks();
  archive[archive.size() / 2] ^= 0xff;  // corrupt a middle block
  Blockchain fresh = f.make_chain();
  const auto imported = fresh.import_blocks(archive);
  // Either the decode fails or validation stops at the corrupt block; the
  // already-validated prefix must itself be consistent.
  EXPECT_FALSE(imported.ok());
  EXPECT_LT(fresh.height(), source.height());
  for (std::int64_t h = 0; h < fresh.height(); ++h) {
    EXPECT_EQ(fresh.blocks()[static_cast<std::size_t>(h)].header.hash(),
              source.blocks()[static_cast<std::size_t>(h)].header.hash());
  }
}

TEST(Blockchain, ImportRejectsForgedCount) {
  ChainFixture f;
  Blockchain fresh = f.make_chain();
  ByteWriter w;
  w.u32(0xffffffff);
  EXPECT_FALSE(fresh.import_blocks(w.take()).ok());
}

// ---------------------------------------------------------------- consensus

struct CommitteeFixture {
  Rng rng{202};
  SimClock clock;
  net::Network network{clock, Rng(303),
                       net::LinkParams{.base_latency = 1.0, .jitter = 1.0, .drop_rate = 0.0}};
  std::shared_ptr<ContractRegistry> contracts = std::make_shared<ContractRegistry>();
  crypto::Wallet alice{rng};
  crypto::Wallet bob{rng};
  LedgerState genesis;

  CommitteeFixture() { genesis.credit(alice.address(), 1'000'000); }
};

TEST(Consensus, CommitsAcrossAllReplicas) {
  CommitteeFixture f;
  ValidatorCommittee committee(f.network, 4, f.contracts, f.genesis, 64, f.rng);
  for (std::uint64_t i = 0; i < 10; ++i) {
    committee.submit(make_transfer(f.alice, i, f.bob.address(), 10, 1, f.rng));
  }
  ASSERT_TRUE(committee.run_round());
  EXPECT_TRUE(committee.replicas_consistent());
  EXPECT_EQ(committee.chain(0).height(), 1);
  EXPECT_EQ(committee.chain(0).state().balance(f.bob.address()), 100u);
  EXPECT_EQ(committee.stats().committed_txs, 10u);
}

TEST(Consensus, MultipleRoundsRotateLeaders) {
  CommitteeFixture f;
  ValidatorCommittee committee(f.network, 4, f.contracts, f.genesis, 8, f.rng);
  for (std::uint64_t i = 0; i < 20; ++i) {
    committee.submit(make_transfer(f.alice, i, f.bob.address(), 1, 1, f.rng));
  }
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(committee.run_round()) << "round " << round;
  }
  EXPECT_TRUE(committee.replicas_consistent());
  EXPECT_EQ(committee.chain(2).height(), 3);
  // Proposers alternate per round-robin.
  EXPECT_NE(committee.chain(0).blocks()[0].header.proposer(),
            committee.chain(0).blocks()[1].header.proposer());
}

TEST(Consensus, PartitionedMinorityCannotCommit) {
  CommitteeFixture f;
  ValidatorCommittee committee(f.network, 4, f.contracts, f.genesis, 8, f.rng);
  committee.submit(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng));
  // Isolate the leader of round 0 (validator 0) with one peer: 2 of 4 < quorum 3.
  f.network.set_group(committee.node(0), 1);
  f.network.set_group(committee.node(1), 1);
  EXPECT_FALSE(committee.run_round());
  EXPECT_EQ(committee.chain(0).height(), 0);
  // Heal; the same round now succeeds.
  f.network.heal();
  EXPECT_TRUE(committee.run_round());
  EXPECT_TRUE(committee.replicas_consistent());
}

TEST(Consensus, LaggardCatchesUpAfterPartitionHeals) {
  CommitteeFixture f;
  ValidatorCommittee committee(f.network, 4, f.contracts, f.genesis, 8, f.rng);
  for (std::uint64_t i = 0; i < 12; ++i) {
    committee.submit(make_transfer(f.alice, i, f.bob.address(), 1, 1, f.rng));
  }
  // Validator 3 drops off; the remaining 3 still have quorum (3 of 4).
  f.network.set_group(committee.node(3), 1);
  ASSERT_TRUE(committee.run_round());
  ASSERT_TRUE(committee.run_round());
  EXPECT_EQ(committee.chain(0).height(), 2);
  EXPECT_EQ(committee.chain(3).height(), 0);
  EXPECT_FALSE(committee.replicas_consistent());

  // Heal: the next proposals carry a height ahead of validator 3's view; it
  // pulls the missing blocks via sync_req/sync_resp and rejoins.
  f.network.heal();
  ASSERT_TRUE(committee.run_round());
  ASSERT_TRUE(committee.run_round());
  EXPECT_TRUE(committee.replicas_consistent());
  EXPECT_EQ(committee.chain(3).height(), 4);
}

TEST(Consensus, LaggingLeaderIsRescuedByPeers) {
  CommitteeFixture f;
  ValidatorCommittee committee(f.network, 4, f.contracts, f.genesis, 8, f.rng);
  // Heights 0 and 1 are led by validators 0 and 1. Isolate validator 2, run
  // two rounds, heal right before validator 2's turn as leader (height 2).
  f.network.set_group(committee.node(2), 1);
  ASSERT_TRUE(committee.run_round());
  ASSERT_TRUE(committee.run_round());
  f.network.heal();
  // Validator 2 leads from a stale height: the round fails, but peers ship
  // it the missing blocks in response to its stale proposal...
  (void)committee.run_round();
  // ...so by the following round it proposes from the right height.
  ASSERT_TRUE(committee.run_round());
  EXPECT_TRUE(committee.replicas_consistent());
  EXPECT_GE(committee.chain(2).height(), 3);
}

TEST(Consensus, SurvivesMessageLoss) {
  Rng rng(404);
  SimClock clock;
  net::Network lossy(clock, Rng(405),
                     net::LinkParams{.base_latency = 1.0, .jitter = 2.0, .drop_rate = 0.05});
  auto contracts = std::make_shared<ContractRegistry>();
  crypto::Wallet alice{rng};
  LedgerState genesis;
  genesis.credit(alice.address(), 1000);
  ValidatorCommittee committee(lossy, 7, contracts, genesis, 8, rng);
  committee.submit(make_transfer(alice, 0, crypto::Address{42}, 1, 1, rng));
  int commits = 0;
  for (int round = 0; round < 5; ++round) commits += committee.run_round();
  // With 5% loss and a 7-node committee, most rounds commit.
  EXPECT_GE(commits, 3);
}

class CommitteeSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CommitteeSizeTest, QuorumIsTwoThirdsPlusOne) {
  CommitteeFixture f;
  ValidatorCommittee committee(f.network, GetParam(), f.contracts, f.genesis, 8, f.rng);
  EXPECT_EQ(committee.quorum(), GetParam() * 2 / 3 + 1);
  EXPECT_TRUE(committee.run_round());  // empty block still commits
  EXPECT_TRUE(committee.replicas_consistent());
}

INSTANTIATE_TEST_SUITE_P(Sizes, CommitteeSizeTest, ::testing::Values(1, 2, 4, 7, 10));

TEST(Consensus, TxDisseminationViaGossipReachesAllMempools) {
  // Integration of the gossip substrate with the ledger: clients publish
  // transactions as rumors; every validator's mempool converges on the set.
  CommitteeFixture f;
  ValidatorCommittee committee(f.network, 4, f.contracts, f.genesis, 64, f.rng);
  // A gossip overlay among client relays; each delivery forwards the tx to
  // one validator (modelling one validator's RPC edge per relay).
  std::vector<NodeId> relays;
  net::Gossip gossip(f.network, Rng(55), /*fanout=*/8,
                     [&](NodeId node, const Bytes& payload) {
                       auto tx = Transaction::decode(payload);
                       if (!tx.ok()) return;
                       committee.submit(tx.value());
                       (void)node;
                     });
  for (int i = 0; i < 8; ++i) gossip.join();
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto tx = make_transfer(f.alice, i, f.bob.address(), 1, 1, f.rng);
    gossip.publish(NodeId(committee.size() + i % 8), tx.encode());
  }
  f.network.run_until_idle();
  for (std::size_t v = 0; v < committee.size(); ++v) {
    EXPECT_EQ(committee.mempool(v).size(), 5u) << "validator " << v;
  }
  ASSERT_TRUE(committee.run_round());
  EXPECT_EQ(committee.chain(0).state().balance(f.bob.address()), 5u);
}

// ---------------------------------------------------------------- audit

TEST(Audit, RecordsCommitAndQuery) {
  CommitteeFixture f;
  ValidatorCommittee committee(f.network, 4, f.contracts, f.genesis, 64, f.rng);
  AuditClient client(f.alice, f.rng);
  for (int i = 0; i < 6; ++i) {
    committee.submit(client.record(
        committee.chain(0).state(),
        AuditRecordBody{i % 2 ? "gaze" : "spatial_map", "render", 7, "none"}));
  }
  ASSERT_TRUE(committee.run_round());
  AuditQuery query(committee.chain(1));
  EXPECT_EQ(query.by_subject(7).size(), 6u);
  EXPECT_EQ(query.by_collector(f.alice.address()).size(), 6u);
  const auto profiles = query.collector_profiles();
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].by_category.at("gaze"), 3u);
  EXPECT_EQ(profiles[0].without_pet, 6u);
}

TEST(Audit, NonceSequencingSurvivesCommitsBetweenRecords) {
  // Regression: records issued across consensus rounds must keep consecutive
  // nonces (the committed nonce must not be double-counted).
  CommitteeFixture f;
  ValidatorCommittee committee(f.network, 4, f.contracts, f.genesis, 64, f.rng);
  AuditClient client(f.alice, f.rng);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      committee.submit(client.record(
          committee.chain(0).state(),
          AuditRecordBody{"gaze", "render", 1, "none"}));
    }
    ASSERT_TRUE(committee.run_round());
  }
  EXPECT_EQ(committee.chain(0).state().audit_log().size(), 12u);
  EXPECT_EQ(committee.chain(0).state().nonce(f.alice.address()), 12u);
}

TEST(Audit, MonopolyDetection) {
  Fixture f;
  ChainConfig config;
  crypto::Wallet v0{f.rng};
  config.validators = {v0.public_key()};
  Blockchain chain(config, f.contracts, f.state);

  crypto::Wallet big{f.rng}, small{f.rng};
  AuditClient big_client(big, f.rng), small_client(small, f.rng);
  std::vector<Transaction> txs;
  for (int i = 0; i < 9; ++i) {
    txs.push_back(big_client.record(chain.state(),
                                    AuditRecordBody{"gaze", "ads", 1, "none"}));
  }
  txs.push_back(small_client.record(chain.state(),
                                    AuditRecordBody{"gaze", "render", 2, "dp"}));
  ASSERT_TRUE(chain.append(chain.assemble(v0, txs, 0, f.rng)).ok());

  AuditQuery query(chain);
  EXPECT_TRUE(query.has_data_monopoly(0.5));
  EXPECT_FALSE(query.has_data_monopoly(0.95));
  EXPECT_NEAR(query.data_concentration_hhi(), 0.81 + 0.01, 1e-9);
}

// --------------------------------------------------------- state commitment

TEST(StateCommitment, IncrementalMatchesFullRehash) {
  Fixture f;
  EXPECT_EQ(f.state.commitment(), f.state.full_rehash_commitment());
  const auto tx = make_transfer(f.alice, 0, f.bob.address(), 100, 5, f.rng);
  ASSERT_TRUE(f.state.apply(tx, *f.contracts, 0).ok());
  f.state.store_put("reg", "k", Bytes{1, 2});
  f.state.append_audit(
      StoredAuditRecord{f.alice.address(), {"gaze", "ads", 1, "none"}, 0});
  const auto c = f.state.commitment();
  EXPECT_EQ(c, f.state.full_rehash_commitment());
  EXPECT_EQ(c.root, f.state.full_rehash_root());
  EXPECT_EQ(c.account_count, 2u);
  EXPECT_EQ(c.audit_count, 1u);
  EXPECT_EQ(c.burned_fees, 5u);
}

TEST(StateCommitment, SectionsIsolateWhatChanged) {
  Fixture f;
  const auto before = f.state.commitment();
  f.state.append_audit(
      StoredAuditRecord{f.alice.address(), {"gaze", "ads", 1, "none"}, 0});
  const auto after = f.state.commitment();
  EXPECT_NE(after.root, before.root);
  EXPECT_NE(after.audit_digest, before.audit_digest);
  EXPECT_EQ(after.accounts_root, before.accounts_root);  // accounts untouched
  EXPECT_EQ(after.stores_digest, before.stores_digest);  // stores untouched
}

TEST(LedgerStateOverlay, ReaderComputesCommitmentWithoutMutatingBase) {
  Fixture f;
  const auto base_before = f.state.commitment();
  auto scratch = LedgerStateOverlay::reader(f.state);
  const auto tx = make_transfer(f.alice, 0, f.bob.address(), 100, 5, f.rng);
  ASSERT_TRUE(scratch.apply(tx, *f.contracts, 0).ok());
  const auto oc = scratch.commitment();
  EXPECT_NE(oc.root, base_before.root);
  EXPECT_EQ(f.state.commitment(), base_before);  // base untouched
}

TEST(LedgerStateOverlay, WriterCommitmentPredictsPostCommitState) {
  Fixture f;
  auto scratch = LedgerStateOverlay::writer(f.state);
  const auto tx = make_transfer(f.alice, 0, f.bob.address(), 100, 5, f.rng);
  ASSERT_TRUE(scratch.apply(tx, *f.contracts, 0).ok());
  scratch.store_put("reg", "k", Bytes{9});
  const auto oc = scratch.commitment();
  scratch.commit();
  EXPECT_EQ(f.state.commitment(), oc);
  EXPECT_EQ(f.state.commitment(), f.state.full_rehash_commitment());
}

TEST(LedgerStateOverlay, NestedOverlayCommitmentValidOverUnmaterializedBase) {
  // The historical API computed a state root only on an overlay whose base
  // was the materialized LedgerState; commitment() must work at any depth.
  Fixture f;
  auto outer = LedgerStateOverlay::writer(f.state);
  ASSERT_TRUE(
      outer.apply(make_transfer(f.alice, 0, f.bob.address(), 100, 5, f.rng),
                  *f.contracts, 0)
          .ok());
  auto inner = LedgerStateOverlay::nested(outer);
  ASSERT_TRUE(
      inner.apply(make_transfer(f.bob, 0, f.alice.address(), 30, 2, f.rng),
                  *f.contracts, 0)
          .ok());
  inner.store_put("reg", "k", Bytes{1});
  inner.append_audit(
      StoredAuditRecord{f.bob.address(), {"pose", "render", 3, "none"}, 0});
  const auto nested_c = inner.commitment();
  inner.commit();
  EXPECT_EQ(outer.commitment(), nested_c);
  outer.commit();
  EXPECT_EQ(f.state.commitment(), nested_c);
  EXPECT_EQ(f.state.full_rehash_commitment(), nested_c);
}

TEST(LedgerStateOverlay, OverlayTombstoneErasesBaseStoreKey) {
  Fixture f;
  f.state.store_put("reg", "k", Bytes{1});
  auto scratch = LedgerStateOverlay::writer(f.state);
  scratch.store_erase("reg", "k");
  const auto oc = scratch.commitment();
  scratch.commit();
  EXPECT_EQ(f.state.store_get("reg", "k"), nullptr);
  EXPECT_EQ(f.state.commitment(), oc);
  EXPECT_EQ(f.state.commitment(), f.state.full_rehash_commitment());
}

TEST(LedgerState, DifferentialCommitmentMatchesFullRehashOracle) {
  // >= 10k randomized mixed operations (credits, debits, nonce bumps, store
  // writes/erases, audit appends) staged through writer overlays that are
  // committed or discarded at every "block boundary"; the incrementally
  // maintained commitment must equal the from-scratch oracle throughout.
  Rng rng(2024);
  LedgerState state;
  const auto addr = [&rng] { return crypto::Address{rng.next_below(48) + 1}; };
  const auto blob = [&rng] {
    Bytes b;
    const std::uint64_t len = rng.next_below(6);
    for (std::uint64_t i = 0; i < len; ++i) {
      b.push_back(static_cast<std::uint8_t>(rng.next_u64()));
    }
    return b;
  };
  const std::array<std::string, 3> contracts{"nft", "dao", "reg"};
  std::size_t ops = 0;
  int block = 0;
  while (ops < 10000) {
    auto scratch = LedgerStateOverlay::writer(state);
    const std::uint64_t block_ops = 1 + rng.next_below(150);
    for (std::uint64_t i = 0; i < block_ops; ++i, ++ops) {
      switch (rng.next_below(6)) {
        case 0:
          scratch.credit(addr(), rng.next_below(1000));
          break;
        case 1:
          (void)scratch.debit(addr(), rng.next_below(500));  // may fail: fine
          break;
        case 2:
          // Includes nonce -> 0 on accounts without a balance entry, which
          // must drop the account leaf entirely.
          scratch.set_nonce(addr(), rng.next_below(3));
          break;
        case 3:
          scratch.store_put(contracts[rng.next_below(3)],
                            "k" + std::to_string(rng.next_below(20)), blob());
          break;
        case 4:
          scratch.store_erase(contracts[rng.next_below(3)],
                              "k" + std::to_string(rng.next_below(20)));
          break;
        default:
          scratch.append_audit(StoredAuditRecord{
              addr(), {"gaze", "ads", rng.next_below(10), "none"},
              static_cast<Tick>(block)});
          break;
      }
    }
    const auto oc = scratch.commitment();
    if (rng.chance(0.7)) {
      scratch.commit();
      ASSERT_EQ(state.commitment(), oc) << "block " << block;
    }
    // Whether committed or discarded, the incremental sections must agree
    // with the from-scratch oracle at the boundary.
    ASSERT_EQ(state.commitment(), state.full_rehash_commitment())
        << "block " << block;
    ++block;
  }
}

// ---------------------------------------------------------- mempool TTL/cap

TEST(Mempool, SweepExpiredDropsOnlyStaleEntries) {
  Fixture f;
  Mempool pool(MempoolConfig{.ttl = 10, .max_txs = 100});
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state, 0)
          .ok());
  ASSERT_TRUE(
      pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 1, f.rng), f.state, 8)
          .ok());
  EXPECT_EQ(pool.sweep_expired(10), 0u);  // age 10 == ttl: not yet expired
  EXPECT_EQ(pool.sweep_expired(11), 1u);  // alice's (age 11) goes, bob's stays
  EXPECT_EQ(pool.size(), 1u);
  const auto picked = pool.select(10, f.state);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0].sender(), f.bob.address());
  EXPECT_EQ(pool.sweep_expired(19), 1u);
  EXPECT_TRUE(pool.empty());
  EXPECT_EQ(pool.stats().expired, 2u);
}

TEST(Mempool, ZeroTtlDisablesExpiry) {
  Fixture f;
  Mempool pool(MempoolConfig{.ttl = 0, .max_txs = 100});
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state, 0)
          .ok());
  EXPECT_EQ(pool.sweep_expired(1000000), 0u);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Mempool, NonceGappedTxExpiresInsteadOfPendingForever) {
  // Nonce 2 arrives but nonce 1 never does: the successor is unrunnable and
  // must eventually age out, even while fresh traffic keeps flowing.
  Fixture f;
  Mempool pool(MempoolConfig{.ttl = 10, .max_txs = 100});
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state, 0)
          .ok());
  ASSERT_TRUE(pool
                  .add(make_transfer(f.alice, 2, f.bob.address(), 1, 100, f.rng),
                       f.state, 0)
                  .ok());
  // The runnable nonce-0 tx commits; the gapped one stays behind.
  auto picked = pool.select(10, f.state);
  ASSERT_EQ(picked.size(), 1u);
  ASSERT_TRUE(f.state.apply(picked[0], *f.contracts, 0).ok());
  pool.remove_included(picked);
  pool.prune(f.state);
  EXPECT_EQ(pool.size(), 1u);  // prune keeps it: nonce 2 is still future
  // Fresh traffic at tick 20 is untouched; the orphan (admitted at 0) ages out.
  ASSERT_TRUE(
      pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 1, f.rng), f.state, 20)
          .ok());
  EXPECT_EQ(pool.sweep_expired(20), 1u);
  picked = pool.select(10, f.state);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0].sender(), f.bob.address());
}

TEST(Mempool, AtCapacityEvictsLowestFeeOrRejects) {
  Fixture f;
  crypto::Wallet carol{f.rng}, dave{f.rng};
  f.state.credit(carol.address(), 500);
  f.state.credit(dave.address(), 500);
  Mempool pool(MempoolConfig{.ttl = 0, .max_txs = 3});
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 5, f.rng), f.state, 0)
          .ok());
  ASSERT_TRUE(
      pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 10, f.rng), f.state, 0)
          .ok());
  ASSERT_TRUE(
      pool.add(make_transfer(carol, 0, f.bob.address(), 1, 15, f.rng), f.state, 0)
          .ok());
  // Full, fee 20 > floor fee 5: alice's tx is displaced.
  ASSERT_TRUE(
      pool.add(make_transfer(dave, 0, f.bob.address(), 1, 20, f.rng), f.state, 0)
          .ok());
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.stats().evicted_low_fee, 1u);
  const auto picked = pool.select(10, f.state);
  for (const auto& tx : picked) EXPECT_NE(tx.sender(), f.alice.address());
  // Full, fee 10 == new floor: rejected, pool unchanged.
  const auto cheap = make_transfer(f.alice, 0, f.bob.address(), 2, 10, f.rng);
  EXPECT_EQ(pool.add(cheap, f.state, 0).error().code, "mempool.full");
  EXPECT_EQ(pool.stats().rejected_full, 1u);
  EXPECT_EQ(pool.size(), 3u);
  // Replace-by-fee still works at capacity (pool does not grow).
  ASSERT_TRUE(
      pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 12, f.rng), f.state, 0)
          .ok());
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.stats().replaced, 1u);
}

TEST(Mempool, ReplaceByFeeAtExactCapacityNeverEvictsOthers) {
  // A same-sender+nonce replacement at exact capacity must take the
  // replacement path — substituting in place — not the eviction path, even
  // though its fee also beats the pool floor. Nobody else's tx is displaced.
  Fixture f;
  crypto::Wallet carol{f.rng}, dave{f.rng};
  f.state.credit(carol.address(), 500);
  f.state.credit(dave.address(), 500);
  Mempool pool(MempoolConfig{.ttl = 0, .max_txs = 4});
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 2, f.rng), f.state, 0)
          .ok());
  ASSERT_TRUE(
      pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 5, f.rng), f.state, 0)
          .ok());
  ASSERT_TRUE(
      pool.add(make_transfer(carol, 0, f.bob.address(), 1, 7, f.rng), f.state, 0)
          .ok());
  ASSERT_TRUE(
      pool.add(make_transfer(dave, 0, f.bob.address(), 1, 9, f.rng), f.state, 0)
          .ok());
  ASSERT_EQ(pool.size(), 4u);
  // Alice re-prices her pending nonce-0 tx (fee 2 -> 20, above the floor).
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 20, f.rng), f.state, 0)
          .ok());
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(pool.stats().replaced, 1u);
  EXPECT_EQ(pool.stats().evicted_low_fee, 0u);
  EXPECT_EQ(pool.stats().rejected_full, 0u);
  // An equal-fee re-replacement is underpriced — and does NOT count as a
  // capacity rejection either.
  const auto equal =
      make_transfer(f.alice, 0, f.bob.address(), 2, 20, f.rng);
  EXPECT_EQ(pool.add(equal, f.state, 0).error().code, "mempool.underpriced");
  EXPECT_EQ(pool.stats().rejected_full, 0u);
  EXPECT_EQ(pool.stats().replaced, 1u);
  EXPECT_EQ(pool.size(), 4u);
  // Everyone's original transactions (with alice's re-priced) are selectable.
  EXPECT_EQ(pool.select(10, f.state).size(), 4u);
}

TEST(Mempool, SweepExpiredFreesCapacityBeforeEviction) {
  // TTL expiry and at-cap eviction interact: a sweep opens slots so a low-fee
  // newcomer is admitted without displacing anyone; once the pool refills,
  // eviction picks the lowest-fee survivor, not an already-expired entry.
  Fixture f;
  crypto::Wallet carol{f.rng}, dave{f.rng};
  f.state.credit(carol.address(), 500);
  f.state.credit(dave.address(), 500);
  Mempool pool(MempoolConfig{.ttl = 10, .max_txs = 3});
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state, 0)
          .ok());
  ASSERT_TRUE(
      pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 9, f.rng), f.state, 0)
          .ok());
  ASSERT_TRUE(
      pool.add(make_transfer(carol, 0, f.bob.address(), 1, 8, f.rng), f.state, 2)
          .ok());
  ASSERT_EQ(pool.size(), 3u);
  // Tick 12: the two tick-0 admissions (fees 1 and 9) age out; carol's
  // tick-2 tx survives. Expiry is by age, not fee.
  EXPECT_EQ(pool.sweep_expired(12), 2u);
  EXPECT_EQ(pool.stats().expired, 2u);
  EXPECT_EQ(pool.size(), 1u);
  // A fee-2 newcomer — far below carol's fee 8 — is admitted into the freed
  // capacity without evicting anyone.
  ASSERT_TRUE(
      pool.add(make_transfer(dave, 0, f.bob.address(), 1, 2, f.rng), f.state, 12)
          .ok());
  EXPECT_EQ(pool.stats().evicted_low_fee, 0u);
  // Refill to cap, then force an eviction: the victim is dave's fee-2 tx.
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 6, f.rng), f.state, 12)
          .ok());
  ASSERT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.stats().evicted_low_fee, 0u);
  ASSERT_TRUE(
      pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 7, f.rng), f.state, 12)
          .ok());
  EXPECT_EQ(pool.stats().evicted_low_fee, 1u);
  EXPECT_EQ(pool.size(), 3u);
  const auto picked = pool.select(10, f.state);
  for (const auto& tx : picked) EXPECT_NE(tx.sender(), dave.address());
  // A newcomer that does not strictly out-pay the new floor (6) is refused.
  const auto cheap = make_transfer(dave, 0, f.bob.address(), 2, 6, f.rng);
  EXPECT_EQ(pool.add(cheap, f.state, 12).error().code, "mempool.full");
  EXPECT_EQ(pool.stats().rejected_full, 1u);
}

// -------------------------------------------- account proofs / light client

TEST(AccountProof, LightClientEndToEnd) {
  ChainFixture f;
  Blockchain chain = f.make_chain();
  ASSERT_TRUE(chain
                  .append(chain.assemble(
                      f.v0, {make_transfer(f.alice, 0, f.bob.address(), 10, 1, f.rng)},
                      0, f.rng))
                  .ok());
  ASSERT_TRUE(chain
                  .append(chain.assemble(
                      f.v1, {make_transfer(f.bob, 0, f.alice.address(), 5, 1, f.rng)},
                      1, f.rng))
                  .ok());

  // The light client sees only headers — never the LedgerState.
  LightClient lc(LightClientConfig{{f.v0.public_key(), f.v1.public_key()},
                                   chain.genesis_hash()});
  for (const Block& b : chain.blocks()) {
    ASSERT_TRUE(lc.accept_header(b.header).ok());
  }
  EXPECT_EQ(lc.height(), 2);
  EXPECT_EQ(lc.tip_hash(), chain.tip_hash());

  auto ap = chain.prove_account(f.bob.address(), 1);
  ASSERT_TRUE(ap.ok());
  // Ship it over the wire, as a full node would.
  auto decoded = AccountProof::decode(ap.value().encode());
  ASSERT_TRUE(decoded.ok());
  auto st = lc.verify_account(decoded.value());
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st.value().exists);
  EXPECT_EQ(st.value().balance, chain.state().balance(f.bob.address()));
  EXPECT_EQ(st.value().nonce, 1u);

  // Non-membership: an address that never appeared.
  auto absent = chain.prove_account(crypto::Address{0x123456}, 1);
  ASSERT_TRUE(absent.ok());
  auto ast = lc.verify_account(absent.value());
  ASSERT_TRUE(ast.ok());
  EXPECT_FALSE(ast.value().exists);

  // Historical heights inside the retention window are served too: the proof
  // at tip-1 anchors against that older header and shows the pre-transfer
  // balance.
  auto old_ap = chain.prove_account(f.bob.address(), 0);
  ASSERT_TRUE(old_ap.ok());
  auto old_decoded = AccountProof::decode(old_ap.value().encode());
  ASSERT_TRUE(old_decoded.ok());
  auto old_st = lc.verify_account(old_decoded.value());
  ASSERT_TRUE(old_st.ok());
  EXPECT_EQ(old_st.value().balance, st.value().balance + 5 + 1);  // amount + fee
  EXPECT_EQ(old_st.value().nonce, 0u);

  // Future heights are a distinct error from stale ones.
  EXPECT_EQ(chain.prove_account(f.bob.address(), 7).error().code,
            "chain.bad_height");
}

TEST(AccountProof, RetentionWindowBoundsHistoricalProofs) {
  ChainFixture f;
  f.config.state_retention = 3;
  Blockchain chain = f.make_chain();
  LightClient lc(LightClientConfig{{f.v0.public_key(), f.v1.public_key()},
                                   chain.genesis_hash()});
  // Eight blocks, each moving 1 from alice to bob, so every height has a
  // distinct bob balance to recognise historical states by.
  const std::uint64_t bob0 = chain.state().balance(f.bob.address());
  for (int h = 0; h < 8; ++h) {
    const crypto::Wallet& proposer = (h % 2 == 0) ? f.v0 : f.v1;
    ASSERT_TRUE(
        chain
            .append(chain.assemble(
                proposer,
                {make_transfer(f.alice, h, f.bob.address(), 1, 1, f.rng)},
                h, f.rng))
            .ok());
    ASSERT_TRUE(lc.accept_header(chain.blocks().back().header).ok());
  }
  const std::int64_t tip = chain.height() - 1;

  // Every height in [tip - retention, tip] verifies against its own header.
  for (std::int64_t h = tip - 3; h <= tip; ++h) {
    auto ap = chain.prove_account(f.bob.address(), h);
    ASSERT_TRUE(ap.ok()) << "height " << h;
    auto st = lc.verify_account(ap.value());
    ASSERT_TRUE(st.ok()) << "height " << h;
    EXPECT_EQ(st.value().balance, bob0 + static_cast<std::uint64_t>(h) + 1);
  }
  // One height older falls off the ring.
  EXPECT_EQ(chain.prove_account(f.bob.address(), tip - 4).error().code,
            "chain.stale_height");
  // Proving a historical height leaves the live state untouched.
  auto tip_ap = chain.prove_account(f.bob.address(), tip);
  ASSERT_TRUE(tip_ap.ok());
  EXPECT_EQ(tip_ap.value().commitment.root, chain.state().commitment().root);
}

TEST(AccountProof, TamperedProofsAreRejected) {
  ChainFixture f;
  Blockchain chain = f.make_chain();
  ASSERT_TRUE(chain.append(chain.assemble(f.v0, {}, 0, f.rng)).ok());
  LightClient lc(LightClientConfig{{f.v0.public_key(), f.v1.public_key()},
                                   chain.genesis_hash()});
  ASSERT_TRUE(lc.accept_header(chain.blocks()[0].header).ok());
  const auto honest = chain.prove_account(f.alice.address(), 0);
  ASSERT_TRUE(honest.ok());
  ASSERT_TRUE(lc.verify_account(honest.value()).ok());

  AccountProof lie = honest.value();
  lie.statement.balance += 1;
  EXPECT_EQ(lc.verify_account(lie).error().code, "proof.bad_path");

  lie = honest.value();
  lie.statement = AccountStatement{};  // deny an existing account
  EXPECT_EQ(lc.verify_account(lie).error().code, "proof.bad_path");

  lie = honest.value();
  lie.commitment.burned_fees += 1;  // sections no longer match the header
  EXPECT_EQ(lc.verify_account(lie).error().code, "proof.bad_commitment");

  lie = honest.value();
  lie.height = 3;  // no such header accepted
  EXPECT_EQ(lc.verify_account(lie).error().code, "light.unknown_height");

  lie = honest.value();
  lie.address = f.bob.address();  // someone else's proof
  EXPECT_EQ(lc.verify_account(lie).error().code, "proof.bad_path");

  // Internally inconsistent statements never reach the Merkle check.
  lie = honest.value();
  lie.statement.exists = false;
  lie.statement.has_balance = true;
  EXPECT_EQ(lc.verify_account(lie).error().code, "proof.bad_statement");
}

TEST(LightClient, RejectsBadHeaders) {
  ChainFixture f;
  Blockchain chain = f.make_chain();
  ASSERT_TRUE(chain.append(chain.assemble(f.v0, {}, 0, f.rng)).ok());
  ASSERT_TRUE(chain.append(chain.assemble(f.v1, {}, 1, f.rng)).ok());
  const BlockHeader h0 = chain.blocks()[0].header;
  const BlockHeader h1 = chain.blocks()[1].header;
  const LightClientConfig config{{f.v0.public_key(), f.v1.public_key()},
                                 chain.genesis_hash()};
  {
    LightClient lc(config);  // out-of-order height
    EXPECT_EQ(lc.accept_header(h1).error().code, "light.bad_height");
  }
  {
    LightClient lc(config);  // broken linkage
    BlockHeader bad = h0;
    bad.prev_hash[0] ^= 1;
    EXPECT_EQ(lc.accept_header(bad).error().code, "light.bad_parent");
  }
  {
    // Validator order swapped: h0 was proposed by v0, but this client
    // expects v1 at height 0.
    LightClient lc(LightClientConfig{{f.v1.public_key(), f.v0.public_key()},
                                     chain.genesis_hash()});
    EXPECT_EQ(lc.accept_header(h0).error().code, "light.wrong_proposer");
  }
  {
    LightClient lc(config);  // forged state root breaks the signature
    BlockHeader bad = h0;
    bad.state_root[0] ^= 1;
    EXPECT_EQ(lc.accept_header(bad).error().code, "light.bad_proposer_sig");
  }
  {
    LightClient lc(config);  // and the honest sequence is accepted
    ASSERT_TRUE(lc.accept_header(h0).ok());
    ASSERT_TRUE(lc.accept_header(h1).ok());
    EXPECT_EQ(lc.accept_header(h0).error().code, "light.bad_height");  // replay
  }
}

TEST(AccountProof, HundredThousandAccountChainTip) {
  // Acceptance property: at a 100k-account chain tip, every present key
  // proves, sampled absent keys non-membership-prove, and mutated
  // proofs/values/roots all fail.
  Rng rng(20260805);
  LedgerState genesis;
  std::vector<std::uint64_t> addrs;
  addrs.reserve(100000);
  while (addrs.size() < 100000) {
    const std::uint64_t a = rng.chance(0.5)
                                ? (0xACC0000000000000ull | rng.next_below(1u << 21))
                                : rng.next_u64();
    if (a == 0) continue;
    const crypto::Address addr{a};
    if (genesis.find_balance(addr).has_value()) continue;
    genesis.credit(addr, 1 + rng.next_below(1000));
    addrs.push_back(a);
  }
  crypto::Wallet validator(rng);
  ChainConfig config;
  config.validators = {validator.public_key()};
  Blockchain chain(config, std::make_shared<ContractRegistry>(), genesis);
  ASSERT_TRUE(chain.append(chain.assemble(validator, {}, 0, rng)).ok());
  const crypto::Digest state_root = chain.blocks()[0].header.state_root;
  LightClient lc(
      LightClientConfig{{validator.public_key()}, chain.genesis_hash()});
  ASSERT_TRUE(lc.accept_header(chain.blocks()[0].header).ok());

  for (const std::uint64_t a : addrs) {
    const auto ap = chain.prove_account(crypto::Address{a}, 0);
    ASSERT_TRUE(ap.ok());
    ASSERT_TRUE(ap.value().statement.exists);
    ASSERT_TRUE(verify_account_proof(ap.value(), state_root).ok())
        << "account " << a;
  }
  std::size_t absent = 0;
  while (absent < 10000) {
    const std::uint64_t a = rng.chance(0.5)
                                ? (0xACC0000000000000ull | rng.next_below(1u << 21))
                                : rng.next_u64();
    if (a == 0 || chain.state().find_balance(crypto::Address{a}).has_value()) {
      continue;
    }
    const auto ap = chain.prove_account(crypto::Address{a}, 0);
    ASSERT_TRUE(ap.ok());
    ASSERT_FALSE(ap.value().statement.exists);
    ASSERT_TRUE(verify_account_proof(ap.value(), state_root).ok())
        << "absent " << a;
    ++absent;
  }
  // Mutations: value, root, and proof bytes, over a sample of accounts.
  for (int sample = 0; sample < 64; ++sample) {
    const std::uint64_t a = addrs[rng.next_below(addrs.size())];
    const auto ap = chain.prove_account(crypto::Address{a}, 0);
    ASSERT_TRUE(ap.ok());

    AccountProof wrong_value = ap.value();
    wrong_value.statement.balance ^= 1;
    EXPECT_FALSE(verify_account_proof(wrong_value, state_root).ok());

    crypto::Digest wrong_root = state_root;
    wrong_root[rng.next_below(wrong_root.size())] ^= 0x40;
    EXPECT_FALSE(verify_account_proof(ap.value(), wrong_root).ok());

    // Mutated wire bytes go through the light client: a height mutation is
    // caught by the header lookup, everything else by the crypto.
    Bytes wire = ap.value().encode();
    wire[rng.next_below(wire.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    const auto mutated = AccountProof::decode(wire);
    if (mutated.ok()) {
      EXPECT_FALSE(lc.verify_account(mutated.value()).ok());
    }
  }
}

// ----------------------------------------------------- overlay commit modes

TEST(LedgerStateOverlayDeathTest, CommitOnReaderAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Fixture f;
  auto overlay = LedgerStateOverlay::reader(f.state);
  overlay.credit(f.alice.address(), 1);
  // Release builds used to compile the assert out and silently drop the
  // delta; the failure must be hard in every build type.
  EXPECT_DEATH(overlay.commit(), "read-only overlay");
}

TEST(LedgerStateOverlay, CommitOnWriterFoldsDelta) {
  Fixture f;
  auto overlay = LedgerStateOverlay::writer(f.state);
  overlay.credit(f.alice.address(), 10);
  overlay.set_nonce(f.bob.address(), 3);
  overlay.add_burned_fees(7);
  overlay.commit();
  EXPECT_EQ(f.state.balance(f.alice.address()), 1010u);
  EXPECT_EQ(f.state.nonce(f.bob.address()), 3u);
  EXPECT_EQ(f.state.burned_fees(), 7u);
  // After the fold the overlay is empty: committing again is a no-op.
  overlay.commit();
  EXPECT_EQ(f.state.balance(f.alice.address()), 1010u);
}

// ------------------------------------------- overlay store-prefix vs oracle

namespace {
using StoreModel = std::map<std::string, Bytes>;

/// Flattened oracle: keys of `model` carrying `prefix`, sorted (std::map).
std::vector<std::string> oracle_keys(const StoreModel& model,
                                     const std::string& prefix) {
  std::vector<std::string> out;
  for (const auto& [key, value] : model) {
    if (key.compare(0, prefix.size(), prefix) == 0) out.push_back(key);
  }
  return out;
}

std::string random_store_key(Rng& rng) {
  const std::size_t len = 1 + rng.next_below(4);
  std::string key;
  for (std::size_t i = 0; i < len; ++i) {
    key.push_back(static_cast<char>('a' + rng.next_below(3)));
  }
  return key;
}
}  // namespace

TEST(LedgerStateOverlay, StoreKeysWithPrefixMatchesFlattenedOracle) {
  // Randomized differential test of the overlay's sorted base/delta merge:
  // tombstones over base keys, re-insert after erase, and a nested overlay,
  // all on a 3-letter alphabet so collisions are constant.
  Rng rng(424242);
  const std::string contract = "shop";
  const std::vector<std::string> prefixes = {"",   "a",  "ab", "abc",
                                             "b",  "bc", "c",  "cc"};
  for (int round = 0; round < 25; ++round) {
    LedgerState base;
    StoreModel base_model;
    for (int i = 0; i < 20; ++i) {
      const std::string key = random_store_key(rng);
      base.store_put(contract, key, Bytes{static_cast<std::uint8_t>(i)});
      base_model[key] = Bytes{static_cast<std::uint8_t>(i)};
    }
    auto o1 = LedgerStateOverlay::writer(base);
    StoreModel o1_model = base_model;
    for (int i = 0; i < 30; ++i) {
      const std::string key = random_store_key(rng);
      if (rng.chance(0.45)) {  // tombstone (often shadowing a base key)
        o1.store_erase(contract, key);
        o1_model.erase(key);
      } else {  // insert (often a re-insert over an earlier tombstone)
        o1.store_put(contract, key, Bytes{static_cast<std::uint8_t>(i)});
        o1_model[key] = Bytes{static_cast<std::uint8_t>(i)};
      }
    }
    auto o2 = LedgerStateOverlay::nested(o1);
    StoreModel o2_model = o1_model;
    for (int i = 0; i < 30; ++i) {
      const std::string key = random_store_key(rng);
      if (rng.chance(0.45)) {
        o2.store_erase(contract, key);
        o2_model.erase(key);
      } else {
        o2.store_put(contract, key, Bytes{static_cast<std::uint8_t>(100 + i)});
        o2_model[key] = Bytes{static_cast<std::uint8_t>(100 + i)};
      }
    }
    for (const std::string& prefix : prefixes) {
      ASSERT_EQ(base.store_keys_with_prefix(contract, prefix),
                oracle_keys(base_model, prefix))
          << "base, round " << round << ", prefix '" << prefix << "'";
      ASSERT_EQ(o1.store_keys_with_prefix(contract, prefix),
                oracle_keys(o1_model, prefix))
          << "o1, round " << round << ", prefix '" << prefix << "'";
      ASSERT_EQ(o2.store_keys_with_prefix(contract, prefix),
                oracle_keys(o2_model, prefix))
          << "o2 (nested), round " << round << ", prefix '" << prefix << "'";
    }
    // Commit the stack down to the base; the flattened views must agree.
    o2.commit();
    for (const std::string& prefix : prefixes) {
      ASSERT_EQ(o1.store_keys_with_prefix(contract, prefix),
                oracle_keys(o2_model, prefix))
          << "o1 after o2.commit, round " << round;
    }
    o1.commit();
    for (const std::string& prefix : prefixes) {
      ASSERT_EQ(base.store_keys_with_prefix(contract, prefix),
                oracle_keys(o2_model, prefix))
          << "base after commits, round " << round;
    }
  }
}

// ----------------------------------------------- mempool expiry edge cases

TEST(Mempool, SweepRecoversFromClockRegression) {
  // A replica restarting mid-tick can hand sweep_expired a `now` before the
  // admission stamps. The historical sweep broke on `now <= admitted`, which
  // left future-stamped entries unexpirable forever; they are now re-stamped
  // to the regressed clock and age out normally.
  Fixture f;
  Mempool pool(MempoolConfig{.ttl = 10, .max_txs = 100});
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state, 1000)
          .ok());
  ASSERT_TRUE(
      pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 1, f.rng), f.state, 1005)
          .ok());
  EXPECT_EQ(pool.sweep_expired(5), 0u);  // regression: re-stamp, nothing drops
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_TRUE(pool.self_check());
  EXPECT_EQ(pool.sweep_expired(15), 0u);  // age 10 == ttl: still pending
  EXPECT_EQ(pool.sweep_expired(16), 2u);  // age 11 > ttl: both expire
  EXPECT_TRUE(pool.empty());
  EXPECT_TRUE(pool.self_check());
  EXPECT_EQ(pool.stats().expired, 2u);
}

TEST(Mempool, SweepMixedPastAndFutureStamps) {
  // Only the oldest stamp drives the loop: a future-stamped entry behind a
  // past one is untouched until it becomes the oldest, then re-stamped.
  Fixture f;
  Mempool pool(MempoolConfig{.ttl = 10, .max_txs = 100});
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state, 3)
          .ok());
  ASSERT_TRUE(
      pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 1, f.rng), f.state, 1000)
          .ok());
  EXPECT_EQ(pool.sweep_expired(5), 0u);  // oldest (3) is fresh; nothing happens
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.sweep_expired(14), 1u);  // age 11: the tick-3 entry expires,
  EXPECT_EQ(pool.size(), 1u);             // and the future one re-stamps to 14
  EXPECT_TRUE(pool.self_check());
  EXPECT_EQ(pool.sweep_expired(25), 1u);  // 25 - 14 = 11 > ttl
  EXPECT_TRUE(pool.empty());
}

TEST(Mempool, SweepTickBoundaryValues) {
  Fixture f;
  Mempool pool(MempoolConfig{.ttl = 10, .max_txs = 100});
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state, 0)
          .ok());
  EXPECT_EQ(pool.sweep_expired(0), 0u);  // age 0 at now == admitted
  // A far-future sweep must not overflow Tick arithmetic.
  EXPECT_EQ(pool.sweep_expired(std::numeric_limits<Tick>::max()), 1u);
  // An entry stamped at the Tick ceiling re-stamps on the first sane sweep.
  ASSERT_TRUE(pool
                  .add(make_transfer(f.bob, 0, f.alice.address(), 1, 1, f.rng),
                       f.state, std::numeric_limits<Tick>::max())
                  .ok());
  EXPECT_EQ(pool.sweep_expired(100), 0u);  // re-stamped to 100
  EXPECT_TRUE(pool.self_check());
  EXPECT_EQ(pool.sweep_expired(111), 1u);  // and expires 11 ticks later
  EXPECT_TRUE(pool.empty());
}

TEST(Mempool, RandomizedChurnKeepsIndexesConsistent) {
  // Churn every public mutation — admission, replace-by-fee, at-cap
  // eviction, expiry sweeps (including clock regressions), inclusion
  // removal, pruning — and audit all four indexes after each batch.
  Fixture f;
  Rng rng(777);
  std::vector<crypto::Wallet> wallets;
  for (int i = 0; i < 6; ++i) wallets.emplace_back(rng);
  Mempool pool(MempoolConfig{.ttl = 30, .max_txs = 24});
  std::vector<std::uint64_t> next_nonce(wallets.size(), 0);
  Tick now = 0;
  for (int round = 0; round < 60; ++round) {
    for (int op = 0; op < 8; ++op) {
      const std::size_t w = rng.next_below(wallets.size());
      const bool replay = rng.chance(0.2) && next_nonce[w] > 0;
      const std::uint64_t nonce =
          replay ? rng.next_below(next_nonce[w]) : next_nonce[w];
      const auto tx = make_transfer(wallets[w], nonce, f.bob.address(), 1,
                                    1 + rng.next_below(9), f.rng);
      if (pool.add(tx, f.state, now).ok() && !replay) ++next_nonce[w];
    }
    if (rng.chance(0.3)) {
      // Advance, or regress the clock to re-exercise the re-stamp path.
      now = rng.chance(0.25) ? std::max<Tick>(0, now - 40)
                             : now + static_cast<Tick>(rng.next_below(20));
      (void)pool.sweep_expired(now);
    }
    if (rng.chance(0.25)) {
      pool.remove_included(pool.select(4, f.state));
    }
    if (rng.chance(0.1)) pool.prune(f.state);
    ASSERT_TRUE(pool.self_check()) << "round " << round;
  }
  EXPECT_EQ(pool.stats().repaired, 0u);  // indexes never actually dangled
}

}  // namespace
}  // namespace mv::ledger
