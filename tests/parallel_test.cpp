// Block application tests: differential equivalence of every stack
// configuration (queue worker counts x verified-signature memo on/off), and of
// an append-only replica that executes every block in full, against a
// queue-less, memo-less serial oracle and full_rehash_commitment(),
// bit-identical commitments across those configurations, error parity on
// invalid blocks with and without the memo, and a consensus committee whose
// replicas share a threaded queue.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "chain_checks.h"
#include "common/job_queue.h"
#include "ledger/chain.h"
#include "ledger/consensus.h"
#include "ledger/parallel.h"

namespace mv::ledger {
namespace {

Bytes key_args(std::string_view key) {
  ByteWriter w;
  w.str(key);
  return w.take();
}

Bytes pay_args(crypto::Address to, std::uint64_t amount) {
  ByteWriter w;
  w.u64(to.value);
  w.u64(amount);
  return w.take();
}

/// Test contract covering three access patterns block application must get
/// right: read-modify-write on colliding store keys ("bump"), payouts to
/// accounts named only in the call arguments ("pay"), and erases ("drop").
class ScratchpadContract final : public Contract {
 public:
  [[nodiscard]] std::string name() const override { return "pad"; }
  [[nodiscard]] Status call(CallContext& ctx, const std::string& method,
                            const Bytes& args) const override {
    ByteReader r(args);
    if (method == "bump") {
      const std::string key = r.str();
      if (!r.ok()) return r.error();
      std::uint64_t counter = 0;
      if (const Bytes* cur = ctx.get(key)) {
        ByteReader vr(*cur);
        counter = vr.u64();
        if (!vr.ok()) return vr.error();
      }
      ByteWriter w;
      w.u64(counter + 1);
      ctx.put(key, w.take());
      return {};
    }
    if (method == "pay") {
      const crypto::Address to{r.u64()};
      const std::uint64_t amount = r.u64();
      if (!r.ok()) return r.error();
      return ctx.transfer(ctx.caller(), to, amount);
    }
    if (method == "drop") {
      const std::string key = r.str();
      if (!r.ok()) return r.error();
      ctx.erase(key);
      return {};
    }
    return Status::fail("pad.bad_method", method);
  }
};

struct BlockFixture {
  Rng rng{2026};
  std::shared_ptr<ContractRegistry> contracts = std::make_shared<ContractRegistry>();
  crypto::Wallet proposer{rng};
  std::vector<crypto::Wallet> wallets;
  std::vector<std::uint64_t> nonces;
  LedgerState genesis;

  explicit BlockFixture(std::size_t n) {
    contracts->install(std::make_shared<ScratchpadContract>());
    wallets.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      wallets.emplace_back(rng);
      genesis.credit(wallets.back().address(), 10'000'000);
    }
    nonces.assign(n, 0);
  }

  /// The serial oracle: no job queue, no signature memo.
  [[nodiscard]] Blockchain oracle() const {
    return Blockchain(config({}), contracts, genesis);
  }

  /// A chain on its own queue with `workers` threads (0 = inline), with or
  /// without a verified-signature memo.
  [[nodiscard]] Blockchain chain(std::size_t workers, bool sig_cache) const {
    ValidationConfig validation;
    validation.job_queue =
        std::make_shared<JobQueue>(JobQueueConfig{.threads = workers});
    if (sig_cache) validation.sig_cache = std::make_shared<crypto::DigestLruSet>();
    return Blockchain(config(std::move(validation)), contracts, genesis);
  }

  [[nodiscard]] ChainConfig config(ValidationConfig validation) const {
    ChainConfig config;
    config.validators = {proposer.public_key()};
    config.validation = std::move(validation);
    return config;
  }

  /// Conflict-heavy candidate mix: self-transfers, shared hot recipients,
  /// colliding store keys, dynamic contract payouts, and a sprinkle of
  /// invalid transactions that assembly must drop identically everywhere.
  /// Invalid candidates reuse the sender's current nonce without advancing
  /// it, so the sender's next valid transaction still applies.
  std::vector<Transaction> make_candidates(std::size_t count, Rng& r) {
    std::vector<Transaction> txs;
    txs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t w = r.next_below(wallets.size());
      const crypto::Wallet& sender = wallets[w];
      const std::uint64_t roll = r.next_below(100);
      if (roll < 40) {
        crypto::Address to;
        const std::uint64_t pick = r.next_below(10);
        if (pick < 3) {
          to = sender.address();  // self-transfer: sender == recipient key
        } else if (pick < 6) {
          to = wallets[r.next_below(4)].address();  // hot shared recipients
        } else {
          to = wallets[r.next_below(wallets.size())].address();
        }
        txs.push_back(make_transfer(sender, nonces[w]++, to,
                                    1 + r.next_below(50), 1 + r.next_below(4), r));
      } else if (roll < 52) {
        txs.push_back(make_audit_record(
            sender, nonces[w]++,
            AuditRecordBody{"gaze", "presence", r.next_below(1000), "none"}, 1,
            r));
      } else if (roll < 70) {
        const std::string key = "k" + std::to_string(r.next_below(8));
        txs.push_back(make_contract_call(sender, nonces[w]++, "pad", "bump",
                                         key_args(key), 1, r));
      } else if (roll < 78) {
        const crypto::Address to = wallets[r.next_below(wallets.size())].address();
        txs.push_back(make_contract_call(sender, nonces[w]++, "pad", "pay",
                                         pay_args(to, 1 + r.next_below(20)), 1,
                                         r));
      } else if (roll < 84) {
        const std::string key = "k" + std::to_string(r.next_below(8));
        txs.push_back(make_contract_call(sender, nonces[w]++, "pad", "drop",
                                         key_args(key), 1, r));
      } else if (roll < 92) {
        // Overdraft: valid signature, impossible amount.
        txs.push_back(make_transfer(sender, nonces[w], wallets[0].address(),
                                    1'000'000'000'000ULL, 1, r));
      } else {
        Transaction tx = make_transfer(sender, nonces[w], wallets[0].address(),
                                       1, 1, r);
        tx.sig.s ^= 1;  // corrupted signature
        txs.push_back(tx);
      }
    }
    return txs;
  }
};

// ----------------------------------------------------------- differential

/// Queue worker counts swept against the serial oracle (0 = inline queue).
constexpr std::size_t kWorkerCounts[] = {0, 2, 4, 8};


TEST(ParallelValidation, DifferentialManyBlocksMatchSerialOracle) {
  BlockFixture f(24);
  Blockchain serial = f.oracle();
  std::vector<Blockchain> others;
  others.push_back(f.chain(0, /*sig_cache=*/true));
  others.push_back(f.chain(2, /*sig_cache=*/false));
  others.push_back(f.chain(4, /*sig_cache=*/true));
  others.push_back(f.chain(8, /*sig_cache=*/true));
  // Every chain above appends the block it assembled, so its append is served
  // from the execution memo. This replica never assembles: each append
  // executes the block in full. It shares the first chain's signature memo,
  // as a replica shares one with its mempool.
  ValidationConfig shared;
  shared.sig_cache = others[0].config().validation.sig_cache;
  Blockchain replica(f.config(std::move(shared)), f.contracts, f.genesis);

  Rng workload(424242);
  std::size_t total_candidates = 0;
  for (std::int64_t b = 0; b < 50; ++b) {
    const auto candidates = f.make_candidates(110, workload);
    total_candidates += candidates.size();
    // Identically seeded per-chain assembly RNGs: the proposer signatures —
    // and so the full block encodings — must come out byte-identical.
    Rng serial_rng(7000 + static_cast<std::uint64_t>(b));
    const Block block =
        serial.assemble(f.proposer, candidates, static_cast<Tick>(b), serial_rng);
    ASSERT_GE(block.txs.size(), 80u) << "block " << b;
    for (auto& chain : others) {
      Rng pr(7000 + static_cast<std::uint64_t>(b));
      const Block pblock =
          chain.assemble(f.proposer, candidates, static_cast<Tick>(b), pr);
      ASSERT_EQ(pblock.encode(), block.encode()) << "block " << b;
    }
    const crypto::Address probe = f.wallets[b % f.wallets.size()].address();
    ASSERT_TRUE(serial.append(block).ok()) << "block " << b;
    ASSERT_NO_FATAL_FAILURE(expect_installed_equals_recomputed(serial, probe))
        << "block " << b;
    const StateCommitment want = serial.state().commitment();
    for (auto& chain : others) {
      ASSERT_TRUE(chain.append(block).ok()) << "block " << b;
      ASSERT_EQ(chain.state().commitment(), want) << "block " << b;
      ASSERT_NO_FATAL_FAILURE(expect_installed_equals_recomputed(chain, probe))
          << "block " << b;
    }
    ASSERT_TRUE(replica.append(block).ok()) << "block " << b;
    ASSERT_EQ(replica.state().commitment(), want) << "block " << b;
    ASSERT_NO_FATAL_FAILURE(expect_installed_equals_recomputed(replica, probe))
        << "block " << b;
  }
  EXPECT_GE(total_candidates, 5000u);

  // Incremental commitments on every chain agree with the from-scratch
  // oracle. The assembling chains executed each block once (at assembly);
  // the replica executed each in full at append, and the shared signature
  // memo vouched for the signatures assembly had verified.
  const auto expect_sound = [](const Blockchain& chain, std::uint64_t memo_hits) {
    EXPECT_EQ(chain.state().commitment(), chain.state().full_rehash_commitment());
    EXPECT_EQ(chain.validation_stats().applies, 50u);
    EXPECT_EQ(chain.validation_stats().memo_hits, memo_hits);
  };
  expect_sound(serial, 50);
  for (const auto& chain : others) expect_sound(chain, 50);
  expect_sound(replica, 0);
  EXPECT_GT(replica.validation_stats().sig_cache_hits, 0u);
  EXPECT_EQ(replica.validation_stats().sig_cache_misses, 0u);
}

// ----------------------------------------------------------- determinism

TEST(ParallelValidation, CommitmentsBitIdenticalAcrossThreadsAndSeeds) {
  BlockFixture f(16);
  Rng workload(5150);
  const auto candidates = f.make_candidates(120, workload);
  Blockchain serial = f.oracle();
  Rng assemble_rng(31);
  const Block block = serial.assemble(f.proposer, candidates, 0, assemble_rng);
  ASSERT_GE(block.txs.size(), 80u);
  ASSERT_TRUE(serial.append(block).ok());
  const StateCommitment want = serial.state().commitment();
  ASSERT_EQ(want, serial.state().full_rehash_commitment());

  // Queue worker count, the signature memo, and run repetition must all be
  // invisible in the result: every section digest, including the
  // order-sensitive audit chain hash, is bit-identical to the oracle.
  for (const std::size_t workers : kWorkerCounts) {
    for (const bool sig_cache : {false, true}) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        Blockchain chain = f.chain(workers, sig_cache);
        ASSERT_TRUE(chain.append(block).ok())
            << workers << " workers, cache " << sig_cache << ", run " << repeat;
        const StateCommitment got = chain.state().commitment();
        EXPECT_EQ(got.audit_digest, want.audit_digest)
            << workers << " workers, cache " << sig_cache;
        EXPECT_EQ(got, want) << workers << " workers, cache " << sig_cache;
      }
    }
  }
}

// ----------------------------------------------------------- error parity

/// A signed block over `txs` on top of `chain`'s tip whose state_root is
/// never reached (each caller's block fails on a transaction first).
Block failing_block(BlockFixture& f, const Blockchain& chain,
                    std::vector<Transaction> txs) {
  Block block;
  block.txs = std::move(txs);
  block.header.height = chain.height();
  block.header.prev_hash = chain.tip_hash();
  block.header.tx_root = Block::compute_tx_root(block.txs);
  block.header.state_root = {};
  block.header.timestamp = 0;
  block.header.proposer_pub = f.proposer.public_key();
  block.header.proposer_sig =
      f.proposer.sign(block.header.signing_bytes(), f.rng);
  return block;
}

TEST(ParallelValidation, InvalidBlockErrorsMatchSerialExactly) {
  BlockFixture f(10);
  Blockchain serial = f.oracle();
  // Hand-built block whose tx 5 carries a bad nonce. Validation must report
  // the same failing index, code, and message in every configuration.
  std::vector<Transaction> txs;
  for (std::size_t i = 0; i < 10; ++i) {
    const std::uint64_t nonce = (i == 5) ? 3 : 0;
    txs.push_back(make_transfer(f.wallets[i], nonce,
                                f.wallets[(i + 1) % 10].address(), 5, 1, f.rng));
  }
  const Block block = failing_block(f, serial, txs);
  const Status want = serial.validate(block);
  ASSERT_FALSE(want.ok());
  for (const std::size_t workers : kWorkerCounts) {
    for (const bool sig_cache : {false, true}) {
      Blockchain chain = f.chain(workers, sig_cache);
      const Status got = chain.validate(block);
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.error().code, want.error().code);
      EXPECT_EQ(got.error().message, want.error().message);
      // Rejection left the chain untouched.
      EXPECT_EQ(chain.height(), 0);
      EXPECT_EQ(chain.state().commitment(), serial.state().commitment());
    }
  }
}

TEST(ParallelValidation, CacheMissingBadSignatureFailsLikeUncached) {
  BlockFixture f(4);
  // tx 2's signature is corrupted and was never seen by any memo: the cached
  // chain misses, verifies, and must still report apply()'s own error.
  std::vector<Transaction> txs;
  for (std::size_t i = 0; i < 4; ++i) {
    txs.push_back(make_transfer(f.wallets[i], 0,
                                f.wallets[(i + 1) % 4].address(), 5, 1, f.rng));
  }
  txs[2].sig.s ^= 1;
  Blockchain uncached = f.oracle();
  Blockchain cached = f.chain(0, /*sig_cache=*/true);
  const Block block = failing_block(f, uncached, txs);
  const Status want = uncached.validate(block);
  const Status got = cached.validate(block);
  ASSERT_FALSE(want.ok());
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(want.error().code, "block.bad_tx");
  EXPECT_EQ(got.error().code, want.error().code);
  EXPECT_EQ(got.error().message, want.error().message);
  // Only the valid signatures ahead of the failure were remembered.
  auto& memo = *cached.config().validation.sig_cache;
  EXPECT_FALSE(memo.contains_and_touch(txs[2].digest()));
  EXPECT_TRUE(memo.contains_and_touch(txs[0].digest()));
  EXPECT_EQ(cached.validation_stats().sig_cache_misses, 3u);
}

// ----------------------------------------------------------- consensus

TEST(ParallelValidation, CommitteeWithParallelReplicasStaysConsistent) {
  Rng rng{909};
  SimClock clock;
  net::Network network{clock, Rng(303),
                       net::LinkParams{.base_latency = 1.0, .jitter = 1.0, .drop_rate = 0.0}};
  auto contracts = std::make_shared<ContractRegistry>();
  contracts->install(std::make_shared<ScratchpadContract>());
  std::vector<crypto::Wallet> wallets;
  LedgerState genesis;
  for (int i = 0; i < 12; ++i) {
    wallets.emplace_back(rng);
    genesis.credit(wallets.back().address(), 1'000'000);
  }
  // Every replica shares one 4-worker queue, as replicas in one process do.
  ValidationConfig validation;
  validation.job_queue = std::make_shared<JobQueue>(JobQueueConfig{.threads = 4});
  ValidatorCommittee committee(network, 4, contracts, genesis, 128, rng,
                               validation);

  // Distinct senders paying fresh addresses, with store bumps mixed in.
  std::vector<std::uint64_t> nonces(wallets.size(), 0);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      const std::size_t w = static_cast<std::size_t>(i) % wallets.size();
      if (i % 5 == 0) {
        committee.submit(make_contract_call(
            wallets[w], nonces[w]++, "pad", "bump",
            key_args("k" + std::to_string(i % 3)), 1, rng));
      } else {
        const crypto::Address fresh{50'000u + static_cast<std::uint64_t>(round) * 100u +
                                    static_cast<std::uint64_t>(i)};
        committee.submit(
            make_transfer(wallets[w], nonces[w]++, fresh, 10, 1, rng));
      }
    }
    ASSERT_TRUE(committee.run_round()) << "round " << round;
  }
  EXPECT_TRUE(committee.replicas_consistent());
  EXPECT_EQ(committee.chain(0).height(), 3);
  for (std::size_t i = 0; i < committee.size(); ++i) {
    EXPECT_EQ(committee.chain(i).state().commitment(),
              committee.chain(i).state().full_rehash_commitment());
  }
}

}  // namespace
}  // namespace mv::ledger
