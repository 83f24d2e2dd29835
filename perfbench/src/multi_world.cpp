// multi_world passes: a ShardedLedger of per-world shards, fanned out on a
// shared JobQueue and sealed by one beacon per round.
//
// Closed loop as on the single chain: this thread submits a round's
// transactions (intra-world transfers, lock -> mint receipt pairs), calls
// commit_round, checks the beacon root against the trace, and only then
// admits the next round.
#include <algorithm>
#include <memory>
#include <optional>

#include "common/job_queue.h"
#include "crypto/digest_lru.h"
#include "ledger/shard.h"
#include "workload.h"

namespace mvbench {

namespace {

using namespace mv;

/// Wallet stream of multi-world traces (scenario/shard_harness.cpp derives
/// validators, then avatars, from seed ^ this salt). A drift is caught: the
/// genesis root rebuilt from these wallets must equal the trace's.
constexpr std::uint64_t kWalletSalt = 0x6d772e77616c6c65;

}  // namespace

Result<Prepared> prepare_multi_world(const scenario::Trace& trace) {
  Prepared p;
  Rng wrng(trace.header.seed ^ kWalletSalt);
  p.validators.reserve(trace.header.validators);
  for (std::uint32_t i = 0; i < trace.header.validators; ++i) {
    p.validators.emplace_back(wrng);
  }
  p.avatars.reserve(trace.header.avatars);
  for (std::uint64_t i = 0; i < trace.header.avatars; ++i) {
    p.avatars.emplace_back(wrng);
  }
  return p;
}

bool run_multi_world_pass(const PassContext& ctx) {
  const scenario::Trace& trace = ctx.trace;
  const Workload& w = ctx.workload;
  Tracer& tr = ctx.tracer;
  Collector& out = ctx.out;
  Collector::Side& side = out.side(tr.enabled());
  const auto group = [&](std::uint64_t i) { return (ctx.pass << 32) | i; };
  const std::uint32_t n_setup = tr.intern("setup");
  const std::uint32_t n_env = tr.intern("setup.env");
  const std::uint32_t n_chain = tr.intern("setup.chain");
  const std::uint32_t n_round = tr.intern("round");
  const std::uint32_t n_submit = tr.intern("shard.submit");
  const std::uint32_t n_commit = tr.intern("shard.commit_round");

  // ---- set-up: genesis from the users' wallets, then the sharded node.
  const auto setup_start = Clock::now();
  const std::int32_t setup_span = tr.open(n_setup, group(0));
  ledger::LedgerState genesis;
  {
    Tracer::Scope span(tr, n_env, group(0));
    for (const crypto::Wallet& a : ctx.prepared.avatars) {
      genesis.credit(a.address(), trace.header.genesis_grant);
    }
    if (genesis.commitment().root != trace.header.genesis_root) {
      out.refuse("derived multi-world genesis root differs from the trace");
      return false;
    }
  }
  const auto chain_start = Clock::now();
  std::optional<Tracer::Scope> chain_span;
  chain_span.emplace(tr, n_chain, group(0));
  ledger::ShardConfig config;
  config.num_shards = w.shards;
  for (const crypto::Wallet& v : ctx.prepared.validators) {
    config.validators.push_back(v.public_key());
  }
  config.max_txs_per_block = trace.header.max_txs_per_block;
  config.seed = trace.header.seed;
  // Like the single-chain node, admission-verified signatures are not checked
  // again at commit; the ledger gives each shard its own memo.
  config.validation.sig_cache = std::make_shared<crypto::DigestLruSet>();
  std::shared_ptr<JobQueue> queue;
  if (w.node.queue_workers > 0) {
    JobQueueConfig qc;
    qc.threads = w.node.queue_workers;
    queue = std::make_shared<JobQueue>(qc);
    config.validation.job_queue = queue;
  }
  ledger::ShardedLedger ledger(config, genesis);
  chain_span.reset();
  tr.close(setup_span);
  const auto setup_end = Clock::now();
  side.samples["setup_s"].add(ms_between(setup_start, setup_end) / 1e3);
  side.samples["setup.env_ms"].add(ms_between(setup_start, chain_start));
  side.samples["setup.chain_ms"].add(ms_between(chain_start, setup_end));
  side.samples["setup.subscribe_ms"].add(0.0);

  // ---- the closed round loop.
  Samples& round_ms = side.samples["round_ms"];
  Samples& commit_ms = side.samples["shard.commit_round_ms"];
  std::uint64_t committed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t mints = 0;
  const auto loop_start = Clock::now();
  for (std::size_t r = 0; r < trace.rounds.size(); ++r) {
    const scenario::TraceRound& round = trace.rounds[r];
    const std::uint64_t g = group(r + 1);
    side.samples["probe_us"].add(probe_us(kRoundProbeSteps));
    Tracer::Scope round_span(tr, n_round, g);
    const auto round_start = Clock::now();
    for (const ledger::Transaction& tx : round.txs) {
      Tracer::Scope span(tr, n_submit, g);
      if (!ledger.submit(tx).ok()) ++rejected;
    }
    const auto commit_start = Clock::now();
    std::optional<Result<ledger::BeaconHeader>> beacon;
    {
      Tracer::Scope span(tr, n_commit, g);
      beacon.emplace(ledger.commit_round(
          ctx.prepared.validators[r % ctx.prepared.validators.size()],
          static_cast<Tick>(r + 1)));
    }
    const auto round_end = Clock::now();
    round_ms.add(ms_between(round_start, round_end));
    commit_ms.add(ms_between(commit_start, round_end));
    if (!beacon->ok()) {
      out.refuse("round " + std::to_string(r) +
                 ": commit_round failed: " + beacon->error().to_string());
      return false;
    }
    std::size_t pending = 0;
    for (std::uint32_t s = 0; s < ledger.num_shards(); ++s) {
      pending += ledger.mempool(s).size();
    }
    out.attempted += round.txs.size();
    out.failed += pending;
    committed += round.txs.size() - std::min(round.txs.size(), pending);
    for (const ledger::Transaction& tx : round.txs) {
      if (tx.contract == ledger::kXShardContractName && tx.method == "mint") ++mints;
    }
    if (beacon->value().beacon_root != round.commitment_root) {
      out.refuse("round " + std::to_string(r) +
                 ": beacon root differs from the trace");
      return false;
    }
    // The whole iteration; commit_tps is taken over these.
    side.samples["iter_ms"].add(ms_between(round_start, Clock::now()));
  }
  side.loop_s += ms_between(loop_start, Clock::now()) / 1e3;
  side.committed += committed;
  side.rounds += trace.rounds.size();
  ++side.passes;

  // ---- program counters of this pass.
  auto& c = out.counters;
  c["mempool.rejected"] = static_cast<double>(rejected);
  out.failed += rejected;
  ledger::ValidationStats vs;
  std::uint64_t receipts = 0;
  for (std::uint32_t s = 0; s < ledger.num_shards(); ++s) {
    const ledger::ValidationStats& one = ledger.shard(s).validation_stats();
    vs.parallel_applies += one.parallel_applies;
    vs.serial_fallbacks += one.serial_fallbacks;
    vs.repairs += one.repairs;
    vs.sig_cache_hits += one.sig_cache_hits;
    vs.sig_cache_misses += one.sig_cache_misses;
    receipts += ledger.receipt_count(s);
  }
  count_validation(vs, out);
  c["shard.receipts"] = static_cast<double>(receipts);
  c["shard.cross_transfers"] = static_cast<double>(mints);
  if (queue) count_job_queue(queue->stats(), out);
  return true;
}

}  // namespace mvbench
