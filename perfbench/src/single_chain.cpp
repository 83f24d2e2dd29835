// Single-chain node passes: city_live and ledger_100k.
//
// One proposer (this thread) drives a closed loop: a round's transactions
// are admitted, selected, assembled into one block and appended; the next
// round starts only after that. Each call into the node is timed from
// outside with steady_clock and, in traced passes, wrapped in a span.
#include <memory>
#include <optional>

#include "common/job_queue.h"
#include "crypto/digest_lru.h"
#include "ledger/chain.h"
#include "ledger/mempool.h"
#include "ledger/snapshot_sync.h"
#include "ledger/subscription.h"
#include "net/network.h"
#include "net/subscription.h"
#include "scenario/scenario.h"
#include "workload.h"

namespace mvbench {

namespace {

using namespace mv;

// Streams of the node's own randomness (block signing, network jitter, query
// targets); none of them changes a state root.
constexpr std::uint64_t kSignSalt = 0x62656e63682e7331ULL;
constexpr std::uint64_t kNetSalt = 0x62656e63682e6e31ULL;
constexpr std::uint64_t kQuerySalt = 0x62656e63682e7131ULL;
/// Blocks between the snapshot height and the tip in snapshot catch-up:
/// the deepest height the default retention ring still exports.
constexpr std::int64_t kSnapshotSuffix = 8;
/// Replicas of the source serving the catch-up swarm.
constexpr std::size_t kServingPeers = 2;

struct SpanNames {
  explicit SpanNames(Tracer& t)
      : setup(t.intern("setup")),
        setup_env(t.intern("setup.env")),
        setup_chain(t.intern("setup.chain")),
        setup_subscribe(t.intern("setup.subscribe")),
        round(t.intern("round")),
        add(t.intern("mempool.add")),
        select(t.intern("mempool.select")),
        assemble(t.intern("chain.assemble")),
        append(t.intern("chain.append")),
        remove(t.intern("mempool.remove_included")),
        commitment(t.intern("chain.commitment_at")),
        accept(t.intern("light_client.accept_header")),
        prove(t.intern("chain.prove_account")),
        verify(t.intern("light_client.verify")),
        drain(t.intern("job_queue.drain")),
        deliver(t.intern("net.run_until_idle")),
        catchup_snapshot(t.intern("catchup.snapshot")),
        snapshot_export(t.intern("snapshot.export")),
        install(t.intern("snapshot.install")),
        suffix(t.intern("snapshot.suffix_import")),
        catchup_replay(t.intern("catchup.replay")),
        import(t.intern("replay.import")) {}
  std::uint32_t setup, setup_env, setup_chain, setup_subscribe, round, add,
      select, assemble, append, remove, commitment, accept, prove, verify,
      drain, deliver, catchup_snapshot, snapshot_export, install, suffix,
      catchup_replay, import;
};

std::string at_round(std::size_t r, const std::string& what) {
  return "round " + std::to_string(r) + ": " + what;
}

/// Snapshot catch-up of a fresh replica from kServingPeers serving replicas
/// of `source`, over a lossless simulated network. Returns false on a failed
/// check (recorded in out).
bool snapshot_catchup(const ledger::Blockchain& source,
                      const ledger::ChainConfig& config,
                      const std::shared_ptr<const ledger::ContractRegistry>& contracts,
                      const std::shared_ptr<const ledger::LedgerState>& genesis,
                      std::uint64_t seed, std::uint64_t group,
                      const SpanNames& n, Tracer& tr, Collector& out,
                      Collector::Side& side) {
  const std::int64_t snap_height = source.height() - 1 - kSnapshotSuffix;

  // Serving side: the peers pin one export and serve every chunk from it.
  ledger::SnapshotExportCache cache;
  const auto export_start = Clock::now();
  {
    Tracer::Scope span(tr, n.snapshot_export, group);
    if (cache.get_or_export(source, snap_height, ledger::kSnapshotChunkSize) ==
        nullptr) {
      out.refuse("snapshot export failed at height " + std::to_string(snap_height));
      return false;
    }
  }
  side.samples["snapshot.export_ms"].add(ms_between(export_start, Clock::now()));

  SimClock clock;
  net::Network network(clock, Rng(seed ^ kNetSalt), net::LinkParams{2.0, 0.0, 0.0});
  std::vector<std::unique_ptr<net::SnapshotServer>> servers;
  std::vector<NodeId> server_nodes;
  for (std::size_t i = 0; i < kServingPeers; ++i) {
    servers.push_back(std::make_unique<net::SnapshotServer>(
        network,
        ledger::make_snapshot_source(source, ledger::kSnapshotChunkSize, &cache)));
    net::SnapshotServer* server = servers.back().get();
    server_nodes.push_back(
        network.add_node([server](const net::Message& m) { server->handle(m); }));
    server->bind(server_nodes.back());
  }
  // The replica already follows the header chain; headers anchor the sync.
  ledger::LightClient lc(ledger::LightClientConfig{config.validators,
                                                   source.genesis_hash()});
  for (const ledger::Block& b : source.blocks()) {
    if (!lc.accept_header(b.header).ok()) {
      out.refuse("catch-up light client rejected a source header");
      return false;
    }
  }
  ledger::Blockchain replica(config, contracts, genesis);
  ledger::SnapshotCatchup catchup(network, replica, lc);
  double install_ms = 0.0;
  double suffix_ms = 0.0;
  const NodeId self = network.add_node([&](const net::Message& m) {
    const std::int64_t height_before = replica.height();
    const bool blocks = m.topic == net::kSnapshotBlocksResp;
    const auto t0 = Clock::now();
    catchup.handle(m);
    const auto t1 = Clock::now();
    // The delivery that moved the replica off genesis installed the
    // snapshot; the block-suffix delivery imported the suffix.
    if (blocks) {
      suffix_ms += ms_between(t0, t1);
      tr.record(n.suffix, group, t0, t1);
    } else if (replica.height() != height_before) {
      install_ms += ms_between(t0, t1);
      tr.record(n.install, group, t0, t1);
    }
  });
  catchup.bind(self);

  const auto start = Clock::now();
  Tick ticks = 0;
  {
    Tracer::Scope span(tr, n.catchup_snapshot, group);
    if (!catchup.start(server_nodes, snap_height).ok()) {
      out.refuse("snapshot catch-up did not start");
      return false;
    }
    while (!catchup.done() && !catchup.failed() && ticks < 100'000) {
      clock.advance(1);
      network.step();
      catchup.tick();
      ++ticks;
    }
  }
  ++out.attempted;
  if (!catchup.done() || replica.tip_hash() != source.tip_hash()) {
    ++out.failed;
    out.refuse("snapshot catch-up replica did not reach the source tip");
    return false;
  }
  const double total_ms = ms_between(start, Clock::now());
  side.samples["catchup_snapshot_ms"].add(total_ms);
  side.samples["snapshot.install_ms"].add(install_ms);
  side.samples["snapshot.suffix_import_ms"].add(suffix_ms);
  side.samples["snapshot.transfer_ms"].add(total_ms - install_ms - suffix_ms);
  out.counters["snapshot.transfer_ticks"] = static_cast<double>(ticks);
  out.counters["snapshot.chunks"] = static_cast<double>(catchup.chunks_received());
  out.counters["snapshot.retries"] =
      static_cast<double>(network.stats().snapshot_retries);
  return true;
}

/// Full-replay catch-up: a fresh replica imports and re-validates every block.
bool replay_catchup(const ledger::Blockchain& source,
                    const ledger::ChainConfig& config,
                    const std::shared_ptr<const ledger::ContractRegistry>& contracts,
                    const std::shared_ptr<const ledger::LedgerState>& genesis,
                    std::uint64_t group, const SpanNames& n, Tracer& tr,
                    Collector& out, Collector::Side& side) {
  const Bytes history = source.export_blocks();
  ledger::Blockchain replica(config, contracts, genesis);
  const auto start = Clock::now();
  double import_ms = 0.0;
  {
    Tracer::Scope span(tr, n.catchup_replay, group);
    Tracer::Scope import_span(tr, n.import, group);
    const auto imported = replica.import_blocks(history);
    import_ms = ms_between(start, Clock::now());
    ++out.attempted;
    if (!imported.ok() || replica.tip_hash() != source.tip_hash()) {
      ++out.failed;
      out.refuse("replay catch-up replica did not reach the source tip");
      return false;
    }
  }
  side.samples["catchup_replay_ms"].add(ms_between(start, Clock::now()));
  side.samples["replay.import_ms"].add(import_ms);
  return true;
}

}  // namespace

Result<Prepared> prepare_single_chain(const scenario::Trace& trace) {
  // Derives, and memoizes per seed, the wallet stream the trace was signed
  // with; every pass's build_env then copies it.
  auto env = scenario::build_env(trace.header);
  if (!env.ok()) return env.error();
  return Prepared{};
}

bool run_single_chain_pass(const PassContext& ctx) {
  const scenario::Trace& trace = ctx.trace;
  const NodeShape& shape = ctx.workload.node;
  Tracer& tr = ctx.tracer;
  Collector& out = ctx.out;
  Collector::Side& side = out.side(tr.enabled());
  const SpanNames n(tr);
  const auto group = [&](std::uint64_t i) { return (ctx.pass << 32) | i; };
  const std::size_t rounds = trace.rounds.size();

  // ---- set-up: env + genesis, chain construction, subscriber registration.
  const auto setup_start = Clock::now();
  const std::int32_t setup_span = tr.open(n.setup, group(0));
  std::optional<scenario::ScenarioEnv> env;
  {
    Tracer::Scope span(tr, n.setup_env, group(0));
    auto built = scenario::build_env(trace.header);
    if (!built.ok()) {
      out.refuse("build_env: " + built.error().to_string());
      return false;
    }
    env.emplace(std::move(built).value());
    if (env->genesis.commitment().root != trace.header.genesis_root) {
      out.refuse("derived genesis root differs from the trace");
      return false;
    }
  }
  const auto chain_start = Clock::now();
  std::optional<Tracer::Scope> chain_span;
  chain_span.emplace(tr, n.setup_chain, group(0));
  std::shared_ptr<JobQueue> queue;
  if (shape.queue_workers > 0) {
    JobQueueConfig qc;
    qc.threads = shape.queue_workers;
    queue = std::make_shared<JobQueue>(qc);
  }
  auto sig_cache = std::make_shared<crypto::DigestLruSet>();
  ledger::ChainConfig cc;
  cc.validators = env->validator_keys();
  cc.max_txs_per_block = trace.header.max_txs_per_block;
  cc.validation.sig_cache = sig_cache;
  cc.validation.job_queue = queue;
  const std::shared_ptr<const ledger::ContractRegistry> contracts = env->contracts;
  const auto genesis =
      std::make_shared<const ledger::LedgerState>(std::move(env->genesis));
  ledger::Blockchain chain(cc, contracts, genesis);
  ledger::MempoolConfig mc;
  mc.sig_cache = sig_cache;
  ledger::Mempool pool(mc);
  SimClock clock;
  net::Network network(clock, Rng(trace.header.seed ^ kNetSalt));
  // The bench's own light client verifies every proof query.
  ledger::LightClient lc(
      ledger::LightClientConfig{cc.validators, chain.genesis_hash()});
  chain_span.reset();

  const auto subscribe_start = Clock::now();
  std::vector<Clock::time_point> appended(rounds);
  std::unique_ptr<net::SubscriptionServer> server;
  std::unique_ptr<ledger::SubscriptionPublisher> publisher;
  std::vector<std::unique_ptr<ledger::SubscriptionFeed>> feeds;
  Samples& push_ms = side.samples["push_ms"];
  if (shape.subscribers > 0) {
    Tracer::Scope span(tr, n.setup_subscribe, group(0));
    server = std::make_unique<net::SubscriptionServer>(
        network, net::SubscriptionConfig{}, queue.get());
    net::SubscriptionServer* sp = server.get();
    const NodeId server_node =
        network.add_node([sp](const net::Message& m) { sp->handle(m); });
    server->bind(server_node);
    publisher = std::make_unique<ledger::SubscriptionPublisher>(chain, *server);
    const std::size_t count = std::min(shape.subscribers, env->avatars.size());
    for (std::size_t i = 0; i < count; ++i) {
      ledger::SubscriptionFeedConfig fc;
      fc.light_client = ledger::LightClientConfig{cc.validators, chain.genesis_hash()};
      fc.accounts = {env->avatars[i].address()};
      auto feed = std::make_unique<ledger::SubscriptionFeed>(network, fc);
      feed->on_header = [&](const ledger::BlockHeader& h) {
        push_ms.add(ms_between(appended[static_cast<std::size_t>(h.height)],
                               Clock::now()));
      };
      ledger::SubscriptionFeed* fp = feed.get();
      const NodeId node =
          network.add_node([fp](const net::Message& m) { fp->handle(m); });
      feed->bind(node);
      feed->subscribe(server_node);
      feeds.push_back(std::move(feed));
    }
    network.run_until_idle();
  }
  // Queued fan-out jobs reference the server and feeds: on every exit path
  // they finish before those are destroyed.
  const struct DrainOnExit {
    JobQueue* queue;
    ~DrainOnExit() {
      if (queue != nullptr) queue->drain();
    }
  } drain_on_exit{queue.get()};
  tr.close(setup_span);
  const auto setup_end = Clock::now();
  side.samples["setup_s"].add(ms_between(setup_start, setup_end) / 1e3);
  side.samples["setup.env_ms"].add(ms_between(setup_start, chain_start));
  side.samples["setup.chain_ms"].add(ms_between(chain_start, subscribe_start));
  side.samples["setup.subscribe_ms"].add(ms_between(subscribe_start, setup_end));

  // ---- the closed round loop.
  Rng sign_rng(trace.header.seed ^ kSignSalt);
  Rng query_rng(trace.header.seed ^ kQuerySalt);
  Samples& round_ms = side.samples["round_ms"];
  Samples& query_us = side.samples["query_us"];
  std::uint64_t adds = 0;
  std::uint64_t rejected = 0;
  std::uint64_t committed = 0;
  std::uint64_t queries_shed = 0;
  const auto loop_start = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    const scenario::TraceRound& round = trace.rounds[r];
    const std::uint64_t g = group(r + 1);
    const auto height = static_cast<std::int64_t>(r);
    side.samples["probe_us"].add(probe_us(kRoundProbeSteps));
    Tracer::Scope round_span(tr, n.round, g);
    const auto round_start = Clock::now();
    for (const ledger::Transaction& tx : round.txs) {
      Tracer::Scope span(tr, n.add, g);
      ++adds;
      if (!pool.add(tx, chain.state(), static_cast<Tick>(r)).ok()) ++rejected;
    }
    std::vector<ledger::Transaction> selected;
    {
      Tracer::Scope span(tr, n.select, g);
      selected = pool.select(trace.header.max_txs_per_block, chain.state());
    }
    ledger::Block block;
    {
      Tracer::Scope span(tr, n.assemble, g);
      block = chain.assemble(env->validators[r % env->validators.size()],
                             selected, static_cast<Tick>(r), sign_rng);
    }
    Status appended_ok;
    {
      Tracer::Scope span(tr, n.append, g);
      appended_ok = chain.append(block);
    }
    appended[r] = Clock::now();
    if (!appended_ok.ok()) {
      out.refuse(at_round(r, "append failed: " + appended_ok.error().to_string()));
      return false;
    }
    {
      Tracer::Scope span(tr, n.remove, g);
      pool.remove_included(block.txs);
    }
    const ledger::StateCommitment* commitment = nullptr;
    {
      Tracer::Scope span(tr, n.commitment, g);
      commitment = chain.commitment_at(height);
    }
    round_ms.add(ms_between(round_start, Clock::now()));
    committed += block.txs.size();
    out.attempted += round.txs.size();
    out.failed += round.txs.size() - std::min(round.txs.size(), block.txs.size());
    if (commitment == nullptr || commitment->root != round.commitment_root) {
      out.refuse(at_round(r, "commitment root differs from the trace"));
      return false;
    }

    if (shape.queries_per_round > 0) {
      {
        Tracer::Scope span(tr, n.accept, g);
        if (!lc.accept_header(block.header).ok()) {
          out.refuse(at_round(r, "light client rejected the committed header"));
          return false;
        }
      }
      for (std::size_t q = 0; q < shape.queries_per_round; ++q) {
        const crypto::Address addr =
            env->avatars[query_rng.next_below(env->avatars.size())].address();
        ++out.attempted;
        const auto q_start = Clock::now();
        std::optional<Result<ledger::AccountProof>> proof;
        {
          Tracer::Scope span(tr, n.prove, g);
          proof.emplace(chain.prove_account(addr, height));
        }
        if (!proof->ok()) {
          ++out.failed;
          if (proof->error().code == "chain.overloaded") ++queries_shed;
          continue;
        }
        bool verified = false;
        {
          Tracer::Scope span(tr, n.verify, g);
          verified = lc.verify_account(proof->value()).ok();
        }
        if (!verified) {
          out.refuse(at_round(r, "served account proof failed verification"));
          return false;
        }
        query_us.add(ms_between(q_start, Clock::now()) * 1e3);
      }
    }
    if (queue) {
      Tracer::Scope span(tr, n.drain, g);
      queue->drain();
    }
    if (server) {
      Tracer::Scope span(tr, n.deliver, g);
      network.run_until_idle();
    }
    clock.advance();
    // The whole iteration; commit_tps is taken over these.
    side.samples["iter_ms"].add(ms_between(round_start, Clock::now()));
  }
  side.loop_s += ms_between(loop_start, Clock::now()) / 1e3;
  side.committed += committed;
  side.rounds += rounds;
  ++side.passes;

  // ---- end-of-pass checks and program counters.
  if (queue) queue->drain();
  if (server) network.run_until_idle();
  std::uint64_t consumed = 0;
  std::uint64_t gaps = 0;
  for (const auto& feed : feeds) {
    // A feed that did not verify every height lost pushes: counted, not hidden.
    const auto heights = static_cast<std::uint64_t>(chain.height());
    const auto verified = static_cast<std::uint64_t>(feed->next_height());
    out.attempted += heights;
    out.failed += heights - std::min(heights, verified) + feed->rejected();
    consumed += feed->pushes_consumed();
    gaps += feed->gaps_detected();
  }
  auto& c = out.counters;
  c["mempool.add_count"] = static_cast<double>(adds);
  // A rejected admission is already counted in `failed`: its tx is missing
  // from the round's block.
  c["mempool.rejected"] = static_cast<double>(rejected);
  c["chain.queries_shed"] = static_cast<double>(queries_shed);
  count_validation(chain.validation_stats(), out);
  if (queue) count_job_queue(queue->stats(), out);
  if (server) {
    const net::SubscriptionStats ss = server->stats();
    c["subscription.pushes_sent"] = static_cast<double>(ss.pushes_sent);
    c["subscription.commits_shed"] = static_cast<double>(ss.commits_shed);
    c["subscription.evicted_slow"] = static_cast<double>(ss.evicted_slow);
    c["feed.pushes_consumed"] = static_cast<double>(consumed);
    c["feed.gaps_detected"] = static_cast<double>(gaps);
  }

  // ---- catch-up of fresh replicas to the committed history.
  if (shape.catchup) {
    ledger::ChainConfig replica_config = cc;
    replica_config.validation.job_queue = nullptr;
    replica_config.validation.sig_cache = nullptr;
    if (!snapshot_catchup(chain, replica_config, contracts, genesis,
                          trace.header.seed, group(rounds + 1), n, tr, out, side) ||
        !replay_catchup(chain, replica_config, contracts, genesis,
                        group(rounds + 2), n, tr, out, side)) {
      return false;
    }
  }
  return true;
}

}  // namespace mvbench
