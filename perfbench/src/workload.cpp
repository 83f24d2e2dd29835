#include "workload.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "scenario/harness.h"
#include "scenario/shard_harness.h"

namespace mvbench {

using mv::scenario::Trace;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> w;

    // Every layer at once: parallel execution on a shared 4-worker queue,
    // commit fan-out to push-fed light clients, and proof reads.
    Workload city;
    city.name = "city_live";
    city.mix = "mixed_city";
    city.avatars = 10'000;
    city.rounds = 200;
    city.txs_per_round = 256;
    city.node.queue_workers = 4;
    city.node.subscribers = 64;
    city.node.queries_per_round = 64;
    w.push_back(city);

    // Inline node over a 10x larger state: the parallel engine, the queue and
    // the read path do no work; catch-up of two fresh replicas does.
    Workload ledger;
    ledger.name = "ledger_100k";
    ledger.mix = "market_rush";
    ledger.avatars = 100'000;
    ledger.rounds = 200;
    ledger.txs_per_round = 256;
    ledger.node.catchup = true;
    w.push_back(ledger);

    // Four shards fanned out on a shared 4-worker queue, beacon-sealed per
    // round, with lock -> mint receipt traffic between worlds.
    Workload multi;
    multi.name = "multi_world";
    multi.kind = Kind::kMultiWorld;
    multi.avatars = 4'096;
    multi.rounds = 200;
    multi.shards = 4;
    multi.intra_per_round = 512;
    multi.cross_per_round = 64;
    multi.node.queue_workers = 4;
    w.push_back(multi);
    return w;
  }();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

constexpr std::uint32_t kValidators = 4;
/// Per-shard block cap on multi_world; above any one shard's round traffic,
/// so every round commits whole.
constexpr std::uint32_t kShardBlockCap = 1024;

mv::scenario::ScenarioConfig city_config(const Workload& w, std::uint64_t seed) {
  mv::scenario::ScenarioConfig c;
  c.mix = w.mix;
  c.seed = seed;
  c.avatars = w.avatars;
  c.validators = kValidators;
  c.rounds = w.rounds;
  c.txs_per_round = w.txs_per_round;
  c.max_txs_per_block = w.txs_per_round;
  return c;
}

mv::scenario::MultiWorldConfig world_config(const Workload& w,
                                            std::uint64_t seed) {
  mv::scenario::MultiWorldConfig c;
  c.num_shards = w.shards;
  c.seed = seed;
  c.avatars = w.avatars;
  c.validators = kValidators;
  c.rounds = w.rounds;
  c.intra_per_round = w.intra_per_round;
  c.cross_per_round = w.cross_per_round;
  c.max_txs_per_block = kShardBlockCap;
  return c;
}

}  // namespace

mv::Result<Trace> generate_trace(const Workload& w, std::uint64_t seed) {
  if (w.kind == Kind::kMultiWorld) {
    mv::scenario::MultiWorldOptions opts;
    opts.check_invariants = false;
    auto rec = mv::scenario::record_multi_world(world_config(w, seed), opts);
    if (!rec.ok()) return rec.error();
    return std::move(rec).value().trace;
  }
  auto rec = mv::scenario::record(city_config(w, seed));
  if (!rec.ok()) return rec.error();
  return std::move(rec).value().trace;
}

mv::Status check_trace_shape(const Workload& w, std::uint64_t seed,
                             const Trace& trace) {
  const mv::scenario::TraceHeader& h = trace.header;
  const std::string scenario =
      w.kind == Kind::kMultiWorld
          ? mv::scenario::kMultiWorldPrefix + std::to_string(w.shards)
          : w.mix;
  const std::uint32_t block_cap =
      w.kind == Kind::kMultiWorld ? kShardBlockCap : w.txs_per_round;
  if (h.scenario != scenario || h.seed != seed || h.avatars != w.avatars ||
      h.validators != kValidators || h.max_txs_per_block != block_cap ||
      trace.rounds.size() != w.rounds) {
    return mv::make_error("bench.trace_shape",
                          "trace does not match workload " + w.name +
                              " seed " + std::to_string(seed));
  }
  return mv::Status{};
}

double probe_us(std::uint64_t steps) {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < steps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    asm volatile("" : "+r"(x));  // keeps every step, and keeps it between the clock reads
  }
  return ms_between(start, Clock::now()) * 1e3;
}

double Samples::sum() const {
  return std::accumulate(v_.begin(), v_.end(), 0.0);
}

double Samples::percentile(double p) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (rank - static_cast<double>(lo));
}

void count_validation(const mv::ledger::ValidationStats& vs, Collector& out) {
  const auto checks = static_cast<double>(vs.sig_cache_hits + vs.sig_cache_misses);
  out.counters["validation.sig_cache_hit_ratio"] =
      checks > 0 ? static_cast<double>(vs.sig_cache_hits) / checks : 0.0;
  out.counters["validation.parallel_applies"] = static_cast<double>(vs.parallel_applies);
  out.counters["validation.serial_fallbacks"] = static_cast<double>(vs.serial_fallbacks);
  out.counters["validation.repairs"] = static_cast<double>(vs.repairs);
}

void count_job_queue(const mv::JobQueueStats& qs, Collector& out) {
  // Only admission counts: the per-class "wait" stamps a whole run_batch with
  // one enqueue time, so it is not exported (see README.md).
  for (const mv::JobClass cls : {mv::JobClass::kConsensus, mv::JobClass::kValidation,
                                 mv::JobClass::kClientQuery}) {
    const mv::JobClassStats& cs = qs.of(cls);
    const std::string prefix = std::string("job_queue.") + cs.name;
    out.counters[prefix + ".submitted"] = static_cast<double>(cs.submitted);
    out.counters[prefix + ".shed"] = static_cast<double>(cs.shed());
  }
}

mv::Result<Prepared> prepare(const Workload& w, const Trace& trace) {
  return w.kind == Kind::kMultiWorld ? prepare_multi_world(trace)
                                     : prepare_single_chain(trace);
}

bool run_pass(const PassContext& ctx) {
  return ctx.workload.kind == Kind::kMultiWorld ? run_multi_world_pass(ctx)
                                                : run_single_chain_pass(ctx);
}

}  // namespace mvbench
