// Workload catalogue, trace generation, and the per-run sample collector.
//
// A workload is a seeded scenario trace plus the shape of the node that
// replays it. The trace is generated (and signed) before any clock starts,
// by a separate `mvbench gen` process, and cached as an "mv.trace.v1" file;
// the measuring process only ever decodes it. Every timed pass builds a
// fresh node from the trace header and replays every round through the
// node's public API.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/job_queue.h"
#include "crypto/wallet.h"
#include "ledger/parallel.h"
#include "scenario/trace.h"
#include "tracer.h"

namespace mvbench {

enum class Kind { kSingleChain, kMultiWorld };

/// Node shape of a workload. None of it is part of the trace.
struct NodeShape {
  /// Workers of the node's shared JobQueue; 0 = inline node, no queue at all.
  std::size_t queue_workers = 0;
  std::size_t subscribers = 0;        ///< push-fed SubscriptionFeeds
  std::size_t queries_per_round = 0;  ///< prove_account + light-client verify
  bool catchup = false;  ///< snapshot and replay catch-up after the history
};

struct Workload {
  std::string name;
  Kind kind = Kind::kSingleChain;
  std::string mix;             ///< scenario mix (single chain)
  std::uint64_t avatars = 0;
  std::uint32_t rounds = 0;
  std::uint32_t txs_per_round = 0;  ///< single chain: the block size
  std::size_t shards = 0;           ///< multi world
  std::uint32_t intra_per_round = 0;
  std::uint32_t cross_per_round = 0;
  NodeShape node;
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// Generate the workload's trace for `seed` (records it through an inline
/// node; the recording's own timings are discarded).
[[nodiscard]] mv::Result<mv::scenario::Trace> generate_trace(const Workload& w,
                                                             std::uint64_t seed);

/// The decoded trace must be the one this workload and seed describe.
[[nodiscard]] mv::Status check_trace_shape(const Workload& w, std::uint64_t seed,
                                           const mv::scenario::Trace& trace);

/// Microseconds this core takes for `steps` xorshift steps. The loop touches
/// no memory and no node code, so its speed follows the core's clock, which
/// the shared host moves by a fifth or more over minutes (see README.md).
[[nodiscard]] double probe_us(std::uint64_t steps);
/// The probe taken before every round: about 35 us, outside every timing.
inline constexpr std::uint64_t kRoundProbeSteps = 16'384;

/// Raw samples with linearly interpolated percentiles.
class Samples {
 public:
  void add(double x) { v_.push_back(x); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  /// The samples added after the first `from`; at most `count` of them.
  [[nodiscard]] Samples since(std::size_t from, std::size_t count = SIZE_MAX) const {
    from = std::min(from, v_.size());
    count = std::min(count, v_.size() - from);
    Samples s;
    s.v_.assign(v_.begin() + static_cast<std::ptrdiff_t>(from),
                v_.begin() + static_cast<std::ptrdiff_t>(from + count));
    return s;
  }
  [[nodiscard]] const std::vector<double>& values() const { return v_; }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const { return v_.empty() ? 0.0 : sum() / v_.size(); }
  /// p in [0, 100]; 0 when empty.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

 private:
  std::vector<double> v_;
};

/// What the passes of one run accumulate. Samples are kept apart for traced
/// and untraced passes so latencies are taken from untraced passes and the
/// tracing overhead can be priced within the run.
struct Collector {
  struct Side {
    std::map<std::string, Samples> samples;
    double loop_s = 0.0;          ///< wall seconds inside round loops
    std::uint64_t committed = 0;  ///< txs committed inside them
    std::uint64_t rounds = 0;
    std::uint64_t passes = 0;
  };
  Side untraced;
  Side traced;
  /// Program counters of the latest traced pass, per pass (one replay).
  std::map<std::string, double> counters;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;  ///< first failed correctness check; empty = correct

  [[nodiscard]] Side& side(bool tracing) { return tracing ? traced : untraced; }
  void refuse(std::string why) {
    if (error.empty()) error = std::move(why);
  }
};

/// Inputs prepared once per run, outside every clock. Key material belongs
/// to the users who sign the trace, not to the node, so deriving it is input
/// generation: for a single chain prepare() warms the program's per-seed
/// wallet memo, for multi world it holds the derived wallets.
struct Prepared {
  std::vector<mv::crypto::Wallet> validators;
  std::vector<mv::crypto::Wallet> avatars;
};

/// Everything a pass needs; `prepared` comes from prepare().
struct PassContext {
  const Workload& workload;
  const mv::scenario::Trace& trace;
  const Prepared& prepared;
  Tracer& tracer;
  Collector& out;
  std::uint64_t pass = 0;
};

/// Export the program's validation and queue counters of one pass.
void count_validation(const mv::ledger::ValidationStats& vs, Collector& out);
void count_job_queue(const mv::JobQueueStats& qs, Collector& out);

/// Per-run input preparation (outside the set-up clock).
[[nodiscard]] mv::Result<Prepared> prepare(const Workload& w,
                                           const mv::scenario::Trace& trace);

/// One pass: fresh node, every round of the trace, then (ledger_100k) the
/// catch-up replicas. False when a correctness check failed (out.error).
bool run_pass(const PassContext& ctx);

// Implemented per node kind.
[[nodiscard]] mv::Result<Prepared> prepare_single_chain(
    const mv::scenario::Trace& trace);
[[nodiscard]] mv::Result<Prepared> prepare_multi_world(
    const mv::scenario::Trace& trace);
bool run_single_chain_pass(const PassContext& ctx);
bool run_multi_world_pass(const PassContext& ctx);

}  // namespace mvbench
