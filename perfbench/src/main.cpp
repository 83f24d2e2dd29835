// mvbench: the repository benchmark (see ../README.md).
//
//   mvbench gen      --workload W --seed N --out FILE
//       Generate and sign the workload's trace for seed N and write it as a
//       checksummed "mv.trace.v1" file. Runs in its own process, so neither
//       its time nor its memory reaches the measurement.
//   mvbench run      --workload W --seed N --seconds S --trace 0|1
//                    --trace-file FILE [--spans-out FILE] [--commit ID]
//       Decode the trace and replay it through fresh nodes, pass after pass,
//       until S seconds have passed. --trace 0 reports the end-to-end
//       metrics; --trace 1 records spans and reports the per-layer metrics.
//       The last stdout line is the JSON result. Exit status 1 when a
//       correctness check fails; then no metric is reported.
//   mvbench selftest
//       Shows that the correctness gate refuses an altered root and that a
//       round's child spans plus its self time add up to the round span.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "scenario/trace.h"
#include "tracer.h"
#include "workload.h"

namespace mvbench {
namespace {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// ------------------------------------------------------------ command line

struct Args {
  std::string mode;
  std::map<std::string, std::string> flags;

  [[nodiscard]] bool has(const std::string& k) const { return flags.contains(k); }
  [[nodiscard]] std::string get(const std::string& k,
                                const std::string& fallback = "") const {
    const auto it = flags.find(k);
    return it == flags.end() ? fallback : it->second;
  }
};

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return false;
    args.flags[key.substr(2)] = argv[i + 1];
  }
  return true;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

// ------------------------------------------------------------------ memory

/// A "VmRSS:"-style field of /proc/self/status, in KiB (0 if unreadable).
double status_kib(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr);
    }
  }
  return 0.0;
}

/// Speed of this machine right now: xorshift steps per microsecond over
/// about 90 ms. Printed at the start and end of a run.
double machine_speed() {
  constexpr std::uint64_t kSteps = 40'000'000;
  return static_cast<double>(kSteps) / probe_us(kSteps);
}

// ----------------------------------------------------------------- metrics

double span_percentile(const Tracer& tr, const std::string& name, double p,
                       double scale) {
  Samples s;
  for (const Span& span : tr.spans()) {
    if (tr.names()[span.name] == name) s.add(ms_between(span.start, span.end) * scale);
  }
  return s.percentile(p);
}

/// The samples the untraced passes took, or the traced ones when a run had
/// no untraced pass.
const Samples& latency(const Collector& c, const std::string& name) {
  static const Samples kEmpty;
  for (const Collector::Side* side : {&c.untraced, &c.traced}) {
    const auto it = side->samples.find(name);
    if (it != side->samples.end() && it->second.size() > 0) return it->second;
  }
  return kEmpty;
}

/// The probe speed that timings are scaled to, in steps per microsecond:
/// about the middle of the reference box's range (see README.md).
constexpr double kReferenceSpeed = 450.0;

/// Probe speed of one pass: the median over its rounds' probes, so probes
/// that lost the core for a while do not count.
double pass_speed(const Samples& probes) {
  Samples speed;
  for (const double us : probes.values()) {
    speed.add(static_cast<double>(kRoundProbeSteps) / us);
  }
  return speed.median();
}

/// Per pass of one side: its probe speed divided by kReferenceSpeed. A time
/// multiplied by it is the time the pass would have taken on a core running
/// the probe at the reference speed.
std::vector<double> pass_scale(const Collector::Side& side) {
  std::vector<double> scale;
  const auto it = side.samples.find("probe_us");
  if (it == side.samples.end() || side.passes == 0) return scale;
  const std::size_t rounds = it->second.size() / side.passes;
  for (std::size_t p = 0; p < side.passes; ++p) {
    scale.push_back(pass_speed(it->second.since(p * rounds, rounds)) / kReferenceSpeed);
  }
  return scale;
}

/// Each round's fastest time over one side's passes; `name` holds one sample
/// per round, pass after pass. With `scaled`, each pass's times are first
/// scaled to the reference speed. A round does the same work in every pass,
/// so its fastest time is the program's own cost: a busy shared host only
/// ever adds to it, and within one run it can slow a stretch of rounds by
/// three quarters (see README.md).
Samples fastest_per_round(const Collector::Side& side, const std::string& name,
                          bool scaled = true) {
  Samples best;
  const auto it = side.samples.find(name);
  if (it == side.samples.end() || side.passes == 0) return best;
  const std::vector<double>& v = it->second.values();
  const std::size_t rounds = v.size() / side.passes;
  std::vector<double> scale = scaled ? pass_scale(side) : std::vector<double>{};
  scale.resize(side.passes, 1.0);
  for (std::size_t r = 0; r < rounds; ++r) {
    double fastest = v[r] * scale[0];
    for (std::size_t p = 1; p < side.passes; ++p) {
      fastest = std::min(fastest, v[p * rounds + r] * scale[p]);
    }
    best.add(fastest);
  }
  return best;
}

/// Committed txs of one pass per second of its round loop, with every loop
/// iteration taken at its fastest over the side's passes.
double tps(const Collector::Side& side, bool scaled = true) {
  const double loop_ms = fastest_per_round(side, "iter_ms", scaled).sum();
  return loop_ms > 0.0 ? static_cast<double>(side.committed) /
                             static_cast<double>(side.passes) / (loop_ms / 1e3)
                       : 0.0;
}

/// Median over one side's passes of a once-per-pass time, each scaled to the
/// reference speed by its own pass.
double scaled_median(const Collector::Side& side, const std::string& name) {
  Samples scaled;
  const auto it = side.samples.find(name);
  if (it == side.samples.end()) return 0.0;
  const std::vector<double> scale = pass_scale(side);
  for (std::size_t p = 0; p < it->second.size() && p < scale.size(); ++p) {
    scaled.add(it->second.values()[p] * scale[p]);
  }
  return scaled.median();
}

/// The side that gives the workload-level figures: untraced passes, or the
/// traced ones when a run had no untraced pass.
const Collector::Side& measured(const Collector& c) {
  return c.untraced.passes > 0 ? c.untraced : c.traced;
}

std::vector<Metric> end_to_end(const Collector& c, double peak_rss_mb) {
  return {
      {"commit_tps", "tx/s", tps(measured(c))},
      {"round_ms_p50", "ms", fastest_per_round(measured(c), "round_ms").percentile(50)},
      {"setup_s", "s", scaled_median(measured(c), "setup_s")},
      {"peak_rss_mb", "MB", peak_rss_mb},
  };
}

std::vector<Metric> per_layer(const Collector& c, const Tracer& tr) {
  std::map<std::string, double> span_total;
  for (const LayerRow& row : tr.layer_rows()) span_total[row.name] = row.total_ms;
  const double rounds = c.traced.rounds > 0 ? static_cast<double>(c.traced.rounds) : 1.0;
  const auto per_round = [&](const std::string& span) {
    return span_total[span] / rounds;
  };
  const auto counter = [&](const std::string& name) {
    const auto it = c.counters.find(name);
    return it == c.counters.end() ? 0.0 : it->second;
  };
  const auto traced_mean = [&](const std::string& name) {
    const auto it = c.traced.samples.find(name);
    return it == c.traced.samples.end() ? 0.0 : it->second.mean();
  };
  double round_self = 0.0;
  {
    const std::vector<double> self = tr.self_ms();
    for (std::size_t i = 0; i < tr.spans().size(); ++i) {
      if (tr.names()[tr.spans()[i].name] == "round") round_self += self[i];
    }
  }
  const double traced_tps = tps(c.traced);
  const double untraced_tps = tps(c.untraced);
  const double attempted = static_cast<double>(c.attempted);

  std::vector<Metric> m = {
      // ledger: mempool
      {"mempool.add_ms", "ms/round", per_round("mempool.add")},
      {"mempool.add_count", "count", counter("mempool.add_count")},
      {"mempool.rejected", "count", counter("mempool.rejected")},
      {"mempool.select_ms", "ms/round", per_round("mempool.select")},
      {"mempool.remove_ms", "ms/round", per_round("mempool.remove_included")},
      // ledger: chain execute + commitment
      {"chain.assemble_ms", "ms/round", per_round("chain.assemble")},
      {"chain.append_ms", "ms/round", per_round("chain.append")},
      {"chain.assemble_ms_p50", "ms", span_percentile(tr, "chain.assemble", 50, 1.0)},
      {"chain.append_ms_p50", "ms", span_percentile(tr, "chain.append", 50, 1.0)},
      {"validation.sig_cache_hit_ratio", "ratio", counter("validation.sig_cache_hit_ratio")},
      {"validation.parallel_applies", "count", counter("validation.parallel_applies")},
      {"validation.serial_fallbacks", "count", counter("validation.serial_fallbacks")},
      {"validation.repairs", "count", counter("validation.repairs")},
      // common: job queue
      {"job_queue.drain_ms", "ms/round", per_round("job_queue.drain")},
      {"job_queue.consensus.submitted", "count", counter("job_queue.consensus.submitted")},
      {"job_queue.consensus.shed", "count", counter("job_queue.consensus.shed")},
      {"job_queue.validation.submitted", "count", counter("job_queue.validation.submitted")},
      {"job_queue.validation.shed", "count", counter("job_queue.validation.shed")},
      {"job_queue.client_query.submitted", "count",
       counter("job_queue.client_query.submitted")},
      {"job_queue.client_query.shed", "count", counter("job_queue.client_query.shed")},
      // ledger/net: subscription fan-out and delivery
      {"net.deliver_ms", "ms/round", per_round("net.run_until_idle")},
      {"subscription.pushes_sent", "count", counter("subscription.pushes_sent")},
      {"subscription.commits_shed", "count", counter("subscription.commits_shed")},
      {"subscription.evicted_slow", "count", counter("subscription.evicted_slow")},
      {"feed.pushes_consumed", "count", counter("feed.pushes_consumed")},
      {"feed.gaps_detected", "count", counter("feed.gaps_detected")},
      {"push_ms_p50", "ms", latency(c, "push_ms").percentile(50)},
      {"push_ms_p99", "ms", latency(c, "push_ms").percentile(99)},
      // ledger: proofs + light client
      {"chain.prove_account_us_p50", "us", span_percentile(tr, "chain.prove_account", 50, 1e3)},
      {"chain.prove_account_us_p99", "us", span_percentile(tr, "chain.prove_account", 99, 1e3)},
      {"light_client.verify_us_p50", "us", span_percentile(tr, "light_client.verify", 50, 1e3)},
      {"query_us_p50", "us", latency(c, "query_us").percentile(50)},
      {"query_us_p99", "us", latency(c, "query_us").percentile(99)},
      {"chain.queries_shed", "count", counter("chain.queries_shed")},
      // ledger snapshot/snapshot_sync + net snapshot_transfer
      {"snapshot.export_ms", "ms", traced_mean("snapshot.export_ms")},
      {"snapshot.transfer_ms", "ms", traced_mean("snapshot.transfer_ms")},
      {"snapshot.transfer_ticks", "ticks", counter("snapshot.transfer_ticks")},
      {"snapshot.install_ms", "ms", traced_mean("snapshot.install_ms")},
      {"snapshot.suffix_import_ms", "ms", traced_mean("snapshot.suffix_import_ms")},
      {"snapshot.chunks", "count", counter("snapshot.chunks")},
      {"snapshot.retries", "count", counter("snapshot.retries")},
      {"catchup_snapshot_ms", "ms", latency(c, "catchup_snapshot_ms").median()},
      // ledger: chain import
      {"replay.import_ms", "ms", traced_mean("replay.import_ms")},
      {"catchup_replay_ms", "ms", latency(c, "catchup_replay_ms").median()},
      // ledger: shard + beacon
      {"shard.submit_ms", "ms/round", per_round("shard.submit")},
      {"shard.commit_round_ms_p50", "ms", span_percentile(tr, "shard.commit_round", 50, 1.0)},
      {"shard.cross_transfers", "count", counter("shard.cross_transfers")},
      {"shard.receipts", "count", counter("shard.receipts")},
      // scenario env / set-up
      {"setup.env_ms", "ms", traced_mean("setup.env_ms")},
      {"setup.chain_ms", "ms", traced_mean("setup.chain_ms")},
      {"setup.subscribe_ms", "ms", traced_mean("setup.subscribe_ms")},
      // the run itself; round_ms_p95 is the round tail, too noisy on a shared
      // box to bound
      {"round_ms_p95", "ms", fastest_per_round(measured(c), "round_ms").percentile(95)},
      {"commit_tps_wall", "tx/s", tps(measured(c), false)},
      {"host.speed", "steps/us", [&] {
         Samples speed;
         for (const double x : pass_scale(measured(c))) speed.add(x * kReferenceSpeed);
         return speed.median();
       }()},
      {"failed_ratio", "ratio", attempted > 0 ? static_cast<double>(c.failed) / attempted : 0.0},
      {"round.self_ms", "ms/round", round_self / rounds},
      {"tracing.overhead_pct", "%",
       traced_tps > 0.0 && untraced_tps > 0.0 ? (untraced_tps / traced_tps - 1.0) * 100.0
                                              : 0.0},
  };
  return m;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(bool correct, const Collector& c, const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(c.attempted, 1)) +
                     ", \"failed\": " + std::to_string(c.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Count, total and self time per span name. The last column is each name's
/// self time as a share of all traced time (the root spans' durations).
void print_layer_table(const Tracer& tr) {
  double traced_ms = 0.0;
  for (const Span& s : tr.spans()) {
    if (s.parent < 0) traced_ms += ms_between(s.start, s.end);
  }
  std::printf("# %-28s %9s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms",
              "self%");
  for (const LayerRow& row : tr.layer_rows()) {
    std::printf("# %-28s %9llu %12.3f %12.3f %6.1f%%\n", row.name.c_str(),
                static_cast<unsigned long long>(row.count), row.total_ms, row.self_ms,
                traced_ms > 0 ? 100.0 * row.self_ms / traced_ms : 0.0);
  }
}

// -------------------------------------------------------------------- modes

int cmd_gen(const Args& args) {
  const Workload* w = find_workload(args.get("workload"));
  std::uint64_t seed = 0;
  if (w == nullptr || !parse_u64(args.get("seed"), seed) || !args.has("out")) {
    std::fprintf(stderr, "usage: mvbench gen --workload W --seed N --out FILE\n");
    return 2;
  }
  const std::string out = args.get("out");
  if (auto cached = mv::scenario::load_trace(out);
      cached.ok() && check_trace_shape(*w, seed, cached.value()).ok()) {
    return 0;  // a valid cached trace for this workload and seed
  }
  auto trace = generate_trace(*w, seed);
  if (!trace.ok()) {
    std::fprintf(stderr, "trace generation failed: %s\n",
                 trace.error().to_string().c_str());
    return 1;
  }
  const std::string tmp = out + ".tmp." + std::to_string(getpid());
  if (!mv::scenario::save_trace(trace.value(), tmp).ok() ||
      std::rename(tmp.c_str(), out.c_str()) != 0) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}

/// Replay passes until `seconds` have passed (at least `min_passes`). With
/// tracing, even passes are traced and odd passes are not. Returns the
/// process's peak RSS (KiB) at the end of the first pass: later passes reuse
/// freed memory, so their peak says more about the allocator than the node.
double run_passes(const Workload& w, const mv::scenario::Trace& trace,
                  const Prepared& prepared, double seconds, bool traced,
                  std::uint64_t min_passes, Tracer& tracer, Collector& out) {
  double first_pass_peak_kib = 0.0;
  const auto start = Clock::now();
  for (std::uint64_t pass = 0;; ++pass) {
    tracer.set_enabled(traced && pass % 2 == 0);
    Collector::Side& side = out.side(tracer.enabled());
    const double loop_before = side.loop_s;
    const std::uint64_t committed_before = side.committed;
    const std::size_t rounds_before = side.samples["round_ms"].size();
    if (!run_pass(PassContext{w, trace, prepared, tracer, out, pass})) {
      return first_pass_peak_kib;
    }
    if (pass == 0) first_pass_peak_kib = status_kib("VmHWM:");
    // Printed only, in wall time: a run reports each round at its fastest
    // over the passes, scaled to the reference speed.
    const double loop_s = side.loop_s - loop_before;
    const double pass_tps = static_cast<double>(side.committed - committed_before) / loop_s;
    const Samples rounds = side.samples["round_ms"].since(rounds_before);
    const Samples probes = side.samples["probe_us"].since(rounds_before);
    std::printf("# pass %llu %s: %.1f tx/s over %.3f s, round p50 %.3f p95 %.3f ms, "
                "probe %.1f steps/us\n",
                static_cast<unsigned long long>(pass),
                tracer.enabled() ? "traced" : "untraced", pass_tps, loop_s,
                rounds.percentile(50), rounds.percentile(95), pass_speed(probes));
    if (pass + 1 >= min_passes && ms_between(start, Clock::now()) >= seconds * 1e3) {
      return first_pass_peak_kib;
    }
  }
}

int cmd_run(const Args& args) {
  const Workload* w = find_workload(args.get("workload"));
  std::uint64_t seed = 0;
  std::uint64_t trace_flag = 0;
  const double seconds = std::strtod(args.get("seconds", "0").c_str(), nullptr);
  if (w == nullptr || !parse_u64(args.get("seed"), seed) ||
      !parse_u64(args.get("trace", "0"), trace_flag) || trace_flag > 1 ||
      !(seconds > 0.0) || !args.has("trace-file")) {
    std::fprintf(stderr,
                 "usage: mvbench run --workload W --seed N --seconds S --trace 0|1 "
                 "--trace-file FILE [--spans-out FILE] [--commit ID]\n");
    return 2;
  }
  const bool traced = trace_flag == 1;
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) < 1) load[0] = -1;
  std::printf("# workload %s seed %llu seconds %g trace %d\n", w->name.c_str(),
              static_cast<unsigned long long>(seed), seconds, traced ? 1 : 0);
  std::printf("# machine nproc %u loadavg_1m %.2f build %s commit %s speed %.1f steps/us\n",
              std::thread::hardware_concurrency(), load[0], MVBENCH_BUILD_TYPE,
              args.get("commit", "unknown").c_str(), machine_speed());

  auto trace = mv::scenario::load_trace(args.get("trace-file"));
  if (!trace.ok()) {
    std::fprintf(stderr, "cannot load trace: %s\n", trace.error().to_string().c_str());
    return 1;
  }
  if (auto shape = check_trace_shape(*w, seed, trace.value()); !shape.ok()) {
    std::fprintf(stderr, "%s\n", shape.error().to_string().c_str());
    return 1;
  }
  auto prepared = prepare(*w, trace.value());
  if (!prepared.ok()) {
    std::fprintf(stderr, "cannot prepare inputs: %s\n",
                 prepared.error().to_string().c_str());
    return 1;
  }

  // The node's memory: peak RSS above what the process holds before the
  // first pass (decoded trace, prepared inputs). The peak so far, from
  // reading the trace file, stays below the node's: the file is smaller than
  // the node state it replays into.
  const double baseline_kib = status_kib("VmRSS:");
  Tracer tracer(false);
  Collector out;
  const double peak_kib = run_passes(*w, trace.value(), prepared.value(), seconds,
                                     traced, traced ? 2 : 3, tracer, out);
  const double peak_rss_mb = (peak_kib - baseline_kib) / 1024.0;

  if (!out.error.empty()) {
    std::printf("# REFUSED: %s\n", out.error.c_str());
    print_result(false, out, {});
    return 1;
  }
  std::printf("# passes untraced %llu traced %llu; rounds per pass %zu; "
              "round samples %zu; speed at end %.1f steps/us\n",
              static_cast<unsigned long long>(out.untraced.passes),
              static_cast<unsigned long long>(out.traced.passes), trace.value().rounds.size(),
              latency(out, "round_ms").size(), machine_speed());
  const std::vector<Metric> e2e = end_to_end(out, peak_rss_mb);
  for (const Metric& m : e2e) {
    std::printf("# e2e %-28s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!traced) {
    // Workload-specific latencies this workload measures; traced runs report
    // them per layer.
    const std::vector<Metric> layer = per_layer(out, tracer);
    for (const Metric& m : layer) {
      if (m.name.find('.') == std::string::npos && (m.value != 0.0 || m.name == "failed_ratio")) {
        std::printf("# %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
      }
    }
    print_result(true, out, e2e);
    return 0;
  }

  print_layer_table(tracer);
  const std::string spans_out = args.get("spans-out");
  if (!spans_out.empty()) {
    if (!tracer.write_chrome_json(spans_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n", spans_out.c_str());
      return 1;
    }
    std::printf("# spans %zu written to %s\n", tracer.spans().size(), spans_out.c_str());
  }
  const std::vector<Metric> layer = per_layer(out, tracer);
  for (const Metric& m : layer) {
    std::printf("# layer %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("# tracing overhead: traced commit_tps %.1f vs untraced %.1f tx/s\n",
              tps(out.traced), tps(out.untraced));
  print_result(true, out, layer);
  return 0;
}

// ---------------------------------------------------------------- self-test

bool expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  return ok;
}

/// Round spans: children lie inside their parent and do not overlap, and
/// children plus self time add up to the round's duration.
bool check_round_accounting(const Tracer& tr) {
  const std::vector<double> self = tr.self_ms();
  const std::vector<Span>& spans = tr.spans();
  std::map<std::int32_t, std::vector<std::int32_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[spans[i].parent].push_back(static_cast<std::int32_t>(i));
  }
  std::size_t rounds = 0;
  double round_ms = 0.0;
  double self_total = 0.0;
  bool ok = true;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (tr.names()[spans[i].name] != "round") continue;
    ++rounds;
    const double total = ms_between(spans[i].start, spans[i].end);
    double child_ms = 0.0;
    Clock::time_point last_end = spans[i].start;
    for (const std::int32_t c : children[static_cast<std::int32_t>(i)]) {
      const Span& s = spans[static_cast<std::size_t>(c)];
      ok = ok && s.group == spans[i].group && s.start >= last_end &&
           s.end <= spans[i].end && s.start <= s.end;
      last_end = s.end;
      child_ms += ms_between(s.start, s.end);
    }
    ok = ok && std::fabs(child_ms + self[i] - total) <= 1e-9 * std::max(1.0, total);
    round_ms += total;
    self_total += self[i];
  }
  std::printf("     %zu round spans, %.3f ms, self %.3f ms (%.2f%%)\n", rounds, round_ms,
              self_total, round_ms > 0 ? 100.0 * self_total / round_ms : 0.0);
  return ok && rounds > 0;
}

int cmd_selftest() {
  bool ok = true;

  // A small city: a 2-worker queue, subscribers, queries, and catch-up.
  Workload city;
  city.name = "selftest_city";
  city.mix = "mixed_city";
  city.avatars = 256;
  city.rounds = 12;
  city.txs_per_round = 32;
  city.node.queue_workers = 2;
  city.node.subscribers = 4;
  city.node.queries_per_round = 4;
  city.node.catchup = true;

  Workload world;
  world.name = "selftest_world";
  world.kind = Kind::kMultiWorld;
  world.avatars = 128;
  world.rounds = 6;
  world.shards = 2;
  world.intra_per_round = 16;
  world.cross_per_round = 4;
  world.node.queue_workers = 2;

  for (const Workload* w : {&city, &world}) {
    auto trace = generate_trace(*w, 7);
    if (!expect(trace.ok(), w->name + ": trace generated")) return 1;
    auto prepared = prepare(*w, trace.value());
    if (!expect(prepared.ok(), w->name + ": inputs prepared")) return 1;

    Tracer tracer(true);
    Collector clean;
    ok &= expect(run_pass(PassContext{*w, trace.value(), prepared.value(), tracer, clean, 0}) &&
                     clean.error.empty() && clean.failed == 0,
                 w->name + ": unaltered trace replays with every check passing");
    ok &= expect(check_round_accounting(tracer),
                 w->name + ": child spans plus self time add up to each round span");

    mv::scenario::Trace altered = trace.value();
    altered.rounds[3].commitment_root[0] ^= 0x01;
    Tracer off(false);
    Collector refused;
    const bool passed =
        run_pass(PassContext{*w, altered, prepared.value(), off, refused, 0});
    ok &= expect(!passed && refused.error.rfind("round 3:", 0) == 0,
                 w->name + ": a trace with round 3's root altered is refused (" +
                     refused.error + ")");
  }
  std::printf("%s\n", ok ? "selftest passed" : "selftest FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace mvbench

int main(int argc, char** argv) {
  mvbench::Args args;
  if (!mvbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr, "usage: mvbench gen|run|selftest [--flag value]...\n");
    return 2;
  }
  if (args.mode == "gen") return mvbench::cmd_gen(args);
  if (args.mode == "run") return mvbench::cmd_run(args);
  if (args.mode == "selftest") return mvbench::cmd_selftest();
  std::fprintf(stderr, "unknown mode %s\n", args.mode.c_str());
  return 2;
}
