// In-memory span recorder for the benchmark's traced run.
//
// A span covers one call the benchmark makes into a node layer (mempool
// admission, block assembly, a proof query, a network pump, ...). Spans carry
// a name, wall-clock start and end (steady_clock), the index of the span that
// caused them, and a group id shared by every span of one round. They live in
// a vector until the run ends; nothing is written while the clock runs.
//
// A disabled tracer records nothing: Scope still constructs, but skips the
// clock reads, so the untraced run pays one branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace mvbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  std::uint32_t name = 0;   ///< index into Tracer::names()
  std::int32_t parent = -1; ///< index into Tracer::spans(); -1 = root
  std::uint64_t group = 0;  ///< shared by every span of one round
  Clock::time_point start;
  Clock::time_point end;
};

/// Per-name totals over the recorded spans. Self time is a span's duration
/// minus the part of it that its children cover.
struct LayerRow {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Interned name id; call once per site, outside the timed loop.
  [[nodiscard]] std::uint32_t intern(const std::string& name);

  /// Open a span under the innermost open span (or as a root); returns its
  /// index, or -1 when disabled.
  std::int32_t open(std::uint32_t name, std::uint64_t group);
  void close(std::int32_t index);
  /// Record an already-finished span under the innermost open span. For
  /// calls whose layer is only known once they return (a network delivery
  /// that turned out to install a snapshot).
  void record(std::uint32_t name, std::uint64_t group, Clock::time_point start,
              Clock::time_point end);

  /// RAII span. Nested scopes nest their spans.
  class Scope {
   public:
    Scope(Tracer& tracer, std::uint32_t name, std::uint64_t group)
        : tracer_(tracer), index_(tracer.open(name, group)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<std::string>& names() const { return names_; }

  /// Total and self time per span name, in first-seen name order.
  [[nodiscard]] std::vector<LayerRow> layer_rows() const;

  /// Self time of every span, indexed like spans(): its duration minus the
  /// time its children cover.
  [[nodiscard]] std::vector<double> self_ms() const;

  /// Write every span as Chrome trace-event JSON (chrome://tracing,
  /// ui.perfetto.dev). Returns false when the file cannot be written.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  ///< stack of open span indices
};

}  // namespace mvbench
