#include "tracer.h"

#include <algorithm>
#include <cstdio>

namespace mvbench {

std::uint32_t Tracer::intern(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<std::uint32_t>(it - names_.begin());
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t Tracer::open(std::uint32_t name, std::uint64_t group) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.group = group;
  span.start = Clock::now();
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = Clock::now();
  // Scopes close in LIFO order, so the closing span is the innermost one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::record(std::uint32_t name, std::uint64_t group,
                    Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.group = group;
  span.start = start;
  span.end = end;
  spans_.push_back(span);
}

std::vector<double> Tracer::self_ms() const {
  // Children are recorded after their parent and, on the one thread that
  // records, never overlap each other: a parent's covered time is the sum of
  // its children's durations.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = ms_between(spans_[i].start, spans_[i].end);
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= ms_between(s.start, s.end);
    }
  }
  return self;
}

std::vector<LayerRow> Tracer::layer_rows() const {
  std::vector<LayerRow> rows(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) rows[i].name = names_[i];
  const std::vector<double> self = self_ms();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerRow& row = rows[spans_[i].name];
    ++row.count;
    row.total_ms += ms_between(spans_[i].start, spans_[i].end);
    row.self_ms += self[i];
  }
  rows.erase(std::remove_if(rows.begin(), rows.end(),
                            [](const LayerRow& r) { return r.count == 0; }),
             rows.end());
  return rows;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"group\":%llu}}\n",
                 i == 0 ? "" : ",", names_[s.name].c_str(), us(s.start),
                 us(s.end) - us(s.start), i, s.parent,
                 static_cast<unsigned long long>(s.group));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace mvbench
