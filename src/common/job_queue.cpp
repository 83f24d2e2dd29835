#include "common/job_queue.h"

#include <algorithm>
#include <utility>

namespace mv {

const char* job_class_name(JobClass cls) {
  switch (cls) {
    case JobClass::kConsensus:
      return "consensus";
    case JobClass::kValidation:
      return "validation";
    case JobClass::kGossipRelay:
      return "gossip_relay";
    case JobClass::kSnapshotServe:
      return "snapshot_serve";
    case JobClass::kClientQuery:
      return "client_query";
  }
  return "unknown";
}

std::uint64_t JobQueueStats::submitted() const {
  std::uint64_t n = 0;
  for (const auto& c : classes) n += c.submitted;
  return n;
}

std::uint64_t JobQueueStats::completed() const {
  std::uint64_t n = 0;
  for (const auto& c : classes) n += c.completed;
  return n;
}

std::uint64_t JobQueueStats::shed() const {
  std::uint64_t n = 0;
  for (const auto& c : classes) n += c.shed();
  return n;
}

namespace {

double elapsed_us(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

void JobQueue::ClassState::record_wait(double us) {
  wait_stats.add(us);
  wait_window.add(us);
}

void JobQueue::ClassState::record_run(double us) {
  run_stats.add(us);
  run_window.add(us);
}

JobQueue::JobQueue(JobQueueConfig config) : config_(config) {
  workers_.reserve(config_.threads);
  try {
    for (std::size_t i = 0; i < config_.threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // A thread that failed to start must not strand the ones that did.
    stop_workers();
    throw;
  }
}

JobQueue::~JobQueue() { stop_workers(); }

void JobQueue::stop_workers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    // Jobs already running finish; jobs still queued are abandoned (counted,
    // per the contract in the header — drain() first if completion matters).
    for (auto& cs : classes_) {
      cs.abandoned += cs.queue.size();
      pending_ -= cs.queue.size();
      cs.queue.clear();
    }
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool JobQueue::admit_locked(ClassState& cs, const JobQueueConfig::Limit& limit) {
  if (limit.max_depth != 0 && cs.queue.size() >= limit.max_depth) {
    ++cs.shed_depth;
    return false;
  }
  // The wait ceiling applies only while the class actually has a backlog and
  // a meaningful sample base: an idle lane cannot be latched shut by stale
  // latency from a burst that drained long ago.
  if (limit.max_p99_wait_us > 0.0 && !cs.queue.empty() &&
      cs.wait_window.seen() >= kMinShedSamples &&
      cs.wait_window.percentile(99.0) > limit.max_p99_wait_us) {
    ++cs.shed_wait;
    return false;
  }
  return true;
}

void JobQueue::execute_inline(ClassState& cs, const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  const double run_us = elapsed_us(t0, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  cs.record_wait(0.0);
  cs.record_run(run_us);
  ++cs.completed;
}

void JobQueue::enqueue_locked(ClassState& cs, Job job) {
  ++cs.submitted;
  cs.queue.push_back(std::move(job));
  ++pending_;
}

bool JobQueue::submit(JobClass cls, std::function<void()> fn) {
  auto& cs = classes_[static_cast<std::size_t>(cls)];
  const auto& limit = config_.limits[static_cast<std::size_t>(cls)];
  if (config_.threads == 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!admit_locked(cs, limit)) return false;
      ++cs.submitted;
    }
    execute_inline(cs, fn);
    return true;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ || !admit_locked(cs, limit)) return false;
    enqueue_locked(cs, Job{std::move(fn), nullptr, Clock::now()});
  }
  work_cv_.notify_one();
  return true;
}

bool JobQueue::run(JobClass cls, const std::function<void()>& fn) {
  auto& cs = classes_[static_cast<std::size_t>(cls)];
  const auto& limit = config_.limits[static_cast<std::size_t>(cls)];
  if (config_.threads == 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!admit_locked(cs, limit)) return false;
      ++cs.submitted;
    }
    execute_inline(cs, fn);
    return true;
  }
  auto batch = std::make_shared<Batch>(1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ || !admit_locked(cs, limit)) return false;
    enqueue_locked(cs, Job{fn, batch, Clock::now()});
  }
  work_cv_.notify_one();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return batch->remaining == 0; });
  return true;
}

void JobQueue::run_batch(JobClass cls, std::size_t tasks,
                         const std::function<void(std::size_t)>& fn) {
  if (tasks == 0) return;
  auto& cs = classes_[static_cast<std::size_t>(cls)];
  if (config_.threads == 0) {
    for (std::size_t i = 0; i < tasks; ++i) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++cs.submitted;
      }
      execute_inline(cs, [&fn, i] { fn(i); });
    }
    return;
  }
  auto batch = std::make_shared<Batch>(tasks);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = Clock::now();
    for (std::size_t i = 0; i < tasks; ++i) {
      enqueue_locked(cs, Job{[&fn, i] { fn(i); }, batch, now});
    }
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return batch->remaining == 0; });
}

void JobQueue::drain() {
  if (config_.threads == 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0 && running_ == 0; });
}

JobQueueStats JobQueue::stats() const {
  JobQueueStats out;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < kJobClassCount; ++i) {
    const ClassState& cs = classes_[i];
    JobClassStats& s = out.classes[i];
    s.name = job_class_name(static_cast<JobClass>(i));
    s.submitted = cs.submitted;
    s.completed = cs.completed;
    s.shed_depth = cs.shed_depth;
    s.shed_wait = cs.shed_wait;
    s.abandoned = cs.abandoned;
    s.depth = cs.queue.size();
    s.wait_mean_us = cs.wait_stats.mean();
    s.wait_max_us = cs.wait_stats.max();
    s.wait_p50_us = cs.wait_window.percentile(50.0);
    s.wait_p99_us = cs.wait_window.percentile(99.0);
    s.run_mean_us = cs.run_stats.mean();
    s.run_max_us = cs.run_stats.max();
    s.run_p50_us = cs.run_window.percentile(50.0);
    s.run_p99_us = cs.run_window.percentile(99.0);
  }
  return out;
}

void JobQueue::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || pending_ > 0; });
    if (pending_ == 0) {
      if (stop_) return;
      continue;
    }
    // Highest-priority non-empty lane, FIFO within the lane.
    ClassState* cs = nullptr;
    for (auto& candidate : classes_) {
      if (!candidate.queue.empty()) {
        cs = &candidate;
        break;
      }
    }
    Job job = std::move(cs->queue.front());
    cs->queue.pop_front();
    --pending_;
    ++running_;
    cs->record_wait(elapsed_us(job.enqueued, Clock::now()));
    lock.unlock();
    const auto t0 = Clock::now();
    job.fn();
    const double run_us = elapsed_us(t0, Clock::now());
    lock.lock();
    cs->record_run(run_us);
    ++cs->completed;
    --running_;
    bool wake_waiters = pending_ == 0 && running_ == 0;
    if (job.batch != nullptr && --job.batch->remaining == 0) {
      wake_waiters = true;
    }
    if (wake_waiters) done_cv_.notify_all();
  }
}

}  // namespace mv
