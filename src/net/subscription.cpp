#include "net/subscription.h"

#include <algorithm>
#include <chrono>

namespace mv::net {

// ------------------------------------------------------------------ codecs

Bytes SubscriptionRequest::encode() const {
  ByteWriter w;
  w.u32(version);
  w.i64(from_height);
  w.u8(headers ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(accounts.size()));
  for (const auto a : accounts) w.u64(a);
  w.u32(static_cast<std::uint32_t>(stores.size()));
  for (const auto& s : stores) w.str(s);
  return w.take();
}

std::optional<SubscriptionRequest> SubscriptionRequest::decode(
    std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  SubscriptionRequest req;
  req.version = r.u32();
  req.from_height = r.i64();
  const std::uint8_t headers = r.u8();
  r.require(headers <= 1, "sub.bad_request", "headers flag not in {0,1}");
  req.headers = headers == 1;
  req.accounts.resize(r.count(SIZE_MAX, 8, "sub.bad_request"));
  for (auto& account : req.accounts) account = r.u64();
  req.stores.resize(r.count(SIZE_MAX, 4, "sub.bad_request"));
  for (auto& store : req.stores) store = r.str();
  if (!r.finish().ok()) return std::nullopt;
  return req;
}

Bytes SubscriptionResponse::encode() const {
  ByteWriter w;
  w.u32(version);
  w.str(code);
  w.i64(earliest);
  w.i64(tip);
  return w.take();
}

std::optional<SubscriptionResponse> SubscriptionResponse::decode(
    std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  SubscriptionResponse resp;
  resp.version = r.u32();
  resp.code = r.str();
  resp.earliest = r.i64();
  resp.tip = r.i64();
  if (!r.finish().ok()) return std::nullopt;
  return resp;
}

namespace {

Bytes encode_ack(std::int64_t height) {
  ByteWriter w;
  w.i64(height);
  return w.take();
}

std::optional<std::int64_t> decode_ack(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  const std::int64_t height = r.i64();
  if (!r.finish().ok()) return std::nullopt;
  return height;
}

}  // namespace

Bytes encode_sub_ack(std::int64_t height) { return encode_ack(height); }

// ------------------------------------------------------- SubscriptionServer

bool SubscriptionServer::handle(const Message& msg) {
  if (msg.topic == kSubSubscribeReq) {
    on_subscribe(msg);
    return true;
  }
  if (msg.topic == kSubUnsubscribeReq) {
    on_unsubscribe(msg);
    return true;
  }
  if (msg.topic == kSubAck) {
    on_ack(msg);
    return true;
  }
  return false;
}

void SubscriptionServer::on_subscribe(const Message& msg) {
  const auto req = SubscriptionRequest::decode(msg.payload());
  if (!req.has_value()) return;  // malformed: drop, like other protocols

  SubscriptionResponse resp;
  // Replayed entries, gathered under the lock, sent after it (shared
  // payload pointers keep this copy-free).
  std::vector<std::pair<std::int64_t, std::shared_ptr<const Bytes>>> replay;
  {
    std::lock_guard<std::mutex> lock(mu_);
    resp.earliest = retained_.empty() ? -1 : retained_.front().first;
    resp.tip = latest_;
    if (req->version != kSubWireVersion) {
      resp.code = errc::kSubBadVersion;
      ++rejected_version_;
    } else if (req->from_height >= 0 && req->from_height <= latest_ &&
               (retained_.empty() || retained_.front().first > req->from_height)) {
      // The client needs heights the ring no longer holds: it must bootstrap
      // from a snapshot instead. `earliest` tells it where pushes resume.
      resp.code = errc::kSubStaleFrom;
      ++rejected_stale_;
    } else {
      Subscriber sub;
      sub.headers = req->headers;
      sub.accounts.insert(req->accounts.begin(), req->accounts.end());
      sub.stores.insert(req->stores.begin(), req->stores.end());
      // A resubscribe replaces the interest set and forgives the old unacked
      // backlog — the client proved liveness by speaking to us again.
      subs_[msg.from] = std::move(sub);
      ++subscribed_;
      if (req->from_height >= 0) {
        for (const auto& [h, payload] : retained_) {
          if (h < req->from_height) continue;
          replay.emplace_back(h, payload);
        }
        auto& registered = subs_[msg.from];
        registered.unacked += replay.size();
        resync_pushes_ += replay.size();
        pushes_sent_ += replay.size();
      }
    }
  }
  (void)network_.send(self_, msg.from, kSubSubscribeResp, resp.encode());
  for (auto& [h, payload] : replay) {
    (void)network_.send(self_, msg.from, kSubPush, std::move(payload));
  }
}

void SubscriptionServer::on_unsubscribe(const Message& msg) {
  std::lock_guard<std::mutex> lock(mu_);
  if (subs_.erase(msg.from) != 0) ++unsubscribed_;
}

void SubscriptionServer::on_ack(const Message& msg) {
  const auto height = decode_ack(msg.payload());
  if (!height.has_value()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = subs_.find(msg.from);
  if (it == subs_.end()) return;  // ack from an evicted/removed subscriber
  ++acks_;
  // Guarded: acks for pushes sent before a resubscribe reset would otherwise
  // underflow the fresh counter.
  if (it->second.unacked > 0) --it->second.unacked;
}

void SubscriptionServer::publish(std::int64_t height,
                                 std::shared_ptr<const Bytes> payload) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    retained_.emplace_back(height, payload);
    while (retained_.size() > config_.retain) retained_.pop_front();
    latest_ = height;
    ++commits_published_;
  }
  if (queue_ != nullptr) {
    // kClientQuery is the lowest lane: under overload subscriber fan-out is
    // shed before anything consensus needs. Dropping the job drops this
    // commit's pushes entirely; subscribers recover via the retained ring.
    const bool admitted = queue_->submit(
        JobClass::kClientQuery,
        [this, payload = std::move(payload)] { fan_out(payload); });
    if (!admitted) {
      std::lock_guard<std::mutex> lock(mu_);
      ++commits_shed_;
      network_.note_subscription_shed();
    }
    return;
  }
  fan_out(payload);
}

void SubscriptionServer::fan_out(const std::shared_ptr<const Bytes>& payload) {
  const auto t0 = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = subs_.begin(); it != subs_.end();) {
    auto& sub = it->second;
    if (config_.per_client_cap != 0 && sub.unacked >= config_.per_client_cap) {
      // The subscriber is not draining its pushes; keeping it would grow an
      // unbounded per-client backlog. It can resubscribe once it recovers.
      it = subs_.erase(it);
      ++evicted_slow_;
      network_.note_subscriber_evicted();
      continue;
    }
    (void)network_.send(self_, it->first, kSubPush, payload);
    ++sub.unacked;
    ++pushes_sent_;
    ++it;
  }
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  fanout_stats_.add(us);
  fanout_window_.add(us);
}

std::vector<std::uint64_t> SubscriptionServer::account_interests() const {
  std::set<std::uint64_t> all;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [node, sub] : subs_) {
    all.insert(sub.accounts.begin(), sub.accounts.end());
  }
  return {all.begin(), all.end()};
}

std::vector<std::string> SubscriptionServer::store_interests() const {
  std::set<std::string> all;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [node, sub] : subs_) {
    all.insert(sub.stores.begin(), sub.stores.end());
  }
  return {all.begin(), all.end()};
}

std::size_t SubscriptionServer::subscriber_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return subs_.size();
}

bool SubscriptionServer::subscribed(NodeId node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return subs_.count(node) != 0;
}

Status SubscriptionServer::drop(NodeId node) {
  std::lock_guard<std::mutex> lock(mu_);
  if (subs_.erase(node) == 0) {
    return Status::fail(errc::kSubNotSubscribed, "node holds no subscription");
  }
  ++unsubscribed_;
  return {};
}

SubscriptionStats SubscriptionServer::stats() const {
  SubscriptionStats out;
  std::lock_guard<std::mutex> lock(mu_);
  out.subscribers = subs_.size();
  out.subscribed = subscribed_;
  out.rejected_stale = rejected_stale_;
  out.rejected_version = rejected_version_;
  out.unsubscribed = unsubscribed_;
  out.commits_published = commits_published_;
  out.commits_shed = commits_shed_;
  out.pushes_sent = pushes_sent_;
  out.resync_pushes = resync_pushes_;
  out.evicted_slow = evicted_slow_;
  out.acks = acks_;
  out.fanout_mean_us = fanout_stats_.mean();
  out.fanout_max_us = fanout_stats_.max();
  out.fanout_p50_us = fanout_window_.percentile(50.0);
  out.fanout_p99_us = fanout_window_.percentile(99.0);
  return out;
}

}  // namespace mv::net
