#include "net/gossip.h"

namespace mv::net {

namespace {

std::uint64_t rumor_key(const Bytes& payload) {
  return crypto::digest_prefix64(crypto::sha256(payload));
}

/// Shard-tagged rumors travel framed — fixed-width shard id, then the raw
/// payload — on their own topic so untagged traffic needs no parsing.
Bytes frame_sharded(std::uint32_t shard, const Bytes& payload) {
  ByteWriter w;
  w.reserve(sizeof(std::uint32_t) + payload.size());
  w.u32(shard);
  w.raw(payload);
  return w.take();
}

constexpr char kTopic[] = "gossip";
constexpr char kShardTopic[] = "gossip.shard";

}  // namespace

Gossip::Gossip(Network& network, Rng rng, std::size_t fanout, DeliverFn deliver,
               std::size_t relay_high_water, JobQueue* queue)
    : network_(network),
      rng_(rng),
      fanout_(fanout),
      deliver_(std::move(deliver)),
      relay_high_water_(relay_high_water),
      queue_(queue) {}

NodeId Gossip::join() { return join({}); }

NodeId Gossip::join(std::vector<std::uint32_t> interests) {
  const NodeId id =
      network_.add_node([this](const Message& msg) { on_message(msg); });
  members_.push_back(id);
  if (!interests.empty()) {
    interests_[id].insert(interests.begin(), interests.end());
  }
  return id;
}

void Gossip::publish(NodeId origin, const Bytes& payload) {
  if (mark_seen(origin, payload)) {
    deliver_(origin, payload);
    relay(origin, std::make_shared<const Bytes>(payload), std::nullopt);
  }
}

void Gossip::publish(NodeId origin, std::uint32_t shard, const Bytes& payload) {
  auto framed = std::make_shared<const Bytes>(frame_sharded(shard, payload));
  if (mark_seen(origin, *framed)) {
    if (interested(origin, shard)) deliver_(origin, payload);
    relay(origin, framed, shard);
  }
}

void Gossip::on_message(const Message& msg) {
  const bool sharded = msg.topic == kShardTopic;
  if (!sharded && msg.topic != kTopic) return;
  {
    // One of msg.from's relays just landed: release its in-flight slot.
    std::lock_guard<std::mutex> lock(relay_mu_);
    if (const auto it = inflight_.find(msg.from);
        it != inflight_.end() && it->second > 0) {
      --it->second;
    }
  }
  if (!mark_seen(msg.to, msg.payload())) return;
  if (!sharded) {
    deliver_(msg.to, msg.payload());
    relay(msg.to, msg.payload_buf, std::nullopt);
    return;
  }
  const Bytes& payload = msg.payload();
  ByteReader reader(payload);
  const std::uint32_t shard = reader.u32();
  if (!reader.ok()) return;  // malformed frame: drop, don't relay
  if (interested(msg.to, shard)) {
    const auto inner = std::span(payload).last(reader.remaining());
    deliver_(msg.to, Bytes(inner.begin(), inner.end()));
  }
  relay(msg.to, msg.payload_buf, shard);
}

void Gossip::relay(NodeId from, const std::shared_ptr<const Bytes>& payload,
                   std::optional<std::uint32_t> shard) {
  if (queue_ == nullptr) {
    relay_now(from, payload, shard);
    return;
  }
  // Offloaded hop: the fan-out competes with other traffic classes under
  // the queue's scheduler. submit() returning false means the hop was shed
  // at admission (kGossipRelay over a ceiling) — the rumor still reached
  // this node; only its onward copies are withheld, which the epidemic
  // redundancy absorbs exactly like a backpressure drop.
  queue_->submit(JobClass::kGossipRelay, [this, from, payload, shard] {
    relay_now(from, payload, shard);
  });
}

void Gossip::relay_now(NodeId from, const std::shared_ptr<const Bytes>& payload,
                       std::optional<std::uint32_t> shard) {
  std::lock_guard<std::mutex> lock(relay_mu_);
  // Shard-tagged rumors only ever travel inside the interested subset: the
  // candidate list shrinks to it, so uninterested nodes never see (or pay
  // for) other worlds' traffic.
  std::vector<NodeId> candidates;
  candidates.reserve(members_.size());
  for (const NodeId m : members_) {
    if (!shard || interested(m, *shard)) candidates.push_back(m);
  }
  const char* topic = shard ? kShardTopic : kTopic;
  if (candidates.size() <= 1) return;
  const std::size_t peers = std::min(fanout_, candidates.size() - 1);
  if (peers == candidates.size() - 1) {
    // Flood mode: relay to every peer — guarantees coverage on a connected
    // lossless network at the cost of O(n^2) messages. The coverage
    // guarantee is the point of this mode, so backpressure does not apply.
    for (const NodeId peer : candidates) {
      if (peer != from) network_.send(from, peer, topic, payload);
    }
    return;
  }
  // Backpressure (epidemic mode only): a node with too many undelivered
  // relays in flight defers to the redundancy of the mesh instead of
  // queueing more.
  std::size_t budget = peers;
  if (relay_high_water_ != 0) {
    const std::size_t inflight = inflight_[from];
    budget = inflight < relay_high_water_
                 ? std::min(peers, relay_high_water_ - inflight)
                 : 0;
  }
  if (budget < peers) network_.note_backpressure_drop(peers - budget);
  if (budget == 0) return;
  const auto picks = rng_.sample_indices(candidates.size(),
                                         std::min(fanout_ + 1, candidates.size()));
  std::size_t sent = 0;
  for (const auto idx : picks) {
    if (sent == budget) break;
    const NodeId peer = candidates[idx];
    if (peer == from) continue;
    if (network_.send(from, peer, topic, payload)) ++inflight_[from];
    ++sent;
  }
}

bool Gossip::mark_seen(NodeId node, const Bytes& payload) {
  return seen_[rumor_key(payload)].insert(node).second;
}

bool Gossip::interested(NodeId node, std::uint32_t shard) const {
  const auto it = interests_.find(node);
  if (it == interests_.end() || it->second.empty()) return true;
  return it->second.contains(shard);
}

double Gossip::coverage(const Bytes& payload) const {
  if (members_.empty()) return 0.0;
  const auto it = seen_.find(rumor_key(payload));
  if (it == seen_.end()) return 0.0;
  return static_cast<double>(it->second.size()) /
         static_cast<double>(members_.size());
}

double Gossip::coverage(std::uint32_t shard, const Bytes& payload) const {
  std::size_t audience = 0;
  for (const NodeId m : members_) {
    if (interested(m, shard)) ++audience;
  }
  if (audience == 0) return 0.0;
  const auto it = seen_.find(rumor_key(frame_sharded(shard, payload)));
  if (it == seen_.end()) return 0.0;
  return static_cast<double>(it->second.size()) /
         static_cast<double>(audience);
}

}  // namespace mv::net
