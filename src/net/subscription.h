// Streaming subscription read path: server-side hub over the simulated
// network.
//
// Production metaverse read traffic is subscription-shaped, not poll-shaped:
// avatars watch their accounts, dashboards watch headers and proposals.
// Instead of clients polling prove_account/header endpoints, they register
// interest once and the chain pushes every commit to them.
//
// This module is the transport-side hub, payload-agnostic like
// net/snapshot_transfer.h: what a push payload *means* (header + account
// proofs + store events) is supplied by the ledger-side glue
// (ledger/subscription.h). The hub owns:
//
//   - the subscriber registry (per-node interest sets: headers, account
//     keys, store names) maintained from subscribe/unsubscribe messages;
//   - zero-copy fan-out: one serialized payload per commit, shared across
//     every subscriber via the network's shared_ptr<const Bytes> send path —
//     never re-encoded or copied per subscriber;
//   - flow control: each subscriber acks pushes; one whose unacked backlog
//     reaches the per-client cap is evicted at the next push (counted), so a
//     slow consumer bounds its queue instead of growing it without limit;
//   - a retained ring of recent pushes: a (re)subscribe with from_height
//     inside the ring is resynced from it, which is how a client that lost
//     pushes (shed fan-out, partition, loss) recovers header continuity;
//   - load isolation: with a JobQueue configured, fan-outs run as
//     JobClass::kClientQuery jobs — the first class shed under overload — so
//     a subscriber storm can never starve consensus. A shed fan-out drops
//     that commit's pushes entirely; subscribers see the height gap and
//     resubscribe.
//
// Wire protocol and trust argument: DESIGN.md §11.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/job_queue.h"
#include "common/result.h"
#include "common/stats.h"
#include "net/network.h"

namespace mv::net {

// Wire topics. Push payloads are opaque to this layer; everything else is
// encoded by the codecs below.
inline constexpr const char* kSubSubscribeReq = "sub.subscribe";
inline constexpr const char* kSubSubscribeResp = "sub.subscribe_resp";
inline constexpr const char* kSubUnsubscribeReq = "sub.unsubscribe";
inline constexpr const char* kSubPush = "sub.push";
inline constexpr const char* kSubAck = "sub.ack";

/// Subscription wire version; a request with any other version is answered
/// with errc::kSubBadVersion instead of being silently dropped.
inline constexpr std::uint32_t kSubWireVersion = 1;

/// Encode a kSubAck payload acknowledging the push for `height`; clients ack
/// every push they consume so the server's per-client backlog drains.
[[nodiscard]] Bytes encode_sub_ack(std::int64_t height);

/// What a client asks to watch. A node holds at most one subscription; a
/// repeated subscribe replaces the previous interest set (that is also the
/// resync path after a detected gap).
struct SubscriptionRequest {
  std::uint32_t version = kSubWireVersion;
  /// First height the client needs. Heights [from_height, server tip] still
  /// in the retained ring are replayed at subscribe time; -1 = no catch-up,
  /// start with the next commit.
  std::int64_t from_height = -1;
  bool headers = false;                  ///< push every committed header
  std::vector<std::uint64_t> accounts;   ///< crypto::Address values to watch
  std::vector<std::string> stores;       ///< contract stores (e.g. proposals)

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static std::optional<SubscriptionRequest> decode(
      std::span<const std::uint8_t> payload);
};

/// Server's answer to a subscribe. `code` is empty on success, otherwise an
/// errc constant (kSubBadVersion, kSubStaleFrom). `earliest` and `tip` bound
/// what the retained ring can still resync — a stale client uses them to
/// decide to bootstrap from a snapshot instead.
struct SubscriptionResponse {
  std::uint32_t version = kSubWireVersion;
  std::string code;
  std::int64_t earliest = -1;  ///< oldest height the ring can replay
  std::int64_t tip = -1;       ///< newest published height

  [[nodiscard]] bool ok() const { return code.empty(); }
  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static std::optional<SubscriptionResponse> decode(
      std::span<const std::uint8_t> payload);
};

struct SubscriptionConfig {
  /// Unacked pushes a subscriber may accumulate; reaching the cap evicts it
  /// at the next push (0 = unlimited, never evict).
  std::size_t per_client_cap = 64;
  /// Retained pushes for resync; pair with ChainConfig::state_retention so
  /// proofs and pushes lag the tip together.
  std::size_t retain = 8;
};

/// Observability snapshot — subscriber counts, push accounting, and fan-out
/// latency percentiles (recent window, common/stats.h RecentWindow).
struct SubscriptionStats {
  std::size_t subscribers = 0;        ///< registered right now
  std::uint64_t subscribed = 0;       ///< subscribe requests accepted
  std::uint64_t rejected_stale = 0;   ///< from_height below the ring
  std::uint64_t rejected_version = 0;
  std::uint64_t unsubscribed = 0;     ///< explicit unsubscribes honored
  std::uint64_t commits_published = 0;
  std::uint64_t commits_shed = 0;     ///< fan-out jobs shed by the queue
  std::uint64_t pushes_sent = 0;      ///< per-subscriber push messages
  std::uint64_t resync_pushes = 0;    ///< retained pushes replayed
  std::uint64_t evicted_slow = 0;     ///< subscribers dropped at the cap
  std::uint64_t acks = 0;
  double fanout_mean_us = 0.0;        ///< whole-commit fan-out wall time
  double fanout_max_us = 0.0;
  double fanout_p50_us = 0.0;
  double fanout_p99_us = 0.0;
};

/// The hub. Thread contract: handle() runs on the simulation thread
/// (delivery); publish()'s fan-out may run on a JobQueue worker; every
/// shared structure is guarded by one internal mutex. Queued fan-out jobs
/// reference this server: drain() the queue (or destroy it, abandoning
/// them) before destroying the server.
class SubscriptionServer {
 public:
  explicit SubscriptionServer(Network& network, SubscriptionConfig config = {},
                              JobQueue* queue = nullptr)
      : network_(network), config_(config), queue_(queue) {}

  void bind(NodeId self) { self_ = self; }

  /// Dispatch one delivered message; true when the topic was ours.
  bool handle(const Message& msg);

  /// Fan one commit's serialized payload out to every subscriber. The
  /// payload is retained for resync and shared — every subscriber's message
  /// references the same buffer. Heights must be published in ascending
  /// order (the ledger commit hook guarantees this).
  void publish(std::int64_t height, std::shared_ptr<const Bytes> payload);

  /// Union of subscribed account keys / store names right now — the payload
  /// builder asks for these at commit time so the push carries proofs only
  /// for accounts someone actually watches.
  [[nodiscard]] std::vector<std::uint64_t> account_interests() const;
  [[nodiscard]] std::vector<std::string> store_interests() const;

  [[nodiscard]] std::size_t subscriber_count() const;
  [[nodiscard]] bool subscribed(NodeId node) const;

  /// Server-side removal (admin/eviction path of the ClientApi facade).
  [[nodiscard]] Status drop(NodeId node);

  [[nodiscard]] SubscriptionStats stats() const;

 private:
  struct Subscriber {
    bool headers = false;
    std::set<std::uint64_t> accounts;
    std::set<std::string> stores;
    std::size_t unacked = 0;  ///< pushes sent and not yet acked
  };

  void on_subscribe(const Message& msg);
  void on_unsubscribe(const Message& msg);
  void on_ack(const Message& msg);
  /// The fan-out itself; runs inline or as a kClientQuery job.
  void fan_out(const std::shared_ptr<const Bytes>& payload);

  Network& network_;
  SubscriptionConfig config_;
  JobQueue* queue_;
  NodeId self_;

  /// Guards subs_, retained_, latest_, and the stats below: handle() runs at
  /// delivery time while fan_out may run on a queue worker.
  mutable std::mutex mu_;
  std::map<NodeId, Subscriber> subs_;
  /// Recent pushes, oldest first, heights contiguous; capped at
  /// config.retain.
  std::deque<std::pair<std::int64_t, std::shared_ptr<const Bytes>>> retained_;
  std::int64_t latest_ = -1;  ///< newest published height

  std::uint64_t subscribed_ = 0;
  std::uint64_t rejected_stale_ = 0;
  std::uint64_t rejected_version_ = 0;
  std::uint64_t unsubscribed_ = 0;
  std::uint64_t commits_published_ = 0;
  std::uint64_t commits_shed_ = 0;
  std::uint64_t pushes_sent_ = 0;
  std::uint64_t resync_pushes_ = 0;
  std::uint64_t evicted_slow_ = 0;
  std::uint64_t acks_ = 0;
  RunningStats fanout_stats_;
  RecentWindow fanout_window_{128};
};

}  // namespace mv::net
