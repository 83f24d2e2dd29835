// ClientApi: the one versioned facade for everything a client asks a node.
//
// Before this existed, client-facing reads were scattered per-subsystem
// entry points with per-subsystem error vocabularies: prove_account on the
// chain ("chain.*"), snapshot export on the chain, subscription admin on the
// server. ClientApi fronts them all behind a uniform Result-based taxonomy —
// every error a client can see is an "api.*" code from common/result.h
// (errc), with errc::is_transient() telling it whether to retry — plus an
// explicit wire version, so client and node can disagree about software age
// without disagreeing about bytes.
//
// Two surfaces, same semantics:
//   - typed methods (header / account_proof / snapshot_at / subscription
//     admin) for in-process callers and tests;
//   - dispatch(): a versioned request/response envelope for remote callers,
//     carrying the same payload encodings the rest of the system uses
//     (BlockHeader::encode, AccountProof::encode). A request with the wrong
//     version is answered with api.bad_version, a malformed one with
//     api.bad_request — never silence.
//
// Streaming reads (subscriptions) ride net/subscription.h; this facade
// exposes their admin/observability side. Error taxonomy table: DESIGN.md
// §11.
#pragma once

#include <optional>

#include "ledger/chain.h"
#include "net/subscription.h"

namespace mv::ledger {

/// Client API wire version (the envelope's; payload encodings version
/// independently, e.g. CommitPush).
inline constexpr std::uint32_t kClientApiVersion = 1;

/// dispatch() request kinds.
enum class ClientRequest : std::uint8_t {
  kTip = 0,           ///< no args; answers i64 tip height (-1 when empty)
  kHeader = 1,        ///< i64 height; answers BlockHeader::encode()
  kAccountProof = 2,  ///< u64 address, i64 height; answers AccountProof::encode()
};

class ClientApi {
 public:
  /// `subscriptions` may be null (node without a streaming read path); the
  /// subscription surface then answers api.no_subscription_service.
  explicit ClientApi(const Blockchain& chain,
                     net::SubscriptionServer* subscriptions = nullptr)
      : chain_(chain), subscriptions_(subscriptions) {}

  /// Newest committed height; -1 while the chain is empty.
  [[nodiscard]] std::int64_t tip_height() const { return chain_.height() - 1; }

  /// Committed header at `height` (api.bad_height out of range,
  /// api.pruned_height below a snapshot-initialized chain's base).
  [[nodiscard]] Result<BlockHeader> header(std::int64_t height) const;

  /// One-shot account proof at `height`; the streaming equivalent is a
  /// subscription. chain.* failures surface as their api.* mappings
  /// (api.stale_height beyond retention, api.overloaded when the query lane
  /// shed — the transient one).
  [[nodiscard]] Result<AccountProof> account_proof(crypto::Address address,
                                                   std::int64_t height) const;

  /// Verified snapshot for bootstrap (same height rules as account_proof).
  [[nodiscard]] Result<Snapshot> snapshot_at(std::int64_t height) const;

  // --- subscription administration (api.no_subscription_service without a
  // --- server; subscribing itself is wire-level: net/subscription.h).
  [[nodiscard]] Result<net::SubscriptionStats> subscription_stats() const;
  /// Forcibly remove `node`'s subscription (api.unknown_subscription when it
  /// holds none).
  [[nodiscard]] Status drop_subscriber(NodeId node);

  /// Serve one encoded request (u32 version, u8 kind, args). Always answers:
  /// u32 version, u8 ok, then payload bytes (ok=1) or code + message strings
  /// (ok=0). Malformed input answers api.bad_request, a version mismatch
  /// api.bad_version.
  [[nodiscard]] Bytes dispatch(std::span<const std::uint8_t> request) const;

 private:
  /// Fold a subsystem error into the api.* taxonomy (passthrough when no
  /// mapping applies — api codes stay a superset, never a lossy rename).
  [[nodiscard]] static Error to_api_error(Error e);

  const Blockchain& chain_;
  net::SubscriptionServer* subscriptions_;
};

}  // namespace mv::ledger
