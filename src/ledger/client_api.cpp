#include "ledger/client_api.h"

#include <string>
#include <utility>

namespace mv::ledger {

namespace {

Bytes encode_ok(const Bytes& payload) {
  ByteWriter w;
  w.u32(kClientApiVersion);
  w.u8(1);
  w.bytes(payload);
  return w.take();
}

Bytes encode_err(const Error& e) {
  ByteWriter w;
  w.u32(kClientApiVersion);
  w.u8(0);
  w.str(e.code);
  w.str(e.message);
  return w.take();
}

}  // namespace

Error ClientApi::to_api_error(Error e) {
  if (e.code == errc::kChainBadHeight) {
    e.code = errc::kApiBadHeight;
  } else if (e.code == errc::kChainPrunedHeight) {
    e.code = errc::kApiPrunedHeight;
  } else if (e.code == errc::kChainStaleHeight) {
    e.code = errc::kApiStaleHeight;
  } else if (e.code == errc::kChainOverloaded) {
    e.code = errc::kApiOverloaded;
  }
  return e;
}

Result<BlockHeader> ClientApi::header(std::int64_t height) const {
  if (height < 0 || height >= chain_.height()) {
    return make_error(errc::kApiBadHeight, "no such block");
  }
  const Block* block = chain_.block_at(height);
  if (block == nullptr) {
    return make_error(errc::kApiPrunedHeight,
                      "header below the snapshot base is not held");
  }
  return block->header;
}

Result<AccountProof> ClientApi::account_proof(crypto::Address address,
                                              std::int64_t height) const {
  auto proof = chain_.prove_account(address, height);
  if (!proof.ok()) return to_api_error(proof.error());
  return proof;
}

Result<Snapshot> ClientApi::snapshot_at(std::int64_t height) const {
  auto snapshot = chain_.export_snapshot(height);
  if (!snapshot.ok()) return to_api_error(snapshot.error());
  return snapshot;
}

Result<net::SubscriptionStats> ClientApi::subscription_stats() const {
  if (subscriptions_ == nullptr) {
    return make_error(errc::kApiNoSubscriptionService,
                      "node runs no subscription service");
  }
  return subscriptions_->stats();
}

Status ClientApi::drop_subscriber(NodeId node) {
  if (subscriptions_ == nullptr) {
    return Status::fail(errc::kApiNoSubscriptionService,
                        "node runs no subscription service");
  }
  if (Status s = subscriptions_->drop(node); !s.ok()) {
    return Status::fail(errc::kApiUnknownSubscription, s.error().message);
  }
  return {};
}

Bytes ClientApi::dispatch(std::span<const std::uint8_t> request) const {
  ByteReader r(request);
  const std::uint32_t version = r.u32();
  const std::uint8_t kind = r.u8();
  if (!r.ok()) {
    return encode_err(
        Error{errc::kApiBadRequest, "truncated request envelope"});
  }
  if (version != kClientApiVersion) {
    return encode_err(Error{errc::kApiBadVersion,
                            "client speaks version " + std::to_string(version) +
                                ", node speaks " +
                                std::to_string(kClientApiVersion)});
  }
  switch (static_cast<ClientRequest>(kind)) {
    case ClientRequest::kTip: {
      if (!r.finish().ok()) {
        return encode_err(Error{errc::kApiBadRequest, "trailing bytes"});
      }
      ByteWriter w;
      w.i64(tip_height());
      return encode_ok(w.take());
    }
    case ClientRequest::kHeader: {
      const std::int64_t height = r.i64();
      if (!r.finish().ok()) {
        return encode_err(Error{errc::kApiBadRequest, "malformed header request"});
      }
      auto h = header(height);
      if (!h.ok()) return encode_err(h.error());
      return encode_ok(h.value().encode());
    }
    case ClientRequest::kAccountProof: {
      const crypto::Address address{r.u64()};
      const std::int64_t height = r.i64();
      if (!r.finish().ok()) {
        return encode_err(Error{errc::kApiBadRequest, "malformed proof request"});
      }
      auto proof = account_proof(address, height);
      if (!proof.ok()) return encode_err(proof.error());
      return encode_ok(proof.value().encode());
    }
  }
  return encode_err(Error{errc::kApiBadRequest,
                          "unknown request kind " + std::to_string(kind)});
}

}  // namespace mv::ledger
