#include "nft/contract.h"

namespace mv::nft {

namespace {

std::string owner_key(std::uint64_t id) { return "token/" + std::to_string(id) + "/owner"; }
std::string creator_key(std::uint64_t id) { return "token/" + std::to_string(id) + "/creator"; }
std::string uri_key(std::uint64_t id) { return "token/" + std::to_string(id) + "/uri"; }
std::string royalty_key(std::uint64_t id) { return "token/" + std::to_string(id) + "/royalty"; }
std::string listing_key(std::uint64_t id) { return "listing/" + std::to_string(id); }

Bytes enc_u64(std::uint64_t v) {
  ByteWriter w;
  w.u64(v);
  return w.take();
}
Bytes enc_u32(std::uint32_t v) {
  ByteWriter w;
  w.u32(v);
  return w.take();
}
Bytes enc_str(const std::string& s) {
  ByteWriter w;
  w.str(s);
  return w.take();
}

std::uint32_t dec_u32(const Bytes* b, std::uint32_t fallback = 0) {
  if (b == nullptr) return fallback;
  ByteReader r(*b);
  const std::uint32_t v = r.u32();
  return r.ok() ? v : fallback;
}

constexpr std::uint32_t kMaxRoyaltyBps = 5000;  // 50% cap

}  // namespace

Status NftContract::call(ledger::CallContext& ctx, const std::string& method,
                         const Bytes& args) const {
  if (method == "mint") return do_mint(ctx, args);
  if (method == "transfer") return do_transfer(ctx, args);
  if (method == "list") return do_list(ctx, args);
  if (method == "cancel") return do_cancel(ctx, args);
  if (method == "buy") return do_buy(ctx, args);
  return Status::fail(errc::kNftUnknownMethod, method);
}

Status NftContract::do_mint(ledger::CallContext& ctx, const Bytes& args) const {
  ByteReader r(args);
  const std::string uri = r.str();
  const std::uint32_t royalty = r.u32();
  if (!r.ok()) {
    return Status::fail(errc::kNftBadArgs, "mint(uri: str, royalty_bps: u32)");
  }
  if (royalty > kMaxRoyaltyBps) {
    return Status::fail(errc::kNftRoyaltyTooHigh, "royalty above 50%");
  }
  const std::uint64_t id = leading_u64(ctx.get("next_token"));
  ctx.put("next_token", enc_u64(id + 1));
  ctx.put(owner_key(id), enc_u64(ctx.caller().value));
  ctx.put(creator_key(id), enc_u64(ctx.caller().value));
  ctx.put(uri_key(id), enc_str(uri));
  ctx.put(royalty_key(id), enc_u32(royalty));
  return {};
}

Status NftContract::do_transfer(ledger::CallContext& ctx, const Bytes& args) const {
  ByteReader r(args);
  const std::uint64_t token = r.u64();
  const std::uint64_t to = r.u64();
  if (!r.ok() || to == 0) {
    return Status::fail(errc::kNftBadArgs, "transfer(token: u64, to: address)");
  }
  const Bytes* owner = ctx.get(owner_key(token));
  if (owner == nullptr) return Status::fail(errc::kNftNoSuchToken, "unknown token");
  if (leading_u64(owner) != ctx.caller().value) {
    return Status::fail(errc::kNftNotOwner, "caller does not own the token");
  }
  if (ctx.get(listing_key(token)) != nullptr) {
    return Status::fail(errc::kNftListed, "cancel the listing before transferring");
  }
  ctx.put(owner_key(token), enc_u64(to));
  return {};
}

Status NftContract::do_list(ledger::CallContext& ctx, const Bytes& args) const {
  ByteReader r(args);
  const std::uint64_t token = r.u64();
  const std::uint64_t price = r.u64();
  if (!r.ok() || price == 0) {
    return Status::fail(errc::kNftBadArgs, "list(token: u64, price: u64 > 0)");
  }
  const Bytes* owner = ctx.get(owner_key(token));
  if (owner == nullptr) return Status::fail(errc::kNftNoSuchToken, "unknown token");
  if (leading_u64(owner) != ctx.caller().value) {
    return Status::fail(errc::kNftNotOwner, "caller does not own the token");
  }
  ctx.put(listing_key(token), enc_u64(price));
  return {};
}

Status NftContract::do_cancel(ledger::CallContext& ctx, const Bytes& args) const {
  ByteReader r(args);
  const std::uint64_t token = r.u64();
  if (!r.ok()) return Status::fail(errc::kNftBadArgs, "cancel(token: u64)");
  const Bytes* owner = ctx.get(owner_key(token));
  if (owner == nullptr) return Status::fail(errc::kNftNoSuchToken, "unknown token");
  if (leading_u64(owner) != ctx.caller().value) {
    return Status::fail(errc::kNftNotOwner, "caller does not own the token");
  }
  if (ctx.get(listing_key(token)) == nullptr) {
    return Status::fail(errc::kNftNotListed, "no open listing");
  }
  ctx.erase(listing_key(token));
  return {};
}

Status NftContract::do_buy(ledger::CallContext& ctx, const Bytes& args) const {
  ByteReader r(args);
  const std::uint64_t token = r.u64();
  if (!r.ok()) return Status::fail(errc::kNftBadArgs, "buy(token: u64)");
  const Bytes* listing = ctx.get(listing_key(token));
  if (listing == nullptr) return Status::fail(errc::kNftNotListed, "no open listing");
  const std::uint64_t price = leading_u64(listing);
  const crypto::Address seller{leading_u64(ctx.get(owner_key(token)))};
  const crypto::Address creator{leading_u64(ctx.get(creator_key(token)))};
  if (seller == ctx.caller()) {
    return Status::fail(errc::kNftSelfPurchase, "cannot buy your own listing");
  }
  const std::uint32_t royalty_bps = dec_u32(ctx.get(royalty_key(token)));
  const std::uint64_t royalty =
      price * royalty_bps / 10000;  // creator share of every sale
  const std::uint64_t seller_cut = price - royalty;
  if (auto s = ctx.transfer(ctx.caller(), seller, seller_cut); !s.ok()) return s;
  if (royalty > 0) {
    if (auto s = ctx.transfer(ctx.caller(), creator, royalty); !s.ok()) return s;
  }
  ctx.put(owner_key(token), enc_u64(ctx.caller().value));
  ctx.erase(listing_key(token));
  return {};
}

std::uint64_t NftContract::token_count(const ledger::LedgerState& state) {
  const auto* store = state.find_store("nft");
  if (store == nullptr) return 0;
  const auto it = store->find("next_token");
  return it == store->end() ? 0 : leading_u64(&it->second);
}

Result<NftContract::TokenView> NftContract::token(
    const ledger::LedgerState& state, std::uint64_t id) {
  const auto* store = state.find_store("nft");
  if (store == nullptr) return make_error(errc::kNftNoStore, "no contract state");
  const auto owner = store->find(owner_key(id));
  if (owner == store->end()) return make_error(errc::kNftNoSuchToken, "unknown token");
  TokenView view;
  view.owner = crypto::Address{leading_u64(&owner->second)};
  if (const auto it = store->find(creator_key(id)); it != store->end()) {
    view.creator = crypto::Address{leading_u64(&it->second)};
  }
  if (const auto it = store->find(uri_key(id)); it != store->end()) {
    ByteReader r(it->second);
    std::string uri = r.str();
    if (r.ok()) view.uri = std::move(uri);
  }
  if (const auto it = store->find(royalty_key(id)); it != store->end()) {
    view.royalty_bps = dec_u32(&it->second);
  }
  return view;
}

std::uint64_t NftContract::listing_price(const ledger::LedgerState& state,
                                         std::uint64_t id) {
  const auto* store = state.find_store("nft");
  if (store == nullptr) return 0;
  const auto it = store->find(listing_key(id));
  return it == store->end() ? 0 : leading_u64(&it->second);
}

std::vector<std::uint64_t> NftContract::tokens_of(
    const ledger::LedgerState& state, crypto::Address owner) {
  std::vector<std::uint64_t> out;
  const std::uint64_t n = token_count(state);
  for (std::uint64_t id = 0; id < n; ++id) {
    auto view = token(state, id);
    if (view.ok() && view.value().owner == owner) out.push_back(id);
  }
  return out;
}

Bytes NftContract::encode_mint(const std::string& uri, std::uint32_t royalty_bps) {
  ByteWriter w;
  w.str(uri);
  w.u32(royalty_bps);
  return w.take();
}

Bytes NftContract::encode_transfer(std::uint64_t token, crypto::Address to) {
  ByteWriter w;
  w.u64(token);
  w.u64(to.value);
  return w.take();
}

Bytes NftContract::encode_list(std::uint64_t token, std::uint64_t price) {
  ByteWriter w;
  w.u64(token);
  w.u64(price);
  return w.take();
}

Bytes NftContract::encode_token(std::uint64_t token) {
  ByteWriter w;
  w.u64(token);
  return w.take();
}

}  // namespace mv::nft
