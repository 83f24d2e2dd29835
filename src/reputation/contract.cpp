#include "reputation/contract.h"

#include <algorithm>

namespace mv::reputation {

namespace {

std::string score_key(std::uint64_t addr) {
  return "score/" + std::to_string(addr);
}
std::string last_key(std::uint64_t rater, std::uint64_t subject) {
  return "last/" + std::to_string(rater) + "/" + std::to_string(subject);
}

Bytes enc_i64(std::int64_t v) {
  ByteWriter w;
  w.i64(v);
  return w.take();
}

std::int64_t dec_i64(const Bytes* b) {
  return static_cast<std::int64_t>(leading_u64(b));
}

}  // namespace

Status ReputationContract::call(ledger::CallContext& ctx,
                                const std::string& method,
                                const Bytes& args) const {
  if (method == "rate") return do_rate(ctx, args);
  return Status::fail(errc::kRepUnknownMethod, method);
}

Status ReputationContract::do_rate(ledger::CallContext& ctx,
                                   const Bytes& args) const {
  ByteReader r(args);
  const std::uint64_t subject = r.u64();
  const std::int64_t d = r.i64();
  if (!r.ok() || subject == 0 || d == 0) {
    return Status::fail(errc::kRepBadArgs, "rate(subject: address, delta: i64)");
  }
  if (subject == ctx.caller().value) {
    return Status::fail(errc::kRepSelfRating, "cannot rate yourself");
  }
  if (d > config_.max_abs_delta || d < -config_.max_abs_delta) {
    return Status::fail(errc::kRepDeltaTooLarge,
                        "|delta| above " + std::to_string(config_.max_abs_delta));
  }
  if (config_.cooldown_blocks > 0) {
    const std::string lk = last_key(ctx.caller().value, subject);
    if (const Bytes* last = ctx.get(lk); last != nullptr) {
      const std::int64_t since = ctx.height() - dec_i64(last);
      if (since < config_.cooldown_blocks) {
        return Status::fail(errc::kRepCooldown,
                            "pair rated " + std::to_string(since) + " blocks ago");
      }
    }
    ctx.put(lk, enc_i64(ctx.height()));
  }
  const std::string sk = score_key(subject);
  const std::int64_t updated = std::clamp(dec_i64(ctx.get(sk)) + d,
                                          config_.min_score, config_.max_score);
  ctx.put(sk, enc_i64(updated));
  return {};
}

std::int64_t ReputationContract::score(const ledger::LedgerState& state,
                                       const std::string& contract,
                                       crypto::Address subject) {
  const auto* store = state.find_store(contract);
  if (store == nullptr) return 0;
  const auto it = store->find(score_key(subject.value));
  return it == store->end() ? 0 : dec_i64(&it->second);
}

std::uint64_t ReputationContract::rated_count(const ledger::LedgerState& state,
                                              const std::string& contract) {
  return state.store_keys_with_prefix(contract, "score/").size();
}

Bytes ReputationContract::encode_rate(crypto::Address subject,
                                      std::int64_t delta) {
  ByteWriter w;
  w.u64(subject.value);
  w.i64(delta);
  return w.take();
}

}  // namespace mv::reputation
