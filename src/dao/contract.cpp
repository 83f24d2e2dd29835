#include "dao/contract.h"

#include <cmath>

namespace mv::dao {

namespace {

std::string member_key(crypto::Address a) {
  return "member/" + std::to_string(a.value);
}
std::string meta_key(std::uint64_t id) {
  return "prop/" + std::to_string(id) + "/meta";
}
std::string vote_prefix(std::uint64_t id) {
  return "prop/" + std::to_string(id) + "/vote/";
}
std::string vote_key(std::uint64_t id, crypto::Address a) {
  return vote_prefix(id) + std::to_string(a.value);
}

Bytes encode_u64(std::uint64_t v) {
  ByteWriter w;
  w.u64(v);
  return w.take();
}

struct Meta {
  std::string title;
  std::uint64_t author = 0;
  std::int64_t created_height = 0;
  std::uint8_t status = 0;

  [[nodiscard]] Bytes encode() const {
    ByteWriter w;
    w.str(title);
    w.u64(author);
    w.i64(created_height);
    w.u8(status);
    return w.take();
  }

  /// Lenient: bytes after the status byte are ignored.
  [[nodiscard]] static Result<Meta> decode(const Bytes& bytes) {
    ByteReader r(bytes);
    Meta m;
    m.title = r.str();
    m.author = r.u64();
    m.created_height = r.i64();
    m.status = r.u8();
    if (!r.ok()) return r.error();
    return m;
  }
};

struct BallotRecord {
  std::uint8_t choice = 0;
  std::uint64_t weight = 1;
};

std::optional<BallotRecord> decode_ballot(const Bytes& bytes) {
  ByteReader r(bytes);
  BallotRecord record;
  record.choice = r.u8();
  if (!r.ok() || record.choice > 2) return std::nullopt;
  const std::uint64_t weight = r.u64();
  if (r.ok()) record.weight = weight;
  return record;
}

}  // namespace

Status DaoContract::call(ledger::CallContext& ctx, const std::string& method,
                         const Bytes& args) const {
  if (method == "join") return do_join(ctx);
  if (method == "propose") return do_propose(ctx, args);
  if (method == "vote") return do_vote(ctx, args);
  if (method == "finalize") return do_finalize(ctx, args);
  return Status::fail(errc::kDaoUnknownMethod, method);
}

Status DaoContract::do_join(ledger::CallContext& ctx) const {
  const std::string key = member_key(ctx.caller());
  if (ctx.get(key) != nullptr) {
    return Status::fail(errc::kDaoAlreadyMember, "caller already joined");
  }
  ctx.put(key, encode_u64(1));
  ctx.put("member_count", encode_u64(leading_u64(ctx.get("member_count")) + 1));
  return {};
}

Status DaoContract::do_propose(ledger::CallContext& ctx, const Bytes& args) const {
  if (ctx.get(member_key(ctx.caller())) == nullptr) {
    return Status::fail(errc::kDaoNotAMember, "join first");
  }
  ByteReader r(args);
  std::string title = r.str();
  if (!r.ok()) return Status::fail(errc::kDaoBadArgs, "missing title");

  const std::uint64_t id = leading_u64(ctx.get("next_id"));
  ctx.put("next_id", encode_u64(id + 1));

  Meta meta;
  meta.title = std::move(title);
  meta.author = ctx.caller().value;
  meta.created_height = ctx.height();
  meta.status = static_cast<std::uint8_t>(OnChainStatus::kVoting);
  ctx.put(meta_key(id), meta.encode());
  return {};
}

Status DaoContract::do_vote(ledger::CallContext& ctx, const Bytes& args) const {
  if (ctx.get(member_key(ctx.caller())) == nullptr) {
    return Status::fail(errc::kDaoNotAMember, "join first");
  }
  ByteReader r(args);
  const std::uint64_t id = r.u64();
  const std::uint8_t choice = r.u8();
  if (!r.ok() || choice > 2) {
    return Status::fail(errc::kDaoBadArgs, "vote(id: u64, choice: 0|1|2)");
  }
  const Bytes* meta_bytes = ctx.get(meta_key(id));
  if (meta_bytes == nullptr) {
    return Status::fail(errc::kDaoNoSuchProposal, "unknown proposal");
  }
  auto meta = Meta::decode(*meta_bytes);
  if (!meta.ok()) return Status::fail(errc::kDaoCorruptMeta, "meta undecodable");
  if (meta.value().status != static_cast<std::uint8_t>(OnChainStatus::kVoting)) {
    return Status::fail(errc::kDaoVotingClosed, "proposal finalized");
  }
  if (ctx.height() >= meta.value().created_height + config_.voting_period_blocks) {
    return Status::fail(errc::kDaoVotingClosed, "voting period elapsed");
  }
  const std::string key = vote_key(id, ctx.caller());
  if (ctx.get(key) != nullptr) {
    return Status::fail(errc::kDaoDoubleVote, "ballot already cast");
  }
  // Ballot record: choice + weight. Weight is the caller's balance at vote
  // time under token weighting, 1 otherwise.
  const std::uint64_t weight =
      config_.token_weighted ? std::max<std::uint64_t>(1, ctx.balance(ctx.caller()))
                             : 1;
  ByteWriter w;
  w.u8(choice);
  w.u64(weight);
  ctx.put(key, w.take());
  return {};
}

Status DaoContract::do_finalize(ledger::CallContext& ctx, const Bytes& args) const {
  ByteReader r(args);
  const std::uint64_t id = r.u64();
  if (!r.ok()) return Status::fail(errc::kDaoBadArgs, "finalize(id: u64)");
  const Bytes* meta_bytes = ctx.get(meta_key(id));
  if (meta_bytes == nullptr) {
    return Status::fail(errc::kDaoNoSuchProposal, "unknown proposal");
  }
  auto meta_result = Meta::decode(*meta_bytes);
  if (!meta_result.ok()) return Status::fail(errc::kDaoCorruptMeta, "meta undecodable");
  Meta meta = meta_result.value();
  if (meta.status != static_cast<std::uint8_t>(OnChainStatus::kVoting)) {
    return Status::fail(errc::kDaoAlreadyFinalized, "proposal closed");
  }
  if (ctx.height() < meta.created_height + config_.voting_period_blocks) {
    return Status::fail(errc::kDaoVotingOpen, "voting period not over");
  }

  double counts[3] = {0, 0, 0};
  std::uint64_t voters = 0;
  for (const auto& key : ctx.keys_with_prefix(vote_prefix(id))) {
    const Bytes* ballot = ctx.get(key);
    if (ballot == nullptr) continue;
    const auto record = decode_ballot(*ballot);
    if (!record.has_value()) continue;
    counts[record->choice] += static_cast<double>(record->weight);
    ++voters;
  }
  // Turnout: head-count fraction of members (weight-independent, so whales
  // cannot manufacture quorum on their own under token weighting).
  const double members =
      static_cast<double>(std::max<std::uint64_t>(1, leading_u64(ctx.get("member_count"))));
  const double turnout = static_cast<double>(voters) / members;
  const double decisive = counts[0] + counts[1];
  const double yes_share = decisive > 0.0 ? counts[0] / decisive : 0.0;

  meta.status = static_cast<std::uint8_t>(
      (turnout >= config_.quorum && yes_share > config_.pass_threshold)
          ? OnChainStatus::kPassed
          : OnChainStatus::kRejected);
  ctx.put(meta_key(id), meta.encode());
  return {};
}

std::uint64_t DaoContract::member_count(const ledger::LedgerState& state,
                                        const std::string& contract) {
  const auto* store = state.find_store(contract);
  if (store == nullptr) return 0;
  const auto it = store->find("member_count");
  return it == store->end() ? 0 : leading_u64(&it->second);
}

std::uint64_t DaoContract::proposal_count(const ledger::LedgerState& state,
                                          const std::string& contract) {
  const auto* store = state.find_store(contract);
  if (store == nullptr) return 0;
  const auto it = store->find("next_id");
  return it == store->end() ? 0 : leading_u64(&it->second);
}

Result<DaoContract::ProposalView> DaoContract::proposal(
    const ledger::LedgerState& state, const std::string& contract,
    std::uint64_t id) {
  const auto* store = state.find_store(contract);
  if (store == nullptr) return make_error(errc::kDaoNoStore, "contract has no state");
  const auto meta_it = store->find(meta_key(id));
  if (meta_it == store->end()) {
    return make_error(errc::kDaoNoSuchProposal, "unknown proposal");
  }
  auto meta = Meta::decode(meta_it->second);
  if (!meta.ok()) return meta.error();

  ProposalView view;
  view.title = meta.value().title;
  view.author = crypto::Address{meta.value().author};
  view.created_height = meta.value().created_height;
  view.status = static_cast<OnChainStatus>(meta.value().status);
  const std::string prefix = vote_prefix(id);
  for (auto it = store->lower_bound(prefix); it != store->end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    const auto record = decode_ballot(it->second);
    if (!record.has_value()) continue;
    switch (record->choice) {
      case 0: view.yes += record->weight; break;
      case 1: view.no += record->weight; break;
      case 2: view.abstain += record->weight; break;
      default: break;
    }
  }
  return view;
}

Bytes DaoContract::encode_propose(const std::string& title) {
  ByteWriter w;
  w.str(title);
  return w.take();
}

Bytes DaoContract::encode_vote(std::uint64_t id, std::uint8_t choice) {
  ByteWriter w;
  w.u64(id);
  w.u8(choice);
  return w.take();
}

Bytes DaoContract::encode_finalize(std::uint64_t id) {
  ByteWriter w;
  w.u64(id);
  return w.take();
}

}  // namespace mv::dao
