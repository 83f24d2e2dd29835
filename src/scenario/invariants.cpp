#include "scenario/invariants.h"

#include <cstring>

#include "dao/contract.h"
#include "moderation/contract.h"
#include "nft/contract.h"

namespace mv::scenario {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

void check_conservation(const ledger::LedgerState& state,
                        const InvariantOptions& opts,
                        std::vector<std::string>& out) {
  std::uint64_t circulating = 0;
  for (const auto& [addr, acc] : state.accounts()) circulating += acc.balance;
  const std::uint64_t total = circulating + state.burned_fees();
  if (total != opts.total_supply) {
    out.push_back("conservation: balances(" + std::to_string(circulating) +
                  ") + burned(" + std::to_string(state.burned_fees()) +
                  ") != supply(" + std::to_string(opts.total_supply) + ")");
  }
}

void check_nft(const ledger::LedgerState& state, const InvariantOptions& opts,
               std::vector<std::string>& out) {
  const auto* store = state.find_store(opts.nft_contract);
  if (store == nullptr) return;  // no nft traffic yet
  std::uint64_t owners = 0;
  std::uint64_t listings = 0;
  for (const auto& [key, value] : *store) {
    if (starts_with(key, "token/") && ends_with(key, "/owner")) ++owners;
    if (starts_with(key, "listing/")) {
      ++listings;
      const std::string id = key.substr(std::strlen("listing/"));
      if (store->find("token/" + id + "/owner") == store->end()) {
        out.push_back("nft: listing for nonexistent token " + id);
      }
      if (leading_u64(&value) == 0) {
        out.push_back("nft: zero-price listing for token " + id);
      }
    }
  }
  const std::uint64_t next = nft::NftContract::token_count(state);
  if (owners != next) {
    out.push_back("nft: owner records (" + std::to_string(owners) +
                  ") != next_token (" + std::to_string(next) + ")");
  }
  if (listings > owners) {
    out.push_back("nft: more listings than tokens");
  }
}

void check_dao(const ledger::LedgerState& state, const InvariantOptions& opts,
               std::vector<std::string>& out) {
  const auto* store = state.find_store(opts.dao_contract);
  if (store == nullptr) return;
  std::uint64_t members = 0;
  std::uint64_t proposals = 0;
  for (const auto& [key, value] : *store) {
    if (starts_with(key, "member/")) ++members;
    if (starts_with(key, "prop/") && ends_with(key, "/meta")) ++proposals;
    const std::size_t vote_at = key.find("/vote/");
    if (starts_with(key, "prop/") && vote_at != std::string::npos) {
      const std::string voter = key.substr(vote_at + std::strlen("/vote/"));
      if (store->find("member/" + voter) == store->end()) {
        out.push_back("dao: ballot from non-member " + voter + " on " + key);
      }
    }
  }
  const std::uint64_t member_count =
      dao::DaoContract::member_count(state, opts.dao_contract);
  if (member_count != members) {
    out.push_back("dao: member_count (" + std::to_string(member_count) +
                  ") != member records (" + std::to_string(members) + ")");
  }
  const std::uint64_t next_id =
      dao::DaoContract::proposal_count(state, opts.dao_contract);
  if (next_id != proposals) {
    out.push_back("dao: next_id (" + std::to_string(next_id) +
                  ") != proposal records (" + std::to_string(proposals) + ")");
  }
}

void check_reputation(const ledger::LedgerState& state,
                      const InvariantOptions& opts,
                      std::vector<std::string>& out) {
  const auto* store = state.find_store(opts.reputation_contract);
  if (store == nullptr) return;
  for (const auto& [key, value] : *store) {
    if (!starts_with(key, "score/")) continue;
    const std::int64_t score = static_cast<std::int64_t>(leading_u64(&value));
    if (score < opts.rep_min || score > opts.rep_max) {
      out.push_back("reputation: " + key + " = " + std::to_string(score) +
                    " outside [" + std::to_string(opts.rep_min) + ", " +
                    std::to_string(opts.rep_max) + "]");
    }
  }
}

void check_moderation(const ledger::LedgerState& state,
                      const InvariantOptions& opts,
                      std::vector<std::string>& out) {
  const auto* store = state.find_store(opts.moderation_contract);
  if (store == nullptr) return;
  std::uint64_t records = 0;
  std::uint64_t open = 0;
  std::uint64_t upheld = 0;
  for (const auto& [key, value] : *store) {
    if (!starts_with(key, "report/")) continue;
    ++records;
    auto view = moderation::ModerationContract::report(
        state, opts.moderation_contract,
        std::strtoull(key.c_str() + std::strlen("report/"), nullptr, 10));
    if (!view.ok()) {
      out.push_back("moderation: corrupt record at " + key);
      continue;
    }
    switch (view.value().status) {
      case moderation::ReportStatus::kOpen: ++open; break;
      case moderation::ReportStatus::kUpheld: ++upheld; break;
      case moderation::ReportStatus::kDismissed: break;
    }
  }
  const auto& name = opts.moderation_contract;
  if (moderation::ModerationContract::report_count(state, name) != records) {
    out.push_back("moderation: next_id != report records");
  }
  if (moderation::ModerationContract::open_count(state, name) != open) {
    out.push_back("moderation: open_count != open records");
  }
  if (moderation::ModerationContract::upheld_count(state, name) != upheld) {
    out.push_back("moderation: upheld_count != upheld records");
  }
}

}  // namespace

std::vector<std::string> check_invariants(const ledger::LedgerState& state,
                                          const InvariantOptions& opts,
                                          const ledger::Mempool* pool) {
  std::vector<std::string> out;
  if (opts.check_conservation) check_conservation(state, opts, out);
  check_nft(state, opts, out);
  check_dao(state, opts, out);
  check_reputation(state, opts, out);
  check_moderation(state, opts, out);
  if (opts.check_full_rehash &&
      !(state.full_rehash_commitment() == state.commitment())) {
    out.push_back("commitment: full rehash diverges from incremental root");
  }
  if (pool != nullptr && !pool->self_check()) {
    out.push_back("mempool: self_check failed");
  }
  return out;
}

std::vector<std::string> check_sharded_invariants(
    const ledger::ShardedLedger& ledger, const InvariantOptions& opts) {
  const std::size_t n = ledger.num_shards();
  std::vector<std::string> out;

  InvariantOptions per_shard = opts;
  per_shard.check_conservation = false;
  std::uint64_t circulating = 0;
  std::uint64_t burned = 0;
  std::vector<std::uint64_t> locked_by(n, 0);
  std::vector<std::uint64_t> minted_from(n, 0);

  for (std::uint32_t s = 0; s < n; ++s) {
    const ledger::LedgerState& state = ledger.state(s);
    for (std::string& v : check_invariants(state, per_shard)) {
      out.push_back("shard " + std::to_string(s) + ": " + std::move(v));
    }
    for (const auto& [addr, acc] : state.accounts()) circulating += acc.balance;
    burned += state.burned_fees();

    const auto* store = state.find_store(ledger::kXShardContractName);
    if (store == nullptr) continue;
    const auto fetch = [&](const char* key) {
      const auto it = store->find(key);
      return it == store->end() ? 0 : leading_u64(&it->second);
    };
    locked_by[s] = fetch(ledger::kXShardLockedTotalKey);
    const std::uint64_t next_id = fetch(ledger::kXShardNextIdKey);

    std::uint64_t receipt_records = 0;
    std::uint64_t locked_in_receipts = 0;
    for (const auto& [key, value] : *store) {
      if (starts_with(key, "receipt/")) {
        ++receipt_records;
        const auto receipt = ledger::CrossShardReceipt::decode(value);
        if (!receipt.ok()) {
          out.push_back("xshard: undecodable receipt at shard " +
                        std::to_string(s) + " " + key);
          continue;
        }
        if (receipt.value().source_shard != s) {
          out.push_back("xshard: receipt " + key + " on shard " +
                        std::to_string(s) + " claims source " +
                        std::to_string(receipt.value().source_shard));
        }
        if (key != ledger::xshard_receipt_key(receipt.value().id)) {
          out.push_back("xshard: receipt id/key mismatch at " + key);
        }
        locked_in_receipts += receipt.value().amount;
      } else if (starts_with(key, "spent/")) {
        // "spent/<16-hex source>/<16-hex id>" minted on THIS shard against a
        // receipt that must exist on the source shard and name this shard.
        const char* cursor = key.c_str() + std::strlen("spent/");
        char* end = nullptr;
        const std::uint64_t src = std::strtoull(cursor, &end, 16);
        const std::uint64_t id =
            end != nullptr && *end == '/' ? std::strtoull(end + 1, nullptr, 16)
                                          : 0;
        if (src >= n) {
          out.push_back("xshard: spent marker with bad source shard: " + key);
          continue;
        }
        minted_from[src] += leading_u64(&value);
        const auto* src_store =
            ledger.state(static_cast<std::uint32_t>(src))
                .find_store(ledger::kXShardContractName);
        if (src_store == nullptr) {
          out.push_back("xshard: spent marker without source receipt: " + key);
          continue;
        }
        const auto rit = src_store->find(ledger::xshard_receipt_key(id));
        if (rit == src_store->end()) {
          out.push_back("xshard: spent marker without source receipt: " + key);
          continue;
        }
        const auto receipt = ledger::CrossShardReceipt::decode(rit->second);
        if (!receipt.ok() || receipt.value().dest_shard != s ||
            receipt.value().amount != leading_u64(&value)) {
          out.push_back("xshard: spent marker disagrees with receipt: " + key);
        }
      }
    }
    if (receipt_records != next_id) {
      out.push_back("xshard: shard " + std::to_string(s) + " has " +
                    std::to_string(receipt_records) + " receipts but next_id " +
                    std::to_string(next_id));
    }
    if (locked_in_receipts != locked_by[s]) {
      out.push_back("xshard: shard " + std::to_string(s) +
                    " receipt amounts sum to " +
                    std::to_string(locked_in_receipts) + " but locked_total " +
                    std::to_string(locked_by[s]));
    }
  }

  std::uint64_t locked = 0;
  std::uint64_t minted = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    locked += locked_by[s];
    minted += minted_from[s];
    if (minted_from[s] > locked_by[s]) {
      out.push_back("xshard: shard " + std::to_string(s) + " minted " +
                    std::to_string(minted_from[s]) + " against only " +
                    std::to_string(locked_by[s]) + " locked");
    }
  }
  const std::uint64_t total = circulating + burned + locked - minted;
  if (total != opts.total_supply) {
    out.push_back(
        "conservation (sharded): balances(" + std::to_string(circulating) +
        ") + burned(" + std::to_string(burned) + ") + locked(" +
        std::to_string(locked) + ") - minted(" + std::to_string(minted) +
        ") != supply(" + std::to_string(opts.total_supply) + ")");
  }
  return out;
}

}  // namespace mv::scenario
