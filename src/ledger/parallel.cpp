#include "ledger/parallel.h"

#include <utility>

namespace mv::ledger {

BlockApplyOutcome apply_block(LedgerStateOverlay& scratch,
                              const std::vector<Transaction>& txs,
                              std::span<const crypto::Digest> digests,
                              const ContractRegistry& contracts, Tick height,
                              crypto::DigestLruSet* sig_cache, ApplyMode mode,
                              std::size_t max_applied) {
  BlockApplyOutcome out;
  for (std::size_t i = 0; i < txs.size() && out.applied.size() < max_applied;
       ++i) {
    const Transaction& tx = txs[i];
    bool preverified = false;
    if (sig_cache != nullptr) {
      const crypto::Digest& digest = digests[i];
      if (sig_cache->contains_and_touch(digest)) {
        preverified = true;
        ++out.sig_hits;
      } else {
        ++out.sig_misses;
        preverified = tx.signature_valid();
        if (preverified) sig_cache->insert(digest);
      }
    }
    if (Status s = scratch.apply(tx, contracts, height, preverified); s.ok()) {
      out.applied.push_back(i);
    } else if (mode == ApplyMode::kAllOrNothing) {
      out.status = std::move(s);
      out.failed_index = i;
      return out;
    }
  }
  return out;
}

}  // namespace mv::ledger
