// Block application: a block's transactions applied one by one, in block
// order, on the calling thread, with the verified-signature memo consulted
// before each signature check (DESIGN.md §7 "Block application").
//
// Application is deliberately serial: measured on 4 cores, applying
// conflict-free transaction groups concurrently was slower than this loop
// (DESIGN.md §7). The concurrency that pays lives one level up: shard
// fan-out and subscription fan-out on the JobQueue.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/job_queue.h"
#include "crypto/digest_lru.h"
#include "ledger/state.h"
#include "ledger/transaction.h"

namespace mv::ledger {

/// Block-application knobs carried by ChainConfig.
struct ValidationConfig {
  /// Verified-signature memo (crypto/digest_lru.h). When set, apply_block
  /// consults it before verifying each transaction's signature and remembers
  /// fresh verifications, so a tx checked at mempool admission is not
  /// re-verified at assembly and again at commit. Share one instance per
  /// replica (with its mempool); tampering changes the digest, so a hit is as
  /// strong as re-verifying. null = verify every time.
  std::shared_ptr<crypto::DigestLruSet> sig_cache;
  /// Prioritized executor (common/job_queue.h) for the chain's sheddable
  /// work: Blockchain::prove_account runs as a kClientQuery job on it, and
  /// ShardedLedger::commit_round fans shard commits out on its kConsensus
  /// lane. Block application itself never touches it. null = inline.
  std::shared_ptr<JobQueue> job_queue;
};

enum class ApplyMode {
  kAllOrNothing,  ///< validation: first failure rejects the whole block
  kSkipFailures,  ///< assembly: failed candidates are dropped, rest proceed
};

/// Outcome of apply_block(). `status`/`failed_index` are meaningful in
/// kAllOrNothing mode; `applied` lists the indices applied (ascending), which
/// in kSkipFailures mode is the assembled block's content.
struct BlockApplyOutcome {
  Status status;
  std::size_t failed_index = 0;
  std::vector<std::size_t> applied;
  // Both zero when no sig_cache is configured (cacheless verification is
  // not counted).
  std::size_t sig_hits = 0;    ///< signatures vouched for by the sig cache
  std::size_t sig_misses = 0;  ///< cache misses verified afresh
};

/// Monotonic counters over apply_block() outcomes (diagnostics / tests).
struct ValidationStats {
  std::uint64_t applies = 0;  ///< apply_block invocations
  /// Always 0. These counted the retired conflict-partitioned engine's
  /// parallel runs, serial fallbacks, and in-place repairs; they stay only
  /// because the repository benchmark (perfbench/) still reports them.
  std::uint64_t parallel_applies = 0;
  std::uint64_t serial_fallbacks = 0;
  std::uint64_t repairs = 0;
  std::uint64_t sig_cache_hits = 0;    ///< signature checks skipped via cache
  std::uint64_t sig_cache_misses = 0;  ///< signature checks actually performed

  void record(const BlockApplyOutcome& outcome) {
    ++applies;
    sig_cache_hits += outcome.sig_hits;
    sig_cache_misses += outcome.sig_misses;
  }
};

/// Apply `txs` onto `scratch` (an overlay the caller constructed over the
/// base state) one by one, in order. Each signature is looked up in
/// `sig_cache` (when non-null) first; a miss is verified here and, if
/// valid, remembered. An invalid signature is left to apply(), which
/// re-verifies and produces the authoritative error. kAllOrNothing stops at
/// the first failure; kSkipFailures drops failures and stops once
/// `max_applied` transactions have applied.
[[nodiscard]] BlockApplyOutcome apply_block(
    LedgerStateOverlay& scratch, const std::vector<Transaction>& txs,
    const ContractRegistry& contracts, Tick height,
    crypto::DigestLruSet* sig_cache, ApplyMode mode,
    std::size_t max_applied = std::numeric_limits<std::size_t>::max());

}  // namespace mv::ledger
