// Block-application configuration and counters, carried by ChainConfig and
// reported by Blockchain::validation_stats(). Block application itself lives
// in ledger/chain.cpp (DESIGN.md §7 "Block application"): one serial loop per
// block, because applying conflict-free transaction groups concurrently was
// slower on 4 cores. The concurrency that pays lives one level up: shard
// fan-out and subscription fan-out on the JobQueue.
#pragma once

#include <cstdint>
#include <memory>

#include "common/job_queue.h"
#include "crypto/digest_lru.h"

namespace mv::ledger {

/// Block-application knobs carried by ChainConfig.
struct ValidationConfig {
  /// Verified-signature memo (crypto/digest_lru.h). When set, block
  /// application consults it before verifying each transaction's signature
  /// and remembers fresh verifications, so a tx checked at mempool admission
  /// is not re-verified at assembly and again at commit. Share one instance per
  /// replica (with its mempool); tampering changes the digest, so a hit is as
  /// strong as re-verifying. null = verify every time.
  std::shared_ptr<crypto::DigestLruSet> sig_cache;
  /// Prioritized executor (common/job_queue.h) for the chain's sheddable
  /// work: Blockchain::prove_account runs as a kClientQuery job on it, and
  /// ShardedLedger::commit_round fans shard commits out on its kConsensus
  /// lane. Block application itself never touches it. null = inline.
  std::shared_ptr<JobQueue> job_queue;
};

/// Monotonic counters over block applications (diagnostics / tests).
struct ValidationStats {
  std::uint64_t applies = 0;  ///< blocks executed by assemble or validate
  /// Always 0. These counted the retired conflict-partitioned engine's
  /// parallel runs, serial fallbacks, and in-place repairs; they stay only
  /// because the repository benchmark (perfbench/) still reports them.
  std::uint64_t parallel_applies = 0;
  std::uint64_t serial_fallbacks = 0;
  std::uint64_t repairs = 0;
  std::uint64_t sig_cache_hits = 0;    ///< signature checks skipped via cache
  std::uint64_t sig_cache_misses = 0;  ///< signature checks actually performed
  /// Blocks validate/append served from the chain's execution memo instead
  /// of being executed again (ledger/chain.h).
  std::uint64_t memo_hits = 0;
};

}  // namespace mv::ledger
