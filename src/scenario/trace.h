// Event-sourced scenario traces ("mv.trace.v1").
//
// A scenario IS a trace, and the trace IS the regression test: the generator
// (scenario/scenario.h) emits per-round transaction batches, the harness
// (scenario/harness.h) executes them, and this module freezes the whole run
// into one append-only byte stream — environment derivation parameters, every
// submitted transaction round by round, and the per-block StateCommitment
// root the execution produced. Replaying the trace through a fresh stack must
// reproduce the recorded root sequence bit for bit; any divergence is a
// whole-stack regression (ledger, contracts, mempool, scheduler — anything).
//
// Wire format (strict; little-endian, length-prefixed via common/bytes.h):
//
//   u32  version            (kTraceVersion)
//   str  scenario           mix name, provenance + mix lookup at replay
//   u64  seed               every wallet/decision stream derives from this
//   u64  avatars
//   u32  validators
//   u64  genesis_grant
//   u32  max_txs_per_block
//   raw  genesis_root[32]   commitment root of the derived genesis state
//   u32  rounds
//   per round:
//     u32  tx_count
//     per tx: bytes         Transaction::encode()
//     raw  commitment_root[32]   post-block state root
//   raw  checksum[32]       sha256("mv.trace.v1" || all preceding bytes)
//
// The trailing checksum is what makes the "no semantically inert bytes"
// discipline total: provenance fields (the mix name, the seed) do not steer
// the replayed state machine directly, but no byte of the stream — theirs
// included — can change without decode failing. The every-byte mutation fuzz
// in scenario_test.cpp holds this.
#pragma once

#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "ledger/transaction.h"

namespace mv::scenario {

inline constexpr std::uint32_t kTraceVersion = 1;
inline constexpr const char* kTraceDomain = "mv.trace.v1";

/// Environment derivation parameters: everything replay needs to rebuild the
/// exact genesis state, wallets, and contract registry the recorder used.
struct TraceHeader {
  std::string scenario;  ///< mix name (scenario/scenario.h catalog)
  std::uint64_t seed = 0;
  std::uint64_t avatars = 0;
  std::uint32_t validators = 0;
  std::uint64_t genesis_grant = 0;
  std::uint32_t max_txs_per_block = 0;
  /// Commitment root of the genesis state derived from the fields above.
  /// Replay rebuilds the environment and refuses to run if its genesis does
  /// not reproduce this root — catches wallet-derivation or genesis drift
  /// before a single block is replayed.
  crypto::Digest genesis_root{};
};

/// One consensus round: the transactions submitted (in submission order) and
/// the state root the committed block produced.
struct TraceRound {
  std::vector<ledger::Transaction> txs;
  crypto::Digest commitment_root{};
};

struct Trace {
  TraceHeader header;
  std::vector<TraceRound> rounds;

  [[nodiscard]] std::size_t total_txs() const;

  [[nodiscard]] Bytes encode() const;
  /// Strict decode: checksum verified over the whole stream first, then
  /// version, bounded counts (a forged count larger than the remaining bytes
  /// is rejected before any allocation), per-transaction strict decode, and
  /// an exhausted check. Every failure names a trace.* code.
  [[nodiscard]] static Result<Trace> decode(std::span<const std::uint8_t> bytes);
};

/// Read/write helpers for golden-trace files (tests/data/*.trace).
[[nodiscard]] Result<Trace> load_trace(const std::string& path);
[[nodiscard]] Status save_trace(const Trace& trace, const std::string& path);

}  // namespace mv::scenario
