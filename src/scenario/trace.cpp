#include "scenario/trace.h"

#include <algorithm>
#include <fstream>

namespace mv::scenario {

namespace {

/// Smallest possible encodings, used to bound forged counts before any
/// allocation: a round is at least its tx_count field plus a commitment root;
/// a transaction at least its length prefix.
constexpr std::size_t kMinRoundBytes = 4 + 32;
constexpr std::size_t kMinTxBytes = 4;

crypto::Digest body_checksum(std::span<const std::uint8_t> body) {
  crypto::Sha256 h;
  h.update(std::string_view(kTraceDomain));
  h.update(body);
  return h.finalize();
}

}  // namespace

std::size_t Trace::total_txs() const {
  std::size_t n = 0;
  for (const auto& round : rounds) n += round.txs.size();
  return n;
}

Bytes Trace::encode() const {
  ByteWriter w;
  w.u32(kTraceVersion);
  w.str(header.scenario);
  w.u64(header.seed);
  w.u64(header.avatars);
  w.u32(header.validators);
  w.u64(header.genesis_grant);
  w.u32(header.max_txs_per_block);
  w.raw(header.genesis_root);
  w.u32(static_cast<std::uint32_t>(rounds.size()));
  for (const auto& round : rounds) {
    w.u32(static_cast<std::uint32_t>(round.txs.size()));
    for (const auto& tx : round.txs) w.bytes(tx.encode());
    w.raw(round.commitment_root);
  }
  const crypto::Digest checksum = body_checksum(w.data());
  w.raw(checksum);
  return w.take();
}

Result<Trace> Trace::decode(std::span<const std::uint8_t> bytes) {
  // The checksum covers everything before it, so it is verified first: any
  // mutated byte — header, tx payload, recorded root, or the checksum itself
  // — fails here before a single field is interpreted.
  if (bytes.size() < 32 + 4) {
    return make_error(errc::kTraceTruncated,
                      "trace shorter than checksum + version");
  }
  const auto body = bytes.first(bytes.size() - 32);
  const crypto::Digest want = body_checksum(body);
  if (!std::equal(want.begin(), want.end(), bytes.end() - 32)) {
    return make_error(errc::kTraceBadChecksum, "integrity digest mismatch");
  }

  ByteReader r(body, errc::kTraceTruncated);
  const std::uint32_t version = r.u32();
  if (version != kTraceVersion) {
    r.fail(errc::kTraceBadVersion, "trace version " + std::to_string(version));
  }
  Trace trace;
  TraceHeader& h = trace.header;
  h.scenario = r.str();
  h.seed = r.u64();
  h.avatars = r.u64();
  h.validators = r.u32();
  h.genesis_grant = r.u64();
  h.max_txs_per_block = r.u32();
  r.fixed(h.genesis_root);
  r.require(h.validators != 0 && h.max_txs_per_block != 0, errc::kTraceBadCount,
            "empty validator set or block cap");

  trace.rounds.resize(r.count(SIZE_MAX, kMinRoundBytes, errc::kTraceBadCount));
  for (TraceRound& round : trace.rounds) {
    const std::size_t tx_count = r.count(SIZE_MAX, kMinTxBytes, errc::kTraceBadCount);
    round.txs.reserve(tx_count);
    for (std::size_t t = 0; t < tx_count && r.ok(); ++t) {
      auto tx = ledger::Transaction::decode(r.nested());
      if (!tx.ok()) {
        r.fail(errc::kTraceBadTx, tx.error().to_string());
        break;
      }
      round.txs.push_back(std::move(tx).value());
    }
    r.fixed(round.commitment_root);
  }
  return r.finish(std::move(trace), errc::kTraceBadCount,
                  "trailing bytes before checksum");
}

Result<Trace> load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return make_error(errc::kTraceTruncated, "cannot open " + path);
  Bytes bytes((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  return Trace::decode(bytes);
}

Status save_trace(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::fail(errc::kTraceTruncated, "cannot open " + path);
  const Bytes bytes = trace.encode();
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::fail(errc::kTraceTruncated, "write failed: " + path);
  return {};
}

}  // namespace mv::scenario
