#include "ledger/snapshot.h"

#include <algorithm>

namespace mv::ledger {

namespace {

constexpr std::string_view kPayloadTag = "mv.snapshot.v1";
constexpr std::uint8_t kManifestVersion = 1;

// Per-entry minimum wire sizes, used to reject counts that could not
// possibly fit in the remaining buffer before allocating for them.
constexpr std::size_t kMinAccountEntry = 8 + 1 + 8;   // addr + flags + nonce
constexpr std::size_t kMinAuditEntry = 8 + 4 + 8;     // collector + body len + height
constexpr std::size_t kMinContractEntry = 4 + 8;      // name len + entry count
constexpr std::size_t kMinStoreEntry = 4 + 4;         // key len + value len

// Full-width on purpose: truncating this to uint32_t would let a huge
// total_bytes alias a small chunk count (2^34 + n truncates to n) and slip
// through the geometry check into an attacker-sized allocation.
std::uint64_t chunk_count_for(std::uint64_t total_bytes, std::uint32_t chunk_size) {
  return (total_bytes + chunk_size - 1) / chunk_size;
}

// The contiguous byte stream snapshot_chunk_digest's HashWriter hashes
// (tagged prefix, index, length-prefixed data), materialized so pairs of
// chunks can run through crypto::sha256_pair in interleaved SHA lanes.
// Equal-length messages (every chunk but the last) interleave end to end.
void chunk_digest_preimage(std::uint32_t index,
                           std::span<const std::uint8_t> data, Bytes& out) {
  constexpr std::string_view kTag = "mv.snapshot.chunk";
  out.clear();
  out.reserve(4 + kTag.size() + 8 + data.size());
  const auto u32le = [&out](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  u32le(static_cast<std::uint32_t>(kTag.size()));
  out.insert(out.end(), kTag.begin(), kTag.end());
  u32le(index);
  u32le(static_cast<std::uint32_t>(data.size()));
  out.insert(out.end(), data.begin(), data.end());
}

// Digest every chunk, two at a time through crypto::sha256_pair. All chunks
// but the last are exactly chunk_size bytes, so the two lanes stay in
// lockstep for the whole message and the pairing is maximally effective.
// Digests are bit-identical to per-chunk snapshot_chunk_digest().
std::vector<crypto::Digest> digest_chunks(const std::vector<Bytes>& chunks) {
  std::vector<crypto::Digest> digests(chunks.size());
  Bytes pre_a;
  Bytes pre_b;
  std::size_t i = 0;
  for (; i + 1 < chunks.size(); i += 2) {
    chunk_digest_preimage(static_cast<std::uint32_t>(i), chunks[i], pre_a);
    chunk_digest_preimage(static_cast<std::uint32_t>(i + 1), chunks[i + 1],
                          pre_b);
    crypto::sha256_pair(pre_a, pre_b, digests[i], digests[i + 1]);
  }
  if (i < chunks.size()) {
    digests[i] = snapshot_chunk_digest(static_cast<std::uint32_t>(i), chunks[i]);
  }
  return digests;
}

}  // namespace

crypto::Digest snapshot_chunk_digest(std::uint32_t index,
                                     std::span<const std::uint8_t> data) {
  crypto::HashWriter w;
  w.str("mv.snapshot.chunk");
  w.u32(index);
  w.bytes(data);
  return w.digest();
}

crypto::Digest SnapshotManifest::chunk_root() const {
  return crypto::MerkleTree(chunk_digests).root();
}

Bytes SnapshotManifest::encode() const {
  ByteWriter w;
  w.u8(kManifestVersion);
  w.i64(height);
  write_commitment_sections(w, commitment);
  w.u32(chunk_size);
  w.u64(total_bytes);
  w.u32(chunk_count());
  for (const auto& d : chunk_digests) w.raw(d);
  return w.take();
}

Result<SnapshotManifest> SnapshotManifest::decode(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  r.require(r.u8() == kManifestVersion, "snapshot.bad_version",
            "unknown manifest version");
  SnapshotManifest m;
  m.height = r.i64();
  r.require(m.height >= 0, "snapshot.bad_height", "negative height");
  m.commitment = read_commitment_sections(r);
  m.chunk_size = r.u32();
  m.total_bytes = r.u64();
  const std::size_t count =
      r.count(SIZE_MAX, crypto::Digest{}.size(), "snapshot.bad_geometry");
  r.require(m.chunk_size != 0 && m.total_bytes != 0 &&
                count == chunk_count_for(m.total_bytes, m.chunk_size),
            "snapshot.bad_geometry",
            "chunk count inconsistent with total_bytes/chunk_size");
  m.chunk_digests.resize(r.ok() ? count : 0);
  for (auto& d : m.chunk_digests) r.fixed(d);
  return r.finish(std::move(m), "snapshot.trailing_bytes",
                  "manifest has trailing bytes");
}

Bytes encode_snapshot_payload(const LedgerState& state) {
  ByteWriter w;
  w.str(kPayloadTag);

  // Accounts, in strictly ascending address order (the table is unordered,
  // so sort here). Every stored record carries a leaf (a balance entry, or a
  // nonzero nonce) — exactly the set the accounts commitment covers.
  // One pass over the node-based table (a range constructor would walk it
  // twice, once just to count).
  std::vector<std::pair<crypto::Address, Account>> entries;
  entries.reserve(state.accounts().size());
  for (const auto& entry : state.accounts()) entries.push_back(entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.u64(entries.size());
  for (const auto& [addr, acc] : entries) {
    w.u64(addr.value);
    w.u8(acc.has_balance ? 1 : 0);
    if (acc.has_balance) w.u64(acc.balance);
    w.u64(acc.nonce);
  }

  // Audit log, oldest first (the order the chain hash folds in).
  w.u64(state.audit_log().size());
  for (const auto& rec : state.audit_log()) {
    w.u64(rec.collector.value);
    w.bytes(rec.body.encode());
    w.i64(rec.height);
  }

  // Contract stores, ascending by name then key. Empty stores are emitted:
  // store_erase materializes them and the stores commitment covers the
  // contract count and names.
  w.u32(static_cast<std::uint32_t>(state.stores().size()));
  for (const auto& [name, store] : state.stores()) {
    w.str(name);
    w.u64(store.size());
    for (const auto& [key, value] : store) {
      w.str(key);
      w.bytes(value);
    }
  }

  w.u64(state.burned_fees());
  return w.take();
}

Result<LedgerState> decode_snapshot_payload(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  r.require(r.str() == kPayloadTag, "snapshot.bad_tag", "unknown snapshot format");
  LedgerState state;

  const std::size_t account_count =
      r.count64(SIZE_MAX, kMinAccountEntry, "snapshot.bad_count");
  // Entries are validated into a sorted seed list and bulk-loaded in one
  // pass (LedgerState::load_accounts) — per-entry set_balance/set_nonce
  // round trips through the Merkle tree made install O(state)-rehash-bound.
  std::vector<std::pair<crypto::Address, Account>> seeds;
  seeds.reserve(account_count);
  for (std::size_t i = 0; i < account_count && r.ok(); ++i) {
    const crypto::Address addr{r.u64()};
    r.require(i == 0 || seeds.back().first < addr, "snapshot.bad_order",
              "account addresses not ascending");
    const std::uint8_t flags = r.u8();
    r.require(flags <= 1, "snapshot.bad_flags", "account flags not in {0,1}");
    Account acc;
    acc.has_balance = flags == 1;
    if (acc.has_balance) acc.balance = r.u64();
    acc.nonce = r.u64();
    // A leafless entry would be semantically inert — not canonical.
    r.require(acc.has_balance || acc.nonce != 0, "snapshot.bad_entry",
              "entry carries no account leaf");
    seeds.emplace_back(addr, acc);
  }
  if (r.ok()) state.load_accounts(seeds);

  const std::size_t audit_count =
      r.count64(SIZE_MAX, kMinAuditEntry, "snapshot.bad_count");
  for (std::size_t i = 0; i < audit_count && r.ok(); ++i) {
    const crypto::Address collector{r.u64()};
    AuditRecordBody body = r.take(AuditRecordBody::decode(r.nested()));
    const std::int64_t height = r.i64();
    if (r.ok()) state.append_audit(StoredAuditRecord{collector, std::move(body), height});
  }

  const std::size_t contract_count =
      r.count(SIZE_MAX, kMinContractEntry, "snapshot.bad_count");
  std::string prev_name;
  for (std::size_t i = 0; i < contract_count && r.ok(); ++i) {
    std::string name = r.str();
    r.require(i == 0 || name > prev_name, "snapshot.bad_order",
              "contract names not ascending");
    state.materialize_store(name);
    const std::size_t entry_count =
        r.count64(SIZE_MAX, kMinStoreEntry, "snapshot.bad_count");
    std::string prev_key;
    for (std::size_t k = 0; k < entry_count && r.ok(); ++k) {
      std::string key = r.str();
      r.require(k == 0 || key > prev_key, "snapshot.bad_order",
                "store keys not ascending");
      state.store_put(name, key, r.bytes());
      prev_key = std::move(key);
    }
    prev_name = std::move(name);
  }

  state.add_burned_fees(r.u64());
  return r.finish(std::move(state), "snapshot.trailing_bytes",
                  "payload has trailing bytes");
}

Snapshot build_snapshot(const LedgerState& state, std::int64_t height,
                        std::size_t chunk_size) {
  return build_snapshot(state, height, state.commitment(), chunk_size);
}

Snapshot build_snapshot(const LedgerState& state, std::int64_t height,
                        const StateCommitment& commitment,
                        std::size_t chunk_size) {
  Snapshot snap;
  const Bytes payload = encode_snapshot_payload(state);
  snap.manifest.height = height;
  snap.manifest.commitment = commitment;
  snap.manifest.chunk_size = static_cast<std::uint32_t>(chunk_size);
  snap.manifest.total_bytes = payload.size();
  const auto count = static_cast<std::uint32_t>(
      chunk_count_for(payload.size(), snap.manifest.chunk_size));
  snap.chunks.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t begin = static_cast<std::size_t>(i) * chunk_size;
    const std::size_t end = std::min(begin + chunk_size, payload.size());
    snap.chunks.emplace_back(payload.begin() + static_cast<std::ptrdiff_t>(begin),
                             payload.begin() + static_cast<std::ptrdiff_t>(end));
  }
  snap.manifest.chunk_digests = digest_chunks(snap.chunks);
  return snap;
}

Result<LedgerState> assemble_snapshot(const SnapshotManifest& manifest,
                                      const std::vector<Bytes>& chunks) {
  // Re-check the geometry even though a decoded manifest already passed it —
  // manifests can also be built programmatically.
  if (manifest.chunk_size == 0 || manifest.total_bytes == 0 ||
      manifest.chunk_count() !=
          chunk_count_for(manifest.total_bytes, manifest.chunk_size)) {
    return make_error("snapshot.bad_geometry",
                      "chunk count inconsistent with total_bytes/chunk_size");
  }
  if (chunks.size() != manifest.chunk_count()) {
    return make_error("snapshot.bad_chunk_count",
                      "expected " + std::to_string(manifest.chunk_count()) +
                          " chunks, got " + std::to_string(chunks.size()));
  }
  for (std::uint32_t i = 0; i < chunks.size(); ++i) {
    const std::size_t expected =
        i + 1 < chunks.size()
            ? manifest.chunk_size
            : static_cast<std::size_t>(manifest.total_bytes -
                                       std::uint64_t(i) * manifest.chunk_size);
    if (chunks[i].size() != expected) {
      return make_error("snapshot.bad_chunk_size",
                        "chunk " + std::to_string(i) + " has wrong length");
    }
  }
  const std::vector<crypto::Digest> digests = digest_chunks(chunks);
  Bytes payload;
  payload.reserve(manifest.total_bytes);
  for (std::uint32_t i = 0; i < chunks.size(); ++i) {
    if (digests[i] != manifest.chunk_digests[i]) {
      return make_error("snapshot.bad_chunk",
                        "chunk " + std::to_string(i) + " digest mismatch");
    }
    payload.insert(payload.end(), chunks[i].begin(), chunks[i].end());
  }
  auto state = decode_snapshot_payload(payload);
  if (!state.ok()) return state.error();
  // The decoded state must reproduce the manifest's commitment sections
  // byte-identically — the manifest (and through it the block header's
  // state_root) is the trust anchor for everything decoded above.
  if (state.value().commitment() != manifest.commitment) {
    return make_error("snapshot.commitment_mismatch",
                      "decoded state does not reproduce the manifest commitment");
  }
  return state;
}

}  // namespace mv::ledger
