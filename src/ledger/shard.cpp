#include "ledger/shard.h"

#include <string_view>
#include <utility>

namespace mv::ledger {

namespace {

/// Wire magic of the receipt codec; the mint proof hashes these exact bytes.
constexpr std::string_view kReceiptMagic = "mv.xshard.receipt.v1";

/// Distinct multipliers keeping the per-(round, shard) signing streams and
/// the beacon signing stream decorrelated from one another and from the
/// configured base seed.
constexpr std::uint64_t kRoundSalt = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kShardSalt = 0xd1b54a32d192ed03ULL;
constexpr std::uint64_t kBeaconSalt = 0x6d762e626561636fULL;  // "mv.beaco"

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string hex_u64(std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[v & 0xf];
    v >>= 4;
  }
  return out;
}

Bytes encode_u64(std::uint64_t v) {
  ByteWriter w;
  w.u64(v);
  return w.take();
}

/// Read-modify-write of a u64 counter in the contract's own store.
void bump_counter(CallContext& ctx, const char* key, std::uint64_t delta) {
  ctx.put(key, encode_u64(leading_u64(ctx.get(key)) + delta));
}

}  // namespace

std::uint32_t shard_of(crypto::Address addr, std::size_t num_shards) {
  if (num_shards <= 1) return 0;
  return static_cast<std::uint32_t>(mix64(addr.value) % num_shards);
}

std::vector<LedgerState> partition_genesis(const LedgerState& genesis,
                                           std::size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  std::vector<LedgerState> out(num_shards);
  // Table order is arbitrary; so is insertion order here, because every
  // commitment and export is defined on the account set alone.
  for (const auto& [addr, acc] : genesis.accounts()) {
    LedgerState& shard = out[shard_of(addr, num_shards)];
    if (acc.has_balance) shard.set_balance(addr, acc.balance);
    if (acc.nonce != 0) shard.set_nonce(addr, acc.nonce);
  }
  // Non-account sections have no per-account home; they stay on shard 0.
  // A normal genesis carries none of them.
  for (const auto& record : genesis.audit_log()) out[0].append_audit(record);
  for (const auto& [contract, store] : genesis.stores()) {
    out[0].materialize_store(contract);
    for (const auto& [key, value] : store) out[0].store_put(contract, key, value);
  }
  out[0].add_burned_fees(genesis.burned_fees());
  return out;
}

// ---------------------------------------------------------------- codecs

Bytes CrossShardReceipt::encode() const {
  ByteWriter w;
  w.str(kReceiptMagic);
  w.u64(id);
  w.u32(source_shard);
  w.u32(dest_shard);
  w.u64(from.value);
  w.u64(to.value);
  w.u64(amount);
  return w.take();
}

Result<CrossShardReceipt> CrossShardReceipt::decode(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  r.require(r.str() == kReceiptMagic, errc::kXShardBadArgs, "bad receipt magic");
  CrossShardReceipt rec;
  rec.id = r.u64();
  rec.source_shard = r.u32();
  rec.dest_shard = r.u32();
  rec.from.value = r.u64();
  rec.to.value = r.u64();
  rec.amount = r.u64();
  r.require(rec.source_shard != rec.dest_shard && rec.to.valid() && rec.amount != 0,
            errc::kXShardBadArgs, "receipt fields out of range");
  return r.finish(rec, errc::kXShardBadArgs, "trailing bytes after receipt");
}

Bytes XShardLockArgs::encode() const {
  ByteWriter w;
  w.u32(dest_shard);
  w.u64(to.value);
  w.u64(amount);
  return w.take();
}

Result<XShardLockArgs> XShardLockArgs::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  XShardLockArgs a;
  a.dest_shard = r.u32();
  a.to.value = r.u64();
  a.amount = r.u64();
  return r.finish(a, errc::kXShardBadArgs, "trailing bytes after lock args");
}

Bytes XShardMintArgs::encode() const {
  ByteWriter w;
  w.i64(beacon_height);
  w.u32(source_shard);
  w.bytes(receipt);
  w.bytes(proof);
  return w.take();
}

Result<XShardMintArgs> XShardMintArgs::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  XShardMintArgs a;
  a.beacon_height = r.i64();
  a.source_shard = r.u32();
  a.receipt = r.bytes();
  a.proof = r.bytes();
  return r.finish(std::move(a), errc::kXShardBadArgs, "trailing bytes after mint args");
}

std::string xshard_receipt_key(std::uint64_t id) {
  return "receipt/" + hex_u64(id);
}

std::string xshard_spent_key(std::uint32_t source_shard, std::uint64_t id) {
  return "spent/" + hex_u64(source_shard) + "/" + hex_u64(id);
}

// ---------------------------------------------------------- XShardContract

Status XShardContract::call(CallContext& ctx, const std::string& method,
                            const Bytes& args) const {
  if (method == "lock") return lock(ctx, args);
  if (method == "mint") return mint(ctx, args);
  return Status::fail(errc::kXShardUnknownMethod, method);
}

Status XShardContract::lock(CallContext& ctx, const Bytes& raw) const {
  auto args = XShardLockArgs::decode(raw);
  if (!args.ok()) return Status::fail(args.error().code, args.error().message);
  const XShardLockArgs& a = args.value();
  if (a.dest_shard >= num_shards_ || a.dest_shard == shard_id_) {
    return Status::fail(errc::kXShardBadDest,
                        "dest shard " + std::to_string(a.dest_shard));
  }
  if (!a.to.valid() || a.amount == 0) {
    return Status::fail(errc::kXShardBadArgs, "null recipient or zero amount");
  }
  // Burn first: an uncovered amount rejects the lock before any store write
  // (the nested call overlay would discard them anyway; failing early keeps
  // the error authoritative).
  if (Status s = ctx.burn(ctx.caller(), a.amount); !s.ok()) return s;
  const std::uint64_t id = leading_u64(ctx.get(kXShardNextIdKey));
  const CrossShardReceipt receipt{id,          shard_id_, a.dest_shard,
                                  ctx.caller(), a.to,      a.amount};
  ctx.put(xshard_receipt_key(id), receipt.encode());
  ctx.put(kXShardNextIdKey, encode_u64(id + 1));
  bump_counter(ctx, kXShardLockedTotalKey, a.amount);
  return {};
}

Status XShardContract::mint(CallContext& ctx, const Bytes& raw) const {
  auto args = XShardMintArgs::decode(raw);
  if (!args.ok()) return Status::fail(args.error().code, args.error().message);
  const XShardMintArgs& a = args.value();
  auto receipt = CrossShardReceipt::decode(a.receipt);
  if (!receipt.ok()) {
    return Status::fail(receipt.error().code, receipt.error().message);
  }
  const CrossShardReceipt& rec = receipt.value();
  if (rec.source_shard != a.source_shard) {
    return Status::fail(errc::kXShardBadArgs, "claimed source shard mismatch");
  }
  if (rec.dest_shard != shard_id_) {
    return Status::fail(errc::kXShardWrongShard,
                        "receipt destined for shard " +
                            std::to_string(rec.dest_shard));
  }
  if (rec.source_shard >= num_shards_) {
    return Status::fail(errc::kXShardBadDest, "source shard out of range");
  }
  const auto anchor = archive_->anchor(a.beacon_height, rec.source_shard);
  if (!anchor.has_value()) {
    return Status::fail(errc::kXShardUnknownBeacon,
                        "no anchor at beacon height " +
                            std::to_string(a.beacon_height));
  }
  auto proof = crypto::MerkleMapProof::decode(a.proof);
  if (!proof.ok()) return Status::fail(proof.error().code, proof.error().message);
  // The proof binds the exact receipt wire bytes (their sha256 is the leaf
  // value) to the receipt id under the source shard's beacon-anchored
  // receipts root. A receipt proven against a stale root (the tree grew and
  // the presented proof's path digests no longer match) or against another
  // shard's root fails here.
  if (!crypto::MerkleMap::verify(anchor->receipts_root, rec.id,
                                 crypto::sha256(a.receipt), proof.value())) {
    return Status::fail(errc::kXShardBadProof,
                        "receipt proof does not verify against anchored root");
  }
  const std::string spent = xshard_spent_key(rec.source_shard, rec.id);
  if (ctx.get(spent) != nullptr) {
    return Status::fail(errc::kXShardReceiptSpent,
                        "receipt already minted on this shard");
  }
  ctx.mint(rec.to, rec.amount);
  // The spent marker stores the minted amount so the invariant checker can
  // reconstruct per-source minted sums without decoding receipts.
  ctx.put(spent, encode_u64(rec.amount));
  bump_counter(ctx, kXShardMintedTotalKey, rec.amount);
  return {};
}

// ------------------------------------------------------- composed proofs

Status verify_sharded_account_proof(const ShardedAccountProof& proof,
                                    const crypto::Digest& beacon_root) {
  if (!verify_shard_anchor(beacon_root, proof.shard, proof.anchor,
                           proof.anchor_proof)) {
    return Status::fail(errc::kXShardBadProof,
                        "shard anchor does not verify against beacon root");
  }
  return verify_account_proof(proof.account, proof.anchor.state_root);
}

// ----------------------------------------------------------- ShardedLedger

ShardedLedger::ShardedLedger(
    ShardConfig config, const LedgerState& genesis,
    std::vector<std::shared_ptr<const Contract>> extra_contracts)
    : config_(std::move(config)), archive_(std::make_shared<BeaconArchive>()) {
  if (config_.num_shards == 0) config_.num_shards = 1;
  auto genesis_states = partition_genesis(genesis, config_.num_shards);
  shards_.resize(config_.num_shards);

  ByteWriter genesis_tag;
  genesis_tag.str("mv.beacon.genesis.v1");
  for (std::uint32_t s = 0; s < config_.num_shards; ++s) {
    Shard& sh = shards_[s];

    auto registry = std::make_shared<ContractRegistry>();
    for (const auto& contract : extra_contracts) registry->install(contract);
    registry->install(std::make_shared<XShardContract>(
        s, static_cast<std::uint32_t>(config_.num_shards), archive_));

    ChainConfig chain_config;
    chain_config.validators = config_.validators;
    chain_config.max_txs_per_block = config_.max_txs_per_block;
    chain_config.state_retention = config_.state_retention;
    chain_config.validation = config_.validation;
    // The shared queue drives the cross-shard fan-out; a shard's own chain
    // must not re-enter it from a worker (self-wait deadlock).
    chain_config.validation.job_queue = nullptr;
    if (config_.validation.sig_cache != nullptr) {
      // The LRU is single-threaded; shards committing concurrently each get
      // their own instance instead of racing on the shared one.
      sh.sig_cache = std::make_shared<crypto::DigestLruSet>();
      chain_config.validation.sig_cache = sh.sig_cache;
    }

    sh.chain = std::make_unique<Blockchain>(std::move(chain_config), registry,
                                            std::move(genesis_states[s]));
    MempoolConfig pool_config = config_.mempool;
    pool_config.sig_cache = sh.sig_cache;
    sh.pool = Mempool(pool_config);

    genesis_tag.raw(sh.chain->genesis_hash());
  }
  beacon_genesis_hash_ = crypto::sha256(genesis_tag.data());
}

const BeaconHeader* ShardedLedger::beacon_at(std::int64_t height) const {
  if (height < 0 || height >= static_cast<std::int64_t>(beacons_.size())) {
    return nullptr;
  }
  return &beacons_[static_cast<std::size_t>(height)];
}

Status ShardedLedger::submit(Transaction tx, Tick now) {
  Shard& sh = shards_[shard_of(tx.sender(), shards_.size())];
  return sh.pool.add(std::move(tx), sh.chain->state(), now);
}

void ShardedLedger::refresh_receipts(Shard& shard) {
  const LedgerState& state = shard.chain->state();
  const std::uint64_t next =
      leading_u64(state.store_get(kXShardContractName, kXShardNextIdKey));
  for (std::uint64_t id = shard.receipts_indexed; id < next; ++id) {
    const Bytes* bytes =
        state.store_get(kXShardContractName, xshard_receipt_key(id));
    // Ids are dense by construction (the contract is the only writer); a
    // hole would mean store corruption, which the commitment already pins.
    if (bytes != nullptr) shard.receipts.put(id, crypto::sha256(*bytes));
  }
  shard.receipts_indexed = next;
}

Result<BeaconHeader> ShardedLedger::commit_round(const crypto::Wallet& proposer,
                                                 Tick timestamp) {
  const std::int64_t round = beacon_height();
  std::vector<Status> results(shards_.size());

  const auto commit_shard = [&](std::size_t s) {
    Shard& sh = shards_[s];
    const auto selected =
        sh.pool.select(config_.max_txs_per_block, sh.chain->state());
    // Deterministic per-(round, shard) signing stream: block hashes are
    // reproducible across runs, thread counts, and shard interleavings.
    Rng rng(config_.seed ^
            (kRoundSalt * (static_cast<std::uint64_t>(round) + 1)) ^
            (kShardSalt * (static_cast<std::uint64_t>(s) + 1)));
    const Block block = sh.chain->assemble(proposer, selected, timestamp, rng);
    if (Status s_append = sh.chain->append(block); !s_append.ok()) {
      results[s] = std::move(s_append);
      return;
    }
    sh.pool.remove_included(block.txs);
    sh.pool.prune(sh.chain->state());
  };

  // Shards validate concurrently on the shared queue's consensus lane; each
  // task touches only its own shard, and run_batch is a barrier, so the
  // driver-side beacon fold below sees every shard's committed tip.
  JobQueue* queue = config_.validation.job_queue.get();
  if (queue != nullptr && queue->workers() > 0) {
    queue->run_batch(JobClass::kConsensus, shards_.size(), commit_shard);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) commit_shard(s);
  }

  for (std::size_t s = 0; s < results.size(); ++s) {
    if (!results[s].ok()) {
      return make_error(errc::kShardRoundFailed,
                        "shard " + std::to_string(s) + " round " +
                            std::to_string(round) + ": " +
                            results[s].error().to_string());
    }
  }

  BeaconHeader header;
  header.height = round;
  header.prev_hash =
      beacons_.empty() ? beacon_genesis_hash_ : beacons_.back().hash();
  header.timestamp = timestamp;
  header.shards.reserve(shards_.size());
  for (Shard& sh : shards_) {
    refresh_receipts(sh);
    ShardAnchor anchor;
    anchor.state_root = sh.chain->commitment_at(sh.chain->height() - 1)->root;
    anchor.receipts_root = sh.receipts.root();
    header.shards.push_back(anchor);
  }
  header.beacon_root = combine_beacon_root(header.shards);
  header.proposer_pub = proposer.public_key();
  Rng sig_rng(config_.seed ^
              (kBeaconSalt * (static_cast<std::uint64_t>(round) + 1)));
  header.proposer_sig = proposer.sign(header.signing_bytes(), sig_rng);

  archive_->push(header);
  beacons_.push_back(header);
  return header;
}

Result<ReceiptProofBundle> ShardedLedger::prove_receipt(
    std::uint32_t source_shard, std::uint64_t id) const {
  if (source_shard >= shards_.size()) {
    return make_error(errc::kShardBadConfig, "source shard out of range");
  }
  if (beacons_.empty()) {
    return make_error(errc::kShardUnknownReceipt, "no beacon committed yet");
  }
  const Shard& sh = shards_[source_shard];
  if (id >= sh.receipts_indexed) {
    return make_error(errc::kShardUnknownReceipt,
                      "receipt " + std::to_string(id) +
                          " not covered by a beacon yet");
  }
  const Bytes* bytes =
      sh.chain->state().store_get(kXShardContractName, xshard_receipt_key(id));
  if (bytes == nullptr) {
    return make_error(errc::kShardUnknownReceipt, "receipt bytes missing");
  }
  ReceiptProofBundle bundle;
  bundle.beacon_height = beacon_height() - 1;
  bundle.source_shard = source_shard;
  bundle.receipt = *bytes;
  bundle.proof = sh.receipts.prove(id);
  return bundle;
}

Result<ShardedAccountProof> ShardedLedger::prove_account(
    crypto::Address addr) const {
  if (beacons_.empty()) {
    return make_error(errc::kChainBadHeight, "no beacon committed yet");
  }
  const std::uint32_t s = shard_of(addr, shards_.size());
  const Blockchain& chain = *shards_[s].chain;
  auto account = chain.prove_account(addr, chain.height() - 1);
  if (!account.ok()) return account.error();
  ShardedAccountProof proof;
  proof.shard = s;
  proof.beacon_height = beacon_height() - 1;
  proof.anchor = beacons_.back().shards[s];
  proof.anchor_proof = prove_shard_anchor(beacons_.back().shards, s);
  proof.account = std::move(account).value();
  return proof;
}

// ------------------------------------------------------------- tx helpers

Transaction make_xshard_lock(const crypto::Wallet& from, std::uint64_t nonce,
                             std::uint32_t dest_shard, crypto::Address to,
                             std::uint64_t amount, std::uint64_t fee, Rng& rng) {
  return make_contract_call(from, nonce, kXShardContractName, "lock",
                            XShardLockArgs{dest_shard, to, amount}.encode(),
                            fee, rng);
}

Transaction make_xshard_mint(const crypto::Wallet& from, std::uint64_t nonce,
                             const ReceiptProofBundle& bundle,
                             std::uint64_t fee, Rng& rng) {
  XShardMintArgs args;
  args.beacon_height = bundle.beacon_height;
  args.source_shard = bundle.source_shard;
  args.receipt = bundle.receipt;
  args.proof = bundle.proof.encode();
  return make_contract_call(from, nonce, kXShardContractName, "mint",
                            args.encode(), fee, rng);
}

}  // namespace mv::ledger
