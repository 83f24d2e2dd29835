#include "ledger/state.h"

#include <cassert>
#include <cstdlib>

#include "common/logging.h"

namespace mv::ledger {

namespace {

void hash_audit_record(crypto::HashWriter& w, const StoredAuditRecord& rec) {
  w.u64(rec.collector.value);
  w.raw(rec.body.encode());
  w.i64(rec.height);
}

/// One link of the audit log's running hash: h' = H(h || record).
crypto::Digest chain_audit(const crypto::Digest& h, const StoredAuditRecord& rec) {
  crypto::HashWriter w;
  w.raw(h);
  hash_audit_record(w, rec);
  return w.digest();
}

/// Element digest of one contract-store entry for the multiset section hash.
crypto::Digest store_entry_hash(const std::string& key, const Bytes& value) {
  crypto::HashWriter w;
  w.str(key);
  w.bytes(value);
  return w.digest();
}

/// Two-pointer merge of a base map and a delta map (delta wins on equal
/// keys), visiting entries in key order. `emit(key, base_value_or_null,
/// delta_value_or_null)` is called once per merged key.
template <typename BaseMap, typename DeltaMap, typename Emit>
void merge_maps(const BaseMap& base, const DeltaMap& delta, Emit emit) {
  auto bit = base.begin();
  auto dit = delta.begin();
  while (bit != base.end() || dit != delta.end()) {
    if (dit == delta.end() || (bit != base.end() && bit->first < dit->first)) {
      emit(bit->first, &bit->second, nullptr);
      ++bit;
    } else if (bit == base.end() || dit->first < bit->first) {
      emit(dit->first, nullptr, &dit->second);
      ++dit;
    } else {
      emit(bit->first, &bit->second, &dit->second);
      ++bit;
      ++dit;
    }
  }
}

}  // namespace

// The key (address) is mixed in by MerkleMap's leaf hash; the payload
// commits to balance presence, balance, and nonce.
crypto::Digest account_leaf_digest(bool has_balance, std::uint64_t balance,
                                   std::uint64_t nonce) {
  crypto::HashWriter w;
  w.u8(has_balance ? 1 : 0);
  w.u64(balance);
  w.u64(nonce);
  return w.digest();
}

namespace {
crypto::Digest leaf_of(const Account& acc) {
  return account_leaf_digest(acc.has_balance, acc.balance, acc.nonce);
}
}  // namespace

// Combine the root from the section digests (the commitment layout spec in
// DESIGN.md §"State commitment" documents this byte order).
namespace {
/// The section fields in wire order, for any writer with the ByteWriter
/// field interface (ByteWriter, HashWriter).
template <typename Writer>
void put_commitment_sections(Writer& w, const StateCommitment& c) {
  w.raw(c.accounts_root);
  w.u64(c.account_count);
  w.raw(c.audit_digest);
  w.u64(c.audit_count);
  w.raw(c.stores_digest);
  w.u64(c.burned_fees);
}
}  // namespace

crypto::Digest combine_commitment_root(const StateCommitment& c) {
  crypto::HashWriter w;
  w.str("mv.state.v2");
  put_commitment_sections(w, c);
  return w.digest();
}

void write_commitment_sections(ByteWriter& w, const StateCommitment& c) {
  put_commitment_sections(w, c);
}

StateCommitment read_commitment_sections(ByteReader& r) {
  StateCommitment c;
  r.fixed(c.accounts_root);
  c.account_count = r.u64();
  r.fixed(c.audit_digest);
  c.audit_count = r.u64();
  r.fixed(c.stores_digest);
  c.burned_fees = r.u64();
  c.root = combine_commitment_root(c);
  return c;
}

// ------------------------------------------------------------- LedgerView

void LedgerView::credit(crypto::Address a, std::uint64_t amount) {
  set_balance(a, find_balance(a).value_or(0) + amount);
}

Status LedgerView::debit(crypto::Address a, std::uint64_t amount) {
  const auto bal = find_balance(a);
  if (!bal.has_value() || *bal < amount) {
    return Status::fail(errc::kStateInsufficientFunds,
                        "balance below " + std::to_string(amount));
  }
  set_balance(a, *bal - amount);
  return {};
}

Status LedgerView::apply(const Transaction& tx,
                         const ContractRegistry& contracts, Tick height,
                         bool signature_preverified) {
  // apply() is atomic: any failure leaves the view exactly as it was, so
  // block assembly can trial-apply candidates in sequence and skip failures.
  if (!signature_preverified && !tx.signature_valid()) {
    return Status::fail(errc::kTxBadSignature, "signature does not verify");
  }
  const crypto::Address sender = tx.sender();
  if (tx.nonce != nonce(sender)) {
    return Status::fail(errc::kTxBadNonce,
                        "expected " + std::to_string(nonce(sender)) + " got " +
                            std::to_string(tx.nonce));
  }
  switch (tx.kind) {
    case TxKind::kTransfer: {
      auto body = TransferBody::decode(tx.payload);
      if (!body.ok()) return Status::fail(body.error().code, body.error().message);
      if (!body.value().to.valid()) {
        return Status::fail(errc::kTxBadRecipient, "null recipient");
      }
      // All checks before any mutation keeps this branch trivially atomic.
      // One lookup serves the affordability check and the debit.
      const std::uint64_t need = tx.fee + body.value().amount;
      const auto bal = find_balance(sender);
      if (bal.value_or(0) < need) {
        return Status::fail(errc::kStateInsufficientFunds, "cannot cover amount + fee");
      }
      if (bal.has_value()) set_balance(sender, *bal - need);
      credit(body.value().to, body.value().amount);
      break;
    }
    case TxKind::kAuditRecord: {
      auto body = AuditRecordBody::decode(tx.payload);
      if (!body.ok()) return Status::fail(body.error().code, body.error().message);
      const auto bal = find_balance(sender);
      if (bal.value_or(0) < tx.fee) {
        return Status::fail(errc::kStateInsufficientFunds, "cannot cover fee");
      }
      if (bal.has_value()) set_balance(sender, *bal - tx.fee);
      append_audit(StoredAuditRecord{sender, std::move(body).value(), height});
      break;
    }
    case TxKind::kContractCall: {
      const Contract* contract = contracts.find(tx.contract);
      if (contract == nullptr) {
        return Status::fail(errc::kTxUnknownContract, tx.contract);
      }
      if (balance(sender) < tx.fee) {
        return Status::fail(errc::kStateInsufficientFunds, "cannot cover fee");
      }
      // Contract bodies may fail after arbitrary writes; running the call in
      // a nested overlay keeps the whole transaction atomic — discarding the
      // overlay on failure costs O(writes), not a full-state snapshot.
      auto scratch = LedgerStateOverlay::nested(*this);
      (void)scratch.debit(sender, tx.fee);
      CallContext ctx(scratch, tx.contract, sender, height);
      if (Status status = contract->call(ctx, tx.method, tx.payload); !status.ok()) {
        return status;
      }
      scratch.commit();
      break;
    }
    default:
      return Status::fail(errc::kTxBadKind, "unknown transaction kind");
  }
  set_nonce(sender, tx.nonce + 1);
  add_burned_fees(tx.fee);
  return {};
}

// ------------------------------------------------------------ LedgerState

std::optional<std::uint64_t> LedgerState::find_balance(crypto::Address a) const {
  const auto it = accounts_.find(a);
  if (it == accounts_.end() || !it->second.has_balance) return std::nullopt;
  return it->second.balance;
}

std::uint64_t LedgerState::nonce(crypto::Address a) const {
  const auto it = accounts_.find(a);
  return it == accounts_.end() ? 0 : it->second.nonce;
}

Account LedgerState::account(crypto::Address a) const {
  const auto it = accounts_.find(a);
  return it == accounts_.end() ? Account{} : it->second;
}

void LedgerState::put_account(crypto::Address a, const Account& acc) {
  if (acc.exists()) {
    accounts_[a] = acc;
    account_tree_.put(a.value, leaf_of(acc));
  } else {
    accounts_.erase(a);
    account_tree_.erase(a.value);
  }
}

void LedgerState::set_balance(crypto::Address a, std::uint64_t value) {
  Account acc = account(a);
  acc.has_balance = true;
  acc.balance = value;
  put_account(a, acc);
}

void LedgerState::set_nonce(crypto::Address a, std::uint64_t value) {
  Account acc = account(a);
  acc.nonce = value;
  put_account(a, acc);
}

void LedgerState::load_accounts(
    const std::vector<std::pair<crypto::Address, Account>>& sorted) {
  std::vector<std::pair<std::uint64_t, crypto::Digest>> leaves;
  leaves.reserve(sorted.size());
  // Value digests in one batched pass: the preimage (flag || balance ||
  // nonce, 17 bytes — the exact byte stream account_leaf_digest hashes) fits
  // a single compression block, so pairs run in interleaved SHA lanes.
  constexpr std::size_t kPreimage = 1 + 8 + 8;
  std::vector<std::uint8_t> preimages(sorted.size() * kPreimage);
  std::vector<crypto::ShortInput> inputs(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const Account& acc = sorted[i].second;
    std::uint8_t* p = preimages.data() + i * kPreimage;
    p[0] = acc.has_balance ? 1 : 0;
    for (int b = 0; b < 8; ++b) {
      p[1 + b] = static_cast<std::uint8_t>(acc.balance >> (8 * b));
      p[9 + b] = static_cast<std::uint8_t>(acc.nonce >> (8 * b));
    }
    inputs[i] = {p, kPreimage};
  }
  std::vector<crypto::Digest> digests(sorted.size());
  crypto::sha256_short_batch(inputs, digests.data());
  accounts_.clear();
  accounts_.reserve(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    accounts_.emplace(sorted[i].first, sorted[i].second);
    leaves.emplace_back(sorted[i].first.value, digests[i]);
  }
  account_tree_ = crypto::MerkleMap::from_sorted_leaves(leaves);
}

void LedgerState::append_audit(StoredAuditRecord record) {
  audit_digest_ = chain_audit(audit_digest_, record);
  audit_log_.push_back(std::move(record));
}

const ContractStore* LedgerState::find_store(const std::string& contract) const {
  const auto it = contracts_.find(contract);
  return it == contracts_.end() ? nullptr : &it->second;
}

const Bytes* LedgerState::store_get(const std::string& contract,
                                    const std::string& key) const {
  const ContractStore* store = find_store(contract);
  if (store == nullptr) return nullptr;
  const auto it = store->find(key);
  return it == store->end() ? nullptr : &it->second;
}

void LedgerState::store_put(const std::string& contract, const std::string& key,
                            Bytes value) {
  ContractStore& store = contracts_[contract];
  StoreDigest& sd = store_digests_[contract];
  const auto it = store.find(key);
  if (it != store.end()) {
    sd.sum.remove(store_entry_hash(key, it->second));
    --sd.count;
  }
  sd.sum.add(store_entry_hash(key, value));
  ++sd.count;
  store[key] = std::move(value);
}

void LedgerState::store_erase(const std::string& contract,
                              const std::string& key) {
  // Deliberately creates the (empty) store if missing — matches the
  // historical CallContext::erase semantics that the commitment covers.
  ContractStore& store = contracts_[contract];
  StoreDigest& sd = store_digests_[contract];
  const auto it = store.find(key);
  if (it != store.end()) {
    sd.sum.remove(store_entry_hash(key, it->second));
    --sd.count;
    store.erase(it);
  }
}

void LedgerState::materialize_store(const std::string& contract) {
  contracts_[contract];
  store_digests_[contract];
}

LedgerState LedgerState::content_clone() const {
  LedgerState copy;
  copy.accounts_ = accounts_;
  copy.audit_log_ = audit_log_;
  copy.contracts_ = contracts_;
  copy.burned_fees_ = burned_fees_;
  copy.audit_digest_ = audit_digest_;
  copy.store_digests_ = store_digests_;
  return copy;
}

void LedgerState::apply_undo(const StateUndo& undo) {
  for (const auto& [contract, su] : undo.stores) {
    for (const auto& [key, prior] : su.entries) {
      if (prior.has_value()) {
        store_put(contract, key, *prior);
      } else {
        store_erase(contract, key);
      }
    }
    if (!su.existed) {
      // The block materialized this store; un-create it. All its entries
      // were prior-absent, so the erases above already emptied it.
      contracts_.erase(contract);
      store_digests_.erase(contract);
    }
  }
  for (const auto& [addr, prior] : undo.balances) {
    Account acc = account(addr);
    acc.has_balance = prior.has_value();
    acc.balance = prior.value_or(0);
    put_account(addr, acc);
  }
  for (const auto& [addr, prior] : undo.nonces) set_nonce(addr, prior);
  // The audit chain hash cannot be un-chained; restore the captured digest
  // and truncate the log back to its pre-block length.
  audit_log_.resize(undo.audit_count);
  audit_digest_ = undo.audit_digest;
  burned_fees_ -= undo.burned_delta;
}

std::vector<std::string> LedgerState::store_keys_with_prefix(
    const std::string& contract, const std::string& prefix) const {
  std::vector<std::string> out;
  const ContractStore* store = find_store(contract);
  if (store == nullptr) return out;
  for (auto it = store->lower_bound(prefix); it != store->end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

/// A block overlay's delta, with the audit records and store writes left in
/// the overlay and pointed to.
struct LedgerState::CommitmentDelta {
  std::map<crypto::Address, std::uint64_t> balances;
  std::map<crypto::Address, std::uint64_t> nonces;
  std::vector<const StoredAuditRecord*> audit;  ///< appended, oldest first
  /// contract -> key -> new value (pointer into an overlay; nullopt* = erase)
  std::map<std::string, std::map<std::string, const std::optional<Bytes>*>> stores;
  std::uint64_t burned = 0;
};

StateCommitment LedgerState::commitment() const {
  return compute_commitment(CommitmentDelta{}, nullptr);
}

StateCommitment LedgerState::compute_commitment(const CommitmentDelta& delta,
                                                StagedCommit* stage) const {
  StateCommitment c;
  StateUndo* undo = stage != nullptr ? &stage->undo : nullptr;

  // Accounts: one table read per touched address yields the prior record
  // (the undo's values) and, with the delta on top, the new leaf.
  crypto::MerkleMap::Delta acc;
  merge_maps(delta.balances, delta.nonces,
             [&](crypto::Address addr, const std::uint64_t* dbal,
                 const std::uint64_t* dnon) {
               const Account prior = account(addr);
               Account now = prior;
               if (dbal != nullptr) {
                 now.has_balance = true;
                 now.balance = *dbal;
               }
               if (dnon != nullptr) now.nonce = *dnon;
               acc.emplace_hint(acc.end(), addr.value,
                                now.exists() ? std::optional(leaf_of(now))
                                             : std::nullopt);
               if (stage != nullptr) stage->accounts.emplace_back(addr, now);
               if (undo == nullptr) return;
               if (dbal != nullptr) {
                 undo->balances.emplace_hint(
                     undo->balances.end(), addr,
                     prior.has_balance ? std::optional(prior.balance)
                                       : std::nullopt);
               }
               if (dnon != nullptr) {
                 undo->nonces.emplace_hint(undo->nonces.end(), addr, prior.nonce);
               }
             });
  crypto::MerkleMap::Prepared unstaged;
  crypto::MerkleMap::Prepared& tree =
      stage != nullptr ? stage->account_tree : unstaged;
  c.accounts_root = account_tree_.root_with(acc, &tree);
  c.account_count = tree.size;

  // Audit log: extend the running chain hash with the appended records.
  crypto::Digest h = audit_digest_;
  for (const StoredAuditRecord* rec : delta.audit) h = chain_audit(h, *rec);
  c.audit_digest = h;
  c.audit_count = audit_log_.size() + delta.audit.size();
  if (undo != nullptr) {
    undo->audit_count = audit_log_.size();
    undo->audit_digest = audit_digest_;
    undo->burned_delta = delta.burned;
  }

  // Contract stores: adjust the touched contracts' multiset digests, then
  // combine all per-contract digests in name order. A delta consisting
  // solely of tombstones still names the contract (store_erase materializes
  // an empty store on commit).
  std::map<std::string, StoreDigest> adjusted;
  for (const auto& [contract, kv] : delta.stores) {
    const auto base_it = store_digests_.find(contract);
    StoreDigest sd = base_it != store_digests_.end() ? base_it->second : StoreDigest{};
    const ContractStore* base_store = find_store(contract);
    StateUndo::StoreUndo* su = nullptr;
    if (undo != nullptr) {
      su = &undo->stores[contract];
      su->existed = base_store != nullptr;
    }
    for (const auto& [key, pval] : kv) {
      const Bytes* old = nullptr;
      if (base_store != nullptr) {
        const auto it = base_store->find(key);
        if (it != base_store->end()) old = &it->second;
      }
      if (su != nullptr) {
        su->entries.emplace(key, old != nullptr ? std::optional<Bytes>(*old)
                                                : std::nullopt);
      }
      if (old != nullptr) {
        sd.sum.remove(store_entry_hash(key, *old));
        --sd.count;
      }
      if (pval != nullptr && pval->has_value()) {
        sd.sum.add(store_entry_hash(key, **pval));
        ++sd.count;
      }
    }
    adjusted[contract] = sd;
  }
  std::size_t contract_count = store_digests_.size();
  for (const auto& [name, sd] : adjusted) {
    (void)sd;
    if (!store_digests_.contains(name)) ++contract_count;
  }
  crypto::HashWriter stores_w;
  stores_w.u32(static_cast<std::uint32_t>(contract_count));
  merge_maps(store_digests_, adjusted,
             [&stores_w](const std::string& name, const StoreDigest* base_sd,
                         const StoreDigest* adj_sd) {
               const StoreDigest& sd = adj_sd != nullptr ? *adj_sd : *base_sd;
               stores_w.str(name);
               stores_w.u64(sd.count);
               stores_w.raw(sd.sum.bytes());
             });
  c.stores_digest = stores_w.digest();
  if (stage != nullptr) stage->store_digests = std::move(adjusted);

  c.burned_fees = burned_fees_ + delta.burned;
  c.root = combine_commitment_root(c);
  return c;
}

StagedCommit LedgerState::stage(LedgerStateOverlay&& block) const {
  assert(block.base_ == this);
  // The overlay is consumed: its account maps move into the delta and its
  // audit records and store writes into the stage, uncopied.
  CommitmentDelta delta;
  delta.balances = std::move(block.balances_);
  delta.nonces = std::move(block.nonces_);
  delta.audit.reserve(block.audit_appended_.size());
  for (const auto& rec : block.audit_appended_) delta.audit.push_back(&rec);
  for (const auto& [contract, kv] : block.stores_) {
    auto& dst = delta.stores[contract];
    for (const auto& [key, value] : kv) dst.emplace_hint(dst.end(), key, &value);
  }
  delta.burned = block.burned_delta_;
  StagedCommit staged;
  staged.accounts.reserve(delta.balances.size() + delta.nonces.size());
  staged.commitment = compute_commitment(delta, &staged);
  staged.audit = std::move(block.audit_appended_);
  staged.stores = std::move(block.stores_);
  return staged;
}

void LedgerState::install(StagedCommit&& staged) {
  for (const auto& [addr, acc] : staged.accounts) {
    if (acc.exists()) {
      accounts_.insert_or_assign(addr, acc);
    } else {
      accounts_.erase(addr);
    }
  }
  account_tree_.apply(staged.account_tree);
  for (auto& rec : staged.audit) audit_log_.push_back(std::move(rec));
  audit_digest_ = staged.commitment.audit_digest;
  for (auto& [contract, kv] : staged.stores) {
    // Tombstone-only writes still create the store, as store_erase does.
    ContractStore& store = contracts_[contract];
    for (auto& [key, value] : kv) {
      if (value.has_value()) {
        store.insert_or_assign(key, std::move(*value));
      } else {
        store.erase(key);
      }
    }
  }
  for (const auto& [contract, sd] : staged.store_digests) {
    store_digests_[contract] = sd;
  }
  burned_fees_ = staged.commitment.burned_fees;
}

StateCommitment LedgerState::full_rehash_commitment() const {
  StateCommitment c;

  // Accounts: independent structural recursion over an explicit leaf list
  // (no cached tree involved). The table is unordered; the oracle sorts.
  std::vector<std::pair<std::uint64_t, crypto::Digest>> leaves;
  leaves.reserve(accounts_.size());
  for (const auto& [addr, acc] : accounts_) {
    if (acc.exists()) leaves.emplace_back(addr.value, leaf_of(acc));
  }
  c.account_count = leaves.size();
  c.accounts_root = crypto::merkle_map_reference_root(std::move(leaves));

  // Audit log: refold the whole chain from zero.
  crypto::Digest h{};
  for (const auto& rec : audit_log_) h = chain_audit(h, rec);
  c.audit_digest = h;
  c.audit_count = audit_log_.size();

  // Contract stores: rebuild every multiset digest from the raw maps.
  crypto::HashWriter stores_w;
  stores_w.u32(static_cast<std::uint32_t>(contracts_.size()));
  for (const auto& [name, store] : contracts_) {
    crypto::SetHash sum;
    for (const auto& [key, value] : store) sum.add(store_entry_hash(key, value));
    stores_w.str(name);
    stores_w.u64(store.size());
    stores_w.raw(sum.bytes());
  }
  c.stores_digest = stores_w.digest();

  c.burned_fees = burned_fees_;
  c.root = combine_commitment_root(c);
  return c;
}

// ----------------------------------------------------- LedgerStateOverlay

std::optional<std::uint64_t> LedgerStateOverlay::find_balance(
    crypto::Address a) const {
  const auto it = balances_.find(a);
  if (it != balances_.end()) return it->second;
  return base_->find_balance(a);
}

std::uint64_t LedgerStateOverlay::nonce(crypto::Address a) const {
  const auto it = nonces_.find(a);
  return it != nonces_.end() ? it->second : base_->nonce(a);
}

void LedgerStateOverlay::set_balance(crypto::Address a, std::uint64_t value) {
  balances_[a] = value;
}

void LedgerStateOverlay::set_nonce(crypto::Address a, std::uint64_t value) {
  nonces_[a] = value;
}

std::uint64_t LedgerStateOverlay::burned_fees() const {
  return base_->burned_fees() + burned_delta_;
}

void LedgerStateOverlay::append_audit(StoredAuditRecord record) {
  audit_appended_.push_back(std::move(record));
}

const Bytes* LedgerStateOverlay::store_get(const std::string& contract,
                                           const std::string& key) const {
  const auto sit = stores_.find(contract);
  if (sit != stores_.end()) {
    const auto kit = sit->second.find(key);
    if (kit != sit->second.end()) {
      return kit->second.has_value() ? &*kit->second : nullptr;
    }
  }
  return base_->store_get(contract, key);
}

void LedgerStateOverlay::store_put(const std::string& contract,
                                   const std::string& key, Bytes value) {
  stores_[contract][key] = std::move(value);
}

void LedgerStateOverlay::store_erase(const std::string& contract,
                                     const std::string& key) {
  stores_[contract][key] = std::nullopt;
}

std::vector<std::string> LedgerStateOverlay::store_keys_with_prefix(
    const std::string& contract, const std::string& prefix) const {
  std::vector<std::string> out = base_->store_keys_with_prefix(contract, prefix);
  const auto sit = stores_.find(contract);
  if (sit == stores_.end()) return out;
  for (auto it = sit->second.lower_bound(prefix); it != sit->second.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    const auto pos = std::lower_bound(out.begin(), out.end(), it->first);
    const bool present = pos != out.end() && *pos == it->first;
    if (it->second.has_value()) {
      if (!present) out.insert(pos, it->first);
    } else if (present) {
      out.erase(pos);
    }
  }
  return out;
}

void LedgerStateOverlay::commit() {
  // Committing a reader() overlay would silently discard the whole delta, so
  // it is a hard failure in every build type — an assert compiles out in
  // release and turns the bug into state loss.
  if (writable_ == nullptr) {
    MV_LOG_ERROR << "LedgerStateOverlay::commit() on a read-only overlay ("
                 << touched() << " touched entries would be dropped)";
    std::clog.flush();  // abort() skips stream teardown; surface the message
    std::abort();
  }
  for (const auto& [addr, value] : balances_) writable_->set_balance(addr, value);
  for (const auto& [addr, value] : nonces_) writable_->set_nonce(addr, value);
  for (auto& rec : audit_appended_) writable_->append_audit(std::move(rec));
  for (auto& [contract, delta] : stores_) {
    for (auto& [key, value] : delta) {
      if (value.has_value()) {
        writable_->store_put(contract, key, std::move(*value));
      } else {
        writable_->store_erase(contract, key);
      }
    }
  }
  writable_->add_burned_fees(burned_delta_);
  balances_.clear();
  nonces_.clear();
  audit_appended_.clear();
  stores_.clear();
  burned_delta_ = 0;
}

std::size_t LedgerStateOverlay::touched() const {
  std::size_t n = balances_.size() + nonces_.size() + audit_appended_.size();
  for (const auto& [contract, delta] : stores_) n += delta.size();
  return n;
}

// ------------------------------------------------------------ CallContext

const Bytes* CallContext::get(const std::string& key) const {
  return state_.store_get(contract_name_, key);
}

void CallContext::put(const std::string& key, Bytes value) {
  state_.store_put(contract_name_, key, std::move(value));
}

void CallContext::erase(const std::string& key) {
  state_.store_erase(contract_name_, key);
}

std::vector<std::string> CallContext::keys_with_prefix(
    const std::string& prefix) const {
  return state_.store_keys_with_prefix(contract_name_, prefix);
}

Status CallContext::transfer(crypto::Address from, crypto::Address to,
                             std::uint64_t amount) {
  if (auto s = state_.debit(from, amount); !s.ok()) return s;
  state_.credit(to, amount);
  return {};
}

Status CallContext::burn(crypto::Address from, std::uint64_t amount) {
  return state_.debit(from, amount);
}

void CallContext::mint(crypto::Address to, std::uint64_t amount) {
  state_.credit(to, amount);
}

void ContractRegistry::install(std::shared_ptr<const Contract> contract) {
  contracts_[contract->name()] = std::move(contract);
}

const Contract* ContractRegistry::find(const std::string& name) const {
  const auto it = contracts_.find(name);
  return it == contracts_.end() ? nullptr : it->second.get();
}

}  // namespace mv::ledger
