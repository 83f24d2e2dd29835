// Ledger state: balances, nonces, the on-chain audit log, and per-contract
// key-value stores.
//
// Two layers share one mutation interface (LedgerView):
//  - LedgerState is the committed, materialized state (a plain value type);
//  - LedgerStateOverlay is a copy-on-write delta over a base view, built via
//    the named factories reader()/nested(). Block assembly and validation
//    trial-apply transactions on a reader overlay; a block's overlay is
//    staged once (LedgerState::stage) and its stage installed on commit
//    (LedgerState::install), so the per-block cost is proportional to the
//    block, not to the world. Contract-call atomicity uses a nested overlay
//    that commits into its parent.
//
// State commitment is incremental (DESIGN.md §"State commitment"): the
// account map is Merkleized (crypto::MerkleMap), the audit log carries a
// running chain hash, and each contract store an additive multiset digest,
// so staging a block costs O(touched · log n) instead of re-hashing the
// world. full_rehash_commitment() recomputes everything from scratch as a
// differential-testing oracle.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/result.h"
#include "crypto/merkle_map.h"
#include "crypto/set_hash.h"
#include "crypto/sha256.h"
#include "ledger/transaction.h"

namespace mv::ledger {

class ContractRegistry;

/// Audit record as stored on-chain (body + provenance).
struct StoredAuditRecord {
  crypto::Address collector;
  AuditRecordBody body;
  Tick height = 0;
};

/// Per-contract ordered KV store. Ordered so commitments are canonical.
using ContractStore = std::map<std::string, Bytes>;

/// Commitment to a full ledger state: one root digest plus the per-section
/// digests it is combined from. LedgerState::commitment() returns the
/// committed state's, LedgerState::stage() a block's post-state's; block
/// headers carry `root`.
struct StateCommitment {
  crypto::Digest root{};           ///< combined commitment (block header field)
  crypto::Digest accounts_root{};  ///< MerkleMap root over account leaves
  std::uint64_t account_count = 0;
  crypto::Digest audit_digest{};   ///< running hash over the audit log
  std::uint64_t audit_count = 0;
  crypto::Digest stores_digest{};  ///< combined per-contract-store digests
  std::uint64_t burned_fees = 0;

  [[nodiscard]] bool operator==(const StateCommitment&) const = default;
};

/// Recombine a commitment's section digests into its root (the
/// "mv.state.v2" layout, DESIGN.md §"State commitment"). Light clients use
/// this to check a served section breakdown against a header's state_root.
[[nodiscard]] crypto::Digest combine_commitment_root(const StateCommitment& c);

/// The section codec AccountProof and SnapshotManifest share: accounts_root,
/// account_count, audit_digest, audit_count, stores_digest, burned_fees, in
/// the order combine_commitment_root hashes them. The root is derived, never
/// transported: the read recombines it, so served sections that disagree
/// with a root cannot exist.
void write_commitment_sections(ByteWriter& w, const StateCommitment& c);
[[nodiscard]] StateCommitment read_commitment_sections(ByteReader& r);

/// Digest of one account leaf as committed in the accounts MerkleMap:
/// sha256(u8(has_balance) || u64(balance) || u64(nonce)). A leaf exists iff
/// the account has a balance entry or a nonzero nonce. Exposed so account
/// proofs can be verified without a LedgerState.
[[nodiscard]] crypto::Digest account_leaf_digest(bool has_balance,
                                                 std::uint64_t balance,
                                                 std::uint64_t nonce);

/// One account's committed content: the balance entry (absent until the
/// account is first credited; a zero entry still counts) and the nonce.
struct Account {
  bool has_balance = false;
  std::uint64_t balance = 0;
  std::uint64_t nonce = 0;

  /// Whether the account has a leaf in the commitment. Only such records are
  /// stored: a zero nonce without a balance entry is the same as no record.
  [[nodiscard]] bool exists() const { return has_balance || nonce != 0; }
  [[nodiscard]] bool operator==(const Account&) const = default;
};

/// Hash of an address for the account table. Addresses are digest prefixes
/// (crypto::address_of), so the value itself spreads well.
struct AddressHash {
  [[nodiscard]] std::size_t operator()(crypto::Address a) const {
    return std::hash<std::uint64_t>{}(a.value);
  }
};

/// The account table. Unordered: whatever must be canonical (snapshot
/// export, commitments) sorts for itself.
using AccountTable = std::unordered_map<crypto::Address, Account, AddressHash>;

/// Inverse of one committed block's delta, recorded from the pre-block state
/// when the block is staged (LedgerState::stage). Blockchain keeps a bounded ring of
/// these so recent historical states can be reconstructed for snapshot
/// export and stale-height account proofs — O(touched) to capture, O(sum of
/// touched) to roll back, instead of a full per-height state copy.
struct StateUndo {
  /// Prior balance entries for every balance the block wrote
  /// (nullopt = the account had no balance entry).
  std::map<crypto::Address, std::optional<std::uint64_t>> balances;
  /// Prior nonces for every nonce the block wrote (0 and "absent" are
  /// commitment-equivalent, so a plain value suffices).
  std::map<crypto::Address, std::uint64_t> nonces;
  struct StoreUndo {
    bool existed = true;  ///< store was materialized before the block
    /// Prior values for every key the block wrote (nullopt = absent).
    std::map<std::string, std::optional<Bytes>> entries;
  };
  std::map<std::string, StoreUndo> stores;
  std::size_t audit_count = 0;        ///< audit log length before the block
  crypto::Digest audit_digest{};      ///< running chain hash before the block
  std::uint64_t burned_delta = 0;     ///< fees the block burned
};

/// Incrementally maintained digest of one contract store.
struct StoreDigest {
  crypto::SetHash sum;       ///< multiset hash over (key, value) entries
  std::uint64_t count = 0;   ///< live entries
};

/// A block's post-state, computed once against the state the block executed
/// on (LedgerState::stage) and written by LedgerState::install without being
/// computed again. Every field is absolute rather than relative to that
/// state, so a stage installs onto it or onto any copy with equal content.
struct StagedCommit {
  StateCommitment commitment;
  /// Final record of every account the block wrote, ascending by address; a
  /// record that does not exist() is removed.
  std::vector<std::pair<crypto::Address, Account>> accounts;
  crypto::MerkleMap::Prepared account_tree;  ///< root_with()'s work, for apply()
  std::vector<StoredAuditRecord> audit;      ///< appended records, oldest first
  /// contract -> key -> new value (nullopt = erase)
  std::map<std::string, std::map<std::string, std::optional<Bytes>>> stores;
  std::map<std::string, StoreDigest> store_digests;  ///< of the stores touched
  StateUndo undo;  ///< inverse delta, for the retention ring and commit hook
};

class LedgerStateOverlay;

/// Mutation/read interface shared by the committed state and overlays.
/// Transactions and contracts touch the ledger only through these
/// primitives, so the same apply() runs against either layer.
class LedgerView {
 public:
  virtual ~LedgerView() = default;

  // ---- accounts ----
  /// Balance entry, or nullopt when the account was never credited. The
  /// distinction matters: debit refuses unknown accounts, and a zero entry
  /// is part of the state commitment.
  [[nodiscard]] virtual std::optional<std::uint64_t> find_balance(
      crypto::Address a) const = 0;
  [[nodiscard]] std::uint64_t balance(crypto::Address a) const {
    return find_balance(a).value_or(0);
  }
  [[nodiscard]] bool has_account(crypto::Address a) const {
    return find_balance(a).has_value();
  }
  [[nodiscard]] virtual std::uint64_t nonce(crypto::Address a) const = 0;
  virtual void set_balance(crypto::Address a, std::uint64_t value) = 0;
  virtual void set_nonce(crypto::Address a, std::uint64_t value) = 0;

  // ---- fees / audit ----
  [[nodiscard]] virtual std::uint64_t burned_fees() const = 0;
  virtual void add_burned_fees(std::uint64_t amount) = 0;
  virtual void append_audit(StoredAuditRecord record) = 0;

  // ---- contract stores ----
  [[nodiscard]] virtual const Bytes* store_get(const std::string& contract,
                                               const std::string& key) const = 0;
  virtual void store_put(const std::string& contract, const std::string& key,
                         Bytes value) = 0;
  virtual void store_erase(const std::string& contract,
                           const std::string& key) = 0;
  [[nodiscard]] virtual std::vector<std::string> store_keys_with_prefix(
      const std::string& contract, const std::string& prefix) const = 0;

  // ---- conveniences built on the primitives ----
  void credit(crypto::Address a, std::uint64_t amount);
  /// Debit; fails if the balance is insufficient (or the account is unknown).
  [[nodiscard]] Status debit(crypto::Address a, std::uint64_t amount);

  /// Validate and apply one transaction at the given height.
  /// Checks: signature, nonce equality, fee affordability, kind-specific body.
  /// Atomic: any failure leaves the view exactly as it was (contract calls
  /// run in a nested overlay that is committed only on success).
  /// `signature_preverified` skips the in-line signature check; pass true
  /// only when signature_valid() was already observed true for `tx`
  /// (apply_block does so for signatures its verified-signature memo vouches
  /// for).
  [[nodiscard]] Status apply(const Transaction& tx,
                             const ContractRegistry& contracts, Tick height,
                             bool signature_preverified = false);
};

class LedgerState final : public LedgerView {
 public:
  // ---- accounts ----
  [[nodiscard]] std::optional<std::uint64_t> find_balance(
      crypto::Address a) const override;
  [[nodiscard]] std::uint64_t nonce(crypto::Address a) const override;
  /// The whole record in one lookup (all-default when there is none).
  [[nodiscard]] Account account(crypto::Address a) const;
  void set_balance(crypto::Address a, std::uint64_t value) override;
  void set_nonce(crypto::Address a, std::uint64_t value) override;

  /// Snapshot-install fast path: replace the whole account section from
  /// entries in strictly ascending address order. The accounts Merkle tree
  /// is bulk-built from sorted leaves (MerkleMap::from_sorted_leaves) —
  /// one leaf hash per account, no per-key descents — instead of n
  /// set_balance/set_nonce round trips through the tree. Every entry must
  /// exist() and order is the caller's contract (the strict snapshot decoder
  /// enforces both before calling).
  void load_accounts(const std::vector<std::pair<crypto::Address, Account>>& sorted);

  // ---- audit log (§II-D) ----
  [[nodiscard]] const std::vector<StoredAuditRecord>& audit_log() const {
    return audit_log_;
  }
  void append_audit(StoredAuditRecord record) override;

  // ---- contract stores ----
  [[nodiscard]] const ContractStore* find_store(const std::string& contract) const;
  [[nodiscard]] const Bytes* store_get(const std::string& contract,
                                       const std::string& key) const override;
  void store_put(const std::string& contract, const std::string& key,
                 Bytes value) override;
  void store_erase(const std::string& contract, const std::string& key) override;
  /// Create `contract`'s (empty) store if missing, mirroring store_erase's
  /// side effect. The snapshot decoder uses this to rebuild empty stores,
  /// which the stores commitment covers (contract count + name).
  void materialize_store(const std::string& contract);
  [[nodiscard]] std::vector<std::string> store_keys_with_prefix(
      const std::string& contract, const std::string& prefix) const override;

  // ---- state commitment ----
  /// Commitment to this state (root + per-section digests), from the
  /// maintained sections.
  [[nodiscard]] StateCommitment commitment() const;
  /// Oracle: recompute the commitment from the raw maps with no incremental
  /// caches (independent account-tree recursion, audit chain refold, store
  /// digests from scratch). Differential tests assert it equals commitment().
  [[nodiscard]] StateCommitment full_rehash_commitment() const;
  [[nodiscard]] crypto::Digest full_rehash_root() const {
    return full_rehash_commitment().root;
  }

  /// Compute the post-state of `block` — a reader overlay directly over this
  /// state, which it consumes — once, with its inverse delta, in a form
  /// install() writes without recomputing. O(touched · log n): the cached
  /// Merkle tree and section digests are combined with the block's delta.
  [[nodiscard]] StagedCommit stage(LedgerStateOverlay&& block) const;
  /// Write a staged block: one table write per account, the accounts tree
  /// updated from the stage's recorded digests (MerkleMap::apply), and the
  /// audit, store and fee sections taken from the stage as they are. This
  /// state must have the content of the state stage() ran on (that object or
  /// an equal copy); afterwards commitment() equals staged.commitment.
  /// install() does not read the stage's undo.
  void install(StagedCommit&& staged);

  [[nodiscard]] std::uint64_t burned_fees() const override { return burned_fees_; }
  void add_burned_fees(std::uint64_t amount) override { burned_fees_ += amount; }

  // ---- raw section access (snapshot export, shard partition, audits) ----
  [[nodiscard]] const AccountTable& accounts() const { return accounts_; }
  [[nodiscard]] const std::map<std::string, ContractStore>& stores() const {
    return contracts_;
  }
  /// Running audit chain hash (the commitment's audit section, cached).
  [[nodiscard]] const crypto::Digest& audit_digest() const { return audit_digest_; }

  /// Roll back one committed block's delta (see StateUndo). The undo must
  /// have been captured against exactly this state's pre-block version and
  /// undos must be applied newest-first; anything else corrupts the state.
  void apply_undo(const StateUndo& undo);

  /// Snapshot-export fast path: a copy carrying the raw content sections
  /// (accounts, audit log, stores, burned fees, cached section
  /// digests) but an EMPTY accounts Merkle tree — cloning the tree is the
  /// dominant cost of a full copy, and the exporter takes the manifest
  /// commitment from the chain's retention ring instead. apply_undo works on
  /// the clone (leaf refreshes land in a small scratch tree), but any
  /// commitment-bearing API touching the accounts tree returns garbage by
  /// construction: the clone must stay local to the export path.
  [[nodiscard]] LedgerState content_clone() const;

  /// Merkle inclusion proof for `a` against the current accounts_root (a
  /// non-membership proof when the account has no leaf). Pair with
  /// commitment() for the section digests a verifier recombines.
  [[nodiscard]] crypto::MerkleMapProof prove_account(crypto::Address a) const {
    return account_tree_.prove(a.value);
  }

 private:
  /// Store `acc` as `a`'s record and refresh its Merkle leaf (both removed
  /// when the record does not exist()).
  void put_account(crypto::Address a, const Account& acc);
  /// A block's delta flattened for stage() (defined in state.cpp).
  struct CommitmentDelta;
  /// Commitment of this state with `delta` on top, additionally filling
  /// `stage` (when given) with what install() needs and the undo.
  [[nodiscard]] StateCommitment compute_commitment(const CommitmentDelta& delta,
                                                   StagedCommit* stage) const;

  AccountTable accounts_;
  std::vector<StoredAuditRecord> audit_log_;
  std::map<std::string, ContractStore> contracts_;
  std::uint64_t burned_fees_ = 0;

  // Maintained commitment sections (see DESIGN.md §"State commitment").
  crypto::MerkleMap account_tree_;                  ///< addr -> account leaf
  crypto::Digest audit_digest_{};                   ///< running chain hash
  std::map<std::string, StoreDigest> store_digests_;  ///< mirrors contracts_
};

/// Copy-on-write delta over a base view. Reads fall through to the base;
/// writes land in the overlay. commit() folds the delta into the base in
/// O(touched); discarding the overlay (destruction) costs the same.
///
/// Construct via the named factories — the intent is part of the call site:
///   auto scratch = LedgerStateOverlay::reader(base);   // staged, never committed
///   auto scratch = LedgerStateOverlay::nested(parent); // commit() folds in
///
/// Single-use: after commit() the overlay is empty and should be dropped.
class LedgerStateOverlay final : public LedgerView {
 public:
  /// Read-only base: trial application without the right to commit (block
  /// assembly and validation; LedgerState::stage consumes the delta).
  /// commit() is a hard failure (logged abort) in every build type — it
  /// would discard the delta.
  [[nodiscard]] static LedgerStateOverlay reader(const LedgerView& base) {
    return LedgerStateOverlay(&base, nullptr);
  }
  /// Writable overlay over `parent` (contract-call atomicity): commit()
  /// folds the delta into it.
  [[nodiscard]] static LedgerStateOverlay nested(LedgerView& parent) {
    return LedgerStateOverlay(&parent, &parent);
  }

  [[nodiscard]] std::optional<std::uint64_t> find_balance(
      crypto::Address a) const override;
  [[nodiscard]] std::uint64_t nonce(crypto::Address a) const override;
  void set_balance(crypto::Address a, std::uint64_t value) override;
  void set_nonce(crypto::Address a, std::uint64_t value) override;

  [[nodiscard]] std::uint64_t burned_fees() const override;
  void add_burned_fees(std::uint64_t amount) override { burned_delta_ += amount; }
  void append_audit(StoredAuditRecord record) override;

  [[nodiscard]] const Bytes* store_get(const std::string& contract,
                                       const std::string& key) const override;
  void store_put(const std::string& contract, const std::string& key,
                 Bytes value) override;
  void store_erase(const std::string& contract, const std::string& key) override;
  [[nodiscard]] std::vector<std::string> store_keys_with_prefix(
      const std::string& contract, const std::string& prefix) const override;

  /// Fold the delta into the (writable) base. O(touched entries). Blocks
  /// commit through LedgerState::stage()/install() instead; this serves
  /// nested overlays.
  void commit();

  /// Number of accounts/keys recorded in the delta (diagnostics).
  [[nodiscard]] std::size_t touched() const;

 private:
  friend class LedgerState;  // stage() consumes the delta

  LedgerStateOverlay(const LedgerView* base, LedgerView* writable)
      : base_(base), writable_(writable) {}

  const LedgerView* base_ = nullptr;  ///< read fall-through
  LedgerView* writable_ = nullptr;    ///< commit target (null = read-only)

  std::map<crypto::Address, std::uint64_t> balances_;
  std::map<crypto::Address, std::uint64_t> nonces_;
  std::vector<StoredAuditRecord> audit_appended_;
  /// nullopt marks a deletion (tombstone).
  std::map<std::string, std::map<std::string, std::optional<Bytes>>> stores_;
  std::uint64_t burned_delta_ = 0;
};

/// Execution context handed to contracts. Contracts touch the ledger only
/// through this interface; their own store is pre-resolved.
class CallContext {
 public:
  CallContext(LedgerView& state, std::string contract_name,
              crypto::Address caller, Tick height)
      : state_(state),
        contract_name_(std::move(contract_name)),
        caller_(caller),
        height_(height) {}

  [[nodiscard]] crypto::Address caller() const { return caller_; }
  [[nodiscard]] Tick height() const { return height_; }

  // KV on the contract's own store.
  [[nodiscard]] const Bytes* get(const std::string& key) const;
  void put(const std::string& key, Bytes value);
  void erase(const std::string& key);
  /// Iterate keys with a given prefix (ordered).
  [[nodiscard]] std::vector<std::string> keys_with_prefix(const std::string& prefix) const;

  // Funds held by accounts (escrow flows in the NFT market).
  [[nodiscard]] std::uint64_t balance(crypto::Address a) const { return state_.balance(a); }
  [[nodiscard]] Status transfer(crypto::Address from, crypto::Address to,
                                std::uint64_t amount);
  /// Remove funds from circulation on this ledger (cross-shard lock). Fails
  /// exactly like a transfer when `from` cannot cover `amount`. Conservation
  /// shifts from per-ledger to cross-ledger: the caller must account for the
  /// burned amount elsewhere (ledger/shard.h tracks it as locked value).
  [[nodiscard]] Status burn(crypto::Address from, std::uint64_t amount);
  /// Create funds on this ledger (cross-shard mint against a proven receipt).
  /// The inverse of burn(); only contracts mediating an audited cross-ledger
  /// flow should call it.
  void mint(crypto::Address to, std::uint64_t amount);

 private:
  LedgerView& state_;
  std::string contract_name_;
  crypto::Address caller_;
  Tick height_;
};

/// Contract logic. Stateless — all persistent data lives in the LedgerState
/// store so that state copies stay consistent.
class Contract {
 public:
  virtual ~Contract() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual Status call(CallContext& ctx, const std::string& method,
                                    const Bytes& args) const = 0;
};

class ContractRegistry {
 public:
  void install(std::shared_ptr<const Contract> contract);
  [[nodiscard]] const Contract* find(const std::string& name) const;
  [[nodiscard]] std::size_t size() const { return contracts_.size(); }

 private:
  std::map<std::string, std::shared_ptr<const Contract>> contracts_;
};

}  // namespace mv::ledger
