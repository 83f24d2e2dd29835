// Metaverse: the paper's modular framework, assembled (Figure 3).
//
// One object wires every substrate into the architecture of §IV-C:
//  - decision-making  → FederatedDao (module committees + global escalation)
//  - resources/trust  → ReputationSystem, misinformation defences
//  - privacy          → per-user PrivacyPipeline with recommended policies,
//                       cloud releases mirrored as on-ledger audit records
//  - regulation       → PolicyEngine with per-region regulation modules,
//                       hot-swapped through governance decisions
//  - moderation       → ModerationEngine; upheld verdicts feed reputation
//  - economy          → NFT + DAO contracts hosted on a BFT-replicated ledger
//  - world            → avatars, privacy bubbles, secondary avatars
// plus the Ethical-Hierarchy audit over the live configuration.
#pragma once

#include <memory>
#include <set>
#include <unordered_map>

#include "core/ethics.h"
#include "dao/contract.h"
#include "dao/federated.h"
#include "ledger/audit.h"
#include "ledger/consensus.h"
#include "moderation/engine.h"
#include "nft/contract.h"
#include "nft/market.h"
#include "policy/engine.h"
#include "privacy/pipeline.h"
#include "reputation/reputation.h"
#include "world/world.h"

namespace mv::core {

struct MetaverseConfig {
  std::uint64_t seed = 42;
  std::size_t validators = 4;
  std::size_t max_txs_per_block = 256;
  /// Privacy epoch length: every channel's differential-privacy budget
  /// resets each epoch (0 = never).
  Tick privacy_epoch = 0;
  /// §II-D IRB model: "all the players involved in creating and managing the
  /// metaverse should adopt some form of institutional review board". When
  /// set, a sensor channel's declared purpose must be governance-approved
  /// before any cloud release with that purpose goes through.
  bool require_irb_approval = false;
  dao::FederatedConfig governance;
  reputation::ReputationConfig reputation;
  moderation::EngineConfig moderation;
  nft::AdmissionPolicy market_admission = nft::AdmissionPolicy::kReputationGated;
  bool safety_interventions_enabled = true;
  bool positive_incentives_enabled = true;
  double space_width = 100.0;
  double space_height = 100.0;
  std::uint64_t genesis_grant = 1'000'000;  ///< starting balance per user
};

/// Everything the platform knows about a registered user.
struct UserHandle {
  std::uint64_t user_id = 0;
  AccountId account;          ///< governance / reputation identity
  AvatarId avatar;            ///< primary avatar
  std::string region;         ///< routes regulation
  crypto::Address address;    ///< on-ledger identity
};

class Metaverse {
 public:
  explicit Metaverse(MetaverseConfig config);

  // ---- user lifecycle -------------------------------------------------
  /// Registers a user end to end: wallet + genesis grant, DAO enrollment,
  /// reputation account, primary avatar, and a privacy pipeline preloaded
  /// with the recommended per-sensor policies.
  UserHandle register_user(const std::string& region);
  [[nodiscard]] const UserHandle* user(std::uint64_t user_id) const;
  [[nodiscard]] std::size_t user_count() const { return users_.size(); }
  [[nodiscard]] const crypto::Wallet& wallet(std::uint64_t user_id) const;
  /// Address the user's XR device files audit records under.
  [[nodiscard]] crypto::Address device_address(std::uint64_t user_id) const;
  /// Platform sanction identity (applies reputation penalties on upheld
  /// moderation verdicts).
  static constexpr AccountId kSystemAccount{0};

  // ---- subsystem access ------------------------------------------------
  [[nodiscard]] world::World& world() { return world_; }
  [[nodiscard]] dao::FederatedDao& governance() { return governance_; }
  [[nodiscard]] reputation::ReputationSystem& reputation() { return reputation_; }
  [[nodiscard]] policy::PolicyEngine& policy() { return policy_; }
  [[nodiscard]] moderation::ModerationEngine& moderation() { return moderation_; }
  [[nodiscard]] privacy::PrivacyPipeline& pipeline(std::uint64_t user_id);
  [[nodiscard]] ledger::ValidatorCommittee& committee() { return *committee_; }
  [[nodiscard]] const ledger::Blockchain& chain() const { return committee_->chain(0); }
  [[nodiscard]] SimClock& clock() { return clock_; }

  // ---- cross-module flows ----------------------------------------------
  /// Push a sensor reading through the user's privacy pipeline; cloud
  /// releases are filed as on-ledger audit records (§II-D).
  std::optional<privacy::SensorReading> ingest(std::uint64_t user_id,
                                               const privacy::SensorReading& reading);

  /// Consent change with an on-ledger receipt (§II-D transparency: privacy
  /// practices "should be transparent and clear to all members").
  void set_consent(std::uint64_t user_id, privacy::SensorType type, bool consent);

  /// IRB workflow (§II-D): open a governance proposal to approve a data
  /// purpose; when it passes via finalize_governance, releases resume.
  [[nodiscard]] Result<ProposalId> propose_purpose_approval(std::uint64_t author,
                                                            std::string purpose);
  [[nodiscard]] bool purpose_approved(const std::string& purpose) const {
    return !config_.require_irb_approval || approved_purposes_.contains(purpose);
  }
  [[nodiscard]] std::uint64_t irb_blocked() const { return irb_blocked_; }

  /// File a misbehaviour report; moderation resolves it asynchronously and
  /// upheld verdicts feed the reputation system (applied in tick()).
  void report_misbehaviour(std::uint64_t reporter, std::uint64_t offender,
                           moderation::ReportKind kind);

  /// Governance-gated regulation swap (§III-E): opens a global proposal;
  /// when finalize_governance() sees it pass, the region's module swaps.
  [[nodiscard]] Result<ProposalId> propose_policy_swap(std::uint64_t author,
                                                       std::string region,
                                                       policy::ModulePtr module);
  [[nodiscard]] Result<dao::FederatedOutcome> finalize_governance(ProposalId id);

  /// Audit a data-flow event under the *user's* region's regulation module
  /// (the §III-E routing: rules follow where the subject is).
  [[nodiscard]] std::vector<policy::Violation> audit_flow(
      std::uint64_t user_id, const policy::DataFlowEvent& event);

  /// Submit a signed transaction to the validator committee.
  void submit_tx(const ledger::Transaction& tx) { committee_->submit(tx); }
  /// Drive one consensus round.
  bool run_consensus_round() { return committee_->run_round(); }

  /// Advance platform time: steps moderation, applies fresh verdicts to
  /// reputation, decays reputation each `decay_interval` ticks.
  void tick();

  // ---- the paper's audit ------------------------------------------------
  [[nodiscard]] EthicsReport ethics_audit() const;

  /// One-look platform health across every module (telemetry surface).
  struct Snapshot {
    Tick now = 0;
    std::size_t users = 0;
    std::int64_t chain_height = 0;
    std::uint64_t committed_txs = 0;
    std::size_t audit_records = 0;
    std::size_t governance_modules = 0;
    std::uint64_t ballots_cast = 0;
    std::size_t moderation_backlog = 0;
    std::uint64_t moderation_resolved = 0;
    double avg_reputation = 0.0;
    double policy_compliance = 1.0;
    double ethics_score = 1.0;
  };
  [[nodiscard]] Snapshot snapshot() const;

  [[nodiscard]] const MetaverseConfig& config() const { return config_; }

 private:
  struct UserRecord {
    UserHandle handle;
    std::unique_ptr<crypto::Wallet> wallet;
    /// Device identity: audit records are filed by the XR device, separately
    /// from the user's spending wallet (keeps nonce streams independent).
    std::unique_ptr<crypto::Wallet> device_wallet;
    std::unique_ptr<privacy::PrivacyPipeline> pipeline;
    std::unique_ptr<ledger::AuditClient> audit_client;
  };

  struct PendingSwap {
    std::string region;
    policy::ModulePtr module;
  };

  struct PendingPurpose {
    std::string purpose;
  };

  MetaverseConfig config_;
  Rng rng_;
  SimClock clock_;
  net::Network network_;
  std::shared_ptr<ledger::ContractRegistry> contracts_;
  std::unique_ptr<crypto::Wallet> faucet_;  ///< genesis treasury
  std::uint64_t faucet_nonce_ = 0;
  std::unique_ptr<ledger::ValidatorCommittee> committee_;
  world::World world_;
  SpaceId plaza_;
  dao::FederatedDao governance_;
  reputation::ReputationSystem reputation_;
  policy::PolicyEngine policy_;
  moderation::ModerationEngine moderation_;
  std::unordered_map<std::uint64_t, UserRecord> users_;
  std::unordered_map<AccountId, std::uint64_t> account_to_user_;
  std::unordered_map<ProposalId, PendingSwap> pending_swaps_;
  std::unordered_map<ProposalId, PendingPurpose> pending_purposes_;
  std::set<std::string> approved_purposes_;
  std::uint64_t irb_blocked_ = 0;
  std::uint64_t next_user_id_ = 1;
  std::uint64_t next_report_id_ = 1;
  std::size_t resolutions_seen_ = 0;
};

}  // namespace mv::core
