#include "core/metaverse.h"

namespace mv::core {

namespace {
constexpr std::uint64_t kFaucetMultiplier = 100'000;
}  // namespace

Metaverse::Metaverse(MetaverseConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      network_(clock_, Rng(config_.seed ^ 0x5eedbeef),
               net::LinkParams{.base_latency = 1.0, .jitter = 1.0, .drop_rate = 0.0}),
      contracts_(std::make_shared<ledger::ContractRegistry>()),
      world_(Rng(config_.seed ^ 0x0a11ce)),
      governance_(config_.governance, Rng(config_.seed ^ 0xda0da0)),
      reputation_(config_.reputation),
      moderation_(config_.moderation, Rng(config_.seed ^ 0x0de7a11)) {
  contracts_->install(std::make_shared<dao::DaoContract>(dao::DaoContractConfig{}));
  contracts_->install(std::make_shared<nft::NftContract>());

  faucet_ = std::make_unique<crypto::Wallet>(rng_);
  ledger::LedgerState genesis;
  genesis.credit(faucet_->address(),
                 config_.genesis_grant * kFaucetMultiplier);
  committee_ = std::make_unique<ledger::ValidatorCommittee>(
      network_, config_.validators, contracts_, genesis,
      config_.max_txs_per_block, rng_);

  plaza_ = world_.create_space(config_.space_width, config_.space_height);

  // NFT-gated land (§IV-A, the Decentraland LAND model): a gated space
  // admits the avatar whose owner's wallet holds the land token on chain.
  world_.set_access_oracle([this](std::uint64_t user, std::uint64_t token) {
    const auto it = users_.find(user);
    if (it == users_.end()) return false;
    const auto view = nft::NftContract::token(chain().state(), token);
    return view.ok() && view.value().owner == it->second.handle.address;
  });

  // The platform sanction identity: old and staked, so its reports carry
  // full credibility.
  (void)reputation_.register_account(kSystemAccount, clock_.now() - 1'000'000,
                                     /*stake=*/1'000.0);

  // Reports from credible members jump the moderation queue (§IV-C).
  moderation_.set_credibility_oracle([this](AccountId id) {
    return reputation_.credibility(id, clock_.now());
  });
}

UserHandle Metaverse::register_user(const std::string& region) {
  UserRecord record;
  record.wallet = std::make_unique<crypto::Wallet>(rng_);
  record.device_wallet = std::make_unique<crypto::Wallet>(rng_);
  record.audit_client =
      std::make_unique<ledger::AuditClient>(*record.device_wallet, rng_);

  UserHandle handle;
  handle.user_id = next_user_id_++;
  handle.account = AccountId(handle.user_id);
  handle.region = region;
  handle.address = record.wallet->address();
  handle.avatar = world_.spawn_primary(
      handle.user_id, plaza_,
      {rng_.uniform(0.0, config_.space_width),
       rng_.uniform(0.0, config_.space_height)});
  record.handle = handle;

  // Governance enrollment (§IV-C: every member involved in decision-making).
  dao::Member member;
  member.id = handle.account;
  member.tokens = 1;
  (void)governance_.enroll(member);

  // Reputation account with a small starter stake.
  (void)reputation_.register_account(handle.account, clock_.now(), 10.0);

  // Privacy pipeline preloaded with §II-D recommended policies and the
  // on-ledger audit hook.
  record.pipeline = std::make_unique<privacy::PrivacyPipeline>(
      Rng(config_.seed ^ (handle.user_id * 0x9e37)));
  for (const auto type :
       {privacy::SensorType::kGaze, privacy::SensorType::kHeadPose,
        privacy::SensorType::kHeartRate, privacy::SensorType::kSpatialMap,
        privacy::SensorType::kMicrophone}) {
    record.pipeline->set_policy(type, privacy::recommended_policy(type));
  }
  auto* audit_client = record.audit_client.get();
  const std::uint64_t uid = handle.user_id;
  record.pipeline->set_audit_hook(
      [this, audit_client, uid](const privacy::SensorReading& reading,
                                const std::string& pet_chain,
                                const std::string& purpose) {
        ledger::AuditRecordBody body;
        body.data_category = privacy::to_string(reading.type);
        body.purpose = purpose;
        body.subject = uid;
        body.pet_applied = pet_chain;
        committee_->submit(
            audit_client->record(chain().state(), std::move(body)));
      });

  // Genesis grant: a faucet transfer lands with the next consensus round.
  committee_->submit(ledger::make_transfer(*faucet_, faucet_nonce_++,
                                           handle.address,
                                           config_.genesis_grant, 0, rng_));

  const std::uint64_t user_id = handle.user_id;
  account_to_user_.emplace(handle.account, user_id);
  users_.emplace(user_id, std::move(record));
  return handle;
}

const UserHandle* Metaverse::user(std::uint64_t user_id) const {
  const auto it = users_.find(user_id);
  return it == users_.end() ? nullptr : &it->second.handle;
}

const crypto::Wallet& Metaverse::wallet(std::uint64_t user_id) const {
  return *users_.at(user_id).wallet;
}

crypto::Address Metaverse::device_address(std::uint64_t user_id) const {
  return users_.at(user_id).device_wallet->address();
}

privacy::PrivacyPipeline& Metaverse::pipeline(std::uint64_t user_id) {
  return *users_.at(user_id).pipeline;
}

std::optional<privacy::SensorReading> Metaverse::ingest(
    std::uint64_t user_id, const privacy::SensorReading& reading) {
  if (config_.require_irb_approval) {
    const auto* policy = pipeline(user_id).policy(reading.type);
    if (policy != nullptr && !purpose_approved(policy->purpose)) {
      ++irb_blocked_;
      return std::nullopt;
    }
  }
  return pipeline(user_id).process(reading);
}

Result<ProposalId> Metaverse::propose_purpose_approval(std::uint64_t author,
                                                       std::string purpose) {
  const UserHandle* handle = user(author);
  if (handle == nullptr) return make_error("core.no_such_user", "unknown user");
  auto id = governance_.propose(handle->account, ModuleId::invalid(),
                                "IRB: approve data purpose '" + purpose + "'",
                                clock_.now());
  if (!id.ok()) return id;
  pending_purposes_.emplace(id.value(), PendingPurpose{std::move(purpose)});
  return id;
}

void Metaverse::set_consent(std::uint64_t user_id, privacy::SensorType type,
                            bool consent) {
  const auto it = users_.find(user_id);
  if (it == users_.end()) return;
  it->second.pipeline->set_consent(type, consent);
  // Consent receipt: the change itself is an auditable processing event.
  ledger::AuditRecordBody receipt;
  receipt.data_category = privacy::to_string(type);
  receipt.purpose = consent ? "consent_granted" : "consent_withdrawn";
  receipt.subject = user_id;
  receipt.pet_applied = "n/a";
  committee_->submit(
      it->second.audit_client->record(chain().state(), std::move(receipt)));
}

void Metaverse::report_misbehaviour(std::uint64_t reporter,
                                    std::uint64_t offender,
                                    moderation::ReportKind kind) {
  const UserHandle* rep = user(reporter);
  const UserHandle* off = user(offender);
  if (rep == nullptr || off == nullptr) return;
  moderation::Report report;
  report.id = ReportId(next_report_id_++);
  report.reporter = rep->account;
  report.offender = off->account;
  report.kind = kind;
  report.filed_at = clock_.now();
  // Ground truth for the simulated classifier: reports are mostly genuine.
  report.is_violation = rng_.chance(0.85);
  moderation_.submit(std::move(report));
}

std::vector<policy::Violation> Metaverse::audit_flow(
    std::uint64_t user_id, const policy::DataFlowEvent& event) {
  const UserHandle* handle = user(user_id);
  if (handle == nullptr) return {};
  return policy_.audit(handle->region, event);
}

Result<ProposalId> Metaverse::propose_policy_swap(std::uint64_t author,
                                                  std::string region,
                                                  policy::ModulePtr module) {
  const UserHandle* handle = user(author);
  if (handle == nullptr) return make_error("core.no_such_user", "unknown user");
  auto id = governance_.propose(
      handle->account, ModuleId::invalid(),
      "swap regulation of '" + region + "' to " + module->name(), clock_.now());
  if (!id.ok()) return id;
  pending_swaps_.emplace(id.value(), PendingSwap{std::move(region), std::move(module)});
  return id;
}

Result<dao::FederatedOutcome> Metaverse::finalize_governance(ProposalId id) {
  auto outcome = governance_.finalize(id, clock_.now());
  if (!outcome.ok()) return outcome;
  const bool passed = outcome.value().status == dao::ProposalStatus::kPassed ||
                      outcome.value().status == dao::ProposalStatus::kExecuted;
  if (const auto it = pending_swaps_.find(id); it != pending_swaps_.end()) {
    if (passed) {
      // Code follows governance (§III-A): the decision changes the platform.
      policy_.set_region_module(it->second.region, it->second.module);
    }
    pending_swaps_.erase(it);
  }
  if (const auto it = pending_purposes_.find(id); it != pending_purposes_.end()) {
    if (passed) approved_purposes_.insert(it->second.purpose);
    pending_purposes_.erase(it);
  }
  return outcome;
}

void Metaverse::tick() {
  clock_.advance();
  const Tick now = clock_.now();
  moderation_.step(now);

  // Apply fresh moderation verdicts to reputation: upheld report → platform
  // sanction on the offender (§IV-C Human Effort: "report malicious users'
  // misbehaviour... while voting").
  const auto& resolutions = moderation_.resolutions();
  for (; resolutions_seen_ < resolutions.size(); ++resolutions_seen_) {
    const auto& r = resolutions[resolutions_seen_];
    if (r.verdict != moderation::Verdict::kUphold) continue;
    (void)reputation_.report(kSystemAccount, r.offender, 1.0, now);
  }

  if (now % 100 == 0) reputation_.decay_epoch();
  if (config_.privacy_epoch > 0 && now % config_.privacy_epoch == 0) {
    for (auto& [id, record] : users_) record.pipeline->reset_budgets();
  }
  network_.step();
}

Metaverse::Snapshot Metaverse::snapshot() const {
  Snapshot s;
  s.now = clock_.now();
  s.users = users_.size();
  s.chain_height = committee_->chain(0).height();
  s.committed_txs = committee_->stats().committed_txs;
  s.audit_records = committee_->chain(0).state().audit_log().size();
  s.governance_modules = governance_.module_count();
  s.ballots_cast = governance_.global().stats().ballots_cast;
  s.moderation_backlog = moderation_.backlog();
  s.moderation_resolved = moderation_.metrics().resolved;
  double rep_sum = 0.0;
  for (const auto& [id, record] : users_) {
    rep_sum += reputation_.score(record.handle.account);
  }
  s.avg_reputation = users_.empty() ? 0.0 : rep_sum / static_cast<double>(users_.size());
  s.policy_compliance = policy_.stats().compliance_rate();
  s.ethics_score = ethics_audit().overall_score();
  return s;
}

EthicsReport Metaverse::ethics_audit() const {
  EthicsReport report;
  const auto add = [&](EthicalLayer layer, std::string capability,
                       bool satisfied, std::string evidence) {
    report.checks.push_back(EthicalCheck{layer, std::move(capability), satisfied,
                                         std::move(evidence)});
  };

  // --- Human rights ---
  add(EthicalLayer::kHumanRights, "decentralized_governance",
      governance_.module_count() > 0,
      std::to_string(governance_.module_count()) + " governance modules");
  add(EthicalLayer::kHumanRights, "transparent_replicated_records",
      committee_ != nullptr && committee_->size() >= 4,
      std::to_string(committee_ ? committee_->size() : 0) + " validators (BFT needs >= 4)");
  add(EthicalLayer::kHumanRights, "privacy_by_default", user_count() > 0,
      "recommended PET policies installed per user at registration");
  add(EthicalLayer::kHumanRights, "local_regulation_adaptivity",
      policy_.region_count() > 0,
      std::to_string(policy_.region_count()) + " regions mapped to regulation modules");
  add(EthicalLayer::kHumanRights, "inclusive_access",
      config_.market_admission != nft::AdmissionPolicy::kInviteOnly,
      std::string("market admission: ") + nft::to_string(config_.market_admission));

  // --- Human effort ---
  add(EthicalLayer::kHumanEffort, "reputation_attached",
      reputation_.account_count() > user_count(),  // users + system account
      std::to_string(reputation_.account_count()) + " reputation accounts");
  add(EthicalLayer::kHumanEffort, "user_reporting_channel", true,
      std::string("moderation mode: ") + moderation::to_string(config_.moderation.mode));
  add(EthicalLayer::kHumanEffort, "stakeholder_voting",
      governance_.global().members().size() > 0,
      std::to_string(governance_.global().members().size()) + " enrolled voters");

  // --- Human experience ---
  add(EthicalLayer::kHumanExperience, "avatar_plurality", true,
      "secondary avatars and privacy bubbles supported by the world engine");
  add(EthicalLayer::kHumanExperience, "physical_safety_interventions",
      config_.safety_interventions_enabled, "config flag");
  add(EthicalLayer::kHumanExperience, "positive_behaviour_incentives",
      config_.positive_incentives_enabled, "config flag");

  return report;
}

}  // namespace mv::core
