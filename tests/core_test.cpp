// Core integration tests: the assembled Metaverse — user lifecycle across
// every subsystem, sensor→PET→ledger audit flow, moderation→reputation flow,
// governance-gated policy swaps, on-chain economy, and the ethics audit.
#include <gtest/gtest.h>

#include "core/metaverse.h"
#include "core/portability.h"
#include "privacy/sensors.h"

namespace mv::core {
namespace {

MetaverseConfig test_config() {
  MetaverseConfig c;
  c.seed = 7;
  c.validators = 4;
  c.governance.module_config =
      dao::DaoConfig{0.2, 0.5, 50, std::make_shared<dao::OneMemberOneVote>()};
  c.governance.global_config =
      dao::DaoConfig{0.1, 0.5, 50, std::make_shared<dao::OneMemberOneVote>()};
  c.moderation.mode = moderation::StaffingMode::kAiAssisted;
  c.moderation.human_moderators = 5;
  c.moderation.human_throughput = 1.0;
  return c;
}

TEST(Metaverse, RegisterUserTouchesEverySubsystem) {
  Metaverse mv(test_config());
  const UserHandle u = mv.register_user("eu");
  EXPECT_EQ(mv.user_count(), 1u);
  // World: primary avatar exists.
  ASSERT_NE(mv.world().avatar(u.avatar), nullptr);
  EXPECT_EQ(mv.world().avatar(u.avatar)->owner, u.user_id);
  // Governance: enrolled.
  EXPECT_NE(mv.governance().global().members().find(u.account), nullptr);
  // Reputation: registered.
  EXPECT_TRUE(mv.reputation().known(u.account));
  // Privacy: critical sensors are consent-gated by default.
  EXPECT_FALSE(mv.pipeline(u.user_id)
                   .policy(privacy::SensorType::kGaze)
                   ->consent_given);
  // Ledger: the genesis grant lands with the next consensus round.
  ASSERT_TRUE(mv.run_consensus_round());
  EXPECT_EQ(mv.chain().state().balance(u.address), mv.config().genesis_grant);
}

TEST(Metaverse, IngestFilesOnChainAuditRecords) {
  Metaverse mv(test_config());
  const UserHandle u = mv.register_user("eu");
  mv.pipeline(u.user_id).set_consent(privacy::SensorType::kGaze, true);

  privacy::SensorSim sensors{Rng(9)};
  const auto traits = [&] {
    privacy::SensorSim s{Rng(10)};
    return s.sample_traits();
  }();
  std::size_t released = 0;
  for (int i = 0; i < 16; ++i) {
    released += mv.ingest(u.user_id, sensors.gaze(u.user_id, traits, i)).has_value();
  }
  EXPECT_GT(released, 0u);
  ASSERT_TRUE(mv.run_consensus_round());

  ledger::AuditQuery query(mv.chain());
  const auto records = query.by_subject(u.user_id);
  ASSERT_EQ(records.size(), released);
  EXPECT_EQ(records[0].collector, mv.device_address(u.user_id));
  EXPECT_EQ(records[0].body.data_category, "gaze");
  // The PET chain is on the record — regulators can see what was applied.
  EXPECT_NE(records[0].body.pet_applied, "none");
}

TEST(Metaverse, ModerationVerdictFeedsReputation) {
  auto config = test_config();
  config.reputation.pair_cooldown = 1;
  Metaverse mv(config);
  const UserHandle victim = mv.register_user("eu");
  const UserHandle troll = mv.register_user("us");
  const double before = mv.reputation().score(troll.account);

  // Several reports; AI-assisted moderation resolves them within a few ticks.
  for (int i = 0; i < 5; ++i) {
    mv.report_misbehaviour(victim.user_id, troll.user_id,
                           moderation::ReportKind::kHarassment);
  }
  for (int t = 0; t < 20; ++t) mv.tick();
  EXPECT_GT(mv.moderation().metrics().resolved, 0u);
  EXPECT_LT(mv.reputation().score(troll.account), before);
}

TEST(Metaverse, GovernanceGatedPolicySwap) {
  Metaverse mv(test_config());
  std::vector<UserHandle> users;
  for (int i = 0; i < 5; ++i) users.push_back(mv.register_user("eu"));

  // Before: no regulation for "eu" → violations pass silently.
  policy::DataFlowEvent event;
  event.id = DataFlowId(1);
  event.category = "gaze";
  event.consent = false;
  event.observed_at = 0;
  EXPECT_TRUE(mv.policy().audit("eu", event).empty());

  auto proposal = mv.propose_policy_swap(users[0].user_id, "eu",
                                         policy::make_gdpr_module());
  ASSERT_TRUE(proposal.ok());
  for (const auto& u : users) {
    ASSERT_TRUE(mv.governance()
                    .cast_vote(proposal.value(), u.account,
                               dao::VoteChoice::kYes, mv.clock().now())
                    .ok());
  }
  for (int t = 0; t < 60; ++t) mv.tick();  // voting period elapses
  auto outcome = mv.finalize_governance(proposal.value());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().status, dao::ProposalStatus::kPassed);

  // After: the code enforces what governance decided (§III-A).
  EXPECT_FALSE(mv.policy().audit("eu", event).empty());
  EXPECT_EQ(mv.policy().region_module("eu")->name(), "gdpr");
}

TEST(Metaverse, RejectedSwapChangesNothing) {
  Metaverse mv(test_config());
  std::vector<UserHandle> users;
  for (int i = 0; i < 4; ++i) users.push_back(mv.register_user("us"));
  auto proposal = mv.propose_policy_swap(users[0].user_id, "us",
                                         policy::make_ccpa_module());
  ASSERT_TRUE(proposal.ok());
  for (const auto& u : users) {
    ASSERT_TRUE(mv.governance()
                    .cast_vote(proposal.value(), u.account, dao::VoteChoice::kNo,
                               mv.clock().now())
                    .ok());
  }
  for (int t = 0; t < 60; ++t) mv.tick();
  auto outcome = mv.finalize_governance(proposal.value());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().status, dao::ProposalStatus::kRejected);
  EXPECT_EQ(mv.policy().region_module("us"), nullptr);
}

TEST(Metaverse, OnChainEconomyEndToEnd) {
  Metaverse mv(test_config());
  const UserHandle artist = mv.register_user("eu");
  const UserHandle fan = mv.register_user("eu");
  ASSERT_TRUE(mv.run_consensus_round());  // genesis grants land

  Rng rng(77);
  const auto& artist_wallet = mv.wallet(artist.user_id);
  const auto& fan_wallet = mv.wallet(fan.user_id);
  auto nonce_of = [&](const crypto::Wallet& w) {
    return mv.chain().state().nonce(w.address());
  };

  mv.submit_tx(ledger::make_contract_call(
      artist_wallet, nonce_of(artist_wallet), "nft", "mint",
      nft::NftContract::encode_mint("mv://gallery/sunrise", 1000), 1, rng));
  ASSERT_TRUE(mv.run_consensus_round());
  mv.submit_tx(ledger::make_contract_call(
      artist_wallet, nonce_of(artist_wallet), "nft", "list",
      nft::NftContract::encode_list(0, 500), 1, rng));
  ASSERT_TRUE(mv.run_consensus_round());
  mv.submit_tx(ledger::make_contract_call(fan_wallet, nonce_of(fan_wallet),
                                          "nft", "buy",
                                          nft::NftContract::encode_token(0), 1,
                                          rng));
  ASSERT_TRUE(mv.run_consensus_round());

  const auto token = nft::NftContract::token(mv.chain().state(), 0);
  ASSERT_TRUE(token.ok());
  EXPECT_EQ(token.value().owner, fan.address);
  EXPECT_EQ(token.value().creator, artist.address);
  EXPECT_EQ(mv.chain().state().balance(artist.address),
            mv.config().genesis_grant + 500 - 2);  // sale proceeds minus fees
}

TEST(Metaverse, NftGatedLandFollowsOnChainOwnership) {
  Metaverse mv(test_config());
  const UserHandle landlord = mv.register_user("eu");
  const UserHandle buyer = mv.register_user("eu");
  ASSERT_TRUE(mv.run_consensus_round());

  Rng rng(88);
  auto call = [&](const UserHandle& who, const std::string& method, Bytes args) {
    const auto& w = mv.wallet(who.user_id);
    mv.submit_tx(ledger::make_contract_call(
        w, mv.chain().state().nonce(w.address()), "nft", method,
        std::move(args), 1, rng));
    ASSERT_TRUE(mv.run_consensus_round());
  };

  // Landlord mints LAND token 0 and gates a new estate behind it.
  call(landlord, "mint", nft::NftContract::encode_mint("land://estate-1", 0));
  const SpaceId estate = mv.world().create_space(30, 30);
  mv.world().set_space_access(estate, false, 0);

  EXPECT_TRUE(mv.world().enter(landlord.avatar, estate, {1, 1}).ok());
  EXPECT_EQ(mv.world().enter(buyer.avatar, estate, {2, 2}).error().code,
            "world.land_gated");

  // The LAND sells on chain; access follows ownership, no world-side change.
  call(landlord, "list", nft::NftContract::encode_list(0, 100));
  call(buyer, "buy", nft::NftContract::encode_token(0));
  EXPECT_TRUE(mv.world().enter(buyer.avatar, estate, {2, 2}).ok());
  EXPECT_EQ(mv.world().enter(landlord.avatar, estate, {1, 1}).error().code,
            "world.land_gated");
}

TEST(Metaverse, EthicsAuditReflectsConfiguration) {
  Metaverse good(test_config());
  (void)good.register_user("eu");
  good.governance().create_module("privacy");
  good.policy().set_region_module("eu", policy::make_gdpr_module());
  const EthicsReport gr = good.ethics_audit();
  EXPECT_DOUBLE_EQ(gr.layer_score(EthicalLayer::kHumanRights), 1.0);
  EXPECT_DOUBLE_EQ(gr.layer_score(EthicalLayer::kHumanEffort), 1.0);
  EXPECT_TRUE(gr.layer_supported(EthicalLayer::kHumanExperience));

  // A platform with invite-only admission, no safety, no incentives, no
  // regulation mapping scores visibly worse.
  auto bad_config = test_config();
  bad_config.market_admission = nft::AdmissionPolicy::kInviteOnly;
  bad_config.safety_interventions_enabled = false;
  bad_config.positive_incentives_enabled = false;
  Metaverse bad(bad_config);
  const EthicsReport br = bad.ethics_audit();
  EXPECT_LT(br.layer_score(EthicalLayer::kHumanRights), 1.0);
  EXPECT_LT(br.overall_score(), gr.overall_score());
  EXPECT_FALSE(br.layer_supported(EthicalLayer::kHumanExperience));
  const auto missing = br.missing(EthicalLayer::kHumanRights);
  EXPECT_FALSE(missing.empty());
}

TEST(Portability, PackRoundTripsAndApplies) {
  // Platform A: two governance concerns, two regulated regions.
  Metaverse a(test_config());
  a.governance().create_module("privacy");
  a.governance().create_module("economy");
  a.policy().set_region_module("eu", policy::make_gdpr_module());
  a.policy().set_region_module("california", policy::make_ccpa_module());

  const GovernancePack pack = export_governance_pack(a);
  EXPECT_EQ(pack.governance_modules,
            (std::vector<std::string>{"privacy", "economy"}));
  EXPECT_EQ(pack.region_regulations.at("eu"), "gdpr");

  // Wire round trip.
  auto decoded = GovernancePack::decode(pack.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), pack);

  // Platform B adopts A's governance layout (§III-C portability).
  Metaverse b(test_config());
  ASSERT_TRUE(apply_governance_pack(b, decoded.value()).ok());
  EXPECT_EQ(b.governance().module_count(), 2u);
  EXPECT_EQ(b.policy().region_module("eu")->name(), "gdpr");
  EXPECT_EQ(b.policy().region_module("california")->name(), "ccpa");

  // Re-applying is idempotent (no duplicate concerns).
  ASSERT_TRUE(apply_governance_pack(b, decoded.value()).ok());
  EXPECT_EQ(b.governance().module_count(), 2u);
}

TEST(Portability, ComposedRegulationNamesResolve) {
  auto composed = regulation_by_name("gdpr+ccpa");
  ASSERT_TRUE(composed.ok());
  EXPECT_TRUE(composed.value()->has_rule("consent_required"));
  EXPECT_TRUE(composed.value()->has_rule("sale_opt_out"));
  EXPECT_FALSE(regulation_by_name("napoleonic_code").ok());
}

TEST(Portability, ApplyIsAllOrNothing) {
  Metaverse mv(test_config());
  GovernancePack pack;
  pack.region_regulations["eu"] = "gdpr";
  pack.region_regulations["mars"] = "not_a_regulation";
  EXPECT_FALSE(apply_governance_pack(mv, pack).ok());
  // Nothing was bound: the resolvable region must not have been applied.
  EXPECT_EQ(mv.policy().region_count(), 0u);
}

TEST(Portability, DecodeRejectsGarbageAndTampering) {
  EXPECT_FALSE(GovernancePack::decode(Bytes{1, 2, 3}).ok());
  GovernancePack pack;
  pack.governance_modules = {"privacy"};
  Bytes enc = pack.encode();
  enc.push_back(0x7);  // trailing byte
  EXPECT_FALSE(GovernancePack::decode(enc).ok());
}

TEST(EthicsReport, EmptyReportIsVacuouslyPerfect) {
  EthicsReport r;
  EXPECT_DOUBLE_EQ(r.overall_score(), 1.0);
  EXPECT_DOUBLE_EQ(r.layer_score(EthicalLayer::kHumanRights), 1.0);
}

TEST(Metaverse, IrbGatesUnapprovedPurposes) {
  auto config = test_config();
  config.require_irb_approval = true;
  Metaverse mv(config);
  std::vector<UserHandle> users;
  for (int i = 0; i < 4; ++i) users.push_back(mv.register_user("eu"));
  mv.set_consent(users[0].user_id, privacy::SensorType::kGaze, true);

  privacy::SensorSim sensors{Rng(5)};
  const auto traits = sensors.sample_traits();
  // Consent alone is not enough: the purpose lacks IRB approval.
  EXPECT_FALSE(mv.ingest(users[0].user_id, sensors.gaze(users[0].user_id, traits, 0))
                   .has_value());
  EXPECT_EQ(mv.irb_blocked(), 1u);

  // The community's review board approves the purpose by vote.
  const std::string purpose =
      mv.pipeline(users[0].user_id).policy(privacy::SensorType::kGaze)->purpose;
  auto proposal = mv.propose_purpose_approval(users[0].user_id, purpose);
  ASSERT_TRUE(proposal.ok());
  for (const auto& u : users) {
    ASSERT_TRUE(mv.governance()
                    .cast_vote(proposal.value(), u.account, dao::VoteChoice::kYes,
                               mv.clock().now())
                    .ok());
  }
  for (int t = 0; t < 110; ++t) mv.tick();
  ASSERT_TRUE(mv.finalize_governance(proposal.value()).ok());
  EXPECT_TRUE(mv.purpose_approved(purpose));

  // Subsampling PET (1/4) suppresses some, but releases now happen.
  int released = 0;
  for (int i = 0; i < 8; ++i) {
    released += mv.ingest(users[0].user_id,
                          sensors.gaze(users[0].user_id, traits, 10 + i))
                    .has_value();
  }
  EXPECT_GT(released, 0);
}

TEST(Metaverse, IrbOffApprovesEverything) {
  Metaverse mv(test_config());  // require_irb_approval = false
  EXPECT_TRUE(mv.purpose_approved("anything_at_all"));
}

TEST(Metaverse, ConsentChangesLeaveOnChainReceipts) {
  Metaverse mv(test_config());
  const UserHandle u = mv.register_user("eu");
  mv.set_consent(u.user_id, privacy::SensorType::kGaze, true);
  mv.set_consent(u.user_id, privacy::SensorType::kGaze, false);
  mv.set_consent(9999, privacy::SensorType::kGaze, true);  // unknown: no-op
  ASSERT_TRUE(mv.run_consensus_round());
  ledger::AuditQuery query(mv.chain());
  const auto records = query.by_subject(u.user_id);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].body.purpose, "consent_granted");
  EXPECT_EQ(records[1].body.purpose, "consent_withdrawn");
  // The pipeline actually honours the final (withdrawn) state.
  EXPECT_FALSE(mv.pipeline(u.user_id).policy(privacy::SensorType::kGaze)->consent_given);
}

TEST(Metaverse, PrivacyEpochsResetDpBudgets) {
  auto config = test_config();
  config.privacy_epoch = 10;
  Metaverse mv(config);
  const UserHandle u = mv.register_user("eu");
  // Meter the gaze channel tightly: budget for exactly one eps=1 release.
  auto policy = *mv.pipeline(u.user_id).policy(privacy::SensorType::kGaze);
  policy.consent_given = true;
  policy.transforms = {std::make_shared<privacy::LaplaceNoise>(1.0, 0.5)};
  policy.epsilon_budget = 1.0;
  mv.pipeline(u.user_id).set_policy(privacy::SensorType::kGaze, policy);

  privacy::SensorSim sensors{Rng(12)};
  const auto traits = sensors.sample_traits();
  int released = 0;
  for (int i = 0; i < 5; ++i) {
    released += mv.ingest(u.user_id, sensors.gaze(u.user_id, traits, i)).has_value();
  }
  EXPECT_EQ(released, 1);  // budget exhausted after one release
  for (int t = 0; t < 10; ++t) mv.tick();  // epoch boundary passes
  EXPECT_TRUE(mv.ingest(u.user_id, sensors.gaze(u.user_id, traits, 100)).has_value());
}

TEST(Metaverse, SealedGovernanceThroughFederatedDao) {
  auto config = test_config();
  config.governance.global_config.commit_reveal = true;
  config.governance.global_config.reveal_period = 30;
  Metaverse mv(config);
  std::vector<UserHandle> users;
  for (int i = 0; i < 4; ++i) users.push_back(mv.register_user("eu"));
  auto proposal = mv.propose_policy_swap(users[0].user_id, "eu",
                                         policy::make_gdpr_module());
  ASSERT_TRUE(proposal.ok());
  // Commit phase: nobody's choice is visible anywhere.
  std::vector<std::uint64_t> salts{11, 22, 33, 44};
  for (std::size_t i = 0; i < users.size(); ++i) {
    ASSERT_TRUE(mv.governance()
                    .commit_vote(proposal.value(), users[i].account,
                                 dao::Dao::make_commitment(dao::VoteChoice::kYes,
                                                           salts[i],
                                                           users[i].account),
                                 mv.clock().now())
                    .ok());
  }
  for (int t = 0; t < 55; ++t) mv.tick();  // voting window (50) closes
  for (std::size_t i = 0; i < users.size(); ++i) {
    ASSERT_TRUE(mv.governance()
                    .reveal_vote(proposal.value(), users[i].account,
                                 dao::VoteChoice::kYes, salts[i], mv.clock().now())
                    .ok());
  }
  for (int t = 0; t < 35; ++t) mv.tick();  // reveal window closes
  auto outcome = mv.finalize_governance(proposal.value());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().status, dao::ProposalStatus::kPassed);
  EXPECT_EQ(mv.policy().region_module("eu")->name(), "gdpr");
}

TEST(Metaverse, AuditFlowRoutesByUserRegion) {
  Metaverse mv(test_config());
  const UserHandle eu_user = mv.register_user("eu");
  const UserHandle us_user = mv.register_user("california");
  mv.policy().set_region_module("eu", policy::make_gdpr_module());
  mv.policy().set_region_module("california", policy::make_ccpa_module());

  policy::DataFlowEvent event;
  event.id = DataFlowId(1);
  event.category = "gaze";
  event.consent = false;  // GDPR violation, CCPA-tolerated
  event.pet_applied = true;
  event.declared_purpose = "service";
  event.purpose = "service";
  EXPECT_FALSE(mv.audit_flow(eu_user.user_id, event).empty());
  EXPECT_TRUE(mv.audit_flow(us_user.user_id, event).empty());
  EXPECT_TRUE(mv.audit_flow(9999, event).empty());  // unknown user: no-op
}

TEST(Metaverse, SnapshotAggregatesAcrossModules) {
  Metaverse mv(test_config());
  const auto empty = mv.snapshot();
  EXPECT_EQ(empty.users, 0u);
  EXPECT_EQ(empty.chain_height, 0);

  const UserHandle a = mv.register_user("eu");
  const UserHandle b = mv.register_user("eu");
  ASSERT_TRUE(mv.run_consensus_round());
  mv.report_misbehaviour(a.user_id, b.user_id, moderation::ReportKind::kSpam);
  for (int t = 0; t < 10; ++t) mv.tick();

  const auto s = mv.snapshot();
  EXPECT_EQ(s.users, 2u);
  EXPECT_EQ(s.chain_height, 1);
  EXPECT_GE(s.committed_txs, 2u);  // the two genesis grants
  EXPECT_GT(s.avg_reputation, 0.0);
  EXPECT_GE(s.moderation_resolved, 1u);
  EXPECT_GT(s.ethics_score, 0.0);
  EXPECT_EQ(s.now, mv.clock().now());
}

TEST(Metaverse, BusDeliversResolutionEvents) {
  Metaverse mv(test_config());
  const UserHandle a = mv.register_user("eu");
  const UserHandle b = mv.register_user("eu");
  mv.report_misbehaviour(a.user_id, b.user_id, moderation::ReportKind::kSpam);
  for (int t = 0; t < 10; ++t) mv.tick();
  // tick() steps moderation; its resolutions are the verdicts reputation
  // consumes.
  const auto& resolutions = mv.moderation().resolutions();
  ASSERT_GE(resolutions.size(), 1u);
  EXPECT_EQ(resolutions.front().offender, b.account);
}

}  // namespace
}  // namespace mv::core
