// Assertions shared by the chain test suites.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "ledger/chain.h"

namespace mv::ledger {

/// append() installs a staged commit instead of recomputing it, so what it
/// leaves must equal both what the chain retained for the tip and a
/// from-scratch rehash; and rolling the state back through the retention
/// ring (prove_account below the tip) must reproduce every retained height's
/// commitment and header root. Wrap calls in ASSERT_NO_FATAL_FAILURE.
inline void expect_installed_equals_recomputed(const Blockchain& chain,
                                               crypto::Address probe) {
  const std::int64_t tip = chain.height() - 1;
  const StateCommitment* retained = chain.commitment_at(tip);
  ASSERT_NE(retained, nullptr);
  ASSERT_EQ(chain.state().commitment(), *retained);
  ASSERT_EQ(chain.state().full_rehash_commitment(), *retained);
  for (std::int64_t h = tip; h >= 0; --h) {
    const StateCommitment* at = chain.commitment_at(h);
    if (at == nullptr) break;
    const auto proof = chain.prove_account(probe, h);
    ASSERT_TRUE(proof.ok()) << "height " << h;
    ASSERT_EQ(proof.value().commitment, *at) << "height " << h;
    ASSERT_EQ(at->root, chain.block_at(h)->header.state_root) << "height " << h;
  }
}

}  // namespace mv::ledger
