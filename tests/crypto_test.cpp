// Unit and property tests for the crypto substrate: SHA-256 against FIPS
// vectors, Merkle inclusion proofs, Schnorr sign/verify algebra, wallets.
#include <gtest/gtest.h>

#include <string>

#include <map>

#include "crypto/merkle.h"
#include "crypto/merkle_map.h"
#include "crypto/schnorr.h"
#include "crypto/set_hash.h"
#include "crypto/sha256.h"
#include "crypto/wallet.h"

namespace mv::crypto {
namespace {

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, EmptyStringVector) {
  EXPECT_EQ(to_hex(sha256(std::string_view{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(to_hex(sha256(std::string_view{"abc"})),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector) {
  EXPECT_EQ(to_hex(sha256(std::string_view{
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"})),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (const char c : msg) h.update(std::string_view(&c, 1));
  EXPECT_EQ(h.finalize(), sha256(std::string_view{msg}));
}

TEST(Sha256, ReusableAfterFinalize) {
  // finalize() resets the hasher; the same instance must produce correct
  // digests for subsequent, independent messages (historically it silently
  // hashed garbage on reuse).
  Sha256 h;
  h.update(std::string_view{"abc"});
  EXPECT_EQ(to_hex(h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(h.finalize()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  h.update(std::string_view{"abc"});
  EXPECT_EQ(h.finalize(), sha256(std::string_view{"abc"}));
}

TEST(Sha256, HashWriterMatchesByteWriterBytes) {
  // HashWriter streams the ByteWriter wire format; digests must agree.
  ByteWriter bw;
  bw.u8(7);
  bw.u32(0xdeadbeef);
  bw.u64(0x0123456789abcdefULL);
  bw.str("metaverse");
  bw.bytes(Bytes{1, 2, 3});
  HashWriter hw;
  hw.u8(7);
  hw.u32(0xdeadbeef);
  hw.u64(0x0123456789abcdefULL);
  hw.str("metaverse");
  hw.bytes(Bytes{1, 2, 3});
  EXPECT_EQ(hw.digest(), sha256(bw.take()));
}

TEST(Sha256, PrefixIsStable) {
  const Digest d = sha256(std::string_view{"abc"});
  EXPECT_EQ(digest_prefix64(d), digest_prefix64(sha256(std::string_view{"abc"})));
  EXPECT_NE(digest_prefix64(d), digest_prefix64(sha256(std::string_view{"abd"})));
}

// ---------------------------------------------------------------- Merkle

std::vector<Digest> make_leaves(std::size_t n) {
  std::vector<Digest> leaves;
  leaves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    leaves.push_back(sha256(std::string_view{"leaf" + std::to_string(i)}));
  }
  return leaves;
}

TEST(Merkle, EmptyTreeZeroRoot) {
  MerkleTree t({});
  EXPECT_EQ(t.root(), Digest{});
  EXPECT_EQ(t.leaf_count(), 0u);
}

TEST(Merkle, SingleLeafRootIsLeaf) {
  const auto leaves = make_leaves(1);
  MerkleTree t(leaves);
  EXPECT_EQ(t.root(), leaves[0]);
}

TEST(Merkle, RootChangesWithAnyLeaf) {
  auto leaves = make_leaves(8);
  const MerkleTree t1(leaves);
  leaves[3][0] ^= 0xff;
  const MerkleTree t2(leaves);
  EXPECT_NE(t1.root(), t2.root());
}

TEST(Merkle, ProveOutOfRangeThrows) {
  MerkleTree t(make_leaves(4));
  EXPECT_THROW((void)t.prove(4), std::out_of_range);
}

class MerkleProofTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleProofTest, AllLeavesVerify) {
  const std::size_t n = GetParam();
  const auto leaves = make_leaves(n);
  const MerkleTree tree(leaves);
  for (std::size_t i = 0; i < n; ++i) {
    const auto proof = tree.prove(i);
    EXPECT_TRUE(MerkleTree::verify(leaves[i], proof, tree.root()))
        << "leaf " << i << " of " << n;
  }
}

TEST_P(MerkleProofTest, WrongLeafRejected) {
  const std::size_t n = GetParam();
  const auto leaves = make_leaves(n);
  const MerkleTree tree(leaves);
  const Digest bogus = sha256(std::string_view{"not-a-leaf"});
  for (std::size_t i = 0; i < n; ++i) {
    if (leaves[i] == bogus) continue;
    EXPECT_FALSE(MerkleTree::verify(bogus, tree.prove(i), tree.root()));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleProofTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 33));

TEST(Merkle, TamperedProofRejected) {
  const auto leaves = make_leaves(8);
  const MerkleTree tree(leaves);
  auto proof = tree.prove(2);
  proof[1].sibling[5] ^= 0x01;
  EXPECT_FALSE(MerkleTree::verify(leaves[2], proof, tree.root()));
}

// ---------------------------------------------------------------- Schnorr

TEST(Schnorr, PowModKnownValues) {
  EXPECT_EQ(pow_mod(2, 10, 1'000'000'007ULL), 1024u);
  EXPECT_EQ(pow_mod(3, 0, 97), 1u);
  EXPECT_EQ(mul_mod(kFieldP - 1, kFieldP - 1, kFieldP), 1u);  // (-1)^2 = 1
}

TEST(Schnorr, SignVerifyRoundTrip) {
  Rng rng(42);
  const KeyPair kp = generate_keypair(rng);
  const std::string msg = "register data-collection activity";
  const auto m = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size());
  const Signature sig = sign(kp.priv, m, rng);
  EXPECT_TRUE(verify(kp.pub, m, sig));
}

TEST(Schnorr, WrongKeyRejected) {
  Rng rng(43);
  const KeyPair kp1 = generate_keypair(rng);
  const KeyPair kp2 = generate_keypair(rng);
  const Bytes msg{1, 2, 3, 4};
  const Signature sig = sign(kp1.priv, msg, rng);
  EXPECT_TRUE(verify(kp1.pub, msg, sig));
  EXPECT_FALSE(verify(kp2.pub, msg, sig));
}

TEST(Schnorr, TamperedMessageRejected) {
  Rng rng(44);
  const KeyPair kp = generate_keypair(rng);
  const Bytes msg{1, 2, 3, 4};
  const Signature sig = sign(kp.priv, msg, rng);
  const Bytes other{1, 2, 3, 5};
  EXPECT_FALSE(verify(kp.pub, other, sig));
}

TEST(Schnorr, TamperedSignatureRejected) {
  Rng rng(45);
  const KeyPair kp = generate_keypair(rng);
  const Bytes msg{9, 9, 9};
  Signature sig = sign(kp.priv, msg, rng);
  sig.s = (sig.s + 1) % kGroupQ;
  EXPECT_FALSE(verify(kp.pub, msg, sig));
}

TEST(Schnorr, MalformedSignatureRejected) {
  Rng rng(46);
  const KeyPair kp = generate_keypair(rng);
  const Bytes msg{1};
  EXPECT_FALSE(verify(kp.pub, msg, Signature{0, 0}));
  EXPECT_FALSE(verify(kp.pub, msg, Signature{kGroupQ, 5}));
  EXPECT_FALSE(verify(PublicKey{0}, msg, sign(kp.priv, msg, rng)));
}

class SchnorrPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchnorrPropertyTest, RandomMessagesRoundTrip) {
  Rng rng(GetParam());
  const KeyPair kp = generate_keypair(rng);
  for (int i = 0; i < 20; ++i) {
    Bytes msg;
    const auto len = rng.next_below(64);
    for (std::uint64_t j = 0; j < len; ++j) {
      msg.push_back(static_cast<std::uint8_t>(rng.next_u64()));
    }
    const Signature sig = sign(kp.priv, msg, rng);
    EXPECT_TRUE(verify(kp.pub, msg, sig));
    if (!msg.empty()) {
      Bytes tampered = msg;
      tampered[0] ^= 0x80;
      EXPECT_FALSE(verify(kp.pub, tampered, sig));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchnorrPropertyTest,
                         ::testing::Values(1, 17, 99, 12345));

// ---------------------------------------------------------------- Wallet

TEST(Wallet, AddressDeterministicFromKey) {
  Rng rng(50);
  const Wallet w(rng);
  EXPECT_TRUE(w.address().valid());
  EXPECT_EQ(w.address(), address_of(w.public_key()));
}

TEST(Wallet, DistinctWalletsDistinctAddresses) {
  Rng rng(51);
  const Wallet a(rng), b(rng);
  EXPECT_NE(a.address(), b.address());
}

TEST(Wallet, SignaturesVerifyAgainstPublicKey) {
  Rng rng(52);
  const Wallet w(rng);
  const Bytes msg{0xde, 0xad};
  const Signature sig = w.sign(msg, rng);
  EXPECT_TRUE(verify(w.public_key(), msg, sig));
}

TEST(Wallet, AddressToStringHex) {
  Address a{0xff};
  EXPECT_EQ(a.to_string(), "0xff");
}

// ---------------------------------------------------------------- MerkleMap

namespace {
Digest value_digest(std::uint64_t x) {
  HashWriter w;
  w.u64(x);
  return w.digest();
}

Digest reference_of(const std::map<std::uint64_t, Digest>& model) {
  return merkle_map_reference_root({model.begin(), model.end()});
}
}  // namespace

TEST(MerkleMap, EmptyMapZeroRoot) {
  MerkleMap m;
  EXPECT_EQ(m.root(), Digest{});
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(merkle_map_reference_root({}), Digest{});
}

TEST(MerkleMap, SingleKeyRootIsLeafHash) {
  MerkleMap m;
  m.put(42, value_digest(1));
  EXPECT_EQ(m.root(), MerkleMap::leaf_hash(42, value_digest(1)));
}

TEST(MerkleMap, EraseRestoresPriorRoot) {
  MerkleMap m;
  m.put(1, value_digest(1));
  const Digest one = m.root();
  m.put(2, value_digest(2));
  EXPECT_NE(m.root(), one);
  m.erase(2);
  EXPECT_EQ(m.root(), one);
  m.erase(1);
  EXPECT_EQ(m.root(), Digest{});
  EXPECT_EQ(m.size(), 0u);
}

TEST(MerkleMap, DeepCopyIsIndependent) {
  MerkleMap a;
  for (std::uint64_t k = 0; k < 100; ++k) a.put(k, value_digest(k));
  MerkleMap b = a;
  const Digest before = a.root();
  b.put(7, value_digest(999));
  b.erase(50);
  EXPECT_EQ(a.root(), before);
  EXPECT_NE(b.root(), before);
}

TEST(MerkleMap, FromSortedLeavesMatchesIncrementalBuild) {
  // The bulk loader (batched leaf hashing, eager inner hashing) must be
  // bit-identical to put()-loop construction and to the structural oracle,
  // across sizes that hit every shape: single leaf, one full nibble fanout,
  // clustered low keys (deep shared prefixes), and large random spreads.
  Rng rng(4242);
  for (const std::size_t n : {1u, 2u, 15u, 16u, 17u, 100u, 1000u, 5000u}) {
    std::map<std::uint64_t, Digest> model;
    while (model.size() < n) {
      const std::uint64_t key =
          rng.chance(0.3) ? rng.next_below(256) : rng.next_u64();
      model[key] = value_digest(rng.next_u64());
    }
    const std::vector<std::pair<std::uint64_t, Digest>> leaves(model.begin(),
                                                               model.end());
    const MerkleMap bulk = MerkleMap::from_sorted_leaves(leaves);
    MerkleMap incremental;
    for (const auto& [k, v] : model) incremental.put(k, v);
    ASSERT_EQ(bulk.size(), n);
    ASSERT_EQ(bulk.root(), incremental.root()) << "n=" << n;
    ASSERT_EQ(bulk.root(), reference_of(model)) << "n=" << n;
    // Lookups traverse the bulk-built structure, not just its hashes.
    for (const auto& [k, v] : model) ASSERT_TRUE(bulk.contains(k));
  }
}

TEST(MerkleMap, MatchesReferenceOracleUnderRandomChurn) {
  // Incremental root (cached tree, dirty-path rehash) vs. the structural
  // recursion oracle, across interleaved inserts, updates, and erases.
  // Keys mix dense low values (deep shared prefixes, node splits) with
  // random 64-bit values (shallow spread).
  Rng rng(77);
  MerkleMap m;
  std::map<std::uint64_t, Digest> model;
  for (int round = 0; round < 40; ++round) {
    for (int op = 0; op < 50; ++op) {
      const std::uint64_t key =
          rng.chance(0.5) ? rng.next_below(64) : rng.next_u64();
      if (rng.chance(0.3) && !model.empty()) {
        // Erase: an existing key half the time, a probably-absent one else.
        const std::uint64_t victim =
            rng.chance(0.5) ? std::next(model.begin(),
                                        static_cast<std::ptrdiff_t>(
                                            rng.next_below(model.size())))
                                  ->first
                            : key;
        m.erase(victim);
        model.erase(victim);
      } else {
        const Digest v = value_digest(rng.next_u64());
        m.put(key, v);
        model[key] = v;
      }
    }
    ASSERT_EQ(m.size(), model.size());
    ASSERT_EQ(m.root(), reference_of(model)) << "round " << round;
  }
}

TEST(MerkleMap, RootWithMatchesMaterializedApplication) {
  Rng rng(91);
  MerkleMap base;
  std::map<std::uint64_t, Digest> model;
  for (std::uint64_t k = 0; k < 500; ++k) {
    const std::uint64_t key = rng.chance(0.5) ? k : rng.next_u64();
    const Digest v = value_digest(key);
    base.put(key, v);
    model[key] = v;
  }
  for (int round = 0; round < 20; ++round) {
    MerkleMap::Delta delta;
    auto expected = model;
    for (int op = 0; op < 30; ++op) {
      const std::uint64_t key =
          rng.chance(0.5)
              ? std::next(model.begin(), static_cast<std::ptrdiff_t>(
                                             rng.next_below(model.size())))
                    ->first
              : rng.next_u64();
      if (rng.chance(0.4)) {
        delta[key] = std::nullopt;  // tombstone (possibly of an absent key)
        expected.erase(key);
      } else {
        const Digest v = value_digest(rng.next_u64());
        delta[key] = v;
        expected[key] = v;
      }
    }
    const Digest before = base.root();
    ASSERT_EQ(base.root_with(delta), reference_of(expected)) << "round " << round;
    ASSERT_EQ(base.size_with(delta), expected.size());
    ASSERT_EQ(base.root(), before);  // root_with must not mutate the map
  }
}

// ------------------------------------------------------- MerkleMapPrepared

namespace {
/// Keys in a few tight clusters (long shared prefixes: leaf splits deep in
/// the trie, and count-1 chains once neighbours are erased) plus random
/// 64-bit keys (shallow spread).
std::uint64_t clustered_key(Rng& rng) {
  constexpr std::uint64_t kClusters[] = {0x0ULL, 0xABCD'EF00'0000'0000ULL,
                                         0xABCD'EF01'2300'0000ULL,
                                         0x7000'0000'0000'0000ULL};
  if (rng.chance(0.3)) return rng.next_u64();
  return kClusters[rng.next_below(4)] | rng.next_below(64);
}

/// A random delta against `model`: updates and erases of present keys,
/// inserts of new keys (many next to present ones, so leaves split), and
/// tombstones of absent keys. Applies it to `model`.
MerkleMap::Delta random_delta(Rng& rng, std::map<std::uint64_t, Digest>& model,
                              int ops) {
  MerkleMap::Delta delta;
  for (int op = 0; op < ops; ++op) {
    std::uint64_t key = clustered_key(rng);
    if (!model.empty() && rng.chance(0.5)) {
      key = std::next(model.begin(),
                      static_cast<std::ptrdiff_t>(rng.next_below(model.size())))
                ->first;
      if (rng.chance(0.3)) key ^= 1 + rng.next_below(3);  // a near neighbour
    }
    if (rng.chance(0.4)) {
      delta[key] = std::nullopt;
      model.erase(key);
    } else {
      const Digest v = value_digest(rng.next_u64());
      delta[key] = v;
      model[key] = v;
    }
  }
  return delta;
}

/// Every key of `model` proves membership against `m`'s root, and a few
/// absent keys prove non-membership.
void expect_proofs_verify(const MerkleMap& m,
                          const std::map<std::uint64_t, Digest>& model,
                          const MerkleMap::Delta& delta, Rng& rng) {
  const Digest root = m.root();
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(MerkleMap::verify(root, key, value, m.prove(key))) << key;
  }
  for (const auto& [key, value] : delta) {
    if (!model.contains(key)) {
      ASSERT_TRUE(MerkleMap::verify(root, key, std::nullopt, m.prove(key))) << key;
    }
  }
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t key = clustered_key(rng);
    if (model.contains(key)) continue;
    ASSERT_TRUE(MerkleMap::verify(root, key, std::nullopt, m.prove(key))) << key;
  }
}
}  // namespace

TEST(MerkleMapPrepared, ApplyMatchesOracleAndPlainMutation) {
  // Across chained rounds of randomized deltas, installing what root_with()
  // prepared must give the same map as plain put()/erase() followed by
  // root(): same root (equal to the structural oracle), same size, and
  // proofs that verify against it.
  Rng rng(1515);
  MerkleMap m;
  std::map<std::uint64_t, Digest> model;
  for (int round = 0; round < 60; ++round) {
    const MerkleMap::Delta delta = random_delta(rng, model, 1 + round % 40);
    MerkleMap::Prepared p;
    const Digest before = m.root();
    const Digest with = m.root_with(delta, &p);
    ASSERT_EQ(m.root(), before) << "root_with must not mutate, round " << round;
    ASSERT_EQ(with, reference_of(model)) << "round " << round;
    ASSERT_EQ(p.root, with);
    ASSERT_EQ(p.base_root, before);
    ASSERT_EQ(p.size, model.size());

    MerkleMap plain = m;
    for (const auto& [key, value] : delta) {
      if (value.has_value()) {
        plain.put(key, *value);
      } else {
        plain.erase(key);
      }
    }
    m.apply(p);
    ASSERT_EQ(m.root(), reference_of(model)) << "round " << round;
    ASSERT_EQ(m.root(), plain.root()) << "round " << round;
    ASSERT_EQ(m.size(), model.size());
    ASSERT_NO_FATAL_FAILURE(expect_proofs_verify(m, model, delta, rng));
  }
  // Draining every key leaves the empty commitment.
  MerkleMap::Delta drain;
  for (const auto& [key, value] : model) drain[key] = std::nullopt;
  MerkleMap::Prepared p;
  ASSERT_EQ(m.root_with(drain, &p), Digest{});
  m.apply(p);
  EXPECT_EQ(m.root(), Digest{});
  EXPECT_EQ(m.size(), 0u);
}

TEST(MerkleMapPrepared, ApplyOntoEqualContentWithDifferentHistory) {
  // The recorded digests are keyed by (depth, prefix) and commit to content
  // only, so they must install onto any map with equal content: here one
  // built in reverse order through extra keys that were erased again, which
  // leaves count-1 inner chains where the other map holds plain leaves.
  Rng rng(2727);
  for (int trial = 0; trial < 25; ++trial) {
    std::map<std::uint64_t, Digest> model;
    const int n = 1 + static_cast<int>(rng.next_below(300));
    for (int i = 0; i < n; ++i) model[clustered_key(rng)] = value_digest(rng.next_u64());
    MerkleMap forward;
    for (const auto& [key, value] : model) forward.put(key, value);
    MerkleMap reverse;
    std::vector<std::uint64_t> extra;
    for (auto it = model.rbegin(); it != model.rend(); ++it) {
      reverse.put(it->first, it->second);
      const std::uint64_t near = it->first ^ (1 + rng.next_below(7));
      if (!model.contains(near)) {
        reverse.put(near, value_digest(near));
        extra.push_back(near);
      }
    }
    for (const std::uint64_t key : extra) reverse.erase(key);
    ASSERT_EQ(reverse.root(), forward.root()) << "trial " << trial;

    auto expected = model;
    const MerkleMap::Delta delta =
        random_delta(rng, expected, 1 + static_cast<int>(rng.next_below(60)));
    MerkleMap::Prepared p;
    (void)forward.root_with(delta, &p);
    reverse.apply(p);
    forward.apply(p);
    ASSERT_EQ(reverse.root(), reference_of(expected)) << "trial " << trial;
    ASSERT_EQ(forward.root(), reverse.root()) << "trial " << trial;
    ASSERT_EQ(reverse.size(), expected.size());
    ASSERT_NO_FATAL_FAILURE(expect_proofs_verify(reverse, expected, delta, rng));
  }
}

TEST(MerkleMapPrepared, ApplyOntoDifferentContentTakesTheGuardPath) {
  // A map whose root differs from the prepared base must not take any
  // recorded digest on trust: the delta still applies and the root is the
  // correct one for *that* map's content plus the delta.
  Rng rng(3939);
  for (int trial = 0; trial < 25; ++trial) {
    std::map<std::uint64_t, Digest> base_model;
    const int n = 2 + static_cast<int>(rng.next_below(200));
    for (int i = 0; i < n; ++i) {
      base_model[clustered_key(rng)] = value_digest(rng.next_u64());
    }
    MerkleMap base;
    for (const auto& [key, value] : base_model) base.put(key, value);

    // The other map differs by a changed value, a missing key and an extra
    // key, all inside the clusters the delta touches.
    auto other_model = base_model;
    other_model.begin()->second = value_digest(rng.next_u64());
    other_model.erase(std::prev(other_model.end()));
    other_model[clustered_key(rng)] = value_digest(rng.next_u64());
    MerkleMap other;
    for (const auto& [key, value] : other_model) other.put(key, value);
    ASSERT_NE(other.root(), base.root());

    auto scratch = base_model;
    const MerkleMap::Delta delta =
        random_delta(rng, scratch, 1 + static_cast<int>(rng.next_below(60)));
    MerkleMap::Prepared p;
    (void)base.root_with(delta, &p);
    other.apply(p);
    for (const auto& [key, value] : delta) {
      if (value.has_value()) {
        other_model[key] = *value;
      } else {
        other_model.erase(key);
      }
    }
    ASSERT_EQ(other.root(), reference_of(other_model)) << "trial " << trial;
    ASSERT_EQ(other.size(), other_model.size());
    ASSERT_NO_FATAL_FAILURE(expect_proofs_verify(other, other_model, delta, rng));
  }
}

// --------------------------------------------------------- MerkleMapProof

namespace {
/// Verify after an encode/decode round-trip, the way a remote verifier sees
/// the proof.
bool wire_verify(const Digest& root, std::uint64_t key,
                 const std::optional<Digest>& value, const MerkleMapProof& p) {
  const auto decoded = MerkleMapProof::decode(p.encode());
  if (!decoded.ok()) return false;
  if (!(decoded.value() == p)) return false;
  return MerkleMap::verify(root, key, value, decoded.value());
}
}  // namespace

TEST(MerkleMapProof, EmptyMapProvesNonMembership) {
  MerkleMap m;
  const MerkleMapProof p = m.prove(123);
  EXPECT_TRUE(p.steps.empty());
  EXPECT_FALSE(p.has_terminal_leaf);
  EXPECT_TRUE(wire_verify(m.root(), 123, std::nullopt, p));
  // The same proof cannot claim membership, nor verify a nonzero root.
  EXPECT_FALSE(MerkleMap::verify(m.root(), 123, value_digest(1), p));
  EXPECT_FALSE(MerkleMap::verify(value_digest(9), 123, std::nullopt, p));
}

TEST(MerkleMapProof, SingleKeyMembershipAndCollision) {
  MerkleMap m;
  m.put(42, value_digest(7));
  const MerkleMapProof member = m.prove(42);
  EXPECT_TRUE(member.steps.empty());
  EXPECT_TRUE(wire_verify(m.root(), 42, value_digest(7), member));
  EXPECT_FALSE(MerkleMap::verify(m.root(), 42, value_digest(8), member));
  // Any other key's non-membership proof is the colliding leaf itself.
  const MerkleMapProof absent = m.prove(43);
  EXPECT_TRUE(absent.has_terminal_leaf);
  EXPECT_EQ(absent.terminal_key, 42u);
  EXPECT_TRUE(wire_verify(m.root(), 43, std::nullopt, absent));
  EXPECT_FALSE(MerkleMap::verify(m.root(), 42, std::nullopt, absent));
}

TEST(MerkleMapProof, MembershipRoundTripClusteredKeys) {
  // Clustered prefixes force deep paths (shared high nibbles); the sprinkle
  // of random keys keeps the root fan-out realistic.
  Rng rng(1234);
  MerkleMap m;
  std::map<std::uint64_t, Digest> model;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t key = 0xABCDEF0000000000ull | i;
    m.put(key, value_digest(i));
    model[key] = value_digest(i);
  }
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t key = rng.next_u64();
    m.put(key, value_digest(key));
    model[key] = value_digest(key);
  }
  const Digest root = m.root();
  for (const auto& [key, value] : model) {
    const MerkleMapProof p = m.prove(key);
    EXPECT_FALSE(p.has_terminal_leaf);
    ASSERT_TRUE(wire_verify(root, key, value, p)) << "key " << key;
    // The right proof for the wrong claim must not verify.
    EXPECT_FALSE(MerkleMap::verify(root, key, value_digest(~key), p));
    EXPECT_FALSE(MerkleMap::verify(root, key, std::nullopt, p));
    EXPECT_FALSE(MerkleMap::verify(root, key + 1, value, p));
    EXPECT_FALSE(MerkleMap::verify(value_digest(0), key, value, p));
  }
}

TEST(MerkleMapProof, NonMembershipAfterErase) {
  // Erase leaves physical count-1 inner chains behind; proofs must still
  // collapse them to the canonical shape.
  MerkleMap m;
  for (std::uint64_t i = 0; i < 32; ++i) m.put(0xF00D00ull << 8 | i, value_digest(i));
  for (std::uint64_t i = 1; i < 32; i += 2) m.erase(0xF00D00ull << 8 | i);
  const Digest root = m.root();
  for (std::uint64_t i = 0; i < 32; ++i) {
    const std::uint64_t key = 0xF00D00ull << 8 | i;
    const MerkleMapProof p = m.prove(key);
    if (i % 2 == 0) {
      ASSERT_TRUE(wire_verify(root, key, value_digest(i), p)) << i;
    } else {
      ASSERT_TRUE(wire_verify(root, key, std::nullopt, p)) << i;
      EXPECT_FALSE(MerkleMap::verify(root, key, value_digest(i), p));
    }
  }
}

TEST(MerkleMapProof, DecodeIsStrict) {
  MerkleMap m;
  for (std::uint64_t i = 0; i < 20; ++i) m.put(i * 1000003, value_digest(i));
  const Bytes wire = m.prove(5 * 1000003).encode();
  ASSERT_TRUE(MerkleMapProof::decode(wire).ok());
  {
    Bytes bad = wire;
    bad[0] = 0x02;  // unknown version
    EXPECT_EQ(MerkleMapProof::decode(bad).error().code, "proof.bad_version");
  }
  {
    Bytes bad = wire;
    bad[1] |= 0x80;  // reserved flag bit
    EXPECT_EQ(MerkleMapProof::decode(bad).error().code, "proof.bad_flags");
  }
  {
    Bytes bad = wire;
    bad[2] = 17;  // deeper than the key has nibbles
    EXPECT_EQ(MerkleMapProof::decode(bad).error().code, "proof.bad_depth");
  }
  {
    Bytes bad = wire;
    bad.push_back(0x00);  // trailing garbage
    EXPECT_EQ(MerkleMapProof::decode(bad).error().code, "proof.trailing_bytes");
  }
  {
    Bytes bad = wire;
    bad.pop_back();  // truncated
    EXPECT_FALSE(MerkleMapProof::decode(bad).ok());
  }
  EXPECT_FALSE(MerkleMapProof::decode({}).ok());
}

TEST(MerkleMapProof, ProofFuzz10kKeys) {
  // check.sh gate: every present key proves, every absent key
  // non-membership-proves, and no single-byte mutation of an encoded proof
  // survives decode + verify. 10k keys exercise every proof shape.
  Rng rng(0xF00DF00D);
  MerkleMap m;
  std::vector<std::uint64_t> keys;
  keys.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    // Half clustered (deep paths, absent-slot and colliding-leaf proofs),
    // half uniform (shallow spread).
    const std::uint64_t key = rng.chance(0.5)
                                  ? (0xDEAD000000000000ull | rng.next_below(1 << 20))
                                  : rng.next_u64();
    if (m.contains(key)) continue;
    m.put(key, value_digest(key));
    keys.push_back(key);
  }
  const Digest root = m.root();
  for (const std::uint64_t key : keys) {
    ASSERT_TRUE(MerkleMap::verify(root, key, value_digest(key), m.prove(key)))
        << "membership failed for key " << key;
  }
  std::size_t absent_checked = 0;
  while (absent_checked < 10000) {
    const std::uint64_t key = rng.chance(0.5)
                                  ? (0xDEAD000000000000ull | rng.next_below(1 << 20))
                                  : rng.next_u64();
    if (m.contains(key)) continue;
    const MerkleMapProof p = m.prove(key);
    ASSERT_TRUE(MerkleMap::verify(root, key, std::nullopt, p))
        << "non-membership failed for key " << key;
    ASSERT_FALSE(MerkleMap::verify(root, key, value_digest(key), p));
    ++absent_checked;
  }
  // Mutation sweep over a sample of proofs: flip every byte position in
  // turn; the mutant must fail decode or fail verify — no byte is inert.
  for (int sample = 0; sample < 24; ++sample) {
    const std::uint64_t key = keys[rng.next_below(keys.size())];
    const bool member = sample % 2 == 0;
    const std::uint64_t probe = member ? key : key + 1;
    const std::optional<Digest> claim =
        member ? std::optional<Digest>(value_digest(key)) : std::nullopt;
    if (!member && m.contains(probe)) continue;
    const Bytes wire = m.prove(probe).encode();
    for (std::size_t pos = 0; pos < wire.size(); ++pos) {
      Bytes mutated = wire;
      mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
      const auto decoded = MerkleMapProof::decode(mutated);
      if (!decoded.ok()) continue;  // rejected at the wire: good
      ASSERT_FALSE(MerkleMap::verify(root, probe, claim, decoded.value()))
          << "mutation at byte " << pos << " of " << wire.size()
          << " survived verification (key " << probe << ")";
    }
  }
}

// ---------------------------------------------------------------- SetHash

TEST(SetHash, OrderIndependentAndRemovable) {
  SetHash a;
  a.add(value_digest(1));
  a.add(value_digest(2));
  a.add(value_digest(3));
  SetHash b;
  b.add(value_digest(3));
  b.add(value_digest(1));
  b.add(value_digest(2));
  EXPECT_EQ(a, b);
  a.remove(value_digest(2));
  SetHash c;
  c.add(value_digest(1));
  c.add(value_digest(3));
  EXPECT_EQ(a.bytes(), c.bytes());
  a.remove(value_digest(1));
  a.remove(value_digest(3));
  EXPECT_EQ(a, SetHash{});  // empty multiset is all-zero
}

}  // namespace
}  // namespace mv::crypto
