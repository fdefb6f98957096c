// Version records and chains: LWW order (timestamp, then source replica),
// freshest-first insertion and stable-version lookup.
#include "store/version_chain.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "store/key_space.hpp"

namespace pocc::store {
namespace {

Version make_version(Timestamp ut, DcId sr, std::string value = "v",
                     VersionVector dv = VersionVector(3)) {
  Version v;
  v.key = intern_key("k");
  v.value = std::move(value);
  v.sr = sr;
  v.ut = ut;
  v.dv = std::move(dv);
  return v;
}

TEST(Version, LwwOrderPrefersHigherTimestamp) {
  EXPECT_TRUE(make_version(10, 0).fresher_than(make_version(5, 0)));
  EXPECT_FALSE(make_version(5, 0).fresher_than(make_version(10, 0)));
}

TEST(Version, LwwTieBreaksOnLowestSourceReplica) {
  // §IV-B: "Ties are broken by looking at the source replica id (lowest wins)."
  EXPECT_TRUE(make_version(10, 0).fresher_than(make_version(10, 2)));
  EXPECT_FALSE(make_version(10, 2).fresher_than(make_version(10, 0)));
}

TEST(Version, CommitVectorRaisesOwnEntry) {
  Version v = make_version(100, 1, "v", VersionVector{50, 60, 70});
  const VersionVector cv = v.commit_vector();
  EXPECT_EQ(cv, (VersionVector{50, 100, 70}));
}

TEST(Version, InitialVersionHasNoDeps) {
  const Version v = initial_version(intern_key("x"), 3);
  EXPECT_EQ(v.ut, 0);
  EXPECT_EQ(v.sr, 0u);
  EXPECT_EQ(v.dv, VersionVector(3));
}

TEST(VersionChain, InsertKeepsFreshestFirst) {
  VersionChain c;
  c.insert(make_version(10, 0));
  c.insert(make_version(30, 0));
  c.insert(make_version(20, 0));
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.versions()[0].ut, 30);
  EXPECT_EQ(c.versions()[1].ut, 20);
  EXPECT_EQ(c.versions()[2].ut, 10);
  EXPECT_EQ(c.freshest()->ut, 30);
}

TEST(VersionChain, InsertAtHeadReturnsZero) {
  VersionChain c;
  EXPECT_EQ(c.insert(make_version(10, 0)), 0u);
  EXPECT_EQ(c.insert(make_version(20, 0)), 0u);
  EXPECT_EQ(c.insert(make_version(15, 0)), 1u);
}

TEST(VersionChain, DuplicateInsertIsIdempotent) {
  VersionChain c;
  c.insert(make_version(10, 1));
  c.insert(make_version(10, 1));
  EXPECT_EQ(c.size(), 1u);
}

TEST(VersionChain, ConcurrentSameTimestampOrdersBySr) {
  VersionChain c;
  c.insert(make_version(10, 2));
  c.insert(make_version(10, 0));
  c.insert(make_version(10, 1));
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.versions()[0].sr, 0u);
  EXPECT_EQ(c.versions()[1].sr, 1u);
  EXPECT_EQ(c.versions()[2].sr, 2u);
}

TEST(VersionChain, EmptyChain) {
  VersionChain c;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.freshest(), nullptr);
  const auto r = c.freshest_where([](const Version&) { return true; });
  EXPECT_EQ(r.version, nullptr);
  EXPECT_EQ(r.hops, 0u);
}

TEST(VersionChain, FreshestWhereSkipsInvisible) {
  VersionChain c;
  c.insert(make_version(10, 0, "old"));
  c.insert(make_version(20, 0, "mid"));
  c.insert(make_version(30, 0, "new"));
  const auto r = c.freshest_where(
      [](const Version& v) { return v.ut <= 20; });
  ASSERT_NE(r.version, nullptr);
  EXPECT_EQ(r.version->value, "mid");
  EXPECT_EQ(r.hops, 2u);     // inspected 30 then 20
  EXPECT_EQ(r.fresher, 1u);  // one fresher (invisible) version
}

TEST(VersionChain, FreshestWhereNoneVisible) {
  VersionChain c;
  c.insert(make_version(10, 0));
  const auto r = c.freshest_where([](const Version&) { return false; });
  EXPECT_EQ(r.version, nullptr);
  EXPECT_EQ(r.fresher, 1u);
}

TEST(VersionChain, CountUnstable) {
  VersionChain c;
  c.insert(make_version(10, 0));
  c.insert(make_version(20, 0));
  c.insert(make_version(30, 0));
  EXPECT_EQ(c.count_unstable([](const Version& v) { return v.ut <= 10; }), 2u);
  EXPECT_EQ(c.count_unstable([](const Version&) { return true; }), 0u);
}

TEST(VersionChain, GcKeepsFloorAndEverythingFresher) {
  VersionChain c;
  for (Timestamp t : {10, 20, 30, 40}) c.insert(make_version(t, 0));
  // Floor: first version (freshest-to-oldest) with ut <= 30 is 30.
  const std::size_t removed = c.gc([](const Version& v) { return v.ut <= 30; });
  EXPECT_EQ(removed, 2u);  // 20 and 10 removed
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.versions()[0].ut, 40);
  EXPECT_EQ(c.versions()[1].ut, 30);
}

TEST(VersionChain, GcReleasesTheSlotsItEmpties) {
  VersionChain c;
  c.insert(make_version(10, 0));
  c.insert(make_version(20, 0));
  c.insert(make_version(30, 0));
  ASSERT_GE(c.versions().capacity(), 3u);
  EXPECT_EQ(c.gc([](const Version& v) { return v.ut <= 30; }), 2u);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.freshest()->ut, 30);
  EXPECT_EQ(c.versions().capacity(), 1u);
}

TEST(VersionChain, GcNoFloorKeepsEverything) {
  VersionChain c;
  c.insert(make_version(10, 0));
  c.insert(make_version(20, 0));
  EXPECT_EQ(c.gc([](const Version&) { return false; }), 0u);
  EXPECT_EQ(c.size(), 2u);
}

TEST(VersionChain, EraseIf) {
  VersionChain c;
  for (Timestamp t : {10, 20, 30}) c.insert(make_version(t, 0));
  EXPECT_EQ(c.erase_if([](const Version& v) { return v.ut == 20; }), 1u);
  EXPECT_EQ(c.size(), 2u);
}

TEST(VersionChain, EraseIfReleasesTheSlotsItEmpties) {
  VersionChain c;
  for (Timestamp t : {10, 20, 30}) c.insert(make_version(t, 0));
  EXPECT_EQ(c.erase_if([](const Version& v) { return v.ut != 20; }), 2u);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.versions().capacity(), 1u);
}

// Fuzz: arbitrary insertion orders (with duplicates and LWW ties) must always
// yield a strictly-descending, duplicate-free chain.
class VersionChainFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(VersionChainFuzzTest, InsertionOrderIndependence) {
  std::uint64_t s = static_cast<std::uint64_t>(GetParam()) * 0x9e3779b9u + 1;
  auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  VersionChain c;
  std::set<std::pair<Timestamp, DcId>> inserted;
  for (int i = 0; i < 300; ++i) {
    const auto ut = static_cast<Timestamp>(next() % 50);  // force collisions
    const auto sr = static_cast<DcId>(next() % 3);
    c.insert(make_version(ut, sr));
    inserted.insert({ut, sr});
  }
  ASSERT_EQ(c.size(), inserted.size());  // duplicates ignored
  for (std::size_t i = 1; i < c.versions().size(); ++i) {
    // Strict LWW descending order, no equal (ut, sr) pairs.
    EXPECT_TRUE(c.versions()[i - 1].fresher_than(c.versions()[i]))
        << "position " << i;
  }
  // The head is the LWW winner over everything inserted.
  for (const auto& [ut, sr] : inserted) {
    EXPECT_FALSE(make_version(ut, sr).fresher_than(*c.freshest()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VersionChainFuzzTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace pocc::store
