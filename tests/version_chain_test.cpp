// Version records and chains: LWW order (timestamp, then source replica),
// freshest-first insertion and stable-version lookup.
#include "store/version_chain.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

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

/// Update times of the chain's versions, freshest first.
std::vector<Timestamp> uts(const VersionChain& c) {
  std::vector<Timestamp> out;
  for (const VersionRecord& v : c) out.push_back(v.ut());
  return out;
}

/// Bytes of every record in the chain.
std::size_t bytes_of(const VersionChain& c) {
  std::size_t n = 0;
  for (const VersionRecord& v : c) n += v.bytes();
  return n;
}

TEST(VersionChain, InsertKeepsFreshestFirst) {
  VersionChain c;
  c.insert(make_version(10, 0));
  c.insert(make_version(30, 0));
  c.insert(make_version(20, 0));
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(uts(c), (std::vector<Timestamp>{30, 20, 10}));
  EXPECT_EQ(c.freshest()->ut(), 30);
}

TEST(VersionChain, InsertAtHeadReturnsZero) {
  VersionChain c;
  EXPECT_EQ(c.insert(make_version(10, 0)).pos, 0u);
  EXPECT_EQ(c.insert(make_version(20, 0)).pos, 0u);
  EXPECT_EQ(c.insert(make_version(15, 0)).pos, 1u);
}

TEST(VersionChain, DuplicateInsertIsIdempotent) {
  VersionChain c;
  EXPECT_NE(c.insert(make_version(10, 1)).bytes, 0u);
  EXPECT_EQ(c.insert(make_version(10, 1)).bytes, 0u);  // nothing stored
  EXPECT_EQ(c.size(), 1u);
}

TEST(VersionChain, ConcurrentSameTimestampOrdersBySr) {
  VersionChain c;
  c.insert(make_version(10, 2));
  c.insert(make_version(10, 0));
  c.insert(make_version(10, 1));
  ASSERT_EQ(c.size(), 3u);
  std::vector<DcId> srs;
  for (const VersionRecord& v : c) srs.push_back(v.sr());
  EXPECT_EQ(srs, (std::vector<DcId>{0, 1, 2}));
}

TEST(VersionChain, EmptyChain) {
  VersionChain c;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.freshest(), nullptr);
  EXPECT_EQ(bytes_of(c), 0u);
  const auto r = c.freshest_where([](const VersionRecord&) { return true; });
  EXPECT_EQ(r.version, nullptr);
  EXPECT_EQ(r.hops, 0u);
}

TEST(VersionChain, RecordReadsBackTheVersion) {
  Version in = make_version(42, 2, "payload", VersionVector{7, 8, 9});
  in.opt_origin = true;
  VersionChain c;
  c.insert(in);
  const VersionRecord& r = *c.freshest();
  EXPECT_EQ(r.ut(), 42);
  EXPECT_EQ(r.sr(), 2u);
  EXPECT_EQ(r.key(), in.key);
  EXPECT_TRUE(r.opt_origin());
  EXPECT_EQ(r.value(), "payload");
  EXPECT_EQ(r.dv(), (VersionVector{7, 8, 9}));
  EXPECT_EQ(r.dv_at(1), 8);
  EXPECT_EQ(r.commit_vector(), in.commit_vector());
  const Version out = r.to_version();
  EXPECT_EQ(out.ut, in.ut);
  EXPECT_EQ(out.sr, in.sr);
  EXPECT_EQ(out.key, in.key);
  EXPECT_EQ(out.opt_origin, in.opt_origin);
  EXPECT_EQ(out.value, in.value);
  EXPECT_EQ(out.dv, in.dv);
}

TEST(VersionChain, OneVersionKeyIsOneExactSizeRecord) {
  // Header, one timestamp per DC, then the value bytes — nothing else.
  VersionChain c;
  const std::string value(512, 'x');
  const auto ins = c.insert(make_version(10, 0, value));
  EXPECT_EQ(ins.bytes, 32u + 8u * 3u + 512u);
  EXPECT_EQ(VersionRecord::bytes_for(3, 512), 568u);
  EXPECT_EQ(c.freshest()->bytes(), 568u);
  EXPECT_EQ(bytes_of(c), 568u);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_FALSE(c.multi());
  // An empty value still costs the header and the dependency vector.
  VersionChain empty_value;
  EXPECT_EQ(empty_value.insert(make_version(10, 0, "")).bytes, 32u + 24u);
}

TEST(VersionChain, FreshestWhereSkipsInvisible) {
  VersionChain c;
  c.insert(make_version(10, 0, "old"));
  c.insert(make_version(20, 0, "mid"));
  c.insert(make_version(30, 0, "new"));
  const auto r = c.freshest_where(
      [](const VersionRecord& v) { return v.ut() <= 20; });
  ASSERT_NE(r.version, nullptr);
  EXPECT_EQ(r.version->value(), "mid");
  EXPECT_EQ(r.hops, 2u);     // inspected 30 then 20
  EXPECT_EQ(r.fresher, 1u);  // one fresher (invisible) version
}

TEST(VersionChain, FreshestWhereNoneVisible) {
  VersionChain c;
  c.insert(make_version(10, 0));
  const auto r = c.freshest_where([](const VersionRecord&) { return false; });
  EXPECT_EQ(r.version, nullptr);
  EXPECT_EQ(r.fresher, 1u);
}

TEST(VersionChain, CountUnstable) {
  VersionChain c;
  c.insert(make_version(10, 0));
  c.insert(make_version(20, 0));
  c.insert(make_version(30, 0));
  EXPECT_EQ(
      c.count_unstable([](const VersionRecord& v) { return v.ut() <= 10; }),
      2u);
  EXPECT_EQ(c.count_unstable([](const VersionRecord&) { return true; }), 0u);
}

TEST(VersionChain, GcKeepsFloorAndEverythingFresher) {
  VersionChain c;
  for (Timestamp t : {10, 20, 30, 40}) c.insert(make_version(t, 0));
  // Floor: first version (freshest-to-oldest) with ut <= 30 is 30.
  const auto removed =
      c.gc([](const VersionRecord& v) { return v.ut() <= 30; });
  EXPECT_EQ(removed.versions, 2u);  // 20 and 10 removed
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(uts(c), (std::vector<Timestamp>{40, 30}));
}

TEST(VersionChain, GcFreesTheRecordsItDrops) {
  VersionChain c;
  c.insert(make_version(10, 0, "a"));
  c.insert(make_version(20, 0, "bbbb"));
  c.insert(make_version(30, 0, "cc"));
  const std::size_t before = bytes_of(c);
  ASSERT_EQ(before, 3 * (32u + 24u) + 1u + 4u + 2u);
  const auto removed =
      c.gc([](const VersionRecord& v) { return v.ut() <= 30; });
  EXPECT_EQ(removed.versions, 2u);
  EXPECT_EQ(removed.bytes, 2 * (32u + 24u) + 1u + 4u);  // ut 20 and 10
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.freshest()->ut(), 30);
  EXPECT_EQ(bytes_of(c), before - removed.bytes);
  EXPECT_EQ(bytes_of(c), VersionRecord::bytes_for(3, 2));
}

TEST(VersionChain, GcNoFloorKeepsEverything) {
  VersionChain c;
  c.insert(make_version(10, 0));
  c.insert(make_version(20, 0));
  const auto removed = c.gc([](const VersionRecord&) { return false; });
  EXPECT_EQ(removed.versions, 0u);
  EXPECT_EQ(removed.bytes, 0u);
  EXPECT_EQ(c.size(), 2u);
}

TEST(VersionChain, EraseIf) {
  VersionChain c;
  for (Timestamp t : {10, 20, 30}) c.insert(make_version(t, 0));
  EXPECT_EQ(
      c.erase_if([](const VersionRecord& v) { return v.ut() == 20; }).versions,
      1u);
  EXPECT_EQ(uts(c), (std::vector<Timestamp>{30, 10}));
}

TEST(VersionChain, EraseIfFreesTheRecordsItDrops) {
  VersionChain c;
  for (Timestamp t : {10, 20, 30}) c.insert(make_version(t, 0));
  const std::size_t before = bytes_of(c);
  const auto removed =
      c.erase_if([](const VersionRecord& v) { return v.ut() != 20; });
  EXPECT_EQ(removed.versions, 2u);
  EXPECT_EQ(removed.bytes, 2 * VersionRecord::bytes_for(3, 1));
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(bytes_of(c), before - removed.bytes);
  // Purging the last version leaves an empty chain holding nothing.
  EXPECT_EQ(c.erase_if([](const VersionRecord&) { return true; }).bytes,
            VersionRecord::bytes_for(3, 1));
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(bytes_of(c), 0u);
}

TEST(VersionChain, MoveTransfersTheRecords) {
  VersionChain a;
  a.insert(make_version(10, 0));
  a.insert(make_version(20, 0));
  VersionChain b(std::move(a));
  EXPECT_TRUE(a.empty());  // a moved-from chain is empty
  EXPECT_EQ(uts(b), (std::vector<Timestamp>{20, 10}));
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
  const VersionRecord* prev = nullptr;
  for (const VersionRecord& v : c) {
    // Strict LWW descending order, no equal (ut, sr) pairs.
    if (prev != nullptr) {
      EXPECT_TRUE(prev->fresher_than(v.ut(), v.sr())) << "ut " << v.ut();
    }
    prev = &v;
  }
  // The head is the LWW winner over everything inserted.
  for (const auto& [ut, sr] : inserted) {
    EXPECT_FALSE(make_version(ut, sr).fresher_than(c.freshest()->to_version()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VersionChainFuzzTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace pocc::store
