// Multi-version partition store: insert/find, stats upkeep (keys, versions,
// record bytes), GC of multi-version chains, targeted purging (lost-update
// discard) and the allocations an update costs — plus a randomized parity
// check of the flat KeyId-keyed map against a std::unordered_map reference
// model.
#include "store/partition_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "store/key_space.hpp"

// Every allocation of this test binary is counted, and its size kept, so a
// test can see exactly what one store operation allocates.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::size_t> g_last_allocation_bytes{0};
}  // namespace

// Out of line: inlined into a caller, GCC would see operator delete meet a
// pointer from malloc (or free() one from operator new) and warn about the
// deliberate pairing.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_last_allocation_bytes.store(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace pocc::store {
namespace {

KeyId K(const std::string& key) { return intern_key(key); }

Version make_version(const std::string& key, Timestamp ut, DcId sr = 0) {
  Version v;
  v.key = K(key);
  v.value = "val" + std::to_string(ut);
  v.sr = sr;
  v.ut = ut;
  v.dv = VersionVector(3);
  return v;
}

TEST(PartitionStore, FindUnknownKeyReturnsNull) {
  PartitionStore s;
  EXPECT_EQ(s.find(K("nope")), nullptr);
}

TEST(PartitionStore, InsertAndFind) {
  PartitionStore s;
  s.insert(make_version("a", 10));
  const VersionChain* c = s.find(K("a"));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->freshest()->ut(), 10);
}

TEST(PartitionStore, StatsTrackKeysAndVersions) {
  PartitionStore s;
  s.insert(make_version("a", 10));
  s.insert(make_version("a", 20));
  s.insert(make_version("b", 5));
  const StoreStats st = s.stats();
  EXPECT_EQ(st.keys, 2u);
  EXPECT_EQ(st.versions, 3u);
  EXPECT_EQ(st.multi_version_keys, 1u);
  // "val10", "val20", "val5": one exact-size record each.
  EXPECT_EQ(st.bytes, 2 * VersionRecord::bytes_for(3, 5) +
                          VersionRecord::bytes_for(3, 4));
}

TEST(PartitionStore, DuplicateInsertDoesNotDoubleCount) {
  PartitionStore s;
  s.insert(make_version("a", 10));
  s.insert(make_version("a", 10));
  EXPECT_EQ(s.stats().versions, 1u);
  EXPECT_EQ(s.stats().bytes, VersionRecord::bytes_for(3, 5));
}

TEST(PartitionStore, GcOnlyTouchesMultiVersionKeys) {
  PartitionStore s;
  s.insert(make_version("single", 10));
  s.insert(make_version("multi", 10));
  s.insert(make_version("multi", 20));
  s.insert(make_version("multi", 30));
  const auto removed =
      s.gc([](const VersionRecord& v) { return v.ut() <= 20; });
  EXPECT_EQ(removed, 1u);  // only ut=10 of "multi"
  EXPECT_EQ(s.find(K("single"))->size(), 1u);
  EXPECT_EQ(s.find(K("multi"))->size(), 2u);
  EXPECT_EQ(s.stats().gc_removed, 1u);
  EXPECT_EQ(s.stats().versions, 3u);
}

TEST(PartitionStore, GcDropsKeyFromDirtySetWhenSingleVersionRemains) {
  PartitionStore s;
  s.insert(make_version("k", 10));
  s.insert(make_version("k", 20));
  (void)s.gc([](const VersionRecord& v) { return v.ut() <= 20; });
  EXPECT_EQ(s.multi_version_keys().size(), 0u);
  // Subsequent GC passes are no-ops.
  EXPECT_EQ(s.gc([](const VersionRecord&) { return true; }), 0u);
}

TEST(PartitionStore, MultiVersionSetHasNoDuplicatesAcrossGcCycles) {
  PartitionStore s;
  // The key enters the multi-version set, leaves it via GC, and re-enters:
  // the set must hold it exactly once each time.
  s.insert(make_version("k", 10));
  s.insert(make_version("k", 20));
  EXPECT_EQ(s.multi_version_keys().size(), 1u);
  (void)s.gc([](const VersionRecord&) { return true; });
  EXPECT_EQ(s.multi_version_keys().size(), 0u);
  s.insert(make_version("k", 30));
  EXPECT_EQ(s.multi_version_keys().size(), 1u);
  s.insert(make_version("k", 40));
  EXPECT_EQ(s.multi_version_keys().size(), 1u);
}

TEST(PartitionStore, PurgeIfRemovesMatchingVersions) {
  PartitionStore s;
  s.insert(make_version("a", 10));
  s.insert(make_version("a", 20));
  s.insert(make_version("b", 30));
  const auto removed =
      s.purge_if([](const VersionRecord& v) { return v.ut() >= 20; });
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(s.stats().versions, 1u);
  EXPECT_EQ(s.find(K("a"))->size(), 1u);
  EXPECT_EQ(s.find(K("b"))->size(), 0u);
}

TEST(PartitionStore, PurgingAKeysOnlyVersionStopsCountingTheKey) {
  PartitionStore s;
  s.insert(make_version("gone", 10));
  s.insert(make_version("kept", 10));
  ASSERT_EQ(s.stats().keys, 2u);
  EXPECT_EQ(s.purge_if([](const VersionRecord& v) {
              return v.key() == K("gone");
            }),
            1u);
  // The map keeps its (now empty) entry; the key no longer counts.
  EXPECT_EQ(s.chains().size(), 2u);
  EXPECT_EQ(s.stats().keys, 1u);
  EXPECT_EQ(s.stats().bytes, VersionRecord::bytes_for(3, 5));
  // A purge that finds nothing more to drop changes no count.
  (void)s.purge_if([](const VersionRecord& v) { return v.key() == K("gone"); });
  EXPECT_EQ(s.stats().keys, 1u);
  // Written again, it counts again — once.
  s.insert(make_version("gone", 20));
  s.insert(make_version("gone", 30));
  EXPECT_EQ(s.stats().keys, 2u);
}

TEST(PartitionStore, BytesFollowInsertGcAndPurge) {
  PartitionStore s;
  Version big = make_version("k", 10);
  big.value.assign(512, 'x');
  s.insert(big);
  EXPECT_EQ(s.stats().bytes, 568u);  // 32 B header + 3 x 8 B dv + 512 B
  s.insert(make_version("k", 20));   // "val20"
  EXPECT_EQ(s.stats().bytes, 568u + VersionRecord::bytes_for(3, 5));
  // GC frees the superseded 512 B version's record, and only that.
  EXPECT_EQ(s.gc([](const VersionRecord&) { return true; }), 1u);
  EXPECT_EQ(s.stats().bytes, VersionRecord::bytes_for(3, 5));
  EXPECT_EQ(s.purge_if([](const VersionRecord&) { return true; }), 1u);
  EXPECT_EQ(s.stats().bytes, 0u);
  EXPECT_EQ(s.stats().versions, 0u);
  EXPECT_EQ(s.stats().keys, 0u);
}

TEST(PartitionStore, OneAllocationPerUpdate) {
  PartitionStore s;
  // A quiescent key: updated once and GC'd back to one version (the
  // multi-version set has grown to hold it once, as on a running server).
  s.insert(make_version("quiet", 10));
  s.insert(make_version("quiet", 20));
  ASSERT_EQ(s.gc([](const VersionRecord&) { return true; }), 1u);
  const Version update = make_version("quiet", 30);
  const std::uint64_t before = g_allocations.load();
  s.insert(update);
  const std::uint64_t removed =
      s.gc([](const VersionRecord&) { return true; });
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(removed, 1u);
  // The update's record is the only allocation; GC allocates nothing. (A
  // vector-backed chain allocated again to grow to two slots, and again to
  // shrink back to one.)
  EXPECT_EQ(allocations, 1u);
  EXPECT_EQ(g_last_allocation_bytes.load(),
            VersionRecord::bytes_for(3, update.value.size()));
  // A duplicate delivery allocates nothing.
  const std::uint64_t before_dup = g_allocations.load();
  s.insert(update);
  EXPECT_EQ(g_allocations.load() - before_dup, 0u);
}

TEST(PartitionStore, GcAcceptsAVersionPredicate) {
  // Offline replays may still pass a `const Version&` predicate; it must
  // decide exactly as the record predicate does.
  PartitionStore s;
  for (Timestamp t : {10, 20, 30}) s.insert(make_version("k", t));
  EXPECT_EQ(s.gc([](const Version& v) { return v.ut <= 20; }), 1u);
  EXPECT_EQ(s.find(K("k"))->size(), 2u);
  EXPECT_EQ(s.stats().bytes, 2 * VersionRecord::bytes_for(3, 5));
}

TEST(PartitionStore, ChainsAccessorExposesAllKeys) {
  PartitionStore s;
  s.insert(make_version("x", 1));
  s.insert(make_version("y", 2));
  EXPECT_EQ(s.chains().size(), 2u);
}

// ---------------------------------------------------------------------------
// Randomized parity: the flat-map store must behave exactly like a reference
// model (std::unordered_map of version lists) under interleaved insert / GC /
// purge traffic.

class PartitionStoreFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionStoreFuzzTest, FlatStoreMatchesReferenceModel) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  PartitionStore store;
  // Reference: key -> versions, freshest first, duplicate (ut, sr) ignored.
  std::unordered_map<KeyId, std::vector<Version>> model;
  std::uint64_t model_versions = 0;

  auto model_insert = [&](const Version& v) {
    auto& chain = model[v.key];
    auto it = std::find_if(chain.begin(), chain.end(), [&](const Version& o) {
      return o.ut == v.ut && o.sr == v.sr;
    });
    if (it != chain.end()) return;
    chain.push_back(v);
    std::sort(chain.begin(), chain.end(),
              [](const Version& a, const Version& b) {
                return a.fresher_than(b);
              });
    ++model_versions;
  };

  const std::uint32_t kKeys = 64;
  for (int round = 0; round < 2000; ++round) {
    const std::uint64_t dice = rng.uniform(100);
    if (dice < 80) {  // insert (possibly duplicate)
      Version v = make_version("fuzz" + std::to_string(rng.uniform(kKeys)),
                               static_cast<Timestamp>(rng.uniform(50)) + 1,
                               static_cast<DcId>(rng.uniform(3)));
      model_insert(v);
      store.insert(v);
    } else if (dice < 90) {  // GC below a random floor
      const auto floor = static_cast<Timestamp>(rng.uniform(50));
      store.gc([&](const VersionRecord& v) { return v.ut() <= floor; });
      for (auto& [key, chain] : model) {
        if (chain.size() <= 1) continue;  // GC only walks multi-version keys
        for (std::size_t i = 0; i < chain.size(); ++i) {
          if (chain[i].ut <= floor) {
            model_versions -= chain.size() - (i + 1);
            chain.resize(i + 1);
            break;
          }
        }
      }
    } else {  // purge a random timestamp (erase_if path)
      const auto target = static_cast<Timestamp>(rng.uniform(50)) + 1;
      store.purge_if(
          [&](const VersionRecord& v) { return v.ut() == target; });
      for (auto& [key, chain] : model) {
        const auto before = chain.size();
        std::erase_if(chain, [&](const Version& v) { return v.ut == target; });
        model_versions -= before - chain.size();
      }
    }
  }

  // Full-state comparison.
  EXPECT_EQ(store.stats().versions, model_versions);
  std::uint64_t model_multi = 0;
  std::uint64_t model_keys = 0;
  std::uint64_t model_bytes = 0;
  for (const auto& [key, chain] : model) {
    if (chain.size() > 1) ++model_multi;
    if (!chain.empty()) ++model_keys;
    for (const Version& v : chain) {
      model_bytes += VersionRecord::bytes_for(3, v.value.size());
    }
    const VersionChain* actual = store.find(key);
    if (chain.empty()) {
      // Key may exist with an empty chain (purged) or never inserted at all.
      if (actual != nullptr) {
        EXPECT_EQ(actual->size(), 0u);
      }
      continue;
    }
    ASSERT_NE(actual, nullptr) << "missing key " << key_name(key);
    ASSERT_EQ(actual->size(), chain.size()) << "key " << key_name(key);
    std::size_t i = 0;
    for (const VersionRecord& v : *actual) {
      EXPECT_EQ(v.ut(), chain[i].ut);
      EXPECT_EQ(v.sr(), chain[i].sr);
      EXPECT_EQ(v.value(), chain[i].value);
      ++i;
    }
  }
  EXPECT_EQ(store.stats().multi_version_keys, model_multi);
  EXPECT_EQ(store.stats().keys, model_keys);
  EXPECT_EQ(store.stats().bytes, model_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionStoreFuzzTest,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace pocc::store
