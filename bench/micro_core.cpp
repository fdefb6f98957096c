// Micro-benchmarks (google-benchmark) for the building blocks on the hot
// paths of the simulation and the protocol engines.
#include <benchmark/benchmark.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "sim/cpu_queue.hpp"
#include "sim/simulator.hpp"
#include "stats/histogram.hpp"
#include "store/key_space.hpp"
#include "store/partition_store.hpp"
#include "store/version_chain.hpp"
#include "vclock/version_vector.hpp"

namespace {

using namespace pocc;

void BM_VersionVectorMergeMax(benchmark::State& state) {
  VersionVector a{1, 2, 3};
  VersionVector b{3, 2, 1};
  for (auto _ : state) {
    a.merge_max(b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_VersionVectorMergeMax);

void BM_VersionVectorDominates(benchmark::State& state) {
  VersionVector a{100, 200, 300};
  VersionVector b{99, 200, 300};
  bool r = false;
  for (auto _ : state) {
    r ^= a.dominates(b, 0);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_VersionVectorDominates);

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  std::uint64_t x = 0;
  for (auto _ : state) {
    x ^= rng.next();
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_RngNext);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(1);
  ZipfGenerator zipf(static_cast<std::uint64_t>(state.range(0)), 0.99);
  std::uint64_t x = 0;
  for (auto _ : state) {
    x ^= zipf.next(rng);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(1'000'000);

// ------------------------------------------------------------ key interning

void BM_KeySpaceInternHit(benchmark::State& state) {
  // Steady-state intern: every key already interned (the workload hot path —
  // zipf re-touches a small hot set).
  auto& ks = store::KeySpace::global();
  Rng rng(11);
  for (std::uint64_t r = 0; r < 10'000; ++r) {
    ks.intern_partition_key(3, r);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ks.intern_partition_key(3, rng.uniform(10'000)));
  }
}
BENCHMARK(BM_KeySpaceInternHit);

void BM_KeySpaceInternStringHit(benchmark::State& state) {
  // Intern from a pre-built string (manual-client boundary).
  auto& ks = store::KeySpace::global();
  std::vector<std::string> keys;
  for (int i = 0; i < 4096; ++i) {
    keys.push_back("7:" + std::to_string(i));
    ks.intern(keys.back());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ks.intern(keys[i++ & 4095]));
  }
}
BENCHMARK(BM_KeySpaceInternStringHit);

// ----------------------------------------------------------- store lookups

void BM_PartitionStoreInsertLookup(benchmark::State& state) {
  // Mixed insert + lookup through the full PartitionStore (flat KeyId map).
  // The probe key is drawn from the inserted distribution, so the lookup
  // measures the hit path.
  store::PartitionStore store;
  Rng rng(7);
  Timestamp t = 1;
  const KeyId probe = store::KeySpace::global().intern_partition_key(9, 42);
  for (auto _ : state) {
    store::Version v;
    v.key = store::KeySpace::global().intern_partition_key(
        9, rng.uniform(10'000));
    v.value = "12345678";
    v.ut = t++;
    v.dv = VersionVector(3);
    store.insert(std::move(v));
    benchmark::DoNotOptimize(store.find(probe));
  }
}
BENCHMARK(BM_PartitionStoreInsertLookup);

void BM_FlatStoreLookup(benchmark::State& state) {
  // Pure lookup against a pre-populated flat store.
  store::PartitionStore store;
  std::vector<KeyId> keys;
  for (std::uint64_t r = 0; r < 10'000; ++r) {
    store::Version v;
    v.key = store::KeySpace::global().intern_partition_key(5, r);
    v.value = "12345678";
    v.ut = static_cast<Timestamp>(r + 1);
    v.dv = VersionVector(3);
    keys.push_back(v.key);
    store.insert(std::move(v));
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.find(keys[rng.uniform(keys.size())]));
  }
}
BENCHMARK(BM_FlatStoreLookup);

void BM_UnorderedStringMapLookup(benchmark::State& state) {
  // The pre-interning baseline: the same lookup against
  // std::unordered_map<std::string, chain>, including the string build the
  // old data plane performed at each hop.
  std::unordered_map<std::string, store::VersionChain> map;
  for (std::uint64_t r = 0; r < 10'000; ++r) {
    map.try_emplace("5:" + std::to_string(r));
  }
  Rng rng(3);
  for (auto _ : state) {
    const std::string key = "5:" + std::to_string(rng.uniform(10'000));
    auto it = map.find(key);
    benchmark::DoNotOptimize(it);
  }
}
BENCHMARK(BM_UnorderedStringMapLookup);

// ------------------------------------------------------------- version chains

void BM_VersionChainInsertFreshest(benchmark::State& state) {
  // The common replication case: versions arrive in timestamp order.
  store::VersionChain chain;
  Timestamp t = 1;
  store::Version v;
  v.key = store::intern_key("k");
  v.value = "12345678";
  v.dv = VersionVector(3);
  std::size_t stored = 0;
  for (auto _ : state) {
    v.ut = t++;
    chain.insert(v);
    if (++stored > 64) {
      state.PauseTiming();
      chain.gc([](const store::VersionRecord&) { return true; });
      stored = 1;
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_VersionChainInsertFreshest);

void BM_ChainStableSearch(benchmark::State& state) {
  // Cure*'s per-GET cost: search for the freshest stable version in a chain
  // with `range` unstable versions at the head.
  store::VersionChain chain;
  const auto unstable = static_cast<Timestamp>(state.range(0));
  for (Timestamp t = 1; t <= unstable + 1; ++t) {
    store::Version v;
    v.key = store::intern_key("k");
    v.value = "12345678";
    v.ut = t * 100;
    v.sr = 1;
    v.dv = VersionVector(3);
    chain.insert(v);
  }
  const Timestamp gss = 100;  // only the oldest version is stable
  for (auto _ : state) {
    auto r = chain.freshest_where(
        [&](const store::VersionRecord& v) { return v.ut() <= gss; });
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ChainStableSearch)->Arg(0)->Arg(4)->Arg(16);

// ---------------------------------------------------------------- event loop

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(i, [] {});
    }
    sim.run_all();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRun);

void BM_SimulatorScheduleRunPayload(benchmark::State& state) {
  // The realistic case: closures carry a message-sized payload. Pre-refactor
  // this forced one heap allocation per event (std::function's inline buffer
  // is 16 bytes); the inline-callable event loop stores it in place.
  struct Payload {
    char bytes[96] = {};
  };
  Payload p;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(i, [p, &sink] { sink += static_cast<std::uint64_t>(p.bytes[0]); });
    }
    sim.run_all();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRunPayload);

void BM_SimulatorSteadyChurn(benchmark::State& state) {
  // Steady-state slot reuse: a deep queue with every pop scheduling a new
  // event (how the simulation actually runs — queue depth ~ in-flight
  // messages). Exercises the timing wheel (O(1) bucket append + bitmap-scan
  // pop + cascades) and slot recycling at depth `range`.
  const int depth = static_cast<int>(state.range(0));
  sim::Simulator sim;
  std::uint64_t fired = 0;
  // A self-rescheduling action keeps the queue at constant depth.
  struct Resched {
    sim::Simulator* s;
    std::uint64_t* fired;
    void operator()() const {
      ++*fired;
      s->schedule(100, Resched{s, fired});
    }
  };
  for (int i = 0; i < depth; ++i) {
    sim.schedule(i, Resched{&sim, &fired});
  }
  for (auto _ : state) {
    sim.step();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorSteadyChurn)->Arg(64)->Arg(4096);

void BM_CpuQueueSubmit(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim::CpuQueue cpu(sim, 2);
    for (int i = 0; i < 1000; ++i) {
      cpu.submit([] { return Duration{10}; });
    }
    sim.run_all();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CpuQueueSubmit);

// ------------------------------------------------------------------- stats

void BM_HistogramRecord(benchmark::State& state) {
  stats::Histogram h;
  Rng rng(3);
  for (auto _ : state) {
    h.record(static_cast<std::int64_t>(rng.uniform(1'000'000)));
  }
  benchmark::DoNotOptimize(h);
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramPercentile(benchmark::State& state) {
  stats::Histogram h;
  Rng rng(3);
  for (int i = 0; i < 100'000; ++i) {
    h.record(static_cast<std::int64_t>(rng.uniform(1'000'000)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.percentile(99));
  }
}
BENCHMARK(BM_HistogramPercentile);

}  // namespace

BENCHMARK_MAIN();
