// Blocking/staleness/op statistics: probabilities, percentages, merge and
// reset semantics used by the benchmark aggregation — plus the unified
// stats registry (shard merging, Prometheus/human renders, escaping).
#include "stats/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "stats/process_metrics.hpp"
#include "stats/registry.hpp"

namespace pocc::stats {
namespace {

TEST(BlockingStats, ProbabilityAndTime) {
  BlockingStats b;
  b.record_op(0);
  b.record_op(0);
  b.record_op(100);
  b.record_op(300);
  EXPECT_EQ(b.operations, 4u);
  EXPECT_EQ(b.blocked, 2u);
  EXPECT_DOUBLE_EQ(b.blocking_probability(), 0.5);
  EXPECT_DOUBLE_EQ(b.avg_blocking_time_us(), 200.0);
}

TEST(BlockingStats, EmptyIsZero) {
  BlockingStats b;
  EXPECT_DOUBLE_EQ(b.blocking_probability(), 0.0);
  EXPECT_DOUBLE_EQ(b.avg_blocking_time_us(), 0.0);
}

TEST(BlockingStats, MergeAccumulates) {
  BlockingStats a;
  BlockingStats b;
  a.record_op(0);
  b.record_op(50);
  a.merge(b);
  EXPECT_EQ(a.operations, 2u);
  EXPECT_EQ(a.blocked, 1u);
}

TEST(BlockingStats, ResetClears) {
  BlockingStats a;
  a.record_op(10);
  a.reset();
  EXPECT_EQ(a.operations, 0u);
  EXPECT_EQ(a.blocked, 0u);
}

TEST(StalenessStats, OldAndUnmergedPercentages) {
  StalenessStats s;
  s.record_read(0, 0);  // fresh
  s.record_read(2, 3);  // old and unmerged
  s.record_read(0, 1);  // fresh but unmerged
  s.record_read(1, 1);  // old and unmerged
  EXPECT_EQ(s.reads, 4u);
  EXPECT_EQ(s.old_reads, 2u);
  EXPECT_EQ(s.unmerged_reads, 3u);
  EXPECT_DOUBLE_EQ(s.pct_old(), 50.0);
  EXPECT_DOUBLE_EQ(s.pct_unmerged(), 75.0);
  EXPECT_DOUBLE_EQ(s.avg_fresher_versions(), 1.5);   // (2+1)/2
  EXPECT_DOUBLE_EQ(s.avg_unmerged_versions(), 5.0 / 3.0);
}

TEST(StalenessStats, EmptyIsZero) {
  StalenessStats s;
  EXPECT_DOUBLE_EQ(s.pct_old(), 0.0);
  EXPECT_DOUBLE_EQ(s.pct_unmerged(), 0.0);
  EXPECT_DOUBLE_EQ(s.avg_fresher_versions(), 0.0);
}

TEST(StalenessStats, MergeAccumulates) {
  StalenessStats a;
  StalenessStats b;
  a.record_read(1, 0);
  b.record_read(0, 2);
  a.merge(b);
  EXPECT_EQ(a.reads, 2u);
  EXPECT_EQ(a.old_reads, 1u);
  EXPECT_EQ(a.unmerged_reads, 1u);
}

TEST(OpStats, TotalsAndAverage) {
  OpStats o;
  ++o.gets;
  o.get_latency_us.record(100);
  ++o.puts;
  o.put_latency_us.record(300);
  EXPECT_EQ(o.total_ops(), 2u);
  EXPECT_DOUBLE_EQ(o.avg_latency_us(), 200.0);
}

TEST(OpStats, MergeAndReset) {
  OpStats a;
  OpStats b;
  ++a.gets;
  a.get_latency_us.record(10);
  ++b.ro_txs;
  b.tx_latency_us.record(50);
  a.merge(b);
  EXPECT_EQ(a.total_ops(), 2u);
  a.reset();
  EXPECT_EQ(a.total_ops(), 0u);
}

TEST(FormatDouble, Formats) {
  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double(123456.0, 4), "1.235e+05");
}

// ---------------------------------------------------------------------------
// Registry: shard merging, scrape-time callbacks, and both renders.

TEST(Registry, CounterShardsMergeInSnapshot) {
  Registry r;
  // Same (name, labels) registered twice = two per-thread shards; the
  // snapshot folds them into ONE series.
  Counter* a = r.counter("pocc_ops_total");
  Counter* b = r.counter("pocc_ops_total");
  a->inc(3);
  b->inc(4);
  const Snapshot snap = r.snapshot();
  ASSERT_EQ(snap.samples.size(), 1u);
  EXPECT_EQ(snap.samples[0].name, "pocc_ops_total");
  EXPECT_DOUBLE_EQ(snap.samples[0].value, 7.0);
}

TEST(Registry, DistinctLabelsAreDistinctSeries) {
  Registry r;
  r.counter("pocc_ops_total", {{"op", "get"}})->inc(1);
  r.counter("pocc_ops_total", {{"op", "put"}})->inc(2);
  const Snapshot snap = r.snapshot();
  ASSERT_EQ(snap.samples.size(), 2u);
  // First-registration order is preserved.
  EXPECT_EQ(snap.samples[0].labels[0].second, "get");
  EXPECT_DOUBLE_EQ(snap.samples[0].value, 1.0);
  EXPECT_EQ(snap.samples[1].labels[0].second, "put");
  EXPECT_DOUBLE_EQ(snap.samples[1].value, 2.0);
}

TEST(Registry, GaugeAndCallbacks) {
  Registry r;
  r.gauge("pocc_depth")->set(-5);
  r.counter_fn("pocc_fn_total", {}, [] { return std::uint64_t{42}; });
  r.gauge_fn("pocc_fn_gauge", {}, [] { return std::int64_t{-7}; });
  const Snapshot snap = r.snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_DOUBLE_EQ(snap.samples[0].value, -5.0);
  EXPECT_DOUBLE_EQ(snap.samples[1].value, 42.0);
  EXPECT_DOUBLE_EQ(snap.samples[2].value, -7.0);
}

TEST(Registry, CallbackShardsSumLikeInstruments) {
  // Split counters (e.g. per-shard transport stats) fold into one series.
  Registry r;
  r.counter_fn("pocc_split_total", {}, [] { return std::uint64_t{10}; });
  r.counter_fn("pocc_split_total", {}, [] { return std::uint64_t{32}; });
  const Snapshot snap = r.snapshot();
  ASSERT_EQ(snap.samples.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.samples[0].value, 42.0);
}

TEST(Registry, HistogramShardsMerge) {
  Registry r;
  HistogramCell* a = r.histogram("pocc_lat_us", {{"op", "get"}});
  HistogramCell* b = r.histogram("pocc_lat_us", {{"op", "get"}});
  a->record(100);
  b->record(200);
  b->record(300);
  const Snapshot snap = r.snapshot();
  ASSERT_EQ(snap.samples.size(), 1u);
  EXPECT_EQ(snap.samples[0].hist->count(), 3u);
  EXPECT_DOUBLE_EQ(snap.samples[0].hist->sum(), 600.0);
}

TEST(Registry, ProcessSeriesReadTheKernel) {
  Registry r;
  register_process_metrics(r);
  const Snapshot snap = r.snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[0].name, "pocc_process_cpu_us_total");
  EXPECT_EQ(snap.samples[0].kind, Snapshot::Kind::kCounter);
  EXPECT_EQ(snap.samples[1].name, "pocc_process_resident_bytes");
  EXPECT_EQ(snap.samples[1].kind, Snapshot::Kind::kGauge);
  EXPECT_EQ(snap.samples[2].name, "pocc_process_peak_resident_bytes");
  EXPECT_EQ(snap.samples[2].kind, Snapshot::Kind::kGauge);
  for (const auto& s : snap.samples) EXPECT_GT(s.value, 0.0) << s.name;
  EXPECT_GE(snap.samples[2].value, snap.samples[1].value);
  EXPECT_EQ(snap.samples[0].hist, nullptr);  // no histogram for a counter
}

TEST(RenderPrometheus, TypeOncePerFamilyAndCumulativeBuckets) {
  Registry r;
  r.counter("pocc_ops_total", {{"op", "get"}}, "Operations served.")->inc(5);
  r.counter("pocc_ops_total", {{"op", "put"}})->inc(6);
  HistogramCell* h = r.histogram("pocc_lat_us");
  h->record(60);       // lands in the 100us bucket...
  h->record(2'000'000);  // ...and one past every finite bound
  const std::string out = render_prometheus(r.snapshot());

  // HELP/TYPE exactly once for the two-sample counter family.
  EXPECT_NE(out.find("# HELP pocc_ops_total Operations served.\n"),
            std::string::npos);
  std::size_t first = out.find("# TYPE pocc_ops_total counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(out.find("# TYPE pocc_ops_total counter", first + 1),
            std::string::npos);
  EXPECT_NE(out.find("pocc_ops_total{op=\"get\"} 5\n"), std::string::npos);
  EXPECT_NE(out.find("pocc_ops_total{op=\"put\"} 6\n"), std::string::npos);

  EXPECT_NE(out.find("# TYPE pocc_lat_us histogram"), std::string::npos);
  // 60us <= le=100 bucket; the 2s sample only reaches +Inf.
  EXPECT_NE(out.find("pocc_lat_us_bucket{le=\"100\"} 1\n"), std::string::npos);
  EXPECT_NE(out.find("pocc_lat_us_bucket{le=\"1000000\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("pocc_lat_us_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(out.find("pocc_lat_us_count 2\n"), std::string::npos);
}

TEST(RenderPrometheus, InterleavedPartitionFamiliesRenderGrouped) {
  // What a two-partition host registers: each partition's families in turn,
  // so the registry holds gets/puts/sync interleaved across partitions.
  Registry r;
  for (int part = 0; part < 2; ++part) {
    const Labels label = {{"part", std::to_string(part)}};
    r.counter("pocc_engine_gets_total", label, "GETs served.")->inc(10 + part);
    r.counter("pocc_engine_puts_total", label)->inc(20 + part);
    r.histogram("pocc_wal_sync_us", label)->record(100);
  }
  r.gauge("pocc_host_ready")->set(1);
  const std::string out = render_prometheus(r.snapshot());

  // One data line per series and one TYPE line per family; within a family,
  // the TYPE line comes first and its samples follow it contiguously.
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < out.size();) {
    const std::size_t nl = out.find('\n', pos);
    lines.push_back(out.substr(pos, nl - pos));
    pos = nl + 1;
  }
  std::vector<std::string> families;  // one entry per TYPE line
  for (const auto& line : lines) {
    if (line.rfind("# TYPE ", 0) == 0) {
      families.push_back(line.substr(7, line.find(' ', 7) - 7));
    } else if (line.rfind("#", 0) != 0) {
      ASSERT_FALSE(families.empty()) << line;
      EXPECT_EQ(line.rfind(families.back(), 0), 0u)
          << "sample '" << line << "' outside its family block";
    }
  }
  EXPECT_EQ(families,
            (std::vector<std::string>{"pocc_engine_gets_total",
                                      "pocc_engine_puts_total",
                                      "pocc_wal_sync_us", "pocc_host_ready"}));
  EXPECT_EQ(std::count(lines.begin(), lines.end(),
                       "# HELP pocc_engine_gets_total GETs served."),
            1);
  EXPECT_NE(out.find("pocc_engine_gets_total{part=\"0\"} 10\n"
                     "pocc_engine_gets_total{part=\"1\"} 11\n"),
            std::string::npos);
  EXPECT_NE(out.find("pocc_wal_sync_us_count{part=\"0\"} 1\n"
                     "pocc_wal_sync_us_bucket{part=\"1\",le=\"50\"}"),
            std::string::npos);
}

TEST(RenderPrometheus, EscapesLabelValues) {
  Registry r;
  r.counter("pocc_esc_total", {{"path", "a\\b\"c\nd"}})->inc(1);
  const std::string out = render_prometheus(r.snapshot());
  EXPECT_NE(out.find("pocc_esc_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(RenderHuman, StripsPrefixAndRendersHistograms) {
  Registry r;
  r.counter("pocc_transport_reconnects_total")->inc(2);
  r.gauge("pocc_inbox_depth", {{"part", "1"}})->set(9);
  r.histogram("pocc_server_op_us", {{"op", "get"}})->record(100);
  const std::string line = render_human(r.snapshot());
  // `pocc_` prefix and counter `_total` suffix stripped; labels inline.
  EXPECT_NE(line.find("transport_reconnects=2"), std::string::npos);
  EXPECT_NE(line.find("inbox_depth{part=1}=9"), std::string::npos);
  EXPECT_NE(line.find("server_op_us{op=get}_count=1"), std::string::npos);
  EXPECT_NE(line.find("server_op_us{op=get}_p99="), std::string::npos);
  EXPECT_EQ(line.find("pocc_"), std::string::npos);
}

TEST(HistogramCountLe, CumulativeAndMonotone) {
  Histogram h;
  h.record(10);
  h.record(600);
  h.record(100'000'000);
  EXPECT_EQ(h.count_le(-1), 0u);
  EXPECT_EQ(h.count_le(50), 1u);
  EXPECT_EQ(h.count_le(1'000), 2u);
  std::uint64_t prev = 0;
  for (std::int64_t bound : {50, 100, 1'000, 1'000'000, 2'000'000'000}) {
    const std::uint64_t c = h.count_le(bound);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_EQ(h.count_le(std::int64_t{1} << 40), 3u);
}

TEST(LatencyJsonFields, EmitsP50P99P999) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i);
  const std::string json = latency_json_fields("get", h);
  EXPECT_NE(json.find("\"get_p50_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"get_p99_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"get_p999_us\":"), std::string::npos);
  // Three fields, comma-separated, no trailing comma.
  EXPECT_EQ(json.front(), '"');
  EXPECT_NE(json.back(), ',');
}

}  // namespace
}  // namespace pocc::stats
