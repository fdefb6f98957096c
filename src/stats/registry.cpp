#include "stats/registry.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string_view>
#include <unordered_map>

namespace pocc::stats {
namespace {

std::string escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string render_labels(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    out += escape_label_value(v);
    out += "\"";
  }
  out += "}";
  return out;
}

/// Extra labels appended to an existing label set (for `le` buckets).
std::string render_labels_with(const Labels& labels, const std::string& key,
                               const std::string& value) {
  Labels all = labels;
  all.emplace_back(key, value);
  return render_labels(all);
}

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string fmt_value(double v) {
  // Counters/gauges are integral in practice; render without a spurious ".0"
  // when exact, with full precision otherwise.
  const auto as_i = static_cast<std::int64_t>(v);
  if (static_cast<double>(as_i) == v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, as_i);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Cumulative-bucket upper bounds for latency histograms, in microseconds.
/// Chosen to bracket the latencies the paper's evaluation reports (tens of
/// microseconds locally up to geo-replication RTTs of hundreds of ms).
constexpr std::int64_t kLeBoundsUs[] = {
    50,     100,    250,    500,     1'000,   2'500,     5'000,    10'000,
    25'000, 50'000, 100'000, 250'000, 500'000, 1'000'000,
};

}  // namespace

Counter* Registry::counter(std::string name, Labels labels, std::string help) {
  std::lock_guard<std::mutex> lk(mu_);
  Instrument ins;
  ins.name = std::move(name);
  ins.labels = std::move(labels);
  ins.kind = Snapshot::Kind::kCounter;
  ins.help = std::move(help);
  ins.counter = std::make_unique<Counter>();
  Counter* out = ins.counter.get();
  instruments_.push_back(std::move(ins));
  return out;
}

Gauge* Registry::gauge(std::string name, Labels labels, std::string help) {
  std::lock_guard<std::mutex> lk(mu_);
  Instrument ins;
  ins.name = std::move(name);
  ins.labels = std::move(labels);
  ins.kind = Snapshot::Kind::kGauge;
  ins.help = std::move(help);
  ins.gauge = std::make_unique<Gauge>();
  Gauge* out = ins.gauge.get();
  instruments_.push_back(std::move(ins));
  return out;
}

HistogramCell* Registry::histogram(std::string name, Labels labels,
                                   std::string help) {
  std::lock_guard<std::mutex> lk(mu_);
  Instrument ins;
  ins.name = std::move(name);
  ins.labels = std::move(labels);
  ins.kind = Snapshot::Kind::kHistogram;
  ins.help = std::move(help);
  ins.hist = std::make_unique<HistogramCell>();
  HistogramCell* out = ins.hist.get();
  instruments_.push_back(std::move(ins));
  return out;
}

void Registry::counter_fn(std::string name, Labels labels,
                          std::function<std::uint64_t()> fn, std::string help) {
  std::lock_guard<std::mutex> lk(mu_);
  Instrument ins;
  ins.name = std::move(name);
  ins.labels = std::move(labels);
  ins.kind = Snapshot::Kind::kCounter;
  ins.help = std::move(help);
  ins.counter_fn = std::move(fn);
  instruments_.push_back(std::move(ins));
}

void Registry::gauge_fn(std::string name, Labels labels,
                        std::function<std::int64_t()> fn, std::string help) {
  std::lock_guard<std::mutex> lk(mu_);
  Instrument ins;
  ins.name = std::move(name);
  ins.labels = std::move(labels);
  ins.kind = Snapshot::Kind::kGauge;
  ins.help = std::move(help);
  ins.gauge_fn = std::move(fn);
  instruments_.push_back(std::move(ins));
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  Snapshot snap;
  snap.samples.reserve(instruments_.size());
  for (const auto& ins : instruments_) {
    // Merge into an existing sample with the same (name, labels) — this is
    // how per-thread shards (and split counters like the per-shard transport
    // stats) fold into one series.
    Snapshot::Sample* target = nullptr;
    for (auto& s : snap.samples) {
      if (s.name == ins.name && s.labels == ins.labels) {
        target = &s;
        break;
      }
    }
    if (target == nullptr) {
      snap.samples.emplace_back();
      target = &snap.samples.back();
      target->name = ins.name;
      target->labels = ins.labels;
      target->kind = ins.kind;
      target->help = ins.help;
      if (ins.kind == Snapshot::Kind::kHistogram) {
        target->hist = std::make_unique<Histogram>();
      }
    }
    switch (ins.kind) {
      case Snapshot::Kind::kCounter:
        target->value += static_cast<double>(
            ins.counter ? ins.counter->value() : ins.counter_fn());
        break;
      case Snapshot::Kind::kGauge:
        target->value += static_cast<double>(ins.gauge ? ins.gauge->value()
                                                       : ins.gauge_fn());
        break;
      case Snapshot::Kind::kHistogram:
        target->hist->merge(ins.hist->snapshot());
        break;
    }
  }
  return snap;
}

std::string render_prometheus(const Snapshot& snap) {
  // Group the samples by family, families in first-appearance order: the
  // per-partition registrations interleave families (gets{part=0},
  // puts{part=0}, gets{part=1}, ...), while the exposition format wants each
  // family's HELP/TYPE once with all of its samples after it.
  std::vector<std::vector<const Snapshot::Sample*>> families;
  std::unordered_map<std::string_view, std::size_t> family_index;
  for (const auto& s : snap.samples) {
    const auto [it, fresh] = family_index.try_emplace(s.name, families.size());
    if (fresh) families.emplace_back();
    families[it->second].push_back(&s);
  }
  std::string out;
  out.reserve(snap.samples.size() * 96);
  for (const auto& family : families) {
    const Snapshot::Sample& head = *family.front();
    const auto with_help =
        std::find_if(family.begin(), family.end(),
                     [](const Snapshot::Sample* s) { return !s->help.empty(); });
    if (with_help != family.end()) {
      out += "# HELP " + head.name + " " + (*with_help)->help + "\n";
    }
    out += "# TYPE " + head.name + " ";
    switch (head.kind) {
      case Snapshot::Kind::kCounter: out += "counter"; break;
      case Snapshot::Kind::kGauge: out += "gauge"; break;
      case Snapshot::Kind::kHistogram: out += "histogram"; break;
    }
    out += "\n";
    for (const Snapshot::Sample* s : family) {
      if (s->kind == Snapshot::Kind::kHistogram) {
        for (const std::int64_t bound : kLeBoundsUs) {
          out += s->name + "_bucket" +
                 render_labels_with(s->labels, "le", fmt_u64(bound)) + " " +
                 fmt_u64(s->hist->count_le(bound)) + "\n";
        }
        out += s->name + "_bucket" +
               render_labels_with(s->labels, "le", "+Inf") + " " +
               fmt_u64(s->hist->count()) + "\n";
        out += s->name + "_sum" + render_labels(s->labels) + " " +
               fmt_value(s->hist->sum()) + "\n";
        out += s->name + "_count" + render_labels(s->labels) + " " +
               fmt_u64(s->hist->count()) + "\n";
      } else {
        out += s->name + render_labels(s->labels) + " " +
               fmt_value(s->value) + "\n";
      }
    }
  }
  return out;
}

std::string render_human(const Snapshot& snap) {
  std::string out;
  out.reserve(snap.samples.size() * 32);
  for (const auto& s : snap.samples) {
    std::string name = s.name;
    if (name.rfind("pocc_", 0) == 0) name.erase(0, 5);
    if (s.kind == Snapshot::Kind::kCounter && name.size() > 6 &&
        name.compare(name.size() - 6, 6, "_total") == 0) {
      name.erase(name.size() - 6);
    }
    std::string tag;
    if (!s.labels.empty()) {
      tag = "{";
      bool first = true;
      for (const auto& [k, v] : s.labels) {
        if (!first) tag += ",";
        first = false;
        tag += k + "=" + v;
      }
      tag += "}";
    }
    if (!out.empty()) out += " ";
    if (s.kind == Snapshot::Kind::kHistogram) {
      out += name + tag + "_count=" + fmt_u64(s.hist->count());
      out += " " + name + tag + "_p50=" + fmt_u64(static_cast<std::uint64_t>(
                                              s.hist->percentile(50)));
      out += " " + name + tag + "_p99=" + fmt_u64(static_cast<std::uint64_t>(
                                              s.hist->percentile(99)));
      out += " " + name + tag + "_p999=" + fmt_u64(static_cast<std::uint64_t>(
                                               s.hist->percentile(99.9)));
    } else {
      out += name + tag + "=" + fmt_value(s.value);
    }
  }
  return out;
}

}  // namespace pocc::stats
