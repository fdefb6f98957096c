// perfbench_gen — the benchmark's load generator. One process, one dispatch
// thread multiplexing many TcpSessions (one op in flight each) over one
// TcpClientPool per active DC (DC0 and DC1; DC2 is a passive replica).
//
//   perfbench_gen run --config FILE --out RESULT.json [options]
//   perfbench_gen dump --seed N [options]     # print the op stream + preload
//
// `run` measures one round against a fresh deployment. It talks to its
// parent (perfbench/run.py) over a line protocol: at each phase boundary it
// drains its in-flight ops, prints `SYNC <label>` on stdout and blocks until
// the parent answers `go`. The parent scrapes /metrics and /proc in those
// pauses. Steps:
//
//   setup_done  connected (and preload written, when --preload-keys > 0)
//   warmup      open loop for kWarmupS, not measured, no SYNC
//   open        (--phases open) open loop at --rate ops/s for --seconds;
//               each op is timed from its due time
//   open_traced (--phases open --trace 1) the same again, spans recorded
//   closed      (--phases closed) every session keeps one op in flight for
//               --seconds
//   ops_done    all ops finished; the parent stops the servers
//
// Then every session history (preload and probe sessions included) is
// replayed through checker::HistoryChecker and the result JSON is written.
// --trace 1 writes the op spans to --spans; --replay 1 replays the
// workload's own inputs through proto and store, and through wal when
// --replay-dir names a directory for the log.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checker/client_history.hpp"
#include "checker/history_checker.hpp"
#include "net/cluster_config.hpp"
#include "net/tcp_client.hpp"
#include "proto/codec.hpp"
#include "store/key_space.hpp"
#include "store/partition_store.hpp"
#include "wal/partition_wal.hpp"
#include "workload/workload.hpp"

namespace {

using namespace pocc;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ options

struct Options {
  std::string mode;
  std::string config_path;
  std::string out_path;
  std::string spans_path;
  std::string replay_dir;
  std::string pattern = "getput";
  std::uint32_t gets_per_put = 2;
  double theta = 0.99;
  std::uint64_t keys_per_partition = 1000;
  std::uint32_t value_size = 8;
  std::uint64_t preload_keys = 0;  // per partition
  std::uint64_t seed = 1;
  std::uint32_t sessions_per_dc = 16;
  double rate = 10'000;  // open-loop offered ops/s over both DCs
  std::uint32_t round = 0;
  std::string phases = "open";  // or "closed"
  double seconds = 1.0;         // of the open or closed window
  bool replay = false;  // replay the inputs through proto/store/wal
  bool session_per_cycle = false;
  bool trace = false;
  std::uint64_t dump_ops = 64;
};

bool parse(int argc, char** argv, Options* o) {
  if (argc < 2) return false;
  o->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (a == "--config") o->config_path = v;
    else if (a == "--out") o->out_path = v;
    else if (a == "--spans") o->spans_path = v;
    else if (a == "--replay-dir") o->replay_dir = v;
    else if (a == "--pattern") o->pattern = v;
    else if (a == "--gets-per-put") o->gets_per_put = std::stoul(v);
    else if (a == "--theta") o->theta = std::stod(v);
    else if (a == "--keys-per-partition") o->keys_per_partition = std::stoull(v);
    else if (a == "--value-size") o->value_size = std::stoul(v);
    else if (a == "--preload-keys") o->preload_keys = std::stoull(v);
    else if (a == "--seed") o->seed = std::stoull(v);
    else if (a == "--sessions-per-dc") o->sessions_per_dc = std::stoul(v);
    else if (a == "--rate") o->rate = std::stod(v);
    else if (a == "--round") o->round = std::stoul(v);
    else if (a == "--phases") o->phases = v;
    else if (a == "--replay") o->replay = std::string(v) == "1";
    else if (a == "--seconds") o->seconds = std::stod(v);
    else if (a == "--session-per-cycle")
      o->session_per_cycle = std::string(v) == "1";
    else if (a == "--trace") o->trace = std::string(v) == "1";
    else if (a == "--dump-ops") o->dump_ops = std::stoull(v);
    else return false;
  }
  return o->mode == "dump" ||
         (o->mode == "run" && !o->config_path.empty() && !o->out_path.empty());
}

workload::WorkloadConfig workload_config(const Options& o) {
  workload::WorkloadConfig wl;
  wl.pattern = o.pattern == "txput" ? workload::Pattern::kTxPut
                                    : workload::Pattern::kGetPut;
  wl.gets_per_put = o.gets_per_put;
  wl.tx_partitions = 2;
  wl.think_time_us = 0;
  wl.zipf_theta = o.theta;
  wl.keys_per_partition = o.keys_per_partition;
  wl.value_size = o.value_size;
  return wl;
}

// Phase numbers: each phase has its own sessions and op streams, and, unless
// the workload is preloaded (its phases then share the preloaded keys), its
// own keyspace (keys "<part>:<phase * 10^7 + rank>") and history-check
// segment. Round r runs phases kFirstRoundPhase + 3r (open), + 1
// (open_traced) and + 2 (closed).
constexpr std::uint32_t kWarmupPhase = 1;
constexpr std::uint32_t kFirstRoundPhase = 2;
constexpr double kWarmupS = 0.3;

bool segment_per_phase(const Options& o) { return o.preload_keys == 0; }

workload::WorkloadConfig phase_workload(const Options& o, std::uint32_t phase) {
  workload::WorkloadConfig wl = workload_config(o);
  if (segment_per_phase(o)) {
    wl.key_offset = static_cast<std::uint64_t>(phase) * 10'000'000;
  }
  return wl;
}

/// Seed of workload session `i` of `phase` (same seed, same op stream).
std::uint64_t session_seed(std::uint64_t seed, std::uint32_t phase,
                           std::uint32_t i) {
  return seed * 1'000'003 + phase * 1'000 + i;
}

/// Preload value of (partition, rank): 16 seeded letters, then filler.
std::string preload_value(std::uint64_t seed, PartitionId part,
                          std::uint64_t rank, std::uint32_t size) {
  Rng rng(seed * 7'919 + part * 1'000'000'007ULL + rank);
  std::string v(size, 'p');
  for (std::size_t i = 0; i < std::min<std::size_t>(size, 16); ++i) {
    v[i] = static_cast<char>('a' + rng.uniform(26));
  }
  return v;
}

constexpr std::uint64_t kProbeRankBase = 1ULL << 40;
/// One visibility probe every 10 ms: ~100 samples per second of a window,
/// and the probe's spinning reads stay a small share of the offered load.
constexpr std::int64_t kProbePeriodNs = 10'000'000;
/// The dispatcher naps this long when a pass made no progress.
constexpr std::int64_t kIdleNapNs = 20'000;
/// A preload session writes this many keys, then a fresh one takes over,
/// so no preloaded version carries a long causal past into the checker.
constexpr std::uint64_t kPreloadKeysPerSession = 16;

// ------------------------------------------------------------ measurement

enum Kind : std::uint8_t { kGet = 0, kPut = 1, kTx = 2, kKinds = 3 };
const char* const kKindName[kKinds] = {"get", "put", "rotx"};

Kind kind_of(workload::OpType t) {
  switch (t) {
    case workload::OpType::kGet: return kGet;
    case workload::OpType::kPut: return kPut;
    case workload::OpType::kRoTx: return kTx;
  }
  return kGet;
}

/// One traced op: gen.queue = [due, s0), client.start = [s0, s1),
/// client.wait = [s1, done), client.finish = [done, fin); op = [due, fin).
struct OpSpan {
  std::uint64_t id = 0;
  Kind kind = kGet;
  bool probe = false;
  std::int64_t due = 0, s0 = 0, s1 = 0, done = 0, fin = 0;
  std::uint32_t pumps = 0;
};

struct Quantiles {
  double p50 = 0, p90 = 0, p99 = 0;
  std::size_t n = 0;
};

/// Linear-interpolated quantiles of nanosecond samples, in microseconds.
Quantiles quantiles_us(std::vector<std::int64_t> v) {
  Quantiles q;
  q.n = v.size();
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const auto at = [&](double p) {
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return (static_cast<double>(v[lo]) * (1 - frac) +
            static_cast<double>(v[hi]) * frac) / 1e3;
  };
  q.p50 = at(0.50);
  q.p90 = at(0.90);
  q.p99 = at(0.99);
  return q;
}

struct PhaseStats {
  std::string name;
  std::vector<std::int64_t> lat[kKinds];  // due -> finish, ns
  std::vector<std::int64_t> late;         // due -> first seen by dispatcher
  std::vector<std::int64_t> visibility;   // probe PUT reply -> DC1 read
  std::uint64_t ops = 0;                  // completed workload ops
  std::uint64_t ops_in_window = 0;        // of those, before the phase end
  std::uint64_t probe_ops = 0;            // completed probe PUTs and reads
  std::uint64_t by_kind[kKinds] = {};
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
  std::uint64_t puts = 0;
  std::uint64_t user_bytes_put = 0;
  std::int64_t slept_ns = 0;
  std::int64_t wall_ns = 0;
  std::int64_t window_ns = 0;
  double cpu_us = 0;  // this process, utime + stime
  net::TransportStats net;
};

double process_cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double maxrss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

net::TransportStats diff(const net::TransportStats& a,
                         const net::TransportStats& b) {
  net::TransportStats d;
  d.bytes_in = b.bytes_in - a.bytes_in;
  d.bytes_out = b.bytes_out - a.bytes_out;
  d.sendmsg_calls = b.sendmsg_calls - a.sendmsg_calls;
  d.sendmsg_frames = b.sendmsg_frames - a.sendmsg_frames;
  return d;
}

// -------------------------------------------------------------- dispatcher

struct Slot {
  DcId dc = 0;
  net::TcpSession* session = nullptr;
  std::unique_ptr<workload::Generator> gen;
  std::deque<std::int64_t> due;  // open-loop arrivals not yet started
  bool active = false;
  workload::Op op;
  OpSpan span;
};

/// The visibility probe: a DC0 session PUTs a fresh key, a DC1 session
/// re-reads it until the value is found.
struct Probe {
  net::TcpSession* writer = nullptr;
  net::TcpSession* reader = nullptr;
  enum class State { kIdle, kPut, kRead } state = State::kIdle;
  std::uint64_t n = 0;
  KeyId key = 0;
  std::string value;
  std::int64_t next_at = 0;
  std::int64_t put_reply_at = 0;
  std::uint64_t mismatches = 0;  // read returned a value never written
  OpSpan span;
};

/// The sessions whose histories are checked together. Phases that share no
/// keys get their own segment, so the checker's memory (which grows with
/// PUTs x causal-past size) is bounded by one phase, not the whole run.
struct Segment {
  std::string name;
  std::vector<const net::TcpSession*> sessions;
};

class Dispatcher {
 public:
  Dispatcher(const Options& o, const net::ClusterLayout& layout)
      : o_(o), layout_(layout) {}

  bool connect();
  /// Fresh workload and probe sessions for phase number `phase`; without a
  /// preload they also get a fresh keyspace and segment.
  void begin_phase(const std::string& name, std::uint32_t phase);
  void preload();
  void run_phase(PhaseStats& st, bool open, double seconds, bool traced);
  void stop_pools() {
    for (auto& p : pools_) p->stop();
  }
  [[nodiscard]] const std::vector<Segment>& segments() const {
    return segments_;
  }
  net::TransportStats net_stats() const {
    net::TransportStats s;
    for (const auto& p : pools_) s += p->transport_stats();
    return s;
  }
  [[nodiscard]] const std::vector<OpSpan>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t probe_mismatches() const {
    return probe_.mismatches;
  }
  [[nodiscard]] std::uint64_t preload_ops() const { return preload_ops_; }
  [[nodiscard]] std::uint64_t preload_failed() const {
    return preload_failed_;
  }

 private:
  net::TcpSession* open_session(DcId dc) {
    net::TcpSession* s = &pools_[dc]->connect(next_client_++);
    segments_.back().sessions.push_back(s);
    return s;
  }
  void start_op(Slot& s, std::int64_t due, std::int64_t now, bool traced);
  void complete_op(Slot& s, PhaseStats& st, std::int64_t end, bool traced);
  bool step_probe(PhaseStats& st, std::int64_t now, bool accepting,
                  bool traced);

  const Options& o_;
  const net::ClusterLayout& layout_;
  std::vector<std::unique_ptr<net::TcpClientPool>> pools_;
  std::vector<Segment> segments_;
  ClientId next_client_ = 1;
  std::vector<Slot> slots_;
  Probe probe_;
  std::vector<OpSpan> spans_;
  std::uint64_t next_span_id_ = 1;
  std::uint64_t preload_ops_ = 0;
  std::uint64_t preload_failed_ = 0;
};

bool Dispatcher::connect() {
  for (DcId dc = 0; dc < 2; ++dc) {
    pools_.push_back(std::make_unique<net::TcpClientPool>(layout_, dc));
    pools_.back()->start();
  }
  for (auto& p : pools_) {
    if (!p->wait_connected(10'000'000)) return false;
  }
  segments_.push_back(Segment{"setup", {}});
  return true;
}

void Dispatcher::begin_phase(const std::string& name, std::uint32_t phase) {
  if (segment_per_phase(o_)) segments_.push_back(Segment{name, {}});
  const workload::WorkloadConfig wl = phase_workload(o_, phase);
  const std::uint32_t parts = layout_.topology.partitions_per_dc;
  const std::uint32_t n = 2 * o_.sessions_per_dc;
  slots_.clear();
  slots_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    // Alternate DCs so consecutive open-loop arrivals go to both.
    slots_[i].dc = static_cast<DcId>(i % 2);
    slots_[i].session = open_session(slots_[i].dc);
    slots_[i].gen = std::make_unique<workload::Generator>(
        wl, parts, session_seed(o_.seed, phase, i));
  }
  probe_.writer = open_session(0);
  probe_.reader = open_session(1);
}

/// Writes preload_keys per partition through DC0 (closed loop, 256 PUTs in
/// flight, so group commits are large and the preload's length depends
/// little on the disk's fsync latency) and returns when every PUT was
/// acknowledged.
void Dispatcher::preload() {
  if (o_.preload_keys == 0) return;
  const std::uint32_t parts = layout_.topology.partitions_per_dc;
  const std::uint64_t total = o_.preload_keys * parts;
  std::uint64_t next = 0;
  struct Writer {
    net::TcpSession* session = nullptr;
    std::uint64_t written = 0;
    bool active = false;
  };
  std::vector<Writer> writers(256);
  std::size_t active = 0;
  while (next < total || active > 0) {
    bool progress = false;
    for (Writer& w : writers) {
      if (!w.active && next < total) {
        if (w.session == nullptr || w.written == kPreloadKeysPerSession) {
          w.session = open_session(0);
          w.written = 0;
        }
        const auto part = static_cast<PartitionId>(next % parts);
        const std::uint64_t rank = next / parts;
        const KeyId key =
            store::KeySpace::global().intern_partition_key(part, rank);
        w.session->start_put_id(
            key, preload_value(o_.seed, part, rank, o_.value_size));
        w.active = true;
        ++w.written;
        ++active;
        ++next;
        progress = true;
      }
      if (w.active && w.session->pump()) {
        if (!w.session->finish_put().ok) ++preload_failed_;
        ++preload_ops_;
        w.active = false;
        --active;
        progress = true;
      }
    }
    if (!progress) {
      const timespec nap{0, 20'000};
      nanosleep(&nap, nullptr);
    }
  }
}

void Dispatcher::start_op(Slot& s, std::int64_t due, std::int64_t now,
                      bool traced) {
  s.op = s.gen->next();
  s.span = OpSpan{};
  s.span.kind = kind_of(s.op.type);
  s.span.due = due;
  s.span.s0 = now;
  switch (s.op.type) {
    case workload::OpType::kGet:
      s.session->start_get_id(s.op.keys.front());
      break;
    case workload::OpType::kPut:
      s.session->start_put_id(s.op.keys.front(), s.op.value);
      break;
    case workload::OpType::kRoTx:
      s.session->start_ro_tx_ids(s.op.keys);
      break;
  }
  if (traced) s.span.s1 = now_ns();
  s.active = true;
}

void Dispatcher::complete_op(Slot& s, PhaseStats& st, std::int64_t end,
                         bool traced) {
  s.span.done = now_ns();
  bool ok = false;
  switch (s.op.type) {
    case workload::OpType::kGet:
      ok = s.session->finish_get().ok;
      break;
    case workload::OpType::kPut:
      ok = s.session->finish_put().ok;
      if (ok) {
        ++st.puts;
        st.user_bytes_put +=
            store::KeySpace::global().name_size(s.op.keys.front()) +
            s.op.value.size();
      }
      break;
    case workload::OpType::kRoTx:
      ok = s.session->finish_tx().ok;
      break;
  }
  s.span.fin = now_ns();
  s.active = false;
  if (o_.session_per_cycle && s.op.type == workload::OpType::kPut) {
    // A Get-Put cycle ends with its PUT: the next cycle is a new user.
    s.session = open_session(s.dc);
  }
  ++st.attempted;
  if (!ok) {
    ++st.failed;
    return;
  }
  ++st.ops;
  ++st.by_kind[s.span.kind];
  if (s.span.fin <= end) ++st.ops_in_window;
  st.lat[s.span.kind].push_back(s.span.fin - s.span.due);
  if (traced) {
    s.span.id = next_span_id_++;
    spans_.push_back(s.span);
  }
}

/// Advances the probe; true when it made progress.
bool Dispatcher::step_probe(PhaseStats& st, std::int64_t now, bool accepting,
                        bool traced) {
  Probe& p = probe_;
  const auto begin = [&](Kind k) {
    p.span = OpSpan{};
    p.span.kind = k;
    p.span.probe = true;
    p.span.due = p.span.s0 = now_ns();
  };
  const auto end_span = [&] {
    p.span.fin = now_ns();
    if (traced) {
      p.span.id = next_span_id_++;
      spans_.push_back(p.span);
    }
  };
  switch (p.state) {
    case Probe::State::kIdle: {
      if (!accepting || now < p.next_at) return false;
      const auto part = static_cast<PartitionId>(
          p.n % layout_.topology.partitions_per_dc);
      p.key = store::KeySpace::global().intern_partition_key(
          part, kProbeRankBase + o_.seed * 1'000'000 + p.n);
      p.value = "probe-" + std::to_string(p.n);
      ++p.n;
      p.next_at = std::max(
          now, p.next_at + kProbePeriodNs);
      begin(kPut);
      p.writer->start_put_id(p.key, p.value);
      p.span.s1 = now_ns();
      p.state = Probe::State::kPut;
      return true;
    }
    case Probe::State::kPut: {
      ++p.span.pumps;
      if (!p.writer->pump()) return false;
      p.span.done = now_ns();
      const bool ok = p.writer->finish_put().ok;
      end_span();
      ++st.attempted;
      if (!ok) {
        ++st.failed;
        p.state = Probe::State::kIdle;
        return true;
      }
      ++st.probe_ops;
      p.put_reply_at = p.span.fin;
      begin(kGet);
      p.reader->start_get_id(p.key);
      p.span.s1 = now_ns();
      p.state = Probe::State::kRead;
      return true;
    }
    case Probe::State::kRead: {
      ++p.span.pumps;
      if (!p.reader->pump()) return false;
      p.span.done = now_ns();
      const auto got = p.reader->finish_get();
      end_span();
      ++st.attempted;
      if (!got.ok) {
        ++st.failed;
        p.state = Probe::State::kIdle;
        return true;
      }
      ++st.probe_ops;
      if (got.found) {
        if (got.value != p.value) ++p.mismatches;
        st.visibility.push_back(p.span.fin - p.put_reply_at);
        p.state = Probe::State::kIdle;
        return true;
      }
      begin(kGet);
      p.reader->start_get_id(p.key);
      p.span.s1 = now_ns();
      return true;
    }
  }
  return false;
}

/// Runs one phase, then drains: arrivals stop at the phase end, but every op
/// already due (and the probe in flight) completes before returning.
void Dispatcher::run_phase(PhaseStats& st, bool open, double seconds,
                       bool traced) {
  const std::int64_t t0 = now_ns();
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const double interval_ns = open ? 1e9 / o_.rate : 0;
  std::uint64_t k = 0;  // next open-loop arrival
  const double cpu0 = process_cpu_us();
  const net::TransportStats net0 = net_stats();
  if (probe_.next_at < t0) probe_.next_at = t0;
  while (true) {
    const std::int64_t now = now_ns();
    const bool accepting = now < end;
    bool progress = false;
    bool busy = false;
    if (open) {
      while (true) {
        const auto due = t0 + static_cast<std::int64_t>(
                                  static_cast<double>(k) * interval_ns);
        if (due > now || due >= end) break;
        slots_[k % slots_.size()].due.push_back(due);
        st.late.push_back(now - due);
        ++k;
      }
    }
    for (Slot& s : slots_) {
      if (!s.active) {
        if (open && !s.due.empty()) {
          const std::int64_t due = s.due.front();
          s.due.pop_front();
          start_op(s, due, now_ns(), traced);
          progress = true;
        } else if (!open && accepting) {
          const std::int64_t t = now_ns();
          start_op(s, t, t, traced);
          progress = true;
        }
      }
      if (s.active) {
        busy = true;
        ++s.span.pumps;
        if (s.session->pump()) {
          complete_op(s, st, end, traced);
          progress = true;
        }
      }
      busy |= !s.due.empty();
    }
    progress |= step_probe(st, now, accepting, traced);
    busy |= probe_.state != Probe::State::kIdle;
    if (!accepting && !busy) break;
    if (!progress) {
      std::int64_t nap = kIdleNapNs;
      if (open && accepting) {
        const auto due = t0 + static_cast<std::int64_t>(
                                  static_cast<double>(k) * interval_ns);
        nap = std::clamp<std::int64_t>(due - now_ns(), 0, kIdleNapNs);
      }
      if (nap > 0) {
        const std::int64_t a = now_ns();
        const timespec ts{0, static_cast<long>(nap)};
        nanosleep(&ts, nullptr);
        st.slept_ns += now_ns() - a;
      }
    }
  }
  st.wall_ns = now_ns() - t0;
  st.window_ns = end - t0;
  st.cpu_us = process_cpu_us() - cpu0;
  st.net = diff(net0, net_stats());
}

// ----------------------------------------------------------- parent sync

/// Prints `SYNC label` and waits for the parent's `go`; exits when the
/// parent is gone, so an orphaned generator never keeps a cluster busy.
void sync(const char* label) {
  std::printf("SYNC %s\n", label);
  std::fflush(stdout);
  std::string answer;
  if (!std::getline(std::cin, answer)) std::exit(4);
}

// ---------------------------------------------------------------- replay

struct ReplayStat {
  double encode_ns = 0, decode_ns = 0;
  double bytes = 0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// Median over batches of per-item time; each batch is one replay span.
template <typename Fn>
double time_per_item_ns(std::size_t items, std::size_t batch, Fn&& fn) {
  std::vector<double> per;
  for (std::size_t b = 0; b < items; b += batch) {
    const std::size_t e = std::min(items, b + batch);
    const std::int64_t t = now_ns();
    fn(b, e);
    per.push_back(static_cast<double>(now_ns() - t) /
                  static_cast<double>(e - b));
  }
  return median(per);
}

std::map<std::string, ReplayStat> replay_codec(
    const std::vector<workload::Op>& ops, std::uint32_t dcs) {
  std::map<std::string, std::vector<proto::Message>> by_type;
  VersionVector vv(dcs);
  Timestamp ut = 1'700'000'000'000'000;
  std::uint64_t op_id = 0;
  for (const workload::Op& op : ops) {
    ++op_id;
    ++ut;
    for (std::uint32_t d = 0; d < dcs; ++d) vv.set(d, ut - 1000 * (d + 1));
    const KeyId key = op.keys.front();
    proto::ReadItem item;
    item.key = key;
    item.found = true;
    item.value = std::string(op.value.empty() ? 8 : op.value.size(), 'v');
    item.ut = ut - 500;
    item.dv = vv;
    switch (op.type) {
      case workload::OpType::kGet:
        by_type["GetReq"].push_back(proto::GetReq{1, key, vv, false, op_id});
        by_type["GetReply"].push_back(proto::GetReply{1, item, 0, op_id});
        break;
      case workload::OpType::kPut: {
        by_type["PutReq"].push_back(
            proto::PutReq{1, key, op.value, vv, false, op_id});
        by_type["PutReply"].push_back(
            proto::PutReply{1, key, ut, 0, 0, op_id});
        store::Version v;
        v.key = key;
        v.value = op.value;
        v.ut = ut;
        v.dv = vv;
        by_type["Replicate"].push_back(proto::Replicate{std::move(v)});
        by_type["Heartbeat"].push_back(proto::Heartbeat{0, ut});
        break;
      }
      case workload::OpType::kRoTx: {
        by_type["RoTxReq"].push_back(
            proto::RoTxReq{1, op.keys, vv, false, op_id});
        proto::RoTxReply rep;
        rep.client = 1;
        rep.tv = vv;
        rep.op_id = op_id;
        for (KeyId k : op.keys) {
          item.key = k;
          rep.items.push_back(item);
          proto::SliceReq sreq;
          sreq.tx_id = op_id;
          sreq.coordinator = NodeId{0, 0};
          sreq.keys = {k};
          sreq.tv = vv;
          by_type["SliceReq"].push_back(std::move(sreq));
          proto::SliceReply srep;
          srep.tx_id = op_id;
          srep.items = {item};
          by_type["SliceReply"].push_back(std::move(srep));
        }
        by_type["RoTxReply"].push_back(std::move(rep));
        break;
      }
    }
  }
  std::map<std::string, ReplayStat> out;
  for (const char* t : {"GetReq", "PutReq", "RoTxReq", "GetReply", "PutReply",
                        "RoTxReply", "Replicate", "Heartbeat", "SliceReq",
                        "SliceReply"}) {
    ReplayStat& r = out[t];
    const auto& msgs = by_type[t];
    if (msgs.empty()) continue;
    std::vector<std::vector<std::uint8_t>> frames(msgs.size());
    std::size_t bytes = 0;
    r.encode_ns = time_per_item_ns(msgs.size(), 256, [&](std::size_t b,
                                                         std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        frames[i].clear();
        proto::encode(msgs[i], frames[i]);
      }
    });
    for (const auto& f : frames) bytes += f.size();
    r.bytes = static_cast<double>(bytes) / static_cast<double>(frames.size());
    std::size_t decoded = 0;
    r.decode_ns = time_per_item_ns(frames.size(), 256, [&](std::size_t b,
                                                           std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        const auto res = proto::decode_frame(frames[i].data(), frames[i].size());
        decoded += res.status == proto::DecodeResult::Status::kOk ? 1 : 0;
      }
    });
    if (decoded != frames.size()) {
      std::fprintf(stderr, "perfbench_gen: codec replay failed for %s\n", t);
      std::exit(5);
    }
  }
  return out;
}

struct StoreReplay {
  double put_ns = 0, get_ns = 0;
};

/// Replays the preload and the ops that a server's partition 0 receives
/// through one PartitionStore, so the store holds what one partition holds
/// (GC keeps the freshest version, as a quiescent server would).
StoreReplay replay_store(const Options& o, const std::vector<workload::Op>& ops,
                         const TopologyConfig& topo) {
  store::KeySpace& ks = store::KeySpace::global();
  const auto on_part0 = [&](KeyId key) {
    return ks.partition(key, topo.partitions_per_dc, topo.partition_scheme) ==
           0;
  };
  store::PartitionStore st;
  Timestamp ut = 1;
  const auto version = [&](KeyId key, const std::string& value) {
    store::Version v;
    v.key = key;
    v.value = value;
    v.ut = ++ut;
    v.dv = VersionVector(topo.num_dcs);
    return v;
  };
  for (PartitionId p = 0; p < topo.partitions_per_dc; ++p) {
    for (std::uint64_t r = 0; r < o.preload_keys; ++r) {
      const KeyId key = ks.intern_partition_key(p, r);
      if (on_part0(key)) {
        st.insert(version(key, preload_value(o.seed, p, r, o.value_size)));
      }
    }
  }
  std::vector<store::Version> puts;
  std::vector<KeyId> gets;
  for (const workload::Op& op : ops) {
    if (op.type == workload::OpType::kPut) {
      if (on_part0(op.keys.front())) {
        puts.push_back(version(op.keys.front(), op.value));
      }
    } else {
      for (KeyId k : op.keys) {
        if (on_part0(k)) gets.push_back(k);
      }
    }
  }
  StoreReplay r;
  r.put_ns = time_per_item_ns(puts.size(), 256, [&](std::size_t b,
                                                    std::size_t e) {
    for (std::size_t i = b; i < e; ++i) st.insert(std::move(puts[i]));
    st.gc([](const store::Version&) { return true; });
  });
  std::uint64_t found = 0;
  r.get_ns = time_per_item_ns(gets.size(), 256, [&](std::size_t b,
                                                    std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const store::VersionChain* c = st.find(gets[i]);
      found += (c != nullptr && c->freshest() != nullptr) ? 1 : 0;
    }
  });
  if (found > gets.size()) std::exit(5);  // keeps the lookups observable
  return r;
}

struct WalReplay {
  double append_ns = 0, sync_us = 0;
};

/// Appends the workload's PUT versions to a PartitionWal under `dir`,
/// syncing every `per_sync` versions (the servers' measured group size).
WalReplay replay_wal(const std::string& dir,
                     const std::vector<workload::Op>& ops, std::uint32_t dcs,
                     std::size_t per_sync) {
  WalReplay r;
  std::filesystem::remove_all(dir);
  std::vector<store::Version> puts;
  Timestamp ut = 1;
  for (const workload::Op& op : ops) {
    if (op.type != workload::OpType::kPut) continue;
    store::Version v;
    v.key = op.keys.front();
    v.value = op.value;
    v.ut = ++ut;
    v.dv = VersionVector(dcs);
    puts.push_back(std::move(v));
  }
  {
    wal::PartitionWal log(dir, wal::PartitionWal::Options{0});
    std::vector<double> appends;
    std::vector<double> syncs;
    for (std::size_t b = 0; b < puts.size(); b += per_sync) {
      const std::size_t e = std::min(puts.size(), b + per_sync);
      const std::int64_t t0 = now_ns();
      for (std::size_t i = b; i < e; ++i) log.log_version(puts[i]);
      const std::int64_t t1 = now_ns();
      log.sync();
      const std::int64_t t2 = now_ns();
      appends.push_back(static_cast<double>(t1 - t0) /
                        static_cast<double>(e - b));
      syncs.push_back(static_cast<double>(t2 - t1) / 1e3);
    }
    r.append_ns = median(appends);
    r.sync_us = median(syncs);
  }
  std::filesystem::remove_all(dir);
  return r;
}

/// The first `n` ops of every workload session of the open-loop phase (the
/// replay input).
std::vector<workload::Op> session_ops(const Options& o, std::uint32_t parts,
                                      std::uint64_t n) {
  std::vector<workload::Op> ops;
  const workload::WorkloadConfig wl = phase_workload(o, kFirstRoundPhase);
  for (std::uint32_t i = 0; i < 2 * o.sessions_per_dc; ++i) {
    workload::Generator g(wl, parts,
                          session_seed(o.seed, kFirstRoundPhase, i));
    for (std::uint64_t j = 0; j < n; ++j) ops.push_back(g.next());
  }
  return ops;
}

// ------------------------------------------------------------------ output

void json_quantiles(std::FILE* f, const char* name,
                    const std::vector<std::int64_t>& v) {
  const Quantiles q = quantiles_us(v);
  std::fprintf(f,
               "\"%s\":{\"p50\":%.4f,\"p90\":%.4f,\"p99\":%.4f,"
               "\"n\":%zu}",
               name, q.p50, q.p90, q.p99, q.n);
}

void json_phase(std::FILE* f, const PhaseStats& st) {
  std::fprintf(f, "\"name\":\"%s\",", st.name.c_str());
  for (int k = 0; k < kKinds; ++k) {
    json_quantiles(f, kKindName[k], st.lat[k]);
    std::fprintf(f, ",\"%s_ops\":%llu,", kKindName[k],
                 static_cast<unsigned long long>(st.by_kind[k]));
  }
  json_quantiles(f, "late", st.late);
  std::fprintf(f, ",");
  json_quantiles(f, "visibility", st.visibility);
  std::fprintf(
      f,
      ",\"ops\":%llu,\"ops_in_window\":%llu,\"probe_ops\":%llu,"
      "\"attempted\":%llu,\"failed\":%llu,\"puts\":%llu,"
      "\"user_bytes_put\":%llu,\"slept_s\":%.6f,\"wall_s\":%.6f,"
      "\"window_s\":%.6f,\"cpu_us\":%.1f,"
      "\"net\":{\"bytes_in\":%llu,\"bytes_out\":%llu,\"sendmsg_calls\":%llu,"
      "\"sendmsg_frames\":%llu}}",
      static_cast<unsigned long long>(st.ops),
      static_cast<unsigned long long>(st.ops_in_window),
      static_cast<unsigned long long>(st.probe_ops),
      static_cast<unsigned long long>(st.attempted),
      static_cast<unsigned long long>(st.failed),
      static_cast<unsigned long long>(st.puts),
      static_cast<unsigned long long>(st.user_bytes_put),
      static_cast<double>(st.slept_ns) / 1e9,
      static_cast<double>(st.wall_ns) / 1e9,
      static_cast<double>(st.window_ns) / 1e9, st.cpu_us,
      static_cast<unsigned long long>(st.net.bytes_in),
      static_cast<unsigned long long>(st.net.bytes_out),
      static_cast<unsigned long long>(st.net.sendmsg_calls),
      static_cast<unsigned long long>(st.net.sendmsg_frames));
}

bool write_spans(const std::string& path, const std::vector<OpSpan>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,name,kind,start_ns,end_ns,pumps\n");
  for (const OpSpan& s : spans) {
    const char* kind = kKindName[s.kind];
    const char* root = s.probe ? "probe" : "op";
    const auto id = static_cast<unsigned long long>(s.id) * 8;
    std::fprintf(f, "%llu,0,%s,%s,%lld,%lld,%u\n", id, root, kind,
                 static_cast<long long>(s.due), static_cast<long long>(s.fin),
                 s.pumps);
    const std::int64_t edges[5] = {s.due, s.s0, s.s1, s.done, s.fin};
    const char* const names[4] = {"gen.queue", "client.start", "client.wait",
                                  "client.finish"};
    for (int c = 0; c < 4; ++c) {
      std::fprintf(f, "%llu,%llu,%s,%s,%lld,%lld,0\n", id * 8 + c + 1, id,
                   names[c], kind, static_cast<long long>(edges[c]),
                   static_cast<long long>(edges[c + 1]));
    }
  }
  return std::fclose(f) == 0;
}

int run(const Options& o) {
  std::string error;
  const auto layout = net::load_cluster_config(o.config_path, &error);
  if (!layout.has_value()) {
    std::fprintf(stderr, "perfbench_gen: bad config: %s\n", error.c_str());
    return 4;
  }
  prctl(PR_SET_TIMERSLACK, 1000UL);  // 1 us: the idle nap is ~20 us
  Dispatcher dispatcher(o, *layout);
  if (!dispatcher.connect()) {
    std::fprintf(stderr, "perfbench_gen: cannot reach DC0/DC1\n");
    return 4;
  }
  dispatcher.preload();
  sync("setup_done");

  std::vector<PhaseStats> phases;
  {
    const auto phase = [&](const char* name, std::uint32_t idx, bool open,
                           double s, bool traced) {
      dispatcher.begin_phase(name, idx);
      if (idx != kWarmupPhase) sync((std::string(name) + "_begin").c_str());
      phases.emplace_back();
      phases.back().name = name;
      dispatcher.run_phase(phases.back(), open, s, traced);
      if (idx != kWarmupPhase) sync((std::string(name) + "_end").c_str());
    };
    phase("warmup", kWarmupPhase, true, kWarmupS, false);
    // One round: the parent runs several, each on a fresh deployment, and
    // aggregates over rounds.
    const std::uint32_t base = kFirstRoundPhase + 3 * o.round;
    if (o.phases == "open") {
      phase("open", base, true, o.seconds, false);
      if (o.trace) phase("open_traced", base + 1, true, o.seconds, true);
    } else {
      phase("closed", base + 2, false, o.seconds, false);
    }
  }
  sync("ops_done");  // the parent stops the servers now

  // Every session history, segment by segment, through a fresh checker.
  const std::int64_t check_t0 = now_ns();
  dispatcher.stop_pools();
  bool complete = true;
  std::size_t violations = 0, events = 0, sessions = 0;
  std::uint64_t checks = 0;
  for (const Segment& seg : dispatcher.segments()) {
    std::vector<checker::SessionHistory> histories;
    histories.reserve(seg.sessions.size());
    for (const net::TcpSession* s : seg.sessions) {
      histories.push_back(s->history());
      events += s->history().events.size();
    }
    sessions += histories.size();
    checker::HistoryChecker checker(layout->topology.num_dcs);
    const auto replay = checker::replay_history(histories, checker);
    checks += checker.checks_performed();
    violations += checker.violations().size();
    for (std::size_t i = 0; i < checker.violations().size() && i < 10; ++i) {
      std::fprintf(stderr, "perfbench_gen: %s: VIOLATION: %s\n",
                   seg.name.c_str(), checker.violations()[i].c_str());
    }
    if (!replay.complete) {
      complete = false;
      std::fprintf(stderr, "perfbench_gen: %s: history incomplete: %s\n",
                   seg.name.c_str(), replay.error.c_str());
    }
  }

  std::FILE* f = std::fopen(o.out_path.c_str(), "w");
  if (f == nullptr) return 4;
  std::fprintf(f,
               "{\"check\":{\"complete\":%s,\"violations\":%zu,\"checks\":%llu,"
               "\"events\":%zu,\"sessions\":%zu,\"seconds\":%.3f,"
               "\"maxrss_mb\":%.1f},\"probe_mismatches\":%llu,"
               "\"preload\":{\"ops\":%llu,\"failed\":%llu},\"phases\":[",
               complete ? "true" : "false", violations,
               static_cast<unsigned long long>(checks), events, sessions,
               static_cast<double>(now_ns() - check_t0) / 1e9, maxrss_mb(),
               static_cast<unsigned long long>(dispatcher.probe_mismatches()),
               static_cast<unsigned long long>(dispatcher.preload_ops()),
               static_cast<unsigned long long>(dispatcher.preload_failed()));
  for (std::size_t i = 1; i < phases.size(); ++i) {  // [0] is the warm-up
    std::fprintf(f, "%s{", i > 1 ? "," : "");
    json_phase(f, phases[i]);  // closes the object
  }
  std::fprintf(f, "]");
  if (o.trace && !dispatcher.spans().empty()) {
    if (!write_spans(o.spans_path, dispatcher.spans())) return 4;
  }
  if (o.replay) {
    const std::uint32_t parts = layout->topology.partitions_per_dc;
    const std::uint32_t dcs = layout->topology.num_dcs;
    const auto ops = session_ops(o, parts, 4096 / o.sessions_per_dc + 64);
    const auto codec = replay_codec(ops, dcs);
    std::fprintf(f, ",\"codec\":{");
    bool first = true;
    for (const auto& [t, r] : codec) {
      std::fprintf(f, "%s\"%s\":{\"encode_ns\":%.3f,\"decode_ns\":%.3f,"
                   "\"bytes\":%.2f}", first ? "" : ",", t.c_str(), r.encode_ns,
                   r.decode_ns, r.bytes);
      first = false;
    }
    const StoreReplay sr = replay_store(o, ops, layout->topology);
    std::fprintf(f, "},\"store\":{\"put_ns\":%.3f,\"get_ns\":%.3f}", sr.put_ns,
                 sr.get_ns);
    WalReplay wr;
    if (!o.replay_dir.empty()) wr = replay_wal(o.replay_dir, ops, dcs, 8);
    std::fprintf(f, ",\"wal\":{\"append_ns\":%.3f,\"sync_us\":%.3f}",
                 wr.append_ns, wr.sync_us);
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return complete && violations == 0 ? 0 : 1;
}

/// Prints the op stream and preload digest a seed yields (determinism test).
int dump(const Options& o) {
  const std::uint32_t parts = 2;
  for (const workload::Op& op : session_ops(o, parts, o.dump_ops)) {
    std::printf("%d", static_cast<int>(op.type));
    for (KeyId k : op.keys) {
      std::printf(" %s", std::string(store::KeySpace::global().name(k)).c_str());
    }
    std::printf(" %s\n", op.value.c_str());
  }
  std::uint64_t h = 1469598103934665603ULL;
  for (PartitionId p = 0; p < parts; ++p) {
    for (std::uint64_t r = 0; r < o.preload_keys; ++r) {
      for (char c : preload_value(o.seed, p, r, o.value_size)) {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
      }
    }
  }
  std::printf("preload %llu\n", static_cast<unsigned long long>(h));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench_gen run --config FILE --out FILE [...]\n"
                 "       perfbench_gen dump --seed N [...]\n");
    return 4;
  }
  return o.mode == "run" ? run(o) : dump(o);
}
