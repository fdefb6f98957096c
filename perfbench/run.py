#!/usr/bin/env python3
"""Benchmark of record for the POCC deployment.

Runs one workload against a real 3-DC poccd deployment on loopback and prints,
as the last line of stdout, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hot-getput --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare A.json B.json

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer budget (see
BENCHMARK.json). Each run builds poccd and the generator (perfbench/gen.cpp)
into $CARGO_TARGET_DIR (default .bench_build), then measures --seconds
spread over rounds. Every round runs on a fresh deployment:

  1. set-up: launch poccd for DC0..DC2 (2 partitions, threads=1 each) and
     poll /healthz until every DC is up (setup_s, setup.up_wall_s; see
     SETUP_SAMPLES), then /readyz until every DC has its peer links
     (setup.peer_connect_s); then start and connect the generator, preload
     (durable-large) and wait until every DC holds the preload
     (setup.preload_s);
  2. warm-up (open loop, not measured);
  3. an open-loop window at the workload's fixed rate (--trace 1: twice,
     untraced then traced, for the tracing overhead), or, in the closed-loop
     rounds that all come last, a capacity window;
  4. shutdown, then every session history of the round is replayed through
     checker::HistoryChecker. A violation, an incomplete history or a probe
     read of a value never written fails the run: nothing is printed and the
     exit code is 1.

Each reported figure is the interquartile mean or the median over rounds
(setup_s: the least over launches). /metrics and /proc of every poccd and
the machine's steal time are snapshotted before and after each window; raw
scrapes, spans, logs and a fingerprinted result file (with the steal share
of the run) stay under .bench_out/.
A run whose generator fell behind its open-loop schedule is marked invalid
there. --compare refuses to compare result files whose fingerprints differ
or that are marked invalid.
"""

import argparse
import json
import os
import platform
import queue
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")

DCS = 3
PARTITIONS = 2
# --seconds is split over rounds, each on a fresh deployment: OPEN_SHARE of
# it over the open-loop rounds, the rest over the closed-loop rounds.
OPEN_SHARE = 0.85
# Open-loop validity: the generator must notice a due op within this long at
# p99, and must have slept for part of the phase.
LATE_P99_LIMIT_US = 2000.0
BUSY_SHARE_LIMIT = 0.98

# setup_s is the least, over this many launches per run (the rounds' own,
# topped up with launches that stop once ready), of the CPU time all poccd
# spend from launch until each answers /healthz: the work of start-up, which
# rises by whatever work a change adds to start-up. On a shared 4-vCPU host
# the wall time of the same steps (setup.up_wall_s, ~4-10 ms) moved up to
# 2.6x between runs with other tenants' load; between two sets of ten runs
# the median of the CPU time moved up to 25%, its least value at most 14%.
# The wait from up to ready is left out: a poccd that dials a peer before the
# peer listens redials 20 ms later, so that wait is ~0 or ~20 ms, in a mix
# that moves with the host's load.
SETUP_SAMPLES = 40

# Why each workload exists: see BENCHMARK.json. `rate` is the open-loop
# offered load in ops/s over DC0+DC1 (about a tenth of hot-getput's capacity
# on a 4-core machine: the history check's memory grows with PUTs times
# causal-past size, which bounds the ops one round may issue); `sessions` is
# per active DC in the (open-loop, closed-loop) rounds: enough closed-loop
# sessions that timer waits (RO-TX slices wait for heartbeats) cannot cap the
# throughput below the CPU's; `rounds` is (open-loop rounds, closed-loop
# rounds), more for rotx, whose RO-TX latency depends on the phase of the
# heartbeat timers, fixed per deployment;
# `per_cycle` opens a fresh session for every Get-Put cycle, which keeps
# causal pasts short over a large keyspace.
WORKLOADS = {
    "hot-getput": dict(pattern="getput", gets_per_put=2, theta=0.99,
                       keys=1000, value=8, preload=0, durable=False,
                       rate=8000, sessions=(16, 64), read="get",
                       per_cycle=False, rounds=(10, 4)),
    "rotx": dict(pattern="txput", gets_per_put=2, theta=0.99,
                 keys=1000, value=8, preload=0, durable=False,
                 rate=5000, sessions=(16, 64), read="rotx",
                 per_cycle=False, rounds=(24, 4)),
    "durable-large": dict(pattern="getput", gets_per_put=1, theta=0.0,
                          keys=12288, value=512, preload=12288, durable=True,
                          rate=4000, sessions=(16, 64), read="get",
                          per_cycle=True, rounds=(3, 2)),
}

# Series every scrape must carry; a rename fails the run instead of reading
# as zeros.
EXPECTED_SERIES = [
    "pocc_server_op_us_bucket", "pocc_server_op_us_sum",
    "pocc_server_op_us_count", "pocc_transport_frames_in_total",
    "pocc_transport_bytes_out_total", "pocc_transport_reconnects_total",
    "pocc_transport_decode_errors_total", "pocc_transport_sendmsg_calls_total",
    "pocc_transport_sendmsg_frames_total", "pocc_transport_arena_hits_total",
    "pocc_transport_arena_misses_total", "pocc_transport_backend_info",
    "pocc_batch_messages_total", "pocc_batch_batches_total",
    "pocc_batch_protocol_bytes_total", "pocc_batch_overhead_bytes_total",
    "pocc_batch_dropped_batches_total", "pocc_batch_retried_batches_total",
    "pocc_host_dropped_frames_total", "pocc_host_overloaded_replies_total",
    "pocc_host_deduped_requests_total", "pocc_host_client_requests_total",
    "pocc_inbox_depth", "pocc_engine_gets_total", "pocc_engine_slices_total",
    "pocc_engine_blocking_ops_total", "pocc_engine_blocked_total",
    "pocc_engine_reads_total", "pocc_engine_old_reads_total",
    "pocc_store_keys", "pocc_store_versions", "pocc_store_gc_removed_total",
]
EXPECTED_DURABLE_SERIES = ["pocc_wal_syncs_total", "pocc_wal_synced_bytes_total"]

CODEC_TYPES = ["GetReq", "PutReq", "RoTxReq", "GetReply", "PutReply",
               "RoTxReply", "Replicate", "Heartbeat", "SliceReq", "SliceReply"]


class BenchError(Exception):
    pass


T0 = time.monotonic()


def log(msg):
    print(f"perfbench [{time.monotonic() - T0:6.1f}s]: {msg}", file=sys.stderr,
          flush=True)


# ------------------------------------------------------------------ build

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no system under test here (CMakeLists.txt and src/ "
                         "must sit beside perfbench/)")
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD, "--target", "poccd",
                    "perfbench_gen", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, env=env)


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# -------------------------------------------------------------- fingerprint

def fs_type(path):
    best, kind = "", "unknown"
    with open("/proc/mounts") as f:
        for line in f:
            parts = line.split()
            mnt = parts[1]
            if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                    and len(mnt) > len(best):
                best, kind = mnt, parts[2]
    return kind


def cpu_model():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def fingerprint(args, backend, data_dir):
    """What a result depends on besides the code: two results compare only
    when these are equal."""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "build_type": build_type(),
        "event_backend": backend,
        "data_fs": fs_type(data_dir),
    }


# ---------------------------------------------------------- /metrics, /proc

def http_get(port, path, timeout=2.0):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                timeout=timeout) as r:
        return r.status, r.read().decode()


def parse_prom(text):
    """{(name, labels): value} of a Prometheus text exposition."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, value = line.rsplit(" ", 1)
        name, _, labels = series.partition("{")
        out[(name, labels.rstrip("}"))] = float(value)
    return out


def total(snap, name):
    return sum(v for (n, _), v in snap.items() if n == name)


def label(labels, key):
    m = re.search(key + r'="([^"]*)"', labels)
    return m.group(1) if m else None


def read_proc(pid):
    """(CPU seconds of all threads, peak RSS MiB) of a process. CPU time comes
    from each thread's schedstat (ns); /proc/<pid>/stat counts 10 ms ticks,
    too coarse for sub-second windows."""
    cpu_ns = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as f:
                cpu_ns += int(f.read().split()[0])
        except OSError:
            pass  # the thread exited between listdir and open
    rss_mb = 0.0
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):  # peak resident set
                rss_mb = int(line.split()[1]) / 1024.0
    return cpu_ns / 1e9, rss_mb


def read_steal():
    """(steal ticks, all ticks) of the machine: CPU time the hypervisor gave
    to other guests while this one had work to run."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks[:8])


def wal_state(data_dir):
    """(sum of active WAL segment numbers, bytes of the newest snapshots)."""
    segs, snap = 0, 0
    for dirpath, _, files in os.walk(data_dir):
        seq = [int(m.group(1)) for f in files
               for m in [re.match(r"wal-(\d+)\.log$", f)] if m]
        snaps = sorted(f for f in files if re.match(r"snap-\d+\.snap$", f))
        segs += max(seq, default=0)
        if snaps:
            snap += os.path.getsize(os.path.join(dirpath, snaps[-1]))
    return segs, snap


# ---------------------------------------------------------------- cluster

def free_ports(n):
    socks, ports = [], []
    for _ in range(n):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        ports.append(s.getsockname()[1])
    for s in socks:
        s.close()
    return ports


class Cluster:
    """Three poccd processes, one per DC, 2 partitions each, threads=1."""

    def __init__(self, run_dir, tag, durable):
        self.dir = os.path.join(run_dir, tag)
        os.makedirs(self.dir, exist_ok=True)
        ports = free_ports(2 * DCS)
        self.ports, self.mports = ports[:DCS], ports[DCS:]
        self.cfg = os.path.join(self.dir, "cluster.cfg")
        with open(self.cfg, "w") as f:
            f.write(f"dcs {DCS}\npartitions {PARTITIONS}\nsystem pocc\n"
                    "heartbeat_us 2000\nstabilization_us 10000\n")
            for dc in range(DCS):
                f.write(f"node dc={dc} parts=0-{PARTITIONS - 1} threads=1 "
                        f"addr=127.0.0.1:{self.ports[dc]}\n")
        self.data = os.path.join(self.dir, "data") if durable else None
        self.procs = []

    def start(self):
        poccd = os.path.join(BUILD, "pocc", "poccd")
        for dc in range(DCS):
            cmd = [poccd, "--config", self.cfg, "--dc", str(dc),
                   "--metrics-addr", f"127.0.0.1:{self.mports[dc]}"]
            if self.data:
                cmd += ["--data-dir", os.path.join(self.data, f"dc{dc}")]
            else:
                cmd += ["--no-durability"]
            err = open(os.path.join(self.dir, f"poccd-dc{dc}.log"), "w")
            self.procs.append(subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                               stderr=err))
            err.close()

    def wait_for(self, path, timeout=20.0):
        """Until every poccd answers `path` (/healthz or /readyz) with 200."""
        deadline = time.monotonic() + timeout
        for port in self.mports:
            while True:
                try:
                    if http_get(port, path, 0.5)[0] == 200:
                        break
                except (urllib.error.URLError, OSError):
                    pass
                if time.monotonic() > deadline:
                    raise BenchError(f"poccd never answered {path}")
                if any(p.poll() is not None for p in self.procs):
                    raise BenchError("poccd exited during start-up")
                time.sleep(0.001)

    def scrape(self, durable):
        texts, snaps = [], []
        for port in self.mports:
            text = http_get(port, "/metrics")[1]
            snap = parse_prom(text)
            names = {n for n, _ in snap}
            need = EXPECTED_SERIES + (EXPECTED_DURABLE_SERIES if durable else [])
            missing = [n for n in need if n not in names]
            if missing:
                raise BenchError(f"/metrics lacks expected series {missing}")
            texts.append(text)
            snaps.append(snap)
        return texts, snaps

    def wait_preload(self, keys, timeout=60.0):
        """Until every DC's store holds `keys` keys in every partition."""
        deadline = time.monotonic() + timeout
        while True:
            _, snaps = self.scrape(self.data is not None)
            counts = [v for s in snaps for (n, _), v in s.items()
                      if n == "pocc_store_keys"]
            if len(counts) == DCS * PARTITIONS and min(counts) >= keys:
                return
            if time.monotonic() > deadline:
                raise BenchError("preload never became visible in every DC")
            time.sleep(0.01)

    def stop(self):
        for p in self.procs:
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        for p in self.procs:
            try:
                p.wait(timeout=15)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()

    def close(self):
        """Stops the servers and removes their data."""
        self.stop()
        if self.data:
            shutil.rmtree(self.data, ignore_errors=True)


def launch(run_dir, tag, durable):
    """(a ready cluster, its set-up times in seconds: `up_cpu_s` and `up_s`,
    the CPU and wall time from launch until every DC is up, and `connect_s`,
    the wall time from then until every DC is ready)."""
    t0 = time.monotonic()
    cluster = Cluster(run_dir, tag, durable)
    try:
        cluster.start()
        cluster.wait_for("/healthz")
        t1 = time.monotonic()
        up_cpu_s = sum(read_proc(p.pid)[0] for p in cluster.procs)
        cluster.wait_for("/readyz")
    except BaseException:
        cluster.close()
        raise
    return cluster, {"up_cpu_s": up_cpu_s, "up_s": t1 - t0,
                     "connect_s": time.monotonic() - t1}


class Generator:
    """perfbench_gen child speaking the SYNC line protocol."""

    def __init__(self, cluster, wl, args, kind, rnd, seconds, out, spans,
                 replay_dir):
        gen = os.path.join(BUILD, "perfbench_gen")
        cmd = [gen, "run", "--config", cluster.cfg, "--out", out,
               "--spans", spans,
               "--pattern", wl["pattern"],
               "--gets-per-put", str(wl["gets_per_put"]),
               "--theta", str(wl["theta"]),
               "--keys-per-partition", str(wl["keys"]),
               "--value-size", str(wl["value"]),
               "--preload-keys", str(wl["preload"]),
               "--seed", str(args.seed),
               "--sessions-per-dc",
               str(wl["sessions"][0 if kind == "open" else 1]),
               "--rate", str(wl["rate"]),
               "--round", str(rnd), "--phases", kind,
               "--seconds", str(seconds),
               "--session-per-cycle", "1" if wl["per_cycle"] else "0",
               "--trace", str(args.trace),
               "--replay", "1" if args.trace and kind == "open" and rnd == 0
               else "0"]
        if wl["durable"]:  # the WAL replay logs under this directory
            cmd += ["--replay-dir", replay_dir]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.lines = queue.Queue()
        threading.Thread(target=self._read, daemon=True).start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line.strip())
        self.lines.put(None)

    def line(self, timeout=120.0):
        try:
            return self.lines.get(timeout=timeout)
        except queue.Empty:
            raise BenchError("generator went silent")

    def expect(self, label, timeout=120.0):
        line = self.line(timeout)
        if line != f"SYNC {label}":
            raise BenchError(f"generator said {line!r}, expected {label}")

    def send(self, word):
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()

    def wait(self, timeout=150.0):
        return self.proc.wait(timeout=timeout)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def snapshot(cluster, durable, art_dir, tag):
    texts, snaps = cluster.scrape(durable)
    for dc, text in enumerate(texts):
        with open(os.path.join(art_dir, f"{tag}-dc{dc}.prom"), "w") as f:
            f.write(text)
    procs = [read_proc(p.pid) for p in cluster.procs]
    wal = wal_state(cluster.data) if cluster.data else (0, 0)
    return {"snaps": snaps, "cpu": [c for c, _ in procs],
            "rss": [r for _, r in procs], "wal": wal, "steal": read_steal()}


class DepthSampler(threading.Thread):
    """Samples the worker inbox depth gauges mid-phase (max over samples)."""

    def __init__(self, cluster):
        super().__init__(daemon=True)
        self.cluster, self.stop_evt, self.max = cluster, threading.Event(), 0.0

    def run(self):
        while not self.stop_evt.wait(0.2):
            try:
                for port in self.cluster.mports:
                    snap = parse_prom(http_get(port, "/metrics")[1])
                    for (n, _), v in snap.items():
                        if n == "pocc_inbox_depth":
                            self.max = max(self.max, v)
            except (urllib.error.URLError, OSError):
                pass


# ------------------------------------------------------------------ spans

def self_times(spans):
    """{span id: self time} — duration minus the union of child intervals
    (clipped to the parent). `spans` maps id -> (parent, start, end)."""
    children = {}
    for sid, (parent, start, end) in spans.items():
        if parent in spans:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, (_, start, end) in spans.items():
        covered, cur_s, cur_e = 0, None, None
        for cs, ce in sorted(children.get(sid, [])):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[sid] = (end - start) - covered
    return out


def load_spans(path):
    spans, meta = {}, {}
    with open(path) as f:
        next(f)
        for line in f:
            sid, parent, name, kind, start, end, pumps = line.rstrip().split(",")
            sid = int(sid)
            spans[sid] = (int(parent), int(start), int(end))
            meta[sid] = (name, kind, int(pumps))
    return spans, meta


def span_budget(paths):
    """(median self time in us by span name and op kind, pump calls per op).
    An op's children are cut from consecutive timestamps of the op's own
    interval, so they tile it by construction."""
    by = {}
    roots, pumps = 0, 0
    selfs, meta = {}, {}
    for i, path in enumerate(paths):
        spans, m = load_spans(path)
        for sid, st in self_times(spans).items():
            selfs[(i, sid)] = st
            meta[(i, sid)] = m[sid]
    for sid, st in selfs.items():
        name, kind, p = meta[sid]
        by.setdefault((name, kind), []).append(st / 1e3)
        by.setdefault((name, "*"), []).append(st / 1e3)
        if name in ("op", "probe"):
            roots += 1
            pumps += p
    med = lambda name, kind="*": statistics.median(by[(name, kind)]) \
        if (name, kind) in by else 0.0
    return med, pumps / max(roots, 1)


# ---------------------------------------------------------------- metrics

def ratio(a, b):
    return a / b if b else 0.0


def hist_stats(before, after, op):
    """(mean, p99) in us of pocc_server_op_us{op} over a phase, all DCs."""
    buckets, s, c = {}, 0.0, 0.0
    for b, a in zip(before, after):
        for (n, lab), v in a.items():
            if label(lab, "op") != op:
                continue
            d = v - b.get((n, lab), 0.0)
            if n == "pocc_server_op_us_bucket":
                le = label(lab, "le")
                le = float("inf") if le == "+Inf" else float(le)
                buckets[le] = buckets.get(le, 0.0) + d
            elif n == "pocc_server_op_us_sum":
                s += d
            elif n == "pocc_server_op_us_count":
                c += d
    if c == 0:
        return 0.0, 0.0
    rank, prev_le, prev_cnt = 0.99 * c, 0.0, 0.0
    for le in sorted(buckets):
        cnt = buckets[le]
        if cnt >= rank:
            if le == float("inf"):
                return s / c, prev_le
            return s / c, prev_le + (le - prev_le) * (rank - prev_cnt) / max(
                cnt - prev_cnt, 1e-9)
        prev_le, prev_cnt = le, cnt
    return s / c, prev_le


def delta(before, after, name):
    return sum(total(a, name) - total(b, name)
               for b, a in zip(before["snaps"], after["snaps"]))


def busy_share(phase):
    return 1 - phase["slept_s"] / phase["wall_s"]


def med(values):
    return statistics.median(list(values))


def cpu_s(phase, dc=None):
    """poccd CPU seconds over a phase window (one DC, or all)."""
    b, a = phase["before"]["cpu"], phase["after"]["cpu"]
    dcs = range(DCS) if dc is None else [dc]
    return sum(a[d] - b[d] for d in dcs)


def midmean(values):
    """Interquartile mean: the mean of the middle half of the values. It
    rejects the rounds that other tenants of a shared host disturbed most
    (and the luckiest), and averages the per-deployment spread of the rest
    (rotx's RO-TX latency depends on the phase of the heartbeat timers)."""
    v = sorted(values)
    cut = len(v) // 4
    return statistics.fmean(v[cut:len(v) - cut])


def wire_bytes(phase):
    """Bytes all poccd and the generator sent over a window."""
    return delta(phase["before"], phase["after"],
                 "pocc_transport_bytes_out_total") + phase["net"]["bytes_out"]


def e2e_metrics(phases, setups):
    """The end-to-end figures this shared machine measures steadily: the
    network bytes a user pays per op (all poccd and the client, over the
    open-loop rounds), the peak memory of all poccd (the sum of their
    VmHWM at the end of a round's window, interquartile mean over all rounds:
    when a checkpoint's buffers overlap varies from round to round) and the
    least CPU time of start-up (see SETUP_SAMPLES).
    Latency, capacity and even CPU time per op are per-layer
    (user.*, server.cpu_us_per_op): other tenants of the host move latency
    by 2-20x and CPU time per op by up to 60% between runs."""
    opens = [p for p in phases if p["name"] == "open"]
    return {
        "wire_bytes_per_op": (sum(wire_bytes(p) for p in opens)
                              / sum(p["ops"] for p in opens), "B"),
        "server_peak_rss_mb": (midmean(sum(p["after"]["rss"]) for p in phases),
                               "MiB"),
        "setup_s": (min(s["up_cpu_s"] for s in setups), "s"),
    }


def user_metrics(wl, phases):
    """Latency, visibility and capacity as a user sees them, each the
    interquartile mean over rounds of that round's figure, and CPU time per
    workload op of the client and of all poccd over the open-loop rounds."""
    opens = [p for p in phases if p["name"] == "open"]
    closed = [p for p in phases if p["name"] == "closed"]
    read = wl["read"]
    return {
        "user.read_p50_us": (midmean(p[read]["p50"] for p in opens), "us"),
        "user.write_p50_us": (midmean(p["put"]["p50"] for p in opens), "us"),
        "user.visibility_p50_us": (
            midmean(p["visibility"]["p50"] for p in opens), "us"),
        "user.capacity_ops_s": (
            midmean(p["ops_in_window"] / p["window_s"] for p in closed),
            "ops/s"),
        "client.cpu_us_per_op": (
            sum(p["cpu_us"] for p in opens) / sum(p["ops"] for p in opens),
            "us"),
        "server.cpu_us_per_op": (
            sum(cpu_s(p) for p in opens) * 1e6 / sum(p["ops"] for p in opens),
            "us"),
    }


def window_layers(windows, wal_windows):
    """Per-layer metrics over a set of windows: counter deltas and op counts
    are summed over the windows, gauges read at the end of the last one. WAL
    counters cover `wal_windows` (every open-loop window: a checkpoint every
    4 MiB of log is rarer than one traced window)."""
    a = windows[-1]["after"]
    d = lambda name, ws=windows: sum(
        delta(w["before"], w["after"], name) for w in ws)
    ops = sum(w["ops"] for w in windows)
    puts = sum(w["puts"] for w in windows)
    m = {}
    n = {k: sum(w["net"][k] for w in windows) for k in windows[0]["net"]}
    m["client_net.frames_per_sendmsg"] = (
        ratio(n["sendmsg_frames"], n["sendmsg_calls"]), "count")
    m["client_net.bytes_out_per_op"] = (ratio(n["bytes_out"], ops), "B")
    m["client_net.bytes_in_per_op"] = (ratio(n["bytes_in"], ops), "B")
    m["net.frames_in_per_op"] = (
        ratio(d("pocc_transport_frames_in_total"), ops), "count")
    m["net.bytes_out_per_op"] = (
        ratio(d("pocc_transport_bytes_out_total"), ops), "B")
    m["net.frames_per_sendmsg"] = (ratio(
        d("pocc_transport_sendmsg_frames_total"),
        d("pocc_transport_sendmsg_calls_total")), "count")
    hits = d("pocc_transport_arena_hits_total")
    m["net.arena_hit_share"] = (
        ratio(hits, hits + d("pocc_transport_arena_misses_total")), "ratio")
    m["net.reconnects"] = (d("pocc_transport_reconnects_total"), "count")
    m["net.decode_errors"] = (d("pocc_transport_decode_errors_total"), "count")
    proto_b = d("pocc_batch_protocol_bytes_total")
    over_b = d("pocc_batch_overhead_bytes_total")
    m["batch.msgs_per_batch"] = (ratio(
        d("pocc_batch_messages_total"), d("pocc_batch_batches_total")), "count")
    m["batch.envelope_overhead_share"] = (
        ratio(over_b, proto_b + over_b), "ratio")
    m["batch.dropped"] = (d("pocc_batch_dropped_batches_total"), "count")
    m["batch.retried"] = (d("pocc_batch_retried_batches_total"), "count")
    m["host.overloaded_share"] = (ratio(
        d("pocc_host_overloaded_replies_total"),
        d("pocc_host_client_requests_total")), "ratio")
    m["host.dropped_frames"] = (d("pocc_host_dropped_frames_total"), "count")
    m["host.deduped"] = (d("pocc_host_deduped_requests_total"), "count")
    befores = [s for w in windows for s in w["before"]["snaps"]]
    afters = [s for w in windows for s in w["after"]["snaps"]]
    for kind, hop in (("get", "get"), ("put", "put"), ("rotx", "ro_tx")):
        mean, p99 = hist_stats(befores, afters, hop)
        m[f"server.op_us_mean.{kind}"] = (mean, "us")
        m[f"server.op_us_p99.{kind}"] = (p99, "us")
    m["engine.blocked_get_share"] = (ratio(
        d("pocc_engine_blocked_total"), d("pocc_engine_blocking_ops_total")),
        "ratio")
    m["engine.old_read_share"] = (ratio(
        d("pocc_engine_old_reads_total"), d("pocc_engine_reads_total")), "ratio")
    m["engine.slices_per_rotx"] = (ratio(
        d("pocc_engine_slices_total"), sum(w["rotx_ops"] for w in windows)),
        "count")
    m["store.versions_per_key"] = (ratio(
        sum(total(s, "pocc_store_versions") for s in a["snaps"]),
        sum(total(s, "pocc_store_keys") for s in a["snaps"])), "count")
    m["store.gc_removed_per_put"] = (
        ratio(d("pocc_store_gc_removed_total"), puts), "count")
    syncs = d("pocc_wal_syncs_total", wal_windows)
    log_b = d("pocc_wal_synced_bytes_total", wal_windows)
    user = sum(w["user_bytes_put"] for w in wal_windows)
    wal_puts = sum(w["puts"] for w in wal_windows)
    # Segment numbers rise by one per checkpoint; each checkpoint writes a
    # snapshot about the size of the newest one.
    ckpts = sum(w["after"]["wal"][0] - w["before"]["wal"][0]
                for w in wal_windows)
    snap_b = sum((w["after"]["wal"][0] - w["before"]["wal"][0])
                 * w["after"]["wal"][1] / (DCS * PARTITIONS)
                 for w in wal_windows)
    m["wal.checkpoints"] = (ckpts, "count")
    m["wal.puts_per_sync"] = (ratio(wal_puts * DCS, syncs), "count")
    m["wal.log_bytes_per_user_byte"] = (ratio(log_b, user), "ratio")
    m["wal.snapshot_bytes_per_user_byte"] = (ratio(snap_b, user), "ratio")
    m["wal.write_amp"] = (ratio(log_b + snap_b, user), "ratio")
    m["vm.steal_share"] = (ratio(
        sum(w["after"]["steal"][0] - w["before"]["steal"][0] for w in windows),
        sum(w["after"]["steal"][1] - w["before"]["steal"][1] for w in windows)),
        "ratio")
    for dc in range(DCS):
        m[f"proc.cpu_us_per_op.dc{dc}"] = (
            sum(cpu_s(w, dc) for w in windows) * 1e6 / ops, "us")
        m[f"proc.peak_rss_mb.dc{dc}"] = (a["rss"][dc], "MiB")
    return m


def layer_metrics(wl, phases, results, setups, run_dir):
    """The per-layer budget over the traced windows, plus the spans, the
    replays, the set-up steps after start-up and the tracing overhead."""
    opens = [p for p in phases if p["name"] == "open"]
    traced = [p for p in phases if p["name"] == "open_traced"]
    m = window_layers(traced, opens + traced)
    m.update(user_metrics(wl, phases))
    m["gen.late_p99_us"] = (med(p["late"]["p99"] for p in opens), "us")
    read = wl["read"]
    for q in ("p90", "p99"):  # median over the untraced rounds
        m[f"tail.read_{q}_us"] = (med(p[read][q] for p in opens), "us")
        m[f"tail.write_{q}_us"] = (med(p["put"][q] for p in opens), "us")
        m[f"tail.visibility_{q}_us"] = (
            med(p["visibility"][q] for p in opens), "us")
    m["gen.busy_share"] = (med(busy_share(p) for p in opens), "ratio")
    m["setup.up_wall_s"] = (med(s["up_s"] for s in setups), "s")
    m["setup.peer_connect_s"] = (midmean(s["connect_s"] for s in setups), "s")
    m["setup.preload_s"] = (
        med(s["preload_s"] for s in setups if "preload_s" in s), "s")
    span_med, pumps = span_budget(
        [os.path.join(run_dir, f) for f in sorted(os.listdir(run_dir))
         if f.endswith("-spans.csv")])
    res = next(r for r in results if "codec" in r)
    for kind in ("get", "put", "rotx"):
        m[f"client.start_us.{kind}"] = (span_med("client.start", kind), "us")
        mean = m[f"server.op_us_mean.{kind}"][0]
        m[f"net.residual_us.{kind}"] = (
            span_med("client.wait", kind) - mean if mean else 0.0, "us")
    m["client.queue_p50_us"] = (span_med("gen.queue"), "us")
    m["client.finish_us"] = (span_med("client.finish"), "us")
    m["client.wait_p50_us"] = (span_med("client.wait"), "us")
    m["client.pump_calls_per_op"] = (pumps, "count")
    m["runtime.inbox_depth_max"] = (max(r["inbox_max"] for r in results),
                                    "count")
    for t in CODEC_TYPES:
        c = res["codec"].get(t, {"encode_ns": 0, "decode_ns": 0, "bytes": 0})
        m[f"codec.encode_ns.{t}"] = (c["encode_ns"], "ns")
        m[f"codec.decode_ns.{t}"] = (c["decode_ns"], "ns")
        m[f"codec.bytes.{t}"] = (c["bytes"], "B")
    m["store.put_ns"] = (res["store"]["put_ns"], "ns")
    m["store.get_ns"] = (res["store"]["get_ns"], "ns")
    m["wal.append_ns"] = (res["wal"]["append_ns"], "ns")
    m["wal.sync_us"] = (res["wal"]["sync_us"], "us")
    m["trace.overhead_read_p50_us"] = (
        med(p[read]["p50"] for p in traced) - med(p[read]["p50"] for p in opens),
        "us")
    m["trace.overhead_client_cpu_us_per_op"] = (
        med(p["cpu_us"] / p["ops"] for p in traced)
        - med(p["cpu_us"] / p["ops"] for p in opens), "us")
    return m


def declared_metrics(section):
    """Metric names BENCHMARK.json declares (None when it is absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return [m["name"] for m in json.load(f)[section]]


# -------------------------------------------------------------------- run

def run_round(args, wl, run_dir, kind, rnd, seconds):
    """One round on a fresh deployment: set-up, warm-up, then the `kind`
    window(s), shutdown and the generator's history check. Returns
    (set-up times as launch() gives them, plus `preload_s`: generator start
    until the preload is visible; backend; generator result with the scrapes
    attached)."""
    tag = f"{kind}{rnd}"
    res_path = os.path.join(run_dir, f"{tag}-result.json")
    cluster, setup = launch(run_dir, tag, wl["durable"])
    gen = sampler = None
    try:
        t0 = time.monotonic()
        gen = Generator(cluster, wl, args, kind, rnd, seconds, res_path,
                        os.path.join(run_dir, f"{tag}-spans.csv"),
                        os.path.join(run_dir, f"{tag}-wal-replay"))
        gen.expect("setup_done")
        if wl["preload"]:
            cluster.wait_preload(wl["preload"])
        setup["preload_s"] = time.monotonic() - t0
        art = os.path.join(run_dir, f"{tag}-scrapes")
        os.makedirs(art)
        _, snaps = cluster.scrape(wl["durable"])
        backend = [lab for (n, lab) in snaps[0]
                   if n == "pocc_transport_backend_info"]
        backend = label(backend[0], "backend") if backend else "unknown"
        if args.trace and kind == "open":
            sampler = DepthSampler(cluster)
            sampler.start()
        windows = []  # (name, before, after) in the generator's order
        gen.send("go")
        while True:
            line = gen.line()
            if line == "SYNC ops_done":
                break
            m = re.fullmatch(r"SYNC (\w+)_(begin|end)", line or "")
            if not m:
                raise BenchError(f"generator said {line!r}")
            snap = snapshot(cluster, wl["durable"], art,
                            f"{m.group(1)}-{m.group(2)}")
            if m.group(2) == "begin":
                windows.append([m.group(1), snap, None])
            else:
                windows[-1][2] = snap
            gen.send("go")
        if sampler:
            sampler.stop_evt.set()
            sampler.join()
        cluster.stop()
        gen.send("go")
        rc = gen.wait()
        with open(res_path) as f:
            res = json.load(f)
    finally:
        if sampler:
            sampler.stop_evt.set()
        if gen:
            gen.kill()
        cluster.close()
    check = res["check"]
    if rc != 0 or not check["complete"] or check["violations"]:
        raise BenchError(f"{tag}: history check failed: {check}")
    if res["probe_mismatches"]:
        raise BenchError(f"{tag}: {res['probe_mismatches']} probe reads "
                         "returned a value never written")
    if res["preload"]["failed"]:
        raise BenchError(f"{tag}: preload PUTs failed")
    if len(res["phases"]) != len(windows):
        raise BenchError(f"{tag}: generator phases and scrape windows disagree")
    for ph, (_, before, after) in zip(res["phases"], windows):
        ph["before"], ph["after"] = before, after
    res["inbox_max"] = sampler.max if sampler else 0.0
    with open(os.path.join(run_dir, f"{tag}-windows.json"), "w") as f:
        json.dump([{k: w[k] for k in ("cpu", "rss", "wal", "steal")}
                   for _, b, a in windows for w in (b, a)], f)
    log(f"{tag}: up {setup['up_s']:.3f} s, ready {setup['connect_s']:.3f} s "
        f"later, preload {setup['preload_s']:.3f} s, "
        f"{check['events']} history events checked in "
        f"{check['seconds']:.1f} s")
    return setup, backend, res


def run(args):
    wl = WORKLOADS[args.workload]
    build()
    # After the build: every measured run must end well inside 180 s. Both
    # signals unwind through the finally blocks that stop the processes.
    signal.signal(signal.SIGALRM, lambda *_: (_ for _ in ()).throw(
        BenchError("run exceeded its time budget")))
    signal.signal(signal.SIGTERM, lambda *_: (_ for _ in ()).throw(
        BenchError("terminated")))
    signal.alarm(170)
    run_dir = os.path.join(OUT, "runs", f"{args.workload}-seed{args.seed}-"
                           f"trace{int(args.trace)}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    open_rounds, closed_rounds = wl["rounds"]
    open_s = args.seconds * OPEN_SHARE / open_rounds
    closed_s = args.seconds * (1 - OPEN_SHARE) / closed_rounds
    # All closed-loop rounds come last: saturating every core can get the
    # machine's CPU throttled for a while, which must not leak into the
    # open-loop rounds.
    rounds = [("open", r, open_s) for r in range(open_rounds)] + \
             [("closed", r, closed_s) for r in range(closed_rounds)]
    setups, phases, results = [], [], []
    try:
        for i in range(SETUP_SAMPLES - len(rounds)):
            cluster, setup = launch(run_dir, f"setup{i}", wl["durable"])
            cluster.close()
            setups.append(setup)
        for kind, r, secs in rounds:
            setup, backend, res = run_round(args, wl, run_dir, kind, r, secs)
            setups.append(setup)
            phases += res["phases"]
            results.append(res)
    finally:
        signal.alarm(0)

    opens = [p for p in phases if p["name"] == "open"]
    late = med(p["late"]["p99"] for p in opens)
    busy = med(busy_share(p) for p in opens)
    valid = late <= LATE_P99_LIMIT_US and busy <= BUSY_SHARE_LIMIT
    if not valid:
        log(f"INVALID: the generator fell behind its schedule (late p99 "
            f"{late:.0f} us, busy {busy:.2f}); the numbers measure the "
            "generator or the scheduler, not poccd")
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    if args.trace:
        metrics = layer_metrics(wl, phases, results, setups, run_dir)
    else:
        metrics = e2e_metrics(phases, setups)
    expected = declared_metrics("per_layer" if args.trace else "end_to_end")
    if expected is not None and set(expected) != set(metrics):
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(expected) ^ set(metrics))}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "fingerprint": fingerprint(args, backend, run_dir),
        "valid": valid, "setups": setups,
        "steal_share": ratio(
            sum(p["after"]["steal"][0] - p["before"]["steal"][0]
                for p in phases),
            sum(p["after"]["steal"][1] - p["before"]["steal"][1]
                for p in phases)),
        "checker": [r["check"] for r in results], "result": result,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    rec_path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-"
                            f"trace{int(args.trace)}.json")
    with open(rec_path, "w") as f:
        json.dump(record, f, indent=1)
    log(f"fingerprint {record['fingerprint']}; artifacts in {run_dir}")
    print(json.dumps(result))
    return 0


def compare(paths):
    recs = []
    for p in paths:
        with open(p) as f:
            recs.append(json.load(f))
    a, b = recs
    if a["fingerprint"] != b["fingerprint"]:
        log(f"refusing to compare: fingerprints differ\n  {a['fingerprint']}"
            f"\n  {b['fingerprint']}")
        return 3
    if not (a["valid"] and b["valid"]):
        log("refusing to compare: a run is marked invalid (its generator "
            "fell behind its open-loop schedule)")
        return 3
    for name, va in a["result"]["metrics"].items():
        vb = b["result"]["metrics"].get(name)
        if vb is None:
            continue
        x, y = va["value"], vb["value"]
        pct = f"{(y - x) / x * 100:+.1f}%" if x else "n/a"
        print(f"{name:40s} {x:14.4f} {y:14.4f} {pct:>8s} {va['unit']}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--compare", nargs=2, metavar="RESULT")
    args = ap.parse_args()
    if args.compare:
        return compare(args.compare)
    if not args.workload:
        ap.error("--workload is required")
    try:
        return run(args)
    except (BenchError, subprocess.CalledProcessError, OSError,
            subprocess.TimeoutExpired, KeyError, ValueError) as e:
        log(f"FAILED: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
