#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of softsched.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a softsched source tree. It builds the CLI with
dune (into .bench_build/), generates its inputs from --seed, measures
one workload for --seconds, checks every output independently of the
program, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (operation latency
median and 90th percentile, set-up time); with --trace 1 they are the
per-layer ones (daemon request phases, transport, cache, QoR-flow
phases, scheduler kernel counters). Both modes drive the same traffic;
the per-layer figures come from the daemon's metrics snapshots and the
flow's run-reports, read outside the timed requests.

Every workload repeats a fixed set of seeded inputs in rounds, each
round in a fresh shuffled order, for the whole window. An input's
latency is the fastest of its repeats, and p50/p90 are taken over the
inputs. The machine's speed wanders by up to 1.5x for seconds at a
time; the fastest of repeats spread over the window is what the program
costs on a quiet machine, and it moves when the program does.

Workloads:
  warm_path    one client repeats a working set answered from the
               daemon's result cache
  large_graph  one client sends distinct 300-operation graphs, each
               round to a fresh daemon, so every request is scheduled
  hls_flow     one `softsched report` process per generated graph: the
               whole flow from lowering to VLIW emission
"""

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave no __pycache__ beside the sources

import client  # noqa: E402
import graphs  # noqa: E402

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "bin", "softsched.exe")

# The paper's Figure 3 suite and its first resource set, which every
# request names (the suite uses no memory unit; the set reserves one).
SUITE = ["HAL", "AR", "EF", "FIR", "DCT", "IIR", "MM3", "CONV"]
RESOURCES = "2alu,2mul,1mem"
RES_COUNTS = {"alu": 2, "mul": 2, "mem": 1}
# A daemon is warmed with the whole Figure 3 table (every design x
# resource set x meta schedule) asked by name before it is timed.
FIG3_RESOURCES = [RESOURCES, "4alu,4mul,1mem", "2alu,1mul,1mem"]
FIG3_METAS = ["dfs", "topo", "paths", "list"]
FIG3_REQUESTS = [
    (json.dumps({"design": d, "resources": r, "meta": m}) + "\n").encode()
    for d in SUITE for r in FIG3_RESOURCES for m in FIG3_METAS
]
# Daemon set-up is timed on this many throwaway daemons per run, half
# before the window and half after, and the median reported: a boot to
# the first answer takes a few milliseconds.
SETUP_REPEATS = 41

# Traffic. The repository records no request stream beyond the suite
# asked by name, so the graphs copy the suite's operation mix and block
# shapes (graphs.MIX, graphs.SHAPES) and the sizes below are chosen, as
# each comment says, not observed. Each workload's inputs are sized so
# that a 30-second window repeats every one at least ten times.
#
# warm_path: the suite by name beside inline kernels of 60, 63, ...,
# 399 operations, large enough that fingerprinting, not thread wake-ups,
# dominates a hit. With the 96 warm-up entries they fill 210 of the
# daemon's default 256 cache entries, so every request is a hit.
WARM_SIZES = range(60, 400, 3)
# large_graph: a chain of about 11 suite blocks, about 65 ms to
# schedule; scheduling grows about quadratically in size (10^4
# operations take minutes).
LARGE_OPS = 300
LARGE_GRAPHS = 32
# hls_flow: about two suite blocks, about 60 ms a process. Technology
# mapping grows fastest with size: 100 operations take four times as
# long, which would leave too few repeats in a window.
FLOW_OPS = 60
FLOW_GRAPHS = 40

FLOW_PHASES = [
    "lower", "dfg", "soft_schedule", "refine_pressure", "refine_spill",
    "refine_wire", "refine_eco", "binding", "fsm", "netlist", "techmap", "vliw",
]
KERNEL_COUNTERS = ["positions_scanned", "closure_words_ored", "cross_edges_touched"]
SERVICE_PHASES = ["parse", "cache_lookup", "queue_wait", "schedule", "emit", "total"]

END_TO_END = [("p50_ms", "ms"), ("p90_ms", "ms"), ("setup_s", "s")]
PER_LAYER = (
    [("svc_%s_ms" % p, "ms") for p in SERVICE_PHASES]
    + [("transport_ms", "ms"), ("cache_hits_per_req", "1/req"),
       ("cache_misses_per_req", "1/req"), ("daemon_peak_rss_mb", "MiB")]
    + [("flow_%s_ms" % p, "ms") for p in FLOW_PHASES]
    + [("flow_process_ms", "ms"), ("flow_cpu_ms", "ms"),
       ("flow_alloc_mwords", "Mwords"), ("flow_peak_rss_mb", "MiB")]
    + [("kernel_%s" % c, "count") for c in KERNEL_COUNTERS]
)


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Build the CLI from source in the current tree; return its path."""
    if not (os.path.isfile("dune-project") and os.path.isdir("bin")):
        fail("run from the root of a softsched source tree (no dune-project/bin here)")
    dune = shutil.which("dune")
    if not dune:
        fail("dune is not on PATH")
    # The shared dune cache lives outside the tree; keep every write inside.
    p = subprocess.run(
        [dune, "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, "./bin/softsched.exe"],
        env=dict(os.environ, DUNE_CACHE="disabled"),
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    if p.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed:\n" + (p.stdout + p.stderr)[-4000:])
    return os.path.abspath(EXE)


def quantile(xs, q):
    """Linear-interpolated quantile of a non-empty list."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    i = int(pos)
    j = min(i + 1, len(xs) - 1)
    return xs[i] + (xs[j] - xs[i]) * (pos - i)


class Tally:
    """Every timed operation of a run: the times of each input's correct
    answers, and the errors of the others."""

    def __init__(self):
        self.times = {}
        self.errors = []
        self.attempted = 0

    def add(self, key, seconds, error):
        self.attempted += 1
        if error is None:
            self.times.setdefault(key, []).append(seconds)
        else:
            self.errors.append(error)

    def result(self, setup_s, layers):
        wrong = [e for e in self.errors if e[0] == "wrong"]
        for e in self.errors[:5]:
            print("perfbench: %s" % (e,), file=sys.stderr)
        end_to_end = {"setup_s": setup_s}
        if self.times:
            best = [min(ts) * 1e3 for ts in self.times.values()]
            end_to_end["p50_ms"] = quantile(best, 0.5)
            end_to_end["p90_ms"] = quantile(best, 0.9)
        return {
            "correct": not wrong and bool(self.times),
            "attempted": self.attempted,
            "failed": len(self.errors) - len(wrong),
            "end_to_end": end_to_end,
            "layers": layers,
        }


def rounds(n, seconds, rng, one_round):
    """Call `one_round(order)` with a fresh shuffled order of the `n`
    input indices until `seconds` have passed."""
    order = list(range(n))
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        rng.shuffle(order)
        one_round(order)


# --- checks -----------------------------------------------------------
#
# A check returns None for a correct reply, ("failed", why) when the
# program refused or errored, ("wrong", why) when it answered wrongly.

def schedule_check(graph):
    """Check a daemon reply for `graph` against the independent checker."""

    def check(line):
        r = json.loads(line)
        if r.get("status") != "ok":
            return ("failed", "error reply: %s" % r.get("error"))
        if (r.get("vertices"), r.get("edges")) != (len(graph.names), len(graph.edges)):
            return ("wrong", "graph size %s/%s" % (r.get("vertices"), r.get("edges")))
        ok, msg, length = graphs.check_schedule(graph, r.get("schedule", []), RES_COUNTS)
        if not ok:
            return ("wrong", msg)
        cp = graph.critical_path()
        if r.get("diameter") != length or length < cp:
            return ("wrong", "diameter %s, schedule %d, critical path %d"
                    % (r.get("diameter"), length, cp))
        return None

    return check


TRACE_FIELD = re.compile(rb'"trace":"[^"]*","status":"ok","cached":(true|false)')


def same_reply_check(first):
    """A warm reply must equal the first (cold) reply, cached flag aside."""
    m = TRACE_FIELD.search(first)
    if not m:
        return lambda line: ("failed", "cold reply: %r" % first[:200])
    head, tail = first[:m.start()], first[m.end():]

    def check(line):
        m = TRACE_FIELD.search(line)
        if not m:
            return ("failed", "error reply: %r" % line[:200])
        if m.group(1) != b"true":
            return ("wrong", "warm request missed the cache")
        if line[:m.start()] != head or line[m.end():] != tail:
            return ("wrong", "warm reply differs from the cold one")
        return None

    return check


def suite_ok(line):
    r = json.loads(line)
    if r.get("status") != "ok" or not r.get("schedule"):
        raise RuntimeError("suite warm-up failed: %s" % line[:300])


def request_line(graph):
    return (json.dumps({"dfg": graph.text, "resources": RESOURCES}) + "\n").encode()


# --- daemon workloads -------------------------------------------------

def boot(exe, work):
    """Start a one-worker daemon; return it and the seconds from process
    start to its first answer (one suite design by name)."""
    t0 = time.perf_counter()
    d = client.Daemon(exe, 1, work)
    try:
        suite_ok(d.pipeline(FIG3_REQUESTS[:1])[0])
    except BaseException:
        d.stop()
        raise
    return d, time.perf_counter() - t0


def boot_times(exe, work, n):
    """Boot and stop `n` daemons; return their set-up times."""
    times = []
    for _ in range(n):
        d, dt = boot(exe, work)
        times.append(dt)
        d.stop()
    return times


def warm_daemon(exe, work):
    """A daemon warmed with the Figure 3 table."""
    d, _ = boot(exe, work)
    try:
        for reply in d.pipeline(FIG3_REQUESTS):
            suite_ok(reply)
    except BaseException:
        d.stop()
        raise
    return d


def daemon_layers(before, after, requests, rtt_s):
    """Per-layer figures of one daemon's timed requests: phase means,
    cache counts per request, and the client's round trip beyond the
    daemon's own time."""
    layers = {"svc_%s_ms" % p: v for p, v in client.window_phases(before, after).items()}
    cache = client.window_cache(before, after)
    for k in ("hits", "misses"):
        layers["cache_%s_per_req" % k] = cache[k] / max(1, requests)
    if requests:
        layers["transport_ms"] = rtt_s / requests * 1e3 - layers.get("svc_total_ms", 0.0)
    return layers


def daemon_workload(exe, work, seconds, rng, n, one_round):
    """Drive the window with `one_round(order, tally)` per round; time
    set-up on throwaway daemons, half before the window and half after.
    Return the tally and the median set-up time."""
    setup = boot_times(exe, work, SETUP_REPEATS // 2)
    tally = Tally()
    rounds(n, seconds, rng, lambda order: one_round(order, tally))
    setup += boot_times(exe, work, SETUP_REPEATS - len(setup))
    return tally, statistics.median(setup)


def ask_all(d, order, requests, checks, tally):
    """Send `requests` in `order`, one at a time; return the round trips' sum."""
    rtt = 0.0
    for i in order:
        reply, dt = d.ask(requests[i])
        tally.add(i, dt, checks[i](reply))
        rtt += dt
    return rtt


def run_warm_path(exe, work, rng, seconds):
    """One daemon for the whole window; every input is cached before it."""
    lines = [(json.dumps({"design": name, "resources": RESOURCES}) + "\n").encode()
             for name in SUITE]
    lines += [request_line(graphs.kernel(rng, n)) for n in WARM_SIZES]
    d = warm_daemon(exe, work)
    try:
        checks = [same_reply_check(reply) for reply in d.pipeline(lines)]
        before = d.stats()
        rtt = []
        tally, setup = daemon_workload(
            exe, work, seconds, rng, len(lines),
            lambda order, tally: rtt.append(ask_all(d, order, lines, checks, tally)))
        after = d.stats()
    finally:
        d.stop()
    layers = daemon_layers(before, after, tally.attempted, sum(rtt))
    layers["daemon_peak_rss_mb"] = d.peak_rss_mb
    return tally.result(setup, layers)


def run_large_graph(exe, work, rng, seconds):
    """A fresh daemon each round, so every request misses the cache."""
    gs = [graphs.kernel(rng, LARGE_OPS) for _ in range(LARGE_GRAPHS)]
    lines = [request_line(g) for g in gs]
    checks = [schedule_check(g) for g in gs]
    per_round, rss = [], []

    def one_round(order, tally):
        d = warm_daemon(exe, work)
        try:
            before = d.stats()
            rtt = ask_all(d, order, lines, checks, tally)
            after = d.stats()
        finally:
            d.stop()
        per_round.append(daemon_layers(before, after, len(order), rtt))
        rss.append(d.peak_rss_mb)

    tally, setup = daemon_workload(exe, work, seconds, rng, len(lines), one_round)
    layers = {k: statistics.fmean(r[k] for r in per_round) for k in per_round[0]}
    layers["daemon_peak_rss_mb"] = max(rss)
    return tally.result(setup, layers)


# --- the QoR flow -----------------------------------------------------

# `report` stamps its output with `git describe`; stop git's search for
# a repository below the root of this tree, so every report reads
# "unknown" and costs the same whether or not the tree is a checkout.
REPORT_ENV = dict(os.environ, GIT_CEILING_DIRECTORIES=os.getcwd())


def run_report(exe, work, design, out):
    """One `softsched report` process; return (seconds, exit code, rusage)."""
    t0 = time.perf_counter()
    p = subprocess.Popen([exe, "report", design, "--json", out], cwd=work,
                         env=REPORT_ENV, stdin=subprocess.DEVNULL,
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    usage = client.reap(p, 60.0)
    return time.perf_counter() - t0, p.returncode, usage


def report_check(graph, code, path):
    """Check one `report` run on `graph`; return (error, phases by name)."""
    if code != 0:
        return ("failed", "report exited %d" % code), None
    with open(path) as f:
        phases = {ph["phase"]: ph for ph in json.load(f)["phases"]}
    metric = {(p, m["name"]): m["value"] for p, ph in phases.items() for m in ph["metrics"]}
    cp = graph.critical_path()
    if (metric.get(("lower", "vertices")), metric.get(("lower", "edges"))) != (
            len(graph.names), len(graph.edges)):
        return ("wrong", "lowered graph size differs"), None
    if metric.get(("dfg", "critical_path")) != cp:
        return ("wrong", "critical path %s, expected %d"
                % (metric.get(("dfg", "critical_path")), cp)), None
    if not metric.get(("soft_schedule", "csteps"), -1) >= cp:
        return ("wrong", "schedule shorter than the critical path"), None
    if metric.get(("vliw", "program_valid")) != 1:
        return ("wrong", "VLIW program invalid"), None
    return None, phases


def suite_report_times(exe, work, out, times):
    """Run one `report` process per suite design, in turn, and append
    each one's seconds to `times[design]`."""
    for name in SUITE:
        dt, code, _ = run_report(exe, work, name, out)
        if code != 0:
            raise RuntimeError("report %s exited %d" % (name, code))
        times.setdefault(name, []).append(dt)


def run_hls_flow(exe, work, rng, seconds):
    """Set-up is one report per suite design, run once per round; as
    with the latencies, each design counts with its fastest run."""
    out = os.path.join(work, "report.json")
    gs = [graphs.kernel(rng, FLOW_OPS) for _ in range(FLOW_GRAPHS)]
    paths = [os.path.join(work, "design%d.dfg" % i) for i in range(len(gs))]
    for g, path in zip(gs, paths):
        with open(path, "w") as f:
            f.write(g.text)
    tally, setup, runs = Tally(), {}, {}

    def one_round(order):
        suite_report_times(exe, work, out, setup)
        for i in order:
            dt, code, usage = run_report(exe, work, paths[i], out)
            error, phases = report_check(gs[i], code, out)
            tally.add(i, dt, error)
            if error is None:
                runs.setdefault(i, []).append((dt, usage, phases))

    rounds(len(gs), seconds, rng, one_round)
    layers = {}
    if runs:
        # Times from each graph's fastest run, as the latencies are;
        # work counts from its first, which a seed fixes.
        best = [min(rs, key=lambda r: r[0]) for rs in runs.values()]
        first = [rs[0][2] for rs in runs.values()]
        for p in FLOW_PHASES:
            layers["flow_%s_ms" % p] = statistics.fmean(
                ph.get(p, {}).get("wall_ns", 0) for _, _, ph in best) / 1e6
        phase_ms = sum(layers["flow_%s_ms" % p] for p in FLOW_PHASES)
        layers["flow_process_ms"] = statistics.fmean(dt for dt, _, _ in best) * 1e3 - phase_ms
        layers["flow_cpu_ms"] = statistics.fmean(u.ru_utime + u.ru_stime for _, u, _ in best) * 1e3
        layers["flow_peak_rss_mb"] = max(u.ru_maxrss for rs in runs.values() for _, u, _ in rs) / 1024.0
        layers["flow_alloc_mwords"] = statistics.fmean(
            sum(x.get("alloc_words", 0) for x in ph.values()) for ph in first) / 1e6
        for c in KERNEL_COUNTERS:
            layers["kernel_%s" % c] = statistics.fmean(
                sum(x["counters"].get(c, 0) for x in ph.values()) for ph in first)
    return tally.result(sum(min(ts) for ts in setup.values()), layers)


WORKLOADS = {
    "warm_path": run_warm_path,
    "large_graph": run_large_graph,
    "hls_flow": run_hls_flow,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    exe = build()
    work = os.path.abspath(os.path.join(BUILD_DIR, "perfbench", "%s-%d" % (args.workload, os.getpid())))
    os.makedirs(work)
    try:
        res = WORKLOADS[args.workload](exe, work, random.Random(args.seed), args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wanted = PER_LAYER if args.trace else END_TO_END
    source = res["layers"] if args.trace else res["end_to_end"]
    metrics = {name: {"value": float(source.get(name) or 0.0), "unit": unit}
               for name, unit in wanted}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
