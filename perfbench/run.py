#!/usr/bin/env python3
"""Repository benchmark: LIGHT served through light_server, end to end.

Run from the repository root:

  python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

Builds light_server and the benchmark's own lbench (generator, load client,
traced replay) into $CARGO_TARGET_DIR (default .bench_build), generates the
workload's graph and queries from the seed, checks every served count
against a reference, and prints the metrics: one line each for a reader,
then one JSON object as the last line. --trace 0 reports the end-to-end
metrics of a served run; --trace 1 replays the workload in one process and
reports the per-layer metrics. Workloads, metrics, limits and the held-out
seed are described in perfbench/METRICS.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

WORKLOADS = ("analytic", "serve-hot", "plan-cold")

# Load shape per workload. Latency limits (slo_ms) apply to the p99 of a
# rung, measured from each request's due time.
SERVE_HOT = {
    "slo_ms": 50.0,
    "saturation_window": 16,  # closed loop, 4 per connection
    "reference_rate": 1000,   # latency_p50_ms / latency_p90_ms are read here
    "ladder": [2000 + 250 * i for i in range(17)],  # 2000 .. 6000 qps
}
# At 50/s a run of 20 s holds the 1000 requests a p99 needs.
PLAN_COLD = {"slo_ms": 1000.0, "rate": 50}
# Open-loop latencies move with CPU time the hypervisor takes from this
# machine (host steal): at 10-14% steal, plan-cold's p50 doubled. An
# open-loop drive that lost more than STEAL_LIMIT of its CPU time is run
# once more, and the one with less steal is reported; requests of both
# count in attempted/failed.
STEAL_LIMIT = 0.02
DRIVE_ATTEMPTS = {"serve-hot": 2, "plan-cold": 2}  # others: 1
# Set-ups timed per run (setup_s is their median), half before the drive
# and half after it, so that a slow spell of the host moves at most half.
SETUP_REPEATS = {"analytic": 21, "serve-hot": 31, "plan-cold": 31}
# Open-loop latency percentiles are taken per window of this many requests
# of the reference rung (one window when there are fewer); the metric is
# the median over the windows. The gated tail is p90: at ~2 ms latencies
# the p99 follows this host's millisecond hiccups more than the program
# (see METRICS.md).
WINDOW = 1000


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# --- build and generate ----------------------------------------------------

def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    out = os.path.join(build_dir, "build.log")
    with open(out, "w") as f:
        if not os.path.exists(os.path.join(build_dir, "Makefile")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=f, stderr=subprocess.STDOUT, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j",
                        str(os.cpu_count() or 1), "--target", "lbench",
                        "light_server"],
                       stdout=f, stderr=subprocess.STDOUT, check=True)
    return (os.path.join(build_dir, "lbench"),
            os.path.join(build_dir, "light", "tools", "light_server"))


def read_queries(work):
    """Query names, in the order lbench numbers them."""
    with open(os.path.join(work, "queries.tsv")) as f:
        return [line.split("\t", 1)[0] for line in f]


def read_records(path):
    fields = ("query", "phase", "due", "send", "recv", "outcome", "matches",
              "plan", "queue", "execute", "total", "hit")
    records = []
    with open(path) as f:
        for line in f:
            records.append(dict(zip(fields, map(int, line.split("\t")))))
    return records


# --- the server -----------------------------------------------------------------

def server_command(binary, work):
    return [binary, "--graph-store", os.path.join(work, "graph.lcsr2"),
            "--store-mode", "mmap", "--port", "0"]


class Server:
    """One light_server process; stopped and waited for on close()."""

    def __init__(self, command):
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            self.close()
            raise RuntimeError("light_server did not start")
        self.port = int(line.split()[-1])

    def cpu_seconds(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM")

    def close(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def host_steal():
    """(steal, total) jiffies of all CPUs from /proc/stat: time the
    hypervisor ran something else while this machine's CPUs wanted to run."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


# --- schedules ---------------------------------------------------------------

def phases_for(workload, seconds, ladder=True):
    """The drive schedule as lbench phases, plus a name for each phase."""
    if workload == "analytic":
        return [f"c1:{seconds}"], ["closed"]
    if workload == "plan-cold":
        return [f"{PLAN_COLD['rate']}:{seconds}"], ["rung"]
    cfg = SERVE_HOT
    phases = [f"c{cfg['saturation_window']}:{0.1 * seconds:.3f}",
              f"{cfg['reference_rate']}:{0.4 * seconds:.3f}"]
    names = ["saturation", "rung"]
    for rate in cfg["ladder"] if ladder else []:
        # At least 1100 requests, so every rung supports a p99.
        phases.append(f"{rate}:{max(0.06 * seconds, 1100.0 / rate):.3f}")
        names.append("rung")
    return phases, names


def phase_rate(phase):
    return float(phase.split(":")[0])


# --- end-to-end metrics -----------------------------------------------------

def ms(ns):
    return ns / 1e6


def goodput(records):
    ok = [r for r in records if r["outcome"] == 0]
    if not ok:
        return 0.0
    span = max(r["recv"] for r in ok) - min(r["due"] for r in records)
    return len(ok) / (span / 1e9)


def rung_summary(records, rate):
    lat = [ms(r["recv"] - r["due"]) for r in records if r["outcome"] == 0]
    start = min(r["due"] for r in records)
    end = max(r["due"] for r in records) + 1e9 / rate
    intervals = [(r["due"], r["recv"] if r["outcome"] != 3 else None)
                 for r in records]
    return {"rate": rate, "n": len(records),
            "failed": sum(1 for r in records if r["outcome"] != 0),
            "growing": stats.backlog_grows(intervals, start, end),
            "p50_ms": stats.percentile(lat, 50) or 0.0,
            "p99_ms": stats.percentile(lat, 99) or float("inf")}


def end_to_end(workload, records, phases, names):
    by_phase = {}
    for r in records:
        by_phase.setdefault(r["phase"], []).append(r)
    out = {}
    extra = {}
    if workload == "analytic":
        # Closed loop over the fixed list: the latencies of each query pool
        # into one pass latency (stats.pass_percentiles).
        closed = by_phase[names.index("closed")]
        by_query = {}
        for r in closed:
            if r["outcome"] == 0:
                by_query.setdefault(r["query"], []).append(
                    ms(r["recv"] - r["due"]))
        out["goodput_qps"] = goodput(closed)
        out["latency_p50_ms"], out["latency_p90_ms"] = \
            stats.pass_percentiles(by_query, (50, 90))
        out["max_qps_at_slo"] = out["goodput_qps"]
        extra["latency_samples"] = sum(len(v) for v in by_query.values())
    else:
        rungs = []
        for p, name in enumerate(names):
            if name == "rung" and p in by_phase:
                rungs.append(rung_summary(by_phase[p], phase_rate(phases[p])))
        reference = rungs[0]
        sample = [ms(r["recv"] - r["due"]) for r in by_phase[names.index("rung")]
                  if r["outcome"] == 0]
        out["latency_p50_ms"], out["latency_p90_ms"] = \
            stats.windowed_percentiles(sample, WINDOW, (50, 90))
        extra["latency_samples"] = len(sample)
        extra["latency_p99_ms"] = reference["p99_ms"]
        extra["rungs"] = rungs
        if workload == "serve-hot":
            out["goodput_qps"] = goodput(by_phase[names.index("saturation")])
            out["max_qps_at_slo"] = stats.max_rate_at_slo(
                rungs, SERVE_HOT["slo_ms"])
        else:
            out["goodput_qps"] = goodput(by_phase[names.index("rung")])
            passed = stats.rung_passes(reference, PLAN_COLD["slo_ms"])
            out["max_qps_at_slo"] = out["goodput_qps"] if passed else 0.0
    late = [ms(r["send"] - r["due"]) for r in records]
    extra["gen_late_ms_p99"] = stats.percentile(late, 99)
    return out, extra


# --- per-layer metrics --------------------------------------------------------

def per_layer(trace, traced, untraced, names):
    """Per-layer metrics from the trace JSON and the records of the two
    served replays (phase `names` as from phases_for). Served-path numbers
    come from the open-loop rung when there is one, else from all."""
    spans = {}
    for s in trace["spans"]:
        spans.setdefault(s["name"], []).append(s)
    counters = trace["counters"]

    def dur_ms(name, pred=lambda s: True):
        return [ms(s["end_ns"] - s["start_ns"]) for s in spans.get(name, [])
                if pred(s)]

    def attr_sum(name, key, pred=lambda s: True):
        return sum(s["attrs"][key] for s in spans.get(name, []) if pred(s))

    main = names.index("rung") if "rung" in names else 0
    ok = [r for r in traced if r["outcome"] == 0 and r["phase"] == main]
    us = 1e-3
    net = [(r["recv"] - r["send"] - r["total"]) * us for r in ok]
    handoff = [(r["total"] - r["plan"] - r["queue"] - r["execute"]) * us
               for r in ok]
    m = {}
    m["net.rtt_overhead_us_p50"] = stats.percentile(net, 50)
    m["net.protocol_errors"] = counters["net.protocol_errors"]
    m["session.plan_us_p50"] = stats.percentile([r["plan"] * us for r in ok], 50)
    m["session.plan_cache_hit_ratio"] = sum(r["hit"] for r in ok) / len(ok)
    queue = [r["queue"] * us for r in ok]
    m["session.queue_wait_us_p50"] = stats.percentile(queue, 50)
    m["session.queue_wait_us_p99"] = stats.percentile(queue, 99)
    m["session.handoff_us_p50"] = stats.percentile(handoff, 50)
    builds = dur_ms("plan.build")
    m["plan.build_ms_p50"] = stats.percentile(builds, 50)
    m["plan.build_ms_max"] = max(builds)
    p4 = spans["plan.p4_probe"][0]["attrs"]
    m["plan.p4_intersections_per_match"] = p4["intersections"] / max(
        1.0, p4["matches"])
    m["analysis.lint_us_p50"] = stats.percentile(dur_ms("analysis.lint"), 50) * 1e3
    m["graph.stats_ms"] = dur_ms("graph.stats")[0]
    m["graph.bitmap_build_ms"] = dur_ms("graph.bitmap_build")[0]
    m["graph.bitmap_bytes"] = spans["graph.bitmap_build"][0]["attrs"]["bytes"]
    m["storage.open_ms"] = statistics.median(
        dur_ms("storage.open", lambda s: s["attrs"]["served"] == 1))
    m["storage.bytes_mapped"] = counters["storage.bytes_mapped"]
    lookups = counters["storage.pool_lookups"]
    m["storage.pool_hit_ratio"] = (counters["storage.pool_hits"] / lookups
                                   if lookups else 1.0)
    m["storage.pool_evictions"] = counters["storage.pool_evictions"]
    m["storage.pool_bytes_read"] = counters["storage.pool_bytes_read"]

    def paged_ms(paged, workers):
        return sum(dur_ms("storage.paged", lambda s: s["attrs"]["paged"] == paged
                          and s["attrs"]["workers"] == workers))
    whole = counters["pool_threads"]
    m["storage.paged_slowdown"] = paged_ms(1, whole) / paged_ms(0, whole)
    m["storage.paged_speedup_4t"] = paged_ms(1, 1) / paged_ms(1, whole)
    m["parallel.execute_ms_p50"] = stats.percentile(
        [ms(r["execute"]) for r in ok], 50)

    def served(s):
        return s["attrs"]["served_config"] == 1
    submits = [s for s in spans["parallel.submit"] if served(s)]
    m["parallel.busy_share"] = attr_sum("parallel.submit", "busy_ns", served) / \
        sum(s["attrs"]["execute_ns"] * s["attrs"]["workers"] for s in submits)
    m["parallel.park_ms_per_query"] = ms(
        attr_sum("parallel.submit", "park_ns", served)) / len(submits)
    m["parallel.steals_per_query"] = attr_sum(
        "parallel.submit", "steals", served) / len(submits)
    m["parallel.ranges_per_query"] = attr_sum(
        "parallel.submit", "ranges", served) / len(submits)
    pool = counters["pool_threads"]

    def whole_pool(s):
        return s["attrs"]["workers"] == pool
    serial = dur_ms("engine.serial")
    m["parallel.speedup_4t"] = sum(serial) / ms(
        attr_sum("parallel.submit", "execute_ns", whole_pool))
    m["engine.serial_ms"] = sum(serial)
    m["engine.partial_results"] = attr_sum("engine.serial", "partial_results")
    m["engine.vs_floor"] = statistics.median(dur_ms("engine.triangle")) / \
        statistics.median(dur_ms("engine.floor"))
    m["engine.candidate_bytes"] = max(
        s["attrs"]["candidate_bytes"] for s in spans["engine.serial"])
    calls = attr_sum("engine.serial", "intersections")
    m["intersect.calls"] = calls
    m["intersect.galloping_share"] = attr_sum(
        "engine.serial", "galloping") / calls if calls else 0.0
    m["intersect.bitmap_share"] = attr_sum(
        "engine.serial", "bitmap") / calls if calls else 0.0
    replay = spans["intersect.replay"][0]
    m["intersect.ns_per_call"] = (replay["end_ns"] - replay["start_ns"]) / \
        replay["attrs"]["calls"]
    m["bench.gen_late_ms_p99"] = stats.percentile(
        [ms(r["send"] - r["due"]) for r in traced], 99)
    first = names.index("saturation") if "saturation" in names else 0
    m["bench.trace_goodput_ratio"] = \
        goodput([r for r in traced if r["phase"] == first]) / \
        goodput([r for r in untraced if r["phase"] == first])
    # Served-path layer sum: means add up, so the residual is what no layer
    # accounts for (the client's own lateness and bookkeeping).
    latency = statistics.fmean((r["recv"] - r["due"]) * us for r in ok)
    layers = {
        "net": statistics.fmean(net),
        "plan": statistics.fmean(r["plan"] * us for r in ok),
        "queue": statistics.fmean(queue),
        "execute": statistics.fmean(r["execute"] * us for r in ok),
        "handoff": statistics.fmean(handoff),
    }
    m["sum.latency_us_mean"] = latency
    m["sum.layers_us_mean"] = sum(layers.values())
    m["sum.residual_us_mean"] = latency - sum(layers.values())
    return m, layers, spans


# --- main ------------------------------------------------------------------------

def self_check():
    import test_stats
    suite = unittest.defaultTestLoader.loadTestsFromModule(test_stats)
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    return result.wasSuccessful()


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def traced_run(args, lbench, work):
    """--trace 1: the in-process replay; returns (metrics, attempted, failed)."""
    queries = read_queries(work)
    out = os.path.join(work, "trace.json")
    # Half-length replays without serve-hot's ladder: the layer breakdown is
    # read below saturation.
    phases, names = phases_for(args.workload, args.seconds / 2, ladder=False)
    subprocess.run([lbench, "trace", "--dir", work, "--out", out, "--seed",
                    str(args.seed), "--phases", ",".join(phases)], check=True)
    with open(out) as f:
        trace = json.load(f)
    traced = read_records(os.path.join(work, "traced.tsv"))
    untraced = read_records(os.path.join(work, "untraced.tsv"))
    metrics, layers, spans = per_layer(trace, traced, untraced, names)
    for s in spans["engine.serial"]:
        log(f"engine.serial_ms[{queries[int(s['attrs']['query'])]}]"
            f" = {ms(s['end_ns'] - s['start_ns']):.3f}")
    total = sum(layers.values())
    for name, value in layers.items():
        log(f"sum.{name}_us_mean = {value:.1f} "
            f"({100 * value / total:.1f}% of layers)")
    attempted = len(traced) + len(untraced) + int(trace["counters"]["probes"])
    failed = sum(1 for r in traced + untraced if r["outcome"] != 0) + \
        int(trace["counters"]["probe_failures"])
    return metrics, attempted, failed


def served_run(args, lbench, server_bin, work):
    """--trace 0: set-ups, then the drive against one light_server; returns
    (metrics, attempted, failed)."""
    if args.workload == "plan-cold" and PLAN_COLD["rate"] * args.seconds < 1000:
        raise ValueError("plan-cold needs --seconds of at least "
                         f"{1000 / PLAN_COLD['rate']:g}: its rung must hold "
                         "the 1000 requests a p99 needs")
    command = server_command(server_bin, work)
    setups = []

    def time_setups(repeats):
        path = os.path.join(work, "setup.tsv")
        subprocess.run([lbench, "setup", "--dir", work, "--repeats",
                        str(repeats), "--out", path, "--"] + command,
                       check=True)
        with open(path) as f:
            setups.extend((float(t), int(ok)) for t, ok in
                          (line.split("\t") for line in f))

    repeats = SETUP_REPEATS[args.workload]
    time_setups((repeats + 1) // 2)
    phases, names = phases_for(args.workload, args.seconds)
    if args.workload != "plan-cold":  # fill the plan cache first
        phases, names = ["warm"] + phases, ["warmup"] + names
    attempted = failed = 0
    server = Server(command)
    try:
        best = None
        for attempt in range(DRIVE_ATTEMPTS.get(args.workload, 1)):
            path = os.path.join(work, f"records{attempt}.tsv")
            steal0, cpu0 = host_steal(), server.cpu_seconds()
            subprocess.run([lbench, "drive", "--dir", work, "--port",
                            str(server.port), "--phases", ",".join(phases),
                            "--seed", str(args.seed), "--out", path],
                           check=True)
            steal1, cpu1 = host_steal(), server.cpu_seconds()
            steal = (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])
            log(f"drive {attempt}: host steal {100 * steal:.2f}%")
            records = read_records(path)
            attempted += len(records)
            failed += sum(1 for r in records if r["outcome"] != 0)
            if best is None or steal < best[0]:
                best = (steal, records, cpu1 - cpu0)
            if steal <= STEAL_LIMIT:
                break
        peak = server.peak_rss_mb()
    finally:
        server.close()
    time_setups(repeats // 2)
    attempted += len(setups)
    failed += sum(1 for _, ok in setups if ok != 1)
    setups = [seconds for seconds, _ in setups]
    _, records, cpu = best
    metrics, extra = end_to_end(args.workload, records, phases, names)
    answered = sum(1 for r in records if r["outcome"] != 3)
    metrics["setup_s"] = statistics.median(setups)
    metrics["cpu_ms_per_query"] = cpu * 1e3 / max(1, answered)
    metrics["peak_rss_mb"] = peak
    metrics["success_frac"] = (attempted - failed) / attempted
    log(f"fail_frac = {failed / attempted:.6f} ({failed} of {attempted})")
    log(f"bench.gen_late_ms_p99 = {extra['gen_late_ms_p99']:.3f} ms")
    log(f"latency samples = {extra['latency_samples']}")
    if "latency_p99_ms" in extra:
        log(f"latency_p99_ms = {extra['latency_p99_ms']:.3f} ms (not gated: "
            f"see METRICS.md)")
    log(f"setup_s samples = {', '.join(f'{s:.4f}' for s in setups)}")
    for rung in extra.get("rungs", []):
        log(f"rung {rung['rate']:.0f}/s: n={rung['n']} "
            f"p50={rung['p50_ms']:.2f} ms p99={rung['p99_ms']:.2f} ms "
            f"failed={rung['failed']} backlog_growing={rung['growing']}")
    return metrics, attempted, failed


def run(args):
    e2e_units, layer_units = load_spec()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    lbench, server_bin = build(build_dir)
    work = os.path.join(build_dir, "work", f"{args.workload}-{args.seed}")
    os.makedirs(work, exist_ok=True)
    subprocess.run([lbench, "gen", "--workload", args.workload, "--seed",
                    str(args.seed), "--dir", work], check=True)
    if args.trace:
        units = layer_units
        metrics, attempted, failed = traced_run(args, lbench, work)
    else:
        units = e2e_units
        metrics, attempted, failed = served_run(args, lbench, server_bin,
                                                work)

    missing = [name for name in units if metrics.get(name) is None]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {}
    for name in units:
        value = float(metrics[name])
        result[name] = {"value": value, "unit": units[name]}
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not self_check():
        log("perfbench: statistics self-check failed")
        return 1
    try:
        return run(args)
    except (OSError, RuntimeError, subprocess.CalledProcessError, KeyError,
            ValueError, ZeroDivisionError, StopIteration) as e:
        log(f"perfbench: {type(e).__name__}: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
