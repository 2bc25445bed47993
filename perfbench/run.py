#!/usr/bin/env python3
"""End-to-end benchmark of the UpDown simulator (see perfbench/README.md).

One workload, in the form BENCHMARK.json's command is run:
    python3 perfbench/run.py --workload stream-serve --seed 1 --seconds 55 --trace 0
Every workload in turn:
    python3 perfbench/run.py --seed 1
Other modes:
    --selftest               tiny sizes: oracles, 1-vs-4-shard fingerprint, names
    --compare DIR_A DIR_B    verdict per workload x end-to-end metric
    --write-manifest         regenerate BENCHMARK.json from the tables below

The run builds udbench (perfbench/udbench.cpp) against src/ in Release
into .bench_build/, runs it once, and prints a human-readable report
followed, on the last line, by one JSON object with the keys correct,
attempted, failed and metrics. Untraced runs report the end-to-end metrics,
traced runs (--trace 1) the per-layer ones. Every result set is also saved
with its provenance under .bench_build/results/.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
RESULTS = BUILD.parent / "results"
DEADLINE_S = 170  # a run must end within 180 s

WORKLOADS = [
    ("pagerank-serial",
     "KVMSR shuffle, combining cache and DRAM on skewed RMAT at netbound bandwidth, "
     "1 shard: per-event host cost with no barrier; bypasses sharding, serve and stream"),
    ("bfs-sharded",
     "level-synchronous BFS on 2,048 lanes at 4 shards: ~80% of events cross shards, so "
     "window protocol, mailbox merge and barrier dominate; stream-serve (1 shard) bypasses it"),
    ("serve-mixed",
     "1,000-query open-loop PR/BFS/path/triangle trace on a 4-slot partitioned Scheduler: "
     "admission, queueing, per-query setup and state growth; p99 limit 50k ticks"),
    ("stream-serve",
     "delta batches with incremental PR/BFS refreshes beside BFS/path reads on the live "
     "graph: mutation gating, TFORM ingest, compaction; shows updates slowed by reads"),
]

# The workloads BENCHMARK.json gates. pagerank-serial and serve-mixed run and
# check the same way, but their host time spread too widely across runs on
# the reference host to be bounded (README.md, "Sizing and host noise").
GATED = ("bfs-sharded", "stream-serve")

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("sim_wall_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("sim_ticks", "ticks", "lower", 0.15),
]

# End-to-end metrics of single workloads. They cannot be bounded for every
# workload (BENCHMARK.json's end-to-end metrics must be reported, nonzero, by
# every workload), so they ride in the per-layer list; all are simulated and
# deterministic per seed. fail_frac is reported as failed / attempted.
WORKLOAD_E2E = [
    ("query_p50_ticks", "ticks", "lower"),
    ("query_p99_ticks", "ticks", "lower"),
    ("sustained_qpmt", "queries/Mtick", "higher"),
    ("update_lag_ticks", "ticks", "lower"),
]

# Per-layer metrics (layers are src/ modules), name -> unit, better.
PER_LAYER = WORKLOAD_E2E + [
    ("graph.gen_s", "s", "lower"),
    ("graph.split_s", "s", "lower"),
    ("graph.upload_s", "s", "lower"),
    ("graph.vertices", "count", "higher"),
    ("graph.edges", "count", "higher"),
    ("sim.build_s", "s", "lower"),
    ("sim.msg_pool_capacity", "count", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.messages", "count", "lower"),
    ("sim.cross_node_messages", "count", "lower"),
    ("sim.dram_accesses", "count", "lower"),
    ("sim.remote_dram_accesses", "count", "lower"),
    ("sim.threads_created", "count", "lower"),
    ("sim.max_queue_depth", "count", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.cpu_s", "s", "lower"),
    ("sim.first_rep_wall_s", "s", "lower"),
    ("sim.windows", "count", "lower"),
    ("sim.events_per_window", "count", "higher"),
    ("sim.mailbox_events", "count", "lower"),
    ("sim.mailbox_frac", "ratio", "lower"),
    ("sim.far_events", "count", "lower"),
    ("sim.bucket_sorts", "count", "lower"),
    ("sim.charged_cycles", "cycles", "lower"),
    ("sim.lane_utilization", "ratio", "higher"),
    ("sim.lane_imbalance", "ratio", "lower"),
    ("mem.descriptors", "count", "lower"),
    ("mem.node_bytes_max", "bytes", "lower"),
    ("kvmsr.jobs", "count", "lower"),
    ("kvmsr.tuples_emitted", "count", "lower"),
    ("kvmsr.tuples_combined", "count", "higher"),
    ("kvmsr.combine_ratio", "ratio", "higher"),
    ("kvmsr.shuffle_messages", "count", "lower"),
    ("kvmsr.shuffle_cross_node", "count", "lower"),
    ("kvmsr.shuffle_bytes", "bytes", "lower"),
    ("kvmsr.coalescing_factor", "ratio", "higher"),
    ("kvmsr.map_ticks", "ticks", "lower"),
    ("kvmsr.tail_ticks", "ticks", "lower"),
    ("kvmsr.poll_rounds", "count", "lower"),
    ("apps.install_s", "s", "lower"),
    ("apps.updates", "count", "higher"),
    ("apps.gups", "GUPS", "higher"),
    ("apps.rounds", "count", "lower"),
    ("serve.queue_wait_p50_ticks", "ticks", "lower"),
    ("serve.queue_wait_p99_ticks", "ticks", "lower"),
    ("serve.queue_wait_growth", "ticks", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.completed", "count", "higher"),
    ("serve.exec_p50_ticks.pagerank", "ticks", "lower"),
    ("serve.exec_p50_ticks.bfs", "ticks", "lower"),
    ("serve.exec_p50_ticks.pathcount", "ticks", "lower"),
    ("serve.exec_p50_ticks.triangles", "ticks", "lower"),
    ("serve.p99_ticks.r200", "ticks", "lower"),
    ("serve.p99_ticks.r400", "ticks", "lower"),
    ("serve.p99_ticks.r800", "ticks", "lower"),
    ("stream.warm_ticks", "ticks", "lower"),
    ("stream.visible_lag_ticks", "ticks", "lower"),
    ("stream.inc_pagerank_exec_ticks", "ticks", "lower"),
    ("stream.inc_bfs_exec_ticks", "ticks", "lower"),
    ("stream.delta_records", "count", "higher"),
    ("stream.epochs", "count", "higher"),
    ("stream.gate_wait_ticks", "ticks", "lower"),
    ("baseline.oracle_s", "s", "lower"),
    ("trace.self_s.bench", "s", "lower"),
    ("trace.self_s.graph", "s", "lower"),
    ("trace.self_s.sim", "s", "lower"),
    ("trace.self_s.apps", "s", "lower"),
    ("trace.self_s.serve", "s", "lower"),
    ("trace.self_s.stream", "s", "lower"),
    ("trace.self_s.baseline", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]

HOST_NOTE = ("host = wall seconds on this machine; simulated = 2 GHz ticks of the "
             "modelled UpDown machine. Model unvalidated: the repository holds no "
             "reference results for these inputs, so no accuracy figure is given.")


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 55,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS if n in GATED],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---- build and run ---------------------------------------------------------------

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build udbench; exit 1 without a result on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    logf = BUILD / "build.log"
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                  "--target", "udbench"])
    with open(logf, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = logf.read_text().splitlines()[-20:]
                log("perfbench: build failed:\n" + "\n".join(tail))
                sys.exit(1)
    return BUILD / "udbench"


def run_udbench(exe, workload, seed, seconds, trace, extra=(), tag=""):
    RESULTS.mkdir(parents=True, exist_ok=True)
    raw = RESULTS / f"raw-{workload}-s{seed}-t{int(trace)}{tag}.json"
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(raw)] + list(extra)
    if trace:
        cmd.append("--trace")
    raw.unlink(missing_ok=True)
    try:
        rc = subprocess.run(cmd, timeout=DEADLINE_S).returncode
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {DEADLINE_S} s")
        sys.exit(1)
    if not raw.exists():
        log(f"perfbench: {workload} exited {rc} without a result")
        sys.exit(1)
    return json.loads(raw.read_text()), rc


# ---- provenance ----------------------------------------------------------------------

def cpu_times():
    """(steal, total) jiffies from /proc/stat, or None off Linux."""
    try:
        fields = open("/proc/stat").readline().split()[1:]
        vals = [int(x) for x in fields]
        return vals[7] if len(vals) > 7 else 0, sum(vals)
    except OSError:
        return None


def source_id():
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    # Not a git checkout: a digest of the sources the benchmark builds.
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")) + sorted(HERE.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def spread(values):
    v = sorted(values)
    if not v:
        return {}
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    return {"n": len(v), "min": v[0], "q1": q[0], "median": statistics.median(v),
            "q3": q[2], "max": v[-1]}


# ---- metrics ---------------------------------------------------------------------------

def self_times(raw):
    """Per-layer host self time per traced repetition, from udbench's spans."""
    spans = raw.get("spans", [])
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0 and not s["simulated"]:
            child[s["parent"]] += s["end"] - s["start"]
    out = {}
    for i, s in enumerate(spans):
        if not s["simulated"]:
            out[s["layer"]] = out.get(s["layer"], 0.0) + (s["end"] - s["start"]) - child[i]
    traced = sum(1 for r in raw["reps"] if r["traced"]) or 1
    return {k: v / traced for k, v in out.items()}


def metrics(raw, trace):
    reps = raw["reps"]
    timed = reps[1:]  # the first repetition is reported apart
    if trace:
        # Host times for the per-layer numbers come from the untraced half.
        timed = [r for r in timed if not r["traced"]] or timed
    full = [r for r in reps if r["full"]]
    wall = statistics.median(r["wall_s"] for r in timed)
    c = raw["counters"]
    e2e = {
        "setup_s": statistics.median(r["setup_s"] for r in full),
        "sim_wall_s": wall,
        "peak_rss_mb": raw["peak_rss_mb"],
        "sim_ticks": raw["fingerprint"]["sim_ticks"],
    }
    if not trace:
        return e2e, {}
    layer = {name: c.get(name, 0.0) for name, _, _ in PER_LAYER}
    layer.update({

        "graph.gen_s": statistics.median(r["gen_s"] for r in full),
        "graph.split_s": statistics.median(r["split_s"] for r in full),
        "graph.upload_s": statistics.median(r["upload_s"] for r in reps),
        "sim.build_s": statistics.median(r["build_s"] for r in reps),
        "apps.install_s": statistics.median(r["install_s"] for r in reps),
        "sim.cpu_s": statistics.median(r["cpu_s"] for r in timed),
        "sim.first_rep_wall_s": reps[0]["wall_s"],
        "sim.ns_per_event": wall / max(1.0, c["sim.events"]) * 1e9,
        "baseline.oracle_s": raw["oracle_s"],
    })
    selfs = self_times(raw)
    for layer_name in ("bench", "graph", "sim", "apps", "serve", "stream", "baseline"):
        layer["trace.self_s." + layer_name] = selfs.get(layer_name, 0.0)
    traced_wall = [r["wall_s"] for r in reps[1:] if r["traced"]]
    layer["trace.overhead_frac"] = (statistics.median(traced_wall) / wall - 1.0
                                    if traced_wall else 0.0)
    layer["trace.spans"] = len(raw.get("spans", []))
    return e2e, layer


def workload_e2e(raw):
    """The single-workload end-to-end metrics, or None where they do not apply."""
    c = raw["counters"]
    w = raw["workload"]
    return {
        "query_p50_ticks": c.get("query_p50_ticks") if w in ("serve-mixed", "stream-serve") else None,
        "query_p99_ticks": c.get("query_p99_ticks") if w in ("serve-mixed", "stream-serve") else None,
        "sustained_qpmt": c.get("sustained_qpmt") if w == "serve-mixed" else None,
        "update_lag_ticks": c.get("update_lag_ticks") if w == "stream-serve" else None,
        "fail_frac": raw["failed"] / max(1, raw["attempted"]),
    }


UNITS = {n: u for n, u, _, _ in END_TO_END}
UNITS.update({n: u for n, u, _ in PER_LAYER})
UNITS["fail_frac"] = "ratio"
KIND = {"setup_s": "host", "sim_wall_s": "host", "peak_rss_mb": "host",
        "sim_ticks": "simulated", "query_p50_ticks": "simulated",
        "query_p99_ticks": "simulated", "sustained_qpmt": "simulated",
        "update_lag_ticks": "simulated", "fail_frac": "count"}


def report(raw, trace, e2e, layer, prov):
    w = raw["workload"]
    reps = raw["reps"]
    print(f"== {w}  seed {raw['seed']}  {len(reps)} reps "
          f"({len(reps) - 1} timed after the first)  build {raw['build_type']} "
          f"{raw['compiler']}  source {prov['source']}")
    if not prov["valid"]:
        print("   NOT A RESULT: not an optimized, uninstrumented build")
    print("   " + HOST_NOTE)
    rows = dict(e2e)
    rows.update(workload_e2e(raw))
    for name, v in rows.items():
        kind = KIND.get(name, "")
        if v is None:
            print(f"   {name:<18} {'n/a':>16}  {UNITS[name]:<14} {kind}")
            continue
        extra = ""
        if name == "sim_wall_s":
            s = prov["host"]["sim_wall_s"]
            extra = (f"median of {s['n']}, q1 {s['q1']:.4f} q3 {s['q3']:.4f}; "
                     f"first rep {reps[0]['wall_s']:.4f} s")
        if name == "setup_s":
            extra = f"median of {prov['host']['setup_s']['n']} full set-ups"
        if name in ("query_p50_ticks", "query_p99_ticks"):
            extra = f"n={int(raw['counters'].get('serve.completed', 0))} queries"
        if name == "fail_frac":
            extra = f"{raw['failed']} of {raw['attempted']}"
        print(f"   {name:<18} {v:>16.6g}  {UNITS[name]:<14} {kind:<10} {extra}")
    for name, v in layer.items():
        print(f"   {name:<34} {v:>16.6g}  {UNITS[name]}")
    for e in raw["errors"]:
        print(f"   FAILED: {e}")


def run_one(exe, workload, seed, seconds, trace):
    load0, steal0 = os.getloadavg(), cpu_times()
    raw, rc = run_udbench(exe, workload, seed, seconds, trace)
    load1, steal1 = os.getloadavg(), cpu_times()
    e2e, layer = metrics(raw, trace)
    reps = raw["reps"]
    timed = reps[1:]
    flags = raw.get("cxx_flags", "") + " " + os.environ.get("CXXFLAGS", "")
    prov = {
        "source": source_id(),
        "build_type": raw["build_type"],
        "compiler": raw["compiler"],
        "valid": raw["build_type"] in ("Release", "RelWithDebInfo") and "-fsanitize" not in flags,
        "nproc": os.cpu_count(),
        "loadavg_start": load0,
        "loadavg_end": load1,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "reps": len(reps),
        "config": raw["config"],
        "host": {
            "setup_s": spread([r["setup_s"] for r in reps if r["full"]]),
            "sim_wall_s": spread([r["wall_s"] for r in timed]),
            "cpu_s": spread([r["cpu_s"] for r in timed]),
        },
    }
    if steal0 and steal1:
        d_total = max(1, steal1[1] - steal0[1])
        prov["steal_frac"] = (steal1[0] - steal0[0]) / d_total
        prov["steal_jiffies"] = [steal0[0], steal1[0]]
    report(raw, trace, e2e, layer, prov)
    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "metrics": e2e if not trace else layer,
        "workload_e2e": workload_e2e(raw),
        "fingerprint": raw["fingerprint"],
        "attempted": raw["attempted"], "failed": raw["failed"],
        "provenance": prov,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"result-{workload}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(result, indent=1))
    correct = rc == 0 and raw["failed"] == 0
    return correct, raw, (e2e if not trace else layer)


def result_line(correct, raw, shown):
    return json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in shown.items()},
    })


# ---- compare ---------------------------------------------------------------------------

def load_set(d):
    """workload -> seed -> end-to-end metrics, from result-*-t0.json files."""
    out = {}
    for p in sorted(Path(d).glob("result-*-t0.json")):
        r = json.loads(p.read_text())
        out.setdefault(r["workload"], {})[r["seed"]] = r["metrics"]
    return out


def verdict(a, b, better, bound):
    """The choosing-metrics pairing rule (section 8) with this benchmark's bounds."""
    sign = 1 if better == "higher" else -1
    ma, mb = statistics.median(a), statistics.median(b)
    qa = statistics.quantiles(a, n=4) if len(a) > 1 else [ma] * 3
    iqr = qa[2] - qa[0]
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(mb - ma) > iqr and sign * (mb - ma) > 0:
        return "better"
    if sign * (mb - ma) < -bound * abs(ma):
        return "worse"
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if ma and iqr / abs(ma) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(dir_a, dir_b):
    A, B = load_set(dir_a), load_set(dir_b)
    print(f"{'workload':<16} {'metric':<12} {'A median [q1,q3]':>34} "
          f"{'B median [q1,q3]':>34}  verdict")
    for w in [n for n, _ in WORKLOADS]:
        if w not in A or w not in B:
            continue
        seeds = sorted(set(A[w]) & set(B[w]))
        for name, _, better, bound in END_TO_END:
            a = [A[w][s][name] for s in seeds]
            b = [B[w][s][name] for s in seeds]
            if not a:
                continue

            def fmt(v):
                q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
                return f"{statistics.median(v):.6g} [{q[0]:.6g},{q[2]:.6g}]"
            print(f"{w:<16} {name:<12} {fmt(a):>34} {fmt(b):>34}  "
                  f"{verdict(a, b, better, bound)}")


# ---- self-test -------------------------------------------------------------------------

def selftest(exe):
    ok = True
    names0 = {n for n, *_ in END_TO_END}
    names1 = {n for n, *_ in PER_LAYER}
    for w, _ in WORKLOADS:
        for trace in (False, True):
            raw, rc = run_udbench(exe, w, 1, 0, trace, ["--tiny"], "-tiny")
            e2e, layer = metrics(raw, trace)
            shown = set(e2e if not trace else layer)
            want = names0 if not trace else names1
            status = "ok"
            if rc != 0 or raw["failed"]:
                status, ok = f"FAILED oracle/fingerprint: {raw['errors']}", False
            if shown != want:
                status, ok = f"FAILED names: {sorted(shown ^ want)}", False
            print(f"selftest {w:<16} trace={int(trace)} {status}")
    fps = {}
    for shards in (1, 4):
        raw, _ = run_udbench(exe, "bfs-sharded", 1, 0, False,
                            ["--tiny", "--shards", str(shards)], f"-tiny-x{shards}")
        fps[shards] = raw["fingerprint"]
    same = fps[1] == fps[4]
    ok &= same
    print(f"selftest bfs-sharded fingerprint 1 vs 4 shards: "
          f"{'identical' if same else 'DIFFERENT'} {fps[1]}")
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    match = committed == manifest()
    ok &= match
    print(f"selftest BENCHMARK.json matches run.py's tables: {'yes' if match else 'NO'}")
    return ok


# ---- main ------------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=manifest()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    ap.add_argument("--write-manifest", action="store_true")
    args = ap.parse_args()

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.compare:
        compare(*args.compare)
        return 0
    exe = build()
    if args.selftest:
        return 0 if selftest(exe) else 1
    if args.workload:
        correct, raw, shown = run_one(exe, args.workload, args.seed, args.seconds,
                                      bool(args.trace))
        print(result_line(correct, raw, shown), flush=True)
        return 0 if correct else 1
    all_ok = True
    for w, _ in WORKLOADS:
        correct, _, _ = run_one(exe, w, args.seed, args.seconds, bool(args.trace))
        all_ok &= correct
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
