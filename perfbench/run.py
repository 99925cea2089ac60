#!/usr/bin/env python3
"""End-to-end benchmark of the vsfs pipeline and its daemon.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload suite|mega|serve-edit|all \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck [--seed N]

It builds `vsfs` and the benchmark's own executable (perfbench/ocaml) with
dune, generates the workload's programs from the seed, and runs:

  * a serve phase: a `vsfs serve` daemon started with its default flags,
    driven by one client process (open-loop point queries on one
    connection, a seeded one-function edit + Reload every few seconds on a
    second one);
  * a batch phase: one fresh process per (suite entry, solver) running the
    calls `vsfs analyze` makes (Pipeline.build_source + run_vsfs / run_sfs,
    --pre none, --jobs 1), repeated while the phase's time lasts;
  * output checks: SFS and VSFS artifacts must hash alike, repeated
    iterations must give identical counters and hashes, and the daemon's
    answers after the last reload must equal those of a cold in-process
    session solving the edited file in an empty store.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the batch pipeline and a serve session also run in-process with a
span around every public layer call, a Chrome trace-event file is written
under .perfbench/, and the last line carries the per-layer metrics. Run
metadata (host, OCaml version, jobs, query rate, sample counts, generator
lateness) is printed as a `meta:` line and saved under .perfbench/.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

PB = "_build/default/perfbench/ocaml/pb.exe"
VSFS = "_build/default/bin/vsfs_cli.exe"
WORKLOADS = ("suite", "mega", "serve-edit")
SETUP_REPS = 3  # set-up (generation + daemon cold load) repetitions
STEP_TIMEOUT = 170  # seconds any one child process may take
# Timings are reported in reference seconds: raw seconds x PROBE_REF / the
# run's host speed, the median of the probe medians of every process that
# ran a fixed ~1.5 ms probe workload (perfbench/ocaml/probe.ml) with no
# daemon alive: each batch process, before its first and after its last
# program, and the serve phase's client, before the first spawn, between
# the cold starts and after the daemon has stopped. The host's CPU speed
# drifts under its other tenants: the same analysis read 0.17 s and 0.31 s
# an hour apart, and the probe's median moved by 1.6x between two ten-run
# sets. The probe shares no code with vsfs, so only the host's speed
# cancels. PROBE_REF is the probe's median on the host used for tuning; raw
# timings and the probe medians are kept in the run record.
PROBE_REF = 0.0015


def metric_units(key):
    """(name, unit) of BENCHMARK.json's end_to_end or per_layer metrics."""
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}")
    return [(m["name"], m["unit"]) for m in spec[key]]


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed check)."""


def log(msg):
    print(msg, flush=True)


def run_child(args, cwd=".", env=None):
    """Run one child in its own process group; return its last stdout line
    parsed as JSON. On timeout or exit the whole group is killed and reaped,
    so a daemon the child started cannot outlive it."""
    proc = subprocess.Popen(args, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=STEP_TIMEOUT)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(args[:3])}")
    finally:
        kill_group(proc.pid)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(args[:3])} printed nothing")
    return json.loads(lines[-1])


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def build():
    for need in ("dune-project", "lib", "bin", "perfbench/ocaml/dune"):
        if not os.path.exists(need):
            raise BenchError(f"not a vsfs checkout: {need} is missing")
    # everything the build and the runs write stays in the checkout
    tmp = os.path.abspath(os.path.join(".perfbench", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "./" + VSFS,
                        "./" + PB], env=env, capture_output=True, text=True,
                       timeout=840)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stderr[-4000:])


class Checks:
    """Counts attempted and failed operations; remembers failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
            log(f"CHECK FAILED: {what}")


# ---------------------------------------------------------------- phases


def gen(workload, seed, work, reps):
    return run_child([os.path.abspath(PB), "gen", "--workload", workload,
                      "--seed", str(seed), "--out", work, "--reps",
                      str(reps)])


def serve_phase(manifest, seed, work, seconds, cold_reps, checks):
    """Daemon on work/serve.c, driven from one client process."""
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    r = run_child([os.path.abspath(PB), "serve",
                   "--vsfs", os.path.abspath(VSFS), "--file", "serve.c",
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--reload-every", str(manifest["reload_every"]),
                   "--cold-reps", str(cold_reps)], cwd=work, env=env)
    checks.attempted += r["queries"]
    checks.failed += r["failed_queries"]
    if r["failed_queries"]:
        checks.messages.append(f"{r['failed_queries']} queries failed")
    for m in r["failures"]:
        checks.op(False, m)
    checks.op(len(r["reloads"]) > 0, "no reload completed")
    # the daemon's answers after the last reload against a cold solve of
    # the same edited file, outside the timed region
    checks.op(r["check_failure"] is None, r["check_failure"])
    return r


def batch_iteration(manifest, work, checks):
    """One fresh process per (entry, solver); returns per solver the summed
    peak RSS, the processes' probe medians and per-program records."""
    out = {}
    for solver in ("vsfs", "sfs"):
        hwm, probes, progs = 0, [], {}
        for g in manifest["groups"]:
            args = [os.path.abspath(PB), "analyze", "--solver", solver]
            for f in g["files"]:
                args += ["--file", f]
            r = run_child(args, cwd=work)
            hwm += r["vmhwm_kb"]
            probes.append(r["probe_s"])
            for p in r["programs"]:
                progs[p["file"]] = p
            checks.attempted += len(g["files"])
        out[solver] = {"vmhwm_kb": hwm, "probes": probes, "programs": progs}
    for f, v in out["vsfs"]["programs"].items():
        checks.op(v["md5"] == out["sfs"]["programs"][f]["md5"],
                  f"{f}: SFS and VSFS points-to artifacts differ")
    return out


DETERMINISTIC = ("md5", "pops", "props", "unique_sets", "versions",
                 "svfg_nodes")


def fingerprint(iteration):
    """Per program and solver: the counters two same-seed runs must share."""
    return {f"{solver}:{f}": {k: p[k] for k in DETERMINISTIC if k in p}
            for solver in ("vsfs", "sfs")
            for f, p in iteration[solver]["programs"].items()}


def batch_phase(manifest, work, budget, checks):
    """At least one more iteration, then more while the budget lasts."""
    iters, start, last = [], time.time(), 0.0
    while not iters or time.time() - start + last <= budget:
        t0 = time.time()
        iters.append(batch_iteration(manifest, work, checks))
        last = time.time() - t0
    return iters


def fastest(iters, solver, f):
    """A program's time: the fastest of its iterations, in raw seconds. The
    iterations run before and after the serve phase, so this also filters
    slow stretches of a few seconds."""
    return min(it[solver]["programs"][f]["seconds"] for it in iters)


def analyze_s(iters, solver):
    return sum(fastest(iters, solver, f) for f in iters[0][solver]["programs"])


def entry_rows(iters, norm):
    rows = {}
    for solver in ("vsfs", "sfs"):
        for f in iters[0][solver]["programs"]:
            entry = os.path.basename(f).split(".")[0]
            row = rows.setdefault(entry, {"programs": 0, "vsfs_s": 0.0,
                                          "sfs_s": 0.0})
            row[solver + "_s"] += fastest(iters, solver, f) * norm
            if solver == "vsfs":
                row["programs"] += 1
    return rows


# ---------------------------------------------------------------- runs


def run(args):
    build()
    tag = f"{args.workload}-s{args.seed}"
    work = os.path.join(".perfbench", f"work-{tag}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(args, tag, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, tag, work):
    checks = Checks()
    reps = 1 if args.trace else SETUP_REPS
    manifest = gen(args.workload, args.seed, work, reps)
    if args.trace:
        # the in-process session edits its own pristine copy
        os.makedirs(os.path.join(work, "trace"))
        shutil.copy(os.path.join(work, "serve.c"),
                    os.path.join(work, "trace", "serve.c"))
    # two thirds of the time to the serve phase, for its reload samples
    serve_s, batch_s = args.seconds * 2 / 3, args.seconds / 3
    # the first batch iteration runs before the serve phase, the rest after
    # it, so a program's iterations are seconds apart
    first, first_s = [], 0.0
    if not args.trace:
        t0 = time.time()
        first = [batch_iteration(manifest, work, checks)]
        first_s = time.time() - t0
    s = serve_phase(manifest, args.seed, work, serve_s, reps, checks)
    setup = [g + c for g, c in zip(manifest["gen_s"], s["cold_s"])]
    reloads = [r["s"] for r in s["reloads"]]
    meta = {
        "workload": args.workload, "seed": args.seed,
        "nproc": os.cpu_count(), "ocaml": manifest["ocaml"],
        "jobs": {"batch_analyze": 1, "daemon": s["daemon_jobs"]},
        "batch": manifest["batch"], "serve": manifest["serve"],
        "batch_programs": manifest["batch_programs"],
        "batch_loc": manifest["batch_loc"], "serve_loc": manifest["serve_loc"],
        "batch_digest": manifest["batch_digest"],
        "cfg_seeds": manifest["cfg_seeds"],
        "query_rate_per_s": s["rate"],
        "reload_every_s": manifest["reload_every"],
        "latency_limit_ms": s["limit_ms"],
        "serve_seconds": serve_s,
        "query_samples": s["queries"], "blocked_samples": s["blocked"],
        "check_queries": s["check_queries"],
        "reload_samples": len(reloads),
        "setup_samples": len(setup),
        "reload_pops": [r["pops"] for r in s["reloads"]],
        "generator_late_ms": {"mean": s["gen_late_mean_ms"],
                              "p50": s["gen_late_p50_ms"],
                              "p99": s["gen_late_p99_ms"],
                              "samples": s["gen_late_samples"]},
        "probe_ref_s": PROBE_REF,
        "serve_probe_s": s["probe_s"], "serve_probes": s["probes"],
        "raw": {"setup_s": median(setup), "reload_s_each": reloads,
                "query_p50_ms": s["query_p50_ms"],
                "query_blocked_p50_ms": s["blocked_p50_ms"],
                "query_p99_ms": s["query_p99_ms"],
                "query_late_share": s["query_late_share"]},
    }
    if args.trace:
        metrics = traced(args, tag, work, s, checks, meta)
    else:
        iters = first + batch_phase(manifest, work, batch_s - first_s,
                                    checks)
        first_print = fingerprint(first[0])
        for it in iters[1:]:
            checks.op(fingerprint(it) == first_print,
                      "repeated same-seed batch iterations disagree")
        meta["batch_iterations"] = len(iters)
        meta["batch_probe_s"] = [p for it in iters for solver in ("vsfs", "sfs")
                                 for p in it[solver]["probes"]]
        meta["host_probe_s"] = median([s["probe_s"]] + meta["batch_probe_s"])
        norm = PROBE_REF / meta["host_probe_s"]
        meta["raw"]["vsfs_analyze_s"] = analyze_s(iters, "vsfs")
        meta["raw"]["sfs_analyze_s"] = analyze_s(iters, "sfs")
        meta["fingerprint"] = fingerprint(iters[0])
        for entry, row in sorted(entry_rows(iters, norm).items()):
            log(f"program {entry:14s} x{row['programs']:<3d} "
                f"vsfs {row['vsfs_s']:8.3f} s   sfs {row['sfs_s']:8.3f} s")
        values = {
            "setup_s": median(setup) * norm,
            "vsfs_analyze_s": analyze_s(iters, "vsfs") * norm,
            "sfs_analyze_s": analyze_s(iters, "sfs") * norm,
            "vsfs_peak_rss_mb": median([it["vsfs"]["vmhwm_kb"] / 1024
                                        for it in iters]),
            "sfs_peak_rss_mb": median([it["sfs"]["vmhwm_kb"] / 1024
                                       for it in iters]),
            "query_p50_ms": s["query_p50_ms"] * norm,
            "query_blocked_p50_ms": s["blocked_p50_ms"] * norm,
            "reload_s": median(reloads) * norm if reloads else 0.0,
            "daemon_peak_rss_mb": s["daemon_vmhwm_kb"] / 1024,
        }
        metrics = {n: {"value": values[n], "unit": u}
                   for n, u in metric_units("end_to_end")}
    failed_share = checks.failed / max(checks.attempted, 1)
    meta["failed_share"] = failed_share
    meta["failures"] = checks.messages
    for name, m in metrics.items():
        log(f"{name:28s} {m['value']:14.6g} {m['unit']}")
    log(f"{'query_p99_ms (raw)':28s} {meta['raw']['query_p99_ms']:14.6g} ms")
    log(f"{'query_late_share (raw)':28s} "
        f"{meta['raw']['query_late_share']:14.6g} ratio")
    log(f"{'failed_share':28s} {failed_share:14.6g} ratio "
        f"({checks.failed} of {checks.attempted} operations)")
    bulky = ("cfg_seeds", "fingerprint")  # in the run record only
    log("meta: " + json.dumps({k: v for k, v in meta.items()
                               if k not in bulky}, sort_keys=True))
    with open(os.path.join(".perfbench", f"run-{tag}.json"), "w") as fh:
        json.dump({"meta": meta, "metrics": metrics}, fh, indent=1,
                  sort_keys=True)
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


def traced(args, tag, work, s, checks, meta):
    trace_out = os.path.abspath(os.path.join(".perfbench",
                                             f"trace-{tag}.json"))
    t = run_child([os.path.abspath(PB), "trace",
                   "--seed", str(args.seed), "--src", "batch",
                   "--serve-file", "trace/serve.c", "--store", "trace/store",
                   "--trace-out", trace_out], cwd=work)
    for m in t["failures"]:
        checks.op(False, m)
    checks.attempted += len(t["md5"])
    log(f"trace: {trace_out}")
    meta["jobs"]["trace_session"] = t["session_jobs"]
    meta["trace_file"] = trace_out
    values = dict(t["metrics"])
    values["serve.query_rtt_us"] = s["idle_rtt_us"]
    values["serve.blocked_share"] = s["blocked"] / s["queries"]
    # the mean: with the spin wait the median is often 0 to the
    # microsecond the clock resolves
    values["serve.gen_late_ms"] = s["gen_late_mean_ms"]
    values["serve.query_p99_ms"] = s["query_p99_ms"]
    values["serve.query_late_share"] = s["query_late_share"]
    return {n: {"value": values[n], "unit": u}
            for n, u in metric_units("per_layer")}


def selfcheck(seed):
    """Determinism: two same-seed runs give identical counters and artifact
    hashes; another seed gives different suite programs that still pass
    every check."""
    build()
    ok = True
    for workload in WORKLOADS:
        prints, digests = [], []
        for s in (seed, seed, seed + 1):
            work = os.path.join(".perfbench", f"self-{workload}-{os.getpid()}")
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            try:
                checks = Checks()
                manifest = gen(workload, s, work, 1)
                it = batch_iteration(manifest, work, checks)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            prints.append(fingerprint(it))
            digests.append(manifest["batch_digest"])
            if checks.failed:
                ok = False
                log(f"{workload} seed {s}: {checks.messages}")
        same = prints[0] == prints[1]
        differs = digests[2] != digests[0]
        expect_differ = workload == "suite"
        log(f"{workload}: same-seed identical={same} "
            f"other-seed digest differs={differs} "
            f"(expected {expect_differ}: "
            f"{'seeded' if expect_differ else 'seed-independent'} programs)")
        ok = ok and same and differs == expect_differ
    log("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    # a terminated run still kills and reaps its children on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    try:
        if args.selfcheck:
            return selfcheck(args.seed)
        if not args.workload:
            ap.error("--workload is required")
        if args.workload != "all":
            return run(args)
        codes = []
        for w in WORKLOADS:
            log(f"== {w}")
            codes.append(run(argparse.Namespace(**{**vars(args),
                                                   "workload": w})))
        return max(codes)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
