"""Benchmark of `hecke-verify verify`: end-to-end and per-layer metrics.

    python3 bench/run.py --workload orbits --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --trace 1

The inputs are fixed lists of plan units (bench/workloads.py), run in the
listed order whatever `--seed` says: the program has no random input, and
shuffling the order only moved peak memory, through what the caches hold
when the largest unit runs.

Each repetition runs the workload's units in a fresh interpreter
(bench/child.py), so every cache starts cold, as in a user's run.  A run
first starts the interpreter a few times without work (a warm-up of the
files it reads), then runs repetitions until the next one would end after
`--seconds`; at least three always run.  After each repetition it starts
the interpreter once more without work, so that the set-up samples are
spread over the whole run.

The host is shared, and its speed drifts by a third and more over
minutes, more than any bound a run-to-run comparison could keep.  So
before the first repetition and after each one, the run times a fixed
pure-Python loop (the reference, `noise.loop`), and reports the times
the program took as they would read on a host where the reference takes
REF_NOMINAL_S: `wall_norm_s` is the median repetition wall time times
REF_NOMINAL_S over the run's median reference time, and `cpu_norm_s`
(user and system time of all the repetition's processes) likewise.  The
raw medians `wall_s` and `cpu_s` and the reference time `reference_s` are
printed too.  `setup_s`, the median time from spawning an interpreter
until `heckeverify` is imported, is not scaled: it did not follow the
reference from one run to the next.  `peak_rss_mb` is the largest peak
resident memory of any repetition's largest process.

With `--trace 0` the result carries the end-to-end metrics; with
`--trace 1` the run also makes one traced pass (serial: `jobs=1`) in a
fresh interpreter and the result carries the per-layer metrics.

The correctness gate of a run:
* each unit returns the same claim ids on every repetition;
* the sha256 of the emitted report is the same on every repetition;
* with `--trace 1`, the traced serial report is byte-identical to the
  untraced one (for sweep-jobs2: the `--jobs 2` report equals the serial
  report of the same units), and the layer-coverage check passes.
A unit whose call raises or returns a `fail` record is a failed unit: it
is counted in `failed` and `failed_share`, not hidden.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Exits 2 without a result
if the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from noise import loop
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
WARMUP_SPAWNS = 3           # interpreters started without work first
SETUP_SPAWNS = 1            # and after each repetition
REF_LOOP_N = 600_000        # one reference sample: noise.loop(REF_LOOP_N)
REF_SAMPLES = 3             # reference samples before and after each repetition,
                            # in as many processes at once as the workload's jobs
REF_NOMINAL_S = 0.06        # median sample, 2-core shared Xeon, Python 3.11.7
CHILD_TIMEOUT_S = 150
RUN_LIMIT_S = 120           # start nothing new after this much of a run

# metric names, units and order come from BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failing unit)."""


def spawn(spec, timeout):
    """Run child.py once; return (set-up seconds, parsed result or None)."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = perf_counter() - t0
        out, err = proc.communicate(timeout=max(1.0, timeout - setup))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"a repetition ran past {timeout:.0f} s")
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: "
                         f"{(first + err).strip()[-2000:]}")
    return setup, (json.loads(out.splitlines()[-1])
                   if not spec.get("setup_only") else None)


def timed_loop(n):
    t0 = perf_counter()
    loop(n)
    return perf_counter() - t0


def reference_samples(pool, procs):
    """Time the reference loop REF_SAMPLES times, in `procs` of the pool's
    processes at once; a slower host reads higher."""
    return [median(pool.map(timed_loop, [REF_LOOP_N] * procs))
            for _ in range(REF_SAMPLES)]


def setup_samples(n):
    """Start the interpreter n times without work; return the set-up
    times."""
    return [spawn({"setup_only": True}, 60)[0] for _ in range(n)]


def run_workload(wl, seed, seconds, trace, log=print):
    """Measure one workload; return the result printed as the last line."""
    cases = list(wl.cases)
    spec = {"cases": cases, "calls": wl.calls, "jobs": wl.jobs,
            "trace": False}
    start = perf_counter()
    setups = setup_samples(WARMUP_SPAWNS)
    with multiprocessing.get_context("fork").Pool(wl.jobs) as pool:
        refs, reps = reference_samples(pool, wl.jobs), []
        while True:
            elapsed = perf_counter() - start
            if len(reps) >= MIN_REPS and (
                    elapsed + median(r["wall_s"] for r in reps) > seconds
                    or elapsed > RUN_LIMIT_S):
                break
            setup, res = spawn(spec, CHILD_TIMEOUT_S)
            setups.append(setup)
            reps.append(res)
            setups += setup_samples(SETUP_SPAWNS)
            refs += reference_samples(pool, wl.jobs)
        pool.close()
        pool.join()

    problems = consistency_problems(wl, reps)
    attempted = sum(len(r["units"]) for r in reps)
    failed = sum(u["failed"] for r in reps for u in r["units"])
    raw = {"wall_s": median(r["wall_s"] for r in reps),
           "cpu_s": median(r["cpu_s"] for r in reps),
           "reference_s": median(refs)}
    scale = REF_NOMINAL_S / raw["reference_s"]
    e2e = {
        "wall_norm_s": raw["wall_s"] * scale,
        "cpu_norm_s": raw["cpu_s"] * scale,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        "setup_s": median(setups),
        "ok_share": 1 - failed / attempted,
    }
    log(f"# {wl.name}: {len(reps)} repetitions, {len(setups)} set-up "
        f"samples, {len(refs)} reference samples, {len(wl.cases)} units "
        f"each, seed {seed}")
    for name, value in e2e.items():
        log(f"{wl.name} {name} {value:.6g} {END_TO_END[name]}")
    for name, value in raw.items():
        log(f"{wl.name} {name} {value:.6g} s")
    log(f"{wl.name} failed_share {failed / attempted:.6g} share")
    for u in reps[0]["units"]:
        if u["seconds"] is not None:
            t = median(v["seconds"] for r in reps for v in r["units"]
                       if v["case"] == u["case"])
            log(f"# unit {u['case']} {t:.4f} s")
        if u["failed"]:
            log(f"# failed unit {u['case']}: {u['error']}")

    metrics = {k: (v, END_TO_END[k]) for k, v in e2e.items()}
    if trace:
        layers, more, passes = traced_pass(wl, cases, reps, raw)
        problems += more
        attempted += sum(len(r["units"]) for r in passes)
        failed += sum(u["failed"] for r in passes for u in r["units"])
        metrics = {k: (layers[k], PER_LAYER[k]) for k in PER_LAYER}
        for name, (value, unit) in metrics.items():
            log(f"{wl.name} {name} {value:.6g} {unit}")
    for p in problems:
        log(f"# gate: {p}")
    return {"correct": not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def consistency_problems(wl, reps):
    problems = []
    first = {u["case"]: u["claims"] for u in reps[0]["units"]}
    for i, rep in enumerate(reps[1:], start=2):
        for u in rep["units"]:
            if u["claims"] != first[u["case"]]:
                problems.append(f"{u['case']}: claim ids differ between "
                                f"repetitions 1 and {i}")
        if rep["report_sha256"] != reps[0]["report_sha256"]:
            problems.append(f"report sha256 differs between repetitions "
                            f"1 and {i}")
    return problems


def traced_pass(wl, cases, reps, raw):
    """One traced serial pass; return (per-layer metrics, gate problems,
    the passes made here)."""
    serial = {"cases": cases, "calls": wl.calls, "jobs": 1, "trace": False}
    passes = []
    if wl.jobs > 1:     # the overhead compares serial with serial
        passes.append(spawn(serial, CHILD_TIMEOUT_S)[1])
    untraced = passes or reps
    traced = spawn(dict(serial, trace=True), CHILD_TIMEOUT_S)[1]
    passes.append(traced)

    layers = dict(traced["layers"])
    layers["rootsystem.builds"] = traced["build_misses"]
    layers["rootsystem.structure_constants_builds"] = \
        traced["structure_constants_misses"]
    layers["weyl.elements"] = traced["enumerated_elements"]
    layers["verify.parallel_efficiency"] = \
        layers["verify.unit_sum_s"] / (wl.jobs * raw["wall_s"])
    layers["trace.overhead"] = \
        traced["wall_s"] / median(r["wall_s"] for r in untraced) - 1

    problems = []
    if traced["report_sha256"] != reps[0]["report_sha256"]:
        problems.append(f"the serial traced report differs from the "
                        f"jobs={wl.jobs} untraced report")
    return layers, problems + coverage_problems(wl, layers), passes


def coverage_problems(wl, layers):
    """Bypassed layers record no time or work; stressed layers record some."""
    problems = []
    for layer in wl.bypasses:
        busy = [k for k, v in layers.items()
                if k.startswith(layer + ".") and v]
        if busy:
            problems.append(f"{wl.name} should bypass {layer} but recorded "
                            f"{', '.join(sorted(busy))}")
    for layer in wl.stresses:
        if not layers.get(f"{layer}.self_s"):
            problems.append(f"{wl.name} should stress {layer} but recorded "
                            f"no time in it")
    return problems


def check_program():
    if not (ROOT / "src" / "heckeverify" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {ROOT}/src/heckeverify "
                         f"is missing")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        check_program()
        if args.workload != "all":
            result = run_workload(WORKLOADS[args.workload], args.seed,
                                  args.seconds, args.trace)
        else:
            result = run_all(args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def run_all(seed, seconds, trace):
    """Every workload in turn; metric names gain a `<workload>.` prefix."""
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, wl in WORKLOADS.items():
        res = run_workload(wl, seed, seconds, trace)
        out["correct"] &= res["correct"]
        out["attempted"] += res["attempted"]
        out["failed"] += res["failed"]
        out["metrics"].update(
            (f"{name}.{k}", v) for k, v in res["metrics"].items())
    return out


if __name__ == "__main__":
    sys.exit(main())
