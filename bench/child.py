"""One repetition of a workload, in a fresh interpreter.

Started by run.py as `python3 bench/child.py '<json spec>'`.  It imports
`heckeverify` from the checkout's `src/`, writes the line `ready` (the
parent times set-up up to it), runs the units and writes one JSON line
with the results.  A fresh process per repetition means the `lru_cache`s
and `weyl._ENUM_CACHE` start cold, as in a user's `hecke-verify verify`.

Spec keys: `cases` (list of case ids), `calls` ("per_case" or "single"),
`jobs`, `trace` (bool), and `setup_only` (exit after `ready`).
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _cpu(ru):
    return ru.ru_utime + ru.ru_stime


def _call(verify, report, cases, jobs):
    """Run one verify_all call; return (records or None, emitted bytes,
    error text)."""
    try:
        rep = verify.verify_all(verify.RunConfig(cases=tuple(cases),
                                                 jobs=jobs))
        return rep.records, report.emit(rep.records), None
    except Exception as e:  # the call's failure is the measurement
        return None, b"", f"{type(e).__name__}: {e}"


def _unit(case, records, error, dt=None):
    if error is not None:
        return {"case": case, "failed": True, "error": error,
                "claims": None, "seconds": dt}
    mine = [r for r in records if r["case"] == case]
    bad = [r["claim_id"] for r in mine if r["status"] == "fail"]
    return {"case": case, "failed": bool(bad),
            "error": f"fail records: {', '.join(bad)}" if bad else None,
            "claims": sorted(r["claim_id"] for r in mine), "seconds": dt}


def main(spec):
    sys.path.insert(0, str(SRC))
    try:
        import heckeverify
        from heckeverify import report, rootsystem, verify, weyl
    except ImportError as e:
        print(f"cannot import heckeverify from {SRC}: {e}", file=sys.stderr)
        return 3
    if not Path(heckeverify.__file__).resolve().is_relative_to(SRC):
        print(f"heckeverify was imported from {heckeverify.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    if spec.get("setup_only"):
        return 0

    # the lru_cache objects themselves, before any tracing wrapper hides them
    caches = {"build_misses": rootsystem.build,
              "structure_constants_misses": rootsystem.structure_constants}
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    cases, jobs = spec["cases"], spec["jobs"]
    units, chunks = [], {}      # emitted report bytes per verify_all call
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t_first = perf_counter()
    if spec["calls"] == "per_case":
        for case in cases:
            t0 = perf_counter()
            records, chunks[case], error = _call(verify, report, (case,), jobs)
            units.append(_unit(case, records, error, perf_counter() - t0))
    else:
        records, body, error = _call(verify, report, cases, jobs)
        units = [_unit(case, records, error) for case in cases]
        chunks[""] = body
    wall = perf_counter() - t_first
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    body = b"".join(chunks.values())
    out = {
        "wall_s": wall,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024,
        "units": units,
        "report_sha256": hashlib.sha256(body).hexdigest(),
        "enumerated_elements": sum(len(g) for g in weyl._ENUM_CACHE.values()),
    }
    # read from outside the package: a miss is a table build
    out.update((k, fn.cache_info().misses) for k, fn in caches.items())
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
