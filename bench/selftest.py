"""Self-test of the benchmark (about 15 s):

    python3 bench/selftest.py

Runs a tiny workload (A2.roots, D4.o5, A2.ball) plus one unknown case id,
untraced and traced, and checks that the unknown id counts as one failed
unit per repetition, that the other units are still timed, and that every
metric named in BENCHMARK.json is printed with its unit and reported in
the result.  Exits 1 on the first check that does not hold.
"""

from __future__ import annotations

import sys

from run import END_TO_END, PER_LAYER, run_workload
from workloads import SELFTEST


def check(ok, what):
    if not ok:
        print(f"selftest FAILED: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def main():
    known = [c for c in SELFTEST.cases if c != "no.such.case"]
    for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
        lines = []
        res = run_workload(SELFTEST, seed=0, seconds=1, trace=trace,
                           log=lines.append)
        runs = res["attempted"] // len(SELFTEST.cases)
        check(res["correct"], f"trace {trace}: the gate passes")
        check(res["failed"] == runs,
              f"trace {trace}: the unknown case id is one failed unit in "
              f"each of {runs} passes")
        check(any(line.startswith("# failed unit no.such.case: ConfigError")
                  for line in lines),
              f"trace {trace}: the failed unit is reported with its error")
        for case in known:
            check(any(line.startswith(f"# unit {case} ") for line in lines),
                  f"trace {trace}: unit {case} is timed")
        check(list(res["metrics"]) == list(names),
              f"trace {trace}: the result holds exactly the metrics of "
              f"BENCHMARK.json")
        for name, unit in names.items():
            check(res["metrics"][name]["unit"] == unit and any(
                line.startswith(f"selftest {name} ")
                and line.endswith(f" {unit}") for line in lines),
                f"trace {trace}: {name} is printed in {unit}")
        if trace:
            check(res["metrics"]["verify.units"]["value"] == len(known),
                  "the traced pass times each known unit")
        else:
            check(any(line.startswith("selftest failed_share ")
                      for line in lines), "failed_share is printed")
    print("selftest passed")


if __name__ == "__main__":
    main()
