"""The benchmark's workloads: which plan units each one runs, and why.

Each workload is a fixed list of `hecke-verify verify` case ids.  The lists
are explicit, not derived from the plan, so that a later change to the plan
does not silently change what a workload measures.

`calls` says how the units are handed to `verify_all`:

* "per_case": one `verify_all(RunConfig(cases=(c,)))` call per case, the way
  a user runs `hecke-verify verify --case c`; one failing unit does not hide
  the others' numbers.
* "single": one `verify_all(RunConfig(cases=all, jobs=jobs))` call, the way a
  user runs a multi-case `--jobs` sweep; if that call raises, every unit in
  it fails.

`stresses` names layers that must record samples in a traced run, and
`bypasses` layers that must record none; together they keep each
workload's stated reason true as the program changes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple
    calls: str
    jobs: int
    stresses: tuple
    bypasses: tuple = ()


# Orbit-count cases on E7 and D9.  Each type builds its structure-constant
# table under two cache keys, so the double build shows as 4 builds.
# E7.regular is many 1-dimensional closures instead of one large one; at
# the seed it raises NameError, which is counted as a failed unit, not
# routed around.  The E8 cases (E8.o11 runs into the state budget) are
# left out: the E8 tables alone take 3.4 s, and a run must hold enough
# repetitions for a steady median on a noisy host.
ORBITS = Workload(
    name="orbits",
    cases=("E7.o11", "E7.o13", "E7.o15", "E7.o16", "E7.o17", "D9.o13",
           "E7.regular"),
    calls="per_case",
    jobs=1,
    stresses=("nilorbits", "rootsystem"),
    bypasses=("weyl", "hecke"),
)

# Weyl enumeration, the class sweep and Hecke folds; no orbit counting.
# The larger groups (A8, A9, B7, C7, D7) and G2.ball are left out to keep
# a repetition near 4 s.
GROUPS = Workload(
    name="groups",
    cases=("A7.classes", "B6.classes", "D6.classes", "E6.classes",
           "A2.ball", "B2.ball", "B3.ddprime"),
    calls="per_case",
    jobs=1,
    stresses=("weyl", "hecke", "rootsystem"),
    bypasses=("nilorbits",),
)

# Many small units in one `--jobs 2` call, so planning, pool dispatch, the
# pre-fork cache warm-up (which fills only the `(t,)` structure-constant
# key, so each worker builds the table again) and report lint/emit are a
# visible share.  Left out: the units of the two workloads above; the long
# units (A8, A9, B7, C7 and D7 classes, G2.ball, the E8 and D8-D12 orbit
# cases, and partitions.inequalities, which alone takes 15 s and would
# leave room for two repetitions a run); the ten *.regular units, any one
# of which makes a whole `--jobs` call raise at the seed; and D7.roots,
# which enumerates D7, so that peak memory depended on which worker drew
# it (77 or 88-92 MB from one repetition to the next).
SWEEP_JOBS2 = Workload(
    name="sweep-jobs2",
    cases=(
        "A2.roots", "A5.roots", "A9.roots", "B2.roots", "B6.roots",
        "C3.roots", "C6.roots", "D4.roots", "E6.roots",
        "E7.roots", "E8.roots", "F4.roots", "G2.roots",
        "A3.poincare", "B3.poincare", "G2.poincare", "F4.poincare",
        "E6.poincare", "E6.orders", "E7.orders", "E8.orders", "A.orders",
        "D.orders", "irr.exceptional",
        "A2.classes", "A3.classes", "A4.classes", "A5.classes",
        "A6.classes", "B2.classes", "B3.classes", "B4.classes",
        "B5.classes", "C3.classes", "C4.classes", "C5.classes",
        "C6.classes", "D4.classes", "D5.classes", "F4.classes",
        "G2.classes",
        "partitions.values",
        "B2.m3", "B3.m5", "B4.m5", "B4.m7", "B5.m7", "B5.m9", "B6.m7",
        "B6.m9", "B6.m11", "B7.m9", "B7.m11", "B7.m13", "B8.m9", "B8.m11",
        "B8.m13", "B8.m15", "F4.m5", "F4.m7", "F4.m9", "F4.m10", "F4.m11",
        "G2.m4", "G2.m5",
        "B2.characters", "B3.characters", "B4.characters",
        "B5.characters", "B6.characters", "C3.characters",
        "C4.characters", "C5.characters", "C6.characters",
        "F4.characters", "G2.characters",
        "E6.o7", "E6.o10", "E6.o11",
        "D4.o5", "D5.o7", "D6.o7", "D6.o9", "D7.o9", "D7.o11",
        "words", "hecke.characters", "A1.ddprime", "A2.ddprime",
        "B2.ddprime", "G2.ddprime", "A3.ddprime", "typeA.lengths", "omega",
    ),
    calls="single",
    jobs=2,
    stresses=("verify", "torus", "partitions", "report"),
)

WORKLOADS = {w.name: w for w in (ORBITS, GROUPS, SWEEP_JOBS2)}

# A tiny workload for the benchmark's self-test; "no.such.case" must count
# as one failed unit while the other units are still timed.
SELFTEST = Workload(
    name="selftest",
    cases=("A2.roots", "D4.o5", "A2.ball", "no.such.case"),
    calls="per_case",
    jobs=1,
    stresses=("rootsystem", "nilorbits", "hecke"),
)
