"""Span tracing of `heckeverify` from outside the package.

`Tracer.install()` replaces each traced public function, in every
`heckeverify` module that holds a reference to it, with a wrapper that
records a span: name, start, end and the enclosing span.  Nested spans
give each function its self time: its duration minus the part of that
interval covered by traced calls it made.  A layer is a module; a layer's
self time is the sum over its traced functions.  Time in untraced helpers
(cheap table lookups such as `weyl.valid_orders`, `partitions.p` or
`report.make_record`) counts in the span of the traced caller.

Spans are folded into per-function totals as they close instead of being
kept one by one, because hot functions such as `hecke.hecke_mul` (1354
calls on the B2 Bernstein ball alone) would otherwise pile them up.  Unit
spans (`verify._run_entry`) are kept whole, as durations.

Calls made while `verify._plan` runs are not traced: planning is the
verify layer's own work, even where it asks `weyl.valid_orders` and
`rootsystem.build` for the torus stage's order tables.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("verify", "rootsystem", "weyl", "nilorbits", "torus", "partitions",
          "hecke", "report")


@dataclass(frozen=True)
class Span:
    layer: str
    func: str
    metric: str = None      # per-layer time metric fed by this span's self time
    opaque: bool = False    # calls made inside it are not traced


SPANS = (
    Span("verify", "verify_all"),
    Span("verify", "_plan", opaque=True),
    Span("verify", "_run_entry"),
    Span("rootsystem", "build", "rootsystem.build_s"),
    Span("rootsystem", "structure_constants",
         "rootsystem.structure_constants_s"),
    Span("weyl", "enumerate_group", "weyl.enumerate_s"),
    Span("weyl", "conjugacy_class_count", "weyl.class_count_s"),
    Span("nilorbits", "verify_case"),
    Span("nilorbits", "case_bound"),
    Span("nilorbits", "admissible_primes"),
    Span("nilorbits", "build_nqs", "nilorbits.build_nqs_s"),
    Span("nilorbits", "decompose", "nilorbits.decompose_s"),
    Span("nilorbits", "orbit_count_ff", "nilorbits.orbit_count_s"),
    Span("nilorbits", "representatives_distinct",
         "nilorbits.representatives_s"),
    Span("torus", "standard_point"),
    Span("torus", "verify_mixed_nonconjugacy", "torus.nonconjugacy_s"),
    Span("torus", "count_one_dim_characters", "torus.characters_s"),
    Span("partitions", "typeD_count"),
    Span("partitions", "typeD_bound"),
    Span("partitions", "check_inequalities", "partitions.inequalities_s"),
    Span("hecke", "verify_translation_words"),
    Span("hecke", "verify_bernstein", "hecke.bernstein_s"),
    Span("hecke", "build_D_Dprime", "hecke.ddprime_s"),
    Span("hecke", "hecke_mul", "hecke.mul_s"),
    Span("hecke", "braid_classes"),
    Span("hecke", "omega_group"),
    Span("hecke", "one_dim_character"),
    Span("report", "lint", "report.lint_s"),
    Span("report", "emit", "report.emit_s"),
)


class Tracer:
    def __init__(self):
        self._stack = []            # child-time accumulator per open span
        self._opaque = 0
        self.self_s = defaultdict(float)    # "layer.func" -> self time
        self.calls = defaultdict(int)
        self.returned = defaultdict(int)
        self.refused = defaultdict(int)     # calls that raised a NilOrbitError
        self.unit_s = []            # duration of each verify._run_entry
        self.counts = defaultdict(int)

    def install(self):
        mods = [m for name, m in list(sys.modules.items())
                if name == "heckeverify" or name.startswith("heckeverify.")]
        for span in SPANS:
            owner = sys.modules[f"heckeverify.{span.layer}"]
            orig = getattr(owner, span.func)
            wrapper = self._wrap(span, orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)

    def _wrap(self, span, fn):
        key = f"{span.layer}.{span.func}"
        observe = getattr(self, "_after_" + span.func, None)
        stack = self._stack

        def traced(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            stack.append(0.0)
            if span.opaque:
                self._opaque += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                if type(e).__name__ == "NilOrbitError":
                    self.refused[key] += 1
                raise
            finally:
                dt = perf_counter() - t0
                if span.opaque:
                    self._opaque -= 1
                child = stack.pop()
                self.self_s[key] += dt - child
                self.calls[key] += 1
                if stack:
                    stack[-1] += dt
                if span.func == "_run_entry":
                    self.unit_s.append(dt)
            self.returned[key] += 1
            if observe is not None:
                observe(args, out)
            return out

        return traced

    # work counters taken from return values at the span boundary

    def _after_conjugacy_class_count(self, args, out):
        self.counts["weyl.classes"] += out[0]

    def _after_orbit_count_ff(self, args, out):
        self.counts["nilorbits.orbits"] += out.count

    def _after_hecke_mul(self, args, out):
        self.counts["hecke.terms"] += len(out.terms)

    def _after_emit(self, args, out):
        self.counts["report.records"] += len(args[0])
        self.counts["report.bytes"] += len(out)

    def layer_metrics(self):
        """Per-layer metrics that come from spans alone."""
        out = {}
        for span in SPANS:
            if span.metric:
                out[span.metric] = self.self_s[f"{span.layer}.{span.func}"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self.self_s.items()
                if k.split(".", 1)[0] == layer)
        out["verify.units"] = len(self.unit_s)
        out["verify.max_unit_s"] = max(self.unit_s, default=0.0)
        out["verify.unit_sum_s"] = sum(self.unit_s)
        attempted = self.calls["nilorbits.orbit_count_ff"]
        out["nilorbits.orbit_count_calls"] = attempted
        out["nilorbits.refusals"] = self.refused["nilorbits.orbit_count_ff"]
        out["nilorbits.yield"] = (self.returned["nilorbits.orbit_count_ff"]
                                  / attempted if attempted else 0.0)
        out["hecke.mul_calls"] = self.calls["hecke.hecke_mul"]
        for name in ("weyl.classes", "nilorbits.orbits", "hecke.terms",
                     "report.records", "report.bytes"):
            out[name] = self.counts[name]
        return out
