"""Span tracing of linksig, installed from outside the package.

Wrappers replace public functions in every ``linksig`` module that bound
them (``exact_determinant`` lives in ``intmatrix``, ``seifert`` and
``skeinpoly``), so nested calls become child spans:
``invariants_report`` -> ``conway_potential`` -> ``exact_determinant``.
Spans stay in memory and are written out once, when the run ends.

Counts that come from returned values (matrix dimension, zero
determinants, schemes admitted) are taken after each item, with tracing
paused, so they add nothing to the timed spans.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute) -> span name; a dotted attribute is a method
WRAPPED = {
    ("seifert", "invariants_report"): "seifert.report",
    ("seifert", "conway_potential"): "seifert.conway",
    ("seifert", "link_det"): "seifert.link_det",
    ("seifert", "signature_nullity"): "seifert.signature",
    ("seifert", "seifert_matrix"): "seifert.matrix",
    ("intmatrix", "exact_determinant"): "intmatrix.det",
    ("intmatrix", "signature_nullity_of_symmetric"): "intmatrix.signature",
    ("genskein", "relation_residual"): "genskein.relation",
    ("splice", "SpliceDiagram.link_determinant"): "splice.link_det",
    ("splice", "SpliceDiagram.omega_via_EN"): "splice.en",
    ("splice", "SpliceDiagram.nabla_multivariable"): "splice.multivariable",
    ("splice", "FactorProduct.omega"): "splice.multivariable",
    ("skeinpoly", "reconstruct_from_initial"): "skeinpoly.reconstruct",
    ("skeinpoly", "a_pm_symbolic"): "skeinpoly.symbolic",
    ("skeinpoly", "a_pm_homogeneous"): "skeinpoly.homogeneous",
    ("skeinpoly", "a_pm"): "skeinpoly.a_pm",
    ("closedforms", "epsilons"): "closedforms.epsilons",
    ("prohibit", "verdict_degree9"): "prohibit.verdict_degree9",
    ("prohibit", "deg9_enumerate"): "prohibit.deg9",
    ("prohibit", "verdict_curve"): "prohibit.verdict_curve",
}

# span names whose arguments and results feed the untimed counts
OBSERVED = {"seifert.matrix", "intmatrix.det", "intmatrix.signature",
            "prohibit.deg9"}

LAYERS = ("seifert", "intmatrix", "genskein", "splice", "skeinpoly",
          "closedforms", "prohibit")

NAME, START, END, PARENT, ITEM = range(5)

#: every per-layer metric of a traced run, in print order, with its unit
PER_LAYER_UNITS = {
    "braid.word_ms": "ms", "braid.letters": "count",
    "seifert.conway_ms": "ms", "seifert.conway_calls": "count",
    "seifert.report_ms": "ms", "seifert.matrix_ms": "ms",
    "seifert.matrix_calls_per_item": "count", "seifert.dim_max": "count",
    "seifert.dim_mean": "count", "seifert.bandwidth_max": "count",
    "seifert.signature_ms": "ms", "seifert.link_det_ms": "ms",
    "intmatrix.det_calls": "count", "intmatrix.det_calls_per_item": "count",
    "intmatrix.det_ms": "ms", "intmatrix.det_zero_ratio": "ratio",
    "intmatrix.signature_calls": "count", "intmatrix.signature_ms": "ms",
    "intmatrix.nullity_pos_ratio": "ratio",
    "genskein.relation_calls": "count", "genskein.relation_ms": "ms",
    "splice.link_det_calls": "count", "splice.link_det_ms": "ms",
    "splice.multivariable_ms": "ms", "splice.en_fallback_ratio": "ratio",
    "skeinpoly.reconstruct_ms": "ms", "skeinpoly.symbolic_ms": "ms",
    "skeinpoly.homogeneous_ms": "ms", "skeinpoly.a_pm_calls": "count",
    "closedforms.calls": "count", "closedforms.ms": "ms",
    "prohibit.deg9_ms": "ms", "prohibit.schemes_tested": "count",
    "prohibit.schemes_admitted_ratio": "ratio", "prohibit.verdict_curve_ms": "ms",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.item_ms": "ms", "trace.overhead_ratio": "ratio",
    "cli.invariants_ms": "ms", "cli.import_ms": "ms",
}


def bandwidth(matrix) -> int:
    """Largest |i - j| over the nonzero entries of a square matrix."""
    return max((abs(i - j) for i, row in enumerate(matrix)
                for j, x in enumerate(row) if x), default=0)


class Tracer:
    """Records spans [name, start, end, parent index, item id] in memory."""

    def __init__(self) -> None:
        self.package = None
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = -1
        self.paused = False
        self.observed: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.dims: list[int] = []
        self._saved: list[tuple] = []

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn):
        observe = name in OBSERVED

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, perf_counter(), 0.0,
                    self.stack[-1] if self.stack else -1, self.item]
            self.spans.append(span)
            self.stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self.stack.pop()
            if observe:
                self.observed.append((name, args, out))
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a call made by the benchmark itself."""
        index = len(self.spans)
        span = [name, perf_counter(), 0.0,
                self.stack[-1] if self.stack else -1, self.item]
        self.spans.append(span)
        self.stack.append(index)
        try:
            yield
        finally:
            span[END] = perf_counter()
            self.stack.pop()

    @contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def install(self, package) -> None:
        """Patch every module attribute and class attribute in WRAPPED."""
        self.package = package
        modules = {name: getattr(self.package, name)
                   for name in {mod for mod, _ in WRAPPED}}
        for (mod, attr), name in WRAPPED.items():
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(modules[mod], cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(modules[mod], attr)
            wrapper = self._wrap(name, original)
            for module in self._package_modules():
                if module.__dict__.get(attr) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _package_modules(self):
        prefix = self.package.__name__ + "."
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == self.package.__name__
                                      or key.startswith(prefix))]

    def end_item(self) -> None:
        """Turn the returned values seen during one item into counts."""
        c = self.counts
        for name, args, out in self.observed:
            if name == "seifert.matrix":
                self.dims.append(out.dimension)
                c["seifert.bandwidth_max"] = max(c["seifert.bandwidth_max"],
                                                 bandwidth(out.matrix))
            elif name == "intmatrix.det":
                c["intmatrix.det_zero"] += out == 0
            elif name == "intmatrix.signature":
                c["intmatrix.nullity_pos"] += out[1] > 0
            elif name == "prohibit.deg9":
                alpha, beta, gamma = args[:3]
                c["prohibit.schemes_tested"] += 4 * (alpha + 1) * (beta + 1) * (gamma + 1)
                c["prohibit.schemes_admitted"] += len(out)
        self.observed.clear()

    # -- aggregation ---------------------------------------------------

    def summary(self, items: int) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far.

        Times are milliseconds per traced item (``braid.word_ms``: in total,
        while the inputs were built); a name's time counts only its
        outermost spans, so recursion is not counted twice.  Self time is
        a span's duration minus the time its child spans cover.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        total_ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_ms: dict[str, float] = defaultdict(float)
        fallback = 0
        for s in spans:
            duration = s[END] - s[START]
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += duration
            calls[s[NAME]] += 1
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] != s[NAME]:
                p = spans[p][PARENT]
            if p < 0:
                total_ms[s[NAME]] += duration * 1e3
            if s[NAME] == "splice.multivariable" and s[PARENT] >= 0 \
                    and spans[s[PARENT]][NAME] == "splice.link_det":
                fallback += 1
        for i, s in enumerate(spans):
            self_ms[s[NAME].split(".")[0]] += (s[END] - s[START] - child_time[i]) * 1e3
        n = max(items, 1)

        def ms(name: str) -> float:
            return total_ms[name] / n

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        c = self.counts
        out = {
            "braid.word_ms": total_ms["braid.word"],
            "seifert.conway_ms": ms("seifert.conway"),
            "seifert.conway_calls": calls["seifert.conway"],
            "seifert.report_ms": ms("seifert.report"),
            "seifert.matrix_ms": ms("seifert.matrix"),
            "seifert.matrix_calls_per_item": calls["seifert.matrix"] / n,
            "seifert.dim_max": max(self.dims, default=0),
            "seifert.dim_mean": ratio(sum(self.dims), len(self.dims)),
            "seifert.bandwidth_max": c["seifert.bandwidth_max"],
            "seifert.signature_ms": ms("seifert.signature"),
            "seifert.link_det_ms": ms("seifert.link_det"),
            "intmatrix.det_calls": calls["intmatrix.det"],
            "intmatrix.det_calls_per_item": calls["intmatrix.det"] / n,
            "intmatrix.det_ms": ms("intmatrix.det"),
            "intmatrix.det_zero_ratio": ratio(c["intmatrix.det_zero"], calls["intmatrix.det"]),
            "intmatrix.signature_calls": calls["intmatrix.signature"],
            "intmatrix.signature_ms": ms("intmatrix.signature"),
            "intmatrix.nullity_pos_ratio":
                ratio(c["intmatrix.nullity_pos"], calls["intmatrix.signature"]),
            "genskein.relation_calls": calls["genskein.relation"],
            "genskein.relation_ms": ms("genskein.relation"),
            "splice.link_det_calls": calls["splice.link_det"],
            "splice.link_det_ms": ms("splice.link_det"),
            "splice.multivariable_ms": ms("splice.multivariable"),
            "splice.en_fallback_ratio": ratio(fallback, calls["splice.link_det"]),
            "skeinpoly.reconstruct_ms": ms("skeinpoly.reconstruct"),
            "skeinpoly.symbolic_ms": ms("skeinpoly.symbolic"),
            "skeinpoly.homogeneous_ms": ms("skeinpoly.homogeneous"),
            "skeinpoly.a_pm_calls": calls["skeinpoly.a_pm"],
            "closedforms.calls": calls["closedforms.epsilons"],
            "closedforms.ms": ms("closedforms.epsilons"),
            "prohibit.deg9_ms": ms("prohibit.deg9"),
            "prohibit.schemes_tested": c["prohibit.schemes_tested"],
            "prohibit.schemes_admitted_ratio":
                ratio(c["prohibit.schemes_admitted"], c["prohibit.schemes_tested"]),
            "prohibit.verdict_curve_ms": ms("prohibit.verdict_curve"),
            "trace.item_ms": ms("bench.item"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = self_ms[layer] / n
        return out

    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")
