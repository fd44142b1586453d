"""Spans around the public functions of each ``enlargekit`` module, recorded
from the benchmark's own files.

A :class:`Tracer` replaces each public function of a module with a wrapper
that records a span: name, caller span, request (the benchmark operation
that caused it), start and end.  A name that another module imported with
``from .x import y`` is replaced there too, so calls through either binding
are seen.  Spans stay in memory; :meth:`Tracer.dump` writes them out once
the run is over.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time

MODULES = ("linalg", "operators", "fitzpatrick", "enlargement", "certificates", "cli")

# Coercion helpers called once per sampled point: a span each would cost
# more than the work it measures and say nothing about any layer.
UNTRACED = {"linalg.as_vector", "linalg.as_matrix"}

# (class, method) pairs traced under the given span name.
METHODS = (
    ("fitzpatrick", "FitzEvaluator", "evaluate", "fitzpatrick.evaluate"),
    ("operators", "Ball", "project", "operators.Ball.project"),
    ("operators", "Box", "project", "operators.Box.project"),
    ("operators", "Polytope", "project", "operators.Polytope.project"),
)

# Facts read off a result when its span closes.
EXTRAS = {
    "operators.sample_graph": lambda out: len(out),
    "enlargement.enl_member": lambda out: out.method == "bruteforce",
    "fitzpatrick.partial_inf_conv": lambda out: out.inner_residual,
    "fitzpatrick.polish": lambda out: int(out.nfev),
    "certificates.sum_fitz_exactness":
        lambda out: (out.points_tested, len(out.exactness_witnesses)),
}

NAME, PARENT, REQUEST, START, END, CHILD, EXTRA = range(7)


class _ModuleProxy:
    """Stands in for a module object bound in one importer, overriding a
    few attributes and deferring every other lookup to the module."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.request = -1
        self.active = False

    def wrap(self, name, fn):
        extra = EXTRAS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            rec = [name, parent, self.request, clock(), 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = clock()
                if parent >= 0:
                    spans[parent][CHILD] += rec[END] - rec[START]
            if extra is not None:
                rec[EXTRA] = extra(out)
            return out

        return traced

    def install(self):
        """Wrap every public function of :data:`MODULES`, the methods in
        :data:`METHODS`, Douglas-Rachford, and ``scipy.optimize.minimize``
        as bound in ``fitzpatrick`` (the chart polish)."""
        mods = {m: sys.modules[f"enlargekit.{m}"] for m in MODULES}
        replaced = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if attr.startswith("_") or name in UNTRACED or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                replaced[obj] = self.wrap(name, obj)
        fz = mods["fitzpatrick"]
        replaced[fz._douglas_rachford] = self.wrap(
            "fitzpatrick._douglas_rachford", fz._douglas_rachford)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
        for short, cls, meth, name in METHODS:
            klass = getattr(mods[short], cls)
            setattr(klass, meth, self.wrap(name, getattr(klass, meth)))
        optimize = fz.scipy.optimize
        fz.scipy = _ModuleProxy(fz.scipy, optimize=_ModuleProxy(
            optimize, minimize=self.wrap("fitzpatrick.polish", optimize.minimize)))

    def dump(self, path):
        """Write the spans as gzipped tab-separated lines: id, parent,
        request, name, start, end, self time (seconds), extra."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\trequest\tname\tstart\tend\tself\textra\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[PARENT]}\t{s[REQUEST]}\t{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}\t"
                         f"{s[END] - s[START] - s[CHILD]:.9f}\t{json.dumps(s[EXTRA])}\n")


def _outermost(spans, names):
    """Spans named in ``names`` that have no ancestor named in ``names``, so
    recursive or nested calls of one family are counted once in time."""
    keep = []
    for s in spans:
        if s[NAME] not in names:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < 0:
            keep.append(s)
    return keep


# Figures that are already per call or a rate: every other figure is a
# count or a time summed over the traced phase and is divided by its rounds.
PER_CALL = {"cli.main_ms", "fitzpatrick.fitz_bruteforce.pairs_per_call",
            "fitzpatrick.partial_inf_conv.residual_max", "operators.sample_graph.pairs_per_s"}


def layer_metrics(spans, rounds):
    """The per-layer figures of one traced run of ``rounds`` whole rounds,
    keyed by metric name.  Counts and times are per round, so that a faster
    program, which fits more rounds into the phase, does not read as more
    work."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def calls(*names):
        return float(sum(len(by_name.get(n, ())) for n in names))

    def total_ms(*names):
        return 1e3 * sum(s[END] - s[START] for s in _outermost(spans, set(names)))

    def self_ms(name):
        return 1e3 * sum(s[END] - s[START] - s[CHILD] for s in by_name.get(name, ()))

    def extras(name):
        return [s[EXTRA] for s in by_name.get(name, ()) if s[EXTRA] is not None]

    bf = by_name.get("fitzpatrick.fitz_bruteforce", ())
    bf_ids = {id(s) for s in bf}
    bf_pairs = 0
    for s in by_name.get("operators.sample_graph", ()):
        p = s[PARENT]
        while p >= 0 and id(spans[p]) not in bf_ids:
            p = spans[p][PARENT]
        if p >= 0:
            bf_pairs += s[EXTRA]
    sfe = extras("certificates.sum_fitz_exactness")
    pic = extras("fitzpatrick.partial_inf_conv")
    pic_finite = [r for r in pic if r == r and r != float("inf")]
    non_enl = ("certificates.non_enlargeable_linear_relation",
               "certificates.non_enlargeable_single_valued")
    projects = ("operators.Ball.project", "operators.Box.project", "operators.Polytope.project")
    pairs = float(sum(extras("operators.sample_graph")))
    sample_ms = total_ms("operators.sample_graph")
    main = sorted(s[END] - s[START] for s in by_name.get("cli.main", ()))
    out = {
        "cli.main_ms": 1e3 * main[len(main) // 2] if main else 0.0,
        "enlargement.enl_member.calls": calls("enlargement.enl_member"),
        "enlargement.enl_member.self_ms": self_ms("enlargement.enl_member"),
        "enlargement.enl_member.oracle_calls": float(sum(extras("enlargement.enl_member"))),
        "certificates.sum_fitz_exactness.calls": calls("certificates.sum_fitz_exactness"),
        "certificates.sum_fitz_exactness.self_ms": self_ms("certificates.sum_fitz_exactness"),
        "certificates.sum_fitz_exactness.points_tested": float(sum(e[0] for e in sfe)),
        "certificates.sum_fitz_exactness.finite_points": float(sum(e[1] for e in sfe)),
        "certificates.sum_maximality.total_ms": total_ms("certificates.sum_maximality"),
        "certificates.non_enlargeable.calls": float(len(_outermost(spans, set(non_enl)))),
        "certificates.non_enlargeable.total_ms": total_ms(*non_enl),
        "fitzpatrick.fitz_bruteforce.calls": calls("fitzpatrick.fitz_bruteforce"),
        "fitzpatrick.fitz_bruteforce.self_ms": self_ms("fitzpatrick.fitz_bruteforce"),
        "fitzpatrick.fitz_bruteforce.pairs_per_call": bf_pairs / len(bf) if bf else 0.0,
        "fitzpatrick.polish.calls": calls("fitzpatrick.polish"),
        "fitzpatrick.polish.nfev": float(sum(extras("fitzpatrick.polish"))),
        "fitzpatrick.polish.total_ms": total_ms("fitzpatrick.polish"),
        "fitzpatrick.partial_inf_conv.calls": calls("fitzpatrick.partial_inf_conv"),
        "fitzpatrick.partial_inf_conv.total_ms": total_ms("fitzpatrick.partial_inf_conv"),
        "fitzpatrick.partial_inf_conv.dr_calls": calls("fitzpatrick._douglas_rachford"),
        "fitzpatrick.partial_inf_conv.residual_max": max(pic_finite, default=0.0),
        "fitzpatrick.evaluate.calls": calls("fitzpatrick.evaluate"),
        "fitzpatrick.evaluate.total_ms": total_ms("fitzpatrick.evaluate"),
        "operators.sample_graph.calls": calls("operators.sample_graph"),
        "operators.sample_graph.pairs": pairs,
        "operators.sample_graph.total_ms": sample_ms,
        "operators.sample_graph.pairs_per_s": 1e3 * pairs / sample_ms if sample_ms else 0.0,
        "operators.apply.calls": calls("operators.apply"),
        "operators.apply.total_ms": total_ms("operators.apply"),
        "operators.validate.calls": calls("operators.validate"),
        "operators.validate.total_ms": total_ms("operators.validate"),
        "operators.project.calls": calls(*projects),
        "operators.project.total_ms": total_ms(*projects),
        "operators.polytope_project.calls": calls("operators.Polytope.project"),
        "operators.polytope_project.total_ms": total_ms("operators.Polytope.project"),
    }
    for fn in ("pseudoinverse", "sym_eig", "orthonormalize"):
        out[f"linalg.{fn}.calls"] = calls(f"linalg.{fn}")
        out[f"linalg.{fn}.total_ms"] = total_ms(f"linalg.{fn}")
    return {k: v if k in PER_CALL else v / rounds for k, v in out.items()}
