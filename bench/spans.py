"""Spans and call counts around the program's public functions.

The wrappers live here, outside the program: `Tracer.install` replaces each
target function in every `killingwebs` module that bound it (modules import
names with `from .x import y`, so patching only the defining module misses
most callers), and methods on their class.  Each call records one span
(name, start, end, parent span, record id) in flat in-memory arrays, which
are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute, span name).  A dotted attribute is a method.
# `killingwebs.poly` is reached through sys.modules, because the package
# attribute of that name is the `poly` function.
TARGETS = (
    ("killingwebs.poly", "MultiPoly.subst", "poly.subst"),
    ("killingwebs.poly", "MultiPoly.__mul__", "poly.mul"),
    ("killingwebs.poly", "MultiPoly.__rmul__", "poly.mul"),
    ("killingwebs.poly", "MultiPoly.evaluate", "poly.evaluate"),
    ("killingwebs.poly", "MultiPoly.coefficients_in", "poly.coefficients_in"),
    ("killingwebs.signs", "quadratic_sign_class", "signs.quadratic_sign_class"),
    ("killingwebs.spaces", "eigen_discriminant", "spaces.eigen_discriminant"),
    ("killingwebs.spaces", "decompose", "spaces.decompose"),
    ("killingwebs.spaces", "extract_kt_params", "spaces.extract_kt_params"),
    ("killingwebs.invariants", "fundamental_invariants",
     "invariants.fundamental_invariants"),
    ("killingwebs.invariants", "fundamental_covariants",
     "invariants.fundamental_covariants"),
    ("killingwebs.invariants", "covariant_sign_classes",
     "invariants.covariant_sign_classes"),
    ("killingwebs.invariants", "invariant_report", "invariants.invariant_report"),
    ("killingwebs.invariants", "auxiliary_invariants",
     "invariants.auxiliary_invariants"),
    ("killingwebs.classify", "classify_full", "classify.classify_full"),
    ("killingwebs.classify", "_eigen_precondition",
     "classify._eigen_precondition"),
    ("killingwebs.classify", "classify_euclidean", "classify.classify_euclidean"),
    ("killingwebs.classify", "classify_minkowski", "classify.classify_minkowski"),
    ("killingwebs.classify", "ClassificationReport.to_json_dict",
     "classify.to_json_dict"),
    ("killingwebs.isometry", "act_kt_params", "isometry.act_kt_params"),
    ("killingwebs.isometry", "discrete_act_params",
     "isometry.discrete_act_params"),
    ("killingwebs.generators", "sigma_generators", "generators.sigma_generators"),
    ("killingwebs.generators", "extended_generators",
     "generators.extended_generators"),
    ("killingwebs.generators", "joint_generators", "generators.joint_generators"),
    ("killingwebs.frames", "moving_frame", "frames.moving_frame"),
    ("killingwebs.verify", "run_suite", "verify.run_suite"),
    ("killingwebs.cli", "run", "cli.run"),
)

# Per-layer metrics with their units, in report order.  "per record" divides
# by the classified records whose span tree reaches the function; "per call"
# divides by the calls made anywhere in the traced run.
LAYER_METRICS = {
    "poly.subst.calls_per_record": "calls/record",
    "poly.subst.self_ms_per_record": "ms/record",
    "poly.mul.calls_per_record": "calls/record",
    "poly.mul.self_ms_per_record": "ms/record",
    "poly.evaluate.calls_per_record": "calls/record",
    "poly.evaluate.self_ms_per_record": "ms/record",
    "poly.coefficients_in.calls_per_record": "calls/record",
    "signs.quadratic_sign_class.calls_per_record": "calls/record",
    "signs.quadratic_sign_class.self_ms_per_record": "ms/record",
    "spaces.eigen_discriminant.self_ms_per_record": "ms/record",
    "spaces.decompose.self_ms_per_record": "ms/record",
    "spaces.extract_kt_params.self_ms_per_call": "ms/call",
    "invariants.fundamental_invariants.calls_per_record": "calls/record",
    "invariants.fundamental_covariants.calls_per_record": "calls/record",
    "invariants.covariant_builds_useful_ratio": "ratio",
    "invariants.covariant_sign_classes.self_ms_per_record": "ms/record",
    "invariants.invariant_report.ms_per_record": "ms/record",
    "invariants.auxiliary_invariants.ms_per_record": "ms/record",
    "invariants.covariant_polynomials.cold_ms": "ms",
    "invariants.invariant_polynomials.cold_ms": "ms",
    "classify.classify_full.p50_ms": "ms",
    "classify._eigen_precondition.ms_per_record": "ms/record",
    "classify._eigen_precondition.points_per_record": "points/record",
    "classify.classify_euclidean.ms_per_record": "ms/record",
    "classify.classify_minkowski.ms_per_record": "ms/record",
    "classify.to_json_dict.ms_per_record": "ms/record",
    "isometry.act_kt_params.calls": "calls",
    "isometry.act_kt_params.self_ms_per_call": "ms/call",
    "isometry.derived_kt_action.cold_ms": "ms",
    "isometry.discrete_act_params.ms_per_call": "ms/call",
    "generators.sigma_generators.ms_per_call": "ms/call",
    "generators.extended_generators.ms_per_call": "ms/call",
    "generators.joint_generators.ms_per_call": "ms/call",
    "frames.moving_frame.ms_per_call": "ms/call",
    "verify.run_suite.ms": "ms",
    "cli.startup_ms": "ms",
    "cli.run.ms_per_call": "ms",
    "trace.api_p50_overhead_ms": "ms",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.record = array("q")
        self.stack: list[int] = []
        self.record_id = -1          # set by the caller around each record
        self.records = 0             # records classified under the tracer
        self._undo: list[tuple] = []

    def _wrap(self, span: str, fn):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        names, start, end = self.name, self.start, self.end
        parent, record, stack = self.parent, self.record, self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            record.append(tracer.record_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
        return wrapper

    def install(self) -> None:
        import killingwebs.cli  # noqa: F401  loads every module of the package
        modules = [m for n, m in sys.modules.items()
                   if n == "killingwebs" or n.startswith("killingwebs.")]
        for modname, attr, span in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(span, orig))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(span, orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapped)
                        self._undo.append((mod, name, orig))

    def uninstall(self) -> None:
        for target, name, orig in reversed(self._undo):
            setattr(target, name, orig)
        self._undo.clear()

    def durations(self, span: str) -> list[int]:
        nid = self._ids.get(span, -1)
        return [e - s for n, s, e in zip(self.name, self.start, self.end)
                if n == nid]

    def write(self, path) -> None:
        with gzip.open(path, "wt") as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\trecord\n")
            for n, s, e, p, r in zip(self.name, self.start, self.end,
                                     self.parent, self.record):
                handle.write(f"{self.names[n]}\t{s}\t{e}\t{p}\t{r}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Metrics that come from the spans alone."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = defaultdict(int)        # name -> calls inside records
        self_ns = defaultdict(int)      # name -> self time inside records
        incl_ns = defaultdict(int)      # name -> inclusive time inside records
        reached = defaultdict(set)      # name -> record ids
        all_calls = defaultdict(int)    # name -> calls anywhere
        all_self = defaultdict(int)
        all_incl = defaultdict(int)
        points = 0
        eigen = self._ids.get("classify._eigen_precondition", -1)
        evaluate = self._ids.get("poly.evaluate", -1)
        for i in range(n):
            nid, rec = self.name[i], self.record[i]
            own = dur[i] - child[i]
            all_calls[nid] += 1
            all_self[nid] += own
            all_incl[nid] += dur[i]
            if rec >= 0:
                calls[nid] += 1
                self_ns[nid] += own
                incl_ns[nid] += dur[i]
                reached[nid].add(rec)
                p = self.parent[i]
                if nid == evaluate and p >= 0 and self.name[p] == eigen:
                    points += 1

        def ids(span):
            return self._ids.get(span, -1)

        def per_record(span, table, scale=1.0):
            nid = ids(span)
            return table[nid] * scale / max(1, len(reached[nid]))

        def per_call(span, table):
            nid = ids(span)
            return table[nid] / 1e6 / max(1, all_calls[nid])

        out = {}
        for span in ("poly.subst", "poly.mul", "poly.evaluate"):
            out[f"{span}.calls_per_record"] = per_record(span, calls)
            out[f"{span}.self_ms_per_record"] = per_record(span, self_ns, 1e-6)
        out["poly.coefficients_in.calls_per_record"] = per_record(
            "poly.coefficients_in", calls)
        out["signs.quadratic_sign_class.calls_per_record"] = per_record(
            "signs.quadratic_sign_class", calls)
        for span in ("signs.quadratic_sign_class", "spaces.eigen_discriminant",
                     "spaces.decompose", "invariants.covariant_sign_classes"):
            out[f"{span}.self_ms_per_record"] = per_record(span, self_ns, 1e-6)
        out["spaces.extract_kt_params.self_ms_per_call"] = per_call(
            "spaces.extract_kt_params", all_self)
        for span in ("invariants.fundamental_invariants",
                     "invariants.fundamental_covariants"):
            out[f"{span}.calls_per_record"] = per_record(span, calls)
        # One covariant build per record is useful; the rest repeat it.
        builds = calls[ids("invariants.fundamental_covariants")]
        out["invariants.covariant_builds_useful_ratio"] = (
            len(reached[ids("classify.classify_full")]) / builds if builds
            else 0.0)
        for span in ("invariants.invariant_report",
                     "invariants.auxiliary_invariants",
                     "classify._eigen_precondition",
                     "classify.classify_euclidean",
                     "classify.classify_minkowski", "classify.to_json_dict"):
            out[f"{span}.ms_per_record"] = per_record(span, incl_ns, 1e-6)
        full = self.durations("classify.classify_full")
        out["classify.classify_full.p50_ms"] = (
            statistics.median(full) / 1e6 if full else 0.0)
        out["classify._eigen_precondition.points_per_record"] = (
            points / max(1, len(reached[eigen])))
        out["isometry.act_kt_params.calls"] = float(
            all_calls[ids("isometry.act_kt_params")])
        out["isometry.act_kt_params.self_ms_per_call"] = per_call(
            "isometry.act_kt_params", all_self)
        for span in ("isometry.discrete_act_params",
                     "generators.sigma_generators",
                     "generators.extended_generators",
                     "generators.joint_generators", "frames.moving_frame",
                     "cli.run"):
            out[f"{span}.ms_per_call"] = per_call(span, all_incl)
        suite = self.durations("verify.run_suite")
        out["verify.run_suite.ms"] = (
            statistics.median(suite) / 1e6 if suite else 0.0)
        return out
