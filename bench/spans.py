"""Spans around the package's public functions, for the traced run.

A :class:`Tracer` replaces module and class attributes of the package with
timing wrappers while it is installed, and restores them afterwards. The
package's internal calls that go through those attributes (for example
``construct_full`` calling ``verify_acute``, or ``ExactGram`` binding
``dyadic_diff_sign`` when it is built) are traced as well, so each layer's
self time is its span minus the spans it caused.

``dyadic_diff_sign`` runs about a million times per d = 8 certificate, so it
is not a span: each call adds its time and a count to the span around it.
"""
from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

# Per-layer metric -> (unit, better, the end-to-end metric it should move).
LAYERS = {
    "scalars.sign_s": ("s", "lower", "certify_s on ladder-dyadic only"),
    "scalars.sign_calls": ("count", "lower",
                           "certify_s on ladder-dyadic only"),
    "geometry.scan_s": ("s", "lower", "certify_s on ladder-dyadic and "
                        "rational-files; nothing on float-screen"),
    "geometry.apex_dots": ("count", "lower", "certify_s on ladder-dyadic "
                           "and rational-files"),
    "geometry.dots_per_s": ("1/s", "higher", "certify_s on ladder-dyadic "
                            "and rational-files"),
    "geometry.gram_s": ("s", "lower", "certify_s on ladder-dyadic and "
                        "rational-files; cli_s on ladder-dyadic"),
    "geometry.gram_builds": ("count", "lower", "certify_s on ladder-dyadic "
                             "and rational-files; cli_s on ladder-dyadic"),
    "geometry.sqdiam_s": ("s", "lower",
                          "certify_s on ladder-dyadic (safe_radius)"),
    "construct.build_s": ("s", "lower", "little anywhere; a reference"),
    "construct.guard_s": ("s", "lower", "certify_s on rational-files; "
                          "cli_s on ladder-dyadic"),
    "construct.baseline_s": ("s", "lower", "certify_s on float-screen"),
    "construct.safe_radius_s": ("s", "lower", "certify_s on ladder-dyadic"),
    "verify.margin_s": ("s", "lower", "exact: certify_s on ladder-dyadic "
                        "and rational-files; float: certify_s on "
                        "float-screen"),
    "verify.verdict_s": ("s", "lower", "as verify.margin_s"),
    "verify.antipodal_s": ("s", "lower", "as verify.margin_s"),
    "verify.triples_checked": ("count", "lower", "as verify.margin_s"),
    "verify.verdict_exit_ratio": ("ratio", "lower", "as verify.margin_s"),
    "pointset_io.save_s": ("s", "lower",
                           "certify_s and cli_s on rational-files"),
    "pointset_io.load_s": ("s", "lower",
                           "certify_s and cli_s on rational-files"),
    "pointset_io.bytes": ("B", "lower",
                          "certify_s and cli_s on rational-files"),
    "cli.startup_s": ("s", "lower", "cli_s on all three workloads"),
    "cli.main_s": ("s", "lower", "cli_s on all three workloads"),
    "trace.overhead_s": ("s", "lower", "none; traced minus untraced "
                         "round, wall time"),
    "trace.unspanned_s": ("s", "lower", "none; traced round's wall time "
                          "minus the sum of self times"),
}

# Span name -> per-layer self-time metric.
SELF_TIME = {
    "construct.full": "construct.guard_s",
    "construct.build": "construct.build_s",
    "construct.baseline": "construct.baseline_s",
    "construct.safe_radius": "construct.safe_radius_s",
    "geometry.gram": "geometry.gram_s",
    "geometry.scan": "geometry.scan_s",
    "geometry.sqdiam": "geometry.sqdiam_s",
    "verify.margin": "verify.margin_s",
    "verify.verdict": "verify.verdict_s",
    "verify.antipodal": "verify.antipodal_s",
    "pointset_io.save": "pointset_io.save_s",
    "pointset_io.load": "pointset_io.load_s",
}


class Tracer:
    """In-memory spans; written to a file by :meth:`write`."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []
        self.sign_calls = 0
        self.sign_s = 0.0

    # -- recording --------------------------------------------------------

    def wrap(self, fn, name, attrs=None):
        """``fn`` inside a span; ``name`` may be a function of the call's
        arguments, ``attrs`` one of the arguments and the result."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = {"name": name(args, kwargs) if callable(name) else name,
                    "run": self.run_id, "parent": stack[-1] if stack else None,
                    "start": 0.0, "end": 0.0, "leaf_s": 0.0, "attrs": {}}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            return result
        return traced

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        self.spans.append({"name": name, "run": self.run_id, "parent": None,
                           "start": start, "end": end, "leaf_s": 0.0,
                           "attrs": attrs})

    def _leaf_sign(self, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(a, b, c):
            t = clock()
            r = fn(a, b, c)
            dt = clock() - t
            self.sign_calls += 1
            self.sign_s += dt
            if stack:
                spans[stack[-1]]["leaf_s"] += dt
            return r
        return traced

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        import acuta.construct as C
        import acuta.geometry as G
        import acuta.pointset_io as IO
        import acuta.verify as V

        def gram_attrs(args, kwargs, result):
            return {"n": len(args[1])}

        def scan_attrs(args, kwargs, result):
            n, apexes = len(args[0].g), len(list(args[1]))
            return {"apex_dots": apexes * (n - 1) * (n - 2) // 2}

        def verify_name(args, kwargs):
            return f"verify.{kwargs.get('mode', 'margin')}"

        def report_attrs(args, kwargs, rep):
            n = len(args[0])
            return {"n": n, "triples_checked": rep.triples_checked}

        def size_attrs(args, kwargs, result):
            return {"bytes": Path(args[0]).stat().st_size}

        plan = [
            (C, "construct_full", "construct.full", None),
            (C, "construct_acute_cube", "construct.build", None),
            (C, "random_baseline", "construct.baseline", None),
            (C, "safe_radius", "construct.safe_radius", None),
            (C, "squared_diameter", "geometry.sqdiam", None),
            (G, "squared_diameter", "geometry.sqdiam", None),
            (G.ExactGram, "__init__", "geometry.gram", gram_attrs),
            (G.ExactGram, "min_dots", "geometry.scan", scan_attrs),
            (V, "verify_acute", verify_name, report_attrs),
            (V, "verify_antipodal_witness", "verify.antipodal", report_attrs),
            (IO, "save_point_set", "pointset_io.save", size_attrs),
            (IO, "load_point_set", "pointset_io.load", size_attrs),
        ]
        try:
            for owner, attr, name, attrs in plan:
                self._patch(owner, attr,
                            self.wrap(owner.__dict__[attr], name, attrs))
            self._patch(G, "dyadic_diff_sign",
                        self._leaf_sign(G.dyadic_diff_sign))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- results ----------------------------------------------------------

    def self_times(self) -> list:
        """Each span's duration minus its child spans and leaf calls."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - child[i] - s["leaf_s"]
                for i, s in enumerate(self.spans)]

    def layer_metrics(self, traced_s: float, untraced_s: float) -> dict:
        """Per-layer values of the certify phase (spans not marked cli)."""
        out = {name: 0.0 for name in LAYERS}
        selfs = self.self_times()
        scan_total = 0.0
        checked = total = 0
        covered = self.sign_s
        for s, own in zip(self.spans, selfs):
            if s["attrs"].get("phase") == "cli":
                continue
            covered += own
            key = SELF_TIME[s["name"]]
            out[key] += own
            a = s["attrs"]
            if s["name"] == "geometry.gram":
                out["geometry.gram_builds"] += 1
            elif s["name"] == "geometry.scan":
                out["geometry.apex_dots"] += a.get("apex_dots", 0)
                scan_total += s["end"] - s["start"]
            elif s["name"].startswith("verify."):
                out["verify.triples_checked"] += a.get("triples_checked", 0)
                if s["name"] == "verify.verdict" and "n" in a:
                    n = a["n"]
                    checked += a["triples_checked"]
                    total += n * (n - 1) * (n - 2) // 6
            elif s["name"].startswith("pointset_io."):
                out["pointset_io.bytes"] += a.get("bytes", 0)
        out["scalars.sign_s"] = self.sign_s
        out["scalars.sign_calls"] = self.sign_calls
        if scan_total > 0:
            out["geometry.dots_per_s"] = out["geometry.apex_dots"] / scan_total
        if total:
            out["verify.verdict_exit_ratio"] = checked / total
        probes = defaultdict(list)
        for s in self.spans:
            if s["attrs"].get("phase") == "cli":
                probes[f"{s['name']}_s"].append(s["end"] - s["start"])
        for key, times in probes.items():
            out[key] = statistics.median(times)
        out["trace.overhead_s"] = traced_s - untraced_s
        out["trace.unspanned_s"] = traced_s - covered
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans,
                       "leaf": {"scalars.sign": {"calls": self.sign_calls,
                                                 "s": self.sign_s}}}, fh)
