"""Span recorder that traces hkverify from outside the package.

`install` wraps every public function of each package module (plus
`VerificationReport.save`) and rebinds the wrapper under every module
attribute that held the original, including the `from .x import f`
copies, so callers inside the package look up the wrapper.  Spans are
kept in memory as `[name, start, end, parent, value]` rows; `value` is a
row count (hypgeo.dist / hypgeo.geodesic), a file size (saves) or the
benchmark's own operation attributes.  Nothing is written until the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("hypersurface", "_util", "symfun", "identities", "hypgeo", "normalflow", "cli")
LEVELS = (64, 128, 256)
CHECKS = (
    "identities.minkowski_shifted",
    "identities.minkowski_classical",
    "identities.hk_brendle",
    "identities.hk_shifted",
    "identities.alexandrov_diagnostic",
    "identities.gauss_bonnet",
)
GENERATORS = ("hypersurface.gen_sphere", "hypersurface.gen_perturbed_sphere")
ROUND = "bench.round"
VERIFY_OP = "bench.verify"
SCAN = "normalflow.estimate_cut_time"


class Tracer:
    """In-memory span stack.  Spans opened while paused are not recorded."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._paused = 0

    def open(self, name: str, value=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, value])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @property
    def active(self) -> bool:
        return not self._paused

    @contextmanager
    def span(self, name: str, value=None):
        if self._paused:
            yield
            return
        idx = self.open(name, value)
        try:
            yield
        finally:
            self.close(idx)

    @contextmanager
    def pause(self):
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1


class NullTracer:
    """Stand-in for untraced runs: the same calls, nothing recorded."""

    active = False

    @contextmanager
    def span(self, name: str, value=None):
        yield

    @contextmanager
    def pause(self):
        yield


def _rows(args, kwargs, result):
    return int(np.shape(args[0])[0]) if np.ndim(args[0]) > 1 else 1


def _file_size(path_index):
    def measure(args, kwargs, result):
        return os.path.getsize(args[path_index])
    return measure


# value recorded per call, keyed by span name
MEASURES = {
    "hypgeo.dist": _rows,
    "hypgeo.geodesic": _rows,
    "hypersurface.save_surface": _file_size(1),
    "identities.VerificationReport.save": _file_size(1),
}


def _wrap(tracer: Tracer, name: str, fn):
    measure = MEASURES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if measure is not None:
            tracer.spans[idx][4] = measure(args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap the package's public functions; returns a callable that undoes it."""
    package = importlib.import_module("hkverify")
    modules = {layer: importlib.import_module(f"hkverify.{layer}") for layer in LAYERS}
    namespaces = [package, *modules.values()]
    undo = []
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            wrapper = _wrap(tracer, f"{layer}.{attr}", obj)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is obj:
                        setattr(ns, key, wrapper)
                        undo.append((ns, key, obj))
    report_cls = modules["identities"].VerificationReport
    original_save = report_cls.save
    report_cls.save = _wrap(tracer, "identities.VerificationReport.save", original_save)
    undo.append((report_cls, "save", original_save))

    def uninstall():
        for ns, key, obj in reversed(undo):
            setattr(ns, key, obj)

    return uninstall


def _index(spans):
    """Per-span duration, self time, round, enclosing op and scan membership."""
    count = len(spans)
    dur = [0.0] * count
    child = [0.0] * count
    excluded = [0.0] * count   # direct children that derived metrics subtract
    round_of = [-1] * count
    op_of = [-1] * count
    in_scan = [False] * count
    subtract = set(CHECKS) | {"hypersurface.build_geometry", SCAN}
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur[i] = end - start
        if parent >= 0:
            child[parent] += dur[i]
            if name in subtract:
                excluded[parent] += dur[i]
            round_of[i] = round_of[parent]
            op_of[i] = op_of[parent]
            in_scan[i] = in_scan[parent]
        if name == ROUND:
            round_of[i] = i
        elif name.startswith("bench."):
            op_of[i] = i
        if name == SCAN:
            in_scan[i] = True
    self_time = [d - c for d, c in zip(dur, child)]
    return dur, self_time, excluded, round_of, op_of, in_scan


def per_round_totals(spans):
    """{round index: {span name: [calls, inclusive s, self s]}}."""
    dur, self_time, _, round_of, _, _ = _index(spans)
    out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    for i, row in enumerate(spans):
        if round_of[i] < 0:
            continue
        acc = out[round_of[i]][row[0]]
        acc[0] += 1
        acc[1] += dur[i]
        acc[2] += self_time[i]
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics: the median over rounds of each round's figure."""
    dur, _, excluded, round_of, op_of, in_scan = _index(spans)
    rounds: dict = defaultdict(lambda: defaultdict(float))
    for i, (name, _, _, _, value) in enumerate(spans):
        r = round_of[i]
        if r < 0:
            continue
        acc = rounds[r]
        acc["__" + name] += dur[i]
        acc["__calls." + name] += 1
        op = op_of[i]
        op_name, _, _, _, op_value = spans[op] if op >= 0 else (None,) * 5
        level = op_value.get("level") if op_name == VERIFY_OP and op_value["n"] == 2 else None
        if name == VERIFY_OP:
            acc["verified_surfaces"] += 1
        if op_name == VERIFY_OP and name == "hypersurface.build_geometry":
            acc["ladder_build_geometry_calls"] += 1
        if level in LEVELS:
            if name in GENERATORS:
                acc[f"hypersurface.gen_s.g{level}"] += dur[i]
            elif name == "hypersurface.build_geometry":
                acc[f"hypersurface.build_geometry_s.g{level}"] += dur[i]
            elif name == "identities.run_verification":
                acc[f"identities.run_verification_s.g{level}"] += dur[i]
                acc[f"identities.report_overhead_s.g{level}"] += dur[i] - excluded[i]
        if name == "normalflow.verify_flow":
            acc["normalflow.sums_and_assembly_s"] += dur[i] - excluded[i]
        if in_scan[i] and name == "hypgeo.geodesic":
            acc["normalflow.cut_scan_steps"] += 1
        if in_scan[i] and name == "hypgeo.dist":
            acc["normalflow.cut_scan_pairs"] += value
        if name == "hypersurface.save_surface":
            acc["hypersurface.surface_file_bytes"] += value
        if name == "identities.VerificationReport.save":
            acc["identities.report_bytes"] += value
        if name == "hypgeo.dist":
            acc["hypgeo.dist_rows"] += value
        if name == "hypgeo.geodesic":
            acc["hypgeo.geodesic_rows"] += value

    def total(acc, name):
        return acc["__" + name]

    figures = defaultdict(list)
    for acc in rounds.values():
        row = {key: acc[key] for key in acc if not key.startswith("__")}
        row.pop("verified_surfaces", None)
        row.pop("ladder_build_geometry_calls", None)
        row["hypersurface.build_geometry_calls"] = (
            acc["ladder_build_geometry_calls"] / max(acc["verified_surfaces"], 1))
        row["hypersurface.save_surface_s"] = total(acc, "hypersurface.save_surface")
        row["hypersurface.load_surface_s"] = total(acc, "hypersurface.load_surface")
        row["util.exact_sum_s"] = total(acc, "_util.exact_sum")
        row["util.exact_sum_calls"] = acc["__calls._util.exact_sum"]
        row["symfun.e_m_values_s"] = total(acc, "symfun.e_m_values")
        row["symfun.e_m_values_calls"] = acc["__calls.symfun.e_m_values"]
        for check in CHECKS:
            row[check + "_s"] = total(acc, check)
        row["identities.report_save_s"] = total(acc, "identities.VerificationReport.save")
        row["normalflow.verify_flow_s"] = total(acc, "normalflow.verify_flow")
        row["normalflow.estimate_cut_time_s"] = total(acc, SCAN)
        row["normalflow.cut_scan_pairs_per_step"] = (
            row.get("normalflow.cut_scan_pairs", 0) / max(row.get("normalflow.cut_scan_steps", 0), 1))
        for fn in ("dist", "geodesic", "hyper_to_ball"):
            row[f"hypgeo.{fn}_s"] = total(acc, f"hypgeo.{fn}")
        for cmd in ("gen", "verify", "convergence"):
            row[f"cli.{cmd}_s"] = total(acc, f"cli.cmd_{cmd}")
        for key, val in row.items():
            figures[key].append(float(val))
    return {key: statistics.median(vals) for key, vals in figures.items()}
