"""Spans around the public calls into each hardylab layer.

The traced pass runs the same CLI ops as the timed pass, with the public
functions of every layer replaced in memory by wrappers that record a span
(name, start, end, parent, op id). Because each module's own references are
swapped too, a composite call such as ``certify_mideal`` yields child spans
for the public parts it calls (``essential_zero_set``, ``is_outer``,
``continuous_extension``, ...) on the same input. Nothing in the program's
files changes; ``restore()`` puts the originals back.

Spans are kept in memory and written once, at the end, as JSON lines.
Hooks count work at the same boundaries (windows, orders, stages, bytes).
In alloc mode each span also records its ``tracemalloc`` peak above the
memory in use when it started; the times of that pass are discarded.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

import numpy as np

MB = float(2 ** 20)


def _window_nodes(grid_size: int, width: float) -> int:
    """Nodes in a zero-set window of full ``width`` (8 cells at least)."""
    half = max(width / 2.0, 8 * (2 * np.pi / grid_size) / 2.0)
    return 2 * int(half / (2 * np.pi / grid_size)) + 1


def _count_extension(counts, args, kwargs, result) -> None:
    from hardylab.zerosets import WIDTH_SCHEDULE

    f = args[0]
    widths = kwargs.get("widths", args[3] if len(args) > 3 else WIDTH_SCHEDULE)
    counts["zerosets.windows"] += len(widths)
    counts["zerosets.window_nodes"] += sum(_window_nodes(f.grid.size, w) for w in widths)


def _count_zero_set(counts, args, kwargs, result) -> None:
    from hardylab.zerosets import EPS_SCHEDULE, WIDTH_SCHEDULE

    f = args[0]
    per = len(EPS_SCHEDULE) * len(result.candidates)
    counts["zerosets.windows"] += per * len(WIDTH_SCHEDULE)
    counts["zerosets.window_nodes"] += per * sum(_window_nodes(f.grid.size, w) for w in WIDTH_SCHEDULE)


def _count_clip(counts, args, kwargs, result) -> None:
    from hardylab.factorization import CLIP_FLOOR

    frac = float(np.mean(result.values.real <= CLIP_FLOOR))
    counts["factorization.clip_frac"] = max(counts["factorization.clip_frac"], frac)


def _adder(key: str, amount: Callable) -> Callable:
    """Hook adding ``amount(args, result)`` to the op's ``key`` counter."""
    def hook(counts, args, kwargs, result) -> None:
        counts[key] += amount(args, result)
    return hook


_count_order = _adder("toeplitz.orders", lambda a, r: int(a[1]))


#: span name -> (module, attribute path, work-count hook)
TRACED: dict[str, tuple[str, str, Optional[Callable]]] = {
    "grid.signal_from_csv": ("hardylab.grid", "signal_from_csv", _adder("grid.csv_mb", lambda a, r: len(a[0]) / MB)),
    "grid.signal_to_csv": ("hardylab.grid", "signal_to_csv", _adder("grid.csv_mb", lambda a, r: len(r) / MB)),
    "catalog.example_boundary": ("hardylab.catalog", "CatalogEntry.boundary", None),
    "hardy.analytic_projection": ("hardylab.hardy", "analytic_projection", None),
    "hardy.conjugate_function": ("hardylab.hardy", "conjugate_function", None),
    "factorization.clipped_log_modulus": ("hardylab.factorization", "clipped_log_modulus", _count_clip),
    "factorization.synth_outer": ("hardylab.factorization", "synth_outer", None),
    "factorization.inner_outer": ("hardylab.factorization", "inner_outer", None),
    "factorization.is_outer": ("hardylab.factorization", "is_outer", None),
    "factorization.is_inner": ("hardylab.factorization", "is_inner", None),
    "zerosets.essential_zero_set": ("hardylab.zerosets", "essential_zero_set", _count_zero_set),
    "zerosets.continuous_extension": ("hardylab.zerosets", "continuous_extension", _count_extension),
    "zerosets.zinfty_report": ("hardylab.zerosets", "zinfty_report", None),
    "zerosets.in_zinfty": ("hardylab.zerosets", "in_zinfty", None),
    "zerosets.in_disc_algebra": ("hardylab.zerosets", "in_disc_algebra", None),
    "ideals.ideal": ("hardylab.ideals", "ideal", None),
    "ideals.certify_mideal": ("hardylab.ideals", "certify_mideal", None),
    "ideals.approx_unit_sublevel": ("hardylab.ideals", "approx_unit_sublevel",
                                    _adder("ideals.stages", lambda a, r: len(r))),
    "ideals.approx_unit_peak": ("hardylab.ideals", "approx_unit_peak", _adder("ideals.stages", lambda a, r: len(r[1]))),
    "ideals.prepare_peak": ("hardylab.ideals", "prepare_peak", None),
    "ideals.membership": ("hardylab.ideals", "membership", None),
    "toeplitz.density_profile": ("hardylab.toeplitz", "density_profile", None),
    "toeplitz.szego_distance": ("hardylab.toeplitz", "szego_distance", _count_order),
    "toeplitz.adjoint_kernel_dim": ("hardylab.toeplitz", "adjoint_kernel_dim", _count_order),
    "serialize.certificate_report": ("hardylab.serialize", "certificate_report", None),
    "serialize.zero_set_report": ("hardylab.serialize", "zero_set_report", None),
    "serialize.zinfty_report_dict": ("hardylab.serialize", "zinfty_report_dict", None),
    "serialize.dump_text": ("hardylab.serialize", "dump_text", _adder("serialize.report_kb", lambda a, r: len(r) / 1e3)),
}


class Recorder:
    """Span store plus per-op work counters; optionally tracks allocation."""

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.frames: list[list[int]] = []   # [current at start, highest peak seen]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op: int = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        rec = self

        def wrapper(*args, **kwargs):
            parent = rec.stack[-1] if rec.stack else None
            idx = len(rec.spans)
            rec.spans.append({"name": name, "parent": parent, "op": rec.op})
            rec.stack.append(idx)
            if rec.alloc:
                rec._alloc_enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec.stack.pop()
                rec.spans[idx].update(start=start, end=end)
                if rec.alloc:
                    rec.spans[idx]["alloc_mb"] = rec._alloc_exit() / MB
            if hook is not None:
                hook(rec.counts[rec.op], args, kwargs, result)
            return result

        return wrapper

    def op_span(self, op_id: int, kind: str):
        """Open the root span of one op; returns the closer."""
        self.op = op_id
        idx = len(self.spans)
        self.spans.append({"name": "op", "kind": kind, "parent": None, "op": op_id})
        self.stack.append(idx)
        if self.alloc:
            self._alloc_enter()
        start = time.perf_counter()

        def close():
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx].update(start=start, end=end)
            if self.alloc:
                self.spans[idx]["alloc_mb"] = self._alloc_exit() / MB

        return close

    def _alloc_enter(self) -> None:
        cur, peak = tracemalloc.get_traced_memory()
        if self.frames:
            self.frames[-1][1] = max(self.frames[-1][1], peak)
        tracemalloc.reset_peak()
        self.frames.append([cur, cur])

    def _alloc_exit(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        start, seen = self.frames.pop()
        top = max(seen, peak)
        if self.frames:
            self.frames[-1][1] = max(self.frames[-1][1], top)
        return top - start

    # -- installing the wrappers -----------------------------------------

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items()) if name.startswith("hardylab") and m is not None]
        for name, (modname, attr, hook) in TRACED.items():
            owner = importlib.import_module(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, leaf)
            wrapped = self.span(name, orig, hook)
            if path:   # a method: patch the class only
                self._swap(owner, leaf, orig, wrapped)
                continue
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._swap(m, key, orig, wrapped)

    def _swap(self, owner, key, orig, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._undo.append((owner, key, orig))

    def restore(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

#: per-layer metric -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "grid.signal_from_csv.ms": "ms",
    "grid.signal_to_csv.ms": "ms",
    "grid.csv_mb": "MB",
    "catalog.example_boundary.ms": "ms",
    "hardy.analytic_projection.ms": "ms",
    "hardy.conjugate_function.ms": "ms",
    "factorization.synth_outer.ms": "ms",
    "factorization.synth_outer.calls": "count",
    "factorization.inner_outer.ms": "ms",
    "factorization.is_outer.ms": "ms",
    "factorization.jensen_gap": "ratio",
    "factorization.clip_frac": "ratio",
    "zerosets.essential_zero_set.ms": "ms",
    "zerosets.essential_zero_set.calls": "count",
    "zerosets.continuous_extension.ms": "ms",
    "zerosets.continuous_extension.calls": "count",
    "zerosets.in_zinfty.ms": "ms",
    "zerosets.windows": "count",
    "zerosets.window_nodes": "count",
    "zerosets.in_disc_algebra.ms": "ms",
    "zerosets.continuous_extension.alloc_peak_mb": "MB",
    "zerosets.continuous_extension.n_exp": "exponent",
    "ideals.certify_mideal.ms": "ms",
    "ideals.approx_unit_sublevel.ms": "ms",
    "ideals.approx_unit_peak.ms": "ms",
    "ideals.prepare_peak.ms": "ms",
    "ideals.membership.ms": "ms",
    "ideals.stages": "count",
    "ideals.certify_mideal.alloc_peak_mb": "MB",
    "toeplitz.density_profile.ms": "ms",
    "toeplitz.szego_distance.ms": "ms",
    "toeplitz.szego_distance.calls": "count",
    "toeplitz.adjoint_kernel_dim.ms": "ms",
    "toeplitz.orders": "count",
    "toeplitz.density_profile.m_exp": "exponent",
    "toeplitz.alloc_peak_mb": "MB",
    "toeplitz.law_err": "ratio",
    "serialize.certificate_report.ms": "ms",
    "serialize.dump_text.ms": "ms",
    "serialize.report_kb": "KB",
    "cli.import_s": "s",
    "cli.overhead_ms": "ms",
    "bench.trace_overhead": "ratio",
    "bench.coverage": "ratio",
}


def _median(xs) -> float:
    return float(np.median(xs)) if len(xs) else 0.0


def span_metrics(rec: Recorder, n_ops: int) -> dict[str, float]:
    """``.ms`` (median per call), ``.calls`` (per op) and per-op work counts."""
    durations: dict[str, list[float]] = defaultdict(list)
    for s in rec.spans:
        if s["name"] != "op":
            durations[s["name"]].append(1e3 * (s["end"] - s["start"]))
    out: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        base, _, what = name.rpartition(".")
        if what == "ms":
            out[name] = _median(durations.get(base, []))
        elif what == "calls":
            out[name] = len(durations.get(base, [])) / n_ops
    for key in ("grid.csv_mb", "zerosets.windows", "zerosets.window_nodes",
                "ideals.stages", "toeplitz.orders", "serialize.report_kb"):
        out[key] = sum(c[key] for c in rec.counts.values()) / n_ops
    out["factorization.clip_frac"] = max((c["factorization.clip_frac"] for c in rec.counts.values()), default=0.0)
    return out


def alloc_metrics(rec: Recorder) -> dict[str, float]:
    peaks: dict[str, float] = defaultdict(float)
    for s in rec.spans:
        peaks[s["name"]] = max(peaks[s["name"]], s.get("alloc_mb", 0.0))
    return {
        "zerosets.continuous_extension.alloc_peak_mb": peaks["zerosets.continuous_extension"],
        "ideals.certify_mideal.alloc_peak_mb": peaks["ideals.certify_mideal"],
        "toeplitz.alloc_peak_mb": max(peaks[k] for k in
                                      ("toeplitz.density_profile", "toeplitz.szego_distance",
                                       "toeplitz.adjoint_kernel_dim")),
    }


def handler_ms(rec: Recorder) -> dict[int, float]:
    """Per op: time inside the spans the CLI handler opens directly."""
    roots = {i: s["op"] for i, s in enumerate(rec.spans) if s["name"] == "op"}
    out: dict[int, float] = defaultdict(float)
    for s in rec.spans:
        if s["parent"] in roots:
            out[s["op"]] += 1e3 * (s["end"] - s["start"])
    return out
