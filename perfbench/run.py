"""hardylab benchmark: one command, four CLI workloads, closed-form checks.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload certify-65536 --seed 1 --seconds 15 --trace 0

One process, a closed loop, one client: each op is one ``hardylab`` CLI
command run in-process through ``hardylab.cli.main(argv)`` with stdout and
stderr captured, and the next op starts when the previous one returns. The
seed draws the inputs, which the benchmark writes as CSV/JSON files under
``.perfbench/`` in the checkout; the program only reads those files.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``tracing.py``). Human-readable lines
come first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

# One BLAS thread, set before numpy loads (the set-up probes inherit it). With
# the library default of two threads on a two-core host, density ops and the
# calibration's QR compete for cores with the host's other tenants, and scaled
# op times spread 3x wider between runs (0.09-0.14 against 0.01-0.03).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import envinfo  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from inputs import Polynomial, Product  # noqa: E402
from workloads import DENSITY_SCHEDULE, RMS_TAGS, Checked, Op, Result  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fresh interpreters per run for setup_s (median reported)
SETUP_PROBES = 5
#: a tail percentile needs this many ops beyond it
TAIL_OPS = 10
DIGITS_CAP = 16.0


def _parse() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=["certify-65536", "zeroset-16384", "density", "synth-io-65536"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="busy time to measure")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args()


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

def run_op(cli, op):
    """Run one CLI op in-process; returns (Result, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:   # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:   # an escaped exception is a failed op, not a crash
            rc = -1
            err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    return Result(rc, out.getvalue(), err.getvalue(), op.out_dir), elapsed


class Loop:
    """Closed-loop runner over whole cycles of a workload's ops."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.latencies: list[tuple[int, float]] = []   # (position in cycle, seconds)
        self.failures: list[str] = []
        self.rel: dict[str, list[float]] = {}

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def run(self, cycles: int, before=None, after=None) -> None:
        """``cycles`` whole cycles of the workload's ops."""
        for _ in range(cycles):
            for pos, op in enumerate(self.workload.ops):
                if before:
                    before(len(self.latencies), op)
                res, dt = run_op(self.cli, op)
                if after:
                    after()
                self.latencies.append((pos, dt))
                chk = Checked()
                try:
                    op.check(res, chk)
                except Exception as exc:   # malformed output is a failed check
                    chk.problems.append(f"check raised {exc!r}")
                for tag, errs in chk.rel.items():
                    self.rel.setdefault(tag, []).extend(errs)
                if chk.problems:
                    self.failures.append(f"{op.kind}: {'; '.join(chk.problems)}")

    def times_ms(self) -> list[float]:
        return [1e3 * dt for _, dt in self.latencies]

    def median_by_position(self) -> dict[int, float]:
        by: dict[int, list[float]] = {}
        for pos, dt in self.latencies:
            by.setdefault(pos, []).append(1e3 * dt)
        return {pos: statistics.median(v) for pos, v in by.items()}


def tail(times: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least TAIL_OPS ops above it."""
    n = len(times)
    pct = max(0, math.floor(100.0 * (n - TAIL_OPS) / n)) if n > TAIL_OPS else 0
    ordered = sorted(times)
    rank = min(n - 1, max(0, math.ceil(pct / 100.0 * n) - 1))   # nearest-rank
    return ordered[rank], pct


def check_digits(rel: dict[str, list[float]], tags) -> float:
    """min over the tagged checks of -log10(relative error), capped."""
    worst = 0.0
    for tag in tags:
        errs = rel.get(tag, [])
        if errs:
            agg = math.sqrt(sum(e * e for e in errs) / len(errs)) if tag in RMS_TAGS else max(errs)
            worst = max(worst, agg)
    return DIGITS_CAP if worst <= 10 ** -DIGITS_CAP else min(DIGITS_CAP, -math.log10(worst))


def cycles_for(workload, seconds: float, least: int) -> int:
    """Whole cycles that take about ``seconds`` on the reference machine.

    A fixed op count per run keeps the op mix, and so the ranks behind
    op_p50_ms and op_tail_ms, identical between runs and between commits.
    """
    return max(least, round(seconds / workload.cycle_s))


def setup_probes(workload, count: int) -> list[dict]:
    """Fresh interpreters: ``setup_s`` is each one's whole life, start-up included."""
    cal = Calibrator()
    cal.sample()
    out = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), json.dumps(workload.warmup)],
            capture_output=True, text=True, timeout=120, check=False, cwd=str(ROOT),
        )
        elapsed = time.perf_counter() - start
        cal.sample()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(dict(json.loads(proc.stdout.strip().splitlines()[-1]), setup_s=elapsed))
    for probe, scale in zip(out, cal.scales()):
        probe["setup_ref_s"] = probe["setup_s"] * scale
    return out


def warm_up(cli, workload) -> None:
    for argv in workload.warmup:
        run_op(cli, Op("warm-up", argv, lambda r, c: None))
    run_op(cli, workload.ops[workload.warm_op])


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------

def end_to_end(cli, workload, seconds: float, probes: list[dict]) -> tuple[dict, Loop]:
    """The timed closed loop; tracing off; times in reference-machine units."""
    cal = Calibrator()
    cal.sample()
    loop = Loop(cli, workload)
    loop.run(cycles_for(workload, seconds, 2), after=cal.sample)
    scales = cal.scales()
    raw_ms = loop.times_ms()
    times = [t * k for t, k in zip(raw_ms, scales)]
    tail_ms, pct = tail(times)
    raw = {
        "ops_per_s": 1e3 * len(raw_ms) / sum(raw_ms),
        "op_p50_ms": statistics.median(raw_ms),
        "op_tail_ms": tail(raw_ms)[0],
        "setup_s": statistics.median(p["setup_s"] for p in probes),
    }
    metrics = {
        "ops_per_s": (1e3 * len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(p["setup_ref_s"] for p in probes), "s"),
        "check_digits": (check_digits(loop.rel, workload.digit_tags), "digits"),
    }
    print(f"ops: {loop.attempted} in {sum(raw_ms) / 1e3:.2f} s busy, "
          f"{loop.attempted // len(workload.ops)} cycles of {len(workload.ops)}")
    print(f"median scale to reference time {statistics.median(scales):.4f}; raw wall values: "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    print(f"op_tail_ms is p{pct} of {loop.attempted} ops")
    kinds = {op.kind: ms for op, ms in zip(workload.ops, loop.median_by_position().values())}
    print("raw median ms by op kind: " + ", ".join(f"{k} {v:.0f}" for k, v in kinds.items()))
    print(f"fail_frac: {len(loop.failures) / loop.attempted:.6g} ratio "
          f"({len(loop.failures)} of {loop.attempted} ops)")
    return metrics, loop


def traced(cli, workload, seconds: float, probes: list[dict], spans_path: Path) -> tuple[dict, Loop]:
    """Untraced reference pass, spanned pass, tracemalloc pass, scaling pairs."""
    # pass A: untraced reference
    plain = Loop(cli, workload)
    plain.run(cycles_for(workload, seconds / 3, 1))
    plain_by_pos = plain.median_by_position()

    # pass B: spans around every public layer call
    rec = tracing.Recorder()
    closers = []
    spanned = Loop(cli, workload)
    rec.install()
    try:
        spanned.run(
            cycles_for(workload, seconds / 3, 1),
            before=lambda i, op: closers.append(rec.op_span(i, op.kind)),
            after=lambda: closers.pop()(),
        )
    finally:
        rec.restore()
    n_ops = spanned.attempted
    metrics = tracing.span_metrics(rec, n_ops)

    handler = tracing.handler_ms(rec)
    overhead, coverage = [], []
    for op_id, (pos, dt) in enumerate(spanned.latencies):
        overhead.append(1e3 * dt - handler.get(op_id, 0.0))
        coverage.append(handler.get(op_id, 0.0) / plain_by_pos[pos])
    metrics["cli.overhead_ms"] = statistics.median(overhead)
    metrics["bench.coverage"] = statistics.median(coverage)
    metrics["bench.trace_overhead"] = statistics.median(spanned.times_ms()) / statistics.median(plain.times_ms())

    # pass C: allocation peaks under tracemalloc; its times are discarded
    arec = tracing.Recorder(alloc=True)
    aloop = Loop(cli, workload)
    tracemalloc.start()
    arec.install()
    try:
        aloop.run(1, before=lambda i, op: closers.append(arec.op_span(10 ** 6 + i, op.kind)),
                  after=lambda: closers.pop()())
    finally:
        arec.restore()
        tracemalloc.stop()
    metrics.update(tracing.alloc_metrics(arec))

    metrics["factorization.jensen_gap"] = max(plain.rel.get("jensen", [0.0]))
    metrics["toeplitz.law_err"] = max(plain.rel.get("law", [0.0]))
    metrics["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    metrics.update(scaling_exponents(workload, metrics))

    rec.spans.extend(arec.spans)
    rec.write(spans_path)
    print(f"traced: {plain.attempted} untraced ops, {n_ops} traced ops, "
          f"{aloop.attempted} ops under tracemalloc; spans in {spans_path.relative_to(ROOT)}")
    # layers a workload does not exercise report 0
    per_layer = {k: (float(metrics.get(k, 0.0)), u) for k, u in tracing.PER_LAYER_UNITS.items()}
    loop = Loop(cli, workload)
    loop.latencies = plain.latencies + spanned.latencies + aloop.latencies
    loop.failures = plain.failures + spanned.failures + aloop.failures
    return per_layer, loop


def _median_time(fn, reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaling_exponents(workload, metrics: dict) -> dict:
    """Fitted exponents of one layer call at N/4 vs N, or M/2 vs M."""
    from hardylab.grid import CircleGrid, signal_from_values
    from hardylab.hardy import AnalyticRep
    from hardylab.toeplitz import density_profile
    from hardylab.zerosets import continuous_extension

    out = {}
    if metrics.get("zerosets.continuous_extension.calls", 0) > 0:
        n = workload.grid_size
        t = {}
        for size in (n // 4, n):
            f = signal_from_values(CircleGrid(size), Product(size, ((0.0, 1),)).values())
            t[size] = _median_time(lambda: continuous_extension(f, 0.0))
        out["zerosets.continuous_extension.n_exp"] = math.log(t[n] / t[n // 4]) / math.log(4)
    if metrics.get("toeplitz.szego_distance.calls", 0) > 0:
        f = AnalyticRep(Polynomial((1.0 + 0j,), -1.0).coefficients())
        t_half = _median_time(lambda: density_profile(f, DENSITY_SCHEDULE[:-1]))
        t_full = _median_time(lambda: density_profile(f, DENSITY_SCHEDULE))
        out["toeplitz.density_profile.m_exp"] = math.log(t_full / t_half) / math.log(2)
    return out


# ---------------------------------------------------------------------------

def main() -> int:
    args = _parse()
    if not (SRC / "hardylab" / "__init__.py").is_file():
        sys.stderr.write(f"no hardylab sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))

    scratch = ROOT / ".perfbench"
    work = scratch / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, work)
        probes = setup_probes(workload, SETUP_PROBES)
        import hardylab.cli as cli

        warm_up(cli, workload)
        if args.trace == 0:
            metrics, loop = end_to_end(cli, workload, args.seconds, probes)
        else:
            spans = scratch / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, loop = traced(cli, workload, args.seconds, probes, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    for failure in loop.failures:
        print(f"FAILED CHECK {failure}")
    print("env: " + json.dumps(dict(envinfo.runtime(), workload=args.workload, seed=args.seed,
                                    grid_size=workload.grid_size)))
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
