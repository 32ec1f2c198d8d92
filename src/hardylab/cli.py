"""Command line interface.

Exit codes: 0 on success, 2 on domain errors (non-outer generator, unknown
example, hypothesis failures, a failed certificate or bundle, ...), 1 on I/O,
format, or usage errors. Every error is mirrored as one JSON object with
``error`` and ``message`` on stderr. Reports are printed to stdout and, with
``--out DIR``, written alongside their CSV companions; identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import reproduce as reproduce_mod
from .catalog import CatalogEntry, catalog_names, get_example
from .errors import HardyLabError, UnknownExample
from .factorization import (
    CLIP_FLOOR,
    inner_outer,
    is_inner,
    is_outer,
    synth_outer,
)
from .grid import (
    DEFAULT_GRID_SIZE,
    BoundarySignal,
    CircleGrid,
    _write_file,
    common_grid,
    signal_from_csv,
)
from .hardy import AnalyticRep, _read_json
from .ideals import (
    DEFAULT_BOUND,
    DEFAULT_DELTA,
    DEFAULT_MAIN_STAGES,
    DEFAULT_PEAK_SCHEDULE,
    DEFAULT_TOL,
    STRATEGIES,
    _check_divisor,
    analytic_prime_check,
    approx_unit_peak,
    approx_unit_sublevel,
    certify_mideal,
    ideal,
    membership,
    stage_unit,
)
from .serialize import (
    certificate_report,
    dump_text,
    stage_report,
    zinfty_report_dict,
)
from .toeplitz import (
    DENSITY_SCHEDULE,
    KERNEL_TOL,
    adjoint_kernel_dim,
    density_profile,
    density_profile_csv,
    szego_distance,
)
from .zerosets import in_disc_algebra, zinfty_report


class _Parser(argparse.ArgumentParser):
    """argparse that raises its usage errors, so ``main`` can tell a bad
    command line (usage) from a bad config file (io-format)."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


# ---------------------------------------------------------------------------
# input resolution
# ---------------------------------------------------------------------------

def _resolve(token: str, from_catalog, parse, file_kind: str):
    """A registry name (through ``from_catalog``), '-' for stdin, or a file
    path; the bytes of stdin or of the file go through ``parse``, which
    decodes them, where it needs text, by ``grid.decode_text``."""
    if token in catalog_names():
        return from_catalog(get_example(token))
    if token == "-":
        return parse(sys.stdin.buffer.read())
    path = Path(token)
    if path.exists():
        return parse(path.read_bytes())
    raise UnknownExample(
        f"{token!r} is neither a registry name nor a readable {file_kind} file; "
        f"known names: {', '.join(catalog_names())}"
    )


def _resolve_signal(token: str, grid_size: int, route=CatalogEntry.boundary):
    """A signal: registry name (its ``route`` on the grid), CSV path, or '-'."""
    grid = CircleGrid(grid_size)  # refuses an illegal size for file inputs too
    return _resolve(token, lambda e: route(e, grid), signal_from_csv, "CSV")


def _resolve_taylor(token: str) -> AnalyticRep:
    """An analytic (Taylor) representation: registry name, JSON path, or '-'."""
    return _resolve(token, lambda e: e.taylor(), AnalyticRep.from_json, "JSON")


def _comma_list(convert, noun: str):
    """argparse type: a nonempty comma-separated list of ``convert``ed items."""

    def parse(text: str) -> tuple:
        try:
            values = tuple(convert(p.strip()) for p in text.split(",") if p.strip())
        except ValueError:
            values = ()
        if not values:
            raise argparse.ArgumentTypeError(
                f"expected nonempty comma-separated {noun}, got {text!r}"
            )
        return values

    return parse


_int_list = _comma_list(int, "integers")
_name_list = _comma_list(str, "names")


def _write(out: Optional[str], name: str, content: str | BoundarySignal) -> None:
    """Write a text, or a signal as CSV, to the file ``name`` under ``out``."""
    if out is not None:
        Path(out).mkdir(parents=True, exist_ok=True)
        _write_file(Path(out) / name, content)


def _emit(report: dict, out: Optional[str]) -> None:
    text = dump_text(report)
    sys.stdout.write(text)
    _write(out, "report.json", text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_synth_outer(args) -> None:
    k = _resolve_signal(args.k, args.grid_size, CatalogEntry.log_modulus)  # refused unless real
    outer = synth_outer(k)
    report = {
        "grid_size": k.grid.size,
        "clip_floor": CLIP_FLOOR,
        "clipped_fraction": outer.clip_count / k.grid.size,
        "value_at_zero": outer.value_at_zero(),
        "boundary_sup": float(np.max(np.abs(outer.boundary.values))),
    }
    if args.out is not None:
        _write(args.out, "boundary.csv", outer.boundary)
        _write(args.out, "log_modulus.csv", outer.log_modulus)
    _emit(report, args.out)


def _cmd_factorize(args) -> None:
    f = _resolve_signal(args.f, args.grid_size)
    result = inner_outer(f)
    report = {
        "grid_size": f.grid.size,
        "unimodular_residual": result.unimodular_residual,
        "is_inner_input": is_inner(f),
        "is_outer_input": is_outer(f),
        "outer_value_at_zero": result.outer.value_at_zero(),
    }
    if args.out is not None:
        _write(args.out, "inner.csv", result.inner)
        _write(args.out, "outer.csv", result.outer.boundary)
    _emit(report, args.out)


def _cmd_zeroset(args) -> None:
    f = _resolve_signal(args.f, args.grid_size)
    rep = zinfty_report(f)
    report = {
        "grid_size": f.grid.size,
        "in_disc_algebra": in_disc_algebra(f),
        **zinfty_report_dict(rep),
    }
    _emit(report, args.out)


def _cmd_density(args) -> None:
    f = _resolve_taylor(args.f)
    if args.M is not None:
        d = szego_distance(f, args.M)
        report = {
            "f": args.f,
            "M": args.M,
            "distance": d,
            "distance_squared": d * d,
        }
    else:
        profile = density_profile(f, args.schedule)
        report = {
            "f": args.f,
            "profile": [{"M": m, "distance": d} for m, d in profile],
        }
        if args.out is not None:
            _write(args.out, "density.csv", density_profile_csv(profile))
    _emit(report, args.out)


def _cmd_toeplitz_kernel(args) -> None:
    f = _resolve_taylor(args.f)
    dim = adjoint_kernel_dim(f, args.M, tol=args.tol)
    _emit({"f": args.f, "M": args.M, "tol": args.tol, "kernel_dim": dim}, args.out)


def _build_ideal(args):
    gens = [_resolve_signal(n, args.grid_size) for n in args.generators]
    return ideal(gens, args.generators)


def _cmd_approx_unit(args) -> None:
    spec = _build_ideal(args)
    if args.strategy == "peak":
        prep, stages = approx_unit_peak(spec, args.schedule)
        report = {"strategy": "peak", "alpha": prep.alpha, "rescaled": prep.rescaled}
    else:
        stages = approx_unit_sublevel(spec, args.stages)
        report = {"strategy": "sublevel"}
    report["stages"] = [stage_report(s) for s in stages]
    if args.out is not None:
        for s in stages:
            _write(args.out, f"unit-{s.index:04d}.csv", stage_unit(spec, s))
    _emit(report, args.out)


def _cmd_certify(args) -> Optional[dict]:
    spec = _build_ideal(args)
    cert = certify_mideal(
        spec,
        strategy=args.strategy,
        tol=args.tol,
        bound=args.bound,
        stages=args.stages,
        schedule=args.schedule,
    )
    _emit(certificate_report(cert), args.out)
    if args.out is not None and cert.final_unit is not None:
        _write(args.out, "final-unit.csv", cert.final_unit)
    if not cert.passed:
        return {"error": cert.failure_reason, "message": cert.conclusion}
    return None


def _certified_ideal(args, *tokens, check=None):
    """The ideal of ``--generators``, the signals named by ``tokens`` and the
    ideal's certificate. The signals are resolved, refused off the ideal's
    grid and passed to ``check`` (when given) before the certification runs."""
    spec = _build_ideal(args)
    signals = [_resolve_signal(t, args.grid_size) for t in tokens]
    common_grid(*spec.generators, *signals)
    if check is not None:
        check(*signals)
    # Neither command prints stages, and the verdict reads only the last
    # stage's error (a stage run alone gives it bit for bit), the sup gate at
    # the default bound and the cofactor's clip check. Every sublevel unit has
    # sup 1 to rounding (UnitStage) and the clip count is zero unless a
    # generator modulus reaches e^-CLIP_FLOOR; only then can an earlier stage
    # fail either gate, so only then does every stage run.
    clipped = any(np.max(g.log_abs) >= -CLIP_FLOOR for g in spec.generators)
    stages = DEFAULT_MAIN_STAGES if clipped else DEFAULT_MAIN_STAGES[-1:]
    cert = certify_mideal(spec, strategy=args.strategy, tol=args.tol, stages=stages)
    return spec, signals, cert


def _cmd_member(args) -> None:
    spec, (h,), cert = _certified_ideal(args, args.h)
    result = membership(h, cert)
    _emit(
        {
            "h": args.h,
            "generators": list(spec.names),
            "member": result,
            "zero_angles": [float(a) for a in cert.zero_angles],
            "certificate_passed": cert.passed,
        },
        args.out,
    )


def _cmd_prime_check(args) -> None:
    spec, (a, b), cert = _certified_ideal(
        args, args.a, args.b, check=lambda a, b: _check_divisor(a, args.delta))
    result = analytic_prime_check(cert, a, b, delta=args.delta)
    _emit(
        {
            "a": args.a,
            "b": args.b,
            "generators": list(spec.names),
            "delta": args.delta,
            "division_holds": result,
        },
        args.out,
    )


def _cmd_reproduce(args) -> Optional[dict]:
    out_dir = Path(args.out) if args.out else Path.cwd()
    summary = reproduce_mod.run_bundle(args.name, out_dir, grid_size=args.grid_size)
    sys.stdout.write(dump_text(summary))
    if not summary["passed"]:
        failed = [c["name"] for c in summary["checks"] if not c["passed"]]
        return {"error": "BundleFailed", "message": "failed checks: " + "; ".join(failed)}
    return None


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="directory for report + CSV output")
    p.add_argument("--config", default=None, help="JSON file with default options")


def _add_grid_common(p: argparse.ArgumentParser) -> None:
    """The common options plus --grid-size, for the commands that build a grid."""
    p.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE,
                   help="number of circle nodes (power of two)")
    _add_common(p)


def _add_ideal(p: argparse.ArgumentParser) -> None:
    p.add_argument("--generators", type=_name_list, required=True,
                   help="comma-separated signals")
    p.add_argument("--strategy", choices=STRATEGIES, default="auto")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)


def _add_unit_options(p: argparse.ArgumentParser) -> None:
    """The sublevel stages and peak powers of an approximate unit."""
    p.add_argument("--stages", type=_int_list, default=DEFAULT_MAIN_STAGES,
                   help="sublevel stage indices, comma-separated")
    p.add_argument("--schedule", type=_int_list, default=DEFAULT_PEAK_SCHEDULE,
                   help="peak powers, comma-separated")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once; usage errors raise ``argparse.ArgumentError``."""
    parser = _Parser(prog="hardylab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-outer", help="synthesize an outer function from log-modulus data")
    p.add_argument("--k", required=True, help="log-modulus: registry name, CSV path, or '-'")
    _add_grid_common(p)
    p.set_defaults(func=_cmd_synth_outer)

    p = sub.add_parser("factorize", help="inner/outer factorization of boundary data")
    p.add_argument("--f", required=True, help="signal: registry name, CSV path, or '-'")
    _add_grid_common(p)
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("zeroset", help="essential zero set and continuous extendability")
    p.add_argument("--f", required=True)
    _add_grid_common(p)
    p.set_defaults(func=_cmd_zeroset)

    p = sub.add_parser("density", help="least-squares density profile of an analytic symbol")
    p.add_argument("--f", required=True, help="registry name, AnalyticRep JSON path, or '-'")
    orders = p.add_mutually_exclusive_group()
    orders.add_argument("--M", type=int, default=None, help="single truncation order")
    orders.add_argument("--schedule", type=_int_list, default=DENSITY_SCHEDULE,
                        help="comma-separated truncation orders")
    _add_common(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("toeplitz-kernel", help="adjoint kernel dimension of the truncation")
    p.add_argument("--f", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--tol", type=float, default=KERNEL_TOL)
    _add_common(p)
    p.set_defaults(func=_cmd_toeplitz_kernel)

    p = sub.add_parser("approx-unit", help="construct approximate-unit stages for an ideal")
    p.add_argument("--generators", type=_name_list, required=True,
                   help="comma-separated signals")
    p.add_argument("--strategy", choices=["sublevel", "peak"], default="sublevel")
    _add_unit_options(p)
    _add_grid_common(p)
    p.set_defaults(func=_cmd_approx_unit)

    p = sub.add_parser("certify", help="certify a bounded approximate unit")
    _add_ideal(p)
    p.add_argument("--bound", type=float, default=DEFAULT_BOUND)
    _add_unit_options(p)
    _add_grid_common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("member", help="membership of a function in a certified ideal")
    p.add_argument("--h", required=True)
    _add_ideal(p)
    _add_grid_common(p)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("prime-check", help="division property of a certified ideal")
    p.add_argument("--a", required=True, help="divisor, essentially bounded below")
    p.add_argument("--b", required=True, help="quotient candidate")
    _add_ideal(p)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    _add_grid_common(p)
    p.set_defaults(func=_cmd_prime_check)

    p = sub.add_parser("reproduce", help="run a named reproduction bundle")
    p.add_argument("name", help="bundle name; see package README for the registry")
    _add_grid_common(p)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def _with_config(parser: argparse.ArgumentParser, argv: list[str], path_text: str):
    """Parse ``argv`` again with each config key as a ``--key=value`` token
    right after the command, so argparse checks config values exactly as it
    checks flags, and a flag on the command line, coming later, wins."""
    path = Path(path_text)
    if not path.exists():
        raise OSError(f"config file not found: {path_text}")
    values = _read_json(path.read_bytes(), "config file")
    if not isinstance(values, dict):
        raise ValueError("config file must hold a JSON object")
    tokens = []
    for key, value in values.items():
        # argparse would take the text of a list or object as a plain value;
        # the refusal names its type only, as the value may be any size
        if isinstance(value, (list, dict)):
            kind = "a list" if isinstance(value, list) else "an object"
            raise ValueError(f"config key {key!r}: {kind} is not an option value")
        if value is not None:  # JSON null leaves the option unset
            tokens.append(f"--{key.replace('_', '-')}={value}")
    try:  # argv parsed once already, so argv[0] is the command
        return parser.parse_args([argv[0], *tokens, *argv[1:]])
    except argparse.ArgumentError as exc:
        raise ValueError(f"config file {path_text}: {exc}") from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line and return its exit code. A command returns None,
    or the failure record of a failed certificate or bundle; a raised error
    becomes the same record. Only here is a record written to stderr. A usage
    error exits with 1, as argparse exits for ``--help``."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    usage = False
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = _with_config(parser, argv, args.config)
        failure, code = args.func(args), 2
    except argparse.ArgumentError as exc:
        usage, failure, code = True, {"error": "usage", "message": str(exc)}, 1
    except HardyLabError as exc:
        failure, code = exc.payload(), 2
    except (OSError, ValueError) as exc:
        failure, code = {"error": "io-format", "message": str(exc)}, 1
    if failure is None:
        return 0
    sys.stderr.write(dump_text(failure))
    if usage:
        raise SystemExit(code)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
