"""Command line interface.

Exit codes: 0 on success, 2 on domain errors (non-outer generator, unknown
example, hypothesis failures, ...), 1 on I/O, format, or usage errors. Every
error is mirrored as a one-line JSON object on stderr. Reports are printed to
stdout and, with ``--out DIR``, written alongside their CSV companions;
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import reproduce as reproduce_mod
from .catalog import catalog_names, get_example
from .errors import HardyLabError, UnknownExample
from .factorization import (
    CLIP_FLOOR,
    clipped_log_modulus,
    inner_outer,
    is_inner,
    is_outer,
    synth_outer,
)
from .grid import CircleGrid, signal_from_csv, signal_to_csv, signal_from_values
from .hardy import AnalyticRep
from .ideals import (
    DEFAULT_MAIN_STAGES,
    DEFAULT_PEAK_SCHEDULE,
    analytic_prime_check,
    approx_unit_peak,
    approx_unit_sublevel,
    certify_mideal,
    ideal,
    membership,
)
from .serialize import (
    certificate_report,
    dump_text,
    stage_report,
    zero_set_report,
    zinfty_report_dict,
)
from .toeplitz import (
    DENSITY_SCHEDULE,
    adjoint_kernel_dim,
    density_profile,
    density_profile_csv,
    szego_distance,
)
from .zerosets import in_disc_algebra, zinfty_report

DEFAULT_GRID_SIZE = 16384


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors remapped to exit code 1 + JSON stderr."""

    def error(self, message):
        sys.stderr.write(dump_text({"error": "usage", "message": message}))
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# input resolution
# ---------------------------------------------------------------------------

def _resolve_signal(token: str, grid_size: int):
    """A boundary signal: '-' for stdin CSV, a registry name, or a CSV path."""
    if token == "-":
        return signal_from_csv(sys.stdin.read())
    if token in catalog_names():
        return get_example(token).boundary(CircleGrid(grid_size))
    path = Path(token)
    if path.exists():
        return signal_from_csv(path.read_text())
    raise UnknownExample(
        f"{token!r} is neither a registry name nor a readable CSV file; "
        f"known names: {', '.join(catalog_names())}"
    )


def _resolve_taylor(token: str) -> AnalyticRep:
    """An analytic (Taylor) representation: registry name or JSON path."""
    if token in catalog_names():
        return get_example(token).taylor()
    path = Path(token)
    if path.exists():
        return AnalyticRep.from_json(path.read_text())
    raise UnknownExample(
        f"{token!r} is neither a registry name nor a readable JSON file"
    )


def _resolve_log_modulus(token: str, grid_size: int):
    """A real log-modulus signal for outer synthesis."""
    grid = CircleGrid(grid_size)
    if token in catalog_names():
        entry = get_example(token)
        if entry.log_modulus_fn is not None:
            return signal_from_values(grid, entry.log_modulus_fn(grid.nodes).astype(complex))
        return clipped_log_modulus(entry.boundary(grid))
    if token == "-":
        sig = signal_from_csv(sys.stdin.read())
    else:
        path = Path(token)
        if not path.exists():
            raise UnknownExample(
                f"{token!r} is neither a registry name nor a readable CSV file"
            )
        sig = signal_from_csv(path.read_text())
    if not sig.is_real(1e-9):
        raise ValueError("log-modulus input must be real-valued")
    return signal_from_values(sig.grid, sig.values.real.astype(complex))


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _write(out: Optional[str], name: str, text: str) -> None:
    if out is None:
        return
    directory = Path(out)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(text)


def _emit(report: dict, out: Optional[str]) -> None:
    text = dump_text(report)
    sys.stdout.write(text)
    _write(out, "report.json", text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_synth_outer(args) -> int:
    k = _resolve_log_modulus(args.k, args.grid_size)
    outer = synth_outer(k)
    clipped = np.mean(outer.log_modulus.values.real <= CLIP_FLOOR)
    report = {
        "grid_size": k.grid.size,
        "clip_floor": CLIP_FLOOR,
        "clipped_fraction": float(clipped),
        "value_at_zero": outer.value_at_zero(),
        "boundary_sup": float(np.max(np.abs(outer.boundary.values))),
    }
    if args.out is not None:
        _write(args.out, "boundary.csv", signal_to_csv(outer.boundary))
        _write(args.out, "log_modulus.csv", signal_to_csv(outer.log_modulus))
    _emit(report, args.out)
    return 0


def _cmd_factorize(args) -> int:
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
        _write(args.out, "inner.csv", signal_to_csv(result.inner))
        _write(args.out, "outer.csv", signal_to_csv(result.outer.boundary))
    _emit(report, args.out)
    return 0


def _cmd_zeroset(args) -> int:
    f = _resolve_signal(args.f, args.grid_size)
    rep = zinfty_report(f)
    report = {
        "grid_size": f.grid.size,
        "zero_set": zero_set_report(rep.zero_set),
        "in_zinfty": rep.in_class,
        "in_disc_algebra": in_disc_algebra(f),
        "zinfty": zinfty_report_dict(rep),
    }
    _emit(report, args.out)
    return 0


def _cmd_density(args) -> int:
    f = _resolve_taylor(args.f)
    if args.M is not None:
        d = szego_distance(f, args.M)
        report = {
            "f": args.f,
            "M": args.M,
            "distance": d,
            "distance_squared": d * d,
        }
        _emit(report, args.out)
        return 0
    schedule = _parse_ints(args.schedule) if args.schedule else DENSITY_SCHEDULE
    profile = density_profile(f, schedule)
    report = {
        "f": args.f,
        "profile": [{"M": m, "distance": d} for m, d in profile],
    }
    if args.out is not None:
        _write(args.out, "density.csv", density_profile_csv(profile))
    _emit(report, args.out)
    return 0


def _cmd_toeplitz_kernel(args) -> int:
    f = _resolve_taylor(args.f)
    dim = adjoint_kernel_dim(f, args.M, tol=args.tol)
    _emit({"f": args.f, "M": args.M, "tol": args.tol, "kernel_dim": dim}, args.out)
    return 0


def _split_names(text: str) -> list[str]:
    names = [p.strip() for p in text.split(",") if p.strip()]
    if not names:
        raise ValueError("expected at least one generator name")
    return names


def _build_ideal(args):
    names = _split_names(args.generators)
    gens = [_resolve_signal(n, args.grid_size) for n in names]
    return ideal(gens, names)


def _cmd_approx_unit(args) -> int:
    spec = _build_ideal(args)
    if args.strategy == "peak":
        prep, stages = approx_unit_peak(
            spec,
            schedule=_parse_ints(args.schedule) if args.schedule else DEFAULT_PEAK_SCHEDULE,
        )
        report = {"strategy": "peak", "alpha": prep.alpha, "rescaled": prep.rescaled}
    else:
        stages = approx_unit_sublevel(
            spec,
            stages=_parse_ints(args.stages) if args.stages else DEFAULT_MAIN_STAGES,
        )
        report = {"strategy": "sublevel"}
    report["stages"] = [stage_report(s) for s in stages]
    if args.out is not None:
        for s in stages:
            _write(args.out, f"unit-{s.index:04d}.csv", signal_to_csv(s.unit))
    _emit(report, args.out)
    return 0


def _cmd_certify(args) -> int:
    spec = _build_ideal(args)
    cert = certify_mideal(
        spec,
        strategy=args.strategy,
        tol=args.tol,
        bound=args.bound,
        stages=_parse_ints(args.stages) if args.stages else None,
        schedule=_parse_ints(args.schedule) if args.schedule else None,
    )
    _emit(certificate_report(cert), args.out)
    if args.out is not None and cert.final_unit is not None:
        _write(args.out, "final-unit.csv", signal_to_csv(cert.final_unit))
    if not cert.passed:
        sys.stderr.write(
            dump_text(
                {
                    "error": cert.failure_reason or "CertificationFailed",
                    "message": cert.conclusion,
                }
            )
        )
        return 2
    return 0


def _cmd_member(args) -> int:
    spec = _build_ideal(args)
    cert = certify_mideal(spec, strategy=args.strategy, tol=args.tol)
    h = _resolve_signal(args.h, args.grid_size)
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
    return 0


def _cmd_prime_check(args) -> int:
    spec = _build_ideal(args)
    cert = certify_mideal(spec, strategy=args.strategy, tol=args.tol)
    a = _resolve_signal(args.a, args.grid_size)
    b = _resolve_signal(args.b, args.grid_size)
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
    return 0


def _cmd_reproduce(args) -> int:
    out_dir = Path(args.out) if args.out else Path.cwd()
    summary = reproduce_mod.run_bundle(args.name, out_dir, grid_size=args.grid_size)
    sys.stdout.write(dump_text(summary))
    return 0 if summary["passed"] else 2


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE,
                   help="number of circle nodes (power of two)")
    p.add_argument("--out", default=None, help="directory for report + CSV output")
    p.add_argument("--config", default=None, help="JSON file with default options")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hardylab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-outer", help="synthesize an outer function from log-modulus data")
    p.add_argument("--k", required=True, help="log-modulus: registry name, CSV path, or '-'")
    _add_common(p)
    p.set_defaults(func=_cmd_synth_outer)

    p = sub.add_parser("factorize", help="inner/outer factorization of boundary data")
    p.add_argument("--f", required=True, help="signal: registry name, CSV path, or '-'")
    _add_common(p)
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("zeroset", help="essential zero set and continuous extendability")
    p.add_argument("--f", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_zeroset)

    p = sub.add_parser("density", help="least-squares density profile of an analytic symbol")
    p.add_argument("--f", required=True, help="registry name or AnalyticRep JSON path")
    p.add_argument("--M", type=int, default=None, help="single truncation order")
    p.add_argument("--schedule", default=None, help="comma-separated truncation orders")
    _add_common(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("toeplitz-kernel", help="adjoint kernel dimension of the truncation")
    p.add_argument("--f", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    _add_common(p)
    p.set_defaults(func=_cmd_toeplitz_kernel)

    p = sub.add_parser("approx-unit", help="construct approximate-unit stages for an ideal")
    p.add_argument("--generators", required=True, help="comma-separated signals")
    p.add_argument("--strategy", choices=["sublevel", "peak"], default="sublevel")
    p.add_argument("--stages", default=None, help="sublevel stage indices, comma-separated")
    p.add_argument("--schedule", default=None, help="peak powers, comma-separated")
    _add_common(p)
    p.set_defaults(func=_cmd_approx_unit)

    p = sub.add_parser("certify", help="certify a bounded approximate unit")
    p.add_argument("--generators", required=True)
    p.add_argument("--strategy", choices=["auto", "sublevel", "peak", "combined"], default="auto")
    p.add_argument("--tol", type=float, default=0.05)
    p.add_argument("--bound", type=float, default=2.0)
    p.add_argument("--stages", default=None)
    p.add_argument("--schedule", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("member", help="membership of a function in a certified ideal")
    p.add_argument("--h", required=True)
    p.add_argument("--generators", required=True)
    p.add_argument("--strategy", choices=["auto", "sublevel", "peak", "combined"], default="auto")
    p.add_argument("--tol", type=float, default=0.05)
    _add_common(p)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("prime-check", help="division property of a certified ideal")
    p.add_argument("--a", required=True, help="divisor, essentially bounded below")
    p.add_argument("--b", required=True, help="quotient candidate")
    p.add_argument("--generators", required=True)
    p.add_argument("--strategy", choices=["auto", "sublevel", "peak", "combined"], default="auto")
    p.add_argument("--tol", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=0.5)
    _add_common(p)
    p.set_defaults(func=_cmd_prime_check)

    p = sub.add_parser("reproduce", help="run a named reproduction bundle")
    p.add_argument("name", help="bundle name; see package README for the registry")
    _add_common(p)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if getattr(args, "config", None) is None:
        return
    path = Path(args.config)
    if not path.exists():
        raise OSError(f"config file not found: {args.config}")
    try:
        values = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(values, dict):
        raise ValueError("config file must hold a JSON object")
    # Flags given on the command line override config values; a config value
    # only lands when the option still carries its parser default, and it is
    # parsed as if it had been given on the command line.
    actions = {a.dest: a for a in parser._actions}
    for key, value in values.items():
        dest = key.replace("-", "_")
        action = actions.get(dest)
        if action is None or not hasattr(args, dest):
            raise ValueError(f"config key {key!r} is not an option of this command")
        # JSON null leaves the option unset, as if the key were absent.
        if value is None or getattr(args, dest) != action.default:
            continue
        try:
            if isinstance(value, (list, dict)):
                raise ValueError
            value = (action.type or str)(str(value))
        except ValueError:
            raise ValueError(f"config key {key!r}: invalid value {value!r}") from None
        if action.choices is not None and value not in action.choices:
            raise ValueError(
                f"config key {key!r}: {value!r} is not one of {list(action.choices)}"
            )
        setattr(args, dest, value)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # find the subparser that owns this command for config defaults
        sub_actions = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        _apply_config(args, sub_actions[0].choices[args.command])
        return args.func(args)
    except HardyLabError as exc:
        sys.stderr.write(dump_text(exc.payload()))
        return 2
    except (OSError, ValueError) as exc:
        sys.stderr.write(dump_text({"error": "io-format", "message": str(exc)}))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
