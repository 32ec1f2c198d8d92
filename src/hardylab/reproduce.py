"""Named reproduction bundles.

Each bundle re-runs one self-contained analysis from the built-in corpus and
writes a directory with the exact configuration, the input data, the output
reports, and a pass/fail summary whose checks cross-link the acceptance
criteria they witness (by number, matching ``tests/test_acceptance.py``).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable

import numpy as np

from .catalog import example_boundary, get_example
from .errors import RangeMiss, UnknownExample
from .factorization import is_inner
from .grid import DEFAULT_GRID_SIZE, BoundarySignal, CircleGrid, _write_file, circular_distance
from .ideals import (
    approx_unit_peak,
    approx_unit_sublevel,
    certify_mideal,
    ideal,
    membership,
    prepare_peak,
    stage_unit,
)
from .serialize import (
    certificate_report,
    dump_text,
    stage_report,
    zero_set_report,
    zinfty_report_dict,
)
from .toeplitz import density_profile, density_profile_csv, szego_distance
from .zerosets import essential_zero_set, in_disc_algebra, zinfty_report

MEMBERSHIP_PROBES = (
    "one-minus-z",
    "one-minus-z-squared",
    "shift-times-one-minus-z",
    "two-point-product",
    "exp-z",
    "shift",
    "constant-one",
    "singular-inner-1",
    "one-plus-z",
)


class _Bundle:
    """Collects inputs, outputs, and checks, then writes the directory."""

    def __init__(self, name: str, root: Path, grid_size: int):
        self.name = name
        self.dir = root / name
        self.grid_size = grid_size
        self.grid = CircleGrid(grid_size)
        self.checks: list[dict] = []
        #: path under the bundle directory ("inputs/..." or "outputs/...") ->
        #: its text, or the signal written there as CSV
        self.files: dict[str, str | BoundarySignal] = {}

    def check(self, label: str, passed: bool, detail: str) -> None:
        self.checks.append({"name": label, "passed": bool(passed), "detail": detail})

    def finish(self, criteria: tuple[int, ...]) -> dict:
        summary = {
            "bundle": self.name,
            "grid_size": self.grid_size,
            "criteria": list(criteria),
            "checks": self.checks,
            "passed": all(c["passed"] for c in self.checks),
        }
        config = {"bundle": self.name, "grid_size": self.grid_size}
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "config.json").write_text(dump_text(config))
        for rel, content in self.files.items():
            (self.dir / rel).parent.mkdir(exist_ok=True)
            _write_file(self.dir / rel, content)
        (self.dir / "summary.json").write_text(dump_text(summary))
        return summary


# ---------------------------------------------------------------------------
# bundle bodies
# ---------------------------------------------------------------------------

def _zeroset_banded(b: _Bundle) -> None:
    entry = get_example("banded-logmod")
    b.files["inputs/log_modulus.csv"] = entry.log_modulus(b.grid)
    f = entry.boundary(b.grid)
    est = essential_zero_set(f)
    b.files["outputs/zeroset.json"] = dump_text(zero_set_report(est))
    b.check(
        "single essential zero at angle 0",
        len(est.angles) == 1 and circular_distance(est.angles[0], 0.0) <= est.resolution,
        f"angles={list(est.angles)}, resolution={est.resolution:.3e}",
    )


def _zeroset_two_point(b: _Bundle) -> None:
    f = example_boundary("two-point-product", b.grid)
    b.files["inputs/two-point-product.csv"] = f
    rep = zinfty_report(f)
    est = rep.zero_set
    in_da = in_disc_algebra(f)
    b.files["outputs/zinfty.json"] = dump_text(zinfty_report_dict(rep))
    targets = (0.0, 3.0 * math.pi / 2.0)
    hit = len(est.angles) == 2 and all(
        min(circular_distance(a, t) for a in est.angles) <= est.resolution for t in targets
    )
    b.check(
        "essential zeros at angles 0 and 3*pi/2",
        hit,
        f"angles={list(est.angles)}",
    )
    b.check("extends continuously to its zero set", rep.in_class, "")
    b.check(
        "yet is not continuous on the whole circle",
        not in_da,
        "discontinuity at the singular accumulation point",
    )


def _inner_generator_rejected(b: _Bundle) -> None:
    for name in ("shift", "shift-squared", "singular-inner-1"):
        f = example_boundary(name, b.grid)
        cert = certify_mideal(ideal([f], [name]))
        b.files[f"outputs/certificate-{name}.json"] = dump_text(certificate_report(cert))
        b.check(
            f"{name}: certification fails with NotOuter",
            (not cert.passed) and cert.failure_reason == "NotOuter",
            cert.conclusion,
        )
        b.check(f"{name}: flagged inner", is_inner(f), "")


def _polynomial_zero_location(b: _Bundle) -> None:
    f = example_boundary("one-minus-z", b.grid)
    for strategy in ("sublevel", "peak"):
        cert = certify_mideal(ideal([f], ["one-minus-z"]), strategy=strategy)
        b.files[f"outputs/certificate-{strategy}.json"] = dump_text(certificate_report(cert))
        b.check(
            f"one-minus-z certifies via {strategy}",
            cert.passed,
            f"final error {cert.final_error:.3e}",
        )
    z = example_boundary("shift", b.grid)
    cert = certify_mideal(ideal([z], ["shift"]))
    b.files["outputs/certificate-shift.json"] = dump_text(certificate_report(cert))
    b.check(
        "shift is rejected (inner generator)",
        (not cert.passed) and cert.failure_reason == "NotOuter",
        cert.conclusion,
    )


def _unit_staircase(b: _Bundle) -> None:
    f = example_boundary("one-minus-z", b.grid)
    spec = ideal([f], ["one-minus-z"])
    stages = approx_unit_sublevel(spec)
    b.files["outputs/staircase.json"] = dump_text({"stages": [stage_report(s) for s in stages]})
    b.files["outputs/final-unit.csv"] = stage_unit(spec, stages[-1])
    dichotomy = all(
        s.off_support_deviation <= 1e-6 and s.on_support_max <= s.eps + 1e-6
        for s in stages
    )
    errors = [s.error for s in stages]
    monotone = all(b2 <= a + 1e-12 for a, b2 in zip(errors, errors[1:]))
    b.check("two-case modulus bound at every stage", dichotomy, "")
    b.check(
        "errors nonincreasing, final below 0.05",
        monotone and errors[-1] < 0.05,
        f"errors={['%.3e' % e for e in errors]}",
    )


def _peak_decay(b: _Bundle) -> None:
    f = example_boundary("one-minus-z", b.grid)
    spec = ideal([f], ["one-minus-z"])
    _, probe = approx_unit_peak(spec, schedule=(3, 8))
    rows = []
    closed_ok = True
    for s in probe:
        n = s.index
        expected = math.sqrt(n ** n / float((n + 1) ** (n + 1)))
        rows.append({"power": n, "error": s.error, "closed_form": expected})
        closed_ok &= abs(s.error - expected) <= 1e-4
    b.files["outputs/closed-form.json"] = dump_text({"stages": rows})
    b.check("stage errors match the closed form at powers 3 and 8", closed_ok, "")
    cert = certify_mideal(spec, strategy="peak", tol=0.05)
    b.files["outputs/certificate.json"] = dump_text(certificate_report(cert))
    b.check(
        "certification passes by power 200",
        cert.passed and cert.stages[-1].index <= 200,
        f"final power {cert.stages[-1].index if cert.stages else 'n/a'}, "
        f"error {cert.final_error:.4f}",
    )


def _disjoint_zeros_combined(b: _Bundle) -> None:
    gens = [example_boundary("one-minus-z", b.grid), example_boundary("one-plus-z", b.grid)]
    cert = certify_mideal(ideal(gens, ["one-minus-z", "one-plus-z"]), strategy="combined")
    b.files["outputs/certificate.json"] = dump_text(certificate_report(cert))
    # |1 - z|^2 + |1 + z|^2 = 4 on the circle, so the larger is at least sqrt 2
    joint = float(np.min(np.maximum(np.abs(gens[0].values), np.abs(gens[1].values))))
    b.check(
        "joint modulus max(|1-z|, |1+z|) >= sqrt 2 at every node",
        joint >= math.sqrt(2.0) - 1e-12,
        f"least joint modulus {joint:.12g}",
    )
    b.check(
        "conclusion: the ideal is everything (I = I(1))",
        cert.passed and "I = I(1)" in cert.conclusion,
        cert.conclusion,
    )


def _shared_zero_combined(b: _Bundle) -> None:
    f1 = example_boundary("one-minus-z", b.grid)
    f2 = example_boundary("one-minus-z-times-exp", b.grid)
    pair = certify_mideal(
        ideal([f1, f2], ["one-minus-z", "one-minus-z-times-exp"]), strategy="combined"
    )
    single = pair.sub_certificates[0]
    b.files["outputs/certificate-pair.json"] = dump_text(certificate_report(pair))
    b.files["outputs/certificate-single.json"] = dump_text(certificate_report(single))
    b.check("pair certification passes", pair.passed, pair.conclusion)
    label = "membership sets coincide with the single-generator ideal"
    if not (pair.passed and single.passed):
        # membership is defined only for certified ideals
        b.check(label, False, "not compared: membership needs both certificates to pass")
        return
    rows = []
    agree = True
    for probe in MEMBERSHIP_PROBES:
        h = example_boundary(probe, b.grid)
        m_pair = membership(h, pair)
        m_single = membership(h, single)
        rows.append({"h": probe, "pair": m_pair, "single": m_single})
        agree &= m_pair == m_single
    b.files["outputs/membership.json"] = dump_text({"probes": rows})
    b.check(label, agree, f"{len(rows)} probes")


def _offrange_peak(b: _Bundle) -> None:
    f = example_boundary("two-plus-z", b.grid)
    b.files["inputs/two-plus-z.csv"] = f
    try:
        prepare_peak(f)
        refused, detail = False, "RangeMiss was not raised"
    except RangeMiss as exc:
        b.files["outputs/error.json"] = dump_text(exc.payload())
        refused, detail = True, str(exc)
    b.check("peak alignment refuses a generator bounded away from zero", refused, detail)


def _ramp_peak(b: _Bundle) -> None:
    f = example_boundary("offset-ramp", b.grid)
    b.files["inputs/offset-ramp.csv"] = f
    cert = certify_mideal(ideal([f], ["offset-ramp"]), strategy="peak")
    b.files["outputs/certificate.json"] = dump_text(certificate_report(cert))
    b.check(
        "offset ramp certifies via peak units",
        cert.passed,
        f"final error {cert.final_error:.4f} at power "
        f"{cert.stages[-1].index if cert.stages else 'n/a'}",
    )


def _szego_dichotomy(b: _Bundle) -> None:
    one_minus_z = get_example("one-minus-z").taylor()
    shift = get_example("shift").taylor()
    blaschke = get_example("blaschke-half").taylor()

    rows = []
    law_ok = True
    for m, d in density_profile(one_minus_z, (15, 63, 255)):
        rows.append({"f": "one-minus-z", "M": m, "distance": d})
        law_ok &= abs(d * d - 1.0 / (m + 1)) <= 1e-9
    b.check("distance^2 for 1 - z follows the 1/(M+1) law", law_ok, "")

    shift_ok = True
    for m, d in density_profile(shift, (4, 64, 256)):
        rows.append({"f": "shift", "M": m, "distance": d})
        shift_ok &= abs(d - 1.0) <= 1e-12
    b.check("the shift keeps distance exactly 1", shift_ok, "")

    d_blaschke = szego_distance(blaschke, 512)
    rows.append({"f": "blaschke-half", "M": 512, "distance": d_blaschke})
    b.check(
        "Blaschke factor levels off at sqrt(1 - 1/4)",
        abs(d_blaschke - math.sqrt(0.75)) <= 1e-2,
        f"distance {d_blaschke:.6f}",
    )
    b.files["outputs/distances.json"] = dump_text({"rows": rows})
    b.files["outputs/density-one-minus-z.csv"] = density_profile_csv(density_profile(one_minus_z))


#: bundle name -> (acceptance criteria it witnesses, body)
_BUNDLES: dict[str, tuple[tuple[int, ...], Callable[[_Bundle], None]]] = {
    "zeroset-banded": ((6,), _zeroset_banded),
    "zeroset-two-point": ((6,), _zeroset_two_point),
    "inner-generator-rejected": ((7,), _inner_generator_rejected),
    "polynomial-zero-location": ((4, 5, 7), _polynomial_zero_location),
    "unit-staircase": ((5,), _unit_staircase),
    "peak-decay": ((4,), _peak_decay),
    "disjoint-zeros-combined": ((11,), _disjoint_zeros_combined),
    "shared-zero-combined": ((11,), _shared_zero_combined),
    "offrange-peak": ((4,), _offrange_peak),
    "ramp-peak": ((4,), _ramp_peak),
    "szego-dichotomy": ((3, 9), _szego_dichotomy),
}


def bundle_names() -> tuple[str, ...]:
    return tuple(sorted(_BUNDLES))


def run_bundle(name: str, out_root: Path, grid_size: int = DEFAULT_GRID_SIZE) -> dict:
    try:
        criteria, body = _BUNDLES[name]
    except KeyError:
        known = ", ".join(bundle_names())
        raise UnknownExample(f"unknown bundle {name!r}; known bundles: {known}") from None
    bundle = _Bundle(name, Path(out_root), grid_size)
    body(bundle)
    return bundle.finish(criteria)
