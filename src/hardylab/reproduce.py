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

from .catalog import get_example
from .errors import RangeMiss, UnknownExample
from .factorization import is_inner
from .grid import CircleGrid, circular_distance, signal_from_values, signal_to_csv
from .ideals import (
    approx_unit_peak,
    approx_unit_sublevel,
    certify_mideal,
    ideal,
    membership,
    prepare_peak,
)
from .serialize import certificate_report, dump_text, zero_set_report, zinfty_report_dict
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


def _boundary(name: str, grid_size: int):
    return get_example(name).boundary(CircleGrid(grid_size))


class _Bundle:
    """Collects inputs, outputs, and checks, then writes the directory."""

    def __init__(self, name: str, root: Path, grid_size: int):
        self.name = name
        self.dir = root / name
        self.grid_size = grid_size
        self.criteria: list[int] = []
        self.checks: list[dict] = []
        self._inputs: dict[str, str] = {}
        self._outputs: dict[str, str] = {}

    def check(self, label: str, passed: bool, detail: str) -> None:
        self.checks.append({"name": label, "passed": bool(passed), "detail": detail})

    def add_input(self, filename: str, text: str) -> None:
        self._inputs[filename] = text

    def add_input_signal(self, filename: str, name: str) -> None:
        self._inputs[filename] = signal_to_csv(_boundary(name, self.grid_size))

    def add_output(self, filename: str, text: str) -> None:
        self._outputs[filename] = text

    def finish(self, config_extra: dict | None = None) -> dict:
        summary = {
            "bundle": self.name,
            "grid_size": self.grid_size,
            "criteria": sorted(set(self.criteria)),
            "checks": self.checks,
            "passed": all(c["passed"] for c in self.checks),
        }
        config = {"bundle": self.name, "grid_size": self.grid_size}
        if config_extra:
            config.update(config_extra)
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "config.json").write_text(dump_text(config))
        if self._inputs:
            (self.dir / "inputs").mkdir(exist_ok=True)
            for fn, text in self._inputs.items():
                (self.dir / "inputs" / fn).write_text(text)
        if self._outputs:
            (self.dir / "outputs").mkdir(exist_ok=True)
            for fn, text in self._outputs.items():
                (self.dir / "outputs" / fn).write_text(text)
        (self.dir / "summary.json").write_text(dump_text(summary))
        return summary


# ---------------------------------------------------------------------------
# bundle bodies
# ---------------------------------------------------------------------------

def _zeroset_banded(b: _Bundle) -> dict:
    b.criteria.append(6)
    grid = CircleGrid(b.grid_size)
    entry = get_example("banded-logmod")
    k = entry.log_modulus_fn(grid.nodes)
    b.add_input("log_modulus.csv", signal_to_csv(signal_from_values(grid, k.astype(complex))))
    f = entry.boundary(grid)
    est = essential_zero_set(f)
    b.add_output("zeroset.json", dump_text(zero_set_report(est)))
    b.check(
        "single essential zero at angle 0",
        len(est.angles) == 1 and circular_distance(est.angles[0], 0.0) <= est.resolution,
        f"angles={list(est.angles)}, resolution={est.resolution:.3e}",
    )
    return b.finish()


def _zeroset_two_point(b: _Bundle) -> dict:
    b.criteria.append(6)
    b.add_input_signal("two-point-product.csv", "two-point-product")
    f = _boundary("two-point-product", b.grid_size)
    rep = zinfty_report(f)
    est = rep.zero_set
    in_da = in_disc_algebra(f)
    b.add_output("zinfty.json", dump_text(zinfty_report_dict(rep)))
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
    return b.finish()


def _inner_generator_rejected(b: _Bundle) -> dict:
    b.criteria.append(7)
    for name in ("shift", "shift-squared", "singular-inner-1"):
        f = _boundary(name, b.grid_size)
        cert = certify_mideal(ideal([f], [name]))
        b.add_output(f"certificate-{name}.json", dump_text(certificate_report(cert)))
        b.check(
            f"{name}: certification fails with NotOuter",
            (not cert.passed) and cert.failure_reason == "NotOuter",
            cert.conclusion,
        )
        b.check(f"{name}: flagged inner", is_inner(f), "")
    return b.finish()


def _polynomial_zero_location(b: _Bundle) -> dict:
    b.criteria.extend([4, 5, 7])
    f = _boundary("one-minus-z", b.grid_size)
    for strategy in ("sublevel", "peak"):
        cert = certify_mideal(ideal([f], ["one-minus-z"]), strategy=strategy)
        b.add_output(f"certificate-{strategy}.json", dump_text(certificate_report(cert)))
        b.check(
            f"one-minus-z certifies via {strategy}",
            cert.passed,
            f"final error {cert.final_error:.3e}",
        )
    z = _boundary("shift", b.grid_size)
    cert = certify_mideal(ideal([z], ["shift"]))
    b.add_output("certificate-shift.json", dump_text(certificate_report(cert)))
    b.check(
        "shift is rejected (inner generator)",
        (not cert.passed) and cert.failure_reason == "NotOuter",
        cert.conclusion,
    )
    return b.finish()


def _unit_staircase(b: _Bundle) -> dict:
    b.criteria.append(5)
    f = _boundary("one-minus-z", b.grid_size)
    stages = approx_unit_sublevel(ideal([f], ["one-minus-z"]))
    table = [
        {
            "stage": s.index,
            "eps": s.eps,
            "support_measure": s.support_measure,
            "off_support_deviation": s.off_support_deviation,
            "on_support_max": s.on_support_max,
            "value_at_zero": s.value_at_zero,
            "error": s.error,
        }
        for s in stages
    ]
    b.add_output("staircase.json", dump_text({"stages": table}))
    b.add_output("final-unit.csv", signal_to_csv(stages[-1].unit))
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
    return b.finish()


def _peak_decay(b: _Bundle) -> dict:
    b.criteria.append(4)
    f = _boundary("one-minus-z", b.grid_size)
    spec = ideal([f], ["one-minus-z"])
    _, probe = approx_unit_peak(spec, schedule=(3, 8))
    rows = []
    closed_ok = True
    for s in probe:
        n = s.index
        expected = math.sqrt(n ** n / float((n + 1) ** (n + 1)))
        rows.append({"power": n, "error": s.error, "closed_form": expected})
        closed_ok &= abs(s.error - expected) <= 1e-4
    b.add_output("closed-form.json", dump_text({"stages": rows}))
    b.check("stage errors match the closed form at powers 3 and 8", closed_ok, "")
    cert = certify_mideal(spec, strategy="peak", tol=0.05)
    b.add_output("certificate.json", dump_text(certificate_report(cert)))
    b.check(
        "certification passes by power 200",
        cert.passed and cert.stages[-1].index <= 200,
        f"final power {cert.stages[-1].index}, error {cert.final_error:.4f}",
    )
    return b.finish()


def _disjoint_zeros_combined(b: _Bundle) -> dict:
    b.criteria.append(11)
    gens = [_boundary("one-minus-z", b.grid_size), _boundary("one-plus-z", b.grid_size)]
    cert = certify_mideal(ideal(gens, ["one-minus-z", "one-plus-z"]), strategy="combined")
    b.add_output("certificate.json", dump_text(certificate_report(cert)))
    b.check(
        "combined unit essentially bounded below by 0.9",
        cert.combined_inf is not None and cert.combined_inf > 0.9,
        f"ess inf {cert.combined_inf}",
    )
    b.check(
        "conclusion: the ideal is everything (I = I(1))",
        cert.passed and "I = I(1)" in cert.conclusion,
        cert.conclusion,
    )
    return b.finish()


def _shared_zero_combined(b: _Bundle) -> dict:
    b.criteria.append(11)
    f1 = _boundary("one-minus-z", b.grid_size)
    f2 = _boundary("one-minus-z-times-exp", b.grid_size)
    pair = certify_mideal(
        ideal([f1, f2], ["one-minus-z", "one-minus-z-times-exp"]), strategy="combined"
    )
    single = certify_mideal(ideal([f1], ["one-minus-z"]))
    b.add_output("certificate-pair.json", dump_text(certificate_report(pair)))
    b.add_output("certificate-single.json", dump_text(certificate_report(single)))
    b.check("pair certification passes", pair.passed, pair.conclusion)
    rows = []
    agree = True
    for probe in MEMBERSHIP_PROBES:
        h = _boundary(probe, b.grid_size)
        m_pair = membership(h, pair)
        m_single = membership(h, single)
        rows.append({"h": probe, "pair": m_pair, "single": m_single})
        agree &= m_pair == m_single
    b.add_output("membership.json", dump_text({"probes": rows}))
    b.check(
        "membership sets coincide with the single-generator ideal",
        agree,
        f"{len(rows)} probes",
    )
    return b.finish()


def _offrange_peak(b: _Bundle) -> dict:
    b.criteria.append(4)
    f = _boundary("two-plus-z", b.grid_size)
    b.add_input_signal("two-plus-z.csv", "two-plus-z")
    try:
        prepare_peak(f)
    except RangeMiss as exc:
        b.add_output("error.json", dump_text(exc.payload()))
        b.check(
            "peak alignment refuses a generator bounded away from zero",
            True,
            str(exc),
        )
    else:
        b.check(
            "peak alignment refuses a generator bounded away from zero",
            False,
            "RangeMiss was not raised",
        )
    return b.finish()


def _ramp_peak(b: _Bundle) -> dict:
    b.criteria.append(4)
    f = _boundary("offset-ramp", b.grid_size)
    b.add_input_signal("offset-ramp.csv", "offset-ramp")
    cert = certify_mideal(ideal([f], ["offset-ramp"]), strategy="peak")
    b.add_output("certificate.json", dump_text(certificate_report(cert)))
    b.check(
        "offset ramp certifies via peak units",
        cert.passed,
        f"final error {cert.final_error:.4f} at power "
        f"{cert.stages[-1].index if cert.stages else 'n/a'}",
    )
    return b.finish()


def _szego_dichotomy(b: _Bundle) -> dict:
    b.criteria.extend([3, 9])
    one_minus_z = get_example("one-minus-z").taylor()
    shift = get_example("shift").taylor()
    blaschke = get_example("blaschke-half").taylor()

    rows = []
    law_ok = True
    for m in (15, 63, 255):
        d = szego_distance(one_minus_z, m)
        rows.append({"f": "one-minus-z", "M": m, "distance": d})
        law_ok &= abs(d * d - 1.0 / (m + 1)) <= 1e-9
    b.check("distance^2 for 1 - z follows the 1/(M+1) law", law_ok, "")

    shift_ok = True
    for m in (4, 64, 256):
        d = szego_distance(shift, m)
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
    b.add_output("distances.json", dump_text({"rows": rows}))
    b.add_output(
        "density-one-minus-z.csv",
        density_profile_csv(density_profile(one_minus_z)),
    )
    return b.finish()


_BUNDLES: dict[str, Callable[[_Bundle], dict]] = {
    "zeroset-banded": _zeroset_banded,
    "zeroset-two-point": _zeroset_two_point,
    "inner-generator-rejected": _inner_generator_rejected,
    "polynomial-zero-location": _polynomial_zero_location,
    "unit-staircase": _unit_staircase,
    "peak-decay": _peak_decay,
    "disjoint-zeros-combined": _disjoint_zeros_combined,
    "shared-zero-combined": _shared_zero_combined,
    "offrange-peak": _offrange_peak,
    "ramp-peak": _ramp_peak,
    "szego-dichotomy": _szego_dichotomy,
}


def bundle_names() -> tuple[str, ...]:
    return tuple(sorted(_BUNDLES))


def run_bundle(name: str, out_root: Path, grid_size: int = 16384) -> dict:
    try:
        body = _BUNDLES[name]
    except KeyError:
        known = ", ".join(bundle_names())
        raise UnknownExample(f"unknown bundle {name!r}; known bundles: {known}") from None
    return body(_Bundle(name, Path(out_root), grid_size))
