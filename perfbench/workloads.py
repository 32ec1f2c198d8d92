"""The four workloads: seeded op cycles, each op with its closed-form check.

An op is one ``hardylab`` CLI command. ``build(name, seed, work)`` writes the
workload's inputs under ``work`` and returns the cycle of ops; structure
(which commands, how many zeros, their orders, on-node or between nodes) is
fixed per slot, and the seed draws only angles, scales, exp(cz) factors and
inner-disc zeros, so every seed costs about the same.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from inputs import (
    TWO_PI,
    Draw,
    LogModulus,
    Polynomial,
    Product,
    circular_gap,
    csv_round_trips,
    grid_nodes,
    parse_csv,
    write_csv,
    write_taylor_json,
)

CERTIFY_N = 65536
ZEROSET_N = 16384
SYNTH_N = 65536
DENSITY_SCHEDULE = (16, 32, 64, 128, 256, 512, 1024)   # the CLI default
KERNEL_M = 1024

#: Jensen's equality as the program commits to it (``is_outer`` tolerance).
JENSEN_TOL = 1e-2
#: Peak-stage errors against sqrt(n^n/(n+1)^(n+1)) (tier-1 uses 1e-4 abs).
PEAK_TOL = 1e-4
#: dist^2 laws and kernel-route distances.
LAW_TOL = 1e-9
#: |boundary| = e^k for synthesized outer functions.
MODULUS_TOL = 1e-12

#: Zero-angle errors are quantized to the half-node lattice, so their worst
#: case jumps between 0 and h/2 from seed to seed; the zero-angle check
#: reports their RMS over the run instead.
RMS_TAGS = frozenset({"angle"})


@dataclass
class Result:
    rc: int
    out: str
    err: str
    out_dir: Optional[Path]

    def report(self) -> dict:
        return json.loads(self.out)

    def error(self) -> dict:
        return json.loads(self.err) if self.err.strip() else {}


@dataclass
class Checked:
    """Failed expectations plus relative errors grouped by check tag."""

    problems: list[str] = field(default_factory=list)
    rel: dict[str, list[float]] = field(default_factory=dict)

    def expect(self, cond: bool, msg: str) -> None:
        if not cond:
            self.problems.append(msg)

    def close(self, tag: str, got: float, want: float, tol: float, what: str) -> None:
        err = abs(got - want) / abs(want) if want != 0 else abs(got)
        self.rel.setdefault(tag, []).append(err)
        self.expect(err <= tol, f"{what}: {got!r} vs closed form {want!r} (rel err {err:.3g})")


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[Result, Checked], None]
    out_dir: Optional[Path] = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    digit_tags: tuple[str, ...]
    warmup: list[list[str]]
    grid_size: int
    #: busy seconds of one cycle on the reference machine (ENVIRONMENT.json)
    cycle_s: float = 10.0
    #: the cycle op run once at full size before timing (a cheap one)
    warm_op: int = 0


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def _ok_report(res: Result, chk: Checked) -> Optional[dict]:
    chk.expect(res.rc == 0, f"exit code {res.rc}, stderr {res.err.strip()[:200]!r}")
    if res.rc != 0:
        return None
    try:
        return res.report()
    except json.JSONDecodeError:
        chk.problems.append("stdout is not JSON")
        return None


def _angles_match(chk: Checked, got, want, resolution: float, what: str, tag="angle") -> None:
    got = [float(a) for a in got]
    chk.expect(len(got) == len(want), f"{what}: {len(got)} zero angles, closed form has {len(want)}")
    for w in want:
        gap = min((circular_gap(g, w) for g in got), default=math.inf)
        chk.expect(gap <= resolution, f"{what}: zero at {w:.9g} missed by {gap:.3g} > {resolution:.3g}")
        if gap <= resolution:   # a missed zero is a failure, not an accuracy figure
            chk.rel.setdefault(tag, []).append(gap / TWO_PI)


def peak_closed_form(n: int) -> float:
    return math.sqrt(math.exp(n * math.log(n) - (n + 1) * math.log(n + 1)))


# ---------------------------------------------------------------------------
# certify-65536
# ---------------------------------------------------------------------------

def _certify(seed: int, work: Path) -> Workload:
    n = CERTIFY_N
    dr = Draw(np.random.default_rng([seed, 1]))
    z1, z2, z3, z4 = dr.node_angle(n), dr.between_angle(n), dr.node_angle(n), dr.between_angle(n)
    z0 = dr.fresh().node_angle(n)
    beta = dr.disc_point(0.3, 0.7)
    f = {
        "sub": Product(n, ((z1, 1), (z2, 1)), dr.c(), dr.scale()),
        "peak": Product(n, ((z0, 1),)),
        "a": Product(n, ((z1, 1),), dr.c()),
        "b": Product(n, ((z3, 2),)),
        "c": Product(n, ((z1, 2),)),
        "inner": Product(n, ((z1, 1),), dr.c(), blaschke=(beta,)),
        "h_in": Product(n, ((z1, 1), (z4, 1)), dr.c()),
        "h_out": Product(n, ((z3, 1),), dr.c()),
    }
    path = {k: str(write_csv(work / f"certify-{k}.csv", n, p.values())) for k, p in f.items()}
    res = 8 * TWO_PI / n

    def certified(strategy: str, angles):
        def check(r: Result, chk: Checked) -> None:
            rep = _ok_report(r, chk)
            if rep is None:
                return
            chk.expect(rep["passed"] is True, f"certificate failed: {rep.get('failure_reason')}")
            chk.expect(rep["strategy"] == strategy, f"strategy {rep['strategy']}, expected {strategy}")
            if angles is not None:
                _angles_match(chk, rep["zero_angles"], angles, res, "certified zeros")
        return check

    def peak_stages(r: Result, chk: Checked) -> None:
        certified("peak", [z0])(r, chk)
        if r.rc == 0:
            for st in r.report()["stages"]:
                chk.close("peak", st["error"], peak_closed_form(st["power"]), PEAK_TOL,
                          f"peak stage n={st['power']}")

    def factorized(r: Result, chk: Checked) -> None:
        rep = _ok_report(r, chk)
        if rep is None:
            return
        chk.close("jensen", rep["outer_value_at_zero"], f["sub"].outer_at_zero, JENSEN_TOL,
                  "outer value at 0")
        chk.expect(rep["is_outer_input"] is True, "outer generator reported not outer")
        chk.expect(rep["is_inner_input"] is False, "outer generator reported inner")

    def rejected(r: Result, chk: Checked) -> None:
        chk.expect(r.rc == 2, f"inner-factor generator: exit {r.rc}, expected 2")
        chk.expect(r.error().get("error") == "NotOuter", f"stderr {r.err.strip()[:120]!r}")
        if r.out:
            chk.expect(r.report()["failure_reason"] == "NotOuter", "failure_reason is not NotOuter")

    def member(expected: bool):
        def check(r: Result, chk: Checked) -> None:
            rep = _ok_report(r, chk)
            if rep is not None:
                chk.expect(rep["member"] is expected, f"member = {rep['member']}, closed form {expected}")
                chk.expect(rep["certificate_passed"] is True, "generator certificate failed")
        return check

    grid = ["--grid-size", str(n)]
    ops = [
        Op("certify-sublevel", ["certify", "--generators", path["sub"]], certified("sublevel", [z1, z2])),
        Op("factorize", ["factorize", "--f", path["sub"]], factorized),
        Op("certify-peak", ["certify", "--generators", path["peak"], "--strategy", "peak"], peak_stages),
        # catalog generator: tier-1 pins auto -> peak for offset-ramp
        Op("certify-auto-peak", ["certify", "--generators", "offset-ramp", *grid], certified("peak", None)),
        Op("certify-disjoint", ["certify", "--generators", f"{path['a']},{path['b']}"],
           certified("combined", [])),
        Op("certify-shared", ["certify", "--generators", f"{path['a']},{path['c']}"],
           certified("combined", [z1])),
        Op("certify-inner", ["certify", "--generators", path["inner"]], rejected),
        Op("member-in", ["member", "--h", path["h_in"], "--generators", path["a"]], member(True)),
        Op("member-out", ["member", "--h", path["h_out"], "--generators", path["a"]], member(False)),
    ]
    small = ["--grid-size", "4096"]
    warmup = [
        ["certify", "--generators", "one-minus-z", *small],
        ["factorize", "--f", "one-minus-z", *small],
        ["certify", "--generators", "one-minus-z", "--strategy", "peak", *small],
        ["certify", "--generators", "offset-ramp", *small],
        ["certify", "--generators", "one-minus-z,one-minus-z-squared", *small],
        ["certify", "--generators", "shift", *small],
        ["member", "--h", "one-minus-z-squared", "--generators", "one-minus-z", *small],
    ]
    return Workload("certify-65536", ops, ("jensen", "peak"), warmup, n, cycle_s=12.5, warm_op=6)


# ---------------------------------------------------------------------------
# zeroset-16384
# ---------------------------------------------------------------------------

def _zeroset(seed: int, work: Path) -> Workload:
    n = ZEROSET_N
    rng = np.random.default_rng([seed, 2])
    d1, d2, d3, d0 = (Draw(rng) for _ in range(4))
    f = {
        "one": Product(n, ((d1.node_angle(n), 1),), d1.c()),
        "two": Product(n, ((d2.node_angle(n), 2), (d2.between_angle(n), 1)), d2.c(), d2.scale()),
        "five": Product(
            n,
            ((d3.between_angle(n), 2), (d3.node_angle(n), 1), (d3.between_angle(n), 1),
             (d3.between_angle(n), 2), (d3.between_angle(n), 2)),
            d3.c(),
            blaschke=(d3.disc_point(0.3, 0.7),),
        ),
        "none": Product(n, (), d0.c(), d0.scale()),
    }
    path = {k: str(write_csv(work / f"zeroset-{k}.csv", n, p.values())) for k, p in f.items()}
    res = 8 * TWO_PI / n

    def zeros(angles, in_zinfty: Optional[bool], in_disc: Optional[bool], tag="angle"):
        def check(r: Result, chk: Checked) -> None:
            rep = _ok_report(r, chk)
            if rep is None:
                return
            _angles_match(chk, rep["zero_set"]["angles"], angles, res, "zero set", tag)
            if in_zinfty is not None:
                chk.expect(rep["in_zinfty"] is in_zinfty, f"in_zinfty = {rep['in_zinfty']}")
            if in_disc is not None:
                chk.expect(rep["in_disc_algebra"] is in_disc, f"in_disc_algebra = {rep['in_disc_algebra']}")
        return check

    grid = ["--grid-size", str(n)]
    ops = [Op(f"zeroset-{k}", ["zeroset", "--f", path[k]], zeros(list(p.angles), True, True))
           for k, p in f.items()]
    # catalog generators, outcomes as tier-1 pins them at this grid size
    ops += [
        Op("zeroset-two-point", ["zeroset", "--f", "two-point-product", *grid],
           zeros([0.0, 1.5 * math.pi], True, False, tag="catalog")),
        Op("zeroset-banded", ["zeroset", "--f", "banded-logmod", *grid], zeros([0.0], None, None, tag="catalog")),
        Op("zeroset-offset-ramp", ["zeroset", "--f", "offset-ramp", *grid],
           zeros([0.0], False, None, tag="catalog")),
    ]
    warmup = [["zeroset", "--f", "one-minus-z", "--grid-size", "4096"]]
    return Workload("zeroset-16384", ops, ("angle",), warmup, n, cycle_s=10.0, warm_op=len(ops) - 1)


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def _density(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])

    def on_circle() -> complex:
        return complex(np.exp(1j * rng.uniform(0, TWO_PI)))

    def at_radius(lo, hi) -> complex:
        return complex(rng.uniform(lo, hi) * np.exp(1j * rng.uniform(0, TWO_PI)))

    z1, z2 = on_circle(), on_circle()
    polys = {
        # 1 - conj(zeta) z = -conj(zeta) (z - zeta)
        "law-a": Polynomial((z1,), -np.conj(z1), law=True),
        "law-b": Polynomial((z2,), -np.conj(z2), law=True),
        "on-in": Polynomial((on_circle(), at_radius(0.3, 0.7)), 0.5),
        "out": Polynomial((at_radius(1.2, 1.6), at_radius(1.2, 1.6)), 0.25),
        "on-out": Polynomial((on_circle(), at_radius(1.2, 1.6)), 0.5),
    }
    path = {k: str(write_taylor_json(work / f"density-{k}.json", p)) for k, p in polys.items()}
    shift = Polynomial((0j,))

    def profile(poly: Polynomial):
        def check(r: Result, chk: Checked) -> None:
            rep = _ok_report(r, chk)
            if rep is None:
                return
            got = {row["M"]: row["distance"] for row in rep["profile"]}
            chk.expect(tuple(got) == DENSITY_SCHEDULE, f"profile orders {tuple(got)}")
            for m, d in got.items():
                if poly.law:
                    chk.close("law", d * d * (m + 1), 1.0, LAW_TOL * (m + 1), f"dist^2 (M+1) at M={m}")
                elif poly.roots == (0j,):
                    chk.close("law", d, 1.0, LAW_TOL, f"dist(shift) at M={m}")
                else:
                    want = poly.distance_squared(m)
                    chk.expect(abs(d * d - want) <= LAW_TOL, f"dist^2 at M={m}: {d * d!r} vs {want!r}")
            # outer (no root inside) iff the distance tends to 0
            final = got.get(DENSITY_SCHEDULE[-1], math.nan)
            chk.expect((final < 0.05) == (poly.inside == 0), f"final distance {final} vs outer={poly.inside == 0}")
        return check

    def kernel(poly: Polynomial):
        def check(r: Result, chk: Checked) -> None:
            rep = _ok_report(r, chk)
            if rep is not None:
                chk.expect(rep["kernel_dim"] == poly.inside,
                           f"kernel_dim {rep['kernel_dim']}, roots inside {poly.inside}")
        return check

    ops = [Op(f"density-{k}", ["density", "--f", path[k]], profile(p)) for k, p in polys.items()]
    ops += [
        Op("density-shift", ["density", "--f", "shift"], profile(shift)),
        Op("kernel-on-in", ["toeplitz-kernel", "--f", path["on-in"], "--M", str(KERNEL_M)], kernel(polys["on-in"])),
        Op("kernel-on-out", ["toeplitz-kernel", "--f", path["on-out"], "--M", str(KERNEL_M)], kernel(polys["on-out"])),
        Op("kernel-shift", ["toeplitz-kernel", "--f", "shift", "--M", str(KERNEL_M)], kernel(shift)),
    ]
    warmup = [
        ["density", "--f", "one-minus-z", "--schedule", "16,32,64"],
        ["toeplitz-kernel", "--f", "one-minus-z", "--M", "64"],
    ]
    return Workload("density", ops, ("law",), warmup, KERNEL_M, cycle_s=5.4)


# ---------------------------------------------------------------------------
# synth-io-65536
# ---------------------------------------------------------------------------

def _synth_io(seed: int, work: Path) -> Workload:
    n = SYNTH_N
    rng = np.random.default_rng([seed, 4])
    d1, d2, d3 = Draw(rng), Draw(rng), Draw(rng)
    f = {
        "outer": Product(n, ((d1.node_angle(n), 1), (d1.between_angle(n), 2)), d1.c(), d1.scale()),
        "mixed": Product(n, ((d2.between_angle(n), 1),), d2.c(), d2.scale(),
                         blaschke=(d2.disc_point(0.3, 0.7),)),
        "inner": Product(n, blaschke=(d3.disc_point(0.2, 0.6), d3.disc_point(0.2, 0.6))),
    }
    k = {
        name: LogModulus(n, float(rng.uniform(-0.5, 0.5)),
                         tuple(complex(rng.normal(0, 0.3), rng.normal(0, 0.3)) for _ in range(modes)))
        for name, modes in (("k3", 3), ("k8", 8))
    }
    values = {name: p.values() for name, p in f.items()}
    path = {name: write_csv(work / f"synth-{name}.csv", n, v) for name, v in values.items()}
    path.update({name: write_csv(work / f"synth-{name}.csv", n, lm.values()) for name, lm in k.items()})

    k_values = {name: lm.values().real for name, lm in k.items()}
    # Outputs are deterministic, so each distinct set of written files is
    # verified once and later ops compare against it by content.
    verdicts: dict[tuple, list[str]] = {}

    def files_checked(chk: Checked, out: Path, names: tuple[str, ...], verify) -> None:
        texts = tuple((out / nm).read_text() for nm in names)
        key = (names, *(hashlib.sha256(t.encode()).digest() for t in texts))
        if key not in verdicts:
            sub = Checked()
            cols = {}
            for nm, text in zip(names, texts):
                theta, re, im = parse_csv(text)
                sub.expect(csv_round_trips(text, theta, re, im), f"{nm} does not round-trip bitwise")
                sub.expect(np.array_equal(theta, grid_nodes(n)), f"{nm}: theta column is not 2 pi j/N")
                cols[nm] = re + 1j * im
            verify(sub, texts, cols)
            verdicts[key] = sub.problems
        chk.problems.extend(verdicts[key])

    def factorized(name: str):
        prod = f[name]

        def verify(sub: Checked, texts, cols) -> None:
            want = values[name]
            gap = float(np.max(np.abs(cols["inner.csv"] * cols["outer.csv"] - want))) / float(np.max(np.abs(want)))
            sub.expect(gap <= 1e-12, f"inner * outer differs from the input by {gap:.3g}")

        def check(r: Result, chk: Checked) -> None:
            rep = _ok_report(r, chk)
            if rep is None:
                return
            chk.close("jensen", rep["outer_value_at_zero"], prod.outer_at_zero, JENSEN_TOL, "outer value at 0")
            chk.expect(rep["is_outer_input"] is prod.is_outer, f"is_outer_input = {rep['is_outer_input']}")
            chk.expect(rep["is_inner_input"] is prod.is_inner, f"is_inner_input = {rep['is_inner_input']}")
            files_checked(chk, r.out_dir, ("inner.csv", "outer.csv"), verify)
        return check

    def synthesized(name: str):
        lm = k[name]
        given = path[name].read_text()

        def verify(sub: Checked, texts, cols) -> None:
            # k sits above the clip floor, so the program must hand it back unchanged
            sub.expect(texts[1] == given, "log_modulus.csv differs from the input CSV")
            law = float(np.max(np.abs(np.abs(cols["boundary.csv"]) / np.exp(k_values[name]) - 1.0)))
            sub.expect(law <= MODULUS_TOL, f"|boundary| = e^k violated by {law:.3g}")

        def check(r: Result, chk: Checked) -> None:
            rep = _ok_report(r, chk)
            if rep is None:
                return
            chk.close("jensen", rep["value_at_zero"], lm.outer_at_zero, JENSEN_TOL, "value at 0")
            files_checked(chk, r.out_dir, ("boundary.csv", "log_modulus.csv"), verify)
        return check

    ops = []
    for i, name in enumerate(f):
        out = work / f"out-{i}"
        ops.append(Op(f"factorize-{name}", ["factorize", "--f", str(path[name]), "--out", str(out)],
                      factorized(name), out))
    for i, name in enumerate(k, start=len(ops)):
        out = work / f"out-{i}"
        ops.append(Op(f"synth-outer-{name}", ["synth-outer", "--k", str(path[name]), "--out", str(out)],
                      synthesized(name), out))
    small = ["--grid-size", "4096"]
    warmup = [
        ["factorize", "--f", "one-minus-z", *small, "--out", str(work / "warm-factorize")],
        ["synth-outer", "--k", "ramp-logmod", *small, "--out", str(work / "warm-synth")],
    ]
    return Workload("synth-io-65536", ops, ("jensen",), warmup, n, cycle_s=3.4)


BUILDERS = {
    "certify-65536": _certify,
    "zeroset-16384": _zeroset,
    "density": _density,
    "synth-io-65536": _synth_io,
}


def build(name: str, seed: int, work: Path) -> Workload:
    return BUILDERS[name](seed, work)
