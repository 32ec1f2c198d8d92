"""Hold ``continuous_extension`` to the exact window diameters of
``oracles.continuous_extension_hull`` on seeded random products.

Usage::

    python tests/extension_sweep.py [--count 40] [--log2-size 12] [--seed 0]

Product i is ``oracles.random_product(seed + i, 2**log2_size)``: 1 to 3
simple zeros at uniform angles times e^{p1 z + p2 z^2}. Such a product is
continuous, so on an odd seed it gets a discontinuity at a seeded node
(``with_jump``) whose decay just fails the rule. Each is probed at its zero
angles, at the angles of its estimated zero set, at each of
``in_disc_algebra``'s probe angles and at the jump's node. At every probe
the sweep checks that the extension reads True only where the exact
diameters do, that its value is the hull's finest-window mean and that its
radii are ``oracles.reference_radii``, both bit for bit (the repr of a float
is its bits). The hull takes a pairwise matrix over the widest window, so it
costs O(w^2) for a window of w nodes. The sweep prints one line per product
and the number of probes where the exact diameters read False. It exits 1
when any probe differs, or when no probe reads False, so the first check
was never put to the test.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from hardylab import continuous_extension, essential_zero_set, signal_from_values  # noqa: E402
from hardylab.zerosets import MIN_WINDOW_CELLS, WIDTH_SCHEDULE, _probe_angles  # noqa: E402
from oracles import continuous_extension_hull, random_product, reference_radii  # noqa: E402


def with_jump(seed: int, f):
    """``f`` plus S (i eps clip(d / h_fine, -1, 1) + [|d| > 0.1]), and the
    seeded node it is centred on: S = 50 sup|f|, eps ~ U(0.292, 0.312), d the
    signed distance to the node and h_fine the finest window's half-width.
    The ramp spans that window, so the finest diameter is about 2 S eps and
    the widest about S sqrt(1 + 4 eps^2): a ratio of 0.504 to 0.529, just
    above the rule's 0.5, with both within the tolerance 10 sup N^(-1/4) on
    2^12 nodes."""
    rng = np.random.default_rng([seed, 1])
    node = float(f.grid.nodes[rng.integers(f.grid.size)])
    eps = rng.uniform(0.292, 0.312)
    d = (f.grid.nodes - node + np.pi) % (2 * np.pi) - np.pi
    fine_half = max(WIDTH_SCHEDULE[-1] / 2.0, MIN_WINDOW_CELLS * f.grid.spacing / 2.0)
    jump = 50.0 * f.sup_abs * (1j * eps * np.clip(d / fine_half, -1.0, 1.0) + (np.abs(d) > 0.1))
    return node, signal_from_values(f.grid, f.values + jump)


def faults_at(f, center: float) -> tuple[list[str], bool]:
    """How the extension at ``center`` departs from the oracles, if it does,
    and whether the exact diameters read True there."""
    ext = continuous_extension(f, center)
    ok, value, _, _ = continuous_extension_hull(f, center)
    faults = []
    if ext.ok and not ok:
        faults.append("True where the exact diameters read False")
    if repr(ext.value) != repr(value):
        faults.append(f"value {ext.value!r} against {value!r}")
    radii = reference_radii(f, center)
    if repr(ext.radii) != repr(radii):
        faults.append(f"radii {ext.radii!r} against {radii!r}")
    return [f"at {center!r}: {line}" for line in faults], ok


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--count", type=int, default=40)
    p.add_argument("--log2-size", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    faults, probes, hull_false = [], 0, 0
    for seed in range(args.seed, args.seed + args.count):
        zeros, f = random_product(seed, 2 ** args.log2_size)
        jump = []
        if seed % 2:
            node, f = with_jump(seed, f)
            jump = [node]
        centres = zeros.tolist() + list(essential_zero_set(f).angles) + _probe_angles(f) + jump
        checked = [faults_at(f, c) for c in centres]
        found = [line for lines, _ in checked for line in lines]
        falses = sum(not ok for _, ok in checked)
        faults += [f"seed {seed} {line}" for line in found]
        probes, hull_false = probes + len(centres), hull_false + falses
        print(f"{'DIFFERS' if found else 'holds'}: seed {seed}, {len(zeros)} zeros"
              f"{', a jump' if jump else ''}, {len(centres)} probes, {falses} hull-False")
    print(f"{args.count} products on 2^{args.log2_size} nodes, {probes} probes, "
          f"{hull_false} hull-False, {len(faults)} differ")
    for line in faults:
        print(f"DIFFERS: {line}")
    if not hull_false:
        print("no probe reads False on the exact diameters, so no False was put to the test")
    return 1 if faults or not hull_false else 0


if __name__ == "__main__":
    sys.exit(main())
