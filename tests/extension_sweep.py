"""Hold ``continuous_extension`` to the exact window diameters of
``oracles.continuous_extension_hull`` on seeded random products.

Usage::

    python tests/extension_sweep.py [--count 40] [--log2-size 12] [--seed 0]

Product i is ``oracles.random_product(seed + i, 2**log2_size)``: 1 to 3
simple zeros at uniform angles times e^{p1 z + p2 z^2}. Each is probed at
its zero angles, at the angles of its estimated zero set and at each of
``in_disc_algebra``'s probe angles. At every probe the sweep checks that the
extension reads True only where the exact diameters do, that its value is
the hull's finest-window mean and that its radii are
``oracles.reference_radii``, both bit for bit (the repr of a float is its
bits). The hull takes a pairwise matrix over the widest window, so it costs
O(w^2) for a window of w nodes. The sweep prints one line per product, and
exits 1 when any probe differs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hardylab import continuous_extension, essential_zero_set  # noqa: E402
from hardylab.zerosets import _probe_angles  # noqa: E402
from oracles import continuous_extension_hull, random_product, reference_radii  # noqa: E402


def faults_at(f, center: float) -> list[str]:
    """How the extension at ``center`` departs from the oracles, if it does."""
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
    return [f"at {center!r}: {line}" for line in faults]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--count", type=int, default=40)
    p.add_argument("--log2-size", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    faults, probes = [], 0
    for seed in range(args.seed, args.seed + args.count):
        zeros, f = random_product(seed, 2 ** args.log2_size)
        centres = zeros.tolist() + list(essential_zero_set(f).angles) + _probe_angles(f)
        found = [line for c in centres for line in faults_at(f, c)]
        faults += [f"seed {seed} {line}" for line in found]
        probes += len(centres)
        print(f"{'DIFFERS' if found else 'holds'}: seed {seed}, {len(zeros)} zeros, {len(centres)} probes")
    print(f"{args.count} products on 2^{args.log2_size} nodes, {probes} probes, {len(faults)} differ")
    for line in faults:
        print(f"DIFFERS: {line}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
