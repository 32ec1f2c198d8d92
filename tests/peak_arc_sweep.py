"""Run the peak route's arc intersection and the rotation scan with
its golden-section search (``oracles.prepare_peak_scan``) on seeded random
products, and hold the arc's alignment to the scan's.

Usage::

    python tests/peak_arc_sweep.py [--count 50] [--log2-size 18] [--seed 0]

Each product is scale e^{i rotation} e^{c z} times 1 to 3 factors 1 - z e^{-it}
with t on a node or halfway between two, and every other product carries a
spike: a few adjacent nodes whose modulus is raised. Most of these sweep
every direction and are refused, so ``--count`` more products follow with
one factor, |c| < 0.3, scale < 1 and spikes below 1/2, most of which align.
The sweep prints each product's outcome, and exits 1 when, on any product,
the two refuse with different errors, the arc refuses where the scan aligns,
the arc's sup_base is above the scan's by more than 1e-12, or its scale is
below the scan's by more than 1e-7 relative. Where the scan refuses with
NormExceeded and the arc aligns, the arc's alignment is checked on its own
(``oracles.peak_alignment_fault``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hardylab.ideals import prepare_peak  # noqa: E402
from oracles import aligned_or_refused, peak_alignment_fault, peak_product, prepare_peak_scan  # noqa: E402


def products(count: int, n: int, seed: int):
    """``count`` seeded products on ``n`` nodes, then ``count`` with one
    factor and small c and scale, each with a label."""
    rng = np.random.default_rng(seed)
    for i in range(2 * count):
        small = i >= count
        zeros = rng.integers(0, 2 * n, size=1 if small else rng.integers(1, 4)) / 2
        c = rng.uniform(-0.3, 0.3) if small else rng.uniform(-3.0, 3.0)
        scale = rng.uniform(0.2, 1.0) if small else rng.uniform(0.2, 5.0)
        rotation = rng.uniform(0.0, 2.0 * np.pi)
        spike = None
        if i % 2:
            height = rng.uniform(0.0, 0.5) if small else rng.uniform(0.0, 4.0)
            spike = (int(rng.integers(n)), int(rng.integers(1, 16)), height)
        label = f"zeros={zeros.tolist()} c={c:.3f} scale={scale:.3f} rotation={rotation:.3f} spike={spike}"
        yield label, peak_product(n, zeros, c, scale, rotation, spike)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--log2-size", type=int, default=18)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    failed = aligned = rescued = 0
    for label, f in products(args.count, 2 ** args.log2_size, args.seed):
        arc, scan = aligned_or_refused(prepare_peak, f), aligned_or_refused(prepare_peak_scan, f)
        fault = peak_alignment_fault(arc, scan, f)
        failed += bool(fault)
        aligned += not isinstance(arc, str)
        rescued += isinstance(scan, str) and not isinstance(arc, str)
        outcome = " against ".join(
            s if isinstance(s, str) else f"sup_base {s.sup_base!r}, scale {s.scale!r}" for s in (arc, scan))
        print(f"{fault.upper() or 'holds'}: {outcome}: {label}")
    print(f"{2 * args.count} products on 2^{args.log2_size} nodes, {aligned} aligned "
          f"({rescued} that the scan refuses), {failed} fail")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
