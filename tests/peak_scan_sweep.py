"""Run the peak route's pruned coarse rotation scan and the exhaustive one,
which takes the full sup at all 256 angles, on seeded random products, and
compare the angle index each picks.

Usage::

    python tests/peak_scan_sweep.py [--count 50] [--log2-size 18] [--seed 0]

Each product is scale e^{i rotation} e^{c z} times 1 to 3 factors 1 - z e^{-it}
with t on a node or halfway between two, and every other product carries a
spike narrower than the scan's stride: a few nodes whose modulus is raised,
which a subsample of the nodes can miss. The sweep prints each product's
number of full sups and exits 1 when any index differs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hardylab.ideals import _SCAN_STRIDE, _coarse_argmin, _rotated_sup  # noqa: E402
from oracles import coarse_argmin_exhaustive, peak_product  # noqa: E402


def products(count: int, n: int, seed: int):
    """``count`` seeded products on ``n`` nodes, with a label for each."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        zeros = rng.integers(0, 2 * n, size=rng.integers(1, 4)) / 2
        c, scale, rotation = rng.uniform(-3.0, 3.0), rng.uniform(0.2, 5.0), rng.uniform(0.0, 2.0 * np.pi)
        spike = None
        if i % 2:
            spike = (int(rng.integers(n)), int(rng.integers(1, _SCAN_STRIDE)), rng.uniform(0.0, 4.0))
        label = f"zeros={zeros.tolist()} c={c:.3f} scale={scale:.3f} rotation={rotation:.3f} spike={spike}"
        yield label, peak_product(n, zeros, c, scale, rotation, spike)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--log2-size", type=int, default=18)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    coarse = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    differ = 0
    for label, f in products(args.count, 2 ** args.log2_size, args.seed):
        sup_at = _rotated_sup(f.values)
        full = []

        def counted(phi, sampled=False):
            if not sampled:
                full.append(phi)
            return sup_at(phi, sampled)

        got, want = _coarse_argmin(counted, coarse), coarse_argmin_exhaustive(sup_at, coarse)
        differ += got != want
        print(f"{'DIFFERS' if got != want else 'same'} index {got} (exhaustive {want}), "
              f"{len(full)} full sups: {label}")
    print(f"{args.count} products on 2^{args.log2_size} nodes, {differ} indices differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
