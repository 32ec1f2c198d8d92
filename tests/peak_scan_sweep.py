"""Run the peak route's pruned coarse rotation scan and the exhaustive one,
which takes the full sup at all 256 angles, on seeded random products, and
compare the angle index each picks; then run ``prepare_peak`` with its
golden-section search over the pruned nodes and over every node, and compare
the alignments bit for bit.

Usage::

    python tests/peak_scan_sweep.py [--count 50] [--log2-size 18] [--seed 0]

Each product is scale e^{i rotation} e^{c z} times 1 to 3 factors 1 - z e^{-it}
with t on a node or halfway between two, and every other product carries a
spike narrower than the scan's stride: a few nodes whose modulus is raised,
which a subsample of the nodes can miss. Most of these sweep every direction
and are refused, so ``--count`` more products follow with one factor, |c| <
0.3, scale < 1 and spikes below 1/2, most of which align. The sweep prints
each product's number of full sups, the nodes the search reads and whether
it aligned, and exits 1 when any index, alpha, scale or sup_base differs, or
an error differs from the unpruned one.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from unittest import mock

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hardylab.ideals  # noqa: E402
from hardylab.errors import HardyLabError  # noqa: E402
from hardylab.ideals import _SCAN_STRIDE, _coarse_argmin, _rotated_sup, _sup_over, prepare_peak  # noqa: E402
from oracles import coarse_argmin_exhaustive, peak_product, prepare_peak_unpruned  # noqa: E402


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
            spike = (int(rng.integers(n)), int(rng.integers(1, _SCAN_STRIDE)), height)
        label = f"zeros={zeros.tolist()} c={c:.3f} scale={scale:.3f} rotation={rotation:.3f} spike={spike}"
        yield label, peak_product(n, zeros, c, scale, rotation, spike)


def alignment(prepare, f) -> str:
    """The repr of ``prepare(f)`` (exact for every float), or of the
    payload of the error it raises."""
    try:
        return repr(prepare(f))
    except HardyLabError as exc:
        return repr(exc.payload())


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--log2-size", type=int, default=18)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    coarse = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    differ = aligned = 0
    for label, f in products(args.count, 2 ** args.log2_size, args.seed):
        sup_at = _rotated_sup(f.values)
        full = []

        def counted(phi, sampled=False):
            if not sampled:
                full.append(phi)
            return sup_at(phi, sampled)

        got, want = _coarse_argmin(counted, coarse)[0], coarse_argmin_exhaustive(sup_at, coarse)[0]
        sizes = []  # the nodes of each sup prepare_peak builds: all, the subsample, any search nodes
        with mock.patch.object(hardylab.ideals, "_sup_over", lambda gv: sizes.append(gv.size) or _sup_over(gv)):
            pruned = alignment(prepare_peak, f)
        unpruned = alignment(prepare_peak_unpruned, f)
        searched = sizes[2] if len(sizes) > 2 else f.grid.size
        same = got == want and pruned == unpruned
        differ += not same
        aligned += pruned.startswith("PeakPreparation")
        print(f"{'same' if same else 'DIFFERS'} index {got} (exhaustive {want}), {len(full)} full sups, "
              f"{searched} nodes searched, {'aligned' if pruned.startswith('PeakPreparation') else 'refused'}: {label}")
        if pruned != unpruned:
            print(f"  pruned   {pruned}\n  unpruned {unpruned}")
    print(f"{2 * args.count} products on 2^{args.log2_size} nodes, {aligned} aligned, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
