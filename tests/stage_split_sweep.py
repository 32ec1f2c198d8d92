"""Hold the sublevel stage table, whose distinct masks are computed in two
halves on two threads, to each of its stages computed alone.

Usage::

    python tests/stage_split_sweep.py [--count 20] [--log2-size 18] [--seed 0]

Product i is scale e^{c z} times 1 to 3 factors 1 - z e^{-it}, with t on a
node or halfway between two and one zero doubled in every third product;
|c| < 1 and scale in [0.2, 2]. Every fourth ideal is the pair of the product
and the product with one more zero, so the stages read the joint modulus.
Each product also gets one seeded shuffled list of the default stages and
four more drawn from them, so stages that share a mask stand apart. Each stage
of both tables is compared, field by field and bit for bit (the repr of a
float is its bits), with ``approx_unit_sublevel(spec, (m,))``, which runs on
the calling thread alone. The sweep prints one line per product, and exits
1 when any stage differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hardylab import approx_unit_sublevel, ideal  # noqa: E402
from hardylab.ideals import DEFAULT_MAIN_STAGES  # noqa: E402
from oracles import peak_product  # noqa: E402


def products(count: int, n: int, seed: int):
    """``count`` seeded cases on ``n`` nodes: a label, the generators and the
    shuffled stage list with repeats."""
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        zeros = (rng.integers(0, 2 * n, size=rng.integers(1, 4)) / 2).tolist()
        if i % 3 == 2:
            zeros.append(zeros[0])
        c, scale = rng.uniform(-1.0, 1.0), rng.uniform(0.2, 2.0)
        gens = [peak_product(n, zeros, c, scale, 0.0)]
        if i % 4 == 3:
            gens.append(peak_product(n, zeros + [rng.integers(0, 2 * n) / 2], c, scale, 0.0))
        order = np.random.default_rng([seed, i, 1])
        shuffled = order.permutation(DEFAULT_MAIN_STAGES + tuple(order.choice(DEFAULT_MAIN_STAGES, 4)))
        yield (f"zeros={zeros} c={c:.3f} scale={scale:.4g} generators={len(gens)}", gens,
               tuple(shuffled.tolist()))


def differing_stages(gens, shuffled) -> tuple[list[str], int]:
    """The stages of the default and the ``shuffled`` table that differ from
    the stage run alone, and the number of distinct masks, which the split
    shares between threads."""
    spec = ideal(gens)
    alone = {m: approx_unit_sublevel(spec, (m,))[0] for m in DEFAULT_MAIN_STAGES}
    faults = []
    for stages in (DEFAULT_MAIN_STAGES, shuffled):
        table = approx_unit_sublevel(spec, stages)
        for m, s in zip(stages, table, strict=True):
            if repr(dataclasses.astuple(s)) != repr(dataclasses.astuple(alone[m])):
                faults.append(f"stages {stages}, stage {m}: {s!r} against {alone[m]!r}")
    return faults, len({s.support_measure for s in alone.values() if not s.degenerate})


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--log2-size", type=int, default=18)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    faults = []
    for label, gens, shuffled in products(args.count, 2 ** args.log2_size, args.seed):
        found, masks = differing_stages(gens, shuffled)
        faults += [f"{line}: {label}" for line in found]
        print(f"{'DIFFERS' if found else 'holds'}: {masks} distinct masks: {label} shuffled={shuffled}")
    print(f"{args.count} products on 2^{args.log2_size} nodes, {len(faults)} stages differ")
    for line in faults:
        print(f"DIFFERS: {line}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
