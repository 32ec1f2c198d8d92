"""Print seeded random float64 bit patterns, and every 10^k for k from -300
to 300 with both of its neighbours, through ``signal_to_csv``, and compare
each text with the one-f-string-per-row oracle.

Usage::

    python tests/writer_sweep.py [--log2-parts 22] [--seed 0]

The parts go through in signals of 2^15 nodes, so the sweep holds a few MiB
at any size. It prints the first rows that differ and exits 1 when any do.
Non-finite bit patterns, which no signal may hold, are replaced by 1e308.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hardylab import BoundarySignal, CircleGrid, signal_to_csv  # noqa: E402
from oracles import fstring_oracle_csv  # noqa: E402

NODES = 1 << 15


def signals(log2_parts: int, seed: int):
    """Signals holding 2^log2_parts parts (at least one signal's worth); the
    first one starts with the powers of ten and their neighbours, both signs."""
    rng = np.random.default_rng(seed)
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    special = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    special = np.concatenate([special, -special])
    for start in range(0, max(1 << log2_parts, 2 * NODES), 2 * NODES):
        parts = rng.integers(0, 2 ** 64, size=2 * NODES, dtype=np.uint64).view(float)
        parts[~np.isfinite(parts)] = 1e308
        if start == 0:
            parts[:special.size] = special
        yield BoundarySignal(CircleGrid(NODES), parts.view(complex))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--log2-parts", type=int, default=22)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    parts = differ = 0
    for f in signals(args.log2_parts, args.seed):
        got, want = signal_to_csv(f).splitlines(), fstring_oracle_csv(f).splitlines()
        bad = [(g, w) for g, w in zip(got, want) if g != w]
        if len(got) != len(want):
            bad.append((f"{len(got)} rows", f"{len(want)} rows"))
        for g, w in bad[:max(0, 5 - differ)]:  # the first five differences
            print(f"got  {g!r}\nwant {w!r}")
        parts, differ = parts + 2 * f.grid.size, differ + len(bad)
    print(f"{parts} parts printed, {differ} rows differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
