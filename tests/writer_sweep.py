"""Print seeded random float64 bit patterns, every 10^k for k from -300 to
300 with both of its neighbours, both zeros and the smallest subnormals
through ``signal_to_csv``; compare each text with the one-f-string-per-row
oracle, and read it back through ``signal_from_csv``, from the text and from
its bytes, comparing each part's bits with the part printed. Each signal is
also written to a temporary file by the file writer that the CLI's ``--out``
uses, and the file's bytes are compared with the oracle's.

Usage::

    python tests/writer_sweep.py [--log2-parts 22] [--seed 0]

The parts go through in signals of 2^15 nodes, so the sweep holds a few MiB
at any size. It prints the first rows that differ and exits 1 when any row
differs or any part reads back with other bits.
Non-finite bit patterns, which no signal may hold, are replaced by 1e308.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hardylab import BoundarySignal, CircleGrid, signal_from_csv, signal_to_csv  # noqa: E402
from hardylab.grid import _write_csv  # noqa: E402
from oracles import fstring_oracle_csv  # noqa: E402

NODES = 1 << 15


def signals(log2_parts: int, seed: int):
    """Signals holding 2^log2_parts parts (at least one signal's worth); the
    first one starts with the powers of ten and their neighbours, zero and the
    two smallest subnormals, each with both signs."""
    rng = np.random.default_rng(seed)
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    special = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                              [0.0, 5e-324, 1e-323]])
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
    parts = differ = misread = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "signal.csv"
        for f in signals(args.log2_parts, args.seed):
            text, oracle = signal_to_csv(f), fstring_oracle_csv(f)
            for given in (text, text.encode("ascii")):
                back = signal_from_csv(given).values
                misread += int(np.count_nonzero(back.view(np.uint64) != f.values.view(np.uint64)))
            _write_csv(path, f)
            written = path.read_bytes().decode("ascii")
            bad = []
            for source, printed in (("text", text), ("file", written)):
                got, want = printed.splitlines(keepends=True), oracle.splitlines(keepends=True)
                bad += [(source, g, w) for g, w in zip(got, want) if g != w]
                if len(got) != len(want):
                    bad.append((source, f"{len(got)} rows", f"{len(want)} rows"))
            for source, g, w in bad[:max(0, 5 - differ)]:  # the first five differences
                print(f"{source} got  {g!r}\n{source} want {w!r}")
            parts, differ = parts + 2 * f.grid.size, differ + len(bad)
    print(f"{parts} parts printed, {differ} rows differ (text and file writes), "
          f"{misread} parts read back with other bits (text and bytes reads)")
    return 1 if differ or misread else 0


if __name__ == "__main__":
    sys.exit(main())
