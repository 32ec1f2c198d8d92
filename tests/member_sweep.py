"""Run ``member`` and ``prime-check`` on seeded random products and hold each
verdict to the one that the certificate with every default sublevel stage
gives, through ``membership`` and ``analytic_prime_check``.

Usage::

    python tests/member_sweep.py [--count 40] [--log2-size 16] [--seed 0]

Product i is scale e^{c z} times 1 to 3 factors 1 - z e^{-it}, with t on a
node or halfway between two, so the last sublevel stage has support or has
none; |c| < 1 and scale in [0.2, 2]. Every fifth product instead has c in
[17, 22], scale e^{c - s} with s in [6, 11], and its zeros between nodes
where Re z > 0. Its log|f| runs from -s at z = -1 to 2c - s, often past the
clip at 30, and as a rule no node lies below e^-12: the commands build every
stage, and only the earlier stages have support.

The ideal cycles through the product under the ``auto``, ``sublevel`` and
``peak`` strategies, and the pair of the product and the product with one
more zero. There are two probes: every zero of the product and one more,
which lies in the ideal, and the same with the first zero dropped, which
does not. ``member`` takes each probe as h, and ``prime-check`` each as b,
with a = ``two-plus-z`` and delta 0.9, which |a| >= 1 satisfies. A verdict is
the member or division flag, with the zero angles for ``member``, or the
error record. The sweep prints each verdict, and exits 1 when any command's
verdict differs from the full certificate's.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hardylab import (  # noqa: E402
    CircleGrid, analytic_prime_check, certify_mideal, example_boundary, ideal, membership,
    signal_from_csv, signal_to_csv,
)
from hardylab.cli import main as cli_main  # noqa: E402
from hardylab.errors import HardyLabError  # noqa: E402
from hardylab.ideals import DEFAULT_MAIN_STAGES  # noqa: E402
from oracles import peak_product  # noqa: E402

STRATEGIES = ("auto", "sublevel", "peak", "pair")
DELTA = "0.9"


def products(count: int, n: int, seed: int):
    """``count`` seeded cases on ``n`` nodes: a label, the strategy, the
    generators and the probes in and out of the ideal."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        zeros = (rng.integers(0, 2 * n, size=rng.integers(1, 4)) / 2).tolist()
        extra = rng.integers(0, 2 * n, size=2) / 2
        if i % 5 == 4:
            zeros = ((rng.integers(-n // 4, n // 4, size=len(zeros)) + 0.5) % n).tolist()
            c = rng.uniform(17.0, 22.0)
            scale = float(np.exp(c - rng.uniform(6.0, 11.0)))
        else:
            c, scale = rng.uniform(-1.0, 1.0), rng.uniform(0.2, 2.0)
        strategy = STRATEGIES[i % len(STRATEGIES)]
        gens = [peak_product(n, zeros, c, scale, 0.0)]
        if strategy == "pair":
            gens.append(peak_product(n, zeros + [extra[0]], c, scale, 0.0))
        probes = (peak_product(n, zeros + [extra[1]], 0.0, 1.0, 0.0),
                  peak_product(n, zeros[1:] + [extra[1]], 0.0, 1.0, 0.0))
        log_mod = gens[0].log_abs
        label = (f"zeros={zeros} c={c:.3f} scale={scale:.4g} strategy={strategy} "
                 f"log|f| in [{log_mod.min():.1f}, {log_mod.max():.1f}]")
        yield label, "auto" if strategy == "pair" else strategy, gens, probes


def command_verdict(argv: list[str]):
    """The verdict of one command line run through the CLI's ``main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    if code:
        return json.loads(err.getvalue())
    report = json.loads(out.getvalue())
    if "member" in report:
        return report["member"], report["zero_angles"]
    return report["division_holds"]


def reference_verdict(decide):
    """``decide()`` as the CLI reports it, or its error record."""
    try:
        return decide()
    except HardyLabError as exc:
        return exc.payload()


def sweep(label, strategy, gens, probes, work: Path) -> list[str]:
    """Each command's verdict against the full certificate's; the lines that differ."""
    n = gens[0].grid.size
    paths = []
    for j, f in enumerate(gens + list(probes)):
        path = work / f"signal-{j}.csv"
        path.write_text(signal_to_csv(f))
        paths.append(str(path))
    read = [signal_from_csv(Path(p).read_text()) for p in paths]
    gen_paths, gen_read = paths[:len(gens)], read[:len(gens)]
    flags = ["--generators", ",".join(gen_paths), "--strategy", strategy, "--grid-size", str(n)]
    spec = ideal(gen_read, gen_paths)

    def certified():
        return certify_mideal(spec, strategy=strategy, stages=DEFAULT_MAIN_STAGES)

    def member(h):
        cert = certified()
        return membership(h, cert), [float(a) for a in cert.zero_angles]

    a = example_boundary("two-plus-z", CircleGrid(n))
    faults = []
    for path, probe in zip(paths[len(gens):], read[len(gens):]):
        for argv, decide in (
            (["member", "--h", path], lambda: member(probe)),
            (["prime-check", "--a", "two-plus-z", "--b", path, "--delta", DELTA],
             lambda: analytic_prime_check(certified(), a, probe, delta=float(DELTA))),
        ):
            got, want = command_verdict(argv + flags), reference_verdict(decide)
            if got != want:
                faults.append(f"{argv[0]} {Path(path).name}: {got!r} against {want!r}")
            print(f"{'DIFFERS' if got != want else 'holds'}: {argv[0]} "
                  f"{Path(path).name} {got!r}: {label}")
    return faults


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--count", type=int, default=40)
    p.add_argument("--log2-size", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    faults = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in products(args.count, 2 ** args.log2_size, args.seed):
            faults += sweep(*case, Path(tmp))
    print(f"{args.count} products on 2^{args.log2_size} nodes, {4 * args.count} command lines, "
          f"{len(faults)} differ")
    for line in faults:
        print(f"DIFFERS: {line}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
