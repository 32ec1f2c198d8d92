"""Write the report corpus that ``tests/test_golden.py`` holds the program to.

Usage::

    python tests/make_golden.py [--out DIR]

``DIR`` defaults to ``tests/golden``. Each file ``<group>-<N>.json`` holds one
record per command line (``density.json`` and ``toeplitz-kernel-1024.json``,
which build no grid, one per catalog entry with a Taylor series): the argv,
the exit code, the report printed on stdout and the JSON object printed on
stderr (each parsed, or null when empty), and, at N = 512, a few norms of
every CSV the run wrote. The commands run in-process through
``hardylab.cli.main`` on the source tree next to this script, so two runs on
one machine write byte-identical files.

Where ``DIR`` already holds a corpus file, each of its records is merged
leaf by leaf (``test_golden.merge_record``): every committed leaf that the
comparator accepts is kept byte for byte, including the shared leaves of a
dict that gained or lost keys. A leaf is taken new only where it moved, a key
only where it was added (a removed key is dropped), and a list whole only
where its length changed; the script prints the argv and the moved fields of
each moved record. A fresh
``DIR`` gets every record new. So a change that moves a report regenerates
in place, and the golden diff shows only what moved; it goes in together
with a CHANGES.md line naming each moved exact-class field and its cause.
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

from hardylab.catalog import catalog_names, get_example  # noqa: E402
from hardylab.cli import main  # noqa: E402
from hardylab.grid import DEFAULT_GRID_SIZE  # noqa: E402
from hardylab.reproduce import bundle_names  # noqa: E402

GRID_SIZES = (512, 4096)
GOLDEN_DIR = HERE / "golden"

#: Generator sets certified together (auto resolves to combined); the pairs
#: come first so that the triples only add records after them.
GENERATOR_SETS = (
    "one-minus-z,one-plus-z",
    "one-minus-z,one-minus-z-times-exp",
    "one-minus-z,one-plus-z,two-plus-z",
    "one-minus-z,one-minus-z-squared,one-minus-z-times-exp",
)


def command_groups(n: int) -> dict[str, list[list[str]]]:
    """Corpus command lines at grid size ``n``, by output file group."""
    names = catalog_names()
    size = ["--grid-size", str(n)]
    logmod = [e for e in names if get_example(e).log_modulus_fn is not None]
    return {
        "factorize": [["factorize", "--f", e, *size] for e in names],
        "certify": [
            ["certify", "--generators", e, "--strategy", s, *size]
            for e in names
            for s in ("auto", "sublevel", "peak")
        ]
        + [["certify", "--generators", g, *size] for g in GENERATOR_SETS],
        "approx-unit": [
            ["approx-unit", "--generators", e, "--strategy", s, *size]
            for e in names
            for s in ("sublevel", "peak")
        ],
        "synth-outer": [["synth-outer", "--k", e, *size] for e in logmod],
        "reproduce": [["reproduce", b, *size] for b in bundle_names()],
        "zeroset": [["zeroset", "--f", e, *size] for e in names],
    }


#: Commands run with --out, so their CSVs enter the corpus. approx-unit's
#: per-stage CSVs are left out: its last sublevel unit is certify's
#: final-unit.csv for the default stages.
WRITES_CSV = ("factorize", "certify", "synth-outer", "reproduce")

#: CSVs enter the corpus at this grid size only; at 4096 the text round trip
#: would take longer than all the computation of the corpus.
CSV_GRID_SIZE = 512


def csv_norms(path: Path) -> dict:
    """Row count and per-column max |x|, root mean square and mean."""
    with path.open() as fh:
        header = fh.readline().strip().split(",")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {
        "columns": header,
        "rows": int(table.shape[0]),
        "max_abs": [float(v) for v in np.max(np.abs(table), axis=0)],
        "rms": [float(v) for v in np.sqrt(np.mean(table ** 2, axis=0))],
        "mean": [float(v) for v in np.mean(table, axis=0)],
    }


def _parse(text: str):
    return json.loads(text) if text else None


def record(argv: list[str]) -> dict:
    """Run one command line in-process and return its corpus record."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        n = int(argv[argv.index("--grid-size") + 1]) if "--grid-size" in argv else None
        writes = argv[0] in WRITES_CSV and n == CSV_GRID_SIZE
        # reproduce writes its bundle into the working directory without --out
        full = [*argv, "--out", tmp] if writes or argv[0] == "reproduce" else list(argv)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(full)
            except SystemExit as exc:
                code = exc.code
        root = Path(tmp)
        csvs = {
            p.relative_to(root).as_posix(): csv_norms(p)
            for p in sorted(root.rglob("*.csv"))
            if writes
        }
    return {
        "argv": list(argv),
        "exit_code": code,
        "stdout": _parse(out.getvalue()),
        "stderr": _parse(err.getvalue()),
        "csv": csvs,
    }


def golden_files() -> dict[str, list[list[str]]]:
    """Corpus file name -> the command lines it records, in order."""
    files = {
        f"{group}-{n}.json": argvs
        for n in GRID_SIZES
        for group, argvs in command_groups(n).items()
    }
    # zeroset also runs at the CLI's default grid size, so that the zero-set
    # windows are pinned where a run without --grid-size takes them
    n = DEFAULT_GRID_SIZE
    files[f"zeroset-{n}.json"] = command_groups(n)["zeroset"]
    # every Taylor profile on the default schedule, and the kernel count at
    # order 1024
    taylor = [e for e in catalog_names() if get_example(e).taylor_fn is not None]
    files["density.json"] = [["density", "--f", e] for e in taylor]
    files["toeplitz-kernel-1024.json"] = [
        ["toeplitz-kernel", "--f", e, "--M", "1024"] for e in taylor
    ]
    return files


def write_corpus(out_dir: Path) -> None:
    """Write every corpus file into ``out_dir``, keeping each leaf already
    there that has not moved."""
    from test_golden import merge_record  # test_golden imports this module

    out_dir.mkdir(parents=True, exist_ok=True)
    for name, argvs in golden_files().items():
        path = out_dir / name
        old = {}
        if path.exists():
            old = {tuple(r["argv"]): r for r in json.loads(path.read_text())["runs"]}
        runs = []
        for argv in argvs:
            new = record(argv)
            kept = old.get(tuple(argv))
            moved = ["new command line"]
            if kept is not None:
                new, moved = merge_record(kept, new)
            if moved and old:
                print(" ".join(argv), *moved, sep="\n  ")
            runs.append(new)
        text = json.dumps({"runs": runs}, indent=1, sort_keys=True)
        path.write_text(text + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(GOLDEN_DIR), help="corpus directory")
    write_corpus(Path(parser.parse_args().out))
