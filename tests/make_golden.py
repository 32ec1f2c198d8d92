"""Write the report corpus that ``tests/test_golden.py`` holds the program to.

Usage::

    python tests/make_golden.py [--out DIR]

``DIR`` defaults to ``tests/golden``. Each file ``<group>-<N>.json`` holds one
record per command line: the argv, the exit code, the report printed on
stdout and the JSON object printed on stderr (each parsed, or null when
empty), and, at N = 512, a few norms of every CSV the run wrote. The commands
run in-process through ``hardylab.cli.main`` on the source tree next to this
script, so two runs on one machine write byte-identical files.

Where ``DIR`` already holds a corpus file, each of its records that
``test_golden.compare_record`` finds unmoved is kept byte for byte, and only
the moved records are replaced; the script prints the argv and the moved
fields of each. A fresh ``DIR`` gets every record new. So a change that
moves a report regenerates in place, and the golden diff shows only what
moved; it goes in together with a CHANGES.md line naming each moved
exact-class field and its cause.
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

#: The zeroset runs whose boundary comes from synth_outer; the others call
#: no FFT, and their continuity probes would dominate the corpus time.
ZEROSET_ENTRIES = ("offset-ramp", "ramp-logmod", "banded-logmod")


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
        "zeroset": [["zeroset", "--f", e, *size] for e in ZEROSET_ENTRIES],
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
        n = int(argv[argv.index("--grid-size") + 1])
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
    return {
        f"{group}-{n}.json": argvs
        for n in GRID_SIZES
        for group, argvs in command_groups(n).items()
    }


def write_corpus(out_dir: Path) -> None:
    """Write every corpus file into ``out_dir``, keeping each record already
    there that has not moved."""
    from test_golden import compare_record  # test_golden imports this module

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
            moved = ["new command line"] if kept is None else compare_record(kept, new)
            if not moved:
                new = kept
            elif old:
                print(" ".join(argv), *moved, sep="\n  ")
            runs.append(new)
        text = json.dumps({"runs": runs}, indent=1, sort_keys=True)
        path.write_text(text + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(GOLDEN_DIR), help="corpus directory")
    write_corpus(Path(parser.parse_args().out))
