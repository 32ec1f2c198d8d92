"""Hold every corpus command line to the report recorded in ``tests/golden``.

``make_golden.py`` lists the command lines and writes the corpus; this test
runs them again and sorts every field of each record into one of two
classes:

- exact: the exit code, every string (error kind, ``failure_reason``,
  strategy, conclusion, notes), every boolean and null, every dict's keys and
  every list's length (so zero counts and stage counts);
- numeric: every JSON number, int or float alike (the serializer writes an
  exact 1.0 as ``1``), within ``TOLERANCE``.

A sublevel stage's fields are numeric like any other: a node whose modulus
sits at a level e^-m is kept out of its set by ``grid._level_cut``, whatever
the last bit of its logarithm.
"""

from __future__ import annotations

import copy
import json
from typing import NamedTuple

import pytest

import make_golden


class Tol(NamedTuple):
    """Accept ``|new - old| <= abs + rel * |old|``."""

    rel: float
    abs: float


#: The numeric class. Roundoff moves of the FFT and reduction order stay
#: under 1e-16 relative above the absolute floor; the margin covers other
#: numpy builds.
TOLERANCE = Tol(rel=1e-10, abs=1e-13)

CORPUS_LIMIT_BYTES = 2_000_000


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _compare(old, new, path: str, out: list):
    """Append to ``out`` one line per field of ``new`` outside its class, and
    return ``old`` with each such field taken from ``new``. A dict is merged
    key by key: shared keys recursively, added keys from ``new``, removed keys
    dropped, one line each. A list whose length changed is taken whole."""
    if _is_number(old) and _is_number(new):
        if not abs(new - old) <= TOLERANCE.abs + TOLERANCE.rel * abs(old):
            out.append(f"{path}: {old!r} -> {new!r} (tolerance {TOLERANCE})")
            return new
    elif isinstance(old, dict) and isinstance(new, dict):
        out.extend(f"{path}.{k}: removed" for k in old if k not in new)
        out.extend(f"{path}.{k}: added" for k in new if k not in old)
        return {k: _compare(old[k], v, f"{path}.{k}", out) if k in old else v for k, v in new.items()}
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            out.append(f"{path}: length {len(old)} -> {len(new)}")
            return new
        return [_compare(a, b, f"{path}[{i}]", out) for i, (a, b) in enumerate(zip(old, new))]
    elif type(old) is not type(new) or old != new:
        out.append(f"{path}: {old!r} -> {new!r}")
        return new
    return old


def merge_record(old: dict, new: dict) -> tuple[dict, list[str]]:
    """``old`` with every field that leaves its class taken from ``new``, and
    the lines ``compare_record`` gives for them."""
    out: list[str] = []
    return _compare(old, new, "", out), out


def compare_record(old: dict, new: dict) -> list[str]:
    """Every field of ``new`` that leaves its class against ``old``."""
    return merge_record(old, new)[1]


@pytest.mark.parametrize("name", sorted(make_golden.golden_files()))
def test_reports_match_the_corpus(name):
    golden = json.loads((make_golden.GOLDEN_DIR / name).read_text())["runs"]
    argvs = make_golden.golden_files()[name]
    assert [r["argv"] for r in golden] == argvs, "corpus command lines differ; regenerate"
    moved = [
        f"{' '.join(old['argv'])}: {line}"
        for old in golden
        for line in compare_record(old, make_golden.record(old["argv"]))
    ]
    assert not moved, "\n".join(moved)


def test_corpus_files_are_small_and_name_no_path():
    files = sorted(make_golden.GOLDEN_DIR.glob("*.json"))
    assert [p.name for p in files] == sorted(make_golden.golden_files())
    assert sum(p.stat().st_size for p in files) < CORPUS_LIMIT_BYTES
    root = str(make_golden.GOLDEN_DIR.parents[1])
    for p in files:
        text = p.read_text()
        assert root not in text and "/tmp" not in text, p.name


def test_comparator_classes():
    stage = {"kind": "sublevel", "error": 1.0, "on_support_max": 0.1, "passed": True}
    old = {"stages": [dict(stage), dict(stage)], "n": 1, "why": "x"}
    assert compare_record(old, json.loads(json.dumps(old))) == []
    # an exact 1.0 is written as 1
    assert compare_record({"sup_base": 1}, {"sup_base": 1.0}) == []
    # numbers within the tolerance pass, wherever they sit
    new = json.loads(json.dumps(old))
    new["stages"][0]["error"] = new["stages"][1]["error"] = 1.0 + 1e-11
    assert compare_record(old, new) == []
    # every sublevel stage is numeric, the intermediate one as the last
    new = json.loads(json.dumps(old))
    new["stages"][0]["error"] = 1.05
    new["stages"][1]["error"] = 1.05
    assert compare_record(old, new) == [
        f".stages[{i}].error: 1.0 -> 1.05 (tolerance {TOLERANCE})" for i in (0, 1)
    ]
    # booleans, strings, lengths and keys are exact
    assert compare_record({"a": True}, {"a": 1})
    assert compare_record({"a": "x"}, {"a": "y"})
    assert compare_record({"a": [1]}, {"a": [1, 1]})
    assert compare_record({"a": 1}, {"b": 1})
    assert compare_record({"a": None}, {"a": 0.0})


def test_regeneration_rewrites_only_the_leaf_that_moved(tmp_path, monkeypatch):
    # a committed record with one leaf moved past its tolerance and another
    # within it: regeneration takes the first anew and keeps the second as
    # committed, and every other leaf as it was
    argv = ["zeroset", "--f", "one-minus-z", "--grid-size", "512"]
    monkeypatch.setattr(make_golden, "golden_files", lambda: {"one.json": [argv]})
    fresh = make_golden.record(argv)
    committed = copy.deepcopy(fresh)
    extension = committed["stdout"]["extensions"][0]["extension"]
    extension["tolerance"] *= 2.0
    extension["radii"][1] *= 1.0 + 1e-12
    (tmp_path / "one.json").write_text(json.dumps({"runs": [committed]}))
    make_golden.write_corpus(tmp_path)
    want = copy.deepcopy(committed)
    want["stdout"]["extensions"][0]["extension"]["tolerance"] = fresh["stdout"]["extensions"][0]["extension"]["tolerance"]
    assert json.loads((tmp_path / "one.json").read_text())["runs"] == [want]


def test_merge_takes_a_container_anew_where_its_keys_or_length_changed():
    # a list whose length changed is taken whole; a dict whose keys changed
    # keeps its shared leaves, takes its added keys and drops its removed ones
    old = {"a": [1.0, 2.0], "b": {"x": 1.0}, "c": {"x": 1.0}, "d": 3.0}
    new = {"a": [1.0, 2.0, 3.0], "b": {"x": 1.0 + 1e-15, "y": 2}, "c": {"x": 1.0 + 1e-15}, "d": 3.0 + 1e-15}
    merged, moved = merge_record(old, new)
    assert merged == {"a": new["a"], "b": {"x": 1.0, "y": 2}, "c": old["c"], "d": old["d"]}
    assert moved == [".a: length 2 -> 3", ".b.y: added"]
    # a renamed key beside a leaf that drifted within tolerance: the rename
    # is reported and taken, the drifted leaf keeps its committed bits
    old = {"ext": {"oscillations": [0.5, 0.25], "tolerance": 5.714483613001311}}
    new = {"ext": {"radii": [0.5, 0.25], "tolerance": 5.71448361300131}}
    merged, moved = merge_record(old, new)
    assert merged == {"ext": {"radii": [0.5, 0.25], "tolerance": 5.714483613001311}}
    assert moved == [".ext.oscillations: removed", ".ext.radii: added"]
