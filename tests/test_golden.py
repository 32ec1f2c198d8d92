"""Hold every corpus command line to the report recorded in ``tests/golden``.

``make_golden.py`` lists the command lines and writes the corpus; this test
runs them again and sorts every field of each record into one of three
classes:

- exact: the exit code, every string (error kind, ``failure_reason``,
  strategy, conclusion, notes), every boolean and null, every dict's keys and
  every list's length (so zero counts and stage counts);
- numeric: every JSON number, int or float alike (the serializer writes an
  exact 1.0 as ``1``), within ``TOLERANCES`` by its nearest key;
- threshold-sensitive: the fields in ``THRESHOLD_SENSITIVE`` of a sublevel
  stage that is not the last of its list. A node whose modulus sits at a
  stage's level e^-m can fall on either side of it under a roundoff move, and
  that moves these fields by more than roundoff. The last stage, and with it
  the verdict, stays in the numeric class.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import pytest

import make_golden


class Tol(NamedTuple):
    """Accept ``|new - old| <= abs + rel * |old|``."""

    rel: float
    abs: float


#: Numeric class, by JSON key; "*" covers every key not listed. Roundoff
#: moves of the FFT and reduction order stay under 1e-16 relative above the
#: absolute floor; the margin covers other numpy builds.
TOLERANCES = {
    "*": Tol(rel=1e-10, abs=1e-13),
}

#: Threshold-sensitive class: these keys of a sublevel stage that is not the
#: last of its stage list. A node that leaves the e^-3 support of
#: banded-logmod at N = 4096 moved on_support_max from e^-3 to e^-4 (63 %),
#: error by 5.8 %, support_measure by 2.7 % and value_at_zero by 0.2 %.
THRESHOLD_SENSITIVE = {
    "error": Tol(rel=0.1, abs=1e-12),
    "support_measure": Tol(rel=0.05, abs=1e-12),
    "on_support_max": Tol(rel=1.0, abs=1e-12),
    "value_at_zero": Tol(rel=0.01, abs=1e-12),
}

CORPUS_LIMIT_BYTES = 2_000_000


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _compare(old, new, path: str, key: str, loose: bool, out: list) -> None:
    """Append to ``out`` one line per field of ``new`` outside its class."""
    if _is_number(old) and _is_number(new):
        if loose and key in THRESHOLD_SENSITIVE:
            tol = THRESHOLD_SENSITIVE[key]
        else:
            tol = TOLERANCES.get(key, TOLERANCES["*"])
        if not abs(new - old) <= tol.abs + tol.rel * abs(old):
            out.append(f"{path}: {old!r} -> {new!r} (tolerance {tol})")
    elif isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            out.append(f"{path}: keys {sorted(old)} -> {sorted(new)}")
            return
        for k in old:
            _compare(old[k], new[k], f"{path}.{k}", k, loose, out)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            out.append(f"{path}: length {len(old)} -> {len(new)}")
            return
        for i, (a, b) in enumerate(zip(old, new)):
            intermediate = key == "stages" and i < len(old) - 1
            sub_loose = loose or (
                intermediate and isinstance(a, dict) and a.get("kind") == "sublevel"
            )
            _compare(a, b, f"{path}[{i}]", key, sub_loose, out)
    elif type(old) is not type(new) or old != new:
        out.append(f"{path}: {old!r} -> {new!r}")


def compare_record(old: dict, new: dict) -> list[str]:
    """Every field of ``new`` that leaves its class against ``old``."""
    out: list[str] = []
    _compare(old, new, "", "", False, out)
    return out


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
    # an intermediate sublevel stage takes the looser bound, the last does not
    new = json.loads(json.dumps(old))
    new["stages"][0]["error"] = 1.05
    assert compare_record(old, new) == []
    new["stages"][1]["error"] = 1.05
    assert compare_record(old, new) == [
        f".stages[1].error: 1.0 -> 1.05 (tolerance {TOLERANCES['*']})"
    ]
    # booleans, strings, lengths and keys are exact
    assert compare_record({"a": True}, {"a": 1})
    assert compare_record({"a": "x"}, {"a": "y"})
    assert compare_record({"a": [1]}, {"a": [1, 1]})
    assert compare_record({"a": 1}, {"b": 1})
    assert compare_record({"a": None}, {"a": 0.0})
