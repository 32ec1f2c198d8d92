"""The JSON emitter must be deterministic down to the byte."""

import json

import numpy as np
import pytest

from hardylab import (
    certificate_report,
    certify_mideal,
    continuous_extension,
    dumps,
    essential_zero_set,
    example_boundary,
    ideal,
    zinfty_report,
)
from hardylab.serialize import (
    dump_text,
    extension_report,
    stage_report,
    zero_set_report,
    zinfty_report_dict,
)


def test_scalar_rendering():
    assert dumps(None) == "null"
    assert dumps(True) == "true"
    assert dumps(np.bool_(False)) == "false"
    assert dumps(7) == "7"
    assert dumps(np.int64(-3)) == "-3"
    assert dumps(2.5) == "2.5"
    assert dumps(0.1) == "0.10000000000000001"
    assert dumps(np.float64(1.0) / 3.0) == "0.33333333333333331"
    assert dumps(float("inf")) == "null"
    assert dumps(float("nan")) == "null"
    assert dumps(1.0 - 2.0j) == "[1, -2]"
    assert dumps(np.complex128(3j)) == "[0, 3]"
    assert dumps('quote " and slash \\') == json.dumps('quote " and slash \\')


def test_container_layout():
    text = dumps({"b": [1, 2.5], "a": {"x": 1.0 - 2.0j}, "c": [], "d": {}})
    assert text == (
        '{\n  "a": {\n    "x": [1, -2]\n  },\n  "b": [\n    1,\n    2.5\n  ],'
        '\n  "c": [],\n  "d": {}\n}'
    )
    # keys come out sorted regardless of insertion order
    assert dumps({"z": 1, "a": 2}) == dumps(dict([("a", 2), ("z", 1)]))
    assert dumps(np.array([[1.0, 2.0]])) == "[\n  [\n    1,\n    2\n  ]\n]"


def test_dump_text_appends_newline():
    assert dump_text([1]) == dumps([1]) + "\n"


def test_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps(object())
    with pytest.raises(TypeError, match="unknown stage type object"):
        stage_report(object())


def test_report_is_valid_json_and_loads_back():
    payload = {"name": "x", "values": [1.5, 2.0 + 1.0j], "flag": True, "miss": None}
    loaded = json.loads(dumps(payload))
    assert loaded == {"name": "x", "values": [1.5, [2.0, 1.0]], "flag": True, "miss": None}


def test_extension_report_fields(small_grid):
    f = example_boundary("one-minus-z", small_grid)
    ext = continuous_extension(f, 0.0)
    rep = extension_report(ext)
    assert rep["ok"] is True
    assert rep["value"] == complex(ext.value)
    assert rep["tolerance"] == ext.tolerance
    assert rep["radii"] == list(ext.radii)
    assert "center" not in rep and "oscillations" not in rep
    assert isinstance(rep["decay_ratio"], float)


def test_zero_set_report_shape(small_grid):
    est = essential_zero_set(example_boundary("one-minus-z", small_grid))
    rep = zero_set_report(est)
    assert set(rep) == {"angles", "resolution"}
    assert rep["angles"] == [0.0]
    assert rep["resolution"] == est.resolution


def test_zinfty_report_dict_pairs_angles_with_extensions(small_grid):
    rep = zinfty_report(example_boundary("one-minus-z", small_grid))
    d = zinfty_report_dict(rep)
    assert d["in_zinfty"] is True
    assert [e["angle"] for e in d["extensions"]] == d["zero_set"]["angles"]
    assert all(e["extension"]["ok"] for e in d["extensions"])


def test_certificate_report_stage_kinds(grid, small_grid):
    sub = certify_mideal(ideal([example_boundary("one-minus-z", grid)], ["one-minus-z"]))
    rep = certificate_report(sub)
    assert rep["strategy"] == "sublevel"
    assert rep["passed"] is True
    assert {s["kind"] for s in rep["stages"]} == {"sublevel"}
    assert rep["zero_angles"] == [0.0]
    assert "peak_alignment" not in rep
    assert "sub_certificates" not in rep

    peak = certify_mideal(
        ideal([example_boundary("one-minus-z", grid)], ["one-minus-z"]),
        strategy="peak",
    )
    prep = certificate_report(peak)
    assert {s["kind"] for s in prep["stages"]} == {"peak"}
    assert prep["peak_alignment"]["rescaled"] is False
    assert prep["peak_alignment"]["alpha"] == peak.peak_prep.alpha

    pair = certify_mideal(
        ideal(
            [example_boundary("one-minus-z", grid), example_boundary("one-plus-z", grid)],
            ["one-minus-z", "one-plus-z"],
        )
    )
    comb = certificate_report(pair)
    assert [s["kind"] for s in comb["stages"]] == ["combined"]
    assert "combined_inf" not in comb
    assert comb["stages"][0]["ess_inf"] == pair.stages[0].ess_inf
    assert len(comb["sub_certificates"]) == 2
    assert all(s["strategy"] == "sublevel" for s in comb["sub_certificates"])


def test_failed_certificate_serializes_infinity_as_null(small_grid):
    failed = certify_mideal(ideal([example_boundary("shift", small_grid)], ["shift"]))
    assert not failed.passed
    text = dump_text(certificate_report(failed))
    assert '"final_error": null' in text
    assert '"failure_reason": "NotOuter"' in text
    assert json.loads(text)["stages"] == []


def test_reports_are_byte_identical_across_runs(grid):
    spec = ideal([example_boundary("one-minus-z", grid)], ["one-minus-z"])
    a = dump_text(certificate_report(certify_mideal(spec, strategy="peak")))
    b = dump_text(certificate_report(certify_mideal(spec, strategy="peak")))
    assert a == b
