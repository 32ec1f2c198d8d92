"""Every reproduction bundle must run green and leave a self-contained record."""

import json

import pytest

import hardylab.ideals
from hardylab import UnknownExample, bundle_names, run_bundle


def test_bundle_registry_is_sorted():
    names = bundle_names()
    assert list(names) == sorted(names)
    assert len(names) == 11


def test_unknown_bundle_lists_known_names(tmp_path):
    with pytest.raises(UnknownExample, match="zeroset-banded"):
        run_bundle("definitely-not-a-bundle", tmp_path)


@pytest.mark.parametrize("name", bundle_names())
def test_bundle_passes_and_records(name, tmp_path):
    summary = run_bundle(name, tmp_path)
    assert summary["passed"] is True
    assert summary["bundle"] == name
    assert summary["criteria"]
    assert summary["checks"]
    assert all(check["passed"] for check in summary["checks"])

    bundle_dir = tmp_path / name
    on_disk = json.loads((bundle_dir / "summary.json").read_text())
    assert on_disk == summary
    assert (bundle_dir / "config.json").exists()
    # every bundle leaves artifacts; inputs/ appears only when one records
    # its source signals as files
    assert (bundle_dir / "outputs").is_dir()
    assert any((bundle_dir / "outputs").iterdir())


def test_bundle_output_is_deterministic(tmp_path):
    run_bundle("szego-dichotomy", tmp_path / "a")
    run_bundle("szego-dichotomy", tmp_path / "b")
    first = (tmp_path / "a" / "szego-dichotomy" / "summary.json").read_bytes()
    second = (tmp_path / "b" / "szego-dichotomy" / "summary.json").read_bytes()
    assert first == second


def test_peak_decay_without_stages_reports_a_failed_check(tmp_path):
    # at N=512 the peak certificate fails before building any stage
    summary = run_bundle("peak-decay", tmp_path, grid_size=512)
    assert summary["passed"] is False
    failed = [c for c in summary["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["certification passes by power 200"]
    assert failed[0]["detail"].startswith("final power n/a")


def test_shared_zero_combined_without_certificates_reports_a_failed_check(tmp_path):
    # at N=512 one-minus-z is refused as not outer, so membership is not asked
    summary = run_bundle("shared-zero-combined", tmp_path, grid_size=512)
    assert summary["passed"] is False
    failed = [c["name"] for c in summary["checks"] if not c["passed"]]
    assert "membership sets coincide with the single-generator ideal" in failed
    on_disk = json.loads((tmp_path / "shared-zero-combined" / "summary.json").read_text())
    assert on_disk == summary


def test_shared_zero_combined_builds_each_generators_units_once(tmp_path, monkeypatch):
    # the single-generator certificate is the pair's first sub-certificate
    calls = []

    def counted(spec, *args, _orig=hardylab.ideals.approx_unit_sublevel, **kwargs):
        calls.append(spec.names)
        return _orig(spec, *args, **kwargs)

    monkeypatch.setattr(hardylab.ideals, "approx_unit_sublevel", counted)
    summary = run_bundle("shared-zero-combined", tmp_path, grid_size=4096)
    assert summary["passed"] is True
    assert calls == [("one-minus-z",), ("one-minus-z-times-exp",)]
