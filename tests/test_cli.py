"""End-to-end CLI behavior: exit codes, JSON reports, files, stdin, config."""

import io
import json

import pytest

from hardylab import CircleGrid, example_boundary, signal_to_csv
from hardylab import cli
from hardylab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_outer_report(capsys):
    code, out, err = run(capsys, "synth-outer", "--k", "ramp-logmod", "--grid-size", "1024")
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["grid_size"] == 1024
    assert report["clip_floor"] == -30
    assert report["clipped_fraction"] == 0.0
    assert report["boundary_sup"] == pytest.approx(1.0, abs=1e-9)


def test_synth_outer_writes_companion_files(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, out, _ = run(
        capsys, "synth-outer", "--k", "ramp-logmod", "--grid-size", "512",
        "--out", str(out_dir),
    )
    assert code == 0
    assert (out_dir / "report.json").read_text() == out
    assert (out_dir / "boundary.csv").read_text().startswith("theta,re,im")
    assert (out_dir / "log_modulus.csv").exists()


def test_factorize_flags_inner_input(capsys):
    code, out, _ = run(capsys, "factorize", "--f", "blaschke-half", "--grid-size", "1024")
    assert code == 0
    report = json.loads(out)
    assert report["is_inner_input"] is True
    assert report["is_outer_input"] is False
    assert report["unimodular_residual"] < 1e-6


def test_zeroset_report(capsys):
    code, out, _ = run(capsys, "zeroset", "--f", "one-minus-z", "--grid-size", "1024")
    assert code == 0
    report = json.loads(out)
    assert report["zero_set"]["angles"] == [0.0]
    assert report["in_zinfty"] is True
    assert report["in_disc_algebra"] is True


def test_density_single_order(capsys):
    code, out, _ = run(capsys, "density", "--f", "one-minus-z", "--M", "15")
    assert code == 0
    report = json.loads(out)
    # closed-form oracle: squared distance 1/(M+1)
    assert report["distance_squared"] == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_density_schedule_writes_csv(capsys, tmp_path):
    out_dir = tmp_path / "density"
    code, out, _ = run(
        capsys, "density", "--f", "one-minus-z", "--schedule", "1,3,7",
        "--out", str(out_dir),
    )
    assert code == 0
    report = json.loads(out)
    assert [row["M"] for row in report["profile"]] == [1, 3, 7]
    csv = (out_dir / "density.csv").read_text()
    assert csv.splitlines()[0] == "M,distance"
    assert len(csv.splitlines()) == 4


def test_toeplitz_kernel(capsys):
    code, out, _ = run(capsys, "toeplitz-kernel", "--f", "shift-squared", "--M", "5")
    assert code == 0
    assert json.loads(out)["kernel_dim"] == 2


def test_approx_unit_peak_schedule(capsys, tmp_path):
    out_dir = tmp_path / "units"
    code, out, _ = run(
        capsys, "approx-unit", "--generators", "one-minus-z", "--strategy", "peak",
        "--schedule", "1,2,4", "--grid-size", "4096", "--out", str(out_dir),
    )
    assert code == 0
    report = json.loads(out)
    assert report["strategy"] == "peak"
    assert [s["power"] for s in report["stages"]] == [1, 2, 4]
    assert report["stages"][0]["error"] == pytest.approx(0.5, abs=1e-9)
    for n in (1, 2, 4):
        assert (out_dir / f"unit-{n:04d}.csv").exists()


def test_certify_pass_exit_zero(capsys):
    code, out, err = run(capsys, "certify", "--generators", "two-plus-z", "--grid-size", "1024")
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["passed"] is True
    assert report["zero_angles"] == []


def test_certify_without_out_formats_no_csv(capsys, monkeypatch):
    def refuse(_):
        raise AssertionError("CSV formatted without --out")

    monkeypatch.setattr(cli, "signal_to_csv", refuse)
    code, _, err = run(capsys, "certify", "--generators", "one-minus-z", "--grid-size", "4096")
    assert code == 0, err


def test_certify_failure_exit_two(capsys):
    code, out, err = run(capsys, "certify", "--generators", "shift", "--grid-size", "1024")
    assert code == 2
    assert json.loads(out)["failure_reason"] == "NotOuter"
    error = json.loads(err)
    assert error["error"] == "NotOuter"
    assert "inner factor" in error["message"]


def test_member_cli(capsys):
    code, out, _ = run(
        capsys, "member", "--h", "one-minus-z-squared",
        "--generators", "one-minus-z", "--grid-size", "4096",
    )
    assert code == 0
    report = json.loads(out)
    assert report["member"] is True
    assert report["certificate_passed"] is True


def test_prime_check_cli(capsys):
    code, out, _ = run(
        capsys, "prime-check", "--a", "two-plus-z", "--b", "one-minus-z",
        "--generators", "one-minus-z", "--delta", "0.9", "--grid-size", "4096",
    )
    assert code == 0
    assert json.loads(out)["division_holds"] is True


def test_prime_check_bad_divisor_is_domain_error(capsys):
    code, _, err = run(
        capsys, "prime-check", "--a", "one-minus-z", "--b", "two-plus-z",
        "--generators", "one-minus-z", "--grid-size", "4096",
    )
    assert code == 2
    assert json.loads(err)["error"] == "HypothesisFailed"


def test_unknown_registry_name(capsys):
    code, _, err = run(capsys, "factorize", "--f", "no-such-function")
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "UnknownExample"
    assert "one-minus-z" in error["message"]


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth-outer"])
    assert exc.value.code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "usage"


def test_stdin_signal(capsys, monkeypatch):
    csv = signal_to_csv(example_boundary("one-minus-z", CircleGrid(1024)))
    monkeypatch.setattr("sys.stdin", io.StringIO(csv))
    code, out, _ = run(capsys, "factorize", "--f", "-")
    assert code == 0
    assert json.loads(out)["grid_size"] == 1024


def test_config_supplies_defaults_but_flags_win(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"grid_size": 1024, "out": null}')
    code, out, _ = run(
        capsys, "zeroset", "--f", "one-minus-z", "--config", str(cfg)
    )
    assert code == 0
    assert json.loads(out)["grid_size"] == 1024
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]  # null is no --out

    code, out, _ = run(
        capsys, "zeroset", "--f", "one-minus-z", "--config", str(cfg),
        "--grid-size", "512",
    )
    assert code == 0
    assert json.loads(out)["grid_size"] == 512


def test_config_rejects_unknown_keys_and_bad_files(capsys, tmp_path):
    bad_key = tmp_path / "bad.json"
    bad_key.write_text('{"does_not_exist": 1}')
    code, _, err = run(capsys, "zeroset", "--f", "one-minus-z", "--config", str(bad_key))
    assert code == 1
    assert json.loads(err)["error"] == "io-format"

    code, _, err = run(capsys, "zeroset", "--f", "one-minus-z", "--config", str(tmp_path / "missing.json"))
    assert code == 1

    not_object = tmp_path / "arr.json"
    not_object.write_text("[1, 2]")
    code, _, _ = run(capsys, "zeroset", "--f", "one-minus-z", "--config", str(not_object))
    assert code == 1


@pytest.mark.parametrize(
    "config",
    [{"tol": "abc"}, {"grid_size": 4096.5}, {"strategy": "bogus"}, {"out": ["d"]}],
)
def test_config_values_parse_like_flags(capsys, tmp_path, monkeypatch, config):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "certify", "--generators", "two-plus-z", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "io-format"


def test_reproduce_bundle(capsys, tmp_path):
    code, out, _ = run(capsys, "reproduce", "zeroset-two-point", "--out", str(tmp_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["passed"] is True
    bundle_dir = tmp_path / "zeroset-two-point"
    assert (bundle_dir / "summary.json").exists()
    assert (bundle_dir / "config.json").exists()
    assert (bundle_dir / "inputs").is_dir()
    assert (bundle_dir / "outputs").is_dir()


def test_reproduce_unknown_bundle(capsys, tmp_path):
    code, _, err = run(capsys, "reproduce", "no-such-bundle", "--out", str(tmp_path))
    assert code == 2
    assert json.loads(err)["error"] == "UnknownExample"


def test_reports_byte_identical_across_runs(capsys, tmp_path):
    args = ("certify", "--generators", "two-plus-z", "--grid-size", "1024")
    code_a, _, _ = run(capsys, *args, "--out", str(tmp_path / "a"))
    code_b, _, _ = run(capsys, *args, "--out", str(tmp_path / "b"))
    assert code_a == code_b == 0
    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()
