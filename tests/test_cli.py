"""End-to-end CLI behavior: exit codes, JSON reports, files, stdin, config."""

import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from hardylab import (
    AnalyticRep,
    CircleGrid,
    certify_mideal,
    example_boundary,
    ideal,
    membership,
    signal_from_csv,
    signal_from_values,
    signal_to_csv,
    synth_outer,
)
import hardylab
from hardylab import cli
from hardylab.catalog import ramp_log_modulus
from hardylab.cli import main
from hardylab.grid import MAX_GRID_SIZE, BoundarySignal
from hardylab.ideals import DEFAULT_MAIN_STAGES, DEFAULT_PEAK_SCHEDULE, combine_units
from hardylab.serialize import dump_text
from hardylab.toeplitz import MAX_ORDER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def byte_stdin(data):
    """A stdin that holds bytes under its text layer, as a real one does."""
    return io.TextIOWrapper(io.BytesIO(data if isinstance(data, bytes) else data.encode()))


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


@pytest.mark.parametrize("size", [8, 4096])
@pytest.mark.parametrize("argv", [
    ["factorize", "--f", "one-minus-z"],
    ["synth-outer", "--k", "ramp-logmod"],
    ["approx-unit", "--generators", "one-minus-z"],
    ["certify", "--generators", "exp-z"],
    ["reproduce", "offrange-peak"],
], ids=["factorize", "synth-outer", "approx-unit", "certify", "reproduce"])
def test_written_csv_files_equal_signal_to_csv_byte_for_byte(capsys, monkeypatch, tmp_path, argv, size):
    # every CSV a command writes streams through one file writer; record the
    # signal behind each file, then compare the file with the text writer's
    # output for that signal (8 rows fill part of one block, 4096 two blocks)
    written = {}
    write_csv = hardylab.grid._write_csv

    def record(path, f):
        written[Path(path)] = f
        write_csv(path, f)

    monkeypatch.setattr(hardylab.grid, "_write_csv", record)
    code, _, err = run(capsys, *argv, "--grid-size", str(size), "--out", str(tmp_path))
    assert code == 0, err
    assert written and sorted(written) == sorted(tmp_path.rglob("*.csv"))
    for path, f in written.items():
        assert path.read_bytes() == signal_to_csv(f).encode("ascii"), path.name
    if argv[0] == "synth-outer":  # an all-zero im column, spelled without the field kernel
        assert not np.any(written[tmp_path / "log_modulus.csv"].values.imag)


def _cold_peak(capsys, warm_argv, argv):
    """The exit code and tracemalloc peak of the command ``argv``, run after
    ``warm_argv``, the same command on 4096-node inputs, has imported what
    the command imports on first use (orjson, numpy.fft), and with the
    grid's theta-column and field-kernel caches cleared. So the peak does
    not depend on which tests ran before. 4096 is the smallest grid on which
    1 - z certifies: below it the certificate is refused as NotOuter before
    any unit is built, and the warm-up would miss numpy.fft."""
    assert run(capsys, *warm_argv)[0] == 0
    grid = hardylab.grid
    for cache in (grid._theta_column, grid._field_tables):
        cache.cache_clear()
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, *argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Bytes per node of a command's tracemalloc peak at N = 65536, with --out,
# measured by ``_cold_peak``: the same in a run of this test alone and in the
# full suite. The per-float formatter peaked at 241.0 B/node (15.06 MiB) in
# factorize and 211.6 B/node (13.23 MiB) in synth-outer, and the field kernel
# writing each file's whole text at 226.5 and 202.5. Streamed a block at a
# time, with the theta column cached as S24 fields, the files no longer set
# the peaks: 127.8 and 103.5. Each budget is a peak plus 5 %.
@pytest.mark.parametrize("argv, budget", [
    (["factorize", "--f", "one-minus-z"], 134),
    (["synth-outer", "--k", "ramp-logmod"], 109),
], ids=["factorize", "synth-outer"])
def test_out_commands_keep_their_memory_budget_at_65536_nodes(capsys, tmp_path, argv, budget):
    code, peak = _cold_peak(
        capsys,
        [*argv, "--grid-size", "4096", "--out", str(tmp_path / "warm")],
        [*argv, "--grid-size", "65536", "--out", str(tmp_path / "run")],
    )
    assert code == 0
    assert peak <= budget * 65536


# The same peaks, without --out, for commands that read 65536-node CSV
# files (one-minus-z as f, one-minus-z-squared as h, two-plus-z as a), each
# budget a peak plus 5 %, rounded up: certify 100.3, certify on the pair f, h
# 116.4 (it folds two sub-certificates' units), member 124.4, prime-check
# 140.5, approx-unit sublevel 100.2, zeroset and approx-unit peak 100.2 each.
# No stage keeps arrays for a unit, and the peak powers hold neither the
# rebased generator nor the averaged function.
@pytest.mark.parametrize("argv, budget", [
    (["certify", "--generators", "{f}"], 106),
    (["certify", "--generators", "{f},{h}"], 123),
    (["member", "--h", "{h}", "--generators", "{f}"], 131),
    (["zeroset", "--f", "{f}"], 106),
    (["approx-unit", "--generators", "{f}", "--strategy", "sublevel"], 106),
    (["approx-unit", "--generators", "{f}", "--strategy", "peak"], 106),
    (["prime-check", "--a", "{a}", "--b", "{h}", "--generators", "{f}"], 148),
], ids=["certify", "certify-pair", "member", "zeroset", "approx-unit-sublevel", "approx-unit-peak",
        "prime-check"])
def test_csv_commands_keep_their_memory_budget_at_65536_nodes(capsys, tmp_path, argv, budget):
    inputs = {}
    for size in (4096, 65536):
        paths = inputs[size] = {}
        for key, name in (("f", "one-minus-z"), ("h", "one-minus-z-squared"), ("a", "two-plus-z")):
            paths[key] = tmp_path / f"{key}-{size}.csv"
            paths[key].write_text(signal_to_csv(example_boundary(name, CircleGrid(size))))
    code, peak = _cold_peak(
        capsys, *([a.format(**inputs[size]) for a in argv] for size in (4096, 65536)))
    assert code == 0
    assert peak <= budget * 65536


# The same peaks for commands on registry signals: synth-outer without --out
# (57.1 B/node) and the unit-staircase bundle, which writes its files into
# --out (97.0 B/node; 194.8 when each CSV's whole text was built before the
# write). Each budget is a peak plus 5 %.
@pytest.mark.parametrize("argv, budget", [
    (["synth-outer", "--k", "ramp-logmod"], 60),
    (["reproduce", "unit-staircase", "--out", "{out}"], 102),
], ids=["synth-outer", "reproduce-unit-staircase"])
def test_registry_commands_keep_their_memory_budget_at_65536_nodes(capsys, tmp_path, argv, budget):
    code, peak = _cold_peak(capsys, *(
        [*(a.format(out=tmp_path / str(size)) for a in argv), "--grid-size", str(size)]
        for size in (4096, 65536)))
    assert code == 0
    assert peak <= budget * 65536


# Peaks of the commands that build no grid, by ``_cold_peak`` after the same
# command at lower orders: a density profile to order 1024 peaked at 289.7
# KiB for 1 - z and 808.5 KiB for exp-z, whose 48 coefficients widen every QR
# block. A kernel count holds the band of T, order x (b + 1) complex entries:
# 157.9 KiB for 1 - z at order 1024, and 419.4 KiB for exp-z at order 512,
# whose band alone is 384 KiB. Each budget is a peak plus 5 %.
@pytest.mark.parametrize("warm, argv, budget", [
    (["density", "--f", "one-minus-z", "--schedule", "16,32,64"],
     ["density", "--f", "one-minus-z"], 304 * 1024),
    (["density", "--f", "exp-z", "--schedule", "16,32,64"], ["density", "--f", "exp-z"], 849 * 1024),
    (["toeplitz-kernel", "--f", "one-minus-z", "--M", "512"],
     ["toeplitz-kernel", "--f", "one-minus-z", "--M", "1024"], 166 * 1024),
    (["toeplitz-kernel", "--f", "exp-z", "--M", "64"],
     ["toeplitz-kernel", "--f", "exp-z", "--M", "512"], 441 * 1024),
], ids=["density-one-minus-z", "density-exp-z", "toeplitz-kernel-banded", "toeplitz-kernel-wide"])
def test_order_commands_keep_their_memory_budget(capsys, warm, argv, budget):
    code, peak = _cold_peak(capsys, warm, argv)
    assert code == 0
    assert peak <= budget


def test_synth_outer_from_an_entry_without_a_profile_writes_its_log_abs(capsys, tmp_path):
    """An entry with no log-modulus profile gives the log-modulus of its boundary."""
    code, _, _ = run(
        capsys, "synth-outer", "--k", "one-minus-z", "--grid-size", "512",
        "--out", str(tmp_path),
    )
    assert code == 0
    grid = CircleGrid(512)
    want = signal_to_csv(signal_from_values(grid, example_boundary("one-minus-z", grid).log_abs))
    assert (tmp_path / "log_modulus.csv").read_text() == want


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


@pytest.mark.parametrize("tol", ["nan", "inf", "1.5", "1", "0", "-1"])
def test_toeplitz_kernel_rejects_tol_outside_the_unit_interval(capsys, tol):
    code, out, err = run(
        capsys, "toeplitz-kernel", "--f", "one-minus-z", "--M", "8", "--tol", tol
    )
    assert code == 1
    assert out == ""
    assert "0 < tol < 1" in json.loads(err)["message"]


@pytest.mark.parametrize("command", ["density", "toeplitz-kernel"])
def test_orders_above_the_cap_exit_one_before_allocating(capsys, command):
    tracemalloc.start()
    try:
        for order in (100_000_000, MAX_ORDER + 1):
            code, out, err = run(capsys, command, "--f", "one-minus-z", "--M", str(order))
            assert code == 1
            assert out == ""
            assert str(MAX_ORDER) in json.loads(err)["message"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an order-(MAX_ORDER+1) matrix alone would take about 270 MB
    assert peak < 4 << 20


def test_long_symbol_exits_one_before_allocating(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text(AnalyticRep(np.ones(100_000)).to_json())
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "density", "--f", str(path), "--M", str(MAX_ORDER))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    assert "100000 coefficients" in json.loads(err)["message"]
    # the [T | e0] matrix would take about 6.8 GB; parsing the JSON takes about 20 MB
    assert peak < 64 << 20


def test_grid_size_above_the_cap_exits_one_before_allocating(capsys):
    tracemalloc.start()
    try:
        code, out, err = run(
            capsys, "certify", "--generators", "one-minus-z", "--grid-size", str(2**40)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    assert str(MAX_GRID_SIZE) in json.loads(err)["message"]
    assert peak < 4 << 20


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


@pytest.mark.parametrize("command,generator,schedule", [
    ("certify", "one-minus-z", "200,0"),
    ("approx-unit", "one-minus-z", "4,0,-3"),
    ("approx-unit", "two-plus-z", "4,0,-3"),
], ids=["certify-after-tol", "approx-unit", "before-range-check"])
def test_peak_powers_below_one_exit_one(capsys, command, generator, schedule):
    # every power is checked before any is built: 200 meets tol, and
    # two-plus-z would miss the peak range
    code, out, err = run(
        capsys, command, "--generators", generator, "--strategy", "peak",
        "--schedule", schedule, "--grid-size", "4096",
    )
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "io-format", "message": "peak powers must be positive"}


@pytest.mark.parametrize("command", ["certify", "approx-unit"])
def test_sublevel_stage_past_underflow_exits_one(capsys, command):
    # a stage of 2^64 or more once reached np.exp as a Python int and escaped
    # as a TypeError traceback
    code, out, err = run(
        capsys, command, "--generators", "one-minus-z", "--strategy", "sublevel",
        "--stages", "1,99999999999999999999", "--grid-size", "4096",
    )
    assert code == 1
    assert out == ""
    assert json.loads(err) == {
        "error": "io-format",
        "message": "sublevel stages must be at most 745; e^-m underflows past it",
    }


@pytest.mark.parametrize("generators, flags, message", [
    ("one-minus-z", ("--strategy", "peak", "--stages", "0,-1"), "sublevel stages must be positive"),
    ("one-minus-z", ("--schedule", "0"), "peak powers must be positive"),
    ("shift", ("--stages", "0"), "sublevel stages must be positive"),
    ("one-minus-z", ("--stages", "0"), "sublevel stages must be positive"),
], ids=["stages-under-peak", "schedule-under-auto", "stages-of-inner", "stages-of-outer"])
def test_certify_checks_stages_and_schedule_whichever_route_runs(capsys, generators, flags, message):
    # both lists are checked before any signal work, so the route that runs
    # (or a NotOuter generator) does not decide whether a bad list is seen
    code, out, err = run(capsys, "certify", "--generators", generators, *flags, "--grid-size", "4096")
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "io-format", "message": message}


def test_peak_overflow_refusal_keeps_stderr_one_json_object(capsys, tmp_path):
    # the rescale reciprocal overflows for 1e300*(1-z); a plain process
    # prints every warning recorded here to stderr ahead of the JSON
    g = CircleGrid(4096)
    path = tmp_path / "huge.csv"
    path.write_text(signal_to_csv(signal_from_values(g, 1e300 * (1.0 - np.exp(1j * g.nodes)))))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            capsys, "approx-unit", "--generators", str(path), "--strategy", "peak",
            "--grid-size", "4096",
        )
    assert [str(w.message) for w in caught] == []
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "NormExceeded"


@pytest.mark.parametrize("argv,code,key,want", [
    (["factorize", "--f"], 0, "is_outer_input", True),
    (["zeroset", "--f"], 0, "in_disc_algebra", True),
    (["certify", "--generators"], 0, "passed", True),
    (["certify", "--strategy", "peak", "--generators"], 2, "error", "RangeMiss"),
], ids=["factorize", "zeroset", "certify", "certify-peak"])
def test_constant_near_overflow_is_outer_without_warnings(capsys, tmp_path, argv, code, key, want):
    # the plain node mean of 1e308*(1+i) overflows: is_outer read f(0) as nan
    # and refused this constant as NotOuter, and zeroset's extension means
    # printed numpy warnings ahead of a report
    path = tmp_path / "huge.csv"
    path.write_text(signal_to_csv(signal_from_values(CircleGrid(8), np.full(8, 1e308 * (1 + 1j)))))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, out, err = run(capsys, *argv, str(path))
    assert [str(w.message) for w in caught] == []
    assert got == code
    assert json.loads(out if code == 0 else err)[key] == want


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

    monkeypatch.setattr(hardylab.grid, "_csv_blocks", refuse)
    code, _, err = run(capsys, "certify", "--generators", "one-minus-z", "--grid-size", "4096")
    assert code == 0, err


@pytest.mark.parametrize("size", ["4096", "8192"])
def test_certify_offset_ramp_auto_passes_by_peak(capsys, size):
    # the ramp's zero does not extend continuously, so auto takes the peak route
    code, out, err = run(capsys, "certify", "--generators", "offset-ramp", "--grid-size", size)
    assert code == 0, err
    report = json.loads(out)
    assert (report["passed"], report["strategy"]) == (True, "peak")
    assert report["final_error"] <= report["tol"]


@pytest.mark.parametrize("size", [512, 4096, 8192])
def test_two_dips_nine_nodes_apart_are_a_zero_not_the_whole_algebra(capsys, tmp_path, size):
    # the outer function with log-modulus 0 but -9 at nodes 100 and 109: the
    # dips form one sublevel cluster, so one zero, and certify fails as a
    # single dip does rather than calling the ideal the whole algebra
    grid = CircleGrid(size)
    log_mod = np.zeros(size)
    log_mod[[100, 109]] = -9.0
    path = tmp_path / "dips.csv"
    path.write_text(signal_to_csv(synth_outer(signal_from_values(grid, log_mod)).boundary))
    code, out, err = run(capsys, "zeroset", "--f", str(path))
    assert code == 0, err
    assert len(json.loads(out)["zero_set"]["angles"]) == 1
    code, out, err = run(capsys, "certify", "--generators", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "NormExceeded"
    assert "whole algebra" not in out


def test_certify_failure_exit_two(capsys):
    code, out, err = run(capsys, "certify", "--generators", "shift", "--grid-size", "1024")
    assert code == 2
    assert json.loads(out)["failure_reason"] == "NotOuter"
    error = json.loads(err)
    assert error["error"] == "NotOuter"
    assert "inner factor" in error["message"]


def _command(*argv):
    args = cli.build_parser().parse_args(list(argv))
    return args.func(args)


def test_failed_certificate_is_returned_and_written_once_by_main(capsys):
    argv = ("certify", "--generators", "shift", "--grid-size", "512")
    record = _command(*argv)
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)
    assert record == {"error": "NotOuter", "message": report["conclusion"]}
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == dump_text(record)


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


def test_prime_check_refuses_signals_on_different_grids(capsys, tmp_path):
    divisor = tmp_path / "a.csv"
    divisor.write_text(signal_to_csv(example_boundary("two-plus-z", CircleGrid(1024))))
    code, out, err = run(
        capsys, "prime-check", "--a", str(divisor), "--b", "one-minus-z",
        "--generators", "one-minus-z", "--grid-size", "4096",
    )
    assert code == 1
    assert out == ""
    assert json.loads(err) == {
        "error": "io-format", "message": "signals live on different grids"
    }


@pytest.mark.parametrize("case", [
    "product", "ideal", "combine_units", "membership", "certify", "member", "prime-check",
])
def test_every_meeting_of_two_grids_is_refused_with_one_message(capsys, tmp_path, case):
    fine = example_boundary("one-minus-z", CircleGrid(4096))
    coarse = example_boundary("one-minus-z", CircleGrid(1024))
    library = {
        "product": lambda: fine * coarse,
        "ideal": lambda: ideal([fine, coarse]),
        "combine_units": lambda: combine_units(fine, coarse),
        "membership": lambda: membership(coarse, certify_mideal(ideal([fine]))),
    }
    if case in library:
        with pytest.raises(ValueError, match="^signals live on different grids$"):
            library[case]()
        return
    path = tmp_path / "coarse.csv"
    path.write_text(signal_to_csv(coarse))
    flags = {
        "certify": ["--generators", f"one-minus-z,{path}"],
        "member": ["--h", str(path), "--generators", "one-minus-z"],
        "prime-check": ["--a", "two-plus-z", "--b", str(path), "--generators", "one-minus-z"],
    }[case]
    code, out, err = run(capsys, case, *flags, "--grid-size", "4096")
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "io-format", "message": "signals live on different grids"
    }


@pytest.mark.parametrize("flags", [
    ["member", "--h", "{b}"],
    ["prime-check", "--a", "{a}", "--b", "{b}"],
], ids=["member", "prime-check-pair"])
def test_signals_off_the_ideal_grid_are_refused(capsys, tmp_path, flags):
    paths = {}
    for key, name in (("a", "two-plus-z"), ("b", "one-minus-z")):
        paths[key] = tmp_path / f"{key}512.csv"
        paths[key].write_text(signal_to_csv(example_boundary(name, CircleGrid(512))))
    argv = [f.format(**paths) for f in flags]
    code, out, err = run(capsys, *argv, "--generators", "one-minus-z", "--grid-size", "4096")
    assert code == 1
    assert out == ""
    assert json.loads(err) == {
        "error": "io-format", "message": "signals live on different grids"
    }


@pytest.mark.parametrize("flags", [
    ["member", "--h", "{b}"],
    ["prime-check", "--a", "two-plus-z", "--b", "{b}"],
], ids=["member", "prime-check"])
def test_signals_off_the_ideal_grid_are_refused_before_certifying(capsys, tmp_path, monkeypatch, flags):
    # the shift's certificate fails, yet the grid is refused first, and the
    # certification never runs
    path = tmp_path / "b512.csv"
    path.write_text(signal_to_csv(example_boundary("one-minus-z", CircleGrid(512))))
    monkeypatch.setattr(cli, "certify_mideal", lambda *a, **k: pytest.fail("certified"))
    argv = [f.format(b=path) for f in flags]
    code, out, err = run(capsys, *argv, "--generators", "shift", "--grid-size", "4096")
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "io-format", "message": "signals live on different grids"
    }


@pytest.mark.parametrize("delta, code, error, message", [
    ("-1", 1, "io-format", "delta must be finite and positive, got -1.0"),
    ("nan", 1, "io-format", "delta must be finite and positive, got nan"),
    ("0.5", 2, "HypothesisFailed", "divisor modulus reaches 0, not essentially above 0.5"),
])
def test_prime_check_hypotheses_are_refused_before_certifying(
    capsys, monkeypatch, delta, code, error, message
):
    # a bad delta, or a divisor reaching zero, needs no certificate
    monkeypatch.setattr(cli, "certify_mideal", lambda *a, **k: pytest.fail("certified"))
    got_code, out, err = run(
        capsys, "prime-check", "--a", "one-minus-z", "--b", "two-plus-z",
        "--generators", "one-minus-z", "--delta", delta, "--grid-size", "4096",
    )
    assert (got_code, out) == (code, "")
    assert json.loads(err) == {"error": error, "message": message}


#: Outer generators with log-modulus a + b cos(t) from -10 up past 30 on 14%
#: ("clipped-sup") and 22% ("clipped-count") of the nodes, so their sublevel
#: cofactors fall below the clip floor there and must be built unclipped. No
#: node lies below e^-12, so only the earlier stages have support.
_CLIPPED = {"clipped-sup": (11.0, 21.0), "clipped-count": (12.6, 22.6)}


@pytest.mark.parametrize("size", [512, 4096])
@pytest.mark.parametrize("strategy", ["auto", "sublevel", "peak", "combined"])
@pytest.mark.parametrize("generators", [
    "one-minus-z", "offset-ramp", "shift", "two-plus-z", "one-minus-z,one-minus-z-squared",
    "one-minus-z,one-plus-z", "clipped-sup", "clipped-count",
])
def test_verdict_commands_match_the_full_certificate(
    capsys, monkeypatch, tmp_path, size, strategy, generators
):
    # member and prime-check build only the last sublevel stage; their
    # report, stderr and exit code are those of the certificate with every
    # default stage
    if generators in _CLIPPED:
        a, b = _CLIPPED[generators]
        grid = CircleGrid(size)
        g = synth_outer(signal_from_values(grid, a + b * np.cos(grid.nodes))).boundary
        path = tmp_path / "clipped.csv"
        path.write_text(signal_to_csv(g))
        generators = str(path)
    commands = [
        ["member", "--h", "one-minus-z-squared"],
        ["member", "--h", "one-plus-z"],
        ["prime-check", "--a", "two-plus-z", "--b", "one-minus-z-squared", "--delta", "0.9"],
    ]
    flags = ["--generators", generators, "--strategy", strategy, "--grid-size", str(size)]
    asked = []

    def certify(spec, **kw):
        asked.append(kw["stages"])
        return certify_mideal(spec, **kw)

    monkeypatch.setattr(cli, "certify_mideal", certify)
    got = [run(capsys, *argv, *flags) for argv in commands]
    assert asked == [DEFAULT_MAIN_STAGES[-1:]] * 3
    monkeypatch.setattr(cli, "certify_mideal",
                        lambda spec, **kw: certify_mideal(spec, **{**kw, "stages": DEFAULT_MAIN_STAGES}))
    assert got == [run(capsys, *argv, *flags) for argv in commands]


def test_scipy_loads_only_for_toeplitz_work(tmp_path):
    # density builds its blocks with numpy and factors them with numpy's
    # lapack_lite: on one block (M = 8), on 16 (one-minus-z to 1024) and on
    # blocks wide enough for zgeqrf's blocked path (singular-inner-1,
    # k = 320). So scipy is imported only by a kernel count, at any order,
    # and that count runs scipy.linalg.cython_lapack's extension without
    # scipy.linalg's Python API. A later import of
    # scipy.linalg must still bind the extension, and the counts there are
    # the counts before it.
    script = (
        "import json, sys\n"
        "from hardylab import adjoint_kernel_dim\n"
        "from hardylab.cli import main\n"
        "from oracles import PINNED_1024\n"
        "linalg = lambda: sorted(m for m in sys.modules if m.startswith('scipy.linalg'))\n"
        "loaded, modules = [], []\n"
        "for argv in (\n"
        "    ['factorize', '--f', 'one-minus-z', '--grid-size', '64'],\n"
        "    ['density', '--f', 'one-minus-z', '--M', '8'],\n"
        "    ['density', '--f', 'one-minus-z'],\n"
        "    ['density', '--f', 'singular-inner-1'],\n"
        f"    ['reproduce', 'szego-dichotomy', '--out', {str(tmp_path)!r}],\n"
        "    ['toeplitz-kernel', '--f', 'one-minus-z', '--M', '64'],\n"
        "    ['toeplitz-kernel', '--f', 'one-minus-z', '--M', '1024'],\n"
        "):\n"
        "    assert main(argv) == 0, argv\n"
        "    loaded.append('scipy' in sys.modules)\n"
        "    modules.append(linalg())\n"
        "cold = [adjoint_kernel_dim(f, 1024) for f, _ in PINNED_1024]\n"
        "modules.append(linalg())\n"
        "import numpy as np\n"
        "import scipy.linalg\n"
        "capi = len(scipy.linalg.cython_lapack.__pyx_capi__)\n"
        "eig = scipy.linalg.eigvalsh_tridiagonal(np.zeros(3), np.ones(2)).tolist()\n"
        "warm = [adjoint_kernel_dim(f, 1024) for f, _ in PINNED_1024]\n"
        "pinned = [inside for _, inside in PINNED_1024]\n"
        "print(json.dumps(dict(loaded=loaded, modules=modules, cold=cold, capi=capi, eig=eig,\n"
        "                      warm=warm, pinned=pinned)))\n"
    )
    src = str(Path(hardylab.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["loaded"] == [False, False, False, False, False, True, True]
    assert report["modules"] == [[]] * 8
    assert report["capi"] > 0
    assert report["eig"] == pytest.approx([-2**0.5, 0.0, 2**0.5], abs=1e-15)
    assert report["cold"] == report["warm"] == report["pinned"]


@pytest.mark.parametrize("argv", [
    ["certify", "--generators", "one-minus-z", "--tol", "nan", "--grid-size", "1024"],
    ["certify", "--generators", "one-minus-z", "--tol", "-1", "--grid-size", "1024"],
    ["certify", "--generators", "ramp-logmod", "--strategy", "sublevel", "--tol", "inf",
     "--grid-size", "1024"],
    ["certify", "--generators", "one-minus-z", "--bound", "nan", "--grid-size", "1024"],
    ["member", "--h", "one-minus-z", "--generators", "one-minus-z", "--tol", "nan",
     "--grid-size", "1024"],
    ["prime-check", "--a", "one-minus-z", "--b", "one-minus-z-squared",
     "--generators", "one-minus-z", "--delta", "-1", "--grid-size", "4096"],
    ["prime-check", "--a", "one-minus-z", "--b", "one-minus-z-squared",
     "--generators", "one-minus-z", "--delta", "nan", "--grid-size", "4096"],
    ["approx-unit", "--generators", "one-minus-z", "--stages", "0,-2", "--grid-size", "1024"],
])
def test_nonpositive_or_nonfinite_parameters_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "io-format"
    assert "positive" in error["message"]


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
    monkeypatch.setattr("sys.stdin", byte_stdin(csv))
    code, out, _ = run(capsys, "factorize", "--f", "-")
    assert code == 0
    assert json.loads(out)["grid_size"] == 1024


G8_CSV = signal_to_csv(example_boundary("one-minus-z", CircleGrid(8)))
G8_ROW, G8_NEXT = G8_CSV.splitlines()[2:4]


@pytest.mark.parametrize("text", [
    G8_CSV.replace(G8_ROW, G8_ROW.rsplit(",", 1)[0]),
    G8_CSV.replace(G8_ROW, G8_ROW.rsplit(",", 1)[0] + ",x"),
    "theta,re,im\n",
    "theta,re,im\n" + "0,0,0\n" * 12,
    G8_CSV.replace(G8_ROW, G8_ROW + ",0"),
    G8_CSV.replace(G8_ROW, '{},"{}"'.format(*G8_ROW.rsplit(",", 1))),
    G8_CSV.replace(G8_ROW, "nan," + G8_ROW.split(",", 1)[1]),
    G8_CSV.replace(G8_ROW, G8_ROW + " # note"),
    G8_CSV.replace(G8_ROW, G8_ROW + ","),
    G8_CSV.replace(G8_ROW, "   "),
    G8_CSV.replace("\n", ",0\n").replace("theta,re,im,0", "theta,re,im"),
    G8_CSV.replace(G8_ROW, G8_ROW.split(",", 1)[0] + ",1_0," + G8_ROW.rsplit(",", 1)[1]),
    G8_CSV.replace(G8_ROW, G8_ROW.split(",", 1)[0] + ",\u0661," + G8_ROW.rsplit(",", 1)[1]),
    G8_CSV.replace(G8_ROW, G8_ROW.rsplit(",", 1)[0] + ",true"),
    G8_CSV.replace(G8_ROW, G8_ROW.rsplit(",", 1)[0] + ",null"),
    G8_CSV.replace(G8_ROW + "\n" + G8_NEXT, G8_ROW.rsplit(",", 1)[0] + "\n"
                   + G8_ROW.rsplit(",", 1)[1] + "," + G8_NEXT),
], ids=["short-row", "non-numeric", "empty-body", "non-power-of-two",
        "extra-column", "quoted-number", "nan-theta", "comment-tail", "trailing-comma",
        "whitespace-line", "four-fields-every-row", "underscore-digits",
        "arabic-indic-digit", "json-true", "json-null", "two-and-four-fields"])
def test_malformed_csv_exits_one_with_json(capsys, monkeypatch, tmp_path, text):
    monkeypatch.setattr("sys.stdin", byte_stdin(text))
    code, out, err = run(capsys, "factorize", "--f", "-")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "io-format"
    # stdin and a file are both read as bytes: the refusal is the same
    path = tmp_path / "f.csv"
    path.write_bytes(text.encode())
    assert run(capsys, "factorize", "--f", str(path)) == (code, out, err)


_CSV_1024 = signal_to_csv(example_boundary("one-minus-z", CircleGrid(1024))).encode()


@pytest.mark.parametrize("data", [
    b"\xff" + _CSV_1024,
    _CSV_1024[:-10] + b"\xe9" + _CSV_1024[-10:],
    _CSV_1024.replace(b"\n", b"\r\n")[:-10] + b"\xc3" + _CSV_1024.replace(b"\n", b"\r\n")[-10:],
], ids=["first-byte", "last-row", "crlf-last-row"])
@pytest.mark.parametrize("argv", [["factorize", "--f"], ["certify", "--generators"]],
                         ids=["factorize", "certify"])
def test_csv_file_that_is_not_utf8_is_refused_as_read_text_refuses_it(
        capsys, monkeypatch, tmp_path, data, argv):
    # the file and stdin are read as bytes; bytes that are not canonical are
    # decoded as Path.read_text decodes them, so the error names the same
    # byte and offset
    path = tmp_path / "f.csv"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as exc:
        path.read_text()
    want = (1, "", dump_text({"error": "io-format", "message": str(exc.value)}))
    assert run(capsys, *argv, str(path)) == want
    monkeypatch.setattr("sys.stdin", byte_stdin(data))
    assert run(capsys, *argv, "-") == want


_TAYLOR = b'{"coefficients": [[1, 0], [-1, 0]]}\n'
_CONFIG = b'{"M": 8}\n'


def _json_forms(data: bytes) -> list[bytes]:
    """``data`` with a byte that is not UTF-8, after a UTF-8 BOM, and with
    CRLF line ends and a syntax error on line 2."""
    return [data[:-3] + b"\xe9" + data[-3:], b"\xef\xbb\xbf" + data,
            data.replace(b"{", b"{\r\n", 1).replace(b"}\n", b"x\r\n}\r\n")]


def _read_text_refusal(path: Path, what: str) -> str:
    """The stderr of a JSON file's refusal when it is read by read_text."""
    try:
        json.loads(path.read_text())
    except UnicodeDecodeError as exc:
        message = str(exc)
    except ValueError as exc:
        message = f"{what} is not valid JSON: {exc}"
    return dump_text({"error": "io-format", "message": message})


@pytest.mark.parametrize("data", _json_forms(_TAYLOR), ids=["not-utf8", "bom", "crlf-line-2"])
def test_taylor_json_is_decoded_as_read_text_decodes_it(capsys, monkeypatch, tmp_path, data):
    path = tmp_path / "f.json"
    path.write_bytes(data)
    want = (1, "", _read_text_refusal(path, "Taylor input"))
    assert run(capsys, "density", "--f", str(path), "--M", "8") == want
    monkeypatch.setattr("sys.stdin", byte_stdin(data))
    assert run(capsys, "density", "--f", "-", "--M", "8") == want


@pytest.mark.parametrize("data", _json_forms(_CONFIG), ids=["not-utf8", "bom", "crlf-line-2"])
def test_config_file_is_decoded_as_read_text_decodes_it(capsys, tmp_path, data):
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    want = (1, "", _read_text_refusal(path, "config file"))
    assert run(capsys, "density", "--f", "one-minus-z", "--config", str(path)) == want


@pytest.mark.parametrize("argv", [["factorize", "--f"], ["certify", "--generators"]],
                         ids=["factorize", "certify"])
def test_csv_from_stdin_peaks_no_higher_than_from_its_file(capsys, monkeypatch, tmp_path, argv):
    # both are read as bytes, so stdin holds no decoded text and no second
    # encoded copy: a 65536-row text on stdin peaked at 144.1 B/node against
    # 116.2 from its file in factorize when stdin was read as text
    data = signal_to_csv(example_boundary("one-minus-z", CircleGrid(65536))).encode()
    path = tmp_path / "f.csv"
    path.write_bytes(data)
    assert run(capsys, *argv, str(path))[0] == 0  # imports and caches, untraced
    peaks = []
    for token in (str(path), "-"):
        monkeypatch.setattr("sys.stdin", byte_stdin(data))
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, *argv, token)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks[1] <= 1.01 * peaks[0]


@pytest.mark.parametrize("command,flag", [
    ("factorize", "--f"), ("zeroset", "--f"), ("certify", "--generators"),
])
def test_illegal_grid_size_exits_one_for_csv_inputs(capsys, tmp_path, command, flag):
    path = tmp_path / "f.csv"
    path.write_text(signal_to_csv(example_boundary("one-minus-z", CircleGrid(1024))))
    code, out, err = run(capsys, command, flag, str(path), "--grid-size", "7")
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "io-format"
    assert "power of two" in error["message"]


@pytest.mark.parametrize("argv", [
    ["density", "--f", "one-minus-z", "--M", "8"],
    ["toeplitz-kernel", "--f", "one-minus-z", "--M", "8"],
], ids=["density", "toeplitz-kernel"])
def test_grid_size_is_a_usage_error_where_no_grid_is_built(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--grid-size", "1024"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "usage"


def test_csv_above_the_grid_cap_exits_one(capsys, monkeypatch):
    monkeypatch.setattr("hardylab.grid.MAX_GRID_SIZE", 8)
    monkeypatch.setattr("sys.stdin", byte_stdin("theta,re,im\n" + "0,0,0\n" * 16))
    code, out, err = run(capsys, "factorize", "--f", "-")
    assert code == 1
    assert out == ""
    assert "at most 8" in json.loads(err)["message"]


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

    not_json = tmp_path / "broken.json"
    not_json.write_text('{"tol": ')
    code, _, err = run(capsys, "zeroset", "--f", "one-minus-z", "--config", str(not_json))
    assert code == 1
    assert json.loads(err)["error"] == "io-format"
    assert "not valid JSON" in json.loads(err)["message"]


@pytest.mark.parametrize("value, kind", [
    ("[" * 900 + "]" * 900, "a list"),
    (json.dumps(list(range(100_000))), "a list"),
    ('{"a": ' * 900 + "1" + "}" * 900, "an object"),
], ids=["list-900-deep", "list-of-100000", "object-900-deep"])
def test_config_list_or_object_value_is_refused_by_its_type(capsys, tmp_path, value, kind):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"stages": ' + value + "}")
    code, out, err = run(capsys, "certify", "--generators", "one-minus-z", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "io-format", "message": f"config key 'stages': {kind} is not an option value"}
    assert len(err.encode()) < 300


def test_config_integers_stay_integers(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"M": 64}')
    code, out, _ = run(capsys, "density", "--f", "one-minus-z", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["M"] == 64


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


@pytest.mark.parametrize("config,argv", [
    ({"M": 8}, ["density", "--f", "one-minus-z", "--schedule", "16,32"]),
    ({"schedule": "16,32"}, ["density", "--f", "one-minus-z", "--M", "8"]),
    ({"name": "x"}, ["reproduce", "zeroset-two-point"]),
    ({"grid_size": 1024}, ["density", "--f", "one-minus-z", "--M", "8"]),
], ids=["config-order-and-flag-schedule", "config-schedule-and-flag-order",
        "positional-key", "grid-size-without-a-grid"])
def test_config_is_refused_where_its_flag_would_be(capsys, tmp_path, monkeypatch,
                                                   config, argv):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "io-format"
    assert str(cfg) in error["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("from_sys_argv", [False, True], ids=["argv", "sys-argv"])
def test_flag_equal_to_its_default_beats_config(capsys, tmp_path, monkeypatch,
                                                from_sys_argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tol": 0.5}')
    argv = ["toeplitz-kernel", "--f", "one-minus-z", "--M", "8", "--tol", "1e-10",
            "--config", str(cfg)]
    if from_sys_argv:
        monkeypatch.setattr("sys.argv", ["hardylab", *argv])
        code = main()
    else:
        code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["tol"] == 1e-10


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


def test_reproduce_failed_bundle_exits_two_with_json(capsys, tmp_path):
    # at N=512 the peak certificate fails before building any stage
    code, out, err = run(
        capsys, "reproduce", "peak-decay", "--grid-size", "512", "--out", str(tmp_path)
    )
    assert code == 2
    assert json.loads(out)["passed"] is False
    error = json.loads(err)
    assert error["error"] == "BundleFailed"
    assert "certification passes by power 200" in error["message"]


def test_failed_bundle_is_returned_and_written_once_by_main(capsys, tmp_path, monkeypatch):
    checks = [
        {"name": "first check", "passed": False, "detail": ""},
        {"name": "second check", "passed": True, "detail": ""},
        {"name": "third check", "passed": False, "detail": ""},
    ]
    summary = {"bundle": "stub", "passed": False, "checks": checks}
    monkeypatch.setattr(hardylab.reproduce, "run_bundle", lambda *a, **k: summary)
    argv = ("reproduce", "peak-decay", "--out", str(tmp_path))
    record = _command(*argv)
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == summary
    assert record == {"error": "BundleFailed", "message": "failed checks: first check; third check"}
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == dump_text(record)


def test_reproduce_bundle_with_uncertified_ideal_exits_two_with_json(capsys, tmp_path):
    # at N=512 shared-zero-combined cannot certify, so it writes a failed summary
    code, out, err = run(
        capsys, "reproduce", "shared-zero-combined", "--grid-size", "512", "--out", str(tmp_path)
    )
    assert code == 2
    assert json.loads(out)["passed"] is False
    error = json.loads(err)
    assert error["error"] == "BundleFailed"
    assert "membership sets coincide" in error["message"]
    assert (tmp_path / "shared-zero-combined" / "summary.json").exists()


def test_reproduce_refuses_an_illegal_grid_size_even_where_no_grid_is_used(capsys, tmp_path):
    # szego-dichotomy works on Taylor coefficients only, yet records grid_size
    code, out, err = run(
        capsys, "reproduce", "szego-dichotomy", "--grid-size", "7", "--out", str(tmp_path)
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "io-format"
    assert not (tmp_path / "szego-dichotomy").exists()


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


@pytest.mark.parametrize("command", ["density", "toeplitz-kernel"])
@pytest.mark.parametrize("text", [
    "{}",
    "[1, 2]",
    '{"coefficients": [1, 2]}',
    '{"coefficients": [["a", "b"]]}',
], ids=["no-coefficients", "top-level-array", "bare-numbers", "string-pairs"])
def test_malformed_taylor_json_exits_one(capsys, tmp_path, command, text):
    path = tmp_path / "f.json"
    path.write_text(text)
    code, out, err = run(capsys, command, "--f", str(path), "--M", "8")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "io-format"


def test_taylor_json_from_file_and_stdin_match_the_registry(capsys, tmp_path, monkeypatch):
    text = AnalyticRep(np.array([1.0, -1.0])).to_json()
    path = tmp_path / "f.json"
    path.write_text(text)
    _, want, _ = run(capsys, "density", "--f", "one-minus-z", "--schedule", "4,16")
    code, got, _ = run(capsys, "density", "--f", str(path), "--schedule", "4,16")
    assert code == 0
    assert got == want.replace('"one-minus-z"', json.dumps(str(path)))
    monkeypatch.setattr("sys.stdin", byte_stdin(text))
    code, got, _ = run(capsys, "density", "--f", "-", "--schedule", "4,16")
    assert code == 0
    assert got == want.replace('"one-minus-z"', '"-"')


@pytest.mark.parametrize("argv", [
    ["density", "--f", "one-minus-z", "--M", "8", "--schedule", "16,32"],
    ["density", "--f", "one-minus-z", "--schedule", ","],
    ["certify", "--generators", "one-minus-z", "--stages", ""],
    ["approx-unit", "--generators", "one-minus-z", "--schedule", "1,x"],
], ids=["order-and-schedule", "empty-schedule", "empty-stages", "non-integer"])
def test_bad_order_lists_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "usage"


@pytest.mark.parametrize("argv", [["synth-outer", "--k"], ["density", "--f"]])
def test_unknown_log_modulus_and_taylor_inputs_list_known_names(capsys, argv):
    code, _, err = run(capsys, *argv, "no-such-function")
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "UnknownExample"
    assert "one-minus-z" in error["message"]


def ramp_log_modulus_signal(noise: complex = 0.0):
    grid = CircleGrid(1024)
    return signal_from_values(grid, ramp_log_modulus(grid.nodes) + noise)


def test_log_modulus_from_file_and_stdin_match_the_registry(capsys, tmp_path, monkeypatch):
    _, want, _ = run(capsys, "synth-outer", "--k", "ramp-logmod", "--grid-size", "1024")
    path = tmp_path / "k.csv"
    path.write_text(signal_to_csv(ramp_log_modulus_signal()))
    code, got, _ = run(capsys, "synth-outer", "--k", str(path))
    assert (code, got) == (0, want)
    # synthesis reads the real part of a log-modulus with imaginary noise below 1e-9
    monkeypatch.setattr("sys.stdin", byte_stdin(signal_to_csv(ramp_log_modulus_signal(1e-12j))))
    code, got, _ = run(capsys, "synth-outer", "--k", "-")
    assert (code, got) == (0, want)


def test_log_modulus_csv_keeps_signed_zeros_through_synth_outer(capsys, tmp_path):
    """A -0 log-modulus sample comes back as -0 in the written log_modulus.csv,
    from a CSV and from the registry ramp, which is -0.0 at theta = 0."""
    grid = CircleGrid(512)
    text = signal_to_csv(signal_from_values(grid, ramp_log_modulus(grid.nodes)))
    assert text.splitlines()[1] == "0,-0,0"
    path = tmp_path / "k.csv"
    path.write_text(text)
    for k in (str(path), "ramp-logmod"):
        out_dir = tmp_path / f"out-{len(k)}"
        code, _, _ = run(
            capsys, "synth-outer", "--k", k, "--grid-size", "512", "--out", str(out_dir)
        )
        assert code == 0
        assert (out_dir / "log_modulus.csv").read_text() == text


def test_complex_log_modulus_exits_one(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", byte_stdin(signal_to_csv(ramp_log_modulus_signal(1e-6j))))
    code, out, err = run(capsys, "synth-outer", "--k", "-")
    assert code == 1
    assert out == ""
    assert "real-valued" in json.loads(err)["message"]


def test_factorize_csv_file_matches_registry_and_writes_factors(capsys, tmp_path):
    _, want, _ = run(capsys, "factorize", "--f", "shift-exp", "--grid-size", "1024")
    path = tmp_path / "f.csv"
    path.write_text(signal_to_csv(example_boundary("shift-exp", CircleGrid(1024))))
    out_dir = tmp_path / "run"
    code, got, _ = run(capsys, "factorize", "--f", str(path), "--out", str(out_dir))
    assert (code, got) == (0, want)
    assert (out_dir / "report.json").read_text() == got
    inner = signal_from_csv((out_dir / "inner.csv").read_text())
    outer = signal_from_csv((out_dir / "outer.csv").read_text())
    assert inner.grid.size == outer.grid.size == 1024
    assert np.max(np.abs(np.abs(inner.values) - 1.0)) < 1e-6
    f = example_boundary("shift-exp", CircleGrid(1024))
    assert np.max(np.abs(inner.values * outer.values - f.values)) < 1e-6


def test_approx_unit_defaults_to_the_sublevel_stages(capsys):
    code, out, _ = run(capsys, "approx-unit", "--generators", "one-minus-z", "--grid-size", "4096")
    assert code == 0
    report = json.loads(out)
    assert report["strategy"] == "sublevel"
    assert [s["stage"] for s in report["stages"]] == list(DEFAULT_MAIN_STAGES)
    assert all(s["kind"] == "sublevel" for s in report["stages"])
    errors = [s["error"] for s in report["stages"]]
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < 0.05


def test_approx_unit_out_writes_every_stage_and_the_certified_final_unit(capsys, tmp_path):
    units, cert = tmp_path / "units", tmp_path / "cert"
    grid = ("--generators", "one-minus-z", "--grid-size", "4096")
    assert run(capsys, "approx-unit", *grid, "--out", str(units))[0] == 0
    assert run(capsys, "certify", *grid, "--out", str(cert))[0] == 0
    written = sorted(p.name for p in units.glob("unit-*.csv"))
    assert written == [f"unit-{m:04d}.csv" for m in DEFAULT_MAIN_STAGES]
    assert (units / "unit-0012.csv").read_bytes() == (cert / "final-unit.csv").read_bytes()


def test_approx_unit_out_synthesises_the_joint_base_once(capsys, monkeypatch, tmp_path):
    """With several generators every stage's unit is built on the one joint
    outer base that the stages were measured against."""
    calls = []
    orig = hardylab.ideals.outer_boundary

    def counted(*args):
        calls.append(args[0].size)
        return orig(*args)

    monkeypatch.setattr(hardylab.ideals, "outer_boundary", counted)
    code, _, err = run(
        capsys, "approx-unit", "--generators", "one-minus-z,one-minus-z-squared",
        "--grid-size", "4096", "--out", str(tmp_path),
    )
    assert code == 0, err
    assert len(list(tmp_path.glob("unit-*.csv"))) == len(DEFAULT_MAIN_STAGES)
    assert calls == [4096]


def test_approx_unit_peak_out_aligns_the_generator_once(capsys, monkeypatch, tmp_path):
    """The peak stages and every unit they write share the ideal's one
    alignment."""
    calls = []
    orig = hardylab.ideals.prepare_peak

    def counted(f):
        calls.append(f.grid.size)
        return orig(f)

    monkeypatch.setattr(hardylab.ideals, "prepare_peak", counted)
    code, _, err = run(
        capsys, "approx-unit", "--generators", "one-minus-z", "--strategy", "peak",
        "--grid-size", "4096", "--out", str(tmp_path),
    )
    assert code == 0, err
    assert len(list(tmp_path.glob("unit-*.csv"))) == len(DEFAULT_PEAK_SCHEDULE)
    assert calls == [4096]


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


@pytest.mark.parametrize("argv, signals", [
    (["certify", "--generators", "one-minus-z"], 1),
    (["certify", "--generators", "one-minus-z", "--strategy", "peak"], 1),
    (["certify", "--generators", "one-minus-z,one-minus-z-squared"], 2),
    (["factorize", "--f", "one-minus-z"], 1),
    (["zeroset", "--f", "one-minus-z"], 1),
    (["member", "--h", "one-minus-z-squared", "--generators", "one-minus-z"], 2),
])
def test_each_signal_is_clipped_and_measured_once_per_command(capsys, monkeypatch, argv, signals):
    """Every clip goes through one route, and no clipped data comes out of it
    twice; the modulus statistics of each input signal are computed once."""
    clips, measured = [], []
    route = hardylab.grid._clip_log

    def clip(k):
        count = route(k)
        clips.append(_digest(k))  # the clipped data: clipping it again repeats it
        return count

    for name, module in list(sys.modules.items()):
        if name.startswith("hardylab") and getattr(module, "_clip_log", None) is route:
            monkeypatch.setattr(module, "_clip_log", clip)
    compute = BoundarySignal.__dict__["_moduli"].func

    def moduli(f):
        measured.append(_digest(f.values))
        return compute(f)

    spy = functools.cached_property(moduli)
    spy.__set_name__(BoundarySignal, "_moduli")
    monkeypatch.setattr(BoundarySignal, "_moduli", spy)

    code, out, err = run(capsys, *argv, "--grid-size", "4096")
    assert code == 0, err
    assert len(measured) == len(set(measured)) == signals
    # every clip is one input signal's own log-modulus
    assert len(clips) == len(set(clips)) == signals
