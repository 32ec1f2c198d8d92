"""The CLI's contract on its scalar and list options: every value either runs
or is refused with exit 1 or 2 and one JSON error object on stderr; what
it prints on stdout is one JSON report or nothing.

Each option below gets every value of a fixed pool of edge cases (zero,
negatives, NaN, infinities, extremes of the float range, 2**64, empty and
separator-only text, a non-ASCII digit and an ordinary value). The commands
run in-process through ``cli.main``, with warnings raised as errors, on
registry signals, at 512 nodes where a grid is built. A second sweep feeds
malformed input texts, on stdin or as a ``--config`` file, and each must be
refused with exit 1 and one ``io-format`` object.
"""

import io
import json

import pytest

from hardylab import CircleGrid, example_boundary, signal_to_csv
from hardylab.cli import main

#: Arguments each command runs with before the option under test, which
#: comes last and so overrides a base value of the same option.
BASE = {
    "certify": ["--generators", "ramp-logmod", "--grid-size", "512"],
    "member": ["--h", "ramp-logmod", "--generators", "ramp-logmod", "--grid-size", "512"],
    "prime-check": ["--a", "two-plus-z", "--b", "ramp-logmod", "--generators", "ramp-logmod",
                    "--grid-size", "512"],
    "approx-unit": ["--generators", "ramp-logmod", "--grid-size", "512"],
    "density": ["--f", "one-minus-z"],
    "toeplitz-kernel": ["--f", "one-minus-z", "--M", "8"],
    "zeroset": ["--f", "ramp-logmod", "--grid-size", "512"],
}

OPTIONS = {
    "certify": ("--tol", "--bound", "--stages", "--schedule", "--grid-size"),
    "member": ("--tol", "--grid-size"),
    "prime-check": ("--tol", "--delta", "--grid-size"),
    "approx-unit": ("--stages", "--schedule", "--grid-size"),
    "density": ("--M", "--schedule"),
    "toeplitz-kernel": ("--tol", "--M"),
    "zeroset": ("--grid-size",),
}

VALUES = ("0", "-1", "nan", "inf", "-inf", "1e308", "1e-320", str(2**64), "", ",",
          "١", "0.5")

LINES = [
    [command, *BASE[command], f"{option}={value}"]
    for command, options in OPTIONS.items()
    for option in options
    for value in VALUES
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", LINES, ids=[" ".join([a[0], a[-1]]) for a in LINES])
def test_every_option_value_runs_or_is_refused_with_one_error(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # a usage error
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert out == "" or isinstance(json.loads(out), dict)
    if code == 0:
        assert err == ""
    else:
        failure = json.loads(err)
        assert isinstance(failure, dict) and "error" in failure


BIG_INTEGER_TAYLOR = '{"coefficients": [[%s, 0]]}' % ("9" * 401)
NESTED = "[" * 100_000 + "]" * 100_000
FORM_FEED_CSV = "\f".join(signal_to_csv(example_boundary("one-minus-z", CircleGrid(8))).splitlines())

#: (argv, stdin text, config file text); a config text is passed by --config.
INPUTS = {
    "density big-integer": (["density", "--f", "-", "--M", "4"], BIG_INTEGER_TAYLOR, None),
    "toeplitz-kernel big-integer": (["toeplitz-kernel", "--f", "-", "--M", "4"],
                                    BIG_INTEGER_TAYLOR, None),
    "density nested": (["density", "--f", "-", "--M", "4"], NESTED, None),
    "toeplitz-kernel nested": (["toeplitz-kernel", "--f", "-", "--M", "4"], NESTED, None),
    "density nested-config": (["density", "--f", "one-minus-z", "--M", "4"], "", NESTED),
    "density big-integer-config": (["density", "--f", "one-minus-z"], "",
                                   '{"M": %s}' % ("9" * 401)),
    "factorize form-feed-csv": (["factorize", "--f", "-"], FORM_FEED_CSV, None),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, stdin, config", INPUTS.values(), ids=INPUTS.keys())
def test_every_malformed_input_is_refused_with_one_io_format_error(
        capsys, monkeypatch, tmp_path, argv, stdin, config):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin.encode())))
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "io-format"
