"""The CLI's contract on its scalar and list options: every value either runs
or is refused with exit 1 or 2 and one JSON error object on stderr; what
it prints on stdout is one JSON report or nothing.

Each option below gets every value of a fixed pool of edge cases (zero,
negatives, NaN, infinities, extremes of the float range, 2**64, empty and
separator-only text, a non-ASCII digit and an ordinary value). The commands
run in-process through ``cli.main``, with warnings raised as errors, on
registry signals, at 512 nodes where a grid is built. A second sweep feeds
malformed input texts, on stdin or as a ``--config`` file, and each must be
refused with exit 1 and one ``io-format`` object. A hypothesis property
then draws whole command lines from ``build_parser()`` itself, with mutated
inputs and config files, and holds each to the same contract.
"""

import argparse
import functools
import io
import json
import math
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hardylab import (
    CircleGrid, HardyLabError, approx_unit_peak, approx_unit_sublevel, catalog_names, certify_mideal,
    example_boundary, get_example, ideal, signal_to_csv,
)
from hardylab.cli import _int_list, _name_list, build_parser, main
from hardylab.reproduce import bundle_names
from hardylab.toeplitz import density_profile

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


# ---------------------------------------------------------------------------
# the contract as a property over the command lines the parser admits
# ---------------------------------------------------------------------------

PARSER = build_parser()
#: Each command's parser, by name, as ``build_parser`` registers it.
COMMANDS = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction)).choices
#: Commands whose signals are Taylor series; the others read boundary CSVs.
TAYLOR_COMMANDS = ("density", "toeplitz-kernel")
#: Options that name a directory or a file, drawn by the property itself.
PATH_OPTIONS = ("out", "config")
#: Every example's tracemalloc peak must stay under this. The largest of
#: 1000 examples was 25.5 MiB: a density profile of `two-point-product` to
#: the default order 1024, the one work not bounded by the 4096-node grid.
CONTRACT_BUDGET = 48 << 20


def _mostly(valid, invalid):
    """``valid`` seven times in eight, else ``invalid``: most lines then run
    to the end, and every option is still refused now and then."""
    return st.integers(0, 7).flatmap(lambda i: valid if i else invalid)


_FLOATS = _mostly(st.floats(1e-3, 5.0).map(repr),
                  st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e308", "1e-320"]))
#: Grid sizes: the legal ones up to 4096, and a few that are refused.
_GRID_SIZES = _mostly(st.sampled_from([8, 64, 512, 4096]), st.sampled_from([0, -8, 12, 100])).map(str)
#: Truncation orders: a dense kernel count stays small; 5000 is past MAX_ORDER.
_ORDERS = _mostly(st.integers(1, 200), st.sampled_from([-1, 0, 5000])).map(str)
_LIST_ITEMS = {
    "stages": _mostly(st.integers(1, 40), st.sampled_from([-1, 0, 745, 746])),
    "schedule": _mostly(st.integers(1, 300), st.sampled_from([-1, 0])),
}
_BAD_LISTS = st.sampled_from(["", ",", "1.5", "a,2", "\u0661"])


@functools.cache
def _canonical_csv(name: str, size: int) -> bytes:
    return signal_to_csv(example_boundary(name, CircleGrid(size))).encode()


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    """``data`` with up to three byte-level edits: a cut, an insertion, a
    replacement or a truncation."""
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(data)))
        j = min(len(data), i + draw(st.integers(0, 64)))
        piece = draw(st.sampled_from([b",", b"\n", b"\r\n", b"nan", b"-", b"1e999", b"\xff", b" ", b"0",
                                      b"[", b"}"]) | st.binary(max_size=8))
        op = draw(st.sampled_from(["cut", "insert", "replace", "truncate"]))
        data = {"cut": data[:i] + data[j:], "insert": data[:i] + piece + data[i:],
                "replace": data[:i] + piece + data[j:], "truncate": data[:i]}[op]
    return data


@st.composite
def _stdin(draw, command: str, size: int) -> bytes:
    """A canonical input for ``command``, mutated: a Taylor JSON for the
    Taylor commands, else a boundary CSV on ``size`` nodes, or now and then
    on another grid."""
    name = draw(st.sampled_from(catalog_names()))
    if command in TAYLOR_COMMANDS:
        try:
            data = get_example(name).taylor().to_json().encode()
        except HardyLabError:  # an entry defined on the boundary only
            data = b'{"coefficients": [[1, 0], [-1, 0]]}'
    else:
        data = _canonical_csv(name, draw(_mostly(st.just(size), st.sampled_from([8, 4096]))))
    return draw(_mutated(data))


def _signal():
    """A registry name, or '-' for the mutated input on stdin."""
    return _mostly(st.sampled_from(catalog_names()), st.just("-"))


def _value(command: str, action: argparse.Action):
    """A strategy for the text of one option of ``command``, from what the
    parser says of it: its choices, its type, or else a signal token."""
    if action.choices is not None:
        return _mostly(st.sampled_from(list(action.choices)), st.just("nope"))
    if action.dest == "name":  # the bundle of reproduce
        return _mostly(st.sampled_from(bundle_names()), st.just("nope"))
    if action.type is int:
        return _GRID_SIZES if action.dest == "grid_size" else _ORDERS
    if action.type is float:
        return _FLOATS
    if action.type is _int_list:
        items = _LIST_ITEMS[action.dest]
        if command == "density":  # orders must increase
            items = st.lists(items, min_size=1, max_size=4, unique=True).map(sorted)
        else:
            items = st.lists(items, min_size=1, max_size=4)
        return _mostly(items.map(lambda v: ",".join(map(str, v))), _BAD_LISTS)
    if action.type is _name_list:
        return st.lists(_signal(), min_size=1, max_size=3).map(",".join)
    return _signal()


@st.composite
def _command_lines(draw):
    """(argv, stdin bytes, config text or None): a command, each of its
    options present or left out (a required one too, now and then), and a
    ``--config`` file holding some of its keys."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    actions = [a for a in COMMANDS[command]._actions
               if a.dest not in ("help", *PATH_OPTIONS)]
    argv = [command]
    size = 512
    for action in actions:
        # a grid is always given, so the default of 16384 nodes is never built
        if action.dest == "grid_size":
            text = draw(_value(command, action))
            size = int(text) if text in ("8", "64", "512", "4096") else size
        elif draw(st.booleans()) if not action.required else draw(st.integers(0, 19)) > 0:
            text = draw(_value(command, action))
        else:
            continue
        argv += [text] if not action.option_strings else [f"{action.option_strings[0]}={text}"]
    if draw(st.booleans()):
        argv += ["--out", "out"]
    config = None
    if draw(st.integers(0, 4)) == 0:
        keys = draw(st.lists(st.sampled_from([a for a in actions if a.option_strings]),
                             max_size=3, unique_by=lambda a: a.dest))
        values = {a.dest: draw(_value(command, a)) for a in keys}
        values.update(draw(st.dictionaries(st.sampled_from(["nope", "tol", "M"]),
                                           st.none() | st.integers(-2, 9) | st.booleans()
                                           | st.lists(st.integers(), max_size=2), max_size=1)))
        config = json.dumps(values)
    return argv, draw(_stdin(command, size)), config


def _assert_contract(argv, stdin: bytes, config) -> None:
    if config is not None:
        Path("config.json").write_text(config)
        argv = [*argv, "--config", "config.json"]
    out, err = io.StringIO(), io.StringIO()
    stdin_text = io.TextIOWrapper(io.BytesIO(stdin))
    tracemalloc.start()
    try:
        with mock.patch("sys.stdin", stdin_text), redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # a usage error
                code = exc.code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = out.getvalue(), err.getvalue()
    assert peak <= CONTRACT_BUDGET, peak
    if code == 0:
        assert err == ""
        assert isinstance(json.loads(out), dict)
    else:
        assert code in (1, 2)
        assert out == "" or isinstance(json.loads(out), dict)
        failure = json.loads(err)
        assert isinstance(failure, dict) and sorted(failure) == ["error", "message"]


@pytest.mark.filterwarnings("error")
def test_every_command_line_the_parser_admits_keeps_the_contract(request, tmp_path, monkeypatch):
    """Command lines drawn from ``build_parser()`` itself: a command, its
    options by their choices and types, registry signals or '-' with a
    mutated CSV or Taylor JSON on stdin, and a ``--config`` file of drawn
    keys. Each runs under a tracemalloc budget and exits 0 with one JSON
    report, or 1 or 2 with one {error, message} object on stderr. Grids stay
    at most 4096 nodes. ``--contract-examples`` sets the number of examples."""
    monkeypatch.chdir(tmp_path)  # reproduce writes its bundle here without --out

    @settings(max_examples=request.config.getoption("--contract-examples"), derandomize=True,
              deadline=None, database=None, suppress_health_check=list(HealthCheck))
    @given(_command_lines())
    def run(line):
        _assert_contract(*line)

    run()


# ---------------------------------------------------------------------------
# the API reads each list and number argument once, whatever its form
# ---------------------------------------------------------------------------

@functools.cache
def _api_inputs():
    """1 - z, the pair (1 - z, 1 + z) at 4096 nodes, the smallest grid on which
    1 - z certifies, and the Taylor series of 1 - z."""
    g = CircleGrid(4096)
    one = example_boundary("one-minus-z", g)
    pair = ideal([one, example_boundary("one-plus-z", g)], ["one-minus-z", "one-plus-z"])
    return ideal([one], ["one-minus-z"]), pair, get_example("one-minus-z").taylor()


#: Each call of the API on an integer list and a tolerance, and whether it
#: reads the tolerance.
_API_CALLS = {
    "approx_unit_sublevel": (lambda ints, tol: approx_unit_sublevel(_api_inputs()[0], ints), False),
    "approx_unit_peak": (lambda ints, tol: approx_unit_peak(_api_inputs()[0], ints, tol=tol), True),
    "certify_mideal": (lambda ints, tol: certify_mideal(_api_inputs()[0], tol=tol, stages=ints), True),
    "certify_mideal pair": (
        lambda ints, tol: certify_mideal(_api_inputs()[1], tol=tol, stages=ints), True),
    "density_profile": (lambda ints, tol: density_profile(_api_inputs()[2], ints), False),
}

#: An integer item as a Python int, a numpy integer scalar, or True for 1.
_ITEM_FORMS = (int, np.int64, np.int32, lambda v: True if v == 1 else v)

#: An integer list, from its items in their drawn forms.
_LIST_FORMS = (tuple, list, iter, lambda items: (v for v in items))

#: Lists no call takes: not iterable, a string, float items, a 2-d array.
_BAD_INT_LISTS = (5, np.int64(5), None, 2.5, "1,2", "12", b"12", (1.5, 2), [1, 2.0],
                  np.array([1.0, 2.0]), np.array([[1, 2]]), ("2",))

#: Empty lists: refused as stages or powers, an empty profile as orders.
_EMPTY_INT_LISTS = ((), [], iter(()), np.array([], dtype=int), range(0))


@st.composite
def _int_lists(draw):
    """(a list argument, the tuple of ints it holds, or None when malformed):
    an increasing range of positive ints, as a range, a numpy array or a
    drawn container of drawn item forms."""
    start, step, count = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    values = range(start, start + step * count, step)
    kind = draw(st.sampled_from(["range", "array", "items", "items", "empty", "bad"]))
    if kind == "range":
        return values, tuple(values)
    if kind == "array":
        return np.array(values, dtype=draw(st.sampled_from([np.int64, np.int32, np.uint16]))), tuple(values)
    if kind == "empty":
        return draw(st.sampled_from(_EMPTY_INT_LISTS)), ()
    if kind == "bad":
        return draw(st.sampled_from(_BAD_INT_LISTS)), None
    items = [draw(st.sampled_from(_ITEM_FORMS))(v) for v in values]
    return draw(st.sampled_from(_LIST_FORMS))(items), tuple(values)


@st.composite
def _reals(draw):
    """(a tolerance argument, the float it holds, or None when malformed)."""
    value = draw(st.sampled_from([0.05, 0.5, 1.0]))
    forms = [float, np.float64] + ([int, bool] if value == 1.0 else [])
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(["0.05", 0.05j, math.nan, math.inf, [0.05]])), None
    return draw(st.sampled_from(forms))(value), value


@pytest.mark.filterwarnings("error")
def test_every_argument_form_reads_as_its_tuple_form(request):
    """Integer lists given as a tuple, list, range, iterator, generator or
    numpy array, with items as Python or numpy integers or bools, and
    tolerances as Python or numpy reals or bools, give what the tuple and the
    float give, compared with ==; a malformed list or number raises
    ValueError, and an empty list too, except that an empty density schedule
    is an empty profile. ``--contract-examples`` sets the number of examples."""

    @settings(max_examples=request.config.getoption("--contract-examples"), derandomize=True,
              deadline=None, database=None, suppress_health_check=list(HealthCheck))
    @given(st.sampled_from(sorted(_API_CALLS)), _int_lists(), _reals())
    def run(name, ints, tol):
        call, reads_tol = _API_CALLS[name]
        (given_ints, ints), (given_tol, tol) = ints, tol
        if (reads_tol and tol is None) or ints is None or (ints == () and name != "density_profile"):
            with pytest.raises(ValueError):
                call(given_ints, given_tol)
        else:
            assert call(given_ints, given_tol) == call(ints, tol)

    run()
