"""Grids, boundary signals, node-mask runs, and the CSV interchange format."""

import csv
import io
import math
import sys
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardylab import (
    CircleGrid,
    constant_signal,
    signal_from_csv,
    signal_from_values,
    signal_to_csv,
)
from hardylab import grid
from hardylab.grid import CLIP_FLOOR, MAX_GRID_SIZE, BoundarySignal, circular_runs
from oracles import fstring_oracle_csv, merge_runs


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        CircleGrid(100)
    with pytest.raises(ValueError):
        CircleGrid(4)
    with pytest.raises(ValueError):
        CircleGrid(2 * MAX_GRID_SIZE)
    assert CircleGrid(MAX_GRID_SIZE).size == MAX_GRID_SIZE


@pytest.mark.parametrize("size", [4096.0, 4096.5, "4096", None])
def test_grid_refuses_a_size_that_is_not_an_integer(size):
    with pytest.raises(ValueError, match="grid size must be an integer"):
        CircleGrid(size)


def test_grid_takes_a_numpy_integer_size():
    assert CircleGrid(np.int64(4096)) == CircleGrid(4096)
    assert CircleGrid(np.uint16(4096)).spacing == CircleGrid(4096).spacing


def test_nodes_and_spacing():
    g = CircleGrid(8)
    assert g.spacing == pytest.approx(math.pi / 4)
    assert np.allclose(g.nodes, np.arange(8) * math.pi / 4)
    for n in (8, 4096, 65536):  # the expression zero-set windows use for node angles
        assert np.array_equal(bits(CircleGrid(n).nodes), bits(grid.TWO_PI * np.arange(n) / n))
    assert np.allclose(np.abs(g.boundary_points()), 1.0)


def test_signal_requires_finite_values():
    g = CircleGrid(8)
    with pytest.raises(ValueError):
        signal_from_values(g, [np.nan] + [0.0] * 7)
    with pytest.raises(ValueError):
        signal_from_values(g, [np.inf] + [0.0] * 7)


@pytest.mark.parametrize("shape", [(7,), (9,), (8, 1)])
def test_signal_needs_one_value_per_node(shape):
    with pytest.raises(ValueError, match="expected 8 values"):
        signal_from_values(CircleGrid(8), np.zeros(shape))


def test_signal_accepts_non_contiguous_values():
    # a strided column: finiteness is checked on the copy, not a float view
    # of the caller's array
    column = np.arange(16, dtype=complex).reshape(8, 2)[:, 0]
    f = signal_from_values(CircleGrid(8), column)
    assert np.array_equal(f.values, np.arange(0, 16, 2))
    with pytest.raises(ValueError, match="finite"):
        signal_from_values(CircleGrid(8), np.full((8, 2), np.nan, complex)[:, 0])


def test_signal_values_immutable():
    f = constant_signal(CircleGrid(8), 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_signal_product_needs_matching_grids():
    a = constant_signal(CircleGrid(8), 1.0)
    b = constant_signal(CircleGrid(16), 1.0)
    with pytest.raises(ValueError):
        a * b


@given(st.integers(min_value=0, max_value=2 ** 64 - 1))
@settings(max_examples=60, deadline=None)
def test_mask_roundtrip_is_exact(bits):
    # the runs of a mask rebuild it exactly
    m = np.array([(bits >> i) & 1 == 1 for i in range(64)])
    rebuilt = np.zeros_like(m)
    for start, length in circular_runs(m):
        rebuilt[(start + np.arange(length)) % m.size] = True
    assert np.array_equal(rebuilt, m)


def test_wraparound_run_is_single_arc():
    mask = np.zeros(16, dtype=bool)
    mask[[15, 0, 1]] = True
    assert circular_runs(mask) == [(15, 3)]
    assert circular_runs(np.ones(16, dtype=bool)) == [(0, 16)]
    assert circular_runs(np.zeros(16, dtype=bool)) == []
    mask[[1, 5, 10]] = [False, True, True]
    assert circular_runs(mask, 16) == [(5, 12)]  # one run keeps its own wrap gap
    mask[13] = True  # 13 joins the run 15, 0 across the wrap; the runs stay sorted
    assert circular_runs(mask, 1) == [(5, 1), (10, 1), (13, 4)]


@st.composite
def run_masks(draw) -> np.ndarray:
    """Masks of 8 to 4096 nodes: all True, all False, scattered short runs,
    or scattered runs with both ends of the array set."""
    n = 2 ** draw(st.integers(min_value=3, max_value=12))
    kind = draw(st.sampled_from(["all", "none", "scatter", "ends"]))
    if kind in ("all", "none"):
        return np.full(n, kind == "all")
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    mask = rng.random(n) < draw(st.sampled_from([0.01, 0.05, 0.2, 0.5, 0.9]))
    if kind == "ends":
        mask[[0, -1]] = True
    return mask


@given(run_masks(), st.integers(min_value=0, max_value=16))
@settings(max_examples=200, deadline=None)
def test_merged_runs_match_the_pairwise_merge(mask, gap):
    """Runs at most ``gap`` apart merge as the one-pair-at-a-time oracle
    merges them, sorted by start."""
    want = sorted(merge_runs(circular_runs(mask), mask.size, gap))
    assert circular_runs(mask, gap) == want


def csv_reader_oracle_columns(text: str):
    """Reference reader: ``csv.reader`` plus ``float`` per token; returns the
    theta, re and im columns."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    assert header is not None and [c.strip() for c in header] == ["theta", "re", "im"]
    rows = [row for row in reader if row]
    return tuple(np.array([float(r[k]) for r in rows]) for k in range(3))


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def read_csv(text: str) -> BoundarySignal:
    """``signal_from_csv`` of ``text``, which must read bitwise the same from
    the text's UTF-8 bytes, as the CLI passes a file."""
    f = signal_from_csv(text)
    assert np.array_equal(bits(signal_from_csv(text.encode()).values), bits(f.values))
    return f


EDGE_VALUES = np.array([
    0.0, -0.0, 5e-324, -5e-324, np.finfo(float).tiny, -np.finfo(float).tiny,
    1e308, -1e308, np.nextafter(1.0, 2.0), -np.nextafter(1.0, 2.0),
])


def complex_from_parts(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Assemble complex values part by part, keeping signed zeros."""
    out = np.empty(re.size, dtype=complex)
    out.real, out.imag = re, im
    return out


def mixed_signal(size: int, seed: int) -> BoundarySignal:
    """Random normals over many scales with about half the parts replaced by
    edge values."""
    rng = np.random.default_rng(seed)
    parts = rng.normal(size=2 * size) * 10.0 ** rng.integers(-300, 300, size=2 * size)
    edge = rng.random(2 * size) < 0.5
    parts[edge] = rng.choice(EDGE_VALUES, size=int(edge.sum()))
    return BoundarySignal(CircleGrid(size), complex_from_parts(parts[0::2], parts[1::2]))


@given(
    st.sampled_from([2 ** k for k in range(3, 13)] + [32768]),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
)
@example(32768, 1)  # several codec blocks and a full last block
@settings(max_examples=30, deadline=None)
def test_csv_codec_matches_oracles_bitwise(size, seed):
    f = mixed_signal(size, seed)
    text = signal_to_csv(f)
    assert text == fstring_oracle_csv(f)
    back = read_csv(text)
    theta, re, im = csv_reader_oracle_columns(text)
    assert np.array_equal(theta, f.grid.nodes)
    assert np.array_equal(bits(back.values.real), bits(re))
    assert np.array_equal(bits(back.values.imag), bits(im))
    assert np.array_equal(bits(back.values), bits(f.values))


def printed(parts) -> tuple[list[str], np.ndarray]:
    """The writer's field kernel on ``parts``: its fields as str, and the
    mask of the parts it left to CPython."""
    fields, python = grid._print_fields(np.ascontiguousarray(parts, dtype=float))
    return [b.decode("ascii") for b in fields.tolist()], python


def percent_g(parts) -> list[str]:
    return ["%.17g" % x for x in np.asarray(parts, dtype=float).tolist()]


POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-300, 301)])


def test_field_kernel_matches_percent_g_bitwise():
    # random bit patterns cover every exponent, so both routes run
    patterns = np.random.default_rng(31).integers(0, 2 ** 64, size=1 << 17, dtype=np.uint64)
    parts = patterns.view(float)[np.isfinite(patterns.view(float))]
    parts = np.concatenate([
        parts, EDGE_VALUES,
        POWERS_OF_TEN, np.nextafter(POWERS_OF_TEN, 0.0), np.nextafter(POWERS_OF_TEN, np.inf),
        [2.0 ** 53 - 2, 2.0 ** 53 + 2, 1e16, 1e17, 5e-324, 0.0, -0.0],
    ])
    parts = np.concatenate([parts, -parts])
    got, python = printed(parts)
    assert got == percent_g(parts)
    assert python.any() and not python.all()


def test_field_kernel_rounds_exact_ties_to_even():
    # |x| * 10^2 is exact, so the kernel itself rounds these ties
    got, python = printed([123456789012345.625, 123456789012345.875, -123456789012345.625])
    assert got == ["123456789012345.62", "123456789012345.88", "-123456789012345.62"]
    assert not python.any()
    # 3 * 2^-24 * 10^23 is a tie too, but 10^23 is not a double: CPython decides it
    got, python = printed([3 * 2.0 ** -24])
    assert got == ["1.7881393432617188e-07"] and python.all()


@pytest.mark.parametrize("shift", [-3, -2, 2, 3])
def test_field_kernel_settles_the_exponent_in_three_passes(monkeypatch, shift):
    # a first guess two decades off settles in the three passes; three off
    # hits the cap, and CPython prints every part but the zeros, which never
    # reach the kernel
    rng = np.random.default_rng(17)
    parts = np.append(rng.normal(size=4096) * 10.0 ** rng.integers(-250, 250, size=4096), [0.0, -0.0])
    guess = grid._exponent_guess
    monkeypatch.setattr(grid, "_exponent_guess", lambda a: guess(a) + shift)
    got, python = printed(parts)
    assert got == percent_g(parts)
    assert not python[-2:].any()
    assert python[:-2].all() if abs(shift) == 3 else not python.any()


FIELD_SPELLINGS = ("%.17g", "%r", "%.16g", "%.20g", "%.25e")


@given(
    st.sampled_from([8, 64, 2048]),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
)
@example(2048, 0)  # several reader chunks
@settings(max_examples=30, deadline=None)
def test_canonical_reader_matches_loadtxt_bitwise(size, seed):
    # random float64 bit patterns, about half replaced by edge values, each
    # printed in one of several spellings; integral values of 2**53 and up
    # are also printed as plain integers, and -0.0 as the integer token -0;
    # 2**63 and 2**64 - 2048 are read by orjson as unsigned 64-bit ints, and
    # -(2**64), which fits no 64-bit int, as a float
    rng = np.random.default_rng(seed)
    parts = rng.integers(0, 2 ** 64, size=3 * size, dtype=np.uint64).view(float)
    parts[~np.isfinite(parts)] = 1e308
    edge = rng.random(3 * size) < 0.5
    wide = [2.0 ** 53 + 2, 2.0 ** 63, 2.0 ** 64 - 2048, -(2.0 ** 64), 1e300]
    parts[edge] = rng.choice(np.append(EDGE_VALUES, wide), size=int(edge.sum()))
    kinds = len(FIELD_SPELLINGS)
    spellings = rng.integers(0, kinds + 1, size=3 * size)
    fields = [
        "%d" % v if k == kinds and v == int(v) else FIELD_SPELLINGS[k % kinds] % v
        for v, k in zip(parts.tolist(), spellings.tolist())
    ]
    text = "theta,re,im\n" + "".join(",".join(fields[i:i + 3]) + "\n" for i in range(0, len(fields), 3))
    fast = grid._canonical_table(text.encode("ascii"))
    assert fast is not None
    assert np.array_equal(bits(fast), bits(grid._loadtxt_table(text)))
    assert np.array_equal(bits(fast).ravel(), bits(np.array([float(t) for t in fields])))


def test_csv_keeps_signed_zeros_that_complex_arithmetic_drops():
    f = BoundarySignal(CircleGrid(8), complex_from_parts(np.full(8, -0.0), np.full(8, -0.0)))
    back = read_csv(signal_to_csv(f))
    assert np.array_equal(bits(back.values), bits(f.values))
    # building values as re + 1j*im, as the row-wise reader did, loses -0 parts
    assert not np.array_equal(bits(-0.0 + 1j * np.full(8, -0.0)), bits(f.values))


@pytest.mark.parametrize("size", [8, 4096])
def test_file_writer_spells_signed_zeros_as_the_oracle(tmp_path, size):
    # +0.0 and -0.0 in both columns, beside nonzero parts and on their own:
    # the first rows hold every sign pair of zeros, and at 4096 the second
    # block is zeros only
    pattern = [0.0, -0.0, -0.0, 0.0, 0.0, 0.0, -0.0, -0.0, 0.0, 2.5e-300, -0.0, -7.0, 1.5, -0.0, 1e300, 0.0]
    parts = np.resize(np.array(pattern), 2 * size)
    parts[2 * grid._CSV_BLOCK_ROWS:] = np.copysign(0.0, parts[2 * grid._CSV_BLOCK_ROWS:])
    f = BoundarySignal(CircleGrid(size), parts.view(complex))
    path = tmp_path / "zeros.csv"
    grid._write_csv(path, f)
    assert path.read_bytes() == fstring_oracle_csv(f).encode("ascii")
    assert np.array_equal(bits(signal_from_csv(path.read_bytes()).values), bits(f.values))


def test_csv_roundtrip_bitwise():
    g = CircleGrid(32)
    f = signal_from_values(g, np.exp(1j * g.nodes) / 3.0 + 0.25j)
    text = signal_to_csv(f)
    back = read_csv(text)
    assert np.array_equal(back.values, f.values)
    assert signal_to_csv(back) == text


@pytest.mark.parametrize("encode", [str, str.encode], ids=["str", "bytes"])
def test_csv_rejects_bad_header_and_nonuniform_theta(encode):
    with pytest.raises(ValueError, match="expected CSV header"):
        signal_from_csv(encode("a,b,c\n0,1,0\n"))
    g = CircleGrid(8)
    rows = ["theta,re,im"] + [f"{t + 0.01:.17g},1,0" for t in g.nodes]
    with pytest.raises(ValueError, match="theta column"):
        signal_from_csv(encode("\n".join(rows) + "\n"))


# re 0, 0.5, .., 3.5 with re[0] = -0.0, and im alternating -0.0 and -2.5: the
# writer prints -0.0 as the integer token -0, which JSON reads as 0
G8_VALUES = complex_from_parts(
    np.where(np.arange(8) == 0, -0.0, np.arange(8) / 2), np.tile([-0.0, -2.5], 4)
)
G8_TEXT = signal_to_csv(signal_from_values(CircleGrid(8), G8_VALUES))


@pytest.mark.parametrize("text", [
    G8_TEXT,
    G8_TEXT.replace("\n", "\n\n"),
    G8_TEXT + "\n\n",
    G8_TEXT.replace("\n", "\r\n"),
    G8_TEXT.replace("\n", "\r"),
    G8_TEXT.replace("theta,re,im", "theta, re, im"),
    G8_TEXT.replace(",", ", "),
    G8_TEXT.replace(",", ",\t"),
    G8_TEXT.replace(",1,", ",+1,"),
    G8_TEXT.replace(",0.5,", ",.5,"),
    G8_TEXT.replace(",2,", ",2.,"),
    G8_TEXT.replace(",3,", ",003,"),
    G8_TEXT.replace(",1,", ",1E+00,"),
    G8_TEXT.replace(",-0", ",-0.0"),
    G8_TEXT.replace(",-0", ", -0 "),
    G8_TEXT.rstrip("\n"),
], ids=["canonical", "blank-lines", "trailing-blank-lines", "crlf", "cr", "spaced-header",
        "spaced-fields", "tab-padded-fields", "plus-sign", "leading-dot", "trailing-dot",
        "leading-zeros", "upper-exponent", "minus-zero-spelled-as-float",
        "minus-zero-padded", "no-final-newline"])
def test_csv_accepted_variants_read_the_same_values(text):
    assert G8_TEXT.count(",-0") == 5
    assert np.array_equal(bits(read_csv(text).values), bits(G8_VALUES))


def zero_token_signals() -> list[BoundarySignal]:
    """16-node signals whose CSVs hold integer tokens -0 and 0: a complex one
    with both zeros in each part column, in the first and last rows and in
    rows 7 and 8, and a real one whose im column is 0 but for one -0."""
    rng = np.random.default_rng(5)
    re, im = rng.normal(size=(2, 16)) + 2.0
    re[[0, 7, 8, 15]] = [-0.0, 0.0, -0.0, 0.0]
    im[[0, 7, 8, 15]] = [0.0, -0.0, 0.0, -0.0]
    real_im = np.zeros(16)
    real_im[9] = -0.0
    return [BoundarySignal(CircleGrid(16), complex_from_parts(re, im)),
            BoundarySignal(CircleGrid(16), complex_from_parts(re[::-1] + 1.0, real_im))]


@pytest.mark.parametrize("f", zero_token_signals(), ids=["complex", "real"])
def test_csv_integer_zero_tokens_keep_their_signs_across_chunk_cuts(monkeypatch, f):
    # theta 0 is written as the token -0 too; chunks of every size from one
    # row to the whole text put a cut between every pair of rows, and zeros
    # and minus zeros in the same chunk and in different ones
    text = "theta,re,im\n-" + signal_to_csv(f)[len("theta,re,im\n"):]
    tokens = text.split("\n", 1)[1].replace("\n", ",").rstrip(",").split(",")
    assert "-0" in tokens and "0" in tokens
    want = bits(np.array([float(t) for t in tokens]))
    for size in range(1, len(text) + 1):
        monkeypatch.setattr(grid, "_CANONICAL_CHUNK_CHARS", size)
        assert np.array_equal(bits(grid._canonical_table(text.encode())).ravel(), want)
        assert np.array_equal(bits(read_csv(text).values), bits(f.values))


def test_canonical_reader_parses_each_chunk_once_without_a_minus_zero(monkeypatch):
    # one row per chunk: 64 loads for 64 rows, theta 0 included; a row with
    # the token -0 is parsed again, and only that row
    parts = mixed_signal(64, 7).values.view(float).copy()
    parts[parts == 0] = 1.5
    text = signal_to_csv(signal_from_values(CircleGrid(64), parts.view(complex)))
    rows = [row.split(",") for row in text.splitlines()]
    assert not {"0", "-0"} & {t for row in rows[1:] for t in row[1:]}
    loads, calls = orjson.loads, []
    monkeypatch.setattr(orjson, "loads", lambda b: calls.append(b) or loads(b))
    monkeypatch.setattr(grid, "_CANONICAL_CHUNK_CHARS", 1)
    for data in (text.encode(), text):
        calls.clear()
        assert np.array_equal(bits(signal_from_csv(data).values), bits(parts))
        assert len(calls) == 64
    rows[6][1], parts[10] = "-0", -0.0
    calls.clear()
    f = signal_from_csv("".join(",".join(row) + "\n" for row in rows).encode())
    assert np.array_equal(bits(f.values), bits(parts))
    assert len(calls) == 65


@pytest.mark.parametrize("char", [
    "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\x1f", "\xa0", "\u3000",
])
def test_csv_refuses_whitespace_that_is_not_a_space_tab_or_line_end(char):
    # the first eight are line boundaries of str.splitlines; np.loadtxt reads
    # every one of them as a blank around a field
    for text in (char.join(G8_TEXT.splitlines()), G8_TEXT.replace(",", char + ",", 3),
                 G8_TEXT.replace("\n", char + "\n")):
        for given in (text, text.encode()):
            with pytest.raises(ValueError, match="not a space, tab or line end"):
                signal_from_csv(given)


def test_csv_row_count_is_checked_before_any_float(monkeypatch):
    # unparsed tokens go to np.loadtxt and canonical rows to orjson: either
    # way the row count must be refused before a reader builds a float
    def refuse(*_args, **_kwargs):
        raise AssertionError("a float was read before the row count was checked")

    monkeypatch.setattr(np, "loadtxt", refuse)
    monkeypatch.setattr(orjson, "loads", refuse)
    for row in ("a,b,c\n", "1,2,3\n"):
        with pytest.raises(ValueError, match="power of two"):
            signal_from_csv("theta,re,im\n" + row * 12)
    monkeypatch.setattr("hardylab.grid.MAX_GRID_SIZE", 8)
    for row in ("a,b,c\n", "1,2,3\n"):
        with pytest.raises(ValueError, match="at most 8"):
            signal_from_csv("theta,re,im\n" + row * 16)


def test_csv_codec_memory_at_65536_nodes():
    g = CircleGrid(65536)
    f = signal_from_values(g, np.exp(1j * g.nodes) * (1.0 + g.nodes))
    grid._theta_column.cache_clear()  # the first write builds the theta column
    tracemalloc.start()
    try:
        text = signal_to_csv(f)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        signal_from_csv(text)
        read_peak = tracemalloc.get_traced_memory()[1] - len(text)
        data = text.encode("ascii")  # a file's bytes, as the CLI reads it
        tracemalloc.reset_peak()
        signal_from_csv(data)
        bytes_peak = tracemalloc.get_traced_memory()[1] - len(text) - len(data)
        del data
        crlf = text.replace("\n", "\r\n")  # read by np.loadtxt, not orjson
        tracemalloc.reset_peak()
        signal_from_csv(crlf)
        loadtxt_peak = tracemalloc.get_traced_memory()[1] - len(text) - len(crlf)
    finally:
        tracemalloc.stop()
    # measured this way, the row-wise writer peaked at 10.9 MiB and the
    # csv.reader parser at 37.3 MiB; the block codec takes 9.0-9.2 MiB (a
    # first write, its theta column and field-kernel tables included, as with
    # the per-float formatter before the kernel), 11.2-11.7 MiB through
    # np.loadtxt, and through orjson 5.1 MiB from bytes and 6.8-7.4 MiB from a
    # text, which is encoded to bytes first (5.7 MiB when orjson read text)
    assert write_peak < 10 << 20
    assert read_peak < 16 << 20
    assert bytes_peak < read_peak
    assert loadtxt_peak < 16 << 20


def test_theta_column_cache_keeps_one_grid_size():
    for size in (8, 65536):
        signal_to_csv(constant_signal(CircleGrid(size), 1.0))
    info = grid._theta_column.cache_info()
    assert info.maxsize == 1 and info.currsize == 1
    column = grid._theta_column(65536)
    assert column.shape == (65536,) and not column.flags.writeable
    assert sys.getsizeof(column) <= 24 * 65536 + sys.getsizeof(np.empty(0, "S24"))


def test_csv_writes_match_oracle_across_cache_evictions():
    large, small = mixed_signal(65536, 3), mixed_signal(8, 4)
    for f in (large, small, large):
        assert signal_to_csv(f) == fstring_oracle_csv(f)


# Parts of moduli the cached fields must handle: exact zeros, subnormals,
# values near the clip floor e^-30 and near 1e300 (whose modulus stays finite).
_MODULUS_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-310, np.finfo(float).tiny, 9.357622968840175e-14,
                     -1e300, 1.2e300, 1.0]),
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=-1e-13, max_value=1e-13),
)


@given(
    st.sampled_from([8, 16, 64]).flatmap(
        lambda n: st.lists(_MODULUS_PARTS, min_size=4 * n, max_size=4 * n)
    )
)
@settings(max_examples=60, deadline=None)
def test_cached_modulus_fields_equal_their_formulas_bitwise(parts):
    n = len(parts) // 4
    g = CircleGrid(n)
    p = np.array(parts)

    def check(f: BoundarySignal) -> None:
        assert "_moduli" not in f.__dict__  # nothing computed before the first read
        mod = np.abs(f.values)
        with np.errstate(divide="ignore"):
            raw = np.log(mod)
        assert bits(np.array(f.sup_abs)) == bits(np.max(mod))
        assert bits(np.array(f.inf_abs)) == bits(np.min(mod))
        assert np.array_equal(bits(f.log_abs), bits(np.maximum(raw, CLIP_FLOOR)))
        assert f.clip_count == np.count_nonzero(raw <= CLIP_FLOOR)
        assert not f.log_abs.flags.writeable
        with pytest.raises(ValueError):
            f.log_abs[0] = 0.0

    f = signal_from_values(g, complex_from_parts(p[0:n], p[n:2 * n]))
    h = BoundarySignal(g, complex_from_parts(p[2 * n:3 * n], p[3 * n:]))
    check(f)
    check(h)
    # a new signal starts with an empty cache, also when its values repeat
    check(signal_from_values(g, f.values))
    with np.errstate(over="ignore", invalid="ignore"):
        product = f.values * h.values
    if np.all(np.isfinite(product)):
        check(f * h)
