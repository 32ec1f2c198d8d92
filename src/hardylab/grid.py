"""Uniform circle grids, boundary signals, and their CSV interchange format.

The circle is discretized at ``N`` equispaced nodes ``theta_j = 2*pi*j/N``
(``N`` a power of two so FFTs apply). Almost-everywhere statements are tested
at grid resolution: each node is treated as a positive-measure atom occupying
the half-open cell ``[theta_j - h/2, theta_j + h/2)`` of normalized measure
``1/N``, where ``h = 2*pi/N``. A region of the circle is a boolean mask over
the nodes.
"""

from __future__ import annotations

import io
import math
import numbers
import operator
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi

#: Largest grid size; one complex signal on it takes 256 MB.
MAX_GRID_SIZE = 2**24

#: Grid size of the CLI commands and reproduction bundles when none is given.
DEFAULT_GRID_SIZE = 16384

#: Log-modulus values below this are clipped; e**CLIP_FLOOR ~ 9.4e-14.
CLIP_FLOOR = -30.0

#: A signal counts as real when no imaginary part exceeds this in size.
REAL_TOL = 1e-9

#: A log-modulus within this relative margin of a level -m counts as on it.
_LEVEL_MARGIN = 1e-9


def _as_index(value, name: str) -> int:
    """``value`` by ``operator.index``: an int or a numpy integer, else
    ValueError. Every grid size, stage, power and order goes through here."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _as_indices(values, name: str) -> tuple[int, ...]:
    """``values``, any iterable but a string, read once into a tuple of ints by ``_as_index``,
    else ValueError. Every list of stages, powers or orders goes through here."""
    try:  # a string is iterable, but never a list of integers
        items = iter(None if isinstance(values, (str, bytes)) else values)
    except TypeError:
        raise ValueError(f"expected a list of integers, each {name}, got {values!r}") from None
    return tuple(_as_index(v, name) for v in items)


def _as_real(value, name: str, rule: str = "finite", test=math.isfinite) -> float:
    """``value``, a Python or numpy real number, as a float that passes ``test``, else
    ValueError("{name} must be {rule}, got ..."); every tolerance, bound and angle is read here."""
    if isinstance(value, numbers.Real) and test(float(value)):
        return float(value)
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def _clip_log(k: np.ndarray) -> int:
    """Raise log-modulus samples ``k`` to the floor in place; the count at it.
    Every clip in the package goes through here."""
    np.maximum(k, CLIP_FLOOR, out=k)
    return int(np.count_nonzero(k <= CLIP_FLOOR))


def _level_cut(m):
    """The log-modulus below which a node is in {|f| < e^-m}, for one level or an array ``m``."""
    return -m * (1.0 + _LEVEL_MARGIN)


@dataclass(frozen=True)
class CircleGrid:
    """Equispaced nodes on the unit circle; ``size`` must be a power of two
    between 8 and ``MAX_GRID_SIZE``."""

    size: int

    def __post_init__(self):
        n = _as_index(self.size, "grid size")
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got {n}")
        if n > MAX_GRID_SIZE:
            raise ValueError(f"grid size must be at most {MAX_GRID_SIZE}, got {n}")

    @property
    def nodes(self) -> np.ndarray:
        """A new array of the node angles; nothing caches it."""
        return TWO_PI * np.arange(self.size) / self.size

    @property
    def spacing(self) -> float:
        return TWO_PI / self.size

    def boundary_points(self) -> np.ndarray:
        """The nodes as unimodular complex numbers exp(i*theta_j)."""
        return np.exp(1j * self.nodes)


@dataclass(frozen=True)
class BoundarySignal:
    """Complex samples of a boundary function at the nodes of a grid. The
    values are read-only, so the modulus fields are computed on first read,
    in one pass over |f|, and kept; |f| itself is not."""

    grid: CircleGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=complex)
        if v.shape != (self.grid.size,):
            raise ValueError(
                f"expected {self.grid.size} values, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("boundary values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __mul__(self, other: "BoundarySignal") -> "BoundarySignal":
        return BoundarySignal(common_grid(self, other), self.values * other.values)

    def is_real(self) -> bool:
        """No imaginary part larger than ``REAL_TOL``."""
        return bool(np.max(np.abs(self.values.imag)) <= REAL_TOL)

    @cached_property
    def _moduli(self) -> tuple[np.ndarray, float, float, int]:
        k = np.abs(self.values)
        sup, inf = float(np.max(k)), float(np.min(k))
        with np.errstate(divide="ignore"):
            np.log(k, out=k)
        clipped = _clip_log(k)
        k.flags.writeable = False
        return k, sup, inf, clipped

    log_abs = property(lambda self: self._moduli[0], doc="max(log|f|, CLIP_FLOOR), read-only")
    sup_abs = property(lambda self: self._moduli[1], doc="max |f| over the nodes")
    inf_abs = property(lambda self: self._moduli[2], doc="min |f| over the nodes")
    clip_count = property(lambda self: self._moduli[3], doc="nodes where log_abs is at the floor")


def common_grid(*signals: BoundarySignal) -> CircleGrid:
    """The grid that all ``signals`` live on; ValueError when they differ."""
    grid = signals[0].grid
    if any(s.grid.size != grid.size for s in signals):
        raise ValueError("signals live on different grids")
    return grid


def _unit_scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """A new complex array of ``values`` times the exact power of two 2^-exp
    that brings the largest real or imaginary part into [1/2, 1), and exp
    (0 for a zero array). Exact unless a part falls below the normal range."""
    parts = np.ascontiguousarray(values, dtype=complex).view(float)
    exp = math.frexp(float(np.max(np.abs(parts))))[1]
    return np.ldexp(parts, -exp).view(complex), exp


def _scaled_mean(values: np.ndarray) -> complex:
    """The mean of a complex array, taken in the ``_unit_scaled`` scale, so
    the sum cannot overflow. Bitwise ``np.mean`` where no sum overflows and no
    scaled part falls below the normal range."""
    scaled, exp = _unit_scaled(values)
    m = np.mean(scaled)
    return complex(math.ldexp(m.real, exp), math.ldexp(m.imag, exp))


def signal_from_values(grid: CircleGrid, values) -> BoundarySignal:
    return BoundarySignal(grid, values)


def constant_signal(grid: CircleGrid, c: complex) -> BoundarySignal:
    return BoundarySignal(grid, np.full(grid.size, complex(c)))


# ---------------------------------------------------------------------------
# Node masks
# ---------------------------------------------------------------------------

def circular_distance(theta, center: float):
    """Shortest angular distance from ``theta`` (array or scalar) to ``center``."""
    d = np.abs((theta - center) % TWO_PI)
    return np.minimum(d, TWO_PI - d)


def circular_runs(mask: np.ndarray, gap: int = 0) -> list[tuple[int, int]]:
    """Maximal circular runs of True as (start index, length), sorted by start.

    Runs at most ``gap`` unmasked nodes apart are merged, in order of their
    starts and then across the wrap while more than one run is left; a single
    run's own gap round the circle is never filled.
    """
    n = mask.size
    if mask.all():
        return [(0, n)]
    if not mask.any():
        return []
    before = np.roll(mask, 1)
    starts, ends = np.flatnonzero(mask & ~before), np.flatnonzero(~mask & before)
    if ends[0] < starts[0]:  # the last run crosses the wrap
        ends = np.append(ends[1:], ends[0] + n)
    head = np.concatenate(([True], starts[1:] - ends[:-1] > gap))
    starts, ends = starts[head], ends[np.append(head[1:], True)]
    if starts.size > 1 and starts[0] + n - ends[-1] <= gap:  # merge across the wrap
        starts, ends = starts[1:], np.append(ends[1:-1], ends[0] + n)
    return [(int(s), int(e - s)) for s, e in zip(starts, ends)]


# ---------------------------------------------------------------------------
# CSV interchange: header "theta,re,im", strictly increasing theta
# ---------------------------------------------------------------------------

# Rows the writer prints per step. The field kernel's arrays peak at about
# 1.1 MiB for a step, 0.75 MiB of it the byte index (384 B per row), whatever
# the grid size; 4096-row steps raised the peak RSS of 65536-node factorize
# and synth-outer runs by about 2 MB at no measurable gain in speed.
_CSV_BLOCK_ROWS = 2048

# The longest '%.17g' of a float64, as in '-2.2250738585072014e-308'.
_FIELD_WIDTH = 24

# The field kernel prints zeros and every |x| in this range; CPython's '%.17g'
# prints the rest.
_KERNEL_RANGE = (1e-280, 1e280)

# Passes that settle a part's decimal exponent; a part still unsettled after
# them is printed by CPython.
_EXPONENT_PASSES = 3

# Where 10^p is not a double, a scaled part this close to a rounding tie or
# to 10^16 or 10^17 is printed by CPython.
_TIE_MARGIN = 1e-6

# Decimal powers 10^p in the kernel's table; |x| in _KERNEL_RANGE scales by
# p = 16 - E with E within 3 of floor(log10|x|).
_POWERS = range(-270, 301)

# Decimal exponents in the kernel's exponent table; 16 - E is in _POWERS.
_EXPONENTS = range(-300, 301)

# Columns of the kernel's source bytes, one row per part: 17 digits, the
# exponent's sign and three digits, then the constant bytes "-.0e" and NUL.
_EXP_SIGN, _MINUS, _POINT, _ZERO, _E, _NUL = 17, 21, 22, 23, 24, 25
_SOURCE_WIDTH = _NUL + 1

# Layout classes: sign x (fixed E = -4..16, e+XX, e+XXX) x kept digits 1..17.
_FORMS, _KEPT = 23, 17


def _layout(negative: bool, form: int, kept: int) -> list[int]:
    """The source column of each byte of a field of one layout class."""
    cols = [_MINUS] if negative else []
    if form <= 20:  # fixed notation, E = form - 4
        e = form - 4
        if e >= 0:
            cols += range(e + 1)
            if kept > e + 1:
                cols += [_POINT, *range(e + 1, kept)]
        else:
            cols += [_ZERO, _POINT] + [_ZERO] * (-e - 1) + list(range(kept))
    else:
        cols += [0] + ([_POINT, *range(1, kept)] if kept > 1 else [])
        cols += [_E, _EXP_SIGN, *range(_EXP_SIGN + 1 + (form == 21), _EXP_SIGN + 4)]
    return cols + [_NUL] * (_FIELD_WIDTH - len(cols))


@lru_cache(maxsize=1)
def _field_tables() -> tuple[np.ndarray, ...]:
    """The field kernel's tables, built on its first use:

    - ``powers``: rows hi, hi's Veltkamp halves and lo of each 10^p of
      ``_POWERS``, with hi + lo = 10^p to about 2^-106 and lo = 0 where 10^p
      is a double;
    - ``digits``: the four ASCII digits of each group 0..9999, and
      ``zeros``, the group's trailing-zero count (4 for 0000);
    - ``exponents``: the sign and three digits of each E of ``_EXPONENTS``;
    - ``layout``: the source column of each field byte, per layout class.

    Text tables are bytes read through ``V4`` views, never integer views, so
    nothing depends on the host's byte order.
    """
    rows = []
    for p in _POWERS:
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        hi = num / den  # int true division rounds correctly
        n, d = hi.as_integer_ratio()
        rows.append((hi, (num * d - n * den) / (den * d)))
    hi, lo = np.array(rows).T
    powers = np.stack([hi, *_veltkamp(hi), lo])
    groups = np.arange(10000)
    digits = "".join("%04d" % g for g in groups).encode("ascii")
    zeros = np.full(10000, 4, np.uint8)
    for k in (3, 2, 1, 0):
        zeros[groups % 10 ** (k + 1) != 0] = k
    exponents = "".join("%+04d" % e for e in _EXPONENTS).encode("ascii")
    layout = np.array([
        _layout(negative, form, kept)
        for negative in (False, True) for form in range(_FORMS) for kept in range(1, _KEPT + 1)
    ], dtype=np.intp)
    return (powers, np.frombuffer(digits, "V4"), zeros, np.frombuffer(exponents, "V4"), layout)


def _veltkamp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x as hi + lo, each of at most 26 significant bits, so that products of
    the halves are exact (Veltkamp's split)."""
    c = x * 134217729.0  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _exponent_guess(a: np.ndarray) -> np.ndarray:
    """floor(log10(a)); it may be one off next to a power of ten."""
    return np.floor(np.log10(a)).astype(np.int64)


def _scaled(powers: np.ndarray, a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q = a * 10^(16-e) as qh + ql: qh = fl(a * hi) and ql its Dekker
    product error plus a * lo; exact where 10^(16-e) is a double."""
    hi, hh, hl, lo = powers[:, np.clip(16 - e - _POWERS.start, 0, len(_POWERS) - 1)]
    ah, al = _veltkamp(a)
    qh = a * hi
    return qh, ((ah * hh - qh) + ah * hl + al * hh) + al * hl + a * lo


def _exponent_step(qh: np.ndarray, ql: np.ndarray) -> np.ndarray:
    """-1 where q < 10^16, +1 where q >= 10^17, else 0."""
    below = (qh < 1e16) | ((qh == 1e16) & (ql < 0))
    above = (qh > 1e17) | ((qh == 1e17) & (ql >= 0))
    return above.astype(np.int64) - below


def _decimal(parts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, E, python): each |x| of ``parts``, none of them zero, as
    n * 10^(E-16), n rounded to 17 digits, ties to even, and the mask of the
    parts left to CPython.

    E starts at floor(log10|x|) and is settled in ``_EXPONENT_PASSES``
    passes, each forming q = |x| * 10^(16-E) with ``_scaled``. Where
    10^(16-E) is a double, q is exact, so ties are exact too; where it is
    not, a q near a tie or near 10^16 or 10^17 goes to CPython.
    """
    powers = _field_tables()[0]
    a = np.abs(parts)
    python = ~((a >= _KERNEL_RANGE[0]) & (a <= _KERNEL_RANGE[1]))  # inf and nan too
    a[python] = 1.0
    e = _exponent_guess(a)
    qh, ql = _scaled(powers, a, e)
    todo = np.flatnonzero(_exponent_step(qh, ql))
    for _ in range(_EXPONENT_PASSES - 1):  # the first pass was the one above
        if not todo.size:
            break
        e[todo] += _exponent_step(qh[todo], ql[todo])
        qh[todo], ql[todo] = _scaled(powers, a[todo], e[todo])
        todo = todo[_exponent_step(qh[todo], ql[todo]) != 0]
    python[todo] = True
    r = np.rint(ql)
    inexact = np.flatnonzero((e < -6) | (e > 16))  # 10^(16-E) is a double for E in -6..16
    if inexact.size:
        q, t = qh[inexact], ql[inexact]
        python[inexact] |= (
            (np.abs(np.abs(t - r[inexact]) - 0.5) < _TIE_MARGIN)
            | (np.abs((q - 1e16) + t) < _TIE_MARGIN)
            | (np.abs((q - 1e17) + t) < _TIE_MARGIN)
        )
    if python.any():
        qh[python], r[python], e[python] = 1e16, 0.0, 0
    n = qh.astype(np.int64) + r.astype(np.int64)  # qh is an even integer here
    carry = n == 10 ** 17  # q rounded up to the next power of ten
    n[carry] = 10 ** 16
    e += carry
    return n, e, python


def _source_bytes(n: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each part's source bytes (the 17 digits of n, E's sign and three
    digits, then "-.0e" and NUL), and its count of kept digits less one."""
    _, digits, zeros, exponents, _ = _field_tables()
    h = n // 10 ** 8  # below 10^9
    top = h // 10 ** 8
    halves = np.stack([h - top * 10 ** 8, n - h * 10 ** 8], axis=1).astype(np.int32)
    q = halves // 10000
    g = np.stack([q, halves - q * 10000], axis=2).reshape(-1, 4)  # four 4-digit groups
    tz = np.where(g[:, 3] != 0, zeros[g[:, 3]], np.where(g[:, 2] != 0, 4 + zeros[g[:, 2]],
                  np.where(g[:, 1] != 0, 8 + zeros[g[:, 1]], 12 + zeros[g[:, 0]])))
    src = np.empty((n.size, _SOURCE_WIDTH), np.uint8)
    src[:, 0] = 48 + top
    src[:, 1:17].view("V4")[:] = digits[g]
    src[:, _EXP_SIGN:_MINUS].view("V4")[:, 0] = exponents[e - _EXPONENTS.start]
    src[:, _MINUS:].view("V5")[:] = np.frombuffer(b"-.0e\0", "V5")
    return src, 16 - tz


def _kernel_fields(parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_print_fields`` of ``parts``, none of them zero, all in the kernel.

    ``_decimal`` rounds each part to 17 digits and a decimal exponent E, and
    ``_source_bytes`` spells both out. The part's sign, notation (fixed for
    E in -4..16, else e+XX or e+XXX) and kept digits pick a row of the
    layout table, which says where each field byte comes from.
    """
    n, e, python = _decimal(parts)
    src, last = _source_bytes(n, e)
    form = np.where((e >= -4) & (e <= 16), e + 4, np.where(np.abs(e) < 100, 21, 22))
    cls = (np.signbit(parts) * _FORMS + form) * _KEPT + last
    layout = _field_tables()[-1]
    index = layout.take(cls, axis=0)
    index += np.arange(0, src.size, _SOURCE_WIDTH)[:, None]
    return src.ravel().take(index).view(f"S{_FIELD_WIDTH}").ravel(), python


def _print_fields(parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every float of ``parts`` printed as ``'%.17g' % x``, byte for byte, in
    a NUL-padded S24 array, and the mask of the parts that CPython printed.
    Exact zeros are spelled ``0`` and ``-0`` here, the other parts by
    ``_kernel_fields``."""
    zero = parts == 0
    if zero.any():
        fields = np.where(np.signbit(parts), b"-0", b"0").astype(f"S{_FIELD_WIDTH}")
        python = np.zeros(parts.size, bool)
        live = np.flatnonzero(~zero)
        if live.size:
            fields[live], python[live] = _kernel_fields(parts[live])
    else:
        fields, python = _kernel_fields(parts)
    if python.any():
        fields[python] = ["%.17g" % x for x in parts[python].tolist()]
    return fields, python


@lru_cache(maxsize=1)
def _theta_column(size: int) -> np.ndarray:
    """The theta field of every node, printed as ``'%.17g'``, NUL-padded
    S24. The theta column depends only on the grid, so it is printed once
    per grid size, a writer block at a time."""
    nodes = CircleGrid(size).nodes
    column = np.empty(size, f"S{_FIELD_WIDTH}")
    for s in range(0, size, 2 * _CSV_BLOCK_ROWS):
        column[s:s + 2 * _CSV_BLOCK_ROWS] = _print_fields(nodes[s:s + 2 * _CSV_BLOCK_ROWS])[0]
    column.flags.writeable = False
    return column


# One row of a writer block: each field NUL-padded to _FIELD_WIDTH bytes and
# followed by its separator, so deleting the NULs leaves "theta,re,im\n".
_CSV_ROW = np.dtype([
    ("theta", f"S{_FIELD_WIDTH}"), ("comma", "S1"), ("re", f"S{_FIELD_WIDTH}"),
    ("comma2", "S1"), ("im", f"S{_FIELD_WIDTH}"), ("newline", "S1"),
])


def _csv_blocks(f: BoundarySignal):
    """The CSV text of ``f`` as ASCII bytes: the header, then one block per
    ``_CSV_BLOCK_ROWS`` rows. A block's fields fill one NUL-padded row
    buffer, which is compacted once by deleting its NULs."""
    yield b"theta,re,im\n"
    size = f.grid.size
    theta = _theta_column(size)
    parts = f.values.view(float)  # re and im interleaved, as stored
    rows = np.zeros(min(size, _CSV_BLOCK_ROWS), _CSV_ROW)
    rows["comma"] = rows["comma2"] = b","
    rows["newline"] = b"\n"
    for s in range(0, size, rows.size):
        rows["theta"] = theta[s:s + rows.size]
        rows["re"], rows["im"] = _print_fields(parts[2 * s:2 * (s + rows.size)])[0].reshape(-1, 2).T
        yield rows.tobytes().translate(None, b"\0")


def signal_to_csv(f: BoundarySignal) -> str:
    return b"".join(_csv_blocks(f)).decode("ascii")


def _write_csv(path, f: BoundarySignal) -> None:
    """Write the CSV text of ``f`` to the file ``path`` in binary, a block at
    a time, so no whole-file text is built; lines end in LF everywhere."""
    with open(path, "wb") as file:
        file.writelines(_csv_blocks(f))


def _write_file(path, content: str | BoundarySignal) -> None:
    """Write a text, or a signal as CSV by ``_write_csv``, to the file ``path``."""
    if isinstance(content, BoundarySignal):
        return _write_csv(path, content)
    with open(path, "w") as file:
        file.write(content)


# Everything a canonical row holds besides its separators ',' and '\n'.
_CANONICAL_FIELD_BYTES = b"0123456789+-.eE \t"

# Bytes per chunk of the canonical reader: each chunk's token list is
# short-lived, so the read holds about one output table, not a second copy of
# the text.
_CANONICAL_CHUNK_CHARS = 1 << 15

# Every character that str.isspace() accepts but a field's spaces and tabs and
# the line ends LF, CRLF and CR.
_STRAY_WHITESPACE = (
    "\v\f\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005"
    "\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)

# An integer token -0 (not an exponent). JSON reads it as 0, dropping the sign
# that the writer's %.17g keeps for -0.0.
_INTEGER_MINUS_ZERO = re.compile(rb"-0(?<![eE]-0)(?=[\s,\]])")


def _canonical_table(data: bytes) -> np.ndarray | None:
    """The N x 3 table of a canonical CSV text, given as bytes, or None for
    any other text.

    Canonical text has the header exactly ``theta,re,im`` and rows of exactly
    two commas, separated by single LFs, with no other bytes than digits,
    ``+-.eE``, spaces and tabs. Two passes go over the same chunks of about
    ``_CANONICAL_CHUNK_CHARS`` bytes. The shape pass deletes the field bytes,
    checks the separators left and counts the rows, so a bad row count goes
    to the ``np.loadtxt`` route, which refuses it, before any float is built.
    The parse pass reads each chunk as a JSON array by orjson, whose number
    reader is correctly rounded, as is ``np.loadtxt``'s, so both routes give
    the same bits. JSON reads an integer token ``-0`` as 0, so a chunk whose
    values hold a zero and whose text holds such a token is read again with
    each one spelled ``-0.0``. A chunk that orjson refuses (``+1``, ``.5``,
    ``5.``, ``007``, ...) sends the whole text to the ``np.loadtxt`` route,
    which decides its values or error.
    """
    header = b"theta,re,im\n"
    if not data.startswith(header):
        return None
    end = len(data) - data.endswith(b"\n")
    cuts, rows, start = [], 0, len(header)
    while start < end:
        stop = data.find(b"\n", start + _CANONICAL_CHUNK_CHARS, end)
        stop = end if stop < 0 else stop
        separators = data[start:stop].translate(None, _CANONICAL_FIELD_BYTES)
        n = (len(separators) + 1) // 3  # rows in the chunk if canonical
        if separators != b",,\n" * (n - 1) + b",,":
            return None  # another byte, a blank line, or a row of other width
        cuts.append((start, stop))
        rows, start = rows + n, stop + 1
    try:
        CircleGrid(rows)
    except ValueError:
        return None  # the loadtxt route refuses the row count before any float
    import orjson

    table, filled = np.empty(3 * rows), 0
    for start, stop in cuts:
        body = b"[" + data[start:stop].replace(b"\n", b",") + b"]"
        try:
            block = np.fromiter(orjson.loads(body), float)
            if not block.all() and _INTEGER_MINUS_ZERO.search(body):
                block = np.fromiter(orjson.loads(_INTEGER_MINUS_ZERO.sub(b"-0.0", body)), float)
        except orjson.JSONDecodeError:
            return None
        table[filled:filled + block.size] = block
        filled += block.size
    return table.reshape(rows, 3)


def _loadtxt_table(text: str) -> np.ndarray:
    """The N x 3 table of any CSV text, read by ``np.loadtxt`` (README
    grammar); a malformed text or an illegal row count raises ValueError."""
    for c in _STRAY_WHITESPACE:  # str.splitlines and np.loadtxt accept each
        if c in text:
            raise ValueError(f"malformed boundary-signal CSV: {c!r} is not a space, tab or line end")
    lines = text.splitlines()
    if not lines or [c.strip() for c in lines[0].split(",")] != ["theta", "re", "im"]:
        raise ValueError("expected CSV header 'theta,re,im'")
    rows = list(filter(None, lines[1:]))
    if not rows:
        raise ValueError("empty boundary-signal CSV")
    grid = CircleGrid(len(rows))  # refuses a bad row count before any float is built
    try:  # comments=None: a '#' tail is a malformed field, not a comment
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"malformed boundary-signal CSV: {exc}") from None
    if table.shape != (grid.size, 3):  # N x 4 when every row has 4 fields
        raise ValueError(f"malformed boundary-signal CSV: expected 3 fields, got {table.shape[1]}")
    return table


def decode_text(data: bytes) -> str:
    """The text ``Path.read_text`` gives for a file holding ``data`` (locale
    encoding, universal newlines), or the error it raises."""
    return io.TextIOWrapper(io.BytesIO(data), encoding=None).read()


def signal_from_csv(text: str | bytes) -> BoundarySignal:
    """The signal of a CSV text, or of a CSV file's bytes. Bytes that are not
    canonical are read as their ``decode_text``, so a CRLF file reaches the
    canonical reader with LF line ends. A text is encoded once, when it is
    ASCII, for the canonical reader."""
    if isinstance(text, bytes):
        table = _canonical_table(text)
        if table is None:
            return signal_from_csv(decode_text(text))
    else:
        table = _canonical_table(text.encode("ascii")) if text.isascii() else None
        if table is None:
            table = _loadtxt_table(text)
    grid = CircleGrid(table.shape[0])
    if not np.all(np.abs(table[:, 0] - grid.nodes) <= 1e-9):  # refuses NaN too
        raise ValueError("theta column must be uniform 2*pi*j/N within 1e-9")
    # re and im side by side are a complex column; the signal's copy is the
    # only one, and keeps signed zeros
    return BoundarySignal(grid, table[:, 1:].view(complex)[:, 0])
