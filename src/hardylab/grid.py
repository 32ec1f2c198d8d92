"""Uniform circle grids, boundary signals, and their CSV interchange format.

The circle is discretized at ``N`` equispaced nodes ``theta_j = 2*pi*j/N``
(``N`` a power of two so FFTs apply). Almost-everywhere statements are tested
at grid resolution: each node is treated as a positive-measure atom occupying
the half-open cell ``[theta_j - h/2, theta_j + h/2)`` of normalized measure
``1/N``, where ``h = 2*pi/N``. A region of the circle is a boolean mask over
the nodes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi

#: Largest grid size; one complex signal on it takes 256 MB.
MAX_GRID_SIZE = 2**24

#: Log-modulus values below this are clipped; e**CLIP_FLOOR ~ 9.4e-14.
CLIP_FLOOR = -30.0


def _clip_log(k: np.ndarray) -> int:
    """Raise log-modulus samples ``k`` to the floor in place; the count at it.
    Every clip in the package goes through here."""
    np.maximum(k, CLIP_FLOOR, out=k)
    return int(np.count_nonzero(k <= CLIP_FLOOR))


@lru_cache(maxsize=8)
def _cached_nodes(size: int) -> np.ndarray:
    nodes = TWO_PI * np.arange(size) / size
    nodes.flags.writeable = False
    return nodes


@dataclass(frozen=True)
class CircleGrid:
    """Equispaced nodes on the unit circle; ``size`` must be a power of two
    between 8 and ``MAX_GRID_SIZE``."""

    size: int

    def __post_init__(self):
        n = self.size
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got {n}")
        if n > MAX_GRID_SIZE:
            raise ValueError(f"grid size must be at most {MAX_GRID_SIZE}, got {n}")

    @property
    def nodes(self) -> np.ndarray:
        return _cached_nodes(self.size)

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
        if other.grid.size != self.grid.size:
            raise ValueError("signals live on different grids")
        return BoundarySignal(self.grid, self.values * other.values)

    def is_real(self, tol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(self.values.imag)) <= tol)

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


def circular_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal circular runs of True as (start index, length)."""
    n = mask.size
    if mask.all():
        return [(0, n)]
    if not mask.any():
        return []
    start = int(np.argmin(mask))  # an unmasked index, so no run wraps
    rolled = np.roll(mask, -start)
    edges = np.flatnonzero(np.diff(rolled.astype(np.int8)))
    starts = edges[::2] + 1
    ends = (
        edges[1::2] + 1
        if len(edges) % 2 == 0
        else np.append(edges[1::2] + 1, n)
    )
    return [(int((s + start) % n), int(e - s)) for s, e in zip(starts, ends)]


# ---------------------------------------------------------------------------
# CSV interchange: header "theta,re,im", strictly increasing theta
# ---------------------------------------------------------------------------

# Rows the writer formats per step; bounds the boxed floats alive at once
# without a buffer that grows with the grid size.
_CSV_BLOCK_ROWS = 4096


@lru_cache(maxsize=1)
def _row_templates(size: int) -> tuple[str, ...]:
    """One format string per writer block: each row is its node's theta,
    already printed with %.17g, then placeholders for re and im. The theta
    column depends only on the grid, so it is printed once per grid size."""
    nodes = _cached_nodes(size)
    return tuple(
        ("%.17g,%%.17g,%%.17g\n" * len(b)) % tuple(b.tolist())
        for b in (nodes[s:s + _CSV_BLOCK_ROWS] for s in range(0, size, _CSV_BLOCK_ROWS))
    )


def signal_to_csv(f: BoundarySignal) -> str:
    parts = f.values.view(float)  # re and im interleaved, as stored
    step = 2 * _CSV_BLOCK_ROWS
    out = ["theta,re,im\n"]
    for k, template in enumerate(_row_templates(f.grid.size)):
        out.append(template % tuple(parts[k * step:(k + 1) * step].tolist()))
    return "".join(out)


# Everything a canonical row holds besides its separators ',' and '\n'.
_CANONICAL_FIELD_BYTES = b"0123456789+-.eE \t"

# Characters per chunk of the canonical reader: each chunk's token list is
# short-lived, so the read holds about one output table, not a second copy of
# the text.
_CANONICAL_CHUNK_CHARS = 1 << 15

# An integer token -0 (not an exponent). JSON reads it as 0, dropping the sign
# that the writer's %.17g keeps for -0.0.
_INTEGER_MINUS_ZERO = re.compile(rb"-0(?<![eE]-0)(?=[\s,\]])")


def _canonical_table(text: str) -> np.ndarray | None:
    """The N x 3 table of a canonical CSV text, or None for any other text.

    Canonical text has the header exactly ``theta,re,im`` and rows of exactly
    two commas, separated by single LFs, with no other characters than digits,
    ``+-.eE``, spaces and tabs. Its rows are read chunk by chunk as JSON
    arrays by orjson, whose number reader is correctly rounded, as is
    ``np.loadtxt``'s, so both routes give the same bits. A chunk that orjson
    refuses (``+1``, ``.5``, ``5.``, ``007``, ...) sends the whole text to the
    ``np.loadtxt`` route, which decides its values or error.
    """
    header = "theta,re,im\n"
    if not (text.startswith(header) and text.isascii()):
        return None
    end = len(text) - text.endswith("\n")
    rows = text.count("\n", len(header), end) + 1
    try:
        CircleGrid(rows)
    except ValueError:
        return None  # the loadtxt route refuses the row count before any float
    import orjson

    table = np.empty(3 * rows)
    filled, start = 0, len(header)
    while start < end:
        stop = text.find("\n", start + _CANONICAL_CHUNK_CHARS, end)
        stop = end if stop < 0 else stop
        chunk = text[start:stop].encode("ascii")
        separators = chunk.translate(None, _CANONICAL_FIELD_BYTES)
        n = (len(separators) + 1) // 3  # rows in the chunk if canonical
        if separators != b",,\n" * (n - 1) + b",,":
            return None  # another byte, a blank line, or a row of other width
        try:
            values = orjson.loads(
                _INTEGER_MINUS_ZERO.sub(b"-0.0", b"[" + chunk.replace(b"\n", b",") + b"]")
            )
        except orjson.JSONDecodeError:
            return None
        table[filled:filled + 3 * n] = values
        filled, start = filled + 3 * n, stop + 1
    return table.reshape(rows, 3)


def _loadtxt_table(text: str) -> np.ndarray:
    """The N x 3 table of any CSV text, read by ``np.loadtxt`` (README
    grammar); a malformed text or an illegal row count raises ValueError."""
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


def signal_from_csv(text: str) -> BoundarySignal:
    table = _canonical_table(text)
    if table is None:
        table = _loadtxt_table(text)
    grid = CircleGrid(table.shape[0])
    if not np.all(np.abs(table[:, 0] - grid.nodes) <= 1e-9):  # refuses NaN too
        raise ValueError("theta column must be uniform 2*pi*j/N within 1e-9")
    vals = np.empty(grid.size, dtype=complex)
    vals.real, vals.imag = table[:, 1], table[:, 2]  # keeps signed zeros
    return BoundarySignal(grid, vals)
