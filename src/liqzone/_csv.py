"""CSV lines as bytes, every float printed exactly as "%.17g" % x prints it.

cells formats a float array in numpy as NUL-padded (..., WIDTH) uint8 cells,
text does the same for str() of other items, and lines joins columns of cells
into CSV lines and drops the NULs.

cells follows the Grisu idea (Loitsch, "Printing floating-point numbers
quickly and accurately", PLDI 2010): take a fast path where it is provably
exact and fall back where it is not.  For |x| in [1e-280, 1e280] and E an
estimate of floor(log10 |x|), D = |x| 10^(16 - E) is formed as a
double-double: 10^k is held as a (hi, lo) pair of doubles computed from
Python ints, and hi |x| is an exact Dekker (1971) TwoProduct over Veltkamp
splits.  D's error is below 1e-14, so rounding it to an integer is exact
unless its fraction is within 1e-6 of one half (a possible tie).  The
integer's 17 digits and E then give the text through a table of %g layouts:
fixed notation for -4 <= E < 17, else d.ddde+XX, with trailing zeros
dropped.  A value that is not finite, is 0, lies outside that range or is
near a tie, or whose D lies outside [10^16, 10^17 - 1/2) (E misestimated, or
17 nines rounding up), is formatted by "%.17g" itself.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 24  # the longest %.17g text, e.g. "-1.2345678901234567e-300"

_TINY, _HUGE = 1e-280, 1e280
# E over that range, one below floor(log10 |x|) at worst
_E_MIN, _E_MAX = -281, 281
# 10^(16 - E) at E - _E_MIN: hi, hi's Veltkamp halves and lo; nan until used
_POW = np.full((4, _E_MAX - _E_MIN + 1), np.nan)

# A value's source bytes: its 17 digits at 3..19 (0..2 hold "000"), the
# constants "-.0e+" at 20..24, NULs at 25..27 and the three digits of |E| at
# 29..31.  Its cell is these bytes gathered through one of the layouts.
_SOURCE = 32
_MINUS, _POINT, _ZERO, _E, _PLUS, _NUL = range(20, 26)
_CONST = np.frombuffer(b"-.0e+\0\0\0", dtype=np.uint32)


def _power(k: int) -> tuple[float, float]:
    """10^k as hi + lo, each rounded to nearest from the exact rational."""
    if k >= 0:
        n = 10**k
        hi = float(n)
        return hi, float(n - int(hi))
    n = 10**-k
    hi = 1 / n  # int true division rounds correctly
    num, den = hi.as_integer_ratio()
    return hi, (den - num * n) / (den * n)


def _split(a):
    """Veltkamp's split: a = hi + lo, each half with at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _powers(at: np.ndarray) -> np.ndarray:
    """The columns of _POW at the indices at, computing any not yet used."""
    rows = _POW.take(at, axis=1)
    missing = np.isnan(rows[0])
    if missing.any():
        for i in set(at[missing].tolist()):
            hi, lo = _power(16 - _E_MIN - i)
            _POW[:, i] = [hi, *_split(hi), lo]
        rows = _POW.take(at, axis=1)
    return rows


def _layout(form: int, last: int) -> list[int]:
    """Source byte of each cell byte of a positive value, for a notation form
    and the index of its last nonzero digit.  Forms 0..20 are fixed notation
    at E = form - 4; 21..24 are d.ddde-XX, e-XXX, e+XX and e+XXX."""
    digits = list(range(3, 20))
    if form <= 20:
        e = form - 4
        if e < 0:
            out = [_ZERO, _POINT] + [_ZERO] * (-e - 1) + digits[:last + 1]
        else:
            out = digits[:e + 1] + ([_POINT] + digits[e + 1:last + 1] if last > e else [])
    else:
        out = digits[:1] + ([_POINT] + digits[1:last + 1] if last else [])
        out += [_E, _MINUS if form < 23 else _PLUS] + [29, 30, 31][form % 2:]
    return out + [_NUL] * (WIDTH - len(out))


@functools.cache
def _tables():
    """The lookup tables, built at first use:
    quad[i], i < 10^4, is the uint32 of i's 4 digits' bytes;
    layouts[425 negative + 17 form + last] is a layout (see _layout);
    by_e[:, E - _E_MIN] holds 17 times E's form and the uint32 of |E|'s digits;
    last[j - 1, i] is the index among the 17 of the last nonzero digit of
    group j = 1..4 (digits 4j - 3 .. 4j) when it holds i, 0 when i = 0."""
    i = np.arange(10000, dtype=np.uint16)
    quad = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1).astype(np.uint8)
    quad = (quad + ord("0")).view(np.uint32)[:, 0]
    layouts = np.array([b for form in range(25) for last in range(17)
                        for b in _layout(form, last)], dtype=np.uint8).reshape(-1, WIDTH)
    layouts = np.concatenate([layouts, np.insert(layouts[:, :-1], 0, _MINUS, axis=1)])
    e = np.arange(_E_MIN, _E_MAX + 1)
    form = np.where((e >= -4) & (e <= 16), e + 4, 21 + 2 * (e > 0) + (abs(e) >= 100))
    by_e = np.stack([17 * form, quad[abs(e)]])
    last = 4 - (i % 10 == 0).view(np.uint8) - (i % 100 == 0) - (i % 1000 == 0)
    last = (last + np.array([[0], [4], [8], [12]], dtype=np.uint8)) * (i > 0)
    return quad, layouts, by_e, last


def cells(values) -> np.ndarray:
    """Each value's "%.17g" text as a NUL-padded cell: shape values.shape + (WIDTH,)."""
    quad, layouts, by_e, last_of = _tables()
    values = np.asarray(values, dtype=float)
    x = values.ravel()
    a = np.abs(x)
    fast = (a >= _TINY) & (a <= _HUGE)  # False for nan
    a[~fast] = 1.0
    at = np.floor(np.log10(a)).astype(np.intp) - _E_MIN  # E - _E_MIN
    hi, hi_h, hi_l, lo = _powers(at)
    # D = a (hi + lo) = p + r: p = fl(a hi) is an integer (D >= 2^53), r is small
    p = a * hi
    a_h, a_l = _split(a)
    r = ((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l + a * lo
    whole = np.floor(r)
    frac = r - whole
    n = p.astype(np.int64) + whole.astype(np.int64)  # floor(D)
    up = frac > 0.5
    # a D rounding to 10^17 falls back too: it needs log10 to err, and never
    # did in 2e7 random values and the neighbours of every power of ten
    fast &= (np.abs(frac - 0.5) > 1e-6) & (n >= 10**16) & (n + up < 10**17)
    n += up
    # n's digits: d0, then four groups of four
    high = n // 10**8
    low = n - high * 10**8
    d0 = high // 10**8
    mid = high // 10**4
    c3 = low // 10**4
    groups = [mid - d0 * 10**4, high - mid * 10**4, c3, low - c3 * 10**4]
    source = np.empty((x.size, _SOURCE // 4), dtype=np.uint32)
    for col, group in enumerate([d0, *groups]):
        source[:, col] = quad.take(group)
    source[:, 5:7] = _CONST
    index, source[:, 7] = by_e.take(at, axis=1)
    index += len(layouts) // 2 * np.signbit(x)  # the negative values' layouts follow
    index += np.maximum.reduce([row.take(group) for row, group in zip(last_of, groups)])
    layout = layouts.take(index, axis=0) + np.arange(0, _SOURCE * x.size, _SOURCE)[:, None]
    out = source.view(np.uint8).ravel().take(layout)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ["%.17g" % v for v in x[slow].tolist()]
        out[slow] = np.array(text, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
    return out.reshape(values.shape + (WIDTH,))


def text(items) -> np.ndarray:
    """Each item's str() as a NUL-padded cell: shape (len(items), longest)."""
    strings = np.array([str(item) for item in items], dtype=bytes)
    return strings.view(np.uint8).reshape(strings.size, -1)


def lines(*columns) -> bytes:
    """CSV lines, LF-ended, of columns of cells broadcast against each other over
    all but their last axis, row-major; each cell's NULs are dropped."""
    shape = np.broadcast_shapes(*(column.shape[:-1] for column in columns))
    ends = np.cumsum([column.shape[-1] + 1 for column in columns])
    rows = np.empty(shape + (ends[-1],), dtype=np.uint8)
    for column, end in zip(columns, ends):
        rows[..., end - 1 - column.shape[-1]:end - 1] = column
        rows[..., end - 1] = ord(",")
    rows[..., -1] = ord("\n")
    rows = rows.reshape(-1)
    return rows[rows != 0].tobytes()
