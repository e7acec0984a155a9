"""The output contract's number format: 12 significant digits in CSV and JSON.

`csv_lines` writes every cell as `"%.12g" % value` does, byte for byte, with
numpy doing the work for nearly every cell. For a cell x it takes the decimal
exponent X = floor(log10 |x|), scales m = |x| 10^(11 - X) and rounds n = rint(m),
so that n holds the 12 significant digits. The scaling is one product with a
tabulated power of ten, exact for 0 <= 11 - X <= 22 and correctly rounded
otherwise; with the product's own rounding that is at most two half-ulp
errors, so m is within 1e12 2^-52 < 2.3e-4 of the exact product.

A cell is certified when 1e11 < n < 1e12 and |m - n| < 0.5 - 1e-3. The
margin of 1e-3 against the error of 2.3e-4 makes n the correctly rounded
12-digit significand of |x| with no tie to break, and the range of n makes X
its exponent even where log10 misjudged a decade. |x| is clipped to
[1e-250, 1e250] first, which keeps X inside the tables; a clipped cell scales
to n = 1e11 and is not certified. The digits, point, sign and exponent of a
certified cell are then laid out by table lookups as `%.12g` lays them out.
Every other cell is written by `"%.12g" %` itself: zeros, non-finite values,
subnormals, |x| past 1e250, exact and near ties, and decade seams such as
999999999999.5 and exact powers of ten. `tests/test_output.py` keeps the
per-cell writer as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

#: Cells formatted per numpy pass. The temporaries of a pass then stay a few
#: hundred kB whatever the table's length, and the allocator reuses their
#: memory: a call on a 2000 x 5 table in one pass page-faults on ~300 fresh
#: pages, in passes of 2048 cells on none.
CHUNK_CELLS = 2048

#: Bytes of a laid-out cell: word 0 holds the sign and a "0.000" prefix,
#: words 1-3 twelve digits each followed by a slot for the point, word 4 the
#: exponent and the separator. Empty bytes are NUL and are deleted.
_RECORD = 40
_SEPARATOR_AT = 37

#: Per-exponent tables are indexed by X + _X_OFFSET, for X in [-251, 250].
_X_OFFSET = 260
_X = np.arange(-_X_OFFSET, _X_OFFSET)
#: 10^(11 - X), correctly rounded: parsed by float(), where numpy's power
#: can be an ulp off
_POW10 = np.array([float(f"1e{11 - x}") for x in _X.tolist()])
_CLIP = (1e-250, 1e250)
_TIE_MARGIN = 0.5 - 1e-3
_SPLIT = np.array([1e8, 1e4, 1.0])[:, None]


def _tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of the layout, built with numpy arithmetic only."""
    zero = ord("0")
    fixed = (_X >= -4) & (_X < 12)
    below_one = fixed & (_X < 0)

    # the four digits of every group g = 0..9999, most significant first
    digits = np.indices((10, 10, 10, 10), np.uint8).reshape(4, 10000)
    # a group's digits, each followed by an empty slot for the point
    quads = np.zeros((10000, 8), np.uint8)
    quads[:, 0::2] = digits.T + zero

    # _SIGNIFICANT[10000 j + g]: digits of n through its last nonzero one when
    # group j is g, 0 for g = 0; the largest over j counts n's digits without
    # trailing zeros
    last = (np.arange(1, 5, dtype=np.int8)[:, None] * (digits != 0)).max(axis=0)
    significant = np.where(last > 0, last + 4 * np.arange(3, dtype=np.int8)[:, None], 0)
    significant = significant.astype(np.int8).ravel()

    # "0." and -X - 1 zeros before the digits of a fixed cell below one
    prefix = np.zeros((len(_X), 8), np.uint8)
    prefix[below_one, 1] = zero
    prefix[below_one, 2] = ord(".")
    for j in (1, 2, 3):
        prefix[below_one & (-_X - 1 >= j), 2 + j] = zero

    # "e", its sign and at least two digits of |X| for a scientific cell
    exponent = np.zeros((len(_X), 8), np.uint8)
    scientific, size = ~fixed, np.abs(_X)
    exponent[scientific, 0] = ord("e")
    exponent[scientific, 1] = np.where(_X < 0, ord("-"), ord("+"))[scientific]
    exponent[:, 2] = np.where(scientific & (size >= 100), size // 100 % 10 + zero, 0)
    exponent[scientific, 3] = size[scientific] // 10 % 10 + zero
    exponent[scientific, 4] = size[scientific] % 10 + zero

    # digits before the point: X + 1 fixed, 1 scientific, 0 after "0."
    integer_digits = np.where(fixed, np.maximum(_X + 1, 0), 1)

    # word masks keeping the first j digits, and words with the point after
    # digit j - 1 (none for j = 0), as rows of three words per j = 0..12
    j = np.arange(13)[:, None]
    slot = np.arange(24)
    keep = np.where((slot % 2 == 0) & (slot // 2 < j), 0xFF, 0).astype(np.uint8)
    point = np.where((slot % 2 == 1) & (slot // 2 == j - 1), ord("."), 0).astype(np.uint8)

    sign = np.zeros((2, 8), np.uint8)
    sign[1, 0] = ord("-")
    return (
        quads.view(np.uint64).ravel(),
        significant,
        prefix.view(np.uint64).ravel(),
        exponent.view(np.uint64).ravel(),
        integer_digits,
        keep.view(np.uint64).T.copy(),
        point.view(np.uint64).T.copy(),
        sign.view(np.uint64).ravel(),
    )


_QUADS, _SIGNIFICANT, _PREFIX, _EXPONENT, _INTEGER_DIGITS, _KEEP, _POINT, _SIGN = _tables()
_SIGNIFICANT_OFFSET = (10000 * np.arange(3))[:, None]


@dataclass(frozen=True)
class Check:
    """One check of `algebra` or `verify-all`: its name, outcome, bound and readings."""

    name: str
    passed: bool
    #: what pass/fail compares against, as applied: a number, a (lo, hi) pair or a dict by reading
    bound: Any
    values: dict


def g12(value: float) -> str:
    """A number as written to every output, at 12 significant digits."""
    return f"{value:.12g}"


def certify(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(certified, index, n) for a 1-D float64 array of cells.

    certified marks the cells whose 12 significant digits are the integer n
    (a float in (1e11, 1e12)) and whose exponent is X = index - _X_OFFSET,
    as the module docstring proves; n is 1e11 on every other cell.
    """
    # fmax and fmin, unlike clip, also send NaN into the range
    size = np.fmin(np.fmax(np.abs(cells), _CLIP[0]), _CLIP[1])
    index = (np.floor(np.log10(size)) + _X_OFFSET).astype(np.intp)
    m = size * _POW10.take(index)
    n = np.rint(m)
    certified = (np.abs(m - n) < _TIE_MARGIN) & (n > 1e11) & (n < 1e12)
    return certified, index, np.where(certified, n, 1e11)


def _records(cells: np.ndarray) -> np.ndarray:
    """A (len(cells), _RECORD) uint8 array: each cell laid out as "%.12g", NUL-padded."""
    certified, index, n = certify(cells)
    groups = np.floor(n / _SPLIT)
    groups[1:] -= 1e4 * groups[:-1]
    groups = groups.astype(np.intp)
    significant = _SIGNIFICANT.take(groups + _SIGNIFICANT_OFFSET).max(axis=0)
    integer = _INTEGER_DIGITS.take(index)
    digits = _QUADS.take(groups)
    digits &= _KEEP.take(np.maximum(significant, integer), axis=1)
    digits |= _POINT.take(integer * (significant > integer), axis=1)

    words = np.empty((len(cells), _RECORD // 8), np.uint64)
    words[:, 0] = _PREFIX.take(index) | _SIGN.take(np.signbit(cells).view(np.uint8))
    words[:, 1:4] = digits.T
    words[:, 4] = _EXPONENT.take(index)
    records = words.view(np.uint8)
    others = np.flatnonzero(~certified)
    text = b"".join((b"%.12g" % value).ljust(_RECORD, b"\0") for value in cells[others].tolist())
    records[others] = np.frombuffer(text, np.uint8).reshape(-1, _RECORD)
    return records


def csv_lines(header: str, columns: Sequence[np.ndarray]) -> list[str]:
    """The header, then one row per index of the equal-length columns.

    Every cell is written as g12 writes it. Rows are formatted CHUNK_CELLS
    cells at a time: each chunk's records get their separators, and one
    bytes.translate deletes the padding before the text is split into rows.
    """
    columns = [np.asarray(col, dtype=np.float64) for col in columns]
    lines = [header]
    if not columns:
        return lines
    separators = np.full(len(columns), ord(","), np.uint8)
    separators[-1] = ord("\n")
    step = max(1, CHUNK_CELLS // len(columns))
    for start in range(0, len(columns[0]), step):
        table = np.column_stack([col[start : start + step] for col in columns])
        records = _records(table.ravel()).reshape(*table.shape, _RECORD)
        records[:, :, _SEPARATOR_AT] = separators
        lines += records.tobytes().translate(None, b"\0").decode("ascii").splitlines()
    return lines
