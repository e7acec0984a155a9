"""The output contract's number format, 12 significant digits in CSV and JSON, and the
readers of numeric inputs.

`g12` states the format once. `csv_lines` writes every cell as `g12` writes
it, byte for byte, with numpy doing the work for nearly every cell. For a cell
x it takes the decimal exponent X = floor(log10 |x|), scales m = |x| 10^(11 - X)
and rounds n = rint(m), so that n holds the 12 significant digits. The
scaling is one product with a tabulated power of ten, exact for
0 <= 11 - X <= 22 and correctly rounded otherwise; with the product's own
rounding that is at most two half-ulp errors, so m is within
1e12 2^-52 < 2.3e-4 of the exact product.

A cell is certified when 1e11 < n < 1e12 and |m - n| < 0.5 - 1e-3. The
margin of 1e-3 against the error of 2.3e-4 makes n the correctly rounded
12-digit significand of |x| with no tie to break, and the range of n makes X
its exponent even where log10 misjudged a decade. |x| is clipped to
[1e-250, 1e250] first, which keeps X inside the tables; a clipped cell scales
to n = 1e11 and is not certified. The digits, point, sign and exponent of a
certified cell are then laid out by table lookups. The tables of a decade X
(its sign and "0.00" prefix, its digits before the point and its exponent)
are read off the text `g12` writes for 10^X and -1, so the layout is `g12`'s
own. The tables depend on no input and are built on the first CSV write, so
a command that writes only JSON never builds them. Every other cell is
written by `g12` itself: zeros, non-finite values, subnormals, |x| past
1e250, exact and near ties, and decade seams such as 999999999999.5 and
exact powers of ten. `tests/test_output.py` keeps the per-cell writer as the
oracle.

The library's numeric inputs are read here too, one reader per kind, each
refusing a bad value in one ValueError line: `real` reads a finite scalar as a
Python float, `nonnegative` an array of entries >= 0 as float64, and `integer`
a Python or numpy integer, never a bool or a float. An int past the float
range is not finite to `real` and is refused by `nonnegative`, where math and
numpy would raise OverflowError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import isfinite
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

#: Per-exponent tables are indexed by X + _X_OFFSET, for X in [-251, 250];
#: the prefix table holds the prefixes of negative cells _X.size entries on.
_X_OFFSET = 260
_X = np.arange(-_X_OFFSET, _X_OFFSET)
#: 10^(11 - X), correctly rounded: parsed by float(), where numpy's power
#: can be an ulp off
_POW10 = np.array([float(f"1e{11 - x}") for x in _X.tolist()])
_CLIP = (1e-250, 1e250)
_TIE_MARGIN = 0.5 - 1e-3
_SPLIT = np.array([1e8, 1e4, 1.0])[:, None]


def g12(value: float) -> str:
    """A number as written to every output, at 12 significant digits: the format's one statement."""
    return f"{value:.12g}"


def real(value, name: str, positive: bool = False) -> float:
    """value as a Python float; ValueError unless it is finite, and > 0 where positive is set.

    isfinite reads value as a Python float, so an int past int64 is read as the
    float it equals, and one past the float range overflows: it is not finite.
    """
    try:
        finite = isfinite(value)
    except OverflowError:
        finite = False
    if not (finite and (value > 0 or not positive)):
        raise ValueError(f"{name} must be finite{' and > 0' if positive else ''}, got {value}")
    return float(value)


def nonnegative(values, name: str, finite: bool = True) -> np.ndarray:
    """values as a float64 array; ValueError unless every entry is >= 0, and finite where
    finite is set: inf passes without it, NaN and an int past the float range never."""
    try:
        arr = np.asarray(values, dtype=float)
    except OverflowError:  # an int past the float range, which numpy cannot convert
        arr = np.array(np.nan)
    admitted = (arr >= 0) & (arr < np.inf) if finite else arr >= 0  # NaN fails either
    if not admitted.all():
        limits = ("finite and >= 0" if finite
                  else ">= 0 and not NaN, nor an int past the float range")
        raise ValueError(f"{name} must be {limits}")
    return arr


def integer(value, name: str, allowed: Sequence[int] | None = None) -> int:
    """value as a Python int; ValueError unless it is a Python or numpy integer, and one of
    allowed where that is given. A bool or a float is refused, even one equal to an integer."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if allowed is None or int(value) in allowed:
            return int(value)
    want = "an integer" if allowed is None else (
        "the integer " + ", ".join(map(str, allowed[:-1])) + f" or {allowed[-1]}"
    )
    raise ValueError(f"{name} must be {want}, got {value!r}")


@cache
def _tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of the layout, built once per process on the first CSV write.

    The digit words are built with numpy. The words of a decade X are read
    off the text g12 writes for 10^X ("0.001", "1000", "1e-05") and the sign
    off the text it writes for -1.
    """
    # the four digits of every group g = 0..9999, most significant first
    digits = np.indices((10, 10, 10, 10), np.uint8).reshape(4, 10000)
    # a group's digits, each followed by an empty slot for the point
    quads = np.zeros((10000, 8), np.uint8)
    quads[:, 0::2] = digits.T + ord("0")

    # significant[10000 j + g]: digits of n through its last nonzero one when
    # group j is g, 0 for g = 0; the largest over j counts n's digits without
    # trailing zeros
    last = (np.arange(1, 5, dtype=np.int8)[:, None] * (digits != 0)).max(axis=0)
    significant = np.where(last > 0, last + 4 * np.arange(3, dtype=np.int8)[:, None], 0)
    significant = significant.astype(np.int8).ravel()

    # before the "1" of 10^X stands the decade's prefix ("0.00" or none); the
    # zeros after it are further digits before the point, unless a prefix
    # holds the point, and what follows them is the exponent ("e-05" or none)
    prefix, _, rest = zip(*(g12(10.0**x).partition("1") for x in _X.tolist()))
    exponent = [tail.lstrip("0") for tail in rest]
    integer_digits = np.array(
        [0 if head else 1 + len(tail) - len(e) for head, tail, e in zip(prefix, rest, exponent)]
    )
    # and a negative cell's prefix starts with the sign g12 writes for -1
    prefix += tuple(g12(-1.0).removesuffix("1") + head for head in prefix)

    # word masks keeping the first j digits, and words with the point after
    # digit j - 1 (none for j = 0), as rows of three words per j = 0..12
    j = np.arange(13)[:, None]
    slot = np.arange(24)
    keep = np.where((slot % 2 == 0) & (slot // 2 < j), 0xFF, 0).astype(np.uint8)
    point = np.where((slot % 2 == 1) & (slot // 2 == j - 1), ord("."), 0).astype(np.uint8)
    return (
        quads.view(np.uint64).ravel(),
        significant,
        np.array(prefix, "S8").view(np.uint64),
        np.array(exponent, "S8").view(np.uint64),
        integer_digits,
        keep.view(np.uint64).T.copy(),
        point.view(np.uint64).T.copy(),
    )


_SIGNIFICANT_OFFSET = (10000 * np.arange(3))[:, None]


@dataclass(frozen=True)
class Check:
    """One check of `algebra` or `verify-all`: its name, outcome, bound and readings."""

    name: str
    passed: bool
    #: what pass/fail compares against, as applied: a number, a (lo, hi) pair or a dict by reading
    bound: Any
    values: dict


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
    """A (len(cells), _RECORD) uint8 array: each cell laid out as g12 writes it, NUL-padded."""
    quads, significant_digits, prefixes, exponents, integer_digits, keep, point = _tables()
    certified, index, n = certify(cells)
    groups = np.floor(n / _SPLIT)
    groups[1:] -= 1e4 * groups[:-1]
    groups = groups.astype(np.intp)
    significant = significant_digits.take(groups + _SIGNIFICANT_OFFSET).max(axis=0)
    integer = integer_digits.take(index)
    digits = quads.take(groups)
    digits &= keep.take(np.maximum(significant, integer), axis=1)
    digits |= point.take(integer * (significant > integer), axis=1)

    words = np.empty((len(cells), _RECORD // 8), np.uint64)
    words[:, 0] = prefixes.take(index + _X.size * np.signbit(cells))
    words[:, 1:4] = digits.T
    words[:, 4] = exponents.take(index)
    records = words.view(np.uint8)
    others = np.flatnonzero(~certified)
    text = [g12(value) for value in cells[others].tolist()]
    records[others] = np.array(text, f"S{_RECORD}").view(np.uint8).reshape(-1, _RECORD)
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
