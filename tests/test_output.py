"""The numpy CSV writer against the per-cell writer.

`output.csv_lines` certifies cells in numpy and lays out their digits from
tables; every other cell goes through `"%.12g" %`. The reference below
formats every cell with `format(v, ".12g")` and joins the row; the two must
agree byte for byte. The last tests show that the numpy path, not the
per-cell fallback, writes nearly every cell of a real table.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photonam import decay, output, radial
from photonam.cli import RunConfig
from photonam.output import CHUNK_CELLS, certify, csv_lines

HEADER = "a,b"

TINY = 5e-324
SMALLEST_NORMAL = 2.2250738585072014e-308
LARGEST = 1.7976931348623157e308

#: Exact 13-digit ties: half-even rounding keeps the even 12th digit.
TIES = [1234567890125.0, 1234567890135.0]

#: Cells next to a decade, where the exponent of the rounded value differs from
#: that of the value, or where %.12g switches between fixed and scientific.
SEAMS = [9.9999999999995e-05, 1e-4, 99999999999.95, 999999999999.5, 1e12]

EDGES = (
    TIES
    + SEAMS
    + [1e300, -1e300, 1e-300, -1e-300, 1e100, 1e-100, 1.5e-250, 1e250, -1e-250]
    + [TINY, -TINY, 1e-310, -3.3e-320, SMALLEST_NORMAL, LARGEST, -LARGEST]
    + [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]
    + [1.0, 0.1, -0.5, 100.0, 123456.0, 1e11, 1e-5, 1.234e-4, 12345678901.5, 2.5e15]
)


def reference_csv_lines(header, columns):
    """One format() call per cell, then a join per row."""
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    return [header] + [",".join(format(v, ".12g") for v in row) for row in rows]


def signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda pair: -pair[0] if pair[1] else pair[0])


#: Cells Hypothesis draws into each table: zeros, the float range's ends, NaN
#: and the infinities, which random bits almost never give, the ties and seams,
#: and subnormals.
SPECIAL_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, TINY, -TINY, SMALLEST_NORMAL, LARGEST, -LARGEST] + TIES + SEAMS
                    + [math.nan, math.inf, -math.inf]),
    signed(st.floats(min_value=TINY, max_value=SMALLEST_NORMAL)),
)


def log_uniform(rng, low, high, n):
    return np.clip(10.0 ** rng.uniform(np.log10(low), np.log10(high), n), low, high)


def bulk_cells(rng, n):
    """n cells, each from one of nine kinds picked uniformly: any float64 (NaN and
    inf included), a special cell, and signed cells of the ranges subnormal,
    [1e307, LARGEST], [1e-308, 1e-306], [1e-5, 1e13], integral in [1e12, 1e300],
    integers in [1e12, 2^63], and v / 10^(v mod 17) for integers v in [1, 1e13]."""
    v = np.floor(log_uniform(rng, 1.0, 1e13, n))
    kinds = np.stack([
        rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        rng.choice([0.0, TINY, SMALLEST_NORMAL, LARGEST] + TIES + SEAMS, n),
        rng.integers(1, 2**52, n, dtype=np.uint64, endpoint=True).view(np.float64),
        rng.uniform(1e307, LARGEST, n),
        rng.uniform(1e-308, 1e-306, n),
        log_uniform(rng, 1e-5, 1e13, n),
        np.floor(log_uniform(rng, 1e12, 1e300, n)),
        np.floor(log_uniform(rng, 1e12, 2.0**63, n)),
        v / 10.0 ** (v % 17),
    ])
    cells = kinds[rng.integers(0, len(kinds), n), np.arange(n)]
    # signed at random, as `signed` draws them; the random bits carry a random sign anyway
    return np.where(rng.random(n) < 0.5, -cells, cells)


#: Up to 500 rows of up to 6 columns: the shape, a seed for the bulk of the
#: cells, and special cells at drawn positions.
TABLES = st.tuples(
    st.integers(min_value=1, max_value=6),
    st.integers(0, 500),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, 2999), SPECIAL_CELLS), max_size=20),
)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(TABLES)
def test_writer_matches_per_cell_format(table):
    n_columns, n_rows, seed, specials = table
    cells = bulk_cells(np.random.default_rng(seed), n_columns * n_rows)
    for position, value in specials:
        if cells.size:
            cells[position % cells.size] = value
    columns = list(cells.reshape(n_rows, n_columns).T.copy())
    expected = reference_csv_lines(HEADER, columns)
    assert csv_lines(HEADER, columns) == expected
    # passes of a few cells, so that every drawn table spans many of them
    with mock.patch.object(output, "CHUNK_CELLS", 7):
        assert csv_lines(HEADER, columns) == expected


def test_edge_cells_match_per_cell_format():
    column = np.array(EDGES)
    assert csv_lines("x", [column]) == reference_csv_lines("x", [column])
    assert csv_lines(HEADER, [column, column[::-1]]) == reference_csv_lines(
        HEADER, [column, column[::-1]]
    )


def test_log_uniform_cells_match_per_cell_format():
    # 1e5 cells with random signs and exponents across the certified range
    # and past it on both sides, so every exponent layout is written
    rng = np.random.default_rng(20240601)
    column = 10.0 ** rng.uniform(-300.0, 300.0, 100_000) * rng.choice([-1.0, 1.0], 100_000)
    assert len(column) > 40 * CHUNK_CELLS
    assert csv_lines("x", [column]) == reference_csv_lines("x", [column])


def test_empty_tables():
    assert csv_lines(HEADER, []) == [HEADER]
    assert csv_lines(HEADER, [np.array([]), np.array([])]) == [HEADER]


def test_profile_and_decay_csv_match_per_cell_format():
    profile = radial.radial_profile(radial.CavityConfig(k=1.0, R=100.0), 2000)
    columns = (profile.kr, profile.f_spin, profile.f_oam, profile.cum_spin, profile.cum_oam)
    lines = radial.profile_csv_lines(profile)
    assert len(lines) == 2001
    assert lines == reference_csv_lines(radial.CSV_HEADER, columns)

    curve = decay.sz_curve(decay.DecayParams(omega0=1000.0, gamma=1.0))
    columns = (curve.t, curve.sz_expect, curve.excited_pop, curve.norm_residual)
    lines = decay.decay_csv_lines(curve)
    assert len(lines) == 202
    assert lines == reference_csv_lines(decay.CSV_HEADER, columns)


@pytest.mark.parametrize(
    "value", TIES + SEAMS + [0.0, -0.0, math.nan, -math.inf, TINY, 1e-300, 1e300, LARGEST]
)
def test_ties_seams_and_specials_fall_back_to_percent_format(value):
    assert not certify(np.array([value]))[0][0]


def test_numpy_path_writes_nearly_every_cell_of_the_default_radial_table():
    # a writer that sent every cell to "%.12g" % would pass every identity
    # test above; this one holds it to the numpy path
    defaults = RunConfig()
    profile = radial.radial_profile(radial.CavityConfig(k=1.0, R=defaults.kR), 2000)
    cells = np.concatenate(
        [profile.kr, profile.f_spin, profile.f_oam, profile.cum_spin, profile.cum_oam]
    )
    certified, _, n = certify(cells)
    assert np.mean(certified) >= 0.99
    assert np.all((n[certified] > 1e11) & (n[certified] < 1e12))
