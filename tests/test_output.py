"""The CSV writer against the per-cell writer it replaced.

`output.csv_lines` formats a row with one "%.12g,...,%.12g" template. The
reference below formats every cell with `format(v, ".12g")` and joins the
row, as the writer did before; the two must agree byte for byte.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from photonam import decay, radial
from photonam.output import csv_lines

HEADER = "a,b"

TINY = 5e-324
LARGEST = 1.7976931348623157e308


def reference_csv_lines(header, columns):
    """One format() call per cell, then a join per row."""
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    return [header] + [",".join(format(v, ".12g") for v in row) for row in rows]


def signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda pair: -pair[0] if pair[1] else pair[0])


CELLS = st.one_of(
    st.floats(width=64),
    st.sampled_from([0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308, LARGEST, -LARGEST]),
    signed(st.floats(min_value=TINY, max_value=2.2250738585072014e-308)),  # subnormals
    signed(st.floats(min_value=1e307, max_value=LARGEST)),
    signed(st.floats(min_value=1e-308, max_value=1e-306)),
    signed(st.floats(min_value=1e12, max_value=1e300).map(lambda v: float(math.floor(v)))),
    signed(st.integers(min_value=10**12, max_value=2**63).map(float)),
)

TABLES = st.integers(min_value=1, max_value=6).flatmap(
    lambda width: st.lists(st.tuples(*[CELLS] * width), max_size=12).map(
        lambda rows: [np.array([row[i] for row in rows], dtype=np.float64) for i in range(width)]
    )
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(TABLES)
def test_row_template_matches_per_cell_format(columns):
    assert csv_lines(HEADER, columns) == reference_csv_lines(HEADER, columns)


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
