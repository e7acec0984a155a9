"""The output contract's number format: 12 significant digits in CSV and JSON."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def g12(value: float) -> str:
    """A number as written to every output, at 12 significant digits."""
    return f"{value:.12g}"


def csv_lines(header: str, columns: Sequence[np.ndarray]) -> list[str]:
    """The header, then one row per index of the equal-length columns.

    Each row is one `%` format with a "%.12g" field per column, which writes
    every cell as g12 does, without a call per cell.
    """
    template = ",".join(["%.12g"] * len(columns))
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    return [header] + [template % row for row in rows]
