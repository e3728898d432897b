"""The paper's GMean: the one metric helper the harness shares."""

from __future__ import annotations

import math
from typing import Iterable


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's GMean bars)."""
    vals = [v for v in values]
    if not vals:
        return 0.0
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))

