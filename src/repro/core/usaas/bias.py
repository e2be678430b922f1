"""Social-media bias correction (§6 "The social network bias").

Social feedback over-represents three things: loud users (many posts),
viral threads (huge popularity weights), and extreme feelings (delighted
or furious users post; the satisfied middle doesn't).  USaaS can't fix
the last one without ground truth, but it can stop the first two from
multiplying it:

* **author de-duplication** — at most ``per_author_daily_cap`` signals
  per (hashed) author per day count;
* **weight winsorisation** — popularity weights are capped at the
  ``weight_cap_quantile`` of the weight distribution, so one viral
  thread can't dominate a month.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.signals import SignalSeries
from repro.errors import ConfigError


@dataclass(frozen=True)
class BiasCorrector:
    """Debiasing parameters.

    Attributes:
        per_author_daily_cap: max signals per author per day (0 = off).
        weight_cap_quantile: winsorisation quantile for weights in
            (0, 1]; 1.0 disables capping.
    """

    per_author_daily_cap: int = 3
    weight_cap_quantile: float = 0.95

    def __post_init__(self) -> None:
        if self.per_author_daily_cap < 0:
            raise ConfigError("per_author_daily_cap must be >= 0")
        if not 0 < self.weight_cap_quantile <= 1:
            raise ConfigError("weight_cap_quantile must be in (0, 1]")

    def apply(self, series: SignalSeries) -> SignalSeries:
        """Return the debiased series (original untouched).

        The author cap keeps each (author, day) group's first
        ``per_author_daily_cap`` signals in series order; signals without
        a ``user`` attribute share the author ``"?"``.
        """
        if len(series) == 0:
            return SignalSeries()
        keep = None
        if self.per_author_daily_cap > 0:
            codes, users = series.attr_codes("user")
            index: Dict[str, int] = {}
            author = np.array(
                [index.setdefault(u or "?", len(index)) for u in users],
                dtype=np.int64,
            )[codes]
            keep = _group_rank(author, series.day_ordinals()) < (
                self.per_author_daily_cap
            )

        if self.weight_cap_quantile < 1:
            weights = series.weight_array()
            if keep is not None:
                weights = weights[keep]
            if len(weights):
                cap = float(np.quantile(weights, self.weight_cap_quantile))
                cap = max(cap, 1.0)
                return series.take(keep, weight=np.minimum(weights, cap))
        return series.take(keep)


def _group_rank(*keys: np.ndarray) -> np.ndarray:
    """Each row's 0-based position among the earlier rows sharing all
    ``keys`` (a stable per-group rank, in row order)."""
    n = len(keys[0])
    order = np.lexsort((np.arange(n),) + tuple(reversed(keys)))
    changed = np.zeros(n, dtype=bool)
    changed[0] = True
    for key in keys:
        ordered = key[order]
        changed[1:] |= ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(changed)
    run_start = np.repeat(starts, np.diff(np.append(starts, n)))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n) - run_start
    return rank
