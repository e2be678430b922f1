"""Privacy enforcement: no PII, aggregation floors.

The paper closes with *"Privacy & ethics: We do not use any PII in our
analyses"* and §5 insists insights be *aggregated*.  Two mechanisms:

* :func:`scrub_author` — identifiers are one-way hashed before they ever
  enter a signal series, so joins are possible but re-identification
  from the service's outputs is not;
* :class:`PrivacyGuard` — any aggregate released by the service must
  cover at least ``min_users`` distinct (hashed) users, otherwise the
  operation raises :class:`~repro.errors.PrivacyError`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.signals import SignalSeries
from repro.errors import PrivacyError

_SCRUB_PREFIX = "u_"


def scrub_author(identifier: str) -> str:
    """One-way hash of a user identifier (stable within a deployment)."""
    if not identifier:
        raise PrivacyError("cannot scrub an empty identifier")
    digest = hashlib.sha256(identifier.encode("utf-8")).hexdigest()[:12]
    return f"{_SCRUB_PREFIX}{digest}"


def is_scrubbed(identifier: str) -> bool:
    return identifier.startswith(_SCRUB_PREFIX)


@dataclass(frozen=True)
class PrivacyGuard:
    """Aggregation floor enforcement.

    Attributes:
        min_users: smallest distinct-user count an aggregate may cover.
    """

    min_users: int = 10

    def __post_init__(self) -> None:
        if self.min_users < 1:
            raise PrivacyError("min_users must be >= 1")

    def distinct_users(self, series: SignalSeries) -> int:
        codes, users = series.attr_codes("user")
        present = np.bincount(codes, minlength=len(users)) > 0
        return sum(1 for u, seen in zip(users, present.tolist()) if seen and u)

    def check(self, series: SignalSeries, context: str = "aggregate") -> None:
        """Raise PrivacyError when the series is too narrow to release."""
        users = self.distinct_users(series)
        if users < self.min_users:
            raise PrivacyError(
                f"{context}: only {users} distinct users "
                f"(floor is {self.min_users})"
            )

    def assert_scrubbed(self, series: SignalSeries) -> None:
        """Raise when any signal carries an unscrubbed user identifier."""
        codes, users = series.attr_codes("user")
        raw = np.array(
            [bool(u) and not is_scrubbed(u) for u in users], dtype=bool
        )
        rows = np.flatnonzero(raw[codes])
        if len(rows):
            raise PrivacyError(
                f"signal at {series[int(rows[0])].timestamp} carries raw "
                f"identifier"
            )
