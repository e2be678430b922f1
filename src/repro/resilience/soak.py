"""The soak kernel: one outcome ledger, one replay loop, one verdict.

Every deterministic soak (serving, cluster, prediction, streaming,
integrity) shares these pieces:

* :class:`OutcomeLedger` — submissions and their terminal states, with
  the exactly-once closure ``submitted == served + served_degraded +
  shed + deadline_exceeded + failed`` stated here and nowhere else;
* :func:`replay` — the discrete-event loop over fault events and
  arrivals on the system's (simulated) clock;
* :func:`verdict` — each soak report lists its problems as ordered
  ``(exit_code, message)`` pairs and the first decides the exit code:
  0 = the soak held, 2 = an invariant broke (a bug, not load), 3 = the
  soak proved nothing or the service did not hold up (see the table in
  ``docs/resilience.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.errors import ConfigError, QueryRejectedError

#: Terminal states a submitted query can end in.
OUTCOME_STATUSES: Tuple[str, ...] = (
    "served", "served_degraded", "shed", "deadline_exceeded", "failed",
)

#: The ledger's fields in their stable order.
LEDGER_FIELDS: Tuple[str, ...] = ("submitted",) + OUTCOME_STATUSES

#: One soak problem: the exit code it maps to and its stderr line.
Problem = Tuple[int, str]


@dataclass
class OutcomeLedger:
    """Exactly-once tally: submissions and their terminal states."""

    submitted: int = 0
    served: int = 0
    served_degraded: int = 0
    shed: int = 0
    deadline_exceeded: int = 0
    failed: int = 0

    def record(self, status: str) -> None:
        """Count one terminal outcome."""
        if status not in OUTCOME_STATUSES:
            raise ConfigError(f"unknown outcome status {status!r}")
        setattr(self, status, getattr(self, status) + 1)

    @classmethod
    def total(cls, ledgers: Iterable["OutcomeLedger"]) -> "OutcomeLedger":
        """Field-wise sum of ``ledgers``."""
        out = cls()
        for ledger in ledgers:
            for name in LEDGER_FIELDS:
                setattr(out, name, getattr(out, name) + getattr(ledger, name))
        return out

    @property
    def terminal(self) -> int:
        return sum(getattr(self, status) for status in OUTCOME_STATUSES)

    @property
    def accounted(self) -> bool:
        """Every submission landed in exactly one terminal state."""
        return self.submitted == self.terminal

    @property
    def answered(self) -> int:
        return self.served + self.served_degraded

    @property
    def shed_rate(self) -> float:
        return self.shed / self.submitted if self.submitted else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in LEDGER_FIELDS}

    def cells(self) -> Tuple[str, ...]:
        """The fields as table cells, in :data:`LEDGER_FIELDS` order."""
        return tuple(str(getattr(self, name)) for name in LEDGER_FIELDS)


class LedgerView:
    """Mixin: a report's ``ledger`` counts read as the report's own
    (``report.served`` is ``report.ledger.served``); a report may
    override any of them."""

    ledger: OutcomeLedger

    def __getattr__(self, name: str) -> Any:
        if name in LEDGER_FIELDS or name in (
            "accounted", "answered", "shed_rate",
        ):
            return getattr(self.ledger, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )


def replay(
    system,
    arrivals: Sequence,
    submit: Callable[[Any, int], Any],
    faults: Sequence = (),
) -> int:
    """Replay ``faults`` and ``arrivals`` on ``system``; return #arrivals.

    Before each event the system runs queued work (``run_until(t)``)
    and its clock moves to the event.  Arrivals go in stable ``at_s``
    order, faults (``system.apply_fault``) in the order given, a fault
    landing before an arrival at the same instant.  ``submit(arrival,
    index)`` submits one; a :class:`QueryRejectedError` is shedding,
    already accounted by the system, so the replay moves on.
    """
    clock = system.clock
    advance = getattr(clock, "advance", clock.sleep)
    timeline: List[Tuple[float, int, int, Any]] = [
        (event.at_s, 0, i, event) for i, event in enumerate(faults)
    ]
    ordered = sorted(arrivals, key=lambda a: a.at_s)
    timeline.extend(
        (arrival.at_s, 1, i, arrival) for i, arrival in enumerate(ordered)
    )
    timeline.sort(key=lambda item: item[:3])
    for at_s, kind, index, item in timeline:
        system.run_until(at_s)
        if clock.now() < at_s:
            advance(at_s - clock.now())
        if kind == 0:
            system.apply_fault(item)
            continue
        try:
            submit(item, index)
        except QueryRejectedError:
            continue
    return len(ordered)


def verdict(problems: Sequence[Problem]) -> int:
    """The exit code of a soak: its first problem's, or 0 when clean."""
    return problems[0][0] if problems else 0
