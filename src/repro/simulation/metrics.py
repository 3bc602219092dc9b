"""Metrics over consensus executions: ``U[t]``, ``µ[t]``, validity, convergence.

The paper's correctness conditions are stated entirely in terms of the largest
and smallest fault-free states:

* Validity (eq. 1): ``U[t] ≤ U[t − 1]`` and ``µ[t] ≥ µ[t − 1]`` for all
  ``t > 0`` (which, with the output constraint, implies the convex-hull form).
* Convergence: ``U[t] − µ[t] → 0``.

These helpers compute the two extremes, check validity across rounds
(:class:`ValidityMonitor`, shared by every engine tier) and decide
convergence against a tolerance.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError, ValidityViolationError
from repro.types import NodeId

# Validity comparisons allow this much numerical slack: the update rules are
# convex combinations, so any apparent expansion of the fault-free interval
# larger than this indicates a genuine bug rather than floating-point noise.
VALIDITY_TOLERANCE = 1e-9


def fault_free_extremes(
    values: Mapping[NodeId, float], faulty: frozenset[NodeId]
) -> tuple[float, float]:
    """Return ``(µ[t], U[t])`` — the min and max state over fault-free nodes."""
    # reprolint: disable=ORD002 -- min/max are order-free; no need to sort this once-per-round hot path
    fault_free = [value for node, value in values.items() if node not in faulty]
    if not fault_free:
        raise InvalidParameterError(
            "cannot compute fault-free extremes: every node is faulty"
        )
    return min(fault_free), max(fault_free)


def spread(values: Mapping[NodeId, float], faulty: frozenset[NodeId]) -> float:
    """Return ``U[t] − µ[t]``."""
    low, high = fault_free_extremes(values, faulty)
    return high - low


def has_converged(
    values: Mapping[NodeId, float],
    faulty: frozenset[NodeId],
    tolerance: float,
) -> bool:
    """Return whether the fault-free spread is at or below ``tolerance``."""
    if tolerance < 0:
        raise InvalidParameterError(f"tolerance must be >= 0, got {tolerance}")
    return spread(values, faulty) <= tolerance


class ValidityMonitor:
    """The validity check of every engine tier, vectorised over ``B`` rows.

    Built from the round-0 fault-free values, a ``(B, m)`` array whose
    columns are the fault-free ``nodes`` (a single run is ``B = 1``), and fed
    each executed round's values through :meth:`observe`.  The engine class
    fixes the reference interval:

    * the synchronous tiers check eq. 1 against the running *tightest*
      interval observed so far.  Comparing with the previous round only
      would grant fresh slack every round and let the hull drift by
      ``rounds × slack`` unnoticed; this way a whole run gets one slack;
    * the partially asynchronous tiers (``initial_hull=True``) check the
      round-0 hull, the form of validity that survives stale values.

    With ``track_sleep`` (runs under a topology schedule) the monitor keeps
    the previous round's values and requires every node asleep in a round to
    keep its state *exactly*: engines freeze by copying, so any difference is
    an engine bug.  The hull still spans all fault-free nodes, so a sleeping
    extreme keeps bounding it.

    ``ok`` holds per row; ``first_round`` and ``first_node`` locate each
    row's first violation.  With ``strict`` the first violation raises
    :class:`~repro.exceptions.ValidityViolationError` with its row, round,
    node, bound and observed value.
    """

    def __init__(
        self,
        values: np.ndarray,
        nodes: Sequence[NodeId],
        *,
        initial_hull: bool = False,
        track_sleep: bool = False,
        strict: bool = False,
    ) -> None:
        values = np.asarray(values)
        self._nodes = tuple(nodes)
        self._initial_hull = initial_hull
        self._strict = strict
        self._previous = values if track_sleep else None
        #: ``(B,)`` ends of the reference interval.
        self.low: np.ndarray = values.min(axis=1)
        self.high: np.ndarray = values.max(axis=1)
        self._round_index = 0
        self.ok = np.ones(values.shape[0], dtype=bool)
        self.first_round: list[int | None] = [None] * values.shape[0]
        self.first_node: list[NodeId | None] = [None] * values.shape[0]

    def observe(
        self,
        values: np.ndarray,
        active: np.ndarray | None = None,
        awake: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Check the next round and return its per-row ``(µ[t], U[t])``.

        ``values`` is the round's ``(B, m)`` fault-free state, ``active`` the
        ``(B,)`` rows that executed it (``None``: all) and ``awake`` the
        ``(m,)`` nodes the schedule kept awake (``None``: nobody slept).
        """
        values = np.asarray(values)
        self._round_index += 1
        lows = values.min(axis=1)
        highs = values.max(axis=1)
        # Negated comparisons, so a NaN extreme counts as an escape.
        bad = ~(
            (lows >= self.low - VALIDITY_TOLERANCE)
            & (highs <= self.high + VALIDITY_TOLERANCE)
        )
        previous = self._previous
        moved: np.ndarray | None = None
        if previous is not None:
            self._previous = values
            if awake is not None:
                moved = ~np.asarray(awake, dtype=bool) & (values != previous)
                bad |= moved.any(axis=1)
        if active is not None:
            bad &= active
        if bad.any():
            rows = np.flatnonzero(bad & self.ok)
            self.ok &= ~bad
            if rows.size:
                self._record(rows, values, moved, previous)
        if not self._initial_hull:
            self.low = np.maximum(self.low, lows)
            self.high = np.minimum(self.high, highs)
        return lows, highs

    def _record(
        self,
        rows: np.ndarray,
        values: np.ndarray,
        moved: np.ndarray | None,
        previous: np.ndarray | None,
    ) -> None:
        """Note each new violation's first offending node (column order);
        in strict mode raise for the first row."""
        block = values[rows]
        escaped = ~(
            (block >= self.low[rows, None] - VALIDITY_TOLERANCE)
            & (block <= self.high[rows, None] + VALIDITY_TOLERANCE)
        )
        columns = (escaped if moved is None else escaped | moved[rows]).argmax(axis=1)
        for row, column in zip(rows.tolist(), columns.tolist()):
            self.first_round[row] = self._round_index
            self.first_node[row] = self._nodes[column]
        if not self._strict:
            return
        row, column = int(rows[0]), int(columns[0])
        node, observed = self._nodes[column], float(values[row, column])
        low, high = float(self.low[row]), float(self.high[row])
        if escaped[0, column] or previous is None:
            bound = high if observed > high + VALIDITY_TOLERANCE else low
            interval = "initial hull" if self._initial_hull else "tightest interval"
            what = f"left the {interval} [{low}, {high}]"
        else:
            bound = float(previous[row, column])
            what = f"moved from {bound!r} while asleep"
        form = "hull validity" if self._initial_hull else "validity"
        raise ValidityViolationError(
            f"{form} violated at round {self._round_index} in row {row}: "
            f"fault-free node {node!r} reached {observed!r} and {what}",
            row=row,
            round_index=self._round_index,
            node=node,
            bound=bound,
            observed=observed,
        )


def empirical_contraction_ratios(spreads: Iterable[float]) -> list[float]:
    """Return per-round contraction ratios ``spread[t] / spread[t − 1]``.

    Rounds where the previous spread is zero are skipped (the system has
    already agreed exactly).  Used by the convergence-rate analysis and the
    E7 benchmark.
    """
    ratios: list[float] = []
    previous: float | None = None
    for value in spreads:
        if value < 0:
            raise InvalidParameterError(f"spreads must be non-negative, got {value}")
        if previous is not None and previous > 0:
            ratios.append(value / previous)
        previous = value
    return ratios
