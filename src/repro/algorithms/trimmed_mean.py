"""Algorithm 1 of the paper: the equal-weight trimmed-mean update.

At every iteration each node ``i``:

1. transmits its current state on all outgoing edges,
2. receives one value per incoming edge (the vector ``r_i[t]``),
3. sorts the received values, eliminates the ``f`` smallest and the ``f``
   largest (ties broken deterministically), and
4. sets its new state to the equal-weight average of the surviving received
   values together with its own previous state:

   ``v_i[t] = Σ_{j ∈ {i} ∪ N*_i[t]} a_i · w_j`` with
   ``a_i = 1 / (|N⁻_i| + 1 − 2f)``.

The weight floor ``a_i`` (and its graph-wide minimum ``α``, eq. 3) drives the
convergence-rate bound of Lemma 5, so the rule exposes it via
:meth:`TrimmedMeanRule.weight_floor`.
"""

from __future__ import annotations

from typing import Sequence

from repro.algorithms.base import UpdateRule, mean_in_order, sort_received
from repro.exceptions import AlgorithmPreconditionError
from repro.types import NodeId, ReceivedValue


class TrimmedMeanRule(UpdateRule):
    """The paper's Algorithm 1 (equal-weight trimmed mean).

    Parameters
    ----------
    f:
        Fault budget: the number of extreme values removed from each end of
        the sorted received vector.

    Notes
    -----
    The rule is well defined only when ``|N⁻_i| ≥ 2f`` (otherwise trimming
    would remove more values than were received); Corollary 3 shows
    ``|N⁻_i| ≥ 2f + 1`` is necessary for correctness, and the feasibility
    checkers enforce the stronger bound — the rule itself only requires
    definedness.
    """

    name = "trimmed-mean (Algorithm 1)"

    def minimum_in_degree(self) -> int:
        return 2 * self.f

    def weight_floor(self, in_degree: int) -> float:
        """Return ``a_i = 1 / (|N⁻_i| + 1 − 2f)`` for a node of this in-degree."""
        denominator = in_degree + 1 - 2 * self.f
        if denominator < 1:
            raise AlgorithmPreconditionError(
                f"{self.name!r} with f = {self.f} is undefined at in-degree "
                f"{in_degree}: fewer than 2f values would remain after trimming"
            )
        return 1.0 / denominator

    def surviving_values(
        self, node: NodeId, received: Sequence[ReceivedValue]
    ) -> list[ReceivedValue]:
        """Return ``N*_i[t]``'s values: the received vector with the ``f``
        smallest and ``f`` largest entries removed (step 3 of Algorithm 1)."""
        if len(received) < 2 * self.f:
            raise AlgorithmPreconditionError(
                f"node {node!r} received {len(received)} values but "
                f"2f = {2 * self.f} must be trimmed"
            )
        ordered = sort_received(received)
        if self.f == 0:
            return ordered
        return ordered[self.f : len(ordered) - self.f]

    def compute(
        self,
        node: NodeId,
        own_value: float,
        received: Sequence[ReceivedValue],
    ) -> float:
        survivors = self.surviving_values(node, received)
        values = [own_value] + [item.value for item in survivors]
        # Equal weights a_i = 1 / (|N⁻_i| + 1 − 2f); len(values) equals that
        # denominator exactly, so the plain mean implements eq. (2).
        return mean_in_order(values)


class TrimmedMidpointRule(UpdateRule):
    """A classic Dolev-style variant: trim ``f`` from each end, then move to
    the midpoint of the surviving values' range (including the node's own
    value).

    This rule satisfies the output constraint and validity but is *not* the
    paper's Algorithm 1 — it has no positive weight floor on every surviving
    neighbour, so the Lemma-5 analysis does not apply to it directly.  It is
    included for the algorithm-ablation experiment (E12).
    """

    name = "trimmed-midpoint"

    def minimum_in_degree(self) -> int:
        return 2 * self.f

    def compute(
        self,
        node: NodeId,
        own_value: float,
        received: Sequence[ReceivedValue],
    ) -> float:
        if len(received) < 2 * self.f:
            raise AlgorithmPreconditionError(
                f"node {node!r} received {len(received)} values but "
                f"2f = {2 * self.f} must be trimmed"
            )
        ordered = sort_received(received)
        survivors = ordered if self.f == 0 else ordered[self.f : len(ordered) - self.f]
        values = [own_value] + [item.value for item in survivors]
        return (min(values) + max(values)) / 2.0
