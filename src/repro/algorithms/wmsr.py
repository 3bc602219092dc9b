"""The W-MSR update rule (Weighted Mean-Subsequence-Reduced).

W-MSR is the rule studied by LeBlanc, Zhang, Sundaram and Koutsoukos in the
companion line of work the paper cites ([11], [17], [18]).  It differs from
the paper's Algorithm 1 in *how* values are discarded:

* Algorithm 1 removes the ``f`` smallest and ``f`` largest received values
  unconditionally;
* W-MSR removes at most ``f`` received values that are **strictly larger**
  than the node's own value (the largest ones) and at most ``f`` received
  values that are **strictly smaller** than the node's own value (the
  smallest ones) — if fewer than ``f`` received values lie on a given side,
  only those are removed.

Both rules are safe under ``f`` Byzantine neighbours; the library implements
W-MSR so the algorithm-ablation benchmark (E12) and the robustness comparison
(E11) can contrast the two on the paper's graph families.
"""

from __future__ import annotations

from typing import Sequence

from repro.algorithms.base import UpdateRule, mean_in_order, sort_received
from repro.types import NodeId, ReceivedValue


class WMSRRule(UpdateRule):
    """The W-MSR rule with equal weights over the surviving values.

    After discarding (at most ``f`` per side, relative to the node's own
    value), the new state is the equal-weight average of the survivors and
    the node's own value.
    """

    name = "W-MSR"

    def surviving_values(
        self, node: NodeId, own_value: float, received: Sequence[ReceivedValue]
    ) -> list[ReceivedValue]:
        """Return the received values that survive W-MSR's relative trimming."""
        ordered = sort_received(received)
        if self.f == 0:
            return ordered
        smaller = [item for item in ordered if item.value < own_value]
        larger = [item for item in ordered if item.value > own_value]
        equal = [item for item in ordered if item.value == own_value]
        drop_small = min(self.f, len(smaller))
        drop_large = min(self.f, len(larger))
        kept_small = smaller[drop_small:]
        kept_large = larger[: len(larger) - drop_large] if drop_large else larger
        return kept_small + equal + kept_large

    def compute(
        self,
        node: NodeId,
        own_value: float,
        received: Sequence[ReceivedValue],
    ) -> float:
        survivors = self.surviving_values(node, own_value, received)
        values = [own_value] + [item.value for item in survivors]
        return mean_in_order(values)
