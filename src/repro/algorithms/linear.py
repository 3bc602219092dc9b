"""Non-fault-tolerant baselines: plain linear averaging and median updates.

These rules correspond to the extensively studied ``f = 0`` iterative
consensus algorithms the paper's introduction refers to (Bertsekas &
Tsitsiklis [4]).  They are used as baselines in the algorithm-ablation
experiment (E12): under Byzantine behaviour the plain average is dragged
outside the fault-free input hull (violating validity), whereas the median is
more robust but still lacks the paper's guarantees on general digraphs.
"""

from __future__ import annotations

from typing import Sequence

from repro.algorithms.base import UpdateRule, mean_in_order, sort_received
from repro.types import NodeId, ReceivedValue


class LinearAverageRule(UpdateRule):
    """Equal-weight average of the node's own value and *all* received values.

    With ``f = 0`` this is the classic distributed-averaging iteration; it has
    no fault tolerance whatsoever — a single Byzantine in-neighbour can
    violate validity and prevent convergence.
    """

    name = "linear-average"

    def weight_floor(self, in_degree: int) -> float:
        return 1.0 / (in_degree + 1)

    def compute(
        self,
        node: NodeId,
        own_value: float,
        received: Sequence[ReceivedValue],
    ) -> float:
        values = [own_value] + [item.value for item in received]
        return mean_in_order(values)


class MedianRule(UpdateRule):
    """Median of the node's own value and all received values.

    The median tolerates outliers better than the mean but, unlike
    Algorithm 1, it does not use the fault budget ``f`` and provides no
    general convergence guarantee on directed graphs; it serves as an
    intermediate baseline in the ablation.
    """

    name = "median"

    def compute(
        self,
        node: NodeId,
        own_value: float,
        received: Sequence[ReceivedValue],
    ) -> float:
        ordered = [item.value for item in sort_received(received)]
        values = sorted(ordered + [own_value])
        count = len(values)
        middle = count // 2
        if count % 2 == 1:
            return values[middle]
        return (values[middle - 1] + values[middle]) / 2.0
