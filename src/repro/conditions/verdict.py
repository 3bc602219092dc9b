"""Layered feasibility solver returning verdicts with checkable certificates.

:func:`check_feasibility` answers the Theorem-1 feasibility question only for
graphs small enough to enumerate exhaustively.  This module scales the
question to arbitrary sizes by stacking layers of increasing cost, each of
which can *decide* with a certificate that an independent checker can
re-verify:

1. **Screens** — the Corollary-2 count screen (``n > 3f``), the Corollary-3
   in-degree screen (``≥ 2f + 1``), the complete-graph and core-structure
   sufficient shortcuts, and a source-component screen: two strongly
   connected components with no incoming external edges are each insulated
   for any threshold ``≥ 1``, so they form a genuine violating partition
   with ``F = ∅``.  All screens are near-linear in the graph size.
2. **Exhaustive** — for graphs within the exact-checker cap, the bitset
   enumeration of :func:`repro.conditions.necessary.find_violating_partition`
   decides definitively either way.
3. **Witness search** — the greedy and randomized searches of
   :mod:`repro.conditions.witnesses`.  A found witness is promoted to an
   :class:`InfeasibilityCertificate` only after re-verification through the
   deletion-closure fixed point (:func:`verify_witness_fast`), so the layer
   can prove infeasibility at any scale but never feasibility.
4. **Exact** — the constraint-solving backends of
   :mod:`repro.conditions.exact`, which push exact decisions past the
   enumeration cap and report ``unknown`` when their budget runs out.

The resulting :class:`FeasibilityVerdict` records the status
(``FEASIBLE`` / ``INFEASIBLE`` / ``UNKNOWN``), the deciding layer, a
certificate, and per-layer wall-clock timings.  :func:`verify_certificate`
re-checks any verdict from scratch — soundness is a property the test suite
enforces, not an assumption.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.conditions.exact import (
    DEFAULT_DECISION_BUDGET,
    DEFAULT_MAX_EXACT_BACKEND_NODES,
    check_count,
    exact_violation_search,
    is_count,
    resolve_backend,
)
from repro.conditions.necessary import (
    DEFAULT_MAX_EXACT_NODES,
    find_core_clique,
    find_violating_partition,
    passes_count_screen,
    passes_in_degree_screen,
)
from repro.conditions.witnesses import (
    greedy_witness_search,
    random_witness_search,
    verify_witness_fast,
)
from repro.graphs.digraph import Digraph
from repro.graphs.properties import (
    is_complete,
    minimum_in_degree,
    strongly_connected_components,
)
from repro.types import PartitionWitness

#: Verdict statuses, in the order they are preferred by the layer stack.
FEASIBLE = "FEASIBLE"
INFEASIBLE = "INFEASIBLE"
UNKNOWN = "UNKNOWN"

#: Default attempt budget for the randomized witness layer.
DEFAULT_WITNESS_ATTEMPTS = 200

#: Seed cap for the greedy witness layer on large graphs.  Greedy search
#: costs one closure sweep per (seed, fault-prefix) pair, so running every
#: node as a seed is quadratic-plus at n = 1000; the evenly-strided cap
#: keeps the layer near-linear while still covering the graph.
DEFAULT_GREEDY_SEED_CAP = 64

#: Layer names, in execution order, as they appear in per-layer timings.
VERDICT_LAYERS = ("screens", "exhaustive", "witness-search", "exact")


@dataclass(frozen=True)
class LayerTiming:
    """Wall-clock record for one layer of the verdict stack.

    ``outcome`` is ``"decided"`` when the layer produced the final verdict
    and ``"no-decision"`` when it ran but passed the question on.
    """

    layer: str
    seconds: float
    outcome: str


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Machine-checkable evidence that a graph fails the Theorem-1 condition.

    ``kind`` is one of ``"count-screen"`` (``n ≤ 3f``, Corollary 2),
    ``"in-degree-screen"`` (a node with in-degree ``< 2f + 1``, Corollary 3)
    or ``"witness"`` (an explicit violating partition).  ``witness`` is
    mandatory for the ``"witness"`` kind; ``details`` records provenance
    (which layer or backend produced the evidence) and the screen
    quantities needed to re-check it.
    """

    kind: str
    witness: PartitionWitness | None = None
    details: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class FeasibilityCertificate:
    """Machine-checkable evidence that a graph satisfies the condition.

    ``kind`` is one of ``"complete-graph"`` (complete with ``n > 3f``),
    ``"core-structure"`` (a Definition-4 core of ``2f + 1`` hubs, carried in
    ``core``), ``"exhaustive"`` (the enumeration found no violation) or
    ``"exact"`` (a constraint backend exhausted the search space).  The two
    search kinds are re-checked by re-running the bounded search; the two
    structural kinds are re-checked directly from the graph.
    """

    kind: str
    core: frozenset | None = None
    details: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of the layered solver: status, certificate and timings.

    ``decided_by`` names the layer that settled the question (``None`` for
    ``UNKNOWN``); ``certificate`` is an
    :class:`InfeasibilityCertificate`/:class:`FeasibilityCertificate`
    matching the status, and is always ``None`` exactly when the status is
    ``UNKNOWN``.  ``timings`` lists one :class:`LayerTiming` per layer that
    actually ran, in execution order.
    """

    status: str
    f: int
    certificate: InfeasibilityCertificate | FeasibilityCertificate | None
    timings: tuple[LayerTiming, ...]
    decided_by: str | None
    reason: str

    def describe(self) -> str:
        """Return a one-line human-readable summary of the verdict."""
        layer = self.decided_by or "none"
        total = sum(timing.seconds for timing in self.timings)
        return (
            f"{self.status} (f = {self.f}, decided by {layer}, "
            f"{total * 1000:.1f} ms): {self.reason}"
        )


def find_source_component_witness(graph: Digraph) -> PartitionWitness | None:
    """Return the violating partition implied by two source components.

    A *source component* is a strongly connected component with no incoming
    edge from outside itself.  Each is insulated for any threshold ``≥ 1``
    (its members receive zero values from outside), so two of them form a
    genuine witness with ``F = ∅``: ``L`` and ``R`` are the first two source
    components in canonical order, ``C`` is everything else.  Returns
    ``None`` when fewer than two source components exist — in particular
    for every strongly connected graph.
    """
    components = strongly_connected_components(graph)
    if len(components) < 2:
        return None
    membership = {
        node: position
        for position, component in enumerate(components)
        for node in component
    }
    has_external_in = [False] * len(components)
    for source, target in graph.edges:
        if membership[source] != membership[target]:
            has_external_in[membership[target]] = True
    sources = [
        component
        for position, component in enumerate(components)
        if not has_external_in[position]
    ]
    if len(sources) < 2:
        return None
    left, right = sources[0], sources[1]
    center = frozenset(graph.nodes) - left - right
    return PartitionWitness(
        faulty=frozenset(), left=left, center=center, right=right
    )


#: A layer's decision: ``(status, certificate, reason)``; ``None`` = undecided.
LayerDecision = tuple[
    str, InfeasibilityCertificate | FeasibilityCertificate, str
]


def _screen_layer(graph: Digraph, f: int) -> LayerDecision | None:
    """Run the constant-factor screens; return (status, certificate, reason)."""
    n = graph.number_of_nodes
    if not passes_count_screen(n, f):
        certificate = InfeasibilityCertificate(
            kind="count-screen", details={"n": n, "f": f}
        )
        return INFEASIBLE, certificate, f"n = {n} does not exceed 3f = {3 * f}"
    if not passes_in_degree_screen(graph, f):
        minimum = minimum_in_degree(graph)
        certificate = InfeasibilityCertificate(
            kind="in-degree-screen",
            details={"minimum_in_degree": minimum, "required": 2 * f + 1},
        )
        return (
            INFEASIBLE,
            certificate,
            f"minimum in-degree {minimum} is below 2f + 1 = {2 * f + 1}",
        )
    if is_complete(graph):
        certificate = FeasibilityCertificate(
            kind="complete-graph", details={"n": n}
        )
        return FEASIBLE, certificate, f"complete graph with n = {n} > 3f"
    if f > 0:
        core = find_core_clique(graph, f)
        if core is not None:
            certificate = FeasibilityCertificate(kind="core-structure", core=core)
            return (
                FEASIBLE,
                certificate,
                f"core structure of {len(core)} hubs (Definition 4)",
            )
    witness = find_source_component_witness(graph)
    if witness is not None:
        certificate = InfeasibilityCertificate(
            kind="witness",
            witness=witness,
            details={"source": "source-components"},
        )
        return (
            INFEASIBLE,
            certificate,
            "two source components are simultaneously insulated",
        )
    return None


def feasibility_verdict(
    graph: Digraph,
    f: int,
    max_exhaustive_nodes: int = DEFAULT_MAX_EXACT_NODES,
    max_exact_nodes: int = DEFAULT_MAX_EXACT_BACKEND_NODES,
    witness_attempts: int = DEFAULT_WITNESS_ATTEMPTS,
    greedy_seeds: int | None = None,
    rng: int = 0,
    use_exact: bool = True,
    exact_backend: str = "dpll",
    decision_budget: int = DEFAULT_DECISION_BUDGET,
) -> FeasibilityVerdict:
    """Decide Theorem-1 feasibility with the layered certificate stack.

    Layers run in fixed order — screens, exhaustive enumeration (only when
    ``n ≤ max_exhaustive_nodes``), greedy + randomized witness search, and
    the exact constraint backend (only when ``use_exact`` and
    ``n ≤ max_exact_nodes``) — and the first decision wins.  Every decided
    verdict carries a certificate that :func:`verify_certificate` accepts;
    when no layer decides, the status is ``UNKNOWN`` with no certificate.

    ``witness_attempts`` and ``rng`` parameterize the randomized search;
    ``greedy_seeds`` caps the greedy layer's seed count (default: every
    node up to :data:`DEFAULT_GREEDY_SEED_CAP`, evenly strided beyond);
    ``exact_backend`` and ``decision_budget`` are forwarded to
    :func:`repro.conditions.exact.exact_violation_search`.

    Every parameter is checked up front, whichever layer would decide: a
    negative ``f``, cap or ``rng``, a budget, attempt or seed count below 1,
    a non-int count, or — when ``use_exact`` is set — an unknown or
    uninstalled ``exact_backend`` raises
    :class:`~repro.exceptions.InvalidParameterError` naming the parameter.
    """
    check_count(f, "f", 0)
    check_count(max_exhaustive_nodes, "max_exhaustive_nodes", 0)
    check_count(max_exact_nodes, "max_exact_nodes", 0)
    check_count(witness_attempts, "witness_attempts", 1)
    if greedy_seeds is not None:
        check_count(greedy_seeds, "greedy_seeds", 1)
    check_count(rng, "rng", 0)
    check_count(decision_budget, "decision_budget", 1)
    if use_exact:
        resolve_backend(exact_backend)
    n = graph.number_of_nodes
    timings: list[LayerTiming] = []

    def run_layer(
        name: str, action: Callable[[], LayerDecision | None]
    ) -> LayerDecision | None:
        """Time one layer; record the timing and return its decision."""
        start = time.perf_counter()
        decision = action()
        elapsed = time.perf_counter() - start
        timings.append(
            LayerTiming(
                layer=name,
                seconds=elapsed,
                outcome="decided" if decision is not None else "no-decision",
            )
        )
        return decision

    decision = run_layer("screens", lambda: _screen_layer(graph, f))
    if decision is None and n <= max_exhaustive_nodes:

        def exhaustive() -> LayerDecision:
            """Run the definitive enumeration within its node cap."""
            found = find_violating_partition(graph, f, max_nodes=max_exhaustive_nodes)
            if found is None:
                certificate = FeasibilityCertificate(
                    kind="exhaustive",
                    details={"method": "bitset", "max_nodes": max_exhaustive_nodes},
                )
                return FEASIBLE, certificate, "exhaustive search found no violation"
            certificate = InfeasibilityCertificate(
                kind="witness", witness=found, details={"source": "exhaustive"}
            )
            return INFEASIBLE, certificate, "exhaustive search found a violation"

        decision = run_layer("exhaustive", exhaustive)
    if decision is None and n >= 2:

        def witness_search() -> LayerDecision | None:
            """Promote a heuristic witness to a verified certificate."""
            seed_cap = (
                min(n, DEFAULT_GREEDY_SEED_CAP)
                if greedy_seeds is None
                else greedy_seeds
            )
            found = greedy_witness_search(graph, f, max_seeds=seed_cap)
            source = "greedy"
            if found is None:
                found = random_witness_search(
                    graph, f, attempts=witness_attempts, rng=rng
                )
                source = "random"
            if found is None:
                return None
            if not verify_witness_fast(graph, f, found):
                return None  # never certify an unverified witness
            certificate = InfeasibilityCertificate(
                kind="witness", witness=found, details={"source": source}
            )
            return (
                INFEASIBLE,
                certificate,
                f"{source} search found a verified violating partition",
            )

        decision = run_layer("witness-search", witness_search)
    if (
        decision is None
        and use_exact
        and n <= max_exact_nodes
        and n > max_exhaustive_nodes
    ):

        def exact() -> LayerDecision | None:
            """Push past the enumeration cap with a constraint backend."""
            result = exact_violation_search(
                graph,
                f,
                backend=exact_backend,
                max_nodes=max_exact_nodes,
                decision_budget=decision_budget,
            )
            if result.status == "violation":
                certificate = InfeasibilityCertificate(
                    kind="witness",
                    witness=result.witness,
                    details={"source": result.backend},
                )
                return (
                    INFEASIBLE,
                    certificate,
                    f"{result.backend} backend found a violation",
                )
            if result.status == "satisfied":
                certificate = FeasibilityCertificate(
                    kind="exact",
                    details={
                        "backend": result.backend,
                        "decision_budget": decision_budget,
                        "fault_sets_examined": result.fault_sets_examined,
                    },
                )
                return (
                    FEASIBLE,
                    certificate,
                    f"{result.backend} backend exhausted the search space",
                )
            return None  # budget ran out: stay undecided

        decision = run_layer("exact", exact)
    if decision is None:
        return FeasibilityVerdict(
            status=UNKNOWN,
            f=f,
            certificate=None,
            timings=tuple(timings),
            decided_by=None,
            reason=(
                f"no layer decided: n = {n} exceeds the exact caps and no "
                f"witness was found in {witness_attempts} attempts"
            ),
        )
    status, certificate, reason = decision
    return FeasibilityVerdict(
        status=status,
        f=f,
        certificate=certificate,
        timings=tuple(timings),
        decided_by=timings[-1].layer,
        reason=reason,
    )


def _verify_infeasibility(
    graph: Digraph, f: int, certificate: InfeasibilityCertificate
) -> bool:
    """Re-check an infeasibility certificate from scratch."""
    if certificate.kind == "count-screen":
        return not passes_count_screen(graph.number_of_nodes, f)
    if certificate.kind == "in-degree-screen":
        return not passes_in_degree_screen(graph, f)
    if certificate.kind == "witness":
        if certificate.witness is None:
            return False
        return verify_witness_fast(graph, f, certificate.witness)
    return False


def _verify_feasibility(
    graph: Digraph, f: int, certificate: FeasibilityCertificate
) -> bool:
    """Re-check a feasibility certificate from scratch."""
    n = graph.number_of_nodes
    if certificate.kind == "complete-graph":
        return is_complete(graph) and passes_count_screen(n, f)
    if certificate.kind == "core-structure":
        core = certificate.core
        if core is None or len(core) != 2 * f + 1 or f < 1:
            return False
        if not passes_count_screen(n, f):
            return False
        if not core <= graph.nodes:
            return False
        return all(
            graph.has_edge(hub, other) and graph.has_edge(other, hub)
            for hub in core
            for other in graph.nodes
            if other != hub
        )
    if certificate.kind == "exhaustive":
        cap = certificate.details.get("max_nodes", DEFAULT_MAX_EXACT_NODES)
        if not is_count(cap, n):
            return False
        return find_violating_partition(graph, f, max_nodes=cap) is None
    if certificate.kind == "exact":
        budget = certificate.details.get("decision_budget", DEFAULT_DECISION_BUDGET)
        if not is_count(budget, 1):
            return False
        result = exact_violation_search(
            graph, f, backend="dpll", max_nodes=n, decision_budget=budget
        )
        return result.status == "satisfied"
    return False


def verify_certificate(graph: Digraph, f: int, verdict: FeasibilityVerdict) -> bool:
    """Re-check a verdict's certificate independently of the solver run.

    Returns ``True`` exactly when the verdict is *sound*: an ``UNKNOWN``
    verdict carries no certificate, an ``INFEASIBLE`` verdict carries an
    :class:`InfeasibilityCertificate` whose evidence re-checks against the
    graph (screen inequalities recomputed, witnesses re-verified through the
    deletion-closure fixed point), and a ``FEASIBLE`` verdict carries a
    :class:`FeasibilityCertificate` whose structure re-checks (or whose
    bounded search, re-run, still finds no violation).  A malformed
    certificate — a search bound in ``details`` that is not a usable int,
    say — is unsound, so it returns ``False`` rather than raising.
    """
    check_count(f, "f", 0)
    if verdict.status == UNKNOWN:
        return verdict.certificate is None
    if verdict.status == INFEASIBLE:
        if not isinstance(verdict.certificate, InfeasibilityCertificate):
            return False
        return _verify_infeasibility(graph, f, verdict.certificate)
    if verdict.status == FEASIBLE:
        if not isinstance(verdict.certificate, FeasibilityCertificate):
            return False
        return _verify_feasibility(graph, f, verdict.certificate)
    return False
