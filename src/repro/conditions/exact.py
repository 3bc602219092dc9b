"""Exact constraint-solving backends for the Theorem-1 violation search.

The exhaustive checkers in :mod:`repro.conditions.necessary` and
:mod:`repro.conditions.bitset` enumerate all ``2^{n-|F|}`` candidate ``L``
sets per fault set, which caps them near ``n = 24``.  This module reframes
the search as a constraint-satisfaction problem — assign each non-faulty
node one of the labels ``L``, ``R``, ``C`` so that both ``L`` and ``R`` are
non-empty *insulated* sets — and solves it with backtracking backends that
prune instead of enumerating:

* :func:`exact_violation_search` — the public entry point, returning an
  :class:`ExactSearchResult` with a verified witness, a ``satisfied``
  verdict, or ``unknown`` when the decision budget runs out.
* A built-in DPLL-style solver (``backend="dpll"``) with unit propagation on
  per-node outside-degree counters, label-domain pruning, swap-symmetry
  breaking, and a trail-based undo stack.  Always available: it runs in C
  (``solve_universe`` of :mod:`repro.conditions.search_kernel`) where this
  machine can build it, else in Python (:class:`_UniverseSolver`, also the
  oracle the C form is tested against); both make the same decisions.
* Optional SAT (``backend="pysat"``) and MILP (``backend="pulp"``) backends
  that encode the whole problem — fault selection included — as one solver
  call.  Both are gated on their third-party imports and skipped cleanly
  when the solver package is absent; see :func:`available_backends`.

Fault-set reduction
-------------------
The DPLL backend enumerates only fault sets of the single size
``k = min(f, n - 2)`` instead of all sizes ``0 … f``.  This is complete
because any witness with ``|F| = s < k`` extends to one with ``|F| = k``:
moving a node of ``C`` into ``F`` shrinks the universe, which can only
shrink the outside in-degree of the remaining ``L`` and ``R`` members, and
moving a member of ``L`` (or ``R``) into ``F`` leaves that side's outside
set unchanged while shrinking the other side's — so insulation is preserved
as long as each side keeps one member, and ``|C| + |L| - 1 + |R| - 1 =
(n - s) - 2 ≥ k - s`` nodes are movable.

Seeding on one trail
--------------------
Per fault set, the DPLL backend breaks the ``L ↔ R`` swap symmetry by
seeding pairs ``(i, j)``: nodes below ``i`` are ``C``, ``i`` is ``L``, nodes
between ``i`` and ``j`` are barred from ``R`` and ``j`` is ``R``.  The
seeding state stays on the trail from one pair to the next instead of being
rebuilt from an empty trail: only ``j := R`` is undone between two ``j``,
and only ``i := L`` between two ``i``, so seeding costs O(m²) propagation
per fault set instead of O(m³).  Unit propagation is monotone and
reaches one fixpoint whatever the order of its assignments, so each DFS
starts from the state a fresh seeding would build, and the decisions, the
fault sets examined and the first witness are those of a re-seeding loop.
``tests/test_conditions_exact.py`` keeps that loop as its oracle.

All backends are parity-tested against the bitset checker on graphs within
its cap; any witness a backend produces is re-verified with
:func:`repro.conditions.necessary.verify_witness` before being returned, so
an encoding bug can only surface as an explicit
:class:`~repro.exceptions.ConditionCheckError`, never as a bogus verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import util as _importlib_util
from itertools import combinations

from repro.conditions import search_kernel
from repro.conditions.necessary import verify_witness
from repro.conditions.search_kernel import BudgetExceeded
from repro.exceptions import (
    ConditionCheckError,
    GraphTooLargeError,
    InvalidParameterError,
)
from repro.graphs.digraph import Digraph
from repro.types import NodeId, PartitionWitness

#: Node-count cap for the exact backends.  The DPLL solver prunes far better
#: than the enumerative checkers, so its cap sits above
#: ``DEFAULT_MAX_EXACT_NODES`` (24) — but it is still worst-case exponential,
#: hence a cap at all.
DEFAULT_MAX_EXACT_BACKEND_NODES = 32

#: Default decision budget for the DPLL backend.  Exceeding it yields an
#: ``unknown`` result instead of an open-ended search.
DEFAULT_DECISION_BUDGET = 250_000

#: Backend names accepted by :func:`exact_violation_search`, in the
#: preference order used by ``backend="auto"``.
EXACT_BACKENDS = ("pysat", "pulp", "dpll")

_LABEL_L, _LABEL_R, _LABEL_C = 1, 2, 3
_DOMAIN_BIT = {_LABEL_L: 1, _LABEL_R: 2, _LABEL_C: 4}
_DOMAIN_ALL = 7
_DOMAIN_C_ONLY = 4


@dataclass(frozen=True)
class ExactSearchResult:
    """Outcome of one :func:`exact_violation_search` call.

    ``status`` is ``"violation"`` (a verified witness was found),
    ``"satisfied"`` (the search space was exhausted without one — an exact
    negative), or ``"unknown"`` (the decision budget ran out first).
    ``decisions`` counts DPLL branch points (0 for the solver backends);
    ``fault_sets_examined`` counts fully-searched fault sets.
    """

    status: str
    backend: str
    witness: PartitionWitness | None = None
    decisions: int = 0
    fault_sets_examined: int = 0
    reason: str = ""


def is_count(value: object, minimum: int) -> bool:
    """Whether ``value`` is an int ``>= minimum``; a bool is not a count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def check_count(value: object, name: str, minimum: int) -> None:
    """Raise :class:`~repro.exceptions.InvalidParameterError` naming ``name``
    unless :func:`is_count` holds for ``value``."""
    if not is_count(value, minimum):
        raise InvalidParameterError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )


def available_backends() -> tuple[str, ...]:
    """Return the usable backend names in ``auto``-preference order.

    ``"dpll"`` is always present; ``"pysat"`` and ``"pulp"`` appear only when
    the corresponding optional package is importable.  The import probe uses
    :func:`importlib.util.find_spec`, so merely listing backends never pays a
    solver start-up cost.
    """
    names: list[str] = []
    if _importlib_util.find_spec("pysat") is not None:
        names.append("pysat")
    if _importlib_util.find_spec("pulp") is not None:
        names.append("pulp")
    names.append("dpll")
    return tuple(names)


def resolve_backend(backend: str) -> str:
    """Map ``backend`` (possibly ``"auto"``) to a concrete usable backend."""
    if backend == "auto":
        return available_backends()[0]
    if backend not in EXACT_BACKENDS:
        known = ", ".join(repr(name) for name in ("auto", *EXACT_BACKENDS))
        raise InvalidParameterError(
            f"unknown exact backend {backend!r}; expected one of {known}"
        )
    if backend != "dpll" and _importlib_util.find_spec(backend) is None:
        raise InvalidParameterError(
            f"exact backend {backend!r} requires the optional package "
            f"{backend!r}, which is not installed"
        )
    return backend


class _UniverseSolver:
    """DPLL search for a violating bipartition inside one universe ``W``.

    Nodes are compact indices ``0 … m − 1``; ``in_nbrs``/``out_nbrs`` list
    each node's in-/out-neighbours *within the universe*.  A solution is an
    assignment of every node to ``L``/``R``/``C`` with non-empty ``L`` and
    ``R`` where every ``L`` node has fewer than ``tau`` in-neighbours
    assigned outside ``L``, and symmetrically for ``R``.

    The solver keeps, per node ``x``, the counters ``not_l[x]`` /
    ``not_r[x]`` (in-neighbours already assigned a label other than
    ``L``/``R``).  Crossing ``tau`` removes the corresponding label from the
    node's domain (conflict if already assigned that label); a domain
    reduced to ``{C}`` auto-assigns ``C``, cascading through the counters.
    All mutations are recorded on a trail for O(1) backtracking.
    """

    def __init__(
        self,
        in_nbrs: list[tuple[int, ...]],
        out_nbrs: list[tuple[int, ...]],
        tau: int,
        budget: dict[str, int],
    ) -> None:
        self.in_nbrs = in_nbrs
        self.out_nbrs = out_nbrs
        self.m = len(in_nbrs)
        self.tau = tau
        self.budget = budget
        self.assigned = [0] * self.m
        self.allowed = [_DOMAIN_ALL] * self.m
        self.not_l = [0] * self.m
        self.not_r = [0] * self.m

    # Trail ops: (0, x, _) assignment, (1, y, _) not_l bump, (2, y, _)
    # not_r bump, (3, x, old) domain change.
    def _undo(self, trail: list[tuple[int, int, int]], mark: int) -> None:
        """Roll state back to trail position ``mark``."""
        while len(trail) > mark:
            kind, node, payload = trail.pop()
            if kind == 0:
                self.assigned[node] = 0
            elif kind == 1:
                self.not_l[node] -= 1
            elif kind == 2:
                self.not_r[node] -= 1
            else:
                self.allowed[node] = payload

    def _restrict(
        self, node: int, bit: int, trail: list, queue: list
    ) -> bool:
        """Remove domain ``bit`` from ``node``; auto-assign ``C`` if forced.

        Returns ``False`` on conflict (the node is already assigned the
        removed label).
        """
        label = _LABEL_L if bit == 1 else _LABEL_R
        if self.assigned[node] == label:
            return False
        if self.assigned[node] == 0 and self.allowed[node] & bit:
            trail.append((3, node, self.allowed[node]))
            self.allowed[node] &= ~bit
            if self.allowed[node] == _DOMAIN_C_ONLY:
                queue.append((node, _LABEL_C))
        return True

    def assign(self, node: int, label: int, trail: list) -> bool:
        """Assign ``node := label`` and propagate; ``False`` on conflict.

        The caller is responsible for undoing the trail on failure.
        """
        queue = [(node, label)]
        while queue:
            current, value = queue.pop()
            if self.assigned[current]:
                if self.assigned[current] != value:
                    return False
                continue
            if not self.allowed[current] & _DOMAIN_BIT[value]:
                return False
            self.assigned[current] = value
            trail.append((0, current, 0))
            if value != _LABEL_L:
                for successor in self.out_nbrs[current]:
                    self.not_l[successor] += 1
                    trail.append((1, successor, 0))
                    if self.not_l[successor] == self.tau:
                        if not self._restrict(successor, 1, trail, queue):
                            return False
            if value != _LABEL_R:
                for successor in self.out_nbrs[current]:
                    self.not_r[successor] += 1
                    trail.append((2, successor, 0))
                    if self.not_r[successor] == self.tau:
                        if not self._restrict(successor, 2, trail, queue):
                            return False
        return True

    def _dfs(self, trail: list) -> bool:
        """Depth-first search over the remaining unassigned nodes."""
        pivot = -1
        for node in range(self.m):
            if not self.assigned[node]:
                pivot = node
                break
        if pivot < 0:
            return True
        self.budget["decisions"] += 1
        if self.budget["decisions"] > self.budget["limit"]:
            raise BudgetExceeded
        for label in (_LABEL_L, _LABEL_R, _LABEL_C):
            if not self.allowed[pivot] & _DOMAIN_BIT[label]:
                continue
            mark = len(trail)
            if self.assign(pivot, label, trail) and self._dfs(trail):
                return True
            self._undo(trail, mark)
        return False

    def solve(self) -> tuple[int, ...] | None:
        """Return a violating label vector, or ``None`` if none exists.

        Swap symmetry (relabelling ``L ↔ R`` preserves violations) is broken
        by seeding: ``i`` ranges over the smallest index in ``L ∪ R`` (and is
        placed in ``L``), ``j > i`` over the smallest index in ``R``; nodes
        below ``i`` are ``C`` and nodes between ``i`` and ``j`` are barred
        from ``R``.

        The seeds share one trail (see "Seeding on one trail" above):
        ``i := L`` once per ``i``; each ``j := R`` undone to its own mark,
        then ``j`` barred from ``R``; and after the ``j`` loop, ``i := L``
        undone and ``i := C`` to grow the prefix.  Each ``_dfs`` call starts
        from the fixpoint a fresh seeding of ``(i, j)`` reaches.  A conflict
        while barring ``j`` rules out every larger ``j``, and one while
        growing the prefix every larger ``i``.
        """
        if self.m < 2 or self.tau <= 0:
            return None
        trail: list[tuple[int, int, int]] = []
        for i in range(self.m - 1):
            before_left = len(trail)
            if self.assign(i, _LABEL_L, trail):
                for j in range(i + 1, self.m):
                    before_right = len(trail)
                    if self.assign(j, _LABEL_R, trail) and self._dfs(trail):
                        return tuple(self.assigned)
                    self._undo(trail, before_right)
                    queue: list[tuple[int, int]] = []
                    if not self._restrict(j, 2, trail, queue) or (
                        queue and not self.assign(j, _LABEL_C, trail)
                    ):
                        break
            self._undo(trail, before_left)
            if not self.assign(i, _LABEL_C, trail):
                return None
        return None


def _dpll_search(
    graph: Digraph,
    f: int,
    tau: int,
    decision_budget: int,
) -> ExactSearchResult:
    """Run the built-in DPLL backend over all canonical-size fault sets."""
    nodes = tuple(sorted(graph.nodes, key=repr))
    n = len(nodes)
    if n < 2:
        return ExactSearchResult(
            status="satisfied",
            backend="dpll",
            reason="fewer than two nodes: no non-empty disjoint L and R",
        )
    position_of = {node: position for position, node in enumerate(nodes)}
    global_in: list[tuple[int, ...]] = [
        tuple(
            sorted(position_of[predecessor] for predecessor in graph.in_neighbors(node))
        )
        for node in nodes
    ]
    fault_size = min(f, n - 2)
    budget = {"decisions": 0, "limit": decision_budget}
    compiled = search_kernel.kernel()
    examined = 0
    try:
        for combo in combinations(range(n), fault_size):
            fault_positions = set(combo)
            remaining = [
                position for position in range(n) if position not in fault_positions
            ]
            compact_index = {
                global_pos: local for local, global_pos in enumerate(remaining)
            }
            in_nbrs: list[tuple[int, ...]] = []
            out_nbrs: list[list[int]] = [[] for _ in remaining]
            for local, global_pos in enumerate(remaining):
                members = tuple(
                    compact_index[predecessor]
                    for predecessor in global_in[global_pos]
                    if predecessor in compact_index
                )
                in_nbrs.append(members)
                for member in members:
                    out_nbrs[member].append(local)
            if compiled is not None:
                labels = compiled.solve(out_nbrs, tau, budget)
            else:
                labels = _UniverseSolver(
                    in_nbrs, [tuple(outs) for outs in out_nbrs], tau, budget
                ).solve()
            examined += 1
            if labels is not None:
                faulty = frozenset(nodes[position] for position in combo)
                left = frozenset(
                    nodes[remaining[local]]
                    for local, label in enumerate(labels)
                    if label == _LABEL_L
                )
                right = frozenset(
                    nodes[remaining[local]]
                    for local, label in enumerate(labels)
                    if label == _LABEL_R
                )
                center = frozenset(
                    nodes[remaining[local]]
                    for local, label in enumerate(labels)
                    if label == _LABEL_C
                )
                witness = PartitionWitness(
                    faulty=faulty, left=left, center=center, right=right
                )
                return ExactSearchResult(
                    status="violation",
                    backend="dpll",
                    witness=witness,
                    decisions=budget["decisions"],
                    fault_sets_examined=examined,
                    reason=f"violating partition found: {witness.describe()}",
                )
    except BudgetExceeded:
        return ExactSearchResult(
            status="unknown",
            backend="dpll",
            decisions=budget["decisions"],
            fault_sets_examined=examined,
            reason=(
                f"decision budget {decision_budget} exhausted after "
                f"{examined} fault sets"
            ),
        )
    return ExactSearchResult(
        status="satisfied",
        backend="dpll",
        decisions=budget["decisions"],
        fault_sets_examined=examined,
        reason="all canonical fault sets searched without a violation",
    )


def _pysat_search(graph: Digraph, f: int, tau: int) -> ExactSearchResult:
    """Encode the whole violation search as one SAT call (pysat backend).

    Variables per node ``v``: ``l_v``/``r_v``/``phi_v`` for membership in
    ``L``/``R``/``F`` (mutually exclusive; ``C`` is the default), plus the
    definitional auxiliaries ``d_v ⟺ ¬l_v ∧ ¬phi_v`` (``v`` counts against
    an ``L`` member's insulation) and ``e_v ⟺ ¬r_v ∧ ¬phi_v``.  Cardinality
    constraints use sequential-counter encodings; the per-node insulation
    bound ``Σ d_u ≤ tau − 1`` is activated conditionally by adding the guard
    literal ``¬l_v`` to every clause of its encoding.
    """
    from pysat.card import CardEnc, EncType
    from pysat.formula import IDPool
    from pysat.solvers import Solver

    nodes = tuple(sorted(graph.nodes, key=repr))
    pool = IDPool()
    in_left = {node: pool.id(("l", position)) for position, node in enumerate(nodes)}
    in_right = {node: pool.id(("r", position)) for position, node in enumerate(nodes)}
    in_fault = {node: pool.id(("f", position)) for position, node in enumerate(nodes)}
    counts_vs_left = {
        node: pool.id(("d", position)) for position, node in enumerate(nodes)
    }
    counts_vs_right = {
        node: pool.id(("e", position)) for position, node in enumerate(nodes)
    }
    clauses: list[list[int]] = []
    for node in nodes:
        left, right, fault = in_left[node], in_right[node], in_fault[node]
        versus_left, versus_right = counts_vs_left[node], counts_vs_right[node]
        clauses += [[-left, -right], [-left, -fault], [-right, -fault]]
        clauses += [
            [-versus_left, -left],
            [-versus_left, -fault],
            [versus_left, left, fault],
        ]
        clauses += [
            [-versus_right, -right],
            [-versus_right, -fault],
            [versus_right, right, fault],
        ]
    clauses.append([in_left[node] for node in nodes])
    clauses.append([in_right[node] for node in nodes])
    if f == 0:
        clauses += [[-in_fault[node]] for node in nodes]
    else:
        fault_card = CardEnc.atmost(
            lits=[in_fault[node] for node in nodes],
            bound=f,
            vpool=pool,
            encoding=EncType.seqcounter,
        )
        clauses += fault_card.clauses
    for node in nodes:
        predecessors = tuple(sorted(graph.in_neighbors(node), key=repr))
        for member_var, counter_map in (
            (in_left[node], counts_vs_left),
            (in_right[node], counts_vs_right),
        ):
            counted = [counter_map[predecessor] for predecessor in predecessors]
            if len(counted) < tau:
                continue  # fewer than tau counters can never reach tau
            guard = -member_var
            if tau == 1:
                clauses += [[guard, -lit] for lit in counted]
                continue
            insulation = CardEnc.atmost(
                lits=counted, bound=tau - 1, vpool=pool, encoding=EncType.seqcounter
            )
            clauses += [clause + [guard] for clause in insulation.clauses]
    with Solver(bootstrap_with=clauses) as solver:
        if not solver.solve():
            return ExactSearchResult(
                status="satisfied",
                backend="pysat",
                reason="SAT encoding is unsatisfiable: no violating partition",
            )
        model = set(solver.get_model() or ())
    faulty = frozenset(node for node in nodes if in_fault[node] in model)
    left_set = frozenset(node for node in nodes if in_left[node] in model)
    right_set = frozenset(node for node in nodes if in_right[node] in model)
    center = frozenset(nodes) - faulty - left_set - right_set
    witness = PartitionWitness(
        faulty=faulty, left=left_set, center=center, right=right_set
    )
    return ExactSearchResult(
        status="violation",
        backend="pysat",
        witness=witness,
        reason=f"violating partition found: {witness.describe()}",
    )


def _pulp_search(graph: Digraph, f: int, tau: int) -> ExactSearchResult:
    """Encode the whole violation search as one MILP call (pulp backend).

    Binary variables mirror the SAT encoding; the conditional insulation
    bound becomes the big-M constraint
    ``Σ_{u ∈ N⁻(v)} (1 − l_u − phi_u) ≤ tau − 1 + |N⁻(v)| · (1 − l_v)``.
    """
    import pulp

    nodes = tuple(sorted(graph.nodes, key=repr))
    problem = pulp.LpProblem("theorem1_violation", pulp.LpMinimize)
    in_left = {
        node: pulp.LpVariable(f"l_{position}", cat="Binary")
        for position, node in enumerate(nodes)
    }
    in_right = {
        node: pulp.LpVariable(f"r_{position}", cat="Binary")
        for position, node in enumerate(nodes)
    }
    in_fault = {
        node: pulp.LpVariable(f"f_{position}", cat="Binary")
        for position, node in enumerate(nodes)
    }
    problem += 0  # pure feasibility problem
    for node in nodes:
        problem += in_left[node] + in_right[node] + in_fault[node] <= 1
    problem += pulp.lpSum(in_left.values()) >= 1
    problem += pulp.lpSum(in_right.values()) >= 1
    problem += pulp.lpSum(in_fault.values()) <= f
    for node in nodes:
        predecessors = tuple(sorted(graph.in_neighbors(node), key=repr))
        big_m = len(predecessors)
        if big_m < tau:
            continue  # the bound can never be exceeded
        problem += (
            pulp.lpSum(
                1 - in_left[predecessor] - in_fault[predecessor]
                for predecessor in predecessors
            )
            <= tau - 1 + big_m * (1 - in_left[node])
        )
        problem += (
            pulp.lpSum(
                1 - in_right[predecessor] - in_fault[predecessor]
                for predecessor in predecessors
            )
            <= tau - 1 + big_m * (1 - in_right[node])
        )
    status = problem.solve(pulp.PULP_CBC_CMD(msg=False))
    if status == pulp.LpStatusInfeasible:
        return ExactSearchResult(
            status="satisfied",
            backend="pulp",
            reason="MILP encoding is infeasible: no violating partition",
        )
    if status != pulp.LpStatusOptimal:
        return ExactSearchResult(
            status="unknown",
            backend="pulp",
            reason=f"MILP solver returned status {pulp.LpStatus[status]!r}",
        )

    def chosen(variable: "pulp.LpVariable") -> bool:
        value = variable.value()
        return value is not None and value > 0.5

    faulty = frozenset(node for node in nodes if chosen(in_fault[node]))
    left_set = frozenset(node for node in nodes if chosen(in_left[node]))
    right_set = frozenset(node for node in nodes if chosen(in_right[node]))
    center = frozenset(nodes) - faulty - left_set - right_set
    witness = PartitionWitness(
        faulty=faulty, left=left_set, center=center, right=right_set
    )
    return ExactSearchResult(
        status="violation",
        backend="pulp",
        witness=witness,
        reason=f"violating partition found: {witness.describe()}",
    )


def exact_violation_search(
    graph: Digraph,
    f: int,
    threshold: int | None = None,
    backend: str = "auto",
    max_nodes: int = DEFAULT_MAX_EXACT_BACKEND_NODES,
    decision_budget: int = DEFAULT_DECISION_BUDGET,
) -> ExactSearchResult:
    """Search for a Theorem-1 violating partition with an exact backend.

    ``backend`` is one of ``"auto"`` (first available of
    :data:`EXACT_BACKENDS`), ``"dpll"``, ``"pysat"`` or ``"pulp"``;
    requesting an uninstalled solver raises
    :class:`~repro.exceptions.InvalidParameterError`.  ``decision_budget``
    bounds the DPLL backend's branch points — exhausting it yields an
    ``unknown`` result rather than an open-ended search (the solver
    backends ignore it).

    Every ``"violation"`` result carries a witness that has already been
    re-verified by :func:`~repro.conditions.necessary.verify_witness`; a
    backend producing an invalid witness raises
    :class:`~repro.exceptions.ConditionCheckError` instead of returning.
    ``f``, ``decision_budget`` and a ``threshold`` other than ``None`` must
    be ints; anything else raises
    :class:`~repro.exceptions.InvalidParameterError`.
    """
    check_count(f, "f", 0)
    check_count(decision_budget, "decision_budget", 1)
    if threshold is not None and (
        isinstance(threshold, bool) or not isinstance(threshold, int)
    ):
        raise InvalidParameterError(
            f"threshold must be an integer or None, got {threshold!r}"
        )
    resolved = resolve_backend(backend)
    n = graph.number_of_nodes
    if n > max_nodes:
        raise GraphTooLargeError(n, max_nodes, checker="exact_violation_search")
    tau = f + 1 if threshold is None else threshold
    if tau <= 0 or n < 2:
        return ExactSearchResult(
            status="satisfied",
            backend=resolved,
            reason=(
                "threshold <= 0 admits no insulated set"
                if tau <= 0
                else "fewer than two nodes: no non-empty disjoint L and R"
            ),
        )
    if resolved == "pysat":
        result = _pysat_search(graph, f, tau)
    elif resolved == "pulp":
        result = _pulp_search(graph, f, tau)
    else:
        result = _dpll_search(graph, f, tau, decision_budget)
    if result.status == "violation":
        assert result.witness is not None
        if not verify_witness(graph, f, result.witness, threshold=threshold):
            raise ConditionCheckError(
                f"backend {resolved!r} produced a witness that fails "
                f"re-verification: {result.witness.describe()}"
            )
    return result
