"""Property tests that fuzz the library's input boundaries with Hypothesis.

A boundary must answer every input with a correct value or a documented
exception (a :class:`~repro.exceptions.ReproError`), never a bare
``TypeError``, ``KeyError`` or ``ValueError``.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conditions import (
    FEASIBLE,
    INFEASIBLE,
    UNKNOWN,
    FeasibilityCertificate,
    exact_violation_search,
    feasibility_verdict,
    find_violating_partition,
    search_kernel,
    verify_certificate,
)
from repro.conditions.bitset import _search_fault_set
from repro.conditions.exact import _UniverseSolver
from repro.conditions.search_kernel import BudgetExceeded
from repro.exceptions import InvalidParameterError, SelfLoopError
from repro.graphs import Digraph
from repro.sweeps.grid import apply_overrides
from repro.sweeps.registry import all_experiments

EXPERIMENTS = all_experiments()

#: Override tokens at the edges of the three axis kinds: JSON literals,
#: containers, quoted numbers, non-finite and out-of-range numbers, deep
#: nesting and digit strings past the int-conversion limit.
EDGE_TOKENS = (
    "true",
    "false",
    "null",
    "[1]",
    '{"a": 1}',
    '"5"',
    "NaN",
    "Infinity",
    "-Infinity",
    "1e400",
    "-1",
    "0",
    "1e2",
    "1.5",
    "-0.0",
    "9" * 400,
    "9" * 5000,
    "[" * 2000,
)

TOKENS = st.one_of(
    st.sampled_from(EDGE_TOKENS),
    st.integers().map(str),
    st.floats().map(json.dumps),
    st.text(),
)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(EXPERIMENTS)), data=st.data())
def test_grid_override_takes_the_axis_kind_or_is_refused(name, data):
    spec = EXPERIMENTS[name]
    extra = ("seed",) if spec.accepts_seed else ()
    key = data.draw(st.sampled_from([*spec.grid, *extra]) | st.text(), label="key")
    tokens = data.draw(st.lists(TOKENS, min_size=1, max_size=4), label="tokens")
    try:
        merged = apply_overrides(
            spec.grid, [f"{key}={','.join(tokens)}"], extra_allowed=extra
        )
    except InvalidParameterError:
        return
    for axis, values in merged.items():
        kind = type(spec.grid[axis][0]) if axis in spec.grid else int
        assert values and all(type(value) is kind for value in values), axis
        if kind is float:
            assert all(math.isfinite(value) for value in values), axis
    assert all(seed >= 0 for seed in merged.get("seed", ()))


@st.composite
def digraphs(draw, max_nodes=10):
    """A digraph on ``2 … max_nodes`` nodes with any set of edges."""
    n = draw(st.integers(2, max_nodes), label="n")
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, keep in zip(pairs, kept) if keep]
    return Digraph(nodes=range(n), edges=edges)


#: Values no count parameter accepts: wrong types, bools and non-integral
#: numbers (the negative and zero ints are drawn per parameter).
NOT_COUNTS = st.sampled_from([None, True, False, 1.5, 2.0, "3", float("nan")])

#: ``feasibility_verdict`` keyword -> (in-range values, out-of-range values).
#: The in-range exhaustive cap covers every drawn graph, so an in-range call
#: must decide.
NEGATIVE = st.integers(max_value=-1) | NOT_COUNTS
NOT_POSITIVE = st.integers(max_value=0) | NOT_COUNTS
VERDICT_PARAMETERS = {
    "max_exhaustive_nodes": (st.integers(10, 24), NEGATIVE),
    "max_exact_nodes": (st.integers(0, 32), NEGATIVE),
    "witness_attempts": (st.integers(1, 30), NOT_POSITIVE),
    # None is greedy_seeds' default ("every seed"), so it is not refused.
    "greedy_seeds": (
        st.none() | st.integers(1, 12),
        NOT_POSITIVE.filter(lambda value: value is not None),
    ),
    "rng": (st.integers(0, 2**64), NEGATIVE),
    "decision_budget": (st.integers(1, 10**6), NOT_POSITIVE),
}


@settings(max_examples=200, deadline=None)
@given(
    graph=digraphs(),
    f=st.integers(-2, 4),
    use_exact=st.booleans(),
    backend=st.sampled_from(["dpll", "auto", "z3", ""]),
    data=st.data(),
)
def test_feasibility_verdict_checks_every_parameter_up_front(
    graph, f, use_exact, backend, data
):
    keywords = {}
    bad = f < 0 or (use_exact and backend not in ("dpll", "auto"))
    for name, (in_range, out_of_range) in VERDICT_PARAMETERS.items():
        out = data.draw(st.booleans(), label=f"{name} out of range")
        keywords[name] = data.draw(out_of_range if out else in_range, label=name)
        bad = bad or out
    call = partial(
        feasibility_verdict,
        graph,
        f,
        use_exact=use_exact,
        exact_backend=backend,
        **keywords,
    )
    if bad:
        with pytest.raises(InvalidParameterError):
            call()
        return
    verdict = call()
    assert verdict.status != UNKNOWN
    violated = find_violating_partition(graph, f) is not None
    assert verdict.status == (INFEASIBLE if violated else FEASIBLE)
    assert verify_certificate(graph, f, verdict)


#: The ``details`` keys of the two search certificates.
SEARCH_DETAILS = {
    "exhaustive": ("method", "max_nodes"),
    "exact": ("backend", "decision_budget", "fault_sets_examined"),
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(
    graph=digraphs(max_nodes=9),
    f=st.integers(0, 3),
    search_kind=st.sampled_from([None, "exhaustive", "exact"]),
    data=st.data(),
)
def test_verify_certificate_answers_a_bool_for_any_details(
    graph, f, search_kind, data
):
    # Either the stack's own verdict, or a search certificate claiming
    # feasibility as the exhaustive or exact layer would produce it.
    verdict = feasibility_verdict(graph, f)
    if search_kind is not None:
        keys = SEARCH_DETAILS[search_kind]
        verdict = replace(
            verdict,
            status=FEASIBLE,
            certificate=FeasibilityCertificate(
                search_kind, details=dict.fromkeys(keys)
            ),
        )
    certificate = verdict.certificate
    details = {key: data.draw(JSON_VALUES, label=key) for key in certificate.details}
    tampered = replace(verdict, certificate=replace(certificate, details=details))
    accepted = verify_certificate(graph, f, tampered)
    assert type(accepted) is bool
    if accepted:  # whatever the details say, an accepted verdict is sound
        violated = find_violating_partition(graph, f) is not None
        assert tampered.status == (INFEASIBLE if violated else FEASIBLE)


@settings(max_examples=200, deadline=None)
@given(
    graph=digraphs(max_nodes=9),
    f=st.integers(0, 3),
    threshold=st.none() | st.integers(-2, 6) | NOT_COUNTS,
    budget=st.integers(-2, 5_000) | NOT_COUNTS,
)
def test_exact_search_agrees_with_enumeration_or_refuses(graph, f, threshold, budget):
    valid = (
        threshold is None or type(threshold) is int
    ) and type(budget) is int and budget >= 1
    try:
        result = exact_violation_search(
            graph, f, threshold, backend="dpll", decision_budget=budget
        )
    except InvalidParameterError:
        assert not valid
        return
    assert valid
    if result.status != "unknown":
        expected = find_violating_partition(graph, f, threshold=threshold)
        assert (result.status == "violation") == (expected is not None)


def compiled_search():
    """The compiled Theorem-1 search, or a skip naming why there is none."""
    compiled = search_kernel.kernel()
    if compiled is None:
        pytest.skip(search_kernel.status())
    return compiled


@st.composite
def sweep_cases(draw):
    """In-neighbour words of 1–16 surviving nodes (each word empty, full or
    any subset) and a threshold from −1 to 70."""
    count = draw(st.integers(1, 16), label="count")
    full = (1 << count) - 1
    word = st.sampled_from([0, full]) | st.integers(0, full)
    words = draw(st.lists(word, min_size=count, max_size=count), label="words")
    return words, draw(st.integers(-1, 70), label="threshold")


@settings(max_examples=200, deadline=None)
@given(case=sweep_cases())
def test_compiled_sweep_returns_the_numpy_sweeps_pair(case):
    compiled = compiled_search()
    words, threshold = case
    expected = _search_fault_set(np.array(words, dtype=np.uint64), len(words), threshold)
    assert compiled.sweep(words, threshold) == expected


@st.composite
def universes(draw):
    """Out-neighbour lists of 0–9 nodes, each list in a drawn order."""
    m = draw(st.integers(0, 9), label="m")
    out_nbrs = []
    for node in range(m):
        others = [other for other in range(m) if other != node]
        kept = draw(st.lists(st.sampled_from(others), unique=True) if others else st.just([]))
        out_nbrs.append(kept)
    return out_nbrs


@settings(max_examples=300, deadline=None)
@given(
    out_nbrs=universes(),
    tau=st.integers(-1, 11) | st.just(2**64),
    limit=st.integers(1, 10**4) | st.sampled_from([2**63, 2**64 + 7]),
    made=st.integers(0, 40),
)
def test_compiled_solver_makes_the_python_solvers_search(out_nbrs, tau, limit, made):
    compiled = compiled_search()
    m = len(out_nbrs)
    in_nbrs = [tuple(x for x in range(m) if y in out_nbrs[x]) for y in range(m)]
    outcomes = []
    for solve in (
        lambda budget: _UniverseSolver(
            in_nbrs, [tuple(outs) for outs in out_nbrs], tau, budget
        ).solve(),
        lambda budget: compiled.solve(out_nbrs, tau, budget),
    ):
        budget = {"decisions": made, "limit": limit}
        try:
            outcomes.append((solve(budget), budget["decisions"], False))
        except BudgetExceeded:
            outcomes.append((None, budget["decisions"], True))
    assert outcomes[1] == outcomes[0]


#: Element types of the edge-array fuzzer: only the integer ones are legal.
EDGE_DTYPES = (np.int64, np.int32, np.uint8, np.uint64, np.float64, np.bool_)


@st.composite
def edge_arrays(draw):
    """A 1-D or 2-D array of small values (negative ones wrap for uints)."""
    dtype = draw(st.sampled_from(EDGE_DTYPES), label="dtype")
    length = draw(st.integers(0, 8), label="length")
    values = draw(st.lists(st.integers(-2, 9), min_size=length, max_size=length))
    array = np.array(values, dtype=np.int64).astype(dtype)
    if draw(st.booleans()) and length % 2 == 0:
        array = array.reshape(2, -1)
    return array


def edge_array_defect(n, sources, targets):
    """Why ``from_edge_arrays`` must refuse the operands, or ``None``."""
    if type(n) is not int or n < 0:
        return "n"
    for array in (sources, targets):
        if array.ndim != 1:
            return "shape"
        if array.size and array.dtype.kind not in "iu":
            return "dtype"
        if array.size and not (array.min() >= 0 and array.max() < n):
            return "range"
    if sources.size != targets.size:
        return "length"
    return None


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(-1, 9) | st.sampled_from([True, 3.0, None, "4"]),
    sources=edge_arrays(),
    targets=edge_arrays(),
)
def test_edge_arrays_build_the_per_edge_graph_or_are_refused(n, sources, targets):
    defect = edge_array_defect(n, sources, targets)
    loops = [s for s, t in zip(sources.tolist(), targets.tolist()) if s == t]
    try:
        graph = Digraph.from_edge_arrays(n, sources, targets)
    except InvalidParameterError:
        assert defect is not None
        return
    except SelfLoopError as error:
        assert defect is None and loops
        assert f"node {loops[0]!r} " in str(error)
        return
    assert defect is None and not loops
    expected = Digraph(nodes=range(n), edges=zip(sources.tolist(), targets.tolist()))
    assert graph.number_of_edges == expected.number_of_edges
    assert [graph.in_degree(v) for v in range(n)] == [
        expected.in_degree(v) for v in range(n)
    ]
    assert graph == expected
