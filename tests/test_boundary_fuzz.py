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
    verify_certificate,
)
from repro.exceptions import InvalidParameterError
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
    "greedy_seeds": (st.none() | st.integers(1, 12), NOT_POSITIVE),
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
