"""The compiled Theorem-1 search against the NumPy sweep and the Python
solver, and its loader.

``find_violating_partition_bitset`` and the ``dpll`` backend run
``search_kernel.c`` (:mod:`repro.conditions.search_kernel`) where this
machine can build it, else the NumPy sweep ``_search_fault_set`` and the
Python ``_UniverseSolver``.  These tests pin:

* **Build** — the library builds where a compiler exists, through its own
  cache file, and importing the package builds or loads nothing;
* **Clamps** — a budget, threshold, ``tau`` or ``f`` past ``int64`` gives
  what the interpreted forms give instead of wrapping, and 64 surviving
  nodes do not shift past the word;
* **Self-check** — a library whose entry point searches differently, or
  that lacks an entry point, is refused, ``status()`` says why, the
  interpreted forms run, and the plane kernel is untouched;
* **Fallback** — with no C compiler the witnesses and ``ExactSearchResult``
  are those of the compiled search.

The Hypothesis properties in ``tests/test_boundary_fuzz.py`` compare both
entry points with their interpreted forms on drawn inputs, and the exact,
bitset and verdict parity suites run on both paths.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.native
from conftest import numpy_search
from repro.conditions import (
    exact_violation_search,
    find_violating_partition,
    search_kernel,
)
from repro.conditions.bitset import _search_fault_set
from repro.conditions.exact import DEFAULT_DECISION_BUDGET, _UniverseSolver
from repro.conditions.search_kernel import BudgetExceeded
from repro.graphs import (
    chord_network,
    complete_graph,
    core_network,
    erdos_renyi_digraph,
    hypercube,
    undirected_ring,
)
from repro.simulation import native

SRC = Path(__file__).resolve().parent.parent / "src"


def _compiled():
    compiled = search_kernel.kernel()
    if compiled is None:
        pytest.skip(search_kernel.status())
    return compiled


def _python_solve(out_nbrs, tau, budget):
    """``_UniverseSolver.solve`` as the compiled ``solve`` is called."""
    m = len(out_nbrs)
    in_nbrs = [tuple(x for x in range(m) if y in out_nbrs[x]) for y in range(m)]
    return _UniverseSolver(in_nbrs, [tuple(outs) for outs in out_nbrs], tau, budget).solve()


def _outcome(solve, out_nbrs, tau, limit, decisions=0):
    """``(labels, decisions, exhausted)`` of one solve."""
    budget = {"decisions": decisions, "limit": limit}
    try:
        labels = solve(out_nbrs, tau, budget)
    except BudgetExceeded:
        return None, budget["decisions"], True
    return labels, budget["decisions"], False


#: A universe with a violation (two 2-cycles joined one way) and one
#: without (the complete graph on 5 nodes at tau = 2).
TWO_CYCLES = [[1], [0, 2], [3], [2]]
COMPLETE5 = [[y for y in range(5) if y != x] for x in range(5)]


def test_compiled_search_builds_where_a_compiler_exists():
    if not any(shutil.which(name) for name in repro.native.COMPILERS):
        pytest.skip("no C compiler on this machine")
    assert search_kernel.kernel() is not None, search_kernel.status()
    assert search_kernel.status().startswith("compiled search")


def test_importing_the_package_builds_and_loads_nothing():
    code = (
        "import repro, repro.cli, repro.experiments, repro.conditions;"
        "from repro.conditions import search_kernel;"
        "from repro.simulation import native;"
        "print(search_kernel.LIBRARY._status, native.LIBRARY._status)"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert completed.stdout.split() == ["None", "None"]


def test_the_cache_holds_one_library_of_its_own(monkeypatch, tmp_path):
    _compiled()
    library = dataclasses.replace(search_kernel.LIBRARY, cache_dir=tmp_path)
    assert library.load() is not None
    built = [path.name for path in tmp_path.iterdir()]
    assert len(built) == 1
    assert built[0].startswith("search_kernel-") and built[0].endswith(".so")
    assert str(tmp_path) in library.status()


# ---------------------------------------------------------------------------
# Clamps: ctypes wraps a Python int silently
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("limit", [2**62, 2**63, 2**64 + 5])
def test_a_budget_past_int64_is_not_an_instant_unknown(limit):
    compiled = _compiled()
    for out_nbrs, tau in ((TWO_CYCLES, 2), (COMPLETE5, 2)):
        expected = _outcome(_python_solve, out_nbrs, tau, limit)
        assert not expected[2]
        assert _outcome(compiled.solve, out_nbrs, tau, limit) == expected
    graph = chord_network(9, 1)
    searched = exact_violation_search(graph, 1, backend="dpll", decision_budget=limit)
    assert searched.status != "unknown"
    with numpy_search():
        assert searched == exact_violation_search(
            graph, 1, backend="dpll", decision_budget=limit
        )


@pytest.mark.parametrize("threshold", [66, 2**63, 2**64 + 1, -1, -(2**63) - 1])
def test_a_sweep_threshold_past_the_word_sweeps_as_its_clamp(threshold):
    compiled = _compiled()
    rng = np.random.default_rng(5)
    for count in (3, 7, 10):
        words = [int(w) for w in rng.integers(0, 1 << count, size=count)]
        expected = _search_fault_set(np.array(words, dtype=np.uint64), count, threshold)
        assert compiled.sweep(words, threshold) == expected
        clamp = 65 if threshold > 0 else 0
        assert compiled.sweep(words, clamp) == expected
    # Past 64 no node ever offends: the first mask is insulated.
    if threshold > 0:
        assert compiled.sweep([0b110, 0b101, 0b011], threshold) == (0b001, 0b110)


@pytest.mark.parametrize("tau", [2**63, 2**64 + 3])
def test_a_tau_past_int64_solves_as_m_plus_one(tau):
    compiled = _compiled()
    for out_nbrs in (TWO_CYCLES, COMPLETE5):
        expected = _outcome(_python_solve, out_nbrs, tau, 10**6)
        assert expected[0] is not None  # nothing is ever ruled out
        assert _outcome(compiled.solve, out_nbrs, tau, 10**6) == expected
        assert _outcome(compiled.solve, out_nbrs, len(out_nbrs) + 1, 10**6) == expected


@pytest.mark.parametrize("f", [2**63, 2**64])
def test_a_huge_f_gives_the_interpreted_forms_results(f):
    _compiled()
    graph = undirected_ring(6)
    searched = exact_violation_search(graph, f, backend="dpll")
    swept = find_violating_partition(graph, f)
    with numpy_search():
        assert searched == exact_violation_search(graph, f, backend="dpll")
        assert swept == find_violating_partition(graph, f)
    assert searched.status == "violation" and swept is not None


def test_an_out_neighbour_outside_the_universe_never_reaches_c():
    compiled = _compiled()
    for bad in ([[1], [2]], [[1], [-1]]):
        with pytest.raises(ValueError, match="out-neighbours"):
            compiled.solve(bad, 1, {"decisions": 0, "limit": 10})


def test_sixty_four_nodes_fill_the_word():
    compiled = _compiled()
    full = (1 << 64) - 1
    expected = _search_fault_set(np.zeros(64, dtype=np.uint64), 64, 1)
    assert expected == (1, full & ~1)
    assert compiled.sweep([0] * 64, 1) == expected
    with pytest.raises(ValueError, match="at most 64"):
        compiled.sweep([0] * 65, 1)


# ---------------------------------------------------------------------------
# Self-check and fallback
# ---------------------------------------------------------------------------
#: Mutants of search_kernel.c: (what they get wrong, original, replacement).
MUTANTS = [
    (
        "insulation off by one",
        "if (POPCOUNT(in_masks[LOWEST(set)] & outside) >= threshold) {",
        "if (POPCOUNT(in_masks[LOWEST(set)] & outside) > threshold) {",
    ),
    (
        "closure off by one",
        "if (POPCOUNT(in_masks[LOWEST(scan)] & outside) >= threshold) {",
        "if (POPCOUNT(in_masks[LOWEST(scan)] & outside) > threshold) {",
    ),
    (
        "decisions counted twice",
        "    s->decisions++;\n",
        "    s->decisions += 2;\n",
    ),
    (
        "labels tried R first",
        "for (int64_t label = LABEL_L; label <= LABEL_C; label++) {",
        "for (int64_t label = LABEL_C; label >= LABEL_L; label--) {",
    ),
    (
        "prefix not grown",
        "        if (!assign(s, i, LABEL_C)) {\n            return 0;\n        }\n",
        "",
    ),
]


def _library_of(source_text, tmp_path):
    """A search library built from ``source_text`` in ``tmp_path``."""
    source = tmp_path / "search_kernel.c"
    source.write_text(source_text)
    return dataclasses.replace(
        search_kernel.LIBRARY, source=source, cache_dir=tmp_path / "cache"
    )


@pytest.mark.parametrize("label, original, mutated", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_a_library_whose_entry_point_searches_differently_is_refused(
    label, original, mutated, monkeypatch, tmp_path
):
    _compiled()
    text = search_kernel.SOURCE.read_text()
    assert text.count(original) == 1, label
    library = _library_of(text.replace(original, mutated), tmp_path)
    assert library.load() is None
    assert library.status().startswith("NumPy sweep and Python solver: self-check failed")
    # Switched in, the refused library leaves the interpreted forms running,
    # with the compiled search's results, and the plane kernel compiled.
    graph = erdos_renyi_digraph(12, 0.4, rng=3)
    expected = (
        find_violating_partition(graph, 1),
        exact_violation_search(graph, 1, backend="dpll"),
    )
    monkeypatch.setattr(search_kernel, "LIBRARY", library)
    assert search_kernel.kernel() is None
    assert "self-check failed" in search_kernel.status()
    assert (
        find_violating_partition(graph, 1),
        exact_violation_search(graph, 1, backend="dpll"),
    ) == expected
    assert native.kernel() is not None, native.status()


def test_a_library_without_an_entry_point_is_refused(tmp_path):
    _compiled()
    text = search_kernel.SOURCE.read_text()
    library = _library_of(
        text.replace("int solve_universe(", "int solve_universe_renamed("), tmp_path
    )
    assert library.load() is None
    assert "cannot load" in library.status()
    assert "solve_universe" in library.status()


def test_the_plane_kernel_refused_leaves_the_search_compiled(monkeypatch, tmp_path):
    _compiled()
    source = tmp_path / "plane_kernel.c"
    source.write_text(native.SOURCE.read_text() + "\n#error refused\n")
    monkeypatch.setattr(
        native,
        "LIBRARY",
        dataclasses.replace(native.LIBRARY, source=source, cache_dir=tmp_path),
    )
    assert native.kernel() is None
    assert "NumPy kernel: " in native.status()
    assert search_kernel.kernel() is not None


def test_without_a_compiler_the_results_are_the_compiled_ones(monkeypatch, tmp_path):
    _compiled()
    cases = [
        (hypercube(4), 1),
        (chord_network(12, 1), 1),
        (core_network(11, 2), 2),
        (complete_graph(7), 2),
        (erdos_renyi_digraph(14, 0.35, rng=1), 1),
    ]
    budgets = (DEFAULT_DECISION_BUDGET, 17)
    expected = [
        (
            find_violating_partition(graph, f),
            [exact_violation_search(graph, f, backend="dpll", decision_budget=b) for b in budgets],
        )
        for graph, f in cases
    ]
    monkeypatch.setattr(
        search_kernel,
        "LIBRARY",
        dataclasses.replace(search_kernel.LIBRARY, cache_dir=tmp_path),
    )
    monkeypatch.setattr(repro.native, "COMPILERS", ("repro-no-such-cc",))
    assert search_kernel.kernel() is None
    assert search_kernel.status() == (
        "NumPy sweep and Python solver: no C compiler found "
        "(looked for repro-no-such-cc)"
    )
    observed = [
        (
            find_violating_partition(graph, f),
            [exact_violation_search(graph, f, backend="dpll", decision_budget=b) for b in budgets],
        )
        for graph, f in cases
    ]
    assert observed == expected
