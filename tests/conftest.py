"""Shared pytest fixtures and helpers.

Besides the small graph/rule fixtures, this module centralises what used to
be copy-pasted across ``test_engine_parity.py`` / ``test_adversary_batch.py``
/ ``test_metamorphic.py``:

* :data:`SYNC_FAMILY_CASES` — the labelled (graph family, fault set, rule,
  adversary) scenario matrix the differential suites sweep;
* :func:`make_scalar_adversary` — the shared scalar adversary factory;
* the **engine axis**: :data:`SYNC_ENGINE_KINDS` /
  :func:`run_sync_engine` run one synchronous execution through any of the
  engine tiers (scalar reference, vectorized, vectorized with a one-row
  tile budget, or the vectorized async engine degenerated to
  ``max_delay=0, p=1.0``), and :func:`make_batch_engine` builds a batch
  engine for the vectorized/tiled/async tiers with one shared
  configuration.  The ``tiled`` tier runs the NumPy plane kernel
  (:func:`numpy_kernel`), the others the compiled one where this machine
  can build it, so every parity and fuzz suite covers both kernels.
* the **search axis**: :func:`numpy_search` (and the ``fallback_search``
  fixture) runs the Theorem-1 search on the NumPy sweep and the Python
  solver, as on a machine that cannot build the compiled search; the
  exact, bitset and verdict parity suites run once on each path.
"""

from __future__ import annotations

import contextlib
from typing import Iterator
from unittest import mock

import numpy as np
import pytest

from repro.adversary import ExtremePushStrategy, StaticValueStrategy
from repro.algorithms import TrimmedMeanRule, TrimmedMidpointRule
from repro.conditions import search_kernel
from repro.graphs import (
    Digraph,
    chord_network,
    complete_graph,
    core_network,
    hypercube,
)
from repro.simulation import (
    SimulationConfig,
    VectorizedAsyncEngine,
    VectorizedEngine,
    native,
    run_synchronous,
    run_vectorized,
    run_vectorized_async,
)

# ---------------------------------------------------------------------------
# Graph fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def triangle() -> Digraph:
    """The symmetric triangle (complete graph on 3 nodes)."""
    return complete_graph(3)


@pytest.fixture
def complete4() -> Digraph:
    """Complete graph on 4 nodes (smallest feasible for f = 1)."""
    return complete_graph(4)


@pytest.fixture
def complete7() -> Digraph:
    """Complete graph on 7 nodes (smallest feasible for f = 2)."""
    return complete_graph(7)


@pytest.fixture
def core_7_2() -> Digraph:
    """Core network with n = 7, f = 2 (Section 6.1, smallest for f = 2)."""
    return core_network(7, 2)


@pytest.fixture
def chord_5_1() -> Digraph:
    """Chord network with n = 5, f = 1 (feasible; Section 6.3)."""
    return chord_network(5, 1)


@pytest.fixture
def chord_7_2() -> Digraph:
    """Chord network with n = 7, f = 2 (infeasible; Section 6.3)."""
    return chord_network(7, 2)


@pytest.fixture
def cube3() -> Digraph:
    """The 3-dimensional binary hypercube (Figure 3)."""
    return hypercube(3)


@pytest.fixture
def trimmed_f1() -> TrimmedMeanRule:
    """Algorithm 1 configured for f = 1."""
    return TrimmedMeanRule(1)


@pytest.fixture
def trimmed_f2() -> TrimmedMeanRule:
    """Algorithm 1 configured for f = 2."""
    return TrimmedMeanRule(2)


# ---------------------------------------------------------------------------
# Shared scenario matrix (deduplicated graph families)
# ---------------------------------------------------------------------------

#: Labelled synchronous scenarios: (label, graph factory, f, faulty,
#: rule factory, adversary kind).  The differential suites parametrize over
#: this one matrix instead of each maintaining its own copy.
SYNC_FAMILY_CASES = [
    ("complete4-mean", lambda: complete_graph(4), 1, {0}, TrimmedMeanRule, "extreme-push"),
    ("complete4-mid", lambda: complete_graph(4), 1, {0}, TrimmedMidpointRule, "extreme-push"),
    ("complete5-clean", lambda: complete_graph(5), 1, set(), TrimmedMeanRule, "none"),
    ("complete7-static", lambda: complete_graph(7), 2, {0, 6}, TrimmedMeanRule, "static"),
    ("complete7-mid", lambda: complete_graph(7), 2, {1, 2}, TrimmedMidpointRule, "extreme-push"),
    ("core7", lambda: core_network(7, 2), 2, {5, 6}, TrimmedMeanRule, "extreme-push"),
    ("core8", lambda: core_network(8, 1), 1, {7}, TrimmedMeanRule, "static"),
    ("core10-mid", lambda: core_network(10, 2), 2, {8, 9}, TrimmedMidpointRule, "static"),
    ("chord5", lambda: chord_network(5, 1), 1, {2}, TrimmedMeanRule, "extreme-push"),
    ("chord9-clean", lambda: chord_network(9, 1), 1, set(), TrimmedMidpointRule, "none"),
    # Large-degree case: trim windows wider than NumPy's pairwise-summation
    # block (128), pinning the engines' sequential summation order.
    ("core150-wide", lambda: core_network(150, 2), 2, {148, 149}, TrimmedMeanRule, "extreme-push"),
]

#: Case labels, for readable parametrized test ids.
SYNC_FAMILY_IDS = [case[0] for case in SYNC_FAMILY_CASES]


def make_scalar_adversary(kind: str):
    """Return a fresh scalar adversary for ``kind`` (``none`` → ``None``)."""
    if kind == "none":
        return None
    if kind == "extreme-push":
        return ExtremePushStrategy(delta=2.0)
    if kind == "static":
        return StaticValueStrategy(7.5)
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# Engine axis
# ---------------------------------------------------------------------------

#: The synchronous engine tiers every differential suite sweeps: the scalar
#: reference, the vectorized engine, the vectorized engine streaming one row
#: per plane tile, and the vectorized async engine degenerated to the
#: synchronous point.
SYNC_ENGINE_KINDS = ("scalar", "vectorized", "tiled", "async-degenerate")

#: The batch-capable engine tiers (everything but the scalar reference).
BATCH_ENGINE_KINDS = ("vectorized", "tiled", "async-degenerate")

#: Plane budget of the ``tiled`` tier: one byte, so every tile is one row.
TILED_PLANE_BYTES = 1


@contextlib.contextmanager
def numpy_kernel() -> Iterator[None]:
    """Run the batch engines as on a machine that cannot build the compiled
    plane kernel: ``reduce_plane`` falls back to the NumPy kernel."""
    with mock.patch.object(native, "kernel", lambda: None):
        yield


@contextlib.contextmanager
def numpy_search() -> Iterator[None]:
    """Run the Theorem-1 search as on a machine that cannot build the
    compiled one: the bitset checker sweeps with NumPy and the ``dpll``
    backend solves with ``_UniverseSolver``."""
    with mock.patch.object(search_kernel, "kernel", lambda: None):
        yield


@pytest.fixture
def fallback_search() -> Iterator[None]:
    """Run the test inside :func:`numpy_search`."""
    with numpy_search():
        yield


class NumpyKernelEngine(VectorizedEngine):
    """A :class:`VectorizedEngine` whose rounds run the NumPy plane kernel."""

    def step_matrix(self, state, round_index):
        with numpy_kernel():
            return super().step_matrix(state, round_index)


def run_sync_engine(
    engine_kind: str,
    graph,
    rule,
    inputs,
    *,
    faulty=frozenset(),
    adversary=None,
    **kwargs,
):
    """Run one synchronous execution through the requested engine tier.

    ``kwargs`` are forwarded to the functional runner (``max_rounds``,
    ``tolerance``, ``record_history``, …); the async-degenerate tier pins
    ``max_delay=0, update_probability=1.0`` so its trajectory must equal the
    synchronous ones.
    """
    if engine_kind == "scalar":
        return run_synchronous(
            graph, rule, inputs, faulty=faulty, adversary=adversary, **kwargs
        )
    if engine_kind == "vectorized":
        return run_vectorized(
            graph, rule, inputs, faulty=faulty, adversary=adversary, **kwargs
        )
    if engine_kind == "tiled":
        with numpy_kernel():
            return run_vectorized(
                graph,
                rule,
                inputs,
                faulty=faulty,
                adversary=adversary,
                max_plane_bytes=TILED_PLANE_BYTES,
                **kwargs,
            )
    if engine_kind == "async-degenerate":
        return run_vectorized_async(
            graph,
            rule,
            inputs,
            faulty=faulty,
            adversary=adversary,
            max_delay=0,
            update_probability=1.0,
            **kwargs,
        )
    raise AssertionError(engine_kind)


def make_batch_engine(
    engine_kind: str,
    graph,
    rule,
    *,
    faulty=frozenset(),
    adversary=None,
    config: SimulationConfig | None = None,
    dtype=np.float64,
    max_plane_bytes: int | None = None,
    schedule=None,
):
    """Build a batch engine of the requested tier with one shared config.

    The vectorized tier honours ``dtype`` / ``max_plane_bytes``, the tiled
    tier ``dtype`` (its budget is :data:`TILED_PLANE_BYTES`, and it runs the
    NumPy plane kernel); the async-degenerate tier ignores both (it is
    float64-only).  Note that
    under a schedule that actually masks something the async-degenerate tier
    intentionally leaves the synchronous equality set (never-delivered
    semantics instead of self-substitution).
    """
    if engine_kind in ("vectorized", "tiled"):
        engine_class = NumpyKernelEngine if engine_kind == "tiled" else VectorizedEngine
        return engine_class(
            graph,
            rule,
            faulty=faulty,
            adversary=adversary,
            config=config,
            schedule=schedule,
            dtype=dtype,
            max_plane_bytes=(
                TILED_PLANE_BYTES if engine_kind == "tiled" else max_plane_bytes
            ),
        )
    if engine_kind == "async-degenerate":
        return VectorizedAsyncEngine(
            graph,
            rule,
            faulty=faulty,
            adversary=adversary,
            config=config,
            max_delay=0,
            update_probability=1.0,
            schedule=schedule,
        )
    raise AssertionError(engine_kind)
