"""Unit and property tests for the layered feasibility verdict stack."""

from __future__ import annotations

import random

import pytest

from repro.conditions import (
    FEASIBLE,
    INFEASIBLE,
    MAX_BITSET_NODES,
    UNKNOWN,
    VERDICT_LAYERS,
    BitsetDigraphView,
    FeasibilityCertificate,
    FeasibilityVerdict,
    InfeasibilityCertificate,
    check_feasibility,
    feasibility_verdict,
    find_source_component_witness,
    find_violating_partition,
    maximal_insulated_subset,
    maximal_insulated_subset_mask,
    verify_certificate,
    verify_witness,
    verify_witness_fast,
)
from repro.exceptions import InvalidParameterError
from repro.graphs import (
    Digraph,
    chord_network,
    complete_graph,
    core_network,
    directed_ring,
    erdos_renyi_digraph,
    hypercube,
    undirected_ring,
)
from repro.types import PartitionWitness


class TestVerdictParity:
    """On graphs within the exact cap the verdict must match the checker."""

    @pytest.mark.parametrize(
        "graph, f",
        [
            (hypercube(3), 1),
            (undirected_ring(6), 1),
            (chord_network(7, 2), 2),
            (complete_graph(7), 2),
            (core_network(7, 2), 2),
            (complete_graph(4), 1),
            (Digraph(nodes=[0, 1]), 0),
        ],
    )
    def test_canonical_cases(self, graph, f):
        verdict = feasibility_verdict(graph, f)
        result = check_feasibility(graph, f)
        assert verdict.status == (FEASIBLE if result.satisfied else INFEASIBLE)
        assert verify_certificate(graph, f, verdict)

    def test_random_graphs(self):
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(2, 12)
            f = rng.randint(0, 2)
            graph = erdos_renyi_digraph(n, rng.uniform(0.1, 0.8), rng=seed)
            verdict = feasibility_verdict(graph, f)
            expected = find_violating_partition(graph, f) is None
            assert verdict.status == (FEASIBLE if expected else INFEASIBLE), (
                f"verdict disagrees with exact checker at seed={seed}, n={n}, f={f}"
            )
            assert verify_certificate(graph, f, verdict)
            if isinstance(verdict.certificate, InfeasibilityCertificate):
                if verdict.certificate.witness is not None:
                    assert verify_witness(graph, f, verdict.certificate.witness)

    def test_invalid_f_rejected(self):
        with pytest.raises(InvalidParameterError):
            feasibility_verdict(complete_graph(4), -1)

    @pytest.mark.parametrize(
        "graph",
        [complete_graph(5), erdos_renyi_digraph(26, 0.5, rng=0)],
        ids=["screens-decide", "later-layers-decide"],
    )
    @pytest.mark.parametrize(
        "parameter, value, named",
        [
            ("witness_attempts", 0, "witness_attempts"),
            ("greedy_seeds", 0, "greedy_seeds"),
            ("decision_budget", 0, "decision_budget"),
            ("exact_backend", "z3", "exact backend"),
            ("rng", -1, "rng"),
            ("rng", 1.5, "rng"),
            ("max_exhaustive_nodes", -1, "max_exhaustive_nodes"),
            ("max_exact_nodes", "32", "max_exact_nodes"),
        ],
    )
    def test_out_of_range_parameter_raises_whichever_layer_decides(
        self, graph, parameter, value, named
    ):
        with pytest.raises(InvalidParameterError, match=named):
            feasibility_verdict(graph, 1, **{parameter: value})

    def test_exact_backend_is_checked_only_with_the_exact_layer(self):
        verdict = feasibility_verdict(
            complete_graph(5), 1, use_exact=False, exact_backend="z3"
        )
        assert verdict.status == FEASIBLE


class TestVerdictSoundness:
    """Property: a decided verdict always carries a re-checkable certificate."""

    def test_no_decision_without_certificate(self):
        cases = [
            (hypercube(3), 1),
            (complete_graph(7), 2),
            (chord_network(28, 3), 3),
            (erdos_renyi_digraph(40, 0.3, rng=5), 2),
            (erdos_renyi_digraph(40, 0.05, rng=5), 2),
        ]
        for graph, f in cases:
            verdict = feasibility_verdict(graph, f, decision_budget=2000)
            if verdict.status == UNKNOWN:
                assert verdict.certificate is None
                assert verdict.decided_by is None
            else:
                assert verdict.certificate is not None
                assert verdict.decided_by in VERDICT_LAYERS
            assert verify_certificate(graph, f, verdict)

    def test_tampered_certificates_are_rejected(self):
        graph = hypercube(3)
        verdict = feasibility_verdict(graph, 1)
        assert verdict.status == INFEASIBLE
        # Swap in a bogus witness: verification must fail.
        nodes = sorted(graph.nodes)
        fake_witness = PartitionWitness(
            faulty=frozenset(),
            left=frozenset(nodes[:1]),
            center=frozenset(nodes[1:-1]),
            right=frozenset(nodes[-1:]),
        )
        tampered = FeasibilityVerdict(
            status=INFEASIBLE,
            f=1,
            certificate=InfeasibilityCertificate(kind="witness", witness=fake_witness),
            timings=verdict.timings,
            decided_by=verdict.decided_by,
            reason="tampered",
        )
        assert not verify_certificate(graph, 1, tampered)

    @pytest.mark.parametrize("budget", ["abc", None, 0, -5, True, 2.5])
    def test_malformed_exact_budget_is_rejected(self, budget):
        graph = complete_graph(7)
        sound = self._search_verdict("exact", decision_budget=1000)
        assert verify_certificate(graph, 2, sound)
        malformed = self._search_verdict("exact", decision_budget=budget)
        assert verify_certificate(graph, 2, malformed) is False

    @pytest.mark.parametrize("cap", ["abc", None, 6])
    def test_malformed_exhaustive_cap_is_rejected(self, cap):
        graph = complete_graph(7)
        assert verify_certificate(graph, 2, self._search_verdict("exhaustive"))
        malformed = self._search_verdict("exhaustive", max_nodes=cap)
        assert verify_certificate(graph, 2, malformed) is False

    @staticmethod
    def _search_verdict(kind, **details):
        """A FEASIBLE verdict at f = 2 carrying a search certificate."""
        return FeasibilityVerdict(
            status=FEASIBLE,
            f=2,
            certificate=FeasibilityCertificate(kind=kind, details=details),
            timings=(),
            decided_by=kind,
            reason="search certificate",
        )

    def test_mismatched_certificate_type_rejected(self):
        graph = complete_graph(7)
        verdict = feasibility_verdict(graph, 2)
        assert verdict.status == FEASIBLE
        crossed = FeasibilityVerdict(
            status=INFEASIBLE,
            f=2,
            certificate=verdict.certificate,  # feasibility cert under INFEASIBLE
            timings=verdict.timings,
            decided_by=verdict.decided_by,
            reason="crossed",
        )
        assert not verify_certificate(graph, 2, crossed)

    def test_fake_core_certificate_rejected(self):
        graph = undirected_ring(9)
        fake = FeasibilityVerdict(
            status=FEASIBLE,
            f=1,
            certificate=FeasibilityCertificate(
                kind="core-structure", core=frozenset({0, 1, 2})
            ),
            timings=(),
            decided_by="screens",
            reason="fake core",
        )
        assert not verify_certificate(graph, 1, fake)

    def test_unknown_with_certificate_rejected(self):
        graph = complete_graph(4)
        verdict = feasibility_verdict(graph, 1)
        bogus = FeasibilityVerdict(
            status=UNKNOWN,
            f=1,
            certificate=verdict.certificate,
            timings=(),
            decided_by=None,
            reason="bogus",
        )
        assert not verify_certificate(graph, 1, bogus)


class TestVerdictLayers:
    def test_screens_decide_before_exhaustive(self):
        verdict = feasibility_verdict(complete_graph(7), 2)
        assert verdict.decided_by == "screens"
        assert [timing.layer for timing in verdict.timings] == ["screens"]

    def test_timings_cover_executed_layers_in_order(self):
        verdict = feasibility_verdict(chord_network(7, 2), 2)
        layers = [timing.layer for timing in verdict.timings]
        assert layers == ["screens", "exhaustive"]
        assert all(timing.seconds >= 0 for timing in verdict.timings)
        assert verdict.timings[-1].outcome == "decided"
        assert verdict.timings[0].outcome == "no-decision"

    def test_witness_layer_decides_beyond_exhaustive_cap(self):
        # 70-node ring: in-degree screen rejects at f=1... so raise the ring
        # connectivity instead by using f=0 where the screens pass.
        graph = directed_ring(70)
        verdict = feasibility_verdict(graph, 0)
        # A directed ring is strongly connected and satisfies the f=0
        # condition; no witness exists, so the verdict stays UNKNOWN (the
        # exact layer is capped below 70).
        assert verdict.status == UNKNOWN
        executed = [timing.layer for timing in verdict.timings]
        assert "witness-search" in executed

    def test_exact_layer_decides_between_caps(self):
        # n = 28 sits between the exhaustive cap (24) and the exact cap (32).
        graph = core_network(28, 2)
        without_shortcut = feasibility_verdict(graph, 2)
        assert without_shortcut.status == FEASIBLE  # core screen fires first
        infeasible = chord_network(26, 4)
        verdict = feasibility_verdict(infeasible, 4, rng=9)
        assert verdict.status in (INFEASIBLE, UNKNOWN)
        assert verify_certificate(infeasible, 4, verdict)

    def test_describe_mentions_status_and_layer(self):
        verdict = feasibility_verdict(hypercube(3), 1)
        text = verdict.describe()
        assert "INFEASIBLE" in text
        assert "exhaustive" in text


class TestExactCertificatePath:
    """Past the enumeration cap the DPLL layer decides with a certificate
    that re-checks by running the same search again."""

    def test_erdos_renyi_30_is_feasible_and_its_certificate_rechecks(self):
        graph = erdos_renyi_digraph(30, 0.4, rng=0)
        verdict = feasibility_verdict(graph, 1)
        assert verdict.status == FEASIBLE
        assert verdict.decided_by == "exact"
        assert verdict.certificate.kind == "exact"
        assert verdict.certificate.details["fault_sets_examined"] == 30
        assert verify_certificate(graph, 1, verdict)

    def test_hypercube_5_is_infeasible_via_dpll(self):
        graph = hypercube(5)
        verdict = feasibility_verdict(graph, 1)
        assert verdict.status == INFEASIBLE
        assert verdict.decided_by == "exact"
        assert verdict.certificate.details["source"] == "dpll"
        assert verify_certificate(graph, 1, verdict)


class TestSourceComponentScreen:
    def test_two_isolated_nodes(self):
        witness = find_source_component_witness(Digraph(nodes=[0, 1]))
        assert witness is not None
        assert witness.faulty == frozenset()
        assert verify_witness(Digraph(nodes=[0, 1]), 0, witness)

    def test_strongly_connected_graph_has_none(self):
        assert find_source_component_witness(directed_ring(8)) is None

    def test_single_source_chain_has_none(self):
        # 0 -> 1 -> 2: three SCCs but only one source component.
        assert find_source_component_witness(Digraph(edges=[(0, 1), (1, 2)])) is None

    def test_two_source_cycles_feeding_a_sink(self):
        edges = [(0, 1), (1, 0), (2, 3), (3, 2), (0, 4), (2, 4)]
        graph = Digraph(edges=edges)
        witness = find_source_component_witness(graph)
        assert witness is not None
        assert verify_witness(graph, 0, witness)
        # The witness scales to any fault budget: F = ∅ and threshold grows.
        assert verify_witness(graph, 3, witness)


class TestClosureParityAcrossBitsetCap:
    """The mask closure and the Python closure agree straddling n = 64."""

    @pytest.mark.parametrize("n", [60, 63, 64])
    def test_mask_closure_matches_python_closure(self, n):
        graph = erdos_renyi_digraph(n, 0.08, rng=n)
        view = BitsetDigraphView(graph)
        rng = random.Random(n)
        nodes = sorted(graph.nodes, key=repr)
        for trial in range(20):
            pool = frozenset(rng.sample(nodes, rng.randint(1, n - 1)))
            universe_extra = frozenset(rng.sample(nodes, rng.randint(1, n)))
            universe = pool | universe_extra
            threshold = rng.randint(1, 4)
            python_closure = maximal_insulated_subset(
                graph, pool, universe, threshold
            )
            mask_closure = maximal_insulated_subset_mask(
                view, view.mask_of(pool), view.mask_of(universe), threshold
            )
            assert view.set_of(mask_closure) == python_closure, (
                f"closure mismatch at n={n}, trial={trial}"
            )

    @pytest.mark.parametrize("n", [63, 64, 65, 70])
    def test_verify_witness_fast_agrees_with_python_verify(self, n):
        # n = 63/64 exercise the bitset path, 65/70 the pure-Python fallback;
        # both sides of MAX_BITSET_NODES must agree on every candidate.
        assert MAX_BITSET_NODES == 64
        graph = erdos_renyi_digraph(n, 0.05, rng=n + 1)
        rng = random.Random(n)
        nodes = sorted(graph.nodes, key=repr)
        for trial in range(15):
            f = rng.randint(0, 2)
            shuffled = list(nodes)
            rng.shuffle(shuffled)
            fault_count = rng.randint(0, f)
            left_count = rng.randint(1, 4)
            right_count = rng.randint(1, 4)
            faulty = frozenset(shuffled[:fault_count])
            left = frozenset(shuffled[fault_count : fault_count + left_count])
            right = frozenset(
                shuffled[
                    fault_count + left_count : fault_count + left_count + right_count
                ]
            )
            center = frozenset(nodes) - faulty - left - right
            witness = PartitionWitness(
                faulty=faulty, left=left, center=center, right=right
            )
            assert verify_witness_fast(graph, f, witness) == verify_witness(
                graph, f, witness
            ), f"fast/python verify mismatch at n={n}, trial={trial}"

    def test_all_search_witnesses_pass_verify(self):
        # Property: every witness any search returns verifies — across both
        # sides of the bitset cap.
        from repro.conditions import greedy_witness_search, random_witness_search

        for n in (40, 70):
            graph = undirected_ring(n)
            for f, searcher in (
                (1, lambda g: greedy_witness_search(g, 1)),
                (1, lambda g: random_witness_search(g, 1, attempts=60, rng=2)),
            ):
                witness = searcher(graph)
                if witness is not None:
                    assert verify_witness(graph, f, witness)
                    assert verify_witness_fast(graph, f, witness)
