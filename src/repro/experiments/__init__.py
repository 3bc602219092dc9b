"""Experiment drivers that regenerate every result of the paper (and the
ablations listed in DESIGN.md).  Each driver returns plain rows (lists of
dictionaries) so that the benchmark harness can both time them and assert the
qualitative shape the paper reports, while the examples print them."""

from repro.experiments.ablation import (
    ablation_cell,
    algorithm_ablation,
    default_ablation_graphs,
    rule_zoo,
)
from repro.experiments.asynchronous import (
    asynchronous_cell,
    async_sweep,
)
from repro.experiments.checker import (
    checker_agreement_study,
    checker_cell,
    checker_scaling_cases,
    checker_test_battery,
    exhaustive_checker_workload,
)
from repro.experiments.convergence_rate import (
    convergence_rate_cell,
    convergence_rate_study,
    convergence_rate_sweep,
    default_rate_cases,
)
from repro.experiments.corollaries import (
    corollaries_cell,
    corollary2_sweep,
    corollary3_edge_removal,
)
from repro.experiments.families import (
    chord_case_studies,
    families_cell,
    chord_feasibility_sweep,
    core_network_batch_sweep,
    core_network_minimality_comparison,
    core_network_study,
    hypercube_study,
)
from repro.experiments.dynamic import (
    CHURN_P_AWAKE,
    DYNAMIC_SCHEDULE_KINDS,
    churn_sweep_cell,
    churn_sweep_study,
    default_dynamic_cases,
    dynamic_topology_cell,
    dynamic_topology_study,
    make_dynamic_schedule,
)
from repro.experiments.feasibility_scale import (
    DEFAULT_SCALE_SIZES,
    feasibility_scale_battery,
    feasibility_scale_cases,
    feasibility_scale_cell,
    feasibility_scale_study,
)
from repro.experiments.necessity import (
    NecessityDemonstration,
    default_necessity_cases,
    demonstrate_necessity,
    necessity_cell,
    necessity_rows,
    split_brain_stall_study,
)
from repro.experiments.reporting import (
    format_table,
    print_table,
    summarize_booleans,
)
from repro.experiments.scale import (
    SCALE_DTYPES,
    default_scale_sizes,
    large_n_cell,
    large_n_study,
)
from repro.experiments.robustness import (
    default_robustness_cases,
    robustness_cell,
    robustness_comparison,
)
from repro.experiments.showdown import (
    SHOWDOWN_STRATEGIES,
    adversary_showdown,
    adversary_showdown_cell,
    default_showdown_cases,
    make_showdown_strategy,
)
from repro.experiments.validity import (
    adversary_zoo,
    default_validity_graphs,
    validity_cell,
    validity_study,
)

__all__ = [
    "ablation_cell",
    "algorithm_ablation",
    "default_ablation_graphs",
    "rule_zoo",
    "asynchronous_cell",
    "async_sweep",
    "checker_agreement_study",
    "checker_cell",
    "checker_scaling_cases",
    "checker_test_battery",
    "exhaustive_checker_workload",
    "convergence_rate_cell",
    "convergence_rate_study",
    "convergence_rate_sweep",
    "default_rate_cases",
    "corollaries_cell",
    "corollary2_sweep",
    "corollary3_edge_removal",
    "chord_case_studies",
    "families_cell",
    "chord_feasibility_sweep",
    "core_network_batch_sweep",
    "core_network_minimality_comparison",
    "core_network_study",
    "hypercube_study",
    "CHURN_P_AWAKE",
    "DYNAMIC_SCHEDULE_KINDS",
    "churn_sweep_cell",
    "churn_sweep_study",
    "default_dynamic_cases",
    "dynamic_topology_cell",
    "dynamic_topology_study",
    "make_dynamic_schedule",
    "DEFAULT_SCALE_SIZES",
    "feasibility_scale_battery",
    "feasibility_scale_cases",
    "feasibility_scale_cell",
    "feasibility_scale_study",
    "NecessityDemonstration",
    "default_necessity_cases",
    "demonstrate_necessity",
    "necessity_cell",
    "necessity_rows",
    "split_brain_stall_study",
    "format_table",
    "print_table",
    "summarize_booleans",
    "default_robustness_cases",
    "robustness_cell",
    "robustness_comparison",
    "SCALE_DTYPES",
    "default_scale_sizes",
    "large_n_cell",
    "large_n_study",
    "SHOWDOWN_STRATEGIES",
    "adversary_showdown",
    "adversary_showdown_cell",
    "default_showdown_cases",
    "make_showdown_strategy",
    "adversary_zoo",
    "default_validity_graphs",
    "validity_cell",
    "validity_study",
]
