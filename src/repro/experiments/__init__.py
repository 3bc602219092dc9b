"""The paper's experiments, one registered cell function each.

Every module registers its experiment with
:func:`repro.sweeps.registry.register_experiment`; the registered ``*_cell``
function runs one grid cell and returns its rows (a list of dictionaries
matching the experiment's row schema).  ``repro run <experiment>`` sweeps
the default grid, and ``docs/experiments.md`` maps each experiment to the
paper section it reproduces.  Besides the cells, this package exports the
labelled case tables the grids sweep, the helpers several cells share and
the table formatter the CLI prints with.
"""

from repro.experiments.ablation import (
    ablation_cell,
    default_ablation_graphs,
    rule_zoo,
)
from repro.experiments.asynchronous import asynchronous_cell
from repro.experiments.checker import (
    checker_cell,
    checker_test_battery,
)
from repro.experiments.convergence_rate import (
    convergence_rate_cell,
    convergence_rate_study,
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
    default_dynamic_cases,
    dynamic_topology_cell,
    make_dynamic_schedule,
)
from repro.experiments.feasibility_scale import (
    DEFAULT_SCALE_SIZES,
    feasibility_scale_cases,
    feasibility_scale_cell,
)
from repro.experiments.necessity import (
    NecessityDemonstration,
    default_necessity_cases,
    demonstrate_necessity,
    necessity_cell,
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
)
from repro.experiments.robustness import (
    default_robustness_cases,
    robustness_cell,
)
from repro.experiments.showdown import (
    SHOWDOWN_STRATEGIES,
    adversary_showdown_cell,
    default_showdown_cases,
    make_showdown_strategy,
)
from repro.experiments.validity import (
    adversary_zoo,
    default_validity_graphs,
    validity_cell,
)

__all__ = [
    "ablation_cell",
    "default_ablation_graphs",
    "rule_zoo",
    "asynchronous_cell",
    "checker_cell",
    "checker_test_battery",
    "convergence_rate_cell",
    "convergence_rate_study",
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
    "default_dynamic_cases",
    "dynamic_topology_cell",
    "make_dynamic_schedule",
    "DEFAULT_SCALE_SIZES",
    "feasibility_scale_cases",
    "feasibility_scale_cell",
    "NecessityDemonstration",
    "default_necessity_cases",
    "demonstrate_necessity",
    "necessity_cell",
    "split_brain_stall_study",
    "format_table",
    "print_table",
    "summarize_booleans",
    "default_robustness_cases",
    "robustness_cell",
    "SCALE_DTYPES",
    "default_scale_sizes",
    "large_n_cell",
    "SHOWDOWN_STRATEGIES",
    "adversary_showdown_cell",
    "default_showdown_cases",
    "make_showdown_strategy",
    "adversary_zoo",
    "default_validity_graphs",
    "validity_cell",
]
