"""Trace wrappers around the public functions of each ``repro`` layer.

:class:`LayerTrace` installs :class:`tracer.Tracer` wrappers from outside
the program: on module functions (every ``repro`` module that imported the
function by name is patched too), on class methods and on the registered
experiment runners.  Each span name below is a layer; ``per_pass_metrics``
turns one traced pass into the per-layer metrics the benchmark reports.

===========================  ===============================================
span                         wraps
===========================  ===============================================
``cli``                      ``repro.cli.main`` (argument parsing, printing)
``sweeps``                   ``run_sweep``: planning, manifests, aggregation
``sweeps.manifest``          ``RunStore.write_manifest``
``sweeps.provenance``        ``machine_provenance`` (one ``git`` process)
``sweeps.store_io``          ``RunStore`` shard, aggregate and manifest reads
                             and writes
``sweeps.validate``          ``RowSchema.validate_rows``
``experiments.cell``         the registered experiment runners
``graphs.build``             the ``repro.graphs`` generators
``conditions.verdict``       ``feasibility_verdict``, split by its
                             ``LayerTiming`` records
``conditions.verify``        ``verify_certificate``
``conditions.checker``       ``check_feasibility``, ``find_violating_partition``
                             outside the verdict stack
``simulation.build``         batch engine constructors
``simulation.*.step``        dense, sparse and async batch kernels
``simulation.loop``          ``run_batch`` outside its kernel calls
``simulation.scalar``        the scalar reference engines
``adversary.fill``           ``edge_values`` / ``nominal_values`` of every
                             ``BatchStrategy``
===========================  ===============================================
"""

from __future__ import annotations

import inspect
import sys
import types
from typing import Any, Callable

from tracer import Tracer

#: Verdict layer names as the stack records them -> metric names.
VERDICT_LAYERS = {
    "screens": "screens",
    "exhaustive": "exhaustive",
    "witness-search": "witness",
    "exact": "exact",
}

#: Spans inside which checker calls belong to the verdict stack.
VERDICT_STACK = ("conditions.verdict", "conditions.verify")

#: Per-layer metrics: ``(name, unit, better)``, in report order.
PER_LAYER_METRICS = (
    ("cli.self_s", "s", "lower"),
    ("sweeps.self_s", "s", "lower"),
    ("sweeps.manifest_s", "s", "lower"),
    ("sweeps.manifest_writes", "count", "lower"),
    ("sweeps.manifest_bytes", "bytes", "lower"),
    ("sweeps.provenance_s", "s", "lower"),
    ("sweeps.provenance_calls", "count", "lower"),
    ("sweeps.store_io_s", "s", "lower"),
    ("sweeps.store_wait_s", "s", "lower"),
    ("sweeps.validate_s", "s", "lower"),
    ("sweeps.shards", "count", "lower"),
    ("experiments.import_s", "s", "lower"),
    ("experiments.cell_s", "s", "lower"),
    ("graphs.build_s", "s", "lower"),
    ("graphs.built", "count", "lower"),
    *(
        (f"conditions.{layer}_s", "s", "lower")
        for layer in VERDICT_LAYERS.values()
    ),
    *(
        (f"conditions.runs.{layer}", "count", "lower")
        for layer in VERDICT_LAYERS.values()
    ),
    *(
        (f"conditions.decided.{layer}", "count", "higher")
        for layer in VERDICT_LAYERS.values()
    ),
    ("conditions.stack_s", "s", "lower"),
    ("conditions.verify_s", "s", "lower"),
    ("conditions.checker_s", "s", "lower"),
    ("simulation.build_s", "s", "lower"),
    ("simulation.dense.step_s", "s", "lower"),
    ("simulation.sparse.step_s", "s", "lower"),
    ("simulation.async.step_s", "s", "lower"),
    ("simulation.loop_s", "s", "lower"),
    ("simulation.scalar_s", "s", "lower"),
    ("simulation.row_rounds", "count", "lower"),
    ("simulation.useful_row_rounds_frac", "ratio", "higher"),
    ("simulation.node_rounds_per_s", "1/s", "higher"),
    ("simulation.plane_mb", "MB", "lower"),
    ("adversary.fill_s", "s", "lower"),
    ("adversary.channels", "count", "lower"),
    ("trace.self_sum_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)

#: Span names whose self time is reported directly as ``<name>_s``.
_SELF_TIME_SPANS = {
    "cli": "cli.self_s",
    "sweeps": "sweeps.self_s",
    "sweeps.manifest": "sweeps.manifest_s",
    "sweeps.provenance": "sweeps.provenance_s",
    "sweeps.store_io": "sweeps.store_io_s",
    "sweeps.validate": "sweeps.validate_s",
    "experiments.cell": "experiments.cell_s",
    "graphs.build": "graphs.build_s",
    "conditions.verify": "conditions.verify_s",
    "conditions.checker": "conditions.checker_s",
    "simulation.build": "simulation.build_s",
    "simulation.dense.step": "simulation.dense.step_s",
    "simulation.sparse.step": "simulation.sparse.step_s",
    "simulation.async.step": "simulation.async.step_s",
    "simulation.loop": "simulation.loop_s",
    "simulation.scalar": "simulation.scalar_s",
    "adversary.fill": "adversary.fill_s",
}

#: Counters reported as they are.
_COUNTS = {
    "sweeps.manifest_writes",
    "sweeps.manifest_bytes",
    "sweeps.provenance_calls",
    "sweeps.shards",
    "graphs.built",
    "simulation.row_rounds",
    "adversary.channels",
    *(f"conditions.runs.{layer}" for layer in VERDICT_LAYERS.values()),
    *(f"conditions.decided.{layer}" for layer in VERDICT_LAYERS.values()),
}


class LayerTrace:
    """Installs (and removes) the wrappers of every layer on one tracer."""

    def __init__(self, tracer: Tracer) -> None:
        """Bind to ``tracer``; nothing is wrapped until :meth:`install`."""
        self.tracer = tracer
        self._restore: list[Callable[[], None]] = []

    # -- patching helpers -------------------------------------------------
    def _function(self, module: types.ModuleType, name: str, wrapped: Callable[..., Any]) -> None:
        """Replace ``module.name`` in every ``repro`` module that holds it."""
        original = getattr(module, name)
        for holder in list(sys.modules.values()):
            if holder is None or not holder.__name__.startswith("repro"):
                continue
            for attribute, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attribute, wrapped)
                    self._restore.append(
                        lambda h=holder, a=attribute: setattr(h, a, original)
                    )

    def _method(self, cls: type, name: str, wrapped_of: Callable[[Any], Any]) -> None:
        """Wrap ``cls.name`` if ``cls`` defines it itself."""
        original = cls.__dict__.get(name)
        if original is None:
            return
        setattr(cls, name, wrapped_of(original))
        self._restore.append(lambda: setattr(cls, name, original))

    def uninstall(self) -> None:
        """Undo every wrapper, newest first."""
        while self._restore:
            self._restore.pop()()

    # -- the layers -------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's public functions (see the module table)."""
        import repro.cli
        import repro.conditions
        import repro.graphs.generators
        import repro.graphs.random_graphs
        import repro.sweeps.orchestrator
        import repro.sweeps.provenance
        from repro.adversary.vectorized import BatchStrategy
        from repro.simulation.async_engine import PartiallyAsynchronousEngine
        from repro.simulation.engine import SynchronousEngine
        from repro.simulation.sparse import SparseEngine
        from repro.simulation.vectorized import VectorizedEngine
        from repro.simulation.vectorized_async import VectorizedAsyncEngine
        from repro.sweeps.registry import all_experiments
        from repro.sweeps.schema import RowSchema
        from repro.sweeps.store import RunStore

        t = self.tracer
        count = t.count

        self._function(repro.cli, "main", t.wrap("cli", repro.cli.main))

        # sweeps -----------------------------------------------------------
        orchestrator = repro.sweeps.orchestrator
        self._function(orchestrator, "run_sweep", t.wrap("sweeps", orchestrator.run_sweep))
        self._function(
            orchestrator,
            "execute_shard",
            _counted(t, "sweeps.shards", orchestrator.execute_shard),
        )
        self._function(
            repro.sweeps.provenance,
            "machine_provenance",
            t.wrap(
                "sweeps.provenance",
                repro.sweeps.provenance.machine_provenance,
                after=lambda *_: count("sweeps.provenance_calls"),
            ),
        )

        def manifest_written(index: int, args: tuple, kwargs: dict, result: Any) -> None:
            count("sweeps.manifest_writes")
            count("sweeps.manifest_bytes", len(args[0].manifest_path.read_text()))

        self._method(
            RunStore,
            "write_manifest",
            lambda fn: t.wrap("sweeps.manifest", fn, after=manifest_written, cpu=True),
        )
        for name in ("read_manifest", "write_shard", "read_shard", "write_aggregate", "read_aggregate"):
            self._method(RunStore, name, lambda fn: t.wrap("sweeps.store_io", fn, cpu=True))
        self._method(RowSchema, "validate_rows", lambda fn: t.wrap("sweeps.validate", fn))

        # experiments --------------------------------------------------------
        for spec in all_experiments().values():
            runner = spec.runner
            object.__setattr__(spec, "runner", t.wrap("experiments.cell", runner))
            self._restore.append(
                lambda s=spec, r=runner: object.__setattr__(s, "runner", r)
            )

        # graphs -------------------------------------------------------------
        from repro.graphs.digraph import Digraph

        def built(index: int, args: tuple, kwargs: dict, result: Any) -> None:
            if isinstance(result, Digraph) and t.open_count("graphs.build") == 1:
                count("graphs.built")

        for module in (repro.graphs.generators, repro.graphs.random_graphs):
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if fn.__module__ == module.__name__ and not name.startswith("_"):
                    self._function(module, name, t.wrap("graphs.build", fn, after=built))

        # conditions ---------------------------------------------------------
        def verdict_done(index: int, args: tuple, kwargs: dict, verdict: Any) -> None:
            for timing in verdict.timings:
                layer = VERDICT_LAYERS.get(timing.layer, timing.layer)
                count(f"conditions.layer_s.{layer}", timing.seconds)
                count(f"conditions.runs.{layer}")
                count(f"conditions.decided.{layer}", timing.outcome == "decided")

        conditions = repro.conditions
        self._function(
            conditions,
            "feasibility_verdict",
            t.wrap("conditions.verdict", conditions.feasibility_verdict, after=verdict_done),
        )
        self._function(
            conditions,
            "verify_certificate",
            t.wrap("conditions.verify", conditions.verify_certificate),
        )
        for name in ("check_feasibility", "find_violating_partition"):
            self._function(
                conditions,
                name,
                t.wrap("conditions.checker", getattr(conditions, name), skip_inside=VERDICT_STACK),
            )

        # simulation ---------------------------------------------------------
        def batch_done(index: int, args: tuple, kwargs: dict, outcome: Any) -> None:
            engine = args[0]
            rounds = outcome.rounds_executed
            batch = int(rounds.shape[0])
            count("simulation.row_rounds", batch * int(rounds.max(initial=0)))
            count("simulation.useful_row_rounds", int(rounds.sum()))
            if isinstance(engine, SparseEngine):
                plane = engine.plane_bytes_per_row * batch / 1e6
                t.counters["simulation.plane_mb"] = max(t.counters["simulation.plane_mb"], plane)

        def sparse_step(index: int, args: tuple, kwargs: dict, result: Any) -> None:
            count("simulation.sparse_node_rounds", int(result.size))

        for cls in (VectorizedEngine, SparseEngine, VectorizedAsyncEngine):
            self._method(cls, "__init__", lambda fn: t.wrap("simulation.build", fn))
            self._method(cls, "run_batch", lambda fn: t.wrap("simulation.loop", fn, after=batch_done))
        self._method(VectorizedEngine, "step_matrix", lambda fn: t.wrap("simulation.dense.step", fn))
        self._method(
            SparseEngine,
            "step_matrix",
            lambda fn: t.wrap("simulation.sparse.step", fn, after=sparse_step),
        )
        self._method(VectorizedAsyncEngine, "step_async", lambda fn: t.wrap("simulation.async.step", fn))
        self._method(SynchronousEngine, "step", lambda fn: t.wrap("simulation.scalar", fn))
        self._method(SynchronousEngine, "run", lambda fn: t.wrap("simulation.scalar", fn))
        self._method(PartiallyAsynchronousEngine, "run", lambda fn: t.wrap("simulation.scalar", fn))

        # adversary ----------------------------------------------------------
        def filled(index: int, args: tuple, kwargs: dict, values: Any) -> None:
            if t.open_count("adversary.fill") == 1:
                count("adversary.channels", int(values.size))

        for cls in _subclasses(BatchStrategy):
            self._method(cls, "edge_values", lambda fn: t.wrap("adversary.fill", fn, after=filled))
            self._method(cls, "nominal_values", lambda fn: t.wrap("adversary.fill", fn))


def _counted(tracer: Tracer, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``fn`` with a call counter and no span."""

    def counted(*args: Any, **kwargs: Any) -> Any:
        tracer.count(name)
        return fn(*args, **kwargs)

    return counted


def _subclasses(cls: type) -> list[type]:
    """``cls`` and every subclass of it loaded so far."""
    found = [cls]
    for sub in cls.__subclasses__():
        found += [c for c in _subclasses(sub) if c not in found]
    return found


def per_pass_metrics(
    tracer: Tracer,
    root: int,
    counters: dict[str, float],
    wall: float,
) -> dict[str, float]:
    """Per-layer metrics of the traced pass whose span is ``root``.

    ``counters`` holds the counter increments made during the pass and
    ``wall`` the pass wall time measured outside the tracer.  The verdict
    stack's self time is split by its ``LayerTiming`` records; the part no
    layer timed is ``conditions.stack_s``.  ``trace.self_sum_frac`` is the
    sum of every span's self time over the pass wall.
    """
    inside = tracer.descendants(root)
    self_times = tracer.self_times(inside)
    metrics = {name: 0.0 for name, _, _ in PER_LAYER_METRICS}
    for span, metric in _SELF_TIME_SPANS.items():
        metrics[metric] = self_times.get(span, 0.0)
    layer_total = 0.0
    for layer in VERDICT_LAYERS.values():
        seconds = counters.get(f"conditions.layer_s.{layer}", 0.0)
        metrics[f"conditions.{layer}_s"] = seconds
        layer_total += seconds
    metrics["conditions.stack_s"] = self_times.get("conditions.verdict", 0.0) - layer_total
    for name in _COUNTS:
        metrics[name] = counters.get(name, 0)
    wait = 0.0
    for index, cpu in tracer.cpu.items():
        if index > root and tracer.parents[index] not in tracer.cpu:
            wait += max(0.0, tracer.ends[index] - tracer.starts[index] - cpu)
    metrics["sweeps.store_wait_s"] = wait
    row_rounds = counters.get("simulation.row_rounds", 0)
    useful = counters.get("simulation.useful_row_rounds", 0)
    metrics["simulation.useful_row_rounds_frac"] = useful / row_rounds if row_rounds else 0.0
    sparse_s = metrics["simulation.sparse.step_s"]
    node_rounds = counters.get("simulation.sparse_node_rounds", 0)
    metrics["simulation.node_rounds_per_s"] = node_rounds / sparse_s if sparse_s else 0.0
    metrics["simulation.plane_mb"] = counters.get("simulation.plane_mb", 0.0)
    metrics["trace.self_sum_frac"] = sum(self_times.values()) / wall
    return metrics
