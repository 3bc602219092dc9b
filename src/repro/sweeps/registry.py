"""The experiment registry: named, rerunnable paper experiments.

The experiment driver modules under :mod:`repro.experiments` register their
entry points with :func:`register_experiment` (one per module, plus the
``checker_scaling`` sweep riding in the checker module), declaring

* the **parameter grid** the experiment sweeps by default (a mapping from
  parameter name to the tuple of values; the Cartesian product forms the
  cells the orchestrator runs),
* the **engine** the cells execute on (``vectorized``, ``vectorized-async``,
  ``scalar-sync``, ``checker`` for pure condition evaluation, or ``mixed``),
* the **paper section** and the one-line **claim** the experiment reproduces.

The registered runner is a plain function taking one grid cell's parameters
as keyword arguments (all JSON-serialisable scalars) and returning a list of
row dictionaries.  Its ``-> list[Row]`` return annotation names the row
``TypedDict``, from which registration derives the experiment's
:class:`~repro.sweeps.schema.RowSchema` once.  Runners that accept a
``seed`` keyword are seeded by the orchestrator from the run's root
``SeedSequence`` unless the grid pins the seed explicitly, so every cell is
reproducible in isolation and independent of which worker processes it.

Registration happens at import time of the experiment modules; the registry
loads them lazily on first access, so importing :mod:`repro.sweeps` alone
stays cheap.
"""

from __future__ import annotations

import importlib
import inspect
import threading
from dataclasses import dataclass
from typing import (
    Callable,
    Mapping,
    Sequence,
    TypeVar,
    get_args,
    get_origin,
    get_type_hints,
    is_typeddict,
)

from repro.exceptions import InvalidParameterError
from repro.sweeps.schema import RowSchema, schema_from_typeddict

#: The shape every registered runner satisfies: keyword cell parameters in,
#: a sequence of row mappings out.  ``Sequence[Mapping[...]]`` rather than
#: ``list[dict[...]]`` so runners annotated with their own ``TypedDict``
#: rows (which are ``Mapping``- but not ``dict``-compatible) still conform.
RowFn = Callable[..., Sequence[Mapping[str, object]]]

#: Decorator-preserving type variable: ``@register_experiment(...)`` returns
#: the runner unchanged, with its precise row type intact.
F = TypeVar("F", bound=RowFn)

#: A labelled case tuple: its first element is the label a grid sweeps.
T = TypeVar("T", bound=tuple)

#: Module whose import registers every experiment (its ``__init__`` pulls in
#: all driver modules).
EXPERIMENTS_MODULE = "repro.experiments"


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: metadata, default grid and runner.

    Attributes
    ----------
    name:
        Registry key, also the CLI argument (``repro run <name>``).
    paper_section:
        The section / theorem of Vaidya–Tseng–Liang (PODC 2012) the
        experiment reproduces, plus the historical driver id (E1–E12).
    claim:
        One sentence stating what the experiment demonstrates.
    engine:
        Which execution path the cells use (``vectorized``,
        ``vectorized-async``, ``scalar-sync``, ``checker`` or ``mixed``).
    grid:
        Default parameter grid; the Cartesian product of the value tuples
        (in declaration order, last key fastest) forms the sweep cells.
    runner:
        ``runner(**cell_params) -> list[dict]``; one call per cell.
    schema:
        The :class:`~repro.sweeps.schema.RowSchema` every row the runner
        emits must satisfy, derived at registration from the runner's
        ``-> list[Row]`` annotation; the orchestrator validates rows against
        it at shard boundaries and persists it in the run manifest.
    description:
        First line of the runner's docstring (shown by ``repro list``).
    accepts_seed:
        Whether the runner takes a ``seed`` keyword; if so and the grid does
        not pin ``seed``, the orchestrator injects a per-cell seed derived
        from the run's root ``SeedSequence``.
    """

    name: str
    paper_section: str
    claim: str
    engine: str
    grid: Mapping[str, tuple]
    runner: RowFn
    schema: RowSchema
    description: str
    accepts_seed: bool

    @property
    def default_cell_count(self) -> int:
        """Number of cells in the default grid."""
        count = 1
        for values in self.grid.values():
            count *= len(values)
        return count


_REGISTRY: dict[str, ExperimentSpec] = {}
_LOAD_LOCK = threading.Lock()
_LOADED = False


def register_experiment(
    name: str,
    *,
    paper_section: str,
    claim: str,
    engine: str,
    grid: Mapping[str, Sequence[object]],
) -> Callable[[F], F]:
    """Class the decorated function as the registry entry point ``name``.

    The decorator validates the grid (non-empty value tuples, parameter names
    matching the runner's signature), derives the experiment's
    :class:`~repro.sweeps.schema.RowSchema` from the runner's
    ``-> list[Row]`` annotation, and records an :class:`ExperimentSpec`;
    the function itself is returned unchanged so it stays directly callable
    and importable.
    """
    normalized = {str(key): tuple(values) for key, values in grid.items()}
    for key, values in normalized.items():
        if not values:
            raise InvalidParameterError(
                f"experiment {name!r}: grid parameter {key!r} has no values"
            )

    def decorate(runner: F) -> F:
        if name in _REGISTRY:
            raise InvalidParameterError(
                f"experiment {name!r} is already registered "
                f"(by {_REGISTRY[name].runner.__module__})"
            )
        parameters = inspect.signature(runner).parameters
        for key in normalized:
            if key not in parameters:
                raise InvalidParameterError(
                    f"experiment {name!r}: grid parameter {key!r} is not a "
                    f"parameter of {runner.__qualname__}"
                )
        doc = inspect.getdoc(runner) or ""
        description = doc.splitlines()[0] if doc else ""
        _REGISTRY[name] = ExperimentSpec(
            name=name,
            paper_section=paper_section,
            claim=claim,
            engine=engine,
            grid=normalized,
            runner=runner,
            schema=_row_schema(name, runner),
            description=description,
            accepts_seed="seed" in parameters,
        )
        return runner

    return decorate


def _row_schema(name: str, runner: RowFn) -> RowSchema:
    """The row schema of experiment ``name``, read from ``runner``'s
    ``-> list[Row]`` return annotation.

    Raises :class:`InvalidParameterError` naming the experiment when the
    annotation is missing or its row type is not a ``TypedDict``, and, from
    :func:`~repro.sweeps.schema.schema_from_typeddict`, naming the column
    whose role is missing or doubled.  Registration calls this once; the
    spec keeps the result, since a wrapped runner may carry no annotation.
    """
    returns = get_type_hints(runner, include_extras=True).get("return")
    args = get_args(returns)
    if not (
        get_origin(returns) is list and len(args) == 1 and is_typeddict(args[0])
    ):
        raise InvalidParameterError(
            f"experiment {name!r}: {runner.__qualname__} must be annotated "
            f"'-> list[Row]' with a TypedDict row type, got {returns!r}"
        )
    try:
        return schema_from_typeddict(args[0])
    except InvalidParameterError as error:
        raise InvalidParameterError(f"experiment {name!r}: {error}") from None


def _ensure_loaded() -> None:
    """Import the experiments package once so every decorator has run."""
    global _LOADED
    if _LOADED:
        return
    with _LOAD_LOCK:
        if _LOADED:
            return
        importlib.import_module(EXPERIMENTS_MODULE)
        _LOADED = True


def all_experiments() -> dict[str, ExperimentSpec]:
    """Return every registered experiment, sorted by name."""
    _ensure_loaded()
    return dict(sorted(_REGISTRY.items()))


def get_experiment(name: str) -> ExperimentSpec:
    """Return the spec registered under ``name`` or raise with the known names."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise InvalidParameterError(
            f"unknown experiment {name!r}; registered experiments: {known}"
        ) from None


def select_labelled_case(label: str, cases: Sequence[T], kind: str) -> T:
    """Return the entry of ``cases`` whose label (first element) is ``label``.

    The registry cells sweep over labelled case tuples; this is their shared
    label → case lookup, raising with the list of known labels on a miss.
    """
    for entry in cases:
        if entry[0] == label:
            return entry
    known = ", ".join(str(entry[0]) for entry in cases)
    raise InvalidParameterError(f"unknown {kind} {label!r}; known: {known}")
