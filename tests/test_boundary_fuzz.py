"""Property tests that fuzz the library's input boundaries with Hypothesis.

A boundary must answer every input with a correct value or a documented
exception (a :class:`~repro.exceptions.ReproError`), never a bare
``TypeError``, ``KeyError`` or ``ValueError``.
"""

from __future__ import annotations

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
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
