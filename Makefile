# Development entry points for the VaidyaTL12 reproduction.
#
#   make test        tier-1 test suite
#   make test-fast   test suite without the slow cross-engine parity sweeps
#   make lint        determinism/contract linter (reprolint) + typing
#                    ratchet (tools/check_typing_ratchet.py) + typed-API
#                    gate (mypy, skipped with a notice when not installed;
#                    CI installs it) + docstring-coverage gate
#   make bench       run the benchmark harness: every scenario, or only
#                    SCENARIO="engine scale ..."; rewrites BENCH_<scenario>.json
#   make bench-smoke every scenario's refusal guard and timed paths at smoke
#                    size; writes no file (CI runs this on every push)
#   make docs-check  docs exist, examples in them import, docstrings covered
#   make sweep-smoke end-to-end CLI sweep: run tiny grids with two workers,
#                    re-open them with `repro report`, and resume one after
#                    deleting one cell's shard file; then the Theorem-1
#                    search through `repro run checker_scaling` and
#                    `repro verdict chord --n 28 --f 1`

PYTHON ?= python
export PYTHONPATH := src:tools$(if $(PYTHONPATH),:$(PYTHONPATH))

# The docstring gate covers the library, the sweeps/CLI layer and the
# benchmark harness; --require guards against a package silently leaving
# the scan.
DOCSTRING_GATE = $(PYTHON) tools/check_docstrings.py \
	--root src/repro --root benchmarks --root tools/reprolint \
	--require reprolint.engine --require reprolint.pragmas \
	--require repro.cli --require repro.sweeps.registry \
	--require repro.sweeps.orchestrator --require repro.sweeps.store \
	--require repro.sweeps.schema \
	--require repro.conditions.bitset --require repro.conditions.verdict \
	--require repro.adversary.vectorized --require repro.graphs.digraph \
	--require repro.simulation.sparse \
	--require repro.simulation.dynamic \
	--require repro.simulation.native \
	--require repro.native --require repro.conditions.search_kernel

# The two-cell sweep that sweep-smoke runs, interrupts and resumes.
SMOKE_RUN = $(PYTHON) -m repro run convergence_rate \
	--grid "case=complete n=4 f=1,core n=7 f=2" \
	--grid batch=8 --grid rounds=80 \
	--workers 2 --results-dir .sweep-smoke --run-id smoke

.PHONY: test test-fast lint bench bench-smoke docs-check sweep-smoke

test:
	$(PYTHON) -m pytest -x -q

test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# The unified lint gate: the contract linter (zero findings, zero
# unexplained suppressions), the typing ratchet (no ignore_errors in
# mypy.ini, strict-section count non-decreasing, strict packages fully
# annotated — runs without mypy), the typed-API gate, and the docstring
# gate (folded in here so `make test` stays fast).  mypy is optional
# locally; CI installs it so the typed-API gate always runs there.
lint:
	$(PYTHON) -m reprolint src/repro
	$(PYTHON) tools/check_typing_ratchet.py
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		echo "mypy typed-API gate (mypy.ini)"; \
		$(PYTHON) -m mypy --config-file mypy.ini; \
	else \
		echo "mypy not installed; typed-API gate skipped (CI installs mypy)"; \
	fi
	$(DOCSTRING_GATE)

bench:
	$(PYTHON) benchmarks/harness.py $(SCENARIO)

# Smoke mode never opens an output file, so the committed BENCH files stay
# untouched.
bench-smoke:
	$(PYTHON) benchmarks/harness.py --smoke

docs-check:
	@test -f README.md || { echo "README.md missing"; exit 1; }
	@test -f docs/architecture.md || { echo "docs/architecture.md missing"; exit 1; }
	@test -f docs/performance.md || { echo "docs/performance.md missing"; exit 1; }
	@test -f docs/cli.md || { echo "docs/cli.md missing"; exit 1; }
	@test -f docs/experiments.md || { echo "docs/experiments.md missing"; exit 1; }
	@test -f docs/contracts.md || { echo "docs/contracts.md missing"; exit 1; }
	$(DOCSTRING_GATE)
	@echo "docs OK"

sweep-smoke:
	rm -rf .sweep-smoke
	$(PYTHON) -m repro list
	$(SMOKE_RUN)
	$(PYTHON) -m repro report smoke --results-dir .sweep-smoke
	# Interrupted run: the shard files are the progress that report and
	# resume read, whatever the manifest says.
	rm .sweep-smoke/smoke/shard_0001.json .sweep-smoke/smoke/aggregate.json
	$(PYTHON) -m repro report smoke --results-dir .sweep-smoke > .sweep-smoke/out.txt
	grep "cells: *1 of 2 stored" .sweep-smoke/out.txt
	grep "no aggregate" .sweep-smoke/out.txt
	$(SMOKE_RUN) > .sweep-smoke/out.txt
	grep "1 already complete, 1 to run" .sweep-smoke/out.txt
	$(PYTHON) -m repro report smoke --results-dir .sweep-smoke > .sweep-smoke/out.txt
	grep "status: *complete" .sweep-smoke/out.txt
	grep "cells: *2 of 2 stored" .sweep-smoke/out.txt
	$(PYTHON) -m repro run dynamic_topology \
		--grid "case=core n=9 f=2" \
		--grid "schedule_kind=static,composed" \
		--grid batch=8 --grid rounds=30 \
		--workers 2 --results-dir .sweep-smoke --run-id smoke-dynamic
	$(PYTHON) -m repro report smoke-dynamic --results-dir .sweep-smoke
	$(PYTHON) -m repro run churn_sweep \
		--grid "p_awake=1.0,0.75" --grid batch=8 --grid rounds=60 \
		--workers 2 --results-dir .sweep-smoke --run-id smoke-churn
	$(PYTHON) -m repro report smoke-churn --results-dir .sweep-smoke
	$(PYTHON) -m repro run feasibility_at_scale \
		--grid "case=core-like n=100 f=3,hetring n=100 f=2 extra=0.5" \
		--workers 2 --results-dir .sweep-smoke --run-id smoke-scale
	$(PYTHON) -m repro report smoke-scale --results-dir .sweep-smoke
	# E14 through the CLI: the n = 2000 float64 cell runs the scalar
	# guard (which builds the lattice's neighbour sets), the others read
	# only its edge arrays.  The n = 20000 cells (2 rows x 1.6e5 plane
	# slots) are above the compiled kernel's split threshold, so the
	# forked workers split their rounds across threads.
	$(PYTHON) -m repro run large_n \
		--grid n=2000,5000,20000 --grid dtype=float64,float32 \
		--grid batch=2 --grid rounds=3 \
		--workers 2 --results-dir .sweep-smoke --run-id smoke-large-n
	$(PYTHON) -m repro report smoke-large-n --results-dir .sweep-smoke
	# The Theorem-1 search end to end: E10b sweeps every candidate L of
	# graphs up to n = 24, and chord n = 28 spends the DPLL solver's whole
	# decision budget; both run compiled where a C compiler exists.
	$(PYTHON) -c "from repro.conditions import search_kernel; print(search_kernel.status())"
	$(PYTHON) -m repro run checker_scaling \
		--workers 2 --results-dir .sweep-smoke --run-id smoke-checker
	$(PYTHON) -m repro report smoke-checker --results-dir .sweep-smoke
	$(PYTHON) -m repro verdict chord --n 28 --f 1
	rm -rf .sweep-smoke
	@echo "sweep smoke OK"
