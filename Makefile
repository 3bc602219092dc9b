# Development entry points for the VaidyaTL12 reproduction.
#
#   make test        tier-1 test suite
#   make test-fast   test suite without the slow cross-engine parity sweeps
#   make lint        determinism/contract linter (reprolint) + typing
#                    ratchet (tools/check_typing_ratchet.py) + typed-API
#                    gate (mypy, skipped with a notice when not installed;
#                    CI installs it) + docstring-coverage gate
#   make bench       synchronous engine benchmark -> BENCH_engine.json
#   make bench-smoke tiny-n scalar/vectorized equivalence-guarded engine
#                    benchmark run (output to a temp dir; CI runs this on
#                    every push)
#   make bench-async asynchronous engine benchmark -> BENCH_async.json
#   make bench-async-smoke tiny-n scalar/vectorized async equivalence-guarded
#                    benchmark run (output to a temp dir; CI runs this on
#                    every push)
#   make bench-checker legacy-vs-bitset checker benchmark -> BENCH_checker.json
#   make bench-checker-smoke tiny-n equivalence-guarded checker benchmark run
#                    (no file written; CI runs this on every push)
#   make bench-adversary batch-native vs adapter adversary benchmark
#                    -> BENCH_adversary.json
#   make bench-adversary-smoke tiny-n equivalence-guarded adversary benchmark
#                    run (no file written; CI runs this on every push)
#   make bench-scale sparse-engine scale benchmark up to n=10^5
#                    -> BENCH_scale.json
#   make bench-scale-smoke tiny-n scale run: scalar/vectorized equivalence
#                    guard (no file written; CI runs this on every push)
#   make bench-verdict layered feasibility-verdict benchmark with parity and
#                    certificate guards -> BENCH_verdict.json
#   make bench-verdict-smoke parity + certificate guards and one tiny timed
#                    battery (no file written; CI runs this on every push)
#   make bench-dynamic dynamic-topology masking-overhead benchmark
#                    -> BENCH_dynamic.json
#   make bench-dynamic-smoke tiny-n dynamic run: scalar/vectorized
#                    equivalence guard under the composed schedule (no file
#                    written; CI runs this on every push)
#   make docs-check  docs exist, examples in them import, docstrings covered
#   make sweep-smoke end-to-end CLI sweep: run a tiny sharded grid with two
#                    workers, then re-open it with `repro report`

PYTHON ?= python
export PYTHONPATH := src:tools$(if $(PYTHONPATH),:$(PYTHONPATH))

# The docstring gate covers the library, the sweeps/CLI layer and the
# benchmark scripts; --require guards against a package silently leaving
# the scan.
DOCSTRING_GATE = $(PYTHON) tools/check_docstrings.py \
	--root src/repro --root benchmarks --root tools/reprolint \
	--require reprolint.engine --require reprolint.pragmas \
	--require repro.cli --require repro.sweeps.registry \
	--require repro.sweeps.orchestrator --require repro.sweeps.store \
	--require repro.sweeps.schema \
	--require repro.conditions.bitset --require repro.conditions.verdict \
	--require repro.adversary.vectorized \
	--require repro.simulation.sparse \
	--require repro.simulation.dynamic

.PHONY: test test-fast lint bench bench-smoke bench-async bench-async-smoke bench-checker bench-checker-smoke bench-adversary bench-adversary-smoke bench-scale bench-scale-smoke bench-verdict bench-verdict-smoke bench-dynamic bench-dynamic-smoke docs-check sweep-smoke

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
	$(PYTHON) benchmarks/bench_engine.py

# The two smoke runs write their payload into a temporary directory, so the
# committed BENCH files are never touched.
bench-smoke:
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(PYTHON) benchmarks/bench_engine.py --n 20 --batch 4 --rounds 3 \
		--scalar-runs 1 --out "$$tmp/BENCH_engine.json" > /dev/null
	@echo "bench smoke OK: scalar/vectorized equivalence guard passed"

bench-async:
	$(PYTHON) benchmarks/bench_async.py

bench-async-smoke:
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(PYTHON) benchmarks/bench_async.py --n 20 --batch 4 --rounds 3 \
		--scalar-runs 1 --out "$$tmp/BENCH_async.json" > /dev/null
	@echo "bench-async smoke OK: scalar/vectorized async equivalence guard passed"

bench-checker:
	$(PYTHON) benchmarks/bench_checker.py

bench-checker-smoke:
	$(PYTHON) benchmarks/bench_checker.py --smoke

bench-adversary:
	$(PYTHON) benchmarks/bench_adversary.py

bench-adversary-smoke:
	$(PYTHON) benchmarks/bench_adversary.py --smoke

bench-scale:
	$(PYTHON) benchmarks/bench_scale.py

bench-scale-smoke:
	$(PYTHON) benchmarks/bench_scale.py --smoke
	@git diff --quiet -- BENCH_scale.json || { echo "bench-scale-smoke must not modify BENCH_scale.json"; exit 1; }

bench-verdict:
	$(PYTHON) benchmarks/bench_verdict.py

bench-verdict-smoke:
	$(PYTHON) benchmarks/bench_verdict.py --smoke
	@git diff --quiet -- BENCH_verdict.json || { echo "bench-verdict-smoke must not modify BENCH_verdict.json"; exit 1; }

bench-dynamic:
	$(PYTHON) benchmarks/bench_dynamic.py

bench-dynamic-smoke:
	$(PYTHON) benchmarks/bench_dynamic.py --smoke
	@git diff --quiet -- BENCH_dynamic.json || { echo "bench-dynamic-smoke must not modify BENCH_dynamic.json"; exit 1; }

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
	$(PYTHON) -m repro run convergence_rate \
		--grid "case=complete n=4 f=1,core n=7 f=2" \
		--grid batch=8 --grid rounds=80 \
		--workers 2 --results-dir .sweep-smoke --run-id smoke
	$(PYTHON) -m repro report smoke --results-dir .sweep-smoke
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
	rm -rf .sweep-smoke
	@echo "sweep smoke OK"
