# Tier-1 gate: `make ci` is what a reviewer (or a pipeline) runs.
#
#   build  — everything, including examples and benches
#   test   — the full alcotest/qcheck suite
#   smoke  — end-to-end check of the persistent analysis store: analyze the
#            same file twice through a fresh cache and require the second
#            run to be a warm start with a results hit; then analyze a
#            malformed .c file and require exit 1 with a located
#            `vsfs: FILE: parse error at line N` diagnostic (not exit 125);
#            finally cross-check SFS against VSFS (`--check`) on mruby, a
#            dispatch-heavy program with many δ nodes
#   bench-smoke — scale-0.1 Table III run with --json; checks the
#            machine-readable output carries the interning metrics, that
#            the hierarchical-set counters (blocks_shared, summary_skips)
#            are present, and that SFS and VSFS agree. At this scale both
#            counters read 0, so the greps prove only that the keys exist;
#            test_andersen's "mega workload shares blocks" is the check
#            that requires non-zero sharing
#   fuzz-smoke — bounded differential-fuzzing run (fixed seed, all
#            oracles); any failure means a solver-stage disagreement
#   engine-smoke — run a tiny benchmark through SFS and VSFS under every
#            engine scheduler (fifo, topo, lrf) and require byte-identical
#            reports
#   par-smoke — run the bench table and the fuzz campaign at --jobs 1 and
#            --jobs 4 and require identical output: byte-identical fuzz
#            reports, and bench JSON identical after zeroing the timing
#            fields (seconds, wall_seconds, ...) that legitimately move
#   serve-smoke — start a resident daemon, require its report to match a
#            batch `analyze` run bit-for-bit, append one function to the
#            source, reload, and require the re-analysis to splice (reused
#            functions > 0) while the report still matches the batch run
#   lattice-smoke — a resident daemon must answer tiered queries
#            (unify/andersen echoed, exact silent)
#   ci     — all of the above
#
# Every smoke recipe runs in one shell that makes its own scratch directory
# (/tmp/pta-ci-<target>.XXXXXX) and removes it on exit, pass or fail, so no
# target leaves anything behind in /tmp.

DUNE ?= dune
SCHEDULERS := fifo topo lrf
# shell prologue of every smoke recipe: stop at the first failing command,
# trace each one, and give the recipe a scratch directory $$d
SCRATCH = set -ex; d=$$(mktemp -d /tmp/pta-ci-$@.XXXXXX); trap 'rm -rf "$$d"' EXIT
# every field here is wall-clock-derived; everything else must match exactly
PAR_TIMING_SED := s/"(seconds|pre_seconds|wall_seconds|andersen_s|time_ratio|jobs)": *[0-9.eE+-]+/"\1": 0/g

.PHONY: ci build test smoke bench-smoke fuzz-smoke engine-smoke par-smoke \
	serve-smoke lattice-smoke clean

ci: build test smoke bench-smoke fuzz-smoke engine-smoke par-smoke \
	serve-smoke lattice-smoke

build:
	$(DUNE) build @all

test:
	$(DUNE) runtest

smoke: build
	@$(SCRATCH); \
	$(DUNE) exec bin/vsfs_cli.exe -- gen --bench du --scale 0.2 -o $$d/du.c; \
	$(DUNE) exec bin/vsfs_cli.exe -- analyze $$d/du.c --cache-dir $$d --stats | grep -q "cache: build cold"; \
	$(DUNE) exec bin/vsfs_cli.exe -- analyze $$d/du.c --cache-dir $$d --stats > $$d/warm.out; \
	grep -q "cache: build warm" $$d/warm.out; \
	grep -q "cache: vsfs results hit" $$d/warm.out; \
	grep -q "store.hits" $$d/warm.out; \
	$(DUNE) exec bin/vsfs_cli.exe -- cache ls --cache-dir $$d; \
	$(DUNE) exec bin/vsfs_cli.exe -- cache clear --cache-dir $$d; \
	printf 'int main() { int *p = ; }\n' > $$d/bad.c; \
	rc=0; ./_build/default/bin/vsfs_cli.exe analyze $$d/bad.c 2> $$d/bad.err || rc=$$?; \
	test $$rc -eq 1; \
	grep -q "^vsfs: $$d/bad.c: parse error at line 1: " $$d/bad.err; \
	$(DUNE) exec bin/vsfs_cli.exe -- gen --bench mruby --scale 0.2 -o $$d/mruby.c; \
	$(DUNE) exec bin/vsfs_cli.exe -- analyze $$d/mruby.c --check > $$d/check.out; \
	grep -q '^check: SFS and VSFS agree' $$d/check.out
	@echo "== smoke OK =="

bench-smoke: build
	@$(SCRATCH); \
	$(DUNE) exec bench/main.exe -- tableIII 0.1 --json $$d/bench.json > /dev/null; \
	grep -q '"unique_sets"' $$d/bench.json; \
	grep -q '"hit_rate"' $$d/bench.json; \
	grep -q '"dedup_sfs"' $$d/bench.json; \
	grep -q '"blocks_shared"' $$d/bench.json; \
	grep -q '"summary_skips"' $$d/bench.json; \
	grep -q '"equal": true' $$d/bench.json; \
	if grep -q '"equal": false' $$d/bench.json; then exit 1; fi
	@echo "== bench smoke OK =="

fuzz-smoke: build
	@echo "== fuzz smoke (50 runs, seed 1, full oracle tower) =="
	$(DUNE) exec bin/vsfs_cli.exe -- fuzz --runs 50 --seed 1
	@echo "== fuzz smoke OK =="

engine-smoke: build
	@$(SCRATCH); \
	$(DUNE) exec bin/vsfs_cli.exe -- gen --bench du --scale 0.15 -o $$d/du.c; \
	for a in sfs vsfs; do \
	  for s in $(SCHEDULERS); do \
	    $(DUNE) exec bin/vsfs_cli.exe -- analyze $$d/du.c \
	      --analysis $$a --scheduler $$s > $$d/$$a-$$s.out; \
	    cmp $$d/$$a-fifo.out $$d/$$a-$$s.out; \
	  done; \
	done
	@echo "== engine smoke OK =="

par-smoke: build
	@$(SCRATCH); \
	$(DUNE) exec bench/main.exe -- tableIII 0.1 --jobs 1 --json $$d/bench-j1.json > /dev/null; \
	$(DUNE) exec bench/main.exe -- tableIII 0.1 --jobs 4 --json $$d/bench-j4.json > /dev/null; \
	sed -E '$(PAR_TIMING_SED)' $$d/bench-j1.json > $$d/bench-j1.norm; \
	sed -E '$(PAR_TIMING_SED)' $$d/bench-j4.json > $$d/bench-j4.norm; \
	cmp $$d/bench-j1.norm $$d/bench-j4.norm; \
	$(DUNE) exec bin/vsfs_cli.exe -- fuzz --runs 30 --seed 2 --jobs 1 > $$d/fuzz-j1.out; \
	$(DUNE) exec bin/vsfs_cli.exe -- fuzz --runs 30 --seed 2 --jobs 4 > $$d/fuzz-j4.out; \
	cmp $$d/fuzz-j1.out $$d/fuzz-j4.out
	@echo "== par smoke OK =="

# The daemon runs for the whole recipe, so everything here calls the built
# binary directly: a `dune exec` alongside a long-lived `dune exec` child
# can deadlock on dune's project lock. Once the daemon is up, the exit trap
# also stops it.
VSFS_BIN := ./_build/default/bin/vsfs_cli.exe

serve-smoke: build
	@$(SCRATCH); \
	$(VSFS_BIN) gen --bench du --scale 0.2 -o $$d/du.c; \
	$(VSFS_BIN) analyze $$d/du.c --analysis sfs \
	  | grep '^pt(' > $$d/batch.out; \
	$(VSFS_BIN) serve $$d/du.c \
	  --socket $$d/d.sock --cache-dir $$d/store \
	  > $$d/daemon.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf "$$d"' EXIT; \
	$(VSFS_BIN) query --socket $$d/d.sock \
	  --retries 600 report > $$d/daemon.out; \
	cmp $$d/batch.out $$d/daemon.out; \
	printf '\nfunc fresh_edit(q) { var t; t = *q; return; }\n' >> $$d/du.c; \
	$(VSFS_BIN) analyze $$d/du.c --analysis sfs \
	  | grep '^pt(' > $$d/batch2.out; \
	$(VSFS_BIN) query --socket $$d/d.sock reload > $$d/reload.out; \
	cat $$d/reload.out; \
	grep -Eq 'reused=[1-9]' $$d/reload.out; \
	$(VSFS_BIN) query --socket $$d/d.sock report > $$d/daemon2.out; \
	cmp $$d/batch2.out $$d/daemon2.out; \
	$(VSFS_BIN) query --socket $$d/d.sock shutdown; \
	wait $$pid
	@echo "== serve smoke OK =="

lattice-smoke: build
	@$(SCRATCH); \
	$(VSFS_BIN) gen --bench du --scale 0.15 -o $$d/du.c; \
	$(VSFS_BIN) serve $$d/du.c --socket $$d/d.sock \
	  --cache-dir $$d/store > $$d/daemon.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf "$$d"' EXIT; \
	name=$$($(VSFS_BIN) query --socket $$d/d.sock --retries 600 \
	  vars | head -1); \
	$(VSFS_BIN) query --socket $$d/d.sock \
	  --tier unify points-to $$name > $$d/unify.out; \
	grep -q '^tier: unify' $$d/unify.out; \
	grep -q '^pt(' $$d/unify.out; \
	$(VSFS_BIN) query --socket $$d/d.sock \
	  --tier andersen points-to $$name > $$d/andersen.out; \
	grep -q '^tier: andersen' $$d/andersen.out; \
	$(VSFS_BIN) query --socket $$d/d.sock \
	  points-to $$name > $$d/exact.out; \
	if grep -q '^tier:' $$d/exact.out; then exit 1; fi; \
	grep -q '^pt(' $$d/exact.out; \
	$(VSFS_BIN) query --socket $$d/d.sock shutdown; \
	wait $$pid
	@echo "== lattice smoke OK =="

clean:
	$(DUNE) clean
