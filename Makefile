.PHONY: test acceptance figures demos same-outputs mutants selfcheck sloc clean

# run from the source tree: no install step needed
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

test:
	pytest -q

acceptance:
	pytest tests/test_acceptance.py -v -s

figures:
	sh scripts/make_figures.sh

# smoke-run every demo script from the source tree (about half a minute)
demos:
	@for f in demos/*.py; do echo "== $$f"; python3 $$f || exit 1; done

# byte-compare figures, their stdout, demo stdout and the acceptance lines against a revision: make same-outputs REV=HEAD
same-outputs:
	sh scripts/same_outputs.sh $(REV)

# apply each kernel and FD mutant of scripts/mutants.py to a fresh copy and require a
# failing test (a few minutes; not part of tier-1)
mutants:
	python3 scripts/mutants.py

# the benchmark harness's self-check at tiny sizes (about a minute)
selfcheck:
	python3 perfbench/selfcheck.py

# the counted src/ lines (neither blank nor comment-only) that simplicity changes report
sloc:
	@cat src/cblab/*.py | grep -v '^\s*$$' | grep -v '^\s*#' | wc -l

clean:
	rm -rf out build *.egg-info src/*.egg-info .pytest_cache
