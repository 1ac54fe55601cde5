.PHONY: test acceptance figures demos clean

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

clean:
	rm -rf out build *.egg-info src/*.egg-info .pytest_cache
