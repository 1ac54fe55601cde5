.PHONY: test acceptance figures clean

# run from the source tree: no install step needed
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

test:
	pytest -q

acceptance:
	pytest tests/test_acceptance.py -v -s

figures:
	sh scripts/make_figures.sh

clean:
	rm -rf out build *.egg-info src/*.egg-info .pytest_cache
