"""Rollback-kernel identities: batched = pointwise, chunked = unchunked, and
the current kernel = the kernel it replaced, all bit for bit
(`np.array_equal`).

The reference digests were recorded with the previous, unblocked single-thread
kernel on the input sweeps of acceptance criteria 1-4 plus a putable variant
that makes every constraint bind.  The FD digests were recorded with the
explicit solver as it stood before it shared the lattice's decision kernel.
A digest is sha256 over the raw float64 / int64 bytes, so any last-bit change
in any output fails here.
"""

import hashlib
import tracemalloc
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from test_reference_roller import (
    assert_one_geometry,
    block_width,
    certificate_verdicts,
    small_budget,
)

from cblab import (
    FDGrid,
    PutTerms,
    VaRSpec,
    lattice,
    reference_market,
    reference_terms,
    rollback_batch,
    simulate_stock,
    solve_tf_fd,
    year_fraction,
)

TABLE1 = reference_terms()
MARKET = reference_market()
ISSUE = date(2002, 1, 2)
JAN2004 = date(2004, 1, 2)


def _sweeps():
    """name -> (terms, t0, spots, steps, front_layers)."""
    c4 = VaRSpec(eval_date=JAN2004, spot=100.0, n_scenarios=1000, seed=0, steps=500)
    putable = replace(TABLE1, put=PutTerms(98.0, date(2003, 1, 2), date(2005, 1, 2)))
    c3_grid = np.arange(50.0, 200.0 + 1e-9, 0.5)
    return {
        "c1_n500": (TABLE1, JAN2004, np.round(np.arange(105.0, 112.0001, 0.1), 6), 500, 0),
        "c1_n750": (TABLE1, JAN2004, np.round(np.arange(105.0, 112.0001, 0.1), 6), 750, 0),
        "c2_greeks": (TABLE1, JAN2004, np.round(np.arange(90.0, 120.0001, 0.1), 6), 500, 2),
        "c3_base": (TABLE1, ISSUE, c3_grid, 500, 1),
        "c3_bumped": (TABLE1, ISSUE, c3_grid + 0.5, 500, 0),
        "c4_scenarios": (TABLE1, c4.horizon_date, simulate_stock(c4), 500, 0),
        "putable": (putable, JAN2004, np.arange(40.0, 200.0 + 1e-9, 1.0), 300, 2),
    }


def sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:24]


def _digests(res) -> dict:
    digests = {"equity": sha(res.equity), "debt": sha(res.debt), "fronts": sha(*res.fronts)}
    if res.binds is not None:
        digests["binds"] = sha(*res.binds)  # rows: conversion, call, put
    return digests


# recorded with the previous kernel; see the module docstring
REFERENCE = {
    "c1_n500": {
        "equity": "bdfd97b9c51ff9a75986518a",
        "debt": "06f7d432730e77bd40b0c469",
        "binds": "3d3bbcbcac19c1a92bbed5e7",
        "fronts": "1471d7e96dbb533919861f38",
    },
    "c1_n750": {
        "equity": "66fd982bb160a3434f858b54",
        "debt": "bf9b09c7c691561dd76e0f4b",
        "binds": "2421cb5fd38289ab833c170a",
        "fronts": "816a5af53d73c32513abaf93",
    },
    "c2_greeks": {
        "equity": "3ed765c2d0674463afefbe61",
        "debt": "4603f83c0fc4b4202bb8cba2",
        "binds": "9a4d388282e6c027f068acc1",
        "fronts": "13ae38261783e938d66f9c7a",
    },
    "c3_base": {
        "equity": "2909df0008e3722066920ade",
        "debt": "9644b09ca24a5f4b0767ba43",
        "binds": "ee72bb86a4b5bd03d06eec95",
        "fronts": "f6a2803d3937400462f814d9",
    },
    "c3_bumped": {
        "equity": "baa662cb3a7f9cfcc92149fd",
        "debt": "1f1d952e16df228723800593",
        "binds": "e71454cf124fa0765fd64cf9",
        "fronts": "d587c811162267b9ccb20ad7",
    },
    "c4_scenarios": {
        "equity": "5978cad5b0849e5b0d3074f4",
        "debt": "0a42dc33348f37ae36d730eb",
        "binds": "909ae8889fd197bc76398101",
        "fronts": "2879374ad75a1d732c0abbf5",
    },
    "putable": {
        "equity": "46bcd26130c6886b81de3a03",
        "debt": "485e611ea611fec26e97790d",
        "binds": "af89f38f32d1ff7ed76afee8",
        "fronts": "2934047296189845038d2351",
    },
}


@pytest.fixture(scope="module")
def sweeps():
    return _sweeps()


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_matches_previous_kernel(sweeps, name):
    """A rollback without bind counts and one with them match, in the
    blocks that both run."""
    terms, t0, spots, steps, front_layers = sweeps[name]
    plain = rollback_batch(terms, MARKET, t0, spots, steps, front_layers=front_layers)
    counted = rollback_batch(terms, MARKET, t0, spots, steps, front_layers=front_layers,
                             binds=True)
    assert _digests(plain) == {k: v for k, v in REFERENCE[name].items() if k != "binds"}
    assert _digests(counted) == REFERENCE[name]


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_counted_rollback_runs_the_plain_geometry(sweeps, name):
    terms, t0, spots, steps, front_layers = sweeps[name]
    assert_one_geometry((terms, t0, MARKET), spots, steps, front_layers)


# solve_tf_fd on a 101-node auto grid, default snapshots (41 stored layers)
# except "compare_2004", which stores only t0 and expiry as `cblab compare`
# does; "conversion_ends_2006" has no conversion at expiry, so the S_max row
# takes the conversion value up to 2006-01-02 and the debt value after it.
# "compare_2004" was recorded with the solver that held V and B as two rows
# allocated afresh every layer; "conversion_ends_2006" was re-recorded when
# the S_max row began to follow the conversion window layer by layer.
FD_REFERENCE = {
    "reference_2004": {
        "value": "e1a776652ac5dece884550ed",
        "equity": "1ef4e59d74d3c9b6fbfa58cd",
        "debt": "817065d1ec099b5d2f439a14",
    },
    "putable_2002": {
        "value": "86bb837874cec39b6200017a",
        "equity": "678512e79da0ff4c1331685c",
        "debt": "265c4bc36aa4286b05d770ba",
    },
    "compare_2004": {
        "value": "319c23a3a2311310b08ba2a4",
        "equity": "e2002cb6d9574e66afb8f552",
        "debt": "e17fb1f5cadd9a388479d8d6",
    },
    "conversion_ends_2006": {
        "value": "d41f23f0062a059b7bbb7ef7",
        "equity": "bb27b7aa4f11dd6639d70daa",
        "debt": "10764cbdd99ac717cd0ecaed",
    },
}


@pytest.mark.parametrize("name", sorted(FD_REFERENCE))
def test_fd_matches_previous_solver(sweeps, name):
    early_end = replace(TABLE1, conversion=replace(TABLE1.conversion, end=date(2006, 1, 2)))
    terms, t0, snapshots = {
        "reference_2004": (TABLE1, JAN2004, None),
        "putable_2002": (sweeps["putable"][0], ISSUE, None),
        "compare_2004": (TABLE1, JAN2004, [JAN2004]),
        "conversion_ends_2006": (early_end, ISSUE, None),
    }[name]
    grid = FDGrid.auto(MARKET, year_fraction(t0, terms.maturity), n_s=101)
    sol = solve_tf_fd(terms, MARKET, t0, grid, snapshot_dates=snapshots)
    assert {k: sha(getattr(sol, k)) for k in FD_REFERENCE[name]} == FD_REFERENCE[name]


def test_putable_sweep_binds_every_constraint(sweeps):
    terms, t0, spots, steps, front_layers = sweeps["putable"]
    res = rollback_batch(terms, MARKET, t0, spots, steps, binds=True)
    assert np.all(res.binds.sum(axis=1) > 0)


def test_bind_counts_do_not_change_values(sweeps):
    terms, t0, spots, steps, front_layers = sweeps["putable"]
    with_binds = rollback_batch(terms, MARKET, t0, spots, steps, front_layers=2, binds=True)
    without = rollback_batch(terms, MARKET, t0, spots, steps, front_layers=2)
    assert without.binds is None
    assert np.array_equal(with_binds.equity, without.equity)
    assert np.array_equal(with_binds.debt, without.debt)
    assert all(np.array_equal(a, b) for a, b in zip(with_binds.fronts, without.fronts))


def _assert_same(a, b):
    assert np.array_equal(a.equity, b.equity)
    assert np.array_equal(a.debt, b.debt)
    assert (a.binds is None and b.binds is None) or np.array_equal(a.binds, b.binds)
    assert len(a.fronts) == len(b.fronts)
    assert all(np.array_equal(x, y) for x, y in zip(a.fronts, b.fronts))


# the block edges, as (blocks, tail) of the block width at the small budget
EDGES = {"rows-1": (1, -1), "rows": (1, 0), "rows+1": (1, 1), "2rows+1": (2, 1)}


@pytest.mark.parametrize("m", [1, 127, 128, 129, 257, 500, *EDGES])
def test_chunked_equals_unchunked(monkeypatch, m):
    """Fixed batch sizes and the batch sizes at the block edges
    (`block_width`), with and without bind counts, which run the same
    blocks: blocks at the small budget (`small_budget`) equal one block of
    the whole batch."""
    if m in EDGES:
        blocks, tail = EDGES[m]
        m = blocks * block_width((TABLE1, JAN2004, MARKET), 80.0, 60, 2) + tail
    spots = np.linspace(80.0, 140.0, m)

    def run(binds):
        return rollback_batch(TABLE1, MARKET, JAN2004, spots, 60, front_layers=2, binds=binds)

    monkeypatch.setattr(lattice, "BLOCK_CELLS", small_budget(60))
    chunked = [run(False), run(True)]
    monkeypatch.setattr(lattice, "BLOCK_CELLS", m * 61)  # at most 61 nodes tall: one block
    for binds, res in zip((False, True), chunked):
        _assert_same(res, run(binds))


@pytest.mark.parametrize("tail", [1, 2])
def test_node_major_blocks_equal_pointwise(sweeps, monkeypatch, tail):
    """At the small budget, a block's width plus `tail` spots leave a last
    block of `tail` rows; with every layer a front (the expiry layer
    included, written through the transposed view) and bind counts on, each
    spot's outputs equal its own one-spot rollback, with bind counts off as
    well."""
    terms, t0, steps = sweeps["putable"][0], JAN2004, 12
    monkeypatch.setattr(lattice, "BLOCK_CELLS", small_budget(steps))
    spots = np.linspace(40.0, 200.0, block_width((terms, t0, MARKET), 40.0, steps, steps) + tail)
    for binds in (False, True):
        res = rollback_batch(terms, MARKET, t0, spots, steps, front_layers=steps, binds=binds)
        assert not binds or np.all(res.binds.sum(axis=1) > 0)
        for k in range(spots.size):
            one = rollback_batch(terms, MARKET, t0, spots[k : k + 1], steps,
                                 front_layers=steps, binds=binds)
            assert np.array_equal(res.equity[k : k + 1], one.equity)
            assert np.array_equal(res.debt[k : k + 1], one.debt)
            assert not binds or np.array_equal(res.binds[:, k : k + 1], one.binds)
            assert len(res.fronts) == len(one.fronts) == steps + 1
            assert all(np.array_equal(f[k : k + 1], g) for f, g in zip(res.fronts, one.fronts))


def _peak_bytes(t0, spots, steps, binds=False) -> int:
    tracemalloc.start()
    try:
        rollback_batch(TABLE1, MARKET, t0, spots, steps, binds=binds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


# a block's workspace: five float and two bool buffers of at most BLOCK_CELLS node-spots
WORKSPACE = (5 * 8 + 2) * lattice.BLOCK_CELLS


def test_memory_bounded_by_blocks_not_batch():
    """A 2,000-spot, N=200 rollback holds one workspace of at most
    BLOCK_CELLS node-spots, not O(m * (N+1)): the whole-batch buffers would
    need 6 * 2000 * 201 doubles (19 MB).  A second workspace would break the
    512 KiB allowance for the O(m) outputs and O(N) tables.  Bind counts run
    the same blocks and count the expiry nodes above them in the same
    buffers, in the same bound."""
    m, n = 2000, 200
    spots = np.linspace(50.0, 200.0, m)
    for binds in (False, True):
        peak = _peak_bytes(JAN2004, spots, n, binds)
        assert peak < WORKSPACE + 2**19
        assert peak < 8 * 6 * m * (n + 1) / 2


def test_memory_bounded_at_the_var_chunk():
    """The VaR chunk's shape, 500 spots in 95-105 at N=500 on 2004-01-03,
    runs in one block in buffers about half as tall as the tree, and peaks
    under the same one-workspace bound."""
    n = 500
    spots = np.linspace(95.0, 105.0, 500)
    assert lattice._rollback_job(TABLE1, MARKET, date(2004, 1, 3), spots, n).rows == spots.size
    assert _peak_bytes(date(2004, 1, 3), spots, n) < WORKSPACE + 2**19


def test_memory_bounded_on_a_large_tree():
    """At N=2,000 a batch of twice a block's spots adds at most the same
    bound, which does not grow with N, to the peak of a one-spot rollback of
    the same tree.  That peak is the tree's O(N) tables and plan lists, 0.6 MB
    here; the blocks of the rule they replaced, BLOCK * (N+1) // H spots,
    held 10.7 MB."""
    n, t0 = 2000, date(2006, 1, 2)
    job = lattice._rollback_job(TABLE1, MARKET, t0, [120.0], n)
    spots = np.linspace(120.0, 130.0, 2 * (lattice.BLOCK_CELLS // job.height))
    one_spot = _peak_bytes(t0, spots[:1], n)
    assert _peak_bytes(t0, spots, n) < one_spot + WORKSPACE + 2**19


@pytest.mark.parametrize("steps", [1, 10, 500, 2000, lattice.MAX_TREE_STEPS])
def test_workspace_within_the_budget(steps):
    """At every tree size a block holds at least one spot, and a batch wider
    than a block fills at most BLOCK_CELLS node-spots of buffers."""
    spots = np.linspace(50.0, 200.0, lattice.BLOCK_CELLS)
    job = lattice._rollback_job(TABLE1, MARKET, JAN2004, spots, steps)
    assert 1 <= job.rows < spots.size
    assert sum(b.nbytes for b in job.buffers) <= WORKSPACE


@pytest.mark.parametrize("name", list(REFERENCE))
def test_run_certificate_is_the_exact_test(sweeps, name):
    """On every reference sweep the certificate of each guessed run, which
    checks only the call and a put over the held floor's level, gives the
    verdict of the exact test that it replaces (`certificate_verdicts`); the
    sweeps reach guessed runs."""
    terms, t0, spots, steps, front_layers = sweeps[name]
    verdicts = certificate_verdicts((terms, t0, MARKET), spots, steps, front_layers)
    assert any(ok for _, _, ok in verdicts)


def test_band_skips_most_decisions(sweeps, monkeypatch):
    """On the VaR scenarios almost every node below the conversion frontier
    continues, and the certified run keeps `decide` off all but a few
    percent of them.  Without the run (`BAND_CELLS` out of reach) every layer
    certifies its whole band instead, and on these blocks of about 500 spots
    nearly every layer has a node that binds, so `decide` sees nearly all of
    them."""
    terms, t0, spots, steps, _ = sweeps["c4_scenarios"]
    decide = lattice.decide

    def cells_decided(band_cells):
        cells = [0]

        def counting(E, *args):
            cells[0] += E.size
            decide(E, *args)

        monkeypatch.setattr(lattice, "BAND_CELLS", band_cells)
        monkeypatch.setattr(lattice, "decide", counting)
        rollback_batch(terms, MARKET, t0, spots, steps)
        monkeypatch.setattr(lattice, "decide", decide)
        return cells[0]

    gate = lattice.BAND_CELLS
    assert cells_decided(gate) < 0.1 * cells_decided(np.inf)


@pytest.mark.parametrize("width", [1, 2], ids=["price", "hedge"])
def test_small_band_skips_most_decisions(monkeypatch, width):
    """At batch width 1 (a price or a Greek point) and 2 (a hedge increment:
    the spot and the spot shocked by 0.5, one front layer) no band reaches
    BAND_CELLS, and a layer runs `decide` only where its whole-band
    certificate fails.  Over 20 seeded (date, spot) points across the bond's
    life at N=200 that is under half of the layers below expiry (22% and
    29% measured).  Every block's expiry layer runs `decide` once, through
    `expire`."""
    counts = {"decide": 0, "expire": 0}
    for name in counts:
        def counting(*args, name=name, fn=getattr(lattice, name)):
            counts[name] += 1
            fn(*args)

        monkeypatch.setattr(lattice, name, counting)
    rng, steps = np.random.default_rng(0), 200
    life = (TABLE1.maturity - TABLE1.issue).days
    for _ in range(20):
        t0 = TABLE1.issue + timedelta(days=int(rng.integers(0, life)))
        spot = rng.uniform(50.0, 200.0)
        rollback_batch(TABLE1, MARKET, t0, np.array([spot, spot + 0.5][:width]), steps,
                       front_layers=width - 1)
    assert counts["expire"] == 20
    assert counts["decide"] - counts["expire"] < 0.5 * counts["expire"] * steps


def _var_chunk():
    """(t0, spots) of one 500-spot VaR chunk: the reference VaR config, seed 0."""
    spec = VaRSpec(eval_date=JAN2004, spot=100.0, n_scenarios=500, seed=0, steps=500)
    return spec.horizon_date, simulate_stock(spec)


def test_settled_floor_is_rolled_rows(sweeps, monkeypatch):
    """The settled floor changes no bit: with the plan's k all zeros every
    layer rolls back its whole band again, and equity, debt, bind counts and
    every front are the same as with the floor, for every sweep and the VaR
    chunk, with and without bind counts."""
    t0, spots = _var_chunk()
    cases = dict(sweeps, var_chunk=(TABLE1, t0, spots, 500, 0))

    def run(case, binds):
        terms, t0, spots, steps, front_layers = case
        return rollback_batch(terms, MARKET, t0, spots, steps, front_layers=front_layers,
                              binds=binds)

    floored = {(name, binds): run(case, binds) for name, case in cases.items()
               for binds in (False, True)}
    plan = lattice._Rollback.plan
    monkeypatch.setattr(lattice._Rollback, "plan",
                        lambda self, rs: ([0] * self.N, *plan(self, rs)[1:]))
    for (name, binds), res in floored.items():
        _assert_same(res, run(cases[name], binds))


def test_floor_skips_most_of_the_band(sweeps, monkeypatch):
    """On the VaR scenarios the settled floor holds at least 40% of the band
    below the conversion frontier, in node-spots (48.4% measured on a 500-spot
    chunk).  At batch widths 1 and 2 (a price and a hedge increment) at N=500
    no floor reaches BAND_CELLS: the plan's k is all zero, and neither
    `settled` nor `held_floor` is ever computed."""
    terms, t0, spots, steps, _ = sweeps["c4_scenarios"]
    plan = lattice._Rollback.plan
    cells = {"floor": 0, "band": 0}

    def plan_spy(self, rs):
        ks, _, cs, _, _ = layers = plan(self, rs)
        cells["floor"] += rs.size * sum(ks)
        cells["band"] += rs.size * sum(cs)
        return layers

    monkeypatch.setattr(lattice._Rollback, "plan", plan_spy)
    rollback_batch(terms, MARKET, t0, spots, steps)
    assert cells["floor"] >= 0.4 * cells["band"] > 0

    for width in (1, 2):
        for when, spot in ((ISSUE, 100.0), (JAN2004, 60.0), (JAN2004, 150.0)):
            job = lattice._rollback_job(TABLE1, MARKET, when, [spot, spot + 0.5][:width], 500,
                                        front_layers=width - 1)
            seen = []

            def spy(rs, job=job):
                layers = plan(job, rs)
                seen.append(layers[0])
                return layers

            monkeypatch.setattr(job, "plan", spy)
            job._roll_block(0, width)
            assert seen == [[0] * 500]
            assert "settled" not in vars(job) and "held_floor" not in vars(job)
