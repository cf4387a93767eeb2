import itertools
import math

import numpy as np
import pytest

from factorcavity import assumptions, models
from factorcavity.graphmodel import DegreeSpec, WeightFamily

D2 = DegreeSpec.constant(2)
K23 = DegreeSpec.from_mapping({2: 0.5, 3: 0.5})


def test_check_report_witness_discipline():
    with pytest.raises(ValueError):
        assumptions.CheckReport("SYM", True, witness="x")
    with pytest.raises(ValueError):
        assumptions.CheckReport("SYM", False)


def test_check_deg():
    assert assumptions.check_deg(D2, DegreeSpec.constant(3)).passed
    rep = assumptions.check_deg(DegreeSpec((0,), (1.0,)), K23)
    assert not rep.passed and rep.witness == "E[d]=0"
    rep = assumptions.check_deg(DegreeSpec.from_mapping({0: 0.5, 4: 0.5}), K23)
    assert rep.passed and rep.info["d_mean"] == 2.0


def test_check_sym_witness_on_biased_table():
    table = np.array([[1.1, 1.1], [0.1, 0.1]])  # rewards spin 0 at slot 0
    fam = WeightFamily(q=2, tables={2: (table,)}, masses={2: np.array([1.0])})
    rep = assumptions.check_sym(fam)
    assert not rep.passed
    k, idx, j, w, dev = rep.witness
    assert (k, idx, j) == (2, 0, 0)
    assert dev > 0.4


@pytest.mark.parametrize("family", [models.sbm(3, 1.3, 4).family,
                                    models.kspin(0.7, K23, r=3, d=2.0).family,
                                    models.ldgm(0.1, D2, K23).family])
def test_check_sym_reads_the_compiled_constant(family):
    rep = assumptions.check_sym(family)
    values = np.concatenate([rows.ravel() for rows in family.marginal_sums().values()])
    assert rep.passed and rep.witness is None
    assert rep.info["xi"] == float(values.mean()) == family.xi()
    assert rep.info["spread"] == rep.detail == float(values.max() - values.min())


def test_check_sym_permutation_invariant(permuted_alphabet):
    fam = models.sbm(3, 1.3, 4).family
    a = assumptions.check_sym(fam)
    b = assumptions.check_sym(permuted_alphabet(fam, [2, 0, 1]))
    assert a.info["xi"] == b.info["xi"]


def test_check_bal_verdicts():
    assert assumptions.check_bal(models.sbm(2, 1.0, 3).family).passed
    assert assumptions.check_bal(WeightFamily.constant(2, [2, 3])).passed
    strong = np.exp(2.0 * np.eye(2))
    fam = WeightFamily(q=2, tables={2: (strong,)}, masses={2: np.array([1.0])})
    rep = assumptions.check_bal(fam)
    assert not rep.passed
    assert rep.witness[0] in ("max-not-uniform", "midpoint-convexity")


def _bincount_simplex_grid(q, resolution):
    """The grid one point at a time: one bincount per sorted colour tuple."""
    return np.asarray([np.bincount(comp, minlength=q) / resolution
                       for comp in itertools.combinations_with_replacement(range(q), resolution)])


@pytest.mark.parametrize("q, resolution", [(1, 5), (2, 64), (3, 64), (4, 64), (3, 7)])
def test_simplex_grid_matches_pointwise_builder(q, resolution):
    # same points in the same order, so BAL's sampled pairs stay the same
    grid = assumptions._simplex_grid(q, resolution)
    assert grid.tobytes() == _bincount_simplex_grid(q, resolution).tobytes()
    assert grid.shape == (math.comb(resolution + q - 1, q - 1), q)


def test_check_bal_warns_for_large_alphabet():
    fam = WeightFamily.constant(5, [2])
    with pytest.warns(UserWarning):
        assumptions.check_bal(fam, grid_resolution=8, pairs=50)


def test_pos_equal_populations_tie_out():
    fam = models.sbm(2, 1.0, 3, assortative=True).family
    rng = np.random.default_rng(0)
    pts = rng.dirichlet([1.0, 1.0], size=4)
    pts = np.concatenate([pts, pts[:, ::-1]], axis=0)
    w = np.full(8, 1.0 / 8)
    margin = assumptions.pos_margin(fam, 2, (pts, w), (pts, w))
    assert abs(margin) <= 1e-12


def test_pos_passes_certified_families():
    rep = assumptions.check_pos(models.ldgm(0.2, D2, K23).family, trials=400, seed=1)
    assert rep.passed
    assert rep.info["semantics"] == "no-violation-found"


def test_pos_fails_assortative():
    rep = assumptions.check_pos(models.sbm(2, 1.0, 3, assortative=True).family,
                                trials=10_000, seed=0)
    assert not rep.passed
    assert rep.witness["margin"] < -1e-9
    assert rep.detail > 0
    assert rep.info["semantics"] == "violation"


def _generic_twin(fam):
    """The same tables with parity detection cleared from the compiled form."""
    twin = WeightFamily(q=fam.q, tables=fam.tables, masses=fam.masses)
    compiled = twin.compiled
    twin.__dict__["compiled"] = compiled._replace(arity={
        k: form._replace(parity=None) for k, form in compiled.arity.items()})
    return twin


def _brute_contract(fam, k, t, row_points, h):
    """Direct sum over spin tuples: the message at slot h, or the mix if h is None."""
    table = fam.table(k, t)
    out = np.zeros(fam.q)
    for tau in np.ndindex(*table.shape):
        others = [s for j, s in enumerate(tau) if j != h]
        weight = table[tau] * np.prod([row_points[j][s] for j, s in enumerate(others)])
        out[0 if h is None else tau[h]] += weight
    return out[0] if h is None else out


def test_pos_fast_path_matches_generic():
    # the parity closed form must agree with the grouped contraction
    fam = models.kspin(1.1, K23, r=2, d=2.0).family
    twin = _generic_twin(fam)
    assert all(form.parity is not None for form in fam.compiled.arity.values())
    rng = np.random.default_rng(3)
    pts_a = rng.dirichlet([0.7, 0.7], size=3)
    pts_a = np.concatenate([pts_a, pts_a[:, ::-1]], axis=0)
    w_a = np.full(6, 1 / 6)
    pts_b = np.full((1, 2), 0.5)
    w_b = np.array([1.0])
    for k, sets, wts in ((2, [pts_a, pts_b], [w_a, w_b]),
                         (3, [pts_a, pts_b, pts_a], [w_a, w_b, w_a])):
        fast = assumptions._expected_lambda(fam, k, sets, wts)
        slow = assumptions._expected_lambda(twin, k, sets, wts)
        assert fast == pytest.approx(slow, abs=1e-13)

    # kernel rows at k = 2, k = 3 and mixed arities, messages and closed mixes
    # (the message at the last slot times that slot's point); a random
    # three-spin family has no slot symmetry to hide a wrong open slot
    q3 = WeightFamily(q=3, tables={k: tuple(rng.uniform(0.5, 2.0, (2,) + (3,) * k))
                                   for k in (2, 3)},
                      masses={2: np.array([0.3, 0.7]), 3: np.array([0.6, 0.4])})
    n = 40
    for family, reference in ((fam, twin), (q3, None)):
        points = rng.dirichlet([0.7] * family.q, size=(n, 3))
        tables = rng.integers(0, 2, size=n)
        for ks in (np.full(n, 2), np.full(n, 3), rng.choice([2, 3], size=n)):
            hs = rng.integers(0, ks)
            for closed in (False, True):
                open_slots = ks - 1 if closed else hs
                got = family.contract(ks, tables, points, open_slots)
                if reference is not None:
                    want = reference.contract(ks, tables, points, open_slots)
                    assert np.abs(got - want).max() <= 1e-13
                if closed:
                    got = (got * points[np.arange(n), ks - 1]).sum(axis=1)
                for i in range(6):
                    h = None if closed else hs[i]
                    ref = _brute_contract(family, ks[i], tables[i], points[i], h)
                    assert np.abs(got[i] - ref).max() <= 1e-13

    # detection is an exact match on two-spin tables only
    assert models.sbm(3, 1.0, 4).family.compiled.arity[2].parity is None
    table = 1.0 + 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    exact_fam = WeightFamily(q=2, tables={2: (table,)}, masses={2: np.array([1.0])})
    assert exact_fam.compiled.arity[2].parity.tolist() == [0.5]
    table[1, 0] += 1e-9
    near = WeightFamily(q=2, tables={2: (table,)}, masses={2: np.array([1.0])})
    assert near.compiled.arity[2].parity is None


def test_checkers_deterministic():
    fam = models.ldgm(0.3, D2, K23).family
    a = assumptions.check_pos(fam, trials=200, seed=5)
    b = assumptions.check_pos(fam, trials=200, seed=5)
    assert a.info == b.info
    c = assumptions.check_bal(fam, seed=5)
    d = assumptions.check_bal(fam, seed=5)
    assert c.info == d.info


def test_check_all_bundle():
    model = models.ldgm(0.25, D2, K23)
    reports = assumptions.check_all(model.dspec, model.kspec, model.family,
                                    pos_trials=100, seed=0)
    assert set(reports) == {"DEG", "SYM", "BAL", "POS"}
    assert all(rep.passed for rep in reports.values())
    assert reports["SYM"].info["xi"] == 1.0
