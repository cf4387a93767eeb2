import itertools
import math

import numpy as np
import pytest

from factorcavity import assumptions, bethe, models
from factorcavity.errors import AssumptionViolation
from factorcavity.graphmodel import DegreeSpec, WeightFamily, _parity_tensor
from factorcavity.models import ModelSpec
from factorcavity.rng import substream

D2 = DegreeSpec.constant(2)
K2 = DegreeSpec.constant(2)
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


def test_pos_passes_many_table_kspin():
    # POS is certified for kspin, so no gate runs the falsifier on it: here
    # it sees the 72 coupling tables of each arity
    rep = assumptions.check_pos(models.kspin(1.0, K23, d=2.0).family, trials=300, seed=2)
    assert rep.passed
    assert rep.info["evaluations"] == 600


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


def _kernel_families():
    """Families that exercise the compiled oriented tables (docs/notes.md,
    "One contraction kernel"), with the number of distinct oriented tables
    each arity should keep."""
    rng = np.random.default_rng(5)
    base = rng.uniform(0.5, 2.0, (3, 3, 3))
    # slot 2 of the rolled table reads like slot 0 of the base: 6 - 1 distinct
    shared = WeightFamily(q=3, tables={3: (base, np.moveaxis(base, 0, -1))},
                          masses={3: np.array([0.5, 0.5])})
    pair = WeightFamily(q=3, tables={2: (rng.uniform(0.5, 2.0, (3, 3)),)},
                        masses={2: np.array([1.0])})
    unary = WeightFamily(q=3, tables={1: tuple(rng.uniform(0.5, 2.0, (2, 3))),
                                      2: (rng.uniform(0.5, 2.0, (3, 3)),)},
                         masses={1: np.array([0.4, 0.6]), 2: np.array([1.0])})
    mixed = WeightFamily(q=2, tables={2: (1.0 + 0.3 * _parity_tensor(2),),
                                      3: (rng.uniform(0.5, 2.0, (2, 2, 2)),)},
                         masses={2: np.array([1.0]), 3: np.array([1.0])})
    # parity rows of arity 1 (the empty product) share calls with wider ones
    parity = _two_spin_parity({k: ((0.5, -0.25), (0.3, 0.7)) for k in (1, 2, 3, 5)})
    # no parity tables: arity-2 rows read slot 0 of a width-2 feed, in calls
    # shared with arity-1 rows, which read no slot, and arity-3 rows
    generic = WeightFamily(q=3, tables={1: tuple(rng.uniform(0.5, 2.0, (2, 3))),
                                        2: (rng.uniform(0.5, 2.0, (3, 3)),),
                                        3: (rng.uniform(0.5, 2.0, (3, 3, 3)),)},
                           masses={1: np.array([0.4, 0.6]), 2: np.array([1.0]),
                                   3: np.array([1.0])})
    return {"shared": (shared, {3: 5}), "pair": (pair, {2: 2}),
            "unary": (unary, {1: 2, 2: 2}), "mixed": (mixed, {2: 1, 3: 3}),
            "parity": (parity, {1: 2, 2: 2, 3: 2, 5: 2}),
            "generic": (generic, {1: 2, 2: 2, 3: 3})}


@pytest.mark.parametrize("name", ["shared", "pair", "unary", "mixed", "parity", "generic"])
def test_kernel_matches_the_direct_sum(name):
    family, distinct = _kernel_families()[name]
    for k, count in distinct.items():
        assert len(family.compiled.arity[k].oriented) == count
    if name == "mixed":
        assert family.compiled.arity[2].parity is not None
        assert family.compiled.arity[3].parity is None
    if name == "parity":
        assert all(form.parity is not None for form in family.compiled.arity.values())
        # a call of arity-1 rows alone is fed no slot: S = 1 +- c, the table
        got = family.contract([1, 1, 1], [0, 1, 0], np.zeros((3, 0, 2)), [0, 0, 0])
        assert got.tolist() == [family.table(1, t).tolist() for t in (0, 1, 0)]
    if name == "generic":
        assert all(form.parity is None for form in family.compiled.arity.values())
    rng = np.random.default_rng(len(name))
    width = max(family.arities) - 1
    for n in (0, 1, 2, 3, 40):
        ks = rng.choice(family.arities, size=n)
        tables = rng.integers(0, 2, size=n) % [family.n_tables(k) for k in ks]
        hs = rng.integers(0, ks)
        points = rng.dirichlet([0.7] * family.q, size=(n, width))
        got = family.contract(ks, tables, points, hs)
        assert got.shape == (n, family.q)
        for i in range(n):
            ref = _brute_contract(family, ks[i], tables[i], points[i], hs[i])
            assert np.abs(got[i] - ref).max() <= 1e-13


def test_block_model_keeps_one_oriented_table():
    for q in range(2, 6):
        family = models.sbm(q, 1.3, 4).family
        assert len(family.compiled.arity[2].oriented) == 1
        # a batch of no rows, shaped as population dynamics draws it
        assert family.contract([], [], np.zeros((0, 0, q)), []).shape == (0, q)


# ---------------------------------------------------------------------------
# POS certificates (docs/notes.md, "POS certificates")
# ---------------------------------------------------------------------------

# pos_margin adds a few hundred terms of order one; this bounds its rounding
_ROUNDING = 1e-13
# a law of c that is not symmetric: coefficients, then masses
_ASYMMETRIC = ((-0.5, 0.5), (0.6, 0.4))


def _two_spin_parity(law):
    """Tables 1 + c * parity per arity, with {arity: (coefficients, masses)}."""
    return WeightFamily(q=2,
                        tables={k: tuple(1.0 + c * _parity_tensor(k) for c in cs)
                                for k, (cs, _) in law.items()},
                        masses={k: np.asarray(p) for k, (_, p) in law.items()})


def _parity_series(family, k, pop_a, pop_b, terms):
    """The parity series of the POS margin through l = ``terms``, and a bound
    2k sum_i p_i |c_i|^(L+1) / (L (L+1) (1 - |c_i|)) on the rest."""
    form = family.compiled.arity[k]
    ls = np.arange(2, terms + 1)

    def moments(pop):
        points, weights = pop
        return weights @ (points[:, 0] - points[:, 1])[:, None] ** ls

    m, m_prime = moments(pop_a), moments(pop_b)
    coupling = form.masses @ form.parity[:, None] ** ls
    bracket = m ** k + (k - 1) * m_prime ** k - k * m * m_prime ** (k - 1)
    value = float(((-1.0) ** ls / (ls * (ls - 1)) * coupling * bracket).sum())
    c = np.abs(form.parity)
    tail = 2 * k * form.masses @ (c ** (terms + 1) / (terms * (terms + 1) * (1 - c)))
    return value, float(tail)


def _potts_series(family, k, pop_a, pop_b, terms):
    """The Potts series sum_l c0 gamma^l / (l(l-1)) ||E mu^(x)l - E mu'^(x)l||^2
    through l = ``terms``, and a bound 2 c0 gamma^(L+1) / (L (L+1) (1 - gamma))
    on the rest, each averaged over the table law."""
    assert k == 2
    form = family.compiled.arity[2]
    equal = np.eye(family.q, dtype=bool).ravel()
    c0 = form.flat[:, ~equal][:, 0]
    gamma = 1.0 - form.flat[:, equal][:, 0] / c0
    # <mu, mu'>^l for every pair of support points, with the pair's weight
    pairs = [(sign, x @ y.T, np.outer(wx, wy)) for sign, (x, wx), (y, wy) in
             ((1.0, pop_a, pop_a), (1.0, pop_b, pop_b), (-2.0, pop_a, pop_b))]
    powers = [gram.copy() for _, gram, _ in pairs]
    value = np.zeros(len(c0))
    for l in range(2, terms + 1):
        norm = 0.0
        for (sign, gram, weights), power in zip(pairs, powers):
            power *= gram
            norm += sign * (weights * power).sum()
        value += gamma ** l / (l * (l - 1)) * norm
    tail = 2 * gamma ** (terms + 1) / (terms * (terms + 1) * (1 - gamma))
    return float(form.masses @ (c0 * value)), float(form.masses @ (c0 * tail))


@pytest.mark.parametrize("family, arities, series, terms", [
    (models.ldgm(0.25, D2, K23).family, (2, 3), _parity_series, 400),
    (models.kspin(1.0, K23, d=2.0).family, (2, 3), _parity_series, 2000),
    # odd l contributes here, with the sign the residue bound assumes
    (_two_spin_parity({2: _ASYMMETRIC, 3: _ASYMMETRIC}), (2, 3), _parity_series, 400),
    (models.sbm(2, 2.0, 3).family, (2,), _potts_series, 400),
    (models.sbm(3, 2.0, 3).family, (2,), _potts_series, 400),
    (models.sbm(5, 3.0, 8).family, (2,), _potts_series, 400),
], ids=["ldgm", "kspin", "asymmetric-parity", "sbm-q2", "sbm-q3", "sbm-q5"])
def test_pos_series_equal_the_margin(family, arities, series, terms):
    rng = substream(11, family.q)
    for _ in range(8):
        pop_a, pop_b = assumptions._candidate_pair(family.q, rng, assumptions._POS_POPULATION)
        for k in arities:
            value, tail = series(family, k, pop_a, pop_b, terms)
            margin = assumptions.pos_margin(family, k, pop_a, pop_b)
            assert abs(value - margin) <= tail + _ROUNDING


# kspin's stored coefficients and masses are mirror-symmetric only to rounding,
# so its residue bound is positive; ldgm's and the Potts tables' is zero
@pytest.mark.parametrize("family, certificate, exact", [
    (models.ldgm(0.25, D2, K23).family, "parity", True),
    (models.kspin(1.0, K23, d=2.0).family, "parity", False),
    (models.kspin(0.5, K23, r=4, d=2.0).family, "parity", False),
    (models.sbm(2, 2.0, 3).family, "potts", True),
    (models.sbm(3, 2.0, 3).family, "potts", True),
    (models.sbm(5, 3.0, 8).family, "potts", True),
], ids=["ldgm", "kspin", "kspin-r4", "sbm-q2", "sbm-q3", "sbm-q5"])
def test_certify_pos_proves_parity_and_potts_families(family, certificate, exact):
    rep = assumptions.certify_pos(family)
    residue = rep.info["residue_bound"]
    assert rep.passed and rep.witness is None and rep.detail == 0.0
    assert rep.info == {"trials": 0, "evaluations": 0, "worst_margin": 0.0,
                        "semantics": "certified", "certificate": certificate,
                        "residue_bound": residue}
    assert (residue == 0.0) == exact
    assert 0.0 <= residue <= assumptions._MARGIN_TOL


def _cyclic_channel(q=3, k=3, eta=0.05):
    """The q-ary symmetric channel on the cyclic sum of k spins: table y is
    q (1 - eta) where the sum is y mod q and q eta / (q - 1) elsewhere."""
    sums = np.indices((q,) * k).sum(axis=0) % q
    tables = tuple(np.where(sums == y, q * (1 - eta), q * eta / (q - 1)) for y in range(q))
    return WeightFamily(q=q, tables={k: tables}, masses={k: np.full(q, 1.0 / q)})


_UNCERTIFIED = {
    "assortative": (models.sbm(2, 1.0, 3, assortative=True).family, K2),
    "cyclic-q3": (_cyclic_channel(), DegreeSpec.constant(3)),
    "asymmetric-parity": (_two_spin_parity({2: _ASYMMETRIC}), K2),
    "mixed": (_two_spin_parity({2: _ASYMMETRIC, 3: ((-0.5, 0.5), (0.5, 0.5))}), K23),
}


class _FalsifierCalled(Exception):
    pass


@pytest.fixture
def falsifier_calls(monkeypatch):
    """Replace ``check_pos`` by a spy that records its arguments and stops the caller."""
    calls = []

    def spy(family, *, trials, seed=0):
        calls.append((family, trials, seed))
        raise _FalsifierCalled

    monkeypatch.setattr(assumptions, "check_pos", spy)
    return calls


@pytest.mark.parametrize("name", sorted(_UNCERTIFIED))
def test_uncertified_families_run_the_falsifier(name, falsifier_calls):
    family, kspec = _UNCERTIFIED[name]
    assert assumptions.certify_pos(family) is None
    with pytest.raises(_FalsifierCalled):
        assumptions.check_all(D2, kspec, family, pos_trials=7, seed=3)
    assert falsifier_calls == [(family, 7, 3)]
    model = ModelSpec(name=name, dspec=D2, kspec=kspec, family=family)
    if name == "assortative":
        # BAL rejects the assortative table, so POS is never drawn
        with pytest.raises(AssumptionViolation) as err:
            bethe.mutual_information(model, seed=3, pos_trials=7)
        assert err.value.report.name == "BAL"
        assert falsifier_calls == [(family, 7, 3)]
        return
    with pytest.raises(_FalsifierCalled):
        bethe.mutual_information(model, seed=3, pos_trials=7)
    assert falsifier_calls == [(family, 7, 3)] * 2


def test_certified_families_run_no_falsifier(falsifier_calls):
    model = models.ldgm(0.25, D2, K23)
    reports = assumptions.check_all(model.dspec, model.kspec, model.family,
                                    pos_trials=7, seed=3)
    assert reports["POS"].info["semantics"] == "certified"
    mi = bethe.mutual_information(models.sbm(3, 0.5, 3), seed=0, pop_size=150,
                                  sweeps=5, samples=2000, pos_trials=7)
    assert mi.value >= -3 * mi.stderr
    assert falsifier_calls == []


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
