import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from factorcavity import assumptions, exact, io, models
from factorcavity.errors import ConfigError
from factorcavity.graphmodel import (DegreeSequence, DegreeSpec, FactorGraph,
                                     WeightFamily, sample_degree_sequence,
                                     sample_null, sample_planted)

D2 = DegreeSpec.constant(2)
K2 = DegreeSpec.constant(2)
K23 = DegreeSpec.from_mapping({2: 0.5, 3: 0.5})


# ---------------------------------------------------------------------------
# parity-check channel family
# ---------------------------------------------------------------------------


def test_ldgm_tables():
    model = models.ldgm(0.1, D2, K2)
    fam = model.family
    # index 0 is the even-parity-rewarding label; at the all-plus tuple the
    # two tables take 1 +- 0.8
    assert fam.table(2, 0)[0, 0] == pytest.approx(1.8, abs=1e-15)
    assert fam.table(2, 1)[0, 0] == pytest.approx(0.2, abs=1e-15)
    # one flipped spin flips the parity
    assert fam.table(2, 0)[0, 1] == pytest.approx(0.2, abs=1e-15)
    assert np.allclose(fam.masses[2], 0.5)


def test_ldgm_useless_channel_tables_are_flat():
    fam = models.ldgm(0.5, D2, K23).family
    for k in (2, 3):
        for i in range(2):
            assert np.allclose(fam.table(k, i), 1.0)


def test_ldgm_sym_constant():
    for eta in (0.05, 0.3, 0.45):
        rep = assumptions.check_sym(models.ldgm(eta, D2, K23).family)
        assert rep.passed and rep.info["xi"] == 1.0


def test_ldgm_channel_noiseless():
    model = models.ldgm(0.3, D2, K2)
    g = sample_null(6, D2, K2, model.family, seed=0)
    x = np.array([0, 1, 0, 1, 1, 0])
    y = models.ldgm_channel(g, x, eta=0.0, seed=1)
    parity = np.array([sum(x[v] for v in fv) % 2 for fv in g.factor_vars])
    assert (y == parity).all()
    assert (models.ldgm_channel(g, np.zeros(6, dtype=int), 0.0, 2) == 0).all()


def test_ldgm_channel_matches_planted_label_law():
    # fixed topology: channel labels and the construction's tilted weight
    # choice follow the same per-factor law; compare the joint over factors
    eta = 0.25
    model = models.ldgm(eta, D2, K2)
    seq = sample_degree_sequence(3, D2, K2, 3)
    sigma = np.array([0, 1, 0])
    g = sample_planted(seq, sigma, model.family, 0, seed=9)
    parity = np.array([sum(int(sigma[v]) for v in fv) % 2 for fv in g.factor_vars])
    # exact per-factor law of the tilted choice: P[label = parity] = 1 - eta
    draws = 100_000
    rng_labels = np.empty((draws, g.m), dtype=np.int64)
    for rep in range(draws // 10_000):
        block = [models.ldgm_channel(g, sigma, eta, seed=5000 + rep * 10_000 + i)
                 for i in range(10_000)]
        rng_labels[rep * 10_000:(rep + 1) * 10_000] = np.asarray(block)
    for joint in range(4):
        bits = (joint // 2, joint % 2)
        p = 1.0
        for j in range(2):
            p *= (1 - eta) if bits[j] == parity[j] else eta
        emp = float(np.mean((rng_labels[:, 0] == bits[0])
                            & (rng_labels[:, 1] == bits[1])))
        assert abs(emp - p) <= 4 * math.sqrt(p * (1 - p) / draws)


def test_planted_labels_follow_channel_law():
    eta = 0.25
    model = models.ldgm(eta, D2, K2)
    seq = sample_degree_sequence(3, D2, K2, 3)
    sigma = np.array([0, 1, 0])
    draws = 3000
    match = 0
    total = 0
    for seed in range(draws):
        g = sample_planted(seq, sigma, model.family, 0, seed)
        parity = [sum(int(sigma[v]) for v in fv) % 2 for fv in g.factor_vars]
        for j in range(g.m):
            match += int(g.factor_tables[j] == parity[j])
            total += 1
    p = match / total
    assert abs(p - (1 - eta)) <= 4 * math.sqrt(eta * (1 - eta) / total)


# ---------------------------------------------------------------------------
# block model / Potts
# ---------------------------------------------------------------------------


def test_sbm_tables():
    assert np.allclose(models.sbm(2, 0.0, 3).family.table(2, 0), 1.0)
    assert models.sbm(2, math.log(2), 3).family.table(2, 0)[0, 0] == pytest.approx(0.5)
    rep = assumptions.check_sym(models.sbm(3, 1.2, 4).family)
    assert rep.info["xi"] == pytest.approx((3 - 1 + math.exp(-1.2)) / 3, abs=1e-15)


def test_sbm_validation():
    with pytest.raises(ValueError):
        models.sbm(1, 0.5, 3)
    with pytest.raises(ValueError):
        models.sbm(2, 0.5, 2)
    with pytest.raises(ValueError):
        models.sbm(2, -0.5, 3)


# ---------------------------------------------------------------------------
# discretised-coupling spin model
# ---------------------------------------------------------------------------


def test_kspin_levels_symmetric():
    model = models.kspin(1.0, K23, r=6, d=2.0)
    levels, masses = models._coupling_levels(6)
    assert model.family.n_tables(2) == len(levels) == 2 * 36
    assert np.array_equal(model.family.masses[2], masses)
    order = np.argsort(levels)
    flipped = np.argsort(-levels)
    assert np.allclose(levels[order], -levels[flipped])
    assert np.allclose(masses[order], masses[flipped], atol=1e-15)
    assert abs(masses.sum() - 1.0) < 1e-12
    assert 0.0 not in levels


@pytest.mark.parametrize("r", range(1, 9))
def test_coupling_level_masses_match_scipy(r):
    _, masses = models._coupling_levels(r)
    ref = np.diff(norm.cdf(-r + np.arange(2 * r * r + 1) / r))
    ref[0] += norm.cdf(-r)
    ref[-1] += norm.sf(r)
    assert np.abs(masses - ref / ref.sum()).max() <= 1e-15


def test_kspin_min_entry():
    for beta, r in ((0.5, 6), (2.0, 4)):
        model = models.kspin(beta, K23, r=r, d=2.0)
        min_entry = min(float(t.min()) for tabs in model.family.tables.values()
                        for t in tabs)
        assert min_entry == pytest.approx(1 - math.tanh(beta * r), abs=1e-15)


def test_kspin_tanh_moment_approaches_quadrature():
    # levels round away from zero, so the second tanh moment overshoots the
    # Gaussian value by O(beta/r); the bias must be positive and shrink in r
    beta = 0.7
    gaussian, _ = quad(lambda j: math.tanh(beta * j) ** 2
                       * math.exp(-j * j / 2) / math.sqrt(2 * math.pi),
                       -np.inf, np.inf)
    errors = []
    for r in (2, 4, 8):
        levels, masses = models._coupling_levels(r)
        discrete = float(np.dot(masses, np.tanh(beta * levels) ** 2))
        errors.append(discrete - gaussian)
    assert all(e > 0 for e in errors)
    assert errors[2] < errors[1] < errors[0]
    assert errors[2] <= 0.025


def test_kspin_log_normalizer_maps_to_raw_convention():
    from factorcavity.graphmodel import _parity_tensor

    beta = 0.9
    model = models.kspin(beta, DegreeSpec.constant(2), r=3, d=2.0)
    seq = DegreeSequence((2, 2, 2), (2, 2, 2))
    g = sample_planted(seq, np.array([0, 1, 0]), model.family, 0, seed=4)
    levels, level_masses = models._coupling_levels(3)
    raw_tables = {2: tuple(np.exp(beta * a * _parity_tensor(2))
                           for a in levels)}
    raw_fam = WeightFamily(q=2, tables=raw_tables, masses={2: level_masses})
    raw = FactorGraph.from_factors(family=raw_fam, var_degrees=g.var_degrees,
                                   factor_vars=g.factor_vars, factor_tables=g.factor_tables)
    # exp(beta J s) = cosh(beta J) (1 + tanh(beta J) s), factor by factor
    shift = float(np.log(np.cosh(beta * levels))[list(g.factor_tables)].sum())
    assert exact.partition_function(raw).log_z == pytest.approx(
        exact.partition_function(g).log_z + shift, abs=1e-10)


def test_kspin_requires_pair_interactions():
    with pytest.raises(ValueError):
        models.kspin(1.0, DegreeSpec.constant(3), r=4, d=2.0)


def test_kspin_pos_regression_grid():
    for beta in (0.5, 1.0):
        for r in (2, 4):
            fam = models.kspin(beta, K23, r=r, d=2.0).family
            rep = assumptions.check_pos(fam, trials=300, seed=17)
            assert rep.passed


def test_ldgm_pos_regression_grid():
    for eta in (0.1, 0.3, 0.45):
        rep = assumptions.check_pos(models.ldgm(eta, D2, K23).family,
                                    trials=300, seed=23)
        assert rep.passed


# ---------------------------------------------------------------------------
# registry and grids
# ---------------------------------------------------------------------------


def test_build_model_registry():
    m = io.model_from_config({"name": "ldgm", "eta": 0.2, "dspec": 2,
                              "kspec": {2: 0.5, 3: 0.5}})
    assert m.name == "ldgm" and m.kspec.support == (2, 3)
    m = io.model_from_config({"name": "sbm", "q": 3, "beta": 0.5, "d": 4})
    assert m.q == 3
    m = io.model_from_config({"name": "kspin", "beta": 1.0, "kspec": 2, "r": 3, "d": 1.5})
    assert m.params["d"] == 1.5
    with pytest.raises(ConfigError):
        io.model_from_config({"name": "nope"})


def test_sbm_rejects_non_integral_degree():
    with pytest.raises(ValueError, match="integers"):
        models.sbm(2, 1.0, 3.5)
    assert models.sbm(2, 1.0, 3.0).params["d"] == 3


def test_lrc_no_crossing_near_zero_coupling():
    from factorcavity.errors import NoCrossing

    with pytest.raises(NoCrossing):
        models.lrc_threshold(0.05, K2, [0.5, 1.0], seed=0,
                             pop_size=150, sweeps=10, samples=3000)
