import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcavity import bethe, models
from factorcavity.bethe import SimplexPopulation
from factorcavity.errors import NoCrossing, ZeroMean
from factorcavity.graphmodel import DegreeSpec, WeightFamily
from factorcavity.models import ModelSpec
from factorcavity.rng import substream

D2 = DegreeSpec.constant(2)
K2 = DegreeSpec.constant(2)
K23 = DegreeSpec.from_mapping({2: 0.5, 3: 0.5})


def _flat_model(value=1.7):
    fam = WeightFamily(q=2, tables={2: (np.full((2, 2), value),)},
                       masses={2: np.array([1.0])})
    return ModelSpec(name="flat", q=2, dspec=D2, kspec=K2, family=fam)


# ---------------------------------------------------------------------------
# size-biased law
# ---------------------------------------------------------------------------


def test_size_biased_constant_invariant():
    assert bethe.size_biased(DegreeSpec.constant(3)).support == (3,)


def test_size_biased_two_point():
    spec = bethe.size_biased(K23)
    assert spec.support == (2, 3)
    assert spec.mass[0] == pytest.approx(0.4, abs=1e-12)
    assert spec.mass[1] == pytest.approx(0.6, abs=1e-12)


def test_size_biased_kills_zero():
    spec = bethe.size_biased(DegreeSpec.from_mapping({0: 0.5, 2: 0.5}))
    assert 0 not in spec.support


def test_size_biased_zero_mean():
    with pytest.raises(ZeroMean):
        bethe.size_biased(DegreeSpec((0,), (1.0,)))


# ---------------------------------------------------------------------------
# annealed value and the uniform atom
# ---------------------------------------------------------------------------


def test_annealed_constant_weights():
    model = _flat_model(1.7)
    assert bethe.annealed_free_entropy(model) == pytest.approx(
        math.log(2) + math.log(1.7), abs=1e-12)


def test_annealed_ldgm_is_log_two():
    model = models.ldgm(0.23, D2, K23)
    assert bethe.annealed_free_entropy(model) == pytest.approx(math.log(2), abs=1e-12)


def test_annealed_sbm_closed_form():
    for q, beta, d in ((2, 0.5, 3), (3, 2.0, 5)):
        model = models.sbm(q, beta, d)
        target = math.log(q) + d / 2 * math.log(1 - (1 - math.exp(-beta)) / q)
        assert bethe.annealed_free_entropy(model) == pytest.approx(target, abs=1e-12)


def test_uniform_atom_estimate_matches_annealed():
    for model in (models.ldgm(0.25, D2, K2), models.sbm(2, 0.7, 3),
                  models.kspin(1.0, K23, r=4, d=2.0)):
        pop = SimplexPopulation.uniform_atom(model.q)
        est = bethe.bethe_estimate(pop, model, samples=20_000, seed=1)
        assert abs(est.value - bethe.annealed_free_entropy(model)) <= max(
            3 * est.stderr, 1e-12)


def test_useless_channel_estimate_constant_for_any_population():
    model = models.ldgm(0.5, D2, K23)
    rng = substream(3, 0)
    pop = SimplexPopulation(rng.dirichlet([0.4, 0.4], size=200))
    est = bethe.bethe_estimate(pop, model, samples=5000, seed=2)
    assert est.value == pytest.approx(math.log(2), abs=1e-12)
    assert est.stderr <= 1e-12


def test_variable_term_normalisation_at_uniform_atom():
    # the log of the Lambda argument equals log(q) + d log(xi) termwise
    from factorcavity.bethe import _variable_samples

    model = models.sbm(2, 0.9, 3)
    pop = SimplexPopulation.uniform_atom(2)
    log_xi = math.log(model.family.xi())
    values, log_arg, ds = _variable_samples(model, pop, 4000, substream(5, 0))
    target = math.log(2) + ds * log_xi
    assert np.abs(log_arg - target).max() <= 1e-12
    # and the normalisation E[(1/q) xi^-d Lambda-argument] = 1
    ratios = np.exp(log_arg - ds * log_xi) / 2
    assert abs(ratios.mean() - 1.0) <= 1e-12


def test_estimate_invariant_under_joint_relabeling():
    model = models.sbm(3, 1.1, 3)
    perm = [2, 0, 1]
    flipped = ModelSpec(name="sbm-perm", q=3, dspec=model.dspec, kspec=model.kspec,
                        family=model.family.permuted_alphabet(perm))
    rng = substream(7, 0)
    pts = rng.dirichlet([1.0] * 3, size=300)
    pop = SimplexPopulation(pts)
    pop_perm = SimplexPopulation(pts[:, perm])
    a = bethe.bethe_estimate(pop, model, samples=40_000, seed=11)
    b = bethe.bethe_estimate(pop_perm, flipped, samples=40_000, seed=12)
    assert abs(a.value - b.value) <= 3 * math.hypot(a.stderr, b.stderr)


# ---------------------------------------------------------------------------
# population dynamics
# ---------------------------------------------------------------------------


def test_dynamics_collapse_on_constant_weights():
    pop = bethe.population_dynamics(_flat_model(), pop_size=200, iters=1,
                                    init="planted-polarized", seed=0)
    assert np.abs(pop.points - 0.5).max() == 0.0


def test_dynamics_fixed_at_uniform_for_useless_channel():
    model = models.ldgm(0.5, D2, K2)
    pop = bethe.population_dynamics(model, pop_size=200, iters=1,
                                    init="planted-polarized", seed=1)
    assert np.abs(pop.points - 0.5).max() == 0.0


def test_dynamics_contracts_below_threshold():
    model = models.sbm(2, 0.3, 3)
    dists = []
    for iters in (0, 2, 5, 10):
        pop = bethe.population_dynamics(model, pop_size=400, iters=iters,
                                        init="planted-polarized", seed=4)
        dists.append(float(np.abs(pop.points - 0.5).mean()))
    assert dists[1] < dists[0] / 2
    assert dists[2] < dists[1]
    assert dists[3] <= dists[2] + 1e-12


def test_dynamics_requires_minimum_population():
    with pytest.raises(ValueError):
        bethe.population_dynamics(_flat_model(), pop_size=10, iters=1)


@settings(max_examples=10, deadline=None)
@given(st.floats(0.1, 2.5), st.integers(0, 1000), st.sampled_from(
    ["uniform-perturbed", "planted-polarized"]))
def test_dynamics_preserves_simplex(beta, seed, init):
    model = models.sbm(2, beta, 3)
    pop = bethe.population_dynamics(model, pop_size=120, iters=3, init=init,
                                    seed=seed)
    assert np.abs(pop.points.sum(axis=1) - 1.0).max() <= 1e-10
    assert pop.points.min() > 0.0


# ---------------------------------------------------------------------------
# supremum search and mutual information
# ---------------------------------------------------------------------------


def test_sup_constant_weights_is_annealed():
    model = _flat_model()
    sup = bethe.sup_bethe(model, restarts=1, seed=0, pop_size=150, sweeps=5,
                          samples=4000)
    assert sup.tag == "uniform-atom"
    assert sup.value == pytest.approx(bethe.annealed_free_entropy(model), abs=1e-12)
    assert sup.heuristic


def test_sup_useless_channel_is_log_two():
    model = models.ldgm(0.5, D2, K2)
    sup = bethe.sup_bethe(model, restarts=1, seed=0, pop_size=150, sweeps=5,
                          samples=4000)
    assert sup.value == pytest.approx(math.log(2), abs=1e-12)


def test_sup_includes_uniform_candidate():
    model = models.sbm(2, 1.0, 3)
    sup = bethe.sup_bethe(model, restarts=1, seed=3, pop_size=200, sweeps=10,
                          samples=4000)
    assert sup.value >= bethe.bethe_uniform_atom(model) - 3 * sup.stderr
    assert "uniform-atom" in sup.candidates


def test_sup_exceeds_annealed_above_condensation():
    model = models.sbm(2, 3.0, 3)
    sup = bethe.sup_bethe(model, restarts=1, seed=5, pop_size=1000, sweeps=60,
                          samples=20_000)
    assert sup.value - bethe.annealed_free_entropy(model) > 3 * sup.stderr
    assert sup.tag.startswith("pd-")


def test_mutual_information_nonnegative():
    for model, seed in ((models.ldgm(0.3, D2, K2), 0),
                        (models.sbm(2, 0.5, 3), 1)):
        mi = bethe.mutual_information(model, restarts=1, seed=seed, pop_size=300,
                                      sweeps=20, samples=8000, pos_trials=60)
        assert mi.value >= -3 * mi.stderr


def test_mutual_information_rejects_assortative():
    from factorcavity.errors import AssumptionViolation

    model = models.sbm(2, 1.0, 3, assortative=True)
    with pytest.raises(AssumptionViolation):
        bethe.mutual_information(model, restarts=1, seed=0, pop_size=150,
                                 sweeps=5, samples=2000, pos_trials=4000)


def test_mutual_information_constant_weights_zero():
    mi = bethe.mutual_information(_flat_model(1.3), restarts=1, seed=0,
                                  pop_size=150, sweeps=5, samples=2000,
                                  pos_trials=30)
    assert abs(mi.value) <= 1e-12


def test_mutual_information_float_protocol():
    mi = bethe.mutual_information(models.ldgm(0.5, D2, K2), restarts=1, seed=0,
                                  pop_size=150, sweeps=5, samples=2000,
                                  pos_trials=30)
    assert float(mi) == mi.value == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# threshold scans
# ---------------------------------------------------------------------------


def test_scan_no_crossing_at_zero_coupling():
    def family(beta):
        return models.sbm(2, beta, 3)

    with pytest.raises(NoCrossing) as err:
        bethe.threshold_scan(family, [0.0, 0.1, 0.2], seed=0, restarts=1,
                             pop_size=150, sweeps=10, samples=3000)
    assert len(err.value.rows) == 3


def test_scan_no_crossing_useless_channel():
    def family(ratio):
        # mean degree over mean arity sweep at eta = 1/2
        return models.ldgm(0.5, DegreeSpec.constant(int(2 * ratio)), K2)

    with pytest.raises(NoCrossing):
        bethe.threshold_scan(family, [1, 2, 3], seed=0, restarts=1,
                             pop_size=150, sweeps=5, samples=3000)


def test_scan_brackets_sbm_condensation():
    def family(beta):
        return models.sbm(2, beta, 3)

    scan = bethe.threshold_scan(family, [0.5, 1.5, 2.5, 3.5], seed=1, restarts=1,
                                pop_size=800, sweeps=50, samples=15_000)
    assert scan.bracket in (((1.5, 2.5)), ((2.5, 3.5)))
    lo, hi = scan.bracket
    grid = [0.5, 1.5, 2.5, 3.5]
    assert grid.index(hi) - grid.index(lo) == 1
    assert scan.rows[-1].sup - scan.rows[-1].comparator > 0


def test_scan_requires_sorted_grid():
    with pytest.raises(ValueError):
        bethe.threshold_scan(lambda b: models.sbm(2, b, 3), [1.0, 0.5])


def test_lrc_bracket_reproducible_across_seeds():
    brackets = []
    for seed in (0, 1):
        scan = models.lrc_threshold(1.5, K2, [0.5, 1.0, 4.0], seed, restarts=1,
                                    pop_size=1000, sweeps=50, samples=20_000)
        brackets.append(scan.bracket)
    assert brackets[0] == brackets[1]
    assert brackets[0] == (1.0, 4.0)


# ---------------------------------------------------------------------------
# seeded equivalence: pins the random-draw order of the Bethe pipeline
# ---------------------------------------------------------------------------


# (model, init) -> (sum of the first spin column, first two points,
# estimate value, estimate stderr) for 5 sweeps of 200 points, seed 3,
# and a 3000-sample estimate, seed 4
_SEEDED_PD = {
    ("ldgm", "uniform-perturbed"): (
        100.0, [[0.5, 0.5], [0.5, 0.5]],
        0.6931471805599454, 2.0273185627517274e-18),
    ("ldgm", "planted-polarized"): (
        99.99999335021278,
        [[0.5000015250616059, 0.49999847493839406],
         [0.5000017384193273, 0.4999982615806728]],
        0.6931471805599454, 1.2179331749030557e-17),
    ("kspin", "uniform-perturbed"): (
        100.09495647649594,
        [[0.5002203964862737, 0.49977960351372624],
         [0.4946751397750602, 0.5053248602249398]],
        0.6931485966952782, 1.1553858494175432e-06),
    ("kspin", "planted-polarized"): (
        99.31705674752705,
        [[0.314098506905367, 0.685901493094633],
         [0.6873301642230709, 0.31266983577692903]],
        0.6933108045186195, 0.0004280557552450173),
    ("sbm", "uniform-perturbed"): (
        66.33875175285431,
        [[0.3270940020486813, 0.342245586349428, 0.33066041160189064],
         [0.30434121388523006, 0.3342647106532782, 0.3613940754614917]],
        0.18556076713932862, 4.977481100080424e-05),
    ("sbm", "planted-polarized"): (
        98.24961335194376,
        [[0.22434593495785354, 0.06311438602760605, 0.7125396790145404],
         [0.4934281880764171, 0.11316512735155904, 0.3934066845720238]],
        0.9752561980679828, 0.003045838558873531),
}

# model -> (sum of the first spin column of the BP marginals, marginals of
# variables 1 and 2, instance Bethe free entropy) after 5 sweeps on an
# n=200 planted graph with every tenth variable pinned, seed 1
_SEEDED_BP = {
    "sbm": (99.69006163101224,
            [[0.3039804389498637, 0.6960195610501363],
             [0.7818582641112408, 0.2181417358887592]],
            -56.43018432270605),
    "ldgm": (99.2975276704339,
             [[0.78671875, 0.21328124999999998], [0.5, 0.5]],
             124.34296082071099),
}


def test_seeded_values_reproduce():
    from factorcavity import assumptions, exact, graphmodel

    pd_models = {"ldgm": models.ldgm(0.3, DegreeSpec.constant(6), DegreeSpec.constant(3)),
                 "kspin": models.kspin(1.0, K23),
                 "sbm": models.sbm(3, 2.5, 5)}
    for (name, init), (col_sum, rows, value, stderr) in _SEEDED_PD.items():
        model = pd_models[name]
        pop = bethe.population_dynamics(model, pop_size=200, iters=5, init=init, seed=3)
        est = bethe.bethe_estimate(pop, model, samples=3000, seed=4)
        assert pop.points[:, 0].sum() == pytest.approx(col_sum, abs=1e-10)
        assert np.abs(pop.points[:2] - rows).max() <= 1e-10
        assert est.value == pytest.approx(value, abs=1e-10)
        assert est.stderr == pytest.approx(stderr, abs=1e-10)

    info = assumptions.check_pos(pd_models["kspin"].family, trials=50).info
    assert info == {"trials": 50, "evaluations": 100, "worst_margin": 0.0,
                    "semantics": "no-violation-found"}

    bp_models = {"sbm": models.sbm(2, 3.0, 3),
                 "ldgm": models.ldgm(0.1, DegreeSpec.constant(3), K23)}
    for name, (col_sum, rows, free_entropy) in _SEEDED_BP.items():
        model = bp_models[name]
        n = 200
        seq = graphmodel.sample_degree_sequence(n, model.dspec, model.kspec, 1)
        sigma = graphmodel.uniform_assignment(n, model.q, substream(1, 5))
        g = graphmodel.sample_planted(seq, sigma, model.family, 0, 1)
        pins = [(v, int(sigma[v])) for v in range(0, n, 10)]
        state = exact.bp_run(g.with_pins(pins), max_iters=5, tol=0.0)
        marg = exact.bp_marginals(state)
        assert marg[:, 0].sum() == pytest.approx(col_sum, abs=1e-10)
        assert np.abs(marg[1:3] - rows).max() <= 1e-10
        assert exact.bethe_instance(state) == pytest.approx(free_entropy, abs=1e-10)
