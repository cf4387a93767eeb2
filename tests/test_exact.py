import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import chi2

from factorcavity import exact, models
from factorcavity.errors import CapExceeded
from factorcavity.graphmodel import (DegreeSequence, DegreeSpec, FactorGraph,
                                     WeightFamily, pin, sample_degree_sequence,
                                     sample_null, sample_planted)
from factorcavity.rng import substream

D2 = DegreeSpec.constant(2)
K2 = DegreeSpec.constant(2)


def _empty_graph(n, q=2):
    fam = WeightFamily.constant(q, [2])
    return FactorGraph(family=fam, var_degrees=(0,) * n, factor_vars=(),
                       factor_tables=())


def _tensor_oracle_log_z(g):
    """Independent evaluation: dense joint tensor, then axiswise elimination."""
    q = g.q
    grids = np.meshgrid(*[np.arange(q)] * g.n, indexing="ij")
    joint = np.ones((q,) * g.n)
    for j in range(g.m):
        table = g.factor_table(j)
        joint = joint * table[tuple(grids[v] for v in g.factor_vars[j])]
    for v, s in g.pins:
        joint = joint * (grids[v] == s)
    while joint.ndim:
        joint = joint.sum(axis=-1)
    return math.log(float(joint))


# ---------------------------------------------------------------------------
# partition function
# ---------------------------------------------------------------------------


def test_zero_factor_graph():
    g = _empty_graph(5)
    summary = exact.partition_function(g)
    assert summary.log_z == pytest.approx(5 * math.log(2), abs=1e-12)
    assert np.allclose(summary.marginals, 0.5)


def test_single_constant_factor():
    fam = WeightFamily.constant(2, [2], value=0.7)
    g = FactorGraph(family=fam, var_degrees=(1, 1), factor_vars=((0, 1),),
                    factor_tables=(0,))
    assert exact.partition_function(g).log_z == pytest.approx(math.log(4 * 0.7), abs=1e-12)


def test_log_z_matches_tensor_oracle():
    model = models.ldgm(0.2, D2, K2)
    g = sample_null(10, D2, K2, model.family, seed=42)
    assert exact.partition_function(g).log_z == pytest.approx(
        _tensor_oracle_log_z(g), abs=1e-9)


def test_state_cap():
    g = _empty_graph(30)
    with pytest.raises(CapExceeded):
        exact.partition_function(g, cap=2 ** 20)


def _random_graph(q, n, seed, pins=()):
    """Random tables at arities 1-3, random factors, one repeating a variable."""
    rng = np.random.default_rng(seed)
    fam = WeightFamily(q=q, tables={k: tuple(rng.uniform(0.2, 3.0, (q,) * k) for _ in range(2))
                                    for k in (1, 2, 3)},
                       masses={k: np.array([0.5, 0.5]) for k in (1, 2, 3)})
    factor_vars = [(0, 0, 1)] + [tuple(rng.integers(0, n, size=k))
                                 for k in rng.integers(1, 4, size=n + 2)]
    degrees = np.bincount(np.concatenate(factor_vars), minlength=n)
    return FactorGraph(family=fam, var_degrees=tuple(degrees), factor_vars=tuple(factor_vars),
                       factor_tables=tuple(rng.integers(0, 2, size=len(factor_vars))),
                       pins=pins)


def _termwise(g):
    """log Z, marginals and pair joints from one assignment_log_weight per state."""
    n, q = g.n, g.q
    states = list(itertools.product(range(q), repeat=n))
    logw = np.array([exact.assignment_log_weight(g, s) for s in states])
    log_z = float(logsumexp(logw))
    marg = np.zeros((n, q))
    joint = np.zeros((n, n, q, q))
    for s, p in zip(states, np.exp(logw - log_z)):
        for x in range(n):
            marg[x, s[x]] += p
            for y in range(n):
                joint[x, y, s[x], s[y]] += p
    return log_z, marg, joint, np.exp(logw - log_z)


@pytest.mark.parametrize("chunk_floats", [1, 40, 1 << 19])
@pytest.mark.parametrize("q,n,pins", [(2, 7, ()), (2, 6, ((5, 1), (2, 0))),
                                      (3, 5, ()), (3, 5, ((0, 2), (4, 1)))])
def test_enumeration_matches_termwise_oracle(monkeypatch, chunk_floats, q, n, pins):
    # the block budget sets how many states share a block: one per block, a
    # few, or all of them, so leading, trailing and mixed factors and pins
    # all occur
    monkeypatch.setattr(exact, "_CHUNK_FLOATS", chunk_floats)
    g = _random_graph(q, n, seed=10 * q + n, pins=pins)
    log_z, marg, joint, probs = _termwise(g)
    summary = exact.partition_function(g, want_pairs=True)
    assert summary.log_z == pytest.approx(log_z, abs=1e-12)
    assert np.abs(summary.marginals - marg).max() <= 1e-12
    assert np.abs(summary.pair_joint - joint).max() <= 1e-12
    dev = np.abs(joint - marg[:, None, :, None] * marg[None, :, None, :])
    cell = dev[:, :, 0, 0] if q == 2 else dev.max(axis=(2, 3))
    np.fill_diagonal(cell, 0.0)
    assert exact.two_point(g) == pytest.approx(cell.sum() / n ** 2, abs=1e-12)
    assert exact.partition_function(g).log_z == pytest.approx(log_z, abs=1e-12)
    # the sampler reads the same log weights: inverse-CDF picks in
    # lexicographic state order, from its own substream
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    picks = np.searchsorted(cdf, substream(5, 30).random(2000), side="right")
    expected = np.array(list(itertools.product(range(q), repeat=n)))[picks]
    assert (exact.boltzmann_sample(g, 2000, seed=5) == expected).all()


def test_pinned_out_leading_blocks():
    # pinning variable 0 to 1 gives the first half of the state space, the
    # first two of four blocks, weight zero; the unary factor on variable 1
    # makes the last block's maximum exceed the third's, so the running
    # maximum is raised after weight has been accumulated
    n = 16
    assert 2 ** 14 * 14 * 2 <= exact._CHUNK_FLOATS < 2 ** 15 * 15 * 2
    g = _random_graph(2, n, seed=3)
    fam = WeightFamily(q=2, tables={**g.family.tables, 1: (np.array([1.0, 50.0]),) * 2},
                       masses=g.family.masses)
    g = FactorGraph(family=fam, var_degrees=g.var_degrees, factor_vars=g.factor_vars + ((1,),),
                    factor_tables=g.factor_tables + (0,))
    pinned = g.with_pins([(0, 1)])
    # the unpinned graph's log weights restricted to sigma_0 = 1 by hand
    grids = np.meshgrid(*[np.arange(2)] * n, indexing="ij")
    logw = np.zeros((2,) * n)
    for j in range(g.m):
        logw = logw + np.log(g.factor_table(j)[tuple(grids[v] for v in g.factor_vars[j])])
    kept = logw[1]
    log_z = float(logsumexp(kept))
    probs = np.exp(kept - log_z)
    marg = np.array([[0.0, 1.0]] + [[probs.take(s, axis=v - 1).sum() for s in (0, 1)]
                                    for v in range(1, n)])
    summary = exact.partition_function(pinned)
    assert summary.log_z == pytest.approx(log_z, abs=1e-12)
    assert np.abs(summary.marginals - marg).max() <= 1e-12
    assert summary.log_z < exact.partition_function(g).log_z


@pytest.mark.parametrize("variable", [0, 15])
def test_conflicting_pins_raise(variable):
    g = _random_graph(2, 16, seed=4).with_pins([(variable, 0), (variable, 1)])
    with pytest.raises(ValueError):
        exact.partition_function(g)


def test_log_z_additive_over_components():
    fam = models.sbm(2, 0.8, 3).family
    g1 = sample_null(4, D2, K2, fam, seed=0)
    g2 = sample_null(3, D2, K2, fam, seed=1)
    merged = FactorGraph(
        family=fam,
        var_degrees=g1.var_degrees + g2.var_degrees,
        factor_vars=g1.factor_vars + tuple(tuple(v + g1.n for v in fv)
                                           for fv in g2.factor_vars),
        factor_tables=g1.factor_tables + g2.factor_tables)
    assert exact.partition_function(merged).log_z == pytest.approx(
        exact.partition_function(g1).log_z + exact.partition_function(g2).log_z,
        abs=1e-10)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_boltzmann_uniform_chi_square():
    g = _empty_graph(3)
    draws = exact.boltzmann_sample(g, 100_000, seed=0)
    idx = draws[:, 0] * 4 + draws[:, 1] * 2 + draws[:, 2]
    counts = np.bincount(idx, minlength=8)
    expected = len(draws) / 8
    stat = float(((counts - expected) ** 2 / expected).sum())
    # 4-sigma two-sided band on a chi-square with 7 dof
    assert stat < chi2.ppf(1 - 3.17e-5, df=7)


def test_fully_pinned_sampling():
    fam = models.sbm(2, 0.8, 3).family
    g = sample_null(4, D2, K2, fam, seed=2)
    pinned = pin(g, 4, seed=3)
    pattern = np.array([s for _, s in pinned.pins])
    draws = exact.boltzmann_sample(pinned, 50, seed=4)
    assert (draws == pattern).all()


def test_boltzmann_marginals_sbm():
    fam = models.sbm(2, 1.2, 3).family
    g = sample_null(8, DegreeSpec.constant(3), K2, fam, seed=5)
    summary = exact.partition_function(g)
    draws = exact.boltzmann_sample(g, 100_000, seed=6)
    for v in range(8):
        emp = np.mean(draws[:, v] == 0)
        p = summary.marginals[v, 0]
        assert abs(emp - p) <= 4 * math.sqrt(p * (1 - p) / len(draws))


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


def test_two_point_product_measure():
    assert exact.two_point(_empty_graph(4)) == 0.0


def test_two_point_two_variable_hand_value():
    eps = 0.3
    table = np.array([[1 + eps, eps], [eps, 1 + eps]])
    fam = WeightFamily(q=2, tables={2: (table,)}, masses={2: np.array([1.0])})
    g = FactorGraph(family=fam, var_degrees=(1, 1), factor_vars=((0, 1),),
                    factor_tables=(0,))
    z = 2 * (1 + eps) + 2 * eps
    joint_00 = (1 + eps) / z
    marg = 0.5
    off = abs(joint_00 - marg * marg)
    expected = 2 * off / 4.0
    assert expected > 0
    assert exact.two_point(g) == pytest.approx(expected, abs=1e-12)


def test_pair_correlations_field():
    fam = models.sbm(2, 1.0, 3).family
    g = sample_null(4, D2, K2, fam, seed=3)
    summary = exact.partition_function(g, want_pairs=True)
    corr = summary.pair_correlations()
    assert corr.shape == (4, 4, 2, 2)
    # each pair block sums to zero: joint and product share the marginals
    assert np.abs(corr.sum(axis=(2, 3))).max() < 1e-12
    with pytest.raises(ValueError):
        exact.partition_function(g).pair_correlations()


def test_two_point_weak_coupling_vanishes():
    model = models.kspin(1e-6, DegreeSpec.constant(2), r=2, d=2.0)
    g = sample_null(6, D2, K2, model.family, seed=7)
    assert exact.two_point(g) <= 1e-6


# ---------------------------------------------------------------------------
# ensemble expectations
# ---------------------------------------------------------------------------


def test_expected_weight_constant_family():
    fam = WeightFamily.constant(2, [2])
    seq = DegreeSequence((2, 2), (2, 2))
    assert exact.expected_weight(seq, fam, np.array([0, 1])) == pytest.approx(1.0, abs=1e-14)


def test_expected_weight_single_factor():
    model = models.sbm(2, 0.9, 3)
    fam = model.family
    seq = DegreeSequence((1, 1), (2,))
    sigma = np.array([0, 1])
    assert exact.expected_weight(seq, fam, sigma) == pytest.approx(
        float(fam.mean_table(2)[0, 1]), abs=1e-14)


def test_expected_weight_matches_slot_map_sum():
    fam = models.sbm(2, 0.9, 3).family
    seq = DegreeSequence((2, 2, 2), (2, 2, 2))
    sigma = np.array([0, 1, 1])
    direct = exact.expected_weight(seq, fam, sigma)
    total = 0.0
    for slot_map, prob in exact.iter_slot_maps(seq):
        w = 1.0
        for fv in slot_map:
            w *= float(fam.mean_table(2)[tuple(sigma[v] for v in fv)])
        total += prob * w
    assert direct == pytest.approx(total, abs=1e-12)


def test_nishimori_check_constant_family():
    fam = WeightFamily.constant(2, [2], value=2.0)
    assert exact.nishimori_check(3, D2, K2, fam, 1e-12) <= 1e-14


# ---------------------------------------------------------------------------
# information estimators
# ---------------------------------------------------------------------------


def test_mi_useless_channel_vanishes():
    model = models.ldgm(0.5, D2, K2)
    mc = exact.mi_monte_carlo(model, 8, 50, seed=0)
    assert abs(mc.value) <= max(3 * mc.stderr, 1e-10)


def test_mi_constant_weights_vanishes():
    fam = WeightFamily(q=2, tables={2: (np.full((2, 2), 1.7),)},
                       masses={2: np.array([1.0])})
    model = models.ModelSpec(name="flat", q=2, dspec=D2, kspec=K2, family=fam)
    mc = exact.mi_monte_carlo(model, 6, 40, seed=1)
    assert abs(mc.value) <= max(3 * mc.stderr, 1e-10)


def test_mi_invariant_under_relabeling():
    model = models.ldgm(0.3, D2, K2)
    flipped = models.ModelSpec(name="ldgm-flip", q=2, dspec=D2, kspec=K2,
                               family=model.family.permuted_alphabet([1, 0]))
    a = exact.mi_monte_carlo(model, 8, 60, seed=3)
    b = exact.mi_monte_carlo(flipped, 8, 60, seed=3)
    assert a.value == pytest.approx(b.value, abs=1e-12)


def test_kl_density_zero_at_beta_zero():
    model = models.sbm(2, 0.0, 3)
    assert exact.kl_density(model, 6, 20, seed=0) == pytest.approx(0.0, abs=1e-12)


def test_kl_density_constant_weights_zero():
    fam = WeightFamily(q=2, tables={2: (np.full((2, 2), 1.3),)},
                       masses={2: np.array([1.0])})
    model = models.ModelSpec(name="flat", q=2, dspec=D2, kspec=K2, family=fam)
    assert exact.kl_density(model, 6, 20, seed=0) == pytest.approx(0.0, abs=1e-12)


def test_kl_density_plus_assignment_term_positive():
    # The reported number is the leading term of the divergence density; at
    # desk sizes the dropped assignment term dominates it, so positivity is
    # checked on the full finite-size decomposition.
    model = models.sbm(2, 3.0, 3)
    n = 12
    seq = sample_degree_sequence(n, model.dspec, model.kspec, 1)
    w = np.array([exact.expected_weight(seq, model.family, np.array(s))
                  for s in np.ndindex(*(2,) * n)])
    phat = w / w.sum()
    assignment_term = float(np.mean(-n * math.log(2) - np.log(phat))) / n
    leading, stderr = exact.kl_density(model, n, 120, seed=1, with_stderr=True)
    assert leading + assignment_term > 3 * stderr


# ---------------------------------------------------------------------------
# belief propagation
# ---------------------------------------------------------------------------


def test_bp_zero_factor_graph():
    g = _empty_graph(4)
    state = exact.bp_run(g)
    assert state.converged
    assert np.allclose(exact.bp_marginals(state), 0.25 + np.zeros((4, 2)) + 0.25)
    assert exact.bethe_instance(state) == pytest.approx(4 * math.log(2), abs=1e-12)


def test_bp_single_cycle_weak_coupling():
    # 4-cycle with entries within 10% of 1
    table = np.array([[1.08, 0.94], [0.94, 1.08]])
    fam = WeightFamily(q=2, tables={2: (table,)}, masses={2: np.array([1.0])})
    g = FactorGraph(family=fam, var_degrees=(2, 2, 2, 2),
                    factor_vars=((0, 1), (1, 2), (2, 3), (3, 0)),
                    factor_tables=(0,) * 4)
    state = exact.bp_run(g, max_iters=2000, damping=0.2, tol=1e-12)
    assert state.converged
    summary = exact.partition_function(g)
    assert np.abs(exact.bp_marginals(state) - summary.marginals).max() <= 1e-6


def test_bp_pinned_tree_is_exact():
    fam = models.sbm(2, 0.9, 3).family
    g = FactorGraph(family=fam, var_degrees=(1, 2, 1),
                    factor_vars=((0, 1), (1, 2)), factor_tables=(0, 0),
                    pins=((0, 1),))
    state = exact.bp_run(g, damping=0.0, tol=1e-13)
    summary = exact.partition_function(g)
    assert np.abs(exact.bp_marginals(state) - summary.marginals).max() <= 1e-10
    assert exact.bethe_instance(state) == pytest.approx(summary.log_z, abs=1e-10)


def test_bp_reports_non_convergence():
    # pinned frustrated triangle, no damping, unreachable tolerance: the
    # state carries the verdict rather than raising
    table = np.exp(-3.0 * np.eye(2))
    fam = WeightFamily(q=2, tables={2: (table,)}, masses={2: np.array([1.0])})
    g = FactorGraph(family=fam, var_degrees=(2, 2, 2),
                    factor_vars=((0, 1), (1, 2), (2, 0)),
                    factor_tables=(0,) * 3, pins=((0, 0),))
    state = exact.bp_run(g, max_iters=3, damping=0.0, tol=1e-15)
    assert not state.converged
    assert state.iterations == 3
    assert state.max_change > 1e-15


def _loop_bp(g, sweeps, damping):
    """Reference sweeps: the factor side through the contraction kernel, the
    variable side as per-variable prefix/suffix products in the linear domain."""
    q = g.q
    edge_var = exact._edge_vars(g)
    fields = exact._pin_fields(g)
    ks, tables, slots = exact._factor_slots(g)
    factor_of = np.repeat(np.arange(g.m), ks)
    open_slot = np.arange(len(edge_var)) - np.repeat(np.cumsum(ks) - ks, ks)
    pos = np.arange(slots.shape[1] - 1)
    others = slots[factor_of[:, None], pos + (pos >= open_slot[:, None])]
    v2f = np.full((len(edge_var), q), 1.0 / q)
    f2v = v2f.copy()
    for _ in range(sweeps):
        new_f2v = g.family.contract(ks[factor_of], tables[factor_of], v2f[others], open_slot)
        new_f2v = np.clip(new_f2v, 0.0, None)
        new_f2v /= new_f2v.sum(axis=1, keepdims=True)
        new_v2f = np.empty_like(v2f)
        for v in range(g.n):
            ids = np.flatnonzero(edge_var == v)
            msgs = [new_f2v[e] for e in ids]
            prefix = [fields[v]]
            for msg in msgs:
                prefix.append(prefix[-1] * msg)
            suffix = [np.ones(q)]
            for msg in reversed(msgs):
                suffix.append(suffix[-1] * msg)
            suffix.reverse()
            for i, e in enumerate(ids):
                out = prefix[i] * suffix[i + 1]
                new_v2f[e] = out / out.sum()
        f2v = damping * f2v + (1 - damping) * new_f2v
        v2f = damping * v2f + (1 - damping) * new_v2f
    return v2f, f2v


def _planted_bp_graph(model, n, seed):
    seq = sample_degree_sequence(n, model.dspec, model.kspec, seed)
    sigma = substream(seed, 5).integers(0, model.q, size=n)
    g = sample_planted(seq, sigma, model.family, 0, seed)
    return g.with_pins((v, int(sigma[v])) for v in range(0, n, 7))


@pytest.mark.parametrize("graph", [
    # pinned planted graphs, mixed arities {2, 3} and a q=2 block model
    lambda: _planted_bp_graph(models.ldgm(0.1, DegreeSpec.constant(3),
                                          DegreeSpec.from_mapping({2: 0.5, 3: 0.5})), 60, 2),
    lambda: _planted_bp_graph(models.sbm(2, 3.0, 3), 60, 3),
    # q=3, arities 1-3, a factor repeating a variable, pins
    lambda: _random_graph(3, 6, 4, pins=((1, 2), (4, 0))),
    # parallel edges between the same two variables
    lambda: FactorGraph(family=models.sbm(3, 1.0, 3).family, var_degrees=(3, 3, 2),
                        factor_vars=((0, 1), (0, 1), (1, 2), (2, 0)),
                        factor_tables=(0,) * 4, pins=((2, 1),)),
    # no factors, one pin
    lambda: _empty_graph(4).with_pins([(2, 1)]),
])
def test_bp_matches_loop_oracle(graph):
    g = graph()
    v2f, f2v = _loop_bp(g, 7, 0.3)
    state = exact.bp_run(g, max_iters=7, damping=0.3, tol=0.0)
    assert state.iterations == 7
    assert np.abs(state.var_to_fac - v2f).max(initial=0.0) <= 1e-12
    assert np.abs(state.fac_to_var - f2v).max(initial=0.0) <= 1e-12
