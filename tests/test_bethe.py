import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcavity import bethe, models
from factorcavity.bethe import SimplexPopulation
from factorcavity.errors import NoCrossing, NumericalUnderflow, SymViolation, ZeroMean
from factorcavity.graphmodel import DegreeSpec, WeightFamily
from factorcavity.models import ModelSpec
from factorcavity.rng import substream

D2 = DegreeSpec.constant(2)
K2 = DegreeSpec.constant(2)
K23 = DegreeSpec.from_mapping({2: 0.5, 3: 0.5})


def _flat_model(value=1.7):
    fam = WeightFamily(q=2, tables={2: (np.full((2, 2), value),)},
                       masses={2: np.array([1.0])})
    return ModelSpec(name="flat", dspec=D2, kspec=K2, family=fam)


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


def test_estimate_at_the_uniform_atom_is_its_closed_form():
    # sup_bethe takes B at an exact uniform atom from bethe_uniform_atom; with
    # constant degrees every sample is that closed form up to rounding
    for q, beta, d in ((2, 0.7, 3), (3, 2.5, 5), (4, 1.3, 4), (5, 3.0, 8)):
        model = models.sbm(q, beta, d)
        est = bethe.bethe_estimate(SimplexPopulation.uniform_atom(q), model, samples=2000, seed=q)
        assert abs(est.value - bethe.bethe_uniform_atom(model)) <= 1e-12
        assert est.stderr <= 1e-12


def test_useless_channel_estimate_constant_for_any_population():
    model = models.ldgm(0.5, D2, K23)
    rng = substream(3, 0)
    pop = SimplexPopulation(rng.dirichlet([0.4, 0.4], size=200))
    est = bethe.bethe_estimate(pop, model, samples=5000, seed=2)
    assert est.value == pytest.approx(math.log(2), abs=1e-12)
    assert est.stderr <= 1e-12


def test_variable_term_normalisation_at_uniform_atom():
    # every planted message into the uniform atom is xi, whatever its root,
    # arity, open slot or table
    from factorcavity.bethe import _planted_draw

    for model in (models.sbm(2, 0.9, 3), models.sbm(3, 2.0, 4),
                  models.kspin(1.0, K23, r=4, d=2.0)):
        pop = SimplexPopulation.uniform_atom(model.q)
        rng = substream(5, 0)
        roots = rng.integers(0, model.q, size=4000)
        ks, tables, hs, idx = _planted_draw(model, pop, bethe.size_biased(model.kspec),
                                            roots, rng)
        messages = model.family.contract(ks, tables, pop.points[idx], hs)
        assert messages.shape == (4000, model.q)
        assert np.abs(messages - model.family.xi()).max() <= 1e-12


def _lambda_form(model, pop, samples, seed):
    """The functional in its Lambda form, E_null[X ln Z_v] - factor term:
    tables from the prior, points from the whole population, one sample of
    (1/q) xi^-d Z ln Z - (E[d]/(xi E[k])) (k-1) mix ln mix per row."""
    rng = substream(seed, 0)
    family, xi = model.family, model.family.xi()

    def contract(klaw, count, closed):
        """Messages at uniform open slots, or closed mixes: the message at
        the last slot times that slot's point."""
        ks = klaw.sample(rng, count)
        tables = np.zeros(count, dtype=np.int64)
        for k in np.unique(ks).tolist():
            rows = ks == k
            tables[rows] = rng.choice(len(family.masses[k]), size=rows.sum(),
                                      p=family.masses[k])
        points = pop.points[rng.integers(0, pop.size, size=(count, ks.max()))]
        if not closed:
            hs = (rng.random(count) * ks).astype(np.int64)
            return ks, family.contract(ks, tables, points, hs)
        messages = family.contract(ks, tables, points, ks - 1)
        return ks, (messages * points[np.arange(count), ks - 1]).sum(axis=1)

    ds = model.dspec.sample(rng, samples)
    _, messages = contract(bethe.size_biased(model.kspec), int(ds.sum()), False)
    z = np.exp(bethe._log_products(messages, np.concatenate([[0], np.cumsum(ds)]))).sum(axis=1)
    ks, mix = contract(model.kspec, samples, True)
    vals = (z * np.log(z) / (model.q * xi ** ds) - model.dspec.mean
            / (xi * model.kspec.mean) * (ks - 1) * mix * np.log(mix))
    return vals.mean(), vals.std(ddof=1) / math.sqrt(samples)


@pytest.mark.parametrize("name", ["sbm", "ldgm"])
def test_planted_form_matches_lambda_form(name):
    # E_null[X ln Z] = E_tilted[ln Z] with X = Z / (q xi^d), on a population
    # that population dynamics has brought to the Nishimori line
    model = {"sbm": models.sbm(2, 3.0, 3),
             "ldgm": models.ldgm(0.1, DegreeSpec.constant(6), DegreeSpec.constant(3))}[name]
    pop = bethe.population_dynamics(model, 2000, 100, "planted-polarized", seed=0)
    planted = bethe.bethe_estimate(pop, model, samples=100_000, seed=1)
    value, stderr = _lambda_form(model, pop, 100_000, 2)
    assert planted.value - bethe.bethe_uniform_atom(model) > 3 * planted.stderr
    assert abs(planted.value - value) <= 3 * math.hypot(planted.stderr, stderr)


def test_estimate_at_informed_ldgm_population_matches_closed_form():
    # every point sits on the corner of its colour, so a planted factor's
    # open-slot message is its table at the planted tuple with the root spin
    # swapped in: a good check (2 - 2 eta) w.p. 1 - eta, a bad one (2 eta)
    # w.p. eta, and flipping the root swaps the two values; then
    # Z_v = a^good b^bad + b^good a^bad and mix is the table at the tuple
    eta = 0.1
    model = models.ldgm(eta, DegreeSpec.constant(6), K23)
    a, b = 2 - 2 * eta, 2 * eta
    pop = SimplexPopulation(np.eye(2)[np.arange(200) % 2])
    est = bethe.bethe_estimate(pop, model, samples=40_000, seed=3)
    d = 6
    log_z = sum(math.comb(d, bad) * eta ** bad * (1 - eta) ** (d - bad)
                * math.log(a ** (d - bad) * b ** bad + b ** (d - bad) * a ** bad)
                for bad in range(d + 1))
    mean_log_mix = (1 - eta) * math.log(a) + eta * math.log(b)
    k_minus_one = sum(p * (k - 1) for k, p in zip(K23.support, K23.mass))
    closed = log_z - d / K23.mean * k_minus_one * mean_log_mix
    assert abs(est.value - closed) <= 3 * est.stderr


def test_rooted_cdf_is_the_conditional_planted_law():
    # block (h, s) of the rooted CDF steps through (table, other slots) with
    # probability P(psi) psi(tau) / sum, given tau_h = s
    rng = substream(9, 0)
    q, k = 3, 3
    fam = WeightFamily(q=q, tables={k: tuple(rng.uniform(0.2, 2.0, (q,) * k)
                                             for _ in range(2))},
                       masses={k: np.array([0.3, 0.7])})
    form = fam.compiled.arity[k]
    blocks = form.rooted_cdf.reshape(k * q, -1) - 2.0 * np.arange(k * q)[:, None]
    assert np.all(blocks[:, -1] == 1.0)
    steps = np.diff(blocks, axis=1, prepend=0.0).ravel()
    for pick, step in enumerate(steps):
        h, s = divmod(pick // (2 * q ** (k - 1)), q)
        table = form.rooted_table[pick]
        tau = list(form.rooted_others[pick])
        tau.insert(h, s)
        weights = fam.masses[k][:, None] * np.stack(
            [np.take(t, s, axis=h).ravel() for t in fam.tables[k]])
        expected = fam.masses[k][table] * fam.tables[k][table][tuple(tau)] / weights.sum()
        assert step == pytest.approx(expected, abs=1e-12)


def _guide_families():
    """Families whose rooted CDFs the guided search must read like the
    binary search: the block model at q = 2-5, LDGM (6, 3), the mixed
    2/3-spin model, and a random q=3, k=3 family that is not slot-symmetric
    and whose entries span nine decades, so that cells crowd."""
    rng = substream(11, 0)
    tables = tuple(10.0 ** rng.uniform(-9, 0, (3, 3, 3)) for _ in range(2))
    assert not np.allclose(tables[0], tables[0].transpose(1, 0, 2))
    found = {f"sbm q={q}": models.sbm(q, 2.0, 3).family for q in (2, 3, 4, 5)}
    found["ldgm"] = models.ldgm(0.1, DegreeSpec.constant(6), DegreeSpec.constant(3)).family
    found["kspin"] = models.kspin(1.0, K23).family
    found["random"] = WeightFamily(q=3, tables={3: tables}, masses={3: np.array([0.4, 0.6])})
    return found


@pytest.mark.parametrize("name", list(_guide_families()))
def test_rooted_pick_is_the_binary_search(name):
    # keys at each block's start 2b, at every CDF value (the block's end
    # 2b + 1 among them), just below each end, and uniform in each block;
    # the guided search must return np.searchsorted's pick for every one
    family = _guide_families()[name]
    rng = substream(12, 0)
    for k, form in family.compiled.arity.items():
        cdf = form.rooted_cdf
        assert np.all(np.diff(cdf) >= 0)
        starts = 2.0 * np.arange(k * family.q)
        keys = np.concatenate([starts, cdf, np.nextafter(starts + 1.0, 0.0),
                               np.repeat(starts, 500) + rng.random(500 * len(starts))])
        expected = np.searchsorted(cdf, keys)
        assert np.array_equal(bethe._rooted_pick(form, keys), expected)
        # no key starts past its pick, and the crowded cells of the last
        # two families send keys on to the binary search
        first = form.rooted_guide[(keys * form.rooted_scale).astype(np.int64)]
        assert np.all(first <= expected)
        if name in ("kspin", "random"):
            assert np.any(expected - first > 1)


@pytest.mark.parametrize("name", list(_guide_families()))
def test_rooted_lookups_match_the_division_decode(name):
    # entry i of the rooted CDF is table i // q^(k-1) mod T with the other
    # slots' spins of tuple i mod q^(k-1), in row-major order
    family = _guide_families()[name]
    q = family.q
    for k, form in family.compiled.arity.items():
        pick = np.arange(len(form.rooted_cdf))
        rest = q ** (k - 1)
        other_colours = np.indices((q,) * (k - 1)).reshape(k - 1, rest).T
        assert np.array_equal(form.rooted_table, pick // rest % len(form.masses))
        assert np.array_equal(form.rooted_others, other_colours[pick % rest])


def test_population_refuses_non_finite_points():
    # NaN compares false with every bound, so each check must be phrased
    # to fail on it
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="simplex"):
            SimplexPopulation(np.array([[bad, bad], [0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="simplex"):
        SimplexPopulation(np.array([[np.nan, 1.0], [0.5, 0.5], [0.5, 0.5]]))


def test_estimate_refuses_a_nan_factor_mix():
    # with no variable-side messages (degree 0) a NaN population reaches
    # only the factor mix, which must raise instead of giving a NaN value
    model = models.ldgm(0.1, DegreeSpec.constant(0), DegreeSpec.constant(3))
    pop = SimplexPopulation.uniform_atom(2)
    pop.points[:] = np.nan
    with pytest.raises(NumericalUnderflow, match="factor mix"):
        bethe.bethe_estimate(pop, model, samples=100)


def test_population_draws_points_of_the_asked_colour():
    rng = substream(4, 0)
    # 11 points: colours 0 and 1 have four members, colour 2 has three
    pts = rng.dirichlet([1.0] * 3, size=11)
    pop = SimplexPopulation(pts)
    asked = rng.integers(0, 3, size=3000)
    index = pop.draw(rng, asked)
    assert index.shape == asked.shape
    assert np.array_equal(index % 3, asked)
    assert set(index.tolist()) == set(range(11))
    with pytest.raises(ValueError):
        SimplexPopulation(pts[:2])


def test_population_draw_reads_colours_in_index_order():
    # the uniforms fill the colours' shape in C order whatever their memory
    # layout, so colours held slot-major and drawn through their transpose
    # give the same indices as a C-ordered copy
    pop = SimplexPopulation(substream(4, 1).dirichlet([1.0] * 3, size=50))
    colours = substream(4, 2).integers(0, 3, size=(40, 4))
    want = pop.draw(substream(4, 3), colours)
    for view in (np.asfortranarray(colours), np.ascontiguousarray(colours.T).T):
        assert not view.flags.c_contiguous
        assert np.array_equal(pop.draw(substream(4, 3), view), want)


def test_log_products_zero_the_variables_with_no_messages():
    # powers of two, so every log is a multiple of ln 2; ends are offsets into
    # a longer batch, as population dynamics passes them
    messages = np.array([[1.0, 2.0], [4.0, 0.5], [8.0, 1.0], [0.25, 2.0]])
    ln2 = math.log(2.0)
    cases = {"first": ([10, 10, 12, 14], [[0, 0], [2, 0], [1, 1]]),
             "middle": ([10, 12, 12, 14], [[2, 0], [0, 0], [1, 1]]),
             "last": ([10, 12, 14, 14], [[2, 0], [1, 1], [0, 0]]),
             "runs": ([10, 10, 10, 11, 14, 14, 14], [[0, 0], [0, 0], [0, 1],
                                                     [3, 0], [0, 0], [0, 0]])}
    for name, (ends, halvings) in cases.items():
        got = bethe._log_products(messages, np.array(ends))
        want = ln2 * np.array(halvings, dtype=float)
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() <= 1e-15, name
        empty = np.diff(ends) == 0
        assert np.all(got[empty] == 0.0), name
    # a batch in which no variable has a message
    got = bethe._log_products(np.zeros((0, 3)), np.array([7, 7, 7]))
    assert got.shape == (2, 3) and np.all(got == 0.0)


def test_planted_draw_refuses_a_family_without_sym():
    # the rooted draw is the planted law only when every (slot, spin) block
    # has the same normaliser, so a non-constant marginal sum must raise
    fam = WeightFamily(q=2, tables={2: (np.array([[1.0, 2.0], [3.0, 4.0]]),)},
                       masses={2: np.array([1.0])})
    model = ModelSpec(name="asym", dspec=D2, kspec=K2, family=fam)
    with pytest.raises(SymViolation):
        bethe.bethe_estimate(SimplexPopulation.uniform_atom(2), model, samples=100)
    with pytest.raises(SymViolation):
        bethe.population_dynamics(model, pop_size=100, iters=1)


@pytest.mark.parametrize("samples", [-1, 0, 1])
def test_estimate_refuses_fewer_than_two_samples(samples):
    # a standard error needs two samples; fewer used to give NaN or infinity
    model = models.ldgm(0.3, D2, K2)
    with pytest.raises(ValueError, match="at least 2 samples"):
        bethe.bethe_estimate(SimplexPopulation.uniform_atom(2), model, samples=samples)
    est = bethe.bethe_estimate(SimplexPopulation.uniform_atom(2), model, samples=2)
    assert math.isfinite(est.value) and math.isfinite(est.stderr)


@pytest.mark.parametrize("budget", [{"samples": 1}, {"samples": 0}, {"sweeps": -1}])
def test_sup_bethe_refuses_an_unusable_budget_before_any_dynamics(monkeypatch, budget):
    def unreachable(*args, **kwargs):
        raise AssertionError("population dynamics ran")

    monkeypatch.setattr(bethe, "population_dynamics", unreachable)
    with pytest.raises(ValueError):
        bethe.sup_bethe(models.sbm(3, 2.5, 5), **budget)


def test_dynamics_refuses_negative_sweeps():
    model = models.ldgm(0.3, D2, K2)
    with pytest.raises(ValueError, match="negative"):
        bethe.population_dynamics(model, pop_size=100, iters=-3)
    assert bethe.population_dynamics(model, pop_size=100, iters=0).generation == 0


def test_ldgm_mutual_information_at_most_log_two():
    # Montanari's code family at low noise: 0 <= MI <= ln 2 within 3 SE
    for eta in (0.05, 0.1):
        model = models.ldgm(eta, DegreeSpec.constant(6), DegreeSpec.constant(3))
        mi = bethe.mutual_information(model, seed=0, pop_size=2000, sweeps=100,
                                      samples=20_000)
        assert -3 * mi.stderr <= mi.value <= math.log(2) + 3 * mi.stderr
        assert mi.sup.tag == "pd-planted-polarized"


def test_estimate_invariant_under_joint_relabeling(permuted_alphabet):
    model = models.sbm(3, 1.1, 3)
    perm = [2, 0, 1]
    flipped = ModelSpec(name="sbm-perm", dspec=model.dspec, kspec=model.kspec,
                        family=permuted_alphabet(model.family, perm))
    rng = substream(7, 0)
    pts = rng.dirichlet([1.0] * 3, size=300)
    pop = SimplexPopulation(pts)
    # the relabeled point puts old spin perm[s] at s, so colour c becomes
    # perm^-1(c); row i takes the point of colour perm[i mod 3] to keep colour i mod 3
    rows = np.arange(300)
    pop_perm = SimplexPopulation(pts[rows - rows % 3 + np.array(perm)[rows % 3]][:, perm])
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


@pytest.mark.parametrize("beta", [1.0, 2.5, 4.0])
def test_dynamics_stays_on_nishimori_line_at_small_populations(beta):
    # a population of at most 256 points was once one synchronous update per
    # sweep, which drifted off the line: barycenter up to 0.55 from uniform
    # and a planted-form value above ln q
    model = models.sbm(3, beta, 5)
    for pop_size in (100, 200, 256):
        for init in ("uniform-perturbed", "planted-polarized"):
            pop = bethe.population_dynamics(model, pop_size=pop_size, iters=100,
                                            init=init, seed=1)
            assert np.abs(pop.points.mean(axis=0) - 1.0 / 3).max() <= 0.05
            est = bethe.bethe_estimate(pop, model, samples=3000, seed=2)
            assert est.value <= math.log(3)


@settings(max_examples=10, deadline=None)
@given(st.floats(0.1, 2.5), st.integers(0, 1000), st.sampled_from(
    ["uniform-perturbed", "planted-polarized"]))
def test_dynamics_preserves_simplex(beta, seed, init):
    model = models.sbm(2, beta, 3)
    pop = bethe.population_dynamics(model, pop_size=120, iters=3, init=init,
                                    seed=seed)
    assert np.abs(pop.points.sum(axis=1) - 1.0).max() <= 1e-10
    assert pop.points.min() > 0.0


def test_dynamics_stops_at_the_exact_uniform_atom():
    def ldgm():
        return models.ldgm(0.3, DegreeSpec.constant(6), DegreeSpec.constant(3))

    model = ldgm()
    assert model.family.uniform_is_fixed
    pop = bethe.population_dynamics(model, 2000, 100, "uniform-perturbed", seed=0)
    assert pop.generation < 100
    assert np.all(pop.points == 0.5)
    again = bethe.population_dynamics(model, 2000, pop.generation, "uniform-perturbed",
                                      seed=0)
    assert again.generation == pop.generation
    assert np.array_equal(again.points, pop.points)
    # the same run with the stop disarmed sweeps 100 times to the same bits
    full_model = ldgm()
    full_model.family.__dict__["uniform_is_fixed"] = False
    full = bethe.population_dynamics(full_model, 2000, 100, "uniform-perturbed", seed=0)
    assert full.generation == 100
    assert np.array_equal(full.points, pop.points)
    a = bethe.bethe_estimate(pop, model, samples=3000, seed=1)
    b = bethe.bethe_estimate(full, full_model, samples=3000, seed=1)
    assert (a.value, a.stderr) == (b.value, b.stderr)


@pytest.mark.parametrize("model", [
    models.ldgm(0.1, DegreeSpec.constant(6), DegreeSpec.constant(3)),
    models.kspin(1.0, K23),
    models.sbm(3, 1.0, 5),
    models.sbm(3, 4.0, 5),
    models.sbm(2, 3.0, 3),
], ids=["ldgm", "kspin", "sbm3-1", "sbm3-4", "sbm2-3"])
def test_uniform_messages_do_not_depend_on_the_rows_per_call(model):
    # the early stop takes a row's uniform message to be equal in every
    # component whatever the call's size and whichever rows share it
    family = model.family
    assert family.uniform_is_fixed
    q = family.q
    triples = [(k, t, h) for k in family.arities
               for t in range(family.n_tables(k)) for h in range(k)]
    width = max(family.arities) - 1
    for rows in [*range(1, 40), 63, 64, 65, 255, 256, 257, 1000, 1024, 2049]:
        points = np.full((rows, width, q), 1.0 / q)
        # one call cycling through every (arity, table, slot), one call per triple
        calls = [np.array(triples)[np.arange(rows) % len(triples)].T]
        calls += [np.tile(np.array([[k], [t], [h]]), rows) for k, t, h in triples]
        for ks, tables, hs in calls:
            messages = family.contract(ks, tables, points, hs)
            assert np.all(messages == messages[:, :1])


@pytest.mark.parametrize("q, beta", [(7, 4.5), (6, 0.0), (3, 1.0), (3, 2.5), (3, 4.0)])
def test_uniform_is_fixed_iff_every_call_gives_equal_components(q, beta):
    # the verdict covers one uniform call over all (table, slot) pairs and a
    # one-row call of each pair; whether a given call rounds its components
    # apart depends on the matrix-vector kernel, so the test reads the calls
    family = models.sbm(q, beta, 5).family
    tables, slots = np.divmod(np.arange(2 * family.n_tables(2)), 2)
    points = np.full((len(slots), 1, q), 1.0 / q)
    calls = [slice(None)] + [slice(i, i + 1) for i in range(len(slots))]
    messages = [family.contract(np.full(len(slots), 2)[rows], tables[rows], points[rows],
                                slots[rows]) for rows in calls]
    assert family.uniform_is_fixed == all(np.all(m == m[:, :1]) for m in messages)


def test_uniform_is_not_fixed_when_only_a_one_row_call_rounds_apart(monkeypatch):
    contract = WeightFamily.contract

    def one_row_skewed(self, ks, tables, points, open_slots):
        messages = contract(self, ks, tables, points, open_slots)
        if len(messages) == 1:
            messages = messages.copy()
            messages[0, 0] = np.nextafter(messages[0, 0], np.inf)
        return messages

    family = models.sbm(3, 1.0, 5).family
    monkeypatch.setattr(WeightFamily, "contract", one_row_skewed)
    assert not family.uniform_is_fixed


def test_dynamics_draws_a_long_sweep_in_parts(monkeypatch):
    # past _DRAWN_BATCHES batches a sweep draws its planted tree in parts, so
    # the draw's memory stops growing with the population; each part still
    # rewrites its own points once
    sizes = []
    draw = bethe._planted_draw

    def counted(model, pop, klaw, roots, rng):
        sizes.append(len(roots))
        return draw(model, pop, klaw, roots, rng)

    model = models.sbm(3, 2.5, 5)  # every excess degree is 4
    start = bethe.population_dynamics(model, 1000, 0, seed=0).points
    monkeypatch.setattr(bethe, "_DRAWN_BATCHES", 3)
    monkeypatch.setattr(bethe, "_planted_draw", counted)
    pop = bethe.population_dynamics(model, 1000, 1, seed=0)
    assert sizes == [3 * 250 * 4, 250 * 4]
    assert np.all((pop.points != start).any(axis=1))
    assert np.allclose(pop.points.sum(axis=1), 1.0)


def test_dynamics_runs_every_sweep_off_the_uniform_atom():
    model = models.sbm(2, 3.0, 3)
    assert model.family.uniform_is_fixed
    pop = bethe.population_dynamics(model, 500, 30, "planted-polarized", seed=0)
    assert pop.generation == 30


def test_dynamics_runs_every_sweep_when_uniform_is_not_exact():
    # SYM holds to 1e-12, but a uniform contraction differs in the last bits
    fam = WeightFamily(q=2, tables={2: (np.array([[1 + 2e-12, 1.0], [1.0, 1 + 1e-12]]),)},
                       masses={2: np.array([1.0])})
    fam.xi()
    assert not fam.uniform_is_fixed
    model = ModelSpec(name="near-flat", dspec=DegreeSpec.constant(3), kspec=K2,
                      family=fam)
    for init in ("uniform-perturbed", "planted-polarized"):
        pop = bethe.population_dynamics(model, 200, 40, init, seed=0)
        assert pop.generation == 40


# ---------------------------------------------------------------------------
# supremum search and mutual information
# ---------------------------------------------------------------------------


def test_sup_constant_weights_is_annealed():
    model = _flat_model()
    sup = bethe.sup_bethe(model, seed=0, pop_size=150, sweeps=5,
                          samples=4000)
    assert sup.tag == "uniform-atom"
    assert sup.value == pytest.approx(bethe.annealed_free_entropy(model), abs=1e-12)
    assert sup.heuristic


def test_sup_useless_channel_is_log_two():
    model = models.ldgm(0.5, D2, K2)
    sup = bethe.sup_bethe(model, seed=0, pop_size=150, sweeps=5,
                          samples=4000)
    assert sup.value == pytest.approx(math.log(2), abs=1e-12)


def test_sup_includes_uniform_candidate():
    model = models.sbm(2, 1.0, 3)
    sup = bethe.sup_bethe(model, seed=3, pop_size=200, sweeps=10,
                          samples=4000)
    assert sup.value >= bethe.bethe_uniform_atom(model) - 3 * sup.stderr
    assert "uniform-atom" in sup.candidates


def test_sup_exceeds_annealed_above_condensation():
    model = models.sbm(2, 3.0, 3)
    sup = bethe.sup_bethe(model, seed=5, pop_size=1000, sweeps=60,
                          samples=20_000)
    assert sup.value - bethe.annealed_free_entropy(model) > 3 * sup.stderr
    assert sup.tag.startswith("pd-")


def test_mutual_information_nonnegative():
    for model, seed in ((models.ldgm(0.3, D2, K2), 0),
                        (models.sbm(2, 0.5, 3), 1)):
        mi = bethe.mutual_information(model, seed=seed, pop_size=300,
                                      sweeps=20, samples=8000, pos_trials=60)
        assert mi.value >= -3 * mi.stderr


def test_mutual_information_rejects_assortative():
    from factorcavity.errors import AssumptionViolation

    model = models.sbm(2, 1.0, 3, assortative=True)
    with pytest.raises(AssumptionViolation):
        bethe.mutual_information(model, seed=0, pop_size=150,
                                 sweeps=5, samples=2000, pos_trials=4000)


def test_mutual_information_constant_weights_zero():
    mi = bethe.mutual_information(_flat_model(1.3), seed=0,
                                  pop_size=150, sweeps=5, samples=2000,
                                  pos_trials=30)
    assert abs(mi.value) <= 1e-12


def test_mutual_information_float_protocol():
    mi = bethe.mutual_information(models.ldgm(0.5, D2, K2), seed=0,
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
        bethe.threshold_scan(family, [0.0, 0.1, 0.2], seed=0,
                             pop_size=150, sweeps=10, samples=3000)
    assert len(err.value.rows) == 3


def test_scan_no_crossing_useless_channel():
    def family(ratio):
        # mean degree over mean arity sweep at eta = 1/2
        return models.ldgm(0.5, DegreeSpec.constant(int(2 * ratio)), K2)

    with pytest.raises(NoCrossing):
        bethe.threshold_scan(family, [1, 2, 3], seed=0,
                             pop_size=150, sweeps=5, samples=3000)


def test_scan_brackets_sbm_condensation():
    def family(beta):
        return models.sbm(2, beta, 3)

    scan = bethe.threshold_scan(family, [0.5, 1.5, 2.5, 3.5], seed=1,
                                pop_size=800, sweeps=50, samples=15_000)
    assert scan.bracket == (1.5, 2.5)
    lo, hi = scan.bracket
    grid = [0.5, 1.5, 2.5, 3.5]
    assert grid.index(hi) - grid.index(lo) == 1
    assert scan.rows[-1].sup.value - scan.rows[-1].comparator > 0


def test_scan_requires_sorted_grid():
    with pytest.raises(ValueError):
        bethe.threshold_scan(lambda b: models.sbm(2, b, 3), [1.0, 0.5])


def test_lrc_bracket_reproducible_across_seeds():
    brackets = []
    for seed in (0, 1):
        scan = models.lrc_threshold(1.5, K2, [0.5, 1.0, 4.0], seed,
                                    pop_size=1000, sweeps=50, samples=20_000)
        brackets.append(scan.bracket)
    assert brackets[0] == brackets[1]
    assert brackets[0] == (1.0, 4.0)


# ---------------------------------------------------------------------------
# seeded equivalence: pins the random-draw order of the Bethe pipeline
# ---------------------------------------------------------------------------


# (model, init) -> (sum of the first spin column, first two points,
# estimate value, estimate stderr) for 5 sweeps of 200 points, seed 3,
# and a 3000-sample estimate, seed 4; recorded with the planted-tree draw,
# batches of a quarter of the population, and each sweep's tree drawn
# before its first batch
_SEEDED_PD = {
    ("ldgm", "uniform-perturbed"): (
        100.0,
        [[0.5, 0.5],
         [0.5, 0.5]],
        0.6931471805599454, 2.0273185627517274e-18),
    ("ldgm", "planted-polarized"): (
        99.99999800796348,
        [[0.49999999999832956, 0.5000000000016704],
         [0.5000000363037611, 0.49999996369623895]],
        0.6931471805599454, 3.0362437492057098e-18),
    ("kspin", "uniform-perturbed"): (
        100.01793136072149,
        [[0.5000000016310198, 0.4999999983689802],
         [0.5026920645488707, 0.4973079354511292]],
        0.6931472265820521, 3.755658844918089e-07),
    ("kspin", "planted-polarized"): (
        100.85509379048405,
        [[0.49999983681037463, 0.5000001631896254],
         [0.7188823090397347, 0.28111769096026523]],
        0.69341331299433, 0.00021019268597293706),
    ("sbm", "uniform-perturbed"): (
        66.77343614153037,
        [[0.3261442680740568, 0.3725199430180496, 0.3013357889078937],
         [0.35292449757431593, 0.3273082171530039, 0.31976728527268017]],
        0.18553249811114816, 3.140570755857079e-05),
    ("sbm", "planted-polarized"): (
        62.53393968869607,
        [[0.5006570991421435, 0.07511077559989786, 0.42423212525795867],
         [0.3386033041793361, 0.4306649126332358, 0.230731783187428]],
        0.18658537028423697, 0.0040119168415303635),
}

# model -> (sum of the first spin column of the BP marginals, marginals of
# variables 1 and 2, instance Bethe free entropy) after 5 sweeps on an
# n=200 planted graph with every tenth variable pinned, seed 1; recorded
# with the histogram-level planted colouring and the per-variable
# prefix/suffix BP loop
_SEEDED_BP = {
    "sbm": (100.02980675914398,
            [[0.9004991286358011, 0.09950087136419897],
             [0.3565277932818821, 0.6434722067181178]],
            -60.78241409496678),
    "ldgm": (98.50261554037628,
             [[0.78671875, 0.21328125], [0.825, 0.175]],
             125.77067751460811),
}


# model -> (value, stderr) of a 10,000-sample estimate, seed 4, on the
# hand-built population of _fixed_population; recorded before population
# dynamics drew each sweep's tree up front, which left these bits unchanged.
# The tolerance admits only another machine's last-bit exp/log/BLAS
# rounding: a moved stream moves a value by about its stderr.
_SEEDED_ESTIMATE = {
    "ldgm": (0.6964275725002873, 0.0015450175281728645),
    "kspin": (0.6973330500594568, 0.0015842933576749182),
    "sbm": (0.18693617607831894, 0.0024255909170855187),
}


def _seeded_models():
    return {"ldgm": models.ldgm(0.3, DegreeSpec.constant(6), DegreeSpec.constant(3)),
            "kspin": models.kspin(1.0, K23),
            "sbm": models.sbm(3, 2.5, 5)}


def _fixed_population(q, size=200):
    raw = 1.0 + (7 * np.arange(size)[:, None] + 3 * np.arange(q)) % 11
    return SimplexPopulation(raw / raw.sum(axis=1, keepdims=True))


def test_estimate_stream_reproduces_on_a_fixed_population():
    for name, model in _seeded_models().items():
        est = bethe.bethe_estimate(_fixed_population(model.q), model, samples=10_000, seed=4)
        value, stderr = _SEEDED_ESTIMATE[name]
        assert est.value == pytest.approx(value, rel=0, abs=1e-13)
        assert est.stderr == pytest.approx(stderr, rel=0, abs=1e-13)


# model -> {candidate: (value, stderr)} of sup_bethe at the default budget
# (2000 points in batches of 256, 100 sweeps, 20,000 samples), seed 0;
# recorded with a binary search into the rooted CDF.  The first model ends
# within rounding of the uniform atom, so both runs are estimated; the third
# ends exactly on it, so both take its closed form with no estimate; the
# other two are won by a dynamics run, and the kspin ones draw arities 2 and
# 3 in one sweep.
_SEEDED_SUP = {
    "sbm beta=2.5": {"uniform-atom": (0.18550605406586362, 0.0),
                     "pd-uniform-perturbed": (0.1855060540658635, 2.6614890415374117e-18),
                     "pd-planted-polarized": (0.1855060540658635, 2.7157889271944126e-18)},
    "sbm beta=4.0": {"uniform-atom": (0.10773987059557366, 0.0),
                     "pd-uniform-perturbed": (0.10774007323746318, 2.598258410099426e-07),
                     "pd-planted-polarized": (0.1077406406525906, 2.4982288914812692e-06)},
    "kspin beta=1.0": {"uniform-atom": (0.6931471805599453, 0.0),
                       "pd-uniform-perturbed": (0.6931471805599453, 0.0),
                       "pd-planted-polarized": (0.6931471805599453, 0.0)},
    "kspin beta=2.0 d=4": {"uniform-atom": (0.6931471805599453, 0.0),
                           "pd-uniform-perturbed": (0.681367672947708, 0.007457718102888647),
                           "pd-planted-polarized": (0.7823564709274853, 0.012781720634069517)},
}


def test_default_budget_sup_bethe_reproduces(monkeypatch):
    estimates = []
    estimate = bethe.bethe_estimate

    def counted(*args):
        estimates.append(args)
        return estimate(*args)

    monkeypatch.setattr(bethe, "bethe_estimate", counted)
    # name -> (model, the number of Monte-Carlo estimates sup_bethe draws)
    pinned = {"sbm beta=2.5": (models.sbm(3, 2.5, 5), 2),
              "sbm beta=4.0": (models.sbm(3, 4.0, 5), 2),
              "kspin beta=1.0": (models.kspin(1.0, K23), 0),
              "kspin beta=2.0 d=4": (models.kspin(2.0, K23, d=4.0), 2)}
    for name, (model, count) in pinned.items():
        estimates.clear()
        candidates = bethe.sup_bethe(model, 0).candidates
        assert len(estimates) == count, name
        if count == 0:
            atom = (bethe.bethe_uniform_atom(model), 0.0)
            assert candidates["pd-uniform-perturbed"] == candidates["pd-planted-polarized"] == atom
        assert candidates.keys() == _SEEDED_SUP[name].keys()
        for tag, (value, stderr) in _SEEDED_SUP[name].items():
            assert candidates[tag][0] == pytest.approx(value, rel=0, abs=1e-12), (name, tag)
            assert candidates[tag][1] == pytest.approx(stderr, rel=0, abs=1e-12), (name, tag)


def test_seeded_values_reproduce():
    from factorcavity import assumptions, exact, graphmodel

    pd_models = _seeded_models()
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
