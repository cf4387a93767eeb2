import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, poisson

from factorcavity import exact, models
from factorcavity.errors import AttemptsExhausted, ZeroMean
from factorcavity.graphmodel import (DegreeSequence, DegreeSpec, FactorGraph,
                                     WeightFamily, pair_uniform, pin,
                                     sample_degree_sequence, sample_nishimori,
                                     sample_null, sample_planted,
                                     sample_pruned_sequence, uniform_assignment)
from factorcavity.rng import substream

D2 = DegreeSpec.constant(2)
K2 = DegreeSpec.constant(2)
K3 = DegreeSpec.constant(3)


# ---------------------------------------------------------------------------
# degree specs
# ---------------------------------------------------------------------------


def test_degree_spec_validation():
    with pytest.raises(ValueError):
        DegreeSpec((1, 2), (0.5, 0.6))
    with pytest.raises(ValueError):
        DegreeSpec((1,), (-1.0,))
    with pytest.raises(ValueError):
        DegreeSpec((100,), (1.0,))
    spec = DegreeSpec.from_mapping({2: 0.5, 3: 0.5})
    assert spec.mean == 2.5
    assert spec.second_moment == 6.5


def test_poisson_spec_truncates_and_renormalises():
    spec = DegreeSpec.poisson(3.0)
    assert abs(sum(spec.mass) - 1.0) < 1e-12
    assert spec.truncated_mass < 1e-10
    assert abs(spec.mean - 3.0) < 1e-6
    tight = DegreeSpec.poisson(10.0, max_support=12)
    assert tight.max_value == 12
    assert tight.truncated_mass > 1e-3


# ---------------------------------------------------------------------------
# degree sequences
# ---------------------------------------------------------------------------


def test_constant_degrees_force_factor_count():
    seq = sample_degree_sequence(4, D2, K2, seed=0)
    assert seq.m == 4
    assert set(seq.var_degrees) == {2}
    assert set(seq.factor_arities) == {2}

    seq = sample_degree_sequence(6, DegreeSpec.constant(3), K2, seed=1)
    assert seq.m == 9


def test_zero_mean_rejected():
    with pytest.raises(ZeroMean):
        sample_degree_sequence(3, DegreeSpec((0,), (1.0,)), K2, seed=0)


def test_balanced_acceptance_rate_matches_convolution():
    # d ~ {2 w.p. 1/2, 3 w.p. 1/2}, k == 3, n = 100: per-attempt acceptance
    # probability by exact convolution of the degree sum against the
    # Poisson factor-count law.
    n = 100
    dspec = DegreeSpec.from_mapping({2: 0.5, 3: 0.5})
    pmf = np.zeros(1)
    pmf[0] = 1.0
    step = np.zeros(4)
    step[2] = step[3] = 0.5
    for _ in range(n):
        pmf = np.convolve(pmf, step)
    lam = n * dspec.mean / 3.0
    total = 0.0
    for s, p in enumerate(pmf):
        if p and s % 3 == 0:
            total += p * poisson.pmf(s // 3, lam)

    rng = np.random.default_rng(7)
    trials = 10_000
    hits = 0
    for _ in range(trials):
        d = dspec.sample(rng, n)
        m = rng.poisson(lam)
        k = np.full(m, 3)
        hits += int(d.sum() == k.sum())
    rate = hits / trials
    sigma = math.sqrt(total * (1 - total) / trials)
    assert abs(rate - total) <= 3 * sigma


def test_pruned_sequence_slack_and_mean():
    for seed in range(10):
        seq = sample_pruned_sequence(10, 0.5, D2, K2, seed)
        assert seq.cavity_count == 20 - 2 * seq.m
        assert seq.cavity_count >= 0

    # eps -> 0: the unconditioned factor count is the plain Poisson law
    from factorcavity.graphmodel import thinned_factor_count
    from factorcavity.rng import substream

    rng = substream(11, 0)
    draws = [thinned_factor_count(30, 0.0, D2, K2, rng) for _ in range(4000)]
    lam = 30.0
    assert abs(np.mean(draws) - lam) <= 4 * math.sqrt(lam / len(draws))
    assert abs(np.var(draws) - lam) <= 5 * lam * math.sqrt(2.0 / len(draws))

    # E[cavities]/n = eps E[d] for matched specs
    d3, k3 = DegreeSpec.constant(3), DegreeSpec.constant(3)
    deltas = [sample_pruned_sequence(10_000, 0.1, d3, k3, s).cavity_count / 10_000
              for s in range(20)]
    se = np.std(deltas, ddof=1) / math.sqrt(len(deltas))
    assert abs(np.mean(deltas) - 0.3) <= 3 * se


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


def test_unique_pairing_class():
    seq = DegreeSequence((1, 1), (2,))
    g = pair_uniform(seq, seed=0)
    assert sorted(g.factor_vars[0]) == [0, 1]
    assert g.cavity_counts().sum() == 0


def test_pairing_maximality_leaves_cavities():
    seq = DegreeSequence((3, 2, 2), (2, 2))
    for seed in range(20):
        g = pair_uniform(seq, seed)
        assert g.cavity_counts().sum() == seq.cavity_count
        assert sum(len(fv) for fv in g.factor_vars) == seq.total_factor_degree


def test_pairing_law_matches_enumeration():
    # n=3, d=2, m=3, k=2: every labelled contracted multigraph at its
    # enumerated frequency (all clone matchings quotiented by clone labels).
    seq = DegreeSequence((2, 2, 2), (2, 2, 2))
    owners = [0, 0, 1, 1, 2, 2]
    law = collections.Counter()
    for perm in itertools.permutations(range(6)):
        key = tuple(tuple(sorted((owners[perm[2 * j]], owners[perm[2 * j + 1]])))
                    for j in range(3))
        law[key] += 1
    total = sum(law.values())

    draws = 100_000
    counts = collections.Counter()
    for seed in range(draws):
        g = pair_uniform(seq, seed)
        counts[tuple(tuple(sorted(fv)) for fv in g.factor_vars)] += 1
    for key, weight in law.items():
        p = weight / total
        emp = counts[key] / draws
        sigma = math.sqrt(p * (1 - p) / draws)
        assert abs(emp - p) <= 4 * sigma, key


def test_simple_only_rejects_repeats():
    seq = DegreeSequence((2, 2), (2, 2))
    for seed in range(30):
        g = pair_uniform(seq, seed, simple_only=True)
        assert g.is_simple()


# ---------------------------------------------------------------------------
# null model
# ---------------------------------------------------------------------------


def test_null_single_table_weights_deterministic():
    fam = WeightFamily.constant(2, [2], value=1.5)
    g = sample_null(4, D2, K2, fam, seed=0)
    assert set(g.factor_tables) == {0}


def test_null_label_frequency_is_half():
    model = models.ldgm(0.2, D2, K2)
    draws = 400
    plus = 0
    m_total = 0
    for seed in range(draws):
        g = sample_null(6, D2, K2, model.family, seed)
        plus += sum(1 for t in g.factor_tables if t == 0)
        m_total += g.m
    p = plus / m_total
    sigma = math.sqrt(0.25 / m_total)
    assert abs(p - 0.5) <= 4 * sigma


def test_null_weights_independent_of_topology():
    # correlation between one adjacency indicator and one label indicator
    model = models.ldgm(0.2, D2, K2)
    draws = 100_000
    rng_edge = np.empty(draws)
    rng_label = np.empty(draws)
    for seed in range(draws):
        g = sample_null(4, D2, K2, model.family, seed)
        rng_edge[seed] = float(0 in g.factor_vars[0])
        rng_label[seed] = float(g.factor_tables[0] == 0)
    corr = np.corrcoef(rng_edge, rng_label)[0, 1]
    assert abs(corr) <= 4.0 / math.sqrt(draws)


# ---------------------------------------------------------------------------
# planted model
# ---------------------------------------------------------------------------


def test_planted_constant_tables_reduce_to_null():
    # with constant tables the tilted law equals the null law given the
    # degree sequence (uniform over slot maps, independent table choices)
    fam = WeightFamily(q=2, tables={2: (np.full((2, 2), 2.0), np.full((2, 2), 2.0))},
                       masses={2: np.array([0.25, 0.75])})
    seq = DegreeSequence((2, 2, 2), (2, 2))
    sigma = np.array([0, 1, 1])
    law = exact.planted_law_reweighting(seq, sigma, fam)
    null_law = {}
    for slot_map, prob in exact.iter_slot_maps(seq):
        for ids in itertools.product(range(2), repeat=seq.m):
            prior = float(np.prod([fam.masses[2][i] for i in ids]))
            key = (slot_map, ids)
            null_law[key] = null_law.get(key, 0.0) + prob * prior
    assert set(law) == set(null_law)
    for key, p in null_law.items():
        assert abs(law[key] - p) < 1e-12


def test_planted_balanced_sequence_law():
    seq = DegreeSequence((2, 2, 2), (2, 2, 2))
    sigma = np.array([0, 1, 0])
    fam = models.sbm(2, 0.9, 3).family
    ref = exact.planted_law_reweighting(seq, sigma, fam)
    con = exact.planted_law_construction(seq, sigma, fam)
    keys = set(ref) | set(con)
    worst = max(abs(ref.get(k, 0.0) - con.get(k, 0.0)) for k in keys)
    assert worst <= 1e-10


def test_planted_mixed_arity_law():
    # arities 2 and 1 in one sequence, pruned by one cavity
    seq = DegreeSequence((2, 1), (2, 1))
    sigma = np.array([0, 1])
    fam = models.ldgm(0.3, D2, DegreeSpec.from_mapping({1: 0.5, 2: 0.5})).family
    ref = exact.planted_law_reweighting(seq, sigma, fam)
    con = exact.planted_law_construction(seq, sigma, fam)
    keys = set(ref) | set(con)
    worst = max(abs(ref.get(k, 0.0) - con.get(k, 0.0)) for k in keys)
    assert worst <= 1e-12


def test_planted_ldgm_label_law():
    # ground truth all +1: the label matching the parity is chosen w.p. 1-eta
    eta = 0.2
    model = models.ldgm(eta, D2, K2)
    seq = sample_degree_sequence(6, D2, K2, 3)
    sigma = np.zeros(6, dtype=int)
    plus = 0
    total = 0
    for seed in range(2000):
        g = sample_planted(seq, sigma, model.family, 0, seed)
        plus += sum(1 for t in g.factor_tables if t == 0)
        total += g.m
    p = plus / total
    sigma_err = math.sqrt((1 - eta) * eta / total)
    assert abs(p - (1 - eta)) <= 4 * sigma_err


def test_planted_colour_balance():
    # balanced ground truth: each factor-side clone colour has mean share 1/q
    from factorcavity.graphmodel import _conditioned_colouring
    from factorcavity.rng import substream

    model = models.ldgm(0.2, D2, K2)
    seq = DegreeSequence((2, 2, 2, 2), (2, 2, 2))
    sigma = np.array([0, 0, 1, 1])
    draws = 100_000
    rng = substream(123, 0)
    ones = 0
    slots = 0
    for _ in range(draws):
        tuples, pebbles, _ = _conditioned_colouring(seq, sigma, model.family, rng)
        for j, k in enumerate(seq.factor_arities):
            digits = np.unravel_index(int(tuples[j]), (2,) * int(k))
            ones += int(np.sum(digits))
            slots += k
    share = ones / slots
    sigma_err = math.sqrt(0.25 / slots)
    assert abs(share - 0.5) <= 4 * sigma_err


def test_planted_degenerate_alphabet():
    fam = WeightFamily.constant(1, [2])
    seq = DegreeSequence((2, 2), (2, 2))
    sigma = np.zeros(2, dtype=int)
    g = sample_planted(seq, sigma, fam, theta=2, seed=0)
    assert exact.assignment_log_weight(g, sigma) == 0.0
    assert g.pins == ((0, 0), (1, 0))


@pytest.mark.parametrize("seq,sigma,family", [
    # q=2, arities 1 and 2, two cavities
    (DegreeSequence((2, 2, 1), (2, 1)), (0, 1, 1),
     models.ldgm(0.3, D2, DegreeSpec.from_mapping({1: 0.5, 2: 0.5})).family),
    # q=3, colour histogram (2, 1, 2), one cavity
    (DegreeSequence((2, 2, 1), (2, 2)), (0, 2, 1), models.sbm(3, 1.5, 3).family),
])
def test_planted_sampler_matches_law(seq, sigma, family):
    ref = exact.planted_law_reweighting(seq, np.array(sigma), family)
    counts = collections.Counter()
    draws = 10_000
    for seed in range(draws):
        g = sample_planted(seq, np.array(sigma), family, 0, seed)
        assert not g.meta["colouring_mcmc"]
        counts[(g.factor_vars, g.factor_tables)] += 1
    assert set(counts) <= set(ref)
    stat = sum((counts.get(key, 0) - draws * p) ** 2 / (draws * p) for key, p in ref.items())
    assert chi2.sf(stat, len(ref) - 1) >= 0.001
    worst = max(abs(counts.get(key, 0) / draws - p) / math.sqrt(p * (1 - p) / draws)
                for key, p in ref.items())
    assert worst <= 5.0


def test_tilt_leaves_accepted_count_law_unchanged():
    # every count vector of a draw that hits the target has the same
    # renormalised probability under the tilted and the untilted cell laws
    from factorcavity.graphmodel import _colouring_groups, _tilted_laws

    q = 3
    rng = np.random.default_rng(5)
    fam = WeightFamily(q=q, tables={k: tuple(rng.uniform(0.2, 3.0, (q,) * k) for _ in range(2))
                                    for k in (1, 2)},
                       masses={k: np.array([0.4, 0.6]) for k in (1, 2)})
    seq = DegreeSequence((3, 2, 1, 2), (2, 2, 1))
    # the second ground truth leaves colour 2 without clones
    for sigma in ((0, 0, 1, 2), (0, 0, 1, 1)):
        target = np.bincount(sigma, weights=seq.var_degrees, minlength=q).astype(np.int64)
        groups = _colouring_groups(seq, target, fam)
        laws = _tilted_laws(groups, target)
        spaces = []
        for group, law in zip(groups, laws):
            k = seq.factor_arities[group.rows[0]] if group.rows[0] < seq.m else 1
            plain = (fam.mean_table(k).ravel() / fam.table_total(k) if group.rows[0] < seq.m
                     else np.full(q, 1.0 / q))
            tilted = np.zeros(q ** k)
            tilted[group.index] = law
            colours = np.array([np.bincount(t, minlength=q) for t in np.ndindex(*(q,) * k)])
            spaces.append((len(group.rows), plain, tilted, colours))
        mean = sum(size * tilted @ colours for size, _, tilted, colours in spaces)
        assert np.abs(mean - target).max() <= 0.01
        assert max(np.abs(plain - tilted).max() for _, plain, tilted, _ in spaces) > 0.01

        def count_vectors(size, plain, tilted, colours):
            for cells in itertools.combinations_with_replacement(range(len(plain)), size):
                c = np.bincount(cells, minlength=len(plain))
                ways = math.factorial(size) / np.prod([math.factorial(x) for x in c])
                yield c @ colours, ways * np.prod(plain ** c), ways * np.prod(tilted ** c)

        hits = []
        for combo in itertools.product(*(list(count_vectors(*s)) for s in spaces)):
            if np.array_equal(sum(h for h, _, _ in combo), target):
                hits.append((np.prod([p for _, p, _ in combo]), np.prod([t for _, _, t in combo])))
        plain, tilted = np.array(hits).T
        assert len(hits) > 10
        assert np.abs(plain / plain.sum() - tilted / tilted.sum()).max() <= 1e-12


@pytest.mark.parametrize("seq,sigma,family", [
    (DegreeSequence((1, 2), ()), (0, 1), models.sbm(2, 1.0, 3).family),          # m = 0
    (DegreeSequence((2, 2), (2, 2)), (0, 0), WeightFamily.constant(1, [2])),      # q = 1
    (DegreeSequence((2, 2, 2), (2, 2, 2)), (1, 1, 1), models.sbm(2, 1.0, 3).family),  # one live colour
    (DegreeSequence((2, 2, 2), (2, 1)), (0, 1, 0), WeightFamily.constant(2, [1, 2], 1.5)),
])
def test_planted_edge_cases(seq, sigma, family):
    sigma = np.array(sigma)
    for seed in range(20):
        g = sample_planted(seq, sigma, family, 0, seed)
        assert tuple(len(fv) for fv in g.factor_vars) == seq.factor_arities
        assert (g.cavity_counts() >= 0).all()
        assert g.cavity_counts().sum() == seq.cavity_count
        assert g.meta["colouring_attempts"] >= 1


def test_planted_block_model_seed_7_attempts():
    # the CLI's seed-7 ground truth, which exhausted the rejection cap of a
    # per-factor sampler after 774,596 attempts
    model = models.sbm(2, 3.0, 3)
    seq = sample_degree_sequence(2000, model.dspec, model.kspec, 7)
    sigma = uniform_assignment(2000, 2, substream(7, 5))
    g = sample_planted(seq, sigma, model.family, 0, 7)
    assert g.meta["colouring_attempts"] <= 10_000
    assert np.array_equal(np.bincount(np.concatenate(g.factor_vars), minlength=2000),
                          seq.var_degrees)


def test_planted_rejection_cap_raises():
    seq = DegreeSequence((2, 2, 2), (2, 2))
    fam = models.ldgm(0.3, D2, K2).family
    with pytest.raises(AttemptsExhausted):
        sample_planted(seq, np.array([0, 0, 1]), fam, 0, 0, max_attempts=0)


# ---------------------------------------------------------------------------
# tilted-pair sampler
# ---------------------------------------------------------------------------


def test_nishimori_exact_mode_normalisation_and_oracle():
    fam = models.ldgm(0.1, D2, K2).family
    seq = sample_degree_sequence(3, D2, K2, 5)

    # independent oracle: enumerate raw clone injections
    owners = [v for v in range(3) for _ in range(2)]
    def raw_expected_weight(sigma):
        total = 0.0
        count = 0
        for perm in itertools.permutations(range(6)):
            w = 1.0
            for j in range(seq.m):
                tup = tuple(sigma[owners[perm[2 * j + s]]] for s in range(2))
                w *= float(fam.mean_table(2)[tup])
            total += w
            count += 1
        return total / count

    probs = []
    for s in np.ndindex(2, 2, 2):
        direct = exact.expected_weight(seq, fam, np.array(s))
        assert abs(direct - raw_expected_weight(s)) <= 1e-10
        probs.append(direct)
    probs = np.asarray(probs)
    assert abs(probs.sum() / probs.sum() - 1.0) < 1e-12

    sigma, g = sample_nishimori(3, D2, K2, fam, 11)
    assert g.meta["nishimori_mode"] == "exact"
    assert len(sigma) == 3


def test_nishimori_beta_zero_assignment_is_uniform():
    # all weights equal one: the tilted assignment law is exactly uniform
    fam = models.sbm(2, 0.0, 3).family
    d3 = DegreeSpec.constant(3)
    seq = sample_degree_sequence(4, d3, K2, 5)
    weights = np.array([exact.expected_weight(seq, fam, np.array(s))
                        for s in np.ndindex(2, 2, 2, 2)])
    assert np.abs(weights - 1.0).max() < 1e-12


def test_nishimori_approximate_mode_tagged():
    fam = models.ldgm(0.1, D2, K2).family
    sigma, g = sample_nishimori(3, D2, K2, fam, 11, approximate=True)
    assert g.meta["nishimori_mode"] == "approximate"


def test_nishimori_sigma_law_sbm():
    fam = models.sbm(2, 1.5, 3).family
    d3 = DegreeSpec.constant(3)
    seq = sample_degree_sequence(4, d3, K2, 5)
    assert seq.m == 6
    states = list(np.ndindex(2, 2, 2, 2))
    weights = np.array([exact.expected_weight(seq, fam, np.array(s))
                        for s in states])
    probs = weights / weights.sum()
    assert probs.std() > 1e-3  # non-uniform target

    counts = np.zeros(len(states))
    draws = 2000
    for i in range(draws):
        sigma, _ = sample_nishimori(4, d3, K2, fam, 900_000 + i)
        counts[int(np.dot(sigma, [8, 4, 2, 1]))] += 1
    emp = counts / draws
    z = np.abs(emp - probs) / np.sqrt(probs * (1 - probs) / draws)
    assert z.max() <= 4.5


def test_lattice_incompatible_sequence_exhausts():
    with pytest.raises(AttemptsExhausted):
        sample_degree_sequence(3, DegreeSpec.constant(3), K2, 0, max_attempts=300)


# ---------------------------------------------------------------------------
# pinning
# ---------------------------------------------------------------------------


def test_pin_zero_is_identity():
    g = sample_null(4, D2, K2, models.ldgm(0.2, D2, K2).family, seed=0)
    assert pin(g, 0, seed=1).pins == ()


def test_pin_all_leaves_single_term():
    g = sample_null(4, D2, K2, models.ldgm(0.2, D2, K2).family, seed=0)
    pinned = pin(g, 4, seed=1)
    pattern = np.array([s for _, s in pinned.pins])
    summary = exact.partition_function(pinned)
    assert abs(summary.log_z - exact.assignment_log_weight(g, pattern)) < 1e-10


def test_pinned_z_equals_restricted_enumeration():
    g = sample_null(4, D2, K2, models.sbm(2, 0.8, 3).family, seed=2)
    pinned = pin(g, 2, seed=3)
    fixed = dict(pinned.pins)
    total = 0.0
    for s in np.ndindex(*(2,) * 4):
        if any(s[v] != sp for v, sp in fixed.items()):
            continue
        total += math.exp(exact.assignment_log_weight(g, np.array(s)))
    assert abs(exact.partition_function(pinned).log_z - math.log(total)) < 1e-10


def test_pin_monotone_and_strict():
    g = sample_null(4, D2, K2, models.sbm(2, 0.8, 3).family, seed=2)
    base = exact.partition_function(g).log_z
    for theta in (1, 2, 4):
        pinned_z = exact.partition_function(pin(g, theta, seed=theta)).log_z
        assert pinned_z < base


def test_pin_budgeted_mode_runs():
    g = sample_null(4, D2, K2, models.sbm(2, 0.8, 3).family, seed=2)
    pinned = pin(g, 0, seed=9, mode="budgeted", window=6.0)
    for v, s in pinned.pins:
        assert 0 <= v < 4 and s in (0, 1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_graph_text_round_trip():
    fam = models.ldgm(0.2, D2, K2).family
    g = sample_null(5, D2, K2, fam, seed=4)
    g = pin(g, 2, seed=5)
    text = g.to_text()
    back = FactorGraph.from_text(text, fam)
    assert back.factor_vars == g.factor_vars
    assert back.factor_tables == g.factor_tables
    assert back.pins == g.pins
    assert exact.partition_function(back).log_z == pytest.approx(
        exact.partition_function(g).log_z, abs=1e-12)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10_000))
def test_balanced_totals_match(n, seed):
    seq = sample_degree_sequence(n, DegreeSpec.from_mapping({1: 0.5, 2: 0.5}),
                                 DegreeSpec.from_mapping({2: 0.7, 3: 0.3}),
                                 seed, max_attempts=200_000)
    assert seq.total_var_degree == seq.total_factor_degree


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10_000), st.floats(0.05, 0.6))
def test_pruned_cavities_match_pairing(n, seed, eps):
    seq = sample_pruned_sequence(n, eps, DegreeSpec.constant(2),
                                 DegreeSpec.from_mapping({1: 0.5, 2: 0.5}), seed)
    g = pair_uniform(seq, seed + 1)
    assert g.cavity_counts().sum() == seq.cavity_count
    assert (g.cavity_counts() >= 0).all()
