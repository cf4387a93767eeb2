"""Randomised invariant sweep over two-spin parity and pairwise Potts families.

Families are drawn by ``hypothesis`` with a fixed seed (``derandomize``), so
every run checks the same examples: LDGM channels with flip probability in
(0, 1/2], families 1 +- c * parity with a law of c symmetric about 0, arity
mixes over {2, ..., 5}, and constant, two-point and Poisson degree laws; and
block models (the Potts antiferromagnet) with q in 3..5, random beta >= 0
and degree.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcavity import assumptions, bethe, exact, models
from factorcavity.acceptance import random_tree_graph
from factorcavity.exact import pin
from factorcavity.graphmodel import DegreeSpec, WeightFamily, _parity_tensor
from factorcavity.models import ModelSpec
from factorcavity.rng import substream

SWEEP = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@st.composite
def arity_laws(draw):
    arities = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(arities),
                            max_size=len(arities)))
    return DegreeSpec(tuple(arities), tuple(w / sum(weights) for w in weights))


@st.composite
def degree_laws(draw):
    kind = draw(st.sampled_from(("constant", "two-point", "poisson")))
    if kind == "constant":
        return DegreeSpec.constant(draw(st.integers(1, 4)))
    if kind == "two-point":
        low = draw(st.integers(0, 3))
        high = draw(st.integers(low + 1, 6))
        p = draw(st.floats(0.1, 0.9))
        return DegreeSpec((low, high), (p, 1.0 - p))
    return DegreeSpec.poisson(draw(st.floats(0.5, 4.0)))


def _parity_family(kspec: DegreeSpec, cs, weights) -> WeightFamily:
    """Tables 1 + c * parity and 1 - c * parity for every c, each with half
    of c's weight, so the law of c is symmetric about 0."""
    cs = [models._snap(c) for c in cs]
    masses = np.repeat(np.asarray(weights, dtype=float) / sum(weights) / 2, 2)
    tables = {k: tuple(1.0 + s * c * _parity_tensor(k) for c in cs for s in (1.0, -1.0))
              for k in kspec.support}
    return WeightFamily(q=2, tables=tables, masses={k: masses for k in kspec.support})


@st.composite
def parity_models(draw):
    kspec = draw(arity_laws())
    dspec = draw(degree_laws())
    if draw(st.booleans()):
        return models.ldgm(draw(st.floats(1e-3, 0.5)), dspec, kspec)
    cs = draw(st.lists(st.floats(0.0, 0.95), min_size=1, max_size=3))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(cs), max_size=len(cs)))
    return ModelSpec(name="parity", dspec=dspec, kspec=kspec,
                     family=_parity_family(kspec, cs, weights))


@SWEEP
@given(model=parity_models(), seed=st.integers(0, 2 ** 16))
def test_uniform_atom_is_annealed(model, seed):
    phi_a = bethe.annealed_free_entropy(model)
    assert abs(bethe.bethe_uniform_atom(model) - phi_a) <= 1e-12
    est = bethe.bethe_estimate(bethe.SimplexPopulation.uniform_atom(2), model,
                               samples=2000, seed=seed)
    assert abs(est.value - phi_a) <= 3.0 * est.stderr + 1e-12


@settings(SWEEP, max_examples=120)
@given(model=parity_models(), seed=st.integers(0, 2 ** 16))
def test_bp_exact_on_trees(model, seed):
    # uniform messages are a fixed point of a spin-symmetric family without
    # pins, exact on any tree; two pins make the messages carry information
    g = pin(random_tree_graph(model, 9, seed), 2, seed)
    state = exact.bp_run(g, max_iters=400, damping=0.0, tol=1e-13)
    summary = exact.partition_function(g)
    assert state.converged
    assert np.abs(exact.bp_marginals(state) - summary.marginals).max() <= 1e-8
    assert abs(exact.bethe_instance(state) - summary.log_z) <= 1e-8


def _plain_contraction(table: np.ndarray, points, open_slot=None):
    """sum_tau psi(tau) prod_j mu_j(tau_j), leaving ``open_slot`` free if set."""
    slots = "abcde"[:table.ndim]
    fed = [s for j, s in enumerate(slots) if j != open_slot]
    out = "" if open_slot is None else slots[open_slot]
    return np.einsum(f"{slots},{','.join(fed)}->{out}", table, *points)


@SWEEP
@given(model=parity_models(), seed=st.integers(0, 2 ** 16))
def test_parity_contraction_matches_einsum(model, seed):
    family = model.family
    # a symmetric coefficient law is what the parity POS certificate proves
    assert assumptions.certify_pos(family).info["certificate"] == "parity"
    rng = substream(seed, 0)
    rows = 12
    for k in family.arities:
        assert family.compiled.arity[k].parity is not None
        tables = rng.integers(0, family.n_tables(k), size=rows)
        points = rng.dirichlet([0.5, 0.5], size=(rows, k))
        opens = rng.integers(0, k, size=rows)
        messages = family.contract(np.full(rows, k), tables, points[:, :k - 1], opens)
        # the closed mix: the message at the last slot times that slot's point
        last = family.contract(np.full(rows, k), tables, points[:, :k - 1], np.full(rows, k - 1))
        closed = (last * points[:, k - 1]).sum(axis=1)
        for i in range(rows):
            table = family.table(k, tables[i])
            assert abs(closed[i] - _plain_contraction(table, points[i])) <= 1e-12
            # the open message feeds points[i, :k-1] to the other slots in order
            reference = _plain_contraction(table, points[i, :k - 1], opens[i])
            assert np.abs(messages[i] - reference).max() <= 1e-12


@settings(SWEEP, max_examples=15)
@given(q=st.integers(3, 5), beta=st.floats(0.0, 4.0), d=st.integers(3, 8),
       seed=st.integers(0, 2 ** 16))
def test_potts_families_are_certified_and_keep_pos(q, beta, d, seed):
    # the certificate is the proof; the margin on drawn balanced pairs must agree
    family = models.sbm(q, beta, d).family
    rep = assumptions.certify_pos(family)
    assert rep is not None and rep.info["certificate"] == "potts"
    rng = substream(seed, 0)
    for _ in range(2):
        pop_a, pop_b = assumptions._candidate_pair(q, rng, assumptions._POS_POPULATION)
        assert assumptions.pos_margin(family, 2, pop_a, pop_b) >= -assumptions._MARGIN_TOL
