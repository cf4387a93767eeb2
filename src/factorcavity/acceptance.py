"""The release gate: ten self-contained checks with pinned tolerances.

Every check is deterministic given the suite seed.  Statistical checks use
3-4 sigma bands; identities use absolute tolerances, with a small float
guard wherever a Monte-Carlo standard error can collapse to zero (constant
integrands make "within 3 SE" degenerate at machine precision).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import assumptions, bethe, exact, models
from .graphmodel import DegreeSpec, DegreeSequence, FactorGraph
from .io import csv_body
from .rng import substream

DEFAULT_SEED = 20240 + 401


@dataclass
class CriterionResult:
    criterion: str
    passed: bool
    observed: float
    tolerance: float
    runtime_s: float
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (f"[{mark}] {self.criterion}: observed {self.observed:.3e} "
                f"(tol {self.tolerance:.3e}, {self.runtime_s:.1f}s) {self.detail}")


def _timed(fn):
    def wrapper(seed: int) -> CriterionResult:
        start = time.perf_counter()
        result = fn(seed)
        result.runtime_s = time.perf_counter() - start
        return result
    wrapper.__name__ = fn.__name__
    return wrapper


_D2 = DegreeSpec.constant(2)
_K2 = DegreeSpec.constant(2)
_K23 = DegreeSpec.from_mapping({2: 0.5, 3: 0.5})


@_timed
def criterion_1_nishimori(seed: int) -> CriterionResult:
    """Tilted-pair identity, termwise at n=3, d=2, k=2, q=2."""
    worst = 0.0
    for family in (models.sbm(2, 0.7, 3).family,
                   models.ldgm(0.25, _D2, _K2).family):
        worst = max(worst, exact.nishimori_check(3, _D2, _K2, family, seed=seed))
    return CriterionResult("1 nishimori identity", worst <= 1e-10, worst, 1e-10, 0.0)


@_timed
def criterion_2_planted_equivalence(seed: int) -> CriterionResult:
    """Sampler law equals the defining reweighting, termwise at toy size."""
    seq = DegreeSequence((2, 2, 2), (2, 2))
    sigma = np.array([0, 0, 1])
    worst = 0.0
    for family in (models.ldgm(0.3, _D2, _K2).family,
                   models.sbm(2, 0.7, 3).family):
        ref = exact.planted_law_reweighting(seq, sigma, family)
        con = exact.planted_law_construction(seq, sigma, family)
        keys = set(ref) | set(con)
        worst = max(worst, max(abs(ref.get(k, 0.0) - con.get(k, 0.0)) for k in keys))
    return CriterionResult("2 planted-construction equivalence", worst <= 1e-10,
                           worst, 1e-10, 0.0)


@_timed
def criterion_3_sym_constants(seed: int) -> CriterionResult:
    """Weight constants: exactly 1 for the parity families, closed form for sbm."""
    exact_disc = 0.0
    for eta in (0.05, 0.25, 0.45):
        rep = assumptions.check_sym(models.ldgm(eta, _D2, _K23).family)
        exact_disc = max(exact_disc, rep.info["spread"], abs(rep.info["xi"] - 1.0))
    for beta in (0.5, 1.0, 2.0):
        rep = assumptions.check_sym(models.kspin(beta, _K23, r=6, d=2.0).family)
        exact_disc = max(exact_disc, rep.info["spread"], abs(rep.info["xi"] - 1.0))
    sbm_err = 0.0
    for q in (2, 3):
        for beta in (0.5, 2.0):
            rep = assumptions.check_sym(models.sbm(q, beta, 3).family)
            target = (q - 1 + math.exp(-beta)) / q
            sbm_err = max(sbm_err, rep.info["spread"], abs(rep.info["xi"] - target))
    passed = exact_disc == 0.0 and sbm_err <= 1e-12
    return CriterionResult("3 sym constants", passed, max(exact_disc, sbm_err), 1e-12, 0.0,
                           detail=f"parity-family disc {exact_disc:.1e} (must be 0)")


def _criterion_4_models():
    grid = []
    degree_pairs = [(_D2, _K2), (DegreeSpec.constant(3), DegreeSpec.constant(3)),
                    (_D2, _K23)]
    for eta in (0.1, 0.25, 0.4):
        for dspec, kspec in degree_pairs:
            grid.append(models.ldgm(eta, dspec, kspec))
    for beta in (0.5, 1.0, 2.0):
        for q, d in ((2, 3), (3, 3), (2, 5)):
            grid.append(models.sbm(q, beta, d))
    for beta in (0.5, 1.0, 2.0):
        for d in (1.0, 2.0, 3.0):
            grid.append(models.kspin(beta, _K23, r=6, d=d))
    return grid


@_timed
def criterion_4_uniform_atom(seed: int) -> CriterionResult:
    """B at the uniform atom equals the annealed value, closed form and MC."""
    closed_worst = 0.0
    mc_excess = 0.0
    pop2 = bethe.SimplexPopulation.uniform_atom(2)
    pop3 = bethe.SimplexPopulation.uniform_atom(3)
    for i, model in enumerate(_criterion_4_models()):
        phi_a = bethe.annealed_free_entropy(model)
        closed_worst = max(closed_worst, abs(bethe.bethe_uniform_atom(model) - phi_a))
        pop = pop2 if model.q == 2 else pop3
        est = bethe.bethe_estimate(pop, model, samples=100_000, seed=seed + i)
        band = max(3.0 * est.stderr, 1e-12)
        mc_excess = max(mc_excess, abs(est.value - phi_a) - band)
    passed = closed_worst <= 1e-12 and mc_excess <= 0.0
    return CriterionResult("4 uniform-atom equals annealed", passed,
                           max(closed_worst, mc_excess), 1e-12, 0.0,
                           detail=f"closed {closed_worst:.1e}, worst MC excess {mc_excess:.1e}")


@_timed
def criterion_5_information_term(seed: int) -> CriterionResult:
    """Channel information term, exactly; MI vanishes on the useless channel."""
    worst = 0.0
    for eta in (0.05, 0.25, 0.45):
        model = models.ldgm(eta, _D2, _K23)
        target = math.log(2.0) + eta * math.log(eta) + (1 - eta) * math.log(1 - eta)
        worst = max(worst, abs(exact.information_term(model.family, model.kspec) - target))
    mi = bethe.mutual_information(models.ldgm(0.5, _D2, _K2), seed=seed,
                                  pop_size=1000, sweeps=20, samples=20_000,
                                  pos_trials=100)
    mi_band = max(3.0 * mi.stderr, 1e-10)
    passed = worst <= 1e-12 and abs(mi.value) <= mi_band
    return CriterionResult("5 information term", passed, worst, 1e-12, 0.0,
                           detail=f"MI(eta=1/2)={mi.value:.2e} band {mi_band:.1e}")


@_timed
def criterion_6_sbm_comparator(seed: int) -> CriterionResult:
    """Uniform-atom value matches ln q + (d/2) ln(1-(1-e^-b)/q)."""
    worst = 0.0
    for q in (2, 3):
        for d in (3, 5):
            for beta in (0.5, 2.0):
                model = models.sbm(q, beta, d)
                target = math.log(q) + d / 2 * math.log(1 - (1 - math.exp(-beta)) / q)
                worst = max(worst, abs(bethe.bethe_uniform_atom(model) - target))
    return CriterionResult("6 sbm comparator identity", worst <= 1e-12, worst, 1e-12, 0.0)


@_timed
def criterion_7_finite_size(seed: int) -> CriterionResult:
    """Finite-size MC mutual information agrees with the variational formula."""
    worst = 0.0
    details = []
    for eta in (0.4, 0.45):
        model = models.ldgm(eta, _D2, _K2)
        mc = exact.mi_monte_carlo(model, 12, 200, seed)
        formula = bethe.mutual_information(model, seed=seed,
                                           pop_size=2000, sweeps=60,
                                           samples=30_000, pos_trials=150)
        band = max(3.0 * math.hypot(mc.stderr, formula.stderr), 0.05)
        gap = abs(mc.value - formula.value)
        worst = max(worst, gap - band)
        details.append(f"eta={eta}: |{mc.value:.4f}-{formula.value:.4f}|, band {band:.3f}")
    return CriterionResult("7 finite-size consistency", worst <= 0.0, worst, 0.0, 0.0,
                           detail="; ".join(details))


@_timed
def criterion_8_pos_falsifier(seed: int) -> CriterionResult:
    """POS is certified for ldgm and kspin; the falsifier finds the assortative violation."""
    pos = {name: assumptions.check_all(model.dspec, model.kspec, model.family,
                                       pos_trials=10_000, seed=seed)["POS"].info
           for name, model in (("ldgm", models.ldgm(0.25, _D2, _K23)),
                               ("kspin", models.kspin(1.0, _K23, r=6, d=2.0)),
                               ("assortative", models.sbm(2, 1.0, 3, assortative=True)))}
    semantics = {name: info["semantics"] for name, info in pos.items()}
    passed = semantics == {"ldgm": "certified", "kspin": "certified", "assortative": "violation"}
    observed = pos["assortative"]["worst_margin"]
    return CriterionResult("8 pos falsifier", passed, observed, 0.0, 0.0,
                           detail=f"{semantics} (margin {observed:.2e})")


def random_tree_graph(model, n_target: int, seed: int) -> FactorGraph:
    """A random tree factor graph grown by attaching factors to fresh leaves."""
    rng = substream(seed, 99)
    edge_vars, arities, table_ids = [], [], []
    n = 1
    while n < n_target:
        k = int(model.kspec.sample(rng, 1)[0])
        if k < 2:
            continue
        edge_vars += [int(rng.integers(0, n)), *range(n, n + k - 1)]
        n += k - 1
        arities.append(k)
        table_ids.append(int(rng.choice(model.family.n_tables(k),
                                        p=model.family.masses[k])))
    degrees = np.bincount(np.asarray(edge_vars, dtype=np.int64), minlength=n)
    return FactorGraph(family=model.family, var_degrees=degrees, edge_vars=edge_vars,
                       arities=arities, tables=table_ids)


@_timed
def criterion_9_bp_trees(seed: int) -> CriterionResult:
    """Sum-product is exact on trees for all three models.

    The families are spin-symmetric, so without pins uniform messages are
    exact on any tree; two pins per tree make the messages carry information.
    """
    worst = 0.0
    specs = [models.ldgm(0.2, _D2, _K23),
             models.sbm(3, 1.0, 3),
             models.kspin(1.0, _K23, r=4, d=2.0)]
    for s_idx, model in enumerate(specs):
        for t_idx in range(2):
            tree_seed = seed + 17 * s_idx + t_idx
            g = exact.pin(random_tree_graph(model, 10, tree_seed), 2, tree_seed)
            state = exact.bp_run(g, max_iters=400, damping=0.0, tol=1e-13)
            summary = exact.partition_function(g)
            worst = max(worst,
                        float(np.abs(exact.bp_marginals(state) - summary.marginals).max()),
                        abs(exact.bethe_instance(state) - summary.log_z))
    return CriterionResult("9 bp exact on trees", worst <= 1e-8, worst, 1e-8, 0.0)


CRITERIA = [
    criterion_1_nishimori,
    criterion_2_planted_equivalence,
    criterion_3_sym_constants,
    criterion_4_uniform_atom,
    criterion_5_information_term,
    criterion_6_sbm_comparator,
    criterion_7_finite_size,
    criterion_8_pos_falsifier,
    criterion_9_bp_trees,
]

CSV_COLUMNS = ("criterion", "passed", "observed", "tolerance")


def run_criteria(seed: int = DEFAULT_SEED, echo=None) -> list:
    """Run checks 1-9; returns their results in order."""
    results = []
    for fn in CRITERIA:
        result = fn(seed)
        results.append(result)
        if echo:
            echo(result.line())
    return results


def results_csv(results) -> str:
    rows = [(r.criterion, int(r.passed), r.observed, r.tolerance) for r in results]
    return csv_body(CSV_COLUMNS, rows)


def run_selftest(seed: int = DEFAULT_SEED, echo=None):
    """Checks 1-9 plus the determinism check (10): a second full pass with the
    same seed must reproduce the CSV body byte for byte.

    Returns (results incl. criterion 10, csv text).
    """
    start = time.perf_counter()
    first = run_criteria(seed, echo)
    body_a = results_csv(first)
    second = run_criteria(seed)
    body_b = results_csv(second)
    identical = body_a == body_b
    c10 = CriterionResult("10 selftest determinism", identical,
                          0.0 if identical else 1.0, 0.0,
                          time.perf_counter() - start,
                          detail="csv bodies byte-identical" if identical
                          else "csv bodies differ between passes")
    if echo:
        echo(c10.line())
    results = first + [c10]
    csv_text = results_csv(results)
    return results, csv_text
