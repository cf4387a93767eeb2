"""Executable checkers for the model hypotheses used by the Bethe pipeline.

Four checks: finite positive-mean degrees (DEG), a constant marginal-sum
weight constant (SYM), uniform-maximising concave mean-table polynomials
(BAL), and the three-term convexity inequality (POS).  SYM is exact; BAL is
a grid check.  POS has two kinds of evidence: ``certify_pos`` proves it from
the tables of two-spin parity families with a symmetric coefficient law and
of pairwise Potts families, and ``check_pos`` is a randomised falsifier for
every other family, whose pass means only "no violation found".
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import GridTooCoarse
from .graphmodel import SYM_TOL, DegreeSpec, WeightFamily
from .rng import spin_permutations, substream

# BAL gaps and POS margins within this of zero are rounding, not violations
_MARGIN_TOL = 1e-9
# POS candidate populations: points per population, and the largest product
# grid of slot supports an evaluation may build (larger arities are skipped)
_POS_POPULATION = 12
_POS_GRID_CAP = 500_000


@dataclass
class CheckReport:
    """Outcome of one hypothesis check.

    ``witness`` is a violating configuration and is present iff the check
    failed; ``detail`` is the largest violation magnitude observed (0 when
    passing); ``info`` carries check-specific numbers such as the computed
    weight constant.
    """

    name: str
    passed: bool
    witness: Optional[object] = None
    detail: float = 0.0
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.passed and self.witness is not None:
            raise ValueError("a passing report cannot carry a witness")
        if not self.passed and self.witness is None:
            raise ValueError("a failing report must carry a witness")


def check_deg(dspec: DegreeSpec, kspec: DegreeSpec) -> CheckReport:
    """Bounded support with positive means; reports first two moments."""
    info = {
        "d_mean": dspec.mean, "d_second": dspec.second_moment,
        "k_mean": kspec.mean, "k_second": kspec.second_moment,
    }
    if dspec.mean <= 0:
        return CheckReport("DEG", False, witness="E[d]=0", detail=1.0, info=info)
    if kspec.mean <= 0:
        return CheckReport("DEG", False, witness="E[k]=0", detail=1.0, info=info)
    return CheckReport("DEG", True, info=info)


def check_sym(family: WeightFamily) -> CheckReport:
    """All (arity, table, coordinate, spin) marginal sums equal one constant.

    Passes iff the sums q^{1-k} sum_{s: s_j = w} psi(s) spread by at most
    ``SYM_TOL``, the test of ``WeightFamily.xi``; their mean and spread are
    the ones ``family.compiled`` holds, and the constant is reported as
    info['xi'].  A failure's witness (k, table, j, w, deviation) is the sum
    farthest from the mean.  Tables are strictly positive by construction.
    """
    xi, spread = family.compiled.xi, family.compiled.xi_spread
    info = {"xi": xi, "spread": spread}
    if spread > SYM_TOL:
        witness = None
        for (k, i), rows in family.marginal_sums().items():
            dev = np.abs(rows - xi)
            j, w = np.unravel_index(int(dev.argmax()), rows.shape)
            if witness is None or dev[j, w] > witness[-1]:
                witness = (k, i, int(j), int(w), float(dev[j, w]))
        return CheckReport("SYM", False, witness=witness, detail=spread, info=info)
    return CheckReport("SYM", True, detail=spread, info=info)


def _simplex_grid(q: int, resolution: int) -> np.ndarray:
    """All probability vectors with entries multiples of 1/resolution, in
    decreasing count of colour 0, then of colour 1, and so on."""

    @functools.cache
    def counts(colours, total):
        # the count vectors of ``colours`` colours that sum to ``total``
        if colours == 1:
            return np.array([[total]], dtype=np.int64)
        rest = np.concatenate([counts(colours - 1, t) for t in range(total + 1)])
        return np.column_stack([total - rest.sum(axis=1), rest])

    return counts(q, resolution) / resolution


def _mean_poly(table: np.ndarray, points: np.ndarray) -> np.ndarray:
    """f(mu) = sum_s table(s) prod_i mu(s_i) for every grid point."""
    k = table.ndim
    npts = len(points)
    tmp = np.broadcast_to(table, (npts,) + table.shape)
    for _ in range(k):
        tmp = np.einsum("g...q,gq->g...", tmp, points)
    return tmp


def check_bal(family: WeightFamily, grid_resolution: int = 64,
              pairs: int = 2000, seed: int = 0) -> CheckReport:
    """Grid maximum at the barycenter plus midpoint concavity, per arity.

    Sound but incomplete: the polynomial is evaluated on a simplex lattice
    and concavity is probed on sampled point pairs only.
    """
    q = family.q
    if q > 4:
        warnings.warn("simplex grid is coarse for q > 4", GridTooCoarse)
    uniform = np.full(q, 1.0 / q)
    rng = substream(seed, 50)
    worst = 0.0
    witness = None
    info = {}
    grid = _simplex_grid(q, grid_resolution)
    for k in family.arities:
        mean_table = family.mean_table(k)
        vals = _mean_poly(mean_table, grid)
        f_uniform = float(_mean_poly(mean_table, uniform[None])[0])
        gap = float(vals.max()) - f_uniform
        info[f"k{k}_max_gap"] = gap
        if gap > _MARGIN_TOL:
            arg = grid[int(vals.argmax())]
            if gap > worst:
                worst, witness = gap, ("max-not-uniform", k, tuple(arg.round(6)))
        idx = rng.integers(0, len(grid), size=(pairs, 2))
        a, b = grid[idx[:, 0]], grid[idx[:, 1]]
        mids = _mean_poly(mean_table, 0.5 * (a + b))
        ends = 0.5 * (_mean_poly(mean_table, a) + _mean_poly(mean_table, b))
        conc = float((ends - mids).max())
        info[f"k{k}_concavity_gap"] = max(conc, 0.0)
        if conc > _MARGIN_TOL:
            at = int((ends - mids).argmax())
            if conc > worst:
                worst, witness = conc, ("midpoint-convexity", k,
                                        tuple(a[at].round(6)), tuple(b[at].round(6)))
    if witness is not None:
        return CheckReport("BAL", False, witness=witness, detail=worst, info=info)
    return CheckReport("BAL", True, info=info)


# ---------------------------------------------------------------------------
# POS falsifier
# ---------------------------------------------------------------------------


def _symmetrise(points: np.ndarray, weights: np.ndarray, q: int):
    """Average a population over all alphabet permutations.

    The result has the exact barycenter 1/q, as required of candidate
    populations.
    """
    perms = spin_permutations(q)
    pts = np.concatenate([points[:, p] for p in perms], axis=0)
    wts = np.concatenate([weights / len(perms)] * len(perms))
    return pts, wts


def _candidate_population(q: int, rng: np.random.Generator, max_points: int):
    """One random finite-support element of the barycentric simplex measures."""
    q_fact = math.factorial(q)
    cloud = max(1, max_points // q_fact)
    kind = rng.integers(0, 4)
    if kind == 0:          # uniform atom
        return np.full((1, q), 1.0 / q), np.array([1.0])
    if kind == 1:          # symmetrised Dirichlet cloud
        alpha = rng.choice([0.2, 0.5, 1.0, 5.0])
        pts = rng.dirichlet([alpha] * q, size=cloud)
        return _symmetrise(pts, np.full(cloud, 1.0 / cloud), q)
    if kind == 2:          # symmetrised polarised atom
        lam = rng.uniform(0.01, 0.3)
        pts = (1 - lam) * np.eye(q)[:1] + lam / q
        return _symmetrise(pts, np.array([1.0]), q)
    # skewed two-atom population with exact uniform barycenter (q = 2 only);
    # for larger alphabets fall back to a symmetrised cloud
    if q == 2:
        p = rng.uniform(0.55, 0.98)
        r = rng.uniform(0.02, 0.45)
        a = (0.5 - r) / (p - r)
        pts = np.array([[p, 1 - p], [r, 1 - r]])
        return pts, np.array([a, 1 - a])
    pts = rng.dirichlet([0.3] * q, size=max(1, cloud // 2))
    return _symmetrise(pts, np.full(len(pts), 1.0 / len(pts)), q)


def _candidate_pair(q: int, rng: np.random.Generator, max_points: int):
    pts_a, w_a = _candidate_population(q, rng, max_points)
    style = rng.integers(0, 3)
    if style == 0:         # independent partner
        pts_b, w_b = _candidate_population(q, rng, max_points)
    elif style == 1:       # mirror partner: relabelled alphabet
        perm = rng.permutation(q)
        if np.array_equal(perm, np.arange(q)):
            perm = np.roll(perm, 1)
        pts_b, w_b = pts_a[:, perm], w_a
    else:                  # uniform-atom partner
        pts_b, w_b = np.full((1, q), 1.0 / q), np.array([1.0])
    return (pts_a, w_a), (pts_b, w_b)


def _expected_lambda(family: WeightFamily, k: int, point_sets, weight_sets) -> float:
    """E[Lambda(mix)] over iid population draws per slot and the table choice.

    ``point_sets[i]`` is the (s_i, q) support of slot i.  Every table's
    message at the last slot is taken on the product grid of the other
    supports, and mix = sum_s S(s) mu(s) closes it with every last point.
    """
    form = family.compiled.arity[k]
    sizes = [len(pts) for pts in point_sets[:-1]]
    idx = np.indices(sizes).reshape(k - 1, math.prod(sizes))
    grid = np.empty((idx.shape[1], k - 1, family.q))
    weights = np.ones(idx.shape[1])
    for j in range(k - 1):
        grid[:, j] = point_sets[j][idx[j]]
        weights = weights * weight_sets[j][idx[j]]
    n_tables = len(form.masses)
    rows = n_tables * len(grid)
    messages = family.contract(np.full(rows, k), np.repeat(np.arange(n_tables), len(grid)),
                               np.tile(grid, (n_tables, 1, 1)), np.full(rows, k - 1))
    mix = (messages @ point_sets[-1].T).reshape(n_tables, -1)
    weights = np.multiply.outer(weights, weight_sets[-1]).ravel()
    return float(form.masses @ ((mix * np.log(mix)) @ weights))


def pos_margin(family: WeightFamily, k: int, pop_a, pop_b) -> float:
    """LHS minus RHS of the three-term inequality; negative means violated."""
    pts_a, w_a = pop_a
    pts_b, w_b = pop_b
    t1 = _expected_lambda(family, k, [pts_a] * k, [w_a] * k)
    t2 = (k - 1) * _expected_lambda(family, k, [pts_b] * k, [w_b] * k)
    t3 = 0.0
    for j in range(k):
        sets = [pts_b] * k
        wts = [w_b] * k
        sets[j] = pts_a
        wts[j] = w_a
        t3 += _expected_lambda(family, k, sets, wts)
    return t1 + t2 - t3


# ---------------------------------------------------------------------------
# POS certificates (derivations in docs/notes.md, "POS certificates")
# ---------------------------------------------------------------------------


def _parity_residue(k: int, coefs: np.ndarray, masses: np.ndarray) -> float:
    """Closed-form bound on the odd-moment terms of the parity series.

    The law of c is taken on its distinct values, sorted, so value i's mirror
    is value j = n - 1 - i; the bound is
    k sum_i (|p_i - p_j| h(c_max) + p_j |c_i + c_j| H(c_max)), with h and H
    the odd-l sums of x^l / (l(l-1)) and of x^(l-1) / (l-1).  Positive tables
    1 +- c force |c| < 1, so both sums are finite.
    """
    values, which = np.unique(coefs, return_inverse=True)
    law = np.bincount(which, weights=masses)
    c_max = float(np.abs(values).max())
    h = c_max - ((1 + c_max) * math.log1p(c_max) - (1 - c_max) * math.log1p(-c_max)) / 2
    big_h = -(math.log1p(c_max) + math.log1p(-c_max)) / 2
    mass_gap = float(np.abs(law - law[::-1]).sum())
    coef_gap = float(law[::-1] @ np.abs(values + values[::-1]))
    return k * (mass_gap * h + coef_gap * big_h)


def _is_potts(q: int, k: int, flat: np.ndarray) -> bool:
    """Whether every table is c0 (1 - gamma [s = t]) exactly, 0 <= gamma < 1."""
    if k != 2 or q < 2:
        return False
    equal = np.eye(q, dtype=bool).ravel()
    diag, off = flat[:, equal], flat[:, ~equal]
    return bool(np.all(diag == diag[:, :1]) and np.all(off == off[:, :1])
                and np.all(diag[:, 0] <= off[:, 0]))


def certify_pos(family: WeightFamily) -> Optional[CheckReport]:
    """A proof of the three-term convexity inequality from the tables, or None.

    Every arity must qualify: a two-spin parity arity whose odd-moment
    residue bound is at most ``_MARGIN_TOL``, or a pair arity of Potts tables
    c0 (1 - gamma [s = t]) with 0 <= gamma < 1.  Runs no trials; the report's
    info has the falsifier's keys plus the certificates used and the largest
    residue bound.
    """
    names = set()
    residue = 0.0
    for k, form in family.compiled.arity.items():
        if form.parity is not None:
            bound = _parity_residue(k, form.parity, form.masses)
            if bound <= _MARGIN_TOL:
                names.add("parity")
                residue = max(residue, bound)
                continue
        if _is_potts(family.q, k, form.flat):
            names.add("potts")
            continue
        return None
    info = {"trials": 0, "evaluations": 0, "worst_margin": 0.0, "semantics": "certified",
            "certificate": "+".join(sorted(names)), "residue_bound": residue}
    return CheckReport("POS", True, info=info)


def check_pos(family: WeightFamily, *, trials: int, seed: int = 0) -> CheckReport:
    """Randomised falsifier for the three-term convexity inequality.

    Samples candidate population pairs (atoms, Dirichlet clouds, polarised
    and mirror populations), evaluates the inequality exactly on their
    finite supports for every arity, and fails on any margin below -1e-9.
    A pass means no violation was found in ``trials`` attempts; it is a
    one-sided check, not a proof.  ``certify_pos`` gives the proof for the
    families it covers; this falsifier runs whenever it is called, certified
    family or not.
    """
    rng = substream(seed, 60)
    worst = 0.0
    witness = None
    checked = 0
    for trial in range(trials):
        pop_a, pop_b = _candidate_pair(family.q, rng, _POS_POPULATION)
        for k in family.arities:
            if max(len(pop_a[0]), len(pop_b[0])) ** k > _POS_GRID_CAP:
                continue
            margin = pos_margin(family, k, pop_a, pop_b)
            checked += 1
            if margin < -_MARGIN_TOL:
                worst = margin
                witness = {"k": k, "trial": trial, "margin": margin,
                           "pi": pop_a, "pi_prime": pop_b}
                break
        if witness is not None:
            break
    info = {"trials": trials, "evaluations": checked, "worst_margin": worst,
            "semantics": "no-violation-found" if witness is None else "violation"}
    if witness is not None:
        return CheckReport("POS", False, witness=witness, detail=-worst, info=info)
    return CheckReport("POS", True, info=info)


def check_all(dspec: DegreeSpec, kspec: DegreeSpec, family: WeightFamily,
              *, pos_trials: int, seed: int = 0) -> dict:
    """Run all four checkers; returns {name: CheckReport}.  POS is the
    certificate where one exists, else ``pos_trials`` falsifier trials."""
    return {
        "DEG": check_deg(dspec, kspec),
        "SYM": check_sym(family),
        "BAL": check_bal(family, seed=seed),
        "POS": certify_pos(family) or check_pos(family, trials=pos_trials, seed=seed),
    }
