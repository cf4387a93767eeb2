"""The variational side: Bethe functional, population dynamics, thresholds.

The free-entropy functional is evaluated by Monte Carlo over its defining
ingredients (degrees, size-biased arities, weight choices, iid population
points); its heuristic maximiser is searched by population dynamics from a
near-uniform and a polarised initialisation.  The supremum reported by
:func:`sup_bethe` is a best-found lower bound, never a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (AssumptionViolation, NoCrossing, NumericalUnderflow,
                     ZeroMean)
from .graphmodel import DegreeSpec, WeightFamily
from .rng import spin_permutations, substream

DEFAULT_POPULATION = 10_000
DEFAULT_SWEEPS = 200
DEFAULT_SAMPLES = 100_000

_CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SimplexPopulation:
    """An empirical measure on the spin simplex, stored as a point array.

    ``symmetrized`` marks populations whose barycenter drifted: they are
    read through uniformly random alphabet permutations, which restores the
    exact barycenter for symmetric families without touching the points.
    """

    points: np.ndarray
    generation: int = 0
    symmetrized: bool = False
    label: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a (size, q) array")
        if np.any(pts < 0) or np.abs(pts.sum(axis=1) - 1.0).max() > 1e-10:
            raise ValueError("population points must lie on the simplex")
        self.points = pts

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def q(self) -> int:
        return self.points.shape[1]

    def barycenter(self) -> np.ndarray:
        return self.points.mean(axis=0)

    @classmethod
    def uniform_atom(cls, q: int, size: int = 1) -> "SimplexPopulation":
        return cls(np.full((size, q), 1.0 / q), label="uniform-atom")

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """iid point draws; applies random spin relabelings when symmetrized."""
        pts = self.points[rng.integers(0, self.size, size=count)]
        if self.symmetrized:
            perms = spin_permutations(self.q)
            pick = rng.integers(0, len(perms), size=count)
            pts = np.take_along_axis(pts, perms[pick], axis=1)
        return pts


@dataclass
class BetheEstimate:
    """Monte-Carlo value of the functional, in nats per variable."""

    value: float
    stderr: float
    samples: int

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")

    def __float__(self):
        return float(self.value)


@dataclass
class SupBethe:
    """Best-found functional value over the candidate maximisers.

    Heuristic: the true supremum is only lower-bounded by this number.
    ``candidates`` maps tag -> (value, stderr) for every candidate tried.
    """

    value: float
    stderr: float
    tag: str
    candidates: dict
    heuristic: bool = True

    def __float__(self):
        return float(self.value)


@dataclass
class MIResult:
    """Mutual information per variable from the variational formula."""

    value: float
    stderr: float
    information_term: float
    sup: SupBethe

    def __float__(self):
        return float(self.value)


# ---------------------------------------------------------------------------
# degree laws and closed forms
# ---------------------------------------------------------------------------


def size_biased(kspec: DegreeSpec) -> DegreeSpec:
    """Arity distribution seen from a uniformly random half-edge."""
    if kspec.mean <= 0:
        raise ZeroMean("size-biasing needs a positive mean")
    support = [v for v in kspec.support if v > 0]
    mass = [v * kspec.pmf(v) / kspec.mean for v in support]
    total = sum(mass)
    return DegreeSpec(tuple(support), tuple(m / total for m in mass))


def annealed_free_entropy(model) -> float:
    """(1 - E[d]) ln q + (E[d]/E[k]) E[ln sum_tau E psi_k(tau)], exact."""
    model.family.xi()
    dbar = model.dspec.mean
    kbar = model.kspec.mean
    mean_log_total = sum(
        p * math.log(model.family.table_total(k))
        for k, p in zip(model.kspec.support, model.kspec.mass) if p > 0)
    return (1.0 - dbar) * math.log(model.q) + dbar / kbar * mean_log_total


def bethe_uniform_atom(model) -> float:
    """Closed form of the functional at the uniform atom: ln q + (E[d]/E[k]) ln xi."""
    xi = model.family.xi()
    return math.log(model.q) + model.dspec.mean / model.kspec.mean * math.log(xi)


# ---------------------------------------------------------------------------
# vectorised ingredient evaluation
# ---------------------------------------------------------------------------


def _draw_edge_ingredients(family: WeightFamily, khat: DegreeSpec, count: int,
                           rng: np.random.Generator):
    """Per-edge (arity, table id) draws for ``count`` incoming edges."""
    ks = khat.sample(rng, count)
    tables = np.empty(count, dtype=np.int64)
    for k in np.unique(ks).tolist():
        sel = np.flatnonzero(ks == k)
        tables[sel] = rng.choice(family.n_tables(k), size=len(sel),
                                 p=family.compiled.arity[k].masses)
    return ks, tables


def _all_parity(family: WeightFamily, ks) -> bool:
    return all(family.compiled.arity[k].parity is not None
               for k in np.unique(ks).tolist())


def _draw_slot_points(pop: SimplexPopulation, slots: np.ndarray, parity: bool,
                      rng: np.random.Generator) -> np.ndarray:
    """Population points for ``slots[i]`` slots of row i, (rows, max slots, q).

    Parity batches draw the points row after row, other batches one column
    of all rows per slot: the seeded streams of both paths keep their order.
    """
    out = np.zeros((len(slots), int(slots.max(initial=0)), pop.q))
    if parity:
        out[np.arange(out.shape[1]) < slots[:, None]] = pop.draw(rng, int(slots.sum()))
    else:
        for j in range(out.shape[1]):
            out[:, j] = pop.draw(rng, len(slots))
    return out


def _edge_messages(family: WeightFamily, pop: SimplexPopulation, ks, tables,
                   rng: np.random.Generator) -> np.ndarray:
    """S_e(spin) for each edge: the table contracted with k-1 point draws.

    Parity tables are symmetric in their slots, so only other tables draw
    the open slot.
    """
    parity = _all_parity(family, ks)
    hs = np.zeros(len(ks), dtype=np.int64)
    if not parity:
        for k in np.unique(ks).tolist():
            sel = np.flatnonzero(ks == k)
            hs[sel] = rng.integers(0, k, size=len(sel))
    pts = _draw_slot_points(pop, ks - 1, parity, rng)
    return family.contract(ks, tables, pts, hs)


def _factor_mixes(family: WeightFamily, kspec: DegreeSpec, pop: SimplexPopulation,
                  count: int, rng: np.random.Generator):
    """(k, mix) per sample for the factor-side term."""
    ks, tables = _draw_edge_ingredients(family, kspec, count, rng)
    pts = _draw_slot_points(pop, ks, _all_parity(family, ks), rng)
    return ks, family.contract(ks, tables, pts)


def _log_products(messages: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Per-variable sums of log message components, (len(degrees), q).

    Variable i owns the next ``degrees[i]`` rows of ``messages``; a variable
    of degree 0 gets zeros.
    """
    if np.any(~np.isfinite(messages)) or np.any(messages <= 0):
        raise NumericalUnderflow("message component out of range")
    offsets = np.concatenate([[0], np.cumsum(degrees)[:-1]]).astype(np.int64)
    padded = np.concatenate([np.log(messages), np.zeros((1, messages.shape[1]))])
    return np.where(degrees[:, None] > 0, np.add.reduceat(padded, offsets, axis=0), 0.0)


def _variable_samples(model, pop: SimplexPopulation, count: int,
                      rng: np.random.Generator):
    """Per-sample variable term and the log of its Lambda argument."""
    q = model.q
    log_xi = math.log(model.family.xi())
    khat = size_biased(model.kspec)
    ds = model.dspec.sample(rng, count)
    total_edges = int(ds.sum())
    ks, tables = _draw_edge_ingredients(model.family, khat, total_edges, rng)
    per_sigma = _log_products(_edge_messages(model.family, pop, ks, tables, rng), ds)
    shifted = per_sigma - (ds * log_xi)[:, None]
    mx = shifted.max(axis=1)
    ratio = np.exp(shifted - mx[:, None]).sum(axis=1) * np.exp(mx)
    log_arg = np.log(ratio) + ds * log_xi
    values = ratio * log_arg / q
    return values, log_arg, ds


def _factor_samples(model, pop: SimplexPopulation, count: int,
                    rng: np.random.Generator):
    xi = model.family.xi()
    coeff = model.dspec.mean / (xi * model.kspec.mean)
    ks, mixes = _factor_mixes(model.family, model.kspec, pop, count, rng)
    if np.any(mixes <= 0):
        raise NumericalUnderflow("nonpositive factor mix")
    return coeff * (np.asarray(ks) - 1) * mixes * np.log(mixes)


def bethe_estimate(pi: SimplexPopulation, model, samples: int = DEFAULT_SAMPLES,
                   seed: int = 0) -> BetheEstimate:
    """Monte-Carlo average of the functional's integrand under ``pi``.

    Variable and factor ingredients are drawn independently per sample and
    the difference is averaged; the reported standard error is the sample
    standard deviation of that difference.
    """
    vals = np.empty(samples)
    done = 0
    chunk_id = 0
    while done < samples:
        b = min(_CHUNK, samples - done)
        rng = substream(seed, 70, chunk_id)
        v, _, _ = _variable_samples(model, pi, b, rng)
        f = _factor_samples(model, pi, b, rng)
        vals[done:done + b] = v - f
        done += b
        chunk_id += 1
    value = float(vals.mean())
    stderr = float(vals.std(ddof=1)) / math.sqrt(samples) if samples > 1 else math.inf
    return BetheEstimate(value=value, stderr=stderr, samples=samples)


# ---------------------------------------------------------------------------
# population dynamics
# ---------------------------------------------------------------------------


def _initial_population(q: int, size: int, init: str, rng: np.random.Generator,
                        polarisation: float = 0.98) -> np.ndarray:
    if init == "uniform-perturbed":
        return rng.dirichlet([50.0] * q, size=size)
    if init == "planted-polarized":
        spins = rng.integers(0, q, size=size)
        pts = np.full((size, q), (1.0 - polarisation) / q)
        pts[np.arange(size), spins] += polarisation
        return pts
    raise ValueError("init must be 'uniform-perturbed' or 'planted-polarized'")


def population_dynamics(model, pop_size: int = DEFAULT_POPULATION,
                        iters: int = DEFAULT_SWEEPS,
                        init: str = "uniform-perturbed", seed: int = 0,
                        *, batch: int = 256, recenter_tol: float = 0.02) -> SimplexPopulation:
    """Iterate the distributional update on an empirical population.

    One sweep replaces ``pop_size`` randomly chosen points.  Each new point
    is the normalised product of excess-degree many incoming summaries built
    from size-biased arities, weight choices and current population points.
    Near-uniform runs whose barycenter drifts beyond ``recenter_tol`` are
    flagged for evaluation-time symmetrisation; polarised runs are labelled
    and never re-centered.
    """
    if pop_size < 100:
        raise ValueError("population size must be at least 100")
    q = model.q
    rng = substream(seed, 80)
    pop = SimplexPopulation(_initial_population(q, pop_size, init, rng),
                            label=init)
    excess = _excess_degree_law(model.dspec)
    khat = size_biased(model.kspec)
    for sweep in range(iters):
        order = rng.permutation(pop_size)
        replaced = 0
        while replaced < pop_size:
            b = min(batch, pop_size - replaced)
            targets = order[replaced:replaced + b]
            dstar = excess.sample(rng, b)
            total = int(dstar.sum())
            ks, tables = _draw_edge_ingredients(model.family, khat, total, rng)
            acc = _log_products(_edge_messages(model.family, pop, ks, tables, rng), dstar)
            acc -= acc.max(axis=1, keepdims=True)
            new_pts = np.exp(acc)
            norms = new_pts.sum(axis=1, keepdims=True)
            if np.any(norms <= 0) or np.any(~np.isfinite(norms)):
                raise NumericalUnderflow("point normaliser underflowed")
            pop.points[targets] = new_pts / norms
            replaced += b
        pop.generation += 1
        if init == "uniform-perturbed" and not pop.symmetrized:
            drift = float(np.abs(pop.barycenter() - 1.0 / q).max())
            if drift > recenter_tol:
                pop.symmetrized = True
    return pop


def _excess_degree_law(dspec: DegreeSpec) -> DegreeSpec:
    biased = size_biased(dspec)
    return DegreeSpec(tuple(v - 1 for v in biased.support), biased.mass)


# ---------------------------------------------------------------------------
# supremum search, mutual information, threshold scans
# ---------------------------------------------------------------------------


def sup_bethe(model, restarts: int = 2, seed: int = 0, *,
              pop_size: int = DEFAULT_POPULATION, sweeps: int = DEFAULT_SWEEPS,
              samples: int = DEFAULT_SAMPLES) -> SupBethe:
    """Best functional value over the uniform atom and dynamics outputs.

    A lower bound on the true supremum with heuristic status; returns which
    candidate won and every candidate's value.
    """
    candidates = {"uniform-atom": (bethe_uniform_atom(model), 0.0)}
    for r in range(restarts):
        for flag, init in enumerate(("uniform-perturbed", "planted-polarized")):
            child = int(substream(seed, 81, r, flag).integers(2 ** 62))
            pop = population_dynamics(model, pop_size, sweeps, init, child)
            est = bethe_estimate(pop, model, samples, child + 1)
            candidates[f"pd-{init}-r{r}"] = (est.value, est.stderr)
    best = max(v for v, _ in candidates.values())
    # candidates within float noise of the best tie; the earliest wins, so
    # the closed-form uniform atom beats an equal-valued dynamics run
    tag = next(t for t, (v, _) in candidates.items()
               if v >= best - 1e-12 * max(1.0, abs(best)))
    value, stderr = candidates[tag]
    return SupBethe(value=value, stderr=stderr, tag=tag, candidates=candidates)


def mutual_information(model, restarts: int = 2, seed: int = 0, *,
                       waive_pos: bool = False, pos_trials: int = 200,
                       pop_size: int = DEFAULT_POPULATION,
                       sweeps: int = DEFAULT_SWEEPS,
                       samples: int = DEFAULT_SAMPLES) -> MIResult:
    """ln q + (E[d]/(xi E[k])) E[q^{-k} sum Lambda(psi)] - sup of the functional.

    Checks the model hypotheses first; a failed check raises unless the
    convexity falsifier was explicitly waived by the caller.
    """
    from . import assumptions
    from .exact import information_term

    for report in (assumptions.check_deg(model.dspec, model.kspec),
                   assumptions.check_sym(model.family),
                   assumptions.check_bal(model.family)):
        if not report.passed:
            raise AssumptionViolation(report)
    if not waive_pos:
        report = assumptions.check_pos(model.family, trials=pos_trials, seed=seed)
        if not report.passed:
            raise AssumptionViolation(report)

    xi = model.family.xi()
    info = information_term(model.family, model.kspec)
    sup = sup_bethe(model, restarts, seed, pop_size=pop_size, sweeps=sweeps,
                    samples=samples)
    coeff = model.dspec.mean / (xi * model.kspec.mean)
    value = math.log(model.q) + coeff * info - sup.value
    return MIResult(value=value, stderr=sup.stderr, information_term=info, sup=sup)


@dataclass
class ScanRow:
    param: float
    b_uniform: float
    b_pd_uniform: float
    b_pd_uniform_se: float
    b_pd_planted: float
    b_pd_planted_se: float
    phi_a: float
    sup: float
    sup_se: float
    comparator: float


@dataclass
class ScanResult:
    rows: list
    bracket: tuple
    crossing_param: float


def threshold_scan(model_family: Callable[[float], object], param_grid: Sequence[float],
                   comparator: Union[str, float, Callable] = "annealed",
                   *, seed: int = 0, restarts: int = 1,
                   pop_size: int = 2000, sweeps: int = 100,
                   samples: int = 20_000) -> ScanResult:
    """Walk a sorted grid until the functional exceeds its comparator by 3 SE.

    Returns the first crossing with a one-grid-step bracket; raises
    ``NoCrossing`` (carrying the computed rows) if the grid never crosses.
    """
    grid = list(param_grid)
    if grid != sorted(grid):
        raise ValueError("parameter grid must be sorted")
    rows = []
    previous = None
    for idx, param in enumerate(grid):
        model = model_family(param)
        phi_a = annealed_free_entropy(model)
        if comparator == "annealed":
            comp = phi_a
        elif callable(comparator):
            comp = float(comparator(model))
        else:
            comp = float(comparator)
        sup = sup_bethe(model, restarts, seed + 104729 * idx,
                        pop_size=pop_size, sweeps=sweeps, samples=samples)
        uni = [sup.candidates[t] for t in sup.candidates if t.startswith("pd-uniform")]
        pla = [sup.candidates[t] for t in sup.candidates if t.startswith("pd-planted")]
        best_uni = max(uni, key=lambda v: v[0]) if uni else (math.nan, math.nan)
        best_pla = max(pla, key=lambda v: v[0]) if pla else (math.nan, math.nan)
        row = ScanRow(param=param, b_uniform=sup.candidates["uniform-atom"][0],
                      b_pd_uniform=best_uni[0], b_pd_uniform_se=best_uni[1],
                      b_pd_planted=best_pla[0], b_pd_planted_se=best_pla[1],
                      phi_a=phi_a, sup=sup.value, sup_se=sup.stderr,
                      comparator=comp)
        rows.append(row)
        # absolute epsilon so a zero-stderr candidate cannot cross on rounding
        excess = sup.value - comp
        if excess > 3.0 * sup.stderr + 1e-9:
            lower = previous if previous is not None else param
            return ScanResult(rows=rows, bracket=(lower, param), crossing_param=param)
        previous = param
    raise NoCrossing("functional never exceeded the comparator on the grid", rows=rows)
