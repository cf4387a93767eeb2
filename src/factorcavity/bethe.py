"""The variational side: Bethe functional, population dynamics, thresholds.

The free-entropy functional is evaluated by Monte Carlo on the planted tree:
every incoming message is drawn given the colour of the variable it enters,
from weight tables and spin tuples tilted by the planted law and population
points of the tuple's colours.  Its heuristic maximiser is searched by
population dynamics on the same planted draw, from a near-uniform and a
polarised initialisation.  The planted form equals the functional B(pi)
only on the Nishimori line, where population dynamics converges; the
supremum reported by :func:`sup_bethe` is a best-found lower bound under
that condition, never a certificate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from . import assumptions, exact
from .errors import (AssumptionViolation, NoCrossing, NumericalUnderflow,
                     ZeroMean)
from .graphmodel import DegreeSpec
from .rng import substream

# the desk budget: every caller that does not set its own reads these
DEFAULT_POPULATION = 2000
DEFAULT_SWEEPS = 100
DEFAULT_SAMPLES = 20_000
DEFAULT_POS_TRIALS = 200

_CHUNK = 1 << 13
# the largest population-dynamics batch, reached from 1021 points on
_BATCH = 256
_DRAWN_BATCHES = 64  # batches per planted-tree draw: a whole sweep to 16384 points


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SimplexPopulation:
    """An empirical measure on the spin simplex whose points carry colours.

    Point i has the colour i mod q, the planted spin of the variable it
    stands for.  Colours stay fixed while population dynamics rewrites the
    points, and are balanced, so that :meth:`draw` serves every colour once
    the population has at least q points.
    """

    points: np.ndarray
    generation: int = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < pts.shape[1]:
            raise ValueError("points must be a (size, q) array with size >= q")
        if not (pts.min() >= 0 and np.abs(pts.sum(axis=1) - 1.0).max() <= 1e-10):
            raise ValueError("population points must lie on the simplex")
        self.points = pts

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def q(self) -> int:
        return self.points.shape[1]

    @classmethod
    def uniform_atom(cls, q: int) -> "SimplexPopulation":
        return cls(np.full((q, q), 1.0 / q))

    def draw(self, rng: np.random.Generator, colours) -> np.ndarray:
        """The index of one uniformly chosen point of colour ``colours[...]``
        per entry, shaped like ``colours``; it reads no point value."""
        colours = np.asarray(colours, dtype=np.int64)
        counts = (self.size - colours + self.q - 1) // self.q
        rank = np.minimum((rng.random(colours.shape) * counts).astype(np.int64), counts - 1)
        return colours + self.q * rank


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
# the planted-tree draw
# ---------------------------------------------------------------------------


def _planted_draw(model, pop: SimplexPopulation, klaw: DegreeSpec,
                  roots: np.ndarray, rng: np.random.Generator):
    """Arities, tables, open slots and fed point indices of rooted factors.

    Row i is a factor with arity from ``klaw`` and a uniform open slot h.
    Its table and spin tuple are drawn jointly with weight P(psi) psi(tau)
    given tau_h = ``roots[i]``, each other slot j takes the index of a point
    of colour tau_j, no value read, and the caller contracts the table at slot h.
    """
    model.family.xi()  # the rooted draw is the planted law only under SYM
    ks = klaw.sample(rng, len(roots))
    hs, tables = np.zeros((2, len(roots)), dtype=np.int64)
    others = np.zeros((int(ks.max(initial=1)) - 1, len(roots)), dtype=np.int64)
    for k in np.flatnonzero(np.bincount(ks)).tolist():
        rows = np.flatnonzero(ks == k)
        form = model.family.compiled.arity[k]
        hs[rows] = rng.integers(0, k, size=len(rows))
        pick = _rooted_pick(form, 2 * (hs.take(rows) * model.q + roots.take(rows))
                            + rng.random(len(rows)))
        tables[rows] = form.rooted_table.take(pick)
        for j in range(k - 1):
            others[j, rows] = form.rooted_others[:, j].take(pick)
    # slots past a row's arity draw colour 0, never read; uniforms fill in C order
    return ks, tables, hs, pop.draw(rng, others.T)


def _rooted_pick(form, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(form.rooted_cdf, keys)``, pick for pick: each key starts
    at its cell's guide and steps once; keys still short take the binary search."""
    pick = form.rooted_guide[(keys * form.rooted_scale).astype(np.int64)]
    pick += form.rooted_cdf[pick] < keys
    short = np.flatnonzero(form.rooted_cdf[pick] < keys)
    pick[short] = np.searchsorted(form.rooted_cdf, keys[short])
    return pick


def _log_products(messages: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Per-variable sums of log message components, (len(ends) - 1, q).

    Variable i owns rows ``ends[i] - ends[0]`` up to ``ends[i + 1] - ends[0]``
    of ``messages``; a variable with no rows gets zeros.
    """
    if not (messages.min(initial=np.inf) > 0 and messages.max(initial=0.0) < np.inf):
        raise NumericalUnderflow("message component out of range")
    padded = np.zeros((len(messages) + 1, messages.shape[1]))
    np.log(messages, out=padded[:-1])
    sums = np.add.reduceat(padded, ends[:-1] - ends[0], axis=0)
    sums[ends[1:] == ends[:-1]] = 0.0
    return sums


def _row_max(values: np.ndarray) -> np.ndarray:
    """``values.max(axis=1)`` bit for bit, column by column: numpy's short-axis max is slow."""
    return functools.reduce(np.maximum, values.T)


def bethe_estimate(pi: SimplexPopulation, model, samples: int = DEFAULT_SAMPLES,
                   seed: int = 0) -> BetheEstimate:
    """Monte-Carlo value of the functional in its planted form,

        E[ln Z_v] - (E[d]/E[k]) E[(k-1) ln mix].

    A sample draws a root colour, a degree d from the degree law and d
    planted messages into the root, with Z_v = sum_s prod_i S_i(s); and a
    factor of arity k from the arity law, whose planted message at its open
    slot is closed with a point of the root colour to give mix.  The
    reported standard error is the sample standard deviation of the
    per-sample difference over sqrt(samples).

    The value is B(pi) only for a population on the Nishimori line, such as
    a converged population-dynamics fixed point; off that line the planted
    and Lambda forms are different functionals, and no warning is given.
    """
    if samples < 2:
        raise ValueError("the Bethe estimate needs at least 2 samples")
    khat = size_biased(model.kspec)
    coeff = model.dspec.mean / model.kspec.mean
    vals = np.empty(samples)
    for chunk_id, done in enumerate(range(0, samples, _CHUNK)):
        b = min(_CHUNK, samples - done)
        rng = substream(seed, 70, chunk_id)
        roots = rng.integers(0, model.q, size=b)
        ds = model.dspec.sample(rng, b)
        ks, tables, hs, idx = _planted_draw(model, pi, khat, np.repeat(roots, ds), rng)
        ends = np.concatenate([[0], np.cumsum(ds)])
        logs = _log_products(model.family.contract(ks, tables, pi.points.take(idx, axis=0), hs),
                             ends)
        top = _row_max(logs)
        log_z = top + np.log(np.exp(logs - top[:, None]).sum(axis=1))
        ks, tables, hs, idx = _planted_draw(model, pi, model.kspec, roots, rng)
        messages = model.family.contract(ks, tables, pi.points.take(idx, axis=0), hs)
        mixes = (messages * pi.points.take(pi.draw(rng, roots), axis=0)).sum(axis=1)
        if not mixes.min() > 0:
            raise NumericalUnderflow("factor mix not positive")
        vals[done:done + b] = log_z - coeff * (ks - 1) * np.log(mixes)
    value = float(vals.mean())
    stderr = float(vals.std(ddof=1)) / math.sqrt(samples)
    return BetheEstimate(value=value, stderr=stderr, samples=samples)


# ---------------------------------------------------------------------------
# population dynamics
# ---------------------------------------------------------------------------


_INITS = ("uniform-perturbed", "planted-polarized")
# share of a planted-polarized start's mass on its own colour's corner
_POLARISATION = 0.98


def _initial_population(colours: np.ndarray, q: int, init: str,
                        rng: np.random.Generator) -> np.ndarray:
    if init == "uniform-perturbed":
        return rng.dirichlet([50.0] * q, size=len(colours))
    if init == "planted-polarized":
        pts = np.full((len(colours), q), (1.0 - _POLARISATION) / q)
        pts[np.arange(len(colours)), colours] += _POLARISATION
        return pts
    raise ValueError(f"init must be one of {_INITS}")


def population_dynamics(model, pop_size: int = DEFAULT_POPULATION,
                        iters: int = DEFAULT_SWEEPS,
                        init: str = "uniform-perturbed", seed: int = 0) -> SimplexPopulation:
    """Iterate the planted distributional update on a colour-labelled population.

    Point i has the fixed colour i mod q.  A sweep replaces every point once,
    in random order and in batches of at most a quarter of the population,
    each reading the population as the batch before left it: a new point of
    colour s is the normalised product of excess-degree many planted messages
    rooted at s.  No random choice reads a point's value, so the planted tree
    is drawn ahead, up to 64 batches at once.  ``uniform-perturbed`` starts
    every point near the uniform vector; ``planted-polarized`` starts each
    point near the corner of its own colour.  A run stops early after a sweep
    that leaves every point at exactly 1/q when the family makes that atom an
    exact fixed point (``WeightFamily.uniform_is_fixed``): each later sweep
    would write the same bits again.  ``generation`` counts the sweeps run.
    """
    if pop_size < 100:
        raise ValueError("population size must be at least 100")
    if iters < 0:
        raise ValueError("the number of sweeps cannot be negative")
    q = model.q
    rng = substream(seed, 80)
    colours = np.arange(pop_size) % q
    pop = SimplexPopulation(_initial_population(colours, q, init, rng))
    excess = _excess_degree_law(model.dspec)
    khat = size_biased(model.kspec)
    # at least four batches per sweep: one synchronous update of the whole
    # population leaves the Nishimori line (docs/notes.md)
    batch = min(_BATCH, -(-pop_size // 4))
    for sweep in range(iters):
        order = rng.permutation(pop_size)
        for first in range(0, pop_size, batch * _DRAWN_BATCHES):
            targets = order[first:first + batch * _DRAWN_BATCHES]
            dstar = excess.sample(rng, len(targets))
            roots = np.repeat(colours[targets], dstar)
            ks, tables, hs, idx = _planted_draw(model, pop, khat, roots, rng)
            ends = np.concatenate([[0], np.cumsum(dstar)])
            for start in range(0, len(targets), batch):
                at = slice(ends[start], ends[min(start + batch, len(targets))])
                messages = model.family.contract(ks[at], tables[at],
                                                 pop.points.take(idx[at], axis=0), hs[at])
                acc = _log_products(messages, ends[start:start + batch + 1])
                new_pts = np.exp(acc - _row_max(acc)[:, None])
                norms = new_pts.sum(axis=1, keepdims=True)
                if not (norms.min() > 0 and norms.max() < np.inf):
                    raise NumericalUnderflow("point normaliser underflowed")
                pop.points[targets[start:start + batch]] = new_pts / norms
        pop.generation += 1
        if model.family.uniform_is_fixed and np.all(pop.points == 1.0 / q):
            break
    return pop


def _excess_degree_law(dspec: DegreeSpec) -> DegreeSpec:
    biased = size_biased(dspec)
    return DegreeSpec(tuple(v - 1 for v in biased.support), biased.mass)


# ---------------------------------------------------------------------------
# supremum search, mutual information, threshold scans
# ---------------------------------------------------------------------------


def sup_bethe(model, seed: int = 0, *,
              pop_size: int = DEFAULT_POPULATION, sweeps: int = DEFAULT_SWEEPS,
              samples: int = DEFAULT_SAMPLES) -> SupBethe:
    """Best functional value over the uniform atom and one dynamics run per start.

    A lower bound on the true supremum with heuristic status, and only when
    every dynamics run has converged to the Nishimori line (too few sweeps
    leave a population whose planted-form value is not B of any
    population); returns which candidate won and every candidate's value.
    A run that ends with every point at exactly 1/q takes the atom's closed
    form with stderr 0 in place of a Monte-Carlo estimate (docs/notes.md).
    """
    if samples < 2 or sweeps < 0:
        raise ValueError(f"need at least 2 samples and no negative sweeps, got {samples}, {sweeps}")
    candidates = {"uniform-atom": (bethe_uniform_atom(model), 0.0)}
    for flag, init in enumerate(_INITS):
        child = int(substream(seed, 81, flag).integers(2 ** 62))
        pop = population_dynamics(model, pop_size, sweeps, init, child)
        if np.all(pop.points == 1.0 / model.q):
            candidates[f"pd-{init}"] = candidates["uniform-atom"]
            continue
        est = bethe_estimate(pop, model, samples, child + 1)
        candidates[f"pd-{init}"] = (est.value, est.stderr)
    best = max(v for v, _ in candidates.values())
    # candidates within float noise of the best tie; the earliest wins, so
    # the closed-form uniform atom beats an equal-valued dynamics run
    tag = next(t for t, (v, _) in candidates.items()
               if v >= best - 1e-12 * max(1.0, abs(best)))
    value, stderr = candidates[tag]
    return SupBethe(value=value, stderr=stderr, tag=tag, candidates=candidates)


def mutual_information(model, seed: int = 0, *,
                       pos_trials: int = DEFAULT_POS_TRIALS,
                       pop_size: int = DEFAULT_POPULATION,
                       sweeps: int = DEFAULT_SWEEPS,
                       samples: int = DEFAULT_SAMPLES) -> MIResult:
    """ln q + (E[d]/(xi E[k])) E[q^{-k} sum Lambda(psi)] - sup of the functional.

    Draws the reports of ``assumptions.checks`` in order and raises
    ``AssumptionViolation`` on the first that fails, so a later check does
    not run.
    """
    for report in assumptions.checks(model.dspec, model.kspec, model.family,
                                     pos_trials=pos_trials, seed=seed):
        if not report.passed:
            raise AssumptionViolation(report)

    info, offset = exact.information_offset(model)
    sup = sup_bethe(model, seed, pop_size=pop_size, sweeps=sweeps, samples=samples)
    return MIResult(value=offset - sup.value, stderr=sup.stderr,
                    information_term=info, sup=sup)


@dataclass
class ScanRow:
    """One grid point: its annealed value, comparator and supremum search."""

    param: float
    phi_a: float
    comparator: float
    sup: SupBethe


@dataclass
class ScanResult:
    rows: list
    bracket: tuple


def threshold_scan(model_family: Callable[[float], object], param_grid: Sequence[float],
                   comparator: Union[str, float] = "annealed",
                   *, seed: int = 0,
                   pop_size: int = DEFAULT_POPULATION, sweeps: int = DEFAULT_SWEEPS,
                   samples: int = DEFAULT_SAMPLES) -> ScanResult:
    """Walk a sorted grid until the functional exceeds its comparator by 3 SE.

    The comparator is the annealed free entropy (``"annealed"``) or a fixed
    number.  Returns the first crossing with a one-grid-step bracket; raises
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
        comp = phi_a if comparator == "annealed" else float(comparator)
        sup = sup_bethe(model, seed + 104729 * idx,
                        pop_size=pop_size, sweeps=sweeps, samples=samples)
        rows.append(ScanRow(param=param, phi_a=phi_a, comparator=comp, sup=sup))
        # absolute epsilon so a zero-stderr candidate cannot cross on rounding
        excess = sup.value - comp
        if excess > 3.0 * sup.stderr + 1e-9:
            lower = previous if previous is not None else param
            return ScanResult(rows=rows, bracket=(lower, param))
        previous = param
    raise NoCrossing("functional never exceeded the comparator on the grid", rows=rows)
