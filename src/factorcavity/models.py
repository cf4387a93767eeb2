"""Concrete weight families: parity-check codes over a noisy channel, the
regular block model / Potts antiferromagnet, and the diluted mixed-interaction
spin model with discretised Gaussian couplings.

Spin index convention for two-spin models: index 0 is +1 (bit 0), index 1 is
-1 (bit 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import bethe
from .graphmodel import (DegreeSpec, FactorGraph, WeightFamily,
                         _parity_tensor, slot_layout)
from .rng import substream


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A named model: degree specs, weight family (whose alphabet is ``q``), parameters.

    ``params`` are exactly the keyword arguments that rebuild the model
    through ``MODELS[name]``.
    """

    name: str
    dspec: DegreeSpec
    kspec: DegreeSpec
    family: WeightFamily
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.family.supports(self.kspec.support):
            raise ValueError("family arities must cover the arity spec")

    @property
    def q(self) -> int:
        return self.family.q


def _snap(c: float) -> float:
    # keep 1 +- c exactly reconstructible from the stored tables
    return (1.0 + c) - 1.0


def ldgm(eta: float, dspec: DegreeSpec, kspec: DegreeSpec) -> ModelSpec:
    """Noisy parity-check family: two tables 1 +- (1-2 eta) prod(spins).

    The label J = +1 table (index 0) rewards even parity; under the planted
    construction with ground truth sigma the label matches the parity of
    sigma on the factor with probability 1 - eta, which is exactly the
    binary symmetric channel acting on the codeword bits.
    """
    if not 0 < eta < 1:
        raise ValueError("flip probability must be in (0, 1)")
    c = _snap(1.0 - 2.0 * eta)
    tables = {}
    masses = {}
    for k in kspec.support:
        par = _parity_tensor(k)
        tables[k] = (1.0 + c * par, 1.0 - c * par)
        masses[k] = np.array([0.5, 0.5])
    family = WeightFamily(q=2, tables=tables, masses=masses)
    return ModelSpec(name="ldgm", dspec=dspec, kspec=kspec, family=family,
                     params={"eta": eta, "dspec": dspec, "kspec": kspec})


def ldgm_channel(g: FactorGraph, x, eta: float, seed: int) -> np.ndarray:
    """Push a message through the code graph and the binary symmetric channel.

    ``x`` is the message in bit form (spin indices).  Returns the observed
    bits y*: per-factor parity of the adjacent bits, each flipped
    independently with probability eta.  With the index convention the
    factor label array of a planted graph is exactly this bit vector, i.e.
    table index 0 where y* is 0.
    """
    x = np.asarray(x, dtype=np.int64)
    factor_of, _ = slot_layout(g.arities)
    parity = np.bincount(factor_of, weights=x[g.edge_vars], minlength=g.m).astype(np.int64) % 2
    rng = substream(seed, 90)
    flips = rng.random(g.m) < eta
    return (parity + flips.astype(np.int64)) % 2


def sbm(q: int, beta: float, d: int, *, assortative: bool = False) -> ModelSpec:
    """Regular two-colour-penalty model: one binary table exp(-beta [equal]).

    The assortative variant (exp(+beta [equal])) is constructible for the
    convexity falsifier but is not a valid input to the variational
    pipeline, which will reject it.
    """
    dspec = DegreeSpec.constant(d)
    q, beta, d = int(q), float(beta), dspec.support[0]
    if q < 2 or d < 3 or beta < 0:
        raise ValueError("need q >= 2, d >= 3, beta >= 0")
    sign = 1.0 if assortative else -1.0
    table = np.exp(sign * beta * np.eye(q))
    family = WeightFamily(q=q, tables={2: (table,)}, masses={2: np.array([1.0])})
    return ModelSpec(name="sbm", dspec=dspec, kspec=DegreeSpec.constant(2), family=family,
                     params={"q": q, "beta": beta, "d": d, "assortative": assortative})


def _normal_cdf(x: float) -> float:
    # erfc keeps full relative accuracy in the lower tail, where 1 - cdf(-x) would not
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _coupling_levels(r: int):
    """Symmetric 2 r^2-level discretisation of a standard Gaussian.

    Interval width 1/r on [-r, r]; negative intervals map to their left
    endpoint, positive ones to their right endpoint, tails clamp to -r and
    +r.  Returns (levels, masses) with exact mirror symmetry.
    """
    if r < 1:
        raise ValueError("discretisation level must be at least 1")
    levels = []
    masses = []
    for i in range(2 * r * r):
        lo = -r + i / r
        hi = -r + (i + 1) / r
        level = lo if i < r * r else hi
        mass = _normal_cdf(hi) - _normal_cdf(lo)
        if i == 0:
            mass += _normal_cdf(-r)
        if i == 2 * r * r - 1:
            mass += _normal_cdf(-r)
        levels.append(level)
        masses.append(mass)
    levels = np.asarray(levels)
    masses = np.asarray(masses)
    masses = masses / masses.sum()
    return levels, masses


def kspin(beta: float, kspec: DegreeSpec, r: int = 6, *,
          d: Optional[float] = None) -> ModelSpec:
    """Diluted mixed-interaction spin model with discretised couplings.

    Boltzmann factors exp(beta J prod(spins)) are stored in the normalised
    form 1 + tanh(beta J) prod(spins), which has unit marginal-sum constant
    and the same Boltzmann measure; the raw instance log Z is the normalised
    one plus ln cosh(beta J) summed over the factors' couplings.  The
    variable degree is Poisson with mean ``d`` (truncated and renormalised),
    defaulting to E[k].
    """
    beta = float(beta)
    if beta <= 0:
        raise ValueError("inverse temperature must be positive")
    if 2 not in kspec.support:
        raise ValueError("the arity spec must put mass on pair interactions")
    levels, level_masses = _coupling_levels(r)
    tanh = np.array([_snap(math.tanh(beta * a)) for a in levels])
    tables = {}
    masses = {}
    for k in kspec.support:
        par = _parity_tensor(k)
        tables[k] = tuple(1.0 + t * par for t in tanh)
        masses[k] = level_masses.copy()
    family = WeightFamily(q=2, tables=tables, masses=masses)
    mean_degree = float(d) if d is not None else kspec.mean
    dspec = DegreeSpec.poisson(mean_degree)
    return ModelSpec(name="kspin", dspec=dspec, kspec=kspec, family=family,
                     params={"beta": beta, "kspec": kspec, "r": r, "d": mean_degree})


def lrc_threshold(beta: float, kspec: DegreeSpec, d_grid: Sequence[float], seed: int,
                  *, pop_size: int = bethe.DEFAULT_POPULATION,
                  sweeps: int = bethe.DEFAULT_SWEEPS, samples: int = bethe.DEFAULT_SAMPLES):
    """Bracket the mean degree where pair correlations stop vanishing.

    Scans the degree grid of the ``kspin`` model at its default coupling
    discretisation, compares the functional's best value against ln 2, and
    returns the scan result with a one-step bracket.
    """

    def family(d):
        return kspin(beta, kspec, d=d)

    return bethe.threshold_scan(family, d_grid, comparator=math.log(2.0), seed=seed,
                                pop_size=pop_size, sweeps=sweeps, samples=samples)


MODELS = {
    "ldgm": ldgm,
    "sbm": sbm,
    "kspin": kspin,
}
