"""Degree-sequence sampling and random factor-graph construction.

The module builds three layers of randomness:

* degree sequences with matched (or deliberately slack) totals on the
  variable and factor sides,
* uniform clone pairings between the two sides (the configuration model,
  multi-edges allowed),
* weight-function choices per factor, either independent of the topology
  (null model) or reweighted around a ground-truth assignment
  (teacher-student model), via the three-stage histogram-conditioned
  construction in :func:`sample_planted`.

Spins are integers ``0 .. q-1`` everywhere.  For two-spin models the
convention is index ``0`` is "+1" and index ``1`` is "-1".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import AttemptsExhausted, SymViolation, ZeroMean
from .rng import substream

MAX_DEGREE = 64

_SEQ_ATTEMPTS = 100_000


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeSpec:
    """A bounded integer degree (or arity) distribution.

    ``support`` and ``mass`` are parallel tuples; masses are nonnegative and
    sum to one within 1e-12.  ``truncated_mass`` records probability removed
    by the truncate-and-renormalise constructors.
    """

    support: tuple
    mass: tuple
    truncated_mass: float = 0.0

    def __post_init__(self):
        support = tuple(int(v) for v in self.support)
        mass = tuple(float(p) for p in self.mass)
        if len(support) != len(mass) or not support:
            raise ValueError("support and mass must be parallel, nonempty")
        if any(v < 0 for v in support):
            raise ValueError("degrees must be nonnegative")
        if max(support) > MAX_DEGREE:
            raise ValueError(f"support exceeds the degree cap {MAX_DEGREE}")
        if len(set(support)) != len(support):
            raise ValueError("support values must be distinct")
        if any(p < 0 for p in mass):
            raise ValueError("masses must be nonnegative")
        if abs(sum(mass) - 1.0) > 1e-12:
            raise ValueError("masses must sum to 1 within 1e-12")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "mass", mass)

    @classmethod
    def constant(cls, value: int) -> "DegreeSpec":
        return cls((value,), (1.0,))

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, float]) -> "DegreeSpec":
        items = sorted(mapping.items())
        return cls(tuple(k for k, _ in items), tuple(v for _, v in items))

    @classmethod
    def poisson(cls, mean: float, *, max_support: int = MAX_DEGREE,
                tail_mass: float = 1e-12) -> "DegreeSpec":
        """Poisson(mean) truncated to a bounded support and renormalised."""
        from scipy.stats import poisson as _poisson

        if mean <= 0:
            raise ValueError("poisson mean must be positive")
        cut = 0
        while cut < max_support and _poisson.sf(cut, mean) > tail_mass:
            cut += 1
        support = np.arange(cut + 1)
        pmf = _poisson.pmf(support, mean)
        dropped = 1.0 - pmf.sum()
        pmf = pmf / pmf.sum()
        return cls(tuple(int(v) for v in support), tuple(pmf), truncated_mass=max(dropped, 0.0))

    @cached_property
    def mean(self) -> float:
        return float(np.dot(self.support, self.mass))

    @cached_property
    def second_moment(self) -> float:
        return float(np.dot(np.square(self.support), self.mass))

    @property
    def max_value(self) -> int:
        return max(self.support)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size == 0:
            return np.zeros(0, dtype=np.int64)
        return rng.choice(np.asarray(self.support), size=size, p=np.asarray(self.mass))

    def pmf(self, value: int) -> float:
        try:
            return self.mass[self.support.index(value)]
        except ValueError:
            return 0.0


@dataclass(frozen=True)
class DegreeSequence:
    """Realised per-variable degrees and per-factor arities.

    The balanced variant has matching totals; the pruned variant leaves
    ``cavity_count`` variable clones without a factor-side partner.
    """

    var_degrees: tuple
    factor_arities: tuple
    rejections: int = 0

    def __post_init__(self):
        object.__setattr__(self, "var_degrees", tuple(int(v) for v in self.var_degrees))
        object.__setattr__(self, "factor_arities", tuple(int(v) for v in self.factor_arities))
        if self.total_var_degree < self.total_factor_degree:
            raise ValueError("total variable degree must cover the factor side")

    @property
    def n(self) -> int:
        return len(self.var_degrees)

    @property
    def m(self) -> int:
        return len(self.factor_arities)

    @property
    def total_var_degree(self) -> int:
        return sum(self.var_degrees)

    @property
    def total_factor_degree(self) -> int:
        return sum(self.factor_arities)

    @property
    def cavity_count(self) -> int:
        return self.total_var_degree - self.total_factor_degree


class CompiledArity(NamedTuple):
    """One arity of a weight family in the form the contraction kernel reads."""

    flat: np.ndarray                 # (tables, q**k), row-major spin order
    masses: np.ndarray               # choice probability per table
    parity: Optional[np.ndarray]     # c per table with table == 1 + c * parity


class CompiledFamily(NamedTuple):
    arity: dict                      # k -> CompiledArity
    xi: float                        # mean of all marginal sums
    xi_spread: float                 # max minus min of all marginal sums


@dataclass(frozen=True, eq=False)
class WeightFamily:
    """A finite set of positive weight tables per arity, with choice masses.

    ``tables[k]`` is a tuple of arrays of shape ``(q,)*k`` in row-major
    (lexicographic) spin order; ``masses[k]`` are the corresponding choice
    probabilities.  ``labels[k]`` carries optional human-readable names.
    """

    q: int
    tables: Mapping[int, tuple]
    masses: Mapping[int, np.ndarray]
    labels: Optional[Mapping[int, tuple]] = None

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("alphabet size must be at least 1")
        tables = {}
        masses = {}
        for k, tabs in self.tables.items():
            k = int(k)
            canon = []
            for t in tabs:
                arr = np.asarray(t, dtype=float).reshape((self.q,) * k)
                if np.any(arr <= 0):
                    raise ValueError("weight tables must be strictly positive")
                arr = arr.copy()
                arr.flags.writeable = False
                canon.append(arr)
            tables[k] = tuple(canon)
            p = np.asarray(self.masses[k], dtype=float)
            if len(p) != len(canon):
                raise ValueError("one mass per table required")
            if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
                raise ValueError("table masses must be a probability vector")
            p = p.copy()
            p.flags.writeable = False
            masses[k] = p
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "masses", masses)

    @classmethod
    def constant(cls, q: int, arities: Sequence[int], value: float = 1.0) -> "WeightFamily":
        tables = {int(k): (np.full((q,) * int(k), float(value)),) for k in arities}
        masses = {int(k): np.array([1.0]) for k in arities}
        return cls(q=q, tables=tables, masses=masses)

    @property
    def arities(self) -> tuple:
        return tuple(sorted(self.tables))

    def supports(self, arities: Sequence[int]) -> bool:
        return all(k in self.tables for k in arities)

    def table(self, k: int, index: int) -> np.ndarray:
        return self.tables[k][index]

    def n_tables(self, k: int) -> int:
        return len(self.tables[k])

    @cached_property
    def _mean_tables(self) -> dict:
        out = {}
        for k, tabs in self.tables.items():
            out[k] = sum(p * t for p, t in zip(self.masses[k], tabs))
        return out

    def mean_table(self, k: int) -> np.ndarray:
        """Choice-averaged table for arity k."""
        return self._mean_tables[k]

    def table_total(self, k: int) -> float:
        """Sum over all spin tuples of the choice-averaged table."""
        return float(self.mean_table(k).sum())

    def min_entry(self) -> float:
        return min(float(t.min()) for tabs in self.tables.values() for t in tabs)

    def marginal_sums(self) -> dict:
        """All single-coordinate marginal sums q^{1-k} sum_{s: s_j=w} psi(s).

        Keys are (k, table index); values are (k, q) arrays.  A family with
        a well-defined symmetry constant has every entry equal.
        """
        out = {}
        for k, tabs in self.tables.items():
            for i, t in enumerate(tabs):
                rows = np.empty((k, self.q))
                for j in range(k):
                    axes = tuple(a for a in range(k) if a != j)
                    rows[j] = t.sum(axis=axes) * self.q ** (1 - k)
                out[(k, i)] = rows
        return out

    def xi(self, tol: float = 1e-9) -> float:
        """The common marginal-sum constant; raises if it is not constant."""
        spread = self.compiled.xi_spread
        if spread > tol:
            raise SymViolation(f"marginal sums spread {spread:.3g} exceeds {tol:.3g}")
        return self.compiled.xi

    @cached_property
    def compiled(self) -> CompiledFamily:
        """Flattened tables, masses, parity coefficients and xi, built once."""
        arity = {}
        for k, tabs in self.tables.items():
            flat = np.stack([t.ravel() for t in tabs])
            arity[k] = CompiledArity(flat, self.masses[k],
                                     _parity_coefficients(self.q, k, flat))
        values = np.concatenate([v.ravel() for v in self.marginal_sums().values()])
        return CompiledFamily(arity, float(values.mean()),
                              float(values.max() - values.min()))

    def contract(self, ks, tables, points: np.ndarray,
                 open_slots=None) -> np.ndarray:
        """Contract weight tables with population points, one row per table use.

        Row i takes table ``tables[i]`` of arity ``ks[i]`` and its slot
        points from ``points[i]``, a (rows, width, q) array whose slots past
        the row's own count are never read.  With ``open_slots`` the result
        is the (rows, q) message at slot h = ``open_slots[i]``,

            S(s) = sum_tau 1{tau_h = s} psi(tau) prod_{j != h} mu_j(tau_j),

        fed by ``points[i, :k-1]`` for the other slots in order.  Without it
        the result is the (rows,) closed mix sum_tau psi(tau) prod_j
        mu_j(tau_j) over ``points[i, :k]``: the message at the last slot
        contracted with one more point, sum_s S(s) mu_k(s).  Parity arities
        use S(+-) = 1 +- c prod_j (mu_j(0) - mu_j(1)), which needs points on
        the simplex; other arities are contracted in groups of rows sharing
        a table and an open slot.
        """
        ks = np.asarray(ks, dtype=np.int64)
        tables = np.asarray(tables, dtype=np.int64)
        closed = open_slots is None
        q = self.q
        out = np.empty((len(ks), 1 if closed else q))
        for k in np.flatnonzero(np.bincount(ks)).tolist():
            form = self.compiled.arity[k]
            rows = np.flatnonzero(ks == k)
            width = k if closed else k - 1
            if form.parity is not None:
                bias = points[rows, :width, 0] - points[rows, :width, 1]
                cp = form.parity[tables[rows]] * np.prod(bias, axis=1)
                if closed:
                    out[rows, 0] = 1.0 + cp
                else:
                    out[rows] = np.stack([1.0 + cp, 1.0 - cp], axis=1)
                continue
            keys = tables[rows]
            if not closed:
                keys = keys * k + np.asarray(open_slots)[rows]
            for key in np.flatnonzero(np.bincount(keys)).tolist():
                sel = rows[keys == key]
                if closed:
                    table = form.flat[key][None]
                else:
                    t, h = divmod(key, k)
                    table = np.moveaxis(form.flat[t].reshape((q,) * k), h, 0).reshape(q, -1)
                grid = np.ones((len(sel), 1))
                for j in range(width):
                    grid = (grid[:, :, None] * points[sel, j][:, None, :]).reshape(len(sel), -1)
                out[sel] = grid @ table.T
        return out[:, 0] if closed else out

    def permuted_alphabet(self, perm: Sequence[int]) -> "WeightFamily":
        """The family with spins relabeled by perm (used in symmetry tests)."""
        perm = np.asarray(perm)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(self.q)
        tables = {}
        for k, tabs in self.tables.items():
            moved = []
            for t in tabs:
                arr = t
                for axis in range(k):
                    arr = np.take(arr, inv, axis=axis)
                moved.append(arr)
            tables[k] = tuple(moved)
        return WeightFamily(q=self.q, tables=tables,
                            masses={k: v.copy() for k, v in self.masses.items()},
                            labels=self.labels)


def _parity_tensor(k: int) -> np.ndarray:
    """prod of +-1 spins over {0,1}^k with 0 -> +1."""
    t = np.ones((2,) * k)
    for idx in np.ndindex(*t.shape):
        t[idx] = (-1.0) ** (sum(idx) % 2)
    return t


def _parity_coefficients(q: int, k: int, flat: np.ndarray) -> Optional[np.ndarray]:
    """Per-table c with table == 1 + c * parity exactly, or None.

    Only two-spin families qualify, with the index-0-is-plus convention.
    """
    if q != 2:
        return None
    coefs = flat[:, 0] - 1.0
    if not np.array_equal(flat, 1.0 + coefs[:, None] * _parity_tensor(k).ravel()):
        return None
    return coefs


@dataclass(frozen=True, eq=False)
class FactorGraph:
    """A factor graph with clone-level pairing and optional pinned spins.

    ``factor_vars[j]`` is the ordered tuple of variable ids on factor j's
    slots; ``factor_tables[j]`` indexes the family's tables at that arity.
    ``slot_clones`` records which clone of each variable sits on each slot,
    so the unmatched clones (cavities) are recoverable.  ``pins`` are hard
    unary indicator factors (variable, forced spin).
    """

    family: WeightFamily
    var_degrees: tuple
    factor_vars: tuple
    factor_tables: tuple
    slot_clones: Optional[tuple] = None
    pins: tuple = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "var_degrees", tuple(int(v) for v in self.var_degrees))
        object.__setattr__(self, "factor_vars",
                           tuple(tuple(int(v) for v in fv) for fv in self.factor_vars))
        object.__setattr__(self, "factor_tables", tuple(int(t) for t in self.factor_tables))
        object.__setattr__(self, "pins", tuple((int(v), int(s)) for v, s in self.pins))
        if len(self.factor_vars) != len(self.factor_tables):
            raise ValueError("factor tuples and table choices must be parallel")
        for fv in self.factor_vars:
            if any(v < 0 or v >= self.n for v in fv):
                raise ValueError("factor neighbour out of range")
        for v, s in self.pins:
            if not (0 <= v < self.n and 0 <= s < self.q):
                raise ValueError("pin out of range")

    @property
    def n(self) -> int:
        return len(self.var_degrees)

    @property
    def m(self) -> int:
        return len(self.factor_vars)

    @property
    def q(self) -> int:
        return self.family.q

    def arity(self, j: int) -> int:
        return len(self.factor_vars[j])

    def factor_table(self, j: int) -> np.ndarray:
        return self.family.table(self.arity(j), self.factor_tables[j])

    def realized_degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        for fv in self.factor_vars:
            for v in fv:
                deg[v] += 1
        return deg

    def cavity_counts(self) -> np.ndarray:
        """Unmatched clones per variable."""
        return np.asarray(self.var_degrees) - self.realized_degrees()

    def with_pins(self, extra: Sequence) -> "FactorGraph":
        return replace(self, pins=self.pins + tuple(extra))

    def is_simple(self) -> bool:
        return all(len(set(fv)) == len(fv) for fv in self.factor_vars)

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """Line-oriented form: header 'n m q', factor and pin lines.

        Factor lines read 'arity table-id v_1 ... v_k'; pin lines read
        'variable spin'.  Target degrees are not part of the format, so a
        pruned graph round-trips with its realised degrees only.
        """
        lines = [f"{self.n} {self.m} {self.q}"]
        for fv, ti in zip(self.factor_vars, self.factor_tables):
            lines.append(" ".join(str(x) for x in (len(fv), ti, *fv)))
        for v, s in self.pins:
            lines.append(f"{v} {s}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, family: WeightFamily) -> "FactorGraph":
        rows = [ln.split() for ln in text.strip().splitlines() if ln.strip()]
        n, m, q = (int(x) for x in rows[0])
        if q != family.q:
            raise ValueError("family alphabet does not match the header")
        factor_vars = []
        factor_tables = []
        pins = []
        for row in rows[1:]:
            vals = [int(x) for x in row]
            if len(vals) == 2:
                pins.append((vals[0], vals[1]))
            else:
                k, ti = vals[0], vals[1]
                if len(vals) != 2 + k:
                    raise ValueError("factor line length does not match its arity")
                factor_vars.append(tuple(vals[2:]))
                factor_tables.append(ti)
        if len(factor_vars) != m:
            raise ValueError("factor count does not match the header")
        deg = np.zeros(n, dtype=np.int64)
        for fv in factor_vars:
            for v in fv:
                deg[v] += 1
        return cls(family=family, var_degrees=tuple(deg), factor_vars=tuple(factor_vars),
                   factor_tables=tuple(factor_tables), pins=tuple(pins))


# Assignments are plain integer arrays: spins[v] in [0, q) per variable.
Assignment = np.ndarray


def uniform_assignment(n: int, q: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, q, size=n)


def validate_assignment(sigma, n: int, q: int) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=np.int64)
    if sigma.shape != (n,):
        raise ValueError("assignment length must equal the variable count")
    if sigma.size and (sigma.min() < 0 or sigma.max() >= q):
        raise ValueError("assignment values out of range")
    return sigma


# ---------------------------------------------------------------------------
# degree sequences
# ---------------------------------------------------------------------------


def sample_degree_sequence(n: int, dspec: DegreeSpec, kspec: DegreeSpec, seed: int,
                           *, max_attempts: int = _SEQ_ATTEMPTS) -> DegreeSequence:
    """Joint (degrees, factor count, arities) draw conditioned on equal totals.

    Degrees are iid from ``dspec``, the factor count is Poisson with mean
    n E[d]/E[k], arities iid from ``kspec``; the whole tuple is redrawn until
    the clone totals match.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if dspec.mean <= 0 or kspec.mean <= 0:
        raise ZeroMean("degree specs must have positive mean")
    rng = substream(seed, 0)
    scale = n * dspec.mean / kspec.mean
    for attempt in range(max_attempts):
        d = dspec.sample(rng, n)
        m = int(rng.poisson(scale))
        k = kspec.sample(rng, m)
        if int(d.sum()) == int(k.sum()):
            return DegreeSequence(tuple(d), tuple(k), rejections=attempt)
    raise AttemptsExhausted("balanced degree sequence", max_attempts)


def thinned_factor_count(n: int, eps: float, dspec: DegreeSpec, kspec: DegreeSpec,
                         rng: np.random.Generator) -> int:
    """Unconditioned Poisson factor count with mean (1-eps) E[d] n / E[k]."""
    return int(rng.poisson((1.0 - eps) * n * dspec.mean / kspec.mean))


def sample_pruned_sequence(n: int, eps: float, dspec: DegreeSpec, kspec: DegreeSpec,
                           seed: int, *, max_attempts: int = _SEQ_ATTEMPTS) -> DegreeSequence:
    """Sequence with a thinned factor count; leaves cavities on the variables.

    The factor count is Poisson with mean (1-eps) E[d] n / E[k]; draws are
    rejected until the variable side covers the factor side.
    """
    if not 0 <= eps < 1:
        raise ValueError("eps must be in [0, 1)")
    if dspec.mean <= 0 or kspec.mean <= 0:
        raise ZeroMean("degree specs must have positive mean")
    rng = substream(seed, 0)
    for attempt in range(max_attempts):
        d = dspec.sample(rng, n)
        m = thinned_factor_count(n, eps, dspec, kspec, rng)
        k = kspec.sample(rng, m)
        if int(d.sum()) >= int(k.sum()):
            return DegreeSequence(tuple(d), tuple(k), rejections=attempt)
    raise AttemptsExhausted("pruned degree sequence", max_attempts)


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


def _clone_owners(var_degrees: Sequence[int]) -> np.ndarray:
    """Variable id owning each clone, in (variable, clone) order."""
    return np.repeat(np.arange(len(var_degrees)), np.asarray(var_degrees, dtype=np.int64))


def _pair_topology(seq: DegreeSequence, rng: np.random.Generator):
    """Uniform maximal matching of variable clones onto factor slots."""
    owners = _clone_owners(seq.var_degrees)
    order = rng.permutation(seq.total_var_degree)
    total_slots = seq.total_factor_degree
    chosen = order[:total_slots]
    factor_vars = []
    slot_clones = []
    pos = 0
    clone_index = _clone_index_within_owner(seq.var_degrees)
    for k in seq.factor_arities:
        sel = chosen[pos:pos + k]
        factor_vars.append(tuple(int(owners[c]) for c in sel))
        slot_clones.append(tuple(int(clone_index[c]) for c in sel))
        pos += k
    return tuple(factor_vars), tuple(slot_clones)


def _clone_index_within_owner(var_degrees: Sequence[int]) -> np.ndarray:
    out = np.concatenate([np.arange(d, dtype=np.int64) for d in var_degrees]) \
        if len(var_degrees) else np.zeros(0, dtype=np.int64)
    return out


def pair_uniform(seq: DegreeSequence, seed: int, *, q: int = 2,
                 simple_only: bool = False, max_attempts: int = 10_000) -> FactorGraph:
    """Configuration-model pairing; weights are unit tables.

    With ``simple_only`` the draw is rejected until no factor touches the
    same variable twice.
    """
    family = WeightFamily.constant(q, sorted(set(seq.factor_arities)) or [1])
    rng = substream(seed, 1)
    for _ in range(max_attempts if simple_only else 1):
        factor_vars, slot_clones = _pair_topology(seq, rng)
        g = FactorGraph(family=family, var_degrees=seq.var_degrees,
                        factor_vars=factor_vars,
                        factor_tables=(0,) * seq.m, slot_clones=slot_clones)
        if not simple_only or g.is_simple():
            return g
    raise AttemptsExhausted("simple pairing", max_attempts)


def sample_null(n: int, dspec: DegreeSpec, kspec: DegreeSpec, family: WeightFamily,
                seed: int, *, max_attempts: int = _SEQ_ATTEMPTS) -> FactorGraph:
    """Null model: pairing topology plus weight choices independent of it."""
    if not family.supports(kspec.support):
        raise ValueError("family does not cover every arity in the degree spec")
    seq = sample_degree_sequence(n, dspec, kspec, seed, max_attempts=max_attempts)
    factor_vars, slot_clones = _pair_topology(seq, substream(seed, 1))
    wrng = substream(seed, 2)
    tables = tuple(
        int(wrng.choice(family.n_tables(k), p=family.masses[k]))
        for k in seq.factor_arities
    )
    return FactorGraph(family=family, var_degrees=seq.var_degrees,
                       factor_vars=factor_vars, factor_tables=tables,
                       slot_clones=slot_clones,
                       meta={"construction": "null", "sequence_rejections": seq.rejections})


# ---------------------------------------------------------------------------
# planted (teacher-student) sampler
# ---------------------------------------------------------------------------


def _flat_tuple_law(family: WeightFamily, k: int) -> np.ndarray:
    """Normalised law over spin tuples proportional to the mean table."""
    t = family.mean_table(k).ravel()
    return t / t.sum()


def _tuple_color_counts(q: int, k: int) -> np.ndarray:
    """(q^k, q) spin counts for every flat tuple index."""
    grids = np.stack(np.meshgrid(*[np.arange(q)] * k, indexing="ij"), axis=-1).reshape(-1, k)
    counts = np.zeros((q ** k, q), dtype=np.int64)
    for w in range(q):
        counts[:, w] = (grids == w).sum(axis=1)
    return counts


def _conditioned_colouring(seq: DegreeSequence, sigma: np.ndarray,
                           family: WeightFamily, rng: np.random.Generator,
                           *, max_attempts: Optional[int] = None,
                           mcmc_fallback: bool = True, block: int = 8):
    """Histogram-conditioned factor-side clone colouring.

    Per-factor tuples follow the mean-table law, cavity clones are uniform;
    the joint draw is conditioned on its colour histogram matching the
    variable-clone histogram of sigma.  Rejection with a capped number of
    attempts, then an optional colour-swap Metropolis fallback.
    """
    q = family.q
    d = np.asarray(seq.var_degrees)
    target = np.bincount(sigma, weights=d, minlength=q).astype(np.int64)
    delta = seq.cavity_count
    total = seq.total_var_degree
    if max_attempts is None:
        max_attempts = int(10_000 * math.sqrt(max(total, 1)))

    arities = sorted(set(seq.factor_arities))
    laws = {k: _flat_tuple_law(family, k) for k in arities}
    counts = {k: _tuple_color_counts(q, k) for k in arities}
    by_arity = {k: np.flatnonzero(np.asarray(seq.factor_arities) == k) for k in arities}

    attempts = 0
    while attempts < max_attempts:
        b = min(block, max_attempts - attempts)
        block = min(block * 2, 1024)
        attempts += b
        hist = np.zeros((b, q), dtype=np.int64)
        draws = {}
        for k in arities:
            mk = len(by_arity[k])
            if mk == 0:
                continue
            idx = rng.choice(q ** k, size=(b, mk), p=laws[k])
            draws[k] = idx
            hist += counts[k][idx].sum(axis=1)
        if delta:
            pebbles = rng.integers(0, q, size=(b, delta))
            for w in range(q):
                hist[:, w] += (pebbles == w).sum(axis=1)
        else:
            pebbles = np.zeros((b, 0), dtype=np.int64)
        ok = np.flatnonzero((hist == target).all(axis=1))
        if len(ok):
            row = int(ok[0])
            tuples = np.empty(seq.m, dtype=np.int64)
            for k in arities:
                if len(by_arity[k]):
                    tuples[by_arity[k]] = draws[k][row]
            return tuples, pebbles[row].copy(), attempts, False

    if not mcmc_fallback:
        raise AttemptsExhausted("histogram-conditioned colouring", max_attempts)
    tuples, pebbles = _conditioned_colouring_mcmc(seq, target, family, rng)
    return tuples, pebbles, attempts, True


def _conditioned_colouring_mcmc(seq: DegreeSequence, target: np.ndarray,
                                family: WeightFamily, rng: np.random.Generator):
    """Colour-swap Metropolis chain on the fixed-histogram slice.

    State: colours on all real slots plus cavity clones.  Moves swap the
    colours of two positions; the acceptance ratio multiplies the mean-table
    ratios of the touched factors (cavity positions contribute 1).  Burn-in
    is 50x the total degree.
    """
    q = family.q
    total = seq.total_var_degree
    arities = np.asarray(seq.factor_arities)
    owner = np.repeat(np.arange(seq.m), arities)          # factor per real slot
    starts = np.concatenate([[0], np.cumsum(arities)])
    n_slots = int(arities.sum())

    colors = np.repeat(np.arange(q), target)
    rng.shuffle(colors)
    state = colors.copy()                                  # slots then pebbles

    mean_flat = {k: family.mean_table(k).ravel() for k in sorted(set(seq.factor_arities))}
    pows = {k: q ** np.arange(k - 1, -1, -1) for k in sorted(set(seq.factor_arities))}

    def factor_weight(j):
        k = arities[j]
        tup = state[starts[j]:starts[j] + k]
        return mean_flat[k][int(np.dot(tup, pows[k]))]

    steps = 50 * max(total, 1)
    for _ in range(steps):
        i, j = rng.integers(0, total, size=2)
        if state[i] == state[j]:
            continue
        fi = owner[i] if i < n_slots else -1
        fj = owner[j] if j < n_slots else -1
        before = 1.0
        if fi >= 0:
            before *= factor_weight(fi)
        if fj >= 0 and fj != fi:
            before *= factor_weight(fj)
        state[i], state[j] = state[j], state[i]
        after = 1.0
        if fi >= 0:
            after *= factor_weight(fi)
        if fj >= 0 and fj != fi:
            after *= factor_weight(fj)
        if rng.random() >= min(1.0, after / before):
            state[i], state[j] = state[j], state[i]       # reject

    tuples = np.empty(seq.m, dtype=np.int64)
    for j in range(seq.m):
        k = arities[j]
        tup = state[starts[j]:starts[j] + k]
        tuples[j] = int(np.dot(tup, pows[k]))
    return tuples, state[n_slots:].copy()


def _tilted_weight_choice(seq: DegreeSequence, tuples: np.ndarray,
                          family: WeightFamily,
                          rng: np.random.Generator) -> np.ndarray:
    """Weight choice per factor with mass proportional to P(psi) psi(colors)."""
    out = np.empty(seq.m, dtype=np.int64)
    for j, k in enumerate(seq.factor_arities):
        vals = np.array([t.ravel()[tuples[j]] for t in family.tables[k]])
        p = family.masses[k] * vals
        p = p / p.sum()
        out[j] = rng.choice(len(p), p=p)
    return out


def _colour_consistent_pairing(seq: DegreeSequence, sigma: np.ndarray,
                               tuples: np.ndarray, pebbles: np.ndarray,
                               family: WeightFamily, rng: np.random.Generator):
    """Uniform colour-consistent bijection of variable clones onto positions."""
    q = family.q
    d = np.asarray(seq.var_degrees)
    owners = _clone_owners(seq.var_degrees)
    clone_idx = _clone_index_within_owner(seq.var_degrees)
    clone_colors = sigma[owners]

    arities = np.asarray(seq.factor_arities)
    slot_colors = np.empty(int(arities.sum()), dtype=np.int64)
    pos = 0
    for j, k in enumerate(arities):
        digits = np.unravel_index(int(tuples[j]), (q,) * int(k))
        slot_colors[pos:pos + k] = digits
        pos += k
    position_colors = np.concatenate([slot_colors, pebbles])
    n_slots = len(slot_colors)

    assignment = np.full(len(position_colors), -1, dtype=np.int64)
    for w in range(q):
        clones_w = np.flatnonzero(clone_colors == w)
        positions_w = np.flatnonzero(position_colors == w)
        if len(clones_w) != len(positions_w):
            raise ValueError("colour histograms do not match")
        perm = rng.permutation(len(clones_w))
        assignment[positions_w] = clones_w[perm]

    factor_vars = []
    slot_clones = []
    pos = 0
    for k in arities:
        sel = assignment[pos:pos + k]
        factor_vars.append(tuple(int(owners[c]) for c in sel))
        slot_clones.append(tuple(int(clone_idx[c]) for c in sel))
        pos += k
    return tuple(factor_vars), tuple(slot_clones)


def sample_planted(seq: DegreeSequence, sigma: np.ndarray, family: WeightFamily,
                   theta: int, seed: int, *, max_attempts: Optional[int] = None,
                   mcmc_fallback: bool = True) -> FactorGraph:
    """Teacher-student graph around the ground truth ``sigma``.

    Three stages: a histogram-conditioned factor-side clone colouring, a
    weight choice tilted by the colouring, and a uniform colour-consistent
    pairing.  The first ``theta`` variables receive hard pins at their
    ground-truth spins; the output is distributed as the null model
    reweighted by the ground truth's weight.
    """
    sigma = validate_assignment(sigma, seq.n, family.q)
    if not family.supports(set(seq.factor_arities)):
        raise ValueError("family does not cover every arity in the sequence")
    if not 0 <= theta <= seq.n:
        raise ValueError("theta must be between 0 and n")

    tuples, pebbles, attempts, used_mcmc = _conditioned_colouring(
        seq, sigma, family, substream(seed, 10),
        max_attempts=max_attempts, mcmc_fallback=mcmc_fallback)
    table_ids = _tilted_weight_choice(seq, tuples, family, substream(seed, 11))
    factor_vars, slot_clones = _colour_consistent_pairing(seq, sigma, tuples, pebbles, family,
                                       substream(seed, 12))
    pins = tuple((i, int(sigma[i])) for i in range(theta))
    return FactorGraph(family=family, var_degrees=seq.var_degrees,
                       factor_vars=factor_vars, factor_tables=tuple(int(t) for t in table_ids),
                       slot_clones=slot_clones, pins=pins,
                       meta={"construction": "planted",
                             "colouring_attempts": attempts,
                             "colouring_mcmc": used_mcmc})


def sample_nishimori(n: int, dspec: DegreeSpec, kspec: DegreeSpec, family: WeightFamily,
                     seed: int, *, approximate: bool = False,
                     term_cap: int = 10 ** 7):
    """Draw (assignment, graph) from the partition-function-tilted pair law.

    Exact mode draws the assignment with mass proportional to the expected
    graph weight given the degree sequence (by enumeration), then plants a
    graph around it.  Approximate mode returns a uniform ground truth with
    its planted graph, tagged as contiguity-approximate.
    """
    seq = sample_degree_sequence(n, dspec, kspec, seed)
    child = int(substream(seed, 3).integers(2 ** 62))
    if approximate:
        sigma = uniform_assignment(n, family.q, substream(seed, 4))
        g = sample_planted(seq, sigma, family, 0, child)
        g.meta["nishimori_mode"] = "approximate"
        return sigma, g

    from . import exact

    n_states = family.q ** n
    cost = n_states * family.q ** seq.total_factor_degree
    if cost > term_cap:
        from .errors import CapExceeded
        raise CapExceeded("exact assignment tilting", cost, term_cap)
    weights = np.empty(n_states)
    for s, sigma in enumerate(_all_assignments(n, family.q)):
        weights[s] = exact.expected_weight(seq, family, sigma)
    probs = weights / weights.sum()
    pick = int(substream(seed, 4).choice(n_states, p=probs))
    sigma = np.array(np.unravel_index(pick, (family.q,) * n), dtype=np.int64)
    g = sample_planted(seq, sigma, family, 0, child)
    g.meta["nishimori_mode"] = "exact"
    return sigma, g


def _all_assignments(n: int, q: int):
    for idx in np.ndindex(*(q,) * n):
        yield np.array(idx, dtype=np.int64)


# ---------------------------------------------------------------------------
# pinning
# ---------------------------------------------------------------------------


def pin(g: FactorGraph, theta: int, seed: int, *, mode: str = "direct",
        window: float = 10.0, variables: Optional[Sequence[int]] = None) -> FactorGraph:
    """Append hard unary pins to a graph.

    direct mode pins exactly ``theta`` named variables (default: the first
    theta) to uniformly random spins.  budgeted mode draws a pin budget
    uniformly from (0, window), includes each variable independently with
    probability budget/n, and pins the included set to a Boltzmann sample of
    the unpinned graph.  The pinned partition function counts only
    assignments consistent with every pin.
    """
    if mode == "direct":
        if not 0 <= theta <= g.n:
            raise ValueError("theta must be between 0 and n")
        if variables is None:
            variables = range(theta)
        variables = list(variables)
        if len(variables) != theta:
            raise ValueError("exactly theta variables must be named")
        rng = substream(seed, 20)
        spins = rng.integers(0, g.q, size=theta)
        return g.with_pins((int(v), int(s)) for v, s in zip(variables, spins))
    if mode == "budgeted":
        from . import exact

        rng = substream(seed, 21)
        theta_draw = rng.uniform(0.0, window)
        include = np.flatnonzero(rng.random(g.n) < theta_draw / g.n)
        sample = exact.boltzmann_sample(g, 1, int(rng.integers(2 ** 62)))[0]
        return g.with_pins((int(v), int(sample[v])) for v in include)
    raise ValueError("mode must be 'direct' or 'budgeted'")
