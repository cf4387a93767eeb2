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

import copy
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import AttemptsExhausted, SymViolation, ZeroMean
from .rng import substream

MAX_DEGREE = 64
# largest spread of a family's marginal sums that still counts as one constant
SYM_TOL = 1e-9

_SEQ_ATTEMPTS = 100_000
# a Poisson law's support ends where less than this much mass lies beyond it
_POISSON_TAIL = 1e-12


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeSpec:
    """A bounded integer degree (or arity) distribution.

    ``support`` and ``mass`` are parallel tuples; masses are nonnegative and
    sum to one within 1e-12.  ``truncated_mass`` records probability removed
    by the truncate-and-renormalise constructors.  ``values`` (int64) and
    ``cdf`` are the array form :meth:`sample` reads, built once.
    """

    support: tuple
    mass: tuple
    truncated_mass: float = 0.0
    values: np.ndarray = field(init=False, repr=False, compare=False)
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        support = tuple(int(v) for v in self.support)
        if support != tuple(self.support):
            raise ValueError(f"degrees must be integers, got {tuple(self.support)}")
        mass = tuple(float(p) for p in self.mass)
        if len(support) != len(mass) or not support:
            raise ValueError("support and mass must be parallel, nonempty")
        if any(v < 0 for v in support):
            raise ValueError("degrees must be nonnegative")
        if max(support) > MAX_DEGREE:
            raise ValueError(f"support exceeds the degree cap {MAX_DEGREE}")
        if len(set(support)) != len(support):
            raise ValueError("support values must be distinct")
        if not all(math.isfinite(p) and p >= 0 for p in mass):
            raise ValueError("masses must be finite and nonnegative")
        if abs(sum(mass) - 1.0) > 1e-12:
            raise ValueError("masses must sum to 1 within 1e-12")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "values", _frozen_ints(support))
        object.__setattr__(self, "cdf", _choice_cdf(mass))

    @classmethod
    def constant(cls, value: int) -> "DegreeSpec":
        return cls((value,), (1.0,))

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, float]) -> "DegreeSpec":
        items = sorted(mapping.items())
        return cls(tuple(k for k, _ in items), tuple(v for _, v in items))

    @classmethod
    def poisson(cls, mean: float, *, max_support: int = MAX_DEGREE) -> "DegreeSpec":
        """Poisson(mean) truncated to a bounded support and renormalised.

        The support ends at the first cut with P(X > cut) <= 1e-12,
        or at ``max_support``; ``truncated_mass`` is P(X > cut).  Tails are
        summed from the far end, smallest terms first, out to where the
        terms fall e^-45 below the first one past both the cap and the mean.
        """
        if mean <= 0:
            raise ValueError("poisson mean must be positive")
        log_mean = math.log(mean)

        def log_pmf(j):
            return j * log_mean - mean - math.lgamma(j + 1)

        far = max(max_support, math.ceil(mean)) + 1
        floor = log_pmf(far) - 45.0
        while log_pmf(far) > floor:
            far += 1
        pmf = np.exp([log_pmf(j) for j in range(far + 1)])
        sf = np.cumsum(pmf[::-1])[::-1][1:]          # sf[c] = P(X > c)
        cut = next((c for c in range(max_support) if sf[c] <= _POISSON_TAIL), max_support)
        kept = pmf[:cut + 1]
        if not kept.sum() > 0:
            raise ValueError(f"poisson mean {mean} leaves no representable mass "
                             f"on the support 0..{cut}")
        # tail / (tail + kept) is P(X > cut) and cannot round above one
        return cls(tuple(range(cut + 1)), tuple(kept / kept.sum()),
                   truncated_mass=float(sf[cut] / (sf[cut] + kept.sum())))

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
        """``size`` iid draws, bit for bit ``rng.choice(support, size, p=mass)``."""
        return self.values.take(self.cdf.searchsorted(rng.random(size), side="right"))

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
    ``degrees`` and ``arities`` are the int64 arrays of the two tuples.
    """

    var_degrees: tuple
    factor_arities: tuple
    rejections: int = 0
    degrees: np.ndarray = field(init=False, repr=False, compare=False)
    arities: np.ndarray = field(init=False, repr=False, compare=False)
    total_var_degree: int = field(init=False, repr=False, compare=False)
    total_factor_degree: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        degrees = _frozen_ints(self.var_degrees)
        arities = _frozen_ints(self.factor_arities)
        object.__setattr__(self, "var_degrees", tuple(degrees.tolist()))
        object.__setattr__(self, "factor_arities", tuple(arities.tolist()))
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "arities", arities)
        object.__setattr__(self, "total_var_degree", int(degrees.sum()))
        object.__setattr__(self, "total_factor_degree", int(arities.sum()))
        if self.total_var_degree < self.total_factor_degree:
            raise ValueError("total variable degree must cover the factor side")

    @property
    def n(self) -> int:
        return len(self.var_degrees)

    @property
    def m(self) -> int:
        return len(self.factor_arities)

    @property
    def cavity_count(self) -> int:
        return self.total_var_degree - self.total_factor_degree


class CompiledArity(NamedTuple):
    """One arity of a weight family in the form the contraction kernel reads."""

    flat: np.ndarray                 # (tables, q**k), row-major spin order
    masses: np.ndarray               # choice probability per table
    parity: Optional[np.ndarray]     # c per table with table == 1 + c * parity
    tuple_law: np.ndarray            # (q**k,) law of a planted factor's spin tuple
    colours: np.ndarray              # (q**k, q) spin counts of each tuple
    table_cdf: np.ndarray            # (q**k, tables) CDF of P(psi) psi(tuple)
    rooted_cdf: np.ndarray           # (k*q*tables*q**(k-1),) rooted (table, tuple) CDFs
    rooted_scale: float              # cell of x is floor(x * rooted_scale), monotone in x
    rooted_guide: np.ndarray         # per cell, the first rooted_cdf entry in it or later
    rooted_table: np.ndarray         # table id of each rooted_cdf entry
    rooted_others: np.ndarray        # (len(rooted_cdf), k-1) other slots' spins of each entry
    oriented: np.ndarray             # (distinct, q**(k-1), q) tables read from one slot
    orientation: np.ndarray          # (tables*k,) index into oriented of table t, slot h


class CompiledFamily(NamedTuple):
    arity: dict                      # k -> CompiledArity
    xi: float                        # mean of all marginal sums
    xi_spread: float                 # max minus min of all marginal sums


@dataclass(frozen=True, eq=False)
class WeightFamily:
    """A finite set of positive weight tables per arity, with choice masses.

    ``tables[k]`` is a tuple of arrays of shape ``(q,)*k`` in row-major
    (lexicographic) spin order; ``masses[k]`` are the corresponding choice
    probabilities.
    """

    q: int
    tables: Mapping[int, tuple]
    masses: Mapping[int, np.ndarray]

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("alphabet size must be at least 1")
        tables = {}
        masses = {}
        for k, tabs in self.tables.items():
            k = int(k)
            if k < 1:
                raise ValueError("weight tables need arity at least 1")
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
    def _table_counts(self) -> np.ndarray:
        """Tables per arity, indexed by arity, with 0 for every arity the
        family lacks, index 0 and one index past the largest arity included,
        so ``take(arities, mode="clip")`` is 0 exactly where it lacks one."""
        counts = np.zeros(max(self.tables, default=0) + 2, dtype=np.int64)
        for k, tabs in self.tables.items():
            counts[k] = len(tabs)
        return counts

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

    def xi(self) -> float:
        """The common marginal-sum constant; raises if their spread exceeds
        ``SYM_TOL``."""
        spread = self.compiled.xi_spread
        if spread > SYM_TOL:
            raise SymViolation(f"marginal sums spread {spread:.3g} exceeds {SYM_TOL:.3g}")
        return self.compiled.xi

    @cached_property
    def compiled(self) -> CompiledFamily:
        """Flattened tables, masses, parity coefficients, the planted
        sampler's tuple and table laws, the rooted laws of population
        dynamics, and xi, built once.

        ``rooted_cdf`` holds one block per (open slot h, root spin s), in
        that order; block b lists (table, other slots' spins) pairs with
        weight P(psi) psi(tau) given tau_h = s, as a CDF running from 2b to
        2b + 1, so a search for 2b + u with u in [0, 1) lands in block b.
        ``oriented`` keeps one contiguous copy of each distinct matrix
        psi(tau) with rows the other slots' spins and columns tau_h, and
        ``orientation[t * k + h]`` names the one of table t at slot h.
        """
        q = self.q
        arity = {}
        for k, tabs in self.tables.items():
            flat = np.stack([t.ravel() for t in tabs])
            joint = self.masses[k][:, None] * flat
            cdf = np.cumsum(joint, axis=0) / joint.sum(axis=0)
            cdf[-1] = 1.0
            digits = np.indices((q,) * k).reshape(k, q ** k)
            colours = (digits[:, :, None] == np.arange(q)).sum(axis=0)
            tensor = joint.reshape((len(tabs),) + (q,) * k)
            rooted = np.stack([np.moveaxis(tensor, h + 1, 0).reshape(q, -1)
                               for h in range(k)]).reshape(k * q, -1)
            rooted = np.cumsum(rooted, axis=1) / rooted.sum(axis=1, keepdims=True)
            rooted[:, -1] = 1.0
            rooted += 2.0 * np.arange(k * q)[:, None]
            scale = 4.0 * rooted.shape[1]  # guide cells per unit: 4 per entry (docs/notes.md)
            cells = (rooted.ravel() * scale).astype(np.int64)
            guide = np.searchsorted(cells, np.arange(cells[-1] + 1))
            ids = np.indices((k * q, len(tabs)) + (q,) * (k - 1)).reshape(k + 1, -1)
            faces = np.stack([np.moveaxis(t, h, 0).reshape(q, -1).T.ravel()
                              for t in tabs for h in range(k)])
            distinct, orientation = np.unique(faces, axis=0, return_inverse=True)
            arity[k] = CompiledArity(flat, self.masses[k],
                                     _parity_coefficients(q, k, flat),
                                     joint.sum(axis=0) / joint.sum(), colours, cdf.T,
                                     rooted.ravel(), scale, guide, ids[1].copy(), ids[2:].T.copy(),
                                     distinct.reshape(-1, q ** (k - 1), q),
                                     orientation.ravel())
        values = np.concatenate([v.ravel() for v in self.marginal_sums().values()])
        return CompiledFamily(arity, float(values.mean()),
                              float(values.max() - values.min()))

    def contract(self, ks, tables, points: np.ndarray, open_slots) -> np.ndarray:
        """Contract weight tables with population points, one row per table use.

        Row i takes table ``tables[i]`` of arity ``ks[i]`` and returns the
        message at its slot h = ``open_slots[i]``,

            S(s) = sum_tau 1{tau_h = s} psi(tau) prod_{j != h} mu_j(tau_j),

        fed by ``points[i, :k-1]``, a (rows, width, q) array whose slots past
        the row's own k - 1 are never read, for the other slots in order.
        The closed mix sum_tau psi(tau) prod_j mu_j(tau_j) is the message at
        the last slot contracted with that slot's point, sum_s S(s) mu_k(s).
        Parity arities use S(+-) = 1 +- c prod_j (mu_j(0) - mu_j(1)), which
        needs points on the simplex; the other arities meet the outer-product
        grid of their rows' points in one matrix product per distinct
        oriented table.
        """
        ks = np.asarray(ks, dtype=np.int64)
        tables = np.asarray(tables, dtype=np.int64)
        open_slots = np.asarray(open_slots, dtype=np.int64)
        out = np.empty((len(ks), self.q))
        single = len(ks) > 0 and len(self.tables) == 1  # an empty call reads no points
        for k in list(self.tables) if single else np.flatnonzero(np.bincount(ks)).tolist():
            form = self.compiled.arity[k]
            rows = slice(None) if single else np.flatnonzero(ks == k)
            if form.parity is not None:
                cp = form.parity[tables[rows]]
                if k > 1:  # arity 1 is the empty product and reads no slot
                    fed = points[rows]
                    bias = fed[:, 0, 0] - fed[:, 0, 1]
                    for j in range(1, k - 1):
                        bias *= fed[:, j, 0] - fed[:, j, 1]
                    cp *= bias
                out[rows, 0], out[rows, 1] = 1.0 + cp, 1.0 - cp
                continue
            grid = points[rows, 0] if k > 1 else np.ones((len(ks), 1))[rows]
            for j in range(1, k - 1):
                grid = (grid[:, :, None] * points[rows, j][:, None, :]).reshape(len(grid), -1)
            if len(form.oriented) == 1:
                out[rows] = grid @ form.oriented[0]
                continue
            which = form.orientation[tables[rows] * k + open_slots[rows]]
            part = np.empty((len(grid), self.q))
            for face in np.flatnonzero(np.bincount(which)).tolist():
                sel = which == face
                part[sel] = grid[sel] @ form.oriented[face]
            out[rows] = part
        return out

    @cached_property
    def uniform_is_fixed(self) -> bool:
        """Whether :meth:`contract` on uniform points gives a message with
        bitwise-equal components for every arity, table and open slot, in one
        call over them all and in a one-row call each, so that the uniform
        atom is an exact floating-point fixed point of population dynamics."""
        for k, tabs in self.tables.items():
            tables, slots = np.divmod(np.arange(len(tabs) * k), k)
            points = np.full((len(slots), k - 1, self.q), 1.0 / self.q)
            for rows in [slice(None)] + [slice(i, i + 1) for i in range(len(slots))]:
                messages = self.contract(np.full(len(slots), k)[rows], tables[rows],
                                         points[rows], slots[rows])
                if np.any(messages != messages[:, :1]):
                    return False
        return True


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


def _choice_cdf(mass) -> np.ndarray:
    """The read-only CDF that ``Generator.choice(p=mass)`` searches, so a
    ``searchsorted(u, side="right")`` on it keeps that draw bit for bit."""
    cdf = np.cumsum(mass)
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def _int_tuple(values) -> tuple:
    return tuple(np.asarray(values, dtype=np.int64).tolist())


def _frozen_ints(values) -> np.ndarray:
    """A read-only int64 copy of ``values``."""
    out = np.array(values, dtype=np.int64)
    out.flags.writeable = False
    return out


def _split(values: list, sizes: Sequence[int]) -> tuple:
    """Consecutive runs of ``values`` with the given lengths, as tuples."""
    return tuple(tuple(values[e - k:e]) for e, k in zip(itertools.accumulate(sizes), sizes))


def slot_layout(arities: np.ndarray):
    """The factor and the position within it of every slot, for slots listed
    factor by factor and slot by slot."""
    factor = np.repeat(np.arange(len(arities)), arities)
    return factor, np.arange(len(factor)) - np.repeat(np.cumsum(arities) - arities, arities)


def _checked_pins(pins, n: int, q: int) -> tuple:
    pins = tuple((int(v), int(s)) for v, s in pins)
    if not all(0 <= v < n and 0 <= s < q for v, s in pins):
        raise ValueError("pin out of range")
    return pins


@dataclass(frozen=True, eq=False)
class FactorGraph:
    """A factor graph with clone-level pairing and optional pinned spins.

    The topology is stored once, by slot: ``edge_vars`` is the variable on
    each slot, factor by factor and slot by slot, ``arities`` each factor's
    slot count and ``tables`` its index into the family's tables at that
    arity, all read-only int64 arrays; the constructor rejects an arity the
    family lacks and a table id outside ``range(family.n_tables(k))``.
    ``pins`` are hard unary indicator factors (variable, forced spin); the
    unmatched clones are ``var_degrees`` minus the realised degrees.
    ``factor_vars`` and ``factor_tables`` are tuple views of plain ints,
    built on first read.
    """

    family: WeightFamily
    var_degrees: tuple
    edge_vars: np.ndarray
    arities: np.ndarray
    tables: np.ndarray
    pins: tuple = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.var_degrees)
        object.__setattr__(self, "var_degrees", _int_tuple(self.var_degrees))
        object.__setattr__(self, "pins", _checked_pins(self.pins, n, self.q))
        for name in ("edge_vars", "arities", "tables"):
            object.__setattr__(self, name, _frozen_ints(getattr(self, name)))
        if len(self.arities) != len(self.tables):
            raise ValueError("factor arities and table choices must be parallel")
        if int(self.arities.sum()) != len(self.edge_vars):
            raise ValueError("factor arities must sum to the slot count")
        if self.edge_vars.size and (self.edge_vars.min() < 0 or self.edge_vars.max() >= n):
            raise ValueError("factor neighbour out of range")
        if self.arities.size:
            limit = self.family._table_counts.take(self.arities, mode="clip")
            if not limit.all():
                raise ValueError("factor arity missing from the weight family")
            if self.tables.min() < 0 or (self.tables >= limit).any():
                raise ValueError("factor table id out of range for its arity")

    @classmethod
    def from_factors(cls, family: WeightFamily, var_degrees, factor_vars, factor_tables,
                     pins=()) -> "FactorGraph":
        """A graph from per-factor sequences of variable ids."""
        arities = [len(fv) for fv in factor_vars]
        edge_vars = np.fromiter(itertools.chain.from_iterable(factor_vars), dtype=np.int64,
                                count=sum(arities))
        return cls(family=family, var_degrees=var_degrees, edge_vars=edge_vars,
                   arities=arities, tables=factor_tables, pins=pins)

    @cached_property
    def factor_vars(self) -> tuple:
        return _split(self.edge_vars.tolist(), self.arities.tolist())

    @cached_property
    def factor_tables(self) -> tuple:
        return tuple(self.tables.tolist())

    @cached_property
    def slots(self) -> np.ndarray:
        """The read-only (m, max arity) index of every factor's slots; entries
        past a factor's arity are slot 0 and are never read."""
        out = np.zeros((self.m, self.arities.max(initial=0)), dtype=np.int64)
        out[slot_layout(self.arities)] = np.arange(len(self.edge_vars))
        out.flags.writeable = False
        return out

    @property
    def n(self) -> int:
        return len(self.var_degrees)

    @property
    def m(self) -> int:
        return len(self.arities)

    @property
    def q(self) -> int:
        return self.family.q

    def factor_table(self, j: int) -> np.ndarray:
        return self.family.table(int(self.arities[j]), int(self.tables[j]))

    def realized_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_vars, minlength=self.n)

    def cavity_counts(self) -> np.ndarray:
        """Unmatched clones per variable."""
        return np.asarray(self.var_degrees) - self.realized_degrees()

    def with_pins(self, extra: Sequence) -> "FactorGraph":
        """This graph with more pins; only the added pins are validated."""
        g = copy.copy(self)
        object.__setattr__(g, "pins", self.pins + _checked_pins(extra, self.n, self.q))
        return g

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
        if not rows:
            raise ValueError("graph text has no 'n m q' header")
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
            elif len(vals) < 3 or len(vals) != 2 + vals[0]:
                raise ValueError("factor line length does not match its arity")
            else:
                factor_vars.append(vals[2:])
                factor_tables.append(vals[1])
        if len(factor_vars) != m:
            raise ValueError("factor count does not match the header")
        g = cls.from_factors(family, (0,) * n, factor_vars, factor_tables, pins)
        # the constructor has range-checked every neighbour against n
        object.__setattr__(g, "var_degrees", _int_tuple(g.realized_degrees()))
        return g


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
            return DegreeSequence(d, k, rejections=attempt)
    raise AttemptsExhausted("balanced degree sequence", max_attempts)


def thinned_factor_count(n: int, eps: float, dspec: DegreeSpec, kspec: DegreeSpec,
                         rng: np.random.Generator) -> int:
    """Unconditioned Poisson factor count with mean (1-eps) E[d] n / E[k]."""
    return int(rng.poisson((1.0 - eps) * n * dspec.mean / kspec.mean))


def sample_pruned_sequence(n: int, eps: float, dspec: DegreeSpec, kspec: DegreeSpec,
                           seed: int) -> DegreeSequence:
    """Sequence with a thinned factor count; leaves cavities on the variables.

    The factor count is Poisson with mean (1-eps) E[d] n / E[k]; draws are
    rejected until the variable side covers the factor side.
    """
    if not 0 <= eps < 1:
        raise ValueError("eps must be in [0, 1)")
    if dspec.mean <= 0 or kspec.mean <= 0:
        raise ZeroMean("degree specs must have positive mean")
    rng = substream(seed, 0)
    for attempt in range(_SEQ_ATTEMPTS):
        d = dspec.sample(rng, n)
        m = thinned_factor_count(n, eps, dspec, kspec, rng)
        k = kspec.sample(rng, m)
        if int(d.sum()) >= int(k.sum()):
            return DegreeSequence(d, k, rejections=attempt)
    raise AttemptsExhausted("pruned degree sequence", _SEQ_ATTEMPTS)


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


def _pair_topology(seq: DegreeSequence, rng: np.random.Generator) -> np.ndarray:
    """The variable on each slot under a uniform maximal matching of variable
    clones, numbered variable by variable, onto factor slots."""
    order = rng.permutation(seq.total_var_degree)
    return np.repeat(np.arange(seq.n), seq.degrees)[order[:seq.total_factor_degree]]


def pair_uniform(seq: DegreeSequence, seed: int) -> FactorGraph:
    """Configuration-model pairing; weights are unit tables over two spins."""
    family = WeightFamily.constant(2, sorted(set(seq.factor_arities)) or [1])
    return FactorGraph(family=family, var_degrees=seq.var_degrees,
                       edge_vars=_pair_topology(seq, substream(seed, 1)),
                       arities=seq.arities, tables=np.zeros(seq.m, dtype=np.int64))


def sample_null(n: int, dspec: DegreeSpec, kspec: DegreeSpec, family: WeightFamily,
                seed: int) -> FactorGraph:
    """Null model: pairing topology plus weight choices independent of it.

    Factor j's table is the first index whose mass CDF exceeds the j-th
    uniform of one draw, the steps of a ``Generator.choice(p=masses)`` call
    per factor, so the tables are those of that loop bit for bit.
    """
    if not family.supports(kspec.support):
        raise ValueError("family does not cover every arity in the degree spec")
    seq = sample_degree_sequence(n, dspec, kspec, seed)
    edge_vars = _pair_topology(seq, substream(seed, 1))
    u = substream(seed, 2).random(seq.m)
    tables = np.empty(seq.m, dtype=np.int64)
    for k in np.flatnonzero(np.bincount(seq.arities)).tolist():
        rows = np.flatnonzero(seq.arities == k)
        tables[rows] = _choice_cdf(family.masses[k]).searchsorted(u[rows], side="right")
    return FactorGraph(family=family, var_degrees=seq.var_degrees, edge_vars=edge_vars,
                       arities=seq.arities, tables=tables,
                       meta={"construction": "null", "sequence_rejections": seq.rejections})


# ---------------------------------------------------------------------------
# planted (teacher-student) sampler
# ---------------------------------------------------------------------------


class _CellGroup(NamedTuple):
    """Positions coloured iid over the same cells: one arity's factors, or
    the cavity pebbles."""

    index: np.ndarray                # flat tuple index, or a pebble's colour
    colours: np.ndarray              # (cells, q) spin counts per cell
    log_law: np.ndarray              # untilted log probability per cell
    rows: np.ndarray                 # positions: factors, then pebbles


def _colouring_groups(seq: DegreeSequence, target: np.ndarray,
                      family: WeightFamily) -> list:
    """One cell group per arity, plus one for the pebbles.  Cells using a
    colour that ``target`` lacks can never be accepted, so they are dropped."""
    dead = target == 0
    groups = []
    for k in np.flatnonzero(np.bincount(seq.arities)).tolist():
        form = family.compiled.arity[k]
        keep = np.flatnonzero(form.colours[:, dead].sum(axis=1) == 0)
        groups.append(_CellGroup(keep, form.colours[keep], np.log(form.tuple_law[keep]),
                                 np.flatnonzero(seq.arities == k)))
    if seq.cavity_count:
        live = np.flatnonzero(~dead)
        groups.append(_CellGroup(live, np.eye(family.q, dtype=np.int64)[live],
                                 np.zeros(len(live)), seq.m + np.arange(seq.cavity_count)))
    return groups


def _tilted_laws(groups: list, target: np.ndarray) -> list:
    """Cell laws tilted by exp(<lam, colours>), with lam centring the mean
    colour histogram of one draw on ``target``.

    lam minimises the convex F(lam) = sum_g |g| log Z_g(lam) - <lam, target>,
    Z_g(lam) = sum_c p_g(c) exp(<lam, colours(c)>) over the cells of group g,
    whose gradient is the tilted mean histogram minus the target; damped
    Newton from lam = 0.  F does not change when a constant is added to lam,
    so lam is held at zero on the last colour the target holds, and on the
    colours it lacks, which no cell uses.  The tilt multiplies the weight of
    a whole draw by exp(<lam, histogram>), a constant on the acceptance
    event, so any lam leaves the accepted law unchanged; lam sets only the
    acceptance rate.
    """
    q = len(target)
    free = np.flatnonzero(target)[:-1]
    lengths = [len(g.index) for g in groups]
    starts = np.cumsum([0] + lengths[:-1], dtype=np.int64)[:len(groups)]
    group = np.repeat(np.arange(len(groups)), lengths)
    sizes = np.array([len(g.rows) for g in groups], dtype=float)
    colours = np.concatenate([g.colours for g in groups] + [np.zeros((0, q), np.int64)])
    log_law = np.concatenate([g.log_law for g in groups] + [np.zeros(0)])

    def evaluate(lam):
        logits = log_law + colours @ lam
        top = np.maximum.reduceat(logits, starts)
        law = np.exp(logits - top[group])
        norm = np.add.reduceat(law, starts)
        law /= norm[group]
        mean = np.add.reduceat(law[:, None] * colours, starts)
        value = sizes @ (top + np.log(norm)) - lam @ target
        grad = sizes @ mean - target
        hess = (colours.T * (law * sizes[group])) @ colours - (mean.T * sizes) @ mean
        return value, grad[free], hess[np.ix_(free, free)], law

    lam = np.zeros(q)
    value, grad, hess, law = evaluate(lam)
    for _ in range(100):
        # the histogram is integral: a mean within 0.01 of it is centred
        if not len(free) or np.abs(grad).max() <= 0.01:
            break
        step = np.linalg.solve(hess, grad)
        t = 1.0
        while t > 1e-10:
            trial = lam.copy()
            trial[free] -= t * step
            result = evaluate(trial)
            if result[0] <= value - 0.25 * t * float(grad @ step):
                break
            t /= 2
        else:
            break
        lam = trial
        value, grad, hess, law = result
    return np.split(law, starts[1:])


def _conditioned_colouring(seq: DegreeSequence, sigma: np.ndarray,
                           family: WeightFamily, rng: np.random.Generator,
                           *, max_attempts: Optional[int] = None):
    """Histogram-conditioned factor-side clone colouring, drawn exactly.

    Per-factor tuples follow the mean-table law and cavity pebbles are
    uniform; the joint draw is conditioned on its colour histogram matching
    the variable-clone histogram of sigma.  Acceptance depends only on the
    histogram, and the tuples of one arity are iid, so an attempt draws each
    arity's tuple-type counts (and the pebble counts) as one multinomial, and
    an accepted multiset is shuffled over its factors: by exchangeability
    that is the law of conditioned per-factor draws.  The cell laws are
    exponentially tilted onto the target (``_tilted_laws``), which leaves
    the accepted law unchanged.  Returns (flat tuple per factor, pebble
    colours, attempts); raises ``AttemptsExhausted`` after ``max_attempts``
    attempts.
    """
    target = np.bincount(sigma, weights=seq.degrees, minlength=family.q).astype(np.int64)
    if max_attempts is None:
        max_attempts = int(10_000 * math.sqrt(max(seq.total_var_degree, 1)))
    groups = _colouring_groups(seq, target, family)
    laws = _tilted_laws(groups, target)

    attempts, block = 0, 8
    while attempts < max_attempts:
        b = min(block, max_attempts - attempts)
        block = min(block * 2, 1024)
        attempts += b
        counts = [rng.multinomial(len(g.rows), law, size=b) for g, law in zip(groups, laws)]
        hist = sum((c @ g.colours for g, c in zip(groups, counts)),
                   np.zeros((b, family.q), dtype=np.int64))
        ok = np.flatnonzero((hist == target).all(axis=1))
        if len(ok):
            picks = np.empty(seq.m + seq.cavity_count, dtype=np.int64)
            for g, c in zip(groups, counts):
                picks[g.rows] = rng.permutation(np.repeat(g.index, c[ok[0]]))
            return picks[:seq.m], picks[seq.m:], attempts
    raise AttemptsExhausted("histogram-conditioned colouring", max_attempts)


def _tilted_weight_choice(seq: DegreeSequence, tuples: np.ndarray,
                          family: WeightFamily,
                          rng: np.random.Generator) -> np.ndarray:
    """Weight choice per factor with mass proportional to P(psi) psi(colors),
    by inverse CDF with one uniform per factor."""
    u = rng.random(seq.m)
    out = np.empty(seq.m, dtype=np.int64)
    for k in np.flatnonzero(np.bincount(seq.arities)).tolist():
        rows = np.flatnonzero(seq.arities == k)
        cdf = family.compiled.arity[k].table_cdf[tuples[rows]]
        out[rows] = (u[rows, None] >= cdf).sum(axis=1)
    return out


def _colour_consistent_pairing(seq: DegreeSequence, sigma: np.ndarray,
                               tuples: np.ndarray, pebbles: np.ndarray,
                               family: WeightFamily, rng: np.random.Generator):
    """Uniform colour-consistent bijection of variable clones onto positions;
    returns the variable on each slot."""
    q = family.q
    factor, slot = slot_layout(seq.arities)
    # slot s of an arity-k factor holds digit s of its tuple, most significant first
    power = q ** (seq.arities[factor] - 1 - slot)
    position_colors = np.concatenate([tuples[factor] // power % q, pebbles])
    owners = np.repeat(np.arange(seq.n), seq.degrees)
    clone_colors = sigma[owners]

    assignment = np.full(len(position_colors), -1, dtype=np.int64)
    for w in range(q):
        clones_w = np.flatnonzero(clone_colors == w)
        positions_w = np.flatnonzero(position_colors == w)
        if len(clones_w) != len(positions_w):
            raise ValueError("colour histograms do not match")
        assignment[positions_w] = clones_w[rng.permutation(len(clones_w))]
    return owners[assignment[:seq.total_factor_degree]]


def sample_planted(seq: DegreeSequence, sigma: np.ndarray, family: WeightFamily,
                   theta: int, seed: int, *, max_attempts: Optional[int] = None) -> FactorGraph:
    """Teacher-student graph around the ground truth ``sigma``.

    Three stages: a histogram-conditioned factor-side clone colouring, drawn
    exactly by tilted rejection on per-arity colour counts
    (``_conditioned_colouring``), a weight choice tilted by the colouring,
    and a uniform colour-consistent pairing.  The first ``theta`` variables
    receive hard pins at their ground-truth spins; the output is distributed
    as the null model reweighted by the ground truth's weight.  Raises
    ``AttemptsExhausted`` if the colouring is not accepted within
    ``max_attempts`` attempts; there is no approximate fallback, so
    ``meta["colouring_mcmc"]`` is always False.
    """
    sigma = validate_assignment(sigma, seq.n, family.q)
    if not family.supports(set(seq.factor_arities)):
        raise ValueError("family does not cover every arity in the sequence")
    if not 0 <= theta <= seq.n:
        raise ValueError("theta must be between 0 and n")

    tuples, pebbles, attempts = _conditioned_colouring(
        seq, sigma, family, substream(seed, 10), max_attempts=max_attempts)
    table_ids = _tilted_weight_choice(seq, tuples, family, substream(seed, 11))
    edge_vars = _colour_consistent_pairing(seq, sigma, tuples, pebbles, family,
                                           substream(seed, 12))
    pins = tuple((i, int(sigma[i])) for i in range(theta))
    return FactorGraph(family=family, var_degrees=seq.var_degrees, edge_vars=edge_vars,
                       arities=seq.arities, tables=table_ids, pins=pins,
                       meta={"construction": "planted",
                             "colouring_attempts": attempts,
                             "colouring_mcmc": False})
