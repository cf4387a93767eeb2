"""Exact desk-scale oracles: enumeration, sampling, pins, and instance BP.

Partition functions, marginals and pair joints come from enumerating every
state, vectorised in blocks, with log-domain accumulation in one pass;
ensemble expectations come from enumerating clone pairings; the sum-product
routine is a cross-check, not a performance path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import CapExceeded
from .graphmodel import (DegreeSequence, FactorGraph, WeightFamily, _split,
                         sample_degree_sequence, sample_planted, slot_layout,
                         uniform_assignment)
from .rng import substream

STATE_CAP = 2 ** 24
SAMPLE_STATE_CAP = 2 ** 22
PAIRING_TERM_CAP = 10 ** 7
# entries of one block's one-hot matrix (L q rows, q^L states); the matrix
# and its weighted copy stay under 8 MB together
_CHUNK_FLOATS = 1 << 19


# ---------------------------------------------------------------------------
# state enumeration
# ---------------------------------------------------------------------------


@dataclass
class BoltzmannSummary:
    """log partition function, per-variable marginals, optional pair data."""

    log_z: float
    marginals: np.ndarray
    pair_joint: Optional[np.ndarray] = None            # (n, n, q, q)

    @property
    def two_point(self) -> Optional[float]:
        """|mu(s_x = s_y = 0) - mu(s_x = 0) mu(s_y = 0)| summed over ordered pairs
        of distinct variables, over n^2 (the worst spin pair at each (x, y) for
        q > 2), so a product measure scores exactly zero; None without pairs."""
        if self.pair_joint is None:
            return None
        n, q = self.marginals.shape
        prod = self.marginals[:, None, :, None] * self.marginals[None, :, None, :]
        dev = np.abs(self.pair_joint - prod)
        val = dev[:, :, 0, 0].copy() if q == 2 else dev.reshape(n, n, q * q).max(axis=2)
        np.fill_diagonal(val, 0.0)
        return float(val.sum() / n ** 2)


def assignment_log_weight(g: FactorGraph, sigma) -> float:
    """log of the graph weight of one assignment; -inf if a pin is violated."""
    sigma = np.asarray(sigma, dtype=np.int64)
    for v, s in g.pins:
        if sigma[v] != s:
            return -math.inf
    total = 0.0
    for j in range(g.m):
        total += math.log(float(g.factor_table(j)[tuple(sigma[v] for v in g.factor_vars[j])]))
    return total


def _state_digits(q: int, n: int, idx: np.ndarray) -> np.ndarray:
    """Rows ``idx`` of the lexicographic assignment table, shape (b, n)."""
    return (idx[:, None] // q ** np.arange(n - 1, -1, -1, dtype=np.int64)) % q


def _log_weight_blocks(g: FactorGraph, cap: int):
    """Log weights of all states in lexicographic order, in blocks of the q^L
    states that share their n - L leading digits.  Flat table indices are
    linear in the digits; their trailing part is built once per call, per
    arity as an (m_k, q^L) index.  Pins are unary factors with log tables
    0 / -inf.  Returns the (L, q^L) trailing digits and a generator of
    (leading digits, log weights) per block.
    """
    n, q = g.n, g.q
    if q ** n > cap:
        raise CapExceeded("state enumeration", q ** n, cap)
    low = max(k for k in range(n + 1) if q ** k * k * q <= _CHUNK_FLOATS)
    # digit-major (n, q^L); the size-1 leading axes give zero leading digits
    rows = np.indices((1,) * (n - low) + (q,) * low).reshape(n, -1)

    def flat_index(digits, variables):
        flat = digits[variables[:, 0]]
        for slot in range(1, variables.shape[1]):
            flat = flat * q + digits[variables[:, slot]]
        return flat

    ks = g.arities
    pins = np.array(g.pins, dtype=np.int64).reshape(-1, 2)
    unary = np.where(np.eye(q, dtype=bool), 0.0, -np.inf).ravel()
    groups = [(g.edge_vars[g.slots[ks == k, :k]], g.tables[ks == k],
               np.log(g.family.compiled.arity[k].flat).ravel())
              for k in np.flatnonzero(np.bincount(ks)).tolist()]
    # factors on trailing digits only are summed once, the rest in every block
    base, per_block = np.zeros(q ** low), []
    for variables, tables, log_tables in groups + [(pins[:, :1], pins[:, 1], unary)]:
        row_index = tables[:, None] * q ** variables.shape[1] + flat_index(rows, variables)
        inner = (variables >= n - low).all(axis=1)
        base += log_tables.take(row_index[inner]).sum(axis=0)
        if not inner.all():
            per_block.append((variables[~inner], row_index[~inner], log_tables))

    def blocks():
        for head in _state_digits(q, n, np.arange(0, q ** n, q ** low)):
            logw = base.copy()
            for variables, index, log_tables in per_block:
                logw += log_tables.take(index + flat_index(head, variables)[:, None]).sum(axis=0)
            yield head[:n - low], logw

    return rows[n - low:], blocks()


def partition_function(g: FactorGraph, *, want_pairs: bool = False) -> BoltzmannSummary:
    """Exact log Z and marginals by full enumeration.

    With ``want_pairs`` also accumulates all pairwise joint marginals, from
    which the summary's ``two_point`` is read.  One pass: sums are kept
    relative to the running maximum log weight, rescaled when it rises.  A
    state's one-hot vector is a leading part, fixed within a block, and a
    trailing part X, the same in every block; so a block adds its leading
    and leading-trailing terms, and the trailing marginals and trailing
    joint X^T diag(sum_b w_b) X come from the summed weights, once.
    """
    n, q = g.n, g.q
    rows, blocks = _log_weight_blocks(g, STATE_CAP)
    xt = np.eye(q).take(rows, axis=1).transpose(1, 0, 2).reshape(-1, rows.shape[1])
    split = n * q - len(xt)
    top, z, tail = -np.inf, 0.0, np.zeros(rows.shape[1])
    marg, joint = np.zeros(n * q), np.zeros((n * q, n * q))
    for head, logw in blocks:
        m = float(logw.max())
        if m == -np.inf:
            continue
        if m > top:
            scale = math.exp(top - m)
            z, tail, marg, joint, top = z * scale, tail * scale, marg * scale, joint * scale, m
        w = np.exp(logw - top)
        total = float(w.sum())
        e = np.eye(q).take(head, axis=0).ravel()
        z += total
        tail += w
        marg[:split] += total * e
        if want_pairs and split:
            u = np.concatenate([total * e, xt @ w])
            joint[:split] += np.outer(e, u)
            joint[split:, :split] += np.outer(u[split:], e)
    if z <= 0.0:
        raise ValueError("graph weight vanishes on every assignment (conflicting pins)")

    marg[split:] = xt @ tail
    marg = (marg / z).reshape(n, q)
    if not want_pairs:
        return BoltzmannSummary(top + math.log(z), marg)
    joint[split:, split:] = (xt * tail) @ xt.T
    joint = (joint / z).reshape(n, q, n, q).transpose(0, 2, 1, 3)
    return BoltzmannSummary(top + math.log(z), marg, joint)


def boltzmann_sample(g: FactorGraph, count: int, seed: int) -> np.ndarray:
    """Exact inverse-CDF samples from the Boltzmann distribution, (count, n)."""
    logw = np.concatenate([logw for _, logw in _log_weight_blocks(g, SAMPLE_STATE_CAP)[1]])
    w = np.exp(logw - logw.max())
    cdf = np.cumsum(w / w.sum())
    cdf[-1] = 1.0
    picks = np.searchsorted(cdf, substream(seed, 30).random(count), side="right")
    return _state_digits(g.q, g.n, picks)


# ---------------------------------------------------------------------------
# ensemble enumeration
# ---------------------------------------------------------------------------


def iter_slot_maps(seq: DegreeSequence):
    """All slot -> variable maps of a uniform clone pairing, with probability.

    Yields (per-factor variable tuples, probability).  The probability of a
    map assigning c_v slots to variable v is prod_v (d_v)_{c_v} / (T)_{S}
    where T is the total variable degree and S the total factor degree.
    """
    d = list(seq.var_degrees)
    total = seq.total_var_degree
    emitted = 0

    def rec(i, remaining, free, prob, current):
        nonlocal emitted
        if i == seq.total_factor_degree:
            emitted += 1
            if emitted > PAIRING_TERM_CAP:
                raise CapExceeded("pairing enumeration", emitted, PAIRING_TERM_CAP)
            yield _split(current, seq.factor_arities), prob
            return
        for v in range(len(d)):
            if remaining[v] == 0:
                continue
            remaining[v] -= 1
            current.append(v)
            yield from rec(i + 1, remaining, free - 1,
                           prob * (remaining[v] + 1) / free, current)
            current.pop()
            remaining[v] += 1

    yield from rec(0, list(d), total, 1.0, [])


def expected_weight(seq: DegreeSequence, family: WeightFamily, sigma) -> float:
    """Expected graph weight of ``sigma`` over pairings and weight choices.

    Uses the colour-count factorisation: the weight of a pairing depends on
    slot colours only, so a dynamic programme over per-factor colour-count
    transitions replaces the raw sum over clone matchings.
    """
    sigma = np.asarray(sigma, dtype=np.int64)
    q = family.q
    h = np.bincount(sigma, weights=seq.degrees, minlength=q).astype(np.int64)
    total = seq.total_var_degree
    s_total = seq.total_factor_degree

    states = {(0,) * q: 1.0}
    for k in seq.factor_arities:
        mean_flat = family.mean_table(k).ravel()
        tuples = list(np.ndindex(*(q,) * k))
        new_states = {}
        if len(states) * len(tuples) > PAIRING_TERM_CAP:
            raise CapExceeded("colour-count dynamic programme",
                              len(states) * len(tuples), PAIRING_TERM_CAP)
        for state, acc in states.items():
            for flat, tup in enumerate(tuples):
                nxt = list(state)
                ok = True
                for w in tup:
                    nxt[w] += 1
                    if nxt[w] > h[w]:
                        ok = False
                        break
                if ok:
                    key = tuple(nxt)
                    new_states[key] = new_states.get(key, 0.0) + acc * mean_flat[flat]
        states = new_states

    out = 0.0
    for state, acc in states.items():
        weight = 1.0
        for w in range(q):
            for t in range(state[w]):
                weight *= (h[w] - t)
        out += acc * weight
    denom = 1.0
    for t in range(s_total):
        denom *= (total - t)
    return out / denom


def sample_nishimori(n: int, dspec, kspec, family: WeightFamily, seed: int):
    """Draw (assignment, graph) from the partition-function-tilted pair law.

    The assignment is drawn with mass proportional to the expected graph
    weight given the degree sequence (by enumeration), then a graph is
    planted around it.  Past desk size this raises ``CapExceeded``; there,
    a uniform ground truth with its planted graph (``sample_planted``, or
    ``factorcavity sample --kind planted``) stands in for the pair by
    contiguity.
    """
    seq = sample_degree_sequence(n, dspec, kspec, seed)
    child = int(substream(seed, 3).integers(2 ** 62))
    n_states = family.q ** n
    cost = n_states * family.q ** seq.total_factor_degree
    if cost > PAIRING_TERM_CAP:
        raise CapExceeded("exact assignment tilting (for a uniform ground truth "
                          "use sample --kind planted)", cost, PAIRING_TERM_CAP)
    sigmas = _state_digits(family.q, n, np.arange(n_states))
    weights = np.array([expected_weight(seq, family, sigma) for sigma in sigmas])
    pick = int(substream(seed, 4).choice(n_states, p=weights / weights.sum()))
    return sigmas[pick], sample_planted(seq, sigmas[pick], family, 0, child)


def pin(g: FactorGraph, theta: int, seed: int, *, mode: str = "direct",
        window: float = 10.0) -> FactorGraph:
    """Append hard unary pins to a graph.

    direct mode pins the first ``theta`` variables to uniformly random
    spins.  budgeted mode draws a pin budget uniformly from (0, window),
    includes each variable independently with probability budget/n, and pins
    the included set to a Boltzmann sample of the unpinned graph.  The pinned
    partition function counts only assignments consistent with every pin.
    """
    if mode == "direct":
        if not 0 <= theta <= g.n:
            raise ValueError("theta must be between 0 and n")
        spins = substream(seed, 20).integers(0, g.q, size=theta)
        return g.with_pins(enumerate(spins))
    if mode == "budgeted":
        rng = substream(seed, 21)
        theta_draw = rng.uniform(0.0, window)
        include = np.flatnonzero(rng.random(g.n) < theta_draw / g.n)
        sample = boltzmann_sample(g, 1, int(rng.integers(2 ** 62)))[0]
        return g.with_pins((int(v), int(sample[v])) for v in include)
    raise ValueError("mode must be 'direct' or 'budgeted'")


def nishimori_check(n: int, dspec, kspec, family: WeightFamily, *, seed: int = 0) -> float:
    """Termwise check of the tilted-pair identity on one degree sequence.

    For every labelled graph G (slot map plus weight choices) and assignment
    sigma it compares

        P[Z-tilted graph = G] mu_G(sigma)
        ==  P[tilted assignment = sigma] P[planted graph = G | sigma]

    and returns the maximum absolute difference, 0 up to rounding.
    """
    seq = sample_degree_sequence(n, dspec, kspec, seed)
    if seq.n > 4 or seq.total_var_degree > 10:
        raise CapExceeded("nishimori enumeration",
                          seq.total_var_degree, 10)
    q = family.q
    graphs = []          # (factor_vars, table_ids, P[G|D], psi_G per sigma)
    assignments = list(np.ndindex(*(q,) * n))
    for slot_map, prob in iter_slot_maps(seq):
        table_choices = [range(family.n_tables(k)) for k in seq.factor_arities]
        for ids in itertools.product(*table_choices):
            p_g = prob
            for k, i in zip(seq.factor_arities, ids):
                p_g *= float(family.masses[k][i])
            psi = np.empty(len(assignments))
            for s_idx, sigma in enumerate(assignments):
                w = 1.0
                for fv, k, i in zip(slot_map, seq.factor_arities, ids):
                    w *= float(family.table(k, i)[tuple(sigma[v] for v in fv)])
                psi[s_idx] = w
            graphs.append((slot_map, ids, p_g, psi))

    z_per_graph = np.array([g[3].sum() for g in graphs])
    p_null = np.array([g[2] for g in graphs])
    mean_z = float(np.dot(p_null, z_per_graph))

    # expected weight per assignment, E[psi_G(sigma) | D]
    e_psi = np.zeros(len(assignments))
    for (_, _, p_g, psi) in graphs:
        e_psi += p_g * psi
    sum_e_psi = float(e_psi.sum())

    worst = 0.0
    for g_idx, (_, _, p_g, psi) in enumerate(graphs):
        z_g = z_per_graph[g_idx]
        lhs = (z_g * p_g / mean_z) * (psi / z_g)
        rhs = (e_psi / sum_e_psi) * (p_g * psi / e_psi)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


# ---------------------------------------------------------------------------
# planted-law oracles
# ---------------------------------------------------------------------------


def planted_law_reweighting(seq: DegreeSequence, sigma, family: WeightFamily) -> dict:
    """The defining law of the teacher-student graph: null times weight.

    Returns {(slot_map, table_ids): probability} with mass proportional to
    P[G | degrees] * psi_G(sigma).
    """
    sigma = np.asarray(sigma, dtype=np.int64)
    law = {}
    for slot_map, prob in iter_slot_maps(seq):
        table_choices = [range(family.n_tables(k)) for k in seq.factor_arities]
        for ids in itertools.product(*table_choices):
            p = prob
            for fv, k, i in zip(slot_map, seq.factor_arities, ids):
                p *= float(family.masses[k][i])
                p *= float(family.table(k, i)[tuple(sigma[v] for v in fv)])
            law[(slot_map, ids)] = law.get((slot_map, ids), 0.0) + p
    total = sum(law.values())
    return {key: p / total for key, p in law.items()}


def planted_law_construction(seq: DegreeSequence, sigma, family: WeightFamily) -> dict:
    """Exact output law of the three-stage planted sampler.

    Enumerates every colouring of the factor-side positions (real slots plus
    cavity pebbles), every clone bijection, and every weight choice, with the
    stage-wise probabilities of the construction.  Feasible only at toy sizes.
    """
    sigma = np.asarray(sigma, dtype=np.int64)
    q = family.q
    d = list(seq.var_degrees)
    arities = list(seq.factor_arities)
    total = seq.total_var_degree
    delta = seq.cavity_count

    owners = [v for v in range(len(d)) for _ in range(d[v])]
    chi = [int(sigma[v]) for v in owners]
    target = [0] * q
    for c in chi:
        target[c] += 1

    laws = {k: (family.mean_table(k).ravel() / family.table_total(k)) for k in set(arities)}

    # stage-1 law over position colourings, conditioned on the histogram
    y_law = {}
    for y in itertools.product(range(q), repeat=total):
        hist = [0] * q
        for c in y:
            hist[c] += 1
        if hist != target:
            continue
        p = q ** (-delta) if delta else 1.0
        pos = 0
        for k in arities:
            flat = 0
            for s in range(k):
                flat = flat * q + y[pos + s]
            p *= float(laws[k][flat])
            pos += k
        y_law[y] = p
    total_mass = sum(y_law.values())
    y_law = {y: p / total_mass for y, p in y_law.items()}

    law = {}
    clones = list(range(total))
    for y, p_y in y_law.items():
        counts = [0] * q
        for c in y:
            counts[c] += 1
        p_bij = 1.0
        for c in range(q):
            p_bij /= math.factorial(counts[c])
        # stage-2 table law per factor given its colours
        pos = 0
        table_laws = []
        for j, k in enumerate(arities):
            flat = 0
            for s in range(k):
                flat = flat * q + y[pos + s]
            vals = np.array([t.ravel()[flat] for t in family.tables[k]])
            pr = family.masses[k] * vals
            table_laws.append(pr / pr.sum())
            pos += k
        for perm in itertools.permutations(clones):
            # perm maps position -> clone; colour-consistency required
            if any(chi[perm[p]] != y[p] for p in range(total)):
                continue
            slot_map = []
            pos = 0
            for k in arities:
                slot_map.append(tuple(owners[perm[p]] for p in range(pos, pos + k)))
                pos += k
            slot_map = tuple(slot_map)
            for ids in itertools.product(*[range(len(t)) for t in table_laws]):
                p = p_y * p_bij
                for j, i in enumerate(ids):
                    p *= float(table_laws[j][i])
                key = (slot_map, ids)
                law[key] = law.get(key, 0.0) + p
    return law


# ---------------------------------------------------------------------------
# mutual information and KL estimators
# ---------------------------------------------------------------------------


def information_term(family: WeightFamily, kspec) -> float:
    """E[q^{-k} sum_tau Lambda(psi(tau))] over the arity and table choice."""
    out = 0.0
    for k, pk in zip(kspec.support, kspec.mass):
        if pk == 0:
            continue
        inner = 0.0
        for t, mass in zip(family.tables[k], family.masses[k]):
            vals = t.ravel()
            inner += mass * float(np.dot(vals, np.log(vals))) / family.q ** k
        out += pk * inner
    return out


def information_offset(model) -> tuple:
    """(info, ln q + E[d]/(xi E[k]) info), info the information term: the MI
    formula before a free entropy (sup B, or a sampled one) is subtracted."""
    info = information_term(model.family, model.kspec)
    coeff = model.dspec.mean / (model.family.xi() * model.kspec.mean)
    return info, math.log(model.q) + coeff * info


class MIMonteCarlo(NamedTuple):
    value: float
    stderr: float


def _planted_free_entropy(model, n: int, graphs: int, seed: int) -> MIMonteCarlo:
    """Mean of log Z(planted graph)/n over ``graphs`` uniform ground truths on
    one degree sequence, with its standard error."""
    seq = sample_degree_sequence(n, model.dspec, model.kspec, seed)
    log_zs = np.empty(graphs)
    for i in range(graphs):
        rng = substream(seed, 40, i)
        sigma = uniform_assignment(n, model.q, rng)
        g = sample_planted(seq, sigma, model.family, 0, int(rng.integers(2 ** 62)))
        log_zs[i] = partition_function(g).log_z
    stderr = float(log_zs.std(ddof=1)) / math.sqrt(graphs) / n if graphs > 1 else math.inf
    return MIMonteCarlo(float(log_zs.mean()) / n, stderr)


def mi_monte_carlo(model, n: int, graphs: int, seed: int) -> MIMonteCarlo:
    """Finite-size mutual information per variable, with Monte-Carlo error.

    ln q plus the exact information term, minus the sampled mean of
    log Z(planted graph)/n on one degree sequence.  The systematic
    finite-size gap is not included in the reported standard error.
    """
    phi = _planted_free_entropy(model, n, graphs, seed)
    _, offset = information_offset(model)
    return MIMonteCarlo(offset - phi.value, phi.stderr)


# ---------------------------------------------------------------------------
# instance belief propagation
# ---------------------------------------------------------------------------


@dataclass
class BPState:
    """Directed messages on clone-level edges plus convergence bookkeeping."""

    graph: FactorGraph
    var_to_fac: np.ndarray       # (E, q)
    fac_to_var: np.ndarray       # (E, q)
    iterations: int
    max_change: float
    converged: bool


def _pin_fields(g: FactorGraph) -> np.ndarray:
    fields = np.ones((g.n, g.q))
    for v, s in g.pins:
        mask = np.zeros(g.q)
        mask[s] = 1.0
        fields[v] *= mask
    if np.any(fields.sum(axis=1) == 0):
        raise ValueError("conflicting pins leave a variable with no spin")
    return fields


def bp_run(g: FactorGraph, max_iters: int = 1000, damping: float = 0.5,
           tol: float = 1e-10) -> BPState:
    """Synchronous damped sum-product sweeps.

    Messages live on (variable clone, factor clone) pairs, so parallel edges
    carry independent messages.  Pins act as hard unary fields on the
    variable side.  Non-convergence is reported on the returned state, not
    raised.

    The factor side is one call of the family's contraction kernel.  Its
    messages are strictly positive (tables are), so the variable side is a
    log-domain leave-one-out: a variable's log pin field plus the sum of its
    incoming log messages (one ``np.bincount`` per spin), minus the edge's
    own message.  ``ValueError`` if a normaliser vanishes.

    Messages start uniform, and uniform messages are a fixed point on any
    unpinned graph of a spin-symmetric family: such a run reports
    ``converged`` after one sweep with every marginal uniform, whatever the
    graph's planted signal.
    """
    if not 0 <= damping < 1:
        raise ValueError("damping must be in [0, 1)")
    edge_var = g.edge_vars
    n_edges = len(edge_var)
    q = g.q
    log_fields = np.where(_pin_fields(g) > 0, 0.0, -np.inf)[edge_var]
    # edge e sits on slot open_slot[e] of factor factor_of[e]; the factor's
    # other slots feed its message, in slot order
    factor_of, open_slot = slot_layout(g.arities)
    pos = np.arange(g.slots.shape[1] - 1)
    others = g.slots[factor_of[:, None], pos + (pos >= open_slot[:, None])]
    ks, tables = g.arities[factor_of], g.tables[factor_of]

    v2f = np.full((n_edges, q), 1.0 / q)
    f2v = np.full((n_edges, q), 1.0 / q)

    change = np.inf
    iters = 0
    for iters in range(1, max_iters + 1):
        new_f2v = g.family.contract(ks, tables, v2f[others], open_slot)
        new_f2v = np.clip(new_f2v, 0.0, None)
        new_f2v /= new_f2v.sum(axis=1, keepdims=True)

        log_f2v = np.log(new_f2v)
        incoming = np.stack([np.bincount(edge_var, weights=log_f2v[:, s], minlength=g.n)
                             for s in range(q)], axis=1)
        new_v2f = log_fields + incoming[edge_var] - log_f2v
        top = new_v2f.max(axis=1, keepdims=True)
        if not np.isfinite(top).all():
            raise ValueError("message normaliser vanished")
        new_v2f = np.exp(new_v2f - top)
        new_v2f /= new_v2f.sum(axis=1, keepdims=True)

        f2v_next = damping * f2v + (1 - damping) * new_f2v
        v2f_next = damping * v2f + (1 - damping) * new_v2f
        change = max(
            float(np.abs(f2v_next - f2v).max()) if n_edges else 0.0,
            float(np.abs(v2f_next - v2f).max()) if n_edges else 0.0,
        )
        f2v, v2f = f2v_next, v2f_next
        if change < tol:
            return BPState(g, v2f, f2v, iters, change, True)
    return BPState(g, v2f, f2v, iters, change, False)


def _beliefs(state: BPState) -> np.ndarray:
    """Unnormalised beliefs: each pin field times the variable's incoming messages."""
    g = state.graph
    beliefs = _pin_fields(g)
    np.multiply.at(beliefs, g.edge_vars, state.fac_to_var)
    return beliefs


def bp_marginals(state: BPState) -> np.ndarray:
    beliefs = _beliefs(state)
    return beliefs / beliefs.sum(axis=1, keepdims=True)


def bethe_instance(state: BPState) -> float:
    """Instance Bethe free entropy at the current messages.

    Variable, factor and edge terms; exact log Z when the graph is a tree
    and the messages are at the fixed point.  A factor's mix is its message
    at the last slot closed with that slot's incoming message.
    """
    g, v2f = state.graph, state.var_to_fac
    last = g.slots[np.arange(g.m), g.arities - 1]
    messages = g.family.contract(g.arities, g.tables, v2f[g.slots], g.arities - 1)
    factor = np.log((messages * v2f[last]).sum(axis=1)).sum()
    variable = np.log(_beliefs(state).sum(axis=1)).sum()
    edge = np.log((state.fac_to_var * state.var_to_fac).sum(axis=1)).sum()
    return float(factor + variable - edge)
