"""Frustration index, sub-bipartition functional and exact k-way Cheeger constants.

Every quantity here is a 1-Rayleigh quotient: a sub-bipartition (V1, V2)
scores the quotient of t = 1_V1 - 1_V2, sum_e w_e |t_u - sigma_e t_v| over
sum_x mu_x |t_x|. Scores are exact integers on ``SignedGraph.scaled_ints``,
whose one common denominator cancels in every quotient; a Fraction is
built only for a returned value. The k-way constant is found by minimizing,
over all families of k disjoint nonempty vertex sets, the maximum of the
per-set minimum (frustration + boundary) / volume; per-set optima come from
one numpy pass over the bipartitions of each set, the family optimum from
a bitmask packing DP on the exact ranks of those scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import GraphError, SignedGraph

__all__ = [
    "beta",
    "frustration_index",
    "cheeger_k",
    "CheegerResult",
    "check_theorem41",
    "DEFAULT_CAPS",
]

DEFAULT_CAPS = {1: 14, 2: 10, 3: 8}
FRUSTRATION_ENUM_CAP = 24
_BLOCK = 1 << 12


def _require_zero_kappa(g: SignedGraph, what: str):
    if any(k != 0 for k in g.kappa):
        raise GraphError(f"{what} requires kappa == 0 everywhere")


def _int_arrays(g: SignedGraph):
    """``g.scaled_ints`` as arrays ``(eu, ev, sigma, w, mu)``. ``w`` and
    ``mu`` are int64 when every score fits (2 * sum(w) and sum(mu) below
    2**63), else Python ints (dtype object); the code is the same."""
    mu, _, edges, _ = g.scaled_ints
    w = [e[2] for e in edges]
    dtype = np.int64 if max(2 * sum(w), sum(mu)) < 2**63 else object
    return g.eu, g.ev, g.es.astype(np.int8), np.array(w, dtype), np.array(mu, dtype)


def _numerators(t, eu, ev, sigma, w):
    """The 1-Rayleigh numerators sum_e w_e |t_u - sigma_e t_v| of the rows
    of ``t`` (labelings in {-1, 0, +1}, int8 to keep the gathers small)
    over the edges ``(eu, ev)``."""
    return np.abs(t[:, eu] - sigma * t[:, ev]) @ w


def _quotients(d, t):
    """Exact 1-Rayleigh quotients of the rows of ``t`` as integer arrays
    (numerators, denominators) in ``scaled_ints`` units."""
    eu, ev, sigma, w, mu = d
    return _numerators(t, eu, ev, sigma, w), np.abs(t) @ mu


def _less(a, b) -> bool:
    """Whether the quotient a[0] / a[1] is below b[0] / b[1] (positive denominators)."""
    return a[0] * b[1] < b[0] * a[1]


def beta(g: SignedGraph, v1, v2) -> Fraction:
    """Sub-bipartition functional for one pair of disjoint vertex sets.

    Ordered-pair counting: |E^+-(A,B)| sums w_xy over ordered (x,y), so
    edges internal to A are counted twice in |E^-(A)|. This is the reading
    under which beta equals the 1-Rayleigh quotient of 1_V1 - 1_V2.
    """
    _require_zero_kappa(g, "beta")
    v1, v2 = set(v1), set(v2)
    if v1 & v2:
        raise GraphError("sub-bipartition sides must be disjoint")
    if not v1 | v2:
        raise GraphError("sub-bipartition must be nonempty")
    t = np.zeros((1, g.n), np.int8)
    t[0, list(v1)] = 1
    t[0, list(v2)] = -1
    num, den = _quotients(_int_arrays(g), t)
    return Fraction(int(num[0]), int(den[0]))


def _induced(d, omega):
    """The edges of ``d`` inside the sorted vertex array ``omega`` as
    ``(pu, pv, sigma, w)``, with endpoints indexed into omega."""
    eu, ev, sigma, w, mu = d
    local = np.full(len(mu), -1)
    local[omega] = np.arange(len(omega))
    pu, pv = local[eu], local[ev]
    inside = (pu >= 0) & (pv >= 0)
    return pu[inside], pv[inside], sigma[inside], w[inside]


def _best_bipartition(d, omega) -> tuple[int, int]:
    """``(code, iota)`` of the first least-violated bipartition of omega:
    bit i of code puts omega[i + 1] into V2 (omega[0] is pinned to V1), and
    iota is twice the violated weight, the numerator of the +-1 labeling
    over the edges inside omega. One numpy pass scores up to ``_BLOCK``
    labelings, which bounds the memory on large sets."""
    edges = _induced(d, omega)
    total = 1 << (len(omega) - 1)
    best = None
    for start in range(0, total, _BLOCK):
        codes = np.arange(start, min(start + _BLOCK, total))
        t = (1 - 2 * (((codes << 1)[:, None] >> np.arange(len(omega))) & 1)).astype(np.int8)
        iota = _numerators(t, *edges)
        i = int(np.argmin(iota))
        if best is None or iota[i] < best[1]:
            best = (start + i, iota[i])
    return best


def _sides(omega, code: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(V1, V2) of the bipartition ``code`` of omega (see ``_best_bipartition``)."""
    return (tuple(int(x) for i, x in enumerate(omega) if not (code << 1) >> i & 1),
            tuple(int(x) for i, x in enumerate(omega) if (code << 1) >> i & 1))


def frustration_index(g: SignedGraph, omega, heuristic: bool = False):
    """Weighted frustration index of the induced signature on omega.

    Returns ``(value, tau, exact)`` where value = 2 * minimum violated
    weight (a Fraction), tau maps vertex index -> +-1 and ``exact`` is False
    only for the local-search fallback on large sets.
    """
    omega = np.array(sorted(set(omega)), np.intp)
    if not len(omega):
        raise GraphError("frustration index of the empty set is undefined")
    d = _int_arrays(g)
    exact = len(omega) <= FRUSTRATION_ENUM_CAP
    if not exact and not heuristic:
        raise GraphError(
            f"frustration enumeration capped at {FRUSTRATION_ENUM_CAP} vertices; "
            "pass heuristic=True for a flagged local search"
        )
    if exact:
        side = _sides(omega, _best_bipartition(d, omega)[0])[0]
    else:
        side = _frustration_local_search(d, omega)
    t = np.array([[1 if x in side else -1 for x in omega]], np.int8)
    iota = _numerators(t, *_induced(d, omega))[0]
    # back from scaled_ints units: mu_0 scales to scaled_ints[0][0]
    value = int(iota) * Fraction(g.mu[0]) / g.scaled_ints[0][0]
    return value, {int(x): int(s) for x, s in zip(omega, t[0])}, exact


def _frustration_local_search(d, omega, restarts: int = 16) -> set[int]:
    """Side +1 of omega after flip-improving local search from random
    labelings; gains are exact integers."""
    rng = np.random.default_rng(0)
    edges = list(zip(*(a.tolist() for a in _induced(d, omega))))
    best_side, best = None, None
    for _ in range(restarts):
        lab = rng.integers(0, 2, size=len(omega))
        improved = True
        while improved:
            improved = False
            for i in range(len(omega)):
                gain = 0
                for pu, pv, s, w in edges:
                    if i in (pu, pv):
                        # a flip fixes a violated edge and breaks a satisfied one
                        gain += w if (lab[pu] != lab[pv]) == (s == 1) else -w
                if gain > 0:
                    lab[i] ^= 1
                    improved = True
        val = _numerators((1 - 2 * lab)[None], *_induced(d, omega))[0]
        if best is None or val < best:
            best, best_side = val, {int(omega[i]) for i in range(len(omega)) if lab[i] == 1}
    return best_side


@dataclass(frozen=True)
class CheegerResult:
    value: Fraction
    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    pair_values: tuple[Fraction, ...]
    subsets_scored: int
    exact: bool = True

    def value_float(self) -> float:
        return float(self.value)


def cheeger_k(g: SignedGraph, k: int, heuristic: bool = False) -> CheegerResult:
    """Exact k-way signed Cheeger constant by subset enumeration + packing DP."""
    _require_zero_kappa(g, "cheeger_k")
    n = g.n
    if not 1 <= k <= n:
        raise GraphError(f"k must be between 1 and n={n}")
    cap = DEFAULT_CAPS.get(k, DEFAULT_CAPS[3])
    if n > cap:
        if not heuristic:
            raise GraphError(
                f"cheeger_k exact enumeration capped at n={cap} for k={k} "
                f"(graph has n={n}); pass heuristic=True for a flagged local search"
            )
        return _cheeger_k_heuristic(g, k)
    d = eu, ev, _, w, mu = _int_arrays(g)
    size = 1 << n
    full = size - 1
    # Per mask: its boundary (the numerator of 1_mask on the all-positive
    # signature) and volume, then plus the least iota over its bipartitions.
    bits = ((np.arange(size)[:, None] >> np.arange(n)) & 1).astype(np.int8)
    num, vol = _numerators(bits, eu, ev, 1, w), bits @ mu
    codes = [0] * size
    for mask in range(1, size):
        codes[mask], iota = _best_bipartition(d, np.flatnonzero(bits[mask]))
        num[mask] += iota

    # Rank the scores num / vol exactly: two different ones, both with a
    # denominator at most V = vol[full], differ by at least 1 / V**2, so
    # floor(score * V**2) keeps their order and their ties.
    scale = int(vol[full]) ** 2
    keys = [a * scale // b for a, b in zip(num[1:].tolist(), vol[1:].tolist())]
    _, rank = np.unique(np.array(keys, dtype=object), return_inverse=True)
    inf = size  # above every rank; stands for "no family fits"
    b = np.concatenate(([inf], rank.ravel()))

    # D_j[mask]: minimal max-rank over j disjoint nonempty groups inside mask.
    # j = 1: min over nonempty submasks, via subset-min transform with
    # witnesses; per bit, masks with the bit take the strictly smaller value
    # of the mask without it.
    d1, c1 = b.copy(), np.arange(size)
    for bit in range(n):
        dv, cv = d1.reshape(-1, 2, 1 << bit), c1.reshape(-1, 2, 1 << bit)
        better = dv[:, 0] < dv[:, 1]
        dv[:, 1] = np.where(better, dv[:, 0], dv[:, 1])
        cv[:, 1] = np.where(better, cv[:, 0], cv[:, 1])
    b, d_prev, choice_layers = b.tolist(), d1.tolist(), [c1.tolist()]

    for _j in range(2, k + 1):
        d_cur, c_cur = [inf] * size, [0] * size
        for mask in range(1, size):
            sub = mask
            while sub:
                cand = max(b[sub], d_prev[mask ^ sub])
                if cand < d_cur[mask]:
                    d_cur[mask] = cand
                    c_cur[mask] = sub
                sub = (sub - 1) & mask
        d_prev = d_cur
        choice_layers.append(c_cur)

    # Reconstruct the optimal family.
    family, mask = [], full
    for layer in reversed(choice_layers):
        family.append(layer[mask])
        mask ^= family[-1]
    family.reverse()
    pair_values = tuple(Fraction(int(num[sub]), int(vol[sub])) for sub in family)
    return CheegerResult(
        value=max(pair_values),
        pairs=tuple(_sides(np.flatnonzero(bits[sub]), codes[sub]) for sub in family),
        pair_values=pair_values,
        subsets_scored=full,
    )


def _cheeger_k_heuristic(g: SignedGraph, k: int, restarts: int = 32) -> CheegerResult:
    """Local search over vertex assignments; result flagged inexact."""
    rng = np.random.default_rng(1)
    d = _int_arrays(g)
    n = g.n
    best_val, best_assign = None, None
    for _ in range(restarts):
        # assignment: 0 unused, 2i-1 / 2i the two sides of group i
        assign = rng.integers(0, 2 * k + 1, size=n)
        for i in range(k):  # ensure nonempty groups
            if not np.any((assign == 2 * i + 1) | (assign == 2 * i + 2)):
                assign[rng.integers(0, n)] = 2 * i + 1
        improved = True
        while improved:
            improved = False
            cur = _assignment_value(d, assign, k)
            if cur is None:
                break
            for x in range(n):
                old = assign[x]
                for new in range(2 * k + 1):
                    if new == old:
                        continue
                    assign[x] = new
                    val = _assignment_value(d, assign, k)
                    if val is not None and _less(val, cur):
                        cur = val
                        improved = True
                        break
                    assign[x] = old
        val = _assignment_value(d, assign, k)
        if val is not None and (best_val is None or _less(val, best_val)):
            best_val, best_assign = val, assign.copy()
    pairs = []
    vals = []
    for i in range(k):
        v1 = tuple(int(x) for x in np.nonzero(best_assign == 2 * i + 1)[0])
        v2 = tuple(int(x) for x in np.nonzero(best_assign == 2 * i + 2)[0])
        pairs.append((v1, v2))
        vals.append(beta(g, v1, v2))
    return CheegerResult(
        value=Fraction(*best_val),
        pairs=tuple(pairs),
        pair_values=tuple(vals),
        subsets_scored=0,
        exact=False,
    )


def _assignment_value(d, assign, k: int) -> tuple[int, int] | None:
    """The largest group quotient (numerator, denominator) of an
    assignment, or None when a group is empty."""
    group = (assign + 1) // 2  # 0 unused, i + 1 for group i
    sides = np.where(assign % 2, 1, -1).astype(np.int8)
    t = np.where(group == np.arange(1, k + 1)[:, None], sides, 0)
    if not t.any(axis=1).all():
        return None
    best = (0, 1)
    for q in zip(*(a.tolist() for a in _quotients(d, t))):
        if _less(best, q):
            best = q
    return best


def check_theorem41(g: SignedGraph, p: float, k: int, lambda_k: float, m: int) -> dict:
    """Two-sided Cheeger bound check for a certified variational eigenvalue.

    Evaluates (2^(p-1) / (C^(p-1) p^p)) h_m^p <= lambda_k <= 2^(p-1) h_k
    with C = max_x (sum_y w_xy) / mu_x, and reports slack on both sides.
    """
    _require_zero_kappa(g, "check_theorem41")
    deg = g.weighted_degrees()
    c_const = float(np.max(deg / g.mu_array()))
    h_m = float(cheeger_k(g, m).value)
    h_k = float(cheeger_k(g, k).value)
    lower = 2.0 ** (p - 1) / (c_const ** (p - 1) * p ** p) * h_m ** p
    upper = 2.0 ** (p - 1) * h_k
    return {
        "theorem": "cheeger-two-sided",
        "p": p,
        "k": k,
        "m": m,
        "C": c_const,
        "h_m": h_m,
        "h_k": h_k,
        "lambda_k": lambda_k,
        "lower": lower,
        "upper": upper,
        "lower_slack": lambda_k - lower,
        "upper_slack": upper - lambda_k,
        "pass": lower <= lambda_k + 1e-9 and lambda_k <= upper + 1e-9,
    }
