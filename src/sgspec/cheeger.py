"""Frustration index, sub-bipartition functional and exact k-way Cheeger constants.

Every quantity here is a 1-Rayleigh quotient: a sub-bipartition (V1, V2)
scores the quotient of t = 1_V1 - 1_V2, sum_e w_e |t_u - sigma_e t_v| over
sum_x mu_x |t_x|. Scores are exact integers on ``SignedGraph.scaled_ints``,
whose one common denominator cancels in every quotient; a Fraction is
built only for a returned value. The k-way constant is found by minimizing,
over all families of k disjoint nonempty vertex sets, the maximum of the
per-set minimum (frustration + boundary) / volume. One pass over the labelings
up to sign, in int8 blocks, gives the per-set optima; each layer of a bitmask
packing DP on their exact ranks reduces over the pairs (+1 set, -1 set).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import GraphError, SignedGraph, _exponent, _seed, _vertices

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
FRUSTRATION_RESTARTS = 16  # random starts of the local search above FRUSTRATION_ENUM_CAP
HEURISTIC_RESTARTS = 32  # random starts of cheeger_k's heuristic
_BLOCK = 1 << 12
_LOW = 6  # a block of labelings runs over the last _LOW entries: 3**6 <= _BLOCK


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
    """The 1-Rayleigh numerators sum_e w_e |t_u - sigma_e t_v| of the
    columns of ``t`` (labelings in {-1, 0, +1}, int8 to keep the gathers
    small) over the edges ``(eu, ev)``."""
    return w @ np.abs(t[eu] - sigma[:, None] * t[ev])


def _quotients(d, t):
    """Exact 1-Rayleigh quotients of the columns of ``t`` as integer arrays
    (numerators, denominators) in ``scaled_ints`` units."""
    eu, ev, sigma, w, mu = d
    return _numerators(t, eu, ev, sigma, w), mu @ np.abs(t)


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
    v1, v2 = _vertices(g, v1), _vertices(g, v2)
    if v1 & v2:
        raise GraphError("sub-bipartition sides must be disjoint")
    if not v1 | v2:
        raise GraphError("sub-bipartition must be nonempty")
    t = np.array([[(x in v1) - (x in v2)] for x in range(g.n)], np.int8)
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
        t = (1 - 2 * (((codes << 1) >> np.arange(len(omega))[:, None]) & 1)).astype(np.int8)
        iota = _numerators(t, *edges)
        i = int(np.argmin(iota))
        if best is None or iota[i] < best[1]:
            best = (start + i, iota[i])
    return best


def frustration_index(g: SignedGraph, omega, heuristic: bool = False):
    """Weighted frustration index of the induced signature on omega.

    Returns ``(value, tau, exact)`` where value = 2 * minimum violated
    weight (a Fraction), tau maps vertex index -> +-1 and ``exact`` is False
    only for the local-search fallback on large sets.
    """
    omega = np.array(sorted(_vertices(g, omega)), np.intp)
    if not len(omega):
        raise GraphError("frustration index of the empty set is undefined")
    d = _int_arrays(g)
    exact = len(omega) <= FRUSTRATION_ENUM_CAP
    if not exact and not heuristic:
        raise GraphError(
            f"frustration enumeration capped at {FRUSTRATION_ENUM_CAP} vertices; "
            "pass heuristic=True for a flagged local search"
        )
    # +1 on V1 of the best code (see _best_bipartition), or the local search's labeling
    t = (1 - 2 * (_best_bipartition(d, omega)[0] << 1 >> np.arange(len(omega)) & 1) if exact
         else _frustration_local_search(d, omega))
    iota = _numerators(t[:, None], *_induced(d, omega))[0]
    # back from scaled_ints units: mu_0 scales to scaled_ints[0][0]
    value = int(iota) * Fraction(g.mu[0]) / g.scaled_ints[0][0]
    return value, {int(x): int(s) for x, s in zip(omega, t)}, exact


def _frustration_local_search(d, omega):
    """A +-1 labeling of omega after flip-improving local search from random
    labelings; gains are exact integers."""
    rng = np.random.default_rng(0)
    edges = list(zip(*(a.tolist() for a in _induced(d, omega))))
    best_t, best = None, None
    for _ in range(FRUSTRATION_RESTARTS):
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
        val = _numerators((1 - 2 * lab)[:, None], *_induced(d, omega))[0]
        if best is None or val < best:
            best, best_t = val, 2 * lab - 1
    return best_t


@dataclass(frozen=True)
class CheegerResult:
    value: Fraction
    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    pair_values: tuple[Fraction, ...]
    subsets_scored: int
    exact: bool = True


def _labelings(n: int):
    """The (3**n - 1) / 2 labelings in {-1, 0, +1}^n led by +1 (first nonzero entry), as
    blocks ``(t, pos, neg)``: int8 columns t and the bitmasks of their +1 and -1 entries.
    One scan drives both the Cheeger table and ``one_lap_enumerate``'s sign patterns. A block
    runs over the last min(n, _LOW) entries under one such labeling of the first h, or
    under zeros; in it the earlier entries vary slower, each through 0, +1, -1, so zero-led
    labelings come first: (0, 0, 1) before (1, 0, 0)."""
    h = max(n - _LOW, 0)
    low, pos, neg = np.zeros((0, 1), np.int8), np.zeros(1, np.int64), np.zeros(1, np.int64)
    for i in reversed(range(h, n)):  # entry i leads: 0, +1, -1 in turn
        low = np.vstack((np.repeat(np.int8((0, 1, -1)), low.shape[1]), np.tile(low, 3)))
        pos, neg = np.r_[pos, pos | 1 << i, pos], np.r_[neg, neg, neg | 1 << i]
    for t, p, q in _labelings(h) if h else ():
        for i in range(t.shape[1]):
            yield np.vstack((np.repeat(t[:, [i]], low.shape[1], 1), low)), pos | p[i], neg | q[i]
    lead = (pos & (pos | neg) & -(pos | neg)) != 0  # the lowest nonzero entry is +1
    yield np.vstack((np.zeros((h, lead.sum()), np.int8), low[:, lead])), pos[lead], neg[lead]


def _ranks(nums, dens, bound: int) -> np.ndarray:
    """Dense ranks (from 0) of the fractions nums[i] / dens[i], Python ints
    with 0 < dens[i] <= bound. Two different ones differ by at least
    1 / bound**2, so floor(v * bound**2) keeps their order and their ties."""
    scale = bound**2
    keys = np.array([a * scale // b for a, b in zip(nums, dens)], dtype=object)
    return np.unique(keys, return_inverse=True)[1].ravel()


def _cheeger_exact(g: SignedGraph, ks) -> list[CheegerResult]:
    """Exact h_k for each k in ``ks``: one table of sets, packing layers up to max(ks)."""
    n = g.n
    for k in ks:
        _seed(k, "k")
        if not 1 <= k <= n:
            raise GraphError(f"k must be between 1 and n={n}")
        if n > (cap := DEFAULT_CAPS.get(k, DEFAULT_CAPS[3])):
            raise GraphError(f"cheeger_k exact enumeration capped at n={cap} for k={k} (graph "
                             f"has n={n}); pass heuristic=True for a flagged local search")
    eu, ev, sigma, w, mu = _int_arrays(g)
    size, full = 1 << n, (1 << n) - 1
    # Per mask S: num[S], the least numerator with support S (boundary + iota),
    # and v2[S], the least -1 set among its ties (_best_bipartition's choice).
    num, v2 = np.full(size, 2 * w.sum() + 1, w.dtype), np.zeros(size, np.int64)
    for t, pos, neg in _labelings(n):
        s, a = pos | neg, _numerators(t, eu, ev, sigma, w)
        old = num[s]
        np.minimum.at(num, s, a)
        v2[s[num[s] < old]] = size  # a smaller numerator voids an earlier block's witness
        hit = a == num[s]
        np.minimum.at(v2, s[hit], neg[hit])
    vol = mu @ (np.arange(size) >> np.arange(n)[:, None] & 1)

    inf = size  # above every rank; stands for "no family fits"
    b = np.concatenate(([inf], _ranks(num[1:].tolist(), vol[1:].tolist(), int(vol[full]))))

    # D_j[mask]: minimal max-rank over j disjoint nonempty groups inside mask.
    # j = 1: subset-min transform; per bit, masks with the bit take the
    # strictly smaller value of the mask without it.
    d1, c1 = b.copy(), np.arange(size)
    for bit in range(n):
        dv, cv = d1.reshape(-1, 2, 1 << bit), c1.reshape(-1, 2, 1 << bit)
        better = dv[:, 0] < dv[:, 1]
        dv[:, 1] = np.where(better, dv[:, 0], dv[:, 1])
        cv[:, 1] = np.where(better, cv[:, 0], cv[:, 1])
    # j >= 2: the least max(b[sub], D_{j-1}[rest]) over the disjoint pairs, a
    # labeling's +1 and -1 entries in either order, keyed so that ties go to
    # the largest sub, as a descending submask scan with strict < finds.
    layers = [(d1, c1)]
    for _j in range(2, max(ks) + 1):
        key = np.full(size, inf << n | full)  # no family: D = inf, choice 0
        for _, pos, neg in _labelings(n):
            for sub, rest in ((pos, neg), (neg, pos)):
                cand = np.maximum(b[sub], layers[-1][0][rest])
                np.minimum.at(key, sub | rest, cand << n | full ^ sub)
        layers.append((key >> n, full ^ (key & full)))

    results = []
    for k in ks:  # reconstruct the optimal family
        family, mask = [], full
        for _, choice in reversed(layers[:k]):
            family.insert(0, int(choice[mask]))
            mask ^= family[0]
        pair_values = tuple(Fraction(int(num[sub]), int(vol[sub])) for sub in family)
        sides = [(sub ^ v, v) for sub, v in zip(family, v2[family].tolist())]
        pairs = tuple(tuple(tuple(i for i in range(n) if x >> i & 1) for x in pr) for pr in sides)
        results.append(CheegerResult(max(pair_values), pairs, pair_values, subsets_scored=full))
    return results


def cheeger_k(g: SignedGraph, k: int, heuristic: bool = False) -> CheegerResult:
    """Exact k-way signed Cheeger constant by subset enumeration + packing DP."""
    _require_zero_kappa(g, "cheeger_k")
    _seed(k, "k")
    if heuristic and 1 <= k <= g.n and g.n > DEFAULT_CAPS.get(k, DEFAULT_CAPS[3]):
        return _cheeger_k_heuristic(g, k)
    return _cheeger_exact(g, (k,))[0]


def _cheeger_k_heuristic(g: SignedGraph, k: int) -> CheegerResult:
    """Local search over vertex assignments; result flagged inexact."""
    rng = np.random.default_rng(1)
    d = _int_arrays(g)
    n = g.n
    best_val, best_assign = None, None
    for _ in range(HEURISTIC_RESTARTS):
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
    pairs = tuple(tuple(tuple(int(x) for x in np.flatnonzero(best_assign == 2 * i + j))
                        for j in (1, 2)) for i in range(k))
    return CheegerResult(
        value=Fraction(*best_val),
        pairs=pairs,
        pair_values=tuple(beta(g, *pr) for pr in pairs),
        subsets_scored=0,
        exact=False,
    )


def _assignment_value(d, assign, k: int) -> tuple[int, int] | None:
    """The largest group quotient (numerator, denominator) of an
    assignment, or None when a group is empty."""
    group = (assign + 1) // 2  # 0 unused, i + 1 for group i
    sides = np.where(assign % 2, 1, -1).astype(np.int8)
    t = np.where(group[:, None] == np.arange(1, k + 1), sides[:, None], 0)
    if not t.any(axis=0).all():
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
    _exponent(p, single_valued=False)
    deg = g.weighted_degrees()
    c_const = float(np.max(deg / g.mu_array()))
    h_m, h_k = (float(r.value) for r in _cheeger_exact(g, (m, k)))
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
