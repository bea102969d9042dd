"""Frustration index, sub-bipartition functional and exact k-way Cheeger constants.

Every quantity here is a 1-Rayleigh quotient: a sub-bipartition (V1, V2)
scores the quotient of t = 1_V1 - 1_V2, sum_e w_e |t_u - sigma_e t_v| over
sum_x mu_x |t_x|. Every numpy pass scores exact integers on
``SignedGraph.reduced_ints``, whose gcds multiply every quotient by one
positive constant and so keep every rank, tie and argmin. A returned value
is one exact quotient in Python ints on ``SignedGraph.scaled_ints``
(``_quotient``), or, for the frustration index, a sum of Fractions of the
weights. The k-way constant is found by minimizing,
over all families of k disjoint nonempty vertex sets, the maximum of the
per-set minimum (frustration + boundary) / volume. One pass over the labelings
up to sign, in int8 blocks, gives the per-set optima; each layer of a bitmask
packing DP on their exact ranks reduces over the pairs (+1 set, -1 set).
Past the enumeration caps both fall back, when asked, on one
first-improvement local search, ``_descend``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import GraphError, SignedGraph, _eigenvalue, _exponent, _seed, _vertices

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


def _numerators(t, eu, ev, sigma, w):
    """The 1-Rayleigh numerators sum_e w_e |t_u - sigma_e t_v| of the
    columns of ``t`` (labelings in {-1, 0, +1}, int8 to keep the gathers
    small) over the edges ``(eu, ev)``."""
    return w @ np.abs(t[eu] - sigma[:, None] * t[ev])


def _quotient(g: SignedGraph, v1, v2) -> Fraction:
    """The 1-Rayleigh quotient of 1_v1 - 1_v2, exactly: Python ints on
    ``g.scaled_ints``, whose one common denominator cancels."""
    mu, _, edges = g.scaled_ints
    t = [(x in v1) - (x in v2) for x in range(g.n)]
    return Fraction(sum(w * abs(t[u] - s * t[v]) for u, v, w, s in edges),
                    sum(m for m, x in zip(mu, t) if x))


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
    return _quotient(g, v1, v2)


def _descend(a, states: int, score):
    """First-improvement local search on the int array ``a``, in place:
    each entry in turn takes the first other value in range(states) that
    lowers ``score(a)``, until a pass over all entries moves none. ``score``
    is None where ``a`` is infeasible, which no move reaches, and the start
    must be feasible. Returns the last score."""
    cur, improved = score(a), True
    while improved:
        improved = False
        for x in range(len(a)):
            old = a[x]
            for new in range(states):
                if new != old:
                    a[x] = new
                    val = score(a)
                    if val is not None and val < cur:
                        cur, improved = val, True
                        break
            else:
                a[x] = old
    return cur


def _induced(g: SignedGraph, omega):
    """The edges of g inside the sorted vertex array ``omega`` as
    ``(pu, pv, sigma, w)``, with endpoints indexed into omega and w from
    ``g.reduced_ints``."""
    local = np.full(g.n, -1)
    local[omega] = np.arange(len(omega))
    pu, pv = local[g.eu], local[g.ev]
    inside = (pu >= 0) & (pv >= 0)
    return pu[inside], pv[inside], g.es[inside].astype(np.int8), g.reduced_ints[2][inside]


def _best_bipartition(g: SignedGraph, omega) -> tuple[int, int]:
    """``(code, iota)`` of the first least-violated bipartition of omega:
    bit i of code puts omega[i + 1] into V2 (omega[0] is pinned to V1), and
    iota is twice the violated weight, the numerator of the +-1 labeling
    over the edges inside omega. One numpy pass scores up to ``_BLOCK``
    labelings, which bounds the memory on large sets."""
    edges = _induced(g, omega)
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
    exact = len(omega) <= FRUSTRATION_ENUM_CAP
    if not exact and not heuristic:
        raise GraphError(
            f"frustration enumeration capped at {FRUSTRATION_ENUM_CAP} vertices; "
            "pass heuristic=True for a flagged local search"
        )
    # +1 on V1 of the best code (see _best_bipartition), or the local search's labeling
    t = (1 - 2 * (_best_bipartition(g, omega)[0] << 1 >> np.arange(len(omega)) & 1) if exact
         else _frustration_local_search(g, omega))
    tau = {int(x): int(s) for x, s in zip(omega, t)}
    value = sum((2 * Fraction(w) for u, v, w, s in g.edges
                 if u in tau and v in tau and tau[u] * s * tau[v] < 0), Fraction(0))
    return value, tau, exact


def _frustration_local_search(g: SignedGraph, omega):
    """A +-1 labeling of omega, the best of ``_descend`` from
    FRUSTRATION_RESTARTS random labelings; scores are exact integers."""
    rng = np.random.default_rng(0)
    edges = _induced(g, omega)
    best_t, best = None, None
    for _ in range(FRUSTRATION_RESTARTS):
        lab = rng.integers(0, 2, size=len(omega))
        val = _descend(lab, 2, lambda a: _numerators((1 - 2 * a)[:, None], *edges)[0])
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


def _refusal(n: int, k) -> GraphError | None:
    """Why h_k on n vertices is not enumerated: a GraphError, raised, unless
    k is an int in [1, n]; the cap's GraphError, returned, when n is past
    the cap for k; else None."""
    _seed(k, "k")
    if not 1 <= k <= n:
        raise GraphError(f"k must be between 1 and n={n}")
    if n > (cap := DEFAULT_CAPS.get(k, DEFAULT_CAPS[3])):
        return GraphError(f"cheeger_k exact enumeration capped at n={cap} for k={k} (graph "
                          f"has n={n}); pass heuristic=True for a flagged local search")
    return None


def _cheeger_exact(g: SignedGraph, ks) -> list[CheegerResult]:
    """Exact h_k for each k in ``ks``, none refused by ``_refusal``: one
    table of sets, packing layers up to max(ks)."""
    n, eu, ev, sigma = g.n, g.eu, g.ev, g.es.astype(np.int8)
    mu, _, w, _ = g.reduced_ints
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
        sides = [(sub ^ v, v) for sub, v in zip(family, v2[family].tolist())]
        pairs = tuple(tuple(tuple(i for i in range(n) if x >> i & 1) for x in pr) for pr in sides)
        pair_values = tuple(_quotient(g, *pr) for pr in pairs)
        results.append(CheegerResult(max(pair_values), pairs, pair_values, subsets_scored=full))
    return results


def cheeger_k(g: SignedGraph, k: int, heuristic: bool = False) -> CheegerResult:
    """Exact k-way signed Cheeger constant by subset enumeration + packing DP."""
    _require_zero_kappa(g, "cheeger_k")
    if (refusal := _refusal(g.n, k)) is None:
        return _cheeger_exact(g, (k,))[0]
    if heuristic:
        return _cheeger_k_heuristic(g, k)
    raise refusal


def _cheeger_k_heuristic(g: SignedGraph, k: int) -> CheegerResult:
    """``_descend`` over assignments of the vertices, 0 unused and 2i + 1,
    2i + 2 the two sides of group i < k, from HEURISTIC_RESTARTS random
    starts, to the least largest group quotient; result flagged inexact."""
    rng = np.random.default_rng(1)
    n, eu, ev, sigma = g.n, g.eu, g.ev, g.es.astype(np.int8)
    mu, _, w, _ = g.reduced_ints
    groups = np.arange(1, k + 1)

    def score(assign):  # the largest group quotient, None when a group is empty
        t = np.where((assign[:, None] + 1) // 2 == groups,
                     np.where(assign % 2, 1, -1)[:, None], 0).astype(np.int8)
        dens = mu @ np.abs(t)
        return max(map(Fraction, _numerators(t, eu, ev, sigma, w).tolist(), dens.tolist())
                   ) if dens.all() else None

    best = None
    for _ in range(HEURISTIC_RESTARTS):
        assign = rng.integers(0, 2 * k + 1, size=n)
        for i in groups:  # a drawn vertex for each empty group ...
            if not np.any((assign + 1) // 2 == i):
                assign[rng.integers(0, n)] = 2 * i - 1
        for i in groups:  # ... may empty an earlier one: refill it, undrawn, from the
            group = (assign + 1) // 2  # unused vertices or a group of two or more
            if not np.any(group == i):
                spare = (group == 0) | (np.bincount(group)[group] > 1)
                assign[np.flatnonzero(spare)[0]] = 2 * i - 1
        val = _descend(assign, 2 * k + 1, score)
        if best is None or val < best[0]:
            best = val, assign
    pairs = tuple(tuple(tuple(np.flatnonzero(best[1] == 2 * i + j).tolist()) for j in (1, 2))
                  for i in range(k))
    pair_values = tuple(_quotient(g, *pr) for pr in pairs)
    return CheegerResult(max(pair_values), pairs, pair_values, subsets_scored=0, exact=False)


def check_theorem41(g: SignedGraph, p: float, k: int, lambda_k: float, m: int) -> dict:
    """Two-sided Cheeger bound check for a certified variational eigenvalue.

    Evaluates (2^(p-1) / (C^(p-1) p^p)) h_m^p <= lambda_k <= 2^(p-1) h_k
    with C = max_x (sum_y w_xy) / mu_x, and reports slack on both sides.
    lambda_k is a finite real number, not a bool or a str, within the float
    range of the bounds.
    """
    _require_zero_kappa(g, "check_theorem41")
    _exponent(p, single_valued=False)
    try:
        lambda_k = float(_eigenvalue(lambda_k))
    except OverflowError:
        raise GraphError("lambda_k is beyond the float range of the bounds") from None
    for j in (m, k):
        if (refusal := _refusal(g.n, j)) is not None:
            raise refusal
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
