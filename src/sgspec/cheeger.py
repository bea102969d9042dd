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
per-set minimum (frustration + boundary) / volume. The labelings up to sign
form a grid, high rows by low columns (``_grid``): a labeling's numerator is
a row term plus a column term plus the cross terms, one gathered row of a
table per pair of high vertices. ``_grouped_min`` takes the least value per
support over slabs of whole rows, by ``np.minimum.reduceat`` on both axes;
it gives the per-set optima, and each layer of a bitmask packing DP on their
exact ranks, a grouped minimum over the pairs (+1 set, -1 set).
Past the enumeration caps both fall back, when asked, on one
first-improvement local search, ``_descend``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

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
_SLAB = 1 << 13  # entries of one slab of the Cheeger table's grid (whole rows, at least one)


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


@cache
def _low(n: int):
    """``(h, t, pos, neg)``: the split of n vertices into the high first h =
    max(n - _LOW, 0) and the low last n - h, and all 3**(n - h) labelings of
    the low ones as int8 columns t with the bitmasks of their +1 and -1
    entries, bit i for low vertex h + i. The earlier entries vary slower,
    each through 0, +1, -1, so zero-led labelings come first."""
    h = max(n - _LOW, 0)
    t, pos, neg = np.zeros((0, 1), np.int8), np.zeros(1, np.int64), np.zeros(1, np.int64)
    for i in reversed(range(n - h)):  # entry i leads: 0, +1, -1 in turn
        t = np.vstack((np.repeat(np.int8((0, 1, -1)), t.shape[1]), np.tile(t, 3)))
        pos, neg = np.r_[pos, pos | 1 << i, pos], np.r_[neg, neg, neg | 1 << i]
    for arr in (t, pos, neg):
        arr.flags.writeable = False
    return h, t, pos, neg


def _labelings(n: int):
    """The (3**n - 1) / 2 labelings in {-1, 0, +1}^n led by +1 (first nonzero entry), as
    blocks ``(t, pos, neg)``: int8 columns t and the bitmasks of their +1 and -1 entries.
    These are ``one_lap_enumerate``'s sign patterns; the Cheeger table scores the same
    split as a grid (``_grid``). A block runs over all the low labelings of ``_low(n)``
    under one such labeling of the high vertices, or under zeros over the low labelings
    led by +1: (0, 0, 1) before (1, 0, 0)."""
    h, low, pos, neg = _low(n)
    pos, neg = pos << h, neg << h
    for t, p, q in _labelings(h) if h else ():
        for i in range(t.shape[1]):
            yield np.vstack((np.repeat(t[:, [i]], low.shape[1], 1), low)), pos | p[i], neg | q[i]
    lead = (pos & (pos | neg) & -(pos | neg)) != 0  # the lowest nonzero entry is +1
    yield np.vstack((np.zeros((h, lead.sum()), np.int8), low[:, lead])), pos[lead], neg[lead]


@cache
def _grid(n: int):
    """The labelings of n vertices up to sign as a grid of high rows by low
    columns (``_low(n)``'s split): ``(rows, cols)``. rows = (t, pos, neg, sup)
    holds the zero labeling and the high labelings led by +1, cols = (t, pos,
    neg, start) every low labeling, each sorted by support sup = pos | neg;
    start[s] is the first column of low support s, every one of the 2**(n - h)
    present. Row r and column c are the labeling of support sup[r] |
    sup(c) << h, led by +1 wherever row r is nonzero."""
    h, t, pos, neg = _low(n)
    blocks = list(_labelings(h)) if h else []
    rt = np.hstack([np.zeros((h, 1), np.int8), *(b[0] for b in blocks)])
    rpos, rneg = (np.concatenate([[0], *(b[i] for b in blocks)]) for i in (1, 2))
    rows, cols = np.argsort(rpos | rneg, kind="stable"), np.argsort(pos | neg, kind="stable")
    start = np.searchsorted((pos | neg)[cols], np.arange((1 << (n - h)) + 1))
    grid = ((rt[:, rows], rpos[rows], rneg[rows], (rpos | rneg)[rows]),
            (t[:, cols], pos[cols], neg[cols], start))
    for arr in (*grid[0], *grid[1]):
        arr.flags.writeable = False
    return grid


def _grouped_min(n: int, slab, out):
    """Lowers ``out[S]``, a (2**n,) array, to the least value of the
    labelings of support S, where ``slab(r0, r1)`` holds the values of grid
    rows r0 to r1 (``_grid(n)``) over all its columns. A slab has at most
    ``_SLAB`` entries, or one row; one ``np.minimum.reduceat`` over the
    columns' low supports and one over the rows' high supports group it."""
    (rt, _, _, sup), (ct, _, _, start) = _grid(n)
    table = out.reshape(-1, 1 << rt.shape[0])  # table[low support, high support]
    step = max(_SLAB // ct.shape[1], 1)
    for r0 in range(0, sup.size, step):
        s = sup[r0:r0 + step]
        first = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        least = np.minimum.reduceat(np.minimum.reduceat(slab(r0, r0 + s.size), start[:-1], axis=1),
                                    first, axis=0)
        table[:, s[first]] = np.minimum(table[:, s[first]], least.T)


def _ranks(nums, dens, bound: int) -> np.ndarray:
    """Dense ranks (from 0) of the fractions nums[i] / dens[i], integer
    arrays with 0 < dens[i] <= bound. Two different ones differ by at least
    1 / bound**2, so floor(v * bound**2) keeps their order and their ties.
    When nums is int64 and bound**3 < 2**63 that key is split in int64 as
    (floor(v), floor((v - floor(v)) * bound**2)) and ranked by one lexsort;
    else it is one Python int per fraction."""
    scale = bound**2
    if nums.dtype == object or bound * scale >= 2**63:
        keys = np.array([a * scale // b for a, b in zip(nums.tolist(), dens.tolist())], object)
        return np.unique(keys, return_inverse=True)[1].ravel()
    dens = dens.astype(np.int64)
    whole, part = np.divmod(nums, dens)
    part = part * scale // dens
    order = np.lexsort((part, whole))
    whole, part = whole[order], part[order]
    ranks = np.empty(order.size, np.int64)
    ranks[order] = np.cumsum(np.r_[False, (whole[1:] != whole[:-1]) | (part[1:] != part[:-1])])
    return ranks


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
    table of sets, packing layers up to max(ks), each one ``_grouped_min``."""
    n, sigma = g.n, g.es.astype(np.int8)
    mu, _, w, _ = g.reduced_ints
    size, full = 1 << n, (1 << n) - 1
    (rt, rpos, rneg, rsup), (ct, cpos, cneg, start) = _grid(n)
    h = rt.shape[0]
    # A labeling's numerator, row r by column c: the edges inside the high
    # vertices score at the row, those inside the low ones at the column, and
    # a cross edge xy (x high, y low) scores w |t_x - sigma t_y|, which is
    # w |t_y| at t_x = 0 and w (1 - t_x sigma t_y) else. The high vertices
    # score in pairs (a zero vertex pads an odd h) from pair[i, 3 t_x + t_x' + 4].
    inner, outer = g.ev < h, g.eu >= h
    row_num = _numerators(rt, g.eu[inner], g.ev[inner], sigma[inner], w[inner])
    col_num = _numerators(ct, g.eu[outer] - h, g.ev[outer] - h, sigma[outer], w[outer])
    e = ~inner & ~outer
    m = np.zeros((h + h % 2, n - h), w.dtype)  # m[x, y - h] = w sigma of the cross edge xy
    m[g.eu[e], g.ev[e] - h] = w[e] * sigma[e]
    flip, reach = m @ ct, abs(m).sum(1)[:, None]
    cross = np.stack((reach + flip, abs(m) @ abs(ct), reach - flip), 1)  # [x, 1 + t_x, c]
    pair = (cross[0::2, :, None] + cross[1::2, None]).reshape(-1, 9, ct.shape[1])
    pair_of = 3 * rt[0::2] + 4
    pair_of[:h // 2] += rt[1::2]

    def scores(r0, r1, cols=slice(None)):
        out = row_num[r0:r1, None] + col_num[cols]
        for table, i in zip(pair, pair_of[:, r0:r1]):
            out += table[:, cols][i]
        return out

    # num[S], the least numerator with support S (boundary + iota)
    num = np.full(size, 2 * w.sum() + 1, w.dtype)
    _grouped_min(n, scores, num)
    vol = mu @ (np.arange(size) >> np.arange(n)[:, None] & 1)

    inf = size  # above every rank; stands for "no family fits"
    b = np.concatenate(([inf], _ranks(num[1:], vol[1:], int(vol[full]))))

    # D_j[mask]: minimal max-rank over j disjoint nonempty groups inside mask,
    # and the choice of its first group, as the key D << n | full ^ choice, so
    # that ties go to the largest choice, as a descending submask scan with
    # strict < finds. j = 1: the subset-min transform of b; per bit, masks
    # with the bit take the key of the mask without it where it is smaller.
    key = b << n | full ^ np.arange(size)
    for bit in range(n):
        kv = key.reshape(-1, 2, 1 << bit)
        np.minimum(kv[:, 1], kv[:, 0], out=kv[:, 1])
    layers = [(key >> n, full ^ (key & full))]
    # j >= 2: the least max(b[sub], D_{j-1}[rest]) over the disjoint pairs, a
    # labeling's +1 and -1 entries in either order.
    split = ((rpos, cpos, rneg, cneg), (rneg, cneg, rpos, cpos))
    for _j in range(2, max(ks) + 1):
        key = np.full(size, inf << n | full)  # no family: D = inf, choice 0
        by_sub, by_rest = ((x << n).reshape(-1, 1 << h) for x in (b, layers[-1][0]))

        def keys(r0, r1):
            return np.minimum(*(
                np.maximum(by_sub[:, hs[r0:r1]].T[:, ls], by_rest[:, hr[r0:r1]].T[:, lr])
                + (full ^ hs[r0:r1])[:, None] - (ls << h) for hs, ls, hr, lr in split))

        _grouped_min(n, keys, key)
        layers.append((key >> n, full ^ (key & full)))

    def witness(s):  # the least -1 set among the ties of support s led by +1
        hs, ls = s & (1 << h) - 1, s >> h
        r0, r1 = np.searchsorted(rsup, (hs, hs + 1))
        cols = slice(start[ls], start[ls + 1])
        tie = scores(r0, r1, cols) == num[s]
        if not hs:  # the zero row: the columns led by +1
            tie &= (cpos[cols] & ls & -ls) != 0
        return int((rneg[r0:r1, None] | cneg[cols] << h)[tie].min())

    results = []
    for k in ks:  # reconstruct the optimal family
        family, mask = [], full
        for _, choice in reversed(layers[:k]):
            family.insert(0, int(choice[mask]))
            mask ^= family[0]
        sides = [(sub ^ v, v) for sub, v in zip(family, map(witness, family))]
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
