"""Exact welfare-optimal allocation (the benchmark) and PoA ratios."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .valuations import Valuation, is_submodular


@dataclass(frozen=True)
class OptimalAssignment:
    """Welfare-maximizing allocation; units always sum to exactly k."""

    allocation: tuple[int, ...]
    value: float

    def to_json(self):
        return {"allocation": list(self.allocation), "value": self.value}


def optimal_allocation(vals: Sequence[Valuation], k: int) -> OptimalAssignment:
    """Maximize total value over integer allocations of exactly k units.

    Dynamic program over (bidder suffix, units left), O(n*k^2).  Because the
    curves are non-decreasing, insisting on exactly k units costs nothing;
    among maximizers the lexicographically smallest allocation is returned,
    so the benchmark is deterministic.
    """
    n = len(vals)
    if n == 0:
        raise ValueError("need at least one bidder")
    for v in vals:
        if v.k != k:
            raise ValueError("all valuations must share k")
    NEG = float("-inf")
    # best[i][u]: max welfare of bidders i..n-1 using exactly u units
    best = [[NEG] * (k + 1) for _ in range(n + 1)]
    best[n][0] = 0.0
    for i in range(n - 1, -1, -1):
        vi = vals[i].values
        row = best[i]
        nxt = best[i + 1]
        for u in range(k + 1):
            b = NEG
            for x in range(u + 1):
                rest = nxt[u - x]
                if rest == NEG:
                    continue
                cand = vi[x] + rest
                if cand > b:
                    b = cand
            row[u] = b
    total = best[0][k]
    alloc = []
    units = k
    for i in range(n):
        vi = vals[i].values
        target = best[i][units]
        for x in range(units + 1):
            rest = best[i + 1][units - x]
            if rest != float("-inf") and vi[x] + rest == target:
                alloc.append(x)
                units -= x
                break
    return OptimalAssignment(tuple(alloc), total)


def optimal_allocations(values: np.ndarray, k: np.ndarray):
    """optimal_allocation for a batch of rows, bit for bit: (units, welfare)
    arrays, where values[r, i, x] is bidder i's v(x) in row r with k[r]
    units.  Rows are padded with -inf above their k and, past v(0) = 0,
    for absent bidders: that changes neither the exactly-k DP nor its
    lexicographically smallest backtrack, which takes the first x of each
    bidder whose candidate equals the maximum."""
    rows, n, width = values.shape
    u, x = np.indices((width, width))
    # the candidates of bidder i for u units are v_i(x) + after[i][u - x],
    # after[i] being the best of bidders i + 1.. on each unit count; a -inf
    # column past its end stands for x > u
    rest = np.where(x <= u, u - x, width)
    after = [None] * n
    best = np.full((rows, width + 1), -np.inf)
    best[:, 0] = 0.0
    for i in range(n - 1, -1, -1):
        after[i] = best
        best = np.full((rows, width + 1), -np.inf)
        best[:, :width] = (values[:, i, None, :] + after[i][:, rest]).max(axis=2)
    r = np.arange(rows)
    welfare = best[r, k]
    units = k.copy()
    alloc = np.empty((rows, n), dtype=np.int64)
    for i in range(n):
        cands = values[:, i, :] + after[i][r[:, None], rest[units]]
        alloc[:, i] = np.argmax(cands == cands.max(axis=1)[:, None], axis=1)
        units -= alloc[:, i]
    return alloc, welfare


def enumerate_optimal(vals: Sequence[Valuation], k: int) -> OptimalAssignment:
    """Brute-force oracle: scan every allocation of exactly k units."""
    n = len(vals)
    best_alloc = None
    best_val = float("-inf")

    def rec(i, left, acc):
        nonlocal best_alloc, best_val
        if i == n - 1:
            if left > k:
                return
            cand = acc + vals[i].value(left)
            alloc = current + [left]
            if cand > best_val or (cand == best_val and tuple(alloc) < best_alloc):
                best_val = cand
                best_alloc = tuple(alloc)
            return
        for x in range(min(left, k) + 1):
            current.append(x)
            rec(i + 1, left - x, acc + vals[i].value(x))
            current.pop()

    current: list[int] = []
    rec(0, k, 0.0)
    return OptimalAssignment(best_alloc, best_val)


def greedy_optimal_submodular(vals: Sequence[Valuation], k: int) -> OptimalAssignment:
    """Fast path: give the k units to the k largest marginals.

    Valid only when every valuation is submodular (prefixes of sorted
    marginals are exactly the high-value bundles); rejects other inputs.
    """
    for v in vals:
        if v.k != k:
            raise ValueError("all valuations must share k")
        if not is_submodular(v):
            raise ValueError("greedy optimum requires submodular valuations")
    pool = []
    for i, v in enumerate(vals):
        for j, m in enumerate(v.marginals):
            pool.append((m, i, j))
    pool.sort(key=lambda e: (-e[0], e[1], e[2]))
    alloc = [0] * len(vals)
    for _, i, _ in pool[:k]:
        alloc[i] += 1
    value = sum(v.value(x) for v, x in zip(vals, alloc))
    return OptimalAssignment(tuple(alloc), value)


def poa_ratio(opt_value: float, eq_welfare: float) -> float:
    """Optimal welfare divided by equilibrium welfare."""
    if eq_welfare <= 0:
        raise ValueError("equilibrium welfare must be positive")
    return opt_value / eq_welfare
