"""Valuation curves over unit counts, class predicates and random generators.

A valuation assigns a non-negative value to each unit count 0..k, with
v(0) = 0 and v non-decreasing.  Bidders are described entirely by such a
curve; the marginal value of the j-th unit is m(j) = v(j) - v(j-1).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

# Slack for class predicates only; construction/validation is exact.
_PRED_TOL = 1e-12


def _json_float(value, name: str) -> float:
    """A number read from JSON: an int or a float, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Valuation:
    """Non-decreasing value curve v(0..k) with v(0) = 0."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) < 2:
            raise ValueError("valuation needs at least v(0) and v(1)")
        if self.values[0] != 0.0:
            raise ValueError("v(0) must be 0")
        for j in range(1, len(self.values)):
            if not self.values[j - 1] <= self.values[j] < math.inf:
                raise ValueError(
                    f"valuation not finite and non-decreasing at unit {j}")

    @property
    def k(self) -> int:
        return len(self.values) - 1

    @functools.cached_property
    def marginals(self) -> tuple[float, ...]:
        """m(j) = v(j) - v(j-1) for j = 1..k, computed once per valuation."""
        v = self.values
        return tuple(v[j] - v[j - 1] for j in range(1, len(v)))

    def value(self, units: int) -> float:
        return self.values[units]

    def to_json(self) -> list[float]:
        return list(self.values)

    @staticmethod
    def from_json(data) -> "Valuation":
        return Valuation(tuple(_json_float(x, "value") for x in data))


def valuation(*values: float) -> Valuation:
    return Valuation(tuple(float(v) for v in values))


def flat_valuation(level: float, k: int) -> Valuation:
    """v(x) = level for every x >= 1 (single-minded for one unit)."""
    return Valuation((0.0,) + (float(level),) * k)


def additive_valuation(per_unit: float, k: int) -> Valuation:
    return Valuation(tuple(per_unit * j for j in range(k + 1)))


def from_marginals(margs) -> Valuation:
    vals = [0.0]
    for m in margs:
        vals.append(vals[-1] + float(m))
    return Valuation(tuple(vals))


def is_submodular(val: Valuation) -> bool:
    """True iff the marginal values are non-increasing."""
    m = val.marginals
    return all(m[j + 1] <= m[j] + _PRED_TOL for j in range(len(m) - 1))


def is_subadditive(val: Valuation) -> bool:
    """True iff v(x+y) <= v(x) + v(y) for all x, y >= 1 with x + y <= k.

    The curve is undefined beyond k units, so pairs with x + y > k are not
    constrained.
    """
    v = val.values
    return all(v[x + y] <= v[x] + v[y] + _PRED_TOL
               for x in range(1, val.k) for y in range(x, val.k - x + 1))


def tau(val: Valuation, x: int) -> int:
    """Smallest unit count j in [1..x] minimizing the per-unit value v(j)/j.

    For the all-zero valuation every ratio is 0 and the smallest index, 1,
    is returned.
    """
    if not 1 <= x <= val.k:
        raise ValueError(f"x={x} out of range [1, {val.k}]")
    best_j = 1
    best_ratio = val.values[1]
    for j in range(2, x + 1):
        ratio = val.values[j] / j
        if ratio < best_ratio:
            best_ratio = ratio
            best_j = j
    return best_j


def random_valuation(kind: str, k: int, scale: float = 1.0,
                     seed: int = 0) -> Valuation:
    """Deterministic-in-seed random valuation of the requested class.

    kind: "submodular" draws k marginals and sorts them non-increasing,
    then re-verifies is_submodular before returning; "subadditive"
    rejection-samples raw curves, testing each v(m) against every
    v(x) + v(m - x) as it is drawn, the pairs is_subadditive checks;
    "general" is any monotone curve, and has no predicate to check.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    rng = random.Random(seed)
    # scale * rng.random() is rng.uniform(0.0, scale), bit for bit
    if kind == "submodular":
        margs = sorted((scale * rng.random() for _ in range(k)),
                       reverse=True)
        val = from_marginals(margs)
        if not is_submodular(val):
            raise AssertionError("generator produced non-submodular curve")
        return val
    if kind == "general":
        return from_marginals(scale * rng.random() for _ in range(k))
    if kind == "subadditive":
        for _ in range(10000):
            # v(m) is tested against each v(x) + v(m - x) as it is drawn; a
            # rejected curve still draws all k numbers, keeping the stream
            vals = [0.0]
            ok = True
            for m in range(1, k + 1):
                v = vals[-1] + scale * rng.random()
                vals.append(v)
                for x in range(1, m // 2 + 1) if ok else ():
                    if v > vals[x] + vals[m - x] + _PRED_TOL:
                        ok = False
                        break
            if ok:
                return Valuation(tuple(vals))
        raise RuntimeError("subadditive rejection sampling did not converge")
    raise ValueError(f"unknown valuation class {kind!r}")
