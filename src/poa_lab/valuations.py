"""Valuation curves over unit counts, class predicates and random generators.

A valuation assigns a non-negative value to each unit count 0..k, with
v(0) = 0 and v non-decreasing.  Bidders are described entirely by such a
curve; the marginal value of the j-th unit is m(j) = v(j) - v(j-1).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

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


@functools.cache
def _sum_pairs(width: int):
    """(x + y, x, y) over 1 <= x <= y with x + y <= width, as index arrays:
    the pairs is_subadditive checks on a curve of width units."""
    pairs = [(x + y, x, y) for x in range(1, width)
             for y in range(x, width - x + 1)]
    return np.array(pairs, dtype=np.intp).reshape(-1, 3).T


def submodular_curves(values: np.ndarray, k) -> np.ndarray:
    """is_submodular of every curve at once: values[..., u] is v(u), padded
    past each curve's k units, and k broadcasts over values[..., 0]."""
    m = values[..., 1:] - values[..., :-1]
    live = np.arange(2, m.shape[-1] + 1) <= np.expand_dims(k, -1)
    return ((m[..., 1:] <= m[..., :-1] + _PRED_TOL) | ~live).all(axis=-1)


def subadditive_curves(values: np.ndarray, k) -> np.ndarray:
    """is_subadditive of every curve at once, laid out as for
    submodular_curves."""
    s, x, y = _sum_pairs(values.shape[-1] - 1)
    bound = values[..., x]  # a copy: fancy indexing
    bound += values[..., y]
    bound += _PRED_TOL
    return ((values[..., s] <= bound)
            | (s > np.expand_dims(k, -1))).all(axis=-1)


# Subadditive attempts drawn per curve and round.  At k = 8 a curve takes
# 16.6 attempts on average; 8 per round tripled the cost of a single k = 8
# curve, for a smaller memory peak.  It divides the 10,000-attempt budget.
_BLOCK = 16


def random_curves(kind: str, ks, scale: float, seeds) -> list:
    """v(0..k) of one random curve of the class per (k, seed) pair of the
    sequences ks and seeds, each drawn from its own random.Random(seed), as
    a tuple of floats.

    kind: "submodular" draws k marginals, scale * random() each, and sorts
    them non-increasing; "general" keeps them in draw order; "subadditive"
    rejection-samples such curves, unsorted, and keeps the first that
    is_subadditive accepts.  It draws _BLOCK attempts per curve and round
    (see _attempts) and checks every pending curve of one k in one numpy
    pass; a curve's later draws go unused, and its generator is its own.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if kind == "subadditive":
        return _subadditive_curves(ks, scale, seeds)
    if kind not in ("submodular", "general"):
        raise ValueError(f"unknown valuation class {kind!r}")
    curves = []
    for k, seed in zip(ks, seeds):
        if k < 1:
            raise ValueError("k must be >= 1")
        draw = random.Random(seed).random
        if kind == "submodular":
            margs = [scale * draw() for _ in range(k)]
            margs.sort(reverse=True)
            curves.append(tuple(itertools.accumulate(margs, initial=0.0)))
            continue
        # a loop, not a comprehension: one random_valuation call is cheaper
        values = [0.0]
        for _ in range(k):
            values.append(values[-1] + scale * draw())
        curves.append(tuple(values))
    return curves


def _attempts(rngs, k: int, scale: float) -> np.ndarray:
    """values[c, a, u] = v(u) of attempt a by rngs[c]: _BLOCK curves of k
    marginals scale * random() each, from one getrandbits(64 * _BLOCK * k)
    per generator.  That is bit for bit _BLOCK * k successive random()
    calls: its 32-bit words come out little-endian, and random() is
    ((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53."""
    bits = 64 * _BLOCK * k
    words = np.frombuffer(b"".join(
        rng.getrandbits(bits).to_bytes(bits // 8, "little") for rng in rngs),
        dtype="<u4").reshape(-1, 2)
    draws = (words[:, 0] >> 5) * 67108864.0
    draws += words[:, 1] >> 6
    draws *= 1.0 / 9007199254740992.0
    draws *= scale
    values = np.zeros((len(rngs), _BLOCK, k + 1))
    np.cumsum(draws.reshape(len(rngs), _BLOCK, k), axis=2,
              out=values[:, :, 1:])
    return values


def _subadditive_curves(ks, scale: float, seeds) -> list:
    curves = [None] * len(ks)
    for k in set(ks):
        if k < 1:
            raise ValueError("k must be >= 1")
        members = [c for c, units in enumerate(ks) if units == k]
        rngs = [random.Random(seeds[c]) for c in members]
        for _ in range(10000 // _BLOCK):
            values = _attempts(rngs, k, scale)
            ok = subadditive_curves(values, k)
            hits = ok.any(axis=1).tolist()
            # argmax is the first attempt that passes
            for c, row, hit, attempt in zip(members, values, hits,
                                            ok.argmax(axis=1).tolist()):
                if hit:
                    curves[c] = tuple(row[attempt].tolist())
            # only the generators of curves still pending are kept
            members = [c for c, hit in zip(members, hits) if not hit]
            rngs = [rng for rng, hit in zip(rngs, hits) if not hit]
            if not members:
                break
        else:
            raise RuntimeError(
                "subadditive rejection sampling did not converge")
    return curves


def random_valuation(kind: str, k: int, scale: float = 1.0,
                     seed: int = 0) -> Valuation:
    """Deterministic-in-seed random valuation of the requested class: the
    curve random_curves draws for (k, seed), one sampler for a single curve
    and for a sweep's batch.  A submodular curve is re-verified with
    is_submodular before it is returned."""
    val = Valuation(random_curves(kind, (k,), scale, (seed,))[0])
    if kind == "submodular" and not is_submodular(val):
        raise AssertionError("generator produced non-submodular curve")
    return val
