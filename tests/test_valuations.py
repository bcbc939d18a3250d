import math
import random

import numpy as np
import pytest

from poa_lab import valuations
from poa_lab.valuations import (
    Valuation,
    from_marginals,
    is_subadditive,
    is_submodular,
    random_curves,
    random_valuation,
    subadditive_curves,
    submodular_curves,
    tau,
    valuation,
)


def test_marginals_additive():
    assert valuation(0, 1, 2).marginals == (1, 1)


def test_marginals_jump_at_k():
    # value 1 for 1..k-1 and 2 at k: marginals (1, 0, ..., 0, 1)
    k = 6
    v = Valuation((0.0,) + (1.0,) * (k - 1) + (2.0,))
    assert v.marginals == (1.0,) + (0.0,) * (k - 2) + (1.0,)


def test_marginals_direct_subtraction():
    m = valuation(0, 0.7, 1.2, 1.5).marginals
    assert m == pytest.approx((0.7, 0.5, 0.3))


def test_marginals_are_computed_once_per_valuation():
    v = valuation(0, 0.7, 1.2, 1.5)
    m = v.marginals
    assert v.marginals is m
    assert m == (0.7, 1.2 - 0.7, 1.5 - 1.2)
    # the cached tuple is not a field: equality, hashing and freezing hold
    fresh = valuation(0, 0.7, 1.2, 1.5)
    assert v == fresh and hash(v) == hash(fresh)
    assert {v: 1}[fresh] == 1
    with pytest.raises(AttributeError):
        v.values = (0.0, 1.0)


def test_prefix_sum_reconstruction():
    for seed in range(30):
        v = random_valuation("general", 7, 2.0, seed=seed)
        assert from_marginals(v.marginals).values == pytest.approx(v.values)


def test_is_submodular():
    assert is_submodular(valuation(0, 2, 3, 3.5))
    assert is_submodular(valuation(0, 1, 2, 3))
    jump = Valuation((0.0,) + (1.0,) * 5 + (2.0,))
    assert not is_submodular(jump)


def test_is_subadditive():
    jump = Valuation((0.0,) + (1.0,) * 5 + (2.0,))
    assert is_subadditive(jump)
    assert not is_subadditive(valuation(0, 1, 3))


def test_submodular_implies_subadditive():
    for seed in range(50):
        v = random_valuation("submodular", 6, 1.0, seed=seed)
        assert is_subadditive(v)


def test_tau_submodular_is_full_count():
    for seed in range(30):
        v = random_valuation("submodular", 5, 1.0, seed=seed)
        for x in range(1, 6):
            assert tau(v, x) == x


def test_tau_jump_curve():
    k = 6
    v = Valuation((0.0,) + (1.0,) * (k - 1) + (2.0,))
    assert tau(v, k) == k - 1


def test_tau_singleton_and_zero():
    assert tau(valuation(0, 5, 6), 1) == 1
    assert tau(valuation(0, 0, 0), 2) == 1


def test_tau_out_of_range():
    with pytest.raises(ValueError):
        tau(valuation(0, 1), 2)


def test_tau_minimizes_ratio():
    for seed in range(50):
        v = random_valuation("general", 6, 1.0, seed=seed)
        for x in range(1, 7):
            t = tau(v, x)
            best = min(v.value(j) / j for j in range(1, x + 1))
            assert v.value(t) / t == pytest.approx(best, abs=1e-12)


@pytest.mark.parametrize("kind", ["submodular", "subadditive", "general"])
def test_random_valuation_class_and_determinism(kind):
    a = random_valuation(kind, 4, 1.0, seed=7)
    b = random_valuation(kind, 4, 1.0, seed=7)
    assert a == b
    if kind == "submodular":
        assert is_submodular(a)
    if kind == "subadditive":
        assert is_subadditive(a)


def _reference_random_valuation(kind, k, scale, seed):
    """The generator as first written: a validated Valuation per draw."""
    rng = random.Random(seed)
    if kind == "submodular":
        return from_marginals(sorted(
            (rng.uniform(0.0, scale) for _ in range(k)), reverse=True))
    if kind == "general":
        return from_marginals(rng.uniform(0.0, scale) for _ in range(k))
    for _ in range(10000):
        val = from_marginals(rng.uniform(0.0, scale) for _ in range(k))
        if is_subadditive(val):
            return val
    raise RuntimeError("subadditive rejection sampling did not converge")


@pytest.mark.parametrize("kind", ["submodular", "subadditive", "general"])
def test_random_valuation_draws_unchanged(kind):
    # the subadditive sampler tests each curve while drawing it, so a
    # rejected curve must still use up its k draws
    for scale in (1.0, 0.3, 1.0 / 7):
        for k in range(1, 9):
            for seed in range(300):
                assert (random_valuation(kind, k, scale, seed=seed)
                        == _reference_random_valuation(kind, k, scale, seed))


def _subadditive_attempts(k, scale, seed):
    """(curve, attempts) of the rejection sampler as first written."""
    rng = random.Random(seed)
    for attempt in range(1, 10001):
        val = from_marginals(rng.uniform(0.0, scale) for _ in range(k))
        if is_subadditive(val):
            return val.values, attempt
    raise RuntimeError("subadditive rejection sampling did not converge")


def test_batched_subadditive_curves_equal_one_at_a_time():
    """A batch of every k, in mixed order, with curves that need two and
    three blocks of attempts: each curve is the one random_valuation and
    the first sampler draw for its seed."""
    rng = random.Random(4)
    ks = [rng.randint(1, 8) for _ in range(400)]
    seeds = [rng.randrange(2 ** 31) for _ in ks]
    want = [_subadditive_attempts(k, 0.3, seed) for k, seed in zip(ks, seeds)]
    attempts = [a for _, a in want]
    assert set(ks) == set(range(1, 9))
    assert max(attempts) > 2 * valuations._BLOCK
    assert sum(a > valuations._BLOCK for a in attempts) >= 20
    batch = random_curves("subadditive", ks, 0.3, seeds)
    assert repr(batch) == repr([values for values, _ in want])
    assert repr(batch) == repr([random_valuation("subadditive", k, 0.3,
                                                 seed=seed).values
                                for k, seed in zip(ks, seeds)])


def test_random_curves_rejects_what_random_valuation_rejects():
    for args in (("subadditive", [2, 0], 1.0, [1, 2]),
                 ("general", [2], 0.0, [1]), ("concave", [2], 1.0, [1])):
        with pytest.raises(ValueError):
            random_curves(*args)


def test_packed_class_predicates_match_the_scalar_ones():
    """Curves of every k, padded with zeros to k = 8 in one array, whose
    marginals sit on a grid and then move by up to 2e-12, so that many
    pairs fall on either side of the 1e-12 slack: the packed predicates
    give is_submodular's and is_subadditive's answer for each."""
    rng = random.Random(9)
    curves, ks = [], []
    for _ in range(3000):
        k = rng.randint(1, 8)
        margs = [level + (rng.choice((0.0, 0.5e-12, 1e-12, 2e-12))
                          if level else 0.0)
                 for level in (rng.choice((0.0, 0.25, 0.5))
                               for _ in range(k))]
        curves.append(from_marginals(margs))
        ks.append(k)
    values = np.zeros((len(curves), 9))
    for row, val in zip(values, curves):
        row[:val.k + 1] = val.values
    k = np.array(ks)
    for packed, scalar in ((submodular_curves, is_submodular),
                           (subadditive_curves, is_subadditive)):
        want = [scalar(val) for val in curves]
        assert packed(values, k).tolist() == want
        # the same curves, two to a row of a (rows, 2, 9) chunk
        paired = packed(values.reshape(-1, 2, 9), k.reshape(-1, 2))
        assert paired.ravel().tolist() == want
        assert 500 < sum(want) < 2500


def test_random_valuation_rejects_unknown_class():
    with pytest.raises(ValueError):
        random_valuation("supermodular", 3, 1.0, seed=0)


def test_ratio_property_submodular():
    # per-unit value never increases with the bundle size
    for seed in range(40):
        v = random_valuation("submodular", 8, 1.0, seed=seed)
        ratios = [v.value(j) / j for j in range(1, 9)]
        for x in range(len(ratios) - 1):
            assert ratios[x] >= ratios[x + 1] - 1e-12


def test_ratio_property_subadditive():
    # v(x)/x >= v(y)/(x+y) for x < y with x+y <= k
    for seed in range(40):
        v = random_valuation("subadditive", 8, 1.0, seed=seed)
        for x in range(1, 8):
            for y in range(x + 1, 9 - x):
                assert v.value(x) / x >= v.value(y) / (x + y) - 1e-12


def test_half_ratio_lower_bound_subadditive():
    # v(tau)/tau >= v(x)/(2x) for subadditive curves
    for seed in range(60):
        v = random_valuation("subadditive", 8, 1.0, seed=seed)
        for x in range(1, 9):
            t = tau(v, x)
            assert v.value(t) / t >= 0.5 * v.value(x) / x - 1e-12


def test_validation_rejects_bad_curves():
    with pytest.raises(ValueError):
        Valuation((0.0, 2.0, 1.0))
    with pytest.raises(ValueError):
        Valuation((1.0, 2.0))
    with pytest.raises(ValueError):
        Valuation((0.0,))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validation_rejects_non_finite_values(bad):
    with pytest.raises(ValueError):
        Valuation((0.0, bad))
    with pytest.raises(ValueError):
        Valuation((0.0, 1.0, bad))
    with pytest.raises(ValueError):
        Valuation((bad, 1.0))
    with pytest.raises(ValueError):
        Valuation.from_json([0.0, 0.5, bad])


def test_json_roundtrip():
    v = valuation(0, 0.25, 0.5, 0.5)
    assert Valuation.from_json(v.to_json()) == v


@pytest.mark.parametrize("data", [[0, True, 1.5], [0, 1, "1.5"],
                                  [False, 1.0]])
def test_json_values_are_json_numbers(data):
    with pytest.raises(ValueError, match="must be a number"):
        Valuation.from_json(data)
