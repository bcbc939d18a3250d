"""Seeded randomized sweeps backing the certification suite.

Every sweep derives one child generator per case from (seed, index), so
runs are reproducible case by case.  An instance's generator draws n, k
and a seed per curve, then one random_curves call draws all its curves.
The key-lemma and smoothness sweeps draw smoothness.CHUNK cases at a time
straight into the certificate kernel's rows, with no instance, profile or
valuation object: each case's generator draws n, k, the curve seeds and
then the uniform numbers its bids scale, as random_instance and a
no-overbidding profile do, and is dropped; one random_curves call draws
every curve of the chunk; each case's bids are its numbers times the caps
its curves set.  So each row is _row of the objects the same generator
gives.  The kernel checks each chunk's curves, bids and declared class in
numpy before certifying it, and holds one chunk of rows.  The Proposition
1 and Lemma 1 sweeps hold a chunk of cases too, with their profiles'
rows for one equilibria._closed_form_regrets pass; the other sweeps hold
one case at a time.  So no sweep's memory grows with the case count; a
worst case is the first index with the minimal margin.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace

from .equilibria import (
    EQ_TOL,
    BidGrid,
    _closed_form_regrets,
    _regret_row,
    canonical_upa_profile,
    find_pure_nash,
    pne_standard_to_uniform,
)
from .mechanisms import (
    DISCRIMINATORY,
    STANDARD,
    UNIFORM,
    UNIFORM_IFACE,
    AuctionInstance,
    BidProfile,
    StandardBid,
    beta_minus_i,
    run_auction,  # noqa: F401  bound here for perfbench's tracer
    social_welfare,
    tie_lexicographic,
)
from .smoothness import (
    CERTIFICATES,
    MARGIN_TOL,
    _certify,
    _chunks,
    _key_lemma_least,
    _lookup,
    _smoothness_certificate,
    expected_deviation_utility_exact,
    expected_deviation_utility_mc,
)
from .valuations import (
    Valuation,
    flat_valuation,
    from_marginals,
    is_submodular,
    random_curves,
)
from .welfare import enumerate_optimal, greedy_optimal_submodular, optimal_allocation


def case_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def _shape(rng: random.Random, n_max: int, k_max: int):
    """A random instance's first draws: its k and one seed per curve."""
    n = rng.randint(2, n_max)
    k = rng.randint(2, k_max)
    return k, [rng.randrange(2 ** 31) for _ in range(n)]


def random_instance(rng: random.Random, valuation_class: str, pricing: str,
                    n_max: int = 5, k_max: int = 8,
                    scale: float = 1.0) -> AuctionInstance:
    """_shape's draws, then one random_curves call for all n curves."""
    k, seeds = _shape(rng, n_max, k_max)
    vals = tuple(map(Valuation, random_curves(
        valuation_class, [k] * len(seeds), scale, seeds)))
    if valuation_class == "submodular" and not all(map(is_submodular, vals)):
        raise AssertionError("generator produced non-submodular curve")
    return AuctionInstance(vals, k, pricing, tie_lexicographic())


def _standard_vectors(curves, k: int, draw) -> list:
    """One non-increasing bid vector per curve v(0..k), each prefix sum at
    most the curve: each bid is draw(), a uniform [0, 1) number, times the
    most it may be."""
    vectors = []
    for values in curves:
        vec = []
        acc = 0.0
        prev = math.inf
        for j in range(1, k + 1):
            cap = min(prev, values[j] - acc)
            b = draw() * max(cap, 0.0)
            vec.append(b)
            acc += b
            prev = b
        vectors.append(tuple(vec))
    return vectors


def _uniform_draws(rng: random.Random, n: int, k: int) -> list:
    """Per bidder, a quantity uniform in 0..k and, unless it is 0, a
    uniform [0, 1) price draw."""
    draws = []
    for _ in range(n):
        q = rng.randint(0, k)
        draws.append((q, rng.random() if q else 0.0))
    return draws


def _uniform_bids(curves, draws) -> list:
    """One (price, quantity) bid per curve and (quantity, price draw): the
    price capped so no prefix overbids."""
    return [(r * min(values[s] / s for s in range(1, q + 1)), q) if q
            else (0.0, 0) for values, (q, r) in zip(curves, draws)]


def random_no_overbidding_profile(instance: AuctionInstance,
                                  rng: random.Random) -> BidProfile:
    """Non-increasing bids whose prefix sums never exceed the value curve."""
    return BidProfile(tuple(map(StandardBid, _standard_vectors(
        [v.values for v in instance.valuations], instance.k, rng.random))),
        STANDARD, instance.k)


def _drawn_chunks(count: int, seed: int, valuation_class: str, n_max: int,
                  k_max: int, design):
    """The rows of cases 0..count-1, CHUNK at a time: case index is
    random_instance at design(index) = (pricing, interface), then a
    no-overbidding profile on that interface, both drawn from
    case_rng(seed, index) as the module docstring describes.  No chunk,
    and none of its draws, is kept once it is handed on."""
    tie = tie_lexicographic()

    def chunk_rows(indices) -> list:
        cases = []
        for index in indices:
            rng = case_rng(seed, index)
            k, seeds = _shape(rng, n_max, k_max)
            pricing, interface = design(index)
            if interface == STANDARD:
                draws = [rng.random() for _ in range(len(seeds) * k)]
            else:
                draws = _uniform_draws(rng, len(seeds), k)
            cases.append((k, seeds, pricing, interface, draws))
        curves = iter(random_curves(
            valuation_class, [k for k, seeds, *_ in cases for _ in seeds],
            1.0, [s for _, seeds, *_ in cases for s in seeds]))
        rows = []
        for k, seeds, pricing, interface, draws in cases:
            vals = list(itertools.islice(curves, len(seeds)))
            if interface == STANDARD:
                vectors = _standard_vectors(vals, k, iter(draws).__next__)
            else:
                vectors = [(p,) * q + (0.0,) * (k - q)
                           for p, q in _uniform_bids(vals, draws)]
            rows.append((k, vals, vectors, tie, pricing == UNIFORM,
                         interface == STANDARD))
        return rows
    return map(chunk_rows, _chunks(range(count)))


# ---------------------------------------------------------------------------
# Deviation-guarantee sweeps


@dataclass(frozen=True)
class SweepResult:
    """Case count, minimum margin and the first index with that margin."""

    cases: int
    min_margin: float
    worst_case: int

    @property
    def passed(self) -> bool:
        return self.min_margin >= -MARGIN_TOL


def key_lemma_sweep(count: int, alphas, valuation_class: str, seed: int,
                    n_max: int = 5, k_max: int = 8) -> SweepResult:
    """Minimum margin of the randomized-deviation guarantee over random cases.

    Each case alternates between the two pricing rules; the checked margin
    is the exact expected deviation utility minus the closed-form lower
    bound (per-unit-value form), together with the per-bidder template form
    whose lambda is halved for subadditive valuations.  The kernel
    certifies the cases a chunk at a time, checking each chunk's curves
    against the class; worst_case is the first index with the minimal
    margin.
    """
    def design(index: int):
        return (DISCRIMINATORY, UNIFORM)[index % 2], STANDARD

    # map, unlike a generator expression, keeps no chunk of rows bound
    certified = map(
        lambda rows: _certify(rows, alphas, False, valuation_class),
        _drawn_chunks(count, seed, valuation_class, n_max, k_max, design))
    worst, worst_index = min(zip(
        _key_lemma_least(certified, alphas, valuation_class),
        itertools.count()))
    return SweepResult(count, worst, worst_index)


def smoothness_sweep(count: int, alpha: float, kind: str,
                     valuation_class: str, seed: int, n_max: int = 5,
                     k_max: int = 8):
    """Certificate for the summed smoothness inequality over random cases.

    Weak certificates alternate between uniform-interface profiles (checked
    directly) and standard-interface profiles (checked through the
    uniformization transform).  The cases reach verify_smoothness's kernel
    as rows, drawn a chunk at a time.
    """
    pricing = _lookup(CERTIFICATES, kind, "certificate kind")

    def design(index: int):
        uniform = pricing == UNIFORM and index % 2 == 0
        return pricing, UNIFORM_IFACE if uniform else STANDARD

    return _smoothness_certificate(
        _drawn_chunks(count, seed, valuation_class, n_max, k_max, design),
        alpha, kind, valuation_class)


# ---------------------------------------------------------------------------
# Oracle-agreement sweeps


def dp_vs_enumeration_sweep(count: int, seed: int) -> int:
    """DP optimum must match exhaustive enumeration; returns cases checked."""
    for index in range(count):
        rng = case_rng(seed, index)
        cls = ("submodular", "subadditive", "general")[index % 3]
        instance = random_instance(rng, cls, DISCRIMINATORY, 4, 6)
        dp = optimal_allocation(instance.valuations, instance.k)
        brute = enumerate_optimal(instance.valuations, instance.k)
        if abs(dp.value - brute.value) > 1e-9:
            raise AssertionError(
                f"case {index}: DP {dp.value} != enumeration {brute.value}")
        if cls == "submodular":
            greedy = greedy_optimal_submodular(instance.valuations, instance.k)
            if abs(greedy.value - dp.value) > 1e-9:
                raise AssertionError(
                    f"case {index}: greedy {greedy.value} != DP {dp.value}")
    return count


def mc_vs_exact_sweep(count: int, seed: int,
                      samples: int = 10 ** 5) -> float:
    """Monte Carlo deviation utility must sit within 3 sigma of the quadrature.

    One designated comparison per case (the first bidder the benchmark
    allocates to), so exactly `count` independent z-scores are tested.
    Returns the largest |mc - exact| / stderr observed.
    """

    def one(index: int) -> float:
        rng = case_rng(seed, index)
        pricing = DISCRIMINATORY if index % 2 == 0 else UNIFORM
        instance = random_instance(rng, "submodular", pricing, 4, 6)
        profile = random_no_overbidding_profile(instance, rng)
        alpha = (0.5, 0.87, 1.0, 2.0)[index % 4]
        mc_seed = rng.randrange(2 ** 62)
        x_opt = optimal_allocation(instance.valuations, instance.k).allocation
        i = next(j for j in range(instance.n) if x_opt[j] >= 1)
        val = instance.valuations[i]
        beta = beta_minus_i(profile, i)
        exact = expected_deviation_utility_exact(
            val, x_opt[i], beta, alpha, pricing)
        mean, stderr = expected_deviation_utility_mc(
            val, x_opt[i], beta, alpha, pricing, samples, seed=mc_seed)
        if stderr == 0.0:
            if abs(mean - exact) > 1e-9:
                raise AssertionError("zero-variance MC disagrees")
            return 0.0
        return abs(mean - exact) / stderr

    worst = max(map(one, range(count)))
    if worst > 3.0:
        raise AssertionError(f"MC estimate {worst:.2f} sigma from quadrature")
    return worst


# ---------------------------------------------------------------------------
# Equilibrium sweeps


@dataclass(frozen=True)
class EfficiencySweepResult:
    instances: int
    instances_with_pne: int
    equilibria: int
    min_welfare_slack: float

    @property
    def passed(self) -> bool:
        return self.min_welfare_slack >= -EQ_TOL


def pne_efficiency_sweep(count: int, seed: int, tick: float = 0.125,
                         max_bid: float = 1.0) -> EfficiencySweepResult:
    """Exhaustive pay-as-bid equilibrium search on tiny grids.

    Asserts the grid relaxation of first-price efficiency: every pure
    equilibrium found has welfare at least OPT - n*k*tick.  Cases alternate
    k = 2, 3, and no value exceeds 0.75, below the default max_bid, so the
    deviation space is never truncated.
    """

    def one(index: int):
        rng = case_rng(seed, index)
        k = 2 + index % 2
        seeds = [rng.randrange(2 ** 31) for _ in range(2)]
        vals = tuple(map(Valuation, random_curves("general", (k, k),
                                                  0.75 / k, seeds)))
        instance = AuctionInstance(vals, k, DISCRIMINATORY, tie_lexicographic())
        grid = BidGrid(tick, max_bid, STANDARD)
        result = find_pure_nash(instance, grid, mode="exhaustive")
        opt = optimal_allocation(vals, k).value
        slack = math.inf
        for out in result.outcomes:
            sw = social_welfare(vals, out.allocation)
            slack = min(slack, sw - (opt - 2 * k * tick))
        return len(result.equilibria), slack

    total_eq = with_pne = 0
    min_slack = math.inf
    for found, slack in map(one, range(count)):
        total_eq += found
        with_pne += found > 0
        min_slack = min(min_slack, slack)
    return EfficiencySweepResult(count, with_pne, total_eq, min_slack)


# ---------------------------------------------------------------------------
# Canonical uniform-price equilibria and the interface conversion


def lemma1_equilibrium(rng: random.Random) -> tuple[AuctionInstance, BidProfile]:
    """Uniform-price equilibrium of the canonical undominated form.

    With k in 2..4, one to three strong bidders absorb the k units at their marginal bids while k
    identical weak bidders all bid the same value d below every winning
    marginal; any demand reduction still faces price d, so the profile is a
    pure equilibrium.
    """
    k = rng.randint(2, 4)
    winners = rng.randint(1, min(3, k))
    vals = []
    for _ in range(winners):
        first = rng.uniform(0.9, 1.0)
        rest = sorted((rng.uniform(0.3, 0.8) for _ in range(k - 1)),
                      reverse=True)
        vals.append(from_marginals([first] + rest))
    pool = sorted((m for v in vals for m in v.marginals), reverse=True)
    level = rng.uniform(0.05, 0.9 * pool[k - 1])
    vals += [flat_valuation(level, k) for _ in range(k)]
    instance = AuctionInstance(tuple(vals), k, UNIFORM, tie_lexicographic())
    x = greedy_optimal_submodular(instance.valuations, k).allocation
    profile = canonical_upa_profile(instance, x)
    return instance, profile


def _judged(count: int, case) -> int:
    """Runs case(index) for index in 0..count-1, smoothness.CHUNK at a
    time, and returns count.  case(index) gives a case's rows for
    _closed_form_regrets and a judge that raises if their regrets (one row
    of bidders each) fail it.  One kernel pass scores a chunk's rows; its
    cases are then judged in index order, and an AssertionError or
    ValueError raised while a case is built is raised after the cases
    before it, so the first failing case's error is the one raised."""
    for indices in _chunks(range(count)):
        cases, error = [], None
        for index in indices:
            try:
                cases.append(case(index))
            except (AssertionError, ValueError) as exc:  # raised below
                error = exc
                break
        if cases:
            regrets = _closed_form_regrets([row for rows, _ in cases
                                            for row in rows])
            ends = itertools.accumulate(len(rows) for rows, _ in cases)
            for (rows, judge), end in zip(cases, ends):
                judge(regrets[end - len(rows):end])
        if error is not None:
            raise error
    return count


def lemma1_conversion_sweep(count: int, seed: int) -> int:
    """Canonical equilibria convert to uniform bidding losing nothing.

    Checks, per case: the standard profile is a pure equilibrium under
    no-overbidding deviations; the conversion preserves allocation, price
    and welfare exactly (pne_standard_to_uniform raises otherwise); and the
    converted profile is itself an equilibrium.  Both regrets come from
    _closed_form_regrets, a chunk of cases at a time.  Returns the number
    of cases checked.
    """
    grid = BidGrid(1e-3, 2.0, STANDARD, no_overbidding=True)
    ugrid = replace(grid, interface=UNIFORM_IFACE)

    def case(index: int):
        instance, profile = lemma1_equilibrium(case_rng(seed, index))
        rows = [_regret_row(profile, instance, grid)]
        error = None
        try:
            converted = pne_standard_to_uniform(profile, instance)
        except (AssertionError, ValueError) as exc:  # raised by judge
            error = exc
        else:
            rows.append(_regret_row(converted, instance, ugrid))

        def judge(regrets):
            worst = regrets.max(axis=1).tolist()
            if worst[0] > EQ_TOL:
                raise AssertionError(
                    f"case {index}: canonical profile has regret {worst[0]}")
            if error is not None:
                raise error
            if worst[1] > EQ_TOL:
                raise AssertionError(
                    f"case {index}: converted profile has regret {worst[1]}")
        return rows, judge

    return _judged(count, case)


def proposition1_sweep(count: int, seed: int,
                       eps_values=(0.1, 0.01)) -> int:
    """Random submodular instances through both tie-break constructions:
    instances._proposition1_case's rows and checks, judged a chunk at a
    time by _judged."""
    from .instances import _proposition1_case

    def case(index: int):
        instance = random_instance(case_rng(seed, index), "submodular",
                                   DISCRIMINATORY, 4, 4)
        rows, checks = _proposition1_case(instance, eps_values)

        def judge(regrets):
            for c in checks(regrets):
                if not c.passed:
                    raise AssertionError(
                        f"case {index}: {c.name} failed ({c.value})")
        return rows, judge

    return _judged(count, case)
