"""Sweeps hold one case at a time and fold it into running aggregates that
give the numbers a list of every case gives."""

import gc
import hashlib
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from helpers import (
    random_no_overbidding_uniform_profile,
    scalar_lemma1_conversion_sweep,
    scalar_proposition1_sweep,
)

from poa_lab import instances, mechanisms, smoothness, sweeps
from poa_lab.equilibria import BidGrid, find_pure_nash
from poa_lab.mechanisms import (
    DISCRIMINATORY,
    UNIFORM,
    UniformBid,
    run_auction,
    standard_bid,
    standard_profile,
    uniform_profile,
    zero_bid,
)
from poa_lab.smoothness import _row, optimal_alpha, verify_smoothness
from poa_lab.valuations import random_valuation

ALPHAS = (0.5, 0.87, 1.0, 2.0)
WEAK_ALPHA = optimal_alpha("uniform")

SWEEPS = {
    "smooth": lambda count: sweeps.smoothness_sweep(
        count, 1.0, "smooth", "submodular", 7, 3, 4),
    "weakly_smooth": lambda count: sweeps.smoothness_sweep(
        count, WEAK_ALPHA, "weakly_smooth", "subadditive", 7, 3, 4),
    "key_lemma": lambda count: sweeps.key_lemma_sweep(
        count, ALPHAS[:2], "submodular", 7, 3, 4),
}


def _peak_bytes(sweep, count: int) -> int:
    tracemalloc.start()
    try:
        sweep(count)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_peak_memory_does_not_grow_with_count(name):
    sweep = SWEEPS[name]
    # CPython keeps up to 2000 freed tuples of each length below 20 for
    # reuse, and tracemalloc counts them as allocated until a full
    # collection clears them.  They are filled first and the collector is
    # paused (these sweeps make no reference cycles), so the peaks show
    # what the sweep itself holds.
    gc.disable()
    try:
        sweep(100)
        held = [tuple(range(n)) for n in range(1, 20) for _ in range(2000)]
        del held
        small = _peak_bytes(sweep, 100)
        large = _peak_bytes(sweep, 2000)
    finally:
        gc.enable()
    assert large <= 1.5 * small, (small, large)


class _Rows(list):
    """A chunk of rows that a weak reference can follow."""


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_keeps_no_earlier_case_alive(name, monkeypatch):
    """The sweeps draw their cases as rows, a chunk at a time: each chunk
    is dropped before the next but one is drawn."""
    made = []
    alive = []
    sizes = []

    def tracked(*args, **kwargs):
        for rows in drawn_chunks(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in made))
            sizes.append(len(rows))
            rows = _Rows(rows)
            made.append(weakref.ref(rows))
            yield rows

    drawn_chunks = sweeps._drawn_chunks
    monkeypatch.setattr(sweeps, "_drawn_chunks", tracked)
    count = 3 * smoothness.CHUNK + 8
    SWEEPS[name](count)
    # the chunk being checked may still be bound while the next is drawn
    assert sizes == [smoothness.CHUNK] * 3 + [8]
    assert max(alive) <= 1, alive


def test_chunk_helpers_hold_nothing_they_hand_on():
    """smoothness._chunks and sweeps._drawn_chunks keep no reference to a
    chunk once it is handed on, nor the drawn chunk's curves, so the
    kernel's pass over one chunk runs without them."""
    def design(index: int):
        return DISCRIMINATORY, mechanisms.STANDARD

    # each count is the loop name, or the row's vals list, and the argument
    for chunk in smoothness._chunks([()] * 200):
        assert sys.getrefcount(chunk) == 2
    for chunk in sweeps._drawn_chunks(200, 7, "submodular", 5, 8, design):
        refs = sys.getrefcount(chunk), sys.getrefcount(chunk[-1][1][0])
        assert refs == (2, 2)


def _recorded_rows(monkeypatch):
    """Every row the sweeps draw, in case order."""
    rows = []

    def recording(*args, **kwargs):
        for chunk in drawn_chunks(*args, **kwargs):
            rows.extend(chunk)
            yield chunk

    drawn_chunks = sweeps._drawn_chunks
    monkeypatch.setattr(sweeps, "_drawn_chunks", recording)
    return rows


# (sweep, seed) at the shapes and seeds of acceptance criteria 4 and 5
DRAWN = {
    ("key_lemma", "submodular"): 1001, ("key_lemma", "subadditive"): 1002,
    ("smooth", "submodular"): 1003, ("smooth", "subadditive"): 1004,
    ("weakly_smooth", "submodular"): 1005,
    ("weakly_smooth", "subadditive"): 1006}


@pytest.mark.parametrize("kind, valuation_class", sorted(DRAWN))
def test_drawn_rows_equal_the_object_path(kind, valuation_class, monkeypatch):
    """2,000 rows of each sweep, bit for bit the _row of the instance and
    profile the object generators draw from the same case_rng."""
    seed, count = DRAWN[kind, valuation_class], 2000
    rows = _recorded_rows(monkeypatch)
    if kind == "key_lemma":
        assert sweeps.key_lemma_sweep(count, ALPHAS, valuation_class,
                                      seed).passed
    else:
        alpha = 1.0 if kind == "smooth" else WEAK_ALPHA
        assert sweeps.smoothness_sweep(count, alpha, kind, valuation_class,
                                       seed).verified
    assert len(rows) == count
    uniform_rows = 0
    for index, row in enumerate(rows):
        rng = sweeps.case_rng(seed, index)
        if kind == "key_lemma":
            pricing = (DISCRIMINATORY, UNIFORM)[index % 2]
        else:
            pricing = smoothness.CERTIFICATES[kind]
        instance = sweeps.random_instance(rng, valuation_class, pricing)
        if pricing == UNIFORM and kind != "key_lemma" and index % 2 == 0:
            profile = random_no_overbidding_uniform_profile(instance, rng)
            uniform_rows += 1
        else:
            profile = sweeps.random_no_overbidding_profile(instance, rng)
        assert repr(row) == repr(_row(instance, profile)), index
    assert uniform_rows == (count // 2 if kind == "weakly_smooth" else 0)


PLANTS = {
    # valid curves, marginals (0.25, 0.5, 0, ...) and (0.1, 0.5, 0, ...)
    "not submodular": ("random_curves", lambda size: (0.0, 0.25)
                       + (0.75,) * (size - 2), "declared class"),
    "not subadditive": ("random_curves", lambda size: (0.0, 0.1)
                        + (0.6,) * (size - 2), "declared class"),
    "decreasing": ("random_curves", lambda size: (0.0, 0.5)
                   + (0.25,) * (size - 2), "non-decreasing"),
    "increasing bids": ("_standard_vectors", lambda size: (0.0,) * (size - 1)
                        + (0.1,), "non-increasing"),
}


@pytest.mark.parametrize("plant, name, valuation_class", [
    ("not submodular", "smooth", "submodular"),
    ("not submodular", "key_lemma", "submodular"),
    ("not subadditive", "weakly_smooth", "subadditive"),
    ("not subadditive", "key_lemma", "subadditive"),
    ("decreasing", "key_lemma", "subadditive"),
    ("increasing bids", "weakly_smooth", "submodular"),
    ("increasing bids", "key_lemma", "submodular")])
def test_a_planted_row_fails_the_sweep(plant, name, valuation_class,
                                       monkeypatch):
    """One bad curve or bid vector among a sweep's rows is a ValueError;
    without it the same sweep passes."""
    target, bad, message = PLANTS[plant]
    alpha = {"smooth": 1.0, "weakly_smooth": WEAK_ALPHA}.get(name)

    def sweep():
        if name == "key_lemma":
            return sweeps.key_lemma_sweep(70, ALPHAS[:2], valuation_class,
                                          7, 3, 4).passed
        return sweeps.smoothness_sweep(70, alpha, name, valuation_class, 7,
                                       3, 4).verified

    assert sweep()
    draw = getattr(sweeps, target)

    def planted(*args):
        out = draw(*args)
        out[-1] = bad(len(out[-1]))
        return out

    monkeypatch.setattr(sweeps, target, planted)
    with pytest.raises(ValueError, match=message):
        sweep()


@pytest.mark.parametrize("scale", [1.0, 0.3])
@pytest.mark.parametrize("valuation_class",
                         ["submodular", "subadditive", "general"])
def test_random_instance_draws_what_random_valuation_draws(valuation_class,
                                                           scale):
    """Its one random_curves call gives, bit for bit, one random_valuation
    call per bidder on the seeds the same generator draws, at every k in
    2..8, and leaves the generator where those draws leave it."""
    ks = set()
    for index in range(60):
        rng, ref = sweeps.case_rng(31, index), sweeps.case_rng(31, index)
        instance = sweeps.random_instance(rng, valuation_class, UNIFORM, 5,
                                          8, scale)
        n, k = ref.randint(2, 5), ref.randint(2, 8)
        want = tuple(random_valuation(valuation_class, k, scale,
                                      seed=ref.randrange(2 ** 31))
                     for _ in range(n))
        assert repr(instance.valuations) == repr(want), index
        assert (instance.k, instance.pricing) == (k, UNIFORM)
        assert rng.random() == ref.random()
        ks.add(k)
    assert ks == set(range(2, 9))


def test_a_planted_curve_fails_a_submodular_random_instance(monkeypatch):
    """A valid curve that is not submodular, planted among the drawn ones,
    is an AssertionError for the submodular class only."""
    bad = PLANTS["not submodular"][1]
    draw = sweeps.random_curves

    def planted(*args):
        out = draw(*args)
        out[-1] = bad(len(out[-1]))
        return out

    sweeps.random_instance(sweeps.case_rng(5, 0), "submodular", UNIFORM)
    monkeypatch.setattr(sweeps, "random_curves", planted)
    instance = sweeps.random_instance(sweeps.case_rng(5, 0), "general",
                                      UNIFORM)
    assert instance.valuations[-1].values == bad(instance.k + 1)
    with pytest.raises(AssertionError, match="non-submodular"):
        sweeps.random_instance(sweeps.case_rng(5, 0), "submodular", UNIFORM)


def test_proposition1_sweep_instances_are_unchanged(monkeypatch):
    """A digest of its first 250 instances at seed 1008, the
    tie-constructions benchmark's seed, as they reach the per-instance
    row builder."""
    seen = []
    build = instances._proposition1_case

    def record(instance, eps_values):
        seen.append(instance)
        return build(instance, eps_values)

    monkeypatch.setattr(instances, "_proposition1_case", record)
    assert sweeps.proposition1_sweep(250, 1008) == 250
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == (
        "61c261a547d5e08d07781c9e66423dce89d73849dc30c82e948104a3841e6d36")


def plant_failures(monkeypatch, plants: dict) -> None:
    """Makes case index fail as plants[index] says, through the functions
    both tie-construction sweeps and their scalar references in helpers
    call; a case's index is read from its case_rng call."""
    building = [None]
    case_rng = sweeps.case_rng
    construct = instances.proposition1
    equilibrium = sweeps.lemma1_equilibrium
    convert = sweeps.pne_standard_to_uniform

    def indexed(seed, index):
        building[0] = index
        return case_rng(seed, index)

    def overpaying(instance):
        # every bidder bids over every value on every unit: winners regret
        top = max(v.values[-1] for v in instance.valuations) + 1.0
        return standard_profile(instance.k, *[standard_bid(
            *(top,) * instance.k)] * instance.n)

    def proposition1(instance, eps_values=()):
        kind = plants.get(building[0])
        if kind == "construction":
            raise ValueError("k-th largest marginal must be positive")
        profile, tie, bumped = construct(instance, eps_values)
        if kind == "prop1 regret":
            profile = overpaying(instance)
        if kind == "eps":
            bumped = [bumped[0], overpaying(instance)]
        return profile, tie, bumped

    def lemma1_equilibrium(rng):
        instance, profile = equilibrium(rng)
        if plants.get(building[0]) == "standard regret":
            # nobody bids: a winner takes a unit for a tick, at price 0
            profile = standard_profile(instance.k,
                                       *[zero_bid(instance.k)] * instance.n)
        return instance, profile

    def pne_standard_to_uniform(profile, instance):
        kind = plants.get(building[0])
        if kind == "conversion":
            raise AssertionError("conversion changed the uniform price")
        converted = convert(profile, instance)
        if kind == "converted regret":
            return uniform_profile(instance.k,
                                   *[UniformBid(0.0, 0)] * instance.n)
        return converted

    monkeypatch.setattr(sweeps, "case_rng", indexed)
    monkeypatch.setattr(instances, "proposition1", proposition1)
    monkeypatch.setattr(sweeps, "lemma1_equilibrium", lemma1_equilibrium)
    monkeypatch.setattr(sweeps, "pne_standard_to_uniform",
                        pne_standard_to_uniform)


def raised(sweep, *args):
    with pytest.raises((AssertionError, ValueError)) as info:
        sweep(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("indices", [(5, 23, 40), (40, 5, 23), (23, 40, 5),
                                     (70, 99, 127)])
@pytest.mark.parametrize("sweep, scalar, kinds", [
    (sweeps.proposition1_sweep, scalar_proposition1_sweep,
     ("prop1 regret", "eps", "construction")),
    (sweeps.lemma1_conversion_sweep, scalar_lemma1_conversion_sweep,
     ("standard regret", "conversion", "converted regret")),
], ids=["proposition1", "lemma1"])
def test_tie_sweeps_raise_the_first_failing_case(monkeypatch, sweep, scalar,
                                                 kinds, indices):
    """Each failure kind planted once in a chunk, the kinds in turn at the
    lowest index, or all three in the second chunk: the sweep raises what
    the one-case-at-a-time code raises, at the lowest failing index."""
    plants = dict(zip(indices, kinds))
    plant_failures(monkeypatch, plants)
    kind, message = raised(sweep, 128, 1008)
    assert (kind, message) == raised(scalar, 128, 1008)
    assert kind is AssertionError or plants[min(indices)] == "construction"
    assert message.startswith({
        "prop1 regret": f"case {min(indices)}: prop1_pne_regret failed (",
        "eps": f"case {min(indices)}: prop1_eps_0.01 failed (None)",
        "construction": "k-th largest marginal must be positive",
        "standard regret": f"case {min(indices)}: canonical profile has",
        "conversion": "conversion changed the uniform price",
        "converted regret": f"case {min(indices)}: converted profile has",
    }[plants[min(indices)]])
    assert sweep(min(indices), 1008) == min(indices)


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize("kind, valuation_class", [
    ("smooth", "submodular"), ("smooth", "subadditive"),
    ("weakly_smooth", "submodular"), ("weakly_smooth", "subadditive")])
def test_streamed_certificate_matches_a_list_of_cases(kind, valuation_class,
                                                      seed):
    alpha = 1.0 if kind == "smooth" else WEAK_ALPHA
    pricing = DISCRIMINATORY if kind == "smooth" else UNIFORM
    cases = []
    for index in range(40):
        rng = sweeps.case_rng(seed, index)
        instance = sweeps.random_instance(rng, valuation_class, pricing, 4, 5)
        make = (random_no_overbidding_uniform_profile
                if kind == "weakly_smooth" and index % 2 == 0
                else sweeps.random_no_overbidding_profile)
        cases.append((instance, make(instance, rng)))
    streamed = sweeps.smoothness_sweep(40, alpha, kind, valuation_class, seed,
                                       4, 5)
    listed = verify_smoothness(cases, alpha, kind, valuation_class)
    assert repr(streamed) == repr(listed)
    assert streamed.instances == 40


def test_verify_smoothness_reads_a_one_shot_iterator_once():
    rng = sweeps.case_rng(3, 0)
    instance = sweeps.random_instance(rng, "submodular", DISCRIMINATORY, 3, 4)
    case = (instance, sweeps.random_no_overbidding_profile(instance, rng))
    once = verify_smoothness(iter([case]), 1.0, "smooth", "submodular")
    twice = verify_smoothness(iter([case, case]), 1.0, "smooth", "submodular")
    assert (once.instances, twice.instances) == (1, 2)
    assert repr(once.margin) == repr(twice.margin)
    with pytest.raises(ValueError, match="no cases"):
        verify_smoothness(iter(()), 1.0, "smooth", "submodular")


def test_weak_certificate_ranks_each_profile_once(monkeypatch):
    """The uniformized opposing profile is built from the one batched
    auction of each chunk, not from a second ranking."""
    calls = []
    ranked_outcomes = smoothness._ranked_outcomes

    def counted(bids, ranks, k, uniform):
        calls.append(len(k))
        return ranked_outcomes(bids, ranks, k, uniform)

    def scalar(*args):
        raise AssertionError("a case was ranked outside the kernel")

    monkeypatch.setattr(smoothness, "_ranked_outcomes", counted)
    monkeypatch.setattr(mechanisms, "_ranked_outcome", scalar)
    cert = sweeps.smoothness_sweep(70, WEAK_ALPHA, "weakly_smooth",
                                   "submodular", 5, 3, 4)
    assert cert.instances == 70
    assert calls == [smoothness.CHUNK, 70 - smoothness.CHUNK]


def test_key_lemma_sweep_reports_the_first_worst_case(monkeypatch):
    """Cases 70 and 150, in the second and third chunks, share the least
    margin; the sweep reports the first."""
    margins = dict.fromkeys(range(200), 3.0)
    margins.update({10: 2.0, 70: 1.0, 150: 1.0})
    start = [0]

    def forms(alphas, valuation_class):
        def fixed(utils, x, *rest):
            out = np.full((len(alphas), 2) + x.shape, 5.0)
            for r in range(x.shape[0]):
                out[-1, 1, r, 0] = margins[start[0] + r]
            start[0] += x.shape[0]
            return out
        return fixed

    monkeypatch.setattr(smoothness, "_key_lemma_forms", forms)
    result = sweeps.key_lemma_sweep(200, (1.0, 2.0), "submodular", 1, 2, 2)
    assert (result.min_margin, result.worst_case) == (1.0, 70)
    assert start[0] == 200


@pytest.mark.parametrize("seed, expected", [
    (1007, "EfficiencySweepResult(instances=30, instances_with_pne=29, "
           "equilibria=64, min_welfare_slack=0.3782337553274325)"),
    (77, "EfficiencySweepResult(instances=30, instances_with_pne=30, "
         "equilibria=65, min_welfare_slack=0.3212658384495145)"),
])
def test_pne_efficiency_sweep_results_are_unchanged(seed, expected):
    assert repr(sweeps.pne_efficiency_sweep(30, seed=seed)) == expected


@pytest.mark.parametrize("seed, expected", [
    (1011, "2.955892189188475"), (78, "2.6051905622734943")])
def test_mc_vs_exact_sweep_results_are_unchanged(seed, expected):
    assert repr(sweeps.mc_vs_exact_sweep(12, seed=seed,
                                         samples=10 ** 4)) == expected


def test_search_outcomes_are_the_equilibria_auctions():
    for index in range(6):
        rng = sweeps.case_rng(21, index)
        instance = sweeps.random_instance(rng, "general", DISCRIMINATORY, 2, 2)
        for mode in ("exhaustive", "best_response_dynamics"):
            result = find_pure_nash(instance, BidGrid(0.25, 1.0), mode,
                                    starts=4)
            assert len(result.outcomes) == len(result.equilibria)
            assert result.outcomes == tuple(
                run_auction(p, instance.tie_break, instance.pricing)
                for p in result.equilibria)
