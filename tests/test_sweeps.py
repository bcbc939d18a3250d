"""Sweeps hold one case at a time and fold it into running aggregates that
give the numbers a list of every case gives."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from poa_lab import mechanisms, smoothness, sweeps
from poa_lab.equilibria import BidGrid, find_pure_nash
from poa_lab.mechanisms import DISCRIMINATORY, UNIFORM, run_auction
from poa_lab.smoothness import _row, optimal_alpha, verify_smoothness

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
            profile = sweeps.random_no_overbidding_uniform_profile(instance,
                                                                   rng)
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
        make = (sweeps.random_no_overbidding_uniform_profile
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
