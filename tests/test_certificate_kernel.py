"""The chunked certificate kernel against the scalar code it replaced.

Every number the kernel produces (optimum, auction outcome, each beta_-i,
v(tau)/tau, the exact quadrature and the margins built from them) must
equal, repr for repr, the scalar computation kept in tests/helpers.py.
"""

import itertools
import math
import random

import pytest
from helpers import _deviation_cases, random_tie, uniformize_profile

from poa_lab import smoothness
from poa_lab.mechanisms import (
    DISCRIMINATORY,
    STANDARD,
    UNIFORM,
    AuctionInstance,
    StandardBid,
    UniformBid,
    beta_minus_i,
    run_auction,
    standard_profile,
    uniform_profile,
)
from poa_lab.smoothness import (
    CHUNK,
    _chunks,
    _row,
    guarantee_lambda,
    key_lemma_margins,
    optimal_alpha,
    verify_smoothness,
    verify_template_inequality,
)
from poa_lab.valuations import (
    Valuation,
    flat_valuation,
    from_marginals,
    is_submodular,
    random_valuation,
)
from poa_lab.welfare import optimal_allocation

ALPHAS = (0.5, 0.87, 1.0, 2.0, optimal_alpha(UNIFORM))
LEVELS = (0.0, 0.125, 0.25, 0.5, 0.75)
# a bid of -0.0 is valid and never wins, as a bid of 0.0
BID_LEVELS = LEVELS + (-0.0,)
CASES = 2100


def _valuation(rng: random.Random, k: int) -> Valuation:
    """Curves with ties and zeros: on a coarse grid (both submodular and
    not), random, flat, or zero."""
    kind = rng.randrange(6)
    if kind == 0:
        return Valuation((0.0,) * (k + 1))
    if kind == 1:
        return flat_valuation(rng.choice(LEVELS[1:]), k)
    if kind == 2:
        return from_marginals([rng.choice(LEVELS) for _ in range(k)])
    if kind == 3:
        return from_marginals(sorted((rng.choice(LEVELS) for _ in range(k)),
                                     reverse=True))
    cls = "submodular" if kind == 4 else "general"
    return random_valuation(cls, k, 1.0, seed=rng.randrange(2 ** 31))


def _profile(rng: random.Random, n: int, k: int):
    """Either interface; bids on the grid (many ties), random, or all
    zero."""
    style = rng.randrange(5)
    if style == 0:
        return standard_profile(k, *[StandardBid((rng.choice((0.0, -0.0)),)
                                                 * k) for _ in range(n)])
    if style == 1:
        return uniform_profile(k, *[
            UniformBid(rng.choice(BID_LEVELS), rng.randint(0, k))
            for _ in range(n)])
    if style == 2:
        return uniform_profile(k, *[
            UniformBid(rng.random(), rng.randint(0, k)) for _ in range(n)])
    pick = (lambda: rng.choice(BID_LEVELS)) if style == 3 else rng.random
    return standard_profile(k, *[
        StandardBid(tuple(sorted((pick() for _ in range(k)), reverse=True)))
        for _ in range(n)])


def _case(index: int):
    rng = random.Random(f"kernel:{index}")
    n, k = rng.randint(1, 5), rng.randint(1, 8)
    pricing = (DISCRIMINATORY, UNIFORM)[index % 2]
    instance = AuctionInstance(
        tuple(_valuation(rng, k) for _ in range(n)), k, pricing,
        random_tie(rng, n, k))
    return instance, _profile(rng, n, k)


@pytest.fixture(scope="module")
def cases():
    return [_case(index) for index in range(CASES)]


def _scalar_key_lemma(instance, opposing, alphas, valuation_class):
    """key_lemma_margins as the scalar code computed it."""
    x_opt = optimal_allocation(instance.valuations, instance.k).allocation
    per_bidder = _deviation_cases(instance, x_opt, opposing, alphas)
    margins = []
    for a, alpha in enumerate(alphas):
        scale = guarantee_lambda(alpha, "submodular")
        lam = guarantee_lambda(alpha, valuation_class)
        margins.append((
            tuple(utils[a] - (scale * x * unit_value - alpha * exp_beta)
                  for x, unit_value, exp_beta, utils in per_bidder),
            tuple(verify_template_inequality(utils[a], val.value(x),
                                             exp_beta, lam, alpha)
                  for val, (x, _, exp_beta, utils)
                  in zip(instance.valuations, per_bidder))))
    return margins


def _scalar_smoothness_margin(instance, profile, alpha, lam):
    """One case's margin of verify_smoothness as the scalar code computed
    it."""
    weak = instance.pricing == UNIFORM
    opt = optimal_allocation(instance.valuations, instance.k)
    out = run_auction(profile, instance.tie_break, instance.pricing)
    opposing = profile
    if weak and profile.interface == STANDARD:
        opposing = uniformize_profile(profile, instance.tie_break)
    lhs = 0.0
    for _, _, _, (util,) in _deviation_cases(
            instance, opt.allocation, [(opposing, 1.0)], (alpha,)):
        lhs += util
    if weak:
        paid = sum(x * profile.vector(i)[x - 1]
                   for i, x in enumerate(out.allocation) if x >= 1)
    else:
        paid = sum(out.payments)
    return lhs - (lam * opt.value - alpha * paid)


def _rows(chunks):
    """(chunk, row) for every row of the chunks, in case order."""
    for chunk in chunks:
        for r in range(len(chunk.n)):
            yield chunk, r


def test_cases_cover_what_the_kernel_pads_and_branches_on(cases):
    kinds = {inst.tie_break.kind for inst, _ in cases}
    assert kinds == {"lexicographic", "favor_bidder", "favor_last",
                     "explicit"}
    explicit_ties = sum(
        inst.tie_break.kind == "explicit" and profile.interface == STANDARD
        and len({v for vec in profile.vectors() for v in vec if v > 0})
        < sum(v > 0 for vec in profile.vectors() for v in vec)
        for inst, profile in cases)
    assert explicit_ties >= 50
    assert any(all(v == 0.0 for vec in profile.vectors() for v in vec)
               for _, profile in cases)
    idle = sum(0 in optimal_allocation(inst.valuations, inst.k).allocation
               for inst, _ in cases)
    assert idle >= 200
    assert len(cases) > 32 * CHUNK


def test_kernel_matches_the_scalar_layers(cases):
    """Optimum, auction, every beta_-i and every quadrature, on both
    paths: against the (uniformized) profile after the auction, and
    against the raw profile without it."""
    for auction in (True, False):
        chunks = (smoothness._certify(rows, ALPHAS, auction)
                  for rows in _chunks(itertools.starmap(_row, cases)))
        for (instance, profile), (chunk, r) in zip(cases, _rows(chunks),
                                                   strict=True):
            n, k = instance.n, instance.k
            opt = optimal_allocation(instance.valuations, k)
            assert tuple(chunk.optimum[r, :n].tolist()) == opt.allocation
            assert repr(float(chunk.opt_value[r])) == repr(opt.value)
            opposing = profile
            if auction:
                out = run_auction(profile, instance.tie_break,
                                  instance.pricing)
                allocation, price, payments, paid = (
                    part[r] for part in chunk.outcome)
                assert tuple(allocation[:n].tolist()) == out.allocation
                assert repr(float(price)) == repr(out.uniform_price)
                assert ([repr(float(p)) for p in payments[:n]]
                        == [repr(float(p)) for p in out.payments])
                if (instance.pricing == UNIFORM
                        and profile.interface == STANDARD):
                    opposing = uniformize_profile(profile,
                                                  instance.tie_break)
            for i in range(n):
                assert (tuple(chunk.betas[r, i, :k].tolist())
                        == beta_minus_i(opposing, i))
            scalar = _deviation_cases(instance, opt.allocation,
                                      [(opposing, 1.0)], ALPHAS)
            for i, (x, unit_value, exp_beta, utils) in enumerate(scalar):
                assert repr(float(chunk.per_unit[r, i])) == repr(unit_value)
                assert repr(float(chunk.beta_sums[r, i])) == repr(exp_beta)
                assert (repr(chunk.utils[:, r, i].tolist())
                        == repr(utils)), (instance, profile, i)


def test_key_lemma_margins_match_the_scalar_code(cases):
    """Single and mixed opposing lists, both classes; one list longer than
    a chunk, so its rows straddle a chunk boundary."""
    rng = random.Random(5)
    for index, (instance, profile) in enumerate(cases[:600]):
        size = 70 if index % 100 == 0 else rng.randint(1, 3)
        others = [_profile(rng, instance.n, instance.k)
                  for _ in range(size - 1)]
        opposing = [(p, rng.choice((0.125, 0.3, 0.5, 1.0)))
                    for p in [profile] + others]
        vclass = ("submodular", "subadditive")[index % 2]
        got = key_lemma_margins(instance, opposing, ALPHAS, vclass)
        assert repr(got) == repr(
            _scalar_key_lemma(instance, opposing, ALPHAS, vclass))


def test_key_lemma_sweep_margins_match_the_scalar_code(cases):
    """Each case's least margin, as key_lemma_sweep reads it, over chunks."""
    got = list(smoothness._key_lemma_least(
        (smoothness._certify(rows, ALPHAS, False)
         for rows in _chunks(itertools.starmap(_row, cases))),
        ALPHAS, "subadditive"))
    want = []
    for instance, profile in cases:
        worst = math.inf
        for per_unit, template in _scalar_key_lemma(
                instance, [(profile, 1.0)], ALPHAS, "subadditive"):
            worst = min(worst, *per_unit, *template)
        want.append(worst)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("pricing", [DISCRIMINATORY, UNIFORM])
def test_smoothness_margins_match_the_scalar_code(cases, pricing):
    """Per case, and the minimum over every submodular case of a pricing
    rule (both interfaces; uniformized under uniform pricing)."""
    kind = "smooth" if pricing == DISCRIMINATORY else "weakly_smooth"
    chosen = [(inst, profile) for inst, profile in cases
              if inst.pricing == pricing
              and all(map(is_submodular, inst.valuations))]
    assert len(chosen) > 2 * CHUNK
    for alpha in ALPHAS:
        lam = guarantee_lambda(alpha, "submodular")
        want = [_scalar_smoothness_margin(inst, profile, alpha, lam)
                for inst, profile in chosen]
        cert = verify_smoothness(iter(chosen), alpha, kind, "submodular")
        assert repr(cert.margin) == repr(min(math.inf, *want))
        assert cert.instances == len(chosen)
        for case, margin in list(zip(chosen, want))[::25]:
            one = verify_smoothness([case], alpha, kind, "submodular")
            assert repr(one.margin) == repr(margin)
