"""Shared helpers for the test suite."""

import random

import numpy as np

from poa_lab.equilibria import (
    BayesianGame,
    BestResponse,
    _deviation_bid,
    _deviation_vectors,
)
from poa_lab.mechanisms import (
    StandardBid,
    UniformBid,
    deviation_outcomes,
    run_auction,
    standard_profile,
    tie_explicit,
    tie_favor_bidder,
    tie_favor_last,
    tie_lexicographic,
)


def random_profile(rng: random.Random, n: int, k: int, scale: float = 1.0):
    bids = []
    for _ in range(n):
        vec = sorted((rng.uniform(0, scale) for _ in range(k)), reverse=True)
        bids.append(StandardBid(tuple(vec)))
    return standard_profile(k, *bids)


def singleton_game(instance, grid) -> BayesianGame:
    """Full-information wrapper: every bidder has one type."""
    return BayesianGame(
        instance.k,
        tuple((v,) for v in instance.valuations),
        tuple((1.0,) for _ in instance.valuations),
        grid, instance.tie_break, instance.pricing)


def random_tie(rng: random.Random, n: int, k: int):
    """A tie rule of a random kind; an explicit one ranks a shuffled subset
    of the (bidder, slot) pairs, so later slots often rank ahead of earlier
    ones."""
    kind = rng.randrange(4)
    if kind == 0:
        return tie_lexicographic()
    if kind == 1:
        return tie_favor_bidder(rng.randrange(n))
    if kind == 2:
        return tie_favor_last()
    pairs = [(i, s) for i in range(n) for s in range(k)]
    rng.shuffle(pairs)
    return tie_explicit(pairs[:rng.randint(1, len(pairs))])


def utilities(vals, profile, tie, pricing):
    """Every bidder's utility, v(units) - payment, in one full auction."""
    out = run_auction(profile, tie, pricing)
    return tuple(v.value(x) - pay
                 for v, x, pay in zip(vals, out.allocation, out.payments))


def best_response_enumerated(instance, profile, i, grid,
                             include_standard=False) -> BestResponse:
    """Reference best response: scan every uniform (optionally standard)
    grid bid, keeping the first best one that beats bidding nothing."""
    val = instance.valuations[i]
    vectors, n_uniform = _deviation_vectors(grid, instance.k, val,
                                            include_standard,
                                            profile.interface)
    _, utils = deviation_outcomes([profile], i, vectors, val.values,
                                      instance.tie_break, instance.pricing)
    # np.argmax returns the first maximum
    c = int(np.argmax(utils[0]))
    if not utils[0, c] > 0.0:
        return BestResponse(UniformBid(0.0, 0), 0.0)
    return BestResponse(_deviation_bid(vectors, n_uniform, c),
                        float(utils[0, c]))
