"""Shared helpers for the test suite."""

import random

from poa_lab.equilibria import BayesianGame
from poa_lab.mechanisms import (
    StandardBid,
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
