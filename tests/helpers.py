"""Shared helpers for the test suite."""

import math
import random
from dataclasses import replace
from typing import Sequence

import numpy as np

from poa_lab.equilibria import (
    BayesianGame,
    BestResponse,
    BidGrid,
    _grid_bids,
    _grid_spaces,
    pure_strategy,
)
from poa_lab.mechanisms import (
    STANDARD,
    UNIFORM,
    UNIFORM_IFACE,
    AuctionInstance,
    StandardBid,
    UniformBid,
    beta_minus_i,
    deviation_outcomes,
    run_auction,
    standard_profile,
    tie_explicit,
    tie_favor_bidder,
    tie_favor_last,
    tie_lexicographic,
)
from poa_lab.smoothness import _upper_limit
from poa_lab.valuations import Valuation, tau


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


def standard_deviation_game():
    """(game, strategy) where only a standard bid pays to deviate to: k = 2,
    tick 0.25, pay-as-bid, lexicographic ties.  Bidder 0, of marginal
    values (0.875, 0.625), bids (0.25, 0.25); bidder 1 bids (0.5, 0.5) or,
    half the time, (0.25, 0).  Bidding (0.5, 0.25) wins one unit then two,
    0.5625 in expectation against 0.5, and no uniform bid beats 0.5."""
    game = BayesianGame(
        2, ((Valuation((0.0, 0.875, 1.5)),),
            (Valuation((0.0, 1.0, 1.625)), Valuation((0.0, 0.5, 0.5)))),
        ((1.0,), (0.5, 0.5)), BidGrid(0.25, 1.0, "standard"),
        tie_lexicographic(), "discriminatory")
    return game, pure_strategy((
        (StandardBid((0.25, 0.25)),),
        (StandardBid((0.5, 0.5)), StandardBid((0.25, 0.0)))))


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
    """Reference best response: scan every uniform (optionally, on a
    standard-interface profile, then every standard) grid bid, keeping the
    first best one that beats bidding nothing."""
    val = instance.valuations[i]
    interfaces = [UNIFORM_IFACE]
    if include_standard and profile.interface == STANDARD:
        interfaces.append(STANDARD)
    spaces = [_grid_spaces(replace(grid, interface=interface), instance.k,
                           [val])[0] for interface in interfaces]
    _, utils = deviation_outcomes([profile], i, np.concatenate(spaces),
                                  val.values, instance.tie_break,
                                  instance.pricing)
    # np.argmax returns the first maximum
    c = int(np.argmax(utils[0]))
    if not utils[0, c] > 0.0:
        return BestResponse(UniformBid(0.0, 0), 0.0)
    for interface, space in zip(interfaces, spaces):
        if c < len(space):
            return BestResponse(_grid_bids(interface, space[c:c + 1])[0],
                                float(utils[0, c]))
        c -= len(space)


# The scalar deviation quadrature, the reference the certificate kernel is
# held to bit for bit.


def _per_unit_value(val: Valuation, x_opt: int) -> float:
    """v(tau)/tau over the first x_opt units; 0 when x_opt = 0."""
    if not 0 <= x_opt <= val.k:
        raise ValueError("x_opt out of range")
    if x_opt == 0:
        return 0.0
    t = tau(val, x_opt)
    return val.value(t) / t


def _deviation_utility(val: Valuation, x_opt: int,
                       beta_minus: Sequence[float], alpha: float,
                       pricing: str, per_unit: float, upper: float) -> float:
    """expected_deviation_utility_exact given the deviation's v(tau)/tau
    (0 when x_opt = 0) and upper limit B, with no check of its inputs."""
    if per_unit <= 0.0:
        return 0.0
    gammas = [min(max(beta_minus[j - 1] / per_unit, 0.0), upper)
              for j in range(1, x_opt + 1)]
    gammas.append(upper)
    total = 0.0
    for j in range(1, x_opt + 1):
        a, b = gammas[j - 1], gammas[j]
        if b <= a:
            continue
        log_term = math.log((1.0 - a) / (1.0 - b))
        mass = alpha * log_term
        if pricing == UNIFORM and j == x_opt:
            total += (val.value(j) - j * beta_minus[j - 1]) * mass
        else:
            t_mass = alpha * (log_term - (b - a))
            total += val.value(j) * mass - j * per_unit * t_mass
    return total


def _deviation_cases(instance: AuctionInstance, x_opt: Sequence[int],
                     opposing, alphas):
    """Per bidder i: (x_i*, v(tau)/tau, E[sum_{j<=x_i*} beta_j], one exact
    E[u_i(b'_i, b_-i)] per alpha) of the randomized deviation against the
    mixed opposing [(BidProfile, prob)].  B is computed once per alpha, so
    every alpha is checked before any quadrature."""
    uppers = [_upper_limit(alpha) for alpha in alphas]
    cases = []
    for i, val in enumerate(instance.valuations):
        x = x_opt[i]
        betas = [(beta_minus_i(profile, i), prob)
                 for profile, prob in opposing]
        exp_beta = 0.0
        for beta, prob in betas:
            exp_beta += prob * sum(beta[:x])
        unit_value = _per_unit_value(val, x)
        utils = []
        for alpha, upper in zip(alphas, uppers):
            lhs = 0.0
            for beta, prob in betas:
                lhs += prob * _deviation_utility(
                    val, x, beta, alpha, instance.pricing, unit_value, upper)
            utils.append(lhs)
        cases.append((x, unit_value, exp_beta, utils))
    return cases
