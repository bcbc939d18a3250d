"""Deviation-based welfare guarantees and their numerical certification.

The central object is a randomized uniform deviation: bid t * v(tau)/tau on
the first x_opt slots, with t drawn from density alpha/(1-t) on
[0, 1 - e^(-1/alpha)].  Its expected utility against fixed opposing bids has
a closed form (piecewise integration between the opposing winning-bid
thresholds), which is the exact evaluator used everywhere; Monte Carlo is a
cross-check only.  On top of it sit the deviation-guarantee inequality with
constants (lambda, mu), smoothness and weak-smoothness certificates, the
bound table (uniform pricing's 3.1462 = -W_-1(-e^-2) comes from one Newton
solve), and the two instances showing the template cannot beat e/(e-1)
(pay-as-bid) and 2 (uniform pricing).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .equilibria import BidGrid, _grid_spaces
from .mechanisms import (
    DISCRIMINATORY,
    PRICINGS,
    STANDARD,
    UNIFORM,
    UNIFORM_IFACE,
    AuctionInstance,
    BidProfile,
    StandardBid,
    _betas_minus,
    _ranked_outcomes,
    allocate,
    beta_minus_i,
    deviation_outcomes,
    run_auction,  # noqa: F401  bound here for perfbench's tracer
    tie_ranks,
    uniform_vectors,
)
from .valuations import Valuation, subadditive_curves, submodular_curves
from .welfare import optimal_allocation, optimal_allocations

MARGIN_TOL = 1e-9


# ---------------------------------------------------------------------------
# Bound arithmetic and the bound table


def optimal_alpha(pricing: str) -> float:
    """Deviation scale minimizing the implied bound for each pricing rule.

    Uniform pricing's is alpha = -1/(W_-1(-e^-2) + 2): eight Newton steps on
    w*e^w = -e^-2 from w = -3 reach the root to the last bit.
    """
    if pricing == DISCRIMINATORY:
        return 1.0
    if pricing == UNIFORM:
        x = -math.exp(-2.0)
        w = -3.0
        for _ in range(8):
            ew = math.exp(w)
            w -= (w * ew - x) / (ew * (w + 1.0))
        return -1.0 / (w + 2.0)
    raise ValueError(f"unknown pricing rule {pricing!r}")


def smooth_poa_bound(lam: float, mu: float) -> float:
    return max(1.0, mu) / lam


def weak_smooth_poa_bound(lam: float, mu1: float, mu2: float) -> float:
    return (mu2 + max(1.0, mu1)) / lam


# A kind's pricing rule: pay-as-bid is smooth (mu = alpha), uniform pricing
# weakly smooth (mu1 = 0, mu2 = alpha).  A class's factor on lambda (a
# subadditive per-unit value loses at most half) and membership test, on
# a chunk's packed curves.
CERTIFICATES = {"smooth": DISCRIMINATORY, "weakly_smooth": UNIFORM}
CLASSES = {"submodular": (1.0, submodular_curves),
           "subadditive": (0.5, subadditive_curves)}


def _lookup(table: dict, key: str, what: str):
    """table[key]; a ValueError naming what for a key not in table."""
    if key not in table:
        raise ValueError(f"unknown {what} {key!r}")
    return table[key]


def _implied_poa(kind: str, lam: float, mu: float, added: float = 0.0):
    """PoA bound of a (lam, mu) certificate of kind, added on mu (or mu1)."""
    if CERTIFICATES[kind] == UNIFORM:
        return weak_smooth_poa_bound(lam, added, mu)
    return smooth_poa_bound(lam, mu + added)


def guarantee_lambda(alpha: float, valuation_class: str) -> float:
    """lambda of the randomized deviation: alpha(1 - e^(-1/alpha)), times
    the class's factor in CLASSES."""
    factor = _lookup(CLASSES, valuation_class, "valuation class")[0]
    return alpha * _upper_limit(alpha) * factor


@dataclass(frozen=True)
class BoundRow:
    table: str
    mechanism: str
    valuation_class: str
    setting: str
    value: float

    def to_json(self):
        return {"table": self.table, "mechanism": self.mechanism,
                "valuation_class": self.valuation_class,
                "setting": self.setting, "value": self.value}


def bound_table() -> list[BoundRow]:
    """All PoA upper bounds, from guarantee_lambda at each rule's optimal
    alpha, or under standard bidding with subadditive bidders the (1/2, 1)
    deviation of Feldman, Fu, Gravin and Lucier.  Sequential composition
    adds 1 to mu (to mu1 under weak smoothness)."""
    rows, composition = [], []
    for mechanism, kind in (("discriminatory", "smooth"),
                            ("uniform_price", "weakly_smooth")):
        alpha = optimal_alpha(CERTIFICATES[kind])
        for vclass in CLASSES:
            lam = guarantee_lambda(alpha, vclass)
            bound = _implied_poa(kind, lam, alpha)
            settings = ([("standard|uniform", bound)] if vclass == "submodular"
                        else [("standard", _implied_poa(kind, 0.5, 1.0)),
                              ("uniform", bound)])
            rows += [BoundRow("poa", mechanism, vclass, *s) for s in settings]
            composition += [
                BoundRow("composition", mechanism, vclass, *s) for s in (
                    ("simultaneous", bound),
                    ("sequential", _implied_poa(kind, lam, alpha, 1.0)))]
    return rows + composition


# ---------------------------------------------------------------------------
# The randomized uniform deviation and its exact expected utility


def _upper_limit(alpha: float) -> float:
    """B = 1 - e^(-1/alpha), the top of the deviation's support."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return 1.0 - math.exp(-1.0 / alpha)


def _per_unit_values(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """v(tau)/tau over the first x units, the least v(j)/j for j <= x, and 0
    where x = 0: values[..., u] is v(u) and x holds one count per curve."""
    width = values.shape[-1] - 1
    ratios = np.minimum.accumulate(values[..., 1:] / np.arange(1, width + 1),
                                   axis=-1)
    at = np.take_along_axis(ratios, np.maximum(x - 1, 0)[..., None], axis=-1)
    return np.where(x > 0, at[..., 0], 0.0)


def _quadrature(values: np.ndarray, x: np.ndarray, beta: np.ndarray,
                per_unit: np.ndarray, alphas, uniform: np.ndarray):
    """Exact E[u] of the randomized deviation, one per alpha and curve:
    values[..., u] is v(u), beta[..., j - 1] the threshold beta_j, x the
    units x_opt, per_unit v(tau)/tau and uniform whether pricing is
    uniform, all broadcast over the curves.

    Between consecutive thresholds gamma_j = clamp(beta_j * tau/v(tau), 0, B)
    the deviation wins exactly j units.  Pay-as-bid charges t*j*v(tau)/tau;
    uniform pricing charges the same while the deviator still has losing
    bids of his own, and the displaced bid beta_j on the top segment where
    he wins his full quantity.  Every operation is the scalar sum's, in its
    order; the logarithms are math.log's, which np.log does not match to
    the last bit on every host.
    """
    alpha = np.reshape(alphas, (-1, 1))
    upper = np.reshape([_upper_limit(a) for a in alphas], (-1, 1))
    j = np.arange(1, beta.shape[-1] + 1)
    # only the segments j <= x of a deviation with v(tau)/tau > 0 can
    # count; they are computed as one flat array per alpha
    live = (j <= x[..., None]) & (per_unit > 0.0)[..., None]
    unit = np.broadcast_to(per_unit[..., None], live.shape)[live]
    top = (j == x[..., None])[live]
    uniform_top = np.broadcast_to(uniform[..., None], live.shape)[live] & top
    gains = values[..., 1:][live]
    threshold = beta[live]
    js = np.broadcast_to(j, live.shape)[live]
    # segment j runs from gamma_j to gamma_(j+1), the top one (j = x) to B
    a = np.minimum(np.maximum(threshold / unit, 0.0), upper)
    b = np.where(top, upper, np.minimum(np.maximum(
        np.roll(beta, -1, axis=-1)[live] / unit, 0.0), upper))
    valid = b > a
    log_term = np.zeros(valid.shape)
    log_term[valid] = list(map(math.log,
                               ((1.0 - a[valid]) / (1.0 - b[valid])).tolist()))
    mass = alpha * log_term
    util = np.where(uniform_top, (gains - js * threshold) * mass,
                    gains * mass - (js * unit) * (alpha * (log_term - (b - a))))
    terms = np.zeros((len(alphas),) + live.shape)
    terms[:, live] = np.where(valid, util, 0.0)
    # summed segment by segment, as the scalar loop does from 0.0: no term
    # is -0.0, so starting from the first term gives the same bits
    return np.cumsum(terms, axis=-1)[..., -1]


def _check_deviation(val: Valuation, x_opt: int, beta_minus, alpha: float,
                     pricing: str) -> None:
    """ValueError for a deviation the expected utility is not defined for."""
    if not 0 <= x_opt <= val.k:
        raise ValueError("x_opt out of range")
    if pricing not in PRICINGS:
        raise ValueError(f"unknown pricing rule {pricing!r}")
    if len(beta_minus) < x_opt:
        raise ValueError("beta_minus has fewer than x_opt thresholds")
    if not all(0.0 <= b < math.inf for b in beta_minus):
        raise ValueError("beta_minus must be finite and non-negative")
    _upper_limit(alpha)


def expected_deviation_utility_exact(val: Valuation, x_opt: int,
                                     beta_minus: Sequence[float],
                                     alpha: float, pricing: str) -> float:
    """Exact expectation of the deviator's utility, by piecewise quadrature:
    one row of the certificate kernel's (see _quadrature)."""
    _check_deviation(val, x_opt, beta_minus, alpha, pricing)
    values = np.array([val.values])
    x = np.array([x_opt])
    beta = np.zeros((1, val.k))
    beta[0, :x_opt] = beta_minus[:x_opt]
    return float(_quadrature(values, x, beta, _per_unit_values(values, x),
                             (alpha,), np.array([pricing == UNIFORM]))[0, 0])


def _units_won(thresholds: np.ndarray, bids: np.ndarray) -> np.ndarray:
    """How many sorted thresholds each bid beats strictly, as
    np.searchsorted(thresholds, bids, side="left") gives; over at most k
    thresholds, one pass per threshold is faster."""
    return sum(bids > t for t in thresholds)


def expected_deviation_utility_mc(val: Valuation, x_opt: int,
                                  beta_minus: Sequence[float], alpha: float,
                                  pricing: str, samples: int = 10 ** 6,
                                  seed: int = 0) -> tuple[float, float]:
    """Monte Carlo cross-check of the exact quadrature: (mean, stderr)."""
    _check_deviation(val, x_opt, beta_minus, alpha, pricing)
    per_unit = float(_per_unit_values(np.array(val.values), np.array(x_opt)))
    if per_unit <= 0.0:
        return 0.0, 0.0
    # inverse CDF of the density alpha/(1-t): t = 1 - e^(-u/alpha)
    u = np.random.default_rng(seed).random(samples)
    bids = (1.0 - np.exp(-u / alpha)) * per_unit
    thresholds = np.asarray(beta_minus[:x_opt], dtype=float)
    won = _units_won(thresholds, bids)
    gains = np.asarray(val.values, dtype=float)[won]
    if pricing == DISCRIMINATORY:
        pay = won * bids
    else:
        price = np.where(won < x_opt, bids, thresholds[x_opt - 1])
        pay = won * price
    util = gains - pay
    return float(util.mean()), float(util.std(ddof=1) / math.sqrt(samples))


# ---------------------------------------------------------------------------
# The certificate kernel: CHUNK cases per numpy pass

CHUNK = 64


def _opposing_list(opposing):
    """opposing as [(BidProfile, prob)]; a single profile has probability 1."""
    if isinstance(opposing, BidProfile):
        return [(opposing, 1.0)]
    if not opposing:
        raise ValueError("no opposing profiles supplied")
    return opposing


def _row(instance: AuctionInstance, profile: BidProfile):
    """What the kernel reads of one (instance, profile) case; it holds
    neither object."""
    if (profile.n, profile.k) != (instance.n, instance.k):
        raise ValueError("the profile does not fit the instance")
    return (instance.k, [v.values for v in instance.valuations],
            profile.vectors(), instance.tie_break,
            instance.pricing == UNIFORM, profile.interface == STANDARD)


@dataclass(frozen=True)
class _Certified:
    """The kernel's arrays for a chunk of rows.  Bidder axes run to the
    chunk's largest n, unit axes to its largest k; absent bidders hold
    zeros.  outcome is the auction's (allocation, uniform price, payments,
    paid), paid being the payments' sum under pay-as-bid and the
    willingness to pay sum_i x_i * b_i(x_i) under uniform pricing."""

    n: np.ndarray
    optimum: np.ndarray
    opt_value: np.ndarray
    values_at_opt: np.ndarray
    per_unit: np.ndarray
    betas: np.ndarray
    beta_sums: np.ndarray
    utils: np.ndarray
    outcome: tuple | None


def _packed(rows, n, k, part: int, width: int, units) -> np.ndarray:
    """Part 1 (curves, k + 1 values each) or 2 (bid vectors, k each) of
    every row, zero-padded to (rows, max n, width); ValueError unless each
    row holds n of them of the right length."""
    items = [item for row in rows for item in row[part]]
    if not (np.array_equal([len(row[part]) for row in rows], n)
            and np.array_equal(np.fromiter(map(len, items), int, len(items)),
                               np.repeat(units, n))):
        raise ValueError("a row's curves or bids do not fit its n and k")
    out = np.zeros((len(rows), int(n.max()), width))
    # boolean assignment fills row by row, bidder by bidder, slot by slot
    out[(np.arange(out.shape[1]) < n[:, None])[:, :, None]
        & (np.arange(width) < units[:, None, None])] = np.fromiter(
            itertools.chain.from_iterable(items), float, int(units @ n))
    return out


def _certify(rows, alphas, auction: bool,
             valuation_class: str | None = None) -> _Certified:
    """One pass over a chunk of _row's rows, each row's numbers equal bit
    for bit to the scalar code's: the optimum by optimal_allocations;
    with auction, the outcome by _ranked_outcomes and, for a standard
    profile under uniform pricing, its uniformization as the opposing
    profile (else the profile itself); every beta_-i; v(tau)/tau; and the
    exact quadrature of every bidder for every alpha.

    The packed chunk is checked first, as Valuation and StandardBid check
    one object: curves from v(0) = 0, finite and non-decreasing; bids
    finite, non-negative and non-increasing; and, given a class, each
    curve in it by CLASSES's predicate.  Each failure is a ValueError."""
    n = np.array([len(row[1]) for row in rows])
    k = np.array([row[0] for row in rows])
    count, width = len(rows), int(k.max())
    values = _packed(rows, n, k, 1, width + 1, k + 1)
    bids = _packed(rows, n, k, 2, width, k)
    slots = np.arange(width + 1)
    if not (np.isfinite(values).all() and (values[:, :, 0] == 0.0).all()
            and ((values[:, :, 1:] >= values[:, :, :-1])
                 | (slots[1:] > k[:, None, None])).all()):
        raise ValueError("valuation curves must start at v(0) = 0 and be "
                         "finite and non-decreasing")
    if not (((0.0 <= bids) & (bids < math.inf)).all()
            and (bids[:, :, 1:] <= bids[:, :, :-1]).all()):
        raise ValueError("marginal bids must be finite, non-negative and "
                         "non-increasing")
    if valuation_class is not None and not CLASSES[valuation_class][1](
            values, k[:, None]).all():
        raise ValueError(
            f"valuation not in declared class {valuation_class!r}")
    # a -0.0 bid is a zero bid, as the scalar code's v > 0.0 tests read it
    bids = np.where(bids > 0.0, bids, 0.0)
    # -inf past each row's k, and past v(0) = 0 for absent bidders
    present = (slots <= k[:, None, None]) & (
        (np.arange(values.shape[1])[:, None] < n[:, None, None]) | (slots == 0))
    optimum, opt_value = optimal_allocations(
        np.where(present, values, -np.inf), k)
    uniform = np.array([row[4] for row in rows])
    opposing, outcome = bids, None
    if auction:
        ranks = np.zeros(bids.shape, dtype=np.int64)
        for r, (units, vals, _, tie, *_) in enumerate(rows):
            ranks[r, :len(vals), :units] = tie_ranks(tie, len(vals), units)[0]
        allocation, price, payments = _ranked_outcomes(bids, ranks, k, uniform)
        last = np.take_along_axis(
            bids, np.maximum(allocation - 1, 0)[:, :, None], axis=2)[:, :, 0]
        # a standard profile under uniform pricing faces its uniformization:
        # each winner bids its last winning bid on the units it won
        uniformize = uniform & np.array([row[5] for row in rows])
        opposing = np.where(
            uniformize[:, None, None],
            np.where(np.arange(width) < allocation[:, :, None],
                     last[:, :, None], 0.0), bids)
        willing = np.where(allocation > 0, allocation * last, 0.0)
        paid = np.cumsum(np.where(uniform[:, None], willing, payments),
                         axis=1)[:, -1]
        outcome = (allocation, price, payments, paid)
    betas = _betas_minus(opposing, k)
    sums = np.zeros(values.shape)
    np.cumsum(betas, axis=2, out=sums[:, :, 1:])
    per_unit = _per_unit_values(values, optimum)
    return _Certified(
        n, optimum, opt_value,
        np.take_along_axis(values, optimum[:, :, None], axis=2)[:, :, 0],
        per_unit, betas,
        np.take_along_axis(sums, optimum[:, :, None], axis=2)[:, :, 0],
        _quadrature(values, optimum, betas, per_unit, alphas,
                    uniform[:, None]),
        outcome)


def _chunks(cases):
    """_row of each of an iterable of (instance, profile) cases, read once,
    CHUNK rows at a time: a chunk holds the rows, not the cases."""
    rows = itertools.starmap(_row, cases)
    while chunk := list(itertools.islice(rows, CHUNK)):
        yield chunk


def _certified_chunks(cases, alphas, auction: bool):
    """_certify over (instance, profile) cases, CHUNK at a time."""
    for rows in _chunks(cases):
        yield _certify(rows, alphas, auction)


def _key_lemma_forms(alphas, valuation_class: str):
    """margins(utils, x, per_unit, exp_beta, v_x): the per-unit margin
    E[u] - (alpha*B * x * v(tau)/tau - alpha*E[sum beta]) and the template
    margin of verify_template_inequality (lambda the class constant, mu =
    alpha), stacked on axis 1 of (alphas, 2, ...) arrays.  Every alpha
    and the class are checked here, before any quadrature."""
    per_alpha = [(alpha, guarantee_lambda(alpha, "submodular"),
                  guarantee_lambda(alpha, valuation_class))
                 for alpha in alphas]

    def margins(utils, x, per_unit, exp_beta, v_x):
        alpha, scale, lam = np.reshape(per_alpha, (-1, 3) + (1,) * x.ndim
                                       ).swapaxes(0, 1)
        paid = alpha * exp_beta
        return np.stack((utils - (scale * x * per_unit - paid),
                         utils - (lam * v_x - paid)), axis=1)
    return margins


def key_lemma_margins(instance: AuctionInstance, opposing, alphas,
                      valuation_class: str = "submodular"):
    """[(per_unit, template)] per alpha: the per-bidder margins of
    verify_key_lemma (with E[sum beta] against a mixed opposing) and of
    template_margins_key_lemma.  The kernel takes one row per opposing
    profile, CHUNK rows per pass; each row's quadratures and threshold
    sums are folded in list order as lhs += prob * util."""
    opposing = _opposing_list(opposing)
    margins = _key_lemma_forms(alphas, valuation_class)
    n = instance.n
    lhs = exp_beta = 0.0
    probs = iter(prob for _, prob in opposing)
    for chunk in _certified_chunks(
            ((instance, profile) for profile, _ in opposing), alphas, False):
        for r, prob in zip(range(len(chunk.n)), probs):
            lhs = lhs + prob * chunk.utils[:, r, :n]
            exp_beta = exp_beta + prob * chunk.beta_sums[r, :n]
    return [(tuple(per_unit), tuple(template))
            for per_unit, template in margins(
                lhs, chunk.optimum[0, :n], chunk.per_unit[0, :n], exp_beta,
                chunk.values_at_opt[0, :n]).tolist()]


def _key_lemma_worst(cases, alphas, valuation_class: str):
    """Each case's least margin of key_lemma_margins against its one
    profile, the first in that order over alphas, per-unit then template
    forms and bidders; cases are read once, a chunk at a time."""
    return _key_lemma_least(_certified_chunks(cases, alphas, False), alphas,
                            valuation_class)


def _key_lemma_least(certified, alphas, valuation_class: str):
    """_key_lemma_worst of each row of _certify's chunks.  Each chunk is
    let go once its margins are read, before the next one is made."""
    margins = _key_lemma_forms(alphas, valuation_class)

    def least(chunk):
        both = margins(chunk.utils, chunk.optimum, chunk.per_unit,
                       chunk.beta_sums, chunk.values_at_opt)
        absent = np.arange(both.shape[-1]) >= chunk.n[:, None]
        both[..., absent] = math.inf
        return list(map(min, np.moveaxis(both, 2, 0).reshape(
            len(chunk.n), -1).tolist()))
    return itertools.chain.from_iterable(map(least, certified))


def verify_key_lemma(instance: AuctionInstance, profile: BidProfile,
                     alpha: float) -> tuple[float, ...]:
    """Per-bidder margin (exact expected deviation utility) - (lower bound)."""
    return key_lemma_margins(instance, profile, (alpha,))[0][0]


# ---------------------------------------------------------------------------
# Smoothness certificates


@dataclass(frozen=True)
class SmoothnessCertificate:
    """A certificate of a kind in CERTIFICATES; its kind and alpha decide
    its mu (mu1 = 0 and mu2 = alpha when weakly smooth)."""

    kind: str
    lam: float
    alpha: float
    margin: float
    verified: bool
    instances: int

    @property
    def implied_poa(self) -> float:
        return _implied_poa(self.kind, self.lam, self.alpha)

    def to_json(self):
        mus = ({"mu1": 0.0, "mu2": self.alpha}
               if CERTIFICATES[self.kind] == UNIFORM else {"mu": self.alpha})
        return {"kind": self.kind, "lambda": self.lam, "alpha": self.alpha,
                "margin": self.margin, "verified": self.verified,
                "instances": self.instances, "implied_poa": self.implied_poa,
                **mus}


def verify_smoothness(cases, alpha: float, kind: str,
                      valuation_class: str) -> SmoothnessCertificate:
    """Check the summed deviation guarantee on every (instance, profile) case.

    kind "smooth" (pay-as-bid): sum_i E[u_i(b'_i, b_-i)] >=
    lambda*OPT - alpha*sum_i P_i(b).  kind "weakly_smooth" (uniform price):
    the subtracted term is alpha * sum_i x_i(b)*b_i(x_i(b)); for
    uniform-interface profiles the deviations face the profile itself,
    while standard-interface profiles are first passed through the
    uniformization transform (which preserves allocation and
    willingness-to-pay) -- bidding against the raw standard profile, the
    deviation can be blocked by losing bids that the willingness-to-pay
    term does not see, and the inequality genuinely fails.  The deviation
    expectations are exact; the certificate carries the minimum margin.
    cases is any iterable, read once: the kernel holds one chunk of CHUNK
    packed cases, with no case object, so memory does not grow with the
    count.  Every valuation is checked against the class in the packed
    chunk (see _certify).
    """
    return _smoothness_certificate(_chunks(cases), alpha, kind,
                                   valuation_class)


def _smoothness_certificate(chunks, alpha: float, kind: str,
                            valuation_class: str) -> SmoothnessCertificate:
    """verify_smoothness over chunks of _row's rows."""
    pricing = _lookup(CERTIFICATES, kind, "certificate kind")
    weak = pricing == UNIFORM
    lam = guarantee_lambda(alpha, valuation_class)

    def margins(rows):
        """The chunk's margins; its rows and arrays go with the call."""
        if any(row[4] != weak for row in rows):
            raise ValueError(f"{kind} certificates apply to {pricing} pricing")
        chunk = _certify(rows, (alpha,), True, valuation_class)
        # sum_i E[u_i], summed bidder by bidder
        lhs = np.cumsum(chunk.utils[0], axis=1)[:, -1]
        return (lhs - (lam * chunk.opt_value
                       - alpha * chunk.outcome[3])).tolist()

    min_margin = math.inf
    count = 0
    for chunk_margins in map(margins, chunks):
        min_margin = min(min_margin, *chunk_margins)
        count += len(chunk_margins)
    if count == 0:
        raise ValueError("no cases supplied")
    return SmoothnessCertificate(kind, lam, alpha, min_margin,
                                 min_margin >= -MARGIN_TOL, count)


# ---------------------------------------------------------------------------
# Deviation guarantee checks (the proof-template inequality)


def verify_template_inequality(expected_utility: float, value_at_opt: float,
                               expected_beta_sum: float, lam: float,
                               mu: float) -> float:
    """Margin of E[u_i(b'_i, b_-i)] >= lam*v_i(x_i) - mu*E[sum_{j<=x_i} beta_j].

    The core arithmetic shared by every deviation family; positive margins
    certify a (lam, mu) pair, negative suprema exhibit impossibility
    frontiers.
    """
    return expected_utility - (lam * value_at_opt - mu * expected_beta_sum)


def template_margins_key_lemma(instance: AuctionInstance, opposing,
                               alpha: float,
                               valuation_class: str = "submodular"):
    """Per-bidder margins of E[u_i(b'_i, b_-i)] >= lambda*v_i(x_i) - mu*E[sum beta].

    opposing is a single BidProfile or a list of (BidProfile, prob) pairs;
    the deviation is the randomized uniform one, lambda the class constant,
    mu = alpha.
    """
    return key_lemma_margins(instance, opposing, (alpha,),
                             valuation_class)[0][1]


def feldman_tbeta(beta_prefix: Sequence[float], val: Valuation) -> tuple[int, ...]:
    """Largest block of top entries within the prefix whose sum exceeds the value.

    Returns 1-based indices into beta_prefix (ascending order assumed).  The
    choice is maximal by inclusion: for any larger size the sum of the
    largest entries already fails the test.
    """
    x = len(beta_prefix)
    for size in range(x, 0, -1):
        block = beta_prefix[x - size:]
        if sum(block) > val.value(size):
            return tuple(range(x - size + 1, x + 1))
    return ()


def feldman_bid(beta_vec: Sequence[float], x: int, variant: str,
                val: Valuation, tick: float = 0.0) -> StandardBid:
    """Deterministic part of the sampled deviation for one drawn beta vector.

    Keeps the x lowest opposing winning bids (zeroing the k-x highest); the
    uniform-price variant additionally zeroes the block found by
    feldman_tbeta so the remainder satisfies no-overbidding.  tick is added
    to the kept components to break ties in the deviator's favor.
    """
    k = len(beta_vec)
    kept = list(beta_vec[:x])
    if variant == UNIFORM:
        dropped = set(feldman_tbeta(kept, val))
        values = [0.0 if (j + 1) in dropped else kept[j] + tick
                  for j in range(x)]
    elif variant == DISCRIMINATORY:
        values = [b + tick for b in kept]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    values.sort(reverse=True)
    return StandardBid(tuple(values) + (0.0,) * (k - x))


def feldman_support(dist, x: int, variant: str, val: Valuation,
                    tick: float = 0.0):
    """Explicit support of the sampled deviation: [(StandardBid, prob)]."""
    return [(feldman_bid(beta, x, variant, val, tick), prob)
            for beta, prob in dist]


def template_margins_feldman(instance: AuctionInstance, opposing,
                             tick: float = 0.0):
    """Margins of the (1/2, 1) deviation guarantee under standard bidding.

    opposing is a list of (BidProfile, prob); the deviation resamples the
    opposing top-k distribution, and expectations enumerate both draws.
    """
    opposing = _opposing_list(opposing)
    x_opt = optimal_allocation(instance.valuations, instance.k).allocation
    margins = []
    profiles = [profile for profile, _ in opposing]
    for i, val in enumerate(instance.valuations):
        betas = [(beta_minus_i(profile, i), p) for profile, p in opposing]
        x = x_opt[i]
        exp_beta = sum(p * sum(beta[:x]) for beta, p in betas)
        lhs = 0.0
        if x >= 1:
            support = feldman_support(betas, x, instance.pricing, val, tick)
            utils = deviation_outcomes(
                profiles, i, np.array([bid.values for bid, _ in support]),
                val.values, instance.tie_break, instance.pricing)[1].tolist()
            for c, (_, p_bid) in enumerate(support):
                for (_, p_opp), row in zip(opposing, utils):
                    lhs += p_bid * p_opp * row[c]
        margins.append(verify_template_inequality(
            lhs, val.value(x), exp_beta, 0.5, 1.0))
    return tuple(margins)


# ---------------------------------------------------------------------------
# Lower-bound frontiers for the proof template


def _sup_utility(instance: AuctionInstance, profile: BidProfile, i: int,
                 vectors: np.ndarray) -> float:
    """Bidder i's best utility bidding a row of vectors against the
    profile's other bids, or 0."""
    _, utils = deviation_outcomes([profile], i, vectors,
                                  instance.valuations[i].values,
                                  instance.tie_break, instance.pricing)
    return max(0.0, float(utils.max()))


def theorem6_da_frontier(instance: AuctionInstance, profile: BidProfile,
                         mu: float) -> dict:
    """Pay-as-bid impossibility margin on a witness profile.

    Scans the constant-vector deviation family (every positive bid value in
    the profile, 1e-6 above each, and the bid 1e-6, at every quantity) and
    checks
    sup sum_i u_i + mu * sum_j beta_j(b) <= mu(1 - e^(-1/mu) + (1/k)(1 - 1/e)) * OPT.
    """
    k = instance.k
    values = sorted({v for i in range(profile.n) for v in profile.vector(i)
                     if v > 0.0})
    candidates = [1e-6]
    for v in values:
        candidates += [v, v + 1e-6]
    vectors = uniform_vectors(candidates, k)
    sups = [_sup_utility(instance, profile, i, vectors)
            for i in range(instance.n)]
    out = allocate(profile, instance.tie_break)
    sum_beta = sum(out.winning_bids)
    opt = optimal_allocation(instance.valuations, k).value
    lhs = sum(sups) + mu * sum_beta
    bound = mu * (1.0 - math.exp(-1.0 / mu)
                  + (1.0 / k) * (1.0 - math.exp(-1.0))) * opt
    return {"sup_utilities": tuple(sups), "sum_beta": sum_beta,
            "lhs": lhs, "bound": bound, "holds": lhs <= bound + 1e-6}


def theorem6_upa_check(instance: AuctionInstance, profile: BidProfile,
                       tick: float = 1e-3) -> dict:
    """One-item uniform-price scan pinning lambda <= (1 + mu)/2.

    Scans every no-overbidding single-unit grid bid in [0, 1] of each bidder
    of a k = 1 instance.  On the theorem6-upa witness (valuations (1, 1/2),
    both bid 1/2, ties favor the second bidder) the total achievable utility
    is exactly 1/2 while OPT = 1 and beta_1 = 1/2, so any certified
    (lambda, mu) must satisfy lambda <= (1 + mu)/2.
    """
    vals = instance.valuations
    grid = BidGrid(tick, 1.0, UNIFORM_IFACE, no_overbidding=True)
    sups = [_sup_utility(instance, profile, i, space)
            for i, space in enumerate(_grid_spaces(grid, 1, vals))]
    out = allocate(profile, instance.tie_break)
    total = sum(sups)
    return {
        "sup_utilities": tuple(sups),
        "total": total,
        "beta_1": out.winning_bids[0],
        "opt": optimal_allocation(vals, 1).value,
        "exact_half": total == 0.5,
        "frontier": "lambda <= (1 + mu)/2",
    }
