"""The standard multi-unit auction: allocation, pricing rules and utilities.

k identical units are sold; every bidder submits k non-increasing marginal
bids (or a uniform (price, quantity) pair, which expands to such a vector).
The k highest marginal bids each win one unit, with an injected tie-break
rule ordering equal bids.  A marginal bid of exactly 0 never wins a unit.

Two pricing rules are supported: discriminatory (pay your winning bids) and
uniform (pay the highest losing bid per unit won).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .valuations import Valuation, _json_float

DISCRIMINATORY = "discriminatory"
UNIFORM = "uniform"
PRICINGS = (DISCRIMINATORY, UNIFORM)
NO_OVERBID_TOL = 1e-12  # the slack of every no-overbidding test

# ---------------------------------------------------------------------------
# Bids and profiles


@dataclass(frozen=True)
class StandardBid:
    """Vector of k non-negative non-increasing marginal bids."""

    values: tuple[float, ...]

    def __post_init__(self):
        for j, v in enumerate(self.values):
            if not 0.0 <= v < math.inf:
                raise ValueError("marginal bids must be finite and non-negative")
            if j and v > self.values[j - 1]:
                raise ValueError("marginal bids must be non-increasing")

    @property
    def k(self) -> int:
        return len(self.values)

    def to_json(self):
        return list(self.values)


@dataclass(frozen=True)
class UniformBid:
    """A per-unit price together with a quantity cap q <= k."""

    price: float
    quantity: int

    def __post_init__(self):
        if not 0.0 <= self.price < math.inf:
            raise ValueError("price must be finite and non-negative")
        if self.quantity < 0:
            raise ValueError("quantity must be non-negative")

    def expand(self, k: int) -> StandardBid:
        if self.quantity > k:
            raise ValueError("quantity exceeds number of units")
        q = self.quantity
        return StandardBid((self.price,) * q + (0.0,) * (k - q))

    def to_json(self):
        return {"price": self.price, "quantity": self.quantity}


def uniform_vectors(prices, k: int) -> np.ndarray:
    """The expanded marginal-bid vectors of the uniform bids (p, q) for
    every p in prices and q = 1..k, in that order: row q - 1 of np.tri(k)
    holds q ones."""
    return (np.asarray(prices)[:, None, None] * np.tri(k)).reshape(-1, k)


def standard_bid(*values: float) -> StandardBid:
    return StandardBid(tuple(float(v) for v in values))


def zero_bid(k: int) -> StandardBid:
    return StandardBid((0.0,) * k)


STANDARD = "standard"
UNIFORM_IFACE = "uniform"


def _json_int(value, name: str) -> int:
    """An integer read from JSON: an int, or a float of integral value.  A
    bool or any other value is a ValueError: nothing is truncated."""
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _bid_from_json(data):
    """A bid from JSON: a uniform bid's object or a standard bid's list."""
    if isinstance(data, dict):
        return UniformBid(_json_float(data["price"], "price"),
                          _json_int(data["quantity"], "quantity"))
    return StandardBid(tuple(_json_float(x, "bid") for x in data))


@dataclass(frozen=True)
class BidProfile:
    """One bid per bidder; interface is "standard" or "uniform"."""

    bids: tuple
    interface: str
    k: int

    def __post_init__(self):
        if self.interface not in (STANDARD, UNIFORM_IFACE):
            raise ValueError(f"unknown interface {self.interface!r}")
        for b in self.bids:
            if self.interface == UNIFORM_IFACE and not isinstance(b, UniformBid):
                raise ValueError("uniform-interface profile needs UniformBid entries")
            if self.interface == STANDARD and not isinstance(b, StandardBid):
                raise ValueError("standard-interface profile needs StandardBid entries")
            if isinstance(b, StandardBid) and b.k != self.k:
                raise ValueError("bid length does not match k")
            if isinstance(b, UniformBid) and b.quantity > self.k:
                raise ValueError("uniform quantity exceeds k")

    @property
    def n(self) -> int:
        return len(self.bids)

    def vector(self, i: int) -> tuple[float, ...]:
        """Bidder i's bid expanded to a full marginal-bid vector."""
        b = self.bids[i]
        if isinstance(b, UniformBid):
            return (b.price,) * b.quantity + (0.0,) * (self.k - b.quantity)
        return b.values

    def vectors(self) -> list[tuple[float, ...]]:
        return [self.vector(i) for i in range(self.n)]

    def replace(self, i: int, bid) -> "BidProfile":
        if self.interface == STANDARD and isinstance(bid, UniformBid):
            bid = bid.expand(self.k)
        if self.interface == UNIFORM_IFACE and isinstance(bid, StandardBid):
            raise ValueError("cannot place a standard bid in a uniform profile")
        new = list(self.bids)
        new[i] = bid
        return BidProfile(tuple(new), self.interface, self.k)

    def to_json(self):
        return {
            "interface": self.interface,
            "k": self.k,
            "bids": [b.to_json() for b in self.bids],
        }

    @staticmethod
    def from_json(data) -> "BidProfile":
        return BidProfile(tuple(map(_bid_from_json, data["bids"])),
                          data["interface"], _json_int(data["k"], "k"))


def standard_profile(k: int, *bids) -> BidProfile:
    return BidProfile(tuple(bids), STANDARD, k)


def uniform_profile(k: int, *bids) -> BidProfile:
    return BidProfile(tuple(bids), UNIFORM_IFACE, k)


# ---------------------------------------------------------------------------
# Tie-breaking


@dataclass(frozen=True)
class TieBreakRule:
    """Strict total order over (bidder, marginal-slot) pairs.

    Kinds: "lexicographic" orders by (bidder, slot); "favor_bidder" puts one
    bidder's slots ahead of everyone else's; "favor_last" reverses the bidder
    order; "explicit" ranks a given list of pairs first, the rest
    lexicographically after it.
    """

    kind: str
    bidder: int | None = None
    order: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("lexicographic", "favor_bidder", "favor_last",
                             "explicit"):
            raise ValueError(f"unknown tie-break kind {self.kind!r}")
        if self.kind == "favor_bidder" and self.bidder is None:
            raise ValueError("favor_bidder needs a bidder index")
        if self.kind == "explicit":
            if not self.order:
                raise ValueError("explicit tie-break needs an order")
            if len(set(self.order)) != len(self.order):
                raise ValueError("explicit order has duplicate entries")

    def check_bidders(self, n: int) -> None:
        """ValueError if the rule favours a bidder outside range(n)."""
        if self.kind == "favor_bidder" and not 0 <= self.bidder < n:
            raise ValueError(f"no bidder {self.bidder} among {n} to favour")

    def priority(self, bidder: int, slot: int) -> tuple:
        if self.kind == "lexicographic":
            return (bidder, slot)
        if self.kind == "favor_bidder":
            return (0 if bidder == self.bidder else 1, bidder, slot)
        if self.kind == "favor_last":
            return (-bidder, slot)
        pair = (bidder, slot)  # an unlisted pair ranks after every listed one
        return ((*self.order, pair).index(pair), bidder, slot)

    def to_json(self):
        out = {"kind": self.kind}
        if self.bidder is not None:
            out["bidder"] = self.bidder
        if self.order is not None:
            out["order"] = [list(p) for p in self.order]
        return out

    @staticmethod
    def from_json(data) -> "TieBreakRule":
        order, bidder = data.get("order"), data.get("bidder")
        return TieBreakRule(
            data["kind"],
            bidder=None if bidder is None else _json_int(bidder, "bidder"),
            order=tuple((_json_int(i, "order"), _json_int(j, "order"))
                        for i, j in order) if order else None,
        )


@functools.lru_cache(maxsize=256)
def tie_ranks(tie: TieBreakRule, n: int, k: int):
    """(rank, worst): rank[i][s] is the place of (i, s) among all n * k
    pairs by tie.priority, worst[i][j] the largest of rank[i][:j + 1]."""
    pairs = sorted(itertools.product(range(n), range(k)),
                   key=lambda pair: tie.priority(*pair))
    rank = tuple(tuple(pairs.index((i, s)) for s in range(k))
                 for i in range(n))
    return rank, tuple(tuple(itertools.accumulate(row, max)) for row in rank)


def tie_lexicographic() -> TieBreakRule:
    return TieBreakRule("lexicographic")


def tie_favor_bidder(i: int) -> TieBreakRule:
    return TieBreakRule("favor_bidder", bidder=i)


def tie_favor_last() -> TieBreakRule:
    return TieBreakRule("favor_last")


def tie_explicit(pairs) -> TieBreakRule:
    return TieBreakRule("explicit", order=tuple((int(i), int(j)) for i, j in pairs))


def tie_break_presets(n: int) -> list[TieBreakRule]:
    presets = [tie_lexicographic()]
    presets += [tie_favor_bidder(i) for i in range(n)]
    presets.append(tie_favor_last())
    return presets


# ---------------------------------------------------------------------------
# Allocation and pricing


@dataclass(frozen=True)
class Outcome:
    """Allocation, winning-bid vector, uniform price and (optionally) payments.

    winning_bids lists the k winning bids sorted non-decreasing; when fewer
    than k positive bids exist the vector is padded with zeros at the front
    (an unfilled slot is a winning bid of 0).  uniform_price is the highest
    losing marginal bid.
    """

    allocation: tuple[int, ...]
    winning_bids: tuple[float, ...]
    uniform_price: float
    payments: tuple[float, ...] | None = None

    def to_json(self):
        out = {
            "allocation": list(self.allocation),
            "winning_bids": list(self.winning_bids),
            "uniform_price": self.uniform_price,
        }
        if self.payments is not None:
            out["payments"] = list(self.payments)
        return out


def _ranked_outcome(profile: BidProfile, tie: TieBreakRule,
                    pricing: str | None = None) -> tuple[list, Outcome]:
    """A profile's ranking and outcome, with payments if pricing is given.

    The ranking holds the positive marginal bids, highest first, as
    (-value, tie rank, bidder), the rank from tie_ranks' table; tie ranks
    are distinct, so its first k entries win."""
    vectors = profile.vectors()
    k = profile.k
    ranked = sorted((-v, r, i) for i, (vec, ranks) in
                    enumerate(zip(vectors, tie_ranks(tie, len(vectors), k)[0]))
                    for v, r in zip(vec, ranks) if v > 0.0)
    selected = ranked[:k]
    x = [0] * len(vectors)
    for _, _, i in selected:
        x[i] += 1
    beta = ((0.0,) * (k - len(selected))
            + tuple(-e[0] for e in reversed(selected)))
    p = -ranked[k][0] if len(ranked) > k else 0.0
    if pricing is None:
        pays = None
    elif pricing == DISCRIMINATORY:
        pays = tuple(sum(vec[:units]) for vec, units in zip(vectors, x))
    elif pricing == UNIFORM:
        pays = tuple(units * p for units in x)
    else:
        raise ValueError(f"unknown pricing rule {pricing!r}")
    return ranked, Outcome(tuple(x), beta, p, pays)


def _ranked_outcomes(bids: np.ndarray, ranks: np.ndarray, k: np.ndarray,
                     uniform: np.ndarray):
    """_ranked_outcome's (allocation, uniform price, payments) for a batch
    of rows, bit for bit: bids[r, i, s] is bidder i's s-th marginal bid in
    row r, non-negative and zero-padded, ranks[r, i, s] its place in
    tie_ranks' table, k[r] the row's units and uniform[r] whether the row
    prices uniformly.  One lexsort per row orders the entries by
    (-value, rank); the first k positive ones win, the next sets the
    price."""
    rows, n, width = bids.shape
    flat = bids.reshape(rows, -1)
    order = np.lexsort((ranks.reshape(rows, -1), -flat))
    ranked = np.zeros((rows, n * width + 1))
    ranked[:, :-1] = np.take_along_axis(flat, order, axis=1)
    wins = (ranked[:, :-1] > 0.0) & (np.arange(n * width) < k[:, None])
    units = ((order // width)[:, :, None] == np.arange(n)) & wins[:, :, None]
    units = units.sum(axis=1)
    price = ranked[np.arange(rows), k]
    # pay-as-bid pays sum(vector[:units]), summed slot by slot
    paid = np.zeros((rows, n, width + 1))
    np.cumsum(bids, axis=2, out=paid[:, :, 1:])
    payments = np.where(
        uniform[:, None], units * price[:, None],
        np.take_along_axis(paid, units[:, :, None], axis=2)[:, :, 0])
    return units, price, payments


def allocate(profile: BidProfile, tie: TieBreakRule) -> Outcome:
    """Run the allocation rule; payments are left unset."""
    return _ranked_outcome(profile, tie)[1]


def run_auction(profile: BidProfile, tie: TieBreakRule, pricing: str) -> Outcome:
    """allocate's outcome with the pricing rule's payments filled in.

    Pay-as-bid charges each bidder the sum of its winning marginal bids;
    uniform pricing charges every unit won the highest losing bid.
    """
    return _ranked_outcome(profile, tie, pricing)[1]


def social_welfare(vals: Sequence[Valuation], allocation: Sequence[int]) -> float:
    if len(vals) != len(allocation):
        raise ValueError("valuations and allocation lengths differ")
    return sum(v.value(x) for v, x in zip(vals, allocation))


def _overbids(vector, values) -> bool:
    """Whether a prefix sum, in slot order, exceeds v(s) + NO_OVERBID_TOL."""
    acc = 0.0
    for s, x in enumerate(vector, 1):
        acc += x
        if acc > values[s] + NO_OVERBID_TOL:
            return True
    return False


def check_no_overbidding(val: Valuation, bid: StandardBid) -> bool:
    """True iff every prefix sum of the bid is at most the value at that count."""
    if bid.k != val.k:
        raise ValueError("bid and valuation dimensions differ")
    return not _overbids(bid.values, val.values)


def beta_minus_i(profile: BidProfile, i: int) -> tuple[float, ...]:
    """Winning-bid vector of the auction run without bidder i.

    Sorted non-decreasing and zero-padded at the front to length k, the
    profile's; entry j is the threshold bidder i must beat to win a j-th
    unit.  It holds the values of the top k opposing bids, which the order
    of tied bids cannot change, so it needs no tie-break rule.
    """
    k = profile.k
    values = sorted((v for j in range(profile.n) if j != i
                     for v in profile.vector(j) if v > 0.0), reverse=True)[:k]
    return (0.0,) * (k - len(values)) + tuple(reversed(values))


def _betas_minus(bids: np.ndarray, k: np.ndarray) -> np.ndarray:
    """beta_minus_i of every bidder of a batch of rows: entry [r, i, j] for
    j < k[r], and 0 after, where bids[r, i, s] is bidder i's s-th marginal
    bid in row r, non-negative and zero-padded.  Each bidder's own bids
    are zeroed and the rest sorted ascending; the last k[r] are the top."""
    rows, n, width = bids.shape
    others = np.where(np.eye(n, dtype=bool)[:, :, None], 0.0, bids[:, None])
    ranked = np.sort(others.reshape(rows, n, n * width), axis=2)
    slots = np.arange(width)
    top = np.minimum(n * width - k[:, None] + slots, n * width - 1)
    betas = np.take_along_axis(ranked, top[:, None, :], axis=2)
    return np.where(slots < k[:, None, None], betas, 0.0)


class SearchCandidates:
    """Every bidder's candidate marginal-bid vectors, keyed once for
    block_allocation.

    spaces[j] is bidder j's (candidates x k) array of vectors.  Each entry
    of a vector is a (value, tie rank) pair, where the rank is the integer
    position of its (bidder, slot) in tie_ranks' table; a zero entry never
    wins, so every zero gets the rank after all pairs.  keys[j][c] holds
    candidate c's entries as dense integer keys in the global (-value,
    rank) order, ascending, then the zero key as padding to k + 1: a lower
    key outranks a higher one, and equal pairs share a key, so an own zero
    never beats an opposing one.  value_of_key maps a key back to its
    value.  paid[j][c, a] is sum(spaces[j][c][:a]), the pay-as-bid payment
    for a units.
    """

    def __init__(self, spaces: Sequence[np.ndarray], tie: TieBreakRule):
        n, k = len(spaces), spaces[0].shape[1]
        rank = tie_ranks(tie, n, k)[0]
        # every entry of the search, then one zero for the padding
        values = np.concatenate([space.ravel() for space in spaces] + [[0.0]])
        ranks = np.concatenate([np.tile(rank[j], len(space))
                                for j, space in enumerate(spaces)] + [[n * k]])
        positive = values > 0.0
        ranks = np.where(positive, ranks, n * k)
        # the keys number the distinct (-value, rank) pairs in that order
        levels, level = np.unique(-np.where(positive, values, 0.0),
                                  return_inverse=True)
        distinct, keys = np.unique(level * (n * k + 1) + ranks,
                                   return_inverse=True)
        self.value_of_key = -levels[distinct // (n * k + 1)]
        self.pad_key = keys[-1]
        self.k = k
        self.keys, self.paid = [], []
        start = 0
        for space in spaces:
            part = keys[start:start + space.size].reshape(space.shape)
            start += space.size
            # int32 halves the bytes block_allocation gathers per cell
            block = np.full((len(space), k + 1), self.pad_key, dtype=np.int32)
            block[:, :k] = np.sort(part, axis=1)
            self.keys.append(block)
            paid = np.zeros((len(space), k + 1))
            np.cumsum(space, axis=1, out=paid[:, 1:])
            self.paid.append(paid)


def block_allocation(cands: SearchCandidates, i: int, pricing: str,
                     picks: Sequence[np.ndarray]):
    """The valuation-free half of a block's outcomes: (units, charge) arrays
    of bidder i, entry [r, c] for its c-th candidate against the others'
    candidates picks[0][r], picks[1][r], ... (one index array per other
    bidder, in bidder order; with none, one row faces no entry).  Units
    come in the narrowest unsigned dtype that holds k.  The charge is,
    under pay-as-bid, the flat int64 index c * (k + 1) + units into a
    (candidates x k + 1) table such as paid[i]; under uniform pricing, the
    payment units * price.

    The facing entries of a row are the other bidder's keys, or for n > 2
    the lowest k + 1 of all the others' keys, by np.sort.  Own entry j wins
    iff its key is below facing entry k-1-j's: exactly j own and at most
    k-1-j opposing entries precede it then.  That test is monotone in j,
    so the number of own entries passing it is the number of units won.
    """
    if pricing not in PRICINGS:
        raise ValueError(f"unknown pricing rule {pricing!r}")
    k = cands.k
    others = cands.keys[:i] + cands.keys[i + 1:]
    own = cands.keys[i]
    if others:
        facing = np.concatenate(
            [keys[p] for keys, p in zip(others, picks)], axis=1)
        if len(others) > 1:
            facing = np.sort(facing, axis=1)[:, :k + 1]
    else:
        facing = np.full((1, k + 1), cands.pad_key)
    nrows = len(facing)
    units = np.zeros((nrows, len(own)), dtype=np.min_scalar_type(k))
    for j in range(k):
        units += own[:, j] < facing[:, k - 1 - j, None]
    if pricing == DISCRIMINATORY:
        return units, np.arange(0, own.size, k + 1) + units
    # the highest losing entry: the next own one or the next opposing one;
    # column k is read only when no unit is won
    losing = np.minimum(own[np.arange(len(own)), units],
                        facing[np.arange(nrows)[:, None], k - units])
    return units, units * cands.value_of_key[losing]


def block_utilities(cands: SearchCandidates, i: int, values: np.ndarray,
                    pricing: str, units, charge) -> np.ndarray:
    """Bidder i's utilities from block_allocation's arrays, where its value
    for u units is values[u]: under pay-as-bid one flat gather of the
    charge index from the per-candidate table v(u) - paid[c, u] (units is
    not read), under uniform pricing v(units) - charge.  This is the only
    step of a block that reads the valuation."""
    values = np.asarray(values, dtype=float)
    if pricing == DISCRIMINATORY:
        # fancy indexing of the flat table gathers faster than np.take
        return (values - cands.paid[i]).ravel()[charge]
    return values[units] - charge


def deviation_outcomes(profiles: Sequence[BidProfile], i: int,
                       vectors: np.ndarray, values: np.ndarray,
                       tie: TieBreakRule, pricing: str):
    """(units, utilities) arrays of bidder i, whose value for u units is
    values[u]: entry [r, c] is its outcome bidding the marginal-bid vector
    vectors[c] against the other bids of profiles[r], equal bit for bit to
    run_auction on profiles[r] with bidder i's bid replaced.  Each profile
    is one row of block_allocation."""
    n = profiles[0].n
    spaces = [vectors if j == i else np.array([p.vector(j) for p in profiles])
              for j in range(n)]
    cands = SearchCandidates(spaces, tie)
    units, charge = block_allocation(cands, i, pricing,
                                     [np.arange(len(profiles))] * (n - 1))
    utils = block_utilities(cands, i, values, pricing, units, charge)
    # with no other bidder the one row stands for every profile
    shape = (len(profiles), len(vectors))
    return tuple(np.broadcast_to(a, shape) for a in (units, utils))


@dataclass(frozen=True)
class AuctionInstance:
    """Valuation profile plus mechanism configuration."""

    valuations: tuple[Valuation, ...]
    k: int
    pricing: str
    tie_break: TieBreakRule

    def __post_init__(self):
        if self.pricing not in PRICINGS:
            raise ValueError(f"unknown pricing rule {self.pricing!r}")
        if not self.valuations:
            raise ValueError("an auction needs at least one bidder")
        for v in self.valuations:
            if v.k != self.k:
                raise ValueError("valuation k does not match instance k")
        self.tie_break.check_bidders(self.n)

    @property
    def n(self) -> int:
        return len(self.valuations)

    def to_json(self):
        return {
            "n": self.n,
            "k": self.k,
            "valuations": [v.to_json() for v in self.valuations],
            "pricing": self.pricing,
            "tie_break": self.tie_break.to_json(),
        }

    @staticmethod
    def from_json(data) -> "AuctionInstance":
        vals = tuple(Valuation.from_json(v) for v in data["valuations"])
        return AuctionInstance(vals, _json_int(data["k"], "k"), data["pricing"],
                               TieBreakRule.from_json(data["tie_break"]))
