"""Discretized strategy grids, best responses and equilibrium verification.

Best responses exploit the structure of the allocation rule: to win exactly
j units against fixed opposing bids, the cheapest standard bid is constant
at the lowest value that beats the j-th lowest opposing winning bid (every
non-constant bid winning j units dominates it slot-wise, and has pointwise
larger prefix sums, so the restriction is also exact under no-overbidding).
The candidates, the threshold beta_j (ties may go the deviator's way) and
one tick above, are scored by arithmetic on one ranking of the profile's
positive entries by (-value, tie rank, bidder), with ranks from the table
mechanisms.tie_ranks caches per (rule, n, k).  With opp the first k entries
not bidder i's, beta_j is the value of opp[k - j] (0 if there is none);
(c,) * j wins all j units iff its lowest-ranked entry, (-c, bidder i's
worst rank on slots 0..j-1), is ahead of opp[k - j], and then pays
sum((c,) * j) as bid or j * beta_j at the uniform price.  is_pure_nash and
best-response dynamics rank each profile once for the outcome and every
response.  This closed form is exact for bidder-level tie-break rules only.
Grid scans enumerate the grid once, as an array of marginal-bid vectors in
grid_bids_for order: the Bayes-Nash regrets and the exhaustive pure-Nash
search (exact under every tie rule) score whole arrays with the block
outcome engine and build bid objects only for what they report.  The search
caches what a grid game fixes without its valuations: the strategy arrays,
their keys and, for up to _BLOCK_CELLS profiles, each bidder's floors, the
lowest payment for u units against each row of the others' strategies, and
the equilibrium candidates, the profiles where no bidder pays more than
tick / 2 above its floor, so that it scores valuations on those alone.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mechanisms import (
    NO_OVERBID_TOL,
    STANDARD,
    UNIFORM,
    UNIFORM_IFACE,
    AuctionInstance,
    BidProfile,
    Outcome,
    SearchCandidates,
    StandardBid,
    TieBreakRule,
    UniformBid,
    _bid_from_json,
    _json_int,
    _overbids,
    _ranked_outcome,
    allocate,
    block_allocation,
    block_utilities,
    check_no_overbidding,
    deviation_outcomes,
    run_auction,
    social_welfare,
    tie_ranks,
    uniform_vectors,
)
from .valuations import Valuation, _json_float, is_submodular
from .welfare import optimal_allocation, poa_ratio

EQ_TOL = 1e-9
# cells of one box of the profile space that the exhaustive search scores at
# once; a space of at most this many profiles is one box, kept as candidates
_BLOCK_CELLS = 1 << 16
# rows of a strategy space that is_bayes_nash scans per (bidder, type): one
# opposing scenario against them all is then at most one box of the search
_DEVIATION_ROWS = _BLOCK_CELLS


class SearchCapExceeded(RuntimeError):
    """A grid enumeration would exceed its cap: the profiles of an
    exhaustive search, or the deviations of is_bayes_nash."""


@dataclass(frozen=True)
class BidGrid:
    """Finite bid space: exact multiples of tick in [0, max_bid]."""

    tick: float
    max_bid: float
    interface: str = STANDARD
    no_overbidding: bool = False

    def __post_init__(self):
        if not 0.0 < self.tick < math.inf:
            raise ValueError("tick must be finite and positive")
        if not self.tick <= self.max_bid < math.inf:
            raise ValueError("max_bid must be finite and at least one tick")
        if self.interface not in (STANDARD, UNIFORM_IFACE):
            raise ValueError(f"unknown interface {self.interface!r}")

    @property
    def npoints(self) -> int:
        return int(math.floor(self.max_bid / self.tick + 1e-9)) + 1

    def value(self, index: int) -> float:
        return index * self.tick

    def points(self) -> tuple[float, ...]:
        return tuple(i * self.tick for i in range(self.npoints))

    def contains(self, x: float) -> bool:
        i = round(x / self.tick)
        return 0 <= i < self.npoints and abs(x - i * self.tick) <= 1e-12

    def to_json(self):
        return {"tick": self.tick, "max_bid": self.max_bid,
                "interface": self.interface,
                "no_overbidding": self.no_overbidding}

    @staticmethod
    def from_json(data) -> "BidGrid":
        no_overbidding = data.get("no_overbidding", False)
        if not isinstance(no_overbidding, bool):
            raise ValueError(f"no_overbidding must be true or false, got "
                             f"{no_overbidding!r}")
        return BidGrid(_json_float(data["tick"], "tick"),
                       _json_float(data["max_bid"], "max_bid"),
                       data.get("interface", STANDARD), no_overbidding)


@dataclass(frozen=True)
class RegretEntry:
    bidder: int
    type_index: int
    current_utility: float
    best_utility: float
    regret: float
    best_bid: object = None


@dataclass(frozen=True)
class RegretReport:
    entries: tuple[RegretEntry, ...]

    @property
    def max_regret(self) -> float:
        return max(e.regret for e in self.entries)

    def is_equilibrium(self) -> bool:
        return self.max_regret <= EQ_TOL


@dataclass(frozen=True)
class BestResponse:
    bid: object
    utility: float


# ---------------------------------------------------------------------------
# Best responses against fixed opposing bids


def best_response(instance: AuctionInstance, profile: BidProfile, i: int,
                  grid: BidGrid) -> BestResponse:
    """Best deviation of bidder i against the other bids in the profile.

    The closed form of the module docstring, on the profile's ranking by
    (-value, tie rank, bidder) and the worst ranks of mechanisms.tie_ranks.
    Honors the grid's no-overbidding flag and max_bid.  Exact for
    bidder-level tie-break rules only: under a slot-level ("explicit") rule
    a bid winning fewer than its quantity can do better.
    """
    utility, bid = _closed_form_response(
        instance, grid, _ranked_outcome(profile, instance.tie_break)[0], i,
        tie_ranks(instance.tie_break, profile.n, instance.k)[1][i])
    return BestResponse(bid, utility)


def _closed_form_response(instance: AuctionInstance, grid: BidGrid,
                          ranked: list, i: int, worst: tuple):
    """(utility, bid) of best_response from _ranked_outcome's ranking and
    bidder i's row of tie_ranks' worst ranks, bit for bit run_auction's."""
    k = instance.k
    values = instance.valuations[i].values
    uniform = instance.pricing == UNIFORM
    opp = []
    for entry in ranked:
        if entry[2] != i:
            opp.append(entry)
            if len(opp) == k:
                break
    cap = grid.max_bid + 1e-12
    best, bid = 0.0, (0.0, 0)
    for j in range(1, k + 1):
        # the rival beats (c,) * j only at c = threshold, by a rank ahead of
        # bidder i's worst; past j the no-overbidding prefix sums stay put
        rival = opp[k - j] if k - j < len(opp) else (-0.0, math.inf)
        threshold, ahead = -rival[0], rival[1] < worst[j - 1]
        for c in (threshold, threshold + grid.tick):
            if c <= 0.0 or c > cap or (ahead and c == threshold) or (
                    grid.no_overbidding and _overbids((c,) * j, values)):
                continue
            u = values[j] - (j * threshold if uniform else sum((c,) * j))
            if u > best:
                best, bid = u, (c, j)
    return best, UniformBid(*bid)


# ---------------------------------------------------------------------------
# Pure Nash verification and search


def is_pure_nash(profile: BidProfile, instance: AuctionInstance,
                 grid: BidGrid) -> RegretReport:
    """Regret of every bidder against the closed-form deviation family.

    The outcome and every best response come from one ranking of the
    profile by (-value, tie rank, bidder) and one read of the worst ranks
    of mechanisms.tie_ranks.  Exact only under bidder-level tie-break rules;
    under a slot-level ("explicit") rule the regret can be understated.
    """
    ranked, out = _ranked_outcome(profile, instance.tie_break,
                                  instance.pricing)
    worst = tie_ranks(instance.tie_break, profile.n, instance.k)[1]
    entries = []
    for i in range(instance.n):
        cur = instance.valuations[i].value(out.allocation[i]) - out.payments[i]
        utility, bid = _closed_form_response(instance, grid, ranked, i,
                                             worst[i])
        best = max(utility, cur)
        entries.append(RegretEntry(i, 0, cur, best, max(0.0, best - cur), bid))
    return RegretReport(tuple(entries))


def is_epsilon_equilibrium(profile: BidProfile, instance: AuctionInstance,
                           grid: BidGrid, eps: float) -> bool:
    return is_pure_nash(profile, instance, grid).max_regret <= eps + EQ_TOL


def _space_size(grid: BidGrid, k: int) -> int:
    """The number of rows of _grid_vectors(grid, k), without building it."""
    if grid.interface == STANDARD:
        return math.comb(grid.npoints + k - 1, k)
    return 1 + (grid.npoints - 1) * k


def _grid_vectors(grid: BidGrid, k: int) -> np.ndarray:
    """The grid's whole strategy space as a (strategies x k) array of
    marginal-bid vectors, uniform bids expanded, in grid_bids_for order."""
    points = np.array(grid.points())
    if grid.interface == UNIFORM_IFACE:
        # (0, 0), then every positive price with quantities 1..k
        return np.concatenate([np.zeros((1, k)),
                               uniform_vectors(points[1:], k)])
    combos = itertools.combinations_with_replacement(range(len(points)), k)
    index = np.fromiter(itertools.chain.from_iterable(combos), dtype=int)
    return points[::-1][index.reshape(-1, k)]


def _grid_spaces(grid: BidGrid, k: int, vals: Sequence[Valuation | None]):
    """Every bidder's strategy space as an array, cut from one enumeration
    of the grid.  Under no-overbidding a bidder keeps the rows that
    check_no_overbidding accepts: prefix sums, accumulated in slot order,
    at most v(s) + NO_OVERBID_TOL."""
    vectors = _grid_vectors(grid, k)
    if not grid.no_overbidding:
        return [vectors] * len(vals)
    prefix = np.cumsum(vectors, axis=1)
    spaces = []
    for val in vals:
        if val is not None and val.k != k:
            raise ValueError("bid and valuation dimensions differ")
        spaces.append(vectors if val is None else vectors[
            (prefix <= np.array(val.values[1:]) + NO_OVERBID_TOL).all(axis=1)])
    return spaces


def _grid_bids(interface: str, vectors: np.ndarray) -> list:
    """The grid bids, holding Python floats, whose expanded marginal-bid
    vectors are the rows of vectors."""
    if interface == UNIFORM_IFACE:
        return [UniformBid(price, quantity) for price, quantity in
                zip(vectors[:, 0].tolist(),
                    (vectors > 0.0).sum(axis=1).tolist())]
    return [StandardBid(tuple(row)) for row in vectors.tolist()]


def grid_bids_for(grid: BidGrid, k: int, val: Valuation | None = None):
    """Strategy space of one bidder on the grid, per the grid interface:
    the uniform bids (0, 0) then (u, q) for every positive point u and
    q = 1..k, or every non-increasing standard vector in lexicographic
    order of the descending points."""
    return _grid_bids(grid.interface, _grid_spaces(grid, k, [val])[0])


def _check_cap(total: int, cap: int) -> None:
    if total > cap:
        raise SearchCapExceeded(f"{total} profiles exceed the cap of {cap}")


def _box_allocations(cands: SearchCandidates, shape: tuple, i: int,
                     pricing: str):
    """Bidder i's block_allocation over boxes of the profile space, in
    profile order: yields (box, units, charge), box one slice per axis of
    shape and the arrays shaped like it, with all of bidder i's
    strategies along axis i.  A box faces one run of the others'
    strategies in itertools.product order: one of their axes ranged, the
    axes before it fixed and those after it whole.  It has at most
    _BLOCK_CELLS cells wherever one row of the others' allows."""
    others = shape[:i] + shape[i + 1:]
    # a box steps by 1 along the others' axes before the ranged one, by
    # steps[a] along it, and takes the axes after it whole
    steps, cells = list(others), shape[i]
    for a in reversed(range(len(others))):
        if cells * others[a] > _BLOCK_CELLS:
            steps[:a + 1] = [1] * a + [max(1, _BLOCK_CELLS // cells)]
            break
        cells *= others[a]
    for corner in itertools.product(*(range(0, m, s)
                                      for m, s in zip(others, steps))):
        box = tuple(slice(c, min(c + s, m))
                    for c, m, s in zip(corner, others, steps))
        box_shape = tuple(b.stop - b.start for b in box)
        picks = [index.ravel() + c
                 for index, c in zip(np.indices(box_shape), corner)]
        yield (box[:i] + (slice(None),) + box[i:], *(
            np.ascontiguousarray(np.moveaxis(
                block.reshape(box_shape + shape[i:i + 1]), -1, i))
            for block in block_allocation(cands, i, pricing, picks)))


@functools.lru_cache(maxsize=8)
def _search_tables(grid: BidGrid, k: int, tie: TieBreakRule, pricing: str,
                   cuts: tuple, cap: int):
    """_grid_spaces(grid, k, cuts), its SearchCandidates and, without
    no-overbidding for at most _BLOCK_CELLS profiles (one box), the
    candidates (floors, cells, per_bidder), else None, all read-only;
    cuts[j] is bidder j's valuation under no-overbidding, else None.
    floors[i][u][row] is bidder i's lowest payment that wins exactly u
    units against a row of the others' strategies (inf if none).  cells
    are the flat indices, in profile order, of the profiles where no
    bidder pays more than tick / 2 above its floor for the units it wins,
    and per_bidder[i] holds bidder i's block_allocation units and charge
    and its row at each; the boxes are not kept.  The cap is checked
    before anything is built, and is in the key because a raise is not
    cached.  The cache holds the 8 latest entries; find_pure_nash calls
    the uncached __wrapped__ under no-overbidding, whose cuts a sweep
    never repeats."""
    if not grid.no_overbidding:
        # every bidder has the whole grid space: count it before building it
        _check_cap(_space_size(grid, k) ** len(cuts), cap)
    spaces = tuple(_grid_spaces(grid, k, cuts))
    shape = tuple(len(s) for s in spaces)
    if grid.no_overbidding:
        _check_cap(math.prod(shape), cap)
    cands = SearchCandidates(spaces, tie)
    arrays = [*spaces, *cands.keys, *cands.paid, cands.value_of_key]
    candidates = None
    if not grid.no_overbidding and math.prod(shape) <= _BLOCK_CELLS:
        # True where no bidder pays more than tick / 2 above its floor
        keep = np.ones(shape, dtype=bool)
        floors, boxes = [], []
        for i in range(len(shape)):
            [(_, units, charge)] = _box_allocations(cands, shape, i, pricing)
            pay = (charge if pricing == UNIFORM
                   else cands.paid[i].ravel()[charge])
            # winning no unit pays 0, and the zero bid wins none
            floors.append(np.zeros((k + 1, *shape[:i], 1, *shape[i + 1:])))
            near = units == 0
            for u in range(1, k + 1):
                excess = np.where(units == u, pay, np.inf)
                np.min(excess, axis=i, keepdims=True, out=floors[i][u])
                # inf - inf, a row where no strategy wins u units, is nan
                with np.errstate(invalid="ignore"):
                    near |= np.subtract(excess, floors[i][u],
                                        out=excess) <= grid.tick / 2
            keep &= near
            after = math.prod(shape[i + 1:])
            boxes.append((units.ravel(), charge.ravel(), shape[i] * after,
                          after))
        cells = np.flatnonzero(keep)
        per_bidder = [(units[cells], charge[cells],
                       cells // box * after + cells % after)
                      for units, charge, box, after in boxes]
        candidates = (floors, cells, per_bidder)
        arrays += [*floors, cells, *itertools.chain(*per_bidder)]
    for array in arrays:
        array.setflags(write=False)
    return spaces, cands, candidates


@dataclass(frozen=True)
class PNESearchResult:
    """Equilibria found by find_pure_nash.

    exhaustive is True when every grid profile was covered, so equilibria is
    the complete set of the grid game's pure equilibria, exact under every
    tie-break rule, in itertools.product order.  evaluated is, for an
    exhaustive search, the number of profiles that no bidder could leave
    for a gain and that got a full auction, which equals the number of
    equilibria; for best-response dynamics, the number of best responses
    computed.  outcomes[j] is run_auction's outcome of equilibria[j].
    """

    equilibria: tuple[BidProfile, ...]
    outcomes: tuple[Outcome, ...]
    exhaustive: bool
    evaluated: int


def find_pure_nash(instance: AuctionInstance, grid: BidGrid,
                   mode: str = "exhaustive", cap: int = 10 ** 8,
                   seed: int = 0, starts: int = 20,
                   max_rounds: int = 200) -> PNESearchResult:
    """Search the grid profile space for pure Nash equilibria.

    "exhaustive" covers every profile (raises SearchCapExceeded beyond the
    cap), exact under every tie-break rule.  _search_tables gives the
    strategy arrays and their SearchCandidates keys, cached without
    no-overbidding, and for a cached space of at most _BLOCK_CELLS
    profiles the candidates.  There a bidder's best utility against a row
    is max over u of v(u) - floor, bit for bit the row maximum of
    block_utilities, and a candidate stays if no bidder gains more than
    EQ_TOL.  Otherwise a boolean mask, one byte per profile (at most cap
    bytes), is cleared where a bidder gains more than EQ_TOL, box by box
    from _box_allocations.  The cells left, in itertools.product order,
    get a full auction and a check of every bidder against those best
    utilities.  The candidates hold every equilibrium: let a bidder win u
    units and pay p > f + tick / 2, f its floor, and M = max v + k max_bid
    bound |v(u) - p| and |v(u) - f|.  fl(v(u) - p) and fl(v(u) - f), a
    lower bound of the row best, are each within 2^-53 M of exact, and
    their rounded difference within 2^-52 M more, so its computed gain
    exceeds tick / 2 - 2^-51 M > EQ_TOL if tick / 2 >= EQ_TOL + 2^-50 M.
    The search checks this bound per call and else takes the mask.
    "best_response_dynamics" runs seeded best-response paths and reports
    reached fixed points, which may miss equilibria.  It judges deviations
    by the closed-form best response, which is exact only under
    bidder-level tie-break rules: under a slot-level ("explicit") rule a
    reported profile can still admit a profitable deviation.
    """
    k = instance.k
    if mode == "exhaustive":
        cuts = tuple(val if grid.no_overbidding else None
                     for val in instance.valuations)
        build = (_search_tables.__wrapped__ if grid.no_overbidding
                 else _search_tables)
        spaces, cands, candidates = build(
            grid, k, instance.tie_break, instance.pricing, cuts, cap)
        shape = tuple(len(s) for s in spaces)
        vals = [np.array(val.values) for val in instance.valuations]
        if candidates and grid.tick / 2 < EQ_TOL + 2.0 ** -50 * (
                max(v[-1] for v in vals) + k * grid.max_bid):
            candidates = None
        # best[i][profile with bidder i's index 0]: bidder i's best utility
        # on the grid against the others' strategies there
        best = []
        if candidates:
            floors, cells, per_bidder = candidates
            keep = np.ones(len(cells), dtype=bool)
            for i, (units, charge, rows) in enumerate(per_bidder):
                best.append((vals[i].reshape((-1,) + (1,) * instance.n)
                             - floors[i]).max(axis=0))
                utils = block_utilities(cands, i, vals[i], instance.pricing,
                                        units, charge)
                keep &= best[i].ravel()[rows] - utils <= EQ_TOL
            cells = cells[keep]
        else:
            # True where no bidder can gain by deviating on the grid
            mask = np.ones(shape, dtype=bool)
            for i in range(instance.n):
                best.append(np.empty(shape[:i] + (1,) + shape[i + 1:]))
                for box, units, charge in _box_allocations(
                        cands, shape, i, instance.pricing):
                    utils = block_utilities(cands, i, vals[i],
                                            instance.pricing, units, charge)
                    rowmax = utils.max(axis=i, keepdims=True)
                    best[i][box] = rowmax
                    np.subtract(rowmax, utils, out=utils)
                    mask[box] &= utils <= EQ_TOL
            cells = np.flatnonzero(mask)
        found, outs = [], []
        # flat indices in C order, which is itertools.product order
        picked = np.unravel_index(cells, shape)
        bids = [_grid_bids(grid.interface, space[rows])
                for space, rows in zip(spaces, picked)]
        cells = list(zip(*picked))
        for cell, combo in zip(cells, zip(*bids)):
            profile = BidProfile(combo, grid.interface, k)
            out = run_auction(profile, instance.tie_break, instance.pricing)
            # fails only where the block utilities and run_auction disagree
            if all(best[i][cell[:i] + (0,) + cell[i + 1:]]
                   - (instance.valuations[i].value(out.allocation[i])
                      - out.payments[i]) <= EQ_TOL
                   for i in range(instance.n)):
                found.append(profile)
                outs.append(out)
        return PNESearchResult(tuple(found), tuple(outs), True, len(cells))

    if mode == "best_response_dynamics":
        rng = random.Random(seed)
        seen = set()
        found, outs = [], []
        evaluated = 0
        spaces = _grid_spaces(grid, k, instance.valuations)
        worst = tie_ranks(instance.tie_break, instance.n, k)[1]
        for _ in range(starts):
            combo = [_grid_bids(grid.interface, s[[rng.randrange(len(s))]])[0]
                     for s in spaces]
            profile = BidProfile(tuple(combo), grid.interface, k)
            ranked, out = _ranked_outcome(profile, instance.tie_break,
                                          instance.pricing)
            for _ in range(max_rounds):
                changed = False
                for i in range(instance.n):
                    cur = (instance.valuations[i].value(out.allocation[i])
                           - out.payments[i])
                    utility, bid = _closed_form_response(
                        instance, grid, ranked, i, worst[i])
                    evaluated += 1
                    if utility - cur > EQ_TOL:
                        profile = profile.replace(i, bid)
                        ranked, out = _ranked_outcome(
                            profile, instance.tie_break, instance.pricing)
                        changed = True
                if not changed:
                    break
            report = is_pure_nash(profile, instance, grid)
            key = tuple(profile.vector(i) for i in range(instance.n))
            if report.is_equilibrium() and key not in seen:
                seen.add(key)
                found.append(profile)
                outs.append(out)
        return PNESearchResult(tuple(found), tuple(outs), False, evaluated)

    raise ValueError(f"unknown search mode {mode!r}")


# ---------------------------------------------------------------------------
# Bayesian games


@dataclass(frozen=True)
class BayesianGame:
    """Finite independent type sets with a common bid grid."""

    k: int
    types: tuple[tuple[Valuation, ...], ...]
    priors: tuple[tuple[float, ...], ...]
    grid: BidGrid
    tie_break: TieBreakRule
    pricing: str

    def __post_init__(self):
        if len(self.types) != len(self.priors):
            raise ValueError("types and priors lengths differ")
        for tset, pset in zip(self.types, self.priors):
            if len(tset) != len(pset) or not tset:
                raise ValueError("each bidder needs matching types and priors")
            if any(p < 0 for p in pset):
                raise ValueError("priors must be non-negative")
            if abs(sum(pset) - 1.0) > 1e-9:
                raise ValueError("priors must sum to 1")
            for v in tset:
                if v.k != self.k:
                    raise ValueError("type valuation k mismatch")
        self.tie_break.check_bidders(self.n)

    @property
    def n(self) -> int:
        return len(self.types)

    def to_json(self):
        return {
            "k": self.k,
            "types": [[v.to_json() for v in tset] for tset in self.types],
            "priors": [list(p) for p in self.priors],
            "grid": self.grid.to_json(),
            "tie_break": self.tie_break.to_json(),
            "pricing": self.pricing,
        }

    @staticmethod
    def from_json(data) -> "BayesianGame":
        return BayesianGame(
            _json_int(data["k"], "k"),
            tuple(tuple(Valuation.from_json(v) for v in tset)
                  for tset in data["types"]),
            tuple(tuple(_json_float(p, "prior") for p in pset)
                  for pset in data["priors"]),
            BidGrid.from_json(data["grid"]),
            TieBreakRule.from_json(data["tie_break"]),
            data["pricing"],
        )


@dataclass(frozen=True)
class Strategy:
    """rules[i][t] is the mixed bid of bidder i's t-th type: ((bid, prob), ...)."""

    rules: tuple[tuple[tuple[tuple[object, float], ...], ...], ...]

    def validate(self, game: BayesianGame) -> None:
        if len(self.rules) != game.n:
            raise ValueError("strategy bidder count mismatch")
        for i, per_type in enumerate(self.rules):
            if len(per_type) != len(game.types[i]):
                raise ValueError("strategy type count mismatch")
            for t, mixed in enumerate(per_type):
                if abs(sum(p for _, p in mixed) - 1.0) > 1e-9:
                    raise ValueError("mixed strategy must sum to 1")
                for bid, _ in mixed:
                    # the game's profile refuses a bid the game cannot hold
                    vec = StandardBid(_game_profile(game, [bid]).vector(0))
                    for x in vec.values:
                        if x > 0 and not game.grid.contains(x):
                            raise ValueError("bid support off the grid")
                    if game.grid.no_overbidding and not check_no_overbidding(
                            game.types[i][t], vec):
                        raise ValueError("support violates no-overbidding")

    def to_json(self):
        return [[[[b.to_json(), p] for b, p in mixed] for mixed in per_type]
                for per_type in self.rules]

    @staticmethod
    def from_json(data) -> "Strategy":
        return Strategy(tuple(
            tuple(tuple((_bid_from_json(b), _json_float(p, "probability"))
                        for b, p in mixed)
                  for mixed in per_type)
            for per_type in data))


def pure_strategy(bids_per_bidder) -> Strategy:
    """Point-mass strategy: bids_per_bidder[i][t] is a single bid."""
    return Strategy(tuple(
        tuple(((bid, 1.0),) for bid in per_type)
        for per_type in bids_per_bidder))


def _type_profiles(game: BayesianGame, strat: Strategy,
                   bidders: Sequence[int]):
    """The type profiles of bidders under the product prior: yields
    (types, p_type, [(bids, p), ...]) for each with p_type > 0, types[m]
    and bids[m] the type and a support bid of bidders[m], and p = p_type
    times the bids' probabilities, multiplied in bidder order; a
    combination of bids with p = 0 is left out."""
    for types in itertools.product(*(range(len(game.types[j]))
                                     for j in bidders)):
        p_type = math.prod(game.priors[j][t] for j, t in zip(bidders, types))
        if p_type == 0.0:
            continue
        combos = []
        for combo in itertools.product(*(strat.rules[j][t]
                                         for j, t in zip(bidders, types))):
            p = math.prod((pb for _, pb in combo), start=p_type)
            if p != 0.0:
                combos.append(([bid for bid, _ in combo], p))
        yield types, p_type, combos


def _game_profile(game: BayesianGame, bids) -> BidProfile:
    """The game's profile of bids, uniform bids expanded on a standard grid."""
    return BidProfile(
        tuple(b.expand(game.k) if game.grid.interface == STANDARD
              and isinstance(b, UniformBid) else b for b in bids),
        game.grid.interface, game.k)


def is_bayes_nash(game: BayesianGame, strat: Strategy) -> RegretReport:
    """Exact expected regret of every (bidder, type) against grid deviations.

    Expectations enumerate opposing type profiles and mixed supports
    exactly.  The deviations are the game's own strategy space,
    grid_bids_for(game.grid, k, type): every standard grid bid on a
    standard grid, every uniform one on a uniform grid, cut by the type's
    no-overbidding constraint when the grid has one; a deviation counts
    only if it beats the current expected utility.  A space of more than
    _DEVIATION_ROWS (65,536) bids raises SearchCapExceeded before
    anything is built.
    """
    rows = _space_size(game.grid, game.k)
    if rows > _DEVIATION_ROWS:
        raise SearchCapExceeded(f"{rows} deviation bids exceed the limit of "
                                f"{_DEVIATION_ROWS}")
    strat.validate(game)
    entries = []
    for i in range(game.n):
        # bidder i's own bid in each profile is a placeholder
        others = [j for j in range(game.n) if j != i]
        scenarios = [
            (_game_profile(game, [*bids[:i], UniformBid(0.0, 0), *bids[i:]]),
             p)
            for _, _, combos in _type_profiles(game, strat, others)
            for bids, p in combos]
        profiles = [profile for profile, _ in scenarios]
        for t, val in enumerate(game.types[i]):
            mixed = strat.rules[i][t]
            support = np.array([_game_profile(game, [bid]).vector(0)
                                for bid, _ in mixed])
            vectors = _grid_spaces(game.grid, game.k, [val])[0]
            _, utils = deviation_outcomes(
                profiles, i, np.concatenate([support, vectors]), val.values,
                game.tie_break, game.pricing)
            # the expectations add scenario by scenario, as scalar sums would
            expected = np.zeros(utils.shape[1])
            for (_, p), row in zip(scenarios, utils):
                expected += p * row
            cur = 0.0
            for (_, pm), u in zip(mixed, expected.tolist()):
                cur += pm * u
            deviations = expected[len(mixed):]
            c = int(np.argmax(deviations))
            best, best_bid = cur, None
            if deviations[c] > cur:
                best = float(deviations[c])
                best_bid = _grid_bids(game.grid.interface,
                                      vectors[c:c + 1])[0]
            entries.append(RegretEntry(i, t, cur, best,
                                       max(0.0, best - cur), best_bid))
    return RegretReport(tuple(entries))


def bayesian_welfare(game: BayesianGame,
                     strat: Strategy) -> tuple[float, float]:
    """(expected optimal welfare, expected welfare of the strategy),
    exactly."""
    strat.validate(game)
    e_opt = e_sw = 0.0
    for types, p_type, combos in _type_profiles(game, strat, range(game.n)):
        vals = tuple(game.types[i][t] for i, t in enumerate(types))
        e_opt += p_type * optimal_allocation(vals, game.k).value
        for bids, p in combos:
            out = allocate(_game_profile(game, bids), game.tie_break)
            e_sw += p * social_welfare(vals, out.allocation)
    return e_opt, e_sw


def bayesian_poa(game: BayesianGame, strat: Strategy) -> float:
    """Expected optimal welfare over expected equilibrium welfare; a
    ValueError when the latter is not positive."""
    return poa_ratio(*bayesian_welfare(game, strat))


# ---------------------------------------------------------------------------
# Undominated strategies and the standard/uniform equilibrium conversion


def is_undominated_upa(val: Valuation, bid: StandardBid) -> bool:
    """Undominated uniform-price bidding for submodular bidders.

    Requires b(j) <= m(j) for every j and b(1) = v(1); bidding above a
    marginal value, or not bidding the first marginal truthfully, is weakly
    dominated.
    """
    if not is_submodular(val):
        raise ValueError("undominated characterization needs submodular valuations")
    m = val.marginals
    if abs(bid.values[0] - val.value(1)) > 1e-12:
        return False
    return all(b <= mj + 1e-12 for b, mj in zip(bid.values, m))


def canonical_upa_profile(instance: AuctionInstance,
                          allocation: Sequence[int]) -> BidProfile:
    """Winners bid their marginals up to x_i then 0; losers bid (m(1), 0, ...)."""
    bids = []
    for val, x in zip(instance.valuations, allocation):
        m = val.marginals
        if x >= 1:
            bids.append(StandardBid(tuple(m[:x]) + (0.0,) * (instance.k - x)))
        else:
            bids.append(StandardBid((m[0],) + (0.0,) * (instance.k - 1)))
    return BidProfile(tuple(bids), STANDARD, instance.k)


def pne_standard_to_uniform(profile: BidProfile,
                            instance: AuctionInstance) -> BidProfile:
    """Convert a canonical-form UPA equilibrium to uniform bidding.

    Winners map to (v_i(x_i)/x_i, x_i), losers to (m_i(1), 1).  Raises if
    the profile is not in canonical undominated form; asserts that price,
    allocation and welfare are preserved exactly.
    """
    if profile.interface != STANDARD:
        raise ValueError("conversion expects a standard-interface profile")
    out = allocate(profile, instance.tie_break)
    new_bids = []
    for i, val in enumerate(instance.valuations):
        vec = profile.vector(i)
        m = val.marginals
        x = out.allocation[i]
        if x >= 1:
            for j in range(x):
                if abs(vec[j] - m[j]) > 1e-12:
                    raise ValueError("winner does not bid marginals on his prefix")
            if any(vec[j] != 0.0 for j in range(x, instance.k)):
                raise ValueError("winner bids past his allocation")
            new_bids.append(UniformBid(val.value(x) / x, x))
        else:
            if abs(vec[0] - m[0]) > 1e-12 or any(v != 0.0 for v in vec[1:]):
                raise ValueError("loser is not bidding (m(1), 0, ...)")
            new_bids.append(UniformBid(m[0], 1))
    converted = BidProfile(tuple(new_bids), UNIFORM_IFACE, instance.k)
    new_out = allocate(converted, instance.tie_break)
    if new_out.allocation != out.allocation:
        raise AssertionError("conversion changed the allocation")
    if new_out.uniform_price != out.uniform_price:
        raise AssertionError("conversion changed the uniform price")
    old_sw = social_welfare(instance.valuations, out.allocation)
    new_sw = social_welfare(instance.valuations, new_out.allocation)
    if old_sw != new_sw:
        raise AssertionError("conversion changed the welfare")
    return converted


def lemma5_structure(profile: BidProfile, instance: AuctionInstance) -> dict:
    """Structural properties of discriminatory pure equilibria.

    With d the highest losing bid: (a) every winning bid equals d; (b) the
    last ell marginal values of each winner cover ell*d; (c) any block of
    marginal values past the allocation is at most ell*d.
    """
    tol = 1e-9
    out = allocate(profile, instance.tie_break)
    vectors = profile.vectors()
    d = 0.0
    for i in range(instance.n):
        for j in range(out.allocation[i], instance.k):
            d = max(d, vectors[i][j])
    winning_equal = all(
        abs(vectors[i][j] - d) <= tol
        for i in range(instance.n) for j in range(out.allocation[i]))
    lower_ok = True
    upper_ok = True
    for i, val in enumerate(instance.valuations):
        m = val.marginals
        x = out.allocation[i]
        for ell in range(1, x + 1):
            if ell * d > sum(m[x - ell:x]) + tol:
                lower_ok = False
        for ell in range(1, instance.k - x + 1):
            if sum(m[x:x + ell]) > ell * d + tol:
                upper_ok = False
    return {"d": d, "winning_bids_equal_d": winning_equal,
            "winner_blocks_cover_ld": lower_ok,
            "loser_blocks_at_most_ld": upper_ok}
