"""Adversarial arrival orders: exact minimization, local search, and
per-family constructive adversaries.

The exact solver treats the arrival process as a one-player minimization
game.  Greedy's response to any future arrival depends only on which
V-vertices are already matched, and the set of remaining arrivals
depends only on which U-vertices were processed, so the pair of masks
(processed U, matched V) is a sufficient memoization key; the order in
which the processed prefix arrived cannot influence anything later.

One search engine, `_ArrivalSearch`, serves the exact adversary, the
masked minimum and the safety decision, all through `_masked_search`
with its one budget fallback and one replay check.  It is a depth-first
branch-and-bound on an explicit stack, free of the recursion limit, and
rests on two lemmas.

Forced pick: at any state, let v be the lowest-ranked free neighbor of
a live arrival u.  Every completion of the state matches v.  The
neighbors of u ranked below v are already matched and stay matched, so
when u arrives either v has been taken meanwhile or greedy gives v to
u.  Hence the number of counted vertices among these forced picks is a
lower bound on the state's value, and it costs nothing beyond the scan
that already lists the state's branches.

Hall: at a state with branches and no counted forced pick, let C be the
live arrivals that have a free counted neighbor.  In a completion that
matches no counted vertex, those stay free, so each u in C takes a free
uncounted vertex ranked strictly below its lowest free counted
neighbor, and no two take the same one.  If the union of these allowed
sets has fewer than |C| vertices, no such completion exists and the
state's value is at least 1.  The scan tests this in a second pass over
the live arrivals.  It matters only to masked queries: when every
vertex is counted, a state with branches has a counted forced pick, so
the exact adversary never pays for the test.

Child bound (corollary): the branch that gives v to u removes u from the
live arrivals and v from the free set.  An arrival whose pick was not v
keeps it; one whose pick was v moves on to its next free neighbor, or
dies if it has none.  So the child's forced picks are the state's, less
v, plus the next picks of the other arrivals that shared v, and the
parent's scan yields the forced-pick bound of every child.

The search is fail-soft.  A state searched under a cap returns its
exact value when that value is below the cap, and otherwise a lower
bound that is at least the cap.  Each child is searched under the cap
min(best so far, cap) - gain, unless its gain plus its bound already
reaches min(best so far, cap): then it is cut in its parent, which
folds that sum into best without building the child's key, looking it
up, scanning it or storing it.  The root is checked on entry, and every
state against its Hall bound, which the parent's scan does not give.
Child bounds come from the forced picks alone.  Branching stops as soon
as the best value found equals the state's bound, the larger of the
two.  States whose branches were searched, terminal states and states
cut by their Hall bound are memoized, exact values and lower bounds in
one table that only the search reads.  `nodes_expanded` counts the
first two; cut children and memo hits are not counted.  A child that lowers
its parent's best is the parent's choice.  Branches go in ascending label,
best only falls strictly and a cut never lowers it below the cap, so the
choices from the root give the lexicographically first optimal sequence.
"""

from __future__ import annotations

import collections
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    BipartiteGraph,
    Permutation,
    _check_dims,
    greedy_match,
    max_matching,
)
from .errors import (
    AnalysisParamError, FamilyShapeError, HallInfeasibleError, PropositionViolatedError,
    UsageError,
)
from .families import _strict_int

__all__ = [
    "ADVERSARY_MODES",
    "AdversaryResult",
    "attack",
    "worst_order_exact",
    "worst_order_masked_min",
    "order_avoiding",
    "worst_order_heuristic",
    "worst_order_sampled",
    "worst_order_constructive",
    "adversary_regular_gadget",
    "adversary_projective",
    "adversary_biclique",
    "adversary_planted_is",
]

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class AdversaryResult:
    """An arrival order with its greedy matched count.

    When exact is true no arrival order achieves a smaller size; when
    false the size is only an upper bound on the true minimum.
    """

    sigma: Permutation
    size: int
    exact: bool
    nodes_expanded: int


class _BudgetExceeded(Exception):
    pass


SETTING_FLOORS = {
    "budget": (1, "budget must be positive"),
    "iters": (0, "iters must be nonnegative"),
    "draws": (1, "draws must be positive"),
}


def _check_settings(**settings: int) -> None:
    """Raise AnalysisParamError for the first setting below its floor."""
    for name, (floor, message) in SETTING_FLOORS.items():
        if settings.get(name, floor) < floor:
            raise AnalysisParamError(message)


# The group of a pick that one arrival alone has: taking it moves no
# other arrival, so the branch's child bound is the state's.
_ALONE = (0, 0)


def _scan(
    adj: Sequence[int], alive: int, free: int, count_mask: int
) -> tuple[int, list[tuple[int, int, int, Sequence[int]]], int, int]:
    """One state's arrivals, in ascending label order.

    Returns the mask of dead arrivals (no free neighbor; matched V only
    grows, so they stay dead and are absorbed at once), the branches,
    the state's forced-pick bound and its bound: the forced-pick bound,
    or 1 when that is 0, the state has branches and the Hall bound
    fires.  Works in rank space, so an arrival's pick is the lowest set
    bit of its free-neighbor mask and its next pick the lowest bit above
    that.

    One branch per distinct free-neighbor mask: arrivals with equal masks
    are interchangeable for good.  Masks with different picks differ, so
    only the arrivals of a shared pick are grouped and compared.  A
    branch is (arrival bit, pick bit, next pick bit, (c, once)).  For a
    shared pick, c counts the group's counted next picks outside the
    forced picks, and once holds those that only one arrival of the
    group moves on to; a lone pick has (0, 0).  The branch's gain plus
    its child's forced-pick bound is the state's forced-pick bound plus
    k, where k is c, less one if the branch's own next pick is in once.
    """
    live = alive
    dead = forced = 0
    branches: list[tuple[int, int, int, Sequence[int]]] = []
    # A shared pick's group is [next picks, next picks seen twice,
    # masks...] until the scan ends; a mask holds its pick, a next pick
    # never does, so the membership test only meets masks.
    groups: list[list[int]] = []
    first = [0] * (len(adj) + 1)
    while alive:
        u_bit = alive & -alive
        alive ^= u_bit
        m = adj[u_bit.bit_length() - 1] & free
        if not m:
            dead |= u_bit
            continue
        v_bit = m & -m
        if not v_bit & forced:
            forced |= v_bit
            first[v_bit.bit_length()] = len(branches)
            branches.append((u_bit, v_bit, 0, _ALONE))
            continue
        i = first[v_bit.bit_length()]
        u0, _, _, group = branches[i]
        if group is _ALONE:
            m0 = adj[u0.bit_length() - 1] & free
            rest = m0 ^ v_bit
            x0 = rest & -rest
            group = [x0, 0, m0]
            groups.append(group)
            branches[i] = (u0, v_bit, x0, group)
        rest = m ^ v_bit
        x = rest & -rest
        group[1] |= group[0] & x
        group[0] |= x
        if m not in group:
            group.append(m)
            branches.append((u_bit, v_bit, x, group))
    new = count_mask & ~forced
    for group in groups:
        nxt = group[0] & new
        group[:] = (nxt.bit_count(), nxt & ~group[1])
    lb = (forced & count_mask).bit_count()
    if lb or not branches:
        return dead, branches, lb, lb
    # Hall: the arrivals with a free counted neighbor against the union
    # of the free vertices ranked below their lowest one.
    live ^= dead
    need = room = 0
    while live:
        u_bit = live & -live
        live ^= u_bit
        m = adj[u_bit.bit_length() - 1] & free
        c = m & count_mask
        if c:
            need += 1
            room |= m & ((c & -c) - 1)
    return dead, branches, 0, 1 if room.bit_count() < need else 0


class _ArrivalSearch:
    """Minimum number of count_mask vertices that greedy matches, over
    all arrival orders, by the forced-pick and Hall branch-and-bound of
    the module docstring.

    State keys are single ints, processed-U mask << n | matched-V mask.
    The memo, private to `value`, stores an exact value v as v and a
    lower bound b as ~b; `chosen` maps a state's key to its choice's.
    `nodes` counts expanded and terminal states, `cuts` the children cut
    by their forced-pick bound in the parent's scan.
    """

    def __init__(self, adj_rank: Sequence[int], n: int, count_mask: int, budget: float):
        self.adj = list(adj_rank)
        self.n = n
        self.count_mask = count_mask
        self.budget = budget
        self.nodes = 0
        self.cuts = 0
        self.memo: dict[int, int] = {}
        self.chosen: dict[int, int] = {}
        self.full = (1 << n) - 1

    def value(self, ub: int) -> int:
        """The minimum if it is below ub, otherwise a lower bound >= ub.

        Raises _BudgetExceeded once more than `budget` states are expanded.
        """
        adj, n, full, count_mask = self.adj, self.n, self.full, self.count_mask
        memo, chosen, budget = self.memo, self.chosen, self.budget
        nodes, cuts = self.nodes, self.cuts
        # Suspended frames; the innermost frame lives in the f_* locals.
        stack: list[tuple] = []
        depth = 0
        f_key = f_u = f_v = f_i = f_best = f_cap = f_lb = f_slb = f_gain = 0
        f_br: list[tuple[int, int, int, Sequence[int]]] = []
        u_mask = v_mask = 0
        cap = ub
        while True:
            # Enter state (u_mask, v_mask) under cap: either settle its
            # value in val or open a frame for it.  Only the root can be
            # cut here by its forced-pick bound, since every other state's
            # was checked by its parent; any state can be cut by Hall's.
            key = u_mask << n | v_mask
            val = memo.get(key, -1)
            if val < 0:
                val = ~val
                if val < cap:
                    dead, branches, slb, lb = _scan(adj, full ^ u_mask, full ^ v_mask, count_mask)
                    if slb >= cap:
                        if depth:
                            raise PropositionViolatedError(
                                "a child's forced-pick bound disagrees with its parent's scan"
                            )
                        val = slb
                    elif lb >= cap:
                        val = lb
                        memo[key] = ~lb
                    else:
                        nodes += 1
                        if nodes > budget:
                            self.nodes, self.cuts = nodes, cuts
                            raise _BudgetExceeded
                        if not branches:
                            val = memo[key] = 0
                        else:
                            if depth:
                                stack.append(
                                    (f_key, f_u, f_v, f_br, f_i, f_best, f_cap, f_lb, f_slb, f_gain)
                                )
                            depth += 1
                            f_key, f_u, f_v, f_br, f_i = key, u_mask | dead, v_mask, branches, 0
                            f_best, f_cap, f_lb, f_slb = n + 1, cap, lb if lb > val else val, slb
                            val = None
            # Hand the settled value of state key up until a frame has a child to search.
            while True:
                if val is not None:
                    if not depth:
                        self.nodes, self.cuts = nodes, cuts
                        return val
                    sub = f_gain + val
                    if sub < f_best:
                        f_best = sub
                        chosen[f_key] = key
                if f_best > f_lb:
                    bound = f_cap if f_cap < f_best else f_best
                    # A child whose gain plus forced-pick bound, f_slb + k,
                    # reaches the search bound cannot beat best: it is cut
                    # here, and the sum folds into best as its lower bound.
                    room = bound - f_slb
                    n_br = len(f_br)
                    while f_i < n_br:
                        u_bit, v_bit, x, (k, once) = f_br[f_i]
                        f_i += 1
                        if x & once:
                            k -= 1
                        if k < room:
                            break
                        cuts += 1
                        if f_slb + k < f_best:
                            f_best = f_slb + k
                    else:
                        u_bit = 0
                    if u_bit:
                        f_gain = 1 if v_bit & count_mask else 0
                        u_mask, v_mask, cap = f_u | u_bit, f_v | v_bit, bound - f_gain
                        break
                val = f_best
                memo[f_key] = val if val < f_cap else ~val
                depth -= 1
                if depth:
                    key = f_key
                    f_key, f_u, f_v, f_br, f_i, f_best, f_cap, f_lb, f_slb, f_gain = stack.pop()

    def replay(self) -> list[int]:
        """One minimizing arrival order, after `value` returned a value
        below its ub: at each recorded choice from the root, the arrivals
        that died there in label order, then the one that took the pick."""
        adj, n, full, chosen = self.adj, self.n, self.full, self.chosen
        order: list[int] = []
        key = 0
        while True:
            # A state without a choice is terminal: every arrival left is dead.
            step = key ^ chosen.get(key, full << n | key)
            key ^= step
            joined, v_bit, took = step >> n, step & full, []
            while joined:
                u = (joined & -joined).bit_length() - 1
                joined &= joined - 1
                (took if adj[u] & v_bit else order).append(u)
            order += took
            if not v_bit:
                return order


def _rank_mask(pi: Permutation, vs: Sequence[int]) -> int:
    rank = pi.rank
    m = 0
    for v in vs:
        m |= 1 << rank[v]
    return m


def _adj_rank_masks(g: BipartiteGraph, pi: Permutation) -> list[int]:
    return [_rank_mask(pi, g.adj_u[u]) for u in range(g.n)]


def _check_subset(g: BipartiteGraph, pi: Permutation, v_subset: Sequence[int]) -> None:
    """Raise unless pi has g.n entries and v_subset lies in 0..n-1."""
    _check_dims(g, pi, "pi")
    if any(not 0 <= v < g.n for v in v_subset):
        raise AnalysisParamError("subset contains vertices outside the graph")


def _greedy_size(adj_rank: Sequence[int], order: Sequence[int], full: int, count: int) -> int:
    """How many ranks of the mask `count` greedy_match(g, order, pi)
    matches, from adj_rank = _adj_rank_masks(g, pi) and full = (1 << n) - 1:
    each arrival takes its lowest free bit."""
    free = full
    for u in order:
        m = adj_rank[u] & free
        if m:
            free ^= m & -m
    return ((full ^ free) & count).bit_count()


def _masked_search(
    g: BipartiteGraph, pi: Permutation, v_subset: Sequence[int], cap: int, budget: float
) -> tuple[int, Optional[Permutation], bool, int]:
    """(value, sigma, exact, nodes_expanded) for the least number of
    distinct v_subset vertices that greedy matches.  A value reaching cap
    is a lower bound without sigma; below cap, sigma is the first optimal
    branch sequence, checked by greedy replay.  Past `budget` states a
    local search of 4000 iterations scoring the subset's count gives sigma
    and an upper bound, and exact is false."""
    _check_subset(g, pi, v_subset)
    _check_settings(budget=budget)
    adj, mask = _adj_rank_masks(g, pi), _rank_mask(pi, v_subset)
    search = _ArrivalSearch(adj, g.n, mask, budget)
    try:
        value = search.value(cap)
    except _BudgetExceeded:
        order, _ = _local_search(adj, g.n, mask, 4000, 0)
        sigma, exact, nodes = Permutation.from_order(order), False, budget + 4000
    else:
        if value >= cap:
            return value, None, True, search.nodes
        sigma, exact, nodes = Permutation.from_order(search.replay()), True, search.nodes
    matched = greedy_match(g, sigma, pi).matched_u_of_v
    count = sum(1 for v in set(v_subset) if matched[v] is not None)
    if exact and count != value:
        raise PropositionViolatedError(
            "the replayed order matches %d subset vertices, the search said %d" % (count, value)
        )
    return count, sigma, exact, nodes


def worst_order_exact(
    g: BipartiteGraph, pi: Permutation, budget: int = DEFAULT_BUDGET
) -> AdversaryResult:
    """Minimize the greedy matched count over all arrival orders: the
    masked search over every vertex, uncapped.  sigma is the
    lexicographically first optimal branch sequence; nodes_expanded
    counts expanded and terminal states, not cut children or memo hits,
    and the heuristic's fallback past `budget` is inexact."""
    size, sigma, exact, nodes = _masked_search(g, pi, range(g.n), g.n + 1, budget)
    return AdversaryResult(sigma=sigma, size=size, exact=exact, nodes_expanded=nodes)


def worst_order_masked_min(
    g: BipartiteGraph,
    pi: Permutation,
    v_subset: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, bool, int]:
    """Minimum over all arrival orders of how many distinct vertices of
    v_subset get matched.  Returns (value, exact, nodes_expanded)."""
    value, _, exact, nodes = _masked_search(g, pi, v_subset, g.n + 1, budget)
    return value, exact, nodes


def order_avoiding(
    g: BipartiteGraph, pi: Permutation, v_subset: Sequence[int]
) -> Optional[Permutation]:
    """An arrival order under which greedy matches no vertex of
    v_subset, or None when every order matches one of them: the masked
    search with cap 1 and no node budget, which only decides whether the
    masked minimum is 0.  Under cap 1 a state is cut as soon as it has a
    counted forced pick or its Hall bound fires, so the search only
    expands states from which v_subset might still be avoided."""
    return _masked_search(g, pi, v_subset, 1, math.inf)[1]


def _local_search(
    adj: Sequence[int], n: int, count: int, iters: int, seed: int
) -> tuple[list[int], int]:
    """The local search of worst_order_heuristic, scoring each arrival
    order by _greedy_size(adj, order, full, count): (best order, score)."""
    rng = random.Random(seed)
    full = (1 << n) - 1
    cur = list(range(n))
    rng.shuffle(cur)
    cur_val = _greedy_size(adj, cur, full, count)
    best, best_val = cur[:], cur_val
    stale = 0
    restart_after = max(100, 2 * n)
    for _ in range(iters):
        if n >= 2:
            if rng.random() < 0.5:
                i = rng.randrange(n - 1)
                cand = cur[:]
                cand[i], cand[i + 1] = cand[i + 1], cand[i]
            else:
                a = rng.randrange(n)
                b = rng.randrange(a + 1, n + 1)
                block = cur[a:b]
                rest = cur[:a] + cur[b:]
                c = rng.randrange(len(rest) + 1)
                cand = rest[:c] + block + rest[c:]
        else:
            cand = cur[:]
        val = _greedy_size(adj, cand, full, count)
        if val <= cur_val:
            if val < cur_val:
                stale = 0
            cur, cur_val = cand, val
            if val < best_val:
                best, best_val = cand[:], val
        else:
            stale += 1
        if stale >= restart_after:
            cur = list(range(n))
            rng.shuffle(cur)
            cur_val = _greedy_size(adj, cur, full, count)
            if cur_val < best_val:
                best, best_val = cur[:], cur_val
            stale = 0
    return best, best_val


def worst_order_heuristic(
    g: BipartiteGraph, pi: Permutation, iters: int = 10_000, seed: int = 0
) -> AdversaryResult:
    """Random-restart local search over arrival orders.

    Moves are adjacent transpositions and single-block relocations; a
    move is kept when it does not increase the matched count.  The
    result is an upper bound on the true minimum and is deterministic
    for a fixed seed.
    """
    _check_dims(g, pi, "pi")
    _check_settings(iters=iters)
    best, size = _local_search(_adj_rank_masks(g, pi), g.n, (1 << g.n) - 1, iters, seed)
    return AdversaryResult(
        sigma=Permutation.from_order(best), size=size, exact=False, nodes_expanded=iters
    )


def worst_order_sampled(
    g: BipartiteGraph, pi: Permutation, draws: int = 100, seed: int = 0
) -> AdversaryResult:
    """The first best of `draws` arrival orders drawn uniformly from
    random.Random(seed).  The size is an upper bound on the true minimum;
    nodes_expanded counts the draws."""
    _check_dims(g, pi, "pi")
    _check_settings(draws=draws)
    rng = random.Random(seed)
    adj, full = _adj_rank_masks(g, pi), (1 << g.n) - 1
    best, best_val = None, g.n + 1
    for _ in range(draws):
        order = list(range(g.n))
        rng.shuffle(order)
        val = _greedy_size(adj, order, full, full)
        if val < best_val:
            best, best_val = order, val
    sigma = Permutation.from_order(best)
    return AdversaryResult(sigma=sigma, size=best_val, exact=False, nodes_expanded=draws)


def _planned_order(n: int, pairs: Sequence[tuple[int, int]], rank: Sequence[int]) -> Permutation:
    """U vertices of (u, planned v) pairs by partner rank, then the rest by label.

    Processing arrivals in ascending planned-partner rank keeps every
    greedy choice at a rank no higher than the planned partner's: the
    planned partner is still free on arrival (everything matched so far
    sits at strictly lower ranks), so greedy takes it or something even
    earlier.  With all planned partners inside a rank-prefix, that
    prefix absorbs every match.
    """
    order = [u for u, v in sorted(pairs, key=lambda uv: rank[uv[1]])]
    planned = set(order)
    order.extend(u for u in range(n) if u not in planned)
    return Permutation.from_order(order)


def adversary_regular_gadget(pi: Permutation, d: int, t: int) -> Permutation:
    """Arrival order spoiling the three-block 2d-regular construction.

    Within each copy, the d lowest-priority vertices under pi are the
    targets and the other 2d the high set; b* is the V-block holding the
    most targets (the first on a tie) and b1 < b2 are the other two.
    The U-blocks b1 and b2 are matched onto the high set in closed form:
    b1's U-vertices, in label order, take every high vertex of block b2
    and the first hits[b2] high vertices of b*, in rank order; b2's take
    the rest.  Block b holds d - hits[b] high vertices and the hits sum
    to d, so each side gets exactly d vertices it is adjacent to, and
    the matching is perfect.  Each U-vertex arrives when its partner's
    rank comes up, so greedy fills the high set; b*'s U-side arrives
    last and reaches only the targets outside b*.  So max(hits) >=
    ceil(d/3) V-vertices per copy stay unmatched, the same ones under
    any perfect matching onto the high set.
    """
    if d < 1 or t < 1:
        raise FamilyShapeError("d and t must be positive")
    size = 3 * d
    if len(pi) != size * t:
        raise FamilyShapeError("pi has %d entries, expected %d" % (len(pi), size * t))
    copies: list[list[int]] = [[] for _ in range(t)]
    for v in pi.order:
        copies[v // size].append(v)
    order: list[int] = []
    for c, copy_v in enumerate(copies):
        base = size * c
        blocks = [(v - base) // d for v in copy_v]
        hits = [blocks[2 * d :].count(b) for b in range(3)]
        b_star = hits.index(max(hits))
        b1, b2 = (b for b in range(3) if b != b_star)
        owed = hits[b2]  # high vertices of b* still due to b1's U-side
        nxt = [base + b * d for b in range(3)]  # next U label of each block
        for b in blocks[: 2 * d]:
            if b == b_star and owed:
                owed -= 1
                side = b1
            else:
                side = b1 if b == b2 else b2
            order.append(nxt[side])
            nxt[side] += 1
        order.extend(range(base + b_star * d, base + (b_star + 1) * d))
    return Permutation.from_order(order)


def adversary_projective(
    g: BipartiteGraph, pi: Permutation, target_size: int
) -> Permutation:
    """Arrival order leaving the last target_size vertices of pi unmatched
    in a projective-plane incidence graph.

    Only the target set's neighborhood is planned: its U-neighbors are
    matched into the other V-vertices and arrive by ascending partner
    priority, so each takes a vertex outside the target set; the other
    U-vertices follow by index and have no edge into the target set.
    """
    n = g.n
    if not (1 <= target_size <= n):
        raise FamilyShapeError("target_size %d out of range" % target_size)
    rank, cut = pi.rank, n - target_size
    nbrs = sorted({u for v in pi.order[cut:] for u in g.adj_v[v]})
    adj = [[rank[v] for v in g.adj_u[u] if rank[v] < cut] for u in nbrs]
    pairs = max_matching(adj, cut)
    if len(pairs) != len(nbrs):
        raise HallInfeasibleError("cannot saturate the target set's neighborhood")
    return _planned_order(n, [(nbrs[i], pi.order[j]) for i, j in pairs], rank)


def adversary_biclique(pi: Permutation, n: int) -> Permutation:
    """Arrival order for the half-biclique family.

    Scanning pi from the front, each first-half V-vertex is paired with
    the earliest still-unused second-half V-vertex seen so far.  The
    paired first-half U-partners arrive first, ordered by their assigned
    vertex's priority, so each consumes exactly its assigned second-half
    vertex; unpaired first-half U-vertices then take their own partners,
    and the second half of U closes the order.  No arrival order leaves
    fewer matched: every second-half vertex consumed by the first-half
    U-side needs an assignment of this precedence-constrained kind, and
    the first-in-first-out scan maximizes the number of assignments.
    """
    if n % 2 != 0:
        raise FamilyShapeError("n must be even")
    if len(pi) != n:
        raise FamilyShapeError("pi has %d entries, expected %d" % (len(pi), n))
    h = n // 2
    queue: collections.deque[int] = collections.deque()
    paired: list[tuple[int, int]] = []
    for v in pi.order:
        if v >= h:
            queue.append(v)
        elif queue:
            paired.append((v, queue.popleft()))
    return _planned_order(n, paired, pi.rank)


def _family_param(g: BipartiteGraph, key: str) -> int:
    """The integer `key` of g's params, or FamilyShapeError naming it."""
    if not g.params or key not in g.params:
        raise FamilyShapeError("%s not given and absent from graph params" % key)
    value = g.params[key]
    try:
        return _strict_int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FamilyShapeError("graph param %r must be an integer, got %r" % (key, value)) from exc


def adversary_planted_is(g: BipartiteGraph, pi: Permutation) -> Permutation:
    """Arrival order exploiting a planted balanced independent set.

    The first planted_size indices on each side, planted_size read from
    the graph's params, are assumed to span no edges (the generator's
    convention).  All U-vertices outside the planted set are
    matched onto the highest-priority vertices they can reach and arrive
    by ascending partner priority; the planted U-set arrives last.  A
    few prefix vertices may be reachable only from the planted U-side,
    in which case the match is padded with the shortest run of the
    cheapest non-planted vertices above the prefix that completes it.
    A target raises a maximum matching by at most one, so a matching
    of p pairs grows the run by |outside| - p at once, ending where
    one-by-one growth would.  Planted V-vertices beyond the consumed
    range lose all their neighbors, so they stay unmatched.
    """
    n = g.n
    planted_size = _family_param(g, "planted_size")
    if not (0 <= planted_size <= n // 2):
        raise FamilyShapeError("planted_size %d out of range" % planted_size)
    rank = pi.rank
    outside = list(range(planted_size, n))
    reach = {v for u in outside for v in g.adj_u[u]}
    q_cut = n - planted_size
    # Prefix vertices only the planted U-side can reach are left for it;
    # the shortfall is padded with the lowest-priority non-planted
    # vertices above the prefix, so no planned arrival ever sees a free
    # neighbor below its own partner.
    targets = sorted(v for v in reach if rank[v] < q_cut)
    extra = sorted(
        (v for v in reach if rank[v] >= q_cut and v >= planted_size),
        key=lambda v: rank[v],
    )
    taken, short = 0, len(outside) - len(targets)
    while True:
        if short > 0:
            if taken + short > len(extra):
                raise HallInfeasibleError(
                    "non-planted U-side cannot be matched away from the planted targets"
                )
            targets += extra[taken : taken + short]
            taken += short
        pos = {v: i for i, v in enumerate(targets)}
        adj = [[pos[v] for v in g.adj_u[u] if v in pos] for u in outside]
        pairs = max_matching(adj, len(targets))
        short = len(outside) - len(pairs)
        if not short:
            break
    return _planned_order(n, [(outside[i], targets[j]) for i, j in pairs], rank)


# The closed-form adversary of each structured family, (g, pi) -> sigma.
CONSTRUCTIVE = {
    "regular89": lambda g, pi: adversary_regular_gadget(
        pi, _family_param(g, "d"), _family_param(g, "t")
    ),
    "fano": lambda g, pi: adversary_projective(g, pi, 2),
    "pg23": lambda g, pi: adversary_projective(g, pi, 3),
    "biclique_half": lambda g, pi: adversary_biclique(pi, g.n),
    "planted_is": adversary_planted_is,
}


def worst_order_constructive(g: BipartiteGraph, pi: Permutation) -> AdversaryResult:
    """The order that the graph's family adversary in CONSTRUCTIVE builds.

    Raises FamilyShapeError for a family without one.  The size is an
    upper bound on the true minimum."""
    _check_dims(g, pi, "pi")
    build = CONSTRUCTIVE.get(g.family)
    if build is None:
        raise FamilyShapeError("no constructive adversary for family %r" % (g.family,))
    sigma = build(g, pi)
    return AdversaryResult(
        sigma=sigma, size=greedy_match(g, sigma, pi).size, exact=False, nodes_expanded=0
    )


# Every sigma-player by mode name, with the settings it reads.  A front
# end passes all the settings it has; each player takes its own and
# keeps its defaults for the rest.
ATTACKS = {
    "exact": (worst_order_exact, ("budget",)),
    "heuristic": (worst_order_heuristic, ("iters", "seed")),
    "sampled": (worst_order_sampled, ("draws", "seed")),
    "constructive": (worst_order_constructive, ()),
}
ADVERSARY_MODES = tuple(ATTACKS)
# The exact adversary comes first, the default of experiment configs and
# `analyze montecarlo`; `greedyorder adversary` runs it only with --exact.
DEFAULT_MODE = ADVERSARY_MODES[0]


def attack(mode: str, g: BipartiteGraph, pi: Permutation, **settings) -> AdversaryResult:
    """Attack pi with the adversary named `mode`, passing it the settings
    (budget, iters, draws, seed) that it reads, after checking them all."""
    if mode not in ATTACKS:
        raise UsageError("unknown adversary mode %r" % (mode,))
    _check_settings(**settings)
    player, reads = ATTACKS[mode]
    return player(g, pi, **{k: settings[k] for k in reads if k in settings})
