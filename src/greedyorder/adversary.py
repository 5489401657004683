"""Adversarial arrival orders: exact minimization, local search, and
per-family constructive adversaries.

Every order rests on this lemma on greedy, in which each arrival takes
its lowest-ranked free neighbour.  (a) Under any arrival order sigma,
greedy's matching is what V builds in pi order when each vertex with a
free neighbour takes its sigma-earliest one.  All of U share the ranking
pi, so this V-side serial dictatorship gives the unique stable matching,
and greedy's matching is stable.  (b) Any run of that process in which
each such vertex takes any one of its free neighbours is greedy's
matching under `_planned_order`'s sigma: the matched U by their
partner's rank, then the rest.  Every neighbour of a matched u ranked
below u's partner was processed while u was free, so an earlier arrival
took it, and every neighbour of an unmatched u was taken.  Hence the
minimum over sigma of the counted matches is the least that the V-side
process matches over all its choices.

Safety needs no search, by this avoidability lemma.  Under pi, some
sigma leaves a set T of V unmatched exactly when the U-neighbours of T
have a matching into V - T in which each u's partner ranks below every
T-neighbour of u.  Only if: in a run that avoids T, each such u still
sees a free T-neighbour when it arrives, so it is matched, to its
lowest-ranked free neighbour, which lies outside T and below its
T-neighbours.  If: under `_planned_order` of that matching every earlier
arrival took a vertex ranked at most its own partner's, so u's partner
is still free when u arrives, and u takes a vertex ranked at most that
one, outside T; the other U vertices have no edge into T.  Applied to
the arrivals left and the free V, the lemma decides every state of the
arrival game.  The avoidable sets are closed under subsets, since a
matching for T + c cut down to T's neighbours is one for T, so the test
grows T one vertex at a time.  `_avoiding_extension` tests T + c from
T's rows and matching, with c's neighbours' rows kept to a mask: c caps
the rows of its neighbours and adds those not yet next to T, so only
those arrivals need an augmenting path.  `_avoiding_matching` is the
test at a state: it adds T's free vertices in descending rank, each
kept to the free vertices below it, so below all of T added before it.

The exact and masked minima ask the same question.  The counted
vertices that greedy leaves unmatched under a sigma form an avoidable
set, every avoidable set is left unmatched by some sigma, and every
subset of an avoidable set is avoidable.  So the least number of the
counted set C that greedy matches is |C| - alpha, where alpha is the
size of the largest avoidable subset of C.  `_max_avoidable` lists
every largest one by a branch-and-bound: candidates go in descending
rank, a node T keeps the candidates c for which T + c stays avoidable,
its children test only the later ones it kept, and a node is cut when
|T| plus its candidates is below the best size so far.  The cut is
strict, so every largest set is listed, in the order found.  The first
leaf adds, from pi's lowest priority upward, each vertex that keeps the
set avoidable.  Each test of T + c is one `_avoiding_extension` at the
start of the game, keeping c's neighbours' rows below c.

A set-last order needs no ranks.  Under the order that puts T last,
every vertex outside T ranks below all of T, so the test asks only for
a matching of T's U-neighbours into V - T, in label rows less T.  The
label rows with T's bits shifted up by n, (a & ~T) | ((a & T) << n),
order V as that order does, each vertex outside T at its label's bit
below every bit of T, so they serve as its rank rows: the descent reads
only which bit of a mask is lowest and which bits lie below another, and
those agree.  So a census of the sets of one size is the same walk at
that fixed size on the label rows: candidates go in ascending label, so
the sets come in combination order, each T + c keeps c's neighbours'
rows off c (a new neighbour of c has no edge into T), and a set that
fails prunes every set that extends it.

Every order is a descent over the arrival game.  At each state the dead
arrivals join at once in label order, there is one branch per distinct
free-neighbour mask in ascending label order, and the first branch whose
child can still leave a listed set unmatched is taken.  So the order is
the first branch sequence, in ascending arrival order at every state,
that leaves some listed set unmatched.  `order_avoiding` lists one set.
The exact order lists the largest sets.  A set avoidable from a child
is avoidable from the root, since the branches taken and a completion
form one sigma.  So a child is optimal exactly when some largest set of
the root is still avoidable there, and the order is the
lexicographically first optimal branch sequence.

The incumbent is the first listed set T avoidable at the state, with a
matching M of its test, whose pairs of arrivals gone are void.  A branch
whose pick lies in T loses it.  A branch (u, p) with p unused by M or
M(p) = u keeps it with no search, since M less u's pair still holds in
the child.  Otherwise M(p) is another arrival w.  T is never taken, so
at every state an arrival's row is its row where T became the incumbent
less the vertices taken since, and the child's arrivals next to T are
the parent's less u.  M less u's pair and (p, w) matches all of them but
w, so by Berge's lemma the child keeps T exactly when w has an
augmenting path, which then augments M; a failed search leaves M as it
was.  A branch that loses T tests the later listed sets in order,
skipping each that holds a vertex taken, as the test reads only the
free part of a set.  The first that passes becomes the incumbent with
its own matching, and the sets before it are dropped, since a set that
a state cannot avoid stays unavoidable below it.  Each verdict is exact
whatever M is.

`budget` bounds the kernel calls, the avoidability tests of the list
and of the descent together, a test at a state counting as one call;
each listed set cost one call, so it bounds the list as well.  Past it
the order is `order_avoiding`'s on the largest set found so far,
flagged inexact.
"""

from __future__ import annotations

import collections
import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import (
    BipartiteGraph,
    Permutation,
    _check_dims,
    _rank_rows,
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
    """More kernel calls than the budget; args[0] is the largest
    avoidable set found so far, as a rank mask."""


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


def _rank_mask(pi: Permutation, vs: Sequence[int]) -> int:
    """The ranks of the vertices vs, as a mask."""
    return sum(1 << r for r in {pi.rank[v] for v in vs})


def _check_subset(g: BipartiteGraph, pi: Permutation, v_subset: Sequence[int]) -> None:
    """Raise unless pi has g.n entries and v_subset holds ints in 0..n-1:
    a bool, float or str is no vertex, as in `Permutation.from_order`."""
    _check_dims(g, pi, "pi")
    if any(type(v) is not int or not 0 <= v < g.n for v in v_subset):
        if all(type(v) is int for v in v_subset):
            raise AnalysisParamError("subset contains vertices outside the graph")
        raise AnalysisParamError("subset entries must be ints: %r" % (list(v_subset),))


def _greedy_size(adj_rank: Sequence[int], order: Sequence[int], full: int) -> int:
    """The size of greedy_match(g, order, pi), from adj_rank =
    _rank_rows(g, pi)[0] and full = (1 << n) - 1: each arrival takes its
    lowest free bit."""
    free = full
    for u in order:
        m = adj_rank[u] & free
        if m:
            free ^= m & -m
    return (full ^ free).bit_count()


def _replayed(
    g: BipartiteGraph, pi: Permutation, v_subset: Sequence[int], order: Sequence[int], value: Optional[int]
) -> tuple[int, Permutation]:
    """(count, sigma): sigma is the arrival order `order` and count the
    distinct v_subset vertices that greedy_match matches under it.
    Raises PropositionViolatedError when value is given and differs."""
    sigma = Permutation.from_order(order)
    matched = greedy_match(g, sigma, pi).matched_u_of_v
    count = sum(1 for v in set(v_subset) if matched[v] is not None)
    if value is not None and count != value:
        raise PropositionViolatedError(
            "the replayed order matches %d subset vertices, the search said %d" % (count, value)
        )
    return count, sigma


def _masked_search(
    g: BipartiteGraph, pi: Permutation, v_subset: Sequence[int], budget: int
) -> tuple[int, Permutation, bool, int]:
    """(value, sigma, exact, nodes_expanded) for the least number of
    distinct v_subset vertices that greedy matches: their count less the
    largest avoidable subset's, with sigma the first optimal branch
    sequence by the descent over the largest sets, checked by greedy
    replay.  nodes_expanded counts kernel calls.  Past `budget` of them,
    in the list and the descent together, sigma is `order_avoiding`'s on
    the largest set found so far and the value its replayed count, an
    upper bound: exact is false and nodes_expanded is budget + 1."""
    _check_subset(g, pi, v_subset)
    _check_settings(budget=budget)
    (adj, col), mask = _rank_rows(g, pi), _rank_mask(pi, v_subset)
    try:
        listed, calls = _max_avoidable(adj, col, mask, budget)
        sets = [t for t, _ in listed]
        found = _avoiding_descent(adj, col, (1 << g.n) - 1, sets, budget - calls)
        value, exact = mask.bit_count() - sets[0].bit_count(), True
    except _BudgetExceeded as exc:
        found = _avoiding_descent(adj, col, (1 << g.n) - 1, exc.args)
        value, exact, calls = None, False, budget + 1
    if found is None:
        raise PropositionViolatedError("no largest avoidable set is avoidable")
    order, more = found
    nodes = calls + more if exact else calls
    count, sigma = _replayed(g, pi, v_subset, order, value)
    return count, sigma, exact, nodes


def worst_order_exact(
    g: BipartiteGraph, pi: Permutation, budget: int = DEFAULT_BUDGET
) -> AdversaryResult:
    """Minimize the greedy matched count over all arrival orders: the
    masked search over every vertex.  sigma is the lexicographically
    first optimal branch sequence; nodes_expanded counts the kernel
    calls of the list of largest avoidable sets and of the descent.
    `budget` bounds that count: past it the fallback is inexact, also
    when the list alone fit."""
    size, sigma, exact, nodes = _masked_search(g, pi, range(g.n), budget)
    return AdversaryResult(sigma=sigma, size=size, exact=exact, nodes_expanded=nodes)


def worst_order_masked_min(
    g: BipartiteGraph,
    pi: Permutation,
    v_subset: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, bool, int]:
    """Minimum over all arrival orders of how many distinct vertices of
    v_subset get matched.  Returns (value, exact, nodes_expanded)."""
    value, _, exact, nodes = _masked_search(g, pi, v_subset, budget)
    return value, exact, nodes


def _augment(
    rows: dict[int, int], mate: dict[int, int], starts: Iterable[int], left: int, free: int
) -> bool:
    """Augment the matching `mate`, {V bit: U bit}, from each arrival of
    `starts` in turn, each by a path within rows & free; a pair counts
    only while its arrival is in `left`.  Returns False at the first
    arrival with no augmenting path, before writing its path, so a
    single start leaves mate as it was.  Each path is searched depth
    first on an explicit stack, free of the recursion limit; at each
    step it takes the lowest unmatched vertex of the row if there is
    one, else the lowest one not yet seen."""
    for u_bit in starts:
        # path_u[i] takes path_v[i]; the last V on the path was unmatched.
        path_u, path_v, seen = [u_bit], [], ~free
        while True:
            r = rows[path_u[-1]] & ~seen
            if not r:
                path_u.pop()
                if not path_u:
                    return False
                path_v.pop()
                continue
            v = r & -r
            w_bit = mate.get(v, 0) & left
            x = r ^ v
            while w_bit and x:
                y = x & -x
                x ^= y
                if not mate.get(y, 0) & left:
                    v, w_bit = y, 0
            seen |= v
            path_v.append(v)
            if not w_bit:
                break
            path_u.append(w_bit)
        for w_bit, v in zip(path_u, path_v):
            mate[v] = w_bit
    return True


def _avoiding_matching(
    adj: Sequence[int], col: Sequence[int], t_mask: int, left: int, free: int
) -> Optional[tuple[dict[int, int], dict[int, int]]]:
    """The avoidability test of the module docstring at the state with
    the arrivals `left` (U bits) and the `free` V (rank bits): (rows,
    mate), {U bit: the free vertices outside t_mask that rank below all
    of its free t_mask neighbours} for each arrival left next to a free
    vertex of t_mask, and a matching, as {V bit: U bit}, of each of them
    into its row, or None when there is none.  adj and col are
    `_rank_rows`'s rows and columns.  The free bits of t_mask go in
    descending rank, each by `_avoiding_extension`."""
    kernel, ts = ({}, {}), t_mask & free
    while kernel is not None and ts:
        c = 1 << ts.bit_length() - 1
        ts ^= c
        kernel = _avoiding_extension(adj, col, kernel[0], kernel[1], c, (c - 1) & free, left)
    return kernel


def _avoiding_extension(
    adj: Sequence[int],
    col: Sequence[int],
    rows: dict[int, int],
    mate: dict[int, int],
    c: int,
    keep: int,
    left: int,
) -> Optional[tuple[dict[int, int], dict[int, int]]]:
    """The avoidability test of T + c, from T's rows and matching as
    `_avoiding_matching` returns them and a bit c outside T: the same
    verdict, with the rows and a matching for T + c, grown in place from
    T's, which a caller that keeps them passes as copies.  The rows of c's
    neighbours among the arrivals `left` keep only the bits of `keep`:
    the free vertices below c, when c ranks below all of T, or ~c, when
    T + c ranks above every other vertex (the census).  The neighbours
    not yet next to T are added, so only those arrivals, when new or
    when their pair leaves the capped row, need an augmenting path."""
    starts, x = [], col[c.bit_length() - 1] & left
    while x:
        u_bit = x & -x
        x ^= u_bit
        old = rows.get(u_bit)
        if old is None:
            r = adj[u_bit.bit_length() - 1] & keep
            starts.append(u_bit)
        else:
            r, gone = old & keep, old & ~keep
            while gone:
                v = gone & -gone
                gone ^= v
                if mate.get(v) == u_bit:
                    del mate[v]
                    starts.append(u_bit)
        if not r:
            return None
        rows[u_bit] = r
    # keep and left already cut the rows to the free V and the pairs to the
    # arrivals left, so every arrival counts and every vertex is free.
    return (rows, mate) if _augment(rows, mate, starts, -1, -1) else None


def _max_avoidable(
    adj: Sequence[int], col: Sequence[int], count: int, budget: float, size: Optional[int] = None
) -> tuple[list[tuple[int, tuple[dict[int, int], dict[int, int]]]], int]:
    """(sets, calls): every largest avoidable subset of the ranks in
    `count`, as (rank mask, its rows and matching) in the order that the
    branch-and-bound of the module docstring finds them, and its kernel
    calls, each one `_avoiding_extension`.  With a `size`, every
    avoidable subset of that size instead, by the census's walk: count
    is then a mask of labels of the label rows, and the sets come in
    itertools.combinations order.  Raises _BudgetExceeded with the first
    largest set so far past `budget` calls.  A candidate is (c, its keep
    mask, the rows and matching of T + c); a frame is (T, |T|, its
    candidates, the index of the next one to add), on an explicit stack
    free of the recursion limit."""
    bits = [1 << r for r in range(count.bit_length()) if count >> r & 1]
    pool = [(c, ~c, None) for c in bits] if size else [(c, c - 1, None) for c in reversed(bits)]
    best, sets, calls, frames = size or 0, [], 0, []
    t, k, kernel = 0, 0, ({}, {})
    while True:
        if k > best:
            best, sets = k, []
        if k == best:
            sets.append((t, kernel))
        # T's candidates among pool, unless T has the fixed size or too few
        # are left to reach the best size.
        cands: list[tuple[int, int, tuple[dict[int, int], dict[int, int]]]] = []
        for j, (c, keep, _) in enumerate(pool):
            if k == size or k + len(cands) + len(pool) - j < best:
                break
            calls += 1
            if calls > budget:
                raise _BudgetExceeded(sets[0][0])
            child = _avoiding_extension(adj, col, dict(kernel[0]), dict(kernel[1]), c, keep, -1)
            if child is not None:
                cands.append((c, keep, child))
        else:
            frames.append((t, k, cands, 0))
        # The next child, from the deepest frame whose candidates left can reach the best size.
        while frames:
            t, k, pool, i = frames[-1]
            if i == len(pool) or k + len(pool) - i < best:
                frames.pop()
                continue
            frames[-1] = (t, k, pool, i + 1)
            (c, _, kernel), pool = pool[i], pool[i + 1 :]
            t, k = t | c, k + 1
            break
        else:
            return sets, calls


def _largest_avoidable(g: BipartiteGraph, pi: Permutation) -> list[tuple[int, ...]]:
    """Every largest avoidable set of V under pi, as sorted label tuples in
    `_max_avoidable`'s order.  Raises UsageError past DEFAULT_BUDGET kernel calls."""
    _check_dims(g, pi, "pi")
    adj, col = _rank_rows(g, pi)
    try:
        sets, _ = _max_avoidable(adj, col, (1 << g.n) - 1, DEFAULT_BUDGET)
    except _BudgetExceeded:
        raise UsageError("exact minimization exceeded its budget; instance too large") from None
    return [tuple(v for v in range(g.n) if t >> pi.rank[v] & 1) for t, _ in sets]


def _avoiding_descent(
    adj: Sequence[int],
    col: Sequence[int],
    v_mask: int,
    sets: Sequence[int],
    budget: float = math.inf,
    root: Optional[tuple[dict[int, int], dict[int, int]]] = None,
) -> Optional[tuple[list[int], int]]:
    """(order, calls): the first branch sequence, in ascending arrival
    order at every state, that leaves some mask of `sets` unmatched, by
    the descent of the module docstring, and its kernel calls, or None
    when no set is avoidable at the root.  Rows, columns and sets share
    one coordinate space whose bits rank the vertices of v_mask in
    priority order.  `root`, when given, is the rows and a matching of
    the first set's test at the root, which the caller has found
    avoidable.  An incumbent's matching keeps the rows of the state
    where it was found, which its set, never taken, leaves as they are
    but for the vertices taken.  Raises _BudgetExceeded with the first
    listed set past `budget` calls."""
    u_mask, calls, kernel = (1 << len(adj)) - 1, 0, root
    while kernel is None:
        if calls == len(sets):
            return None
        calls += 1
        if calls > budget:
            raise _BudgetExceeded(sets[0])
        kernel = _avoiding_matching(adj, col, sets[calls - 1], u_mask, v_mask)
    (rows, mate), lo, last = kernel, max(calls - 1, 0), len(sets) - 1
    t_mask, dead = sets[lo], 0
    for u, row in enumerate(adj):
        if not row:
            dead |= 1 << u
    order, left, free = [], u_mask ^ dead, v_mask
    while True:
        # Arrivals left without a free neighbour join at once, in label order.
        while dead:
            order.append((dead & -dead).bit_length() - 1)
            dead &= dead - 1
        if not left:
            return order, calls
        seen, rest = set(), left
        while True:
            if not rest:
                raise PropositionViolatedError("the descent found no avoiding branch")
            u_bit = rest & -rest
            rest ^= u_bit
            m = adj[u_bit.bit_length() - 1] & free
            if m in seen:
                continue
            seen.add(m)
            p = m & -m
            # The incumbent's pick, or a pick it leaves unmatched, keeps it
            # unsearched; else the child keeps it exactly when p's partner
            # has an augmenting path once u and p are gone.
            if not p & t_mask:
                w_bit = mate.get(p, 0) & (left ^ u_bit)
                if not w_bit or _augment(rows, mate, (w_bit,), left ^ u_bit, free ^ p):
                    break
            if lo == last:
                continue
            # Else the first later set that holds no vertex taken and that
            # the child avoids becomes the incumbent.
            for j in range(lo + 1, len(sets)):
                if sets[j] & (p | ~free):
                    continue
                calls += 1
                if calls > budget:
                    raise _BudgetExceeded(sets[0])
                kernel = _avoiding_matching(adj, col, sets[j], left ^ u_bit, free ^ p)
                if kernel is not None:
                    lo, t_mask, (rows, mate) = j, sets[j], kernel
                    break
            else:
                continue
            break
        order.append(u_bit.bit_length() - 1)
        left, free = left ^ u_bit, free ^ p
        takers = col[p.bit_length() - 1] & left
        while takers:
            w_bit = takers & -takers
            takers ^= w_bit
            if not adj[w_bit.bit_length() - 1] & free:
                dead |= w_bit
        left ^= dead


def order_avoiding(
    g: BipartiteGraph, pi: Permutation, v_subset: Sequence[int]
) -> Optional[Permutation]:
    """An arrival order under which greedy matches no vertex of
    v_subset, or None when every order matches one of them, by the
    avoidability test and its descent: one matching and no search, so
    no budget.  The order is the first branch sequence, in ascending
    arrival order at every state, that leaves v_subset unmatched,
    checked by greedy replay."""
    _check_subset(g, pi, v_subset)
    adj, col = _rank_rows(g, pi)
    found = _avoiding_descent(adj, col, (1 << g.n) - 1, [_rank_mask(pi, v_subset)])
    return None if found is None else _replayed(g, pi, v_subset, found[0], 0)[1]


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
    adj, n = _rank_rows(g, pi)[0], g.n
    rng = random.Random(seed)
    full = (1 << n) - 1
    cur = list(range(n))
    rng.shuffle(cur)
    cur_val = _greedy_size(adj, cur, full)
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
        val = _greedy_size(adj, cand, full)
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
            cur_val = _greedy_size(adj, cur, full)
            if cur_val < best_val:
                best, best_val = cur[:], cur_val
            stale = 0
    return AdversaryResult(
        sigma=Permutation.from_order(best), size=best_val, exact=False, nodes_expanded=iters
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
    adj, full = _rank_rows(g, pi)[0], (1 << g.n) - 1
    best, best_val = None, g.n + 1
    for _ in range(draws):
        order = list(range(g.n))
        rng.shuffle(order)
        val = _greedy_size(adj, order, full)
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
    """Arrival order leaving the last target_size vertices of pi
    unmatched: `order_avoiding` on them, so on any graph, and its order
    is checked by greedy replay.  Raises HallInfeasibleError when every
    order matches one of them.
    """
    n = g.n
    if not (1 <= target_size <= n):
        raise FamilyShapeError("target_size %d out of range" % target_size)
    sigma = order_avoiding(g, pi, pi.order[n - target_size :])
    if sigma is None:
        raise HallInfeasibleError("cannot saturate the target set's neighborhood")
    return sigma


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
    _check_dims(g, pi, "pi")
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


# The constructive adversary of each structured family, (g, pi) -> sigma.
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
