"""Core bipartite-matching primitives.

Vertices on each side are indexed 0..n-1.  A greedy run processes the
left side U in an arrival order sigma; each arriving u takes its
lowest-priority unmatched neighbor, where priority rank 0 under pi means
"taken first".  Everything here is deterministic.  The one side effect
is a cache: a `BipartiteGraph` keeps the V-label bit masks of its long
rows once `greedy_match` has built them, outside its fields, so they
change neither equality, repr, pickling nor the graph's file.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, fields
from itertools import accumulate
from operator import or_
from typing import Iterable, Optional, Sequence

from .errors import (
    DimensionMismatchError,
    InvalidGraphError,
    NoPerfectMatchingError,
)

__all__ = [
    "BipartiteGraph",
    "Permutation",
    "PerfectMatching",
    "GreedyOutcome",
    "greedy_match",
    "max_matching",
    "find_perfect_matching",
    "align_with_matching",
]


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph with n vertices per side and sorted adjacency lists.

    The first `greedy_match` on a graph keeps the V-label masks of its
    rows longer than `_wide(n)` in `_masks` (see `_wide_masks`).  `_masks`
    is not a field, so `==`, `repr` and pickling see the fields only.
    """

    n: int
    adj_u: tuple[tuple[int, ...], ...]
    adj_v: tuple[tuple[int, ...], ...]
    family: Optional[str] = None
    params: Optional[dict] = None
    _masks = None

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        family: Optional[str] = None,
        params: Optional[dict] = None,
    ) -> "BipartiteGraph":
        """Build a graph from (u, v) pairs given in any order.

        Raises InvalidGraphError when n < 1, when an edge is out of range
        or when an edge repeats.  Ranges are checked while the edges are
        read and repeats once each U list is sorted, so with several
        faults an out-of-range edge is named before an earlier repeat,
        and the smallest repeated edge is the one named.
        """
        if n < 1:
            raise InvalidGraphError("n must be at least 1, got %r" % (n,))
        adj_u: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidGraphError("edge (%r, %r) out of range for n=%d" % (u, v, n))
            adj_u[u].append(v)
        return _graph_from_rows(n, adj_u, family, params)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """All edges, sorted lexicographically."""
        return [(u, v) for u in range(self.n) for v in self.adj_u[u]]

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj_u)

    def degrees_u(self) -> list[int]:
        return [len(a) for a in self.adj_u]

    def degrees_v(self) -> list[int]:
        return [len(a) for a in self.adj_v]

    def __getstate__(self) -> dict:
        """The fields only: a pickle leaves the mask cache behind."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _graph_from_rows(
    n: int, adj_u: list[list[int]], family: Optional[str], params: Optional[dict]
) -> BipartiteGraph:
    """The graph whose U rows are adj_u, in range but in any order.

    Sorts each row in place and raises InvalidGraphError on the smallest
    repeated edge.  `BipartiteGraph.from_edges` and the graph reader in
    `io` both end here.
    """
    adj_v: list[list[int]] = [[] for _ in range(n)]
    for u, a in enumerate(adj_u):
        a.sort()
        if len(set(a)) < len(a):
            v = next(x for x, y in zip(a, a[1:]) if x == y)
            raise InvalidGraphError("duplicate edge (%d, %d)" % (u, v))
        for v in a:
            adj_v[v].append(u)
    return BipartiteGraph(
        n=n,
        adj_u=tuple(map(tuple, adj_u)),
        adj_v=tuple(map(tuple, adj_v)),
        family=family,
        params=params,
    )


@dataclass(frozen=True)
class Permutation:
    """A total order over 0..n-1.

    ``order[r]`` is the vertex at rank r; ``rank[v]`` is the rank of
    vertex v.  Rank 0 is first (highest priority for greedy).
    """

    order: tuple[int, ...]
    rank: tuple[int, ...]

    @classmethod
    def from_order(cls, order: Sequence[int]) -> "Permutation":
        """The permutation whose rank-r vertex is order[r].

        Raises InvalidGraphError unless order holds each of 0..n-1 once,
        each as an int: a bool, float or str is no vertex, as in `io._pair`.
        """
        n = len(order)
        rank = [-1] * n
        for r, v in enumerate(order):
            if type(v) is not int or not (0 <= v < n) or rank[v] != -1:
                raise InvalidGraphError("not a permutation of 0..%d: %r" % (n - 1, list(order)))
            rank[v] = r
        return cls(order=tuple(order), rank=tuple(rank))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        r = tuple(range(n))
        return cls(order=r, rank=r)

    def __len__(self) -> int:
        return len(self.order)


def _rank_rows(g: BipartiteGraph, pi: Permutation) -> tuple[list[int], list[int]]:
    """In one pass over the edges: each U vertex's neighbours as a mask of
    their ranks, and each rank's neighbours as a mask of U labels."""
    rank, rows, cols = pi.rank, [0] * g.n, [0] * g.n
    for u, nbrs in enumerate(g.adj_u):
        u_bit, row = 1 << u, 0
        for v in nbrs:
            r = rank[v]
            row |= 1 << r
            cols[r] |= u_bit
        rows[u] = row
    return rows, cols


@dataclass(frozen=True)
class PerfectMatching:
    """A perfect matching given as the partner array of the U side."""

    v_of_u: tuple[int, ...]

    @property
    def u_of_v(self) -> tuple[int, ...]:
        inv = [-1] * len(self.v_of_u)
        for u, v in enumerate(self.v_of_u):
            inv[v] = u
        return tuple(inv)

    def is_identity(self) -> bool:
        return all(v == u for u, v in enumerate(self.v_of_u))


@dataclass(frozen=True)
class GreedyOutcome:
    """Result of one greedy run: partner arrays (None for unmatched) and size."""

    matched_v_of_u: tuple[Optional[int], ...]
    matched_u_of_v: tuple[Optional[int], ...]
    size: int

    def unmatched_v(self) -> list[int]:
        return [v for v, u in enumerate(self.matched_u_of_v) if u is None]

    def unmatched_u(self) -> list[int]:
        return [u for u, v in enumerate(self.matched_v_of_u) if v is None]


def _check_dims(g: BipartiteGraph, perm: Permutation, name: str) -> None:
    if len(perm) != g.n:
        raise DimensionMismatchError(
            "%s has %d entries but graph has n=%d" % (name, len(perm), g.n)
        )


# Cost model of greedy_match, in scanned row entries (about 20 ns each
# with CPython 3.11 on a 2-vCPU x86-64 host).  A C-level bisect step costs
# 3-4 entries, so the prefix search beats the scan on a row longer than
# _wide(n).  The pass over pi that builds the prefix masks, with the mask
# upkeep of the arrivals, costs about 8 entries per vertex on the graphs
# measured, all with n of at most 600.  So the masks are used only when
# the wide rows' entries beyond _wide(n) number at least 8 * n.
def _wide(n: int) -> int:
    return 5 * n.bit_length() + 8


def _row_mask(n: int, row: Sequence[int]) -> int:
    """The V-label mask of row.  Set as characters of a binary numeral,
    a 500-entry row at n = 1000 takes under half the time that a sum of
    its 500 powers of two takes."""
    bits = bytearray(b"0") * n
    for v in row:
        bits[v] = 49  # b"1"
    return int(bits[::-1], 2)


def _wide_masks(g: BipartiteGraph) -> dict[int, int]:
    """u -> the V-label mask of u's row, for each row longer than
    `_wide(n)`; empty unless those rows save greedy_match enough scan
    entries to pay for its pass over pi.  Kept on g as `g._masks`."""
    n, w = g.n, _wide(g.n)
    wide = {u: a for u, a in enumerate(g.adj_u) if len(a) > w}
    masks = {}
    if sum(len(a) - w for a in wide.values()) >= 8 * n:
        masks = {u: _row_mask(n, a) for u, a in wide.items()}
    # Not g.__dict__[...] = masks, as functools.cached_property does: a
    # write to the instance dict makes every later attribute load on g
    # about three times slower.
    object.__setattr__(g, "_masks", masks)
    return masks


def _prefix_masks(order: Sequence[int]) -> list[int]:
    """prefix[k] is the V-label mask of the first k vertices of order."""
    return list(accumulate(map((1).__lshift__, order), or_, initial=0))


def greedy_match(g: BipartiteGraph, sigma: Permutation, pi: Permutation) -> GreedyOutcome:
    """Run greedy matching: U arrives in sigma order, each u takes the
    unmatched neighbor with the lowest pi rank, or stays unmatched.

    A row of at most `_wide(n)` entries is scanned.  A longer row, when
    the graph caches its mask, takes the first k with
    ``mask & free & prefix[k]`` nonzero: those bits only grow with k, so
    a bisection finds k, and ``pi.order[k - 1]`` is the lowest-ranked
    free neighbour.
    """
    _check_dims(g, sigma, "sigma")
    _check_dims(g, pi, "pi")
    n, adj_u, rank = g.n, g.adj_u, pi.rank
    mu: list[Optional[int]] = [None] * n
    mv: list[Optional[int]] = [None] * n
    size = 0
    masks = g._masks
    if masks is None:
        masks = _wide_masks(g)
    if not masks:
        # Kept apart so that graphs without paying rows skip the upkeep
        # of free, a dict lookup and a bigint XOR per arrival: one loop
        # for both was 15-20% slower on planted_is n=600 d=20 and 1.5x
        # slower on random_regular n=60 d=4.
        for u in sigma.order:
            best = -1
            best_r = n
            for v in adj_u[u]:
                if mv[v] is None and rank[v] < best_r:
                    best_r = rank[v]
                    best = v
            if best >= 0:
                mu[u] = best
                mv[best] = u
                size += 1
        return GreedyOutcome(matched_v_of_u=tuple(mu), matched_u_of_v=tuple(mv), size=size)
    order, prefix, free = pi.order, _prefix_masks(pi.order), (1 << n) - 1
    for u in sigma.order:
        mask = masks.get(u)
        if mask is None:
            best = -1
            best_r = n
            for v in adj_u[u]:
                if mv[v] is None and rank[v] < best_r:
                    best_r = rank[v]
                    best = v
            if best < 0:
                continue
        else:
            avail = mask & free
            if not avail:
                continue
            best = order[bisect_right(prefix, 0, key=avail.__and__) - 1]
        mu[u] = best
        mv[best] = u
        free ^= 1 << best
        size += 1
    return GreedyOutcome(matched_v_of_u=tuple(mu), matched_u_of_v=tuple(mv), size=size)


def max_matching(adj: Sequence[Iterable[int]], n_right: int) -> list[tuple[int, int]]:
    """Maximum bipartite matching via Hopcroft-Karp.

    ``adj[i]`` lists the right-side indices reachable from left vertex i.
    Returns the matched pairs sorted by left index.  Deterministic: ties
    are resolved by index order.
    """
    n_left = len(adj)
    adj_l = [tuple(a) for a in adj]
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    INF = n_left + n_right + 1

    # One frame per augmenting step; layers rise along a path, so dist[i] holds.
    def dfs(i: int) -> bool:
        nxt = dist[i] + 1
        for j in adj_l[i]:
            k = match_r[j]
            if k == -1 or (dist[k] == nxt and dfs(k)):
                match_l[i] = j
                match_r[j] = i
                return True
        dist[i] = INF
        return False

    # The first phase starts with every left vertex free at layer 0, so no
    # matched vertex ever sits at layer 1 and each search takes its first
    # free neighbour in row order: a plain greedy pass, with no BFS.
    for i, row in enumerate(adj_l):
        for j in row:
            if match_r[j] == -1:
                match_l[i] = j
                match_r[j] = i
                break

    while True:
        # Layer from the free left vertices; the list is read as a queue.
        dist = [INF if m != -1 else 0 for m in match_l]
        queue = [i for i in range(n_left) if match_l[i] == -1]
        found = False
        for i in queue:
            nxt = dist[i] + 1
            for j in adj_l[i]:
                k = match_r[j]
                if k == -1:
                    found = True
                elif dist[k] == INF:
                    dist[k] = nxt
                    queue.append(k)
        if not found:
            break
        for i in range(n_left):
            if match_l[i] == -1:
                dfs(i)
    return [(i, match_l[i]) for i in range(n_left) if match_l[i] != -1]


def find_perfect_matching(g: BipartiteGraph) -> PerfectMatching:
    """Return a perfect matching of g or raise NoPerfectMatchingError."""
    pairs = max_matching(g.adj_u, g.n)
    if len(pairs) < g.n:
        matched_u = {u for u, _ in pairs}
        missing = sorted(set(range(g.n)) - matched_u)
        raise NoPerfectMatchingError(
            "maximum matching has size %d < n=%d (unmatched U: %s)"
            % (len(pairs), g.n, missing)
        )
    v_of_u = [-1] * g.n
    for u, v in pairs:
        v_of_u[u] = v
    return PerfectMatching(v_of_u=tuple(v_of_u))


def align_with_matching(
    g: BipartiteGraph, m: PerfectMatching
) -> tuple[BipartiteGraph, tuple[int, ...]]:
    """Relabel the V side so that m becomes the identity matching.

    Returns the relabeled graph and ``v_map`` with ``v_map[new] == old``,
    kept so results can be reported in the original labeling.  The
    adjacency is relabelled with no rebuild: each U list has its entries
    renamed and is re-sorted, and the V lists are permuted, so they stay
    sorted.
    Raises InvalidGraphError if a pair of m is not an edge or m is not a
    permutation.
    """
    if len(m.v_of_u) != g.n:
        raise DimensionMismatchError("matching size %d != n=%d" % (len(m.v_of_u), g.n))
    old_of_new = m.v_of_u
    for u, v in enumerate(old_of_new):
        if v not in g.adj_u[u]:
            raise InvalidGraphError("matching pair (%d, %d) is not an edge" % (u, v))
    new_of_old = [-1] * g.n
    for new, old in enumerate(old_of_new):
        new_of_old[old] = new
    if -1 in new_of_old:
        raise InvalidGraphError("matching %r is not a permutation" % (list(old_of_new),))
    g2 = BipartiteGraph(
        n=g.n,
        adj_u=tuple(tuple(sorted([new_of_old[v] for v in a])) for a in g.adj_u),
        adj_v=tuple(g.adj_v[old] for old in old_of_new),
    )
    return g2, tuple(old_of_new)
