"""Conflict digraph of a matched instance and path covers over it.

For a graph whose perfect matching has been aligned to the identity
(pair i is the edge (u_i, v_i)), the conflict digraph has one node per
pair and an arc i -> j exactly when (u_i, v_j) is an edge and i != j.
Path covers of this digraph drive the certified arrival orders: a cover
is improved by merge and unbalance operations until none applies, even
after rotating the two paths involved.  `maximal_path_cover` is the one
place that picks and applies steps, each in place; tests read its scan
through the step log it keeps on request.  The stand-alone step
functions, the maximality audit and the reference scan that check it
are test oracles in tests/conftest.py.

`build_spoiling_graph` is the one way to build a `SpoilGraph`: it takes
the out-masks and the in-masks from one `core._rank_rows` pass over the
aligned graph under the identity order.  The cover loop runs the plain
merges, most of its steps, from the scan that finds them straight to the
merge helper, and builds a `CoverStep` only for a kept log.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .core import BipartiteGraph, Permutation, _rank_rows
from .errors import (
    InvalidGraphError,
    MatchingNotAlignedError,
    MissingArcError,
    PropositionViolatedError,
)

__all__ = [
    "SpoilGraph",
    "PathCover",
    "CoverStep",
    "build_spoiling_graph",
    "maximal_path_cover",
]


@dataclass(frozen=True)
class SpoilGraph:
    """Bitmask digraph on n pair-nodes; build one with `build_spoiling_graph`.

    Bit j of ``out_mask[i]`` and bit i of ``in_mask[j]`` are set iff
    there is an arc i -> j.
    """

    n: int
    out_mask: tuple[int, ...]
    in_mask: tuple[int, ...]

    def has_arc(self, i: int, j: int) -> bool:
        return (self.out_mask[i] >> j) & 1 == 1

    @property
    def num_arcs(self) -> int:
        return sum(m.bit_count() for m in self.out_mask)

    def arcs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, m in enumerate(self.out_mask) for j in _bits(m)]


def build_spoiling_graph(g: BipartiteGraph) -> SpoilGraph:
    """Build the conflict digraph of an identity-aligned graph.

    Requires every pair edge (i, i) to be present; align the graph with
    align_with_matching first.  The arc count always equals
    ``g.num_edges - g.n``.
    """
    rows, cols = _rank_rows(g, Permutation.identity(g.n))
    for i, m in enumerate(rows):
        if not (m >> i) & 1:
            raise MatchingNotAlignedError(
                "pair edge (%d, %d) missing; align the matching to the identity first" % (i, i)
            )
    out_mask = tuple(m ^ (1 << i) for i, m in enumerate(rows))
    # Column j holds j itself and every i with an arc i -> j.
    in_mask = tuple(m ^ (1 << j) for j, m in enumerate(cols))
    sg = SpoilGraph(n=g.n, out_mask=out_mask, in_mask=in_mask)
    if sg.num_arcs != g.num_edges - g.n:
        raise PropositionViolatedError(
            "conflict digraph has %d arcs, not edges - n = %d" % (sg.num_arcs, g.num_edges - g.n)
        )
    return sg


def _normalize(paths: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted((tuple(p) for p in paths), key=lambda p: (len(p), min(p))))


@dataclass(frozen=True)
class PathCover:
    """A set of vertex-disjoint directed paths covering all n nodes.

    Paths are kept normalized: sorted by (length, smallest contained
    node), so the k isolated nodes come first.  For a path with at least
    two nodes, its first node is a start and its last an end.
    """

    n: int
    paths: tuple[tuple[int, ...], ...]

    @classmethod
    def from_paths(cls, n: int, paths: Iterable[Sequence[int]]) -> "PathCover":
        listed = [tuple(p) for p in paths]
        if any(len(p) == 0 for p in listed):
            raise InvalidGraphError("empty path in cover")
        norm = _normalize(listed)
        seen: set[int] = set()
        for p in norm:
            for x in p:
                if not (0 <= x < n) or x in seen:
                    raise InvalidGraphError("node %r repeated or out of range in cover" % (x,))
                seen.add(x)
        if len(seen) != n:
            raise InvalidGraphError("cover misses %d node(s)" % (n - len(seen)))
        return cls(n=n, paths=norm)

    def validate_arcs(self, sg: SpoilGraph) -> None:
        for p in self.paths:
            for a, b in zip(p, p[1:]):
                if not sg.has_arc(a, b):
                    raise MissingArcError("cover uses absent arc %d -> %d" % (a, b))

    @property
    def p(self) -> int:
        return len(self.paths)

    @property
    def k(self) -> int:
        return sum(1 for p in self.paths if len(p) == 1)

    @property
    def isolated(self) -> tuple[int, ...]:
        """The nodes forming length-1 paths, in normalized order."""
        return tuple(p[0] for p in self.paths if len(p) == 1)

    @property
    def starts(self) -> tuple[int, ...]:
        return tuple(p[0] for p in self.paths if len(p) >= 2)

    @property
    def ends(self) -> tuple[int, ...]:
        return tuple(p[-1] for p in self.paths if len(p) >= 2)

    @property
    def sum_squares(self) -> int:
        return sum(len(p) * len(p) for p in self.paths)

    def classes(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Split nodes into (isolated ones, all others), each sorted."""
        iso = set(self.isolated)
        w2 = tuple(x for x in range(self.n) if x not in iso)
        return tuple(sorted(iso)), w2


@dataclass(frozen=True)
class CoverStep:
    """One improvement step: optional rotations of the two involved
    paths, then a merge or unbalance between them.

    ``i`` and ``j`` index the normalized path list of the cover the step
    was found on.  For a merge, path i's end gains an arc to path j's
    start.  For an unbalance, path i is the receiving (not shorter) path
    and path j donates one endpoint.
    """

    op: str  # "merge", "unbalance_start" or "unbalance_end"
    i: int
    j: int
    rot_i: Optional[int] = None
    rot_j: Optional[int] = None


def _rotated(p: tuple[int, ...], cut: Optional[int]) -> tuple[int, ...]:
    if cut is None:
        return p
    return p[cut + 1 :] + p[: cut + 1]


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_UNBALANCE = ("unbalance_start", "unbalance_end")


class _CoverState:
    """A normalized cover updated in place step by step, with the masks
    the improvement scan reads.

    ``paths`` and ``keys`` are the normalized path list and its
    (length, smallest node) keys; keys are distinct, so a key's bisect
    position is its path index.  ``starts`` holds the first node of
    every path, ``ends`` the last node of every path with at least two
    nodes, ``iso`` the single-node paths, and ``key_of`` maps each of
    those endpoints to its path's key.
    """

    def __init__(self, sg: SpoilGraph, paths: Iterable[tuple[int, ...]]):
        self.out = sg.out_mask
        self.inn = sg.in_mask
        self.paths: list[tuple[int, ...]] = []
        self.keys: list[tuple[int, int]] = []
        self.key_of: dict[int, tuple[int, int]] = {}
        self.starts = self.ends = self.iso = 0
        for p in paths:
            self._add(p, min(p))

    @classmethod
    def isolated(cls, sg: SpoilGraph) -> "_CoverState":
        """The all-isolated cover, laid out directly in key order."""
        state = cls(sg, ())
        state.paths = [(x,) for x in range(sg.n)]
        state.keys = [(1, x) for x in range(sg.n)]
        state.key_of = dict(enumerate(state.keys))
        state.starts = state.iso = (1 << sg.n) - 1
        return state

    def _add(self, p: tuple[int, ...], lo: int) -> None:
        key = (len(p), lo)
        t = bisect_left(self.keys, key)
        self.keys.insert(t, key)
        self.paths.insert(t, p)
        self.starts |= 1 << p[0]
        self.key_of[p[0]] = key
        if len(p) == 1:
            self.iso |= 1 << p[0]
        else:
            self.ends |= 1 << p[-1]
            self.key_of[p[-1]] = key

    def _drop(self, t: int) -> None:
        p = self.paths.pop(t)
        self.keys.pop(t)
        self.starts ^= 1 << p[0]
        del self.key_of[p[0]]
        if len(p) == 1:
            self.iso ^= 1 << p[0]
        else:
            self.ends ^= 1 << p[-1]
            del self.key_of[p[-1]]

    def merge(self, i: int, j: int, pi: tuple[int, ...], pj: tuple[int, ...]) -> int:
        """Join path i, given as pi, to path j, given as pj (each the path
        or a rotation of it); return the increase of the sum of squared
        path lengths."""
        lo = min(self.keys[i][1], self.keys[j][1])
        self._drop(max(i, j))
        self._drop(min(i, j))
        p = pi + pj
        self._add(p, lo)
        return len(p) ** 2 - len(pi) ** 2 - len(pj) ** 2

    def apply(self, step: CoverStep) -> int:
        """Apply a step found by the unbalance or rotation stages; return
        the increase of the sum of squared path lengths."""
        i, j = step.i, step.j
        pi = _rotated(self.paths[i], step.rot_i)
        pj = _rotated(self.paths[j], step.rot_j)
        if step.op == "merge":
            return self.merge(i, j, pi, pj)
        if step.op == "unbalance_start":
            moved, new_i, new_j = pj[0], (pj[0],) + pi, pj[1:]
        else:
            moved, new_i, new_j = pj[-1], pi + (pj[-1],), pj[:-1]
        lo_i, lo_j = self.keys[i][1], self.keys[j][1]
        self._drop(max(i, j))
        self._drop(min(i, j))
        self._add(new_i, min(lo_i, moved))
        self._add(new_j, lo_j if moved != lo_j else min(new_j))
        return len(new_i) ** 2 + len(new_j) ** 2 - len(pi) ** 2 - len(pj) ** 2

    def _plain_merge(self) -> Optional[tuple[int, int]]:
        """The path indices (i, j) of the first plain merge, or None.

        Path j is the hit start with the least key.  Single-node paths
        have the least keys, in node order, so when any is hit, j is the
        one with the lowest node.
        """
        out, starts, iso = self.out, self.starts, self.iso
        for i, p in enumerate(self.paths):
            hits = out[p[-1]] & (starts ^ (1 << p[0]))
            if hits:
                single = hits & iso
                if single:
                    key = (1, (single & -single).bit_length() - 1)
                else:
                    key = min(map(self.key_of.__getitem__, _bits(hits)))
                return i, bisect_left(self.keys, key)
        return None

    def _plain_unbalance(self) -> Optional[CoverStep]:
        # Donors j need 2 <= len j <= len i, so i runs over the longer
        # paths, and the donors' starts and ends are gathered as the
        # length of path i grows.  No arc is a loop, so path i never hits
        # its own endpoints.
        paths, out, inn, key_of = self.paths, self.out, self.inn, self.key_of
        starts = ends = 0
        donor = first = bisect_left(self.keys, (2,))
        for i in range(first, len(paths)):
            p = paths[i]
            while donor < len(paths) and len(paths[donor]) <= len(p):
                starts |= 1 << paths[donor][0]
                ends |= 1 << paths[donor][-1]
                donor += 1
            into, onto = inn[p[0]] & starts, out[p[-1]] & ends
            if into or onto:
                hits = [(key_of[x], 0) for x in _bits(into)]
                key, case = min(hits + [(key_of[x], 1) for x in _bits(onto)])
                return CoverStep(op=_UNBALANCE[case], i=i, j=bisect_left(self.keys, key))
        return None

    def _rotated_step(self) -> Optional[CoverStep]:
        """The rotation stages, run only once both plain stages found
        nothing.

        A path that can rotate (one with its closing arc) can start and
        end at any of its nodes; any other path only at its own
        endpoints.  One walk over the paths masks each path's possible
        starts, and unions the arcs out of the ends and into the starts.
        A pair (i, j) can take a step with some cuts exactly when i's
        union meets j's possible endpoints: the only combination without
        a rotation is the plain one, which has no arc here.  A donor never
        rotates (see `_cut_unbalance`), so donors are the paths of two or
        more nodes that cannot, and as no arc is a loop none hits itself.
        Only the first pair that passes its test has its cuts searched,
        one by one in scan order.
        """
        paths, out, inn = self.paths, self.out, self.inn
        owner = [0] * len(out)
        first, out_reach, in_reach = [], [], []
        starts = ends = 0
        for t, p in enumerate(paths):
            for x in p:
                owner[x] = t
            s, e = p[0], p[-1]
            nodes, reach_out, reach_in = 0, out[e], inn[s]
            if len(p) >= 2 and (out[e] >> s) & 1:
                for x in p:
                    nodes |= 1 << x
                    reach_out |= out[x]
                    reach_in |= inn[x]
            elif len(p) >= 2:
                starts, ends = starts | 1 << s, ends | 1 << e
            first.append(nodes or 1 << s)
            out_reach.append(reach_out)
            in_reach.append(reach_in)

        all_first = sum(first)  # the masks are disjoint, so sum is union
        for i in range(len(paths)):
            hits = out_reach[i] & (all_first ^ first[i])
            if hits:
                j = min(owner[x] for x in _bits(hits))
                return self._cut_merge(i, j, first)

        for i in range(bisect_left(self.keys, (2,)), len(paths)):
            length = len(paths[i])
            hits = in_reach[i] & starts | out_reach[i] & ends
            donors = [owner[x] for x in _bits(hits) if len(paths[owner[x]]) <= length]
            if donors:
                j = min(donors)
                return self._cut_unbalance(i, j)
        return None

    def _cut_merge(self, i: int, j: int, first: list[int]) -> CoverStep:
        # Cut c ends path i at pi[c] and starts it at pi[c + 1], so cut -1
        # leaves it as it is; a start at position q of pj is cut q - 1.
        pi = self.paths[i]
        cuts = len(pi) - 1 if first[i].bit_count() > 1 else 0
        for ci in range(-1, cuts):
            hits = self.out[pi[ci]] & first[j]
            if hits:
                q = next(q for q, x in enumerate(self.paths[j]) if (hits >> x) & 1)
                rot_i, rot_j = None if ci < 0 else ci, None if q == 0 else q - 1
                return CoverStep(op="merge", i=i, j=j, rot_i=rot_i, rot_j=rot_j)
        raise PropositionViolatedError("rotated merge %d -> %d has no cuts" % (i, j))

    def _cut_unbalance(self, i: int, j: int) -> CoverStep:
        # Path j, the donor, never rotates: every node of a path that can
        # rotate is one of its possible starts and ends, so an arc between
        # it and path i that an unbalance could use would make a rotated
        # merge, and the merge stage found none.  So path i rotates, and
        # its cut c ends it at pi[c] and starts it at pi[c + 1].
        pi, pj = self.paths[i], self.paths[j]
        for ci in range(len(pi) - 1):
            if (self.inn[pi[ci + 1]] >> pj[0]) & 1:
                return CoverStep(op="unbalance_start", i=i, j=j, rot_i=ci)
            if (self.out[pi[ci]] >> pj[-1]) & 1:
                return CoverStep(op="unbalance_end", i=i, j=j, rot_i=ci)
        raise PropositionViolatedError("rotated unbalance %d <- %d has no cuts" % (i, j))


def maximal_path_cover(
    sg: SpoilGraph,
    initial: Optional[PathCover] = None,
    collect_log: bool = False,
) -> tuple[PathCover, Optional[list[CoverStep]]]:
    """Improve a cover until no merge or unbalance applies, rotations
    included.

    Starts from the all-isolated cover unless given one.  Each step is
    the first in scan order: plain merges, then plain unbalances, then
    merges that need rotating one or both involved paths, then
    unbalances likewise.  Within a stage the path indices run
    lexicographically and rotation cuts run no-rotation first.  This
    order is a contract: the step log and the certificates depend on it.

    Every step strictly increases the sum of squared path lengths, which
    is bounded by n^2, so the loop terminates.  The cover is updated in
    place between steps; the final one is rebuilt and validated in full.
    """
    if initial is None:
        state = _CoverState.isolated(sg)
    else:
        initial.validate_arcs(sg)
        state = _CoverState(sg, initial.paths)
    log: Optional[list[CoverStep]] = [] if collect_log else None
    max_iters = sg.n * sg.n + sg.n + 5
    for _ in range(max_iters):
        hit = state._plain_merge()
        if hit is not None:
            i, j = hit
            gain = state.merge(i, j, state.paths[i], state.paths[j])
            if log is not None:
                log.append(CoverStep(op="merge", i=i, j=j))
        else:
            step = state._plain_unbalance() or state._rotated_step()
            if step is None:
                final = PathCover.from_paths(sg.n, state.paths)
                final.validate_arcs(sg)
                return final, log
            gain = state.apply(step)
            if log is not None:
                log.append(step)
        if gain <= 0:
            raise PropositionViolatedError(
                "improvement step failed to increase the squared-length sum"
            )
    raise PropositionViolatedError("path cover improvement did not terminate")
