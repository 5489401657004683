"""Shared fixtures and brute-force oracles for the test suite.

The corpus is a fixed list of 50 instances drawn from every generator
family, all with n <= 14 so the exact adversary stays cheap.  The brute
helpers here are written independently of the production code paths they
check: the matching oracle is a bitmask DP, the adversary oracle is a
factorial sweep over arrival orders.  The reference cover scan tries
every path pair and rotation cut with one arc test each, in the scan
order that the production scan must reproduce step for step.  The
step functions apply a merge, unbalance, rotation or whole step by
rebuilding and revalidating the cover, and the maximality audit lists
every structural fact of a maximal cover that fails; the production
cover loop applies its steps in place and must reach the same covers.
``find_improvement`` reads the production scan as the first entry of
that loop's step log, so a cover is maximal when it returns None.
The reference arrival-order searches are the exhaustive memoised game
and the safety depth-first search; the engine must return their values,
orders and witnesses exactly.  The reference avoidability test builds
its rows from the definition in the `adversary` docstring, one vertex
at a time, and decides it by Hopcroft-Karp, so that the kernel, which
grows its rows and matching one vertex of the set at a time, is not
checked against itself.  The V-side oracle is the V-side process
of the lemma in the `adversary` docstring, a recursion over V in pi
order with sets for masks and no bound, so that the lemma can be
checked against the factorial sweep and the game.
The Gale-Shapley oracle runs deferred acceptance from either side, so
that greedy's matching can be checked to be the unique stable one; the
maximality and blocking-pair scans and the prefix counting bound check
single greedy runs against the paper's lemmas.
The reference graph reader checks each edge pair with a generator of
type tests, builds the graph from sorted edges with one set of edge
tuples, and sorts every adjacency list on its own; the one-pass reader
must accept the same documents, build the same graphs and fail with the
same messages.
The reference family dispatch is the if-chain over family names that the
family table replaced, and the reference planted pairing is the stub-swap
loop with tuple-keyed multiplicities and ``rng.randrange`` draws that the
planted generator must reproduce draw for draw.  The reference
experiment cell and Monte Carlo loop are the per-mode if-chains that the
attack table replaced; the tables must give the same graphs, rows,
summaries and errors.  The reference exponent report evaluates each
entropy term where its formula reads it; the report that evaluates each
named argument once must match it bit for bit.
The reference matching and arrival-order players are Hopcroft-Karp with a separate
breadth-first pass, the planted-set adversary that matches once per
added target, the gadget that builds one adjacency row per U-vertex,
and the local search and sampler that score each candidate with
greedy_match; the production code must return the same pairs, orders
and results, or fail with the same error.
"""

import collections
import itertools
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass

import pytest

from greedyorder import (
    BipartiteGraph,
    FamilySpec,
    Permutation,
    generate,
    greedy_match,
)
from greedyorder import families
from greedyorder.adversary import (
    AdversaryResult,
    adversary_biclique,
    adversary_planted_is,
    adversary_projective,
    adversary_regular_gadget,
    worst_order_exact,
    worst_order_heuristic,
)
from greedyorder.analysis import AnalysisParams, ExponentReport, MonteCarloSummary, entropy
from greedyorder.certify import build_certificate
from greedyorder.cli import CSV_COLUMNS
from greedyorder.core import GreedyOutcome, PerfectMatching, max_matching
from greedyorder.errors import (
    AnalysisParamError,
    DimensionMismatchError,
    FamilyShapeError,
    GenerationError,
    GreedyOrderError,
    HallInfeasibleError,
    InvalidGraphError,
    MissingArcError,
    PropositionViolatedError,
    SchemaError,
    UsageError,
)
from greedyorder.spoil import CoverStep, PathCover, SpoilGraph, maximal_path_cover


def _corpus_specs():
    specs = [("fig1", FamilySpec("fig1"))]
    for c in (1, 2, 3):
        specs.append(("chain%d" % c, FamilySpec("badset_chain", {"copies": c})))
    for d, t in ((1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2)):
        specs.append(("reg89_d%dt%d" % (d, t), FamilySpec("regular89", {"d": d, "t": t})))
    for d in range(2, 8):
        specs.append(("tight%d" % d, FamilySpec("tight_regular", {"d": d})))
    specs.append(("fano", FamilySpec("fano")))
    specs.append(("pg23", FamilySpec("pg23")))
    for n in (4, 6, 8, 10, 12, 14):
        specs.append(("biclique%d" % n, FamilySpec("biclique_half", {"n": n})))
    for i in range(4):
        specs.append(("iter%d" % i, FamilySpec("iterative", {"i": i})))
    ham = [(6, 2), (7, 3), (8, 4), (9, 3), (10, 5), (11, 4), (12, 6), (13, 5), (14, 7), (9, 0), (12, 0), (14, 0)]
    for idx, (n, extra) in enumerate(ham):
        specs.append(
            ("ham%02d" % idx, FamilySpec("hamiltonian_random", {"n": n, "extra_edges": extra}, seed=100 + idx))
        )
    rr = [(6, 2), (8, 3), (10, 3), (12, 4), (14, 4), (9, 3), (11, 3), (13, 4)]
    for idx, (n, d) in enumerate(rr):
        specs.append(("rr%02d" % idx, FamilySpec("random_regular", {"n": n, "d": d}, seed=200 + idx)))
    specs.append(("planted12", FamilySpec("planted_is", {"n": 12, "d": 3, "eps": 0.34}, seed=7)))
    specs.append(("planted14", FamilySpec("planted_is", {"n": 14, "d": 4, "eps": 0.3}, seed=8)))
    return specs


CORPUS_SPECS = _corpus_specs()


@dataclass(frozen=True)
class Instance:
    instance_id: str
    spec: FamilySpec
    graph: BipartiteGraph


@pytest.fixture(scope="session")
def corpus():
    return [Instance(name, spec, generate(spec)) for name, spec in CORPUS_SPECS]


@pytest.fixture(scope="session")
def corpus_by_id(corpus):
    return {inst.instance_id: inst for inst in corpus}


def brute_force_min(g, pi):
    """Smallest greedy matched count over every arrival order.  Factorial."""
    assert g.n <= 8, "brute sweep is factorial"
    best = g.n + 1
    for order in itertools.permutations(range(g.n)):
        best = min(best, greedy_match(g, Permutation.from_order(order), pi).size)
        if best == 0:
            break
    return best


def brute_max_matching_size(adj, n_right):
    """Maximum matching size by bitmask DP over right-side subsets."""
    rows = [sum(1 << v for v in nb) for nb in adj]

    memo = {}

    def go(i, used):
        if i == len(rows):
            return 0
        key = (i, used)
        if key in memo:
            return memo[key]
        best = go(i + 1, used)
        free = rows[i] & ~used
        while free:
            bit = free & -free
            free ^= bit
            best = max(best, 1 + go(i + 1, used | bit))
        memo[key] = best
        return best

    return go(0, 0)


def reference_max_matching(adj, n_right):
    """Hopcroft-Karp with a deque breadth-first pass that hands its
    layers to the depth-first pass through a function attribute."""
    n_left = len(adj)
    adj_l = [tuple(a) for a in adj]
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    INF = n_left + n_right + 1

    def bfs():
        dist = [INF] * n_left
        q = collections.deque()
        for i in range(n_left):
            if match_l[i] == -1:
                dist[i] = 0
                q.append(i)
        found = False
        while q:
            i = q.popleft()
            for j in adj_l[i]:
                k = match_r[j]
                if k == -1:
                    found = True
                elif dist[k] == INF:
                    dist[k] = dist[i] + 1
                    q.append(k)
        bfs.dist = dist
        return found

    def dfs(i):
        dist = bfs.dist
        for j in adj_l[i]:
            k = match_r[j]
            if k == -1 or (dist[k] == dist[i] + 1 and dfs(k)):
                match_l[i] = j
                match_r[j] = i
                return True
        dist[i] = INF
        return False

    while bfs():
        for i in range(n_left):
            if match_l[i] == -1:
                dfs(i)
    return [(i, match_l[i]) for i in range(n_left) if match_l[i] != -1]


def _reference_by_partner(pairs, rank):
    return [u for u, v in sorted(pairs, key=lambda uv: rank[uv[1]])]


def reference_regular_gadget(pi, d, t):
    """The gadget adversary with one adjacency row built per U-vertex."""
    if d < 1 or t < 1:
        raise FamilyShapeError("d and t must be positive")
    n = 3 * d * t
    if len(pi) != n:
        raise FamilyShapeError("pi has %d entries, expected %d" % (len(pi), n))
    rank = pi.rank
    order = []
    for c in range(t):
        base = 3 * d * c
        copy_v = sorted(range(base, base + 3 * d), key=lambda v: rank[v])
        high, target = copy_v[: 2 * d], copy_v[2 * d :]
        hits = [sum(1 for v in target if (v - base) // d == b) for b in range(3)]
        b_star = hits.index(max(hits))
        other_u = [u for u in range(base, base + 3 * d) if (u - base) // d != b_star]
        adj = [
            [j for j, v in enumerate(high) if (v - base) // d != (u - base) // d]
            for u in other_u
        ]
        pairs = reference_max_matching(adj, len(high))
        if len(pairs) != len(other_u):
            raise PropositionViolatedError("block matching onto the high set must be perfect")
        planned = [(other_u[i], high[j]) for i, j in pairs]
        order.extend(_reference_by_partner(planned, rank))
        order.extend(range(base + b_star * d, base + (b_star + 1) * d))
    return Permutation.from_order(order)


def reference_planted_is(g, pi):
    """The planted-set adversary that runs one maximum matching per
    padding target it adds."""
    n = g.n
    if not g.params or "planted_size" not in g.params:
        raise FamilyShapeError("planted_size not given and absent from graph params")
    planted_size = int(g.params["planted_size"])
    if not (0 <= planted_size <= n // 2):
        raise FamilyShapeError("planted_size %d out of range" % planted_size)
    rank = pi.rank
    outside = list(range(planted_size, n))
    reach = {v for u in outside for v in g.adj_u[u]}
    q_cut = n - planted_size
    targets = sorted(v for v in reach if rank[v] < q_cut)
    extra = sorted(
        (v for v in reach if rank[v] >= q_cut and v >= planted_size),
        key=lambda v: rank[v],
    )
    next_extra = 0
    while True:
        pos = {v: i for i, v in enumerate(targets)}
        adj = [[pos[v] for v in g.adj_u[u] if v in pos] for u in outside]
        pairs = reference_max_matching(adj, len(targets))
        if len(pairs) == len(outside):
            break
        if next_extra == len(extra):
            raise HallInfeasibleError(
                "non-planted U-side cannot be matched away from the planted targets"
            )
        targets.append(extra[next_extra])
        next_extra += 1
    planned = [(outside[i], targets[j]) for i, j in pairs]
    order = _reference_by_partner(planned, rank)
    order.extend(range(planted_size))
    return Permutation.from_order(order)


def reference_heuristic(g, pi, iters=10_000, seed=0):
    """The local search scoring every candidate by greedy_match's size."""
    rng = random.Random(seed)
    n = g.n

    def evaluate(order):
        return greedy_match(g, Permutation.from_order(order), pi).size

    cur = list(range(n))
    rng.shuffle(cur)
    cur_val = evaluate(cur)
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
        val = evaluate(cand)
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
            cur_val = evaluate(cur)
            if cur_val < best_val:
                best, best_val = cur[:], cur_val
            stale = 0
    return AdversaryResult(
        sigma=Permutation.from_order(best), size=best_val, exact=False, nodes_expanded=iters
    )


def reference_sampled(g, pi, draws=100, seed=0):
    """The sampler scoring every draw with greedy_match."""
    rng = random.Random(seed)
    best, best_val = None, g.n + 1
    for _ in range(draws):
        order = list(range(g.n))
        rng.shuffle(order)
        sigma = Permutation.from_order(order)
        val = greedy_match(g, sigma, pi).size
        if val < best_val:
            best, best_val = sigma, val
    return AdversaryResult(sigma=best, size=best_val, exact=False, nodes_expanded=draws)


class LengthOrderViolatedError(GreedyOrderError):
    """An unbalance step was asked to move a vertex onto a shorter path."""


def trivial_cover(n: int) -> PathCover:
    return PathCover.from_paths(n, [(i,) for i in range(n)])


def apply_rotation(cover: PathCover, sg: SpoilGraph, idx: int, cut: int) -> PathCover:
    """Rotate path idx at cut position; needs the closing arc end -> start.

    The new path is ``p[cut+1:] + p[:cut+1]`` for cut in 0..len-2.
    """
    p = cover.paths[idx]
    if len(p) < 2:
        raise InvalidGraphError("cannot rotate a single-node path")
    if not (0 <= cut <= len(p) - 2):
        raise InvalidGraphError("cut %d out of range for path of length %d" % (cut, len(p)))
    if not sg.has_arc(p[-1], p[0]):
        raise MissingArcError("rotation needs closing arc %d -> %d" % (p[-1], p[0]))
    rotated = p[cut + 1 :] + p[: cut + 1]
    paths = list(cover.paths)
    paths[idx] = rotated
    return PathCover.from_paths(cover.n, paths)


def apply_merge(cover: PathCover, sg: SpoilGraph, i: int, j: int) -> PathCover:
    """Concatenate path j after path i using the arc end(i) -> start(j)."""
    if i == j:
        raise InvalidGraphError("merge needs two distinct paths")
    pi, pj = cover.paths[i], cover.paths[j]
    if not sg.has_arc(pi[-1], pj[0]):
        raise MissingArcError("merge needs arc %d -> %d" % (pi[-1], pj[0]))
    paths = [p for t, p in enumerate(cover.paths) if t not in (i, j)]
    paths.append(pi + pj)
    return PathCover.from_paths(cover.n, paths)


def apply_unbalance(cover: PathCover, sg: SpoilGraph, i: int, j: int, mode: str) -> PathCover:
    """Move one endpoint of path j onto path i.

    Requires len(path i) >= len(path j) >= 2; moving the only node of a
    single-node path is a merge, not an unbalance.  Mode "start" moves
    path j's first node to the front of path i (arc taken: that node to
    path i's first).  Mode "end" moves path j's last node to the back of
    path i (arc taken: path i's last to that node).
    """
    if i == j:
        raise InvalidGraphError("unbalance needs two distinct paths")
    pi, pj = cover.paths[i], cover.paths[j]
    if len(pj) < 2:
        raise LengthOrderViolatedError("donor path must have at least 2 nodes")
    if len(pi) < len(pj):
        raise LengthOrderViolatedError(
            "receiving path (len %d) shorter than donor (len %d)" % (len(pi), len(pj))
        )
    if mode == "start":
        moved = pj[0]
        if not sg.has_arc(moved, pi[0]):
            raise MissingArcError("unbalance needs arc %d -> %d" % (moved, pi[0]))
        new_i = (moved,) + pi
        new_j = pj[1:]
    elif mode == "end":
        moved = pj[-1]
        if not sg.has_arc(pi[-1], moved):
            raise MissingArcError("unbalance needs arc %d -> %d" % (pi[-1], moved))
        new_i = pi + (moved,)
        new_j = pj[:-1]
    else:
        raise InvalidGraphError("unknown unbalance mode %r" % (mode,))
    paths = [p for t, p in enumerate(cover.paths) if t not in (i, j)]
    paths.extend([new_i, new_j])
    return PathCover.from_paths(cover.n, paths)


def apply_step(cover: PathCover, sg: SpoilGraph, step: CoverStep) -> PathCover:
    """Apply a CoverStep: rotations first, then the operation.

    Rotations change path endpoints but keep the normalized position of
    each path (length and node set are unchanged), so the indices stay
    valid between the two phases.
    """
    work = cover
    if step.rot_i is not None:
        work = apply_rotation(work, sg, step.i, step.rot_i)
    if step.rot_j is not None:
        work = apply_rotation(work, sg, step.j, step.rot_j)
    if step.op == "merge":
        return apply_merge(work, sg, step.i, step.j)
    if step.op == "unbalance_start":
        return apply_unbalance(work, sg, step.i, step.j, "start")
    if step.op == "unbalance_end":
        return apply_unbalance(work, sg, step.i, step.j, "end")
    raise InvalidGraphError("unknown op %r" % (step.op,))


def verify_maximality_conditions(cover: PathCover, sg: SpoilGraph) -> list[str]:
    """Check the structural facts that hold for every maximal cover.

    Paths are indexed in normalized order, isolated ones first.  Returns
    human-readable descriptions of violated facts (empty when all hold):

    1. an end t of a longer path has no arc into an isolated node or a
       start, except to the start of its own path;
    2. no arc from the end of a later (not shorter) path to the end of an
       earlier longer path;
    3. no arc from an isolated node to a start;
    4. no arc between two distinct isolated nodes;
    5. no arc from the start of an earlier longer path to the start of a
       later (not shorter) one.
    """
    issues: list[str] = []
    k = cover.k
    paths = cover.paths
    p = len(paths)
    iso = cover.isolated
    starts = {paths[a][0]: a for a in range(k, p)}

    for a in range(k, p):
        t = paths[a][-1]
        for q in iso:
            if sg.has_arc(t, q):
                issues.append("end %d of path %d has arc to isolated %d" % (t, a, q))
        for s, b in starts.items():
            if b != a and sg.has_arc(t, s):
                issues.append("end %d of path %d has arc to start %d of path %d" % (t, a, s, b))

    for b in range(k, p):
        for a in range(k, b):
            if sg.has_arc(paths[b][-1], paths[a][-1]):
                issues.append(
                    "arc between ends %d -> %d of paths %d, %d" % (paths[b][-1], paths[a][-1], b, a)
                )

    for q in iso:
        for s in starts:
            if sg.has_arc(q, s):
                issues.append("arc from isolated %d to start %d" % (q, s))

    for q1 in iso:
        for q2 in iso:
            if q1 != q2 and sg.has_arc(q1, q2):
                issues.append("arc between isolated nodes %d -> %d" % (q1, q2))

    for a in range(k, p):
        for b in range(a + 1, p):
            if sg.has_arc(paths[a][0], paths[b][0]):
                issues.append(
                    "arc between starts %d -> %d of paths %d, %d" % (paths[a][0], paths[b][0], a, b)
                )

    return issues


def _rotations_of(cover, sg, idx):
    """Available rotation cuts for path idx, with None (no rotation) first."""
    p = cover.paths[idx]
    opts = [None]
    if len(p) >= 2 and sg.has_arc(p[-1], p[0]):
        opts.extend(range(len(p) - 1))
    return opts


def _rotated(p, cut):
    if cut is None:
        return p
    return p[cut + 1 :] + p[: cut + 1]


def reference_find_improvement(cover, sg):
    """The improvement scan written as plain nested loops over path
    pairs and rotation cuts, with one arc test each.

    Scan order: plain merges, then plain unbalances, then merges that
    need rotating one or both involved paths, then unbalances likewise.
    Within a stage the path indices run lexicographically and rotation
    cuts run no-rotation first.
    """
    paths = cover.paths
    p = len(paths)

    for i in range(p):
        for j in range(p):
            if i != j and sg.has_arc(paths[i][-1], paths[j][0]):
                return CoverStep(op="merge", i=i, j=j)

    for i in range(p):
        for j in range(p):
            if i == j or len(paths[i]) < len(paths[j]) or len(paths[j]) < 2:
                continue
            if sg.has_arc(paths[j][0], paths[i][0]):
                return CoverStep(op="unbalance_start", i=i, j=j)
            if sg.has_arc(paths[i][-1], paths[j][-1]):
                return CoverStep(op="unbalance_end", i=i, j=j)

    rot_opts = [_rotations_of(cover, sg, idx) for idx in range(p)]

    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            for ci in rot_opts[i]:
                pi = _rotated(paths[i], ci)
                for cj in rot_opts[j]:
                    if ci is None and cj is None:
                        continue
                    pj = _rotated(paths[j], cj)
                    if sg.has_arc(pi[-1], pj[0]):
                        return CoverStep(op="merge", i=i, j=j, rot_i=ci, rot_j=cj)

    for i in range(p):
        for j in range(p):
            if i == j or len(paths[i]) < len(paths[j]) or len(paths[j]) < 2:
                continue
            for ci in rot_opts[i]:
                pi = _rotated(paths[i], ci)
                for cj in rot_opts[j]:
                    if ci is None and cj is None:
                        continue
                    pj = _rotated(paths[j], cj)
                    if sg.has_arc(pj[0], pi[0]):
                        return CoverStep(op="unbalance_start", i=i, j=j, rot_i=ci, rot_j=cj)
                    if sg.has_arc(pi[-1], pj[-1]):
                        return CoverStep(op="unbalance_end", i=i, j=j, rot_i=ci, rot_j=cj)

    return None


def reference_maximal_path_cover(sg, initial=None):
    """Replay the reference scan with apply_step, which rebuilds and
    revalidates the whole cover after every step.  Returns (cover, log)."""
    cover = initial if initial is not None else trivial_cover(sg.n)
    log = []
    while True:
        step = reference_find_improvement(cover, sg)
        if step is None:
            return cover, log
        cover = apply_step(cover, sg, step)
        log.append(step)


def find_improvement(cover, sg):
    """The step the production scan takes first from cover, or None when
    the cover is maximal: the first entry of maximal_path_cover's log."""
    log = maximal_path_cover(sg, cover, collect_log=True)[1]
    return log[0] if log else None


class _ReferenceMinGame:
    """Memoized recursive DFS minimizing the number of greedy matches
    that fall in count_mask, with no bound: every state is expanded.

    Works in rank space, absorbs dead arrivals, branches once per
    distinct free-neighbor mask in ascending arrival label, and replays
    the first branch whose memoized value equals its state's.
    """

    def __init__(self, adj_rank, n, count_mask):
        self.adj = list(adj_rank)
        self.n = n
        self.count_mask = count_mask
        self.nodes = 0
        self.memo = {}
        self.full = (1 << n) - 1

    def _branches(self, u_mask, v_mask):
        dead, branches, seen = [], [], set()
        for u in range(self.n):
            if u_mask >> u & 1:
                continue
            m = self.adj[u] & ~v_mask
            if m == 0:
                dead.append(u)
            elif m not in seen:
                seen.add(m)
                branches.append((u, m & -m))
        return dead, branches

    def value(self, u_mask=0, v_mask=0):
        key = (u_mask, v_mask)
        if key in self.memo:
            return self.memo[key]
        self.nodes += 1
        dead, branches = self._branches(u_mask, v_mask)
        base_u = u_mask | sum(1 << u for u in dead)
        best = 0 if not branches else self.n + 1
        for u, v_bit in branches:
            gain = 1 if v_bit & self.count_mask else 0
            best = min(best, gain + self.value(base_u | 1 << u, v_mask | v_bit))
        self.memo[key] = best
        return best

    def replay(self):
        order, u_mask, v_mask = [], 0, 0
        while True:
            state_val = self.memo[(u_mask, v_mask)]
            dead, branches = self._branches(u_mask, v_mask)
            order.extend(dead)
            u_mask |= sum(1 << u for u in dead)
            if not branches:
                return order
            for u, v_bit in branches:
                gain = 1 if v_bit & self.count_mask else 0
                if gain + self.memo[(u_mask | 1 << u, v_mask | v_bit)] == state_val:
                    order.append(u)
                    u_mask |= 1 << u
                    v_mask |= v_bit
                    break


def reference_min_game(g, pi, v_subset):
    """(minimum matched count inside v_subset, replayed order, states)."""
    rank = pi.rank
    adj = [sum(1 << rank[v] for v in g.adj_u[u]) for u in range(g.n)]
    game = _ReferenceMinGame(adj, g.n, sum(1 << rank[v] for v in set(v_subset)))
    value = game.value()
    return value, game.replay(), game.nodes


def reference_v_side_min(g, pi, v_subset):
    """The least number of v_subset vertices matched, by the plain V-side
    recursion of the `adversary` module docstring, unbounded and
    recursive: V goes in pi order, and each vertex with a free neighbour
    takes one of them, every choice tried."""
    counted = set(v_subset)
    memo = {}

    def f(i, free):
        if i == g.n:
            return 0
        key = (i, free)
        if key not in memo:
            v = pi.order[i]
            takers = [u for u in g.adj_v[v] if u in free]
            if takers:
                memo[key] = (v in counted) + min(f(i + 1, free - {u}) for u in takers)
            else:
                memo[key] = f(i + 1, free)
        return memo[key]

    return f(0, frozenset(range(g.n)))


def reference_avoiding(adj, t_mask, left, free):
    """(rows, avoidable): the avoidability test of the `adversary`
    docstring at the state with the arrivals `left` and the `free` V,
    from its definition.  adj holds each U vertex's neighbours as rank
    bits.  Each arrival u of `left` with a free neighbour in t_mask gets
    the row of the free vertices outside t_mask that rank below every
    free neighbour of u in t_mask, as {1 << u: rank mask}; the set is
    avoidable when core.max_matching matches every such arrival into its
    row."""
    rows = {}
    for u, row in enumerate(adj):
        if not left >> u & 1:
            continue
        near = [r for r in range(row.bit_length()) if row >> r & 1 and free >> r & 1]
        in_t = [r for r in near if t_mask >> r & 1]
        if in_t:
            rows[1 << u] = sum(1 << r for r in near if r < min(in_t))
    lists = [[r for r in range(m.bit_length()) if m >> r & 1] for m in rows.values()]
    width = max((m.bit_length() for m in rows.values()), default=0)
    return rows, len(max_matching(lists, width)) == len(rows)


def reference_is_safe(g, pi, s):
    """(safe, witness order or None) by the Hall pre-checks and a
    recursive DFS over arrival prefixes that never gives an arrival a
    vertex of s; the witness is the first such order in DFS order."""
    n = g.n
    s_list = sorted(set(s))
    if not s_list:
        return True, None
    s_set = set(s_list)
    for u in range(n):
        nb = g.adj_u[u]
        if nb and all(v in s_set for v in nb):
            return True, None
    if len({u for v in s_list for u in g.adj_v[v]}) > n - len(s_list):
        return True, None
    rank = pi.rank
    by_rank = [sorted(g.adj_u[u], key=lambda v: rank[v]) for u in range(n)]
    adj_mask = [sum(1 << v for v in g.adj_u[u]) for u in range(n)]
    s_mask = sum(1 << v for v in s_list)
    full = (1 << n) - 1
    failed = set()
    seq = []

    def dfs(u_mask, v_mask):
        added = 0
        for u in range(n):
            if not (u_mask >> u & 1) and adj_mask[u] & ~v_mask == 0:
                u_mask |= 1 << u
                seq.append(u)
                added += 1
        if u_mask == full:
            return True
        key = (u_mask, v_mask)
        if key not in failed:
            seen = set()
            for u in range(n):
                if u_mask >> u & 1:
                    continue
                rest = adj_mask[u] & ~v_mask
                if rest in seen:
                    continue
                seen.add(rest)
                v = next(w for w in by_rank[u] if not v_mask >> w & 1)
                if s_mask >> v & 1:
                    continue
                seq.append(u)
                if dfs(u_mask | (1 << u), v_mask | (1 << v)):
                    return True
                seq.pop()
            failed.add(key)
        if added:
            del seq[-added:]
        return False

    if dfs(0, 0):
        return False, seq
    return True, None


@dataclass(frozen=True)
class PrefixStats:
    """Counts produced by check_prefix_bound."""

    k: int
    matched_in_prefix: int
    matched_outside_partners: int
    bound: float


def check_prefix_bound(
    g: BipartiteGraph,
    m: PerfectMatching,
    pi: Permutation,
    sigma: Permutation,
    k: int,
) -> PrefixStats:
    """Verify the prefix counting bound for the first k vertices under pi.

    Let ell be how many of those k vertices end up matched to U vertices
    outside their own partner set.  Then at least ell + (k - ell) / 2 of
    the k prefix vertices are matched.  Raises PropositionViolatedError
    if the bound fails (it never should; that would be a bug).
    """
    if not (0 <= k <= g.n):
        raise DimensionMismatchError("k=%d out of range for n=%d" % (k, g.n))
    out = greedy_match(g, sigma, pi)
    prefix = pi.order[:k]
    u_of_v = m.u_of_v
    partner_us = {u_of_v[v] for v in prefix}
    matched = 0
    ell = 0
    for v in prefix:
        u = out.matched_u_of_v[v]
        if u is not None:
            matched += 1
            if u not in partner_us:
                ell += 1
    bound = ell + (k - ell) / 2.0
    if matched < bound:
        raise PropositionViolatedError(
            "prefix bound failed: matched=%d < %.1f (k=%d, ell=%d)" % (matched, bound, k, ell)
        )
    return PrefixStats(k=k, matched_in_prefix=matched, matched_outside_partners=ell, bound=bound)


def verify_maximal(g: BipartiteGraph, outcome: GreedyOutcome) -> bool:
    """Independent scan: no edge may have both endpoints unmatched."""
    for u in range(g.n):
        if outcome.matched_v_of_u[u] is None:
            for v in g.adj_u[u]:
                if outcome.matched_u_of_v[v] is None:
                    return False
    return True


def verify_stability(
    g: BipartiteGraph, sigma: Permutation, pi: Permutation, outcome: GreedyOutcome
) -> bool:
    """Independent blocking-pair scan.

    U vertices prefer neighbors of lower pi rank, V vertices prefer
    neighbors of lower sigma rank.  Returns False if some edge (u, v)
    not in the outcome has both endpoints preferring each other.
    """
    ru, rv = sigma.rank, pi.rank
    for u in range(g.n):
        mu = outcome.matched_v_of_u[u]
        for v in g.adj_u[u]:
            if mu == v:
                continue
            u_wants = mu is None or rv[v] < rv[mu]
            if not u_wants:
                continue
            mv = outcome.matched_u_of_v[v]
            v_wants = mv is None or ru[u] < ru[mv]
            if v_wants:
                return False
    return True


def _deferred_acceptance(prefs, prefers):
    """Deferred acceptance with incomplete lists: prefs[p] lists the
    proposer's acceptable receivers best first, and prefers(r, a, b)
    tells whether receiver r prefers proposer a to b.  Returns the held
    proposal of every receiver that holds one."""
    held = {}
    tried = [0] * len(prefs)
    waiting = list(range(len(prefs)))
    while waiting:
        p = waiting.pop()
        if tried[p] == len(prefs[p]):
            continue
        r = prefs[p][tried[p]]
        tried[p] += 1
        rival = held.get(r)
        if rival is None:
            held[r] = p
        elif prefers(r, p, rival):
            held[r] = p
            waiting.append(rival)
        else:
            waiting.append(p)
    return held


def reference_gale_shapley(g, sigma, pi, proposing):
    """Stable matching of g when every U ranks its neighbours by pi and
    every V ranks its neighbours by sigma, by Gale-Shapley with side
    `proposing` ("u" or "v") proposing.  Returns the V partner of each
    U, or None, in the layout of GreedyOutcome.matched_v_of_u."""
    mu = [None] * g.n
    if proposing == "u":
        prefs = [sorted(g.adj_u[u], key=lambda v: pi.rank[v]) for u in range(g.n)]
        held = _deferred_acceptance(prefs, lambda v, a, b: sigma.rank[a] < sigma.rank[b])
        for v, u in held.items():
            mu[u] = v
    else:
        prefs = [sorted(g.adj_v[v], key=lambda u: sigma.rank[u]) for v in range(g.n)]
        held = _deferred_acceptance(prefs, lambda u, a, b: pi.rank[a] < pi.rank[b])
        for u, v in held.items():
            mu[u] = v
    return tuple(mu)


def reference_from_edges(n, edges, family=None, params=None):
    """Graph from edges with a set of edge tuples for the duplicate check;
    it names the first fault in input order."""
    if n < 1:
        raise InvalidGraphError("n must be at least 1, got %r" % (n,))
    adj_u = [[] for _ in range(n)]
    adj_v = [[] for _ in range(n)]
    seen = set()
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidGraphError("edge (%r, %r) out of range for n=%d" % (u, v, n))
        if (u, v) in seen:
            raise InvalidGraphError("duplicate edge (%d, %d)" % (u, v))
        seen.add((u, v))
        adj_u[u].append(v)
        adj_v[v].append(u)
    return BipartiteGraph(
        n=n,
        adj_u=tuple(tuple(sorted(a)) for a in adj_u),
        adj_v=tuple(tuple(sorted(a)) for a in adj_v),
        family=family,
        params=params,
    )


def _schema_fail(where, message):
    return SchemaError("%s: %s" % (where, message))


def reference_pair_list(value, n, key, where):
    """Pair-list check with one generator of type tests per entry."""
    if not isinstance(value, list):
        raise _schema_fail(where, "field %r must be a list of [u, v] pairs" % key)
    out = []
    for idx, item in enumerate(value):
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
        ):
            raise _schema_fail(where, "field %r entry %d is not an [u, v] integer pair" % (key, idx))
        u, v = item
        if not (0 <= u < n and 0 <= v < n):
            raise _schema_fail(where, "field %r entry %d out of range for n=%d" % (key, idx, n))
        out.append((u, v))
    return out


def reference_graph_from_doc(doc, where="graph"):
    """``io.graph_from_doc`` built on the two references above, with the
    edges sorted before the graph is built."""
    if not isinstance(doc, dict):
        raise _schema_fail(where, "document must be an object")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise _schema_fail(where, "field %r must be an integer, got %r" % ("n", n))
    if n < 1:
        raise _schema_fail(where, "field 'n' must be positive")
    edges = reference_pair_list(doc.get("edges"), n, "edges", where)
    family = doc.get("family")
    if family is not None and not isinstance(family, str):
        raise _schema_fail(where, "field 'family' must be a string")
    params = doc.get("params")
    if params is not None and not isinstance(params, dict):
        raise _schema_fail(where, "field 'params' must be an object")
    matching = None
    if "matching" in doc:
        matching = reference_pair_list(doc["matching"], n, "matching", where)
        if sorted(u for u, _ in matching) != list(range(n)) or sorted(
            v for _, v in matching
        ) != list(range(n)):
            raise _schema_fail(where, "field 'matching' is not a perfect matching on both sides")
        non_edges = [idx for idx, pair in enumerate(matching) if pair not in edges]
        if non_edges:
            raise _schema_fail(where, "field 'matching' pair %d is not an edge" % non_edges[0])
    g = reference_from_edges(n, sorted(edges), family=family, params=params)
    return g, matching


Edge = tuple[int, int]


def reference_planted_pairing(n: int, d: int, s: int, rng: random.Random) -> list[int]:
    """``families._planted_pairing`` as the plain stub-swap loop: tuple-keyed
    multiplicities, ``rng.randrange`` draws, and every tried swap applied
    and then undone.  Stub assignment avoiding duplicate edges and the
    forbidden block.

    assign[i] is the right vertex paired with left stub i (stub i belongs
    to left vertex i // d).  A swap of two stub targets changes exactly
    two edges, so violations are re-counted locally.
    """
    stubs = n * d

    def edge_viol(e: Edge, c: int) -> int:
        if c <= 0:
            return 0
        extra = c - 1
        if e[0] < s and e[1] < s:
            extra += c
        return extra

    for _restart in range(50):
        assign = [v for v in range(n) for _ in range(d)]
        rng.shuffle(assign)
        mult: dict[Edge, int] = {}
        for i, v in enumerate(assign):
            e = (i // d, v)
            mult[e] = mult.get(e, 0) + 1

        def apply(e: Edge, dc: int) -> int:
            c0 = mult.get(e, 0)
            c1 = c0 + dc
            if c1:
                mult[e] = c1
            else:
                mult.pop(e, None)
            return edge_viol(e, c1) - edge_viol(e, c0)

        total = sum(edge_viol(e, c) for e, c in mult.items())
        for _step in range(200 * stubs):
            if total == 0:
                return assign
            i = rng.randrange(stubs)
            ei = (i // d, assign[i])
            if edge_viol(ei, mult[ei]) == 0:
                continue
            j = rng.randrange(stubs)
            if i == j or assign[i] == assign[j]:
                continue
            ej = (j // d, assign[j])
            ni = (i // d, assign[j])
            nj = (j // d, assign[i])
            delta = apply(ei, -1) + apply(ej, -1) + apply(ni, 1) + apply(nj, 1)
            if delta < 0 or (delta == 0 and rng.random() < 0.2):
                assign[i], assign[j] = assign[j], assign[i]
                total += delta
            else:
                apply(nj, -1)
                apply(ni, -1)
                apply(ej, 1)
                apply(ei, 1)
        if total == 0:
            return assign
    raise GenerationError("rejection budget exceeded while repairing the pairing")


def _reference_spec_param(spec, key, *aliases):
    for k in (key,) + aliases:
        if k in spec.params:
            return spec.params[k]
    raise GenerationError(
        "family %r requires parameter %r" % (spec.family, key)
    )


def reference_generate(spec):
    """``families.generate`` as the if-chain it was before the family table."""
    fam = spec.family
    if fam == "fig1":
        return families.gen_fig1()
    if fam == "badset_chain":
        return families.gen_badset_chain(int(_reference_spec_param(spec, "copies", "i")))
    if fam == "regular89":
        return families.gen_regular89(
            int(_reference_spec_param(spec, "d")), int(_reference_spec_param(spec, "t"))
        )
    if fam == "tight_regular":
        return families.gen_tight_regular(int(_reference_spec_param(spec, "d")))
    if fam == "fano":
        return families.gen_fano()
    if fam == "pg23":
        return families.gen_pg23()
    if fam == "hamiltonian_random":
        return families.gen_hamiltonian_random(
            int(_reference_spec_param(spec, "n")),
            int(_reference_spec_param(spec, "extra_edges")),
            spec.seed,
        )
    if fam == "random_regular":
        return families.gen_random_regular(
            int(_reference_spec_param(spec, "n")), int(_reference_spec_param(spec, "d")), spec.seed
        )
    if fam == "biclique_half":
        return families.gen_biclique_half(int(_reference_spec_param(spec, "n")))
    if fam == "planted_is":
        return families.gen_planted_is(
            int(_reference_spec_param(spec, "n")),
            int(_reference_spec_param(spec, "d")),
            float(_reference_spec_param(spec, "eps")),
            spec.seed,
        )
    if fam == "iterative":
        return families.gen_iterative(int(_reference_spec_param(spec, "i")))
    raise GenerationError("unknown family %r" % (fam,))


def perfbench_specs(*names):
    """Every distinct family spec that the benchmark's workloads (those
    named, or all) generate, over all variants, in full and smoke size."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    seen = {}
    for name, workload in workloads.WORKLOADS.items():
        if names and name not in names:
            continue
        for variant in range(workloads.POOL):
            for smoke in (False, True):
                for inst in workload.instances(variant, smoke):
                    key = (inst["family"], repr(sorted(inst["params"].items())), inst["seed"])
                    seen.setdefault(
                        key, FamilySpec(inst["family"], inst["params"], seed=inst["seed"])
                    )
    return list(seen.values())


@pytest.fixture(scope="session")
def built_specs():
    """Every corpus and benchmark spec with its graph, or with the
    GenerationError it raises, generated once for the session."""
    out = []
    for spec in [spec for _, spec in CORPUS_SPECS] + perfbench_specs():
        try:
            out.append((spec, generate(spec)))
        except GenerationError as exc:
            out.append((spec, exc))
    return out


def reference_experiment_cell(config, idx, spec, method, row_seed):
    """One experiment row, with the per-mode attack chain of the
    experiment runner before the attack table."""
    t0 = time.perf_counter()
    row = {col: "" for col in CSV_COLUMNS}
    row["instance_id"] = "%s-%03d" % (spec.family, idx)
    row["family"] = spec.family
    row["construction"] = method
    row["seed"] = row_seed
    try:
        g = reference_generate(spec)
        row["n"] = g.n
        cert = build_certificate(g, method)
        row["certified_count"] = cert.guaranteed_count
        row["fraction"] = "%d/%d" % (
            cert.guaranteed_fraction.numerator,
            cert.guaranteed_fraction.denominator,
        )
        adv = config.adversary
        if adv.mode == "exact":
            res = worst_order_exact(g, cert.pi, budget=adv.budget)
            a_min, a_exact, nodes = res.size, res.exact, res.nodes_expanded
        elif adv.mode == "heuristic":
            res = worst_order_heuristic(g, cert.pi, iters=adv.iters, seed=row_seed)
            a_min, a_exact, nodes = res.size, False, res.nodes_expanded
        else:
            rng = random.Random(row_seed)
            a_min = g.n + 1
            for _ in range(config.trials):
                order = list(range(g.n))
                rng.shuffle(order)
                a_min = min(a_min, greedy_match(g, Permutation.from_order(order), cert.pi).size)
            a_exact, nodes = False, config.trials
        row["adversary_min"] = a_min
        row["adversary_exact"] = "true" if a_exact else "false"
        row["nodes_expanded"] = nodes
        if a_exact and cert.guaranteed_count > a_min:
            row["error"] = "soundness violation: certified %d > exact minimum %d" % (
                cert.guaranteed_count,
                a_min,
            )
    except GreedyOrderError as exc:
        row["error"] = "%s: %s" % (type(exc).__name__, exc)
    row["runtime_ms"] = int(round((time.perf_counter() - t0) * 1000))
    return row


def reference_experiment_rows(config):
    cells = []
    row_index = 0
    for idx, spec in enumerate(config.instances):
        for method in config.methods:
            row_seed = config.seed * 1_000_003 + row_index
            cells.append((idx, spec, method, row_seed))
            row_index += 1
    return [reference_experiment_cell(config, *c) for c in cells]


def _reference_constructive_sigma(g, pi):
    family = g.family
    params = g.params or {}
    if family == "regular89":
        return adversary_regular_gadget(pi, int(params["d"]), int(params["t"]))
    if family == "fano":
        return adversary_projective(g, pi, 2)
    if family == "pg23":
        return adversary_projective(g, pi, 3)
    if family == "biclique_half":
        return adversary_biclique(pi, g.n)
    if family == "planted_is":
        return adversary_planted_is(g, pi)
    raise FamilyShapeError("no constructive adversary for family %r" % (family,))


def reference_monte_carlo(g, trials, adversary_mode="exact", seed=0, budget=10_000_000, iters=4000):
    """``analysis.monte_carlo_random_pi`` with its per-mode chain from
    before the attack table."""
    if trials < 1:
        raise AnalysisParamError("trials must be positive")
    if adversary_mode not in ("exact", "heuristic", "constructive"):
        raise UsageError("unknown adversary mode %r" % (adversary_mode,))
    n = g.n
    sizes = []
    upper_only = adversary_mode != "exact"
    for trial in range(trials):
        trial_seed = seed * 1_000_003 + trial
        rng = random.Random(trial_seed)
        order = list(range(n))
        rng.shuffle(order)
        pi = Permutation.from_order(order)
        if adversary_mode == "exact":
            res = worst_order_exact(g, pi, budget=budget)
            if not res.exact:
                upper_only = True
            sizes.append(res.size)
        elif adversary_mode == "heuristic":
            sizes.append(worst_order_heuristic(g, pi, iters=iters, seed=trial_seed).size)
        else:
            sigma = _reference_constructive_sigma(g, pi)
            sizes.append(greedy_match(g, sigma, pi).size)
    fractions = [sz / n for sz in sizes]
    return MonteCarloSummary(
        trials=trials,
        mean_size=statistics.fmean(sizes),
        min_size=min(sizes),
        mean_fraction=statistics.fmean(fractions),
        min_fraction=min(fractions),
        stddev_fraction=statistics.pstdev(fractions),
        upper_bound_only=upper_only,
    )


def reference_bound_exponents(params: AnalysisParams) -> ExponentReport:
    """``analysis.bound_exponents`` as it stood before each entropy
    argument was evaluated once; the production code must return the same
    floats bit for bit and raise the same errors."""
    rho, rho_bar = params.rho, params.rho_bar
    eps, alpha, beta, delta = params.eps, params.alpha, params.beta, params.delta
    if beta * rho_bar <= alpha * rho:
        raise AnalysisParamError("need beta/alpha > rho/rho_bar for the order bound")
    if rho_bar <= alpha:
        raise AnalysisParamError("alpha must stay below rho_bar")
    arguments = {
        "2*eps/rho_bar": 2 * eps / rho_bar,
        "2*eps/rho": 2 * eps / rho,
        "alpha+beta": alpha + beta,
        "alpha/rho_bar": alpha / rho_bar,
        "beta/rho": beta / rho,
        "delta/alpha": delta / alpha,
        "delta/(1-alpha)": delta / (1 - alpha),
        "delta/(rho_bar-alpha)": delta / (rho_bar - alpha),
    }
    for name, value in arguments.items():
        if not (0 <= value <= 1):
            raise AnalysisParamError("entropy argument %s = %s outside [0, 1]" % (name, value))

    badset = float(rho_bar) * entropy(float(2 * eps / rho_bar)) + float(rho) * entropy(
        float(2 * eps / rho)
    )
    order = -(
        entropy(float(alpha + beta))
        - entropy(float(alpha / rho_bar)) * float(rho_bar)
        - entropy(float(beta / rho)) * float(rho)
    )
    literal = (
        -entropy(float(alpha / rho_bar))
        + float(alpha) * entropy(float(delta / alpha))
        + float(1 - alpha) * entropy(float(delta / (1 - alpha)))
    ) * float(rho_bar)
    a = alpha / rho_bar
    dd = delta / rho_bar
    rescaled = (
        -entropy(float(a))
        + float(a) * entropy(float(dd / a))
        + float(1 - a) * entropy(float(dd / (1 - a)))
    ) * float(rho_bar)
    return ExponentReport(
        params=params,
        badset_exp=badset,
        order_exp=order,
        expansion_exp_literal=literal,
        expansion_exp_rescaled=rescaled,
        combined_order=badset + order,
        combined_expansion=badset + min(literal, rescaled),
        flags=params.flags(),
    )


def outcome(fn, *args, **kwargs):
    """A call's result, or the class and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return (type(exc), str(exc))


def random_pm_graph(rng, n, extra=None):
    """Graph containing the identity perfect matching plus random edges."""
    edges = {(i, i) for i in range(n)}
    pool = [(u, v) for u in range(n) for v in range(n) if u != v]
    if extra is None:
        extra = rng.randrange(0, max(1, n * (n - 1) // 2))
    for u, v in rng.sample(pool, min(extra, len(pool))):
        edges.add((u, v))
    return BipartiteGraph.from_edges(n, sorted(edges))


def random_perm(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    return Permutation.from_order(order)


# Acceptance reporting: each criterion test records one line here and the
# terminal summary prints them, so the run log carries an explicit
# PASS/FAIL verdict per criterion even when pytest captures stdout.
ACCEPTANCE_LINES = []


def record_acceptance(num, label, ok, detail=""):
    ACCEPTANCE_LINES.append((num, label, bool(ok), detail))


def line_count(*parts):
    """Newline count of the *.py files in a directory under the repo
    root, as `wc -l` gives it.  src/greedyorder is the size that ROADMAP
    aim 2 tracks; tests is printed beside it, so that code moved from
    one to the other shows as a move."""
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, *parts)
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                total += fh.read().count("\n")
    return total


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("acceptance criteria")
    for num, label, ok, detail in sorted(ACCEPTANCE_LINES):
        line = "criterion %02d  %-34s %s" % (num, label, "PASS" if ok else "FAIL")
        if detail:
            line += "   [%s]" % detail
        terminalreporter.write_line(line)
    terminalreporter.write_line("src/greedyorder/*.py: %d lines" % line_count("src", "greedyorder"))
    terminalreporter.write_line("tests/*.py: %d lines" % line_count("tests"))
