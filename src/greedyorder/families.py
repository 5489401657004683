"""Generators for the bipartite graph families used across the package.

Every generator returns a ``BipartiteGraph`` tagged with its family name
and parameters, validates its own structure before returning, and is
deterministic given identical parameters and seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Mapping

from .core import BipartiteGraph
from .errors import GenerationError, PropositionViolatedError

Edge = tuple[int, int]

# Four-by-four gadget with exactly two bad sets of size two, {v0,v1} and
# {v0,v2}.  Frozen from an exhaustive scan of all 2^16 bipartite graphs on
# 4+4 vertices: this is the first graph (in ascending edge-bitmask order)
# with a perfect matching such that
#   * arrival order (u0,u1,u2,u3) under priority (v3,v2,v1,v0) leaves
#     v0 and v1 unmatched, and
#   * some arrival order under priority (v3,v1,v2,v0) leaves v0 and v2
#     unmatched (the witness (u1,u2,u0,u3) is checked in the tests), and
#   * no other pair of right vertices can ever be left unmatched.
# No 4x4 graph admits both traces with u0,u1 arriving first in each; the
# second trace is therefore pinned only up to the choice of arrival order.
# The generator does not recheck these facts: the tests replay both
# traces, and acceptance criterion 09 finds exactly these two bad pairs.
GADGET4_EDGES: tuple[Edge, ...] = (
    (0, 1),
    (0, 3),
    (1, 0),
    (1, 1),
    (1, 2),
    (2, 2),
    (2, 3),
    (3, 3),
)


def _check_regular(g: BipartiteGraph, d: int) -> None:
    """Raise PropositionViolatedError unless every vertex has degree d."""
    for side, adj in (("U", g.adj_u), ("V", g.adj_v)):
        for x, a in enumerate(adj):
            if len(a) != d:
                raise PropositionViolatedError(
                    "%s vertex %d of %s has degree %d, not %d" % (side, x, g.family, len(a), d)
                )


def gen_fig1() -> BipartiteGraph:
    """Six-cycle on 3+3 vertices; the smallest graph where order matters."""
    edges = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)]
    return BipartiteGraph.from_edges(3, edges, family="fig1", params={})


def gen_regular89(d: int, t: int) -> BipartiteGraph:
    """t disjoint copies of the three-block 2d-regular gadget.

    Each copy has blocks U_0,U_1,U_2 and V_0,V_1,V_2 of size d with a
    complete bipartite graph between U_i and V_j exactly when i != j.
    """
    if d < 1 or t < 1:
        raise GenerationError("d and t must be positive")
    edges: list[Edge] = []
    for c in range(t):
        base = 3 * d * c
        for bi in range(3):
            for bj in range(3):
                if bi == bj:
                    continue
                for u in range(base + bi * d, base + (bi + 1) * d):
                    for v in range(base + bj * d, base + (bj + 1) * d):
                        edges.append((u, v))
    g = BipartiteGraph.from_edges(3 * d * t, edges, family="regular89", params={"d": d, "t": t})
    _check_regular(g, 2 * d)
    return g


def gen_tight_regular(d: int) -> BipartiteGraph:
    """d-regular graph on n = 2d-1 whose worst maximal matching has size d.

    The first d-1 vertices of each side form blocks S and T with no edges
    between them; the remaining d vertices carry a private perfect
    matching and are complete to the opposite block.
    """
    if d < 1:
        raise GenerationError("d must be positive")
    n = 2 * d - 1
    edges = []
    for i in range(d):
        edges.append((d - 1 + i, d - 1 + i))
    for u in range(d - 1, n):
        for v in range(d - 1):
            edges.append((u, v))
    for u in range(d - 1):
        for v in range(d - 1, n):
            edges.append((u, v))
    g = BipartiteGraph.from_edges(n, edges, family="tight_regular", params={"d": d})
    _check_regular(g, d)
    return g


FANO_LINES: tuple[tuple[int, int, int], ...] = (
    (0, 1, 2),
    (0, 3, 4),
    (0, 5, 6),
    (1, 3, 5),
    (1, 4, 6),
    (2, 3, 6),
    (2, 4, 5),
)


def gen_fano() -> BipartiteGraph:
    """Point-line incidence graph of the 7-point projective plane."""
    edges = [(p, i) for i, line in enumerate(FANO_LINES) for p in line]
    g = BipartiteGraph.from_edges(7, edges, family="fano", params={})
    _audit_plane(g, order=2)
    return g


def _pg23_points() -> list[tuple[int, int, int]]:
    pts = []
    for x in range(3):
        for y in range(3):
            for z in range(3):
                if (x, y, z) == (0, 0, 0):
                    continue
                lead = x if x else (y if y else z)
                if lead == 1:
                    pts.append((x, y, z))
    return pts


def gen_pg23() -> BipartiteGraph:
    """Point-line incidence graph of the projective plane of order 3.

    Points and lines are both represented by the 13 projective triples
    over GF(3) normalized to leading coordinate 1; a point lies on a line
    when their dot product vanishes mod 3.
    """
    pts = _pg23_points()
    edges = []
    for i, p in enumerate(pts):
        for j, line in enumerate(pts):
            if sum(a * b for a, b in zip(p, line)) % 3 == 0:
                edges.append((i, j))
    g = BipartiteGraph.from_edges(13, edges, family="pg23", params={})
    _audit_plane(g, order=3)
    return g


def _audit_plane(g: BipartiteGraph, order: int) -> None:
    """Check the projective plane axioms the adversaries depend on."""
    q = order
    n = q * q + q + 1
    if g.n != n:
        raise PropositionViolatedError("plane of order %d has n=%d, not %d" % (q, g.n, n))
    _check_regular(g, q + 1)
    for p1 in range(n):
        for p2 in range(p1 + 1, n):
            common = set(g.adj_u[p1]) & set(g.adj_u[p2])
            if len(common) != 1:
                raise PropositionViolatedError(
                    "points %d and %d share %d lines, not 1" % (p1, p2, len(common))
                )


def gen_biclique_half(n: int) -> BipartiteGraph:
    """Two perfect matchings joined by a complete graph on one quadrant.

    The first half of U is matched to the first half of V and fully
    connected to the second half of V; the second half of U sees only its
    own matched partner.
    """
    if n < 2 or n % 2 != 0:
        raise GenerationError("n must be even and at least 2")
    h = n // 2
    edges = [(j, j) for j in range(n)]
    for u in range(h):
        for v in range(h, n):
            edges.append((u, v))
    return BipartiteGraph.from_edges(n, edges, family="biclique_half", params={"n": n})


def gen_badset_chain(copies: int) -> BipartiteGraph:
    """Disjoint copies of the frozen 4x4 gadget.

    Each copy contributes two bad pairs, so `copies` copies yield
    2^copies bad sets of size 2*copies (one pair chosen per copy).
    """
    if copies < 1:
        raise GenerationError("copies must be positive")
    edges = []
    for c in range(copies):
        base = 4 * c
        edges.extend((base + u, base + v) for u, v in GADGET4_EDGES)
    return BipartiteGraph.from_edges(
        4 * copies, edges, family="badset_chain", params={"copies": copies}
    )


def gen_iterative(i: int) -> BipartiteGraph:
    """Doubling family: two copies of the previous graph plus cross edges.

    Level 0 is a single edge.  Level i joins u_j of the first copy to v_j
    of the second copy for every j, giving n = 2^i.
    """
    if i < 0:
        raise GenerationError("i must be nonnegative")
    edges: list[Edge] = [(0, 0)]
    size = 1
    for _ in range(i):
        shifted = [(u + size, v + size) for u, v in edges]
        cross = [(j, j + size) for j in range(size)]
        edges = edges + shifted + cross
        size *= 2
    g = BipartiteGraph.from_edges(size, edges, family="iterative", params={"i": i})
    for j in range(size):
        pc = bin(j).count("1")
        if len(g.adj_u[j]) != 1 + (i - pc) or len(g.adj_v[j]) != 1 + pc:
            raise PropositionViolatedError("iterative i=%d: vertex %d has wrong degrees" % (i, j))
    return g


def gen_hamiltonian_random(n: int, extra_edges: int, seed: int) -> BipartiteGraph:
    """Alternating 2n-cycle plus uniformly chosen distinct chords."""
    if n < 2:
        raise GenerationError("n must be at least 2")
    if extra_edges < 0:
        raise GenerationError("extra_edges must be nonnegative")
    cycle = {(i, i) for i in range(n)} | {(i, (i + 1) % n) for i in range(n)}
    # Row u of the sorted chord list holds every v but u and u + 1 (mod n).
    # Sampling chord numbers and decoding them draws the same chords as
    # sampling the listed chords, without building the n^2 list.
    row = n - 2
    if extra_edges > n * row:
        raise GenerationError(
            "extra_edges %d exceeds the %d available chords" % (extra_edges, n * row)
        )
    rng = random.Random(seed)
    chords = []
    for t in rng.sample(range(n * row), extra_edges):
        u, v = divmod(t, row)
        lo, hi = sorted((u, (u + 1) % n))
        v += v >= lo
        v += v >= hi
        chords.append((u, v))
    return BipartiteGraph.from_edges(
        n,
        sorted(cycle) + sorted(chords),
        family="hamiltonian_random",
        params={"n": n, "extra_edges": extra_edges, "seed": seed},
    )


def gen_random_regular(n: int, d: int, seed: int) -> BipartiteGraph:
    """Union of d random perfect matchings, resampled until simple.

    A disjoint matching always exists while d <= n (the complement of the
    partial union is regular, hence has a perfect matching), but the k-th
    shuffle avoids the k - 1 earlier matchings only with probability
    about e^-(k-1).  The 10000 tries per matching therefore run out at a
    degree that depends on n and the seed: at n=100, d=9 generates and
    gen_random_regular(100, 10, 1) raises GenerationError, while at
    n=1000, d=11 generates for seed 1 and d=12 raises for seed 2.
    ROADMAP item 7 plans a sampler for every degree.
    """
    if n < 1 or not (1 <= d <= n):
        raise GenerationError("need n >= 1 and 1 <= d <= n")
    rng = random.Random(seed)
    edges: set[Edge] = set()
    for _ in range(d):
        for _attempt in range(10000):
            perm = list(range(n))
            rng.shuffle(perm)
            if all((u, perm[u]) not in edges for u in range(n)):
                edges.update((u, perm[u]) for u in range(n))
                break
        else:
            raise GenerationError("rejection budget exceeded while drawing matchings")
    g = BipartiteGraph.from_edges(
        n, sorted(edges), family="random_regular", params={"n": n, "d": d, "seed": seed}
    )
    _check_regular(g, d)
    return g


def gen_planted_is(n: int, d: int, eps: float, seed: int) -> BipartiteGraph:
    """Random d-regular graph with an empty block between planted sets.

    The first s = floor((1-eps)n/2) vertices of each side form blocks S
    (left) and T (right) with no S-T edges.  A random stub pairing is
    repaired by violation-reducing stub swaps until it is simple and
    avoids the forbidden block exactly.
    """
    if n < 1 or d < 1:
        raise GenerationError("n and d must be positive")
    if not (0.0 < eps < 1.0):
        raise GenerationError("eps must lie strictly between 0 and 1")
    s = int(math.floor((1.0 - eps) * n / 2.0 + 1e-9))
    if d > n - s:
        raise GenerationError(
            "d=%d too large: planted vertices have only %d allowed partners" % (d, n - s)
        )
    rng = random.Random(seed)
    assign = _planted_pairing(n, d, s, rng)
    edges = sorted((i // d, v) for i, v in enumerate(assign))
    g = BipartiteGraph.from_edges(
        n,
        edges,
        family="planted_is",
        params={
            "n": n,
            "d": d,
            "eps": eps,
            "seed": seed,
            "planted_size": s,
            "degree_spread": (d, d),
        },
    )
    _check_regular(g, d)
    if any(v < s for u in range(s) for v in g.adj_u[u]):
        raise PropositionViolatedError("planted block of size %d has an edge" % s)
    return g


def _planted_pairing(n: int, d: int, s: int, rng: random.Random) -> list[int]:
    """Stub assignment avoiding duplicate edges and the forbidden block.

    assign[i] is the right vertex paired with left stub i (stub i belongs
    to left vertex i // d).  An edge of multiplicity c counts c - 1
    violations, plus c if both its ends are planted.  Each step draws a
    stub and, if its edge is a violation, a second stub to swap targets
    with; the swap is kept when it lowers the violation count, and with
    probability 0.2 when it keeps it.

    The draws are those of ``rng.randrange(stubs)``, made as
    ``Random._randbelow_with_getrandbits`` makes them, and of
    ``rng.random()``, in the same order, so a seed gives the same pairing
    as the plain loop in the tests.
    """
    stubs = n * d
    getrandbits, random_ = rng.getrandbits, rng.random
    k = stubs.bit_length()
    # Edge (u, v) is keyed u * n + v, so stub t's edge is row[t] + assign[t].
    # The first planted_stubs stubs belong to planted left vertices.
    row = [t // d * n for t in range(stubs)]
    planted_stubs = s * d
    for _restart in range(50):
        assign = [v for v in range(n) for _ in range(d)]
        rng.shuffle(assign)
        mult: dict[int, int] = {}
        for r, v in zip(row, assign):
            mult[r + v] = mult.get(r + v, 0) + 1
        # clean[t]: stub t's edge is simple and outside the planted block.
        clean = bytearray(
            mult[row[t] + v] == 1 and (t >= planted_stubs or v >= s)
            for t, v in enumerate(assign)
        )
        # Each stub on a forbidden edge adds one violation.
        total = sum(c - 1 for c in mult.values())
        total += sum(v < s for v in assign[:planted_stubs])
        if total == 0:
            return assign
        for _step in range(200 * stubs):
            i = getrandbits(k)
            while i >= stubs:
                i = getrandbits(k)
            if clean[i]:
                continue
            j = getrandbits(k)
            while j >= stubs:
                j = getrandbits(k)
            a, b = assign[i], assign[j]
            if i == j or a == b:
                continue
            ri, rj = row[i], row[j]
            if ri == rj:
                # One left vertex: the swap leaves every edge as it is.
                if random_() < 0.2:
                    assign[i], assign[j] = b, a
                    clean[i], clean[j] = clean[j], clean[i]
                continue
            # Four distinct edges: (ui, a) and (uj, b) lose a stub, (ui, b)
            # and (uj, a) gain one.
            ci, cj, ni, nj = mult[ri + a], mult[rj + b], ri + b, rj + a
            delta = (mult.get(ni, 0) > 0) + (mult.get(nj, 0) > 0) - (ci > 1) - (cj > 1)
            delta += ((i < planted_stubs) - (j < planted_stubs)) * ((b < s) - (a < s))
            if delta < 0 or (delta == 0 and random_() < 0.2):
                mult[ri + a] = ci - 1
                mult[rj + b] = cj - 1
                mult[ni] = mult.get(ni, 0) + 1
                mult[nj] = mult.get(nj, 0) + 1
                assign[i], assign[j] = b, a
                total += delta
                if total == 0:
                    return assign
                # The four edges are edges of ui and uj: refresh their stubs.
                for lo in (i - i % d, j - j % d):
                    for t in range(lo, lo + d):
                        v = assign[t]
                        clean[t] = mult[row[t] + v] == 1 and (t >= planted_stubs or v >= s)
    raise GenerationError("rejection budget exceeded while repairing the pairing")


@dataclass(frozen=True)
class FamilySpec:
    """A reproducible recipe: family name, parameter map, seed.

    params accepts the keys each family needs (n, d, t, i, extra_edges,
    eps, copies); badset_chain reads its copy count from "copies" or,
    interchangeably, "i".  Identical specs generate identical graphs.
    """

    family: str
    params: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0


def _strict_int(value: object) -> int:
    """int(value), but ValueError for a bool or a number with a fraction."""
    if isinstance(value, bool) or (not isinstance(value, (int, str)) and int(value) != value):
        raise ValueError("%r is not an integer" % (value,))
    return int(value)


def derived_seed(seed: int, index: int) -> int:
    """The seed of the index-th instance, row or trial under a master seed."""
    return seed * 1_000_003 + index


# Each family's generator and its arguments in call order: a params key
# with its cast and any aliases, then the spec's seed if `seeded`.
_FAMILY_TABLE = {
    "fig1": (gen_fig1, (), False),
    "badset_chain": (gen_badset_chain, ((int, "copies", "i"),), False),
    "regular89": (gen_regular89, ((int, "d"), (int, "t")), False),
    "tight_regular": (gen_tight_regular, ((int, "d"),), False),
    "fano": (gen_fano, (), False),
    "pg23": (gen_pg23, (), False),
    "hamiltonian_random": (gen_hamiltonian_random, ((int, "n"), (int, "extra_edges")), True),
    "random_regular": (gen_random_regular, ((int, "n"), (int, "d")), True),
    "biclique_half": (gen_biclique_half, ((int, "n"),), False),
    "planted_is": (gen_planted_is, ((int, "n"), (int, "d"), (float, "eps")), True),
    "iterative": (gen_iterative, ((int, "i"),), False),
}
FAMILIES = tuple(_FAMILY_TABLE)


def generate(spec: FamilySpec) -> BipartiteGraph:
    """Build the graph a FamilySpec describes."""
    # Membership by equality: an unhashable name is unknown, not a TypeError.
    if spec.family not in FAMILIES:
        raise GenerationError("unknown family %r" % (spec.family,))
    gen, params, seeded = _FAMILY_TABLE[spec.family]
    args = []
    for cast, *keys in params:
        key = next((k for k in keys if k in spec.params), None)
        if key is None:
            raise GenerationError("family %r requires parameter %r" % (spec.family, keys[0]))
        value = spec.params[key]
        try:
            args.append(_strict_int(value) if cast is int else cast(value))
        except (TypeError, ValueError, OverflowError) as exc:
            msg = "family %r parameter %r must be %s, got %r"
            raise GenerationError(msg % (spec.family, key, cast.__name__, value)) from exc
    if seeded:
        args.append(spec.seed)
    return gen(*args)
