"""Certified priority orders and the guarantee selector.

Four constructions turn a maximal path cover of the conflict digraph
into a priority order pi over V together with a count of vertices that
greedy matches under every arrival order sigma.  The selector evaluates
all four and keeps the best; its guaranteed fraction never drops below
1/2 + 1/86, which is also proved here to be the exact optimum of a small
min-max linear program, by a checked point and dual weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    BipartiteGraph,
    Permutation,
    align_with_matching,
    find_perfect_matching,
    max_matching,
)
from .errors import PropositionViolatedError, UsageError
from .spoil import PathCover, SpoilGraph, _bits, build_spoiling_graph, maximal_path_cover

__all__ = [
    "EpsilonParams",
    "BoundCertificate",
    "CONSTRUCTIONS",
    "compute_eps",
    "compute_m12",
    "order_sort1",
    "order_sort2",
    "order_m12",
    "order_large_m12",
    "guarantee_sort1",
    "guarantee_sort2",
    "guarantee_m12",
    "guarantee_large_m12",
    "build_theorem1",
    "build_certificate",
    "GUARANTEE_FLOOR",
    "selector_forms",
    "selector_value_at",
    "selector_lp_optimum",
    "selector_dual_certificate",
]

GUARANTEE_FLOOR = Fraction(1, 2) + Fraction(1, 86)


@dataclass(frozen=True)
class EpsilonParams:
    """Exact structural parameters of a maximal cover.

    eps1 = 1/2 - k/n, eps2 = (p - k)/n, eps3 = 1/2 - m12/n, where k
    counts isolated nodes, p counts paths and m12 is the largest
    matching using only arcs from isolated nodes into longer paths.
    """

    n: int
    k: int
    p: int
    m12: int
    eps1: Fraction
    eps2: Fraction
    eps3: Fraction


def compute_m12(cover: PathCover, sg: SpoilGraph) -> int:
    """Largest matching using only arcs from isolated nodes to longer-path
    nodes."""
    w1, w2 = cover.classes()
    pos = {w: t for t, w in enumerate(w2)}
    adj = [[pos[j] for j in _bits(sg.out_mask[q]) if j in pos] for q in w1]
    return len(max_matching(adj, len(w2)))


def compute_eps(cover: PathCover, sg: SpoilGraph) -> EpsilonParams:
    n, k, p, m12 = cover.n, cover.k, cover.p, compute_m12(cover, sg)
    return EpsilonParams(
        n=n,
        k=k,
        p=p,
        m12=m12,
        eps1=Fraction(1, 2) - Fraction(k, n),
        eps2=Fraction(p - k, n),
        eps3=Fraction(1, 2) - Fraction(m12, n),
    )


def _starts_reversed(cover: PathCover) -> list[int]:
    """Starts of the longer paths, longest path first."""
    return [cover.paths[a][0] for a in range(cover.p - 1, cover.k - 1, -1)]


def _suffix(n: int, prefix: Sequence[int]) -> list[int]:
    used = set(prefix)
    return [x for x in range(n) if x not in used]


def order_sort1(cover: PathCover, n: int) -> Permutation:
    """Priority order whose first 2p - k vertices are always matched.

    Prefix: starts of longer paths (longest first), then the isolated
    nodes, then ends of longer paths (shortest first).  Remaining
    vertices follow in ascending index; only the prefix carries the
    guarantee.  Requires a maximal cover.
    """
    k, p = cover.k, cover.p
    prefix = (
        _starts_reversed(cover)
        + [cover.paths[a][0] for a in range(k)]
        + [cover.paths[a][-1] for a in range(k, p)]
    )
    if len(prefix) != 2 * p - k:
        raise PropositionViolatedError("sort1 prefix has %d vertices, not 2p - k" % len(prefix))
    return Permutation.from_order(prefix + _suffix(n, prefix))


def guarantee_sort1(cover: PathCover) -> int:
    return 2 * cover.p - cover.k


def _sort2_halves(cover: PathCover) -> tuple[list[int], list[int]]:
    """Split all non-first path vertices into two near-equal halves.

    Each longer path drops its first vertex; the rest alternate into an
    "odd" part (walk positions 1, 3, ...) and an "even" part.  The
    larger part of each path goes to whichever half is currently
    smaller, which keeps the halves within one of each other; a final
    swap makes the first half the smaller one.
    """
    half_a: list[int] = []
    half_b: list[int] = []
    for a in range(cover.k, cover.p):
        body = cover.paths[a][1:]
        big, small = list(body[0::2]), list(body[1::2])
        if len(half_a) <= len(half_b):
            half_a.extend(big)
            half_b.extend(small)
        else:
            half_b.extend(big)
            half_a.extend(small)
    if len(half_a) > len(half_b):
        half_a, half_b = half_b, half_a
    return half_a, half_b


def order_sort2(cover: PathCover, n: int) -> Permutation:
    """Priority order from the alternating split of path interiors.

    Prefix: starts of longer paths (longest first), then isolated nodes,
    then the smaller half, then the larger half.  Requires a maximal
    cover.
    """
    k, p = cover.k, cover.p
    prefix = _starts_reversed(cover) + [cover.paths[a][0] for a in range(k)]
    half_small, half_big = _sort2_halves(cover)
    if len(half_small) != (n - p) // 2:
        raise PropositionViolatedError("sort2 smaller half has %d vertices" % len(half_small))
    order = prefix + half_small + half_big
    if len(order) != n:
        raise PropositionViolatedError("sort2 order has %d of %d vertices" % (len(order), n))
    return Permutation.from_order(order)


def guarantee_sort2(cover: PathCover) -> int:
    return (5 * cover.n - cover.p + 8) // 9


def _longer_walk_order(cover: PathCover) -> list[int]:
    out: list[int] = []
    for a in range(cover.k, cover.p):
        out.extend(cover.paths[a])
    return out


def order_m12(cover: PathCover, n: int) -> Permutation:
    """All longer-path vertices before all isolated ones.

    Longer paths appear in normalized order, each in walk order, then
    the isolated nodes in ascending index.  Requires a maximal cover.
    """
    order = _longer_walk_order(cover) + list(cover.isolated)
    if len(order) != n:
        raise PropositionViolatedError("m12 order has %d of %d vertices" % (len(order), n))
    return Permutation.from_order(order)


def guarantee_m12(cover: PathCover, m12: int) -> int:
    n, k = cover.n, cover.k
    return k + (n - k - m12 + 1) // 2


def order_large_m12(cover: PathCover, n: int) -> Permutation:
    """All isolated vertices before all longer-path ones; otherwise the
    mirror of order_m12.  Requires a maximal cover."""
    order = list(cover.isolated) + _longer_walk_order(cover)
    if len(order) != n:
        raise PropositionViolatedError("large m12 order has %d of %d vertices" % (len(order), n))
    return Permutation.from_order(order)


def guarantee_large_m12(cover: PathCover, m12: int) -> int:
    n, k = cover.n, cover.k
    return (n + k + m12 + 2) // 3


@dataclass(frozen=True)
class BoundCertificate:
    """A priority order with its certified matched-count guarantee."""

    pi: Permutation
    construction: str
    guaranteed_count: int
    guaranteed_fraction: Fraction
    eps: EpsilonParams


# The four ordering rules, in the selector's tie order: each name maps
# to its guaranteed count on a maximal cover, as a function of the cover
# and m12, and to its order function.
_RULES = {
    "sort1": (lambda cover, m12: guarantee_sort1(cover), order_sort1),
    "sort2": (lambda cover, m12: guarantee_sort2(cover), order_sort2),
    "m12_order": (guarantee_m12, order_m12),
    "large_m12_order": (guarantee_large_m12, order_large_m12),
}
CONSTRUCTIONS = (*_RULES, "theorem1")


def build_certificate(g: BipartiteGraph, construction: str = "theorem1") -> BoundCertificate:
    """Certify g with one named construction, or the selector.

    Finds a perfect matching, relabels V so it is the identity, builds
    the conflict digraph and grows a maximal path cover.  The selector
    ("theorem1") then keeps the rule with the largest guarantee, ties
    resolved in the listed order, and checks the 1/2 + 1/86 floor.  A
    single named construction carries no floor on its fraction; it may
    be dominated on the given instance.  The returned pi is over the
    original V labels.
    """
    if construction not in CONSTRUCTIONS:
        raise UsageError("unknown construction %r" % (construction,))
    aligned, v_map = align_with_matching(g, find_perfect_matching(g))
    sg = build_spoiling_graph(aligned)
    cover, _ = maximal_path_cover(sg)
    eps = compute_eps(cover, sg)
    selector = construction == "theorem1"
    counts = {r: _RULES[r][0](cover, eps.m12) for r in (_RULES if selector else (construction,))}
    name = max(counts, key=counts.__getitem__)
    count = counts[name]
    pi = Permutation.from_order([v_map[x] for x in _RULES[name][1](cover, g.n).order])
    fraction = Fraction(count, g.n)
    if selector and fraction < GUARANTEE_FLOOR:
        raise PropositionViolatedError(
            "selector produced fraction %s below the %s floor" % (fraction, GUARANTEE_FLOOR)
        )
    return BoundCertificate(
        pi=pi,
        construction=name,
        guaranteed_count=count,
        guaranteed_fraction=fraction,
        eps=eps,
    )


def build_theorem1(g: BipartiteGraph) -> BoundCertificate:
    """Certify a priority order for g with fraction at least 1/2 + 1/86."""
    return build_certificate(g, "theorem1")


# --- exact min-max program over the four guarantee forms -----------------

# Each form as (constant, coefficient of eps1, of eps2, of eps3).
_FORMS: tuple[tuple[Fraction, Fraction, Fraction, Fraction], ...] = (
    (Fraction(1, 2), Fraction(-1), Fraction(2), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 9), Fraction(-1, 9), Fraction(0)),
    (Fraction(1, 2), Fraction(-1, 2), Fraction(0), Fraction(1, 2)),
    (Fraction(2, 3), Fraction(-1, 3), Fraction(0), Fraction(-1, 3)),
)


def selector_forms(
    e1: Fraction, e2: Fraction, e3: Fraction
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The four guaranteed fractions as linear forms of the eps values."""
    return tuple(c + a1 * e1 + a2 * e2 + a3 * e3 for c, a1, a2, a3 in _FORMS)  # type: ignore[return-value]


def selector_value_at(e1: Fraction, e2: Fraction, e3: Fraction) -> Fraction:
    return max(selector_forms(e1, e2, e3))


# The attaining point (eps1, eps2, eps3) of the min-max program.
_SELECTOR_OPTIMUM = (Fraction(19, 86), Fraction(5, 43), Fraction(21, 86))


def selector_lp_optimum() -> tuple[Fraction, tuple[Fraction, Fraction, Fraction]]:
    """Exact minimum over eps2, eps3 >= 0 (eps1 free) of the largest of
    the four forms, with a point that attains it.

    The point is checked feasible and its value is checked equal to the
    lower bound GUARANTEE_FLOOR that the weights of
    selector_dual_certificate prove on the whole feasible region, so by
    weak duality it is the optimum.
    """
    e1, e2, e3 = _SELECTOR_OPTIMUM
    if e2 < 0 or e3 < 0:
        raise PropositionViolatedError("optimum point has a negative eps2 or eps3")
    selector_dual_certificate()
    value = selector_value_at(e1, e2, e3)
    if value != GUARANTEE_FLOOR:
        raise PropositionViolatedError("optimum point has value %s, not the dual bound" % value)
    return value, _SELECTOR_OPTIMUM


def selector_dual_certificate() -> tuple[Fraction, ...]:
    """Convex weights over the four forms proving the min-max value.

    The weighted sum of the forms has zero coefficient on each eps and a
    nonnegative one on eps2, eps3, so its constant term lower-bounds the
    maximum everywhere on the feasible region.  Verified on return.
    """
    lam = (Fraction(2, 43), Fraction(36, 43), Fraction(2, 43), Fraction(3, 43))
    if any(x < 0 for x in lam) or sum(lam) != 1:
        raise PropositionViolatedError("dual weights are not convex")
    combo = [sum(l * form[t] for l, form in zip(lam, _FORMS)) for t in range(4)]
    const, c1, c2, c3 = combo
    if c1 != 0:
        raise PropositionViolatedError("eps1 is unconstrained so its combined weight must vanish")
    if c2 < 0 or c3 < 0:
        raise PropositionViolatedError("dual weights give a negative eps2 or eps3 coefficient")
    if const != GUARANTEE_FLOOR:
        raise PropositionViolatedError("dual bound is %s, not %s" % (const, GUARANTEE_FLOOR))
    return lam
