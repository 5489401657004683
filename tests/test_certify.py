"""Certificate constructions, guarantee formulas, and the selector LP."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import brute_max_matching_size, random_pm_graph

import greedyorder.certify as certify
from greedyorder import (
    BipartiteGraph,
    FamilySpec,
    align_with_matching,
    build_certificate,
    build_spoiling_graph,
    build_theorem1,
    find_perfect_matching,
    generate,
    maximal_path_cover,
    worst_order_exact,
)
from greedyorder.certify import (
    CONSTRUCTIONS,
    GUARANTEE_FLOOR,
    compute_eps,
    compute_m12,
    guarantee_large_m12,
    guarantee_m12,
    guarantee_sort1,
    guarantee_sort2,
    order_large_m12,
    order_m12,
    order_sort1,
    order_sort2,
    selector_dual_certificate,
    selector_forms,
    selector_lp_optimum,
    selector_value_at,
)
from greedyorder.errors import PropositionViolatedError, UsageError


def cover_and_sg(g):
    aligned, _ = align_with_matching(g, find_perfect_matching(g))
    sg = build_spoiling_graph(aligned)
    cover, _ = maximal_path_cover(sg)
    return cover, sg


def test_floor_constant():
    assert GUARANTEE_FLOOR == Fraction(1, 2) + Fraction(1, 86) == Fraction(22, 43)


def test_six_cycle_worked_example():
    g = generate(FamilySpec("fig1"))
    cert = build_theorem1(g)
    assert cert.construction == "sort1"
    assert cert.guaranteed_count == 2
    assert cert.guaranteed_fraction == Fraction(2, 3)
    assert cert.pi.order == (2, 1, 0)
    assert (cert.eps.eps1, cert.eps.eps2, cert.eps.eps3) == (
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(1, 2),
    )
    assert (cert.eps.k, cert.eps.p, cert.eps.m12) == (0, 1, 0)


def test_eps_fields_match_counts(corpus):
    for inst in corpus:
        cover, sg = cover_and_sg(inst.graph)
        eps = compute_eps(cover, sg)
        n = inst.graph.n
        assert eps.n == n and eps.k == cover.k and eps.p == cover.p
        assert eps.eps1 == Fraction(1, 2) - Fraction(eps.k, n)
        assert eps.eps2 == Fraction(eps.p - eps.k, n)
        assert eps.eps3 == Fraction(1, 2) - Fraction(eps.m12, n)
        assert 0 <= eps.m12 <= min(eps.k, n - eps.k)


def test_m12_is_the_largest_matching_from_isolated_to_longer_path_nodes(corpus):
    """compute_m12 against a bitmask DP over the arcs q -> w that
    has_arc finds from each isolated node q to each longer-path node w;
    sparse random graphs have both arc directions between the classes."""
    rng = random.Random(12)
    graphs = [inst.graph for inst in corpus]
    for _ in range(300):
        n = rng.randint(2, 12)
        graphs.append(random_pm_graph(rng, n, extra=rng.randint(0, n)))
    for g in graphs:
        cover, sg = cover_and_sg(g)
        w1, w2 = cover.classes()
        adj = [[t for t, w in enumerate(w2) if sg.has_arc(q, w)] for q in w1]
        assert compute_m12(cover, sg) == brute_max_matching_size(adj, len(w2))


def test_guarantee_formulas(corpus):
    for inst in corpus:
        cover, sg = cover_and_sg(inst.graph)
        n, k, p = cover.n, cover.k, cover.p
        m12 = compute_m12(cover, sg)
        assert guarantee_sort1(cover) == 2 * p - k
        assert guarantee_sort2(cover) == math.ceil((5 * n - p) / 9)
        assert guarantee_m12(cover, m12) == k + (n - k - m12 + 1) // 2
        assert guarantee_large_m12(cover, m12) == (n + k + m12 + 2) // 3


def test_orders_are_permutations(corpus):
    builders = (order_sort1, order_sort2, order_m12, order_large_m12)
    for inst in corpus:
        cover, _ = cover_and_sg(inst.graph)
        n = inst.graph.n
        for build in builders:
            perm = build(cover, n)
            assert sorted(perm.order) == list(range(n))


def test_sort1_prefix_layout():
    g = generate(FamilySpec("fig1"))
    cover, _ = cover_and_sg(g)
    perm = order_sort1(cover, 3)
    # single path: prefix is its start then its end, suffix ascending
    path = cover.paths[-1]
    assert perm.order[0] == path[0]
    assert perm.order[1] == path[-1]


def test_constructions_sound_against_exact_adversary(corpus):
    for inst in corpus:
        if inst.graph.n > 10:
            continue
        for name in ("sort1", "sort2", "m12_order", "large_m12_order"):
            cert = build_certificate(inst.graph, name)
            res = worst_order_exact(inst.graph, cert.pi)
            assert res.exact
            assert res.size >= cert.guaranteed_count, (inst.instance_id, name)


def test_theorem1_takes_best_guarantee(corpus):
    for inst in corpus:
        if inst.graph.n > 12:
            continue
        best = build_theorem1(inst.graph)
        counts = {
            name: build_certificate(inst.graph, name).guaranteed_count
            for name in ("sort1", "sort2", "m12_order", "large_m12_order")
        }
        assert best.guaranteed_count == max(counts.values())
        assert counts[best.construction] == best.guaranteed_count
        assert best.guaranteed_fraction >= GUARANTEE_FLOOR


def test_build_certificate_validates_name():
    g = generate(FamilySpec("fig1"))
    with pytest.raises(UsageError):
        build_certificate(g, "sort3")
    assert set(CONSTRUCTIONS) == {
        "sort1",
        "sort2",
        "m12_order",
        "large_m12_order",
        "theorem1",
    }


def test_selector_forms_reproduce_guarantees(corpus):
    """Each linear form evaluated at an instance's eps equals its integer
    guarantee divided by n, up to the ceiling slack of at most 1/n."""
    for inst in corpus:
        cover, sg = cover_and_sg(inst.graph)
        eps = compute_eps(cover, sg)
        n = inst.graph.n
        m12 = eps.m12
        counts = (
            guarantee_sort1(cover),
            guarantee_sort2(cover),
            guarantee_m12(cover, m12),
            guarantee_large_m12(cover, m12),
        )
        forms = selector_forms(eps.eps1, eps.eps2, eps.eps3)
        for count, form in zip(counts, forms):
            assert Fraction(count, n) >= form, inst.instance_id
            assert Fraction(count, n) - form < Fraction(1, n), inst.instance_id


def test_lp_optimum_exact():
    value, (e1, e2, e3) = selector_lp_optimum()
    assert value == Fraction(22, 43)
    assert (e1, e2, e3) == (Fraction(19, 86), Fraction(10, 86), Fraction(21, 86))
    assert selector_value_at(e1, e2, e3) == Fraction(22, 43)


def test_value_at_worked_example():
    assert selector_value_at(Fraction(1, 2), Fraction(1, 3), Fraction(1, 2)) == Fraction(2, 3)


def test_dual_certificate_lower_bounds_everywhere():
    lam = selector_dual_certificate()
    assert sum(lam) == 1 and all(x >= 0 for x in lam)
    # the convex combination kills eps1 and is nondecreasing in eps2 and
    # eps3, so on the feasible region the max of the forms is >= 22/43
    for e1 in (Fraction(-3, 7), Fraction(0), Fraction(19, 86), Fraction(1, 2)):
        for e2 in (Fraction(0), Fraction(5, 43), Fraction(2, 5)):
            for e3 in (Fraction(0), Fraction(21, 86), Fraction(1, 2)):
                forms = selector_forms(e1, e2, e3)
                combo = sum(l * f for l, f in zip(lam, forms))
                assert combo >= Fraction(22, 43)
                assert max(forms) >= combo


def test_optimum_proof_rejects_a_wrong_form_or_point(monkeypatch):
    """A form's constant off by 1/86 breaks the dual bound; a point off
    the optimum is infeasible or has a value above the dual bound.  A
    constant lowered leaves the point's value at the bound, so only the
    dual check catches it."""
    forms = certify._FORMS
    for i, shift in itertools.product(range(len(forms)), (Fraction(1, 86), Fraction(-1, 86))):
        shifted = list(forms)
        shifted[i] = (forms[i][0] + shift, *forms[i][1:])
        monkeypatch.setattr(certify, "_FORMS", tuple(shifted))
        for check in (selector_dual_certificate, selector_lp_optimum):
            with pytest.raises(PropositionViolatedError):
                check()
    monkeypatch.setattr(certify, "_FORMS", forms)
    for point in (
        (Fraction(19, 86), Fraction(-1, 86), Fraction(21, 86)),
        (Fraction(20, 86), Fraction(5, 43), Fraction(21, 86)),
        (Fraction(18, 86), Fraction(5, 43), Fraction(21, 86)),
    ):
        monkeypatch.setattr(certify, "_SELECTOR_OPTIMUM", point)
        with pytest.raises(PropositionViolatedError):
            selector_lp_optimum()
    # The dual combination has no eps term, so every point off the optimum
    # also fails the value check; the feasibility check alone is reached
    # only with the value forced to the bound.
    monkeypatch.setattr(certify, "selector_value_at", lambda *eps: GUARANTEE_FLOOR)
    monkeypatch.setattr(
        certify, "_SELECTOR_OPTIMUM", (Fraction(19, 86), Fraction(-1, 86), Fraction(21, 86))
    )
    with pytest.raises(PropositionViolatedError, match="negative eps2"):
        selector_lp_optimum()
