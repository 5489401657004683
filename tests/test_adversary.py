"""Exact and heuristic arrival-order adversaries plus the per-family
constructive attacks."""

import itertools
import math
import random

import pytest

from conftest import brute_force_min, random_perm, random_pm_graph

from greedyorder import (
    FamilySpec,
    Permutation,
    adversary_biclique,
    adversary_planted_is,
    adversary_projective,
    adversary_regular_gadget,
    generate,
    greedy_match,
    worst_order_exact,
    worst_order_heuristic,
    worst_order_masked_min,
)
from greedyorder.adversary import worst_order_sampled


def test_exact_matches_brute_on_six_cycle():
    g = generate(FamilySpec("fig1"))
    for order in itertools.permutations(range(3)):
        pi = Permutation.from_order(order)
        res = worst_order_exact(g, pi)
        assert res.exact
        assert res.size == brute_force_min(g, pi) == 2


def test_exact_matches_brute_on_random_graphs():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(2, 8)
        g = random_pm_graph(rng, n)
        pi = random_perm(rng, n)
        res = worst_order_exact(g, pi)
        assert res.exact
        assert res.size == brute_force_min(g, pi)


def test_exact_replays_its_witness(corpus):
    rng = random.Random(47)
    for inst in corpus:
        g = inst.graph
        pi = random_perm(rng, g.n)
        res = worst_order_exact(g, pi)
        assert res.exact, inst.instance_id
        assert greedy_match(g, res.sigma, pi).size == res.size
        assert res.nodes_expanded > 0
        # any maximal matching covers at least half of a perfect one
        assert res.size >= math.ceil(g.n / 2), inst.instance_id


def test_budget_exhaustion_falls_back_to_heuristic():
    g = generate(FamilySpec("biclique_half", {"n": 12}))
    pi = Permutation.identity(12)
    res = worst_order_exact(g, pi, budget=10)
    assert not res.exact
    assert greedy_match(g, res.sigma, pi).size == res.size
    exact = worst_order_exact(g, pi)
    assert exact.exact
    assert res.size >= exact.size


def test_heuristic_upper_bounds_exact_and_is_deterministic():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randrange(2, 9)
        g = random_pm_graph(rng, n)
        pi = random_perm(rng, n)
        h1 = worst_order_heuristic(g, pi, iters=400, seed=5)
        h2 = worst_order_heuristic(g, pi, iters=400, seed=5)
        assert h1.sigma.order == h2.sigma.order and h1.size == h2.size
        assert not h1.exact
        assert greedy_match(g, h1.sigma, pi).size == h1.size
        assert h1.size >= worst_order_exact(g, pi).size


def test_sampled_returns_the_first_best_draw():
    rng = random.Random(17)
    for seed in range(30):
        n = rng.randrange(2, 8)
        g = random_pm_graph(rng, n)
        pi = random_perm(rng, n)
        res = worst_order_sampled(g, pi, draws=12, seed=seed)
        draws = random.Random(seed)
        sizes = []
        for _ in range(12):
            order = list(range(n))
            draws.shuffle(order)
            sizes.append((greedy_match(g, Permutation.from_order(order), pi).size, order))
        size, order = min(sizes, key=lambda s: s[0])
        assert (res.sigma.order, res.size, res.exact, res.nodes_expanded) == (
            tuple(order), size, False, 12
        )
        assert res.size >= worst_order_exact(g, pi).size


def test_masked_min_against_masked_brute():
    rng = random.Random(59)
    for _ in range(25):
        n = rng.randrange(2, 7)
        g = random_pm_graph(rng, n)
        pi = random_perm(rng, n)
        subset = rng.sample(range(n), rng.randrange(1, n + 1))
        value, exact, nodes = worst_order_masked_min(g, pi, subset)
        assert exact and nodes > 0
        best = n + 1
        for order in itertools.permutations(range(n)):
            out = greedy_match(g, Permutation.from_order(order), pi)
            best = min(best, sum(1 for v in subset if out.matched_u_of_v[v] is not None))
        assert value == best


def test_masked_min_full_subset_equals_exact():
    rng = random.Random(61)
    g = random_pm_graph(rng, 6)
    pi = random_perm(rng, 6)
    value, exact, _ = worst_order_masked_min(g, pi, range(6))
    assert exact
    assert value == worst_order_exact(g, pi).size


def test_regular_gadget_adversary_hits_quota():
    rng = random.Random(101)
    for d, t in ((1, 1), (2, 1), (3, 1), (3, 2), (2, 2)):
        g = generate(FamilySpec("regular89", {"d": d, "t": t}))
        quota = math.ceil(d / 3) * t
        for _ in range(30):
            pi = random_perm(rng, g.n)
            sigma = adversary_regular_gadget(pi, d, t)
            out = greedy_match(g, sigma, pi)
            assert g.n - out.size >= quota, (d, t, pi.order)


def test_projective_adversary_on_fano():
    g = generate(FamilySpec("fano"))
    rng = random.Random(103)
    for _ in range(60):
        pi = random_perm(rng, 7)
        sigma = adversary_projective(g, pi, 2)
        out = greedy_match(g, sigma, pi)
        # the floor for 3-regular n=7 forces 5; the attack must reach it
        assert out.size == 5


def test_projective_adversary_on_pg23():
    g = generate(FamilySpec("pg23"))
    rng = random.Random(107)
    for _ in range(100):
        pi = random_perm(rng, 13)
        sigma = adversary_projective(g, pi, 3)
        out = greedy_match(g, sigma, pi)
        assert out.size <= 10


def test_biclique_adversary_bounds():
    rng = random.Random(109)
    for n in (4, 6, 8):
        g = generate(FamilySpec("biclique_half", {"n": n}))
        for _ in range(30):
            pi = random_perm(rng, n)
            sigma = adversary_biclique(pi, n)
            out = greedy_match(g, sigma, pi)
            exact = worst_order_exact(g, pi)
            assert exact.size <= out.size <= n
            assert out.size >= n // 2


def test_planted_adversary_replays_validly():
    g = generate(FamilySpec("planted_is", {"n": 60, "d": 5, "eps": 0.2}, seed=3))
    rng = random.Random(113)
    for _ in range(10):
        pi = random_perm(rng, 60)
        sigma = adversary_planted_is(g, pi)
        assert sorted(sigma.order) == list(range(60))
        out = greedy_match(g, sigma, pi)
        assert 30 <= out.size <= 60
