"""Exact and heuristic arrival-order adversaries plus the per-family
constructive attacks."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import (
    brute_force_min,
    outcome,
    random_perm,
    random_pm_graph,
    reference_heuristic,
    reference_planted_is,
    reference_regular_gadget,
    reference_sampled,
)

import greedyorder.adversary as adversary_mod
from greedyorder import (
    BipartiteGraph,
    FamilySpec,
    Permutation,
    adversary_biclique,
    adversary_planted_is,
    adversary_projective,
    adversary_regular_gadget,
    generate,
    greedy_match,
    monte_carlo_random_pi,
    worst_order_exact,
    worst_order_heuristic,
    worst_order_masked_min,
)
from greedyorder.adversary import attack, order_avoiding, worst_order_constructive, worst_order_sampled
from greedyorder.errors import (
    AnalysisParamError,
    DimensionMismatchError,
    FamilyShapeError,
    HallInfeasibleError,
    UsageError,
)


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
    """Past its budget the exact adversary returns an inexact order, the
    one that avoids the largest avoidable set found so far, which
    replays to its size and is no better than the exact minimum."""
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


def test_masked_min_counts_a_repeated_vertex_once():
    """The search's mask ignores repeats, so the replay check must too;
    vertex 0, first under pi, is matched by every order."""
    g, pi = generate(FamilySpec("fano")), Permutation.identity(7)
    assert worst_order_masked_min(g, pi, [5, 5, 6]) == worst_order_masked_min(g, pi, [5, 6])
    assert worst_order_masked_min(g, pi, [0, 0, 6]) == worst_order_masked_min(g, pi, [0, 6])


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


def test_projective_adversary_leaves_the_last_q_unmatched():
    """Planning only the target set's neighborhood leaves the last q
    vertices of pi unmatched and matches every other one, n - q in all,
    on every fano order and on 1000 seeded pg23 orders.  A target set
    whose neighbors outnumber the other vertices is infeasible."""
    fano, pg = generate(FamilySpec("fano")), generate(FamilySpec("pg23"))
    rng = random.Random(127)
    cases = [(fano, 2, Permutation.from_order(p)) for p in itertools.permutations(range(7))]
    cases += [(pg, 3, random_perm(rng, 13)) for _ in range(1000)]
    for g, q, pi in cases:
        out = greedy_match(g, adversary_projective(g, pi, q), pi)
        assert out.size == g.n - q, pi.order
        assert all(out.matched_u_of_v[v] is None for v in pi.order[-q:]), pi.order
    with pytest.raises(HallInfeasibleError):
        adversary_projective(fano, Permutation.identity(7), 3)


def test_projective_adversary_on_any_graph():
    """The projective adversary is `order_avoiding` on pi's last t, so it
    needs no plane: on 600 random graphs with a perfect matching, n <= 8
    and t <= n/2, it raises HallInfeasibleError exactly when the
    reference safety search finds pi's last t safe, and otherwise leaves
    them unmatched.  Both outcomes occur at least 50 times."""
    rng = random.Random(131)
    outcomes = {"infeasible": 0, "avoided": 0}
    for _ in range(600):
        n = rng.randint(2, 8)
        g, pi, t = random_pm_graph(rng, n), random_perm(rng, n), rng.randint(1, n // 2)
        last = pi.order[n - t :]
        safe, _ = conftest.reference_is_safe(g, pi, last)
        if safe:
            with pytest.raises(HallInfeasibleError):
                adversary_projective(g, pi, t)
            outcomes["infeasible"] += 1
        else:
            matched = greedy_match(g, adversary_projective(g, pi, t), pi).matched_u_of_v
            assert all(matched[v] is None for v in last), (g.edges, pi.order, t)
            outcomes["avoided"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_search_and_constructive_entry_points_check_their_inputs():
    """A pi of the wrong length is a DimensionMismatchError, and a subset
    vertex outside 0..n-1 an AnalysisParamError, not an IndexError or a
    vertex counted through a negative index.  So do the projective and
    planted adversaries called directly.  The family adversaries called
    directly raise FamilyShapeError for a shape they cannot take."""
    g = generate(FamilySpec("fano"))
    planted = generate(FamilySpec("planted_is", {"n": 20, "d": 3, "eps": 0.2}, seed=1))
    for short in (Permutation.identity(6), Permutation.identity(8)):
        for call in (
            lambda: worst_order_exact(g, short),
            lambda: worst_order_masked_min(g, short, [0]),
            lambda: worst_order_constructive(g, short),
            lambda: order_avoiding(g, short, [0]),
            lambda: adversary_projective(g, short, 2),
        ):
            with pytest.raises(DimensionMismatchError):
                call()
    for wrong in (Permutation.identity(19), Permutation.identity(21)):
        with pytest.raises(DimensionMismatchError):
            adversary_planted_is(planted, wrong)
    pi = Permutation.identity(7)
    for subset in ([-1], [7], [0, 7]):
        for player in (worst_order_masked_min, order_avoiding):
            with pytest.raises(AnalysisParamError) as info:
                player(g, pi, subset)
            assert str(info.value) == "subset contains vertices outside the graph"
    for call, message in (
        (lambda: adversary_projective(g, pi, 0), "target_size 0 out of range"),
        (lambda: adversary_projective(g, pi, 8), "target_size 8 out of range"),
        (lambda: adversary_biclique(pi, 7), "n must be even"),
        (lambda: adversary_biclique(pi, 8), "pi has 7 entries, expected 8"),
    ):
        with pytest.raises(FamilyShapeError) as info:
            call()
        assert str(info.value) == message


def test_player_settings_outside_their_domain():
    """draws < 1, iters < 0 and a search budget < 1 raise
    AnalysisParamError, as trials < 1 does, and `attack` rejects them
    also for a player that does not read them; the smallest valid
    settings still return an order, and a budget of 1 falls back to the
    order that the fallback's one kernel call builds."""
    g = generate(FamilySpec("fano"))
    pi = Permutation.identity(7)
    for draws in (0, -2):
        with pytest.raises(AnalysisParamError, match="^draws must be positive$"):
            worst_order_sampled(g, pi, draws=draws)
    with pytest.raises(AnalysisParamError, match="^iters must be nonnegative$"):
        worst_order_heuristic(g, pi, iters=-3)
    for budget in (0, -5):
        with pytest.raises(AnalysisParamError, match="^budget must be positive$"):
            worst_order_exact(g, pi, budget=budget)
        with pytest.raises(AnalysisParamError, match="^budget must be positive$"):
            worst_order_masked_min(g, pi, [5, 6], budget=budget)
    with pytest.raises(AnalysisParamError, match="^budget must be positive$"):
        attack("heuristic", g, pi, budget=0)
    with pytest.raises(AnalysisParamError, match="^iters must be nonnegative$"):
        attack("exact", g, pi, iters=-3)
    assert worst_order_sampled(g, pi, draws=1).sigma is not None
    assert worst_order_heuristic(g, pi, iters=0).nodes_expanded == 0
    res = worst_order_exact(g, pi, budget=1)
    assert (res.exact, res.nodes_expanded) == (False, 1 + 1)
    assert worst_order_masked_min(g, pi, [5, 6], budget=1)[1:] == (False, 1 + 1)


def test_attack_rejects_an_unknown_mode():
    """`attack` raises UsageError for a mode outside its table, before it
    checks the settings, and the Monte Carlo loop passes that error on
    after its own trials check.  At the CLI it would exit with code 1,
    where a bare KeyError would escape as a traceback."""
    g = generate(FamilySpec("fano"))
    pi = Permutation.identity(7)
    message = "^unknown adversary mode 'nope'$"
    with pytest.raises(UsageError, match=message):
        attack("nope", g, pi)
    with pytest.raises(UsageError, match=message):
        attack("nope", g, pi, budget=0)
    with pytest.raises(UsageError, match=message):
        monte_carlo_random_pi(g, trials=1, adversary_mode="nope", budget=0)
    with pytest.raises(AnalysisParamError, match="^trials must be positive$"):
        monte_carlo_random_pi(g, trials=0, adversary_mode="nope")


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


def _random_graph(rng, n):
    """n per side and each U-row a random subset, empty rows included."""
    edges = [(u, v) for u in range(n) for v in rng.sample(range(n), rng.randrange(n + 1))]
    return BipartiteGraph.from_edges(n, edges)


def test_masked_fallback_scores_the_subset():
    """Past its budget the masked minimum is how many subset vertices
    greedy matches under `order_avoiding` of the largest set found so
    far, not how many vertices in all.  With a budget that the list of
    largest sets fits but the descent does not, that set is a largest
    one, so fano and pg23 still reach 0; with a budget of 1 it is the
    empty set, whose order is the first branch sequence."""
    for family, subset in (("fano", [5, 6]), ("pg23", [10, 11, 12])):
        g = generate(FamilySpec(family))
        pi = Permutation.identity(g.n)
        value, exact, nodes = worst_order_masked_min(g, pi, subset)
        assert (value, exact) == (0, True)
        assert worst_order_masked_min(g, pi, subset, budget=nodes - 1) == (0, False, nodes)
    rng = random.Random(23)
    fallbacks = 0
    for _ in range(12):
        g = _random_graph(rng, rng.randrange(4, 10))
        pi = random_perm(rng, g.n)
        subset = rng.sample(range(g.n), rng.randrange(1, g.n + 1))
        value, exact, nodes = worst_order_masked_min(g, pi, subset, budget=1)
        if not exact:
            matched = greedy_match(g, order_avoiding(g, pi, []), pi).matched_u_of_v
            assert (value, nodes) == (sum(matched[v] is not None for v in set(subset)), 1 + 1)
            fallbacks += 1
    assert fallbacks >= 8


def test_heuristic_and_sampled_equal_the_greedy_scored_reference():
    """Scoring in rank space keeps every result: the same sigma, size,
    exact flag and node count, or the same error for a pi of the wrong
    length."""
    seen = set()

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 12), st.randoms(use_true_random=False), st.integers(0, 2**32))
    def check(n, rng, seed):
        g = _random_graph(rng, n)
        pi = random_perm(rng, n + (rng.random() < 0.1) * rng.choice([-1, 1]))
        iters, draws = rng.randrange(0, 400), rng.randrange(1, 60)
        got = outcome(worst_order_heuristic, g, pi, iters=iters, seed=seed)
        assert got == outcome(reference_heuristic, g, pi, iters=iters, seed=seed)
        assert outcome(worst_order_sampled, g, pi, draws=draws, seed=seed) == outcome(
            reference_sampled, g, pi, draws=draws, seed=seed
        )
        seen.add("error" if isinstance(got, tuple) else "result")

    check()
    assert seen == {"error", "result"}


def test_regular_gadget_equals_the_reference():
    """The closed-form block matching leaves greedy the same unmatched
    V-vertices as the reference's Hopcroft-Karp matching, and the two
    raise the same errors."""
    seen = set()

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 3), st.randoms(use_true_random=False))
    def check(d, t, rng):
        n = 3 * max(d, 1) * max(t, 1) + (rng.random() < 0.1)
        pi = random_perm(rng, n)
        got = outcome(adversary_regular_gadget, pi, d, t)
        want = outcome(reference_regular_gadget, pi, d, t)
        if isinstance(want, tuple):
            assert got == want
        else:
            g = generate(FamilySpec("regular89", {"d": d, "t": t}))
            new, ref = greedy_match(g, got, pi), greedy_match(g, want, pi)
            assert new.unmatched_v() == ref.unmatched_v()
            assert new.size == ref.size
        seen.add("error" if isinstance(got, tuple) else "order")

    check()
    assert seen == {"error", "order"}


def test_regular_gadget_is_exactly_optimal():
    """No arrival order leaves greedy fewer matched than the gadget's:
    every order of the 6-vertex gadgets, and sampled orders of larger
    ones."""
    rng = random.Random(89)
    for d, t, samples in ((2, 1, None), (1, 2, None), (3, 1, 200), (4, 1, 200), (2, 2, 200)):
        g = generate(FamilySpec("regular89", {"d": d, "t": t}))
        if samples is None:
            pis = [Permutation.from_order(o) for o in itertools.permutations(range(g.n))]
        else:
            pis = [random_perm(rng, g.n) for _ in range(samples)]
        for pi in pis:
            res = worst_order_exact(g, pi)
            assert res.exact
            assert greedy_match(g, adversary_regular_gadget(pi, d, t), pi).size == res.size, (
                d, t, pi.order,
            )


def test_regular_gadget_runs_no_matcher(monkeypatch):
    def refuse(adj, n_right):
        raise AssertionError("the gadget plans its block matching without a matcher")

    monkeypatch.setattr(adversary_mod, "max_matching", refuse)
    pi = random_perm(random.Random(3), 60)
    assert len(adversary_regular_gadget(pi, 4, 5)) == 60


PLANTED_SPECS = [
    FamilySpec("planted_is", {"n": n, "d": d, "eps": eps}, seed=seed)
    for n, d, eps, seed in ((12, 3, 0.3, 1), (20, 4, 0.3, 2), (30, 4, 0.4, 1), (60, 5, 0.2, 1))
]


def test_planted_adversary_equals_the_one_target_at_a_time_reference(monkeypatch):
    """Padding the targets by |outside| - p at a time ends on the same
    prefix as padding one at a time, or raises the same error when the
    extras run out."""
    planted = [generate(spec) for spec in PLANTED_SPECS]
    calls = []
    ref_matching = conftest.reference_max_matching

    def counted(adj, n_right):
        calls.append(1)
        return ref_matching(adj, n_right)

    monkeypatch.setattr(conftest, "reference_max_matching", counted)
    seen = set()

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, len(planted)), st.randoms(use_true_random=False))
    def check(pick, rng):
        if pick < len(planted):
            g = planted[pick]
        else:
            # Any graph may carry a planted size: its "planted" block
            # need not be independent, and its params may lack the size
            # or hold one out of range.
            g = _random_graph(rng, rng.randrange(1, 13))
            size = rng.randrange(-2, g.n // 2 + 2)
            g = BipartiteGraph.from_edges(
                g.n, g.edges, family="planted_is",
                params=None if size == -2 else {"planted_size": size},
            )
        pi = random_perm(rng, g.n)
        calls.clear()
        want = outcome(reference_planted_is, g, pi)
        assert outcome(adversary_planted_is, g, pi) == want
        if isinstance(want, tuple):
            seen.add(want[0].__name__)
        else:
            seen.add("padded one at a time" if len(calls) > 1 else "one matching")

    check()
    assert seen == {
        "one matching", "padded one at a time", "HallInfeasibleError", "FamilyShapeError",
    }


def test_planted_adversary_runs_one_matching(monkeypatch):
    """On the benchmark's planted graph, n=600, the one-target-at-a-time
    loop needs two to four matchings per order; padding by the shortfall
    needs one.  (On sparser planted graphs it can need several.)"""
    g = generate(FamilySpec("planted_is", {"n": 600, "d": 20, "eps": 0.1}, seed=13))
    calls = {"ref": 0, "new": 0}
    ref_matching, new_matching = conftest.reference_max_matching, adversary_mod.max_matching

    def counter(side, matching):
        def counted(adj, n_right):
            calls[side] += 1
            return matching(adj, n_right)
        return counted

    monkeypatch.setattr(conftest, "reference_max_matching", counter("ref", ref_matching))
    monkeypatch.setattr(adversary_mod, "max_matching", counter("new", new_matching))
    rng = random.Random(5)
    ref_calls = []
    for _ in range(8):
        pi = random_perm(rng, g.n)
        calls.update(ref=0, new=0)
        assert adversary_planted_is(g, pi) == reference_planted_is(g, pi)
        assert calls["new"] == 1
        ref_calls.append(calls["ref"])
    assert min(ref_calls) >= 2 and max(ref_calls) >= 4, ref_calls
