"""The arrival-order search engine and the safety decision against the
references they replaced.

The exact adversary, the masked minimum and the safety decision all ask
the avoidability test of the `adversary` docstring: the least number of
counted vertices matched is their count less the largest avoidable
subset, and every order comes from one descent over arrivals.  The
V-side lemma is checked first: the plain V-side recursion in conftest
equals the factorial sweep and the exhaustive arrival game, greedy's
matching is the V-side process under any arrival order, and any V-side
run is greedy's matching under the order that `_planned_order` builds
from it.  The engine's values, orders and safety witnesses must equal
those of the exhaustive game and of the recursive safety search in
conftest, its list must hold every largest avoidable set, and the
largest avoidable set must give the game's value at every state.  The
listed sets must be the loser sets of the least-size greedy runs over
all arrival orders, and the exact order the least of their safety
witnesses, which the iterate policies rest on.  The descent trusts the
incumbent matching where it can, decides each other branch by one
augmenting path against it, and tests the later listed sets only when a
branch loses the incumbent.  The engine must handle
inputs far deeper than the interpreter's recursion limit and solve the
sizes that the search over arrivals could not, and the safety decision
must settle the queries that the search left unbounded.
"""

import collections
import itertools
import json
import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (
    _ReferenceMinGame,
    brute_force_min,
    random_perm,
    random_pm_graph,
    reference_avoiding,
    reference_is_safe,
    reference_min_game,
    reference_v_side_min,
)

import greedyorder.adversary as adversary
import greedyorder.io as gio
from greedyorder import (
    BipartiteGraph,
    FamilySpec,
    Permutation,
    generate,
    greedy_match,
    is_safe,
    worst_order_exact,
    worst_order_masked_min,
)
from greedyorder.adversary import (
    DEFAULT_BUDGET,
    _avoiding_extension,
    _avoiding_matching,
    _largest_avoidable,
    _masked_search,
    _max_avoidable,
    _planned_order,
    _rank_rows,
    order_avoiding,
)
from greedyorder.certify import build_theorem1
from greedyorder.cli import main
from greedyorder.errors import PropositionViolatedError


@st.composite
def graph_pi_subset(draw, max_n=10):
    """A random perfect-matching graph with n <= max_n, a random priority
    order and a nonempty subset of the right side: either any subset or
    the lowest-priority vertices, which are the likeliest to be unsafe."""
    rng = draw(st.randoms(use_true_random=True))
    n = draw(st.integers(1, max_n))
    g = random_pm_graph(rng, n, extra=rng.randrange(0, 2 * n))
    pi = random_perm(rng, n)
    k = min(rng.randint(1, n), rng.randint(1, n))
    if draw(st.booleans()):
        subset = sorted(pi.order[n - k :])
    else:
        subset = sorted(rng.sample(range(n), k))
    return g, pi, subset


@st.composite
def dense_graph_pi_low_set(draw, max_n=9):
    """A perfect-matching graph with 4 <= n <= max_n and n to 3n extra
    edges, a random priority order and at most its lowest-priority
    third: sets that are often unsafe, with descents that search many
    branches."""
    rng = draw(st.randoms(use_true_random=True))
    n = draw(st.integers(4, max_n))
    g = random_pm_graph(rng, n, extra=rng.randrange(n, 3 * n))
    pi = random_perm(rng, n)
    return g, pi, sorted(pi.order[n - rng.randint(1, n // 3) :])


def _rank_mask(pi, vs):
    """The ranks of the vertices vs, as a mask."""
    return sum(1 << pi.rank[v] for v in set(vs))


def _subsets(mask):
    """Every submask of mask, by increasing popcount."""
    bits = [1 << r for r in range(mask.bit_length()) if mask >> r & 1]
    return [sum(c) for k in range(len(bits) + 1) for c in itertools.combinations(bits, k)]


def v_side_run(g, pi, pick):
    """The matching, as each V vertex's partner or None, that V builds in
    pi order when each vertex with a free neighbour takes pick(its free
    neighbours in label order)."""
    free, mate = set(range(g.n)), [None] * g.n
    for v in pi.order:
        takers = sorted(u for u in g.adj_v[v] if u in free)
        if takers:
            mate[v] = pick(takers)
            free.discard(mate[v])
    return mate


def test_the_v_side_recursion_is_the_arrival_game():
    """The lemma of the `adversary` module docstring.  (a) Under any
    arrival order, greedy's matching is what V builds in pi order when
    each vertex takes its earliest-arriving free neighbour.  (b) A run in
    which each vertex takes any free neighbour is greedy's matching under
    `_planned_order` of its pairs.  So the plain V-side recursion equals
    the factorial sweep with every vertex counted, and the exhaustive
    arrival game for any subset."""

    @settings(
        max_examples=200,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(graph_pi_subset(7), st.randoms(use_true_random=True))
    def check(case, rng):
        g, pi, subset = case
        n = g.n
        assert reference_v_side_min(g, pi, range(n)) == brute_force_min(g, pi)
        assert reference_v_side_min(g, pi, subset) == reference_min_game(g, pi, subset)[0]
        sigma = random_perm(rng, n)
        earliest = v_side_run(g, pi, lambda takers: min(takers, key=sigma.rank.__getitem__))
        assert list(greedy_match(g, sigma, pi).matched_u_of_v) == earliest
        for _ in range(3):
            mate = v_side_run(g, pi, rng.choice)
            pairs = [(u, v) for v, u in enumerate(mate) if u is not None]
            planned = _planned_order(n, pairs, pi.rank)
            assert list(greedy_match(g, planned, pi).matched_u_of_v) == mate

    check()


def test_engine_equals_the_references():
    """The exact and masked minima and their orders equal the exhaustive
    game's, the first optimal branch sequence, and the exact minimum the
    factorial sweep's where n <= 7.  The safety verdict and witness
    equal the recursive search's, and a set is safe exactly when its
    masked minimum is at least 1.  Each verdict occurs at least 20
    times, and so do lists with more than one largest set."""
    seen = collections.Counter()

    @settings(
        max_examples=300,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(graph_pi_subset())
    def check(case):
        g, pi, subset = case
        n = g.n
        ref_size, ref_order, _ = reference_min_game(g, pi, range(n))
        res = worst_order_exact(g, pi)
        assert res.exact
        assert (res.size, list(res.sigma.order)) == (ref_size, ref_order)
        if n <= 7:
            assert res.size == brute_force_min(g, pi)

        masked, sigma, exact, nodes = _masked_search(g, pi, subset, DEFAULT_BUDGET)
        assert exact
        assert (masked, list(sigma.order)) == reference_min_game(g, pi, subset)[:2]
        assert worst_order_masked_min(g, pi, subset) == (masked, exact, nodes)

        safety = is_safe(g, pi, subset)
        witness = None if safety.witness is None else list(safety.witness.order)
        assert (safety.safe, witness) == reference_is_safe(g, pi, subset)
        assert safety.safe == (masked >= 1)

        adj, col = _rank_rows(g, pi)
        for v_subset in (range(n), subset):
            sets, _ = _max_avoidable(adj, col, _rank_mask(pi, v_subset), math.inf)
            seen["ties"] += len(sets) > 1
        seen["unsafe"] += not safety.safe
        seen["safe"] += safety.safe

    check()
    assert seen["ties"] >= 20, seen
    assert seen["unsafe"] >= 20 and seen["safe"] >= 20, seen


# Under pi = (3, 0, 2, 4, 1) the walk from the lowest priority keeps
# vertex 1 alone, while {0, 4} is avoidable: a short walk.
SHORT_WALK = (
    BipartiteGraph.from_edges(
        5, [(0, 0), (0, 3), (0, 4), (1, 1), (1, 2), (2, 2), (3, 1), (3, 3), (4, 2), (4, 4)]
    ),
    Permutation.from_order([3, 0, 2, 4, 1]),
    [1],
)


def test_every_largest_avoidable_set_is_listed():
    """`_max_avoidable` lists every largest avoidable subset of the
    counted set once, by the verdicts of `conftest.reference_avoiding`
    on every subset.  Its first set is the walk that adds, from pi's
    lowest priority upward, each vertex that keeps the set avoidable,
    whenever that walk reaches the largest size; both outcomes occur,
    the short walk at least in SHORT_WALK.  Its incremental test gives
    the reference's verdict on each set it tries, with the reference's
    rows and a matching of every arrival into its row."""
    tally = collections.Counter()

    @settings(
        max_examples=200,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(graph_pi_subset(8))
    @example(SHORT_WALK)
    def check(case):
        g, pi, subset = case
        n, full = g.n, (1 << g.n) - 1
        adj, col = _rank_rows(g, pi)
        for v_subset in (range(n), subset):
            count = _rank_mask(pi, v_subset)
            sets = [t for t, _ in _max_avoidable(adj, col, count, math.inf)[0]]
            tests = {t: reference_avoiding(adj, t, full, full) for t in _subsets(count)}
            avoidable = [t for t, (_, passed) in tests.items() if passed]
            alpha = max(t.bit_count() for t in avoidable)
            assert len(set(sets)) == len(sets)
            assert sorted(sets) == sorted(t for t in avoidable if t.bit_count() == alpha)
            walk = 0
            for r in reversed(range(n)):
                if count >> r & 1 and tests[walk | 1 << r][1]:
                    walk |= 1 << r
            if walk.bit_count() == alpha:
                assert sets[0] == walk
            tally["walk short" if walk.bit_count() < alpha else "walk largest"] += 1
            for t in avoidable:
                rows, mate = _avoiding_matching(adj, col, t, full, full)
                for r in range(n):
                    c = 1 << r
                    if not count & c & ~t:
                        continue
                    got = _avoiding_extension(adj, col, dict(rows), dict(mate), c, c - 1, -1)
                    assert (got is not None) == tests[t | c][1]
                    if got is not None:
                        assert got[0] == tests[t | c][0]
                        assert set(_live_pairs(got[0], got[1], full, full)) == set(got[0])

    check()
    assert tally["walk short"] >= 1 and tally["walk largest"] >= 20, tally


def test_the_kernel_equals_its_definition_at_every_state():
    """At the root and at every state along a drawn arrival order, the
    fold of `_avoiding_matching` gives the verdict of
    `conftest.reference_avoiding`, which builds the rows from their
    definition and decides by Hopcroft-Karp, for the subset and for a
    random set; when it passes, its rows are the reference's and its
    matching, counting only the arrivals left and the free V, holds one
    pair in each row.  Both verdicts occur at least 50 times, and so do
    passing tests at states past the root."""
    tally = collections.Counter()

    @settings(
        max_examples=200,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(graph_pi_subset(), st.randoms(use_true_random=True))
    def check(case, rng):
        g, pi, subset = case
        n, full = g.n, (1 << g.n) - 1
        adj, col = _rank_rows(g, pi)
        order = list(range(n))
        rng.shuffle(order)
        u_mask = v_mask = 0
        for u in order:
            left, free = full ^ u_mask, full ^ v_mask
            for t in (_rank_mask(pi, subset), rng.getrandbits(n)):
                kernel = _avoiding_matching(adj, col, t, left, free)
                rows, passed = reference_avoiding(adj, t, left, free)
                assert (kernel is not None) == passed
                if passed:
                    assert kernel[0] == rows
                    assert set(_live_pairs(rows, kernel[1], left, free)) == set(rows)
                tally[passed] += 1
                tally["past the root"] += passed and u_mask != 0
            m = adj[u] & free
            u_mask, v_mask = u_mask | 1 << u, v_mask | m & -m

    check()
    assert min(tally[True], tally[False], tally["past the root"]) >= 50, tally


def small_graphs_and_orders(corpus):
    """60 random perfect-matching graphs with 2 <= n <= 7 and every corpus
    graph with n <= 7, each with a seeded priority order."""
    rng = random.Random(3217)
    for _ in range(60):
        n = rng.randint(2, 7)
        yield random_pm_graph(rng, n), random_perm(rng, n)
    for idx, inst in enumerate(corpus):
        if inst.graph.n <= 7:
            yield inst.graph, random_perm(random.Random(idx), inst.graph.n)


def test_the_largest_avoidable_sets_are_the_least_rounds_loser_sets(corpus):
    """The sets that `_largest_avoidable` lists are exactly the
    unmatched right sides of the least-size greedy runs over all n!
    arrival orders, each once and as a sorted tuple."""
    for g, pi in small_graphs_and_orders(corpus):
        outs = [greedy_match(g, Permutation.from_order(p), pi) for p in itertools.permutations(range(g.n))]
        least = min(out.size for out in outs)
        losers = {tuple(out.unmatched_v()) for out in outs if out.size == least}
        listed = _largest_avoidable(g, pi)
        assert len(set(listed)) == len(listed)
        assert sorted(listed) == sorted(losers)


def test_the_exact_order_is_the_least_safety_witness(corpus):
    """The exact adversary's order is the least, as a tuple, of the
    safety witnesses of the largest avoidable sets: it is the first
    branch sequence that leaves some listed set unmatched, so it is the
    first one for its own set."""
    for g, pi in small_graphs_and_orders(corpus):
        witnesses = [order_avoiding(g, pi, losers).order for losers in _largest_avoidable(g, pi)]
        assert min(witnesses) == worst_order_exact(g, pi).sigma.order


def test_the_budget_counts_kernel_calls(monkeypatch):
    """nodes_expanded counts the calls of `_avoiding_extension` and
    `_avoiding_matching`, in the list and the descent together, a
    matching's fold of extensions counting as its one call.  A budget of
    that count gives the same result; one less falls back to
    `order_avoiding` on the largest set found so far, which the list has
    finished, so the fallback still reaches the minimum, flagged
    inexact, with nodes_expanded the budget plus the fallback's call."""
    calls, folding = collections.Counter(), []
    extend, match = adversary._avoiding_extension, adversary._avoiding_matching

    def extend_counted(*args):
        calls["_avoiding_extension"] += not folding
        return extend(*args)

    def match_counted(*args):
        calls["_avoiding_matching"] += 1
        folding.append(True)
        try:
            return match(*args)
        finally:
            folding.pop()

    monkeypatch.setattr(adversary, "_avoiding_extension", extend_counted)
    monkeypatch.setattr(adversary, "_avoiding_matching", match_counted)

    @settings(
        max_examples=200,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(graph_pi_subset())
    def check(case):
        g, pi, subset = case
        for v_subset in (range(g.n), subset):
            calls.clear()
            value, sigma, exact, nodes = _masked_search(g, pi, v_subset, DEFAULT_BUDGET)
            assert exact and nodes == sum(calls.values()) and calls["_avoiding_matching"] >= 1
            assert _masked_search(g, pi, v_subset, nodes) == (value, sigma, exact, nodes)
            if nodes > 1:
                short = _masked_search(g, pi, v_subset, nodes - 1)
                assert (short[0], short[2], short[3]) == (value, False, nodes)
                assert greedy_match(g, short[1], pi).size >= value

    check()


def test_the_budget_covers_the_descent():
    """`budget` bounds the kernel calls of the list and the descent
    together.  On fano under the identity order the list takes 16 calls
    and finds the three largest sets {5, 6}, {4, 6} and {3, 6}, and the
    descent takes 7 more: a budget of 23 is exact, and one of 22, which
    the list alone fits, falls back to the inexact order that avoids
    {5, 6}.  A budget of 9 ends before the first leaf, so the fallback
    avoids only {6}."""
    g, pi = generate(FamilySpec("fano")), Permutation.identity(7)
    adj, col = _rank_rows(g, pi)
    sets, calls = _max_avoidable(adj, col, (1 << 7) - 1, math.inf)
    assert ([t for t, _ in sets], calls) == ([0b1100000, 0b1010000, 0b1001000], 16)
    res = worst_order_exact(g, pi, budget=23)
    assert (res.size, res.exact, res.nodes_expanded) == (5, True, 23)
    res = worst_order_exact(g, pi, budget=22)
    assert (res.size, res.exact, res.nodes_expanded) == (5, False, 23)
    assert res.sigma.order == order_avoiding(g, pi, [5, 6]).order
    res = worst_order_exact(g, pi, budget=9)
    assert (res.size, res.exact, res.nodes_expanded) == (6, False, 10)
    assert res.sigma.order == order_avoiding(g, pi, [6]).order


def test_the_largest_avoidable_set_is_the_game_value():
    """The lemma of the engine, at the root and at every state along a
    drawn arrival order, with a subset counted or every vertex: the
    avoidability test of the counted vertices still free passes exactly
    when the game's value from the state is 0, and at the root the value
    is the counted set less the largest set that `_max_avoidable` lists.
    For n <= 7, where every subset can be tested, the value at each
    state is the counted vertices still free less the largest of them
    that the state can avoid, and each set that a state avoids is
    avoidable at the root.  With a subset, both outcomes of the test
    occur at least 10 times."""
    outcomes = collections.Counter()

    @settings(
        max_examples=300,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(graph_pi_subset(), st.randoms(use_true_random=True))
    def check(case, rng):
        g, pi, subset = case
        n, full = g.n, (1 << g.n) - 1
        adj, col = _rank_rows(g, pi)
        order = list(range(n))
        rng.shuffle(order)
        for count_mask in (_rank_mask(pi, subset), full):
            game = _ReferenceMinGame(adj, n, count_mask)
            sets, _ = _max_avoidable(adj, col, count_mask, math.inf)
            assert count_mask.bit_count() - sets[0][0].bit_count() == game.value()
            if n <= 7:
                root = {t for t in _subsets(count_mask) if _avoiding_matching(adj, col, t, full, full)}
            u_mask = v_mask = 0
            for u in order:
                left, free = full ^ u_mask, full ^ v_mask
                if n <= 7:
                    here = {t for t in _subsets(count_mask & free) if _avoiding_matching(adj, col, t, left, free)}
                    assert here <= root
                    assert (count_mask & free).bit_count() - max(map(int.bit_count, here)) == game.value(u_mask, v_mask)
                kernel = _avoiding_matching(adj, col, count_mask, left, free)
                assert (kernel is not None) == (game.value(u_mask, v_mask) == 0)
                if count_mask != full:
                    outcomes["avoidable" if kernel is not None else "safe"] += 1
                m = adj[u] & free
                u_mask, v_mask = u_mask | 1 << u, v_mask | m & -m

    check()
    assert outcomes["avoidable"] >= 10 and outcomes["safe"] >= 10, outcomes


def test_replay_follows_the_recorded_choices(monkeypatch):
    """The descent follows the largest sets that the list recorded: in
    the exact and masked modes its order is the exhaustive game's, the
    first optimal branch sequence.  A branch that keeps the incumbent is
    followed with no kernel call, so some descents make only the root's;
    others test a later listed set after a branch loses the incumbent
    and, where that set passes, switch to it and drop the sets before."""
    tally = collections.Counter()
    kernel = adversary._avoiding_matching

    def recorded(adj, col, t_mask, left, free):
        found = kernel(adj, col, t_mask, left, free)
        tests.append((left, found is not None))
        return found

    monkeypatch.setattr(adversary, "_avoiding_matching", recorded)
    tests = []

    @settings(
        max_examples=200,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(graph_pi_subset())
    def check(case):
        g, pi, subset = case
        n, full = g.n, (1 << g.n) - 1
        for mode, v_subset in (("exact", range(n)), ("masked", subset)):
            tests.clear()
            _, sigma, exact, _ = _masked_search(g, pi, v_subset, DEFAULT_BUDGET)
            assert exact and list(sigma.order) == reference_min_game(g, pi, v_subset)[1], mode
            assert tests[0] == (full, True)
            tally[mode] += 1
            tally["searched" if tests[1:] else "trusted"] += 1
            tally["switched"] += any(passed for _, passed in tests[1:])

    check()
    assert min(tally[mode] for mode in ("exact", "masked")) >= 20, tally
    assert min(tally[way] for way in ("trusted", "searched", "switched")) >= 20, tally


def test_a_largest_set_that_no_order_avoids_is_caught(monkeypatch):
    """The descent must find a listed set avoidable at the root.  When
    the list, or the largest set found before the budget ran out, is a
    set that every order matches, worst_order_exact and
    worst_order_masked_min raise PropositionViolatedError, not an
    assertion that `python -O` would strip or a TypeError."""
    g, pi = generate(FamilySpec("fano")), Permutation.identity(7)

    def out_of_budget(adj, col, count, budget):
        raise adversary._BudgetExceeded(count)

    for listed in (lambda adj, col, count, budget: ([(count, None)], 1), out_of_budget):
        monkeypatch.setattr(adversary, "_max_avoidable", listed)
        for call in (lambda: worst_order_exact(g, pi), lambda: worst_order_masked_min(g, pi, [0, 5, 6])):
            with pytest.raises(PropositionViolatedError, match="^no largest avoidable set is avoidable$"):
                call()


def reversed_chain(n):
    """u_i ~ v_{n-1-i}, v_{n-2-i}: under the identity order, leaving
    v_{n-1} unmatched takes one arrival per level of an n-deep search."""
    edges = {(i, n - 1 - i) for i in range(n)} | {(i, n - 2 - i) for i in range(n - 1)}
    return BipartiteGraph.from_edges(n, sorted(edges))


def test_deep_safety_search_has_no_recursion_limit():
    n = 1500
    g, pi = reversed_chain(n), Permutation.identity(n)
    res = is_safe(g, pi, [n - 1])
    assert not res.safe
    out = greedy_match(g, res.witness, pi)
    assert out.matched_u_of_v[n - 1] is None


def test_deep_exact_search_has_no_recursion_limit():
    n = 1500
    res = worst_order_exact(reversed_chain(n), Permutation.identity(n))
    assert (res.exact, res.size) == (True, n - 1)


def test_random_regular_at_n20_is_solved_exactly():
    """The target that the search over arrivals missed: random_regular
    d=3 seed 1 at n=20 under the certified order, exact within the
    default budget, with an order that replays to its size and a size
    no smaller than the certified count."""
    g = generate(FamilySpec("random_regular", {"n": 20, "d": 3}, seed=1))
    cert = build_theorem1(g)
    res = worst_order_exact(g, cert.pi)
    assert res.exact and res.nodes_expanded <= DEFAULT_BUDGET
    assert greedy_match(g, res.sigma, cert.pi).size == res.size >= cert.guaranteed_count


def test_regular89_minimum_is_the_sum_over_its_copies():
    """Greedy's choices in one copy of regular89 never touch another, so
    at d=3 t=3 (n=27) the exact minimum is the sum of the three copies'
    exact minima, each under pi restricted to that copy: under the
    certified order and under a seeded one."""
    g = generate(FamilySpec("regular89", {"d": 3, "t": 3}))
    copy = generate(FamilySpec("regular89", {"d": 3, "t": 1}))
    for pi in (build_theorem1(g).pi, random_perm(random.Random(5), g.n)):
        res = worst_order_exact(g, pi)
        parts = [
            worst_order_exact(copy, Permutation.from_order([v - 9 * c for v in pi.order if v // 9 == c]))
            for c in range(3)
        ]
        assert res.exact and all(part.exact for part in parts)
        assert res.size == sum(part.size for part in parts)


def test_deep_safety_witness_equals_the_recursive_reference():
    """At n=400 the recursive reference still fits the recursion limit,
    and the witness the choices replay is the one it finds first."""
    n = 400
    g, pi = reversed_chain(n), Permutation.identity(n)
    res = is_safe(g, pi, [n - 1])
    assert (res.safe, list(res.witness.order)) == reference_is_safe(g, pi, [n - 1])


def test_cli_deep_safety_search_exits_zero(tmp_path, capsys):
    n = 1500
    graph = tmp_path / "chain.json"
    gio.write_graph(str(graph), reversed_chain(n))
    pi_path = tmp_path / "pi.json"
    pi_path.write_text(json.dumps(list(range(n))))
    assert main(["analyze", "safety", str(graph), "--pi", str(pi_path), "--set", str(n - 1)]) == 0
    assert json.loads(capsys.readouterr().out)["safe"] is False


def test_safety_queries_that_the_search_left_unbounded_are_decided():
    """On random_regular n=60 d=3 and n=200 d=4, seed 1, 20 priority
    orders from random.Random(1), each with a set of 2-6 vertices drawn
    from its lowest 3k ranks: is_safe decides all 20, with a witness
    that replays, and the masked minimum is exact on all 20 within
    300,000 kernel calls and agrees with it.  The search over arrivals
    for cap 1 with no budget ran for more than 10 minutes on some of
    these sets, and the one that followed it left about half of the
    masked minima inexact within 300,000 states."""
    for n, d in ((60, 3), (200, 4)):
        g = generate(FamilySpec("random_regular", {"n": n, "d": d}, seed=1))
        rng = random.Random(1)
        for _ in range(20):
            pi = random_perm(rng, n)
            k = rng.randint(2, 6)
            s = rng.sample(pi.order[n - 3 * k :], k)
            res = is_safe(g, pi, s)
            if not res.safe:
                matched = greedy_match(g, res.witness, pi).matched_u_of_v
                assert all(matched[v] is None for v in s)
            value, exact, _ = worst_order_masked_min(g, pi, s, budget=300_000)
            assert exact, (n, s)
            assert res.safe == (value >= 1)


def test_dense_and_disconnected_graphs_are_solved_within_5000_calls():
    """Two graphs that cost the search over arrivals 354,110 and 109,734
    states under the certified order: random_regular d=6 n=20 and
    regular89 d=3 t=4, the latter four disjoint copies of the gadget.
    Each is exact within a budget of 5,000 kernel calls, with an order
    that replays to its size, no smaller than the certified count."""
    for family, params in (("random_regular", {"n": 20, "d": 6}), ("regular89", {"d": 3, "t": 4})):
        g = generate(FamilySpec(family, params, seed=1))
        cert = build_theorem1(g)
        res = worst_order_exact(g, cert.pi, budget=5000)
        assert res.exact and res.nodes_expanded <= 5000, family
        assert greedy_match(g, res.sigma, cert.pi).size == res.size >= cert.guaranteed_count


def test_a_deep_augmenting_path_has_no_recursion_limit():
    """The avoidability test of t = v_{n-1} under the identity order:
    u_0 ~ v_0, v_k; u_j ~ v_j, v_{j-1} for 0 < j < k; u_k ~ v_{k-1}; all
    of them ~ t.  The greedy pass gives u_j v_j, so u_k needs the
    augmenting path u_k, v_{k-1}, u_{k-1}, ..., v_0, u_0, v_k through
    2k + 2 = 2202 vertices, 1101 of them in U.  is_safe returns the
    matching that path gives, without a RecursionError, and its witness
    replays; the other arrivals u_j ~ v_j (k < j < n - 1) and
    u_{n-1} ~ v_k have no edge into t."""
    n, k = 3000, 1100
    t = n - 1
    edges = {(0, 0), (0, k), (k, k - 1), (n - 1, k)} | {(u, t) for u in range(k + 1)}
    edges |= {(j, j) for j in range(1, n - 1) if j != k} | {(j, j - 1) for j in range(1, k)}
    g, pi = BipartiteGraph.from_edges(n, sorted(edges)), Permutation.identity(n)
    adj, col = _rank_rows(g, pi)
    full = (1 << n) - 1
    expected = {1 << k: 1, 1 << (k - 1): 1 << k} | {1 << (j - 1): 1 << j for j in range(1, k)}
    assert _avoiding_matching(adj, col, 1 << t, full, full)[1] == expected
    res = is_safe(g, pi, [t])
    assert not res.safe
    assert greedy_match(g, res.witness, pi).matched_u_of_v[t] is None


def _live_pairs(rows, mate, left, free):
    """The pairs of `mate` that count at the state (left, free), as
    {U bit: V bit}, checking that each lies in its arrival's row and
    that no arrival has two."""
    pairs = {}
    for v, w in mate.items():
        if w & left and v & free:
            assert w not in pairs and v & rows[w]
            pairs[w] = v
    return pairs


def test_each_searched_branch_is_one_augmenting_path(monkeypatch):
    """The descent decides a branch whose pick its matching gives to
    another arrival w by one augmenting path from w, by Berge's lemma,
    and keeps its matching.  Before the search the matching holds every
    arrival of the child next to the set but w; a found path gives a
    matching of all of them, and a failed search leaves the matching as
    it was.  is_safe's verdict and witness equal the recursive safety
    search's, with at least 50 searched branches passing and 50
    failing, so both outcomes of the path search are exercised."""
    searched = collections.Counter()
    augment = adversary._augment

    def counted(rows, mate, starts, left, free):
        near = {w for w in rows if w & left}
        # The kernel's fold augments with every vertex free; a branch's
        # search runs at a state, with the free V it leaves.
        if free == -1:
            return augment(rows, mate, starts, left, free)
        (start,) = starts
        assert set(_live_pairs(rows, mate, left, free)) == near - {start}
        before = dict(mate)
        found = augment(rows, mate, starts, left, free)
        if found:
            assert set(_live_pairs(rows, mate, left, free)) == near
        else:
            assert mate == before
        searched[found] += 1
        return found

    monkeypatch.setattr(adversary, "_augment", counted)

    @settings(
        max_examples=300,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(dense_graph_pi_low_set())
    def check(case):
        g, pi, subset = case
        safety = is_safe(g, pi, subset)
        witness = None if safety.witness is None else list(safety.witness.order)
        assert (safety.safe, witness) == reference_is_safe(g, pi, subset)

    check()
    assert searched[True] >= 50 and searched[False] >= 50, searched


def test_a_wrong_replay_is_caught(tmp_path, capsys, monkeypatch):
    """worst_order_exact, worst_order_masked_min and order_avoiding
    replay the order that the descent built through greedy_match.  When
    the descent returns an order that neither reaches the minimum nor
    leaves the set unmatched, all of them and is_safe raise
    PropositionViolatedError, and `adversary --exact` and `analyze
    safety` exit 3 with one stderr line."""
    g, pi, s = generate(FamilySpec("fano")), Permutation.identity(7), [5, 6]
    assert order_avoiding(g, pi, s) is not None
    least = worst_order_exact(g, pi).size
    for order in itertools.permutations(range(7)):
        out = greedy_match(g, Permutation.from_order(order), pi)
        if out.size > least and any(out.matched_u_of_v[v] is not None for v in s):
            break
    else:
        pytest.fail("no order matches more than the minimum and a vertex of s")
    monkeypatch.setattr(adversary, "_avoiding_descent", lambda adj, col, n, sets, budget=0: (list(order), 1))
    replay_failed = "^the replayed order matches [0-9]+ subset vertices, the search said [0-9]+$"
    for call in (
        lambda: worst_order_exact(g, pi),
        lambda: worst_order_masked_min(g, pi, s),
        lambda: order_avoiding(g, pi, s),
        lambda: is_safe(g, pi, s),
    ):
        with pytest.raises(PropositionViolatedError, match=replay_failed):
            call()
    graph, pi_path = tmp_path / "fano.json", tmp_path / "pi.json"
    gio.write_graph(str(graph), g)
    pi_path.write_text(json.dumps(list(pi.order)))
    for argv in (
        ["adversary", str(graph), "--pi", str(pi_path), "--exact"],
        ["analyze", "safety", str(graph), "--pi", str(pi_path), "--set", "5,6"],
    ):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("internal invariant violated: ") and err.count("\n") == 1, err
