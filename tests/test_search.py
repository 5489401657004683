"""The arrival-order search engine and the safety decision against the
references they replaced.

The exact adversary and the masked minimum share one search over V in
pi order, and the safety decision is one matching, by the avoidability
lemma of the `adversary` docstring.  The V-side lemma is checked first:
the plain V-side recursion in conftest equals the factorial sweep and
the exhaustive arrival game, greedy's matching is the V-side process
under any arrival order, and any V-side run is greedy's matching under
the order that `_planned_order` builds from it.  The engine's values,
orders and safety witnesses must equal those of the exhaustive game, of
the recursive safety search and of the branch-and-bound over arrivals
in conftest, in no more states than the exhaustive game, and its bounds
and the avoidability test must be sound against that game at every
state.  The order comes from a descent over arrivals that trusts the
incumbent matching where it can; the safety descent decides each other
branch by one augmenting path against it.  The engine must handle
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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    _ReferenceMinGame,
    brute_force_min,
    random_perm,
    random_pm_graph,
    reference_arrival_search,
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
    _ArrivalSearch,
    _BudgetExceeded,
    _avoiding_matching,
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


def _search(g, pi, count_mask, budget=math.inf):
    """The engine on (g, pi), counting the ranks in count_mask."""
    adj, col = _rank_rows(g, pi)
    return _ArrivalSearch(adj, g.n, count_mask, budget, col)


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
        ref_size, ref_order, ref_nodes = reference_min_game(g, pi, range(n))
        res = worst_order_exact(g, pi)
        assert res.exact
        assert (res.size, list(res.sigma.order)) == (ref_size, ref_order)
        assert res.nodes_expanded <= ref_nodes
        if n <= 7:
            assert res.size == brute_force_min(g, pi)

        masked, exact, _ = worst_order_masked_min(g, pi, subset)
        assert exact
        assert masked == reference_min_game(g, pi, subset)[0]

        safety = is_safe(g, pi, subset)
        witness = None if safety.witness is None else list(safety.witness.order)
        assert (safety.safe, witness) == reference_is_safe(g, pi, subset)
        assert safety.safe == (masked >= 1)

        search = _search(g, pi, (1 << n) - 1)
        assert search.value(n + 1) == ref_size
        seen["bound cut-off"] += bool(search.cuts)
        seen["unsafe"] += not safety.safe
        seen["safe"] += safety.safe

    check()
    assert seen["bound cut-off"] >= 20, seen
    assert seen["unsafe"] >= 20 and seen["safe"] >= 20, seen


def test_engine_equals_the_child_scanning_engine():
    """The search over arrivals that the V-side engine replaced gives the
    same values below the cap and the same orders in every mode, and the
    V-side engine, value and descent together, expands no more states
    than the exhaustive game.  The budget counts expanded states: the
    search's own count suffices, and one less stops it there."""
    tally = collections.Counter()

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
        states = {"exact": reference_min_game(g, pi, range(n))[2]}
        states["masked"] = states["decision"] = reference_min_game(g, pi, subset)[2]
        for mode, v_subset, cap in (
            ("exact", range(n), n + 1),
            ("masked", subset, n + 1),
            ("decision", subset, 1),
        ):
            ref_value, ref_order, _, _ = reference_arrival_search(g, pi, v_subset, cap)
            count_mask = _rank_mask(pi, v_subset)
            search = _search(g, pi, count_mask)
            value = search.value(cap)
            nodes = search.nodes
            order = search.replay() if value < cap else None
            assert (min(value, cap), order) == (min(ref_value, cap), ref_order), mode
            assert search.nodes <= states[mode], mode
            tally[mode + " cuts"] += search.cuts
            assert _search(g, pi, count_mask, nodes).value(cap) == value
            if nodes:
                short = _search(g, pi, count_mask, nodes - 1)
                with pytest.raises(_BudgetExceeded):
                    short.value(cap)
                assert short.nodes == nodes

    check()
    for mode in ("exact", "masked", "decision"):
        assert tally[mode + " cuts"] > 0, tally


def test_the_budget_covers_the_descent():
    """`budget` bounds the states that the value and the descent expand
    together.  On fano under the identity order the value takes 8 states
    and the descent 3 more: a budget of 11 is exact, and one of 10, which
    the value alone fits, falls back to the inexact heuristic."""
    g, pi = generate(FamilySpec("fano")), Permutation.identity(7)
    search = _search(g, pi, (1 << 7) - 1)
    value = search.value(8)
    assert search.nodes == 8
    search.replay()
    assert search.nodes == 11
    res = worst_order_exact(g, pi, budget=11)
    assert (res.size, res.exact, res.nodes_expanded) == (value, True, 11)
    res = worst_order_exact(g, pi, budget=10)
    assert (res.exact, res.nodes_expanded) == (False, 10 + 4000)
    assert greedy_match(g, res.sigma, pi).size == res.size >= value


def test_the_hall_bound_is_sound():
    """At the root and at every state along a drawn arrival order, the
    V-side state that `_take` builds holds the free neighbours of each
    arrival left and has the unbounded game's value from there.  Its
    forced picks bound that value from below, a state with no counted
    vertex left has value 0, and the avoidability test of the arrivals
    left and the free V returns a matching exactly when the value is 0,
    with a subset counted or every vertex.  With a subset, both outcomes
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
            search = _ArrivalSearch(adj, n, count_mask, math.inf, col)
            state, u_mask, v_mask = search.root, 0, 0
            for u in order:
                value = game.value(u_mask, v_mask)
                vl, uf, forced = state
                assert search.value(n + 1, state) == value
                assert (forced & count_mask).bit_count() <= value
                if not vl & count_mask:
                    assert value == 0
                kernel = _avoiding_matching(adj, col, count_mask, full ^ u_mask, full ^ v_mask)
                assert (kernel is not None) == (value == 0)
                if count_mask != full:
                    outcomes["avoidable" if kernel is not None else "safe"] += 1
                m = adj[u] & vl
                assert m == adj[u] & ~v_mask and bool(m) == bool(uf >> u & 1)
                if m:
                    state = search._take(vl, uf, forced, m & -m, 1 << u)
                u_mask, v_mask = u_mask | 1 << u, v_mask | m & -m

    check()
    assert outcomes["avoidable"] >= 10 and outcomes["safe"] >= 10, outcomes


def test_replay_follows_the_recorded_choices(monkeypatch):
    """`replay` descends over arrivals from the optimum that `value`
    recorded: in every mode its order is the exhaustive game's, the first
    optimal branch sequence.  A branch that the incumbent matching takes
    is followed with no search, so some replays search nothing; others
    search an earlier branch and, where it is optimal, switch to the
    matching recorded below it."""
    tally = collections.Counter()

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
        n = g.n
        for mode, v_subset, cap in (
            ("exact", range(n), n + 1),
            ("masked", subset, n + 1),
            ("decision", subset, 1),
        ):
            ref_value, ref_order, _ = reference_min_game(g, pi, v_subset)
            search = _search(g, pi, _rank_mask(pi, v_subset))
            assert (search.value(cap) < cap) == (ref_value < cap)
            if ref_value < cap:
                below, real = [], _ArrivalSearch.value

                def recorded(self, cap, state=None):
                    value = real(self, cap, state)
                    below.append(value < cap)
                    return value

                with monkeypatch.context() as patch:
                    patch.setattr(_ArrivalSearch, "value", recorded)
                    assert search.replay() == ref_order, mode
                tally[mode] += 1
                tally["searched" if below else "trusted"] += 1
                tally["switched"] += any(below)

    check()
    assert min(tally[mode] for mode in ("exact", "masked", "decision")) >= 20, tally
    assert min(tally[way] for way in ("trusted", "searched", "switched")) >= 20, tally


def test_a_search_reused_under_a_higher_cap_stays_exact():
    """The memo tags lower bounds apart from exact values.  Within one
    call a stored lower bound is never entered again under a higher cap,
    but a second call on the same search is: after the decision at cap 1,
    the uncapped minimum and its order equal a fresh search's."""
    reopened = 0

    @settings(
        max_examples=200,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(graph_pi_subset())
    def check(case):
        nonlocal reopened
        g, pi, subset = case
        n = g.n
        count_mask = _rank_mask(pi, subset)
        fresh = _search(g, pi, count_mask)
        value = fresh.value(n + 1)
        reused = _search(g, pi, count_mask)
        reused.value(1)
        lower = sum(1 for v in reused.memo.values() if v < 0)
        assert reused.value(n + 1) == value
        assert reused.replay() == fresh.replay()
        reopened += lower > sum(1 for v in reused.memo.values() if v < 0)

    check()
    assert reopened >= 5, reopened


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
    that replays, and agrees with the masked minimum wherever that is
    exact within 300,000 states.  The search for cap 1 with no budget ran
    for more than 10 minutes on some of these sets."""
    for n, d in ((60, 3), (200, 4)):
        g = generate(FamilySpec("random_regular", {"n": n, "d": d}, seed=1))
        rng = random.Random(1)
        checked = 0
        for _ in range(20):
            pi = random_perm(rng, n)
            k = rng.randint(2, 6)
            s = rng.sample(pi.order[n - 3 * k :], k)
            res = is_safe(g, pi, s)
            if not res.safe:
                matched = greedy_match(g, res.witness, pi).matched_u_of_v
                assert all(matched[v] is None for v in s)
            value, exact, _ = worst_order_masked_min(g, pi, s, budget=300_000)
            if exact:
                assert res.safe == (value >= 1)
                checked += 1
        assert checked >= 10, (n, checked)


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
        if starts is rows:
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
    """worst_order_exact and worst_order_masked_min replay the order the
    search rebuilt through greedy_match, and order_avoiding the order its
    descent built.  When `replay` returns an order that does not reach
    the minimum, and the descent one that does not leave the set
    unmatched, all of them and is_safe raise PropositionViolatedError,
    and `adversary --exact` and `analyze safety` exit 3 with one stderr
    line."""
    g, pi, s = generate(FamilySpec("fano")), Permutation.identity(7), [5, 6]
    assert order_avoiding(g, pi, s) is not None
    least = worst_order_exact(g, pi).size
    for order in itertools.permutations(range(7)):
        out = greedy_match(g, Permutation.from_order(order), pi)
        if out.size > least and any(out.matched_u_of_v[v] is not None for v in s):
            break
    else:
        pytest.fail("no order matches more than the minimum and a vertex of s")
    monkeypatch.setattr(_ArrivalSearch, "replay", lambda self: list(order))
    monkeypatch.setattr(adversary, "_avoiding_descent", lambda adj, col, n, t_mask: list(order))
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
