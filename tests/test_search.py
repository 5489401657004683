"""The arrival-order search engine against the references it replaced.

The exact adversary, the masked minimum and the safety decision share
one branch-and-bound on the forced-pick and Hall bounds.  Its values,
replayed orders and safety witnesses must equal those of the unbounded
memoised game and of the recursive safety search in conftest, and the
Hall bound must be sound against that game.  It must handle inputs
far deeper than the interpreter's recursion limit.  Bounding children
in their parent's scan must change nothing but the work: against the
engine that scanned every child, values, orders and node counts are
equal and the memo holds no more lower bounds.  The order is replayed
from the branches the search recorded, without scanning a state again.
"""

import collections
import itertools
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    _reference_hall_bound,
    _ReferenceMinGame,
    brute_force_min,
    random_perm,
    random_pm_graph,
    reference_arrival_search,
    reference_is_safe,
    reference_min_game,
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
    _adj_rank_masks,
    _ArrivalSearch,
    _BudgetExceeded,
    _rank_mask,
    order_avoiding,
)
from greedyorder.cli import main
from greedyorder.errors import PropositionViolatedError


@st.composite
def graph_pi_subset(draw):
    """A random perfect-matching graph with n <= 10, a random priority
    order and a nonempty subset of the right side: either any subset or
    the lowest-priority vertices, which are the likeliest to be unsafe."""
    rng = draw(st.randoms(use_true_random=True))
    n = draw(st.integers(1, 10))
    g = random_pm_graph(rng, n, extra=rng.randrange(0, 2 * n))
    pi = random_perm(rng, n)
    k = min(rng.randint(1, n), rng.randint(1, n))
    if draw(st.booleans()):
        subset = sorted(pi.order[n - k :])
    else:
        subset = sorted(rng.sample(range(n), k))
    return g, pi, subset


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

        search = _ArrivalSearch(_adj_rank_masks(g, pi), n, (1 << n) - 1, math.inf)
        assert search.value(n + 1) == ref_size
        seen["bound cut-off"] += bool(search.cuts)
        seen["unsafe"] += not safety.safe
        seen["safe"] += safety.safe

    check()
    assert seen["bound cut-off"] >= 20, seen
    assert seen["unsafe"] >= 20 and seen["safe"] >= 20, seen


def test_engine_equals_the_child_scanning_engine():
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
        for mode, v_subset, cap in (
            ("exact", range(n), n + 1),
            ("masked", subset, n + 1),
            ("decision", subset, 1),
        ):
            ref_value, ref_order, ref_nodes, ref_lower = reference_arrival_search(
                g, pi, v_subset, cap
            )
            adj, count_mask = _adj_rank_masks(g, pi), _rank_mask(pi, v_subset)
            search = _ArrivalSearch(adj, n, count_mask, math.inf)
            value = search.value(cap)
            order = search.replay() if value < cap else None
            assert (value, order, search.nodes) == (ref_value, ref_order, ref_nodes), mode
            lower = sum(1 for v in search.memo.values() if v < 0)
            assert lower <= ref_lower, mode
            tally[mode + " lower"] += lower
            tally[mode + " reference lower"] += ref_lower
            tally[mode + " cuts"] += search.cuts
            # The budget still counts expanded states: the search's own
            # count suffices, and one less stops it there.
            assert _ArrivalSearch(adj, n, count_mask, ref_nodes).value(cap) == ref_value
            if ref_nodes:
                short = _ArrivalSearch(adj, n, count_mask, ref_nodes - 1)
                with pytest.raises(_BudgetExceeded):
                    short.value(cap)
                assert short.nodes == ref_nodes

    check()
    for mode in ("exact", "masked", "decision"):
        assert tally[mode + " cuts"] > 0, tally
        assert tally[mode + " lower"] < tally[mode + " reference lower"], tally


def test_the_hall_bound_is_sound():
    """`_scan` raises a state's bound from 0 to 1 by Hall's theorem only
    when no completion of the state leaves the subset unmatched.  At the
    root and at every state along a drawn arrival order, wherever the
    bound fires, the unbounded reference game's masked minimum from that
    state is at least 1, and at every state with branches it agrees with
    the reference's Hall bound.  With every vertex counted it never
    fires."""
    fired = collections.Counter()

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
        adj, count_mask = _adj_rank_masks(g, pi), _rank_mask(pi, subset)
        game = _ReferenceMinGame(adj, n, count_mask)
        order = list(range(n))
        rng.shuffle(order)
        u_mask = v_mask = 0
        for step, u in enumerate(order):
            alive, free = full ^ u_mask, full ^ v_mask
            _, branches, slb, lb = adversary._scan(adj, alive, free, count_mask)
            assert lb == slb or (slb, lb) == (0, 1)
            if branches:
                assert lb == max(slb, _reference_hall_bound(adj, alive, free, count_mask))
            if lb > slb:
                assert game.value(u_mask, v_mask) >= 1
                fired["root" if not step else "inner"] += 1
            _, _, slb, lb = adversary._scan(adj, alive, free, full)
            assert lb == slb
            m = adj[u] & free
            u_mask |= 1 << u
            v_mask |= m & -m

    check()
    assert fired["root"] >= 10 and fired["inner"] >= 10, fired


def test_replay_follows_the_recorded_choices(monkeypatch):
    """`value` records each state's chosen branch, so `replay` scans no
    state again: with the scan disabled after the search, the replayed
    orders still equal the reference engine's in every mode."""
    tally = collections.Counter()

    def no_scan(*args):
        raise AssertionError("replay scanned a state")

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
            ref_value, ref_order, _, _ = reference_arrival_search(g, pi, v_subset, cap)
            search = _ArrivalSearch(_adj_rank_masks(g, pi), n, _rank_mask(pi, v_subset), math.inf)
            assert search.value(cap) == ref_value
            if ref_order is not None:
                with monkeypatch.context() as patch:
                    patch.setattr(adversary, "_scan", no_scan)
                    assert search.replay() == ref_order, mode
                tally[mode] += 1

    check()
    assert min(tally[mode] for mode in ("exact", "masked", "decision")) >= 20, tally


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
        adj, count_mask = _adj_rank_masks(g, pi), _rank_mask(pi, subset)
        fresh = _ArrivalSearch(adj, n, count_mask, math.inf)
        value = fresh.value(n + 1)
        reused = _ArrivalSearch(adj, n, count_mask, math.inf)
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


def test_a_wrong_replay_is_caught(tmp_path, capsys, monkeypatch):
    """worst_order_exact, worst_order_masked_min and order_avoiding
    replay the order the search rebuilt through greedy_match.  When
    `replay` returns an order that neither reaches the minimum nor leaves
    the set unmatched, all three raise PropositionViolatedError, and
    `adversary --exact` and `analyze safety` exit 3 with one stderr line."""
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
