"""Counting bounds, safety search, bad-set enumeration, simulations, and
the two-reading cross check."""

import collections
import itertools
import json
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    outcome,
    random_perm,
    random_pm_graph,
    reference_is_safe,
    reference_bound_exponents,
    reference_monte_carlo,
)

from greedyorder import (
    AnalysisParams,
    BipartiteGraph,
    FamilySpec,
    Permutation,
    bound_exponents,
    cross_check_interpretations,
    entropy,
    enumerate_bad_sets,
    find_perfect_matching,
    generate,
    greedy_match,
    is_safe,
    iterative_process,
    monte_carlo_random_pi,
    worst_order_exact,
)
from greedyorder.errors import (
    AnalysisParamError,
    DimensionMismatchError,
    FamilyShapeError,
    NoPerfectMatchingError,
    PropositionViolatedError,
    UsageError,
)
from greedyorder import adversary, analysis
from greedyorder import io as gio
from greedyorder.cli import main

mpmath.mp.dps = 40


def mp_entropy(p):
    if p in (0, 1):
        return 0.0
    p = mpmath.mpf(p)
    return float(-p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2))


# --- entropy and exponent report ------------------------------------------


def test_entropy_reference_points():
    assert entropy(0.0) == 0.0
    assert entropy(1.0) == 0.0
    assert entropy(0.5) == 1.0
    assert abs(entropy(0.25) - 0.8112781244591328) < 1e-15
    assert abs(entropy(0.11) - mp_entropy(0.11)) < 1e-14
    assert abs(entropy(0.11) - 0.49999) < 1e-4


def test_entropy_against_high_precision_grid():
    for i in range(1, 50):
        p = i / 50
        assert abs(entropy(p) - mp_entropy(p)) < 1e-14
        assert abs(entropy(p) - entropy(1 - p)) < 1e-15


def test_entropy_domain():
    with pytest.raises(AnalysisParamError):
        entropy(-0.01)
    with pytest.raises(AnalysisParamError):
        entropy(1.01)


def test_params_validation_and_derived_values():
    p = AnalysisParams("0.0012", "0.245", "0.3675")
    assert p.eps == Fraction(3, 2500)
    assert p.rho == Fraction(1253, 2500)
    assert p.rho_bar == Fraction(1247, 2500)
    assert p.delta == Fraction(49, 400)
    assert p.flags() == ("delta_not_below_half_alpha",)
    with pytest.raises(AnalysisParamError):
        AnalysisParams("-0.1", "0.2", "0.3")
    with pytest.raises(AnalysisParamError):
        AnalysisParams("0.1", "0.3", "0.2")
    with pytest.raises(AnalysisParamError):
        AnalysisParams("0.1", "0.0", "0.2")
    with pytest.raises(AnalysisParamError):
        AnalysisParams(0.1, 0.2, 0.3)  # bare floats are ambiguous


def test_eps_premise_flag():
    p = AnalysisParams("0.25", "0.3", "0.4")
    assert "eps_premise_exceeded" in p.flags()


def test_exponent_regression_values():
    r = bound_exponents(AnalysisParams("0.0012", "0.245", "0.3675"))
    assert abs(r.badset_exp - 0.043881469071945914) < 1e-12
    assert abs(r.order_exp - -0.045086811341690004) < 1e-12
    assert abs(r.expansion_exp_literal - -0.13558645018459858) < 1e-12
    assert abs(r.expansion_exp_rescaled - -0.00010814633101333060) < 1e-12
    assert abs(r.combined_order - -0.0012053422697440901) < 1e-12
    assert abs(r.combined_expansion - -0.091704981112652666) < 1e-12
    assert r.flags == ("delta_not_below_half_alpha",)
    assert r.badset_exp + r.order_exp == r.combined_order


def test_badset_exp_zero_at_zero_eps():
    r = bound_exponents(AnalysisParams(0, "0.245", "0.3675"))
    assert r.badset_exp == 0.0
    assert r.combined_order < 0


def test_badset_exp_monotone_in_eps():
    values = [
        bound_exponents(AnalysisParams(Fraction(t, 10000), "0.245", "0.3675")).badset_exp
        for t in (0, 3, 6, 12, 24)
    ]
    assert values == sorted(values)


def test_exponent_premises_raise():
    # alpha at least rho_bar starves the order estimate
    with pytest.raises(AnalysisParamError):
        bound_exponents(AnalysisParams(0, "0.6", "0.7"))
    # beta*rho_bar must exceed alpha*rho
    with pytest.raises(AnalysisParamError):
        bound_exponents(AnalysisParams("0.2", "0.45", "0.46"))


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(
    st.fractions(min_value=0, max_value=Fraction(1, 4), max_denominator=400),
    st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=400),
    st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=400),
)
# One example per rejected domain: the order premise, alpha >= rho_bar,
# and five entropy arguments above 1; and the regression setting.
@example(Fraction(1, 5), Fraction(9, 20), Fraction(1, 100))
@example(Fraction(0), Fraction(3, 5), Fraction(1, 10))
@example(Fraction(1, 5), Fraction(1, 20), Fraction(3, 20))
@example(Fraction(0), Fraction(9, 20), Fraction(3, 20))
@example(Fraction(0), Fraction(1, 10), Fraction(1, 5))
@example(Fraction(0), Fraction(3, 10), Fraction(3, 10))
@example(Fraction(1, 10), Fraction(3, 10), Fraction(1, 5))
@example(Fraction(3, 2500), Fraction(49, 200), Fraction(49, 400))
def test_bound_exponents_equal_the_reference_bit_for_bit(eps, alpha, delta):
    """Every float of the report, and every rejection's class and message,
    equal those of the formulas that evaluate each entropy term in place."""
    assume(0 < alpha and 0 < delta and alpha + delta < 1)
    params = AnalysisParams(eps, alpha, alpha + delta)
    got = outcome(bound_exponents, params)
    assert repr(got) == repr(outcome(reference_bound_exponents, params))


# --- safety and bad sets ---------------------------------------------------


def fig1():
    return generate(FamilySpec("fig1"))


def test_safety_worked_example():
    g = fig1()
    res = is_safe(g, Permutation.from_order([2, 1, 0]), {0})
    assert not res.safe
    assert res.witness.order == (0, 2, 1)
    out = greedy_match(g, res.witness, Permutation.from_order([2, 1, 0]))
    assert out.matched_u_of_v[0] is None


def test_empty_set_is_safe_by_convention():
    g = fig1()
    res = is_safe(g, Permutation.identity(3), set())
    assert res.safe and res.witness is None


def test_safety_rejects_foreign_vertices():
    with pytest.raises(AnalysisParamError):
        is_safe(fig1(), Permutation.identity(3), {3})


def test_a_vertex_or_size_that_is_not_an_int_is_rejected():
    """A bool, float or str is no vertex and no set size, as in
    `Permutation.from_order`: is_safe, worst_order_masked_min and
    order_avoiding reject it in a subset, and enumerate_bad_sets as a
    size, with AnalysisParamError, not a TypeError or True read as 1."""
    g, pi = generate(FamilySpec("fano")), Permutation.identity(7)
    for bad in (1.0, True, "1"):
        for call in (
            lambda: is_safe(g, pi, [bad]),
            lambda: adversary.worst_order_masked_min(g, pi, [bad]),
            lambda: adversary.order_avoiding(g, pi, [bad]),
            lambda: enumerate_bad_sets(g, bad),
        ):
            with pytest.raises(AnalysisParamError, match="int"):
                call()


def static_bad(g, s):
    """Set-is-bad oracle: some maximal matching of g avoids s entirely.

    Enumerates matchings recursively and checks maximality on the full
    graph at the leaves; independent of both the safety search and
    greedy replay.
    """
    n = g.n
    s = set(s)

    def rec(u, used):
        if u == n:
            matched_u = set(used.values())
            for x in range(n):
                if x in matched_u:
                    continue
                if any(v not in used for v in g.adj_u[x]):
                    return False
            return True
        if rec(u + 1, used):  # leave u unmatched
            return True
        for v in g.adj_u[u]:
            if v not in used and v not in s:
                used[v] = u
                ok = rec(u + 1, used)
                del used[v]
                if ok:
                    return True
        return False

    return rec(0, {})


def brute_bad(g, s):
    """Ground truth at tiny n: try every (pi, sigma) pair."""
    n = g.n
    for po in itertools.permutations(range(n)):
        pi = Permutation.from_order(po)
        for so in itertools.permutations(range(n)):
            out = greedy_match(g, Permutation.from_order(so), pi)
            if all(out.matched_u_of_v[v] is None for v in s):
                return True
    return False


def test_bad_sets_match_static_oracle():
    rng = random.Random(211)
    graphs = [fig1(), generate(FamilySpec("badset_chain", {"copies": 1}))]
    for _ in range(8):
        graphs.append(random_pm_graph(rng, rng.randrange(3, 6)))
    for g in graphs:
        for size in (1, 2):
            report = enumerate_bad_sets(g, size, mode="full_pi")
            expected = {
                s
                for s in itertools.combinations(range(g.n), size)
                if static_bad(g, s)
            }
            assert set(report.bad_sets) == expected
            for s in report.bad_sets:
                pi_w, sigma_w = report.witnesses[s]
                out = greedy_match(g, sigma_w, pi_w)
                assert all(out.matched_u_of_v[v] is None for v in s)


def test_bad_sets_match_pair_brute_at_tiny_n():
    rng = random.Random(223)
    for _ in range(6):
        g = random_pm_graph(rng, 4)
        report = enumerate_bad_sets(g, 2, mode="full_pi")
        expected = {
            s for s in itertools.combinations(range(4), 2) if brute_bad(g, s)
        }
        assert set(report.bad_sets) == expected


def test_canonical_mode_agrees_with_full_on_small_corpus(corpus):
    for inst in corpus:
        g = inst.graph
        if g.n > 6:
            continue
        for size in (1, 2):
            if size > g.n:
                continue
            full = enumerate_bad_sets(g, size, mode="full_pi")
            canon = enumerate_bad_sets(g, size, mode="canonical_pi")
            assert set(full.bad_sets) == set(canon.bad_sets), inst.instance_id


def test_fig1_singletons_all_bad():
    report = enumerate_bad_sets(fig1(), 1, mode="full_pi")
    assert set(report.bad_sets) == {(0,), (1,), (2,)}


def test_chain1_bad_pairs_exact():
    g = generate(FamilySpec("badset_chain", {"copies": 1}))
    report = enumerate_bad_sets(g, 2, mode="full_pi")
    assert set(report.bad_sets) == {(0, 1), (0, 2)}


def test_full_pi_builds_the_orders_only_for_a_set_that_needs_them(monkeypatch):
    """The census builds the label rows by one `_rank_rows` call per
    graph and decides each set once, by one `_avoiding_extension` call
    from its prefix's test, with the verdict of its set-last order; a set
    is tested only when every set it extends passed, so a pair only when
    both its vertices passed alone.  Every pair of this graph is safe
    under every pi, so the census builds no order, probes none and makes
    no `_rank_rows` call for a set.  chain1 has unsafe pairs and reports
    them as before; each witness pi is built one position at a time, and
    only it and its sigma are built, so no list of all n! orders is.  Only
    the candidates in the set are probed, so a bad set T costs at most |T|
    probes a position."""
    safe = generate(FamilySpec("hamiltonian_random", {"n": 5, "extra_edges": 2}, seed=1))
    chain1 = generate(FamilySpec("badset_chain", {"copies": 1}))
    built, ranked, decided, probes, exposing = [], [], [], [], []
    from_order, rank_rows = Permutation.from_order, analysis._rank_rows
    extend, probe, first = (
        adversary._avoiding_extension, analysis._avoiding_matching, analysis._first_exposing_pi
    )

    def extend_logged(adj, col, rows, mate, c, keep, left):
        # The census keeps c's neighbours' rows off c, where a probe's fold
        # keeps them below c.  Each census row is its arrival's neighbours
        # less T, and every vertex here has a neighbour, so T + c is c and
        # the neighbours that the rows lack.
        t = c
        for u_bit, row in rows.items():
            t |= adj[u_bit.bit_length() - 1] & ~row
        kernel = extend(adj, col, rows, mate, c, keep, left)
        if keep == ~c:
            decided.append((t, kernel is not None))
        return kernel

    monkeypatch.setattr(
        Permutation, "from_order", lambda order: built.append(list(order)) or from_order(order)
    )
    monkeypatch.setattr(
        analysis, "_rank_rows", lambda g, pi: ranked.append(pi.order) or rank_rows(g, pi)
    )
    monkeypatch.setattr(adversary, "_avoiding_extension", extend_logged)
    monkeypatch.setattr(
        analysis, "_first_exposing_pi", lambda adj, col, s: exposing.append(s) or first(adj, col, s)
    )
    monkeypatch.setattr(
        analysis, "_avoiding_matching", lambda *args: probes.append(exposing[-1]) or probe(*args)
    )

    def labels(mask):
        return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)

    def check_decided(g):
        """Each set decided once, with its set-last verdict; every
        vertex is decided alone, and the pairs decided are those whose
        vertices both passed alone."""
        n = g.n
        sets = [labels(t) for t, _ in decided]
        assert len(set(sets)) == len(sets)
        passed = {labels(t) for t, ok in decided if ok}
        assert {s for s in sets if len(s) == 1} == {(v,) for v in range(n)}
        pairs = {(a, b) for a, b in itertools.combinations(range(n), 2) if {(a,), (b,)} <= passed}
        assert {s for s in sets if len(s) == 2} == pairs
        for s in sets:
            pi = Permutation.from_order([v for v in range(n) if v not in s] + list(s))
            assert (s in passed) == (adversary.order_avoiding(g, pi, s) is not None)
        return {s for s in passed if len(s) == 2}

    assert enumerate_bad_sets(safe, 2, mode="full_pi").bad_sets == ()
    assert (built, probes, ranked) == ([], [], [tuple(range(5))])
    assert check_decided(safe) == set()
    for log in (built, ranked, decided):
        log.clear()
    n = chain1.n
    report = enumerate_bad_sets(chain1, 2, mode="full_pi")
    assert set(report.bad_sets) == {(0, 1), (0, 2)}
    assert len(built) == 2 * len(report.bad_sets)
    assert ranked == [tuple(range(n))]
    assert 0 < len(probes) <= len(report.bad_sets) * 2 * n
    # For a bad set, each position tests, in label order, the free
    # vertices of the set up to the one it takes, and no vertex outside
    # the set.
    expected = []
    for t in report.bad_sets:
        w = report.witnesses[t][0].order
        expected += [t for k, x in enumerate(w) for v in t if v <= x and v not in w[:k]]
    assert [labels(s) for s in probes] == expected
    assert check_decided(chain1) == set(report.bad_sets)


def test_full_pi_runs_one_descent_per_bad_set(monkeypatch):
    """Both modes decide each set by the census's avoidability test and
    run the witness descent only for a bad set, under the order it
    reports, not under the set-last order as well.  All 36 pairs of this
    graph are bad, so each census makes 36 descents; a graph whose pairs
    are all safe makes none."""
    g = generate(FamilySpec("random_regular", {"n": 9, "d": 3}, seed=1))
    descents = []
    descend = analysis._avoiding_descent
    monkeypatch.setattr(
        analysis,
        "_avoiding_descent",
        lambda adj, col, v_mask, sets, **kw: descents.append(sets)
        or descend(adj, col, v_mask, sets, **kw),
    )
    for mode in ("full_pi", "canonical_pi"):
        report = enumerate_bad_sets(g, 2, mode=mode)
        assert len(report.bad_sets) == math.comb(9, 2)
        assert len(descents) == len(report.bad_sets)
        descents.clear()
    safe = generate(FamilySpec("hamiltonian_random", {"n": 5, "extra_edges": 2}, seed=1))
    for mode in ("full_pi", "canonical_pi"):
        assert enumerate_bad_sets(safe, 2, mode=mode).bad_sets == ()
    assert descents == []


def test_a_vertex_outside_the_set_extends_every_exposing_prefix():
    """The rule `_first_exposing_pi` probes by: if the prefix P, then the
    other vertices outside T, then the rest of T, exposes T, then so does
    P followed by any v outside T and P.  v only reorders the block
    outside T after P, that block keeps its positions, and every rank
    bound of the avoidability test lies in P or in the tail of T.  Each
    walk grows an exposing prefix, by a vertex of T when one keeps T
    exposed, so that prefixes holding vertices of T are checked too."""
    rng = random.Random(241)
    pairs = prefixes = holding_t = 0
    while pairs < 2000:
        n = rng.randrange(2, 9)
        g = random_pm_graph(rng, n, extra=rng.randrange(n, 3 * n))
        t = set(rng.sample(range(n), rng.randrange(1, min(3, n))))

        def exposes(prefix):
            tail = sorted((v for v in range(n) if v not in prefix), key=t.__contains__)
            pi = Permutation.from_order(prefix + tail)
            return adversary.order_avoiding(g, pi, sorted(t)) is not None

        prefix, outside = [], [v for v in range(n) if v not in t]
        while outside and exposes(prefix):
            prefixes += 1
            holding_t += not t.isdisjoint(prefix)
            for v in outside:
                assert exposes(prefix + [v]), (g.edges, sorted(t), prefix, v)
                pairs += 1
            grow = [v for v in sorted(t - set(prefix)) if exposes(prefix + [v])]
            prefix.append(rng.choice(grow or outside))
            outside = [v for v in outside if v not in prefix]
    assert 4 * holding_t >= prefixes, (holding_t, prefixes)


def test_every_exposed_set_is_exposed_by_the_set_last_order():
    """The corollary of the avoidability lemma: moving a set to the end
    of pi only loosens the test, so full_pi and canonical_pi list the
    same bad sets, and each full_pi witness pi is the first order, in
    itertools.permutations order, under which the recursive reference
    finds the set unsafe, with the reference's witness as sigma.  At
    n <= 5 the reference also finds every set the census leaves out safe
    under every order."""
    seen = collections.Counter()

    @settings(
        max_examples=150,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.randoms(use_true_random=True), st.integers(1, 6), st.integers(1, 3))
    def check(rng, n, size):
        g = random_pm_graph(rng, n, extra=rng.randrange(0, 2 * n))
        size = min(size, n)
        full = enumerate_bad_sets(g, size, mode="full_pi")
        assert full.bad_sets == enumerate_bad_sets(g, size, mode="canonical_pi").bad_sets
        orders = [Permutation.from_order(p) for p in itertools.permutations(range(n))]
        for s in itertools.combinations(range(n), size):
            if s in full.witnesses:
                pi, sigma = full.witnesses[s]
                first = next(p for p in orders if not reference_is_safe(g, p, s)[0])
                assert pi.order == first.order
                assert reference_is_safe(g, pi, s) == (False, list(sigma.order))
                seen["bad"] += 1
            elif n <= 5:
                assert all(reference_is_safe(g, p, s)[0] for p in orders)
                seen["safe"] += 1

    check()
    assert seen["bad"] >= 50 and seen["safe"] >= 50, seen


def test_census_agrees_with_the_recursive_reference():
    """Both census modes against the recursive reference, on random
    graphs with n <= 9 that may have empty rows, isolated vertices and no
    perfect matching, at every size up to 4: each reported set is unsafe
    under its witness pi, with the reference's witness as sigma, and each
    set left out is safe under the order that puts it last."""
    seen = collections.Counter()

    @settings(
        max_examples=120,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.randoms(use_true_random=True), st.integers(1, 9), st.floats(0.0, 0.6))
    def check(rng, n, density):
        edges = [(u, v) for u in range(n) for v in range(n) if rng.random() < density]
        g = BipartiteGraph.from_edges(n, edges)
        seen["empty row"] += any(not row for row in g.adj_u)
        seen["no perfect matching"] += isinstance(outcome(find_perfect_matching, g), tuple)
        for size in range(1, min(n, 4) + 1):
            for mode in ("full_pi", "canonical_pi"):
                report = enumerate_bad_sets(g, size, mode=mode)
                for s in itertools.combinations(range(n), size):
                    if s in report.witnesses:
                        pi, sigma = report.witnesses[s]
                        assert reference_is_safe(g, pi, s) == (False, list(sigma.order))
                        seen["bad"] += 1
                    else:
                        rest = [v for v in range(n) if v not in s]
                        assert reference_is_safe(g, Permutation.from_order(rest + list(s)), s)[0]
                        seen["safe"] += 1
                assert report.bad_sets == tuple(sorted(report.witnesses))

    check()
    assert min(seen.values()) >= 20, seen


def test_enumerate_bad_sets_guards():
    g = fig1()
    with pytest.raises(AnalysisParamError):
        enumerate_bad_sets(g, 0)
    with pytest.raises(AnalysisParamError):
        enumerate_bad_sets(g, 4)
    with pytest.raises(UsageError):
        enumerate_bad_sets(g, 1, mode="psychic")
    # full_pi decides each set as canonical_pi does, at any n.
    big = generate(FamilySpec("biclique_half", {"n": 10}))
    full = enumerate_bad_sets(big, 2, mode="full_pi")
    assert full.bad_sets == enumerate_bad_sets(big, 2, mode="canonical_pi").bad_sets
    for s in full.bad_sets:
        pi, sigma = full.witnesses[s]
        out = greedy_match(big, sigma, pi)
        assert all(out.matched_u_of_v[v] is None for v in s)


# --- simulations -----------------------------------------------------------


def test_monte_carlo_exact_on_six_cycle():
    g = fig1()
    s = monte_carlo_random_pi(g, trials=25, adversary_mode="exact", seed=1)
    # every priority order of the six-cycle pins the adversary at 2
    assert s.trials == 25
    assert s.mean_size == 2.0 and s.min_size == 2
    assert s.mean_fraction == pytest.approx(2 / 3)
    assert s.min_fraction == pytest.approx(2 / 3)
    assert s.stddev_fraction == 0.0
    assert not s.upper_bound_only


def test_monte_carlo_is_deterministic():
    g = generate(FamilySpec("biclique_half", {"n": 8}))
    a = monte_carlo_random_pi(g, trials=30, adversary_mode="exact", seed=9)
    b = monte_carlo_random_pi(g, trials=30, adversary_mode="exact", seed=9)
    assert a == b
    c = monte_carlo_random_pi(g, trials=30, adversary_mode="exact", seed=10)
    assert a != c


def test_monte_carlo_heuristic_flags_upper_bound():
    g = generate(FamilySpec("biclique_half", {"n": 8}))
    s = monte_carlo_random_pi(g, trials=10, adversary_mode="heuristic", seed=2, iters=200)
    assert s.upper_bound_only
    e = monte_carlo_random_pi(g, trials=10, adversary_mode="exact", seed=2)
    assert s.mean_size >= e.mean_size


def test_monte_carlo_constructive_uses_family_attack():
    g = generate(FamilySpec("biclique_half", {"n": 8}))
    s = monte_carlo_random_pi(g, trials=20, adversary_mode="constructive", seed=3)
    assert s.upper_bound_only
    assert 0.5 <= s.mean_fraction <= 1.0


def test_monte_carlo_sampled_mode():
    g = generate(FamilySpec("biclique_half", {"n": 8}))
    a = monte_carlo_random_pi(g, trials=10, adversary_mode="sampled", seed=4)
    assert a == monte_carlo_random_pi(g, trials=10, adversary_mode="sampled", seed=4)
    assert a.upper_bound_only
    e = monte_carlo_random_pi(g, trials=10, adversary_mode="exact", seed=4)
    assert a.min_size >= e.min_size and a.mean_size >= e.mean_size


def test_monte_carlo_equals_the_reference_dispatch(built_specs):
    """Summaries, and errors, equal those of the per-mode chain the attack
    table replaced, for every mode that chain accepted, on every corpus
    and benchmark graph; the exact mode only where n <= 10, and once more
    with a budget small enough to fall back to the heuristic."""
    graphs = [g for _, g in built_specs if isinstance(g, BipartiteGraph)]
    for i, g in enumerate(graphs):
        runs = [("heuristic", {"iters": 15}), ("constructive", {})]
        if g.n <= 10:
            runs.append(("exact", {}))
        if g.n <= 6:
            runs.append(("exact", {"budget": 2}))
        for mode, settings in runs:
            kwargs = dict(trials=2, adversary_mode=mode, seed=i, **settings)
            got = outcome(monte_carlo_random_pi, g, **kwargs)
            assert got == outcome(reference_monte_carlo, g, **kwargs), (g.family, g.params, mode)


def test_monte_carlo_guards():
    g = fig1()
    with pytest.raises(AnalysisParamError):
        monte_carlo_random_pi(g, trials=0)
    with pytest.raises(UsageError):
        monte_carlo_random_pi(g, trials=1, adversary_mode="oracle")
    with pytest.raises(FamilyShapeError):
        monte_carlo_random_pi(g, trials=1, adversary_mode="constructive")


# --- iterative promotion ---------------------------------------------------


def test_iterative_process_terminates_with_majority():
    g = generate(FamilySpec("iterative", {"i": 2}))
    trace = iterative_process(g, Permutation.identity(4), cap=16)
    assert not trace.cap_reached
    records = trace.records
    assert trace.iterations_used == len(records) >= 1
    for rec in records[:-1]:
        assert rec.size == 2
        assert set(rec.losers) == set(rec.pi.order[: len(rec.losers)]) or rec.losers
    assert 2 * records[-1].size > 4


def test_iterative_trace_replay():
    g = generate(FamilySpec("iterative", {"i": 3}))
    pi1 = Permutation.from_order(list(reversed(range(8))))
    trace = iterative_process(g, pi1, cap=16)
    for rec in trace.records:
        out = greedy_match(g, rec.sigma, rec.pi)
        assert out.size == rec.size
        assert tuple(out.unmatched_v()) == rec.losers
    sizes = [rec.size for rec in trace.records]
    assert sizes == [4, 4, 4, 8]


def test_iterative_cap_reported():
    g = generate(FamilySpec("iterative", {"i": 3}))
    pi1 = Permutation.from_order(list(reversed(range(8))))
    trace = iterative_process(g, pi1, cap=2)
    assert trace.cap_reached and trace.iterations_used == 2
    with pytest.raises(AnalysisParamError):
        iterative_process(g, pi1, cap=0)


def test_iterative_process_needs_a_perfect_matching():
    # Every round reaching n/2 rests on a perfect matching, so a graph
    # without one is bad input, not a failed invariant.
    star = BipartiteGraph.from_edges(3, [(0, 0), (1, 0), (2, 0)])
    with pytest.raises(NoPerfectMatchingError):
        iterative_process(star, Permutation.identity(3), cap=4)


def test_iterative_policies_agree_on_values():
    g = generate(FamilySpec("iterative", {"i": 2}))
    pi1 = Permutation.from_order([3, 2, 1, 0])
    sizes = {}
    for policy in ("first_found", "max_losers_low", "exhaustive_worst_for_next_round"):
        trace = iterative_process(g, pi1, cap=16, minimizer_policy=policy)
        assert not trace.cap_reached
        sizes[policy] = [rec.size for rec in trace.records]
    # the minimum value per round is policy independent; only the loser
    # choice (and hence later rounds' length) may differ
    first = {policy: s[0] for policy, s in sizes.items()}
    assert len(set(first.values())) == 1


def test_exhaustive_policies_follow_their_rules_over_all_orders():
    """Each exhaustive policy's first round against its rule applied to
    the loser sets of every arrival order of the least size, each with
    its safety witness as sigma: max_losers_low takes the most losers in
    pi's first half, then the least witness;
    exhaustive_worst_for_next_round the least next-round minimum, then
    the least loser tuple, then the least witness."""
    rng = random.Random(389)
    for _ in range(40):
        n = rng.randrange(2, 7)
        g, pi = random_pm_graph(rng, n), random_perm(rng, n)
        outs = [greedy_match(g, Permutation.from_order(p), pi) for p in itertools.permutations(range(n))]
        least = min(out.size for out in outs)
        loser_sets = {tuple(out.unmatched_v()) for out in outs if out.size == least}
        low = [(losers, adversary.order_avoiding(g, pi, losers).order) for losers in loser_sets]
        half = set(pi.order[: (n + 1) // 2])

        def next_min(losers):
            top = [v for v in pi.order if v in losers] + [v for v in pi.order if v not in losers]
            return worst_order_exact(g, Permutation.from_order(top)).size

        expected = {
            "max_losers_low": min(low, key=lambda lo: (-len(half.intersection(lo[0])), lo[1])),
            "exhaustive_worst_for_next_round": min(low, key=lambda lo: (next_min(lo[0]), *lo)),
        }
        for policy, (losers, order) in expected.items():
            rec = iterative_process(g, pi, cap=1, minimizer_policy=policy).records[0]
            assert (rec.sigma.order, rec.size, rec.losers) == (order, least, losers)


def test_exhaustive_policy_needs_small_n(tmp_path, capsys):
    """The exhaustive policies choose among the largest avoidable sets,
    so they need no small n after all.  On iterative i=4 (n = 16) the
    first round's losers are a largest avoidable set, left unmatched by
    the round's sigma, and `analyze iterate` prints the library's trace
    with exit 0.  An unknown policy is a usage error."""
    g, pi = generate(FamilySpec("iterative", {"i": 4})), Permutation.identity(16)
    trace = iterative_process(g, pi, cap=2, minimizer_policy="max_losers_low")
    rec = trace.records[0]
    assert rec.size == worst_order_exact(g, pi).size == 16 - len(rec.losers)
    assert tuple(greedy_match(g, rec.sigma, pi).unmatched_v()) == rec.losers
    gpath = tmp_path / "iter4.json"
    gio.write_graph(str(gpath), g)
    argv = ["analyze", "iterate", str(gpath), "--cap", "2", "--policy", "max_losers_low"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == gio.iterative_trace_to_doc(trace)
    with pytest.raises(UsageError):
        iterative_process(g, pi, cap=2, minimizer_policy="nonesuch")


def test_iterative_process_rejects_a_pi_of_the_wrong_length():
    """Under every policy, the list of largest avoidable sets checks pi's
    length before it builds any rows."""
    g = generate(FamilySpec("iterative", {"i": 2}))
    for policy in analysis.MINIMIZER_POLICIES:
        with pytest.raises(DimensionMismatchError):
            iterative_process(g, Permutation.identity(g.n - 1), cap=2, minimizer_policy=policy)


# --- the two game readings -------------------------------------------------


COUNTEREXAMPLE_ADJ = ((0, 1, 2, 3), (1, 2), (0, 2), (0, 3))


def counterexample_graph():
    edges = sorted((u, v) for u, row in enumerate(COUNTEREXAMPLE_ADJ) for v in row)
    return BipartiteGraph.from_edges(4, edges)


def test_cross_check_passes_on_six_cycle():
    assert cross_check_interpretations(fig1())


def test_same_graph_game_values_can_differ():
    """The two readings are side-swaps of each other, not equal per graph.

    On this graph fixing priorities guarantees only 3 while ordering the
    arrivals guarantees 4, so the naive same-graph comparison fails; the
    transposed comparison is the invariant that holds.
    """
    from greedyorder.analysis import _arrival_game_value, _priority_game_value, _transposed

    g = counterexample_graph()
    assert _priority_game_value(g) == 3
    assert _arrival_game_value(g) == 4
    gt = _transposed(g)
    assert _priority_game_value(gt) == 4
    assert _arrival_game_value(gt) == 3
    assert cross_check_interpretations(g)
    assert cross_check_interpretations(gt)


def test_cross_check_on_random_small_graphs():
    rng = random.Random(401)
    for _ in range(60):
        n = rng.randrange(1, 5)
        g = random_pm_graph(rng, n)
        assert cross_check_interpretations(g)


def test_cross_check_size_guard():
    g = generate(FamilySpec("biclique_half", {"n": 8}))
    with pytest.raises(UsageError):
        cross_check_interpretations(g)
    with pytest.raises(UsageError):
        cross_check_interpretations(random_pm_graph(random.Random(402), 6))
