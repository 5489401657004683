"""Construction, greedy semantics, matching and verification primitives."""

import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_max_matching_size,
    check_prefix_bound,
    random_perm,
    random_pm_graph,
    reference_from_edges,
    reference_gale_shapley,
    reference_max_matching,
    verify_maximal,
    verify_stability,
)

from greedyorder import (
    BipartiteGraph,
    GreedyOutcome,
    Permutation,
    align_with_matching,
    find_perfect_matching,
    greedy_match,
    max_matching,
)
from greedyorder import core, io
from greedyorder.core import PerfectMatching
from greedyorder.errors import (
    DimensionMismatchError,
    InvalidGraphError,
    NoPerfectMatchingError,
)

FIG1_EDGES = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)]


def fig1():
    return BipartiteGraph.from_edges(3, FIG1_EDGES)


def test_from_edges_rejects_bad_input():
    with pytest.raises(InvalidGraphError):
        BipartiteGraph.from_edges(0, [])
    with pytest.raises(InvalidGraphError):
        BipartiteGraph.from_edges(3, [(0, 5)])
    with pytest.raises(InvalidGraphError):
        BipartiteGraph.from_edges(3, [(-1, 0)])
    with pytest.raises(InvalidGraphError):
        BipartiteGraph.from_edges(3, [(0, 0), (0, 0)])


def _built(n, edges):
    try:
        return BipartiteGraph.from_edges(n, edges)
    except InvalidGraphError as exc:
        return str(exc)


@st.composite
def edge_lists(draw):
    """n and a random edge list in random order, valid or with faults."""
    n = draw(st.integers(1, 9))
    rng = draw(st.randoms(use_true_random=False))
    pool = [(u, v) for u in range(n) for v in range(n)]
    edges = rng.sample(pool, rng.randrange(0, len(pool) + 1))
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()) and edges:
            edges.insert(rng.randrange(len(edges) + 1), rng.choice(edges))
        else:
            bad = (rng.choice([-1, n, n + 2]), rng.randrange(n))
            edges.insert(rng.randrange(len(edges) + 1), bad[:: rng.choice([1, -1])])
    return n, edges


def test_from_edges_equals_the_reference():
    seen = set()

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(edge_lists())
    def check(case):
        n, edges = case
        in_range = [(u, v) for u, v in edges if 0 <= u < n and 0 <= v < n]
        repeats = sorted(e for e in set(in_range) if in_range.count(e) > 1)
        if len(in_range) < len(edges):
            # An out-of-range edge is named first, in input order.
            kind = "range"
            u, v = next(e for e in edges if e not in in_range)
            expected = "edge (%r, %r) out of range for n=%d" % (u, v, n)
        elif repeats:
            kind = "repeat"
            expected = "duplicate edge (%d, %d)" % repeats[0]
        else:
            kind = "valid"
            expected = reference_from_edges(n, edges)
        assert _built(n, edges) == expected
        if kind != "valid":
            with pytest.raises(InvalidGraphError):
                reference_from_edges(n, edges)
        if kind == "range" and repeats:
            kind = "range and repeat"
        seen.add(kind)

    check()
    assert seen == {"valid", "range", "repeat", "range and repeat"}


def test_from_edges_names_a_range_fault_before_an_earlier_repeat():
    assert _built(3, [(1, 1), (1, 1), (0, 5)]) == "edge (0, 5) out of range for n=3"
    assert _built(3, [(2, 2), (2, 2), (0, 1), (0, 1)]) == "duplicate edge (0, 1)"


def test_edges_property_is_sorted():
    g = BipartiteGraph.from_edges(3, [(2, 2), (0, 1), (1, 0), (0, 0)])
    assert g.edges == [(0, 0), (0, 1), (1, 0), (2, 2)]
    assert g.num_edges == 4
    assert g.degrees_u() == [2, 1, 1]
    assert g.degrees_v() == [2, 1, 1]


def test_permutation_validation():
    with pytest.raises(InvalidGraphError):
        Permutation.from_order([0, 0, 1])
    with pytest.raises(InvalidGraphError):
        Permutation.from_order([0, 3])
    # Only an int is a vertex, as in io._pair: a bool may not pass as 0 or
    # 1, a float or str gets the documented error, not a TypeError, and
    # neither may any other subclass of int.
    class Index(int):
        pass

    for bad in ([True, 0], [1.0, 0], [0, "1"], [False], [2, False, 1], [1, 0, Index(2)]):
        message = r"not a permutation of 0\.\.%d" % (len(bad) - 1)
        with pytest.raises(InvalidGraphError, match=message):
            Permutation.from_order(bad)
    p = Permutation.from_order([2, 0, 1])
    assert p.order == (2, 0, 1)
    assert p.rank == (1, 2, 0)
    assert len(p) == 3
    assert Permutation.identity(4).order == (0, 1, 2, 3)


def test_greedy_trace_on_six_cycle():
    """Hand-checked arrival traces on the 3+3 six-cycle."""
    g = fig1()
    ident = Permutation.identity(3)

    out = greedy_match(g, ident, ident)
    assert out.matched_v_of_u == (0, 1, 2)
    assert out.size == 3
    assert out.unmatched_v() == [] and out.unmatched_u() == []

    # u1 takes v1, u2 takes v0 (rank 0 beats v2), u0 finds both gone
    out = greedy_match(g, Permutation.from_order([1, 2, 0]), ident)
    assert out.matched_v_of_u == (None, 1, 0)
    assert out.matched_u_of_v == (2, 1, None)
    assert out.size == 2
    assert out.unmatched_u() == [0]
    assert out.unmatched_v() == [2]


def _reference_greedy(g, sigma, pi):
    """A freshly written greedy: each arrival takes its free neighbour of
    lowest pi rank."""
    taken = set()
    mu = [None] * g.n
    for u in sigma.order:
        free = [v for v in g.adj_u[u] if v not in taken]
        if free:
            v = min(free, key=lambda w: pi.rank[w])
            taken.add(v)
            mu[u] = v
    return tuple(mu)


def test_greedy_against_reference_replay():
    """Compare against a freshly written greedy on random inputs."""
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 8)
        g = random_pm_graph(rng, n)
        sigma, pi = random_perm(rng, n), random_perm(rng, n)
        out = greedy_match(g, sigma, pi)
        assert out.matched_v_of_u == _reference_greedy(g, sigma, pi)
        assert out.size == sum(1 for v in out.matched_v_of_u if v is not None)


def _assert_greedy_is_the_reference(g, sigma, pi):
    out = greedy_match(g, sigma, pi)
    assert out.matched_v_of_u == _reference_greedy(g, sigma, pi)
    assert out.matched_u_of_v == tuple(
        out.matched_v_of_u.index(v) if v in out.matched_v_of_u else None for v in range(g.n)
    )
    assert out.size == sum(1 for v in out.matched_v_of_u if v is not None)
    return out


def _wide_rows(g):
    return {u for u, a in enumerate(g.adj_u) if len(a) > core._wide(g.n)}


@st.composite
def wide_and_narrow_rows(draw):
    """n from 40 to 120: a block of rows longer than _wide(n), mostly
    enough of them for greedy_match's mask path to pay, beside rows of at
    most _wide(n) entries; every row draws from all of V, so narrow
    arrivals take vertices the wide rows want.  The rows come from a
    seeded Random: drawing each entry from hypothesis is far slower."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(40, 120))
    w = core._wide(n)
    rows = list(range(n))
    rng.shuffle(rows)
    deg, excess = {}, 0
    for u in rows[: n - n // 5]:
        if excess >= 8 * n and rng.random() < 0.8:  # greedy_match's gate
            break
        deg[u] = rng.randint(w + 1, n)
        excess += deg[u] - w
    for u in rows:
        deg.setdefault(u, rng.randint(0, w))
    edges = [(u, v) for u in range(n) for v in rng.sample(range(n), deg[u])]
    orders = [(random_perm(rng, n), random_perm(rng, n)) for _ in range(3)]
    return BipartiteGraph.from_edges(n, edges), orders


def test_greedy_with_wide_rows_equals_the_references():
    """Both arrival paths, the scan and the prefix search over masks,
    against the reference greedy and the unique stable matching."""
    arrivals = {"scan": 0, "masks": 0}

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(wide_and_narrow_rows())
    def check(case):
        g, orders = case
        for sigma, pi in orders:
            greedy = _assert_greedy_is_the_reference(g, sigma, pi).matched_v_of_u
            assert reference_gale_shapley(g, sigma, pi, "u") == greedy
            assert reference_gale_shapley(g, sigma, pi, "v") == greedy
        masks = g._masks
        if masks:
            assert set(masks) == _wide_rows(g)
            assert all(m == sum(1 << v for v in g.adj_u[u]) for u, m in masks.items())
            arrivals["masks"] += len(masks) * len(orders)
            arrivals["scan"] += (g.n - len(masks)) * len(orders)

    check()
    assert min(arrivals.values()) >= 200, arrivals


def _wide_block_graph(n, extra):
    """Rows 0..n/2-1 are complete, so their masks pay; `extra` maps each
    further row to its neighbours."""
    h = n // 2
    edges = [(u, v) for u in range(h) for v in range(n)]
    edges += [(u, v) for u, nbrs in extra.items() for v in nbrs]
    return BipartiteGraph.from_edges(n, edges)


def test_greedy_mask_path_edge_cases():
    n = 100
    w = core._wide(n)
    h = n // 2
    # Rows of exactly _wide(n) and _wide(n) + 1 entries: only the second
    # is wide.
    g = _wide_block_graph(n, {h: range(w), h + 1: range(w + 1)})
    assert set(core._wide_masks(g)) == set(range(h)) | {h + 1}
    rng = random.Random(5)
    for _ in range(20):
        _assert_greedy_is_the_reference(g, random_perm(rng, n), random_perm(rng, n))

    # Under the identity orders the block arrives first and takes 0..h-1.
    # Rows h+1 and h+2 then hold _wide(n) + 1 entries each: all taken,
    # and all taken but h+7.
    taken = list(range(h))
    g = _wide_block_graph(n, {h + 1: taken[: w + 1], h + 2: taken[:w] + [h + 7]})
    assert {h + 1, h + 2} <= set(core._wide_masks(g))
    ident = Permutation.identity(n)
    out = _assert_greedy_is_the_reference(g, ident, ident)
    assert out.matched_v_of_u[h + 1] is None  # every neighbour is taken
    assert out.matched_v_of_u[h + 2] == h + 7  # its single free neighbour


def test_greedy_dimension_mismatch():
    g = fig1()
    with pytest.raises(DimensionMismatchError):
        greedy_match(g, Permutation.identity(4), Permutation.identity(3))
    with pytest.raises(DimensionMismatchError):
        greedy_match(g, Permutation.identity(3), Permutation.identity(2))


def test_max_matching_against_bitmask_dp():
    rng = random.Random(23)
    for _ in range(120):
        nl = rng.randrange(1, 7)
        nr = rng.randrange(1, 7)
        adj = [
            [v for v in range(nr) if rng.random() < 0.45] for _ in range(nl)
        ]
        got = len(max_matching(adj, nr))
        assert got == brute_max_matching_size(adj, nr)


@st.composite
def ragged_adjacency(draw):
    """Left rows of any length, empty ones included, listing distinct
    right indices in any order, with the two sides of any sizes."""
    n_left, n_right = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    rng = draw(st.randoms(use_true_random=False))
    return [rng.sample(range(n_right), rng.randrange(n_right + 1)) for _ in range(n_left)], n_right


def test_max_matching_equals_the_reference():
    seen = set()

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(ragged_adjacency())
    def check(case):
        adj, n_right = case
        pairs = max_matching(adj, n_right)
        assert pairs == reference_max_matching(adj, n_right)
        assert len(pairs) == brute_max_matching_size(adj, n_right)
        if len(adj) != n_right:
            seen.add("unequal sides")
        if any(not a for a in adj):
            seen.add("empty row")
        if len({len(a) for a in adj}) > 1:
            seen.add("ragged")

    check()
    assert seen == {"unequal sides", "empty row", "ragged"}
    # One augmenting path through every vertex, in both orders of each row.
    n = 200
    chain = [[n - 1 - i, n - 2 - i] if i < n - 1 else [0] for i in range(n)]
    for adj in (chain, [a[::-1] for a in chain]):
        assert max_matching(adj, n) == reference_max_matching(adj, n)


def test_max_matching_with_repeated_indices_and_empty_sides_equals_the_reference():
    """The greedy first phase takes the first free entry of a row, as the
    reference's first search does, when rows repeat a right index, are
    empty, or there are no rows at all."""
    seen = set()

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 8), st.integers(1, 8), st.randoms(use_true_random=False))
    def check(n_left, n_right, rng):
        adj = [rng.choices(range(n_right), k=rng.randrange(2 * n_right)) for _ in range(n_left)]
        assert max_matching(adj, n_right) == reference_max_matching(adj, n_right)
        if any(len(set(a)) < len(a) for a in adj):
            seen.add("repeated index")
        if any(not a for a in adj):
            seen.add("empty row")
        if not adj:
            seen.add("no rows")

    check()
    assert seen == {"repeated index", "empty row", "no rows"}
    fixed = (([], 0), ([], 3), ([[], []], 0), ([[0, 0, 0], [0, 0]], 1), ([[1, 1], [1, 0, 0]], 2))
    for adj, n_right in fixed:
        assert max_matching(adj, n_right) == reference_max_matching(adj, n_right)


def test_find_perfect_matching_on_corpus(corpus):
    for inst in corpus:
        g = inst.graph
        m = find_perfect_matching(g)
        assert sorted(m.v_of_u) == list(range(g.n))
        for u, v in enumerate(m.v_of_u):
            assert v in g.adj_u[u], inst.instance_id
        assert m.u_of_v[m.v_of_u[0]] == 0


def test_find_perfect_matching_absent():
    # both left vertices see only v0
    g = BipartiteGraph.from_edges(2, [(0, 0), (1, 0)])
    with pytest.raises(NoPerfectMatchingError):
        find_perfect_matching(g)


def test_align_with_matching_relabels_consistently():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(2, 9)
        g = random_pm_graph(rng, n)
        m = find_perfect_matching(g)
        aligned, v_map = align_with_matching(g, m)
        assert sorted(v_map) == list(range(n))
        # identity must be a perfect matching of the relabeled graph
        for i in range(n):
            assert i in aligned.adj_u[i]
        orig = set(g.edges)
        assert {(u, v_map[w]) for u, w in aligned.edges} == orig


def test_align_with_matching_equals_a_rebuild():
    relabelled = 0

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 12), st.randoms(use_true_random=False))
    def check(n, rng):
        nonlocal relabelled
        base = random_pm_graph(rng, n, extra=rng.randrange(0, 3 * n))
        label = random_perm(rng, n).order
        g = BipartiteGraph.from_edges(n, [(u, label[v]) for u, v in base.edges])
        for m in (PerfectMatching(v_of_u=label), find_perfect_matching(g)):
            relabelled += not m.is_identity()
            new_of_old = m.u_of_v
            rebuilt = reference_from_edges(n, [(u, new_of_old[v]) for u, v in g.edges])
            assert align_with_matching(g, m) == (rebuilt, m.v_of_u)

    check()
    assert relabelled >= 300
    g = BipartiteGraph.from_edges(2, [(0, 0), (1, 0), (1, 1)])
    with pytest.raises(InvalidGraphError, match="not an edge"):
        align_with_matching(g, PerfectMatching(v_of_u=(1, 0)))
    with pytest.raises(InvalidGraphError, match="not a permutation"):
        align_with_matching(g, PerfectMatching(v_of_u=(0, 0)))
    with pytest.raises(DimensionMismatchError, match=r"^matching size 1 != n=2$"):
        align_with_matching(g, PerfectMatching(v_of_u=(0,)))


def test_check_prefix_bound_holds_and_validates():
    rng = random.Random(71)
    g = random_pm_graph(rng, 6, extra=9)
    m = find_perfect_matching(g)
    for _ in range(60):
        pi, sigma = random_perm(rng, 6), random_perm(rng, 6)
        k = rng.randrange(0, 7)
        stats = check_prefix_bound(g, m, pi, sigma, k)
        assert stats.k == k
        assert stats.matched_in_prefix >= stats.bound
    with pytest.raises(DimensionMismatchError):
        check_prefix_bound(g, m, random_perm(rng, 6), random_perm(rng, 6), 7)


def test_check_prefix_bound_counts_against_the_prefix_partners():
    rng = random.Random(72)
    for _ in range(100):
        n = rng.randrange(1, 10)
        g = random_pm_graph(rng, n)
        label = random_perm(rng, n).order
        g = BipartiteGraph.from_edges(n, [(u, label[v]) for u, v in g.edges])
        m = find_perfect_matching(g)
        pi, sigma = random_perm(rng, n), random_perm(rng, n)
        k = rng.randrange(0, n + 1)
        prefix = set(pi.order[:k])
        partners = {u for u in range(n) if m.v_of_u[u] in prefix}
        out = greedy_match(g, sigma, pi)
        owners = [out.matched_u_of_v[v] for v in prefix]
        stats = check_prefix_bound(g, m, pi, sigma, k)
        assert stats.matched_in_prefix == sum(u is not None for u in owners)
        assert stats.matched_outside_partners == sum(
            u is not None and u not in partners for u in owners
        )


def test_verify_maximal_flags_missed_edge():
    g = fig1()
    rng = random.Random(3)
    for _ in range(50):
        out = greedy_match(g, random_perm(rng, 3), random_perm(rng, 3))
        assert verify_maximal(g, out)
    hollow = GreedyOutcome(
        matched_v_of_u=(None, 1, None), matched_u_of_v=(None, 1, None), size=1
    )
    assert not verify_maximal(g, hollow)


def test_verify_stability_flags_blocking_pair():
    g = fig1()
    sigma = Permutation.from_order([2, 0, 1])
    pi = Permutation.identity(3)
    out = greedy_match(g, sigma, pi)
    assert verify_stability(g, sigma, pi, out)
    # u0 holds v0 although u2 arrived earlier and prefers v0 too
    doctored = GreedyOutcome(
        matched_v_of_u=(0, 2, None), matched_u_of_v=(0, None, 1), size=2
    )
    assert not verify_stability(g, sigma, pi, doctored)


def test_stability_on_random_runs():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randrange(1, 9)
        g = random_pm_graph(rng, n)
        sigma, pi = random_perm(rng, n), random_perm(rng, n)
        out = greedy_match(g, sigma, pi)
        assert verify_maximal(g, out)
        assert verify_stability(g, sigma, pi, out)


@st.composite
def graph_and_orders(draw):
    """Any bipartite graph with n <= 9, perfect matching or not, with a
    random arrival order and a random priority order."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 9))
    pool = [(u, v) for u in range(n) for v in range(n)]
    edges = sorted(rng.sample(pool, rng.randrange(0, len(pool) + 1)))
    return BipartiteGraph.from_edges(n, edges), random_perm(rng, n), random_perm(rng, n)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(graph_and_orders())
def test_greedy_is_the_unique_stable_matching(case):
    # U ranks V by pi and V ranks U by sigma.  Gale-Shapley returns the
    # proposing side's best stable matching; both sides getting greedy's
    # matching means it is the only stable one.
    g, sigma, pi = case
    greedy = greedy_match(g, sigma, pi).matched_v_of_u
    assert reference_gale_shapley(g, sigma, pi, "u") == greedy
    assert reference_gale_shapley(g, sigma, pi, "v") == greedy


def _counting(monkeypatch, owner, name):
    """Wrap owner.name so that each call appends its arguments to the
    returned list."""
    calls = []
    inner = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_wide_masks_are_built_once_and_outside_the_fields(monkeypatch):
    builds = _counting(monkeypatch, core, "_wide_masks")
    passes = _counting(monkeypatch, core, "_prefix_masks")
    n = 100
    g = _wide_block_graph(n, {u: [u] for u in range(n // 2, n)})
    twin = _wide_block_graph(n, {u: [u] for u in range(n // 2, n)})
    before = (repr(g), pickle.dumps(g), io.graph_to_doc(g))
    rng = random.Random(3)
    for _ in range(3):
        _assert_greedy_is_the_reference(g, random_perm(rng, n), random_perm(rng, n))
    assert len(builds) == 1 and len(passes) == 3
    assert set(g._masks) == _wide_rows(g) == set(range(n // 2))
    assert (repr(g), pickle.dumps(g), io.graph_to_doc(g)) == before
    assert g == twin and twin == g
    assert twin._masks is None
    assert pickle.loads(pickle.dumps(g)) == g


def test_one_hub_row_makes_no_pass_over_pi(monkeypatch):
    passes = _counting(monkeypatch, core, "_prefix_masks")
    n = 200
    g = BipartiteGraph.from_edges(n, [(0, v) for v in range(n)] + [(u, u) for u in range(1, n)])
    assert len(g.adj_u[0]) > core._wide(n)
    rng = random.Random(4)
    for _ in range(3):
        _assert_greedy_is_the_reference(g, random_perm(rng, n), random_perm(rng, n))
    assert passes == [] and g._masks == {}
