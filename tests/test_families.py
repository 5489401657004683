"""Structural audits of every generator family and the dispatch layer."""

import collections
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
from conftest import (
    CORPUS_SPECS,
    outcome,
    perfbench_specs,
    reference_generate,
    reference_planted_pairing,
)

from greedyorder import (
    BipartiteGraph,
    FamilySpec,
    Permutation,
    find_perfect_matching,
    generate,
    greedy_match,
)
from greedyorder.families import (
    FAMILIES,
    GADGET4_EDGES,
    _planted_pairing,
    gen_badset_chain,
    gen_biclique_half,
    gen_fano,
    gen_fig1,
    gen_hamiltonian_random,
    gen_iterative,
    gen_pg23,
    gen_planted_is,
    gen_random_regular,
    gen_regular89,
    gen_tight_regular,
)
from greedyorder.errors import GenerationError
from greedyorder.io import canonical_dumps, graph_to_doc


def is_single_even_cycle(g):
    """True iff the graph is one alternating cycle through all 2n vertices."""
    if any(len(a) != 2 for a in g.adj_u) or any(len(a) != 2 for a in g.adj_v):
        return False
    seen = set()
    u, prev_v = 0, None
    for _ in range(g.n):
        seen.add(u)
        v = next(w for w in g.adj_u[u] if w != prev_v)
        u, prev_v = next(x for x in g.adj_v[v] if x != u), v
    return seen == set(range(g.n))


def test_fig1_shape():
    g = gen_fig1()
    assert g.n == 3
    assert g.edges == [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)]
    assert g.family == "fig1" and g.params == {}
    assert is_single_even_cycle(g)


def test_gadget_second_trace_witness():
    """Identity arrivals under priority (v3,v2,v1,v0) park v0 and v1, and
    priority (v3,v1,v2,v0) with arrivals (u1,u2,u0,u3) parks v0 and v2."""
    g = BipartiteGraph.from_edges(4, GADGET4_EDGES)
    out = greedy_match(g, Permutation.identity(4), Permutation.from_order((3, 2, 1, 0)))
    assert set(out.unmatched_v()) == {0, 1}
    out = greedy_match(
        g, Permutation.from_order((1, 2, 0, 3)), Permutation.from_order((3, 1, 2, 0))
    )
    assert set(out.unmatched_v()) == {0, 2}


def test_regular89_structure():
    for d, t in ((1, 1), (2, 1), (3, 2)):
        g = gen_regular89(d, t)
        assert g.n == 3 * d * t
        assert all(len(a) == 2 * d for a in g.adj_u)
        assert all(len(a) == 2 * d for a in g.adj_v)
        find_perfect_matching(g)
        # no edges inside a diagonal block, all edges off-diagonal
        for u, v in g.edges:
            assert (u // d) % 3 != (v // d) % 3 or u // (3 * d) != v // (3 * d)
    with pytest.raises(GenerationError):
        gen_regular89(0, 1)


def test_smallest_families_are_the_six_cycle():
    assert is_single_even_cycle(gen_regular89(1, 1))
    assert is_single_even_cycle(gen_tight_regular(2))


def test_tight_regular_structure():
    for d in (2, 3, 4, 5):
        g = gen_tight_regular(d)
        assert g.n == 2 * d - 1
        assert all(len(a) == d for a in g.adj_u)
        assert all(len(a) == d for a in g.adj_v)
        # the two deficient blocks never touch each other
        for u in range(d - 1):
            for v in range(d - 1):
                assert v not in g.adj_u[u]
    with pytest.raises(GenerationError):
        gen_tight_regular(0)


def test_tight_regular_worst_run_hits_d():
    for d in (2, 3, 4):
        g = gen_tight_regular(d)
        n = g.n
        outside = list(range(d - 1, n)) + list(range(d - 1))
        out = greedy_match(
            g, Permutation.from_order(outside), Permutation.from_order(outside)
        )
        assert out.size == d


def test_fano_plane_axioms():
    g = gen_fano()
    assert g.n == 7
    assert all(len(a) == 3 for a in g.adj_u)
    assert all(len(a) == 3 for a in g.adj_v)
    for a, b in itertools.combinations(range(7), 2):
        common = set(g.adj_u[a]) & set(g.adj_u[b])
        assert len(common) == 1


def test_fano_expansion_profile():
    """Unions of 2..5 lines cover at least two more points than lines.

    Two lines share exactly one point, so a pair covers exactly 5; the
    +2 margin is the true profile (a pair never reaches 6).
    """
    g = gen_fano()
    for size in range(2, 6):
        for rows in itertools.combinations(range(7), size):
            neigh = set().union(*(g.adj_u[r] for r in rows))
            assert len(neigh) >= size + 2
            if size == 2:
                assert len(neigh) == 5


def test_pg23_plane_axioms_and_expansion():
    g = gen_pg23()
    assert g.n == 13
    assert all(len(a) == 4 for a in g.adj_u)
    assert all(len(a) == 4 for a in g.adj_v)
    for a, b in itertools.combinations(range(13), 2):
        assert len(set(g.adj_u[a]) & set(g.adj_u[b])) == 1
        assert len(set(g.adj_u[a]) | set(g.adj_u[b])) == 7


def test_biclique_half_structure():
    g = gen_biclique_half(8)
    assert g.n == 8
    h = 4
    for u in range(h):
        assert g.adj_u[u] == tuple([u] + list(range(h, 8)))
    for u in range(h, 8):
        assert g.adj_u[u] == (u,)
    with pytest.raises(GenerationError):
        gen_biclique_half(5)
    with pytest.raises(GenerationError):
        gen_biclique_half(0)


def test_badset_chain_structure():
    g1 = gen_badset_chain(1)
    assert g1.n == 4
    assert set(g1.edges) == set(GADGET4_EDGES)
    g3 = gen_badset_chain(3)
    assert g3.n == 12
    for u, v in g3.edges:
        assert u // 4 == v // 4  # copies stay disjoint
    with pytest.raises(GenerationError):
        gen_badset_chain(0)


def test_iterative_degree_law():
    for i in range(5):
        g = gen_iterative(i)
        assert g.n == 2 ** i
        for j in range(g.n):
            ones = bin(j).count("1")
            assert len(g.adj_u[j]) == 1 + (i - ones)
            assert len(g.adj_v[j]) == 1 + ones
        find_perfect_matching(g)
    with pytest.raises(GenerationError):
        gen_iterative(-1)


def test_hamiltonian_random_structure():
    g = gen_hamiltonian_random(9, 4, seed=42)
    assert g.n == 9
    assert g.num_edges == 9 + 9 + 4
    for j in range(9):
        assert j in g.adj_u[j]
        assert (j + 1) % 9 in g.adj_u[j]
    assert gen_hamiltonian_random(9, 4, seed=42).edges == g.edges
    assert gen_hamiltonian_random(9, 4, seed=43).edges != g.edges


def test_random_regular_structure():
    g = gen_random_regular(10, 3, seed=6)
    assert g.n == 10
    assert all(len(a) == 3 for a in g.adj_u)
    assert all(len(a) == 3 for a in g.adj_v)
    find_perfect_matching(g)
    assert gen_random_regular(10, 3, seed=6).edges == g.edges


def test_planted_is_structure():
    g = gen_planted_is(30, 4, 0.3, seed=9)
    assert g.n == 30
    assert all(len(a) == 4 for a in g.adj_u)
    assert all(len(a) == 4 for a in g.adj_v)
    find_perfect_matching(g)
    assert gen_planted_is(30, 4, 0.3, seed=9).edges == g.edges
    s = int(0.3 * 30)
    # planted structure: the first s left vertices avoid the first s
    # right vertices entirely
    for u in range(s):
        for v in g.adj_u[u]:
            assert v >= s
    for n, d in ((0, 3), (30, 0)):
        with pytest.raises(GenerationError, match="^n and d must be positive$"):
            gen_planted_is(n, d, 0.3, seed=9)
    # With eps=0.3 the planted blocks hold 10 vertices, leaving 20 partners.
    with pytest.raises(GenerationError, match="^d=21 too large: planted vertices have only 20 "):
        gen_planted_is(30, 21, 0.3, seed=9)


class _CountingRandom(random.Random):
    """A Random that counts its shuffles: one per start of the pairing."""

    shuffles = 0

    def shuffle(self, x):
        self.shuffles += 1
        super().shuffle(x)


def _planted_size(n, eps):
    return int(math.floor((1.0 - eps) * n / 2.0 + 1e-9))


@st.composite
def pairing_cases(draw):
    """(n, d, eps, seed) for a planted pairing with d <= n - s."""
    n = draw(st.integers(1, 9))
    eps = draw(st.floats(0.01, 0.99))
    d = draw(st.integers(1, n - _planted_size(n, eps)))
    return n, d, eps, draw(st.integers(0, 2**32))


def test_planted_pairing_makes_the_draws_of_the_reference_loop():
    # The pairing draws its stubs with getrandbits as randrange does; if
    # some Python build draws differently, this fails before any graph
    # changes.  The pairing, the error and the generator's state after the
    # call must all match the loop that calls rng.randrange.
    seen = collections.Counter()

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(pairing_cases())
    @example((7, 4, 0.1, 15))  # the first pairing fails, the second succeeds
    @example((3, 3, 0.1, 0))  # d > n - s: every start fails
    def check(case):
        n, d, eps, seed = case
        s = _planted_size(n, eps)
        fast, slow = _CountingRandom(seed), _CountingRandom(seed)
        got = outcome(_planted_pairing, n, d, s, fast)
        assert got == outcome(reference_planted_pairing, n, d, s, slow)
        assert (fast.getstate(), fast.shuffles) == (slow.getstate(), slow.shuffles)
        if isinstance(got, tuple):
            assert got == (GenerationError, "rejection budget exceeded while repairing the pairing")
            seen["error"] += 1
        else:
            seen["restart" if fast.shuffles > 1 else "first start"] += 1

    check()
    assert seen["error"] and seen["restart"] and seen["first start"] >= 200, seen


def test_generate_dispatch_covers_all_families(corpus):
    seen = {inst.spec.family for inst in corpus}
    assert seen == set(FAMILIES)
    for inst in corpus:
        assert inst.graph.family == inst.spec.family


def _strict_reference_int(value):
    """int(), except that booleans and non-integral floats are cast
    failures, as they are for the family table's int keys."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("%r is not an integer" % (value,))
    return int(value)


def _reference_cast_fails(spec):
    """True when the reference chain raises from its own int() or float()
    of a parameter, not from a generator it calls."""
    try:
        reference_generate(spec)
    except (TypeError, ValueError, OverflowError) as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        return tb.tb_frame.f_code in (reference_generate.__code__, _strict_reference_int.__code__)
    except GenerationError:
        return False
    return False


def test_generate_equals_the_reference_chain(monkeypatch):
    """The family table builds the graph, or raises the error, that the
    if-chain it replaced did: on every corpus and benchmark spec and on
    400 seeded specs with missing, aliased, ill-typed or out-of-range
    parameters and unknown or unhashable names.  Where the chain's cast
    of a parameter raised, the table raises GenerationError naming the
    key and its value.  The chain's int() counts booleans and
    non-integral floats as cast failures, which the table no longer
    truncates."""
    assert FAMILIES == (
        "fig1", "badset_chain", "regular89", "tight_regular", "fano", "pg23",
        "hamiltonian_random", "random_regular", "biclique_half", "planted_is", "iterative",
    )
    rng = random.Random(11)
    keys = ("n", "d", "t", "i", "copies", "extra_edges", "eps")
    values = (-1, 0, 1, 2, 3, 4, 6, 2.5, 0.3, "3", "x", None, True)
    names = FAMILIES + ("nonesuch", None, "")
    specs = [spec for _, spec in CORPUS_SPECS] + perfbench_specs() + [FamilySpec(["fig1"])]
    specs += [
        FamilySpec("regular89", {"d": float("inf"), "t": 1}),
        FamilySpec("planted_is", {"n": 10, "d": 3, "eps": 10**400}),
        FamilySpec("regular89", {"d": 2.9, "t": 1}),
        FamilySpec("regular89", {"d": 2, "t": True}),
    ]
    for _ in range(400):
        params = {k: rng.choice(values) for k in rng.sample(keys, rng.randrange(len(keys) + 1))}
        specs.append(FamilySpec(rng.choice(names), params, seed=rng.randrange(4)))
    monkeypatch.setattr(conftest, "int", _strict_reference_int, raising=False)
    raised = cast_failures = 0
    for spec in specs:
        got, want = outcome(generate, spec), outcome(reference_generate, spec)
        if isinstance(want, BipartiteGraph):
            assert isinstance(got, BipartiteGraph), spec
            assert (got.n, got.edges, got.family, got.params) == (
                want.n, want.edges, want.family, want.params
            ), spec
        elif _reference_cast_fails(spec):
            cast_failures += 1
            assert got[0] is GenerationError, spec
            assert any(
                ("parameter %r" % key) in got[1] and got[1].endswith("got %r" % (value,))
                for key, value in spec.params.items()
            ), (spec, got)
        else:
            raised += 1
            assert got == want, spec
    assert raised >= 200 and cast_failures >= 30


def test_generate_rejects_unknown_and_missing():
    with pytest.raises(GenerationError):
        generate(FamilySpec("mystery"))
    with pytest.raises(GenerationError):
        generate(FamilySpec("regular89", {"d": 2}))  # t missing


def test_generate_param_alias_for_chain():
    a = generate(FamilySpec("badset_chain", {"copies": 2}))
    b = generate(FamilySpec("badset_chain", {"i": 2}))
    assert a.edges == b.edges


def test_generation_is_byte_deterministic(corpus):
    for inst in corpus:
        again = generate(inst.spec)
        assert canonical_dumps(graph_to_doc(again)) == canonical_dumps(
            graph_to_doc(inst.graph)
        )
