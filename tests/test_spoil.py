"""Conflict digraph construction and path-cover improvement machinery."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    LengthOrderViolatedError,
    apply_merge,
    apply_rotation,
    apply_step,
    apply_unbalance,
    find_improvement,
    random_pm_graph,
    reference_find_improvement,
    reference_maximal_path_cover,
    trivial_cover,
    verify_maximality_conditions,
)

from greedyorder import (
    BipartiteGraph,
    FamilySpec,
    PathCover,
    align_with_matching,
    build_spoiling_graph,
    find_perfect_matching,
    generate,
    maximal_path_cover,
)
from greedyorder.certify import build_theorem1
from greedyorder.spoil import CoverStep
from greedyorder.errors import (
    InvalidGraphError,
    MatchingNotAlignedError,
    MissingArcError,
)


def six_cycle():
    return BipartiteGraph.from_edges(3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)])


def sg_from_arcs(n, arcs):
    g = BipartiteGraph.from_edges(n, [(i, i) for i in range(n)] + [(i, j) for i, j in arcs])
    return build_spoiling_graph(g)


def test_six_cycle_yields_directed_triangle():
    sg = build_spoiling_graph(six_cycle())
    assert sg.n == 3
    assert sorted(sg.arcs()) == [(0, 1), (1, 2), (2, 0)]
    assert sg.num_arcs == 3
    assert sg.has_arc(0, 1) and not sg.has_arc(1, 0)


def test_arc_count_equals_edges_minus_n(corpus):
    for inst in corpus:
        g = inst.graph
        m = find_perfect_matching(g)
        aligned, _ = align_with_matching(g, m)
        sg = build_spoiling_graph(aligned)
        assert sg.num_arcs == g.num_edges - g.n, inst.instance_id


def test_unaligned_matching_rejected():
    g = BipartiteGraph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(MatchingNotAlignedError):
        build_spoiling_graph(g)


def test_trivial_cover_counts():
    c = trivial_cover(4)
    assert c.p == 4 and c.k == 4
    assert c.paths == ((0,), (1,), (2,), (3,))
    assert c.isolated == (0, 1, 2, 3)
    assert c.starts == () and c.ends == ()
    assert c.sum_squares == 4
    assert c.classes() == ((0, 1, 2, 3), ())


def test_cover_normalization_and_validation():
    c = PathCover.from_paths(5, [(3, 4), (2,), (0, 1)])
    # sorted by (length, smallest node): singletons first, then pairs
    assert c.paths == ((2,), (0, 1), (3, 4))
    assert c.k == 1 and c.p == 3
    assert c.classes() == ((2,), (0, 1, 3, 4))
    with pytest.raises(InvalidGraphError):
        PathCover.from_paths(3, [(0, 1)])
    with pytest.raises(InvalidGraphError):
        PathCover.from_paths(3, [(0, 1), (1, 2)])
    with pytest.raises(InvalidGraphError):
        PathCover.from_paths(2, [(0,), (1,), ()])


def test_validate_arcs_checks_consecutive_pairs():
    sg = sg_from_arcs(3, [(0, 1)])
    PathCover.from_paths(3, [(0, 1), (2,)]).validate_arcs(sg)
    with pytest.raises(MissingArcError):
        PathCover.from_paths(3, [(1, 2), (0,)]).validate_arcs(sg)


def test_merge_semantics():
    sg = sg_from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    c = trivial_cover(3)
    merged = apply_merge(c, sg, 0, 1)
    assert merged.paths == ((2,), (0, 1))
    assert merged.sum_squares > c.sum_squares
    with pytest.raises(MissingArcError):
        apply_merge(c, sg, 1, 0)  # arc 1 -> 0 absent
    with pytest.raises(InvalidGraphError):
        apply_merge(c, sg, 1, 1)


def test_unbalance_semantics():
    # two 2-paths plus the arcs needed for each move direction
    sg = sg_from_arcs(4, [(0, 1), (2, 3), (2, 0), (1, 3)])
    c = PathCover.from_paths(4, [(0, 1), (2, 3)])
    moved = apply_unbalance(c, sg, 0, 1, "start")
    assert moved.paths == ((3,), (2, 0, 1))
    moved = apply_unbalance(c, sg, 0, 1, "end")
    assert moved.paths == ((2,), (0, 1, 3))
    for after in (apply_unbalance(c, sg, 0, 1, "start"), apply_unbalance(c, sg, 0, 1, "end")):
        assert after.sum_squares > c.sum_squares
    with pytest.raises(MissingArcError):
        apply_unbalance(c, sg, 1, 0, "start")  # would need arc 0 -> 2
    with pytest.raises(InvalidGraphError):
        apply_unbalance(c, sg, 0, 1, "sideways")


def test_unbalance_length_preconditions():
    sg = sg_from_arcs(5, [(0, 1), (2, 3), (3, 4), (0, 2)])
    c = PathCover.from_paths(5, [(0, 1), (2, 3, 4)])
    with pytest.raises(LengthOrderViolatedError):
        apply_unbalance(c, sg, 0, 1, "start")  # receiver shorter than donor
    iso = PathCover.from_paths(5, [(0,), (1,), (2, 3, 4)])
    with pytest.raises(LengthOrderViolatedError):
        apply_unbalance(iso, sg, 2, 0, "end")  # single-node donor is a merge


def test_rotation_semantics():
    sg = sg_from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    c = PathCover.from_paths(3, [(0, 1, 2)])
    assert apply_rotation(c, sg, 0, 0).paths == ((1, 2, 0),)
    assert apply_rotation(c, sg, 0, 1).paths == ((2, 0, 1),)
    with pytest.raises(InvalidGraphError):
        apply_rotation(c, sg, 0, 2)
    no_close = sg_from_arcs(3, [(0, 1), (1, 2)])
    with pytest.raises(MissingArcError):
        apply_rotation(PathCover.from_paths(3, [(0, 1, 2)]), no_close, 0, 0)


def test_rotation_needed_before_merge():
    # 0 -> 1 with closing arc 1 -> 0; vertex 2 reachable only from 0
    sg = sg_from_arcs(3, [(0, 1), (1, 0), (0, 2)])
    c = PathCover.from_paths(3, [(0, 1), (2,)])
    step = find_improvement(c, sg)
    assert step is not None and step.op == "merge"
    assert (step.rot_i, step.rot_j) != (None, None)
    improved = apply_step(c, sg, step)
    improved.validate_arcs(sg)
    assert improved.p == 1


def test_scan_prefers_plain_merge():
    sg = sg_from_arcs(4, [(0, 1), (1, 2), (2, 3)])
    step = find_improvement(trivial_cover(4), sg)
    assert step == CoverStep(op="merge", i=0, j=1)


def test_maximal_cover_on_corpus(corpus):
    for inst in corpus:
        g = inst.graph
        aligned, _ = align_with_matching(g, find_perfect_matching(g))
        sg = build_spoiling_graph(aligned)
        cover, steps = maximal_path_cover(sg, collect_log=True)
        cover.validate_arcs(sg)
        assert find_improvement(cover, sg) is None, inst.instance_id
        assert verify_maximality_conditions(cover, sg) == [], inst.instance_id

        # replay the recorded steps from the trivial cover; the squared
        # path lengths must increase strictly at every step
        work = trivial_cover(sg.n)
        for step in steps:
            nxt = apply_step(work, sg, step)
            assert nxt.sum_squares > work.sum_squares
            work = nxt
        assert work == cover


def test_single_path_cover_is_maximal():
    n = 6
    sg = sg_from_arcs(n, [(i, (i + 1) % n) for i in range(n)])
    c = PathCover.from_paths(n, [tuple(range(n))])
    assert find_improvement(c, sg) is None
    assert verify_maximality_conditions(c, sg) == []


def test_maximality_conditions_fail_on_improvable_cover():
    sg = build_spoiling_graph(six_cycle())
    report = verify_maximality_conditions(trivial_cover(3), sg)
    assert report != []


# --- the scan against the reference scan ---------------------------------

STEP_KINDS = {
    (op, rotated) for op in ("merge", "unbalance_start", "unbalance_end") for rotated in (False, True)
}


def step_kind(step):
    return step.op, (step.rot_i, step.rot_j) != (None, None)


def walk_paths(rng, masks, nodes):
    """Random valid paths over nodes: each walks random arcs to unused
    nodes, so planted cycles often come out closable."""
    left = set(nodes)
    paths = []
    while left:
        cur = [rng.choice(sorted(left))]
        left.discard(cur[0])
        while rng.random() < 0.9:
            nxt = [y for y in sorted(left) if (masks[cur[-1]] >> y) & 1]
            if not nxt:
                break
            cur.append(rng.choice(nxt))
            left.discard(cur[-1])
        paths.append(tuple(cur))
    return paths


@st.composite
def digraph_and_cover(draw):
    """A random digraph on n <= 40 nodes, built as the conflict digraph of
    an aligned graph, and a valid starting cover.

    Arcs are directed cycles over blocks of a shuffled order plus random
    arcs at a drawn density.  The start is the trivial cover, random
    walks, or a planted pair that only a rotated unbalance improves: a
    closed path A and a path B, no longer, with one arc from B's start
    into A or from A into B's end.
    """
    rng = draw(st.randoms(use_true_random=True))
    n = draw(st.integers(1, 40))
    density = draw(st.sampled_from((0.0, 0.02, 0.05, 0.1, 0.3)))
    block = draw(st.integers(1, 8))
    start = draw(st.sampled_from(("trivial", "walk", "planted start", "planted end")))
    order = list(range(n))
    rng.shuffle(order)
    masks = [0] * n

    def arc(a, b):
        if a != b:
            masks[a] |= 1 << b

    planted = []
    if start.startswith("planted") and n >= 4:
        la = rng.randint(2, n - 2)
        lb = rng.randint(2, min(la, n - la))
        a_path, b_path = order[:la], order[la : la + lb]
        for x, y in zip(a_path, a_path[1:] + a_path[:1]):
            arc(x, y)
        for x, y in zip(b_path, b_path[1:]):
            arc(x, y)
        if start == "planted start":
            arc(b_path[0], rng.choice(a_path[1:]))
        else:
            arc(rng.choice(a_path[:-1]), b_path[-1])
        planted = [tuple(a_path), tuple(b_path)]
        order = order[la + lb :]
    for t in range(0, len(order), block):
        cyc = order[t : t + block]
        for x, y in zip(cyc, cyc[1:] + cyc[:1]):
            arc(x, y)
    for a in range(n):
        for b in range(n):
            if rng.random() < density:
                arc(a, b)
    sg = sg_from_arcs(n, [(a, b) for a in range(n) for b in range(n) if (masks[a] >> b) & 1])
    if start == "trivial":
        return sg, None
    used = {x for p in planted for x in p}
    rest = walk_paths(rng, masks, [x for x in range(n) if x not in used])
    return sg, PathCover.from_paths(n, planted + rest)


def test_cover_and_log_equal_the_reference_replay():
    seen = set()

    @settings(
        max_examples=300,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(digraph_and_cover())
    def check(case):
        sg, initial = case
        cover, log = maximal_path_cover(sg, initial, collect_log=True)
        assert (cover, log) == reference_maximal_path_cover(sg, initial)
        seen.update(step_kind(s) for s in log)

    check()
    assert seen == STEP_KINDS


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(digraph_and_cover(), st.randoms(use_true_random=True))
def test_find_improvement_equals_the_reference_on_any_valid_cover(case, rng):
    sg, _ = case
    cover = PathCover.from_paths(sg.n, walk_paths(rng, sg.out_mask, range(sg.n)))
    assert find_improvement(cover, sg) == reference_find_improvement(cover, sg)


def test_corpus_covers_equal_the_reference_replay(corpus):
    for inst in corpus:
        g = inst.graph
        aligned, _ = align_with_matching(g, find_perfect_matching(g))
        sg = build_spoiling_graph(aligned)
        cover, log = maximal_path_cover(sg, collect_log=True)
        assert (cover, log) == reference_maximal_path_cover(sg), inst.instance_id


# Small digraphs, each with a valid cover whose first improvement needs a
# rotation: (arcs, the cover's paths in normalized order, the first step).
# Hypothesis draws rotated unbalances in under 1% of uniform graphs, so
# these cases keep each kind checked whatever examples it draws.  In each
# of the first five, the same pair has a second step with other cuts, so
# the order in which the cuts are tried is checked too.
ROTATED_FIRST_STEPS = [
    # A merge that rotates path i.
    (
        [(0, 2), (0, 4), (1, 5), (2, 1), (3, 6), (5, 3), (6, 0), (6, 4)],
        [(4,), (1, 5, 3, 6, 0, 2)],
        CoverStep(op="merge", i=1, j=0, rot_i=3),
    ),
    # A merge that rotates path j.
    (
        [(0, 1), (1, 2), (2, 5), (3, 6), (4, 3), (4, 6), (5, 3), (6, 0)],
        [(4,), (0, 1, 2, 5, 3, 6)],
        CoverStep(op="merge", i=0, j=1, rot_j=3),
    ),
    # A merge that rotates both paths.
    (
        [(0, 1), (1, 4), (2, 0), (2, 5), (3, 6), (4, 2), (4, 3), (5, 3), (6, 5)],
        [(6, 5, 3), (1, 4, 2, 0)],
        CoverStep(op="merge", i=1, j=0, rot_i=1, rot_j=1),
    ),
    # unbalance_start into a rotated receiver.
    (
        [(0, 1), (1, 4), (2, 0), (2, 3), (2, 5), (4, 5), (5, 0)],
        [(2, 3), (1, 4, 5, 0)],
        CoverStep(op="unbalance_start", i=1, j=0, rot_i=1),
    ),
    # unbalance_end onto a rotated receiver.
    (
        [(0, 5), (2, 6), (3, 1), (4, 0), (4, 1), (5, 2), (6, 1), (6, 4)],
        [(3, 1), (5, 2, 6, 4, 0)],
        CoverStep(op="unbalance_end", i=1, j=0, rot_i=2),
    ),
    # An unbalance that rotates its donor, path 0 cut at 0, moves node 1
    # in front of path 1.  Its arc 1 -> 3 also merges path 0, cut at 1,
    # into path 1, and merges come first.  So no first step rotates a
    # donor: every node of a path that can rotate is one of its possible
    # starts and ends, and the arc that such an unbalance takes makes a
    # rotated merge.
    (
        [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 5)],
        [(0, 1, 2), (3, 4, 5)],
        CoverStep(op="merge", i=0, j=1, rot_i=1),
    ),
]


@pytest.mark.parametrize("arcs, paths, first", ROTATED_FIRST_STEPS)
def test_fixed_rotated_first_steps_equal_the_reference(arcs, paths, first):
    n = sum(map(len, paths))
    sg, cover = sg_from_arcs(n, arcs), PathCover.from_paths(n, paths)
    assert cover.paths == tuple(paths)
    assert find_improvement(cover, sg) == reference_find_improvement(cover, sg) == first


def test_the_rotated_donor_unbalance_of_the_fixed_cases_applies():
    arcs, paths, _ = ROTATED_FIRST_STEPS[-1]
    sg, cover = sg_from_arcs(6, arcs), PathCover.from_paths(6, paths)
    donated = apply_step(cover, sg, CoverStep(op="unbalance_start", i=1, j=0, rot_j=0))
    assert donated.paths == ((2, 0), (1, 3, 4, 5))


@st.composite
def aligned_sg_and_cover(draw):
    """The conflict digraph of a random identity-aligned graph on n <= 40
    nodes, and a cover of random walks over it."""
    rng = draw(st.randoms(use_true_random=True))
    n = draw(st.integers(1, 40))
    g = random_pm_graph(rng, n, extra=rng.randrange(0, 4 * n))
    sg = build_spoiling_graph(g)
    return sg, PathCover.from_paths(n, walk_paths(rng, sg.out_mask, range(n)))


def in_mask_is_the_transpose(sg):
    """Bit i of in_mask[j] equals bit j of out_mask[i], for all i and j."""
    return len(sg.in_mask) == sg.n and all(
        (sg.in_mask[j] >> i) & 1 == (sg.out_mask[i] >> j) & 1
        for i in range(sg.n)
        for j in range(sg.n)
    )


def test_built_in_masks_and_unlogged_covers_on_the_corpus(corpus):
    for inst in corpus:
        g = inst.graph
        aligned, _ = align_with_matching(g, find_perfect_matching(g))
        sg, instance_id = build_spoiling_graph(aligned), inst.instance_id
        assert in_mask_is_the_transpose(sg), instance_id
        paths = walk_paths(random.Random(sg.n), sg.out_mask, range(sg.n))
        for initial in (None, PathCover.from_paths(sg.n, paths)):
            cover, _ = maximal_path_cover(sg, initial, collect_log=True)
            assert maximal_path_cover(sg, initial) == (cover, None), instance_id


def test_built_in_masks_and_unlogged_covers_on_random_aligned_graphs():
    seen = set()

    # digraph_and_cover builds its digraphs from aligned graphs too, and its
    # planted pairs give the rotated unbalances that uniform random graphs
    # show in under 1% of draws, too few to rely on in 300 examples.
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.one_of(aligned_sg_and_cover(), digraph_and_cover()))
    def check(case):
        sg, walked = case
        assert in_mask_is_the_transpose(sg)
        for initial in (None, walked):
            cover, log = maximal_path_cover(sg, initial, collect_log=True)
            assert (cover, log) == reference_maximal_path_cover(sg, initial)
            assert maximal_path_cover(sg, initial) == (cover, None)
            seen.update(step_kind(s) for s in log)

    check()
    assert seen == STEP_KINDS


def test_long_single_path_certifies():
    n = 3000
    g = generate(FamilySpec("hamiltonian_random", {"n": n, "extra_edges": 0}, seed=1))
    aligned, _ = align_with_matching(g, find_perfect_matching(g))
    cover, log = maximal_path_cover(build_spoiling_graph(aligned), collect_log=True)
    assert cover.p == 1 and len(log) == n - 1
    cert = build_theorem1(g)
    assert cert.eps.p == 1
