"""End-to-end acceptance gate.

One test per shipped claim.  Every test records a PASS/FAIL line through
conftest.record_acceptance before asserting, so the terminal summary
always lists all fourteen outcomes even when some fail.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from conftest import (
    brute_force_min,
    random_pm_graph,
    random_perm,
    record_acceptance,
    verify_maximal,
    verify_stability,
)

from greedyorder import (
    FamilySpec,
    Permutation,
    generate,
    greedy_match,
)
from greedyorder.adversary import (
    adversary_projective,
    adversary_regular_gadget,
    worst_order_exact,
    worst_order_masked_min,
)
from greedyorder.analysis import (
    AnalysisParams,
    bound_exponents,
    cross_check_interpretations,
    enumerate_bad_sets,
    iterative_process,
    monte_carlo_random_pi,
)
from greedyorder.certify import (
    GUARANTEE_FLOOR,
    build_certificate,
    build_theorem1,
    guarantee_sort2,
    order_sort2,
    selector_lp_optimum,
    selector_value_at,
)
from greedyorder.spoil import PathCover, build_spoiling_graph


def test_criterion_01_fig1_exhaustive_maxmin():
    g = generate(FamilySpec("fig1"))
    start = time.perf_counter()
    sizes = []
    for order in itertools.permutations(range(3)):
        res = worst_order_exact(g, Permutation.from_order(order))
        assert res.exact
        sizes.append(res.size)
    elapsed = time.perf_counter() - start
    ok = max(sizes) == 2 and elapsed < 1.0
    record_acceptance(
        1,
        "fig1 exhaustive max-min",
        ok,
        "max-min=%d over 6 orders, %.3fs" % (max(sizes), elapsed),
    )
    assert ok


def test_criterion_02_corpus_certificates_sound(corpus):
    start = time.perf_counter()
    assert len(corpus) >= 50
    assert all(inst.graph.n <= 14 for inst in corpus)
    violations = []
    for inst in corpus:
        cert = build_theorem1(inst.graph)
        res = worst_order_exact(inst.graph, cert.pi)
        if not res.exact or cert.guaranteed_count > res.size:
            violations.append((inst.instance_id, cert.guaranteed_count, res.size))
        if cert.guaranteed_fraction < GUARANTEE_FLOOR:
            violations.append((inst.instance_id, "fraction", str(cert.guaranteed_fraction)))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 600.0
    record_acceptance(
        2,
        "corpus certificates sound",
        ok,
        "%d instances, %d violations, %.1fs" % (len(corpus), len(violations), elapsed),
    )
    assert ok, violations


def test_criterion_03_selector_lp_exact():
    value, argmax = selector_lp_optimum()
    expected_point = (Fraction(19, 86), Fraction(10, 86), Fraction(21, 86))
    ok = (
        value == Fraction(22, 43)
        and argmax == expected_point
        and selector_value_at(*expected_point) == Fraction(22, 43)
    )
    record_acceptance(3, "selector optimum 22/43", ok, "value=%s at %s" % (value, argmax))
    assert ok


def test_criterion_04_sort1_prefix_always_matched():
    rng = random.Random(4004)
    start = time.perf_counter()
    violations = 0
    for _ in range(100):
        g = random_pm_graph(rng, rng.randrange(2, 13))
        cert = build_certificate(g, "sort1")
        prefix = list(cert.pi.order[: cert.guaranteed_count])
        value, exact, _ = worst_order_masked_min(g, cert.pi, prefix)
        if not exact or value != len(prefix):
            violations += 1
            continue
        res = worst_order_exact(g, cert.pi)
        out = greedy_match(g, res.sigma, cert.pi)
        if any(out.matched_u_of_v[v] is None for v in prefix):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0
    record_acceptance(
        4,
        "two-per-path prefix survives",
        ok,
        "100 graphs n<=12, %d violations, %.1fs" % (violations, elapsed),
    )
    assert ok


def test_criterion_05_single_path_cover_bound():
    rng = random.Random(55)
    violations = 0
    checked = 0
    for n in (9, 12):
        for trial in range(15):
            spec = FamilySpec(
                "hamiltonian_random",
                {"n": n, "extra_edges": rng.randrange(0, n + 1)},
                seed=500 + 100 * n + trial,
            )
            g = generate(spec)
            sg = build_spoiling_graph(g)
            cover = PathCover.from_paths(n, [tuple(range(n))])
            cover.validate_arcs(sg)
            pi = order_sort2(cover, n)
            bound = guarantee_sort2(cover)
            assert bound == math.ceil((5 * n - 1) / 9)
            res = worst_order_exact(g, pi)
            checked += 1
            if not res.exact or res.size < bound:
                violations += 1
    ok = violations == 0 and checked == 30
    record_acceptance(
        5,
        "cycle cover meets (5n-1)/9",
        ok,
        "30 instances n in {9,12}, %d violations" % violations,
    )
    assert ok


def test_criterion_06_regular_floor_and_tightness(corpus):
    degree_of = {
        "regular89": lambda p: 2 * int(p["d"]),
        "tight_regular": lambda p: int(p["d"]),
        "fano": lambda p: 3,
        "pg23": lambda p: 4,
        "random_regular": lambda p: int(p["d"]),
        "planted_is": lambda p: int(p["d"]),
    }
    rng = random.Random(66)
    violations = []
    checked = 0
    for inst in corpus:
        fam = inst.spec.family
        if fam not in degree_of:
            continue
        g = inst.graph
        d = degree_of[fam](inst.spec.params)
        floor = math.ceil(d * g.n / (2 * d - 1))
        orders = [Permutation.identity(g.n)] + [random_perm(rng, g.n) for _ in range(3)]
        for pi in orders:
            res = worst_order_exact(g, pi)
            checked += 1
            if not res.exact or res.size < floor:
                violations.append((inst.instance_id, res.size, floor))
    tight_hits = []
    for d in (2, 3, 4):
        g = generate(FamilySpec("tight_regular", {"d": d}))
        order = Permutation.from_order(list(range(d - 1, g.n)) + list(range(d - 1)))
        out = greedy_match(g, order, order)
        tight_hits.append(out.size == d)
    ok = not violations and all(tight_hits)
    record_acceptance(
        6,
        "regular floor d*n/(2d-1)",
        ok,
        "%d exact runs, tight d in {2,3,4} hit exactly" % checked,
    )
    assert ok, violations


def test_criterion_07_gadget_quota_exhaustive():
    start = time.perf_counter()
    g1 = generate(FamilySpec("regular89", {"d": 3, "t": 1}))
    worst_slack = None
    bad = 0
    for order in itertools.permutations(range(9)):
        pi = Permutation.from_order(order)
        out = greedy_match(g1, adversary_regular_gadget(pi, 3, 1), pi)
        unmatched = 9 - out.size
        worst_slack = unmatched if worst_slack is None else min(worst_slack, unmatched)
        if unmatched < 1:
            bad += 1
    g2 = generate(FamilySpec("regular89", {"d": 3, "t": 2}))
    rng = random.Random(77)
    for _ in range(10_000):
        pi = random_perm(rng, 18)
        out = greedy_match(g2, adversary_regular_gadget(pi, 3, 2), pi)
        if 18 - out.size < 2:
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 600.0
    record_acceptance(
        7,
        "gadget leaves ceil(d/3)*t",
        ok,
        "9! exhaustive + 10^4 sampled, %d misses, %.0fs" % (bad, elapsed),
    )
    assert ok


def test_criterion_08_projective_planes():
    start = time.perf_counter()
    fano = generate(FamilySpec("fano"))
    sizes = set()
    for order in itertools.permutations(range(7)):
        res = worst_order_exact(fano, Permutation.from_order(order))
        assert res.exact
        sizes.add(res.size)
    fano_elapsed = time.perf_counter() - start
    fano_ok = max(sizes) == 5 and fano_elapsed < 300.0

    pg = generate(FamilySpec("pg23"))
    rng = random.Random(88)
    over = 0
    best_pi, best_size = None, -1
    for _ in range(10_000):
        pi = random_perm(rng, 13)
        out = greedy_match(pg, adversary_projective(pg, pi, 3), pi)
        if out.size > 10:
            over += 1
        if out.size > best_size:
            best_pi, best_size = pi, out.size
    exact_best = worst_order_exact(pg, best_pi)
    ok = fano_ok and over == 0
    record_acceptance(
        8,
        "projective plane ceilings",
        ok,
        "fano max-min=%d (%.0fs); pg23 constructive<=10 on 10^4, "
        "best order exact=%d (reported only)" % (max(sizes), fano_elapsed, exact_best.size),
    )
    assert ok


def test_criterion_09_gadget_bad_sets():
    chain1 = generate(FamilySpec("badset_chain", {"copies": 1}))
    rep1 = enumerate_bad_sets(chain1, 2, mode="full_pi")
    one_ok = rep1.bad_sets == ((0, 1), (0, 2))

    chain2 = generate(FamilySpec("badset_chain", {"copies": 2}))
    rep2 = enumerate_bad_sets(chain2, 4, mode="full_pi")
    cross = {(0, 1, 4, 5), (0, 1, 4, 6), (0, 2, 4, 5), (0, 2, 4, 6)}
    two_ok = len(rep2.bad_sets) >= 4 and cross.issubset(set(rep2.bad_sets))
    ok = one_ok and two_ok
    record_acceptance(
        9,
        "chain bad-set census",
        ok,
        "1 copy: %d pairs; 2 copies: %d quadruples" % (len(rep1.bad_sets), len(rep2.bad_sets)),
    )
    assert ok


def test_criterion_10_exponent_budget():
    start = time.perf_counter()
    report = bound_exponents(AnalysisParams("0.0012", "0.245", "0.3675"))
    elapsed = time.perf_counter() - start
    ok = (
        report.badset_exp <= 0.044 + 1e-9
        and report.badset_exp + report.order_exp < 1e-9
        and elapsed < 1.0
    )
    record_acceptance(
        10,
        "counting beats union bound",
        ok,
        "badset=%.6f order=%.6f; expansion literal %.4f, rescaled %.6f (reported only)"
        % (
            report.badset_exp,
            report.order_exp,
            report.expansion_exp_literal,
            report.expansion_exp_rescaled,
        ),
    )
    assert ok


def test_criterion_11_biclique_mean_fraction():
    g = generate(FamilySpec("biclique_half", {"n": 400}))
    summary = monte_carlo_random_pi(g, trials=200, adversary_mode="constructive", seed=17)
    ok = 0.5 <= summary.mean_fraction <= 0.75
    record_acceptance(
        11,
        "half-biclique mean fraction",
        ok,
        "mean=%.4f in [0.5,0.75]; 0.525 ceiling not met (reported only)"
        % summary.mean_fraction,
    )
    assert ok


def test_criterion_12_iteration_plateau():
    g = generate(FamilySpec("iterative", {"i": 3}))
    pi1 = Permutation.from_order(tuple(reversed(range(8))))
    trace = iterative_process(g, pi1, cap=10, minimizer_policy="exhaustive_worst_for_next_round")
    sizes = [rec.size for rec in trace.records]
    ok = (
        len(sizes) >= 3
        and all(s == 4 for s in sizes[:-1])
        and not trace.cap_reached
    )
    record_acceptance(
        12,
        "iterated halving plateau",
        ok,
        "round sizes %s on n=8" % (sizes,),
    )
    assert ok


def test_criterion_13_planted_set_survives():
    start = time.perf_counter()
    g = generate(FamilySpec("planted_is", {"n": 600, "d": 20, "eps": 0.1}, seed=13))
    summary = monte_carlo_random_pi(g, trials=100, adversary_mode="constructive", seed=13)
    elapsed = time.perf_counter() - start
    ok = summary.mean_fraction <= 0.8 and elapsed < 120.0
    record_acceptance(
        13,
        "planted hole mean <= 0.8",
        ok,
        "mean=%.4f over 100 orders, %.1fs" % (summary.mean_fraction, elapsed),
    )
    assert ok


def test_criterion_14_cross_validation(corpus):
    rng = random.Random(1414)
    mismatches = 0
    exact_checked = 0
    for inst in corpus:
        g = inst.graph
        if g.n > 7:
            continue
        orders = [
            Permutation.identity(g.n),
            Permutation.from_order(tuple(reversed(range(g.n)))),
        ] + [random_perm(rng, g.n) for _ in range(3)]
        for pi in orders:
            exact_checked += 1
            if worst_order_exact(g, pi).size != brute_force_min(g, pi):
                mismatches += 1

    cross_checked = 0
    for inst in corpus:
        if inst.graph.n <= 4:
            cross_check_interpretations(inst.graph)
            cross_checked += 1
    assert cross_checked > 0

    stability_bad = 0
    pool = [inst.graph for inst in corpus if inst.graph.n <= 10]
    for _ in range(10_000):
        g = pool[rng.randrange(len(pool))]
        out_sigma = random_perm(rng, g.n)
        out_pi = random_perm(rng, g.n)
        out = greedy_match(g, out_sigma, out_pi)
        if not verify_maximal(g, out) or not verify_stability(g, out_sigma, out_pi, out):
            stability_bad += 1

    ok = mismatches == 0 and stability_bad == 0
    record_acceptance(
        14,
        "dual-route agreement",
        ok,
        "%d exact-vs-brute orders, %d role-swap graphs, 10^4 stable runs"
        % (exact_checked, cross_checked),
    )
    assert ok
