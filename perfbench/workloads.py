"""The four benchmark workloads.

Each workload turns a seed into a fixed list of inputs, runs each input
as one call into the program (the untraced op), can replay the same call
stage by stage under a tracer (the traced op), and reduces a result to an
outcome that is compared with the recorded references.

The seed picks one of ``POOL`` input variants (``seed % POOL``), so every
variant's expected outputs can be recorded once in ``references.json``.
The variant sets the sampled priority orders and the heuristic's graph in
montecarlo.  Inputs whose cost swings between generator seeds stay fixed,
so that run-to-run spread measures the program rather than the draw: all
of certify_large, attack_exact and safety_census, and the planted graph
and its orders in montecarlo.

Every input's call takes at most about 50 ms, so that the fastest of its
repetitions in a run measures the program and not a busy shared host (see
``worker.py``); that is why the graphs are far smaller than the program
can handle.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import statistics
import tracemalloc
from fractions import Fraction

from greedyorder import adversary, analysis, certify, cli, core, spoil
from greedyorder import io as gio
from greedyorder.errors import PropositionViolatedError
from greedyorder.families import FamilySpec, generate

POOL = 16


def variant_of(seed: int) -> int:
    return seed % POOL


def instance_key(inst: dict) -> str:
    return json.dumps(inst, sort_keys=True, separators=(",", ":"))


def make_graph(inst: dict) -> core.BipartiteGraph:
    """Generate one input graph.  ``reversed_chain`` is built here: each
    u_i is adjacent to v_{n-1-i} and v_{n-2-i}, a single long alternating
    path that drives Hopcroft-Karp's recursive search n levels deep."""
    if inst["family"] == "reversed_chain":
        n = inst["params"]["n"]
        edges = [(i, n - 1 - i) for i in range(n)] + [(i, n - 2 - i) for i in range(n - 1)]
        return core.BipartiteGraph.from_edges(n, sorted(edges))
    return generate(FamilySpec(inst["family"], inst["params"], seed=inst["seed"]))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class OpError:
    """An operation that raised; only the exception type is compared."""

    def __init__(self, exc: BaseException) -> None:
        self.kind = type(exc).__name__
        self.message = str(exc)[:200]

    def __eq__(self, other) -> bool:
        return isinstance(other, OpError) and other.kind == self.kind

    def __repr__(self) -> str:
        return "OpError(%s: %s)" % (self.kind, self.message)


# --- certificate pipeline, stage by stage ----------------------------------


def select(n, cover, eps, v_map) -> certify.BoundCertificate:
    """The selector step of ``certify.build_theorem1``: evaluate the four
    orders' guarantees, keep the best and map pi back to original labels."""
    candidates = [
        ("sort1", certify.guarantee_sort1(cover), certify.order_sort1),
        ("sort2", certify.guarantee_sort2(cover), certify.order_sort2),
        ("m12_order", certify.guarantee_m12(cover, eps.m12), certify.order_m12),
        ("large_m12_order", certify.guarantee_large_m12(cover, eps.m12), certify.order_large_m12),
    ]
    name, count, build_order = max(candidates, key=lambda c: c[1])
    pi = core.Permutation.from_order([v_map[x] for x in build_order(cover, n).order])
    fraction = Fraction(count, n)
    if fraction < certify.GUARANTEE_FLOOR:
        raise PropositionViolatedError("selector fell below the floor")
    return certify.BoundCertificate(
        pi=pi, construction=name, guaranteed_count=count, guaranteed_fraction=fraction, eps=eps
    )


def build_theorem1_traced(g, t) -> certify.BoundCertificate:
    m = t.call("core.find_perfect_matching", core.find_perfect_matching, g)
    aligned, v_map = t.call("core.align_with_matching", core.align_with_matching, g, m)
    sg = t.call("spoil.build_spoiling_graph", spoil.build_spoiling_graph, aligned)
    cover, log = t.call("spoil.maximal_path_cover", spoil.maximal_path_cover, sg, collect_log=True)
    t.count("spoil.cover_steps", len(log))
    eps = t.call("certify.compute_eps", certify.compute_eps, cover, sg)
    return t.call("certify.select", select, g.n, cover, eps, v_map)


def certificate_text(cert) -> str:
    return gio.canonical_dumps(gio.certificate_to_doc(cert))


# --- workloads ----------------------------------------------------------------


class Workload:
    """Interface shared by the workloads.

    ``load`` turns a written input into an item; ``run`` is the untraced
    op and ``run_traced`` its stage-by-stage replay; ``ops`` is how many
    operations one item counts for; ``ok`` tells a result that counts as
    done; ``outcome`` is the part of a result compared with the
    references; ``check`` lists mismatches against one reference.
    """

    name = ""

    def instances(self, variant: int, smoke: bool) -> list[dict]:
        raise NotImplementedError

    def load(self, inst: dict, graph_path: str):
        g, _ = gio.read_graph(graph_path)
        return {"inst": inst, "graph": g}

    def ops(self, item) -> int:
        return 1

    def ok(self, result) -> bool:
        return not isinstance(result, OpError)

    def peak_bytes_per_node(self, items, results) -> float:
        """Peak memory of the largest exact search over its nodes, or 0."""
        return 0.0

    def run_traced_item(self, item, t, first_op: int, out: str):
        """Replay one item under the tracer; returns the result."""
        t.op = first_op
        return t.call("bench.op", self.run_traced, item, t, out)


class CertifyLarge(Workload):
    """``greedyorder bound`` on eight graphs of n=100..1500.  The maximal
    path cover does most of the work, the adversary none, and the reversed
    chain fails in Hopcroft-Karp's recursion."""

    name = "certify_large"

    def instances(self, variant, smoke):
        s = variant + 1
        if smoke:
            rows = [
                ("random_regular", {"n": 40, "d": 3}, s),
                ("hamiltonian_random", {"n": 60, "extra_edges": 0}, s),
                ("iterative", {"i": 4}, 0),
                ("badset_chain", {"copies": 6}, 0),
                ("regular89", {"d": 2, "t": 3}, 0),
                ("planted_is", {"n": 40, "d": 4, "eps": 0.2}, s),
                ("biclique_half", {"n": 20}, 0),
            ]
        else:
            # Each certificate takes 10-50 ms, short enough that some of a
            # run's repetitions fall wholly in a quiet spell of a shared host.
            # Fixed graphs: at these sizes a certificate's cost differs by up
            # to 1.6x between generator seeds, which would swamp ops_per_s.
            rows = [
                ("random_regular", {"n": 150, "d": 3}, 1),
                ("hamiltonian_random", {"n": 250, "extra_edges": 0}, 1),
                ("iterative", {"i": 7}, 0),
                ("badset_chain", {"copies": 30}, 0),
                ("regular89", {"d": 6, "t": 6}, 0),
                ("planted_is", {"n": 150, "d": 10, "eps": 0.1}, 1),
                ("biclique_half", {"n": 100}, 0),
            ]
        rows.append(("reversed_chain", {"n": 1500}, 0))
        return [{"family": f, "params": p, "seed": sd} for f, p, sd in rows]

    def load(self, inst, graph_path):
        return {"inst": inst, "path": graph_path}

    def run(self, item, out):
        code = cli.main(["bound", item["path"], "-o", out])
        if code != 0:
            raise RuntimeError("greedyorder bound exited with %d" % code)
        with open(out, "rb") as fh:
            return fh.read()

    def run_traced(self, item, t, out):
        argv = ["bound", item["path"], "-o", out]
        args = t.call("cli.parse_args", lambda: cli.build_parser().parse_args(argv))

        def cmd_bound():
            g, _ = t.call("io.read_graph", gio.read_graph, args.graph)
            cert = t.call("certify.build_theorem1", build_theorem1_traced, g, t)
            t.call("io.write_certificate", write_certificate, args.output, cert)

        t.call("cli.cmd_bound", cmd_bound)
        with open(out, "rb") as fh:
            return fh.read()

    def outcome(self, item, result):
        if isinstance(result, OpError):
            return {"error": result.kind}
        doc = json.loads(result)
        return {
            "sha256": sha256(result),
            "construction": doc["construction"],
            "guaranteed_count": doc["guaranteed_count"],
        }

    def check(self, item, result, ref):
        got = self.outcome(item, result)
        if "error" in got:
            # A failure recorded at the baseline commit stays a failure,
            # not a mismatch; any other exception is a mismatch.
            if ref.get("error") == got["error"]:
                return []
            return ["raised %s, reference %s" % (got["error"], ref.get("error", "no error"))]
        if got["sha256"] != ref["sha256"]:
            return ["certificate differs from the reference (%s %d vs %s %d)" % (
                got["construction"], got["guaranteed_count"],
                ref["construction"], ref["guaranteed_count"])]
        return []


def write_certificate(path: str, cert) -> None:
    """What ``cli.cmd_bound`` does with a certificate and ``-o``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(certificate_text(cert))


class AttackExact(Workload):
    """Certify, then attack exactly, six graphs of n=7..11.  The memoized
    search does almost all the work and its memo sets peak memory."""

    name = "attack_exact"

    def instances(self, variant, smoke):
        # Fixed graphs: a search's node count swings up to 3x between
        # generator seeds at the same n, which would swamp ops_per_s.
        if smoke:
            rows = [
                ("random_regular", {"n": 8, "d": 3}, 1),
                ("random_regular", {"n": 8, "d": 3}, 2),
                ("random_regular", {"n": 9, "d": 3}, 1),
                ("random_regular", {"n": 10, "d": 3}, 1),
                ("hamiltonian_random", {"n": 9, "extra_edges": 9}, 1),
                ("fano", {}, 0),
            ]
        else:
            # n stays at 11 or below so one search takes at most about 40 ms.
            rows = [
                ("random_regular", {"n": 9, "d": 3}, 1),
                ("random_regular", {"n": 10, "d": 3}, 1),
                ("random_regular", {"n": 10, "d": 3}, 2),
                ("hamiltonian_random", {"n": 10, "extra_edges": 10}, 1),
                ("hamiltonian_random", {"n": 11, "extra_edges": 11}, 1),
                ("fano", {}, 0),
            ]
        return [{"family": f, "params": p, "seed": sd} for f, p, sd in rows]

    def run(self, item, out):
        g = item["graph"]
        cert = certify.build_theorem1(g)
        return cert, adversary.worst_order_exact(g, cert.pi)

    def run_traced(self, item, t, out):
        g = item["graph"]
        cert = t.call("certify.build_theorem1", build_theorem1_traced, g, t)
        res = t.call("adversary.worst_order_exact", adversary.worst_order_exact, g, cert.pi)
        t.count("adversary.nodes", res.nodes_expanded)
        t.count("adversary.exact", int(res.exact))
        return cert, res

    def ok(self, result):
        return not isinstance(result, OpError) and result[1].exact

    def peak_bytes_per_node(self, items, results):
        """The largest search again, alone under tracemalloc (which slows it
        about 15x): its peak traced memory, mostly the memo, over its nodes."""
        done = [(r[1].nodes_expanded, i) for i, r in enumerate(results) if self.ok(r)]
        if not done:
            return 0.0
        nodes, i = max(done)
        tracemalloc.start()
        try:
            adversary.worst_order_exact(items[i]["graph"], results[i][0].pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / nodes

    def outcome(self, item, result):
        if isinstance(result, OpError):
            return {"error": result.kind}
        cert, res = result
        return {
            "certificate_sha256": sha256(certificate_text(cert).encode()),
            "guaranteed_count": cert.guaranteed_count,
            "size": res.size,
        }

    def check(self, item, result, ref):
        got = self.outcome(item, result)
        if "error" in got:
            return ["raised %s" % got["error"]]
        cert, res = result
        issues = []
        if got["certificate_sha256"] != ref["certificate_sha256"]:
            issues.append("certificate differs from the reference")
        if res.exact and res.size != ref["size"]:
            issues.append("exact size %d, reference %d" % (res.size, ref["size"]))
        if not res.exact and res.size < ref["size"]:
            issues.append("inexact size %d below the exact minimum %d" % (res.size, ref["size"]))
        if core.greedy_match(item["graph"], res.sigma, cert.pi).size != res.size:
            issues.append("sigma does not replay to size %d" % res.size)
        if cert.guaranteed_count > res.size:
            issues.append("certified %d exceeds the minimum %d" % (cert.guaranteed_count, res.size))
        return issues


class SafetyCensus(Workload):
    """Ten bad-set censuses: full_pi on graphs of n=4..5, where most
    ``is_safe`` queries end in the Hall pre-checks, and canonical_pi on fano
    and on random 3-regular graphs of n=8..9, whose queries are early-exit
    searches, so the search layer is loaded as many small calls rather than
    a few deep ones."""

    name = "safety_census"

    def instances(self, variant, smoke):
        # Fixed graphs: an early-exit census costs up to 3x more on some
        # generator seeds than on others, which would swamp ops_per_s.
        if smoke:
            rows = [
                ("fig1", {}, 0, 1, "full_pi"),
                ("badset_chain", {"copies": 1}, 0, 2, "full_pi"),
                ("random_regular", {"n": 8, "d": 3}, 1, 2, "canonical_pi"),
                ("random_regular", {"n": 9, "d": 3}, 1, 2, "canonical_pi"),
            ]
        else:
            # A census takes at most about 40 ms.  full_pi tries all n!
            # priority orders, so it stays at n <= 5.
            rows = [
                ("badset_chain", {"copies": 1}, 0, 1, "full_pi"),
                ("badset_chain", {"copies": 1}, 0, 2, "full_pi"),
                ("random_regular", {"n": 5, "d": 3}, 1, 2, "full_pi"),
                ("hamiltonian_random", {"n": 5, "extra_edges": 2}, 1, 2, "full_pi"),
                ("fano", {}, 0, 2, "canonical_pi"),
                ("fano", {}, 0, 3, "canonical_pi"),
                ("random_regular", {"n": 8, "d": 3}, 1, 2, "canonical_pi"),
                ("random_regular", {"n": 8, "d": 3}, 2, 2, "canonical_pi"),
                ("random_regular", {"n": 9, "d": 3}, 1, 2, "canonical_pi"),
                ("random_regular", {"n": 9, "d": 3}, 2, 2, "canonical_pi"),
            ]
        return [
            {"family": f, "params": p, "seed": sd, "size": k, "mode": m}
            for f, p, sd, k, m in rows
        ]

    def run(self, item, out):
        inst = item["inst"]
        return analysis.enumerate_bad_sets(item["graph"], inst["size"], mode=inst["mode"])

    def run_traced(self, item, t, out):
        return t.call("analysis.enumerate_bad_sets", self._census, item, t)

    @staticmethod
    def _census(item, t):
        """The loop of ``analysis.enumerate_bad_sets`` over ``is_safe``."""
        g, inst = item["graph"], item["inst"]
        n, size, mode = g.n, inst["size"], inst["mode"]
        if mode == "full_pi":
            candidates = [core.Permutation.from_order(p) for p in itertools.permutations(range(n))]
        bad, witnesses = [], {}
        for comb in itertools.combinations(range(n), size):
            if mode == "canonical_pi":
                rest = [v for v in range(n) if v not in comb]
                candidates = [core.Permutation.from_order(rest + list(comb))]
            for pi in candidates:
                result = t.call("analysis.is_safe", analysis.is_safe, g, pi, comb)
                t.count("analysis.is_safe.unsafe", int(not result.safe))
                if not result.safe:
                    bad.append(comb)
                    witnesses[comb] = (pi, result.witness)
                    break
        return analysis.BadSetReport(size, mode, tuple(bad), witnesses)

    def outcome(self, item, result):
        if isinstance(result, OpError):
            return {"error": result.kind}
        return {"bad_sets": [list(s) for s in result.bad_sets]}

    def check(self, item, result, ref):
        got = self.outcome(item, result)
        if "error" in got:
            return ["raised %s" % got["error"]]
        issues = []
        if got["bad_sets"] != ref["bad_sets"]:
            issues.append("%d bad sets, reference %d" % (len(got["bad_sets"]), len(ref["bad_sets"])))
        g = item["graph"]
        for s, (pi, sigma) in result.witnesses.items():
            out = core.greedy_match(g, sigma, pi)
            if any(out.matched_u_of_v[v] is not None for v in s):
                issues.append("witness for %s does not replay" % (s,))
        return issues


# Constructive adversaries by family, as monte_carlo_random_pi dispatches them.
CONSTRUCTIVE = {
    "regular89": lambda g, pi: adversary.adversary_regular_gadget(
        pi, int(g.params["d"]), int(g.params["t"])
    ),
    "biclique_half": lambda g, pi: adversary.adversary_biclique(pi, g.n),
    "planted_is": lambda g, pi: adversary.adversary_planted_is(g, pi),
}

# The heuristic adversary's local-search steps per trial; at 300 one trial
# on the n=60 graph takes about 10 ms.
HEURISTIC_ITERS = 300
# Each graph is attacked in this many calls, each with its own seed, so
# that one call stays short.
MC_CALLS = 3


class MonteCarlo(Workload):
    """69 random-priority trials in twelve calls of
    ``monte_carlo_random_pi``: ``greedy_match`` and the constructive and
    heuristic adversaries, which the other workloads barely call."""

    name = "montecarlo"

    def instances(self, variant, smoke):
        s = variant + 1
        # Columns: family, params, generator seed, trials per call, mode,
        # and the seed of the sampled priority orders.
        if smoke:
            rows = [
                ("biclique_half", {"n": 20}, 0, 10, "constructive", variant),
                ("planted_is", {"n": 40, "d": 6, "eps": 0.3}, s, 5, "constructive", variant),
                ("regular89", {"d": 2, "t": 3}, 0, 5, "constructive", variant),
                ("random_regular", {"n": 10, "d": 3}, s, 1, "heuristic", variant),
            ]
        else:
            # One call takes 5-25 ms.
            rows = [
                ("biclique_half", {"n": 400}, 0, 10, "constructive", variant),
                # One planted graph and one set of orders for every seed:
                # the constructive adversary's cost on it ranges over 2.6x
                # between generator seeds and by a third between orders,
                # which would swamp ops_per_s.
                ("planted_is", {"n": 600, "d": 20, "eps": 0.1}, 13, 2, "constructive", 0),
                ("regular89", {"d": 10, "t": 10}, 0, 10, "constructive", variant),
                ("random_regular", {"n": 60, "d": 4}, s, 1, "heuristic", variant),
            ]
        return [
            {"family": f, "params": p, "seed": sd, "trials": k, "mode": m,
             "mc_seed": orders * MC_CALLS + call}
            for f, p, sd, k, m, orders in rows
            for call in range(MC_CALLS)
        ]

    def ops(self, item):
        return item["inst"]["trials"]

    def run(self, item, out):
        inst = item["inst"]
        return analysis.monte_carlo_random_pi(
            item["graph"], inst["trials"], adversary_mode=inst["mode"],
            seed=inst["mc_seed"], iters=HEURISTIC_ITERS,
        )

    def run_traced_item(self, item, t, first_op, out):
        """The trial loop of ``analysis.monte_carlo_random_pi``, one op per trial."""
        g, inst = item["graph"], item["inst"]
        n, mode, seed = g.n, inst["mode"], inst["mc_seed"]
        sizes = []
        for trial in range(inst["trials"]):
            t.op = first_op + trial
            sizes.append(t.call("bench.op", self._trial, g, n, mode, seed * 1_000_003 + trial, t))
        fractions = [sz / n for sz in sizes]
        return analysis.MonteCarloSummary(
            trials=inst["trials"],
            mean_size=statistics.fmean(sizes),
            min_size=min(sizes),
            mean_fraction=statistics.fmean(fractions),
            min_fraction=min(fractions),
            stddev_fraction=statistics.pstdev(fractions),
            upper_bound_only=True,
        )

    @staticmethod
    def _trial(g, n, mode, trial_seed, t):
        order = list(range(n))
        random.Random(trial_seed).shuffle(order)
        pi = core.Permutation.from_order(order)
        if mode == "heuristic":
            return t.call(
                "adversary.heuristic", adversary.worst_order_heuristic,
                g, pi, iters=HEURISTIC_ITERS, seed=trial_seed,
            ).size
        sigma = t.call("adversary.constructive", CONSTRUCTIVE[g.family], g, pi)
        return t.call("core.greedy_match", core.greedy_match, g, sigma, pi).size

    def outcome(self, item, result):
        if isinstance(result, OpError):
            return {"error": result.kind}
        return {"summary": gio.monte_carlo_to_doc(result)}

    def check(self, item, result, ref):
        got = self.outcome(item, result)
        if "error" in got:
            return ["raised %s" % got["error"]]
        issues = []
        if got["summary"] != ref["summary"]:
            issues.append("summary differs from the reference")
        if 2 * result.min_size < item["graph"].n:
            issues.append("min size %d below n/2" % result.min_size)
        return issues


WORKLOADS = {w.name: w for w in (CertifyLarge(), AttackExact(), SafetyCensus(), MonteCarlo())}

# The layer each workload is built to load, for the traced layer-map check.
MAIN_LAYER = {
    "certify_large": ("spoil.maximal_path_cover",),
    "attack_exact": ("adversary.worst_order_exact",),
    "safety_census": ("analysis.is_safe",),
    "montecarlo": ("adversary.constructive", "adversary.heuristic", "core.greedy_match"),
}
