"""Subcommand front end: gen, bound, adversary, experiment, analyze.

Exit codes: 0 success, 1 usage error, 2 data error (bad schema or
infeasible input), 3 internal invariant violation.  All randomness is
seeded; an experiment run writes rows in config order, so identical
configs give identical tables apart from the runtime_ms column.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import sys
import time
from typing import Optional, Sequence

from . import io as gio
from .adversary import ADVERSARY_MODES, DEFAULT_BUDGET, DEFAULT_MODE, attack
from .analysis import (
    BAD_SET_MODES,
    MINIMIZER_POLICIES,
    AnalysisParams,
    bound_exponents,
    cross_check_interpretations,
    enumerate_bad_sets,
    is_safe,
    iterative_process,
    monte_carlo_random_pi,
)
from .certify import CONSTRUCTIONS, build_certificate
from .core import Permutation
from .errors import GreedyOrderError, PropositionViolatedError, UsageError
from .families import FAMILIES, FamilySpec, derived_seed, generate

__all__ = ["main", "run_experiment", "experiment_rows", "write_rows_csv", "CSV_COLUMNS"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


def _emit(args, doc) -> None:
    if args.output:
        gio.write_doc(args.output, doc)
    else:
        sys.stdout.write(gio.canonical_dumps(doc))


def _common_flags(sub: argparse.ArgumentParser, seeded: bool = False) -> None:
    if seeded:
        sub.add_argument("--seed", type=int, default=None, help="master random seed")
    sub.add_argument("-o", "--output", default=None, help="output file (default: stdout)")


# --- gen ---------------------------------------------------------------


def cmd_gen(args) -> int:
    params = {}
    for key in ("n", "d", "t", "i", "extra_edges", "eps"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    spec = FamilySpec(family=args.family, params=params, seed=args.seed or 0)
    g = generate(spec)
    _emit(args, gio.graph_to_doc(g))
    return 0


# --- bound ---------------------------------------------------------------


def cmd_bound(args) -> int:
    g, _ = gio.read_graph(args.graph)
    cert = build_certificate(g, args.construction)
    _emit(args, gio.certificate_to_doc(cert))
    return 0


# --- adversary -----------------------------------------------------------


def cmd_adversary(args) -> int:
    g, _ = gio.read_graph(args.graph)
    pi = gio.read_perm(args.pi, n=g.n)
    mode = "exact" if args.exact else "heuristic"
    res = attack(mode, g, pi, budget=args.budget, iters=args.iters, seed=args.seed or 0)
    _emit(args, gio.to_doc(res))
    return 0


# --- experiment ------------------------------------------------------------

CSV_COLUMNS = (
    "instance_id",
    "family",
    "n",
    "construction",
    "certified_count",
    "adversary_min",
    "adversary_exact",
    "fraction",
    "nodes_expanded",
    "runtime_ms",
    "seed",
    "error",
)


def _experiment_cell(config: gio.ExperimentConfig, idx: int, spec: FamilySpec, method: str, row_seed: int) -> dict:
    t0 = time.perf_counter()
    row = {col: "" for col in CSV_COLUMNS}
    row["instance_id"] = "%s-%03d" % (spec.family, idx)
    row["family"] = spec.family
    row["construction"] = method
    row["seed"] = row_seed
    try:
        g = generate(spec)
        row["n"] = g.n
        cert = build_certificate(g, method)
        row["certified_count"] = cert.guaranteed_count
        row["fraction"] = gio.to_doc(cert.guaranteed_fraction)
        adv = config.adversary
        res = attack(
            adv.mode, g, cert.pi, budget=adv.budget, iters=adv.iters, draws=config.trials, seed=row_seed
        )
        row["adversary_min"] = res.size
        row["adversary_exact"] = "true" if res.exact else "false"
        row["nodes_expanded"] = res.nodes_expanded
        if res.exact and cert.guaranteed_count > res.size:
            row["error"] = "soundness violation: certified %d > exact minimum %d" % (
                cert.guaranteed_count,
                res.size,
            )
    except GreedyOrderError as exc:
        row["error"] = "%s: %s" % (type(exc).__name__, exc)
    row["runtime_ms"] = int(round((time.perf_counter() - t0) * 1000))
    return row


def experiment_rows(config: gio.ExperimentConfig) -> list[dict]:
    """Compute every instance x method row, in config order, never raising."""
    cells = itertools.product(enumerate(config.instances), config.methods)
    return [
        _experiment_cell(config, idx, spec, method, derived_seed(config.seed, row_index))
        for row_index, ((idx, spec), method) in enumerate(cells)
    ]


def _raise_if_unsound(rows: Sequence[dict]) -> None:
    unsound = [r for r in rows if str(r["error"]).startswith("soundness violation")]
    if unsound:
        raise PropositionViolatedError(
            "; ".join(
                "%s/%s: %s" % (r["instance_id"], r["construction"], r["error"])
                for r in unsound
            )
        )


def run_experiment(config: gio.ExperimentConfig) -> list[dict]:
    """One row per instance x method: generate, certify, attack.

    Row errors land in the error column and the run continues; a
    certified count exceeding an exact adversary minimum raises after
    all rows are computed.
    """
    rows = experiment_rows(config)
    _raise_if_unsound(rows)
    return rows


def write_rows_csv(rows: Sequence[dict], fh) -> None:
    writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def cmd_experiment(args) -> int:
    config = gio.read_config(args.config, seed=args.seed)
    rows = experiment_rows(config)
    path = args.output or config.output_path
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_rows_csv(rows, fh)
    else:
        write_rows_csv(rows, sys.stdout)
    _raise_if_unsound(rows)
    return 0


# --- analyze ----------------------------------------------------------------


def _parse_set(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise UsageError("--set expects comma-separated integers, got %r" % text) from exc


def cmd_analyze_exponents(args) -> int:
    params = AnalysisParams(eps=args.eps, alpha=args.alpha, beta=args.beta)
    doc = gio.to_doc(bound_exponents(params))
    print("%-26s %16s" % ("exponent", "value"))
    # The report's exponents are its float fields, in declared order.
    for name, value in doc.items():
        if isinstance(value, float):
            print("%-26s %16.9f" % (name, value))
    if doc["flags"]:
        print("flags: %s" % ", ".join(doc["flags"]))
    if args.output:
        gio.write_doc(args.output, doc)
    return 0


def cmd_analyze_badsets(args) -> int:
    g, _ = gio.read_graph(args.graph)
    report = enumerate_bad_sets(g, args.size, mode=args.mode)
    _emit(args, gio.badset_report_to_doc(report))
    return 0


def cmd_analyze_safety(args) -> int:
    g, _ = gio.read_graph(args.graph)
    pi = gio.read_perm(args.pi, n=g.n)
    result = is_safe(g, pi, _parse_set(args.set))
    _emit(args, gio.to_doc(result))
    return 0


def cmd_analyze_montecarlo(args) -> int:
    g, _ = gio.read_graph(args.graph)
    summary = monte_carlo_random_pi(
        g,
        trials=args.trials,
        adversary_mode=args.adversary_mode,
        seed=args.seed or 0,
        budget=args.budget,
        iters=args.iters,
    )
    _emit(args, gio.monte_carlo_to_doc(summary))
    return 0


def cmd_analyze_iterate(args) -> int:
    g, _ = gio.read_graph(args.graph)
    if args.pi is not None:
        pi1 = gio.read_perm(args.pi, n=g.n)
    else:
        pi1 = Permutation.identity(g.n)
    trace = iterative_process(g, pi1, cap=args.cap, minimizer_policy=args.policy)
    _emit(args, gio.iterative_trace_to_doc(trace))
    return 0


def cmd_analyze_crosscheck(args) -> int:
    g, _ = gio.read_graph(args.graph)
    cross_check_interpretations(g, n_cap=args.n_cap)
    _emit(args, {"equal": True, "n": g.n})
    return 0


# --- parser wiring -----------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The argument parser for every subcommand.

    Built once per process and shared by every call to ``main``; callers
    must not mutate it (add arguments, change defaults).
    """
    parser = _Parser(prog="greedyorder", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_gen = subs.add_parser("gen", help="generate a family instance")
    p_gen.add_argument("--family", required=True, choices=FAMILIES)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--d", type=int)
    p_gen.add_argument("--t", type=int)
    p_gen.add_argument("--i", type=int)
    p_gen.add_argument("--extra-edges", dest="extra_edges", type=int)
    p_gen.add_argument("--eps", type=float)
    _common_flags(p_gen, seeded=True)
    p_gen.set_defaults(func=cmd_gen)

    p_bound = subs.add_parser("bound", help="certify a priority order for a graph")
    p_bound.add_argument("graph")
    p_bound.add_argument("--construction", default="theorem1", choices=CONSTRUCTIONS)
    _common_flags(p_bound)
    p_bound.set_defaults(func=cmd_bound)

    p_adv = subs.add_parser("adversary", help="attack a priority order")
    p_adv.add_argument("graph")
    p_adv.add_argument("--pi", required=True, help="priority order JSON file")
    p_adv.add_argument("--exact", action="store_true")
    p_adv.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_adv.add_argument("--iters", type=int, default=10_000)
    _common_flags(p_adv, seeded=True)
    p_adv.set_defaults(func=cmd_adversary)

    p_exp = subs.add_parser("experiment", help="run a config of instances x methods to CSV")
    p_exp.add_argument("config")
    _common_flags(p_exp, seeded=True)
    p_exp.set_defaults(func=cmd_experiment)

    p_ana = subs.add_parser("analyze", help="safety, bad sets, exponents, simulations")
    ana_subs = p_ana.add_subparsers(dest="mode", required=True)

    a_exp = ana_subs.add_parser("exponents")
    a_exp.add_argument("--eps", default="0.0012")
    a_exp.add_argument("--alpha", default="0.245")
    a_exp.add_argument("--beta", default="0.3675")
    _common_flags(a_exp)
    a_exp.set_defaults(func=cmd_analyze_exponents)

    a_bad = ana_subs.add_parser("badsets")
    a_bad.add_argument("graph")
    a_bad.add_argument("--size", type=int, required=True)
    a_bad.add_argument("--mode", default=BAD_SET_MODES[0], choices=BAD_SET_MODES)
    _common_flags(a_bad)
    a_bad.set_defaults(func=cmd_analyze_badsets)

    a_safe = ana_subs.add_parser("safety")
    a_safe.add_argument("graph")
    a_safe.add_argument("--pi", required=True)
    a_safe.add_argument("--set", required=True, help="comma-separated right-vertex indices")
    _common_flags(a_safe)
    a_safe.set_defaults(func=cmd_analyze_safety)

    a_mc = ana_subs.add_parser("montecarlo")
    a_mc.add_argument("graph")
    a_mc.add_argument("--trials", type=int, default=100)
    a_mc.add_argument(
        "--adversary-mode",
        dest="adversary_mode",
        default=DEFAULT_MODE,
        choices=ADVERSARY_MODES,
    )
    a_mc.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    a_mc.add_argument("--iters", type=int, default=4000)
    _common_flags(a_mc, seeded=True)
    a_mc.set_defaults(func=cmd_analyze_montecarlo)

    a_it = ana_subs.add_parser("iterate")
    a_it.add_argument("graph")
    a_it.add_argument("--pi", default=None, help="starting priority order (default: identity)")
    a_it.add_argument("--cap", type=int, default=32)
    a_it.add_argument("--policy", default=MINIMIZER_POLICIES[0], choices=MINIMIZER_POLICIES)
    _common_flags(a_it)
    a_it.set_defaults(func=cmd_analyze_iterate)

    a_cc = ana_subs.add_parser("crosscheck")
    a_cc.add_argument("graph")
    a_cc.add_argument("--n-cap", dest="n_cap", type=int, default=5)
    _common_flags(a_cc)
    a_cc.set_defaults(func=cmd_analyze_crosscheck)

    return parser


# The stderr label of each exit code that `GreedyOrderError.exit_code` declares.
_EXIT_LABELS = {1: "usage error", 2: "error", 3: "internal invariant violated"}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        result = args.func(args)
        return 0 if result is None else result
    except GreedyOrderError as exc:
        print("%s: %s" % (_EXIT_LABELS[exc.exit_code], exc), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
