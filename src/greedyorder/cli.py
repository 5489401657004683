"""Subcommand front end: gen, bound, adversary, experiment, analyze.

main reads the graph and --pi files, calls the subcommand's handler
with them, and writes the document the handler returns as canonical
JSON to -o, or else to stdout, the same bytes either way.
experiment writes CSV instead, and analyze exponents prints a table on
stdout and writes its document only to -o.

Exit codes: 0 success, 1 usage error, 2 data error (bad schema,
infeasible input, a file that cannot be read or written, or a stdout
that cannot be written), 3 internal invariant violation.  All
randomness is seeded; an experiment run writes rows in config order, so
identical configs give identical tables apart from the runtime_ms
column.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
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

    # argparse's own write drops an OSError, so help goes through write_text
    # (a test sends -h to /dev/full).  argparse calls print_help with no
    # file, and prints usage only from error(), which raises instead.
    def print_help(self) -> None:
        gio.write_text(None, self.format_help())


# --- gen, bound, adversary -----------------------------------------------

# The family parameters gen takes as flags, with their types; the flag is
# the name with dashes.
_GEN_PARAMS = (("n", int), ("d", int), ("t", int), ("i", int), ("extra_edges", int), ("eps", float))


def cmd_gen(args) -> dict:
    params = {key: getattr(args, key) for key, _ in _GEN_PARAMS if getattr(args, key) is not None}
    spec = FamilySpec(family=args.family, params=params, seed=args.seed or 0)
    g = generate(spec)
    return gio.graph_to_doc(g)


def cmd_bound(args) -> dict:
    cert = build_certificate(args.graph, args.construction)
    return gio.certificate_to_doc(cert)


def cmd_adversary(args) -> dict:
    mode = "exact" if args.exact else "heuristic"
    res = attack(mode, args.graph, args.pi, budget=args.budget, iters=args.iters, seed=args.seed or 0)
    return gio.to_doc(res)


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


def cmd_experiment(args) -> None:
    config = gio.read_config(args.config, seed=args.seed)
    rows = experiment_rows(config)
    table = io.StringIO()
    write_rows_csv(rows, table)
    gio.write_text(args.output or config.output_path, table.getvalue())
    _raise_if_unsound(rows)


# --- analyze ----------------------------------------------------------------


def _parse_set(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise UsageError("--set expects comma-separated integers, got %r" % text) from exc


def cmd_analyze_exponents(args) -> Optional[dict]:
    params = AnalysisParams(eps=args.eps, alpha=args.alpha, beta=args.beta)
    doc = gio.to_doc(bound_exponents(params))
    lines = ["%-26s %16s" % ("exponent", "value")]
    # The report's exponents are its float fields, in declared order.
    for name, value in doc.items():
        if isinstance(value, float):
            lines.append("%-26s %16.9f" % (name, value))
    if doc["flags"]:
        lines.append("flags: %s" % ", ".join(doc["flags"]))
    gio.write_text(None, "\n".join(lines) + "\n")
    # The table has taken stdout, so the document goes only to -o.
    return doc if args.output else None


def cmd_analyze_badsets(args) -> dict:
    report = enumerate_bad_sets(args.graph, args.size, mode=args.mode)
    return gio.badset_report_to_doc(report)


def cmd_analyze_safety(args) -> dict:
    result = is_safe(args.graph, args.pi, _parse_set(args.set))
    return gio.to_doc(result)


def cmd_analyze_montecarlo(args) -> dict:
    summary = monte_carlo_random_pi(
        args.graph,
        trials=args.trials,
        adversary_mode=args.adversary_mode,
        seed=args.seed or 0,
        budget=args.budget,
        iters=args.iters,
    )
    return gio.monte_carlo_to_doc(summary)


def cmd_analyze_iterate(args) -> dict:
    pi1 = args.pi or Permutation.identity(args.graph.n)
    trace = iterative_process(args.graph, pi1, cap=args.cap, minimizer_policy=args.policy)
    return gio.iterative_trace_to_doc(trace)


def cmd_analyze_crosscheck(args) -> dict:
    cross_check_interpretations(args.graph)
    return {"equal": True, "n": args.graph.n}


# --- parser wiring -----------------------------------------------------------


def _command(subs, name: str, func, source: Optional[str] = None, seeded=False, help=None):
    """Declare the subcommand that func runs, with its input positional
    source (if any), --seed where func reads one, and -o.  Returns the
    subparser, for the command's own flags."""
    sub = subs.add_parser(name, help=help)
    if source:
        sub.add_argument(source)
    if seeded:
        sub.add_argument("--seed", type=int, default=None, help="master random seed")
    sub.add_argument("-o", "--output", default=None, help="output file (default: stdout)")
    sub.set_defaults(func=func)
    return sub


@functools.cache
def build_parser() -> _Parser:
    """The argument parser for every subcommand.

    Built once per process and shared by every call to ``main``; callers
    must not mutate it (add arguments, change defaults).
    """
    parser = _Parser(prog="greedyorder", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_gen = _command(subs, "gen", cmd_gen, seeded=True, help="generate a family instance")
    p_gen.add_argument("--family", required=True, choices=FAMILIES)
    for key, kind in _GEN_PARAMS:
        p_gen.add_argument("--" + key.replace("_", "-"), type=kind)

    p_bound = _command(
        subs, "bound", cmd_bound, "graph", help="certify a priority order for a graph"
    )
    p_bound.add_argument("--construction", default="theorem1", choices=CONSTRUCTIONS)

    p_adv = _command(
        subs, "adversary", cmd_adversary, "graph", seeded=True, help="attack a priority order"
    )
    p_adv.add_argument("--pi", required=True, help="priority order JSON file")
    p_adv.add_argument("--exact", action="store_true")
    p_adv.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_adv.add_argument("--iters", type=int, default=10_000)

    about = "run a config of instances x methods to CSV"
    _command(subs, "experiment", cmd_experiment, "config", seeded=True, help=about)

    p_ana = subs.add_parser("analyze", help="safety, bad sets, exponents, simulations")
    ana_subs = p_ana.add_subparsers(dest="analysis", required=True)

    a_exp = _command(ana_subs, "exponents", cmd_analyze_exponents)
    a_exp.add_argument("--eps", default="0.0012")
    a_exp.add_argument("--alpha", default="0.245")
    a_exp.add_argument("--beta", default="0.3675")

    a_bad = _command(ana_subs, "badsets", cmd_analyze_badsets, "graph")
    a_bad.add_argument("--size", type=int, required=True)
    a_bad.add_argument("--mode", default=BAD_SET_MODES[0], choices=BAD_SET_MODES)

    a_safe = _command(ana_subs, "safety", cmd_analyze_safety, "graph")
    a_safe.add_argument("--pi", required=True)
    a_safe.add_argument("--set", required=True, help="comma-separated right-vertex indices")

    a_mc = _command(ana_subs, "montecarlo", cmd_analyze_montecarlo, "graph", seeded=True)
    a_mc.add_argument("--trials", type=int, default=100)
    a_mc.add_argument("--adversary-mode", default=DEFAULT_MODE, choices=ADVERSARY_MODES)
    a_mc.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    a_mc.add_argument("--iters", type=int, default=4000)

    a_it = _command(ana_subs, "iterate", cmd_analyze_iterate, "graph")
    a_it.add_argument("--pi", default=None, help="starting priority order (default: identity)")
    a_it.add_argument("--cap", type=int, default=32)
    a_it.add_argument("--policy", default=MINIMIZER_POLICIES[0], choices=MINIMIZER_POLICIES)

    _command(ana_subs, "crosscheck", cmd_analyze_crosscheck, "graph")

    return parser


# The stderr label of each exit code that `GreedyOrderError.exit_code` declares.
_EXIT_LABELS = {1: "usage error", 2: "error", 3: "internal invariant violated"}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # The graph first, so that its error comes before any in --pi.
        if "graph" in args:
            args.graph, _ = gio.read_graph(args.graph)
            if getattr(args, "pi", None) is not None:
                args.pi = gio.read_perm(args.pi, n=args.graph.n)
        doc = args.func(args)
        if doc is not None:
            gio.write_doc(args.output, doc)
        return 0
    except GreedyOrderError as exc:
        print("%s: %s" % (_EXIT_LABELS[exc.exit_code], exc), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
