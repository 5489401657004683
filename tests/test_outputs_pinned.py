"""The package's outputs, pinned by digest.

Each test computes one category of outputs over fixed inputs, encodes
it as canonical JSON and compares its SHA-256 with the digest written
below.  A refactor that claims to change no output must pass these
unchanged; a change that alters an output on purpose re-records the
digest it moves and says so in CHANGES.md; a failing check prints the
digest it computed.
"""

import argparse
import hashlib
import json
import random

import pytest

from conftest import CORPUS_SPECS, random_perm

import greedyorder.io as gio
from greedyorder import FamilySpec, generate, worst_order_exact, worst_order_masked_min
from greedyorder.adversary import (
    ADVERSARY_MODES,
    CONSTRUCTIVE,
    order_avoiding,
    worst_order_constructive,
)
from greedyorder.analysis import MINIMIZER_POLICIES, enumerate_bad_sets, iterative_process
from greedyorder.certify import CONSTRUCTIONS
from greedyorder.cli import build_parser, main

PINNED = {
    "bound": "b878db4e9fb59309633a520906ef3a3b3f2bf5c20e98bf6606e34260e04a2d78",
    "bound_constructions": "737c55c607ec8fe998ef7eef05b8ce21c9b34ad421d474c55a24c60ea3689c1b",
    "worst_order_exact": "d32b31325edad27b2eff7528aa2e433536d5be858769a7aacb6b2ea1991865b7",
    "worst_order_masked_min": "73d5cc577cab9fddcb0dabd044e8b43dc0223f38c676ae46ba140e1f731dfa98",
    "order_avoiding": "d1449210c1598987f575ccca382948d91b09a9cfe25bae0a349a358d60f58546",
    "enumerate_bad_sets": "340743b1536dd45f7e6f0ba234f87df7284756a64228ecb29220d8d363480fa2",
    "iterative_process": "c41f8463a8492e909e5c6dbe38e614587fb3181e27b2d57331743ec89c7fdd34",
    "cli_adversary_exact": "9c583f29fa0ccb69bda46682d9eff87a3edc3d4de95f70b56fd1164ea10afb5b",
    "cli_adversary_heuristic": "bfbac92c631f266234c4309dcde592ccb3dbbc55af5a73edd11c75dae5362f81",
    "cli_analyze_safety": "ac99a68dc04da4af60555d0cd99ff8dabcd5613b93ddc61433e4f87ae78fc8dc",
    "cli_analyze_montecarlo": "b0b0d1c27ad02def499ec5eb1f8be18173fe8a0a01373f4e1e3a123a7c9c9d4a",
    "cli_analyze_exponents": "2ec9c0e87e1f3066b9fe946c858a1f9a7dfdf6cb79f19a023165aff806b09043",
    "cli_surface": "a42099b8f793ed00501903f6b3be4a3c3471d936152d599ef6c1faa3ccd6ddac",
    "constructive_sigmas": "be6eb2fcc313888b9131fb85de8dec21f7b847806897bd3a55360cede1cd7bad",
}


# The SHA-256 of canonical_dumps(graph_to_doc(g)) for each seeded family
# at the benchmark's sizes: a change to the generators' draws or to the
# writer's bytes moves one of these.
PINNED_GRAPHS = [
    ("planted_is", {"n": 600, "d": 20, "eps": 0.1}, 13,
     "01324b55cd6d90fc7f3c34b70e9ec71a3a647544f3b0c4b5fe5784f907ac7690"),
    ("planted_is", {"n": 150, "d": 10, "eps": 0.1}, 1,
     "0947aea1542571e3e4c1024d43300aa0898cd5eb93f96d4486c941d4d48a59d7"),
    ("random_regular", {"n": 60, "d": 4}, 1,
     "7c0a91bb740f3a1a501e22f8ec0675ab3e012548998ecd2c68cc0335d6bb3b99"),
    ("random_regular", {"n": 60, "d": 4}, 2,
     "b781b78b270a636466319d77b744c5877fa0260c4c0b2b120ce8a9c5868069e7"),
    ("hamiltonian_random", {"n": 250, "extra_edges": 0}, 1,
     "f0755799e877157203c0f706e0ab2a3591bfb35ff8d39bc1f9c383ecc3e5675f"),
]


def check_pinned(category, doc):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PINNED[category], "%s: %s" % (category, digest)


@pytest.fixture(scope="module")
def graphs():
    return [(name, generate(spec)) for name, spec in CORPUS_SPECS]


def seeded_cases(graphs, n_max):
    """Three seeded priority orders per corpus graph with n <= n_max, each
    with a seeded subset and the lowest-priority vertices of a seeded size."""
    for idx, (name, g) in enumerate(graphs):
        if g.n > n_max:
            continue
        rng = random.Random(1000 + idx)
        for _ in range(3):
            pi = random_perm(rng, g.n)
            k = rng.randint(1, g.n)
            yield name, g, pi, sorted(rng.sample(range(g.n), k)), sorted(pi.order[g.n - k :])


@pytest.mark.parametrize("family, params, seed, digest", PINNED_GRAPHS)
def test_generated_graph_files_are_pinned(family, params, seed, digest):
    text = gio.canonical_dumps(gio.graph_to_doc(generate(FamilySpec(family, params, seed=seed))))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_bound_certificates_are_pinned(graphs, tmp_path, capsys):
    doc = {}
    for name, g in graphs:
        path = tmp_path / ("%s.json" % name)
        gio.write_graph(str(path), g)
        code = main(["bound", str(path)])
        out, err = capsys.readouterr()
        doc[name] = [code, out, err]
    check_pinned("bound", doc)


def test_named_construction_certificates_are_pinned(graphs, tmp_path, capsys):
    doc = []
    for name, g in graphs:
        path = tmp_path / ("%s.json" % name)
        gio.write_graph(str(path), g)
        for construction in CONSTRUCTIONS:
            code = main(["bound", str(path), "--construction", construction])
            out, err = capsys.readouterr()
            doc.append([name, construction, code, out, err])
    check_pinned("bound_constructions", doc)


def test_exact_adversary_is_pinned(graphs):
    doc = []
    for name, g, pi, _, _ in seeded_cases(graphs, 11):
        res = worst_order_exact(g, pi)
        doc.append([name, list(res.sigma.order), res.size, res.exact, res.nodes_expanded])
    check_pinned("worst_order_exact", doc)


def test_masked_minima_and_safety_witnesses_are_pinned(graphs):
    masked, avoiding = [], []
    for name, g, pi, subset, lowest in seeded_cases(graphs, 11):
        for s in (subset, lowest):
            masked.append([name, s, list(worst_order_masked_min(g, pi, s))])
            witness = order_avoiding(g, pi, s)
            avoiding.append([name, s, None if witness is None else list(witness.order)])
    assert any(w is not None for _, _, w in avoiding)
    assert any(w is None for _, _, w in avoiding)
    check_pinned("worst_order_masked_min", masked)
    check_pinned("order_avoiding", avoiding)


# One graph of each family that has a constructive adversary.
CONSTRUCTIVE_SPECS = [
    FamilySpec("fano", {}),
    FamilySpec("pg23", {}),
    FamilySpec("biclique_half", {"n": 40}),
    FamilySpec("planted_is", {"n": 60, "d": 5, "eps": 0.2}, seed=3),
    FamilySpec("regular89", {"d": 2, "t": 2}),
]


def test_constructive_sigmas_are_pinned():
    """The arrival order and size each constructive adversary gives for
    20 seeded priority orders on its family's graph."""
    assert sorted(spec.family for spec in CONSTRUCTIVE_SPECS) == sorted(CONSTRUCTIVE)
    doc = []
    for idx, spec in enumerate(CONSTRUCTIVE_SPECS):
        g = generate(spec)
        rng = random.Random(2000 + idx)
        for _ in range(20):
            res = worst_order_constructive(g, random_perm(rng, g.n))
            doc.append([spec.family, list(res.sigma.order), res.size])
    check_pinned("constructive_sigmas", doc)


def test_bad_set_reports_are_pinned(graphs):
    doc = {}
    for name, g in graphs:
        if 2 <= g.n <= 6:
            doc[name] = gio.badset_report_to_doc(enumerate_bad_sets(g, 2, "full_pi"))
    check_pinned("enumerate_bad_sets", doc)


def test_iterative_traces_are_pinned(graphs):
    doc = []
    for idx, (name, g) in enumerate(graphs):
        if g.n <= 7:
            pi = random_perm(random.Random(idx), g.n)
            for policy in MINIMIZER_POLICIES:
                trace = iterative_process(g, pi, 8, policy)
                doc.append([name, policy, gio.iterative_trace_to_doc(trace)])
    check_pinned("iterative_process", doc)


def cli_run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return [code, out, err]


def cli_cases(graphs, tmp_path, n_max):
    """seeded_cases with the graph and pi written to files for the CLI."""
    for idx, (name, g, pi, subset, lowest) in enumerate(seeded_cases(graphs, n_max)):
        gpath, pipath = tmp_path / ("g%d.json" % idx), tmp_path / ("pi%d.json" % idx)
        gio.write_graph(str(gpath), g)
        gio.write_perm(str(pipath), pi)
        yield idx, name, str(gpath), str(pipath), subset, lowest


def test_cli_adversary_documents_are_pinned(graphs, tmp_path, capsys):
    exact, heuristic = [], []
    for idx, name, gpath, pipath, _, _ in cli_cases(graphs, tmp_path, 11):
        exact.append([name, cli_run(capsys, ["adversary", gpath, "--pi", pipath, "--exact"])])
        argv = ["adversary", gpath, "--pi", pipath, "--iters", "200", "--seed", str(idx)]
        heuristic.append([name, cli_run(capsys, argv)])
    check_pinned("cli_adversary_exact", exact)
    check_pinned("cli_adversary_heuristic", heuristic)


def test_cli_safety_documents_are_pinned(graphs, tmp_path, capsys):
    doc = []
    for _, name, gpath, pipath, subset, lowest in cli_cases(graphs, tmp_path, 11):
        for s in (subset, lowest):
            argv = ["analyze", "safety", gpath, "--pi", pipath, "--set", ",".join(map(str, s))]
            doc.append([name, s, cli_run(capsys, argv)])
    check_pinned("cli_analyze_safety", doc)


def test_cli_montecarlo_documents_are_pinned(graphs, tmp_path, capsys):
    doc = []
    for idx, (name, g) in enumerate(graphs):
        if g.n > 8:
            continue
        path = str(tmp_path / ("%s.json" % name))
        gio.write_graph(path, g)
        for mode in ADVERSARY_MODES:
            argv = ["analyze", "montecarlo", path, "--trials", "4", "--adversary-mode", mode]
            argv += ["--iters", "50", "--seed", str(idx)]
            doc.append([name, mode, cli_run(capsys, argv)])
    check_pinned("cli_analyze_montecarlo", doc)


def test_cli_exponent_table_and_document_are_pinned(tmp_path, capsys):
    doc = []
    settings = [[], ["--eps", "0", "--alpha", "1/5", "--beta", "1/4"]]
    settings += [["--eps", "1/10", "--alpha", "1/10", "--beta", "1/5"], ["--alpha", "abc"]]
    for idx, flags in enumerate(settings):
        out = tmp_path / ("exp%d.json" % idx)
        run = cli_run(capsys, ["analyze", "exponents", *flags, "-o", str(out)])
        doc.append([flags, run, out.read_text() if out.exists() else None])
    check_pinned("cli_analyze_exponents", doc)


def parser_surface(parser):
    """Each option of parser and of its subcommands: strings, dest,
    default, type name, choices, required and action class, sorted so
    that neither help text nor declaration order counts."""
    options, subcommands = [], {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            subcommands = {name: parser_surface(sub) for name, sub in action.choices.items()}
        options.append({
            "strings": action.option_strings,
            "dest": action.dest,
            "default": action.default,
            "type": getattr(action.type, "__name__", action.type),
            "choices": None if action.choices is None else list(action.choices),
            "required": action.required,
            "action": type(action).__name__,
        })
    options.sort(key=lambda o: (o["strings"], o["dest"]))
    return {"options": options, "subcommands": subcommands}


def test_cli_surface_is_pinned():
    check_pinned("cli_surface", parser_surface(build_parser()))
