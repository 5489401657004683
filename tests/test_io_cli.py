"""JSON schemas, round trips, the experiment runner, and the CLI surface."""

import argparse
import ast
import collections
import csv
import enum
import errno
import io as _io
import json
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
from conftest import (
    outcome,
    random_pm_graph,
    reference_experiment_rows,
    reference_graph_from_doc,
)

import greedyorder.adversary as adversary
import greedyorder.cli as cli
import greedyorder.errors as errors_mod
import greedyorder.io as gio
from greedyorder import BipartiteGraph, FamilySpec, Permutation, generate, monte_carlo_random_pi
from greedyorder.adversary import (
    ADVERSARY_MODES,
    worst_order_exact,
    worst_order_heuristic,
)
from greedyorder.analysis import (
    BAD_SET_MODES,
    MINIMIZER_POLICIES,
    enumerate_bad_sets,
    iterative_process,
)
from greedyorder.cli import (
    CSV_COLUMNS,
    build_parser,
    _raise_if_unsound,
    experiment_rows,
    main,
    run_experiment,
    write_rows_csv,
)
from greedyorder.errors import (
    GreedyOrderError,
    InvalidGraphError,
    PropositionViolatedError,
    SchemaError,
    UsageError,
)

FIG1_DOC = {
    "n": 3,
    "edges": [[0, 0], [0, 1], [1, 1], [1, 2], [2, 0], [2, 2]],
    "family": "fig1",
    "params": {},
}


def rows_without_runtime(rows):
    return [{k: v for k, v in r.items() if k != "runtime_ms"} for r in rows]


# --- canonical serialization ------------------------------------------------


def test_canonical_dumps_is_stable():
    text = gio.canonical_dumps({"b": 1, "a": [2, {"z": 0, "y": 1}]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1, "a": [2, {"z": 0, "y": 1}]}


_PLAIN_INTS = st.integers() | st.integers(-(2**70), 2**70)
_PAIRS = st.tuples(_PLAIN_INTS, _PLAIN_INTS) | st.lists(_PLAIN_INTS, min_size=2, max_size=2)
_SCALARS = (
    st.none()
    | st.booleans()
    | _PLAIN_INTS
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | st.text(max_size=5)
    | st.sampled_from(["", "\"\\\n\t\x00\x7f", "é ü", "\u2028", "\U0001f600"])
)
_KEYS = st.text(max_size=3) | st.sampled_from(["a", "b", "é", "\n", "A"])


def _json_docs():
    """Nested documents with the int lists and pair lists the writer joins
    in one go, mixed with bools, non-pairs and dicts with non-str keys."""

    def lists(items):
        return st.lists(items, max_size=5)

    leaves = (
        _SCALARS
        | lists(_PLAIN_INTS)
        | lists(_PLAIN_INTS | st.booleans())
        | lists(_PAIRS)
        | lists(_PAIRS | _PLAIN_INTS | st.lists(_PLAIN_INTS, max_size=3))
        | lists(st.lists(_PLAIN_INTS | st.booleans(), min_size=2, max_size=2))
    )
    return st.recursive(
        leaves,
        lambda kids: (
            lists(kids)
            | st.tuples(kids, kids)
            | st.dictionaries(_KEYS, kids, max_size=4)
            | st.dictionaries(_PLAIN_INTS | st.booleans() | st.none() | st.floats(), kids, max_size=3)
            | st.dictionaries(_KEYS | _PLAIN_INTS, kids, max_size=3)
        ),
        max_leaves=12,
    )


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_json_docs())
@example(
    {
        "empty": [[], {}, (), [[]], [{}], {"a": []}],
        "ints": [[1, True], [True, 1], [-(2**80), 2**80]],
        "scalars": [None, float("nan"), float("inf"), float("-inf"), -0.0, 1e300],
        "pairs": [[[1, 2], [3]], [[1, 2], 3], [(1, 2), [3, 4]], [[1, True]], [[-(2**80), 0]]],
        "é\n": "ü\u2028\"\\",
    }
)
@example({1: [[0, 1]], 2: {"b": [1], "a": [(2, 3)]}})
@example([{1: 0, "a": 1}])
def test_canonical_dumps_writes_the_bytes_of_indented_json_dumps(doc):
    # The canonical form is json.dumps(sort_keys=True, indent=2); a dict
    # whose keys json cannot sort fails the same way on both sides.
    def reference(doc):
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    assert outcome(gio.canonical_dumps, doc) == outcome(reference, doc)


def test_graph_doc_round_trip_on_corpus(corpus, tmp_path):
    for inst in corpus:
        doc = gio.graph_to_doc(inst.graph)
        back, matching = gio.graph_from_doc(doc)
        assert matching is None
        assert back.n == inst.graph.n
        assert back.edges == inst.graph.edges
        assert back.family == inst.graph.family
        assert gio.canonical_dumps(gio.graph_to_doc(back)) == gio.canonical_dumps(doc)


def test_graph_file_round_trip_with_matching(tmp_path):
    g = generate(FamilySpec("fig1"))
    path = tmp_path / "g.json"
    gio.write_graph(str(path), g, matching=[(0, 0), (1, 1), (2, 2)])
    back, matching = gio.read_graph(str(path))
    assert back.edges == g.edges
    assert matching == [(0, 0), (1, 1), (2, 2)]


def test_graph_doc_round_trip_fuzz():
    rng = random.Random(83)
    for _ in range(200):
        n = rng.randrange(1, 11)
        g = random_pm_graph(rng, n)
        back, _ = gio.graph_from_doc(gio.graph_to_doc(g))
        assert back.n == g.n and back.edges == g.edges


def test_graph_doc_validation_errors():
    with pytest.raises(SchemaError):
        gio.graph_from_doc([])
    with pytest.raises(SchemaError):
        gio.graph_from_doc({"edges": []})  # n missing
    with pytest.raises(SchemaError):
        gio.graph_from_doc({"n": True, "edges": []})  # bool is not an int here
    with pytest.raises(SchemaError):
        gio.graph_from_doc({"n": 2, "edges": [[0, 0], [0]]})
    with pytest.raises(SchemaError):
        gio.graph_from_doc({"n": 2, "edges": [[0, 2]]})
    with pytest.raises(InvalidGraphError):
        gio.graph_from_doc({"n": 2, "edges": [[0, 0], [0, 0]]})
    doc = dict(FIG1_DOC)
    doc["matching"] = [[0, 0], [1, 1]]  # not perfect
    with pytest.raises(SchemaError):
        gio.graph_from_doc(doc)
    doc["matching"] = [[0, 0], [1, 1], [2, 0]]  # v side repeats
    with pytest.raises(SchemaError):
        gio.graph_from_doc(doc)
    doc = {"n": 2, "edges": [[0, 0], [1, 1]], "matching": [[0, 1], [1, 0]]}  # not edges
    with pytest.raises(SchemaError, match="^graph: field 'matching' pair 0 is not an edge$"):
        gio.graph_from_doc(doc)


def _read(reader, doc):
    try:
        return reader(doc, where="doc.json")
    except (SchemaError, InvalidGraphError) as exc:
        return type(exc), str(exc)


def test_graph_from_doc_equals_the_reference_reader_on_valid_docs():
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 12), st.randoms(use_true_random=False), st.booleans())
    def check(n, rng, shuffle):
        doc = gio.graph_to_doc(random_pm_graph(rng, n), matching=[(i, i) for i in range(n)])
        doc["family"], doc["params"] = "random_pm", {"n": n}
        if shuffle:
            rng.shuffle(doc["edges"])
            rng.shuffle(doc["matching"])
        got = gio.graph_from_doc(doc)
        assert got == reference_graph_from_doc(doc)
        assert (got[0].family, got[0].params) == ("random_pm", {"n": n})

    check()


_NOT_AN_INDEX = [True, False, 1.0, "1", None, [0]]


@st.composite
def faulty_graph_docs(draw):
    """A valid graph document with zero to four faults injected."""
    n = draw(st.integers(1, 6))
    rng = draw(st.randoms(use_true_random=False))
    pool = [[u, v] for u in range(n) for v in range(n)]
    doc = {"n": n, "edges": rng.sample(pool, rng.randrange(0, len(pool) + 1))}
    if draw(st.booleans()):
        order = list(range(n))
        rng.shuffle(order)
        doc["matching"] = [[u, v] for u, v in enumerate(order)]
        if draw(st.booleans()):  # else the matching may use non-edges
            doc["edges"] += [list(pair) for pair in doc["matching"] if pair not in doc["edges"]]
    faults = draw(
        st.lists(
            st.sampled_from(
                [
                    "repeat", "range", "index_type", "short", "long", "scalar",
                    "tuple", "n_type", "n_small", "edges_type", "family", "params",
                    "matching_range", "matching_repeat", "matching_shape",
                ]
            ),
            max_size=4,
        )
    )
    edges = doc["edges"]

    def put(item):
        edges.insert(rng.randrange(len(edges) + 1), item)

    def matching_is_pairs():
        pairs = doc.get("matching")
        return bool(pairs) and isinstance(pairs, list) and len(pairs[0]) == 2

    for fault in faults:
        if fault == "repeat" and edges:
            item = rng.choice(edges)  # a copy, unless a scalar fault put it
            put(list(item) if isinstance(item, (list, tuple)) else item)
        elif fault == "range":
            put([rng.choice([-1, n, n + 3]), rng.randrange(n)][:: rng.choice([1, -1])])
        elif fault == "index_type":
            put([rng.randrange(n), rng.choice(_NOT_AN_INDEX)][:: rng.choice([1, -1])])
        elif fault == "short":
            put([rng.randrange(n)])
        elif fault == "long":
            put([0, 0, 0])
        elif fault == "scalar":
            put(rng.choice([0, "0,0", None, {"u": 0, "v": 0}]))
        elif fault == "tuple":
            put((rng.randrange(n), rng.randrange(n)))
        elif fault == "n_type":
            doc["n"] = rng.choice(_NOT_AN_INDEX)
        elif fault == "n_small":
            doc["n"] = rng.choice([0, -2])
        elif fault == "edges_type":
            doc["edges"] = rng.choice([None, {}, "[[0, 0]]", (0, 0)])
        elif fault == "family":
            doc["family"] = rng.choice([3, ["fig1"], True])
        elif fault == "params":
            doc["params"] = rng.choice([[], "n=3", 1])
        elif fault == "matching_range" and matching_is_pairs():
            rng.choice(doc["matching"])[1] = n
        elif fault == "matching_repeat" and matching_is_pairs():
            doc["matching"].append(list(doc["matching"][0]))
        elif fault == "matching_shape":
            doc["matching"] = rng.choice([None, [[0]], [[0, False]], "identity"])
    return doc, len(faults)


# One fixed document per outcome of the reader, checked beside the drawn
# ones, so that every kind is met whatever faulty_graph_docs draws.
GRAPH_DOC_PER_KIND = {
    "InvalidGraphError duplicate edge (, )": {"n": 2, "edges": [[0, 0], [1, 1], [0, 0]]},
    "SchemaError field 'edges' entry is not an": {"n": 2, "edges": [[0, 0], [1]]},
    "SchemaError field 'edges' entry out of range": {"n": 2, "edges": [[0, 2]]},
    "SchemaError field 'edges' must be a list": {"n": 2, "edges": None},
    "SchemaError field 'family' must be a string": {"n": 1, "edges": [[0, 0]], "family": 3},
    "SchemaError field 'matching' entry is not an": {
        "n": 1, "edges": [[0, 0]], "matching": [[0, False]],
    },
    "SchemaError field 'matching' entry out of range": {
        "n": 1, "edges": [[0, 0]], "matching": [[0, 1]],
    },
    "SchemaError field 'matching' is not a perfect": {
        "n": 2, "edges": [[0, 0], [1, 1]], "matching": [[0, 0], [1, 1], [0, 0]],
    },
    "SchemaError field 'matching' must be a list": {
        "n": 1, "edges": [[0, 0]], "matching": "identity",
    },
    "SchemaError field 'matching' pair is not an": {
        "n": 2, "edges": [[0, 0], [1, 1]], "matching": [[0, 1], [1, 0]],
    },
    "SchemaError field 'n' must be an integer,": {"n": True, "edges": []},
    "SchemaError field 'n' must be positive": {"n": 0, "edges": []},
    "SchemaError field 'params' must be an object": {"n": 1, "edges": [[0, 0]], "params": []},
    "valid": FIG1_DOC,
}


def test_graph_from_doc_fails_like_the_reference_reader():
    kinds = collections.Counter()

    def kind_of(doc):
        got = _read(gio.graph_from_doc, doc)
        assert got == _read(reference_graph_from_doc, doc)
        if isinstance(got[0], type):
            text = re.sub(r"[-0-9]", "", got[1].replace("doc.json: ", ""))
            return " ".join([got[0].__name__] + text.split()[:6])
        return "valid"

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(faulty_graph_docs())
    def check(case):
        doc, faults = case
        kind = kind_of(doc)
        kinds[kind] += 1
        if kind != "valid":
            kinds["several faults"] += faults > 1

    check()
    assert kinds["several faults"] >= 100 and kinds["valid"] >= 100
    for kind, doc in GRAPH_DOC_PER_KIND.items():
        assert kind_of(doc) == kind
        kinds[kind] += 1
    assert set(kinds) == {
        "InvalidGraphError duplicate edge (, )",
        "SchemaError field 'edges' entry is not an",
        "SchemaError field 'edges' entry out of range",
        "SchemaError field 'edges' must be a list",
        "SchemaError field 'family' must be a string",
        "SchemaError field 'matching' entry is not an",
        "SchemaError field 'matching' entry out of range",
        "SchemaError field 'matching' is not a perfect",
        "SchemaError field 'matching' must be a list",
        "SchemaError field 'matching' pair is not an",
        "SchemaError field 'n' must be an integer,",
        "SchemaError field 'n' must be positive",
        "SchemaError field 'params' must be an object",
        "several faults",
        "valid",
    }, sorted(kinds)


class _Index(enum.IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2


# Entries other than plain ints in plain lists, beside the drawn faults
# above: the reader's fast path takes only the plain form, and each of
# these must come out as the reference's outcome, an adjacency or an error.
GRAPH_DOC_PER_ENTRY_TYPE = {
    "int subclass": (
        {
            "n": 2,
            "edges": [[_Index.ZERO, _Index.ZERO], [_Index.ONE, _Index.ONE], [1, _Index.ZERO]],
            "matching": [[_Index.ONE, _Index.ONE], [_Index.ZERO, 0]],
        },
        ((0,), (0, 1)),
    ),
    "tuple pairs": (
        {"n": 2, "edges": [(1, 1), (0, 0), (0, 1)], "matching": [(0, 0), (1, 1)]},
        ((0, 1), (1,)),
    ),
    "bool edge": (
        {"n": 2, "edges": [[0, 0], [1, True]]},
        "doc.json: field 'edges' entry 1 is not an [u, v] integer pair",
    ),
    "bool matching": (
        {"n": 2, "edges": [[0, 0], [1, 1]], "matching": [[False, 0], [1, 1]]},
        "doc.json: field 'matching' entry 0 is not an [u, v] integer pair",
    ),
    "int subclass out of range": (
        {"n": 2, "edges": [[0, 0], [_Index.TWO, 1]]},
        "doc.json: field 'edges' entry 1 out of range for n=2",
    ),
    "range after a repeat": (
        {"n": 2, "edges": [[0, 0], [1, 1], [0, 0], [0, 2]]},
        "doc.json: field 'edges' entry 3 out of range for n=2",
    ),
}


@pytest.mark.parametrize("kind", sorted(GRAPH_DOC_PER_ENTRY_TYPE))
def test_graph_from_doc_takes_entry_types_like_the_reference_reader(kind):
    doc, expected = GRAPH_DOC_PER_ENTRY_TYPE[kind]
    got = _read(gio.graph_from_doc, doc)
    assert got == _read(reference_graph_from_doc, doc)
    if isinstance(expected, str):
        assert got == (SchemaError, expected)
    else:
        g, matching = got
        assert g.adj_u == expected
        assert sorted(matching) == [(0, 0), (1, 1)]


def test_bound_exits_two_on_every_faulty_graph_file(tmp_path, capsys):
    path = tmp_path / "doc.json"
    outcomes = collections.Counter()

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(faulty_graph_docs())
    def check(case):
        # JSON turns tuple entries into lists, so the file, not the
        # drawn doc, decides whether the reader must reject it.
        path.write_text(json.dumps(case[0]))
        try:
            reference_graph_from_doc(json.loads(path.read_text()), where=str(path))
            message = None
        except (SchemaError, InvalidGraphError) as exc:
            message = str(exc)
        capsys.readouterr()
        code = main(["bound", str(path)])
        err = capsys.readouterr().err
        if message is None:
            # A valid graph without a perfect matching is a data error too.
            assert code in (0, 2) and "Traceback" not in err
            outcomes["valid, exit %d" % code] += 1
        else:
            assert (code, err) == (2, "error: %s\n" % message)
            outcomes["faulty"] += 1

    check()
    assert outcomes["faulty"] >= 100 and outcomes["valid, exit 0"] >= 10, outcomes


# Files that json.load fails on without a JSONDecodeError: bytes that are
# not UTF-8, an integer literal past the int-string limit of 4300 digits,
# and nesting deeper than the recursion limit.
UNDECODABLE_FILES = {
    "latin1.json": b'{"n": 1, "edges": [[0, 0]], "family": "caf\xe9"}',
    "long_int.json": b'{"n": 1' + b"0" * 4300 + b', "edges": []}',
    "deep.json": b"[" * 100_000 + b"]" * 100_000,
}


def test_read_graph_bad_paths(tmp_path):
    with pytest.raises(SchemaError):
        gio.read_graph(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(SchemaError) as err:
        gio.read_graph(str(bad))
    assert ":1:" in str(err.value)  # line:col locates the parse failure
    for name, data in UNDECODABLE_FILES.items():
        bad = tmp_path / name
        bad.write_bytes(data)
        with pytest.raises(SchemaError, match="^%s: " % re.escape(str(bad))):
            gio.read_graph(str(bad))


def test_library_writers_name_the_file_they_cannot_write(tmp_path):
    """write_graph and write_perm turn a file that cannot be written into
    a SchemaError naming it, as the CLI's -o does."""
    g, p = BipartiteGraph.from_edges(1, [(0, 0)]), Permutation.identity(1)
    for target, code in (
        (str(tmp_path / "no_such_dir" / "out.json"), errno.ENOENT),
        (str(tmp_path), errno.EISDIR),
    ):
        for write, obj in ((gio.write_graph, g), (gio.write_perm, p)):
            with pytest.raises(SchemaError) as info:
                write(target, obj)
            assert str(info.value) == "%s: %s" % (target, os.strerror(code))


def test_perm_round_trip_and_validation(tmp_path):
    p = Permutation.from_order([2, 0, 1])
    path = tmp_path / "pi.json"
    gio.write_perm(str(path), p)
    assert gio.read_perm(str(path)).order == (2, 0, 1)
    assert gio.read_perm(str(path), n=3).order == (2, 0, 1)
    with pytest.raises(SchemaError):
        gio.perm_from_doc([0, 0, 1])
    with pytest.raises(SchemaError):
        gio.perm_from_doc([0, 1], n=3)
    with pytest.raises(SchemaError):
        gio.perm_from_doc({"order": [0, 1]})


# --- experiment config -------------------------------------------------------


def test_config_defaults_and_seed_derivation():
    doc = {
        "instances": [
            {"family": "fig1"},
            {"family": "tight_regular", "params": {"d": 3}},
            {"family": "hamiltonian_random", "params": {"n": 6, "extra_edges": 1}, "seed": 77},
        ],
        "methods": ["theorem1"],
        "seed": 5,
    }
    config = gio.config_from_doc(doc)
    assert config.seed == 5 and config.trials == 100
    assert config.adversary == gio.AdversarySettings(mode="exact", budget=10_000_000, iters=4000)
    config = gio.config_from_doc({**doc, "adversary": {"mode": "heuristic"}})
    assert (config.adversary.budget, config.adversary.iters) == (10_000_000, 4000)
    assert config.instances[0].seed == 5 * 1_000_003 + 0
    assert config.instances[1].seed == 5 * 1_000_003 + 1
    assert config.instances[2].seed == 77
    assert config.output_path is None


def test_config_validation_errors():
    base = {"instances": [{"family": "fig1"}], "methods": ["theorem1"]}
    bad = [
        {},
        {**base, "methods": []},
        {**base, "methods": ["sort9"]},
        {**base, "instances": "fig1"},
        {**base, "instances": [{"family": "nonesuch"}]},
        {**base, "adversary": {"mode": "psychic"}},
        {**base, "adversary": {"budget": 0}},
        {**base, "adversary": {"iters": -1}},
        {**base, "adversary": {"iters": 2.0}},
        {**base, "trials": 0},
        {**base, "trials": 2.0},
        {**base, "seed": True},
        {**base, "instances": [{"family": "fig1", "seed": "1"}]},
        {**base, "output_path": 7},
    ]
    for doc in bad:
        with pytest.raises(SchemaError):
            gio.config_from_doc(doc)
    # The floors are the players' own: a heuristic of 0 iterations is
    # valid, and a budget below 1 is named with the file.
    config = gio.config_from_doc({**base, "adversary": {"mode": "heuristic", "iters": 0}})
    assert config.adversary.iters == 0
    with pytest.raises(SchemaError, match="^cfg.json: adversary budget must be positive$"):
        gio.config_from_doc({**base, "adversary": {"budget": 0}}, "cfg.json")
    with pytest.raises(SchemaError, match=r"^cfg.json: instances\[0\]: field 'seed' must be an"):
        gio.config_from_doc({**base, "instances": [{"family": "fig1", "seed": 1.5}]}, "cfg.json")
    for doc, message in (
        ([base], "document must be an object"),
        ({**base, "instances": ["fig1"]}, "instances[0] must be an object"),
        (
            {**base, "instances": [{"family": "fig1", "params": [3]}]},
            "instances[0]: field 'params' must be an object",
        ),
        ({**base, "adversary": "exact"}, "field 'adversary' must be an object"),
    ):
        with pytest.raises(SchemaError) as info:
            gio.config_from_doc(doc, "cfg.json")
        assert str(info.value) == "cfg.json: " + message


# --- experiment rows ---------------------------------------------------------


def small_config(**overrides):
    doc = {
        "instances": [
            {"family": "fig1"},
            {"family": "tight_regular", "params": {"d": 3}},
        ],
        "methods": ["theorem1", "sort1"],
        "seed": 4,
    }
    doc.update(overrides)
    return gio.config_from_doc(doc)


def test_experiment_rows_shape_and_soundness():
    rows = run_experiment(small_config())
    assert len(rows) == 4
    for i, row in enumerate(rows):
        assert set(row) == set(CSV_COLUMNS)
        assert row["error"] == ""
        assert row["adversary_exact"] == "true"
        assert row["certified_count"] <= row["adversary_min"]
        assert row["seed"] == 4 * 1_000_003 + i
    assert [r["construction"] for r in rows] == ["theorem1", "sort1"] * 2
    assert rows[0]["instance_id"] == "fig1-000"
    assert rows[2]["instance_id"] == "tight_regular-001"
    assert rows[0]["fraction"] == "2/3"


def test_experiment_rows_sampled_and_heuristic_modes():
    sampled = experiment_rows(small_config(adversary={"mode": "sampled"}, trials=20))
    for row in sampled:
        assert row["adversary_exact"] == "false"
        assert row["nodes_expanded"] == 20
        assert row["certified_count"] <= row["adversary_min"]
    heur = experiment_rows(small_config(adversary={"mode": "heuristic", "iters": 150}))
    for row in heur:
        assert row["adversary_exact"] == "false"


def test_experiment_constructive_mode():
    config = small_config(
        instances=[{"family": "biclique_half", "params": {"n": n}} for n in (6, 10)]
        + [{"family": "fig1"}],
        adversary={"mode": "constructive"},
    )
    rows = experiment_rows(config)
    for row in rows[:4]:
        assert row["error"] == ""
        assert row["adversary_exact"] == "false"
        assert row["certified_count"] <= row["adversary_min"]
    assert rows[4]["error"] == "FamilyShapeError: no constructive adversary for family 'fig1'"


def test_experiment_rows_equal_the_reference_dispatch(built_specs, monkeypatch):
    """Rows, runtime aside, equal those of the per-mode chain the attack
    table replaced, for every mode that chain accepted, on every corpus
    and benchmark spec; the exact mode only where n <= 14, and once more
    with a budget small enough to fall back to the heuristic.  Both sides
    share one generated graph per spec: generation has its own
    differential test."""
    built = {repr(spec): g for spec, g in built_specs}

    def generate_built(spec):
        g = built[repr(spec)]
        if isinstance(g, Exception):
            raise g
        return g

    monkeypatch.setattr(cli, "generate", generate_built)
    monkeypatch.setattr(conftest, "reference_generate", generate_built)
    specs = [spec for spec, _ in built_specs]
    small = [spec for spec, g in built_specs if not isinstance(g, Exception) and g.n <= 14]
    runs = [
        (specs, {"mode": "heuristic", "iters": 20}, ["sort2"]),
        (specs, {"mode": "sampled"}, ["theorem1"]),
        (small, {"mode": "exact"}, ["theorem1"]),
        (small[:12], {"mode": "exact", "budget": 3}, ["large_m12_order"]),
    ]
    for instances, adversary, methods in runs:
        config = gio.ExperimentConfig(
            instances=tuple(instances),
            methods=tuple(methods),
            adversary=gio.AdversarySettings(**adversary),
            trials=3,
            seed=6,
        )
        got = rows_without_runtime(experiment_rows(config))
        assert got == rows_without_runtime(reference_experiment_rows(config)), adversary


def test_experiment_row_error_is_contained():
    config = gio.config_from_doc(
        {
            "instances": [{"family": "regular89", "params": {"d": 2}}, {"family": "fig1"}],
            "methods": ["theorem1"],
        }
    )
    rows = experiment_rows(config)
    assert rows[0]["error"].startswith("GenerationError")
    assert rows[0]["n"] == ""
    assert rows[1]["error"] == ""


def test_unsound_rows_raise_after_collection():
    rows = [dict.fromkeys(CSV_COLUMNS, "") for _ in range(2)]
    rows[0].update(instance_id="x-000", construction="sort1", error="")
    rows[1].update(
        instance_id="x-001",
        construction="sort1",
        error="soundness violation: certified 5 > exact minimum 4",
    )
    with pytest.raises(PropositionViolatedError):
        _raise_if_unsound(rows)


def test_write_rows_csv_layout():
    rows = run_experiment(small_config())
    buf = _io.StringIO()
    write_rows_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 5
    parsed = list(csv.DictReader(_io.StringIO(buf.getvalue())))
    assert parsed[0]["instance_id"] == "fig1-000"


# --- CLI ----------------------------------------------------------------------


def write_fig1(tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(gio.canonical_dumps(FIG1_DOC))
    return str(path)


def test_cli_gen_writes_canonical_graph(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["gen", "--family", "fig1", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc == json.loads(gio.canonical_dumps(gio.graph_to_doc(generate(FamilySpec("fig1")))))

    assert main(["gen", "--family", "tight_regular", "--d", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 5


def test_cli_gen_usage_errors(capsys):
    assert main(["gen", "--family", "atlantis"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["gen"]) == 1
    assert main(["nonsense"]) == 1


def test_cli_gen_missing_params_is_data_error(capsys):
    assert main(["gen", "--family", "regular89", "--d", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_bound_reproduces_worked_example(tmp_path, capsys):
    graph = write_fig1(tmp_path)
    assert main(["bound", graph]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "construction": "sort1",
        "eps": {"e1": "1/2", "e2": "1/3", "e3": "1/2"},
        "fraction": "2/3",
        "guaranteed_count": 2,
        "pi": [2, 1, 0],
    }
    assert main(["bound", graph, "--construction", "sort2"]) == 0
    assert json.loads(capsys.readouterr().out)["construction"] == "sort2"
    assert main(["bound", graph, "--construction", "sort9"]) == 1


def subcommand_argvs(tmp_path):
    """An argv that succeeds without -o for each subcommand, keyed by its
    path in the parser."""
    graph = write_fig1(tmp_path)
    pi = tmp_path / "pi.json"
    pi.write_text("[2, 1, 0]\n")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"instances": [], "methods": ["theorem1"]}))
    argvs = {
        "gen": ["--family", "fig1"],
        "bound": [graph],
        "adversary": [graph, "--pi", pi, "--exact"],
        "experiment": [cfg],
        "analyze exponents": [],
        "analyze badsets": [graph, "--size", "1"],
        "analyze safety": [graph, "--pi", pi, "--set", "0"],
        "analyze montecarlo": [graph, "--trials", "3", "--seed", "1"],
        "analyze iterate": [graph, "--pi", pi],
        "analyze crosscheck": [graph],
    }
    return {name: name.split() + list(map(str, argv)) for name, argv in argvs.items()}


def parser_commands(parser, prefix=""):
    """The path of every runnable subcommand under parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [prefix.strip()]
    return [
        path
        for name, sub in subs[0].choices.items()
        for path in parser_commands(sub, prefix + " " + name)
    ]


def test_cli_bound_missing_file_is_data_error(tmp_path, capsys):
    """An input that cannot be read and an -o or config output_path that
    cannot be written each exit 2 with one error line naming the path."""
    missing = str(tmp_path / "nope.json")
    assert main(["bound", missing]) == 2
    assert capsys.readouterr().err == "error: %s: %s\n" % (missing, os.strerror(errno.ENOENT))
    unwritable = {
        str(tmp_path / "no_such_dir" / "out.json"): errno.ENOENT,
        str(tmp_path): errno.EISDIR,
    }
    argvs = subcommand_argvs(tmp_path)
    assert sorted(argvs) == sorted(parser_commands(build_parser()))
    for name, argv in argvs.items():
        assert main(argv) == 0, name
        capsys.readouterr()
        for target, code in unwritable.items():
            assert main(argv + ["-o", target]) == 2, name
            out, err = capsys.readouterr()
            assert err == "error: %s: %s\n" % (target, os.strerror(code)), name
            # The exponent table goes to stdout before the document is written.
            assert out == "" or name == "analyze exponents"
    cfg = tmp_path / "config.json"
    for target, code in unwritable.items():
        cfg.write_text(json.dumps({"instances": [], "methods": ["theorem1"], "output_path": target}))
        assert main(["experiment", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: %s: %s\n" % (target, os.strerror(code))


def test_cli_undecodable_inputs_are_data_errors(tmp_path, capsys):
    """A graph, priority order or config file that json cannot decode
    exits 2 with one error line naming the file."""
    graph = subcommand_argvs(tmp_path)["bound"][1]
    for name, data in UNDECODABLE_FILES.items():
        bad = tmp_path / name
        bad.write_bytes(data)
        for argv in (["bound", bad], ["adversary", graph, "--pi", bad], ["experiment", bad]):
            assert main(list(map(str, argv))) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: %s: " % bad), argv
            assert err.count("\n") == 1, err


@pytest.mark.parametrize(
    "name",
    [
        "bound",
        "adversary",
        "analyze badsets",
        "analyze safety",
        "analyze montecarlo",
        "analyze iterate",
        "analyze crosscheck",
    ],
)
def test_cli_reads_the_graph_before_the_priority_order(name, tmp_path, capsys):
    """A missing graph file exits 2 with one error line naming it, also
    when the --pi file is missing too; a --pi of the wrong length exits 2
    naming the --pi file."""
    argv = subcommand_argvs(tmp_path)[name]
    graph, missing = argv[len(name.split())], str(tmp_path / "nope.json")
    no_graph = [missing if arg == graph else arg for arg in argv]
    runs = [no_graph]
    if "--pi" in argv:
        pi = argv[argv.index("--pi") + 1]
        runs.append([str(tmp_path / "nopi.json") if arg == pi else arg for arg in no_graph])
    for run in runs:
        assert main(run) == 2, run
        assert capsys.readouterr() == ("", "error: %s: %s\n" % (missing, os.strerror(errno.ENOENT)))
    if "--pi" in argv:
        short = tmp_path / "short.json"
        short.write_text("[1, 0]\n")
        assert main([str(short) if arg == pi else arg for arg in argv]) == 2
        assert capsys.readouterr() == ("", "error: %s: expected 3 entries, got 2\n" % short)


@pytest.mark.parametrize(
    "name",
    [
        "gen",
        "bound",
        "adversary",
        "experiment",
        "analyze badsets",
        "analyze safety",
        "analyze montecarlo",
        "analyze iterate",
        "analyze crosscheck",
    ],
)
def test_cli_output_file_holds_the_bytes_of_stdout(name, tmp_path, capsys):
    """-o writes what the command would write to stdout, and nothing to
    stdout.  analyze exponents, whose table takes stdout, is pinned in
    test_outputs_pinned."""
    argv = subcommand_argvs(tmp_path)[name]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "out"
    assert main(argv + ["-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode() and stdout


def test_cli_adversary_passes_its_settings_to_the_player(tmp_path, capsys):
    """--exact runs the exact player with --budget; otherwise the
    heuristic runs with --iters and --seed."""
    g = generate(FamilySpec("random_regular", {"n": 9, "d": 3}, seed=1))
    pi = Permutation.from_order([4, 7, 0, 2, 8, 1, 5, 3, 6])
    graph, pi_path, out = tmp_path / "g.json", tmp_path / "pi.json", tmp_path / "adv.json"
    gio.write_graph(str(graph), g)
    pi_path.write_text(json.dumps(list(pi.order)))
    settings = ["--budget", "5", "--iters", "7", "--seed", "4"]
    assert main(["adversary", str(graph), "--pi", str(pi_path), "--exact", *settings]) == 0
    exact = worst_order_exact(g, pi, budget=5)
    assert not exact.exact
    assert capsys.readouterr().out == gio.canonical_dumps(gio.to_doc(exact))
    assert main(["adversary", str(graph), "--pi", str(pi_path), *settings, "-o", str(out)]) == 0
    heuristic = worst_order_heuristic(g, pi, iters=7, seed=4)
    assert out.read_text() == gio.canonical_dumps(gio.to_doc(heuristic))


def test_cli_player_settings_outside_their_domain_are_data_errors(tmp_path, capsys):
    """A negative --iters or a --budget below 1 is rejected whichever
    player is chosen, the one that reads it or not: exit 2 with one
    error line and no output."""
    graph = write_fig1(tmp_path)
    pi_path = tmp_path / "pi.json"
    pi_path.write_text("[2, 1, 0]\n")
    for argv, message in (
        (["adversary", graph, "--pi", str(pi_path), "--iters", "-3"], "iters must be nonnegative"),
        (
            ["analyze", "montecarlo", graph, "--adversary-mode", "heuristic", "--iters", "-3"],
            "iters must be nonnegative",
        ),
        (
            ["adversary", graph, "--pi", str(pi_path), "--exact", "--budget", "0"],
            "budget must be positive",
        ),
        (["analyze", "montecarlo", graph, "--budget", "0"], "budget must be positive"),
        (["adversary", graph, "--pi", str(pi_path), "--budget", "0"], "budget must be positive"),
        (
            ["adversary", graph, "--pi", str(pi_path), "--exact", "--iters", "-3"],
            "iters must be nonnegative",
        ),
        (
            ["analyze", "montecarlo", graph, "--adversary-mode", "heuristic", "--budget", "0"],
            "budget must be positive",
        ),
        (
            ["analyze", "montecarlo", graph, "--adversary-mode", "exact", "--iters", "-3"],
            "iters must be nonnegative",
        ),
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: %s\n" % message)


def test_cli_adversary_exact_and_heuristic(tmp_path, capsys):
    graph = write_fig1(tmp_path)
    pi_path = tmp_path / "pi.json"
    pi_path.write_text("[2, 1, 0]\n")
    assert main(["adversary", graph, "--pi", str(pi_path), "--exact"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["size"] == 2 and doc["exact"] is True
    replay = Permutation.from_order(doc["sigma"])
    assert len(replay) == 3

    assert main(["adversary", graph, "--pi", str(pi_path), "--iters", "50"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact"] is False and doc["size"] >= 2


def test_cli_experiment_deterministic_csv(tmp_path):
    config_doc = {
        "instances": [
            {"family": "fig1"},
            {"family": "biclique_half", "params": {"n": 6}},
        ],
        "methods": ["theorem1", "m12_order"],
        "seed": 2,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(gio.canonical_dumps(config_doc))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["experiment", str(cfg), "-o", str(out1)]) == 0
    assert main(["experiment", str(cfg), "-o", str(out2)]) == 0

    def strip_runtime(text):
        rows = list(csv.DictReader(_io.StringIO(text)))
        return rows_without_runtime(rows)

    assert strip_runtime(out1.read_text()) == strip_runtime(out2.read_text())
    rows = list(csv.DictReader(_io.StringIO(out1.read_text())))
    assert len(rows) == 4
    assert all(r["error"] == "" for r in rows)


def test_cli_experiment_seed_acts_as_the_file_seed(tmp_path):
    """--seed S gives the table of the same file holding seed S, derived
    instance seeds included, even where the file's own seed is malformed;
    without --seed that file is still a schema error."""
    doc = {
        "instances": [
            {"family": "hamiltonian_random", "params": {"n": 9, "extra_edges": 6}},
            {"family": "random_regular", "params": {"n": 8, "d": 3}},
            {"family": "random_regular", "params": {"n": 8, "d": 3}, "seed": 5},
        ],
        "methods": ["theorem1"],
        "seed": 0,
    }
    tables = []
    for file_seed, flag in ((0, ["--seed", "9"]), ("x", ["--seed", "9"]), (9, [])):
        cfg = tmp_path / ("config%s.json" % file_seed)
        cfg.write_text(gio.canonical_dumps({**doc, "seed": file_seed}))
        out = tmp_path / ("rows%s.csv" % file_seed)
        assert main(["experiment", str(cfg), "-o", str(out), *flag]) == 0
        tables.append(rows_without_runtime(list(csv.DictReader(_io.StringIO(out.read_text())))))
    assert tables[0] == tables[1] == tables[2]
    assert main(["experiment", str(tmp_path / "configx.json")]) == 2


def test_cli_seed_only_where_it_is_read(tmp_path, capsys):
    graph = write_fig1(tmp_path)
    assert main(["bound", graph, "--seed", "1"]) == 1
    assert "usage error" in capsys.readouterr().err
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"instances": [], "methods": ["theorem1"]}))
    assert main(["experiment", str(cfg), "--threads", "2"]) == 1
    parser = build_parser()
    for argv in (
        ["gen", "--family", "fig1"],
        ["adversary", graph, "--pi", "pi.json"],
        ["experiment", str(cfg)],
        ["analyze", "montecarlo", graph],
    ):
        assert parser.parse_args(argv + ["--seed", "3"]).seed == 3


def test_adversary_mode_names_agree():
    """The montecarlo choices, the config reader's modes and the attack
    table name the same adversaries."""
    parser = build_parser()
    for name in ("analyze", "montecarlo"):
        (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = subs.choices[name]
    (action,) = [a for a in parser._actions if a.dest == "adversary_mode"]
    assert tuple(action.choices) == ADVERSARY_MODES
    base = {"instances": [{"family": "fig1"}], "methods": ["theorem1"]}
    g = generate(FamilySpec("biclique_half", {"n": 6}))
    for mode in ADVERSARY_MODES:
        assert gio.config_from_doc({**base, "adversary": {"mode": mode}}).adversary.mode == mode
        assert monte_carlo_random_pi(g, trials=1, adversary_mode=mode, iters=10).trials == 1
    for mode in ("psychic", "Exact", None):
        with pytest.raises(SchemaError):
            gio.config_from_doc({**base, "adversary": {"mode": mode}})
        with pytest.raises(UsageError):
            monte_carlo_random_pi(g, trials=1, adversary_mode=mode)


def test_analyze_choices_are_the_library_names():
    """iterate --policy and badsets --mode offer, in order and with the
    first as default, exactly the names the analysis functions accept."""
    assert BAD_SET_MODES == ("full_pi", "canonical_pi")
    assert MINIMIZER_POLICIES == ("first_found", "max_losers_low", "exhaustive_worst_for_next_round")
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    analyze = subs.choices["analyze"]
    (ana_subs,) = [a for a in analyze._actions if isinstance(a, argparse._SubParsersAction)]
    choices = (("iterate", "policy", MINIMIZER_POLICIES), ("badsets", "mode", BAD_SET_MODES))
    for sub, dest, names in choices:
        (action,) = [a for a in ana_subs.choices[sub]._actions if a.dest == dest]
        assert tuple(action.choices) == names and action.default == names[0]
    g = generate(FamilySpec("fig1"))
    for policy in MINIMIZER_POLICIES:
        assert iterative_process(g, Permutation.identity(3), cap=2, minimizer_policy=policy).records
    for mode in BAD_SET_MODES:
        assert enumerate_bad_sets(g, 1, mode=mode).search_mode == mode
    for name in ("nonesuch", "Full_pi", None):
        with pytest.raises(UsageError):
            iterative_process(g, Permutation.identity(3), cap=2, minimizer_policy=name)
        with pytest.raises(UsageError):
            enumerate_bad_sets(g, 1, mode=name)


def test_cli_experiment_empty_instances_header_only(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"instances": [], "methods": ["theorem1"]}))
    assert main(["experiment", str(cfg)]) == 0
    assert capsys.readouterr().out.strip() == ",".join(CSV_COLUMNS)


def test_cli_analyze_exponents_table(tmp_path, capsys):
    out = tmp_path / "exp.json"
    assert main(["analyze", "exponents", "-o", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["exponent", "value"]
    table = {ln.split()[0]: ln.split()[1] for ln in lines[1:7]}
    assert float(table["badset_exp"]) == pytest.approx(0.043881469, abs=1e-9)
    assert float(table["combined_order"]) == pytest.approx(-0.001205342, abs=1e-9)
    assert lines[7].startswith("flags: delta_not_below_half_alpha")
    doc = json.loads(out.read_text())
    assert doc["badset_exp"] == pytest.approx(0.043881469071945914)


def test_cli_analyze_badsets(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    gio.write_graph(str(chain), generate(FamilySpec("badset_chain", {"copies": 1})))
    assert main(["analyze", "badsets", str(chain), "--size", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["set_size"] == 2
    assert doc["bad_sets"] == [[0, 1], [0, 2]]


def test_cli_analyze_badsets_full_pi_runs_past_eight_vertices(tmp_path, capsys):
    """full_pi decides each set as canonical_pi does, so it takes any n."""
    graph = tmp_path / "regular9.json"
    gio.write_graph(str(graph), generate(FamilySpec("random_regular", {"n": 9, "d": 3}, seed=1)))
    docs = {}
    for mode in ("full_pi", "canonical_pi"):
        assert main(["analyze", "badsets", str(graph), "--size", "2", "--mode", mode]) == 0
        docs[mode] = json.loads(capsys.readouterr().out)
    assert len(docs["canonical_pi"]["bad_sets"]) == 36
    assert docs["full_pi"]["bad_sets"] == docs["canonical_pi"]["bad_sets"]


def test_cli_analyze_safety(tmp_path, capsys):
    graph = write_fig1(tmp_path)
    pi_path = tmp_path / "pi.json"
    pi_path.write_text("[2, 1, 0]\n")
    assert main(["analyze", "safety", graph, "--pi", str(pi_path), "--set", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["safe"] is False
    assert doc["witness"] == [0, 2, 1]
    assert main(["analyze", "safety", graph, "--pi", str(pi_path), "--set", "0,zero"]) == 1
    capsys.readouterr()
    # The empty set is safe by convention.
    assert main(["analyze", "safety", graph, "--pi", str(pi_path), "--set", ""]) == 0
    assert json.loads(capsys.readouterr().out) == {"safe": True, "witness": None}


def test_cli_analyze_montecarlo_matches_library(tmp_path, capsys):
    graph = write_fig1(tmp_path)
    assert main(["analyze", "montecarlo", graph, "--trials", "7", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    from greedyorder import monte_carlo_random_pi

    ref = monte_carlo_random_pi(generate(FamilySpec("fig1")), trials=7, seed=3)
    assert doc["mean_size"] == ref.mean_size
    assert doc["upper_bound_only"] is False


def test_cli_montecarlo_regular89_without_params_is_data_error(tmp_path, capsys):
    """A regular89 file lacking d or t is a data error naming the key."""
    path = tmp_path / "g.json"
    for params, key in (({}, "d"), ({"d": 1}, "t")):
        path.write_text(gio.canonical_dumps(dict(FIG1_DOC, family="regular89", params=params)))
        argv = ["analyze", "montecarlo", str(path), "--adversary-mode", "constructive"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: %s not given and absent from graph params\n" % key


def test_cli_malformed_family_params_are_data_errors(tmp_path, capsys):
    """A family parameter that int() or float() rejects, or a boolean or
    non-integral float where an integer is due, exits 2 with one error
    line in montecarlo and lands in the row's error in experiment."""
    path = tmp_path / "g.json"
    for family, params, key in (
        ("regular89", {"d": "x", "t": 1}, "d"),
        ("planted_is", {"planted_size": "x"}, "planted_size"),
        ("regular89", {"d": 2.9, "t": 1}, "d"),
        ("regular89", {"d": 1, "t": True}, "t"),
        ("planted_is", {"planted_size": True}, "planted_size"),
    ):
        path.write_text(gio.canonical_dumps(dict(FIG1_DOC, family=family, params=params)))
        argv = ["analyze", "montecarlo", str(path), "--adversary-mode", "constructive"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: graph param %r must be an integer, got %r\n" % (key, params[key])
    cfg = tmp_path / "config.json"
    instances = [
        {"family": "random_regular", "params": {"n": "x", "d": 3}},
        {"family": "random_regular", "params": {"n": None, "d": 3}},
        {"family": "planted_is", "params": {"n": 10, "d": 3, "eps": "x"}},
        {"family": "random_regular", "params": {"n": 2.9, "d": 3}},
        {"family": "random_regular", "params": {"n": 8, "d": True}},
    ]
    cfg.write_text(json.dumps({"instances": instances, "methods": ["theorem1"]}))
    assert main(["experiment", str(cfg)]) == 0
    rows = list(csv.DictReader(_io.StringIO(capsys.readouterr().out)))
    assert [r["error"] for r in rows] == [
        "GenerationError: family 'random_regular' parameter 'n' must be int, got 'x'",
        "GenerationError: family 'random_regular' parameter 'n' must be int, got None",
        "GenerationError: family 'planted_is' parameter 'eps' must be float, got 'x'",
        "GenerationError: family 'random_regular' parameter 'n' must be int, got 2.9",
        "GenerationError: family 'random_regular' parameter 'd' must be int, got True",
    ]


def test_cli_bound_certifies_the_reversed_chain_at_n_900(tmp_path, capsys):
    """Each augmenting step of Hopcroft-Karp takes one frame: u_i is
    adjacent to v_{n-1-i} and v_{n-2-i}, so one path runs n levels deep,
    and n=900 fits in the default recursion limit with room to spare."""
    n = 900
    edges = [(i, n - 1 - i) for i in range(n)] + [(i, n - 2 - i) for i in range(n - 1)]
    path = tmp_path / "chain.json"
    gio.write_graph(str(path), BipartiteGraph.from_edges(n, sorted(edges)))
    assert main(["bound", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["guaranteed_count"] > n // 2


def test_cli_analyze_iterate(tmp_path, capsys):
    gpath = tmp_path / "iter3.json"
    gio.write_graph(str(gpath), generate(FamilySpec("iterative", {"i": 3})))
    pi_path = tmp_path / "pi.json"
    pi_path.write_text(json.dumps(list(reversed(range(8)))))
    assert main(["analyze", "iterate", str(gpath), "--pi", str(pi_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [rec["size"] for rec in doc["records"]] == [4, 4, 4, 8]
    assert doc["cap_reached"] is False
    # Without --pi the first round uses the identity priority order.
    pi_path.write_text(json.dumps(list(range(8))))
    assert main(["analyze", "iterate", str(gpath), "--pi", str(pi_path)]) == 0
    with_identity = capsys.readouterr().out
    assert main(["analyze", "iterate", str(gpath)]) == 0
    assert capsys.readouterr().out == with_identity


def test_cli_analyze_iterate_without_a_perfect_matching_is_a_data_error(tmp_path, capsys):
    gpath = tmp_path / "star.json"
    gio.write_graph(str(gpath), BipartiteGraph.from_edges(3, [(0, 0), (1, 0), (2, 0)]))
    assert main(["analyze", "iterate", str(gpath)]) == 2
    assert capsys.readouterr().err.startswith("error: maximum matching has size 1 < n=3")


def test_iterate_refuses_a_round_the_exact_search_could_not_finish(monkeypatch, tmp_path, capsys):
    """A round whose list of largest avoidable sets ran out of budget is
    a usage error in the library and exit 1 from analyze iterate."""

    def out_of_budget(adj, col, count, budget):
        raise adversary._BudgetExceeded(0)

    monkeypatch.setattr(adversary, "_max_avoidable", out_of_budget)
    g = generate(FamilySpec("iterative", {"i": 2}))
    message = "exact minimization exceeded its budget; instance too large"
    with pytest.raises(UsageError) as info:
        iterative_process(g, Permutation.identity(g.n), cap=4)
    assert str(info.value) == message
    gpath = tmp_path / "iter2.json"
    gio.write_graph(str(gpath), g)
    assert main(["analyze", "iterate", str(gpath)]) == 1
    assert capsys.readouterr() == ("", "usage error: %s\n" % message)


def test_cli_analyze_crosscheck(tmp_path, capsys):
    graph = write_fig1(tmp_path)
    assert main(["analyze", "crosscheck", graph]) == 0
    assert json.loads(capsys.readouterr().out) == {"equal": True, "n": 3}
    big = tmp_path / "big.json"
    gio.write_graph(str(big), generate(FamilySpec("biclique_half", {"n": 8})))
    assert main(["analyze", "crosscheck", str(big)]) == 1


def test_cli_invariant_violation_exit_code(monkeypatch, capsys):
    import greedyorder.cli as cli_mod

    def explode(spec):
        raise PropositionViolatedError("synthetic")

    monkeypatch.setattr(cli_mod, "generate", explode)
    assert main(["gen", "--family", "fig1"]) == 3
    assert "invariant" in capsys.readouterr().err


# The exit code each error class declares, where it is not the data-error 2.
EXIT_CODES = {
    "UsageError": 1,
    "MatchingNotAlignedError": 3,
    "MissingArcError": 3,
    "PropositionViolatedError": 3,
}
EXIT_LABELS = {1: "usage error", 2: "error", 3: "internal invariant violated"}


def test_every_error_class_declares_its_exit_code(monkeypatch, capsys):
    """main returns the code an error class declares and writes one
    stderr line, its label and the message; other exceptions escape."""
    classes = [
        c for c in vars(errors_mod).values()
        if isinstance(c, type) and issubclass(c, GreedyOrderError)
    ]
    assert len(classes) == 13
    for cls in classes:
        code = EXIT_CODES.get(cls.__name__, 2)
        assert cls.exit_code == code, cls

        def explode(spec, cls=cls):
            raise cls("synthetic %s" % cls.__name__)

        monkeypatch.setattr(cli, "generate", explode)
        assert main(["gen", "--family", "fig1"]) == code, cls
        assert capsys.readouterr().err == "%s: synthetic %s\n" % (EXIT_LABELS[code], cls.__name__)

    def fail(spec):
        raise AssertionError("not a package error")

    monkeypatch.setattr(cli, "generate", fail)
    with pytest.raises(AssertionError):
        main(["gen", "--family", "fig1"])


def child_env(*drop):
    """This interpreter's environment less the variables in drop, with
    the package's source directory first on PYTHONPATH, so that a child
    interpreter imports the package under test however pytest was run."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    src = os.path.dirname(os.path.dirname(gio.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "greedyorder.cli", "gen", "--family", "fig1"],
        capture_output=True,
        env=child_env(),
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 3


@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink", ["/dev/full", "closed pipe"])
def test_cli_stdout_write_failure_is_data_error(sink, flags):
    """A stdout that cannot take the output exits 2 with one error line:
    no traceback, and no second message from the flush at exit.  Through
    a buffered stdout the large document fails in write and the small
    ones, the help texts among them, in flush; through an unbuffered one
    every write fails."""
    if sink == "/dev/full" and not os.path.exists(sink):
        pytest.skip("no /dev/full")
    code = errno.ENOSPC if sink == "/dev/full" else errno.EPIPE
    env = child_env("PYTHONUNBUFFERED")
    for argv in (
        ["gen", "--family", "biclique_half", "--n", "400"],
        ["gen", "--family", "fig1"],
        ["analyze", "exponents"],
        ["-h"],
        ["analyze", "-h"],
    ):
        if sink == "/dev/full":
            out = os.open(sink, os.O_WRONLY)
        else:
            r, out = os.pipe()
            os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "greedyorder.cli", *argv],
                stdout=out,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
            )
        finally:
            os.close(out)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr == "error: stdout: %s\n" % os.strerror(code), argv


def test_help_prints_the_parsers_text_and_exits_zero(capsys):
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    analyze = subs.choices["analyze"]
    for argv, parser in (([], build_parser()), (["analyze"], analyze)):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr() == (parser.format_help(), "")


def test_analyze_badsets_keeps_the_subcommand_and_its_mode_apart():
    args = build_parser().parse_args(
        ["analyze", "badsets", "g.json", "--size", "2", "--mode", "canonical_pi"]
    )
    assert (args.command, args.analysis, args.mode) == ("analyze", "badsets", "canonical_pi")
    args = build_parser().parse_args(["analyze", "badsets", "g.json", "--size", "2"])
    assert (args.analysis, args.mode) == ("badsets", "full_pi")


def test_bound_writes_the_same_bytes_under_python_O(corpus_by_id, tmp_path):
    # -O strips assert statements; the certificate's invariants must not
    # depend on them.
    path = str(tmp_path / "g.json")
    gio.write_graph(path, corpus_by_id["iter3"].graph)
    env = child_env()
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "greedyorder.cli", "bound", path],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["guaranteed_count"] > 0


def test_the_parser_is_built_once_and_shared(corpus, tmp_path, capsys):
    assert build_parser() is build_parser()
    first = tmp_path / "first.json"
    again = tmp_path / "again.json"
    for inst in corpus:
        path = str(tmp_path / ("%s.json" % inst.instance_id))
        gio.write_graph(path, inst.graph)
        # A usage error and an option set on one call leave nothing
        # behind in the shared parser for the next call.
        assert main(["bound", path, "--construction", "sort9"]) == 1
        assert main(["bound", path, "-o", str(first)]) == 0
        assert main(["bound", path, "--construction", "sort2", "-o", str(again)]) == 0
        assert main(["bound", path, "-o", str(again)]) == 0
        assert first.read_bytes() == again.read_bytes()
    assert "usage error" in capsys.readouterr().err


def package_trees():
    """(path under the package, parsed module) for each of its modules."""
    root = os.path.dirname(gio.__file__)
    for folder, _, names in os.walk(root):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    yield os.path.relpath(path, root), ast.parse(fh.read(), filename=path)


def test_no_assert_statements_in_the_package():
    # Invariants must raise errors that python -O cannot strip.
    found = [
        "%s:%d" % (name, node.lineno)
        for name, tree in package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_import_is_used_and_every_export_resolves():
    # Code moved out of a module can leave its imports behind, and a name
    # dropped from a module can leave its __all__ entry behind.
    unused, unresolved = [], []
    for name, tree in package_trees():
        exported = []
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported = [elt.value for elt in node.value.elts]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(exported)
        if name != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    bound = [a.asname or a.name.split(".")[0] for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    bound = [a.asname or a.name for a in node.names]
                else:
                    continue
                unused += ["%s:%d %s" % (name, node.lineno, b) for b in bound if b not in used]
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                defined.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        unresolved += ["%s %s" % (name, e) for e in exported if e not in defined]
    assert unused == []
    assert unresolved == []


def test_the_package_imports_only_the_standard_library():
    # pyproject.toml declares no runtime dependencies.
    allowed = sys.stdlib_module_names | {"greedyorder"}
    outside = []
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [
                "%s:%d %s" % (name, node.lineno, m) for m in modules if m.split(".")[0] not in allowed
            ]
    assert outside == []
