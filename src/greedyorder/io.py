"""Canonical JSON documents for graphs, orders, covers, and results.

Writers always emit the canonical form, the text of
``json.dumps(doc, sort_keys=True, indent=2)`` plus one trailing newline
(keys sorted, two-space indent), with edges sorted lexicographically.
`canonical_dumps` writes it without json's pure-Python indenting
encoder; a property test holds it to json.dumps's bytes.  A result
document is its dataclass's fields by name, through `to_doc`.  Every
write, to a file or to stdout, goes through `write_text`, which turns
a failed write into a SchemaError naming the file.  Readers accept any
schema-valid document and normalize, so write(read(x)) is the identity
on canonical files.  Shape problems raise SchemaError naming the file
and field; semantic problems (say, an edge list that is not a
valid graph) surface through the usual construction errors.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Mapping, Optional, Sequence

from .adversary import ADVERSARY_MODES, DEFAULT_BUDGET, DEFAULT_MODE, _check_settings
from .analysis import BadSetReport, IterativeTrace, MonteCarloSummary
from .certify import CONSTRUCTIONS, BoundCertificate
from .core import BipartiteGraph, Permutation, _graph_from_rows
from .errors import AnalysisParamError, SchemaError
from .families import FAMILIES, FamilySpec, derived_seed

__all__ = [
    "AdversarySettings",
    "ExperimentConfig",
    "canonical_dumps",
    "graph_to_doc",
    "graph_from_doc",
    "write_graph",
    "read_graph",
    "perm_from_doc",
    "write_perm",
    "read_perm",
    "read_config",
    "to_doc",
    "certificate_to_doc",
    "badset_report_to_doc",
    "monte_carlo_to_doc",
    "iterative_trace_to_doc",
    "write_text",
    "write_doc",
]


def canonical_dumps(doc: Any) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    json's C encoder does not indent, so this emitter walks the dicts with
    str keys, the lists and the tuples itself and writes a list of plain
    ints, or of plain [int, int] pairs, in one join.  Everything else
    (scalars, dicts with other keys, subclasses) goes through json.dumps
    and is re-indented to its depth.
    """
    chunks: list[str] = []
    _emit(doc, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _emit(value: Any, nl: str, write: Callable[[str], Any]) -> None:
    """Write value's canonical JSON, where nl is a newline followed by the
    indent of the line that value starts on."""
    kind = type(value)
    inner = nl + "  "
    if kind is dict and value and all(type(key) is str for key in value):
        sep = "{" + inner
        for key in sorted(value):
            write(sep + encode_basestring_ascii(key) + ": ")
            _emit(value[key], inner, write)
            sep = "," + inner
        write(nl + "}")
        return
    if (kind is list or kind is tuple) and value:
        sep = "," + inner
        kinds = set(map(type, value))
        if kinds == {int}:
            write("[" + inner + sep.join(map(str, value)) + nl + "]")
        elif (
            kinds <= {list, tuple}
            and set(map(len, value)) == {2}
            and set(map(type, chain.from_iterable(value))) == {int}
        ):
            pair = "[" + inner + "  %d," + inner + "  %d" + inner + "]"
            write("[" + inner + sep.join([pair % (u, v) for u, v in value]) + nl + "]")
        else:
            for idx, item in enumerate(value):
                write(sep if idx else "[" + inner)
                _emit(item, inner, write)
            write(nl + "]")
        return
    write(json.dumps(value, sort_keys=True, indent=2).replace("\n", nl))


def write_text(path: Optional[str], text: str) -> None:
    """Write text to the file at path, or to stdout without one; a file
    that cannot be opened or written, or a stdout that cannot be written
    or flushed (a full disk, a closed pipe), is a SchemaError naming it.
    A file gets text's newlines untranslated, so its bytes are the same
    on every OS."""
    if not path:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # What the failed write left in stdout's buffer would fail again
            # at the interpreter's flush on exit, with a second message.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise SchemaError("stdout: %s" % (exc.strerror or exc)) from exc
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError("%s: %s" % (path, exc.strerror or exc)) from exc


def write_doc(path: Optional[str], doc: Any) -> None:
    """Write doc's canonical JSON through `write_text`."""
    write_text(path, canonical_dumps(doc))


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError("%s:%d:%d: %s" % (path, exc.lineno, exc.colno, exc.msg)) from exc
    except OSError as exc:
        raise SchemaError("%s: %s" % (path, exc.strerror or exc)) from exc
    except (ValueError, RecursionError) as exc:
        # Not UTF-8, an int literal past the int-string limit, or nested too deep.
        raise SchemaError("%s: %s" % (path, exc)) from exc


def _fail(where: str, message: str) -> SchemaError:
    return SchemaError("%s: %s" % (where, message))


def _get_int(doc: Mapping[str, Any], key: str, where: str) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise _fail(where, "field %r must be an integer, got %r" % (key, value))
    return value


def _pair(item: Any, idx: int, n: int, key: str, where: str) -> tuple[int, int]:
    """Entry idx of a pair list as (u, v), or the SchemaError naming it."""
    if isinstance(item, (list, tuple)) and len(item) == 2:
        u, v = item
        # bool is an int subclass, and a final one.
        if (
            isinstance(u, int)
            and isinstance(v, int)
            and type(u) is not bool
            and type(v) is not bool
        ):
            if 0 <= u < n and 0 <= v < n:
                return u, v
            raise _fail(where, "field %r entry %d out of range for n=%d" % (key, idx, n))
    raise _fail(where, "field %r entry %d is not an [u, v] integer pair" % (key, idx))


def _pair_list(value: Any, n: int, key: str, where: str) -> list[tuple[int, int]]:
    if not isinstance(value, list):
        raise _fail(where, "field %r must be a list of [u, v] pairs" % key)
    return [_pair(item, idx, n, key, where) for idx, item in enumerate(value)]


def _edge_rows(value: Any, n: int, where: str) -> list[list[int]]:
    """The 'edges' field bucketed by U vertex, each row in input order.

    A plain [int, int] list in range is taken as it stands; any other
    entry goes through `_pair`, which accepts it or names it.
    """
    if not isinstance(value, list):
        raise _fail(where, "field 'edges' must be a list of [u, v] pairs")
    rows: list[list[int]] = [[] for _ in range(n)]
    for idx, item in enumerate(value):
        if type(item) is list and len(item) == 2:
            u, v = item
            if type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n:
                rows[u].append(v)
                continue
        u, v = _pair(item, idx, n, "edges", where)
        rows[u].append(v)
    return rows


# --- graphs ---------------------------------------------------------------


def graph_to_doc(
    g: BipartiteGraph, matching: Optional[Sequence[tuple[int, int]]] = None
) -> dict:
    doc: dict[str, Any] = {"n": g.n, "edges": [[u, v] for u, v in g.edges]}
    if matching is not None:
        doc["matching"] = [[u, v] for u, v in sorted(matching)]
    if g.family is not None:
        doc["family"] = g.family
    if g.params:
        doc["params"] = json.loads(json.dumps(g.params))
    return doc


def graph_from_doc(
    doc: Any, where: str = "graph"
) -> tuple[BipartiteGraph, Optional[list[tuple[int, int]]]]:
    if not isinstance(doc, dict):
        raise _fail(where, "document must be an object")
    n = _get_int(doc, "n", where)
    if n < 1:
        raise _fail(where, "field 'n' must be positive")
    rows = _edge_rows(doc.get("edges"), n, where)
    family = doc.get("family")
    if family is not None and not isinstance(family, str):
        raise _fail(where, "field 'family' must be a string")
    params = doc.get("params")
    if params is not None and not isinstance(params, dict):
        raise _fail(where, "field 'params' must be an object")
    matching = None
    if "matching" in doc:
        matching = _pair_list(doc["matching"], n, "matching", where)
        if sorted(u for u, _ in matching) != list(range(n)) or sorted(
            v for _, v in matching
        ) != list(range(n)):
            raise _fail(where, "field 'matching' is not a perfect matching on both sides")
        for idx, (u, v) in enumerate(matching):
            if v not in rows[u]:
                raise _fail(where, "field 'matching' pair %d is not an edge" % idx)
    g = _graph_from_rows(n, rows, family, params)
    return g, matching


def write_graph(
    path: str, g: BipartiteGraph, matching: Optional[Sequence[tuple[int, int]]] = None
) -> None:
    write_doc(path, graph_to_doc(g, matching))


def read_graph(path: str) -> tuple[BipartiteGraph, Optional[list[tuple[int, int]]]]:
    return graph_from_doc(_load_json(path), where=path)


# --- permutations ---------------------------------------------------------


def perm_from_doc(doc: Any, n: Optional[int] = None, where: str = "permutation") -> Permutation:
    if not isinstance(doc, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in doc
    ):
        raise _fail(where, "document must be a list of vertex indices")
    if sorted(doc) != list(range(len(doc))):
        raise _fail(where, "indices must be a permutation of 0..%d" % (len(doc) - 1))
    if n is not None and len(doc) != n:
        raise _fail(where, "expected %d entries, got %d" % (n, len(doc)))
    return Permutation.from_order(doc)


def write_perm(path: str, p: Permutation) -> None:
    write_doc(path, to_doc(p))


def read_perm(path: str, n: Optional[int] = None) -> Permutation:
    return perm_from_doc(_load_json(path), n=n, where=path)


# --- experiment configuration ----------------------------------------------


@dataclass(frozen=True)
class AdversarySettings:
    """How experiment rows attack a certified order.

    mode names an `adversary.ATTACKS` entry: "exact" searches to
    optimality within the budget of kernel calls; "heuristic" runs the
    local search for iters iterations; "sampled" takes the minimum over
    `trials` random arrival orders; "constructive" runs the family's
    adversary.
    """

    mode: str = DEFAULT_MODE
    budget: int = DEFAULT_BUDGET
    iters: int = 4000


@dataclass(frozen=True)
class ExperimentConfig:
    instances: tuple[FamilySpec, ...]
    methods: tuple[str, ...]
    adversary: AdversarySettings = field(default_factory=AdversarySettings)
    trials: int = 100
    seed: int = 0
    output_path: Optional[str] = None


def _spec_from_doc(doc: Any, idx: int, default_seed: int, where: str) -> FamilySpec:
    slot = "instances[%d]" % idx
    if not isinstance(doc, dict):
        raise _fail(where, "%s must be an object" % slot)
    family = doc.get("family")
    if family not in FAMILIES:
        raise _fail(where, "%s: unknown family %r" % (slot, family))
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise _fail(where, "%s: field 'params' must be an object" % slot)
    doc = {"seed": derived_seed(default_seed, idx), **doc}
    seed = _get_int(doc, "seed", "%s: %s" % (where, slot))
    return FamilySpec(family=family, params=params, seed=seed)


def config_from_doc(doc: Any, where: str = "config") -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise _fail(where, "document must be an object")
    doc = {"seed": ExperimentConfig.seed, "trials": ExperimentConfig.trials, **doc}
    seed = _get_int(doc, "seed", where)
    raw_instances = doc.get("instances")
    if not isinstance(raw_instances, list):
        raise _fail(where, "field 'instances' must be a list")
    instances = tuple(
        _spec_from_doc(item, i, seed, where) for i, item in enumerate(raw_instances)
    )
    raw_methods = doc.get("methods")
    if not isinstance(raw_methods, list) or not raw_methods:
        raise _fail(where, "field 'methods' must be a non-empty list")
    for m in raw_methods:
        if m not in CONSTRUCTIONS:
            raise _fail(where, "unknown method %r" % (m,))
    adv_doc = doc.get("adversary", {})
    if not isinstance(adv_doc, dict):
        raise _fail(where, "field 'adversary' must be an object")
    adv_doc = {**vars(AdversarySettings()), **adv_doc}
    mode = adv_doc["mode"]
    if mode not in ADVERSARY_MODES:
        raise _fail(where, "unknown adversary mode %r" % (mode,))
    budget, iters = (_get_int(adv_doc, k, where + ": adversary") for k in ("budget", "iters"))
    try:
        _check_settings(budget=budget, iters=iters)
    except AnalysisParamError as exc:
        raise _fail(where, "adversary %s" % exc) from exc
    trials = _get_int(doc, "trials", where)
    if trials < 1:
        raise _fail(where, "field 'trials' must be a positive integer")
    output_path = doc.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise _fail(where, "field 'output_path' must be a string")
    return ExperimentConfig(
        instances=instances,
        methods=tuple(raw_methods),
        adversary=AdversarySettings(mode=mode, budget=budget, iters=iters),
        trials=trials,
        seed=seed,
        output_path=output_path,
    )


def read_config(path: str, seed: Optional[int] = None) -> ExperimentConfig:
    """Read a config file; a given seed acts as if the file had held it."""
    doc = _load_json(path)
    if seed is not None and isinstance(doc, dict):
        doc = {**doc, "seed": seed}
    return config_from_doc(doc, where=path)


# --- result documents -------------------------------------------------------


def to_doc(value: Any) -> Any:
    """The JSON form of a result: a Permutation is its order list, a
    Fraction "p/q", a dataclass its fields by name and a tuple or list a
    list, each entry converted in turn; anything else is returned as is."""
    if isinstance(value, Permutation):
        return list(value.order)
    if isinstance(value, Fraction):
        return "%d/%d" % (value.numerator, value.denominator)
    if is_dataclass(value):
        return {f.name: to_doc(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [to_doc(x) for x in value]
    return value


def certificate_to_doc(cert: BoundCertificate) -> dict:
    eps = cert.eps
    return {
        "construction": cert.construction,
        "guaranteed_count": cert.guaranteed_count,
        "fraction": to_doc(cert.guaranteed_fraction),
        "eps": {"e1": to_doc(eps.eps1), "e2": to_doc(eps.eps2), "e3": to_doc(eps.eps3)},
        "pi": to_doc(cert.pi),
    }


def badset_report_to_doc(report: BadSetReport) -> dict:
    witnesses = {
        ",".join(map(str, s)): {"pi": to_doc(pi), "sigma": to_doc(sigma)}
        for s, (pi, sigma) in report.witnesses.items()
    }
    return {**to_doc(report), "witnesses": witnesses}


def monte_carlo_to_doc(summary: MonteCarloSummary) -> dict:
    return to_doc(summary)


def iterative_trace_to_doc(trace: IterativeTrace) -> dict:
    return {**to_doc(trace), "iterations_used": trace.iterations_used}
