"""Record the expected output of every benchmark input in references.json.

Run once, from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/record.py [--workload NAME] [--smoke]

Each distinct input of every seed variant goes once through its untraced
operation, and the outcome is stored under the input's key.  An input that
fails at this commit keeps its error; for the certificate workload the
certificate it would give is recorded beside the error, computed with a deep
stack and recursion limit, so a later fix must still produce exactly it.
The independent checks run on every recorded result, and the bad-set lists
of every census graph with n <= 7 (fano among them) are cross-checked by
brute force over all priority and arrival orders: a full_pi list must equal
the brute-force list, a canonical_pi list must lie within it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from greedyorder import io as gio  # noqa: E402

from workloads import POOL, WORKLOADS, OpError, instance_key, make_graph  # noqa: E402

REFERENCES = os.path.join(HERE, "references.json")


def deep_call(fn, *args):
    """Call fn in a thread with a 512 MiB stack and a high recursion limit."""
    box = {}

    def target():
        try:
            box["result"] = fn(*args)
        except Exception as exc:
            box["result"] = OpError(exc)

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(200_000)
    threading.stack_size(512 << 20)
    try:
        th = threading.Thread(target=target)
        th.start()
        th.join()
    finally:
        threading.stack_size(0)
        sys.setrecursionlimit(old)
    return box["result"]


def brute_unmatched_masks(g) -> set[int]:
    """Every right-side unmatched set, as a bitmask, over all (pi, sigma)."""
    n = g.n
    full = (1 << n) - 1
    seen = set()
    for pi in itertools.permutations(range(n)):
        rank = {v: r for r, v in enumerate(pi)}
        prefs = [sorted(g.adj_u[u], key=rank.__getitem__) for u in range(n)]
        for sigma in itertools.permutations(range(n)):
            taken = 0
            for u in sigma:
                for v in prefs[u]:
                    if not taken >> v & 1:
                        taken |= 1 << v
                        break
            seen.add(full & ~taken)
    return seen


def brute_bad_sets(masks: set[int], n: int, size: int) -> list[list[int]]:
    return [
        list(c) for c in itertools.combinations(range(n), size)
        if any(all(m >> v & 1 for v in c) for m in masks)
    ]


def record(wl, smoke: bool, workdir: str) -> dict:
    refs: dict = {}
    brute_cache: dict = {}
    for variant in range(POOL):
        for inst in wl.instances(variant, smoke):
            key = instance_key(inst)
            if key in refs:
                continue
            t0 = time.perf_counter()
            path = os.path.join(workdir, "graph.json")
            out = os.path.join(workdir, "out.json")
            gio.write_graph(path, make_graph(inst))
            item = wl.load(inst, path)
            try:
                result = wl.run(item, out)
            except Exception as exc:
                result = OpError(exc)
            outcome = wl.outcome(item, result)
            if isinstance(result, OpError):
                if wl.name != "certify_large":
                    raise SystemExit("%s: %r" % (key, result))
                deep = deep_call(wl.run, item, out)
                if isinstance(deep, OpError):
                    raise SystemExit("%s: %r even with a deep stack" % (key, deep))
                outcome = dict(wl.outcome(item, deep), error=result.kind)
            else:
                issues = wl.check(item, result, outcome)
                if issues:
                    raise SystemExit("%s: %s" % (key, issues))
            if wl.name == "safety_census" and item["graph"].n <= 7:
                g = item["graph"]
                gkey = (inst["family"], json.dumps(inst["params"], sort_keys=True), inst["seed"])
                if gkey not in brute_cache:
                    brute_cache[gkey] = brute_unmatched_masks(g)
                expected = brute_bad_sets(brute_cache[gkey], g.n, inst["size"])
                got = outcome["bad_sets"]
                if inst["mode"] == "full_pi" and got != expected or any(b not in expected for b in got):
                    raise SystemExit("%s: bad sets disagree with brute force" % key)
                outcome["bruteforce_checked"] = True
            refs[key] = outcome
            print("%-14s %6.2fs  %s" % (wl.name, time.perf_counter() - t0, key), file=sys.stderr)
    return refs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    p.add_argument("--smoke", action="store_true", help="record the smoke inputs only")
    args = p.parse_args(argv)
    doc = {"full": {}, "smoke": {}}
    if os.path.exists(REFERENCES):
        with open(REFERENCES, encoding="utf-8") as fh:
            doc = json.load(fh)
    workdir = os.path.join(HERE, "_work", "record-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        for name in args.workload or list(WORKLOADS):
            mode = "smoke" if args.smoke else "full"
            doc[mode][name] = record(WORKLOADS[name], args.smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
