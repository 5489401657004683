"""Child process of the benchmark: ``setup`` or ``measure`` one workload.

Usage: ``python3 perfbench/worker.py <setup|measure> <job.json>``.  The job
file names the workload, seed, mode and work directory; the worker
writes its findings to ``job["result"]``.  ``run.py`` starts a fresh
process for each role, so the measured process never held the inputs'
generation and its peak memory covers loading and the timed passes only.

The untraced measurement repeats a pass over every input until the run's
seconds are spent and keeps each input's fastest time.  On a shared host
a call runs up to 1.7x slower while a neighbour holds the core, and how
much of a run that covers changes from minute to minute; a call of at
most ~50 ms repeated dozens of times nearly always has one repetition in
a quiet spell, so the fastest time measures the program, not the
neighbours.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import sys
import time

# The program must come from the checkout this benchmark sits in.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

import greedyorder  # noqa: E402
from greedyorder import io as gio  # noqa: E402

from tracing import GcMeter, Tracer, percentile  # noqa: E402
from workloads import MAIN_LAYER, WORKLOADS, OpError, instance_key, make_graph, variant_of  # noqa: E402

# One set-up process repeats the set-up until it has taken this long (at
# least once) and reports every repetition's time.
SETUP_MIN_TOTAL_S = 1.0
SETUP_MAX_REPS = 200
# Passes of the traced run: enough for every layer to show, few enough
# that the spans stay small in memory.
TRACE_PASSES = 5


def graph_path(workdir: str, idx: int) -> str:
    return os.path.join(workdir, "graphs", "%02d.json" % idx)


def setup(job: dict) -> dict:
    """Generate the inputs and write them as graph files, several times."""
    wl = WORKLOADS[job["workload"]]
    insts = wl.instances(variant_of(job["seed"]), job["smoke"])
    os.makedirs(os.path.join(job["workdir"], "graphs"), exist_ok=True)
    totals, generate = [], []
    while not totals or (sum(totals) < SETUP_MIN_TOTAL_S and len(totals) < SETUP_MAX_REPS):
        gen_s = 0.0
        graphs = {}
        t0 = time.perf_counter()
        for idx, inst in enumerate(insts):
            # Inputs that share a graph (montecarlo's calls) generate it once.
            key = (inst["family"], json.dumps(inst["params"], sort_keys=True), inst["seed"])
            if key not in graphs:
                a = time.perf_counter()
                graphs[key] = make_graph(inst)
                if inst["family"] != "reversed_chain":
                    gen_s += time.perf_counter() - a
            gio.write_graph(graph_path(job["workdir"], idx), graphs[key])
        totals.append(time.perf_counter() - t0)
        generate.append(gen_s)
    with open(os.path.join(job["workdir"], "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(insts, fh)
    return {
        "setup_reps_s": totals,
        "families_generate_s": statistics.median(generate),
    }


def run_op(wl, item, out):
    try:
        return wl.run(item, out)
    except Exception as exc:  # every failure is counted, none stops the run
        return OpError(exc)


def tally(wl, items, results) -> tuple[int, int]:
    """(attempted, failed) operations of one pass."""
    attempted = sum(wl.ops(item) for item in items)
    done = sum(wl.ops(item) for item, r in zip(items, results) if wl.ok(r))
    return attempted, attempted - done


def mismatches(wl, items, results, refs) -> list[str]:
    issues = []
    for item, result in zip(items, results):
        key = instance_key(item["inst"])
        ref = refs.get(key)
        if ref is None:
            issues.append("%s: no reference recorded" % key)
            continue
        issues.extend("%s: %s" % (key, msg) for msg in wl.check(item, result, ref))
    return issues


def failures(wl, items, results) -> list[str]:
    return [
        "%s: %r" % (instance_key(item["inst"]), r)
        for item, r in zip(items, results)
        if not wl.ok(r)
    ]


def measure(job: dict) -> dict:
    if not os.path.abspath(greedyorder.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit("greedyorder was not imported from %s/src" % ROOT)
    wl = WORKLOADS[job["workload"]]
    workdir = job["workdir"]
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        insts = json.load(fh)
    with open(os.path.join(ROOT, "perfbench", "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)["smoke" if job["smoke"] else "full"].get(wl.name, {})
    items = [wl.load(inst, graph_path(workdir, i)) for i, inst in enumerate(insts)]
    outs = [os.path.join(workdir, "out-%02d.json" % i) for i in range(len(items))]
    gc.collect()
    if job["trace"]:
        return measure_traced(job, wl, items, outs, refs)

    deadline = time.perf_counter() + job["seconds"]
    best = [math.inf] * len(items)
    passes = 0
    attempted = failed = 0
    issues: list[str] = []
    failed_ops: list[str] = []
    while True:
        results = []
        for i, (item, out) in enumerate(zip(items, outs)):
            t0 = time.perf_counter()
            results.append(run_op(wl, item, out))
            best[i] = min(best[i], time.perf_counter() - t0)
        passes += 1
        a, f = tally(wl, items, results)
        attempted, failed = attempted + a, failed + f
        issues.extend(mismatches(wl, items, results, refs))
        failed_ops = failures(wl, items, results)
        if time.perf_counter() >= deadline:
            break
        gc.collect()
    # The checks between passes allocate little, so this peak is the passes'.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    done = sum(wl.ops(item) for item, r in zip(items, results) if wl.ok(r))
    return {
        # A failed op adds no work, but its time still counts.
        "ops_per_s": done / sum(best),
        "peak_rss_mb": peak_kb / 1024.0,
        "passes": passes,
        "best_op_s": {instance_key(item["inst"]): t for item, t in zip(items, best)},
        "attempted": attempted,
        "failed": failed,
        "failed_ops": failed_ops,
        "mismatches": issues,
    }


def measure_traced(job, wl, items, outs, refs) -> dict:
    """Over ``TRACE_PASSES`` passes each input runs untraced (with GC
    accounting), then traced, each composite replayed stage by stage.
    Alternating per input keeps memory and caches alike for both, so their
    ratio is the tracing overhead."""
    tracer, gcm = Tracer(), GcMeter()
    plain_s = traced_s = 0.0
    attempted = failed = plain_failed = 0
    issues: list[str] = []
    op = 0
    for _ in range(TRACE_PASSES):
        plain, traced = [], []
        for item, out in zip(items, outs):
            with gcm:
                t0 = time.perf_counter()
                plain.append(run_op(wl, item, out))
                plain_s += time.perf_counter() - t0
            t0 = time.perf_counter()
            try:
                traced.append(wl.run_traced_item(item, tracer, op, out + ".traced"))
            except Exception as exc:
                traced.append(OpError(exc))
            traced_s += time.perf_counter() - t0
            op += wl.ops(item)
        issues += mismatches(wl, items, plain, refs) + mismatches(wl, items, traced, refs)
        for item, a, b in zip(items, plain, traced):
            if a != b:
                issues.append("%s: traced replay differs from the composite" % instance_key(item["inst"]))
        a, f = tally(wl, items, traced)
        attempted, failed, plain_failed = attempted + a, failed + f, plain_failed + tally(wl, items, plain)[1]
    plain_rate = (attempted - plain_failed) / plain_s
    traced_rate = (attempted - failed) / traced_s

    spans = tracer.by_name()
    total = {name: sum(d) for name, d in spans.items()}

    def tot(name: str) -> float:
        return total.get(name, 0.0)

    def calls(name: str) -> int:
        return len(spans.get(name, ()))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    counts = tracer.counts
    op_s = tot("bench.op")
    safe_us = [d * 1e6 for d in spans.get("analysis.is_safe", ())]
    metrics = {
        "spoil.maximal_path_cover.s": (tot("spoil.maximal_path_cover"), "s"),
        "spoil.cover_steps": (counts["spoil.cover_steps"], "count"),
        "spoil.step_us": (ratio(tot("spoil.maximal_path_cover") * 1e6, counts["spoil.cover_steps"]), "us"),
        "spoil.build_spoiling_graph.s": (tot("spoil.build_spoiling_graph"), "s"),
        "core.find_perfect_matching.s": (tot("core.find_perfect_matching"), "s"),
        "core.align_with_matching.s": (tot("core.align_with_matching"), "s"),
        "certify.compute_eps.s": (tot("certify.compute_eps"), "s"),
        "certify.select.s": (tot("certify.select"), "s"),
        "io.read_graph.s": (tot("io.read_graph"), "s"),
        "io.write_certificate.s": (tot("io.write_certificate"), "s"),
        "cli.parse_args.s": (tot("cli.parse_args"), "s"),
        "adversary.worst_order_exact.calls": (calls("adversary.worst_order_exact"), "count"),
        "adversary.worst_order_exact.s": (tot("adversary.worst_order_exact"), "s"),
        "adversary.nodes": (counts["adversary.nodes"], "count"),
        "adversary.nodes_per_s": (ratio(counts["adversary.nodes"], tot("adversary.worst_order_exact")), "1/s"),
        "adversary.exact_share": (ratio(counts["adversary.exact"], calls("adversary.worst_order_exact")), "ratio"),
        "adversary.peak_bytes_per_node": (wl.peak_bytes_per_node(items, plain), "B"),
        "analysis.is_safe.calls": (calls("analysis.is_safe"), "count"),
        "analysis.is_safe.s": (tot("analysis.is_safe"), "s"),
        "analysis.is_safe.p50_us": (percentile(safe_us, 50), "us"),
        "analysis.is_safe.p99_us": (percentile(safe_us, 99), "us"),
        "analysis.is_safe.unsafe_share": (ratio(counts["analysis.is_safe.unsafe"], calls("analysis.is_safe")), "ratio"),
        "core.greedy_match.calls": (calls("core.greedy_match"), "count"),
        "core.greedy_match.s": (tot("core.greedy_match"), "s"),
        "adversary.constructive.calls": (calls("adversary.constructive"), "count"),
        "adversary.constructive.s": (tot("adversary.constructive"), "s"),
        "adversary.heuristic.s": (tot("adversary.heuristic"), "s"),
        "runtime.gc_collections": (gcm.collections, "count"),
        "runtime.gc_pause_s": (gcm.pause_s, "s"),
    }
    for layer, value in tracer.self_times().items():
        metrics["%s.self_s" % layer] = (value, "s")
    main_s = sum(tot(name) for name in MAIN_LAYER[wl.name])
    metrics.update({
        "trace.op_s": (op_s, "s"),
        "trace.ops_per_s": (traced_rate, "op/s"),
        "trace.overhead_share": (ratio(plain_rate, traced_rate) - 1.0 if traced_rate else 0.0, "ratio"),
        "trace.main_layer_share": (ratio(main_s, op_s), "ratio"),
    })
    tracer.write(job["spans"])
    return {
        "per_layer": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "untraced_ops_per_s": plain_rate,
        "attempted": attempted,
        "failed": failed,
        "failed_ops": failures(wl, items, traced),
        "mismatches": issues,
    }


def main(argv: list[str]) -> int:
    role, job_path = argv
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    out = setup(job) if role == "setup" else measure(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
