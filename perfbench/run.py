"""Benchmark for greedyorder: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify_large --seed 1 --seconds 25 --trace 0

Workloads: certify_large, attack_exact, safety_census, montecarlo (see
``workloads.py``).  Each run is single-threaded and a closed loop: one
operation at a time, the next starting when the previous returns.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median time to
generate the inputs and write the graph files, over repetitions in fresh
processes before and after the timed passes), ``ops_per_s`` (operations
completed correctly per second, where each input's call is repeated for
the run's seconds and its fastest time counts; see ``worker.py``),
``peak_rss_mb`` (peak resident memory of the measuring process, which
never generated anything) and ``ok_share`` (operations completed over
operations attempted; ``fail_share`` is printed beside it).  ``--trace 1`` replays each
operation stage by stage under a tracer and prints the per-layer metrics.
``--smoke`` runs the same workloads at tiny sizes.

Every output is checked against ``references.json`` and by independent
replays; the last line of standard output is one JSON object, and the run
exits 1 on any mismatch.  The full record, with the machine and provenance,
goes to ``perfbench/_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "_results")
# A run must finish within 180 s; this leaves time to report.
DEADLINE_S = 170.0
# On a shared machine set-up time swings by half from one moment to the
# next, so set-up runs in fresh processes both before and after the timed
# passes, each repeating it, and the median over all repetitions counts.
SETUP_PROCS_BEFORE = SETUP_PROCS_AFTER = 1
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "op/s", "peak_rss_mb": "MB", "ok_share": "ratio"}


class BenchError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def child(role: str, job: dict, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return what it wrote."""
    job = dict(job, result=os.path.join(job["workdir"], role + ".out.json"))
    job_path = os.path.join(job["workdir"], role + ".job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), role, job_path]
    try:
        # Worker output goes to stderr so that stdout ends with the result line.
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError("%s timed out" % role) from exc
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (role, proc.returncode))
    with open(job["result"], encoding="utf-8") as fh:
        return json.load(fh)


def provenance(args, variant: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "greedyorder")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "inputs_variant": variant,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "greedyorder", "__init__.py")):
        print("perfbench: no greedyorder sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, variant_of

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    tag = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace, "-smoke" if args.smoke else "")
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(HERE, "_work", "%s-%d" % (tag, os.getpid()))
    os.makedirs(workdir)
    job = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "trace": args.trace,
        "workdir": workdir,
        "spans": os.path.join(RESULTS, "spans-%s.json.gz" % tag),
    }
    try:
        builds = [child("setup", job, deadline) for _ in range(SETUP_PROCS_BEFORE)]
        measured = child("measure", job, deadline)
        builds += [child("setup", job, deadline) for _ in range(SETUP_PROCS_AFTER)]
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    built = {
        "setup_s": statistics.median(t for b in builds for t in b["setup_reps_s"]),
        "families_generate_s": statistics.median(b["families_generate_s"] for b in builds),
        "processes": builds,
    }
    attempted, failed = measured["attempted"], measured["failed"]
    if args.trace:
        metrics = dict(measured["per_layer"])
        metrics["families.generate.s"] = {"value": built["families_generate_s"], "unit": "s"}
    else:
        values = {
            "setup_s": built["setup_s"],
            "ops_per_s": measured["ops_per_s"],
            "peak_rss_mb": measured["peak_rss_mb"],
            "ok_share": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    correct = not measured["mismatches"]
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    prov = provenance(args, variant_of(args.seed))
    record = dict(result, provenance=prov, setup=built,
                  **{k: v for k, v in measured.items() if k != "per_layer"})
    with open(os.path.join(RESULTS, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("perfbench %s  seed %d (inputs variant %d)  trace %d%s"
          % (args.workload, args.seed, prov["inputs_variant"], args.trace, "  smoke" if args.smoke else ""))
    for name, m in metrics.items():
        print("  %-36s %16.6f %s" % (name, m["value"], m["unit"]))
    print("  %-36s %16.6f %s  (%d of %d ops failed)"
          % ("fail_share", failed / attempted, "ratio", failed, attempted))
    if args.trace:
        share = metrics["trace.main_layer_share"]["value"]
        print("  layer map: main layer takes %.1f%% of op time (%s 90%%)"
              % (100 * share, ">=" if share >= 0.9 else "below"))
    for line in measured["failed_ops"]:
        print("  failed op: %s" % line)
    for line in measured["mismatches"]:
        print("  MISMATCH: %s" % line)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
