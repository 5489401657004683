"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/baseline.py --seeds 1-10 [--workload NAME ...] [--trace 1] [-o FILE]

For every workload and end-to-end metric this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median; the bound in
BENCHMARK.json should be at least three times the spread.  With ``-o`` the
summary, the machine and every run's result are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (%d):\n%s%s" % (workload, seed, proc.returncode,
                                                           proc.stdout[-2000:], proc.stderr[-2000:]))
    prov = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("provenance "))
    return json.loads(lines[-1]), prov


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("-o", "--output")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"seeds": args.seeds, "run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            result, prov = run_once(name, seed, spec["run_seconds"], args.trace)
            runs.append(result)
            print("%s seed %d: %s" % (name, seed, json.dumps(
                {k: round(v["value"], 6) for k, v in result["metrics"].items()
                 if k in bounds or args.trace})), file=sys.stderr)
        metrics = {}
        for metric in runs[0]["metrics"]:
            metrics[metric] = summarize([r["metrics"][metric]["value"] for r in runs])
            metrics[metric]["unit"] = runs[0]["metrics"][metric]["unit"]
        doc["workloads"][name] = {"metrics": metrics, "runs": runs}
        doc["machine"] = {k: prov[k] for k in ("nproc", "cpu_model", "python", "platform", "git_commit")}
        for metric, s in metrics.items():
            bound = bounds.get(metric)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print("%-14s %-34s median %14.6f  spread %.4f%s"
                  % (name, metric, s["median"], s["spread"], flag))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
