#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written as one BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH_11.json \\
        --pairs desk_default=10 ppm_long=10 --seed 1100

Each side runs from the committed files of its commit, unpacked with
`git archive` into a fresh directory. Pair i of the j-th workload runs both
sides at seed `seed + 100*j + i`; even pairs run the parent first and odd
pairs the change, so a host that drifts over the runs drifts on both
sides. Each run is `perfbench/run.py --workload W --seed S --seconds 50
--trace 0`, and the file gets one {workload, seed, side, commit, result}
entry per run, `result` being the run's last output line (its JSON object).
The file is rewritten after every run, so an interrupted driver keeps the
runs it finished.

After the runs it prints, for each workload and each end-to-end metric that
BENCHMARK.json declares, both sides' median and quartiles, the number of
pairs the change won (ties count for neither side), the change's median
minus the parent's beside the parent's quartile spread, whether the
change's median is within the metric's `bound` of the parent's, and whether
the gain rule is met. These are the terms of the acceptance rule: a claimed
gain needs the change to win at least nine pairs in ten and its median to
beat the parent's by more than the parent's quartile spread; every other
metric must stay within its bound, a fraction of the parent's median.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def unpack(commit: str, dest: Path) -> Path:
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        tar.extractall(dest)
    return dest


def bench(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "50", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):  # the run died before its result line
        return {"correct": False, "returncode": proc.returncode, "stderr": proc.stderr[-2000:]}


def quartiles(vals: list) -> list:
    """[q1, median, q3], interpolated linearly between the sorted values."""
    if len(vals) < 2:
        return vals * 3 if vals else [math.nan] * 3
    return statistics.quantiles(vals, n=4, method="inclusive")


def summarize(entries: list, end_to_end: list) -> None:
    """Per workload and metric: each side's median [q1, q3] over its correct
    runs, how many seed pairs the change won, the change in median against
    the parent's quartile spread, and the bound verdict."""
    for workload in dict.fromkeys(e["workload"] for e in entries):
        runs = {(e["seed"], e["side"]): e["result"] for e in entries
                if e["workload"] == workload and e["result"].get("correct")}
        seeds = sorted({seed for seed, _ in runs})
        for spec in end_to_end:
            name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
            value = {key: r["metrics"][name]["value"] for key, r in runs.items()}
            cols, q = [], {}
            for side in ("parent", "change"):
                vals = [v for (_, s), v in value.items() if s == side]
                q1, q2, q3 = q[side] = quartiles(vals)
                cols.append(f"{side} {q2:.4g} [{q1:.4g}, {q3:.4g}] of {len(vals)} runs")
            pairs = [seed for seed in seeds if (seed, "parent") in value and (seed, "change") in value]
            won = sum(sign * (value[seed, "change"] - value[seed, "parent"]) > 0 for seed in pairs)
            delta, spread = q["change"][1] - q["parent"][1], q["parent"][2] - q["parent"][0]
            within = sign * delta >= -spec["bound"] * abs(q["parent"][1])
            gain = bool(pairs) and 10 * won >= 9 * len(pairs) and sign * delta > spread
            print(f"{workload} {name} ({spec['unit']}, {spec['better']} is better): {'; '.join(cols)}; "
                  f"change won {won} of {len(pairs)} pairs; median moved {delta:+.4g} against a parent "
                  f"quartile spread of {spread:.4g}; {'within' if within else 'beyond'} the "
                  f"{spec['bound']:.0%} bound; gain rule {'met' if gain else 'not met'}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", default="HEAD~1")
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--pairs", nargs="+", default=["desk_default=10", "ppm_long=10"], help="WORKLOAD=PAIRS")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    end_to_end = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["end_to_end"]
    commits = {side: git("rev-parse", f"{rev}^{{commit}}").decode().strip()
               for side, rev in (("parent", args.parent), ("change", args.change))}
    entries = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: unpack(c, Path(tmp) / side) for side, c in commits.items()}
        for j, spec in enumerate(args.pairs):
            workload, n = spec.split("=")
            for i in range(int(n)):
                seed = args.seed + 100 * j + i
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    result = bench(trees[side], workload, seed)
                    entries.append({"workload": workload, "seed": seed, "side": side,
                                    "commit": commits[side], "result": result})
                    args.out.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
                    fps = result.get("metrics", {}).get("fps", {}).get("value")
                    print(f"{workload} seed {seed} {side}: correct={result['correct']} fps={fps}", file=sys.stderr)
    summarize(entries, end_to_end)
    return 0 if all(e["result"]["correct"] for e in entries) else 1


if __name__ == "__main__":
    sys.exit(main())
