#!/usr/bin/env python3
"""The edgevad benchmark: one workload, one run, checked outputs, named metrics.

    python3 perfbench/run.py --workload desk_default --seed 0 --seconds 50 --trace 0

Run it from the root of a checkout; it imports the program from `src/`.
It writes the workload's inputs from the seed into `.perfbench/`, runs each
step of the workload in a fresh worker process (see worker.py), checks every
video's records, and prints one line per metric followed by a JSON object as the last
line. `--trace 0` times the pipeline and reports the end-to-end metrics of
BENCHMARK.json; `--trace 1` makes the traced run, reports the per-layer
metrics and leaves the spans in `.perfbench/trace-<workload>-seed<n>.json`.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
RUN_TIMEOUT_S = 170  # a run ends within 180 s, or fails


class BenchError(RuntimeError):
    pass


def run_worker(deadline: float, *args) -> dict:
    """Run worker.py with `args` in a fresh process; return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} did not finish within the run's {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def timed_run(deadline: float, config: Path, seconds: int) -> dict:
    """Start-up timings, then one video per fresh worker, closed-loop: at least
    one video, and another only while the last one's duration still fits."""
    raw = run_worker(deadline, "setup", config)
    raw["videos"] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        raw["videos"].append(run_worker(deadline, "video", config))
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            return raw


def check_records(rows, starts, reference) -> list:
    """Problems with one video's records: [snippet_index, start_frame, score] rows."""
    if [r[0] for r in rows] != list(range(len(starts))):
        return [f"expected snippets 0..{len(starts) - 1} in order, got {[r[0] for r in rows]}"]
    problems = []
    if [r[1] for r in rows] != starts:
        problems.append("start frames differ from the snippet plan")
    bad = [r[2] for r in rows if not (math.isfinite(r[2]) and 0.0 <= r[2] <= 1.0)]
    if bad:
        problems.append(f"scores outside [0,1] or not finite: {bad[:4]}")
    elif reference is not None:
        want, tol = reference
        diff = max(abs(r[2] - w) for r, w in zip(rows, want))
        if len(want) != len(rows) or diff > tol:
            problems.append(f"scores differ from the stored reference by {diff:.3g} (tolerance {tol})")
    return problems


def load_reference(workload: str, seed: int, smoke: bool):
    if smoke:
        return None
    ref = json.loads(REFERENCE.read_text())
    if seed != ref["seed"]:
        return None
    return ref["scores"][workload], ref["abs_tol"]


def judge_timed(raw: dict, starts, reference) -> tuple:
    """(videos failed, metric values) of a timed run."""
    ok, failed = [], 0
    for n, v in enumerate(raw["videos"]):
        problems = [v["error"]] if "error" in v else check_records(v["records"], starts, reference)
        for p in problems:
            print(f"video {n}: {p}", file=sys.stderr)
        failed += bool(problems)
        if not problems:
            ok.append(v)
    processed = len(starts) * workloads.FRAMES_PER_SNIPPET
    values = {
        "fps": statistics.median(processed / v["wall_s"] for v in ok) if ok else 0.0,
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mib": statistics.median(v["peak_rss_mib"] for v in ok) if ok else 0.0,
        "cpu_ms_per_clip": statistics.median(v["cpu_s"] * 1e3 / len(starts) for v in ok) if ok else 0.0,
    }
    return failed, values


def judge_traced(raw: dict, starts, reference) -> tuple:
    """(videos failed, metric values) of a traced run."""
    videos = raw["videos"]
    problems = {name: check_records(rows, starts, reference) for name, rows in videos.items()}
    if videos["run_pipeline"] != videos["run_sequential"]:
        problems["run_pipeline"].append("records differ from run_sequential")
    if videos["traced"] != videos["run_sequential"]:
        problems["traced"].append("traced composition differs from run_sequential")
    problems["traced"] += [f"{k} is false" for k, same in raw["exact"].items() if not same]
    for name, ps in problems.items():
        for p in ps:
            print(f"{name}: {p}", file=sys.stderr)
    return sum(bool(ps) for ps in problems.values()), raw["metrics"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="two-snippet videos, for the benchmark's own tests")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # a terminated run still stops its worker (run_worker's finally kills it)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "edgevad" / "pipeline.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'edgevad'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    WORK.mkdir(exist_ok=True)
    trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json" if args.trace else None
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        cfg = workloads.make_config(args.workload, args.seed, workdir, smoke=args.smoke)
        config = workdir / "config.json"
        if args.trace:
            raw = run_worker(deadline, "trace", config, trace_file)
        else:
            raw = timed_run(deadline, config, args.seconds)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    starts = workloads.snippet_starts(
        workloads.source_frames(args.workload, args.smoke), cfg["snippet_count"], cfg["frames_per_snippet"]
    )
    reference = load_reference(args.workload, args.seed, args.smoke)
    if args.trace:
        failed, values = judge_traced(raw, starts, reference)
    else:
        failed, values = judge_timed(raw, starts, reference)
    attempted = len(raw["videos"])
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        print(f"perfbench: measured metrics {sorted(set(values) ^ set(names))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 2

    for m in declared:
        print(f"{m['name']:<36} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"{'failed_ratio':<36} {failed / attempted:>14.6g} ratio ({failed} of {attempted} videos failed)")
    if trace_file is not None:
        print(f"trace: {raw['spans']} spans in {trace_file.relative_to(ROOT)}")
    else:
        print(f"medians over {attempted - failed} video(s), each in a fresh process; "
              f"setup_s over {len(raw['setup_s'])} start-ups")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
