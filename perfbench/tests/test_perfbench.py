"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def ppm_bytes(workdir: Path) -> bytes:
    return b"".join(f.read_bytes() for f in sorted((workdir / "frames").glob("*.ppm")))


class TestInputs:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_same_seed_same_inputs(self, workload, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = workloads.make_config(workload, 7, tmp_path / "a", smoke=True)
        b = workloads.make_config(workload, 7, tmp_path / "b", smoke=True)
        a["source"].pop("path", None)
        b["source"].pop("path", None)
        assert a == b
        assert ppm_bytes(tmp_path / "a") == ppm_bytes(tmp_path / "b")

    def test_seed_changes_inputs(self, tmp_path):
        for seed in (1, 2):
            (tmp_path / str(seed)).mkdir()
            workloads.make_config("ppm_long", seed, tmp_path / str(seed), smoke=True)
        assert ppm_bytes(tmp_path / "1") != ppm_bytes(tmp_path / "2")
        desk = [workloads.make_config("desk_default", s, tmp_path / "1")["source"] for s in (1, 2)]
        assert desk[0] != desk[1]

    def test_seed_zero_is_the_shipped_default(self, tmp_path):
        cfg = workloads.make_config("desk_default", 0, tmp_path)
        assert cfg["source"]["anomaly"] == {"start": 200, "end": 264, "strength": 120}
        assert (cfg["source"]["frames"], cfg["snippet_count"], cfg["fuse"], cfg["memplan"]) == (512, 32, True, True)

    def test_ppm_long_uses_a_quarter_of_its_frames(self):
        starts = workloads.snippet_starts(workloads.PPM_FRAMES, workloads.SNIPPETS, workloads.FRAMES_PER_SNIPPET)
        used = {s + j for s in starts for j in range(workloads.FRAMES_PER_SNIPPET)}
        assert len(used) / workloads.PPM_FRAMES == 0.25


class TestChecks:
    STARTS = [0, 16]

    def test_good_records_pass(self):
        assert run.check_records([[0, 0, 0.5], [1, 16, 0.25]], self.STARTS, ([0.5, 0.25], 1e-5)) == []

    @pytest.mark.parametrize("rows", [
        [[1, 16, 0.5], [0, 0, 0.5]],          # out of order
        [[0, 0, 0.5]],                         # a snippet missing
        [[0, 0, 0.5], [1, 15, 0.5]],          # wrong start frame
        [[0, 0, math.nan], [1, 16, 0.5]],     # not finite
        [[0, 0, 1.5], [1, 16, 0.5]],          # outside [0,1]
    ])
    def test_bad_records_fail(self, rows):
        assert run.check_records(rows, self.STARTS, None)

    def test_reference_mismatch_fails(self):
        assert run.check_records([[0, 0, 0.5], [1, 16, 0.25]], self.STARTS, ([0.5, 0.2501], 1e-5))

    def test_reference_covers_every_workload(self):
        ref = json.loads(run.REFERENCE.read_text())
        assert set(ref["scores"]) == set(workloads.WORKLOADS)
        assert all(len(s) == workloads.SNIPPETS for s in ref["scores"].values())


class TestSpec:
    def test_keys_and_limits(self):
        assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        assert [w["name"] for w in SPEC["workloads"]] == ["desk_default", "ppm_long"]
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
        names += [w["name"] for w in SPEC["workloads"]]
        assert len(names) == len(set(names))
        assert all(NAME.match(n) for n in names)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
        assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        assert (setup["unit"], setup["better"]) == ("s", "lower")
        assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


class TestSmokeRun:
    @pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
    def test_prints_the_declared_metrics_and_passes_its_checks(self, trace, key):
        p = bench("--workload", "desk_baseline", "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
        assert p.returncode == 0, p.stderr
        out = json.loads(p.stdout.strip().splitlines()[-1])
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
        assert all(math.isfinite(v["value"]) for v in out["metrics"].values())

    def test_ppm_smoke_trace_writes_spans_for_every_layer(self):
        p = bench("--workload", "ppm_long", "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke")
        assert p.returncode == 0, p.stderr
        events = json.loads((run.WORK / "trace-ppm_long-seed5.json").read_text())["traceEvents"]
        cats = {e["cat"] for e in events}
        assert {"sources", "videopre", "graphopt", "tensor", "rtfm", "pipeline"} <= cats
        nodes = {e["name"] for e in events if e["cat"] == "tensor"}
        assert nodes == {"tensor.stem", "tensor.s0b0", "tensor.s1b0", "tensor.nl_s1b0", "tensor.proj", "tensor.gap"}

    def test_fails_without_the_program(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        p = bench("--workload", "desk_default", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
        assert p.returncode != 0
        assert p.stdout == ""
