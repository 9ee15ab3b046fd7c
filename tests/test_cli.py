"""CLI tests: exit codes, JSONL output, config round-trip, subcommand flows."""

import json
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from edgevad import pipeline, sources
from edgevad.bench import count_params_flops
from edgevad.cli import main
from edgevad.graphopt import GraphRunner, plan_memory
from edgevad.videopre import segment_snippets

from helpers import FailingHalfRunner, write_file_source

TINY_PROFILE = {
    "name": "tiny-nl",
    "stem_channels": 4,
    "stem_kernel": [1, 5, 5],
    "stem_stride": [1, 8, 8],
    "stem_pad": [0, 2, 2],
    "stage_widths": [8],
    "stage_blocks": [1],
    "stage_strides": [[1, 2]],
    "inflate": [[0]],
    "nonlocal_blocks": [[0]],
    "output_dim": 8,
    "crops": 10,
    "in_channels": 3,
    "frames": 4,
    "spatial": 224,
}


@pytest.fixture
def tiny_config(tmp_path):
    cfg = {
        "source": {
            "kind": "synthetic", "pattern": "moving_square", "frames": 24,
            "width": 48, "height": 40, "seed": 1,
            "anomaly": {"start": 12, "end": 18, "strength": 110},
        },
        "snippet_count": 3,
        "frames_per_snippet": 4,
        "extractor_profile": TINY_PROFILE,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def read_jsonl(path):
    return [json.loads(l) for l in path.read_text().splitlines() if l.strip()]


class TestRun:
    def test_run_emits_one_record_per_snippet(self, tiny_config, tmp_path):
        out = tmp_path / "records.jsonl"
        summary = tmp_path / "summary.json"
        code = main(["run", "--config", str(tiny_config), "--out", str(out), "--summary", str(summary)])
        assert code == 0
        records = read_jsonl(out)
        assert [r["snippet_index"] for r in records] == [0, 1, 2]
        doc = json.loads(summary.read_text())
        assert doc["snippets"] == 3 and doc["config"]["snippet_count"] == 3

    def test_config_round_trip_reproduces_scores(self, tiny_config, tmp_path):
        out1, summary = tmp_path / "r1.jsonl", tmp_path / "s.json"
        main(["run", "--config", str(tiny_config), "--out", str(out1), "--summary", str(summary)])
        echoed = json.loads(summary.read_text())["config"]
        cfg2 = tmp_path / "cfg2.json"
        cfg2.write_text(json.dumps(echoed))
        out2 = tmp_path / "r2.jsonl"
        assert main(["run", "--config", str(cfg2), "--out", str(out2)]) == 0
        assert [r["score"] for r in read_jsonl(out1)] == [r["score"] for r in read_jsonl(out2)]

    def test_set_override_applies(self, tiny_config, tmp_path):
        summary = tmp_path / "summary.json"
        code = main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "r.jsonl"),
                     "--summary", str(summary), "--set", "threshold=0.25"])
        assert code == 0
        assert json.loads(summary.read_text())["threshold"] == 0.25

    def test_unknown_config_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"snipet_count": 3}))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "r.jsonl")]) == 2

    def test_unreadable_source_exits_2(self, tiny_config, tmp_path):
        code = main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "r.jsonl"),
                     "--set", 'source={"kind":"ppm_dir","path":"/nonexistent"}'])
        assert code == 2

    def test_midstream_error_exits_3(self, tiny_config, tmp_path, monkeypatch, capsys):
        def truncated(video, snips, i, *args, **kw):
            raise OSError(f"truncated frame in snippet {i}")

        monkeypatch.setattr(pipeline, "prepare_clip", truncated)
        code = main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "r.jsonl")])
        assert code == 3
        assert "runtime error: stage 'preprocess' failed: snippet 0" in capsys.readouterr().err

    def test_extract_thread_failure_exits_3(self, tiny_config, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(pipeline, "GraphRunner", FailingHalfRunner)
        code = main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "r.jsonl")])
        assert code == 3
        assert "runtime error: stage 'extract' failed: snippet 2: NaN in the extract thread's half" \
            in capsys.readouterr().err

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_set_source_key_keeps_default_source(self, tmp_path):
        # a dotted --set changes one key of the default source, not all of it
        summary = tmp_path / "summary.json"
        code = main(["run", "--out", str(tmp_path / "r.jsonl"), "--summary", str(summary),
                     "--set", "source.frames=64", "--set", f"extractor_profile={json.dumps(TINY_PROFILE)}",
                     "--set", "snippet_count=3", "--set", "frames_per_snippet=4"])
        assert code == 0
        assert json.loads(summary.read_text())["frames"] == 64


def noise_source(kind, tmp_path) -> dict:
    """24 noise frames of 48x40 as a `kind` file source; its source spec."""
    video = sources.synthesize({"pattern": "noise", "frames": 24, "width": 48, "height": 40, "seed": 1})
    return write_file_source(kind, video, tmp_path)


class TestFileSourceErrors:
    """A file source's headers and sizes are checked at load, which exits 2;
    its pixels are read by the preprocess workers, and a read that fails
    there exits 3."""

    @pytest.mark.parametrize("kind, damage", [("ppm_dir", "truncate"), ("ppm_dir", "delete"), ("raw_rgb24", "truncate")])
    def test_frame_lost_after_load_exits_3(self, tiny_config, tmp_path, monkeypatch, capsys, kind, damage):
        spec, load, lost = noise_source(kind, tmp_path), pipeline.load_video_source, []

        def load_then_damage(spec):
            video = load(spec)
            # a frame of snippet 1 (frames 10-13 of 24), so snippet 0 is extracted first
            path, offset = video.frames._files[segment_snippets(video, 3, 4).start_indices[1] + 2]
            if damage == "delete":
                path.unlink()
            else:
                os.truncate(path, offset + 10)
            lost.append(path)
            return video

        monkeypatch.setattr(pipeline, "load_video_source", load_then_damage)
        code = main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "r.jsonl"),
                     "--set", f"source={json.dumps(spec)}"])
        err = capsys.readouterr().err
        assert code == 3, err
        assert "runtime error: stage 'preprocess' failed: snippet 1: " in err and lost[0].name in err
        assert not [t.name for t in threading.enumerate() if t.name.startswith(("preprocess", "extract"))]

    @pytest.mark.parametrize("damage, phrase", [
        (lambda b: b"P5" + b[2:], "frame_000012.ppm: not a P6 PPM (magic b'P5' at byte offset 0)"),
        (lambda b: b.replace(b"48 40", b"48 4O", 1), "frame_000012.ppm: malformed PPM header at byte offset 6"),
        (lambda b: b"P6\n2 2\n255\n" + b"\x00" * 12, "frame frame_000012.ppm: dimensions (2, 2) != first frame (40, 48)"),
        (lambda b: b[:-10], "frame_000012.ppm: truncated pixel data at byte offset 5763: expected 5773 bytes"),
    ], ids=["magic", "header", "dimensions", "truncated"])
    def test_bad_ppm_exits_2_at_load(self, tiny_config, tmp_path, capsys, damage, phrase):
        spec = noise_source("ppm_dir", tmp_path)
        frame = tmp_path / "frames" / "frame_000012.ppm"
        frame.write_bytes(damage(frame.read_bytes()))
        code = main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "r.jsonl"),
                     "--set", f"source={json.dumps(spec)}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: " in err and phrase in err, err

    def test_short_raw_file_exits_2_at_load(self, tiny_config, tmp_path, capsys):
        spec = noise_source("raw_rgb24", tmp_path)
        os.truncate(spec["path"], 24 * 40 * 48 * 3 - 1)
        code = main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "r.jsonl"),
                     "--set", f"source={json.dumps(spec)}"])
        assert code == 2
        assert "raw size mismatch at byte offset 138239" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, width, height, nbytes", [
        ("raw_rgb24", 0, 40, 0), ("raw_rgb24", -1, -1, 3), ("synthetic", 0, 40, None),
    ], ids=["raw-zero-width", "raw-negative-size", "synthetic-zero-width"])
    def test_frames_without_pixels_exit_2_at_load(self, tiny_config, tmp_path, capsys, kind, width, height, nbytes):
        if kind == "raw_rgb24":
            spec = {"kind": kind, "path": str(tmp_path / "v.rgb")}
            (tmp_path / "v.rgb").write_bytes(b"\x00" * nbytes)
            (tmp_path / "v.json").write_text(json.dumps({"width": width, "height": height, "frame_count": 1}))
        else:
            spec = {"kind": kind, "pattern": "noise", "frames": 24, "width": width, "height": height}
        code = main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "r.jsonl"),
                     "--set", f"source={json.dumps(spec)}"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"config error: frames of {height}x{width} hold no pixels" in err, err


class TestEval:
    def _records(self, tmp_path, scores):
        path = tmp_path / "records.jsonl"
        lines = [
            json.dumps({"snippet_index": i, "start_frame": i * 4, "score": s,
                        "alert": s > 0.7, "latencies_ms": {}, "timestamp": 0.0})
            for i, s in enumerate(scores)
        ]
        path.write_text("\n".join(lines))
        return path

    def test_eval_auc_and_verdict(self, tmp_path):
        records = self._records(tmp_path, [0.1, 0.2, 0.9, 0.8])
        labels = tmp_path / "labels.csv"
        labels.write_text("snippet_index,label\n0,0\n1,0\n2,1\n3,1\n")
        out = tmp_path / "metrics.json"
        assert main(["eval", "--records", str(records), "--labels", str(labels), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["auc"] == 1.0 and doc["detected"] is True

    def test_single_class_labels_exit_2(self, tmp_path):
        records = self._records(tmp_path, [0.1, 0.2])
        labels = tmp_path / "labels.csv"
        labels.write_text("0,1\n1,1\n")
        assert main(["eval", "--records", str(records), "--labels", str(labels)]) == 2

    def test_label_other_than_0_or_1_exits_2(self, tmp_path, capsys):
        # a 7 is neither class; it must not count as a negative
        records = self._records(tmp_path, [0.1, 0.9])
        labels = tmp_path / "labels.csv"
        labels.write_text("0,7\n1,1\n")
        assert main(["eval", "--records", str(records), "--labels", str(labels)]) == 2
        assert "snippet 0's label must be 0 or 1, got 7" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, -1])
    def test_run_n_below_1_exits_2(self, tmp_path, capsys, n):
        # a run of n < 1 alerts is found in any video, so it would detect one with no alert
        records = self._records(tmp_path, [0.1, 0.2])
        labels = tmp_path / "labels.csv"
        labels.write_text("0,0\n1,1\n")
        assert main(["eval", "--records", str(records), "--labels", str(labels),
                     "--rule", "run-n", "--run-n", str(n)]) == 2
        captured = capsys.readouterr()
        assert f"config error: run-n needs n >= 1, got {n}" in captured.err and not captured.out


class TestTrain:
    def test_train_writes_params_and_curve(self, tmp_path):
        out = tmp_path / "params"
        curve = tmp_path / "loss.csv"
        metrics = tmp_path / "train.json"
        code = main([
            "train", "--set", "epochs=3", "--out", str(out), "--curve", str(curve),
            "--metrics", str(metrics), "--seed", "1",
            "--set", "n_normal=4", "--set", "n_abnormal=4", "--set", "snippets=8",
            "--set", "dim=8", "--set", "batch_size=4",
        ])
        assert code == 0
        assert (tmp_path / "params.bin").exists() and (tmp_path / "params.json").exists()
        assert curve.read_text().startswith("epoch,loss")
        doc = json.loads(metrics.read_text())
        assert 0.0 <= doc["auc"] <= 1.0 and doc["epochs"] == 3

    def test_trained_params_load_into_pipeline(self, tmp_path, tiny_config):
        out = tmp_path / "params"
        main([
            "train", "--set", "epochs=2", "--out", str(out), "--seed", "2",
            "--set", "n_normal=4", "--set", "n_abnormal=4", "--set", "snippets=8",
            "--set", "dim=8", "--set", "batch_size=4",
        ])
        code = main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "r.jsonl"),
                     "--set", f'head_params={json.dumps(str(out))}'])
        assert code == 0


class TestConfigErrorsExit2:
    """Every subcommand reports a config error on stderr and exits 2."""

    @pytest.mark.parametrize("flags", [
        ["--set", "source.kind=ppm_dir", "--set", "source.path=/nonexistent"],
        ["--repeats", "0"],
    ])
    def test_bench(self, tiny_config, tmp_path, capsys, flags):
        assert main(["bench", "--config", str(tiny_config), "--out", str(tmp_path / "b.json"), *flags]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["epochs=0", "k=100", "anomaly_rows=9"])
    def test_train(self, capsys, setting):
        code = main(["train", "--set", "epochs=1", "--set", "n_normal=4", "--set", "n_abnormal=4",
                     "--set", "snippets=8", "--set", "dim=8", "--set", setting])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ['stage_workers="x"', "stage_workers=true", "fuse=1",
                                         'threshold="0.5"', "source=[1]", "head_params=3"])
    def test_run_value_of_wrong_type_names_key(self, tiny_config, tmp_path, capsys, setting):
        code = main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "r.jsonl"), "--set", setting])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and setting.split("=")[0] in err

    @pytest.mark.parametrize("command", ["run", "bench", "optimize"])
    @pytest.mark.parametrize("setting, phrase", [
        ("extractor_profile.stem_stride=[0,8,8]", "node stem: conv3d stride"),
        ("extractor_profile.stem_pad=[-1,2,2]", "node stem: conv3d pad"),
        ("extractor_profile.bogus=1", "extractor_profile: "),
        ("extractor_profile.stem_stride=2", "extractor_profile.stem_stride must be tuple, got int 2"),
        ('extractor_profile.stem_channels="x"', "extractor_profile.stem_channels must be int, got str"),
        ("extractor_profile.stage_widths=[0]", "config tiny-nl: stage_widths must be ints >= 1"),
        ("extractor_profile.stem_pool=[[1,2,2]]", "config tiny-nl: stem_pool must be None or two 3-int tuples"),
        ("extractor_profile.stem_pool=[[1,2,2],[1,0,2]]", "config tiny-nl: stem_pool must be None or two 3-int"),
        ('extractor_profile.inflate=[["a"]]', "config tiny-nl: stage 0 inflate entries must be 0 or 1"),
        ("extractor_profile.inflate=[[2]]", "config tiny-nl: stage 0 inflate entries must be 0 or 1"),
    ])
    def test_bad_extractor_profile(self, tiny_config, tmp_path, capsys, command, setting, phrase):
        # field types are checked first, then sizes, then each node with its kernel's shape rule
        code = main([command, "--config", str(tiny_config), "--out", str(tmp_path / "out"), "--set", setting])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: {phrase}" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "optimize"])
    def test_snippet_length_differs_from_profile(self, tiny_config, tmp_path, capsys, command):
        # the tiny profile's graph takes 4-frame clips
        code = main([command, "--config", str(tiny_config), "--out", str(tmp_path / "out"),
                     "--set", "frames_per_snippet=8"])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: frames_per_snippet=8 differs from frames=4" in err

    def test_optimize_unreadable_source(self, tiny_config, capsys):
        # optimize reads the source for the size of the clips the graph takes
        code = main(["optimize", "--config", str(tiny_config),
                     "--set", 'source={"kind":"ppm_dir","path":"/nonexistent"}'])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_train_too_few_snippets_names_anomaly_rows(self, capsys):
        # the default anomaly_rows (8) does not fit in 2 snippets
        assert main(["train", "--set", "epochs=1", "--set", "snippets=2"]) == 2
        assert "anomaly_rows" in capsys.readouterr().err


# `edgevad count` output, pinned: how a graph is built may change, its counts may not
COUNT_OUTPUT = {
    "desk": (
        "profile: desk (FLOPs = 2 x multiply-accumulates, single clip [1,3,16,224,224]; head over 32 snippets)\n"
        "component            params       flops/clip   published reference (informational)\n"
        "extractor             8,072      138,686,464   34.582M / 38.272G\n"
        "head                  3,657          246,272   24.719M / 3.461G\n"
        "total                11,729      138,932,736   59.301M / 41.733G\n"
        "per video (10 crops x 32 snippets): 44,458,475,520 flops\n"
    ),
    "full": (
        "profile: full (FLOPs = 2 x multiply-accumulates, single clip [1,3,16,224,224]; head over 32 snippets)\n"
        "component            params       flops/clip   published reference (informational)\n"
        "extractor        37,650,304   71,316,553,728   34.582M / 38.272G\n"
        "head             24,711,425    1,582,309,376   24.719M / 3.461G\n"
        "total            62,361,729   72,898,863,104   59.301M / 41.733G\n"
        "per video (10 crops x 32 snippets): 23,327,636,193,280 flops\n"
    ),
}


class TestOptimizeAndCount:
    def test_optimize_dumps_graph_and_plan(self, tiny_config, tmp_path):
        graph_path = tmp_path / "graph.json"
        plan_path = tmp_path / "plan.txt"
        code = main(["optimize", "--config", str(tiny_config), "--out", str(graph_path),
                     "--plan-out", str(plan_path)])
        assert code == 0
        doc = json.loads(graph_path.read_text())
        assert {"nodes", "inputs", "outputs", "meta", "param_manifest"} <= set(doc)
        assert "peak" in plan_path.read_text()

    def test_optimize_reports_the_graph_the_pipeline_runs(self, tiny_config, capsys, monkeypatch):
        # optimize reports the whole graph; the pipeline runs its crop halves
        wholes, runs = [], []
        real_select = pipeline.select_crops

        def select_spy(graph, crops):
            wholes.append(graph)
            return real_select(graph, crops)

        class PlanSpy(GraphRunner):
            def __init__(self, graph, plan=None):
                runs.append((graph, plan))
                super().__init__(graph, plan)

        assert main(["optimize", "--config", str(tiny_config)]) == 0
        out = capsys.readouterr().out
        monkeypatch.setattr(pipeline, "select_crops", select_spy)
        monkeypatch.setattr(pipeline, "GraphRunner", PlanSpy)
        assert main(["run", "--config", str(tiny_config), "--out", "-"]) == 0
        graph, other = wholes
        assert other is graph
        plan = plan_memory(graph)
        assert f"-> {len(graph.nodes)} (fuse=on" in out
        assert f"| peak {plan.peak_bytes:,} | arena {plan.arena_bytes:,}" in out
        assert [g.to_json() for g, _ in runs] == [real_select(graph, c).to_json() for c in pipeline.CROP_HALVES]
        assert [p.arena_bytes for _, p in runs] == [plan_memory(g).arena_bytes for g, _ in runs]

    def test_optimize_default_config(self, capsys):
        # the desk graph on the default 64x64 source's [3,16,256,256] clips
        assert main(["optimize"]) == 0
        out = capsys.readouterr().out
        assert "nodes: 15 -> 6 (fuse=on, fp16=off)" in out
        assert "planned bytes: naive 149,067,728 | peak 16,572,176 | arena 4,176,064" in out

    def test_count_prints_published_references(self, capsys):
        assert main(["count", "--profile", "desk"]) == 0
        out = capsys.readouterr().out
        assert "59.301M" in out and "41.733G" in out and "34.582M" in out

    @pytest.mark.parametrize("profile", ["desk", "full"])
    def test_count_output_pinned(self, capsys, profile):
        assert main(["count", "--profile", profile]) == 0
        assert capsys.readouterr().out == COUNT_OUTPUT[profile]

    def test_bench_deterministic_accounting(self, tiny_config, tmp_path, capsys):
        args = ["bench", "--config", str(tiny_config), "--repeats", "1",
                "--out", str(tmp_path / "bench.json")]
        assert main(args) == 0
        doc1 = json.loads((tmp_path / "bench.json").read_text())
        assert main(args) == 0
        doc2 = json.loads((tmp_path / "bench.json").read_text())
        for key in ("params", "flops", "fingerprint"):
            assert doc1["optimized"][key] == doc2["optimized"][key]
        assert doc1["optimized"]["fingerprint"] == doc1["baseline"]["fingerprint"]
        # counted and fingerprinted: the unoptimized graph run_pipeline builds
        cfg = pipeline.PipelineConfig(**json.loads(tiny_config.read_text()))
        _, graph, *_ = pipeline._startup(replace(cfg, fuse=False, fp16=False, memplan=False))
        assert doc1["baseline"]["fingerprint"].startswith(graph.fingerprint())
        assert (doc1["baseline"]["params"], doc1["baseline"]["flops"]) == count_params_flops(graph)
        out = capsys.readouterr().out
        assert "informational" in out
