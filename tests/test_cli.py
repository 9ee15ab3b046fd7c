"""CLI tests: exit codes, JSONL output, config round-trip, subcommand flows."""

import json
from dataclasses import replace

import numpy as np
import pytest

from edgevad import pipeline
from edgevad.bench import count_params_flops
from edgevad.cli import main
from edgevad.graphopt import GraphRunner

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
        plans = []

        class PlanSpy(GraphRunner):
            def __init__(self, graph, plan=None):
                plans.append((graph, plan))
                super().__init__(graph, plan)

        assert main(["optimize", "--config", str(tiny_config)]) == 0
        out = capsys.readouterr().out
        monkeypatch.setattr(pipeline, "GraphRunner", PlanSpy)
        assert main(["run", "--config", str(tiny_config), "--out", "-"]) == 0
        (graph, plan), = plans
        assert f"-> {len(graph.nodes)} (fuse=on" in out
        assert f"| peak {plan.peak_bytes:,} | arena {plan.arena_bytes:,}" in out

    def test_optimize_default_config(self, capsys):
        # the desk graph on the default 64x64 source's [3,16,256,256] clips
        assert main(["optimize"]) == 0
        out = capsys.readouterr().out
        assert "nodes: 15 -> 6 (fuse=on, fp16=off)" in out
        assert "planned bytes: naive 161,509,888 | peak 32,847,616 | arena 20,264,704" in out

    def test_count_prints_published_references(self, capsys):
        assert main(["count", "--profile", "desk"]) == 0
        out = capsys.readouterr().out
        assert "59.301M" in out and "41.733G" in out and "34.582M" in out

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
