"""Pipeline tests: pipelined-vs-sequential equivalence, alerting, backpressure."""

import pytest

from edgevad import pipeline as pl
from edgevad.pipeline import (
    Boundary,
    PipelineConfig,
    PipelineConfigError,
    PipelineStageError,
    ScoreRecord,
    alert_check,
    log_event,
    run_pipeline,
    run_sequential,
)

TINY_PROFILE = dict(
    name="tiny-nl",
    stem_channels=4,
    stem_kernel=(1, 5, 5),
    stem_stride=(1, 8, 8),
    stem_pad=(0, 2, 2),
    stage_widths=(8,),
    stage_blocks=(1,),
    stage_strides=((1, 2),),
    inflate=((0,),),
    nonlocal_blocks=((0,),),
    output_dim=8,
    crops=10,
    in_channels=3,
    frames=4,
    spatial=224,
)


def tiny_cfg(frames=40, snippets=4, **kw):
    return PipelineConfig(
        source={"kind": "synthetic", "pattern": "moving_square", "frames": frames,
                "width": 48, "height": 40, "seed": 1,
                "anomaly": {"start": frames // 2, "end": frames // 2 + 8, "strength": 110}},
        snippet_count=snippets,
        frames_per_snippet=4,
        extractor_profile=dict(TINY_PROFILE),
        seed=3,
        **kw,
    )


class TestAlertRule:
    def test_strictly_greater(self):
        assert alert_check(0.71, 0.7) is True
        assert alert_check(0.69, 0.7) is False
        assert alert_check(0.70, 0.7) is False

    def test_threshold_one_never_alerts(self):
        for s in (0.0, 0.5, 0.99, 1.0):
            assert alert_check(s, 1.0) is False


class TestLogging:
    def test_line_format(self):
        rec = ScoreRecord(snippet_index=7, start_frame=112, score=0.5, alert=False, timestamp=1700000000.0)
        line = log_event(rec)
        assert "snippet=007" in line and "score=0.5000" in line and line.endswith("ok")

    def test_alert_token(self):
        rec = ScoreRecord(snippet_index=1, start_frame=0, score=0.93, alert=True, timestamp=1700000000.0)
        assert "ALERT" in log_event(rec)

    def test_record_json_round_trip(self):
        import json

        rec = ScoreRecord(2, 32, 0.25, False, {"preprocess": 1.0}, 1700000000.0)
        doc = json.loads(rec.to_json())
        assert doc["snippet_index"] == 2 and doc["alert"] is False


class TestScoreRecordInvariants:
    def test_score_bounds_enforced(self):
        with pytest.raises(ValueError):
            ScoreRecord(0, 0, 1.5, True)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            ScoreRecord(0, 0, 0.5, False, {"extract": -1.0})


class TestPipelineRuns:
    def test_one_record_per_snippet_in_order(self):
        res = run_pipeline(tiny_cfg())
        assert [r.snippet_index for r in res.records] == [0, 1, 2, 3]
        assert res.summary["snippets"] == 4
        assert res.summary["frames"] == 40
        assert res.summary["fps"] > 0

    def test_matches_sequential_reference(self):
        cfg = tiny_cfg()
        a = run_pipeline(cfg)
        b = run_sequential(cfg)
        assert [r.snippet_index for r in a.records] == [r.snippet_index for r in b.records]
        assert [r.start_frame for r in a.records] == [r.start_frame for r in b.records]
        assert [r.score for r in a.records] == [r.score for r in b.records]
        assert [r.alert for r in a.records] == [r.alert for r in b.records]

    def test_threshold_one_yields_zero_alerts(self):
        res = run_pipeline(tiny_cfg(threshold=1.0))
        assert res.summary["alerts"] == 0

    def test_emit_and_log_callbacks(self):
        emitted, logged = [], []
        res = run_pipeline(tiny_cfg(), emit=emitted.append, log=logged.append)
        assert len(emitted) == 4
        assert len(logged) == 5  # one line per record + summary
        assert logged[-1].startswith("summary")

    def test_backpressure_bounded_residency(self):
        cfg = tiny_cfg(frames=60, snippets=6, queue_capacity=2)
        res = run_pipeline(cfg)
        for name, peak in res.boundary_high_water.items():
            assert peak <= cfg.queue_capacity + 1, f"boundary {name} hit {peak}"

    def test_clip_buffers_allocated_once(self, monkeypatch):
        # queue_capacity + 1 + stage_workers buffers serve every snippet
        seen = set()
        real = pl.preprocess_snippet

        def spy(*args, out=None, **kw):
            seen.add(out.__array_interface__["data"][0])
            return real(*args, out=out, **kw)

        monkeypatch.setattr(pl, "preprocess_snippet", spy)
        cfg = tiny_cfg(frames=60, snippets=8, queue_capacity=1)
        res = run_pipeline(cfg)
        assert len(seen) <= cfg.queue_capacity + 1 + cfg.stage_workers
        monkeypatch.setattr(pl, "preprocess_snippet", real)
        assert [r.score for r in res.records] == [r.score for r in run_sequential(cfg).records]

    def test_unreadable_source_is_config_error(self):
        cfg = tiny_cfg()
        cfg.source = {"kind": "ppm_dir", "path": "/nonexistent/frames"}
        with pytest.raises(PipelineConfigError):
            run_pipeline(cfg)

    def test_bad_head_params_is_config_error(self):
        cfg = tiny_cfg(head_params="/nonexistent/params")
        with pytest.raises(PipelineConfigError):
            run_pipeline(cfg)

    def test_mid_stream_shape_error_is_stage_error(self):
        cfg = tiny_cfg()
        cfg.frames_per_snippet = 6  # clips become [10,3,6,...] vs graph [10,3,4,...]
        with pytest.raises(PipelineStageError, match="extract"):
            run_pipeline(cfg)

    def test_validation_rejects_bad_capacity(self):
        cfg = tiny_cfg()
        cfg.queue_capacity = 0
        with pytest.raises(PipelineConfigError):
            run_pipeline(cfg)

    def test_optimization_flags_do_not_change_scores(self):
        base = tiny_cfg(fuse=False, memplan=False)
        opt = tiny_cfg(fuse=True, memplan=True)
        a = run_sequential(base)
        b = run_sequential(opt)
        assert [r.score for r in a.records] == [r.score for r in b.records]

    def test_multi_worker_preprocess_matches_single(self):
        one = run_pipeline(tiny_cfg(frames=60, snippets=6))
        multi = run_pipeline(tiny_cfg(frames=60, snippets=6, stage_workers=3))
        assert [r.snippet_index for r in multi.records] == list(range(6))
        assert [r.score for r in multi.records] == [r.score for r in one.records]

    def test_extractor_params_path_round_trip(self, tmp_path):
        from edgevad.extractor import build_extractor
        from edgevad.pipeline import _resolve_extractor_config
        from edgevad.serialize import save_graph_params

        cfg = tiny_cfg()
        graph = build_extractor(_resolve_extractor_config(cfg.extractor_profile), seed=cfg.seed)
        save_graph_params(graph, tmp_path / "ext")
        with_params = tiny_cfg(extractor_params=str(tmp_path / "ext"))
        a = run_sequential(cfg)
        b = run_sequential(with_params)
        assert [r.score for r in a.records] == [r.score for r in b.records]

    def test_bad_stage_workers_rejected(self):
        cfg = tiny_cfg()
        cfg.stage_workers = 0
        with pytest.raises(PipelineConfigError):
            run_pipeline(cfg)


class TestBlasThreads:
    """run_pipeline gives OpenBLAS the CPUs its preprocess workers leave free."""

    @pytest.fixture(autouse=True)
    def needs_openblas(self):
        if pl._blas_threads() is None:
            pytest.skip("no OpenBLAS thread count to read in this process")

    def test_count_during_run(self):
        import os

        for workers in (1, 2):
            cfg = tiny_cfg(stage_workers=workers)
            seen = []
            res = run_pipeline(cfg, emit=lambda rec: seen.append(pl._blas_threads()))
            want = max(1, len(os.sched_getaffinity(0)) - workers)
            assert seen == [want] * cfg.snippet_count
            assert res.summary["blas_threads"] == want
            assert run_sequential(cfg).summary["blas_threads"] == want

    def test_count_restored_after_run(self):
        before = pl._blas_threads()
        run_pipeline(tiny_cfg())
        assert pl._blas_threads() == before

    def test_count_restored_after_stage_error(self):
        before = pl._blas_threads()
        cfg = tiny_cfg()
        cfg.frames_per_snippet = 6  # the mid-stream shape error above
        with pytest.raises(PipelineStageError, match="extract"):
            run_pipeline(cfg)
        assert pl._blas_threads() == before

    def test_count_restored_when_body_raises(self):
        before = pl._blas_threads()
        with pytest.raises(KeyboardInterrupt):
            with pl._blas_pool(tiny_cfg()):
                raise KeyboardInterrupt
        assert pl._blas_threads() == before

    def test_runs_without_openblas(self, monkeypatch):
        monkeypatch.setattr(pl, "_openblas", lambda: None)
        cfg = tiny_cfg()
        a = run_pipeline(cfg)
        b = run_sequential(cfg)
        assert a.summary["blas_threads"] is None and b.summary["blas_threads"] is None
        assert [r.score for r in a.records] == [r.score for r in b.records]


class TestSummary:
    def test_processed_frames(self):
        # 4 snippets of 4 frames over a 40-frame video
        s = run_pipeline(tiny_cfg()).summary
        assert s["frames"] == 40 and s["processed_frames"] == 16
        assert s["processed_frames_per_s"] == pytest.approx(16 / s["elapsed_s"], rel=1e-2)


class TestBoundary:
    def test_sentinel_bypasses_gauge(self):
        import threading

        b = Boundary(2, threading.Event())
        b.put(Boundary.SENTINEL)
        assert b.max_resident == 0

    def test_residency_counts_until_done(self):
        import threading

        b = Boundary(2, threading.Event())
        b.put(1)
        b.put(2)
        assert b.max_resident == 2
        b.get()
        b.done()
        b.put(3)
        assert b.max_resident == 2
