"""Pipeline tests: pipelined-vs-sequential equivalence, alerting, backpressure,
failure paths."""

import sys
import threading
import time

import numpy as np
import pytest

from edgevad import pipeline as pl
from edgevad.cli import DEFAULT_SOURCE
from edgevad import rtfm
from edgevad import graphopt as go
from edgevad.graphopt import GraphRunner
from edgevad.pipeline import (
    PipelineConfig,
    PipelineConfigError,
    PipelineStageError,
    ScoreRecord,
    alert_check,
    log_event,
    run_pipeline,
    run_sequential,
)

from edgevad.videopre import resized_extent

from helpers import FailingHalfRunner, SlowRunner, tiny_cfg


def cut_clip_at(monkeypatch, bad):
    """Make preprocessing hand the extractor a clip two frames short at
    snippet `bad`, so that its extraction fails on the input's shape."""
    real = pl.prepare_clip

    def cut(video, snips, i, *args, **kw):
        clip = real(video, snips, i, *args, **kw)
        return clip[:, :2] if i == bad else clip

    monkeypatch.setattr(pl, "prepare_clip", cut)


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


class TestBoundary:
    def test_sentinel_bypasses_gauge(self, monkeypatch):
        # with one snippet, nothing is built behind the clip being extracted,
        # so the gauge counts that clip alone
        monkeypatch.setattr(pl, "GraphRunner", SlowRunner)
        cfg = tiny_cfg(snippets=1)
        assert run_pipeline(cfg).boundary_high_water["clips"] == 1


class TestPipelineRuns:
    def test_one_record_per_snippet_in_order(self):
        res = run_pipeline(tiny_cfg())
        assert [r.snippet_index for r in res.records] == [0, 1, 2, 3]
        assert res.summary["snippets"] == 4
        assert res.summary["frames"] == 40
        assert res.summary["fps"] > 0

    @pytest.mark.parametrize("opts", [{}, {"fuse": False, "memplan": False}, {"fuse": False}, {"fp16": True}])
    def test_matches_sequential_reference(self, opts):
        # the pipeline's two crop halves give the whole graph's rows bit for bit
        cfg = tiny_cfg(**opts)
        a = run_pipeline(cfg)
        b = run_sequential(cfg)
        assert [r.snippet_index for r in a.records] == [r.snippet_index for r in b.records]
        assert [r.start_frame for r in a.records] == [r.start_frame for r in b.records]
        assert [r.score for r in a.records] == [r.score for r in b.records]
        assert [r.alert for r in a.records] == [r.alert for r in b.records]
        assert a.features.shape == (10, 4, 8)  # [crops, T, D]
        np.testing.assert_array_equal(a.features, b.features)

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
        cfg = tiny_cfg(frames=60, snippets=6)
        res = run_pipeline(cfg)
        for name, peak in res.boundary_high_water.items():
            assert peak <= pl.QUEUE_CAPACITY + 1 + cfg.stage_workers, f"boundary {name} hit {peak}"
        assert res.boundary_high_water["clips"] >= 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_clip_gauge_fills_behind_slow_extractor(self, monkeypatch, workers):
        # while each extraction takes 0.3 s, the workers fill every other clip
        # buffer: QUEUE_CAPACITY + stage_workers built clips plus the one being extracted
        monkeypatch.setattr(pl, "GraphRunner", SlowRunner)
        cfg = tiny_cfg(frames=60, snippets=6, stage_workers=workers)
        assert run_pipeline(cfg).boundary_high_water["clips"] == pl.QUEUE_CAPACITY + 1 + cfg.stage_workers

    def test_clip_buffers_allocated_once(self, monkeypatch):
        # QUEUE_CAPACITY + 1 + stage_workers buffers serve every snippet
        seen = set()
        real = pl.prepare_clip

        def spy(*args, out=None, **kw):
            seen.add(out.__array_interface__["data"][0])
            return real(*args, out=out, **kw)

        monkeypatch.setattr(pl, "prepare_clip", spy)
        cfg = tiny_cfg(frames=60, snippets=8)
        res = run_pipeline(cfg)
        assert 1 <= len(seen) <= pl.QUEUE_CAPACITY + 1 + cfg.stage_workers
        monkeypatch.setattr(pl, "prepare_clip", real)
        assert [r.score for r in res.records] == [r.score for r in run_sequential(cfg).records]

    def test_clip_buffers_hold_uncropped_clips(self, monkeypatch):
        # the pipeline queues [3,L,H,W] clips; the extractor graph cuts the crops
        shapes = set()
        real = pl.prepare_clip

        def spy(*args, out=None, **kw):
            shapes.add(out.shape)
            return real(*args, out=out, **kw)

        monkeypatch.setattr(pl, "prepare_clip", spy)
        cfg = tiny_cfg(frames=60, snippets=6)
        res = run_pipeline(cfg)
        h, w = resized_extent(40, 48)  # tiny_cfg's frames are 48 wide and 40 high
        assert shapes == {(3, cfg.frames_per_snippet, h, w)}
        clip_bytes = 3 * cfg.frames_per_snippet * h * w * 4
        buffers = pl.QUEUE_CAPACITY + 1 + cfg.stage_workers
        assert res.summary["clip_buffer_mib"] == round(buffers * clip_bytes / 2 ** 20, 3)
        high_water = res.boundary_high_water["clips"]
        assert res.summary["clips_high_water_mib"] == round(high_water * clip_bytes / 2 ** 20, 3)

    def test_unreadable_source_is_config_error(self):
        cfg = tiny_cfg()
        cfg.source = {"kind": "ppm_dir", "path": "/nonexistent/frames"}
        with pytest.raises(PipelineConfigError):
            run_pipeline(cfg)

    def test_bad_head_params_is_config_error(self):
        cfg = tiny_cfg(head_params="/nonexistent/params")
        with pytest.raises(PipelineConfigError):
            run_pipeline(cfg)

    def test_mid_stream_shape_error_is_stage_error(self, monkeypatch):
        cut_clip_at(monkeypatch, 2)
        with pytest.raises(PipelineStageError, match="extract") as err:
            run_pipeline(tiny_cfg())
        assert "snippet 2" in str(err.value)

    @pytest.mark.parametrize("run", [run_pipeline, run_sequential])
    def test_snippet_length_must_match_profile(self, run):
        # the profile's frames fix the graph's clip length, so a different
        # frames_per_snippet is refused at start-up, naming both values
        cfg = tiny_cfg()
        cfg.frames_per_snippet = 6
        with pytest.raises(PipelineConfigError, match="frames_per_snippet=6 .* frames=4"):
            run(cfg)

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

    def test_extraction_in_snippet_order(self, monkeypatch):
        # snippet 0 is built last, yet the runner sees the clips in snippet
        # order: a clip buffer is refilled only after its last snippet ran
        filled = {}
        real = pl.prepare_clip

        def spy(video, snips, i, *args, out=None, **kw):
            if i == 0:
                time.sleep(0.3)
            clip = real(video, snips, i, *args, out=out, **kw)
            filled[out.__array_interface__["data"][0]] = i
            return clip

        seen = {}  # runner -> the snippets it ran, in order

        class RecordingRunner(GraphRunner):
            def run(self, x, *args, **kw):
                seen.setdefault(id(self), []).append(filled[x.data.__array_interface__["data"][0]])
                return super().run(x, *args, **kw)

        monkeypatch.setattr(pl, "prepare_clip", spy)
        monkeypatch.setattr(pl, "GraphRunner", RecordingRunner)
        res = run_pipeline(tiny_cfg(frames=60, snippets=6, stage_workers=3))
        assert list(seen.values()) == [list(range(6))] * len(pl.CROP_HALVES)
        assert [r.snippet_index for r in res.records] == list(range(6))

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
            want = max(1, (len(os.sched_getaffinity(0)) - workers) // 2)
            assert seen == [want] * cfg.snippet_count
            assert res.summary["blas_threads"] == want
            assert run_sequential(cfg).summary["blas_threads"] == want

    def test_count_restored_after_run(self):
        before = pl._blas_threads()
        run_pipeline(tiny_cfg())
        assert pl._blas_threads() == before

    def test_count_restored_after_stage_error(self, monkeypatch):
        before = pl._blas_threads()
        cut_clip_at(monkeypatch, 2)  # the mid-stream shape error above
        with pytest.raises(PipelineStageError, match="extract"):
            run_pipeline(tiny_cfg())
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

    @pytest.mark.parametrize("memplan", [True, False])
    def test_runner_mib_is_both_half_arenas(self, memplan):
        # each crop half's runner holds its own plan's arena; unplanned runners hold none
        cfg = tiny_cfg(memplan=memplan)
        graph = pl._startup(cfg)[1]
        arenas = sum(go.plan_memory(go.select_crops(graph, crops)).arena_bytes for crops in pl.CROP_HALVES)
        want = round(arenas / 2 ** 20, 3) if memplan else 0.0
        assert arenas > 0 and run_pipeline(cfg).summary["runner_mib"] == want

    def test_default_config_runners_hold_at_most_12_mib(self):
        # each conv's scratch is one slab's padded input window, not a padded crop
        graph = pl._startup(PipelineConfig(source=DEFAULT_SOURCE))[1]
        arenas = sum(go.plan_memory(go.select_crops(graph, crops)).arena_bytes for crops in pl.CROP_HALVES)
        assert arenas / 2 ** 20 <= 12  # the summary's runner_mib (see above)


def run_bounded(cfg, **kw):
    """run_pipeline's result, or the exception it raised, once the thread count
    is back to its value before the run. The run is made in a daemon thread,
    so a run that hangs fails the test instead of hanging the suite."""
    before = threading.active_count()
    out = []

    def target():
        try:
            out.append(run_pipeline(cfg, **kw))
        except BaseException as e:
            out.append(e)

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(60.0)
    assert not runner.is_alive(), "run_pipeline did not end"
    deadline = time.monotonic() + 5.0
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() == before, [t.name for t in threading.enumerate()]
    return out[0]


class TestConcurrency:
    @pytest.mark.parametrize("workers,snippets", [(5, 6), (8, 3)])
    def test_many_workers_short_switch_interval(self, workers, snippets):
        # more workers than CPUs on a small board (and, in the second case,
        # than snippets), with the interpreter switching threads every 10 us:
        # every snippet arrives once and the run equals the plain loop
        cfg = tiny_cfg(frames=60, snippets=snippets, stage_workers=workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            res = run_bounded(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert isinstance(res, pl.PipelineResult), res
        assert [r.snippet_index for r in res.records] == list(range(snippets))
        assert [r.score for r in res.records] == [r.score for r in run_sequential(cfg).records]


class TestFailurePaths:
    """A stage that raises ends the run with PipelineStageError naming the stage,
    and every thread the run started is gone soon after."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("bad", [0, 3])
    def test_preprocess_raises_mid_run(self, monkeypatch, workers, bad):
        real = pl.prepare_clip

        def flaky(video, snips, i, *args, **kw):
            if i == bad:
                raise OSError(f"truncated frame in snippet {i}")
            return real(video, snips, i, *args, **kw)

        monkeypatch.setattr(pl, "prepare_clip", flaky)
        cfg = tiny_cfg(frames=60, snippets=6, stage_workers=workers)
        err = run_bounded(cfg)
        assert isinstance(err, PipelineStageError)
        assert "preprocess" in str(err) and "truncated frame" in str(err)

    def test_video_score_raises(self, monkeypatch):
        def boom(feats, model):
            raise FloatingPointError("NaN in the head")

        monkeypatch.setattr(rtfm, "video_score", boom)
        err = run_bounded(tiny_cfg())
        assert isinstance(err, PipelineStageError)
        assert "detect" in str(err) and "NaN in the head" in str(err)

    def test_emit_raises(self):
        def emit(rec):
            if rec.snippet_index == 1:
                raise RuntimeError("sink closed")

        err = run_bounded(tiny_cfg(), emit=emit)
        assert isinstance(err, PipelineStageError)
        assert "detect" in str(err) and "sink closed" in str(err)

    @pytest.mark.parametrize("thread", ["caller", "extract"])
    def test_interrupt_in_either_half_joins_workers(self, monkeypatch, thread):
        # an interrupt in the half run on the caller's thread, or in the half
        # run on the extract thread, stops and joins every thread of the run
        # and reaches the caller as itself
        class InterruptedRunner(GraphRunner):
            calls = 0

            def run(self, *args, **kw):
                if threading.current_thread().name.startswith("extract") == (thread == "extract"):
                    InterruptedRunner.calls += 1
                    if InterruptedRunner.calls == 2:
                        raise KeyboardInterrupt
                return super().run(*args, **kw)

        monkeypatch.setattr(pl, "GraphRunner", InterruptedRunner)
        err = run_bounded(tiny_cfg(frames=60, snippets=6, stage_workers=3))
        assert isinstance(err, KeyboardInterrupt)

    def test_extract_thread_half_raises(self, monkeypatch):
        # the second crop half fails on the extract thread at snippet 2
        monkeypatch.setattr(pl, "GraphRunner", FailingHalfRunner)
        err = run_bounded(tiny_cfg(frames=60, snippets=6))
        assert isinstance(err, PipelineStageError)
        assert str(err) == "stage 'extract' failed: snippet 2: NaN in the extract thread's half"
