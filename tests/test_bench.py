"""Bench tests: analytic count oracle, injected-clock timing, comparison table."""

import time

import numpy as np
import pytest

from edgevad import bench
from edgevad.bench import (
    BenchReport,
    JETSON_REFERENCE,
    UnknownNodeKind,
    WorkloadResult,
    compare_with_reference,
    count_params_flops,
    measure,
)
from edgevad.graphopt import ComputeGraph, GraphBuilder, Node, TensorMeta
from edgevad.tensor import Tensor

from helpers import random_graph


def recount_oracle(graph):
    """Independent per-node recomputation of params and flops from shapes."""
    params = sum(int(np.prod(p.shape)) for p in graph.params.values())
    flops = 0
    for n in graph.nodes:
        out = graph.meta[n.output].shape
        if n.kind == "conv3d":
            o, c, kd, kh, kw = graph.params[n.params["w"]].shape
            flops += 2 * int(np.prod(out)) * c * kd * kh * kw
        elif n.kind == "nonlocal3d":
            nn, c = out[0], out[1]
            p = int(np.prod(out[2:]))
            ci = graph.params[n.params["wt"]].shape[1]
            flops += 2 * nn * (3 * p * c * ci + p * ci * c + 2 * p * p * ci)
    return params, flops


class TestCounting:
    def test_linear_with_bias_spec_example(self):
        # a biased O x I linear layer, as the head runs it: a 1x1x1 conv over one position
        b = GraphBuilder()
        x = b.input((1, 4, 1, 1, 1))
        w = b.param("w", Tensor(np.zeros((3, 4, 1, 1, 1), np.float32)))
        bb = b.param("b", Tensor(np.zeros(3, np.float32)))
        t = b.conv3d(x, w)
        t = b.bias(t, bb, axis=1)
        b.output(t)
        params, flops = count_params_flops(b.build())
        assert params == 15 and flops == 24

    def test_conv3d_spec_example(self):
        b = GraphBuilder()
        x = b.input((1, 3, 4, 4, 4))
        w = b.param("w", Tensor(np.zeros((2, 3, 1, 1, 1), np.float32)))
        bb = b.param("b", Tensor(np.zeros(2, np.float32)))
        t = b.conv3d(x, w)
        t = b.bias(t, bb, axis=1)
        b.output(t)
        params, flops = count_params_flops(b.build())
        assert params == 8 and flops == 768

    def test_empty_graph(self):
        g = ComputeGraph([], ["x"], ["x"], {"x": TensorMeta((2,))}, {})
        assert count_params_flops(g) == (0, 0)

    def test_unknown_kind_listed(self):
        g = ComputeGraph(
            [Node("m", "mystery_op", ("x",), "y")],
            ["x"], ["y"], {"x": TensorMeta((2,)), "y": TensorMeta((2,))}, {},
        )
        with pytest.raises(UnknownNodeKind, match="mystery_op"):
            count_params_flops(g)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_recount_oracle(self, seed):
        g, _ = random_graph(seed)
        assert count_params_flops(g) == recount_oracle(g)

    def test_fusion_preserves_counts(self):
        from edgevad.graphopt import fuse

        g, _ = random_graph(7)
        assert count_params_flops(fuse(g)) == count_params_flops(g)

    def test_structure_reproducibility(self):
        from edgevad.extractor import build_extractor, desk_scale_config

        g1 = build_extractor(desk_scale_config(), seed=0)
        g2 = build_extractor(desk_scale_config(), seed=99)  # different values, same structure
        assert count_params_flops(g1) == count_params_flops(g2)
        assert g1.fingerprint() == g2.fingerprint()


class TestMeasure:
    def test_injected_clock_fps(self):
        times = iter([10.0, 12.0])
        report = measure(lambda: 100, clock=lambda: next(times))
        assert report.fps == pytest.approx(50.0)
        assert report.wall_s == pytest.approx(2.0)

    def test_zero_frames_no_division_error(self):
        report = measure(lambda: 0)
        assert report.fps == 0.0

    def test_monotone_in_contained_work(self):
        def spin(seconds):
            def run():
                t0 = time.perf_counter()
                while time.perf_counter() - t0 < seconds:
                    pass
                return 1

            return run

        short = measure(spin(0.03))
        long = measure(spin(0.08))
        assert long.wall_s >= short.wall_s

    def test_workload_result_percentiles(self):
        res = WorkloadResult(frames=4, stage_latencies_ms={"extract": [1.0, 2.0, 3.0, 4.0]})
        report = measure(lambda: res)
        assert report.stage_p50_ms["extract"] == pytest.approx(2.5)
        assert report.frames == 4

    def test_not_reentrant(self):
        def nested():
            measure(lambda: 1)
            return 1

        with pytest.raises(RuntimeError, match="already running"):
            measure(nested)

    def test_peak_memory_positive(self):
        report = measure(lambda: 1)
        assert report.peak_rss_bytes > 0


def _report(fps, rss, fingerprint="cfg1", optimized=False):
    return BenchReport(
        fps=fps, frames=100, wall_s=100 / fps, peak_rss_bytes=rss,
        stage_p50_ms={}, stage_p95_ms={}, params=10, flops=20,
        fingerprint=fingerprint, optimized=optimized,
    )


class TestComparison:
    def test_identical_reports_speedup_one(self):
        text, csv = compare_with_reference(_report(10.0, 1000, optimized=True), _report(10.0, 1000))
        assert "1.000x" in text
        assert "1.32x Orin Nano" in text and "1.41x AGX Xavier" in text
        assert "0.63 Orin Nano" in text
        assert "informational" in text
        assert csv.startswith("metric,measured,reference")

    def test_fingerprint_mismatch_rejected(self):
        with pytest.raises(ValueError, match="fingerprint"):
            compare_with_reference(_report(10, 1, "a", True), _report(10, 1, "b", False))

    def test_same_flag_rejected(self):
        with pytest.raises(ValueError, match="optimization flag"):
            compare_with_reference(_report(10, 1, "a", True), _report(10, 1, "a", True))

    def test_reference_quotients_match_published_table(self):
        orin = JETSON_REFERENCE["orin_nano_fps"]
        xavier = JETSON_REFERENCE["agx_xavier_fps"]
        ram = JETSON_REFERENCE["orin_nano_ram_gb"]
        assert orin[0] / orin[1] == pytest.approx(1.32, abs=0.01)
        assert xavier[0] / xavier[1] == pytest.approx(1.41, abs=0.01)
        assert ram[0] / ram[1] == pytest.approx(0.63, abs=0.01)

    def test_accounting_table_totals(self):
        table = bench.accounting_table((1000, 2000), (10, 20), crops=10, snippets=32)
        assert "59.301M" in table and "41.733G" in table
        assert "1,010" in table  # total params column
