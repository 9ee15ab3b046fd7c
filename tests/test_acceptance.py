"""Acceptance gate: ten criteria, one test each, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
and the informational accounting/benchmark reports.
"""

import time

import numpy as np
import pytest

from edgevad import autodiff as ad
from edgevad import bench as bench_mod
from edgevad import graphopt as go
from edgevad import rtfm
from edgevad import tensor as tc
from edgevad.extractor import build_extractor, desk_scale_config, full_scale_config
from edgevad.metrics import roc_auc
from edgevad.pipeline import QUEUE_CAPACITY, PipelineConfig, alert_check, run_pipeline, run_sequential
from edgevad.tensor import Tensor
from edgevad.videopre import preprocess_snippet, segment_snippets
from edgevad.sources import synthesize

from helpers import check_plan_no_overlap, nonlocal_weights, random_graph
from test_bench import recount_oracle
from test_metrics import pairwise_auc_oracle
from test_rtfm import gradcheck_instance
from test_tensor import (conv1d_loops, conv1d_via_conv3d, conv3d_loops, l2_loops, rel_err, softmax64,
                         topk_sort_oracle)


def _report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def test_criterion_01_preprocessing_exactness():
    t0 = time.perf_counter()
    video = synthesize({"pattern": "constant", "value": 114.75, "frames": 48, "width": 64, "height": 64})
    plan = segment_snippets(video)  # defaults: T=32, L=16
    assert plan.snippet_count == 32
    for i in range(plan.snippet_count):
        batch = preprocess_snippet(video, plan, i)
        assert batch.data.shape == (10, 3, 16, 224, 224)
        assert np.max(np.abs(batch.data.data)) <= 1e-5
    # stage order regression lives in test_videopre; re-run the two pinned checks
    from test_videopre import TestPreprocessSnippet

    t = TestPreprocessSnippet()
    t.test_stage_order_crop_before_resize_differs()
    t.test_stage_order_normalize_before_resize_not_identical()
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s (budget 10s)"
    _report(1, f"all-114.75 video -> zero ClipBatches, shapes [10,3,16,224,224], "
               f"stage order pinned ({elapsed:.1f}s)")


def test_criterion_02_kernel_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    # conv3d: 1000 randomized small shapes vs the six-nested-loop reference
    for trial in range(1000):
        n, c = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        d, h, w_ = int(rng.integers(1, 5)), int(rng.integers(1, 9)), int(rng.integers(1, 9))
        kd, kh, kw = (int(rng.integers(1, m + 1)) for m in (d, h, w_))
        o = int(rng.integers(1, 4))
        stride = tuple(int(s) for s in rng.integers(1, 3, size=3))
        pad = tuple(int(p) for p in rng.integers(0, 2, size=3))
        x = rng.normal(size=(n, c, d, h, w_)).astype(np.float32)
        wt = rng.normal(size=(o, c, kd, kh, kw)).astype(np.float32)
        b = rng.normal(size=(o,)).astype(np.float32) if trial % 2 else None
        want = conv3d_loops(x, wt, b, stride, pad, (1, 1, 1))
        if min(want.shape[2:]) < 1:
            continue
        got = tc.conv3d_raw(x, wt, b, stride, pad, (1, 1, 1))
        assert rel_err(got, want) <= 1e-6
    # the head's temporal conv (conv3d on [1,C,T,1,1]): 450 randomized instances
    for _ in range(450):
        c, t, o = int(rng.integers(1, 4)), int(rng.integers(1, 14)), int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5]))
        dil = int(rng.integers(1, 4))
        x = rng.normal(size=(c, t)).astype(np.float32)
        w = rng.normal(size=(o, c, k)).astype(np.float32)
        got = conv1d_via_conv3d(x, w, dil)
        assert rel_err(got, conv1d_loops(x, w, dil)) <= 1e-6
    # softmax: 450 instances vs float64 elementwise reference
    for _ in range(450):
        x = rng.normal(scale=rng.uniform(0.5, 50), size=int(rng.integers(1, 16)))
        got = tc.softmax_raw(x.astype(np.float32), -1)
        assert np.max(np.abs(got - softmax64(x))) <= 1e-6
        assert abs(got.sum() - 1.0) <= 1e-6
    # l2 magnitude: 450 instances vs scalar loop
    for _ in range(450):
        f = rng.normal(size=(int(rng.integers(1, 10)), int(rng.integers(1, 20)))).astype(np.float32)
        assert rel_err(ad.l2_rows(f).value, l2_loops(f)) <= 1e-6
    # topk: 450 instances, exact match with the stable descending sort
    for _ in range(450):
        n = int(rng.integers(1, 24))
        vals = (rng.integers(0, 6, size=n) / 5.0).astype(np.float32)  # force ties
        k = int(rng.integers(1, n + 1))
        idx = rtfm.topk_indices(vals, k)
        oi, ov = topk_sort_oracle(vals, k)
        assert idx.tolist() == oi and vals[idx].tolist() == ov
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s (budget 60s)"
    _report(2, f"conv3d(1000)/conv1d(450)/softmax(450)/l2(450)/topk(450) oracle sweeps "
               f"<= 1e-6 rel, topk exact ({elapsed:.1f}s)")


def test_criterion_03_nonlocal_residual_identity():
    rng = np.random.default_rng(3)
    for shape, ch in (((2, 4, 2, 3, 3), 4), ((1, 8, 3, 5, 5), 8)):
        x = rng.normal(size=shape).astype(np.float32)
        np.testing.assert_array_equal(tc.nonlocal_raw(x, *nonlocal_weights(ch, seed=1)), x)
    # and inside a built graph: the desk extractor's non-local output projection
    # is zero-initialized, so the whole block starts as an identity
    g = build_extractor(desk_scale_config(), seed=0)
    nl_out = [p for name, p in g.params.items() if "_o_z" in name]
    assert nl_out and all(np.all(p.data == 0.0) for p in nl_out)
    _report(3, "zero-init output projection -> non-local block is an exact identity (F32)")


def test_criterion_04_graph_pass_safety():
    t0 = time.perf_counter()
    checked_plans = 0
    for seed in range(100):
        g, xs = random_graph(seed)
        fused = go.fuse(g)
        plan = go.plan_memory(g)
        a = go.execute(g, xs)
        b = go.execute(fused, xs)
        c = go.execute(g, xs, plan=plan)
        for t1, t2, t3 in zip(a, b, c):
            np.testing.assert_array_equal(t1.data, t2.data)
            np.testing.assert_array_equal(t1.data, t3.data)
        ok, pair = check_plan_no_overlap(plan)
        assert ok, f"graph {seed}: overlapping assignment {pair}"
        assert plan.peak_bytes <= plan.naive_bytes
        fplan = go.plan_memory(fused)
        ok, pair = check_plan_no_overlap(fplan)
        assert ok
        checked_plans += 2
    # linear chain: peak 2s vs naive 3s
    bld = go.GraphBuilder()
    x = bld.input((6,))
    y = bld.relu(bld.relu(x))
    bld.output(y)
    chain = bld.build()
    plan = go.plan_memory(chain)
    assert plan.peak_bytes == 2 * 6 * 4 and plan.naive_bytes == 3 * 6 * 4
    # F16 lowering of the desk extractor: end-to-end within 5e-2 relative
    cfg = desk_scale_config()
    g = build_extractor(cfg, seed=4)
    clip = Tensor(np.random.default_rng(4).normal(size=cfg.input_shape).astype(np.float32))
    base = go.execute(g, clip)[0].data
    low = go.execute(go.lower_precision(go.fuse(g)), clip)[0].data
    denom = max(np.max(np.abs(base)), 1e-6)
    rel = np.max(np.abs(base - low)) / denom
    assert rel <= 5e-2, f"f16 end-to-end rel err {rel:.4f}"
    elapsed = time.perf_counter() - t0
    _report(4, f"fuse/plan bitwise on 100 graphs, {checked_plans} plans pass the O(n^2) "
               f"overlap oracle, chain peak 2s vs naive 3s, desk F16 rel err {rel:.3e} ({elapsed:.1f}s)")


def test_criterion_05_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        err = gradcheck_instance(seed, with_dropout=(seed % 2 == 0))
        worst = max(worst, err)
        assert err <= 1e-4, f"instance {seed}: worst rel err {err:.2e}"
    elapsed = time.perf_counter() - t0
    _report(5, f"50 instances, every gradient within 1e-4 of central differences "
               f"(worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_06_desk_scale_learning():
    t0 = time.perf_counter()
    dataset, _ = rtfm.make_magnitude_dataset(
        n_normal=48, n_abnormal=48, snippets=32, dim=32, scale=3.0, anomaly_rows=8, seed=0
    )
    cfg = rtfm.TrainConfig(
        learning_rate=0.001, weight_decay=0.005, batch_size=16, epochs=200, k=3, seed=0
    )
    aucs = {}

    def on_epoch(epoch, loss, model):
        if (epoch + 1) % 10 == 0:
            auc = rtfm.training_auc(model, dataset, k=cfg.k)
            aucs[epoch + 1] = auc
            return auc >= 0.95
        return False

    result = rtfm.train(dataset, cfg, on_epoch=on_epoch)
    elapsed = time.perf_counter() - t0
    best = max(aucs.values())
    assert best >= 0.95, f"AUC only reached {best:.3f} within 200 epochs ({sorted(aucs.items())})"
    assert elapsed < 300.0, f"training took {elapsed:.0f}s (budget 300s)"
    assert all(np.isfinite(l) for l in result.epoch_losses)
    # 10-epoch moving average trends down; 70% dropout makes per-step losses
    # stochastic, so upticks are allowed up to 1% of the curve's total descent
    ma = np.convolve(result.epoch_losses, np.ones(10) / 10, mode="valid")
    slack = 0.01 * (ma.max() - ma.min())
    assert all(b <= a + slack for a, b in zip(ma, ma[1:])), "moving average rose beyond dropout noise"
    assert ma[-1] <= 0.05 * ma[0], "loss failed to descend by 20x"
    _report(6, f"synthetic 3x-magnitude set: AUC {best:.3f} at epoch {max(aucs)} "
               f"(Adam, wd 0.005, bs 16, lr 0.001, dropout 0.7) in {elapsed:.0f}s")


def test_criterion_07_auc_oracle():
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(2, 50))
        labels = rng.integers(0, 2, size=n).tolist()
        if sum(labels) in (0, n):
            labels[0] = 1 - labels[0]
        scores = (rng.integers(0, 8, size=n) / 7.0).tolist()
        assert roc_auc(scores, labels) == pairwise_auc_oracle(scores, labels)
    # monotone-transform invariance
    for seed in range(50):
        rng2 = np.random.default_rng(seed)
        n = int(rng2.integers(4, 40))
        labels = rng2.integers(0, 2, size=n).tolist()
        if sum(labels) in (0, n):
            labels[0] = 1 - labels[0]
        scores = rng2.random(n)
        base = roc_auc(scores.tolist(), labels)
        a, b = float(rng2.uniform(0.5, 4)), float(rng2.uniform(-3, 3))
        assert roc_auc((a * scores + b).tolist(), labels) == pytest.approx(base, abs=1e-12)
        assert roc_auc(np.exp(scores).tolist(), labels) == pytest.approx(base, abs=1e-12)
    _report(7, "roc_auc exactly equals the pairwise oracle on 500 instances; "
               "monotone-transform invariant on 50")


def test_criterion_08_pipeline_equivalence_and_alerting():
    t0 = time.perf_counter()
    cfg = PipelineConfig(
        source={"kind": "synthetic", "pattern": "moving_square", "frames": 512,
                "width": 64, "height": 64, "seed": 0,
                "anomaly": {"start": 200, "end": 264, "strength": 120}},
        snippet_count=32,
        frames_per_snippet=16,
        extractor_profile="desk",
        seed=0,
    )
    piped = run_pipeline(cfg)
    seq = run_sequential(cfg)
    assert len(piped.records) == 32, f"expected 32 records, got {len(piped.records)}"
    assert [r.snippet_index for r in piped.records] == list(range(32))
    assert [r.score for r in piped.records] == [r.score for r in seq.records]
    assert [r.alert for r in piped.records] == [r.alert for r in seq.records]
    assert [r.start_frame for r in piped.records] == [r.start_frame for r in seq.records]
    for name, peak in piped.boundary_high_water.items():
        assert peak <= QUEUE_CAPACITY + 1 + cfg.stage_workers, f"boundary {name} residency {peak}"
    assert alert_check(0.71, 0.7) is True
    assert alert_check(0.69, 0.7) is False
    assert alert_check(0.70, 0.7) is False
    elapsed = time.perf_counter() - t0
    _report(8, f"512-frame source -> 32 records; pipelined == sequential bitwise; "
               f"0.71/0.70/0.69 vs 0.7 alert boundary pinned ({elapsed:.0f}s)")


def test_criterion_09_accounting():
    for seed in range(200):
        g, _ = random_graph(seed)
        assert bench_mod.count_params_flops(g) == recount_oracle(g)
    ext = bench_mod.count_params_flops(build_extractor(full_scale_config(crops=1), seed=0))
    head = bench_mod.count_params_flops(rtfm.head_graph(rtfm.RtfmModel(rtfm.full_scale_mstn_config(),
                                                                       rtfm.full_scale_head_config())))
    table = bench_mod.accounting_table(ext, head, crops=10, snippets=32)
    assert "59.301M" in table and "41.733G" in table
    print("\n" + table)
    _report(9, f"count matches the analytic recount on 200 graphs; full-scale reference "
               f"{ext[0]/1e6:.3f}M/{ext[1]/1e9:.2f}G extractor + {head[0]/1e6:.3f}M/"
               f"{head[1]/1e9:.2f}G head reported beside published figures (informational)")


def test_criterion_10_benchmark_sanity():
    t0 = time.perf_counter()

    # harness overhead vs direct timing of the same fixed spin workload
    def spin():
        t = time.perf_counter()
        while time.perf_counter() - t < 0.25:
            pass
        return 100

    direct0 = time.perf_counter()
    spin()
    direct = time.perf_counter() - direct0
    report = bench_mod.measure(spin)
    overhead = abs(report.wall_s - direct) / direct
    assert overhead <= 0.02, f"harness overhead {overhead:.3%}"

    # optimized (fuse + static memory) vs baseline desk pipeline, median of 3
    # after a warmup run; the sequential composition is measured because this
    # box has one CPU, where thread scheduling only adds noise (criterion 8
    # already pins pipelined == sequential)
    base_kw = dict(
        source={"kind": "synthetic", "pattern": "moving_square", "frames": 128,
                "width": 64, "height": 64, "seed": 1},
        snippet_count=8,
        frames_per_snippet=16,
        extractor_profile="desk",
        seed=1,
    )
    opt_cfg = PipelineConfig(**base_kw, fuse=True, memplan=True, fp16=False)
    base_cfg = PipelineConfig(**base_kw, fuse=False, memplan=False, fp16=False)

    def timed(cfg):
        run_sequential(cfg)  # warmup
        walls = []
        for _ in range(3):
            t1 = time.perf_counter()
            res = run_sequential(cfg)
            walls.append(time.perf_counter() - t1)
        walls.sort()
        return walls[1], res.summary["frames"]

    opt_wall, frames = timed(opt_cfg)
    base_wall, _ = timed(base_cfg)
    speedup = base_wall / opt_wall
    ref = bench_mod.JETSON_REFERENCE
    orin = ref["orin_nano_fps"][0] / ref["orin_nano_fps"][1]
    xavier = ref["agx_xavier_fps"][0] / ref["agx_xavier_fps"][1]
    mem = ref["orin_nano_ram_gb"][0] / ref["orin_nano_ram_gb"][1]
    print(f"\nmeasured speedup {speedup:.3f}x on the desk pipeline | published reference "
          f"(different hardware, informational): {orin:.2f}x Orin Nano, {xavier:.2f}x AGX Xavier, "
          f"memory ratio {mem:.2f}")
    assert speedup >= 1.0, f"optimized pipeline slower: {speedup:.3f}x"
    elapsed = time.perf_counter() - t0
    _report(10, f"measure overhead {overhead:.2%} <= 2%; fuse+plan speedup {speedup:.2f}x >= 1.0 "
                f"({elapsed:.0f}s)")
