"""Extractor tests: config contracts, non-local oracle, feature rows and memory."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from edgevad import extractor as ex
from edgevad import graphopt as go
from edgevad import pipeline as pl
from edgevad import tensor as tc
from edgevad.cli import DEFAULT_SOURCE
from edgevad.extractor import ExtractorConfig, desk_scale_config, full_scale_config
from edgevad.tensor import Tensor
from edgevad.videopre import ten_crop

from helpers import nonlocal_weights, tiny_cfg

MIB = 2 ** 20


def tiny_config(output_dim=6, crops=2, spatial=16, frames=4):
    return ExtractorConfig(
        name="tiny",
        stem_channels=3,
        stem_kernel=(1, 3, 3),
        stem_stride=(1, 2, 2),
        stem_pad=(0, 1, 1),
        stage_widths=(4,),
        stage_blocks=(1,),
        stage_strides=((1, 2),),
        inflate=((1,),),
        nonlocal_blocks=((0,),),
        output_dim=output_dim,
        crops=crops,
        in_channels=3,
        frames=frames,
        spatial=spatial,
    )


def clip(shape, seed=0):
    rng = np.random.default_rng(seed)
    return SimpleNamespace(data=Tensor(rng.normal(size=shape).astype(np.float32)), snippet_index=0)


def nonlocal_oracle(x, wt, wp, wg, wo):
    """Position-by-position attention reference (double loop over positions)."""
    n, c = x.shape[:2]
    ci = wt.shape[1]
    p = int(np.prod(x.shape[2:]))
    flat = x.reshape(n, c, p)
    out = np.empty_like(flat, dtype=np.float64)
    for b in range(n):
        feats = flat[b].T.astype(np.float64)  # [p, c]
        theta, phi, g = feats @ wt, feats @ wp, feats @ wg
        for i in range(p):
            logits = np.array([theta[i] @ phi[j] for j in range(p)]) / np.sqrt(ci)
            e = np.exp(logits - logits.max())
            a = e / e.sum()
            y = sum(a[j] * g[j] for j in range(p))
            out[b, :, i] = flat[b, :, i] + wo.T.astype(np.float64) @ y
    return out.reshape(x.shape)


class TestConfigs:
    def test_full_scale_declares_2048(self):
        cfg = full_scale_config()
        cfg.validate()
        assert cfg.output_dim == 2048

    def test_desk_scale_shape_contract(self):
        g = ex.build_extractor(desk_scale_config(), seed=0)
        assert g.meta[g.outputs[0]].shape == (10, 32)

    def test_crop_input_graph_keeps_fingerprint(self):
        # the crops-input graph is what `bench` fingerprints and `count` counts
        for seed in (0, 7):
            assert ex.build_extractor(desk_scale_config(), seed=seed).fingerprint() == "96aa0708ee5809f3"

    def test_clip_input_graph_cuts_the_crops(self):
        cfg = tiny_config(crops=10)
        g = ex.build_extractor(cfg, seed=3, clip_hw=(20, 25))
        assert g.meta[g.inputs[0]].shape == (3, 4, 20, 25)
        assert g.nodes[0].kind == "ten_crop"
        crops_input = ex.build_extractor(cfg, seed=3)
        assert g.params.keys() == crops_input.params.keys()
        for name, p in g.params.items():
            np.testing.assert_array_equal(p.data, crops_input.params[name].data)
        x = np.random.default_rng(4).normal(size=(3, 4, 20, 25)).astype(np.float32)
        ref = go.GraphRunner(crops_input).run(Tensor(ten_crop(x, 16)))[0].data
        fused, plan = go.optimize(g)
        stem = fused.nodes[0]
        assert (stem.kind, stem.attrs["size"], stem.attrs["relu"]) == ("conv3d", 16, True)
        np.testing.assert_array_equal(go.GraphRunner(fused, plan).run(Tensor(x))[0].data, ref)
        np.testing.assert_array_equal(go.GraphRunner(g).run(Tensor(x))[0].data, ref)

    def test_clip_input_needs_ten_crops(self):
        with pytest.raises(ValueError, match="crops=10"):
            ex.build_extractor(tiny_config(crops=2), clip_hw=(16, 16))

    def test_one_conv_config_param_count(self):
        cfg = ExtractorConfig(
            name="one-conv",
            stem_channels=4,
            stem_kernel=(1, 1, 1),
            stem_stride=(1, 1, 1),
            stem_pad=(0, 0, 0),
            stage_widths=(),
            stage_blocks=(),
            stage_strides=(),
            inflate=(),
            nonlocal_blocks=(),
            output_dim=4,
            crops=1,
            frames=2,
            spatial=4,
        )
        g = ex.build_extractor(cfg)
        assert g.param_count() == 4 * 3 * 1 * 1 * 1 + 4  # weight + bias

    def test_inconsistent_config_names_constraint(self):
        cfg = tiny_config()
        bad = ExtractorConfig(**{**cfg.__dict__, "inflate": ((1, 1),)})
        with pytest.raises(ValueError, match="inflate"):
            bad.validate()
        for index in (5, -1):  # a negative index would place no block
            bad = ExtractorConfig(**{**cfg.__dict__, "nonlocal_blocks": ((index,),)})
            with pytest.raises(ValueError, match="non-local index out of range"):
                bad.validate()

    def test_nonlocal_label_requires_block(self):
        cfg = desk_scale_config()
        bad = ExtractorConfig(**{**cfg.__dict__, "nonlocal_blocks": ((), ())})
        with pytest.raises(ValueError, match="labeled non-local"):
            bad.validate()


class TestNonLocalBlock:
    def test_zero_output_projection_is_identity(self):
        x = np.random.default_rng(0).normal(size=(2, 4, 2, 3, 3)).astype(np.float32)
        np.testing.assert_array_equal(tc.nonlocal_raw(x, *nonlocal_weights(4, seed=1)), x)

    def test_constant_input_keeps_constant_shift(self):
        # constant input -> uniform attention -> every position shifts identically
        x = np.full((1, 4, 2, 2, 2), 1.5, dtype=np.float32)
        out = tc.nonlocal_raw(x, *nonlocal_weights(4, seed=2, zero_out=False))
        for c in range(4):
            vals = out[0, c].reshape(-1)
            np.testing.assert_allclose(vals, vals[0], rtol=1e-6)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 4, 2, 3, 3)).astype(np.float32)
        ws = nonlocal_weights(4, seed=4, zero_out=False)
        assert np.max(np.abs(tc.nonlocal_raw(x, *ws) - nonlocal_oracle(x, *ws))) <= 1e-5


class TestExtractFeatures:
    """Features are one GraphRunner run per clip, stacked [crops, T, D]; a
    snippet's rows depend on its clip alone, not on what the runner ran before."""

    @staticmethod
    def extract(runner, batches):
        return np.stack([runner.run(b.data)[0].data.copy() for b in batches], axis=1)

    def test_feature_shape_and_determinism(self):
        cfg = tiny_config()
        runner = go.GraphRunner(ex.build_extractor(cfg, seed=5))
        batches = [clip(cfg.input_shape, seed=i) for i in range(3)]
        f1 = self.extract(runner, batches)
        f2 = self.extract(runner, batches)
        assert f1.shape == (2, 3, 6)
        np.testing.assert_array_equal(f1, f2)

    def test_identical_snippets_identical_rows(self):
        cfg = tiny_config()
        runner = go.GraphRunner(ex.build_extractor(cfg, seed=6))
        f = self.extract(runner, [clip(cfg.input_shape, seed=7)] * 3)
        np.testing.assert_array_equal(f[:, 0], f[:, 1])
        np.testing.assert_array_equal(f[:, 0], f[:, 2])

    def test_permutation_equivariance(self):
        cfg = tiny_config()
        runner = go.GraphRunner(ex.build_extractor(cfg, seed=8))
        batches = [clip(cfg.input_shape, seed=10 + i) for i in range(4)]
        f = self.extract(runner, batches)
        perm = [2, 0, 3, 1]
        fp = self.extract(runner, [batches[i] for i in perm])
        np.testing.assert_array_equal(fp, f[:, perm])

    def test_shape_mismatch_names_snippet(self, monkeypatch):
        # the runner rejects a mis-shaped clip; the pipeline's extract stage
        # says which snippet it came from
        real = pl.prepare_clip

        def short_clip_at_2(video, plan, index, *args, **kw):
            clip = real(video, plan, index, *args, **kw)
            return clip[:, :-1] if index == 2 else clip

        monkeypatch.setattr(pl, "prepare_clip", short_clip_at_2)
        with pytest.raises(pl.PipelineStageError, match="stage 'extract' failed: snippet 2"):
            pl.run_pipeline(tiny_cfg())

    def test_desk_scale_full_clip_runs_and_is_finite(self):
        cfg = desk_scale_config()
        runner = go.GraphRunner(ex.build_extractor(cfg, seed=13))
        f = self.extract(runner, [clip(cfg.input_shape, seed=14)])
        assert f.shape == (10, 1, 32)
        assert np.all(np.isfinite(f))


class TestRunnerMemory:
    @pytest.mark.parametrize("fp16", [False, True])
    def test_planned_runner_holds_one_buffer_the_plan_sizes(self, fp16):
        g, plan = go.optimize(ex.build_extractor(desk_scale_config(), seed=0), do_fp16=fp16)
        runner = go.GraphRunner(g, plan)
        assert plan.arena_bytes == runner.static_bytes == runner.pool.nbytes
        assert [v for v in vars(runner).values() if isinstance(v, np.ndarray)] == [runner.pool]
        # every conv and non-local node's scratch is a planned entry
        scratch = [n for n in g.nodes if go.scratch_id(n) in plan.offsets]
        assert len(scratch) == len(g.nodes) - 1  # all but the gap node
        assert plan.peak_bytes <= plan.naive_bytes

    def test_planned_desk_run_makes_no_large_allocation(self):
        g, plan = go.optimize(ex.build_extractor(desk_scale_config(), seed=0))
        runner = go.GraphRunner(g, plan)
        # the arena: activations, and per node one padded input window and one column
        # slab (conv) or one block of logits rows (non-local), placed by lifetime
        assert runner.static_bytes < 64 * MIB
        # the stem's scratch is one slab's window and column buffer, not a padded
        # crop or the crop's whole im2col
        stem = next(n for n in g.nodes if n.kind.startswith("conv3d"))
        assert stem.attrs["stride"] == (2, 4, 4) and stem.attrs["pad"] == (1, 2, 2)
        w = g.meta[stem.inputs[0]].shape[-1]
        window = 4 * 3 * 3 * 81 * (w + 4)  # a slab of 20 output rows reads 3 planes and 81 rows
        assert 4 * plan.elems[go.scratch_id(stem)] <= window + tc.COL_SLAB_BYTES
        rng = np.random.default_rng(15)
        x = Tensor(rng.standard_normal(g.meta[g.inputs[0]].shape, dtype=np.float32))
        warm = runner.run(x)[0].data
        tracemalloc.start()
        try:
            again = runner.run(x)[0].data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(again, warm)
        # the non-local block's logits, one block of rows at a time, are planned
        # scratch; what is left is small temporaries
        assert peak < 1 * MIB

    def test_desk_clip_halves_plan_the_nonlocal_in_blocks(self):
        # nl_s1b0's planned scratch holds one [NL_ROWS,P] block of logits, not the [P,P] attention
        graph = pl._startup(pl.PipelineConfig(source=DEFAULT_SOURCE))[1]
        for crops in pl.CROP_HALVES:
            g = go.select_crops(graph, crops)
            (n,) = [n for n in g.nodes if n.kind == "nonlocal3d"]
            shape, p = g.meta[n.inputs[0]].shape, 4 * 14 * 14
            assert shape == (5, 16, 4, 14, 14)
            # theta, phi and g of the five crops, each with its extra row; one block; one crop's sums, row sums
            # and projection
            need = 3 * 5 * (8 + 1) * p + tc.NL_ROWS * p + p * (8 + 1 + 16)
            assert go.plan_memory(g).elems[go.scratch_id(n)] == tc.nonlocal_workspace_elems(shape, 8) == need
            assert need < p * p // 2

    def test_planned_clip_halves_make_no_large_allocation(self):
        self.check_clip_halves(DEFAULT_SOURCE)

    def test_planned_ppm_long_clip_halves_make_no_large_allocation(self):
        # 320x180 frames, resized to ppm_long's 256x455 clips, whose phase groups split at s0b0
        self.check_clip_halves({**DEFAULT_SOURCE, "width": 320, "height": 180})

    @staticmethod
    def check_clip_halves(source):
        # the crop halves run_pipeline runs: the clip-input graph _startup builds, whose trunk of
        # convs convolves each orientation's crops as shared boxes, in planned scratch
        graph = pl._startup(pl.PipelineConfig(source=source))[1]
        x = Tensor(np.random.default_rng(16).standard_normal(graph.meta[graph.inputs[0]].shape, dtype=np.float32))
        rows = go.execute(graph, x)[0].data
        for crops in pl.CROP_HALVES:
            g = go.select_crops(graph, crops)
            plan = go.plan_memory(g)
            trunk = [n for n in g.nodes if "size" in n.attrs]
            assert [n.attrs.get("boxed", False) for n in trunk] == [True, True, False]
            for n in trunk:
                w, b = (g.params[n.params[k]].shape for k in ("w", "b"))
                shape, need, _ = tc.conv3d_io(g.meta[n.inputs[0]].shape, w, b, n.attrs["stride"], n.attrs["pad"],
                                              n.attrs["dilation"], n.attrs["size"], crops, n.attrs.get("trunk"),
                                              n.attrs.get("boxed", False))
                assert n.attrs["crops"] == crops and plan.elems[go.scratch_id(n)] == need
                assert g.meta[n.output].shape == shape
            runner = go.GraphRunner(g, plan)
            warm = runner.run(x)[0].data
            tracemalloc.start()
            try:
                again = runner.run(x)[0].data
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            np.testing.assert_array_equal(again, warm)
            np.testing.assert_array_equal(again, rows[list(crops)])
            assert peak < 1 * MIB
