"""Extractor tests: config contracts, non-local oracle, feature rows and memory."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from edgevad import extractor as ex
from edgevad import graphopt as go
from edgevad import pipeline as pl
from edgevad import tensor as tc
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
        assert fused.nodes[0].kind == "ten_crop_conv3d_bias_relu"
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
        # the arena: activations, and per node one padded stem item and one column slab
        # (conv) or one [P,P] logits buffer (non-local), placed by lifetime
        assert runner.static_bytes < 64 * MIB
        # the stem's column buffer is one slab, not the stem item's whole im2col
        stem = next(n for n in g.nodes if n.kind.startswith("conv3d"))
        c, d, h, w = g.meta[stem.inputs[0]].shape[1:]
        pd, ph, pw = stem.attrs["pad"]
        padded_item = 4 * c * (d + 2 * pd) * (h + 2 * ph) * (w + 2 * pw)
        assert 4 * plan.elems[go.scratch_id(stem)] <= padded_item + tc.COL_SLAB_BYTES
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
        # the non-local block's [784,784] logits (2.35 MiB) are planned scratch;
        # what is left is small per-item temporaries
        assert peak < 1 * MIB
