"""Anomaly-head tests: encoder contracts, scoring, loss oracle, gradient checks."""

import numpy as np
import pytest

from edgevad import autodiff as ad
from edgevad import rtfm
from edgevad.rtfm import (
    HeadConfig,
    MstnConfig,
    RtfmModel,
    TrainConfig,
    init_params,
    rtfm_loss,
    topk_indices,
)


def small_model(seed=0, in_dim=8, c=4, out_dim=6, hidden=(6, 4), use_tsa=True):
    mstn = MstnConfig(in_dim=in_dim, branch_channels=c, use_tsa=use_tsa, out_dim=out_dim)
    return RtfmModel(mstn=mstn, head=HeadConfig(hidden=hidden), seed=seed)


def identity_model(dim=2):
    """Delta-kernel single-branch encoder + a hand-built score head.

    X == F for nonnegative F; the score is a steep sigmoid of 50*F[:,0] - 25,
    so rows with F[:,0]=1 score ~1 and rows with F[:,0]=0 score ~0.
    """
    mstn = MstnConfig(in_dim=dim, branch_channels=dim, dilations=(1,), kernel=1,
                      use_tsa=False, fuse_kernel=1, out_dim=dim)
    head = HeadConfig(hidden=(1, 1))
    p = {
        "pdc0_w": np.eye(dim)[:, :, None].astype(np.float64),
        "pdc0_b": np.zeros(dim),
        "fuse_w": np.eye(dim)[:, :, None].astype(np.float64),
        "fuse_b": np.zeros(dim),
        "fc1_w": np.array([[1.0]] + [[0.0]] * (dim - 1)),
        "fc1_b": np.zeros(1),
        "fc2_w": np.array([[1.0]]),
        "fc2_b": np.zeros(1),
        "fc3_w": np.array([[50.0]]),
        "fc3_b": np.array([-25.0]),
    }
    return RtfmModel(mstn=mstn, head=head, params=p)


def tape_temporal(model, feats):
    """The encoder on the tape, as rtfm_loss runs it."""
    return rtfm.mstn_forward_var(model.param_vars(), model.mstn, feats).value


def tape_logits(model, x, mask=None):
    """Per-snippet pre-sigmoid logits on the tape; `mask` is inverted dropout."""
    return rtfm.snippet_logits_var(model.param_vars(), model.head, ad.as_var(np.asarray(x, np.float64)), mask).value[:, 0]


def tape_scores(model, x, mask=None):
    return ad.sigmoid(tape_logits(model, x, mask)).value


def loss_topk(x, k):
    """The loss's selection: the mean of the k largest l2 row magnitudes, and their rows."""
    mags = ad.l2_rows(np.asarray(x, np.float64)).value
    idx = topk_indices(mags, k)
    return float(mags[idx].mean()), idx.tolist()


class TestMstn:
    def test_zero_input_zero_biases_gives_zero(self):
        m = small_model(seed=1)
        x = tape_temporal(m, np.zeros((5, 8)))
        np.testing.assert_allclose(x, 0.0, atol=1e-12)

    def test_output_shape_contract(self):
        m = small_model(seed=2)
        x = tape_temporal(m, np.random.default_rng(0).normal(size=(7, 8)))
        assert x.shape == (7, 6)
        assert np.all(np.isfinite(x))

    def test_single_branch_delta_kernel_passthrough(self):
        m = identity_model(dim=3)
        f = np.abs(np.random.default_rng(1).normal(size=(6, 3)))
        np.testing.assert_allclose(tape_temporal(m, f), f, atol=1e-12)

    def test_dim_mismatch_rejected(self):
        m = small_model()
        with pytest.raises(ValueError, match="T,8"):
            tape_temporal(m, np.zeros((4, 5)))


class TestSnippetScores:
    def test_zero_weights_give_half(self):
        m = small_model(seed=3)
        for k in m.params:
            if k.startswith("fc"):
                m.params[k] = np.zeros_like(m.params[k])
        x = np.random.default_rng(2).normal(size=(5, 6))
        mask = rtfm.dropout_mask(np.random.default_rng(0), (5, m.head.hidden[1]), m.head.dropout)
        np.testing.assert_allclose(tape_scores(m, x, mask), 0.5)
        np.testing.assert_allclose(tape_scores(m, x), 0.5)

    def test_infer_deterministic(self):
        m = small_model(seed=4)
        x = np.random.default_rng(3).normal(size=(6, 6))
        a = tape_scores(m, x)
        b = tape_scores(m, x)
        np.testing.assert_array_equal(a, b)
        assert np.all((a >= 0) & (a <= 1))

    def test_mc_dropout_expectation_matches_infer_logits(self):
        # dropout is unbiased through the affine output layer, so the check runs
        # on pre-sigmoid logits (the sigmoid itself introduces a Jensen gap)
        m = small_model(seed=5)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 6))
        ref = tape_logits(m, x)
        draws = 10000
        samples = np.empty((draws, 4))
        for i in range(draws):
            mask = rtfm.dropout_mask(rng, (4, m.head.hidden[1]), m.head.dropout)
            samples[i] = tape_logits(m, x, mask)
        mc_mean = samples.mean(axis=0)
        mc_sem = samples.std(axis=0, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(mc_mean - ref) <= 3 * mc_sem + 1e-9)


class TestTopkMagnitude:
    def test_three_four_five(self):
        x = np.zeros((4, 2))
        x[2] = [3.0, 4.0]
        val, idx = loss_topk(x, 1)
        assert val == pytest.approx(5.0) and idx == [2]

    def test_all_rows_equal(self):
        x = np.tile([1.0, 2.0, 2.0], (6, 1))
        for k in (1, 3, 6):
            val, _ = loss_topk(x, k)
            assert val == pytest.approx(3.0)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 7))
        mags = sorted((float(np.sqrt((r * r).sum())) for r in x), reverse=True)
        val, idx = loss_topk(x, 3)
        assert val == pytest.approx(np.mean(mags[:3]))
        assert len(idx) == 3

    def test_permutation_invariance_of_value(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(9, 5))
        perm = rng.permutation(9)
        v1, _ = loss_topk(x, 4)
        v2, _ = loss_topk(x[perm], 4)
        assert v1 == pytest.approx(v2)

    def test_positive_scaling_keeps_index_set_and_scales_value(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(8, 6))
        v1, i1 = loss_topk(x, 3)
        v2, i2 = loss_topk(2.5 * x, 3)
        assert set(i1) == set(i2)
        assert v2 == pytest.approx(2.5 * v1)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            loss_topk(np.zeros((3, 2)), 4)


class TestLoss:
    def test_hinge_saturates_when_separated_by_margin(self):
        m = identity_model(dim=2)
        cfg = TrainConfig(k=1, margin=100.0)
        normal = [np.array([[0.0, 0.1]] * 4)]
        abnormal = [np.array([[1.0, 200.0]] * 4)]
        loss, _, parts = rtfm_loss(m, normal, abnormal, cfg)
        assert parts["margin"] == 0.0

    def test_perfect_scores_drive_bce_to_clamp(self):
        m = identity_model(dim=2)
        cfg = TrainConfig(k=1, margin=100.0)
        normal = [np.array([[0.0, 0.1]] * 4)]      # score sigmoid(-25) ~ 0
        abnormal = [np.array([[1.0, 200.0]] * 4)]  # score sigmoid(+25) ~ 1
        loss, _, parts = rtfm_loss(m, normal, abnormal, cfg)
        assert parts["bce"] <= 1e-6
        assert loss <= 1e-6

    def test_k_exceeding_snippets_rejected(self):
        m = small_model(seed=8)
        cfg = TrainConfig(k=10)
        with pytest.raises(ValueError, match="k=10"):
            rtfm_loss(m, [np.zeros((4, 8))], [np.zeros((4, 8))], cfg)

    def test_empty_batch_rejected(self):
        m = small_model(seed=9)
        with pytest.raises(ValueError, match="nonempty"):
            rtfm_loss(m, [], [np.zeros((4, 8))], TrainConfig(k=2))


def _loss_value(model, nb, ab, cfg, masks):
    """The objective's value, without the backward pass rtfm_loss adds."""
    return float(rtfm.rtfm_objective(model, nb, ab, cfg, masks=masks)[0].value)


def _fd_coord(model, nb, ab, cfg, masks, key, j, h):
    flat = model.params[key].reshape(-1)
    orig = flat[j]
    flat[j] = orig + h
    lp = _loss_value(model, nb, ab, cfg, masks)
    flat[j] = orig - h
    lm = _loss_value(model, nb, ab, cfg, masks)
    flat[j] = orig
    return (lp - lm) / (2 * h)


def _rel_err(a, f):
    return abs(a - f) / max(1.0, abs(a), abs(f))


def gradcheck_instance(seed, with_dropout=True, t=5, videos=1, h=1e-3, rtol=1e-4):
    """Central-difference check of every parameter gradient on one instance.

    Float64 forward, h=1e-3 primary stencil. A coordinate whose stencil
    straddles a relu/top-k kink is re-checked at h/10 and h/100: a genuine
    backward bug persists under refinement, a stencil artifact vanishes.
    The instance is resampled if the top-k gap or hinge slack sits within
    stencil reach (those kinks shift every coordinate at once).
    """
    rng = np.random.default_rng(seed)
    for _ in range(20):
        model = small_model(seed=int(rng.integers(1 << 30)))
        # zero-initialized biases put relu preactivations exactly on the kink
        # (zeroed hidden row -> preact == bias == 0); the check needs generic
        # parameters, so every zero-init tensor gets a small random offset
        for p in model.params.values():
            p += rng.normal(scale=0.05, size=p.shape)
        cfg = TrainConfig(k=2, margin=float(rng.uniform(0.5, 2.0)))
        nb = [rng.normal(size=(t, 8)) for _ in range(videos)]
        ab = [rng.normal(size=(t, 8)) * rng.uniform(1.0, 2.0) for _ in range(videos)]
        masks = None
        if with_dropout:
            masks = [rtfm.dropout_mask(rng, (t, model.head.hidden[1]), model.head.dropout)
                     for _ in range(2 * videos)]
        pv = {k: rtfm.Var(v) for k, v in model.params.items()}
        tops = []
        safe = True
        for f in nb + ab:
            x = rtfm.mstn_forward_var(pv, model.mstn, f)
            mags = np.sort(np.sqrt((x.value ** 2).sum(axis=1)))[::-1]
            if mags[cfg.k - 1] - mags[cfg.k] < 0.05:
                safe = False
            tops.append(mags[: cfg.k].mean())
        for j in range(videos):
            if abs(cfg.margin - tops[videos + j] + tops[j]) < 0.05:
                safe = False
        if not safe:
            continue
        _, grads, _ = rtfm_loss(model, nb, ab, cfg, masks=masks)
        worst = 0.0
        for key in grads:
            an_flat = grads[key].reshape(-1)
            for j in range(an_flat.size):
                an = an_flat[j]
                err = _rel_err(an, _fd_coord(model, nb, ab, cfg, masks, key, j, h))
                for h_ref in (h / 10, h / 100):
                    if err <= rtol:
                        break
                    err = _rel_err(an, _fd_coord(model, nb, ab, cfg, masks, key, j, h_ref))
                if err > worst:
                    worst = err
        return worst
    raise RuntimeError("could not find a kink-safe instance")


class TestGradients:
    @pytest.mark.parametrize("seed", range(6))
    def test_analytic_matches_central_differences(self, seed):
        assert gradcheck_instance(seed, with_dropout=True) <= 1e-4

    def test_gradcheck_without_dropout(self):
        assert gradcheck_instance(1234, with_dropout=False) <= 1e-4


class TestTraining:
    def _tiny_dataset(self, seed=0):
        data, _ = rtfm.make_magnitude_dataset(
            n_normal=6, n_abnormal=6, snippets=12, dim=8, scale=3.0, anomaly_rows=3, seed=seed
        )
        return data

    def test_zero_learning_rate_keeps_params(self):
        data = self._tiny_dataset()
        cfg = TrainConfig(learning_rate=0.0, batch_size=4, epochs=2, k=2, seed=1)
        res = rtfm.train(data, cfg, mstn=MstnConfig(in_dim=8, branch_channels=4, out_dim=6),
                         head=HeadConfig(hidden=(6, 4)))
        fresh = init_params(res.model.mstn, res.model.head, seed=cfg.seed)
        for k in fresh:
            np.testing.assert_array_equal(res.model.params[k], fresh[k])

    def test_training_is_seed_deterministic(self):
        data = self._tiny_dataset()
        cfg = TrainConfig(batch_size=4, epochs=3, k=2, seed=2)
        mstn = MstnConfig(in_dim=8, branch_channels=4, out_dim=6)
        head = HeadConfig(hidden=(6, 4))
        r1 = rtfm.train(data, cfg, mstn=mstn, head=head)
        r2 = rtfm.train(data, cfg, mstn=mstn, head=head)
        assert r1.epoch_losses == r2.epoch_losses
        for k in r1.model.params:
            np.testing.assert_array_equal(r1.model.params[k], r2.model.params[k])

    def test_losses_finite_and_curve_csv(self):
        data = self._tiny_dataset(seed=3)
        cfg = TrainConfig(batch_size=4, epochs=4, k=2, seed=3)
        res = rtfm.train(data, cfg, mstn=MstnConfig(in_dim=8, branch_channels=4, out_dim=6),
                         head=HeadConfig(hidden=(6, 4)))
        assert all(np.isfinite(l) for l in res.epoch_losses)
        csv = res.loss_curve_csv()
        assert csv.startswith("epoch,loss") and csv.count("\n") == 5

    @pytest.mark.parametrize("rows", [0, 13])
    def test_anomaly_rows_outside_snippets_rejected(self, rows):
        with pytest.raises(ValueError, match=r"anomaly_rows must lie in \[1, snippets=12\]"):
            rtfm.make_magnitude_dataset(n_normal=2, n_abnormal=2, snippets=12, anomaly_rows=rows)
        data, planted = rtfm.make_magnitude_dataset(n_normal=0, n_abnormal=2, snippets=12, anomaly_rows=12)
        assert all(len(r) == 12 for r in planted)

    def test_single_class_dataset_rejected(self):
        with pytest.raises(ValueError, match="both"):
            rtfm.train([(np.zeros((4, 8)), 0)], TrainConfig(epochs=1))


class TestVideoScore:
    def test_identical_crops_average_is_identity(self):
        m = small_model(seed=10)
        rng = np.random.default_rng(8)
        f = rng.normal(size=(5, 8))
        single = rtfm.video_score(f, m)
        stacked = rtfm.video_score(np.stack([f, f, f]), m)
        np.testing.assert_allclose(stacked, single, atol=1e-12)

    def test_scores_bounded(self):
        m = small_model(seed=11)
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = rtfm.video_score(rng.normal(size=(6, 8)) * rng.uniform(0.1, 30), m)
            assert np.all((s >= 0) & (s <= 1))

    def test_equals_mean_of_per_crop_scores(self):
        m = small_model(seed=12)
        rng = np.random.default_rng(10)
        crops = rng.normal(size=(4, 5, 8))
        got = rtfm.video_score(crops, m)
        want = np.mean([rtfm.video_score(crops[c], m) for c in range(4)], axis=0)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rejects_other_ranks(self):
        m = small_model(seed=12)
        for shape in [(8,), (1, 2, 5, 8)]:
            with pytest.raises(ValueError, match=r"expected \[T,D\] or \[crops,T,D\]"):
                rtfm.video_score(np.zeros(shape), m)

    def test_anomaly_score_matches_tape_composition(self):
        """Graph head vs the tape: same top-k snippets, score within float32
        error, on every seed whose k-th and (k+1)-th magnitudes are 1e-3 apart."""
        k, checked = 3, 0
        for seed in range(12):
            m = small_model(seed=seed)
            rng = np.random.default_rng(100 + seed)
            for name, v in m.params.items():
                if name.endswith("_b") or name == "tsa_o":  # zero at init; make them count
                    m.params[name] = rng.normal(scale=0.5, size=v.shape)
            crops = rng.normal(size=(3, 12, 8)) * rng.uniform(0.5, 3.0, size=(1, 12, 1))
            xs = [tape_temporal(m, c) for c in crops]
            mags = np.mean([np.sqrt((x ** 2).sum(axis=1)) for x in xs], axis=0)
            top = np.sort(mags)[::-1]
            if top[k - 1] - top[k] <= 1e-3:
                continue
            checked += 1
            want_idx = np.argsort(-mags, kind="stable")[:k]
            scores = np.mean([tape_scores(m, x) for x in xs], axis=0)
            assert abs(rtfm.video_anomaly_score(crops, m, k=k) - scores[want_idx].mean()) <= 1e-5
            _, gxs = rtfm._head_forward(crops, m)
            gmags = np.sqrt((gxs.astype(np.float64) ** 2).sum(axis=2)).mean(axis=0)
            np.testing.assert_array_equal(np.argsort(-gmags, kind="stable")[:k], want_idx)
        assert checked >= 8

    def test_anomaly_score_rejects_k_above_snippet_count(self):
        """The video score takes k through topk_indices, as the loss does: no clamp to T."""
        m = small_model(seed=13)
        feats = np.random.default_rng(13).normal(size=(2, 8))
        assert np.isfinite(rtfm.video_anomaly_score(feats, m, k=2))
        with pytest.raises(ValueError, match=r"k=3 out of range \[1, 2\]"):
            rtfm.video_anomaly_score(feats, m, k=3)
        with pytest.raises(ValueError, match=r"k=5 out of range \[1, 2\]"):
            rtfm.training_auc(m, [(feats, 0), (feats, 1)], k=5)

    def test_inference_never_runs_the_tape(self, monkeypatch):
        from edgevad.pipeline import run_sequential

        from helpers import tiny_cfg

        data, _ = rtfm.make_magnitude_dataset(n_normal=3, n_abnormal=3, snippets=8, dim=8, seed=4)
        model = small_model(seed=4)

        def boom(*a, **kw):
            raise AssertionError("inference ran the autodiff tape")

        monkeypatch.setattr(rtfm, "mstn_forward_var", boom)
        monkeypatch.setattr(rtfm, "snippet_logits_var", boom)
        res = run_sequential(tiny_cfg())
        assert len(res.records) == 4
        assert 0.0 <= rtfm.training_auc(model, data) <= 1.0

    def test_training_auc_builds_one_head_per_snippet_count(self, monkeypatch):
        from edgevad.metrics import roc_auc

        data, _ = rtfm.make_magnitude_dataset(n_normal=3, n_abnormal=3, snippets=8, dim=8, seed=5)
        data += [(f[:6], y) for f, y in data[2:4]]  # a second snippet count
        model = small_model(seed=5)
        want = roc_auc([rtfm.video_anomaly_score(f, model, k=2) for f, _ in data], [y for _, y in data])
        built = []
        real = rtfm.head_graph
        monkeypatch.setattr(rtfm, "head_graph", lambda m, t, crops: built.append((crops, t)) or real(m, t, crops))
        assert rtfm.training_auc(model, data, k=2) == want
        assert sorted(built) == [(1, 6), (1, 8)]


HEAD_KINDS = {"conv3d", "bias_add", "relu", "nonlocal3d", "concat", "sigmoid"}


def biased_model(seed, rng):
    """RtfmModel(seed=seed) with random biases and attention output
    projection, which are zero at init."""
    model = RtfmModel(seed=seed)
    for name, v in model.params.items():
        if name.endswith("_b") or name == "tsa_o":
            model.params[name] = rng.normal(scale=0.5, size=v.shape)
    return model


def head_input(feats):
    """The [crops,D,T,1,1] head_graph input of [crops,T,D] features."""
    from edgevad.tensor import Tensor

    return Tensor(np.asarray(feats, np.float32).transpose(0, 2, 1)[..., None, None])


class TestHeadGraph:
    @pytest.mark.parametrize("seed", range(5))
    def test_graph_matches_autodiff_forward(self, seed):
        """head_graph on GraphRunner, plain and fused+planned, scores as the tape does."""
        from edgevad import graphopt as go

        rng = np.random.default_rng(seed)
        model = biased_model(seed, rng)
        t = 32
        feats = rng.normal(size=(t, model.mstn.in_dim))
        g = rtfm.head_graph(model, t)
        assert {n.kind for n in g.nodes} == HEAD_KINDS
        x = head_input(feats[None])
        plain = [o.data for o in go.GraphRunner(g).run(x)]
        assert [p.shape for p in plain] == [(1, 1, t, 1, 1), (1, model.mstn.out_dim, t, 1, 1)]
        opt, plan = go.optimize(g, do_fuse=True, do_memplan=True)
        assert ("conv3d", True) in {(n.kind, n.attrs.get("relu", False)) for n in opt.nodes}
        fused = [o.data for o in go.GraphRunner(opt, plan).run(x)]
        temporal = tape_temporal(model, feats)
        np.testing.assert_allclose(plain[0][0, 0, :, 0, 0], tape_scores(model, temporal), rtol=0, atol=1e-5)
        np.testing.assert_allclose(plain[1][0, :, :, 0, 0].T, temporal, rtol=1e-6, atol=1e-5)
        for a, b in zip(fused, plain):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", range(3))
    def test_batched_crops_equal_per_crop_runs(self, seed, monkeypatch):
        """One run over ten crops gives each crop the bits of its own run,
        plain and fused+planned alike; _head_forward makes that one run."""
        from edgevad import graphopt as go

        rng = np.random.default_rng(50 + seed)
        model = biased_model(seed, rng)
        feats = rng.normal(size=(10, 12, model.mstn.in_dim))
        g = rtfm.head_graph(model, 12, crops=10)
        plain = [o.data for o in go.GraphRunner(g).run(head_input(feats))]
        one = go.GraphRunner(rtfm.head_graph(model, 12))
        for c in range(10):
            for whole, alone in zip(plain, one.run(head_input(feats[c:c + 1]))):
                np.testing.assert_array_equal(whole[c:c + 1], alone.data)
        opt, plan = go.optimize(g, do_fuse=True, do_memplan=True)
        for a, b in zip(go.GraphRunner(opt, plan).run(head_input(feats)), plain):
            np.testing.assert_array_equal(a.data, b)
        runs = []
        real = go.GraphRunner.run
        monkeypatch.setattr(go.GraphRunner, "run", lambda self, xs: runs.append(1) or real(self, xs))
        scores, xs = rtfm._head_forward(feats, model)
        assert len(runs) == 1
        np.testing.assert_array_equal(scores, plain[0][:, 0, :, 0, 0])
        np.testing.assert_array_equal(xs, plain[1][..., 0, 0].transpose(0, 2, 1))

    @pytest.mark.parametrize("field", ["kernel", "fuse_kernel"])
    def test_even_kernel_rejected(self, field):
        model = RtfmModel(mstn=MstnConfig(in_dim=8, branch_channels=4, out_dim=6, **{field: 2}))
        with pytest.raises(ValueError, match="even kernel size k=2"):
            rtfm.head_graph(model, 5)
