"""Kernel tests: brute-force loop oracles, hand-computed values, and properties.

Each test calls what the program runs: a `tensor.*_raw` kernel, a graph node
through the executor, the autodiff tape's l2 rows, or rtfm's one top-k.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgevad import autodiff as ad
from edgevad import graphopt as go
from edgevad import tensor as tc
from edgevad.rtfm import topk_indices
from edgevad.tensor import F16, F32, ShapeError, Tensor
from edgevad.videopre import ten_crop

from helpers import conv3d_rowmajor_ref


# ---------------------------------------------------------------------------
# independent oracles (nested loops, no shared code with the kernels)
# ---------------------------------------------------------------------------

def conv3d_loops(x, w, b, stride, pad, dilation):
    n, c, d, h, wi = x.shape
    o, _, kd, kh, kw = w.shape
    sd, sh, sw = stride
    pd, ph, pw = pad
    dd, dh, dw = dilation
    od = (d + 2 * pd - ((kd - 1) * dd + 1)) // sd + 1
    oh = (h + 2 * ph - ((kh - 1) * dh + 1)) // sh + 1
    ow = (wi + 2 * pw - ((kw - 1) * dw + 1)) // sw + 1
    out = np.zeros((n, o, od, oh, ow))
    for ni in range(n):
        for oi in range(o):
            for zi in range(od):
                for yi in range(oh):
                    for xi in range(ow):
                        acc = 0.0 if b is None else float(b[oi])
                        for ci in range(c):
                            for a in range(kd):
                                for bb in range(kh):
                                    for cc in range(kw):
                                        z = zi * sd + a * dd - pd
                                        y = yi * sh + bb * dh - ph
                                        xx = xi * sw + cc * dw - pw
                                        if 0 <= z < d and 0 <= y < h and 0 <= xx < wi:
                                            acc += float(x[ni, ci, z, y, xx]) * float(w[oi, ci, a, bb, cc])
                        out[ni, oi, zi, yi, xi] = acc
    return out


def conv1d_loops(x, w, dilation):
    c, t = x.shape
    o, _, k = w.shape
    half = (k - 1) * dilation // 2
    out = np.zeros((o, t))
    for oi in range(o):
        for ti in range(t):
            acc = 0.0
            for ci in range(c):
                for j in range(k):
                    src = ti + j * dilation - half
                    if 0 <= src < t:
                        acc += float(x[ci, src]) * float(w[oi, ci, j])
            out[oi, ti] = acc
    return out


def l2_loops(f):
    out = []
    for row in f:
        s = 0.0
        for v in row:
            s += float(v) * float(v)
        out.append(s ** 0.5)
    return np.array(out)


def topk_sort_oracle(values, k):
    pairs = sorted(((-float(v), i) for i, v in enumerate(values)))
    return [i for _, i in pairs[:k]], [-nv for nv, _ in pairs[:k]]


def softmax64(x):
    e = np.exp(x.astype(np.float64) - x.max())
    return e / e.sum()


def rel_err(a, b):
    denom = max(np.max(np.abs(b)), 1e-12)
    return np.max(np.abs(a - b)) / denom


# ---------------------------------------------------------------------------
# conv3d
# ---------------------------------------------------------------------------

ONES, ZEROS = (1, 1, 1), (0, 0, 0)


def f32(a):
    return np.asarray(a, dtype=np.float32)


class TestConv3d:
    def test_all_zero_input_gives_zero_output(self):
        x = np.zeros((1, 2, 3, 4, 4), np.float32)
        w = f32(np.random.default_rng(0).normal(size=(3, 2, 2, 2, 2)))
        out = tc.conv3d_raw(x, w, np.zeros(3, np.float32), ONES, ZEROS, ONES)
        assert np.all(out == 0.0)

    def test_identity_kernel(self):
        x = f32(np.random.default_rng(1).normal(size=(1, 1, 3, 4, 4)))
        out = tc.conv3d_raw(x, np.ones((1, 1, 1, 1, 1), np.float32), None, ONES, ZEROS, ONES)
        np.testing.assert_array_equal(out, x)

    def test_matches_loop_oracle_on_spec_shape(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 3, 4, 4)).astype(np.float32)
        w = rng.normal(size=(2, 2, 2, 2, 2)).astype(np.float32)
        b = rng.normal(size=(2,)).astype(np.float32)
        got = tc.conv3d_raw(x, w, b, ONES, ZEROS, ONES)
        want = conv3d_loops(x, w, b, ONES, ZEROS, ONES)
        assert rel_err(got, want) <= 1e-6

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_loop_oracle_randomized(self, seed):
        rng = np.random.default_rng(seed)
        n, c = rng.integers(1, 3), rng.integers(1, 4)
        d, h, w_ = rng.integers(1, 5), rng.integers(1, 9), rng.integers(1, 9)
        kd, kh, kw = rng.integers(1, d + 1), rng.integers(1, h + 1), rng.integers(1, w_ + 1)
        o = rng.integers(1, 4)
        stride = tuple(int(s) for s in rng.integers(1, 3, size=3))
        pad = tuple(int(p) for p in rng.integers(0, 2, size=3))
        x = rng.normal(size=(n, c, d, h, w_)).astype(np.float32)
        wt = rng.normal(size=(o, c, kd, kh, kw)).astype(np.float32)
        b = rng.normal(size=(o,)).astype(np.float32) if seed % 2 else None
        want = conv3d_loops(x, wt, b, stride, pad, ONES)
        if min(want.shape[2:]) < 1:
            return
        assert rel_err(tc.conv3d_raw(x, wt, b, stride, pad, ONES), want) <= 1e-6

    def test_dilated_matches_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 2, 6, 7, 7)).astype(np.float32)
        w = rng.normal(size=(2, 2, 2, 3, 3)).astype(np.float32)
        got = tc.conv3d_raw(x, w, None, ONES, (1, 2, 2), (2, 2, 2))
        want = conv3d_loops(x, w, None, ONES, (1, 2, 2), (2, 2, 2))
        assert rel_err(got, want) <= 1e-6

    def test_channel_mismatch_names_axis(self):
        x = np.zeros((1, 2, 3, 3, 3), np.float32)
        w = np.zeros((1, 3, 1, 1, 1), np.float32)
        with pytest.raises(ShapeError, match="channel axis"):
            tc.conv3d_raw(x, w, None, ONES, ZEROS, ONES)

    def test_collapsed_output_axis_rejected(self):
        x = np.zeros((1, 1, 2, 2, 2), np.float32)
        w = np.zeros((1, 1, 3, 1, 1), np.float32)
        with pytest.raises(ShapeError, match="depth"):
            tc.conv3d_raw(x, w, None, ONES, ZEROS, ONES)


# ---------------------------------------------------------------------------
# extractor kernels against the row-major-im2col and batched references
# ---------------------------------------------------------------------------

# per-item input shape, weight shape, stride, pad of the desk extractor's convs
DESK_CONVS = {
    "stem": ((3, 16, 224, 224), (8, 3, 3, 5, 5), (2, 4, 4), (1, 2, 2)),
    "s0b0": ((8, 8, 56, 56), (8, 8, 3, 3, 3), (1, 2, 2), (1, 1, 1)),
    "s1b0": ((8, 8, 28, 28), (16, 8, 3, 3, 3), (2, 2, 2), (1, 1, 1)),
}


def random_conv_case(seed):
    """Random conv3d arguments; every fifth seed has a full-extent kernel
    (a 1x1x1 output), the others mix padding, strides and dilation."""
    rng = np.random.default_rng(seed)
    n, c, o = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 6))
    d, h, w = (int(v) for v in rng.integers(1, 9, size=3))
    if seed % 5 == 0:
        kernel, stride, pad, dil = (d, h, w), (1, 1, 1), (0, 0, 0), (1, 1, 1)
    else:
        stride = tuple(int(v) for v in rng.integers(1, 4, size=3))
        pad = tuple(int(v) for v in rng.integers(0, 3, size=3)) if seed % 2 else (0, 0, 0)
        dil = tuple(int(v) for v in rng.integers(1, 3, size=3))
        kernel = tuple(
            int(rng.integers(1, min(4, (e + 2 * p - 1) // dl + 1) + 1)) for e, p, dl in zip((d, h, w), pad, dil)
        )
    x = rng.normal(size=(n, c, d, h, w)).astype(np.float32)
    wt = rng.normal(size=(o, c) + kernel).astype(np.float32)
    b = rng.normal(size=(o,)).astype(np.float32) if seed % 3 else None
    return x, wt, b, stride, pad, dil, bool(seed % 4)


def conv3d_both_ways(x, w, b, stride, pad, dil, relu, out_shape):
    """The kernel without scratch, and with a NaN-filled workspace and out."""
    plain = tc.conv3d_raw(x, w, b, stride, pad, dil, relu=relu)
    ws = np.full(tc.conv3d_workspace_elems(x.shape, out_shape, w.shape[1], w.shape[2:], pad) + 3, np.nan, np.float32)
    out = np.full(out_shape, np.nan, np.float32)
    pooled = tc.conv3d_raw(x, w, b, stride, pad, dil, relu=relu, out=out, workspace=ws)
    assert pooled is out
    return plain, pooled


class TestKernelReferences:
    @pytest.mark.parametrize("seed", range(60))
    def test_conv3d_matches_rowmajor_reference(self, seed):
        x, w, b, stride, pad, dil, relu = random_conv_case(seed)
        ref = conv3d_rowmajor_ref(x, w, b, stride, pad, dil, relu)
        plain, pooled = conv3d_both_ways(x, w, b, stride, pad, dil, relu, ref.shape)
        np.testing.assert_array_equal(plain, pooled)
        # the GEMM now has the weight as its left operand; BLAS may sum the K
        # products of a small GEMM in another order, so allow the reordering
        # bound of a K-term float32 sum (plus one rounding of the bias add)
        k = w[0].size
        absconv = conv3d_rowmajor_ref(np.abs(x), np.abs(w), None, stride, pad, dil)
        eps = np.finfo(np.float32).eps
        assert np.all(np.abs(plain - ref) <= 2 * eps * (k * absconv + np.abs(ref)))

    @pytest.mark.parametrize("name", sorted(DESK_CONVS))
    def test_conv3d_bitwise_on_desk_shapes(self, name):
        item, wshape, stride, pad = DESK_CONVS[name]
        rng = np.random.default_rng(len(name))
        x = rng.standard_normal((10,) + item, dtype=np.float32)
        w = rng.standard_normal(wshape, dtype=np.float32) * np.float32(0.1)
        b = rng.standard_normal(wshape[0], dtype=np.float32)
        ref = conv3d_rowmajor_ref(x, w, b, stride, pad, (1, 1, 1), relu=True)
        for got in conv3d_both_ways(x, w, b, stride, pad, (1, 1, 1), True, ref.shape):
            np.testing.assert_array_equal(got, ref)

    def test_nonlocal_rejects_small_workspace(self):
        x = np.ones((1, 2, 3, 3), np.float32)
        ws = [np.ones(s, np.float32) for s in ((2, 1), (2, 1), (2, 1), (1, 2))]
        # theta, phi and g, each with its extra row (54), one block of logits (81), sums, row sums and projection (36)
        assert tc.nonlocal_workspace_elems(x.shape, 1) == 171
        with pytest.raises(ShapeError, match="workspace holds 170 floats, needs 171"):
            tc.nonlocal_raw(x, *ws, workspace=np.empty(170, np.float32))

    def test_conv3d_rejects_small_workspace_and_strided_out(self):
        x = np.ones((2, 1, 3, 4, 4), np.float32)
        w = np.ones((2, 1, 3, 3, 3), np.float32)
        need = tc.conv3d_workspace_elems(x.shape, (2, 2, 3, 4, 4), 1, (3, 3, 3), (1, 1, 1))
        with pytest.raises(ShapeError, match="workspace"):
            tc.conv3d_raw(x, w, None, (1, 1, 1), (1, 1, 1), (1, 1, 1), workspace=np.empty(need - 1, np.float32))
        strided = np.empty((2, 2, 3, 4, 8), np.float32)[..., ::2]
        with pytest.raises(ShapeError, match="C-contiguous"):
            tc.conv3d_raw(x, w, None, (1, 1, 1), (1, 1, 1), (1, 1, 1), out=strided)
        # with a crop `size`, a workspace one float short of the boxes' need is rejected too
        clip = np.ones((1, 3, 6, 9), np.float32)
        need = tc.conv3d_workspace_elems(clip.shape, (10, 2, 3, 4, 4), 1, (3, 3, 3), (1, 1, 1), stride=(1, 1, 1),
                                         dilation=(1, 1, 1), size=4, crops=None)
        with pytest.raises(ShapeError, match="workspace"):
            tc.conv3d_raw(clip, w, None, (1, 1, 1), (1, 1, 1), (1, 1, 1),
                          workspace=np.empty(need - 1, np.float32), size=4)


def nonlocal64(x, wt, wp, wg, wo):
    """The non-local block in float64: each item's [P,P] attention at once."""
    n, c = x.shape[:2]
    flat = x.reshape(n, c, -1).transpose(0, 2, 1).astype(np.float64)  # [n,P,c]
    theta, phi, g = (flat @ w.astype(np.float64) for w in (wt, wp, wg))
    logits = theta @ phi.transpose(0, 2, 1) / np.sqrt(wt.shape[1])
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    y = (e / e.sum(axis=-1, keepdims=True)) @ g @ wo.astype(np.float64)  # [n,P,c]
    return x + y.transpose(0, 2, 1).reshape(x.shape)


def nonlocal_case(rng, n, c, spatial, scale=None):
    """A float32 input and weights with a non-zero output projection, Ci = C/2,
    the weights at `scale` (the extractor's C**-0.5 when None)."""
    ci = max(1, c // 2)
    x = rng.standard_normal((n, c) + tuple(spatial), dtype=np.float32)
    ws = [rng.normal(scale=scale or c ** -0.5, size=s).astype(np.float32) for s in ((c, ci),) * 3 + ((ci, c),)]
    return x, ws


def check_nonlocal(x, ws, bound=2e-6):
    """nonlocal_raw within `bound` * (1 + max|ref|) of the float64 block, the
    same bits into a NaN-filled out with a NaN-filled oversized workspace and
    in place; returns the result."""
    ref = nonlocal64(x, *ws)
    got = tc.nonlocal_raw(x, *ws)
    assert np.max(np.abs(got - ref)) <= bound * (1 + np.max(np.abs(ref)))
    out = np.full(x.shape, np.nan, np.float32)
    work = np.full(tc.nonlocal_workspace_elems(x.shape, ws[0].shape[1]) + 5, np.nan, np.float32)
    assert tc.nonlocal_raw(x, *ws, out=out, workspace=work) is out
    np.testing.assert_array_equal(out, got)
    inplace = x.copy()
    np.testing.assert_array_equal(tc.nonlocal_raw(inplace, *ws, out=inplace, workspace=work), got)
    return got


class TestNonlocalBlocks:
    """nonlocal_raw, which attends in blocks of NL_ROWS query rows, against a
    float64 oracle with a non-zero output projection. The bits depend on the
    block size (a GEMM's M changes its order of summation), so the bound is
    2e-6 * (1 + max|ref|), about twice the worst error seen on 200 random
    shapes."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_shapes_match_float64(self, seed):
        rng = np.random.default_rng(seed)
        spatial = rng.integers(1, 10, size=int(rng.integers(1, 4)))
        check_nonlocal(*nonlocal_case(rng, int(rng.integers(1, 4)), int(rng.integers(1, 17)), spatial))

    # one position, below one block, one block, a block and a part, whole blocks
    @pytest.mark.parametrize("p", [1, 27, tc.NL_ROWS, tc.NL_ROWS + 72, 2 * tc.NL_ROWS])
    def test_block_edges(self, p):
        check_nonlocal(*nonlocal_case(np.random.default_rng(p), 3, 6, (p,)))

    def test_desk_shape(self):
        # s1b0's [16,4,14,14] output: P = 784 is six blocks and 16 rows
        check_nonlocal(*nonlocal_case(np.random.default_rng(5), 10, 16, (4, 14, 14)))

    # A block is exponentiated shifted by b_r = |theta_r| max_j |phi_j| while every b_r <= NL_SHIFT; one with a
    # larger b_r, or whose shifted exp underflows (or gives NaN), takes the logits less their row max. Larger
    # weights raise b: at the extractor's scale no block takes the row max, at unit and 3x scale nearly all do.
    # Their logits are larger, and so is the float32 rounding: these bounds are ones the kernel that always
    # subtracts the row max meets on the same inputs.
    LARGE = [(1.0, 2e-5), (3.0, 1e-4)]

    @staticmethod
    def passes(monkeypatch, x, ws):
        """Per block pass of nonlocal_raw on x (one np.exp call each): True where it exponentiates the logits
        less their row max, each row's largest then being 0, and False where the logits less b."""
        calls, exp = [], np.exp

        def spy(a, *args, **kw):
            calls.append(bool((a.max(axis=1) == 0).all()))
            return exp(a, *args, **kw)

        with monkeypatch.context() as m:
            m.setattr(np, "exp", spy)
            tc.nonlocal_raw(x, *ws)
        return calls

    @pytest.mark.parametrize("scale, bound", LARGE)
    @pytest.mark.parametrize("seed", range(12))
    def test_large_weights_match_float64(self, seed, scale, bound):
        rng = np.random.default_rng(100 + seed)
        spatial = rng.integers(1, 12, size=int(rng.integers(1, 4)))
        check_nonlocal(*nonlocal_case(rng, int(rng.integers(1, 4)), int(rng.integers(2, 17)), spatial, scale), bound)

    @pytest.mark.parametrize("scale, bound", LARGE)
    def test_desk_shape_at_large_weights(self, scale, bound):
        check_nonlocal(*nonlocal_case(np.random.default_rng(6), 3, 16, (4, 14, 14), scale), bound)

    def test_every_block_shifted_at_the_extractors_scale(self, monkeypatch):
        x, ws = nonlocal_case(np.random.default_rng(5), 2, 16, (4, 14, 14))
        assert self.passes(monkeypatch, x, ws) == [False] * 14

    def test_every_block_takes_the_row_max(self, monkeypatch):
        # at 3x every b_r is far above NL_SHIFT: each block takes the row max at once, with no shifted pass
        x, ws = nonlocal_case(np.random.default_rng(8), 2, 16, (4, 14, 14), 3.0)
        assert self.passes(monkeypatch, x, ws) == [True] * 14
        assert np.isfinite(check_nonlocal(x, ws, 1e-4)).all()

    def test_some_blocks_take_the_row_max(self, monkeypatch):
        # the first block's query rows are small, and so is their shift; the second's are large
        x, ws = nonlocal_case(np.random.default_rng(9), 1, 8, (2 * tc.NL_ROWS,), 1.0)
        x[..., :tc.NL_ROWS] *= np.float32(0.01)
        x[..., tc.NL_ROWS:] *= np.float32(4.0)
        assert self.passes(monkeypatch, x, ws) == [False, True]
        check_nonlocal(x, ws, 2e-5)

    def test_underflowed_block_is_redone_with_the_row_max(self, monkeypatch):
        # theta = x and phi = (x0, -x1): keys along x0 at 2-2.5, and one query (-4, sqrt(26)) whose logits are
        # all at most -10 (its own is 16 - 26) while its b = 42 <= NL_SHIFT; its row sum, about P e^-52, is
        # below 2**-60, so the second block is redone
        rng = np.random.default_rng(10)
        x = np.zeros((1, 2, 2 * tc.NL_ROWS), np.float32)
        x[0, 0] = rng.uniform(2.0, 2.5, size=2 * tc.NL_ROWS)
        x[0, :, 200] = (-4.0, np.sqrt(26.0))
        ws = [np.sqrt(2.0) * np.eye(2), np.diag([1.0, -1.0]), np.eye(2), rng.normal(size=(2, 2))]
        ws = [w.astype(np.float32) for w in ws]
        assert self.passes(monkeypatch, x, ws) == [False, False, True]
        assert np.isfinite(check_nonlocal(x, ws)).all()

    def test_nan_in_x_reaches_only_its_item(self):
        x, ws = nonlocal_case(np.random.default_rng(7), 3, 4, (5, 6))
        x[1, 2, 3, 4] = np.nan
        out = tc.nonlocal_raw(x, *ws)
        assert np.isnan(out[1]).all()
        keep = [0, 2]
        ref = nonlocal64(x[keep], *ws)
        assert np.max(np.abs(out[keep] - ref)) <= 2e-6 * (1 + np.max(np.abs(ref)))


class TestTenCropConv:
    """conv3d_raw with a crop `size` reads the ten crops of a clip in place
    and equals conv3d_raw on ten_crop's output bit for bit."""

    @staticmethod
    def both(clip, w, b, stride, pad, size, relu=True):
        crops = ten_crop(clip, size)
        ref = tc.conv3d_raw(crops, w, b, stride, pad, (1, 1, 1), relu=relu)
        ws = np.full(tc.conv3d_workspace_elems(clip.shape, ref.shape, w.shape[1], w.shape[2:], pad, stride=stride,
                                               dilation=(1, 1, 1), size=size), np.nan, dtype=np.float32)
        out = np.full(ref.shape, np.nan, dtype=np.float32)
        got = tc.conv3d_raw(clip, w, b, stride, pad, (1, 1, 1), relu=relu, out=out, workspace=ws, size=size)
        assert got is out
        return ref, got

    @pytest.mark.parametrize("hw", [(20, 20), (20, 31), (27, 20)])
    @pytest.mark.parametrize("pad", [(0, 0, 0), (1, 2, 2), (0, 1, 2)])
    @pytest.mark.parametrize("stride", [(1, 1, 1), (2, 2, 2), (1, 2, 1)])
    def test_bitwise_equal_to_conv_of_crops(self, hw, pad, stride):
        rng = np.random.default_rng(hw[1] + 3 * pad[2] + stride[1])
        clip = rng.standard_normal((3, 5) + hw, dtype=np.float32)
        w = rng.standard_normal((4, 3, 3, 3, 5), dtype=np.float32)
        b = rng.standard_normal(4, dtype=np.float32)
        for relu in (False, True):
            ref, got = self.both(clip, w, b, stride, pad, 16, relu)
            np.testing.assert_array_equal(got, ref)
        ref, got = self.both(clip, w, None, stride, pad, 16)
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("width", [256, 455])  # desk_default and ppm_long clips
    def test_bitwise_on_desk_stem(self, width):
        rng = np.random.default_rng(width)
        clip = rng.standard_normal((3, 16, 256, width), dtype=np.float32)
        w = rng.standard_normal((8, 3, 3, 5, 5), dtype=np.float32) * np.float32(0.1)
        b = rng.standard_normal(8, dtype=np.float32)
        ref, got = self.both(clip, w, b, (2, 4, 4), (1, 2, 2), 224)
        np.testing.assert_array_equal(got, ref)

    def test_rejects_small_clip_and_batched_input(self):
        w = np.ones((2, 3, 1, 3, 3), np.float32)
        with pytest.raises(ShapeError, match="smaller than crop"):
            tc.conv3d_raw(np.ones((3, 2, 15, 20), np.float32), w, None, (1, 1, 1), (0, 1, 1), (1, 1, 1), size=16)
        with pytest.raises(ShapeError, match="4-D"):
            tc.conv3d_raw(np.ones((1, 3, 2, 16, 16), np.float32), w, None, (1, 1, 1), (0, 1, 1), (1, 1, 1), size=16)


class TestGemmColumns:
    """What conv3d_raw's column rounding rests on: a GEMM whose N is a multiple
    of tc.GEMM_COLS gives each column the bits one whole GEMM gives it, at any
    column offset and into any leading dimension. Slabs, shared boxes and
    strips compute one output column in GEMMs of different N."""

    @pytest.mark.parametrize("m", [1, 8, 16, 32])
    @pytest.mark.parametrize("k", [1, 27, 225, 400])
    def test_columns_equal_one_whole_gemm(self, m, k):
        rng = np.random.default_rng(1000 * m + k)
        a = rng.standard_normal((m, k), dtype=np.float32)
        b = rng.standard_normal((k, 72 * tc.GEMM_COLS), dtype=np.float32)
        whole = a @ b
        wide = np.empty((m, b.shape[1] + 40), np.float32)
        for n in (1, 3, 28, 70):
            for off in (0, 1, 17, 2 * tc.GEMM_COLS):
                cols = np.ascontiguousarray(b[:, off:off + n * tc.GEMM_COLS])
                np.testing.assert_array_equal(a @ cols, whole[:, off:off + cols.shape[1]])
                np.matmul(a, cols, out=wide[:, 7:7 + cols.shape[1]])
                np.testing.assert_array_equal(wide[:, 7:7 + cols.shape[1]], whole[:, off:off + cols.shape[1]])


class TestSharedBoxes:
    """With a crop `size`, the crops of one orientation whose origins share a
    stride phase are convolved once, as the box they span, and the outputs
    whose taps reach a crop's border inside the box come from strips of the
    crop: bit for bit conv3d_raw on ten_crop's crops, also into a NaN-filled
    out with a NaN-filled workspace of exactly the size the boxes need. The
    boxes carry on down a trunk of convs (`boxed` outputs, `trunk` inputs):
    the last conv of the trunk gives the crops the same convs give on
    ten_crop's crops."""

    @staticmethod
    def chain(clip, convs, size, crops=None):
        """Run the trunk `convs`, (w, b, stride, pad, dilation) each, on the
        crops of `clip`, check its crops against the convs run on ten_crop's
        crops, and return each conv's _conv3d_plan."""
        ref = ten_crop(clip, size, crops)
        for w, b, stride, pad, dil in convs:
            ref = tc.conv3d_raw(ref, w, b, stride, pad, dil, relu=True)
        x, trunk, boxes = clip, None, []
        for i, (w, b, stride, pad, dil) in enumerate(convs):
            boxed = i < len(convs) - 1
            shape, need, _ = tc.conv3d_io(x.shape, w.shape, b.shape, stride, pad, dil, size, crops, trunk, boxed)
            out = np.full(shape, np.nan, np.float32)
            got = tc.conv3d_raw(x, w, b, stride, pad, dil, relu=True, out=out,
                                workspace=np.full(need, np.nan, np.float32), size=size, crops=crops, trunk=trunk,
                                boxed=boxed)
            assert got is out
            boxes.append(tc._conv3d_plan(None, w.shape, stride, pad, dil, size, crops, trunk or (clip.shape,),
                                         boxed, tc.COL_SLAB_BYTES))
            x, trunk = got, (trunk or (clip.shape,)) + ((w.shape, stride, pad, dil),)
        np.testing.assert_array_equal(x, ref)
        if len(convs) == 1:  # unplanned, into fresh buffers
            np.testing.assert_array_equal(tc.conv3d_raw(clip, *convs[0][:2], *convs[0][2:], relu=True, size=size,
                                                        crops=crops), ref)
        return boxes

    def check(self, clip, w, b, stride, pad, dil, size, crops=None):
        """One conv's boxes, (box extent, dests it feeds) each."""
        entries = self.chain(clip, [(w, b, stride, pad, dil)], size, crops)[0][0]
        return [(item[2:], dests) for _, item, dests, *_ in entries]

    @staticmethod
    def fed(plan) -> list:
        """(box extent, the number of crops it feeds) per box of a _conv3d_plan."""
        entries, *_, layout = plan
        if layout is None:
            return sorted((item[2:], len(dests)) for _, item, dests, *_ in entries)
        return sorted((item[2:], sum(any(s[0] == e for s in srcs) for _, _, srcs, _ in layout[1]))
                      for e, (_, item, *_) in enumerate(entries))

    @staticmethod
    def case(seed, clip_shape, wshape):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal(clip_shape, dtype=np.float32), rng.standard_normal(wshape, dtype=np.float32),
                rng.standard_normal(wshape[0], dtype=np.float32))

    @staticmethod
    def trunk(seed, clip_shape, convs):
        """A clip and a trunk of convs, (weight shape, stride, pad, dilation) each, with random weights
        scaled to keep the activations near 1."""
        rng = np.random.default_rng(seed)
        clip = rng.standard_normal(clip_shape, dtype=np.float32)
        return clip, [(rng.standard_normal(ws, dtype=np.float32) * np.float32(1 / np.sqrt(np.prod(ws[1:]))),
                       rng.standard_normal(ws[0], dtype=np.float32) * np.float32(0.1), *geometry)
                      for ws, *geometry in convs]

    def test_desk_stem_is_one_box_per_orientation_and_six_strips(self):
        clip, w, b = self.case(0, (3, 16, 256, 256), (8, 3, 3, 5, 5))
        w *= np.float32(0.1)
        for crops in ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9)):
            boxes = self.check(clip, w, b, (2, 4, 4), (1, 2, 2), (1, 1, 1), 224, crops)
            # the clip, then row 0 or column 0 of each crop off the clip's leading edges
            assert sorted((hw, len(dests)) for hw, dests in boxes) == \
                sorted([((256, 256), 5)] + [((3, 224), 1), ((224, 3), 1)] * 3)

    @pytest.mark.parametrize("s", [3, 4])
    def test_origins_in_different_stride_phases(self, s):
        # a 455-like width: the W origins 0, 31 and 15 (mirrors 31, 0, 16) fall in two phases per
        # orientation, so the ten crops are four boxes of 2 or 3 crops; the H origins 0, s, 2s share one
        clip, w, b = self.case(s, (2, 4, 32 + 2 * s, 63), (3, 2, 2, 5, 5))
        boxes = self.check(clip, w, b, (1, s, s), (1, 2, 2), (1, 1, 1), 32)
        assert sorted(len(dests) for _, dests in boxes if len(dests) > 1) == [2, 2, 3, 3]

    # the last output row and column read the crop's trailing padding: strips at both edges
    @pytest.mark.parametrize("kernel, stride, pad", [
        ((3, 3, 3), (1, 1, 1), (1, 1, 1)),
        ((1, 5, 5), (1, 2, 2), (0, 2, 2)),
        ((1, 4, 4), (1, 3, 3), (0, 3, 3)),  # pad >= stride: two leading outputs read the border
        ((1, 1, 1), (1, 3, 3), (0, 2, 2)),  # the border outputs read padding alone
    ])
    def test_geometries_that_read_trailing_padding(self, kernel, stride, pad):
        clip, w, b = self.case(sum(kernel), (2, 3, 23, 29), (3, 2) + kernel)
        boxes = self.check(clip, w, b, stride, pad, (1, 1, 1), 16)
        oh, ow = tc.conv3d_shape((1, 2, 3, 16, 16), w.shape, None, stride, pad, (1, 1, 1))[3:]
        regions = [dests[0][2] for _, dests in boxes if len(dests) == 1]
        assert any(len(dests) > 1 for _, dests in boxes)
        assert any(i0 > 0 and i1 == oh for i0, i1, _, _ in regions)
        assert any(j0 > 0 and j1 == ow for _, _, j0, j1 in regions)

    @pytest.mark.parametrize("dil", [(1, 2, 2), (2, 3, 1)])
    def test_dilation(self, dil):
        clip, w, b = self.case(sum(dil), (2, 5, 27, 31), (3, 2, 2, 3, 3))
        self.check(clip, w, b, (1, 2, 1), (1, 2, 2), dil, 16)

    @pytest.mark.parametrize("crops", [(7, 0, 4, 9, 2), (3,), (8,), (9, 4)])
    def test_mixed_orientation_and_single_crop_selections(self, crops):
        clip, w, b = self.case(len(crops), (2, 3, 24, 30), (4, 2, 3, 3, 3))
        self.check(clip, w, b, (1, 2, 2), (1, 1, 1), (1, 1, 1), 16, crops)

    DESK_TRUNK = [((8, 3, 3, 5, 5), (2, 4, 4), (1, 2, 2), ONES), ((8, 8, 3, 3, 3), (1, 2, 2), ONES, ONES),
                  ((16, 8, 3, 3, 3), (2, 2, 2), ONES, ONES)]

    @pytest.mark.parametrize("depth", [2, 3])
    def test_desk_trunk_is_one_box_per_orientation_and_six_strips_per_conv(self, depth):
        clip, convs = self.trunk(depth, (3, 16, 256, 256), self.DESK_TRUNK[:depth])
        for crops in ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9)):
            plans = self.chain(clip, convs, 224, crops)
            # each conv: one box (the clip, then the 64x64 and 32x32 boxes of the convs before), then
            # strips of the leading rows and columns of the three crops off each leading edge
            for plan, hw, (h, e) in zip(plans, ((256, 256), (64, 64), (32, 32)), ((224, 3), (56, 2), (28, 2))):
                assert self.fed(plan) == sorted([(hw, 5)] + [((e, h), 1), ((h, e), 1)] * 3)

    @pytest.mark.parametrize("crops", [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9), (1, 8, 4)])
    def test_ppm_long_trunk_splits_its_phase_groups(self, crops):
        # 256x455: the stem's boxes of the TR, BR and center crops put their W origins 29 apart, odd
        # at s0b0's stride 2, so s0b0 splits the box in two: more boxes than the stem ran
        clip, convs = self.trunk(len(crops), (3, 16, 256, 455), self.DESK_TRUNK)
        stem, s0b0, _ = self.chain(clip, convs, 224, crops)
        # the boxes that hold the crops in each conv's output: two of the stem, three of s0b0
        assert [len({box for box, *_ in plan[4][1]}) for plan in (stem, s0b0)] == [2, 3]

    @pytest.mark.parametrize("crops", [None, (7, 0, 4, 9, 2), (3,), (8,), (9, 4)])
    @pytest.mark.parametrize("convs", [
        # the desk trunk's geometry at a small scale, then one with a pointwise conv whose
        # border outputs read only the dirt of the conv before
        [((4, 2, 3, 3, 3), (1, 2, 2), ONES, ONES), ((3, 4, 3, 3, 3), (2, 2, 2), ONES, ONES),
         ((5, 3, 1, 1, 1), ONES, ZEROS, ONES)],
        # odd strides, trailing strips, pad >= stride and dilation
        [((3, 2, 1, 4, 4), (1, 3, 3), (0, 3, 3), ONES), ((4, 3, 3, 3, 3), ONES, ONES, (1, 2, 2)),
         ((2, 4, 1, 3, 3), (1, 2, 2), (0, 2, 2), ONES)],
    ])
    def test_three_conv_trunks_on_mixed_selections(self, convs, crops):
        clip, convs = self.trunk(7, (2, 5, 41, 53), convs)
        self.chain(clip, convs, 30, crops)
        self.chain(clip, convs[:2], 30, crops)

    def test_trunk_input_must_be_the_flat_boxes(self):
        clip, [(w, b, *geometry)] = self.trunk(0, (2, 3, 24, 30), [((4, 2, 3, 3, 3), (1, 2, 2), ONES, ONES)])
        (flat,), *_ = tc.conv3d_io(clip.shape, w.shape, b.shape, *geometry, 16, None, None, True)
        trunk = (clip.shape, (w.shape, *geometry))
        w2 = np.ones((3, 4, 3, 3, 3), np.float32)
        assert tc.conv3d_raw(np.ones(flat, np.float32), w2, None, ONES, ONES, ONES, size=16, trunk=trunk).shape == \
            (10, 3, 3, 8, 8)
        with pytest.raises(ShapeError, match="trunk input must be its"):
            tc.conv3d_raw(np.ones(flat + 1, np.float32), w2, None, ONES, ONES, ONES, size=16, trunk=trunk)


ONE_SLAB = 1 << 62  # a COL_SLAB_BYTES budget that holds every conv's whole column buffer


def col_slab_count(k, out_shape):
    od, oh, ow = out_shape[-3:]
    planes, rows = tc._col_slab(k, od, oh, ow)
    return -(-od // planes) * -(-oh // rows)


class TestColumnSlabs:
    """conv3d fills and multiplies its column buffer one slab of output rows
    at a time; on the desk convs that is bitwise equal to one whole-item GEMM."""

    def test_desk_stem_slabs_stay_in_budget(self):
        item, wshape, stride, pad = DESK_CONVS["stem"]
        k = int(np.prod(wshape[1:]))
        out_shape = (10, 8, 8, 56, 56)
        window = 3 * 3 * 81 * 228  # a slab of 20 output rows reads 3 planes and 81 rows of the padded crop
        col = tc.conv3d_workspace_elems((10,) + item, out_shape, 3, wshape[2:], pad, stride=stride,
                                        dilation=(1, 1, 1)) - window
        assert 4 * col <= tc.COL_SLAB_BYTES
        assert col_slab_count(k, out_shape) == 24  # 3 blocks of 20, 20 and 16 rows per plane

    @pytest.mark.parametrize("width", [256, 455])  # desk_default and ppm_long clips
    def test_desk_stem_bitwise_equal_to_one_slab(self, width, monkeypatch):
        rng = np.random.default_rng(width + 1)
        clip = rng.standard_normal((3, 16, 256, width), dtype=np.float32)
        w = rng.standard_normal((8, 3, 3, 5, 5), dtype=np.float32) * np.float32(0.1)
        b = rng.standard_normal(8, dtype=np.float32)
        got = tc.conv3d_raw(clip, w, b, (2, 4, 4), (1, 2, 2), (1, 1, 1), relu=True, size=224)
        monkeypatch.setattr(tc, "COL_SLAB_BYTES", ONE_SLAB)
        ref = tc.conv3d_raw(clip, w, b, (2, 4, 4), (1, 2, 2), (1, 1, 1), relu=True, size=224)
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("name", ["s0b0", "s1b0"])
    def test_desk_block_bitwise_equal_to_one_slab(self, name, monkeypatch):
        item, wshape, stride, pad = DESK_CONVS[name]
        rng = np.random.default_rng(len(name) + 7)
        x = rng.standard_normal((3,) + item, dtype=np.float32)
        w = rng.standard_normal(wshape, dtype=np.float32) * np.float32(0.1)
        b = rng.standard_normal(wshape[0], dtype=np.float32)
        got = tc.conv3d_raw(x, w, b, stride, pad, (1, 1, 1), relu=True)
        monkeypatch.setattr(tc, "COL_SLAB_BYTES", ONE_SLAB)
        ref = tc.conv3d_raw(x, w, b, stride, pad, (1, 1, 1), relu=True)
        np.testing.assert_array_equal(got, ref)

    # budgets in bytes for x [2,3,5,9,7] and w [4,3,2,3,3] (K=54) at stride 1
    # and pad (0,1,1), output [od,oh,ow] = [4,9,7]: 3 planes (and a last slab
    # of 1 plane), 4 rows (and a last block of 1 row), and less than one row
    # (1 row per slab)
    @pytest.mark.parametrize("budget, slabs", [(4 * 54 * 189, 2), (4 * 54 * 28, 12), (4 * 54 * 3, 36)])
    def test_short_last_slab_and_row_slabs(self, budget, slabs, monkeypatch):
        rng = np.random.default_rng(budget)
        x = rng.standard_normal((2, 3, 5, 9, 7), dtype=np.float32)
        w = rng.standard_normal((4, 3, 2, 3, 3), dtype=np.float32)
        b = rng.standard_normal(4, dtype=np.float32)
        stride, pad, dil = (1, 1, 1), (0, 1, 1), (1, 1, 1)
        one = tc.conv3d_raw(x, w, b, stride, pad, dil, relu=True)
        monkeypatch.setattr(tc, "COL_SLAB_BYTES", budget)
        assert col_slab_count(54, one.shape) == slabs
        plain, pooled = conv3d_both_ways(x, w, b, stride, pad, dil, True, one.shape)
        np.testing.assert_array_equal(plain, pooled)
        # each slab's GEMM has another N, which may change a small GEMM's
        # summation order: hold it to the reordering bound of a K-term sum
        absconv = conv3d_rowmajor_ref(np.abs(x), np.abs(w), None, stride, pad, dil)
        eps = np.finfo(np.float32).eps
        assert np.all(np.abs(plain - one) <= 2 * eps * (54 * absconv + np.abs(one)))

    def test_row_slabs_with_dilation_and_mirrored_crops(self, monkeypatch):
        rng = np.random.default_rng(11)
        clip = rng.standard_normal((2, 6, 21, 25), dtype=np.float32)
        w = rng.standard_normal((3, 2, 2, 3, 3), dtype=np.float32)
        one = tc.conv3d_raw(clip, w, None, (1, 2, 1), (1, 2, 2), (2, 1, 2), size=16)
        monkeypatch.setattr(tc, "COL_SLAB_BYTES", 4 * 36 * 40)  # 2 of 9 rows per slab, the last 1
        assert col_slab_count(36, one.shape) == one.shape[2] * 5
        got = tc.conv3d_raw(clip, w, None, (1, 2, 1), (1, 2, 2), (2, 1, 2), size=16)
        ref = tc.conv3d_raw(ten_crop(clip, 16), w, None, (1, 2, 1), (1, 2, 2), (2, 1, 2))
        np.testing.assert_array_equal(got, ref)
        absconv = conv3d_rowmajor_ref(np.abs(ten_crop(clip, 16)), np.abs(w), None, (1, 2, 1), (1, 2, 2), (2, 1, 2))
        eps = np.finfo(np.float32).eps
        assert np.all(np.abs(got - one) <= 2 * eps * (36 * absconv + np.abs(one)))


def int_valued(rng, shape, high):
    """float32 integers in [-high, high]: every conv sum of them is exact, so
    the kernel equals the row-major oracle bit for bit in any summation order."""
    return rng.integers(-high, high + 1, size=shape).astype(np.float32)


def geometry_workspace(x_shape, out_shape, w, pad, stride, dil):
    """A NaN-filled workspace of exactly the size the conv's geometry needs."""
    need = tc.conv3d_workspace_elems(x_shape, out_shape, w.shape[1], w.shape[2:], pad, stride=stride, dilation=dil)
    return np.full(need, np.nan, np.float32)


class TestPaddedWindow:
    """Each column slab reads its input from a zero-bordered window that holds
    only the planes and rows that slab reads; every slab zeroes the padding
    planes and rows it reads, where an earlier slab may have left input."""

    @pytest.mark.parametrize("seed", range(60))
    def test_workspace_bound_holds_the_geometry_size(self, seed):
        x, w, b, stride, pad, dil, relu = random_conv_case(seed)
        out_shape = tc.conv3d_shape(x.shape, w.shape, None, stride, pad, dil)
        exact = tc.conv3d_workspace_elems(x.shape, out_shape, w.shape[1], w.shape[2:], pad, stride=stride,
                                          dilation=dil)
        assert tc.conv3d_workspace_elems(x.shape, out_shape, w.shape[1], w.shape[2:], pad) >= exact
        ws = geometry_workspace(x.shape, out_shape, w, pad, stride, dil)
        got = tc.conv3d_raw(x, w, b, stride, pad, dil, relu=relu, workspace=ws)
        np.testing.assert_array_equal(got, tc.conv3d_raw(x, w, b, stride, pad, dil, relu=relu))

    # x [2,2,5,9,7] and a budget of `rows` output rows: below one output plane
    # each slab is a block of rows; the slabs of both items reuse one window
    @pytest.mark.parametrize("kernel, stride, pad, dil, rows", [
        ((3, 3, 3), (1, 1, 1), (1, 1, 1), (1, 1, 1), 2),  # reads the trailing plane and row pad
        ((3, 5, 3), (1, 1, 1), (1, 2, 1), (1, 1, 1), 1),
        ((2, 3, 3), (1, 2, 1), (1, 2, 2), (2, 2, 2), 2),  # dilation 2
        ((1, 1, 3), (1, 1, 1), (2, 2, 1), (1, 1, 1), 3),  # slabs that read padding alone
        ((3, 3, 3), (2, 2, 2), (1, 1, 1), (1, 1, 1), 10),  # output [3,5,4]: slabs of 2 planes, then 1
    ])
    def test_row_slabs_bitwise_equal_to_rowmajor(self, kernel, stride, pad, dil, rows, monkeypatch):
        rng = np.random.default_rng(sum(kernel) + 10 * sum(pad) + rows)
        x = int_valued(rng, (2, 2, 5, 9, 7), 4)
        w = int_valued(rng, (3, 2) + kernel, 3)
        b = int_valued(rng, (3,), 5)
        ref = conv3d_rowmajor_ref(x, w, b, stride, pad, dil, relu=True)
        k = w[0].size
        monkeypatch.setattr(tc, "COL_SLAB_BYTES", 4 * k * ref.shape[-1] * rows)
        ws = geometry_workspace(x.shape, ref.shape, w, pad, stride, dil)
        out = np.full(ref.shape, np.nan, np.float32)
        np.testing.assert_array_equal(tc.conv3d_raw(x, w, b, stride, pad, dil, relu=True, out=out, workspace=ws), ref)

    @pytest.mark.parametrize("pad", [(0, 0, 0), (0, 1, 2), (1, 2, 2)])
    def test_ten_crop_row_slabs_bitwise_equal_to_rowmajor(self, pad, monkeypatch):
        rng = np.random.default_rng(sum(pad))
        clip = int_valued(rng, (2, 5, 19, 23), 4)
        w = int_valued(rng, (3, 2, 3, 3, 5), 3)
        stride, dil = (1, 1, 2), (1, 1, 1)
        ref = conv3d_rowmajor_ref(ten_crop(clip, 16), w, None, stride, pad, dil)
        monkeypatch.setattr(tc, "COL_SLAB_BYTES", 4 * w[0].size * ref.shape[-1] * 3)  # 3 rows per slab
        ws = np.full(tc.conv3d_workspace_elems(clip.shape, ref.shape, w.shape[1], w.shape[2:], pad, stride=stride,
                                               dilation=dil, size=16), np.nan, np.float32)
        out = np.full(ref.shape, np.nan, np.float32)  # a crop left out, mirror or not, stays NaN
        got = tc.conv3d_raw(clip, w, None, stride, pad, dil, out=out, workspace=ws, size=16)
        np.testing.assert_array_equal(got, ref)


# ---------------------------------------------------------------------------
# the head's temporal conv: conv3d on a [1,C,T,1,1] view
# ---------------------------------------------------------------------------

def conv1d_via_conv3d(x, w, dilation):
    """Same-length dilated conv of [C,T] input with [O,C,k] taps, k odd, as
    the head runs it: conv3d_raw on the [1,C,T,1,1] view with a (k,1,1) kernel."""
    pad = ((w.shape[2] - 1) * dilation // 2, 0, 0)
    return tc.conv3d_raw(x[None, :, :, None, None], w[..., None, None], None, (1, 1, 1), pad,
                         (dilation, 1, 1))[0, :, :, 0, 0]


class TestConv1dDilated:
    X = f32([[1.0, 2.0, 3.0, 4.0, 5.0]])

    @pytest.mark.parametrize("dilation", [0, -1])
    def test_nonpositive_dilation_rejected(self, dilation):
        with pytest.raises(ShapeError, match="dilation must be 3 values >= 1"):
            conv1d_via_conv3d(self.X, f32([[[1.0, 0.0, 1.0]]]), dilation)

    @pytest.mark.parametrize("dilation", [1, 2, 3])
    def test_delta_kernel_is_identity(self, dilation):
        out = conv1d_via_conv3d(self.X, f32([[[0.0, 1.0, 0.0]]]), dilation)
        np.testing.assert_allclose(out, self.X, atol=1e-7)

    def test_hand_convolution(self):
        # [1,2,3,4,5] * [1,0,1] at dilation 2 with same-padding -> [3,4,6,2,3]
        out = conv1d_via_conv3d(self.X, f32([[[1.0, 0.0, 1.0]]]), 2)
        np.testing.assert_allclose(out, [[3.0, 4.0, 6.0, 2.0, 3.0]], atol=1e-7)

    def test_zero_input_zero_output(self):
        w = f32(np.random.default_rng(3).normal(size=(4, 3, 3)))
        assert np.all(conv1d_via_conv3d(np.zeros((3, 8), np.float32), w, 2) == 0.0)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        c, t, o = rng.integers(1, 4), rng.integers(1, 12), rng.integers(1, 4)
        k = int(rng.choice([1, 3, 5]))
        dil = int(rng.integers(1, 4))
        x = rng.normal(size=(c, t)).astype(np.float32)
        w = rng.normal(size=(o, c, k)).astype(np.float32)
        got = conv1d_via_conv3d(x, w, dil)
        assert got.shape == (o, t)
        assert rel_err(got, conv1d_loops(x, w, dil)) <= 1e-6


# ---------------------------------------------------------------------------
# softmax / l2 / topk
# ---------------------------------------------------------------------------

class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(tc.softmax_raw(f32([0.0, 0.0]), -1), [0.5, 0.5])

    def test_large_inputs_stable(self):
        out = tc.softmax_raw(f32([1000.0, 1000.0]), -1)
        np.testing.assert_allclose(out, [0.5, 0.5])
        assert np.all(np.isfinite(out))

    def test_closed_form(self):
        out = tc.softmax_raw(f32([np.log(2.0), 0.0]), -1)
        np.testing.assert_allclose(out, [2 / 3, 1 / 3], atol=1e-6)

    def test_nan_propagates_with_warning(self):
        with pytest.warns(RuntimeWarning):
            out = tc.softmax_raw(f32([np.nan, 0.0]), -1)
        assert np.isnan(out).any()

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=16), st.floats(-50, 50))
    @example(vals=[38.0, 38.13145206115975], shift=25.993116526203053)
    @settings(max_examples=80, deadline=None)
    def test_probability_vector_and_shift_invariance(self, vals, shift):
        """Each output is a probability vector within 1e-6 of a float64 softmax of
        its own input, and shifting the logits moves the output no further than it
        moves the float64 softmax of the float32-rounded logits (plus that 1e-6 on
        each side): the shifted values round to float32 on a coarser grid, so the
        two inputs are not an exact shift of each other."""
        x, xs = f32(vals), f32([v + shift for v in vals])
        got, got_s = tc.softmax_raw(x, -1), tc.softmax_raw(xs, -1)
        for out, inp in ((got, x), (got_s, xs)):
            assert np.all(out >= 0)
            assert abs(float(out.sum()) - 1.0) <= 1e-6
            assert np.max(np.abs(out - softmax64(inp))) <= 1e-6
        assert np.max(np.abs(got_s - got)) <= np.max(np.abs(softmax64(xs) - softmax64(x))) + 2e-6


class TestL2Magnitude:
    """The loss's row magnitudes: autodiff.l2_rows."""

    def test_3_4_5(self):
        np.testing.assert_allclose(ad.l2_rows(np.array([[3.0, 4.0]])).value, [5.0])

    def test_zero_row(self):
        assert ad.l2_rows(np.zeros((1, 7))).value[0] == 0.0

    def test_matches_scalar_loop(self):
        f = np.random.default_rng(5).normal(size=(8, 16)).astype(np.float32)
        assert rel_err(ad.l2_rows(f).value, l2_loops(f)) <= 1e-6

    @given(st.floats(-100, 100), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_absolute_homogeneity(self, c, seed):
        f = np.random.default_rng(seed).normal(size=(5, 6)).astype(np.float32)
        lhs = ad.l2_rows(c * f).value
        rhs = abs(c) * ad.l2_rows(f).value
        assert np.max(np.abs(lhs - rhs)) <= 1e-6 * max(1.0, abs(c)) * 40


class TestTopk:
    """rtfm.topk_indices, the one top-k: the loss and the video score both call it."""

    def test_spec_example(self):
        v = np.array([0.1, 0.9, 0.5])
        idx = topk_indices(v, 2)
        assert idx.tolist() == [1, 2] and v[idx].tolist() == [0.9, 0.5]

    def test_tie_breaks_to_lowest_index(self):
        assert topk_indices(np.array([1.0, 1.0, 0.0]), 1).tolist() == [0]

    def test_k_equals_t_is_descending_sort(self):
        v = np.array([0.3, 0.1, 0.9, 0.9, 0.2])
        idx = topk_indices(v, 5)
        oi, ov = topk_sort_oracle(v, 5)
        assert idx.tolist() == oi and v[idx].tolist() == ov

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="k=3 out of range"):
            topk_indices(np.array([1.0, 2.0]), 3)
        with pytest.raises(ValueError, match="k=0 out of range"):
            topk_indices(np.array([1.0, 2.0]), 0)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=20), st.data())
    @settings(max_examples=100, deadline=None)
    def test_prefix_of_stable_descending_sort(self, vals, data):
        k = data.draw(st.integers(1, len(vals)))
        v = np.asarray(vals, dtype=np.float32)
        idx = topk_indices(v, k)
        oi, ov = topk_sort_oracle(v, k)
        assert idx.tolist() == oi
        assert v[idx].tolist() == ov


# ---------------------------------------------------------------------------
# graph nodes through the executor + precision semantics
# ---------------------------------------------------------------------------

def run_node(build, *inputs, precision=F32):
    """The output Tensor of the graph that `build(builder, *input ids)` makes
    on `inputs`, run by the executor; the graph is lowered when `precision` is F16."""
    b = go.GraphBuilder("one-node")
    b.output(build(b, *(b.input(x.shape) for x in inputs)))
    g = b.build()
    return go.execute(go.lower_precision(g) if precision == F16 else g, [Tensor(x) for x in inputs])[0]


class TestElementwise:
    def test_relu(self):
        np.testing.assert_array_equal(run_node(lambda b, x: b.relu(x), f32([-1.0, 2.0])).data, [0.0, 2.0])

    def test_mean(self):
        # the gap3d node is the program's mean
        assert run_node(lambda b, x: b.gap3d(x), f32([2.0, 4.0]).reshape(1, 1, 1, 1, 2)).data[0, 0] == 3.0

    def test_maxpool_constant(self):
        out = tc.maxpool3d_raw(np.full((1, 1, 4, 4, 4), 2.5, np.float32), (2, 2, 2), (2, 2, 2))
        assert np.all(out == 2.5)
        assert out.shape == (1, 1, 2, 2, 2)

    def test_maxpool_floor_arithmetic(self):
        out = tc.maxpool3d_raw(np.zeros((1, 1, 5, 7, 9), np.float32), (2, 2, 2), (2, 2, 2))
        assert out.shape == (1, 1, 2, 3, 4)

    def test_add_shape_rule(self):
        with pytest.raises(go.GraphError, match="add shape mismatch"):
            run_node(lambda b, x, y: b.add(x, y), np.zeros((2, 3), np.float32), np.zeros((3, 2), np.float32))
        out = run_node(lambda b, x, y: b.add(x, y), np.zeros((2, 3), np.float32), np.full((2, 3), 5.0, np.float32))
        assert np.all(out.data == 5.0)

    def test_global_avg_pool(self):
        x = np.arange(2 * 3 * 2 * 2 * 2, dtype=np.float32).reshape(2, 3, 2, 2, 2)
        np.testing.assert_allclose(run_node(lambda b, x: b.gap3d(x), x).data, x.mean(axis=(2, 3, 4)))


class TestPrecision:
    def test_tensor_is_immutable(self):
        t = Tensor(f32([1.0, 2.0]))
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_tensor_leaves_callers_array_writable(self):
        # Tensor freezes a view of a C-contiguous float32 array, not the array
        a = f32([1.0, 2.0])
        t = Tensor(a)
        assert a.flags.writeable and not t.data.flags.writeable
        assert np.shares_memory(t.data, a)
        a[0] = 5.0
        assert t.data[0] == 5.0

    def test_f16_construction_rounds(self):
        t = Tensor(f32([0.1]), F16)
        assert t.data[0] == np.float32(np.float16(0.1))
        assert t.data[0] != np.float32(0.1)

    def test_f16_exact_values_survive(self):
        t = Tensor(f32([1.0, 2.0, 0.5, -3.0]), F16)
        np.testing.assert_array_equal(t.data, [1.0, 2.0, 0.5, -3.0])

    @pytest.mark.parametrize("op", ["conv3d", "relu", "add", "pool", "gap"])
    def test_ops_preserve_precision_tag_and_round(self, op):
        # the executor rounds each node output of a lowered graph through binary16
        rng = np.random.default_rng(11)
        make = lambda shape: rng.normal(size=shape).astype(np.float32)
        inputs, build = {
            "conv3d": ([make((1, 2, 3, 4, 4))], lambda b, x: b.conv3d(x, b.param("w", make((2, 2, 2, 2, 2))))),
            "relu": ([make((5,))], lambda b, x: b.relu(x)),
            "add": ([make((5,)), make((5,))], lambda b, x, y: b.add(x, y)),
            "pool": ([make((1, 1, 4, 4, 4))], lambda b, x: b.maxpool3d(x, (2, 2, 2), (2, 2, 2))),
            "gap": ([make((2, 3, 2, 2, 2))], lambda b, x: b.gap3d(x)),
        }[op]
        out = run_node(build, *inputs, precision=F16)
        assert out.precision == F16
        np.testing.assert_array_equal(out.data, tc.round_f16(out.data))

    def test_f32_stays_f32(self):
        out = run_node(lambda b, x: b.relu(x), f32([1.213251234e-5]))
        assert out.precision == F32
        assert out.data[0] == np.float32(1.213251234e-5)
