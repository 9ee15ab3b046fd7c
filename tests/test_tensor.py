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

from helpers import conv3d_rowmajor_ref, nonlocal_batched_ref


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

    @pytest.mark.parametrize("seed", range(30))
    def test_nonlocal_bitwise_equal_to_batched_reference(self, seed):
        rng = np.random.default_rng(seed)
        n, c = int(rng.integers(1, 4)), int(rng.integers(1, 9))
        spatial = tuple(int(v) for v in rng.integers(1, 6, size=int(rng.integers(1, 4))))
        ci = max(1, c // 2)
        x = rng.normal(size=(n, c) + spatial).astype(np.float32)
        ws = [rng.normal(size=s).astype(np.float32) for s in ((c, ci), (c, ci), (c, ci), (ci, c))]
        ref = nonlocal_batched_ref(x, *ws)
        np.testing.assert_array_equal(tc.nonlocal_raw(x, *ws), ref)
        out = np.full(x.shape, np.nan, np.float32)
        assert tc.nonlocal_raw(x, *ws, out=out) is out
        np.testing.assert_array_equal(out, ref)
        # a used, oversized workspace: the logits overwrite it before any read
        p = int(np.prod(spatial))
        scratch = np.full(p * p + 5, np.nan, np.float32)
        np.testing.assert_array_equal(tc.nonlocal_raw(x, *ws, workspace=scratch), ref)

    def test_nonlocal_bitwise_on_desk_shape(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((10, 16, 4, 14, 14), dtype=np.float32)
        ws = [rng.standard_normal(s, dtype=np.float32) * np.float32(0.25) for s in ((16, 8),) * 3 + ((8, 16),)]
        ref = nonlocal_batched_ref(x, *ws)
        np.testing.assert_array_equal(tc.nonlocal_raw(x, *ws), ref)
        out = np.full(x.shape, np.nan, np.float32)
        np.testing.assert_array_equal(tc.nonlocal_raw(x, *ws, out=out), ref)

    def test_nonlocal_rejects_small_workspace(self):
        x = np.ones((1, 2, 3, 3), np.float32)
        ws = [np.ones(s, np.float32) for s in ((2, 1), (2, 1), (2, 1), (1, 2))]
        with pytest.raises(ShapeError, match="workspace holds 80 floats, needs 81"):
            tc.nonlocal_raw(x, *ws, workspace=np.empty(80, np.float32))

    def test_conv3d_rejects_small_workspace_and_strided_out(self):
        x = np.ones((2, 1, 3, 4, 4), np.float32)
        w = np.ones((2, 1, 3, 3, 3), np.float32)
        need = tc.conv3d_workspace_elems(x.shape, (2, 2, 3, 4, 4), 1, (3, 3, 3), (1, 1, 1))
        with pytest.raises(ShapeError, match="workspace"):
            tc.conv3d_raw(x, w, None, (1, 1, 1), (1, 1, 1), (1, 1, 1), workspace=np.empty(need - 1, np.float32))
        strided = np.empty((2, 2, 3, 4, 8), np.float32)[..., ::2]
        with pytest.raises(ShapeError, match="C-contiguous"):
            tc.conv3d_raw(x, w, None, (1, 1, 1), (1, 1, 1), (1, 1, 1), out=strided)


class TestTenCropConv:
    """conv3d_ten_crop_raw reads the ten crops of a clip in place and equals
    conv3d_raw on ten_crop's output bit for bit."""

    @staticmethod
    def both(clip, w, b, stride, pad, size, relu=True):
        crops = ten_crop(clip, size)
        ref = tc.conv3d_raw(crops, w, b, stride, pad, (1, 1, 1), relu=relu)
        ws = np.full(tc.conv3d_workspace_elems(crops.shape, ref.shape, w.shape[1], w.shape[2:], pad), np.nan,
                     dtype=np.float32)
        out = np.full(ref.shape, np.nan, dtype=np.float32)
        got = tc.conv3d_ten_crop_raw(clip, w, b, stride, pad, (1, 1, 1), size, relu=relu, out=out, workspace=ws)
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
            tc.conv3d_ten_crop_raw(np.ones((3, 2, 15, 20), np.float32), w, None, (1, 1, 1), (0, 1, 1), (1, 1, 1), 16)
        with pytest.raises(ShapeError, match="4-D"):
            tc.conv3d_ten_crop_raw(np.ones((1, 3, 2, 16, 16), np.float32), w, None, (1, 1, 1), (0, 1, 1), (1, 1, 1), 16)


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
        padded = 3 * 18 * 228 * 228
        col = tc.conv3d_workspace_elems((10,) + item, out_shape, 3, wshape[2:], pad) - padded
        assert 4 * col <= tc.COL_SLAB_BYTES
        assert col_slab_count(k, out_shape) == 24  # 3 blocks of 20, 20 and 16 rows per plane

    @pytest.mark.parametrize("width", [256, 455])  # desk_default and ppm_long clips
    def test_desk_stem_bitwise_equal_to_one_slab(self, width, monkeypatch):
        rng = np.random.default_rng(width + 1)
        clip = rng.standard_normal((3, 16, 256, width), dtype=np.float32)
        w = rng.standard_normal((8, 3, 3, 5, 5), dtype=np.float32) * np.float32(0.1)
        b = rng.standard_normal(8, dtype=np.float32)
        got = tc.conv3d_ten_crop_raw(clip, w, b, (2, 4, 4), (1, 2, 2), (1, 1, 1), 224, relu=True)
        monkeypatch.setattr(tc, "COL_SLAB_BYTES", ONE_SLAB)
        ref = tc.conv3d_ten_crop_raw(clip, w, b, (2, 4, 4), (1, 2, 2), (1, 1, 1), 224, relu=True)
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
        one = tc.conv3d_ten_crop_raw(clip, w, None, (1, 2, 1), (1, 2, 2), (2, 1, 2), 16)
        monkeypatch.setattr(tc, "COL_SLAB_BYTES", 4 * 36 * 40)  # 2 of 9 rows per slab, the last 1
        assert col_slab_count(36, one.shape) == one.shape[2] * 5
        got = tc.conv3d_ten_crop_raw(clip, w, None, (1, 2, 1), (1, 2, 2), (2, 1, 2), 16)
        ref = tc.conv3d_raw(ten_crop(clip, 16), w, None, (1, 2, 1), (1, 2, 2), (2, 1, 2))
        np.testing.assert_array_equal(got, ref)
        absconv = conv3d_rowmajor_ref(np.abs(ten_crop(clip, 16)), np.abs(w), None, (1, 2, 1), (1, 2, 2), (2, 1, 2))
        eps = np.finfo(np.float32).eps
        assert np.all(np.abs(got - one) <= 2 * eps * (36 * absconv + np.abs(one)))


# ---------------------------------------------------------------------------
# conv1d
# ---------------------------------------------------------------------------

class TestConv1dDilated:
    X = f32([[1.0, 2.0, 3.0, 4.0, 5.0]])

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="even kernel"):
            tc.conv1d_raw(self.X, f32([[[1.0, 1.0]]]), 1)

    @pytest.mark.parametrize("dilation", [0, -1])
    def test_nonpositive_dilation_rejected(self, dilation):
        with pytest.raises(ShapeError, match="dilation must be >= 1"):
            tc.conv1d_raw(self.X, f32([[[1.0, 0.0, 1.0]]]), dilation)

    @pytest.mark.parametrize("dilation", [1, 2, 3])
    def test_delta_kernel_is_identity(self, dilation):
        out = tc.conv1d_raw(self.X, f32([[[0.0, 1.0, 0.0]]]), dilation)
        np.testing.assert_allclose(out, self.X, atol=1e-7)

    def test_hand_convolution(self):
        # [1,2,3,4,5] * [1,0,1] at dilation 2 with same-padding -> [3,4,6,2,3]
        out = tc.conv1d_raw(self.X, f32([[[1.0, 0.0, 1.0]]]), 2)
        np.testing.assert_allclose(out, [[3.0, 4.0, 6.0, 2.0, 3.0]], atol=1e-7)

    def test_zero_input_zero_output(self):
        w = f32(np.random.default_rng(3).normal(size=(4, 3, 3)))
        assert np.all(tc.conv1d_raw(np.zeros((3, 8), np.float32), w, 2) == 0.0)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        c, t, o = rng.integers(1, 4), rng.integers(1, 12), rng.integers(1, 4)
        k = int(rng.choice([1, 3, 5]))
        dil = int(rng.integers(1, 4))
        x = rng.normal(size=(c, t)).astype(np.float32)
        w = rng.normal(size=(o, c, k)).astype(np.float32)
        got = tc.conv1d_raw(x, w, dil)
        assert got.shape == (o, t)
        assert rel_err(got, conv1d_loops(x, w, dil)) <= 1e-6


# ---------------------------------------------------------------------------
# linear / softmax / l2 / topk
# ---------------------------------------------------------------------------

class TestLinear:
    def test_identity(self):
        x = f32([[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(tc.linear_raw(x, np.eye(3, dtype=np.float32), np.zeros(3, np.float32)), x)

    def test_dot_product(self):
        out = tc.linear_raw(f32([1.0, 2.0, 3.0, 4.0]), f32([[1.0, 1.0, 1.0, 1.0]]), f32([1.0]))
        np.testing.assert_allclose(out, [11.0])

    def test_zero_weight_gives_bias(self):
        out = tc.linear_raw(f32([[5.0, 6.0]]), np.zeros((3, 2), np.float32), f32([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(out, [[1.0, 2.0, 3.0]])

    def test_extent_mismatch(self):
        with pytest.raises(ShapeError, match="trailing axis"):
            tc.linear_raw(np.zeros((2, 3), np.float32), np.zeros((4, 5), np.float32))


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

    @pytest.mark.parametrize("op", ["linear", "conv1d", "conv3d", "relu", "add", "pool", "gap"])
    def test_ops_preserve_precision_tag_and_round(self, op):
        # the executor rounds each node output of a lowered graph through binary16
        rng = np.random.default_rng(11)
        make = lambda shape: rng.normal(size=shape).astype(np.float32)
        inputs, build = {
            "linear": ([make((4, 3))], lambda b, x: b.linear(x, b.param("w", make((2, 3))))),
            "conv1d": ([make((2, 6))], lambda b, x: b.conv1d(x, b.param("w", make((2, 2, 3))))),
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
