"""The float32 kernels behind the extractor and the scoring head, and the Tensor
that carries a graph's inputs, parameters and outputs.

Each `*_raw` kernel works on plain ndarrays and accumulates in float32; the graph
executor (`graphopt.OPS`) is its caller. Each `*_shape` function is the shape
rule of its kernel, checked by both the kernel and the graph. `conv3d_raw` is
the one conv3d kernel: given a crop `size`, it convolves the ten crops of an
uncropped clip, read in place, with the same slabs and GEMMs. A Tensor is an
immutable float32 array with a precision tag. F16 is emulated: values are
rounded through IEEE binary16 on construction, and the executor rounds each F16
node output the same way, so precision lowering is deterministic and
hardware-independent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

F32 = "f32"
F16 = "f16"


class ShapeError(ValueError):
    """Raised when operand shapes are inconsistent; message names the offending axis."""


def round_f16(a: np.ndarray) -> np.ndarray:
    """Round a float array to the nearest binary16 value (ties to even), widened back."""
    return a.astype(np.float16).astype(np.float32)


@dataclass(frozen=True)
class Tensor:
    """Immutable n-dimensional array with an element precision tag."""

    data: np.ndarray
    precision: str = F32

    def __post_init__(self) -> None:
        if self.precision not in (F32, F16):
            raise ValueError(f"unknown precision {self.precision!r}")
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.float32))
        if self.precision == F16:
            arr = round_f16(arr)
        arr = arr.view()  # freeze a view, so the caller's array stays writable
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)


# ---------------------------------------------------------------------------
# raw ndarray kernels (shared with the graph executor; accumulate in float32)
# ---------------------------------------------------------------------------

# Byte budget of one column slab. A conv fills and multiplies its column
# buffer one slab of output positions at a time so that the buffer stays in
# cache between the copy and the GEMM. 1 MiB keeps every desk GEMM's K and
# operand layout at sizes where OpenBLAS sums in the same order as one
# whole-item GEMM, so the outputs do not depend on the slab size there.
COL_SLAB_BYTES = 1 << 20


def _col_slab(k: int, od: int, oh: int, ow: int) -> tuple:
    """(planes, rows) of one column slab of a conv with K = `k` and output
    [od,oh,ow]: whole output planes while they fit in COL_SLAB_BYTES,
    otherwise a block of rows of one plane (at least one row)."""
    cols = COL_SLAB_BYTES // (4 * k)
    if cols >= oh * ow:
        return min(od, cols // (oh * ow)), oh
    return 1, max(1, cols // ow)


def _channels(c: int, cw: int) -> None:
    if c != cw:
        raise ShapeError(f"channel axis mismatch: input C={c} vs weight C={cw}")


def _bias(o: int, b: Optional[tuple]) -> None:
    if b is not None and tuple(b) != (o,):
        raise ShapeError(f"bias axis mismatch: expected ({o},), got {tuple(b)}")


def _window(op: str, sizes: tuple, kernel: tuple, stride: tuple, pad=(0, 0, 0), dilation=(1, 1, 1)) -> tuple:
    """(depth, height, width) of `op`'s output over input extents `sizes`;
    ShapeError unless kernel, stride and dilation are three ints >= 1, pad
    three ints >= 0, and every output axis keeps at least one position."""
    for name, v, low in (("kernel", kernel, 1), ("stride", stride, 1), ("dilation", dilation, 1), ("pad", pad, 0)):
        if len(v) != 3 or min(v) < low:
            raise ShapeError(f"{op} {name} must be 3 values >= {low}, got {tuple(v)}")
    out = tuple((n + 2 * p - (k - 1) * dl - 1) // s + 1
                for n, k, s, p, dl in zip(sizes, kernel, stride, pad, dilation))
    for axis, extent in zip(("depth", "height", "width"), out):
        if extent < 1:
            raise ShapeError(f"{op} output {axis} axis collapses to {extent} (< 1)")
    return out


def conv3d_shape(x: tuple, w: tuple, b: Optional[tuple], stride: tuple, pad: tuple, dilation: tuple) -> tuple:
    """The [N,O,od,oh,ow] output shape of conv3d_raw on an input of shape
    `x` [N,C,D,H,W], a weight of shape `w` [O,C,kd,kh,kw] and a bias of
    shape `b` (None without one); ShapeError where conv3d_raw rejects them."""
    if len(x) != 5:
        raise ShapeError(f"conv3d input must be 5-D [N,C,D,H,W], got {len(x)}-D")
    if len(w) != 5:
        raise ShapeError(f"conv3d weight must be 5-D [O,C,kd,kh,kw], got {len(w)}-D")
    _channels(x[1], w[1])
    _bias(w[0], b)
    return (x[0], w[0]) + _window("conv3d", x[2:], w[2:], stride, pad, dilation)


def _reads(outs: tuple, kernel: tuple, stride: tuple, dilation: tuple) -> tuple:
    """Per axis, the padded input entries that `outs` output positions read."""
    return tuple((n - 1) * s + (k - 1) * dl + 1 for n, k, s, dl in zip(outs, kernel, stride, dilation))


def _conv3d_scratch(in_shape: tuple, out_shape: tuple, taps: tuple, pad: tuple,
                    stride: Optional[tuple] = None, dilation: Optional[tuple] = None) -> tuple:
    """The scratch of a conv3d with weight taps `taps` [C,kd,kh,kw]: (the
    window's shape [C, planes read, rows read, W+2pw], which holds one column
    slab's input zero-padded, None when `pad` is all zero; the (planes, rows)
    of the column slab [K, planes*rows*ow], see _col_slab; the floats of each).
    Without `stride` and `dilation` the window spans the whole padded item,
    which bounds it for every geometry."""
    c, kd, kh, _ = taps
    d, h, w = in_shape[2:]
    k = int(np.prod(taps))
    planes, rows = _col_slab(k, *out_shape[2:])
    window = None
    if any(pad):
        reads = ((d + 2 * pad[0], h + 2 * pad[1]) if stride is None or dilation is None
                 else _reads((planes, rows), (kd, kh), stride, dilation))
        window = (c, *reads, w + 2 * pad[2])
    return window, (planes, rows), int(np.prod(window)) if window else 0, k * planes * rows * out_shape[4]


def conv3d_workspace_elems(in_shape: tuple, out_shape: tuple, c: int, kernel: tuple, pad: tuple, *,
                           stride: Optional[tuple] = None, dilation: Optional[tuple] = None) -> int:
    """Scratch floats conv3d_raw wants: one padded input window + one column
    slab (see _conv3d_scratch). Given the conv's `stride` and `dilation` this
    is the exact need; without them, the window is sized as the whole padded
    item, an upper bound. The slab is at most COL_SLAB_BYTES unless one output
    row alone is larger; neither grows with N."""
    _, _, win_elems, col_elems = _conv3d_scratch(in_shape, out_shape, (c,) + tuple(kernel), pad, stride, dilation)
    return win_elems + col_elems


def _conv3d_setup(x_shape: tuple, w: np.ndarray, b: Optional[np.ndarray], stride: tuple, pad: tuple,
                  dilation: tuple, out: Optional[np.ndarray], workspace: Optional[np.ndarray]):
    """Checks a conv3d call on input of shape `x_shape` [N,C,D,H,W] and cuts
    its buffers: (out, the zeroed window, None without padding, the flat
    column slab, the weight as [O,K], the taps shape [C,kd,kh,kw,od,oh,ow],
    the slab's (planes, rows))."""
    shape = conv3d_shape(x_shape, w.shape, None if b is None else b.shape, stride, pad, dilation)
    window, slab, win_elems, col_elems = _conv3d_scratch(x_shape, shape, w.shape[1:], pad, stride, dilation)
    if workspace is None:
        workspace = np.empty(win_elems + col_elems, dtype=np.float32)
    elif workspace.size < win_elems + col_elems:
        raise ShapeError(f"conv3d workspace holds {workspace.size} floats, needs {win_elems + col_elems}")
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ShapeError(f"conv3d out must be C-contiguous {shape}, got {out.shape}")
    win = None
    if window:
        win = workspace[:win_elems].reshape(window)
        win.fill(0.0)  # the W border stays zero; each slab overwrites the rest it reads
    col = workspace[win_elems:win_elems + col_elems]
    # K runs (c,kd,kh,kw), as the column slab's rows do
    return out, win, col, w.reshape(w.shape[0], -1), w.shape[1:] + shape[2:], slab


def _fill_window(win: np.ndarray, src: np.ndarray, starts: tuple, reads: tuple, pad: tuple) -> None:
    """win[:, :nd, :nh] = the `reads` (nd, nh) planes and rows from padded
    index `starts` of src [C,D,H,W] zero-padded by `pad`; the W border of
    `win` is already zero."""
    into, src_box = [slice(None)], [slice(None)]
    for axis, (start, n, p, size) in enumerate(zip(starts, reads, pad, src.shape[1:3]), 1):
        lo = min(n, max(0, p - start))  # entries [lo, hi) of the n read hold input, the rest padding
        hi = max(lo, min(n, p + size - start))
        if lo:  # zero the padding again: an earlier slab or item may have left input there
            win[(slice(None),) * axis + (slice(0, lo),)] = 0.0
        if hi < n:
            win[(slice(None),) * axis + (slice(hi, n),)] = 0.0
        into.append(slice(lo, hi))
        src_box.append(slice(start - p + lo, start - p + hi))
    win[(*into, slice(pad[2], pad[2] + src.shape[3]))] = src[tuple(src_box)]


def _conv3d_item(src, ys, win, col, wmat, taps_shape, slab, stride, pad, dilation, b, relu) -> None:
    """One batch item src [C,D,H,W] into each (y [O, od*oh*ow], mirrored)
    of `ys`, a mirrored y from src reversed along W, one column slab at a
    time: the slab's input zero-padded into `win` (read from src in place
    without padding), its taps into the flat column buffer `col`, then per y
    the GEMM into the slab's columns of y; bias and ReLU in place once the
    last slab is in."""
    k = wmat.shape[1]
    c, kd, kh, kw, od, oh, ow = taps_shape
    sd, sh, sw = stride
    dd, dh, dw = dilation
    planes, rows = slab
    base = src if win is None else win
    # every tap of every output position of the item (of one slab, in the window) as one read-only
    # strided view: tap (a,e,f) of output (z,y,x) reads base[:, a*dd + z*sd, e*dh + y*sh, f*dw + x*sw]
    taps = {}
    for _, mirrored in ys:
        v = base[..., ::-1] if mirrored else base
        s_c, s_d, s_h, s_w = v.strides
        taps[mirrored] = as_strided(v, (c, kd, kh, kw) + ((od, oh) if win is None else slab) + (ow,),
                                    (s_c, s_d * dd, s_h * dh, s_w * dw, s_d * sd, s_h * sh, s_w * sw), writeable=False)
    for z in range(0, od, planes):
        for r in range(0, oh, rows):
            pz, pr = min(planes, od - z), min(rows, oh - r)
            z0, r0 = (z, r) if win is None else (0, 0)
            if win is not None:
                _fill_window(win, src, (z * sd, r * sh), _reads((pz, pr), (kd, kh), stride, dilation), pad)
            n = pz * pr * ow
            cols = col[:k * n].reshape(c, kd, kh, kw, pz, pr, ow)  # contiguous, also for a shorter last slab
            start = (z * oh + r) * ow
            for y, mirrored in ys:
                np.copyto(cols, taps[mirrored][..., z0:z0 + pz, r0:r0 + pr, :])
                # one contiguous column range of y: BLAS writes it through its leading dimension
                np.matmul(wmat, cols.reshape(k, n), out=y[:, start:start + n])
    for y, _ in ys:
        if b is not None:
            y += b[:, None]
        if relu:
            np.maximum(y, 0.0, out=y)


def conv3d_raw(
    x: np.ndarray,
    w: np.ndarray,
    b: Optional[np.ndarray],
    stride: tuple,
    pad: tuple,
    dilation: tuple,
    relu: bool = False,
    out: Optional[np.ndarray] = None,
    workspace: Optional[np.ndarray] = None,
    size: Optional[int] = None,
    crops: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Direct 3-D cross-correlation with zero padding on [N,C,D,H,W] input,
    or, given a crop `size`, on the `size` crops `crops` of a [C,D,H,W] clip.

    Lowered to GEMMs over a tap-major column buffer, one column slab per GEMM:
    a slab is whole output planes while they fit in COL_SLAB_BYTES, else a
    block of rows of one plane. With padding, the input planes and rows a slab
    reads are first copied into a zero-bordered window [C, planes read, rows
    read, W+2pw] in scratch. Each slab is filled with one strided copy from
    that window (from the item itself without padding), and its GEMM writes
    [O, slab columns] straight into its columns of `out[i]` viewed as
    [O, od*oh*ow]; bias and ReLU are applied there in place after the item's
    last slab. On the desk convs this equals one whole-item GEMM, and a
    row-major im2col times the transposed weight, bit for bit; BLAS may sum a
    small GEMM's products in an order that depends on its operands' sizes and
    which one is on the left, so on small shapes these agree to float32
    rounding.

    With `size`, the items are the crops `crops` (indices into the ten crops
    of crop_views, in the order given; all ten when None) of the clip `x`,
    read in place: no crop is copied out of the clip. Each column slab of
    each base crop a selected crop is cut from fills the window once; that
    slab of a selected base crop is computed from the window, and that of a
    selected mirror from the W-reversed view of it. Padding is symmetric per
    axis and the window spans the whole padded W, so the reversed window is
    the mirrored crop's window, the column buffer gets the same values, and
    the result equals conv3d_raw(ten_crop(x, size, crops)) bit for bit.

    `workspace` (flat float32, at least conv3d_workspace_elems) holds the
    window and one column slab, so repeated calls allocate nothing; one is
    allocated when it is not given. `out`, when given, must be a
    C-contiguous [N,O,od,oh,ow] float32 array (N the number of crops with
    `size`). Values do not depend on either.
    """
    shape = x.shape if size is None else ten_crop_shape(x.shape, size, crops)
    out, win, col, wmat, taps_shape, slab = _conv3d_setup(shape, w, b, stride, pad, dilation, out, workspace)
    # (source item, its (output row, mirrored) list)
    items = [(x[i], [(i, False)]) for i in range(x.shape[0])] if size is None else crop_views(x, size, crops)
    for src, rows in items:
        _conv3d_item(src, [(out[k].reshape(len(wmat), -1), mirrored) for k, mirrored in rows], win, col, wmat,
                     taps_shape, slab, stride, pad, dilation, b, relu)
    return out


def ten_crop_shape(clip: tuple, size: int, crops: Optional[Sequence[int]] = None) -> tuple:
    """The [n,C,L,size,size] shape of `crops` (indices into the ten crops;
    None for all ten, n = 10) of a clip of shape `clip` [C,L,H,W];
    ShapeError when the clip is not 4-D, a crop does not fit in it, or
    `crops` is empty, repeats an index or has one outside [0, 10)."""
    if len(clip) != 4:
        raise ShapeError(f"ten-crop input must be a 4-D [C,L,H,W] clip, got {len(clip)}-D")
    c, d, h, w = clip
    if h < size or w < size:
        raise ShapeError(f"frame extent {h}x{w} smaller than crop {size}; resize the shorter side first")
    if crops is None:
        return (10, c, d, size, size)
    if not crops or len(set(crops)) != len(crops) or any(not 0 <= k < 10 for k in crops):
        raise ShapeError(f"crops must be distinct indices in [0, 10), at least one, got {tuple(crops)}")
    return (len(crops), c, d, size, size)


def crop_views(clip: np.ndarray, size: int, crops: Optional[Sequence[int]] = None) -> list:
    """The crops `crops` (all ten when None) of a clip that ten_crop_shape
    accepts, grouped by the base crop they are cut from: one (view, rows) per
    base crop used, in order of first use. `view` is the base crop as a view
    of the clip's last two axes, and `rows` holds (output row, mirrored) for
    each selected crop it gives. Crops 0-4 are the base crops top-left,
    top-right, bottom-left, bottom-right and center; crop `5 + j` is crop
    `j` mirrored along W."""
    h, w = clip.shape[-2:]
    top, left = (h - size) // 2, (w - size) // 2
    origins = ((0, 0), (0, w - size), (h - size, 0), (h - size, w - size), (top, left))
    bases = [clip[..., y:y + size, x:x + size] for y, x in origins]
    groups: dict = {}
    for row, k in enumerate(range(10) if crops is None else crops):
        groups.setdefault(k % 5, []).append((row, k >= 5))
    return [(bases[j], rows) for j, rows in groups.items()]


def conv1d_shape(x: tuple, w: tuple, b: Optional[tuple], dilation: int) -> tuple:
    """The [O,T] output shape of conv1d_raw on an input of shape `x` [C,T],
    a weight of shape `w` [O,C,k] and a bias of shape `b` (None without
    one); ShapeError where conv1d_raw rejects them."""
    if len(x) != 2:
        raise ShapeError(f"conv1d input must be 2-D [C,T], got {len(x)}-D")
    if len(w) != 3:
        raise ShapeError(f"conv1d weight must be 3-D [O,C,k], got {len(w)}-D")
    (c, t), (o, cw, k) = x, w
    _channels(c, cw)
    _bias(o, b)
    if k % 2 == 0:
        raise ShapeError(f"even kernel size k={k}: symmetric same-padding undefined")
    if t < 1:
        raise ShapeError("temporal axis must have extent >= 1")
    if dilation < 1:  # conv1d_raw's strided view reads in bounds only for dilation >= 1
        raise ShapeError(f"dilation must be >= 1, got {dilation}")
    return (o, t)


def conv1d_raw(
    x: np.ndarray,
    w: np.ndarray,
    dilation: int,
    b: Optional[np.ndarray] = None,
    relu: bool = False,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Same-length dilated cross-correlation on [C,T] input, weight [O,C,k], k odd."""
    o, t = conv1d_shape(x.shape, w.shape, None if b is None else b.shape, dilation)
    c, k = w.shape[1:]
    half = (k - 1) * dilation // 2
    xp = np.zeros((c, t + 2 * half), dtype=x.dtype)
    xp[:, half:half + t] = x
    # tap j of output position i reads xp[:, i + j*dilation]; k == 1 stays a transposed view
    s0, s1 = xp.strides
    col = as_strided(xp, (t, c, k), (s1, s0, s1 * dilation), writeable=False).reshape(t, c * k)
    y = col @ w.reshape(o, -1).T  # [t,o]
    if b is not None:
        y += b
    if relu:
        np.maximum(y, 0.0, out=y)
    res = y.T
    if out is not None:
        out[...] = res
        return out
    return np.ascontiguousarray(res)


def linear_shape(x: tuple, w: tuple, b: Optional[tuple]) -> tuple:
    """The [...,O] output shape of linear_raw on an input of shape `x`
    [...,I], a weight of shape `w` [O,I] and a bias of shape `b` (None
    without one); ShapeError where linear_raw rejects them."""
    if len(w) != 2:
        raise ShapeError(f"linear weight must be 2-D [O,I], got {len(w)}-D")
    o, i = w
    if tuple(x[-1:]) != (i,):
        raise ShapeError(f"trailing axis mismatch: input shape {tuple(x)} vs weight I={i}")
    _bias(o, b)
    return tuple(x[:-1]) + (o,)


def linear_raw(
    x: np.ndarray,
    w: np.ndarray,
    b: Optional[np.ndarray] = None,
    relu: bool = False,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Affine map on the trailing axis: x[...,I] @ w[O,I]^T (+ b)."""
    linear_shape(x.shape, w.shape, None if b is None else b.shape)
    y = x @ w.T
    if b is not None:
        y += b
    if relu:
        np.maximum(y, 0.0, out=y)
    if out is not None:
        out[...] = y
        return out
    return y


def softmax_raw(x: np.ndarray, axis: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """exp(x - max) / sum along `axis`. The result goes to `out` when given
    (x itself is allowed), with no x-sized temporary; the values are the same."""
    m = np.max(x, axis=axis, keepdims=True)
    if np.isnan(m).any():  # the max of a row propagates any NaN in it
        warnings.warn("softmax input contains NaN; propagating", RuntimeWarning)
    e = np.subtract(x, m, out=out)
    np.exp(e, out=e)
    return np.divide(e, np.sum(e, axis=axis, keepdims=True), out=e)


def maxpool3d_shape(x: tuple, kernel: tuple, stride: tuple) -> tuple:
    """The [N,C,od,oh,ow] output shape of maxpool3d_raw on an input of shape
    `x` [N,C,D,H,W]; ShapeError where maxpool3d_raw rejects it."""
    if len(x) != 5:
        raise ShapeError(f"maxpool3d input must be 5-D, got {len(x)}-D")
    return tuple(x[:2]) + _window("maxpool3d", x[2:], kernel, stride)


def maxpool3d_raw(x: np.ndarray, kernel: tuple, stride: tuple) -> np.ndarray:
    maxpool3d_shape(x.shape, kernel, stride)
    win = sliding_window_view(x, tuple(kernel), axis=(2, 3, 4))
    sd, sh, sw = stride
    win = win[:, :, ::sd, ::sh, ::sw]
    return np.ascontiguousarray(win.max(axis=(5, 6, 7)))


def nonlocal_raw(
    x: np.ndarray,
    w_theta: np.ndarray,
    w_phi: np.ndarray,
    w_g: np.ndarray,
    w_out: np.ndarray,
    out: Optional[np.ndarray] = None,
    workspace: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Residual softmax self-attention over all positions of [N,C,*spatial] input.

    Projections are pointwise (1x1) maps C->Ci given as [C,Ci] matrices; the
    output projection w_out is [Ci,C]. Attention logits are scaled by 1/sqrt(Ci).
    Attention runs one batch item at a time, its logits and then its attention
    in the first P*P floats of the flat float32 `workspace` (P positions;
    allocated when not given), so repeated calls allocate no [P,P] buffer. The
    result goes to `out` (same shape as x; allocated when not given), which
    must not overlap x except as x itself. Values do not depend on either.
    """
    n, c = x.shape[0], x.shape[1]
    if w_theta.shape[0] != c:
        raise ShapeError(f"channel axis mismatch: input C={c} vs projection C={w_theta.shape[0]}")
    ci = w_theta.shape[1]
    if out is None:
        out = np.empty(x.shape, dtype=np.float32)
    elif out.shape != x.shape:
        raise ShapeError(f"nonlocal out shape {out.shape} != input shape {x.shape}")
    p = int(np.prod(x.shape[2:]))
    if workspace is None:
        workspace = np.empty(p * p, dtype=np.float32)
    elif workspace.size < p * p:
        raise ShapeError(f"nonlocal workspace holds {workspace.size} floats, needs {p * p}")
    logits = workspace[:p * p].reshape(p, p)  # every item's logits, then its attention
    scale = np.sqrt(np.float32(ci))
    for i in range(n):
        flat = x[i].reshape(c, -1).T  # [P, c]
        theta = flat @ w_theta  # [P,ci]
        phi = flat @ w_phi
        g = flat @ w_g
        np.matmul(theta, phi.T, out=logits)
        logits /= scale
        attn = softmax_raw(logits, axis=-1, out=logits)
        y = (attn @ g) @ w_out  # [P,c]
        np.add(x[i], y.T.reshape(x.shape[1:]), out=out[i])
    return out
