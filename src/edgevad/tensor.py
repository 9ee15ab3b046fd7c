"""The float32 kernels behind the extractor and the scoring head, and the Tensor
that carries a graph's inputs, parameters and outputs.

Each `*_raw` kernel works on plain ndarrays and accumulates in float32; the graph
executor (`graphopt.OPS`) is its caller. Each `*_shape` function is the shape
rule of its kernel, checked by both the kernel and the graph. `conv3d_raw` is
the one conv3d kernel: given a crop `size`, it convolves the ten crops of an
uncropped clip without materializing them, once per union box of the crops
that share an orientation and a stride phase, and the boxes can carry on
through a trunk of convs. Its GEMMs round their column
counts up to GEMM_COLS, so each output column has the same bits in any slab
or box. A Tensor is an immutable float32 array with a precision tag. F16 is
emulated: values are rounded through IEEE binary16 on construction, and the
executor rounds each F16 node output the same way, so precision lowering is
deterministic and hardware-independent.
"""

from __future__ import annotations

import functools
import math
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
# cache between the copy and the GEMM.
COL_SLAB_BYTES = 1 << 20

# Each GEMM's column count is rounded up to a multiple of GEMM_COLS with spare
# columns. OpenBLAS then gives a column the bits one whole GEMM gives it, in
# whichever slab or box it is computed (tests/test_tensor.py::TestGemmColumns);
# a remainder of 1-8 can change a small GEMM's order of summation.
GEMM_COLS = 16


def _col_slab(k: int, od: int, oh: int, ow: int) -> tuple:
    """(planes, rows) of one column slab of a conv with K = `k` and output
    [od,oh,ow]: whole output planes while they fit in COL_SLAB_BYTES,
    otherwise a block of rows of one plane (at least one row)."""
    cols = COL_SLAB_BYTES // (4 * k)
    if cols >= oh * ow:
        return min(od, cols // (oh * ow)), oh
    return 1, max(1, cols // ow)


def _gemm_cols(n: int) -> int:
    return -(-n // GEMM_COLS) * GEMM_COLS


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


def _crop_origins(hw: tuple, size: int, crops: Optional[Sequence[int]]) -> list:
    """(mirrored, y, x) per crop of `crops` (all ten when None) of a clip of
    extent `hw`: its origin in the clip, or for a mirror in the clip reversed
    along W. Crops 0-4 are the base crops top-left, top-right, bottom-left,
    bottom-right and center; crop `5 + j` is crop `j` mirrored along W."""
    h, w = hw
    origins = [(0, 0), (0, w - size), (h - size, 0), (h - size, w - size), ((h - size) // 2, (w - size) // 2)]
    origins += [(y, w - size - x) for y, x in origins]
    return [(k >= 5, *origins[k]) for k in (range(10) if crops is None else crops)]


def _border(c: int, box: int, size: int, k: int, s: int, p: int, d: int, dirt: tuple) -> tuple:
    """Along one axis, for a crop of `size` entries at offset `c` (a multiple
    of the stride `s`) in a box of `box` entries, whose leading and trailing
    `dirt` entries may differ from the box's, convolved with `k` taps at pad
    `p` and dilation `d`: the crop outputs [lo, hi) that the box gives, and a
    (start, extent, (a, b)) per strip of crop entries [start, start + extent)
    that gives the crop outputs [a, b) whose taps reach a dirty entry, or
    past an edge of the crop where the box holds more input."""
    o = (size + 2 * p - (k - 1) * d - 1) // s + 1
    lo = min(o, -(-(p + dirt[0]) // s)) if c or dirt[0] else 0
    hi = max(lo, min(o, -(-(size - dirt[1] + p - (k - 1) * d) // s))) if c + size < box or dirt[1] else o
    strips = [(0, max(1, min(size, s * (lo - 1) - p + (k - 1) * d + 1)), (0, lo))] if lo else []
    if hi < o:
        start = max(0, s * hi - p) // s * s
        strips.append((start, size - start, (hi, o)))
    return (lo, hi), strips


def _conv3d_scratch(item: tuple, out: tuple, taps: tuple, pad: tuple, stride: Optional[tuple] = None,
                    dilation: Optional[tuple] = None, whole: bool = True) -> tuple:
    """The scratch of convolving one [C,D,H,W] box `item` into `out`
    [O,od,oh,ow] with taps `taps` [C,kd,kh,kw]: (the shape of the window [C,
    planes read, rows read, W+2pw] that holds one column slab's input
    zero-padded; the slab's (planes, rows), see _col_slab; the floats of the
    window, of the slab [K, planes*rows*ow] with its columns rounded up to
    GEMM_COLS, and of its GEMM output, which a `whole` output item whose
    slabs need no rounding does without). Without `stride` and `dilation`
    the window is the whole padded item, a bound."""
    c, kd, kh, _ = taps
    o, od, oh, ow = out
    k = math.prod(taps)
    planes, rows = _col_slab(k, od, oh, ow)
    reads = ((item[1] + 2 * pad[0], item[2] + 2 * pad[1]) if stride is None or dilation is None
             else _reads((planes, rows), (kd, kh), stride, dilation))
    window = (c, *reads, item[3] + 2 * pad[2])
    n = _gemm_cols(planes * rows * ow)
    spill = not whole or any(m % GEMM_COLS for m in (planes * rows * ow, od % planes * oh * ow, oh % rows * ow))
    return window, (planes, rows), math.prod(window), k * n, o * n if spill else 0


@functools.lru_cache(maxsize=64)
def _conv3d_plan(x_shape: Optional[tuple], w_shape: tuple, stride: tuple, pad: tuple, dilation: tuple,
                 size: Optional[int], crops: Optional[tuple], trunk: Optional[tuple], boxed: bool,
                 slab_bytes: int) -> tuple:
    """How conv3d_raw convolves, from its arguments' shapes (`x_shape` only
    for a batch; `slab_bytes` is the COL_SLAB_BYTES that cut the slabs): (its
    entries; the most floats of window, column slab and GEMM output that one
    entry needs; the [N,O,od,oh,ow] shape of its items' outputs; the shapes
    of a `trunk` input's pieces; a `boxed` output's layout, the shapes of its
    pieces and its items).

    An item (batch item or crop) is (its box, (Y, X), sources, its (rows,
    columns) dirt): its entries are its box's from (Y, X) on, but for its
    leading and trailing dirt, which its other sources hold. Each (src, (Y,
    X), (i0, i1, j0, j1)) of sources holds entries [i0, i1) x [j0, j1) as
    src[..., i+Y, j+X], src indexing the batch, the clip and its mirror, or
    the pieces. The items of one box whose offsets share a phase of the H and
    W strides are one entry, their hull; the outputs whose taps reach an
    item's border or dirt inside the hull come from strips of the item, one
    entry each (see _border). An entry is (sources, its input [C,D,H,W],
    dests, its [O,od,oh,ow] outputs, whether it is one whole output item or
    piece, its _conv3d_scratch); each (item, (Y, X), (i0, i1, j0, j1)) of
    dests takes the item's outputs [i0, i1) x [j0, j1) as the entry's
    [i+Y, j+X]. A `boxed` output keeps each entry's outputs, one piece each."""
    if size is not None and len(trunk) > 1:
        _, _, in_shape, _, (pieces, items) = _conv3d_plan(None, *trunk[-1], size, crops, trunk[:-1], True, slab_bytes)
    else:
        in_shape, pieces = x_shape if size is None else ten_crop_shape(trunk[0], size, crops), None
    out_shape = conv3d_shape(in_shape, w_shape, None, stride, pad, dilation)
    (sh, sw), (ph, pw), (dh, dw), (eh, ew), (oh, ow) = stride[1:], pad[1:], dilation[1:], in_shape[3:], out_shape[3:]
    if pieces is None:
        origins = [(i, 0, 0) for i in range(in_shape[0])] if size is None else \
            _crop_origins(trunk[0][-2:], size, crops)
        items = [(b, (y, x), ((b, (y, x), (0, eh, 0, ew)),), ((0, 0), (0, 0))) for b, y, x in origins]
    groups: dict = {}
    for k, (box, (y, x), _, _) in enumerate(items):
        groups.setdefault((box, y % sh, x % sw), []).append(k)
    entries, strips = [], ([], [])  # row strips, then column strips: few window shapes in a row
    for (box, _, _), group in groups.items():
        y0, x0 = min(items[k][1][0] for k in group), min(items[k][1][1] for k in group)
        h, w = max(items[k][1][0] for k in group) + eh - y0, max(items[k][1][1] for k in group) + ew - x0
        dests = []
        for k in group:
            _, (y, x), src, (rows_dirt, cols_dirt) = items[k]
            (i0, i1), rows = _border(y - y0, h, eh, w_shape[3], sh, ph, dh, rows_dirt)
            (j0, j1), cols = _border(x - x0, w, ew, w_shape[4], sw, pw, dw, cols_dirt)
            dests.append((k, ((y - y0) // sh, (x - x0) // sw), (i0, i1, j0, j1)))
            # a strip reads the item's own entries: its sources, moved to the strip's origin
            strips[0].extend((tuple((p, (Y + s, X), (a0 - s, a1 - s, b0, b1)) for p, (Y, X), (a0, a1, b0, b1) in src),
                              (e, ew), [(k, (-s // sh, 0), (a, b, 0, ow))]) for s, e, (a, b) in rows)
            strips[1].extend((tuple((p, (Y, X + s), (a0, a1, b0 - s, b1 - s)) for p, (Y, X), (a0, a1, b0, b1) in src),
                              (eh, e), [(k, (0, -s // sw), (0, oh, a, b))]) for s, e, (a, b) in cols)
        entries.append((((box, (y0, x0), (0, h, 0, w)),), (h, w), dests))
    geometry: dict = {}  # (entry extent, whole) -> (outputs, scratch): most entries share one
    plan, held = [], [[] for _ in items]
    for e, (src, hw, dests) in enumerate(entries + strips[0] + strips[1]):
        whole = boxed or (len(dests) == 1 and hw == (eh, ew))  # a piece, or the entry is that item
        item = (w_shape[1], in_shape[2], *hw)
        if (hw, whole) not in geometry:
            out = (w_shape[0],) + _window("conv3d", item[1:], w_shape[2:], stride, pad, dilation)
            geometry[hw, whole] = out, _conv3d_scratch(item, out, w_shape[1:], pad, stride, dilation, whole)
        out, scratch = geometry[hw, whole]
        for k, at, region in dests:
            held[k].append((e, at, region))
        plan.append((src, item, [(e, (0, 0), (0, out[2], 0, out[3]))] if boxed else dests, out, whole, scratch))
    # each item's first source is its box, the entry of its group
    layout = (tuple(out for *_, out, _, _ in plan),
              tuple((s[0][0], s[0][1], tuple(s), ((s[0][2][0], oh - s[0][2][1]), (s[0][2][2], ow - s[0][2][3])))
                    for s in held))
    need = tuple(max(scratch[i] for _, scratch in geometry.values()) for i in (2, 3, 4))
    return tuple(plan), need, out_shape, pieces, layout if boxed else None


def conv3d_io(x_shape: tuple, w_shape: tuple, b_shape: Optional[tuple], stride: tuple, pad: tuple,
              dilation: tuple, size: Optional[int] = None, crops: Optional[Sequence[int]] = None,
              trunk: Optional[tuple] = None, boxed: bool = False) -> tuple:
    """(the shape of conv3d_raw's `out`, the scratch floats it wants, its
    _conv3d_plan) on an input of shape `x_shape`, a weight of shape `w_shape`
    and a bias of shape `b_shape` (None without one); ShapeError where
    conv3d_raw rejects them."""
    plan = _conv3d_plan(None if size is not None else tuple(x_shape), tuple(w_shape), tuple(stride), tuple(pad),
                        tuple(dilation), size, None if crops is None else tuple(crops),
                        None if size is None else trunk or (tuple(x_shape),), boxed, COL_SLAB_BYTES)
    _bias(w_shape[0], b_shape)
    if plan[3] is not None and tuple(x_shape) != (sum(math.prod(s) for s in plan[3]),):
        raise ShapeError(f"conv3d trunk input must be its {len(plan[3])} pieces, flat, got {tuple(x_shape)}")
    return (sum(math.prod(s) for s in plan[4][0]),) if boxed else plan[2], sum(plan[1]), plan


def conv3d_workspace_elems(in_shape: tuple, out_shape: tuple, c: int, kernel: tuple, pad: tuple, *,
                           stride: Optional[tuple] = None, dilation: Optional[tuple] = None,
                           size: Optional[int] = None, crops: Optional[Sequence[int]] = None) -> int:
    """Scratch floats conv3d_raw wants (see conv3d_io) for an output of
    `out_shape` [N,O,od,oh,ow]: the exact need given the conv's `stride` and
    `dilation`, and without them an upper bound with the whole padded item
    as the window. With a crop `size` (which needs both), `in_shape` is the
    [C,L,H,W] clip of the crops `crops`. The column slab is at most
    COL_SLAB_BYTES unless one output row alone is larger; nothing grows with
    N."""
    if stride is None or dilation is None:
        return sum(_conv3d_scratch((c, *in_shape[-3:]), tuple(out_shape[1:]), (c, *kernel), pad)[2:])
    return conv3d_io(in_shape, (out_shape[1], c, *kernel), None, stride, pad, dilation, size, crops)[1]


def _fill_window(win: np.ndarray, views, sources: tuple, extent: tuple, starts: tuple, reads: tuple,
                 pad: tuple) -> None:
    """win[:, :nd, :nh] = the `reads` (nd, nh) planes and rows from padded
    index `starts` of an input of `extent` [D,H,W] zero-padded by `pad`,
    whose `sources` hold it in `views` (see _conv3d_plan); the W border of
    `win` is zero already."""
    held = []
    for axis, (start, n, p, size) in enumerate(zip(starts, reads, pad, extent), 1):
        lo = min(n, max(0, p - start))  # entries [lo, hi) of the n read hold input, the rest padding
        hi = max(lo, min(n, p + size - start))
        for a, e in ((0, lo), (hi, n)):
            if a < e:
                win[(slice(None),) * axis + (slice(a, e),)] = 0.0
        held.append((start - p, lo, hi))  # window index i holds input index i + start - p
    (dz, z0, z1), (dr, r0, r1) = held
    for src, (y, x), (i0, i1, j0, j1) in sources:
        a, e, j0, j1 = max(i0, r0 + dr), min(i1, r1 + dr), max(j0, 0), min(j1, extent[2])
        if a < e and j0 < j1:
            win[:, z0:z1, a - dr:e - dr, pad[2] + j0:pad[2] + j1] = \
                views[src][:, z0 + dz:z1 + dz, a + y:e + y, j0 + x:j1 + x]


def _conv3d_box(views, sources, item, out, dests, whole, win, taps, col, acc, wmat, box_out, stride, pad,
                dilation) -> None:
    """The entry (see _conv3d_plan) whose `sources` in `views` hold its
    input `item` [C,D,H,W], convolved into its outputs `box_out`
    [O,od,oh,ow] one column slab at a time: the slab's input zero-padded
    into `win`, its `taps` (a view of `win`) into `col`, its GEMM into
    `acc`, whence each dest copies its part into `out`; or, needing no
    rounding, the GEMM straight into the columns of a `whole` item."""
    o, od, oh, ow = box_out
    k = wmat.shape[1]
    planes, rows = taps.shape[4:6]
    for z in range(0, od, planes):
        for r in range(0, oh, rows):
            pz, pr = min(planes, od - z), min(rows, oh - r)
            _fill_window(win, views, sources, item[1:], (z * stride[0], r * stride[1]),
                         _reads((pz, pr), taps.shape[1:3], stride, dilation), pad)
            n = pz * pr * ow
            cols = col[:k * _gemm_cols(n)].reshape(k, -1)
            np.copyto(cols[:, :n].reshape(*taps.shape[:4], pz, pr, ow), taps[..., :pz, :pr, :])
            if n < cols.shape[1]:
                cols[:, n:] = 0.0  # spare columns, whose outputs are dropped: zeros keep them finite
            elif whole:
                # one contiguous column range of the item: BLAS writes it through its leading dimension
                start = (z * oh + r) * ow
                np.matmul(wmat, cols, out=out[dests[0][0]].reshape(o, -1)[:, start:start + n])
                continue
            res = np.matmul(wmat, cols, out=acc[:o * cols.shape[1]].reshape(o, -1))[:, :n].reshape(o, pz, pr, ow)
            for dest, (y, x), (i0, i1, j0, j1) in dests:
                a, e = max(i0, r - y), min(i1, r + pr - y)
                if a < e:
                    out[dest][:, z:z + pz, a:e, j0:j1] = res[:, :, a + y - r:e + y - r, j0 + x:j1 + x]


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
    trunk: Optional[tuple] = None,
    boxed: bool = False,
) -> np.ndarray:
    """Direct 3-D cross-correlation with zero padding on [N,C,D,H,W] input,
    or, given a crop `size`, on the `size` crops `crops` of a [C,D,H,W] clip.

    Lowered to GEMMs over a tap-major column buffer, one column slab per GEMM:
    a slab is whole output planes while they fit in COL_SLAB_BYTES, else a
    block of rows of one plane. The input planes and rows a slab reads are
    first copied into a zero-bordered window [C, planes read, rows read,
    W+2pw] in scratch, and the slab is filled from that window with one
    strided copy, its column count rounded up to GEMM_COLS, so that each
    output column has the bits one whole-item GEMM gives it. The GEMM writes
    [O, slab columns] into its columns of `out[i]` viewed as [O, od*oh*ow],
    through scratch where the count was rounded or the box feeds other
    items; bias and ReLU are applied in place at the end. A row-major im2col
    times the transposed weight equals this bit for bit on the desk convs,
    and to float32 rounding on small shapes, where BLAS may sum in an order
    that depends on which operand is on the left.

    With `size`, the items are the crops `crops` (indices into the ten crops
    of crop_views, in the order given; all ten when None) of the clip `x`,
    never materialized. The crops of one orientation (a mirror reads the
    clip reversed along W into a window held reversed, so that each fill
    copies forward) whose origins share a phase of the H and W strides are
    convolved once, as the box they span, zero-padded at its own edges, and
    each slab's output is copied into each crop it covers. The outputs whose
    taps reach a crop's border inside the box (zeros in the crop, input in
    the box) come from a thin strip of the crop instead (see _border). So
    the result equals conv3d_raw(ten_crop(x, size, crops)) bit for bit.

    The boxes can span a trunk of convs. With `boxed`, the output is flat:
    each box's and strip's outputs whole, one piece each, where a crop's
    outputs are its box's but for its dirt, the outputs its strips give.
    With `trunk` (the [C,L,H,W] clip, then each earlier conv of the trunk as
    (weight shape, stride, pad, dilation)), `x` is that flat output of the
    conv before this one, the last of `trunk`. Each box of this conv is then
    the hull of its crops in their box of that conv, and each strip reads
    its crop's own entries, from its box and its dirt. So the last conv of a
    trunk gives the crops that the same convs give on ten_crop(clip) bit for
    bit.

    `workspace` (flat float32, at least conv3d_io's) holds the window, one
    column slab and one slab of GEMM output, so repeated calls allocate
    nothing; one is allocated when it is not given. `out`, when given, must
    be a C-contiguous float32 array of conv3d_io's shape: [N,O,od,oh,ow] (N
    the number of crops with `size`), or flat with `boxed`. Values do not
    depend on either.
    """
    shape, _, (plan, need, _, pieces, layout) = conv3d_io(x.shape, w.shape, None if b is None else b.shape, stride,
                                                          pad, dilation, size, crops, trunk, boxed)
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ShapeError(f"conv3d out must be C-contiguous {shape}, got {out.shape}")
    if workspace is None:
        workspace = np.empty(sum(need), dtype=np.float32)
    elif workspace.size < sum(need):
        raise ShapeError(f"conv3d workspace holds {workspace.size} floats, needs {sum(need)}")
    col, acc = workspace[need[0]:need[0] + need[1]], workspace[need[0] + need[1]:sum(need)]
    wmat = w.reshape(w.shape[0], -1)  # K runs (c,kd,kh,kw), as the column slab's rows do
    views = x if size is None else (x, x[..., ::-1]) if pieces is None else _pieces(x, pieces)
    dst = _pieces(out, layout[0]) if boxed else out
    (sd, sh, sw), (dd, dh, dw) = stride, dilation
    win = taps = workspace[:0]  # the first entry gives the window its shape
    for sources, item, dests, box_out, whole, (window, slab, *_) in plan:
        if win.shape != window:
            win = workspace[:math.prod(window)].reshape(window)
            # zero the W border, which stays zero; each slab fills or zeroes the planes and rows it reads
            win[..., :pad[2]] = 0.0
            win[..., window[3] - pad[2]:] = 0.0
            # the window's shape fixes the slab's (planes, rows) and ow, so one view of it serves each slab:
            # tap (a,e,f) of output (z,y,x) reads win[:, a*dd + z*sd, e*dh + y*sh, f*dw + x*sw]; the second
            # view reads the window reversed along W, as a mirror's window is held
            s_c, s_d, s_h, s_w = win.strides
            taps = [as_strided(v, (*w.shape[1:], *slab, box_out[3]),
                               (s_c, s_d * dd, s_h * dh, t * dw, s_d * sd, s_h * sh, t * sw), writeable=False)
                    for v, t in ((win, s_w), (win[..., ::-1], -s_w))]
        # a mirror's window is filled reversed from the reversed clip, so each fill copies forward
        flip = size is not None and pieces is None and sources[0][0] == 1
        _conv3d_box(views, sources, item, dst, dests, whole, win[..., ::-1] if flip else win, taps[flip], col, acc,
                    wmat, box_out, stride, pad, dilation)
    if b is not None:
        for part in dst if boxed else (out,):
            part += b[:, None, None, None]
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def _pieces(flat: np.ndarray, shapes: tuple) -> list:
    """Views of consecutive parts of the flat `flat`, one per shape of `shapes`."""
    ends = np.cumsum([0] + [math.prod(s) for s in shapes]).tolist()
    return [flat[a:e].reshape(s) for a, e, s in zip(ends, ends[1:], shapes)]


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
    accepts, in order, as views of the clip's last two axes; a mirror is a
    view of the clip reversed along W (see _crop_origins)."""
    views = (clip, clip[..., ::-1])
    return [views[m][..., y:y + size, x:x + size] for m, y, x in _crop_origins(clip.shape[-2:], size, crops)]


def softmax_raw(x: np.ndarray, axis: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """exp(x - max) / sum along `axis` (nonlocal_raw shifts by a bound on the max
    and normalizes after its weighted sum). The result goes to `out` when given
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


# Query rows per block of nonlocal_raw: a [NL_ROWS,P] block of logits stays in cache through its softmax.
NL_ROWS = 128
# The largest shift b_r of a block that nonlocal_raw exponentiates shifted: each logit of row r is at least
# -b_r, so exp(logit - b_r) >= exp(-2 * NL_SHIFT) stays a normal float32 (subnormals slow a GEMM several fold).
NL_SHIFT = 43.0


def nonlocal_workspace_elems(x_shape: tuple, ci: int) -> int:
    """Scratch floats nonlocal_raw wants on [N,C,*spatial] input with `ci` inner channels: theta, phi and g
    of every item, each with one more row, one block of logits, one item's weighted sums, row sums and projection."""
    n, c, p = x_shape[0], x_shape[1], math.prod(x_shape[2:])
    return 3 * n * (ci + 1) * p + min(NL_ROWS, p) * p + p * (ci + 1 + c)


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
    output projection w_out is [Ci,C]. The logits' 1/sqrt(Ci) scale is folded
    into w_theta, and one batched GEMM gives every item's theta, phi and g.
    Theta gets a row -b, b_r = |theta_r| max_j |phi_j| being at least each
    logit of row r (Cauchy-Schwarz), and phi and g a row of ones. Each item
    attends in blocks of NL_ROWS query rows: one GEMM gives the logits less
    b, exponentiated in place, and one GEMM with [g;1] their weighted sums
    and row sums. A block with a b_r above NL_SHIFT or NaN, or whose shifted
    exp underflowed (a row sum below 2**-60) or gave NaN, takes the logits
    less their row max instead. The item's [P,Ci] weighted sums are then
    divided by the row sums once. The flat float32
    `workspace` (nonlocal_workspace_elems floats or more; allocated when not
    given) holds it all, so repeated calls allocate nothing. The result goes
    to `out` (same shape as x; allocated when not given), which must not
    overlap x except as x itself. Values do not depend on either.
    """
    n, c = x.shape[0], x.shape[1]
    if w_theta.shape[0] != c:
        raise ShapeError(f"channel axis mismatch: input C={c} vs projection C={w_theta.shape[0]}")
    ci = w_theta.shape[1]
    if out is None:
        out = np.empty(x.shape, dtype=np.float32)
    elif out.shape != x.shape:
        raise ShapeError(f"nonlocal out shape {out.shape} != input shape {x.shape}")
    p, need = math.prod(x.shape[2:]), nonlocal_workspace_elems(x.shape, ci)
    if workspace is None:
        workspace = np.empty(need, dtype=np.float32)
    elif workspace.size < need:
        raise ShapeError(f"nonlocal workspace holds {workspace.size} floats, needs {need}")
    qkv, logits, ys, z = _pieces(workspace, ((n, 3 * ci + 3, p), (min(NL_ROWS, p), p), (p, ci + 1), (c, p)))
    zero = np.zeros((c, 1), np.float32)
    w = np.concatenate([w_theta / np.sqrt(np.float32(ci)), zero, w_phi, zero, w_g, zero], axis=1).T  # [3Ci+3,C]
    np.matmul(w, x.reshape(n, c, p), out=qkv)
    # each item's rows: theta, -b, phi, 1, g, 1; b_r = |theta_r| max_j |phi_j| bounds row r's logits
    theta, bound, phi = qkv[:, :ci], qkv[:, ci], qkv[:, ci + 1:2 * ci + 1]
    np.einsum("nkp,nkp->np", phi, phi, out=bound)
    top = np.sqrt(bound.max(axis=1, keepdims=True))
    np.sqrt(np.einsum("nkp,nkp->np", theta, theta, out=bound), out=bound)
    bound *= -top
    qkv[:, 2 * ci + 1::ci + 1] = 1.0
    shifted = np.minimum.reduceat(bound, np.arange(0, p, NL_ROWS), axis=1) >= -NL_SHIFT  # per block; NaN: False
    y, sums = ys[:, :ci], ys[:, ci]
    for i in range(n):
        theta, phi, g = qkv[i, :ci + 1], qkv[i, ci + 1:2 * ci + 2], qkv[i, 2 * ci + 2:]
        for k, r in enumerate(range(0, p, NL_ROWS)):
            e, s = logits[:min(NL_ROWS, p - r)], slice(r, r + NL_ROWS)
            if shifted[i, k]:
                np.matmul(theta[:, s].T, phi, out=e)  # the logits less b
                np.exp(e, out=e)
                np.matmul(e, g.T, out=ys[s])  # the weighted sums, then the row sums
                if sums[s].min() >= 2.0 ** -60:
                    continue
            # a large shift, or exp underflowed past b, or NaN: the logits less their row max
            np.matmul(theta[:ci, s].T, phi[:ci], out=e)
            e -= e.max(axis=1, keepdims=True)
            np.exp(e, out=e)
            np.matmul(e, g.T, out=ys[s])
        y /= sums[:, None]
        np.matmul(w_out.T, y.T, out=z)
        np.add(x[i], z.reshape(x.shape[1:]), out=out[i])
    return out
