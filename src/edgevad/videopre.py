"""Video preprocessing: snippet segmentation, resize, ten-crop, normalize.

Stage order is fixed and load-bearing: gather frames -> float tensor -> resize
shorter side to 256 -> ten-crop 224 -> stack -> normalize. Normalization
constants live on the 0-255 pixel scale, so frames are never pre-scaled to [0,1].
`prepare_clip` resizes, stacks and normalizes the uncropped [3,L,H,W] clip;
`preprocess_snippet` is `ten_crop` of it. Normalization is elementwise, so
normalizing before the crops are cut gives the same bits. The pipeline queues
`prepare_clip`'s clips and lets the extractor graph cut the crops.

The resize is separable: `resize_frames` resizes each channel's [L,h,w]
planes with the two-tap lerp weights of `_lerp_matrix`, cut by `_lerp_bands`
into cached read-only blocks of RESIZE_BLOCK output rows. Each block
multiplies only the band of input rows (or columns) its taps read, instead of
one dense Rh @ (X @ Rw.T) that is nearly all zeros, and writes straight into
the [3,L,H,W] clip. matmul runs one GEMM per plane per block, of the same
shape for one frame as for a clip, so the per-frame API (`resize_bilinear`,
`resize_shorter_side`, the same function on one frame) and `prepare_clip`
give the same bits when both run at the same OpenBLAS thread count. The bits
were also the same at 1 and 2 threads on every size measured, extreme aspect
ratios (7x500, 500x7) included, and equal to the dense product's on the
benchmark's 64x64 and 180x320 frames. The GEMMs round with fused
multiply-adds: where the weights are dyadic (64x64 frames scaled by 4) the
result is exact in any order; elsewhere it can differ from a per-pixel lerp
in the last bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .tensor import Tensor, crop_views, ten_crop_shape

RESIZE_TARGET = 256
CROP_SIZE = 224
DEFAULT_SNIPPETS = 32
DEFAULT_SNIPPET_LEN = 16
# output rows (or columns) per banded resize GEMM; see `_lerp_bands`
RESIZE_BLOCK = 32


@dataclass
class RawVideo:
    """Uniform-dimension frame sequence, at least 1x1, with pixel values on
    the 0-255 scale: a list of HxWx3 arrays, or a sequence whose [N,H,W,3]
    `shape` is checked instead of its frames (an array, a file source's lazy
    `FileFrames`)."""

    frames: Sequence[np.ndarray]
    fps: float = 30.0
    source_id: str = "unknown"
    frame_hw: Tuple[int, int] = field(init=False)  # (H, W) of every frame

    def __post_init__(self) -> None:
        if len(self.frames) < 1:
            raise ValueError("RawVideo needs at least one frame")
        shapes = [self.frames.shape[1:]] if hasattr(self.frames, "shape") else [f.shape for f in self.frames]
        self.frame_hw = h, w = tuple(shapes[0][:2])
        for i, s in enumerate(shapes):
            if len(s) != 3 or s[2] != 3:
                raise ValueError(f"frame {i} is not HxWx3")
            if s[:2] != (h, w):
                raise ValueError(f"frame {i} dimensions {s[:2]} differ from frame 0 {(h, w)}")
        if h < 1 or w < 1:
            raise ValueError(f"frames of {h}x{w} hold no pixels")

    @property
    def frame_count(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class SnippetPlan:
    """Uniformly spaced snippet start indices over a video."""

    snippet_count: int
    frames_per_snippet: int
    start_indices: Tuple[int, ...]

    def __post_init__(self) -> None:
        if list(self.start_indices) != sorted(self.start_indices):
            raise ValueError("start indices must be nondecreasing")
        if len(self.start_indices) != self.snippet_count:
            raise ValueError("start index count must equal snippet_count")


@dataclass(frozen=True)
class NormConstants:
    mean: Tuple[float, float, float] = (114.75, 114.75, 114.75)
    std: Tuple[float, float, float] = (57.375, 57.375, 57.375)

    def __post_init__(self) -> None:
        if any(s <= 0 for s in self.std):
            raise ValueError("std must be strictly positive")


@dataclass
class ClipBatch:
    """Normalized ten-crop pixel block for one snippet: [10, 3, L, 224, 224]."""

    data: Tensor
    snippet_index: int
    start_frame: int
    timestamp_s: float

    def __post_init__(self) -> None:
        s = self.data.shape
        if len(s) != 5 or s[0] != 10 or s[3] != CROP_SIZE or s[4] != CROP_SIZE:
            raise ValueError(f"ClipBatch data must be [10,3,L,{CROP_SIZE},{CROP_SIZE}], got {s}")


def _axis_lerp_coords(in_len: int, out_len: int):
    # half-pixel-center source coordinates with edge clamping
    src = (np.arange(out_len, dtype=np.float64) + 0.5) * (in_len / out_len) - 0.5
    lo = np.floor(src).astype(np.int64)
    frac = (src - lo).astype(np.float32)
    lo_c = np.clip(lo, 0, in_len - 1)
    hi_c = np.clip(lo + 1, 0, in_len - 1)
    return lo_c, hi_c, frac


def _lerp_matrix(in_len: int, out_len: int) -> np.ndarray:
    """The two-tap lerp of `_axis_lerp_coords` as a float32 [out_len, in_len] matrix."""
    lo, hi, frac = _axis_lerp_coords(in_len, out_len)
    m = np.zeros((out_len, in_len), dtype=np.float32)
    rows = np.arange(out_len)
    np.add.at(m, (rows, lo), 1 - frac)  # clamped edges put both taps on one pixel
    np.add.at(m, (rows, hi), frac)
    return m


@functools.lru_cache(maxsize=32)
def _lerp_bands(in_len: int, out_len: int) -> Tuple[Tuple[int, int, int, int, np.ndarray, np.ndarray], ...]:
    """`_lerp_matrix` cut into blocks of RESIZE_BLOCK output rows, each
    (r0, r1, a, b, blk, blkT): rows [r0, r1) read only inputs [a, b), the
    span of their non-zero taps, and blk = m[r0:r1, a:b]; blkT is its
    transpose. Both blocks are C-contiguous and read-only."""
    m = _lerp_matrix(in_len, out_len)
    bands = []
    for r0 in range(0, out_len, RESIZE_BLOCK):
        r1 = min(r0 + RESIZE_BLOCK, out_len)
        taps = np.flatnonzero(m[r0:r1].any(axis=0))
        a, b = int(taps[0]), int(taps[-1]) + 1
        blk = m[r0:r1, a:b].copy()
        blkT = np.ascontiguousarray(blk.T)
        blk.flags.writeable = blkT.flags.writeable = False
        bands.append((r0, r1, a, b, blk, blkT))
    return tuple(bands)


def resize_frames(frames: Sequence[np.ndarray], out_h: int, out_w: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Bilinear resample of L HxWx3 frames into the channels-first clip
    [3, L, out_h, out_w], written to `out` when it is given (a C-contiguous
    float32 array of that shape), else to a fresh array.

    Each channel's [L,h,w] planes are copied to one contiguous float32 stack
    X. The width pass multiplies each band of X's columns by its block's
    transpose into one channel's width-pass scratch; the height pass
    multiplies each block by its band of the scratch's rows into the clip
    (`_lerp_bands`). An axis whose length does not change is copied, not
    multiplied. Every plane runs GEMMs of the same shapes whatever L is, so a
    clip equals its frames resized one at a time at the same OpenBLAS thread
    count, bit for bit.
    """
    n, (h, w) = len(frames), frames[0].shape[:2]
    shape = (3, n, out_h, out_w)
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    elif out.shape != shape or out.dtype != np.float32 or not out.flags.c_contiguous:
        raise ValueError(f"resize out must be C-contiguous float32 {shape}, got {out.dtype} {out.shape}")
    # one channel's scratch at a time: its planes, and them after the width pass
    x = np.empty((n, h, w), dtype=np.float32)
    xw = x if w == out_w else np.empty((n, h, out_w), dtype=np.float32)
    for c in range(3):
        for j, f in enumerate(frames):
            x[j] = f[:, :, c]
        if w != out_w:
            for c0, c1, a, b, _, blkT in _lerp_bands(w, out_w):
                np.matmul(x[:, :, a:b], blkT, out=xw[:, :, c0:c1])
        if h != out_h:
            for r0, r1, a, b, blk, _ in _lerp_bands(h, out_h):
                np.matmul(blk, xw[:, a:b], out=out[c, :, r0:r1])
        else:
            out[c] = xw
    return out


def resize_bilinear(frame: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample of an HxWx3 frame to out_h x out_w: `resize_frames`
    of the one frame, as an HxWx3 view of its [3,1,H,W] clip."""
    return resize_frames([np.asarray(frame)], out_h, out_w)[:, 0].transpose(1, 2, 0)


def resized_extent(h: int, w: int, target: int = RESIZE_TARGET) -> Tuple[int, int]:
    """(height, width) once the shorter side is exactly `target`; the longer
    side rounds to nearest."""
    if h <= w:
        return target, int(round(w * target / h))
    return int(round(h * target / w)), target


def resize_shorter_side(frame: np.ndarray, target: int = RESIZE_TARGET) -> np.ndarray:
    """Scale so the shorter side becomes exactly `target`; longer side rounds to nearest."""
    return resize_bilinear(frame, *resized_extent(*frame.shape[:2], target))


def ten_crop(
    clip: np.ndarray, size: int = CROP_SIZE, crops: Optional[Sequence[int]] = None, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """[3,L,H,W] -> [10,3,L,size,size]: TL, TR, BL, BR, center, then their W-axis mirrors.
    Given `crops` (indices into those ten), only those crops, in that order.

    The crops are written to `out` when it is given (a C-contiguous float32
    array of the output shape), else to a fresh array; the values are the same.
    """
    shape = ten_crop_shape(clip.shape, size, crops)
    # explicit C-contiguous output: np.stack of strided views would keep the
    # source memory order and force a second full relayout downstream
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    elif out.shape != shape or out.dtype != np.float32 or not out.flags.c_contiguous:
        raise ValueError(f"ten_crop out must be C-contiguous float32 {shape}, got {out.dtype} {out.shape}")
    for k, crop in enumerate(crop_views(clip, size, crops)):
        out[k] = crop
    return out


def normalize(clip: np.ndarray, consts: NormConstants = NormConstants(), inplace: bool = False) -> np.ndarray:
    """(x - mean) / std per channel; the channel axis is at position ndim-4.

    inplace=True mutates (and returns) the given float32 array; callers use it
    only on buffers they own, like the stacked clip in preprocess_snippet.
    """
    x = np.asarray(clip, dtype=np.float32)
    ax = x.ndim - 4
    if x.shape[ax] != 3:
        raise ValueError(f"expected 3 channels at axis {ax}, got {x.shape[ax]}")
    shape = [1] * x.ndim
    shape[ax] = 3
    mean = np.asarray(consts.mean, dtype=np.float32).reshape(shape)
    std = np.asarray(consts.std, dtype=np.float32).reshape(shape)
    if inplace and x is clip:
        np.subtract(x, mean, out=x)
        np.divide(x, std, out=x)
        return x
    out = x - mean
    out /= std
    return out


def segment_snippets(
    video: RawVideo,
    snippet_count: int = DEFAULT_SNIPPETS,
    frames_per_snippet: int = DEFAULT_SNIPPET_LEN,
) -> SnippetPlan:
    """Uniform snippet starts: round(i * (N-L) / (T-1)), clamped; short videos start at 0."""
    n = video.frame_count
    span = max(0, n - frames_per_snippet)
    if snippet_count == 1:
        starts = (0,)
    else:
        starts = tuple(
            min(span, int(np.floor(i * span / (snippet_count - 1) + 0.5)))
            for i in range(snippet_count)
        )
    return SnippetPlan(snippet_count, frames_per_snippet, starts)


def gather_snippet_frames(video: RawVideo, plan: SnippetPlan, index: int) -> List[np.ndarray]:
    """The L frames of snippet `index`; indices past the end repeat the last frame."""
    if index >= plan.snippet_count:
        raise IndexError(f"snippet index {index} out of range [0, {plan.snippet_count})")
    start = plan.start_indices[index]
    last = video.frame_count - 1
    return [video.frames[min(start + j, last)] for j in range(plan.frames_per_snippet)]


def prepare_clip(
    video: RawVideo,
    plan: SnippetPlan,
    index: int,
    consts: NormConstants = NormConstants(),
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Snippet `index` resized, stacked channels-first and normalized: the
    uncropped [3,L,H,W] clip, with (H,W) = resized_extent of the frames.

    The clip is written to `out` when it is given (a C-contiguous float32
    array of that shape), else to a fresh array, and normalized there in place.
    """
    frames = gather_snippet_frames(video, plan, index)
    out = resize_frames(frames, *resized_extent(*frames[0].shape[:2]), out=out)
    return normalize(out, consts, inplace=True)


def preprocess_snippet(
    video: RawVideo,
    plan: SnippetPlan,
    index: int,
    consts: NormConstants = NormConstants(),
) -> ClipBatch:
    """Full per-snippet pipeline in fixed order; output is [10,3,L,224,224]:
    ten_crop of prepare_clip."""
    start = plan.start_indices[index]
    return ClipBatch(
        data=Tensor(ten_crop(prepare_clip(video, plan, index, consts))),
        snippet_index=index,
        start_frame=start,
        timestamp_s=start / video.fps if video.fps > 0 else 0.0,
    )
