"""Configurable 3-D convolutional feature extractor with non-local attention.

Two reference configurations: `desk_scale_config` (2 plain stages, widths 8/16,
one non-local block, 32-D features) executes a full video in seconds on a CPU;
`full_scale_config` (bottleneck stages 3/4/6/3, partial temporal inflation,
non-local blocks in stages 3-4, 2048-D features) exists for parameter/FLOP
accounting and shape contracts. Parameters are randomly initialized: He-style
for convolutions, zero for non-local output projections, so every non-local
block starts as an exact residual identity.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .graphopt import ComputeGraph, GraphBuilder
from .tensor import Tensor


def _is_seq(v, n: Optional[int] = None) -> bool:
    return isinstance(v, (tuple, list)) and (n is None or len(v) == n)


@dataclass(frozen=True)
class ExtractorConfig:
    name: str
    stem_channels: int
    stem_kernel: Tuple[int, int, int]
    stem_stride: Tuple[int, int, int]
    stem_pad: Tuple[int, int, int]
    stage_widths: Tuple[int, ...]
    stage_blocks: Tuple[int, ...]
    stage_strides: Tuple[Tuple[int, int], ...]  # (temporal, spatial) stride of each stage's first block
    inflate: Tuple[Tuple[int, ...], ...]        # per stage, per block: 1 = temporal-3 first conv
    nonlocal_blocks: Tuple[Tuple[int, ...], ...]  # per stage: block indices followed by a non-local block
    output_dim: int
    block: str = "plain"                        # "plain" | "bottleneck"
    stem_pool: Optional[Tuple[Tuple[int, int, int], Tuple[int, int, int]]] = None
    crops: int = 10
    in_channels: int = 3
    frames: int = 16
    spatial: int = 224

    def validate(self) -> None:
        # sizes and counts; the graph's shape rules check kernels, strides and pads
        for fname in ("stem_channels", "stage_widths", "stage_blocks", "output_dim", "crops", "in_channels",
                      "frames", "spatial"):
            val = getattr(self, fname)
            if any(not isinstance(v, numbers.Integral) or v < 1 for v in (val if isinstance(val, tuple) else (val,))):
                raise ValueError(f"config {self.name}: {fname} must be ints >= 1, got {val!r}")
        n = len(self.stage_widths)
        for fname, val in (
            ("stage_blocks", self.stage_blocks),
            ("stage_strides", self.stage_strides),
            ("inflate", self.inflate),
            ("nonlocal_blocks", self.nonlocal_blocks),
        ):
            if len(val) != n:
                raise ValueError(f"config {self.name}: {fname} has {len(val)} entries for {n} stages")
        pool = self.stem_pool
        if pool is not None and not (_is_seq(pool, 2) and all(
                _is_seq(p, 3) and all(isinstance(v, numbers.Integral) and v >= 1 for v in p) for p in pool)):
            raise ValueError(f"config {self.name}: stem_pool must be None or two 3-int tuples of ints >= 1, got {pool!r}")
        for s, (blocks, infl, nl) in enumerate(zip(self.stage_blocks, self.inflate, self.nonlocal_blocks)):
            if not _is_seq(infl) or any(not isinstance(i, numbers.Integral) or i not in (0, 1) for i in infl):
                raise ValueError(f"config {self.name}: stage {s} inflate entries must be 0 or 1, got {infl!r}")
            if len(infl) != blocks:
                raise ValueError(f"config {self.name}: stage {s} inflate pattern length {len(infl)} != {blocks} blocks")
            if any(not 0 <= i < blocks for i in nl):
                raise ValueError(f"config {self.name}: stage {s} non-local index out of range [0, {blocks})")
        if self.block not in ("plain", "bottleneck"):
            raise ValueError(f"config {self.name}: unknown block style {self.block!r}")
        if "nl" in self.name.replace("non-local", "nl") and not any(self.nonlocal_blocks):
            raise ValueError(f"config {self.name}: labeled non-local but places no non-local block")

    @property
    def input_shape(self) -> Tuple[int, int, int, int, int]:
        return (self.crops, self.in_channels, self.frames, self.spatial, self.spatial)


def desk_scale_config(crops: int = 10) -> ExtractorConfig:
    return ExtractorConfig(
        name="desk-i3d-nl",
        stem_channels=8,
        stem_kernel=(3, 5, 5),
        stem_stride=(2, 4, 4),
        stem_pad=(1, 2, 2),
        stage_widths=(8, 16),
        stage_blocks=(1, 1),
        stage_strides=((1, 2), (2, 2)),
        inflate=((1,), (1,)),
        nonlocal_blocks=((), (0,)),
        output_dim=32,
        block="plain",
        crops=crops,
    )


def full_scale_config(crops: int = 10) -> ExtractorConfig:
    return ExtractorConfig(
        name="full-resnet50-i3d-nl",
        stem_channels=64,
        stem_kernel=(5, 7, 7),
        stem_stride=(2, 2, 2),
        stem_pad=(2, 3, 3),
        stem_pool=((1, 2, 2), (1, 2, 2)),
        stage_widths=(256, 512, 1024, 2048),
        stage_blocks=(3, 4, 6, 3),
        stage_strides=((1, 1), (1, 2), (2, 2), (2, 2)),
        inflate=((1, 0, 1), (1, 0, 1, 0), (1, 0, 1, 0, 1, 0), (0, 1, 0)),
        nonlocal_blocks=((), (), (2,), (1,)),
        output_dim=2048,
        block="bottleneck",
        crops=crops,
    )


def _he_conv(rng, shape):
    fan_in = int(np.prod(shape[1:]))
    return rng.normal(scale=np.sqrt(2.0 / fan_in), size=shape).astype(np.float32)


class _ParamInit:
    def __init__(self, builder: GraphBuilder, rng):
        self.b = builder
        self.rng = rng
        self.i = 0

    def conv(self, prefix, shape):
        self.i += 1
        return self.b.param(f"{prefix}_w{self.i}", Tensor(_he_conv(self.rng, shape)))

    def bias(self, prefix, n):
        self.i += 1
        return self.b.param(f"{prefix}_b{self.i}", Tensor(np.zeros(n, dtype=np.float32)))

    def dense(self, prefix, shape, scale=None):
        self.i += 1
        s = scale if scale is not None else np.sqrt(1.0 / shape[0])
        return self.b.param(f"{prefix}_m{self.i}", Tensor(self.rng.normal(scale=s, size=shape).astype(np.float32)))

    def zero(self, prefix, shape):
        self.i += 1
        return self.b.param(f"{prefix}_z{self.i}", Tensor(np.zeros(shape, dtype=np.float32)))


def _conv_unit(b, p, x, prefix, in_c, out_c, kernel, stride, pad, relu=True):
    w = p.conv(prefix, (out_c, in_c) + tuple(kernel))
    t = b.conv3d(x, w, stride=stride, pad=pad, name=prefix)
    t = b.bias(t, p.bias(prefix, out_c), axis=1)
    return b.relu(t) if relu else t


def _nonlocal_unit(b, p, x, prefix, channels):
    inter = max(1, channels // 2)
    wt = p.dense(prefix + "_t", (channels, inter))
    wp = p.dense(prefix + "_p", (channels, inter))
    wg = p.dense(prefix + "_g", (channels, inter))
    wo = p.zero(prefix + "_o", (inter, channels))
    return b.nonlocal3d(x, wt, wp, wg, wo, name=prefix)


def build_extractor(
    config: ExtractorConfig, seed: int = 0, clip_hw: Optional[Tuple[int, int]] = None
) -> ComputeGraph:
    """Assemble the extractor compute graph, ending in global average pooling.

    Its input is the [crops, C, frames, spatial, spatial] crops, or, given
    `clip_hw`, one uncropped [C, frames, H, W] clip followed by a `ten_crop`
    node (which needs `crops == 10`). The parameters are the same either way.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    b = GraphBuilder(config.name)
    p = _ParamInit(b, rng)
    if clip_hw is None:
        x = b.input(config.input_shape, name="clips")
    else:
        if config.crops != 10:
            raise ValueError(f"config {config.name}: an uncropped clip input needs crops=10, got {config.crops}")
        x = b.input((config.in_channels, config.frames) + tuple(clip_hw), name="clip")
        x = b.ten_crop(x, config.spatial, name="ten_crop")
    cur = _conv_unit(
        b, p, x, "stem", config.in_channels, config.stem_channels,
        config.stem_kernel, config.stem_stride, config.stem_pad,
    )
    channels = config.stem_channels
    if config.stem_pool is not None:
        cur = b.maxpool3d(cur, *config.stem_pool)
    for s, width in enumerate(config.stage_widths):
        for blk in range(config.stage_blocks[s]):
            t_stride, sp_stride = config.stage_strides[s] if blk == 0 else (1, 1)
            stride = (t_stride, sp_stride, sp_stride)
            inflated = bool(config.inflate[s][blk])
            prefix = f"s{s}b{blk}"
            if config.block == "plain":
                kernel = (3, 3, 3) if inflated else (1, 3, 3)
                pad = (1, 1, 1) if inflated else (0, 1, 1)
                cur = _conv_unit(b, p, cur, prefix, channels, width, kernel, stride, pad)
            else:
                inner = width // 4
                k1 = (3, 1, 1) if inflated else (1, 1, 1)
                p1 = (1, 0, 0) if inflated else (0, 0, 0)
                t = _conv_unit(b, p, cur, prefix + "c1", channels, inner, k1, (1, 1, 1), p1)
                t = _conv_unit(b, p, t, prefix + "c2", inner, inner, (1, 3, 3), stride, (0, 1, 1))
                t = _conv_unit(b, p, t, prefix + "c3", inner, width, (1, 1, 1), (1, 1, 1), (0, 0, 0), relu=False)
                if channels != width or stride != (1, 1, 1):
                    sc = _conv_unit(b, p, cur, prefix + "sc", channels, width, (1, 1, 1), stride, (0, 0, 0), relu=False)
                else:
                    sc = cur
                cur = b.relu(b.add(t, sc, name=prefix + "add"))
            channels = width
            if blk in config.nonlocal_blocks[s]:
                cur = _nonlocal_unit(b, p, cur, f"nl_s{s}b{blk}", channels)
    if channels != config.output_dim:
        cur = _conv_unit(b, p, cur, "proj", channels, config.output_dim, (1, 1, 1), (1, 1, 1), (0, 0, 0))
    cur = b.gap3d(cur, name="gap")
    b.output(cur)
    return b.build()
