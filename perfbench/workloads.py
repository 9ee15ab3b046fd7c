"""Seeded inputs for the benchmark's workloads.

One generator builds every workload's inputs from the seed: a pipeline config
(the same keys `edgevad run --config` accepts) and, for `ppm_long`, a
directory of binary PPM frames. The program under test receives only these
generated files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("desk_default", "desk_baseline", "ppm_long")

SNIPPETS = 32
FRAMES_PER_SNIPPET = 16
DESK_FRAMES = 512
DESK_SIDE = 64
PPM_FRAMES = 2048  # 4x the frames the 32x16 snippet plan references
PPM_WIDTH, PPM_HEIGHT = 320, 180

# --smoke: the same workloads shrunk to two snippets, for the benchmark's own tests
SMOKE_SNIPPETS = 2
SMOKE_DESK_FRAMES = 32
SMOKE_PPM_FRAMES = 128


def anomaly_window(seed: int, frames: int) -> tuple:
    """Planted anomaly [start, end): one eighth of the video, placed by the seed.

    Seed 0 on 512 frames gives the shipped default window [200, 264).
    """
    length = frames // 8
    start = (200 + 37 * seed) % (frames - length)
    return start, start + length


def make_config(workload: str, seed: int, workdir: Path, smoke: bool = False) -> dict:
    """Write the workload's inputs under `workdir`; return its pipeline config."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    frames = source_frames(workload, smoke)
    if workload == "ppm_long":
        path = Path(workdir) / "frames"
        write_ppm_video(path, seed, frames)
        source = {"kind": "ppm_dir", "path": str(path), "fps": 30}
    else:
        start, end = anomaly_window(seed, frames)
        source = {
            "kind": "synthetic", "pattern": "moving_square", "frames": frames,
            "width": DESK_SIDE, "height": DESK_SIDE, "seed": seed,
            "anomaly": {"start": start, "end": end, "strength": 120},
        }
    optimized = workload != "desk_baseline"
    cfg = {
        "source": source,
        "snippet_count": SMOKE_SNIPPETS if smoke else SNIPPETS,
        "frames_per_snippet": FRAMES_PER_SNIPPET,
        "extractor_profile": "desk",
        "fuse": optimized,
        "memplan": optimized,
        "fp16": False,
    }
    (Path(workdir) / "config.json").write_text(json.dumps(cfg, indent=1))
    return cfg


def ppm_frames(seed: int, frames: int):
    """Yield the seeded PPM video's frames: a textured background, a moving
    square, and a bright patch on each frame inside the anomaly window."""
    rng = np.random.default_rng(seed)
    h, w, side = PPM_HEIGHT, PPM_WIDTH, 24
    background = (40 + rng.integers(0, 48, size=(h, w, 3))).astype(np.uint8)
    y, x0 = int(rng.integers(0, h - side)), int(rng.integers(0, w))
    start, end = anomaly_window(seed, frames)
    for i in range(frames):
        img = background.copy()
        x = (x0 + 2 * i) % (w - side)
        img[y:y + side, x:x + side] = 200
        if start <= i < end:
            prng = np.random.default_rng(seed * 7_000_003 + i)
            py, px = int(prng.integers(0, h - 2 * side)), int(prng.integers(0, w - 2 * side))
            patch = img[py:py + 2 * side, px:px + 2 * side]
            patch[...] = np.minimum(patch.astype(np.int16) + 120, 255)
        yield img


def write_ppm_video(path: Path, seed: int, frames: int) -> None:
    path.mkdir(parents=True)
    header = f"P6\n{PPM_WIDTH} {PPM_HEIGHT}\n255\n".encode()
    for i, img in enumerate(ppm_frames(seed, frames)):
        (path / f"frame_{i:05d}.ppm").write_bytes(header + img.tobytes())


def snippet_starts(frame_count: int, snippets: int, length: int) -> list:
    """Expected snippet starts, from the documented rule round(i*(N-L)/(T-1))."""
    span = max(0, frame_count - length)
    if snippets == 1:
        return [0]
    return [min(span, int(np.floor(i * span / (snippets - 1) + 0.5))) for i in range(snippets)]


def source_frames(workload: str, smoke: bool = False) -> int:
    if workload == "ppm_long":
        return SMOKE_PPM_FRAMES if smoke else PPM_FRAMES
    return SMOKE_DESK_FRAMES if smoke else DESK_FRAMES
