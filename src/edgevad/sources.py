"""Codec-free video sources: PPM frame directories, raw RGB24 + JSON sidecar,
and seed-deterministic synthetic clips with an optional planted anomaly window.

The file sources are lazy: a load checks headers and sizes and reads no pixels,
and a frame is read from disk each time it is indexed (`FileFrames`), in the
preprocess worker that builds its clip. Synthetic frames are one block.
"""

from __future__ import annotations

import json
import operator
import os
import re
from collections.abc import Sequence
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from .videopre import RawVideo


class SourceError(ValueError):
    pass


def load_video_source(spec: dict) -> RawVideo:
    """spec: {"kind": "ppm_dir"|"raw_rgb24"|"synthetic", ...}; a raw RGB24
    file's sidecar defaults to <stem>.json next to it."""
    kind = spec.get("kind")
    if kind == "ppm_dir":
        return load_ppm_dir(spec["path"], fps=spec.get("fps", 30.0))
    if kind == "raw_rgb24":
        return load_raw_rgb24(spec["path"], spec.get("sidecar"))
    if kind == "synthetic":
        return synthesize(spec)
    raise SourceError(f"unknown source kind {kind!r}")


# ---------------------------------------------------------------------------
# PPM (P6)
# ---------------------------------------------------------------------------

class FileFrames(Sequence):
    """A file source's frames: frame i is h*w*3 uint8 bytes of its file at its
    byte offset, read by one `np.fromfile` each time it is indexed. `shape` is
    [N,H,W,3]. A short read (a file cut after the load) raises SourceError."""

    def __init__(self, files: List[Tuple[Path, int]], h: int, w: int):
        self._files = files  # (path, byte offset) per frame
        self.shape = (len(files), h, w, 3)

    def __len__(self) -> int:
        return len(self._files)

    def __getitem__(self, i: int) -> np.ndarray:
        path, offset = self._files[operator.index(i)]
        need = self.shape[1] * self.shape[2] * 3
        data = np.fromfile(path, dtype=np.uint8, count=need, offset=offset)
        if data.size != need:
            raise SourceError(f"{path}: truncated pixel data at byte offset {offset + data.size}: "
                              f"expected {need} bytes from byte offset {offset}, read {data.size}")
        return data.reshape(self.shape[1:])


# a PPM header token: whitespace and comments, the token, and the whitespace byte that ends it
_PPM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*[\r\n])*([^\s#]\S*)\s")
PPM_HEADER_CHUNK = 64  # bytes of a PPM file read first for its header


def _ppm_header(path, f) -> Tuple[int, int, int]:
    """(h, w, pixel offset) of the P6 file `path`, open unbuffered as `f`:
    its first PPM_HEADER_CHUNK bytes are parsed, and twice as many as read
    so far while the header runs past them (long comments)."""
    buf, tokens = f.read(PPM_HEADER_CHUNK), []
    while len(tokens) < 4:
        m = _PPM_TOKEN.match(buf, tokens[-1].end() if tokens else 0)
        if m is None:  # the header runs past the bytes read
            more = f.read(len(buf))
            if not more:
                raise SourceError(f"{path}: truncated PPM header at byte offset {len(buf)}")
            buf += more
        elif not tokens and m[1] != b"P6":
            raise SourceError(f"{path}: not a P6 PPM (magic {m[1]!r} at byte offset {m.start(1)})")
        else:
            tokens.append(m)
    for m in tokens[1:]:
        if not m[1].isdigit():
            raise SourceError(f"{path}: malformed PPM header at byte offset {m.start(1)}: {m[1]!r}")
    w, h, maxval = (int(m[1]) for m in tokens[1:])
    if maxval != 255:
        raise SourceError(f"{path}: only maxval 255 supported, got {maxval}")
    if w < 1 or h < 1:
        raise SourceError(f"{path}: PPM dimensions {w}x{h}")
    return h, w, tokens[3].end()


def load_ppm_dir(path, fps: float = 30.0) -> RawVideo:
    """The numbered .ppm frames of `path` in number order; reads headers and sizes, no pixels."""
    d = Path(path)
    if not d.is_dir():
        raise SourceError(f"{path}: not a directory")
    entries = []
    for f in d.iterdir():
        if f.suffix.lower() == ".ppm":
            m = re.search(r"(\d+)", f.stem)
            if m:
                entries.append((int(m.group(1)), f))
    if not entries:
        raise SourceError(f"{path}: no numbered .ppm frames found")
    entries.sort()
    files, hw = [], None
    for _, f in entries:
        with open(f, "rb", buffering=0) as fh:
            h, w, offset = _ppm_header(f, fh)
            size = os.fstat(fh.fileno()).st_size
        if size - offset < h * w * 3:
            raise SourceError(f"{f}: truncated pixel data at byte offset {size}: "
                              f"expected {offset + h * w * 3} bytes total, have {size}")
        hw = hw or (h, w)
        if (h, w) != hw:
            raise SourceError(f"frame {f.name}: dimensions {(h, w)} != first frame {hw}")
        files.append((f, offset))
    return RawVideo(frames=FileFrames(files, *hw), fps=fps, source_id=str(d))


def write_ppm_dir(video: RawVideo, path) -> None:
    d = Path(path)
    d.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(video.frames):
        arr = np.clip(np.asarray(frame), 0, 255).astype(np.uint8)
        h, w = arr.shape[:2]
        with open(d / f"frame_{i:06d}.ppm", "wb") as f:
            f.write(b"P6\n%d %d\n255\n" % (w, h))
            f.write(arr.tobytes())


# ---------------------------------------------------------------------------
# raw RGB24 + sidecar
# ---------------------------------------------------------------------------

def load_raw_rgb24(path, sidecar=None) -> RawVideo:
    p = Path(path)
    side = Path(sidecar) if sidecar else p.with_suffix(".json")
    if not side.exists():
        raise SourceError(f"{path}: missing sidecar {side}")
    meta = json.loads(side.read_text())
    for key in ("width", "height", "frame_count"):
        if key not in meta:
            raise SourceError(f"{side}: sidecar missing key {key!r}")
    w, h, n = int(meta["width"]), int(meta["height"]), int(meta["frame_count"])
    fps = float(meta.get("fps", 30.0))
    size, expected = p.stat().st_size, w * h * 3 * n
    if size != expected:
        raise SourceError(
            f"{path}: raw size mismatch at byte offset {min(size, expected)}: "
            f"expected {expected} bytes, got {size}"
        )
    # read per frame, not mapped: a mapped file truncated mid-run kills the process with SIGBUS
    return RawVideo(frames=FileFrames([(p, i * w * h * 3) for i in range(n)], h, w), fps=fps, source_id=str(p))


def write_raw_rgb24(video: RawVideo, path, sidecar=None) -> None:
    p = Path(path)
    side = Path(sidecar) if sidecar else p.with_suffix(".json")
    arrs = [np.clip(np.asarray(f), 0, 255).astype(np.uint8) for f in video.frames]
    with open(p, "wb") as f:
        for a in arrs:
            f.write(a.tobytes())
    h, w = arrs[0].shape[:2]
    side.write_text(json.dumps(
        {"width": w, "height": h, "fps": video.fps, "frame_count": len(arrs)}, indent=1
    ))


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def synthesize(spec: Dict) -> RawVideo:
    """Deterministic synthetic video; the anomaly overlay touches pixels only
    inside the window [anomaly.start, anomaly.end)."""
    pattern = spec.get("pattern", "moving_square")
    n = int(spec.get("frames", 128))
    w = int(spec.get("width", 64))
    h = int(spec.get("height", 64))
    fps = float(spec.get("fps", 30.0))
    seed = int(spec.get("seed", 0))
    anomaly = spec.get("anomaly")
    # views of one block: n small frames got heap-trimmed and re-faulted per start-up
    frames = list(np.empty((n, h, w, 3), np.float32))
    for i, f in enumerate(frames):
        f[...] = _base_frame(pattern, i, h, w, seed, spec)
    if anomaly is not None:
        start, end = int(anomaly["start"]), int(anomaly["end"])
        strength = float(anomaly.get("strength", 120.0))
        for i in range(max(0, start), min(n, end)):
            _apply_anomaly(frames[i], i, strength, seed)
    return RawVideo(frames=frames, fps=fps, source_id=f"synthetic:{pattern}:{seed}")


def _base_frame(pattern: str, i: int, h: int, w: int, seed: int, spec: Dict) -> np.ndarray:
    if pattern == "constant":
        return np.full((h, w, 3), float(spec.get("value", 114.75)), dtype=np.float32)
    if pattern == "noise":
        rng = np.random.default_rng(seed * 1_000_003 + i)
        return rng.integers(0, 256, size=(h, w, 3)).astype(np.float32)
    if pattern == "gradient":
        ramp = np.linspace(0, 255, w, dtype=np.float32)
        frame = np.broadcast_to(ramp[None, :, None], (h, w, 3)).copy()
        frame += 20.0 * np.sin(2 * np.pi * i / 60.0)
        return np.clip(frame, 0, 255)
    if pattern == "moving_square":
        frame = np.full((h, w, 3), 40.0, dtype=np.float32)
        side = max(2, min(h, w) // 8)
        x = (i * 2) % max(1, w - side)
        y = (h - side) // 2
        frame[y:y + side, x:x + side] = 200.0
        return frame
    raise SourceError(f"unknown synthetic pattern {pattern!r}")


def _apply_anomaly(frame: np.ndarray, i: int, strength: float, seed: int) -> None:
    h, w = frame.shape[:2]
    side = max(2, min(h, w) // 4)
    rng = np.random.default_rng(seed * 7_000_003 + i)
    y = int(rng.integers(0, max(1, h - side)))
    x = int(rng.integers(0, max(1, w - side)))
    frame[y:y + side, x:x + side] = np.clip(frame[y:y + side, x:x + side] + strength, 0, 255)
