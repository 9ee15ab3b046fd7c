"""Codec-free video sources: PPM frame directories, raw RGB24 + JSON sidecar,
and seed-deterministic synthetic clips with an optional planted anomaly window.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, Tuple

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

def _read_ppm_token(buf: bytes, pos: int) -> Tuple[bytes, int]:
    while pos < len(buf):
        if buf[pos:pos + 1].isspace():
            pos += 1
        elif buf[pos:pos + 1] == b"#":  # comment to end of line
            while pos < len(buf) and buf[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        else:
            break
    start = pos
    while pos < len(buf) and not buf[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise SourceError(f"malformed PPM header at byte offset {start}")
    return buf[start:pos], pos


def load_ppm_frame(path) -> np.ndarray:
    buf = Path(path).read_bytes()
    magic, pos = _read_ppm_token(buf, 0)
    if magic != b"P6":
        raise SourceError(f"{path}: not a P6 PPM (magic {magic!r} at byte offset 0)")
    try:
        w_tok, pos = _read_ppm_token(buf, pos)
        h_tok, pos = _read_ppm_token(buf, pos)
        max_tok, pos = _read_ppm_token(buf, pos)
        w, h, maxval = int(w_tok), int(h_tok), int(max_tok)
    except ValueError as e:
        raise SourceError(f"{path}: malformed PPM header at byte offset {pos}: {e}") from e
    if maxval != 255:
        raise SourceError(f"{path}: only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace after maxval
    need = w * h * 3
    if len(buf) - pos < need:
        raise SourceError(
            f"{path}: truncated pixel data at byte offset {len(buf)}: "
            f"expected {pos + need} bytes total, have {len(buf)}"
        )
    return np.frombuffer(buf, dtype=np.uint8, count=need, offset=pos).reshape(h, w, 3).copy()


def load_ppm_dir(path, fps: float = 30.0) -> RawVideo:
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
    frames = [load_ppm_frame(f) for _, f in entries]
    h, w = frames[0].shape[:2]
    for i, fr in enumerate(frames):
        if fr.shape[:2] != (h, w):
            raise SourceError(f"frame {entries[i][1].name}: dimensions {fr.shape[:2]} != first frame {(h, w)}")
    return RawVideo(frames=frames, fps=fps, source_id=str(d))


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
    # one read into one [n,h,w,3] array; the frames are views of it
    data = np.fromfile(p, dtype=np.uint8, count=expected).reshape(n, h, w, 3)
    return RawVideo(frames=list(data), fps=fps, source_id=str(p))


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
    frames = [_base_frame(pattern, i, h, w, seed, spec) for i in range(n)]
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
