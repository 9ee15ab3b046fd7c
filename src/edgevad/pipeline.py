"""End-to-end staged dataflow: source -> preprocess -> extract -> detect -> records.

Each stage runs in its own thread connected by bounded FIFO queues; snippet
order is preserved end to end and the pipelined result is identical to the
sequential composition of the same modules. The detector needs the whole
video's temporal context (dilated convolutions and attention span all T
snippets), so it accumulates feature rows and scores once; its latency is
recorded amortized per snippet.
"""

from __future__ import annotations

import contextlib
import ctypes
import datetime as _dt
import functools
import json
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from . import rtfm
from .extractor import ExtractorConfig, build_extractor, desk_scale_config, full_scale_config
from .graphopt import GraphRunner, optimize
from .serialize import load_graph_params, load_params
from .sources import load_video_source
from .videopre import CROP_SIZE, NormConstants, preprocess_snippet, segment_snippets

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class PipelineConfigError(ValueError):
    pass


class PipelineStageError(RuntimeError):
    pass


@dataclass
class PipelineConfig:
    source: Dict
    threshold: float = 0.7
    queue_capacity: int = 4
    stage_workers: int = 1  # preprocess-stage parallelism; other stages stay single
    snippet_count: int = 32
    frames_per_snippet: int = 16
    extractor_profile: Union[str, Dict] = "desk"  # "desk" | "full" | ExtractorConfig kwargs
    seed: int = 0
    head_params: Optional[str] = None       # serialized head parameter path
    extractor_params: Optional[str] = None  # serialized extractor parameter path
    fuse: bool = True
    fp16: bool = False
    memplan: bool = True

    def validate(self) -> None:
        if self.queue_capacity < 1:
            raise PipelineConfigError("queue_capacity must be >= 1")
        if self.stage_workers < 1:
            raise PipelineConfigError("stage_workers must be >= 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise PipelineConfigError("threshold must lie in [0,1]")
        if self.snippet_count < 1 or self.frames_per_snippet < 1:
            raise PipelineConfigError("snippet plan extents must be >= 1")

    def echo(self) -> Dict:
        return {
            "source": self.source,
            "threshold": self.threshold,
            "queue_capacity": self.queue_capacity,
            "stage_workers": self.stage_workers,
            "snippet_count": self.snippet_count,
            "frames_per_snippet": self.frames_per_snippet,
            "extractor_profile": self.extractor_profile,
            "seed": self.seed,
            "head_params": self.head_params,
            "extractor_params": self.extractor_params,
            "fuse": self.fuse,
            "fp16": self.fp16,
            "memplan": self.memplan,
        }


@dataclass
class ScoreRecord:
    snippet_index: int
    start_frame: int
    score: float
    alert: bool
    latencies_ms: Dict[str, float] = field(default_factory=dict)
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0,1]")
        if any(v < 0 for v in self.latencies_ms.values()):
            raise ValueError("stage latencies must be nonnegative")

    def to_json(self) -> str:
        return json.dumps(
            {
                "snippet_index": self.snippet_index,
                "start_frame": self.start_frame,
                "score": round(self.score, 6),
                "alert": self.alert,
                "latencies_ms": {k: round(v, 3) for k, v in self.latencies_ms.items()},
                "timestamp": self.timestamp,
            }
        )


def alert_check(score: float, threshold: float) -> bool:
    """Strictly-greater rule: a score exactly at the threshold does not alert."""
    return score > threshold


def log_event(record: ScoreRecord) -> str:
    ts = _dt.datetime.fromtimestamp(record.timestamp, tz=_dt.timezone.utc)
    flag = "ALERT" if record.alert else "ok"
    return f"{ts.isoformat(timespec='milliseconds')} snippet={record.snippet_index:03d} score={record.score:.4f} {flag}"


class Boundary:
    """Bounded FIFO between stages with a residency high-water mark.

    An item is resident from successful enqueue until the consumer reports it
    done, so max residency is capacity (queued) + 1 (in the consumer's hands).
    Sentinels bypass the gauge. put/get poll the stop event to stay
    deadlock-free when a sibling stage dies.
    """

    SENTINEL = object()

    def __init__(self, capacity: int, stop: threading.Event):
        self.q: "queue.Queue" = queue.Queue(maxsize=capacity)
        self._stop = stop
        self._lock = threading.Lock()
        self._resident = 0
        self.max_resident = 0

    def put(self, item) -> bool:
        while True:
            try:
                self.q.put(item, timeout=0.05)
                break
            except queue.Full:
                if self._stop.is_set():
                    return False
        if item is not Boundary.SENTINEL:
            with self._lock:
                self._resident += 1
                self.max_resident = max(self.max_resident, self._resident)
        return True

    def get(self):
        while True:
            try:
                return self.q.get(timeout=0.05)
            except queue.Empty:
                if self._stop.is_set():
                    return Boundary.SENTINEL

    def done(self) -> None:
        with self._lock:
            self._resident -= 1


def _resolve_extractor_config(profile) -> ExtractorConfig:
    if isinstance(profile, ExtractorConfig):
        return profile
    if isinstance(profile, dict):
        cfg = ExtractorConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in profile.items()})
        cfg.validate()
        return cfg
    if profile == "desk":
        return desk_scale_config()
    if profile == "full":
        return full_scale_config()
    raise PipelineConfigError(f"unknown extractor profile {profile!r}")


def _build_graph(cfg: PipelineConfig):
    ecfg = _resolve_extractor_config(cfg.extractor_profile)
    graph = build_extractor(ecfg, seed=cfg.seed)
    if cfg.extractor_params:
        load_graph_params(graph, cfg.extractor_params)
    plan = None
    if cfg.fuse or cfg.fp16 or cfg.memplan:
        graph, plan = optimize(graph, do_fuse=cfg.fuse, do_fp16=cfg.fp16, do_memplan=cfg.memplan)
    return ecfg, graph, plan


def _load_model(cfg: PipelineConfig, feature_dim: int) -> rtfm.RtfmModel:
    model = rtfm.RtfmModel(mstn=rtfm.MstnConfig(in_dim=feature_dim), head=rtfm.HeadConfig(), seed=cfg.seed)
    if cfg.head_params:
        model.params = {k: np.asarray(v, dtype=np.float64) for k, v in load_params(cfg.head_params).items()}
    return model


@dataclass
class PipelineResult:
    records: List[ScoreRecord]
    summary: Dict
    boundary_high_water: Dict[str, int]


def _summary(
    cfg: PipelineConfig, frames: int, records: List[ScoreRecord], elapsed: float, blas: Optional[int]
) -> Dict:
    """`fps` divides the source's frames by the wall time; `processed_frames`
    counts the frames the snippets cover (with repeats), which is the work done."""
    processed = len(records) * cfg.frames_per_snippet
    return {
        "frames": frames,
        "processed_frames": processed,
        "snippets": len(records),
        "elapsed_s": round(elapsed, 4),
        "fps": round(frames / elapsed, 3) if elapsed > 0 else 0.0,
        "processed_frames_per_s": round(processed / elapsed, 3) if elapsed > 0 else 0.0,
        "blas_threads": blas,
        "alerts": sum(1 for r in records if r.alert),
        "threshold": cfg.threshold,
        "config": cfg.echo(),
    }


# The thread-count setters of the OpenBLAS builds numpy ships or links, in
# the order they are tried; each has a getter of the same name with "get".
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads")


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[Tuple[Callable[[int], None], Callable[[], int]]]:
    """(set, get) of the thread count of the OpenBLAS numpy has loaded, or
    None when no such library or symbol is found (not Linux, another BLAS)."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SETTERS:
            get_name = name.replace("set", "get", 1)
            if hasattr(lib, name) and hasattr(lib, get_name):
                set_fn, get_fn = getattr(lib, name), getattr(lib, get_name)
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                return set_fn, get_fn
    return None


def _blas_threads() -> Optional[int]:
    """OpenBLAS's current thread count, or None when it cannot be read."""
    fns = _openblas()
    return None if fns is None else fns[1]()


@contextlib.contextmanager
def _blas_pool(cfg: PipelineConfig):
    """Give the extractor's GEMMs the CPUs the preprocess workers leave free:
    max(1, usable CPUs - stage_workers) OpenBLAS threads, restored on exit.
    Yields the count set, or None when OpenBLAS's count cannot be set. The
    count is process-wide, so concurrent runs in one process share it."""
    fns = _openblas()
    if fns is None:
        yield None
        return
    set_fn, get_fn = fns
    old, n = get_fn(), max(1, len(os.sched_getaffinity(0)) - cfg.stage_workers)
    set_fn(n)
    try:
        yield n
    finally:
        set_fn(old)


def _clip_buffer(cfg: PipelineConfig) -> np.ndarray:
    """One [10,3,L,224,224] clip for preprocess_snippet(..., out=), written
    once so that its pages are resident before the first snippet."""
    buf = np.empty((10, 3, cfg.frames_per_snippet, CROP_SIZE, CROP_SIZE), dtype=np.float32)
    buf.fill(0.0)
    return buf


def _startup(cfg: PipelineConfig):
    cfg.validate()
    try:
        video = load_video_source(cfg.source)
        ecfg, graph, plan = _build_graph(cfg)
        model = _load_model(cfg, ecfg.output_dim)
    except (PipelineConfigError, ValueError, OSError) as e:
        raise PipelineConfigError(str(e)) from e
    snips = segment_snippets(video, cfg.snippet_count, cfg.frames_per_snippet)
    return video, graph, plan, model, snips


def run_pipeline(
    cfg: PipelineConfig,
    emit: Optional[Callable[[ScoreRecord], None]] = None,
    log: Optional[Callable[[str], None]] = None,
) -> PipelineResult:
    """Threaded staged execution; every snippet yields exactly one ScoreRecord.

    The stage threads own the CPUs: while they run, OpenBLAS gets only the
    CPUs the preprocess workers leave free (see `_blas_pool`)."""
    t_start = time.perf_counter()
    video, graph, plan, model, snips = _startup(cfg)
    runner = GraphRunner(graph, plan)
    consts = NormConstants()
    declared = graph.meta[graph.inputs[0]].shape

    stop = threading.Event()
    q_idx = Boundary(cfg.queue_capacity, stop)
    q_clips = Boundary(cfg.queue_capacity, stop)
    q_feats = Boundary(cfg.queue_capacity, stop)
    errors: List[Tuple[str, BaseException]] = []

    # Clip buffers, allocated and written once up front: one per clip that can
    # be alive at a time (queued, in the extractor's hands, or being built by a
    # preprocess worker). The pipeline's footprint is then the same on every
    # run, whichever stage is faster, and no snippet allocates a clip.
    free_clips: "queue.Queue" = queue.Queue()
    for _ in range(min(cfg.queue_capacity + 1 + cfg.stage_workers, snips.snippet_count)):
        free_clips.put(_clip_buffer(cfg))

    def take_clip():
        while not stop.is_set():
            try:
                return free_clips.get(timeout=0.05)
            except queue.Empty:
                pass
        return None

    def guard(stage: str, fn: Callable[[], None]):
        def run():
            try:
                fn()
            except BaseException as e:  # record, wake all stages, drain
                errors.append((stage, e))
                stop.set()

        return run

    def src_stage():
        for i in range(snips.snippet_count):
            if stop.is_set():
                return
            if not q_idx.put(i):
                return
        for _ in range(cfg.stage_workers):  # one sentinel per preprocess worker
            q_idx.put(Boundary.SENTINEL)

    def pre_stage():
        while True:
            item = q_idx.get()
            if item is Boundary.SENTINEL:
                q_clips.put(Boundary.SENTINEL)
                return
            buf = take_clip()
            if buf is None:
                return
            t0 = time.perf_counter()
            batch = preprocess_snippet(video, snips, item, consts, out=buf)
            ok = q_clips.put((item, buf, batch, (time.perf_counter() - t0) * 1e3))
            q_idx.done()
            if not ok:
                return

    def ext_stage():
        sentinels = 0
        while True:
            item = q_clips.get()
            if item is Boundary.SENTINEL:
                sentinels += 1
                if sentinels >= cfg.stage_workers or stop.is_set():
                    q_feats.put(Boundary.SENTINEL)
                    return
                continue
            i, buf, batch, pre_ms = item
            t0 = time.perf_counter()
            if tuple(batch.data.shape) != tuple(declared):
                raise ValueError(
                    f"snippet {i}: clip shape {tuple(batch.data.shape)} != graph input {tuple(declared)}"
                )
            row = runner.run(batch.data)[0].data  # [crops, D]
            free_clips.put(buf)
            ok = q_feats.put((i, batch.start_frame, row, pre_ms, (time.perf_counter() - t0) * 1e3))
            q_clips.done()
            if not ok:
                return

    records: List[ScoreRecord] = []

    def det_stage():
        meta = []
        while True:
            item = q_feats.get()
            if item is Boundary.SENTINEL:
                break
            meta.append(item)
            q_feats.done()
        if stop.is_set() or not meta:
            return
        meta.sort(key=lambda m: m[0])  # restore snippet order (workers may reorder)
        t0 = time.perf_counter()
        feats = np.stack([m[2] for m in meta], axis=1)  # [crops, T, D]
        scores = rtfm.video_score(feats, model)
        det_ms = (time.perf_counter() - t0) * 1e3 / len(meta)
        for (i, start_frame, _, pre_ms, ext_ms), score in zip(meta, scores):
            rec = ScoreRecord(
                snippet_index=i,
                start_frame=start_frame,
                score=float(np.clip(score, 0.0, 1.0)),
                alert=alert_check(float(score), cfg.threshold),
                latencies_ms={"preprocess": pre_ms, "extract": ext_ms, "detect": det_ms},
                timestamp=time.time(),
            )
            records.append(rec)
            if emit is not None:
                emit(rec)
            if log is not None:
                log(log_event(rec))

    threads = [
        threading.Thread(target=guard("source", src_stage), name="source"),
        threading.Thread(target=guard("extract", ext_stage), name="extract"),
        threading.Thread(target=guard("detect", det_stage), name="detect"),
    ] + [
        threading.Thread(target=guard("preprocess", pre_stage), name=f"preprocess-{w}")
        for w in range(cfg.stage_workers)
    ]
    with _blas_pool(cfg) as blas:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    if errors:
        stage, exc = errors[0]
        raise PipelineStageError(f"stage {stage!r} failed: {exc}") from exc

    elapsed = time.perf_counter() - t_start
    frames = video.frame_count
    summary = _summary(cfg, frames, records, elapsed, blas)
    if log is not None:
        log(
            f"summary frames={frames} snippets={len(records)} elapsed_s={elapsed:.3f} "
            f"fps={summary['fps']} alerts={summary['alerts']}"
        )
    high_water = {
        "indices": q_idx.max_resident,
        "clips": q_clips.max_resident,
        "features": q_feats.max_resident,
    }
    return PipelineResult(records=records, summary=summary, boundary_high_water=high_water)


def run_sequential(cfg: PipelineConfig) -> PipelineResult:
    """Non-pipelined reference: the same modules composed in a plain loop."""
    t_start = time.perf_counter()
    video, graph, plan, model, snips = _startup(cfg)
    runner = GraphRunner(graph, plan)
    consts = NormConstants()
    clip = _clip_buffer(cfg)  # reused: the runner's outputs never alias its input
    rows, starts = [], []
    with _blas_pool(cfg) as blas:  # the pipeline's count, so its GEMMs sum alike
        for i in range(snips.snippet_count):
            batch = preprocess_snippet(video, snips, i, consts, out=clip)
            rows.append(runner.run(batch.data)[0].data)
            starts.append(batch.start_frame)
    feats = np.stack(rows, axis=1)
    scores = rtfm.video_score(feats, model)
    records = [
        ScoreRecord(
            snippet_index=i,
            start_frame=starts[i],
            score=float(np.clip(s, 0.0, 1.0)),
            alert=alert_check(float(s), cfg.threshold),
            latencies_ms={},
            timestamp=time.time(),
        )
        for i, s in enumerate(scores)
    ]
    summary = _summary(cfg, video.frame_count, records, time.perf_counter() - t_start, blas)
    return PipelineResult(records=records, summary=summary, boundary_high_water={})
