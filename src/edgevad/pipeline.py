"""End-to-end dataflow: source -> preprocess -> extract -> detect -> records.

`run_pipeline` overlaps the two stages that do the work. A pool of
`stage_workers` preprocess threads fills clip buffers for a bounded window of
snippets ahead. Two threads extract each clip, in snippet order, as two
halves of its ten crops (`CROP_HALVES`: the base crops and their mirrors),
each half on its own `GraphRunner`: the caller's thread runs the first half
and one `extract` thread the second.
The detector needs the whole video's temporal context (dilated convolutions
and attention span all T snippets), so once the pool is shut down the caller
scores the video once; its latency is recorded amortized per snippet.
`run_sequential` composes the same modules in a plain loop, and both runs
give the same records bit for bit.
"""

from __future__ import annotations

import contextlib
import ctypes
import datetime as _dt
import functools
import json
import numbers
import os
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from . import rtfm
from .extractor import ExtractorConfig, build_extractor, desk_scale_config, full_scale_config
from .graphopt import GraphRunner, optimize, plan_memory, select_crops
from .serialize import load_graph_params, load_params
from .sources import load_video_source
from .tensor import Tensor
from .videopre import NormConstants, SnippetPlan, prepare_clip, resized_extent, segment_snippets

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# Clips that may wait, built, for the extractor behind the one it is running,
# beyond the one each preprocess worker builds meanwhile. On a 2-CPU box depth 0
# cost no fps beyond noise against 4, and each clip costs memory; but a source
# that stalls then stalls the extractor after one clip.
QUEUE_CAPACITY = 0

# Each clip's ten crops as two halves, extracted at once on two threads: the
# base crops 0-4, and their mirrors 5-9, which read the clip reversed along W
# into windows held reversed, so that the fills copy forward.
# The crops of one orientation share the box convs of the trunk from the stem
# to the non-local block (tensor.conv3d_raw), which cuts the crops once.
CROP_HALVES = ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9))


class PipelineConfigError(ValueError):
    pass


class PipelineStageError(RuntimeError):
    pass


def _admitted(hint) -> Tuple[tuple, str]:
    """The runtime types a field annotation admits, and their names. An int
    field takes any integral number and a float field any real number."""
    members = typing.get_args(hint) if typing.get_origin(hint) is Union else (hint,)
    args = [typing.get_origin(a) or a for a in members]  # Dict -> dict
    runtime = {int: numbers.Integral, float: numbers.Real}
    names = " or ".join("None" if a is type(None) else a.__name__ for a in args)
    return tuple(runtime.get(a, a) for a in args), names


def _check_types(cfg, prefix: str = "") -> None:
    """PipelineConfigError naming the first field of the dataclass `cfg`
    whose value is not of a type its annotation admits."""
    hints = typing.get_type_hints(type(cfg))
    for f in fields(cfg):
        value, (types, names) = getattr(cfg, f.name), _admitted(hints[f.name])
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            raise PipelineConfigError(f"{prefix}{f.name} must be {names}, got {type(value).__name__} {value!r}")


@dataclass
class PipelineConfig:
    source: Dict
    threshold: float = 0.7
    stage_workers: int = 1  # preprocess-stage parallelism; other stages stay single
    snippet_count: int = 32
    frames_per_snippet: int = 16
    extractor_profile: Union[str, Dict, ExtractorConfig] = "desk"  # "desk" | "full" | ExtractorConfig (kwargs)
    seed: int = 0
    head_params: Optional[str] = None       # serialized head parameter path
    extractor_params: Optional[str] = None  # serialized extractor parameter path
    fuse: bool = True
    fp16: bool = False
    memplan: bool = True

    def validate(self) -> None:
        _check_types(self)  # before the comparisons below, which assume the types
        if self.stage_workers < 1:
            raise PipelineConfigError("stage_workers must be >= 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise PipelineConfigError("threshold must lie in [0,1]")
        if self.snippet_count < 1 or self.frames_per_snippet < 1:
            raise PipelineConfigError("snippet plan extents must be >= 1")

    def echo(self) -> Dict:
        return asdict(self)


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


def _resolve_extractor_config(profile) -> ExtractorConfig:
    if isinstance(profile, ExtractorConfig):
        return profile
    if isinstance(profile, dict):
        try:
            cfg = ExtractorConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in profile.items()})
        except TypeError as e:  # an unknown or a missing key
            raise PipelineConfigError(f"extractor_profile: {e}") from e
        _check_types(cfg, "extractor_profile.")
        cfg.validate()
        return cfg
    if profile == "desk":
        return desk_scale_config()
    if profile == "full":
        return full_scale_config()
    raise PipelineConfigError(f"unknown extractor profile {profile!r}")


@dataclass
class PipelineResult:
    records: List[ScoreRecord]
    summary: Dict
    boundary_high_water: Dict[str, int]
    features: np.ndarray  # [crops, T, D], the rows the detector scored


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
    """Size OpenBLAS to the CPUs the preprocess workers leave free, shared by
    the two extract threads: max(1, (usable CPUs - stage_workers) // 2)
    threads, restored on exit. Yields the count set, or None when OpenBLAS's
    count cannot be set. The count is process-wide: the workers' resize GEMMs
    run on the same pool as the extractor's, and concurrent runs in one
    process share it. With two or more threads the GEMMs of the three stage
    threads can contend for them, and a pthreads OpenBLAS serializes
    concurrent threaded level-3 calls; that is unmeasured (a 2-CPU box, or
    one with 4 CPUs and one worker, gets one thread)."""
    fns = _openblas()
    if fns is None:
        yield None
        return
    set_fn, get_fn = fns
    old, n = get_fn(), max(1, (len(os.sched_getaffinity(0)) - cfg.stage_workers) // 2)
    set_fn(n)
    try:
        yield n
    finally:
        set_fn(old)


def _clip_buffer(cfg: PipelineConfig, clip_hw: Tuple[int, int]) -> np.ndarray:
    """One uncropped [3,L,H,W] clip for prepare_clip(..., out=), written
    once so that its pages are resident before the first snippet."""
    buf = np.empty((3, cfg.frames_per_snippet) + tuple(clip_hw), dtype=np.float32)
    buf.fill(0.0)
    return buf


def _startup(cfg: PipelineConfig):
    """The source, the optimized extractor on its uncropped [3,L,H,W] clips,
    the head and the snippet plan; also the clips' (H,W). A bad value or
    profile and an unreadable source or parameter file raise
    PipelineConfigError."""
    cfg.validate()
    try:
        ecfg = _resolve_extractor_config(cfg.extractor_profile)
        if cfg.frames_per_snippet != ecfg.frames:
            raise PipelineConfigError(
                f"frames_per_snippet={cfg.frames_per_snippet} differs from frames={ecfg.frames} "
                f"of extractor profile {ecfg.name!r}"
            )
        video = load_video_source(cfg.source)
        clip_hw = resized_extent(*video.frame_hw)
        graph = build_extractor(ecfg, seed=cfg.seed, clip_hw=clip_hw)
        if cfg.extractor_params:
            load_graph_params(graph, cfg.extractor_params)
        model = rtfm.RtfmModel(mstn=rtfm.MstnConfig(in_dim=ecfg.output_dim), head=rtfm.HeadConfig(), seed=cfg.seed)
        if cfg.head_params:
            model.params = {k: np.asarray(v, dtype=np.float64) for k, v in load_params(cfg.head_params).items()}
    except (ValueError, OSError) as e:
        raise PipelineConfigError(str(e)) from e
    graph, plan = optimize(graph, do_fuse=cfg.fuse, do_fp16=cfg.fp16, do_memplan=cfg.memplan)
    snips = segment_snippets(video, cfg.snippet_count, cfg.frames_per_snippet)
    return video, graph, plan, model, snips, clip_hw


def _score(
    cfg: PipelineConfig,
    model: rtfm.RtfmModel,
    snips: SnippetPlan,
    rows: List[np.ndarray],
    latencies: Optional[List[Dict[str, float]]] = None,
) -> Tuple[np.ndarray, List[ScoreRecord]]:
    """Score the video once from its [crops, D] rows in snippet order: the
    [crops, T, D] features and one ScoreRecord per snippet. With per-snippet
    `latencies`, each record also gets the detect time amortized per snippet."""
    t0 = time.perf_counter()
    feats = np.stack(rows, axis=1)
    scores = rtfm.video_score(feats, model)
    det_ms = (time.perf_counter() - t0) * 1e3 / len(rows)
    records = [
        ScoreRecord(
            snippet_index=i,
            start_frame=snips.start_indices[i],
            score=float(np.clip(s, 0.0, 1.0)),
            alert=alert_check(float(s), cfg.threshold),
            latencies_ms={} if latencies is None else {**latencies[i], "detect": det_ms},
            timestamp=time.time(),
        )
        for i, s in enumerate(scores)
    ]
    return feats, records


def run_pipeline(
    cfg: PipelineConfig,
    emit: Optional[Callable[[ScoreRecord], None]] = None,
    log: Optional[Callable[[str], None]] = None,
) -> PipelineResult:
    """Pipelined execution; every snippet yields exactly one ScoreRecord.

    The preprocess pool's workers fill the clips. Each clip is extracted in
    snippet order as the two halves of `CROP_HALVES`, the base crops and
    their mirrors, at once: the caller's thread runs the first half and a
    one-thread `extract` executor the second, each on its own `GraphRunner`
    (and, when planned, its own arena), and the two halves' rows are the
    clip's rows in crop order. Then the caller scores the video and
    emits the records. Those threads own the CPUs: while they run, OpenBLAS
    is sized to the CPUs the preprocess workers leave free (see
    `_blas_pool`). A failure in either half raises PipelineStageError naming
    stage 'extract' and the snippet. Whether the run ends, fails or is
    interrupted, the snippets not yet started are cancelled and both
    executors' threads joined before it returns."""
    t_start = time.perf_counter()
    video, graph, plan, model, snips, clip_hw = _startup(cfg)
    halves = [select_crops(graph, crops) for crops in CROP_HALVES]
    runners = [GraphRunner(g, None if plan is None else plan_memory(g)) for g in halves]
    consts = NormConstants()
    n = snips.snippet_count

    # Clip buffers, allocated and written once up front: one per clip that can
    # be alive at a time (being extracted, built and waiting, or being built).
    # The pipeline's footprint is then the same on every run, whichever stage
    # is faster, and no snippet allocates a clip. Snippet i fills clip i % ahead
    # and is submitted only once snippet i - ahead has been extracted, so a
    # buffer is never refilled while the extractor may still read it.
    # The clips are uncropped; the extractor graph cuts the ten crops.
    clips = [_clip_buffer(cfg, clip_hw) for _ in range(min(QUEUE_CAPACITY + 1 + cfg.stage_workers, n))]
    ahead = len(clips)

    def build(i: int):
        t0 = time.perf_counter()
        clip = prepare_clip(video, snips, i, consts, out=clips[i % ahead])
        return clip, (time.perf_counter() - t0) * 1e3

    rows: List[np.ndarray] = []
    latencies: List[Dict[str, float]] = []
    clips_high_water = 0
    with _blas_pool(cfg) as blas:
        pool = ThreadPoolExecutor(cfg.stage_workers, thread_name_prefix="preprocess")
        helper = ThreadPoolExecutor(1, thread_name_prefix="extract")
        try:
            futures = [pool.submit(build, i) for i in range(ahead)]
            for i in range(n):
                try:
                    clip, pre_ms = futures[i].result()
                except Exception as e:
                    raise PipelineStageError(f"stage 'preprocess' failed: snippet {i}: {e}") from e
                t0 = time.perf_counter()
                try:
                    x = Tensor(clip)
                    second = helper.submit(runners[1].run, x)
                    first = runners[0].run(x)[0].data
                    rows.append(np.concatenate([first, second.result()[0].data]))  # [crops, D]
                except Exception as e:
                    raise PipelineStageError(f"stage 'extract' failed: snippet {i}: {e}") from e
                ext_ms = (time.perf_counter() - t0) * 1e3
                # clips resident: this one and those built in the other buffers
                built = sum(f.done() for f in futures[i + 1 : i + ahead])
                clips_high_water = max(clips_high_water, built + 1)
                latencies.append({"preprocess": pre_ms, "extract": ext_ms})
                if i + ahead < n:
                    futures.append(pool.submit(build, i + ahead))
        finally:
            # the extract thread finishes its half; a worker at most the snippet it holds
            helper.shutdown()
            pool.shutdown(cancel_futures=True)
        try:
            feats, records = _score(cfg, model, snips, rows, latencies)
            for rec in records:
                if emit is not None:
                    emit(rec)
                if log is not None:
                    log(log_event(rec))
        except Exception as e:
            raise PipelineStageError(f"stage 'detect' failed: {e}") from e

    elapsed = time.perf_counter() - t_start
    frames = video.frame_count
    summary = _summary(cfg, frames, records, elapsed, blas)
    clip_mib = clips[0].nbytes / 2 ** 20
    summary["clip_buffer_mib"] = round(ahead * clip_mib, 3)
    summary["runner_mib"] = round(sum(r.static_bytes for r in runners) / 2 ** 20, 3)
    summary["clips_high_water_mib"] = round(clips_high_water * clip_mib, 3)
    if log is not None:
        log(
            f"summary frames={frames} snippets={len(records)} elapsed_s={elapsed:.3f} "
            f"fps={summary['fps']} alerts={summary['alerts']}"
        )
    return PipelineResult(records, summary, {"clips": clips_high_water}, feats)


def run_sequential(cfg: PipelineConfig) -> PipelineResult:
    """Non-pipelined reference: the same modules composed in a plain loop."""
    t_start = time.perf_counter()
    video, graph, plan, model, snips, clip_hw = _startup(cfg)
    runner = GraphRunner(graph, plan)
    consts = NormConstants()
    clip = _clip_buffer(cfg, clip_hw)  # reused: the runner's outputs never alias its input
    rows = []
    with _blas_pool(cfg) as blas:  # the pipeline's count, so its GEMMs sum alike
        for i in range(snips.snippet_count):
            rows.append(runner.run(Tensor(prepare_clip(video, snips, i, consts, out=clip)))[0].data)
        feats, records = _score(cfg, model, snips, rows)
    summary = _summary(cfg, video.frame_count, records, time.perf_counter() - t_start, blas)
    return PipelineResult(records, summary, {}, feats)
