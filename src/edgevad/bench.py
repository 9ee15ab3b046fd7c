"""Measurement harness: FPS, peak memory, latency percentiles, and
parameter/FLOP accounting, with published Jetson figures carried alongside as
informational references (different hardware; never asserted against).
"""

from __future__ import annotations

import json
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .graphopt import OPS, ComputeGraph, UnknownNodeKind

# Published end-to-end deployment figures (Jetson hardware; informational only).
JETSON_REFERENCE = {
    "orin_nano_fps": (47.56, 36.02),      # (with optimizer, without)
    "agx_xavier_fps": (41.65, 29.57),
    "orin_nano_ram_gb": (3.11, 4.94),
    "extractor_params": 34.582e6,
    "extractor_flops": 38.272e9,
    "head_params": 24.719e6,
    "head_flops": 3.461e9,
    "total_params": 59.301e6,
    "total_flops": 41.733e9,
}


def count_params_flops(graph: ComputeGraph) -> Tuple[int, int]:
    """(learnable scalars, flops for one forward pass at the declared shape).

    FLOPs count multiply-accumulate pairs as 2 ops, from each kind's entry in
    the op table; elementwise/pool nodes contribute zero, matching the
    convention where a biased linear O x I layer costs 2*O*I (the head runs
    one as a 1x1x1 conv3d, which costs that per position).
    """
    unknown = sorted({n.kind for n in graph.nodes} - OPS.keys())
    if unknown:
        raise UnknownNodeKind(f"no FLOP formula for node kinds {unknown}")
    flops = sum(2 * OPS[n.kind].macs(graph.meta[n.output].shape, graph.param_shapes(n)) for n in graph.nodes)
    return graph.param_count(), flops


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

@dataclass
class WorkloadResult:
    frames: int
    stage_latencies_ms: Dict[str, List[float]] = field(default_factory=dict)


@dataclass
class BenchReport:
    fps: float
    frames: int
    wall_s: float
    peak_rss_bytes: int
    stage_p50_ms: Dict[str, float]
    stage_p95_ms: Dict[str, float]
    params: int
    flops: int
    fingerprint: str
    optimized: bool
    config: Dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=1, sort_keys=True)


_measure_lock = threading.Lock()


SAMPLE_PERIOD_MS = 50.0


def _rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * resource.getpagesize()


def measure(
    workload: Callable[[], object],
    clock: Callable[[], float] = time.perf_counter,
    params: int = 0,
    flops: int = 0,
    fingerprint: str = "",
    optimized: bool = False,
    config: Optional[Dict] = None,
) -> BenchReport:
    """Time a workload, sampling resident memory concurrently.

    The workload returns a frame count or a WorkloadResult. Peak memory is the
    highest RSS sampled (every SAMPLE_PERIOD_MS and at the end). Not reentrant:
    concurrent measures in one process would corrupt each other's sampling.
    """
    if not _measure_lock.acquire(blocking=False):
        raise RuntimeError("measure() is already running in this process")
    try:
        samples: List[int] = []
        stop = threading.Event()

        def sampler():
            while not stop.is_set():
                samples.append(_rss_bytes())
                stop.wait(SAMPLE_PERIOD_MS / 1e3)

        thread = threading.Thread(target=sampler, name="rss-sampler")
        thread.start()
        t0 = clock()
        try:
            out = workload()
        finally:
            t1 = clock()
            stop.set()
            thread.join()
        samples.append(_rss_bytes())
        if isinstance(out, WorkloadResult):
            frames, lats = out.frames, out.stage_latencies_ms
        else:
            frames, lats = int(out), {}
        wall = t1 - t0
        if frames < 0:
            raise ValueError("workload reported negative frame count")
        p50 = {k: float(np.percentile(v, 50)) for k, v in lats.items() if v}
        p95 = {k: float(np.percentile(v, 95)) for k, v in lats.items() if v}
        return BenchReport(
            fps=(frames / wall) if (frames > 0 and wall > 0) else 0.0,
            frames=frames,
            wall_s=wall,
            peak_rss_bytes=max(samples),
            stage_p50_ms=p50,
            stage_p95_ms=p95,
            params=params,
            flops=flops,
            fingerprint=fingerprint,
            optimized=optimized,
            config=config or {},
        )
    finally:
        _measure_lock.release()


# ---------------------------------------------------------------------------
# comparison table
# ---------------------------------------------------------------------------

def compare_with_reference(optimized: BenchReport, baseline: BenchReport) -> Tuple[str, str]:
    """(aligned text table, CSV) of measured speedup/memory ratio beside the
    published Jetson ratios. Reports must share a fingerprint and differ only
    in the optimization flag."""
    if optimized.fingerprint != baseline.fingerprint:
        raise ValueError(
            f"fingerprint mismatch: {optimized.fingerprint!r} vs {baseline.fingerprint!r}"
        )
    if optimized.optimized == baseline.optimized:
        raise ValueError("reports must differ in the optimization flag")
    speedup = optimized.fps / baseline.fps if baseline.fps > 0 else float("nan")
    mem_ratio = (
        optimized.peak_rss_bytes / baseline.peak_rss_bytes if baseline.peak_rss_bytes else float("nan")
    )
    ref = JETSON_REFERENCE
    orin = ref["orin_nano_fps"][0] / ref["orin_nano_fps"][1]
    xavier = ref["agx_xavier_fps"][0] / ref["agx_xavier_fps"][1]
    mem_ref = ref["orin_nano_ram_gb"][0] / ref["orin_nano_ram_gb"][1]
    rows = [
        ("speedup (optimized/baseline fps)", f"{speedup:.3f}x",
         f"{orin:.2f}x Orin Nano, {xavier:.2f}x AGX Xavier"),
        ("memory ratio (optimized/baseline)", f"{mem_ratio:.3f}",
         f"{mem_ref:.2f} Orin Nano RAM (3.11/4.94 GB)"),
        ("fps optimized", f"{optimized.fps:.3f}",
         f"{ref['orin_nano_fps'][0]} Orin Nano, {ref['agx_xavier_fps'][0]} AGX Xavier"),
        ("fps baseline", f"{baseline.fps:.3f}",
         f"{ref['orin_nano_fps'][1]} Orin Nano, {ref['agx_xavier_fps'][1]} AGX Xavier"),
        ("params", f"{optimized.params:,}", f"{ref['total_params'] / 1e6:.3f}M total"),
        ("flops", f"{optimized.flops:,}", f"{ref['total_flops'] / 1e9:.3f}G total"),
    ]
    w0 = max(len(r[0]) for r in rows)
    w1 = max(len(r[1]) for r in rows)
    header = (f"{'metric':<{w0}}  {'measured':>{w1}}  "
              "published Jetson reference (different hardware; informational)")
    text = "\n".join([header] + [f"{r[0]:<{w0}}  {r[1]:>{w1}}  {r[2]}" for r in rows])
    csv = "metric,measured,reference\n" + "\n".join(
        f"{r[0]},{r[1]},\"{r[2]}\"" for r in rows
    )
    return text, csv


def accounting_table(extractor: Tuple[int, int], head: Tuple[int, int], crops: int, snippets: int) -> str:
    """Params/FLOPs per component beside the published figures."""
    ref = JETSON_REFERENCE
    ep, ef = extractor
    hp, hf = head
    per_video = (ef + hf) * crops * snippets
    lines = [
        f"{'component':<12} {'params':>14} {'flops/clip':>16}   published reference (informational)",
        f"{'extractor':<12} {ep:>14,} {ef:>16,}   {ref['extractor_params']/1e6:.3f}M / {ref['extractor_flops']/1e9:.3f}G",
        f"{'head':<12} {hp:>14,} {hf:>16,}   {ref['head_params']/1e6:.3f}M / {ref['head_flops']/1e9:.3f}G",
        f"{'total':<12} {ep + hp:>14,} {ef + hf:>16,}   {ref['total_params']/1e6:.3f}M / {ref['total_flops']/1e9:.3f}G",
        f"per video ({crops} crops x {snippets} snippets): {per_video:,} flops",
    ]
    return "\n".join(lines)
