"""One step of a benchmark run, in a fresh process.

    PYTHONPATH=src python3 perfbench/worker.py setup CONFIG.json
    PYTHONPATH=src python3 perfbench/worker.py video CONFIG.json
    PYTHONPATH=src python3 perfbench/worker.py trace CONFIG.json TRACE_FILE

`setup` times the pipeline's start-up calls SETUP_REPS times. `video` runs
`run_pipeline` on one video and reports its wall and CPU time, its records,
and the peak RSS of this process. `trace` makes the traced run: it records
spans around the program's public calls, replays each stage and graph node on
real inputs, and writes the spans as Chrome trace-event JSON to TRACE_FILE.
The last line of stdout is one JSON object of raw measurements and outputs;
`run.py` checks them and derives the metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

import numpy as np

from edgevad import rtfm
from edgevad.bench import count_params_flops
from edgevad.extractor import build_extractor, desk_scale_config
from edgevad.graphopt import ComputeGraph, GraphRunner, optimize, plan_memory
from edgevad.pipeline import PipelineConfig, run_pipeline, run_sequential
from edgevad.sources import load_video_source
from edgevad.tensor import Tensor, conv3d_workspace_elems
from edgevad.videopre import (
    NormConstants,
    gather_snippet_frames,
    normalize,
    preprocess_snippet,
    resize_shorter_side,
    segment_snippets,
    ten_crop,
)

from spans import Spans

MIB = 2 ** 20
SETUP_REPS = 7      # start-ups timed per run; setup_s is their median
REPLAY_CLIPS = 6    # snippets replayed stage by stage and node by node
HEAD_REPLAYS = 10   # video_score calls timed on the traced run's features
SETUP_CALLS = (
    "sources.load_video_source",
    "extractor.build_extractor",
    "graphopt.optimize",
    "graphopt.GraphRunner",
    "rtfm.RtfmModel",
)
# the desk extractor's nodes; unfused bias/relu nodes join the group of their input
NODE_GROUPS = ("stem", "s0b0", "s1b0", "nl_s1b0", "proj", "gap")
ELEMENTWISE = ("bias_add", "relu")


def start_up(cfg: PipelineConfig, spans: Spans):
    """The pipeline's start-up work, one span per public call."""
    if cfg.extractor_profile != "desk":
        raise ValueError(f"the benchmark runs the desk extractor, not {cfg.extractor_profile!r}")
    ecfg = desk_scale_config()
    with spans.span("sources.load_video_source"):
        video = load_video_source(cfg.source)
    with spans.span("extractor.build_extractor"):
        graph = build_extractor(ecfg, seed=cfg.seed)
    with spans.span("graphopt.optimize"):
        graph, plan = optimize(graph, do_fuse=cfg.fuse, do_fp16=cfg.fp16, do_memplan=cfg.memplan)
    with spans.span("graphopt.GraphRunner"):
        runner = GraphRunner(graph, plan)
    with spans.span("rtfm.RtfmModel"):
        model = rtfm.RtfmModel(mstn=rtfm.MstnConfig(in_dim=ecfg.output_dim), head=rtfm.HeadConfig(), seed=cfg.seed)
    snips = segment_snippets(video, cfg.snippet_count, cfg.frames_per_snippet)
    return video, graph, plan, runner, model, snips


def record_rows(records) -> list:
    return [[r.snippet_index, r.start_frame, r.score] for r in records]


def setup(cfg: PipelineConfig) -> dict:
    setup_s = []
    for _ in range(SETUP_REPS):
        spans = Spans()
        start_up(cfg, spans)
        setup_s.append(sum(ev["dur"] for ev in spans.events if ev["name"] in SETUP_CALLS))
    return {"setup_s": setup_s}


def one_video(cfg: PipelineConfig) -> dict:
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        res = run_pipeline(cfg)
    except Exception as e:  # reported as a failed video; the run goes on
        traceback.print_exc()
        return {"error": f"{type(e).__name__}: {e}"}
    return {
        "wall_s": time.perf_counter() - t0,
        "cpu_s": time.process_time() - c0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "records": record_rows(res.records),
    }


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def node_groups(graph: ComputeGraph) -> list:
    """(group name, node) in execution order; fused names look like 'stem+bias+relu'."""
    group_of, out = {}, []
    for n in graph.nodes:
        g = group_of[n.inputs[0]] if n.kind in ELEMENTWISE else n.name.split("+")[0]
        group_of[n.output] = g
        out.append((g, n))
    names = {g for g, _ in out}
    if names != set(NODE_GROUPS):
        raise ValueError(f"extractor node groups {sorted(names)} != expected {sorted(NODE_GROUPS)}")
    return out


def one_node_graph(graph: ComputeGraph, n) -> ComputeGraph:
    g = ComputeGraph(
        nodes=[n],
        inputs=list(n.inputs),
        outputs=[n.output],
        meta={t: graph.meta[t] for t in (*n.inputs, n.output)},
        params={p: graph.params[p] for p in n.params.values()},
        name=n.name,
    )
    g.validate()
    return g


def bytes_moved(g: ComputeGraph) -> int:
    """Computed from shapes: inputs + output + parameters + conv scratch."""
    (n,) = g.nodes
    total = sum(g.meta[t].nbytes for t in (*n.inputs, n.output))
    total += sum(p.data.nbytes for p in g.params.values())
    if n.kind in ("conv3d", "conv3d_bias_relu"):
        w = g.params[n.params["w"]].shape
        total += 4 * conv3d_workspace_elems(
            g.meta[n.inputs[0]].shape, g.meta[n.output].shape, w[1], w[2:], n.attrs["pad"]
        )
    return total


def pct(values, q: float) -> float:
    return float(np.percentile(values, q))


def per_clip_ms(spans: Spans, name: str, root: int) -> list:
    """Per replayed clip, the summed duration of the spans called `name`."""
    by_clip = {}
    for ev in spans.events:
        if ev["name"] == name and spans.root(ev) == root:
            by_clip[ev["args"]["snippet"]] = by_clip.get(ev["args"]["snippet"], 0.0) + ev["dur"] * 1e3
    return list(by_clip.values())


def traced(cfg: PipelineConfig, trace_file: str) -> dict:
    spans = Spans()
    consts = NormConstants()

    # untraced references: the pipeline under contention, and run_sequential
    with spans.span("pipeline.run_pipeline", video=0) as ev:
        piped = run_pipeline(cfg)
    wall_piped = ev["dur"]
    with spans.span("pipeline.run_sequential", video=1) as ev:
        seq = run_sequential(cfg)
    wall_seq = ev["dur"]

    # the same composition as run_sequential, with a span at every call
    with spans.span("pipeline.traced_sequential", video=2) as top:
        video, graph, plan, runner, model, snips = start_up(cfg, spans)
        rows = []
        for i in range(snips.snippet_count):
            with spans.span("videopre.preprocess_snippet", video=2, snippet=i):
                batch = preprocess_snippet(video, snips, i, consts)
            with spans.span("graphopt.GraphRunner.run", video=2, snippet=i):
                rows.append(runner.run(batch.data)[0].data)
        feats = np.stack(rows, axis=1)
        with spans.span("rtfm.video_score", video=2):
            scores = rtfm.video_score(feats, model)
    traced_root, wall_traced = top["id"], top["dur"]
    clip_mib = batch.data.data.nbytes / MIB

    # replays on real inputs: each preprocessing stage, then each graph node
    node_runs, last_use = [], {}
    for k, (g, n) in enumerate(node_groups(graph)):
        g1 = one_node_graph(graph, n)
        node_runs.append((g, n, g1, GraphRunner(g1, plan_memory(g1) if plan is not None else None)))
        last_use.update((t, k) for t in n.inputs)
    T = snips.snippet_count
    picks = sorted({int(round(x)) for x in np.linspace(0, T - 1, min(REPLAY_CLIPS, T))})
    stages_exact = chain_exact = True
    with spans.span("replay", video=2) as rep:
        for i in picks:
            with spans.span("videopre.gather_snippet_frames", snippet=i):
                frames = gather_snippet_frames(video, snips, i)
            with spans.span("videopre.resize_shorter_side", snippet=i):
                resized = [resize_shorter_side(np.asarray(f, dtype=np.float32)) for f in frames]
            with spans.span("videopre.stack", snippet=i):
                clip = np.stack(resized, axis=0).transpose(3, 0, 1, 2)
            with spans.span("videopre.ten_crop", snippet=i):
                crops = ten_crop(clip)
            with spans.span("videopre.normalize", snippet=i):
                data = normalize(crops, consts, inplace=True)
            ref = preprocess_snippet(video, snips, i, consts).data
            stages_exact &= same_bits(data, ref.data)
            del frames, resized, clip, crops, data
            with spans.span("graphopt.GraphRunner.run", snippet=i):
                whole = runner.run(ref)[0].data
            env = {graph.inputs[0]: ref.data}
            for k, (g, n, g1, r1) in enumerate(node_runs):
                args = [Tensor(env[t], g1.meta[t].precision) for t in n.inputs]
                with spans.span(f"tensor.{g}", node=n.name, snippet=i):
                    env[n.output] = r1.run(args)[0].data
                for t in n.inputs:  # free what no later node reads, as GraphRunner does
                    if last_use[t] == k:
                        del env[t]
            chain_exact &= same_bits(env[graph.outputs[0]], whole)
            del env, ref
        head_exact = True
        for _ in range(HEAD_REPLAYS):
            with spans.span("rtfm.video_score"):
                again = rtfm.video_score(feats, model)
            head_exact &= same_bits(again, scores)
    replay_root = rep["id"]
    spans.write(trace_file)

    m = {}
    starts = snips.start_indices
    L = snips.frames_per_snippet
    m["sources.load_s"] = spans.durations_ms("sources.load_video_source", traced_root)[0] / 1e3
    m["sources.frames_loaded"] = video.frame_count
    m["sources.mib_held"] = sum(np.asarray(f).nbytes for f in video.frames) / MIB
    used = {min(s + j, video.frame_count - 1) for s in starts for j in range(L)}
    m["sources.frames_used_ratio"] = len(used) / video.frame_count

    snippet_ms = spans.durations_ms("videopre.preprocess_snippet", traced_root)
    m["videopre.snippet_ms.p50"] = pct(snippet_ms, 50)
    m["videopre.snippet_ms.p95"] = pct(snippet_ms, 95)
    for stage, fn in (("resize", "resize_shorter_side"), ("ten_crop", "ten_crop"), ("normalize", "normalize")):
        m[f"videopre.{stage}_ms.p50"] = pct(spans.durations_ms(f"videopre.{fn}", replay_root), 50)
    m["videopre.mib_out_per_clip"] = clip_mib

    run_ms = spans.durations_ms("graphopt.GraphRunner.run", traced_root)
    flops = count_params_flops(graph)[1]
    m["graphopt.optimize_ms"] = spans.durations_ms("graphopt.optimize", traced_root)[0]
    m["graphopt.run_ms.p50"] = pct(run_ms, 50)
    m["graphopt.run_ms.p95"] = pct(run_ms, 95)
    m["graphopt.gflops"] = flops / (m["graphopt.run_ms.p50"] * 1e6)
    m["graphopt.static_mib"] = runner.static_bytes / MIB
    m["graphopt.plan_peak_mib"] = (plan.peak_bytes if plan is not None else 0) / MIB
    m["graphopt.arena_mib"] = (plan.arena_bytes if plan is not None else 0) / MIB

    node_total_ms = 0.0
    elementwise_bytes = 0
    for g in NODE_GROUPS:
        clip_ms = per_clip_ms(spans, f"tensor.{g}", replay_root)
        node_total_ms += sum(clip_ms)
        members = [g1 for gg, _, g1, _ in node_runs if gg == g]
        m[f"tensor.{g}.ms"] = pct(clip_ms, 50)
        group_flops = sum(count_params_flops(g1)[1] for g1 in members)
        if group_flops:
            m[f"tensor.{g}.gflops"] = group_flops / (m[f"tensor.{g}.ms"] * 1e6)
        m[f"tensor.{g}.mib_moved"] = sum(bytes_moved(g1) for g1 in members) / MIB
        elementwise_bytes += sum(bytes_moved(g1) for g1 in members if g1.nodes[0].kind in ELEMENTWISE)
    m["tensor.elementwise.mib_moved"] = elementwise_bytes / MIB
    m["tensor.node_coverage"] = node_total_ms / sum(spans.durations_ms("graphopt.GraphRunner.run", replay_root))

    m["rtfm.video_score_ms"] = pct(spans.durations_ms("rtfm.video_score", replay_root), 50)

    lat = {k: [r.latencies_ms[k] for r in piped.records] for k in ("preprocess", "extract", "detect")}
    for k in ("preprocess", "extract"):
        m[f"pipeline.{k}_ms.p50"] = pct(lat[k], 50)
        m[f"pipeline.{k}_ms.p95"] = pct(lat[k], 95)
    m["pipeline.detect_ms"] = pct(lat["detect"], 50)
    m["pipeline.extract_busy"] = sum(lat["extract"]) / 1e3 / wall_piped
    m["pipeline.preprocess_busy"] = sum(lat["preprocess"]) / 1e3 / (wall_piped * cfg.stage_workers)
    m["pipeline.contention"] = m["pipeline.extract_ms.p50"] / m["graphopt.run_ms.p50"]
    m["pipeline.q_clips_high_water"] = piped.boundary_high_water["clips"]
    m["pipeline.q_clips_high_water_mib"] = piped.boundary_high_water["clips"] * clip_mib
    m["pipeline.speedup_vs_sequential"] = wall_seq / wall_piped
    m["trace.overhead_ratio"] = wall_traced / wall_seq

    traced_rows = [[i, starts[i], float(np.clip(s, 0.0, 1.0))] for i, s in enumerate(scores)]
    return {
        "videos": {
            "run_pipeline": record_rows(piped.records),
            "run_sequential": record_rows(seq.records),
            "traced": traced_rows,
        },
        "exact": {
            "stages_equal_preprocess_snippet": bool(stages_exact),
            "node_chain_equals_graph_run": bool(chain_exact),
            "video_score_repeats": bool(head_exact),
        },
        "metrics": m,
        "spans": len(spans.events),
    }


def main(argv) -> int:
    modes = {"setup": 3, "video": 3, "trace": 4}
    if len(argv) < 2 or modes.get(argv[1]) != len(argv):
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[2]) as f:
        cfg = PipelineConfig(**json.load(f))
    if argv[1] == "trace":
        out = traced(cfg, argv[3])
    else:
        out = setup(cfg) if argv[1] == "setup" else one_video(cfg)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
