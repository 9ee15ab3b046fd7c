"""Command-line frontend binding all modules into the runnable system.

Subcommands: run (pipeline), bench (measure with/without optimization),
train (desk-scale synthetic training), eval (AUC / verdicts), optimize
(apply passes, dump graph + memory plan), count (params/FLOPs).
Exit codes: 0 success, 2 configuration/usage error, 3 runtime stage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields as dc_fields, replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import bench as bench_mod
from . import rtfm
from .extractor import build_extractor, desk_scale_config, full_scale_config
from .graphopt import optimize as optimize_passes, plan_memory
from .metrics import roc_auc, video_verdict
from .pipeline import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    PipelineConfig,
    PipelineConfigError,
    PipelineStageError,
    _startup,
    run_pipeline,
)
from .serialize import save_params

DEFAULT_SOURCE = {
    "kind": "synthetic",
    "pattern": "moving_square",
    "frames": 512,
    "width": 64,
    "height": 64,
    "seed": 0,
    "anomaly": {"start": 200, "end": 264, "strength": 120},
}


class ConfigError(ValueError):
    pass


def _parse_set(values: List[str]) -> Dict:
    out: Dict = {}
    for item in values or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        cursor = out
        parts = key.split(".")
        for p in parts[:-1]:
            cursor = cursor.setdefault(p, {})
        cursor[parts[-1]] = val
    return out


def _merge(base: Dict, override: Dict) -> Dict:
    merged = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(merged.get(k), dict):
            merged[k] = _merge(merged[k], v)
        else:
            merged[k] = v
    return merged


def _load_config(args, allowed: set, defaults: Dict) -> Dict:
    """`defaults`, whose keys a config file replaces whole, then `--set`
    merged in (a dotted key replaces only the value it names)."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        loaded = json.loads(path.read_text())
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        cfg.update(loaded)
    cfg = _merge(cfg, _parse_set(getattr(args, "set", None)))
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)} (allowed: {sorted(allowed)})")
    return cfg


def _pipeline_config(args) -> PipelineConfig:
    allowed = {f.name for f in dc_fields(PipelineConfig)}
    cfg = _load_config(args, allowed, {"source": DEFAULT_SOURCE})
    if args.seed is not None:
        cfg["seed"] = args.seed
    return PipelineConfig(**cfg)


def _open_out(path: Optional[str]):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w"), True


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    cfg = _pipeline_config(args)
    out, close = _open_out(args.out)
    try:
        result = run_pipeline(
            cfg,
            emit=lambda rec: print(rec.to_json(), file=out),
            log=lambda line: print(line, file=sys.stderr),
        )
    finally:
        if close:
            out.close()
    if args.summary:
        Path(args.summary).write_text(json.dumps(result.summary, indent=1))
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {args.repeats}")
    cfg = _pipeline_config(args)
    base_cfg = replace(cfg, fuse=False, fp16=False, memplan=False)
    opt_cfg = cfg
    _, base_graph, *_ = _startup(base_cfg)
    params, flops = bench_mod.count_params_flops(base_graph)
    fingerprint = f"{base_graph.fingerprint()}-s{cfg.seed}-t{cfg.snippet_count}"

    def workload(c: PipelineConfig):
        def run():
            res = run_pipeline(c)
            lats: Dict[str, List[float]] = {}
            for rec in res.records:
                for stage, ms in rec.latencies_ms.items():
                    lats.setdefault(stage, []).append(ms)
            return bench_mod.WorkloadResult(frames=res.summary["processed_frames"], stage_latencies_ms=lats)

        return run

    def best_of(c: PipelineConfig, optimized: bool) -> bench_mod.BenchReport:
        reports = [
            bench_mod.measure(
                workload(c), params=params, flops=flops,
                fingerprint=fingerprint, optimized=optimized, config=c.echo(),
            )
            for _ in range(args.repeats)
        ]
        reports.sort(key=lambda r: r.wall_s)
        return reports[len(reports) // 2]  # median wall time

    run_pipeline(opt_cfg)  # warmup: page in kernels and pools
    opt_report = best_of(opt_cfg, True)
    base_report = best_of(base_cfg, False)
    text, csv = bench_mod.compare_with_reference(opt_report, base_report)
    print(text)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"optimized": json.loads(opt_report.to_json()), "baseline": json.loads(base_report.to_json())},
            indent=1,
        ))
    if args.csv:
        Path(args.csv).write_text(csv + "\n")
    return EXIT_OK


def cmd_train(args) -> int:
    data_keys = {"n_normal", "n_abnormal", "snippets", "dim", "scale", "anomaly_rows"}
    train_keys = {f.name for f in dc_fields(rtfm.TrainConfig)} - {"seed"}
    cfg = _load_config(args, data_keys | train_keys, {})
    seed = args.seed if args.seed is not None else 0
    tc = rtfm.TrainConfig(seed=seed, **{k: v for k, v in cfg.items() if k in train_keys})
    try:  # the dataset's generator and train check the config's values
        dataset, _ = rtfm.make_magnitude_dataset(seed=seed, **{k: v for k, v in cfg.items() if k in data_keys})
        t0 = time.perf_counter()
        result = rtfm.train(dataset, tc, mstn=rtfm.MstnConfig(in_dim=dataset[0][0].shape[1]))
    except ValueError as e:
        raise ConfigError(str(e)) from e
    auc = rtfm.training_auc(result.model, dataset, k=tc.k)
    elapsed = time.perf_counter() - t0
    print(f"trained {tc.epochs} epochs in {elapsed:.1f}s; final loss {result.epoch_losses[-1]:.4f}; "
          f"training AUC {auc:.4f}")
    if args.out:
        save_params(args.out, {k: v.astype(np.float32) for k, v in result.model.params.items()})
        print(f"parameters written to {Path(args.out).with_suffix('.bin')}")
    if args.curve:
        Path(args.curve).write_text(result.loss_curve_csv())
    if args.metrics:
        Path(args.metrics).write_text(json.dumps(
            {"auc": auc, "final_loss": result.epoch_losses[-1], "epochs": tc.epochs,
             "elapsed_s": elapsed, "config": tc.__dict__}, indent=1))
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        records = _read_records(args.records)
        labels = _read_labels(args.labels)
    except (OSError, ValueError) as e:
        raise ConfigError(str(e)) from e
    by_index = {r["snippet_index"]: r for r in records}
    pairs = [(by_index[i]["score"], y) for i, y in labels.items() if i in by_index]
    if not pairs:
        raise ConfigError("no overlapping snippet indices between records and labels")
    scores = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    try:
        auc = roc_auc(scores, ys)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    detected = video_verdict(records, rule=args.rule, n=args.run_n)
    metrics = {"auc": auc, "n": len(pairs), "detected": detected, "rule": args.rule, "unit": "snippet"}
    out = json.dumps(metrics, indent=1)
    print(out)
    if args.out:
        Path(args.out).write_text(out)
    return EXIT_OK


def _read_records(path) -> List[Dict]:
    records = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        doc = json.loads(line)
        if "snippet_index" in doc and "score" in doc:
            records.append(doc)
    if not records:
        raise ValueError(f"{path}: no score records found")
    return records


def _read_labels(path) -> Dict[int, int]:
    labels: Dict[int, int] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.lower().startswith("snippet"):
            continue
        idx, lab = (int(v) for v in line.split(","))
        if lab not in (0, 1):
            raise ValueError(f"{path}: snippet {idx}'s label must be 0 or 1, got {lab}")
        labels[idx] = lab
    if not labels:
        raise ValueError(f"{path}: no labels found")
    return labels


def cmd_optimize(args) -> int:
    cfg = _pipeline_config(args)
    _, graph, *_ = _startup(replace(cfg, fuse=False, fp16=False, memplan=False))  # the graph run_pipeline runs
    before_nodes = len(graph.nodes)
    naive_plan = plan_memory(graph)
    opt, plan = optimize_passes(graph, do_fuse=cfg.fuse, do_fp16=cfg.fp16, do_memplan=True)
    print(f"nodes: {before_nodes} -> {len(opt.nodes)} (fuse={'on' if cfg.fuse else 'off'}, "
          f"fp16={'on' if cfg.fp16 else 'off'})")
    print(f"planned bytes: naive {naive_plan.naive_bytes:,} | peak {plan.peak_bytes:,} "
          f"| arena {plan.arena_bytes:,}")
    if args.out:
        Path(args.out).write_text(json.dumps(opt.to_json(), indent=1))
        print(f"graph dumped to {args.out}")
    if args.plan_out:
        Path(args.plan_out).write_text(plan.render_table() + "\n")
        print(f"memory plan table dumped to {args.plan_out}")
    return EXIT_OK


def cmd_count(args) -> int:
    if args.profile == "full":
        ecfg = full_scale_config(crops=1)
        mstn, head = rtfm.full_scale_mstn_config(), rtfm.full_scale_head_config()
    else:  # "desk"; argparse rejects any other value
        ecfg = desk_scale_config(crops=1)
        mstn, head = rtfm.MstnConfig(), rtfm.HeadConfig()
    seed = args.seed if args.seed is not None else 0
    snippets = args.snippets
    eg = build_extractor(ecfg, seed=seed)
    hg = rtfm.head_graph(rtfm.RtfmModel(mstn, head, seed=seed), snippets=snippets)
    ext = bench_mod.count_params_flops(eg)
    hd = bench_mod.count_params_flops(hg)
    print(f"profile: {args.profile} (FLOPs = 2 x multiply-accumulates, single clip "
          f"[1,3,{ecfg.frames},{ecfg.spatial},{ecfg.spatial}]; head over {snippets} snippets)")
    print(bench_mod.accounting_table(ext, hd, crops=10, snippets=snippets))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="edgevad", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (dotted paths allowed)")
        sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("run", help="run the detection pipeline, emit ScoreRecord JSONL")
    common(sp)
    sp.add_argument("--out", default="-", help="records JSONL path (default stdout)")
    sp.add_argument("--summary", help="write the run summary JSON here")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("bench", help="measure optimized vs baseline pipeline")
    common(sp)
    sp.add_argument("--out", help="write both BenchReports as JSON")
    sp.add_argument("--csv", help="write the comparison table as CSV")
    sp.add_argument("--repeats", type=int, default=1, help="median-of-N runs per variant")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("train", help="desk-scale training on the synthetic magnitude dataset")
    common(sp)
    sp.add_argument("--out", help="parameter file stem (writes .bin + .json)")
    sp.add_argument("--curve", help="loss curve CSV path")
    sp.add_argument("--metrics", help="training metrics JSON path")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="AUC and verdicts from records + labels")
    sp.add_argument("--records", required=True, help="ScoreRecord JSONL")
    sp.add_argument("--labels", required=True, help="CSV: snippet_index,label")
    sp.add_argument("--rule", default="any-alert", choices=["any-alert", "run-n"])
    sp.add_argument("--run-n", type=int, default=2)
    sp.add_argument("--out", help="metrics JSON path")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("optimize", help="apply passes, dump graph JSON + memory plan")
    common(sp)
    sp.add_argument("--out", help="graph JSON path")
    sp.add_argument("--plan-out", help="memory plan table path")
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("count", help="parameter/FLOP accounting with published references")
    sp.add_argument("--profile", default="full", choices=["full", "desk"])
    sp.add_argument("--snippets", type=int, default=32)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(func=cmd_count)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_CONFIG
    try:
        return args.func(args)
    except (ConfigError, PipelineConfigError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except PipelineStageError as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
