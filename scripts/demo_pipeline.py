#!/usr/bin/env python3
"""End-to-end demo: train the head on features from the frozen extractor,
then detect a planted anomaly in a held-out synthetic clip.

Mirrors the deployment workflow: the extractor never trains; the anomaly head
is fitted on per-crop snippet features of a handful of normal/anomalous clips,
and the full pipeline (preprocess -> extract -> detect -> alert) then runs on
a clip the head has never seen. Takes about a minute on one CPU core.
"""

import argparse
import sys
import time

import numpy as np

from edgevad import rtfm
from edgevad.metrics import video_verdict
from edgevad.pipeline import PipelineConfig, run_pipeline, run_sequential
from edgevad.serialize import save_params


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--train-videos", type=int, default=4, help="clips per class for head training")
    ap.add_argument("--frames", type=int, default=48)
    ap.add_argument("--snippets", type=int, default=6)
    ap.add_argument("--epochs", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threshold", type=float, default=0.7)
    ap.add_argument("--params-out", default="/tmp/edgevad_demo_params")
    args = ap.parse_args()

    base = {"kind": "synthetic", "pattern": "moving_square", "frames": args.frames,
            "width": 64, "height": 64}
    window = {"start": args.frames // 3, "end": args.frames - args.frames // 6, "strength": 130}

    print(f"extracting features for {2 * args.train_videos} training clips "
          f"({args.snippets} snippets each) with the frozen extractor...")
    t0 = time.perf_counter()
    clips = [({**base, "seed": v}, 0) for v in range(args.train_videos)]
    clips += [({**base, "seed": 100 + v, "anomaly": window}, 1) for v in range(args.train_videos)]
    dataset = []
    for spec, label in clips:
        feats = run_sequential(PipelineConfig(source=spec, snippet_count=args.snippets, seed=args.seed)).features
        dataset += [(crop, label) for crop in feats]  # one [T, D] video per crop
    print(f"  {len(dataset)} per-crop feature videos in {time.perf_counter() - t0:.0f}s")

    print(f"training the head for up to {args.epochs} epochs...")
    cfg = rtfm.TrainConfig(epochs=args.epochs, k=2, seed=args.seed)
    t0 = time.perf_counter()
    result = rtfm.train(
        dataset, cfg,
        on_epoch=lambda e, loss, m: (e + 1) % 50 == 0 and rtfm.training_auc(m, dataset, k=2) >= 0.999
                                     and loss < 1.0,
    )
    auc = rtfm.training_auc(result.model, dataset, k=2)
    print(f"  {len(result.epoch_losses)} epochs in {time.perf_counter() - t0:.0f}s, "
          f"training AUC {auc:.3f}")
    save_params(args.params_out, {k: v.astype(np.float32) for k, v in result.model.params.items()})

    held_out = {**base, "seed": 777, "anomaly": window}
    print("running the pipeline on a held-out clip with a planted anomaly window "
          f"(frames {window['start']}..{window['end']})...")
    res = run_pipeline(
        PipelineConfig(
            source=held_out, snippet_count=args.snippets, threshold=args.threshold,
            head_params=args.params_out, seed=args.seed,
        ),
        log=lambda line: print("  " + line),
    )
    detected = video_verdict([r.__dict__ for r in res.records])
    print(f"alerts={res.summary['alerts']}/{args.snippets}  "
          f"verdict={'DETECTED' if detected else 'not detected'}")

    control = run_pipeline(
        PipelineConfig(
            source={**base, "seed": 778}, snippet_count=args.snippets,
            threshold=args.threshold, head_params=args.params_out, seed=args.seed,
        )
    )
    print(f"control clip without anomaly: alerts={control.summary['alerts']}/{args.snippets}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
