"""Anomaly head: multi-scale temporal encoder, snippet scorer, and the
top-k feature-magnitude training objective.

The encoder concatenates a pyramid of dilated temporal convolutions
(dilations 1/2/4, kernel 3) with a temporal self-attention branch and projects
to the working feature width. Scoring is a three-layer MLP with 70% inverted
dropout on the final hidden layer and a sigmoid squash. Training follows the
magnitude-separability idea: hinge on the top-k mean feature magnitudes of
abnormal-vs-normal videos, plus BCE on the scores of the top-k-magnitude
snippets (label 1 abnormal, 0 normal). Only this head trains; the extractor
stays frozen. Training runs the float64 autodiff tape; inference runs the same
parameters as the float32 `head_graph` on a plain `GraphRunner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Var
from .graphopt import ComputeGraph, GraphBuilder, GraphRunner
from .tensor import Tensor

BCE_EPS = 1e-7


@dataclass(frozen=True)
class MstnConfig:
    in_dim: int = 32
    branch_channels: int = 8
    dilations: Tuple[int, ...] = (1, 2, 4)
    kernel: int = 3
    use_tsa: bool = True
    fuse_kernel: int = 1
    out_dim: int = 16

    @property
    def concat_dim(self) -> int:
        return self.branch_channels * (len(self.dilations) + (1 if self.use_tsa else 0))


@dataclass(frozen=True)
class HeadConfig:
    hidden: Tuple[int, int] = (16, 8)
    dropout: float = 0.7


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    weight_decay: float = 0.005
    batch_size: int = 16
    epochs: int = 200
    k: int = 3
    margin: float = 100.0
    seed: int = 0

    def validate(self) -> None:
        for name in ("learning_rate", "weight_decay", "batch_size", "epochs", "k", "margin"):
            if getattr(self, name) < 0 or (name in ("batch_size", "epochs", "k") and getattr(self, name) < 1):
                raise ValueError(f"TrainConfig.{name} must be positive")


def full_scale_mstn_config() -> MstnConfig:
    """Accounting-scale encoder mirroring the deployed 2048-D head."""
    return MstnConfig(in_dim=2048, branch_channels=512, fuse_kernel=3, out_dim=2048)


def full_scale_head_config() -> HeadConfig:
    return HeadConfig(hidden=(512, 128))


def init_params(mstn: MstnConfig, head: HeadConfig, seed: int = 0) -> Dict[str, np.ndarray]:
    """He-style conv inits, zero biases, zero attention output projection."""
    rng = np.random.default_rng(seed)
    p: Dict[str, np.ndarray] = {}
    c, d, k = mstn.branch_channels, mstn.in_dim, mstn.kernel
    for i, _ in enumerate(mstn.dilations):
        p[f"pdc{i}_w"] = rng.normal(scale=np.sqrt(2.0 / (d * k)), size=(c, d, k))
        p[f"pdc{i}_b"] = np.zeros(c)
    if mstn.use_tsa:
        ci = max(1, c // 2)
        p["tsa_proj_w"] = rng.normal(scale=np.sqrt(2.0 / d), size=(c, d, 1))
        p["tsa_q"] = rng.normal(scale=np.sqrt(1.0 / c), size=(c, ci))
        p["tsa_k"] = rng.normal(scale=np.sqrt(1.0 / c), size=(c, ci))
        p["tsa_g"] = rng.normal(scale=np.sqrt(1.0 / c), size=(c, ci))
        p["tsa_o"] = np.zeros((ci, c))
    p["fuse_w"] = rng.normal(
        scale=np.sqrt(2.0 / (mstn.concat_dim * mstn.fuse_kernel)),
        size=(mstn.out_dim, mstn.concat_dim, mstn.fuse_kernel),
    )
    p["fuse_b"] = np.zeros(mstn.out_dim)
    h1, h2 = head.hidden
    p["fc1_w"] = rng.normal(scale=np.sqrt(1.0 / mstn.out_dim), size=(mstn.out_dim, h1))
    p["fc1_b"] = np.zeros(h1)
    p["fc2_w"] = rng.normal(scale=np.sqrt(1.0 / h1), size=(h1, h2))
    p["fc2_b"] = np.zeros(h2)
    p["fc3_w"] = rng.normal(scale=np.sqrt(1.0 / h2), size=(h2, 1))
    p["fc3_b"] = np.zeros(1)
    return p


@dataclass
class RtfmModel:
    mstn: MstnConfig = field(default_factory=MstnConfig)
    head: HeadConfig = field(default_factory=HeadConfig)
    params: Dict[str, np.ndarray] = None
    seed: int = 0

    def __post_init__(self):
        if self.params is None:
            self.params = init_params(self.mstn, self.head, self.seed)

    def param_vars(self) -> Dict[str, Var]:
        return {k: Var(v) for k, v in self.params.items()}


# ---------------------------------------------------------------------------
# the head on the float64 autodiff tape: rtfm_loss trains through it, and the
# tests hold head_graph's float32 inference to it
# ---------------------------------------------------------------------------

def mstn_forward_var(pv: Dict[str, Var], cfg: MstnConfig, feats) -> Var:
    """[T, D] snippet features -> [T, out_dim] temporal features."""
    x = ad.as_var(feats)
    if x.value.ndim != 2 or x.value.shape[1] != cfg.in_dim:
        raise ValueError(f"expected [T,{cfg.in_dim}] features, got {x.value.shape}")
    branches: List[Var] = []
    for i, dil in enumerate(cfg.dilations):
        h = ad.conv1d_same(x, pv[f"pdc{i}_w"], pv[f"pdc{i}_b"], dilation=dil)
        branches.append(ad.relu(h))
    if cfg.use_tsa:
        h = ad.conv1d_same(x, pv["tsa_proj_w"], None, dilation=1)
        q = ad.matmul(h, pv["tsa_q"])
        k = ad.matmul(h, pv["tsa_k"])
        g = ad.matmul(h, pv["tsa_g"])
        ci = q.value.shape[1]
        logits = ad.mul(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(ci))
        attn = ad.softmax(logits, axis=-1)
        branches.append(ad.add(h, ad.matmul(ad.matmul(attn, g), pv["tsa_o"])))
    cat = ad.concat(branches, axis=1)
    return ad.conv1d_same(cat, pv["fuse_w"], pv["fuse_b"], dilation=1)


def snippet_logits_var(pv: Dict[str, Var], cfg: HeadConfig, x: Var,
                       mask: Optional[np.ndarray] = None) -> Var:
    """Pre-squash per-snippet logits [T,1]; mask applies inverted dropout."""
    h = ad.relu(ad.add(ad.matmul(x, pv["fc1_w"]), pv["fc1_b"]))
    h = ad.relu(ad.add(ad.matmul(h, pv["fc2_w"]), pv["fc2_b"]))
    if mask is not None:
        h = ad.mul(h, mask)
    return ad.add(ad.matmul(h, pv["fc3_w"]), pv["fc3_b"])


def dropout_mask(rng: np.random.Generator, shape, p_drop: float) -> np.ndarray:
    keep = 1.0 - p_drop
    return (rng.random(shape) < keep).astype(np.float64) / keep


def topk_indices(mags: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest of the T values in `mags`, largest first; ties
    break to the lowest index. ValueError unless 1 <= k <= T."""
    t = len(mags)
    if not 1 <= k <= t:
        raise ValueError(f"k={k} out of range [1, {t}]")
    return np.argsort(-mags, kind="stable")[:k]


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def rtfm_loss(
    model: RtfmModel,
    normal_batch: Sequence[np.ndarray],
    abnormal_batch: Sequence[np.ndarray],
    cfg: TrainConfig,
    dropout_rng: Optional[np.random.Generator] = None,
    masks: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> Tuple[float, Dict[str, np.ndarray], Dict[str, float]]:
    """Margin + BCE objective over paired normal/abnormal feature videos.

    Returns (loss, gradients, parts). Dropout masks apply to the concatenated
    [normal..., abnormal...] video list; pass `masks` for deterministic replay.
    """
    if len(normal_batch) == 0 or len(abnormal_batch) == 0:
        raise ValueError("both normal and abnormal batches must be nonempty")
    pv = model.param_vars()
    videos = list(normal_batch) + list(abnormal_batch)
    labels = [0] * len(normal_batch) + [1] * len(abnormal_batch)
    if masks is None and dropout_rng is not None:
        masks = [
            dropout_mask(dropout_rng, (np.asarray(v).shape[0], model.head.hidden[1]), model.head.dropout)
            for v in videos
        ]

    topk_means: List[Var] = []
    bce_terms: List[Var] = []
    for i, (feats, label) in enumerate(zip(videos, labels)):
        x = mstn_forward_var(pv, model.mstn, np.asarray(feats, dtype=np.float64))
        mags = ad.l2_rows(x)
        idx = topk_indices(mags.value, cfg.k)
        topk_means.append(ad.mean(ad.gather_rows(mags, idx)))
        logits = snippet_logits_var(pv, model.head, x, masks[i] if masks else None)
        scores = ad.sigmoid(logits)
        video_score_var = ad.mean(ad.gather_rows(scores, idx))
        sclip = ad.clip(video_score_var, BCE_EPS, 1.0 - BCE_EPS)
        bce = -ad.log(sclip) if label == 1 else -ad.log(ad.add(ad.mul(sclip, -1.0), 1.0))
        bce_terms.append(bce)

    n_pairs = min(len(normal_batch), len(abnormal_batch))
    hinges = []
    for j in range(n_pairs):
        mn = topk_means[j]
        ma = topk_means[len(normal_batch) + j]
        hinges.append(ad.relu(ad.add(ad.sub(mn, ma), cfg.margin)))
    margin_term = ad.mul(_sum_vars(hinges), 1.0 / n_pairs)
    bce_term = ad.mul(_sum_vars(bce_terms), 1.0 / len(bce_terms))
    loss = ad.add(margin_term, bce_term)
    loss.backward()
    grads = {k: v.grad if v.grad is not None else np.zeros_like(v.value) for k, v in pv.items()}
    parts = {"margin": float(margin_term.value), "bce": float(bce_term.value)}
    return float(loss.value), grads, parts


def _sum_vars(vs: Sequence[Var]) -> Var:
    acc = vs[0]
    for v in vs[1:]:
        acc = ad.add(acc, v)
    return acc


# ---------------------------------------------------------------------------
# inference-side scoring: head_graph on GraphRunner, float32
# ---------------------------------------------------------------------------

def _head_forward(feats: np.ndarray, model: RtfmModel,
                  runners: Optional[Dict[int, GraphRunner]] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Per-crop scores [crops,T] and temporal features [crops,T,out_dim] of
    [T,D] or [crops,T,D] features, one head_graph run per crop. A runner is
    built for each new T in `runners` (fresh by default, so it reads the current
    parameters); pass one dict to share it across videos with fixed parameters.
    Plain, not fused+planned: the outputs are bitwise equal and it builds faster."""
    arr = np.asarray(feats, dtype=np.float32)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3:
        raise ValueError(f"expected [T,D] or [crops,T,D], got {arr.shape}")
    t, runners = arr.shape[1], {} if runners is None else runners
    if t not in runners:
        runners[t] = GraphRunner(head_graph(model, t))
    outs = [runners[t].run(Tensor(crop.T)) for crop in arr]  # the graph takes channels-first [D,T]
    return np.stack([s.data[:, 0] for s, _ in outs]), np.stack([x.data for _, x in outs])


def video_score(feats: np.ndarray, model: RtfmModel) -> np.ndarray:
    """Per-snippet scores in [0,1]; a leading crop axis is averaged away in float64."""
    return _head_forward(feats, model)[0].mean(axis=0, dtype=np.float64)


def video_anomaly_score(feats: np.ndarray, model: RtfmModel, k: int = 3) -> float:
    """Video-level score: mean snippet score over the top-k magnitude snippets."""
    return _topk_magnitude_score(*_head_forward(feats, model), k)


def _topk_magnitude_score(scores: np.ndarray, xs: np.ndarray, k: int) -> float:
    mags = np.sqrt((xs.astype(np.float64) ** 2).sum(axis=2)).mean(axis=0)
    idx = topk_indices(mags, k)
    return float(scores.mean(axis=0, dtype=np.float64)[idx].mean())


# ---------------------------------------------------------------------------
# training + synthetic data
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    model: RtfmModel
    epoch_losses: List[float]
    config: TrainConfig

    def loss_curve_csv(self) -> str:
        lines = ["epoch,loss"]
        lines += [f"{i},{l:.6f}" for i, l in enumerate(self.epoch_losses)]
        return "\n".join(lines) + "\n"


def train(
    dataset: Sequence[Tuple[np.ndarray, int]],
    cfg: TrainConfig,
    mstn: Optional[MstnConfig] = None,
    head: Optional[HeadConfig] = None,
    on_epoch=None,
) -> TrainResult:
    """Seed-deterministic Adam training on labeled feature videos (label 1 = abnormal)."""
    cfg.validate()
    normals = [np.asarray(f, dtype=np.float64) for f, y in dataset if y == 0]
    abnormals = [np.asarray(f, dtype=np.float64) for f, y in dataset if y == 1]
    if not normals or not abnormals:
        raise ValueError("dataset must contain both normal and abnormal videos")
    mstn = mstn or MstnConfig(in_dim=normals[0].shape[1])
    head = head or HeadConfig()
    model = RtfmModel(mstn=mstn, head=head, seed=cfg.seed)
    opt = Adam(lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    losses: List[float] = []
    for epoch in range(cfg.epochs):
        order_n = rng.permutation(len(normals))
        order_a = rng.permutation(len(abnormals))
        steps = max(1, min(len(normals), len(abnormals)) // cfg.batch_size)
        epoch_loss = 0.0
        for s in range(steps):
            take = lambda pool, order, off: [pool[order[(off + i) % len(order)]] for i in range(cfg.batch_size)]
            nb = take(normals, order_n, s * cfg.batch_size)
            ab = take(abnormals, order_a, s * cfg.batch_size)
            loss, grads, _ = rtfm_loss(model, nb, ab, cfg, dropout_rng=rng)
            opt.step(model.params, grads)
            epoch_loss += loss
        losses.append(epoch_loss / steps)
        if on_epoch is not None and on_epoch(epoch, losses[-1], model):
            break
    return TrainResult(model=model, epoch_losses=losses, config=cfg)


def make_magnitude_dataset(
    n_normal: int = 20,
    n_abnormal: int = 20,
    snippets: int = 32,
    dim: int = 32,
    scale: float = 3.0,
    anomaly_rows: int = 8,
    seed: int = 0,
):
    """Synthetic planted-magnitude videos: abnormal rows are `scale`x larger.

    Returns (dataset, planted) where planted[i] is the row-index array for
    abnormal videos and None for normal ones; those labels are the oracle.
    """
    if not 1 <= anomaly_rows <= snippets:
        raise ValueError(f"anomaly_rows must lie in [1, snippets={snippets}], got {anomaly_rows}")
    rng = np.random.default_rng(seed)
    dataset, planted = [], []
    for _ in range(n_normal):
        dataset.append((rng.normal(size=(snippets, dim)), 0))
        planted.append(None)
    for _ in range(n_abnormal):
        f = rng.normal(size=(snippets, dim))
        start = int(rng.integers(0, snippets - anomaly_rows + 1))
        rows = np.arange(start, start + anomaly_rows)
        f[rows] *= scale
        dataset.append((f, 1))
        planted.append(rows)
    return dataset, planted


def training_auc(result_model: RtfmModel, dataset, k: int = 3) -> float:
    """Video-level ROC-AUC of top-k scores against the dataset labels."""
    from .metrics import roc_auc

    runners: Dict[int, GraphRunner] = {}  # the parameters are fixed for the call: one build per T
    scores = [_topk_magnitude_score(*_head_forward(f, result_model, runners), k) for f, _ in dataset]
    labels = [y for _, y in dataset]
    return roc_auc(scores, labels)


def head_graph(model: RtfmModel, snippets: int = 32) -> ComputeGraph:
    """The model's head as a float32 compute graph: channels-first [D,T]
    features in; per-snippet scores [T,1] and temporal features [T,out_dim]
    out. fc weights go in transposed ([O,I], as `linear` takes them)."""
    mstn = model.mstn
    b = GraphBuilder(f"head-d{mstn.in_dim}")
    x = b.input((mstn.in_dim, snippets), name="features")

    def par(name):
        v = model.params[name]
        return b.param(name, Tensor(v.T if name.startswith("fc") and name.endswith("_w") else v))

    branches = []
    for i, dil in enumerate(mstn.dilations):
        t = b.conv1d(x, par(f"pdc{i}_w"), dilation=dil)
        t = b.bias(t, par(f"pdc{i}_b"), axis=0)
        branches.append(b.relu(t))
    if mstn.use_tsa:
        proj = b.conv1d(x, par("tsa_proj_w"), dilation=1)
        branches.append(b.nonlocal1d(proj, par("tsa_q"), par("tsa_k"), par("tsa_g"), par("tsa_o"), name="tsa"))
    cat = b.concat(branches, axis=0)
    fused = b.conv1d(cat, par("fuse_w"), dilation=1)
    fused = b.bias(fused, par("fuse_b"), axis=0)
    feats = b.transpose2d(fused)  # [T, out_dim]
    t = b.linear(feats, par("fc1_w"))
    t = b.bias(t, par("fc1_b"), axis=-1)
    t = b.relu(t)
    t = b.linear(t, par("fc2_w"))
    t = b.bias(t, par("fc2_b"), axis=-1)
    t = b.relu(t)
    t = b.linear(t, par("fc3_w"))
    t = b.bias(t, par("fc3_b"), axis=-1)
    b.output(b.sigmoid(t))
    b.output(feats)
    return b.build()
