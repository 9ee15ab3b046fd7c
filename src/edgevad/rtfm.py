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
parameters as the float32 `head_graph` on a plain `GraphRunner`, built from
the extractor's node kinds (temporal convs and fc layers as conv3d, the
attention as nonlocal3d), all crops of a video in one run.
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

def rtfm_objective(
    model: RtfmModel,
    normal_batch: Sequence[np.ndarray],
    abnormal_batch: Sequence[np.ndarray],
    cfg: TrainConfig,
    dropout_rng: Optional[np.random.Generator] = None,
    masks: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> Tuple[Var, Dict[str, Var], Dict[str, float]]:
    """Margin + BCE objective over paired normal/abnormal feature videos, on
    the tape: (the loss Var, the parameter Vars it reads, its parts).
    Dropout masks apply to the concatenated [normal..., abnormal...] video
    list; pass `masks` for deterministic replay.
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
    parts = {"margin": float(margin_term.value), "bce": float(bce_term.value)}
    return ad.add(margin_term, bce_term), pv, parts


def rtfm_loss(
    model: RtfmModel,
    normal_batch: Sequence[np.ndarray],
    abnormal_batch: Sequence[np.ndarray],
    cfg: TrainConfig,
    dropout_rng: Optional[np.random.Generator] = None,
    masks: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> Tuple[float, Dict[str, np.ndarray], Dict[str, float]]:
    """rtfm_objective and its gradients: (loss, gradients, parts)."""
    loss, pv, parts = rtfm_objective(model, normal_batch, abnormal_batch, cfg, dropout_rng, masks)
    loss.backward()
    grads = {k: v.grad if v.grad is not None else np.zeros_like(v.value) for k, v in pv.items()}
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
                  runners: Optional[Dict[Tuple[int, int], GraphRunner]] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Per-crop scores [crops,T] and temporal features [crops,T,out_dim] of
    [T,D] or [crops,T,D] features, from one head_graph run over all the crops.
    A runner is built for each new (crops, T) in `runners` (fresh by default,
    so it reads the current parameters); pass one dict to share it across
    videos with fixed parameters. Plain, not fused+planned: the outputs are
    bitwise equal and it builds faster."""
    arr = np.asarray(feats, dtype=np.float32)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3:
        raise ValueError(f"expected [T,D] or [crops,T,D], got {arr.shape}")
    key, runners = arr.shape[:2], {} if runners is None else runners
    if key not in runners:
        runners[key] = GraphRunner(head_graph(model, key[1], key[0]))
    scores, xs = runners[key].run(Tensor(arr.transpose(0, 2, 1)[..., None, None]))  # channels-first
    return scores.data[:, 0, :, 0, 0], np.ascontiguousarray(xs.data[..., 0, 0].transpose(0, 2, 1))


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

    runners: Dict[Tuple[int, int], GraphRunner] = {}  # the parameters are fixed for the call: one build per shape
    scores = [_topk_magnitude_score(*_head_forward(f, result_model, runners), k) for f, _ in dataset]
    labels = [y for _, y in dataset]
    return roc_auc(scores, labels)


def head_graph(model: RtfmModel, snippets: int = 32, crops: int = 1) -> ComputeGraph:
    """The model's head as a float32 compute graph on the extractor's kinds:
    features [crops,D,T,1,1] in (each crop's [T,D] transposed); per-snippet
    scores [crops,1,T,1,1] and temporal features [crops,out_dim,T,1,1] out.
    A temporal conv [O,I,k] is a (k,1,1) conv3d padded along T, an fc layer
    [I,O] a 1x1x1 conv3d on its transpose, and the attention branch a
    nonlocal3d over the T positions. ValueError on an even kernel, for which
    same-length padding is not symmetric."""
    b = GraphBuilder(f"head-d{model.mstn.in_dim}")
    x = b.input((crops, model.mstn.in_dim, snippets, 1, 1), name="features")

    def par(name):
        return b.param(name, Tensor(model.params[name]))

    def conv(t, name, dilation=1):
        w = model.params[name]
        w = w.T[..., None] if name.startswith("fc") else w
        k = w.shape[2]
        if k % 2 == 0:
            raise ValueError(f"{name}: even kernel size k={k}: symmetric same-padding undefined")
        return b.conv3d(t, b.param(name, Tensor(w[..., None, None])), pad=((k - 1) * dilation // 2, 0, 0),
                        dilation=(dilation, 1, 1))

    def bias(t, name):
        return b.bias(t, par(name), axis=1)

    branches = [b.relu(bias(conv(x, f"pdc{i}_w", dil), f"pdc{i}_b")) for i, dil in enumerate(model.mstn.dilations)]
    if model.mstn.use_tsa:
        proj = conv(x, "tsa_proj_w")
        branches.append(b.nonlocal3d(proj, par("tsa_q"), par("tsa_k"), par("tsa_g"), par("tsa_o"), name="tsa"))
    feats = bias(conv(b.concat(branches, axis=1), "fuse_w"), "fuse_b")
    t = feats
    for fc in ("fc1", "fc2"):
        t = b.relu(bias(conv(t, f"{fc}_w"), f"{fc}_b"))
    b.output(b.sigmoid(bias(conv(t, "fc3_w"), "fc3_b")))
    b.output(feats)
    return b.build()
