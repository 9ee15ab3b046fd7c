"""Shared test utilities: random graph generation, brute-force plan checking,
the earlier extractor kernels kept as references for the current ones, and a
small pipeline configuration with a slowed extractor."""

import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from edgevad.graphopt import GraphBuilder, GraphError, GraphRunner, MemoryPlan
from edgevad.pipeline import PipelineConfig
from edgevad.tensor import Tensor


def random_graph(seed, min_ops=3, max_ops=8):
    """A random valid DAG over small 5-D tensors.

    Seeds conv->bias->relu triples (fusion targets), branch+add joins
    (two-consumer intermediates, fusion blockers), pools, and a gap3d/linear
    tail about half the time. Returns (graph, [input tensors]).
    """
    rng = np.random.default_rng(seed)
    b = GraphBuilder(name=f"rand{seed}")
    n = int(rng.integers(1, 3))
    c = int(rng.integers(1, 4))
    d, h, w = (int(rng.integers(3, 6)) for _ in range(3))
    shape = (n, c, d, h, w)
    x = b.input(shape, name="x")
    cur, cur_shape = x, shape
    pcount = 0

    def fresh(name, arr):
        nonlocal pcount
        pcount += 1
        return b.param(f"{name}{pcount}", Tensor(arr.astype(np.float32)))

    n_ops = int(rng.integers(min_ops, max_ops + 1))
    for _ in range(n_ops):
        choice = rng.random()
        nb, cb, db, hb, wb = cur_shape
        if choice < 0.45:
            # conv triple (sometimes without the bias/relu tail)
            o = int(rng.integers(1, 5))
            kd = int(rng.integers(1, min(3, db) + 1))
            kh = int(rng.integers(1, min(3, hb) + 1))
            kw = int(rng.integers(1, min(3, wb) + 1))
            wgt = fresh("w", rng.normal(scale=0.5, size=(o, cb, kd, kh, kw)))
            try:
                cur = b.conv3d(cur, wgt, stride=(1, 1, 1), pad=(0, 0, 0))
            except GraphError:
                continue
            cur_shape = b._meta[cur].shape
            if rng.random() < 0.8:
                bias = fresh("b", rng.normal(scale=0.5, size=(o,)))
                cur = b.bias(cur, bias, axis=1)
                if rng.random() < 0.85:
                    cur = b.relu(cur)
        elif choice < 0.6:
            # branch join: two consumers of cur, blocks fusion across it
            y = b.relu(cur)
            cur = b.add(cur, y)
        elif choice < 0.75 and min(db, hb, wb) >= 2:
            cur = b.maxpool3d(cur, (1, 2, 2), (1, 2, 2))
            cur_shape = b._meta[cur].shape
        else:
            cur = b.relu(cur)
    if rng.random() < 0.5:
        cur = b.gap3d(cur)
        o = int(rng.integers(1, 5))
        wgt = fresh("fw", rng.normal(scale=0.5, size=(o, cur_shape[1])))
        cur = b.linear(cur, wgt)
        bias = fresh("fb", rng.normal(scale=0.5, size=(o,)))
        cur = b.bias(cur, bias, axis=-1)
        cur = b.relu(cur)
    b.output(cur)
    g = b.build()
    inputs = [Tensor(rng.normal(scale=1.0, size=shape).astype(np.float32))]
    return g, inputs


def check_plan_no_overlap(plan: MemoryPlan):
    """O(n^2) pairwise oracle: entries with overlapping lifetimes, node
    outputs and kernel scratch alike, never share arena ranges."""
    tids = list(plan.offsets)
    for i, a in enumerate(tids):
        oa = plan.offsets[a]
        sa = plan.elems[a]
        la = plan.lifetime[a]
        for bid in range(i + 1, len(tids)):
            t = tids[bid]
            ob = plan.offsets[t]
            lb = plan.lifetime[t]
            lives_overlap = la[0] <= lb[1] and lb[0] <= la[1]
            ranges_overlap = oa < ob + plan.elems[t] and ob < oa + sa
            if lives_overlap and ranges_overlap:
                return False, (a, t)
    return True, None


def conv3d_rowmajor_ref(x, w, b, stride, pad, dilation, relu=False):
    """Reference conv3d: pad the whole batch, then per item a row-major im2col
    [od*oh*ow, C*kd*kh*kw] times the transposed weight [C*kd*kh*kw, O]."""
    n, c, d, h, wid = x.shape
    o, _, kd, kh, kw = w.shape
    sd, sh, sw = stride
    pd, ph, pw = pad
    dd, dh, dw = dilation
    ed, eh, ew = (kd - 1) * dd + 1, (kh - 1) * dh + 1, (kw - 1) * dw + 1
    od = (d + 2 * pd - ed) // sd + 1
    oh = (h + 2 * ph - eh) // sh + 1
    ow = (wid + 2 * pw - ew) // sw + 1
    rows, cols = od * oh * ow, c * kd * kh * kw
    xp = np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))
    win = sliding_window_view(xp, (ed, eh, ew), axis=(2, 3, 4))
    win = win[:, :, ::sd, ::sh, ::sw, ::dd, ::dh, ::dw]  # [n,c,od,oh,ow,kd,kh,kw]
    wmat = w.reshape(o, -1).T.copy()  # [c*kd*kh*kw, o]
    out = np.empty((n, o, od, oh, ow), dtype=np.float32)
    for i in range(n):
        col = np.ascontiguousarray(win[i].transpose(1, 2, 3, 0, 4, 5, 6)).reshape(rows, cols)
        y = col @ wmat
        if b is not None:
            y += b
        if relu:
            np.maximum(y, 0.0, out=y)
        out[i] = y.T.reshape(o, od, oh, ow)
    return out


def nonlocal_batched_ref(x, w_theta, w_phi, w_g, w_out):
    """Reference non-local block: attention over the whole batch at once,
    with [N,P,P] logits."""
    n, c = x.shape[0], x.shape[1]
    ci = w_theta.shape[1]
    flat = x.reshape(n, c, -1).transpose(0, 2, 1)  # [n, P, c]
    theta = flat @ w_theta  # [n,P,ci]
    phi = flat @ w_phi
    g = flat @ w_g
    logits = (theta @ phi.transpose(0, 2, 1)) / np.sqrt(np.float32(ci))
    e = np.exp(logits - np.max(logits, axis=-1, keepdims=True))  # the softmax, out of place
    attn = e / np.sum(e, axis=-1, keepdims=True)
    y = (attn @ g) @ w_out  # [n,P,c]
    return np.ascontiguousarray(x + y.transpose(0, 2, 1).reshape(x.shape))


def nonlocal_weights(channels, seed=0, zero_out=True):
    """nonlocal_raw's (w_theta, w_phi, w_g, w_out) for `channels` channels and
    C/2 inner ones; w_out is zero when `zero_out`, as the extractor initializes it."""
    rng = np.random.default_rng(seed)
    inner, s = max(1, channels // 2), np.sqrt(1.0 / channels)
    ws = [rng.normal(scale=s, size=(channels, inner)).astype(np.float32) for _ in range(3)]
    wo = np.zeros((inner, channels), np.float32) if zero_out else rng.normal(scale=s, size=(inner, channels))
    return (*ws, wo.astype(np.float32))


TINY_PROFILE = dict(
    name="tiny-nl",
    stem_channels=4,
    stem_kernel=(1, 5, 5),
    stem_stride=(1, 8, 8),
    stem_pad=(0, 2, 2),
    stage_widths=(8,),
    stage_blocks=(1,),
    stage_strides=((1, 2),),
    inflate=((0,),),
    nonlocal_blocks=((0,),),
    output_dim=8,
    crops=10,
    in_channels=3,
    frames=4,
    spatial=224,
)


def tiny_cfg(frames=40, snippets=4, **kw):
    return PipelineConfig(
        source={"kind": "synthetic", "pattern": "moving_square", "frames": frames,
                "width": 48, "height": 40, "seed": 1,
                "anomaly": {"start": frames // 2, "end": frames // 2 + 8, "strength": 110}},
        snippet_count=snippets,
        frames_per_snippet=4,
        extractor_profile=dict(TINY_PROFILE),
        seed=3,
        **kw,
    )


class SlowRunner(GraphRunner):
    """A GraphRunner whose every run first sleeps 0.3 s, so the preprocess
    workers get ahead of the extractor."""

    def run(self, *args, **kw):
        time.sleep(0.3)
        return super().run(*args, **kw)
