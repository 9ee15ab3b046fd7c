"""Small reverse-mode autodiff over float64 numpy arrays.

Covers exactly the ops reachable from the anomaly-head loss: dilated same-pad
temporal convolution, matmul, softmax attention, relu/sigmoid, row-wise l2
magnitudes, row gathers (straight-through through top-k selection), clipping,
logs, and reductions. Values are float64 so finite-difference checks are tight.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


class Var:
    __slots__ = ("value", "grad", "_parents", "_bwd")

    def __init__(self, value, parents=(), bwd=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self._parents: Tuple["Var", ...] = tuple(parents)
        self._bwd = bwd

    @property
    def shape(self):
        return self.value.shape

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g

    def backward(self) -> None:
        order: List[Var] = []
        seen = set()

        def visit(v: "Var"):
            if id(v) in seen:
                return
            seen.add(id(v))
            for p in v._parents:
                visit(p)
            order.append(v)

        visit(self)
        self.grad = np.ones_like(self.value)
        for v in reversed(order):
            if v._bwd is not None and v.grad is not None:
                v._bwd(v.grad)

    def __neg__(self):
        return mul(self, -1.0)


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(np.asarray(x, dtype=np.float64))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.value + b.value, (a, b))

    def bwd(g):
        a._accum(_unbroadcast(g, a.value.shape))
        b._accum(_unbroadcast(g, b.value.shape))

    out._bwd = bwd
    return out


def sub(a, b) -> Var:
    return add(a, mul(b, -1.0))


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.value * b.value, (a, b))

    def bwd(g):
        a._accum(_unbroadcast(g * b.value, a.value.shape))
        b._accum(_unbroadcast(g * a.value, b.value.shape))

    out._bwd = bwd
    return out


def matmul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.value @ b.value, (a, b))

    def bwd(g):
        a._accum(g @ b.value.T)
        b._accum(a.value.T @ g)

    out._bwd = bwd
    return out


def relu(x) -> Var:
    x = as_var(x)
    mask = x.value > 0
    out = Var(np.where(mask, x.value, 0.0), (x,))
    out._bwd = lambda g: x._accum(g * mask)
    return out


def sigmoid(x) -> Var:
    x = as_var(x)
    s = 1.0 / (1.0 + np.exp(-x.value))
    out = Var(s, (x,))
    out._bwd = lambda g: x._accum(g * s * (1.0 - s))
    return out


def log(x) -> Var:
    x = as_var(x)
    out = Var(np.log(x.value), (x,))
    out._bwd = lambda g: x._accum(g / x.value)
    return out


def clip(x, lo: float, hi: float) -> Var:
    x = as_var(x)
    mask = (x.value > lo) & (x.value < hi)
    out = Var(np.clip(x.value, lo, hi), (x,))
    out._bwd = lambda g: x._accum(g * mask)
    return out


def softmax(x, axis: int = -1) -> Var:
    x = as_var(x)
    m = np.max(x.value, axis=axis, keepdims=True)
    e = np.exp(x.value - m)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Var(s, (x,))

    def bwd(g):
        dot = np.sum(g * s, axis=axis, keepdims=True)
        x._accum(s * (g - dot))

    out._bwd = bwd
    return out


def transpose(x) -> Var:
    x = as_var(x)
    out = Var(x.value.T, (x,))
    out._bwd = lambda g: x._accum(g.T)
    return out


def concat(xs: Sequence[Var], axis: int = -1) -> Var:
    xs = [as_var(x) for x in xs]
    out = Var(np.concatenate([x.value for x in xs], axis=axis), tuple(xs))
    sizes = [x.value.shape[axis] for x in xs]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for x, piece in zip(xs, np.split(g, splits, axis=axis)):
            x._accum(piece)

    out._bwd = bwd
    return out


def mean(x) -> Var:
    x = as_var(x)
    out = Var(np.mean(x.value), (x,))
    out._bwd = lambda g: x._accum(np.full_like(x.value, float(g) / x.value.size))
    return out


def gather_rows(x, idx) -> Var:
    """x[idx] on the leading axis; gradient scatters back to the selected rows."""
    x = as_var(x)
    idx = np.asarray(idx, dtype=np.int64)
    out = Var(x.value[idx], (x,))

    def bwd(g):
        gx = np.zeros_like(x.value)
        np.add.at(gx, idx, g)
        x._accum(gx)

    out._bwd = bwd
    return out


def l2_rows(x, eps: float = 1e-12) -> Var:
    """Per-row l2 magnitude of [T,D]: sqrt(sum x^2) with an epsilon-guarded grad."""
    x = as_var(x)
    m = np.sqrt(np.sum(x.value ** 2, axis=1))
    out = Var(m, (x,))

    def bwd(g):
        denom = np.maximum(m, eps)
        x._accum((g / denom)[:, None] * x.value)

    out._bwd = bwd
    return out


def conv1d_same(x, w, b=None, dilation: int = 1) -> Var:
    """Same-length dilated conv on [T,Din] input; weight [Dout,Din,k] with k odd."""
    x, w = as_var(x), as_var(w)
    t, din = x.value.shape
    dout, din2, k = w.value.shape
    if din != din2:
        raise ValueError(f"channel mismatch: input D={din} vs weight D={din2}")
    if k % 2 == 0:
        raise ValueError(f"even kernel k={k}: symmetric same-padding undefined")
    half = (k - 1) * dilation // 2
    xp = np.zeros((t + 2 * half, din), dtype=np.float64)
    xp[half:half + t] = x.value
    idx = np.arange(t)[:, None] + np.arange(k)[None, :] * dilation  # into padded rows
    cols = xp[idx].reshape(t, k * din)
    wflat = w.value.transpose(2, 1, 0).reshape(k * din, dout)
    yv = cols @ wflat
    parents = [x, w]
    if b is not None:
        bvar = as_var(b)
        yv = yv + bvar.value
        parents.append(bvar)
    out = Var(yv, tuple(parents))

    def bwd(g):
        w._accum((cols.T @ g).reshape(k, din, dout).transpose(2, 1, 0))
        gcols = (g @ wflat.T).reshape(t, k, din)
        gxp = np.zeros_like(xp)
        np.add.at(gxp, idx, gcols)
        x._accum(gxp[half:half + t])
        if b is not None:
            parents[2]._accum(g.sum(axis=0))

    out._bwd = bwd
    return out


# ---------------------------------------------------------------------------
# Adam with L2 weight decay folded into the gradient
# ---------------------------------------------------------------------------

class Adam:
    def __init__(self, lr: float = 0.001, weight_decay: float = 0.0,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.wd = lr, weight_decay
        self.b1, self.b2, self.eps = beta1, beta2, eps
        self.m: Dict[str, np.ndarray] = {}
        self.v: Dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray]) -> None:
        self.t += 1
        for k, p in params.items():
            g = grads[k] + self.wd * p
            if k not in self.m:
                self.m[k] = np.zeros_like(p)
                self.v[k] = np.zeros_like(p)
            self.m[k] = self.b1 * self.m[k] + (1 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1 - self.b2) * g * g
            mhat = self.m[k] / (1 - self.b1 ** self.t)
            vhat = self.v[k] / (1 - self.b2 ** self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
