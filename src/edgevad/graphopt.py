"""Compute-graph IR, optimization passes, and the executor.

A ComputeGraph is a static single-producer DAG of kernel nodes over tensor ids.
Three passes mirror a deployment-engine builder: operator fusion
(a conv3d -> bias -> relu chain becomes the conv3d with a bias and a `relu`
attr, a ten_crop -> conv3d chain the conv3d with the crop's `size` attr,
reading the ten crops of its clip in place, and the convs below it the crops'
shared boxes), precision lowering to emulated
binary16, and static memory planning (lifetime analysis plus greedy best-fit
offset assignment of node outputs and kernel scratch into one arena). Fusion
adds no node kind: every kind is one entry of the op table `OPS`, whose ten
kinds build both the extractor and the scoring head (`rtfm.head_graph`). Passes are
pure graph -> graph functions and never change execution results beyond the
documented F16 rounding. `select_crops` restricts a graph's ten-crop nodes
(those with a `size` attr) to a subset of the crops, whose rows equal those
of the whole graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .tensor import (
    F16,
    F32,
    ShapeError,
    Tensor,
    conv3d_io,
    conv3d_raw,
    maxpool3d_raw,
    maxpool3d_shape,
    nonlocal_raw,
    nonlocal_workspace_elems,
    round_f16,
    ten_crop_shape,
)
from .videopre import ten_crop


class GraphError(ValueError):
    pass


# every tensor and scratch float is held as float32; F16 is a rounding rule, not a width
FLOAT_BYTES = 4


@dataclass(frozen=True)
class TensorMeta:
    shape: Tuple[int, ...]
    precision: str = F32

    @property
    def elems(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    @property
    def nbytes(self) -> int:
        return self.elems * FLOAT_BYTES


@dataclass(frozen=True)
class Node:
    name: str
    kind: str
    inputs: Tuple[str, ...]
    output: str
    attrs: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)  # slot -> parameter name


@dataclass
class ComputeGraph:
    nodes: List[Node]
    inputs: List[str]
    outputs: List[str]
    meta: Dict[str, TensorMeta]
    params: Dict[str, Tensor]
    name: str = "graph"

    def validate(self, infer_shapes: bool = True) -> None:
        """Checks inputs have meta, each tensor is produced once before it is
        read, params exist and outputs are produced; with `infer_shapes`,
        also that each node's declared output shape is the inferred one
        (GraphBuilder.build skips that: op() has just inferred it)."""
        produced = set(self.inputs)
        for t in self.inputs:
            if t not in self.meta:
                raise GraphError(f"input {t} has no meta")
        for i, n in enumerate(self.nodes):
            for t in n.inputs:
                if t not in produced:
                    raise GraphError(f"node {n.name}: input {t} not yet produced (cycle or bad order)")
            if n.output in produced:
                raise GraphError(f"tensor {n.output} has more than one producer")
            for slot, pname in n.params.items():
                if pname not in self.params:
                    raise GraphError(f"node {n.name}: missing parameter {pname} for slot {slot}")
            if infer_shapes:
                want = _infer(n, [self.meta[t].shape for t in n.inputs], self.param_shapes(n))
                got = self.meta[n.output].shape
                if want != tuple(got):
                    raise GraphError(f"node {n.name}: declared output shape {got} != inferred {want}")
            produced.add(n.output)
        for t in self.outputs:
            if t not in produced:
                raise GraphError(f"graph output {t} is never produced")

    def param_shapes(self, n: Node) -> Dict[str, tuple]:
        return {slot: self.params[p].shape for slot, p in n.params.items()}

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def fingerprint(self) -> str:
        """Structure hash covering kinds, shapes, attrs (not parameter values)."""
        import hashlib

        doc = self.to_json(include_name=False)
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]

    def to_json(self, include_name: bool = True) -> dict:
        doc = {
            "inputs": [
                {"id": t, "shape": list(self.meta[t].shape), "precision": self.meta[t].precision}
                for t in self.inputs
            ],
            "outputs": list(self.outputs),
            "nodes": [
                {
                    "name": n.name,
                    "kind": n.kind,
                    "inputs": list(n.inputs),
                    "output": n.output,
                    "attrs": _jsonable_attrs(n.attrs),
                    "params": dict(n.params),
                }
                for n in self.nodes
            ],
            "meta": {
                t: {"shape": list(m.shape), "precision": m.precision} for t, m in self.meta.items()
            },
            "param_manifest": {k: list(v.shape) for k, v in self.params.items()},
        }
        if include_name:
            doc["name"] = self.name
        return doc


def _jsonable_attrs(attrs: dict) -> dict:
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in attrs.items()}


# ---------------------------------------------------------------------------
# op table: everything the graph knows about a node kind, in one entry
# ---------------------------------------------------------------------------

class UnknownNodeKind(GraphError):
    pass


@dataclass(frozen=True)
class OpSpec:
    """One node kind. `run` writes into `out` (None when unplanned) where its
    kernel can; the runner copies any other result there. A kind whose `run`
    adds an optional `b` param on its channel axis and applies ReLU when its
    `relu` attr is set sets `bias`, and fuse() folds `kind -> bias_add ->
    relu` into the node itself."""

    shape: Callable  # (input shapes, attrs, param shapes) -> output shape; ShapeError if inconsistent
    run: Callable  # (input arrays, param arrays, attrs, out, workspace) -> result
    macs: Callable = lambda out, ps: 0  # (output shape, param shapes) -> multiply-accumulates
    # (input shapes, output shape, attrs, param shapes) -> scratch floats, planned by plan_memory
    workspace: Callable = lambda xs, out, a, ps: 0
    bias: bool = False


def _conv_geometry(a: dict) -> tuple:
    """A conv3d node's (stride, pad, dilation)."""
    return a["stride"], a["pad"], a.get("dilation", (1, 1, 1))


def _crop_attrs(a: dict) -> dict:
    """The attrs that place a conv3d node's input in the crops of a clip."""
    return {k: a[k] for k in ("size", "crops", "trunk") if k in a}


def _conv3d(xs, p, a, out, ws):
    return conv3d_raw(xs[0], p["w"], p.get("b"), *_conv_geometry(a), relu=a.get("relu", False), out=out,
                      workspace=ws, boxed=a.get("boxed", False), **_crop_attrs(a))


def _conv3d_io(xs, a, ps) -> tuple:
    """(output shape, scratch floats, plan) of a conv3d node (tensor.conv3d_io)."""
    return conv3d_io(xs[0], ps["w"], ps.get("b"), *_conv_geometry(a), boxed=a.get("boxed", False), **_crop_attrs(a))


def _weight_macs(out, ps):
    """conv3d: each output element sums over all but the weight's first axis."""
    return int(np.prod(out)) * int(np.prod(ps["w"][1:]))


def _bias_shape(xs, a, ps):
    x, b = tuple(xs[0]), ps["b"]
    if a["axis"] != 1:
        raise ShapeError(f"bias_add adds along the channel axis 1, got axis {a['axis']}")
    if x[1] != b[0]:
        raise ShapeError(f"bias extent {b[0]} != input channel extent {x[1]}")
    return x


def _bias_add(xs, p, a, out, ws):
    x = xs[0]
    return np.add(x, p["b"].reshape((-1,) + (1,) * (x.ndim - 2)), out=out)


def _same(xs, a, ps):
    return tuple(xs[0])


def _add_shape(xs, a, ps):
    x, y = tuple(xs[0]), tuple(xs[1])
    if x != y:
        raise ShapeError(f"add shape mismatch {x} vs {y}")
    return x


def _add(xs, p, a, out, ws):
    x, y = xs
    if x.shape != y.shape:
        raise ShapeError(f"add shape mismatch {x.shape} vs {y.shape}")
    return np.add(x, y, out=out)


def _attention_macs(out, ps):
    """[N,C,*positions]: theta/phi/g and output projections, scores and weighted sum."""
    n, c, p = out[0], out[1], int(np.prod(out[2:]))
    ci = ps["wt"][1]
    return n * (3 * p * c * ci + p * ci * c + 2 * p * p * ci)


def _nonlocal(xs, p, a, out, ws):
    return nonlocal_raw(xs[0], p["wt"], p["wp"], p["wg"], p["wo"], out=out, workspace=ws)


def _concat_shape(xs, a, ps):
    axis = a["axis"]
    base = list(xs[0])
    total = 0
    for s in xs:
        s = list(s)
        if s[:axis] + s[axis + 1:] != base[:axis] + base[axis + 1:]:
            raise ShapeError(f"concat shape mismatch on non-concat axes: {xs}")
        total += s[axis]
    base[axis] = total
    return tuple(base)


OPS: Dict[str, OpSpec] = {
    # the kernel-backed kinds' shapes are their kernels' own rules (tensor.*_shape, conv3d_io); a
    # conv3d with a crop `size` (and optional "crops") attr reads those crops of its [C,L,H,W] clip
    # input, or with a "trunk" the flat boxes of an earlier "boxed" conv3d (tensor.conv3d_raw)
    "conv3d": OpSpec(lambda xs, a, ps: _conv3d_io(xs, a, ps)[0], _conv3d, _weight_macs,
                     lambda xs, out, a, ps: _conv3d_io(xs, a, ps)[1], bias=True),
    # an optional "crops" attr selects which of the ten crops the node yields, in order
    "ten_crop": OpSpec(lambda xs, a, ps: ten_crop_shape(xs[0], a["size"], a.get("crops")),
                       lambda xs, p, a, out, ws: ten_crop(xs[0], a["size"], a.get("crops"), out=out)),
    # along the channel axis: its "axis" attr must be 1
    "bias_add": OpSpec(_bias_shape, _bias_add),
    "relu": OpSpec(_same, lambda xs, p, a, out, ws: np.maximum(xs[0], 0.0, out=out)),
    "sigmoid": OpSpec(_same, lambda xs, p, a, out, ws: 1.0 / (1.0 + np.exp(-xs[0]))),
    "add": OpSpec(_add_shape, _add),
    "maxpool3d": OpSpec(lambda xs, a, ps: maxpool3d_shape(xs[0], a["kernel"], a["stride"]),
                        lambda xs, p, a, out, ws: maxpool3d_raw(xs[0], a["kernel"], a["stride"])),
    "gap3d": OpSpec(lambda xs, a, ps: tuple(xs[0][:2]),
                    lambda xs, p, a, out, ws: np.mean(xs[0], axis=(2, 3, 4), dtype=np.float32)),
    # attends in blocks of tensor.NL_ROWS query rows (tensor.nonlocal_workspace_elems)
    "nonlocal3d": OpSpec(_same, _nonlocal, _attention_macs,
                         lambda xs, out, a, ps: nonlocal_workspace_elems(out, ps["wt"][1])),
    "concat": OpSpec(_concat_shape, lambda xs, p, a, out, ws: np.concatenate(xs, axis=a["axis"], out=out)),
}

def op_spec(kind: str) -> OpSpec:
    try:
        return OPS[kind]
    except KeyError:
        raise UnknownNodeKind(f"unknown node kind {kind!r}") from None


def _infer(n: Node, xs: List[tuple], ps: Dict[str, tuple]) -> tuple:
    """`n`'s output shape from its input and parameter shapes by its kind's
    rule; the rule's ShapeError becomes a GraphError naming the node."""
    shape = op_spec(n.kind).shape
    try:
        return tuple(shape(xs, n.attrs, ps))
    except ShapeError as e:
        raise GraphError(f"node {n.name}: {e}") from e


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------

class GraphBuilder:
    """Constructs valid graphs node by node with shape inference."""

    def __init__(self, name: str = "graph"):
        self._name = name
        self._nodes: List[Node] = []
        self._inputs: List[str] = []
        self._outputs: List[str] = []
        self._meta: Dict[str, TensorMeta] = {}
        self._params: Dict[str, Tensor] = {}
        self._counter = 0

    def _tid(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}_{self._counter}"

    def input(self, shape, precision: str = F32, name: Optional[str] = None) -> str:
        t = name or self._tid("in")
        self._inputs.append(t)
        self._meta[t] = TensorMeta(tuple(shape), precision)
        return t

    def param(self, name: str, value) -> str:
        if name in self._params:
            raise GraphError(f"duplicate parameter name {name}")
        self._params[name] = value if isinstance(value, Tensor) else Tensor(np.asarray(value))
        return name

    def op(
        self,
        kind: str,
        inputs: Sequence[str],
        attrs: Optional[dict] = None,
        params: Optional[dict] = None,
        name: Optional[str] = None,
    ) -> str:
        out = self._tid(kind)
        n = Node(name=name or out, kind=kind, inputs=tuple(inputs), output=out, attrs=attrs or {},
                 params=params or {})
        shape = _infer(n, [self._meta[t].shape for t in inputs],
                       {slot: self._params[p].shape for slot, p in n.params.items()})
        prec = self._meta[inputs[0]].precision if inputs else F32
        self._meta[out] = TensorMeta(shape, prec)
        self._nodes.append(n)
        return out

    # convenience wrappers -------------------------------------------------
    def conv3d(self, x, w_name, stride=(1, 1, 1), pad=(0, 0, 0), dilation=(1, 1, 1), name=None):
        return self.op("conv3d", [x], {"stride": tuple(stride), "pad": tuple(pad), "dilation": tuple(dilation)}, {"w": w_name}, name)

    def ten_crop(self, x, size, name=None):
        return self.op("ten_crop", [x], {"size": int(size)}, name=name)

    def bias(self, x, b_name, axis, name=None):
        return self.op("bias_add", [x], {"axis": int(axis)}, {"b": b_name}, name)

    def relu(self, x, name=None):
        return self.op("relu", [x], name=name)

    def sigmoid(self, x, name=None):
        return self.op("sigmoid", [x], name=name)

    def add(self, a, b, name=None):
        return self.op("add", [a, b], name=name)

    def maxpool3d(self, x, kernel, stride, name=None):
        return self.op("maxpool3d", [x], {"kernel": tuple(kernel), "stride": tuple(stride)}, name=name)

    def gap3d(self, x, name=None):
        return self.op("gap3d", [x], name=name)

    def nonlocal3d(self, x, wt, wp, wg, wo, name=None):
        return self.op("nonlocal3d", [x], {}, {"wt": wt, "wp": wp, "wg": wg, "wo": wo}, name)

    def concat(self, xs, axis, name=None):
        return self.op("concat", list(xs), {"axis": int(axis)}, name=name)

    def output(self, tid: str) -> None:
        self._outputs.append(tid)

    def build(self) -> ComputeGraph:
        g = ComputeGraph(
            nodes=list(self._nodes),
            inputs=list(self._inputs),
            outputs=list(self._outputs),
            meta=dict(self._meta),
            params=dict(self._params),
            name=self._name,
        )
        g.validate(infer_shapes=False)
        return g


# ---------------------------------------------------------------------------
# pass 1: operator fusion
# ---------------------------------------------------------------------------

def _sole_consumers(nodes: List[Node], outputs: Sequence[str]) -> Dict[str, int]:
    """Tensor id -> index of the one node reading it, for the tensors that
    exactly one node reads and that are not graph outputs."""
    readers: Dict[str, List[int]] = {}
    for i, n in enumerate(nodes):
        for t in n.inputs:
            readers.setdefault(t, []).append(i)
    return {t: c[0] for t, c in readers.items() if len(c) == 1 and t not in outputs}


def fuse(graph: ComputeGraph) -> ComputeGraph:
    """Collapse `kind -> bias_add -> relu` chains, where `kind` takes a bias
    in the op table (conv3d does), the node has no bias yet and the
    intermediates have a single consumer, into the first node with the bias
    as its `b` param and a `"relu": True` attr. Then fold each `ten_crop`
    whose sole consumer is a conv3d into that conv3d, which gets the crop's
    `size` (and `crops`) attrs and reads the crops in place; and carry the
    crops' boxes down the trunk of convs below it: while a crop-reading
    conv3d's sole consumer is a conv3d, the first gets a `"boxed": True` attr
    and the second its crop attrs and a `trunk` (tensor.conv3d_raw), so the
    crops are cut once, by the last conv of the trunk. No node changes kind,
    and fusing a fused graph again changes nothing. Semantics preserved
    bitwise in F32."""
    sole = _sole_consumers(graph.nodes, graph.outputs)

    def sole_consumer(t: str, kind: str) -> Optional[int]:
        c = sole.get(t)
        return c if c is not None and graph.nodes[c].kind == kind else None

    skip = set()
    new_nodes: List[Node] = []
    dead_tensors = set()
    for i, n in enumerate(graph.nodes):
        if i in skip:
            continue
        j = sole_consumer(n.output, "bias_add") if op_spec(n.kind).bias and "b" not in n.params else None
        if j is not None:
            nb = graph.nodes[j]
            k = sole_consumer(nb.output, "relu")
            if k is not None:
                skip.update((j, k))
                dead_tensors.update((n.output, nb.output))
                n = replace(n, name=f"{n.name}+bias+relu", output=graph.nodes[k].output,
                            attrs={**n.attrs, "relu": True}, params={**n.params, "b": nb.params["b"]})
        new_nodes.append(n)
    sole = _sole_consumers(new_nodes, graph.outputs)
    crops: Dict[str, Node] = {}  # crop tensor -> its ten_crop node, folded into the reader
    folded: List[Node] = []
    for n in new_nodes:
        reader = new_nodes[sole[n.output]] if n.output in sole else None
        if n.kind == "ten_crop" and reader is not None and reader.kind == "conv3d":
            crops[n.output] = n
            dead_tensors.add(n.output)
            continue
        if n.inputs and n.inputs[0] in crops:
            c = crops.pop(n.inputs[0])
            n = replace(n, name=f"{n.name}+{c.name}", inputs=c.inputs, attrs={**n.attrs, **c.attrs})
        folded.append(n)
    sole = _sole_consumers(folded, graph.outputs)
    for i, n in enumerate(folded):
        j = sole.get(n.output)
        if n.kind == "conv3d" and "size" in n.attrs and j is not None and folded[j].kind == "conv3d":
            conv = (graph.params[n.params["w"]].shape, *_conv_geometry(n.attrs))
            trunk = n.attrs.get("trunk", (graph.meta[n.inputs[0]].shape,)) + (conv,)
            folded[i] = replace(n, attrs={**n.attrs, "boxed": True})
            folded[j] = replace(folded[j], attrs={**folded[j].attrs, **_crop_attrs(n.attrs), "trunk": trunk})
    return _reshaped(graph, folded, dict(graph.params), dead_tensors)


def _reshaped(graph: ComputeGraph, nodes: List[Node], params: Dict[str, Tensor], dead=()) -> ComputeGraph:
    """`graph` with `nodes` and `params` in place of its own, without the
    tensors `dead`, and with every node's output shape inferred again."""
    meta = {t: m for t, m in graph.meta.items() if t not in dead}
    for n in nodes:
        meta[n.output] = replace(meta[n.output], shape=_infer(n, [meta[t].shape for t in n.inputs],
                                                              graph.param_shapes(n)))
    g = ComputeGraph(nodes, list(graph.inputs), list(graph.outputs), meta, params, graph.name)
    g.validate(infer_shapes=False)  # the loop above has just inferred them
    return g


def select_crops(graph: ComputeGraph, crops: Sequence[int]) -> ComputeGraph:
    """`graph` with its ten-crop nodes (those with a crop `size` attr:
    `ten_crop`, and each conv3d of a trunk that fuse() gave a ten_crop)
    yielding only `crops`, indices into the ten crops, in that order, and
    every shape inferred again. The parameters are shared, not copied. The
    rows of the result are the matching rows of `graph`'s, bit for bit: every
    kernel but the trunk's convs runs one batch item at a time, and those
    give each crop the bits of its own conv in whichever box or strip
    (tensor.GEMM_COLS)."""
    crops = tuple(crops)
    return _reshaped(graph, [replace(n, attrs={**n.attrs, "crops": crops}) if "size" in n.attrs else n
                             for n in graph.nodes], graph.params)


# ---------------------------------------------------------------------------
# pass 2: precision lowering
# ---------------------------------------------------------------------------

def lower_precision(graph: ComputeGraph) -> ComputeGraph:
    """Tag every activation and parameter as emulated binary16 (F16).

    Parameters are rounded through binary16 immediately; activations are rounded
    by the executor after each node. Accumulation inside kernels stays float32.
    """
    meta = {t: TensorMeta(m.shape, F16) for t, m in graph.meta.items()}
    params = {k: Tensor(v.data, F16) for k, v in graph.params.items()}
    g = ComputeGraph(list(graph.nodes), list(graph.inputs), list(graph.outputs), meta, params, graph.name)
    g.validate()
    return g


# ---------------------------------------------------------------------------
# pass 3: static memory planning
# ---------------------------------------------------------------------------

def scratch_id(n: Node) -> str:
    """The plan's entry for `n`'s kernel scratch."""
    return f"{n.output}:scratch"


@dataclass
class MemoryPlan:
    """Static placement of node outputs and kernel scratch in one float32 arena.

    Each node output, and each node's scratch (`scratch_id`, live only at its
    node's step), is one entry with a lifetime and an element offset; every
    float is FLOAT_BYTES. peak_bytes is the max over execution steps of live
    bytes (graph inputs included, parameters excluded).
    """

    offsets: Dict[str, int]                  # planned entry -> element offset in the arena
    peak_bytes: int
    naive_bytes: int
    arena_bytes: int
    lifetime: Dict[str, Tuple[int, int]]     # entry -> (birth step, death step)
    elems: Dict[str, int]

    def render_table(self) -> str:
        lines = [f"{'tensor':<24} {'elems':>10} {'bytes':>12} {'life':>9} {'offset':>10}"]
        for t in sorted(self.lifetime, key=lambda t: self.lifetime[t]):
            lo, hi = self.lifetime[t]
            lines.append(f"{t:<24} {self.elems[t]:>10} {self.elems[t] * FLOAT_BYTES:>12} "
                         f"{f'{lo}..{hi}':>9} {self.offsets.get(t, 'input'):>10}")
        lines.append(
            f"peak {self.peak_bytes} B | naive {self.naive_bytes} B | arena {self.arena_bytes} B"
        )
        return "\n".join(lines)


def plan_memory(graph: ComputeGraph) -> MemoryPlan:
    """Lifetime analysis plus greedy best-fit placement of node outputs and
    the scratch each node's op entry declares."""
    for t, m in graph.meta.items():
        if any(int(e) <= 0 for e in m.shape):
            raise GraphError(f"dynamic or empty extent on tensor {t}: {m.shape}")
    last_step = max(0, len(graph.nodes) - 1)
    birth: Dict[str, int] = {t: 0 for t in graph.inputs}
    death: Dict[str, int] = {t: 0 for t in graph.inputs}
    elems = {t: graph.meta[t].elems for t in graph.inputs}
    for i, n in enumerate(graph.nodes):
        for t in n.inputs:
            death[t] = max(death[t], i)
        scratch = op_spec(n.kind).workspace([graph.meta[t].shape for t in n.inputs], graph.meta[n.output].shape,
                                            n.attrs, graph.param_shapes(n))
        for t, size in ((n.output, graph.meta[n.output].elems), (scratch_id(n), scratch)):
            if size:
                birth[t], death[t], elems[t] = i, i, size
    for t in graph.outputs:
        death[t] = last_step

    live_per_step = [0] * (last_step + 1)
    for t in birth:
        for s in range(birth[t], death[t] + 1):
            live_per_step[s] += elems[t] * FLOAT_BYTES

    planned = sorted((t for t in birth if t not in graph.inputs), key=lambda t: (birth[t], -elems[t], t))
    placed: List[Tuple[int, int, str]] = []  # (offset, end, entry)
    offsets: Dict[str, int] = {}
    for t in planned:
        conflicts = sorted(
            (off, end)
            for off, end, other in placed
            if birth[t] <= death[other] and death[t] >= birth[other]
        )
        size = elems[t]
        best = None  # (gap_size, offset)
        cursor = 0
        for off, end in conflicts:
            if off - cursor >= size and (best is None or off - cursor < best[0]):
                best = (off - cursor, cursor)
            cursor = max(cursor, end)
        offsets[t] = best[1] if best is not None else cursor
        placed.append((offsets[t], offsets[t] + size, t))

    return MemoryPlan(
        offsets=offsets,
        peak_bytes=max(live_per_step),
        naive_bytes=sum(elems.values()) * FLOAT_BYTES,
        arena_bytes=max((end for _, end, _ in placed), default=0) * FLOAT_BYTES,
        lifetime={t: (birth[t], death[t]) for t in birth},
        elems=elems,
    )


# ---------------------------------------------------------------------------
# executor
# ---------------------------------------------------------------------------

class GraphRunner:
    """Reusable executor: with a plan, its arena is allocated once as `pool`
    and reused across calls (ahead-of-time static memory). Each node writes
    into its output slot where its kernel can (a boxed conv its flat boxes
    and strips), and conv and non-local nodes keep their scratch in theirs;
    scratch is one zero-padded input window (the planes and rows one slab
    reads), one column slab (at most tensor.COL_SLAB_BYTES) and one slab of
    GEMM output per conv, sized for the largest box or strip a conv of the
    crops' trunk runs, and per non-local block its projections and one block
    of logits rows (tensor.nonlocal_workspace_elems).
    Without a plan, nodes allocate fresh. One runner serves one execution context; calls are not
    thread-safe. So `run_pipeline` gives each crop half (`select_crops`) its
    own runner, and with it its own arena, on its own thread."""

    def __init__(self, graph: ComputeGraph, plan: Optional[MemoryPlan] = None):
        self.graph = graph
        self.pool: Optional[np.ndarray] = None
        # each node's output slot and scratch in the arena, cut once: the plan and pool never change
        self._dst: List[Optional[np.ndarray]] = [None] * len(graph.nodes)
        self._scratch: List[Optional[np.ndarray]] = [None] * len(graph.nodes)
        if plan is not None:
            self.pool = np.empty(plan.arena_bytes // FLOAT_BYTES, dtype=np.float32)

            def slot(t):
                return self.pool[plan.offsets[t]:plan.offsets[t] + plan.elems[t]]

            for i, n in enumerate(graph.nodes):
                self._dst[i] = slot(n.output).reshape(graph.meta[n.output].shape)
                if scratch_id(n) in plan.offsets:
                    self._scratch[i] = slot(scratch_id(n))
        self._last_use: Dict[str, int] = {}
        for i, n in enumerate(graph.nodes):
            for t in n.inputs:
                self._last_use[t] = i

    @property
    def static_bytes(self) -> int:
        return self.pool.nbytes if self.pool is not None else 0

    def run(self, inputs: Union[Sequence[Tensor], Tensor]) -> List[Tensor]:
        """The graph's outputs on its inputs, given in `graph.inputs` order."""
        graph, pool = self.graph, self.pool
        if isinstance(inputs, Tensor):
            inputs = [inputs]
        if len(inputs) != len(graph.inputs):
            raise GraphError(f"expected {len(graph.inputs)} inputs, got {len(inputs)}")
        env: Dict[str, np.ndarray] = {}
        for t, v in zip(graph.inputs, inputs):
            m = graph.meta[t]
            if tuple(v.shape) != m.shape:
                raise GraphError(f"input {t}: shape {tuple(v.shape)} != declared {m.shape}")
            env[t] = Tensor(v.data, m.precision).data

        out_set = set(graph.outputs)
        for i, (n, dst, ws) in enumerate(zip(graph.nodes, self._dst, self._scratch)):
            p = {slot: graph.params[name].data for slot, name in n.params.items()}
            try:
                res = op_spec(n.kind).run([env[t] for t in n.inputs], p, n.attrs, dst, ws)
            except (ShapeError, GraphError) as e:
                raise GraphError(f"node {n.name}: {e}") from e
            if graph.meta[n.output].precision == F16:
                res = round_f16(res)
            if dst is not None and res is not dst:
                dst[...] = res
                res = dst
            env[n.output] = res
            if pool is None:
                for t in n.inputs:
                    if self._last_use.get(t) == i and t not in out_set and t not in graph.inputs:
                        env.pop(t, None)

        outs = []
        for t in graph.outputs:
            arr = env[t]
            if pool is not None and arr.base is pool:
                arr = arr.copy()
            outs.append(Tensor(arr, graph.meta[t].precision))
        return outs


def execute(
    graph: ComputeGraph,
    inputs: Union[Sequence[Tensor], Tensor],
    plan: Optional[MemoryPlan] = None,
) -> List[Tensor]:
    """One-shot evaluation in topological order; results are independent of plan.

    With a plan, node outputs live in views of one pooled arena; without one,
    each node allocates fresh and dead intermediates are dropped eagerly. Use
    GraphRunner directly to amortize buffer setup across repeated calls.
    """
    return GraphRunner(graph, plan).run(inputs)


def optimize(
    graph: ComputeGraph,
    do_fuse: bool = True,
    do_fp16: bool = False,
    do_memplan: bool = True,
) -> Tuple[ComputeGraph, Optional[MemoryPlan]]:
    """Fixed pass pipeline: fuse -> lower_precision -> plan_memory."""
    g = graph
    if do_fuse:
        g = fuse(g)
    if do_fp16:
        g = lower_precision(g)
    plan = plan_memory(g) if do_memplan else None
    return g, plan
