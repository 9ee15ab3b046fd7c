"""Graph IR, pass safety, memory planning, and executor tests."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from edgevad import graphopt as go
from edgevad import rtfm
from edgevad import tensor as tc
from edgevad.bench import count_params_flops
from edgevad.extractor import build_extractor, desk_scale_config
from edgevad.graphopt import ComputeGraph, GraphBuilder, GraphError, Node, TensorMeta
from edgevad.tensor import F16, ShapeError, Tensor
from edgevad.videopre import ten_crop

from helpers import check_plan_no_overlap, random_graph


def tiny_conv_chain(seed=0, with_output_tap=False):
    """input -> conv3d -> bias -> relu -> conv3d 1x1x1 -> bias -> relu -> gap."""
    rng = np.random.default_rng(seed)
    b = GraphBuilder("tiny")
    x = b.input((1, 2, 3, 5, 5), name="x")
    w = b.param("w", Tensor(rng.normal(size=(3, 2, 1, 3, 3)).astype(np.float32)))
    bb = b.param("b", Tensor(rng.normal(size=(3,)).astype(np.float32)))
    t = b.conv3d(x, w, pad=(0, 1, 1))
    t_bias = b.bias(t, bb, axis=1)
    mid = b.relu(t_bias)
    fw = b.param("fw", Tensor(rng.normal(size=(2, 3, 1, 1, 1)).astype(np.float32)))
    fb = b.param("fb", Tensor(rng.normal(size=(2,)).astype(np.float32)))
    t = b.conv3d(mid, fw)
    t = b.bias(t, fb, axis=1)
    t = b.relu(t)
    b.output(b.gap3d(t))
    if with_output_tap:
        b.output(t_bias)  # tap an intermediate of the conv triple
    g = b.build()
    return g, [Tensor(rng.normal(size=(1, 2, 3, 5, 5)).astype(np.float32))]


class TestGraphValidation:
    def test_double_producer_rejected(self):
        meta = {"x": TensorMeta((2,)), "y": TensorMeta((2,))}
        nodes = [
            Node("a", "relu", ("x",), "y"),
            Node("b", "relu", ("x",), "y"),
        ]
        g = ComputeGraph(nodes, ["x"], ["y"], meta, {})
        with pytest.raises(GraphError, match="more than one producer"):
            g.validate()

    def test_use_before_produce_rejected(self):
        meta = {"x": TensorMeta((2,)), "y": TensorMeta((2,)), "z": TensorMeta((2,))}
        nodes = [
            Node("a", "relu", ("z",), "y"),
            Node("b", "relu", ("x",), "z"),
        ]
        g = ComputeGraph(nodes, ["x"], ["y"], meta, {})
        with pytest.raises(GraphError, match="not yet produced"):
            g.validate()

    def test_shape_inconsistency_rejected(self):
        meta = {"x": TensorMeta((2, 3)), "y": TensorMeta((9, 9))}
        g = ComputeGraph([Node("a", "relu", ("x",), "y")], ["x"], ["y"], meta, {})
        with pytest.raises(GraphError, match="shape"):
            g.validate()

    def test_builder_infers_each_shape_once(self, monkeypatch):
        calls = []
        spec = go.OPS["relu"]
        counted = dataclasses.replace(spec, shape=lambda *a: calls.append(1) or spec.shape(*a))
        monkeypatch.setitem(go.OPS, "relu", counted)
        b = GraphBuilder()
        b.output(b.relu(b.relu(b.input((2, 3)))))
        b.build()
        assert len(calls) == 2  # op() infers; build() keeps the other checks only

    def test_builder_checks_outputs_produced(self):
        b = GraphBuilder()
        b.relu(b.input((2, 3)))
        b.output("nowhere")
        with pytest.raises(GraphError, match="never produced"):
            b.build()


# Operand extents and attrs for the shape-rule parity test: mostly valid,
# with the invalid values each rule must reject mixed in.
EXTENT = st.sampled_from([1, 2, 3, 4, 6, 8])
STRIDE = st.sampled_from([1, 1, 1, 1, 1, 2, 2, 3, 0])
PAD = st.sampled_from([0, 0, 0, 1, 1, 1, 2, 2, -1])
DILATION = st.sampled_from([1, 1, 1, 1, 1, 1, 2, 2, 0])
OFF = st.sampled_from([0, 0, 0, 0, 0, 0, 0, 0, 1, -1])  # a channel or bias length off by this much
# a ten-crop node's optional crops attr: mostly absent or valid, sometimes empty,
# repeating an index or with one outside [0, 10)
CROPS = st.one_of(st.none(), st.none(), st.lists(st.integers(0, 9), min_size=1, max_size=10, unique=True),
                  st.lists(st.integers(-1, 10), max_size=4).map(tuple))


def three(s):
    return st.tuples(s, s, s)


@st.composite
def conv3d_case(draw):
    """conv3d, with or without a bias and a `relu` attr, on crops, or reading
    the ten crops of a clip in place (a `size` attr)."""
    fused, cropped = draw(st.booleans()), draw(st.booleans())
    c, o = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    w = (o, max(1, c + draw(OFF))) + draw(three(st.integers(1, 3)))
    attrs = {"stride": draw(three(STRIDE)), "pad": draw(three(PAD)), "dilation": draw(three(DILATION))}
    params = {"w": w, "b": (max(0, o + draw(OFF)),)} if fused else {"w": w}
    relu = {"relu": True} if fused else {}
    attrs.update(relu)
    if cropped:
        attrs["size"] = size = draw(st.integers(1, 6))
        crops = draw(CROPS)
        if crops is not None:
            attrs["crops"] = crops
        x = (c, draw(EXTENT), size + draw(st.integers(-1, 3)), size + draw(st.integers(-1, 3)))
        return "conv3d", [x], params, attrs, lambda xs, ps: tc.conv3d_raw(
            xs[0], ps["w"], ps.get("b"), attrs["stride"], attrs["pad"], attrs["dilation"], size=attrs["size"],
            crops=crops, **relu)
    x = (draw(st.integers(1, 2)), c) + draw(three(EXTENT))
    return "conv3d", [x], params, attrs, lambda xs, ps: tc.conv3d_raw(
        xs[0], ps["w"], ps.get("b"), attrs["stride"], attrs["pad"], attrs["dilation"], **relu)


@st.composite
def ten_crop_case(draw):
    attrs = {"size": draw(st.integers(1, 6))}
    crops = draw(CROPS)
    if crops is not None:
        attrs["crops"] = crops
    clip = (3, 2, attrs["size"] + draw(st.integers(-1, 3)), attrs["size"] + draw(st.integers(-1, 3)))
    if draw(st.integers(0, 4)) == 0:
        clip = (1,) + clip  # a batched clip: not 4-D
    return "ten_crop", [clip], {}, attrs, lambda xs, ps: ten_crop(xs[0], attrs["size"], crops)


@st.composite
def maxpool3d_case(draw):
    x = (draw(st.integers(1, 2)), draw(st.integers(1, 3))) + draw(three(EXTENT))
    attrs = {"kernel": draw(three(st.sampled_from([1, 1, 2, 2, 3, 0]))), "stride": draw(three(STRIDE))}
    return "maxpool3d", [x], {}, attrs, lambda xs, ps: tc.maxpool3d_raw(xs[0], attrs["kernel"], attrs["stride"])


class TestShapeRules:
    """Each kernel-backed kind has one shape rule, which its kernel and its
    op-table entry both call: the graph rejects at build time exactly what
    the kernel rejects at run time, and otherwise infers the kernel's shape."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None,
              phases=(Phase.generate, Phase.shrink))
    @given(case=st.one_of(conv3d_case(), conv3d_case(), ten_crop_case(), maxpool3d_case()))
    def test_builder_rejects_exactly_what_the_kernel_rejects(self, case):
        kind, inputs, params, attrs, kernel = case
        try:
            want = kernel([np.zeros(s, np.float32) for s in inputs],
                          {slot: np.zeros(s, np.float32) for slot, s in params.items()}).shape
        except ShapeError as e:
            want = e
        b = GraphBuilder()
        xs = [b.input(s) for s in inputs]
        for slot, s in params.items():
            b.param(slot, Tensor(np.zeros(s, np.float32)))
        try:
            out = b.op(kind, xs, attrs, {slot: slot for slot in params}, name="probe")
        except GraphError as e:
            assert isinstance(want, ShapeError), f"the graph rejects what the kernel runs: {e}"
            assert str(e) == f"node probe: {want}"
            return
        assert not isinstance(want, ShapeError), f"the graph accepts what the kernel rejects: {want}"
        b.output(out)
        assert b.build().meta[out].shape == want

    @pytest.mark.parametrize("attr, value, phrase", [
        ("stride", [0, 1, 1], "stride must be 3 values >= 1"),
        ("pad", [0, -1, 1], "pad must be 3 values >= 0"),
        ("dilation", [1, 1, 0], "dilation must be 3 values >= 1"),
    ])
    def test_validate_rejects_what_the_kernel_rejects(self, attr, value, phrase):
        g, _ = tiny_conv_chain(12)
        i = [n.kind for n in g.nodes].index("conv3d")
        conv = g.nodes[i]
        g.nodes[i] = dataclasses.replace(conv, attrs={**conv.attrs, attr: tuple(value)})
        with pytest.raises(GraphError, match=f"node {conv.name}: conv3d {phrase}"):
            g.validate()

    @pytest.mark.parametrize("axis", [0, 2, -4, -1])
    def test_bias_add_takes_the_channel_axis_only(self, axis):
        g, _ = tiny_conv_chain(13)
        b = GraphBuilder()
        with pytest.raises(GraphError, match=f"^node bias: bias_add adds along the channel axis 1, got axis {axis}$"):
            b.bias(b.input((1, 3, 2, 4, 4)), b.param("b", Tensor(np.zeros(3, np.float32))), axis=axis, name="bias")
        i = [n.kind for n in g.nodes].index("bias_add")
        g.nodes[i] = dataclasses.replace(g.nodes[i], attrs={"axis": axis})
        with pytest.raises(GraphError, match=f"node {g.nodes[i].name}: bias_add adds along the channel axis 1"):
            g.validate()


def fused_relu(g, kind):
    """How many `kind` nodes of `g` carry a bias and a `relu` attr."""
    return sum(n.kind == kind and n.attrs.get("relu", False) and "b" in n.params for n in g.nodes)


def double_bias_chain(seed=0):
    """input -> conv3d -> bias -> relu -> bias -> relu."""
    rng = np.random.default_rng(seed)
    b = GraphBuilder("double")
    x = b.input((1, 2, 2, 4, 4), name="x")
    w = b.param("w", Tensor(rng.normal(size=(3, 2, 1, 3, 3)).astype(np.float32)))
    t = b.conv3d(x, w, pad=(0, 1, 1))
    for name in ("b1", "b2"):
        t = b.relu(b.bias(t, b.param(name, Tensor(rng.normal(size=(3,)).astype(np.float32))), axis=1))
    b.output(t)
    return b.build(), [Tensor(rng.normal(size=(1, 2, 2, 4, 4)).astype(np.float32))]


def node_list(g):
    return [(n.kind, n.attrs, n.params) for n in g.nodes]


class TestFusion:
    def test_triple_fuses_to_one_node(self):
        g, xs = tiny_conv_chain(1)
        fused = go.fuse(g)
        assert fused_relu(fused, "conv3d") == 2
        assert {n.kind for n in fused.nodes} <= {n.kind for n in g.nodes}  # fusion mints no kind
        assert len(fused.nodes) == len(g.nodes) - 4
        np.testing.assert_array_equal(go.execute(fused, xs)[0].data, go.execute(g, xs)[0].data)

    def test_branching_intermediate_not_fused(self):
        rng = np.random.default_rng(2)
        b = GraphBuilder()
        x = b.input((1, 2, 2, 3, 3))
        w = b.param("w", Tensor(rng.normal(size=(2, 2, 1, 1, 1)).astype(np.float32)))
        bb = b.param("b", Tensor(rng.normal(size=(2,)).astype(np.float32)))
        t = b.conv3d(x, w)
        t2 = b.bias(t, bb, axis=1)  # t2 consumed twice below
        r = b.relu(t2)
        s = b.add(t2, r)
        b.output(s)
        g = b.build()
        fused = go.fuse(g)
        assert node_list(fused) == node_list(g)

    def test_graph_output_tap_blocks_fusion(self):
        g, xs = tiny_conv_chain(4, with_output_tap=True)
        fused = go.fuse(g)
        # the first conv's bias output doubles as a graph output: that triple must survive
        assert fused_relu(fused, "conv3d") == 1 and "relu" not in fused.nodes[0].attrs

    def test_node_with_a_bias_absorbs_no_second_one(self):
        rng = np.random.default_rng(3)
        b = GraphBuilder()
        x = b.input((1, 2, 2, 4, 4))
        w = b.param("w", Tensor(rng.normal(size=(3, 2, 1, 3, 3)).astype(np.float32)))
        b0, b1 = (b.param(name, Tensor(rng.normal(size=(3,)).astype(np.float32))) for name in ("b0", "b1"))
        t = b.op("conv3d", [x], {"stride": (1, 1, 1), "pad": (0, 1, 1)}, {"w": w, "b": b0})
        b.output(b.relu(b.bias(t, b1, axis=1)))
        g = b.build()
        fused = go.fuse(g)
        assert node_list(fused) == node_list(g)
        xs = [Tensor(rng.normal(size=(1, 2, 2, 4, 4)).astype(np.float32))]
        np.testing.assert_array_equal(go.execute(fused, xs)[0].data, go.execute(g, xs)[0].data)

    @pytest.mark.parametrize("graph", ["desk_clip_extractor", "head", "tiny", "double_bias", "crop_conv"])
    def test_fuse_is_idempotent(self, graph):
        if graph == "desk_clip_extractor":
            g = build_extractor(desk_scale_config(), seed=0, clip_hw=(256, 256))
        elif graph == "head":
            g = rtfm.head_graph(rtfm.RtfmModel(seed=0), 32)
        else:
            g = {"tiny": tiny_conv_chain, "double_bias": double_bias_chain, "crop_conv": crop_conv_graph}[graph]()[0]
        once = go.fuse(g)
        assert len(once.nodes) < len(g.nodes)
        assert node_list(go.fuse(once)) == node_list(once)

    def test_fusion_never_increases_nodes_and_keeps_shapes(self):
        for seed in range(20):
            g, xs = random_graph(seed)
            fused = go.fuse(g)
            assert len(fused.nodes) <= len(g.nodes)
            assert fused.outputs == g.outputs
            assert [fused.meta[t].shape for t in fused.outputs] == [
                g.meta[t].shape for t in g.outputs
            ]

    @pytest.mark.parametrize("seed", range(30))
    def test_fused_outputs_bitwise_equal(self, seed):
        g, xs = random_graph(seed)
        fused = go.fuse(g)
        a = go.execute(g, xs)
        b = go.execute(fused, xs)
        for t1, t2 in zip(a, b):
            np.testing.assert_array_equal(t1.data, t2.data)


def crop_conv_graph(seed=0, hw=(20, 27), bias_relu=True, extra_reader=False, gap=True):
    """clip [3,4,H,W] -> ten_crop(16) -> conv3d (-> bias -> relu) (-> gap)."""
    rng = np.random.default_rng(seed)
    b = GraphBuilder("crops")
    x = b.input((3, 4) + hw, name="clip")
    crops = b.ten_crop(x, 16)
    w = b.param("w", Tensor(rng.normal(size=(5, 3, 3, 3, 3)).astype(np.float32)))
    t = b.conv3d(crops, w, stride=(1, 2, 2), pad=(1, 1, 1))
    if bias_relu:
        t = b.relu(b.bias(t, b.param("b", Tensor(rng.normal(size=(5,)).astype(np.float32))), axis=1))
    b.output(b.gap3d(t) if gap else t)
    if extra_reader:
        b.output(b.gap3d(crops))
    g = b.build()
    return g, [Tensor(rng.normal(size=(3, 4) + hw).astype(np.float32))]


def crop_trunk_graph(seed=0, hw=(32, 32), crops_input=False):
    """clip [3,4,H,W] -> ten_crop(24) -> three conv3d -> bias -> relu, then a
    maxpool3d and a 1x1x1 conv3d -> bias -> relu that the trunk does not
    reach, -> gap; with `crops_input`, the same convs on the ten crops."""
    rng = np.random.default_rng(seed)
    b = GraphBuilder("trunk")
    t = b.input((10, 3, 4, 24, 24), name="crops") if crops_input else b.ten_crop(b.input((3, 4) + hw, name="clip"), 24)
    for i, (c, o, k, stride, pad) in enumerate([(3, 4, (3, 5, 5), (1, 2, 2), (1, 2, 2)), (4, 4, (3, 3, 3), (1, 1, 1),
                                                 (1, 1, 1)), (4, 5, (1, 3, 3), (2, 2, 2), (0, 1, 1)),
                                                (5, 6, (1, 1, 1), (1, 1, 1), (0, 0, 0))]):
        if i == 3:
            t = b.maxpool3d(t, (1, 2, 2), (1, 2, 2))
        w = b.param(f"w{i}", Tensor(rng.normal(scale=0.3, size=(o, c) + k).astype(np.float32)))
        t = b.conv3d(t, w, stride=stride, pad=pad)
        t = b.relu(b.bias(t, b.param(f"b{i}", Tensor(rng.normal(size=(o,)).astype(np.float32))), axis=1))
    b.output(b.gap3d(t))
    return b.build(), [Tensor(rng.normal(size=(3, 4) + hw).astype(np.float32))]


class TestTenCropNode:
    def test_shape_and_zero_macs(self):
        g, _ = crop_conv_graph()
        (n,) = [n for n in g.nodes if n.kind == "ten_crop"]
        assert g.meta[n.output].shape == (10, 3, 4, 16, 16)
        assert go.OPS["ten_crop"].macs(g.meta[n.output].shape, {}) == 0
        conv = [n for n in g.nodes if n.kind == "conv3d"][0]
        assert count_params_flops(g)[1] == 2 * go.OPS["conv3d"].macs(g.meta[conv.output].shape, g.param_shapes(conv))

    @pytest.mark.parametrize("hw", [(15, 20), (20, 15)])
    def test_clip_smaller_than_crop_rejected(self, hw):
        b = GraphBuilder()
        x = b.input((3, 2) + hw)
        with pytest.raises(GraphError, match="smaller than crop"):
            b.ten_crop(x, 16)

    def test_node_equals_videopre_ten_crop(self):
        b = GraphBuilder()
        b.output(b.ten_crop(b.input((3, 2, 18, 23)), 16))
        g = b.build()
        x = np.random.default_rng(1).normal(size=(3, 2, 18, 23)).astype(np.float32)
        for plan in (None, go.plan_memory(g)):
            np.testing.assert_array_equal(go.execute(g, Tensor(x), plan)[0].data, ten_crop(x, 16))

    @pytest.mark.parametrize("bias_relu", [True, False])
    @pytest.mark.parametrize("hw", [(16, 16), (20, 27), (25, 18)])
    def test_fuse_reads_crops_in_place_bitwise(self, bias_relu, hw):
        g, xs = crop_conv_graph(hw=hw, bias_relu=bias_relu)
        fused = go.fuse(g)
        assert [n.kind for n in fused.nodes] == ["conv3d", "gap3d"]
        want = {**g.nodes[1].attrs, "size": 16, **({"relu": True} if bias_relu else {})}
        assert fused.nodes[0].attrs == want
        assert fused.nodes[0].inputs == tuple(g.inputs)
        ref = go.execute(g, xs)[0].data
        for plan in (None, go.plan_memory(fused)):
            np.testing.assert_array_equal(go.execute(fused, xs, plan)[0].data, ref)
        # no tensor of the fused graph holds the crops
        assert (10, 3, 4, 16, 16) not in [m.shape for m in fused.meta.values()]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(crops=st.lists(st.integers(0, 9), min_size=1, max_size=10, unique=True),
           hw=st.sampled_from([(16, 16), (20, 27), (25, 18)]), graph=st.sampled_from(["crops", "conv", "conv+gap"]),
           bias_relu=st.booleans(), fused=st.booleans(), lower=st.booleans(), planned=st.booleans())
    def test_selected_crops_are_rows_of_all_ten(self, crops, hw, graph, bias_relu, fused, lower, planned):
        # a crops-subset ten_crop node, or the conv it feeds (fused: one
        # conv3d node with a crop size), gives the matching rows of the ten-crop run
        if graph == "crops":
            b = GraphBuilder()
            x = b.input((3, 4) + hw, name="clip")
            b.output(b.ten_crop(x, 16))
            g = b.build()
            xs = [Tensor(np.random.default_rng(1).normal(size=(3, 4) + hw).astype(np.float32))]
        else:
            g, xs = crop_conv_graph(hw=hw, bias_relu=bias_relu, gap=graph == "conv+gap")
        g = go.fuse(g) if fused else g
        g = go.lower_precision(g) if lower else g
        sub = go.select_crops(g, crops)
        assert sub.params is g.params
        whole = go.execute(g, xs, go.plan_memory(g) if planned else None)[0].data
        got = go.execute(sub, xs, go.plan_memory(sub) if planned else None)[0].data
        np.testing.assert_array_equal(got, whole[list(crops)])

    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("crops", [(), (1, 1), (0, 10), (-1, 2)])
    def test_bad_crops_named_by_node(self, fused, crops):
        g, _ = crop_conv_graph()
        g = go.fuse(g) if fused else g
        (n,) = [n for n in g.nodes if "size" in n.attrs]
        with pytest.raises(GraphError, match=f"^node {re.escape(n.name)}: crops must be distinct indices"):
            go.select_crops(g, crops)

    @pytest.mark.parametrize("lower", [False, True])
    @pytest.mark.parametrize("hw", [(32, 32), (36, 47)])
    def test_fuse_carries_the_boxes_down_a_trunk_of_convs(self, hw, lower):
        g, xs = crop_trunk_graph(hw=hw)
        fused = go.fuse(g)
        trunk = [n for n in fused.nodes if n.kind == "conv3d"]
        assert [n.kind for n in fused.nodes] == ["conv3d"] * 3 + ["maxpool3d", "conv3d", "gap3d"]
        assert [n.attrs.get("size") for n in trunk] == [24, 24, 24, None]
        assert [n.attrs.get("boxed", False) for n in trunk] == [True, True, False, False]
        assert trunk[2].attrs["trunk"] == ((3, 4) + hw, *[(fused.param_shapes(n)["w"], n.attrs["stride"],
                                                               n.attrs["pad"], n.attrs["dilation"]) for n in trunk[:2]])
        assert node_list(go.fuse(fused)) == node_list(fused)
        if lower:  # the same convs on the ten crops, with the same roundings: one per fused conv
            fused = go.lower_precision(fused)
            ref = go.execute(go.lower_precision(go.fuse(crop_trunk_graph(hw=hw, crops_input=True)[0])),
                             Tensor(ten_crop(xs[0].data, 24)))[0].data
        else:
            ref = go.execute(g, xs)[0].data
        for plan in (None, go.plan_memory(fused)):
            np.testing.assert_array_equal(go.execute(fused, xs, plan)[0].data, ref)
        for crops in ((0, 1, 2, 3, 4), (9, 2, 5)):
            sub = go.select_crops(fused, crops)
            assert all(n.attrs["crops"] == crops for n in sub.nodes if "size" in n.attrs)
            np.testing.assert_array_equal(go.execute(sub, xs, go.plan_memory(sub))[0].data, ref[list(crops)])

    def test_crops_with_two_readers_stay_materialized(self):
        g, xs = crop_conv_graph(extra_reader=True)
        fused = go.fuse(g)
        assert "ten_crop" in [n.kind for n in fused.nodes]
        assert fused_relu(fused, "conv3d")
        assert not any("size" in n.attrs for n in fused.nodes if n.kind == "conv3d")
        for a, b in zip(go.execute(g, xs), go.execute(fused, xs)):
            np.testing.assert_array_equal(a.data, b.data)


class TestLowering:
    def test_exact_value_survives(self):
        g, xs = tiny_conv_chain(5)
        low = go.lower_precision(g)
        assert all(m.precision == F16 for m in low.meta.values())
        assert all(p.precision == F16 for p in low.params.values())

    def test_binary16_rounding_of_tenth(self):
        t = Tensor(np.array([0.1], dtype=np.float32), F16)
        assert t.data[0] == pytest.approx(0.0999755859375, abs=0)

    def test_lowered_execution_rounds_activations(self):
        g, xs = tiny_conv_chain(6)
        low = go.lower_precision(g)
        out = go.execute(low, xs)[0]
        assert out.precision == F16
        np.testing.assert_array_equal(out.data, out.data.astype(np.float16).astype(np.float32))

    def test_lowered_close_to_f32(self):
        g, xs = tiny_conv_chain(7)
        base = go.execute(g, xs)[0].data
        low = go.execute(go.lower_precision(g), xs)[0].data
        denom = max(np.max(np.abs(base)), 1e-6)
        assert np.max(np.abs(base - low)) / denom <= 5e-2


class TestMemoryPlan:
    def _relu_chain(self, n_nodes, elems=6):
        b = GraphBuilder()
        x = b.input((elems,))
        cur = x
        for _ in range(n_nodes):
            cur = b.relu(cur)
        b.output(cur)
        return b.build()

    def test_linear_chain_peak_two_thirds_of_naive(self):
        g = self._relu_chain(2)  # tensors A -> B -> C, equal sizes
        plan = go.plan_memory(g)
        s = 6 * 4
        assert plan.peak_bytes == 2 * s
        assert plan.naive_bytes == 3 * s

    def test_single_node_peak_is_input_plus_output(self):
        g = self._relu_chain(1)
        plan = go.plan_memory(g)
        assert plan.peak_bytes == 2 * 6 * 4

    def test_peak_monotone_under_extension(self):
        peaks = [go.plan_memory(self._relu_chain(k)).peak_bytes for k in range(1, 8)]
        assert all(b >= a for a, b in zip(peaks, peaks[1:]))

    @pytest.mark.parametrize("seed", range(25))
    def test_random_graphs_pass_overlap_oracle(self, seed):
        g, _ = random_graph(seed)
        plan = go.plan_memory(g)
        ok, pair = check_plan_no_overlap(plan)
        assert ok, f"overlapping assignment {pair}"
        assert plan.peak_bytes <= plan.naive_bytes

    def test_fp16_plan_keeps_float32_bytes(self):
        # F16 tensors are held as float32, so they take the same bytes
        g = self._relu_chain(2)
        plan, low = go.plan_memory(g), go.plan_memory(go.lower_precision(g))
        assert (low.peak_bytes, low.naive_bytes, low.arena_bytes) == \
            (plan.peak_bytes, plan.naive_bytes, plan.arena_bytes)

    @pytest.mark.parametrize("lower", [False, True])
    def test_one_conv_peak_is_input_output_and_scratch(self, lower):
        b = GraphBuilder()
        x = b.input((2, 3, 4, 6, 6))
        w = b.param("w", Tensor(np.ones((5, 3, 3, 3, 3), np.float32)))
        y = b.conv3d(x, w, pad=(1, 1, 1))
        b.output(y)
        g = b.build()
        g = go.lower_precision(g) if lower else g
        (conv,) = g.nodes
        scratch = tc.conv3d_workspace_elems((2, 3, 4, 6, 6), g.meta[y].shape, 3, (3, 3, 3), (1, 1, 1))
        assert scratch > 0
        plan = go.plan_memory(g)
        assert plan.elems[go.scratch_id(conv)] == scratch
        assert plan.lifetime[go.scratch_id(conv)] == (0, 0)
        assert plan.peak_bytes == 4 * (g.meta[x].elems + g.meta[y].elems + scratch)
        assert plan.arena_bytes == 4 * (g.meta[y].elems + scratch)

    def test_render_table_mentions_peak(self):
        plan = go.plan_memory(self._relu_chain(3))
        table = plan.render_table()
        assert "peak" in table and "offset" in table


class TestExecutor:
    def test_empty_graph_is_identity(self):
        g = ComputeGraph([], ["x"], ["x"], {"x": TensorMeta((3,))}, {})
        g.validate()
        t = Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        np.testing.assert_array_equal(go.execute(g, t)[0].data, t.data)

    @pytest.mark.parametrize("seed", range(20))
    def test_plan_transparency_bitwise(self, seed):
        g, xs = random_graph(seed)
        plan = go.plan_memory(g)
        a = go.execute(g, xs)
        b = go.execute(g, xs, plan=plan)
        for t1, t2 in zip(a, b):
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_fused_planned_pipeline_equals_baseline(self):
        g, xs = tiny_conv_chain(9)
        opt, plan = go.optimize(g, do_fuse=True, do_fp16=False, do_memplan=True)
        np.testing.assert_array_equal(go.execute(opt, xs, plan=plan)[0].data, go.execute(g, xs)[0].data)

    def test_input_shape_mismatch_names_tensor(self):
        g, _ = tiny_conv_chain(10)
        bad = Tensor(np.zeros((1, 2, 3, 4, 4), dtype=np.float32))
        with pytest.raises(GraphError, match="input x"):
            go.execute(g, bad)

    def test_node_error_names_node(self):
        # raw-constructed graph with an inconsistent conv weight (skips validate):
        # the kernel failure surfaces wrapped with the node name
        meta = {"x": TensorMeta((1, 2, 3, 3, 3)), "y": TensorMeta((1, 1, 3, 3, 3))}
        params = {"w": Tensor(np.zeros((1, 5, 1, 1, 1), np.float32))}  # C=5 != 2
        g = ComputeGraph(
            [Node("stem", "conv3d", ("x",), "y",
                  {"stride": (1, 1, 1), "pad": (0, 0, 0), "dilation": (1, 1, 1)}, {"w": "w"})],
            ["x"], ["y"], meta, params,
        )
        with pytest.raises(GraphError, match="stem"):
            go.execute(g, Tensor(np.zeros((1, 2, 3, 3, 3), np.float32)))
