"""Graph IR, pass safety, memory planning, and executor tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from edgevad import graphopt as go
from edgevad import tensor as tc
from edgevad.bench import count_params_flops
from edgevad.graphopt import ComputeGraph, GraphBuilder, GraphError, Node, TensorMeta
from edgevad.tensor import F16, ShapeError, Tensor
from edgevad.videopre import ten_crop

from helpers import check_plan_no_overlap, random_graph


def tiny_conv_chain(seed=0, with_output_tap=False):
    """input -> conv3d -> bias -> relu -> gap -> linear -> bias -> relu."""
    rng = np.random.default_rng(seed)
    b = GraphBuilder("tiny")
    x = b.input((1, 2, 3, 5, 5), name="x")
    w = b.param("w", Tensor(rng.normal(size=(3, 2, 1, 3, 3)).astype(np.float32)))
    bb = b.param("b", Tensor(rng.normal(size=(3,)).astype(np.float32)))
    t = b.conv3d(x, w, pad=(0, 1, 1))
    t_bias = b.bias(t, bb, axis=1)
    mid = b.relu(t_bias)
    g1 = b.gap3d(mid)
    fw = b.param("fw", Tensor(rng.normal(size=(2, 3)).astype(np.float32)))
    fb = b.param("fb", Tensor(rng.normal(size=(2,)).astype(np.float32)))
    t = b.linear(g1, fw)
    t = b.bias(t, fb, axis=-1)
    t = b.relu(t)
    b.output(t)
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


def three(s):
    return st.tuples(s, s, s)


@st.composite
def conv3d_case(draw):
    """conv3d or conv3d_bias_relu on crops, or either one reading the ten
    crops of a clip in place."""
    fused, cropped = draw(st.booleans()), draw(st.booleans())
    c, o = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    w = (o, max(1, c + draw(OFF))) + draw(three(st.integers(1, 3)))
    attrs = {"stride": draw(three(STRIDE)), "pad": draw(three(PAD)), "dilation": draw(three(DILATION))}
    params = {"w": w, "b": (max(0, o + draw(OFF)),)} if fused else {"w": w}
    relu = {"relu": True} if fused else {}
    kind = "conv3d_bias_relu" if fused else "conv3d"
    if cropped:
        attrs["size"] = size = draw(st.integers(1, 6))
        x = (c, draw(EXTENT), size + draw(st.integers(-1, 3)), size + draw(st.integers(-1, 3)))
        return go.CROP_PREFIX + kind, [x], params, attrs, lambda xs, ps: tc.conv3d_ten_crop_raw(
            xs[0], ps["w"], ps.get("b"), attrs["stride"], attrs["pad"], attrs["dilation"], attrs["size"], **relu)
    x = (draw(st.integers(1, 2)), c) + draw(three(EXTENT))
    return kind, [x], params, attrs, lambda xs, ps: tc.conv3d_raw(
        xs[0], ps["w"], ps.get("b"), attrs["stride"], attrs["pad"], attrs["dilation"], **relu)


@st.composite
def ten_crop_case(draw):
    attrs = {"size": draw(st.integers(1, 6))}
    clip = (3, 2, attrs["size"] + draw(st.integers(-1, 3)), attrs["size"] + draw(st.integers(-1, 3)))
    if draw(st.integers(0, 4)) == 0:
        clip = (1,) + clip  # a batched clip: not 4-D
    return "ten_crop", [clip], {}, attrs, lambda xs, ps: ten_crop(xs[0], attrs["size"])


@st.composite
def conv1d_case(draw):
    fused = draw(st.booleans())
    c, o = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    x, w = (c, draw(st.integers(0, 6))), (o, max(1, c + draw(OFF)), draw(st.integers(1, 4)))
    attrs = {"dilation": draw(DILATION)}
    params = {"w": w, "b": (max(0, o + draw(OFF)),)} if fused else {"w": w}
    return ("conv1d_bias_relu" if fused else "conv1d"), [x], params, attrs, lambda xs, ps: tc.conv1d_raw(
        xs[0], ps["w"], attrs["dilation"], b=ps.get("b"), relu=fused)


@st.composite
def linear_case(draw):
    fused = draw(st.booleans())
    x = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    o = draw(st.integers(1, 3))
    params = {"w": (o, max(1, x[-1] + draw(OFF)))}
    if fused:
        params["b"] = (max(0, o + draw(OFF)),)
    return ("linear_bias_relu" if fused else "linear"), [x], params, {}, lambda xs, ps: tc.linear_raw(
        xs[0], ps["w"], b=ps.get("b"), relu=fused)


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
    @given(case=st.one_of(conv3d_case(), conv3d_case(), ten_crop_case(), conv1d_case(), linear_case(),
                          maxpool3d_case()))
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
        (i,) = [i for i, n in enumerate(g.nodes) if n.kind == "conv3d"]
        conv = g.nodes[i]
        g.nodes[i] = dataclasses.replace(conv, attrs={**conv.attrs, attr: tuple(value)})
        with pytest.raises(GraphError, match=f"node {conv.name}: conv3d {phrase}"):
            g.validate()


class TestFusion:
    def test_triple_fuses_to_one_node(self):
        g, xs = tiny_conv_chain(1)
        fused = go.fuse(g)
        kinds = [n.kind for n in fused.nodes]
        assert "conv3d_bias_relu" in kinds and "linear_bias_relu" in kinds
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
        assert [n.kind for n in fused.nodes] == [n.kind for n in g.nodes]

    def test_graph_output_tap_blocks_fusion(self):
        g, xs = tiny_conv_chain(4, with_output_tap=True)
        fused = go.fuse(g)
        # relu output doubles as a graph output: the conv triple must survive
        assert "conv3d_bias_relu" not in [n.kind for n in fused.nodes]
        assert "linear_bias_relu" in [n.kind for n in fused.nodes]

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


def crop_conv_graph(seed=0, hw=(20, 27), bias_relu=True, extra_reader=False):
    """clip [3,4,H,W] -> ten_crop(16) -> conv3d (-> bias -> relu) -> gap."""
    rng = np.random.default_rng(seed)
    b = GraphBuilder("crops")
    x = b.input((3, 4) + hw, name="clip")
    crops = b.ten_crop(x, 16)
    w = b.param("w", Tensor(rng.normal(size=(5, 3, 3, 3, 3)).astype(np.float32)))
    t = b.conv3d(crops, w, stride=(1, 2, 2), pad=(1, 1, 1))
    if bias_relu:
        t = b.relu(b.bias(t, b.param("b", Tensor(rng.normal(size=(5,)).astype(np.float32))), axis=1))
    b.output(b.gap3d(t))
    if extra_reader:
        b.output(b.gap3d(crops))
    g = b.build()
    return g, [Tensor(rng.normal(size=(3, 4) + hw).astype(np.float32))]


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
        kind = "ten_crop_conv3d_bias_relu" if bias_relu else "ten_crop_conv3d"
        assert [n.kind for n in fused.nodes] == [kind, "gap3d"]
        assert fused.nodes[0].inputs == tuple(g.inputs)
        ref = go.execute(g, xs)[0].data
        for plan in (None, go.plan_memory(fused)):
            np.testing.assert_array_equal(go.execute(fused, xs, plan)[0].data, ref)
        # no tensor of the fused graph holds the crops
        assert (10, 3, 4, 16, 16) not in [m.shape for m in fused.meta.values()]

    def test_crops_with_two_readers_stay_materialized(self):
        g, xs = crop_conv_graph(extra_reader=True)
        fused = go.fuse(g)
        assert "ten_crop" in [n.kind for n in fused.nodes]
        assert "conv3d_bias_relu" in [n.kind for n in fused.nodes]
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
