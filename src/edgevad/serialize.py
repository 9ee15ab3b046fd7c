"""Flat binary parameter store: little-endian float32 payload + JSON shape manifest."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import numpy as np

from .tensor import Tensor


def save_params(path, params: Dict[str, np.ndarray]) -> None:
    """Write params to `<path>.bin` (concatenated LE float32) and `<path>.json`."""
    base = Path(path)
    manifest = {"order": list(params), "shapes": {k: list(np.asarray(v).shape) for k, v in params.items()}}
    with open(base.with_suffix(".bin"), "wb") as f:
        for name in manifest["order"]:
            arr = np.asarray(params[name], dtype="<f4")
            f.write(np.ascontiguousarray(arr).tobytes())
    base.with_suffix(".json").write_text(json.dumps(manifest, indent=1))


def load_params(path) -> Dict[str, np.ndarray]:
    base = Path(path)
    manifest = json.loads(base.with_suffix(".json").read_text())
    blob = base.with_suffix(".bin").read_bytes()
    out: Dict[str, np.ndarray] = {}
    offset = 0
    for name in manifest["order"]:
        shape = tuple(manifest["shapes"][name])
        n = int(np.prod(shape)) if shape else 1
        nbytes = n * 4
        if offset + nbytes > len(blob):
            raise ValueError(
                f"parameter file truncated at {name}: need {offset + nbytes} bytes, have {len(blob)}"
            )
        out[name] = np.frombuffer(blob, dtype="<f4", count=n, offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(blob):
        raise ValueError(f"trailing bytes in parameter file: expected {offset}, have {len(blob)}")
    return out


def save_graph_params(graph, path) -> None:
    save_params(path, {k: v.data for k, v in graph.params.items()})


def load_graph_params(graph, path) -> None:
    """Replace a graph's parameter values in place; shapes must match."""
    loaded = load_params(path)
    missing = set(graph.params) - set(loaded)
    if missing:
        raise ValueError(f"parameter file missing {sorted(missing)}")
    for name, tensor in graph.params.items():
        arr = loaded[name]
        if tuple(arr.shape) != tuple(tensor.shape):
            raise ValueError(
                f"parameter {name}: file shape {tuple(arr.shape)} != graph shape {tuple(tensor.shape)}"
            )
        graph.params[name] = Tensor(arr, tensor.precision)
