"""Model checkpointing: save/load GCN weights as ``.npz`` archives.

Keeps training runs resumable and lets the examples hand trained models
between scripts. The archive stores every parameter of
:meth:`repro.nn.GCN.state_dict` plus a small metadata header (architecture
dims) that is validated on load, so loading into a mismatched architecture
fails loudly instead of silently truncating.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from ..nn.network import GCN

__all__ = ["save_checkpoint", "load_checkpoint", "checkpoint_metadata"]

_META_KEY = "__meta__"


def _architecture_of(model: GCN) -> dict[str, object]:
    return {
        "in_dim": model.in_dim,
        "num_classes": model.num_classes,
        "hidden_dims": [layer.out_dim for layer in model.layers],
        "num_parameters": model.num_parameters(),
    }


def save_checkpoint(model: GCN, path: str | pathlib.Path) -> pathlib.Path:
    """Write the model's parameters and architecture metadata to ``path``.

    The ``.npz`` suffix is appended when missing (numpy's behaviour made
    explicit). Returns the final path.
    """
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    arrays = dict(model.state_dict())
    meta = json.dumps(_architecture_of(model))
    arrays[_META_KEY] = np.frombuffer(meta.encode("utf-8"), dtype=np.uint8)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **arrays)
    return path


def checkpoint_metadata(path: str | pathlib.Path) -> dict[str, object]:
    """Read just the architecture header of a checkpoint."""
    with np.load(path) as data:
        if _META_KEY not in data:
            raise ValueError(f"{path} is not a repro checkpoint (missing metadata)")
        return json.loads(bytes(data[_META_KEY]).decode("utf-8"))


def load_checkpoint(model: GCN, path: str | pathlib.Path) -> GCN:
    """Load parameters into ``model`` in place; returns it for chaining.

    Raises ``ValueError`` when the checkpoint's architecture does not
    match the model's.
    """
    meta = checkpoint_metadata(path)
    expected = _architecture_of(model)
    mismatches = {
        k: (meta.get(k), v) for k, v in expected.items() if meta.get(k) != v
    }
    if mismatches:
        raise ValueError(
            f"checkpoint architecture mismatch: {mismatches} "
            "(checkpoint value, model value)"
        )
    with np.load(path) as data:
        state = {k: data[k] for k in data.files if k != _META_KEY}
    model.load_state_dict(state)
    return model
