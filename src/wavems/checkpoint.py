"""Versioned binary checkpoint format.

Layout: magic ``WMSN`` | u32 version | u64 header length | UTF-8 JSON header
(model config, train config, epoch, metrics history, ordered parameter
name/shape table, rng word count) | raw little-endian float32 arrays in
table order (parameters, then velocities) | u64 RNG state words.

The RNG state is the pair (seed, completed epochs): all per-epoch random
streams are derived from those two values, so they are sufficient to resume
training bit-exactly.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .model import Model, ModelConfig, make_parameter

MAGIC = b"WMSN"
VERSION = 1


@dataclass
class Checkpoint:
    model_config: ModelConfig
    train_config: "TrainConfig"  # noqa: F821 - imported lazily to avoid a cycle
    epoch: int
    parameters: dict[str, np.ndarray]
    velocities: dict[str, np.ndarray]
    rng_state: tuple[int, ...]
    metrics_history: list[dict] = field(default_factory=list)

    @classmethod
    def from_model(cls, model: Model, train_config, epoch: int,
                   metrics_history: list[dict], rng_state: tuple[int, ...]) -> "Checkpoint":
        params = {name: p.value.data.astype(np.float32, copy=True)
                  for name, p in model.named_parameters()}
        vels = {name: p.velocity.astype(np.float32, copy=True)
                for name, p in model.named_parameters()}
        return cls(model.config, train_config, epoch, params, vels,
                   tuple(int(w) for w in rng_state), list(metrics_history))

    def restore_model(self) -> Model:
        """Materialize a single-precision model from copies of the stored state."""
        params = {}
        for name, _ in self.param_table():
            p = make_parameter(name, self.parameters[name].astype(np.float32, copy=True))
            p.velocity = self.velocities[name].astype(np.float32, copy=True)
            params[name] = p
        return Model(self.model_config, params, precision="single")

    def param_table(self) -> list[tuple[str, tuple[int, ...]]]:
        return self.model_config.parameter_shapes()


def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> None:
    table = checkpoint.param_table()
    header = {
        "model_config": checkpoint.model_config.to_dict(),
        "train_config": checkpoint.train_config.to_dict(),
        "epoch": checkpoint.epoch,
        "metrics_history": checkpoint.metrics_history,
        "params": [[name, list(shape)] for name, shape in table],
        "rng_words": len(checkpoint.rng_state),
    }
    blob = json.dumps(header).encode("utf-8")

    chunks = [MAGIC, struct.pack("<I", VERSION), struct.pack("<Q", len(blob)), blob]
    for name, shape in table:
        arr = checkpoint.parameters[name]
        if arr.shape != shape:
            raise CheckpointError(f"parameter {name!r} has shape {arr.shape}, config says {shape}")
        chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    for name, _ in table:
        chunks.append(np.ascontiguousarray(checkpoint.velocities[name], dtype="<f4").tobytes())
    chunks.append(struct.pack(f"<{len(checkpoint.rng_state)}Q", *checkpoint.rng_state))

    out = Path(path)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(b"".join(chunks))
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint to {out}: {exc}") from exc


def load_checkpoint(path: str | Path) -> Checkpoint:
    from .training import TrainConfig  # local import: training depends on this module

    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc

    if len(data) < 16 or data[:4] != MAGIC:
        raise CheckpointError(f"bad magic in {path}: expected {MAGIC!r}")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} (expected {VERSION})")
    (hlen,) = struct.unpack_from("<Q", data, 8)
    pos = 16
    if pos + hlen > len(data):
        raise CheckpointError("truncated header")
    try:
        header = json.loads(data[pos:pos + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"corrupt header JSON: {exc}") from exc
    pos += hlen

    try:
        model_config = ModelConfig.from_dict(header["model_config"])
        train_config = TrainConfig.from_dict(header["train_config"])
        table = [(name, tuple(shape)) for name, shape in header["params"]]
        epoch = int(header["epoch"])
        history = list(header["metrics_history"])
        n_words = int(header["rng_words"])
    # a hostile header can fail in any of these; ConfigError is a ValueError
    except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise CheckpointError(
            f"bad checkpoint header ({type(exc).__name__}: {exc})") from exc
    expected = model_config.parameter_shapes()
    if table != expected:
        raise CheckpointError("parameter table does not match the embedded model config")

    def read_array(name: str, shape: tuple[int, ...]) -> np.ndarray:
        nonlocal pos
        nbytes = int(np.prod(shape)) * 4
        if pos + nbytes > len(data):
            raise CheckpointError(f"file truncated mid-array {name!r}")
        arr = np.frombuffer(data, dtype="<f4", count=int(np.prod(shape)), offset=pos)
        pos += nbytes
        return arr.reshape(shape).copy()

    # read by the config's table: the header's may hold equal non-ints (4.0, true)
    parameters = {name: read_array(name, shape) for name, shape in expected}
    velocities = {name: read_array(f"{name} (velocity)", shape) for name, shape in expected}

    if pos + 8 * n_words != len(data):  # truncated, or bytes after the RNG words
        raise CheckpointError(f"{len(data) - pos} bytes follow the arrays, but the header "
                              f"declares {n_words} RNG words ({8 * n_words} bytes)")
    rng_state = struct.unpack_from(f"<{n_words}Q", data, pos)

    return Checkpoint(model_config, train_config, epoch, parameters,
                      velocities, tuple(rng_state), history)
