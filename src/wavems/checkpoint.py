"""Versioned binary checkpoint format.

Layout: magic ``WMSN`` | u32 version | u64 header length | UTF-8 JSON header
(model config, train config, epoch, metrics history, ordered parameter
name/shape table, rng word count) | raw little-endian float32 arrays in
table order (parameters, then velocities) | u64 RNG state words.

The writer pads the JSON header with ASCII spaces so that the first array
starts at a multiple of :data:`ALIGN` bytes. JSON allows the trailing
whitespace and readers take the header length from the prefix, so padded
and unpadded files are both version 1.

The RNG state is the pair (seed, completed epochs): all per-epoch random
streams are derived from those two values, so they are sufficient to resume
training bit-exactly.

A load maps the file once, read-only, and its arrays are views of that map,
not copies; only an array at an offset its dtype cannot use directly (a
file written before the padding) is copied. The map, and the file
descriptor it holds, close when the last array viewing it is collected.

``wavems eval``, ``analyze`` and ``inspect`` load weights only
(``load_checkpoint(path, velocities=False)``): the velocities are
size-checked like the rest of the file, then left untouched. A model
restored from such a checkpoint holds the read-only views themselves, so
its weights exist once, in the shared page cache, and its velocities are
read-only zeros, so it cannot be trained: ``sgd_step`` on it raises.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .config import _read
from .errors import CheckpointError
from .model import Model, ModelConfig, make_parameter

MAGIC = b"WMSN"
VERSION = 1
#: The writer starts the first array at a multiple of this many bytes.
ALIGN = 64


@dataclass
class Checkpoint:
    model_config: ModelConfig
    train_config: "TrainConfig"  # noqa: F821 - imported lazily to avoid a cycle
    epoch: int
    parameters: dict[str, np.ndarray]
    velocities: dict[str, np.ndarray] | None  # None: loaded weights-only
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
        """Materialize a single-precision model from copies of the stored
        state. A weights-only checkpoint's model holds the stored parameter
        arrays themselves (read-only views of the mapped file), and read-only
        zero velocities that allocate nothing, so ``sgd_step`` on it raises
        instead of training."""
        weights_only = self.velocities is None
        params = {}
        for name, shape in self.param_table():
            data = self.parameters[name].astype(np.float32, copy=not weights_only)
            velocity = (np.broadcast_to(np.float32(0), shape) if weights_only
                        else self.velocities[name].astype(np.float32, copy=True))
            params[name] = make_parameter(name, data, velocity)
        return Model(self.model_config, params, precision="single")

    def param_table(self) -> list[tuple[str, tuple[int, ...]]]:
        return self.model_config.parameter_shapes()


def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> None:
    """Write ``checkpoint`` to ``path``: whole, to a temporary file beside
    it, then moved over it, so a failed or killed write leaves the previous
    file as it was."""
    if checkpoint.velocities is None:
        raise CheckpointError("a checkpoint loaded weights-only has no velocities to save")
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
    blob += b" " * (-(16 + len(blob)) % ALIGN)  # the arrays start aligned

    chunks = [MAGIC, struct.pack("<I", VERSION), struct.pack("<Q", len(blob)), blob]
    for kind, arrays in (("parameter", checkpoint.parameters),
                         ("velocity", checkpoint.velocities)):
        for name, shape in table:
            arr = arrays[name]
            if arr.shape != shape:
                raise CheckpointError(f"{kind} {name!r} has shape {arr.shape}, config says {shape}")
            chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    chunks.append(struct.pack(f"<{len(checkpoint.rng_state)}Q", *checkpoint.rng_state))

    out = Path(path)
    tmp = out.with_name(f"{out.name}.{os.urandom(4).hex()}.tmp")
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        # 0o666 less the umask, the bits of any new file (mkstemp's are 0o600)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as f:
                f.writelines(chunks)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, out)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint to {out}: {exc}") from exc


def load_checkpoint(path: str | Path, velocities: bool = True) -> Checkpoint:
    """Read the checkpoint at ``path``. Its arrays are read-only views of one
    read-only map of the file (copies only where a file written without the
    header padding leaves them unaligned). With ``velocities=False`` the file
    is checked as a whole, but the velocities are skipped: the result's
    ``velocities`` is None (a weights-only checkpoint).

    The views read the file itself, so truncating it in place while they
    live ends the process with SIGBUS; :func:`save_checkpoint` replaces a
    file by renaming, which leaves the mapped one intact."""
    try:
        with open(path, "rb") as f:
            return _read_checkpoint(f, os.fstat(f.fileno()).st_size, path, velocities)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc


def _read_checkpoint(f: BinaryIO, size: int, path, velocities: bool) -> Checkpoint:
    """Parse an open checkpoint file of ``size`` bytes. Every size the header
    declares is checked against ``size`` before the file is mapped; the
    arrays are then views of the map."""
    from .training import TrainConfig  # local import: training depends on this module

    prefix = f.read(16)
    if len(prefix) < 16 or prefix[:4] != MAGIC:
        raise CheckpointError(f"bad magic in {path}: expected {MAGIC!r}")
    (version,) = struct.unpack_from("<I", prefix, 4)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} (expected {VERSION})")
    (hlen,) = struct.unpack_from("<Q", prefix, 8)
    pos = 16
    if pos + hlen > size:
        raise CheckpointError("truncated header")
    try:
        header = json.loads(_read_into(f, bytearray(hlen)).decode("utf-8"))
    # decode errors, JSON syntax and integers past the digit limit are ValueErrors
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"corrupt header JSON: {exc}") from exc
    pos += hlen

    try:
        model_config = ModelConfig.from_dict(header["model_config"], "model_config")
        train_config = TrainConfig.from_dict(header["train_config"], "train_config")
        table = [(name, tuple(shape)) for name, shape in header["params"]]
        epoch = _read(int, header["epoch"], "epoch")  # the config rule: no floats, no bools
        history = list(header["metrics_history"])
        n_words = _read(int, header["rng_words"], "rng_words")
    # a hostile header can fail in any of these; ConfigError is a ValueError
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(
            f"bad checkpoint header ({type(exc).__name__}: {exc})") from exc
    # read by the config's table: the header's may hold equal non-ints (4.0, true)
    expected = model_config.parameter_shapes()
    if table != expected:
        raise CheckpointError("parameter table does not match the embedded model config")

    offsets = []  # of the parameters, then the velocities
    for name, shape in expected + [(f"{name} (velocity)", shape) for name, shape in expected]:
        offsets.append(pos)
        pos += 4 * math.prod(shape)  # exact: np.prod wraps past int64
        if pos > size:
            raise CheckpointError(f"file truncated mid-array {name!r}")
    if pos + 8 * n_words != size:  # truncated, or bytes after the RNG words
        raise CheckpointError(f"{size - pos} bytes follow the arrays, but the header "
                              f"declares {n_words} RNG words ({8 * n_words} bytes)")

    try:
        mapped = mmap.mmap(f.fileno(), size, access=mmap.ACCESS_READ)
    # a ValueError when the file shrank after the size checks
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot map checkpoint {path}: {exc}") from exc
    parameters = _views(mapped, expected, offsets)
    vels = _views(mapped, expected, offsets[len(expected):]) if velocities else None
    f.seek(pos)  # to the RNG words, past the velocities whether mapped or skipped
    rng_state = struct.unpack(f"<{n_words}Q", _read_into(f, bytearray(8 * n_words)))

    return Checkpoint(model_config, train_config, epoch, parameters,
                      vels, tuple(rng_state), history)


def _views(mapped: mmap.mmap, table, offsets) -> dict[str, np.ndarray]:
    """The float32 arrays of ``table`` at ``offsets`` in ``mapped``: views,
    or aligned copies where an offset is not a multiple of 4."""
    return {name: np.require(np.frombuffer(mapped, "<f4", math.prod(shape), offset)
                             .reshape(shape), requirements="A")
            for (name, shape), offset in zip(table, offsets)}


def _read_into(f: BinaryIO, buf):
    """Fill the writable buffer ``buf`` (a bytearray or an array) from ``f``."""
    if f.readinto(buf) != memoryview(buf).nbytes:  # the sizes were checked: the file changed
        raise CheckpointError("checkpoint changed while it was read")
    return buf
