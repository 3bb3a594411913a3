"""Property tests: hostile bytes end in the documented error type, never another.

``decode_wav`` may raise only DecodeError and ``load_checkpoint`` only
CheckpointError, whatever the input. Besides raw bytes, the strategies
build inputs that pass the first checks (a RIFF/WAVE header, the checkpoint
magic and version, or a whole valid checkpoint with one header field
replaced), so the deeper parsing code is reached too.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavems.audio import AudioClip, decode_wav
from wavems.checkpoint import MAGIC, VERSION, Checkpoint, load_checkpoint, save_checkpoint
from wavems.errors import CheckpointError, DecodeError
from wavems.model import build_model
from wavems.training import TrainConfig

from conftest import tiny_model_config

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                               max_size=4),
    max_leaves=12)


def _chunk(cid: bytes, body: bytes) -> bytes:
    return cid + struct.pack("<I", len(body)) + body + b"\0" * (len(body) & 1)


@st.composite
def wav_like(draw):
    """A RIFF/WAVE stream of drawn chunks, often with a plausible fmt chunk."""
    chunks = []
    if draw(st.booleans()):
        chunks.append(_chunk(b"fmt ", struct.pack(
            "<HHIIHH", draw(st.sampled_from([1, 3, draw(st.integers(0, 65535))])),
            draw(st.integers(0, 3)), draw(st.integers(0, 2 ** 32 - 1)), 0, 0,
            draw(st.sampled_from([8, 16, 24, 32]))) + draw(st.binary(max_size=4))))
    for _ in range(draw(st.integers(0, 2))):
        chunks.append(_chunk(draw(st.sampled_from([b"data", b"LIST", b"fmt "])),
                             draw(st.binary(max_size=64))))
    body = b"WAVE" + b"".join(chunks) + draw(st.binary(max_size=8))
    return b"RIFF" + struct.pack("<I", len(body)) + body


@given(st.binary(max_size=256) | wav_like())
@FUZZ
def test_decode_wav_raises_only_decode_error(data):
    try:
        clip = decode_wav(data)
    except DecodeError:
        return
    assert isinstance(clip, AudioClip) and len(clip) > 0
    assert np.all(np.abs(clip.samples) <= 1.0)


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    """Bytes of a small valid checkpoint, and the directory to write cases into."""
    path = tmp_path_factory.mktemp("fuzz") / "valid.ckpt"
    model = build_model(tiny_model_config(), seed=0)
    tc = TrainConfig(epochs=1, batch_size=8, lr_stages=((1, 0.01),), seed=3)
    save_checkpoint(Checkpoint.from_model(model, tc, 1, [], (3, 1)), path)
    return path.read_bytes(), path.parent


def _load_bytes(directory, data: bytes) -> None:
    path = directory / "case.ckpt"
    path.write_bytes(data)
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


@given(st.binary(max_size=256))
@FUZZ
def test_load_checkpoint_raw_bytes(valid_checkpoint, data):
    _load_bytes(valid_checkpoint[1], data)


@given(st.binary(max_size=256), st.integers(0, 2 ** 64 - 1))
@FUZZ
def test_load_checkpoint_after_valid_magic(valid_checkpoint, data, hlen):
    prefix = MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", hlen)
    _load_bytes(valid_checkpoint[1], prefix + data)


def _paths(node, prefix=()):
    """Key paths of every value below ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@given(st.data())
@FUZZ
def test_load_checkpoint_with_one_header_value_replaced(valid_checkpoint, data):
    blob, directory = valid_checkpoint
    hlen = struct.unpack_from("<Q", blob, 8)[0]
    header = json.loads(blob[16:16 + hlen])
    path = data.draw(st.sampled_from(list(_paths(header))))
    node = header
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(json_values)
    new = json.dumps(header).encode()
    _load_bytes(directory, blob[:8] + struct.pack("<Q", len(new)) + new + blob[16 + hlen:])


@pytest.mark.parametrize("edit", [
    lambda text: text.replace(b'"epoch": 1', b'"epoch": 1e400'),
    lambda text: b"[" * 100000 + b"]" * 100000,
], ids=["overflowing_epoch", "deeply_nested"])
def test_hostile_header_json_is_checkpoint_error(valid_checkpoint, edit):
    blob, directory = valid_checkpoint
    hlen = struct.unpack_from("<Q", blob, 8)[0]
    text = edit(blob[16:16 + hlen])
    path = directory / "hostile.ckpt"
    path.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + hlen:])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
