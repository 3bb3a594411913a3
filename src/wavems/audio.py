"""Audio decoding, resampling, normalization, and windowing.

WAV support covers RIFF PCM at 16 or 24 bits, mono or stereo. Stereo is
mixed to mono by the per-sample channel mean. All functions here are pure
and safe to call concurrently across clips; crop randomness comes in
through an explicit generator argument.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import DecodeError


@dataclass
class AudioClip:
    """Decoded mono waveform with its sample rate."""
    samples: np.ndarray        # in [-1, 1]: float64 as decoded; the CLI keeps float32
    sample_rate: int
    source_id: str = ""

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass
class Window:
    """Fixed-length training/inference section of a clip."""
    samples: np.ndarray
    label: int


def decode_wav(data: bytes) -> AudioClip:
    """Decode a RIFF/WAVE byte stream to a mono AudioClip.

    Accepts PCM 16-bit or 24-bit little-endian, 1 or 2 channels. Integer
    samples are scaled to [-1, 1) by 2^(bits-1); stereo frames are averaged.
    Raises DecodeError naming the defect on anything else.
    """
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise DecodeError("not a RIFF/WAVE stream (bad RIFF header)")

    fmt = None
    frames: Optional[bytes] = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        (csize,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + csize]
        if len(body) < csize:
            raise DecodeError(f"truncated chunk {cid.decode('latin1')!r}: "
                              f"declared {csize} bytes, {len(body)} available")
        if cid == b"fmt ":
            if csize < 16:
                raise DecodeError("truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            frames = body
        pos += 8 + csize + (csize & 1)  # chunks are word-aligned

    if fmt is None:
        raise DecodeError("missing fmt chunk")
    if frames is None:
        raise DecodeError("missing data chunk")

    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format != 1:
        raise DecodeError(f"non-PCM codec (format tag {audio_format})")
    if channels not in (1, 2):
        raise DecodeError(f"unsupported channel count {channels}")
    if bits not in (16, 24):
        raise DecodeError(f"unsupported bit depth {bits}")
    if sample_rate < 1:
        raise DecodeError(f"sample rate {sample_rate} Hz is not positive")

    bytes_per_sample = bits // 8
    frame_size = bytes_per_sample * channels
    if len(frames) % frame_size:
        raise DecodeError("data chunk is not a whole number of frames")
    n_frames = len(frames) // frame_size
    if n_frames == 0:
        raise DecodeError("zero frames in data chunk")

    if bits == 16:
        ints = np.frombuffer(frames, dtype="<i2").astype(np.int32)
    else:
        raw = np.frombuffer(frames, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        ints = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
        ints -= (ints & 0x800000) << 1  # sign-extend 24-bit

    scaled = ints / float(1 << (bits - 1))
    if channels == 2:
        scaled = scaled.reshape(n_frames, 2).mean(axis=1)
    return AudioClip(samples=scaled, sample_rate=int(sample_rate))


def encode_wav_pcm16(samples: np.ndarray, sample_rate: int) -> bytes:
    """Encode mono float samples in [-1, 1] as a 16-bit PCM WAV byte string.

    Uses the symmetric 2^15 scale (clipping +1.0 to 32767), the inverse of
    the decoder's scaling, so decode(encode(x)) == x for quantized inputs.
    """
    ints = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    payload = ints.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 1, 1, sample_rate, sample_rate * 2, 2, 16,
        b"data", len(payload))
    return header + payload


def resample_linear(clip: AudioClip, target_rate: int) -> AudioClip:
    """Linear interpolation at positions i * (src_rate / target_rate).

    Output length is floor(len * target / src); no-op when rates match.
    """
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    if target_rate == clip.sample_rate:
        return clip
    n = len(clip.samples)
    out_len = (n * target_rate) // clip.sample_rate
    positions = np.arange(out_len) * (clip.sample_rate / target_rate)
    resampled = np.interp(positions, np.arange(n), clip.samples)
    return AudioClip(resampled, target_rate, clip.source_id)


def peak_normalize(clip: AudioClip) -> AudioClip:
    """Scale so max |sample| == 1; all-zero clips pass through unchanged."""
    peak = np.abs(clip.samples).max() if len(clip.samples) else 0.0
    if peak <= 0.0:
        return clip
    return AudioClip(clip.samples / peak, clip.sample_rate, clip.source_id)


def _pad_to_length(samples: np.ndarray, window_length: int) -> np.ndarray:
    """Zero-pad symmetrically so the event stays centered."""
    deficit = window_length - len(samples)
    if deficit <= 0:
        return samples
    left = deficit // 2
    return np.pad(samples, (left, deficit - left))


def random_crop(clip: AudioClip, window_length: int, rng, label: int) -> Window:
    """Uniform random window of exactly ``window_length`` samples.

    Clips shorter than the window are zero-padded symmetrically first. The
    label is the clip's label regardless of which section is selected.
    """
    samples = _pad_to_length(clip.samples, window_length)
    start = int(rng.integers(0, len(samples) - window_length + 1))
    return Window(samples[start:start + window_length].copy(), label)


def segment_for_voting(clip: AudioClip, window_length: int,
                       hop: Optional[int] = None, label: int = 0) -> list[Window]:
    """Cut a clip into fixed-length windows for probability voting.

    Regular windows start at 0, hop, 2*hop, ...; the final window is anchored
    at (len - window_length) so the clip tail is always represented. Default
    hop is half the window, which guarantees every sample is covered.
    At least one window is always returned (short clips are padded).
    Windows are read-only views of the clip's samples (of a padded copy when
    the clip is shorter than a window), so voting copies no audio.
    """
    if hop is None:
        hop = window_length // 2
    if hop <= 0:
        raise ValueError(f"hop must be positive, got {hop}")
    samples = _pad_to_length(clip.samples, window_length)
    n = len(samples)

    regular = max((n - window_length) // hop, 1)
    starts = [k * hop for k in range(regular)]
    tail = n - window_length
    if tail > starts[-1]:
        starts.append(tail)
    windows = [Window(samples[s:s + window_length], label) for s in starts]
    for w in windows:
        w.samples.flags.writeable = False
    return windows


def load_clip_file(path: str | Path, target_rate: Optional[int] = None,
                   normalize: bool = True) -> AudioClip:
    """Decode a WAV file, optionally resample and peak-normalize."""
    raw = Path(path).read_bytes()
    clip = decode_wav(raw)
    clip.source_id = str(path)
    if target_rate is not None:
        clip = resample_linear(clip, target_rate)
    if normalize:
        clip = peak_normalize(clip)
    return clip


def make_clip_loader(target_rate: Optional[int],
                     normalize: bool = True) -> Callable[[str], AudioClip]:
    """``path -> clip`` through :func:`load_clip_file`: resampled to
    ``target_rate`` unless it is ``None``, peak-normalized if ``normalize``."""
    def load(path: str) -> AudioClip:
        return load_clip_file(path, target_rate=target_rate, normalize=normalize)
    return load
