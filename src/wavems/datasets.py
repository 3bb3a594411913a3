"""Fold-based dataset manifests and the deterministic synthetic corpus.

The synthetic generator stands in for full-scale recordings at desk scale:
each class is band-passed white noise around a class-specific center
frequency, amplitude-modulated at a class-specific rate, over a -30 dB
broadband noise floor. Everything is a pure function of the seed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import signal as sp_signal

from .audio import AudioClip, encode_wav_pcm16
from .errors import ManifestError

MANIFEST_HEADER = ["path", "label", "fold"]

#: Hard cap on synthetic class count (center frequencies double every 2 classes).
SYNTH_MAX_CLASSES = 16


@dataclass
class ManifestEntry:
    path: str
    label: int
    fold: int


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    num_classes: int
    num_folds: int


def load_manifest(data: bytes | str) -> DatasetManifest:
    """Parse a ``path,label,fold`` CSV into a manifest.

    Labels must be contiguous integers from 0; folds are positive; paths
    unique. Violations raise ManifestError.
    """
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ManifestError("empty manifest")
    if [c.strip() for c in rows[0]] != MANIFEST_HEADER:
        raise ManifestError(f"manifest header must be {','.join(MANIFEST_HEADER)}, "
                            f"got {','.join(rows[0])!r}")

    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ManifestError(f"line {lineno}: expected 3 fields, got {len(row)}")
        path = row[0].strip()
        try:
            label = int(row[1])
            fold = int(row[2])
        except ValueError as exc:
            raise ManifestError(f"line {lineno}: non-integer label/fold") from exc
        if not path:
            raise ManifestError(f"line {lineno}: empty path")
        if path in seen:
            raise ManifestError(f"line {lineno}: duplicate path {path!r}")
        if label < 0:
            raise ManifestError(f"line {lineno}: negative label {label}")
        if fold < 1:
            raise ManifestError(f"line {lineno}: fold must be >= 1, got {fold}")
        seen.add(path)
        entries.append(ManifestEntry(path, label, fold))

    if not entries:
        raise ManifestError("manifest has a header but no rows")

    labels = sorted({e.label for e in entries})
    if labels != list(range(len(labels))):
        raise ManifestError(f"labels are not contiguous from 0: {labels}")
    num_folds = max(e.fold for e in entries)
    return DatasetManifest(entries, num_classes=len(labels), num_folds=num_folds)


def dump_manifest(manifest: DatasetManifest) -> str:
    """Serialize a manifest back to CSV (LF line endings)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(MANIFEST_HEADER)
    for e in manifest.entries:
        writer.writerow([e.path, e.label, e.fold])
    return out.getvalue()


def fold_split(manifest: DatasetManifest, test_fold: int
               ) -> tuple[list[ManifestEntry], list[ManifestEntry]]:
    """Partition entries into (train, test) by the held-out fold id."""
    folds = {e.fold for e in manifest.entries}
    if test_fold not in folds:
        raise ManifestError(f"unknown fold {test_fold}; manifest has folds {sorted(folds)}")
    train = [e for e in manifest.entries if e.fold != test_fold]
    test = [e for e in manifest.entries if e.fold == test_fold]
    return train, test


def synth_class_center_hz(label: int) -> float:
    """Center frequency for a synthetic class: 300 * 2^(label/2) Hz."""
    return 300.0 * 2.0 ** (label / 2.0)


def _synth_band(label: int, sample_rate: int) -> np.ndarray:
    """The band-pass filter of a synthetic class, as second-order sections:
    the half octave around its center frequency."""
    center = synth_class_center_hz(label)
    lo, hi = center / 2 ** 0.25, center * 2 ** 0.25
    return sp_signal.butter(2, [lo, hi], btype="bandpass", fs=sample_rate, output="sos")


def _synth_clip(label: int, clip_index: int, n_samples: int, sample_rate: int,
                seed: int, sos: np.ndarray) -> np.ndarray:
    """One clip of class ``label``, band-passed by its class filter ``sos``
    (:func:`_synth_band`)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, label, clip_index]))
    band = sp_signal.sosfilt(sos, rng.standard_normal(n_samples))
    band /= np.sqrt(np.mean(band ** 2)) + 1e-12

    t = np.arange(n_samples) / sample_rate
    envelope = 0.5 * (1.0 - np.cos(2.0 * np.pi * (1 + label) * t))

    noise = rng.standard_normal(n_samples)
    noise /= np.sqrt(np.mean(noise ** 2)) + 1e-12

    wave = band * envelope + 10.0 ** (-30.0 / 20.0) * noise
    wave *= 0.95 / np.abs(wave).max()
    # Round-trip through 16-bit quantization so in-memory clips match their
    # on-disk WAV encoding bit for bit.
    ints = np.clip(np.round(wave * 32768.0), -32768, 32767)
    return ints / 32768.0


def synth_dataset(num_classes: int, clips_per_class: int, clip_seconds: float,
                  sample_rate: int, seed: int, num_folds: int = 5
                  ) -> tuple[DatasetManifest, dict[str, AudioClip]]:
    """Generate the synthetic corpus in memory.

    Returns a manifest plus a path->clip mapping; folds are assigned
    round-robin within each class. Identical seeds give bit-identical data.
    """
    if num_classes < 1 or num_classes > SYNTH_MAX_CLASSES:
        raise ValueError(f"num_classes must be in 1..{SYNTH_MAX_CLASSES}, got {num_classes}")
    if clips_per_class < 1:
        raise ValueError("clips_per_class must be positive")
    top_edge = synth_class_center_hz(num_classes - 1) * 2 ** 0.25
    if top_edge >= sample_rate / 2:
        raise ValueError(
            f"class {num_classes - 1} band edge {top_edge:.0f} Hz reaches Nyquist "
            f"({sample_rate / 2:.0f} Hz); raise sample_rate or lower num_classes")

    span = clip_seconds * sample_rate
    if not math.isfinite(span) or round(span) < 1:
        raise ValueError(f"clip_seconds must be finite and give at least one sample "
                         f"at {sample_rate} Hz, got {clip_seconds}")
    n_samples = int(round(span))
    entries: list[ManifestEntry] = []
    clips: dict[str, AudioClip] = {}
    for label in range(num_classes):
        sos = _synth_band(label, sample_rate)  # designed once, used by every clip
        for i in range(clips_per_class):
            path = f"class{label:02d}_clip{i:03d}.wav"
            samples = _synth_clip(label, i, n_samples, sample_rate, seed, sos)
            clips[path] = AudioClip(samples, sample_rate, source_id=path)
            entries.append(ManifestEntry(path, label, fold=(i % num_folds) + 1))

    manifest = DatasetManifest(entries, num_classes=num_classes, num_folds=num_folds)
    return manifest, clips


def write_synth_dataset(out_dir: str | Path, num_classes: int, clips_per_class: int,
                        clip_seconds: float, sample_rate: int, seed: int,
                        num_folds: int = 5) -> Path:
    """Write the synthetic corpus as WAV files plus manifest.csv; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest, clips = synth_dataset(num_classes, clips_per_class, clip_seconds,
                                    sample_rate, seed, num_folds)
    for path, clip in clips.items():
        (out / path).write_bytes(encode_wav_pcm16(clip.samples, clip.sample_rate))
    manifest_path = out / "manifest.csv"
    manifest_path.write_text(dump_manifest(manifest), encoding="utf-8")
    return manifest_path
