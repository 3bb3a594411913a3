"""Manifest parsing, fold splits, and the synthetic corpus."""

import hashlib

import numpy as np
import pytest
from scipy import signal as sp_signal

from wavems.datasets import (dump_manifest, fold_split, load_manifest,
                             synth_class_center_hz, synth_dataset,
                             write_synth_dataset)
from wavems.audio import decode_wav
from wavems.errors import ManifestError


def manifest_text(rows):
    return "path,label,fold\n" + "\n".join(f"{p},{l},{f}" for p, l, f in rows) + "\n"


class TestManifest:
    def test_basic_split(self):
        rows = [(f"clip{i}.wav", i % 2, (i % 5) + 1) for i in range(10)]
        m = load_manifest(manifest_text(rows))
        assert m.num_classes == 2 and m.num_folds == 5
        train, test = fold_split(m, 3)
        assert len(train) == 8 and len(test) == 2
        assert {e.path for e in train}.isdisjoint({e.path for e in test})
        assert len(train) + len(test) == len(m.entries)

    def test_empty_file(self):
        with pytest.raises(ManifestError, match="empty"):
            load_manifest("")

    def test_header_only(self):
        with pytest.raises(ManifestError):
            load_manifest("path,label,fold\n")

    def test_bad_header(self):
        with pytest.raises(ManifestError, match="header"):
            load_manifest("file,cls,split\na.wav,0,1\n")

    def test_non_contiguous_labels(self):
        with pytest.raises(ManifestError, match="contiguous"):
            load_manifest(manifest_text([("a.wav", 0, 1), ("b.wav", 2, 1)]))

    def test_duplicate_paths(self):
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(manifest_text([("a.wav", 0, 1), ("a.wav", 0, 2)]))

    def test_malformed_row(self):
        with pytest.raises(ManifestError, match="3 fields"):
            load_manifest("path,label,fold\na.wav,0\n")

    def test_non_integer_fields(self):
        with pytest.raises(ManifestError, match="non-integer"):
            load_manifest("path,label,fold\na.wav,zero,1\n")

    def test_unknown_fold(self):
        m = load_manifest(manifest_text([("a.wav", 0, 1), ("b.wav", 0, 2)]))
        with pytest.raises(ManifestError, match="unknown fold"):
            fold_split(m, 9)

    def test_esc50_shaped_manifest(self):
        rows = [(f"clip{i:04d}.wav", i % 50, (i % 5) + 1) for i in range(2000)]
        m = load_manifest(manifest_text(rows))
        assert m.num_classes == 50 and m.num_folds == 5
        for fold in range(1, 6):
            _, test = fold_split(m, fold)
            assert len(test) == 400

    def test_every_fold_partitions(self):
        rows = [(f"c{i}.wav", i % 3, (i % 4) + 1) for i in range(24)]
        m = load_manifest(manifest_text(rows))
        for fold in range(1, 5):
            train, test = fold_split(m, fold)
            got = sorted(e.path for e in train) + sorted(e.path for e in test)
            assert sorted(got) == sorted(e.path for e in m.entries)

    def test_dump_round_trip(self):
        rows = [(f"x{i}.wav", i % 2, (i % 3) + 1) for i in range(6)]
        m = load_manifest(manifest_text(rows))
        again = load_manifest(dump_manifest(m))
        assert again == m


class TestSynthDataset:
    def test_seed_determinism(self):
        m1, c1 = synth_dataset(3, 4, 0.5, 4410, seed=5)
        m2, c2 = synth_dataset(3, 4, 0.5, 4410, seed=5)
        assert m1 == m2
        for path in c1:
            assert np.array_equal(c1[path].samples, c2[path].samples)

    def test_pinned_sample_bytes(self):
        """A seeded corpus's samples, in manifest order, keep the bytes they
        had when each clip designed its own band-pass filter."""
        m, clips = synth_dataset(4, 3, 0.25, 4410, seed=7, num_folds=3)
        digest = hashlib.sha256()
        for e in m.entries:
            digest.update(clips[e.path].samples.tobytes())
        assert digest.hexdigest() == \
            "4c3fe36bfa983901b34d7e9a4b1817db0772d07ff5fbf6fad0e4d31d0166c748"

    def test_different_seeds_differ(self):
        _, c1 = synth_dataset(2, 2, 0.5, 4410, seed=1)
        _, c2 = synth_dataset(2, 2, 0.5, 4410, seed=2)
        path = next(iter(c1))
        assert not np.array_equal(c1[path].samples, c2[path].samples)

    def test_round_robin_folds(self):
        m, _ = synth_dataset(5, 40, 0.05, 4410, seed=0, num_folds=5)
        counts = {}
        for e in m.entries:
            counts[(e.label, e.fold)] = counts.get((e.label, e.fold), 0) + 1
        assert all(counts[(c, f)] == 8 for c in range(5) for f in range(1, 6))

    @pytest.mark.parametrize("label", [0, 2, 4])
    def test_spectral_peak_near_center(self, label):
        # Welch-averaged spectrum peak within one third of an octave
        _, clips = synth_dataset(5, 1, 2.0, 4410, seed=3)
        clip = clips[f"class{label:02d}_clip000.wav"]
        freqs, psd = sp_signal.welch(clip.samples, fs=clip.sample_rate, nperseg=1024)
        peak = freqs[np.argmax(psd)]
        center = synth_class_center_hz(label)
        assert 2 ** (-1 / 3) <= peak / center <= 2 ** (1 / 3)

    def test_class_cap(self):
        with pytest.raises(ValueError, match="num_classes"):
            synth_dataset(17, 1, 0.5, 44100, seed=0)

    def test_nyquist_guard(self):
        with pytest.raises(ValueError, match="Nyquist"):
            synth_dataset(16, 1, 0.5, 44100, seed=0)

    def test_written_corpus_decodes_identically(self, tmp_path):
        manifest_path = write_synth_dataset(tmp_path, 2, 3, 0.25, 4410, seed=9)
        manifest = load_manifest(manifest_path.read_bytes())
        _, clips = synth_dataset(2, 3, 0.25, 4410, seed=9)
        assert len(manifest.entries) == 6
        for e in manifest.entries:
            decoded = decode_wav((tmp_path / e.path).read_bytes())
            assert np.array_equal(decoded.samples, clips[e.path].samples)

    def test_write_twice_byte_identical(self, tmp_path):
        p1 = write_synth_dataset(tmp_path / "a", 2, 2, 0.25, 4410, seed=4)
        p2 = write_synth_dataset(tmp_path / "b", 2, 2, 0.25, 4410, seed=4)
        assert p1.read_bytes() == p2.read_bytes()
        for e in load_manifest(p1.read_bytes()).entries:
            assert (tmp_path / "a" / e.path).read_bytes() == (tmp_path / "b" / e.path).read_bytes()
