"""WAV decoding, resampling, normalization, cropping, and voting segmentation."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavems.audio import (AudioClip, decode_wav, encode_wav_pcm16,
                          peak_normalize, random_crop, resample_linear,
                          segment_for_voting)
from wavems.errors import DecodeError


def make_wav(frames: bytes, channels: int, bits: int, rate: int = 44100,
             format_tag: int = 1, truncate_data_by: int = 0) -> bytes:
    """Hand-build a RIFF/WAVE byte string, independent of the encoder."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", format_tag, channels, rate,
                      rate * block, block, bits)
    declared = len(frames) + truncate_data_by
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", declared) + frames)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def pcm16(*values: int) -> bytes:
    return struct.pack(f"<{len(values)}h", *values)


def pcm24(*values: int) -> bytes:
    out = bytearray()
    for v in values:
        out += (v & 0xFFFFFF).to_bytes(3, "little")
    return bytes(out)


class TestDecodeWav:
    def test_16bit_scaling(self):
        clip = decode_wav(make_wav(pcm16(-32768, 0, 32767), channels=1, bits=16))
        assert clip.samples.tolist() == [-1.0, 0.0, 32767 / 32768]
        assert clip.sample_rate == 44100

    def test_stereo_channel_mean(self):
        clip = decode_wav(make_wav(pcm16(16384, -16384), channels=2, bits=16))
        assert clip.samples.tolist() == [0.0]

    def test_24bit_known_frames(self):
        values = [1, 8388607, -8388608, -4194304]
        clip = decode_wav(make_wav(pcm24(*values), channels=1, bits=24, rate=48000))
        expected = [v / 8388608 for v in values]
        assert clip.samples.tolist() == expected
        assert clip.sample_rate == 48000

    def test_24bit_stereo_mean(self):
        clip = decode_wav(make_wav(pcm24(4194304, -4194304), channels=2, bits=24))
        assert clip.samples.tolist() == [0.0]

    def test_non_pcm_rejected(self):
        data = make_wav(pcm16(0, 0), channels=1, bits=16, format_tag=3)
        with pytest.raises(DecodeError, match="non-PCM"):
            decode_wav(data)

    def test_truncated_chunk(self):
        data = make_wav(pcm16(1, 2, 3), channels=1, bits=16, truncate_data_by=64)
        with pytest.raises(DecodeError, match="truncated"):
            decode_wav(data)

    def test_zero_frames(self):
        with pytest.raises(DecodeError, match="zero frames"):
            decode_wav(make_wav(b"", channels=1, bits=16))

    def test_zero_sample_rate(self):
        with pytest.raises(DecodeError, match="sample rate 0"):
            decode_wav(make_wav(pcm16(1, 2), channels=1, bits=16, rate=0))

    def test_not_riff(self):
        with pytest.raises(DecodeError, match="RIFF"):
            decode_wav(b"OggS" + b"\x00" * 40)

    def test_unsupported_bit_depth(self):
        with pytest.raises(DecodeError, match="bit depth"):
            decode_wav(make_wav(b"\x00\x00", channels=1, bits=8))

    def test_encoder_round_trip(self, rng):
        samples = rng.uniform(-1, 1, size=500)
        clip = decode_wav(encode_wav_pcm16(samples, 22050))
        assert clip.sample_rate == 22050
        assert np.allclose(clip.samples, samples, atol=1.0 / 32768)


class TestResample:
    def test_equal_rates_identity(self, rng):
        clip = AudioClip(rng.standard_normal(100), 8000)
        assert resample_linear(clip, 8000) is clip

    def test_upsample_with_edge_hold(self):
        clip = AudioClip(np.array([0.0, 1.0]), 2)
        out = resample_linear(clip, 4)
        assert out.samples.tolist() == [0.0, 0.5, 1.0, 1.0]
        assert out.sample_rate == 4

    def test_constant_stays_constant(self):
        clip = AudioClip(np.full(1000, 0.25), 44100)
        out = resample_linear(clip, 16000)
        assert out.samples.shape == (1000 * 16000 // 44100,)
        assert np.allclose(out.samples, 0.25)

    def test_output_length_formula(self, rng):
        clip = AudioClip(rng.standard_normal(44100), 44100)
        assert len(resample_linear(clip, 16000).samples) == 16000

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            resample_linear(AudioClip(np.zeros(4), 8000), 0)


class TestPeakNormalize:
    def test_simple(self):
        out = peak_normalize(AudioClip(np.array([0.25, -0.5]), 44100))
        assert out.samples.tolist() == [0.5, -1.0]

    def test_all_zeros_unchanged(self):
        clip = AudioClip(np.zeros(16), 44100)
        assert peak_normalize(clip).samples.tolist() == [0.0] * 16

    def test_peak_is_exactly_one(self, rng):
        out = peak_normalize(AudioClip(rng.standard_normal(256) * 0.1, 44100))
        assert np.abs(out.samples).max() == 1.0

    @given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=64))
    @settings(deadline=None, max_examples=50)
    def test_idempotent(self, values):
        clip = AudioClip(np.array(values), 44100)
        once = peak_normalize(clip)
        twice = peak_normalize(once)
        assert np.array_equal(once.samples, twice.samples)


class _FixedRng:
    def __init__(self, value):
        self.value = value

    def integers(self, low, high):
        assert low <= self.value < high
        return self.value


class TestRandomCrop:
    def test_full_clip_when_exact_length(self, rng):
        samples = rng.standard_normal(64)
        win = random_crop(AudioClip(samples, 8000), 64, rng, label=3)
        assert np.array_equal(win.samples, samples)
        assert win.label == 3

    def test_forced_start(self, rng):
        samples = np.arange(10.0)
        win = random_crop(AudioClip(samples, 8000), 4, _FixedRng(3), label=0)
        assert win.samples.tolist() == [3.0, 4.0, 5.0, 6.0]

    def test_short_clip_symmetric_padding(self):
        win = random_crop(AudioClip(np.array([7.0, 9.0]), 8000), 6, _FixedRng(0), label=1)
        assert win.samples.tolist() == [0.0, 0.0, 7.0, 9.0, 0.0, 0.0]

    @given(st.integers(0, 200), st.integers(1, 64), st.integers(0, 2 ** 31))
    @settings(deadline=None, max_examples=100)
    def test_length_always_window(self, clip_len, window, seed):
        clip = AudioClip(np.ones(clip_len), 8000)
        win = random_crop(clip, window, np.random.default_rng(seed), label=0)
        assert len(win.samples) == window


class TestSegmentForVoting:
    WINDOW = 66150
    HOP = 33075

    def test_five_second_clip_starts(self):
        clip = AudioClip(np.arange(220500, dtype=np.float64), 44100)
        wins = segment_for_voting(clip, self.WINDOW, hop=self.HOP)
        starts = [int(w.samples[0]) for w in wins]
        assert starts == [0, 33075, 66150, 99225, 154350]

    def test_ten_second_clip(self):
        clip = AudioClip(np.arange(441000, dtype=np.float64), 44100)
        wins = segment_for_voting(clip, self.WINDOW, hop=self.HOP)
        starts = [int(w.samples[0]) for w in wins]
        assert len(wins) == 12
        assert starts[-1] == 374850

    def test_exact_length_single_window(self, rng):
        clip = AudioClip(rng.standard_normal(self.WINDOW), 44100)
        wins = segment_for_voting(clip, self.WINDOW)
        assert len(wins) == 1
        assert np.array_equal(wins[0].samples, clip.samples)

    def test_short_clip_padded_to_one_window(self):
        clip = AudioClip(np.ones(100), 44100)
        wins = segment_for_voting(clip, 256)
        assert len(wins) == 1 and len(wins[0].samples) == 256

    def test_bad_hop(self):
        with pytest.raises(ValueError):
            segment_for_voting(AudioClip(np.zeros(512), 8000), 256, hop=0)

    def test_windows_are_read_only_views_of_the_clip(self, rng):
        clip = AudioClip(rng.standard_normal(1000), 8000)
        wins = segment_for_voting(clip, 256)
        assert len(wins) == 6
        for w in wins:
            assert np.shares_memory(w.samples, clip.samples)
            with pytest.raises(ValueError, match="read-only"):
                w.samples[0] = 1.0
        assert clip.samples.flags.writeable  # the clip itself stays writeable

    def test_short_clip_window_is_a_read_only_padded_copy(self):
        clip = AudioClip(np.ones(100), 8000)
        (win,) = segment_for_voting(clip, 256)
        assert not np.shares_memory(win.samples, clip.samples)
        assert not win.samples.flags.writeable

    @given(st.integers(1, 400), st.integers(2, 80))
    @settings(deadline=None, max_examples=150)
    def test_default_hop_covers_every_sample(self, clip_len, window):
        # distinct nonzero payloads, so zero padding cannot masquerade as data
        values = np.arange(1, clip_len + 1, dtype=np.float64)
        wins = segment_for_voting(AudioClip(values, 8000), window)
        seen = set()
        for w in wins:
            assert len(w.samples) == window
            seen.update(int(v) for v in w.samples if v >= 1)
        assert seen == set(range(1, clip_len + 1))
