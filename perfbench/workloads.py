"""The benchmark's workloads and the checks on their outputs.

Every workload has the same shape: a set-up that is timed and repeated, one
untimed unit of work under tracemalloc that also warms caches and captures
outputs for the checks, a closed loop that repeats the unit until the run
length has passed, and checks against ``reference`` computed after timing.
All inputs derive from the seed; the program only ever sees those inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

from wavems import audio, checkpoint, cli, datasets, evaluation, model, training
from wavems.model import BranchSpec, ModelConfig

import reference as ref
import tracer as tracing

#: Set-up is timed this many times, all before the warm-up, so that every
#: repeat runs in a process that has not yet done the workload's work:
#: ``full_vote``'s set-up runs about a third faster after the timed loop.
SETUP_REPEATS = 7
#: Largest |program - reference| over max |reference| accepted for logits:
#: float32 against float64, with at most a few thousand terms per sum.
LOGIT_RTOL = 1e-4
#: Summed vote probabilities must equal the window count this closely.
PROB_SUM_ATOL = 1e-5
#: Reference votes whose top two classes are closer than this are ties and
#: may go either way in float32.
VOTE_MARGIN = 1e-4
#: The first optimizer step must lower the reference loss of its own batch.
#: A whole step at the workload's learning rate can overshoot on some seeds,
#: so the check walks back along the step the program applied: the update
#: must at least point downhill, which a wrong gradient or update fails.
STEP_FRACTIONS = (1.0, 0.1, 0.01)
MIB = 2.0 ** 20


def desk_config() -> ModelConfig:
    """The acceptance suite's desk-scale model: 1 s at 4410 Hz, 5 classes."""
    return ModelConfig(
        branches=(BranchSpec(11, 1, 11), BranchSpec(51, 5, 11), BranchSpec(101, 10, 10)),
        frontend_time_bins=64, conv_channels=(8, 16, 16, 16),
        level_pool_target=(2, 2), fc_hidden=64, num_classes=5,
        window_length=4410, sample_rate=4410)


def rel_err(got, want) -> float:
    want = np.asarray(want, dtype=np.float64)
    return float(np.abs(np.asarray(got, dtype=np.float64) - want).max()
                 / max(np.abs(want).max(), 1e-30))


def peak_mib(fn) -> tuple[object, float]:
    """Run ``fn`` under tracemalloc; returns its result and peak MiB."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / MIB


# --- training ------------------------------------------------------------------

class DeskTrain:
    """The desk-scale model trained by ``train_epoch``; one unit is one epoch.

    5 classes x 40 clips of 2 s at 4410 Hz, trained on the split that holds
    out fold 1 (160 clips, so an epoch is 3 steps of batch 64).
    """

    config = desk_config()
    corpus = dict(num_classes=5, clips_per_class=40, clip_seconds=2.0, sample_rate=4410)
    batch_size = 64
    lr = 1e-2
    min_units = 2  # the loss check compares the first and last epoch

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.train_config = training.TrainConfig(
            epochs=10_000, batch_size=self.batch_size, momentum=0.9,
            weight_decay=5e-4, lr_stages=((10_000, self.lr),), seed=seed)
        self.losses: list[tuple[float, float]] = []
        self.failures: list[str] = []
        self.logit_err = math.nan
        self.step_fraction = math.nan

    def setup(self) -> None:
        manifest, self.clips = datasets.synth_dataset(**self.corpus, seed=self.seed)
        self.entries = datasets.fold_split(manifest, 1)[0]
        self.model = model.build_model(self.config, seed=self.seed)

    def warm_up(self) -> float:
        """Epoch 0 under tracemalloc, capturing its first batch and step.

        The model is put back to its initial state afterwards, so the timed
        epochs start from epoch 0 again and must repeat its loss exactly.
        """
        params = self.model.parameters()
        self.initial = [(p.value.data.copy(), p.velocity.copy()) for p in params]
        self.after_step = [np.empty_like(p.value.data) for p in params]
        # the first two batches: one at the initial weights, one after a step
        n = min(2 * self.batch_size, len(self.entries))
        self.crops = np.empty((n, self.config.window_length))
        self.labels = [0] * n
        self.crop_logits = np.empty((n, self.config.num_classes), dtype=np.float32)
        seen = {"crops": 0, "forwards": 0, "steps": 0}

        def crop_wrapper(fn):
            def crop(*args, **kwargs):
                window = fn(*args, **kwargs)
                k = seen["crops"]
                if k < n:
                    self.crops[k] = window.samples
                    self.labels[k] = window.label
                seen["crops"] = k + 1
                return window
            return crop

        def forward_wrapper(fn):
            def forward(m, wave):
                out = fn(m, wave)
                k = seen["forwards"]
                if k < n:
                    self.crop_logits[k] = out.data
                seen["forwards"] = k + 1
                return out
            return forward

        def step_wrapper(fn):
            def step(*args, **kwargs):
                fn(*args, **kwargs)
                if seen["steps"] == 0:
                    for buf, p in zip(self.after_step, params):
                        np.copyto(buf, p.value.data)
                seen["steps"] += 1
            return step

        capture = tracing.Patches()
        capture.function(audio.random_crop, crop_wrapper)
        capture.function(training.sgd_step, step_wrapper)
        capture.method(model.Model, "forward", forward_wrapper)
        try:
            metrics, peak = peak_mib(lambda: training.train_epoch(
                self.model, self.entries, self.clips, 0, self.train_config))
        finally:
            capture.close()
        self.warm_metrics = (metrics["loss"], metrics["train_acc"])
        for p, (value, velocity) in zip(params, self.initial):
            np.copyto(p.value.data, value)
            np.copyto(p.velocity, velocity)
            p.value.grad = None
        return peak

    def unit(self, i: int) -> int:
        metrics = training.train_epoch(self.model, self.entries, self.clips, i,
                                       self.train_config)
        self.losses.append((metrics["loss"], metrics["train_acc"]))
        return metrics["n_examples"]

    def check(self) -> None:
        if not self.losses:
            self.failures.append("no timed epoch completed")
            return
        if not all(math.isfinite(loss) for loss, _ in [self.warm_metrics] + self.losses):
            self.failures.append(f"non-finite epoch loss: {self.losses}")
        if self.losses[0] != self.warm_metrics:
            self.failures.append(f"epoch 0 repeated as {self.losses[0]}, first run "
                                 f"gave {self.warm_metrics}")
        if not self.losses[-1][0] < self.losses[0][0]:
            self.failures.append(f"last epoch loss {self.losses[-1][0]} is not below "
                                 f"the first's {self.losses[0][0]}")

        names = [n for n, _ in self.model.named_parameters()]
        before = dict(zip(names, (v for v, _ in self.initial)))
        after = dict(zip(names, self.after_step))
        b = self.batch_size
        first = [ref.forward(self.config, before, w) for w in self.crops[:b]]
        second = [ref.forward(self.config, after, w) for w in self.crops[b:]]
        self.logit_err = max(rel_err(got, want)
                             for got, want in zip(self.crop_logits, first + second))
        if not self.logit_err <= LOGIT_RTOL:
            self.failures.append(f"logits differ from the reference by {self.logit_err:.3g}")

        batch, labels = self.crops[:b], self.labels[:b]
        loss_before = np.mean([ref.cross_entropy(z, y) for z, y in zip(first, labels)])
        step = {n: after[n].astype(np.float64) - before[n] for n in names}
        for fraction in STEP_FRACTIONS:
            params = {n: before[n] + fraction * step[n] for n in names}
            loss_after = np.mean([ref.cross_entropy(ref.forward(self.config, params, w), y)
                                  for w, y in zip(batch, labels)])
            if loss_after < loss_before:
                break
        else:
            self.failures.append(f"first step raised the batch's reference loss "
                                 f"from {loss_before} to {loss_after}")
        self.step_fraction = fraction

    def close(self) -> None:
        pass


# --- voting --------------------------------------------------------------------

class FullVote:
    """``wavems eval`` in-process over a one-clip fold of 5 s clips."""

    min_units = 1
    config = model.full_scale_config(num_classes=5)
    classes = 5
    clip_seconds = 5.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = Path(tempfile.mkdtemp(prefix=f"full_vote-{seed}-", dir=workdir))
        self.failures: list[str] = []
        self.reports: list[Path] = []
        self.logit_err = math.nan
        self.make_inputs()

    def make_inputs(self) -> None:
        """WAV clips, a manifest whose fold 1 holds one clip, and a checkpoint
        of a seeded full-scale model. Not timed: these are the inputs."""
        manifest, clips = datasets.synth_dataset(
            self.classes, 1, self.clip_seconds, self.config.sample_rate, seed=self.seed)
        held_out = self.seed % self.classes
        entries = []
        for e in manifest.entries:
            clip = clips[e.path]
            (self.dir / e.path).write_bytes(audio.encode_wav_pcm16(clip.samples,
                                                                   clip.sample_rate))
            fold = 1 if e.label == held_out else 2
            entries.append(datasets.ManifestEntry(e.path, e.label, fold))
            if fold == 1:
                self.clip = (clip.samples / np.abs(clip.samples).max(), e.label)
        self.manifest = self.dir / "manifest.csv"
        self.manifest.write_text(datasets.dump_manifest(
            datasets.DatasetManifest(entries, self.classes, 2)), encoding="utf-8")
        m = model.build_model(self.config, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        for name, p in m.named_parameters():  # as if trained: biases are not 0
            if name.endswith(".bias"):
                p.value.data[:] = rng.uniform(-0.05, 0.05, p.value.shape)
        self.ckpt = self.dir / "model.ckpt"
        checkpoint.save_checkpoint(checkpoint.Checkpoint.from_model(
            m, training.TrainConfig(), 0, [], (self.seed, 0)), self.ckpt)

    def setup(self) -> None:
        ckpt = checkpoint.load_checkpoint(self.ckpt)
        ckpt.restore_model()
        datasets.load_manifest(self.manifest.read_bytes())
        self.params = ckpt.parameters

    def eval_args(self, report: Path) -> list[str]:
        return ["eval", "--ckpt", str(self.ckpt), "--manifest", str(self.manifest),
                "--fold", "1", "--report", str(report), "--threads", "2"]

    def run_eval(self, tag: str) -> Path:
        report = self.dir / f"report-{tag}"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(self.eval_args(report))
        if code != 0:
            raise RuntimeError(f"wavems eval exited {code}: {err.getvalue().strip()}")
        return report

    def warm_up(self) -> float:
        self.votes = []  # per clip: (prediction, summed probabilities, logits)

        def predict_wrapper(fn):
            def predict(*args, **kwargs):
                logits = []
                self.votes.append(logits)
                pred, summed = fn(*args, **kwargs)
                self.votes[-1] = (pred, summed.copy(), logits)
                return pred, summed
            return predict

        def forward_wrapper(fn):
            def forward(m, wave):
                out = fn(m, wave)
                self.votes[-1].append(out.data.copy())
                return out
            return forward

        capture = tracing.Patches()
        capture.function(evaluation.predict_clip, predict_wrapper)
        capture.method(model.Model, "forward", forward_wrapper)
        try:
            self.warm_report, peak = peak_mib(lambda: self.run_eval("warm"))
        finally:
            capture.close()
        self.windows = sum(len(v[2]) for v in self.votes)
        return peak

    def unit(self, i: int) -> int:
        self.reports.append(self.run_eval(str(i)))
        return self.windows

    def check(self) -> None:
        confusion = read_confusion(self.warm_report)
        for report in self.reports:
            if read_confusion(report) != confusion:
                self.failures.append(f"{report.name} confusion differs from the first eval")
        if len(self.votes) != 1:
            self.failures.append(f"voted {len(self.votes)} clips, fold 1 holds 1")
            return
        _, summed, logits = self.votes[0]
        samples, label = self.clip
        length = self.config.window_length
        starts = ref.vote_starts(len(samples), length, length // 2)
        if len(logits) != len(starts):
            self.failures.append(f"{len(logits)} windows voted, hop and tail rule "
                                 f"gives {len(starts)}")
            return
        if not (np.isfinite(summed).all() and abs(summed.sum() - len(starts)) <= PROB_SUM_ATOL):
            self.failures.append(f"summed probabilities {summed.sum()} != {len(starts)}")
        ref_logits = [ref.forward(self.config, self.params, samples[s:s + length])
                      for s in starts]
        self.logit_err = max(rel_err(g, w) for g, w in zip(logits, ref_logits))
        if not self.logit_err <= LOGIT_RTOL:
            self.failures.append(f"logits differ from the reference by {self.logit_err:.3g}")
        ref_summed = sum(ref.softmax(z) for z in ref_logits)
        top2 = np.sort(ref_summed)[-2:]
        expected = [[0] * self.classes for _ in range(self.classes)]
        expected[label][int(np.argmax(ref_summed))] = 1
        if top2[1] - top2[0] > VOTE_MARGIN and confusion != expected:
            self.failures.append(f"confusion {confusion} != reference vote {expected}")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def read_confusion(report: Path) -> list[list[int]]:
    rows = list(csv.reader(io.StringIO((report / "confusion.csv").read_text())))
    return [[int(v) for v in row[1:]] for row in rows[1:]]


WORKLOADS = {"desk_train": DeskTrain, "full_vote": FullVote}


# --- the run ---------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, tracer, workdir: Path) -> dict:
    """One measured run. ``tracer`` (or None) is installed around set-up and
    the timed loop, never around making the inputs, the warm-up or the checks."""
    traced = tracer.install if tracer else (lambda: None)
    untraced = tracer.uninstall if tracer else (lambda: None)

    work = WORKLOADS[name](seed, workdir)
    try:
        setup_times = []
        traced()
        try:
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                work.setup()
                setup_times.append(time.perf_counter() - start)
        finally:
            untraced()
        if tracer and hasattr(work, "model"):
            tracer.register(work.model)
        peak = work.warm_up()
        latencies, windows, failed = [], 0, 0
        traced()
        try:
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                try:
                    windows += work.unit(len(latencies))
                except Exception:  # a failed unit is counted, the run goes on
                    failed += 1
                    traceback.print_exc(file=sys.stderr)
                latencies.append(time.perf_counter() - t0)
                wall = time.perf_counter() - start
                if wall >= seconds and len(latencies) >= work.min_units:
                    break
        finally:
            untraced()
        work.check()
    finally:
        work.close()

    return {
        "correct": not work.failures,
        "failures": work.failures,
        "attempted": len(latencies),
        "failed": failed,
        "windows": windows,
        "wall_s": wall,
        "latencies": latencies,
        "setup_times": setup_times,
        "check_figures": {"logit_rel_err": work.logit_err,
                          "first_step_fraction": getattr(work, "step_fraction", None)},
        "metrics": {
            "setup_s": (statistics.median(setup_times), "s"),
            "windows_per_s": (windows / wall, "windows/s"),
            "latency_s": (statistics.median(latencies), "s"),
            "peak_mem_mib": (peak, "MiB"),
        },
    }
