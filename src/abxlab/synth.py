"""Deterministic synthetic corpora with controllable separability.

Each (phone, context, speaker) cell gets a fixed number of segments
whose frames are phone_mean + speaker_bias + noise.  With zero noise
and zero speaker offset the corpus is perfectly separable and every ABX
metric has a known analytic value, which makes these corpora the oracle
inputs for the scoring pipeline.

All randomness comes from one seeded generator consumed in a fixed
construction order, so a config+seed pair pins the corpus byte for
byte.  Noise is drawn even when its scale is zero, which keeps segment
lengths aligned across a noise sweep at constant seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import (
    FeatureArchive,
    FrameLabelTrack,
    ItemSegment,
    feature_archive_files,
    item_file_bytes,
    label_track_bytes,
    write_outputs,
)
from .errors import UsageError
from .manifest import JsonConfig, json_bytes


_FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class SynthConfig(JsonConfig):
    phones: tuple[str, ...] = ("AE", "EH", "IY")
    dim: int = 8
    n_speakers: int = 2
    speaker_offset_scale: float = 0.0
    noise_scale: float = 0.0
    segments_per_cell: int = 3
    frames_per_segment: tuple[int, int] = (4, 8)
    contexts: tuple[tuple[str, str], ...] = (("S", "T"), ("K", "N"))
    frame_period: int = 10000
    seed: int = 0
    mean_scale: float = 1.0

    def __post_init__(self):
        if len(self.phones) < 1:
            raise UsageError("need at least 1 phone")
        if len(set(self.phones)) != len(self.phones):
            raise UsageError("duplicate phone symbols")
        if self.n_speakers < 1:
            raise UsageError("need at least 1 speaker")
        if self.dim < 1:
            raise UsageError("dim must be >= 1")
        if self.dim < len(self.phones):
            raise UsageError(
                f"one-hot means need dim >= n_phones, got dim={self.dim} "
                f"for {len(self.phones)} phones"
            )
        for scale in (self.speaker_offset_scale, self.noise_scale):
            if not (math.isfinite(scale) and scale >= 0):
                raise UsageError(f"scales must be finite and >= 0, got {scale!r}")
        if not math.isfinite(self.mean_scale):
            raise UsageError(f"mean_scale must be finite, got {self.mean_scale!r}")
        if self.segments_per_cell < 1:
            raise UsageError("segments_per_cell must be >= 1")
        lo, hi = self.frames_per_segment
        if not (1 <= lo <= hi):
            raise UsageError(f"bad frames_per_segment range {self.frames_per_segment}")
        if len(self.contexts) < 1:
            raise UsageError("need at least 1 context")
        for label in self.phones + sum(self.contexts, ()):
            # items.item splits its rows on whitespace, pairwise.csv on commas
            if label.split() != [label] or "," in label:
                raise UsageError(
                    f"label {label!r} must be non-empty, without whitespace or commas"
                )
        if len(set(self.contexts)) != len(self.contexts):
            raise UsageError("duplicate contexts")
        if not 1 <= self.frame_period <= 2**32 - 1:  # a .fbin header holds a u32
            raise UsageError(f"frame_period must be in [1, {2**32 - 1}] microseconds, "
                             f"got {self.frame_period}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SynthCorpus:
    archive: FeatureArchive
    segments: list
    tracks: list
    config: SynthConfig = field(repr=False)


def _phone_means(cfg: SynthConfig) -> dict:
    """Phone i's mean is the i-th one-hot vector times ``mean_scale``."""
    means = np.zeros((len(cfg.phones), cfg.dim))
    np.fill_diagonal(means, cfg.mean_scale)
    return dict(zip(cfg.phones, means))


@np.errstate(over="ignore", invalid="ignore")  # caught below, before the cast
def generate_corpus(cfg: SynthConfig) -> SynthCorpus:
    """One utterance per speaker, segments packed back to back."""
    rng = np.random.default_rng(cfg.seed)
    means = _phone_means(cfg)
    speakers = [f"s{i + 1:02d}" for i in range(cfg.n_speakers)]

    biases = {}
    for spk in speakers:
        direction = rng.standard_normal(cfg.dim)
        norm = np.sqrt(np.einsum("i,i->", direction, direction))
        if norm > 0:
            direction = direction / norm
        biases[spk] = direction * cfg.speaker_offset_scale

    utterances = {}
    segments = []
    tracks = []
    lo, hi = cfg.frames_per_segment
    for i, spk in enumerate(speakers):
        utt = f"u{i + 1:02d}"
        chunks = []
        spans = []
        cursor = 0
        for prev, nxt in cfg.contexts:
            for phone in cfg.phones:
                for _ in range(cfg.segments_per_cell):
                    t = int(rng.integers(lo, hi + 1))
                    noise = rng.standard_normal((t, cfg.dim)) * cfg.noise_scale
                    chunks.append(means[phone] + biases[spk] + noise)
                    onset = cursor * cfg.frame_period / 1e6
                    offset = (cursor + t) * cfg.frame_period / 1e6
                    segments.append(
                        ItemSegment(utt, onset, offset, phone, prev, nxt, spk)
                    )
                    spans.append((onset, offset, phone))
                    cursor += t
        frames = np.concatenate(chunks)
        if not np.all(np.abs(frames) <= _FLOAT32_MAX):  # also false for inf and nan
            raise UsageError(
                f"{utt}: frames leave the float32 range; lower the scales "
                f"(mean_scale={cfg.mean_scale!r}, noise_scale={cfg.noise_scale!r}, "
                f"speaker_offset_scale={cfg.speaker_offset_scale!r})"
            )
        utterances[utt] = frames.astype(np.float32)
        tracks.append(FrameLabelTrack(utt, tuple(spans)))
    archive = FeatureArchive(utterances, cfg.frame_period)
    return SynthCorpus(archive, segments, tracks, cfg)


def corpus_files(corpus: SynthCorpus) -> dict:
    """The corpus tree as {relative name: bytes}: features/, items.item,
    labels.tsv and the synth.json sidecar."""
    files = {
        f"features/{name}": data
        for name, data in feature_archive_files(corpus.archive, "binary").items()
    }
    files["items.item"] = item_file_bytes(corpus.segments)
    files["labels.tsv"] = label_track_bytes(corpus.tracks)
    files["synth.json"] = json_bytes({
        "config": corpus.config.to_dict(),
        "generator": {"name": "PCG64", "numpy": np.__version__},
    })
    return files


def write_corpus(corpus: SynthCorpus, out_dir) -> dict:
    """Write features/, items.item, labels.tsv and the synth.json sidecar
    with ``corpus.write_outputs``: as ``abxlab synth``, a features/ that
    holds other feature files, or any filesystem error, is a UsageError."""
    out = Path(out_dir)
    write_outputs(out, corpus_files(corpus))
    return {
        "features": out / "features",
        "items": out / "items.item",
        "labels": out / "labels.tsv",
        "sidecar": out / "synth.json",
    }
