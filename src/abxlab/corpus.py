"""Feature archives, item files and frame-label tracks.

A feature archive is a set of per-utterance frame matrices sharing one
feature dimension and one frame period.  Two on-disk layouts exist, one
binary file per utterance (``<utt>.fbin``) and a plain-text variant
(``<utt>.ftxt``); see the README for the exact byte layout.

All loaded objects are immutable after construction and safe to share
across threads or worker processes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AbxlabError,
    ConsistencyError,
    UsageError,
    DataError,
    EmptyArchiveError,
    FormatError,
    RowError,
)
from .manifest import write_outputs

FBIN_MAGIC = b"FEAT"
FBIN_VERSION = 1
_FBIN_HEADER = struct.Struct("<4sIIII")  # magic, version, dim, nframes, period_us

ITEM_HEADER = "#file onset offset #phone prev-phone next-phone speaker"


def time_to_frame(seconds: float, period_us: int) -> int:
    """Convert a time in seconds to a frame index, rounding half up.

    The time is first snapped to integer microseconds (again half up) so
    that decimal coordinates like 0.145 s land on exact frame boundaries
    instead of drifting through binary float representation.
    """
    if period_us <= 0:
        raise AbxlabError(f"frame period must be positive, got {period_us}")
    us = math.floor(seconds * 1e6 + 0.5)
    return (2 * us + period_us) // (2 * period_us)


@dataclass(frozen=True, order=True)
class ItemSegment:
    """One triphone occurrence: a central phone in a fixed context."""

    utt: str
    onset: float
    offset: float
    phone: str
    prev: str
    next: str
    speaker: str

    def __post_init__(self):
        if self.offset <= self.onset:
            raise DataError(
                f"segment {self.utt} [{self.onset}, {self.offset}): offset <= onset"
            )

    @property
    def context(self) -> tuple[str, str]:
        return (self.prev, self.next)


@dataclass(frozen=True)
class FrameLabelTrack:
    """Per-utterance time-aligned labels, sorted and non-overlapping."""

    utt: str
    spans: tuple[tuple[float, float, str], ...]


class FeatureArchive:
    """Immutable map utterance-id -> frame matrix (T x dim, float32)."""

    def __init__(self, utterances: dict[str, np.ndarray], frame_period: int):
        if not utterances:
            raise EmptyArchiveError("archive contains no utterances")
        if frame_period <= 0:
            raise DataError(f"frame period must be positive, got {frame_period}")
        dims = set()
        frozen = {}
        for utt, mat in utterances.items():
            mat = np.ascontiguousarray(mat, dtype=np.float32)
            if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
                raise DataError(f"{utt}: frame matrix must be (T>=1, dim>=1), got {mat.shape}")
            if not np.isfinite(mat).all():
                raise DataError(f"{utt}: non-finite feature value")
            mat.flags.writeable = False
            frozen[utt] = mat
            dims.add(mat.shape[1])
        if len(dims) != 1:
            raise ConsistencyError(f"feature dimension differs across utterances: {sorted(dims)}")
        self._utterances = frozen
        self.dim = dims.pop()
        self.frame_period = int(frame_period)

    def __contains__(self, utt: str) -> bool:
        return utt in self._utterances

    def __len__(self) -> int:
        return len(self._utterances)

    def utterance_ids(self) -> list[str]:
        return sorted(self._utterances)

    def frames(self, utt: str) -> np.ndarray:
        try:
            return self._utterances[utt]
        except KeyError:
            raise DataError(f"utterance {utt!r} not in archive") from None

    def n_frames(self, utt: str) -> int:
        return self.frames(utt).shape[0]


def segment_frames(seg: ItemSegment, archive: FeatureArchive) -> np.ndarray:
    """Resolve a segment's time span to feature rows [start, end).

    Both endpoints round half up; ``end`` is clamped to the utterance
    length.  Spans that round to zero length are extended to one frame
    (very short phones occur in real alignments) unless the span sits at
    or past the end of the utterance.
    """
    mat = archive.frames(seg.utt)
    period = archive.frame_period
    t = mat.shape[0]
    start = time_to_frame(seg.onset, period)
    end = min(time_to_frame(seg.offset, period), t)
    if start >= end:
        if start < t:
            end = start + 1
        else:
            raise DataError(
                f"segment {seg.utt} [{seg.onset}, {seg.offset}) resolves to no frames "
                f"(utterance has {t} frames)"
            )
    return mat[start:end]


# ---------------------------------------------------------------------------
# text input


def read_bytes_file(path, what: str) -> bytes:
    """The bytes of ``path``; a missing file (or a directory) is a usage
    error (exit 2) named by ``what``."""
    path = Path(path)
    if not path.is_file():
        raise UsageError(f"{what} not found: {path}")
    return path.read_bytes()


def read_text_file(path, what: str) -> str:
    """The UTF-8 text of ``path``; a missing file is a usage error (exit
    2) named by ``what``, undecodable bytes a format error (exit 3)."""
    path = Path(path)
    if not path.is_file():
        raise UsageError(f"{what} not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text (byte {e.start})") from None


# ---------------------------------------------------------------------------
# binary / text feature files


def _read_fbin(path: Path) -> tuple[str, np.ndarray, int]:
    raw = read_bytes_file(path, "feature file")
    if len(raw) < _FBIN_HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, dim, nframes, period = _FBIN_HEADER.unpack_from(raw, 0)
    if magic != FBIN_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != FBIN_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    payload = raw[_FBIN_HEADER.size:]
    expected = nframes * dim * 4
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, header implies {expected} "
            f"({nframes} frames x {dim} dims x 4)"
        )
    if nframes < 1 or dim < 1:
        raise DataError(f"{path}: nframes and dim must be >= 1")
    mat = np.frombuffer(payload, dtype="<f4").reshape(nframes, dim)
    return path.stem, mat, period


def _read_ftxt(path: Path) -> tuple[str, np.ndarray, int]:
    lines = read_text_file(path, "feature file").splitlines()
    if not lines:
        raise FormatError(f"{path}: empty file")
    head = lines[0].split()
    try:
        kv = dict(part.split("=", 1) for part in head)
        dim = int(kv["dim"])
        period = int(kv["period_us"])
    except (ValueError, KeyError):
        raise FormatError(f"{path}: header must be 'dim=<D> period_us=<P>'") from None
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        vals = line.split()
        if len(vals) != dim:
            raise RowError(path, i, f"expected {dim} values, got {len(vals)}")
        try:
            rows.append([float(v) for v in vals])
        except ValueError:
            raise RowError(path, i, "non-numeric feature value") from None
    if not rows:
        raise DataError(f"{path}: no frames")
    return path.stem, np.array(rows, dtype=np.float32), period


def load_feature_archive(path, format: str = "auto") -> FeatureArchive:
    """Load all feature files under ``path`` into one validated archive."""
    root = Path(path)
    if not root.is_dir():
        raise UsageError(f"feature directory not found: {root}")
    if format == "auto":
        format = "binary" if sorted(root.glob("*.fbin")) else "text"
    suffix = {"binary": "*.fbin", "text": "*.ftxt"}.get(format)
    if suffix is None:
        raise UsageError(f"unknown feature format {format!r}")
    reader = _read_fbin if format == "binary" else _read_ftxt
    files = sorted(root.glob(suffix))
    if not files:
        raise EmptyArchiveError(f"no {suffix} files under {root}")
    utterances = {}
    periods = set()
    for f in files:
        utt, mat, period = reader(f)
        utterances[utt] = mat
        periods.add(period)
    if len(periods) != 1:
        raise ConsistencyError(f"frame period differs across files: {sorted(periods)}")
    return FeatureArchive(utterances, periods.pop())


def feature_archive_files(archive: FeatureArchive, format: str = "binary") -> dict:
    """The archive as {"<utt>.fbin" or "<utt>.ftxt": file bytes}."""
    if format not in ("binary", "text"):
        raise UsageError(f"unknown feature format {format!r}")
    files = {}
    for utt in archive.utterance_ids():
        mat = archive.frames(utt)
        if format == "binary":
            header = _FBIN_HEADER.pack(
                FBIN_MAGIC, FBIN_VERSION, mat.shape[1], mat.shape[0], archive.frame_period
            )
            files[f"{utt}.fbin"] = header + mat.astype("<f4").tobytes()
        else:
            lines = [f"dim={mat.shape[1]} period_us={archive.frame_period}"]
            # a float32 value widens exactly, so the Python float's repr is
            # the same text as repr(float(v)) on the element
            lines += [" ".join(map(repr, row)) for row in mat.tolist()]
            files[f"{utt}.ftxt"] = ("\n".join(lines) + "\n").encode()
    return files


def write_feature_archive(archive: FeatureArchive, path, format: str = "binary") -> None:
    write_outputs(path, feature_archive_files(archive, format))


# ---------------------------------------------------------------------------
# item files and label tracks


def _parse_span(path, line_no: int, onset_s: str, offset_s: str) -> tuple[float, float]:
    """A row's (onset, offset) in seconds: finite, onset >= 0 and
    offset > onset, or a RowError naming the line."""
    try:
        onset, offset = float(onset_s), float(offset_s)
    except ValueError:
        raise RowError(path, line_no, f"non-numeric time {onset_s!r}/{offset_s!r}") from None
    if not (math.isfinite(onset) and math.isfinite(offset)) or onset < 0:
        raise RowError(path, line_no, "times must be finite and onset >= 0")
    if offset <= onset:
        raise RowError(path, line_no, f"offset {offset} <= onset {onset}")
    return onset, offset


def load_item_file(path) -> list[ItemSegment]:
    lines = read_text_file(path, "item file").splitlines()
    if not lines or lines[0].strip() != ITEM_HEADER:
        raise FormatError(f"{path}: first line must be '{ITEM_HEADER}'")
    segments = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 7:
            raise RowError(path, i, f"expected 7 fields, got {len(parts)}")
        utt, onset_s, offset_s, phone, prev, nxt, speaker = parts
        onset, offset = _parse_span(path, i, onset_s, offset_s)
        segments.append(ItemSegment(utt, onset, offset, phone, prev, nxt, speaker))
    return segments


def item_file_bytes(segments) -> bytes:
    lines = [ITEM_HEADER]
    for s in segments:
        lines.append(
            f"{s.utt} {s.onset:.6f} {s.offset:.6f} {s.phone} {s.prev} {s.next} {s.speaker}"
        )
    return ("\n".join(lines) + "\n").encode()


def load_label_track(path) -> list[FrameLabelTrack]:
    per_utt: dict[str, list[tuple[float, float, str]]] = {}
    for i, line in enumerate(read_text_file(path, "label file").splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 4:
            raise RowError(path, i, f"expected 4 tab-separated fields, got {len(parts)}")
        utt, onset_s, offset_s, label = parts
        onset, offset = _parse_span(path, i, onset_s, offset_s)
        per_utt.setdefault(utt, []).append((onset, offset, label))
    tracks = []
    for utt in sorted(per_utt):
        spans = sorted(per_utt[utt], key=lambda s: s[0])
        for a, b in zip(spans, spans[1:]):
            if b[0] < a[1]:
                raise DataError(
                    f"{path}: utterance {utt}: overlapping spans "
                    f"({a[0]}, {a[1]}, {a[2]}) and ({b[0]}, {b[1]}, {b[2]})"
                )
        tracks.append(FrameLabelTrack(utt, tuple(spans)))
    return tracks


def label_track_bytes(tracks) -> bytes:
    lines = []
    for track in tracks:
        for onset, offset, label in track.spans:
            lines.append(f"{track.utt}\t{onset:.6f}\t{offset:.6f}\t{label}")
    return ("\n".join(lines) + ("\n" if lines else "")).encode()
