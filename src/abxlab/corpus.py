"""Feature archives, item files and frame-label tracks.

A feature archive is a set of per-utterance frame matrices sharing one
feature dimension and one frame period.  Two on-disk layouts exist, one
binary file per utterance (``<utt>.fbin``) and a plain-text variant
(``<utt>.ftxt``); see the README for the exact byte layout.

All loaded objects are immutable after construction and safe to share
across threads or worker processes.

``read_bytes_file`` is the one read of every input file and
``write_outputs`` the one write of every output tree; an OSError in
either is a usage error (exit 2) naming the path.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from contextlib import contextmanager, suppress
from contextvars import ContextVar
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
from .manifest import lines_bytes

FBIN_MAGIC = b"FEAT"
FBIN_VERSION = 1
_FBIN_HEADER = struct.Struct("<4sIIII")  # magic, version, dim, nframes, period_us

_FEATURE_SUFFIXES = (".fbin", ".ftxt")

ITEM_HEADER = "#file onset offset #phone prev-phone next-phone speaker"


def time_to_frame(seconds: float, period_us: int) -> int:
    """Convert a time in seconds to a frame index, rounding half up.

    The time is first snapped to integer microseconds (again half up) so
    that decimal coordinates like 0.145 s land on exact frame boundaries
    instead of drifting through binary float representation.  A time
    whose microsecond count is not finite is a DataError.
    """
    if period_us <= 0:
        raise AbxlabError(f"frame period must be positive, got {period_us}")
    us = seconds * 1e6 + 0.5
    if not math.isfinite(us):
        raise DataError(f"time {seconds!r} s has no finite microsecond count")
    us = math.floor(us)
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


@contextmanager
def _os_errors(action: str):
    """An OSError inside the block is a usage error (exit 2) that names
    the path in ``action`` and the OS's reason: ``cannot <action>: <reason>``."""
    try:
        yield
    except OSError as e:
        raise UsageError(f"cannot {action}: {e.strerror or e}") from None


_read_digests = ContextVar("read_digests", default=None)  # set by recording_reads


@contextmanager
def recording_reads():
    """Within the block, ``read_bytes_file`` records each file it reads in
    the dict this yields, as {path as given: sha256 of the bytes read}.
    Reads outside such a block record nothing."""
    digests = {}
    token = _read_digests.set(digests)
    try:
        yield digests
    finally:
        _read_digests.reset(token)


def read_bytes_file(path, what: str) -> bytes:
    """The bytes of ``path``, the one read of every input file.  A missing
    file (or a directory) or one that cannot be read is a usage error
    (exit 2) named by ``what``."""
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    with _os_errors(f"read {what} {p}"):
        raw = p.read_bytes()
    digests = _read_digests.get()
    if digests is not None:
        digests[str(path)] = hashlib.sha256(raw).hexdigest()
    return raw


def read_text_file(path, what: str) -> str:
    """The UTF-8 text of ``path`` with universal newlines, as
    ``Path.read_text`` gives it; undecodable bytes are a format error
    (exit 3)."""
    raw = read_bytes_file(path, what)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{Path(path)}: not UTF-8 text (byte {e.start})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _make_dir(path: Path) -> None:
    with _os_errors(f"create output directory {path}"):  # a file in the way too
        path.mkdir(parents=True, exist_ok=True)


def write_outputs(out_dir, files: dict) -> None:
    """Write {relative name: bytes} atomically into out_dir.

    A reader takes a whole directory, so one that gets feature files and
    holds another ``.fbin``/``.ftxt`` file is refused before anything is
    staged.  Files go to .tmp-<pid> names and are renamed only after all
    writes succeed; temp files not renamed are removed on any failure.
    OSErrors, a file where a directory goes and a directory where a file
    goes are usage errors (exit 2) naming the path.
    """
    out = Path(out_dir)
    finals = {out / name: data for name, data in files.items()}
    for d in sorted({p.parent for p in finals if p.suffix in _FEATURE_SUFFIXES}):
        with _os_errors(f"read output directory {d}"):
            found = _feature_entries(d, "output directory") if d.is_dir() else {}
        stale = sorted(p.name for ps in found.values() for p in ps if p not in finals)
        if stale:
            raise UsageError(
                f"{d} holds {len(stale)} feature file(s) this run does not write "
                f"(first {stale[0]}); a feature archive is read as a whole directory"
            )
    _make_dir(out)
    staged = {}  # temp file: final name, until it is renamed
    try:
        for final, data in finals.items():
            _make_dir(final.parent)
            with _os_errors(f"write {final}"):
                if final.is_dir():
                    raise UsageError(f"cannot write {final}: it is a directory")
                tmp = final.with_name(f"{final.name}.tmp-{os.getpid()}")
                staged[tmp] = final
                tmp.write_bytes(data)
        for tmp, final in list(staged.items()):
            with _os_errors(f"write {final}"):
                os.replace(tmp, final)
            del staged[tmp]
    finally:
        for tmp in staged:
            with suppress(OSError):
                tmp.unlink(missing_ok=True)


def read_rows(path, what: str, sep=None, n_fields=None, header=None, comment=None):
    """Yield ``(line_no, fields)`` for each non-blank line of a text table.

    Fields are split on ``sep`` (None: runs of whitespace).  ``header`` is
    the text of line 1, compared with surrounding whitespace stripped;
    line 1 is then not yielded.  Lines starting with ``comment`` after
    leading whitespace are skipped.  A row whose field count is not
    ``n_fields`` (an int, or a range of counts) is a RowError naming its
    line.
    """
    lines = read_text_file(path, what).splitlines()
    if header is not None and (not lines or lines[0].strip() != header):
        raise FormatError(f"{path}: first line must be {header!r}")
    start = 1 if header is None else 2
    counts = n_fields if isinstance(n_fields, range) else (n_fields,)
    want = f"at least {counts[0]}" if isinstance(n_fields, range) else n_fields
    kind = "tab-separated fields" if sep == "\t" else "fields"
    for line_no, line in enumerate(lines[start - 1:], start=start):
        if not line.strip() or (comment and line.lstrip().startswith(comment)):
            continue
        fields = line.split(sep)
        if n_fields is not None and len(fields) not in counts:
            raise RowError(path, line_no, f"expected {want} {kind}, got {len(fields)}")
        yield line_no, fields


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
    """One ``.ftxt`` file's frames, parsed by numpy's C reader in one call.

    The body goes to ``np.loadtxt`` as float64 with no comment character,
    so no Python float is made per value, and is then cast to float32.
    Only when a row does not hold D numbers does a per-line scan run, to
    name the first such line.
    """
    lines = read_text_file(path, "feature file").splitlines()
    fields = lines[0].split() if lines else []
    kv = dict(part.partition("=")[::2] for part in fields)
    try:  # dim=<D> (>= 1) and period_us=<P>, each once: rows hold D values
        dim, period = int(kv["dim"]), int(kv["period_us"])
        well_formed = len(kv) == len(fields) == 2 and dim >= 1
    except (ValueError, KeyError):
        well_formed = False
    if not well_formed:
        raise FormatError(f"{path}: header must be 'dim=<D> period_us=<P>'")
    body = lines[1:]
    if not any(map(str.strip, body)):  # before loadtxt warns that it read no data
        raise DataError(f"{path}: no frames")
    try:
        values = np.loadtxt(body, comments=None, ndmin=2)
    except ValueError:
        values = None
    if values is None or values.shape[1] != dim:
        # lines that each hold D numbers parse together, so one of them is at fault
        for line_no, line in enumerate(body, start=2):
            n = len(line.split())
            if not n:
                continue
            if n != dim:
                raise RowError(path, line_no, f"expected {dim} fields, got {n}")
            try:
                np.loadtxt([line], comments=None)
            except ValueError:
                raise RowError(path, line_no, "non-numeric feature value") from None
    with np.errstate(over="ignore"):  # past the float32 range is inf: the archive rejects it
        mat = values.astype(np.float32)
    return path.stem, mat, period


def _feature_entries(root: Path, what: str) -> dict:
    """{".fbin": paths, ".ftxt": paths}: the sorted top-level entries of
    ``root`` with each suffix, so not a file named just ``.fbin``."""
    with _os_errors(f"read {what} {root}"):
        entries = sorted(root.iterdir())
    return {s: [p for p in entries if p.suffix == s] for s in _FEATURE_SUFFIXES}


def feature_paths(path, format: str = "auto") -> list[Path]:
    """The files of the feature archive in directory ``path``, sorted (see
    ``_feature_entries``).  ``auto`` takes whichever kind is there; both
    or neither is an error."""
    root = Path(path)
    if not root.is_dir():
        raise UsageError(f"feature directory not found: {root}")
    found = _feature_entries(root, "feature directory")
    if format == "auto":
        n_bin, n_txt = len(found[".fbin"]), len(found[".ftxt"])
        if n_bin and n_txt:
            raise ConsistencyError(
                f"{root}: {n_bin} .fbin and {n_txt} .ftxt files; an archive has one format"
            )
        if not (n_bin or n_txt):
            raise EmptyArchiveError(f"no .fbin or .ftxt files under {root}")
        format = "binary" if n_bin else "text"
    suffix = {"binary": ".fbin", "text": ".ftxt"}.get(format)
    if suffix is None:
        raise UsageError(f"unknown feature format {format!r}")
    if not found[suffix]:
        raise EmptyArchiveError(f"no *{suffix} files under {root}")
    return found[suffix]


def load_feature_archive(path, format: str = "auto") -> FeatureArchive:
    """Load the files ``feature_paths`` names into one validated archive."""
    files = feature_paths(path, format)
    reader = _read_fbin if files[0].suffix == ".fbin" else _read_ftxt
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
    if format == "binary" and archive.frame_period > 2**32 - 1:  # the header's u32
        raise DataError(f"frame period {archive.frame_period} us overflows a .fbin header")
    files = {}
    for utt in archive.utterance_ids():
        mat = archive.frames(utt)
        if format == "binary":
            header = _FBIN_HEADER.pack(
                FBIN_MAGIC, FBIN_VERSION, mat.shape[1], mat.shape[0], archive.frame_period
            )
            files[f"{utt}.fbin"] = header + mat.astype("<f4").tobytes()
        else:
            # a float32 value widens exactly, so the Python float's repr is
            # the same text as repr(float(v)) on the element
            files[f"{utt}.ftxt"] = lines_bytes(
                [f"dim={mat.shape[1]} period_us={archive.frame_period}"]
                + [" ".join(map(repr, row)) for row in mat.tolist()]
            )
    return files


# ---------------------------------------------------------------------------
# item files and label tracks


def _parse_span(path, line_no: int, onset_s: str, offset_s: str) -> tuple[float, float]:
    """A row's (onset, offset) in seconds: finite, onset >= 0, offset >
    onset and a finite count of microseconds, or a RowError naming the line."""
    try:
        onset, offset = float(onset_s), float(offset_s)
    except ValueError:
        raise RowError(path, line_no, f"non-numeric time {onset_s!r}/{offset_s!r}") from None
    if not (math.isfinite(onset) and math.isfinite(offset)) or onset < 0:
        raise RowError(path, line_no, "times must be finite and onset >= 0")
    if offset <= onset:
        raise RowError(path, line_no, f"offset {offset} <= onset {onset}")
    if not math.isfinite(offset * 1e6):
        raise RowError(path, line_no, f"time {offset_s!r} s overflows a microsecond count")
    return onset, offset


def load_item_file(path) -> list[ItemSegment]:
    segments = []
    for i, parts in read_rows(path, "item file", n_fields=7, header=ITEM_HEADER):
        utt, onset_s, offset_s, phone, prev, nxt, speaker = parts
        onset, offset = _parse_span(path, i, onset_s, offset_s)
        if "," in phone or "," in prev or "," in nxt:  # pairwise.csv holds them
            raise RowError(path, i, "a phone or context label holds a comma")
        segments.append(ItemSegment(utt, onset, offset, phone, prev, nxt, speaker))
    return segments


def item_file_bytes(segments) -> bytes:
    return lines_bytes([ITEM_HEADER] + [
        f"{s.utt} {s.onset:.6f} {s.offset:.6f} {s.phone} {s.prev} {s.next} {s.speaker}"
        for s in segments
    ])


def load_label_track(path) -> list[FrameLabelTrack]:
    per_utt: dict[str, list[tuple[float, float, str]]] = {}
    for i, parts in read_rows(path, "label file", sep="\t", n_fields=4):
        utt, onset_s, offset_s, label = parts
        onset, offset = _parse_span(path, i, onset_s, offset_s)
        if not label or "," in label:  # the confusion CSVs hold it
            raise RowError(path, i, f"label {label!r} is empty or holds a comma")
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
    return lines_bytes(
        f"{track.utt}\t{onset:.6f}\t{offset:.6f}\t{label}"
        for track in tracks
        for onset, offset, label in track.spans
    )
