"""Run manifests and atomic output writing.

Every CLI command leaves a manifest.json next to its outputs recording
the exact command, the merged effective config, a sha256 per input
file, the tool version, the seed and the wall time.  Reports are never
written partially: all files land under temporary names first and are
renamed only after every write succeeded.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .errors import UsageError


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_inputs(paths) -> dict:
    """Per-file sha256 for every input; directories are walked sorted."""
    digests = {}
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for f in sorted(p.rglob("*")):
                if f.is_file():
                    digests[str(f)] = sha256_file(f)
        else:
            digests[str(p)] = sha256_file(p)
    return digests


def verify_digests(digests: dict) -> list:
    """Paths whose current content no longer matches the manifest."""
    stale = []
    for path, want in digests.items():
        if not Path(path).is_file() or sha256_file(path) != want:
            stale.append(path)
    return stale


@dataclass
class RunManifest:
    command: list
    config: dict
    inputs: dict
    seed: int | None = None
    wall_time_s: float = 0.0
    tool_version: str = __version__

    def to_json_bytes(self) -> bytes:
        doc = {
            "command": self.command,
            "config": self.config,
            "inputs": self.inputs,
            "seed": self.seed,
            "tool_version": self.tool_version,
            "wall_time_s": round(self.wall_time_s, 6),
        }
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise UsageError(
            f"cannot create output directory {path}: it or a parent is a file"
        ) from None


def write_outputs(out_dir, files: dict) -> None:
    """Write {relative name: bytes} atomically into out_dir.

    Everything goes to .tmp-<pid> names first; renames happen only after
    all writes succeed, so a failing command leaves no partial reports.
    A directory that cannot be made because a regular file is in its
    way, or an output name taken by a directory, is a usage error (exit 2).
    """
    out = Path(out_dir)
    _make_dir(out)
    staged = []
    try:
        for name, data in files.items():
            final = out / name
            _make_dir(final.parent)
            if final.is_dir():
                raise UsageError(f"cannot write {final}: it is a directory")
            tmp = final.with_name(f"{final.name}.tmp-{os.getpid()}")
            tmp.write_bytes(data)
            staged.append((tmp, final))
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
    for tmp, final in staged:
        os.replace(tmp, final)
