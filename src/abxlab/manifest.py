"""Run manifests: the JSON config and the encodings of written files.

Every CLI command leaves a manifest.json next to its outputs recording
the exact command, the merged effective config, a sha256 per input file
read (``corpus.recording_reads``), the tool version, the seed, the wall
time and the run's stats; ``cli.main`` builds it as a plain dict, encodes
it with ``json_bytes`` and writes it with ``corpus.write_outputs``.
``read_json`` is the one decoder of JSON from outside the program.
"""

from __future__ import annotations

import json
from dataclasses import fields
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .errors import UsageError


def _from_json(value, hint):
    """``value`` checked against ``hint``, arrays as tuples; TypeError if it
    does not conform.  Values are never coerced: 8.0 is not an int."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # X | None
        return None if value is None else _from_json(value, args[0])
    if origin is tuple and isinstance(value, (list, tuple)):
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        if len(value) == len(args):
            return tuple(map(_from_json, value, args))
    elif origin is None and not isinstance(value, bool) and isinstance(
        value, (int, float) if hint is float else hint
    ):
        return value
    raise TypeError


class JsonConfig:
    """JSON form of a frozen config dataclass, read from its fields.

    ``from_dict`` is where a config document from outside the program (a
    ``--config`` file merged with flags, a checkpoint's config block) is
    checked: keys must be field names, and each value must match its
    field's annotation (``int`` is a JSON integer, ``float`` any JSON
    number, tuples are arrays) before ``__post_init__`` checks ranges.
    Every failure is a UsageError.
    """

    def to_dict(self) -> dict:
        """{field: value}; json.dumps writes its tuples as arrays."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc):
        name = cls.__name__
        if not isinstance(doc, dict):
            raise UsageError(f"{name} must be a JSON object, got {type(doc).__name__}")
        hints = get_type_hints(cls)
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise UsageError(f"unknown {name} keys: {sorted(unknown)}")
        kw = {}
        for key, value in doc.items():
            hint = hints[key]
            try:
                kw[key] = _from_json(value, hint)
            except TypeError:
                want = hint if get_args(hint) else hint.__name__
                raise UsageError(f"{name}.{key} must be {want}, got {value!r}") from None
        try:
            return cls(**kw)
        except (TypeError, ValueError, OverflowError) as e:
            raise UsageError(f"bad {name} config: {e}") from None


def read_json(text: str, where, error):
    """The JSON document in ``text`` (from ``where``), the one decoder of
    JSON from outside the program; invalid or too deeply nested JSON, or a
    key repeated in any object, raises ``error``."""
    def unique_keys(pairs):  # else the last value would win unseen
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise error(f"{where}: invalid JSON: repeated key {key!r}")
            seen.add(key)
        return dict(pairs)
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
        raise error(f"{where}: invalid JSON: {e}") from None


def json_bytes(doc) -> bytes:
    """The one JSON encoding of a written file: indented, keys sorted,
    newline-terminated."""
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def lines_bytes(lines) -> bytes:
    """The one line encoding of a written text file: each line ends in a
    newline, so no lines give no bytes."""
    return "".join(f"{line}\n" for line in lines).encode()
