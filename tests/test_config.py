"""Config documents from outside the program: ``read_json``, ``from_dict`` of
ApcConfig and SynthConfig, and the config block of an APC checkpoint."""

import json
import math
import struct
import sys
from dataclasses import fields
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abxlab import apc
from abxlab.apc import ApcConfig, init_model, load_checkpoint
from abxlab.errors import DataError, FormatError, UsageError
from abxlab.manifest import read_json
from abxlab.synth import SynthConfig

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def _near(hint):
    """Values shaped like ``hint``, so that some documents get past the
    type check and reach the range checks."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        return st.none() | _near(args[0])
    if origin is tuple:
        if args[-1] is Ellipsis:
            return st.lists(_near(args[0]), max_size=5)
        return st.tuples(*map(_near, args)).map(list)
    if origin is dict:
        return st.dictionaries(_near(args[0]), _near(args[1]), max_size=4)
    if hint is int:
        return st.integers(1, 40) | st.integers()
    if hint is float:
        return st.floats() | st.integers(-2, 3)
    return st.sampled_from(["AE", "EH", "IY", "S", "T", "lstm", "simple-rnn", "adam", "sgd"])


def documents(cls):
    """Documents of field values shaped like each field, of arbitrary JSON
    per field, with unknown keys added, and arbitrary JSON documents."""
    hints = get_type_hints(cls)

    def per_field(values):
        return st.fixed_dictionaries(
            {}, optional={f.name: values(hints[f.name]) for f in fields(cls)}
        )

    unknown = st.dictionaries(st.text(max_size=6), JSON, min_size=1, max_size=2)
    with_unknown = st.tuples(per_field(_near), unknown).map(lambda d: {**d[1], **d[0]})
    return per_field(_near) | per_field(lambda _: JSON) | with_unknown | JSON


def check_document(cls, doc):
    try:
        cfg = cls.from_dict(doc)
    except UsageError:
        return
    assert isinstance(cfg, cls)
    text = json.dumps(cfg.to_dict(), allow_nan=False)
    assert cls.from_dict(json.loads(text)) == cfg


@settings(max_examples=200, deadline=None)
@given(documents(ApcConfig))
@example({"n": 1.5})
@example({"hidden_dim": 2.5})
@example({"seed": "x"})
@example({"input_dim": 2.5})
@example({"batch_size": 1.5})
@example({"seed": -1})
@example({"epochs": True})
@example({"learning_rate": 10**400})
@example({"layers": 3})
@example([{"n": 1}])
def test_apc_config_document_is_config_or_usage_error(doc):
    check_document(ApcConfig, doc)


@settings(max_examples=200, deadline=None)
@given(documents(SynthConfig))
@example({"seed": 1, "dim": "x"})
@example({"seed": 1, "frames_per_segment": 5})
@example({"seed": 1, "contexts": [["S"]]})
@example({"seed": "abc"})
@example({"seed": 1, "phones": "AE"})
@example({"seed": -1})
@example({"seed": 1, "noise_scale": math.nan})
@example({"seed": 1, "speaker_offset_scale": math.inf})
@example({"seed": 1, "mean_scale": -math.inf})
@example({"seed": 1, "phones": ["a"], "dim": 1, "means": {"a": [math.nan]}})
@example({"seed": 1, "phones": ["a"], "dim": 1, "means": {"a": [10**400]}})
@example({"seed": 1, "frames": [2, 3]})
@example("seed")
def test_synth_config_document_is_config_or_usage_error(doc):
    check_document(SynthConfig, doc)


@pytest.mark.parametrize("cls, doc", [
    (ApcConfig, {"input_dim": 8.0}),  # an integer field takes JSON integers only
    (ApcConfig, {"epochs": True}),
    (ApcConfig, {"cell_kind": 1}),
    (ApcConfig, {"learning_rate": "0.1"}),
    (SynthConfig, {"dim": 8.0}),
    (SynthConfig, {"phones": "AE"}),  # a string is not an array of phones
    (SynthConfig, {"frames_per_segment": [2, 3, 4]}),
    (SynthConfig, {"contexts": [["S", 1]]}),
    (SynthConfig, {"phones": ["a"], "dim": 1, "means": {"a": ["1"]}}),
    (SynthConfig, {"phones": ["a"], "dim": 1, "means": [1.0]}),
    # labels that items.item (split on whitespace) or pairwise.csv (on commas)
    # cannot carry
    (SynthConfig, {"phones": [""]}),
    (SynthConfig, {"phones": ["a b"]}),
    (SynthConfig, {"phones": ["a\t"]}),
    (SynthConfig, {"phones": ["a,b"]}),
    (SynthConfig, {"contexts": [["S", ""]]}),
    (SynthConfig, {"contexts": [[" S", "T"]]}),
    (SynthConfig, {"contexts": [["S", "T,U"]]}),
])
def test_mistyped_values_are_rejected(cls, doc):
    with pytest.raises(UsageError):
        cls.from_dict(doc)


def test_values_are_checked_not_coerced():
    cfg = SynthConfig.from_dict({
        "seed": 1, "phones": ["a", "b"], "dim": 2, "noise_scale": 0,
        "frames_per_segment": [2, 3], "contexts": [["S", "T"]],
        "means": {"a": [1, 0], "b": [0, 1]},
    })
    assert cfg.phones == ("a", "b") and cfg.contexts == (("S", "T"),)
    assert cfg.means == {"a": (1, 0), "b": (0, 1)}
    doc = cfg.to_dict()
    assert doc["noise_scale"] == 0 and isinstance(doc["noise_scale"], int)
    assert doc["means"] == {"a": [1.0, 0.0], "b": [0.0, 1.0]}
    assert all(isinstance(v, float) for row in doc["means"].values() for v in row)
    assert ApcConfig.from_dict({"learning_rate": 1}).learning_rate == 1


def _checkpoint(doc, payload: bytes) -> bytes:
    block = json.dumps(doc).encode()
    return b"APC1" + struct.pack("<I", len(block)) + block + payload


@settings(max_examples=100, deadline=None)
@given(documents(ApcConfig), st.booleans(), st.integers(0, 64))
@example({"hidden_dim": 4.0, "input_dim": 2}, False, 0)
@example({"input_dim": 2, "L": 10**12}, False, 3)
@example({"n": 1, "L": 1, "hidden_dim": 2}, True, 0)
@example({"n": 1, "L": 1, "hidden_dim": 2, "input_dim": 1}, True, 0)
def test_checkpoint_config_block_is_model_or_format_error(tmp_path_factory, doc, exact,
                                                         n_values):
    try:
        cfg = ApcConfig.from_dict(doc)
        if exact and cfg.input_dim and max(cfg.L, cfg.hidden_dim, cfg.input_dim) <= 64:
            n_values = sum(map(math.prod, apc._param_shapes(cfg).values()))
    except UsageError:
        pass
    path = tmp_path_factory.getbasetemp() / "block.ckpt"
    path.write_bytes(_checkpoint(doc, bytes(8 * n_values)))
    try:
        model = load_checkpoint(path)
    except FormatError as e:
        assert e.exit_code == 3
        return
    assert model.theta.size == n_values
    assert model.config == ApcConfig.from_dict(doc)


@pytest.mark.parametrize("error", [UsageError, FormatError, DataError])
@pytest.mark.parametrize("text, key", [
    ('{"seed": 0, "seed": 9}', "seed"),
    ('{"means": {"a": [1], "b": [2], "a": [3]}, "seed": 1}', "a"),
    ('[{"n": 1}, {"L": 1, "L": 2}]', "L"),
])
def test_read_json_refuses_a_repeated_key(text, key, error):
    with pytest.raises(error, match=f"^cfg.json: invalid JSON: repeated key '{key}'$"):
        read_json(text, "cfg.json", error)


@pytest.mark.parametrize("error", [UsageError, FormatError])
@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,  # past the parser's recursion limit
    '{"seed": 1,}',
    pytest.param('{"seed": ' + "1" * 5000 + "}", marks=pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")),
])
def test_read_json_maps_bad_documents_to_the_callers_error(text, error):
    with pytest.raises(error, match="^cfg.json: invalid JSON: ") as info:
        read_json(text, "cfg.json", error)
    assert type(info.value) is error


def test_read_json_reads_unique_keys():
    assert read_json('{"a": {"b": [1, {"b": 2}]}, "b": 3}', "x", UsageError) == {
        "a": {"b": [1, {"b": 2}]}, "b": 3,
    }


def test_checkpoint_config_block_repeating_a_key_is_format_error(tmp_path):
    model = init_model(ApcConfig(n=1, L=1, hidden_dim=2, input_dim=1))
    block = json.dumps(model.config.to_dict(), sort_keys=True)
    assert block.endswith('"seed": 0}')
    block = block[:-1] + ', "seed": 9}'
    path = tmp_path / "repeat.ckpt"
    path.write_bytes(b"APC1" + struct.pack("<I", len(block)) + block.encode()
                     + model.theta.astype("<f8").tobytes())
    with pytest.raises(FormatError, match="bad config block: invalid JSON: repeated key 'seed'"):
        load_checkpoint(path)
