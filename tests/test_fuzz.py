"""The input contract of every loader, fuzzed.

Whatever text or bytes a user hands abxlab, a loader either parses them
or raises an AbxlabError whose exit code is 2 (usage) or 3 (data).  Any
other exception, including a numpy warning (the suite turns
RuntimeWarning into an error), is a fault in the loader.
"""

import json
import struct

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from abxlab import cli
from abxlab.abx import PAIRWISE_HEADER
from abxlab.af_tables import load_af_table
from abxlab.apc import load_checkpoint
from abxlab.corpus import ITEM_HEADER, load_feature_archive, load_item_file, load_label_track
from abxlab.errors import AbxlabError

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# characters the formats give meaning to, mixed with any others
_ALPHABET = st.one_of(st.sampled_from(list("0123456789.,-+eE \t\n\r#=_:xabnfiINF")),
                      st.characters(codec="utf-8"))
_TEXT = st.text(alphabet=_ALPHABET, max_size=200)


def _loads_or_fails_cleanly(load, path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data.encode() if isinstance(data, str) else data)
    try:
        load(path)
    except AbxlabError as e:
        assert e.exit_code in (2, 3), e


def _archive(path):
    return load_feature_archive(path.parent)


def _fbin(dim, n, period, payload):
    return struct.pack("<4sIIII", b"FEAT", 1, dim, n, period) + payload


@FUZZ
@given(data=st.one_of(
    st.binary(max_size=64),
    st.builds(_fbin, st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**32 - 1),
              st.binary(max_size=48)),
))
@example(data=_fbin(1, 1, 10000, struct.pack("<f", float("nan"))))
@example(data=_fbin(1, 1, 0, b"\0" * 4))
def test_fbin(tmp_path, data):
    _loads_or_fails_cleanly(_archive, tmp_path / "fbin" / "u.fbin", data)


@FUZZ
@given(data=st.one_of(_TEXT, st.binary(max_size=64),
                      st.builds("dim={} period_us={}\n{}".format,
                                st.integers(-1, 3), st.integers(-1, 20000), _TEXT)))
@example(data="dim=1 period_us=10000\n1e300\n")
@example(data="\ndim=1 period_us=10000\n1\n")
def test_ftxt(tmp_path, data):
    _loads_or_fails_cleanly(_archive, tmp_path / "ftxt" / "u.ftxt", data)


@FUZZ
@given(data=st.one_of(_TEXT, st.binary(max_size=64), _TEXT.map(f"{ITEM_HEADER}\n".__add__)))
@example(data=f"{ITEM_HEADER}\nu 0 1e999 a b c s\n")
def test_item_file(tmp_path, data):
    _loads_or_fails_cleanly(load_item_file, tmp_path / "x.item", data)


@FUZZ
@given(data=st.one_of(_TEXT, st.binary(max_size=64)))
@example(data="u\t0\t1\ta\nu\t0.5\t2\tb\n")
def test_label_track(tmp_path, data):
    _loads_or_fails_cleanly(load_label_track, tmp_path / "x.tsv", data)


@FUZZ
@given(data=st.one_of(_TEXT, st.binary(max_size=64)))
@example(data="AA\tOpen\nAA\t__EXCLUDED__\n")
def test_af_table(tmp_path, data):
    _loads_or_fails_cleanly(load_af_table, tmp_path / "table.tsv", data)


@FUZZ
@given(data=st.one_of(_TEXT, st.binary(max_size=64), _TEXT.map(f"{PAIRWISE_HEADER}\n".__add__)))
@example(data=f"{PAIRWISE_HEADER}\na,b,c,d,e,1e999\n")
def test_pairwise_csv(tmp_path, data):
    _loads_or_fails_cleanly(cli._read_pairwise_csv, tmp_path / "pairwise.csv", data)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=4),
    max_leaves=12,
)


@pytest.mark.parametrize("key", ["xi", "p_co"])
@FUZZ
@given(data=st.one_of(_TEXT, st.binary(max_size=64), _JSON.map(json.dumps),
                      st.dictionaries(st.sampled_from(["xi", "p_co", "a"]), _JSON)
                      .map(json.dumps)))
@example(data='{"a": 1' + "0" * 400 + "}")
@example(data='{"a": true}')
@example(data="[" * 100000)
def test_json_rate_map(tmp_path, key, data):
    _loads_or_fails_cleanly(lambda p: cli._load_rate_map(p, key), tmp_path / "rates.json",
                            data)


@FUZZ
@given(data=st.one_of(_TEXT, st.binary(max_size=64)))
@example(data="category,rate\na,1e999\n")
def test_csv_rate_map(tmp_path, data):
    _loads_or_fails_cleanly(lambda p: cli._load_rate_map(p, "xi"), tmp_path / "rates.csv",
                            data)


def _ckpt(block, payload):
    return b"APC1" + struct.pack("<I", len(block)) + block + payload


@FUZZ
@given(data=st.one_of(
    st.binary(max_size=64),
    st.builds(_ckpt, st.binary(max_size=32) | _JSON.map(lambda d: json.dumps(d).encode()),
              st.binary(max_size=64)),
))
@example(data=_ckpt(b"[" * 100000, b""))
@example(data=_ckpt(b'{"L": 1, "hidden_dim": 1' + b"0" * 30 + b', "input_dim": 1}', b""))
def test_checkpoint(tmp_path, data):
    _loads_or_fails_cleanly(load_checkpoint, tmp_path / "apc.ckpt", data)
