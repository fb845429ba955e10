"""The input contract of every loader, and of ``eval`` end to end, fuzzed.

Whatever text or bytes a user hands abxlab, a loader either parses them
or raises an AbxlabError whose exit code is 2 (usage) or 3 (data).  Any
other exception, including a numpy warning (the suite turns
RuntimeWarning into an error), is a fault in the loader.
"""

import json
import struct
import tempfile

from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from abxlab import cli
from abxlab.abx import PAIRWISE_HEADER
from abxlab.af_tables import load_af_table
from abxlab.apc import load_checkpoint
from abxlab.corpus import ITEM_HEADER, load_feature_archive, load_item_file, load_label_track
from abxlab.errors import AbxlabError
from abxlab.synth import SynthConfig, generate_corpus, write_corpus

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
@example(data=f"{ITEM_HEADER}\nu01 1e303 1e304 AA S T s01\n")
def test_item_file(tmp_path, data):
    _loads_or_fails_cleanly(load_item_file, tmp_path / "x.item", data)


@FUZZ
@given(data=st.one_of(_TEXT, st.binary(max_size=64)))
@example(data="u\t0\t1\ta\nu\t0.5\t2\tb\n")
@example(data="u\t0\t0.1\ta\nu\t1e303\t1e304\tb\n")
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


@FUZZ
@given(data=st.one_of(_TEXT, st.binary(max_size=64)))
@example(data="category,rate\na,1e999\n")
def test_csv_rate_map(tmp_path, data):
    _loads_or_fails_cleanly(cli._load_rate_map, tmp_path / "rates.csv", data)


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


@pytest.fixture(scope="module")
def tiny_corpus():
    return generate_corpus(SynthConfig(phones=("a", "b"), n_speakers=2, dim=3,
                                       segments_per_cell=3, frames_per_segment=(2, 4),
                                       seed=7))


def _mutate(kind, corpus, paths, pick, cut, value):
    """Apply one mutation to ``corpus`` as written to ``paths``; ``pick``
    and ``cut`` choose the file, row or byte modulo what there is."""
    utts = corpus.archive.utterance_ids()
    utt = utts[pick % len(utts)]
    fbin = paths["features"] / f"{utt}.fbin"
    raw = fbin.read_bytes()
    items = paths["items"].read_text().splitlines()
    row = 1 + pick % (len(items) - 1)
    if kind == "truncated fbin":
        fbin.write_bytes(raw[:cut % len(raw)])
    elif kind == "non-finite frame":
        head = struct.calcsize("<4sIIII")
        at = head + 4 * (cut % ((len(raw) - head) // 4))
        fbin.write_bytes(raw[:at] + struct.pack("<f", value) + raw[at + 4:])
    elif kind == "span past the end":
        fields = items[row].split()
        end = corpus.archive.n_frames(fields[0]) * corpus.archive.frame_period / 1e6
        onset = end + (cut % 5) * corpus.archive.frame_period / 1e6
        items[row] = " ".join([fields[0], f"{onset:.6f}", f"{onset + 0.03:.6f}"] + fields[3:])
    elif kind == "overflowing time":
        fields = items[row].split()
        items[row] = " ".join([fields[0], "1e303", "1e304"] + fields[3:])
    else:  # no item header
        items = items[1:]
    paths["items"].write_text("\n".join(items) + "\n")


_EVAL_MUTATIONS = ("truncated fbin", "non-finite frame", "span past the end",
                   "overflowing time", "no item header")


@pytest.mark.parametrize("kind", _EVAL_MUTATIONS)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mode=st.sampled_from(["within", "across"]), pick=st.integers(0, 2**16),
       cut=st.integers(0, 2**16),
       value=st.sampled_from([float("nan"), float("inf"), float("-inf")]))
def test_mutated_eval_inputs_exit_cleanly(tmp_path, capsys, tiny_corpus, kind, mode, pick,
                                          cut, value):
    """Each mutation of a tiny synth corpus makes ``eval`` exit 2, 3 or 4
    with one ``abxlab: error:`` line and no traceback, and write nothing.

    No mutation pushes a frame outside the cosine distance's norm range: a
    float32 frame's squared norm, taken in float64, is 0 or lies inside
    [2^-511, 2^511], so that check cannot fire from an archive."""
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        paths = write_corpus(tiny_corpus, f"{work}/corpus")
        _mutate(kind, tiny_corpus, paths, pick, cut, value)
        out = Path(work) / "out"
        capsys.readouterr()
        rc = cli.main(["eval", "--features", str(paths["features"]),
                       "--items", str(paths["items"]), "--mode", mode, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc in (2, 3, 4), err
        assert err.startswith("abxlab: error:")
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())
