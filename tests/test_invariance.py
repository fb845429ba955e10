"""Metamorphic invariants of ``eval``: relabellings and reorderings of the
inputs that leave ``report.json`` (with ``--per-cell``) and ``pairwise.csv``
byte-identical."""

import dataclasses
import json

import numpy as np
import pytest

from abxlab import cli
from abxlab.corpus import FeatureArchive, feature_archive_files, item_file_bytes
from abxlab.manifest import write_outputs
from abxlab.synth import SynthConfig, generate_corpus

# four speakers give 12 ordered speaker pairs across, so a cap of 2 draws
CORPUS = SynthConfig(
    phones=("AE", "EH", "IY"), n_speakers=4, dim=4, segments_per_cell=2,
    frames_per_segment=(2, 5), noise_scale=0.6, speaker_offset_scale=0.3, seed=11,
)
CASES = [(mode, cap) for mode in ("within", "across") for cap in (None, 2)]


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CORPUS)


def write_inputs(out, archive, segments):
    write_outputs(out, {
        **{f"features/{n}": b for n, b in feature_archive_files(archive).items()},
        "items.item": item_file_bytes(segments),
    })
    return out


def eval_bytes(inputs, out, mode, cap):
    argv = ["eval", "--features", str(inputs / "features"),
            "--items", str(inputs / "items.item"), "--mode", mode, "--per-cell",
            "--out", str(out)]
    if cap is not None:
        argv += ["--max-speaker-pairs", str(cap)]
    assert cli.main(argv) == 0
    return {name: (out / name).read_bytes() for name in ("report.json", "pairwise.csv")}


@pytest.fixture(scope="module")
def baseline(corpus, tmp_path_factory):
    """Each case's output bytes on the corpus as generated."""
    tmp = tmp_path_factory.mktemp("baseline")
    inputs = write_inputs(tmp / "inputs", corpus.archive, corpus.segments)
    return {case: eval_bytes(inputs, tmp / f"{case[0]}-{case[1]}", *case) for case in CASES}


def test_the_cap_draws_across(baseline):
    report = json.loads(baseline[("across", 2)]["report.json"])
    assert report["metadata"]["capped_speaker_pairs"] > 0


@pytest.mark.parametrize("mode,cap", CASES)
@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_item_row_order_keeps_every_byte(corpus, baseline, tmp_path, mode, cap, order):
    segments = corpus.segments[::-1]
    if order == "shuffled":
        rng = np.random.default_rng(3)
        segments = [corpus.segments[i] for i in rng.permutation(len(corpus.segments))]
    assert segments != corpus.segments
    inputs = write_inputs(tmp_path / "inputs", corpus.archive, segments)
    assert eval_bytes(inputs, tmp_path / "eval", mode, cap) == baseline[(mode, cap)]


@pytest.mark.parametrize("mode,cap", CASES)
def test_utterance_names_in_reverse_sort_order_keep_every_byte(corpus, baseline, tmp_path,
                                                               mode, cap):
    utts = corpus.archive.utterance_ids()
    assert len(utts) > 1
    renamed = {u: f"r{len(utts) - i:02d}" for i, u in enumerate(utts)}
    assert sorted(renamed, key=renamed.get) == utts[::-1]
    archive = FeatureArchive({renamed[u]: corpus.archive.frames(u) for u in utts},
                             corpus.archive.frame_period)
    segments = [dataclasses.replace(s, utt=renamed[s.utt]) for s in corpus.segments]
    inputs = write_inputs(tmp_path / "inputs", archive, segments)
    assert eval_bytes(inputs, tmp_path / "eval", mode, cap) == baseline[(mode, cap)]
