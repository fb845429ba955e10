"""Metamorphic invariants of ``eval``: relabellings and reorderings of the
inputs that leave ``report.json`` (with ``--per-cell``) and ``pairwise.csv``
byte-identical, or that change no rate but through the sorted label order
a fold runs in."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from abxlab import abx, cli
from abxlab.corpus import (FeatureArchive, feature_archive_files, item_file_bytes,
                           time_to_frame, write_outputs)
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


@pytest.mark.parametrize("mode,cap", CASES)
def test_split_utterances_keep_every_byte(corpus, baseline, tmp_path, mode, cap):
    # each utterance splits at the onset frame k of its middle item row:
    # frames [:k] become <utt>a, frames [k:] become <utt>b, and the rows
    # of the second half move back by k frames
    archive, period = corpus.archive, corpus.archive.frame_period
    utterances, segments = {}, []
    for utt in archive.utterance_ids():
        rows = sorted((s for s in corpus.segments if s.utt == utt), key=lambda s: s.onset)
        k = time_to_frame(rows[len(rows) // 2].onset, period)
        assert 0 < k < len(archive.frames(utt))
        utterances[f"{utt}a"] = archive.frames(utt)[:k]
        utterances[f"{utt}b"] = archive.frames(utt)[k:]
        shift = k * period / 1e6
        for s in rows:
            if time_to_frame(s.onset, period) < k:
                assert time_to_frame(s.offset, period) <= k
                segments.append(dataclasses.replace(s, utt=f"{utt}a"))
            else:
                segments.append(dataclasses.replace(s, utt=f"{utt}b", onset=s.onset - shift,
                                                    offset=s.offset - shift))
    inputs = write_inputs(tmp_path / "inputs", FeatureArchive(utterances, period), segments)
    assert eval_bytes(inputs, tmp_path / "eval", mode, cap) == baseline[(mode, cap)]


def rates(outputs, back=lambda label: label):
    """Each per-cell epsilon and each full-precision ``pairwise.csv`` rate,
    keyed with its labels mapped through ``back`` and its category pair
    unordered: epsilon, unlike eta_xy and eta_yx, does not depend on the
    pair's order."""
    cells = json.loads(outputs["report.json"])["per_cell"]
    rows = list(csv.DictReader(io.StringIO(outputs["pairwise.csv"].decode())))
    by_cell = {(frozenset(map(back, (c["category_x"], c["category_y"]))),
                tuple(map(back, c["context"])), c["speaker_ab"], c["speaker_x"]): c["epsilon"]
               for c in cells}
    by_row = {(frozenset(map(back, (r["category_x"], r["category_y"]))),
               back(r["context_prev"]), back(r["context_next"]), r["condition"]): r["rate"]
              for r in rows}
    assert len(by_cell) == len(cells) > 0 and len(by_row) == len(rows) > 0
    return by_cell, by_row


@pytest.mark.parametrize("mode", ["within", "across"])
def test_a_phone_rename_that_reverses_sort_order_keeps_every_rate(corpus, baseline, tmp_path,
                                                                  mode):
    # uncapped only: under the cap the draw follows sorted label order
    rename = {"AE": "ZZ", "EH": "AA", "IY": "MM"}
    assert sorted(rename, key=rename.get) != sorted(rename)
    segments = [dataclasses.replace(s, **{f: rename.get(getattr(s, f), getattr(s, f))
                                          for f in ("phone", "prev", "next")})
                for s in corpus.segments]
    inputs = write_inputs(tmp_path / "inputs", corpus.archive, segments)
    back = {v: k for k, v in rename.items()}
    got = rates(eval_bytes(inputs, tmp_path / "eval", mode, None), lambda p: back.get(p, p))
    assert got == rates(baseline[(mode, None)])


# the shape of the benchmark's within-phone corpus
SPEAKER_CORPUS = SynthConfig(
    phones=("AA", "AE", "EH", "IY", "UW", "OW"), n_speakers=4, dim=13, segments_per_cell=6,
    frames_per_segment=(6, 14), noise_scale=0.5, speaker_offset_scale=0.3,
    contexts=(("S", "T"), ("K", "N"), ("P", "D")), seed=1,
)


def bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("mode", ["within", "across"])
def test_a_speaker_rename_changes_only_the_fold_order(mode):
    # uncapped only: under the cap the draw follows sorted label order
    corpus = generate_corpus(SPEAKER_CORPUS)
    speakers = sorted({s.speaker for s in corpus.segments})
    rename = {s: f"t{len(speakers) - i:02d}" for i, s in enumerate(speakers)}
    assert sorted(speakers, key=rename.get) == speakers[::-1]
    segments = [dataclasses.replace(s, speaker=rename[s.speaker]) for s in corpus.segments]
    base = abx.score_corpus(corpus.archive, corpus.segments, mode, "phone")
    got = abx.score_corpus(corpus.archive, segments, mode, "phone")
    back = {v: k for k, v in rename.items()}

    def cells(report, label=lambda s: s):
        return {(c.category_x, c.category_y, c.context, label(c.speaker_ab),
                 label(c.speaker_x)): bits((c.eta_xy, c.eta_yx, c.epsilon))
                for c in report.per_cell}

    assert cells(got, back.get) == cells(base)
    # each context folds the same epsilons, now in the renamed speakers' order
    renamed_order = sorted(base.per_cell,
                           key=lambda c: (rename[c.speaker_ab], rename[c.speaker_x]))
    folded = abx.means(((c.category_x, c.category_y, c.context), c.epsilon)
                       for c in renamed_order)
    assert folded.keys() == got.context_rates.keys()
    assert bits(folded.values()) == bits(got.context_rates.values())
    # the fold order is the whole change, and here it moves some rates
    assert bits(base.context_rates.values()) != bits(got.context_rates.values())
