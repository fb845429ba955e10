import json
import math

import numpy as np
import pytest

from abxlab.abx import score_corpus
from abxlab.corpus import load_feature_archive, load_item_file, load_label_track
from abxlab.errors import UsageError
from abxlab.synth import SynthConfig, generate_corpus, write_corpus


def all_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# config


def test_config_round_trip_and_unknown_key():
    cfg = SynthConfig(phones=("AE", "K"), dim=5, n_speakers=3, noise_scale=0.2, seed=7)
    assert SynthConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(UsageError):
        SynthConfig.from_dict({"seed": 1, "frames": (2, 3)})


def test_config_validation():
    with pytest.raises(UsageError):
        SynthConfig(phones=())
    with pytest.raises(UsageError):
        SynthConfig(phones=("AE", "AE"))
    with pytest.raises(UsageError):
        SynthConfig(dim=2, phones=("A", "B", "C"))  # one-hot needs dim >= phones
    for bad in (-0.1, math.nan, math.inf):
        for key in ("noise_scale", "speaker_offset_scale"):
            with pytest.raises(UsageError):
                SynthConfig(**{key: bad})
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(UsageError):
            SynthConfig(mean_scale=bad)
    with pytest.raises(UsageError):
        SynthConfig(seed=-1)
    with pytest.raises(UsageError):
        SynthConfig(frames_per_segment=(5, 3))
    with pytest.raises(UsageError):
        SynthConfig(frames_per_segment=(0, 3))
    with pytest.raises(UsageError):
        SynthConfig(n_speakers=0)
    with pytest.raises(UsageError):
        SynthConfig(contexts=())
    with pytest.raises(UsageError):  # each cell gets segments_per_cell once
        SynthConfig(contexts=(("S", "T"), ("K", "N"), ("S", "T")))


# ---------------------------------------------------------------------------
# generation invariants


def test_corpus_shape_invariants():
    cfg = SynthConfig(
        phones=("AE", "EH"), n_speakers=3, dim=4, segments_per_cell=2,
        frames_per_segment=(2, 5), noise_scale=0.3, seed=11,
    )
    corpus = generate_corpus(cfg)
    assert corpus.archive.utterance_ids() == ["u01", "u02", "u03"]
    assert len(corpus.segments) == 3 * 2 * 2 * 2  # speakers x contexts x phones x per-cell

    per_cell = {}
    period = cfg.frame_period
    for seg in corpus.segments:
        per_cell.setdefault((seg.phone, seg.context, seg.speaker), []).append(seg)
        frames = round((seg.offset - seg.onset) * 1e6 / period)
        assert 2 <= frames <= 5
        # boundaries sit on the frame grid
        assert round(seg.onset * 1e6) % period == 0
    assert set(map(len, per_cell.values())) == {2}

    # segments tile each utterance exactly
    for utt in corpus.archive.utterance_ids():
        segs = sorted(s for s in corpus.segments if s.utt == utt)
        assert segs[0].onset == 0.0
        for a, b in zip(segs, segs[1:]):
            assert a.offset == pytest.approx(b.onset, abs=1e-12)
        total = round(segs[-1].offset * 1e6 / period)
        assert total == corpus.archive.n_frames(utt)

    # label tracks mirror the segments
    for track in corpus.tracks:
        spans = [s for s in corpus.segments if s.utt == track.utt]
        assert [(x.onset, x.offset, x.phone) for x in sorted(spans)] == list(track.spans)


def test_determinism_same_seed_same_bytes(tmp_path):
    cfg = SynthConfig(noise_scale=0.4, speaker_offset_scale=0.2, seed=3)
    write_corpus(generate_corpus(cfg), tmp_path / "a")
    write_corpus(generate_corpus(cfg), tmp_path / "b")
    assert all_bytes(tmp_path / "a") == all_bytes(tmp_path / "b")


def test_different_seeds_differ():
    cfg_a = SynthConfig(noise_scale=0.4, seed=3)
    cfg_b = SynthConfig(noise_scale=0.4, seed=4)
    a = generate_corpus(cfg_a).archive
    b = generate_corpus(cfg_b).archive
    assert any(
        a.n_frames(u) != b.n_frames(u) or not np.array_equal(a.frames(u), b.frames(u))
        for u in a.utterance_ids()
    )


def test_noise_scale_zero_gives_exact_means():
    cfg = SynthConfig(phones=("AE", "EH"), dim=3, n_speakers=1, seed=0)
    corpus = generate_corpus(cfg)
    for seg in corpus.segments:
        start = round(seg.onset * 1e6 / cfg.frame_period)
        end = round(seg.offset * 1e6 / cfg.frame_period)
        rows = corpus.archive.frames(seg.utt)[start:end]
        want = np.zeros(3, dtype=np.float32)
        want[cfg.phones.index(seg.phone)] = 1.0
        assert np.array_equal(rows, np.tile(want, (end - start, 1)))


def test_noise_draws_do_not_depend_on_scale():
    # same seed, different noise scale: segment lengths must be identical
    base = generate_corpus(SynthConfig(noise_scale=0.0, seed=9))
    noisy = generate_corpus(SynthConfig(noise_scale=0.8, seed=9))
    assert [
        (s.utt, s.onset, s.offset, s.phone) for s in base.segments
    ] == [(s.utt, s.onset, s.offset, s.phone) for s in noisy.segments]


def test_write_corpus_round_trips(tmp_path):
    cfg = SynthConfig(noise_scale=0.5, speaker_offset_scale=0.3, seed=6)
    corpus = generate_corpus(cfg)
    paths = write_corpus(corpus, tmp_path)
    archive = load_feature_archive(paths["features"])
    segments = load_item_file(paths["items"])
    tracks = load_label_track(paths["labels"])
    for utt in corpus.archive.utterance_ids():
        assert np.array_equal(archive.frames(utt), corpus.archive.frames(utt))
    assert len(segments) == len(corpus.segments)
    assert {s.phone for s in segments} == set(cfg.phones)
    assert len(tracks) == len(corpus.tracks)

    sidecar = json.loads(paths["sidecar"].read_text())
    assert sidecar["generator"]["name"] == "PCG64"
    assert SynthConfig.from_dict(sidecar["config"]) == cfg

    direct = score_corpus(corpus.archive, corpus.segments, "within", "phone")
    reloaded = score_corpus(archive, segments, "within", "phone")
    assert direct.to_json_bytes() == reloaded.to_json_bytes()


def test_write_corpus_refuses_stale_feature_files(tmp_path):
    write_corpus(generate_corpus(SynthConfig(n_speakers=3, seed=7)), tmp_path)
    before = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    with pytest.raises(UsageError, match=r"holds 1 feature file\(s\).*\(first u03\.fbin\)"):
        write_corpus(generate_corpus(SynthConfig(n_speakers=2, seed=7)), tmp_path)
    assert {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()} == before
    # the same names again are written over
    write_corpus(generate_corpus(SynthConfig(n_speakers=3, seed=8)), tmp_path)
    assert len(load_feature_archive(tmp_path / "features").utterance_ids()) == 3


# ---------------------------------------------------------------------------
# analytic oracle behavior


def test_separable_corpus_scores_zero():
    cfg = SynthConfig(
        phones=("AE", "EH", "IY"), dim=4, n_speakers=2,
        speaker_offset_scale=0.2, noise_scale=0.0, seed=1,
    )
    corpus = generate_corpus(cfg)
    for mode in ("within", "across"):
        report = score_corpus(corpus.archive, corpus.segments, mode, "phone")
        assert report.overall == 0.0
        assert f"{report.overall:.6f}" == "0.000000"


def test_constant_corpus_scores_half():
    cfg = SynthConfig(phones=("AE", "EH"), dim=3, n_speakers=2, mean_scale=0.0, seed=1)
    corpus = generate_corpus(cfg)
    for mode in ("within", "across"):
        report = score_corpus(corpus.archive, corpus.segments, mode, "phone")
        assert report.overall == 0.5
        assert f"{report.overall:.6f}" == "0.500000"


def test_noise_sweep_is_monotone_here():
    rates = []
    for noise in (0.0, 0.3, 1.2):
        corpus = generate_corpus(
            SynthConfig(
                phones=("AE", "EH"), dim=4, n_speakers=2,
                noise_scale=noise, segments_per_cell=4, seed=12,
            )
        )
        report = score_corpus(corpus.archive, corpus.segments, "within", "phone")
        rates.append(report.overall)
    assert rates[0] == 0.0
    assert rates[0] <= rates[1] + 0.02
    assert rates[1] <= rates[2] + 0.02
