"""Acceptance gate: one test per release criterion.

Each criterion is a single test; the terminal summary (conftest) prints
one pass/fail line per criterion at the stated tolerance.
"""

import csv
import io
import json
import time

import numpy as np
import pytest

from abxlab import abx
from abxlab.abx import score_corpus
from abxlab.af_tables import BUILTIN_TABLES, load_af_table
from abxlab.analysis import (
    co_occurrence,
    confusion_matrix,
    pearson_correlation,
)
from abxlab.apc import (
    ApcConfig,
    checkpoint_bytes,
    forward,
    init_model,
    load_checkpoint,
    run_gradient_check,
    train,
)
from abxlab.corpus import (
    ITEM_HEADER,
    FeatureArchive,
    FrameLabelTrack,
    feature_archive_files,
    load_feature_archive,
    load_item_file,
    load_label_track,
)
from abxlab.distance import dtw_dissimilarity
from abxlab.errors import DataError, FormatError, RowError
from abxlab.manifest import write_outputs
from abxlab.synth import SynthConfig, generate_corpus
from abxlab import cli

from oracles import abx_ref, dtw_ref, dtw_scalar


def dist_for(corpus, zero_vector_distance=1.0):
    period = corpus.archive.frame_period
    cache = {}

    def d(a, b):
        key = (a, b)
        if key not in cache:
            fa = corpus.archive.frames(a.utt)
            fb = corpus.archive.frames(b.utt)
            pa = round(a.onset * 1e6 / period)
            qa = round(a.offset * 1e6 / period)
            pb = round(b.onset * 1e6 / period)
            qb = round(b.offset * 1e6 / period)
            cache[key] = dtw_scalar(fa[pa:qa], fb[pb:qb], zero_vector_distance)
        return cache[key]

    return d


def synth_cli(tmp, name, *flags):
    out = tmp / name
    rc = cli.main(["synth", *flags, "--out", str(out)])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------


def test_criterion_01_brute_force_equivalence():
    t0 = time.monotonic()
    for seed in range(25):
        n_phones = 2 + seed % 4          # 2..5
        n_speakers = 2 + seed % 2        # 2..3
        n_contexts = 1 + seed % 4        # 1..4
        phones = ("AE", "EH", "IY", "AA", "UW")[:n_phones]
        contexts = (("S", "T"), ("K", "N"), ("P", "M"), ("F", "L"))[:n_contexts]
        spc = 3 if n_phones * n_contexts * n_speakers * 3 <= 200 else 2
        cfg = SynthConfig(
            phones=phones, dim=max(n_phones, 4), n_speakers=n_speakers,
            contexts=contexts, segments_per_cell=spc,
            frames_per_segment=(2, 4), noise_scale=0.3 + 0.1 * (seed % 5),
            speaker_offset_scale=0.25, seed=seed,
        )
        corpus = generate_corpus(cfg)
        assert len(corpus.segments) <= 200
        mode = "within" if seed % 2 == 0 else "across"
        report = score_corpus(corpus.archive, corpus.segments, mode, "phone")
        per_cell, _, pairwise, overall = abx_ref(
            corpus.segments, dist_for(corpus), mode
        )
        assert len(report.per_cell) == len(per_cell)
        for cs in report.per_cell:
            assert cs.epsilon == per_cell[cs.key()], (seed, mode, cs.key())
        for pair, rate in report.pairwise.items():
            assert rate == pytest.approx(pairwise[pair], abs=1e-12)
        assert report.overall == pytest.approx(overall, abs=1e-12)
    assert time.monotonic() - t0 < 60.0


def test_criterion_02_analytic_oracles():
    separable = SynthConfig(
        phones=("AE", "EH", "IY"), dim=4, n_speakers=2,
        noise_scale=0.0, speaker_offset_scale=0.0, segments_per_cell=2, seed=0,
    )
    constant = SynthConfig(
        phones=("AE", "EH", "IY"), dim=4, n_speakers=2, mean_scale=0.0,
        noise_scale=0.0, speaker_offset_scale=0.0, segments_per_cell=2, seed=0,
    )
    for mode in ("within", "across"):
        corpus = generate_corpus(separable)
        report = score_corpus(corpus.archive, corpus.segments, mode, "phone")
        assert report.overall == 0.0
        assert f"{report.overall:.6f}" == "0.000000"
        corpus = generate_corpus(constant)
        report = score_corpus(corpus.archive, corpus.segments, mode, "phone")
        assert report.overall == 0.5
        assert f"{report.overall:.6f}" == "0.500000"


def test_criterion_03_scale_invariance():
    configs = [
        SynthConfig(phones=("AE", "EH", "IY"), dim=4, n_speakers=2,
                    noise_scale=0.5, speaker_offset_scale=0.3,
                    segments_per_cell=3, seed=3),
        SynthConfig(phones=("AE", "EH"), dim=4, n_speakers=2,
                    noise_scale=0.0, segments_per_cell=2, seed=1),
    ]
    for cfg in configs:
        for mode in ("within", "across"):
            corpus = generate_corpus(cfg)
            scaled = FeatureArchive(
                {u: corpus.archive.frames(u) * np.float32(2.5)
                 for u in corpus.archive.utterance_ids()},
                corpus.archive.frame_period,
            )
            a = score_corpus(corpus.archive, corpus.segments, mode, "phone")
            b = score_corpus(scaled, corpus.segments, mode, "phone")
            assert a.to_json_bytes() == b.to_json_bytes()
            assert a.to_csv_bytes() == b.to_csv_bytes()


def test_criterion_04_parallel_determinism(tmp_path, monkeypatch):
    corpus = synth_cli(
        tmp_path, "corpus", "--phones", "AE,EH,IY", "--dim", "4",
        "--speakers", "2", "--segments-per-cell", "3",
        "--noise-scale", "0.4", "--seed", "5",
    )
    reports = []
    # the default threshold scores this corpus inline, threshold 0 in the pool
    for threshold in (abx.POOL_MIN_DP_CELLS, 0):
        monkeypatch.setattr(abx, "POOL_MIN_DP_CELLS", threshold)
        for jobs in ("1", "8"):
            out = tmp_path / f"t{threshold}jobs{jobs}"
            rc = cli.main([
                "eval", "--features", str(corpus / "features"),
                "--items", str(corpus / "items.item"),
                "--mode", "within", "--jobs", jobs, "--out", str(out),
            ])
            assert rc == 0
            workers = json.loads((out / "manifest.json").read_text())["stats"]["workers"]
            assert (workers > 1) == (threshold == 0 and jobs == "8")
            reports.append((out / "report.json").read_bytes())
    assert all(r == reports[0] for r in reports)


def test_criterion_05_dtw_oracle():
    corpus = generate_corpus(SynthConfig(
        phones=("AE", "EH", "IY"), dim=4, n_speakers=2,
        noise_scale=0.6, speaker_offset_scale=0.4,
        segments_per_cell=2, frames_per_segment=(2, 5), seed=8,
    ))
    period = corpus.archive.frame_period
    mats = []
    for seg in corpus.segments:
        frames = corpus.archive.frames(seg.utt)
        p = round(seg.onset * 1e6 / period)
        q = round(seg.offset * 1e6 / period)
        mats.append(np.asarray(frames[p:q], dtype=np.float64))
    checked = 0
    for i, a in enumerate(mats):
        for b in mats[i:]:
            assert len(a) <= 5 and len(b) <= 5
            got = dtw_dissimilarity(a, b)
            want = dtw_ref(a.tolist(), b.tolist())
            assert got == pytest.approx(want, abs=1e-12)
            checked += 1
    assert checked > 100


def test_criterion_06_monotone_degradation():
    rates = []
    for noise in (0.0, 0.1, 0.2, 0.4, 0.8):
        corpus = generate_corpus(SynthConfig(
            phones=("AE", "EH", "IY"), dim=4, n_speakers=2,
            noise_scale=noise, speaker_offset_scale=0.2,
            segments_per_cell=4, seed=11,
        ))
        report = score_corpus(corpus.archive, corpus.segments, "within", "phone")
        assert report.metadata["comparisons"] >= 1000
        rates.append(report.overall)
    for lo, hi in zip(rates, rates[1:]):
        assert hi >= lo - 0.02, rates


GOLDEN_MOA = {
    "P": "Stop", "B": "Stop", "T": "Stop", "D": "Stop", "K": "Stop", "G": "Stop",
    "CH": "Affricate", "JH": "Affricate",
    "F": "Fricative", "V": "Fricative", "TH": "Fricative", "DH": "Fricative",
    "S": "Fricative", "Z": "Fricative", "SH": "Fricative", "ZH": "Fricative",
    "HH": "Fricative",
    "M": "Nasal", "N": "Nasal", "NG": "Nasal",
    "W": "Approximant", "L": "Approximant", "R": "Approximant", "Y": "Approximant",
}

GOLDEN_POA = {
    "P": "Bilabial", "B": "Bilabial", "M": "Bilabial", "W": "Bilabial",
    "F": "Labiodental", "V": "Labiodental",
    "TH": "Dental", "DH": "Dental",
    "T": "Alveolar", "D": "Alveolar", "S": "Alveolar", "Z": "Alveolar",
    "N": "Alveolar", "L": "Alveolar",
    "CH": "Postalveolar", "JH": "Postalveolar", "SH": "Postalveolar",
    "ZH": "Postalveolar", "R": "Postalveolar",
    "Y": "Palatal",
    "K": "Velar", "G": "Velar", "NG": "Velar",
    "HH": "Glottal",
}

GOLDEN_HEIGHT = {
    "IY": "Close", "IH": "Close", "UW": "Close", "UH": "Close",
    "EH": "Mid", "ER": "Mid", "AH": "Mid", "AO": "Mid",
    "AE": "Open", "AA": "Open",
}

GOLDEN_BACKNESS = {
    "IY": "Front", "IH": "Front", "EH": "Front", "AE": "Front",
    "ER": "Central", "AH": "Central", "AA": "Central",
    "UW": "Back", "UH": "Back", "AO": "Back",
}


def resum_csv(report):
    """Spreadsheet-style re-aggregation of the context-level CSV."""
    rows = list(csv.DictReader(io.StringIO(report.to_csv_bytes().decode())))
    by_pair = {}
    for r in rows:
        key = (r["category_x"], r["category_y"])
        by_pair.setdefault(key, []).append(float(r["rate"]))
    pair_rates = {k: sum(v) / len(v) for k, v in by_pair.items()}
    cats = sorted({c for pair in pair_rates for c in pair})
    summed = {}
    for cat in cats:
        incident = [r for k, r in sorted(pair_rates.items()) if cat in k]
        summed[cat] = sum(incident) / len(incident)
    return pair_rates, summed


def test_criterion_07_aggregation_and_golden_tables():
    corpus = generate_corpus(SynthConfig(
        phones=("AE", "EH", "IY", "UW"), dim=4, n_speakers=2,
        noise_scale=0.5, speaker_offset_scale=0.3, segments_per_cell=3, seed=4,
    ))
    phone = score_corpus(corpus.archive, corpus.segments, "within", "phone")
    pair_rates, xi = resum_csv(phone)
    for pair, rate in phone.pairwise.items():
        assert rate == pytest.approx(pair_rates[pair], abs=1e-9)
    lib_xi = phone.category_rates()
    assert set(xi) == set(lib_xi)
    for cat in xi:
        assert xi[cat] == pytest.approx(lib_xi[cat], abs=1e-9)

    af = score_corpus(
        corpus.archive, corpus.segments, "within", "af",
        af_table=load_af_table("english-height"),
    )
    _, attr_rates = resum_csv(af)
    lib_attr = af.category_rates()
    for attr in lib_attr:
        assert attr_rates[attr] == pytest.approx(lib_attr[attr], abs=1e-9)

    for name, golden in [
        ("english-moa", GOLDEN_MOA), ("english-poa", GOLDEN_POA),
        ("english-height", GOLDEN_HEIGHT), ("english-backness", GOLDEN_BACKNESS),
    ]:
        table = BUILTIN_TABLES[name]
        assert table.entries == golden, name
        for phone_sym, attr in golden.items():
            assert table.classify(phone_sym) == attr
    assert BUILTIN_TABLES["english-moa"].excluded == BUILTIN_TABLES["english-poa"].excluded
    assert len(BUILTIN_TABLES["english-moa"].entries) == 24
    assert len(BUILTIN_TABLES["english-height"].entries) == 10


def test_criterion_08_confusion_metrics():
    frame = 0.01
    spans = [(i * frame, (i + 1) * frame, s)
             for i, s in enumerate(["a", "b", "c"] * 40)]
    truth = [FrameLabelTrack("u", spans)]
    cm = confusion_matrix(truth, truth, 10000)
    for sym, (p_co, label) in co_occurrence(cm).items():
        assert p_co == 1.0
        assert label == sym

    # uniform hypothesis over 4 symbols
    truth = [FrameLabelTrack("u", [(0.0, 1.0, "a")])]
    hyp_spans = [(i * frame, (i + 1) * frame, "hijk"[i % 4]) for i in range(100)]
    cm = confusion_matrix(truth, [FrameLabelTrack("u", hyp_spans)], 10000)
    p_co, _ = co_occurrence(cm)["a"]
    assert p_co == pytest.approx(0.25, abs=1e-12)

    # constructed 40/35/25 row
    hyp_spans = (
        [(i * frame, (i + 1) * frame, "x") for i in range(40)]
        + [(i * frame, (i + 1) * frame, "y") for i in range(40, 75)]
        + [(i * frame, (i + 1) * frame, "z") for i in range(75, 100)]
    )
    cm = confusion_matrix(truth, [FrameLabelTrack("u", hyp_spans)], 10000)
    assert cm.values[cm.row_symbols.index("a")].tolist() == [0.40, 0.35, 0.25]

    # random many-symbol matrix: all rows sum to 1
    rng = np.random.default_rng(0)
    t_spans = [(i * frame, (i + 1) * frame, f"t{rng.integers(5)}") for i in range(500)]
    h_spans = [(i * frame, (i + 1) * frame, f"h{rng.integers(7)}") for i in range(500)]
    cm = confusion_matrix(
        [FrameLabelTrack("u", t_spans)], [FrameLabelTrack("u", h_spans)], 10000
    )
    for i in range(len(cm.row_symbols)):
        assert cm.values[i].sum() == pytest.approx(1.0, abs=1e-9)


def test_criterion_09_correlation():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert pearson_correlation(xs, [2 * x + 1 for x in xs]) == 1.0
    assert pearson_correlation(xs, [5 - 3 * x for x in xs]) == -1.0
    with pytest.raises(DataError):
        pearson_correlation([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def ar1_archive(seed=0, n_utts=6, t=24, dim=3):
    rng = np.random.default_rng(seed)
    utts = {}
    for i in range(n_utts):
        frames = [rng.standard_normal(dim)]
        for _ in range(t - 1):
            frames.append(0.9 * frames[-1])
        utts[f"u{i:02d}"] = np.array(frames, dtype=np.float32)
    return FeatureArchive(utts, 10000)


def test_criterion_10_apc():
    t0 = time.monotonic()
    for seed in range(20):
        kind = "lstm" if seed % 2 == 0 else "simple-rnn"
        cfg = ApcConfig(n=1, L=2, hidden_dim=3, input_dim=2,
                        cell_kind=kind, seed=seed)
        err, _ = run_gradient_check(cfg)
        assert err < 1e-4, (seed, kind, err)

    rng = np.random.default_rng(0)
    for i in range(10):
        kind = "lstm" if i % 2 == 0 else "simple-rnn"
        dim = int(rng.integers(2, 5))
        cfg = ApcConfig(n=1, L=int(rng.integers(1, 3)),
                        hidden_dim=int(rng.integers(2, 6)),
                        input_dim=dim, cell_kind=kind, seed=i)
        model = init_model(cfg)
        x = rng.standard_normal((12, dim))
        t = int(rng.integers(2, 11))
        y = x.copy()
        y[t:] += 1.0
        _, h = forward(model, x)
        _, hy = forward(model, y)
        assert np.array_equal(h[:t], hy[:t]), (i, t)
        assert not np.array_equal(h[t:], hy[t:])

    archive = ar1_archive()
    model_a, losses_a = train(ApcConfig(n=1, seed=0), archive)
    assert losses_a[-1] <= 0.1 * losses_a[0], losses_a[-1] / losses_a[0]
    model_b, losses_b = train(ApcConfig(n=1, seed=0), archive)
    assert losses_a == losses_b
    assert checkpoint_bytes(model_a) == checkpoint_bytes(model_b)
    assert time.monotonic() - t0 < 120.0


def test_criterion_11_end_to_end_pipeline(tmp_path):
    clean = synth_cli(
        tmp_path, "clean", "--phones", "AE,EH,IY", "--dim", "4",
        "--speakers", "2", "--segments-per-cell", "3",
        "--noise-scale", "0", "--seed", "2",
    )
    noisy = synth_cli(
        tmp_path, "noisy", "--phones", "AE,EH,IY", "--dim", "4",
        "--speakers", "2", "--segments-per-cell", "3",
        "--noise-scale", "0.4", "--seed", "2",
    )
    rc = cli.main([
        "apc", "train", "--features", str(clean / "features"),
        "--n", "1", "--layers", "1", "--hidden-dim", "6", "--cell", "simple-rnn",
        "--epochs", "10", "--seed", "0", "--out", str(tmp_path / "model"),
    ])
    assert rc == 0
    rc = cli.main([
        "apc", "extract", "--model", str(tmp_path / "model" / "apc.ckpt"),
        "--features", str(clean / "features"), "--out", str(tmp_path / "apc_feats"),
    ])
    assert rc == 0

    def overall(features, items, out):
        rc = cli.main([
            "eval", "--features", str(features), "--items", str(items),
            "--mode", "within", "--out", str(out),
        ])
        assert rc == 0
        return float(json.loads((out / "report.json").read_text())["overall"])

    extracted = overall(tmp_path / "apc_feats", clean / "items.item",
                        tmp_path / "eval_apc")
    raw_noisy = overall(noisy / "features", noisy / "items.item",
                        tmp_path / "eval_raw")
    assert extracted <= raw_noisy + 0.02, (extracted, raw_noisy)


def test_criterion_12_format_round_trips(tmp_path):
    rng = np.random.default_rng(0)
    archive = FeatureArchive(
        {f"u{i}": rng.standard_normal((4 + i, 5)).astype(np.float32)
         for i in range(3)},
        6250,
    )
    write_outputs(tmp_path / "one", feature_archive_files(archive))
    loaded = load_feature_archive(tmp_path / "one")
    write_outputs(tmp_path / "two", feature_archive_files(loaded))
    for i in range(3):
        a = (tmp_path / "one" / f"u{i}.fbin").read_bytes()
        b = (tmp_path / "two" / f"u{i}.fbin").read_bytes()
        assert a == b

    model = init_model(ApcConfig(input_dim=3, hidden_dim=4, seed=1))
    write_outputs(tmp_path, {"a.ckpt": checkpoint_bytes(model)})
    write_outputs(tmp_path, {"b.ckpt": checkpoint_bytes(load_checkpoint(tmp_path / "a.ckpt"))})
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    # documented malformations all surface as data errors, exit code 3
    fbin = tmp_path / "one" / "u0.fbin"
    raw = fbin.read_bytes()
    for corrupt in (b"JUNK" + raw[4:], raw[:-3], raw[:12]):
        fbin.write_bytes(corrupt)
        with pytest.raises(FormatError) as e:
            load_feature_archive(tmp_path / "one")
        assert e.value.exit_code == 3
    fbin.write_bytes(raw)

    items = tmp_path / "items.item"
    for row in ("u0 0.0 1.0 AE S T",        # missing speaker field
                "u0 zero 1.0 AE S T s01",   # unparseable onset
                "u0 0.5 0.5 AE S T s01"):   # empty span
        items.write_text(ITEM_HEADER + "\n" + row + "\n")
        with pytest.raises(RowError) as e:
            load_item_file(items)
        assert e.value.exit_code == 3
    items.write_text("u0 0.0 1.0 AE S T s01\n")  # header missing entirely
    with pytest.raises(FormatError) as e:
        load_item_file(items)
    assert e.value.exit_code == 3

    labels = tmp_path / "labels.tsv"
    labels.write_text("u0\t0.0\t0.15\tA\nu0\t0.1\t0.2\tB\n")  # overlap
    with pytest.raises(DataError) as e:
        load_label_track(labels)
    assert e.value.exit_code == 3
    labels.write_text("u0\t0.0\t0.1\n")  # missing label field
    with pytest.raises(RowError) as e:
        load_label_track(labels)
    assert e.value.exit_code == 3

    # and the CLI maps them to process exit code 3
    rc = cli.main([
        "eval", "--features", str(tmp_path / "one"), "--items", str(items),
        "--mode", "within", "--out", str(tmp_path / "out"),
    ])
    assert rc == 3
