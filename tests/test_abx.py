import json

import numpy as np
import pytest

from abxlab.abx import (
    AbxReport,
    CellLimits,
    TaskCell,
    _build_cells,
    aggregate,
    build_cells,
    means,
    score_corpus,
)
from abxlab.af_tables import AfTable, load_af_table
from abxlab.corpus import FeatureArchive, ItemSegment
from abxlab.distance import DtwConfig
from abxlab.errors import DataError, EmptyTaskError, UnmappedPhoneError, UsageError
from abxlab.synth import SynthConfig, generate_corpus

from oracles import abx_ref, dtw_scalar


def seg(utt, onset, phone, prev="S", nxt="T", speaker="s01", dur=0.02):
    return ItemSegment(utt, onset, onset + dur, phone, prev, nxt, speaker)


def one_hot_corpus():
    """u01: AE at dims 0, EH at dim 1; two segments each, one speaker."""
    frames = np.zeros((8, 3), dtype=np.float32)
    frames[0:2, 0] = 1.0  # AE #1
    frames[2:4, 1] = 1.0  # EH #1
    frames[4:6, 0] = 1.0  # AE #2
    frames[6:8, 1] = 1.0  # EH #2
    archive = FeatureArchive({"u01": frames}, 10000)
    segments = [
        seg("u01", 0.00, "AE"),
        seg("u01", 0.02, "EH"),
        seg("u01", 0.04, "AE"),
        seg("u01", 0.06, "EH"),
    ]
    return archive, segments


# ---------------------------------------------------------------------------
# cell scoring


def test_eta_zero_on_separable_categories():
    archive, segments = one_hot_corpus()
    (score,) = score_corpus(archive, segments, "within", "phone").per_cell
    assert score.eta_xy == 0.0
    assert score.eta_yx == 0.0
    assert score.epsilon == 0.0
    assert score.n_comparisons == 2 * 2 * 1 * 2


def test_eta_half_on_all_ties():
    frames = np.tile(np.float32([1.0, 2.0, 3.0]), (8, 1))
    archive = FeatureArchive({"u01": frames}, 10000)
    segments = [
        seg("u01", 0.00, "AE"),
        seg("u01", 0.02, "EH"),
        seg("u01", 0.04, "AE"),
        seg("u01", 0.06, "EH"),
    ]
    report = score_corpus(archive, segments, "within", "phone")
    assert report.overall == 0.5
    (cs,) = report.per_cell
    assert cs.eta_xy == 0.5 and cs.eta_yx == 0.5


def test_eta_counts_strict_win():
    # one X close to B: d(A,X) > d(B,X) for that triple only
    frames = np.float32(
        [
            [1.0, 0.0],  # AE a1
            [0.9, 0.4359],  # AE a2, tilted toward EH
            [0.0, 1.0],  # EH b1
            [0.0, 1.0],  # EH b2 (identical)
        ]
    )
    archive = FeatureArchive({"u01": frames}, 10000)
    segments = [
        seg("u01", 0.00, "AE", dur=0.01),
        seg("u01", 0.01, "AE", dur=0.01),
        seg("u01", 0.02, "EH", dur=0.01),
        seg("u01", 0.03, "EH", dur=0.01),
    ]
    (cs,) = score_corpus(archive, segments, "within", "phone").per_cell
    # eta(AE->EH): A,X from {a1,a2}, B from {b1,b2}; all 4 triples correct
    assert cs.eta_xy == 0.0
    # eta(EH->AE): X=b, A=b', B=a; d(b,b')=0 always wins
    assert cs.eta_yx == 0.0


# ---------------------------------------------------------------------------
# cell construction


def test_within_cells_need_two_of_each():
    archive, segments = one_hot_corpus()
    cells = build_cells(segments[:3], "within", "phone")  # one EH only
    assert cells == []
    report_error = None
    try:
        score_corpus(archive, segments[:3], "within", "phone")
    except EmptyTaskError as e:
        report_error = e
    assert report_error is not None and report_error.exit_code == 4


def test_across_cells_are_ordered_speaker_pairs():
    corpus = generate_corpus(
        SynthConfig(phones=("AE", "EH"), n_speakers=3, dim=4, contexts=(("S", "T"),))
    )
    cells = build_cells(corpus.segments, "across", "phone")
    pairs = {(c.speaker_ab, c.speaker_x) for c in cells}
    assert len(cells) == 6  # 3 speakers, ordered pairs, 1 pair x 1 context
    assert ("s01", "s02") in pairs and ("s02", "s01") in pairs
    for c in cells:
        assert c.speaker_ab != c.speaker_x
        assert not c.within


def test_across_requires_both_categories_on_both_speakers():
    frames = np.zeros((4, 2), dtype=np.float32)
    frames[:, 0] = 1.0
    archive = FeatureArchive(
        {"u01": frames.copy(), "u02": frames.copy()}, 10000
    )
    segments = [
        seg("u01", 0.00, "AE", speaker="s01"),
        seg("u01", 0.02, "EH", speaker="s01"),
        seg("u02", 0.00, "AE", speaker="s02"),  # s02 has no EH
    ]
    assert build_cells(segments, "across", "phone") == []
    with pytest.raises(EmptyTaskError):
        score_corpus(archive, segments, "across", "phone")


def test_speaker_pair_cap_is_deterministic():
    corpus = generate_corpus(
        SynthConfig(phones=("AE", "EH"), n_speakers=4, dim=4, noise_scale=0.2, seed=5)
    )
    limits = CellLimits(max_speaker_pairs_per_context=3, seed=42)
    a = build_cells(corpus.segments, "across", "phone", limits=limits)
    b = build_cells(corpus.segments, "across", "phone", limits=limits)
    assert a == b
    assert len(a) == 3 * len(corpus.config.contexts)
    full = build_cells(corpus.segments, "across", "phone")
    assert len(full) == 12 * len(corpus.config.contexts)
    assert set(a) <= set(full)
    different = build_cells(
        corpus.segments, "across", "phone",
        limits=CellLimits(max_speaker_pairs_per_context=3, seed=43),
    )
    assert len(different) == len(a)


@pytest.mark.parametrize("mode", ["within", "across"])
@pytest.mark.parametrize("cap", [None, 2])
def test_cell_groups_are_the_segments_cells_read(mode, cap):
    # s02 keeps only AE, so its within groups are empty and get dropped
    corpus = generate_corpus(SynthConfig(
        phones=("AE", "EH", "IY"), n_speakers=4, dim=4, segments_per_cell=2, seed=3,
    ))
    segments = [s for s in corpus.segments if s.speaker != "s02" or s.phone == "AE"]
    limits = CellLimits(max_speaker_pairs_per_context=cap)
    groups, _ = _build_cells(segments, mode, "phone", None, limits)

    def group_key(cell):
        return (cell.context, cell.speaker_ab) if mode == "within" else (cell.context,)

    keys = [group_key(g[0]) for g in groups]
    assert all(groups) and keys == sorted(set(keys))
    if mode == "within":
        assert [k[1] for k in keys] == ["s01", "s03", "s04"] * len(corpus.config.contexts)
    for g in groups:
        assert {group_key(c) for c in g} == {group_key(g[0])}
        assert g == sorted(g, key=TaskCell.key)
    flat = build_cells(segments, mode, "phone", limits=limits)
    assert flat == sorted((c for g in groups for c in g), key=TaskCell.key)


def test_means_sums_in_row_order_and_sorts_keys():
    rows = [("b", 0.1), ("a", 0.7), ("b", 0.2), ("b", 0.3)]
    out = means(rows)
    assert list(out) == ["a", "b"]
    assert out["a"] == 0.7
    assert out["b"] == (0.1 + 0.2 + 0.3) / 3
    assert means(reversed(rows))["b"] == (0.3 + 0.2 + 0.1) / 3
    assert means([]) == {}


def test_cell_limit_validation():
    with pytest.raises(UsageError):
        CellLimits(max_speaker_pairs_per_context=0)


def test_mode_and_kind_validation():
    archive, segments = one_hot_corpus()
    with pytest.raises(UsageError):
        build_cells(segments, "both", "phone")
    with pytest.raises(UsageError):
        build_cells(segments, "within", "triphone")
    with pytest.raises(UsageError):
        build_cells(segments, "within", "af")  # af without table
    with pytest.raises(UsageError):
        build_cells(segments, "within", "phone", af_table=load_af_table("english-moa"))


# ---------------------------------------------------------------------------
# af task


def test_af_task_groups_by_attribute():
    corpus = generate_corpus(
        SynthConfig(phones=("AE", "AA", "IY"), dim=4, n_speakers=1, seed=2)
    )
    table = load_af_table("english-height")  # AE,AA -> Open; IY -> Close
    cells = build_cells(corpus.segments, "within", "af", af_table=table)
    assert {(c.category_x, c.category_y) for c in cells} == {("Close", "Open")}
    open_sizes = {len(c.set_y_ab) for c in cells}
    assert open_sizes == {2 * corpus.config.segments_per_cell}


def test_af_task_drops_excluded_segments():
    corpus = generate_corpus(
        SynthConfig(phones=("AE", "EH", "IY"), dim=4, n_speakers=1, seed=2)
    )
    table = AfTable("toy", {"AE": "A", "EH": "B"}, excluded=("IY",))
    cells = build_cells(corpus.segments, "within", "af", af_table=table)
    assert {(c.category_x, c.category_y) for c in cells} == {("A", "B")}
    phones = {s.phone for c in cells for s in c.set_x_ab + c.set_y_ab}
    assert "IY" not in phones


def test_af_task_unmapped_phone_fails_fast():
    corpus = generate_corpus(SynthConfig(phones=("AE", "EH", "ZZ"), dim=4))
    table = AfTable("toy", {"AE": "A", "EH": "B"})
    with pytest.raises(UnmappedPhoneError) as e:
        build_cells(corpus.segments, "within", "af", af_table=table)
    assert "ZZ" in str(e.value)


# ---------------------------------------------------------------------------
# aggregation and reports


def test_aggregate_is_three_level_unweighted():
    corpus = generate_corpus(
        SynthConfig(
            phones=("AE", "EH", "IY"), n_speakers=2, dim=4,
            noise_scale=0.6, speaker_offset_scale=0.4, seed=9,
        )
    )
    report = score_corpus(corpus.archive, corpus.segments, "within", "phone")
    per_cell, context_rates, pairwise, overall = abx_ref(
        corpus.segments,
        lambda a, b: dtw_scalar(
            corpus.archive.frames(a.utt)[
                round(a.onset * 100) : round(a.offset * 100)
            ],
            corpus.archive.frames(b.utt)[
                round(b.onset * 100) : round(b.offset * 100)
            ],
        ),
        "within",
    )
    assert {c.key() for c in report.per_cell} == set(
        (x, y, ctx, sa, sx) for (x, y, ctx, sa, sx) in per_cell
    )
    for cs in report.per_cell:
        assert cs.epsilon == per_cell[cs.key()]
    for key, rate in report.context_rates.items():
        assert rate == pytest.approx(context_rates[key], abs=1e-15)
    for pair, rate in report.pairwise.items():
        assert rate == pytest.approx(pairwise[pair], abs=1e-15)
    assert report.overall == pytest.approx(overall, abs=1e-15)


def test_report_json_and_csv_formats():
    corpus = generate_corpus(
        SynthConfig(phones=("AE", "EH"), n_speakers=2, dim=4, noise_scale=0.5, seed=4)
    )
    report = score_corpus(corpus.archive, corpus.segments, "across", "phone")
    doc = json.loads(report.to_json_bytes(include_per_cell=True))
    assert doc["task"] == "phone"
    assert doc["condition"] == "across"
    assert doc["overall"] == f"{report.overall:.6f}"
    assert doc["pairwise"]["AE"]["EH"] == f"{report.pairwise[('AE', 'EH')]:.6f}"
    assert doc["categories"]["AE"] == f"{report.category_rates()['AE']:.6f}"
    assert doc["metadata"]["speaker_pairs"] == "ordered"
    assert "jobs" not in doc["metadata"]
    assert len(doc["per_cell"]) == len(report.per_cell)

    lines = report.to_csv_bytes().decode().splitlines()
    assert lines[0] == "category_x,category_y,context_prev,context_next,condition,rate"
    assert len(lines) == 1 + len(report.context_rates)
    x, y, prev, nxt, cond, rate = lines[1].split(",")
    assert cond == "across"
    assert float(rate) == report.context_rates[(x, y, (prev, nxt))]


def test_csv_rates_reaggregate_exactly():
    corpus = generate_corpus(
        SynthConfig(
            phones=("AE", "EH", "IY"), n_speakers=3, dim=4,
            noise_scale=0.7, speaker_offset_scale=0.5, seed=6,
        )
    )
    report = score_corpus(corpus.archive, corpus.segments, "across", "phone")
    rows = report.to_csv_bytes().decode().splitlines()[1:]
    groups = {}
    for row in rows:
        x, y, prev, nxt, _, rate = row.split(",")
        groups.setdefault((x, y), []).append(((prev, nxt), float(rate)))
    for pair, ctx_rates in groups.items():
        rates = [r for _, r in sorted(ctx_rates)]
        assert sum(rates) / len(rates) == report.pairwise[pair]


@pytest.mark.parametrize("mode", ["within", "across"])
@pytest.mark.parametrize("kind", ["phone", "af"])
def test_parallel_scoring_is_bit_identical(kind, mode):
    # several groups (contexts, and speakers within), so the pool gets work
    corpus = generate_corpus(
        SynthConfig(
            phones=("AE", "EH", "IY", "UW"), n_speakers=3, dim=4,
            noise_scale=0.6, speaker_offset_scale=0.3, seed=8,
        )
    )
    table = load_af_table("english-height") if kind == "af" else None
    r1 = score_corpus(corpus.archive, corpus.segments, mode, kind, af_table=table, jobs=1)
    for jobs in (2, 4):
        rj = score_corpus(corpus.archive, corpus.segments, mode, kind, af_table=table, jobs=jobs)
        assert r1.to_json_bytes() == rj.to_json_bytes()
        assert r1.to_csv_bytes() == rj.to_csv_bytes()
        assert [c.epsilon for c in r1.per_cell] == [c.epsilon for c in rj.per_cell]


class UncheckedArchive:
    """One utterance served without FeatureArchive's finiteness check."""

    frame_period = 10000

    def __init__(self, frames):
        self._frames = frames

    def frames(self, utt):
        return self._frames


def test_non_finite_frame_fails_scoring_with_exit_3():
    archive, segments = one_hot_corpus()
    frames = archive.frames("u01").copy()
    frames[5, 0] = np.inf
    with pytest.raises(DataError) as e:
        score_corpus(UncheckedArchive(frames), segments, "within", "phone")
    assert e.value.exit_code == 3


def test_aggregate_empty_fails():
    with pytest.raises(EmptyTaskError):
        aggregate([], "phone", "within")


# ---------------------------------------------------------------------------
# oracle equivalence on noisy corpora


def dist_for(corpus, cfg=DtwConfig()):
    cache = {}

    def d(a, b):
        key = (a, b)
        if key not in cache:
            fa = corpus.archive.frames(a.utt)
            fb = corpus.archive.frames(b.utt)
            pa = round(a.onset * 1e6 / corpus.archive.frame_period)
            qa = round(a.offset * 1e6 / corpus.archive.frame_period)
            pb = round(b.onset * 1e6 / corpus.archive.frame_period)
            qb = round(b.offset * 1e6 / corpus.archive.frame_period)
            cache[key] = dtw_scalar(fa[pa:qa], fb[pb:qb], cfg.zero_vector_distance)
        return cache[key]

    return d


@pytest.mark.parametrize("mode", ["within", "across"])
def test_engine_matches_naive_oracle(mode):
    for corpus_seed in (0, 1):
        corpus = generate_corpus(
            SynthConfig(
                phones=("AE", "EH", "IY"), n_speakers=3, dim=4,
                noise_scale=0.8, speaker_offset_scale=0.5,
                segments_per_cell=2, frames_per_segment=(2, 4),
                seed=corpus_seed,
            )
        )
        report = score_corpus(corpus.archive, corpus.segments, mode, "phone")
        per_cell, _, _, overall = abx_ref(corpus.segments, dist_for(corpus), mode)
        assert len(report.per_cell) == len(per_cell)
        for cs in report.per_cell:
            assert cs.epsilon == per_cell[cs.key()], cs.key()
        assert report.overall == pytest.approx(overall, abs=1e-12)
