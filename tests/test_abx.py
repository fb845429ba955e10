import concurrent.futures
import itertools
import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from abxlab import abx
from abxlab.abx import (
    AbxReport,
    aggregate,
    build_cells,
    means,
    score_corpus,
)
from abxlab.af_tables import AfTable, load_af_table
from abxlab.corpus import (
    FeatureArchive,
    ItemSegment,
    item_file_bytes,
    load_item_file,
    segment_frames,
)
from abxlab.distance import dtw_pairs
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


def planned_cells(plans):
    """Each planned cell as (head, (x_ab, y_ab, x_x, y_x)), sets as
    segment-list positions."""
    cells = []
    for plan in plans:
        positions = np.asarray(plan.positions)
        for head, members in zip(plan.heads, plan.members):
            cells.append((head, tuple(tuple(positions[s].tolist()) for s in members)))
    return cells


def test_within_cells_need_two_of_each():
    archive, segments = one_hot_corpus()
    plans, _ = build_cells(segments[:3], "within", "phone")  # one EH only
    assert plans == []
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
    (plan,), _ = build_cells(corpus.segments, "across", "phone")  # one context
    pairs = [(s_ab, s_x) for *_, s_ab, s_x in plan.heads]
    # 3 speakers, ordered pairs, 1 pair x 1 context
    assert pairs == list(itertools.permutations(["s01", "s02", "s03"], 2))


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
    assert build_cells(segments, "across", "phone")[0] == []
    with pytest.raises(EmptyTaskError):
        score_corpus(archive, segments, "across", "phone")


def _skip_counts(segments, mode, cap):
    """(skipped_undersized, capped_speaker_pairs, cells) enumerated from
    the rule: within, a (context, speaker, pair) with both categories
    needs two segments of each; across, an ordered (s_ab, s_x) is a
    candidate when s_ab has both categories, undersized when s_x lacks
    either, and the cap keeps ``cap`` candidates per (pair, context)."""
    counts = {}
    for s in segments:
        spk = counts.setdefault(s.context, {}).setdefault(s.speaker, {})
        spk[s.phone] = spk.get(s.phone, 0) + 1
    undersized = capped = cells = 0
    for speakers in counts.values():
        cats = sorted({c for spk in speakers.values() for c in spk})
        for x, y in itertools.combinations(cats, 2):
            if mode == "within":
                for spk in speakers.values():
                    if x in spk and y in spk:
                        ok = spk[x] >= 2 and spk[y] >= 2
                        cells += ok
                        undersized += not ok
                continue
            valid = 0
            for a, b in itertools.permutations(sorted(speakers), 2):
                if x in speakers[a] and y in speakers[a]:
                    if x in speakers[b] and y in speakers[b]:
                        valid += 1
                    else:
                        undersized += 1
            kept = valid if cap is None else min(valid, cap)
            capped += valid - kept
            cells += kept
    return undersized, capped, cells


@pytest.mark.parametrize("mode", ["within", "across"])
@pytest.mark.parametrize("cap", [None, 2])
def test_skip_counts_match_enumeration(mode, cap):
    corpus = generate_corpus(SynthConfig(
        phones=("AE", "EH", "IY"), n_speakers=4, dim=3, segments_per_cell=2,
        frames_per_segment=(2, 3), seed=6,
    ))
    ctx = corpus.config.contexts[0]
    one_ae = next(s for s in corpus.segments
                  if s.context == ctx and s.speaker == "s01" and s.phone == "AE")
    # within: s01 keeps one AE in ctx; across: s02 has no IY in ctx
    segments = [s for s in corpus.segments if s is not one_ae and not (
        s.context == ctx and s.speaker == "s02" and s.phone == "IY")]
    expected = _skip_counts(segments, mode, cap)
    assert expected[0] > 0 and (expected[1] > 0) == (mode == "across" and cap is not None)
    report = score_corpus(corpus.archive, segments, mode, "phone", max_speaker_pairs=cap)
    md = report.metadata
    assert (md["skipped_undersized"], md["capped_speaker_pairs"], md["cells"]) == expected


def test_speaker_pair_cap_is_deterministic():
    corpus = generate_corpus(
        SynthConfig(phones=("AE", "EH"), n_speakers=4, dim=4, noise_scale=0.2, seed=5)
    )
    def cells(max_speaker_pairs=None, seed=42):
        return planned_cells(build_cells(corpus.segments, "across", "phone",
                                         max_speaker_pairs=max_speaker_pairs, seed=seed)[0])

    a = cells(3, 42)
    assert a == cells(3, 42)
    assert len(a) == 3 * len(corpus.config.contexts)
    full = cells()
    assert len(full) == 12 * len(corpus.config.contexts)
    assert set(a) <= set(full)
    different = cells(3, 43)
    assert len(different) == len(a) and set(different) <= set(full)


@pytest.mark.parametrize("mode", ["within", "across"])
@pytest.mark.parametrize("cap", [None, 2])
def test_cell_groups_are_the_segments_cells_read(mode, cap):
    # s02 keeps only AE, so it heads no within cell
    corpus = generate_corpus(SynthConfig(
        phones=("AE", "EH", "IY"), n_speakers=4, dim=4, segments_per_cell=2, seed=3,
    ))
    segments = [s for s in corpus.segments if s.speaker != "s02" or s.phone == "AE"]
    plans, _ = build_cells(segments, mode, "phone", max_speaker_pairs=cap)

    # head: category_x, category_y, context, speaker_ab, speaker_x
    keys = [p.heads[0][2] for p in plans]
    assert all(p.heads for p in plans) and keys == sorted(set(keys))
    for plan in plans:
        assert {h[2] for h in plan.heads} == {plan.heads[0][2]}
        if mode == "within":
            # the block joins segments of one speaker only, and s02 is in none
            assert {h[3] for h in plan.heads} == {"s01", "s03", "s04"}
            for i, j in zip(plan.i, plan.j):
                a, b = (segments[plan.positions[k]] for k in (i, j))
                assert a.speaker == b.speaker
        assert plan.heads == sorted(plan.heads)
        assert len(plan.members) == len(plan.heads)
        cells = planned_cells([plan])
        read = set()
        for ((x, y, ctx, s_ab, s_x), sets), runs in zip(cells, plan.members, strict=True):
            for run, members, cat, speaker in zip(runs, sets, (x, y, x, y),
                                                  (s_ab, s_ab, s_x, s_x)):
                # a member is a slice of the block: that speaker's item rows
                # of that category in this context, in file order
                assert isinstance(run, slice)
                assert list(members) == [
                    k for k, s in enumerate(segments)
                    if (s.context, s.phone, s.speaker) == (ctx, cat, speaker)
                ]
            read |= {(min(p, q), max(p, q)) for p in sets[0] + sets[1]
                     for q in sets[2] + sets[3] if p != q}
        # the plan's positions list each row its cells read once, and its
        # pairs are every distinct unordered pair an A or B meets an X in
        assert len(set(plan.positions)) == len(plan.positions)
        assert set(plan.positions) == {p for _, sets in cells for m in sets for p in m}
        assert {(plan.positions[i], plan.positions[j])
                for i, j in zip(plan.i, plan.j)} == read
        assert all(plan.i < plan.j)


def test_within_cells_are_never_capped():
    # three speakers give each (category pair, context) three within
    # candidates, which a cap of 1 would cut if it applied
    corpus = _pool_corpus()
    plain = score_corpus(corpus.archive, corpus.segments, "within", "phone")
    capped = score_corpus(corpus.archive, corpus.segments, "within", "phone",
                          max_speaker_pairs=1)
    assert capped.metadata["capped_speaker_pairs"] == 0
    assert capped.to_csv_bytes() == plain.to_csv_bytes()
    assert capped.per_cell == plain.per_cell


@pytest.mark.parametrize("mode", ["within", "across"])
def test_one_plan_per_context_holding_a_cell(mode):
    corpus = generate_corpus(SynthConfig(
        phones=("AE", "EH", "IY"), n_speakers=3, dim=4, segments_per_cell=2, seed=3,
        contexts=(("B", "D"), ("G", "P"), ("S", "T")),
    ))
    # ("B", "D") keeps one speaker, so it holds no across cell; ("G", "P")
    # keeps one segment of each (speaker, phone), so it holds no within cell
    first = {}
    for k, s in enumerate(corpus.segments):
        first.setdefault((s.context, s.speaker, s.phone), k)
    segments = [s for k, s in enumerate(corpus.segments)
                if (s.context != ("B", "D") or s.speaker == "s01")
                and (s.context != ("G", "P") or first[(s.context, s.speaker, s.phone)] == k)]
    plans, _ = build_cells(segments, mode, "phone")
    report = score_corpus(corpus.archive, segments, mode, "phone")
    contexts = sorted({c.context for c in report.per_cell})
    assert contexts == [("B", "D") if mode == "within" else ("G", "P"), ("S", "T")]
    assert [p.heads[0][2] for p in plans] == contexts


@pytest.mark.parametrize("mode", ["within", "across"])
def test_a_plan_depends_only_on_its_group(mode):
    # the extra contexts hold two more speakers and are listed first, so
    # the segment-list positions of every group move
    config = SynthConfig(phones=("AE", "EH", "IY"), n_speakers=2, dim=4,
                         segments_per_cell=2, seed=3)
    small = generate_corpus(config).segments
    extra = generate_corpus(SynthConfig(
        phones=("AE", "EH", "IY"), n_speakers=4, dim=4, segments_per_cell=2, seed=4,
        contexts=(("B", "D"), ("G", "P")),
    )).segments
    runs = []
    for segments in (small, extra + small):
        plans, _ = build_cells(segments, mode, "phone")
        runs.append(({p.heads[0][2]: p for p in plans}, segments))  # by context
    (plans_a, segments_a), (plans_b, segments_b) = runs
    assert len(plans_b) > len(plans_a) and plans_a.keys() <= plans_b.keys()
    moved = 0
    for k, a in plans_a.items():
        b = plans_b[k]
        assert a.heads == b.heads
        assert np.array_equal(a.i, b.i) and np.array_equal(a.j, b.j)
        assert [segments_a[p] for p in a.positions] == [segments_b[p] for p in b.positions]
        assert a.members == b.members
        moved += a.positions != b.positions
    assert moved == len(plans_a)  # every group's positions shift past the extras


@pytest.mark.parametrize("mode", ["within", "across"])
@pytest.mark.parametrize("kind", ["phone", "af"])
def test_build_cells_plans_what_score_corpus_scores(mode, kind):
    corpus = generate_corpus(SynthConfig(
        phones=("AE", "EH", "IY", "UW"), n_speakers=3, dim=4, segments_per_cell=2,
        frames_per_segment=(2, 4), seed=8,
    ))
    table = load_af_table("english-height") if kind == "af" else None
    # positional, as the benchmark's traced run calls it
    plans, stats = abx.build_cells(corpus.segments, mode, kind, table)
    assert len(plans) > 1
    report = score_corpus(corpus.archive, corpus.segments, mode, kind, af_table=table)
    # plans come in group order; the report's cells in key order
    keys = [head for plan in plans for head in plan.heads]
    assert sorted(keys) == [c.key() for c in report.per_cell]
    assert len(set(keys)) == len(keys)
    assert stats == {"undersized": report.metadata["skipped_undersized"],
                     "capped_speaker_pairs": report.metadata["capped_speaker_pairs"]}


def test_means_sums_in_row_order_and_sorts_keys():
    rows = [("b", 0.1), ("a", 0.7), ("b", 0.2), ("b", 0.3)]
    out = means(rows)
    assert list(out) == ["a", "b"]
    assert out["a"] == 0.7
    assert out["b"] == (0.1 + 0.2 + 0.3) / 3
    assert means(reversed(rows))["b"] == (0.3 + 0.2 + 0.1) / 3
    assert means([]) == {}


def test_cell_limit_validation():
    _, segments = one_hot_corpus()
    with pytest.raises(UsageError, match="max_speaker_pairs_per_context must be >= 1, got 0"):
        build_cells(segments, "across", "phone", max_speaker_pairs=0)
    with pytest.raises(UsageError, match="seed must be >= 0, got -1"):
        build_cells(segments, "across", "phone", seed=-1)


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
    cells = planned_cells(build_cells(corpus.segments, "within", "af", af_table=table)[0])
    assert {head[:2] for head, _ in cells} == {("Close", "Open")}
    open_sizes = {len(y_ab) for _, (_, y_ab, _, _) in cells}
    assert open_sizes == {2 * corpus.config.segments_per_cell}


def test_af_task_drops_excluded_segments():
    corpus = generate_corpus(
        SynthConfig(phones=("AE", "EH", "IY"), dim=4, n_speakers=1, seed=2)
    )
    table = AfTable("toy", {"AE": "A", "EH": "B"}, excluded=("IY",))
    plans, _ = build_cells(corpus.segments, "within", "af", af_table=table)
    assert {head[:2] for p in plans for head in p.heads} == {("A", "B")}
    assert {corpus.segments[q].phone for p in plans for q in p.positions} == {"AE", "EH"}
    assert "IY" in {s.phone for s in corpus.segments}  # listed, but read by no cell


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


def _pool_corpus():
    # several contexts, so the pool gets more than one group in both conditions
    return generate_corpus(
        SynthConfig(
            phones=("AE", "EH", "IY", "UW"), n_speakers=3, dim=4,
            noise_scale=0.6, speaker_offset_scale=0.3, seed=8,
        )
    )


class NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


@pytest.mark.parametrize("mode", ["within", "across"])
@pytest.mark.parametrize("kind", ["phone", "af"])
def test_parallel_scoring_is_bit_identical(kind, mode, monkeypatch):
    corpus = _pool_corpus()
    table = load_af_table("english-height") if kind == "af" else None
    r1 = score_corpus(corpus.archive, corpus.segments, mode, kind, af_table=table, jobs=1)
    groups = len(build_cells(corpus.segments, mode, kind, table)[0])
    assert groups > 1
    # the default threshold scores this corpus inline, threshold 0 in the pool
    for threshold in (abx.POOL_MIN_DP_CELLS, 0):
        monkeypatch.setattr(abx, "POOL_MIN_DP_CELLS", threshold)
        for jobs in (2, 4):
            rj = score_corpus(corpus.archive, corpus.segments, mode, kind, af_table=table,
                              jobs=jobs)
            assert rj.stats["workers"] == (min(jobs, groups) if threshold == 0 else 1)
            assert r1.to_json_bytes() == rj.to_json_bytes()
            assert r1.to_csv_bytes() == rj.to_csv_bytes()
            assert [c.epsilon for c in r1.per_cell] == [c.epsilon for c in rj.per_cell]


@pytest.mark.parametrize("mode", ["within", "across"])
def test_pool_maps_dtw_pairs_over_each_groups_rows(mode, monkeypatch):
    # a worker runs only the DTW engine, one call per group carrying that
    # group's rows; the parent scores every cell from the distances
    corpus = _pool_corpus()
    mapped = []

    class RecordingPool:
        def __init__(self, max_workers):
            assert max_workers == 2

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, *iterables):
            args = [list(it) for it in iterables]
            mapped.append((fn, args))
            return map(fn, *args)

    inline = score_corpus(corpus.archive, corpus.segments, mode, "phone", jobs=1)
    monkeypatch.setattr(abx, "POOL_MIN_DP_CELLS", 0)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    pooled = score_corpus(corpus.archive, corpus.segments, mode, "phone", jobs=2)
    assert pooled.stats["workers"] == 2
    [(fn, (group_frames, i, j, charges))] = mapped
    assert fn is dtw_pairs
    plans = build_cells(corpus.segments, mode, "phone")[0]
    assert len(group_frames) == len(i) == len(j) == len(plans) > 1
    frames = [segment_frames(s, corpus.archive) for s in corpus.segments]
    for plan, rows, pi, pj in zip(plans, group_frames, i, j):
        assert len(rows) == len(plan.positions)
        assert all(np.array_equal(r, frames[p]) for r, p in zip(rows, plan.positions))
        assert np.array_equal(pi, plan.i) and np.array_equal(pj, plan.j)
    assert charges == [1.0] * len(plans)
    assert pooled.to_json_bytes(include_per_cell=True) == inline.to_json_bytes(
        include_per_cell=True)
    assert pooled.to_csv_bytes() == inline.to_csv_bytes()


_START_METHOD_SCRIPT = """
import json, multiprocessing, sys
from abxlab import abx
from abxlab.af_tables import load_af_table
from abxlab.synth import SynthConfig, generate_corpus

if __name__ == "__main__":
    corpus = generate_corpus(SynthConfig(
        phones=("AE", "IY", "UW", "P"), n_speakers=3, dim=4, segments_per_cell=2,
        frames_per_segment=(2, 4), noise_scale=0.6, seed=9,
    ))
    tasks = [("within", "phone", None), ("across", "af", load_af_table("english-height"))]
    inline = [abx.score_corpus(corpus.archive, corpus.segments, mode, kind, af_table=t)
              for mode, kind, t in tasks]
    abx.POOL_MIN_DP_CELLS = 0
    out = {}
    for method in sys.argv[1:]:
        multiprocessing.set_start_method(method, force=True)
        for (mode, kind, t), want in zip(tasks, inline):
            got = abx.score_corpus(corpus.archive, corpus.segments, mode, kind,
                                   af_table=t, jobs=2)
            out[f"{method} {mode}"] = [
                got.stats["workers"],
                got.to_json_bytes(include_per_cell=True)
                == want.to_json_bytes(include_per_cell=True),
                got.to_csv_bytes() == want.to_csv_bytes(),
            ]
    print(json.dumps(out))
"""


def test_pool_matches_inline_when_its_arguments_are_pickled(tmp_path):
    # fork hands the workers the frames by inheritance; forkserver (the
    # Linux default from Python 3.14) and spawn (macOS) pickle them
    methods = [m for m in ("forkserver", "spawn")
               if m in multiprocessing.get_all_start_methods()]
    script = tmp_path / "pool_start_methods.py"
    script.write_text(_START_METHOD_SCRIPT)
    src = os.path.dirname(os.path.dirname(abx.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(script), *methods],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        f"{m} {mode}": [2, True, True] for m in methods for mode in ("within", "across")}


def test_below_pool_threshold_no_pool_starts(monkeypatch):
    corpus = _pool_corpus()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    report = score_corpus(corpus.archive, corpus.segments, "across", "phone", jobs=2)
    assert report.stats["workers"] == 1
    assert 0 < report.stats["dp_cells"] < abx.POOL_MIN_DP_CELLS
    monkeypatch.setattr(abx, "POOL_MIN_DP_CELLS", report.stats["dp_cells"])
    with pytest.raises(AssertionError, match="process pool"):
        score_corpus(corpus.archive, corpus.segments, "across", "phone", jobs=2)


def test_single_job_counts_dp_cells_without_a_pool(monkeypatch):
    corpus = _pool_corpus()
    received = []

    def recording(frames, i, j, zero_vector_distance):
        received.append(sum(len(frames[a]) * len(frames[b]) for a, b in zip(i, j)))
        return dtw_pairs(frames, i, j, zero_vector_distance)

    monkeypatch.setattr(abx, "dtw_pairs", recording)
    monkeypatch.setattr(abx, "POOL_MIN_DP_CELLS", 0)  # a pool would be due at jobs > 1
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    report = score_corpus(corpus.archive, corpus.segments, "within", "phone", jobs=1)
    assert report.stats == {"workers": 1, "dp_cells": sum(received)}


@pytest.mark.parametrize("mode", ["within", "across"])
def test_dp_cells_count_what_dtw_receives(mode, monkeypatch):
    corpus = _pool_corpus()
    received = []

    def recording(frames, i, j, zero_vector_distance):
        received.append(sum(len(frames[a]) * len(frames[b]) for a, b in zip(i, j)))
        return dtw_pairs(frames, i, j, zero_vector_distance)

    monkeypatch.setattr(abx, "dtw_pairs", recording)
    report = score_corpus(corpus.archive, corpus.segments, mode, "phone", jobs=2)
    assert report.stats["workers"] == 1  # inline, so every call is seen here
    assert len(received) > 1
    assert report.stats["dp_cells"] == sum(received)


@pytest.mark.parametrize("threshold", [abx.POOL_MIN_DP_CELLS, 0])
def test_settings_are_checked_where_they_are_used(threshold, monkeypatch):
    # dtw_pairs checks the zero-vector charge, inline or before a pool is
    # constructed, once the task is known to have cells; jobs is checked
    # on entry
    corpus = _pool_corpus()
    monkeypatch.setattr(abx, "POOL_MIN_DP_CELLS", threshold)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    for bad in (2.5, -0.1, float("nan")):
        with pytest.raises(UsageError, match=r"zero_vector_distance must be in \[0, 2\]"):
            score_corpus(corpus.archive, corpus.segments, "within", "phone",
                         zero_vector_distance=bad, jobs=2)
    if threshold == 0:  # a good charge reaches the pool
        with pytest.raises(AssertionError, match="process pool"):
            score_corpus(corpus.archive, corpus.segments, "within", "phone",
                         zero_vector_distance=2.0, jobs=2)
    with pytest.raises(EmptyTaskError):
        score_corpus(corpus.archive, corpus.segments[:1], "within", "phone",
                     zero_vector_distance=2.5)
    with pytest.raises(UsageError, match="jobs must be >= 1, got 0"):
        score_corpus(corpus.archive, corpus.segments, "within", "phone", jobs=0)


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


def dist_for(corpus, zero_vector_distance=1.0):
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
            cache[key] = dtw_scalar(fa[pa:qa], fb[pb:qb], zero_vector_distance)
        return cache[key]

    return d


@pytest.mark.parametrize("mode", ["within", "across"])
def test_item_listed_twice_keeps_both_entries(mode, tmp_path):
    # each listing is its own segment: its own A, B or X and its own block row
    corpus = generate_corpus(SynthConfig(
        phones=("AE", "EH"), n_speakers=2, dim=3, noise_scale=0.8,
        segments_per_cell=2, frames_per_segment=(2, 4), seed=4,
    ))
    path = tmp_path / "items.item"
    path.write_bytes(item_file_bytes(corpus.segments + [corpus.segments[1]]))
    segments = load_item_file(path)
    assert segments[-1] == segments[1] and segments[-1] is not segments[1]
    report = score_corpus(corpus.archive, segments, mode, "phone")
    per_cell, _, _, overall = abx_ref(segments, dist_for(corpus), mode)
    assert len(report.per_cell) == len(per_cell)
    for cs in report.per_cell:
        assert cs.epsilon == per_cell[cs.key()], cs.key()
    assert report.overall == pytest.approx(overall, abs=1e-12)
    single = score_corpus(corpus.archive, segments[:-1], mode, "phone")
    assert report.metadata["comparisons"] > single.metadata["comparisons"]
    # the repeated row adds pairs to its distance block
    dp_cells = [score_corpus(corpus.archive, s, mode, "phone", jobs=2).stats["dp_cells"]
                for s in (segments, segments[:-1])]
    assert dp_cells[0] > dp_cells[1] > 0


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
