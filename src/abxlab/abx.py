"""Within- and across-speaker ABX task construction, scoring, aggregation.

A cell is the smallest scoring unit: one unordered category pair, one
triphone context and one ordered speaker pair (s_ab, s_x), where s_x is
s_ab within and another speaker across; one rule builds the cells of
both conditions, and the cells of one context form a group in both.
``build_cells`` is the one cell builder: it names each segment by its
position in the segment list and plans each group from its own cells'
(speaker, category) position lists, with no pass over the corpus.  A
group's distance block lays the lists its cells read end to end as runs,
so each cell's (x_ab, y_ab, x_x, y_x) members are slices of the block;
the plan also holds the segment pairs the block computes, which within
join segments of one speaker.
``score_corpus`` is the one scoring entry.  It resolves each listed row
to its feature rows in list order, so a row the archive cannot serve
fails before any scoring; then each plan computes a dense segment x
segment block of DTW dissimilarities, every unordered pair once through
the batched kernel, and its cells are scored from views of that block.
A plan's one ``dtw_pairs`` call, over its own group's rows and pairs, is
a pure function of its arguments, so the calls can run in a process
pool, which starts only when the task's DP cells reach
``POOL_MIN_DP_CELLS``; inline or pooled, the parent builds each block
from the returned distances and scores every cell.  A task's settings
are plain keyword values, each checked once by the function that uses
it: the speaker-pair cap and its seed by ``build_cells``, the
zero-vector charge by ``distance.dtw_pairs`` and the worker cap by
``score_corpus``.

Scoring counts strict wins and exact ties as integers and divides once
at the end, so the comparison order inside a cell cannot perturb eta.
Every rate mean after that is one fold, ``means``, over rows in sorted
key order, which makes reports bit-identical regardless of worker count.
``fold_pairs`` and ``fold_categories`` are the pair and category rate
folds of every caller, the re-aggregation of ``pairwise.csv`` included.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .af_tables import AfTable
from .corpus import FeatureArchive, segment_frames
from .distance import dtw_pairs
from .errors import EmptyTaskError, UsageError
from .manifest import json_bytes, lines_bytes

TASK_KINDS = ("phone", "af")
MODES = ("within", "across")
PAIRWISE_HEADER = "category_x,category_y,context_prev,context_next,condition,rate"

# Below this many DP cells (the unpadded sum of m x n over every segment
# pair the distance blocks compute) the groups are scored inline: a pool
# costs its start-up and a pickled copy of each group's rows.  Timing fresh
# ``abxlab eval`` processes at --jobs 1 and 2 on a shared 2-core machine
# (10-12 alternating pairs a series), the pool won at 3.1M cells in 10/10
# and 6/10 pairs and lost in 12/12 and 9/10 in two other series; at 4.2M
# it won in 10/12, 10/10 and 5/10, at 2.1M in 7/10 and at 1.3M in 1/10.
POOL_MIN_DP_CELLS = 3_000_000


@dataclass(frozen=True)
class CellScore:
    category_x: str
    category_y: str
    context: tuple[str, str]
    speaker_ab: str
    speaker_x: str
    eta_xy: float
    eta_yx: float
    epsilon: float
    n_comparisons: int

    def key(self):
        return (self.category_x, self.category_y, self.context, self.speaker_ab, self.speaker_x)


@dataclass
class AbxReport:
    kind: str
    condition: str
    pairwise: dict
    context_rates: dict
    overall: float
    per_cell: list
    metadata: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)  # run facts for manifest.json, never written here

    def category_rates(self) -> dict:
        """Per-category mean of incident pairwise rates, full precision."""
        return fold_categories(self.pairwise)

    def to_json_dict(self, include_per_cell: bool = False) -> dict:
        nested: dict[str, dict[str, str]] = {}
        for (x, y), rate in self.pairwise.items():
            nested.setdefault(x, {})[y] = f"{rate:.6f}"
        doc = {
            "task": self.kind,
            "condition": self.condition,
            "overall": f"{self.overall:.6f}",
            "pairwise": nested,
            "categories": {c: f"{r:.6f}" for c, r in self.category_rates().items()},
            "metadata": self.metadata,
        }
        if include_per_cell:
            doc["per_cell"] = [
                {
                    "category_x": c.category_x,
                    "category_y": c.category_y,
                    "context": list(c.context),
                    "speaker_ab": c.speaker_ab,
                    "speaker_x": c.speaker_x,
                    "eta_xy": f"{c.eta_xy:.6f}",
                    "eta_yx": f"{c.eta_yx:.6f}",
                    "epsilon": f"{c.epsilon:.6f}",
                    "n_comparisons": c.n_comparisons,
                }
                for c in self.per_cell
            ]
        return doc

    def to_json_bytes(self, include_per_cell: bool = False) -> bytes:
        return json_bytes(self.to_json_dict(include_per_cell))

    def to_csv_bytes(self) -> bytes:
        """Context-level rows at full float precision, for re-aggregation."""
        return lines_bytes([PAIRWISE_HEADER] + [
            f"{x},{y},{prev},{nxt},{self.condition},{rate!r}"
            for (x, y, (prev, nxt)), rate in sorted(self.context_rates.items())
        ])


# ---------------------------------------------------------------------------
# cells and their scoring plans


def _categorize(segments, kind, af_table):
    """Each segment's category; None for an af-excluded segment."""
    if kind == "phone":
        return [s.phone for s in segments]
    af_table.check_phones({s.phone for s in segments})
    return [af_table.classify(s.phone) for s in segments]


class GroupPlan(NamedTuple):
    """What scoring a group needs before any DTW runs."""

    heads: list  # per cell, its categories, context and speakers
    positions: list  # the segment-list position of each block row, in run order
    members: list  # per cell, its (x_ab, y_ab, x_x, y_x) runs as slices of the block
    i: np.ndarray  # the block rows whose pairs the block computes, i < j
    j: np.ndarray


def build_cells(segments, mode, kind, af_table: AfTable | None = None,
                max_speaker_pairs: int | None = None, seed: int = 42
                ) -> tuple[list[GroupPlan], dict]:
    """The package's one cell builder: the task's cells, planned for
    scoring in one group per context, in both conditions.

    One rule serves both modes.  A group loops over its sorted category
    pairs, then over its candidate (s_ab, s_x) pairs of the context's
    sorted speakers: within, (s, s) for each speaker; across, every
    ordered pair of two speakers.  A candidate is skipped silently when
    s_ab lacks x or y, and counts as undersized when s_x holds fewer than
    ``need`` segments of x or y: 2 within, where X is never its own A,
    and 1 across.  ``max_speaker_pairs`` (None, or >= 1) then caps the
    across candidates left per (category pair, context): a shuffle seeded
    with ``seed`` (>= 0) draws from them in their sorted label order, so
    a rename that reorders labels can change the draw.  Within cells are
    never capped.

    A segment is named by its position in ``segments``, so a segment
    listed twice is two segments.  Returns ``(plans, stats)``: one
    ``GroupPlan`` per non-empty group, in sorted group order with cells
    in key order inside a group, and the skip counts ``undersized`` and
    ``capped_speaker_pairs``.
    """
    if mode not in MODES:
        raise UsageError(f"mode must be one of {MODES}, got {mode!r}")
    if kind not in TASK_KINDS:
        raise UsageError(f"task kind must be one of {TASK_KINDS}, got {kind!r}")
    if (kind == "af") != (af_table is not None):
        raise UsageError("af_table is required for the af task and only for it")
    if max_speaker_pairs is not None and max_speaker_pairs < 1:
        raise UsageError(f"max_speaker_pairs_per_context must be >= 1, got {max_speaker_pairs}")
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")

    categories = _categorize(segments, kind, af_table)
    by_ctx: dict[tuple, dict[str, dict[str, list]]] = {}
    for pos, (cat, seg) in enumerate(zip(categories, segments)):
        if cat is not None:
            by_ctx.setdefault(seg.context, {}).setdefault(seg.speaker, {}).setdefault(
                cat, []
            ).append(pos)

    need = 2 if mode == "within" else 1
    plans = []
    stats = {"undersized": 0, "capped_speaker_pairs": 0}
    rng = None  # made on the first capped group: numpy 2 loads numpy.random on first use

    for ctx, speakers in sorted(by_ctx.items()):
        order = sorted(speakers)
        candidates = [(a, b) for a in order for b in order if (a == b) == (mode == "within")]
        heads = []
        for x, y in combinations(sorted({c for spk in speakers.values() for c in spk}), 2):
            valid = []
            for s_ab, s_x in candidates:
                if x not in speakers[s_ab] or y not in speakers[s_ab]:
                    continue
                sx = speakers[s_x]
                if len(sx.get(x, ())) < need or len(sx.get(y, ())) < need:
                    stats["undersized"] += 1
                    continue
                valid.append((s_ab, s_x))
            if (mode == "across" and max_speaker_pairs is not None
                    and len(valid) > max_speaker_pairs):
                stats["capped_speaker_pairs"] += len(valid) - max_speaker_pairs
                if rng is None:
                    rng = np.random.default_rng(seed)
                idx = rng.permutation(len(valid))[:max_speaker_pairs]
                valid = sorted(valid[i] for i in idx)
            heads.extend((x, y, ctx, s_ab, s_x) for s_ab, s_x in valid)
        if heads:
            plans.append(_plan_group(heads, speakers))
    return plans, stats


def _plan_group(heads, speakers) -> GroupPlan:
    """A group's block layout and the pairs its cells read, from its
    ``heads`` and its context's ``{speaker: {category: positions}}``.

    The block's rows are runs: each (speaker, category) list a cell reads,
    once, in sorted (speaker, category) order, each in segment-list order,
    so a cell's x_ab, y_ab, x_x and y_x are slices.  Every pair in A x X
    and B x X of a cell's two (A, B, X) triples is read, each unordered
    pair computed once: DTW is bit-symmetric.  The diagonal stays 0.0,
    what DTW of a segment with itself gives (each frame costs 0.0 against
    itself); pairs that nothing reads also stay 0.0 and are never looked at.
    """
    positions, runs = [], {}
    for s, c in sorted({(s, c) for x, y, _, s_ab, s_x in heads
                        for s in (s_ab, s_x) for c in (x, y)}):
        runs[s, c] = slice(len(positions), len(positions) + len(speakers[s][c]))
        positions += speakers[s][c]
    members = [(runs[s_ab, x], runs[s_ab, y], runs[s_x, x], runs[s_x, y])
               for x, y, _, s_ab, s_x in heads]
    read = np.zeros((len(positions),) * 2, dtype=bool)
    for x_ab, y_ab, x_x, y_x in members:
        for ab in (x_ab, y_ab):
            read[ab, x_x] = read[ab, y_x] = True
    i, j = np.nonzero(np.triu(read | read.T, 1))
    return GroupPlan(heads, positions, members, i, j)


# ---------------------------------------------------------------------------
# scoring


def _dp_cells(plans, frames) -> int:
    """The unpadded DP cells of the plans: the sum of m x n over every
    pair ``dtw_pairs`` will receive."""
    lengths = np.array([len(f) for f in frames])
    total = 0
    for plan in plans:
        n = lengths[plan.positions]
        total += int(np.dot(n[plan.i], n[plan.j]))
    return total


def _eta(block, a, b, x, within: bool) -> tuple[float, int]:
    """Error rate of A, X drawn from runs ``a`` and ``x`` against B from
    run ``b`` (slices of ``block``), and its number of comparisons.

    A strict d(A,X) > d(B,X) counts 1, an exact 64-bit tie counts 1/2;
    within mode (``x`` is ``a``) skips the A at X's own position.  The
    integer totals are divided once, so no comparison order is involved.
    """
    dax = block[a, x][:, None, :]
    dbx = block[b, x]
    gt = dax > dbx
    eq = dax == dbx
    n_a, n_b, _ = gt.shape
    total = gt.size
    if within:
        other = ~np.eye(n_a, dtype=bool)[:, None, :]
        gt &= other
        eq &= other
        total -= n_a * n_b
    errors = 2 * int(np.count_nonzero(gt)) + int(np.count_nonzero(eq))
    return errors / (2 * total), total


def _score_cells(plan: GroupPlan, distances) -> list[CellScore]:
    """Score the cells of a group from its DTW ``distances``, the
    ``dtw_pairs`` result over the block's pairs ``(plan.i, plan.j)``.

    epsilon = (eta(x->y) + eta(y->x)) / 2 for each cell.
    """
    n = len(plan.positions)
    block = np.zeros((n, n))
    block[plan.i, plan.j] = block[plan.j, plan.i] = distances
    scores = []
    for head, (x_ab, y_ab, x_x, y_x) in zip(plan.heads, plan.members):
        within = head[3] == head[4]  # speaker_ab == speaker_x
        eta_xy, total_xy = _eta(block, x_ab, y_ab, x_x, within)
        eta_yx, total_yx = _eta(block, y_ab, x_ab, y_x, within)
        scores.append(CellScore(
            *head, eta_xy, eta_yx, (eta_xy + eta_yx) / 2.0, total_xy + total_yx,
        ))
    return scores


# ---------------------------------------------------------------------------
# aggregation


def means(rows) -> dict:
    """{key: unweighted mean} over (key, value) rows, keys sorted.

    Each key's values are summed in row order and divided once, so a
    caller that passes rows in sorted order gets a pure function of the
    rows.  This is the package's one rate fold.
    """
    groups: dict = {}
    for key, value in rows:
        groups.setdefault(key, []).append(value)
    return {key: sum(groups[key]) / len(groups[key]) for key in sorted(groups)}


def fold_pairs(rows) -> dict:
    """{(x, y): mean rate, x <= y} over context-level ``((x, y, context),
    rate)`` rows, summed in sorted order.  A pair is unordered: a row
    written (y, x) counts for (x, y)."""
    ordered = sorted(((min(x, y), max(x, y), ctx), r) for (x, y, ctx), r in rows)
    return means(((x, y), r) for (x, y, _), r in ordered)


def fold_categories(pairwise) -> dict:
    """{category: mean rate of its pairs} over the pairs x != y, sorted."""
    return means((c, r) for (x, y), r in sorted(pairwise.items()) if x != y for c in (x, y))


def aggregate(per_cell, kind: str, condition: str, metadata: dict | None = None) -> AbxReport:
    """Three-level unweighted mean: speakers, then contexts, then pairs.

    Every fold runs in sorted key order so the float result is a pure
    function of the score multiset.
    """
    per_cell = sorted(per_cell, key=CellScore.key)
    if not per_cell:
        raise EmptyTaskError("no cell scores to aggregate")
    context_rates = means(
        ((cs.category_x, cs.category_y, cs.context), cs.epsilon) for cs in per_cell
    )
    pairwise = fold_pairs(context_rates.items())
    overall = means(("overall", r) for r in pairwise.values())["overall"]
    return AbxReport(kind, condition, pairwise, context_rates, overall,
                     per_cell, metadata or {})


# ---------------------------------------------------------------------------
# end-to-end driver

def score_corpus(archive: FeatureArchive, segments, mode: str, kind: str,
                 af_table: AfTable | None = None, zero_vector_distance: float = 1.0,
                 max_speaker_pairs: int | None = None, seed: int = 42,
                 jobs: int = 1) -> AbxReport:
    """Score an ABX task: the package's one scoring entry.

    ``build_cells`` plans -> one ``dtw_pairs`` call per plan (parallel over
    plans) -> cells scored from each plan's block -> aggregate.
    Every listed row, af-excluded ones too, is resolved to its frames
    first, in list order, so a row the archive cannot serve raises
    ``DataError`` (exit 3), naming the first such row, before an empty
    task raises ``EmptyTaskError`` (exit 4).  ``jobs`` caps the worker
    processes: the task's DP cells are counted first, and when they
    reach ``POOL_MIN_DP_CELLS`` a pool of ``min(jobs, groups)`` workers
    runs the groups' ``dtw_pairs`` calls if that is more than one;
    otherwise every call runs inline.  Either way a call carries only its
    group's rows, in block-row order, and its pairs; the parent scores
    each group's cells from its distances in plan order, so one block is
    alive at a time.  The report is bit-identical for any jobs value: the
    calls are the same, and the scores are folded in sorted order.
    ``report.stats`` holds ``workers`` (the pool's processes, 1 inline)
    and ``dp_cells`` (the count).  ``dtw_pairs`` checks
    ``zero_vector_distance``, with a zero-pair call before a pool starts,
    so an unservable row or an empty task is reported before it.
    """
    if jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {jobs}")
    plans, stats = build_cells(segments, mode, kind, af_table, max_speaker_pairs, seed)
    frames = [segment_frames(s, archive) for s in segments]
    if not plans:
        raise EmptyTaskError(
            f"no scoreable cells (undersized candidates: {stats['undersized']})"
        )
    dp_cells = _dp_cells(plans, frames)
    workers = min(jobs, len(plans)) if dp_cells >= POOL_MIN_DP_CELLS else 1
    # the arguments of one dtw_pairs call per group, carrying only its rows
    args = (([frames[p] for p in plan.positions] for plan in plans),
            [plan.i for plan in plans], [plan.j for plan in plans],
            [zero_vector_distance] * len(plans))
    if workers == 1:
        scores = [s for plan, d in zip(plans, map(dtw_pairs, *args))
                  for s in _score_cells(plan, d)]
    else:
        dtw_pairs([], [], [], zero_vector_distance)  # checks the charge before any worker
        # imported here: the pool's modules cost start-up of every command
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            scores = [s for plan, d in zip(plans, pool.map(dtw_pairs, *args))
                      for s in _score_cells(plan, d)]
    config = {
        "task": kind, "condition": mode, "zero_vector_distance": zero_vector_distance,
        "max_speaker_pairs_per_context": max_speaker_pairs, "seed": seed,
        "af_table": af_table.feature_name if af_table else None,
    }
    metadata = {
        "task": kind,
        "condition": mode,
        "cells": len(scores),
        "comparisons": sum(s.n_comparisons for s in scores),
        "skipped_undersized": stats["undersized"],
        "capped_speaker_pairs": stats["capped_speaker_pairs"],
        "speaker_pairs": "ordered",
        "seed": seed,
        "config_sha256": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
    }
    report = aggregate(scores, kind, mode, metadata)
    report.stats = {"workers": workers, "dp_cells": dp_cells}
    return report
