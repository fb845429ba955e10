"""Within- and across-speaker ABX task construction, scoring, aggregation.

A cell is the smallest scoring unit: one unordered category pair, one
triphone context, one speaker (within) or one ordered speaker pair
(across).  Cells that read the same segments (one context and speaker
within, one context across) form a group, and the cell builder hands
the cells out in those groups.  ``score_corpus`` is the one scoring
entry: each group computes a dense segment x segment block of DTW
dissimilarities, every unordered pair once through the batched kernel,
and its cells are scored by lookups into that block.  Groups are pure
functions of the archive, so they can be scored in parallel; a process
pool starts only when the task's DP cells reach ``POOL_MIN_DP_CELLS``.

Scoring counts strict wins and exact ties as integers and divides once
at the end, so the comparison order inside a cell cannot perturb eta.
Every rate mean after that (context, pair, overall and category rates,
and the re-aggregation of ``pairwise.csv`` in ``cli`` and ``analysis``)
is one fold, ``means``, over rows in sorted key order, which makes
reports bit-identical regardless of worker count.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .af_tables import AfTable
from .corpus import FeatureArchive, ItemSegment, segment_frames
from .distance import DEFAULT_DTW, DtwConfig, dtw_pairs
from .errors import EmptyTaskError, UsageError
from .manifest import json_bytes, lines_bytes

TASK_KINDS = ("phone", "af")
MODES = ("within", "across")
PAIRWISE_HEADER = "category_x,category_y,context_prev,context_next,condition,rate"

# Below this many DP cells (the unpadded sum of m x n over every segment
# pair the distance blocks compute) the groups are scored inline: a pool
# costs its start-up and a copy of the archive per worker.  Timing fresh
# ``abxlab eval`` processes at --jobs 1 and 2 on a shared 2-core machine
# (10-12 alternating pairs a series), the pool won at 3.1M cells in 10/10
# and 6/10 pairs and lost in 12/12 and 9/10 in two other series; at 4.2M
# it won in 10/12, 10/10 and 5/10, at 2.1M in 7/10 and at 1.3M in 1/10.
POOL_MIN_DP_CELLS = 3_000_000


@dataclass(frozen=True)
class CellLimits:
    """Optional cap on across-speaker combinatorics.

    When max_speaker_pairs_per_context is set, the ordered speaker pairs
    of each (category pair, context) group are subsampled with a seeded
    shuffle; the seed lands in report metadata.
    """

    max_speaker_pairs_per_context: int | None = None
    seed: int = 42

    def __post_init__(self):
        cap = self.max_speaker_pairs_per_context
        if cap is not None and cap < 1:
            raise UsageError(f"max_speaker_pairs_per_context must be >= 1, got {cap}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TaskCell:
    kind: str
    category_x: str
    category_y: str
    context: tuple[str, str]
    speaker_ab: str
    speaker_x: str
    set_x_ab: tuple[ItemSegment, ...]
    set_y_ab: tuple[ItemSegment, ...]
    set_x_x: tuple[ItemSegment, ...]
    set_y_x: tuple[ItemSegment, ...]

    @property
    def within(self) -> bool:
        return self.speaker_ab == self.speaker_x

    def key(self):
        return (self.category_x, self.category_y, self.context, self.speaker_ab, self.speaker_x)


@dataclass(frozen=True)
class CellScore:
    kind: str
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
        return means((c, r) for (x, y), r in sorted(self.pairwise.items()) for c in (x, y))

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
# cell construction


def _categorize(segments, kind, af_table):
    """Pairs (category, segment); af-excluded segments are dropped."""
    if kind == "phone":
        return [(s.phone, s) for s in segments]
    af_table.check_phones({s.phone for s in segments})
    out = []
    for s in segments:
        cat = af_table.classify(s.phone)
        if cat is not None:
            out.append((cat, s))
    return out


def _build_cells(segments, mode, kind, af_table, limits):
    """Cells in scoring groups, the segments each group reads: one per
    (context, speaker) within, one per context across.  Groups come in
    sorted group order, cells in key order inside a group; empty groups
    are dropped."""
    if mode not in MODES:
        raise UsageError(f"mode must be one of {MODES}, got {mode!r}")
    if kind not in TASK_KINDS:
        raise UsageError(f"task kind must be one of {TASK_KINDS}, got {kind!r}")
    if (kind == "af") != (af_table is not None):
        raise UsageError("af_table is required for the af task and only for it")

    by_ctx: dict[tuple, dict[str, dict[str, list]]] = {}
    for cat, seg in _categorize(segments, kind, af_table):
        by_ctx.setdefault(seg.context, {}).setdefault(seg.speaker, {}).setdefault(
            cat, []
        ).append(seg)

    groups = []
    stats = {"undersized": 0, "capped_speaker_pairs": 0}
    rng = np.random.default_rng(limits.seed)

    for ctx in sorted(by_ctx):
        speakers = by_ctx[ctx]
        if mode == "within":
            for spk in sorted(speakers):
                cats = speakers[spk]
                cells = []
                for x, y in _sorted_pairs(cats):
                    sx, sy = cats[x], cats[y]
                    if len(sx) < 2 or len(sy) < 2:
                        stats["undersized"] += 1
                        continue
                    sx = tuple(sorted(sx))
                    sy = tuple(sorted(sy))
                    cells.append(
                        TaskCell(kind, x, y, ctx, spk, spk, sx, sy, sx, sy)
                    )
                groups.append(cells)
        else:
            cells = []
            all_cats = sorted({c for spk in speakers.values() for c in spk})
            for x, y in _sorted_pairs({c: None for c in all_cats}):
                valid = []
                for s_ab in sorted(speakers):
                    if x not in speakers[s_ab] or y not in speakers[s_ab]:
                        continue
                    for s_x in sorted(speakers):
                        if s_x == s_ab:
                            continue
                        if x not in speakers[s_x] or y not in speakers[s_x]:
                            stats["undersized"] += 1
                            continue
                        valid.append((s_ab, s_x))
                cap = limits.max_speaker_pairs_per_context
                if cap is not None and len(valid) > cap:
                    stats["capped_speaker_pairs"] += len(valid) - cap
                    idx = rng.permutation(len(valid))[:cap]
                    valid = sorted(valid[i] for i in idx)
                for s_ab, s_x in valid:
                    cells.append(
                        TaskCell(
                            kind, x, y, ctx, s_ab, s_x,
                            tuple(sorted(speakers[s_ab][x])),
                            tuple(sorted(speakers[s_ab][y])),
                            tuple(sorted(speakers[s_x][x])),
                            tuple(sorted(speakers[s_x][y])),
                        )
                    )
            groups.append(cells)
    return [g for g in groups if g], stats


def _sorted_pairs(cats: dict):
    keys = sorted(cats)
    for i, x in enumerate(keys):
        for y in keys[i + 1:]:
            yield x, y


def build_cells(segments, mode, kind, af_table: AfTable | None = None,
                limits: CellLimits = CellLimits()) -> list[TaskCell]:
    groups, _ = _build_cells(segments, mode, kind, af_table, limits)
    return sorted((c for g in groups for c in g), key=TaskCell.key)


# ---------------------------------------------------------------------------
# scoring

def _indexed(sets):
    """The distinct segments of ``sets`` in sorted order, and each set as
    an index array into them (a segment listed twice keeps both entries)."""
    segments = sorted({s for members in sets for s in members})
    pos = {s: i for i, s in enumerate(segments)}
    return segments, [np.array([pos[s] for s in members], dtype=np.intp) for members in sets]


class _GroupPlan(NamedTuple):
    """What scoring a group needs before any DTW runs."""

    cells: list
    segments: list  # the distinct segments the cells read, sorted
    xy: list  # per cell, the (A, B, X) index triple of eta(x->y)
    yx: list  # and of eta(y->x)
    i: np.ndarray  # the segment pairs the distance block computes, i < j
    j: np.ndarray


def _plan_group(cells) -> _GroupPlan:
    """The index triples of a group's cells and the pairs they read.

    Every pair in A x X and B x X of a triple is read, each unordered
    pair is computed once because DTW is bit-symmetric.  The diagonal of
    the block stays 0.0, which is what DTW of a segment with itself
    gives (the equal-frame rule zeroes its diagonal path); pairs that
    nothing reads also stay 0.0 and are never looked at.
    """
    segments, idx = _indexed(
        [s for c in cells for s in (c.set_x_ab, c.set_y_ab, c.set_x_x, c.set_y_x)]
    )
    xy = [(idx[k], idx[k + 1], idx[k + 2]) for k in range(0, len(idx), 4)]
    yx = [(idx[k + 1], idx[k], idx[k + 3]) for k in range(0, len(idx), 4)]
    n = len(segments)
    read = np.zeros((n, n), dtype=bool)
    for a, b, x in xy + yx:
        read[np.ix_(a, x)] = True
        read[np.ix_(b, x)] = True
    i, j = np.nonzero(np.triu(read | read.T, 1))
    return _GroupPlan(cells, segments, xy, yx, i, j)


def _dp_cells(plans, archive) -> int:
    """The unpadded DP cells of the plans: the sum of m x n over every
    pair ``dtw_pairs`` will receive."""
    total = 0
    for plan in plans:
        lengths = np.array([segment_frames(s, archive).shape[0] for s in plan.segments])
        total += int(np.dot(lengths[plan.i], lengths[plan.j]))
    return total


def _eta(block, a, b, x, within: bool) -> tuple[float, int]:
    """Error rate of A, X drawn from ``a`` and ``x`` against B from ``b``,
    and the number of comparisons it is taken over.

    A strict d(A,X) > d(B,X) counts 1, an exact 64-bit tie counts 1/2;
    within mode (``x`` is ``a``) skips the A at X's own position.  The
    integer totals are divided once, so no comparison order is involved.
    """
    dax = block[np.ix_(a, x)][:, None, :]
    dbx = block[np.ix_(b, x)][None, :, :]
    gt = dax > dbx
    eq = dax == dbx
    if within:
        other = ~np.eye(len(a), dtype=bool)[:, None, :]
        gt &= other
        eq &= other
        total = len(a) * (len(a) - 1) * len(b)
    else:
        total = len(a) * len(b) * len(x)
    errors = 2 * int(np.count_nonzero(gt)) + int(np.count_nonzero(eq))
    return errors / (2 * total), total


def _score_group(plan: _GroupPlan, archive: FeatureArchive, cfg: DtwConfig) -> list[CellScore]:
    """Score the cells of a group from one distance block.

    epsilon = (eta(x->y) + eta(y->x)) / 2 for each cell.
    """
    n = len(plan.segments)
    block = np.zeros((n, n))
    block[plan.i, plan.j] = block[plan.j, plan.i] = dtw_pairs(
        [segment_frames(s, archive) for s in plan.segments], plan.i, plan.j, cfg
    )
    scores = []
    for cell, triple_xy, triple_yx in zip(plan.cells, plan.xy, plan.yx):
        eta_xy, total_xy = _eta(block, *triple_xy, cell.within)
        eta_yx, total_yx = _eta(block, *triple_yx, cell.within)
        scores.append(CellScore(
            cell.kind, cell.category_x, cell.category_y, cell.context,
            cell.speaker_ab, cell.speaker_x,
            eta_xy, eta_yx, (eta_xy + eta_yx) / 2.0, total_xy + total_yx,
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
    pairwise = means(((x, y), r) for (x, y, _), r in context_rates.items())
    overall = means(("overall", r) for r in pairwise.values())["overall"]
    return AbxReport(kind, condition, pairwise, context_rates, overall,
                     per_cell, metadata or {})


# ---------------------------------------------------------------------------
# end-to-end driver

_WORKER_STATE = None


def _worker_init(archive, cfg):
    global _WORKER_STATE
    _WORKER_STATE = (archive, cfg)


def _worker_group(plan):
    return _score_group(plan, *_WORKER_STATE)


def config_digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def score_corpus(archive: FeatureArchive, segments, mode: str, kind: str,
                 af_table: AfTable | None = None, cfg: DtwConfig = DEFAULT_DTW,
                 limits: CellLimits = CellLimits(), jobs: int = 1) -> AbxReport:
    """Score an ABX task: the package's one scoring entry.

    Cell groups -> distance blocks (parallel over groups) -> aggregate.
    ``jobs`` caps the worker processes: with ``jobs > 1`` and two groups
    or more, the task's DP cells are counted first, and a pool of
    ``min(jobs, groups)`` workers starts only when they reach
    ``POOL_MIN_DP_CELLS``; otherwise every group is scored inline.  The
    report is bit-identical for any jobs value: each group's cells are
    scored from its own distance block, and the scores are folded in
    sorted order.  ``report.stats`` holds ``workers`` (the pool's
    processes, 1 inline) and ``dp_cells`` (the count, or None when no
    decision needed it).
    """
    if jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {jobs}")
    groups, stats = _build_cells(segments, mode, kind, af_table, limits)
    if not groups:
        raise EmptyTaskError(
            f"no scoreable cells (undersized candidates: {stats['undersized']})"
        )
    plans = [_plan_group(g) for g in groups]
    workers, dp_cells = 1, None
    if jobs > 1 and len(plans) > 1:
        dp_cells = _dp_cells(plans, archive)
        if dp_cells >= POOL_MIN_DP_CELLS:
            workers = min(jobs, len(plans))
    if workers == 1:
        scored = [_score_group(p, archive, cfg) for p in plans]
    else:
        # imported here: the pool's modules cost start-up of every command
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init, initargs=(archive, cfg),
        ) as pool:
            scored = list(pool.map(_worker_group, plans))
    scores = [s for group in scored for s in group]
    metadata = {
        "task": kind,
        "condition": mode,
        "cells": len(scores),
        "comparisons": sum(s.n_comparisons for s in scores),
        "skipped_undersized": stats["undersized"],
        "capped_speaker_pairs": stats["capped_speaker_pairs"],
        "speaker_pairs": "ordered",
        "seed": limits.seed,
        "config_sha256": config_digest(
            {
                "task": kind,
                "condition": mode,
                "zero_vector_distance": cfg.zero_vector_distance,
                "max_speaker_pairs_per_context": limits.max_speaker_pairs_per_context,
                "seed": limits.seed,
                "af_table": af_table.feature_name if af_table else None,
            }
        ),
    }
    report = aggregate(scores, kind, mode, metadata)
    report.stats = {"workers": workers, "dp_cells": dp_cells}
    return report
