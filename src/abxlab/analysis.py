"""Per-category rates, confusion metrics, correlation.

These operations consume pairwise ABX rates or frame-label tracks and
produce the derived quantities used in the reports: per-phoneme error
xi (per-attribute error when the categories are AF attributes), the
row-normalized confusion matrix with its
co-occurrence probabilities, relative error-rate reduction, and Pearson
or Spearman correlation.  xi runs on the ABX report's own rate folds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .abx import fold_categories, fold_pairs
from .af_tables import CONSONANTS, DIPHTHONGS, MONOPHTHONGS
from .corpus import time_to_frame
from .errors import DataError, UsageError
from .manifest import lines_bytes


def phone_category(phone: str) -> str:
    if phone in MONOPHTHONGS:
        return "monophthong"
    if phone in DIPHTHONGS:
        return "diphthong"
    if phone in CONSONANTS:
        return "consonant"
    return "other"


@dataclass
class PhonemeReport:
    xi: dict
    denominators: dict
    tags: dict
    missing: list = field(default_factory=list)


def phoneme_level_rates(pairwise) -> PhonemeReport:
    """xi(w) = mean rate of the pairs (w, v), v != w, by ``abx.fold_pairs``
    (rates given for (a, b) and (b, a) count as one mean) and
    ``abx.fold_categories``.  The categories are phones, or AF attributes
    (tagged "other"); one whose only pair is with itself is ``missing``.
    """
    if not pairwise:
        raise DataError("empty pairwise rate map")
    pairs = fold_pairs(((a, b, ()), float(r)) for (a, b), r in pairwise.items())
    xi = fold_categories(pairs)
    denom = dict(sorted(Counter(w for a, b in pairs if a != b for w in (a, b)).items()))
    categories = sorted({w for pair in pairs for w in pair})
    missing = [w for w in categories if w not in xi]
    tags = {w: phone_category(w) for w in categories}
    return PhonemeReport(xi, denom, tags, missing)


# ---------------------------------------------------------------------------
# confusion matrix and co-occurrence


@dataclass
class ConfusionMatrix:
    row_symbols: list
    col_symbols: list
    values: np.ndarray
    frame_counts: list
    empty_rows: list = field(default_factory=list)

    def to_csv_bytes(self) -> bytes:
        return lines_bytes(["truth," + ",".join(self.col_symbols)] + [
            sym + "," + ",".join(repr(float(v)) for v in row)
            for sym, row in zip(self.row_symbols, self.values)
        ])


def strip_tone(label: str) -> str:
    """Drop trailing digits; an all-digit label is left unchanged."""
    stripped = label.rstrip("0123456789")
    return stripped if stripped else label


def _frame_ranges(track, frame_period):
    """Each span's frames ``[start, end)`` with its label, empty ones dropped;
    sorted and disjoint, as the spans are and ``time_to_frame`` is monotone."""
    ranges = ((time_to_frame(onset, frame_period), time_to_frame(offset, frame_period), label)
              for onset, offset, label in track.spans)
    return [r for r in ranges if r[0] < r[1]]


def confusion_matrix(truth_tracks, hyp_tracks, frame_period: int,
                     strip_tones: bool = False) -> ConfusionMatrix:
    """Row-normalized truth-vs-hypothesis frame co-occurrence, e_ij.

    Only frames labeled in both tracks count, as the overlaps of the two
    tracks' frame ranges: the work grows with the spans, not their length.
    Rows are ground-truth symbols, columns hypothesis symbols.  Truth
    symbols that never co-occur with a hypothesis label are flagged in
    empty_rows.
    """
    truth_by_utt = {t.utt: t for t in truth_tracks}
    hyp_by_utt = {t.utt: t for t in hyp_tracks}
    common = sorted(set(truth_by_utt) & set(hyp_by_utt))
    if not common:
        raise DataError("truth and hypothesis tracks share no utterances")
    counts = Counter()
    seen_truth: set[str] = set()
    for utt in common:
        truth = _frame_ranges(truth_by_utt[utt], frame_period)
        hyp = _frame_ranges(hyp_by_utt[utt], frame_period)
        seen_truth.update(g for _, _, g in truth)
        i = j = 0
        while i < len(truth) and j < len(hyp):
            (g_start, g_end, g), (h_start, h_end, h) = truth[i], hyp[j]
            overlap = min(g_end, h_end) - max(g_start, h_start)
            if overlap > 0:
                counts[g, strip_tone(h) if strip_tones else h] += overlap
            if g_end <= h_end:
                i += 1
            else:
                j += 1
    if not counts:
        raise DataError("no co-labeled frames between truth and hypothesis tracks")
    if sum(counts.values()) >= 2**53:  # below it every count and row sum is exact
        raise DataError("2**53 or more co-labeled frames: too many to count in float64")
    row_symbols = sorted({g for g, _ in counts})
    col_symbols = sorted({h for _, h in counts})
    empty_rows = sorted(seen_truth - set(row_symbols))
    table = np.array([[counts[g, h] for h in col_symbols] for g in row_symbols], dtype=float)
    totals = table.sum(axis=1)
    return ConfusionMatrix(row_symbols, col_symbols, table / totals[:, None],
                           [int(n) for n in totals], empty_rows)


def co_occurrence(cm: ConfusionMatrix) -> dict:
    """p_co per truth phoneme: the largest row entry and its column."""
    out = {}
    for i, sym in enumerate(cm.row_symbols):
        j = int(np.argmax(cm.values[i]))
        out[sym] = (float(cm.values[i, j]), cm.col_symbols[j])
    return out


# ---------------------------------------------------------------------------
# reduction and correlation


def relative_reduction(baseline, improved):
    """100 * (baseline - improved) / baseline per key.

    Returns (reductions, undefined): keys with baseline 0 land in
    ``undefined``.  Key sets must match exactly, and a reduction that
    overflows float64 is a ``DataError`` naming its key.
    """
    bkeys, ikeys = set(baseline), set(improved)
    if bkeys != ikeys:
        missing_b = sorted(ikeys - bkeys)
        missing_i = sorted(bkeys - ikeys)
        raise DataError(
            f"key mismatch: missing in baseline {missing_b}, missing in improved {missing_i}"
        )
    reductions, undefined = {}, []
    for key in sorted(bkeys):
        b = float(baseline[key])
        if b == 0.0:
            undefined.append(key)
            continue
        i = float(improved[key])
        reductions[key] = 100.0 * (b - i) / b
        if not np.isfinite(reductions[key]):
            raise DataError(f"relative reduction of {key!r} is not finite: "
                            f"baseline {b!r}, improved {i!r}")
    return reductions, undefined


def _as_float_array(xs, name):
    arr = np.asarray(xs, dtype=np.float64)
    if arr.ndim != 1:
        raise UsageError(f"{name} must be one-dimensional")
    if not np.isfinite(arr).all():
        raise DataError(f"non-finite value in {name}")
    return arr


def _scaled(u: np.ndarray) -> np.ndarray:
    """``u`` times the power of two that brings its largest magnitude into
    [0.5, 1) (an all-zero ``u`` as it is): exact, but for elements so far
    below that magnitude that they turn subnormal."""
    return np.ldexp(u, -np.frexp(np.abs(u).max())[1])


def pearson_correlation(xs, ys) -> float:
    """Pearson r, clamped to [-1, 1].

    Uses a single square root of the variance product so exactly linear
    integer-friendly inputs come out as exactly +/-1.0.  Each centred
    series is first scaled into [0.5, 1) by a power of two, so its sums
    stay at most its length: a tiny series keeps them out of the
    subnormal range and a huge one out of overflow.  r is scale-free and
    the scale is exact, so a result whose sums held no subnormal keeps
    its bits.  A series whose centring overflows float64 is a
    ``DataError``.
    """
    x = _as_float_array(xs, "xs")
    y = _as_float_array(ys, "ys")
    if x.shape != y.shape or x.size < 2:
        raise UsageError("series must have equal length >= 2")
    try:
        with np.errstate(over="raise", invalid="raise"):
            u, v = _scaled(x - x.mean()), _scaled(y - y.mean())
    except FloatingPointError:
        raise DataError("correlation undefined: centring a series overflows float64") from None
    su2, sv2, uv = (float(np.einsum("i,i->", a, b)) for a, b in ((u, u), (v, v), (u, v)))
    if su2 == 0.0 or sv2 == 0.0:
        raise DataError("correlation undefined: zero variance in one series")
    r = uv / np.sqrt(su2 * sv2)
    return min(max(r, -1.0), 1.0)


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based), ties share the mean of their positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman_correlation(xs, ys) -> float:
    x = _as_float_array(xs, "xs")
    y = _as_float_array(ys, "ys")
    return pearson_correlation(_ranks(x), _ranks(y))
