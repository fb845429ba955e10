"""Per-category rates, confusion metrics, correlation.

These operations consume pairwise ABX rates or frame-label tracks and
produce the derived quantities used in the reports: per-phoneme error
xi (per-attribute error when the categories are AF attributes), the
row-normalized confusion matrix with its
co-occurrence probabilities, relative error-rate reduction, and Pearson
or Spearman correlation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .abx import means
from .af_tables import CONSONANTS, DIPHTHONGS, MONOPHTHONGS
from .corpus import time_to_frame
from .errors import DataError, UsageError


def phone_category(phone: str) -> str:
    if phone in MONOPHTHONGS:
        return "monophthong"
    if phone in DIPHTHONGS:
        return "diphthong"
    if phone in CONSONANTS:
        return "consonant"
    return "other"


def _norm_pair(key) -> tuple[str, str]:
    a, b = key
    return (a, b) if a <= b else (b, a)


@dataclass
class PhonemeReport:
    condition: str
    xi: dict
    denominators: dict
    tags: dict
    missing: list = field(default_factory=list)


def phoneme_level_rates(pairwise, inventory=None, condition: str = "") -> PhonemeReport:
    """xi(w) = mean of pairwise rates over present pairs containing w.

    The categories w are phones, or AF attributes for the pairwise map
    of an AF task (which then get the tag "other").  ``inventory``
    defaults to every category appearing in the pairwise map;
    categories with no scorable pair land in ``missing`` instead of ``xi``.
    """
    if not pairwise:
        raise DataError("empty pairwise rate map")
    rates = {_norm_pair(k): float(v) for k, v in pairwise.items()}
    if inventory is None:
        inventory = sorted({p for pair in rates for p in pair})
    wanted = set(inventory)
    incident = [
        (w, r) for (a, b), r in sorted(rates.items()) if a != b
        for w in (a, b) if w in wanted
    ]
    xi = means(incident)
    denom = {w: sum(1 for v, _ in incident if v == w) for w in xi}
    missing = [w for w in sorted(inventory) if w not in xi]
    tags = {w: phone_category(w) for w in sorted(inventory)}
    return PhonemeReport(condition, xi, denom, tags, missing)


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
        lines = ["truth," + ",".join(self.col_symbols)]
        for i, sym in enumerate(self.row_symbols):
            lines.append(sym + "," + ",".join(repr(float(v)) for v in self.values[i]))
        return ("\n".join(lines) + "\n").encode()


def strip_tone(label: str) -> str:
    """Drop trailing digits; an all-digit label is left unchanged."""
    stripped = label.rstrip("0123456789")
    return stripped if stripped else label


def _frame_labels(track, frame_period):
    """Label per frame index for one track; unlabeled frames are None."""
    out: dict[int, str] = {}
    for onset, offset, label in track.spans:
        start = time_to_frame(onset, frame_period)
        end = time_to_frame(offset, frame_period)
        for t in range(start, end):
            out[t] = label
    return out


def confusion_matrix(truth_tracks, hyp_tracks, frame_period: int,
                     strip_tones: bool = False) -> ConfusionMatrix:
    """Row-normalized truth-vs-hypothesis frame co-occurrence, e_ij.

    Only frames labeled in both tracks count; rows are ground-truth
    symbols, columns hypothesis symbols.  Truth symbols that never
    co-occur with a hypothesis label are flagged in empty_rows.
    """
    truth_by_utt = {t.utt: t for t in truth_tracks}
    hyp_by_utt = {t.utt: t for t in hyp_tracks}
    common = sorted(set(truth_by_utt) & set(hyp_by_utt))
    if not common:
        raise DataError("truth and hypothesis tracks share no utterances")
    counts: dict[tuple[str, str], int] = {}
    seen_truth: set[str] = set()
    for utt in common:
        g = _frame_labels(truth_by_utt[utt], frame_period)
        l = _frame_labels(hyp_by_utt[utt], frame_period)
        seen_truth.update(g.values())
        for t, gt in g.items():
            hyp = l.get(t)
            if hyp is None:
                continue
            if strip_tones:
                hyp = strip_tone(hyp)
            counts[(gt, hyp)] = counts.get((gt, hyp), 0) + 1
    if not counts:
        raise DataError("no co-labeled frames between truth and hypothesis tracks")
    row_symbols = sorted({g for g, _ in counts})
    col_symbols = sorted({h for _, h in counts})
    empty_rows = sorted(seen_truth - set(row_symbols))
    values = np.zeros((len(row_symbols), len(col_symbols)))
    totals = []
    for i, g in enumerate(row_symbols):
        row_counts = np.array(
            [counts.get((g, h), 0) for h in col_symbols], dtype=np.float64
        )
        total = int(row_counts.sum())
        totals.append(total)
        values[i] = row_counts / total
    return ConfusionMatrix(row_symbols, col_symbols, values, totals, empty_rows)


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
    ``undefined``.  Key sets must match exactly.
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
        reductions[key] = 100.0 * (b - float(improved[key])) / b
    return reductions, undefined


def _as_float_array(xs, name):
    arr = np.asarray(xs, dtype=np.float64)
    if arr.ndim != 1:
        raise UsageError(f"{name} must be one-dimensional")
    if not np.isfinite(arr).all():
        raise DataError(f"non-finite value in {name}")
    return arr


def pearson_correlation(xs, ys) -> float:
    """Pearson r, clamped to [-1, 1].

    Uses a single square root of the variance product so exactly linear
    integer-friendly inputs come out as exactly +/-1.0.
    """
    x = _as_float_array(xs, "xs")
    y = _as_float_array(ys, "ys")
    if x.shape != y.shape or x.size < 2:
        raise UsageError("series must have equal length >= 2")
    u = x - x.mean()
    v = y - y.mean()
    su2 = float(np.einsum("i,i->", u, u))
    sv2 = float(np.einsum("i,i->", v, v))
    if su2 == 0.0 or sv2 == 0.0:
        raise DataError("correlation undefined: zero variance in one series")
    r = float(np.einsum("i,i->", u, v)) / np.sqrt(su2 * sv2)
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
    if x.shape != y.shape or x.size < 2:
        raise UsageError("series must have equal length >= 2")
    return pearson_correlation(_ranks(x), _ranks(y))
