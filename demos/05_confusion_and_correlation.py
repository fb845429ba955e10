"""Frame confusion, co-occurrence, error reduction and their correlation.

Builds ground-truth and hypothesis label tracks where each phone leaks
into a wrong label by a controlled amount, then shows how p_co (the
largest row entry of the confusion matrix) tracks the label consistency
and how error-rate reduction correlates with it.
"""

from abxlab.analysis import (
    co_occurrence,
    confusion_matrix,
    pearson_correlation,
    relative_reduction,
    spearman_correlation,
)
from abxlab.corpus import FrameLabelTrack

FRAME = 0.01  # seconds
PERIOD = 10000  # microseconds

# fraction of each phone's frames that keep a consistent hypothesis label
CONSISTENCY = {"AA": 1.0, "IY": 0.8, "UW": 0.55}


def build_tracks(n_frames=240):
    truth_spans, hyp_spans = [], []
    phones = sorted(CONSISTENCY)
    seen = {p: 0 for p in phones}
    for i in range(n_frames):
        phone = phones[i % len(phones)]
        start, end = i * FRAME, (i + 1) * FRAME
        truth_spans.append((start, end, phone))
        keep = seen[phone] % 20 < round(CONSISTENCY[phone] * 20)
        seen[phone] += 1
        hyp_spans.append((start, end, f"c_{phone}" if keep else "c_other"))
    return [FrameLabelTrack("u", truth_spans)], [FrameLabelTrack("u", hyp_spans)]


def main():
    truth, hyp = build_tracks()
    cm = confusion_matrix(truth, hyp, PERIOD)
    print("confusion matrix rows (truth x hypothesis, row-normalized):")
    for sym, row in zip(cm.row_symbols, cm.values):
        cells = ", ".join(
            f"{h}={v:.2f}" for h, v in zip(cm.col_symbols, row) if v > 0
        )
        print(f"    {sym}: {cells}")

    pco = co_occurrence(cm)
    print("\nco-occurrence p_co per phone:")
    for sym, (p, label) in sorted(pco.items()):
        print(f"    {sym}: {p:.3f} (dominant hypothesis label {label!r})")

    # pretend a better representation cut errors most where labels are consistent
    baseline = {"AA": 0.30, "IY": 0.25, "UW": 0.28}
    improved = {"AA": 0.10, "IY": 0.14, "UW": 0.22}
    reductions, undefined = relative_reduction(baseline, improved)
    print("\nrelative error reduction (percent):")
    for sym, r in sorted(reductions.items()):
        print(f"    {sym}: {r:.1f}%")
    if undefined:
        print(f"    undefined for: {undefined}")

    xs = [pco[s][0] for s in sorted(reductions)]
    ys = [reductions[s] for s in sorted(reductions)]
    print(f"\npearson  r = {pearson_correlation(xs, ys):+.3f}")
    print(f"spearman r = {spearman_correlation(xs, ys):+.3f}")
    print("phones whose frames co-occur with one dominant label improve most.")


if __name__ == "__main__":
    main()
