import numpy as np
import pytest

from abxlab.af_tables import CMU_PHONES
from abxlab.analysis import (
    co_occurrence,
    confusion_matrix,
    pearson_correlation,
    phoneme_level_rates,
    relative_reduction,
    spearman_correlation,
    strip_tone,
    _ranks,
)
from abxlab.corpus import FrameLabelTrack
from abxlab.errors import DataError, UsageError

PERIOD = 10000  # 10 ms


def track(utt, *spans):
    return FrameLabelTrack(utt, tuple(spans))


# ---------------------------------------------------------------------------
# phoneme-level rates


def test_xi_basic_arithmetic():
    report = phoneme_level_rates({("a", "b"): 0.1, ("a", "c"): 0.3}, condition="within")
    assert report.xi["a"] == 0.2
    assert report.xi["b"] == 0.1
    assert report.xi["c"] == 0.3
    assert report.denominators == {"a": 2, "b": 1, "c": 1}
    assert report.condition == "within"
    assert report.missing == []


def test_xi_all_zero():
    report = phoneme_level_rates({("a", "b"): 0.0, ("b", "c"): 0.0, ("a", "c"): 0.0})
    assert set(report.xi.values()) == {0.0}


def test_xi_is_order_independent():
    pairs = [(("a", "b"), 0.17), (("a", "c"), 0.29), (("b", "c"), 0.05), (("a", "d"), 0.4)]
    forward = phoneme_level_rates(dict(pairs))
    backward = phoneme_level_rates({(y, x): r for (x, y), r in reversed(pairs)})
    assert forward.xi == backward.xi
    assert forward.denominators == backward.denominators


def test_xi_missing_inventory_entries():
    report = phoneme_level_rates({("AE", "EH"): 0.1}, inventory=("AE", "EH", "IY"))
    assert report.missing == ["IY"]
    assert "IY" not in report.xi
    assert report.tags == {"AE": "monophthong", "EH": "monophthong", "IY": "monophthong"}


def test_tags_partition_cmu_inventory():
    rates = {("AA", p): 0.1 for p in CMU_PHONES if p != "AA"}
    report = phoneme_level_rates(rates, inventory=CMU_PHONES)
    counts = {}
    for tag in report.tags.values():
        counts[tag] = counts.get(tag, 0) + 1
    assert counts == {"monophthong": 10, "diphthong": 5, "consonant": 24}


def test_xi_rejects_empty():
    with pytest.raises(DataError):
        phoneme_level_rates({})


# ---------------------------------------------------------------------------
# AF attribute rates: phoneme_level_rates over the pairwise map of an AF task


def test_af_attribute_rates_basic():
    report = phoneme_level_rates(
        {("St", "Fr"): 0.25, ("St", "Na"): 0.17, ("Fr", "Na"): 0.12}
    )
    rates = report.xi
    assert rates["St"] == pytest.approx(0.21, abs=1e-12)
    assert f"{rates['St']:.6f}" == "0.210000"
    assert rates["Fr"] == (0.25 + 0.12) / 2
    assert rates["Na"] == (0.17 + 0.12) / 2
    assert report.missing == []
    assert set(report.tags.values()) == {"other"}


def test_af_attribute_rates_single_pair():
    assert phoneme_level_rates({("St", "Fr"): 0.09}).xi == {"St": 0.09, "Fr": 0.09}


def test_af_attribute_rates_five_attribute_table():
    rng = np.random.default_rng(0)
    attrs = ["Affricate", "Approximant", "Fricative", "Nasal", "Stop"]
    pairwise = {}
    for i, a in enumerate(attrs):
        for b in attrs[i + 1:]:
            pairwise[(a, b)] = float(rng.uniform(0, 1))
    report = phoneme_level_rates(pairwise, inventory=attrs)
    assert report.missing == []
    for a in attrs:
        incident = sorted(
            (min(k), max(k), v) for k, v in pairwise.items() if a in k
        )
        assert len(incident) == 4
        hand = sum(v for _, _, v in incident) / 4
        assert report.xi[a] == hand
        assert report.denominators[a] == 4


def test_af_attribute_rates_missing_attribute():
    report = phoneme_level_rates({("St", "Fr"): 0.1}, inventory=("St", "Fr", "Na"))
    assert report.missing == ["Na"]
    assert "Na" not in report.xi


# ---------------------------------------------------------------------------
# confusion matrix


def test_confusion_identity_labeling():
    truth = [track("u01", (0.0, 0.4, "AE"), (0.4, 1.0, "K"))]
    cm = confusion_matrix(truth, truth, PERIOD)
    assert cm.row_symbols == ["AE", "K"]
    assert np.array_equal(cm.values, np.eye(2))
    assert cm.frame_counts == [40, 60]
    assert all(p == 1.0 for p, _ in co_occurrence(cm).values())


def test_confusion_bijective_renaming_is_permutation():
    truth = [track("u01", (0.0, 0.4, "AE"), (0.4, 1.0, "K"))]
    hyp = [track("u01", (0.0, 0.4, "x7"), (0.4, 1.0, "x2"))]
    cm = confusion_matrix(truth, hyp, PERIOD)
    assert cm.col_symbols == ["x2", "x7"]
    assert np.array_equal(cm.values, np.array([[0.0, 1.0], [1.0, 0.0]]))
    pco = co_occurrence(cm)
    assert pco["AE"] == (1.0, "x7")
    assert pco["K"] == (1.0, "x2")


def test_confusion_single_hyp_label():
    truth = [track("u01", (0.0, 0.4, "AE"), (0.4, 1.0, "K"))]
    hyp = [track("u01", (0.0, 1.0, "z"))]
    cm = confusion_matrix(truth, hyp, PERIOD)
    assert cm.col_symbols == ["z"]
    assert np.array_equal(cm.values, np.ones((2, 1)))


def test_confusion_40_35_25_row():
    truth = [track("u01", (0.0, 1.0, "Q"))]
    hyp = [track("u01", (0.0, 0.40, "A"), (0.40, 0.75, "B"), (0.75, 1.0, "C"))]
    cm = confusion_matrix(truth, hyp, PERIOD)
    assert cm.row_symbols == ["Q"]
    assert list(cm.values[0]) == [0.40, 0.35, 0.25]
    assert cm.frame_counts == [100]
    assert abs(cm.values[0].sum() - 1.0) <= 1e-9


def test_pco_top_label_case():
    # top label holds 32.5% of 1000 frames, runner-up 21.8%
    truth = [track("u01", (0.0, 10.0, "OY"))]
    hyp = [
        track(
            "u01",
            (0.0, 3.25, "o"),
            (3.25, 5.43, "j"),
            (5.43, 7.43, "e1"),
            (7.43, 9.0, "e2"),
            (9.0, 10.0, "e3"),
        )
    ]
    cm = confusion_matrix(truth, hyp, PERIOD)
    assert cm.frame_counts == [1000]
    p, label = co_occurrence(cm)["OY"]
    assert p == 0.325
    assert label == "o"


def test_uniform_row_pco_is_one_over_m():
    truth = [track("u01", (0.0, 0.9, "Q"))]
    hyp = [track("u01", (0.0, 0.3, "a"), (0.3, 0.6, "b"), (0.6, 0.9, "c"))]
    cm = confusion_matrix(truth, hyp, PERIOD)
    p, _ = co_occurrence(cm)["Q"]
    assert p == pytest.approx(1 / 3, abs=1e-12)


def test_pco_lower_bound_and_row_sums():
    rng = np.random.default_rng(1)
    cuts = np.sort(rng.uniform(0.05, 0.95, size=5)).tolist()
    edges = [0.0] + cuts + [1.0]
    hyp_spans = [
        (a, b, f"h{i % 4}") for i, (a, b) in enumerate(zip(edges, edges[1:]))
    ]
    truth = [track("u01", (0.0, 0.5, "Q"), (0.5, 1.0, "R"))]
    hyp = [track("u01", *hyp_spans)]
    cm = confusion_matrix(truth, hyp, PERIOD)
    m = len(cm.col_symbols)
    for i, sym in enumerate(cm.row_symbols):
        assert cm.values[i].sum() == pytest.approx(1.0, abs=1e-9)
        assert co_occurrence(cm)[sym][0] >= 1 / m - 1e-12


def test_merging_hyp_labels_never_decreases_pco():
    truth = [track("u01", (0.0, 1.0, "Q"))]
    hyp = [track("u01", (0.0, 0.40, "A"), (0.40, 0.75, "B"), (0.75, 1.0, "C"))]
    base = co_occurrence(confusion_matrix(truth, hyp, PERIOD))["Q"][0]
    merged_hyp = [track("u01", (0.0, 0.40, "A"), (0.40, 1.0, "BC"))]
    merged = co_occurrence(confusion_matrix(truth, merged_hyp, PERIOD))["Q"][0]
    assert merged >= base
    assert merged == 0.60


def test_confusion_empty_rows_and_common_utts():
    truth = [
        track("u01", (0.0, 0.5, "Q"), (0.5, 1.0, "R")),
        track("u99", (0.0, 1.0, "Z")),  # not in hyp at all
    ]
    hyp = [track("u01", (0.5, 1.0, "x"))]
    cm = confusion_matrix(truth, hyp, PERIOD)
    assert cm.row_symbols == ["R"]
    assert cm.empty_rows == ["Q"]
    assert "Z" not in cm.empty_rows


def test_confusion_requires_overlap():
    truth = [track("u01", (0.0, 1.0, "Q"))]
    with pytest.raises(DataError):
        confusion_matrix(truth, [track("u02", (0.0, 1.0, "x"))], PERIOD)
    with pytest.raises(DataError):
        confusion_matrix(truth, [track("u01", (2.0, 3.0, "x"))], PERIOD)


def test_strip_tone():
    assert strip_tone("AH1") == "AH"
    assert strip_tone("IY0") == "IY"
    assert strip_tone("a41") == "a"
    assert strip_tone("N") == "N"
    assert strip_tone("42") == "42"  # all digits: left alone


def test_confusion_strip_tones_applies_to_hypothesis():
    truth = [track("u01", (0.0, 1.0, "AH"))]
    hyp = [track("u01", (0.0, 0.5, "AH1"), (0.5, 1.0, "AH2"))]
    cm = confusion_matrix(truth, hyp, PERIOD, strip_tones=True)
    assert cm.col_symbols == ["AH"]
    assert co_occurrence(cm)["AH"] == (1.0, "AH")
    untouched = confusion_matrix(truth, hyp, PERIOD)
    assert untouched.col_symbols == ["AH1", "AH2"]


# ---------------------------------------------------------------------------
# relative reduction


def test_relative_reduction_values():
    reductions, undefined = relative_reduction(
        {"a": 0.10, "b": 0.2, "c": 0.0}, {"a": 0.05, "b": 0.2, "c": 0.1}
    )
    assert reductions["a"] == 50.0
    assert reductions["b"] == 0.0
    assert "c" not in reductions
    assert undefined == ["c"]


def test_relative_reduction_sign_follows_difference():
    for b, i in [(0.3, 0.1), (0.1, 0.3), (0.2, 0.2)]:
        reductions, _ = relative_reduction({"k": b}, {"k": i})
        assert np.sign(reductions["k"]) == np.sign(b - i)


def test_relative_reduction_key_mismatch():
    with pytest.raises(DataError) as e:
        relative_reduction({"a": 0.1, "b": 0.2}, {"a": 0.1, "z": 0.2})
    msg = str(e.value)
    assert "b" in msg and "z" in msg


# ---------------------------------------------------------------------------
# correlation


def test_pearson_exact_linear():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert pearson_correlation(xs, [2 * x + 1 for x in xs]) == 1.0
    assert pearson_correlation(xs, [-x for x in xs]) == -1.0
    assert pearson_correlation(xs, [5 - 3 * x for x in xs]) == -1.0


def test_pearson_zero_variance():
    with pytest.raises(DataError):
        pearson_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DataError):
        pearson_correlation([1.0, 2.0, 3.0], [7.0, 7.0, 7.0])


def test_pearson_validation():
    with pytest.raises(UsageError):
        pearson_correlation([1.0], [2.0])
    with pytest.raises(UsageError):
        pearson_correlation([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DataError):
        pearson_correlation([1.0, np.nan], [1.0, 2.0])


def test_pearson_known_value():
    # hand-computed: x=[0,1,2], y=[0,0,3]: u=[-1,0,1], v=[-1,-1,2]
    # suv=3, su2=2, sv2=6 -> r = 3/sqrt(12)
    r = pearson_correlation([0.0, 1.0, 2.0], [0.0, 0.0, 3.0])
    assert r == pytest.approx(3 / np.sqrt(12), abs=1e-15)


def test_ranks_with_ties():
    assert list(_ranks(np.array([1.0, 2.0, 2.0, 4.0]))) == [1.0, 2.5, 2.5, 4.0]
    assert list(_ranks(np.array([3.0, 1.0, 2.0]))) == [3.0, 1.0, 2.0]
    assert list(_ranks(np.array([5.0, 5.0, 5.0]))) == [2.0, 2.0, 2.0]


def test_spearman_monotone_nonlinear():
    xs = [1.0, 2.0, 3.0, 4.0]
    ys = [1.0, 10.0, 100.0, 1000.0]
    assert spearman_correlation(xs, ys) == 1.0
    assert spearman_correlation(xs, ys[::-1]) == -1.0
    assert pearson_correlation(xs, ys) < 1.0  # the point of the rank variant
