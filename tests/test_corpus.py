import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abxlab.corpus import (
    FeatureArchive,
    FrameLabelTrack,
    ItemSegment,
    ITEM_HEADER,
    feature_archive_files,
    item_file_bytes,
    label_track_bytes,
    load_feature_archive,
    load_item_file,
    load_label_track,
    segment_frames,
    time_to_frame,
    write_feature_archive,
)
from abxlab.errors import (
    ConsistencyError,
    DataError,
    EmptyArchiveError,
    FormatError,
    RowError,
    UnmappedPhoneError,
    UsageError,
)
from abxlab.manifest import write_outputs
from oracles import ftxt_rows_per_value


def small_archive(period=10000):
    rng = np.random.default_rng(0)
    return FeatureArchive(
        {
            "u01": rng.standard_normal((20, 4)).astype(np.float32),
            "u02": rng.standard_normal((15, 4)).astype(np.float32),
        },
        period,
    )


# ---------------------------------------------------------------------------
# time / frame conversion


def test_time_to_frame_examples():
    # 10 ms frames: second boundaries land exactly, midpoints round up
    assert time_to_frame(0.0, 10000) == 0
    assert time_to_frame(0.10, 10000) == 10
    assert time_to_frame(0.145, 10000) == 15
    assert time_to_frame(0.005, 10000) == 1  # half rounds up
    assert time_to_frame(0.004999, 10000) == 0
    assert time_to_frame(1.0, 10000) == 100


def test_time_to_frame_snaps_microseconds():
    # 0.145 is not exactly representable in binary; the microsecond snap
    # must keep it from drifting to frame 14
    assert time_to_frame(0.145, 10000) == time_to_frame(0.145000000000001, 10000)


@given(
    st.integers(min_value=0, max_value=10**7),
    st.integers(min_value=0, max_value=10**7),
    st.sampled_from([625, 10000, 12500, 20000]),
)
def test_time_to_frame_monotone(us_a, us_b, period):
    ta, tb = us_a / 1e6, us_b / 1e6
    if us_a <= us_b:
        assert time_to_frame(ta, period) <= time_to_frame(tb, period)


def test_segment_frames_basic():
    arch = small_archive()
    seg = ItemSegment("u01", 0.10, 0.145, "AE", "S", "T", "s01")
    rows = segment_frames(seg, arch)
    assert rows.shape == (5, 4)
    assert np.array_equal(rows, arch.frames("u01")[10:15])


def test_segment_frames_clamps_to_utterance():
    arch = small_archive()
    seg = ItemSegment("u02", 0.10, 9.0, "AE", "S", "T", "s01")
    assert segment_frames(seg, arch).shape == (5, 4)  # frames 10..14 of 15


def test_segment_frames_extends_zero_length():
    arch = small_archive()
    seg = ItemSegment("u01", 0.102, 0.1021, "AE", "S", "T", "s01")
    rows = segment_frames(seg, arch)
    assert rows.shape == (1, 4)
    assert np.array_equal(rows, arch.frames("u01")[10:11])


def test_segment_frames_past_end_is_error():
    arch = small_archive()
    seg = ItemSegment("u02", 0.20, 0.2001, "AE", "S", "T", "s01")
    with pytest.raises(DataError):
        segment_frames(seg, arch)


# ---------------------------------------------------------------------------
# archives


def test_archive_validation():
    with pytest.raises(EmptyArchiveError):
        FeatureArchive({}, 10000)
    with pytest.raises(ConsistencyError):
        FeatureArchive(
            {"a": np.zeros((2, 3), np.float32), "b": np.zeros((2, 4), np.float32)},
            10000,
        )
    with pytest.raises(DataError):
        FeatureArchive({"a": np.array([[np.nan, 0.0]], np.float32)}, 10000)
    with pytest.raises(DataError):
        FeatureArchive({"a": np.zeros((2, 3), np.float32)}, 0)


def test_archive_is_immutable():
    arch = small_archive()
    with pytest.raises(ValueError):
        arch.frames("u01")[0, 0] = 1.0
    with pytest.raises(DataError):
        arch.frames("nope")


def test_fbin_round_trip_is_byte_exact(tmp_path):
    arch = small_archive(period=6250)
    write_feature_archive(arch, tmp_path / "feat")
    first = {p.name: p.read_bytes() for p in sorted((tmp_path / "feat").glob("*.fbin"))}
    back = load_feature_archive(tmp_path / "feat")
    assert back.frame_period == 6250
    for utt in arch.utterance_ids():
        assert np.array_equal(back.frames(utt), arch.frames(utt))
    write_feature_archive(back, tmp_path / "again")
    second = {p.name: p.read_bytes() for p in sorted((tmp_path / "again").glob("*.fbin"))}
    assert first == second


def test_ftxt_round_trip_is_exact(tmp_path):
    arch = small_archive()
    write_feature_archive(arch, tmp_path / "feat", format="text")
    back = load_feature_archive(tmp_path / "feat", format="text")
    for utt in arch.utterance_ids():
        assert np.array_equal(back.frames(utt), arch.frames(utt))


def test_ftxt_bytes_match_per_value_oracle():
    f32 = np.finfo(np.float32)
    edge = np.array([[-0.0, 0.0, 1.0, -1.0],
                     [f32.smallest_subnormal, -f32.smallest_subnormal, f32.max, -f32.max],
                     [f32.tiny, f32.eps, 0.1, 1 / 3]], dtype=np.float32)
    rng = np.random.default_rng(3)
    arch = FeatureArchive({"edge": edge,
                           "rand": (rng.standard_normal((5, 4)) * 1e3).astype(np.float32)},
                          10000)
    files = feature_archive_files(arch, "text")
    for utt in arch.utterance_ids():
        lines = ["dim=4 period_us=10000"] + ftxt_rows_per_value(arch.frames(utt))
        assert files[f"{utt}.ftxt"] == ("\n".join(lines) + "\n").encode()
    assert files["edge.ftxt"].split(b"\n")[1].startswith(b"-0.0 0.0 1.0 -1.0")


@settings(max_examples=25, deadline=None)
@given(
    t=st.integers(min_value=1, max_value=7),
    d=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_fbin_round_trip_property(tmp_path_factory, t, d, seed):
    rng = np.random.default_rng(seed)
    mat = (rng.standard_normal((t, d)) * 10).astype(np.float32)
    arch = FeatureArchive({"u": mat}, 10000)
    out = tmp_path_factory.mktemp("rt")
    write_feature_archive(arch, out)
    assert np.array_equal(load_feature_archive(out).frames("u"), mat)


def test_fbin_malformations(tmp_path):
    arch = small_archive()
    write_feature_archive(arch, tmp_path / "feat")
    target = tmp_path / "feat" / "u01.fbin"
    raw = target.read_bytes()

    target.write_bytes(b"JUNK" + raw[4:])
    with pytest.raises(FormatError):
        load_feature_archive(tmp_path / "feat")

    target.write_bytes(raw[:-3])  # truncated payload
    with pytest.raises(FormatError):
        load_feature_archive(tmp_path / "feat")

    target.write_bytes(raw[:4] + (99).to_bytes(4, "little") + raw[8:])
    with pytest.raises(FormatError):
        load_feature_archive(tmp_path / "feat")

    target.write_bytes(raw[:12])  # header cut short
    with pytest.raises(FormatError):
        load_feature_archive(tmp_path / "feat")


def test_archive_loader_consistency(tmp_path):
    write_feature_archive(small_archive(10000), tmp_path / "feat")
    write_feature_archive(
        FeatureArchive({"u99": np.ones((3, 4), np.float32)}, 20000), tmp_path / "feat"
    )
    with pytest.raises(ConsistencyError):
        load_feature_archive(tmp_path / "feat")


def test_archive_loader_empty_and_unknown_format(tmp_path):
    (tmp_path / "feat").mkdir()
    with pytest.raises(EmptyArchiveError):
        load_feature_archive(tmp_path / "feat")
    with pytest.raises(UsageError):
        load_feature_archive(tmp_path / "feat", format="npz")


# ---------------------------------------------------------------------------
# item files


def test_item_file_round_trip(tmp_path):
    segments = [
        ItemSegment("u01", 0.10, 0.145, "AE", "S", "T", "s01"),
        ItemSegment("u01", 0.145, 0.290001, "EH", "SIL", "K", "s01"),
        ItemSegment("u02", 0.0, 0.123456, "IY", "K", "N", "s02"),
    ]
    path = tmp_path / "x.item"
    write_outputs(tmp_path, {"x.item": item_file_bytes(segments)})
    assert path.read_text().splitlines()[0] == ITEM_HEADER
    assert load_item_file(path) == segments


def test_item_file_header_required(tmp_path):
    p = tmp_path / "x.item"
    p.write_text("#file onset offset phone prev next spk\nu01 0 1 AE S T s01\n")
    with pytest.raises(FormatError):
        load_item_file(p)


def test_item_file_row_errors(tmp_path):
    p = tmp_path / "x.item"
    cases = [
        "u01 0.0 1.0 AE S T",  # 6 fields
        "u01 zero 1.0 AE S T s01",  # bad number
        "u01 0.5 0.5 AE S T s01",  # empty span
        "u01 -0.5 1.0 AE S T s01",  # negative onset
    ]
    for row in cases:
        p.write_text(ITEM_HEADER + "\n" + row + "\n")
        with pytest.raises(RowError) as e:
            load_item_file(p)
        assert e.value.line_no == 2


def test_segment_ordering_and_context():
    a = ItemSegment("u01", 0.0, 0.1, "AE", "S", "T", "s01")
    b = ItemSegment("u01", 0.1, 0.2, "AE", "S", "T", "s01")
    assert a < b
    assert a.context == ("S", "T")
    with pytest.raises(DataError):
        ItemSegment("u01", 0.2, 0.1, "AE", "S", "T", "s01")


# ---------------------------------------------------------------------------
# label tracks


def test_label_track_round_trip(tmp_path):
    tracks = [
        FrameLabelTrack("u01", ((0.0, 0.10, "SIL"), (0.10, 0.25, "AE"))),
        FrameLabelTrack("u02", ((0.0, 0.05, "K"),)),
    ]
    path = tmp_path / "x.tsv"
    write_outputs(tmp_path, {"x.tsv": label_track_bytes(tracks)})
    assert load_label_track(path) == tracks


def test_label_track_allows_adjacent_spans(tmp_path):
    p = tmp_path / "x.tsv"
    p.write_text("u01\t0.0\t0.1\tA\nu01\t0.1\t0.2\tB\n")
    (track,) = load_label_track(p)
    assert [s[2] for s in track.spans] == ["A", "B"]


def test_label_track_rejects_overlap(tmp_path):
    p = tmp_path / "x.tsv"
    p.write_text("u01\t0.0\t0.15\tA\nu01\t0.1\t0.2\tB\n")
    with pytest.raises(DataError) as e:
        load_label_track(p)
    assert "u01" in str(e.value)


def test_label_track_row_errors(tmp_path):
    p = tmp_path / "x.tsv"
    p.write_text("u01\t0.0\t0.1\n")
    with pytest.raises(RowError):
        load_label_track(p)
    p.write_text("u01\t0.0\tten\tA\n")
    with pytest.raises(RowError):
        load_label_track(p)


def test_row_error_pickles():
    for error, text in (
        (RowError("x.tsv", 3, "bad row"), "x.tsv:3: bad row"),
        (UnmappedPhoneError({"YY", "XX"}),
         "phones not mapped or excluded by the AF table: XX YY"),
    ):
        e = pickle.loads(pickle.dumps(error))
        assert type(e) is type(error)
        assert str(e) == text
        assert vars(e) == vars(error)
