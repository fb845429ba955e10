import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abxlab.corpus import (
    FeatureArchive,
    FrameLabelTrack,
    ItemSegment,
    ITEM_HEADER,
    check_archive_outputs,
    feature_archive_files,
    item_file_bytes,
    label_track_bytes,
    load_feature_archive,
    load_item_file,
    load_label_track,
    read_rows,
    segment_frames,
    time_to_frame,
)
from abxlab.errors import (
    AbxlabError,
    ConsistencyError,
    DataError,
    EmptyArchiveError,
    FormatError,
    RowError,
    UnmappedPhoneError,
    UsageError,
)
from abxlab.manifest import json_bytes, lines_bytes, write_outputs
from oracles import ftxt_frames_per_value, ftxt_rows_per_value


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


@pytest.mark.parametrize("seconds", [1.8e302, 1e303, float("inf"), float("nan")])
def test_time_without_a_finite_microsecond_count_is_data_error(seconds):
    with pytest.raises(DataError, match="microsecond"):
        time_to_frame(seconds, 10000)
    seg = ItemSegment("u01", 0.0, seconds, "AE", "S", "T", "s01")
    with pytest.raises(DataError, match="microsecond"):
        segment_frames(seg, small_archive())


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
    write_outputs(tmp_path / "feat", feature_archive_files(arch))
    first = {p.name: p.read_bytes() for p in sorted((tmp_path / "feat").glob("*.fbin"))}
    back = load_feature_archive(tmp_path / "feat")
    assert back.frame_period == 6250
    for utt in arch.utterance_ids():
        assert np.array_equal(back.frames(utt), arch.frames(utt))
    write_outputs(tmp_path / "again", feature_archive_files(back))
    second = {p.name: p.read_bytes() for p in sorted((tmp_path / "again").glob("*.fbin"))}
    assert first == second


def test_ftxt_round_trip_is_exact(tmp_path):
    f32 = np.finfo(np.float32)
    edge = np.array([[0.0, -0.0, f32.smallest_subnormal, -f32.smallest_subnormal],
                     [f32.tiny * 0.75, f32.max, -f32.max, f32.tiny],
                     [1e-5, -1e16, 3e-30, 1.5e20]], dtype=np.float32)
    base = small_archive()
    arch = FeatureArchive({"edge": edge, **{u: base.frames(u) for u in base.utterance_ids()}},
                          10000)
    files = feature_archive_files(arch, "text")
    # repr puts an exponent on each value of the last edge row
    assert all(b"e" in v for v in files["edge.ftxt"].split(b"\n")[3].split())
    write_outputs(tmp_path / "feat", files)
    back = load_feature_archive(tmp_path / "feat", format="text")
    for utt in arch.utterance_ids():  # bit for bit: -0.0 stays -0.0
        assert back.frames(utt).tobytes() == arch.frames(utt).tobytes()


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
    write_outputs(out, feature_archive_files(arch))
    assert np.array_equal(load_feature_archive(out).frames("u"), mat)


def test_fbin_malformations(tmp_path):
    arch = small_archive()
    write_outputs(tmp_path / "feat", feature_archive_files(arch))
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


FTXT_BAD_HEADERS = ["dim=2 dim=3 period_us=10000", "dim=2 period_us=10000 foo=3",
                    "dim=-1 period_us=10000"]


@pytest.mark.parametrize("header", FTXT_BAD_HEADERS, ids=["repeated", "unknown", "dim -1"])
def test_ftxt_header_holds_dim_and_period_once_each(tmp_path, header):
    (tmp_path / "u.ftxt").write_text(f"{header}\n1 2 3\n")
    with pytest.raises(FormatError, match="header must be 'dim=<D> period_us=<P>'") as e:
        load_feature_archive(tmp_path)
    assert e.value.exit_code == 3 and str(tmp_path / "u.ftxt") in str(e.value)


def test_ftxt_header_keys_come_in_either_order(tmp_path):
    (tmp_path / "u.ftxt").write_text("period_us=10000 dim=3\n1 2 3\n")
    archive = load_feature_archive(tmp_path)
    assert (archive.dim, archive.frame_period) == (3, 10000)
    (tmp_path / "u.ftxt").write_text("dim=3 period_us=0\n1 2 3\n")
    with pytest.raises(DataError, match="frame period must be positive"):
        load_feature_archive(tmp_path)


# a body the per-value oracle accepts in this alphabet, the reader must accept too
_FTXT_NUMERIC_BODY = re.compile(r"(?:[0-9+\-.eE \t\n]|inf|nan)*")
_FTXT_TOKEN = st.one_of(
    st.floats(width=32).map(repr),
    st.text(alphabet="0123456789+-.eE", min_size=1, max_size=6),
    st.sampled_from(["inf", "-inf", "nan", "1e39", "-0", "+.5", "1.", "1e-46"]),
)


@st.composite
def _ftxt_dim_and_body(draw):
    """A dimension and a body: rows of that many tokens and blank lines,
    or any text."""
    dim = draw(st.integers(min_value=1, max_value=3))
    row = st.lists(st.tuples(st.sampled_from([" ", "\t", "  ", " \t"]), _FTXT_TOKEN),
                   min_size=dim, max_size=dim).map(lambda parts: "".join(a + b for a, b in parts))
    numeric = st.lists(st.one_of(row, st.sampled_from(["", " \t"])), max_size=5).map("\n".join)
    other = st.text(alphabet=st.one_of(st.sampled_from(list("0123456789.-+eE \t\n\r_#")),
                                       st.characters(codec="utf-8")), max_size=60)
    return dim, draw(st.one_of(numeric, other))


@settings(max_examples=300, deadline=None)
@given(dim_body=_ftxt_dim_and_body())
def test_ftxt_reader_matches_per_value_oracle(tmp_path_factory, dim_body):
    dim, body = dim_body
    text = f"dim={dim} period_us=10000\n{body}"
    want = ftxt_frames_per_value(text.splitlines()[1:], dim)
    d = tmp_path_factory.mktemp("ftxt")
    (d / "u.ftxt").write_bytes(text.encode())
    try:
        got = load_feature_archive(d).frames("u")
    except AbxlabError as e:
        assert e.exit_code == 3
        assert want is None or not _FTXT_NUMERIC_BODY.fullmatch(body), (body, e)
        return
    assert want is not None and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
def test_ftxt_row_errors_name_their_line(tmp_path, newline):
    def load(*rows):
        (tmp_path / "u.ftxt").write_bytes(newline.join(("dim=2 period_us=10000",) + rows).encode())
        with pytest.raises(RowError) as e:
            load_feature_archive(tmp_path)
        assert e.value.exit_code == 3
        return e.value.line_no, e.value.message

    assert load("1 2", "", " \t ", "1 2 3", "x y") == (5, "expected 2 fields, got 3")
    assert load("", "1 2", "  ", "1 x", "1 2 3") == (5, "non-numeric feature value")
    assert load("\t", "3") == (3, "expected 2 fields, got 1")  # no row holds 2 values
    # float() reads these; numpy's parser does not, and the row is refused
    assert load("1 2", "", "1_0 2") == (4, "non-numeric feature value")
    assert load("\u0661 2") == (2, "non-numeric feature value")  # ARABIC-INDIC DIGIT ONE
    assert load("1 2", "1 #2") == (3, "non-numeric feature value")  # no comments


@pytest.mark.parametrize("body", ["", "\n", "\n \t\n\r\n"], ids=["header only", "blank", "spaces"])
def test_ftxt_without_frames_is_a_data_error_and_warns_nothing(tmp_path, body):
    (tmp_path / "u.ftxt").write_text(f"dim=2 period_us=10000\n{body}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r"u\.ftxt: no frames$") as e:
            load_feature_archive(tmp_path)
    assert e.value.exit_code == 3


def test_ftxt_load_peak_grows_with_the_text_not_per_value(tmp_path):
    mat = np.random.default_rng(0).standard_normal((5000, 100)).astype(np.float32)
    write_outputs(tmp_path, feature_archive_files(FeatureArchive({"u": mat}, 10000), "text"))
    text_bytes = (tmp_path / "u.ftxt").stat().st_size
    tracemalloc.start()
    try:
        loaded = load_feature_archive(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.frames("u").tobytes() == mat.tobytes()
    # the text twice over (str and lines) and a float64 per value; a Python
    # float per value would cost 32 bytes (the object and its list slot)
    assert peak < 2 * text_bytes + 8 * mat.size, (peak, text_bytes)


def test_archive_loader_consistency(tmp_path):
    write_outputs(tmp_path / "feat", feature_archive_files(small_archive(10000)))
    write_outputs(tmp_path / "feat", feature_archive_files(
        FeatureArchive({"u99": np.ones((3, 4), np.float32)}, 20000)))
    with pytest.raises(ConsistencyError):
        load_feature_archive(tmp_path / "feat")


def test_archive_loader_empty_and_unknown_format(tmp_path):
    (tmp_path / "feat").mkdir()
    (tmp_path / "feat" / "notes.txt").write_text("not a feature file\n")
    # auto names both kinds it looked for; an explicit format names its own
    with pytest.raises(EmptyArchiveError, match=r"^no \.fbin or \.ftxt files under "):
        load_feature_archive(tmp_path / "feat")
    for format, suffix in (("binary", "fbin"), ("text", "ftxt")):
        with pytest.raises(EmptyArchiveError, match=rf"^no \*\.{suffix} files under "):
            load_feature_archive(tmp_path / "feat", format=format)
    with pytest.raises(UsageError):
        load_feature_archive(tmp_path / "feat", format="npz")


def test_archive_with_both_formats_is_inconsistent(tmp_path):
    # a text extract written over a binary one must not be read as the binary
    write_outputs(tmp_path / "feat", feature_archive_files(small_archive()))
    stale = {utt: small_archive().frames(utt)[:, :3] for utt in ("u01", "u02")}
    write_outputs(tmp_path / "feat",
                  feature_archive_files(FeatureArchive(stale, 10000), "text"))
    with pytest.raises(ConsistencyError, match="2 .fbin and 2 .ftxt"):
        load_feature_archive(tmp_path / "feat")
    assert load_feature_archive(tmp_path / "feat", format="binary").dim == 4
    assert load_feature_archive(tmp_path / "feat", format="text").dim == 3


def test_archive_check_reads_only_directories_that_get_feature_files(tmp_path):
    out = tmp_path / "out"
    (out / "feats").mkdir(parents=True)
    (out / "old.fbin").write_bytes(b"")
    (out / "feats" / "note.txt").write_bytes(b"")
    # no feature file goes to out itself, and feats holds no other one
    check_archive_outputs(out, ["report.txt", "feats/a.ftxt"])
    check_archive_outputs(tmp_path / "missing", ["a.fbin"])
    with pytest.raises(UsageError, match=r"holds 1 feature file\(s\) .*\(first old.fbin\)"):
        check_archive_outputs(out, ["a.fbin", "old.ftxt"])


# ---------------------------------------------------------------------------
# text tables


def test_read_rows_numbers_lines_past_header_and_blanks(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("  h,x \n\n a,1\n\n\n# c,1\nb,2,3\n")
    rows = read_rows(p, "table", sep=",", n_fields=2, header="h,x", comment="#")
    assert next(rows) == (3, [" a", "1"])
    with pytest.raises(RowError) as e:
        next(rows)
    assert (e.value.line_no, e.value.message) == (7, "expected 2 fields, got 3")
    p.write_text("\nh,x\n")
    with pytest.raises(FormatError, match="first line must be 'h,x'"):
        list(read_rows(p, "table", sep=",", header="h,x"))


def test_read_rows_field_range_and_missing_file(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("a\tb\tc\n\na\n")
    with pytest.raises(RowError, match=":3: expected at least 2 tab-separated fields, got 1"):
        list(read_rows(p, "table", sep="\t", n_fields=range(2, 9)))
    with pytest.raises(UsageError, match="table not found"):
        list(read_rows(tmp_path / "missing.txt", "table"))


def test_text_encoders():
    assert lines_bytes([]) == b""
    assert lines_bytes(iter(["a", "", "b"])) == b"a\n\nb\n"
    assert json_bytes({"b": [1, 2], "a": "\u00e9"}) == (
        b'{\n  "a": "\\u00e9",\n  "b": [\n    1,\n    2\n  ]\n}\n'
    )


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
        "u01 1e303 1e304 AE S T s01",  # microsecond count overflows
        "u01 0.0 1.8e302 AE S T s01",
        "u01 0.0 1.0 A,E S T s01",  # a comma would split a pairwise.csv row
        "u01 0.0 1.0 AE S,X T s01",
        "u01 0.0 1.0 AE S X,T s01",
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
    p.write_text("u01\t0.0\t0.1\tA\nu01\t1e303\t1e304\tB\n")
    with pytest.raises(RowError, match="microsecond") as e:
        load_label_track(p)
    assert e.value.line_no == 2
    for label in ("", "a,b"):  # no CSV key, or one that splits its row
        p.write_text(f"u01\t0.0\t0.1\tA\nu01\t0.1\t0.2\t{label}\n")
        with pytest.raises(RowError, match="empty or holds a comma") as e:
            load_label_track(p)
        assert e.value.line_no == 2


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
