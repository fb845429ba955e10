import gc
import json
import math
import os
import shutil
import struct
import subprocess
import sys

import pytest

from abxlab import abx, apc, cli
from abxlab.abx import score_corpus
from abxlab.af_tables import load_af_table
from abxlab.apc import load_checkpoint
from abxlab.corpus import (
    ITEM_HEADER,
    FeatureArchive,
    FrameLabelTrack,
    ItemSegment,
    feature_archive_files,
    item_file_bytes,
    label_track_bytes,
    load_feature_archive,
    load_item_file,
)
from abxlab.errors import DataError, EmptyTaskError, InconclusiveGradCheck
from abxlab.manifest import digest_inputs, write_outputs
from abxlab.synth import SynthConfig, generate_corpus, write_corpus


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = cli.main([
        "synth", "--phones", "a,b", "--dim", "4", "--speakers", "2",
        "--segments-per-cell", "3", "--frames", "4:6", "--noise-scale", "0.05",
        "--seed", "7", "--out", str(out),
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="session")
def eval_dir(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("eval")
    rc = cli.main([
        "eval", "--features", str(corpus_dir / "features"),
        "--items", str(corpus_dir / "items.item"),
        "--mode", "within", "--out", str(out),
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="session")
def apc_dir(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("apc")
    rc = cli.main([
        "apc", "train", "--features", str(corpus_dir / "features"),
        "--n", "1", "--layers", "1", "--hidden-dim", "3", "--cell", "simple-rnn",
        "--epochs", "1", "--seed", "0", "--out", str(out),
    ])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# eval


def test_eval_outputs(eval_dir):
    report = json.loads((eval_dir / "report.json").read_text())
    assert set(report) >= {"overall", "pairwise", "categories", "metadata"}
    assert 0.0 <= float(report["overall"]) <= 1.0
    assert "jobs" not in report["metadata"]
    lines = (eval_dir / "pairwise.csv").read_text().splitlines()
    assert lines[0] == "category_x,category_y,context_prev,context_next,condition,rate"
    assert len(lines) > 1


def test_eval_manifest_digests(eval_dir, corpus_dir):
    manifest = json.loads((eval_dir / "manifest.json").read_text())
    assert manifest["command"][0] == "abxlab"
    assert manifest["config"]["mode"] == "within"
    assert manifest["config"]["jobs"] >= 1
    assert digest_inputs(list(manifest["inputs"])) == manifest["inputs"]
    victim = corpus_dir / "items.item"
    original = victim.read_bytes()
    try:
        victim.write_bytes(original + b"# extra\n")
        for path, digest in manifest["inputs"].items():
            assert (digest_inputs([path])[path] != digest) == (path == str(victim)), path
    finally:
        victim.write_bytes(original)


def test_eval_jobs_do_not_change_bytes(corpus_dir, tmp_path, monkeypatch):
    outs, dp_cells = [], set()
    # the default threshold scores this corpus inline, threshold 0 in the pool
    for threshold in (abx.POOL_MIN_DP_CELLS, 0):
        monkeypatch.setattr(abx, "POOL_MIN_DP_CELLS", threshold)
        for jobs in ("1", "2"):
            out = tmp_path / f"t{threshold}j{jobs}"
            rc = cli.main([
                "eval", "--features", str(corpus_dir / "features"),
                "--items", str(corpus_dir / "items.item"),
                "--mode", "across", "--jobs", jobs, "--out", str(out),
            ])
            assert rc == 0
            stats = json.loads((out / "manifest.json").read_text())["stats"]
            assert stats["workers"] == (2 if threshold == 0 and jobs == "2" else 1)
            dp_cells.add(stats["dp_cells"])
            outs.append([(out / f).read_bytes() for f in ("report.json", "pairwise.csv")])
    assert all(o == outs[0] for o in outs)
    (count,) = dp_cells
    assert type(count) is int and count > 0


def test_eval_digests_only_archive_files(corpus_dir, tmp_path):
    """A feature directory's inputs are its archive files: a manifest an
    earlier command left there, or a nested file, is not read or digested."""
    feats = tmp_path / "features"
    shutil.copytree(corpus_dir / "features", feats)
    (feats / "nested").mkdir()
    (feats / "nested" / "u99.fbin").write_bytes(b"not read")
    inputs = []
    for wall in (0.5, 0.7):
        (feats / "manifest.json").write_text(json.dumps({"wall_time_s": wall}))
        out = tmp_path / f"eval{wall}"
        assert cli.main([
            "eval", "--features", str(feats), "--items", str(corpus_dir / "items.item"),
            "--mode", "within", "--jobs", "1", "--out", str(out),
        ]) == 0
        inputs.append(json.loads((out / "manifest.json").read_text())["inputs"])
    assert inputs[0] == inputs[1]
    assert set(inputs[0]) == {str(f) for f in feats.glob("*.fbin")} | {
        str(corpus_dir / "items.item")}


def test_eval_usage_errors(corpus_dir, tmp_path):
    args = [
        "eval", "--features", str(corpus_dir / "features"),
        "--items", str(corpus_dir / "items.item"), "--mode", "within",
    ]
    assert cli.main(args + ["--task", "af", "--out", str(tmp_path / "a")]) == 2
    assert cli.main(
        args + ["--af-table", "english-moa", "--out", str(tmp_path / "b")]
    ) == 2
    assert cli.main(
        args + ["--task", "af", "--af-table", "no-such-table",
                "--out", str(tmp_path / "c")]
    ) == 2


def test_eval_missing_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["eval", "--mode", "within", "--out", "x"])
    assert e.value.code == 2


def test_eval_bad_archive_exits_3(corpus_dir, tmp_path):
    feats = tmp_path / "features"
    feats.mkdir()
    (feats / "u.fbin").write_bytes(b"FEATgarbage")
    rc = cli.main([
        "eval", "--features", str(feats),
        "--items", str(corpus_dir / "items.item"),
        "--mode", "within", "--out", str(tmp_path / "out"),
    ])
    assert rc == 3


def test_eval_empty_task_exits_4(tmp_path):
    rc = cli.main([
        "synth", "--phones", "a,b", "--dim", "2", "--speakers", "1",
        "--segments-per-cell", "1", "--seed", "1", "--out", str(tmp_path / "c"),
    ])
    assert rc == 0
    rc = cli.main([
        "eval", "--features", str(tmp_path / "c" / "features"),
        "--items", str(tmp_path / "c" / "items.item"),
        "--mode", "within", "--out", str(tmp_path / "out"),
    ])
    assert rc == 4


def _unservable_case(tmp_path, bad, task):
    """A corpus and an item list with one row the archive cannot serve.

    ``bad`` names the row: an unknown utterance or a span past its
    utterance's end.  ``task`` "phone" lists it beside scoreable rows,
    "af" gives it a phone that english-height excludes, and "empty"
    lists it beside one segment, so no cell could be built."""
    corpus = generate_corpus(SynthConfig(
        phones=("AE", "IY", "P"), n_speakers=2, dim=3, segments_per_cell=2,
        frames_per_segment=(2, 3), seed=3,
    ))
    good = corpus.segments[0]
    utt, onset = ("u09", good.onset) if bad == "unknown utterance" else (good.utt, 1e3)
    row = ItemSegment(utt, onset, onset + 0.03, "P" if task == "af" else good.phone,
                      good.prev, good.next, good.speaker)
    segments = ([good] if task == "empty" else corpus.segments) + [row]
    paths = write_corpus(corpus, tmp_path / "corpus")
    (tmp_path / "bad.item").write_bytes(item_file_bytes(segments))
    table = "english-height" if task == "af" else None
    return corpus.archive, segments, paths["features"], tmp_path / "bad.item", table


@pytest.mark.parametrize("bad", ["unknown utterance", "past the end"])
@pytest.mark.parametrize("task", ["phone", "af", "empty"])
def test_eval_row_the_archive_cannot_serve_exits_3(bad, task, tmp_path, capsys):
    _, _, features, items, table = _unservable_case(tmp_path, bad, task)
    out = tmp_path / "out"
    argv = ["eval", "--features", str(features), "--items", str(items),
            "--mode", "within", "--out", str(out)]
    if table:
        argv += ["--task", "af", "--af-table", table]
    assert cli.main(argv) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["unknown utterance", "past the end"])
@pytest.mark.parametrize("task", ["phone", "af", "empty"])
def test_score_corpus_rejects_a_row_the_archive_cannot_serve(bad, task, tmp_path):
    archive, segments, _, _, table = _unservable_case(tmp_path, bad, task)
    kind, af_table = ("af", load_af_table(table)) if table else ("phone", None)
    with pytest.raises(DataError):
        score_corpus(archive, segments, "within", kind, af_table=af_table)
    if task == "empty":  # without the bad row the task is empty, exit 4
        with pytest.raises(EmptyTaskError):
            score_corpus(archive, segments[:-1], "within", kind, af_table=af_table)


def test_eval_names_the_first_unservable_row_in_file_order(corpus_dir, tmp_path, capsys):
    # 'zz' is listed before 'aa', though 'aa' sorts first
    rows = load_item_file(corpus_dir / "items.item")
    good = rows[0]
    bad = [ItemSegment(utt, good.onset, good.offset, good.phone, good.prev, good.next,
                       good.speaker) for utt in ("zz", "aa")]
    items = tmp_path / "bad.item"
    items.write_bytes(item_file_bytes(rows + bad))
    out = tmp_path / "out"
    assert cli.main(["eval", "--features", str(corpus_dir / "features"),
                     "--items", str(items), "--mode", "within", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "'zz'" in err and "'aa'" not in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags,message,codes", [
    # exit codes on (good, malformed, unservable-row, empty-task) item files
    (["--zero-vector-distance", "3"], "zero_vector_distance must be in [0, 2], got 3.0",
     (2, 3, 3, 4)),
    (["--jobs", "0"], "jobs must be >= 1, got 0", (2, 3, 2, 2)),
])
def test_eval_reports_a_bad_setting_after_the_inputs(flags, message, codes, corpus_dir,
                                                     tmp_path, capsys):
    # the library checks each setting where it is used: --jobs once the
    # inputs load, the zero-vector charge once scoring starts
    rows = load_item_file(corpus_dir / "items.item")
    good = rows[0]
    unknown = ItemSegment("zz", good.onset, good.offset, good.phone, good.prev, good.next,
                          good.speaker)
    out = tmp_path / "out"
    texts = (item_file_bytes(rows), b"not an item file\n",
             item_file_bytes(rows + [unknown]), item_file_bytes(rows[:1]))
    for k, (text, rc) in enumerate(zip(texts, codes)):
        (tmp_path / f"{k}.item").write_bytes(text)
        argv = ["eval", "--features", str(corpus_dir / "features"),
                "--items", str(tmp_path / f"{k}.item"), "--mode", "within",
                "--out", str(out), *flags]
        assert cli.main(argv) == rc, k
        err = capsys.readouterr().err
        assert (message in err) == (rc == 2), k
        assert "Traceback" not in err
        assert not out.exists()


def test_eval_overflowing_item_time_exits_3(corpus_dir, tmp_path, capsys):
    items = tmp_path / "items.item"
    items.write_text(f"{ITEM_HEADER}\nu01 1e303 1e304 AA S T s01\n")
    out = tmp_path / "out"
    rc = cli.main(["eval", "--features", str(corpus_dir / "features"), "--items", str(items),
                   "--mode", "within", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("abxlab: error: ")
    assert f"{items}:2:" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("header", ["dim=2 dim=3 period_us=10000",
                                    "dim=2 period_us=10000 foo=3", "dim=-1 period_us=10000"])
def test_eval_on_a_bad_ftxt_header_exits_3(corpus_dir, tmp_path, capsys, header):
    feats = tmp_path / "feats"
    feats.mkdir()
    (feats / "u01.ftxt").write_text(f"{header}\n1 2 3\n")
    out = tmp_path / "out"
    rc = cli.main(["eval", "--features", str(feats), "--items", str(corpus_dir / "items.item"),
                   "--mode", "within", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("abxlab: error: ") and "Traceback" not in err
    assert f"{feats / 'u01.ftxt'}: header must be 'dim=<D> period_us=<P>'" in err
    assert not out.exists()


@pytest.mark.parametrize("loader", ["items", "labels", "af-table"])
def test_comma_in_a_label_exits_3(corpus_dir, tmp_path, capsys, loader):
    bad = tmp_path / "bad"
    if loader == "items":
        bad.write_text(f"{ITEM_HEADER}\nu01 0.0 0.1 a,x S T s01\n")
        argv = ["eval", "--features", str(corpus_dir / "features"), "--items", str(bad),
                "--mode", "within"]
    elif loader == "labels":
        bad.write_text("u1\t0.0\t0.1\ta\nu1\t0.1\t0.2\ta,b\n")
        argv = ["analyze", "confusion", "--truth", str(bad), "--hyp", str(bad),
                "--frame-period", "10000"]
    else:
        bad.write_text("a\tLow\nb\tHigh,Front\n")
        argv = ["eval", "--features", str(corpus_dir / "features"),
                "--items", str(corpus_dir / "items.item"), "--mode", "within",
                "--task", "af", "--af-table", str(bad)]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("abxlab: error: ")
    assert f"{bad}:2:" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_eval_af_task(corpus_dir, tmp_path, monkeypatch):
    table = tmp_path / "af.tsv"
    table.write_text("a\tLow\nb\tHigh\n")
    rc = cli.main([
        "eval", "--features", str(corpus_dir / "features"),
        "--items", str(corpus_dir / "items.item"),
        "--mode", "within", "--task", "af", "--af-table", str(table),
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(report["categories"]) == {"High", "Low"}
    assert report["metadata"]["task"] == "af"


def test_jobs_env_fallback(monkeypatch):
    assert cli._resolve_jobs(1) == 1  # the flag
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._resolve_jobs(None) == 1  # the CPUs this process may use
    # without sched_getaffinity, the machine's count, and 1 when it is unknown
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._resolve_jobs(None) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._resolve_jobs(None) == 1


# ---------------------------------------------------------------------------
# analyze


@pytest.fixture(scope="module")
def vowel_dir(tmp_path_factory):
    """Six vowels over three english-height attributes, three speakers and
    four contexts, so every mean sums at least three rates."""
    out = tmp_path_factory.mktemp("vowels")
    rc = cli.main([
        "synth", "--phones", "AE,EH,IY,UW,AA,AO", "--dim", "6", "--speakers", "3",
        "--segments-per-cell", "2", "--frames", "3:5", "--noise-scale", "0.7",
        "--speaker-offset-scale", "0.3", "--contexts", "S:T,K:N,B:D,G:P",
        "--seed", "5", "--out", str(out),
    ])
    assert rc == 0
    return out


@pytest.mark.parametrize("mode", ["within", "across"])
@pytest.mark.parametrize("task", ["phone", "af"])
def test_analyze_phoneme_matches_report(vowel_dir, tmp_path, mode, task):
    table = "english-height" if task == "af" else None
    rc = cli.main([
        "eval", "--features", str(vowel_dir / "features"),
        "--items", str(vowel_dir / "items.item"), "--mode", mode, "--task", task,
        *(["--af-table", table] if table else []), "--jobs", "1",
        "--out", str(tmp_path / "eval"),
    ])
    assert rc == 0
    rc = cli.main([
        "analyze", "phoneme", "--pairwise", str(tmp_path / "eval" / "pairwise.csv"),
        "--out", str(tmp_path / "ph"),
    ])
    assert rc == 0
    phoneme = json.loads((tmp_path / "ph" / "phoneme.json").read_text())
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert phoneme["xi"] == report["categories"]
    assert phoneme["condition"] == mode
    assert (tmp_path / "ph" / "bars.svg").read_text().startswith("<svg")
    csv_lines = (tmp_path / "ph" / "phoneme.csv").read_text().splitlines()
    assert csv_lines[0] == "category,rate,n_pairs,tag"

    # the full-precision rates are the library's own category rates, bit for bit
    library = score_corpus(
        load_feature_archive(vowel_dir / "features"),
        load_item_file(vowel_dir / "items.item"), mode, task,
        af_table=load_af_table(table) if table else None,
    ).category_rates()
    rates = {}
    for line in csv_lines[1:]:
        category, rate, _, _ = line.split(",")
        rates[category] = float(rate)
    assert len(library) == (3 if table else 6)
    assert rates == library


@pytest.mark.parametrize("text, where", [
    ("nope,nope\n", "pairwise.csv: first line"),
    (f"{abx.PAIRWISE_HEADER}\na,b,S,T,within,1.5\n", "pairwise.csv:2:"),
    (f"{abx.PAIRWISE_HEADER}\na,b,S,T,within,abc\n", "pairwise.csv:2:"),
    (f"{abx.PAIRWISE_HEADER}\n,b,S,T,within,0.1\n", "pairwise.csv:2: empty category"),
    (f"{abx.PAIRWISE_HEADER}\na,b,S,T,within,0.1\na,,S,T,within,0.1\n",
     "pairwise.csv:3: empty category"),
    (f"{abx.PAIRWISE_HEADER}\na,b,,T,within,0.1\n", "pairwise.csv:2: empty category or context"),
    (f"{abx.PAIRWISE_HEADER}\na,b,S,,within,0.1\n", "pairwise.csv:2: empty category or context"),
    (f"{abx.PAIRWISE_HEADER}\na,b,S,T,,0.1\n", "pairwise.csv:2: empty condition"),
], ids=["header", "rate 1.5", "rate abc", "empty x", "empty y", "empty prev", "empty next",
        "empty condition"])
def test_analyze_phoneme_bad_csv_exits_3(tmp_path, capsys, text, where):
    bad = tmp_path / "pairwise.csv"
    bad.write_text(text)
    assert cli.main(
        ["analyze", "phoneme", "--pairwise", str(bad), "--out", str(tmp_path / "o")]
    ) == 3
    assert where in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_analyze_phoneme_without_a_pair_of_two_categories_exits_3(tmp_path, capsys):
    bad = tmp_path / "pairwise.csv"
    bad.write_text(f"{abx.PAIRWISE_HEADER}\na,a,S,T,within,0.5\n")
    out = tmp_path / "o"
    assert cli.main(["analyze", "phoneme", "--pairwise", str(bad), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"{bad}: no pair of two different categories" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_analyze_phoneme_folds_a_pair_listed_both_ways(tmp_path):
    """A pair is unordered: a row written (EH, AE) folds into (AE, EH)."""
    pairwise = tmp_path / "pairwise.csv"
    pairwise.write_text(f"{abx.PAIRWISE_HEADER}\nAE,EH,S,T,within,0.1\n"
                        "EH,AE,K,N,within,0.5\nAE,IY,S,T,within,0.2\n")
    assert cli.main(["analyze", "phoneme", "--pairwise", str(pairwise),
                     "--out", str(tmp_path / "ph")]) == 0
    doc = json.loads((tmp_path / "ph" / "phoneme.json").read_text())
    assert doc["xi"] == {"AE": "0.250000", "EH": "0.300000", "IY": "0.200000"}
    assert doc["n_pairs"] == {"AE": 2, "EH": 1, "IY": 1}
    assert (tmp_path / "ph" / "phoneme.csv").read_text() == (
        "category,rate,n_pairs,tag\nAE,0.25,2,monophthong\nEH,0.3,1,monophthong\n"
        "IY,0.2,1,monophthong\n")


def test_analyze_confusion_identity(tmp_path):
    tracks = [
        FrameLabelTrack("u1", [(0.0, 0.05, "a"), (0.05, 0.10, "b")]),
        FrameLabelTrack("u2", [(0.0, 0.10, "b")]),
    ]
    write_outputs(tmp_path, {name: label_track_bytes(tracks) for name in ("truth.tsv", "hyp.tsv")})
    rc = cli.main([
        "analyze", "confusion", "--truth", str(tmp_path / "truth.tsv"),
        "--hyp", str(tmp_path / "hyp.tsv"), "--frame-period", "10000",
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "confusion.json").read_text())
    assert doc["p_co"]["a"]["p_co"] == "1.000000"
    assert doc["p_co"]["b"]["p_co"] == "1.000000"
    pco_lines = (tmp_path / "out" / "pco.csv").read_text().splitlines()
    assert pco_lines[0] == "phone,p_co,label"


@pytest.mark.parametrize("onset,offset", [("nan", "0.1"), ("-0.5", "0.1"), ("0.0", "inf"),
                                          ("1e303", "1e304")])
def test_analyze_confusion_bad_times_exit_3(tmp_path, capsys, onset, offset):
    good = tmp_path / "good.tsv"
    good.write_text("u1\t0.0\t0.1\ta\n")
    bad = tmp_path / "bad.tsv"
    bad.write_text(f"u1\t0.2\t0.3\ta\nu1\t{onset}\t{offset}\tb\n")
    rc = cli.main([
        "analyze", "confusion", "--truth", str(bad), "--hyp", str(good),
        "--frame-period", "10000", "--out", str(tmp_path / "out"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{bad}:2:" in err
    assert "Traceback" not in err


def test_analyze_confusion_uncountable_frames_exit_3(tmp_path, capsys):
    # two spans of 1e302 s at 1 us frames: more co-labeled frames than a float holds
    labels = tmp_path / "labels.tsv"
    labels.write_text("u1\t0.0\t1e302\ta\nu2\t0.0\t1e302\ta\n")
    rc = cli.main([
        "analyze", "confusion", "--truth", str(labels), "--hyp", str(labels),
        "--frame-period", "1", "--out", str(tmp_path / "out"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("abxlab: error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("period", ["0", "-5"])
def test_analyze_confusion_bad_frame_period_exits_2(tmp_path, capsys, period):
    labels = tmp_path / "labels.tsv"
    labels.write_text("u1\t0.0\t0.1\ta\n")
    rc = cli.main([
        "analyze", "confusion", "--truth", str(labels), "--hyp", str(labels),
        f"--frame-period={period}", "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--frame-period" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--items", "--truth", "--hyp", "--model"])
def test_missing_input_file_exits_2(flag, corpus_dir, tmp_path, capsys):
    missing = tmp_path / "nope"
    labels = tmp_path / "labels.tsv"
    labels.write_text("u1\t0.0\t0.1\ta\n")
    if flag == "--items":
        argv = ["eval", "--features", str(corpus_dir / "features"),
                "--items", str(missing), "--mode", "within"]
        what = "item file"
    elif flag == "--model":
        argv = ["apc", "extract", "--model", str(missing),
                "--features", str(corpus_dir / "features")]
        what = "checkpoint file"
        # a directory is no checkpoint file either
        argv_dir = ["apc", "extract", "--model", str(tmp_path),
                    "--features", str(corpus_dir / "features")]
        assert cli.main(argv_dir + ["--out", str(tmp_path / "out")]) == 2
        assert f"{what} not found: {tmp_path}" in capsys.readouterr().err
    else:
        files = {"--truth": labels, "--hyp": labels, flag: missing}
        argv = ["analyze", "confusion", "--truth", str(files["--truth"]),
                "--hyp", str(files["--hyp"]), "--frame-period", "10000"]
        what = "label file"
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{what} not found: {missing}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "apc train"])
def test_missing_feature_directory_exits_2(command, corpus_dir, tmp_path, capsys):
    missing = tmp_path / "nope"
    argv = {
        "eval": ["eval", "--features", str(missing),
                 "--items", str(corpus_dir / "items.item"), "--mode", "within"],
        "apc train": ["apc", "train", "--features", str(missing), "--epochs", "1"],
    }[command]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"feature directory not found: {missing}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_feature_directory_with_both_formats_exits_3(corpus_dir, tmp_path, capsys):
    feats = tmp_path / "features"
    shutil.copytree(corpus_dir / "features", feats)
    assert cli.main(["apc", "train", "--features", str(feats), "--n", "1", "--layers", "1",
                     "--hidden-dim", "5", "--cell", "simple-rnn", "--epochs", "1",
                     "--out", str(tmp_path / "apc")]) == 0
    # 5-dim .ftxt files land beside the 4-dim .fbin ones (``apc extract``
    # refuses to write them there)
    assert cli.main(["apc", "extract", "--model", str(tmp_path / "apc" / "apc.ckpt"),
                     "--features", str(feats), "--format", "text",
                     "--out", str(tmp_path / "text")]) == 0
    for f in (tmp_path / "text").glob("*.ftxt"):
        shutil.copy(f, feats)
    rc = cli.main(["eval", "--features", str(feats), "--items",
                   str(corpus_dir / "items.item"), "--mode", "within",
                   "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{feats}: 2 .fbin and 2 .ftxt files" in err
    assert not (tmp_path / "out").exists()


def _tree(root):
    """{relative path: bytes} of every file below root."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _extract(apc_dir, features, out, fmt="binary"):
    return cli.main(["apc", "extract", "--model", str(apc_dir / "apc.ckpt"),
                     "--features", str(features), "--format", fmt, "--out", str(out)])


@pytest.mark.parametrize("fmt", ["binary", "text"])
def test_extract_into_an_archive_it_does_not_fill_exits_2(fmt, corpus_dir, apc_dir,
                                                          tmp_path, capsys):
    out = tmp_path / "extracted"
    assert _extract(apc_dir, corpus_dir / "features", out) == 0
    before = _tree(out)
    # one utterance fewer (binary), or the same ones as text: either run
    # would leave a file of the earlier archive beside its own
    fewer = tmp_path / "fewer"
    shutil.copytree(corpus_dir / "features", fewer)
    if fmt == "binary":
        sorted(fewer.glob("*.fbin"))[-1].unlink()
    assert _extract(apc_dir, fewer, out, fmt) == 2
    err = capsys.readouterr().err
    stale = sorted(f for f in before if f.endswith(".fbin"))[-1 if fmt == "binary" else 0]
    assert err.startswith(f"abxlab: error: {out} holds ") and f"(first {stale})" in err
    assert _tree(out) == before
    # a re-run that writes the same names succeeds
    assert _extract(apc_dir, corpus_dir / "features", out) == 0
    assert sorted(_tree(out)) == sorted(before)


def test_synth_into_a_larger_corpus_exits_2(tmp_path, capsys):
    out = tmp_path / "corpus"
    argv = ["synth", "--phones", "a,b", "--dim", "4", "--segments-per-cell", "3",
            "--frames", "4:6", "--seed", "7", "--out", str(out)]
    assert cli.main(argv + ["--speakers", "3"]) == 0
    before = _tree(out)
    assert cli.main(argv + ["--speakers", "2"]) == 2
    err = capsys.readouterr().err
    assert f"{out / 'features'} holds 1 feature file(s)" in err and "(first u03.fbin)" in err
    assert _tree(out) == before
    assert cli.main(argv + ["--speakers", "3"]) == 0


def test_fbin_directory_exits_2(corpus_dir, tmp_path, capsys):
    features = tmp_path / "features"
    shutil.copytree(corpus_dir / "features", features)
    (features / "x.fbin").mkdir()
    rc = cli.main(["eval", "--features", str(features),
                   "--items", str(corpus_dir / "items.item"), "--mode", "within",
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"feature file not found: {features / 'x.fbin'}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag", ["--items", "--config", "--features", "--truth", "--pairwise", "--af-table",
             "--baseline"],
)
def test_undecodable_text_input_exits_3(flag, corpus_dir, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    names = {"--features": "u1.ftxt", "--af-table": "table.tsv", "--baseline": "base.csv"}
    target = bad / names.get(flag, "input")
    target.write_bytes(b"\xff\xfe")
    labels = tmp_path / "labels.tsv"
    labels.write_text("u1\t0.0\t0.1\ta\n")
    rates = tmp_path / "rates.csv"
    rates.write_text("a,0.1\n")
    features, items = str(corpus_dir / "features"), str(corpus_dir / "items.item")
    argv = {
        "--items": ["eval", "--features", features, "--items", str(target),
                    "--mode", "within"],
        "--config": ["synth", "--config", str(target)],
        "--features": ["eval", "--features", str(bad), "--items", items,
                       "--mode", "within"],
        "--truth": ["analyze", "confusion", "--truth", str(target), "--hyp", str(labels),
                    "--frame-period", "10000"],
        "--pairwise": ["analyze", "phoneme", "--pairwise", str(target)],
        "--af-table": ["eval", "--features", features, "--items", items, "--mode", "within",
                       "--task", "af", "--af-table", str(target)],
        "--baseline": ["analyze", "reduce", "--baseline", str(target),
                       "--improved", str(rates)],
    }[flag]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"{target}: not UTF-8 text" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _rate_csv(rates, header=""):
    """The text of a rate-map CSV of ``rates``, below ``header`` if one is given."""
    return header + "".join(f"{k},{v!r}\n" for k, v in rates.items())


def test_analyze_reduce_and_correlate(tmp_path):
    (tmp_path / "base.csv").write_text(_rate_csv({"a": 0.4, "b": 0.2, "c": 0.0}))
    (tmp_path / "imp.csv").write_text(_rate_csv({"a": 0.2, "b": 0.15, "c": 0.0}))
    rc = cli.main([
        "analyze", "reduce", "--baseline", str(tmp_path / "base.csv"),
        "--improved", str(tmp_path / "imp.csv"), "--out", str(tmp_path / "rd"),
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "rd" / "reduction.json").read_text())
    assert doc["reduction"]["a"] == "50.000000"
    assert doc["undefined"] == ["c"]

    (tmp_path / "pco.csv").write_text(
        _rate_csv({"a": 0.75, "b": 0.5, "c": 0.5}, "phone,p_co,label\n"))
    rc = cli.main([
        "analyze", "correlate", "--baseline", str(tmp_path / "base.csv"),
        "--improved", str(tmp_path / "imp.csv"),
        "--pco", str(tmp_path / "pco.csv"), "--out", str(tmp_path / "co"),
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "co" / "correlate.json").read_text())
    assert doc["n"] == 2
    assert doc["method"] == "pearson"
    assert doc["skipped_undefined"] == ["c"]
    assert (tmp_path / "co" / "scatter.svg").exists()


@pytest.mark.parametrize("flag", ["--baseline", "--improved", "--pco"])
@pytest.mark.parametrize("name,text,where", [
    ("rates.csv", "category,rate\na,0.1\nb,nan\n", ":3: non-finite rate 'nan'"),
    ("rates.csv", "a,0.1\nb,-inf\n", ":2: non-finite rate '-inf'"),
    ("rates.csv", "a,0.1\nb,NaN\n", ":2: non-finite rate 'NaN'"),
    # only a .json name is refused up front: any other is read as a CSV
    ("rates", "phone,p_co,label\na,0.1,a\nb,inf,b\n", ":3: non-finite rate 'inf'"),
])
def test_analyze_non_finite_rate_exits_3(tmp_path, capsys, flag, name, text, where):
    for f in ("base", "imp", "pco"):
        (tmp_path / f"{f}.csv").write_text(_rate_csv({"a": 0.4, "b": 0.2}))
    bad = tmp_path / name
    bad.write_text(text)
    files = {"--baseline": tmp_path / "base.csv", "--improved": tmp_path / "imp.csv",
             "--pco": tmp_path / "pco.csv", flag: bad}
    argv = ["analyze", "correlate" if flag == "--pco" else "reduce"]
    for f in ("--baseline", "--improved") + (("--pco",) if flag == "--pco" else ()):
        argv += [f, str(files[f])]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"{bad}{where}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name,text,where", [
    ("rates.csv", "category,rate\nAA,0.5\nAA,0.1\n", ":3: category 'AA' listed twice"),
    ("rates.csv", "AA,0.5\nIY,0.2\nAA,0.1\n", ":3: category 'AA' listed twice"),
    ("rates.csv", "phone,p_co,label\nAA,0.5,AA\nAA,0.1,AA\n",
     ":3: category 'AA' listed twice"),
    # the same rate twice is refused too
    ("rates.csv", "category,rate,n_pairs,tag\nAA,0.5,2,x\nIY,0.2,2,x\nAA,0.5,2,x\n",
     ":4: category 'AA' listed twice"),
    ("rates", "AA,0.5\nAA,0.1\n", ":2: category 'AA' listed twice"),
])
def test_analyze_rate_map_listing_a_category_twice_exits_3(tmp_path, capsys, name, text,
                                                          where):
    bad = tmp_path / name
    bad.write_text(text)
    (tmp_path / "imp.csv").write_text(_rate_csv({"AA": 0.2, "IY": 0.1}))
    argv = ["analyze", "reduce", "--baseline", str(bad),
            "--improved", str(tmp_path / "imp.csv"), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert f"{bad}{where}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rate", ["true", "false", "True"])
def test_analyze_boolean_rate_exits_3(tmp_path, capsys, rate):
    # a boolean is not read as the rate 1 or 0
    bad = tmp_path / "base.csv"
    bad.write_text(f"a,0.2\nb,{rate}\n")
    (tmp_path / "imp.csv").write_text(_rate_csv({"a": 0.1, "b": 0.1}))
    argv = ["analyze", "reduce", "--baseline", str(bad),
            "--improved", str(tmp_path / "imp.csv"), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert f"{bad}:2: non-numeric rate {rate!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["a\nb", "a\rb", "a\u2028b", ""])
def test_analyze_rate_map_category_holding_a_line_break_exits_3(tmp_path, capsys, name):
    # a line break splits the row, so no category of reduction.csv can hold one
    bad = tmp_path / "rates.csv"
    bad.write_text(f"{name},0.5\nc,0.2\n")
    out = tmp_path / "out"
    argv = ["analyze", "reduce", "--baseline", str(bad), "--improved", str(bad),
            "--out", str(out)]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    where = ":1: expected at least 2 fields, got 1" if name else ":1: empty category"
    assert f"{bad}{where}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--baseline", "--improved", "--pco"])
@pytest.mark.parametrize("text,where", [
    ("category,rate\na,0.1\n,0.2\n", ":3: empty category"),
    (",0.2\na,0.1\n", ":1: empty category"),
])
def test_analyze_csv_rate_map_empty_category_exits_3(tmp_path, capsys, flag, text, where):
    good = tmp_path / "good.csv"
    good.write_text(_rate_csv({"a": 0.4, "b": 0.2}))
    bad = tmp_path / "rates.csv"
    bad.write_text(text)
    argv = ["analyze", "correlate" if flag == "--pco" else "reduce"]
    for f in ("--baseline", "--improved") + (("--pco",) if flag == "--pco" else ()):
        argv += [f, str(bad if f == flag else good)]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"{bad}{where}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--baseline", "--improved", "--pco"])
def test_analyze_json_rate_map_exits_2(tmp_path, capsys, flag):
    # a JSON report's rates are rounded to 6 digits: only the CSVs are read
    good = tmp_path / "good.csv"
    good.write_text(_rate_csv({"a": 0.4, "b": 0.2}))
    bad = tmp_path / "phoneme.json"
    bad.write_text('{"a": 0.1, "b": 0.1}')
    argv = ["analyze", "correlate" if flag == "--pco" else "reduce"]
    for f in ("--baseline", "--improved") + (("--pco",) if flag == "--pco" else ()):
        argv += [f, str(bad if f == flag else good)]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: rate maps are read from phoneme.csv or pco.csv, not JSON" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_analyze_non_numeric_first_rate_exits_3(tmp_path, capsys):
    # line 1 is a header only when its rate column is named rate or p_co
    good = tmp_path / "good.csv"
    good.write_text(_rate_csv({"AA": 0.4, "EH": 0.2, "IY": 0.3}))
    pco = tmp_path / "pco.csv"
    pco.write_text("AA,bad\nEH,0.5\nIY,0.9\n")
    argv = ["analyze", "correlate", "--baseline", str(good), "--improved", str(good),
            "--pco", str(pco), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert f"{pco}:1: non-numeric rate 'bad'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_analyze_reads_csv_rate_maps(tmp_path):
    """phoneme.csv and pco.csv rows are read at full repr precision, a
    header row skipped: the outputs are the library's on the same floats."""
    from abxlab.analysis import pearson_correlation, relative_reduction

    maps = {"base": {"a": 1 / 7, "b": 0.2, "c": 1 / 3},
            "imp": {"a": 0.1, "b": 0.15, "c": 0.2},
            "pco": {"a": 0.75, "b": 2 / 3, "c": 0.5}}
    (tmp_path / "base.csv").write_text("category,rate,n_pairs,tag\n" + "".join(
        f"{k},{v!r},2,other\n" for k, v in maps["base"].items()))
    (tmp_path / "imp.csv").write_text("".join(  # no header: the first row is data
        f"{k},{v!r},2,other\n" for k, v in maps["imp"].items()))
    (tmp_path / "pco.csv").write_text("phone,p_co,label\n" + "".join(
        f"{k},{v!r},{k}\n" for k, v in maps["pco"].items()))
    base, imp, pco = (str(tmp_path / f"{stem}.csv") for stem in maps)
    for argv in (["reduce"], ["correlate", "--pco", pco]):
        assert cli.main(["analyze", *argv, "--baseline", base, "--improved", imp,
                         "--out", str(tmp_path / argv[0])]) == 0
    reductions = relative_reduction(maps["base"], maps["imp"])[0]
    assert (tmp_path / "reduce" / "reduction.csv").read_text() == (
        "category,reduction_percent\n" + _rate_csv(reductions))
    r = pearson_correlation([maps["pco"][k] for k in "abc"], [reductions[k] for k in "abc"])
    assert json.loads((tmp_path / "correlate" / "correlate.json").read_text())["r"] == (
        f"{r:.6f}")
    # the 6-digit rates of phoneme.json would change the reduction
    assert reductions["a"] != relative_reduction({"a": round(1 / 7, 6)}, {"a": 0.1})[0]["a"]


def test_analyze_correlate_overflowing_pearson_exits_3(tmp_path, capsys):
    # a's reduction of -5e161 squares past float64, where pearson r read 0.0
    (tmp_path / "base.csv").write_text("category,rate\na,1e-160\nb,0.4\nc,0.3\n")
    (tmp_path / "imp.csv").write_text("a,0.5\nb,0.3\nc,0.1\n")
    (tmp_path / "pco.csv").write_text("phone,p_co,label\na,0.1\nb,0.5\nc,0.9\n")
    argv = ["analyze", "correlate", "--baseline", str(tmp_path / "base.csv"),
            "--improved", str(tmp_path / "imp.csv"), "--pco", str(tmp_path / "pco.csv")]
    assert cli.main(argv + ["--out", str(tmp_path / "pearson")]) == 3
    err = capsys.readouterr().err
    assert "correlation undefined: the product of the series' sums of squares" in err
    assert "Traceback" not in err
    assert not (tmp_path / "pearson").exists()
    # ranks do not overflow
    out = tmp_path / "spearman"
    assert cli.main(argv + ["--method", "spearman", "--out", str(out)]) == 0
    assert json.loads((out / "correlate.json").read_text())["r"] == "1.000000"


@pytest.mark.parametrize("e", ["1e-155", "1e-160", "1e-161", "1e-162"])
def test_analyze_correlate_tiny_pco_series_keeps_its_r(tmp_path, capsys, e):
    # the p_co series 0, e, 3e: its sum of squares is subnormal from 1e-160 on
    (tmp_path / "base.csv").write_text("category,rate\na,0.4\nb,0.3\nc,0.2\n")
    (tmp_path / "imp.csv").write_text("a,0.3\nb,0.29\nc,0.1\n")
    (tmp_path / "pco.csv").write_text(f"phone,p_co,label\na,0\nb,{e}\nc,{3 * float(e)!r}\n")
    assert cli.main(["analyze", "correlate", "--baseline", str(tmp_path / "base.csv"),
                     "--improved", str(tmp_path / "imp.csv"), "--pco", str(tmp_path / "pco.csv"),
                     "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("pearson r = 0.685245 over 3 categories")


@pytest.mark.parametrize("command", ["reduce", "correlate"])
def test_analyze_non_finite_reduction_exits_3(tmp_path, capsys, command):
    # 100 * (5e-324 - 1) / 5e-324 overflows to -inf
    (tmp_path / "base.csv").write_text("a,5e-324\nb,0.4\n")
    (tmp_path / "imp.csv").write_text("a,1\nb,0.2\n")
    (tmp_path / "pco.csv").write_text("a,0.1\nb,0.5\n")
    argv = ["analyze", command, "--baseline", str(tmp_path / "base.csv"),
            "--improved", str(tmp_path / "imp.csv"), "--out", str(tmp_path / "out")]
    if command == "correlate":
        argv += ["--pco", str(tmp_path / "pco.csv")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "relative reduction of 'a' is not finite: baseline 5e-324, improved 1.0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_analyze_correlate_needs_two_points(tmp_path):
    (tmp_path / "base.csv").write_text("a,0.4\n")
    (tmp_path / "imp.csv").write_text("a,0.2\n")
    (tmp_path / "pco.csv").write_text("a,0.9\n")
    rc = cli.main([
        "analyze", "correlate", "--baseline", str(tmp_path / "base.csv"),
        "--improved", str(tmp_path / "imp.csv"),
        "--pco", str(tmp_path / "pco.csv"), "--out", str(tmp_path / "co"),
    ])
    assert rc == 3


# ---------------------------------------------------------------------------
# synth


def test_synth_requires_seed(tmp_path):
    assert cli.main(["synth", "--out", str(tmp_path / "c")]) == 2


@pytest.mark.parametrize("flag, value", [("--phones", "a,b,a"), ("--contexts", "S:T,S:T")])
def test_synth_rejects_repeated_labels(tmp_path, flag, value):
    out = tmp_path / "c"
    assert cli.main(["synth", flag, value, "--seed", "1", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--phones", ","), ("--contexts", "ST"), ("--contexts", ","), ("--frames", "3"),
    ("--frames", "a:b"),
])
def test_synth_rejects_malformed_flag(tmp_path, capsys, flag, value):
    out = tmp_path / "c"
    with pytest.raises(SystemExit) as exc:
        cli.main(["synth", flag, value, "--seed", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, label", [
    (["--phones", "a b,c"], "'a b'"),
    (["--contexts", "S:T U"], "'T U'"),
    (["--config", "cfg.json"], "'a,b'"),
], ids=["phones", "contexts", "config"])
def test_synth_rejects_labels_its_files_cannot_hold(tmp_path, capsys, argv, label):
    # the flags parse; the config rejects the label before anything is written
    (tmp_path / "cfg.json").write_text(json.dumps({"phones": ["a,b", "c"]}))
    argv = [str(tmp_path / a) if a == "cfg.json" else a for a in argv]
    out = tmp_path / "c"
    assert cli.main(["synth", *argv, "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("abxlab: error: ") and label in err
    assert not out.exists()


def test_synth_config_file_and_flag_precedence(tmp_path):
    cfg = {"phones": ["a", "b"], "dim": 3, "seed": 5, "segments_per_cell": 2}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "c"
    rc = cli.main([
        "synth", "--config", str(tmp_path / "cfg.json"), "--dim", "6",
        "--out", str(out),
    ])
    assert rc == 0
    sidecar = json.loads((out / "synth.json").read_text())
    assert sidecar["config"]["dim"] == 6  # flag beats file
    assert sidecar["config"]["seed"] == 5  # file supplies the seed
    archive = load_feature_archive(out / "features")
    assert archive.dim == 6


def test_config_file_repeating_a_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"phones": ["a", "b"], "dim": 3, "seed": 5, "seed": 6}')
    assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: invalid JSON: repeated key 'seed'" in err
    assert not (tmp_path / "c").exists()


def test_synth_same_seed_same_bytes(tmp_path):
    args = ["synth", "--phones", "a,b", "--dim", "3", "--seed", "9", "--contexts"]
    # an empty --contexts entry is skipped
    runs = {"one": "S:T,K:N", "two": "S:T,K:N", "three": "S:T,,K:N"}
    for name, contexts in runs.items():
        assert cli.main(args + [contexts, "--out", str(tmp_path / name)]) == 0
    a = sorted((tmp_path / "one").rglob("*"))
    for other in ("two", "three"):
        b = sorted((tmp_path / other).rglob("*"))
        assert [p.name for p in a] == [p.name for p in b]
        for pa, pb in zip(a, b):
            if pa.is_file() and pa.name != "manifest.json":
                assert pa.read_bytes() == pb.read_bytes(), (other, pa.name)


# ---------------------------------------------------------------------------
# apc


def test_apc_train_extract_gradcheck(corpus_dir, tmp_path, capsys):
    train_out = tmp_path / "train"
    rc = cli.main([
        "apc", "train", "--features", str(corpus_dir / "features"),
        "--n", "1", "--layers", "1", "--hidden-dim", "5", "--cell", "simple-rnn",
        "--epochs", "3", "--seed", "0", "--out", str(train_out),
    ])
    assert rc == 0
    model = load_checkpoint(train_out / "apc.ckpt")
    assert model.config.hidden_dim == 5
    assert model.config.input_dim == 4
    curve = (train_out / "loss_curve.csv").read_text().splitlines()
    assert curve[0] == "epoch,loss"
    assert len(curve) == 1 + 3 + 1  # header + initial eval + 3 epochs
    manifest = json.loads((train_out / "manifest.json").read_text())
    assert manifest["config"]["hidden_dim"] == 5

    extract_out = tmp_path / "feats"
    rc = cli.main([
        "apc", "extract", "--model", str(train_out / "apc.ckpt"),
        "--features", str(corpus_dir / "features"), "--out", str(extract_out),
    ])
    assert rc == 0
    extracted = load_feature_archive(extract_out)
    assert extracted.dim == 5

    rc = cli.main(["apc", "gradcheck", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "gradcheck ok" in out
    assert "bound 0.0001" in out


def test_apc_gradcheck_failure_paths(monkeypatch, capsys):
    monkeypatch.setattr(apc, "run_gradient_check", lambda *a, **k: (5e-4, 3))
    assert cli.main(["apc", "gradcheck"]) == 1
    assert "gradcheck FAIL" in capsys.readouterr().out

    def explode(*a, **k):
        raise InconclusiveGradCheck("kinks everywhere")

    monkeypatch.setattr(apc, "run_gradient_check", explode)
    assert cli.main(["apc", "gradcheck"]) == 5
    assert "kinks everywhere" in capsys.readouterr().err

    # the real check, with a kink margin no draw can clear
    monkeypatch.undo()
    monkeypatch.setattr(apc, "KINK_MARGIN", 1e9)
    assert cli.main(["apc", "gradcheck"]) == 5
    assert "kink-free evaluation point in 10 resamples" in capsys.readouterr().err


def test_apc_gradcheck_flags_left_out_leave_the_config_seed(tmp_path, capsys):
    cfg = tmp_path / "seed7.json"
    cfg.write_text(json.dumps({"n": 1, "L": 2, "hidden_dim": 3, "input_dim": 2, "seed": 7}))

    def line(*argv):
        assert cli.main(["apc", "gradcheck", *argv]) == 0
        return capsys.readouterr().out

    assert line("--config", str(cfg)) == line("--seed", "7")
    assert line("--seed", "0", "--config", str(cfg)) == line()
    assert line() != line("--seed", "7")


def test_apc_gradcheck_config_lies_over_the_default_instance(tmp_path, capsys):
    cfg = tmp_path / "seed7.json"
    cfg.write_text(json.dumps({"seed": 7}))

    def line(*argv):
        assert cli.main(["apc", "gradcheck", *argv]) == 0
        return capsys.readouterr().out

    seeded = line("--seed", "7")
    assert "6.426464e-07" in seeded
    assert line("--config", str(cfg)) == seeded


@pytest.mark.parametrize("epsilon", ["0", "-1e-5", "nan", "inf"])
def test_apc_gradcheck_bad_epsilon_exits_2(capsys, epsilon):
    assert cli.main(["apc", "gradcheck", f"--epsilon={epsilon}"]) == 2
    captured = capsys.readouterr()
    assert "epsilon" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_apc_train_bad_config_file(corpus_dir, tmp_path):
    (tmp_path / "cfg.json").write_text("{\"cell_kind\": \"gru\"}")
    rc = cli.main([
        "apc", "train", "--features", str(corpus_dir / "features"),
        "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o"),
    ])
    assert rc == 2


@pytest.mark.parametrize("lr", ["nan", "inf", "-inf", "0", "config NaN"])
def test_apc_train_bad_learning_rate_exits_2(corpus_dir, tmp_path, capsys, lr):
    argv = ["apc", "train", "--features", str(corpus_dir / "features"),
            "--epochs", "1", "--out", str(tmp_path / "o")]
    if lr == "config NaN":
        (tmp_path / "cfg.json").write_text('{"learning_rate": NaN}')
        argv += ["--config", str(tmp_path / "cfg.json")]
    else:
        argv.append(f"--lr={lr}")
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "learning_rate must be finite and > 0" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "o").exists()


_BAD_INPUTS = {
    # name: (argv without --config and --out, config document or None)
    "synth seed -1": (["synth", "--seed", "-1"], None),
    "synth noise nan": (["synth", "--seed", "1", "--noise-scale", "nan"], None),
    "synth noise inf": (["synth", "--seed", "1", "--noise-scale", "inf"], None),
    "synth speaker offset nan": (["synth", "--seed", "1", "--speaker-offset-scale", "nan"],
                                 None),
    "synth mean scale inf": (["synth", "--seed", "1", "--mean-scale", "inf"], None),
    "synth noise past float32": (["synth", "--seed", "1", "--noise-scale", "1e300"], None),
    "synth mean scale past float32": (["synth", "--seed", "1", "--mean-scale", "1e39"],
                                      None),
    "synth config dim": (["synth"], {"seed": 1, "dim": "x"}),
    "synth config frames": (["synth"], {"seed": 1, "frames_per_segment": 5}),
    "synth config contexts": (["synth"], {"seed": 1, "contexts": [["S"]]}),
    "synth config seed": (["synth"], {"seed": "abc"}),
    "synth config phones": (["synth"], {"seed": 1, "phones": "AE"}),
    "synth config means nan": (["synth"], {"seed": 1, "phones": ["a"], "dim": 1,
                                           "means": {"a": [math.nan]}}),
    "eval within seed -1": (["eval", "--mode", "within", "--seed", "-1"], None),
    "eval across seed -1": (["eval", "--mode", "across", "--seed", "-1"], None),
    "eval jobs 0": (["eval", "--mode", "within", "--jobs", "0"], None),
    "eval zero vector distance nan": (["eval", "--mode", "within",
                                       "--zero-vector-distance", "nan"], None),
    "eval max speaker pairs 0": (["eval", "--mode", "across", "--max-speaker-pairs", "0"],
                                 None),
    "synth frame period past u32": (["synth", "--phones", "a,b", "--dim", "2", "--seed", "1",
                                     "--frame-period", "4294967296"], None),
    "apc train seed -1": (["apc", "train", "--seed", "-1"], None),
    "apc train config n": (["apc", "train"], {"n": 1.5}),
    "apc train config hidden_dim": (["apc", "train"], {"hidden_dim": 2.5}),
    "apc train config seed": (["apc", "train"], {"seed": "x"}),
    "apc train config batch_size": (["apc", "train"], {"batch_size": 1.5}),
    "apc gradcheck seed -1": (["apc", "gradcheck", "--seed", "-1"], None),
    "apc gradcheck config seed -1": (["apc", "gradcheck", "--seed", "-1"], {"n": 1}),
    "apc gradcheck config input_dim": (["apc", "gradcheck"], {"input_dim": 2.5}),
    "apc gradcheck config n 8": (["apc", "gradcheck"], {"n": 8}),
    "apc gradcheck config n 100": (["apc", "gradcheck"], {"n": 100}),
    "synth config not an object": (["synth"], [1]),
    "apc gradcheck config not an object": (["apc", "gradcheck"], [1]),
    "apc train batch size 0": (["apc", "train", "--batch-size", "0"], None),
    "apc train config input_dim 0": (["apc", "train"], {"input_dim": 0}),
    "synth segments per cell 0": (["synth", "--seed", "1", "--segments-per-cell", "0"], None),
}
# what the error names, where one check is the only one its input can reach
_BAD_INPUT_ERRORS = {
    "synth config not an object": "cfg.json: config must be a JSON object",
    "apc gradcheck config not an object": "cfg.json: config must be a JSON object",
    "apc train batch size 0": "epochs and batch_size must be >= 1",
    "apc train config input_dim 0": "input_dim must be >= 1",
    "synth segments per cell 0": "segments_per_cell must be >= 1",
}


@pytest.mark.parametrize("name", sorted(_BAD_INPUTS))
def test_bad_config_or_range_exits_2(name, corpus_dir, tmp_path, capsys):
    argv, doc = _BAD_INPUTS[name]
    if argv[0] == "eval":
        argv = argv + ["--items", str(corpus_dir / "items.item")]
    if argv[0] == "eval" or argv[:2] == ["apc", "train"]:
        argv = argv + ["--features", str(corpus_dir / "features")]
    if doc is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    if argv[:2] != ["apc", "gradcheck"]:
        argv = argv + ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "abxlab: error:" in captured.err
    assert _BAD_INPUT_ERRORS.get(name, "") in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "o").exists()


def test_apc_extract_checkpoint_config_past_the_file_exits_3(corpus_dir, apc_dir, tmp_path,
                                                            capsys):
    raw = (apc_dir / "apc.ckpt").read_bytes()
    (tmp_path / "bad.ckpt").write_bytes(raw[:4] + len(raw).to_bytes(4, "little") + raw[8:])
    rc = cli.main([
        "apc", "extract", "--model", str(tmp_path / "bad.ckpt"),
        "--features", str(corpus_dir / "features"), "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    captured = capsys.readouterr()
    assert f"{tmp_path / 'bad.ckpt'}: truncated config block" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "o").exists()


def test_apc_extract_bad_checkpoint_config_exits_3(corpus_dir, apc_dir, tmp_path, capsys):
    raw = (apc_dir / "apc.ckpt").read_bytes()
    cfg_len = int.from_bytes(raw[4:8], "little")
    doc = json.loads(raw[8:8 + cfg_len])
    doc["hidden_dim"] = float(doc["hidden_dim"])
    block = json.dumps(doc, sort_keys=True).encode()
    write_outputs(tmp_path, {"bad.ckpt": raw[:4] + len(block).to_bytes(4, "little")
                             + block + raw[8 + cfg_len:]})
    rc = cli.main([
        "apc", "extract", "--model", str(tmp_path / "bad.ckpt"),
        "--features", str(corpus_dir / "features"), "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    captured = capsys.readouterr()
    assert "bad config block" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "o").exists()


def _extract_exit_code(corpus_dir, ckpt, out, capsys):
    rc = cli.main(["apc", "extract", "--model", str(ckpt),
                   "--features", str(corpus_dir / "features"), "--out", str(out)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()
    return rc, captured.err


def test_frame_period_past_u32_has_no_fbin_header(corpus_dir, apc_dir, tmp_path, capsys):
    # a text archive carries the period; a .fbin header holds it as a u32
    archive = load_feature_archive(corpus_dir / "features")
    frames = {u: archive.frames(u) for u in archive.utterance_ids()}
    features = tmp_path / "features"
    write_outputs(features, feature_archive_files(FeatureArchive(frames, 5_000_000_000),
                                                  "text"))
    rc, err = _extract_exit_code(tmp_path, apc_dir / "apc.ckpt", tmp_path / "o", capsys)
    assert rc == 3
    assert "frame period 5000000000 us overflows a .fbin header" in err
    out = tmp_path / "txt"
    assert cli.main(["apc", "extract", "--model", str(apc_dir / "apc.ckpt"), "--features",
                     str(features), "--format", "text", "--out", str(out)]) == 0
    assert load_feature_archive(out).frame_period == 5_000_000_000
    # the largest period a header holds still round-trips
    out = tmp_path / "synth"
    assert cli.main(["synth", "--phones", "a,b", "--dim", "2", "--seed", "1",
                     "--frame-period", "4294967295", "--out", str(out)]) == 0
    assert load_feature_archive(out / "features").frame_period == 2**32 - 1
    assert cli.main(["eval", "--features", str(out / "features"), "--items",
                     str(out / "items.item"), "--mode", "within",
                     "--out", str(tmp_path / "eval")]) == 0


def test_apc_extract_checkpoint_config_repeating_a_key_exits_3(corpus_dir, apc_dir, tmp_path,
                                                               capsys):
    raw = (apc_dir / "apc.ckpt").read_bytes()
    cfg_len = int.from_bytes(raw[4:8], "little")
    block = raw[8:8 + cfg_len]
    assert block.endswith(b'"seed": 0}')
    block = block[:-1] + b', "seed": 9}'
    write_outputs(tmp_path, {"bad.ckpt": raw[:4] + len(block).to_bytes(4, "little")
                             + block + raw[8 + cfg_len:]})
    rc, err = _extract_exit_code(corpus_dir, tmp_path / "bad.ckpt", tmp_path / "o", capsys)
    assert rc == 3
    assert f"{tmp_path / 'bad.ckpt'}: bad config block: invalid JSON: repeated key 'seed'" in err


def test_apc_extract_non_finite_parameter_exits_3(corpus_dir, apc_dir, tmp_path, capsys):
    raw = bytearray((apc_dir / "apc.ckpt").read_bytes())
    raw[-8:] = struct.pack("<d", math.nan)
    write_outputs(tmp_path, {"nan.ckpt": bytes(raw)})
    rc, err = _extract_exit_code(corpus_dir, tmp_path / "nan.ckpt", tmp_path / "o", capsys)
    assert rc == 3
    assert f"{tmp_path / 'nan.ckpt'}: non-finite parameter value" in err


# ---------------------------------------------------------------------------
# plumbing


def _digest_keys(*paths):
    """The manifest input keys of ``paths``: a directory stands for its
    archive files."""
    keys = set()
    for p in paths:
        files = [*p.glob("*.fbin"), *p.glob("*.ftxt")] if p.is_dir() else [p]
        keys |= {str(f) for f in files}
    return keys


def _json(doc):
    return json.loads(json.dumps(doc))  # tuples become lists, as in the manifest


def _runner_case(name, corpus_dir, vowel_dir, eval_dir, apc_dir, tmp_path):
    """One output-writing command: (argv without --out, and the config,
    digested paths and seed its manifest must record)."""
    from abxlab.apc import ApcConfig
    from abxlab.synth import SynthConfig

    feats, items = corpus_dir / "features", corpus_dir / "items.item"
    v_feats, v_items = vowel_dir / "features", vowel_dir / "items.item"
    eval_argv = ["eval", "--features", str(feats), "--items", str(items)]
    eval_config = {
        "features": str(feats), "items": str(items), "mode": "within", "task": "phone",
        "af_table": None, "max_speaker_pairs": None, "seed": 42,
        "zero_vector_distance": 1.0, "jobs": cli._resolve_jobs(None), "per_cell": False,
    }
    vowel_config = dict(eval_config, features=str(v_feats), items=str(v_items), task="af")
    vowel_argv = ["eval", "--features", str(v_feats), "--items", str(v_items),
                  "--mode", "within", "--task", "af", "--af-table"]
    table = tmp_path / "height.tsv"
    table.write_text("AE\tOpen\nAA\tOpen\nAO\tMid\nEH\tMid\nIY\tClose\nUW\tClose\n")
    rates = {}
    for stem, doc in (("base", {"a": 0.4, "b": 0.2}), ("imp", {"a": 0.2, "b": 0.15}),
                      ("pco", {"a": 0.9, "b": 0.5})):
        rates[stem] = tmp_path / f"{stem}.csv"
        rates[stem].write_text(_rate_csv(doc))
    hyp = tmp_path / "hyp.tsv"
    hyp.write_bytes((corpus_dir / "labels.tsv").read_bytes())
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({"phones": ["a", "b"], "dim": 2, "seed": 4}))
    apc_cfg = tmp_path / "apc.json"
    apc_cfg.write_text(json.dumps({"n": 1, "L": 1, "hidden_dim": 2,
                                   "cell_kind": "simple-rnn", "epochs": 1, "seed": 5}))
    apc_argv = ["apc", "train", "--features", str(feats)]
    ckpt = apc_dir / "apc.ckpt"
    return {
        "eval": (eval_argv + ["--mode", "within"], eval_config, [feats, items], 42),
        "eval across, --jobs 2": (
            eval_argv + ["--mode", "across", "--jobs", "2", "--seed", "3", "--per-cell",
                         "--max-speaker-pairs", "1"],
            dict(eval_config, mode="across", jobs=2, seed=3, per_cell=True,
                 max_speaker_pairs=1),
            [feats, items], 3),
        "eval af, built-in table": (
            vowel_argv + ["english-height"], dict(vowel_config, af_table="english-height"),
            [v_feats, v_items], 42),
        "eval af, TSV table": (
            vowel_argv + [str(table)], dict(vowel_config, af_table=str(table)),
            [v_feats, v_items, table], 42),
        "analyze phoneme": (
            ["analyze", "phoneme", "--pairwise", str(eval_dir / "pairwise.csv")],
            {"pairwise": str(eval_dir / "pairwise.csv"), "condition": "within"},
            [eval_dir / "pairwise.csv"], None),
        "analyze confusion": (
            ["analyze", "confusion", "--truth", str(corpus_dir / "labels.tsv"),
             "--hyp", str(hyp), "--frame-period", "10000"],
            {"truth": str(corpus_dir / "labels.tsv"), "hyp": str(hyp),
             "frame_period": 10000, "strip_tones": False},
            [corpus_dir / "labels.tsv", hyp], None),
        "analyze reduce": (
            ["analyze", "reduce", "--baseline", str(rates["base"]),
             "--improved", str(rates["imp"])],
            {"baseline": str(rates["base"]), "improved": str(rates["imp"])},
            [rates["base"], rates["imp"]], None),
        "analyze correlate": (
            ["analyze", "correlate", "--baseline", str(rates["base"]),
             "--improved", str(rates["imp"]), "--pco", str(rates["pco"]),
             "--method", "spearman"],
            {"baseline": str(rates["base"]), "improved": str(rates["imp"]),
             "pco": str(rates["pco"]), "method": "spearman"},
            [rates["base"], rates["imp"], rates["pco"]], None),
        "synth": (
            ["synth", "--phones", "a,b", "--dim", "2", "--seed", "1"],
            _json(SynthConfig(phones=("a", "b"), dim=2, seed=1).to_dict()), [], 1),
        "synth --config": (
            ["synth", "--config", str(synth_cfg), "--dim", "3"],
            _json(SynthConfig(phones=("a", "b"), dim=3, seed=4).to_dict()), [synth_cfg], 4),
        "apc train": (
            apc_argv + ["--n", "1", "--layers", "1", "--hidden-dim", "3",
                        "--cell", "simple-rnn", "--epochs", "1"],
            ApcConfig(n=1, L=1, hidden_dim=3, input_dim=4, cell_kind="simple-rnn",
                      epochs=1).to_dict(),
            [feats], 0),
        "apc train --config": (
            apc_argv + ["--config", str(apc_cfg), "--epochs", "2"],
            ApcConfig(n=1, L=1, hidden_dim=2, input_dim=4, cell_kind="simple-rnn",
                      epochs=2, seed=5).to_dict(),
            [feats, apc_cfg], 5),
        "apc extract": (
            ["apc", "extract", "--model", str(ckpt), "--features", str(feats),
             "--format", "text"],
            {"model": str(ckpt), "features": str(feats), "format": "text"},
            [ckpt, feats], None),
    }[name]


@pytest.mark.parametrize("name", [
    "eval", "eval across, --jobs 2", "eval af, built-in table", "eval af, TSV table",
    "analyze phoneme", "analyze confusion", "analyze reduce", "analyze correlate",
    "synth", "synth --config", "apc train", "apc train --config", "apc extract",
])
def test_runner_writes_manifest(name, corpus_dir, vowel_dir, eval_dir, apc_dir, tmp_path):
    argv, config, inputs, seed = _runner_case(
        name, corpus_dir, vowel_dir, eval_dir, apc_dir, tmp_path)
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {
        "command", "config", "inputs", "seed", "stats", "tool_version", "wall_time_s",
    }
    stats = manifest["stats"]
    assert stats["peak_rss_mb"] > 0
    if argv[0] == "eval":  # these corpora score inline
        assert stats["workers"] == 1
    else:
        assert set(stats) == {"peak_rss_mb"}
    assert manifest["command"] == ["abxlab"] + argv + ["--out", str(out)]
    assert manifest["config"] == config
    assert set(manifest["inputs"]) == _digest_keys(*inputs)
    assert digest_inputs(list(manifest["inputs"])) == manifest["inputs"]
    assert manifest["seed"] == seed
    assert list(out.rglob("*.tmp-*")) == []


def test_builtin_af_table_name_digests_no_file(vowel_dir, tmp_path, monkeypatch):
    # a file named like a built-in table is not what eval reads, so the
    # manifest lists no digest of it; a TSV path is read and digested
    monkeypatch.chdir(tmp_path)
    (tmp_path / "english-height").write_text("AE\tOpen\n")
    (tmp_path / "height.tsv").write_text(
        "AE\tOpen\nAA\tOpen\nAO\tMid\nEH\tMid\nIY\tClose\nUW\tClose\n")
    feats, items = vowel_dir / "features", vowel_dir / "items.item"
    for table, out in (("english-height", "a"), ("height.tsv", "b")):
        assert cli.main([
            "eval", "--features", str(feats), "--items", str(items), "--mode", "within",
            "--task", "af", "--af-table", table, "--jobs", "1", "--out", out,
        ]) == 0
    inputs = [set(json.loads((tmp_path / out / "manifest.json").read_text())["inputs"])
              for out in ("a", "b")]
    assert inputs[0] == _digest_keys(feats, items)
    assert inputs[1] == inputs[0] | {"height.tsv"}


@pytest.mark.parametrize("name", ["synth", "apc extract"])
def test_runner_failure_writes_nothing(name, corpus_dir, vowel_dir, eval_dir, apc_dir,
                                       tmp_path, monkeypatch):
    def fail(paths):
        raise DataError("cannot digest inputs")

    argv = _runner_case(name, corpus_dir, vowel_dir, eval_dir, apc_dir, tmp_path)[0]
    monkeypatch.setattr(cli, "digest_inputs", fail)
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 3
    assert [p for p in out.rglob("*") if p.is_file()] == []


@pytest.mark.parametrize("name", ["eval", "synth"])
@pytest.mark.parametrize("below", [False, True])
def test_out_through_a_regular_file_exits_2(name, below, corpus_dir, vowel_dir, eval_dir,
                                            apc_dir, tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_bytes(b"keep me\n")
    out = blocker / "x" if below else blocker
    argv = _runner_case(name, corpus_dir, vowel_dir, eval_dir, apc_dir, tmp_path)[0]
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("abxlab: error: ") and str(out) in err
    assert "Traceback" not in err
    assert blocker.read_bytes() == b"keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("F")) == ["F"]


def test_output_name_taken_by_a_directory_exits_2(corpus_dir, vowel_dir, eval_dir,
                                                  apc_dir, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "pairwise.csv").mkdir(parents=True)
    argv = _runner_case("eval", corpus_dir, vowel_dir, eval_dir, apc_dir, tmp_path)[0]
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"abxlab: error: cannot write {out / 'pairwise.csv'}: it is a directory\n"
    assert [p.name for p in out.iterdir()] == ["pairwise.csv"]


def test_write_outputs_is_atomic(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(TypeError):
        write_outputs(out, {"a.txt": b"ok", "b.txt": "not bytes"})
    assert not (out / "a.txt").exists()
    assert not any(p.name.startswith("a.txt.tmp") for p in out.iterdir())


def _child_env(blas_threads=None):
    """This process's environment for a child that imports abxlab from
    source, with OPENBLAS_NUM_THREADS set to ``blas_threads`` or unset."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


def test_cli_import_leaves_unused_modules_out():
    # every command's start-up pays only for what it uses: the pool, the SVG
    # plots (and through them xml.sax), synth, analysis and apc load on demand
    lazy = ["concurrent.futures.process", "xml.sax", "abxlab.synth",
            "abxlab.analysis", "abxlab.svgplot", "abxlab.apc"]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, abxlab.cli; "
         f"print(json.dumps([m for m in {lazy!r} if m in sys.modules]))"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_only_the_apc_commands_load_apc(corpus_dir, tmp_path):
    # one fresh process runs every other command in turn, and an eval that
    # fails: none loads abxlab.apc, then apc gradcheck does
    (tmp_path / "base.csv").write_text("category,rate\na,0.4\nb,0.3\nc,0.2\n")
    (tmp_path / "imp.csv").write_text("a,0.3\nb,0.29\nc,0.1\n")
    (tmp_path / "pco.csv").write_text("phone,p_co,label\na,0.1\nb,0.5\nc,0.8\n")
    synth = tmp_path / "synth"
    runs = [
        ["synth", "--phones", "a,b", "--dim", "3", "--speakers", "2", "--frames", "3:4",
         "--segments-per-cell", "2", "--seed", "1", "--out", str(synth)],
        ["eval", "--features", str(corpus_dir / "features"), "--items",
         str(corpus_dir / "items.item"), "--mode", "within", "--out", str(tmp_path / "eval")],
        ["analyze", "phoneme", "--pairwise", str(tmp_path / "eval" / "pairwise.csv"),
         "--out", str(tmp_path / "phoneme")],
        ["analyze", "confusion", "--truth", str(synth / "labels.tsv"), "--hyp",
         str(synth / "labels.tsv"), "--frame-period", "10000", "--out", str(tmp_path / "cm")],
        ["analyze", "reduce", "--baseline", str(tmp_path / "base.csv"), "--improved",
         str(tmp_path / "imp.csv"), "--out", str(tmp_path / "reduce")],
        ["analyze", "correlate", "--baseline", str(tmp_path / "base.csv"), "--improved",
         str(tmp_path / "imp.csv"), "--pco", str(tmp_path / "pco.csv"),
         "--out", str(tmp_path / "correlate")],
        ["eval", "--features", str(tmp_path / "empty"), "--items", str(corpus_dir / "items.item"),
         "--mode", "within", "--out", str(tmp_path / "failed")],
        ["apc", "gradcheck"],
    ]
    (tmp_path / "empty").mkdir()
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, abxlab.cli as c\n"
         "for argv in json.loads(sys.argv[1]):\n"
         "    print(json.dumps([c.main(argv), 'abxlab.apc' in sys.modules]))",
         json.dumps(runs)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]
    assert results == [[0, False]] * 6 + [[3, False], [0, True]]


def test_only_a_capped_eval_loads_numpy_random(corpus_dir, tmp_path):
    # only a --max-speaker-pairs cap that drops pairs draws random numbers;
    # numpy 1.x imports numpy.random with numpy, numpy 2 on first use, so
    # uncapped evals must leave it as ``import abxlab.cli`` did
    base = ["eval", "--features", str(corpus_dir / "features"),
            "--items", str(corpus_dir / "items.item")]
    runs = [base + ["--mode", "within", "--out", str(tmp_path / "w")],
            base + ["--mode", "across", "--out", str(tmp_path / "a")],
            base + ["--mode", "across", "--max-speaker-pairs", "1", "--out", str(tmp_path / "c")]]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, abxlab.cli as c\n"
         "print(json.dumps(['import', 'numpy.random' in sys.modules]))\n"
         "for argv in json.loads(sys.argv[1]):\n"
         "    print(json.dumps([c.main(argv), 'numpy.random' in sys.modules]))",
         json.dumps(runs)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]
    loaded = results[0][1]
    assert results == [["import", loaded], [0, loaded], [0, loaded], [0, True]]


@pytest.mark.parametrize("module, given, expected", [
    ("abxlab.cli", None, "1"),
    ("abxlab.cli", "3", "3"),
    ("abxlab", None, None),
])
def test_cli_import_defaults_blas_to_one_thread(module, given, expected):
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import json, os, {module}; "
         "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))"],
        capture_output=True, text=True, env=_child_env(given),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == expected


def test_apc_bytes_unset_blas_threads_match_one_thread(corpus_dir, tmp_path):
    # at hidden_dim 100 and T >= 30 a second BLAS thread can change the bits
    # of the layer-2 gradient products, so an unset run must default to one
    archive = load_feature_archive(corpus_dir / "features")
    assert min(archive.n_frames(u) for u in archive.utterance_ids()) >= 30
    outputs = {}
    for given in (None, "1"):
        out = tmp_path / f"threads-{given}"
        for argv in (
            ["apc", "train", "--features", str(corpus_dir / "features"),
             "--cell", "lstm", "--layers", "2", "--hidden-dim", "100",
             "--epochs", "1", "--seed", "0", "--out", str(out / "train")],
            ["apc", "extract", "--model", str(out / "train" / "apc.ckpt"),
             "--features", str(corpus_dir / "features"), "--format", "binary",
             "--out", str(out / "feats")],
        ):
            proc = subprocess.run([sys.executable, "-m", "abxlab.cli", *argv],
                                  capture_output=True, text=True, env=_child_env(given))
            assert proc.returncode == 0, proc.stderr
        outputs[given] = {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in [out / "train" / "apc.ckpt", *sorted((out / "feats").glob("*.fbin"))]
        }
    assert len(outputs[None]) == 3
    assert outputs[None] == outputs["1"]


def test_svg_escape_matches_saxutils(monkeypatch):
    from xml.sax import saxutils

    from abxlab import svgplot

    text = "a&b<c>d\"e'f &amp; <<>>"

    def charts():
        return (
            svgplot.bar_chart([(text, 0.25), ("x", 0.5)], title=text, ylabel=text),
            svgplot.scatter_plot([(0.1, 0.2, text), (0.3, 0.4, "")],
                                 title=text, xlabel=text, ylabel=text),
        )

    got = charts()
    monkeypatch.setattr(svgplot, "escape", saxutils.escape)
    want = charts()
    assert [c.encode() for c in got] == [c.encode() for c in want]
    assert svgplot.escape(text) == saxutils.escape(text)
    assert "a&amp;b&lt;c&gt;d" in got[0]


def test_command_entry_matches_in_process_main(corpus_dir, tmp_path, capsys):
    # ``python -m abxlab.cli`` goes through ``run``, which freezes the GC heap
    # after ``main``; the exit code, message and report bytes stay main's
    argv = ["eval", "--features", str(corpus_dir / "features"),
            "--items", str(corpus_dir / "items.item"), "--mode", "within"]
    assert cli.main(argv + ["--out", str(tmp_path / "in")]) == 0
    message = capsys.readouterr().out
    proc = subprocess.run(
        [sys.executable, "-m", "abxlab.cli", *argv, "--out", str(tmp_path / "cmd")],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == message
    assert proc.stderr == ""
    assert (tmp_path / "cmd" / "report.json").read_bytes() == \
        (tmp_path / "in" / "report.json").read_bytes()

    feats = tmp_path / "bad"
    feats.mkdir()
    (feats / "u.fbin").write_bytes(b"FEATgarbage")
    proc = subprocess.run(
        [sys.executable, "-m", "abxlab.cli", "eval", "--features", str(feats),
         "--items", str(corpus_dir / "items.item"), "--mode", "within",
         "--out", str(tmp_path / "bad-out")],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("abxlab: error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_diverging_apc_train_prints_one_error_line(corpus_dir, tmp_path):
    # a command process shows numpy's warnings; training under errstate keeps
    # them out, so stderr holds only the error
    out = tmp_path / "apc"
    proc = subprocess.run(
        [sys.executable, "-m", "abxlab.cli", "apc", "train",
         "--features", str(corpus_dir / "features"), "--epochs", "1", "--hidden-dim", "4",
         "--layers", "1", "--lr", "1e308", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 3
    assert proc.stderr == "abxlab: error: loss diverged at epoch 1\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [(["--version"], 0), (["eval"], 2)])
def test_run_returns_main_then_freezes(monkeypatch, capsys, argv, code):
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
    monkeypatch.setattr(sys, "argv", ["abxlab", *argv])
    with pytest.raises(SystemExit) as e:  # argparse exits for both
        cli.run()
    assert e.value.code == code
    assert frozen == [True]
    monkeypatch.setattr(cli, "main", lambda: 5)
    assert cli.run() == 5
    assert frozen == [True, True]


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_gc_state(corpus_dir, tmp_path, enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert cli.main([
            "eval", "--features", str(corpus_dir / "features"),
            "--items", str(corpus_dir / "items.item"), "--mode", "across",
            "--out", str(tmp_path / "out"),
        ]) == 0
        assert cli.main(["eval", "--features", str(tmp_path / "missing"),
                         "--items", str(corpus_dir / "items.item"), "--mode", "within",
                         "--out", str(tmp_path / "out2")]) == 2
        assert gc.get_freeze_count() == frozen
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "abxlab.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("abxlab ")
    proc = subprocess.run(
        ["abxlab", "eval"], capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "required" in proc.stderr
