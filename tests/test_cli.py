import json
import os
import shutil
import subprocess
import sys

import pytest

from abxlab import cli
from abxlab.abx import score_corpus
from abxlab.af_tables import load_af_table
from abxlab.apc import load_checkpoint
from abxlab.corpus import (
    FrameLabelTrack,
    label_track_bytes,
    load_feature_archive,
    load_item_file,
)
from abxlab.errors import DataError, InconclusiveGradCheck
from abxlab.manifest import verify_digests, write_outputs


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
    assert verify_digests(manifest["inputs"]) == []
    victim = corpus_dir / "items.item"
    original = victim.read_bytes()
    try:
        victim.write_bytes(original + b"# extra\n")
        assert str(victim) in verify_digests(manifest["inputs"])
    finally:
        victim.write_bytes(original)


def test_eval_jobs_do_not_change_bytes(corpus_dir, tmp_path):
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}"
        rc = cli.main([
            "eval", "--features", str(corpus_dir / "features"),
            "--items", str(corpus_dir / "items.item"),
            "--mode", "across", "--jobs", jobs, "--out", str(out),
        ])
        assert rc == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


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


def test_jobs_env_fallback(corpus_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("ABXLAB_JOBS", "2")
    assert cli._resolve_jobs(None) == 2
    assert cli._resolve_jobs(1) == 1  # flag wins
    monkeypatch.setenv("ABXLAB_JOBS", "zero")
    with pytest.raises(Exception):
        cli._resolve_jobs(None)
    monkeypatch.setenv("ABXLAB_JOBS", "2")
    rc = cli.main([
        "eval", "--features", str(corpus_dir / "features"),
        "--items", str(corpus_dir / "items.item"),
        "--mode", "within", "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    monkeypatch.delenv("ABXLAB_JOBS")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._resolve_jobs(None) == 1  # the CPUs this process may use


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


def test_analyze_phoneme_bad_csv_exits_3(tmp_path):
    bad = tmp_path / "pairwise.csv"
    bad.write_text("nope,nope\n")
    assert cli.main(
        ["analyze", "phoneme", "--pairwise", str(bad), "--out", str(tmp_path / "o")]
    ) == 3


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


@pytest.mark.parametrize("onset,offset", [("nan", "0.1"), ("-0.5", "0.1"), ("0.0", "inf")])
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
    names = {"--features": "u1.ftxt", "--af-table": "table.tsv", "--baseline": "base.json"}
    target = bad / names.get(flag, "input")
    target.write_bytes(b"\xff\xfe")
    labels = tmp_path / "labels.tsv"
    labels.write_text("u1\t0.0\t0.1\ta\n")
    rates = tmp_path / "rates.json"
    rates.write_text('{"a": 0.1}')
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


def test_analyze_reduce_and_correlate(tmp_path):
    base = {"a": 0.4, "b": 0.2, "c": 0.0}
    improved = {"a": 0.2, "b": 0.15, "c": 0.0}
    (tmp_path / "base.json").write_text(json.dumps(base))
    (tmp_path / "imp.json").write_text(json.dumps(improved))
    rc = cli.main([
        "analyze", "reduce", "--baseline", str(tmp_path / "base.json"),
        "--improved", str(tmp_path / "imp.json"), "--out", str(tmp_path / "rd"),
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "rd" / "reduction.json").read_text())
    assert doc["reduction"]["a"] == "50.000000"
    assert doc["undefined"] == ["c"]

    pco = {"a": {"p_co": 0.75}, "b": {"p_co": 0.5}, "c": {"p_co": 0.5}}
    (tmp_path / "pco.json").write_text(json.dumps({"p_co": pco}))
    rc = cli.main([
        "analyze", "correlate", "--baseline", str(tmp_path / "base.json"),
        "--improved", str(tmp_path / "imp.json"),
        "--pco", str(tmp_path / "pco.json"), "--out", str(tmp_path / "co"),
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
    ("rates.json", '{"a": 0.1, "b": NaN}', ": value for 'b' is not finite"),
    ("rates.json", '{"a": {"xi": 0.1, "p_co": 0.1}, "b": {"xi": "inf", "p_co": "inf"}}',
     ": value for 'b' is not finite"),
])
def test_analyze_non_finite_rate_exits_3(tmp_path, capsys, flag, name, text, where):
    good = {"a": 0.4, "b": 0.2}
    for f in ("base", "imp", "pco"):
        (tmp_path / f"{f}.json").write_text(json.dumps(good))
    bad = tmp_path / name
    bad.write_text(text)
    files = {"--baseline": tmp_path / "base.json", "--improved": tmp_path / "imp.json",
             "--pco": tmp_path / "pco.json", flag: bad}
    argv = ["analyze", "correlate" if flag == "--pco" else "reduce"]
    for f in ("--baseline", "--improved") + (("--pco",) if flag == "--pco" else ()):
        argv += [f, str(files[f])]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"{bad}{where}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_analyze_correlate_needs_two_points(tmp_path):
    (tmp_path / "base.json").write_text(json.dumps({"a": 0.4}))
    (tmp_path / "imp.json").write_text(json.dumps({"a": 0.2}))
    (tmp_path / "pco.json").write_text(json.dumps({"a": 0.9}))
    rc = cli.main([
        "analyze", "correlate", "--baseline", str(tmp_path / "base.json"),
        "--improved", str(tmp_path / "imp.json"),
        "--pco", str(tmp_path / "pco.json"), "--out", str(tmp_path / "co"),
    ])
    assert rc == 3


# ---------------------------------------------------------------------------
# synth


def test_synth_requires_seed(tmp_path):
    assert cli.main(["synth", "--out", str(tmp_path / "c")]) == 2


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


def test_synth_same_seed_same_bytes(tmp_path):
    args = ["synth", "--phones", "a,b", "--dim", "3", "--seed", "9"]
    for name in ("one", "two"):
        assert cli.main(args + ["--out", str(tmp_path / name)]) == 0
    a = sorted((tmp_path / "one").rglob("*"))
    b = sorted((tmp_path / "two").rglob("*"))
    assert [p.name for p in a] == [p.name for p in b]
    for pa, pb in zip(a, b):
        if pa.is_file() and pa.name != "manifest.json":
            assert pa.read_bytes() == pb.read_bytes(), pa.name


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
    monkeypatch.setattr(cli, "run_gradient_check", lambda *a, **k: (5e-4, 3))
    assert cli.main(["apc", "gradcheck"]) == 1
    assert "gradcheck FAIL" in capsys.readouterr().out

    def explode(*a, **k):
        raise InconclusiveGradCheck("kinks everywhere")

    monkeypatch.setattr(cli, "run_gradient_check", explode)
    assert cli.main(["apc", "gradcheck"]) == 5
    assert "kinks everywhere" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# plumbing


def _runner_argv(name, corpus_dir, eval_dir, apc_dir, tmp_path):
    """argv of one output-writing subcommand, without --out."""
    for stem, rates in (("base", {"a": 0.4, "b": 0.2}), ("imp", {"a": 0.2, "b": 0.15}),
                        ("pco", {"a": 0.9, "b": 0.5})):
        (tmp_path / f"{stem}.json").write_text(json.dumps(rates))
    feats = str(corpus_dir / "features")
    labels = str(corpus_dir / "labels.tsv")
    rates = ["--baseline", str(tmp_path / "base.json"),
             "--improved", str(tmp_path / "imp.json")]
    return {
        "eval": ["eval", "--features", feats, "--items", str(corpus_dir / "items.item"),
                 "--mode", "within"],
        "analyze phoneme": ["analyze", "phoneme", "--pairwise",
                            str(eval_dir / "pairwise.csv")],
        "analyze confusion": ["analyze", "confusion", "--truth", labels, "--hyp", labels,
                              "--frame-period", "10000"],
        "analyze reduce": ["analyze", "reduce"] + rates,
        "analyze correlate": ["analyze", "correlate", "--pco", str(tmp_path / "pco.json")]
                             + rates,
        "synth": ["synth", "--phones", "a,b", "--dim", "2", "--seed", "1"],
        "apc train": ["apc", "train", "--features", feats, "--n", "1", "--layers", "1",
                      "--hidden-dim", "3", "--cell", "simple-rnn", "--epochs", "1"],
        "apc extract": ["apc", "extract", "--model", str(apc_dir / "apc.ckpt"),
                        "--features", feats],
    }[name]


@pytest.mark.parametrize("name", [
    "eval", "analyze phoneme", "analyze confusion", "analyze reduce",
    "analyze correlate", "synth", "apc train", "apc extract",
])
def test_runner_writes_manifest(name, corpus_dir, eval_dir, apc_dir, tmp_path):
    out = tmp_path / "out"
    argv = _runner_argv(name, corpus_dir, eval_dir, apc_dir, tmp_path)
    assert cli.main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {
        "command", "config", "inputs", "seed", "tool_version", "wall_time_s",
    }
    assert manifest["command"] == ["abxlab"] + argv + ["--out", str(out)]
    assert list(out.rglob("*.tmp-*")) == []


@pytest.mark.parametrize("name", ["synth", "apc extract"])
def test_runner_failure_writes_nothing(name, corpus_dir, eval_dir, apc_dir, tmp_path,
                                       monkeypatch):
    def fail(paths):
        raise DataError("cannot digest inputs")

    argv = _runner_argv(name, corpus_dir, eval_dir, apc_dir, tmp_path)
    monkeypatch.setattr(cli, "digest_inputs", fail)
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 3
    assert [p for p in out.rglob("*") if p.is_file()] == []


@pytest.mark.parametrize("name", ["eval", "synth"])
@pytest.mark.parametrize("below", [False, True])
def test_out_through_a_regular_file_exits_2(name, below, corpus_dir, eval_dir, apc_dir,
                                            tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_bytes(b"keep me\n")
    out = blocker / "x" if below else blocker
    argv = _runner_argv(name, corpus_dir, eval_dir, apc_dir, tmp_path)
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("abxlab: error: ") and str(out) in err
    assert "Traceback" not in err
    assert blocker.read_bytes() == b"keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("F")) == ["F"]


def test_output_name_taken_by_a_directory_exits_2(corpus_dir, eval_dir, apc_dir,
                                                  tmp_path, capsys):
    out = tmp_path / "out"
    (out / "pairwise.csv").mkdir(parents=True)
    argv = _runner_argv("eval", corpus_dir, eval_dir, apc_dir, tmp_path)
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


def test_cli_import_leaves_unused_modules_out():
    # eval and apc start-up pays only for what they use: the pool, the SVG
    # plots (and through them xml.sax), synth and analysis load on demand
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    lazy = ["concurrent.futures.process", "xml.sax", "abxlab.synth",
            "abxlab.analysis", "abxlab.svgplot"]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, abxlab.cli; "
         f"print(json.dumps([m for m in {lazy!r} if m in sys.modules]))"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


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
