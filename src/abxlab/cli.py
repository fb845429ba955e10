"""Command line front end.

Subcommands:

* ``abxlab eval``      score an ABX task over a feature archive
* ``abxlab analyze``   phoneme / confusion / reduce / correlate reports
* ``abxlab synth``     generate a synthetic oracle corpus
* ``abxlab apc``       train / extract / gradcheck the APC model

Every run that produces a report directory also writes ``manifest.json``
recording the command line, the merged configuration, SHA-256 digests of
the inputs, the seed, wall time, the tool version and the run's stats
(every command: the peak resident set of the process and of the children
it waited for; ``eval`` adds the worker processes that scored and the DP
cells, counted on every run to decide on a pool).  Each such command
returns only its files (as bytes), a message and its stats; ``main``
builds the manifest dict from the parsed flags and writes it with the
files in one ``corpus.write_outputs`` call, which refuses stale feature
files and maps a filesystem error to exit 2.  The config is every flag of
the command (``synth`` and ``apc train`` return their merged config
instead, and ``analyze phoneme`` adds the condition it derives), the seed
is the config's ``seed``, and the inputs are the files the command read,
each digested from the bytes it read (``corpus.recording_reads``).
Flags given lie over the ``--config`` file, a flag left out leaves its
value, the file lies over ``apc gradcheck``'s default instance, and
``manifest.read_json`` decodes every JSON input.

Exit codes: 0 success, 1 gradient check over its error bound, 2 usage
error, 3 malformed or inconsistent data, 4 empty task (no scorable cells),
5 inconclusive gradient check.  ``eval`` adds no checks of its own: it
passes its flags to ``score_corpus`` as plain values (``--jobs`` left out
becomes the CPUs the process may use), and the library checks each one
where it is used, so a bad setting is reported after the inputs load.

``analysis``, ``apc``, ``svgplot`` and ``synth`` are imported inside the
commands that use them, so no command pays at start-up for one of them
that it does not use.

The command runs OpenBLAS on one thread unless ``OPENBLAS_NUM_THREADS`` is
set.  APC is the only BLAS user, and its products are too small for a
second thread to pay: the idle worker spins through APC's single-threaded
step loops, and the thread count changes checkpoint bits.  The default is
set before numpy loads, so it holds for ``python -m abxlab.cli`` and the
console script; a library caller that imported numpy first keeps its own
process's thread count.

The console script and ``python -m abxlab.cli`` enter through ``run``:
once ``main`` returns or raises, it freezes the garbage collector's heap,
so interpreter shutdown skips its collections over the process's tens of
thousands of module objects (about 30 ms of every command).  ``main(argv)``
leaves the collector alone, so tests and library callers keep their own
GC state.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads: see above

from . import __version__
from .abx import PAIRWISE_HEADER, fold_pairs, score_corpus
from .af_tables import BUILTIN_TABLES, load_af_table
from .corpus import (
    feature_archive_files,
    load_feature_archive,
    load_item_file,
    load_label_track,
    read_rows,
    read_text_file,
    recording_reads,
    write_outputs,
)
from .errors import (
    AbxlabError,
    DataError,
    RowError,
    UsageError,
)
from .manifest import json_bytes, lines_bytes, read_json

GRADCHECK_BOUND = 1e-4


class Outputs(NamedTuple):
    """What an output-writing command hands back to ``main``."""

    files: dict  # {relative name: bytes}, written beside manifest.json
    message: str  # printed once everything is written
    config: dict | None = None  # None: the command's flags
    stats: dict | None = None  # what the run did, for the manifest


# dests the parser sets for itself, not flags of the command
_PARSER_DESTS = ("command", "analysis", "apc_command", "func", "out")


# ---------------------------------------------------------------------------
# shared helpers


def _config_doc(cls, args, default=None) -> dict:
    """``default`` with the --config document laid over it and the given
    flags on top; a flag's destination is the name of the ``cls`` field it sets."""
    doc = dict(default or {})
    if args.config:
        given = read_json(read_text_file(args.config, "config file"), args.config, UsageError)
        if not isinstance(given, dict):
            raise UsageError(f"{args.config}: config must be a JSON object")
        doc |= given
    flags = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    return doc | {k: v for k, v in flags.items() if v is not None}


def _resolve_jobs(value) -> int:
    """``--jobs``, else the CPUs this process may use (maybe fewer than the machine's)."""
    if value is not None:
        return value
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parse_rate(path, line_no: int, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise RowError(path, line_no, f"non-numeric rate {text!r}") from None
    if not math.isfinite(value):
        raise RowError(path, line_no, f"non-finite rate {text!r}")
    return value


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> Outputs:
    args.jobs = _resolve_jobs(args.jobs)  # the manifest records the resolved cap
    report = score_corpus(
        load_feature_archive(args.features), load_item_file(args.items), args.mode, args.task,
        af_table=None if args.af_table is None else load_af_table(args.af_table),
        zero_vector_distance=args.zero_vector_distance,
        max_speaker_pairs=args.max_speaker_pairs, seed=args.seed, jobs=args.jobs,
    )
    return Outputs(
        {
            "report.json": report.to_json_bytes(include_per_cell=args.per_cell),
            "pairwise.csv": report.to_csv_bytes(),
        },
        f"{args.task} {args.mode} ABX error: {report.overall:.6f} "
        f"({report.metadata['cells']} cells, "
        f"{report.metadata['comparisons']} comparisons)",
        stats=report.stats,
    )


# ---------------------------------------------------------------------------
# analyze


def _read_pairwise_csv(path):
    rows = []
    for line_no, parts in read_rows(path, "pairwise file", sep=",", n_fields=6,
                                    header=PAIRWISE_HEADER):
        x, y, prev, nxt, condition, rate_text = parts
        if not all((x, y, prev, nxt)):
            raise RowError(path, line_no, "empty category or context")
        if not condition:
            raise RowError(path, line_no, "empty condition")
        rate = _parse_rate(path, line_no, rate_text)
        if not 0.0 <= rate <= 1.0:
            raise RowError(path, line_no, f"rate {rate!r} outside [0, 1]")
        rows.append((x, y, (prev, nxt), condition, rate))
    if not rows:
        raise DataError(f"{path}: no data rows")
    return rows


def cmd_analyze_phoneme(args) -> Outputs:
    from .analysis import phoneme_level_rates
    from .svgplot import bar_chart

    rows = _read_pairwise_csv(args.pairwise)
    conditions = sorted({cond for _, _, _, cond, _ in rows})
    condition = conditions[0] if len(conditions) == 1 else "mixed"
    pairwise = fold_pairs(((x, y, ctx), rate) for x, y, ctx, _, rate in rows)
    report = phoneme_level_rates(pairwise)
    if not report.xi:
        raise DataError(f"{args.pairwise}: no pair of two different categories")

    doc = {
        "condition": condition,
        "xi": {p: f"{v:.6f}" for p, v in report.xi.items()},
        "n_pairs": report.denominators,
        "tags": report.tags,
        "missing": report.missing,
    }
    csv_lines = ["category,rate,n_pairs,tag"] + [
        f"{p},{r!r},{report.denominators[p]},{report.tags[p]}" for p, r in report.xi.items()
    ]
    svg = bar_chart(
        sorted(report.xi.items()),
        title=f"per-category ABX error ({condition})",
        ylabel="error rate",
    )
    return Outputs(
        {
            "phoneme.json": json_bytes(doc),
            "phoneme.csv": lines_bytes(csv_lines),
            "bars.svg": svg.encode(),
        },
        f"wrote per-category rates for {len(report.xi)} categories to {args.out}",
        {"pairwise": args.pairwise, "condition": condition},
    )


def cmd_analyze_confusion(args) -> Outputs:
    from .analysis import co_occurrence, confusion_matrix

    if args.frame_period < 1:
        raise UsageError(f"--frame-period must be >= 1, got {args.frame_period}")
    truth = load_label_track(args.truth)
    hyp = load_label_track(args.hyp)
    cm = confusion_matrix(
        truth, hyp, frame_period=args.frame_period, strip_tones=args.strip_tones
    )
    pco = co_occurrence(cm)

    pco_lines = ["phone,p_co,label"]
    for phone in sorted(pco):
        p, label = pco[phone]
        pco_lines.append(f"{phone},{p!r},{label}")
    doc = {
        "rows": list(cm.row_symbols),
        "cols": list(cm.col_symbols),
        "frame_counts": dict(zip(cm.row_symbols, cm.frame_counts)),
        "empty_rows": list(cm.empty_rows),
        "p_co": {
            phone: {"p_co": f"{p:.6f}", "label": label}
            for phone, (p, label) in pco.items()
        },
    }
    return Outputs(
        {
            "confusion.csv": cm.to_csv_bytes(),
            "pco.csv": lines_bytes(pco_lines),
            "confusion.json": json_bytes(doc),
        },
        f"confusion matrix over {len(cm.row_symbols)} truth symbols "
        f"written to {args.out}",
    )


def _load_rate_map(path) -> dict:
    """Read a {category: rate} map from a CSV of 2+ columns: the
    ``phoneme.csv`` or ``pco.csv`` that ``analyze`` writes, whose rates
    are full precision.  Line 1 is a header when its second field is
    ``rate`` or ``p_co``; a JSON report is refused, as its rates are rounded.
    """
    if Path(path).suffix == ".json":
        raise UsageError(f"{path}: rate maps are read from phoneme.csv or pco.csv, not JSON")
    out = {}
    rows = read_rows(path, "rate file", sep=",", n_fields=range(2, sys.maxsize))
    for line_no, parts in rows:
        if line_no == 1 and parts[1] in ("rate", "p_co"):
            continue  # header row
        if not parts[0]:
            raise RowError(path, line_no, "empty category")
        if parts[0] in out:
            raise RowError(path, line_no, f"category {parts[0]!r} listed twice")
        out[parts[0]] = _parse_rate(path, line_no, parts[1])
    if not out:
        raise DataError(f"{path}: no data rows")
    return out


def cmd_analyze_reduce(args) -> Outputs:
    from .analysis import relative_reduction

    baseline = _load_rate_map(args.baseline)
    improved = _load_rate_map(args.improved)
    reductions, undefined = relative_reduction(baseline, improved)

    csv_lines = ["category,reduction_percent"]
    for key in sorted(reductions):
        csv_lines.append(f"{key},{reductions[key]!r}")
    for key in undefined:
        csv_lines.append(f"{key},undefined")
    doc = {
        "reduction": {k: f"{v:.6f}" for k, v in reductions.items()},
        "undefined": list(undefined),
    }
    return Outputs(
        {
            "reduction.json": json_bytes(doc),
            "reduction.csv": lines_bytes(csv_lines),
        },
        f"relative reduction for {len(reductions)} categories "
        f"({len(undefined)} undefined) written to {args.out}",
    )


def cmd_analyze_correlate(args) -> Outputs:
    from .analysis import pearson_correlation, relative_reduction, spearman_correlation
    from .svgplot import scatter_plot

    baseline = _load_rate_map(args.baseline)
    improved = _load_rate_map(args.improved)
    pco = _load_rate_map(args.pco)
    reductions, undefined = relative_reduction(baseline, improved)

    common = sorted(set(reductions) & set(pco))
    if len(common) < 2:
        raise DataError(
            f"need at least 2 categories shared by the reduction and p_co maps, "
            f"got {len(common)}"
        )
    xs = [pco[k] for k in common]
    ys = [reductions[k] for k in common]
    if args.method == "pearson":
        r = pearson_correlation(xs, ys)
    else:
        r = spearman_correlation(xs, ys)

    doc = {
        "method": args.method,
        "r": f"{r:.6f}",
        "n": len(common),
        "categories": common,
        "skipped_undefined": [k for k in undefined if k in pco],
    }
    svg = scatter_plot(
        [(pco[k], reductions[k], k) for k in common],
        title=f"error reduction vs. co-occurrence ({args.method} r = {r:.3f})",
        xlabel="p_co",
        ylabel="relative reduction (%)",
    )
    return Outputs(
        {"correlate.json": json_bytes(doc), "scatter.svg": svg.encode()},
        f"{args.method} r = {r:.6f} over {len(common)} categories",
    )


# ---------------------------------------------------------------------------
# synth


def _parse_phones(text: str):
    phones = tuple(p.strip() for p in text.split(",") if p.strip())
    if not phones:
        raise argparse.ArgumentTypeError(f"no phone labels in {text!r}")
    return phones


def _parse_contexts(text: str):
    contexts = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise argparse.ArgumentTypeError(
                f"entries must look like PREV:NEXT, got {chunk!r}"
            )
        contexts.append((parts[0], parts[1]))
    if not contexts:
        raise argparse.ArgumentTypeError(f"no contexts in {text!r}")
    return tuple(contexts)


def _parse_frames(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"must look like MIN:MAX, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be integers, got {text!r}") from None
    return (lo, hi)


def cmd_synth(args) -> Outputs:
    from .synth import SynthConfig, corpus_files, generate_corpus

    doc = _config_doc(SynthConfig, args)
    if "seed" not in doc:
        raise UsageError("synth requires a seed (--seed or config file)")
    cfg = SynthConfig.from_dict(doc)

    corpus = generate_corpus(cfg)
    return Outputs(
        corpus_files(corpus),
        f"synthesized {len(corpus.segments)} segments over "
        f"{len(corpus.archive.utterance_ids())} utterances into {args.out}",
        cfg.to_dict(),
    )


# ---------------------------------------------------------------------------
# apc


def cmd_apc_train(args) -> Outputs:
    from .apc import ApcConfig, checkpoint_bytes, train

    cfg = ApcConfig.from_dict(_config_doc(ApcConfig, args))
    archive = load_feature_archive(args.features)
    model, losses = train(cfg, archive)

    curve = ["epoch,loss"] + [f"{epoch},{loss!r}" for epoch, loss in enumerate(losses)]
    return Outputs(
        {"apc.ckpt": checkpoint_bytes(model), "loss_curve.csv": lines_bytes(curve)},
        f"trained {model.config.cell_kind} APC for {model.config.epochs} epochs: "
        f"loss {losses[0]:.6f} -> {losses[-1]:.6f}",
        model.config.to_dict(),
    )


def cmd_apc_extract(args) -> Outputs:
    from .apc import extract_features, load_checkpoint

    model = load_checkpoint(args.model)
    archive = load_feature_archive(args.features)
    out_archive = extract_features(model, archive)
    return Outputs(
        feature_archive_files(out_archive, args.format),
        f"extracted {out_archive.dim}-dim features for "
        f"{len(out_archive.utterance_ids())} utterances into {args.out}",
    )


def cmd_apc_gradcheck(args) -> int:
    from .apc import GRADCHECK_CONFIG, ApcConfig, run_gradient_check

    cfg = ApcConfig.from_dict(_config_doc(ApcConfig, args, GRADCHECK_CONFIG.to_dict()))
    err, resamples = run_gradient_check(cfg, epsilon=args.epsilon)
    status = "ok" if err < GRADCHECK_BOUND else "FAIL"
    print(
        f"gradcheck {status}: max relative error {err:.6e} "
        f"(bound {GRADCHECK_BOUND:g}, {resamples} kink resamples)"
    )
    return 0 if err < GRADCHECK_BOUND else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abxlab",
        description="ABX discriminability scoring for speech feature archives.",
    )
    parser.add_argument(
        "--version", action="version", version=f"abxlab {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="score an ABX task")
    p_eval.add_argument("--features", required=True, help="feature archive directory")
    p_eval.add_argument("--items", required=True, help="item file of segments")
    p_eval.add_argument("--mode", required=True, choices=["within", "across"])
    p_eval.add_argument("--task", default="phone", choices=["phone", "af"])
    p_eval.add_argument(
        "--af-table",
        default=None,
        help=f"builtin table name ({', '.join(sorted(BUILTIN_TABLES))}) or TSV path",
    )
    p_eval.add_argument("--max-speaker-pairs", type=int, default=None)
    p_eval.add_argument("--seed", type=int, default=42)
    p_eval.add_argument("--jobs", type=int, default=None,
                        help="cap on worker processes (default: the usable CPUs)")
    p_eval.add_argument("--zero-vector-distance", type=float, default=1.0)
    p_eval.add_argument(
        "--per-cell", action="store_true", help="include per-cell rates in report.json"
    )
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_an = sub.add_parser("analyze", help="post-hoc analysis reports")
    an_sub = p_an.add_subparsers(dest="analysis", required=True)

    p_ph = an_sub.add_parser("phoneme", help="per-category rates from pairwise.csv")
    p_ph.add_argument("--pairwise", required=True)
    p_ph.add_argument("--out", required=True)
    p_ph.set_defaults(func=cmd_analyze_phoneme)

    p_cf = an_sub.add_parser("confusion", help="frame confusion matrix and p_co")
    p_cf.add_argument("--truth", required=True)
    p_cf.add_argument("--hyp", required=True)
    p_cf.add_argument("--frame-period", type=int, required=True,
                      help="frame period in microseconds")
    p_cf.add_argument("--strip-tones", action="store_true")
    p_cf.add_argument("--out", required=True)
    p_cf.set_defaults(func=cmd_analyze_confusion)

    p_rd = an_sub.add_parser("reduce", help="relative error reduction")
    p_rd.add_argument("--baseline", required=True)
    p_rd.add_argument("--improved", required=True)
    p_rd.add_argument("--out", required=True)
    p_rd.set_defaults(func=cmd_analyze_reduce)

    p_co = an_sub.add_parser("correlate", help="reduction vs. p_co correlation")
    p_co.add_argument("--baseline", required=True)
    p_co.add_argument("--improved", required=True)
    p_co.add_argument("--pco", required=True)
    p_co.add_argument("--method", default="pearson", choices=["pearson", "spearman"])
    p_co.add_argument("--out", required=True)
    p_co.set_defaults(func=cmd_analyze_correlate)

    p_sy = sub.add_parser("synth", help="generate a synthetic corpus")
    p_sy.add_argument("--config", default=None, help="JSON config file")
    # flag destinations are SynthConfig field names
    p_sy.add_argument("--phones", type=_parse_phones, default=None,
                      help="comma-separated phone labels")
    p_sy.add_argument("--dim", type=int, default=None)
    p_sy.add_argument("--speakers", dest="n_speakers", type=int, default=None)
    p_sy.add_argument("--speaker-offset-scale", type=float, default=None)
    p_sy.add_argument("--noise-scale", type=float, default=None)
    p_sy.add_argument("--mean-scale", type=float, default=None)
    p_sy.add_argument("--segments-per-cell", type=int, default=None)
    p_sy.add_argument("--frames", dest="frames_per_segment", type=_parse_frames,
                      default=None, help="frames per segment, MIN:MAX")
    p_sy.add_argument("--contexts", type=_parse_contexts, default=None,
                      help="comma-separated PREV:NEXT context pairs")
    p_sy.add_argument("--frame-period", type=int, default=None)
    p_sy.add_argument("--seed", type=int, default=None)
    p_sy.add_argument("--out", required=True)
    p_sy.set_defaults(func=cmd_synth)

    p_apc = sub.add_parser("apc", help="autoregressive predictive coding model")
    apc_sub = p_apc.add_subparsers(dest="apc_command", required=True)

    # flag destinations are ApcConfig field names; the archive sets input_dim
    p_tr = apc_sub.add_parser("train", help="train an APC model")
    p_tr.add_argument("--features", required=True)
    p_tr.add_argument("--config", default=None, help="JSON config file")
    p_tr.add_argument("--n", type=int, default=None, help="prediction horizon")
    p_tr.add_argument("--layers", dest="L", type=int, default=None)
    p_tr.add_argument("--hidden-dim", dest="hidden_dim", type=int, default=None)
    p_tr.add_argument("--cell", dest="cell_kind", default=None,
                      choices=["lstm", "simple-rnn"])
    p_tr.add_argument("--lr", dest="learning_rate", type=float, default=None)
    p_tr.add_argument("--epochs", type=int, default=None)
    p_tr.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p_tr.add_argument("--seed", type=int, default=None)
    p_tr.add_argument("--optimizer", default=None, choices=["adam", "sgd"])
    p_tr.add_argument("--out", required=True)
    p_tr.set_defaults(func=cmd_apc_train)

    p_ex = apc_sub.add_parser("extract", help="extract features with a checkpoint")
    p_ex.add_argument("--model", required=True, help="apc.ckpt path")
    p_ex.add_argument("--features", required=True)
    p_ex.add_argument("--format", default="binary", choices=["binary", "text"])
    p_ex.add_argument("--out", required=True)
    p_ex.set_defaults(func=cmd_apc_extract)

    p_gc = apc_sub.add_parser("gradcheck", help="finite-difference gradient check")
    p_gc.add_argument("--config", default=None, help="JSON config file")
    p_gc.add_argument("--seed", type=int, default=None)
    p_gc.add_argument("--epsilon", type=float, default=1e-5)
    p_gc.set_defaults(func=cmd_apc_gradcheck)

    return parser


def _peak_rss_mb() -> float | None:
    """The largest resident set so far, in MB, of this process or of a
    child it waited for (``eval``'s pool workers); None without
    ``resource`` (Windows).  On Linux a process's high-water mark starts
    at the RSS its parent held when it forked."""
    try:
        import resource
    except ImportError:
        return None
    peak = max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return round(peak / (1 << 20 if sys.platform == "darwin" else 1 << 10), 2)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        with recording_reads() as inputs:
            run = args.func(args)
        if isinstance(run, int):  # apc gradcheck writes no files
            return run
        flags = {k: v for k, v in vars(args).items() if k not in _PARSER_DESTS}
        config = flags if run.config is None else run.config
        manifest = {
            "command": ["abxlab"] + argv,
            "config": config,
            "inputs": inputs,
            "seed": config.get("seed"),
            "wall_time_s": round(time.perf_counter() - t0, 6),
            "tool_version": __version__,
            "stats": dict(run.stats or {}, peak_rss_mb=_peak_rss_mb()),
        }
        write_outputs(args.out, {**run.files, "manifest.json": json_bytes(manifest)})
    except AbxlabError as e:
        print(f"abxlab: error: {e}", file=sys.stderr)
        return e.exit_code
    print(run.message)
    return 0


def run() -> int:
    """The ``abxlab`` command: ``main`` on ``sys.argv``, then a frozen heap.

    ``gc.freeze`` moves every live object to the permanent generation, so
    the interpreter's shutdown collections skip the heap the process is
    about to hand back to the OS.  Exit code, atexit handlers and stream
    flushes stay the interpreter's own.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
