"""Command line front end.

Subcommands:

* ``abxlab eval``      score an ABX task over a feature archive
* ``abxlab analyze``   phoneme / confusion / reduce / correlate reports
* ``abxlab synth``     generate a synthetic oracle corpus
* ``abxlab apc``       train / extract / gradcheck the APC model

Every run that produces a report directory also writes ``manifest.json``
recording the command line, the merged configuration, SHA-256 digests of
the inputs, the seed, wall time, and the tool version.  Each such
command returns its files as bytes and ``main`` writes them together
with the manifest in one atomic ``write_outputs`` call.

Exit codes: 0 success, 1 gradient check over its error bound, 2 usage
error, 3 malformed or inconsistent data, 4 empty task (no scorable cells),
5 inconclusive gradient check.

``analysis``, ``svgplot`` and ``synth`` are imported inside the commands
that use them, so ``eval`` and ``apc`` do not pay for them at start-up.
``apc`` stays a module-level import: the benchmark tracer and the tests
patch its names on this module.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .abx import PAIRWISE_HEADER, CellLimits, means, score_corpus
from .af_tables import BUILTIN_TABLES, load_af_table
from .apc import (
    ApcConfig,
    checkpoint_bytes,
    extract_features,
    load_checkpoint,
    run_gradient_check,
    train,
)
from .corpus import (
    feature_archive_files,
    load_feature_archive,
    load_item_file,
    load_label_track,
    read_text_file,
    segment_frames,
)
from .distance import DtwConfig
from .errors import (
    AbxlabError,
    DataError,
    FormatError,
    RowError,
    UsageError,
)
from .manifest import RunManifest, digest_inputs, write_outputs

GRADCHECK_BOUND = 1e-4


class Outputs(NamedTuple):
    """What an output-writing command hands back to ``main``."""

    files: dict  # {relative name: bytes}, written beside manifest.json
    config: dict
    inputs: list  # paths whose digests go into the manifest
    seed: int | None
    message: str  # printed once everything is written


# ---------------------------------------------------------------------------
# shared helpers


def _load_config_file(path) -> dict:
    text = read_text_file(path, "config file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    return doc


def _merge_config(file_doc: dict, flags: dict) -> dict:
    """File values first, then non-None command line flags on top."""
    merged = dict(file_doc)
    for key, value in flags.items():
        if value is not None:
            merged[key] = value
    return merged


def _resolve_jobs(value) -> int:
    if value is None:
        env = os.environ.get("ABXLAB_JOBS")
        if env:
            try:
                value = int(env)
            except ValueError:
                raise UsageError(
                    f"ABXLAB_JOBS must be an integer, got {env!r}"
                ) from None
    if value is None:
        # the CPUs this process may run on, which can be fewer than the machine's
        if hasattr(os, "sched_getaffinity"):
            value = len(os.sched_getaffinity(0))
        else:
            value = os.cpu_count() or 1
    if value < 1:
        raise UsageError(f"jobs must be >= 1, got {value}")
    return value


def _json_bytes(doc) -> bytes:
    return json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n"


def _lines_bytes(lines) -> bytes:
    return ("\n".join(lines) + "\n").encode()


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
    jobs = _resolve_jobs(args.jobs)
    archive = load_feature_archive(args.features)
    segments = load_item_file(args.items)
    for seg in segments:
        if seg.utt not in archive:
            raise DataError(
                f"{args.items}: segment references unknown utterance {seg.utt!r}"
            )
        segment_frames(seg, archive)

    af_table = None
    if args.task == "af":
        if args.af_table is None:
            raise UsageError("--af-table is required when --task af")
        af_table = load_af_table(args.af_table)
    elif args.af_table is not None:
        raise UsageError("--af-table only applies to --task af")

    cfg = DtwConfig(zero_vector_distance=args.zero_vector_distance)
    limits = CellLimits(
        max_speaker_pairs_per_context=args.max_speaker_pairs, seed=args.seed
    )
    report = score_corpus(
        archive,
        segments,
        mode=args.mode,
        kind=args.task,
        af_table=af_table,
        cfg=cfg,
        limits=limits,
        jobs=jobs,
    )

    inputs = [args.features, args.items]
    if args.af_table is not None and Path(args.af_table).is_file():
        inputs.append(args.af_table)
    config = {
        "features": str(args.features),
        "items": str(args.items),
        "mode": args.mode,
        "task": args.task,
        "af_table": args.af_table,
        "max_speaker_pairs": args.max_speaker_pairs,
        "seed": args.seed,
        "zero_vector_distance": args.zero_vector_distance,
        "jobs": jobs,
        "per_cell": bool(args.per_cell),
    }
    return Outputs(
        {
            "report.json": report.to_json_bytes(include_per_cell=args.per_cell),
            "pairwise.csv": report.to_csv_bytes(),
        },
        config,
        inputs,
        args.seed,
        f"{args.task} {args.mode} ABX error: {report.overall:.6f} "
        f"({report.metadata['cells']} cells, "
        f"{report.metadata['comparisons']} comparisons)",
    )


# ---------------------------------------------------------------------------
# analyze


def _read_pairwise_csv(path):
    lines = read_text_file(path, "pairwise file").splitlines()
    if not lines or lines[0] != PAIRWISE_HEADER:
        raise FormatError(f"{path}: first line must be {PAIRWISE_HEADER!r}")
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise RowError(path, line_no, f"expected 6 fields, got {len(parts)}")
        x, y, prev, nxt, condition, rate_text = parts
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
    # context-level rows -> unweighted per-pair means, summed in
    # (context, rate) order as the report's own fold does
    rows.sort(key=lambda row: (row[0], row[1], row[2], row[4]))
    pairwise = means(((x, y), rate) for x, y, _, _, rate in rows)
    report = phoneme_level_rates(pairwise, condition=condition)

    doc = {
        "condition": report.condition,
        "xi": {p: f"{v:.6f}" for p, v in report.xi.items()},
        "n_pairs": report.denominators,
        "tags": report.tags,
        "missing": report.missing,
    }
    csv_lines = ["category,rate,n_pairs,tag"]
    for p in sorted(report.xi):
        csv_lines.append(
            f"{p},{report.xi[p]!r},{report.denominators[p]},{report.tags[p]}"
        )
    svg = bar_chart(
        sorted(report.xi.items()),
        title=f"per-category ABX error ({condition})",
        ylabel="error rate",
    )
    return Outputs(
        {
            "phoneme.json": _json_bytes(doc),
            "phoneme.csv": _lines_bytes(csv_lines),
            "bars.svg": svg.encode(),
        },
        {"pairwise": str(args.pairwise), "condition": condition},
        [args.pairwise],
        None,
        f"wrote per-category rates for {len(report.xi)} categories to {args.out}",
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
        "frame_counts": {
            s: int(n) for s, n in zip(cm.row_symbols, cm.frame_counts)
        },
        "empty_rows": list(cm.empty_rows),
        "p_co": {
            phone: {"p_co": f"{p:.6f}", "label": label}
            for phone, (p, label) in pco.items()
        },
    }
    config = {
        "truth": str(args.truth),
        "hyp": str(args.hyp),
        "frame_period": args.frame_period,
        "strip_tones": bool(args.strip_tones),
    }
    return Outputs(
        {
            "confusion.csv": cm.to_csv_bytes(),
            "pco.csv": _lines_bytes(pco_lines),
            "confusion.json": _json_bytes(doc),
        },
        config,
        [args.truth, args.hyp],
        None,
        f"confusion matrix over {len(cm.row_symbols)} truth symbols "
        f"written to {args.out}",
    )


def _load_rate_map(path, key: str) -> dict:
    """Read a {category: value} map from JSON or a 2+ column CSV.

    JSON may be a flat object or a report whose ``key`` entry holds the
    map (``"xi"`` in phoneme.json, ``"p_co"`` in confusion.json); a
    value that is itself an object is read at ``key`` too.
    """
    text = read_text_file(path, "rate file")
    if Path(path).suffix == ".json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise FormatError(f"{path}: invalid JSON: {e}") from None
        if isinstance(doc, dict) and isinstance(doc.get(key), dict):
            doc = doc[key]
        if not isinstance(doc, dict) or not doc:
            raise DataError(f"{path}: expected a non-empty JSON object of rates")
        out = {}
        for name, value in doc.items():
            if isinstance(value, dict):
                value = value.get(key)
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise DataError(
                    f"{path}: value for {name!r} is not numeric"
                ) from None
            if not math.isfinite(value):
                raise DataError(f"{path}: value for {name!r} is not finite")
            out[str(name)] = value
        return out
    out = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise RowError(path, line_no, "expected at least 2 comma fields")
        if line_no == 1:
            try:
                float(parts[1])
            except ValueError:
                continue  # header row
        out[parts[0]] = _parse_rate(path, line_no, parts[1])
    if not out:
        raise DataError(f"{path}: no data rows")
    return out


def cmd_analyze_reduce(args) -> Outputs:
    from .analysis import relative_reduction

    baseline = _load_rate_map(args.baseline, "xi")
    improved = _load_rate_map(args.improved, "xi")
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
            "reduction.json": _json_bytes(doc),
            "reduction.csv": _lines_bytes(csv_lines),
        },
        {"baseline": str(args.baseline), "improved": str(args.improved)},
        [args.baseline, args.improved],
        None,
        f"relative reduction for {len(reductions)} categories "
        f"({len(undefined)} undefined) written to {args.out}",
    )


def cmd_analyze_correlate(args) -> Outputs:
    from .analysis import pearson_correlation, relative_reduction, spearman_correlation
    from .svgplot import scatter_plot

    baseline = _load_rate_map(args.baseline, "xi")
    improved = _load_rate_map(args.improved, "xi")
    pco = _load_rate_map(args.pco, "p_co")
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
    config = {
        "baseline": str(args.baseline),
        "improved": str(args.improved),
        "pco": str(args.pco),
        "method": args.method,
    }
    return Outputs(
        {"correlate.json": _json_bytes(doc), "scatter.svg": svg.encode()},
        config,
        [args.baseline, args.improved, args.pco],
        None,
        f"{args.method} r = {r:.6f} over {len(common)} categories",
    )


# ---------------------------------------------------------------------------
# synth


def _parse_phones(text: str):
    phones = tuple(p.strip() for p in text.split(",") if p.strip())
    if not phones:
        raise UsageError(f"--phones got no phone labels: {text!r}")
    return phones


def _parse_contexts(text: str):
    contexts = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise UsageError(
                f"--contexts entries must look like PREV:NEXT, got {chunk!r}"
            )
        contexts.append((parts[0], parts[1]))
    if not contexts:
        raise UsageError(f"--contexts got no contexts: {text!r}")
    return tuple(contexts)


def _parse_frames(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"--frames must look like MIN:MAX, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"--frames must be integers, got {text!r}") from None
    return (lo, hi)


def cmd_synth(args) -> Outputs:
    from .synth import SynthConfig, corpus_files, generate_corpus

    file_doc = _load_config_file(args.config) if args.config else {}
    flags = {
        "phones": _parse_phones(args.phones) if args.phones else None,
        "dim": args.dim,
        "n_speakers": args.speakers,
        "speaker_offset_scale": args.speaker_offset_scale,
        "noise_scale": args.noise_scale,
        "mean_scale": args.mean_scale,
        "segments_per_cell": args.segments_per_cell,
        "frames_per_segment": _parse_frames(args.frames) if args.frames else None,
        "contexts": _parse_contexts(args.contexts) if args.contexts else None,
        "frame_period": args.frame_period,
        "seed": args.seed,
    }
    merged = _merge_config(file_doc, flags)
    if "seed" not in merged:
        raise UsageError("synth requires a seed (--seed or config file)")
    cfg = SynthConfig.from_dict(merged)

    corpus = generate_corpus(cfg)
    return Outputs(
        corpus_files(corpus),
        cfg.to_dict(),
        [args.config] if args.config else [],
        cfg.seed,
        f"synthesized {len(corpus.segments)} segments over "
        f"{len(corpus.archive.utterance_ids())} utterances into {args.out}",
    )


# ---------------------------------------------------------------------------
# apc


_APC_FLAG_KEYS = (
    "n",
    "L",
    "hidden_dim",
    "cell_kind",
    "learning_rate",
    "epochs",
    "batch_size",
    "seed",
    "optimizer",
)


def _apc_config(doc: dict) -> ApcConfig:
    try:
        return ApcConfig.from_dict(doc)
    except (TypeError, ValueError) as e:
        raise UsageError(f"bad APC config: {e}") from None


def cmd_apc_train(args) -> Outputs:
    file_doc = _load_config_file(args.config) if args.config else {}
    flags = {key: getattr(args, key) for key in _APC_FLAG_KEYS}
    cfg = _apc_config(_merge_config(file_doc, flags))
    archive = load_feature_archive(args.features)
    model, losses = train(cfg, archive)

    curve_lines = ["epoch,loss"]
    for epoch, loss in enumerate(losses):
        curve_lines.append(f"{epoch},{loss!r}")
    return Outputs(
        {
            "apc.ckpt": checkpoint_bytes(model),
            "loss_curve.csv": _lines_bytes(curve_lines),
        },
        model.config.to_dict(),
        [args.features] + ([args.config] if args.config else []),
        model.config.seed,
        f"trained {model.config.cell_kind} APC for {model.config.epochs} epochs: "
        f"loss {losses[0]:.6f} -> {losses[-1]:.6f}",
    )


def cmd_apc_extract(args) -> Outputs:
    model = load_checkpoint(args.model)
    archive = load_feature_archive(args.features)
    out_archive = extract_features(model, archive)
    config = {
        "model": str(args.model),
        "features": str(args.features),
        "format": args.format,
    }
    return Outputs(
        feature_archive_files(out_archive, args.format),
        config,
        [args.model, args.features],
        None,
        f"extracted {out_archive.dim}-dim features for "
        f"{len(out_archive.utterance_ids())} utterances into {args.out}",
    )


def cmd_apc_gradcheck(args) -> int:
    cfg = _apc_config(_load_config_file(args.config)) if args.config else None
    err, resamples = run_gradient_check(
        cfg, seed=args.seed, epsilon=args.epsilon
    )
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
    p_eval.add_argument("--jobs", type=int, default=None)
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
    p_sy.add_argument("--phones", default=None, help="comma-separated phone labels")
    p_sy.add_argument("--dim", type=int, default=None)
    p_sy.add_argument("--speakers", type=int, default=None)
    p_sy.add_argument("--speaker-offset-scale", type=float, default=None)
    p_sy.add_argument("--noise-scale", type=float, default=None)
    p_sy.add_argument("--mean-scale", type=float, default=None)
    p_sy.add_argument("--segments-per-cell", type=int, default=None)
    p_sy.add_argument("--frames", default=None, help="frames per segment, MIN:MAX")
    p_sy.add_argument("--contexts", default=None,
                      help="comma-separated PREV:NEXT context pairs")
    p_sy.add_argument("--frame-period", type=int, default=None)
    p_sy.add_argument("--seed", type=int, default=None)
    p_sy.add_argument("--out", required=True)
    p_sy.set_defaults(func=cmd_synth)

    p_apc = sub.add_parser("apc", help="autoregressive predictive coding model")
    apc_sub = p_apc.add_subparsers(dest="apc_command", required=True)

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
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--epsilon", type=float, default=1e-5)
    p_gc.set_defaults(func=cmd_apc_gradcheck)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        run = args.func(args)
        if isinstance(run, int):  # apc gradcheck writes no files
            return run
        manifest = RunManifest(
            command=["abxlab"] + argv,
            config=run.config,
            inputs=digest_inputs(run.inputs),
            seed=run.seed,
            wall_time_s=time.perf_counter() - t0,
        )
        write_outputs(args.out, {**run.files, "manifest.json": manifest.to_json_bytes()})
    except AbxlabError as e:
        print(f"abxlab: error: {e}", file=sys.stderr)
        return e.exit_code
    print(run.message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
