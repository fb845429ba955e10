"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from outside the program: a traced function is a
module attribute replaced by a timing wrapper.  The attribute replaced
is the one on the module that *calls* the function, because abxlab
modules import functions by name (``abx`` calls its own
``abx.dtw_dissimilarity``, ``cli`` its own ``cli.score_corpus``).  Pool
workers are other processes the wrappers cannot reach, so the traced
run scores at ``--jobs 1``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int   # index of the enclosing span, -1 for a root
    trace: int    # index of the root span: one trace per command
    note: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        trace = self.spans[parent].trace if parent >= 0 else idx
        self.spans.append(Span(name, 0.0, 0.0, parent, trace))
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def _close(self, idx: int) -> Span:
        end = time.perf_counter()
        self._stack.pop()
        span = self.spans[idx]
        span.end = end
        return span

    @contextmanager
    def root(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace owner.attr by a wrapper recording a span named ``name``.

        ``note(args, result)`` runs after the span has closed and its
        value is kept on the span, for counts such as matrix sizes.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx)
                raise
            span = tracer._close(idx)
            if note is not None:
                span.note = note(args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def write(self, path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.trace, s.note] for s in self.spans]
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "trace", "note"],
                       "spans": rows}, f)


def _cells(args, _result) -> int:
    return args[0].shape[0] * args[1].shape[0]


def _segment_key(frames) -> tuple:
    # a segment is a row slice of its utterance matrix: start address and length
    return (frames.__array_interface__["data"][0], frames.shape[0])


def _dtw_note(args, _result):
    a, b = _segment_key(args[0]), _segment_key(args[1])
    return (_cells(args, None), min(a, b), max(a, b))


def instrument(tracer: Tracer, abx, af_tables, apc, cli, distance) -> None:
    """Wrap every public layer function the CLI commands reach."""
    for attr, layer in (
        ("load_feature_archive", "corpus"), ("load_item_file", "corpus"),
        ("segment_frames", "corpus"), ("write_feature_archive", "corpus"),
        ("load_af_table", "af_tables"), ("score_corpus", "abx"),
        ("train", "apc"), ("extract_features", "apc"),
        ("checkpoint_bytes", "apc"), ("load_checkpoint", "apc"),
        ("digest_inputs", "manifest"),
    ):
        note = (lambda args, result: len(result)) if attr == "load_item_file" else None
        tracer.wrap(cli, attr, f"{layer}.{attr}", note)
    tracer.wrap(cli, "write_outputs", "manifest.write_outputs",
                lambda args, _r: sum(len(b) for b in args[1].values()))
    tracer.wrap(abx, "segment_frames", "corpus.segment_frames")
    tracer.wrap(abx, "dtw_dissimilarity", "distance.dtw_dissimilarity", _dtw_note)
    tracer.wrap(abx, "pairwise_score", "abx.pairwise_score",
                lambda _a, result: result.n_comparisons)
    tracer.wrap(abx, "aggregate", "abx.aggregate")
    tracer.wrap(distance, "cosine_cost_matrix", "distance.cosine_cost_matrix", _cells)
    tracer.wrap(apc, "forward", "apc.forward")
    tracer.wrap(af_tables.AfTable, "classify", "af_tables.classify")


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer totals from the spans: {name: (value, unit)}.

    Self time is a span's duration minus the time its direct children
    cover.  Ratios whose base is zero are reported as 0.
    """
    children = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            children[s.parent] += s.end - s.start
    dur: dict = defaultdict(list)
    self_s: dict = defaultdict(float)
    notes: dict = defaultdict(list)
    for i, s in enumerate(spans):
        dur[s.name].append(s.end - s.start)
        self_s[s.name] += s.end - s.start - children[i]
        if s.note is not None:
            notes[s.name].append(s.note)

    def total(*names):
        return sum(sum(dur[n]) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    dtw = notes["distance.dtw_dissimilarity"]
    dtw_calls = len(dur["distance.dtw_dissimilarity"])
    dtw_self = self_s["distance.dtw_dissimilarity"]
    dtw_cells = sum(n[0] for n in dtw)
    unique = len({n[1:] for n in dtw})
    cm_s = total("distance.cosine_cost_matrix")
    cm_cells = sum(notes["distance.cosine_cost_matrix"])
    cell_s = dur["abx.pairwise_score"]
    comparisons = sum(notes["abx.pairwise_score"])
    return {
        "corpus.load_s": (total("corpus.load_feature_archive", "corpus.load_item_file"), "s"),
        "corpus.segment_frames_calls": (len(dur["corpus.segment_frames"]), "count"),
        "corpus.segments": (sum(notes["corpus.load_item_file"]), "count"),
        "corpus.write_s": (total("corpus.write_feature_archive"), "s"),
        "af_tables.load_s": (total("af_tables.load_af_table"), "s"),
        "af_tables.classify_calls": (len(dur["af_tables.classify"]), "count"),
        "distance.cost_matrix_s": (cm_s, "s"),
        "distance.cost_matrix_cells": (cm_cells, "count"),
        "distance.cost_matrix_cells_per_s": (ratio(cm_cells, cm_s), "1/s"),
        "distance.dtw_self_s": (dtw_self, "s"),
        "distance.dtw_calls": (dtw_calls, "count"),
        "distance.dtw_unique_pairs": (unique, "count"),
        "distance.dtw_useful_ratio": (ratio(unique, dtw_calls), "ratio"),
        "distance.dp_cells_per_s": (ratio(dtw_cells, dtw_self), "1/s"),
        "abx.cells": (len(cell_s), "count"),
        "abx.comparisons": (comparisons, "count"),
        "abx.comparisons_per_dtw_call": (ratio(comparisons, dtw_calls), "ratio"),
        "abx.count_self_s": (self_s["abx.pairwise_score"], "s"),
        "abx.aggregate_s": (total("abx.aggregate"), "s"),
        "abx.max_cell_share": (ratio(max(cell_s, default=0.0), sum(cell_s)), "ratio"),
        "apc.train_s": (total("apc.train"), "s"),
        "apc.forward_calls": (len(dur["apc.forward"]), "count"),
        "apc.forward_s": (total("apc.forward"), "s"),
        "apc.checkpoint_s": (total("apc.checkpoint_bytes", "apc.load_checkpoint"), "s"),
        "manifest.digest_s": (total("manifest.digest_inputs"), "s"),
        "manifest.write_s": (total("manifest.write_outputs"), "s"),
        "manifest.bytes_written": (sum(notes["manifest.write_outputs"]), "B"),
    }
