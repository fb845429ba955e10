"""The benchmark's three workloads: inputs, command sequences and output checks.

Inputs come from ``abxlab.synth`` with the workload seed, so nothing is
downloaded and one seed always gives the same corpus.  The sizes below
(cells, comparisons) do not depend on the seed; segment lengths, and so
the DTW work, do a little.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from abxlab.apc import ApcConfig
from abxlab.corpus import load_feature_archive
from abxlab.errors import AbxlabError
from abxlab.synth import SynthConfig, generate_corpus, write_corpus

HERE = Path(__file__).resolve().parent

# The paper's APC preset (5 x 100 LSTM, n = 5, lr 1e-4, batch 32), cut to
# 2 epochs so that one pass of the pipeline fits a run.
APC_CONFIG = {
    "n": 5, "L": 5, "hidden_dim": 100, "cell_kind": "lstm",
    "learning_rate": 1e-4, "epochs": 2, "batch_size": 32, "optimizer": "adam",
}
_APC_FLAGS = {
    "n": "--n", "L": "--layers", "hidden_dim": "--hidden-dim", "cell_kind": "--cell",
    "learning_rate": "--lr", "epochs": "--epochs", "batch_size": "--batch-size",
    "optimizer": "--optimizer",
}

EVAL_OUTPUTS = ("report.json", "pairwise.csv")


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict        # SynthConfig fields; the seed is added per run
    mode: str
    task: str
    af_table: str | None
    jobs: int          # eval --jobs of the end-to-end run
    apc: bool          # apc train and apc extract run before eval
    cells: int         # expected report metadata, at any seed
    comparisons: int


_NOISY = {"noise_scale": 0.5, "speaker_offset_scale": 0.3, "frames_per_segment": (6, 14)}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "within-phone",
            dict(_NOISY, phones=("AA", "AE", "EH", "IY", "UW", "OW"), dim=13,
                 n_speakers=4, segments_per_cell=6,
                 contexts=(("S", "T"), ("K", "N"), ("P", "D"))),
            "within", "phone", None, 1, False, 180, 64_800,
        ),
        Workload(
            "across-af",
            dict(_NOISY, phones=("P", "B", "T", "D", "K", "G", "S", "Z", "F", "V", "M", "N"),
                 dim=13, n_speakers=3, segments_per_cell=4,
                 contexts=(("S", "T"), ("K", "N"))),
            "across", "af", "english-poa", 2, False, 72, 258_048,
        ),
        Workload(
            "apc-pipeline",
            dict(_NOISY, phones=("AE", "EH", "IY", "UW"), dim=13, n_speakers=8,
                 segments_per_cell=3, contexts=(("S", "T"), ("K", "N"))),
            "within", "phone", None, 1, True, 96, 3_456,
        ),
    )
}


def _corpus(wl: Workload, seed: int):
    corpus = generate_corpus(SynthConfig(seed=seed, **wl.synth))
    if not wl.apc:
        return corpus
    # apc train batches only utterances of equal length.  A chance tie between
    # two of the 8 utterances merges their batches and trains up to 25% faster,
    # so the seed is stepped until every length differs: then every batch holds
    # one utterance, as on real corpora, at every seed.
    lengths = [corpus.archive.n_frames(u) for u in corpus.archive.utterance_ids()]
    while len(set(lengths)) < len(lengths):
        seed += 1_000_003
        corpus = generate_corpus(SynthConfig(seed=seed, **wl.synth))
        lengths = [corpus.archive.n_frames(u) for u in corpus.archive.utterance_ids()]
    return corpus


def make_inputs(wl: Workload, seed: int, out: Path) -> dict:
    """Write the workload's synthetic corpus; return its paths and frame counts."""
    corpus = _corpus(wl, seed)
    paths = write_corpus(corpus, out)
    archive = corpus.archive
    return {
        "features": paths["features"],
        "items": paths["items"],
        "frames": {u: archive.n_frames(u) for u in archive.utterance_ids()},
    }


def apc_config(seed: int, **overrides) -> ApcConfig:
    return ApcConfig(**dict(APC_CONFIG, seed=seed, **overrides))


def commands(wl: Workload, inputs: dict, out: Path, seed: int, jobs: int) -> list:
    """One pass over the workload as (command name, argv after ``abxlab``)."""
    cmds = []
    features = inputs["features"]
    if wl.apc:
        train = ["apc", "train", "--features", str(features)]
        for key, flag in _APC_FLAGS.items():
            train += [flag, str(APC_CONFIG[key])]
        cmds.append(("apc_train", train + ["--seed", str(seed), "--out", str(out / "apc")]))
        features = out / "extracted"
        cmds.append(("apc_extract", [
            "apc", "extract", "--model", str(out / "apc" / "apc.ckpt"),
            "--features", str(inputs["features"]), "--format", "text",
            "--out", str(features),
        ]))
    ev = ["eval", "--features", str(features), "--items", str(inputs["items"]),
          "--mode", wl.mode, "--task", wl.task]
    if wl.af_table:
        ev += ["--af-table", wl.af_table]
    cmds.append(("eval", ev + ["--jobs", str(jobs), "--out", str(out / "eval")]))
    return cmds


def eval_features(wl: Workload, inputs: dict, out: Path) -> Path:
    return out / "extracted" if wl.apc else inputs["features"]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class OutputCheck:
    """Checks one command's outputs; returns an error message or None.

    Every pass of one invocation must produce the same bytes as the first
    pass.  At the pinned seed, eval outputs of the workloads listed in
    expected.json must also match the digests recorded there.
    """

    def __init__(self, wl: Workload, seed: int, inputs: dict):
        self.wl = wl
        self.inputs = inputs
        pinned = json.loads((HERE / "expected.json").read_text())
        self.pinned = pinned.get(wl.name, {}) if seed == pinned["seed"] else {}
        self.first: dict = {}

    def __call__(self, name: str, out: Path) -> str | None:
        try:
            digests = getattr(self, "_" + name)(out)
        except (OSError, ValueError, KeyError, AbxlabError) as e:
            return f"{name}: unreadable output: {e}"
        if isinstance(digests, str):
            return digests
        for key, want in self.pinned.items():
            if key in digests and digests[key] != want:
                return f"{name}: {key} sha256 {digests[key]} != pinned {want}"
        if digests != self.first.setdefault(name, digests):
            return f"{name}: outputs differ from the first pass"
        return None

    def _eval(self, out: Path):
        meta = json.loads((out / "eval" / "report.json").read_text())["metadata"]
        got = (meta["cells"], meta["comparisons"])
        if got != (self.wl.cells, self.wl.comparisons):
            return f"eval: (cells, comparisons) = {got}, expected " \
                   f"{(self.wl.cells, self.wl.comparisons)}"
        return {f: _sha256(out / "eval" / f) for f in EVAL_OUTPUTS}

    def _apc_train(self, out: Path):
        rows = (out / "apc" / "loss_curve.csv").read_text().split()[1:]
        losses = [float(r.split(",")[1]) for r in rows]
        if len(losses) != APC_CONFIG["epochs"] + 1 or not all(map(math.isfinite, losses)):
            return f"apc_train: bad loss curve {losses}"
        return {"apc.ckpt": _sha256(out / "apc" / "apc.ckpt")}

    def _apc_extract(self, out: Path):
        archive = load_feature_archive(out / "extracted", format="text")
        frames = {u: archive.n_frames(u) for u in archive.utterance_ids()}
        if archive.dim != APC_CONFIG["hidden_dim"] or frames != self.inputs["frames"]:
            return (f"apc_extract: dim {archive.dim} and frame counts {frames} "
                    f"do not match dim {APC_CONFIG['hidden_dim']} and the input's")
        return {}
