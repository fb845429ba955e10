"""abxlab benchmark: run one workload end to end, or traced layer by layer.

    python3 benchmarks/run.py --workload within-phone --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` runs each command of the workload as its own
``python -m abxlab.cli`` process, pass after pass until ``--seconds``
have gone by (at least two passes), and reports the end-to-end metrics
of BENCHMARK.json as medians over passes.  ``--trace 1`` runs one pass
in this process at ``--jobs 1`` with a span around every call into a
layer's public functions and reports the per-layer metrics.  Readable
lines come first; the last line of standard output is the JSON result.
Scratch files, the full result and the spans go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 2        # byte stability is checked between passes
SETUP_PER_PASS = 3    # set-up probes after each pass; setup_s is their median
SETUP_MIN = 9
DEADLINE_S = 170.0    # a run must end well within 180 s

PHONE_ABSENT = "a phone task classifies no phone through an AF table"
APC_ABSENT = "only apc-pipeline runs apc commands"
ABSENT = {
    "af_tables.load_s": PHONE_ABSENT,
    "af_tables.classify_calls": PHONE_ABSENT,
    "corpus.write_s": "only apc extract writes a feature archive",
    "apc.train_s": APC_ABSENT,
    "apc.epoch_s": APC_ABSENT,
    "apc.train_fixed_s": APC_ABSENT,
    "apc.forward_calls": APC_ABSENT,
    "apc.forward_s": APC_ABSENT,
    "apc.checkpoint_s": APC_ABSENT,
    "apc_train_s": APC_ABSENT,
    "apc_extract_s": APC_ABSENT,
}


@dataclass
class Child:
    rc: int
    wall: float
    cpu: float      # user + system seconds, reaped pool workers included
    rss_mb: float   # largest resident set of the process or a reaped child


def run_child(argv: list, env: dict, log: Path, timeout: float) -> Child:
    """Run one process to completion and take its rusage from wait4."""
    with open(log, "ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(max(timeout, 1.0), os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: take the child and its workers down too
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as f:
        libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower() and ".so" in ln})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info(loadavg) -> dict:
    import numpy

    env_keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "ABXLAB_JOBS")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in env_keys if k in os.environ},
        "loadavg_at_start": list(loadavg),
    }


# ---------------------------------------------------------------------------
# end-to-end run


def end_to_end(wl, seed, seconds, inputs, work, deadline):
    from workloads import OutputCheck, commands

    env = child_env()
    log = work / "commands.log"
    check = OutputCheck(wl, seed, inputs)
    passes, setup, errors = [], [], []
    attempted = failed = 0

    def probe(out, times):
        argv = [sys.executable, str(HERE / "probe_setup.py"),
                "--features", str(inputs["features"])]
        if wl.apc:
            argv += ["--features", str(out / "extracted"),
                     "--checkpoint", str(out / "apc" / "apc.ckpt")]
        argv += ["--items", str(inputs["items"])]
        if wl.af_table:
            argv += ["--af-table", wl.af_table]
        for _ in range(times):
            child = run_child(argv, env, log, deadline - time.perf_counter())
            if child.rc:
                errors.append(f"set-up probe: exit code {child.rc}")
                return
            setup.append(child.wall)

    t_start = time.perf_counter()
    while True:
        out = work / f"pass{len(passes)}"
        done = {}
        for name, argv in commands(wl, inputs, out, seed, wl.jobs):
            attempted += 1
            child = run_child([sys.executable, "-m", "abxlab.cli", *argv], env, log,
                              deadline - time.perf_counter())
            done[name] = child
            err = f"{name}: exit code {child.rc}" if child.rc else check(name, out)
            if err:
                failed += 1
                errors.append(f"pass {len(passes)}: {err}")
                break
        passes.append(done)
        if not err:
            # probes between passes sample the machine over the whole run
            probe(out, SETUP_PER_PASS)
        pass_s = statistics.median(sum(c.wall for c in p.values()) for p in passes)
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now - t_start + pass_s > seconds:
            break
        if deadline - now < 2 * pass_s + 10:
            break
    probe(out, SETUP_MIN - len(setup))

    def per_pass(fn):
        return [fn(p) for p in passes if p]

    def command_walls(name):
        return [p[name].wall for p in passes if name in p]

    samples = {
        "wall_s": (per_pass(lambda p: sum(c.wall for c in p.values())), "s"),
        "eval_s": (command_walls("eval"), "s"),
        "apc_train_s": (command_walls("apc_train"), "s"),
        "apc_extract_s": (command_walls("apc_extract"), "s"),
        "cpu_s": (per_pass(lambda p: sum(c.cpu for c in p.values())), "s"),
        "peak_rss_mb": (per_pass(lambda p: max(c.rss_mb for c in p.values())), "MB"),
        "setup_s": (setup, "s"),
    }
    metrics = {k: (statistics.median(v) if v else 0.0, u, len(v))
               for k, (v, u) in samples.items()}
    if metrics["eval_s"][0]:
        metrics["comparisons_per_s"] = (wl.comparisons / metrics["eval_s"][0], "1/s",
                                        metrics["eval_s"][2])
    metrics["failed_ratio"] = (failed / attempted, "ratio", attempted)
    return attempted, failed, errors, metrics, {k: v for k, (v, _) in samples.items()}


# ---------------------------------------------------------------------------
# traced run


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def traced(wl, seed, inputs, work):
    from abxlab import abx, af_tables, apc, cli, corpus, distance
    from tracer import Tracer, instrument, layer_metrics
    from workloads import OutputCheck, apc_config, commands, eval_features

    tracer = Tracer()
    check = OutputCheck(wl, seed, inputs)
    out = work / "traced"
    errors = []
    attempted = failed = 0
    instrument(tracer, abx, af_tables, apc, cli, distance)
    try:
        for name, argv in commands(wl, inputs, out, seed, jobs=1):
            attempted += 1
            with tracer.root("cli." + name), contextlib.redirect_stdout(io.StringIO()):
                try:
                    rc = cli.main(argv)
                except (Exception, SystemExit) as e:  # a crash is a failed command
                    rc = repr(e)
            err = f"{name}: exit code {rc}" if rc else check(name, out)
            if err:
                failed += 1
                errors.append(err)
                break
    finally:
        tracer.restore()
    tracer.write(work / "trace.json")
    computed = layer_metrics(tracer.spans)
    metrics = {k: (v, u, 1) for k, (v, u) in computed.items()}
    if failed:
        return attempted, failed, errors, metrics, tracer.missing

    # Untraced calls into the public API on the same inputs.
    archive = corpus.load_feature_archive(eval_features(wl, inputs, out))
    segments = corpus.load_item_file(inputs["items"])
    table = af_tables.load_af_table(wl.af_table) if wl.af_table else None
    build_s, _ = _timed(lambda: abx.build_cells(segments, wl.mode, wl.task, table))
    want = (out / "eval" / "report.json").read_bytes()
    score_s = {}
    for jobs in (1, 2):
        attempted += 1
        score_s[jobs], report = _timed(lambda: abx.score_corpus(
            archive, segments, wl.mode, wl.task, af_table=table, jobs=jobs))
        if report.to_json_bytes() != want:
            failed += 1
            errors.append(f"score_corpus(jobs={jobs}) differs from the eval report.json")
    traced_score = sum(s.end - s.start for s in tracer.spans if s.name == "abx.score_corpus")
    metrics["abx.build_cells_s"] = (build_s, "s", 1)
    metrics["abx.parallel_speedup"] = (score_s[1] / score_s[2], "ratio", 1)
    metrics["trace.overhead_ratio"] = (traced_score / score_s[1] - 1.0, "ratio", 1)
    if wl.apc:
        raw = corpus.load_feature_archive(inputs["features"])
        one_epoch, _ = _timed(lambda: apc.train(apc_config(seed, epochs=1), raw))
        epoch = computed["apc.train_s"][0] - one_epoch
        metrics["apc.epoch_s"] = (epoch, "s", 1)
        metrics["apc.train_fixed_s"] = (one_epoch - epoch, "s", 1)
    return attempted, failed, errors, metrics, tracer.missing


# ---------------------------------------------------------------------------


def _alarm(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S:.0f} s")


def main() -> int:
    loadavg = os.getloadavg()
    start = time.perf_counter()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "abxlab" / "cli.py").is_file():
        print(f"benchmark: no abxlab source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, make_inputs

    wl = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = make_inputs(wl, args.seed, work / "inputs")
    machine = machine_info(loadavg)
    print("machine:", json.dumps(machine, sort_keys=True))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = []
    if args.trace:
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(int(DEADLINE_S))
        try:
            attempted, failed, errors, metrics, missing = traced(wl, args.seed, inputs, work)
        except TimeoutError as e:
            attempted, failed, errors, metrics = 1, 1, [str(e)], {}
        signal.alarm(0)
        samples = {}
    else:
        attempted, failed, errors, metrics, samples = end_to_end(
            wl, args.seed, args.seconds, inputs, work, start + DEADLINE_S)

    for name, (value, unit, n) in sorted(metrics.items()):
        if value == 0 and name in ABSENT:
            print(f"{wl.name:13} {name:34} absent: {ABSENT[name]}")
        else:
            print(f"{wl.name:13} {name:34} {value:14.6g} {unit:6} (n={n})")
    for name in missing:
        print(f"{wl.name:13} not traced: {name} does not exist")
    for err in errors:
        print(f"{wl.name:13} FAILED: {err}")

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], (0.0,))[0], "unit": m["unit"]}
                    for m in wanted},
    }
    (work / f"result-trace{args.trace}.json").write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "machine": machine, "errors": errors,
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "samples": samples, "result": result,
    }, indent=2, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
