"""Benchmark of bilock's batch CLI stages.

Run from the repository root:

    python3 perfbench/run.py --workload degrade --seed 1 --seconds 20 --trace 0

One invocation is one workload run in this one Python process: every stage
goes through the public entry point ``bilock.cli.main(argv)``.  A repeat is
``gen``, then ``perturb``, then the workload's analysis stages.  Repeats run
until ``--seconds`` of stage time is measured, and at least twice, so each
repeat's output files can be compared byte for byte with the first's.  Every
stage's outputs are checked (see ``checks.py``); at the reference seed and
size they are also compared with ``reference/<workload>.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs an
untraced, a traced and an untraced repeat and reports the per-layer metrics
of the traced one (see ``tracing.py``).  The last line of standard output is a JSON
object with the keys correct, attempted, failed and metrics; the full result,
with an environment block, goes to ``.bench_out/<run>/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

REFERENCE_SEED = 1
DEFAULT_N = 40
# At this volatility seed 1 yields outcomes I=3, II=34, III=3, so the
# outcome-conditioned JS analysis runs (it needs two rollouts per category).
CURVATURE_ETA = "0.0028"
FD_EPISODES = 8
FD_KNOT_STRIDE = 6
MIN_REPEATS = 2
MAX_REPEATS = 20

SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import bilock.cli as cli\n"
    "cli.load_models(cli.load_pipeline_config())\n"
    "print(repr(time.perf_counter() - t0))\n")


@dataclass
class Stage:
    """One CLI invocation of a repeat.

    String values in ``expect`` name an earlier stage of the same repeat
    whose summary the output check needs.
    """

    key: str
    kind: str
    argv: list
    out: Path
    expect: dict = field(default_factory=dict)
    mode: str = "dual"


def _dataset(stage):
    return stage.out / "episodes.jsonl"


def _perturb(key, src, out, seed, level_args, expect=None):
    return Stage(key, "perturb", ["perturb", "--in", _dataset(src), "--out-dir",
                                  out, *level_args, "--seed", seed],
                 out, expect or {})


def _eval(key, src, out, n):
    return Stage(key, "eval", ["eval", "--in", _dataset(src), "--out-dir", out],
                 out, {"n_episodes": n, "violation": src.key})


def repeat_stages(workload, n, seed, d):
    """The stages of one repeat, writing under d."""
    gen = Stage("gen", "gen", ["gen", "--out-dir", d / "gen", "--n", n,
                               "--seed", seed], d / "gen", {"n_episodes": n})
    if workload == "degrade":
        l1 = _perturb("perturb_l1", gen, d / "l1", seed, ["--level", "1"])
        l3 = _perturb("perturb_l3", gen, d / "l3", seed, ["--level", "3"],
                      {"below": "perturb_l1"})
        return [gen, l1, _eval("eval_l1", l1, d / "eval_l1", n),
                l3, _eval("eval_l3", l3, d / "eval_l3", n)]
    eta = _perturb("perturb_eta", gen, d / "eta", seed, ["--eta", CURVATURE_ETA])
    if workload == "curvature":
        argv = ["--knot-stride", "1"]
        rollouts, stride, mode = n, 1, "dual"
    else:
        argv = ["--diff-mode", "fd", "--max-episodes", FD_EPISODES,
                "--knot-stride", FD_KNOT_STRIDE]
        rollouts, stride, mode = min(n, FD_EPISODES), FD_KNOT_STRIDE, "fd"
    curv = Stage("curvature", "curvature",
                 ["curvature", "--in", _dataset(eta), "--out-dir",
                  d / "curvature", *argv], d / "curvature",
                 {"n_rollouts": rollouts, "stride": stride,
                  "dataset": _dataset(eta)}, mode)
    return [gen, eta, curv]


WORKLOADS = ("degrade", "curvature", "curvature-fd")


# --- running ---

@dataclass
class Result:
    stage: Stage
    rc: int
    seconds: float
    traced: bool = False


def run_stage(cli, stage, log, tracer=None):
    """Run one stage in this process; its output goes to the log."""
    argv = [str(a) for a in stage.argv]
    gc.collect()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.stage(stage.kind, cli.main, argv)
        except SystemExit as exc:          # argparse rejected the argv
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:                  # a traceback is a failed stage
            traceback.print_exc()
            rc = 1
    return Result(stage, rc, time.perf_counter() - t0, tracer is not None)


def setup_probe():
    """Seconds for ``import bilock.cli`` plus ``load_models`` in a fresh
    process."""
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure(cli, args, run_dir, log):
    """Run the repeats; returns (repeats, setup samples, tracer).

    Untraced runs take one set-up sample after each stage, so the set-up
    median spans the whole run rather than one moment of the machine's load.
    A traced run makes an untraced, a traced and an untraced repeat, so the
    tracing overhead is read against untraced time on both sides of it.
    """
    def stages(i):
        return repeat_stages(args.workload, args.n, args.seed, run_dir / f"rep{i}")

    if args.trace:
        tracer = tracing.Tracer()
        repeats = [[run_stage(cli, s, log) for s in stages(0)]]
        with tracer:
            repeats.append([run_stage(cli, s, log, tracer) for s in stages(1)])
        repeats.append([run_stage(cli, s, log) for s in stages(2)])
        return repeats, [], tracer

    setup = []
    setup_probe()                          # writes the bytecode cache
    repeats = []
    measured = 0.0
    while True:
        rep = []
        for stage in stages(len(repeats)):
            rep.append(run_stage(cli, stage, log))
            setup.append(setup_probe())
        repeats.append(rep)
        measured += sum(r.seconds for r in rep)
        if len(repeats) >= MAX_REPEATS or (
                len(repeats) >= MIN_REPEATS and measured >= args.seconds):
            return repeats, setup, None


# --- checking ---

def check_stage(res, summaries, reference, first_hashes):
    """Problems of one stage invocation; records its summary in summaries."""
    st = res.stage
    if res.rc != 0:
        return [f"exit code {res.rc}"]
    try:
        summary = checks.summarize(st.kind, st.out)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]
    summaries[st.key] = summary
    expect = {k: summaries.get(v) if isinstance(v, str) else v
              for k, v in st.expect.items()}
    if st.kind == "curvature":
        expect["n_knots"] = checks.transport_knots(
            expect.pop("dataset"), expect["n_rollouts"], expect.pop("stride"))
    if any(v is None for v in expect.values()):
        problems = ["a stage it depends on failed"]
    else:
        problems = checks.invariants(st.kind, summary, expect)
    if reference is not None:
        if st.key in reference:
            problems += checks.compare(summary, reference[st.key], st.mode)
        else:
            problems.append("no reference summary")
    hashes = checks.file_hashes(st.out)
    if hashes != first_hashes.setdefault(st.key, hashes):
        what = "traced" if res.traced else "repeated"
        problems.append(f"{what} outputs differ from the first repeat's")
    return problems


def check_all(repeats, reference):
    """Check every invocation.  Returns (report rows, per-repeat summaries)."""
    first_hashes = {}
    report = []
    summaries = []
    for i, rep in enumerate(repeats):
        summaries.append({})
        for res in rep:
            problems = check_stage(res, summaries[-1], reference, first_hashes)
            report.append({"repeat": i, "stage": res.stage.key, "rc": res.rc,
                           "seconds": res.seconds, "traced": res.traced,
                           "problems": problems})
    return report, summaries


# --- environment ---

def _blas_info():
    """(OpenBLAS config string, thread count) of the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None, None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                return get_config().decode(), int(get_threads())
    return None, None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(loadavg):
    """Informational: not part of any gate."""
    blas, threads = _blas_info()
    src_lines = 0
    for path in sorted((SRC / "bilock").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "openblas": blas, "blas_threads": threads,
            "src_bilock_lines": src_lines, "git_commit": _git_commit(),
            "loadavg_start": list(loadavg)}


# --- metrics ---

def stage_times(repeats):
    """Per-stage-key lists of seconds across repeats."""
    times = {}
    for rep in repeats:
        for res in rep:
            times.setdefault(res.stage.key, []).append(res.seconds)
    return times


def end_to_end(workload, n, repeats, analysis, setup, rss_mb, attempted,
               failed):
    """Work per second per stage (median over repeats) and run totals.

    The analysis stages are both ``eval`` runs in degrade (items are
    episodes) and ``curvature`` in the curvature workloads (items are knots,
    rank-deficient ones included).  ``perturb`` has no throughput of its own:
    its one-second runs spread by 20-45% across runs on a shared 2-core
    machine, more than any bound allows, so it counts only in ``stages_s``.
    """
    def per_s(items, kind):
        secs = [sum(r.seconds for r in rep if r.stage.kind == kind)
                for rep in repeats]
        return items / statistics.median(secs)

    if workload == "degrade":
        analysed = 2 * n
        analysis_kind = "eval"
    else:
        analysed = (analysis["n_knots"] + analysis["rank_deficient_knots"]
                    if analysis else 0)
        analysis_kind = "curvature"
    return {
        "setup_s": (statistics.median(setup), "s"),
        "gen_eps_per_s": (per_s(n, "gen"), "episodes/s"),
        "analysis_items_per_s": (per_s(analysed, analysis_kind), "items/s"),
        "stages_s": (statistics.median(sum(r.seconds for r in rep)
                                       for rep in repeats), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
    }


def trace_overheads(before, traced, after):
    """cli.<kind>.trace_overhead_frac: traced stage time over the mean of the
    untraced repeats before and after it, minus 1.

    Also returns, per stage kind, the overhead against each untraced repeat
    alone; the two differ by however much the machine's speed drifted.
    """
    def seconds(rep, kind):
        return sum(r.seconds for r in rep if r.stage.kind == kind)

    metrics, pairs = {}, {}
    for kind in ("gen", "perturb", "eval", "curvature"):
        slow = seconds(traced, kind)
        plain = [seconds(before, kind), seconds(after, kind)]
        overhead = 0.0
        if all(plain):
            overhead = slow / statistics.fmean(plain) - 1.0
            pairs[kind] = [slow / p - 1.0 for p in plain]
        metrics[f"cli.{kind}.trace_overhead_frac"] = (overhead, "ratio")
    return metrics, pairs


# --- main ---

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="stage time to measure; at least two repeats run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--n", type=int, default=DEFAULT_N,
                   help="episodes per dataset (the reference needs 40)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bilock" / "cli.py").is_file():
        print(f"perfbench: no bilock sources under {SRC}", file=sys.stderr)
        return 2
    loadavg = os.getloadavg()
    os.environ.pop("BILOCK_CONFIG", None)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-n{args.n}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    sys.path.insert(0, str(SRC))
    import bilock.cli as cli

    log = io.StringIO()
    repeats, setup, tracer = measure(cli, args, run_dir, log)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (run_dir / "stages.log").write_text(log.getvalue(), encoding="utf-8")

    reference = None
    if args.seed == REFERENCE_SEED and args.n == DEFAULT_N:
        with open(HERE / "reference" / f"{args.workload}.json",
                  encoding="utf-8") as fh:
            reference = json.load(fh)
    report, summaries = check_all(repeats, reference)
    attempted = len(report)
    failed = sum(1 for r in report if r["problems"])

    if not failed:      # keep stage outputs only for inspecting a failure
        for i in range(len(repeats)):
            shutil.rmtree(run_dir / f"rep{i}")

    tails, overhead_pairs = {}, {}
    if args.trace:
        metrics, tails = tracing.layer_metrics(tracer)
        overheads, overhead_pairs = trace_overheads(*repeats)
        metrics.update(overheads)
        tracer.save(run_dir / "spans")
    else:
        metrics = end_to_end(args.workload, args.n, repeats,
                             summaries[0].get("curvature"), setup, rss_mb,
                             attempted, failed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    detail = {"workload": args.workload, "seed": args.seed, "n": args.n,
              "trace": args.trace, "environment": environment(loadavg),
              "setup_samples_s": setup, "stage_seconds": stage_times(repeats),
              "tails": tails, "trace_overhead_pairs": overhead_pairs,
              "checks": report, "summaries": summaries, "result": result}
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    for r in report:
        for problem in r["problems"]:
            print(f"FAILED rep{r['repeat']}/{r['stage']}: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
