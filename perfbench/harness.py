"""Benchmark body: timed and traced runs of one workload (see run.py for usage)."""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

import fpu_micro
import tracing
import workloads
from fhrmon import pipeline

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"

SETUP_REPEATS = 7
CORPUS_SIZE = 4096
CORPUS_SEED = 20191016

# Fresh-process set-up: import the package, then build one backend, two
# preprocess chains and one datapath.  Prints seconds taken.
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
import fhrmon, fhrmon.cli
from fhrmon import lms, numeric, preprocess
backend = numeric.make_backend(sys.argv[1])
chains = [preprocess.PreprocessChain(backend) for _ in range(2)]
datapath = lms.make_datapath("parallel", lms.LmsConfig(), backend)
print(time.perf_counter() - t0)
"""


def child_env() -> dict:
    """This process's environment (single-threaded numpy) with ``src`` importable."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def setup_seconds(backend: str) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, backend],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


class PassRunner:
    """Runs passes of one workload, timing each and gating its outputs."""

    def __init__(self, wl, inputs, seed: int):
        self.wl = wl
        self.inputs = inputs
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict | None = None
        self.last_report: dict | None = None
        self.last_arts: list = []

    def run(self, tracer=None) -> float:
        """One pass; returns its wall time.  Outputs are checked after the clock stops."""
        arts = []
        self.last_arts, self.last_report = [], None  # let the previous pass's data go
        execute = pipeline.execute

        def capturing_execute(*args, **kwargs):
            art = execute(*args, **kwargs)
            arts.append(art)
            return art

        call = functools.partial(workloads.run_entry, self.wl, self.inputs)
        with contextlib.ExitStack() as hooks:
            hooks.enter_context(tracing.patched([(pipeline, "execute", capturing_execute)]))
            if tracer is not None:
                hooks.enter_context(tracer.installed())
                call = tracer.wrap(*workloads.ENTRY_SPANS[self.wl.entry], call)
            t0 = time.perf_counter()
            try:
                outcome = call()
            except Exception:
                outcome = None
                error = traceback.format_exc()
            wall = time.perf_counter() - t0

        self.attempted += 1
        self.last_arts = arts
        if outcome is None:
            problems = [f"pass raised:\n{error}"]
        else:
            try:
                problems = self._check(outcome, arts)
            except Exception:
                problems = [f"gate raised:\n{traceback.format_exc()}"]
        if problems:
            self.failed += 1
            self.problems += [p for p in problems if p not in self.problems]
        return wall

    def _check(self, outcome, arts) -> list[str]:
        problems, digests = workloads.gate(self.wl, self.inputs, outcome, arts)
        self.last_report = workloads.reports_of(self.wl, outcome)[-1]
        if self.digests is None:
            self.digests = digests
            problems += workloads.pinned_problems(self.wl, self.seed, self.inputs, digests)
        elif digests != self.digests:
            problems.append("pass output differs from the run's first pass")
        return problems

    def run_level_problems(self) -> list[str]:
        """Checks made once per run, on the last pass's outputs."""
        if self.wl.backend != "soft" or not self.last_arts:
            return []
        return workloads.drift_problems(self.inputs, self.last_arts[-1].errors)


def rtf(walls: list[float], record_s: float) -> float:
    return statistics.median(walls) / record_s


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(runner: PassRunner, seconds: float):
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(runner.run())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = setup_seconds(runner.wl.backend)
    quality = workloads.quality(runner.last_report, runner.inputs.recording)
    record_s = runner.inputs.record_s
    metrics = {
        "rtf_p50": metric(rtf(walls, record_s), "s/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    print(
        f"rtf_p50 = {rtf(walls, record_s):.4f} s/s (median of {len(walls)} passes "
        f"over a {record_s:g} s record; pass walls {', '.join(f'{w:.3f}' for w in walls)} s)"
    )
    print(f"setup_s = {setup_s:.4f} s (median of {SETUP_REPEATS} fresh processes)")
    print(f"peak_rss_mb = {peak_rss_mb:.1f} MB")
    print(f"fhr_abs_err_bpm = {quality['fhr_abs_err_bpm']:.4f} bpm")
    print(f"sensitivity_pct = {quality['sensitivity_pct']:.2f} %")
    print(f"accuracy_pct = {quality['accuracy_pct']:.2f} %")
    return metrics


def per_pass_layers(tracer, n_passes: int) -> list[dict]:
    """Per traced pass: span totals, self time by layer, samples by span."""
    passes = [defaultdict(float) for _ in range(n_passes)]
    for span, own in zip(tracer.spans, tracer.self_times()):
        acc = passes[span.pass_id]
        acc[f"span:{span.name}"] += span.duration
        acc[f"self:{span.layer}"] += own
        acc["self:total"] += own
        if span.samples:
            acc[f"samples:{span.name}"] += span.samples
            if span.arch:
                acc[f"span:{span.name}:{span.arch}"] += span.duration
                acc[f"samples:{span.name}:{span.arch}"] += span.samples
    return passes


def us_per_sample(acc: dict, key: str) -> float:
    samples = acc.get(f"samples:{key}", 0.0)
    return acc.get(f"span:{key}", 0.0) / samples * 1e6 if samples else 0.0


LAYER_TIMES = {
    "preprocess.us_per_sample": lambda a: us_per_sample(a, "PreprocessChain.process"),
    "lms.us_per_sample": lambda a: us_per_sample(a, "lms.run_canceller"),
    "lms.parallel.us_per_sample": lambda a: us_per_sample(a, "lms.run_canceller:parallel"),
    "fhr.enhance_s": lambda a: a["span:fhr.enhance"],
    "fhr.maxima_s": lambda a: a["span:fhr.find_local_maxima"],
    "fhr.select_s": lambda a: a["span:fhr.select_fetal_peaks"],
    "fhr.compute_s": lambda a: a["span:fhr.compute_fhr"],
    "fhr.score_s": lambda a: a["span:fhr.score_detection"],
    "io.load_s": lambda a: a["self:io"],
    "pipeline.self_s": lambda a: a["self:pipeline"],
}
# Present only on the workloads that reach the layer, so printed, not emitted.
DETAIL_TIMES = {
    "lms.series.us_per_sample": lambda a: us_per_sample(a, "lms.run_canceller:series"),
    "pipeline.write_traces_s": lambda a: a["self:write_traces"],
    "cli.self_s": lambda a: a["self:cli"],
}
LAYER_UNITS = {"us_per_sample": "us", "_s": "s"}
STAGES = ("preprocess", "lms", "fhr")
OPS = ("add", "sub", "mul", "cmp")


def unit_of(name: str) -> str:
    return next(u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix))


def traced_run(runner: PassRunner, seconds: float, spans_path: Path):
    counter = tracing.OpCounter(CORPUS_SIZE, CORPUS_SEED)
    count_tracer = tracing.Tracer(counter)
    count_wall = runner.run(count_tracer)
    count_arts, count_report = runner.last_arts, runner.last_report

    span_tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not (plain and traced) or time.perf_counter() - start < seconds:
        if len(plain) <= len(traced):
            plain.append(runner.run())
        else:
            span_tracer.pass_id = len(traced)
            traced.append(runner.run(span_tracer))

    micro, micro_problems = fpu_micro.run(
        {m: r.items for m, r in counter.samples.items()}, runner.wl.backend == "soft"
    )
    runner.problems += micro_problems

    passes = per_pass_layers(span_tracer, len(traced))
    metrics = {name: metric(value, "ns") for name, value in micro.items()}
    for name, fn in LAYER_TIMES.items():
        metrics[name] = metric(statistics.median(fn(a) for a in passes), unit_of(name))
    calls = defaultdict(int)
    for span in count_tracer.spans:
        if span.name in tracing.STAGE_ENTRIES:
            calls[tracing.STAGE_ENTRIES[span.name]] += 1
    for stage in STAGES:
        metrics[f"{stage}.calls"] = metric(calls[stage], "count")
        for kind in OPS:
            metrics[f"{stage}.ops.{kind}"] = metric(counter.ops[stage, kind], "count")
    metrics["lms.sim_ops_issued"] = metric(
        sum(a.stats.fpu_ops_issued for a in count_arts), "count"
    )
    for stage in ("preprocess", "lms"):
        overflow, underflow = count_tracer.stage_flags[stage]
        metrics[f"{stage}.flags.overflow"] = metric(overflow, "count")
        metrics[f"{stage}.flags.underflow"] = metric(underflow, "count")
    quality = workloads.quality(count_report, runner.inputs.recording)
    metrics["fhr.abs_err_bpm"] = metric(quality["fhr_abs_err_bpm"], "bpm")
    metrics["fhr.sensitivity_pct"] = metric(quality["sensitivity_pct"], "%")
    metrics["fhr.accuracy_pct"] = metric(quality["accuracy_pct"], "%")

    record_s = runner.inputs.record_s
    plain_rtf, traced_rtf = rtf(plain, record_s), rtf(traced, record_s)
    print(
        f"untraced rtf_p50 = {plain_rtf:.4f} s/s over {len(plain)} passes; traced "
        f"{traced_rtf:.4f} s/s over {len(traced)}; tracing overhead "
        f"{traced_rtf - plain_rtf:+.4f} s/s ({(traced_rtf / plain_rtf - 1) * 100:+.1f} %)"
    )
    print(f"op-counting pass: {count_wall:.3f} s wall ({count_wall / record_s:.4f} s/s)")
    for name, fn in DETAIL_TIMES.items():
        print(f"{name} = {statistics.median(fn(a) for a in passes):.6g} {unit_of(name)}")
    coverage = [a["self:total"] / wall for a, wall in zip(passes, traced)]
    print(
        "self times cover "
        + ", ".join(f"{c * 100:.2f} %" for c in coverage)
        + " of each traced pass's wall time"
    )
    layers = sorted({k for a in passes for k in a if k.startswith("self:")} - {"self:total"})
    share = {
        k[5:]: statistics.median(a.get(k, 0.0) / a["self:total"] for a in passes) for k in layers
    }
    print("self-time share: " + ", ".join(f"{k} {v * 100:.1f} %" for k, v in share.items()))
    outside = {k: v for (stage, k), v in counter.ops.items() if stage not in STAGES}
    if outside:
        print(f"ops outside the three stages: {outside}")

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(
        json.dumps({"pass_walls_s": traced, "spans": span_tracer.to_records()}) + "\n"
    )
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return metrics


def run_one(args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    print(f"workload {wl.name}, seed {seed}, trace {args.trace}")
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        inputs = workloads.make_inputs(wl, seed, args.record_seconds, Path(tmp))
        runner = PassRunner(wl, inputs, seed)
        if args.trace:
            spans = WORK_DIR / f"spans-{wl.name}-seed{seed}.json"
            metrics = traced_run(runner, args.seconds, spans)
        else:
            metrics = timed_run(runner, args.seconds)
        runner.problems += runner.run_level_problems()

    correct = not runner.problems
    print(f"failed_ratio = {runner.failed}/{runner.attempted} = {runner.failed / runner.attempted:g}")
    for problem in runner.problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(f"correctness: {'ok' if correct else 'FAILED'}")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--record-seconds", str(args.record_seconds),
        ]  # fmt: skip
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        status |= subprocess.run(cmd, timeout=600).returncode
    return 1 if status else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=15.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-seconds",
        type=float,
        default=30.0,
        help="length of the synthesized record (shorter records are for smoke tests)",
    )
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_one(args)

