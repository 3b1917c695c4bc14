"""The names the benchmark under ``perfbench/`` looks up in fhrmon still resolve.

The benchmark patches and reads the package from outside, by attribute name,
so a rename would otherwise first show when it runs with ``--trace 1``.  Its
modules are loaded read-only: no bytecode is written next to them.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from fhrmon import lms, pipeline
from fhrmon.io import SynthSpec
from fhrmon.numeric import make_backend

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def tracing():
    return load("tracing")


@pytest.fixture(scope="module")
def workloads():
    return load("workloads")


@pytest.fixture(scope="module")
def fpu_micro():
    return load("fpu_micro")


def test_span_targets_resolve(tracing):
    for owner, attr, *_ in tracing.SPAN_TARGETS:
        assert callable(getattr(owner, attr, None)), f"{tracing.owner_name(owner)}.{attr}"


@pytest.mark.parametrize("backend", ["soft", "float64"])
def test_op_kinds_are_backend_methods(tracing, backend):
    bk = make_backend(backend)
    for method in tracing.OP_KINDS:
        assert callable(getattr(bk, method, None)), method


def test_canceller_arch_names_both_datapaths(tracing):
    for arch in ("series", "parallel"):
        datapath = lms.make_datapath(arch, lms.LmsConfig(), make_backend("soft"))
        assert tracing._canceller_arch((datapath, [], [])) == arch


@pytest.mark.parametrize("arch", ["series", "parallel"])
def test_cycle_stats_pass_schedule_problems(workloads, arch):
    bk = make_backend("soft")
    datapath = lms.make_datapath(arch, lms.LmsConfig(order=3), bk)
    lms.run_canceller(datapath, bk.ingest([0.5] * 10), bk.ingest([0.25] * 10))
    assert workloads.schedule_problems(datapath.stats, arch, 3, 10) == []
    assert workloads.schedule_problems(datapath.stats, arch, 3, 11)  # the check can fail


def test_compare_pass_passes_the_gate(workloads, tmp_path, monkeypatch):
    # a short record through the compare workload, its artifacts captured as
    # the benchmark captures them
    wl = workloads.WORKLOADS["compare30k_soft"]
    inputs = workloads.make_inputs(wl, wl.default_seed, 6.0, tmp_path)
    arts, execute = [], pipeline.execute

    def capturing_execute(*args, **kwargs):
        arts.append(execute(*args, **kwargs))
        return arts[-1]

    monkeypatch.setattr(pipeline, "execute", capturing_execute)
    outcome = workloads.run_entry(wl, inputs)
    problems, digests = workloads.gate(wl, inputs, outcome, arts)
    assert problems == []
    assert set(digests) == {"peaks", "errors"}


def test_counted_pass_feeds_every_fpu_micro_corpus(tracing, fpu_micro):
    # the benchmark's --trace 1 path on a short soft record: an op-counting
    # pass, then the micro-bench on the operands it sampled, which divides by
    # the size of each kind's corpus
    counter = tracing.OpCounter(256, 20191016)
    cfg = pipeline.RunConfig(synth=SynthSpec(duration_s=2.0, seed=1234))
    with tracing.Tracer(counter).installed():
        assert pipeline.run_pipeline(cfg).ok
    corpora = {method: reservoir.items for method, reservoir in counter.samples.items()}
    assert [m for m in tracing.OP_KINDS if not corpora[m]] == []
    _, problems = fpu_micro.run(corpora, True)
    assert problems == []
