"""Shared fixtures and the acceptance-summary reporter."""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import repeat

import numpy as np
import pytest

from fhrmon import pipeline
from fhrmon.fpu import FpuFlags, fpu_add, fpu_mul, fpu_sub
from fhrmon.io import SynthSpec
from fhrmon.pipeline import RunConfig


@pytest.fixture(scope="session")
def default_synth_spec() -> SynthSpec:
    return SynthSpec()


@pytest.fixture(scope="session")
def default_config(default_synth_spec) -> RunConfig:
    return RunConfig(synth=default_synth_spec, arch="parallel", backend="soft")


@pytest.fixture(scope="session")
def soft_artifacts(default_config):
    """One full soft-datapath pass over the default synthetic recording."""
    return pipeline.execute(default_config, "parallel")


@pytest.fixture(scope="session")
def ref_artifacts(default_config):
    """The same pass on the double-precision reference backend."""
    cfg = default_config.replaced(backend="float64")
    return pipeline.execute(cfg, "parallel")


@dataclass(frozen=True)
class MillionPairs:
    """Criterion 1's seeded word pairs and the bit-level unit's results on them."""

    a: np.ndarray  # uint32 words, normal operands
    b: np.ndarray
    words: dict  # kind ("add", "sub", "mul") -> uint32 result words of fpu_<kind>(a, b)
    flags: dict  # kind -> FpuFlags raised over all pairs
    elapsed: float  # seconds taken by the 3 x 10^6 fpu calls


@pytest.fixture(scope="session")
def million_pairs() -> MillionPairs:
    """``fpu_add``/``fpu_sub``/``fpu_mul`` over 10^6 seeded pairs, computed once."""
    from test_fpu import random_normal_words

    n = 1_000_000
    rng = np.random.default_rng(20240601)
    a, b = random_normal_words(rng, n), random_normal_words(rng, n)
    a_list, b_list = a.tolist(), b.tolist()
    words, flags = {}, {}
    t0 = time.perf_counter()
    for name, oracle in (("add", fpu_add), ("sub", fpu_sub), ("mul", fpu_mul)):
        flags[name] = FpuFlags()
        words[name] = list(map(oracle, a_list, b_list, repeat(flags[name])))
    elapsed = time.perf_counter() - t0
    words = {name: np.array(w, dtype=np.uint32) for name, w in words.items()}
    for shared in (a, b, *words.values()):
        shared.flags.writeable = False
    return MillionPairs(a, b, words, flags, elapsed)


class OnceEach(dict):
    """Results by input key; ``cache(key, compute)`` calls ``compute`` on the first use only."""

    def __call__(self, key, compute):
        if key not in self:
            self[key] = compute()
        return self[key]


@pytest.fixture(scope="module")
def reference_runs() -> OnceEach:
    """Each reference result of a test module, computed once for every test it checks."""
    return OnceEach()


def decoded(backend, words) -> np.ndarray:
    return np.array([backend.decode(w) for w in words])


# ---- acceptance criteria summary -------------------------------------------

_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


def record_acceptance(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    _ACCEPTANCE_RESULTS.append((name, f"{status}{' - ' + detail if detail else ''}"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, status in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{name}: {status}")
