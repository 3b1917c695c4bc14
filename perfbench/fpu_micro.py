"""FPU micro-bench on operand pairs sampled from a real pipeline pass.

The corpus comes from ``OpCounter``'s reservoirs: per backend method, a fixed
seeded sample of the operands (and results) one counted pass executed.  Each
kind is timed through the bare ``fpu_*`` function and through the soft
backend method that the stages call, and every result is checked against
``fpu.py``'s own output for the same pair.
"""

from __future__ import annotations

import statistics
import time
from itertools import repeat

from fhrmon import fpu
from fhrmon.fpu import CmpCode
from fhrmon.numeric import SoftF32Backend

REPEATS = 15

_SWAPPED = {CmpCode.GREATER: CmpCode.LESS, CmpCode.LESS: CmpCode.GREATER, CmpCode.EQUAL: CmpCode.EQUAL}


def _as_words(samples, soft: bool):
    """(a, b, stream result) triples as words; float64 operands are quantized."""
    if soft:
        return samples
    return [(fpu.encode(a), fpu.encode(b), None) for a, b, _ in samples]


def _verbatim_expected(a: int, b: int, corrected: CmpCode) -> CmpCode:
    # The verbatim comparator orders two negative operands by magnitude,
    # i.e. the reverse of numeric order; every other pair agrees.
    return _SWAPPED[corrected] if a >> 31 and b >> 31 else corrected


def run(samples: dict, soft: bool) -> tuple[dict, list[str]]:
    """Time each kind on the corpus; return (metrics in ns, problems)."""
    flags = fpu.FpuFlags()
    backend = SoftF32Backend()
    corpus = {method: _as_words(items, soft) for method, items in samples.items()}
    cmp_pairs = corpus["gt"] + corpus["lt"]

    def operands(pairs):
        return [a for a, _, _ in pairs], [b for _, b, _ in pairs]

    # name -> (callable, operand lists, extra constant argument or None)
    cases = {}
    for kind, bare in (("add", fpu.fpu_add), ("sub", fpu.fpu_sub), ("mul", fpu.fpu_mul)):
        a, b = operands(corpus[kind])
        cases[kind] = (bare, a, b, flags)
        cases[f"soft.{kind}"] = (getattr(backend, kind), a, b, None)
    a, b = operands(cmp_pairs)
    cases["cmp"] = (fpu.fpu_cmp, a, b, "corrected")
    cases["cmp_verbatim"] = (fpu.fpu_cmp, a, b, "verbatim")
    cases["soft.gt"] = (backend.gt, a, b, None)

    times = {name: [] for name in cases}
    results = {}
    for _ in range(REPEATS):  # interleaved, so drift hits every case alike
        for name, (fn, a, b, extra) in cases.items():
            args = (a, b) if extra is None else (a, b, repeat(extra))
            t0 = time.perf_counter()
            results[name] = list(map(fn, *args))
            times[name].append((time.perf_counter() - t0) / len(a))
    ns = {name: statistics.median(t) * 1e9 for name, t in times.items()}

    problems = []
    for kind in ("add", "sub", "mul"):
        oracle = results[kind]
        if results[f"soft.{kind}"] != oracle:
            problems.append(f"soft backend {kind} differs from fpu_{kind} on the corpus")
        if soft and oracle != [r for _, _, r in corpus[kind]]:
            problems.append(f"fpu_{kind} differs from the pipeline's own {kind} results")
    corrected = results["cmp"]
    if results["soft.gt"] != [c is CmpCode.GREATER for c in corrected]:
        problems.append("soft backend gt differs from fpu_cmp on the corpus")
    if soft:
        stream = [r for _, _, r in corpus["gt"]] + [r for _, _, r in corpus["lt"]]
        want = [CmpCode.GREATER] * len(corpus["gt"]) + [CmpCode.LESS] * len(corpus["lt"])
        if [(c is w) for c, w in zip(corrected, want)] != stream:
            problems.append("fpu_cmp differs from the pipeline's own comparisons")
    if results["cmp_verbatim"] != [_verbatim_expected(x, y, c) for x, y, c in zip(a, b, corrected)]:
        problems.append("verbatim fpu_cmp breaks its ordering of negative pairs")

    dispatch = [ns[f"soft.{k}"] - ns[k] for k in ("add", "sub", "mul")] + [ns["soft.gt"] - ns["cmp"]]
    metrics = {f"fpu.{k}_ns": ns[k] for k in ("add", "sub", "mul", "cmp", "cmp_verbatim")}
    metrics["numeric.dispatch_ns"] = statistics.mean(dispatch)
    return metrics, problems
