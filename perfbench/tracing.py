"""Instrumentation applied to fhrmon from outside: spans, op counts, operand samples.

Every hook replaces a module or class attribute for the length of a ``with``
block, at the name the caller looks up (``pipeline.execute``,
``lms.run_canceller``, ``PreprocessChain.process`` ...), and puts the
original back afterwards.  The package itself is never edited.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import random
import time
from collections import defaultdict
from dataclasses import dataclass

from fhrmon import cli, fhr, lms, pipeline
from fhrmon.preprocess import PreprocessChain

# The three stages ops and flags are attributed to, keyed by their entry span.
STAGE_ENTRIES = {
    "PreprocessChain.process": "preprocess",
    "lms.run_canceller": "lms",
    "fhr.detect_peaks": "fhr",
}
OUTSIDE_STAGES = "other"

# Backend methods and the FPU operation kind each one issues.
OP_KINDS = {"add": "add", "sub": "sub", "mul": "mul", "gt": "cmp", "lt": "cmp"}


def _samples(args) -> int:
    # PreprocessChain.process(self, samples), run_canceller(datapath, x, d)
    return len(args[1])


def _canceller_arch(args) -> str:
    return type(args[0]).__name__.removesuffix("Datapath").lower()


# (owner, attribute, layer, samples-of-args, arch-of-args); the span is named
# "<owner>.<attribute>" after the name the caller looks up.
SPAN_TARGETS = (
    (cli, "run_pipeline", "pipeline", None, None),
    (pipeline, "load_input", "pipeline", None, None),
    (pipeline, "load_recording", "io", None, None),
    (pipeline, "load_annotations", "io", None, None),
    (pipeline, "execute", "pipeline", None, None),
    (PreprocessChain, "process", "preprocess", _samples, None),
    (lms, "run_canceller", "lms", _samples, _canceller_arch),
    (fhr, "detect_peaks", "fhr", None, None),
    (fhr, "enhance", "fhr", None, None),
    (fhr, "find_local_maxima", "fhr", None, None),
    (fhr, "select_fetal_peaks", "fhr", None, None),
    (pipeline, "build_report", "pipeline", None, None),
    (fhr, "compute_fhr", "fhr", None, None),
    (pipeline, "score_against_annotations", "pipeline", None, None),
    (fhr, "score_detection", "fhr", None, None),
    (pipeline, "write_traces", "write_traces", None, None),
)


def owner_name(owner) -> str:
    return getattr(owner, "__name__", "").rsplit(".", 1)[-1]


@contextlib.contextmanager
def patched(replacements):
    """Set ``owner.attr = value`` for each triple, restoring them on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    samples: int = 0
    arch: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans, and the FPU flags each stage raised, in memory.

    Every backend ``pipeline.make_backend`` builds while the tracer is
    installed is registered, so flag totals can be read at stage boundaries.
    An ``OpCounter`` passed in also gets to wrap each backend's operations.
    """

    def __init__(self, counter: "OpCounter | None" = None):
        self.spans: list[Span] = []
        self.pass_id = 0
        self.stage = OUTSIDE_STAGES
        self.stage_flags = defaultdict(lambda: [0, 0])  # stage -> [overflow, underflow]
        self.counter = counter
        self._stack: list[int] = []
        self._backends: list = []

    def _flag_totals(self) -> tuple[int, int]:
        return (
            sum(b.flags.overflow for b in self._backends),
            sum(b.flags.underflow for b in self._backends),
        )

    def wrap(self, name: str, layer: str, fn, samples=None, arch=None):
        tracer = self
        stage = STAGE_ENTRIES.get(name)

        def traced(*args, **kwargs):
            outer_stage = tracer.stage
            if stage:
                tracer.stage = stage
                flags_before = tracer._flag_totals()
            span = Span(
                name,
                layer,
                0.0,
                0.0,
                tracer._stack[-1] if tracer._stack else None,
                tracer.pass_id,
                samples(args) if samples else 0,
                arch(args) if arch else "",
            )
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if stage:
                    tracer.stage = outer_stage
                    raised = tracer.stage_flags[stage]
                    for i, (before, after) in enumerate(zip(flags_before, tracer._flag_totals())):
                        raised[i] += after - before

        return traced

    def installed(self):
        """Context that wraps every ``SPAN_TARGETS`` entry and ``make_backend``."""
        make_backend = pipeline.make_backend

        def registering_make_backend(*args, **kwargs):
            backend = make_backend(*args, **kwargs)
            self._backends.append(backend)
            if self.counter is not None:
                self.counter.instrument(backend, self)
            return backend

        replacements = [(pipeline, "make_backend", registering_make_backend)]
        for owner, attr, layer, samples, arch in SPAN_TARGETS:
            name = f"{owner_name(owner)}.{attr}"
            replacements.append(
                (owner, attr, self.wrap(name, layer, getattr(owner, attr), samples, arch))
            )
        return patched(replacements)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def to_records(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]


class Reservoir:
    """Fixed-size uniform sample of a stream of unknown length (Algorithm L).

    Between picks only a counter is compared, so offering an item is cheap.
    """

    def __init__(self, size: int, rng: random.Random):
        self.size = size
        self.rng = rng
        self.items: list = []
        self.seen = 0
        self._weight = 1.0
        self._next = size

    def _uniform(self) -> float:
        return 1.0 - self.rng.random()  # in (0, 1], safe for log

    def _advance(self) -> None:
        self._weight *= math.exp(math.log(self._uniform()) / self.size)
        if self._weight >= 1.0:
            self._next += 1
            return
        gap = math.floor(math.log(self._uniform()) / math.log(1.0 - self._weight))
        self._next += gap + 1

    def offer(self, item) -> None:
        self.seen += 1
        if self.seen <= self.size:
            self.items.append(item)
            if self.seen == self.size:
                self._advance()
        elif self.seen == self._next:
            self.items[self.rng.randrange(self.size)] = item
            self._advance()


class OpCounter:
    """Counts executed backend operations per stage and samples their operands."""

    def __init__(self, corpus_size: int, seed: int):
        self.ops = defaultdict(int)  # (stage, kind) -> executed ops
        self.samples = {
            method: Reservoir(corpus_size, random.Random(f"{seed}:{method}"))
            for method in OP_KINDS
        }

    def instrument(self, backend, tracer: Tracer) -> None:
        for method, kind in OP_KINDS.items():
            setattr(backend, method, self._counted(getattr(backend, method), kind, method, tracer))

    def _counted(self, fn, kind, method, tracer):
        ops = self.ops
        offer = self.samples[method].offer

        def op(a, b):
            result = fn(a, b)
            ops[tracer.stage, kind] += 1
            offer((a, b, result))
            return result

        return op
