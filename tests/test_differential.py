"""The whole soft pipeline against the fpu-only reference, on drawn records.

A drawn record is a short synthetic recording whose channels are cut into
segments, each scaled by its own power of two: ordinary magnitudes, ones
near 2^127 that saturate, and ones near or below 2^-126 that flush.  On every
record ``pipeline.execute`` must give the reference's error words, flag
totals, first flagged sample, meter counts, enhanced signal, threshold and
peaks, whichever path (typed loop, sum chain accumulate, block kernel or their
exact reruns) each block took.
"""

from __future__ import annotations

import numpy as np
import pytest
import reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fhrmon import fpu, pipeline
from fhrmon.io import Recording, SynthSpec, generate_synthetic
from fhrmon.lms import LmsConfig, LmsState, choose_scale_factor
from fhrmon.numeric import SoftF32Backend
from fhrmon.preprocess import IirFilter

MAX_SAMPLES = 1000
FLOAT32_MAX = fpu.decode(fpu.MAX_NORMAL_MAG)
CHANNELS = ("thoracic", "abdominal")


def drawn_record(spec) -> Recording:
    """The record of ``(n, seed, thoracic_segments, abdominal_segments)``.

    Each channel is the first ``n`` samples of a 1 s synthetic channel at
    ``seed``, cut into its ``(length, exponent)`` segments in turn, repeated
    to the end; a segment is scaled by 2^exponent and clipped to the float32
    range.
    """
    n, seed, *segments = spec
    synth = generate_synthetic(SynthSpec(duration_s=MAX_SAMPLES / 1000.0, seed=seed))
    channels = {}
    for name, cuts in zip(CHANNELS, segments):
        scale = np.concatenate([np.full(length, 2.0**exponent) for length, exponent in cuts])
        scale = np.resize(scale, n)
        channels[name] = np.clip(synth.channel(name)[:n] * scale, -FLOAT32_MAX, FLOAT32_MAX)
    return Recording(channels, fs=synth.fs)


EXPONENTS = st.one_of(st.integers(-4, 4), st.integers(118, 140), st.integers(-150, -100))
SEGMENTS = st.lists(st.tuples(st.integers(1, MAX_SAMPLES), EXPONENTS), min_size=1, max_size=4)
SPECS = st.tuples(
    st.integers(1, MAX_SAMPLES), st.integers(0, 2**16), SEGMENTS.map(tuple), SEGMENTS.map(tuple)
)

# Records that reach each exact path for certain (test_examples_reach_their_path).
EXAMPLES = {
    # a full-scale thoracic stretch: the low-pass feedback saturates
    "saturation": (1000, 1, ((300, 0), (300, 136), (400, 0)), ((1000, 0),)),
    # an abdominal channel near 2^-118: its products flush, no maximum rises above m1
    "flush": (1000, 7, ((1000, 0),), ((1000, -118),)),
    # an ordinary 0.7 s record: the canceller saturates from sample 57
    "rejected_lms_block": (695, 0, ((1, 0),), ((1, 0),)),
    # a thoracic channel near 2^-112: the recursions' own ops flush
    "rerun_recursion_block": (1000, 7, ((1000, -112),), ((1000, 0),)),
}


def reference_execute(rec: Recording, cmp_mode: str) -> dict:
    """The reference's pass over ``rec`` with the default configuration."""
    ar = reference.Arithmetic("soft", cmp_mode)
    thoracic, abdominal = (reference.preprocess(ar, rec.channel(name)) for name in CHANNELS)
    scales = [choose_scale_factor([ar.value(w) for w in ch[reference.WARMUP :]])
              for ch in (thoracic, abdominal)]
    cfg = LmsConfig(input_scale=scales[0], desired_scale=scales[1])
    errors, first_flag = reference.cancel(reference.Lms(ar, cfg), thoracic, abdominal)
    conv = pipeline.effective_convergence_index(None, rec.n_samples)
    detection = reference.detect(ar, errors[conv:], rec.fs)
    warnings = []
    if first_flag is not None:
        warnings.append(f"arithmetic saturation/flush first raised at sample {first_flag}")
    if not detection["maxima"]:
        warnings.append("degenerate detection threshold (no maxima above m1)")
    return dict(detection, errors=errors, warnings=warnings, flags=ar.flags, ops=ar.ops)


@settings(max_examples=16, deadline=None)
@given(spec=SPECS, cmp_mode=st.sampled_from(["corrected", "verbatim"]))
@example(spec=EXAMPLES["saturation"], cmp_mode="corrected")
@example(spec=EXAMPLES["flush"], cmp_mode="verbatim")
@example(spec=EXAMPLES["rejected_lms_block"], cmp_mode="verbatim")
@example(spec=EXAMPLES["rerun_recursion_block"], cmp_mode="corrected")
def test_soft_execute_matches_reference(spec, cmp_mode):
    rec = drawn_record(spec)
    # execute runs on the drawn recording and never opens input_path
    cfg = pipeline.RunConfig(input_path="drawn", cmp_mode=cmp_mode)
    art = pipeline.execute(cfg, "parallel", rec)
    want = reference_execute(rec, cmp_mode)
    detection = art.detection
    assert art.errors == want["errors"]
    assert art.backend.flags == want["flags"]
    assert art.warnings == want["warnings"]  # first_flag, and whether any maximum rose above m1
    assert art.backend.ops == want["ops"]
    assert detection["sdm"] == want["sdm"]
    assert fpu.encode(detection["m1"]) == want["m1"]
    assert fpu.encode(detection["th"]) == want["th"]
    assert detection["maxima"].locations == want["maxima"]
    assert detection["peaks"].locations == want["peaks"]


@pytest.mark.parametrize("name", list(EXAMPLES))
def test_examples_reach_their_path(name, monkeypatch):
    calls = []
    # the running means' exact path is the sum chain's, on the backend
    exact_paths = ((IirFilter, "value_loop"), (SoftF32Backend, "_vadd_chain"), (LmsState, "update"))
    for owner, attr in exact_paths:

        def counted(*args, _owner=owner, _original=getattr(owner, attr)):
            calls.append(_owner)
            return _original(*args)

        monkeypatch.setattr(owner, attr, counted)
    rec = drawn_record(EXAMPLES[name])
    flags = pipeline.execute(pipeline.RunConfig(input_path="drawn"), "parallel", rec).backend.flags
    reached = {
        "saturation": flags.overflow,
        "flush": flags.underflow,
        "rejected_lms_block": LmsState in calls,
        "rerun_recursion_block": IirFilter in calls or SoftF32Backend in calls,
    }
    assert reached[name]
