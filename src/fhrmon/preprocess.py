"""Streaming ECG preprocessing: low-pass, power-line notch, baseline removal.

Three one-sample-in/one-sample-out stages, applied in this fixed order:

1. 4th-order low-pass (45 Hz Butterworth-derived recursion, published
   constants).  The recursion uses a single input term::

       out[k] = a*in[k] + b1*out[k-1] + b2*out[k-2] + b3*out[k-3] + b4*out[k-4]

2. Power-line notch biquad::

       out[k] = a*in[k] + b*in[k-1] + c*in[k-2] + d*out[k-1] + e*out[k-2]

3. Two-stage moving-average baseline estimator (two chained running means of
   window 200 each); the estimate is subtracted from the input sample.

All state starts at zero.  Each stage runs on a numeric backend (soft float32
or float64 reference), with coefficients quantized to float32 once so both
backends share the exact same constants.

Each stage's ``run`` consumes a whole stream of values and leaves its state
ready for the next call.  :meth:`PreprocessChain.process` is the one blocker:
it runs stage-major over blocks of ``STREAM_BLOCK`` samples, each stage's
feed-forward terms as bulk ops, then its recursion, then the next stage.  A
filter's recursion is a loop unrolled for its order, on the soft backend over
float32 scalars under round-toward-zero, each op then replayed in bulk from
the outputs; a running mean's is one accumulate of its total.  Each is one
:meth:`~fhrmon.numeric._Backend.checked` call per ``run``: a call with a
result outside the normal range, or whose rounding mode cannot be set,
reruns on the value ops.  Every stage holds its constants and state as
float32 values; the chain returns values.
"""

from __future__ import annotations

from array import array
from functools import partial

import numpy as np

from .numeric import RunningMean, quantized

# Low-pass recursion constants (output-feedback form, fs = 1 kHz design).
LOWPASS_INPUT_COEFFS = (0.00308,)
LOWPASS_OUTPUT_COEFFS = (3.28391, -4.08689, 2.28117, -0.48140)

# Notch biquad constants (fs = 1 kHz design, quality factor per the source
# design; see frequency_response for the realized characteristic).
NOTCH_INPUT_COEFFS = (0.99405, -1.31278, 0.99405)
NOTCH_OUTPUT_COEFFS = (1.31272, -0.98804)

BASELINE_WINDOW = 200  # samples per moving-average stage

# Samples per block of PreprocessChain.process, the one blocker: each stage's
# run, so each checked recursion, takes one block.  Numpy temporaries of this
# size (32 KiB) are reused block after block; whole-channel ones fragment the
# heap and raise peak RSS by about 1 MB.
STREAM_BLOCK = 4096


def _feedback2(acc, c, y, append):
    """Order-2 feedback of ``acc`` into ``append``; taps ``c``, ``y`` and result newest first."""
    (c1, c2), (y1, y2) = c, y
    for a in acc:
        y2, y1 = y1, a + c1 * y1 + c2 * y2
        append(y1)
    return y1, y2


def _feedback4(acc, c, y, append):
    """Order-4 output feedback, as :func:`_feedback2`."""
    (c1, c2, c3, c4), (y1, y2, y3, y4) = c, y
    for a in acc:
        y4, y3, y2, y1 = y3, y2, y1, a + c1 * y1 + c2 * y2 + c3 * y3 + c4 * y4
        append(y1)
    return y1, y2, y3, y4


# Unrolled per order: a loop over the taps costs about as much as the value ops.
_FEEDBACK = {2: _feedback2, 4: _feedback4}


class IirFilter:
    """Difference-equation filter with input and output delay lines.

    The delay lines hold float32 values, newest first, and start at zero.
    """

    def __init__(self, input_coeffs, output_coeffs, backend):
        if (order := len(output_coeffs)) not in _FEEDBACK:
            raise ValueError(f"feedback order must be one of {sorted(_FEEDBACK)}, got {order}")
        self.backend = backend
        self.input_coeffs = [quantized(c) for c in input_coeffs]
        self.output_coeffs = [quantized(c) for c in output_coeffs]
        self._n_in = len(self.input_coeffs) - 1
        self._n_out = len(self.output_coeffs)
        self.input_history = [0.0] * self._n_in
        self.output_history = [0.0] * self._n_out

    def run(self, values: np.ndarray) -> np.ndarray:
        """Filter a whole stream of values, returning the outputs.

        Each output is ``a*in[k]``, then each older input term, then each
        output feedback term, newest first, added in that order.
        """
        bk = self.backend
        n_in = self._n_in
        # Input terms, as bulk ops; x[k - j] for j > k comes from the history.
        acc = bk.bulk_mul(self.input_coeffs[0], values)
        if n_in:
            past = np.concatenate([self.input_history[::-1], values])
            for j, coeff in enumerate(self.input_coeffs[1:], 1):
                acc = bk.bulk_add(acc, bk.bulk_mul(coeff, past[n_in - j : len(past) - j]))
            self.input_history = past[: -n_in - 1 : -1].tolist()
        # Output terms, a recursion: the typed loop checked by its replay, else the value loop.
        history = self.output_history
        outputs, self.output_history = bk.checked(
            partial(self.typed_loop, history, acc), partial(self.value_loop, history, acc)
        )
        bk.ops.tally(len(acc), add=self._n_out, mul=self._n_out)
        return np.asarray(outputs, dtype=np.float64)

    def typed_loop(self, history: list, acc):
        """The unrolled loop on ``scalars``, outputs in ``block_dtype``, and its :meth:`replay`."""
        bk = self.backend
        out = array(np.dtype(bk.block_dtype).char)
        loop = _FEEDBACK[self._n_out]
        end = loop(bk.scalars(acc), bk.scalars(self.output_coeffs), bk.scalars(history), out.append)
        return (out, [float(y) for y in end]), self.replay(history, np.asarray(out), acc)

    def value_loop(self, history: list, acc):
        """The recursion on the value ops: the exact path."""
        vadd, vmul = self.backend.vadd, self.backend.vmul
        n = self._n_out
        past = array("d", history[::-1])  # then each output: past[-j] is output j back
        taps = list(zip(self.output_coeffs, range(-1, -n - 1, -1)))
        append = past.append
        for a in memoryview(acc):
            for coeff, j in taps:
                a = vadd(a, vmul(coeff, past[j]))
            append(a)
        return past[n:], past[: -n - 1 : -1].tolist()

    def replay(self, history: list, out, acc):
        n = self._n_out
        # past[n - j + k] is the output k - j: the history, oldest first, then out
        past = np.concatenate([history[::-1], out]).astype(np.float32)
        total = acc.astype(np.float32)
        for j, coeff in enumerate(map(np.float32, self.output_coeffs), 1):
            delayed = past[n - j : len(past) - j]
            product = coeff * delayed
            yield np.multiply, coeff, delayed
            yield np.add, total, product
            total = total + product

    def frequency_response(self, freq_hz: float, fs: float) -> complex:
        """Transfer function H(e^{jw}) evaluated from the quantized constants."""
        import cmath

        w = 2.0 * cmath.pi * freq_hz / fs
        z1 = cmath.exp(-1j * w)
        num = sum(c * z1**k for k, c in enumerate(self.input_coeffs))
        den = 1.0 - sum(c * z1 ** (k + 1) for k, c in enumerate(self.output_coeffs))
        return num / den


def make_lowpass(backend) -> IirFilter:
    return IirFilter(LOWPASS_INPUT_COEFFS, LOWPASS_OUTPUT_COEFFS, backend)


def make_notch(backend) -> IirFilter:
    return IirFilter(NOTCH_INPUT_COEFFS, NOTCH_OUTPUT_COEFFS, backend)


class MovingAverageBaseline:
    """Two chained running means; subtracts the second mean from the input.

    The first mean runs over the last ``BASELINE_WINDOW`` input samples, the
    second over as many first-stage means; both start from zero-filled rings.
    """

    def __init__(self, backend):
        self.backend = backend
        self.mean1 = RunningMean(backend, BASELINE_WINDOW)
        self.mean2 = RunningMean(backend, BASELINE_WINDOW)

    def run(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The baseline and the corrected sample for each of a stream of values."""
        baseline = self.mean2.run(self.mean1.run(values))
        return baseline, self.backend.bulk_sub(values, baseline)


class PreprocessChain:
    """Low-pass -> notch -> baseline removal, one sample out per sample in."""

    def __init__(self, backend):
        self.backend = backend
        self.lowpass = make_lowpass(backend)
        self.notch = make_notch(backend)
        self.baseline = MovingAverageBaseline(backend)

    @property
    def warmup_samples(self) -> int:
        """Leading samples to exclude from downstream statistics."""
        return 2 * BASELINE_WINDOW

    def process(self, samples) -> np.ndarray:
        """Run a whole channel through the chain, stage by stage per block.

        Takes raw samples and returns the corrected samples as values.
        """
        samples = np.asarray(samples, dtype=np.float64)
        out = np.empty(len(samples))
        for start in range(0, len(samples), STREAM_BLOCK):
            block = slice(start, start + STREAM_BLOCK)
            values = self.notch.run(self.lowpass.run(self.backend.ingest(samples[block])))
            out[block] = self.baseline.run(values)[1]
        return out
