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
"""

from __future__ import annotations

from .numeric import RunningMean, quantized

# Low-pass recursion constants (output-feedback form, fs = 1 kHz design).
LOWPASS_INPUT_COEFFS = (0.00308,)
LOWPASS_OUTPUT_COEFFS = (3.28391, -4.08689, 2.28117, -0.48140)

# Notch biquad constants (fs = 1 kHz design, quality factor per the source
# design; see frequency_response for the realized characteristic).
NOTCH_INPUT_COEFFS = (0.99405, -1.31278, 0.99405)
NOTCH_OUTPUT_COEFFS = (1.31272, -0.98804)

BASELINE_WINDOW = 200  # samples per moving-average stage


class IirFilter:
    """Difference-equation filter with input and output delay lines."""

    def __init__(self, input_coeffs, output_coeffs, backend):
        self.backend = backend
        self.input_coeffs = [backend.encode(quantized(c)) for c in input_coeffs]
        self.output_coeffs = [backend.encode(quantized(c)) for c in output_coeffs]
        self._n_in = len(self.input_coeffs) - 1
        self._n_out = len(self.output_coeffs)
        self.reset()

    def reset(self) -> None:
        z = self.backend.zero
        self.input_history = [z] * self._n_in
        self.output_history = [z] * self._n_out

    def step(self, sample):
        bk = self.backend
        add, mul = bk.add, bk.mul
        acc = mul(self.input_coeffs[0], sample)
        for coeff, past in zip(self.input_coeffs[1:], self.input_history):
            acc = add(acc, mul(coeff, past))
        for coeff, past in zip(self.output_coeffs, self.output_history):
            acc = add(acc, mul(coeff, past))
        if self._n_in:
            self.input_history = [sample] + self.input_history[:-1]
        self.output_history = [acc] + self.output_history[:-1]
        return acc

    def frequency_response(self, freq_hz: float, fs: float) -> complex:
        """Transfer function H(e^{jw}) evaluated from the quantized constants."""
        import cmath

        bk = self.backend
        w = 2.0 * cmath.pi * freq_hz / fs
        z1 = cmath.exp(-1j * w)
        num = sum(bk.decode(c) * z1**k for k, c in enumerate(self.input_coeffs))
        den = 1.0 - sum(
            bk.decode(c) * z1 ** (k + 1) for k, c in enumerate(self.output_coeffs)
        )
        return num / den


def make_lowpass(backend) -> IirFilter:
    return IirFilter(LOWPASS_INPUT_COEFFS, LOWPASS_OUTPUT_COEFFS, backend)


def make_notch(backend) -> IirFilter:
    return IirFilter(NOTCH_INPUT_COEFFS, NOTCH_OUTPUT_COEFFS, backend)


class MovingAverageBaseline:
    """Two chained running means; subtracts the second mean from the input.

    The first mean runs over the last ``n1`` input samples, the second over
    the last ``n2`` first-stage means; both start from zero-filled rings.
    """

    def __init__(self, backend, n1: int = BASELINE_WINDOW, n2: int = BASELINE_WINDOW):
        self.backend = backend
        self.n1 = n1
        self.n2 = n2
        self.mean1 = RunningMean(backend, n1)
        self.mean2 = RunningMean(backend, n2)

    def step(self, sample):
        """Return ``(baseline, corrected)`` for one input sample."""
        baseline = self.mean2.step(self.mean1.step(sample))
        return baseline, self.backend.sub(sample, baseline)


class PreprocessChain:
    """Low-pass -> notch -> baseline removal, one sample per step."""

    def __init__(self, backend, n1: int = BASELINE_WINDOW, n2: int = BASELINE_WINDOW):
        self.backend = backend
        self.lowpass = make_lowpass(backend)
        self.notch = make_notch(backend)
        self.baseline = MovingAverageBaseline(backend, n1, n2)

    @property
    def warmup_samples(self) -> int:
        """Leading samples to exclude from downstream statistics."""
        return self.baseline.n1 + self.baseline.n2

    def step(self, sample):
        smoothed = self.notch.step(self.lowpass.step(sample))
        _, corrected = self.baseline.step(smoothed)
        return corrected

    def process(self, samples) -> list:
        """Run a whole channel through the chain (backend-encoded values)."""
        bk = self.backend
        encode = bk.encode
        step = self.step
        return [step(encode(float(x))) for x in samples]
