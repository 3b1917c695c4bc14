"""Recording ingestion, annotation files, and the synthetic ECG generator.

Recordings are named channels of equal length plus a sampling frequency and
optional fetal/maternal R-peak annotations.  Two on-disk forms are accepted:

* ``csv`` — header row of channel names, one sample per row, decimal text.
* ``raw`` — a small text header (magic, fs, channel names, sample count)
  followed by little-endian interleaved int16 frames, rescaled to [-1, 1).

Annotation files carry one ``<index>,<fetal|maternal>`` entry per line.

The synthetic generator builds a thoracic/abdominal pair from jittered QRS
pulse trains plus baseline sinusoid, power-line tone, and white noise on the
abdominal side.  The maternal complex is a Gaussian-windowed biphasic pulse
(one up/down swing, like an adult RS deflection); the fetal complex is a
narrower single-apex wavelet whose spectrum stays inside the low-pass band
of the preprocessing chain.  Ground-truth apex indices are recorded as
annotations and everything is a pure function of the spec and its seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .fhr import PeakSet
from .rules import NON_NEGATIVE, NUMBER, POSITIVE, SEED, bpm, check_fields, declared

RAW_MAGIC = "FHRRAW1"
INT16_FULL_SCALE = 32768.0

# Generator morphology constants: QRS-like pulse widths and the maternal
# attenuation between thoracic and abdominal leads.  The width-to-sigma
# mappings keep the fetal spectrum below the 45 Hz low-pass corner while the
# maternal biphasic swing carries enough mid-band energy to drive the
# canceller's weights to convergence inside the budget.
MATERNAL_QRS_WIDTH_S = 0.040
FETAL_QRS_WIDTH_S = 0.025
MATERNAL_SIGMA_DIV = 4.0
FETAL_SIGMA_DIV = 3.0
ABDOMINAL_MATERNAL_RATIO = 0.5
BEAT_JITTER_FRACTION = 0.03
POWERLINE_HZ = 50.0
# Largest synthetic record, in samples (about 2.8 h at 1 kHz): the generator
# holds several float64 arrays of this length at once.
MAX_SYNTH_SAMPLES = 10_000_000


class RecordingError(ValueError):
    """Raised for malformed recording or annotation files."""


@dataclass
class Recording:
    channels: dict[str, np.ndarray]
    fs: float
    annotations: dict[str, PeakSet] | None = None
    provenance: str = ""

    def __post_init__(self):
        if not 0 < self.fs < math.inf:
            raise RecordingError(f"sampling frequency must be positive and finite, got {self.fs}")
        lengths = {name: len(ch) for name, ch in self.channels.items()}
        if len(set(lengths.values())) > 1:
            raise RecordingError(f"channel lengths differ: {lengths}")
        for name, ch in self.channels.items():
            # The soft datapath encodes every sample as a float32 word; one that
            # rounds to inf there is as unusable as a NaN or inf on any backend.
            with np.errstate(over="ignore"):
                bad = np.flatnonzero(~np.isfinite(np.asarray(ch, dtype=np.float32)))
            if len(bad):
                value = ch[bad[0]]
                finite = np.isfinite(value)
                kind = "a sample float32 cannot hold" if finite else "a non-finite sample"
                where = f"{self.provenance}: " if self.provenance else ""
                raise RecordingError(
                    f"{where}channel {name!r} has {kind} ({value}) at index {bad[0]}"
                )
        if self.annotations:
            n = self.n_samples
            for tag, peaks in self.annotations.items():
                bad = [p for p in peaks.locations if not 0 <= p < n]
                if bad:
                    raise RecordingError(
                        f"{tag} annotation indices out of range [0, {n}): {bad[:5]}"
                    )

    @property
    def n_samples(self) -> int:
        return len(next(iter(self.channels.values()))) if self.channels else 0

    def channel(self, name: str) -> np.ndarray:
        if name not in self.channels:
            raise RecordingError(
                f"unknown channel {name!r}; available: {sorted(self.channels)}"
            )
        return self.channels[name]


@dataclass
class SynthSpec:
    """Parameters of the synthetic thoracic/abdominal pair."""

    duration_s: float = declared(30.0, NUMBER, POSITIVE)
    fs: float = declared(1000.0, NUMBER, POSITIVE)
    maternal_bpm: float = declared(88.0, NUMBER, bpm(30.0))
    fetal_bpm: float = declared(115.0, NUMBER, bpm(50.0))
    fetal_amplitude_ratio: float = declared(0.2, NUMBER, NON_NEGATIVE)
    noise_rms: float = declared(0.005, NUMBER, NON_NEGATIVE)
    baseline_amp: float = declared(0.03, NUMBER, NON_NEGATIVE)
    baseline_freq_hz: float = declared(0.2, NUMBER, NON_NEGATIVE)
    powerline_amp: float = declared(0.005, NUMBER, NON_NEGATIVE)
    seed: int = declared(1234, SEED)

    def __post_init__(self):
        check_fields(self, ValueError)
        if not self.duration_s * self.fs <= MAX_SYNTH_SAMPLES:  # False for inf too
            raise ValueError(
                f"duration_s * fs must be at most {MAX_SYNTH_SAMPLES} samples, "
                f"got {self.duration_s * self.fs:g}"
            )
        n = int(round(self.duration_s * self.fs))
        pulse = 2 * max(half for _, half in _pulse_extents(self.fs)) + 1
        if pulse > n:
            raise ValueError(
                f"fs {self.fs:g} makes the QRS pulse {pulse} samples long, "
                f"longer than the {n}-sample record"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SynthSpec":
        return cls(**data)


def _pulse_extents(fs: float) -> tuple[tuple[float, int], tuple[float, int]]:
    """Gaussian sigma and half-length in samples of the maternal and fetal pulses."""
    maternal = MATERNAL_QRS_WIDTH_S * fs / MATERNAL_SIGMA_DIV
    fetal = FETAL_QRS_WIDTH_S * fs / FETAL_SIGMA_DIV
    return (maternal, int(np.ceil(2.5 * maternal))), (fetal, int(np.ceil(3.0 * fetal)))


def _biphasic_pulse(sigma: float, half: int) -> np.ndarray:
    """Gaussian-windowed up/down swing, unit positive apex (maternal QRS)."""
    t = np.arange(-half, half + 1, dtype=float)
    pulse = np.sin(2.0 * np.pi * t / (2.0 * sigma)) * np.exp(-0.5 * (t / sigma) ** 2)
    return pulse / np.max(np.abs(pulse))


def _wavelet_pulse(sigma: float, half: int) -> np.ndarray:
    """Single positive apex with small negative shoulders (fetal QRS)."""
    t = np.arange(-half, half + 1, dtype=float)
    return (1.0 - (t / sigma) ** 2) * np.exp(-0.5 * (t / sigma) ** 2)


def _beat_apexes(
    rng: np.random.Generator, n: int, bpm: float, fs: float, margin: int
) -> np.ndarray:
    """Jittered-grid beat apex indices: k*period + uniform jitter, clipped."""
    period = 60.0 / bpm * fs
    jitter = BEAT_JITTER_FRACTION * period
    k = np.arange(int(np.floor((n - 2 * margin) / period)) + 1)
    times = margin + k * period + rng.uniform(-jitter, jitter, size=len(k))
    apexes = np.round(times).astype(int)
    return apexes[(apexes >= margin) & (apexes < n - margin)]


def _pulse_train(n: int, apexes: np.ndarray, pulse: np.ndarray) -> np.ndarray:
    """Sum pulse copies so each pulse's own apex lands on the apex index."""
    out = np.zeros(n)
    offset = int(np.argmax(pulse))
    for apex in apexes:
        lo = apex - offset
        hi = lo + len(pulse)
        out[max(lo, 0) : min(hi, n)] += pulse[max(0, -lo) : len(pulse) - max(0, hi - n)]
    return out


def generate_synthetic(spec: SynthSpec) -> Recording:
    """Deterministically synthesize a thoracic/abdominal recording pair."""
    rng = np.random.default_rng(spec.seed)
    n = int(round(spec.duration_s * spec.fs))
    t = np.arange(n) / spec.fs

    maternal, fetal = _pulse_extents(spec.fs)
    maternal_pulse, fetal_pulse = _biphasic_pulse(*maternal), _wavelet_pulse(*fetal)
    margin = max(len(maternal_pulse), len(fetal_pulse))

    maternal_apexes = _beat_apexes(rng, n, spec.maternal_bpm, spec.fs, margin)
    fetal_apexes = _beat_apexes(rng, n, spec.fetal_bpm, spec.fs, margin)

    maternal_train = _pulse_train(n, maternal_apexes, maternal_pulse)
    fetal_amp = spec.fetal_amplitude_ratio * ABDOMINAL_MATERNAL_RATIO
    fetal_train = _pulse_train(n, fetal_apexes, fetal_pulse) * fetal_amp

    thoracic = maternal_train + rng.normal(0.0, 1.0, n) * spec.noise_rms
    abdominal = (
        ABDOMINAL_MATERNAL_RATIO * maternal_train
        + fetal_train
        + spec.baseline_amp * np.sin(2.0 * np.pi * spec.baseline_freq_hz * t)
        + spec.powerline_amp * np.sin(2.0 * np.pi * POWERLINE_HZ * t)
        + rng.normal(0.0, 1.0, n) * spec.noise_rms
    )

    return Recording(
        channels={"thoracic": thoracic, "abdominal": abdominal},
        fs=spec.fs,
        annotations={
            "fetal": PeakSet(list(map(int, fetal_apexes))),
            "maternal": PeakSet(list(map(int, maternal_apexes))),
        },
        provenance=f"synthetic seed={spec.seed}",
    )


def load_recording(
    path: str | Path,
    format: str = "csv",
    fs: float | None = None,
    channel_map: dict[str, str] | None = None,
) -> Recording:
    """Load a recording from disk.

    ``channel_map`` maps roles (e.g. ``thoracic``) to file channel names and
    is validated so missing columns fail here rather than mid-pipeline.  CSV
    samples are rescaled from int16 to [-1, 1) when the leading values are
    all integral and exceed the unit range.  A raw file's header sets its
    rate; an ``fs`` given with one must equal it.
    """
    path = Path(path)
    if format == "csv":
        rec = _load_csv(path, fs)
        sample = np.concatenate([ch[:256] for ch in rec.channels.values()])
        if len(sample) and np.all(sample == np.round(sample)) and np.max(np.abs(sample)) > 2.0:
            rec.channels = {k: v / INT16_FULL_SCALE for k, v in rec.channels.items()}
    elif format == "raw":
        rec = _load_raw(path)
        if fs is not None and fs != rec.fs:
            raise RecordingError(f"{path}: fs {fs:g} Hz given, but the header says {rec.fs:g} Hz")
    else:
        raise RecordingError(f"unknown recording format: {format!r}")

    if channel_map:
        for role, name in channel_map.items():
            if name not in rec.channels:
                raise RecordingError(
                    f"channel {name!r} for role {role!r} not in file; "
                    f"available: {sorted(rec.channels)}"
                )
    return rec


def _load_csv(path: Path, fs: float | None) -> Recording:
    if fs is None:
        raise RecordingError("csv recordings need an explicit sampling frequency")
    with open(path, "r", encoding="utf-8-sig") as fh:  # spreadsheets write a BOM
        header = fh.readline()
        if not header.strip():
            raise RecordingError(f"{path}: empty file")
        names = [c.strip() for c in header.strip().split(",")]
        if len(set(names)) != len(names):
            raise RecordingError(f"{path}: duplicate channel names in header")
        body = fh.tell()
        # One numpy parse of the body; any file it refuses or reads with another
        # column count is read again by the line scan, the exact reading.
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # header only: "no data"
                rows = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
        except ValueError:
            rows = None
        if rows is not None and rows.shape[1] == len(names):
            columns = np.ascontiguousarray(rows.T)
        else:
            fh.seek(body)
            columns = _scan_csv(path, fh, len(names))
    return Recording(channels=dict(zip(names, columns)), fs=fs, provenance=str(path))


def _scan_csv(path: Path, lines, width: int) -> list[np.ndarray]:
    """Parse CSV body lines one cell at a time, citing the line of the first bad one."""
    columns: list[list[float]] = [[] for _ in range(width)]
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        cells = line.strip().split(",")
        if len(cells) != width:
            raise RecordingError(
                f"{path}: line {lineno}: expected {width} cells, got {len(cells)}"
            )
        for col, cell in zip(columns, cells):
            try:
                col.append(float(cell))
            except ValueError:
                raise RecordingError(
                    f"{path}: line {lineno}: non-numeric cell {cell!r}"
                ) from None
    return [np.asarray(col, dtype=float) for col in columns]


def _load_raw(path: Path) -> Recording:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").strip().split()
        if not header or header[0] != RAW_MAGIC:
            raise RecordingError(f"{path}: bad raw header magic")
        fields = dict(item.split("=", 1) for item in header[1:])
        try:
            fs = float(fields["fs"])
            names = fields["channels"].split(";")
            n = int(fields["n"])
        except (KeyError, ValueError) as exc:
            raise RecordingError(f"{path}: malformed raw header: {exc}") from None
        payload = fh.read()
    expected = 2 * n * len(names)
    if len(payload) != expected:
        raise RecordingError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    frames = np.frombuffer(payload, dtype="<i2").reshape(n, len(names))
    channels = {
        name: frames[:, i].astype(float) / INT16_FULL_SCALE
        for i, name in enumerate(names)
    }
    return Recording(channels=channels, fs=fs, provenance=str(path))


def write_recording(rec: Recording, path: str | Path, format: str = "csv") -> None:
    path = Path(path)
    if format == "csv":
        names = list(rec.channels)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(names) + "\n")
            cols = [rec.channels[name] for name in names]
            for row in zip(*cols):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    elif format == "raw":
        names = list(rec.channels)
        n = rec.n_samples
        frames = np.stack(
            [np.clip(np.round(rec.channels[m] * INT16_FULL_SCALE), -32768, 32767) for m in names],
            axis=1,
        ).astype("<i2")
        with open(path, "wb") as fh:
            line = f"{RAW_MAGIC} fs={rec.fs} channels={';'.join(names)} n={n}\n"
            fh.write(line.encode("ascii"))
            fh.write(frames.tobytes())
    else:
        raise RecordingError(f"unknown recording format: {format!r}")


def load_annotations(path: str | Path, n_samples: int | None = None) -> dict[str, PeakSet]:
    """Read ``<index>,<fetal|maternal>`` lines into ordered, deduplicated sets.

    A file with no entries gives two empty sets; the run report names it.
    """
    path = Path(path)
    raw: dict[str, list[int]] = {"fetal": [], "maternal": []}
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2 or parts[1] not in raw:
                raise RecordingError(
                    f"{path}: line {lineno}: expected '<index>,<fetal|maternal>'"
                )
            try:
                idx = int(parts[0])
            except ValueError:
                raise RecordingError(
                    f"{path}: line {lineno}: non-integer index {parts[0]!r}"
                ) from None
            raw[parts[1]].append(idx)

    out: dict[str, PeakSet] = {}
    for tag, indices in raw.items():
        if any(b < a for a, b in zip(indices, indices[1:])):
            raise RecordingError(f"{path}: {tag} indices are not in ascending order")
        deduped = sorted(set(indices))
        if n_samples is not None:
            bad = [i for i in deduped if not 0 <= i < n_samples]
            if bad:
                raise RecordingError(
                    f"{path}: {tag} indices out of range [0, {n_samples}): {bad[:5]}"
                )
        out[tag] = PeakSet(deduped)
    return out


def write_annotations(path: str | Path, annotations: dict[str, PeakSet]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        entries = [
            (loc, tag)
            for tag, peaks in annotations.items()
            for loc in peaks.locations
        ]
        for loc, tag in sorted(entries):
            fh.write(f"{loc},{tag}\n")
