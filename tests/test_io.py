"""Recording/annotation file handling and synthetic generator tests."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from fhrmon import fhr
from fhrmon import io as fhrmon_io
from fhrmon.fhr import PeakSet
from fhrmon.io import (
    Recording,
    RecordingError,
    SynthSpec,
    generate_synthetic,
    load_annotations,
    load_recording,
    write_annotations,
    write_recording,
)
from fhrmon.numeric import make_backend


class TestRecordingType:
    def test_ragged_channels_rejected(self):
        with pytest.raises(RecordingError):
            Recording({"a": np.zeros(5), "b": np.zeros(6)}, fs=100.0)

    def test_nonpositive_fs_rejected(self):
        with pytest.raises(RecordingError):
            Recording({"a": np.zeros(5)}, fs=0.0)

    def test_annotation_range_checked(self):
        with pytest.raises(RecordingError):
            Recording(
                {"a": np.zeros(5)},
                fs=100.0,
                annotations={"fetal": PeakSet([10])},
            )

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_sample_rejected(self, value):
        b = np.zeros(5)
        b[[2, 4]] = value
        with pytest.raises(RecordingError, match=r"'b' has a non-finite sample .* index 2$"):
            Recording({"a": np.zeros(5), "b": b}, fs=10.0)

    @pytest.mark.parametrize("value", [3.4028236e38, -3.4028236e38, 1e39])
    def test_sample_float32_cannot_hold_rejected(self, value):
        # round to nearest: 3.4028236e38 overflows float32, 3.4028235e38 does not
        b = np.zeros(5)
        b[[3, 4]] = value
        with pytest.raises(RecordingError, match=r"'b' has a sample float32 cannot .* index 3$"):
            Recording({"a": np.zeros(5), "b": b}, fs=10.0)
        b[[3, 4]] = np.sign(value) * 3.4028235e38
        Recording({"a": np.zeros(5), "b": b}, fs=10.0)

    def test_unknown_channel_error_lists_available(self):
        rec = Recording({"a": np.zeros(5), "b": np.zeros(5)}, fs=10.0)
        with pytest.raises(RecordingError, match="available"):
            rec.channel("c")


class TestCsv:
    def test_small_roundtrip(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("thoracic,abdominal\n1.0,0.5\n-0.25,0.75\n0.0,-1.0\n")
        rec = load_recording(path, fs=100.0)
        assert rec.n_samples == 3
        assert list(rec.channels["thoracic"]) == [1.0, -0.25, 0.0]

    def test_non_numeric_cell_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["a,b"] + ["0.1,0.2"] * 5 + ["0.1,oops"] + ["0.3,0.4"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(RecordingError, match="line 7"):
            load_recording(path, fs=100.0)

    def test_ragged_row_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.1,0.2\n0.1\n")
        with pytest.raises(RecordingError, match="line 3"):
            load_recording(path, fs=100.0)

    def test_missing_fs_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("a\n1.0\n")
        with pytest.raises(RecordingError):
            load_recording(path, fs=None)

    def test_channel_map_validation(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(RecordingError, match="thoracic"):
            load_recording(path, fs=10.0, channel_map={"thoracic": "zz"})

    def test_eight_channel_quarter_rate_export(self, tmp_path):
        # multi-channel 250 Hz export shape: 8 columns, 2500 rows
        rng = np.random.default_rng(4)
        names = [f"ch{i}" for i in range(1, 9)]
        data = rng.normal(size=(2500, 8))
        path = tmp_path / "export.csv"
        with open(path, "w") as fh:
            fh.write(",".join(names) + "\n")
            for row in data:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        rec = load_recording(path, fs=250.0)
        assert rec.n_samples == 2500
        assert rec.fs == 250.0
        assert sorted(rec.channels) == sorted(names)

    def test_integer_samples_rescaled(self, tmp_path):
        path = tmp_path / "adc.csv"
        path.write_text("a\n16384\n-32768\n0\n")
        rec = load_recording(path, fs=10.0)
        assert list(rec.channels["a"]) == [0.5, -1.0, 0.0]

    def test_write_load_identity(self, tmp_path):
        rng = np.random.default_rng(9)
        rec = Recording(
            {"x": rng.normal(size=50), "y": rng.normal(size=50)}, fs=500.0
        )
        path = tmp_path / "out.csv"
        write_recording(rec, path)
        back = load_recording(path, fs=500.0)
        for name in rec.channels:
            np.testing.assert_array_equal(back.channels[name], rec.channels[name])


# CSV files, each with the channels it loads as or the error it raises after
# "<path>: ", as the line scan alone reads it.
CSV_CASES = {
    "blank_lines": ("a,b\n0.5,1.5\n\n-2.5,4.5\n\n", {"a": [0.5, -2.5], "b": [1.5, 4.5]}),
    "whitespace_line": ("a,b\n0.5,1.5\n  \t\n-2.5,4.5\n", {"a": [0.5, -2.5], "b": [1.5, 4.5]}),
    "leading_spaces": ("a,b\n 0.5, 1.5\n\t-2.5 ,4.5\n", {"a": [0.5, -2.5], "b": [1.5, 4.5]}),
    "single_column": ("a\n1.5\n-2.5\n", {"a": [1.5, -2.5]}),
    "header_only": ("a,b\n", {"a": [], "b": []}),
    "underscore": ("a,b\n1_0.5,2.5\n", {"a": [10.5], "b": [2.5]}),
    "int16": ("a,b\n16384,-32768\n0,8192\n", {"a": [0.5, 0.0], "b": [-1.0, 0.25]}),
    "nan": ("a,b\n1.0,2.0\n3.0,nan\n", "channel 'b' has a non-finite sample (nan) at index 1"),
    "ragged_row": ("a,b\n1.0,2.0\n3.0\n", "line 3: expected 2 cells, got 1"),
    "wide_row": ("a,b\n1.0,2.0,3.0\n", "line 2: expected 2 cells, got 3"),
    "non_numeric": ("a,b\n1.0,2.0\n3.0,x\n", "line 3: non-numeric cell 'x'"),
    "empty_cell": ("a,b\n1.0,\n", "line 2: non-numeric cell ''"),
    "hash_cell": ("a,b\n1.0,2.0\n#3.0,4.0\n", "line 3: non-numeric cell '#3.0'"),
    "byte_order_mark": ("\ufeffa,b\n0.5,1.5\n-2.5,4.5\n", {"a": [0.5, -2.5], "b": [1.5, 4.5]}),
}


class TestCsvReaders:
    """The one-parse reader and the line scan it falls back to agree on every file."""

    @staticmethod
    def load(path, expected):
        if isinstance(expected, str):
            with pytest.raises(RecordingError) as err:
                load_recording(path, fs=10.0)
            assert str(err.value) == f"{path}: {expected}"
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = load_recording(path, fs=10.0)
        assert {k: v.tolist() for k, v in rec.channels.items()} == expected

    @pytest.mark.parametrize("text, expected", CSV_CASES.values(), ids=CSV_CASES.keys())
    def test_bulk_and_scan_agree(self, text, expected, tmp_path, monkeypatch):
        path = tmp_path / "rec.csv"
        path.write_text(text, encoding="utf-8")
        self.load(path, expected)

        def refuse(*args, **kwargs):
            raise ValueError("bulk parse refused")

        monkeypatch.setattr(np, "loadtxt", refuse)
        self.load(path, expected)

    def test_clean_file_is_parsed_in_bulk(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        rec = Recording({"x": rng.normal(size=300), "y": rng.normal(size=300)}, fs=100.0)
        path = tmp_path / "rec.csv"
        write_recording(rec, path)
        monkeypatch.setattr(fhrmon_io, "_scan_csv", None)  # any fallback would raise
        back = load_recording(path, fs=100.0)
        for name, channel in rec.channels.items():
            assert back.channels[name].tobytes() == channel.tobytes()


class TestRaw:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        rec = Recording(
            {"t": rng.uniform(-0.99, 0.99, 64), "a": rng.uniform(-0.99, 0.99, 64)},
            fs=1000.0,
        )
        path = tmp_path / "rec.bin"
        write_recording(rec, path, format="raw")
        back = load_recording(path, format="raw")
        assert back.fs == 1000.0
        assert back.n_samples == 64
        np.testing.assert_allclose(back.channels["t"], rec.channels["t"], atol=1 / 32768)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE\n\x00\x01")
        with pytest.raises(RecordingError, match="magic"):
            load_recording(path, format="raw")

    def test_short_payload(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"FHRRAW1 fs=100 channels=a n=10\n\x00\x01")
        with pytest.raises(RecordingError, match="payload"):
            load_recording(path, format="raw")


class TestAnnotations:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ann.txt"
        ann = {"fetal": PeakSet([100, 529, 958]), "maternal": PeakSet([50, 700])}
        write_annotations(path, ann)
        back = load_annotations(path)
        assert back["fetal"].locations == [100, 529, 958]
        assert back["maternal"].locations == [50, 700]

    def test_empty_file_gives_empty_sets_without_warning(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = load_annotations(path)
        assert len(out["fetal"]) == 0 and len(out["maternal"]) == 0

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("100,fetal\n")
        with pytest.raises(RecordingError, match="out of range"):
            load_annotations(path, n_samples=50)

    def test_unordered_rejected(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("500,fetal\n100,fetal\n")
        with pytest.raises(RecordingError, match="ascending"):
            load_annotations(path)

    def test_duplicates_deduplicated(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("100,fetal\n100,fetal\n200,fetal\n")
        out = load_annotations(path)
        assert out["fetal"].locations == [100, 200]

    def test_bad_tag_rejected(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("100,uncle\n")
        with pytest.raises(RecordingError):
            load_annotations(path)


@pytest.mark.parametrize(
    "content, call, named",
    [
        (b"a\n0.5\n", lambda p: load_recording(p, format="wav"), "unknown recording format"),
        (None, lambda p: write_recording(Recording({"a": np.zeros(2)}, fs=1.0), p, format="wav"),
         "unknown recording format"),
        (b"", lambda p: load_recording(p, fs=1000.0), "empty file"),
        (b"a,b,a\n1,2,3\n", lambda p: load_recording(p, fs=1000.0), "duplicate channel names"),
        (b"FHRRAW1 fs=100 channels=a\n\x00\x01", lambda p: load_recording(p, format="raw"),
         "malformed raw header"),
        (b"100,fetal\nx1,maternal\n", load_annotations, "line 2: non-integer index 'x1'"),
    ],
    ids=["load_format", "write_format", "empty_csv", "duplicate_channel", "raw_without_n",
         "annotation_index"],
)
def test_bad_file_or_format_names_the_fault(content, call, named, tmp_path):
    path = tmp_path / "rec"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(RecordingError, match=named):
        call(path)


def test_annotation_comments_and_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "ann.txt"
    path.write_text("# fetal and maternal beats\n100,fetal\n\n50,maternal\n")
    out = load_annotations(path)
    assert out["fetal"].locations == [100] and out["maternal"].locations == [50]


class TestSyntheticGenerator:
    def test_determinism(self):
        spec = SynthSpec(duration_s=5.0, seed=99)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        for name in a.channels:
            np.testing.assert_array_equal(a.channels[name], b.channels[name])
        assert a.annotations["fetal"].locations == b.annotations["fetal"].locations

    def test_different_seeds_differ(self):
        a = generate_synthetic(SynthSpec(duration_s=5.0, seed=1))
        b = generate_synthetic(SynthSpec(duration_s=5.0, seed=2))
        assert not np.array_equal(a.channels["abdominal"], b.channels["abdominal"])

    def test_beat_count_tracks_rate(self):
        spec = SynthSpec(duration_s=60.0, fetal_bpm=115.0, seed=3)
        rec = generate_synthetic(spec)
        n_beats = len(rec.annotations["fetal"])
        assert abs(n_beats - 115) <= 1

    def test_noiseless_spec_is_pure_mixture(self):
        spec = SynthSpec(
            duration_s=10.0, noise_rms=0.0, baseline_amp=0.0, powerline_amp=0.0, seed=5
        )
        rec = generate_synthetic(spec)
        thor = rec.channels["thoracic"]
        abd = rec.channels["abdominal"]
        # thoracic is exactly the maternal train; abdominal adds only the
        # attenuated maternal plus the fetal train
        fetal_only = abd - 0.5 * thor
        m_ann = rec.annotations["maternal"].locations
        f_ann = rec.annotations["fetal"].locations
        # fetal apex indices coincide with fetal-train apexes exactly
        isolated = [
            l for l in f_ann if min(abs(l - m) for m in m_ann) > 80
        ]
        for loc in isolated[:20]:
            lo, hi = loc - 30, loc + 31
            assert abs(int(np.argmax(fetal_only[lo:hi])) + lo - loc) == 0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(fetal_bpm=400.0)
        with pytest.raises(ValueError):
            SynthSpec(noise_rms=-0.1)
        with pytest.raises(ValueError):
            SynthSpec(duration_s=0.0)

    @pytest.mark.parametrize("seed", [-1, 3.0, True, "7", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SynthSpec(seed=seed)

    def test_spec_dict_roundtrip(self):
        spec = SynthSpec(duration_s=12.0, seed=77, fetal_bpm=140.0)
        assert SynthSpec.from_dict(spec.to_dict()) == spec

    def test_annotation_alignment_through_enhancement(self):
        # noiseless generation: enhancement of the raw abdominal channel
        # places an sdm maximum at a constant causal-lag offset behind every
        # isolated fetal apex; beat-to-beat scatter stays within +/-5 samples
        spec = SynthSpec(
            duration_s=10.0, noise_rms=0.0, baseline_amp=0.0, powerline_amp=0.0, seed=11
        )
        rec = generate_synthetic(spec)
        bk = make_backend("float64")
        sdm, _ = fhr.enhance(bk, list(map(float, rec.channels["abdominal"])))
        sdm = np.asarray(sdm)
        lag = fhr.ENHANCE_WINDOW // 2  # the causal mean filter's nominal lag
        m_ann = rec.annotations["maternal"].locations
        offsets = []
        for loc in rec.annotations["fetal"].locations:
            if min(abs(loc - m) for m in m_ann) < 100:
                continue  # overlapped beats merge with the maternal response
            window = sdm[loc : loc + 2 * lag + 1]
            offsets.append(int(np.argmax(window)))
        assert len(offsets) >= 10
        median = float(np.median(offsets))
        assert 0 < median <= lag + 5
        assert all(abs(o - median) <= 5 for o in offsets)
