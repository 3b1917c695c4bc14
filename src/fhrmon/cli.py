"""Command-line interface.

Subcommands:

* ``run``      — full pipeline on a recording or synthetic spec, JSON report.
* ``compare``  — both canceller architectures on identical inputs, with a
  bit-exactness check and cycle/instance comparison.
* ``baseline`` — proposed two-mean detector vs a single-mean detector,
  metric rows side by side.
* ``synth``    — write a synthetic recording (CSV) plus its annotations.
* ``fpu``      — one arithmetic/compare operation on hex-encoded words.

Exit status is 0 only when every requested stage completed without failure.
All ``run`` flags can also arrive via ``--config FILE`` (JSON, same field
names); explicit flags override the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import fpu
from .io import (
    RecordingError,
    SynthSpec,
    generate_synthetic,
    write_annotations,
    write_recording,
)
from .pipeline import (
    VALID_ARCHES,
    VALID_BACKENDS,
    VALID_CMP_MODES,
    ConfigError,
    RunConfig,
    baseline_comparison,
    compare_architectures,
    run_pipeline,
)


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file mirroring these flags")
    parser.add_argument("--input", dest="input_path", help="recording file path")
    parser.add_argument(
        "--format", dest="input_format", choices=("csv", "raw"), default=None
    )
    parser.add_argument("--synth", dest="synth_path", help="synthetic spec JSON path")
    parser.add_argument("--thoracic", help="thoracic channel name")
    parser.add_argument("--abdominal", help="abdominal channel name")
    parser.add_argument("--fs", type=float, help="sampling frequency (Hz)")
    parser.add_argument("--order", type=int, help="adaptive filter order")
    parser.add_argument("--mu", type=float, help="adaptive step size")
    parser.add_argument("--arch", choices=VALID_ARCHES)
    parser.add_argument("--cmp-mode", dest="cmp_mode", choices=VALID_CMP_MODES)
    parser.add_argument("--backend", choices=VALID_BACKENDS)
    parser.add_argument("--clock-hz", dest="clock_hz", type=float)
    parser.add_argument("--annotations", dest="annotations_path")
    parser.add_argument("--out", dest="out_dir")
    parser.add_argument(
        "--trace",
        help="comma-separated stages to trace (preprocess,lms,fhr)",
    )
    parser.add_argument("--convergence-index", dest="convergence_index", type=int)


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON object, not {type(data).__name__}")
    return data


def _checked(build, data: dict):
    """``build(data)``, with an unknown field or out-of-range value as a ConfigError."""
    try:
        return build(data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _print_json(payload: dict, sort_keys: bool = True) -> None:
    """Print ``payload`` as strict JSON: a NaN or infinity raises, never prints."""
    print(json.dumps(payload, indent=2, sort_keys=sort_keys, allow_nan=False))


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config:
        data.update(_read_json(args.config))
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    data.update({k: v for k, v in vars(args).items() if k in fields and v is not None})
    if args.trace is not None:
        data["trace"] = [s.strip() for s in args.trace.split(",") if s.strip()]
    if args.synth_path:
        if args.input_path:
            raise ConfigError("--input and --synth name two recordings: give one")
        data["synth"] = _read_json(args.synth_path)
        data.pop("input_path", None)
    return _checked(RunConfig.from_dict, data)


def _cmd_run(args: argparse.Namespace) -> int:
    report = run_pipeline(_config_from_args(args))
    print(report.to_json(), end="")
    return 0 if report.ok else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.arch is not None:
        raise ConfigError(f"compare runs both architectures: --arch {args.arch} does not apply")
    cmp_result = compare_architectures(_config_from_args(args))
    payload = {
        "summary": cmp_result.summary(),
        "series": json.loads(cmp_result.series_report.to_json()),
        "parallel": json.loads(cmp_result.parallel_report.to_json()),
    }
    _print_json(payload)
    ok = cmp_result.series_report.ok and cmp_result.parallel_report.ok
    return 0 if ok else 1


def _cmd_baseline(args: argparse.Namespace) -> int:
    result = baseline_comparison(_config_from_args(args))
    _print_json(result)
    return 1 if result["failures"] else 0


def _cmd_synth(args: argparse.Namespace) -> int:
    data = _read_json(args.spec) if args.spec else {}
    if args.seed is not None:
        data["seed"] = args.seed
    spec = _checked(SynthSpec.from_dict, data)
    rec = generate_synthetic(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_recording(rec, out)
    ann_path = out.with_suffix(".ann")
    write_annotations(ann_path, rec.annotations)
    _print_json({
        "recording": str(out),
        "annotations": str(ann_path),
        "n_samples": rec.n_samples,
        "fs": rec.fs,
        "fetal_beats": len(rec.annotations["fetal"]),
        "maternal_beats": len(rec.annotations["maternal"]),
    }, sort_keys=False)
    return 0


def _cmd_fpu(args: argparse.Namespace) -> int:
    try:
        a = fpu.from_hex(args.a)
        b = fpu.from_hex(args.b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    flags = fpu.FpuFlags()
    code = fpu.FpuOpCode[args.op.upper()]
    result = fpu.fpu_op(code, a, b, flags, cmp_mode=args.cmp_mode)
    out = {"op": args.op, "a": fpu.to_hex(a), "b": fpu.to_hex(b), "result": fpu.to_hex(result)}
    if code is not fpu.FpuOpCode.CMP:
        out["value"] = fpu.decode(result)
        out["overflow"] = flags.overflow
        out["underflow"] = flags.underflow
    else:
        out["relation"] = fpu.CmpCode(result).name
    _print_json(out, sort_keys=False)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhrmon",
        description="Fetal heart-rate monitoring pipeline on a soft float32 datapath",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full pipeline")
    _add_run_arguments(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run and compare both architectures")
    _add_run_arguments(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_base = sub.add_parser("baseline", help="two-mean norm vs single-mean detector")
    _add_run_arguments(p_base)
    p_base.set_defaults(func=_cmd_baseline)

    p_synth = sub.add_parser("synth", help="write a synthetic recording + annotations")
    p_synth.add_argument("--spec", help="synthetic spec JSON (defaults used otherwise)")
    p_synth.add_argument("--seed", type=int, help="override the spec seed")
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.set_defaults(func=_cmd_synth)

    p_fpu = sub.add_parser("fpu", help="one float32 operation on hex words")
    p_fpu.add_argument("op", choices=("add", "sub", "mul", "cmp"))
    p_fpu.add_argument("a", help="8-hex-digit word")
    p_fpu.add_argument("b", help="8-hex-digit word")
    p_fpu.add_argument("--cmp-mode", dest="cmp_mode", choices=VALID_CMP_MODES, default="corrected")
    p_fpu.set_defaults(func=_cmd_fpu)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, RecordingError, OSError, fpu.OperandError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
