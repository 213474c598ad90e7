"""Command line front-end.

Subcommands: ``run`` (batch pipeline), ``simulate`` (synthetic corpus),
``snr`` (segment SNR of two WAVs), ``align`` (offset diagnostics),
``mca`` (loss report on two grid dumps), ``iam`` (mask target
generation). ``run`` also accepts a ``key=value`` config file; explicit
flags override file values.

Exit codes: 0 success, 1 batch-level failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

import numpy as np

from . import gridio
from .audio_io import AudioClip, ManifestError, read_wav, parse_segments
from .dsp import WINDOW_KINDS, StftConfig, stft
from .level_align import MflfConfig
from .losses import iam_target, mca_loss
from .pipeline import PipelineConfig, run_tls, write_results
from .snr_filter import estimate_snr
from .synth import simulate_corpus
from .time_align import gcc_phat

# Public ``run`` key -> the config field it sets. The dataclasses own every
# type and default; the config-file types and the flags are derived here.
_RUN_KEYS = {
    "out": (PipelineConfig, "output_dir"),
    "workers": (PipelineConfig, "worker_count"),
    "sample_rate": (StftConfig, "sample_rate"),
    "n_fft": (StftConfig, "n_fft"),
    "hop": (StftConfig, "hop"),
    "window": (StftConfig, "window_kind"),
    "taps": (MflfConfig, "L"),
    "xi": (MflfConfig, "xi"),
    "diag_load": (MflfConfig, "diag_load"),
    "max_lag_s": (PipelineConfig, "max_lag_s"),
    "snr_threshold_db": (PipelineConfig, "snr_threshold_db"),
}
_RUN_HELP = {
    "out": "output directory (results.jsonl + kept WAVs)",
    "workers": "parallel worker processes",
    "taps": "filter taps per frequency bin",
    "xi": "weight floor coefficient",
}


def _field_default(key: str):
    cls, name = _RUN_KEYS[key]
    return getattr(cls, name)


_CONFIG_TYPES = {"manifest": str} | {key: type(_field_default(key)) for key in _RUN_KEYS}


class ConfigError(ValueError):
    pass


class _BadPair(Exception):
    """Two WAVs given to one subcommand cannot be compared, such as for
    differing sample rates or lengths (exit 1)."""


def parse_config_file(path) -> dict:
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_TYPES:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_TYPES[key](value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{line_no}: bad value for {key}: {exc}") from exc
    return values


def _add_field_flag(parser, key: str, **kwargs) -> None:
    """Add ``--key`` typed like the default of the config field it sets."""
    parser.add_argument("--" + key.replace("_", "-"), dest=key, type=_CONFIG_TYPES[key],
                        choices=WINDOW_KINDS if key == "window" else None, **kwargs)


def _defaults(func) -> dict:
    """``func``'s parameter defaults; a flag that feeds a parameter defaults to it."""
    return {name: p.default for name, p in inspect.signature(func).parameters.items()}


def _read_pair(path_a, path_b) -> tuple[AudioClip, AudioClip]:
    """The two WAVs of ``snr``, ``align`` or ``iam``, whose rates must agree."""
    a, b = read_wav(path_a), read_wav(path_b)
    if a.sample_rate != b.sample_rate:
        raise _BadPair("sample rates differ")
    return a, b


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudolabel",
        description="Generate time- and level-aligned, SNR-filtered pseudo labels "
                    "from paired close-talk and far-field recordings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="process a segment manifest end to end")
    run.add_argument("--manifest", help="input JSONL segment manifest")
    run.add_argument("--config", help="key=value config file; flags override it")
    for key in _RUN_KEYS:
        _add_field_flag(run, key, help=_RUN_HELP.get(key))

    sim = sub.add_parser("simulate", help="write a synthetic corpus with ground truth")
    sim.add_argument("--out", required=True)
    sim.add_argument("--count", type=int, default=50)
    # Every other default is simulate_corpus's own; a range gives a low and a high flag.
    d = _defaults(simulate_corpus)
    sim_defaults = {
        "seed": d["seed"], "sample_rate": d["sample_rate"],
        "min_duration_s": d["duration_range"][0], "max_duration_s": d["duration_range"][1],
        "snr_min_db": d["snr_range_db"][0], "snr_max_db": d["snr_range_db"][1],
        "max_delay": d["delay_range"][1], "max_decay_ms": d["max_decay_ms"],
    }
    for key, default in sim_defaults.items():
        sim.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default),
                         default=default)

    snr = sub.add_parser("snr", help="estimated SNR of an estimate against a reference WAV")
    snr.add_argument("estimate")
    snr.add_argument("reference")

    align = sub.add_parser("align", help="time-offset diagnostics for two WAVs")
    align.add_argument("close")
    align.add_argument("reference")
    _add_field_flag(align, "max_lag_s", default=_field_default("max_lag_s"))

    mca = sub.add_parser("mca", help="loss report for two magnitude grid dumps")
    mca.add_argument("target")
    mca.add_argument("estimate")
    mca.add_argument("--alpha", type=float, default=_defaults(mca_loss)["alpha"])

    iam = sub.add_parser("iam", help="ideal amplitude mask target from clean + mixture WAVs")
    iam.add_argument("clean")
    iam.add_argument("mixture")
    iam.add_argument("-o", "--out", required=True, help="output grid file")
    iam.add_argument("--clip-max", type=float, default=_defaults(iam_target)["clip_max"])
    for key in ("n_fft", "hop", "window"):
        _add_field_flag(iam, key, default=_field_default(key))

    return parser


def _cmd_run(args) -> int:
    values = parse_config_file(args.config) if args.config else {}
    values.update((key, getattr(args, key)) for key in _CONFIG_TYPES
                  if getattr(args, key) is not None)
    manifest_path, out_dir = values.get("manifest"), values.get("out")
    if not manifest_path or not out_dir:
        print("run: --manifest and --out are required (flag or config file)", file=sys.stderr)
        return 2
    # Only the keys set above reach the constructors; the dataclasses supply
    # every other default.
    fields = {StftConfig: {}, MflfConfig: {}, PipelineConfig: {}}
    for key, (cls, name) in _RUN_KEYS.items():
        if key in values:
            fields[cls][name] = values[key]
    pipe_cfg = PipelineConfig(stft=StftConfig(**fields[StftConfig]),
                              mflf=MflfConfig(**fields[MflfConfig]), **fields[PipelineConfig])
    try:
        manifest = parse_segments(manifest_path)
    except ManifestError as exc:
        print(f"run: bad manifest: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"run: cannot read manifest: {exc}", file=sys.stderr)
        return 1
    records = run_tls(manifest, pipe_cfg)
    results_path = Path(out_dir) / "results.jsonl"
    write_results(records, results_path)
    kept = sum(1 for r in records if r.kept)
    failed = sum(1 for r in records if r.status != "ok")
    discarded = len(records) - kept - failed
    print(f"{len(records)} segments: {kept} kept, {discarded} discarded, {failed} failed "
          f"-> {results_path}")
    return 0


def _cmd_simulate(args) -> int:
    manifest_path, truth_path = simulate_corpus(
        args.out, count=args.count, seed=args.seed, sample_rate=args.sample_rate,
        duration_range=(args.min_duration_s, args.max_duration_s),
        delay_range=(0, args.max_delay),
        max_decay_ms=args.max_decay_ms,
        snr_range_db=(args.snr_min_db, args.snr_max_db),
    )
    print(f"wrote {args.count} segments: {manifest_path} (truth: {truth_path})")
    return 0


def _cmd_snr(args) -> int:
    estimate, reference = _read_pair(args.estimate, args.reference)
    try:
        snr_db = estimate_snr(estimate.channels[0], reference.channels[0])
    except ValueError as exc:
        raise _BadPair(exc) from exc
    print(f"{snr_db:.6g}")
    return 0


def _cmd_align(args) -> int:
    PipelineConfig(max_lag_s=args.max_lag_s)  # run's rule for max_lag_s, before either read
    close, reference = _read_pair(args.close, args.reference)
    max_lag = int(round(args.max_lag_s * close.sample_rate))
    result = gcc_phat(close.channels[0], reference.channels[0], max_lag=max_lag, refine=True)
    offset_s = result.offset_samples / close.sample_rate
    refined = "" if result.refined_offset is None else f" refined_offset={result.refined_offset:.3f}"
    print(f"offset_samples={result.offset_samples} offset_s={offset_s:.6f} "
          f"peak_value={result.peak_value:.6g} peak_ratio={result.peak_ratio:.6g}{refined}")
    return 0


def _cmd_mca(args) -> int:
    target = gridio.load_grid(args.target)
    estimate = gridio.load_grid(args.estimate)
    report = mca_loss(target, estimate, alpha=args.alpha)
    print(f"mse={report.mse:.12g} cossim={report.cossim_loss:.12g} "
          f"mca={report.mca:.12g} alpha={report.alpha:g}")
    return 0


def _cmd_iam(args) -> int:
    clean, mixture = _read_pair(args.clean, args.mixture)
    cfg = StftConfig(n_fft=args.n_fft, hop=args.hop, window_kind=args.window,
                     sample_rate=clean.sample_rate)
    mag_clean = np.abs(stft(clean.channels[0], cfg).data)
    mag_mix = np.abs(stft(mixture.channels[0], cfg).data)
    n = min(len(mag_clean), len(mag_mix))
    mask = iam_target(mag_clean[:n], mag_mix[:n], clip_max=args.clip_max)
    gridio.save_grid(args.out, mask)
    print(f"wrote {mask.shape[0]}x{mask.shape[1]} mask to {args.out}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "simulate": _cmd_simulate,
    "snr": _cmd_snr,
    "align": _cmd_align,
    "mca": _cmd_mca,
    "iam": _cmd_iam,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _BadPair as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"pseudolabel {args.command}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"pseudolabel {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
