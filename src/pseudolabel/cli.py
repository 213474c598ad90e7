"""Command line front-end.

Subcommands: ``run`` (batch pipeline), ``simulate`` (synthetic corpus),
``iam`` (mask target generation, saved as ``.npy``). ``run`` also accepts
a ``key=value`` config file; explicit flags override file values.

Exit codes: 0 success; 1 a fault in an input file (missing, unreadable, or
two files that cannot be compared), or a ``run`` whose every segment failed;
2 a fault in a flag or the config.
"""

from __future__ import annotations

import argparse
import inspect
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .audio_io import ManifestError, parse_segments
from .dsp import WINDOW_KINDS, StftConfig, stft
from .level_align import MflfConfig
from .losses import _check_clip_max, iam_target
from .pipeline import PipelineConfig, _write_whole, read_pair, run_tls, write_results
from .synth import simulate_corpus

# Public ``run`` key -> the config field it sets. The dataclasses own every
# type and default; the config-file types and the flags are derived here.
_RUN_KEYS = {
    "out": (PipelineConfig, "output_dir"),
    "workers": (PipelineConfig, "worker_count"),
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
    "window": "window kind: " + ", ".join(WINDOW_KINDS),
}


def _field_default(key: str):
    cls, name = _RUN_KEYS[key]
    return getattr(cls, name)


_CONFIG_TYPES = {"manifest": str} | {key: type(_field_default(key)) for key in _RUN_KEYS}


class _BadInput(Exception):
    """A fault in a command's input files: unreadable, or impossible to compare (exit 1)."""


def parse_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    values: dict = {}
    for line_no, raw in enumerate(lines, start=1):
        # "#" opens a comment at a line's start or after whitespace, never inside a value
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_TYPES:
            raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_TYPES[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: bad value for {key}: {exc}") from exc
    return values


def _add_field_flag(parser, key: str, **kwargs) -> None:
    """Add ``--key`` typed like the default of the config field it sets."""
    parser.add_argument("--" + key.replace("_", "-"), dest=key, type=_CONFIG_TYPES[key], **kwargs)


def _defaults(func) -> dict:
    """``func``'s parameter defaults; a flag that feeds a parameter defaults to it."""
    return {name: p.default for name, p in inspect.signature(func).parameters.items()}


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

    iam = sub.add_parser("iam", help="ideal amplitude mask target from clean + mixture WAVs")
    iam.add_argument("clean")
    iam.add_argument("mixture")
    iam.add_argument("-o", "--out", required=True, help="output .npy file")
    iam.add_argument("--clip-max", type=float, default=_defaults(iam_target)["clip_max"])
    for key in ("n_fft", "hop", "window"):
        _add_field_flag(iam, key, default=_field_default(key), help=_RUN_HELP.get(key))

    return parser


def _cmd_run(args) -> int:
    values = parse_config_file(args.config) if args.config else {}
    values.update((key, getattr(args, key)) for key in _CONFIG_TYPES
                  if getattr(args, key) is not None)
    manifest_path = values.get("manifest")
    if not manifest_path:
        raise ValueError("--manifest is required (flag or config file)")
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
        raise _BadInput(f"bad manifest: {exc}") from exc
    except OSError as exc:
        raise _BadInput(f"cannot read manifest: {exc}") from exc
    records = run_tls(manifest, pipe_cfg)
    results_path = Path(pipe_cfg.output_dir) / "results.jsonl"
    write_results(records, results_path)
    kept = sum(1 for r in records if r.kept)
    failed = sum(1 for r in records if r.status != "ok")
    discarded = len(records) - kept - failed
    print(f"{len(records)} segments: {kept} kept, {discarded} discarded, {failed} failed "
          f"-> {results_path}")
    if records and failed == len(records):
        status, count = Counter(r.status for r in records).most_common(1)[0]
        raise _BadInput(f"every segment failed; most common ({count} of {failed}): "
                        f"{status.removeprefix('error: ')}")
    return 0


def _cmd_simulate(args) -> int:
    manifest_path, truth_path = simulate_corpus(
        args.out, count=args.count, seed=args.seed, sample_rate=args.sample_rate,
        duration_range=(args.min_duration_s, args.max_duration_s),
        delay_range=(_defaults(simulate_corpus)["delay_range"][0], args.max_delay),
        max_decay_ms=args.max_decay_ms,
        snr_range_db=(args.snr_min_db, args.snr_max_db),
    )
    print(f"wrote {args.count} segments: {manifest_path} (truth: {truth_path})")
    return 0


def _cmd_iam(args) -> int:
    _check_clip_max(args.clip_max)  # flag faults, so checked before either read
    cfg = StftConfig(n_fft=args.n_fft, hop=args.hop, window_kind=args.window)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            clean, mixture, _ = read_pair(args.clean, args.mixture)
            mask = iam_target(np.abs(stft(clean, cfg).data), np.abs(stft(mixture, cfg).data),
                              clip_max=args.clip_max)
    except (ValueError, OSError, FloatingPointError) as exc:  # a fault in an input file
        raise _BadInput(exc) from exc
    # Through a file object, so np.save adds no ".npy".
    with _write_whole(args.out) as part, open(part, "wb") as fh:
        np.save(fh, mask)
    print(f"wrote {mask.shape[0]}x{mask.shape[1]} mask to {args.out}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "simulate": _cmd_simulate,
    "iam": _cmd_iam,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    # The prefix tells the exit code: "<command>: " for 1, "pseudolabel <command>: " for 2.
    try:
        return _COMMANDS[args.command](args)
    except (_BadInput, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"pseudolabel {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
