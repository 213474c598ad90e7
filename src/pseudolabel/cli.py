"""Command line front-end.

Subcommands: ``run`` (batch pipeline) and ``simulate`` (synthetic corpus).
``run`` also accepts a ``key=value`` config file; explicit flags override
file values. Mask targets are library calls (``iam_target``), not a command.

Exit codes: 0 success; 1 a fault in an input file (missing or unreadable), a
``run`` whose every segment failed, or a pool worker that died; 2 a fault in a
flag or the config.
"""

from __future__ import annotations

import argparse
import inspect
import re
import sys
from collections import Counter
from pathlib import Path

from .audio_io import ManifestError, parse_segments
from .dsp import WINDOW_KINDS, StftConfig
from .level_align import MflfConfig
from .pipeline import PipelineConfig, run_tls, write_results
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

_CONFIG_TYPES = {"manifest": str} | {key: type(getattr(*field)) for key, field in _RUN_KEYS.items()}


class _BadInput(Exception):
    """A fault that exits 1: an unreadable input file, every segment failed, a dead worker."""


def parse_config_file(path) -> dict:
    try:
        lines = Path(path).read_bytes().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    values: dict = {}
    set_on: dict[str, int] = {}  # key -> the line that set it
    for line_no, raw in enumerate(lines, start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{line_no}: not UTF-8 text") from exc
        # "#" opens a comment at a line's start or after whitespace, never inside a value
        line = re.split(r"(?:^|\s)#", text, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_TYPES:
            raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
        if (first := set_on.setdefault(key, line_no)) != line_no:  # one file is one config
            raise ValueError(f"{path}:{line_no}: {key} is already set on line {first}")
        try:
            values[key] = _CONFIG_TYPES[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: bad value for {key}: {exc}") from exc
    return values


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
    run.set_defaults(func=_cmd_run)
    run.add_argument("--manifest", help="input JSONL segment manifest")
    run.add_argument("--config", help="key=value config file; flags override it")
    for key in _RUN_KEYS:  # typed like the default of the config field each sets
        run.add_argument("--" + key.replace("_", "-"), dest=key, type=_CONFIG_TYPES[key],
                         help=_RUN_HELP.get(key))

    sim = sub.add_parser("simulate", help="write a synthetic corpus with ground truth")
    sim.set_defaults(func=_cmd_simulate)
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
    try:
        records = run_tls(manifest, pipe_cfg)
    except RuntimeError as exc:  # only a dead worker is one line; the rest keep a traceback
        if not str(exc).startswith("a pool worker died "):
            raise
        raise _BadInput(exc) from exc
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    # The prefix tells the exit code: "<command>: " for 1, "pseudolabel <command>: " for 2.
    try:
        return args.func(args)
    except (_BadInput, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"pseudolabel {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
