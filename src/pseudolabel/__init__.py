"""Aligned pseudo-label generation for far-field speech enhancement training.

Turns paired close-talk / far-field recordings into time- and
level-aligned, SNR-filtered signal-level training targets, and provides
the loss and mask-target math needed to train enhancement models on the
resulting pairs.
"""

from .audio_io import (
    AudioClip,
    ManifestError,
    SegmentRecord,
    WavFormatError,
    parse_segments,
    read_wav,
    write_wav,
)
from .dsp import (
    Spectrogram,
    StftConfig,
    istft,
    make_window,
    stft,
)
from .level_align import (
    FilterSet,
    MflfConfig,
    apply_mflf,
    fcp_weights,
    level_align,
    solve_mflf,
    stack_frames,
)
from .losses import McaReport, iam_target, mca_grad, mca_loss
from .pipeline import (
    PipelineConfig,
    PseudoLabelRecord,
    estimate_snr,
    filter_pairs,
    read_results,
    run_tls,
    write_results,
)
from .synth import SynthScenario, gen_noise, gen_rir, simulate_corpus, speech_like, synth_pair
from .time_align import AlignmentResult, apply_shift, gcc_phat

__version__ = "0.1.0"

__all__ = [
    "AlignmentResult",
    "AudioClip",
    "FilterSet",
    "ManifestError",
    "McaReport",
    "MflfConfig",
    "PipelineConfig",
    "PseudoLabelRecord",
    "SegmentRecord",
    "Spectrogram",
    "StftConfig",
    "SynthScenario",
    "WavFormatError",
    "apply_mflf",
    "apply_shift",
    "estimate_snr",
    "fcp_weights",
    "filter_pairs",
    "gcc_phat",
    "gen_noise",
    "gen_rir",
    "iam_target",
    "istft",
    "level_align",
    "make_window",
    "mca_grad",
    "mca_loss",
    "parse_segments",
    "read_results",
    "read_wav",
    "run_tls",
    "simulate_corpus",
    "solve_mflf",
    "speech_like",
    "stack_frames",
    "stft",
    "synth_pair",
    "write_results",
    "write_wav",
]
