"""Segment SNR estimation from pseudo labels and threshold filtering."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .pipeline import PseudoLabelRecord

DEFAULT_SNR_THRESHOLD_DB = -10.0


def estimate_snr(s3, y) -> float:
    """``10*log10(||s3||^2 / ||s3 - y||^2)`` with infinite sentinels.

    A zero residual returns ``+inf``; an all-zero estimate returns
    ``-inf``.
    """
    s3 = np.asarray(s3, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if s3.shape != y.shape:
        raise ValueError(f"length mismatch: {s3.shape} vs {y.shape}")
    if not np.any(y):
        raise ValueError("reference signal has zero energy")
    num = float(np.sum(s3 * s3))
    den = float(np.sum((s3 - y) ** 2))
    if den == 0.0:
        return math.inf
    if num == 0.0:
        return -math.inf
    return 10.0 * math.log10(num / den)


def filter_pairs(records: list[PseudoLabelRecord],
                 threshold_db: float = DEFAULT_SNR_THRESHOLD_DB,
                 ) -> tuple[list[PseudoLabelRecord], list[PseudoLabelRecord]]:
    """Partition records into (kept, discarded) by SNR, boundary kept.

    Updates each record's ``kept`` flag in place; input order is
    preserved within both halves.
    """
    kept: list[PseudoLabelRecord] = []
    discarded: list[PseudoLabelRecord] = []
    for rec in records:
        if rec.snr_db is None:
            raise ValueError("record has no SNR estimate; run the pipeline first")
        rec.kept = rec.snr_db >= threshold_db
        (kept if rec.kept else discarded).append(rec)
    return kept, discarded
