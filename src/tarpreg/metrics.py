"""Evaluation metrics: MSPE, interval coverage/width, classification scores.

Conventions stated once: coverage counts the closed interval
lower <= y <= upper; a predicted probability exactly at the 0.5 threshold
classifies as positive; calibration bins are the ten intervals
[0, 0.1), ..., [0.9, 1.0] and empty bins are excluded from the mean.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionError, ParameterError


def mspe(yhat, ytrue) -> float:
    yhat = np.asarray(yhat, dtype=np.float64)
    ytrue = np.asarray(ytrue, dtype=np.float64)
    if yhat.shape != ytrue.shape or yhat.size == 0:
        raise DimensionError("mspe needs equal-length non-empty vectors")
    return float(np.mean((yhat - ytrue) ** 2))


def ecp_width(lower, upper, ytrue):
    """Empirical coverage of the closed intervals and their mean width."""
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    ytrue = np.asarray(ytrue, dtype=np.float64)
    if not lower.shape == upper.shape == ytrue.shape:
        raise DimensionError("ecp_width needs equal-length vectors")
    if (lower > upper).any():
        raise ParameterError("found lower > upper")
    ecp = float(np.mean((ytrue >= lower) & (ytrue <= upper)))
    return ecp, float(np.mean(upper - lower))


def misclass(probs, ytrue) -> float:
    """Misclassification rate with prob >= 0.5 classified as 1."""
    probs = np.asarray(probs, dtype=np.float64)
    ytrue = np.asarray(ytrue, dtype=np.float64)
    if probs.shape != ytrue.shape:
        raise DimensionError("misclass needs equal-length vectors")
    if ((probs < 0) | (probs > 1)).any():
        raise ParameterError("probabilities must lie in [0, 1]")
    if not np.isin(ytrue, (0.0, 1.0)).all():
        raise ParameterError("ytrue must be binary")
    return float(np.mean((probs >= 0.5) != (ytrue == 1.0)))


def roc_auc(scores, ytrue) -> float:
    """Rank-statistic AUC: P(score+ > score-) + P(tie)/2."""
    scores = np.asarray(scores, dtype=np.float64)
    ytrue = np.asarray(ytrue, dtype=np.float64)
    if scores.shape != ytrue.shape:
        raise DimensionError("roc_auc needs equal-length vectors")
    if not np.isin(ytrue, (0.0, 1.0)).all():
        raise ParameterError("ytrue must be binary")
    pos = ytrue == 1.0
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise ParameterError("both classes must be present")
    neg = np.sort(scores[~pos])
    below = np.searchsorted(neg, scores[pos], "left")
    ties = np.searchsorted(neg, scores[pos], "right") - below
    u = below.sum() + ties.sum() / 2.0
    return float(u / (n_pos * n_neg))


def calibration_msd(probs, ytrue) -> float:
    """Mean over nonempty probability bins of (empirical positive rate - bin midpoint)^2."""
    probs = np.asarray(probs, dtype=np.float64)
    ytrue = np.asarray(ytrue, dtype=np.float64)
    if probs.size == 0:
        raise DimensionError("calibration_msd needs a non-empty input")
    if probs.shape != ytrue.shape:
        raise DimensionError("calibration_msd needs equal-length vectors")
    if ((probs < 0) | (probs > 1)).any():
        raise ParameterError("probabilities must lie in [0, 1]")
    if not np.isin(ytrue, (0.0, 1.0)).all():
        raise ParameterError("ytrue must be binary")
    bins = np.minimum((probs * 10).astype(int), 9)
    sq = []
    for k in range(10):
        hit = bins == k
        if hit.any():
            sq.append((ytrue[hit].mean() - (k + 0.5) / 10.0) ** 2)
    return float(np.mean(sq))
