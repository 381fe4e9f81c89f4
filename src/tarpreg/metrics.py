"""Evaluation metrics: MSPE, interval coverage/width, classification scores.

Every argument is a finite vector, the first non-empty and the others of its
length (the array and unit rules of ``errors``).  Conventions stated once:
coverage counts the closed interval lower <= y <= upper; a predicted
probability exactly at the 0.5 threshold classifies as positive; calibration
bins are the ten intervals [0, 0.1), ..., [0.9, 1.0] and empty bins are
excluded from the mean.
"""
from __future__ import annotations

import numpy as np

from .errors import ParameterError, checked_array, checked_unit


def mspe(yhat, ytrue) -> float:
    yhat = checked_array("yhat", yhat, (None,), nonempty=True)
    ytrue = checked_array("ytrue", ytrue, yhat.shape)
    return float(np.mean((yhat - ytrue) ** 2))


def ecp_width(lower, upper, ytrue):
    """Empirical coverage of the closed intervals and their mean width."""
    lower = checked_array("lower", lower, (None,), nonempty=True)
    upper = checked_array("upper", upper, lower.shape)
    ytrue = checked_array("ytrue", ytrue, lower.shape)
    if (lower > upper).any():
        raise ParameterError("found lower > upper")
    ecp = float(np.mean((ytrue >= lower) & (ytrue <= upper)))
    return ecp, float(np.mean(upper - lower))


def misclass(probs, ytrue) -> float:
    """Misclassification rate with prob >= 0.5 classified as 1."""
    probs = checked_unit("probs", probs, None, nonempty=True)
    ytrue = checked_unit("ytrue", ytrue, probs.shape[0], binary=True)
    return float(np.mean((probs >= 0.5) != (ytrue == 1.0)))


def roc_auc(scores, ytrue) -> float:
    """Rank-statistic AUC: P(score+ > score-) + P(tie)/2."""
    scores = checked_array("scores", scores, (None,), nonempty=True)
    ytrue = checked_unit("ytrue", ytrue, scores.shape[0], binary=True)
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
    probs = checked_unit("probs", probs, None, nonempty=True)
    ytrue = checked_unit("ytrue", ytrue, probs.shape[0], binary=True)
    bins = np.minimum((probs * 10).astype(int), 9)
    sq = []
    for k in range(10):
        hit = bins == k
        if hit.any():
            sq.append((ytrue[hit].mean() - (k + 0.5) / 10.0) ** 2)
    return float(np.mean(sq))
