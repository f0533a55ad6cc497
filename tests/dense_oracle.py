"""Test-side masked softmax shared by the dense oracles and reference checks."""

import numpy as np


def masked_softmax(scores, visible):
    """Row softmax over the visible cells only; every row has one."""
    e = np.where(visible, np.exp(scores - np.max(np.where(visible, scores, -np.inf), axis=1, keepdims=True)), 0.0)
    return e / e.sum(axis=1, keepdims=True)
