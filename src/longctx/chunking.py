"""Parallel context windows for a single input.

``encoder.encode_many`` implements the ``pcw`` strategy for many inputs at
once: each input is cut by ``positions.plan_chunks`` into original-context
chunks, the chunks of all inputs are encoded unextended in shared batches, and
an input's embedding is the renormalized mean of its chunk embeddings (a
single-chunk input matches the plain encoder bit for bit).
"""

from __future__ import annotations

import numpy as np

from .encoder import Model, encode_many
from .positions import ExtensionSpec, Strategy


def pcw_encode(model: Model, token_ids: np.ndarray) -> np.ndarray:
    """PCW embedding of one input of any length, in the model's window; see ``encode_many``."""
    l_orig = model.config.original_context
    spec = ExtensionSpec(Strategy.PCW, l_orig, max(l_orig, np.size(token_ids)))
    return encode_many(model, [token_ids], spec)[0]
