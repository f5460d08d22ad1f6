"""Correctness checks on the program's outputs, made apart from the program.

The reference is a plain numpy forward pass over the model's weights; the
other checks follow from properties of the method (distinct in-range ids, at
least ceil(s*d) of them, a ranking ordered by logit, a training loss that is
finite and falls). Each check raises CheckFailed with the reason.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# Relative slack for comparing the program's logits with numpy's: both sum the
# same products in float64, only in another order.
ROUNDING = 1e-9


class CheckFailed(Exception):
    pass


def weights_digest(model) -> str:
    """SHA-256 over every layer's shape, weights and biases as little-endian float64."""
    h = hashlib.sha256()
    for layer in model.layers:
        h.update(np.asarray(layer.weights.shape, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(layer.biases, dtype="<f8").tobytes())
    return h.hexdigest()


def hidden_and_logits(model, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense numpy forward of a batch x (n, input_dim): returns the output
    layer's input and its logits (pre-softmax), through ReLU where present."""
    h = x
    for layer in model.layers[:-1]:
        h = h @ layer.weights.T + layer.biases
        if layer.activation == "relu":
            h = np.maximum(h, 0.0)
        elif layer.activation != "identity":
            raise CheckFailed(f"no reference for hidden activation {layer.activation!r}")
    out = model.layers[-1]
    return h, h @ out.weights.T + out.biases


def output_logits_at(model, hidden: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Output-layer logits of one example at the given neuron ids."""
    out = model.layers[-1]
    return out.weights[ids] @ hidden + out.biases[ids]


def _slack(values: np.ndarray) -> np.ndarray:
    return ROUNDING * (1.0 + np.abs(values))


def check_ids(ranking: np.ndarray, dim: int, min_count: int) -> None:
    if ranking.size < min_count:
        raise CheckFailed(f"{ranking.size} ids returned, fewer than {min_count}")
    if ranking.size and (ranking.min() < 0 or ranking.max() >= dim):
        raise CheckFailed(f"an id lies outside [0, {dim})")
    if np.unique(ranking).size != ranking.size:
        raise CheckFailed("returned ids are not distinct")


def check_ranking(logits_in_rank_order: np.ndarray) -> None:
    """The ranking must not increase in logit, to within rounding."""
    z = logits_in_rank_order
    rise = z[1:] - z[:-1]
    if np.any(rise > _slack(z[1:])):
        i = int(np.argmax(rise - _slack(z[1:])))
        raise CheckFailed(f"rank {i + 1} has logit {z[i + 1]!r} above rank {i}'s {z[i]!r}")


def check_top1(top1: int, logits: np.ndarray) -> None:
    """top1 must be an argmax of logits, to within rounding."""
    best = float(np.max(logits))
    if logits[top1] < best - ROUNDING * (1.0 + abs(best)):
        raise CheckFailed(f"top-1 {top1} has logit {logits[top1]!r}, the maximum is {best!r} "
                          f"at {int(np.argmax(logits))}")


def check_losses(losses) -> None:
    """Every batch loss finite; the last tenth of batches below the first."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size < 10:
        raise CheckFailed(f"only {losses.size} batch losses, need 10")
    if not np.all(np.isfinite(losses)):
        raise CheckFailed(f"non-finite loss at batch {int(np.argmin(np.isfinite(losses)))}")
    tenth = math.ceil(losses.size / 10)
    first, last = losses[:tenth].mean(), losses[-tenth:].mean()
    if not last < first:
        raise CheckFailed(f"loss did not fall: first tenth {first:.4f}, last tenth {last:.4f}")


def check_same_rankings(before, after) -> None:
    if len(before) != len(after):
        raise CheckFailed(f"{len(before)} rankings before, {len(after)} after")
    for i, (a, b) in enumerate(zip(before, after)):
        if not np.array_equal(a, b):
            raise CheckFailed(f"ranking {i} differs after the save/load round trip")


def check_digest(expected: str, model) -> None:
    got = weights_digest(model)
    if got != expected:
        raise CheckFailed(f"loaded weights digest {got[:16]} != prepared {expected[:16]}")
