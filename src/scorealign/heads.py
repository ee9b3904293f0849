"""Training and inference of the calibration heads.

The regressor head predicts the normal-score statistics of an image's
(implicit) class directly from its feature tensor; the classifier head
predicts a class id that selects fitted per-class statistics instead.
Either way the anomaly map is then mean-max normalized with the chosen
statistics.

Every head trains with one recipe: GELU activations, SGD at LR with
MOMENTUM and WEIGHT_DECAY, and (regressor) smooth-L1 at threshold ALPHA.
Regression targets are each image's own `align.map_pair` under the head's
variant, z-normalized per training run so ALPHA is independent of the base
scorer's scale. Input features are standardized per channel
over the training set for the same reason (LR must not depend on the
feature scale), never in place: each batch of the raw [N, C, H, W] stack
is copied into one reused float64 buffer and standardized there, and
prediction applies the same elementwise formula to its one image. Both
sets of constants travel with the checkpoint.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import net
from .align import VARIANTS, map_pair, variant_scale
from .tensorio import check_fields, read_json, read_tensor, write_json, write_tensor

# head structure name -> (3x3 conv layers, linear layers)
STRUCTURES = {
    "1lin": (0, 1),
    "2lin": (0, 2),
    "3lin": (0, 3),
    "1conv+2lin": (1, 2),
    "2conv+2lin": (2, 2),
}


@dataclass
class HeadConfig:
    structure: str = "1conv+2lin"    # a STRUCTURES name
    hidden_dim: int = 256
    dropout_rate: float = 0.25
    target: str = "meanmax"          # a VARIANTS name (regressor only)

    def validate(self):
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}, "
                             f"expected one of {sorted(STRUCTURES)}")
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.target not in VARIANTS:
            raise ValueError(f"unknown target {self.target!r}")


@dataclass
class TrainConfig:
    batch_size: int = 16
    iterations: int = 5000
    seed: int = 0

    def validate(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


LR, MOMENTUM, WEIGHT_DECAY = 5e-2, 0.9, 1e-4  # the SGD of every head training
ALPHA = 0.1  # the regressor's smooth-L1 threshold, in normalized target space
# global gradient-norm clip; the fixed LR/MOMENTUM overshoots on
# low-dimensional inputs without it
GRAD_CLIP = 1.0
# fraction of final iterations whose parameters are averaged into the
# returned model; suppresses the constant-lr SGD noise floor
AVG_FRAC = 0.25
# every HOLDOUT_EVERY-th classifier training image (in sorted id order) is
# held out and the trained head's accuracy on them recorded
HOLDOUT_EVERY = 10


def _clip_gradients(params) -> None:
    total = math.sqrt(sum(float(np.sum(p.grad**2)) for p in params))
    if total > GRAD_CLIP:
        scale = GRAD_CLIP / total
        for p in params:
            p.grad *= scale


def build_head(cfg: HeadConfig, in_channels: int, out_dim: int, rng) -> net.Network:
    """Assemble the layer stack of the cfg.structure: its 3x3 convs
    (channel-preserving, each followed by GELU), global average
    pooling, then its linears with dropout before every linear; the last
    linear has out_dim outputs (2 for a regressor, one per class for a
    classifier).

    The first linear's dropout sits ahead of the pooling so the injected
    noise is spatial (random grid locations zeroed, mimicking local
    corruptions); channel dropout on the narrow pooled vector would
    destroy the class signature instead of perturbing it.
    """
    cfg.validate()
    n_conv, n_linear = STRUCTURES[cfg.structure]
    layers: list[net.Layer] = []
    for _ in range(n_conv):
        layers.append(net.Conv3x3(in_channels, in_channels, rng))
        layers.append(net.GELU())
    layers.append(net.Dropout(cfg.dropout_rate))
    layers.append(net.GlobalAvgPool())
    dim = in_channels
    for i in range(n_linear):
        last = i == n_linear - 1
        out = out_dim if last else cfg.hidden_dim
        if i > 0:
            layers.append(net.Dropout(cfg.dropout_rate))
        layers.append(net.Linear(dim, out, rng))
        if not last:
            layers.append(net.GELU())
        dim = out
    return net.Network(layers)


@dataclass
class HeadModel:
    """A trained head: head.json's keys in file order, each typed as its JSON value
    (tensorio.check_fields), and the network whose parameters are the param_*.adt files."""

    config: HeadConfig
    network: InitVar[net.Network]
    # the _NORM_ARRAYS, float64 arrays in memory and lists of floats in head.json:
    # affine de-normalization applied to regressor outputs (identity for classifier)
    target_offset: list[float]
    target_scale: list[float]
    # per-channel feature standardization fitted on the training set
    input_offset: list[float]
    input_scale: list[float]
    loss_trace: list[float]
    holdout_accuracy: Optional[float]
    # classifier output index -> class id; None exactly for a regressor
    class_labels: Optional[list[int]]

    def __post_init__(self, network):
        self.network = network


def standardize(x: np.ndarray, rows: Sequence[int]):
    """The per-channel (offset, scale) of the [N, C, H, W] stack x: the mean/std
    over all locations of the images x[rows], each cast to float64 and summed
    image by image in row order. x is not modified."""
    total = total_sq = None
    for row in rows:
        f = x[row].astype(np.float64)
        s, sq = f.sum(axis=(1, 2)), (f**2).sum(axis=(1, 2))
        total = s if total is None else total + s
        total_sq = sq if total_sq is None else total_sq + sq
    count = len(rows) * x.shape[2] * x.shape[3]
    mean = total / count
    scale = np.maximum(np.sqrt(np.maximum(total_sq / count - mean**2, 0.0)), 1e-8)
    return mean, scale


def _fit(
    x: np.ndarray,
    rows: np.ndarray,
    head_cfg: HeadConfig,
    train_cfg: TrainConfig,
    out_dim: int,
    batch_loss: Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]],
    **model_fields,
) -> HeadModel:
    """The SGD loop both heads share: batches x[rows[idx]] of the raw stack x,
    standardized by the norm fitted over rows into one reused buffer, batch_loss(output, idx)
    -> (mean loss, output gradient), clipped steps, the tail average as model."""
    train_cfg.validate()
    in_offset, in_scale = standardize(x, rows)
    rng = np.random.default_rng(np.random.SeedSequence([train_cfg.seed]))
    network = build_head(head_cfg, x.shape[1], out_dim, rng)
    optim = net.SGD(LR, MOMENTUM, WEIGHT_DECAY)

    model = HeadModel(config=head_cfg, network=network, input_offset=in_offset,
                      input_scale=in_scale, loss_trace=[], holdout_accuracy=None, **model_fields)
    params = network.parameters()
    iterations = train_cfg.iterations
    tail_start = iterations - int(AVG_FRAC * iterations)
    tail_sums, tail_count = None, 0  # running parameter sums from tail_start on
    buf = np.empty((train_cfg.batch_size, *x.shape[1:]))
    for it in range(iterations):
        idx = rng.integers(0, len(rows), size=train_cfg.batch_size)
        out = _forward(model, _gather(x, rows[idx], buf), "train", rng)
        loss, grad = batch_loss(out, idx)
        if not np.isfinite(loss):
            raise net.NumericalError(f"non-finite loss at iteration {it}")
        network.backward(grad / train_cfg.batch_size)
        _clip_gradients(params)
        optim.step(params)
        if it >= tail_start:
            if tail_sums is None:
                tail_sums = [p.value.copy() for p in params]
            else:
                for total, p in zip(tail_sums, params):
                    total += p.value
            tail_count += 1
        model.loss_trace.append(loss)
    for total, p in zip(tail_sums or [], params):
        p.value[...] = total / tail_count
    return model


def train_regressor(
    x: np.ndarray,
    score_maps: Iterable[np.ndarray],
    head_cfg: HeadConfig,
    train_cfg: TrainConfig,
) -> HeadModel:
    """Train the statistics regressor on normal training images.

    x is the [N, C, H, W] stack of their raw features, score_maps their maps
    row for row, consumed once: each map is reduced to its target as it comes.
    Each batch is standardized by the `standardize` norm of all of x; x is not
    modified.

    Targets are each map's `map_pair` under head_cfg.target; dropout is
    active throughout training as the pseudo-anomaly noise source.
    """
    targets = np.array([map_pair(m, head_cfg.target) for m in score_maps])
    t_offset = targets.mean(axis=0)
    t_scale = np.maximum(targets.std(axis=0), 1e-8)
    targets_n = (targets - t_offset) / t_scale

    def batch_loss(out, idx):
        loss_elems, grad = net.smooth_l1(out, targets_n[idx], ALPHA)
        return float(loss_elems.sum(axis=1).mean()), grad

    return _fit(x, np.arange(len(x)), head_cfg, train_cfg, 2, batch_loss,
                target_offset=t_offset, target_scale=t_scale, class_labels=None)


def train_classifier(
    x: np.ndarray,
    class_ids: Sequence[int],
    head_cfg: HeadConfig,
    train_cfg: TrainConfig,
) -> HeadModel:
    """Train the k-way class head with cross-entropy.

    x is the [N, C, H, W] stack of the raw features, class_ids their class
    ids row for row. Every HOLDOUT_EVERY-th row is held out and its accuracy,
    scored batch_size rows at a time, recorded on the model; batches are
    standardized by the norm of the other rows, and x is not modified.
    """
    classes, labels = np.unique(class_ids, return_inverse=True)
    if len(classes) < 2:
        raise ValueError("classification needs at least 2 classes")

    # at least 2 rows (2 classes), so both the holdout and the rest are non-empty
    held = np.arange(len(x)) % HOLDOUT_EVERY == 0
    rows = np.flatnonzero(~held)

    def batch_loss(out, idx):
        loss_elems, grad = net.cross_entropy(out, labels[rows[idx]])
        return float(loss_elems.mean()), grad

    k = len(classes)
    model = _fit(x, rows, head_cfg, train_cfg, k, batch_loss, target_offset=np.zeros(k),
                 target_scale=np.ones(k), class_labels=classes.tolist())
    held_rows, size = np.flatnonzero(held), train_cfg.batch_size
    buf = np.empty((size, *x.shape[1:]))
    batches = (_gather(x, held_rows[i:i + size], buf) for i in range(0, len(held_rows), size))
    pred = np.concatenate([np.argmax(_forward(model, batch), axis=1) for batch in batches])
    model.holdout_accuracy = float(np.mean(pred == labels[held]))
    return model


def _gather(x: np.ndarray, rows: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """x[rows] copied row by row into buf[:len(rows)], which is returned."""
    batch = buf[:len(rows)]
    for row, r in zip(batch, rows):
        row[...] = x[r]
    return batch


def _forward(model: HeadModel, x: np.ndarray, mode="eval", rng=None) -> np.ndarray:
    """The network's output for the float64 [n, C, H, W] batch x, which is
    standardized in place by the model's input norm first. A batch of another
    channel count than the head's is a ValueError."""
    channels = len(model.input_offset)
    if x.shape[1] != channels:
        raise ValueError(f"features have {x.shape[1]} channels, the head takes {channels}")
    x -= model.input_offset[:, None, None]
    x /= model.input_scale[:, None, None]
    return model.network.forward(x, mode=mode, rng=rng)


def predict_stats(model: HeadModel, features: np.ndarray) -> tuple[float, float]:
    """The regressor's (u, gamma) for one image: the `variant_scale` of the
    pair it predicts. Deterministic: dropout is identity in eval mode.
    """
    if model.class_labels is not None:
        raise ValueError("predict_stats needs a regressor model, got a classifier")
    out = _forward(model, features[None].astype(np.float64))[0]
    out = out * model.target_scale + model.target_offset
    return variant_scale(model.config.target, float(out[0]), float(out[1]))


def predict_class(model: HeadModel, features: np.ndarray) -> int:
    """Argmax class for one image; ties break toward the lowest class id."""
    if model.class_labels is None:
        raise ValueError("predict_class needs a classifier model, got a regressor")
    logits = _forward(model, features[None].astype(np.float64))[0]
    # np.argmax returns the first (lowest) index on ties
    return model.class_labels[int(np.argmax(logits))]


# the HeadModel arrays head.json stores as lists of floats
_NORM_ARRAYS = ("target_offset", "target_scale", "input_offset", "input_scale")


def save_checkpoint(model: HeadModel, ckpt_dir) -> None:
    """Write head.json (the model's fields) plus one ADT1 tensor file per parameter."""
    ckpt_dir = Path(ckpt_dir)
    write_json(ckpt_dir / "head.json", {**asdict(model), **{
        name: list(map(float, getattr(model, name))) for name in _NORM_ARRAYS}})
    for i, p in enumerate(model.network.parameters()):
        write_tensor(ckpt_dir / f"param_{i:03d}.adt", p.value)


def load_checkpoint(ckpt_dir) -> HeadModel:
    """The HeadModel save_checkpoint wrote; its input channels are the entries
    of input_offset. A head.json whose keys are not HeadModel's fields, whose sizes do
    not fit the head its config builds, or with a scale entry not > 0, is a
    ValueError naming the file and the key."""
    ckpt_dir = Path(ckpt_dir)
    path = ckpt_dir / "head.json"
    header = read_json(path)
    check_fields(path, header, HeadModel)
    in_channels, class_labels = len(header["input_offset"]), header["class_labels"]
    if in_channels < 1:
        raise ValueError(f"{path}: input_offset must be a non-empty list of numbers, got []")
    if class_labels is not None and len(class_labels) < 2:
        raise ValueError(f"{path}: class_labels must be null or a list of at least 2 integers, "
                         f"got {json.dumps(class_labels)}")
    out_dim = 2 if class_labels is None else len(class_labels)
    for name in _NORM_ARRAYS:
        width = in_channels if name.startswith("input") else out_dim
        if len(header[name]) != width:
            raise ValueError(f"{path}: {name} must be a list of {width} numbers, "
                             f"got {json.dumps(header[name])}")
        # every scale the program writes is floored at 1e-8 or is 1
        if name.endswith("scale") and min(header[name]) <= 0:
            raise ValueError(f"{path}: {name} entries must be > 0, got {json.dumps(header[name])}")
    cfg = HeadConfig(**header["config"])
    try:  # the params it draws are overwritten below
        network = build_head(cfg, in_channels, out_dim, np.random.default_rng(0))
    except ValueError as exc:  # build_head's one check is cfg.validate()
        raise ValueError(f"{path}: config: {exc}") from None
    for i, p in enumerate(network.parameters()):
        value = read_tensor(ckpt_dir / f"param_{i:03d}.adt")
        if value.shape != p.value.shape:
            raise ValueError(f"{path}: param {i} has shape {value.shape}, not {p.value.shape}")
        p.value[...] = value
    return HeadModel(**{**header, "config": cfg, "network": network,
                        **{name: np.array(header[name]) for name in _NORM_ARRAYS}})
