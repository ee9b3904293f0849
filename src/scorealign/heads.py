"""Training and inference of the calibration heads.

The regressor head predicts the normal-score statistics of an image's
(implicit) class directly from its feature tensor; the classifier head
predicts a class id that selects fitted per-class statistics instead.
Either way the anomaly map is then mean-max normalized with the chosen
statistics.

Regression targets are each image's own (mean, max) or (mean, std) pixel
scores; targets are z-normalized per training run so the smooth-L1
threshold alpha is independent of the base scorer's scale. Input features
are standardized per channel over the training set for the same reason
(the fixed learning rate must not depend on the feature scale), once, in
place, on the float64 [N, C, H, W] stack training gathers its batches from;
prediction applies the same elementwise formula to its one image. Both
sets of constants travel with the checkpoint.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import net
from .align import VARIANTS, meanstd_gamma
from .tensorio import check_json, read_json, read_tensor, write_json, write_tensor

# head structure name -> (3x3 conv layers, linear layers)
STRUCTURES = {
    "1lin": (0, 1),
    "2lin": (0, 2),
    "3lin": (0, 3),
    "1conv+2lin": (1, 2),
    "2conv+2lin": (2, 2),
}


# HeadConfig.activation name -> layer class
ACTIVATIONS = {"gelu": net.GELU, "relu": net.ReLU}


@dataclass
class HeadConfig:
    structure: str = "1conv+2lin"    # a STRUCTURES name
    hidden_dim: int = 256
    dropout_rate: float = 0.25
    activation: str = "gelu"         # an ACTIVATIONS name
    target: str = "meanmax"          # a VARIANTS name (regressor only)
    alpha: float = 0.1               # smooth-L1 threshold, normalized target space

    def validate(self):
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}, "
                             f"expected one of {sorted(STRUCTURES)}")
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.target not in VARIANTS:
            raise ValueError(f"unknown target {self.target!r}")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")


@dataclass
class TrainConfig:
    lr: float = 5e-2
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 16
    iterations: int = 5000
    seed: int = 0

    def validate(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


# global gradient-norm clip; the fixed lr/momentum overshoots on
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
    (channel-preserving, each followed by the activation), global average
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
    act = ACTIVATIONS[cfg.activation]
    layers: list[net.Layer] = []
    for _ in range(n_conv):
        layers.append(net.Conv3x3(in_channels, in_channels, rng))
        layers.append(act())
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
            layers.append(act())
        dim = out
    return net.Network(layers)


@dataclass
class HeadModel:
    config: HeadConfig
    in_channels: int
    network: net.Network
    seed: int
    # affine de-normalization applied to regressor outputs (identity for classifier)
    target_offset: np.ndarray = None
    target_scale: np.ndarray = None
    # per-channel feature standardization fitted on the training set
    input_offset: np.ndarray = None
    input_scale: np.ndarray = None
    loss_trace: list = field(default_factory=list)
    holdout_accuracy: Optional[float] = None
    # classifier output index -> class id; None exactly for a regressor
    class_labels: Optional[list] = None


def standardize(x: np.ndarray, rows: Sequence[int]):
    """Standardize the [N, C, H, W] float64 stack x in place by the per-channel
    mean/std over all locations of the images x[rows], summed image by image
    in row order; returns that (offset, scale)."""
    total = total_sq = None
    for row in rows:
        s = x[row].sum(axis=(1, 2))
        sq = (x[row]**2).sum(axis=(1, 2))
        total = s if total is None else total + s
        total_sq = sq if total_sq is None else total_sq + sq
    count = len(rows) * x.shape[2] * x.shape[3]
    mean = total / count
    scale = np.maximum(np.sqrt(np.maximum(total_sq / count - mean**2, 0.0)), 1e-8)
    x -= mean[:, None, None]
    x /= scale[:, None, None]
    return mean, scale


def _fit(
    x: np.ndarray,
    rows: np.ndarray,
    norm: Optional[tuple[np.ndarray, np.ndarray]],
    head_cfg: HeadConfig,
    train_cfg: TrainConfig,
    out_dim: int,
    batch_loss: Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]],
    **model_fields,
) -> HeadModel:
    """The SGD loop both heads share: batches x[rows[idx]] of the stack x
    (standardized over rows first if norm is None), batch_loss(output, idx)
    -> (mean loss, output gradient), clipped steps, the tail average as model."""
    train_cfg.validate()
    in_offset, in_scale = standardize(x, rows) if norm is None else norm
    rng = np.random.default_rng(np.random.SeedSequence([train_cfg.seed]))
    network = build_head(head_cfg, x.shape[1], out_dim, rng)
    optim = net.SGD(train_cfg.lr, train_cfg.momentum, train_cfg.weight_decay)

    model = HeadModel(config=head_cfg, in_channels=x.shape[1], network=network,
                      seed=train_cfg.seed, input_offset=in_offset, input_scale=in_scale,
                      **model_fields)
    params = network.parameters()
    iterations = train_cfg.iterations
    tail_start = iterations - int(AVG_FRAC * iterations)
    tail_sums, tail_count = None, 0  # running parameter sums from tail_start on
    for it in range(iterations):
        idx = rng.integers(0, len(rows), size=train_cfg.batch_size)
        out = network.forward(x[rows[idx]], mode="train", rng=rng)
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
    score_maps: Sequence[np.ndarray],
    head_cfg: HeadConfig,
    train_cfg: TrainConfig,
    norm: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> HeadModel:
    """Train the statistics regressor on normal training images.

    x is the [N, C, H, W] float64 stack of their features, score_maps their
    maps row for row. With norm None, x holds raw features and is standardized
    in place; else x was standardized by norm = (offset, scale) (`standardize`).

    Targets are (u_img, gamma_img) for the meanmax variant or
    (u_img, sigma_img) for the meanstd variant; dropout is active
    throughout training as the pseudo-anomaly noise source.
    """
    if not len(x) or len(score_maps) != len(x):
        raise ValueError(f"{len(score_maps)} score maps for {len(x)} training images")
    spread = np.max if head_cfg.target == "meanmax" else np.std
    flat_maps = (np.asarray(m, dtype=np.float64).ravel() for m in score_maps)
    targets = np.array([(np.mean(v), spread(v)) for v in flat_maps])
    t_offset = targets.mean(axis=0)
    t_scale = np.maximum(targets.std(axis=0), 1e-8)
    targets_n = (targets - t_offset) / t_scale

    def batch_loss(out, idx):
        loss_elems, grad = net.smooth_l1(out, targets_n[idx], head_cfg.alpha)
        return float(loss_elems.sum(axis=1).mean()), grad

    return _fit(x, np.arange(len(x)), norm, head_cfg, train_cfg, 2, batch_loss,
                target_offset=t_offset, target_scale=t_scale)


def train_classifier(
    x: np.ndarray,
    class_ids: Sequence[int],
    head_cfg: HeadConfig,
    train_cfg: TrainConfig,
) -> HeadModel:
    """Train the k-way class head with cross-entropy.

    x is the [N, C, H, W] float64 stack of the raw features, class_ids their
    class ids row for row. Every HOLDOUT_EVERY-th row is held out and its
    post-training accuracy recorded on the model; x is standardized in place
    by the norm of the other rows.
    """
    if not len(x) or len(class_ids) != len(x):
        raise ValueError(f"{len(class_ids)} class ids for {len(x)} training images")
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
    model = _fit(x, rows, None, head_cfg, train_cfg, k, batch_loss, target_offset=np.zeros(k),
                 target_scale=np.ones(k), class_labels=classes.tolist())
    pred = np.argmax(model.network.forward(x[held], mode="eval"), axis=1)
    model.holdout_accuracy = float(np.mean(pred == labels[held]))
    return model


def _forward(model: HeadModel, features: np.ndarray) -> np.ndarray:
    """The eval-mode output for one image, standardized by the model's input norm."""
    x = ((np.asarray(features, dtype=np.float64) - model.input_offset[:, None, None])
         / model.input_scale[:, None, None])
    return model.network.forward(x[None], mode="eval")[0]


def predict_stats(model: HeadModel, features: np.ndarray) -> tuple[float, float]:
    """Predict (u_hat, gamma_hat) or (u_hat, sigma_hat) for one image.

    Deterministic: dropout is identity in eval mode.
    """
    if model.class_labels is not None:
        raise ValueError("predict_stats needs a regressor model, got a classifier")
    out = _forward(model, features) * model.target_scale + model.target_offset
    return float(out[0]), float(out[1])


def predict_class(model: HeadModel, features: np.ndarray) -> int:
    """Argmax class for one image; ties break toward the lowest class id."""
    if model.class_labels is None:
        raise ValueError("predict_class needs a classifier model, got a regressor")
    logits = _forward(model, features)
    # np.argmax returns the first (lowest) index on ties
    return model.class_labels[int(np.argmax(logits))]


def predicted_scale(model: HeadModel, features: np.ndarray) -> tuple[float, float]:
    """The regressor's (u, gamma) for one image.

    A meanstd head predicts (u, sigma); a negative sigma is clamped to 0
    before gamma = u + 3*sigma.
    """
    u_hat, second = predict_stats(model, features)
    if model.config.target == "meanmax":
        return u_hat, second
    return u_hat, meanstd_gamma(u_hat, max(second, 0.0))


# the HeadModel arrays head.json stores as lists of floats, and the fields it stores as they are
_NORM_ARRAYS = ("target_offset", "target_scale", "input_offset", "input_scale")
_PLAIN_FIELDS = ("in_channels", "seed", "loss_trace", "holdout_accuracy", "class_labels")


def save_checkpoint(model: HeadModel, ckpt_dir) -> None:
    """Write head.json (config, seed, target normalization, layer dims) plus
    one ADT1 tensor file per parameter."""
    ckpt_dir = Path(ckpt_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    params = model.network.parameters()
    header = {
        "config": asdict(model.config),
        "in_channels": model.in_channels,
        "seed": model.seed,
        **{name: list(map(float, getattr(model, name))) for name in _NORM_ARRAYS},
        "n_params": len(params),
        "param_shapes": [list(p.value.shape) for p in params],
        "loss_trace": model.loss_trace,
        "holdout_accuracy": model.holdout_accuracy,
        "class_labels": model.class_labels,
    }
    write_json(ckpt_dir / "head.json", header)
    for i, p in enumerate(params):
        write_tensor(ckpt_dir / f"param_{i:03d}.adt", p.value)


def load_checkpoint(ckpt_dir) -> HeadModel:
    """The HeadModel save_checkpoint wrote. A head.json value of the wrong JSON
    type or length is a ValueError naming the file and the key."""
    ckpt_dir = Path(ckpt_dir)
    path = ckpt_dir / "head.json"
    header = read_json(path)
    config = header.get("config") if isinstance(header, dict) else None
    keys = set(config) if isinstance(config, dict) else set()
    names = {f.name for f in fields(HeadConfig)}
    if keys != names:
        raise ValueError(f"{path}: config has unknown keys "
                         f"{sorted(keys - names)} and missing keys {sorted(names - keys)}")
    for f in fields(HeadConfig):
        check_json(f"{path}: config", f.name, config[f.name], f.default)
    for key in ("in_channels", "seed", "n_params"):
        check_json(path, key, header.get(key), 0)
    in_channels = header["in_channels"]
    if in_channels < 1:
        raise ValueError(f"{path}: in_channels must be >= 1, got {in_channels}")
    class_labels = header.get("class_labels")
    if class_labels is not None and not (isinstance(class_labels, list) and len(class_labels) > 1
                                         and all(type(c) is int for c in class_labels)):
        raise ValueError(f"{path}: class_labels must be null or a list of at least 2 integers, "
                         f"got {json.dumps(class_labels)}")
    loss_trace = header.get("loss_trace")
    if not isinstance(loss_trace, list):
        raise ValueError(f"{path}: loss_trace must be a list of numbers, "
                         f"got {json.dumps(loss_trace)}")
    for i, loss in enumerate(loss_trace):
        check_json(path, f"loss_trace[{i}]", loss, 0.0)
    if header.get("holdout_accuracy") is not None:
        check_json(path, "holdout_accuracy", header["holdout_accuracy"], 0.0)
    out_dim = 2 if class_labels is None else len(class_labels)
    for name in _NORM_ARRAYS:
        width = in_channels if name.startswith("input") else out_dim
        check_json(path, name, header.get(name), (0.0,) * width)
    cfg = HeadConfig(**config)
    rng = np.random.default_rng(0)  # params are overwritten below
    network = build_head(cfg, in_channels, out_dim, rng)
    params = network.parameters()
    if len(params) != header["n_params"]:
        raise ValueError(f"{path}: n_params is {header['n_params']}, its config has {len(params)}")
    for i, p in enumerate(params):
        value = read_tensor(ckpt_dir / f"param_{i:03d}.adt")
        if value.shape != p.value.shape:
            raise ValueError(f"{path}: param {i} has shape {value.shape}, not {p.value.shape}")
        p.value[...] = value
    return HeadModel(config=cfg, network=network,
                     **{name: np.array(header[name]) for name in _NORM_ARRAYS},
                     **{name: header.get(name) for name in _PLAIN_FIELDS})
