"""Command-line pipeline: generate, score, align, and evaluate.

Subcommands communicate exclusively through files (tensors, manifests,
CSVs, checkpoints). `main` is the one stage runner: it reads the manifest
under `--data` once and hands it to the stage's `cmd_*(args, manifest)`
(None for stages without `--data`); once the stage returns its summary line,
it writes the resolved config beside `--out` for provenance (inside it as
`run_config.json` when the stage made a directory, else `<out>.config.json`)
and prints the summary. Exit codes: 0 success, 1 usage error, 2
data/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from . import align as align_mod
from . import heads, metrics, net, synth
from .tensorio import (
    DatasetManifest,
    ImageEntry,
    ManifestError,
    TensorFormatError,
    check_json,
    columns,
    csv_row,
    read_csv,
    read_json,
    read_manifest,
    read_tensor,
    write_csv,
    write_json,
    write_tensor,
)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_run_config(out: Path, args: argparse.Namespace) -> None:
    write_json(out, {k: v for k, v in sorted(vars(args).items()) if k != "func"})


def _feature_path(manifest: DatasetManifest, e: ImageEntry) -> Path:
    if e.feature_path is None:
        raise ManifestError(f"{e.image_id}: no feature_path")
    return manifest.resolve(e.feature_path)


def _load_features(manifest: DatasetManifest, split: str) -> dict[str, np.ndarray]:
    return {e.image_id: read_tensor(_feature_path(manifest, e)) for e in manifest.split(split)}


def _read_train_stack(manifest: DatasetManifest) -> tuple[list[ImageEntry], np.ndarray]:
    """The train entries in id order and their features, read into one float64 stack."""
    entries = sorted(manifest.split("train"), key=lambda e: e.image_id)
    if not entries:
        raise ManifestError("empty training set")
    for row, e in enumerate(entries):
        f = read_tensor(_feature_path(manifest, e))
        if row == 0:
            x = np.empty((len(entries), *f.shape))
        if f.shape != x.shape[1:]:
            raise TensorFormatError(f"{e.image_id}: features {f.shape}, not {x.shape[1:]}")
        x[row] = f
    return entries, x


def _load_maps(manifest: DatasetManifest, maps_dir: Path, split: str) -> dict[str, np.ndarray]:
    out = {}
    for e in manifest.split(split):
        path = maps_dir / f"{e.image_id}.adt"
        if not path.is_file():
            raise ManifestError(f"{e.image_id}: missing score map {path}")
        out[e.image_id] = read_tensor(path)
    return out


def _load_masks(manifest: DatasetManifest) -> dict[str, np.ndarray]:
    out = {}
    for e in manifest.split("test"):
        if e.mask_path is not None:
            out[e.image_id] = read_tensor(manifest.resolve(e.mask_path))
    return out


def _top_fraction(text: str):
    if text == "max":
        return "max"
    return float(text)


# HeadConfig field -> the train-head flag (dest) that sets it, where the names differ
_HEAD_FLAGS = {"dropout_rate": "dropout"}
# flag dest (a config field name) -> the names the flag accepts
_CHOICES = {"structure": sorted(heads.STRUCTURES), "activation": tuple(heads.ACTIVATIONS),
            "target": align_mod.VARIANTS}


def _add_flags(p, **defaults) -> None:
    """One --dest flag per keyword, typed and defaulted by its value; a dest
    with a _CHOICES entry accepts only those names."""
    for dest, default in defaults.items():
        p.add_argument("--" + dest.replace("_", "-"), type=type(default), default=default,
                       choices=_CHOICES.get(dest))


def cmd_gen(args, manifest) -> str:
    if args.config:
        raw = read_json(args.config)
        if not isinstance(raw, dict):
            raise ValueError(f"{args.config}: expected a JSON object of SynthConfig fields")
        defaults = {f.name: f.default for f in fields(synth.SynthConfig)}
        unknown = sorted(set(raw) - set(defaults))
        if unknown:
            raise ValueError(f"{args.config}: unknown SynthConfig keys {unknown}")
        # the file's keys win over the flags, which fill the other fields
        for key, value in raw.items():
            check_json(args.config, key, value, defaults[key])
            setattr(args, key, value)
    out_dir = Path(args.out)
    cfg = synth.SynthConfig(**{f.name: getattr(args, f.name) for f in fields(synth.SynthConfig)})
    generated = synth.generate(cfg, out_dir)
    return f"generated {len(generated)} images -> {out_dir}"


def cmd_fit_base(args, manifest) -> str:
    features = _load_features(manifest, "train")
    points = synth.fit_coreset(features, args.m_per_image, seed=args.seed)
    out_dir = Path(args.out)
    synth.save_coreset(points, out_dir)
    return f"coreset with {points.shape[0]} points -> {out_dir}"


# score answers whole images in chunks of at least this many query rows: enough
# to keep every CPU busy, few enough that the float64 rows barely move peak RSS
SCORE_CHUNK_ROWS = 16384


def cmd_score(args, manifest) -> str:
    tree = synth.load_coreset(args.coreset)
    splits = ("train", "test") if args.split == "all" else (args.split,)
    todo = [(e.image_id, _feature_path(manifest, e))
            for split in splits for e in manifest.split(split)]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ids, feats, rows = [], [], 0
    for n, (image_id, path) in enumerate(todo, 1):
        ids.append(image_id)
        feats.append(read_tensor(path))
        rows += math.prod(feats[-1].shape[1:])
        if rows >= SCORE_CHUNK_ROWS or n == len(todo):
            for done, smap in zip(ids, synth.score_knn(feats, tree)):
                write_tensor(out_dir / f"{done}.adt", smap)
            ids, feats, rows = [], [], 0
    return f"scored {len(todo)} images -> {out_dir}"


def cmd_stats(args, manifest) -> str:
    train = manifest.split("train")
    if any(e.class_id is None for e in train):
        raise ManifestError("stats needs class_ids on every train image")
    maps = _load_maps(manifest, Path(args.maps), "train")
    by_class: dict[int, list[np.ndarray]] = {}
    for e in train:
        by_class.setdefault(e.class_id, []).append(maps[e.image_id])
    stats = align_mod.fit_class_stats(by_class)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out, columns(align_mod.ClassStats), map(astuple, stats))
    return f"fitted stats for {len(stats)} classes -> {out}"


def cmd_train_head(args, manifest) -> str:
    if args.mode == "regressor" and args.maps is None:
        raise UsageError("train-head --mode regressor needs --maps")
    entries, x = _read_train_stack(manifest)
    head_cfg = heads.HeadConfig(**{f.name: getattr(args, _HEAD_FLAGS.get(f.name, f.name))
                                   for f in fields(heads.HeadConfig)})
    train_cfg = heads.TrainConfig(**{f.name: getattr(args, f.name)
                                     for f in fields(heads.TrainConfig)})
    if args.mode == "regressor":
        maps = _load_maps(manifest, Path(args.maps), "train")
        model = heads.train_regressor(x, [maps[e.image_id] for e in entries],
                                      head_cfg, train_cfg)
    else:
        class_ids = [e.class_id for e in entries]
        if None in class_ids:
            raise ManifestError("train-head --mode classifier needs class_ids")
        model = heads.train_classifier(x, class_ids, head_cfg, train_cfg)
    out_dir = Path(args.out)
    heads.save_checkpoint(model, out_dir)
    final = model.loss_trace[-1] if model.loss_trace else float("nan")
    extra = (f", holdout acc {model.holdout_accuracy:.3f}"
             if model.holdout_accuracy is not None else "")
    return (f"trained {args.mode} ({args.iterations} iters, final loss {final:.4f}{extra}) "
            f"-> {out_dir}")


def cmd_align(args, manifest) -> str:
    maps = _load_maps(manifest, Path(args.maps), args.split)
    entries = manifest.split(args.split)

    if args.mode == "oracle":
        if args.stats is None:
            raise UsageError("align --mode oracle needs --stats")
        if any(e.class_id is None for e in entries):
            raise ManifestError("align --mode oracle needs class_ids in the manifest")
        scales = align_mod.class_scales(align_mod.read_stats_csv(args.stats), args.variant)
        class_ids = {e.image_id: e.class_id for e in entries}
        scale_of = align_mod.scale_by_class(scales, class_ids.get)
    elif args.mode == "classifier":
        if args.model is None or args.stats is None:
            raise UsageError("align --mode classifier needs --model and --stats")
        model = heads.load_checkpoint(args.model)
        scales = align_mod.class_scales(align_mod.read_stats_csv(args.stats), args.variant)
        features = _load_features(manifest, args.split)
        scale_of = align_mod.scale_by_class(
            scales, lambda image_id: heads.predict_class(model, features[image_id]))
    else:  # regressor; argparse admits no other mode
        if args.model is None:
            raise UsageError("align --mode regressor needs --model")
        model = heads.load_checkpoint(args.model)
        features = _load_features(manifest, args.split)

        def scale_of(image_id):
            return heads.predicted_scale(model, features[image_id])
    aligned = align_mod.align_maps(maps, scale_of)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for image_id, values in aligned.items():
        write_tensor(out_dir / f"{image_id}.adt", values)
    return f"aligned {len(aligned)} maps ({args.mode}) -> {out_dir}"


def cmd_eval(args, manifest) -> str:
    maps = _load_maps(manifest, Path(args.maps), "test")
    masks = _load_masks(manifest)
    reports = metrics.evaluate(manifest, maps, masks, top_fraction=args.top_fraction)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out, columns(metrics.MetricsReport), map(astuple, reports))
    return "\n".join(csv_row(astuple(r)) for r in reports)


def cmd_report(args, manifest) -> str:
    maps = _load_maps(manifest, Path(args.maps), "test")
    combined = [[Path(path).stem, *cells] for path in args.metrics or ()
                for cells in read_csv(path, columns(metrics.MetricsReport))]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = [(e.image_id, e.class_id, e.label,
             metrics.image_score(maps[e.image_id], args.top_fraction))
            for e in manifest.split("test")]
    write_csv(out_dir / "image_scores.csv", ("image_id", "class_id", "label", "image_score"),
              rows)

    # shared bin edges across classes so per-class histograms are comparable
    scores = np.array([r[3] for r in rows])
    edges = np.histogram_bin_edges(scores, bins=args.bins)
    hist = []
    for cid in sorted({r[1] for r in rows if r[1] is not None}) or [None]:
        for label in ("normal", "anomalous"):
            sel = np.array([r[3] for r in rows
                            if (cid is None or r[1] == cid) and r[2] == label])
            counts, _ = np.histogram(sel, bins=edges)
            hist += [(cid, label, left, right, count)
                     for left, right, count in zip(edges[:-1], edges[1:], counts)]
    write_csv(out_dir / "histograms.csv", ("class_id", "label", "bin_left", "bin_right", "count"),
              hist)

    if args.metrics:
        write_csv(out_dir / "metrics_combined.csv", ["source", *columns(metrics.MetricsReport)],
                  combined)
    return f"report -> {out_dir}"


def cmd_grad_check(args, manifest) -> str:
    for flag in ("channels", "grid"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    rng = np.random.default_rng(args.seed)
    in_channels, h, w = args.channels, args.grid, args.grid
    worst = 0.0
    for name in heads.STRUCTURES:
        cfg = heads.HeadConfig(structure=name, hidden_dim=args.hidden_dim,
                               dropout_rate=args.dropout, activation=args.activation)
        network = heads.build_head(cfg, in_channels, 2, rng)
        x = rng.normal(size=(1, in_channels, h, w))
        target = rng.normal(size=(1, 2))

        def loss_fn(out, target=target):
            loss, grad = net.smooth_l1(out, target, cfg.alpha)
            return float(loss.sum()), grad

        err = net.grad_check(network, x, loss_fn, seed=args.seed)
        worst = max(worst, err)
        print(f"{name}: max relative error {err:.3e}")
    if worst > args.tolerance:
        raise net.NumericalError(f"worst error {worst:.3e} > {args.tolerance:.1e}")
    return f"all structures within {args.tolerance:.1e}"


ABLATION_DROPOUTS = (0.0, 0.25, 0.5, 0.75)
ABLATION_TOP_FRACTIONS = ("max", 0.001, 0.01, 0.02)


def cmd_ablate(args, manifest) -> str:
    entries, x = _read_train_stack(manifest)
    norm = heads.standardize(x, range(len(x)))
    maps = _load_maps(manifest, Path(args.maps), "train")
    train_maps = [maps[e.image_id] for e in entries]
    test_maps = _load_maps(manifest, Path(args.maps), "test")
    test_features = _load_features(manifest, "test")
    raw = {tf: metrics.evaluate(manifest, test_maps, top_fraction=tf)[0]
           for tf in ABLATION_TOP_FRACTIONS}

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    for structure in heads.STRUCTURES:
        for dropout in ABLATION_DROPOUTS:
            head_cfg = heads.HeadConfig(structure=structure, hidden_dim=args.hidden_dim,
                                        dropout_rate=dropout)
            train_cfg = heads.TrainConfig(iterations=args.iterations, seed=args.seed)
            model = heads.train_regressor(x, train_maps, head_cfg, train_cfg, norm)
            aligned = align_mod.align_maps(
                test_maps, lambda image_id: heads.predicted_scale(model, test_features[image_id]))
            for tf in ABLATION_TOP_FRACTIONS:
                cal = metrics.evaluate(manifest, aligned, top_fraction=tf)[0]
                rows.append((structure, dropout, tf, raw[tf].i_auroc, cal.i_auroc,
                             raw[tf].i_ap, cal.i_ap))
            print(f"ablate {structure} dropout={dropout}: "
                  f"cada i_auroc {rows[-1][4]:.4f} (raw {rows[-1][3]:.4f})")
    write_csv(out, ("structure", "dropout", "top_fraction", "raw_i_auroc", "cada_i_auroc",
                    "raw_i_ap", "cada_i_ap"), rows)
    return f"ablation grid ({len(rows)} rows) -> {out}"


def _subcommand(sub, name, func, help, *required_paths) -> _Parser:
    """Add subcommand `name` running func, with a required --<path> flag for
    each of required_paths."""
    p = sub.add_parser(name, help=help)
    for path in required_paths:
        p.add_argument("--" + path, required=True)
    p.set_defaults(func=func)
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="scorealign",
                     description="Multi-class anomaly score distribution alignment")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    head, train = heads.HeadConfig, heads.TrainConfig

    p = _subcommand(sub, "gen", cmd_gen, "generate the synthetic benchmark", "out")
    p.add_argument("--config", help="JSON file with SynthConfig fields (overrides flags)")
    _add_flags(p, **{f.name: f.default for f in fields(synth.SynthConfig)})

    p = _subcommand(sub, "fit-base", cmd_fit_base, "fit the coreset memory bank", "data", "out")
    _add_flags(p, m_per_image=16, seed=0)

    p = _subcommand(sub, "score", cmd_score, "nearest-neighbor score maps for a split",
                    "data", "coreset", "out")
    p.add_argument("--split", choices=("train", "test", "all"), default="all")

    _subcommand(sub, "stats", cmd_stats, "fit per-class score statistics on the train split",
                "data", "maps", "out")

    p = _subcommand(sub, "train-head", cmd_train_head, "train the regressor or classifier head",
                    "data", "out")
    p.add_argument("--maps", help="score maps dir (required for regressor)")
    p.add_argument("--mode", choices=("regressor", "classifier"), default="regressor")
    _add_flags(p, **{_HEAD_FLAGS.get(f.name, f.name): f.default
                     for f in fields(head) + fields(train)})

    p = _subcommand(sub, "align", cmd_align, "calibrate score maps", "data", "maps", "out")
    p.add_argument("--mode", choices=("oracle", "classifier", "regressor"), required=True)
    p.add_argument("--stats", help="class-stats CSV (oracle / classifier modes)")
    p.add_argument("--model", help="head checkpoint dir (classifier / regressor modes)")
    p.add_argument("--variant", choices=align_mod.VARIANTS, default="meanmax",
                   help="oracle / classifier modes; regressor mode takes the variant "
                        "from the head's train-head --target")
    p.add_argument("--split", choices=("train", "test"), default="test")

    p = _subcommand(sub, "eval", cmd_eval, "image- and pixel-level metrics on the test split",
                    "data", "maps", "out")
    p.add_argument("--top-fraction", type=_top_fraction, default=0.01,
                   help="fraction of highest pixels for the image score, or 'max'")

    p = _subcommand(sub, "report", cmd_report, "aggregate CSVs and per-class score histograms",
                    "data", "maps", "out")
    p.add_argument("--metrics", nargs="*", help="metrics CSVs to combine")
    p.add_argument("--top-fraction", type=_top_fraction, default=0.01)
    p.add_argument("--bins", type=int, default=32)

    p = _subcommand(sub, "grad-check", cmd_grad_check,
                    "finite-difference check of every head structure")
    _add_flags(p, channels=6, grid=6, hidden_dim=16, dropout=head.dropout_rate,
               activation=head.activation, tolerance=1e-4, seed=0)

    p = _subcommand(sub, "ablate", cmd_ablate, "sweep structure x dropout x aggregation",
                    "data", "maps", "out")
    _add_flags(p, hidden_dim=head.hidden_dim, iterations=train.iterations, seed=train.seed)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        manifest = (read_manifest(Path(args.data) / "manifest.json")
                    if hasattr(args, "data") else None)
        summary = args.func(args, manifest)
        if hasattr(args, "out"):
            out = Path(args.out)
            _write_run_config(out / "run_config.json" if out.is_dir()
                              else out.with_suffix(".config.json"), args)
        print(summary)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ManifestError, TensorFormatError, metrics.UndefinedMetricError,
            OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except net.NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
