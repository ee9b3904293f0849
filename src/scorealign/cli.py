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
import contextlib
import math
import os
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
    check_fields,
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


def _split(manifest: DatasetManifest, split: str) -> list[ImageEntry]:
    """The split's entries in manifest order; an empty split is a ManifestError."""
    entries = manifest.split(split)
    if not entries:
        raise ManifestError(f"no {split} images in the manifest")
    return entries


def _read_stack(manifest: DatasetManifest, split: str) -> tuple[list[ImageEntry], np.ndarray]:
    """The split's entries in id order and their features, in one stack of the files' dtype."""
    entries = sorted(_split(manifest, split), key=lambda e: e.image_id)
    for row, e in enumerate(entries):
        f = read_tensor(_feature_path(manifest, e))
        if row == 0:
            x = np.empty((len(entries), *f.shape), dtype=f.dtype)
        if f.shape != x.shape[1:] or f.dtype != x.dtype:
            raise TensorFormatError(f"{e.image_id}: features {f.dtype} {f.shape}, "
                                    f"not {x.dtype} {x.shape[1:]}")
        x[row] = f
    return entries, x


def _load_maps(manifest: DatasetManifest, maps_dir: Path, split: str) -> dict[str, np.ndarray]:
    """The split's score maps by image id, in manifest order; an empty split is a ManifestError."""
    out = {}
    for e in _split(manifest, split):
        path = maps_dir / f"{e.image_id}.adt"
        if not path.is_file():
            raise ManifestError(f"{e.image_id}: missing score map {path}")
        out[e.image_id] = read_tensor(path)
    return out


def _write_maps(out_dir: Path, maps: dict[str, np.ndarray]) -> None:
    """One <image_id>.adt tensor file per map, in a directory made for them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for image_id, values in maps.items():
        write_tensor(out_dir / f"{image_id}.adt", values)


def _top_fraction(text: str):
    """'max' or a fraction in (0, 1]; anything else is a usage error."""
    if text == "max":
        return "max"
    try:
        if 0.0 < float(text) <= 1.0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be 'max' or in (0, 1], got {text}")


def _bin_count(text: str) -> int:
    """An integer >= 1; anything else is a usage error."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")


# HeadConfig field -> the train-head flag (dest) that sets it, where the names differ
_HEAD_FLAGS = {"dropout_rate": "dropout"}
# flag dest (a config field name) -> the names the flag accepts
_CHOICES = {"structure": sorted(heads.STRUCTURES), "target": align_mod.VARIANTS}


def _add_flags(p, **defaults) -> None:
    """One --dest flag per keyword, typed and defaulted by its value; a dest
    with a _CHOICES entry accepts only those names."""
    for dest, default in defaults.items():
        p.add_argument("--" + dest.replace("_", "-"), type=type(default), default=default,
                       choices=_CHOICES.get(dest))


def cmd_gen(args, manifest) -> str:
    if args.config:
        raw = read_json(args.config)
        check_fields(args.config, raw, synth.SynthConfig, partial=True)
        # the file's keys win over the flags, which fill the other fields
        vars(args).update(raw)
    out_dir = Path(args.out)
    cfg = synth.SynthConfig(**{f.name: getattr(args, f.name) for f in fields(synth.SynthConfig)})
    generated = synth.generate(cfg, out_dir)
    return f"generated {len(generated)} images -> {out_dir}"


def cmd_fit_base(args, manifest) -> str:
    _, x = _read_stack(manifest, "train")
    points = synth.fit_coreset(x, args.m_per_image, seed=args.seed)
    out_dir = Path(args.out)
    synth.save_coreset(points, out_dir)
    return f"coreset with {points.shape[0]} points -> {out_dir}"


# score answers whole images in chunks of at least this many query rows: enough
# to keep every CPU busy, few enough that the float64 rows barely move peak RSS
SCORE_CHUNK_ROWS = 16384


def cmd_score(args, manifest) -> str:
    tree = synth.load_coreset(args.coreset)
    entries = (manifest.split("train") + manifest.split("test") if args.split == "all"
               else _split(manifest, args.split))
    todo = [(e.image_id, _feature_path(manifest, e)) for e in entries]
    # every map is computed before --out is made, so a failed score leaves none
    maps, ids, feats, rows = {}, [], [], 0
    for n, (image_id, path) in enumerate(todo, 1):
        ids.append(image_id)
        feats.append(read_tensor(path))
        rows += math.prod(feats[-1].shape[1:])
        if rows >= SCORE_CHUNK_ROWS or n == len(todo):
            maps.update(zip(ids, synth.score_knn(feats, tree)))
            ids, feats, rows = [], [], 0
    out_dir = Path(args.out)
    _write_maps(out_dir, maps)
    return f"scored {len(todo)} images -> {out_dir}"


def cmd_stats(args, manifest) -> str:
    train = _split(manifest, "train")
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
    entries, x = _read_stack(manifest, "train")
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


# align --mode -> the flags it needs
_ALIGN_FLAGS = {"oracle": ("stats",), "classifier": ("model", "stats"), "regressor": ("model",)}


def cmd_align(args, manifest) -> str:
    needs = _ALIGN_FLAGS[args.mode]
    if any(getattr(args, flag) is None for flag in needs):
        raise UsageError(f"align --mode {args.mode} needs " + " and ".join("--" + f for f in needs))
    maps = _load_maps(manifest, Path(args.maps), "test")
    entries = manifest.split("test")
    if args.mode == "oracle" and any(e.class_id is None for e in entries):
        raise ManifestError("align --mode oracle needs class_ids in the manifest")
    model = heads.load_checkpoint(args.model) if "model" in needs else None
    if "stats" in needs:
        scales = align_mod.class_scales(align_mod.read_stats_csv(args.stats), args.variant)
    # paths resolved up front; each image's features are read when its map is aligned
    paths = {e.image_id: _feature_path(manifest, e) for e in entries} if "model" in needs else {}

    if args.mode == "regressor":
        def scale_of(image_id):
            return heads.predict_stats(model, read_tensor(paths[image_id]))
    else:
        class_of = ({e.image_id: e.class_id for e in entries}.get if args.mode == "oracle"
                    else lambda image_id: heads.predict_class(model, read_tensor(paths[image_id])))
        scale_of = align_mod.scale_by_class(scales, class_of)
    aligned = align_mod.align_maps(maps, scale_of)

    out_dir = Path(args.out)
    _write_maps(out_dir, aligned)
    return f"aligned {len(aligned)} maps ({args.mode}) -> {out_dir}"


def cmd_eval(args, manifest) -> str:
    maps = _load_maps(manifest, Path(args.maps), "test")
    masks = {e.image_id: read_tensor(manifest.resolve(e.mask_path))
             for e in manifest.split("test") if e.mask_path is not None}
    reports = metrics.evaluate(manifest, maps, masks, top_fraction=args.top_fraction)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out, columns(metrics.MetricsReport), map(astuple, reports))
    return "\n".join(csv_row(astuple(r)) for r in reports)


def cmd_report(args, manifest) -> str:
    maps = _load_maps(manifest, Path(args.maps), "test")
    combined = [[Path(path).stem, *cells] for path in args.metrics or ()
                for cells in read_csv(path, columns(metrics.MetricsReport))]
    rows = [(e.image_id, e.class_id, e.label,
             metrics.image_score(maps[e.image_id], args.top_fraction))
            for e in manifest.split("test")]

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

    # every value is computed before --out is made, so a failed report leaves none
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "image_scores.csv", ("image_id", "class_id", "label", "image_score"),
              rows)
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
                               dropout_rate=args.dropout)
        network = heads.build_head(cfg, in_channels, 2, rng)
        x = rng.normal(size=(1, in_channels, h, w))
        target = rng.normal(size=(1, 2))

        def loss_fn(out, target=target):
            loss, grad = net.smooth_l1(out, target, heads.ALPHA)
            return float(loss.sum()), grad

        err = net.grad_check(network, x, loss_fn, seed=args.seed)
        worst = max(worst, err)
        print(f"{name}: max relative error {err:.3e}")
    if worst > args.tolerance:
        raise net.NumericalError(f"worst error {worst:.3e} > {args.tolerance:.1e}")
    return f"all structures within {args.tolerance:.1e}"


ABLATION_DROPOUTS = (0.0, 0.25, 0.5, 0.75)
ABLATION_TOP_FRACTIONS = ("max", 0.001, 0.01, 0.02)


# set to 1 while the ablate workers start, so each trains on one BLAS thread
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_worker = {}  # in an ablate worker: its inputs' locations and training settings, then the inputs


def _ablate_worker_init(manifest, maps_dir, settings) -> None:
    """Store where the inputs are and the training settings; the first cell reads the inputs."""
    _worker.update(manifest=manifest, maps_dir=maps_dir, **settings)


def _ablate_cell(cell) -> dict[str, tuple[float, float]]:
    """Train the regressor of one grid cell (structure, dropout) with the train
    split's input norm; return its (u, gamma) by test image id. A worker's first
    cell reads both splits and the train maps, so a data error fails that cell."""
    if "x" not in _worker:
        manifest = _worker["manifest"]
        entries, x = _read_stack(manifest, "train")
        maps = _load_maps(manifest, _worker["maps_dir"], "train")
        _worker.update(x=x, maps=[maps[e.image_id] for e in entries],
                       test=_read_stack(manifest, "test"),
                       norm=heads.standardize(x, range(len(x))))
    structure, dropout = cell
    head_cfg = heads.HeadConfig(structure=structure, hidden_dim=_worker["hidden_dim"],
                                dropout_rate=dropout)
    train_cfg = heads.TrainConfig(iterations=_worker["iterations"], seed=_worker["seed"])
    model = heads.train_regressor(_worker["x"], _worker["maps"], head_cfg, train_cfg,
                                  _worker["norm"])
    test_entries, test_x = _worker["test"]
    return {e.image_id: heads.predict_stats(model, f) for e, f in zip(test_entries, test_x)}


def _ablate_results(cells, manifest, maps_dir, settings):
    """Yield _ablate_cell(cell) for each cell in order, computed on spawned
    workers, one per CPU and at most one per cell, each started with one BLAS
    thread. A failed cell, or closing the generator, cancels the cells not yet
    started; the failure is raised once the running cells end."""
    # imported here: the pool's modules add 0.4-0.5 MiB to every stage's peak RSS
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=min(len(os.sched_getaffinity(0)), len(cells)),
                               mp_context=multiprocessing.get_context("spawn"),
                               initializer=_ablate_worker_init,
                               initargs=(manifest, maps_dir, settings))
    try:
        saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
        try:
            # a spawn pool starts one more worker at each submit until it has them all
            futures = [pool.submit(_ablate_cell, cell) for cell in cells]
        finally:
            for var, value in saved.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
        for future in futures:
            yield future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_ablate(args, manifest) -> str:
    test_maps = _load_maps(manifest, Path(args.maps), "test")
    raw = {tf: metrics.evaluate(manifest, test_maps, top_fraction=tf)[0]
           for tf in ABLATION_TOP_FRACTIONS}

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    cells = [(structure, dropout) for structure in heads.STRUCTURES
             for dropout in ABLATION_DROPOUTS]
    settings = {"hidden_dim": args.hidden_dim, "iterations": args.iterations, "seed": args.seed}
    rows = []
    # workers read and train; this process aligns and evaluates, so its warnings are seen
    with contextlib.closing(_ablate_results(cells, manifest, Path(args.maps),
                                            settings)) as results:
        for (structure, dropout), scales in zip(cells, results):
            aligned = align_mod.align_maps(test_maps, scales.__getitem__)
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

    p = _subcommand(sub, "align", cmd_align, "calibrate the test split's score maps",
                    "data", "maps", "out")
    p.add_argument("--mode", choices=("oracle", "classifier", "regressor"), required=True)
    p.add_argument("--stats", help="class-stats CSV (oracle / classifier modes)")
    p.add_argument("--model", help="head checkpoint dir (classifier / regressor modes)")
    p.add_argument("--variant", choices=align_mod.VARIANTS, default="meanmax",
                   help="oracle / classifier modes; regressor mode takes the variant "
                        "from the head's train-head --target")

    p = _subcommand(sub, "eval", cmd_eval, "image- and pixel-level metrics on the test split",
                    "data", "maps", "out")
    p.add_argument("--top-fraction", type=_top_fraction, default=metrics.TOP_FRACTION,
                   help="fraction of highest pixels for the image score, or 'max'")

    p = _subcommand(sub, "report", cmd_report, "aggregate CSVs and per-class score histograms",
                    "data", "maps", "out")
    p.add_argument("--metrics", nargs="*", help="metrics CSVs to combine")
    p.add_argument("--top-fraction", type=_top_fraction, default=metrics.TOP_FRACTION)
    p.add_argument("--bins", type=_bin_count, default=32)

    p = _subcommand(sub, "grad-check", cmd_grad_check,
                    "finite-difference check of every head structure")
    _add_flags(p, channels=6, grid=6, hidden_dim=16, dropout=head.dropout_rate,
               tolerance=1e-4, seed=0)

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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except net.NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
