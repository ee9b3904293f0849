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
import functools
import math
import os
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from . import align as align_mod
from . import heads, metrics, net, synth, tensorio
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


def _split(manifest: DatasetManifest, split: str) -> list[ImageEntry]:
    """The split's entries in manifest order ("all": train, then test); an
    empty split is a ManifestError."""
    if split == "all":
        entries, split = manifest.split("train") + manifest.split("test"), "train or test"
    else:
        entries = manifest.split(split)
    if not entries:
        raise ManifestError(f"no {split} images in the manifest")
    return entries


def _read_features(manifest: DatasetManifest, e: ImageEntry) -> np.ndarray:
    """The entry's [C, H, W] features; no feature_path, or another rank, is an error naming it."""
    if e.feature_path is None:
        raise ManifestError(f"{e.image_id}: no feature_path")
    f = read_tensor(manifest.resolve(e.feature_path))
    if f.ndim != 3:
        raise TensorFormatError(f"{e.image_id}: features of shape {f.shape}, not [C, H, W]")
    return f


def _read_split(manifest: DatasetManifest, split: str):
    """Yield the split's (entry, features) in id order, one file read at a time;
    a file of another dtype or shape than the first is a TensorFormatError."""
    for row, e in enumerate(sorted(_split(manifest, split), key=lambda e: e.image_id)):
        f = _read_features(manifest, e)
        if row == 0:
            dtype, shape = f.dtype, f.shape
        if f.shape != shape or f.dtype != dtype:
            raise TensorFormatError(f"{e.image_id}: features {f.dtype} {f.shape}, "
                                    f"not {dtype} {shape}")
        yield e, f


def _read_stack(manifest: DatasetManifest, split: str) -> tuple[list[ImageEntry], np.ndarray]:
    """The split's entries in id order and their features, in one stack of the files' dtype."""
    entries = []
    for row, (e, f) in enumerate(_read_split(manifest, split)):
        if row == 0:
            x = np.empty((len(manifest.split(split)), *f.shape), dtype=f.dtype)
        x[row] = f
        entries.append(e)
    return entries, x


def _read_map(maps_dir: Path, e: ImageEntry) -> np.ndarray:
    """The image's score map; a missing file is a ManifestError naming it."""
    path = maps_dir / f"{e.image_id}.adt"
    if not path.is_file():
        raise ManifestError(f"{e.image_id}: missing score map {path}")
    return read_tensor(path)


def _load_maps(manifest: DatasetManifest, maps_dir: Path, split: str) -> dict[str, np.ndarray]:
    """The split's score maps by image id, in manifest order; an empty split is a ManifestError."""
    return {e.image_id: _read_map(maps_dir, e) for e in _split(manifest, split)}


def _write_maps(out_dir: Path, pairs) -> None:
    """Write each (image_id, map) of pairs to out_dir/<image_id>.adt.tmp as it arrives and
    rename them all onto <image_id>.adt after the last; on any exception, remove every
    temporary file and every directory made, then re-raise: out_dir keeps what it held."""
    made, written = [], []
    try:
        for d in reversed((out_dir, *out_dir.parents)):  # each missing one, outermost first
            if not d.is_dir():
                d.mkdir()
                made.append(d)
        for image_id, values in pairs:
            # a str, not a Path: pathlib interns every name it parses, and these are used once
            written.append(os.path.join(out_dir, f"{image_id}.adt.tmp"))
            write_tensor(written[-1], values)
            del values  # a score map views its whole chunk's distances: free them now
        for path in written:
            os.replace(path, path.removesuffix(".tmp"))
    except BaseException:
        for path in written:
            Path(path).unlink(missing_ok=True)
        for d in reversed(made):
            d.rmdir()
        raise


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
    images = (f for _, f in _read_split(manifest, "train"))
    points = synth.fit_coreset(images, args.m_per_image, seed=args.seed)
    out_dir = Path(args.out)
    synth.save_coreset(points, out_dir)
    return f"coreset with {points.shape[0]} points -> {out_dir}"


# score answers whole images in chunks of at least this many query rows: enough
# to keep every CPU busy, few enough that one chunk's float64 rows barely move peak RSS
SCORE_CHUNK_ROWS = 16384


def cmd_score(args, manifest) -> str:
    tree = synth.load_coreset(args.coreset)
    entries = _split(manifest, args.split)

    def maps():  # a chunk is read only once the writer has taken the previous chunk's maps
        ids, feats, rows = [], [], 0
        for n, e in enumerate(entries, 1):
            f = _read_features(manifest, e)
            if len(f) != tree.m:
                raise TensorFormatError(
                    f"{e.image_id}: feature dim {len(f)} != coreset dim {tree.m}")
            ids.append(e.image_id)
            feats.append(f)
            rows += math.prod(f.shape[1:])
            if rows >= SCORE_CHUNK_ROWS or n == len(entries):
                yield from zip(ids, synth.score_knn(feats, tree))
                ids, feats, rows = [], [], 0
    out_dir = Path(args.out)
    _write_maps(out_dir, maps())
    return f"scored {len(entries)} images -> {out_dir}"


def cmd_stats(args, manifest) -> str:
    train = _split(manifest, "train")
    if any(e.class_id is None for e in train):
        raise ManifestError("stats needs class_ids on every train image")
    by_class: dict[int, list[np.ndarray]] = {}
    for e in train:
        by_class.setdefault(e.class_id, []).append(_read_map(Path(args.maps), e))
    stats = align_mod.fit_class_stats(by_class)
    out = Path(args.out)
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
        maps = (_read_map(Path(args.maps), e) for e in entries)
        model = heads.train_regressor(x, maps, head_cfg, train_cfg)
    else:
        class_ids = [e.class_id for e in entries]
        if None in class_ids:
            raise ManifestError("train-head --mode classifier needs class_ids")
        model = heads.train_classifier(x, class_ids, head_cfg, train_cfg)
    out_dir = Path(args.out)
    heads.save_checkpoint(model, out_dir)
    extra = (f", holdout acc {model.holdout_accuracy:.3f}"
             if model.holdout_accuracy is not None else "")
    return (f"trained {args.mode} ({args.iterations} iters, "
            f"final loss {model.loss_trace[-1]:.4f}{extra}) -> {out_dir}")


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
    stats = align_mod.read_stats_csv(args.stats) if "stats" in needs else None
    # answer(image_id): the image's class, or a regressor's (u, gamma) for it
    if model is None:
        answer = {e.image_id: e.class_id for e in entries}.get
    else:
        predict = heads.predict_class if args.mode == "classifier" else heads.predict_stats
        by_id = {e.image_id: e for e in entries}  # features are read when the map is aligned

        def answer(image_id):
            return predict(model, _read_features(manifest, by_id[image_id]))
    scale_of = answer if stats is None else align_mod.scale_by_class(stats, args.variant, answer)
    aligned = align_mod.align_maps(maps, scale_of)

    out_dir = Path(args.out)
    _write_maps(out_dir, aligned.items())
    return f"aligned {len(aligned)} maps ({args.mode}) -> {out_dir}"


def cmd_eval(args, manifest) -> str:
    maps = _load_maps(manifest, Path(args.maps), "test")
    masks = {e.image_id: read_tensor(manifest.resolve(e.mask_path))
             for e in manifest.split("test") if e.mask_path is not None}
    reports = metrics.evaluate(manifest, maps, masks, top_fraction=args.top_fraction)
    write_csv(args.out, columns(metrics.MetricsReport), map(astuple, reports))
    return "\n".join(csv_row(astuple(r)) for r in reports)


def cmd_report(args, manifest) -> str:
    rows = [(e.image_id, e.class_id, e.label,
             metrics.image_score(_read_map(Path(args.maps), e), args.top_fraction))
            for e in _split(manifest, "test")]  # maps before --metrics: errors keep their order
    combined = [[Path(path).stem, *cells] for path in args.metrics or ()
                for cells in read_csv(path, columns(metrics.MetricsReport))]

    # shared bin edges across classes so per-class histograms are comparable
    scores = np.array([r[3] for r in rows])
    edges = np.histogram_bin_edges(scores, bins=args.bins)
    hist = []
    for cid in sorted({r[1] for r in rows if r[1] is not None}) or [None]:
        for label in tensorio.VALID_LABELS:
            sel = np.array([r[3] for r in rows
                            if (cid is None or r[1] == cid) and r[2] == label])
            counts, _ = np.histogram(sel, bins=edges)
            hist += [(cid, label, left, right, count)
                     for left, right, count in zip(edges[:-1], edges[1:], counts)]

    # every value is computed before the first CSV makes --out, so a failed report leaves none
    out_dir = Path(args.out)
    write_csv(out_dir / "image_scores.csv", ("image_id", "class_id", "label", "image_score"),
              rows)
    write_csv(out_dir / "histograms.csv", ("class_id", "label", "bin_left", "bin_right", "count"),
              hist)
    if args.metrics:
        write_csv(out_dir / "metrics_combined.csv", ["source", *columns(metrics.MetricsReport)],
                  combined)
    return f"report -> {out_dir}"


ABLATION_DROPOUTS = (0.0, 0.25, 0.5, 0.75)
ABLATION_TOP_FRACTIONS = ("max", 0.001, 0.01, 0.02)


# set to 1 while the ablate workers start, so each trains on one BLAS thread
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_worker = {}  # in an ablate worker: the inputs its first cell read


def _ablate_cell(manifest, maps_dir, settings, cell) -> dict[str, tuple[float, float]]:
    """Train the regressor of one grid cell (structure, dropout) with settings'
    hidden_dim, iterations and seed; return its (u, gamma) by test image id. A
    worker's first cell reads the train split, its maps and the test split, so
    a data error fails that cell."""
    if not _worker:
        entries, x = _read_stack(manifest, "train")
        _worker.update(x=x, maps=[_read_map(maps_dir, e) for e in entries],
                       test=list(_read_split(manifest, "test")))
    structure, dropout = cell
    head_cfg = heads.HeadConfig(structure=structure, hidden_dim=settings["hidden_dim"],
                                dropout_rate=dropout)
    train_cfg = heads.TrainConfig(iterations=settings["iterations"], seed=settings["seed"])
    model = heads.train_regressor(_worker["x"], _worker["maps"], head_cfg, train_cfg)
    return {e.image_id: heads.predict_stats(model, f) for e, f in _worker["test"]}


def cmd_ablate(args, manifest) -> str:
    # imported here: the pool's modules add 0.4-0.5 MiB to every stage's peak RSS
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    test_maps = _load_maps(manifest, Path(args.maps), "test")
    raw = {tf: metrics.evaluate(manifest, test_maps, top_fraction=tf)[0]
           for tf in ABLATION_TOP_FRACTIONS}

    cells = [(structure, dropout) for structure in heads.STRUCTURES
             for dropout in ABLATION_DROPOUTS]
    settings = {"hidden_dim": args.hidden_dim, "iterations": args.iterations, "seed": args.seed}
    # one spawned worker per CPU, at most one per cell; a failed cell cancels
    # the cells not yet started, and the failure is raised once the running ones end
    pool = ProcessPoolExecutor(max_workers=min(len(os.sched_getaffinity(0)), len(cells)),
                               mp_context=multiprocessing.get_context("spawn"))
    rows = []
    try:
        saved = {var: os.environ[var] for var in BLAS_THREAD_VARS if var in os.environ}
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
        try:
            # map submits every cell now, and a spawn pool starts one more worker at each submit
            results = pool.map(functools.partial(_ablate_cell, manifest, Path(args.maps),
                                                 settings), cells)
        finally:
            for var in BLAS_THREAD_VARS:
                del os.environ[var]
            os.environ.update(saved)
        # workers read and train; this process aligns and evaluates, so its warnings are seen
        for (structure, dropout), scales in zip(cells, results):
            aligned = align_mod.align_maps(test_maps, scales.__getitem__)
            for tf in ABLATION_TOP_FRACTIONS:
                cal = metrics.evaluate(manifest, aligned, top_fraction=tf)[0]
                rows.append((structure, dropout, tf, raw[tf].i_auroc, cal.i_auroc,
                             raw[tf].i_ap, cal.i_ap))
            print(f"ablate {structure} dropout={dropout}: "
                  f"cada i_auroc {rows[-1][4]:.4f} (raw {rows[-1][3]:.4f})")
    finally:
        pool.shutdown(cancel_futures=True)
    out = Path(args.out)
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

    p = _subcommand(sub, "score", cmd_score, "nearest-neighbor score maps of a split",
                    "data", "coreset", "out")
    p.add_argument("--split", choices=(*tensorio.VALID_SPLITS, "all"), default="all")

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
    p.add_argument("--mode", choices=tuple(_ALIGN_FLAGS), required=True)
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
