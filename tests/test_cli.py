import ast
import errno
import filecmp
import json
import operator
import os
import shutil
import tracemalloc
from collections import Counter
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from scorealign import cli, metrics, synth
from scorealign.align import VARIANTS, align_maps, normalize_meanmax, read_stats_csv
from scorealign.cli import build_parser, main
from scorealign.heads import (
    STRUCTURES,
    HeadConfig,
    HeadModel,
    TrainConfig,
    build_head,
    load_checkpoint,
    predict_class,
    predict_stats,
    save_checkpoint,
    train_regressor,
)
from scorealign.tensorio import columns, csv_row, read_manifest, read_tensor, write_tensor

GEN_ARGS = ["--k-classes", "3", "--grid-h", "8", "--grid-w", "8",
            "--feat-dim", "4", "--train-normal", "12", "--test-normal", "6",
            "--test-anomalous", "6", "--seed", "0"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data, maps = str(root / "data"), str(root / "maps")
    assert main(["gen", "--out", data] + GEN_ARGS) == 0
    assert main(["fit-base", "--data", data, "--out", str(root / "coreset"),
                 "--m-per-image", "8"]) == 0
    assert main(["score", "--data", data, "--coreset", str(root / "coreset"),
                 "--out", maps]) == 0
    assert main(["stats", "--data", data, "--maps", maps,
                 "--out", str(root / "stats.csv")]) == 0
    assert main(["train-head", "--data", data, "--maps", maps, "--mode", "regressor",
                 "--out", str(root / "reg"), "--structure", "2lin",
                 "--hidden-dim", "16", "--iterations", "60"]) == 0
    assert main(["train-head", "--data", data, "--maps", maps, "--mode", "regressor",
                 "--target", "meanstd", "--out", str(root / "reg_meanstd"),
                 "--structure", "2lin", "--hidden-dim", "16", "--iterations", "60"]) == 0
    assert main(["train-head", "--data", data, "--mode", "classifier",
                 "--out", str(root / "clf"), "--structure", "2lin",
                 "--hidden-dim", "16", "--iterations", "60"]) == 0
    # the oracle maps and the raw and oracle metrics that tests read, so each runs alone
    assert main(["align", "--data", data, "--maps", maps, "--out", str(root / "aligned_oracle"),
                 "--mode", "oracle", "--stats", str(root / "stats.csv")]) == 0
    for name, scored in (("raw", maps), ("oracle", str(root / "aligned_oracle"))):
        assert main(["eval", "--data", data, "--maps", scored,
                     "--out", str(root / f"metrics_{name}.csv")]) == 0
    return root


# the keys save_checkpoint writes to head.json, in file order
HEAD_JSON_KEYS = ["config", "target_offset", "target_scale", "input_offset", "input_scale",
                  "loss_trace", "holdout_accuracy", "class_labels"]


def _count_reads(monkeypatch) -> Counter:
    """Count cli's read_tensor calls by path, in a Counter that fills as they happen."""
    reads = Counter()

    def counted(path):
        reads[Path(path)] += 1
        return read_tensor(path)
    monkeypatch.setattr(cli, "read_tensor", counted)
    return reads


def _manifest_copy(pipeline, data, edit=None):
    """Write pipeline's manifest into the directory `data` with absolute file
    paths, after edit(doc) if given; return the path of the copy."""
    doc = json.loads((pipeline / "data" / "manifest.json").read_text())
    for rec in doc["images"]:
        for key in ("feature_path", "mask_path"):
            if key in rec:
                rec[key] = str(pipeline / "data" / rec[key])
    if edit is not None:
        edit(doc)
    data.mkdir()
    (data / "manifest.json").write_text(json.dumps(doc))
    return data / "manifest.json"


# the float32 train stack of _stack_data's benchmark: 200 images of 8 x 16 x 16
STACK_BYTES = 200 * 8 * 16 * 16 * np.dtype(np.float32).itemsize


def _stack_data(root, maps=False) -> tuple[str, str]:
    """A 2-class benchmark with 200 train images under root/data and, with
    maps, their score maps under root/maps; return both paths."""
    data, maps_dir = str(root / "data"), str(root / "maps")
    assert main(["gen", "--out", data, "--k-classes", "2", "--grid-h", "16", "--grid-w", "16",
                 "--feat-dim", "8", "--train-normal", "100", "--test-normal", "1",
                 "--test-anomalous", "1"]) == 0
    if maps:
        assert main(["fit-base", "--data", data, "--out", str(root / "coreset")]) == 0
        assert main(["score", "--data", data, "--coreset", str(root / "coreset"),
                     "--out", maps_dir]) == 0
    return data, maps_dir


def _peak_bytes(argv) -> int:
    """The tracemalloc peak of main(argv) above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _tree_bytes(root) -> dict:
    """{relative path: bytes} of every file under root except its run config."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(Path(root).rglob("*"))
            if p.is_file() and p.name != "run_config.json"}


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        man = read_manifest(pipeline / "data" / "manifest.json")
        assert len(man) == 3 * (12 + 6 + 6)
        for e in man.images:
            for rel in (e.feature_path, e.mask_path):
                assert rel is None or man.resolve(rel).is_file()
        assert (pipeline / "coreset" / "points.adt").is_file()
        assert (pipeline / "stats.csv").read_text().startswith("class_id,")
        for e in man.split("test"):
            assert (pipeline / "maps" / f"{e.image_id}.adt").is_file()
        for ckpt in ("reg", "clf"):
            assert (pipeline / ckpt / "head.json").is_file()

    def test_run_config_provenance(self, pipeline):
        cfg = json.loads((pipeline / "data" / "run_config.json").read_text())
        assert cfg["subcommand"] == "gen"
        assert cfg["k_classes"] == 3

    @pytest.mark.parametrize("mode,extra", [
        ("oracle", ["--stats", "{root}/stats.csv"]),
        ("classifier", ["--stats", "{root}/stats.csv", "--model", "{root}/clf"]),
        ("regressor", ["--model", "{root}/reg"]),
    ])
    def test_align_and_eval(self, pipeline, mode, extra):
        out = pipeline / f"aligned_{mode}"
        extra = [a.format(root=pipeline) for a in extra]
        assert main(["align", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"), "--out", str(out),
                     "--mode", mode] + extra) == 0
        man = read_manifest(pipeline / "data" / "manifest.json")
        assert all((out / f"{e.image_id}.adt").is_file() for e in man.split("test"))
        csv = pipeline / f"metrics_{mode}.csv"
        assert main(["eval", "--data", str(pipeline / "data"),
                     "--maps", str(out), "--out", str(csv)]) == 0
        lines = csv.read_text().strip().split("\n")
        scopes = [l.split(",")[0] for l in lines[1:]]
        assert scopes == ["mixed", "class:0", "class:1", "class:2", "macro"]
        for l in lines[1:]:
            assert 0.0 <= float(l.split(",")[1]) <= 1.0

    def test_oracle_alignment_improves_mixed_auroc(self, pipeline):
        raw_csv = pipeline / "metrics_raw.csv"
        assert main(["eval", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"), "--out", str(raw_csv)]) == 0

        def mixed(path):
            row = path.read_text().strip().split("\n")[1]
            return float(row.split(",")[1])

        assert mixed(pipeline / "metrics_oracle.csv") > mixed(raw_csv)

    def test_report_outputs(self, pipeline):
        out = pipeline / "report"
        assert main(["report", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"), "--out", str(out),
                     "--metrics", str(pipeline / "metrics_raw.csv"),
                     str(pipeline / "metrics_oracle.csv")]) == 0
        scores = (out / "image_scores.csv").read_text().strip().split("\n")
        assert scores[0] == "image_id,class_id,label,image_score"
        assert len(scores) == 1 + 3 * 12
        hist = (out / "histograms.csv").read_text().strip().split("\n")
        assert hist[0] == "class_id,label,bin_left,bin_right,count"
        # every numeric cell is a plain number (no numpy scalar reprs)
        for row in scores[1:]:
            float(row.split(",")[3])
        for row in hist[1:]:
            _, _, left, right, count = row.split(",")
            assert float(left) < float(right)
            int(count)
        combined = (out / "metrics_combined.csv").read_text()
        assert "metrics_raw," in combined and "metrics_oracle," in combined

    def test_eval_max_aggregation(self, pipeline):
        csv = pipeline / "metrics_max.csv"
        assert main(["eval", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"), "--out", str(csv),
                     "--top-fraction", "max"]) == 0

    def test_eval_numeric_top_fraction(self, pipeline, tmp_path):
        """A number is the fraction evaluate aggregates each map's top pixels by."""
        csv = tmp_path / "metrics.csv"
        assert main(["eval", "--data", str(pipeline / "data"), "--maps", str(pipeline / "maps"),
                     "--out", str(csv), "--top-fraction", "0.02"]) == 0
        man = read_manifest(pipeline / "data" / "manifest.json")
        test = man.split("test")
        maps = {e.image_id: read_tensor(pipeline / "maps" / f"{e.image_id}.adt") for e in test}
        masks = {e.image_id: read_tensor(man.resolve(e.mask_path))
                 for e in test if e.mask_path is not None}

        def rows(top_fraction):
            reports = metrics.evaluate(man, maps, masks, top_fraction=top_fraction)
            return [csv_row(astuple(r)) for r in reports]

        assert csv.read_text().splitlines()[1:] == rows(0.02)
        # 2 of an 8x8 map's 64 pixels, where the default averages 1
        assert rows(0.02) != rows(metrics.TOP_FRACTION)

    def test_report_bin_count(self, pipeline, tmp_path):
        out = tmp_path / "report"
        assert main(["report", "--data", str(pipeline / "data"), "--maps", str(pipeline / "maps"),
                     "--out", str(out), "--bins", "5"]) == 0
        hist = [row.split(",") for row in (out / "histograms.csv").read_text().splitlines()[1:]]
        assert Counter((cid, label) for cid, label, *_ in hist) == {
            (str(cid), label): 5 for cid in range(3) for label in ("normal", "anomalous")}

    def test_meanstd_variant(self, pipeline):
        out = pipeline / "aligned_meanstd"
        assert main(["align", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"), "--out", str(out),
                     "--mode", "oracle", "--stats", str(pipeline / "stats.csv"),
                     "--variant", "meanstd"]) == 0
        man = read_manifest(pipeline / "data" / "manifest.json")
        e = man.split("test")[0]
        a = read_tensor(out / f"{e.image_id}.adt")
        b = read_tensor(pipeline / "aligned_oracle" / f"{e.image_id}.adt")
        assert not np.array_equal(a, b)


def _expected_scale(pipeline, mode, variant, entry, features):
    """(u, gamma) each align mode should use for one image, computed directly
    from the stats CSV, the manifest and the head predictions."""
    if mode == "regressor":
        model = load_checkpoint(pipeline / ("reg" if variant == "meanmax" else "reg_meanstd"))
        return predict_stats(model, features)
    if mode == "oracle":
        cid = entry.class_id
    else:
        cid = predict_class(load_checkpoint(pipeline / "clf"), features)
    (st,) = [s for s in read_stats_csv(pipeline / "stats.csv") if s.class_id == cid]
    return (st.u, st.gamma) if variant == "meanmax" else (st.u, st.u + 3.0 * st.sigma)


class TestAlignSources:
    @pytest.mark.parametrize("variant", ["meanmax", "meanstd"])
    @pytest.mark.parametrize("mode", ["oracle", "classifier", "regressor"])
    def test_each_map_is_meanmax_of_its_source_scale(self, pipeline, mode, variant):
        """Every mode is one normalization; only the (u, gamma) source differs.
        A regressor head carries its variant as its training --target."""
        out = pipeline / f"aligned_src_{mode}_{variant}"
        extra = {"oracle": ["--stats", str(pipeline / "stats.csv"), "--variant", variant],
                 "classifier": ["--stats", str(pipeline / "stats.csv"), "--variant", variant,
                                "--model", str(pipeline / "clf")],
                 "regressor": ["--model", str(pipeline / ("reg" if variant == "meanmax"
                                                          else "reg_meanstd"))]}[mode]
        assert main(["align", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"), "--out", str(out),
                     "--mode", mode] + extra) == 0
        man = read_manifest(pipeline / "data" / "manifest.json")
        for e in man.split("test"):
            features = read_tensor(man.resolve(e.feature_path))
            u, gamma = _expected_scale(pipeline, mode, variant, e, features)
            raw = read_tensor(pipeline / "maps" / f"{e.image_id}.adt")
            expected = normalize_meanmax(raw, u, gamma)
            assert read_tensor(out / f"{e.image_id}.adt").tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode,extra", [
        ("oracle", []),
        ("classifier", ["--model", "{root}/clf"]),
    ])
    def test_negative_sigma_in_stats_is_data_error(self, pipeline, tmp_path, mode, extra):
        lines = (pipeline / "stats.csv").read_text().splitlines()
        cells = lines[1].split(",")
        cells[3] = "-0.5"  # sigma of the first class
        bad = tmp_path / "stats.csv"
        bad.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
        extra = [a.format(root=pipeline) for a in extra]
        assert main(["align", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"), "--out", str(tmp_path / "out"),
                     "--mode", mode, "--stats", str(bad), "--variant", "meanstd"]
                    + extra) == 2


class TestDeterminism:
    def test_gen_twice_byte_identical(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "a")] + GEN_ARGS) == 0
        assert main(["gen", "--out", str(tmp_path / "b")] + GEN_ARGS) == 0
        # run_config.json embeds the differing --out paths by design
        cmp = filecmp.dircmp(tmp_path / "a", tmp_path / "b",
                             ignore=["run_config.json"])

        def assert_same(c):
            assert not c.diff_files and not c.left_only and not c.right_only
            for sub in c.subdirs.values():
                assert_same(sub)

        assert_same(cmp)


class TestScoreCommand:
    # 300 rows is 5 of the fixture's 8x8 images a chunk: 36 and 72 images
    # leave a partial last chunk, as does one chunk of the default size
    @pytest.mark.parametrize("chunk_rows", [300, cli.SCORE_CHUNK_ROWS])
    @pytest.mark.parametrize("split", ["train", "test", "all"])
    def test_maps_equal_single_threaded_query_per_image(
            self, pipeline, tmp_path, monkeypatch, split, chunk_rows):
        chunks = []
        score_knn = synth.score_knn

        def recording(features, tree):
            chunks.append(len(features))
            return score_knn(features, tree)

        monkeypatch.setattr(cli, "SCORE_CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(synth, "score_knn", recording)
        out = tmp_path / "maps"
        assert main(["score", "--data", str(pipeline / "data"),
                     "--coreset", str(pipeline / "coreset"), "--split", split,
                     "--out", str(out)]) == 0
        man = read_manifest(pipeline / "data" / "manifest.json")
        splits = ("train", "test") if split == "all" else (split,)
        entries = [e for s in splits for e in man.split(s)]
        per_chunk = -(-chunk_rows // 64)
        assert len(entries) % per_chunk != 0
        assert chunks == ([per_chunk] * (len(entries) // per_chunk)
                          + [len(entries) % per_chunk])
        assert sorted(p.name for p in out.glob("*.adt")) == sorted(
            f"{e.image_id}.adt" for e in entries)
        tree = cKDTree(read_tensor(pipeline / "coreset" / "points.adt"))
        for e in entries:
            feats = read_tensor(man.resolve(e.feature_path)).astype(np.float64)
            want, _ = tree.query(feats.reshape(4, 64).T)
            got = read_tensor(out / f"{e.image_id}.adt")
            assert got.dtype == np.float64 and got.shape == (8, 8)
            assert got.tobytes() == want.reshape(8, 8).tobytes()

    # the fixture manifest's images[12] is the first test image, images[-1] the last
    @pytest.mark.parametrize("row", [12, -1], ids=["first", "last"])
    def test_dim_mismatch_in_any_image_rejected(self, pipeline, tmp_path, capsys, row):
        """A feature file of another channel count than the coreset's, first or
        last in the split, exits 2 naming its image and leaves no --out."""
        write_tensor(tmp_path / "bad.adt", np.zeros((3, 8, 8), dtype=np.float32))
        manifest = _manifest_copy(pipeline, tmp_path / "data", lambda doc: operator.setitem(
            doc["images"][row], "feature_path", str(tmp_path / "bad.adt")))
        image_id = json.loads(manifest.read_text())["images"][row]["image_id"]
        out = tmp_path / "maps"
        assert main(["score", "--data", str(manifest.parent), "--split", "test",
                     "--coreset", str(pipeline / "coreset"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {image_id}: feature dim 3 != coreset dim 4\n"
        assert not out.exists()

    def test_image_id_that_leaves_out_is_data_error(self, pipeline, tmp_path, capsys):
        """A map is written as <image_id>.adt, so the id '../escaped' would put
        one beside --out; the manifest is rejected before any file is written."""
        manifest = _manifest_copy(pipeline, tmp_path / "data", lambda doc: operator.setitem(
            doc["images"][12], "image_id", "../escaped"))
        out = tmp_path / "t" / "maps"
        assert main(["score", "--data", str(manifest.parent), "--split", "test",
                     "--coreset", str(pipeline / "coreset"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: image_id '../escaped' is not a file name\n")
        assert not (tmp_path / "t").exists()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["gen", "--out", "/tmp/x", "--no-such-flag"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_align_regressor_without_model_is_usage_error(self, pipeline, capsys):
        assert main(["align", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"),
                     "--out", str(pipeline / "nope"), "--mode", "regressor"]) == 1
        assert "--model" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,named", [
        (["--mode", "oracle"], "--stats"),
        (["--mode", "classifier", "--stats", "{root}/stats.csv"], "--model"),
    ], ids=["oracle-without-stats", "classifier-without-model"])
    def test_align_without_its_scale_source_is_usage_error(
            self, pipeline, tmp_path, capsys, argv, named):
        out = tmp_path / "aligned"
        assert main(["align", "--data", str(pipeline / "data"), "--maps", str(pipeline / "maps"),
                     "--out", str(out)] + [a.format(root=pipeline) for a in argv]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize("mode,needs", [
        ("oracle", "--stats"), ("classifier", "--model and --stats"), ("regressor", "--model"),
    ])
    def test_align_usage_error_comes_before_any_map_is_read(
            self, pipeline, tmp_path, capsys, mode, needs):
        out = tmp_path / "aligned"
        assert main(["align", "--data", str(pipeline / "data"), "--maps", str(tmp_path / "none"),
                     "--out", str(out), "--mode", mode]) == 1
        assert capsys.readouterr().err == f"usage error: align --mode {mode} needs {needs}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,code,message", [
        (["report", "--top-fraction", "0"], 1,
         "usage error: argument --top-fraction: must be 'max' or in (0, 1], got 0\n"),
        (["report", "--top-fraction", "nan"], 1,
         "usage error: argument --top-fraction: must be 'max' or in (0, 1], got nan\n"),
        (["report", "--top-fraction", "1.5"], 1,
         "usage error: argument --top-fraction: must be 'max' or in (0, 1], got 1.5\n"),
        (["report", "--top-fraction", "abc"], 1,
         "usage error: argument --top-fraction: must be 'max' or in (0, 1], got abc\n"),
        (["report", "--bins", "0"], 1, "usage error: argument --bins: must be >= 1, got 0\n"),
        (["report", "--bins", "x"], 1, "usage error: argument --bins: must be >= 1, got x\n"),
        (["eval", "--top-fraction", "nan"], 1,
         "usage error: argument --top-fraction: must be 'max' or in (0, 1], got nan\n"),
        # the SGD settings are constants, not flags
        (["train-head", "--lr", "0.1"], 1, "usage error: unrecognized arguments: --lr 0.1\n"),
    ], ids=["report-top-0", "report-top-nan", "report-top-1.5", "report-top-abc", "report-bins-0",
            "report-bins-x", "eval-top-nan", "train-head-lr"])
    def test_bad_image_score_setting_leaves_no_out(
            self, pipeline, tmp_path, capsys, argv, code, message):
        out = tmp_path / "out"
        assert main(argv + ["--data", str(pipeline / "data"), "--maps", str(pipeline / "maps"),
                            "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_train_regressor_without_maps_is_usage_error(self, pipeline, tmp_path, capsys):
        out = tmp_path / "reg"
        assert main(["train-head", "--data", str(pipeline / "data"), "--mode", "regressor",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "--maps" in err
        assert not out.exists()

    @pytest.mark.parametrize("hidden_dim", ["0", "-3"])
    def test_train_head_nonpositive_hidden_dim_is_data_error(
            self, pipeline, tmp_path, capsys, hidden_dim):
        out = tmp_path / "reg"
        assert main(["train-head", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"), "--out", str(out),
                     "--structure", "2lin", "--hidden-dim", hidden_dim,
                     "--iterations", "2"]) == 2
        assert "hidden_dim" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value,flag", [("0", "iterations"), ("-3", "iterations"),
                                            ("0", "batch-size"), ("-3", "batch-size"),
                                            ("-1", "seed")])
    def test_train_head_nonpositive_train_config_is_data_error(
            self, pipeline, tmp_path, capsys, value, flag):
        out = tmp_path / "reg"
        assert main(["train-head", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"), "--out", str(out),
                     "--structure", "2lin", "--hidden-dim", "4", "--iterations", "2",
                     f"--{flag}", value]) == 2
        assert flag.replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,split", [
        (["score", "--coreset", "{root}/coreset"], "train"),
        (["align", "--mode", "regressor", "--maps", "{root}/maps", "--model", "{root}/reg"],
         "test"),
        (["align", "--mode", "classifier", "--maps", "{root}/maps", "--model", "{root}/clf",
          "--stats", "{root}/stats.csv"], "test"),
    ], ids=["score", "align-regressor", "align-classifier"])
    def test_score_entry_without_feature_path_is_data_error(
            self, pipeline, tmp_path, capsys, argv, split):
        """The last entry of the split has no feature_path: the read of its
        features fails, after the images before it are read."""
        doc = json.loads((pipeline / "data" / "manifest.json").read_text())
        for rec in doc["images"]:
            rec["feature_path"] = str(pipeline / "data" / rec["feature_path"])
        last = [r for r in doc["images"] if r["split"] == split][-1]
        del last["feature_path"]
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([a.format(root=pipeline) for a in argv]
                    + ["--data", str(data), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {last['image_id']}: no feature_path\n"
        assert not out.exists()

    @pytest.mark.parametrize("shape", [(5,), (2, 2, 2)], ids=["1-d", "3-d"])
    def test_coreset_points_not_2d_is_data_error_naming_the_file(
            self, pipeline, tmp_path, capsys, shape):
        points = tmp_path / "coreset" / "points.adt"
        points.parent.mkdir()
        write_tensor(points, np.ones(shape))
        out = tmp_path / "maps"
        assert main(["score", "--data", str(pipeline / "data"),
                     "--coreset", str(points.parent), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {points}: coreset points of shape {shape}, not [M, D]\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["fit-base"], ["score", "--coreset", "{root}/coreset"],
        ["align", "--mode", "regressor", "--maps", "{root}/maps", "--model", "{root}/reg"],
    ], ids=["fit-base", "score", "align-regressor"])
    def test_missing_feature_file_is_data_error(self, pipeline, tmp_path, capsys, argv):
        """The first image of each split points at a missing file."""
        doc = json.loads((pipeline / "data" / "manifest.json").read_text())
        missing, firsts = tmp_path / "gone.adt", set()
        for rec in doc["images"]:
            first = rec["split"] not in firsts
            firsts.add(rec["split"])
            rec["feature_path"] = str(missing if first
                                      else pipeline / "data" / rec["feature_path"])
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.json").write_text(json.dumps(doc))
        argv = [a.format(root=pipeline) for a in argv]
        assert main(argv + ["--data", str(data), "--out", str(tmp_path / "out")]) == 2
        assert str(missing) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_score_failing_in_its_last_chunk_leaves_no_out(
            self, pipeline, tmp_path, monkeypatch, capsys):
        """A feature file that fails in score's last chunk removes the maps the
        earlier chunks wrote, and the --out it made for them."""
        chunks = []
        score_knn = synth.score_knn

        def recording(features, tree):
            chunks.append(len(features))
            return score_knn(features, tree)

        # 300 rows is 5 of the fixture's 8x8 images a chunk
        monkeypatch.setattr(cli, "SCORE_CHUNK_ROWS", 300)
        monkeypatch.setattr(synth, "score_knn", recording)
        corrupt = tmp_path / "corrupt.adt"
        corrupt.write_bytes(b"ADT1garbage")

        def edit(doc):
            doc["images"][-1]["feature_path"] = str(corrupt)
        manifest = _manifest_copy(pipeline, tmp_path / "data", edit)
        out = tmp_path / "maps"
        assert main(["score", "--data", str(manifest.parent),
                     "--coreset", str(pipeline / "coreset"), "--out", str(out)]) == 2
        assert str(corrupt) in capsys.readouterr().err
        assert chunks == [5] * (len(json.loads(manifest.read_text())["images"]) // 5)
        assert not out.exists()

    @pytest.mark.parametrize("out", ["a/b/maps", "a/../maps", "maps", "scored"],
                             ids=["missing-parents", "through-missing-parent", "existing",
                                  "rescore"])
    @pytest.mark.parametrize("fails", ["read", "write"])
    def test_failed_score_removes_what_it_wrote_and_made(
            self, pipeline, tmp_path, monkeypatch, capsys, fails, out):
        """score fails in its last chunk, reading the last image or writing its map
        (a full disk), after the earlier chunks' maps are written: it removes every
        file it wrote and every directory it made, and leaves what was there, even
        the maps of an earlier score into the same --out that it overwrote."""
        if out == "scored":
            assert main(["score", "--data", str(pipeline / "data"),
                         "--coreset", str(pipeline / "coreset"), "--out", str(tmp_path / out)]) == 0
        monkeypatch.setattr(cli, "SCORE_CHUNK_ROWS", 300)  # 5 of the fixture's 8x8 images
        man = read_manifest(pipeline / "data" / "manifest.json")
        last = man.images[-1].image_id
        corrupt = tmp_path / "corrupt.adt"
        corrupt.write_bytes(b"ADT1garbage")
        data = pipeline / "data"
        if fails == "read":
            data = _manifest_copy(pipeline, tmp_path / "data", lambda doc: operator.setitem(
                doc["images"][-1], "feature_path", str(corrupt))).parent
        writes = []

        def disk_full_at_last(path, values):
            writes.append(Path(path).name)
            if fails == "write" and Path(path).name == f"{last}.adt.tmp":
                Path(path).write_bytes(b"ADT1")
                raise OSError(errno.ENOSPC, "No space left on device")
            write_tensor(path, values)
        monkeypatch.setattr(cli, "write_tensor", disk_full_at_last)
        if out == "maps":
            (tmp_path / "maps").mkdir()
            (tmp_path / "maps" / "notes.txt").write_text("kept")

        def state():  # every file's bytes and every directory under tmp_path
            return _tree_bytes(tmp_path), sorted(p for p in tmp_path.rglob("*") if p.is_dir())
        before = state()
        assert main(["score", "--data", str(data), "--coreset", str(pipeline / "coreset"),
                     "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert (str(corrupt) if fails == "read" else "No space left on device") in err
        # 72 images: 14 chunks of 5 are written before the last chunk of 2 is read
        assert len(writes) == {"read": 70, "write": 72}[fails]
        assert state() == before

    @pytest.mark.parametrize("argv,split", [
        (["stats", "--maps", "{root}/maps"], "train"),
        (["fit-base"], "train"),
        (["train-head", "--mode", "classifier"], "train"),
        (["score", "--coreset", "{root}/coreset", "--split", "train"], "train"),
        (["score", "--coreset", "{root}/coreset", "--split", "test"], "test"),
        (["score", "--coreset", "{root}/coreset", "--split", "all"], "all"),
        (["align", "--mode", "oracle", "--maps", "{root}/maps", "--stats", "{root}/stats.csv"],
         "test"),
        (["eval", "--maps", "{root}/maps"], "test"),
        (["report", "--maps", "{root}/maps"], "test"),
        (["ablate", "--maps", "{root}/maps", "--iterations", "1"], "train"),
        (["ablate", "--maps", "{root}/maps"], "test"),
    ], ids=["stats", "fit-base", "train-head", "score-train", "score-test", "score-all",
            "align", "eval", "report", "ablate-train", "ablate-test"])
    def test_empty_split_is_data_error_naming_it(
            self, pipeline, tmp_path, capsys, argv, split):
        def edit(doc):  # "all" drops every image
            doc["images"] = [r for r in doc["images"] if split not in (r["split"], "all")]
        manifest = _manifest_copy(pipeline, tmp_path / "data", edit)
        out = tmp_path / "out"
        assert main([a.format(root=pipeline) for a in argv]
                    + ["--data", str(manifest.parent), "--out", str(out)]) == 2
        named = "train or test" if split == "all" else split
        assert capsys.readouterr().err == f"error: no {named} images in the manifest\n"
        assert not out.exists()

    def test_key_error_in_a_stage_is_no_data_error(self, pipeline, tmp_path, monkeypatch):
        """A KeyError is a bug, not bad input: main lets it propagate."""
        def broken(*args, **kwargs):
            raise KeyError("bug")
        monkeypatch.setattr(synth, "fit_coreset", broken)
        with pytest.raises(KeyError, match="bug"):
            main(["fit-base", "--data", str(pipeline / "data"), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("flags,field", [
        (["--grid-h", "2", "--grid-w", "2"], "area_min"),
        (["--area-min", "0.3", "--area-max", "0.35"], "area_min"),
        (["--grid-h", "0"], "grid_h"),
        (["--grid-w", "-1"], "grid_w"),
        (["--feat-dim", "0"], "feat_dim"),
        (["--seed", "-1"], "seed"),
        (["--center-radius", "nan"], "center_radius must be finite, got nan"),
        (["--center-radius", "inf"], "center_radius must be finite, got inf"),
        (["--anomaly-rel-magnitude", "nan"], "anomaly_rel_magnitude must be finite, got nan"),
        (["--spread-max", "inf"], "spread_max must be finite, got inf"),
        # finite, but its features overflow float32
        (["--center-radius", "1e39"], "|center_radius| + spread_max * (13 + "
                                      "|anomaly_rel_magnitude|) must be at most 3.40282e+38 "
                                      "(float32), got 1e+39"),
    ], ids=["grid-2x2", "area-between-fractions", "grid-h-0", "grid-w-neg", "feat-dim-0",
            "seed-neg", "center-radius-nan", "center-radius-inf", "anomaly-nan",
            "spread-max-inf", "center-radius-1e39"])
    def test_gen_unusable_config_is_data_error_before_writing(
            self, tmp_path, capsys, flags, field):
        out = tmp_path / "data"
        assert main(["gen", "--out", str(out), "--grid-h", "4", "--grid-w", "4",
                     "--k-classes", "2", "--train-normal", "1", "--test-normal", "1",
                     "--test-anomalous", "1"] + flags) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_align_with_untrained_checkpoint_names_missing_file(self, pipeline, capsys):
        assert main(["align", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"),
                     "--out", str(pipeline / "nope"), "--mode", "regressor",
                     "--model", str(pipeline / "never_trained")]) == 2
        assert "head.json" in capsys.readouterr().err

    def test_align_with_file_as_checkpoint_names_head_json(self, pipeline, capsys):
        assert main(["align", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"),
                     "--out", str(pipeline / "nope"), "--mode", "regressor",
                     "--model", str(pipeline / "reg" / "head.json")]) == 2
        assert "head.json" in capsys.readouterr().err

    @pytest.mark.parametrize("add,drop,named", [
        ({"bogus": 1}, (), "bogus"),
        ({}, ("target",), "head.json: config: target is missing"),
        # the config of a checkpoint from before the structure name replaced
        # mode, n_conv, n_linear and out_dim
        ({"mode": "regressor", "n_conv": 0, "n_linear": 2, "out_dim": 2},
         ("structure",), "n_conv"),
        ({"hidden_dim": "16"}, (), 'head.json: config: hidden_dim must be an integer, got "16"'),
        ({"target": 1}, (), "head.json: config: target must be a string, got 1"),
        ({"dropout_rate": None}, (), "head.json: config: dropout_rate must be a number, got null"),
        # the config of a checkpoint from before activation and alpha became fixed
        ({"activation": "gelu", "alpha": 0.1}, (),
         "head.json: config: unknown HeadConfig keys ['activation', 'alpha']"),
        # well-typed values out of HeadConfig's range
        ({"dropout_rate": 1.5}, (), "head.json: config: dropout_rate must be in [0, 1), got 1.5"),
        ({"hidden_dim": 0}, (), "head.json: config: hidden_dim must be >= 1, got 0"),
        ({"structure": "bogus"}, (), "head.json: config: unknown structure 'bogus'"),
        ({"target": "x"}, (), "head.json: config: unknown target 'x'"),
    ], ids=["unknown-key", "missing-key", "nine-field-config", "hidden-dim-str", "target-int",
            "dropout-null", "parent-config", "dropout-1.5", "hidden-dim-0", "structure-bogus",
            "target-x"])
    def test_align_with_bad_checkpoint_config_is_data_error(
            self, pipeline, tmp_path, capsys, add, drop, named):
        ckpt = tmp_path / "reg"
        shutil.copytree(pipeline / "reg", ckpt)
        header = json.loads((ckpt / "head.json").read_text())
        for key in drop:
            del header["config"][key]
        header["config"].update(add)
        (ckpt / "head.json").write_text(json.dumps(header))
        assert main(["align", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"), "--out", str(tmp_path / "aligned"),
                     "--mode", "regressor", "--model", str(ckpt)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "aligned").exists()

    @pytest.mark.parametrize("edit,named", [
        (lambda header: [header], "head.json: expected a JSON object of HeadModel fields"),
        (lambda header: {**header, "target_offset": ["a", "b"]},
         'head.json: target_offset[0] must be a number, got "a"'),
        # one offset would make a 1-channel head, which the 4-channel scale does not fit
        (lambda header: {**header, "input_offset": [0.0]},
         "head.json: input_scale must be a list of 1 numbers, got ["),
        (lambda header: {**header, "input_offset": []},
         "head.json: input_offset must be a non-empty list of numbers, got []"),
        (lambda header: {**header, "class_labels": 5}, "head.json: class_labels must be a list, got 5"),
        (lambda header: {**header, "class_labels": [3]},
         "head.json: class_labels must be null or a list of at least 2 integers, got [3]"),
        (lambda header: {**header, "config": {**header["config"], "hidden_dim": 8}},
         "head.json: param 0 has shape (16, 4), not (8, 4)"),
        (lambda header: {**header, "loss_trace": 5}, "head.json: loss_trace must be a list, got 5"),
        (lambda header: {**header, "loss_trace": [0.5, "x"]},
         'head.json: loss_trace[1] must be a number, got "x"'),
        (lambda header: {**header, "holdout_accuracy": "high"},
         'head.json: holdout_accuracy must be a number, got "high"'),
        # numbers that are no finite float64, and scales not > 0
        (lambda header: {**header, "input_scale": [float("nan"), *header["input_scale"][1:]]},
         "head.json: input_scale[0] must be finite, got NaN"),
        (lambda header: {**header, "input_scale": [0, *header["input_scale"][1:]]},
         "head.json: input_scale entries must be > 0, got [0, "),
        (lambda header: {**header, "target_scale": [float("inf"), *header["target_scale"][1:]]},
         "head.json: target_scale[0] must be finite, got Infinity"),
        (lambda header: {**header, "input_offset": [10**400, *header["input_offset"][1:]]},
         "head.json: input_offset[0] must be finite, got 1000"),
        # the derived keys a checkpoint written before they were dropped carries
        (lambda header: {**header, "n_params": 4,
                         "param_shapes": [[16, 4], [16], [2, 16], [2]]},
         "head.json: unknown HeadModel keys ['n_params', 'param_shapes']"),
        # the channel count and seed a checkpoint written before they were dropped carries
        (lambda header: {**header, "in_channels": 4, "seed": 0},
         "head.json: unknown HeadModel keys ['in_channels', 'seed']"),
        # the network is built from config and the param files, never read from head.json
        (lambda header: {**header, "network": {}}, "head.json: unknown HeadModel keys ['network']"),
    ], ids=["json-list", "target-offset-str", "input-offset-short", "input-offset-empty",
            "class-labels-int", "class-labels-one", "param-shape", "loss-trace-int",
            "loss-trace-str-entry", "holdout-str", "input-scale-nan", "input-scale-0",
            "target-scale-inf", "input-offset-400-digits", "old-param-keys",
            "old-channel-seed-keys", "network-key"])
    def test_align_with_malformed_head_json_is_data_error(
            self, pipeline, tmp_path, capsys, edit, named):
        ckpt = tmp_path / "reg"
        shutil.copytree(pipeline / "reg", ckpt)
        header = json.loads((ckpt / "head.json").read_text())
        (ckpt / "head.json").write_text(json.dumps(edit(header)))
        assert main(["align", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"), "--out", str(tmp_path / "aligned"),
                     "--mode", "regressor", "--model", str(ckpt)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "aligned").exists()

    def test_align_with_missing_param_file_is_data_error(self, pipeline, tmp_path, capsys):
        """The head the config builds fixes the parameter count: a 2lin head
        reads param_000 to param_003, and a missing one is named."""
        ckpt = tmp_path / "reg"
        shutil.copytree(pipeline / "reg", ckpt)
        (ckpt / "param_003.adt").unlink()
        assert main(["align", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"), "--out", str(tmp_path / "aligned"),
                     "--mode", "regressor", "--model", str(ckpt)]) == 2
        assert str(ckpt / "param_003.adt") in capsys.readouterr().err
        assert not (tmp_path / "aligned").exists()

    @pytest.mark.parametrize("ckpt", ["reg", "clf"])
    def test_head_json_keys_in_file_order(self, pipeline, ckpt):
        assert list(json.loads((pipeline / ckpt / "head.json").read_text())) == HEAD_JSON_KEYS

    def test_head_json_keys_are_head_model_fields(self):
        assert HEAD_JSON_KEYS == columns(HeadModel)

    @pytest.mark.parametrize("key", HEAD_JSON_KEYS)
    @pytest.mark.parametrize("ckpt,flags", [
        ("reg", ["--mode", "regressor"]),
        ("clf", ["--mode", "classifier", "--stats", "{root}/stats.csv"]),
    ], ids=["regressor", "classifier"])
    def test_align_without_a_head_json_key_is_data_error(
            self, pipeline, tmp_path, capsys, ckpt, flags, key):
        model = tmp_path / ckpt
        shutil.copytree(pipeline / ckpt, model)
        header = json.loads((model / "head.json").read_text())
        del header[key]
        (model / "head.json").write_text(json.dumps(header))
        out = tmp_path / "aligned"
        assert main(["align", "--data", str(pipeline / "data"), "--maps", str(pipeline / "maps"),
                     "--out", str(out), "--model", str(model)]
                    + [a.format(root=pipeline) for a in flags]) == 2
        assert capsys.readouterr().err == f"error: {model / 'head.json'}: {key} is missing\n"
        assert not out.exists()

    # the fixture manifest lists class 0's 12 train images first, then its test images
    @pytest.mark.parametrize("edit,argv,named", [
        (lambda doc: operator.setitem(doc, "images", 5), ["fit-base"],
         "expected an object with an 'images' list"),
        (lambda doc: operator.setitem(doc["images"], 0, "c00_train_0000"), ["fit-base"],
         "images[0]: expected a JSON object of ImageEntry fields"),
        (lambda doc: operator.setitem(doc["images"][0], "feature_path", 7), ["fit-base"],
         "images[0]: feature_path must be a string, got 7"),
        (lambda doc: operator.setitem(doc["images"][0], "class_id", "0"),
         ["stats", "--maps", "{root}/maps"], 'images[0]: class_id must be an integer, got "0"'),
        (lambda doc: operator.setitem(doc["images"][0], "image_id", 7),
         ["stats", "--maps", "{root}/maps"], "images[0]: image_id must be a string, got 7"),
        (lambda doc: operator.setitem(doc["images"][0], "class_id", 0.0),
         ["stats", "--maps", "{root}/maps"], "images[0]: class_id must be an integer, got 0.0"),
        (lambda doc: operator.setitem(doc["images"][0], "class_id", True),
         ["stats", "--maps", "{root}/maps"], "images[0]: class_id must be an integer, got true"),
        (lambda doc: operator.setitem(doc["images"][12], "class_id", "x"),
         ["eval", "--maps", "{root}/maps"], 'images[12]: class_id must be an integer, got "x"'),
        (lambda doc: doc["images"][12].pop("split"),
         ["eval", "--maps", "{root}/maps"], "images[12]: split is missing"),
        (lambda doc: operator.setitem(doc["images"][0], "split", "val"),
         ["stats", "--maps", "{root}/maps"], "c00_train_0000: invalid split 'val'"),
        (lambda doc: operator.setitem(doc["images"][12], "label", "odd"),
         ["eval", "--maps", "{root}/maps"], "c00_testn_0000: invalid label 'odd'"),
        (lambda doc: operator.setitem(doc["images"][1], "image_id", "c00_train_0000"),
         ["stats", "--maps", "{root}/maps"], "duplicate image_id 'c00_train_0000'"),
        (lambda doc: operator.setitem(doc["images"][0], "label", "anomalous"),
         ["fit-base"], "c00_train_0000: train split must contain only normal images"),
        (lambda doc: operator.setitem(doc["images"][12], "mask_path", "m.adt"),
         ["eval", "--maps", "{root}/maps"], "c00_testn_0000: mask_path on a normal image"),
    ], ids=["images-int", "record-str", "feature-path-int", "train-class-str", "image-id-int",
            "class-float", "class-bool", "test-class-str", "split-missing", "split-val",
            "label-odd", "duplicate-id", "anomalous-train", "mask-on-normal"])
    def test_malformed_manifest_is_data_error_naming_file(
            self, pipeline, tmp_path, capsys, edit, argv, named):
        manifest = _manifest_copy(pipeline, tmp_path / "data", edit)
        out = tmp_path / "out"
        assert main([a.format(root=pipeline) for a in argv]
                    + ["--data", str(manifest.parent), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{manifest}: " in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,named", [
        (["stats", "--maps", "{root}/maps"], "stats needs class_ids"),
        (["train-head", "--mode", "classifier"], "train-head --mode classifier needs class_ids"),
    ], ids=["stats", "train-head-classifier"])
    def test_train_images_without_class_ids_are_data_error(
            self, pipeline, tmp_path, capsys, argv, named):
        manifest = _manifest_copy(pipeline, tmp_path / "data", _drop_class_ids("train"))
        out = tmp_path / "out"
        assert main([a.format(root=pipeline) for a in argv]
                    + ["--data", str(manifest.parent), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_eval_with_missing_score_map_is_data_error(self, pipeline, tmp_path, capsys):
        maps = tmp_path / "maps"
        shutil.copytree(pipeline / "maps", maps)
        gone = sorted(maps.glob("c00_testa_*.adt"))[0]
        gone.unlink()
        assert main(["eval", "--data", str(pipeline / "data"), "--maps", str(maps),
                     "--out", str(tmp_path / "m.csv")]) == 2
        assert f"{gone.stem}: missing score map {gone}" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    def test_report_rejects_non_metrics_csv(self, pipeline, tmp_path, capsys):
        assert main(["report", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"), "--out", str(tmp_path / "report"),
                     "--metrics", str(pipeline / "stats.csv")]) == 2
        assert "header" in capsys.readouterr().err
        assert not (tmp_path / "report" / "metrics_combined.csv").exists()

    @pytest.mark.parametrize("line,edit,named", [
        (5, lambda table: table.append(table[1]), "repeated class_id 0"),
        (3, lambda table: table[2].pop(), "5 cells"),
        (3, lambda table: operator.setitem(table[2], 1, "nan"), "non-finite"),
        # align's default variant, meanmax, reads no sigma; the file is still rejected
        (2, lambda table: operator.setitem(table[1], 3, "-0.5"), "sigma must be >= 0, got -0.5"),
    ], ids=["repeated-class", "five-cells", "nan-cell", "negative-sigma"])
    def test_malformed_stats_csv_is_data_error_naming_line(
            self, pipeline, tmp_path, capsys, line, edit, named):
        table = [r.split(",") for r in (pipeline / "stats.csv").read_text().splitlines()]
        edit(table)
        bad = tmp_path / "stats.csv"
        bad.write_text("".join(",".join(r) + "\n" for r in table))
        assert main(["align", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"), "--out", str(tmp_path / "aligned"),
                     "--mode", "oracle", "--stats", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:{line}: " in err and named in err
        assert not (tmp_path / "aligned").exists()

    def test_report_metrics_row_of_wrong_length_is_data_error(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "metrics_bad.csv"
        bad.write_text("scope,i_auroc,i_ap,p_auroc,p_ap,n_images,n_pixels\n"
                       "mixed,0.5,0.5,,,36,2304\n"
                       "macro,0.5,0.5,,,36,2304,0.5\n")
        assert main(["report", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"), "--out", str(tmp_path / "report"),
                     "--metrics", str(bad)]) == 2
        assert f"{bad}:3: 8 cells" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("config,message", [
        ({"k_classes": 3, "bogus": 1}, "bogus"),
        ([3], "JSON object"),
    ])
    def test_gen_config_with_bad_fields_is_data_error(self, tmp_path, capsys, config, message):
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(config))
        assert main(["gen", "--out", str(tmp_path / "data"), "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("config,message", [
        ({"grid_h": [4]}, "grid_h must be an integer, got [4]"),
        ({"grid_w": "4"}, 'grid_w must be an integer, got "4"'),
        ({"k_classes": "3"}, "k_classes must be an integer"),
        ({"k_classes": 3.0}, "k_classes must be an integer"),
        ({"center_radius": True}, "center_radius must be a number"),
    ], ids=["grid-int", "grid-str-side", "k-str", "k-float", "radius-bool"])
    def test_gen_config_with_wrongly_typed_value_is_data_error(
            self, tmp_path, capsys, config, message):
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(config))
        assert main(["gen", "--out", str(tmp_path / "data"), "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("mode", ["regressor", "classifier"])
    def test_align_with_head_of_other_channel_count_is_data_error(
            self, pipeline, tmp_path, capsys, mode):
        """An 8-channel head on the fixture's 4-channel features: one message
        names both counts, and no map is written."""
        class_labels = [0, 1, 2] if mode == "classifier" else None
        out_dim = 3 if class_labels else 2
        cfg = HeadConfig(structure="1conv+2lin", hidden_dim=4)
        save_checkpoint(HeadModel(cfg, build_head(cfg, 8, out_dim, np.random.default_rng(0)),
                                  np.zeros(out_dim), np.ones(out_dim), np.zeros(8), np.ones(8),
                                  [], None, class_labels), tmp_path / "head")
        out = tmp_path / "aligned"
        stats = ["--stats", str(pipeline / "stats.csv")] if class_labels else []
        assert main(["align", "--data", str(pipeline / "data"), "--maps", str(pipeline / "maps"),
                     "--mode", mode, "--model", str(tmp_path / "head"), *stats,
                     "--out", str(out)]) == 2
        assert "features have 4 channels, the head takes 8" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_manifest_is_data_error(self, tmp_path):
        assert main(["fit-base", "--data", str(tmp_path / "void"),
                     "--out", str(tmp_path / "out")]) == 2

    def test_corrupt_tensor_is_data_error(self, pipeline, tmp_path, capsys):
        man = read_manifest(pipeline / "data" / "manifest.json")
        e = man.split("test")[0]
        bad = tmp_path / "badmaps"
        bad.mkdir()
        for entry in man.split("test"):
            src = pipeline / "maps" / f"{entry.image_id}.adt"
            (bad / f"{entry.image_id}.adt").write_bytes(src.read_bytes())
        (bad / f"{e.image_id}.adt").write_bytes(b"ADT1garbage")
        assert main(["eval", "--data", str(pipeline / "data"),
                     "--maps", str(bad), "--out", str(tmp_path / "m.csv")]) == 2

    def test_eval_without_anomalous_images_is_data_error(self, pipeline, tmp_path):
        man = json.loads((pipeline / "data" / "manifest.json").read_text())
        man["images"] = [r for r in man["images"] if r["label"] == "normal"]
        data = tmp_path / "normals_only"
        data.mkdir()
        (data / "manifest.json").write_text(json.dumps(man))
        bad_maps = tmp_path / "maps"
        bad_maps.mkdir()
        for r in man["images"]:
            if r["split"] == "test":
                src = pipeline / "maps" / f"{r['image_id']}.adt"
                (bad_maps / f"{r['image_id']}.adt").write_bytes(src.read_bytes())
        assert main(["eval", "--data", str(data), "--maps", str(bad_maps),
                     "--out", str(tmp_path / "m.csv")]) == 2


def _config_defaults_checked(argv) -> set:
    """Compare each HeadConfig/TrainConfig field a subcommand exposes as a
    flag with the parsed default; return the names of the fields compared."""
    parsed = vars(build_parser().parse_args(argv))
    checked = set()
    for f in fields(HeadConfig) + fields(TrainConfig):
        dest = {"dropout_rate": "dropout"}.get(f.name, f.name)
        if dest in parsed:
            assert parsed[dest] == f.default, f.name
            assert type(parsed[dest]) is type(f.default), f.name
            checked.add(f.name)
    return checked


def _action(subcommand, dest):
    """The parser action of `subcommand` whose dest is `dest`."""
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a.choices, dict)]
    (action,) = [a for a in subparsers.choices[subcommand]._actions if a.dest == dest]
    return action


class TestFlagDefaults:
    def test_gen_flags_are_the_synth_config_fields(self):
        """One name per setting: gen's flags parse to SynthConfig's fields,
        with their default values and types."""
        parsed = vars(build_parser().parse_args(["gen", "--out", "o"]))
        for key in ("subcommand", "func", "out", "config"):
            del parsed[key]
        want = asdict(synth.SynthConfig())
        assert parsed == want
        assert {k: type(v) for k, v in parsed.items()} == {k: type(v) for k, v in want.items()}

    def test_choice_flags_offer_each_name_set(self):
        assert _action("train-head", "structure").choices == sorted(STRUCTURES)
        assert _action("train-head", "target").choices == VARIANTS
        assert _action("align", "variant").choices == VARIANTS

    def test_train_head_defaults_are_the_config_defaults(self):
        checked = _config_defaults_checked(["train-head", "--data", "d", "--out", "o"])
        assert checked == {f.name for f in fields(HeadConfig) + fields(TrainConfig)}

    def test_ablate_defaults_are_the_config_defaults(self):
        checked = _config_defaults_checked(["ablate", "--data", "d", "--maps", "m",
                                            "--out", "o"])
        assert checked == {"hidden_dim", "iterations", "seed"}


class TestAblateCommand:
    # 2 iterations is deliberately untrained: degenerate-scale clamps expected
    @pytest.mark.filterwarnings("ignore::scorealign.align.DegenerateScaleWarning")
    def test_grid_csv_structure(self, pipeline):
        out = pipeline / "ablation.csv"
        assert main(["ablate", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"), "--out", str(out),
                     "--hidden-dim", "8", "--iterations", "2"]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ("structure,dropout,top_fraction,"
                            "raw_i_auroc,cada_i_auroc,raw_i_ap,cada_i_ap")
        assert len(lines) == 1 + 5 * 4 * 4  # structures x dropouts x aggregations
        cells = {(r.split(",")[0], r.split(",")[1]) for r in lines[1:]}
        assert len(cells) == 20

    @pytest.mark.filterwarnings("ignore::scorealign.align.DegenerateScaleWarning")
    def test_worker_cells_equal_in_process_training(self, pipeline, tmp_path):
        """A cell trained on a worker gives the CSV rows of the same training
        in this process, whatever the worker count."""
        out = tmp_path / "ablation.csv"
        assert main(["ablate", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"), "--out", str(out),
                     "--hidden-dim", "8", "--iterations", "2"]) == 0
        lines = out.read_text().strip().split("\n")[1:]

        man = read_manifest(pipeline / "data" / "manifest.json")
        maps = {e.image_id: read_tensor(pipeline / "maps" / f"{e.image_id}.adt")
                for e in man.images}
        entries, x = cli._read_stack(man, "train")
        test_entries, test_x = cli._read_stack(man, "test")
        features = dict(zip((e.image_id for e in test_entries), test_x))
        test_maps = {e.image_id: maps[e.image_id] for e in man.split("test")}
        expected = []
        for structure, dropout in [("2lin", 0.0), ("1conv+2lin", 0.25)]:
            model = train_regressor(x, [maps[e.image_id] for e in entries],
                                    HeadConfig(structure=structure, hidden_dim=8,
                                               dropout_rate=dropout),
                                    TrainConfig(iterations=2))
            aligned = align_maps(test_maps, lambda i: predict_stats(model, features[i]))
            for tf in cli.ABLATION_TOP_FRACTIONS:
                raw = metrics.evaluate(man, test_maps, top_fraction=tf)[0]
                cal = metrics.evaluate(man, aligned, top_fraction=tf)[0]
                expected.append(csv_row((structure, dropout, tf, raw.i_auroc, cal.i_auroc,
                                         raw.i_ap, cal.i_ap)))
        assert [line for line in lines
                if line.startswith(("2lin,0.0,", "1conv+2lin,0.25,"))] == expected

    @pytest.mark.parametrize("flags,message", [
        (["--hidden-dim", "0"], "hidden_dim must be >= 1, got 0"),
        (["--iterations", "0"], "iterations must be >= 1, got 0"),
    ], ids=["hidden-dim", "iterations"])
    def test_failed_cell_is_data_error_leaving_no_csv_or_worker(
            self, pipeline, tmp_path, capsys, flags, message):
        out = tmp_path / "new" / "ablation.csv"
        assert main(["ablate", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"), "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.parent.exists()

    @pytest.mark.filterwarnings("ignore::scorealign.align.DegenerateScaleWarning")
    @pytest.mark.parametrize("preset", [None, "3"], ids=["unset", "preset"])
    def test_blas_thread_variables_are_restored(self, pipeline, tmp_path, monkeypatch, preset):
        for var in cli.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        if preset is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
        before = {var: os.environ.get(var) for var in cli.BLAS_THREAD_VARS}
        assert main(["ablate", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"), "--out", str(tmp_path / "ablation.csv"),
                     "--hidden-dim", "2", "--iterations", "1"]) == 0
        assert {var: os.environ.get(var) for var in cli.BLAS_THREAD_VARS} == before


class TestTrainStack:
    """fit-base, train-head and each ablate worker read each split they need
    once, the train split straight into one stack in the feature files' dtype
    (float32); align reads each image's features once, and the ablate parent none."""

    @pytest.mark.filterwarnings("ignore::scorealign.align.DegenerateScaleWarning")
    @pytest.mark.parametrize("argv,split", [
        (["train-head", "--mode", "regressor", "--maps", "{root}/maps", "--structure", "2lin",
          "--hidden-dim", "4", "--iterations", "2"], "train"),
        (["train-head", "--mode", "classifier", "--structure", "2lin", "--hidden-dim", "4",
          "--iterations", "2"], "train"),
        (["fit-base", "--m-per-image", "8"], "train"),
        (["align", "--mode", "regressor", "--maps", "{root}/maps", "--model", "{root}/reg"],
         "test"),
        (["align", "--mode", "classifier", "--maps", "{root}/maps", "--model", "{root}/clf",
          "--stats", "{root}/stats.csv"], "test"),
    ], ids=["regressor", "classifier", "fit-base", "align-regressor", "align-classifier"])
    def test_each_train_feature_file_is_read_once(
            self, pipeline, tmp_path, monkeypatch, argv, split):
        reads = _count_reads(monkeypatch)
        assert main([a.format(root=pipeline) for a in argv]
                    + ["--data", str(pipeline / "data"), "--out", str(tmp_path / "out")]) == 0
        man = read_manifest(pipeline / "data" / "manifest.json")
        feats = {man.resolve(e.feature_path) for e in man.split(split)}
        assert {path: n for path, n in reads.items() if path in feats} == dict.fromkeys(feats, 1)

    @pytest.mark.filterwarnings("ignore::scorealign.align.DegenerateScaleWarning")
    def test_ablate_parent_reads_no_feature_file(self, pipeline, tmp_path, monkeypatch):
        reads = _count_reads(monkeypatch)
        assert main(["ablate", "--data", str(pipeline / "data"), "--maps", str(pipeline / "maps"),
                     "--out", str(tmp_path / "out"), "--hidden-dim", "2",
                     "--iterations", "1"]) == 0
        man = read_manifest(pipeline / "data" / "manifest.json")
        assert not reads.keys() & {man.resolve(e.feature_path) for e in man.images}

    def test_ablate_worker_reads_each_feature_file_once(self, pipeline, monkeypatch):
        """A worker's first cell reads both splits; its later cells read nothing."""
        reads = _count_reads(monkeypatch)
        monkeypatch.setattr(cli, "_worker", {})  # a new worker's cache, restored when the test ends
        man = read_manifest(pipeline / "data" / "manifest.json")
        settings = {"hidden_dim": 2, "iterations": 1, "seed": 0}
        for cell in [("2lin", 0.0), ("3lin", 0.5)]:
            scales = cli._ablate_cell(man, pipeline / "maps", settings, cell)
            assert list(scales) == sorted(e.image_id for e in man.split("test"))
        feats = {man.resolve(e.feature_path) for e in man.images}
        assert {path: n for path, n in reads.items() if path in feats} == dict.fromkeys(feats, 1)

    @pytest.mark.filterwarnings("ignore::scorealign.align.DegenerateScaleWarning")
    def test_ablate_parent_never_holds_a_split(self, tmp_path):
        data, maps = _stack_data(tmp_path, maps=True)
        # the pool's modules, imported by the first pool a process starts, are no data
        import concurrent.futures.process  # noqa: F401
        import multiprocessing.popen_spawn_posix  # noqa: F401
        peak = _peak_bytes(["ablate", "--data", data, "--maps", maps,
                            "--out", str(tmp_path / "ablation.csv"), "--hidden-dim", "2",
                            "--iterations", "1"])
        # ~0.25x: the manifest, the test maps and the pool; the stack alone would be 1x
        assert peak < 0.5 * STACK_BYTES

    @pytest.mark.parametrize("change,named", [
        (lambda f: f.astype(np.float64), "features float64 (4, 8, 8), not float32 (4, 8, 8)"),
        (lambda f: f[:, :, :7], "features float32 (4, 8, 7), not float32 (4, 8, 8)"),
    ], ids=["dtype", "shape"])
    @pytest.mark.parametrize("argv,split", [
        (["train-head", "--mode", "classifier", "--iterations", "1"], "train"),
        (["fit-base"], "train"),
        (["ablate", "--maps", "{root}/maps", "--iterations", "1"], "train"),
        (["ablate", "--maps", "{root}/maps", "--iterations", "1"], "test"),
    ], ids=["train-head", "fit-base", "ablate", "ablate-test"])
    def test_mixed_feature_dtypes_are_data_error(
            self, pipeline, tmp_path, capsys, argv, split, change, named):
        """A file of another dtype or shape than the split's first is rejected, not cast."""
        man = read_manifest(pipeline / "data" / "manifest.json")
        last = sorted(man.split(split), key=lambda e: e.image_id)[-1]
        odd = tmp_path / "odd.adt"
        write_tensor(odd, change(read_tensor(man.resolve(last.feature_path))))

        def edit(doc):
            rec = next(r for r in doc["images"] if r["image_id"] == last.image_id)
            rec["feature_path"] = str(odd)
        _manifest_copy(pipeline, tmp_path / "data", edit)
        out = tmp_path / "out"
        assert main([a.format(root=pipeline) for a in argv]
                    + ["--data", str(tmp_path / "data"), "--out", str(out)]) == 2
        assert f"error: {last.image_id}: {named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,split", [
        (["score", "--coreset", "{root}/coreset", "--split", "test"], "test"),
        (["fit-base"], "train"),
        (["train-head", "--mode", "classifier", "--iterations", "1"], "train"),
        (["align", "--mode", "regressor", "--maps", "{root}/maps", "--model", "{root}/reg"],
         "test"),
    ], ids=["score", "fit-base", "train-head", "align"])
    def test_features_that_are_not_3d_are_data_error(
            self, pipeline, tmp_path, capsys, argv, split):
        """A (4, 16) feature file for the split's first image exits 2 naming the
        image and the shape, and leaves no --out."""
        first = sorted(read_manifest(pipeline / "data" / "manifest.json").split(split),
                       key=lambda e: e.image_id)[0]
        flat = tmp_path / "flat.adt"
        write_tensor(flat, np.ones((4, 16), dtype=np.float32))

        def edit(doc):
            rec = next(r for r in doc["images"] if r["image_id"] == first.image_id)
            rec["feature_path"] = str(flat)
        _manifest_copy(pipeline, tmp_path / "data", edit)
        out = tmp_path / "out"
        assert main([a.format(root=pipeline) for a in argv]
                    + ["--data", str(tmp_path / "data"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {first.image_id}: features of shape (4, 16), not [C, H, W]\n")
        assert not out.exists()

    def test_train_head_peak_memory_is_the_stack(self, tmp_path):
        data, _ = _stack_data(tmp_path)
        peak = _peak_bytes(["train-head", "--data", data, "--mode", "classifier",
                            "--out", str(tmp_path / "clf"), "--structure", "2lin",
                            "--hidden-dim", "8", "--iterations", "3", "--batch-size", "2"])
        # ~1.2x: the float32 stack plus the network and its batches; a float64
        # copy of the stack alone would be 2x
        assert peak < 1.3 * STACK_BYTES

    def test_regressor_train_head_keeps_targets_not_maps(self, tmp_path):
        data, maps = _stack_data(tmp_path, maps=True)
        peak = _peak_bytes(["train-head", "--data", data, "--maps", maps, "--mode", "regressor",
                            "--out", str(tmp_path / "reg"), "--structure", "2lin",
                            "--hidden-dim", "8", "--iterations", "3", "--batch-size", "2"])
        # ~1.2x, as the classifier: each map is reduced to its (u, gamma) as it
        # is read; holding the 200 float64 maps as well would be ~1.5x
        assert peak < 1.3 * STACK_BYTES

    def test_fit_base_streams_its_images(self, tmp_path):
        data, _ = _stack_data(tmp_path)
        peak = _peak_bytes(["fit-base", "--data", data, "--out", str(tmp_path / "coreset")])
        # ~0.3x: the float64 coreset (16 of 256 locations, 0.125x), its float32
        # chunks and one image at a time; the train stack alone would be 1x
        assert peak < 0.5 * STACK_BYTES

    def test_score_holds_one_chunk_not_the_split(self, tmp_path):
        data, _ = _stack_data(tmp_path)
        coreset = str(tmp_path / "coreset")
        assert main(["fit-base", "--data", data, "--out", coreset]) == 0
        peak = _peak_bytes(["score", "--data", data, "--coreset", coreset, "--split", "train",
                            "--out", str(tmp_path / "maps")])
        # ~1.45x: one chunk of 64 images as float32 features (0.33x) and float64
        # rows (0.64x), its distances and the coreset; holding the split's maps
        # and a float64 copy of each chunk's images as well was ~2.9x
        assert peak < 2.0 * STACK_BYTES


class TestGenCommand:
    def test_config_keys_win_and_flags_fill_the_rest(self, tmp_path):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({"k_classes": 2, "grid_h": 6, "grid_w": 6, "train_normal": 3,
                                      "test_normal": 2, "test_anomalous": 2, "seed": 1}))
        assert main(["gen", "--out", str(tmp_path / "from_config"), "--config", str(config),
                     "--k-classes", "4", "--seed", "5", "--feat-dim", "3"]) == 0
        assert main(["gen", "--out", str(tmp_path / "from_flags"), "--k-classes", "2",
                     "--grid-h", "6", "--grid-w", "6", "--train-normal", "3",
                     "--test-normal", "2", "--test-anomalous", "2", "--seed", "1",
                     "--feat-dim", "3"]) == 0
        assert _tree_bytes(tmp_path / "from_config") == _tree_bytes(tmp_path / "from_flags")
        recorded = [json.loads((tmp_path / d / "run_config.json").read_text())
                    for d in ("from_config", "from_flags")]
        for cfg in recorded:
            del cfg["config"], cfg["out"]
        assert recorded[0] == recorded[1]
        assert (recorded[0]["k_classes"], recorded[0]["seed"], recorded[0]["feat_dim"]) == (2, 1, 3)

    def test_rarely_drawn_area_range_still_generates(self, tmp_path):
        """On a 1000 x 1 grid only a 1 x 1 rectangle covers area fraction 0.001,
        and a draw finds it once in 1,000 tries: after 1,000 misses the size is
        drawn from those that fit, so gen exits 0 and each anomaly is one cell."""
        out = tmp_path / "d"
        assert main(["gen", "--out", str(out), "--grid-h", "1000", "--grid-w", "1",
                     "--area-min", "0.001", "--area-max", "0.001", "--k-classes", "2",
                     "--train-normal", "2", "--test-normal", "1", "--test-anomalous", "3"]) == 0
        man = read_manifest(out / "manifest.json")
        masks = [read_tensor(man.resolve(e.mask_path)) for e in man.images
                 if e.label == "anomalous"]
        assert len(masks) == 6
        assert [float(m.sum()) for m in masks] == [1.0] * 6


def _drop_class_ids(*splits):
    """A manifest edit deleting the class_id of every image in splits."""
    def edit(doc):
        for rec in doc["images"]:
            if rec["split"] in splits:
                del rec["class_id"]
    return edit


class TestClassAgnostic:
    """The paper's absolute-unified claim: the label-free path reads no class label."""

    def test_regressor_path_without_class_ids_matches_labelled_run(self, pipeline, tmp_path):
        blind = _manifest_copy(pipeline, tmp_path / "blind", _drop_class_ids("train", "test"))
        maps = str(pipeline / "maps")
        # the flags the pipeline fixture trained its "reg" head with
        assert main(["train-head", "--data", str(blind.parent), "--maps", maps,
                     "--mode", "regressor", "--out", str(tmp_path / "reg"), "--structure", "2lin",
                     "--hidden-dim", "16", "--iterations", "60"]) == 0
        assert _tree_bytes(tmp_path / "reg") == _tree_bytes(pipeline / "reg")
        for tag, data in (("labelled", pipeline / "data"), ("blind", blind.parent)):
            aligned = tmp_path / f"aligned_{tag}"
            assert main(["align", "--data", str(data), "--maps", maps, "--mode", "regressor",
                         "--model", str(tmp_path / "reg"), "--out", str(aligned)]) == 0
            assert main(["eval", "--data", str(data), "--maps", str(aligned),
                         "--out", str(tmp_path / f"metrics_{tag}.csv")]) == 0
        assert _tree_bytes(tmp_path / "aligned_blind") == _tree_bytes(tmp_path / "aligned_labelled")
        labelled = (tmp_path / "metrics_labelled.csv").read_text().splitlines()
        assert labelled[1].startswith("mixed,")
        assert (tmp_path / "metrics_blind.csv").read_text().splitlines() == labelled[:2]

    def test_classifier_align_without_test_class_ids_matches_labelled_run(
            self, pipeline, tmp_path, capsys):
        blind = _manifest_copy(pipeline, tmp_path / "blind", _drop_class_ids("test"))
        common = ["--maps", str(pipeline / "maps"), "--stats", str(pipeline / "stats.csv")]
        for tag, data in (("labelled", pipeline / "data"), ("blind", blind.parent)):
            assert main(["align", "--data", str(data), "--mode", "classifier",
                         "--model", str(pipeline / "clf"),
                         "--out", str(tmp_path / f"aligned_{tag}")] + common) == 0
        assert _tree_bytes(tmp_path / "aligned_blind") == _tree_bytes(tmp_path / "aligned_labelled")
        assert main(["align", "--data", str(blind.parent), "--mode", "oracle",
                     "--out", str(tmp_path / "oracle")] + common) == 2
        assert "class_ids" in capsys.readouterr().err
        assert not (tmp_path / "oracle").exists()


# every subcommand with --out -> its other arguments, its --out, and where the
# runner writes its run config: inside a directory output, beside a file output
RUN_CONFIGS = {
    "gen": (GEN_ARGS, "data", "data/run_config.json"),
    "fit-base": (["--data", "{root}/data", "--m-per-image", "8"],
                 "coreset", "coreset/run_config.json"),
    "score": (["--data", "{root}/data", "--coreset", "{root}/coreset", "--split", "test"],
              "maps", "maps/run_config.json"),
    "stats": (["--data", "{root}/data", "--maps", "{root}/maps"],
              "stats.csv", "stats.config.json"),
    "train-head": (["--data", "{root}/data", "--mode", "classifier", "--structure", "2lin",
                    "--hidden-dim", "4", "--iterations", "2"], "clf", "clf/run_config.json"),
    "align": (["--data", "{root}/data", "--maps", "{root}/maps", "--mode", "oracle",
               "--stats", "{root}/stats.csv"], "aligned", "aligned/run_config.json"),
    "eval": (["--data", "{root}/data", "--maps", "{root}/maps"],
             "metrics.csv", "metrics.config.json"),
    "report": (["--data", "{root}/data", "--maps", "{root}/maps"],
               "report", "report/run_config.json"),
    "ablate": (["--data", "{root}/data", "--maps", "{root}/maps", "--hidden-dim", "2",
                "--iterations", "2"], "ablation.csv", "ablation.config.json"),
}


class TestStageRunner:
    def test_only_main_reads_the_manifest_and_writes_the_run_config(self):
        """main is the one stage runner: every cmd_* takes (args, manifest), and
        no function but main reads the manifest or writes a run config."""
        calls, stage_args = [], {}
        for fn in ast.parse(Path(cli.__file__).read_text()).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name.startswith("cmd_"):
                stage_args[fn.name] = [a.arg for a in fn.args.args]
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in ("read_manifest", "_write_run_config"):
                        calls.append((fn.name, name))
        assert sorted(calls) == [("main", "_write_run_config"), ("main", "read_manifest")]
        assert stage_args and all(a == ["args", "manifest"] for a in stage_args.values()), stage_args

    def test_only_the_map_writer_makes_directories(self):
        """write_csv and write_json make their file's parent; _write_maps alone
        makes directories itself, as it must remove the ones it made on a failure."""
        makers = set()
        for top in ast.parse(Path(cli.__file__).read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(
                        node.func, "id", getattr(node.func, "attr", None)) in ("mkdir", "makedirs"):
                    makers.add(getattr(top, "name", "<module>"))
        assert makers == {"_write_maps"}

    def test_every_definition_is_referenced_in_the_package(self):
        """Each function and class under src/scorealign/ is named somewhere there,
        as a name or an attribute; dunders, and auroc/average_precision, which
        criterion 01 and the benchmark's tracer call, are exempt."""
        defined, referenced = set(), set()
        for path in Path(cli.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.add((path.stem, node.name))
                elif isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
        unreferenced = {(module, name) for module, name in defined if name not in referenced
                        and not (name.startswith("__") and name.endswith("__"))}
        assert unreferenced == {("metrics", "auroc"), ("metrics", "average_precision")}

    def test_every_subcommand_is_traced_by_the_benchmark(self):
        """perfbench/tracing.py times each stage it lists in CLI_SUBCOMMANDS;
        read through ast, so the benchmark's modules are not imported."""
        tracing = Path(__file__).parents[1] / "perfbench" / "tracing.py"
        (listed,) = [ast.literal_eval(node.value) for node in ast.parse(tracing.read_text()).body
                     if isinstance(node, ast.Assign)
                     and [getattr(t, "id", None) for t in node.targets] == ["CLI_SUBCOMMANDS"]]
        (subparsers,) = [a for a in build_parser()._actions if isinstance(a.choices, dict)]
        assert sorted(listed) == sorted(subparsers.choices)

    def test_every_subcommand_with_out_is_listed(self):
        (subparsers,) = [a for a in build_parser()._actions if isinstance(a.choices, dict)]
        with_out = {name for name, p in subparsers.choices.items()
                    if any(a.dest == "out" for a in p._actions)}
        assert with_out == set(RUN_CONFIGS)

    @pytest.mark.parametrize("subcommand", [
        pytest.param(name, marks=pytest.mark.filterwarnings(
            # 2 iterations is deliberately untrained: degenerate-scale clamps expected
            "ignore::scorealign.align.DegenerateScaleWarning")) if name == "ablate" else name
        for name in RUN_CONFIGS])
    def test_run_config_sits_where_the_runner_puts_it(self, pipeline, tmp_path, subcommand):
        flags, out, config = RUN_CONFIGS[subcommand]
        assert main([subcommand, *[a.format(root=pipeline) for a in flags],
                     "--out", str(tmp_path / out)]) == 0
        assert [*tmp_path.rglob("run_config.json"), *tmp_path.rglob("*.config.json")] == [
            tmp_path / config]
        recorded = json.loads((tmp_path / config).read_text())
        assert (recorded["subcommand"], recorded["out"]) == (subcommand, str(tmp_path / out))
