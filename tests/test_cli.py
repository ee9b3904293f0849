import filecmp
import json

import numpy as np
import pytest

from scorealign.align import ScoreMap, normalize_meanmax, read_stats_csv
from scorealign.cli import main
from scorealign.heads import load_checkpoint, predict_class, predict_stats
from scorealign.tensorio import read_manifest, read_tensor

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
    return root


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        man = read_manifest(pipeline / "data" / "manifest.json", check_files=True)
        assert len(man) == 3 * (12 + 6 + 6)
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
        combined = (out / "metrics_combined.csv").read_text()
        assert "metrics_raw," in combined and "metrics_oracle," in combined

    def test_eval_max_aggregation(self, pipeline):
        csv = pipeline / "metrics_max.csv"
        assert main(["eval", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"), "--out", str(csv),
                     "--top-fraction", "max"]) == 0

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
        u, second = predict_stats(model, features)
        return (u, second) if variant == "meanmax" else (u, u + 3.0 * max(second, 0.0))
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
            raw = ScoreMap(e.image_id, read_tensor(pipeline / "maps" / f"{e.image_id}.adt"))
            expected = normalize_meanmax(raw, u, gamma).values
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

    def test_align_with_untrained_checkpoint_names_missing_file(self, pipeline, capsys):
        assert main(["align", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"),
                     "--out", str(pipeline / "nope"), "--mode", "regressor",
                     "--model", str(pipeline / "never_trained")]) == 2
        assert "head.json" in capsys.readouterr().err

    def test_report_rejects_non_metrics_csv(self, pipeline, tmp_path, capsys):
        assert main(["report", "--data", str(pipeline / "data"),
                     "--maps", str(pipeline / "maps"), "--out", str(tmp_path / "report"),
                     "--metrics", str(pipeline / "stats.csv")]) == 2
        assert "header" in capsys.readouterr().err
        assert not (tmp_path / "report" / "metrics_combined.csv").exists()

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


class TestGradCheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        assert main(["grad-check", "--channels", "3", "--grid", "4",
                     "--hidden-dim", "8"]) == 0
        out = capsys.readouterr().out
        assert out.count("max relative error") == 5

    def test_impossible_tolerance_fails_with_numerical_exit(self):
        assert main(["grad-check", "--channels", "3", "--grid", "4",
                     "--hidden-dim", "8", "--tolerance", "1e-300"]) == 3


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
