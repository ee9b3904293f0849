"""End-to-end acceptance suite.

Each test covers one numbered criterion; the conftest summary hook emits
one "[criterion NN] PASS/FAIL" line per criterion at the end of the run.
The shared fixture runs the full default-scale pipeline through the CLI
exactly as a user would.
"""

import time

import numpy as np
import pytest

from conftest import record_criterion
from test_metrics import ap_brute_force, auroc_pair_counting

from scorealign import heads, net
from scorealign.align import (
    ClassStats,
    align_maps,
    fit_class_stats,
    normalize_meanmax,
    scale_by_class,
)
from scorealign.cli import main
from scorealign.metrics import auroc, average_precision, image_score
from scorealign.net import smooth_l1
from scorealign.tensorio import read_manifest, read_tensor


def _pass(n, msg):
    record_criterion(n, msg)


def _run(argv):
    t0 = time.perf_counter()
    code = main(argv)
    assert code == 0, f"command failed ({code}): {argv}"
    return time.perf_counter() - t0


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """Default-scale pipeline: k=8 classes, 100/20/20 images, pinned
    hyperparameters; all artifacts produced through the CLI."""
    root = tmp_path_factory.mktemp("bench")
    data, maps = str(root / "data"), str(root / "maps")
    times = {}
    times["gen"] = _run(["gen", "--out", data, "--seed", "0"])
    times["fit-base"] = _run(["fit-base", "--data", data, "--out", str(root / "coreset")])
    times["score"] = _run(["score", "--data", data, "--coreset", str(root / "coreset"),
                           "--out", maps])
    times["stats"] = _run(["stats", "--data", data, "--maps", maps,
                           "--out", str(root / "stats.csv")])
    times["train-reg"] = _run(["train-head", "--data", data, "--maps", maps,
                               "--mode", "regressor", "--out", str(root / "reg")])
    times["train-reg-d0"] = _run(["train-head", "--data", data, "--maps", maps,
                                  "--mode", "regressor", "--dropout", "0.0",
                                  "--out", str(root / "reg_d0")])
    times["train-clf"] = _run(["train-head", "--data", data, "--mode", "classifier",
                               "--out", str(root / "clf")])
    for mode, extra in (("oracle", ["--stats", str(root / "stats.csv")]),
                        ("classifier", ["--stats", str(root / "stats.csv"),
                                        "--model", str(root / "clf")]),
                        ("regressor", ["--model", str(root / "reg")])):
        times[f"align-{mode}"] = _run(["align", "--data", data, "--maps", maps,
                                       "--out", str(root / f"aligned_{mode}"),
                                       "--mode", mode] + extra)
    times["eval-raw"] = _run(["eval", "--data", data, "--maps", maps,
                              "--out", str(root / "metrics_raw.csv")])
    for mode in ("oracle", "classifier", "regressor"):
        times[f"eval-{mode}"] = _run(["eval", "--data", data,
                                      "--maps", str(root / f"aligned_{mode}"),
                                      "--out", str(root / f"metrics_{mode}.csv")])

    manifest = read_manifest(root / "data" / "manifest.json")
    train_maps = {e.image_id: read_tensor(root / "maps" / f"{e.image_id}.adt")
                  for e in manifest.split("train")}
    test_maps = {e.image_id: read_tensor(root / "maps" / f"{e.image_id}.adt")
                 for e in manifest.split("test")}
    masks = {e.image_id: read_tensor(manifest.resolve(e.mask_path))
             for e in manifest.split("test") if e.mask_path}
    return {"root": root, "times": times, "manifest": manifest,
            "train_maps": train_maps, "test_maps": test_maps, "masks": masks}


def _mixed_macro(csv_path):
    lines = csv_path.read_text().strip().split("\n")[1:]
    rows = {l.split(",")[0]: l.split(",") for l in lines}
    return float(rows["mixed"][1]), float(rows["macro"][1])


def _fit_train_stats(bench):
    by_class = {}
    for e in bench["manifest"].split("train"):
        by_class.setdefault(e.class_id, []).append(bench["train_maps"][e.image_id])
    return by_class, fit_class_stats(by_class)


def test_criterion_01_metric_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_auroc = worst_ap = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        scores = np.round(rng.normal(size=n), 1)  # quantized: ties guaranteed
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        worst_auroc = max(worst_auroc,
                          abs(auroc(scores, labels) - auroc_pair_counting(scores, labels)))
        worst_ap = max(worst_ap,
                       abs(average_precision(scores, labels) - ap_brute_force(scores, labels)))
    elapsed = time.perf_counter() - t0
    assert worst_auroc < 1e-9
    assert worst_ap < 1e-9
    assert elapsed < 30.0
    _pass(1, f"1000 instances, max |auroc err| {worst_auroc:.2e}, "
             f"max |ap err| {worst_ap:.2e}, {elapsed:.1f}s")


def test_criterion_02_gradient_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for name in heads.STRUCTURES:
        cfg = heads.HeadConfig(structure=name, hidden_dim=16, dropout_rate=0.25)
        network = heads.build_head(cfg, 6, 2, rng)
        x = rng.normal(size=(1, 6, 6, 6))
        target = rng.normal(size=(1, 2))

        def loss_fn(out, target=target):
            loss, grad = smooth_l1(out, target, heads.ALPHA)
            return float(loss.sum()), grad

        err = net.grad_check(network, x, loss_fn, seed=0)
        assert err <= 1e-4, f"{name}: {err:.3e}"
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _pass(2, f"all {len(heads.STRUCTURES)} structures, worst relative error "
             f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_alignment_self_consistency(bench):
    t0 = time.perf_counter()
    by_class, stats = _fit_train_stats(bench)
    worst_u = worst_g = 0.0
    for st in stats:
        aligned = [normalize_meanmax(m, st.u, st.gamma) for m in by_class[st.class_id]]
        (new,) = fit_class_stats({st.class_id: aligned})
        worst_u = max(worst_u, abs(new.u))
        worst_g = max(worst_g, abs(new.gamma - 1.0))
    elapsed = time.perf_counter() - t0
    assert worst_u <= 1e-9
    assert worst_g <= 1e-9
    assert elapsed < 10.0
    _pass(3, f"8 classes refit: |u| <= {worst_u:.1e}, |gamma-1| <= {worst_g:.1e}, "
             f"{elapsed:.1f}s")


def test_criterion_04_within_class_rank_preservation(bench):
    manifest = bench["manifest"]
    _, stats = _fit_train_stats(bench)
    by_class = {s.class_id: s for s in stats}
    for cid in manifest.class_ids():
        entries = [e for e in manifest.split("test") if e.class_id == cid]
        st = by_class[cid]
        assert st.gamma - st.u > 1e-6
        raw_scores, labels = [], []
        aligned_scores = []
        raw_pix, aligned_pix, pix_labels = [], [], []
        for e in entries:
            values = bench["test_maps"][e.image_id]
            aligned = normalize_meanmax(values, st.u, st.gamma)
            raw_scores.append(image_score(values, 0.01))
            aligned_scores.append(image_score(aligned, 0.01))
            labels.append(1 if e.label == "anomalous" else 0)
            mask = bench["masks"].get(e.image_id)
            pix = (mask.ravel() > 0).astype(int) if mask is not None \
                else np.zeros(values.size, dtype=int)
            raw_pix.append(values.ravel())
            aligned_pix.append(aligned.ravel())
            pix_labels.append(pix)
        assert auroc(aligned_scores, labels) == auroc(raw_scores, labels)
        pl = np.concatenate(pix_labels)
        assert auroc(np.concatenate(aligned_pix), pl) == auroc(np.concatenate(raw_pix), pl)
    _pass(4, "per-class I-AUROC and P-AUROC bitwise identical before/after alignment")


def test_criterion_05_mechanism_reproduction(bench):
    root = bench["root"]
    raw_mixed, raw_macro = _mixed_macro(root / "metrics_raw.csv")
    oracle_mixed, _ = _mixed_macro(root / "metrics_oracle.csv")
    clf_mixed, _ = _mixed_macro(root / "metrics_classifier.csv")
    reg_mixed, _ = _mixed_macro(root / "metrics_regressor.csv")

    assert raw_mixed <= raw_macro - 0.10, f"(a) {raw_mixed} vs macro {raw_macro}"
    assert oracle_mixed >= raw_macro - 0.01, f"(b) oracle {oracle_mixed} vs macro {raw_macro}"
    assert abs(clf_mixed - oracle_mixed) <= 0.015, f"(c) {clf_mixed} vs {oracle_mixed}"
    assert oracle_mixed - reg_mixed <= 0.03, f"(d) {reg_mixed} vs {oracle_mixed}"
    total = sum(bench["times"].values())
    assert total < 300.0, f"pipeline took {total:.0f}s"
    _pass(5, f"raw {raw_mixed:.4f} / macro {raw_macro:.4f} / oracle {oracle_mixed:.4f} / "
             f"classifier {clf_mixed:.4f} / regressor {reg_mixed:.4f}; "
             f"pipeline {total:.0f}s")


def test_criterion_06_regressor_predicts_class_statistics(bench):
    manifest = bench["manifest"]
    _, stats = _fit_train_stats(bench)
    u_by_class = {s.class_id: s.u for s in stats}
    features = {e.image_id: read_tensor(manifest.resolve(e.feature_path))
                for e in manifest.split("test") if e.label == "anomalous"}

    def closer_fraction(ckpt):
        model = heads.load_checkpoint(bench["root"] / ckpt)
        good = total = 0
        for e in manifest.split("test"):
            if e.label != "anomalous":
                continue
            u_hat, _ = heads.predict_stats(model, features[e.image_id])
            u_img = float(np.mean(bench["test_maps"][e.image_id]))
            total += 1
            good += abs(u_hat - u_by_class[e.class_id]) < abs(u_hat - u_img)
        return good / total

    frac = closer_fraction("reg")
    frac_d0 = closer_fraction("reg_d0")  # recorded, not strictly ordered
    assert frac >= 0.80
    _pass(6, f"u_hat closer to u_c than to u_img on {frac:.1%} of anomalous images "
             f"(dropout 0.25); dropout-0 run: {frac_d0:.1%}")


def test_criterion_07_variant_equivalence():
    rng = np.random.default_rng(77)
    for i in range(100):
        values = rng.normal(loc=rng.uniform(-5, 5), scale=rng.uniform(0.1, 10),
                            size=(16, 16))
        u = float(rng.normal())
        sigma = float(rng.uniform(0.0, 5.0))
        # the path `align --variant meanstd` takes
        stats = [ClassStats(0, u, 0.0, sigma, 1, values.size)]
        scale_of = scale_by_class(stats, "meanstd", lambda _: 0)
        a = align_maps({f"m{i}": values}, scale_of)[f"m{i}"]
        b = normalize_meanmax(values, u, u + 3.0 * sigma)
        assert a.tobytes() == b.tobytes()
    _pass(7, "meanstd == meanmax with gamma = u + 3*sigma, bitwise, 100 random maps")


def test_criterion_08_smooth_l1_analytic_suite():
    alpha = 0.1
    # closed-form examples
    loss, grad = smooth_l1(np.array([0.05, 1.0, -1.0]), np.zeros(3), alpha)
    assert loss[0] == 0.05**2 / (2 * alpha)          # quadratic branch: 0.0125
    assert loss[1] == 1.0 - alpha / 2.0              # linear branch: 0.95
    assert loss[2] == 1.0 - alpha / 2.0
    assert (grad[1], grad[2]) == (1.0, -1.0)
    # boundary continuity to machine epsilon
    below, _ = smooth_l1(np.array([alpha * (1 - 1e-14)]), np.zeros(1), alpha)
    above, _ = smooth_l1(np.array([alpha * (1 + 1e-14)]), np.zeros(1), alpha)
    assert abs(below[0] - above[0]) <= 1e-12
    assert abs(below[0] - alpha / 2.0) <= 1e-12
    # gradient magnitude cap
    rng = np.random.default_rng(88)
    _, grad = smooth_l1(rng.normal(scale=20, size=1000), np.zeros(1000), alpha)
    assert np.max(np.abs(grad)) <= 1.0
    _pass(8, "closed forms exact, boundary continuous to machine eps, |grad| <= 1")


SMALL_GEN = ["--k-classes", "3", "--grid-h", "8", "--grid-w", "8", "--feat-dim", "4",
             "--train-normal", "10", "--test-normal", "5", "--test-anomalous", "5",
             "--seed", "0"]


def _small_pipeline(root):
    data, maps = str(root / "data"), str(root / "maps")
    _run(["gen", "--out", data] + SMALL_GEN)
    _run(["fit-base", "--data", data, "--out", str(root / "coreset"),
          "--m-per-image", "8"])
    _run(["score", "--data", data, "--coreset", str(root / "coreset"), "--out", maps])
    _run(["stats", "--data", data, "--maps", maps, "--out", str(root / "stats.csv")])
    _run(["train-head", "--data", data, "--maps", maps, "--out", str(root / "reg"),
          "--structure", "2lin", "--hidden-dim", "16", "--iterations", "40"])
    _run(["align", "--data", data, "--maps", maps, "--out", str(root / "aligned"),
          "--mode", "regressor", "--model", str(root / "reg")])
    _run(["eval", "--data", data, "--maps", str(root / "aligned"),
          "--out", str(root / "metrics.csv")])


def test_criterion_09_determinism(tmp_path):
    _small_pipeline(tmp_path / "run1")
    _small_pipeline(tmp_path / "run2")
    compared = 0
    for path in sorted((tmp_path / "run1").rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(tmp_path / "run1")
        # run configs embed the differing absolute output paths by design
        if path.name.endswith("config.json"):
            continue
        twin = tmp_path / "run2" / rel
        assert twin.is_file(), f"missing in second run: {rel}"
        assert path.read_bytes() == twin.read_bytes(), f"differs: {rel}"
        compared += 1
    assert compared > 100  # tensors, checkpoints, manifests, CSVs
    _pass(9, f"two seeded pipeline runs byte-identical across {compared} files")


def test_criterion_10_ablation_grid(bench):
    root = bench["root"]
    out = root / "ablation.csv"
    # reduced iteration count: the raw-vs-aligned ordering is established
    # well before the pinned 5000 iterations, and the grid has 20 trainings
    _run(["ablate", "--data", str(root / "data"), "--maps", str(root / "maps"),
          "--out", str(out), "--iterations", "500"])
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("structure,dropout,top_fraction")
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 5 * 4 * 4
    failures = [(r[0], r[1], r[2]) for r in rows if not float(r[4]) > float(r[3])]
    assert not failures, f"cells where CADA <= raw: {failures}"
    margin = min(float(r[4]) - float(r[3]) for r in rows)
    _pass(10, f"80/80 cells have CADA mixed I-AUROC > raw (min margin {margin:.4f})")
