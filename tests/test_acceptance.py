"""End-to-end acceptance checks.

One test per guarantee the package makes, each printing a single
[PASS]/[FAIL] line (run with -s to see them all).  Tolerances and runtime
budgets are part of the check; configurations are frozen so every run
measures the same thing.
"""
import time

import numpy as np

from deformclass import (
    ArchSpec,
    BoundaryCurve,
    DeformDistribution,
    DeformParams,
    ExperimentConfig,
    Filter,
    GrayImage,
    OptSpec,
    TrainableCnn,
    align_images,
    build_filter_bank,
    classify_bank,
    cone,
    cross,
    emit_report,
    feature_max,
    gamma_scan,
    generate_dataset,
    grad_check,
    max_tree,
    non_identifiable_pair,
    normalize_l2,
    rasterize,
    riemann_error_report,
    run_experiment,
    tent,
)
from deformclass.datagen import unit_arrays
from deformclass.model import IDENTITY


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_indistinguishable_pair_agrees_on_grid():
    t0 = time.perf_counter()
    # unit scale pairs only with zero shift; shifted sets use scale > 1 so
    # the support-containment margins are real, not rounding artifacts
    param_sets = [
        (1.0, 1.0, 1.0, 0.0, 0.0),
        (1.5, 1.1, 1.0, 0.05, 0.0),
        (0.8, 1.0, 1.2, 0.0, 0.04),
        (1.2, 1.1, 1.1, 0.03, 0.03),
        (1.0, 1.1, 1.1, -0.02, -0.02),
    ]
    worst_gap = 0.0
    worst_margin = np.inf
    tq = (np.arange(2048) + 0.5) / 2048
    qx, qy = np.meshgrid(tq, tq, indexing="ij")
    for d in (8, 16, 32):
        bump_norm = None
        for eta, xi, xi_p, tau, tau_p in param_sets:
            pair = non_identifiable_pair(d, eta=eta, xi=xi, xi_prime=xi_p,
                                         tau=tau, tau_prime=tau_p)
            a = rasterize(pair.base, pair.raster_params, d)
            b = rasterize(pair.composite, IDENTITY, d)
            worst_gap = max(worst_gap, float(np.abs(a.pixels - b.pixels).max()))
            if bump_norm is None:
                bump_norm = float(np.sqrt(np.mean(pair.bump_grid(qx, qy) ** 2)))
            worst_margin = min(worst_margin, bump_norm * (8 * d))
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-12 and worst_margin >= 1.0 and elapsed < 10
    _verdict("grid-indistinguishable pair",
             ok, f"max pixel gap {worst_gap:.1e}, bump mass "
                 f"{worst_margin:.2f}x floor, {elapsed:.1f}s < 10s")


def test_circle_boundary_regularity():
    t0 = time.perf_counter()
    theta = 2 * np.pi * np.arange(256) / 256
    circle = BoundaryCurve(points=np.stack(
        [0.5 + 0.25 * np.cos(theta), 0.5 + 0.25 * np.sin(theta)], axis=1))
    ellipse = BoundaryCurve(points=np.stack(
        [0.5 + 0.2 * np.cos(theta), 0.5 + 0.4 * np.sin(theta)], axis=1))
    g_circle = gamma_scan(circle, sample_budget=256).estimate
    g_ellipse = gamma_scan(ellipse, sample_budget=256).estimate
    elapsed = time.perf_counter() - t0
    ok = (abs(g_circle - np.sqrt(2)) <= 0.05
          and g_ellipse <= 2 * np.sqrt(2) + 0.1
          and elapsed < 5)
    _verdict("boundary regularity scan",
             ok, f"circle {g_circle:.4f} (target sqrt2 +- 0.05), "
                 f"stretched {g_ellipse:.4f} <= {2 * np.sqrt(2) + 0.1:.4f}, "
                 f"{elapsed:.1f}s < 5s")


def test_pooled_response_equals_direct_shift_max():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    exact = 0
    for _ in range(500):
        s = int(rng.integers(1, 13))
        d = int(rng.integers(s, 13))
        w = rng.random((s, s))
        x = rng.random((d, d))
        p = np.pad(x, s)
        direct = 0.0
        for r in range(p.shape[0] - s + 1):
            for c in range(p.shape[1] - s + 1):
                direct = max(direct, float((p[r: r + s, c: c + s] * w).sum()))
        exact += int(feature_max(Filter(w), GrayImage(x)) == direct)
    elapsed = time.perf_counter() - t0
    ok = exact == 500 and elapsed < 5
    _verdict("pooled response equals direct shift max",
             ok, f"{exact}/500 exact, {elapsed:.1f}s < 5s")


def test_max_tree_equals_plain_max():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    exact = 0
    for _ in range(1000):
        v = rng.random(int(rng.integers(1, 65)))
        exact += int(max_tree(v) == float(v.max()))
    elapsed = time.perf_counter() - t0
    ok = exact == 1000 and elapsed < 1
    _verdict("pairwise max tree equals plain max",
             ok, f"{exact}/1000 exact, {elapsed:.2f}s < 1s")


def test_grid_sampling_error_bounds():
    t0 = time.perf_counter()
    rows = riemann_error_report(tent(0.25), tent(0.125),
                                d_list=(16, 32, 64, 128))
    errs = [r.ip_observed for r in rows]
    ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1)]
    elapsed = time.perf_counter() - t0
    ok = (all(r.within_bounds for r in rows)
          and all(rt <= 0.7 for rt in ratios)
          and elapsed < 10)
    _verdict("grid sampling error bounds",
             ok, f"bounds hold at d=16..128, halving ratios "
                 f"{['%.3f' % r for r in ratios]} <= 0.7, {elapsed:.1f}s < 10s")


def test_alignment_classifier_low_risk_small_sample():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        template0=tent(0.25), template1=cross(0.25, 0.08),
        q=DeformDistribution(eta_range=(0.8, 1.2), xi_range=(1.0, 1.5)),
        n_list=(2,), n_test=100, repetitions=30, d=64,
        classifiers=("IAC",), seed=0)
    report = run_experiment(cfg)
    (_, _, median) = report.aggregates()[0]
    elapsed = time.perf_counter() - t0
    ok = median <= 0.02 and elapsed < 120
    _verdict("alignment classifier small-sample risk",
             ok, f"median risk {median:.4f} <= 0.02 at n=2 over 30 reps, "
                 f"{elapsed:.1f}s < 120s")


def test_more_pixels_make_alignment_easier():
    # The paper's headline claim on the resolution axis: at a fixed sample
    # size, the alignment classifier's median risk does not grow with d.
    t0 = time.perf_counter()
    resolutions = (8, 12, 16, 24)
    medians = []
    for d in resolutions:
        cfg = ExperimentConfig(
            template0=tent(0.25), template1=cross(0.25, 0.08),
            q=DeformDistribution(eta_range=(0.8, 1.2), xi_range=(1.0, 1.5)),
            n_list=(2,), n_test=100, repetitions=10, d=d,
            classifiers=("IAC",), seed=0)
        (_, _, median), = run_experiment(cfg).aggregates()
        medians.append(median)
    elapsed = time.perf_counter() - t0
    ok = (all(b <= a for a, b in zip(medians, medians[1:]))
          and medians[-1] == 0.0 and elapsed < 30)
    _verdict("risk falls with resolution",
             ok, f"median risk at d={resolutions}: "
                 f"{['%.3f' % m for m in medians]}, non-increasing and 0 at "
                 f"d=24, {elapsed:.1f}s < 30s")


def test_trained_cnn_risk_curve():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        template0=tent(0.25), template1=cone(0.22),
        q=DeformDistribution(eta_range=(0.5, 1.5), xi_range=(1.0, 2.0)),
        n_list=(2, 4, 8, 16, 32, 64), n_test=100, repetitions=30, d=64,
        classifiers=("IAC", "CNN_TRAINED"), seed=0)
    report = run_experiment(cfg)
    med = {(c, n): m for c, n, m in report.aggregates()}
    curve = [med[("CNN_TRAINED", n)] for n in cfg.n_list]
    inversions = [curve[i + 1] - curve[i] for i in range(len(curve) - 1)
                  if curve[i + 1] > curve[i]]
    elapsed = time.perf_counter() - t0
    ok = (len(inversions) <= 1
          and all(gap <= 0.05 for gap in inversions)
          and curve[0] > med[("IAC", 2)]
          and elapsed < 1800)
    _verdict("trained network risk curve",
             ok, f"medians {['%.3f' % c for c in curve]} "
                 f"({len(inversions)} inversion(s)), vs alignment at n=2 "
                 f"{med[('IAC', 2)]:.3f}, {elapsed:.0f}s < 1800s")


def test_bank_dominance_and_accuracy():
    t0 = time.perf_counter()
    f0, f1 = tent(0.25), cross(0.25, 0.08)
    bank = build_filter_bank(f0, f1, 2, 64)
    q = DeformDistribution(eta_range=(0.8, 1.2), xi_range=(1.0, 1.5), seed=7)
    data = generate_dataset([f0], [f1], q, 200, 64)
    correct = 0
    dominant = 0
    for item in data.items:
        decision = classify_bank(bank, normalize_l2(item.image))
        correct += int(decision.label == item.label)
        z_true, z_other = ((decision.z0, decision.z1) if item.label == 0
                           else (decision.z1, decision.z0))
        dominant += int(z_true > z_other)
    aligned = classify_bank(bank, normalize_l2(rasterize(f0, IDENTITY, 64)))
    elapsed = time.perf_counter() - t0
    ok = (correct >= 190 and dominant >= 190 and aligned.z0 >= 0.9
          and elapsed < 300)
    _verdict("explicit bank dominance",
             ok, f"{correct}/200 correct, {dominant}/200 dominant, "
                 f"aligned response {aligned.z0:.4f} >= 0.9, "
                 f"{elapsed:.0f}s < 300s")


def test_analytic_gradients_match_numeric():
    t0 = time.perf_counter()
    q = DeformDistribution(eta_range=(0.8, 1.2), xi_range=(1.0, 1.5), seed=11)
    data = generate_dataset([tent(0.25)], [cross(0.25, 0.08)], q, 8, 32)
    x, y = unit_arrays(data)
    arch = ArchSpec(n_filters=4, filter_size=3, dense_widths=(16,))
    worst = 0.0
    skipped = 0
    for init in range(10):
        net = TrainableCnn(arch, seed=init)
        i = init % 8
        res = grad_check(net, x[i: i + 1], y[i: i + 1], eps=1e-5, seed=init)
        worst = max(worst, float(res))
        skipped += res.n_skipped
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60
    _verdict("analytic gradients",
             ok, f"worst relative error {worst:.2e} <= 1e-4 over 10 inits "
                 f"({skipped} tie coordinate(s) excluded), {elapsed:.1f}s < 60s")


def test_aligned_representations_converge():
    t0 = time.perf_counter()
    f = tent(0.25)
    rng = np.random.default_rng(2)

    def draw() -> DeformParams:
        return DeformParams(eta=float(rng.uniform(0.8, 1.2)),
                            xi=float(rng.uniform(1.0, 1.8)),
                            xi_prime=float(rng.uniform(1.0, 1.8)),
                            tau=0.0, tau_prime=0.0)

    pairs = [(draw(), draw()) for _ in range(20)]
    medians = {}
    for d in (128, 256):
        dists = []
        for pa, pb in pairs:
            a = align_images([rasterize(f, pa, d)], m=64)[0]
            b = align_images([rasterize(f, pb, d)], m=64)[0]
            dists.append(float(np.linalg.norm(a.grid - b.grid)))
        medians[d] = float(np.median(dists))
    ratio = medians[256] / medians[128]
    elapsed = time.perf_counter() - t0
    ok = ratio <= 0.6 and elapsed < 120
    _verdict("aligned representations converge",
             ok, f"median distance {medians[128]:.4f} -> {medians[256]:.4f} "
                 f"(ratio {ratio:.3f} <= 0.6), {elapsed:.0f}s < 120s")


def test_benchmark_reports_reproducible():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        template0=tent(0.25), template1=cross(0.25, 0.08),
        q=DeformDistribution(eta_range=(0.8, 1.2), xi_range=(1.0, 1.5)),
        n_list=(2, 4), n_test=20, repetitions=3, d=32,
        classifiers=("IAC", "CNN_TRAINED"), seed=0,
        cnn_arch=ArchSpec(n_filters=4, filter_size=3, dense_widths=(8,)),
        cnn_opt=OptSpec(epochs=2, batch_size=4))
    outputs = [emit_report(run_experiment(cfg), fmt="csv", view="raw")
               for _ in range(3)]
    elapsed = time.perf_counter() - t0
    ok = (outputs[0] == outputs[1] == outputs[2]
          and len(outputs[0].splitlines()) == 1 + 2 * 2 * 3
          and elapsed < 300)
    _verdict("benchmark reproducibility",
             ok, "byte-identical CSV across 3 reruns "
                 f"({len(outputs[0])} bytes), {elapsed:.0f}s < 300s")
