"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The two heavy criteria (directional acceleration, ablation harness) run
real multi-seed experiments and dominate the suite's runtime; budgets are
minutes, not seconds.  Image-dataset criteria use real MNIST IDX files
when FISGAN_MNIST_IMAGES / FISGAN_MNIST_LABELS point at them, and fall
back to the in-repo deterministic glyph corpus pushed through the same
IDX ingestion path otherwise.
"""

import json
import math
import os

import numpy as np
import pytest

from fisgan import cli, data, flows, importance, metrics, nn, train


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def _rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


# --- criterion 1: gradient oracle -------------------------------------------


def test_criterion_1_gradient_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        sizes = [int(rng.integers(2, 6)) for _ in range(4)]
        acts = [str(rng.choice(["tanh", "relu", "leaky_relu", "sigmoid"])),
                str(rng.choice(["tanh", "sigmoid"])), "identity"]
        net = nn.build_mlp(rng, sizes, acts)
        batch = rng.standard_normal((3, sizes[0]))
        mix = rng.standard_normal((3, sizes[-1]))
        _, cache = nn.forward(net, batch)
        grads, _ = nn.backward(net, cache, mix)

        step = 1e-5
        for p, g in zip(net.parameters(), grads):
            it = np.nditer(p, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + step
                plus = float((nn.forward(net, batch)[0] * mix).sum())
                p[idx] = orig - step
                minus = float((nn.forward(net, batch)[0] * mix).sum())
                p[idx] = orig
                fd = (plus - minus) / (2 * step)
                if abs(fd) > 1e-7 or abs(g[idx]) > 1e-7:
                    worst = max(worst, _rel_err(g[idx], fd))
                it.iternext()

        z = rng.standard_normal(sizes[0])
        jac = nn.jacobian_wrt_input(net, z)
        for d in range(sizes[0]):
            zp, zm = z.copy(), z.copy()
            zp[d] += step
            zm[d] -= step
            col = (nn.forward(net, zp[None])[0][0] - nn.forward(net, zm[None])[0][0]) / (2 * step)
            for m in range(sizes[-1]):
                if abs(col[m]) > 1e-7 or abs(jac[m, d]) > 1e-7:
                    worst = max(worst, _rel_err(jac[m, d], col[m]))
    _report("1 gradient-oracle", worst < 1e-4, f"worst rel err {worst:.2e}")


# --- criterion 2: flow exactness ---------------------------------------------


def test_criterion_2_flow_exactness():
    problems = []
    for kind in flows.FLOW_KINDS:
        for dim in (2, 4, 8):
            rng = np.random.default_rng(hash((kind, dim)) % 2**32)
            flow = flows.build_flow(kind, dim, rng, depth=3, hidden=16)

            logp = flows.log_prob(flow, rng.standard_normal((64, dim)))
            z = rng.standard_normal((64, dim))
            expected = -0.5 * (z * z).sum(axis=1) - 0.5 * dim * math.log(2 * math.pi)
            got = flows.log_prob(flow, z)
            if np.max(np.abs(got - expected)) >= 1e-10:
                problems.append(f"{kind}/{dim}: zero-init log_prob off")

            # brief fit so the transform is nontrivial
            adam = flows.flow_adam(flow, lr=5e-3)
            train_data = rng.standard_normal((256, dim)) * 1.3 + 0.4
            flows.fit(flow, train_data, epochs=2, batch_size=128, adam=adam, rng=rng)

            pts = rng.standard_normal((1000, dim))
            h, analytic = flows.forward_map(flow, pts)
            back = flows.inverse_map(flow, h)
            rt = float(np.max(np.abs(back - pts)))
            if rt >= 1e-6:
                problems.append(f"{kind}/{dim}: round trip {rt:.2e}")

            for row in range(3):
                point = pts[row]
                step = 1e-6
                jac = np.zeros((dim, dim))
                for k in range(dim):
                    zp, zm = point.copy(), point.copy()
                    zp[k] += step
                    zm[k] -= step
                    hp, _ = flows.forward_map(flow, zp[None])
                    hm, _ = flows.forward_map(flow, zm[None])
                    jac[:, k] = (hp[0] - hm[0]) / (2 * step)
                _, numeric = np.linalg.slogdet(jac)
                if _rel_err(analytic[row], numeric) >= 1e-4:
                    problems.append(f"{kind}/{dim}: log-det mismatch")
    _report("2 flow-exactness", not problems, "; ".join(problems[:3]))


# --- criterion 3: conservation ------------------------------------------------


def test_criterion_3_weight_and_count_conservation():
    rng = np.random.default_rng(77)
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 33))
        norms_vec = rng.uniform(0.0, 10.0, size=n)
        if norms_vec.sum() == 0.0:
            norms_vec[0] = 1.0
        total = int(rng.integers(1, 513))
        w = importance.importance_weights(norms_vec)
        if abs(w.sum() - 1.0) >= 1e-12:
            violations += 1
            continue
        plan = importance.allocate_counts(w, total)
        if plan.counts.sum() != total:
            violations += 1
            continue
        order = np.argsort(norms_vec, kind="stable")
        counts = plan.counts[order]
        sorted_norms = norms_vec[order]
        grow = sorted_norms[1:] > sorted_norms[:-1]
        if np.any(counts[1:][grow] < counts[:-1][grow]):
            violations += 1
    _report("3 conservation", violations == 0, f"{violations} violations")


# --- criterion 4: Frechet closed forms ----------------------------------------


def test_criterion_4_frechet_closed_forms():
    problems = []
    rng = np.random.default_rng(5)
    c = rng.standard_normal((4, 4))
    cov = c.T @ c
    m = metrics.GaussianMoments(mean=rng.standard_normal(4), cov=cov)
    if metrics.frechet_distance(m, m) >= 1e-8:
        problems.append("identical moments")
    d = np.array([0.5, -1.5, 2.0, 0.25])
    shifted = metrics.GaussianMoments(mean=m.mean + d, cov=cov.copy())
    if abs(metrics.frechet_distance(m, shifted) - d @ d) >= 1e-8:
        problems.append("equal-cov shift")
    a = metrics.GaussianMoments(mean=np.array([0.0]), cov=np.array([[1.0]]))
    b = metrics.GaussianMoments(mean=np.array([3.0]), cov=np.array([[4.0]]))
    if abs(metrics.frechet_distance(a, b) - 10.0) >= 1e-8:
        problems.append("1-D closed form")
    _report("4 frechet-closed-forms", not problems, "; ".join(problems))


# --- criterion 5: density targeting -------------------------------------------


def test_criterion_5_density_targeting():
    heavy_center = np.zeros(8)
    heavy_center[0] = 3.0
    hits = 0
    fractions = []
    for seed in range(5):
        rng = np.random.default_rng(9000 + seed)
        latents = np.vstack([
            np.tile(heavy_center, (16, 1)),
            np.tile(-heavy_center, (16, 1)),
        ])
        norms_vec = np.concatenate([np.full(16, 3.0), np.full(16, 1.0)])
        batch = importance.LatentBatch(latents=latents, norms=norms_vec)
        dataset = importance.build_flow_dataset(batch, 2048, rng)
        flow = flows.build_flow("realnvp", 8, rng, depth=4, hidden=32)
        adam = flows.flow_adam(flow, lr=5e-3)
        flows.fit(flow, dataset, epochs=30, batch_size=128, adam=adam, rng=rng)
        draws = flows.sample(flow, 10_000, rng)
        d_heavy = np.linalg.norm(draws - heavy_center, axis=1)
        d_light = np.linalg.norm(draws + heavy_center, axis=1)
        frac = float(np.mean(d_heavy < d_light))
        fractions.append(frac)
        if frac >= 0.60:
            hits += 1
    _report("5 density-targeting", hits >= 4,
            f"{hits}/5 seeds, fractions {[f'{f:.2f}' for f in fractions]}")


# --- criterion 6: directional acceleration ------------------------------------


@pytest.fixture(scope="module")
def image_dataset(tmp_path_factory):
    """Real MNIST when supplied via env, the glyph corpus otherwise; either
    way the data flows through IDX parsing and block-mean downsampling."""
    images_path = os.environ.get("FISGAN_MNIST_IMAGES")
    labels_path = os.environ.get("FISGAN_MNIST_LABELS")
    if images_path:
        ds = data.load_idx(images_path, labels_path)
        ds = data.crop_border(ds, 2)  # 28 -> 24
        return data.downsample(ds, 3)  # 24 -> 8
    root = tmp_path_factory.mktemp("glyphs")
    imgs, labels = data.make_glyph_images(4096, np.random.default_rng(7), side=24)
    ipath = str(root / "images.idx")
    lpath = str(root / "labels.idx")
    data.write_idx(imgs, ipath, labels=labels, labels_path=lpath)
    return data.downsample(data.load_idx(ipath, lpath), 3)


def _median_fids(dataset, seeds=(0, 1, 2, 3, 4)):
    out = {"baseline": {500: [], 1000: []}, "fis": {500: [], 1000: []}}
    for seed in seeds:
        for mode in ("baseline", "fis"):
            cfg = train.TrainConfig(mode=mode, seed=seed, max_iters=1000)
            summary = train.train(
                cfg, dataset,
                eval_options=train.EvalOptions(interval=100, samples=2048),
            )
            fids = {r.iteration: r.proxy_fid for r in summary.rows}
            out[mode][500].append(fids[500])
            out[mode][1000].append(fids[1000])
    return {
        mode: {it: float(np.median(vals)) for it, vals in per.items()}
        for mode, per in out.items()
    }


@pytest.mark.slow
def test_criterion_6_directional_acceleration(image_dataset):
    ring = data.make_synthetic(
        data.SyntheticSpec(kind="ring", count=8192, sigma=0.05),
        np.random.default_rng(44),
    )
    problems = []
    details = []
    for name, dataset in (("ring", ring), ("images-8x8", image_dataset)):
        med = _median_fids(dataset)
        for it in (500, 1000):
            fis_med = med["fis"][it]
            base_med = med["baseline"][it]
            details.append(f"{name}@{it}: fis {fis_med:.3f} vs baseline {base_med:.3f}")
            if not fis_med < base_med:
                problems.append(f"{name}@{it}")
    _report("6 directional-acceleration", not problems,
            "; ".join(details) + ("; FAILED: " + ",".join(problems) if problems else ""))


# --- criterion 7: ablation harness --------------------------------------------


def _ablation_config(tmp_path, out_dir):
    # batch_size 128 + augment_N 256 keep the per-refresh norm computation
    # (what the norm axis actually changes) a visible share of refresh time
    doc = {
        "train": {"max_iters": 1000, "seed": 11, "mode": "fis",
                  "batch_size": 128, "augment_N": 256},
        "dataset": {
            "kind": "synthetic",
            "spec": {"kind": "ring", "count": 8192, "sigma": 0.05},
        },
        "eval": {"interval": 100, "samples": 2048},
        "out_dir": out_dir,
        "run_name": "ablation",
    }
    path = tmp_path / "ablate.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.slow
def test_criterion_7_ablation_harness(tmp_path):
    out_dir = str(tmp_path / "runs")
    cfg_path = _ablation_config(tmp_path, out_dir)
    problems = []

    code = cli.main(["ablate", "--config", str(cfg_path), "--axis", "norm",
                     "--values", "frobenius,nuclear"])
    if code != 0:
        problems.append(f"norm ablation exit {code}")
    extras, rows = data.read_metrics_csv(
        os.path.join(out_dir, "ablate_norm.csv"), extra_columns=("variant",)
    )
    per_variant = {}
    for e, r in zip(extras, rows):
        per_variant.setdefault(e["variant"], []).append(r.iteration)
    for variant in ("frobenius", "nuclear"):
        if per_variant.get(variant) != list(range(0, 1001, 100)):
            problems.append(f"norm CSV incomplete for {variant}")

    refresh_ms = {}
    for variant in ("frobenius", "nuclear"):
        with open(os.path.join(out_dir, f"ablation-norm-{variant}",
                               "summary.json")) as fh:
            doc = json.load(fh)
        refresh_ms[variant] = doc["refresh_ms_total"] / max(1, doc["refresh_count"])
    if not refresh_ms["nuclear"] > refresh_ms["frobenius"]:
        problems.append(
            f"nuclear refresh {refresh_ms['nuclear']:.1f}ms not above "
            f"frobenius {refresh_ms['frobenius']:.1f}ms"
        )

    code = cli.main(["ablate", "--config", str(cfg_path), "--axis", "flow",
                     "--values", "realnvp,maf,iaf"])
    if code != 0:
        problems.append(f"flow ablation exit {code}")
    extras, rows = data.read_metrics_csv(
        os.path.join(out_dir, "ablate_flow.csv"), extra_columns=("variant",)
    )
    per_variant = {}
    for e, r in zip(extras, rows):
        per_variant.setdefault(e["variant"], []).append(r.iteration)
    for variant in ("realnvp", "maf", "iaf"):
        if per_variant.get(variant) != list(range(0, 1001, 100)):
            problems.append(f"flow CSV incomplete for {variant}")

    _report("7 ablation-harness", not problems,
            "; ".join(problems) if problems else
            f"refresh ms/refresh: frobenius {refresh_ms['frobenius']:.1f}, "
            f"nuclear {refresh_ms['nuclear']:.1f}")


# --- criterion 8: reproducibility and resume -----------------------------------


def _counting_clock():
    tick = [0.0]

    def clock():
        tick[0] += 1.0
        return tick[0]

    return clock


def test_criterion_8_reproducibility_and_resume(tmp_path):
    from fisgan import checkpoint

    ring = data.make_synthetic(
        data.SyntheticSpec(kind="ring", count=1024, sigma=0.05),
        np.random.default_rng(3),
    )
    cfg = dict(latent_dim=8, refresh_t=5, flow_epochs=2, flow_batch=64,
               augment_N=128, batch_size=32, seed=9, mode="fis",
               flow_depth=2, flow_hidden=16)
    eval_options = train.EvalOptions(interval=5, samples=128)
    problems = []

    # identical config + seed: byte-identical CSV under a deterministic clock
    paths = []
    for trial in range(2):
        path = tmp_path / f"rep{trial}.csv"
        with data.MetricsCsvWriter(path) as sink:
            train.train(train.TrainConfig(max_iters=20, **cfg), ring,
                        metrics_sink=sink.write, eval_options=eval_options,
                        clock=_counting_clock())
        paths.append(path)
    if paths[0].read_bytes() != paths[1].read_bytes():
        problems.append("repeat run CSV differs")

    # resume: 20 iterations vs 10 + checkpoint + 10 more
    full = train.train(train.TrainConfig(max_iters=20, **cfg), ring,
                       eval_options=eval_options, clock=_counting_clock())
    half = train.train(train.TrainConfig(max_iters=10, **cfg), ring,
                       eval_options=eval_options, clock=_counting_clock())
    ckpt = tmp_path / "half.ckpt"
    checkpoint.save_checkpoint(ckpt, half.state)
    resumed_state, _ = checkpoint.load_checkpoint(ckpt, ring)
    second = train.train(train.TrainConfig(max_iters=20, **cfg), ring,
                         eval_options=eval_options, clock=_counting_clock(),
                         state=resumed_state)
    stitched = half.rows + second.rows
    if len(stitched) != len(full.rows):
        problems.append("resume row count differs")
    else:
        for a, b in zip(stitched, full.rows):
            if (a.iteration, a.proxy_fid, a.d_loss, a.g_loss) != (
                b.iteration, b.proxy_fid, b.d_loss, b.g_loss
            ):
                problems.append(f"resume row {a.iteration} differs")
                break
    _report("8 reproducibility-resume", not problems, "; ".join(problems))


# --- criterion 9: format conformance -------------------------------------------


def test_criterion_9_format_conformance(tmp_path):
    problems = []

    imgs = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3) * 13
    ipath = tmp_path / "f.idx"
    data.write_idx(imgs, ipath)
    ds = data.load_idx(ipath)
    back = data.unnormalize_to_bytes(ds.samples, ds.pixel_range).reshape(2, 3, 3)
    if not np.array_equal(back, imgs):
        problems.append("IDX byte round trip")

    gpath = tmp_path / "g.pgm"
    data.write_image_grid(np.array([[-1.0, 0.0, 1.0, -1.0]]), 2, 1, gpath)
    golden = b"P5\n2 2\n255\n" + bytes([0, 128, 255, 0])
    if gpath.read_bytes() != golden:
        problems.append("PGM golden bytes")

    rows = [data.MetricRow(1, "fis", "maf", "nuclear", 3,
                           1234.56789012345, 1 / 3, -2.5e-11, 0.125)]
    cpath = tmp_path / "m.csv"
    data.write_metrics_csv(rows, cpath)
    _, parsed = data.read_metrics_csv(cpath)
    for field in ("proxy_fid", "d_loss", "g_loss", "wall_ms"):
        orig = getattr(rows[0], field)
        got = getattr(parsed[0], field)
        if _rel_err(orig, got) > 1e-11 and orig != got:
            problems.append(f"CSV {field} round trip")
    _report("9 format-conformance", not problems, "; ".join(problems))
