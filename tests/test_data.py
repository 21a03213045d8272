import numpy as np
import pytest

from fisgan import data
from fisgan.errors import FormatError, ShapeError


def test_idx_fixture_round_trip(tmp_path):
    # hand-authored 2-image 2x2 fixture: bytes 0,255,128,64 / 10,20,30,40
    imgs = np.array(
        [[[0, 255], [128, 64]], [[10, 20], [30, 40]]], dtype=np.uint8
    )
    ipath = tmp_path / "imgs.idx"
    lpath = tmp_path / "lbls.idx"
    data.write_idx(imgs, ipath, labels=np.array([3, 7]), labels_path=lpath)
    ds = data.load_idx(ipath, lpath)
    assert ds.rows == 2 and ds.dim == 4
    expected0 = np.array([0, 255, 128, 64]) / 255.0 * 2.0 - 1.0
    assert np.allclose(ds.samples[0], expected0)
    assert np.array_equal(ds.labels, [3, 7])
    # byte-level identity after un-normalizing
    back = data.unnormalize_to_bytes(ds.samples, ds.pixel_range)
    assert np.array_equal(back.reshape(2, 2, 2), imgs)


def test_idx_scaling_bitwise_matches_reference(tmp_path):
    # every byte value, in a shape that is not a single row
    raw = np.arange(256 * 3, dtype=np.int64).astype(np.uint8).reshape(12, 8, 8)
    path = tmp_path / "all.idx"
    data.write_idx(raw, path)
    ds = data.load_idx(path)
    expected = raw.reshape(12, 64).astype(np.float64) / 255.0 * 2.0 - 1.0
    assert ds.samples.shape == (12, 64)
    assert ds.samples.tobytes() == expected.tobytes()


def test_idx_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"\x00\x00\x09\x99" + b"\x00" * 12)
    with pytest.raises(FormatError) as err:
        data.load_idx(path)
    assert "magic" in str(err.value)


def test_idx_truncated_payload(tmp_path):
    import struct

    path = tmp_path / "short.idx"
    path.write_bytes(struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 2, 2, 2) + b"\x00" * 5)
    with pytest.raises(FormatError) as err:
        data.load_idx(path)
    assert "offset 16" in str(err.value)


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0)])
def test_idx_empty_images_rejected(tmp_path, rows, cols):
    import struct

    path = tmp_path / "empty.idx"
    path.write_bytes(struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 5, rows, cols))
    with pytest.raises(FormatError) as err:
        data.load_idx(path)
    assert f"{rows} x {cols}" in str(err.value)


def test_idx_label_count_mismatch(tmp_path):
    import struct

    imgs = np.zeros((2, 2, 2), dtype=np.uint8)
    ipath = tmp_path / "i.idx"
    data.write_idx(imgs, ipath)
    lpath = tmp_path / "l.idx"
    lpath.write_bytes(struct.pack(">II", data.IDX_LABEL_MAGIC, 3) + b"\x00" * 3)
    with pytest.raises(FormatError):
        data.load_idx(ipath, lpath)


def test_downsample_constant_image():
    ds = data.Dataset(samples=np.full((3, 16), 0.25))
    pooled = data.downsample(ds, 2)
    assert pooled.dim == 4
    assert np.allclose(pooled.samples, 0.25)


def test_downsample_checkerboard_mean():
    board = np.array([[-1.0, 1.0, 1.0, -1.0]])  # 2x2 image
    ds = data.Dataset(samples=board)
    pooled = data.downsample(ds, 2)
    assert pooled.samples[0, 0] == 0.0


def test_downsample_preserves_mean():
    rng = np.random.default_rng(0)
    ds = data.Dataset(samples=rng.uniform(-1, 1, size=(5, 36)))
    pooled = data.downsample(ds, 3)
    assert np.allclose(pooled.samples.mean(axis=1), ds.samples.mean(axis=1))


@pytest.mark.parametrize("factor", range(1, 10))
def test_downsample_matches_numpy_block_mean(factor):
    rng = np.random.default_rng(factor)
    side = 5 * factor
    samples = rng.uniform(-1, 1, size=(7, side * side)) * 10.0 ** rng.integers(-3, 3, (7, 1))
    pooled = data.downsample(data.Dataset(samples=samples), factor).samples
    out = side // factor
    mean = samples.reshape(-1, out, factor, out, factor).mean(axis=(2, 4))
    mean = mean.reshape(-1, out * out)
    if factor <= 7:
        assert pooled.tobytes() == mean.tobytes()
    else:  # numpy's mean sums runs of 8 or more pairwise
        assert np.max(np.abs(pooled - mean)) <= 4 * np.finfo(float).eps * np.abs(mean).max()


def test_downsample_indivisible_side():
    ds = data.Dataset(samples=np.zeros((1, 25)))
    with pytest.raises(ShapeError):
        data.downsample(ds, 2)


def test_crop_border():
    side = 6
    img = np.arange(side * side, dtype=float).reshape(side, side) / 40.0
    ds = data.Dataset(samples=img.reshape(1, -1))
    cut = data.crop_border(ds, 1)
    assert cut.dim == 16
    assert np.allclose(cut.samples.reshape(4, 4), img[1:5, 1:5])


def test_ring_membership():
    spec = data.SyntheticSpec(kind="ring", count=10_000, sigma=0.05,
                              centers=8, radius=2.0)
    ds = data.make_synthetic(spec, np.random.default_rng(1))
    angles = 2 * np.pi * np.arange(8) / 8
    centers = 2.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    dists = np.linalg.norm(ds.samples[:, None, :] - centers[None], axis=2).min(axis=1)
    assert np.mean(dists <= 3 * 0.05 + 0.05) >= 0.99


def test_ring_sigma_zero_limit():
    spec = data.SyntheticSpec(kind="ring", count=200, sigma=1e-9, centers=4, radius=1.0)
    ds = data.make_synthetic(spec, np.random.default_rng(2))
    angles = 2 * np.pi * np.arange(4) / 4
    centers = np.column_stack([np.cos(angles), np.sin(angles)])
    dists = np.linalg.norm(ds.samples[:, None, :] - centers[None], axis=2).min(axis=1)
    assert np.max(dists) < 1e-7


def test_synthetic_deterministic():
    spec = data.SyntheticSpec(kind="gaussian_grid", count=500, sigma=0.1,
                              grid=3, spacing=2.0)
    a = data.make_synthetic(spec, np.random.default_rng(3))
    b = data.make_synthetic(spec, np.random.default_rng(3))
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.labels, b.labels)


def test_grid_all_black_all_white(tmp_path):
    low = np.full((1, 4), -1.0)
    path = tmp_path / "black.pgm"
    data.write_image_grid(low, side=2, grid_cols=1, path=path)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n2 2\n255\n")
    assert blob[len(b"P5\n2 2\n255\n"):] == b"\x00" * 4

    high = np.full((1, 4), 1.0)
    path2 = tmp_path / "white.pgm"
    data.write_image_grid(high, side=2, grid_cols=1, path=path2)
    assert path2.read_bytes()[len(b"P5\n2 2\n255\n"):] == b"\xff" * 4


def test_grid_header_arithmetic(tmp_path):
    samples = np.zeros((4, 9))
    path = tmp_path / "grid.pgm"
    data.write_image_grid(samples, side=3, grid_cols=2, path=path)
    assert path.read_bytes().startswith(b"P5\n6 6\n255\n")


def test_grid_byte_exact_golden(tmp_path):
    # 2 samples in one row; gradient values map to known bytes
    samples = np.array([[-1.0, 0.0, 1.0, -1.0], [1.0, 1.0, -1.0, 0.0]])
    path = tmp_path / "gold.pgm"
    data.write_image_grid(samples, side=2, grid_cols=2, path=path)
    header = b"P5\n4 2\n255\n"
    # canvas rows: [s0 row0 | s1 row0], [s0 row1 | s1 row1]
    payload = bytes([0, 128, 255, 255, 255, 0, 0, 128])
    assert path.read_bytes() == header + payload


def test_glyph_corpus_shapes_and_determinism():
    a_imgs, a_labels = data.make_glyph_images(64, np.random.default_rng(9), side=24)
    b_imgs, b_labels = data.make_glyph_images(64, np.random.default_rng(9), side=24)
    assert a_imgs.shape == (64, 24, 24)
    assert a_imgs.dtype == np.uint8
    assert np.array_equal(a_imgs, b_imgs)
    assert np.array_equal(a_labels, b_labels)
    assert set(np.unique(a_labels)) <= set(range(10))
    # classes are visually distinct even at 8x8: per-class means differ
    flat = a_imgs.reshape(64, -1).astype(float)
    means = [flat[a_labels == k].mean(axis=0) for k in np.unique(a_labels)[:2]]
    assert np.abs(means[0] - means[1]).max() > 20


def test_metrics_csv_round_trip(tmp_path):
    rows = [
        data.MetricRow(0, "baseline", "realnvp", "frobenius", 7,
                       123.456789012345, 0.69314718056, -1.5e-7, 10.5),
        data.MetricRow(100, "fis", "maf", "nuclear", 7,
                       98.7654321098765, 1.0 / 3.0, 2.0, 250.25),
    ]
    path = tmp_path / "metrics.csv"
    data.write_metrics_csv(rows, path)
    _, back = data.read_metrics_csv(path)
    assert len(back) == 2
    for orig, parsed in zip(rows, back):
        assert parsed.iteration == orig.iteration
        assert parsed.mode == orig.mode
        # 12 significant digits survive the round trip
        assert abs(parsed.proxy_fid - orig.proxy_fid) <= abs(orig.proxy_fid) * 1e-11
        assert abs(parsed.d_loss - orig.d_loss) <= abs(orig.d_loss) * 1e-11


def test_metrics_csv_empty_stream(tmp_path):
    path = tmp_path / "empty.csv"
    data.write_metrics_csv([], path)
    text = path.read_text()
    assert text == ",".join(data.CSV_HEADER) + "\n"
    extras, rows = data.read_metrics_csv(path)
    assert rows == []


def test_metrics_csv_schema_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("iteration,mode,wrong\n")
    with pytest.raises(FormatError) as err:
        data.read_metrics_csv(path)
    assert "flow_kind" in str(err.value)


def test_metrics_csv_field_order(tmp_path):
    path = tmp_path / "one.csv"
    data.write_metrics_csv(
        [data.MetricRow(5, "fis", "iaf", "frobenius", 1, 2.5, 0.5, 0.25, 1.0)], path
    )
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[:5] == ["5", "fis", "iaf", "frobenius", "1"]


def test_truncate_metrics_csv_keeps_earlier_rows_bytewise(tmp_path):
    path = tmp_path / "m.csv"
    data.write_metrics_csv(
        [data.MetricRow(i, "fis", "realnvp", "frobenius", 1, 2.5, 0.5, 0.25, 1.0 / 3.0)
         for i in (0, 5, 10)], path
    )
    lines = path.read_bytes().splitlines(keepends=True)
    data.truncate_metrics_csv(path, 11)
    assert path.read_bytes() == b"".join(lines)
    path.write_bytes(b"".join(lines) + b"15,fis,real")  # cut off mid-write
    data.truncate_metrics_csv(path, 16)
    assert path.read_bytes() == b"".join(lines)
    data.truncate_metrics_csv(path, 6)
    assert path.read_bytes() == b"".join(lines[:3])
    assert not (tmp_path / "m.csv.tmp").exists()
    path.write_bytes(lines[0] + b"x,fis\n")
    with pytest.raises(FormatError):
        data.truncate_metrics_csv(path, 6)


def test_replaced_atomically_keeps_old_content_on_error(tmp_path):
    path = tmp_path / "summary.json"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with data.replaced_atomically(path) as fh:
            fh.write("half")
            raise RuntimeError("crash mid-write")
    assert path.read_text() == "old\n"
    with data.replaced_atomically(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.json"]
