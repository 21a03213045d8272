"""Dataset ingestion and artifact emission.

IDX image/label parsing (big-endian, magics 0x803/0x801), block-mean
downsampling, synthetic 2-D mixtures for desk-scale runs, binary PGM
sample grids, and the streaming metrics CSV.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ShapeError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

CSV_HEADER = [
    "iteration",
    "mode",
    "flow_kind",
    "norm_kind",
    "seed",
    "proxy_fid",
    "d_loss",
    "g_loss",
    "wall_ms",
]


@dataclass
class Dataset:
    samples: np.ndarray  # (rows, d) float64
    labels: np.ndarray | None = None
    pixel_range: tuple = (-1.0, 1.0)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2:
            raise ShapeError("samples must be a (rows, features) array")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape[0] != self.samples.shape[0]:
                raise ShapeError("label count does not match sample count")
        lo, hi = self.pixel_range
        if not lo < hi:
            raise ShapeError("pixel range must be increasing")

    @property
    def rows(self):
        return self.samples.shape[0]

    @property
    def dim(self):
        return self.samples.shape[1]


@dataclass
class SyntheticSpec:
    """Synthetic mixture: ring of k centers or an m-by-m Gaussian grid."""

    kind: str  # "ring" | "gaussian_grid"
    count: int
    sigma: float = 0.05
    centers: int = 8  # ring component count
    radius: float = 2.0  # ring radius
    grid: int = 3  # grid side (m)
    spacing: float = 2.0  # grid spacing

    def __post_init__(self):
        if self.kind not in ("ring", "gaussian_grid"):
            raise ValueError(f"unknown synthetic kind {self.kind!r}")
        if self.sigma <= 0 or self.count < 1 or self.centers < 1:
            raise ValueError("sigma must be positive, count and centers at least 1")


def _read_be32(blob, offset, path):
    if offset + 4 > len(blob):
        raise FormatError(f"{path}: truncated header at offset {offset}")
    return struct.unpack_from(">I", blob, offset)[0]


def load_idx(images_path, labels_path=None):
    """Parse IDX image (and optional label) files into a Dataset.

    Pixels come in as [0, 255] bytes and leave scaled to [-1, 1].
    """
    with open(images_path, "rb") as fh:
        blob = fh.read()
    magic = _read_be32(blob, 0, images_path)
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(
            f"{images_path}: bad image magic 0x{magic:08x} at offset 0"
        )
    count = _read_be32(blob, 4, images_path)
    rows = _read_be32(blob, 8, images_path)
    cols = _read_be32(blob, 12, images_path)
    payload = blob[16:]
    expected = count * rows * cols
    if len(payload) != expected:
        raise FormatError(
            f"{images_path}: payload holds {len(payload)} bytes, "
            f"header promises {expected} at offset 16"
        )
    # scaled in place: the same operations in the same order as
    # pixels / 255.0 * 2.0 - 1.0, without its two float64 temporaries
    samples = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    samples = samples.reshape(count, rows * cols)
    samples /= 255.0
    samples *= 2.0
    samples -= 1.0

    labels = None
    if labels_path is not None:
        with open(labels_path, "rb") as fh:
            lblob = fh.read()
        lmagic = _read_be32(lblob, 0, labels_path)
        if lmagic != IDX_LABEL_MAGIC:
            raise FormatError(
                f"{labels_path}: bad label magic 0x{lmagic:08x} at offset 0"
            )
        lcount = _read_be32(lblob, 4, labels_path)
        if lcount != count:
            raise FormatError(
                f"{labels_path}: {lcount} labels for {count} images"
            )
        if len(lblob) - 8 != lcount:
            raise FormatError(f"{labels_path}: truncated payload at offset 8")
        labels = np.frombuffer(lblob, dtype=np.uint8, offset=8).astype(np.int64)
    return Dataset(samples=samples, labels=labels, pixel_range=(-1.0, 1.0))


def write_idx(images, images_path, labels=None, labels_path=None):
    """Emit uint8 images (n, side, side) as an IDX fixture file."""
    images = np.asarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ShapeError("expected (n, rows, cols) uint8 images")
    n, rows, cols = images.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        fh.write(images.tobytes())
    if labels is not None:
        labels = np.asarray(labels, dtype=np.uint8)
        with open(labels_path, "wb") as fh:
            fh.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
            fh.write(labels.tobytes())


def unnormalize_to_bytes(samples, pixel_range=(-1.0, 1.0)):
    """Invert the affine pixel normalization back to uint8 exactly."""
    lo, hi = pixel_range
    scaled = (np.asarray(samples) - lo) / (hi - lo) * 255.0
    return np.clip(np.rint(scaled), 0, 255).astype(np.uint8)


def _square_side(dim):
    side = math.isqrt(dim)
    if side * side != dim:
        raise ShapeError(f"feature dimension {dim} is not a square image")
    return side


def downsample(dataset: Dataset, factor):
    """Block-mean pooling of square images by an integer factor.

    The block sums are strided adds in the order of numpy's
    imgs.mean(axis=(2, 4)): across each block row, then down the block.
    That equals the mean bit for bit for factors up to 7; from 8 up the
    mean sums a row pairwise and may differ in the last ulp.
    """
    side = _square_side(dataset.dim)
    if side % factor != 0:
        raise ShapeError(f"image side {side} not divisible by factor {factor}")
    out = side // factor
    imgs = dataset.samples.reshape(-1, out, factor, out, factor)

    def block_row_sum(i):
        acc = imgs[:, :, i, :, 0].copy()
        for j in range(1, factor):
            acc += imgs[:, :, i, :, j]
        return acc

    pooled = block_row_sum(0)
    for i in range(1, factor):
        pooled += block_row_sum(i)
    pooled /= factor * factor
    return Dataset(samples=pooled.reshape(-1, out * out), labels=dataset.labels,
                   pixel_range=dataset.pixel_range)


def crop_border(dataset: Dataset, border):
    """Trim a fixed border from square images (28x28 -> 24x24 and such)."""
    side = _square_side(dataset.dim)
    if 2 * border >= side:
        raise ShapeError(f"border {border} strips the whole {side}px image")
    imgs = dataset.samples.reshape(-1, side, side)
    cut = imgs[:, border : side - border, border : side - border]
    new_side = side - 2 * border
    return Dataset(samples=cut.reshape(-1, new_side * new_side),
                   labels=dataset.labels, pixel_range=dataset.pixel_range)


def make_synthetic(spec: SyntheticSpec, rng):
    """Draw i.i.d. rows from the configured 2-D mixture."""
    if spec.kind == "ring":
        angles = 2 * np.pi * np.arange(spec.centers) / spec.centers
        centers = spec.radius * np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        ticks = (np.arange(spec.grid) - (spec.grid - 1) / 2.0) * spec.spacing
        xs, ys = np.meshgrid(ticks, ticks)
        centers = np.column_stack([xs.ravel(), ys.ravel()])
    which = rng.integers(0, centers.shape[0], size=spec.count)
    samples = centers[which] + spec.sigma * rng.standard_normal((spec.count, 2))
    span = float(np.abs(centers).max()) + 6 * spec.sigma + 1e-9
    lo, hi = -span, span
    samples = np.clip(samples, lo, hi)
    return Dataset(samples=samples, labels=which, pixel_range=(lo, hi))


def make_glyph_images(count, rng, side=24):
    """Deterministic grayscale glyph corpus: oriented bars, a ring, and a
    disc, jittered in position and brightness.  Serves as a desk-scale
    image distribution when no real IDX corpus is supplied; write it out
    with :func:`write_idx` to feed the normal ingestion path.

    Returns (images uint8 (count, side, side), labels (count,)).
    """
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    center = (side - 1) / 2.0
    prototypes = []
    for k in range(8):  # bars at 8 orientations
        theta = k * np.pi / 8.0
        dist = np.abs(
            (xx - center) * np.sin(theta) - (yy - center) * np.cos(theta)
        )
        radius = np.hypot(xx - center, yy - center)
        prototypes.append((dist < side / 10.0) & (radius < side * 0.42))
    radius = np.hypot(xx - center, yy - center)
    prototypes.append(np.abs(radius - side * 0.3) < side / 12.0)  # ring
    prototypes.append(radius < side * 0.22)  # disc
    protos = np.stack([p.astype(np.float64) for p in prototypes])

    labels = rng.integers(0, len(prototypes), size=count)
    shifts = rng.integers(-3, 4, size=(count, 2))
    brightness = rng.uniform(0.7, 1.0, size=count)
    noise = rng.normal(0.0, 8.0, size=(count, side, side))
    images = np.empty((count, side, side), dtype=np.uint8)
    for i in range(count):
        img = np.roll(protos[labels[i]], shifts[i], axis=(0, 1))
        val = img * 255.0 * brightness[i] + noise[i]
        images[i] = np.clip(val, 0, 255).astype(np.uint8)
    return images, labels


def write_image_grid(samples, side, grid_cols, path, pixel_range=(-1.0, 1.0)):
    """Write samples as a binary PGM (P5) grid, grid-row-major."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] != side * side:
        raise ShapeError(f"samples must be (n, {side * side}) for side {side}")
    n = samples.shape[0]
    grid_rows = (n + grid_cols - 1) // grid_cols
    lo, hi = pixel_range
    canvas = np.zeros((grid_rows * side, grid_cols * side), dtype=np.uint8)
    bytes_ = unnormalize_to_bytes(samples, pixel_range).reshape(n, side, side)
    for i in range(n):
        r, c = divmod(i, grid_cols)
        canvas[r * side : (r + 1) * side, c * side : (c + 1) * side] = bytes_[i]
    width = grid_cols * side
    height = grid_rows * side
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(canvas.tobytes())


@dataclass
class MetricRow:
    iteration: int
    mode: str
    flow_kind: str
    norm_kind: str
    seed: int
    proxy_fid: float
    d_loss: float
    g_loss: float
    wall_ms: float

    def as_csv_fields(self):
        return [
            str(self.iteration),
            self.mode,
            self.flow_kind,
            self.norm_kind,
            str(self.seed),
            format(self.proxy_fid, ".12g"),
            format(self.d_loss, ".12g"),
            format(self.g_loss, ".12g"),
            format(self.wall_ms, ".12g"),
        ]


class MetricsCsvWriter:
    """Streaming CSV sink: header on open (unless appending to an existing
    file), one flushed line per row."""

    def __init__(self, path, append=False):
        self.path = path
        mode = "a" if append else "w"
        write_header = not append
        self._fh = open(path, mode, newline="\n")
        if write_header:
            self._fh.write(",".join(CSV_HEADER) + "\n")
            self._fh.flush()

    def write(self, row: MetricRow):
        self._fh.write(",".join(row.as_csv_fields()) + "\n")
        self._fh.flush()

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def truncate_metrics_csv(path, iteration):
    """Drop the rows at or past iteration, which a run resumed from there
    writes again, and a last line cut off mid-write."""
    with open(path, "rb") as fh:
        lines = fh.readlines()
    keep = 1  # the header
    for line in lines[1:]:
        if not line.endswith(b"\n"):
            break
        try:
            if int(line.split(b",", 1)[0]) >= iteration:
                break
        except ValueError:
            raise FormatError(f"{path}: line {keep + 1} has no iteration") from None
        keep += 1
    if keep < len(lines):
        with replaced_atomically(path, "wb") as fh:
            fh.writelines(lines[:keep])


@contextlib.contextmanager
def replaced_atomically(path, mode="w"):
    """A temp file that replaces path in one step if the block succeeds."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_metrics_csv(rows, path):
    with MetricsCsvWriter(path) as sink:
        for row in rows:
            sink.write(row)


_CSV_NUMBERS = {"iteration": int, "seed": int, "proxy_fid": float, "d_loss": float,
                "g_loss": float, "wall_ms": float}


def read_metrics_csv(path, extra_columns=()):
    """Parse a metrics CSV back into MetricRow objects.

    extra_columns names leading columns (the ablation 'variant' column);
    returns (extras, rows) where extras is a list of per-row dicts.  A
    numeric cell that is not a finite number is a FormatError naming its
    line and column.
    """
    expected = list(extra_columns) + CSV_HEADER
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file, expected a CSV header")
        if header != expected:
            for got, want in zip(header + [""] * len(expected), expected):
                if got != want:
                    raise FormatError(
                        f"{path}: expected column {want!r}, found {got!r}"
                    )
        extras = []
        rows = []
        for record in reader:
            if len(record) != len(expected):
                raise FormatError(
                    f"{path}: line {reader.line_num}: row has {len(record)} fields")
            cut = len(extra_columns)
            extras.append(dict(zip(extra_columns, record[:cut])))
            cells = dict(zip(CSV_HEADER, record[cut:]))
            for column, kind in _CSV_NUMBERS.items():
                try:
                    value = kind(cells[column])
                    if not math.isfinite(value):  # an int past float range overflows
                        raise ValueError
                except (ValueError, OverflowError):
                    raise FormatError(
                        f"{path}: line {reader.line_num}, column {column!r}: "
                        f"expected a finite number, found {cells[column]!r}") from None
                cells[column] = value
            rows.append(MetricRow(**cells))
    return extras, rows
