"""File formats: datasets in, models / codes / ground truth in and out.

Dataset formats
  idx    big-endian image/label files (magic 2051 images, 2049 labels);
         images flatten row-major to one column per sample, values 0..255.
  fvecs  little-endian records: int32 dim then dim float32 values.
  bvecs  little-endian records: int32 dim then dim uint8 values.
  csv    one sample per row, optional header, optional final label column.

Artifact formats (all little-endian)
  model  magic "DHNN", version byte, mode byte (0 unsupervised / 1 supervised),
         uint32 layer count, uint32 layer sizes, one activation byte per block
         (0 sigmoid / 1 linear), then per block the weight matrix as float64
         column-major followed by the bias vector as float64.
  codes  magic "DHCB", version byte, uint32 code length, uint64 code count,
         then the packed code bytes (ceil(L/8) per code, zero padding bits).
  gt     uint64 query count, then per query a uint32 length and that many
         uint32 database indices.
"""

import struct
from dataclasses import dataclass

import numpy as np

from hashlearn.evaluation import BinaryCodes, validate_ground_truth
from hashlearn.network import ACTIVATIONS, LINEAR, SIGMOID, SUPERVISED, UNSUPERVISED, NetworkParams

MODEL_MAGIC = b"DHNN"
CODES_MAGIC = b"DHCB"
FORMAT_VERSION = 1

_IDX_IMAGES_MAGIC = 2051
_IDX_LABELS_MAGIC = 2049

_MODE_BYTES = {UNSUPERVISED: 0, SUPERVISED: 1}
_MODE_NAMES = {v: k for k, v in _MODE_BYTES.items()}
_ACT_BYTES = {SIGMOID: 0, LINEAR: 1}
_ACT_NAMES = {v: k for k, v in _ACT_BYTES.items()}


@dataclass
class Dataset:
    """Feature matrix (D, m), one sample per column, with optional labels."""

    x: np.ndarray
    labels: np.ndarray | None = None

    @property
    def n_dims(self):
        return self.x.shape[0]

    @property
    def n_samples(self):
        return self.x.shape[1]


class _Reader:
    """Strict byte reader: short reads and leftover bytes are errors."""

    def __init__(self, data, path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n, what):
        if self.pos + n > len(self.data):
            raise ValueError("%s: truncated while reading %s" % (self.path, what))
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def done(self):
        if self.pos != len(self.data):
            raise ValueError("%s: %d trailing bytes after the last record"
                             % (self.path, len(self.data) - self.pos))


def _reject_nonfinite(path, what, arr):
    """Name the first NaN/Inf entry of a (records, columns) array."""
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        r, c = bad[0]
        raise ValueError("%s: %s %d column %d is %r, expected a finite number" % (path, what, r, c, float(arr[r, c])))


def _read_file(path):
    with open(path, "rb") as f:
        return f.read()


def load_idx(images_path, labels_path=None):
    """Big-endian image (and optional label) files into a Dataset."""
    r = _Reader(_read_file(images_path), images_path)
    magic, count, rows, cols = struct.unpack(">iiii", r.take(16, "header"))
    if magic != _IDX_IMAGES_MAGIC:
        raise ValueError("%s: bad magic %d, expected %d" % (images_path, magic, _IDX_IMAGES_MAGIC))
    if count < 0 or rows <= 0 or cols <= 0:
        raise ValueError("%s: bad header counts (%d, %d, %d)" % (images_path, count, rows, cols))
    pixels = np.frombuffer(r.take(count * rows * cols, "pixels"), dtype=np.uint8)
    r.done()
    x = pixels.reshape(count, rows * cols).T.astype(np.float64)

    labels = None
    if labels_path is not None:
        lr = _Reader(_read_file(labels_path), labels_path)
        lmagic, lcount = struct.unpack(">ii", lr.take(8, "header"))
        if lmagic != _IDX_LABELS_MAGIC:
            raise ValueError("%s: bad magic %d, expected %d" % (labels_path, lmagic, _IDX_LABELS_MAGIC))
        if lcount != count:
            raise ValueError("%s: %d labels for %d images" % (labels_path, lcount, count))
        labels = np.frombuffer(lr.take(lcount, "labels"), dtype=np.uint8).astype(np.int64)
        lr.done()
    return Dataset(x, labels)


def load_xvecs(path, element="float32"):
    """Dimension-prefixed vector files (fvecs / bvecs) into a Dataset."""
    if element == "float32":
        elem_size, dtype = 4, np.dtype("<f4")
    elif element == "uint8":
        elem_size, dtype = 1, np.uint8
    else:
        raise ValueError("element must be 'float32' or 'uint8', got %r" % (element,))
    data = _read_file(path)
    if len(data) < 4:
        raise ValueError("%s: file too short to hold any record" % path)
    d = struct.unpack("<i", data[:4])[0]
    if d <= 0:
        raise ValueError("%s: record dimension %d must be positive" % (path, d))
    rec_size = 4 + d * elem_size
    if len(data) % rec_size != 0:
        raise ValueError("%s: size %d is not a whole number of %d-byte records"
                         % (path, len(data), rec_size))
    count = len(data) // rec_size
    raw = np.frombuffer(data, dtype=np.uint8).reshape(count, rec_size)
    dims = raw[:, :4].copy().view("<i4").ravel()
    if not np.all(dims == d):
        bad = int(np.flatnonzero(dims != d)[0])
        raise ValueError("%s: record %d has dimension %d, expected %d" % (path, bad, dims[bad], d))
    body = raw[:, 4:].copy().view(dtype)
    _reject_nonfinite(path, "record", body)
    return Dataset(body.astype(np.float64).T)


def load_csv(path, labels=False, header=None):
    """Comma-separated samples, one per row.

    header=None sniffs the first line (non-numeric first cell means header);
    labels=True takes the final column as integer labels.
    """
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines:
        raise ValueError("%s: empty file" % path)
    if header is None:
        try:
            float(lines[0].split(",")[0])
            header = False
        except ValueError:
            header = True
    n_cols = len(lines[0].split(","))
    body = lines[1:] if header else lines
    rows = []
    for i, ln in enumerate(body):
        cells = ln.split(",")
        if len(cells) != n_cols:
            raise ValueError("%s: row %d has %d columns, expected %d" % (path, i, len(cells), n_cols))
        try:
            rows.append([float(c) for c in cells])
        except ValueError as e:
            raise ValueError("%s: row %d: %s" % (path, i, e)) from None
    arr = np.array(rows, dtype=np.float64).reshape(len(rows), n_cols)
    if not labels:
        _reject_nonfinite(path, "row", arr)
        return Dataset(arr.T.copy())
    if n_cols < 2:
        raise ValueError("%s: need at least 2 columns when the last is labels" % path)
    _reject_nonfinite(path, "row", arr[:, :-1])
    lab = arr[:, -1]
    bad = np.flatnonzero(~((np.abs(lab) < 2.0 ** 63) & (np.floor(lab) == lab)))
    if bad.size:
        raise ValueError("%s: row %d column %d: label %r is not a finite integer"
                         % (path, bad[0], n_cols - 1, float(lab[bad[0]])))
    return Dataset(arr[:, :-1].T.copy(), lab.astype(np.int64))


def save_model(params, path):
    """Serialize a network to the model format; float64 round-trips bitwise."""
    params.validate()
    n = params.n_layers
    parts = [MODEL_MAGIC, struct.pack("<BB", FORMAT_VERSION, _MODE_BYTES[params.mode]),
             struct.pack("<I", n)]
    parts.append(struct.pack("<%dI" % n, *params.layer_sizes))
    parts.append(bytes(_ACT_BYTES[a] for a in params.activations))
    for w, c in zip(params.weights, params.biases):
        parts.append(np.asarray(w, dtype="<f8").ravel(order="F").tobytes())
        parts.append(np.asarray(c, dtype="<f8").tobytes())
    with open(path, "wb") as f:
        f.write(b"".join(parts))


def load_model(path):
    r = _Reader(_read_file(path), path)
    if r.take(4, "magic") != MODEL_MAGIC:
        raise ValueError("%s: not a model file (bad magic)" % path)
    version, mode_byte = struct.unpack("<BB", r.take(2, "version/mode"))
    if version != FORMAT_VERSION:
        raise ValueError("%s: unsupported version %d" % (path, version))
    if mode_byte not in _MODE_NAMES:
        raise ValueError("%s: unknown mode byte %d" % (path, mode_byte))
    n = struct.unpack("<I", r.take(4, "layer count"))[0]
    if n < 2:
        raise ValueError("%s: layer count %d must be >= 2" % (path, n))
    sizes = list(struct.unpack("<%dI" % n, r.take(4 * n, "layer sizes")))
    if any(s < 1 for s in sizes):
        raise ValueError("%s: layer sizes must be >= 1, got %s" % (path, sizes))
    act_bytes = r.take(n - 1, "activation tags")
    try:
        acts = [_ACT_NAMES[b] for b in act_bytes]
    except KeyError:
        raise ValueError("%s: unknown activation byte" % path) from None
    weights = []
    biases = []
    for i in range(n - 1):
        rows_, cols_ = sizes[i + 1], sizes[i]
        wbuf = r.take(8 * rows_ * cols_, "weights[%d]" % i)
        weights.append(np.frombuffer(wbuf, dtype="<f8").reshape((rows_, cols_), order="F").astype(np.float64))
        cbuf = r.take(8 * rows_, "biases[%d]" % i)
        biases.append(np.frombuffer(cbuf, dtype="<f8").astype(np.float64))
    r.done()
    params = NetworkParams(sizes, weights, biases, acts, _MODE_NAMES[mode_byte])
    params.validate()
    return params


def save_codes(codes, path):
    codes.validate()
    with open(path, "wb") as f:
        f.write(CODES_MAGIC)
        f.write(struct.pack("<BIQ", FORMAT_VERSION, codes.code_len, codes.count))
        f.write(codes.packed.tobytes())


def load_codes(path):
    r = _Reader(_read_file(path), path)
    if r.take(4, "magic") != CODES_MAGIC:
        raise ValueError("%s: not a codes file (bad magic)" % path)
    version, code_len, count = struct.unpack("<BIQ", r.take(13, "header"))
    if version != FORMAT_VERSION:
        raise ValueError("%s: unsupported version %d" % (path, version))
    if code_len < 1:
        raise ValueError("%s: code length must be >= 1" % path)
    bpc = (code_len + 7) // 8
    body = np.frombuffer(r.take(bpc * count, "packed codes"), dtype=np.uint8)
    r.done()
    codes = BinaryCodes(code_len, count, body.reshape(count, bpc).copy())
    codes.validate()  # rejects nonzero padding bits
    return codes


def save_gt(gt, path):
    for idx in gt:
        idx = np.asarray(idx)
        if idx.size and (idx.min() < 0 or idx.max() > 0xFFFFFFFF):
            raise ValueError("ground-truth indices must fit in uint32")
    with open(path, "wb") as f:
        f.write(struct.pack("<Q", len(gt)))
        for idx in gt:
            idx = np.asarray(idx, dtype="<u4")
            f.write(struct.pack("<I", idx.size))
            f.write(idx.tobytes())


def load_gt(path):
    r = _Reader(_read_file(path), path)
    count = struct.unpack("<Q", r.take(8, "query count"))[0]
    gt = []
    for qi in range(count):
        n = struct.unpack("<I", r.take(4, "length of query %d" % qi))[0]
        idx = np.frombuffer(r.take(4 * n, "indices of query %d" % qi), dtype="<u4")
        gt.append(idx.astype(np.int64))
    r.done()
    return gt


def load_dataset(path, fmt="auto", labels_path=None, csv_labels=False):
    """Dispatch on format name or file extension."""
    if fmt == "auto":
        lower = str(path).lower()
        if lower.endswith(".csv"):
            fmt = "csv"
        elif lower.endswith(".fvecs"):
            fmt = "fvecs"
        elif lower.endswith(".bvecs"):
            fmt = "bvecs"
        elif "idx" in lower or lower.endswith("-ubyte"):
            fmt = "idx"
        else:
            raise ValueError("cannot infer format of %r; pass one of idx/fvecs/bvecs/csv" % (path,))
    if fmt == "idx":
        return load_idx(path, labels_path)
    if fmt == "fvecs":
        return load_xvecs(path, "float32")
    if fmt == "bvecs":
        return load_xvecs(path, "uint8")
    if fmt == "csv":
        return load_csv(path, labels=csv_labels)
    raise ValueError("unknown dataset format %r" % (fmt,))
