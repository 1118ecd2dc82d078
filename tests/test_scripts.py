"""Smoke tests of the scripts at small sizes: each experiment runs end to end on
the stock layer widths and prints its retrieval table, and the bit-identity
script prints the same digest twice."""

import importlib.util
import struct
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("bits", [8, 16])
def test_run_synthetic_on_narrow_data(bits, capsys):
    argv = ["--dims", "16", "--samples", "300", "--queries", "40", "--clusters", "4", "--bits", str(bits),
            "--gt-k", "10"]
    assert load_script("run_synthetic").main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("mAP") == 8


def test_run_idx_images_on_8x8_images(tmp_path, capsys):
    # 10 classes of 30 noisy 8x8 images around a random template each: 64-D uint8 data
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(10, dtype=np.uint8), 30)
    templates = rng.integers(0, 256, (10, 64))
    pixels = (templates[labels] + rng.normal(0, 30, (labels.size, 64))).clip(0, 255).astype(np.uint8)
    images = tmp_path / "train-images-idx3-ubyte"
    images.write_bytes(struct.pack(">iiii", 2051, labels.size, 8, 8) + pixels.tobytes())
    label_file = tmp_path / "train-labels-idx1-ubyte"
    label_file.write_bytes(struct.pack(">ii", 2049, labels.size) + labels.tobytes())
    argv = ["--train-images", str(images), "--train-labels", str(label_file), "--per-class", "20",
            "--n-queries", "50", "--bits", "16"]
    assert load_script("run_idx_images").main(argv) == 0
    out = capsys.readouterr().out
    assert "64-dimensional" in out and out.count("mAP") == 2


def test_bit_identity_repeats_its_digest(capsys):
    # the digest depends on the BLAS, so only its form and its repetition are checked
    script = load_script("bit_identity")
    outputs = []
    for argv in ([], ["--parts"]):
        assert script.main(argv) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    plain, parts = outputs
    assert len(plain) == 1 and len(plain[0]) == 64 and int(plain[0], 16) >= 0
    assert len(parts) == 15 and parts[-1] == plain[0]
    assert len({line.split()[0] for line in parts}) == 15
