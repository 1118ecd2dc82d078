import os
import struct
import warnings

import numpy as np
import pytest

from hashlearn.dataio import (Dataset, load_codes, load_csv, load_dataset, load_gt, load_idx,
                              load_model, load_xvecs, save_codes, save_gt, save_model)
from hashlearn.evaluation import BinaryCodes
from hashlearn.network import LINEAR, SIGMOID, SUPERVISED, UNSUPERVISED

from helpers import random_params, traced_peak, write_xvecs


def write(path, data):
    path.write_bytes(data)
    return str(path)


def idx_images(count, rows, cols, pixels):
    return struct.pack(">iiii", 2051, count, rows, cols) + bytes(pixels)


def idx_labels(count, labels):
    return struct.pack(">ii", 2049, count) + bytes(labels)


def test_idx_fixture_exact_pixels(tmp_path):
    img = write(tmp_path / "img", idx_images(2, 2, 2, [0, 1, 2, 3, 250, 251, 252, 253]))
    lab = write(tmp_path / "lab", idx_labels(2, [7, 9]))
    ds = load_idx(img, lab)
    assert ds.x.shape == (4, 2) and ds.x.dtype == np.uint8
    assert ds.x[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]
    assert ds.x[:, 1].tolist() == [250.0, 251.0, 252.0, 253.0]
    assert ds.labels.tolist() == [7, 9]
    assert ds.n_dims == 4 and ds.n_samples == 2


def test_idx_errors(tmp_path):
    good = idx_images(1, 2, 2, [1, 2, 3, 4])
    with pytest.raises(ValueError, match="magic"):
        load_idx(write(tmp_path / "a", struct.pack(">iiii", 2052, 1, 2, 2) + bytes(4)))
    with pytest.raises(ValueError, match="truncated"):
        load_idx(write(tmp_path / "b", good[:-1]))
    with pytest.raises(ValueError, match="trailing"):
        load_idx(write(tmp_path / "c", good + b"\x00"))
    img = write(tmp_path / "d", good)
    with pytest.raises(ValueError, match="magic"):
        load_idx(img, write(tmp_path / "e", struct.pack(">ii", 2051, 1) + bytes(1)))
    with pytest.raises(ValueError, match="labels for"):
        load_idx(img, write(tmp_path / "f", idx_labels(2, [1, 2])))


def fvecs_record(values):
    return struct.pack("<i", len(values)) + struct.pack("<%df" % len(values), *values)


def test_fvecs_fixture(tmp_path):
    path = write(tmp_path / "v.fvecs", fvecs_record([1.0, 2.0, 3.0]))
    ds = load_xvecs(path, "float32")
    assert ds.x.shape == (3, 1)
    assert ds.x[:, 0].tolist() == [1.0, 2.0, 3.0]


def test_bvecs_fixture(tmp_path):
    data = struct.pack("<i", 2) + bytes([5, 250]) + struct.pack("<i", 2) + bytes([0, 7])
    ds = load_xvecs(write(tmp_path / "v.bvecs", data), "uint8")
    assert ds.x.shape == (2, 2)
    assert ds.x.T.tolist() == [[5.0, 250.0], [0.0, 7.0]]


def test_xvecs_errors(tmp_path):
    with pytest.raises(ValueError, match="dimension 0"):
        load_xvecs(write(tmp_path / "a", struct.pack("<i", 0)), "float32")
    two = fvecs_record([1.0, 2.0]) + fvecs_record([3.0, 4.0])
    with pytest.raises(ValueError, match="whole number"):
        load_xvecs(write(tmp_path / "b", two[:-2]), "float32")
    mixed = fvecs_record([1.0, 2.0]) + struct.pack("<i", 1) + struct.pack("<f", 9.0) + b"\x00" * 4
    with pytest.raises(ValueError):
        load_xvecs(write(tmp_path / "c", mixed), "float32")
    with pytest.raises(ValueError, match="too short"):
        load_xvecs(write(tmp_path / "d", b"\x01"), "float32")
    with pytest.raises(ValueError, match="element"):
        load_xvecs(write(tmp_path / "e", fvecs_record([1.0])), "float64")


def test_csv_with_header_and_labels(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f1,f2,label\n1.5,2.5,0\n3.0,4.0,1\n")
    ds = load_csv(str(path), labels=True)
    assert ds.x.T.tolist() == [[1.5, 2.5], [3.0, 4.0]]
    assert ds.labels.tolist() == [0, 1]


def test_csv_headerless_and_errors(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3,4\n")
    assert load_csv(str(path)).x.T.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    path.write_text("a,b\n")
    assert load_csv(str(path)).n_samples == 0
    path.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="columns"):
        load_csv(str(path))
    path.write_text("1,2\n3,x\n")
    with pytest.raises(ValueError, match="row 1"):
        load_csv(str(path))
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_csv(str(path))
    path.write_text("5\n6\n")
    with pytest.raises(ValueError, match="2 columns"):
        load_csv(str(path), labels=True)



def test_csv_rejects_fractional_label(tmp_path):
    path = tmp_path / "frac.csv"
    path.write_text("1,2,0\n3,4,1.5\n")
    with pytest.raises(ValueError, match=r"frac\.csv: row 1 column 2: label 1\.5 is not a finite integer"):
        load_csv(str(path), labels=True)


def test_csv_rejects_nan_label_without_cast_warning(tmp_path):
    path = tmp_path / "nanlab.csv"
    path.write_text("f1,f2,label\n1,2,nan\n3,4,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"nanlab\.csv: row 0 column 2: label nan"):
            load_csv(str(path), labels=True)


def test_csv_rejects_nonfinite_features(tmp_path):
    path = tmp_path / "feat.csv"
    path.write_text("1,2,0\ninf,4,1\n")
    with pytest.raises(ValueError, match=r"feat\.csv: row 1 column 0 is inf"):
        load_csv(str(path), labels=True)
    path.write_text("1,2\n3,nan\n")
    with pytest.raises(ValueError, match=r"feat\.csv: row 1 column 1 is nan"):
        load_csv(str(path))


def test_xvecs_rejects_nonfinite_features(tmp_path):
    path = write(tmp_path / "bad.fvecs", fvecs_record([1.0, 2.0, 3.0]) + fvecs_record([4.0, 5.0, float("-inf")]))
    with pytest.raises(ValueError, match=r"bad\.fvecs: record 1 column 2 is -inf"):
        load_xvecs(path, "float32")


def xvecs_values(element, shape, seed=3):
    rng = np.random.default_rng(seed)
    if element == "uint8":
        return rng.integers(0, 256, shape, dtype=np.uint8)
    # magnitudes from subnormal to near the float32 maximum, plus signed zeros
    x = (rng.standard_normal(shape) * 10.0 ** rng.integers(-44, 37, shape)).astype("<f4")
    x[0, :4] = [-0.0, 0.0, np.finfo(np.float32).smallest_subnormal, np.finfo(np.float32).max]
    return x


@pytest.mark.parametrize("element", ["float32", "uint8"])
def test_xvecs_keeps_the_file_element_type(tmp_path, element):
    x = xvecs_values(element, (7, 50))
    ds = load_xvecs(write_xvecs(tmp_path / "v.xvecs", x), element)
    assert ds.x.dtype == np.dtype(element) and ds.x.shape == (7, 50)
    assert not ds.x.flags.writeable  # a view of the file's bytes
    # every value equals its float64 value, which the numeric entry points compute
    assert np.array_equal(ds.x, x.astype(np.float64))


@pytest.mark.parametrize("element", ["float32", "uint8"])
def test_xvecs_peak_is_the_file_buffer(tmp_path, element):
    path = write_xvecs(tmp_path / "v.xvecs", xvecs_values(element, (128, 8000 if element == "uint8" else 2000)))
    ds, peak = traced_peak(lambda: load_xvecs(path, element))
    assert ds.n_samples > 0
    # one buffer of the file's bytes and numpy's fixed-size (about 64 KiB) casting buffer
    # for the finiteness sum; no copy of the values and no float64 array
    assert peak <= os.path.getsize(path) + 131072


def test_model_round_trip_both_modes(tmp_path):
    rng = np.random.default_rng(0)
    cases = [((5, 4, 3, 5), [SIGMOID, LINEAR, LINEAR], UNSUPERVISED),
             ((6, 4, 2), [SIGMOID, LINEAR], SUPERVISED)]
    for i, (sizes, acts, mode) in enumerate(cases):
        params = random_params(sizes, acts, mode, rng)
        path = str(tmp_path / ("m%d.dhnn" % i))
        save_model(params, path)
        back = load_model(path)
        assert back.layer_sizes == list(sizes)
        assert back.activations == acts
        assert back.mode == mode
        for wa, wb in zip(params.weights, back.weights):
            assert np.array_equal(wa, wb)
        for ca, cb in zip(params.biases, back.biases):
            assert np.array_equal(ca, cb)


def test_model_errors(tmp_path):
    rng = np.random.default_rng(1)
    params = random_params((3, 2), [LINEAR], SUPERVISED, rng)
    path = tmp_path / "m.dhnn"
    save_model(params, str(path))
    data = path.read_bytes()
    with pytest.raises(ValueError, match="magic"):
        load_model(write(tmp_path / "a", b"XXXX" + data[4:]))
    with pytest.raises(ValueError, match="version"):
        load_model(write(tmp_path / "b", data[:4] + b"\x02" + data[5:]))
    with pytest.raises(ValueError, match="mode"):
        load_model(write(tmp_path / "c", data[:5] + b"\x07" + data[6:]))
    with pytest.raises(ValueError, match="truncated"):
        load_model(write(tmp_path / "d", data[:-3]))
    with pytest.raises(ValueError, match="trailing"):
        load_model(write(tmp_path / "e", data + b"\x00"))
    with pytest.raises(ValueError, match="activation"):
        # the single activation byte sits right after the two uint32 sizes
        idx = 4 + 2 + 4 + 8
        load_model(write(tmp_path / "f", data[:idx] + b"\x09" + data[idx + 1:]))


def test_codes_round_trip_and_payload(tmp_path):
    rng = np.random.default_rng(2)
    for code_len in (1, 8, 11):
        signs = np.where(rng.standard_normal((code_len, 7)) >= 0, 1.0, -1.0)
        codes = BinaryCodes.from_sign_matrix(signs)
        path = str(tmp_path / ("c%d.dhcb" % code_len))
        save_codes(codes, path)
        back = load_codes(path)
        assert back.code_len == code_len and back.count == 7
        assert np.array_equal(back.packed, codes.packed)

    one = BinaryCodes.from_sign_matrix(np.array([[1.0]]))
    path = tmp_path / "one.dhcb"
    save_codes(one, str(path))
    assert path.read_bytes()[-1] == 0x01


def test_codes_errors(tmp_path):
    codes = BinaryCodes.from_sign_matrix(np.ones((3, 2)))
    path = tmp_path / "c.dhcb"
    save_codes(codes, str(path))
    data = path.read_bytes()
    with pytest.raises(ValueError, match="magic"):
        load_codes(write(tmp_path / "a", b"XXXX" + data[4:]))
    with pytest.raises(ValueError, match="version"):
        load_codes(write(tmp_path / "b", data[:4] + b"\x05" + data[5:]))
    with pytest.raises(ValueError, match="truncated"):
        load_codes(write(tmp_path / "c", data[:-1]))
    with pytest.raises(ValueError, match="padding"):
        load_codes(write(tmp_path / "d", data[:-1] + b"\xFF"))
    with pytest.raises(ValueError, match="trailing"):
        load_codes(write(tmp_path / "e", data + b"\x00"))


def test_empty_codes_round_trip(tmp_path):
    codes = BinaryCodes.from_sign_matrix(np.ones((16, 0)))
    path = str(tmp_path / "empty.dhcb")
    save_codes(codes, path)
    back = load_codes(path)
    assert back.count == 0 and back.code_len == 16
    assert back.packed.shape == (0, 2)


def test_gt_round_trip(tmp_path):
    gt = [np.array([3, 1, 4]), np.array([], dtype=np.int64), np.array([0])]
    path = str(tmp_path / "g.gt")
    save_gt(gt, path)
    back = load_gt(path)
    assert len(back) == 3
    for a, b in zip(gt, back):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError, match="uint32"):
        save_gt([np.array([2 ** 40])], str(tmp_path / "bad.gt"))
    with pytest.raises(ValueError, match="truncated"):
        load_gt(write(tmp_path / "t.gt", open(path, "rb").read()[:-2]))


def test_save_gt_rejects_non_integer_indices(tmp_path):
    path = tmp_path / "bad.gt"
    for bad in (np.array([0.7, 2.9]), np.array([True, False])):
        with pytest.raises(ValueError, match="query 1 holds"):
            save_gt([np.array([0]), bad], str(path))
    assert not path.exists()
    # empty arrays of any dtype stay valid, as on read
    save_gt([np.array([]), np.array([2], dtype=np.uint8)], str(path))
    assert [g.tolist() for g in load_gt(str(path))] == [[], [2]]


def test_load_dataset_dispatch(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("1,2\n")
    assert isinstance(load_dataset(str(csv)), Dataset)
    fv = write(tmp_path / "d.fvecs", fvecs_record([1.0]))
    assert load_dataset(fv).n_dims == 1
    bv = write(tmp_path / "d.bvecs", struct.pack("<i", 1) + bytes([9]))
    assert load_dataset(bv).x[0, 0] == 9.0
    img = write(tmp_path / "train-images-idx3-ubyte", idx_images(1, 1, 2, [4, 5]))
    assert load_dataset(img).n_dims == 2
    with pytest.raises(ValueError, match="infer"):
        load_dataset(str(tmp_path / "mystery.bin"))
    with pytest.raises(ValueError, match="unknown dataset format"):
        load_dataset(str(csv), fmt="xlsx")
