import dataclasses
import json

import numpy as np
import pytest

import hashlearn.cli as cli
from hashlearn.cli import main
from hashlearn.dataio import load_codes, load_gt, save_codes, save_gt, save_model
from hashlearn.evaluation import BinaryCodes, label_gt
from hashlearn.network import LINEAR, SIGMOID, SUPERVISED, UNSUPERVISED
from hashlearn.toydata import gaussian_clusters
from hashlearn.trainer import TrainConfig

from helpers import loop_knn_gt, random_params, write_xvecs


def write_csv(path, x, labels=None):
    rows = []
    for j in range(x.shape[1]):
        cells = ["%.10g" % v for v in x[:, j]]
        if labels is not None:
            cells.append(str(int(labels[j])))
        rows.append(",".join(cells))
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.fixture()
def clusters(tmp_path):
    x, labels = gaussian_clusters(6, 90, 3, seed=11)
    train_csv = write_csv(tmp_path / "train.csv", x, labels)
    return x, labels, train_csv


def test_train_encode_eval_pipeline(tmp_path, clusters, capsys):
    x, labels, train_csv = clusters
    model = str(tmp_path / "model.dhnn")
    rc = main(["train", "--mode", "sup", "--data", train_csv, "--labels", "last",
               "--bits", "4", "--layers", "5,4", "--ns", "8", "--itq-iters", "10",
               "--out", model])
    assert rc == 0
    report = json.loads((tmp_path / "model.json").read_text())
    assert report["config"]["bits"] == 4
    assert report["config"]["mode"] == "supervised"
    assert report["config"]["layer_sizes"] == [6, 5, 4, 4]
    assert report["status"] in ("converged", "budget-exhausted")
    trace = report["loss_trace"]
    for prev, cur in zip(trace, trace[1:]):
        assert cur <= prev + 1e-7 * max(1.0, abs(prev))
    assert "train_seconds" in report["timing"]

    # the codes written at train time are the subset's; re-encoding the same
    # samples with the saved model reproduces them byte for byte
    subset = report["subset_indices"]
    subset_csv = write_csv(tmp_path / "subset.csv", x[:, subset])
    enc_out = str(tmp_path / "reencoded.dhcb")
    assert main(["encode", "--model", model, "--data", subset_csv, "--out", enc_out]) == 0
    stored = load_codes(str(tmp_path / "model.dhcb"))
    again = load_codes(enc_out)
    assert np.array_equal(stored.packed, again.packed)

    # label ground truth of the subset against itself, then evaluate
    subset_lab_csv = write_csv(tmp_path / "subset_lab.csv", x[:, subset], labels[subset])
    gt_path = str(tmp_path / "subset.gt")
    assert main(["gt", "--method", "label", "--data", subset_lab_csv, "--labels", "last",
                 "--queries", subset_lab_csv, "--query-labels", "last", "--out", gt_path]) == 0
    expected_gt = label_gt(labels[subset], labels[subset])
    for got, want in zip(load_gt(gt_path), expected_gt):
        assert np.array_equal(got, want)

    eval_report = str(tmp_path / "eval.json")
    rc = main(["eval", "--db", str(tmp_path / "model.dhcb"), "--queries", enc_out,
               "--gt", gt_path, "--radius", "2", "--report", eval_report])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mAP" in out and "precision@r=2" in out
    payload = json.loads(open(eval_report).read())
    assert 0.0 <= payload["map"] <= 1.0
    assert "2" in payload["precision_at_radius"]


def test_unsup_train_and_gt_euclid(tmp_path, clusters):
    x, labels, train_csv = clusters
    model = str(tmp_path / "u.dhnn")
    rc = main(["train", "--mode", "unsup", "--data", train_csv, "--labels", "last",
               "--bits", "4", "--layers", "5,4", "--max-iter", "2", "--itq-iters", "10",
               "--out", model])
    assert rc == 0
    report = json.loads((tmp_path / "u.json").read_text())
    assert report["config"]["layer_sizes"] == [6, 5, 4, 4, 6]
    assert len(report["loss_trace"]) == 3

    queries_csv = write_csv(tmp_path / "q.csv", x[:, :5])
    db_csv = write_csv(tmp_path / "db.csv", x)
    gt_path = str(tmp_path / "e.gt")
    assert main(["gt", "--data", db_csv, "--queries", queries_csv, "--gt-k", "3",
                 "--out", gt_path]) == 0
    gt = load_gt(gt_path)
    assert len(gt) == 5
    for idx in gt:
        assert idx.shape == (3,)
        assert idx[0] in range(90)


def run_encode_and_gt(tmp_path, model, db_path, q_path, tag):
    """The bytes `hashlearn encode` writes for both inputs and `hashlearn gt` for the pair."""
    outs = [tmp_path / ("%s-%s" % (tag, f)) for f in ("db.dhcb", "q.dhcb", "e.gt")]
    assert main(["encode", "--model", model, "--data", db_path, "--out", str(outs[0])]) == 0
    assert main(["encode", "--model", model, "--data", q_path, "--out", str(outs[1])]) == 0
    assert main(["gt", "--data", db_path, "--queries", q_path, "--gt-k", "5", "--out", str(outs[2])]) == 0
    return [o.read_bytes() for o in outs]


@pytest.mark.parametrize("ext", ["fvecs", "bvecs"])
def test_encode_and_gt_on_xvecs_write_the_bytes_of_the_csv_path(tmp_path, ext):
    # CSV is read as float64, so its stages are the reference for the file's own element type
    rng = np.random.default_rng(5)
    dtype, scale = ("<f4", 40.0) if ext == "fvecs" else ("u1", 1.0)
    db, q = ((rng.standard_normal((12, n)) * scale + 100.0).clip(0, 255).astype(dtype) for n in (1100, 20))
    model = str(tmp_path / "m.dhnn")
    save_model(random_params([12, 10, 16], [SIGMOID, LINEAR], SUPERVISED, rng, scale=0.05), model)
    csv = []
    for name, x in (("db", db), ("q", q)):
        csv.append(str(tmp_path / (name + ".csv")))
        np.savetxt(csv[-1], x.T.astype(np.float64), fmt="%.17g", delimiter=",")
    got = run_encode_and_gt(tmp_path, model, write_xvecs(tmp_path / ("db." + ext), db),
                            write_xvecs(tmp_path / ("q." + ext), q), ext)
    assert got == run_encode_and_gt(tmp_path, model, *csv, "csv")
    bits = np.unpackbits(np.frombuffer(got[0], dtype=np.uint8)[17:])
    assert 0.2 < bits.mean() < 0.8  # codes that vary, so equal bytes say something


def test_gt_euclid_on_sift_like_bvecs(tmp_path):
    rng = np.random.default_rng(7)
    db = rng.integers(0, 256, (128, 600), dtype=np.uint8)
    db[:, 300:400] = db[:, :100]  # duplicate rows tie exactly
    queries = np.concatenate([db[:, :5], rng.integers(0, 256, (128, 15), dtype=np.uint8)], axis=1)
    gt_path = str(tmp_path / "sift.gt")
    assert main(["gt", "--method", "euclid", "--data", write_xvecs(tmp_path / "db.bvecs", db),
                 "--queries", write_xvecs(tmp_path / "q.bvecs", queries), "--gt-k", "10", "--out", gt_path]) == 0
    got = load_gt(gt_path)
    want = loop_knn_gt(db.astype(np.float64), queries.astype(np.float64), 10)
    assert len(got) == 20
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert got[0][:2].tolist() == [0, 300]


def test_eval_prints_hand_fixture_value(tmp_path, capsys):
    db = BinaryCodes.from_sign_matrix(np.array(
        [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, -1.0]]))
    q = BinaryCodes.from_sign_matrix(np.ones((4, 1)))
    db_path = str(tmp_path / "db.dhcb")
    q_path = str(tmp_path / "q.dhcb")
    gt_path = str(tmp_path / "g.gt")
    save_codes(db, db_path)
    save_codes(q, q_path)
    save_gt([np.array([0, 2])], gt_path)
    assert main(["eval", "--db", db_path, "--queries", q_path, "--gt", gt_path]) == 0
    out = capsys.readouterr().out
    assert "mAP: 0.8333" in out


def test_eval_report_deterministic(tmp_path):
    rng = np.random.default_rng(0)
    signs = np.where(rng.standard_normal((8, 20)) >= 0, 1.0, -1.0)
    db = BinaryCodes.from_sign_matrix(signs)
    q = BinaryCodes.from_sign_matrix(signs[:, :4])
    db_path, q_path, gt_path = (str(tmp_path / n) for n in ("db.dhcb", "q.dhcb", "g.gt"))
    save_codes(db, db_path)
    save_codes(q, q_path)
    save_gt([rng.choice(20, size=5, replace=False) for _ in range(4)], gt_path)
    r1, r2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["eval", "--db", db_path, "--queries", q_path, "--gt", gt_path,
                 "--report", r1]) == 0
    assert main(["eval", "--db", db_path, "--queries", q_path, "--gt", gt_path,
                 "--report", r2]) == 0
    assert open(r1, "rb").read() == open(r2, "rb").read()


def test_config_file_precedence(tmp_path, clusters):
    _, _, train_csv = clusters
    config = tmp_path / "run.conf"
    config.write_text("bits = 8\nseed = 7\nlayers = 5,4\nmax-iter = 1  # flags still win\n")
    model = str(tmp_path / "m.dhnn")
    rc = main(["train", "--config", str(config), "--mode", "unsup", "--data", train_csv,
               "--labels", "last", "--bits", "4", "--itq-iters", "5", "--out", model])
    assert rc == 0
    report = json.loads((tmp_path / "m.json").read_text())
    assert report["config"]["bits"] == 4      # flag overrides file
    assert report["config"]["seed"] == 7      # file overrides default
    assert report["config"]["max_iter"] == 1


@pytest.mark.parametrize("mode", [UNSUPERVISED, SUPERVISED])
def test_train_without_setting_flags_uses_train_config_defaults(tmp_path, monkeypatch, mode):
    # the stock 16-bit hidden widths (90, 30) need 90 inputs, and one class of
    # TrainConfig's stock n_per_class samples lets the supervised run select
    n_dims = 90
    x, labels = gaussian_clusters(n_dims, 2000, 1, seed=2)
    train_csv = write_csv(tmp_path / "train.csv", x, labels)
    built = []

    def quick(train):
        # record the config the CLI built, then train on a cut budget to keep the test fast
        def run(*args):
            built.append(args[-1])
            return train(*args[:-1], dataclasses.replace(args[-1], max_iter=1, lbfgs_initial=2, lbfgs_subsequent=1))
        return run
    monkeypatch.setattr(cli, "train_unsupervised", quick(cli.train_unsupervised))
    monkeypatch.setattr(cli, "train_supervised", quick(cli.train_supervised))
    argv = ["train", "--data", train_csv, "--labels", "last", "--out", str(tmp_path / "m.dhnn")]
    if mode == SUPERVISED:
        argv += ["--mode", "sup"]
    assert main(argv) == 0
    want = TrainConfig.defaults(mode, n_dims, 16)
    assert built == [want]
    report = json.loads((tmp_path / "m.json").read_text())["config"]
    assert (report["seed"], report["ns"], report["itq_iters"], report["center"], report["max_iter"]) \
        == (want.seed, want.n_per_class, want.itq_iters, want.center_inputs, want.max_iter)
    assert [report["lambda%d" % i] for i in (1, 2, 3, 4)] == [want.lambda1, want.lambda2, want.lambda3, want.lambda4]
    assert (report["bits"], report["layer_sizes"]) == (16, want.layer_sizes)


def test_config_file_center(tmp_path, clusters, capsys):
    _, _, train_csv = clusters
    config = tmp_path / "c.conf"
    argv = ["train", "--config", str(config), "--mode", "unsup", "--data", train_csv, "--labels", "last",
            "--bits", "4", "--layers", "5,4", "--max-iter", "1", "--itq-iters", "5",
            "--out", str(tmp_path / "m.dhnn")]
    for text, flags, want in (("center = yes\n", [], True), ("center = Off\n", [], False),
                              ("center = no\n", ["--center"], True)):
        config.write_text(text)
        assert main(argv + flags) == 0
        assert json.loads((tmp_path / "m.json").read_text())["config"]["center"] is want
    config.write_text("seed = 3\n\ncenter = maybe\n")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "%s:3:" % config in err and "'maybe'" in err


def test_config_file_value_fails_like_its_flag(tmp_path, clusters, capsys):
    _, _, train_csv = clusters
    config = tmp_path / "b.conf"
    config.write_text("bits = 8.0\n")
    argv = ["train", "--data", train_csv, "--labels", "last", "--out", str(tmp_path / "m.dhnn")]
    with pytest.raises(SystemExit) as from_flag:
        main(argv + ["--bits", "8.0"])
    flag_err = capsys.readouterr().err
    with pytest.raises(SystemExit) as from_file:
        main(argv + ["--config", str(config)])
    file_err = capsys.readouterr().err
    assert from_file.value.code == from_flag.value.code == 2
    assert file_err == flag_err
    assert "argument --bits: invalid int value: '8.0'" in file_err


def test_config_file_unknown_key(tmp_path, clusters, capsys):
    _, _, train_csv = clusters
    config = tmp_path / "bad.conf"
    config.write_text("bits = 8\nwhatever = 3\n")
    rc = main(["train", "--config", str(config), "--data", train_csv, "--labels", "last",
               "--out", str(tmp_path / "m.dhnn")])
    assert rc == 1
    assert "unknown key" in capsys.readouterr().err


def test_negative_seed_names_the_field(tmp_path, clusters, capsys):
    _, _, train_csv = clusters
    model = tmp_path / "m.dhnn"
    rc = main(["train", "--data", train_csv, "--labels", "last", "--bits", "4", "--layers", "5,4",
               "--seed", "-1", "--out", str(model)])
    assert rc == 1
    assert "error: seed must be >= 0" in capsys.readouterr().err
    assert not model.exists()


def test_encode_dimension_mismatch(tmp_path, clusters, capsys):
    x, labels, train_csv = clusters
    model = str(tmp_path / "m.dhnn")
    assert main(["train", "--mode", "unsup", "--data", train_csv, "--labels", "last",
                 "--bits", "4", "--layers", "5,4", "--max-iter", "1", "--itq-iters", "5",
                 "--out", model]) == 0
    narrow_csv = write_csv(tmp_path / "narrow.csv", x[:4])
    rc = main(["encode", "--model", model, "--data", narrow_csv,
               "--out", str(tmp_path / "c.dhcb")])
    assert rc == 1
    assert "dimensional" in capsys.readouterr().err


def test_encode_empty_input(tmp_path, clusters):
    _, _, train_csv = clusters
    model = str(tmp_path / "m.dhnn")
    assert main(["train", "--mode", "unsup", "--data", train_csv, "--labels", "last",
                 "--bits", "4", "--layers", "5,4", "--max-iter", "1", "--itq-iters", "5",
                 "--out", model]) == 0
    empty_csv = tmp_path / "empty.csv"
    empty_csv.write_text("c0,c1,c2,c3,c4,c5\n")
    out = str(tmp_path / "empty.dhcb")
    assert main(["encode", "--model", model, "--data", str(empty_csv), "--out", out]) == 0
    codes = load_codes(out)
    assert codes.count == 0 and codes.code_len == 4


def test_missing_file_and_bad_flags(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.dhnn")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    rc = main(["encode", "--model", str(tmp_path / "nope.dhnn"), "--data", str(tmp_path / "n.csv"),
               "--out", str(tmp_path / "c.dhcb")])
    assert rc == 1
    capsys.readouterr()
    rc = main(["train", "--data", str(tmp_path / "nope.csv")])
    assert rc == 1
    assert "--out" in capsys.readouterr().err


def test_supervised_requires_labels(tmp_path, clusters, capsys):
    x, _, _ = clusters
    plain_csv = write_csv(tmp_path / "plain.csv", x)
    rc = main(["train", "--mode", "sup", "--data", plain_csv, "--bits", "4",
               "--layers", "5,4", "--ns", "8", "--out", str(tmp_path / "m.dhnn")])
    assert rc == 1
    assert "labels" in capsys.readouterr().err
