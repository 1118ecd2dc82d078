"""One SHA-256 digest over seeded training runs, a CLI pipeline and a library ground truth.

A change that should leave results bit-identical must leave this digest as it
is.  It covers both training modes at seeds 0-2 with input centring on and off
(codes, loss traces, L-BFGS histories, statuses and weights), and the files of
one CLI run of train -> encode -> gt -> eval, with Euclidean ground truth from
fvecs files and from two bvecs databases that repeat points, so that distances
tie exactly across the k-th neighbour (the second draws from only 10 points, so
each tie runs to about 90 columns), label ground truth from CSV files with a
label column, and mAP capped by --topk on both kinds of ground truth; and
library-level Euclidean ground truth on a row-major float64 database that
repeats points and near-ties them, a layout the CLI never passes.  The
digest depends on the BLAS and the machine, so compare it only between
checkouts run on one machine:

    PYTHONPATH=src python scripts/bit_identity.py
    PYTHONPATH=/other/checkout/src python scripts/bit_identity.py

--parts also prints the digest of each run, to show which one differs.
"""

import argparse
import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import tempfile

import numpy as np

from hashlearn import cli
from hashlearn.evaluation import euclidean_knn_gt
from hashlearn.network import SUPERVISED, UNSUPERVISED
from hashlearn.toydata import gaussian_clusters
from hashlearn.trainer import TrainConfig, train_supervised, train_unsupervised

N_DIMS = 16
CODE_LEN = 8
HIDDEN = (12, 10)


def _update(h, *arrays):
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(("%s%s" % (a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())


def train_digest(mode, seed, center):
    """Digest of everything one seeded training run returns."""
    x, labels = gaussian_clusters(N_DIMS, 300, 5, seed=100 + seed, center_scale=3.0)
    config = TrainConfig.defaults(mode, N_DIMS, CODE_LEN, hidden=HIDDEN, max_iter=3, seed=seed,
                                  center_inputs=center, n_per_class=30, lbfgs_initial=30, lbfgs_subsequent=15)
    res = train_unsupervised(x, config) if mode == UNSUPERVISED else train_supervised(x, labels, config)
    h = hashlib.sha256(res.status.encode())
    _update(h, res.codes.packed, res.loss_trace, res.b_step_losses, *res.wc_histories,
            *res.params.weights, *res.params.biases)
    if res.subset_indices is not None:
        _update(h, res.subset_indices)
    return h.hexdigest()


def _write_xvecs(path, x, element="<f4"):
    """An fvecs file, or a bvecs file for element "u1"."""
    records = np.empty(x.shape[1], dtype=[("dim", "<i4"), ("v", element, (x.shape[0],))])
    records["dim"] = x.shape[0]
    records["v"] = x.T
    records.tofile(path)
    return path


def _write_csv(path, x, labels):
    """One row per column of x, its label last; %.9g keeps every float32 value."""
    np.savetxt(path, np.column_stack([x.T, labels]), fmt="%.9g", delimiter=",")
    return path


def _json_without(path, keys):
    """A JSON report's bytes, canonical, without the keys that hold paths or wall times."""
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    return json.dumps({k: v for k, v in report.items() if k not in keys}, sort_keys=True).encode()


def cli_digest():
    """Digest of the model, codes, ground-truth and report files of one CLI pipeline."""
    x, labels = gaussian_clusters(N_DIMS, 1300, 20, seed=7, center_scale=3.0)
    with tempfile.TemporaryDirectory() as tmp:
        def path(name):
            return os.path.join(tmp, name)
        train, db, queries = (_write_xvecs(path(name), part) for name, part in
                              (("train.fvecs", x[:, :400]), ("db.fvecs", x[:, 300:1200]),
                               ("queries.fvecs", x[:, 1200:])))
        # 900 draws from 60 points: each query's nearest points repeat about 15 times
        levels = np.rint((x - x.min()) * (255 / (x.max() - x.min())))
        db_bvecs = _write_xvecs(path("db.bvecs"), levels[:, np.random.default_rng(7).integers(0, 60, 900)], "u1")
        # 900 draws from 10 points: each query's nearest point repeats about 90 times
        db_ties = _write_xvecs(path("db_ties.bvecs"), levels[:, np.random.default_rng(8).integers(0, 10, 900)], "u1")
        queries_bvecs = _write_xvecs(path("queries.bvecs"), levels[:, 1200:], "u1")
        db_csv = _write_csv(path("db.csv"), x[:, 300:1200], labels[300:1200])
        queries_csv = _write_csv(path("queries.csv"), x[:, 1200:], labels[1200:])
        steps = [
            ["train", "--data", train, "--bits", str(CODE_LEN), "--layers", "12,10", "--center", "--max-iter", "3",
             "--seed", "3", "--out", path("model.dhnn")],
            ["encode", "--model", path("model.dhnn"), "--data", db, "--out", path("db.dhcb")],
            ["encode", "--model", path("model.dhnn"), "--data", queries, "--out", path("queries.dhcb")],
            ["gt", "--data", db, "--queries", queries, "--gt-k", "20", "--out", path("gt.bin")],
            ["gt", "--data", db_bvecs, "--queries", queries_bvecs, "--gt-k", "20", "--out", path("bvecs_gt.bin")],
            ["gt", "--data", db_ties, "--queries", queries_bvecs, "--gt-k", "20", "--out", path("ties_gt.bin")],
            ["eval", "--db", path("db.dhcb"), "--queries", path("queries.dhcb"), "--gt", path("gt.bin"),
             "--report", path("eval.json")],
            ["eval", "--db", path("db.dhcb"), "--queries", path("queries.dhcb"), "--gt", path("gt.bin"),
             "--topk", "7", "--report", path("topk_eval.json")],
            ["gt", "--method", "label", "--data", db_csv, "--labels", "last", "--queries", queries_csv,
             "--query-labels", "last", "--out", path("label_gt.bin")],
            ["eval", "--db", path("db.dhcb"), "--queries", path("queries.dhcb"), "--gt", path("label_gt.bin"),
             "--topk", "100", "--report", path("label_eval.json")],
        ]
        for argv in steps:
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    raise SystemExit("hashlearn %s failed" % argv[0])
        h = hashlib.sha256()
        for name in ("model.dhnn", "model.dhcb", "db.dhcb", "queries.dhcb", "gt.bin", "bvecs_gt.bin",
                     "ties_gt.bin", "label_gt.bin"):
            with open(path(name), "rb") as f:
                h.update(f.read())
        h.update(_json_without(path("model.json"), ("config", "outputs", "timing")))
        h.update(_json_without(path("eval.json"), ("config",)))
        h.update(_json_without(path("topk_eval.json"), ("config",)))
        h.update(_json_without(path("label_eval.json"), ("config",)))
    return h.hexdigest()


def knn_digest():
    """Digest of library-level Euclidean ground truth on a row-major float64 database, the
    layout of the training workloads' data; the CLI passes only column-major file views.

    The 1200 columns are drawn from 300 points, a quarter of them coordinate permutations of
    one vector, and half the 100 queries are constant vectors, to which those permutations
    are the nearest points and at equal distances in exact arithmetic: distances tie
    exactly, and nearly, across the 20th neighbour, and the near ties fall as the float64
    sums round.
    """
    rng = np.random.default_rng(9)
    points, _ = gaussian_clusters(64, 300, 10, seed=9, center_scale=3.0)
    near = rng.standard_normal(64)  # nearer the constant queries than any cluster
    points[:, :75] = np.stack([rng.permutation(near) for _ in range(75)], axis=1)
    database = np.ascontiguousarray(points[:, rng.integers(0, 300, 1200)])
    queries = np.hstack([np.repeat(rng.standard_normal((1, 50)), 64, axis=0), 3.0 * rng.standard_normal((64, 50))])
    h = hashlib.sha256()
    _update(h, *euclidean_knn_gt(database, queries, 20))
    return h.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parts", action="store_true", help="also print the digest of each run")
    args = p.parse_args(argv)
    total = hashlib.sha256()
    runs = [("train %s seed=%d center=%d" % key, functools.partial(train_digest, *key))
            for key in itertools.product((UNSUPERVISED, SUPERVISED), range(3), (False, True))]
    for name, run in runs + [("cli train encode gt eval", cli_digest), ("euclidean_knn_gt row-major", knn_digest)]:
        digest = run()
        total.update(digest.encode())
        if args.parts:
            print("%s  %s" % (digest, name))
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
