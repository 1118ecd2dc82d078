"""Synthetic-cluster experiment: train both hashing modes and compare retrieval.

Generates labeled Gaussian clusters, trains the reconstruction-driven and the
pairwise-label models, and reports mAP / precision@r against Euclidean-kNN and
label ground truth, next to two baselines (random codes, plain PCA signs).

Usage:
    python scripts/run_synthetic.py --dims 16 --samples 500 --clusters 4 --bits 16
"""

import argparse
import sys

import numpy as np

from hashlearn.evaluation import (BinaryCodes, euclidean_knn_gt, evaluate, label_gt)
from hashlearn.linalg import covariance, top_eigvecs
from hashlearn.network import SUPERVISED, UNSUPERVISED, sgn
from hashlearn.toydata import gaussian_clusters
from hashlearn.trainer import TrainConfig, encode, train_supervised, train_unsupervised


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--dims", type=int, default=16)
    p.add_argument("--samples", type=int, default=500, help="database + query samples")
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--clusters", type=int, default=4)
    p.add_argument("--bits", type=int, default=16)
    p.add_argument("--gt-k", type=int, default=50, help="Euclidean neighbors per query")
    p.add_argument("--seed", type=int, default=42)
    return p.parse_args(argv)


def show(name, report):
    radii = "  ".join("p@%d %.3f" % (r, report.precision_at[r]) for r in report.radii)
    print("  %-14s mAP %.3f   %s" % (name, report.mean_ap, radii))


def main(argv=None):
    args = parse_args(argv)
    if args.queries >= args.samples:
        print("error: need more samples than queries", file=sys.stderr)
        return 1
    x, labels = gaussian_clusters(args.dims, args.samples, args.clusters, args.seed)
    n_db = args.samples - args.queries
    db, db_labels = x[:, :n_db], labels[:n_db]
    q, q_labels = x[:, n_db:], labels[n_db:]

    print("training reconstruction model on %d samples ..." % n_db)
    ures = train_unsupervised(db, TrainConfig.defaults(
        UNSUPERVISED, args.dims, args.bits, center_inputs=True, seed=args.seed))
    print("  status %s, final loss %.5f" % (ures.status, ures.loss_trace[-1]))

    per_class = int(np.bincount(db_labels).min())
    print("training pairwise-label model (%d per class) ..." % per_class)
    sres = train_supervised(db, db_labels, TrainConfig.defaults(
        SUPERVISED, args.dims, args.bits, n_per_class=per_class,
        center_inputs=True, seed=args.seed))
    print("  status %s, final loss %.5f" % (sres.status, sres.loss_trace[-1]))

    rng = np.random.default_rng(args.seed)
    rand_db = BinaryCodes.from_sign_matrix(np.where(rng.random((args.bits, n_db)) < 0.5, -1.0, 1.0))
    rand_q = BinaryCodes.from_sign_matrix(np.where(rng.random((args.bits, args.queries)) < 0.5, -1.0, 1.0))
    mu = db.mean(axis=1)[:, None]
    proj = top_eigvecs(covariance(db), args.bits).T
    pca_db = BinaryCodes.from_sign_matrix(sgn(proj @ (db - mu)))
    pca_q = BinaryCodes.from_sign_matrix(sgn(proj @ (q - mu)))

    for title, gt in (("Euclidean %d-NN ground truth" % args.gt_k, euclidean_knn_gt(db, q, args.gt_k)),
                      ("label ground truth", label_gt(db_labels, q_labels))):
        print(title)
        show("reconstruction", evaluate(encode(ures.params, db), encode(ures.params, q), gt))
        show("pairwise-label", evaluate(encode(sres.params, db), encode(sres.params, q), gt))
        show("pca-signs", evaluate(pca_db, pca_q, gt))
        show("random", evaluate(rand_db, rand_q, gt))
    return 0


if __name__ == "__main__":
    sys.exit(main())
