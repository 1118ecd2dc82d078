"""The benchmark's tracer (bench/tracing.py) times hashlearn by swapping functions,
by identity, in every loaded hashlearn module namespace.  Training must keep
calling each traced function through a name the tracer can swap, or its
per-layer metrics silently read 0."""

import os
import sys

import numpy as np

import hashlearn.cli  # Tracer.installed() swaps names only in loaded hashlearn modules
from hashlearn import trainer
from hashlearn.network import SUPERVISED, UNSUPERVISED
from hashlearn.toydata import gaussian_clusters

from helpers import write_xvecs

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
from tracing import Tracer  # noqa: E402


def tiny_config(mode):
    return trainer.TrainConfig.defaults(mode, 6, 4, hidden=(5, 4), max_iter=2, itq_iters=5, n_per_class=10,
                                        lbfgs_initial=5, lbfgs_subsequent=3)


def test_training_crosses_every_traced_boundary():
    x, labels = gaussian_clusters(6, 60, 3, seed=5)
    tracer = Tracer()
    with tracer.installed():
        runs = [trainer.train_unsupervised(x, tiny_config(UNSUPERVISED)),
                trainer.train_supervised(x, labels, tiny_config(SUPERVISED))]
    metrics = tracer.layer_metrics()
    assert metrics["lbfgs.minimize.calls"] == sum(len(res.wc_histories) for res in runs)
    # one forward pass to the code layer per code step
    assert metrics["network.forward.calls"] == sum(len(res.wc_histories) - 1 for res in runs)
    for name in ("trainer.train.self_s", "initialization.itq_init.s", "initialization.init_network.s",
                 "supervised.build_pairwise.s", "unsupervised.b_step.s"):
        assert metrics[name] > 0, name


def test_cli_retrieval_crosses_every_traced_boundary(tmp_path):
    # the retrieval workload's per-layer metrics: train -> encode -> gt -> eval through cli.main
    x, _ = gaussian_clusters(6, 90, 3, seed=5)
    data = {name: write_xvecs(tmp_path / (name + ".fvecs"), x[:, cols].astype(np.float32))
            for name, cols in (("train", slice(0, 60)), ("db", slice(0, 80)), ("queries", slice(80, 90)))}
    p = {name: str(tmp_path / name) for name in ("model.dhnn", "db.dhcb", "queries.dhcb", "run.gt", "eval.json")}
    tracer = Tracer()
    with tracer.installed():
        for argv in (["train", "--data", data["train"], "--bits", "4", "--layers", "5,4", "--max-iter", "1",
                      "--itq-iters", "5", "--out", p["model.dhnn"]],
                     ["encode", "--model", p["model.dhnn"], "--data", data["db"], "--out", p["db.dhcb"]],
                     ["encode", "--model", p["model.dhnn"], "--data", data["queries"], "--out", p["queries.dhcb"]],
                     ["gt", "--data", data["db"], "--queries", data["queries"], "--gt-k", "5", "--out", p["run.gt"]],
                     ["eval", "--db", p["db.dhcb"], "--queries", p["queries.dhcb"], "--gt", p["run.gt"],
                      "--report", p["eval.json"]]):
            assert hashlearn.cli.main(argv) == 0
    metrics = tracer.layer_metrics()
    for name in ("cli.self_s", "trainer.encode.self_s", "network.forward.calls", "network.forward.s",
                 "evaluation.euclidean_knn_gt.s", "dataio.load_dataset.s", "dataio.load_model.s",
                 "dataio.save_codes.s", "dataio.load_codes.s", "dataio.save_gt.s", "dataio.load_gt.s",
                 "dataio.bytes_read", "dataio.bytes_written"):
        assert metrics[name] > 0, name
    assert "evaluation.evaluate" in {span[0] for span in tracer.spans}
