"""The benchmark's tracer (bench/tracing.py) times hashlearn by swapping functions,
by identity, in every loaded hashlearn module namespace.  Training must keep
calling each traced function through a name the tracer can swap, or its
per-layer metrics silently read 0."""

import os
import sys

import hashlearn.cli  # noqa: F401  Tracer.installed() swaps names only in loaded hashlearn modules
from hashlearn import trainer
from hashlearn.network import SUPERVISED, UNSUPERVISED
from hashlearn.toydata import gaussian_clusters

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
