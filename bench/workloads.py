"""The benchmark's three workloads: seeded inputs, the timed operation, checks.

Each workload is a closed loop with one client: one process runs one
operation at a time, as a batch job would.  Inputs come only from the
generators below, seeded by the benchmark's ``--seed``; the library sees the
generated arrays (train_unsup, train_sup) or files (retrieval).

Every workload reports the same end-to-end metrics, so that each one is
defined on every workload:

- train_unsup / train_sup: the timed operation is one ``train_*`` call
  (``train_s``).  After it, outside ``train_s``, a held-out pass encodes a
  database and queries (``encode_s``), builds ground truth (``gt_s``) and
  evaluates (``eval_s``, ``map``, ``precision_at_2``).
- retrieval: the timed operation is the CLI sequence encode -> gt -> eval.
  Its 64-bit model is trained by ``hashlearn train`` during set-up, so its
  ``train_s`` and ``final_loss`` describe that set-up call.
"""

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

import oracles
from hashlearn import cli, dataio, trainer
from hashlearn.evaluation import BinaryCodes, euclidean_knn_gt, evaluate, label_gt, mean_average_precision
from hashlearn.trainer import BUDGET_EXHAUSTED, CONVERGED, TrainConfig, encode

RADII = (2, 3, 4)
GT_K = 50
N_DIMS = 64
ORACLE_QUERIES = 8  # queries per retrieval pass checked against the oracles
# Random codes score about the floor itself, so a margin keeps chance from passing them.
FLOOR_FACTOR = 2.0
# Cluster-centre scales, chosen so that quality metrics vary by only a few
# percent between seeds while mAP stays below 1.
UNSUP_CENTRE_SCALE = 24.0
RETRIEVAL_CENTRE_SCALE = 6.0
# The train workloads' held-out stages take milliseconds.  Each is called
# repeatedly for this long after every operation, and the run reports its
# fastest call: on a shared 2-core VM the medians of such short calls moved
# by a quarter between runs, while the fastest of many calls held still.
MIN_TIMED_S = 0.2


@dataclass(frozen=True)
class Sizes:
    """Input sizes and training budgets of one workload."""

    n_train: int
    n_db: int
    n_queries: int
    n_clusters: int
    code_len: int
    hidden: tuple
    max_iter: int | None = None  # outer iterations; None keeps the stock budget


FULL = {
    # the training set is also the database (n_db == n_train)
    "train_unsup": Sizes(n_train=1000, n_db=1000, n_queries=200, n_clusters=25,
                         code_len=16, hidden=(48, 32)),
    # n_train, n_db and n_queries are per class here; n_clusters is the class count
    "train_sup": Sizes(n_train=50, n_db=1000, n_queries=20, n_clusters=10,
                       code_len=16, hidden=(48, 32)),
    "retrieval": Sizes(n_train=1000, n_db=25_000, n_queries=200, n_clusters=500,
                       code_len=64, hidden=(64, 64), max_iter=3),
}
QUICK = {
    "train_unsup": Sizes(n_train=300, n_db=300, n_queries=20, n_clusters=6,
                         code_len=8, hidden=(24, 16), max_iter=2),
    # supervised codes only separate the classes after the stock budget
    "train_sup": Sizes(n_train=50, n_db=20, n_queries=3, n_clusters=10,
                       code_len=16, hidden=(48, 32)),
    "retrieval": Sizes(n_train=300, n_db=3000, n_queries=20, n_clusters=50,
                       code_len=16, hidden=(32, 32), max_iter=1),
}


# ---------------------------------------------------------------- inputs

def cluster_points(rng, n_points, centres):
    """(D, n) points around the given (D, k) centres, one unit of noise."""
    which = rng.integers(0, centres.shape[1], n_points)
    return centres[:, which] + rng.standard_normal((centres.shape[0], n_points))


def orthogonal_centres(rng, n_dims, n_centres, scale):
    """Equidistant centres, so their geometry does not depend on the seed."""
    q = np.linalg.qr(rng.standard_normal((n_dims, n_dims)))[0]
    return q[:, :n_centres] * scale


def labelled_points(rng, n_classes, per_class_counts, n_signal=16, n_nuisance=20,
                    signal_scale=10.0, nuisance_scale=20.0):
    """Labelled sets whose classes only partly follow Euclidean geometry.

    The first n_signal dimensions hold the class centres; the remaining ones
    hold n_nuisance label-independent centres of larger spread, so nearest
    neighbours often cross classes and held-out label mAP stays below 1.
    Returns one (x, labels) pair per entry of per_class_counts.
    """
    signal = orthogonal_centres(rng, n_signal, n_classes, signal_scale)
    nuisance = orthogonal_centres(rng, N_DIMS - n_signal, n_nuisance, nuisance_scale)
    out = []
    for per_class in per_class_counts:
        labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
        noise_centre = rng.integers(0, n_nuisance, labels.size)
        x = np.vstack([signal[:, labels], nuisance[:, noise_centre]])
        x += rng.standard_normal(x.shape)
        order = rng.permutation(labels.size)
        out.append((x[:, order], labels[order]))
    return out


def write_fvecs(path, x):
    """(D, n) array to fvecs records (int32 dim, then D float32 values)."""
    x = np.asarray(x, dtype="<f4").T
    rec = np.empty((x.shape[0], x.shape[1] + 1), dtype="<f4")
    rec[:, 0] = np.array([x.shape[1]], dtype="<i4").view("<f4")[0]
    rec[:, 1:] = x
    rec.tofile(path)


def random_code_floor(rng, code_len, n_db, n_queries, gt):
    """mAP of seeded random codes against the same ground truth."""
    def rand(n):
        return BinaryCodes.from_sign_matrix(np.where(rng.random((code_len, n)) < 0.5, -1.0, 1.0))

    return mean_average_precision(rand(n_db), rand(n_queries), gt)[0]


def _timed(fn):
    """(result, seconds of the fastest call), calling fn until MIN_TIMED_S have passed."""
    start = time.perf_counter()
    fastest = float("inf")
    while True:
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
        fastest = min(fastest, t1 - t0)
        if t1 - start >= MIN_TIMED_S:
            return out, fastest


# ---------------------------------------------------------------- workloads

class Workload:
    """What run.py calls on every workload.

    setup() builds inputs (and, for retrieval, the model) and returns set-up
    metrics.  op() is the timed operation; it returns (output, metrics).
    finish(output) checks the output after the timed operation and returns
    (metrics, failures).  ``repeatable`` names the outputs that must repeat
    exactly between operations of one run; ``fastest`` the timings reported
    as the run's minimum.
    """

    repeatable = ("final_loss", "map", "precision_at_2")
    fastest = ()  # metrics the run reports as their minimum instead of their median

    def __init__(self, seed, sizes, work_dir):
        self.seed = seed
        self.sizes = sizes
        self.work_dir = work_dir
        self._floor = None

    def floor_failures(self, mean_ap, code_len, n_db, n_queries, gt):
        """mAP must be FLOOR_FACTOR times that of seeded random codes."""
        if self._floor is None:
            self._floor = random_code_floor(np.random.default_rng(self.seed + 1), code_len, n_db, n_queries, gt)
        if mean_ap < FLOOR_FACTOR * self._floor:
            return ["map %.4f is below %g x the random-code floor %.4f" % (mean_ap, FLOOR_FACTOR, self._floor)]
        return []


class TrainWorkload(Workload):
    supervised: bool
    fastest = ("encode_s", "gt_s", "eval_s")

    def _config(self):
        s = self.sizes
        mode = "supervised" if self.supervised else "unsupervised"
        overrides = {"center_inputs": True}
        if self.supervised:
            overrides["n_per_class"] = s.n_train
        if s.max_iter is not None:
            overrides["max_iter"] = s.max_iter
        return TrainConfig.defaults(mode, n_dims=N_DIMS, code_len=s.code_len,
                                    hidden=s.hidden, **overrides)

    def setup(self):
        rng = np.random.default_rng(self.seed)
        s = self.sizes
        if self.supervised:
            (self.x, self.labels), (self.db, self.db_labels), (self.queries, self.q_labels) = \
                labelled_points(rng, s.n_clusters, (s.n_train, s.n_db, s.n_queries))
        else:
            # the training set is the retrieval database; queries are held out
            centres = orthogonal_centres(rng, N_DIMS, s.n_clusters, UNSUP_CENTRE_SCALE)
            pts = cluster_points(rng, s.n_train + s.n_queries, centres)
            self.x, self.queries = pts[:, :s.n_train], pts[:, s.n_train:]
            self.db = self.x
        self.config = self._config()
        return {}

    def op(self):
        # module attributes, so that a traced run sees its wrappers
        t0 = time.perf_counter()
        if self.supervised:
            res = trainer.train_supervised(self.x, self.labels, self.config)
        else:
            res = trainer.train_unsupervised(self.x, self.config)
        return res, {"train_s": time.perf_counter() - t0}

    def _ground_truth(self):
        if self.supervised:
            return label_gt(self.db_labels, self.q_labels)
        return euclidean_knn_gt(self.db, self.queries, GT_K)

    def finish(self, res):
        # every training point is in the supervised subset too
        failures = _check_training(res, self.config.code_len, self.x.shape[1])
        (db_codes, q_codes), encode_s = _timed(lambda: (encode(res.params, self.db),
                                                        encode(res.params, self.queries)))
        gt, gt_s = _timed(self._ground_truth)
        report, eval_s = _timed(lambda: evaluate(db_codes, q_codes, gt, radii=RADII))
        failures += self.floor_failures(report.mean_ap, self.config.code_len, db_codes.count, q_codes.count, gt)
        metrics = {"encode_s": encode_s, "gt_s": gt_s, "eval_s": eval_s,
                   "final_loss": float(res.loss_trace[-1]), "map": report.mean_ap,
                   "precision_at_2": report.precision_at[2]}
        return metrics, failures


class TrainUnsup(TrainWorkload):
    supervised = False


class TrainSup(TrainWorkload):
    supervised = True


def _check_training(res, code_len, n_samples):
    failures = []
    for i, hist in enumerate(res.wc_histories):
        h = np.asarray(hist, dtype=np.float64)
        if not np.all(np.isfinite(h)):
            failures.append("L-BFGS phase %d history is not finite" % i)
        elif np.any(np.diff(h) > 0):
            failures.append("L-BFGS phase %d history increases" % i)
    if res.status not in (CONVERGED, BUDGET_EXHAUSTED):
        failures.append("unexpected status %r" % (res.status,))
    b = res.codes.to_sign_matrix()
    if b.shape != (code_len, n_samples) or not np.all(np.abs(b) == 1.0):
        failures.append("training codes have shape %s or non +-1 entries" % (b.shape,))
    return failures


class Retrieval(Workload):
    """encode -> gt -> eval through the CLI entry point, in this process."""

    repeatable = Workload.repeatable + ("outputs_sha256",)

    def _path(self, name):
        return os.path.join(self.work_dir, name)

    def _cli(self, *argv):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([str(a) for a in argv])
        if rc != 0:
            raise RuntimeError("hashlearn %s exited with %d" % (argv[0], rc))

    def setup(self):
        s = self.sizes
        rng = np.random.default_rng(self.seed)
        # more clusters than dimensions: Gaussian centres, whose many distances average out
        centres = rng.standard_normal((N_DIMS, s.n_clusters)) * RETRIEVAL_CENTRE_SCALE
        pts = cluster_points(rng, s.n_db + s.n_queries, centres)
        # the library reads float32 files; the oracles use the same values
        pts = pts.astype(np.float32).astype(np.float64)
        self.db, self.queries = pts[:, :s.n_db], pts[:, s.n_db:]
        write_fvecs(self._path("db.fvecs"), self.db)
        write_fvecs(self._path("queries.fvecs"), self.queries)
        write_fvecs(self._path("train.fvecs"), self.db[:, :s.n_train])
        argv = ["train", "--data", self._path("train.fvecs"), "--bits", s.code_len,
                "--layers", ",".join(str(h) for h in s.hidden), "--center",
                "--out", self._path("model.dhnn")]
        if s.max_iter is not None:
            argv += ["--max-iter", s.max_iter]
        self._cli(*argv)
        with open(self._path("model.json"), encoding="utf-8") as f:
            report = json.load(f)
        self.setup_failures = []
        if report["status"] not in (CONVERGED, BUDGET_EXHAUSTED):
            self.setup_failures.append("set-up training status %r" % (report["status"],))
        if not np.all(np.isfinite(report["loss_trace"])):
            self.setup_failures.append("set-up training loss is not finite")
        return {"train_s": report["timing"]["train_seconds"], "final_loss": report["loss_trace"][-1]}

    def op(self):
        p = self._path
        t0 = time.perf_counter()
        self._cli("encode", "--model", p("model.dhnn"), "--data", p("db.fvecs"), "--out", p("db.dhcb"))
        self._cli("encode", "--model", p("model.dhnn"), "--data", p("queries.fvecs"), "--out", p("queries.dhcb"))
        t1 = time.perf_counter()
        self._cli("gt", "--method", "euclid", "--data", p("db.fvecs"), "--queries", p("queries.fvecs"),
                  "--gt-k", GT_K, "--out", p("run.gt"))
        t2 = time.perf_counter()
        radii = [a for r in RADII for a in ("--radius", r)]
        self._cli("eval", "--db", p("db.dhcb"), "--queries", p("queries.dhcb"), "--gt", p("run.gt"),
                  *radii, "--report", p("eval.json"))
        t3 = time.perf_counter()
        return None, {"encode_s": t1 - t0, "gt_s": t2 - t1, "eval_s": t3 - t2}

    def finish(self, _output):
        s = self.sizes
        p = self._path
        failures = list(self.setup_failures)
        with open(p("eval.json"), encoding="utf-8") as f:
            report = json.load(f)
        db_codes = dataio.load_codes(p("db.dhcb"))
        q_codes = dataio.load_codes(p("queries.dhcb"))
        gt = dataio.load_gt(p("run.gt"))
        for name, codes, n in (("database", db_codes, s.n_db), ("query", q_codes, s.n_queries)):
            if (codes.code_len, codes.count) != (s.code_len, n):
                failures.append("%s codes are %d x %d bits, expected %d x %d"
                                % (name, codes.count, codes.code_len, n, s.code_len))
        sample = np.random.default_rng(self.seed + 2).choice(
            s.n_queries, size=min(ORACLE_QUERIES, s.n_queries), replace=False)
        for qi in sample:
            want = oracles.knn_ground_truth(self.db, self.queries[:, qi], GT_K)
            if not np.array_equal(gt[qi], want):
                failures.append("ground truth of query %d differs from the oracle" % qi)
            ap = oracles.average_precision(db_codes, q_codes, int(qi), gt[qi])
            if abs(ap - report["per_query_ap"][qi]) > 1e-12:
                failures.append("AP of query %d is %r, oracle says %r" % (qi, report["per_query_ap"][qi], ap))
        failures += self.floor_failures(report["map"], s.code_len, s.n_db, s.n_queries, gt)
        digest = hashlib.sha256()
        for name in ("db.dhcb", "queries.dhcb", "run.gt"):
            with open(p(name), "rb") as f:
                digest.update(f.read())
        metrics = {"map": report["map"], "precision_at_2": report["precision_at_radius"]["2"],
                   "outputs_sha256": digest.hexdigest()}
        return metrics, failures


WORKLOADS = {"train_unsup": TrainUnsup, "train_sup": TrainSup, "retrieval": Retrieval}
