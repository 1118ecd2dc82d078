"""Deep-network binary hashing with alternating continuous/discrete optimization.

Data convention used throughout: matrices hold one sample per column, so a
dataset of m points in D dimensions is a (D, m) array.  The loaders keep the
file's element type; the numeric entry points cast to float64.  Binary codes
live in {-1, +1} as (L, m) arrays until packed for storage.
"""

from hashlearn.network import NetworkParams, forward, sgn
from hashlearn.trainer import TrainConfig, TrainResult, train_unsupervised, train_supervised, encode
from hashlearn.evaluation import BinaryCodes, mean_average_precision, precision_at_radius

__all__ = [
    "NetworkParams",
    "forward",
    "sgn",
    "TrainConfig",
    "TrainResult",
    "train_unsupervised",
    "train_supervised",
    "encode",
    "BinaryCodes",
    "mean_average_precision",
    "precision_at_radius",
]
