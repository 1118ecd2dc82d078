"""Brute-force references the benchmark checks the library's outputs against.

They share no code with hashlearn.evaluation: ground truth is a stable
argsort of explicit squared differences, and Hamming distances come from
unpacked bits compared one by one.
"""

import numpy as np


def knn_ground_truth(database, query, k):
    """Indices of the k database columns nearest to one query column.

    Squared Euclidean distance of the differences; ties go to the lower index.
    """
    d = np.sum((database - query[:, None]) ** 2, axis=0)
    return np.argsort(d, kind="stable")[:k]


def _bits(codes):
    return np.unpackbits(codes.packed, axis=1, count=codes.code_len, bitorder="little")


def average_precision(db_codes, query_codes, qi, relevant):
    """AP of query qi over the full Hamming ranking of the database.

    Ranking is by Hamming distance with ties to the lower index; an empty
    relevant set scores 0.
    """
    relevant = np.asarray(relevant)
    if relevant.size == 0:
        return 0.0
    q = _bits(query_codes)[qi]
    dist = np.count_nonzero(_bits(db_codes) != q[None, :], axis=1)
    order = np.argsort(dist, kind="stable")
    is_rel = np.isin(order, relevant)
    ranks = np.flatnonzero(is_rel) + 1          # 1-based ranks of the relevant items
    hits = np.arange(1, ranks.size + 1)         # relevant items seen up to each of them
    return float(np.sum(hits / ranks)) / relevant.size
