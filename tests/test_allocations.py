"""Memory behaviour of the hot paths: an L-BFGS objective evaluation writes its
(width, m) intermediates into one reused Workspace, encode runs in fixed-size
column blocks, and evaluate sorts only the codes that can rank ahead of a
relevant one.  Checked with tracemalloc, plus differential tests of the blocked
encoder against one full-width pass and of what must stay unshared."""

import numpy as np
import pytest

from hashlearn.evaluation import BinaryCodes, evaluate
from hashlearn.network import LINEAR, SIGMOID, SUPERVISED, UNSUPERVISED, code_layer, forward
from hashlearn.trainer import _ENCODE_BLOCK, encode

from helpers import objective_instance, random_params, traced_peak, unblocked_encode

B = _ENCODE_BLOCK


def value_and_gradient(fun, vec):
    """An L-BFGS objective's value and its gradient at vec."""
    j, gradient = fun(vec)
    return j, gradient()


@pytest.mark.parametrize("mode", [UNSUPERVISED, SUPERVISED])
def test_warm_objective_evaluation_allocates_less_than_one_input_array(mode):
    fun, vec, _, x, _ = objective_instance(mode)
    value_and_gradient(fun, vec)
    (j, g), peak = traced_peak(lambda: value_and_gradient(fun, vec))
    assert np.isfinite(j) and g.shape == vec.shape
    assert peak < x.nbytes


@pytest.mark.parametrize("mode", [UNSUPERVISED, SUPERVISED])
def test_warm_value_only_evaluation_allocates_less_than_one_input_array(mode):
    # a trial point the line search rejects runs only the value half
    fun, vec, _, x, _ = objective_instance(mode)
    value_and_gradient(fun, vec)
    (j, _), peak = traced_peak(lambda: fun(vec * 1.01))
    assert np.isfinite(j)
    assert peak < x.nbytes


def test_encode_peak_beyond_its_output_does_not_grow_with_samples():
    rng = np.random.default_rng(1)
    params = random_params([32, 24, 16, 16, 32], [SIGMOID, SIGMOID, LINEAR, LINEAR], UNSUPERVISED, rng)
    extra = []
    for n in (2 * B, 8 * B):
        x = rng.standard_normal((32, n))
        codes, peak = traced_peak(lambda: encode(params, x))
        assert codes.count == n
        extra.append(peak - codes.packed.nbytes)
    # one block's forward pass; a full-width pass over 8 B columns would need 4x the 2 B one
    assert extra[1] <= extra[0] + 4096


def code_network(code_len, mode, seed):
    rng = np.random.default_rng(seed)
    sizes = [12, 20, code_len] + ([12] if mode == UNSUPERVISED else [])
    acts = [SIGMOID, LINEAR] + ([LINEAR] if mode == UNSUPERVISED else [])
    return random_params(sizes, acts, mode, rng, scale=1.0), rng


@pytest.mark.parametrize("code_len, mode", [(8, SUPERVISED), (16, UNSUPERVISED), (64, SUPERVISED),
                                            (65, UNSUPERVISED)])
@pytest.mark.parametrize("layout", ["C", "F", "float32-strided"])
def test_blocked_encode_equals_one_full_width_pass(code_len, mode, layout):
    params, rng = code_network(code_len, mode, code_len)
    for n in (1, B - 1, B, B + 1, 3 * B + 7):
        x = rng.standard_normal((12, n)) * 3.0
        if layout == "float32-strided":
            # as load_xvecs returns fvecs data: float32 columns of (dim, values) records
            records = np.zeros(n, dtype=[("dim", "<i4"), ("v", "<f4", (12,))])
            records["v"] = x.T
            x = records["v"].T
        else:
            x = np.asarray(x, order=layout)
        got, want = encode(params, x), unblocked_encode(params, x)
        assert (got.code_len, got.count) == (code_len, n)
        assert np.array_equal(got.packed, want.packed)
        got.validate()


def test_non_finite_activation_in_the_last_block_is_reported():
    params, rng = code_network(8, SUPERVISED, 3)
    params.activations = [LINEAR, LINEAR]
    params.weights[0][:] = 1.0
    x = rng.standard_normal((12, B + 1))
    x[:, B] = 1e308  # finite input whose first-layer sum overflows, in the one-column last block
    with pytest.raises(ValueError, match="non-finite activations at layer 2"), \
            np.errstate(over="ignore", invalid="ignore"):
        encode(params, x)
    assert encode(params, x[:, :B]).count == B


@pytest.mark.parametrize("mode", [UNSUPERVISED, SUPERVISED])
def test_consecutive_evaluations_return_distinct_gradients(mode):
    # L-BFGS keeps g and g_new from consecutive evaluations
    fun, vec, _, _, _ = objective_instance(mode)
    g1 = value_and_gradient(fun, vec)[1]
    kept = g1.copy()
    g2 = value_and_gradient(fun, vec * 0.99)[1]
    assert not np.shares_memory(g1, g2)
    assert np.array_equal(g1, kept)
    assert not np.array_equal(g1, g2)


@pytest.mark.parametrize("mode", [UNSUPERVISED, SUPERVISED])
def test_forward_trace_is_not_changed_by_a_later_evaluation(mode):
    # the code step reads forward()'s layer outputs; it must not alias the objective's workspace
    fun, vec, params, x, ws = objective_instance(mode)
    hs = forward(params, x, upto=code_layer(mode, params.n_layers))
    kept = [h.copy() for h in hs]
    value_and_gradient(fun, vec * 1.01)
    for h, h0 in zip(hs, kept):
        assert np.array_equal(h, h0)
        for buf in ws.acts + ws.back + ws.deriv + [ws.tmp, ws.sq]:
            assert not np.shares_memory(h, buf)


def test_evaluate_peak_stays_below_one_int64_per_database_code():
    # 100 clusters of 64-bit codes, 1000 each, and each query's 50 nearest codes as ground
    # truth: the farthest relevant code has about 1% of the database at or inside its distance
    rng = np.random.default_rng(0)
    n, code_len = 100_000, 64
    centres = rng.random((100, code_len)) < 0.5

    def draw(count):
        bits = centres[rng.integers(0, 100, count)] ^ (rng.random((count, code_len)) < 0.05)
        return BinaryCodes(code_len, count, np.packbits(bits, axis=1, bitorder="little"))
    db, queries = draw(n), draw(20)
    db_words = db.packed.view(np.uint64)[:, 0]
    gt = [np.argsort(np.bitwise_count(db_words ^ q), kind="stable")[:50] for q in queries.packed.view(np.uint64)[:, 0]]
    report, peak = traced_peak(lambda: evaluate(db, queries, gt))
    assert report.mean_ap > 0.5
    assert peak < 8 * n  # a full argsort of the database is 8 n bytes on its own


def test_evaluate_peak_stays_below_the_mmap_threshold():
    # the train_unsup benchmark's shape: 1000 16-bit codes, 200 queries and each one's 50
    # nearest codes.  glibc serves a block of 128 KB or more from fresh pages on every call,
    # so validation must check the lists in chunks, not all of them in one array
    rng = np.random.default_rng(0)
    db, queries = (BinaryCodes.from_sign_matrix(np.where(rng.random((16, count)) < 0.5, -1.0, 1.0))
                   for count in (1000, 200))
    db_words = db.packed.view(np.uint16)[:, 0]
    gt = [np.argsort(np.bitwise_count(db_words ^ q), kind="stable")[:50] for q in queries.packed.view(np.uint16)[:, 0]]
    evaluate(db, queries, gt)
    report, peak = traced_peak(lambda: evaluate(db, queries, gt))
    assert report.mean_ap > 0
    assert peak < 128 * 1024
