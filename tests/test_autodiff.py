"""Finite-difference and algebraic checks of the reverse-mode engine."""

import numpy as np
import pytest

from oracles import heatmap_entropy, spatial_softmax
from poseadapt import autodiff as ad
from poseadapt.autodiff import Parameter, Tensor


def numeric_grad(fn, x, step=1e-6):
    """Central finite differences of scalar fn w.r.t. the array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        hi = fn()
        x[idx] = orig - step
        lo = fn()
        x[idx] = orig
        g[idx] = (hi - lo) / (2.0 * step)
        it.iternext()
    return g


def check_op(build, shapes, seed, positive=False):
    """Compare autodiff grads of a scalarized op against finite
    differences for every input."""
    rng = np.random.default_rng(seed)
    params = []
    for s in shapes:
        data = rng.uniform(0.2, 1.5, size=s) if positive else rng.standard_normal(s)
        params.append(Parameter(data))
    weights = rng.standard_normal(build(*params).data.shape)

    def scalar_loss():
        return ad.tsum(ad.mul(build(*params), weights))

    grads = ad.backward(scalar_loss(), params)
    for p, grad in zip(params, grads):
        num = numeric_grad(lambda: float(scalar_loss().data), p.data)
        np.testing.assert_allclose(grad, num, rtol=1e-5, atol=1e-7)


# a constant operand: a plain array, not a Tensor
C34 = np.linspace(-1.5, 2.0, 12).reshape(3, 4)


def softmax_rows(a):
    """The softmax over the last axis of a (B, n) Tensor through
    ``softmax_dense``: the identity as ``x`` and a zero bias make the
    logits ``a`` itself, bit for bit."""
    b, n = a.shape
    return ad.softmax_dense(np.eye(b), a, Tensor(np.zeros(n)), (b, 1, 1, n))[0]


OPS = [
    ("add", lambda a, b: ad.add(a, b), [(3, 4), (3, 4)], False),
    ("add_broadcast", lambda a, b: ad.add(a, b), [(3, 4), (4,)], False),
    ("sub", lambda a, b: ad.sub(a, b), [(2, 5), (2, 5)], False),
    ("mul", lambda a, b: ad.mul(a, b), [(4, 3), (4, 3)], False),
    ("mul_broadcast", lambda a, b: ad.mul(a, b), [(2, 3, 4), (3, 1)], False),
    ("scale", lambda a: ad.scale(a, -2.5), [(4, 2)], False),
    ("matmul", lambda a, b: ad.matmul(a, b), [(3, 4), (4, 5)], False),
    ("matmul_batched", lambda a, b: ad.matmul(a, b), [(2, 3, 4), (4, 5)], False),
    ("add_const_left", lambda a: ad.add(C34, a), [(3, 4)], False),
    ("add_const_broadcast", lambda a: ad.add(C34, a), [(4,)], False),
    ("sub_const_left", lambda a: ad.sub(C34, a), [(3, 4)], False),
    ("sub_const_right_broadcast", lambda a: ad.sub(a, C34[:, :1]), [(2, 3, 4)], False),
    ("mul_const_right", lambda a: ad.mul(a, C34), [(3, 4)], False),
    ("mul_const_broadcast", lambda a: ad.mul(C34, a), [(3, 1)], False),
    ("mul_number", lambda a: ad.mul(-2.5, a), [(3, 4)], False),
    ("matmul_const_left", lambda b: ad.matmul(C34, b), [(4, 5)], False),
    ("matmul_const_right_batched", lambda a: ad.matmul(a, C34), [(2, 5, 3)], False),
    ("reshape", lambda a: ad.reshape(a, (2, 6)), [(3, 4)], False),
    ("getitem", lambda a: ad.getitem(a, (slice(None), 1)), [(3, 4)], False),
    ("tsum_axis", lambda a: ad.tsum(a, axis=1), [(3, 4)], False),
    ("tmean_keep", lambda a: ad.tmean(a, axis=-1, keepdims=True), [(2, 5)], False),
    ("relu", lambda a: ad.relu(a), [(4, 4)], False),
    ("exp", lambda a: ad.exp(a), [(3, 3)], False),
    ("log", lambda a: ad.log(a), [(3, 3)], True),
    ("sqrt", lambda a: ad.sqrt(a), [(3, 3)], True),
    ("softplus", lambda a: ad.softplus(a), [(3, 4)], False),
    ("softmax_rows", softmax_rows, [(4, 6)], False),
    ("softmax_dense", lambda x, w, b: ad.softmax_dense(x, w, b, (3, 2, 2, 4))[0],
     [(3, 5), (5, 16), (16,)], False),
    ("entropy_of_softmax", lambda x, w, b: ad.softmax_dense(x, w, b, (2, 3, 4, 4))[2],
     [(2, 5), (5, 48), (48,)], False),
    ("unit_rows", lambda a: ad.unit_rows(a), [(5, 3)], False),
    ("row_norms", lambda a: ad.row_norms(a), [(5, 3)], True),
    ("mse", lambda a, b: ad.mse(a, b), [(4, 3), (4, 3)], False),
    ("dense", lambda x, w, b: ad.dense(x, w, b), [(3, 4), (4, 5), (5,)], False),
    ("rotate_zyx", lambda x, a: ad.rotate_zyx(x, a), [(2, 5, 3), (2, 3)], False),
]


@pytest.mark.parametrize("name,build,shapes,positive",
                         OPS, ids=[o[0] for o in OPS])
def test_op_gradients_match_finite_differences(name, build, shapes, positive):
    for seed in (0, 1):
        check_op(build, shapes, seed, positive=positive)


@pytest.mark.parametrize("name,build,shapes,positive",
                         OPS, ids=[o[0] for o in OPS])
def test_no_grad_ops_give_the_recorded_values_without_a_graph(name, build, shapes,
                                                              positive):
    rng = np.random.default_rng(3)
    params = [Parameter(rng.uniform(0.2, 1.5, size=s) if positive else rng.standard_normal(s))
              for s in shapes]
    recorded = build(*params)
    with ad.no_grad():
        free = build(*params)
    assert recorded.parents
    assert free.parents == () and free._vjp is None
    assert type(free.data) is np.ndarray and free.data.dtype == np.float64
    np.testing.assert_array_equal(free.data, recorded.data)


def test_no_grad_full_reductions_are_zero_dimensional_arrays():
    p = Parameter(np.arange(6.0).reshape(2, 3))
    with ad.no_grad():
        for out in (ad.tsum(p), ad.tmean(p), ad.mse(p, 1.0), ad.exp(ad.tsum(p))):
            assert type(out.data) is np.ndarray and out.data.shape == ()


def test_no_grad_nests_and_restores_the_previous_mode():
    p = Parameter(np.ones(2))
    with ad.no_grad():
        with ad.no_grad():
            assert ad.exp(p).parents == ()
        assert ad.exp(p).parents == ()
    assert ad.exp(p).parents == (p,)


def test_no_grad_restores_recording_when_the_block_raises():
    p = Parameter(np.ones(2))
    with pytest.raises(RuntimeError, match="inside"):
        with ad.no_grad():
            raise RuntimeError("inside")
    assert ad.add(p, 1.0).parents == (p,)


def test_unrecorded_result_is_a_leaf_of_a_recorded_graph():
    p = Parameter(np.array([1.0, 2.0]))
    with ad.no_grad():
        frozen = ad.exp(p)
    grad_p, grad_frozen = ad.backward(ad.tsum(ad.mul(p, frozen)), [p, frozen])
    np.testing.assert_array_equal(grad_p, np.exp([1.0, 2.0]))
    np.testing.assert_array_equal(grad_frozen, [1.0, 2.0])


def test_matmul_rejects_one_dimensional_operands():
    with pytest.raises(ValueError, match="2 or more axes"):
        ad.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))
    with pytest.raises(ValueError, match="2 or more axes"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))
    with pytest.raises(ValueError, match=r"\(3,\)"):
        ad.matmul(Tensor(np.ones((2, 3))), np.ones(3))


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.matmul])
def test_constant_operands_are_not_recorded(op):
    p = Parameter(np.ones((3, 3)))
    const = np.full((3, 3), 2.0)
    for node in (op(p, const), op(const, p)):
        assert node.parents == (p,)
        assert len(node._vjp(np.ones((3, 3)))) == 1
    assert op(const, const).parents == ()
    mask = np.eye(3, dtype=bool)  # constants of any dtype compute in float64
    np.testing.assert_array_equal(op(p, mask).data, op(p, mask.astype(np.float64)).data)


def test_backward_returns_gradients_and_keeps_no_state():
    # gradients are return values: a second pass over the same loss gives
    # the same arrays again, nothing accumulates, and no tensor has a slot
    # to hold one
    p = Parameter(np.array([1.0, -2.0, 3.0]))
    loss = ad.tsum(ad.mul(p, p))
    (once,) = ad.backward(loss, [p])
    (twice,) = ad.backward(loss, [p])
    np.testing.assert_array_equal(once, [2.0, -4.0, 6.0])
    np.testing.assert_array_equal(twice, once)
    for t in (p, loss):
        assert not hasattr(t, "grad")
        with pytest.raises(AttributeError):
            t.grad = np.zeros(3)


def test_unreachable_parameter_keeps_zero_grad():
    used = Parameter(np.ones(3))
    unused = Parameter(np.ones(4))
    grad_unused, grad_used = ad.backward(ad.tsum(used), [unused, used])
    np.testing.assert_array_equal(grad_unused, np.zeros(4))
    np.testing.assert_array_equal(grad_used, np.ones(3))


def test_reused_node_accumulates_both_paths():
    p = Parameter(np.array([2.0]))
    y = ad.add(ad.mul(p, p), ad.scale(p, 3.0))  # p^2 + 3p -> 2p + 3 = 7
    (grad,) = ad.backward(ad.tsum(y), [p])
    np.testing.assert_array_equal(grad, [7.0])


def test_backward_rejects_nonscalar():
    p = Parameter(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.backward(ad.mul(p, p), [p])


def test_softmax_rows_is_row_pdf():
    rng = np.random.default_rng(3)
    out = softmax_rows(Tensor(rng.standard_normal((6, 9)) * 5)).data
    assert np.all(out > 0)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_rows_shift_invariant_and_stable():
    x = np.array([[1e4, 1e4 + 1.0, 1e4 - 2.0]])
    out = softmax_rows(Tensor(x)).data
    ref = softmax_rows(Tensor(x - 1e4)).data
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_softmax_dense_is_the_dense_then_softmax_graph_bit_for_bit():
    # values and gradients of the fused node against the three-pass
    # softmax of the dense product, with the same vjp arithmetic
    rng = np.random.default_rng(5)
    x = Parameter(rng.standard_normal((3, 6)))
    w = Parameter(rng.standard_normal((6, 2 * 16)) * 2.0)
    b = Parameter(rng.standard_normal(2 * 16))
    g = rng.standard_normal((3, 2, 16))
    rows, heat, ent = ad.softmax_dense(x, w, b, (3, 2, 4, 4))
    assert heat.parents == (rows,) and ent.parents == (heat,)
    np.testing.assert_array_equal(heat.data, spatial_softmax(
        (x.data @ w.data + b.data).reshape(3, 2, 4, 4)))
    grads = ad.backward(ad.tsum(ad.mul(rows, g)), [x, w, b])
    p = rows.data
    gz = (p * (g - (g * p).sum(axis=-1, keepdims=True))).reshape(3, 32)
    for got, want in zip(grads, (gz @ w.data.T, x.data.T @ gz, gz.sum(axis=0))):
        np.testing.assert_array_equal(got, want)
    # an empty batch gives empty PDFs and entropies, and zero gradients
    rows, heat, ent = ad.softmax_dense(Parameter(np.zeros((0, 6))), w, b, (0, 2, 4, 4))
    assert rows.shape == (0, 2, 16) and heat.shape == (0, 2, 4, 4) and ent.shape == (0, 2)
    gw, gb = ad.backward(ad.tsum(ent), [w, b])
    assert not gw.any() and not gb.any()


def test_entropy_gradient_checks_on_raw_pdfs_and_through_softmax():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((2, 17))
    # a 4x4 grid keeps the cells large enough for the finite differences,
    # whose truncation error grows as 1/p^2
    cells = rng.uniform(0.1, 1.0, size=(2, 17, 16))
    pdf = cells / cells.sum(axis=-1, keepdims=True)
    logits = Parameter(rng.standard_normal((2, 17 * 256)) * 3.0)

    # raw PDFs: the entropy node's vjp is the gradient of the heatmap-form
    # entropy with respect to its cells
    _, heat, ent = ad.softmax_dense(np.eye(2), Parameter(np.log(pdf).reshape(2, -1)),
                                    Tensor(np.zeros(17 * 16)), (2, 17, 4, 4))
    (analytic,) = ent._vjp(w)
    cells = heat.data.copy()
    numeric = numeric_grad(lambda: float((heatmap_entropy(cells) * w).sum()), cells)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-7)

    def softmax():
        ent = ad.softmax_dense(np.eye(2), logits, Tensor(np.zeros(17 * 256)),
                               (2, 17, 16, 16))[2]
        return ad.tsum(ad.mul(ent, w))

    assert ad.gradient_check(softmax, [logits], rng, n_probe=20) < 1e-8


def test_entropy_gradient_is_finite_at_exact_zeros_and_softmax_zeroes_it():
    # logits 800 below the peak underflow to exact zero cells
    logits = Parameter(np.array([[0.0, -800.0, 1.0, -900.0]]))
    _, heat, ent = ad.softmax_dense(np.eye(1), logits, Tensor(np.zeros(4)), (1, 1, 2, 2))
    zero = heat.data.reshape(1, 4) == 0.0
    assert zero.sum() == 2
    assert np.isfinite(ent.data).all()
    (cell_grad,) = ent._vjp(np.ones((1, 1)))
    assert np.isfinite(cell_grad).all()
    (grad,) = ad.backward(ad.tsum(ent), [logits])
    assert np.isfinite(grad).all()
    np.testing.assert_array_equal(grad[zero], 0.0)
    assert np.abs(grad[~zero]).min() > 0.0


def test_entropy_of_a_joint_with_a_nan_cell_is_nan():
    bias = Parameter(np.zeros(3 * 4))
    bias.data[2 * 4 + 1] = np.nan  # one logit of joint 2
    ent = ad.softmax_dense(np.ones((2, 1)), Parameter(np.zeros((1, 12))), bias,
                           (2, 3, 2, 2))[2].data
    assert np.isnan(ent[:, 2]).all()
    ent[:, 2] = np.log(4.0)
    np.testing.assert_allclose(ent, np.log(4.0), atol=1e-15)


def test_unit_rows_normalizes_and_keeps_zero_rows_finite():
    x = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
    leaf = Tensor(x)
    out = ad.unit_rows(leaf)
    np.testing.assert_allclose(out.data[0], [0.6, 0.8, 0.0], atol=1e-9)
    assert np.all(np.isfinite(out.data))
    (grad,) = ad.backward(ad.tsum(out), [leaf])
    assert np.all(np.isfinite(grad))  # gradient through the zero row stays finite


def test_getitem_scatters_grad_to_source_positions():
    p = Parameter(np.zeros((3, 3)))
    (grad,) = ad.backward(ad.tsum(p[1]), [p])
    expected = np.zeros((3, 3))
    expected[1] = 1.0
    np.testing.assert_array_equal(grad, expected)


def test_broadcast_grad_reduces_to_leaf_shape():
    a = Parameter(np.ones((2, 3)))
    b = Parameter(np.ones(3))
    grad_a, grad_b = ad.backward(ad.tsum(ad.add(a, b)), [a, b])
    np.testing.assert_array_equal(grad_b, [2.0, 2.0, 2.0])
    assert grad_a.shape == (2, 3)


def test_gradient_check_utility_passes_on_smooth_function():
    rng = np.random.default_rng(0)
    w = Parameter(rng.standard_normal((4, 3)))

    def fn():
        return ad.tsum(ad.exp(ad.scale(ad.tsum(ad.mul(w, w)), -0.1)))

    assert ad.gradient_check(fn, [w], rng) < 1e-6


def test_gradient_check_utility_flags_wrong_gradient():
    rng = np.random.default_rng(0)
    w = Parameter(rng.standard_normal((4, 3)))

    def fn():
        loss = ad.tsum(ad.mul(w, w))
        bad = Tensor(loss.data, parents=(w,),
                     vjp=lambda g: (np.ones_like(w.data) * g,))  # wrong on purpose
        return bad

    assert ad.gradient_check(fn, [w], rng) > 1e-2


def test_intermediate_nodes_get_no_grad():
    # any leaf can be asked for, a Parameter or a Tensor made from data;
    # the gradients come back in the order asked, and the intermediate
    # node keeps nothing
    p = Parameter(np.array([1.0, 2.0]))
    other = Tensor(np.array([3.0, 4.0]))
    const = Tensor(np.array([5.0, 6.0]))
    h = ad.mul(p, other)
    grads = ad.backward(ad.tsum(ad.mul(h, const)), [const, p, other])
    assert not hasattr(h, "grad")
    np.testing.assert_array_equal(grads[0], [3.0, 8.0])
    np.testing.assert_array_equal(grads[1], [15.0, 24.0])
    np.testing.assert_array_equal(grads[2], [5.0, 12.0])


def _two_stage_loss(x, enc, head, calls):
    """loss = sum(relu(x @ enc) @ head); ``calls`` counts the vjp calls
    of the encoder output's node."""
    feat = ad.relu(ad.matmul(Tensor(x), enc))
    inner = feat._vjp

    def counted(g):
        calls.append(1)
        return inner(g)

    feat._vjp = counted
    return ad.tsum(ad.matmul(feat, head))


def test_backward_wrt_prunes_to_target_leaves():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 5))
    enc = Parameter(rng.standard_normal((5, 6)))
    head = Parameter(rng.standard_normal((6, 3)))
    calls = []
    full_enc, full_head = ad.backward(_two_stage_loss(x, enc, head, calls), [enc, head])
    assert calls and np.abs(full_enc).max() > 0.0

    calls.clear()
    (grad_head,) = ad.backward(_two_stage_loss(x, enc, head, calls), wrt=[head])
    assert not calls  # nothing below the head is differentiated
    np.testing.assert_array_equal(grad_head, full_head)


def test_backward_wrt_matches_full_pass_bit_for_bit():
    rng = np.random.default_rng(1)
    a = Parameter(rng.standard_normal((3, 4)))
    b = Parameter(rng.standard_normal(4))
    c = Parameter(rng.standard_normal((4, 2)))

    def loss():
        h = ad.softplus(ad.add(a, b))
        return ad.tsum(ad.mul(ad.matmul(h, c), ad.matmul(ad.exp(a), c)))

    # an unpruned pass: every leaf of the loss is asked for
    full = ad.backward(loss(), wrt=[a, b, c])
    pruned = ad.backward(loss(), wrt=[a, b])
    assert len(pruned) == 2
    np.testing.assert_array_equal(pruned[0], full[0])
    np.testing.assert_array_equal(pruned[1], full[1])
    (only_c,) = ad.backward(loss(), wrt=[c])  # prunes softplus, exp and add
    np.testing.assert_array_equal(only_c, full[2])


@pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4)])
@pytest.mark.parametrize("x_is_leaf", [True, False])
def test_dense_is_one_node_equal_to_add_of_matmul(x_shape, x_is_leaf):
    rng = np.random.default_rng(5)
    x_data = rng.standard_normal(x_shape)
    x = Parameter(x_data) if x_is_leaf else x_data
    w = Parameter(rng.standard_normal((4, 5)))
    b = Parameter(rng.standard_normal(5))
    probe = rng.standard_normal(x_shape[:-1] + (5,))
    leaves = [x, w, b] if x_is_leaf else [w, b]
    fused = ad.dense(x, w, b)
    composed = ad.add(ad.matmul(x, w), b)
    assert fused.parents == tuple(leaves)
    np.testing.assert_array_equal(fused.data, composed.data)
    for got, want in zip(ad.backward(ad.tsum(ad.mul(fused, probe)), leaves),
                         ad.backward(ad.tsum(ad.mul(composed, probe)), leaves)):
        np.testing.assert_array_equal(got, want)
