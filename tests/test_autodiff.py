"""Finite-difference and algebraic checks of the reverse-mode engine."""

import numpy as np
import pytest

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

    loss = scalar_loss()
    ad.backward(loss)
    for p in params:
        num = numeric_grad(lambda: float(scalar_loss().data), p.data)
        np.testing.assert_allclose(p.grad, num, rtol=1e-5, atol=1e-7)


# a constant operand: a plain array, not a Tensor
C34 = np.linspace(-1.5, 2.0, 12).reshape(3, 4)

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
    ("transpose", lambda a: ad.transpose(a, (1, 0, 2)), [(2, 3, 4)], False),
    ("getitem", lambda a: ad.getitem(a, (slice(None), 1)), [(3, 4)], False),
    ("stack", lambda a, b: ad.stack([a, b], axis=1), [(2, 3), (2, 3)], False),
    ("tsum_axis", lambda a: ad.tsum(a, axis=1), [(3, 4)], False),
    ("tmean_keep", lambda a: ad.tmean(a, axis=-1, keepdims=True), [(2, 5)], False),
    ("relu", lambda a: ad.relu(a), [(4, 4)], False),
    ("exp", lambda a: ad.exp(a), [(3, 3)], False),
    ("log", lambda a: ad.log(a), [(3, 3)], True),
    ("sqrt", lambda a: ad.sqrt(a), [(3, 3)], True),
    ("sin", lambda a: ad.sin(a), [(3, 3)], False),
    ("cos", lambda a: ad.cos(a), [(3, 3)], False),
    ("softplus", lambda a: ad.softplus(a), [(3, 4)], False),
    ("softmax_rows", lambda a: ad.softmax_rows(a), [(4, 6)], False),
    ("entropy", lambda a: ad.entropy(a), [(2, 3, 4, 4)], True),
    ("entropy_of_softmax",
     lambda a: ad.entropy(ad.reshape(ad.softmax_rows(a), (2, 3, 4, 4))), [(2, 3, 16)], False),
    ("unit_rows", lambda a: ad.unit_rows(a), [(5, 3)], False),
    ("row_norms", lambda a: ad.row_norms(a), [(5, 3)], True),
    ("mse", lambda a, b: ad.mse(a, b), [(4, 3), (4, 3)], False),
    ("dense", lambda x, w, b: ad.dense(x, w, b), [(3, 4), (4, 5), (5,)], False),
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
    assert free.parents == () and free._vjp is None and free.grad is None
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
    ad.backward(ad.tsum(ad.mul(p, frozen)))
    np.testing.assert_array_equal(p.grad, np.exp([1.0, 2.0]))
    np.testing.assert_array_equal(frozen.grad, [1.0, 2.0])


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


def test_backward_accumulates_additively():
    # two backward calls without zero_grad must give exactly twice the grad
    p = Parameter(np.array([1.0, -2.0, 3.0]))
    loss = ad.tsum(ad.mul(p, p))
    ad.backward(loss)
    once = p.grad.copy()
    ad.backward(loss)
    np.testing.assert_array_equal(p.grad, 2.0 * once)


def test_unreachable_parameter_keeps_zero_grad():
    used = Parameter(np.ones(3))
    unused = Parameter(np.ones(4))
    ad.backward(ad.tsum(used))
    np.testing.assert_array_equal(unused.grad, np.zeros(4))
    np.testing.assert_array_equal(used.grad, np.ones(3))


def test_reused_node_accumulates_both_paths():
    p = Parameter(np.array([2.0]))
    y = ad.add(ad.mul(p, p), ad.scale(p, 3.0))  # p^2 + 3p -> 2p + 3 = 7
    ad.backward(ad.tsum(y))
    np.testing.assert_allclose(p.grad, [7.0])


def test_backward_rejects_nonscalar():
    p = Parameter(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.backward(ad.mul(p, p))


def test_softmax_rows_is_row_pdf():
    rng = np.random.default_rng(3)
    out = ad.softmax_rows(Tensor(rng.standard_normal((6, 9)) * 5)).data
    assert np.all(out > 0)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_rows_shift_invariant_and_stable():
    x = np.array([[1e4, 1e4 + 1.0, 1e4 - 2.0]])
    out = ad.softmax_rows(Tensor(x)).data
    ref = ad.softmax_rows(Tensor(x - 1e4)).data
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_entropy_gradient_checks_on_raw_pdfs_and_through_softmax():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((2, 17))
    # a 4x4 grid keeps the cells large enough for the finite differences,
    # whose truncation error grows as 1/p^2
    cells = rng.uniform(0.1, 1.0, size=(2, 17, 16))
    pdf = Parameter((cells / cells.sum(axis=-1, keepdims=True)).reshape(2, 17, 4, 4))
    logits = Parameter(rng.standard_normal((2, 17, 256)) * 3.0)

    def raw():
        return ad.tsum(ad.mul(ad.entropy(pdf), w))

    def softmax():
        heat = ad.reshape(ad.softmax_rows(logits), (2, 17, 16, 16))
        return ad.tsum(ad.mul(ad.entropy(heat), w))

    assert ad.gradient_check(raw, [pdf], rng, n_probe=20) < 1e-6
    assert ad.gradient_check(softmax, [logits], rng, n_probe=20) < 1e-8


def test_entropy_gradient_is_finite_at_exact_zeros_and_softmax_zeroes_it():
    # logits 800 below the peak underflow to exact zero cells
    logits = Parameter(np.array([[[0.0, -800.0, 1.0, -900.0]]]))
    heat = ad.reshape(ad.softmax_rows(logits), (1, 1, 2, 2))
    zero = heat.data.reshape(1, 1, 4) == 0.0
    assert zero.sum() == 2
    ent = ad.entropy(heat)
    assert np.isfinite(ent.data).all()
    (cell_grad,) = ent._vjp(np.ones((1, 1)))
    assert np.isfinite(cell_grad).all()
    ad.backward(ad.tsum(ent))
    assert np.isfinite(logits.grad).all()
    np.testing.assert_array_equal(logits.grad[zero], 0.0)
    assert np.abs(logits.grad[~zero]).min() > 0.0


def test_entropy_of_a_joint_with_a_nan_cell_is_nan():
    heat = np.full((2, 3, 2, 2), 0.25)
    heat[1, 2, 0, 1] = np.nan
    ent = ad.entropy(Tensor(heat)).data
    assert np.isnan(ent[1, 2])
    ent[1, 2] = np.log(4.0)
    np.testing.assert_allclose(ent, np.log(4.0), atol=1e-15)


def test_unit_rows_normalizes_and_keeps_zero_rows_finite():
    x = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
    out = ad.unit_rows(Tensor(x))
    np.testing.assert_allclose(out.data[0], [0.6, 0.8, 0.0], atol=1e-9)
    assert np.all(np.isfinite(out.data))
    ad.backward(ad.tsum(out))  # gradient through the zero row stays finite


def test_getitem_scatters_grad_to_source_positions():
    p = Parameter(np.zeros((3, 3)))
    ad.backward(ad.tsum(p[1]))
    expected = np.zeros((3, 3))
    expected[1] = 1.0
    np.testing.assert_array_equal(p.grad, expected)


def test_broadcast_grad_reduces_to_leaf_shape():
    a = Parameter(np.ones((2, 3)))
    b = Parameter(np.ones(3))
    ad.backward(ad.tsum(ad.add(a, b)))
    np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])
    assert a.grad.shape == (2, 3)


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
    p = Parameter(np.array([1.0, 2.0]))
    primed = Tensor(np.array([3.0, 4.0]))
    primed.grad = np.zeros(2)
    const = Tensor(np.array([5.0, 6.0]))
    h = ad.mul(p, primed)
    ad.backward(ad.tsum(ad.mul(h, const)))
    assert h.grad is None
    np.testing.assert_array_equal(p.grad, [15.0, 24.0])
    np.testing.assert_array_equal(primed.grad, [5.0, 12.0])
    np.testing.assert_array_equal(const.grad, [3.0, 8.0])  # None -> fresh copy


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
    ad.backward(_two_stage_loss(x, enc, head, calls))
    full_head = head.grad.copy()
    assert calls and np.abs(enc.grad).max() > 0.0

    enc.grad[...] = 7.0
    head.grad[...] = 0.0
    calls.clear()
    ad.backward(_two_stage_loss(x, enc, head, calls), wrt=[head])
    assert not calls  # nothing below the head is differentiated
    np.testing.assert_array_equal(enc.grad, np.full((5, 6), 7.0))
    np.testing.assert_array_equal(head.grad, full_head)


def test_backward_wrt_matches_full_pass_bit_for_bit():
    rng = np.random.default_rng(1)
    a = Parameter(rng.standard_normal((3, 4)))
    b = Parameter(rng.standard_normal(4))
    c = Parameter(rng.standard_normal((4, 2)))

    def loss():
        h = ad.softplus(ad.add(a, b))
        return ad.tsum(ad.mul(ad.matmul(h, c), ad.matmul(ad.exp(a), c)))

    ad.backward(loss())
    full = [p.grad.copy() for p in (a, b, c)]
    for p in (a, b, c):
        p.zero_grad()
    ad.backward(loss(), wrt=[a, b])
    np.testing.assert_array_equal(a.grad, full[0])
    np.testing.assert_array_equal(b.grad, full[1])
    np.testing.assert_array_equal(c.grad, np.zeros((4, 2)))
