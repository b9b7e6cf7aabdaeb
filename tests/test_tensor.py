import weakref

import numpy as np
import pytest

from layoutdiffusion import tensor as tensor_module
from layoutdiffusion.exceptions import NumericError
from layoutdiffusion.tensor import (Tensor, attention, backward,
                                    collect_grads, concat, embedding, gelu, layer_norm,
                                    masked_softmax, matmul, mul, put_rows, relu,
                                    reshape, take_rows, transpose, tsum)

RNG = np.random.default_rng(20240)


def numeric_grad(fn, x, h=1e-6):
    """Central differences of scalar fn at array x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        fp = fn(x)
        xf[i] = orig - h
        fm = fn(x)
        xf[i] = orig
        flat[i] = (fp - fm) / (2 * h)
    return g


def check_grads(build, inputs, atol=1e-7):
    """Compare the tape gradient of every input, all tracked at once, with
    numeric differences through a random scalar projection of the op output."""
    leaves = [Tensor(x.copy(), requires_grad=True) for x in inputs]
    out = build(*leaves)
    proj = RNG.normal(size=out.data.shape)
    loss = tsum(mul(out, Tensor(proj)))
    backward(loss)

    for i, (leaf, x) in enumerate(zip(leaves, inputs)):
        def scalar(arr, i=i):
            args = [Tensor(arr if j == i else y) for j, y in enumerate(inputs)]
            return float((build(*args).data * proj).sum())

        expected = numeric_grad(scalar, x.copy())
        np.testing.assert_allclose(leaf.grad, expected, atol=atol)


def check_op(build, x_shape, atol=1e-7):
    """``check_grads`` for one standard-normal input."""
    check_grads(build, [RNG.normal(size=x_shape)], atol=atol)


def test_add_broadcast_grad():
    bias = RNG.normal(size=4)
    big = RNG.normal(size=(2, 3, 4))
    check_op(lambda t: t + Tensor(bias), (2, 3, 4))
    check_op(lambda t: Tensor(big) + t, (4,))


def test_sub_mul_grad():
    other = RNG.normal(size=(3, 4))
    check_op(lambda t: t - Tensor(other), (3, 4))
    check_op(lambda t: mul(t, Tensor(other)), (3, 4))
    check_op(lambda t: mul(t, t), (3, 4))


def test_matmul_grads_2d_3d_4d():
    w = RNG.normal(size=(4, 5))
    a3 = RNG.normal(size=(2, 3, 4))
    a4 = RNG.normal(size=(2, 2, 3, 4))
    b4 = RNG.normal(size=(2, 2, 4, 3))
    check_op(lambda t: matmul(t, Tensor(w)), (3, 4))
    check_op(lambda t: matmul(t, Tensor(w)), (2, 3, 4))  # batched @ 2d
    check_op(lambda t: matmul(Tensor(a3), t), (4, 5))
    check_op(lambda t: matmul(Tensor(a4), t), (2, 2, 4, 3))
    check_op(lambda t: matmul(t, Tensor(b4)), (2, 2, 3, 4))
    bias = RNG.normal(size=5)
    check_op(lambda t: matmul(t, Tensor(w), Tensor(bias)), (2, 3, 4))
    check_op(lambda t: matmul(Tensor(a3), t, Tensor(bias)), (4, 5))
    check_op(lambda t: matmul(Tensor(a3), Tensor(w), t), (5,))
    check_op(lambda t: matmul(Tensor(a3), Tensor(w), t), (3, 5))  # broadcast over the batch
    np.testing.assert_array_equal(matmul(Tensor(a3), Tensor(w), Tensor(bias)).data,
                                  (matmul(Tensor(a3), Tensor(w)) + Tensor(bias)).data)


def test_matmul_grads_batched_by_2d_weight_both_tracked():
    for a_shape in [(2, 3, 4), (2, 2, 3, 4)]:
        check_grads(matmul, [RNG.normal(size=a_shape), RNG.normal(size=(4, 5))])
        check_grads(matmul, [RNG.normal(size=a_shape), RNG.normal(size=(4, 5)),
                             RNG.normal(size=5)])


def test_reshape_transpose_concat_grad():
    check_op(lambda t: reshape(t, (6, 2)), (3, 4))
    check_op(lambda t: transpose(t, (1, 0, 2)), (2, 3, 4))
    other = RNG.normal(size=(2, 3, 2))
    check_op(lambda t: concat(t, Tensor(other), axis=-1), (2, 3, 4))
    check_op(lambda t: concat(Tensor(other), t, axis=-1), (2, 3, 4))


def test_take_rows_put_rows_grads():
    # Unsorted rows with gaps: the rows left out get exactly zero gradient.
    index = np.array([4, 0, 2])
    check_op(lambda t: take_rows(t, index), (6, 3))
    check_op(lambda t: take_rows(t, index), (5, 2, 2))
    check_op(lambda t: put_rows(t, index, 6), (3, 3))
    check_op(lambda t: put_rows(take_rows(t, index), index, 5), (5, 2))
    x = RNG.normal(size=(3, 2))
    padded = put_rows(Tensor(x), index, 6).data
    np.testing.assert_array_equal(padded[index], x)
    np.testing.assert_array_equal(padded[[1, 3, 5]], np.zeros((3, 2)))
    np.testing.assert_array_equal(take_rows(Tensor(padded), index).data, x)


def test_sum_grads():
    check_op(lambda t: tsum(t), (3, 4))
    check_op(lambda t: tsum(t, axis=1), (3, 4))
    check_op(lambda t: tsum(t, axis=-1, keepdims=True), (2, 3, 4))


def test_activation_grads():
    check_op(relu, (3, 5), atol=1e-6)
    check_op(gelu, (3, 5), atol=1e-6)
    check_grads(gelu, [RNG.uniform(-4.0, 4.0, size=(4, 16))], atol=1e-6)


def test_embedding_grad():
    ids = np.array([[0, 2, 1], [2, 2, 0]])
    check_op(lambda t: embedding(t, ids), (3, 4))


def test_layer_norm_grads():
    scale = RNG.normal(size=6) + 1.0
    shift = RNG.normal(size=6)
    check_op(lambda t: layer_norm(t, Tensor(scale), Tensor(shift)), (2, 3, 6), atol=1e-5)
    x = RNG.normal(size=(2, 3, 6))
    check_op(lambda t: layer_norm(Tensor(x), t, Tensor(shift)), (6,))
    check_op(lambda t: layer_norm(Tensor(x), Tensor(scale), t), (6,))


def test_layer_norm_statistics_before_affine():
    x = RNG.normal(size=(4, 5, 32)) * 3.0 + 1.5
    ones = Tensor(np.ones(32))
    zeros = Tensor(np.zeros(32))
    y = layer_norm(Tensor(x), ones, zeros).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-6)
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-6)


def test_masked_softmax_grad_and_zeros():
    mask = np.array([True, True, False, True])
    check_op(lambda t: masked_softmax(t, mask), (2, 4), atol=1e-6)
    p = masked_softmax(Tensor(RNG.normal(size=(3, 4))), mask).data
    assert np.all(p[:, 2] == 0.0)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)


ATTN_MASK = np.array([[True, True, False, True, True],  # padded slot inside the row
                      [False, False, True, False, False],  # one valid key
                      [True, True, True, False, False]])
ATTN_HEADS = 2


def attention_inputs(dtype=np.float64):
    tokens = int(ATTN_MASK.sum())
    return [RNG.normal(size=(tokens, 6)).astype(dtype) for _ in range(3)]


def composite_attention(q, k, v, mask, heads):
    """The attention chain of separate tape ops that ``attention`` runs as one node."""
    b, n = mask.shape
    d = q.data.shape[-1]
    hd = d // heads
    index = np.flatnonzero(mask)

    def split_heads(x):
        return transpose(reshape(put_rows(x, index, b * n), (b, n, heads, hd)), (0, 2, 1, 3))

    q, k, v = split_heads(q), split_heads(k), split_heads(v)
    logits = matmul(q, transpose(k, (0, 1, 3, 2))) * float(1.0 / np.sqrt(hd))
    weights = masked_softmax(logits, mask[:, None, None, :])
    context = reshape(transpose(matmul(weights, v), (0, 2, 1, 3)), (b * n, d))
    return take_rows(context, index)


def test_attention_grads():
    check_grads(lambda q, k, v: attention(q, k, v, ATTN_MASK, ATTN_HEADS), attention_inputs(),
                atol=1e-6)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_attention_equals_composite_chain_bit_for_bit(dtype):
    inputs = attention_inputs(dtype)
    proj = RNG.normal(size=inputs[0].shape).astype(dtype)
    results = []
    for build in (attention, composite_attention):
        leaves = [Tensor(x.copy(), requires_grad=True) for x in inputs]
        out = build(*leaves, ATTN_MASK, ATTN_HEADS)
        backward(tsum(mul(out, Tensor(proj))))
        results.append([out.data] + [leaf.grad for leaf in leaves])
    for fused, chain in zip(*results):
        assert fused.dtype == chain.dtype == dtype
        assert np.array_equal(fused, chain)



def test_grad_of_sum_is_ones():
    p = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
    backward(tsum(p))
    np.testing.assert_array_equal(p.grad, np.ones((3, 2)))


def test_grad_of_squared_norm_is_2p():
    x = RNG.normal(size=5)
    p = Tensor(x, requires_grad=True)
    backward(tsum(mul(p, p)))
    np.testing.assert_allclose(p.grad, 2 * x, atol=1e-12)


def test_backward_rejects_non_scalar():
    p = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(NumericError):
        backward(mul(p, 2.0))


def test_backward_rejects_non_tensor():
    with pytest.raises(NumericError):
        backward(3.0)


def test_data_not_mutated_by_ops():
    x = np.ones((2, 2))
    t = Tensor(x, requires_grad=True)
    _ = mul(t, 3.0) + 1.0
    np.testing.assert_array_equal(t.data, np.ones((2, 2)))


def test_collect_grads_zero_for_untouched_params():
    store = {
        "used": Tensor(np.ones(3), requires_grad=True),
        "unused": Tensor(np.ones(4), requires_grad=True),
    }
    loss = tsum(mul(store["used"], store["used"]))
    grads = collect_grads(loss, store)
    np.testing.assert_allclose(grads["used"], 2 * np.ones(3))
    np.testing.assert_array_equal(grads["unused"], np.zeros(4))


def test_collect_grads_constant_loss_gives_all_zeros():
    store = {"p": Tensor(np.ones(2), requires_grad=True)}
    grads = collect_grads(Tensor(np.float64(0.0)), store)
    np.testing.assert_array_equal(grads["p"], np.zeros(2))


def test_collect_grads_clears_the_gradients_of_an_earlier_backward():
    leaves = {"p": Tensor(np.array([2.0]), requires_grad=True)}
    backward(tsum(mul(leaves["p"], 5.0)))
    grads = collect_grads(tsum(mul(leaves["p"], 3.0)), leaves)
    np.testing.assert_array_equal(grads["p"], [3.0])


def test_grad_accumulates_over_reuse():
    p = Tensor(np.array([2.0]), requires_grad=True)
    loss = tsum(mul(p, 3.0) + mul(p, p))
    backward(loss)
    np.testing.assert_allclose(p.grad, [3.0 + 4.0])


# -- a graph is differentiated once, and backward releases it as it goes ----------------


def test_a_second_backward_on_the_same_loss_raises():
    p = Tensor(np.array([2.0]), requires_grad=True)
    loss = tsum(mul(p, 3.0))
    backward(loss)
    np.testing.assert_array_equal(p.grad, [3.0])
    with pytest.raises(NumericError, match="already differentiated"):
        backward(loss)
    np.testing.assert_array_equal(p.grad, [3.0])


def test_a_graph_built_through_a_released_tensor_raises():
    p = Tensor(np.array([2.0]), requires_grad=True)
    y = mul(p, 3.0)
    backward(tsum(y))
    with pytest.raises(NumericError, match="already differentiated"):
        backward(tsum(mul(y, 2.0)))
    np.testing.assert_array_equal(y.data, [6.0])  # released nodes keep their data


def test_collect_grads_over_the_same_leaves_works_on_each_fresh_graph():
    leaves = {"p": Tensor(np.array([2.0, -1.0]), requires_grad=True)}
    for k in (3.0, 5.0, 3.0):
        grads = collect_grads(tsum(mul(leaves["p"], k)), leaves)
        np.testing.assert_array_equal(grads["p"], [k, k])


def graph_nodes(loss):
    """Every tracked tensor reachable from ``loss`` through parent links."""
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(p for p in node._parents if p.requires_grad)
    return list(seen.values())


def test_collect_grads_releases_every_interior_node_and_keeps_leaf_gradients():
    x = RNG.normal(size=(6, 4))
    leaves = {"w": Tensor(RNG.normal(size=(4, 4)), requires_grad=True),
              "b": Tensor(RNG.normal(size=4), requires_grad=True),
              "s": Tensor(np.ones(4), requires_grad=True)}
    h = gelu(matmul(x, leaves["w"], leaves["b"]))
    loss = tsum(mul(layer_norm(h + h, leaves["s"], leaves["b"]), 0.5))
    interior = [node for node in graph_nodes(loss) if node._backward is not None]
    assert len(interior) >= 5
    grads = collect_grads(loss, leaves)

    assert graph_nodes(loss) == [loss]  # a walk from the loss finds nothing behind it
    for node in interior:
        assert node._backward is tensor_module._released
        assert node.grad is None and node._parents == ()
    for name, leaf in leaves.items():
        assert leaf.grad is grads[name] and leaf._backward is None


def test_backward_frees_each_node_once_it_has_passed_its_gradient_on():
    """When the node nearest the leaf runs its backward, the arrays of the nodes between
    it and the loss are already gone."""
    p = Tensor(RNG.normal(size=(8, 8)), requires_grad=True)
    alive_when_probed = []
    probed = {}

    def probe(g):
        alive_when_probed.extend(ref() is not None for ref in probed["refs"])
        tensor_module._accumulate(p, g)

    first = tensor_module._result(p.data + 0.0, (p,), probe)
    second = gelu(first)
    third = gelu(second)
    probed["refs"] = [weakref.ref(second.data), weakref.ref(third.data)]
    loss = tsum(third)
    del second, third
    backward(loss)
    assert alive_when_probed == [False, False]
    assert p.grad.shape == (8, 8)
