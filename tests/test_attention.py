import numpy as np
import pytest

from chiraldet.attention import (
    SIGMA_FLOOR,
    DistanceBiasParams,
    LayerParams,
    attend_bwd,
    attend_fwd,
    feed_forward_bwd,
    feed_forward_fwd,
    head_averaged_rows,
    init_distance_bias,
    init_layer,
    pair_bias_bwd,
    pair_bias_fwd,
    pool,
    pool_bwd,
)
from chiraldet.data import SyntheticSpec, gen_rs
from chiraldet.encoder import BatchMask, pair_inputs, prepare_batch
from chiraldet.errors import DegeneracyError, NumericError
from chiraldet.geometry import reference_point
from chiraldet.gradcheck import flatten
from chiraldet.numerics import compare_grads
from oracles import finite_diff_grad, partition_reference, unflatten


def full_mask(n_q, n_keys):
    """Mask of one molecule without padding."""
    return BatchMask(queries=np.ones((1, n_q), bool), keys=np.ones((1, n_keys), bool))


def random_pairs(n_units=2, n_r=3, n_n=2, seed=0):
    """Pair inputs of one molecule with random unit and key positions, a
    batch of one without padding."""
    rng = np.random.default_rng(seed)
    return pair_inputs(full_mask(1 + n_units, n_r + n_n), n_r,
                       rng.uniform(-2, 2, size=(1, n_units, 3)),
                       rng.uniform(-2, 2, size=(1, n_r + n_n, 3)))


def one_pair(dist, pair_type):
    """Pair inputs of one unit and one key of the given type at distance
    dist along x."""
    return pair_inputs(full_mask(2, 1), 1 - pair_type, np.zeros((1, 1, 3)),
                       np.array([[[dist, 0.0, 0.0]]]))


def scalar_bias(params, dist, pair_type):
    """Bias per head of one pair, straight from the three-step formula."""
    x = params.e1[pair_type] * dist + params.e2[pair_type]
    dens = np.exp(-0.5 * ((x - params.mu) / params.sigma) ** 2) / (
        np.sqrt(2.0 * np.pi) * params.sigma
    )
    return dens @ params.w_p


def bias_of_one_pair(params, dist, pair_type):
    """pair_bias_fwd's bias of the single (unit, key) entry of one_pair."""
    return pair_bias_fwd(params, one_pair(dist, pair_type))[0][0, 1, 0]


class TestDistanceBias:
    def test_peak_on_every_head(self):
        g, n_heads = 6, 3
        params = DistanceBiasParams(
            e1=np.zeros((2, g)),
            e2=np.tile(np.linspace(0.0, 5.0, g), (2, 1)),
            mu=np.linspace(0.0, 5.0, g),
            sigma=np.ones(g),
            w_p=np.full((g, n_heads), 1.0 / g),
        )
        out = bias_of_one_pair(params, 1.23, 0)
        assert np.allclose(out, 1.0 / np.sqrt(2.0 * np.pi), atol=1e-12)

    def test_zero_projection(self):
        params = init_distance_bias(np.random.default_rng(0), 4, 2)
        params.w_p[:] = 0.0
        assert np.array_equal(bias_of_one_pair(params, 3.0, 1), np.zeros(2))

    def test_three_step_formula_seed41(self):
        rng = np.random.default_rng(41)
        g, n_heads = 5, 2
        params = DistanceBiasParams(
            e1=rng.standard_normal((2, g)),
            e2=rng.standard_normal((2, g)),
            mu=rng.standard_normal(g),
            sigma=rng.uniform(0.5, 2.0, g),
            w_p=rng.standard_normal((g, n_heads)),
        )
        expect = scalar_bias(params, 2.37, 1)
        assert np.allclose(bias_of_one_pair(params, 2.37, 1), expect, atol=1e-12)

    @pytest.mark.parametrize("low", [SIGMA_FLOOR, 0.0, -0.5])
    def test_sigma_at_floor_rejected(self, low):
        params = init_distance_bias(np.random.default_rng(0), 4, 2)
        params.sigma[2] = low
        with pytest.raises(DegeneracyError, match=r"bias\.sigma\[2\]"):
            pair_bias_fwd(params, one_pair(1.0, 0))

    def test_sigma_just_above_floor_accepted(self):
        params = init_distance_bias(np.random.default_rng(0), 4, 2)
        params.sigma[:] = 2.0 * SIGMA_FLOOR
        params.mu[:] = 1.0
        assert np.all(np.isfinite(bias_of_one_pair(params, 1.0, 0)))

    def test_gradients(self):
        rng = np.random.default_rng(11)
        g, n_heads = 4, 2
        params = init_distance_bias(rng, g, n_heads)
        params.e1 += rng.normal(0, 0.3, params.e1.shape)
        params.sigma = rng.uniform(0.5, 1.5, g)
        pairs = random_pairs(seed=12)
        weights = rng.standard_normal((3, 5, n_heads))[None]

        def f(theta):
            bias, _ = pair_bias_fwd(*unflatten(theta, params), pairs)
            return float((weights * bias).sum())

        numeric = finite_diff_grad(f, flatten(params))
        _, cache = pair_bias_fwd(params, pairs)
        analytic = flatten(pair_bias_bwd(params, cache, weights))
        assert compare_grads(analytic, numeric, tol=1e-5).passed


class TestInitPairBias:
    def test_empty_keys_shape(self):
        pairs = random_pairs(n_units=1, n_r=0, n_n=0)
        params = init_distance_bias(np.random.default_rng(1), 4, 2)
        bias, _ = pair_bias_fwd(params, pairs)
        assert bias.shape == (1, 2, 0, 2)

    def test_zero_distance_finite(self):
        position = np.random.default_rng(3).uniform(-2, 2, size=(1, 1, 3))
        pairs = pair_inputs(full_mask(2, 1), 1, position, position)
        params = init_distance_bias(np.random.default_rng(2), 4, 2)
        bias, _ = pair_bias_fwd(params, pairs)
        assert np.all(np.isfinite(bias))

    def test_entrywise_recomputation(self):
        rng = np.random.default_rng(4)
        params = init_distance_bias(rng, 5, 2)
        params.e1 += rng.normal(0, 0.2, params.e1.shape)
        mols = gen_rs(SyntheticSpec(count=1, seed=8, spectator_range=(2, 2)))
        mol = mols[0][0]
        _, related, nonchiral = partition_reference(mol)
        bias = pair_bias_fwd(params, prepare_batch([mol]).pairs)[0][0]
        assert np.array_equal(bias[0], np.zeros_like(bias[0]))
        key_pos = mol.coords[list(related + nonchiral)]
        n_r = len(related)
        for u, unit in enumerate(mol.chiral_units):
            for j in range(key_pos.shape[0]):
                d = float(np.linalg.norm(reference_point(unit, mol.coords) - key_pos[j]))
                t = 0 if j < n_r else 1
                assert np.allclose(bias[1 + u, j], scalar_bias(params, d, t), atol=1e-12)


def dense_attention_oracle(layer, h_c, h_r, h_n, bias):
    """Straight-line reimplementation with explicit loops, on one unpadded
    molecule: h_c (n_q, h), h_r and h_n (n, h), bias (n_q, n_k, H)."""
    n_q, h = h_c.shape
    n_heads = layer.n_heads
    d = h // n_heads
    keys = np.vstack([h_r @ layer.wk_r.T, h_n @ layer.wk_n.T])
    vals = np.vstack([h_r @ layer.wv_r.T, h_n @ layer.wv_n.T])
    queries = h_c @ layer.wq.T
    n_k = keys.shape[0]
    ctx = np.zeros((n_q, h))
    logits_out = np.zeros((n_q, n_k, n_heads))
    attn_out = np.zeros((n_q, n_k, n_heads))
    for q in range(n_q):
        for a in range(n_heads):
            sl = slice(a * d, (a + 1) * d)
            logit = np.array(
                [queries[q, sl] @ keys[j, sl] / np.sqrt(d) + bias[q, j, a] for j in range(n_k)]
            )
            logits_out[q, :, a] = logit
            e = np.exp(logit - logit.max())
            p = e / e.sum()
            attn_out[q, :, a] = p
            ctx[q, sl] = sum(p[j] * vals[j, sl] for j in range(n_k))
    u = h_c + ctx @ layer.wo.T

    def ln(x, g, b):
        mu, var = x.mean(), x.var()
        return (x - mu) / np.sqrt(var + 1e-5) * g + b

    u_ln = np.stack([ln(row, layer.ln1_gamma, layer.ln1_beta) for row in u])
    from scipy.special import erf

    def gelu_ref(x):
        return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))

    f = gelu_ref(u_ln @ layer.ff_w1.T + layer.ff_b1) @ layer.ff_w2.T + layer.ff_b2
    out = np.stack([ln(row, layer.ln2_gamma, layer.ln2_beta) for row in (u_ln + f)])
    return out, logits_out, attn_out


class TestAttend:
    def test_single_key_weight_is_one(self):
        rng = np.random.default_rng(5)
        layer = init_layer(rng, 8, 2)
        h_c = rng.standard_normal((1, 2, 8))
        h_r = rng.standard_normal((1, 1, 8))
        h_n = np.zeros((1, 0, 8))
        bias = rng.standard_normal((1, 2, 1, 2))
        _, _, attn, cache = attend_fwd(layer, h_c, h_r, h_n, bias, full_mask(2, 1))
        assert np.all(attn == 1.0)
        # pre-residual attention output is exactly that key's value row
        value_row = (h_r[0] @ layer.wv_r.T)[0]
        assert np.allclose(cache.ctx, np.tile(value_row, (2, 1)), atol=1e-12)

    def test_huge_bias_saturates(self):
        rng = np.random.default_rng(6)
        layer = init_layer(rng, 8, 2)
        h_c = rng.standard_normal((1, 2, 8))
        h_r = rng.standard_normal((1, 3, 8))
        h_n = rng.standard_normal((1, 2, 8))
        p = np.zeros((1, 2, 5, 2))
        p[:, :, 3, :] = 1e6
        _, _, attn, _ = attend_fwd(layer, h_c, h_r, h_n, p, full_mask(2, 5))
        assert np.all(attn[:, :, 3, :] > 1.0 - 1e-6)

    def test_matches_dense_oracle_seed43(self):
        rng = np.random.default_rng(43)
        layer = init_layer(rng, 8, 2)
        h_c = rng.standard_normal((1, 3, 8))  # token + 2 chiral
        h_r = rng.standard_normal((1, 3, 8))
        h_n = rng.standard_normal((1, 2, 8))
        bias = rng.standard_normal((1, 3, 5, 2))
        u, bias_out, attn, _ = attend_fwd(layer, h_c, h_r, h_n, bias, full_mask(3, 5))
        out, _ = feed_forward_fwd(layer, u)
        assert np.allclose(attn.sum(axis=2), 1.0, atol=1e-12)
        ref_out, ref_logits, ref_attn = dense_attention_oracle(
            layer, h_c[0], h_r[0], h_n[0], bias[0]
        )
        assert np.allclose(out[0], ref_out, atol=1e-10)
        assert np.allclose(bias_out[0], ref_logits, atol=1e-10)
        assert np.allclose(attn[0], ref_attn, atol=1e-10)

    def test_bias_telescopes_over_two_layers(self):
        rng = np.random.default_rng(7)
        layers = [init_layer(rng, 8, 2) for _ in range(2)]
        h_c = rng.standard_normal((1, 2, 8))
        h_r = rng.standard_normal((1, 2, 8))
        h_n = rng.standard_normal((1, 1, 8))
        p0 = rng.standard_normal((1, 2, 3, 2))
        bias = p0.copy()
        h_cs = [h_c]
        for layer in layers:
            u, bias, _, _ = attend_fwd(layer, h_cs[-1], h_r, h_n, bias, full_mask(2, 3))
            h_cs.append(feed_forward_fwd(layer, u)[0])
        # unrolled recomputation of each layer's query-key term
        total = p0[0].copy()
        keys0 = np.vstack([h_r[0] @ layers[0].wk_r.T, h_n[0] @ layers[0].wk_n.T])
        keys1 = np.vstack([h_r[0] @ layers[1].wk_r.T, h_n[0] @ layers[1].wk_n.T])
        for layer, keys, hc in ((layers[0], keys0, h_cs[0]), (layers[1], keys1, h_cs[1])):
            q = hc[0] @ layer.wq.T
            d = 8 // layer.n_heads
            for a in range(layer.n_heads):
                sl = slice(a * d, (a + 1) * d)
                total[:, :, a] += q[:, sl] @ keys[:, sl].T / np.sqrt(d)
        assert np.allclose(bias[0], total, atol=1e-10)

    def test_key_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        layer = init_layer(rng, 8, 2)
        h_c = rng.standard_normal((1, 3, 8))
        h_r = rng.standard_normal((1, 4, 8))
        h_n = rng.standard_normal((1, 3, 8))
        bias = rng.standard_normal((1, 3, 7, 2))
        mask = full_mask(3, 7)
        out = feed_forward_fwd(layer, attend_fwd(layer, h_c, h_r, h_n, bias, mask)[0])[0]
        perm_r = np.random.default_rng(1).permutation(4)
        perm_n = np.random.default_rng(2).permutation(3)
        bias_p = bias.copy()
        bias_p[:, :, :4] = bias_p[:, :, :4][:, :, perm_r]
        bias_p[:, :, 4:] = bias_p[:, :, 4:][:, :, perm_n]
        u_p = attend_fwd(layer, h_c, h_r[:, perm_r], h_n[:, perm_n], bias_p, mask)[0]
        out_p = feed_forward_fwd(layer, u_p)[0]
        assert np.max(np.abs(out - out_p)) < 1e-10

    def test_empty_keys_with_chiral_queries_rejected(self):
        rng = np.random.default_rng(10)
        layer = init_layer(rng, 8, 2)
        with pytest.raises(NumericError):
            attend_fwd(layer, rng.standard_normal((1, 2, 8)), np.zeros((1, 0, 8)),
                       np.zeros((1, 0, 8)), np.zeros((1, 2, 0, 2)), full_mask(2, 0))

    def test_keyless_molecule_of_a_hand_built_mask_rejected(self):
        """The key check is read from the mask once; every call with the
        mask still raises, and the same batch with a key for the second
        molecule runs."""
        rng = np.random.default_rng(12)
        layer = init_layer(rng, 8, 2)
        queries = np.ones((2, 2), bool)
        inputs = (rng.standard_normal((2, 2, 8)), rng.standard_normal((2, 1, 8)),
                  rng.standard_normal((2, 1, 8)), rng.standard_normal((2, 2, 2, 2)))
        keyless = BatchMask(queries=queries, keys=np.array([[True, True], [False, False]]))
        for _ in range(2):
            with pytest.raises(NumericError, match="key set is empty"):
                attend_fwd(layer, *inputs, keyless)
        keyed = BatchMask(queries=queries, keys=np.array([[True, True], [False, True]]))
        out, _, _, _ = attend_fwd(layer, *inputs, keyed)
        assert np.all(np.isfinite(out))

    def test_token_only_skips_attention(self):
        rng = np.random.default_rng(11)
        layer = init_layer(rng, 8, 2)
        h_c = rng.standard_normal((1, 1, 8))
        out, _, attn, _ = attend_fwd(layer, h_c, np.zeros((1, 0, 8)), np.zeros((1, 0, 8)),
                                     np.zeros((1, 1, 0, 2)), full_mask(1, 0))
        assert out.shape == (1, 1, 8)
        assert attn.shape == (1, 1, 0, 2)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(13)
        layer = init_layer(rng, 8, 2)
        h_c = rng.standard_normal((1, 2, 8))
        h_r = rng.standard_normal((1, 2, 8))
        h_n = rng.standard_normal((1, 1, 8))
        p0 = rng.standard_normal((1, 2, 3, 2))
        w_out = rng.standard_normal((1, 2, 8))
        w_bias = rng.standard_normal((1, 2, 3, 2))
        mask = full_mask(2, 3)

        inputs = (h_c, h_r, h_n, p0)

        def f(theta):
            layer_at, *inputs_at = unflatten(theta, layer, *inputs)
            u, bias_out, _, _ = attend_fwd(layer_at, *inputs_at, mask)
            out, _ = feed_forward_fwd(layer_at, u)
            return float((w_out * out).sum() + (w_bias * bias_out).sum())

        # the whole layer: attend_fwd, then feed_forward_fwd on its u
        numeric = finite_diff_grad(f, flatten(layer, *inputs))
        u, _, _, cache = attend_fwd(layer, *inputs, mask)
        ff_grads, d_u = feed_forward_bwd(layer, feed_forward_fwd(layer, u)[1], w_out)
        grads, *d_inputs = attend_bwd(layer, cache, d_u, w_bias)
        analytic = flatten(LayerParams(**grads, **ff_grads, n_heads=layer.n_heads), *d_inputs)
        assert compare_grads(analytic, numeric, tol=1e-5).passed


class TestPool:
    def test_token_plus_single_row(self):
        rng = np.random.default_rng(14)
        t, r = rng.standard_normal(8), rng.standard_normal(8)
        pooled = pool(np.vstack([t, r])[None], np.ones((1, 2), bool))
        assert np.allclose(pooled[0], t + r, atol=1e-14)

    def test_mean_idempotent_on_duplicates(self):
        rng = np.random.default_rng(15)
        t, r = rng.standard_normal(8), rng.standard_normal(8)
        pooled = pool(np.vstack([t, r, r])[None], np.ones((1, 3), bool))
        assert np.allclose(pooled[0], t + r, atol=1e-14)

    def test_arithmetic_oracle_seed47(self):
        rng = np.random.default_rng(47)
        rows = rng.standard_normal((1, 4, 8))
        expect = rows[0, 0] + rows[0, 1:].mean(axis=0)
        assert np.array_equal(pool(rows, np.ones((1, 4), bool))[0], expect)

    def test_token_only(self):
        t = np.arange(8.0)
        assert np.array_equal(pool(t[None, None], np.ones((1, 1), bool))[0], t)

    def test_backward(self):
        rng = np.random.default_rng(16)
        rows = rng.standard_normal((1, 4, 8))
        d = rng.standard_normal((1, 8))
        queries = np.ones((1, 4), bool)
        numeric = finite_diff_grad(
            lambda th: float((d * pool(th.reshape(rows.shape), queries)).sum()), rows.ravel()
        )
        assert compare_grads(pool_bwd(d, queries).ravel(), numeric, tol=1e-6).passed


class TestExportRows:
    def test_head_average_drops_token(self):
        rng = np.random.default_rng(17)
        attn = rng.uniform(size=(3, 5, 2))
        rows = head_averaged_rows(attn)
        assert rows.shape == (2, 5)
        assert np.allclose(rows, attn[1:].mean(axis=2))
