from dataclasses import replace

import numpy as np
import pytest

from chiraldet.data import SyntheticSpec, featurize, gen_rs
from chiraldet.encoder import (
    KERNEL_EPS,
    EncoderParams,
    KernelBank,
    init_encoder,
    init_kernel_bank,
    kernel_bwd,
    kernel_fwd,
    prepare_batch,
    regularization_grad,
    regularization_loss,
    retract_orthonormal,
)
from chiraldet.errors import DegeneracyError, NumericError
from chiraldet.geometry import (
    Molecule,
    chirality_matrices,
    mirror,
    random_rotation,
    transform,
    unit_atoms,
)
from chiraldet.gradcheck import AUDIT_CHUNK, flatten
from chiraldet.model import (
    ModelConfig,
    forward_batch,
    init_model,
)
from chiraldet.numerics import compare_grads, det3_batch
from oracles import (
    assert_copies_keep_their_bytes,
    finite_diff_grad,
    gram_sqrt_det,
    unflatten,
)


def orthonormal_identity_bank(d_p=8):
    w = np.zeros((1, d_p, 3))
    w[0, :3, :3] = np.eye(3)
    return KernelBank(w=w, gamma=np.ones(d_p))


def nonsingular_mc(rng, n=1, floor=0.3):
    out = []
    while len(out) < n:
        m = rng.standard_normal((3, 3))
        if abs(det3_batch(m)) >= floor:
            out.append(m)
    return np.stack(out)


def reference_readout(bank, m):
    """The paper's definition, one slice at a time: det(R) of the reduced
    QR of the normalized slice, signed like det(M)."""
    out = np.empty(bank.n_kernels)
    for kk in range(bank.n_kernels):
        o = bank.w[kk] @ m
        centered = o - o.mean(axis=0)
        o = bank.gamma[:, None] * centered / np.sqrt((centered * centered).mean() + KERNEL_EPS)
        out[kk] = np.sign(det3_batch(m)) * abs(det3_batch(np.linalg.qr(o)[1]))
    return out


def kernel_fd_check(bank, mc, weights):
    """Analytic kernel_bwd against central differences over (w, gamma), the
    chirality matrices mc held fixed."""
    def f(theta):
        w, gamma = unflatten(theta, bank.w, bank.gamma)
        return float((weights * kernel_fwd(replace(bank, w=w, gamma=gamma), mc)[0]).sum())

    numeric = finite_diff_grad(f, flatten(bank.w, bank.gamma))
    grads = kernel_bwd(kernel_fwd(bank, mc)[1], weights)
    return compare_grads(flatten(grads.w, grads.gamma), numeric, tol=1e-5)


class TestKernelForward:
    def test_reflection_flips_every_channel(self):
        rng = np.random.default_rng(1)
        bank = init_kernel_bank(rng, 4, 8)
        m = nonsingular_mc(rng)
        flip = np.diag([1.0, 1.0, -1.0]) @ m[0]
        a = kernel_fwd(bank, m)[0]
        b = kernel_fwd(bank, flip[None])[0]
        assert np.all(np.sign(a) == -np.sign(b))

    def test_mirror_negates_exactly_with_normalization(self):
        # coordinate mirror acts as a right diag(1,1,-1) on the matrix
        rng = np.random.default_rng(2)
        bank = init_kernel_bank(rng, 4, 8)
        bank.gamma[:] = rng.uniform(0.5, 1.5, 8)
        m = nonsingular_mc(rng, n=3)
        a = kernel_fwd(bank, m)[0]
        b = kernel_fwd(bank, m @ np.diag([1.0, 1.0, -1.0]))[0]
        assert np.array_equal(b, -a)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        bank = init_kernel_bank(rng, 4, 8)
        bank.gamma[:] = rng.uniform(0.5, 1.5, 8)
        m = nonsingular_mc(rng, n=2)
        base = kernel_fwd(bank, m)[0]
        for _ in range(20):
            rot = random_rotation(rng)
            out = kernel_fwd(bank, m @ rot.T)[0]
            assert np.max(np.abs(out - base)) < 1e-9

    def test_nonfinite_rejected(self):
        bank = orthonormal_identity_bank()
        bad = np.full((1, 3, 3), np.nan)
        with pytest.raises(NumericError):
            kernel_fwd(bank, bad)

    @pytest.mark.parametrize("d_p", [4, 8, 32])
    def test_closed_form_matches_qr_reference(self, d_p):
        rng = np.random.default_rng(40 + d_p)
        bank = init_kernel_bank(rng, 6, d_p)
        bank.gamma[:] = rng.uniform(0.5, 1.5, d_p)
        mc = nonsingular_mc(rng, n=10, floor=1e-2)
        out = kernel_fwd(bank, mc)[0]
        for b in range(len(mc)):
            ref = reference_readout(bank, mc[b])
            assert np.max(np.abs(out[b] - ref) / np.abs(ref)) <= 1e-10

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(7)
        bank = init_kernel_bank(rng, 2, 4)
        bank.gamma[:] = rng.uniform(0.8, 1.2, 4)
        assert kernel_fd_check(bank, nonsingular_mc(rng, n=2), rng.standard_normal((2, 2))).passed

    def test_gradients_smooth_through_singular_m(self):
        # det M = 0 exactly: that row reads out 0, and the parameter
        # gradients of the batch stay exact
        rng = np.random.default_rng(9)
        bank = init_kernel_bank(rng, 2, 4)
        bank.gamma[:] = rng.uniform(0.8, 1.2, 4)
        mc = nonsingular_mc(rng, n=2)
        mc[0, 2] = mc[0, 1]
        assert det3_batch(mc[0]) == 0.0
        assert kernel_fd_check(bank, mc, rng.standard_normal((2, 2))).passed

    def test_rank_deficient_slice_reads_zero_and_has_no_gradient(self):
        rng = np.random.default_rng(10)
        bank = init_kernel_bank(rng, 3, 6)
        bank.w[1, :, 2] = 0.0
        mc = nonsingular_mc(rng, n=2)
        out, cache = kernel_fwd(bank, mc)
        assert np.all(out[:, 1] == 0.0) and np.all(out[:, [0, 2]] != 0.0)
        with pytest.raises(DegeneracyError, match="slice 1"):
            kernel_bwd(cache, np.ones_like(out))

    @pytest.mark.parametrize("field", ["w", "gamma"])
    def test_stacked_copies_keep_their_bytes_at_default_shapes(self, field):
        """64 kernels of d_p 32 over 300 matrices: k = 1 ... AUDIT_CHUNK
        copies of w, (k, 64, 32, 3), or of gamma, (k, 1, 32), give each
        copy the readout of that copy alone."""
        rng = np.random.default_rng(12)
        bank = init_kernel_bank(rng, 64, 32)
        bank.gamma[:] = rng.uniform(0.5, 1.5, 32)
        mc = nonsingular_mc(rng, n=300)
        assert_copies_keep_their_bytes(bank, field, lambda: kernel_fwd(bank, mc)[:1])


class TestRegularization:
    def test_orthonormal_is_zero(self):
        bank = init_kernel_bank(np.random.default_rng(0), 3, 8)
        assert regularization_loss(bank) < 1e-20

    def test_scaled_orthonormal(self):
        bank = init_kernel_bank(np.random.default_rng(1), 1, 8)
        bank.w *= 2.0
        assert abs(regularization_loss(bank) - 27.0) < 1e-10

    def test_matches_double_loop_oracle_seed31(self):
        rng = np.random.default_rng(31)
        bank = KernelBank(w=rng.standard_normal((3, 6, 3)), gamma=np.ones(6))
        total = 0.0
        for kk in range(3):
            g = bank.w[kk].T @ bank.w[kk]
            for i in range(3):
                for j in range(3):
                    diff = g[i, j] - (1.0 if i == j else 0.0)
                    total += diff * diff
        assert abs(regularization_loss(bank) - total) < 1e-12

    def test_stacked_copies_keep_their_bytes_at_default_shapes(self):
        """64 kernels of d_p 32: c = 1 ... AUDIT_CHUNK copies of w,
        (c, 64, 32, 3), give c sums, each the bytes of that copy's lone
        call, which is an np.float64 with the bytes of the sum of the
        squares over the whole bank."""
        rng = np.random.default_rng(14)
        bank = init_kernel_bank(rng, 64, 32)
        copies = bank.w + 1e-3 * rng.standard_normal((AUDIT_CHUNK, *bank.w.shape))
        alone = []
        for w in copies:
            loss = regularization_loss(KernelBank(w=w, gamma=bank.gamma))
            diff = w.transpose(0, 2, 1) @ w - np.eye(3)
            assert type(loss) is np.float64
            assert loss.tobytes() == (diff * diff).sum().tobytes()
            alone.append(loss)
        for c in range(1, AUDIT_CHUNK + 1):
            stacked = regularization_loss(KernelBank(w=copies[:c], gamma=bank.gamma))
            assert stacked.tobytes() == np.array(alone[:c]).tobytes(), c

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(8)
        bank = KernelBank(w=rng.standard_normal((2, 5, 3)), gamma=np.ones(5))

        def f(theta):
            return regularization_loss(
                KernelBank(w=theta.reshape(bank.w.shape), gamma=bank.gamma)
            )

        numeric = finite_diff_grad(f, bank.w.ravel())
        assert compare_grads(regularization_grad(bank).ravel(), numeric, tol=1e-6).passed


class TestRetraction:
    def test_orthonormal_unchanged_up_to_column_sign(self):
        bank = init_kernel_bank(np.random.default_rng(2), 2, 8)
        out = retract_orthonormal(bank)
        for kk in range(2):
            prod = out.w[kk].T @ bank.w[kk]
            assert np.allclose(np.abs(prod), np.eye(3), atol=1e-10)

    def test_scaled_slice_recovers_alpha_one(self):
        bank = init_kernel_bank(np.random.default_rng(3), 1, 8)
        bank.w *= 3.0
        out = retract_orthonormal(bank)
        assert abs(gram_sqrt_det(out.w[0]) - 1.0) < 1e-10

    def test_random_slice_seed37(self):
        rng = np.random.default_rng(37)
        w = rng.standard_normal((1, 8, 3))
        bank = KernelBank(w=w, gamma=np.ones(8))
        out = retract_orthonormal(bank)
        q = out.w[0]
        assert np.linalg.norm(q.T @ q - np.eye(3)) < 1e-10
        # same column space: orthogonal projectors agree
        proj_q = q @ q.T
        wm = w[0]
        proj_w = wm @ np.linalg.inv(wm.T @ wm) @ wm.T
        assert np.max(np.abs(proj_q - proj_w)) < 1e-9

    def test_idempotent_up_to_column_signs(self):
        rng = np.random.default_rng(4)
        bank = KernelBank(w=rng.standard_normal((2, 6, 3)), gamma=np.ones(6))
        once = retract_orthonormal(bank)
        twice = retract_orthonormal(once)
        for kk in range(2):
            assert np.allclose(np.abs(twice.w[kk].T @ once.w[kk]), np.eye(3), atol=1e-10)

    def test_rank_deficient_reports_kernel(self):
        bank = init_kernel_bank(np.random.default_rng(5), 2, 8)
        bank.w[1, :, 2] = bank.w[1, :, 0]
        with pytest.raises(DegeneracyError, match="1"):
            retract_orthonormal(bank)


def sample_molecule(seed=0, count=1):
    return gen_rs(SyntheticSpec(count=count, seed=seed, spectator_range=(2, 3)))[0][0]


def make_params(seed=0, h=8, d_p=4, d_f=52):
    return init_encoder(np.random.default_rng(seed), d_f, h, d_p)


# a model of make_params' widths, whose encoder Encoded replaces
HOST = init_model(ModelConfig(h=8, d_p=4, n_layers=1, n_heads=2, n_gkpt=8))


class Encoded:
    """The encoder stage of forward_batch over a prepared batch, run on
    `params` as a model's encoder: the h_c, h_r and h_n it writes, read
    from the first stage of a full forward, and its backward from
    gradients of those three."""

    def __init__(self, params, batch):
        self.model = replace(HOST, encoder=params)
        self.state = forward_batch(self.model, batch)
        assert self.state.stages[0].writes == ("h_c", "h_r", "h_n")
        self.h_c, self.h_r, self.h_n = self.state.outputs[0].values()

    def backward(self, d_h_c, d_h_r, d_h_n) -> EncoderParams:
        """The encoder's parameter gradients from padded gradients of h_c,
        h_r and h_n: the encoder stage's backward, as backward_batch runs
        it."""
        state = self.state
        (grads,) = state.stages[0].backward(self.model, state.batch, state.caches[0],
                                            d_h_c, d_h_r, d_h_n)
        return grads


class TestEncode:
    def test_no_chiral_units_token_only(self):
        params = make_params()
        coords = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        zs = np.array([6, 6, 8])
        mol = Molecule(coords=coords, atomic_numbers=zs, features=featurize(zs)).validate()
        enc = Encoded(params, prepare_batch([mol]))
        assert enc.h_c.shape == (1, 1, 8)
        assert np.array_equal(enc.h_c[0, 0], params.global_token)
        assert enc.h_r.shape == (1, 0, 8)
        assert enc.h_n.shape == (1, 3, 8)

    def test_zeroed_projector_leaves_kernel_outputs(self):
        params = make_params(seed=1)
        for mlp in (params.proj_c,):
            mlp.w1[:] = 0.0
            mlp.b1[:] = 0.0
            mlp.w2[:] = 0.0
            mlp.b2[:] = 0.0
        mol = sample_molecule(seed=10)
        enc = Encoded(params, prepare_batch([mol]))
        mc = chirality_matrices(mol.coords, *unit_atoms(mol.chiral_units))[0]
        dets = kernel_fwd(params.kernels, mc)[0]
        assert np.array_equal(enc.h_c[0, 1:], dets)

    def test_mirror_changes_only_kernel_contribution(self):
        params = make_params(seed=2)
        mol = sample_molecule(seed=11)
        enc = Encoded(params, prepare_batch([mol]))
        enc_m = Encoded(params, prepare_batch([mirror(mol)]))
        assert np.array_equal(enc.h_r, enc_m.h_r)
        assert np.array_equal(enc.h_n, enc_m.h_n)
        assert np.array_equal(enc.h_c[0, 0], enc_m.h_c[0, 0])
        mc = chirality_matrices(mol.coords, *unit_atoms(mol.chiral_units))[0]
        dets = kernel_fwd(params.kernels, mc)[0]
        # chiral rows differ exactly by the kernel sign flip
        assert np.allclose(enc.h_c[0, 1:] - dets, enc_m.h_c[0, 1:] + dets, atol=1e-12)

    def test_se3_invariance(self):
        params = make_params(seed=3)
        mol = sample_molecule(seed=12)
        enc = Encoded(params, prepare_batch([mol]))
        rng = np.random.default_rng(6)
        moved = transform(mol, random_rotation(rng), rng.uniform(-8, 8, 3))
        enc2 = Encoded(params, prepare_batch([moved]))
        assert np.max(np.abs(enc2.h_c - enc.h_c)) < 1e-9
        assert np.array_equal(enc2.h_r, enc.h_r)
        assert np.array_equal(enc2.h_n, enc.h_n)

    def test_encode_gradients(self):
        params = make_params(seed=4)
        batch = prepare_batch([sample_molecule(seed=13)])
        rng = np.random.default_rng(9)
        enc = Encoded(params, batch)
        w_c = rng.standard_normal(enc.h_c.shape)
        w_r = rng.standard_normal(enc.h_r.shape)
        w_n = rng.standard_normal(enc.h_n.shape)
        grads = enc.backward(w_c, w_r, w_n)

        def audited(p):
            """Every encoder tensor."""
            return p.kernels, p.proj_c, p.proj_r, p.proj_n, p.global_token

        def f(theta):
            kernels, proj_c, proj_r, proj_n, token = unflatten(theta, *audited(params))
            moved = EncoderParams(kernels=kernels, proj_c=proj_c, proj_r=proj_r, proj_n=proj_n,
                                  global_token=token)
            e = Encoded(moved, batch)
            return float((w_c * e.h_c).sum() + (w_r * e.h_r).sum() + (w_n * e.h_n).sum())

        numeric = finite_diff_grad(f, flatten(*audited(params)))
        assert compare_grads(flatten(*audited(grads)), numeric, tol=1e-5).passed
