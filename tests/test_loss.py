import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vesselwrap.loss import (
    LossWeights,
    bce,
    bce_grad,
    LOSS_FUNCTIONS,
    combined_loss,
    gradcheck,
    gradcheck_loss,
    overlap_loss,
    pseudo_overlap,
    soft_dice_loss,
)
from vesselwrap.volume import ChannelId, MissingChannelError, STANDARD_CHANNELS

TAV = (ChannelId.TUMOR, ChannelId.ARTERY, ChannelId.VEIN)
T, A, V = (STANDARD_CHANNELS.index(c) for c in TAV)


def random_pair(seed, shape=(6, 2, 4, 4), lo=0.2, hi=0.8):
    gen = np.random.default_rng(seed)
    pred = gen.uniform(lo, hi, size=shape)
    gt = gen.integers(0, 2, size=shape).astype(np.float64)
    return pred, gt


class TestBce:
    def test_perfect_binary_prediction(self):
        q = np.array([[[[0.0, 1.0], [1.0, 0.0]]]])
        assert bce(q, q) <= 1e-5

    def test_uniform_half(self, rng):
        q = rng.integers(0, 2, size=(1, 2, 3, 3)).astype(float)
        p = np.full_like(q, 0.5)
        assert bce(p, q) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_single_element(self):
        p = np.array([[[[0.9]]]])
        q = np.array([[[[1.0]]]])
        assert bce(p, q) == pytest.approx(-math.log(0.9), abs=1e-12)

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            bce(np.zeros((1, 1, 1, 1)), np.zeros((1, 1, 1, 2)))

    def test_nonbinary_target_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            bce(np.full((1, 1, 1, 1), 0.5), np.full((1, 1, 1, 1), 0.5))


class TestSoftDice:
    def test_perfect(self, rng):
        q = rng.integers(0, 2, size=(2, 2, 3, 3)).astype(float)
        q[0, 0, 0, 0] = 1.0  # keep non-empty
        assert soft_dice_loss(q, q) == pytest.approx(0.0, abs=1e-4)

    def test_disjoint(self):
        p = np.zeros((1, 1, 2, 2))
        q = np.zeros((1, 1, 2, 2))
        p[0, 0, 0, 0] = 1.0
        q[0, 0, 1, 1] = 1.0
        assert soft_dice_loss(p, q) == pytest.approx(1.0, abs=1e-4)

    def test_both_empty_is_zero(self):
        z = np.zeros((2, 1, 2, 2))
        assert soft_dice_loss(z, z) == 0.0


class TestPseudoOverlap:
    def test_binary_overlap(self):
        t = np.ones((1, 1, 1))
        a = np.ones((1, 1, 1))
        v = np.zeros((1, 1, 1))
        alpha, nu = pseudo_overlap(t, a, v)
        assert alpha[0, 0, 0] == 1.0
        assert nu[0, 0, 0] == 0.0

    def test_no_tumor_all_zero(self, rng):
        t = np.zeros((2, 3, 3))
        a = rng.integers(0, 2, size=(2, 3, 3)).astype(float)
        v = rng.integers(0, 2, size=(2, 3, 3)).astype(float)
        alpha, nu = pseudo_overlap(t, a, v)
        assert not alpha.any() and not nu.any()

    def test_soft_product(self):
        alpha, _ = pseudo_overlap(np.array([0.8]), np.array([0.5]), np.array([0.0]))
        assert alpha[0] == pytest.approx(0.4)


class TestOverlapLoss:
    def test_perfect_prediction_near_zero(self, rng):
        gt = rng.integers(0, 2, size=(6, 2, 3, 3)).astype(float)
        assert overlap_loss(gt, gt) <= 1e-5

    def test_uniform_half_against_arithmetic_oracle(self, rng):
        # gt with identical artery and vein channels so both terms agree
        gt = np.zeros((6, 2, 2, 2))
        tav_bits = rng.integers(0, 2, size=(2, 2, 2)).astype(float)
        overlap_bits = rng.integers(0, 2, size=(2, 2, 2)).astype(float) * tav_bits
        gt[T] = tav_bits
        gt[A] = overlap_bits
        gt[V] = overlap_bits
        pred = np.full_like(gt, 0.5)
        # oracle: alpha_hat = 0.25 everywhere; mean BCE against the known labels
        alpha = gt[T] * gt[A]
        per_elem = -(alpha * math.log(0.25) + (1 - alpha) * math.log(0.75))
        expected = 2.0 * per_elem.mean()
        assert overlap_loss(pred, gt) == pytest.approx(expected, abs=1e-12)

    def test_zero_overlap_confident_disjoint(self):
        gt = np.zeros((6, 1, 2, 2))
        gt[T, 0, 0, 0] = 1.0
        gt[A, 0, 1, 1] = 1.0  # disjoint from tumor
        pred = gt.astype(float).copy()
        assert overlap_loss(pred, gt) <= 1e-5

    @pytest.mark.parametrize("channels, missing", [
        ((ChannelId.ARTERY, ChannelId.VEIN), "tumor"),
        ((ChannelId.PANCREAS, ChannelId.TUMOR), "artery"),
        ((ChannelId.TUMOR, ChannelId.ARTERY), "vein"),
    ])
    def test_missing_channel_named_by_find_channel(self, channels, missing):
        """The one lookup message, tumor first, then artery and vein."""
        zeros = np.zeros((2, 1, 1, 1))
        with pytest.raises(MissingChannelError, match=f"^volume has no '{missing}' channel$"):
            overlap_loss(zeros, zeros, channels=channels)

    def test_missing_channels(self):
        with pytest.raises(MissingChannelError):
            overlap_loss(
                np.zeros((2, 1, 1, 1)),
                np.zeros((2, 1, 1, 1)),
                channels=(ChannelId.PANCREAS, ChannelId.TUMOR),
            )


class TestCombinedLoss:
    def test_perfect_prediction(self, rng):
        gt = rng.integers(0, 2, size=(6, 2, 3, 3)).astype(float)
        gt[:, 0, 0, 0] = 1.0
        assert combined_loss(gt, gt) <= 1e-4

    def test_alpha_w_one_drops_overlap_term(self):
        pred, gt = random_pair(11)
        w = LossWeights(beta=0.5, alpha_w=1.0)
        expected = 0.5 * bce(pred, gt) + 0.5 * soft_dice_loss(pred, gt)
        assert combined_loss(pred, gt, w) == pytest.approx(expected, abs=1e-15)

    def test_defaults_equal_component_composition(self):
        pred, gt = random_pair(12)
        expected = 0.8 * (0.5 * bce(pred, gt) + 0.5 * soft_dice_loss(pred, gt)) \
            + 0.2 * overlap_loss(pred, gt)
        assert combined_loss(pred, gt) == pytest.approx(expected, abs=1e-12)

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            LossWeights(beta=1.5)
        with pytest.raises(ValueError):
            LossWeights(alpha_w=-0.1)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        beta=st.floats(0.0, 1.0),
        alpha_w=st.floats(0.0, 1.0),
    )
    def test_affine_in_components(self, seed, beta, alpha_w):
        pred, gt = random_pair(seed)
        w = LossWeights(beta, alpha_w)
        expected = alpha_w * (beta * bce(pred, gt) + (1 - beta) * soft_dice_loss(pred, gt)) \
            + (1 - alpha_w) * overlap_loss(pred, gt)
        assert combined_loss(pred, gt, w) == pytest.approx(expected, abs=1e-12)


class TestInvariances:
    def test_losses_nonnegative(self, rng):
        for seed in range(5):
            pred, gt = random_pair(seed)
            assert bce(pred, gt) >= 0.0
            assert soft_dice_loss(pred, gt) >= 0.0
            assert overlap_loss(pred, gt) >= 0.0
            assert combined_loss(pred, gt) >= 0.0

    def test_spatial_permutation_invariance(self, rng):
        pred, gt = random_pair(21)
        flat_idx = rng.permutation(pred[0].size)
        def scramble(t):
            out = t.reshape(t.shape[0], -1)[:, flat_idx]
            return out.reshape(t.shape)
        assert bce(scramble(pred), scramble(gt)) == pytest.approx(bce(pred, gt), abs=1e-12)
        assert soft_dice_loss(scramble(pred), scramble(gt)) == pytest.approx(
            soft_dice_loss(pred, gt), abs=1e-12
        )
        assert combined_loss(scramble(pred), scramble(gt)) == pytest.approx(
            combined_loss(pred, gt), abs=1e-12
        )

    def test_overlap_symmetric_under_artery_vein_swap(self):
        pred, gt = random_pair(22)
        def swap(t):
            out = t.copy()
            out[[A, V]] = out[[V, A]]
            return out
        assert overlap_loss(swap(pred), swap(gt)) == pytest.approx(
            overlap_loss(pred, gt), abs=1e-12
        )


class TestGradcheck:
    def test_bce_small_tensor(self):
        gen = np.random.default_rng(31)
        pred = gen.uniform(0.1, 0.9, size=(1, 4, 4, 4))
        gt = gen.integers(0, 2, size=(1, 4, 4, 4)).astype(float)
        assert gradcheck_loss("bce", pred, gt) < 1e-4

    def test_dice_small_tensor(self):
        gen = np.random.default_rng(32)
        pred = gen.uniform(0.1, 0.9, size=(1, 4, 4, 4))
        gt = gen.integers(0, 2, size=(1, 4, 4, 4)).astype(float)
        assert gradcheck_loss("dice", pred, gt) < 1e-4

    def test_overlap_and_combined(self):
        pred, gt = random_pair(33)
        assert gradcheck_loss("overlap", pred, gt) < 1e-4
        assert gradcheck_loss("combined", pred, gt) < 1e-4

    def test_clamp_boundary_rejected(self):
        pred = np.full((1, 1, 1, 2), 1e-5)
        gt = np.zeros((1, 1, 1, 2))
        with pytest.raises(ValueError, match="clamp boundary"):
            gradcheck_loss("bce", pred, gt)

    def test_clamped_region_gradient_is_zero(self):
        p = np.array([[[[1e-9, 0.5]]]])
        q = np.array([[[[1.0, 1.0]]]])
        g = bce_grad(p, q)
        assert g[0, 0, 0, 0] == 0.0
        assert g[0, 0, 0, 1] != 0.0


LOSS_NAMES = ("bce", "dice", "overlap", "combined")


def _gradcheck_with(name, pred, gt, mutate=lambda g: g, weights=LossWeights()):
    """gradcheck of a named loss with its analytic gradient passed through mutate."""
    value_fn, grad_fn = LOSS_FUNCTIONS[name]
    extra = {"overlap": (STANDARD_CHANNELS,), "combined": (weights, STANDARD_CHANNELS)}.get(name, ())
    return gradcheck(value_fn, lambda *a: mutate(grad_fn(*a).copy()), pred, gt, *extra)


def _scale_tumor(g):
    g[T] *= 1.0 + 1e-3
    return g


def _flip_peak(g):
    g.flat[np.abs(g).argmax()] *= -1.0
    return g


class TestGradcheckCatchesFaults:
    @pytest.fixture(scope="class")
    def pair(self):
        return random_pair(7, shape=(6, 2, 8, 8), lo=0.05, hi=0.95)

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_clean_gradient_passes(self, pair, name):
        assert _gradcheck_with(name, *pair) <= 1e-5

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_scaled_tumor_channel_fails(self, pair, name):
        assert _gradcheck_with(name, *pair, _scale_tumor) > 1e-4

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_flipped_peak_sign_fails(self, pair, name):
        assert _gradcheck_with(name, *pair, _flip_peak) > 1e-4

    def test_zero_gradient_of_constant_loss_reads_zero(self, pair):
        pred, gt = pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = gradcheck(lambda p, q: 1.0, lambda p, q: np.zeros_like(p), pred, gt)
        assert err == 0.0

    def test_zero_gradient_of_varying_loss_fails(self, pair):
        pred, gt = pair
        assert gradcheck(bce, lambda p, q: np.zeros_like(p), pred, gt) > 1e-4

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        dims=st.tuples(st.integers(1, 3), st.integers(1, 10), st.integers(1, 10)),
        beta=st.floats(0.0, 1.0),
        alpha_w=st.floats(0.0, 1.0),
    )
    def test_no_false_alarm_on_random_pairs(self, seed, dims, beta, alpha_w):
        pred, gt = random_pair(seed, shape=(6, *dims), lo=0.05, hi=0.95)
        for name in LOSS_NAMES:
            assert _gradcheck_with(name, pred, gt, weights=LossWeights(beta, alpha_w)) <= 1e-5
