"""Tests for the Byzantine attack implementations."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.byzantine.adaptive import AdaptiveAttack
from repro.byzantine.alittle import ALittleAttack
from repro.byzantine.base import Attack
from repro.byzantine.gaussian import GaussianAttack
from repro.byzantine.inner import InnerProductAttack
from repro.byzantine.label_flip import LabelFlipAttack
from repro.byzantine.lmp import LocalModelPoisoningAttack
from repro.data.synthetic import make_classification
from tests.federated.test_simulation_history import build_simulation
from tests.helpers import make_attack_context


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(67)


@pytest.fixture
def honest_uploads(rng) -> np.ndarray:
    """Ten honest uploads sharing a common direction plus noise."""
    direction = rng.normal(size=200)
    direction /= np.linalg.norm(direction)
    return 0.5 * direction + 0.05 * rng.normal(size=(10, 200))


class TestAttackBase:
    def test_default_poison_is_identity(self, rng):
        dataset = make_classification(30, 4, 3, rng=rng)
        assert Attack().poison_dataset(dataset) is dataset

    def test_default_craft_not_implemented(self, honest_uploads):
        with pytest.raises(NotImplementedError):
            Attack().craft(make_attack_context(honest_uploads, 2))

    def test_default_always_active(self):
        assert Attack().is_active(0, 100)
        assert Attack().is_active(99, 100)

    def test_name(self):
        assert GaussianAttack().name == "GaussianAttack"


class TestGaussianAttack:
    def test_shape(self, honest_uploads):
        context = make_attack_context(honest_uploads, 4, upload_noise_std=0.1)
        crafted = GaussianAttack().craft(context)
        assert crafted.shape == (4, 200)

    def test_uses_protocol_noise_scale(self, honest_uploads):
        context = make_attack_context(honest_uploads, 50, upload_noise_std=0.3)
        crafted = GaussianAttack().craft(context)
        assert crafted.std() == pytest.approx(0.3, rel=0.1)

    def test_explicit_scale(self, honest_uploads):
        context = make_attack_context(honest_uploads, 50, upload_noise_std=0.3)
        crafted = GaussianAttack(scale=1.0).craft(context)
        assert crafted.std() == pytest.approx(1.0, rel=0.1)

    def test_falls_back_to_empirical_std_without_dp(self, honest_uploads):
        context = make_attack_context(honest_uploads, 30, upload_noise_std=0.0)
        crafted = GaussianAttack().craft(context)
        assert crafted.std() == pytest.approx(float(honest_uploads.std()), rel=0.2)

    def test_zero_mean(self, honest_uploads):
        context = make_attack_context(honest_uploads, 100, upload_noise_std=0.2)
        crafted = GaussianAttack().craft(context)
        assert abs(crafted.mean()) < 0.01

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            GaussianAttack(scale=0.0)

    def test_does_not_follow_protocol(self):
        assert not GaussianAttack().follows_protocol


class TestLabelFlipAttack:
    def test_follows_protocol(self):
        assert LabelFlipAttack().follows_protocol

    def test_poisons_labels(self, rng):
        dataset = make_classification(60, 5, 4, rng=rng)
        poisoned = LabelFlipAttack().poison_dataset(dataset)
        np.testing.assert_array_equal(poisoned.labels, 3 - dataset.labels)

    def test_preserves_features(self, rng):
        dataset = make_classification(60, 5, 4, rng=rng)
        poisoned = LabelFlipAttack().poison_dataset(dataset)
        np.testing.assert_array_equal(poisoned.features, dataset.features)


class TestLocalModelPoisoning:
    def test_shape(self, honest_uploads):
        context = make_attack_context(honest_uploads, 15)
        crafted = LocalModelPoisoningAttack().craft(context)
        assert crafted.shape == (15, 200)

    def test_all_byzantine_uploads_identical(self, honest_uploads):
        """Equation 10 sets every Byzantine upload to the same vector."""
        context = make_attack_context(honest_uploads, 15)
        crafted = LocalModelPoisoningAttack().craft(context)
        for row in crafted[1:]:
            np.testing.assert_array_equal(row, crafted[0])

    def test_inverts_aggregate_direction(self, honest_uploads):
        """Equation 9: sum of all uploads points opposite the benign sum."""
        n_byzantine = 15
        context = make_attack_context(honest_uploads, n_byzantine)
        crafted = LocalModelPoisoningAttack().craft(context)
        benign_sum = honest_uploads.sum(axis=0)
        total = benign_sum + crafted.sum(axis=0)
        assert float(np.dot(total, benign_sum)) < 0.0

    def test_lambda_matches_paper_formula(self):
        attack = LocalModelPoisoningAttack()
        assert attack.effective_lambda(n_byzantine=15, n_honest=9) == pytest.approx(
            15 / 3.0 - 1.0
        )

    def test_lambda_clamped_when_too_few_byzantine(self):
        """The strong attack needs M_n > sqrt(B_m); below that lambda = 0."""
        attack = LocalModelPoisoningAttack()
        assert attack.effective_lambda(n_byzantine=2, n_honest=16) == 0.0

    def test_lambda_override(self):
        attack = LocalModelPoisoningAttack(lambda_override=3.0)
        assert attack.effective_lambda(5, 100) == 3.0

    def test_rejects_negative_override(self):
        with pytest.raises(ValueError):
            LocalModelPoisoningAttack(lambda_override=-1.0)

    def test_no_honest_uploads_gives_zeros(self, rng):
        context = make_attack_context(np.zeros((0, 50)), 3)
        crafted = LocalModelPoisoningAttack().craft(context)
        np.testing.assert_array_equal(crafted, 0.0)

    def test_equation10_value(self, honest_uploads):
        n_byzantine = 15
        context = make_attack_context(honest_uploads, n_byzantine)
        attack = LocalModelPoisoningAttack()
        crafted = attack.craft(context)
        lam = attack.effective_lambda(n_byzantine, honest_uploads.shape[0])
        expected = -(1.0 + lam) / n_byzantine * honest_uploads.sum(axis=0)
        np.testing.assert_allclose(crafted[0], expected)


class TestALittleAttack:
    def test_shape(self, honest_uploads):
        context = make_attack_context(honest_uploads, 5)
        assert ALittleAttack().craft(context).shape == (5, 200)

    def test_stays_within_benign_spread(self, honest_uploads):
        """The attack is 'a little': within z standard deviations of the mean."""
        context = make_attack_context(honest_uploads, 4)
        crafted = ALittleAttack(z=1.0).craft(context)
        mean = honest_uploads.mean(axis=0)
        std = honest_uploads.std(axis=0)
        assert np.all(np.abs(crafted[0] - mean) <= std + 1e-9)

    def test_explicit_z_shift(self, honest_uploads):
        context = make_attack_context(honest_uploads, 2)
        crafted = ALittleAttack(z=2.0).craft(context)
        expected = honest_uploads.mean(axis=0) - 2.0 * honest_uploads.std(axis=0)
        np.testing.assert_allclose(crafted[0], expected)

    def test_default_z_is_positive(self):
        attack = ALittleAttack()
        assert attack._default_z(n_total=25, n_byzantine=10) > 0.0  # noqa: SLF001

    def test_no_honest_gives_zeros(self):
        context = make_attack_context(np.zeros((0, 10)), 2)
        np.testing.assert_array_equal(ALittleAttack().craft(context), 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_std_is_numpy_std_bitwise(self, seed):
        """The crafted row uses ``np.std(axis=0)``'s bits: squared deviations
        added row by row sum like numpy's axis-0 reduction (for d >= 2;
        numpy sums a single column pairwise)."""
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 40)), int(rng.integers(2, 3000))
        rows = rng.normal(size=(n, d)) * rng.exponential(size=(n, 1))
        rows[:, : d // 10] = -0.0
        rows += rng.normal(size=d) * rng.integers(0, 2)
        crafted = ALittleAttack(z=0.7).craft(make_attack_context(rows, 3))
        np.testing.assert_array_equal(crafted, np.broadcast_to(
            rows.mean(axis=0) - 0.7 * rows.std(axis=0), (3, d)
        ))


class TestInnerProductAttack:
    def test_negatively_scales_benign_mean(self, honest_uploads):
        context = make_attack_context(honest_uploads, 3)
        crafted = InnerProductAttack(epsilon_scale=2.0).craft(context)
        expected = -2.0 * honest_uploads.mean(axis=0)
        np.testing.assert_allclose(crafted[0], expected)

    def test_negative_inner_product_with_benign_mean(self, honest_uploads):
        context = make_attack_context(honest_uploads, 3)
        crafted = InnerProductAttack().craft(context)
        mean = honest_uploads.mean(axis=0)
        assert float(np.dot(crafted[0], mean)) < 0.0

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            InnerProductAttack(epsilon_scale=0.0)

    def test_no_honest_gives_zeros(self):
        context = make_attack_context(np.zeros((0, 10)), 2)
        np.testing.assert_array_equal(InnerProductAttack().craft(context), 0.0)


class TestAdaptiveAttack:
    def test_dormant_before_ttbb(self):
        attack = AdaptiveAttack(GaussianAttack(), ttbb=0.5)
        assert not attack.is_active(round_index=0, total_rounds=100)
        assert not attack.is_active(round_index=49, total_rounds=100)

    def test_active_after_ttbb(self):
        attack = AdaptiveAttack(GaussianAttack(), ttbb=0.5)
        assert attack.is_active(round_index=50, total_rounds=100)
        assert attack.is_active(round_index=99, total_rounds=100)

    def test_ttbb_zero_always_active(self):
        attack = AdaptiveAttack(LabelFlipAttack(), ttbb=0.0)
        assert attack.is_active(0, 10)

    def test_rejects_bad_ttbb(self):
        with pytest.raises(ValueError):
            AdaptiveAttack(GaussianAttack(), ttbb=1.5)

    def test_delegates_follows_protocol(self):
        assert AdaptiveAttack(LabelFlipAttack(), 0.2).follows_protocol
        assert not AdaptiveAttack(GaussianAttack(), 0.2).follows_protocol

    def test_delegates_poison(self, rng):
        dataset = make_classification(40, 4, 3, rng=rng)
        attack = AdaptiveAttack(LabelFlipAttack(), 0.2)
        poisoned = attack.poison_dataset(dataset)
        np.testing.assert_array_equal(poisoned.labels, 2 - dataset.labels)

    def test_delegates_craft(self, honest_uploads):
        context = make_attack_context(honest_uploads, 3)
        adaptive = AdaptiveAttack(InnerProductAttack(), 0.2).craft(context)
        direct = InnerProductAttack().craft(context)
        np.testing.assert_allclose(adaptive, direct)

    def test_copy_honest_copies_real_uploads(self, honest_uploads):
        """A dormant attacker uploads the honest rows its generator picks."""
        simulation = build_simulation(
            n_honest=4, n_byzantine=5, attack=AdaptiveAttack(GaussianAttack(), 0.5),
            total_rounds=10,
        )
        picker = copy.deepcopy(simulation._attack_rng)
        copies = simulation.byzantine_uploads(honest_uploads, round_index=0)
        picks = picker.integers(0, len(honest_uploads), size=5)
        np.testing.assert_array_equal(copies, honest_uploads[picks])
        assert simulation._attack_rng.bit_generator.state == picker.bit_generator.state

    def test_dormant_attacker_without_honest_rows_uploads_zeros(self):
        simulation = build_simulation(
            n_honest=4, n_byzantine=3, attack=AdaptiveAttack(GaussianAttack(), 0.5),
            total_rounds=10,
        )
        state = simulation._attack_rng.bit_generator.state
        copies = simulation.byzantine_uploads(np.zeros((0, 7)), round_index=0)
        np.testing.assert_array_equal(copies, np.zeros((3, 7)))
        assert simulation._attack_rng.bit_generator.state == state

    def test_name_mentions_inner_attack(self):
        name = AdaptiveAttack(GaussianAttack(), 0.4).name
        assert "GaussianAttack" in name and "0.4" in name
