import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonstat.entropy import (
    PartitionScheme,
    block_entropies,
    complex_information,
    hermite_inequality_margin,
    information,
    joint_entropy_report,
    laguerre_inequality_margin,
    poisson_block3_information_trig,
    poisson_parity_information,
    subadditivity_check,
)
from photonstat.errors import (
    ClassificationError,
    DivergentSeriesError,
    DomainError,
    NormalizationError,
)
from photonstat.gaussian_state import OneModeGaussianState
from photonstat.oracle import oracle_poisson_blocks
from photonstat.photon_dist import (
    DeformationKind,
    DeformationSpec,
    LegendreParams,
    TwoModeJointDistribution,
    deformed_distribution,
    distribution_from_values,
    pn_violation,
    two_mode_joint_distribution,
)


def poisson_values(x_bar, n_max=256):
    if x_bar == 0:
        return [1.0]
    return [
        math.exp(-x_bar + n * math.log(x_bar) - math.lgamma(n + 1))
        for n in range(n_max + 1)
    ]


def shannon(masses):
    return -math.fsum(p * math.log(p) for p in masses if p > 0)


class TestBlockEntropies:
    def test_deterministic_distribution(self):
        rep = block_entropies(distribution_from_values([1.0]), PartitionScheme(2))
        assert rep.h_joint == rep.h_sub1 == rep.h_sub2 == rep.information == 0.0
        assert rep.subadditive

    def test_uniform_pair(self):
        rep = block_entropies(distribution_from_values([0.5, 0.5]), PartitionScheme(2))
        assert rep.h_joint == pytest.approx(math.log(2), abs=1e-15)
        assert rep.h_sub1 == 0.0
        assert rep.h_sub2 == pytest.approx(math.log(2), abs=1e-15)
        assert rep.information == pytest.approx(0.0, abs=1e-15)

    def test_uniform_six_is_exactly_factorizable(self):
        rep = block_entropies(distribution_from_values([1 / 6] * 6), PartitionScheme(2))
        assert rep.information == pytest.approx(0.0, abs=1e-14)

    def test_squeezed_vacuum_pair_information_vanishes(self):
        for r in (0.4, 1.0, 2.0, 3.0):
            dist = deformed_distribution(
                DeformationSpec(DeformationKind.SQUEEZED_VACUUM, r=r), 8000
            )
            rep = block_entropies(dist, PartitionScheme(2))
            assert abs(rep.information) < 1e-12

    def test_poisson_parity_entropy_matches_closed_form(self):
        for x_bar in (0.1, 1.0, 5.0):
            rep = block_entropies(
                distribution_from_values(poisson_values(x_bar)), PartitionScheme(2)
            )
            assert rep.h_sub2 == pytest.approx(
                poisson_parity_information(x_bar), abs=1e-10
            )

    def test_non_probability_rejected(self):
        dist = pn_violation(4.0, 5.0, 0.0, 20)
        with pytest.raises(ClassificationError):
            block_entropies(dist, PartitionScheme(2))

    def test_block_size_validated(self):
        with pytest.raises(DomainError):
            PartitionScheme(1)

    def test_block_size_must_be_an_integer(self):
        with pytest.raises(TypeError):
            PartitionScheme(3.0)
        scheme = PartitionScheme(np.int64(3))
        assert scheme.block_size == 3 and type(scheme.block_size) is int


class TestRelabelingExactness:
    def test_joint_entropy_equals_flattened_table(self):
        rng = np.random.default_rng(42)
        for m in (2, 3, 5):
            p = rng.random(97)
            p /= p.sum()
            dist = distribution_from_values(p)
            rep = block_entropies(dist, PartitionScheme(m))
            # flatten through the (block, residue) relabeling and re-compute
            n_blocks = (len(p) + m - 1) // m
            table = np.zeros((n_blocks, m))
            for n, v in enumerate(p):
                table[n // m, n % m] = v
            assert rep.h_joint == pytest.approx(shannon(table.ravel()), abs=1e-12)
            assert rep.h_sub1 == pytest.approx(shannon(table.sum(axis=1)), abs=1e-12)
            assert rep.h_sub2 == pytest.approx(shannon(table.sum(axis=0)), abs=1e-12)

    def test_subsystem_sums_add_in_index_order(self):
        # the block and residue sums must equal plain sequential sums bit for
        # bit (pairwise summation would move the last digits), for any m
        def exact_shannon(masses):
            return -math.fsum(q * math.log(q) for q in masses if q > 0)

        rng = np.random.default_rng(8)
        p = rng.random(97)
        p /= p.sum()
        dist = distribution_from_values(p)
        p = dist.values.real.tolist()
        for m in (2, 3, 8, 11, 97, 120):
            rep = block_entropies(dist, PartitionScheme(m))
            blocks = [sum(p[k : k + m]) for k in range(0, len(p), m)]
            residues = [sum(p[j::m]) for j in range(m)]
            assert rep.h_sub1 == exact_shannon(blocks)
            assert rep.h_sub2 == exact_shannon(residues)

    def test_zero_entries_are_inert(self):
        base = [0.4, 0.35, 0.15, 0.1]
        padded = [0.4, 0.0, 0.35, 0.15, 0.0, 0.1, 0.0, 0.0]
        # identical multiset of masses in each factor => identical joint
        # entropy; zero insertion must not perturb any sum
        h_base = block_entropies(
            distribution_from_values(base), PartitionScheme(2)
        ).h_joint
        h_padded = block_entropies(
            distribution_from_values(padded), PartitionScheme(2)
        ).h_joint
        assert h_padded == pytest.approx(h_base, abs=1e-14)


class TestSubadditivity:
    def test_randomized_suite(self):
        rng = np.random.default_rng(2024)
        schemes = [PartitionScheme(m) for m in (2, 3, 5)]
        for _ in range(500):
            length = int(rng.integers(1, 257))
            p = rng.random(length)
            p /= p.sum()
            dist = distribution_from_values(p)
            for scheme in schemes:
                ok, margin = subadditivity_check(dist, scheme)
                assert ok and margin >= -1e-12

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=64),
        st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=200, deadline=None)
    def test_information_nonnegative(self, weights, m):
        total = sum(weights)
        dist = distribution_from_values([w / total for w in weights])
        assert information(dist, PartitionScheme(m)) >= -1e-12

    def test_poisson_triadic_residues_match_roots_of_unity(self):
        for x_bar in (0.5, 2.0, 7.0):
            rep = block_entropies(
                distribution_from_values(poisson_values(x_bar)), PartitionScheme(3)
            )
            masses = [oracle_poisson_blocks(x_bar, 3, j) for j in range(3)]
            assert rep.h_sub2 == pytest.approx(shannon(masses), abs=1e-10)

    def test_trig_form_disagrees_with_oracle(self):
        # the quoted trigonometric closed form carries a prefactor slip;
        # make sure we keep reporting it rather than silently matching
        x_bar = 1.0
        masses = [oracle_poisson_blocks(x_bar, 3, j) for j in range(3)]
        assert abs(poisson_block3_information_trig(x_bar) - shannon(masses)) > 1e-3


class TestJointEntropyReport:
    def test_product_table_has_zero_information(self):
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.6, 0.4])
        joint = TwoModeJointDistribution(np.outer(p, q), (2, 1), 0.0)
        rep = joint_entropy_report(joint)
        assert rep.information == pytest.approx(0.0, abs=1e-13)
        assert rep.h_sub1 == pytest.approx(shannon(p), abs=1e-13)
        assert rep.h_sub2 == pytest.approx(shannon(q), abs=1e-13)

    def test_diagonal_table_is_fully_correlated(self):
        p = np.array([0.5, 0.25, 0.25])
        joint = TwoModeJointDistribution(np.diag(p), (2, 2), 0.0)
        rep = joint_entropy_report(joint)
        assert rep.information == pytest.approx(rep.h_sub1, abs=1e-13)
        assert rep.h_sub1 == pytest.approx(rep.h_sub2, abs=1e-13)

    def test_unnormalized_rejected(self):
        joint = TwoModeJointDistribution(np.full((2, 2), 0.2), (1, 1), 0.0)
        with pytest.raises(NormalizationError):
            joint_entropy_report(joint)

    def test_legendre_table_information_nonnegative(self):
        from photonstat.photon_dist import two_mode_joint

        base = LegendreParams(n_factor=1.0, f1=0.9, f2=0.4, f3=0.0)
        raw_mass = math.fsum(
            two_mode_joint(base, n1, n2)
            for n1 in range(17)
            for n2 in range(17)
            if (n1 + n2) % 2 == 0
        )
        params = LegendreParams(n_factor=1.0 / raw_mass, f1=0.9, f2=0.4, f3=0.0)
        joint = two_mode_joint_distribution(params, 16, 16)
        rep = joint_entropy_report(joint)
        assert rep.information >= -1e-12


class TestComplexInformation:
    def test_real_positive_input_reduces_to_real_report(self):
        p = [0.4, 0.3, 0.2, 0.1]
        dist = distribution_from_values(p)
        real = block_entropies(dist, PartitionScheme(2))
        comp = complex_information(dist, PartitionScheme(2), branch=0)
        assert comp.h_joint.imag == pytest.approx(0.0, abs=1e-14)
        assert comp.h_joint.real == pytest.approx(real.h_joint, abs=1e-13)
        assert comp.information.real == pytest.approx(real.information, abs=1e-13)

    def test_branch_shift_is_linear(self):
        dist = pn_violation(4.0, 5.0, 0.0)
        scheme = PartitionScheme(2)
        rep0 = complex_information(dist, scheme, branch=0)
        rep2 = complex_information(dist, scheme, branch=2)
        total = sum(dist.values)
        shift = -2j * math.pi * 2 * total
        assert cmath.isclose(
            rep2.h_joint - rep0.h_joint, shift, rel_tol=0, abs_tol=1e-12
        )
        # block and residue sums total the same mass, so the information
        # inherits exactly one shift unit
        assert cmath.isclose(
            rep2.information - rep0.information, shift, rel_tol=0, abs_tol=1e-12
        )

    def test_two_term_hand_expansion(self):
        v0, v1 = 0.5j, -0.25 + 0.1j
        dist = distribution_from_values([v0, v1])
        rep = complex_information(dist, PartitionScheme(2))

        def ln(z):
            return complex(math.log(abs(z)), cmath.phase(z))

        h_joint = -(v0 * ln(v0) + v1 * ln(v1))
        h1 = -(v0 + v1) * ln(v0 + v1)
        h2 = h_joint  # residues of a 2-element sequence are the elements
        assert cmath.isclose(rep.h_joint, h_joint, abs_tol=1e-14)
        assert cmath.isclose(rep.h_sub1, h1, abs_tol=1e-14)
        assert cmath.isclose(rep.information, h1 + h2 - h_joint, abs_tol=1e-14)

    def test_purely_imaginary_phase_convention(self):
        # +i weights carry phase +pi/2, -i weights -pi/2: for z = +/-2j the
        # single-term entropy -z (ln 2 + i phi) resolves to pi -/+ 2j ln 2
        # (trailing zeros mark the finite support)
        plus = complex_information(
            distribution_from_values([2j, 0, 0, 0, 0]), PartitionScheme(2)
        ).h_joint
        minus = complex_information(
            distribution_from_values([-2j, 0, 0, 0, 0]), PartitionScheme(2)
        ).h_joint
        assert cmath.isclose(plus, complex(math.pi, -2 * math.log(2)), abs_tol=1e-14)
        assert cmath.isclose(minus, complex(math.pi, 2 * math.log(2)), abs_tol=1e-14)

    def test_global_phase_offsets_are_predictable(self):
        phi = 0.7
        p = [0.6, 0.25, 0.1, 0.05]
        scaled = [v * cmath.exp(1j * phi) for v in p]
        real = block_entropies(distribution_from_values(p), PartitionScheme(2))
        comp = complex_information(
            distribution_from_values(scaled), PartitionScheme(2)
        )
        expected = cmath.exp(1j * phi) * (real.information - 1j * phi)
        assert cmath.isclose(comp.information, expected, abs_tol=1e-13)

    def test_verbatim_reading_structure(self):
        dist = pn_violation(4.0, 5.0, 0.0)
        rep = complex_information(dist, PartitionScheme(2), reading="verbatim")
        assert rep.h_sub1 == rep.h_joint
        assert rep.information == rep.h_sub2
        total = sum(dist.values)
        mag = math.fsum(abs(v) for v in dist.values)
        expected = -total * complex(math.log(mag), cmath.phase(total))
        assert cmath.isclose(rep.h_sub2, expected, rel_tol=1e-13)

    def test_divergent_tail_rejected(self):
        dist = distribution_from_values([0.1, -0.2, 0.4, -0.8, 1.6, -3.2])
        assert not math.isfinite(dist.tail_bound)
        with pytest.raises(DivergentSeriesError):
            complex_information(dist, PartitionScheme(2))

    def test_branch_must_be_an_integer(self):
        dist = deformed_distribution(DeformationSpec(DeformationKind.POISSON, alpha_mag2=1.0))
        with pytest.raises(TypeError):
            complex_information(dist, PartitionScheme(2), branch=0.5)
        assert complex_information(dist, PartitionScheme(2), branch=np.int64(1)).branch_index == 1

    def test_unknown_reading_rejected(self):
        dist = distribution_from_values([0.5, 0.5])
        with pytest.raises(DomainError):
            complex_information(dist, PartitionScheme(2), reading="other")


class TestPolynomialFormMargins:
    @pytest.mark.parametrize(
        "state",
        [
            OneModeGaussianState(1.5, 0.9, 0.3),
            OneModeGaussianState(0.8, 2.0, 0.0),
            OneModeGaussianState.squeezed_vacuum(0.7),
            OneModeGaussianState(1.2, 0.8, 0.2, 0.5, -0.7),
        ],
    )
    def test_margins_equal_pair_information(self, state):
        from photonstat.photon_dist import pn_hermite

        ref = information(pn_hermite(state, 200), PartitionScheme(2))
        assert hermite_inequality_margin(state, 200) == pytest.approx(ref, abs=1e-10)
        assert laguerre_inequality_margin(state, 200) == pytest.approx(ref, abs=1e-10)

    def test_f_coherent_margins_nonnegative(self):
        for alpha in np.linspace(0.1, 2.0, 8):
            spec = DeformationSpec(
                DeformationKind.F_COHERENT, alpha_mag2=float(alpha) ** 2
            )
            dist = deformed_distribution(spec)
            assert information(dist, PartitionScheme(2)) >= -1e-12

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_q_coherent_margins_nonnegative(self, lam):
        for alpha in np.linspace(0.1, 2.0, 8):
            spec = DeformationSpec(
                DeformationKind.Q_COHERENT, alpha_mag2=float(alpha) ** 2, lam=lam
            )
            dist = deformed_distribution(spec)
            assert information(dist, PartitionScheme(2)) >= -1e-12


class TestPoissonClosedForms:
    def test_deterministic_limit(self):
        assert poisson_parity_information(0.0) == 0.0
        assert poisson_parity_information(1e-6) < 1e-4

    def test_large_argument_asymptote(self):
        assert poisson_parity_information(20.0) == pytest.approx(
            math.log(2), abs=1e-6
        )

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            poisson_parity_information(-1.0)
