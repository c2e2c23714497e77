import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypflow.triangle import admissible_mask, angle_derivatives, angles_from_length_array

from fd import fd_dangle, fd_darea, random_admissible_lengths, rel_err
from reference import (
    TriLengths,
    extended_angles,
    half_angle_residual,
    permuted_angles,
    reduced_mask,
    scaled_length,
    tri_angles,
    tri_area,
)

# high-precision reference values (mpmath, 50 significant digits)
EQUILATERAL_UNIT_ANGLE = 0.91879787217802736904
EQUILATERAL_UNIT_AREA = 0.38519903705571113135
SCALED_UNIT_BY_LOG2 = 1.8217888580681214048  # 2*asinh(2*sinh(1/2))

lengths_st = st.floats(min_value=0.3, max_value=2.0, allow_nan=False)


def kernel(l):
    """``angle_derivatives`` of one triangle with the angle and area
    derivatives at each vertex that it determines; corners (i, j, k) are
    (0, 1, 2), so W[2] = d a_i/d u_j and W[1] = d a_i/d u_k."""
    L = np.array([l.row()])
    W = angle_derivatives(L, angles_from_length_array(L))[0]
    ch = np.cosh(L[0])
    S, T = W * ch, W * (ch - 1.0)
    return W, S - S.sum(), T.sum() - T


def admissible_triples():
    return st.tuples(lengths_st, lengths_st, lengths_st).filter(
        lambda t: sum(t) - 2 * max(t) > 0.05
    )


class TestAngles:
    def test_equilateral_reference_values(self):
        a = tri_angles(TriLengths(1.0, 1.0, 1.0))
        assert a == pytest.approx((EQUILATERAL_UNIT_ANGLE,) * 3, abs=1e-15)
        assert tri_area(a) == pytest.approx(EQUILATERAL_UNIT_AREA, abs=1e-15)

    def test_right_angle_from_pythagorean_relation(self):
        # hyperbolic Pythagoras: cosh c = cosh a cosh b forces a right angle
        a, b = 0.7, 1.1
        c = math.acosh(math.cosh(a) * math.cosh(b))
        ang = tri_angles(TriLengths(l_ij=a, l_ik=b, l_jk=c))
        assert ang[0] == pytest.approx(math.pi / 2, abs=1e-14)

    @given(admissible_triples())
    @settings(max_examples=200, deadline=None)
    def test_angle_sum_below_pi_and_area_positive(self, triple):
        a = tri_angles(TriLengths(*triple))
        assert 0.0 < sum(a) < math.pi
        assert tri_area(a) > 0.0
        assert min(a) > 0.0

    @given(admissible_triples())
    @settings(max_examples=200, deadline=None)
    def test_half_angle_identity(self, triple):
        l = TriLengths(*triple)
        assert half_angle_residual(l, tri_angles(l)) <= 1e-12

    def test_inadmissible_raises(self):
        with pytest.raises(ValueError):
            tri_angles(TriLengths(0.3, 0.3, 2.0))

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            TriLengths(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            TriLengths(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            TriLengths(math.inf, 1.0, 1.0)


class TestExtendedAngles:
    def test_matches_strict_on_admissible(self):
        l = TriLengths(1.0, 1.2, 0.9)
        assert extended_angles(l) == tri_angles(l)

    def test_degenerate_assigns_pi_opposite_longest(self):
        a = extended_angles(TriLengths(l_ij=0.3, l_ik=0.3, l_jk=2.0))
        # l_jk is longest, opposite vertex i
        assert a == (math.pi, 0.0, 0.0)

    def test_tied_longest_edges_are_always_admissible(self):
        # with two edges tied for longest, sum - 2*max equals the third edge,
        # so the strict triangle inequalities hold and no convention is needed
        a = extended_angles(TriLengths(l_ij=0.1, l_ik=2.0, l_jk=2.0))
        assert a == tri_angles(TriLengths(l_ij=0.1, l_ik=2.0, l_jk=2.0))

    def test_near_degenerate_limit_is_continuous(self):
        # slightly admissible flat triangle: angles close to (pi, 0, 0)
        a = tri_angles(TriLengths(l_ij=0.5, l_ik=0.5, l_jk=0.999))
        assert a[0] > 2.9
        assert a[1] < 0.2 and a[2] < 0.2


class TestScaledLength:
    def test_zero_factors_identity(self):
        assert scaled_length(1.3, 0.0, 0.0) == pytest.approx(1.3, abs=1e-15)

    def test_reference_value(self):
        assert scaled_length(1.0, math.log(2.0), 0.0) == pytest.approx(
            SCALED_UNIT_BY_LOG2, abs=1e-15
        )

    @given(
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_monotone(self, d, ua, ub):
        l1 = scaled_length(d, ua, ub)
        assert l1 == scaled_length(d, ub, ua)
        assert scaled_length(d, ua + 0.1, ub) > l1
        assert l1 > 0.0

    @given(
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_group_property(self, d, ua, ub):
        # scaling twice composes additively in u
        once = scaled_length(d, ua + 0.3, ub - 0.2)
        twice = scaled_length(scaled_length(d, ua, ub), 0.3, -0.2)
        assert once == pytest.approx(twice, rel=1e-13, abs=1e-13)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            scaled_length(1.0, 300.0, 300.0)

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            scaled_length(-1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            scaled_length(1.0, math.nan, 0.0)


class TestDerivatives:
    def test_offdiag_matches_fd(self, rng):
        for _ in range(100):
            l = random_admissible_lengths(rng)
            W, _, _ = kernel(l)
            assert rel_err(fd_dangle(l, "i", "j"), W[2]) < 1e-8

    def test_offdiag_symmetry(self, rng):
        # d a_i / d u_j equals d a_j / d u_i
        for _ in range(50):
            l = random_admissible_lengths(rng)
            W, _, _ = kernel(l)
            assert rel_err(fd_dangle(l, "j", "i"), W[2]) < 1e-8

    def test_diag_matches_fd_and_is_negative(self, rng):
        for _ in range(100):
            l = random_admissible_lengths(rng)
            _, diag, _ = kernel(l)
            assert np.all(diag < 0.0)
            assert rel_err(fd_dangle(l, "i", "i"), diag[0]) < 1e-8

    def test_darea_matches_fd(self, rng):
        for _ in range(100):
            l = random_admissible_lengths(rng)
            _, _, darea = kernel(l)
            for c, v in enumerate("ijk"):
                assert rel_err(fd_darea(l, v), darea[c]) < 1e-8

    def test_partials_sum_to_uniform_scaling_derivative(self, rng):
        # d a_i/d u_i + d a_i/d u_j + d a_i/d u_k equals the derivative of a_i
        # under scaling all three factors together
        h = 1e-5
        for _ in range(50):
            l = random_admissible_lengths(rng)
            W, diag, _ = kernel(l)
            total = diag[0] + W[2] + W[1]

            def a_i_at(s):
                return tri_angles(
                    TriLengths(
                        scaled_length(l.l_ij, s, s),
                        scaled_length(l.l_ik, s, s),
                        scaled_length(l.l_jk, s, s),
                    )
                )[0]

            fd = (a_i_at(h) - a_i_at(-h)) / (2.0 * h)
            assert rel_err(fd, total) < 1e-8

    def test_tan_pole_refused(self):
        # the constant extension (pi, 0, 0) of a flat triangle sits on the pole
        L = np.array([[2.0, 1.0, 1.0]])
        with pytest.raises(ValueError):
            angle_derivatives(L, np.array([[math.pi, 0.0, 0.0]]))


class TestVectorized:
    def test_mask_matches_scalar(self, rng):
        L = rng.uniform(0.2, 2.0, size=(200, 3))
        mask = admissible_mask(L)
        for row, ok in zip(L, mask):
            assert ok == TriLengths(*row).admissible

    def test_angles_match_scalar(self, rng):
        for _ in range(50):
            l = random_admissible_lengths(rng)
            # row convention: entry c is the length opposite corner c
            a = angles_from_length_array(np.array([l.row()]))[0]
            assert np.allclose(a, tri_angles(l), atol=1e-14)


class TestColumnKernels:
    """The column-form kernels against the row-wise formulas they replaced:
    the same operations in the same order, so the results are bitwise equal."""

    @staticmethod
    def rows(rng):
        random = rng.uniform(0.05, 3.0, size=(1000, 3))
        ties = np.array([
            [1.0, 1.0, 1.0], [2.0, 2.0, 1.0], [1.0, 2.0, 2.0], [2.0, 1.0, 2.0],
            [1.0, 1.0, 2.0], [0.5, 1.5, 1.0], [3.0, 1.0, 2.0],  # zero slack
            [0.25, 0.125, 0.125], [1.0, 1.0, 1e-300], [5.0, 1.0, 1.0],
        ])
        # rounded flat triangles, longest edge in each position: their slack
        # is a rounding error whose sign depends on the order of the sum
        ab = rng.uniform(0.05, 1.5, size=(999, 2))
        flat = np.column_stack([ab, ab.sum(axis=1)]).reshape(3, 333, 3)
        flat = np.concatenate([np.roll(part, k, axis=1) for k, part in enumerate(flat)])
        return np.concatenate([random, ties, ties[:, ::-1], flat])

    def test_mask_matches_reduction(self, rng):
        L = self.rows(rng)
        assert np.array_equal(admissible_mask(L), reduced_mask(L))
        assert not admissible_mask(L[1004:1007]).any()  # the zero-slack rows

    def test_angles_match_permuted_formula(self, rng):
        L = self.rows(rng)
        assert np.array_equal(angles_from_length_array(L), permuted_angles(L))

    def test_leading_axes(self, rng):
        L = self.rows(rng)[:2000].reshape(1000, 2, 3)
        assert np.array_equal(admissible_mask(L), reduced_mask(L))
        angles = angles_from_length_array(L)
        assert angles.shape == L.shape
        assert np.array_equal(angles, permuted_angles(L))
