"""Echelon witnesses: offset selection, assembly, and the structural certificate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_impls import explicit_p2
from test_witness_digests import witness_keys

from kronjord.echelon import (
    EchelonSpec,
    build_echelon_rep,
    echelon_end_dim,
    echelon_offsets,
    ekp_echelon_certificate,
    select_phi,
    shifted_identity,
)
from kronjord.exactmat import GF, QQ, ExactMatrix
from kronjord.kronecker import DimVector, KroneckerRep, tits_form, xi
from kronjord.pipeline import classify
from kronjord.verify import ekp_sample_check, hom_space, is_brick


class TestShiftedIdentity:
    def test_single_column(self):
        m = shifted_identity(3, 1, 2)
        assert m == ExactMatrix(QQ, [[0], [1], [0]])

    def test_offset_one_is_identity(self):
        assert shifted_identity(4, 4, 1) == ExactMatrix.identity(QQ, 4)

    def test_full_column_rank(self):
        for b, a in ((5, 2), (6, 3), (7, 1)):
            for l in range(1, b - a + 2):
                assert shifted_identity(b, a, l).rank() == a

    def test_offset_out_of_range(self):
        with pytest.raises(ValueError):
            shifted_identity(4, 2, 4)
        with pytest.raises(ValueError):
            shifted_identity(4, 2, 0)


class TestSelectPhi:
    def test_c_case(self):
        spec = select_phi(3, 2, 4)
        assert spec.case_tag == "c-case"
        assert spec.phi == (1, 3, 2)

    def test_b_case(self):
        spec = select_phi(3, 3, 5)
        assert spec.case_tag == "b-case"
        assert spec.phi == (1, 3, 2)

    def test_d_case(self):
        spec = select_phi(4, 3, 8)
        assert spec.case_tag == "d-case"
        assert spec.phi == (1, 4, 6, 2)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            select_phi(3, 1, 2)          # a too small
        with pytest.raises(ValueError):
            select_phi(3, 3, 8)          # q(3,8)=1 > 0
        with pytest.raises(ValueError):
            select_phi(3, 2, 5)          # b > (r-1)a
        with pytest.raises(ValueError):
            select_phi(4, 3, 5)          # b - a < r - 1

    def test_case_coverage_sweep(self):
        # every admissible (a,b) with b <= (r-1)a receives exactly one tag
        for r in (3, 4, 5):
            for a in range(2, 9):
                for b in range(a + r - 1, (r - 1) * a + 1):
                    if tits_form(r, (a, b)) > 0:
                        continue
                    spec = select_phi(r, a, b)
                    assert spec.case_tag in ("b-case", "c-case", "d-case")
                    assert len(set(spec.phi)) == r
                    assert all(1 <= l <= b - a + 1 for l in spec.phi)


class TestBuild:
    def test_example_2_4(self):
        rep = build_echelon_rep(select_phi(3, 2, 4))
        assert rep.dim == DimVector(2, 4)
        assert rep.mats[0] == shifted_identity(4, 2, 1)
        assert rep.mats[1] == shifted_identity(4, 2, 3)
        assert rep.mats[2] == shifted_identity(4, 2, 2)

    def test_all_mats_full_rank(self):
        rep = build_echelon_rep(select_phi(4, 3, 8))
        assert all(m.rank() == 3 for m in rep.mats)

    def test_pencil_linearity(self):
        from kronjord.kronecker import pencil
        spec = select_phi(3, 2, 4)
        rep = build_echelon_rep(spec)
        combined = pencil(rep, [1, 1, 0])
        expected = shifted_identity(4, 2, spec.phi[0]) + shifted_identity(4, 2, spec.phi[1])
        assert combined == expected

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            EchelonSpec(3, 2, 4, (1, 1, 2), "c-case")     # not injective
        with pytest.raises(ValueError):
            EchelonSpec(3, 2, 4, (1, 4, 2), "c-case")     # offset out of range


class TestCertificate:
    def test_built_reps_certify(self):
        for (r, a, b) in ((3, 2, 4), (3, 3, 5), (4, 3, 8), (5, 4, 13)):
            assert ekp_echelon_certificate(build_echelon_rep(select_phi(r, a, b)))

    def test_p2_certifies(self):
        # columns of the explicit projective are I(1), ..., I(r) with a = 1
        assert ekp_echelon_certificate(explicit_p2(3))

    def test_repeated_offset_fails(self):
        mats = (shifted_identity(4, 2, 1), shifted_identity(4, 2, 1), shifted_identity(4, 2, 2))
        rep = KroneckerRep(3, DimVector(2, 4), mats)
        assert not ekp_echelon_certificate(rep)

    def test_non_echelon_matrix_fails(self):
        mats = (shifted_identity(4, 2, 1), shifted_identity(4, 2, 2),
                ExactMatrix(QQ, [[1, 1], [0, 0], [0, 0], [0, 0]]))
        rep = KroneckerRep(3, DimVector(2, 4), mats)
        assert not ekp_echelon_certificate(rep)

    def test_certificate_implies_sampled_kernels_empty(self):
        for (r, a, b) in ((3, 2, 4), (4, 3, 8)):
            rep = build_echelon_rep(select_phi(r, a, b))
            assert ekp_echelon_certificate(rep)
            assert ekp_sample_check(rep, 200, 17)


class TestBricks:
    def test_sweep_bricks(self):
        # dim End = 1 across the full desk-scale sweep
        for r in (3, 4, 5):
            for a in range(2, 9):
                for b in range(a + r - 1, (r - 1) * a + 1):
                    if tits_form(r, (a, b)) > 0:
                        continue
                    assert is_brick(build_echelon_rep(select_phi(r, a, b))), (r, a, b)


def echelon_types():
    """(r, a, b) of every echelon type whose witness JSON is pinned, in order."""
    seen = []
    for r, c, d, _ in witness_keys():
        if classify(r, c, d).route == "echelon" and (r, *xi(c, d)) not in seen:
            seen.append((r, *xi(c, d)))
    return seen


@st.composite
def offset_reps(draw):
    """Representations with shifted-identity arrows I(l) of shape b x a, over Q;
    offsets may repeat, so End can have any dimension."""
    r = draw(st.integers(min_value=2, max_value=4))
    a = draw(st.integers(min_value=1, max_value=5))
    b = draw(st.integers(min_value=a, max_value=a + 5))
    offsets = draw(st.lists(st.integers(min_value=1, max_value=b - a + 1), min_size=r, max_size=r))
    return KroneckerRep(r, DimVector(a, b), tuple(shifted_identity(b, a, l) for l in offsets))


class TestOffsetEndDim:
    """The brick test read off the offsets agrees with the ranked End system."""

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=lambda f: f.name)
    def test_agrees_with_is_brick_on_every_pinned_echelon_type(self, field):
        types = echelon_types()
        assert len(types) > 50
        for r, a, b in types:
            spec = select_phi(r, a, b)
            rep = build_echelon_rep(spec, field)
            assert echelon_offsets(rep) == spec.phi, (r, a, b)
            assert (echelon_end_dim(a, b, spec.phi) == 1) == is_brick(rep), (r, a, b)

    @settings(max_examples=150, deadline=None)
    @given(offset_reps())
    def test_equals_hom_space_dimension(self, rep):
        offsets = echelon_offsets(rep)
        assert offsets is not None
        assert echelon_end_dim(*rep.dim, offsets) == hom_space(rep, rep).dim

    def test_repeated_offsets_give_their_true_dimension(self):
        # two equal arrows leave End larger than k; the certificate still fails
        rep = KroneckerRep(3, DimVector(2, 4), (shifted_identity(4, 2, 1),) * 2
                           + (shifted_identity(4, 2, 2),))
        assert echelon_offsets(rep) == (1, 1, 2) and not ekp_echelon_certificate(rep)
        assert echelon_end_dim(2, 4, (1, 1, 2)) == hom_space(rep, rep).dim > 1

    def test_a_non_shifted_arrow_has_no_offsets(self):
        mats = (shifted_identity(4, 2, 1), shifted_identity(4, 2, 2),
                ExactMatrix(QQ, [[0, 0], [1, 0], [0, 2], [0, 0]]))
        assert echelon_offsets(KroneckerRep(3, DimVector(2, 4), mats)) is None
