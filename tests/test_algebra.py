"""Structure-constant algebra: arithmetic, axioms, q-tensor, basis changes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyan import (
    ContractError,
    ZeroDivisorError,
    builtin_algebra,
    builtin_names,
    change_basis,
    h4_basis_change,
    invert,
    is_zero_divisor,
    mult_operator,
    multiply,
    poly_eval,
    q_tensor,
    transform_constants,
    verify_structure,
)
from polyan.algebra import algebra_from_dict, exp_series_coeffs, load_algebra

coord = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


def vec(n):
    return st.lists(coord, min_size=n, max_size=n).map(np.array)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

def test_psi_multiplication_is_componentwise(h4_psi):
    a = h4_psi.element([1, 2, 3, 4])
    b = h4_psi.element([4, 3, 2, 1])
    assert np.array_equal(multiply(a, b, h4_psi).coords, [4, 6, 6, 4])


@pytest.mark.parametrize("name", builtin_names())
def test_unit_times_x_is_x(name, rng):
    S = builtin_algebra(name)
    x = S.element(rng.uniform(-2, 2, S.n))
    assert np.allclose(multiply(S.unit(), x, S).coords, x.coords, atol=1e-14)


def test_e_basis_generator_products(h4_e):
    e2 = h4_e.element([0, 1, 0, 0])
    e3 = h4_e.element([0, 0, 1, 0])
    assert np.array_equal(multiply(e2, e3, h4_e).coords, [0, 0, 0, 1])
    for g in ([0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]):
        sq = multiply(h4_e.element(g), h4_e.element(g), h4_e)
        assert np.array_equal(sq.coords, [1, 0, 0, 0])


def test_multiply_rejects_basis_mismatch(h4_psi, h4_e):
    with pytest.raises(ContractError):
        multiply(h4_psi.element([1, 0, 0, 0]), h4_e.element([1, 0, 0, 0]), h4_psi)


@settings(max_examples=40, deadline=None)
@given(a=vec(4), b=vec(4), c=vec(4), alpha=coord)
def test_multiply_commutative_and_bilinear(a, b, c, alpha):
    S = builtin_algebra("h4-e")
    pa, pb, pc = S.element(a), S.element(b), S.element(c)
    left = multiply(pa, pb, S)
    right = multiply(pb, pa, S)
    assert np.allclose(left.coords, right.coords, atol=1e-12)
    lin = multiply(pa, alpha * pb + pc, S)
    expanded = alpha * multiply(pa, pb, S) + multiply(pa, pc, S)
    assert np.allclose(lin.coords, expanded.coords, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(a=vec(4), b=vec(4))
def test_operator_of_product_is_operator_product(a, b):
    # associativity plus commutativity in operator form
    S = builtin_algebra("h4-e")
    pa, pb = S.element(a), S.element(b)
    mab = mult_operator(multiply(pa, pb, S), S)
    assert np.max(np.abs(mab - mult_operator(pa, S) @ mult_operator(pb, S))) < 1e-12


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", builtin_names())
def test_builtin_axioms_exactly_zero(name):
    report = verify_structure(builtin_algebra(name))
    assert report.commutativity == 0.0
    assert report.associativity == 0.0
    assert report.unit == 0.0
    assert report.passed


def test_broken_table_fails_associativity(h4_psi):
    p = np.array(h4_psi.p, dtype=float)
    p[0, 1, 2] = 1.0  # stray product term
    from polyan import StructureConstants

    broken = StructureConstants(p, basis_tag="broken")
    report = verify_structure(broken)
    assert report.associativity >= 1.0
    assert not report.passed


# ---------------------------------------------------------------------------
# q-tensor
# ---------------------------------------------------------------------------

def test_q_tensor_psi_is_identity(h4_psi):
    qt = q_tensor(h4_psi)
    assert np.array_equal(qt.q, np.eye(4))
    assert qt.det == pytest.approx(1.0, rel=1e-12)
    assert qt.q_inv is not None


def test_q_tensor_e_is_four_identity(h4_e):
    qt = q_tensor(h4_e)
    assert np.array_equal(qt.q, 4.0 * np.eye(4))
    assert qt.det == pytest.approx(256.0, rel=1e-12)


def test_q_tensor_dual_is_singular():
    qt = q_tensor(builtin_algebra("dual"))
    assert np.array_equal(qt.q, [[2, 0], [0, 0]])
    assert qt.q_inv is None


def test_q_tensor_inverse_property():
    for name in ("complex", "c3", "h4-e", "h4-psi", "p3-psi"):
        qt = q_tensor(builtin_algebra(name))
        assert qt.q_inv is not None
        assert np.max(np.abs(qt.q @ qt.q_inv - np.eye(qt.q.shape[0]))) < 1e-12


# ---------------------------------------------------------------------------
# multiplication operator, zero divisors, inversion
# ---------------------------------------------------------------------------

def test_unit_element_operator_is_identity(h4_psi):
    ones = h4_psi.element([1, 1, 1, 1])
    assert np.array_equal(mult_operator(ones, h4_psi), np.eye(4))
    assert not is_zero_divisor(ones, h4_psi)
    assert np.allclose(invert(ones, h4_psi).coords, [1, 1, 1, 1])


def test_zero_component_is_zero_divisor(h4_psi):
    a = h4_psi.element([1, 0, 1, 1])
    assert is_zero_divisor(a, h4_psi)
    with pytest.raises(ZeroDivisorError):
        invert(a, h4_psi)


@pytest.mark.parametrize("name", ("complex", "c3", "h4-e", "h4-psi"))
def test_invert_small_multiple_of_unit(name):
    S = builtin_algebra(name)
    inv = invert(S.scalar(1e-4), S)
    assert np.allclose(inv.coords, S.scalar(1e4).coords, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ("complex", "c3", "h4-e", "h4-psi"))
@pytest.mark.parametrize("scale", (1e-6, 1e6))
def test_zero_divisor_test_is_scale_invariant(name, scale, rng):
    S = builtin_algebra(name)
    elements = [S.element(rng.uniform(-2, 2, S.n)) for _ in range(10)]
    elements += [S.scalar(1.0), S.element(np.zeros(S.n))]
    if name == "h4-psi":
        elements.append(S.element([1, 0, 1, 1]))
    for a in elements:
        assert is_zero_divisor(scale * a, S) == is_zero_divisor(a, S)


def test_zero_and_zero_component_stay_zero_divisors(h4_psi):
    for coords in ([0, 0, 0, 0], [1, 0, 1, 1], [1e-6, 0, 1e-6, 1e-6]):
        assert is_zero_divisor(h4_psi.element(coords), h4_psi)


def test_invert_is_componentwise_reciprocal(h4_psi):
    a = h4_psi.element([2, 4, 1, 5])
    assert np.allclose(invert(a, h4_psi).coords, [0.5, 0.25, 1.0, 0.2], atol=1e-14)


@pytest.mark.parametrize("name", ("complex", "c3", "h4-e", "h4-psi"))
def test_invert_times_a_is_unit(name, rng):
    S = builtin_algebra(name)
    for _ in range(20):
        a = S.element(rng.uniform(-2, 2, S.n))
        if is_zero_divisor(a, S):
            continue
        prod = multiply(invert(a, S), a, S)
        assert np.max(np.abs(prod.coords - S.unit().coords)) < 1e-10


# ---------------------------------------------------------------------------
# basis changes
# ---------------------------------------------------------------------------

def test_h4_matrix_squares_to_four_identity():
    B = h4_basis_change()
    assert np.array_equal(B.s @ B.s, 4.0 * np.eye(4))


def test_e1_maps_to_all_ones(h4_e):
    B = h4_basis_change()
    psi = change_basis(h4_e.element([1, 0, 0, 0]), B)
    assert np.array_equal(psi.coords, [1, 1, 1, 1])
    assert psi.basis_tag == "h4-psi"


def test_round_trip_is_identity(h4_e, rng):
    B = h4_basis_change()
    for _ in range(10):
        x = h4_e.element(rng.uniform(-3, 3, 4))
        back = change_basis(change_basis(x, B), B.inverse())
        assert np.max(np.abs(back.coords - x.coords)) < 1e-14


def test_transform_constants_reproduces_e_table(h4_psi, h4_e):
    S_e = transform_constants(h4_psi, h4_basis_change().inverse())
    assert np.array_equal(S_e.p, h4_e.p.astype(float))
    assert S_e.unit_index == 0


def test_transform_constants_diagonalizes_e_table(h4_psi, h4_e):
    # the other direction lands exactly on the componentwise table
    S_psi = transform_constants(h4_e, h4_basis_change())
    assert np.array_equal(S_psi.p, h4_psi.p.astype(float))


def test_multiplication_commutes_with_basis_change(h4_e, rng):
    B = h4_basis_change()
    S_psi = transform_constants(h4_e, B)
    for _ in range(20):
        a = h4_e.element(rng.uniform(-2, 2, 4))
        b = h4_e.element(rng.uniform(-2, 2, 4))
        via_e = change_basis(multiply(a, b, h4_e), B)
        via_psi = multiply(change_basis(a, B), change_basis(b, B), S_psi)
        assert np.max(np.abs(via_e.coords - via_psi.coords)) < 1e-12


def test_singular_basis_change_rejected():
    from polyan import BasisChange

    with pytest.raises(ContractError):
        BasisChange(np.zeros((3, 3)), "a", "b")


# ---------------------------------------------------------------------------
# polynomial evaluation
# ---------------------------------------------------------------------------

def test_constant_polynomial(h4_psi, rng):
    c0 = h4_psi.element([3, -1, 2, 0.5])
    X = h4_psi.element(rng.uniform(-2, 2, 4))
    assert np.array_equal(poly_eval([c0], X, h4_psi).coords, c0.coords)


def test_square_polynomial_is_componentwise(h4_psi):
    zero = h4_psi.element(np.zeros(4))
    one = h4_psi.unit()
    X = h4_psi.element([1, 2, 3, 4])
    sq = poly_eval([zero, zero, one], X, h4_psi)
    assert np.array_equal(sq.coords, [1, 4, 9, 16])


def test_truncated_exponential_series(h4_psi):
    X = h4_psi.element([0, 1, 0, 0])
    val = poly_eval(exp_series_coeffs(h4_psi, 20), X, h4_psi)
    assert np.max(np.abs(val.coords - [1.0, math.e, 1.0, 1.0])) < 1e-12


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------

def _complex_doc():
    return {
        "n": 2,
        "unit_index": 1,
        "name": "complex-json",
        "entries": [
            {"k": 1, "i": 1, "j": 1, "value": 1},
            {"k": 2, "i": 1, "j": 2, "value": 1},
            {"k": 2, "i": 2, "j": 1, "value": 1},
            {"k": 1, "i": 2, "j": 2, "value": -1},
        ],
    }


def test_algebra_from_dict_matches_builtin():
    S = algebra_from_dict(_complex_doc())
    assert np.array_equal(S.p, builtin_algebra("complex").p.astype(float))
    assert S.unit_index == 0
    assert verify_structure(S).passed


def test_load_algebra_from_file(tmp_path):
    import json

    path = tmp_path / "alg.json"
    path.write_text(json.dumps(_complex_doc()))
    S = load_algebra(path)
    i = S.element([0, 1])
    assert np.array_equal(multiply(i, i, S).coords, [-1, 0])


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"n": 0},
        {"n": 2, "entries": [{"k": 3, "i": 1, "j": 1, "value": 1}]},
        {"n": 2, "entries": [{"k": 1, "i": 1, "value": 1}]},
        {"n": 2, "unit_index": 5},
        # every document number is a finite JSON number, and n, k, i, j and unit_index are whole
        {"n": 2, "entries": [{"k": 1, "i": 1, "j": 1, "value": float("inf")}]},
        {"n": 2, "entries": [{"k": 1, "i": 1, "j": 1, "value": "nan"}]},
        {"n": 2.7},
        {"n": "2"},
        {"n": 2, "unit_index": True},
        {"n": 2, "unit_index": None},
        {"n": 2, "entries": [{"k": 1, "i": 1, "j": 1, "value": True}]},
        {"n": 2, "entries": [{"k": 1, "i": 1, "j": 1, "value": "1"}]},
        {"n": 2, "entries": [{"k": 1.5, "i": 1, "j": 1, "value": 1}]},
        {"n": 2, "entries": [[1, 1, 1, 1]]},
        [2],
        # n is bounded before (n, n, n) constants are allocated
        {"n": 1000000},
    ],
)
def test_malformed_documents_rejected(doc):
    with pytest.raises(ContractError):
        algebra_from_dict(doc)
