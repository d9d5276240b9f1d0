"""Commutative associative hypercomplex number systems given by structure constants.

An n-dimensional system is described by the dense tensor ``p[k, i, j]``: the
product of basis elements ``e_i`` and ``e_j`` has coefficient ``p[k, i, j]``
on ``e_k``.  Elements are coordinate vectors tagged with the basis they refer
to.  Everything here is pure and treats its inputs as immutable; built-in
systems use small-integer tables, exact in float64, so that axiom residuals
are exactly zero.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, ZeroDivisorError

__all__ = [
    "AxiomReport",
    "BasisChange",
    "PolyNumber",
    "QTensor",
    "StructureConstants",
    "algebra_from_dict",
    "builtin_algebra",
    "builtin_names",
    "change_basis",
    "h4_basis_change",
    "invert",
    "is_zero_divisor",
    "load_algebra",
    "mult_operator",
    "multiply",
    "poly_eval",
    "q_tensor",
    "transform_constants",
    "verify_structure",
]

_SINGULAR_TOL = 1e-12  # relative determinant threshold of the singularity tests
_MAX_DIMENSION = 64  # of a document's algebra: the associativity check holds n^4 floats, 134 MB at 64


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


class StructureConstants:
    """Multiplication tensor of a commutative associative algebra.

    Attributes:
        n: dimension of the algebra.
        p: read-only float64 (n, n, n) array, ``p[k, i, j]`` = coefficient of basis
           element k in the product e_i * e_j.
        unit_index: index (0-based) of a basis element acting as the
           multiplicative identity, or None.  Componentwise (idempotent)
           bases have no such element and carry an explicit unit vector
           instead.
        basis_tag: opaque label; operations refuse to mix elements whose
           tags differ.
    """

    def __init__(self, p, unit_index=None, basis_tag="custom", unit_element=None):
        p = np.asarray(p)
        if p.ndim != 3 or len(set(p.shape)) != 1:
            raise ContractError(f"structure constants must be a cubic rank-3 array, got shape {p.shape}")
        self.n = int(p.shape[0])
        self.p = _readonly(p.astype(float))
        if unit_index is not None and not 0 <= unit_index < self.n:
            raise ContractError(f"unit_index {unit_index} out of range for dimension {self.n}")
        self.unit_index = unit_index
        self.basis_tag = str(basis_tag)
        if unit_element is not None:
            unit_element = np.asarray(unit_element, dtype=float)
            if unit_element.shape != (self.n,):
                raise ContractError("unit_element has wrong length")
        self._explicit_unit = None if unit_element is None else _readonly(unit_element)

    def __repr__(self):
        return f"StructureConstants(n={self.n}, basis_tag={self.basis_tag!r}, unit_index={self.unit_index})"

    @cached_property
    def unit_element(self):
        """Coordinates of the multiplicative identity, or None if there is none.

        Resolved from unit_index when set, from an explicit vector when
        supplied, and otherwise by solving M(u) = I in the least-squares
        sense and keeping the solution only if it is exact to 1e-10.
        """
        if self.unit_index is not None:
            u = np.zeros(self.n)
            u[self.unit_index] = 1.0
            return _readonly(u)
        if self._explicit_unit is not None:
            return self._explicit_unit
        a = self.p.reshape(self.n * self.n, self.n)
        b = np.eye(self.n).reshape(-1)
        u, *_ = np.linalg.lstsq(a, b, rcond=None)
        if np.max(np.abs(a @ u - b)) < 1e-10:
            return _readonly(u)
        return None

    @cached_property
    def qtensor(self) -> "QTensor":
        return q_tensor(self)

    def element(self, coords) -> "PolyNumber":
        """Wrap coordinates as an element of this algebra."""
        return PolyNumber(coords, self.basis_tag)

    def scalar(self, c: float) -> "PolyNumber":
        """The element c * 1, requiring the algebra to have a unit."""
        u = self.unit_element
        if u is None:
            raise ContractError(f"algebra {self.basis_tag!r} has no multiplicative unit")
        return PolyNumber(float(c) * u, self.basis_tag)

    def unit(self) -> "PolyNumber":
        return self.scalar(1.0)


class PolyNumber:
    """An algebra element: a coordinate vector plus the tag of its basis."""

    __slots__ = ("coords", "basis_tag")

    def __init__(self, coords, basis_tag):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 1:
            raise ContractError("coordinates must be a flat vector")
        object.__setattr__(self, "coords", _readonly(coords))
        object.__setattr__(self, "basis_tag", str(basis_tag))

    def __setattr__(self, name, value):
        raise AttributeError("PolyNumber is immutable")

    @property
    def n(self):
        return self.coords.shape[0]

    def _check_peer(self, other):
        if not isinstance(other, PolyNumber):
            raise TypeError(f"expected PolyNumber, got {type(other).__name__}")
        if other.basis_tag != self.basis_tag:
            raise ContractError(f"basis mismatch: {self.basis_tag!r} vs {other.basis_tag!r}")
        if other.n != self.n:
            raise ContractError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        self._check_peer(other)
        return PolyNumber(self.coords + other.coords, self.basis_tag)

    def __sub__(self, other):
        self._check_peer(other)
        return PolyNumber(self.coords - other.coords, self.basis_tag)

    def __neg__(self):
        return PolyNumber(-self.coords, self.basis_tag)

    def __mul__(self, c):
        if not isinstance(c, numbers.Real):
            return NotImplemented
        return PolyNumber(self.coords * float(c), self.basis_tag)

    __rmul__ = __mul__

    def __truediv__(self, c):
        if not isinstance(c, numbers.Real):
            return NotImplemented
        return PolyNumber(self.coords / float(c), self.basis_tag)

    def __eq__(self, other):
        return (
            isinstance(other, PolyNumber)
            and other.basis_tag == self.basis_tag
            and np.array_equal(self.coords, other.coords)
        )

    def __repr__(self):
        vals = ", ".join(format(v, ".12g") for v in self.coords)
        return f"PolyNumber([{vals}], {self.basis_tag!r})"


def _check_element(x: PolyNumber, S: StructureConstants, what="operand"):
    if not isinstance(x, PolyNumber):
        raise TypeError(f"{what} must be a PolyNumber")
    if x.basis_tag != S.basis_tag:
        raise ContractError(f"{what} basis {x.basis_tag!r} does not match algebra {S.basis_tag!r}")
    if x.n != S.n:
        raise ContractError(f"{what} has dimension {x.n}, algebra has {S.n}")


def multiply(a: PolyNumber, b: PolyNumber, S: StructureConstants) -> PolyNumber:
    """Product of two elements, result_k = sum_ij p[k, i, j] a_i b_j."""
    _check_element(a, S, "left factor")
    _check_element(b, S, "right factor")
    return PolyNumber(np.einsum("kij,i,j->k", S.p, a.coords, b.coords), S.basis_tag)


@dataclass(frozen=True)
class AxiomReport:
    """Max-abs residuals of the algebra axioms, with per-axiom pass flags."""

    commutativity: float
    associativity: float
    unit: float
    tol: float
    commutativity_ok: bool
    associativity_ok: bool
    unit_ok: bool

    @property
    def passed(self) -> bool:
        return self.commutativity_ok and self.associativity_ok and self.unit_ok


def verify_structure(S: StructureConstants, tol: float = 1e-12) -> AxiomReport:
    """Check commutativity, associativity and the unit law; reports, never raises.

    Integer tables produce exactly zero residuals.  The associativity check is
    the index identity sum_m p[r,i,m] p[m,k,j] = sum_m p[r,k,m] p[m,i,j].
    """
    p = S.p
    comm = float(np.max(np.abs(p - p.transpose(0, 2, 1))))
    left = np.einsum("rim,mkj->rikj", p, p)
    right = np.einsum("rkm,mij->rikj", p, p)
    assoc = float(np.max(np.abs(left - right)))
    if S.unit_index is not None:
        unit = float(np.max(np.abs(p[:, S.unit_index, :] - np.eye(S.n))))
    else:
        u = S.unit_element
        if u is None:
            # no unit exists; report the least-squares defect of the best candidate
            a = p.reshape(S.n * S.n, S.n)
            b = np.eye(S.n).reshape(-1)
            cand, *_ = np.linalg.lstsq(a, b, rcond=None)
            unit = float(np.max(np.abs(a @ cand - b)))
        else:
            m = np.einsum("ijk,k->ij", p, u)
            unit = float(np.max(np.abs(m - np.eye(S.n))))
    return AxiomReport(
        commutativity=comm,
        associativity=assoc,
        unit=unit,
        tol=tol,
        commutativity_ok=comm <= tol,
        associativity_ok=assoc <= tol,
        unit_ok=unit <= tol,
    )


@dataclass(frozen=True)
class QTensor:
    """The bilinear form q_ij = sum_rm p[r,i,m] p[m,r,j] and its inverse.

    q_inv is None when the determinant vanishes within tolerance; in that
    case the invariant derivative form is unavailable.
    """

    q: np.ndarray
    det: float
    q_inv: np.ndarray | None


def q_tensor(S: StructureConstants) -> QTensor:
    """Double contraction of the structure constants; q_inv present iff nonsingular."""
    q = np.einsum("rim,mrj->ij", S.p, S.p)
    det = float(np.linalg.det(q))
    scale = max(1.0, float(np.max(np.abs(q)))) ** S.n
    if abs(det) > _SINGULAR_TOL * scale:
        q_inv = np.linalg.inv(q)
    else:
        q_inv = None
    return QTensor(q=_readonly(q), det=det, q_inv=None if q_inv is None else _readonly(q_inv))


def mult_operator(a: PolyNumber, S: StructureConstants) -> np.ndarray:
    """Matrix of multiplication by a:  M(a)[i, j] = sum_k p[i, j, k] a_k."""
    _check_element(a, S)
    return np.einsum("ijk,k->ij", S.p, a.coords)


def is_zero_divisor(a: PolyNumber, S: StructureConstants) -> bool:
    """Scale-invariant singularity test of the multiplication operator.

    Flags a when |det M(a)| <= 1e-12 * |a|^n.  Both sides scale as c^n under
    a -> c a, so the verdict does not depend on the size of a; zero itself
    counts as a zero divisor for the purpose of guarding division.
    """
    m = mult_operator(a, S)
    norm = float(np.linalg.norm(a.coords))
    return abs(float(np.linalg.det(m))) <= _SINGULAR_TOL * norm ** S.n


def invert(a: PolyNumber, S: StructureConstants) -> PolyNumber:
    """Multiplicative inverse, the solution b of a * b = 1."""
    u = S.unit_element
    if u is None:
        raise ContractError(f"algebra {S.basis_tag!r} has no multiplicative unit")
    if is_zero_divisor(a, S):
        raise ZeroDivisorError(f"element {a.coords.tolist()} is a zero divisor; no inverse exists")
    m = mult_operator(a, S)
    return PolyNumber(np.linalg.solve(m, u), S.basis_tag)


class BasisChange:
    """Invertible linear change of coordinates between two tagged bases.

    Coordinates transform as new = s @ old.  The built-in H4 change maps
    e-basis coordinates to the componentwise psi-basis.
    """

    def __init__(self, s, from_tag, to_tag, s_inv=None):
        s = np.asarray(s, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ContractError("basis change matrix must be square")
        if s_inv is None:
            try:
                s_inv = np.linalg.inv(s)
            except np.linalg.LinAlgError as exc:
                raise ContractError("basis change matrix is singular") from exc
        else:
            s_inv = np.asarray(s_inv, dtype=float)
        if np.max(np.abs(s @ s_inv - np.eye(s.shape[0]))) > 1e-10:
            raise ContractError("s_inv is not an inverse of s")
        self.s = _readonly(s)
        self.s_inv = _readonly(s_inv)
        self.from_tag = str(from_tag)
        self.to_tag = str(to_tag)
        self.n = s.shape[0]

    def inverse(self) -> "BasisChange":
        return BasisChange(self.s_inv, self.to_tag, self.from_tag, s_inv=self.s)

    def __repr__(self):
        return f"BasisChange({self.from_tag!r} -> {self.to_tag!r}, n={self.n})"


def change_basis(x: PolyNumber, B: BasisChange) -> PolyNumber:
    """Re-express an element in the target basis; the element itself is unchanged."""
    if x.basis_tag != B.from_tag:
        raise ContractError(f"element is in basis {x.basis_tag!r}, change expects {B.from_tag!r}")
    if x.n != B.n:
        raise ContractError("dimension mismatch in basis change")
    return PolyNumber(B.s @ x.coords, B.to_tag)


def transform_constants(S: StructureConstants, B: BasisChange) -> StructureConstants:
    """Structure constants in the target basis.

    Defined so that multiplication commutes with the coordinate change:
    multiply-then-transform equals transform-then-multiply.
    """
    if S.basis_tag != B.from_tag:
        raise ContractError(f"constants are tagged {S.basis_tag!r}, change expects {B.from_tag!r}")
    if S.n != B.n:
        raise ContractError("dimension mismatch in constants transform")
    p_new = np.einsum("kl,lmr,mi,rj->kij", B.s, S.p, B.s_inv, B.s_inv)
    unit_new = None
    unit_index = None
    old_unit = S.unit_element
    if old_unit is not None:
        unit_new = B.s @ old_unit
        hot = int(np.argmax(np.abs(unit_new)))
        basis_vec = np.zeros(S.n)
        basis_vec[hot] = 1.0
        if np.max(np.abs(unit_new - basis_vec)) < 1e-12:
            unit_index = hot
            unit_new = None
    return StructureConstants(
        p_new, unit_index=unit_index, basis_tag=B.to_tag, unit_element=unit_new
    )


def poly_eval(coeffs, X: PolyNumber, S: StructureConstants) -> PolyNumber:
    """Horner evaluation of sum_m coeffs[m] * X^m under the algebra product."""
    coeffs = list(coeffs)
    if not coeffs:
        raise ContractError("polynomial needs at least one coefficient")
    _check_element(X, S, "argument")
    for c in coeffs:
        _check_element(c, S, "coefficient")
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = multiply(acc, X, S) + c
    return acc


def exp_series_coeffs(S: StructureConstants, terms: int = 20):
    """Coefficients 1/m! of the truncated exponential, as algebra scalars."""
    return [S.scalar(1.0 / math.factorial(m)) for m in range(terms)]


# ---------------------------------------------------------------------------
# built-in systems
# ---------------------------------------------------------------------------

H4_E_TO_PSI_MATRIX = _readonly(
    np.array(
        [
            [1, 1, 1, 1],
            [1, 1, -1, -1],
            [1, -1, 1, -1],
            [1, -1, -1, 1],
        ],
        dtype=np.int64,
    )
)


def _diagonal_table(n: int) -> np.ndarray:
    p = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        p[i, i, i] = 1
    return p


def _complex_table() -> np.ndarray:
    p = np.zeros((2, 2, 2), dtype=np.int64)
    p[0, 0, 0] = 1
    p[1, 0, 1] = p[1, 1, 0] = 1
    p[0, 1, 1] = -1
    return p


def _dual_table() -> np.ndarray:
    p = np.zeros((2, 2, 2), dtype=np.int64)
    p[0, 0, 0] = 1
    p[1, 0, 1] = p[1, 1, 0] = 1
    return p


def _h4_e_table() -> np.ndarray:
    # Klein four-group algebra: with indices 0..3 read as 2-bit words,
    # e_i e_j = e_(i xor j).
    p = np.zeros((4, 4, 4), dtype=np.int64)
    for i in range(4):
        for j in range(4):
            p[i ^ j, i, j] = 1
    return p


def _cyclic3_table() -> np.ndarray:
    # group algebra of Z/3: e_i e_j = e_(i+j mod 3)
    p = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        for j in range(3):
            p[(i + j) % 3, i, j] = 1
    return p


def _make_builtins():
    return {
        "complex": StructureConstants(_complex_table(), unit_index=0, basis_tag="complex"),
        "dual": StructureConstants(_dual_table(), unit_index=0, basis_tag="dual"),
        "c3": StructureConstants(_cyclic3_table(), unit_index=0, basis_tag="c3"),
        "p3-psi": StructureConstants(
            _diagonal_table(3), basis_tag="p3-psi", unit_element=np.ones(3)
        ),
        "h4-e": StructureConstants(_h4_e_table(), unit_index=0, basis_tag="h4-e"),
        "h4-psi": StructureConstants(
            _diagonal_table(4), basis_tag="h4-psi", unit_element=np.ones(4)
        ),
    }


_BUILTINS = _make_builtins()


def builtin_names():
    return sorted(_BUILTINS)


def builtin_algebra(name: str) -> StructureConstants:
    """One of the built-in systems: complex, dual, c3, p3-psi, h4-e, h4-psi."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ContractError(f"unknown algebra {name!r}; built-ins are {builtin_names()}") from None


def h4_basis_change() -> BasisChange:
    """The involutive H4 change from the e-basis to the componentwise psi-basis."""
    s = H4_E_TO_PSI_MATRIX.astype(float)
    return BasisChange(s, from_tag="h4-e", to_tag="h4-psi", s_inv=s / 4.0)


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------

def _number(value, what: str, integral: bool = False, shape: tuple = (), within: tuple = (-math.inf, math.inf)):
    """A finite JSON number in the closed range within, not a bool, and a whole one
    that int64 holds when integral (as an int); for a shape, nested lists of them of
    exactly that shape (None: any length), as a float or int array.  Anything else
    raises ContractError."""
    kind = "integer" if integral else "number"
    if not shape:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max and not (integral and value % 1):
            lo, hi = (max(within[0], -2 ** 63), min(within[1], 2 ** 63 - 1)) if integral else within
            if lo <= value <= hi:
                return int(value) if integral else float(value)
            raise ContractError(f"{what} must be in {lo}..{hi}, got {value!r}")
        raise ContractError(f"{what} must be a finite {kind}, got {value!r}")
    if isinstance(value, list) and shape[0] in (None, len(value)):
        return np.array([_number(v, f"{what}[{k}]", integral, shape[1:], within) for k, v in enumerate(value)],
                        dtype=int if integral else float)
    raise ContractError(f"{what} must be a list of shape {shape} of finite {kind}s, got {value!r}")


def algebra_from_dict(doc: dict) -> StructureConstants:
    """Build structure constants from a JSON-style document.

    Expected shape: {"n": int, "unit_index": int (optional), "name": str
    (optional), "entries": [{"k": int, "i": int, "j": int, "value": num}]},
    indices 1-based, unlisted entries zero; every number is read by _number.
    """
    if not isinstance(doc, dict):
        raise ContractError(f"an algebra document is an object, got {doc!r}")
    n = _number(doc.get("n"), "algebra document's n", integral=True, within=(1, _MAX_DIMENSION))
    p = np.zeros((n, n, n), dtype=float)
    for entry in doc.get("entries", []):
        if not (isinstance(entry, dict) and {"k", "i", "j", "value"} <= entry.keys()):
            raise ContractError(f"malformed entry {entry!r}")
        k, i, j = (_number(entry[key], f"entry {key}", integral=True, within=(1, n)) for key in "kij")
        p[k - 1, i - 1, j - 1] = _number(entry["value"], "entry value")
    unit_index = None
    if "unit_index" in doc:
        unit_index = _number(doc["unit_index"], "unit_index", integral=True, within=(1, n)) - 1
    return StructureConstants(p, unit_index=unit_index, basis_tag=doc.get("name", "custom"))


def load_algebra(path) -> StructureConstants:
    """Load an algebra document from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_dict(json.load(fh))
