"""Finite-dimensional associative unital algebras by structure constants.

An algebra is a tensor c[i, j, l] with e_i e_j = sum_l c[i, j, l] e_l plus a
unit coefficient vector.  Modules store one dense action matrix per basis
element of the algebra; bimodules store two commuting families.  All fixtures
(group algebras, dual numbers, category algebras, trivial extensions) are
generated into this one uniform shape so that validation and the resolution
machinery never special-case.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import cached_property
from itertools import product as iproduct

import numpy as np

from .exactlin import FieldSpec
from .validation import Report


@dataclass(eq=False)
class FDAlgebra:
    field: FieldSpec
    dim: int
    structure: np.ndarray  # (dim, dim, dim)
    unit: np.ndarray  # (dim,)
    basis_labels: tuple = ()
    name: str = ""

    def __post_init__(self):
        if self.structure.shape != (self.dim, self.dim, self.dim):
            raise ValueError("structure tensor shape mismatch")
        if self.unit.shape != (self.dim,):
            raise ValueError("unit vector shape mismatch")
        if not self.basis_labels:
            self.basis_labels = tuple(range(self.dim))

    @cached_property
    def constants(self) -> tuple:
        """The non-zero structure constants c[i, j, l] as arrays (i, j, l, c) in
        C order, kept after first use: the tensor must not change."""
        i, j, l = np.nonzero(self.structure)
        return i, j, l, self.structure[i, j, l]

    def _left_contract(self, a: np.ndarray) -> np.ndarray:
        """(j, l) -> coefficient of e_l in a e_j: the slices structure[i]
        summed over the non-zero coefficients of a."""
        return _combine(self.field, a, self.structure, self.dim)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of two coefficient vectors."""
        return self.field.matmul(b, self._left_contract(a))

    def right_mult_matrix(self, a: np.ndarray) -> np.ndarray:
        """Matrix of x -> x a on the algebra itself; column i is e_i a, and
        for a = e_j this is the slice structure[:, j, :].T."""
        return _combine(self.field, a, np.swapaxes(self.structure, 0, 1), self.dim).T

    def left_mult_matrix(self, a: np.ndarray) -> np.ndarray:
        """Matrix of x -> a x on the algebra itself."""
        return self._left_contract(a).T

    def basis_vector(self, i: int) -> np.ndarray:
        v = self.field.zeros(self.dim)
        v[i] = self.field.one
        return v

    def elements(self):
        """All elements as int tuples (prime field only)."""
        return self.field.vectors(self.dim)


def validate_algebra(a: FDAlgebra) -> Report:
    """Associativity on all basis triples and two-sided unit on the basis."""
    rep = Report()
    k = a.field
    c = a.structure
    for i in range(a.dim):
        for j in range(a.dim):
            # (e_i e_j) e_l = sum_m c[i,j,m] c[m,l,:]
            lhs = a._left_contract(c[i, j])
            # e_i (e_j e_l) = sum_m c[j,l,m] c[i,m,:]
            rhs = k.matmul(c[j], c[i])
            if not k.equal(lhs, rhs):
                bad = next((l for l in range(a.dim) if not k.equal(lhs[l], rhs[l])), None)
                rep.add("associativity", "(e_i e_j) e_l != e_i (e_j e_l)",
                        i=a.basis_labels[i], j=a.basis_labels[j],
                        l=None if bad is None else a.basis_labels[bad])
    for j in range(a.dim):
        ej = a.basis_vector(j)
        if not k.equal(a.mul(a.unit, ej), ej):
            rep.add("unit", "unit * e_j != e_j", j=a.basis_labels[j])
        if not k.equal(a.mul(ej, a.unit), ej):
            rep.add("unit", "e_j * unit != e_j", j=a.basis_labels[j])
    return rep


def opposite_algebra(a: FDAlgebra) -> FDAlgebra:
    """Structure constants transposed in the first two slots; involutive."""
    return FDAlgebra(field=a.field, dim=a.dim,
                     structure=np.array(np.swapaxes(a.structure, 0, 1), copy=True),
                     unit=np.array(a.unit, copy=True),
                     basis_labels=a.basis_labels,
                     name=f"{a.name}^op" if a.name else "op")


@dataclass(eq=False)
class AlgHom:
    source: FDAlgebra
    target: FDAlgebra
    matrix: np.ndarray  # (dim target, dim source)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.source.field.matmul(self.matrix, v)


def validate_hom(h: AlgHom) -> Report:
    rep = Report()
    k = h.source.field
    if h.matrix.shape != (h.target.dim, h.source.dim):
        rep.add("shape", "hom matrix has wrong shape", shape=h.matrix.shape)
        return rep
    if not k.equal(h.apply(h.source.unit), h.target.unit):
        rep.add("unit", "h(1) != 1")
    for i in range(h.source.dim):
        for j in range(h.source.dim):
            lhs = h.apply(h.source.mul(h.source.basis_vector(i), h.source.basis_vector(j)))
            rhs = h.target.mul(h.matrix[:, i], h.matrix[:, j])
            if not k.equal(lhs, rhs):
                rep.add("multiplicative", "h(e_i e_j) != h(e_i) h(e_j)",
                        i=h.source.basis_labels[i], j=h.source.basis_labels[j])
    return rep


def identity_hom(a: FDAlgebra) -> AlgHom:
    return AlgHom(a, a, a.field.eye(a.dim))


@dataclass(eq=False)
class AlgModule:
    """Module over an FDAlgebra given by per-basis-element action matrices.

    Right action: v . e_i = right_action[i] @ v, so the right module law
    reads  sum_l c[i,j,l] rho_l = rho_j rho_i.  Left action is a genuine
    representation: sum_l c[i,j,l] lam_l = lam_i lam_j.
    """

    algebra: FDAlgebra
    dim: int
    side: str  # "left" | "right" | "bi"
    right_action: list = dfield(default_factory=list)
    left_action: list = dfield(default_factory=list)

    def right_of(self, a_vec: np.ndarray) -> np.ndarray:
        """Matrix of v -> v . a for an algebra element a."""
        return _combine(self.algebra.field, a_vec, self.right_action, self.dim)

    def left_of(self, a_vec: np.ndarray) -> np.ndarray:
        return _combine(self.algebra.field, a_vec, self.left_action, self.dim)


def _combine(k: FieldSpec, coeffs: np.ndarray, mats: list, n: int) -> np.ndarray:
    """sum_i coeffs[i] mats[i] for n x n matrices, as one kernel product over
    the non-zero coefficients."""
    nz = np.nonzero(coeffs)[0]
    if not len(nz):
        return k.zeros(n, n)
    stacked = np.stack([mats[i] for i in nz]).reshape(len(nz), n * n)
    return k.matmul(coeffs[nz], stacked).reshape(n, n)


def validate_module(m: AlgModule) -> Report:
    rep = Report()
    a = m.algebra
    k = a.field
    c = a.structure
    has_right = m.side in ("right", "bi")
    has_left = m.side in ("left", "bi")
    if has_right and len(m.right_action) != a.dim:
        rep.add("shape", "right action family has wrong length")
        return rep
    if has_left and len(m.left_action) != a.dim:
        rep.add("shape", "left action family has wrong length")
        return rep
    for fam, nm in ((m.right_action if has_right else [], "right"),
                    (m.left_action if has_left else [], "left")):
        for i, mat in enumerate(fam):
            if mat.shape != (m.dim, m.dim):
                rep.add("shape", f"{nm} action matrix has wrong shape", i=a.basis_labels[i])
                return rep
    if has_right:
        for i in range(a.dim):
            for j in range(a.dim):
                if not k.equal(_combine(k, c[i, j], m.right_action, m.dim),
                               k.matmul(m.right_action[j], m.right_action[i])):
                    rep.add("right-action", "v.(e_i e_j) != (v.e_i).e_j",
                            i=a.basis_labels[i], j=a.basis_labels[j])
        if not k.equal(m.right_of(a.unit), k.eye(m.dim)):
            rep.add("unit", "right action of unit is not identity")
    if has_left:
        for i in range(a.dim):
            for j in range(a.dim):
                if not k.equal(_combine(k, c[i, j], m.left_action, m.dim),
                               k.matmul(m.left_action[i], m.left_action[j])):
                    rep.add("left-action", "(e_i e_j).v != e_i.(e_j.v)",
                            i=a.basis_labels[i], j=a.basis_labels[j])
        if not k.equal(m.left_of(a.unit), k.eye(m.dim)):
            rep.add("unit", "left action of unit is not identity")
    if m.side == "bi":
        for i in range(a.dim):
            for j in range(a.dim):
                if not k.equal(k.matmul(m.left_action[i], m.right_action[j]),
                               k.matmul(m.right_action[j], m.left_action[i])):
                    rep.add("bimodule", "left and right actions do not commute",
                            i=a.basis_labels[i], j=a.basis_labels[j])
    return rep


def free_module(a: FDAlgebra, rank: int, side: str = "right") -> AlgModule:
    """Direct sum of rank copies of the regular representation; only the
    actions of the requested side are built."""
    if rank < 0:
        raise ValueError("rank must be >= 0")
    if side not in ("left", "right", "bi"):
        raise ValueError(f"unknown side {side!r}")
    k = a.field
    d = a.dim
    n = rank * d
    def actions(slices):
        # slices[i].T is the multiplication matrix of e_i
        out = []
        for i in range(d):
            block = k.zeros(n, n)
            for t in range(rank):
                block[t * d:(t + 1) * d, t * d:(t + 1) * d] = slices[i].T
            out.append(block)
        return out
    right = actions(np.swapaxes(a.structure, 0, 1)) if side != "left" else []
    left = actions(a.structure) if side != "right" else []
    return AlgModule(a, n, side, right_action=right, left_action=left)


def regular_bimodule(a: FDAlgebra) -> AlgModule:
    return free_module(a, 1, side="bi")


def zero_module(a: FDAlgebra, side: str = "right") -> AlgModule:
    empty = [a.field.zeros(0, 0) for _ in range(a.dim)]
    if side == "right":
        return AlgModule(a, 0, "right", right_action=empty)
    if side == "left":
        return AlgModule(a, 0, "left", left_action=empty)
    return AlgModule(a, 0, "bi", right_action=empty, left_action=list(empty))


def trivial_extension(lam: FDAlgebra, m: AlgModule) -> FDAlgebra:
    """Square-zero extension Lambda (+) M with (a1,m1)(a2,m2) = (a1a2, a1m2 + m1a2)."""
    if m.side != "bi":
        raise ValueError("trivial extension needs a bimodule")
    if m.algebra.dim != lam.dim or m.algebra.field != lam.field:
        raise ValueError("bimodule is not over the given algebra")
    k = lam.field
    d, n = lam.dim, m.dim
    dim = d + n
    c = k.zeros(dim, dim, dim)
    c[:d, :d, :d] = lam.structure
    for i in range(d):
        # algebra basis e_i times module basis m_j: left action
        c[i, d:, d:] = m.left_action[i].T  # c[i, d+j, d+l] = (lam_i)[l, j]
        # module basis m_j times algebra basis e_i: right action
        c[d:, i, d:] = m.right_action[i].T
    unit = k.zeros(dim)
    unit[:d] = lam.unit
    labels = tuple(("a", l) for l in lam.basis_labels) + tuple(("m", j) for j in range(n))
    return FDAlgebra(field=k, dim=dim, structure=c, unit=unit, basis_labels=labels,
                     name=f"{lam.name}|x|M" if lam.name else "trivial-extension")


def field_algebra(k: FieldSpec) -> FDAlgebra:
    c = k.zeros(1, 1, 1)
    c[0, 0, 0] = k.one
    unit = k.zeros(1)
    unit[0] = k.one
    return FDAlgebra(field=k, dim=1, structure=c, unit=unit, basis_labels=("1",), name="k")


def dual_numbers(k: FieldSpec) -> FDAlgebra:
    """k[e]/(e^2): the trivial extension of k by k."""
    alg = trivial_extension(field_algebra(k), regular_bimodule(field_algebra(k)))
    alg.basis_labels = ("1", "e")
    alg.name = "k[e]/(e^2)"
    return alg


def group_algebra(orders: list[int], k: FieldSpec) -> FDAlgebra:
    """Group algebra of a product of cyclic groups Z/n1 x ... x Z/nr."""
    if any(n < 1 for n in orders):
        raise ValueError("cyclic orders must be >= 1")
    elems = [t for t in iproduct(*(range(n) for n in orders))]
    index = {g: i for i, g in enumerate(elems)}
    d = len(elems)
    c = k.zeros(d, d, d)
    for g in elems:
        for h in elems:
            s = tuple((gi + hi) % n for gi, hi, n in zip(g, h, orders))
            c[index[g], index[h], index[s]] = k.one
    unit = k.zeros(d)
    unit[index[tuple(0 for _ in orders)]] = k.one
    return FDAlgebra(field=k, dim=d, structure=c, unit=unit,
                     basis_labels=tuple(elems),
                     name="k[" + "x".join(f"Z/{n}" for n in orders) + "]")


def upper_triangular_algebra(n: int, k: FieldSpec) -> FDAlgebra:
    """n x n upper triangular matrices with the E_ij basis (i <= j)."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {p: t for t, p in enumerate(pairs)}
    d = len(pairs)
    c = k.zeros(d, d, d)
    for (i, j) in pairs:
        for (a, b) in pairs:
            if j == a:
                c[index[(i, j)], index[(a, b)], index[(i, b)]] = k.one
    unit = k.zeros(d)
    for i in range(n):
        unit[index[(i, i)]] = k.one
    return FDAlgebra(field=k, dim=d, structure=c, unit=unit,
                     basis_labels=tuple(pairs), name=f"UT({n})")
