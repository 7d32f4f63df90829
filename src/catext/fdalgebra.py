"""Finite-dimensional associative unital algebras by structure constants.

An algebra is its non-zero structure constants, arrays (i, j, l, c) in C
order with e_i e_j = sum_l c[i, j, l] e_l, plus a unit coefficient vector;
in a category algebra each e_f e_g is one basis element or 0, so nothing
stores the dim^3 tensor.  Products, multiplication matrices and the law
checks are sparse products with the constants.  Modules store one dense
action matrix per basis element of the algebra; bimodules store two
commuting families.  All fixtures (group algebras, dual numbers, category
algebras, trivial extensions) are generated into this one uniform shape so
that validation and the resolution machinery never special-case.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import cached_property
from itertools import product as iproduct
from math import prod
from typing import NamedTuple

import numpy as np

from .exactlin import FieldSpec
from .validation import Report

BLOCK_TERMS = 1 << 18  # product terms per block of a stacked product with constants


class Projectives(NamedTuple):
    """The projectives P_e = eA of `FDAlgebra.projectives`.  Position s < len(heads)
    is the idempotent basis element heads[s], and position len(heads) is the
    unit, for A = P_1 itself."""
    heads: np.ndarray
    spans: tuple  # spans[s]: the increasing basis elements J_e that span eA
    idempotents: np.ndarray  # row s: the coefficients of the idempotent at s


@dataclass(eq=False)
class FDAlgebra:
    field: FieldSpec
    dim: int
    constants: tuple  # (i, j, l, c): the non-zero c[i, j, l]
    unit: np.ndarray  # (dim,)
    basis_labels: tuple = ()
    name: str = ""

    def __post_init__(self):
        d = self.dim
        ijl = np.array(self.constants[:3], dtype=np.int64).reshape(3, -1)
        c = self.field.array(self.constants[3]).reshape(-1)
        if self.unit.shape != (d,) or c.shape != ijl.shape[1:] or ((ijl < 0) | (ijl >= d)).any():
            raise ValueError("unit or structure constants of the wrong shape or out of range")
        key = (ijl[0] * d + ijl[1]) * d + ijl[2]
        order = np.argsort(key, kind="stable")
        key = key[order]
        if (key[1:] == key[:-1]).any():
            raise ValueError("repeated structure constant (i, j, l)")
        order = order[np.nonzero(c[order])[0]]  # C order, zeros dropped
        self.constants = (*ijl[:, order], c[order])
        for x in self.constants:
            x.flags.writeable = False
        self.basis_labels = self.basis_labels or tuple(range(d))

    @cached_property
    def structure(self) -> np.ndarray:
        """Read-only dense c[i, j, l], built on first use; for tests and scripts."""
        out = self.field.zeros(self.dim, self.dim, self.dim)
        out[self.constants[:3]] = self.constants[3]
        out.flags.writeable = False
        return out

    @cached_property
    def projectives(self) -> Projectives:
        """The right ideals P_e = eA read off the constants (`Projectives`).
        The heads are the basis elements e with e in J_e and e e_l = e_l for
        every l in J_e = {l : c[e, j, l] != 0 for some j} (so e e = e), by
        |J_e| and then by e.  eA is a summand of A = eA + (1 - e)A, so it is
        projective, and Hom_A(eA, M) = M e.  In a category algebra the heads
        are the idempotent morphisms, J_e the morphisms e o g, and the 1_x
        the identities."""
        k, d = self.field, self.dim
        i, j, l, c = self.constants
        pair = i * d + j  # sorted: the constants are in C order
        step = np.ones(len(pair) + 1, bool)  # a pair starts or ends at step[t]
        step[1:-1] = pair[1:] != pair[:-1]
        keeps = pair[step[:-1] & step[1:] & (l == j) & (c == k.one)]  # e_i e_j = e_j
        keep, found = set(keeps.tolist()), []
        rows, ls = np.searchsorted(i, np.arange(d + 1)).tolist(), l.tolist()  # row e from rows[e]
        for e in (keeps[keeps % (d + 1) == 0] // (d + 1)).tolist():  # e e = e
            span = sorted(set(ls[rows[e]:rows[e + 1]]))
            if all(e * d + x in keep for x in span):
                found.append((len(span), e, span))
        found.sort()
        heads = np.array([e for _, e, _ in found], np.int64)
        idempotents = k.zeros(len(heads) + 1, d)
        idempotents[np.arange(len(heads)), heads] = k.one
        idempotents[-1] = self.unit
        return Projectives(heads, (*(np.array(s, np.int64) for _, _, s in found), np.arange(d)),
                           idempotents)

    @cached_property
    def projective_actions(self) -> tuple:
        """For each position s of `projectives`, with J = spans[s], the
        constants c[i, j, l] with i and l in J, as (rows, cols, vals) for
        `FieldSpec.sparse_matmul` into d |J| rows: row j |J| + (position of l
        in J) and column (position of i in J).  Applied to elements x of P_e
        written on J, they give the x e_j written on J, and nothing of size
        d^2 is built.  Built on first use, once per algebra."""
        i, j, l, c = self.constants
        out = []
        for span in self.projectives.spans:
            at = np.full(self.dim, -1)  # the position of each basis element in J
            at[span] = np.arange(len(span))
            keep = (at[i] >= 0) & (at[l] >= 0)
            out.append((j[keep] * len(span) + at[l[keep]], at[i[keep]], c[keep]))
        return tuple(out)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of two coefficient vectors, or element by element of two
        stacks of them that broadcast against each other: one sparse product
        summing c[i, j, l] a_i b_j into l."""
        k = self.field
        i, j, l, c = self.constants
        terms = k.reduce(a[..., i] * b[..., j])
        out = k.sparse_matmul(l, np.arange(len(l)), c, self.dim,
                              terms.reshape(prod(terms.shape[:-1]), len(l)).T)
        return out.T.reshape(*terms.shape[:-1], self.dim)

    def right_mult_matrix(self, a: np.ndarray) -> np.ndarray:
        """Matrix of x -> x a on the algebra itself; column i is e_i a.  For a
        (dim, m) matrix a, the matrices of its m columns along a last axis."""
        i, j, l, c = self.constants
        d = self.dim
        x = a.reshape(d, 1) if a.ndim == 1 else a
        return self.field.sparse_matmul(l * d + i, j, c, d * d, x).reshape(d, *a.shape)

    def left_mult_matrix(self, a: np.ndarray) -> np.ndarray:
        """Matrix of x -> a x on the algebra itself; column j is a e_j.  For a
        (dim, m) matrix a, the matrices of its m columns along a last axis."""
        i, j, l, c = self.constants
        d = self.dim
        x = a.reshape(d, 1) if a.ndim == 1 else a
        return self.field.sparse_matmul(l * d + j, i, c, d * d, x).reshape(d, *a.shape)

    def elements(self):
        """All elements as int tuples (prime field only)."""
        return self.field.vectors(self.dim)


def basis_products(k: FieldSpec, triples) -> tuple:
    """Constants of e_i e_j = e_l for each (i, j, l) of triples, all else 0."""
    i, j, l = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    return i, j, l, [k.one] * len(i)


def join_constants(blocks: list) -> tuple:
    """One set of constants (i, j, l, c) from blocks of them."""
    return tuple(np.concatenate([np.zeros(0, dtype=np.int64)]
                                + [np.ravel(b[t]) for b in blocks]) for t in range(4))


def _law_failures(a: FDAlgebra, mats: list, right: bool):
    """Yield (i, j, bad) for the basis pairs where sum_l c[i,j,l] M_l differs
    from M_i M_j (M_j M_i if right), bad marking the differing entries.  One
    sparse and one stacked product per i, so memory stays dim * n^2."""
    k, d = a.field, a.dim
    i, j, l, c = a.constants
    stack = np.asarray(mats)
    bounds = np.searchsorted(i, np.arange(d + 1))
    for s in range(d):
        part = slice(bounds[s], bounds[s + 1])
        lhs = k.sparse_matmul(j[part], l[part], c[part], d, stack.reshape(d, -1))
        rhs = k.matmul(stack, stack[s]) if right else k.matmul(stack[s], stack)
        bad = lhs.reshape(stack.shape) != rhs
        for t in np.nonzero(bad.reshape(d, -1).any(axis=1))[0]:
            yield s, t, bad[t]


def validate_algebra(a: FDAlgebra) -> Report:
    """Associativity on all basis triples, as the law of the left regular
    representation x -> e_i x, and two-sided unit on the basis."""
    rep = Report()
    labels = a.basis_labels
    eye = a.field.eye(a.dim)
    regular = a.left_mult_matrix(eye).transpose(2, 0, 1)  # [i]: x -> e_i x
    for i, j, bad in _law_failures(a, regular, right=False):
        rep.add("associativity", "(e_i e_j) e_l != e_i (e_j e_l)",
                i=labels[i], j=labels[j], l=labels[np.nonzero(bad.any(axis=0))[0][0]])
    units = np.broadcast_to(a.unit, eye.shape)
    for j, (left, right) in enumerate(zip(a.mul(units, eye) != eye, a.mul(eye, units) != eye)):
        if left.any():
            rep.add("unit", "unit * e_j != e_j", j=labels[j])
        if right.any():
            rep.add("unit", "e_j * unit != e_j", j=labels[j])
    return rep


def opposite_algebra(a: FDAlgebra) -> FDAlgebra:
    """Structure constants with the first two slots swapped; involutive."""
    i, j, l, c = a.constants
    return FDAlgebra(field=a.field, dim=a.dim, constants=(j, i, l, c),
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
    """Unit, and multiplicativity on all basis pairs in blocks of <= BLOCK_TERMS product terms."""
    rep = Report()
    k = h.source.field
    if h.matrix.shape != (h.target.dim, h.source.dim):
        rep.add("shape", "hom matrix has wrong shape", shape=h.matrix.shape)
        return rep
    if not k.equal(h.apply(h.source.unit), h.target.unit):
        rep.add("unit", "h(1) != 1")
    d, labels = h.source.dim, h.source.basis_labels
    i, j, l, c = h.source.constants
    pairs, images = i * d + j, h.matrix.T  # sorted by C order; row s of images is h(e_s)
    size = max(1, BLOCK_TERMS // max(1, len(h.target.constants[0]), h.target.dim))
    for s in range(0, d * d, size):
        r = np.arange(s, min(d * d, s + size))  # the pairs (e_{r // d}, e_{r % d})
        part = slice(*np.searchsorted(pairs, [s, s + size]))
        lhs = k.sparse_matmul(pairs[part] - s, l[part], c[part], len(r), images)
        for t in r[np.any(lhs != h.target.mul(images[r // d], images[r % d]), axis=1)]:
            rep.add("multiplicative", "h(e_i e_j) != h(e_i) h(e_j)",
                    i=labels[t // d], j=labels[t % d])
    return rep


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
        """Matrix of v -> v . a for an algebra element a; for a stack of them
        (..., dim), the stack (..., n, n) of their matrices."""
        return _combine(self.algebra.field, a_vec, self.right_action, self.dim)

    def left_of(self, a_vec: np.ndarray) -> np.ndarray:
        """Matrix of v -> a . v for an algebra element a; for a stack of them
        (..., dim), the stack (..., n, n) of their matrices."""
        return _combine(self.algebra.field, a_vec, self.left_action, self.dim)


def _combine(k: FieldSpec, coeffs: np.ndarray, mats: list, n: int) -> np.ndarray:
    """sum_i coeffs[..., i] mats[i] for n x n matrices: one product of the
    coefficient stack with the stack of the flattened matrices."""
    stack = np.array(mats, dtype=k.dtype).reshape(len(mats), n * n)
    return k.matmul(coeffs, stack).reshape(*coeffs.shape[:-1], n, n)


def validate_module(m: AlgModule) -> Report:
    rep = Report()
    a = m.algebra
    k = a.field
    labels = a.basis_labels
    laws = [law for law in (("right", m.right_action, m.right_of, "v.(e_i e_j) != (v.e_i).e_j"),
                            ("left", m.left_action, m.left_of, "(e_i e_j).v != e_i.(e_j.v)"))
            if m.side in (law[0], "bi")]
    for side, mats, _, _ in laws:
        if len(mats) != a.dim:
            rep.add("shape", f"{side} action family has wrong length")
            return rep
    for side, mats, _, _ in laws:
        for i, mat in enumerate(mats):
            if mat.shape != (m.dim, m.dim):
                rep.add("shape", f"{side} action matrix has wrong shape", i=labels[i])
                return rep
    for side, mats, action_of, message in laws:
        for i, j, _ in _law_failures(a, mats, right=side == "right"):
            rep.add(f"{side}-action", message, i=labels[i], j=labels[j])
        if not k.equal(action_of(a.unit), k.eye(m.dim)):
            rep.add("unit", f"{side} action of unit is not identity")
    if m.side == "bi":
        rights = np.asarray(m.right_action)
        for i, lam in enumerate(m.left_action):
            bad = k.matmul(lam, rights) != k.matmul(rights, lam)
            for j in np.nonzero(bad.reshape(a.dim, -1).any(axis=1))[0]:
                rep.add("bimodule", "left and right actions do not commute",
                        i=labels[i], j=labels[j])
    return rep


def free_module(a: FDAlgebra, rank: int, side: str = "right") -> AlgModule:
    """Direct sum of rank copies of the regular representation; only the
    actions of the requested side are built."""
    if rank < 0:
        raise ValueError("rank must be >= 0")
    if side not in ("left", "right", "bi"):
        raise ValueError(f"unknown side {side!r}")

    def actions(mult):
        # [i]: rank copies down the diagonal of the action of e_i on a
        return list(np.kron(a.field.eye(rank), mult(a.field.eye(a.dim)).transpose(2, 0, 1)))
    right = actions(a.right_mult_matrix) if side != "left" else []
    left = actions(a.left_mult_matrix) if side != "right" else []
    return AlgModule(a, rank * a.dim, side, right_action=right, left_action=left)


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
    blocks = [lam.constants]
    for i, (lam_i, rho_i) in enumerate(zip(m.left_action, m.right_action)):
        # e_i m_j = sum_l (lam_i)[l, j] m_l and m_j e_i = sum_l (rho_i)[l, j] m_l
        l, j = np.nonzero(lam_i)
        blocks.append((np.full(len(j), i), d + j, d + l, lam_i[l, j]))
        l, j = np.nonzero(rho_i)
        blocks.append((d + j, np.full(len(j), i), d + l, rho_i[l, j]))
    unit = k.zeros(dim)
    unit[:d] = lam.unit
    labels = tuple(("a", l) for l in lam.basis_labels) + tuple(("m", j) for j in range(n))
    return FDAlgebra(field=k, dim=dim, constants=join_constants(blocks), unit=unit,
                     basis_labels=labels,
                     name=f"{lam.name}|x|M" if lam.name else "trivial-extension")


def field_algebra(k: FieldSpec) -> FDAlgebra:
    unit = k.zeros(1)
    unit[0] = k.one
    return FDAlgebra(field=k, dim=1, constants=basis_products(k, [(0, 0, 0)]), unit=unit,
                     basis_labels=("1",), name="k")


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
    products = [(index[g], index[h],
                 index[tuple((gi + hi) % n for gi, hi, n in zip(g, h, orders))])
                for g in elems for h in elems]
    unit = k.zeros(d)
    unit[index[tuple(0 for _ in orders)]] = k.one
    return FDAlgebra(field=k, dim=d, constants=basis_products(k, products), unit=unit,
                     basis_labels=tuple(elems),
                     name="k[" + "x".join(f"Z/{n}" for n in orders) + "]")


def upper_triangular_algebra(n: int, k: FieldSpec) -> FDAlgebra:
    """n x n upper triangular matrices with the E_ij basis (i <= j)."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {p: t for t, p in enumerate(pairs)}
    d = len(pairs)
    products = [(index[(i, j)], index[(a, b)], index[(i, b)])
                for (i, j) in pairs for (a, b) in pairs if j == a]
    unit = k.zeros(d)
    for i in range(n):
        unit[index[(i, i)]] = k.one
    return FDAlgebra(field=k, dim=d, constants=basis_products(k, products), unit=unit,
                     basis_labels=tuple(pairs), name=f"UT({n})")
