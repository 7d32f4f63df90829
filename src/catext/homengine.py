"""Modules over finite categories, projective resolutions, Ext and cohomology.

Three independent routes to the same numbers are implemented and cross-checked
in the test suite:

  * resolution route: convert a contravariant functor to a right module over
    the category algebra A, resolve it by sums of projectives P_e = eA, one
    for each generator g with e the idempotent basis element of smallest
    P_e that fixes g (A = P_1 when none does), and take Ext as cohomology of
    the Hom complex, where Hom(P_e, M) = M e (Mitchell, "Rings with several
    objects", 1972; Webb, "An introduction to the representations and
    cohomology of categories", 2007).  A module pulled back from a base
    category is resolved at the base's size this way;
  * nerve route: the simplicial cochain complex on composable chains;
  * bar route: normalized bar cochains of a one-object category whose
    morphisms form an abelian group, indexed by arithmetic on the positions
    of its morphisms; this module is the only one that knows that layout, and
    the route stays independent of the nerve route.

The fiber subquotients of the LHS engine (`bar_subquotients`) take ker d^q
on the rows of d^q whose first entry lies in a generating set S that the
caller supplies: the builder of a group names one
(`coeffsys.abelian_group_generators`), so none is searched for.  If S
generates the group G, a normalized q-cochain f is a cocycle iff
(df)(s, h) = 0 for every s in S and every q-tuple h.  Proof: D = df has
dD = 0, and the first two faces of (dD)(a, b, h) give D(ab, h) = a.D(b, h)
+ (faces whose first entry is a).  Every element of a finite group is a
positive word in S, so induction on the length of g = s g' shows
D(g, h) = 0 for all g (a tuple with an identity entry carries no cochain).
Those rows are |S| / (|G| - 1) of d^q; they span its row space, and the
rref is unique, so the kernel basis is the one all rows give.
`bar_cochain_complex` and its cohomology keep every row and stay the
independent oracle.

Degree caps are explicit everywhere; nothing is computed to unbounded degree.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .exactlin import Echelon, FieldSpec, Matrix, kernel_basis, rank, rref
from .fdalgebra import AlgModule, FDAlgebra
from .fincat import (CatFunctor, FinCategory, functor_failures, linearize, nerve_chains,
                     validate_category)
from .validation import Report


# -- modules over a category ---------------------------------------------------

@dataclass(eq=False)
class CatModule:
    """Contravariant functor to k-spaces: for f: x -> y a matrix
    F(f): F(y) -> F(x), with F(fg) = F(f) @ F(g)."""

    cat: FinCategory
    field: FieldSpec
    dims: dict  # ObjId -> int
    mats: dict  # MorId -> ndarray
    name: str = ""

    def on(self, f) -> np.ndarray:
        return self.mats[f]


def validate_cat_module(m: CatModule) -> Report:
    """A damaged category's own violations; else the shapes, then the functor laws."""
    rep = validate_category(m.cat)
    if not rep.ok:
        return rep
    for f, (x, y) in m.cat.mor.items():
        mat = m.mats.get(f)
        if mat is None or mat.shape != (m.dims[x], m.dims[y]):
            rep.add("shape", "matrix missing or mis-shaped", f=f)
    if not rep.ok:
        return rep
    objects, pairs = functor_failures(m.cat, m.field, m.mats, contravariant=True)
    for x in objects:
        rep.add("functor", "F(1_x) != id", object=x)
    for f, g in pairs:
        rep.add("functor", "F(fg) != F(f) F(g)", f=f, g=g)
    return rep


def constant_module(c: FinCategory, k: FieldSpec) -> CatModule:
    one = k.eye(1)
    return CatModule(c, k, {x: 1 for x in c.objects},
                     {f: np.array(one, copy=True) for f in c.mor}, name="k")


def representable_module(c: FinCategory, k: FieldSpec, y0) -> CatModule:
    """Linearized Hom(-, y0); the projective right module at y0."""
    hom = {x: c.hom(x, y0) for x in c.objects}
    idx = {x: {u: i for i, u in enumerate(hom[x])} for x in c.objects}
    dims = {x: len(hom[x]) for x in c.objects}
    mats = {}
    for f, (x, y) in c.mor.items():
        mat = k.zeros(dims[x], dims[y])
        for u in hom[y]:
            mat[idx[x][c.then(f, u)], idx[y][u]] = k.one
        mats[f] = mat
    return CatModule(c, k, dims, mats, name=f"Hom(-,{y0})")


def restrict(g: CatModule, pi: CatFunctor) -> CatModule:
    """Pull a module on the target of pi back to its source."""
    if g.cat is not pi.target and set(g.cat.mor) != set(pi.target.mor):
        raise ValueError("module is not over the functor target")
    c = pi.source
    dims = {x: g.dims[pi.on_obj(x)] for x in c.objects}
    mats = {f: np.array(g.on(pi.on_mor(f)), copy=True) for f in c.mor}
    return CatModule(c, g.field, dims, mats, name=f"Res({g.name})" if g.name else "Res")


def to_algebra_module(f: CatModule, algebra: FDAlgebra) -> AlgModule:
    """Right module over algebra = linearize(f.cat): the morphism basis
    element h routes the cod(h)-component through F(h) into the
    dom(h)-component."""
    c = f.cat
    k = f.field
    if tuple(algebra.basis_labels) != tuple(c.mor):
        raise ValueError("algebra basis does not enumerate the category morphisms")
    offs = {}
    total = 0
    for x in c.objects:
        offs[x] = total
        total += f.dims[x]
    action = []
    for h in c.mor:
        x, y = c.mor[h]
        mat = k.zeros(total, total)
        if f.dims[x] and f.dims[y]:
            mat[offs[x]:offs[x] + f.dims[x], offs[y]:offs[y] + f.dims[y]] = f.on(h)
        action.append(mat)
    return AlgModule(algebra, total, "right", right_action=action)


def hom_space_dim(g: AlgModule, f: AlgModule) -> int:
    """dim Hom_A(g, f) by solving the commuting linear system directly."""
    if g.side != "right" or f.side != "right":
        raise ValueError("hom spaces implemented for right modules")
    k = g.algebra.field
    ng, nf = g.dim, f.dim
    if ng == 0 or nf == 0:
        return 0
    rows = []
    eyeg = k.eye(ng)
    eyef = k.eye(nf)
    for i in range(g.algebra.dim):
        block = np.kron(f.right_action[i], eyeg) - np.kron(eyef, g.right_action[i].T)
        rows.append(k.reduce(block))
    system = Matrix(k, np.concatenate(rows, axis=0))
    return nf * ng - rank(system)


# -- generators and resolutions by idempotent projectives -----------------------

class _Stage(NamedTuple):
    """The right module sum_t P_{e_t} of a resolution stage, for P_e = eA of
    `FDAlgebra.projectives`: summand t sits on the coordinates t d + J_{e_t}
    of A^r, from offsets[t] on.  It holds no action matrices."""
    algebra: FDAlgebra
    summands: np.ndarray  # the position of each e_t in algebra.projectives
    offsets: tuple  # r + 1 ints
    coords: np.ndarray
    groups: tuple  # (s, the coordinates of the summands at s), for each s used

    @property
    def dim(self) -> int:
        return len(self.coords)


def _stage(algebra: FDAlgebra, summands: np.ndarray) -> _Stage:
    """The stage sum_t P_{e_t} for the positions summands of the e_t."""
    spans = algebra.projectives.spans
    tops = summands.tolist()
    sizes = [len(spans[s]) for s in tops]
    parts = [t * algebra.dim + spans[s] for t, s in enumerate(tops)]
    owner = np.repeat(summands, sizes)  # the position s of each coordinate's summand
    groups = tuple((s, np.flatnonzero(owner == s)) for s in sorted(set(tops)))
    return _Stage(algebra, summands, tuple(accumulate(sizes, initial=0)),
                  np.concatenate([np.zeros(0, np.int64), *parts]), groups)


def _act(mod, vec: np.ndarray) -> np.ndarray:
    """(d, dim mod) array whose row j is vec . e_j.  For a stage, the part
    of row j in summand t is x_t e_j, written on J_{e_t}: one sparse product
    with `FDAlgebra.projective_actions` for the summands of each P_e.  It has
    a term for each of those constants and summands, so in a category
    algebra, where e_i e_j is at most one basis element, nothing larger than
    the (d, dim mod) result is built.  Else one product with the stack of the
    action matrices.  These images span the submodule vec generates."""
    alg = mod.algebra
    k, d = alg.field, alg.dim
    if not isinstance(mod, _Stage):
        return k.matmul(np.stack(mod.right_action), vec)
    out = k.zeros(d, mod.dim)
    for s, at in mod.groups:
        rows, cols, vals = alg.projective_actions[s]
        n = len(alg.projectives.spans[s])
        prod = k.sparse_matmul(rows, cols, vals, d * n, vec[at].reshape(-1, n).T)
        out[:, at] = prod.reshape(d, n, -1).transpose(0, 2, 1).reshape(d, -1)
    return out


def module_generators(mod, span_rows: np.ndarray | None = None) -> tuple:
    """A small generating set g_0, g_1, ... of a right module (or of the
    submodule spanned by span_rows), found greedily and then pruned, each
    g_t covered by the first P_{e_t} = e_t A of `FDAlgebra.projectives` (the
    smallest) with g_t . e_t = g_t, A = P_1 last.  Returns the cover, the
    k-matrix of sum_t P_{e_t} -> mod, e_t -> g_t, whose columns are the
    g_t . e_l for l in J_{e_t}, and the positions of the e_t in `projectives`.

    The rows of span_rows (the identity for the whole module) are scanned in
    order and each one outside the span so far is picked; only that order and
    their number, the rank to reach, are read.  Each pick's images are kept
    for a drop pass of redundant picks.  If two or more are left, their sum,
    covered by the same rule, replaces them if it generates on a P_e smaller
    than theirs together.

    Over a category algebra a scanned row v has v . 1_x in {0, v} for every
    identity 1_x, so no row is split into object components: the 1_x project
    a stage's coordinates t d + J_e (e_l 1_x is e_l or 0), so the reduced
    row-echelon basis of a submodule K, unique and the one `free_resolution`
    scans, is the union of those of the K . 1_x; and at stage 0 the rows are
    unit vectors, on which a `to_algebra_module` module's 1_x are diagonal.
    Where the 1_x are not diagonal, A covers a row in no one component, as
    in a free resolution, and Ext stays exact.
    """
    alg = mod.algebra
    k = alg.field
    heads, spans, _ = alg.projectives
    basis_rows = k.eye(mod.dim) if span_rows is None else span_rows
    full_rank = len(basis_rows)

    def generate(blocks: list) -> bool:
        ech = Echelon(k, mod.dim)
        for block in blocks:  # a full rank stays full, so stop there
            ech.extend(block)
            if ech.rank == full_rank:
                return True
        return False

    def cover(gen: np.ndarray) -> tuple:
        """(gen, the position s of the first P_e with gen . e = gen, the gen . e_l for l in J_e)"""
        acted = _act(mod, gen)
        s = ((acted[heads] == gen).all(axis=1).tolist() + [True]).index(True)  # A fixes gen
        return gen, s, acted[spans[s]]

    picks = []
    ech = Echelon(k, mod.dim)
    for row in basis_rows:
        if ech.rank == full_rank:
            break
        if not ech.contains(row):
            picks.append(cover(row))
            ech.extend(picks[-1][2])
    if ech.rank != full_rank:
        raise AssertionError("generator search failed to span the module")

    # drop generators made redundant by later picks
    i = 0
    while i < len(picks) and len(picks) > 1:
        if generate([images for _, _, images in picks[:i] + picks[i + 1:]]):
            del picks[i]
        else:
            i += 1
    if len(picks) > 1:
        summed = cover(k.reduce(sum(g for g, _, _ in picks)))
        _, top, images = summed
        if len(spans[top]) < sum(len(spans[s]) for _, s, _ in picks) and generate([images]):
            picks = [summed]
    cover_matrix = np.concatenate([k.zeros(0, mod.dim), *(images for _, _, images in picks)]).T
    return np.ascontiguousarray(cover_matrix), np.array([s for _, s, _ in picks], np.int64)


@dataclass(eq=False)
class Resolution:
    """Sums of idempotent projectives P_0 <- P_1 <- ... <- P_L over
    `algebra`, augmented onto `module`: stages[i] is sum_t P_{e_t} on the
    generators `module_generators` found, and each map is the cover of the
    generators of its image, so boundaries[i] is the full k-linear matrix of
    P_{i+1} -> P_i.  A free resolution is the case where every e_t is 1."""

    algebra: FDAlgebra
    module: AlgModule
    stages: list  # of _Stage
    aug: np.ndarray  # (dim module, dim P_0)
    boundaries: list  # boundaries[i]: (dim P_i, dim P_{i+1})

    @property
    def ranks(self) -> list:
        """The number of summands of each stage."""
        return [len(s.summands) for s in self.stages]

    @property
    def length(self) -> int:
        return len(self.stages) - 1


STAGE_LIMIT = 1 << 24  # entries of a stage's kernel elimination, kernel and images


def _check_stage(cover: np.ndarray, d: int) -> None:
    """Refuse a stage whose kernel or generator search would pass
    STAGE_LIMIT entries: the cover is eliminated, its kernel has at most as
    many rows as the cover has columns, and each image block `_act` builds
    in the search of that kernel has d rows of that width."""
    rows, cols = max(*cover.shape, d), cover.shape[1]
    if rows * cols > STAGE_LIMIT:
        raise ValueError(f"resolution stage of {rows} x {cols} = {rows * cols} "
                         f"entries exceeds desk-scale limit {STAGE_LIMIT}")


def _check_module(algebra: FDAlgebra, mod: AlgModule, name: str) -> None:
    """Refuse mod unless it is a right module over algebra or an equal algebra
    (the same field, unit and structure constants, so the same dimension)."""
    b = mod.algebra
    if mod.side != "right" or b is not algebra and not (b.field == algebra.field and all(
            map(np.array_equal, (b.unit, *b.constants), (algebra.unit, *algebra.constants)))):
        raise ValueError(f"{name} is not a right module over the resolved algebra")


def free_resolution(algebra: FDAlgebra, module: AlgModule, length: int) -> Resolution:
    """Resolve by sums of idempotent projectives on generators
    (`module_generators`); exact at every computed stage.  Each stage's size
    is checked against STAGE_LIMIT before its kernel is taken."""
    _check_module(algebra, module, "module")
    cover, tops = module_generators(module)
    covers, stages = [cover], [_stage(algebra, tops)]
    for _ in range(length):
        _check_stage(covers[-1], algebra.dim)
        # rows end at their own columns, so reversed they are the reduced basis
        ker = kernel_basis(Matrix(algebra.field, covers[-1][:, ::-1]))[::-1, ::-1]
        cover, tops = module_generators(stages[-1], span_rows=ker)
        covers.append(cover)
        stages.append(_stage(algebra, tops))
    return Resolution(algebra, module, stages, covers[0], covers[1:])


def validate_resolution(res: Resolution) -> Report:
    rep = Report()
    k = res.algebra.field
    mats = [res.aug] + res.boundaries
    for i in range(len(mats) - 1):
        if mats[i].shape[1] != mats[i + 1].shape[0]:
            rep.add("shape", "boundary shapes do not chain", stage=i)
            return rep
        comp = k.matmul(mats[i], mats[i + 1])
        if not k.is_zero(comp):
            rep.add("dd", "consecutive boundaries do not compose to zero", stage=i)
    if rank(Matrix(k, res.aug)) != res.module.dim:
        rep.add("surjectivity", "augmentation is not onto the module")
    for i in range(len(mats) - 1):
        need = mats[i].shape[1] - rank(Matrix(k, mats[i]))
        have = rank(Matrix(k, mats[i + 1]))
        if need != have:
            rep.add("exactness", "image does not fill the kernel",
                    stage=i, kernel=need, image=have)
    return rep


def ext_dims_from_resolution(res: Resolution, f: AlgModule, max_n: int) -> list:
    """dim Ext^i for i <= max_n as cohomology of Hom(P_., f).

    Hom(P_e, f) = f . e = im rho(e), so the cochains C^i of stage i are
    sum_t f . e_t, of dimension sum_t rank rho(e_t), each rank taken once
    per e.  Generator u of stage i + 1 is read back from its columns of the
    cover as g_u = g_u . e_u, and D_i sends (phi_t)_t to
    (sum_t phi_t . (g_u)_t)_u, where (g_u)_t is the component of g_u in
    P_{e_t}.  Written on all of sum_t f, D_i vanishes off C^i, since
    (g_u)_t = e_t (g_u)_t gives rho((g_u)_t) = rho((g_u)_t) rho(e_t), and
    its image lies in C^(i+1).  So dim H^i = dim C^i - rank D_i - rank D_(i-1).
    The rho(e) and the blocks of every D_i come from one `right_of` call.
    """
    if res.length < max_n + 1:
        raise ValueError("resolution too short for the requested degree")
    _check_module(res.algebra, f, "coefficient module")
    alg = res.algebra
    k, d, nf = alg.field, alg.dim, f.dim
    _, spans, es = alg.projectives
    stages = res.stages[:max_n + 2]
    used = sorted(set().union(*(st.summands.tolist() for st in stages)))
    coeffs = [es[used]]
    for src, tgt, boundary in zip(stages, stages[1:], res.boundaries):
        read = k.zeros(tgt.dim, len(tgt.summands))  # column u: e_u on the coordinates of P_{e_u}
        for u, s in enumerate(tgt.summands.tolist()):
            read[tgt.offsets[u]:tgt.offsets[u + 1], u] = es[s, spans[s]]
        r_src, r_tgt = len(src.summands), len(tgt.summands)
        gens = k.zeros(r_src * d, r_tgt)
        gens[src.coords] = k.matmul(boundary, read)
        coeffs.append(gens.T.reshape(r_tgt * r_src, d))  # row (u, t): component t of g_u
    mats = f.right_of(np.concatenate(coeffs))
    cochains = {s: rank(Matrix(k, rho)) for s, rho in zip(used, mats)}
    dims = [sum(cochains[s] for s in st.summands.tolist()) for st in stages]
    ranks, at = [0], len(used)
    for src, tgt in zip(stages, stages[1:]):
        r_src, r_tgt = len(src.summands), len(tgt.summands)
        blocks = mats[at:at + r_tgt * r_src].reshape(r_tgt, r_src, nf, nf)
        at += r_tgt * r_src
        d_i = blocks.transpose(0, 2, 1, 3).reshape(r_tgt * nf, r_src * nf)
        ranks.append(rank(Matrix(k, d_i)) if d_i.size else 0)  # an empty D_i has rank 0
    return [dims[i] - ranks[i + 1] - ranks[i] for i in range(max_n + 1)]


def ext_dims(algebra: FDAlgebra, g: AlgModule, f: AlgModule, max_n: int) -> list:
    res = free_resolution(algebra, g, max_n + 1)
    return ext_dims_from_resolution(res, f, max_n)


# -- cochain complexes -----------------------------------------------------------

@dataclass(eq=False)
class CochainComplex:
    field: FieldSpec
    dims: list
    d: list  # d[q]: C^q -> C^{q+1}

    def validate(self) -> Report:
        rep = Report()
        for q, mat in enumerate(self.d):
            if mat.shape != (self.dims[q + 1], self.dims[q]):
                rep.add("shape", "differential shape mismatch", q=q)
                return rep
        for q in range(len(self.d) - 1):
            if not self.field.is_zero(self.field.matmul(self.d[q + 1], self.d[q])):
                rep.add("dd", "d o d != 0", q=q)
        return rep

    def cohomology_dims(self) -> list:
        """dim H^q for q = 0 .. len(d) - 1."""
        out = []
        prev_rank = 0
        for q in range(len(self.d)):
            r = rank(Matrix(self.field, self.d[q]))
            out.append(self.dims[q] - r - prev_rank)
            prev_rank = r
        return out


CELL_LIMIT = 1 << 26  # entries of one dense cochain differential


def _check_cells(dims: list) -> None:
    """Refuse cochain dimensions with a differential past CELL_LIMIT entries."""
    for rows, cols in zip(dims[1:], dims):
        if rows * cols > CELL_LIMIT:
            raise ValueError(f"cochain differential of {rows} x {cols} = {rows * cols} "
                             f"entries exceeds desk-scale limit {CELL_LIMIT}")


def _add_diagonal(mat: np.ndarray, r0: int, c0: int, n: int, sign: int) -> None:
    """Add sign * identity onto the n x n block of the C-contiguous mat at
    (r0, c0), unreduced: a cochain differential is reduced once, after all
    its q + 2 faces."""
    step = mat.shape[1] + 1
    start = r0 * mat.shape[1] + c0
    mat.reshape(-1)[start:start + n * step:step] += sign


def nerve_cochain_complex(c: FinCategory, f: CatModule, max_n: int,
                          normalized: bool = False) -> CochainComplex:
    """C^q = sum over q-chains x0 -> ... -> xq of F(x0), with the simplicial
    differential (F acts on the x0-face, adjacent arrows compose, ends drop)."""
    if not (rep := validate_category(c)).ok:
        raise ValueError(f"cannot take nerve cochains of invalid category: {rep.summary()}")
    k = f.field
    chains = [nerve_chains(c, q, normalized=normalized) for q in range(max_n + 2)]

    def start_of(q: int, ch: tuple):
        return ch[0] if q == 0 else c.dom(ch[0])

    offsets = []
    dims = []
    for q in range(max_n + 2):
        offs = {}
        total = 0
        for ch in chains[q]:
            offs[ch] = total
            total += f.dims[start_of(q, ch)]
        offsets.append(offs)
        dims.append(total)
    _check_cells(dims)

    diffs = []
    for q in range(max_n + 1):
        mat = k.zeros(dims[q + 1], dims[q])
        cols = offsets[q]  # a degenerate face is missing: normalized cochains vanish there
        for ch in chains[q + 1]:
            r0 = offsets[q + 1][ch]
            nrow = f.dims[start_of(q + 1, ch)]
            if nrow == 0:
                continue
            first = ch[0]
            tail = ch[1:] if q >= 1 else (c.cod(first),)
            if tail in cols:
                c0 = cols[tail]
                mat[r0:r0 + nrow, c0:c0 + f.dims[c.cod(first)]] += f.on(first)
            sign = 1
            for i in range(1, q + 1):
                sign = -sign
                merged = ch[:i - 1] + (c.then(ch[i - 1], ch[i]),) + ch[i + 1:]
                if merged in cols:
                    _add_diagonal(mat, r0, cols[merged], nrow, sign)
            head = ch[:q] if q >= 1 else (c.dom(first),)
            if head in cols:
                _add_diagonal(mat, r0, cols[head], nrow, -sign)
        diffs.append(k.reduce(mat))
    return CochainComplex(k, dims, diffs)


def nerve_cohomology_dims(c: FinCategory, f: CatModule, max_n: int,
                          normalized: bool = False) -> list:
    return nerve_cochain_complex(c, f, max_n, normalized=normalized).cohomology_dims()


def cat_ext_dims(c: FinCategory, g: CatModule, f: CatModule, max_n: int) -> list:
    """Ext over the category algebra of c, via the resolution route."""
    if g.field != f.field:
        raise ValueError("modules over different fields")
    alg = linearize(c, g.field)
    return ext_dims(alg, to_algebra_module(g, alg), to_algebra_module(f, alg), max_n)


def cohomology_dims(c: FinCategory, f: CatModule, max_n: int) -> list:
    return cat_ext_dims(c, constant_module(c, f.field), f, max_n)


# -- group cohomology --------------------------------------------------------------

def _ranks(c: FinCategory) -> np.ndarray:
    """The rank of each position of the one-object c among the non-identity
    ones, -1 at the identity.  Normalized bar q-cochains sit on q-tuples of
    those in `iproduct` order: a tuple's index is its ranks in base |G| - 1."""
    at = np.arange(len(c.mor))
    e = c.index.pos[c.identity[c.objects[0]]]
    return np.where(at == e, -1, at - (at > e))


def _abelian_group(c: FinCategory) -> tuple:
    """The composition table of c and its ranks, when c is a valid category
    with one object whose morphisms form an abelian group: every table row is
    a permutation and the table is symmetric."""
    if not (rep := validate_category(c)).ok:
        raise ValueError(f"cannot take bar cochains of invalid category: {rep.summary()}")
    if len(c.objects) != 1:
        raise ValueError("bar route needs a one-object category")
    table = c.index.table
    if (np.sort(table, axis=1) != np.arange(len(table))).any():
        raise ValueError("bar route needs a group: a table row is not a permutation")
    if (table != table.T).any():
        raise ValueError("bar route needs an abelian group: the table is not symmetric")
    return table, _ranks(c)


def bar_cochain_complex(c: FinCategory, module: CatModule, max_q: int) -> CochainComplex:
    """Normalized bar cochains of the abelian group c (`_abelian_group`) with
    coefficients in the module V: C^q = maps((G - 1)^q, V), i.e. the cochains
    on G^q that vanish on every tuple with an identity entry.  They form a
    subcomplex with the same cohomology as all of maps(G^q, V), on
    (|G| - 1)^q dim V coordinates in degree q instead of |G|^q dim V."""
    table, ranks = _abelian_group(c)
    k = module.field
    nv = module.dims[c.objects[0]]
    m = len(table) - 1
    dims = [m ** q * nv for q in range(max_q + 2)]
    _check_cells(dims)
    nonid = np.flatnonzero(ranks >= 0)
    product = ranks[table[np.ix_(nonid, nonid)]]  # the rank of a product of two ranks
    acts = np.stack([module.on(f) for f in c.index.labels])[nonid]
    eye = k.eye(nv)
    diffs = []
    for q in range(max_q + 1):
        mat = k.zeros(dims[q + 1], dims[q])
        if mat.size:  # each face for all (q + 1)-tuples r at once, unreduced
            block = mat.reshape(m ** (q + 1), nv, m ** q, nv)  # [row tuple, :, column tuple, :]
            r = np.arange(m ** (q + 1))
            digit = [r // m ** (q - i) % m for i in range(q + 1)]
            block[r, :, r % m ** q, :] += acts[digit[0]]
            sign = 1
            for i in range(1, q + 1):
                sign = -sign
                g = product[digit[i - 1], digit[i]]
                keep = g >= 0  # a normalized cochain vanishes where g is the identity
                cols = (r // m ** (q - i + 2) * m + g) * m ** (q - i) + r % m ** (q - i)
                block[r[keep], :, cols[keep], :] += sign * eye
            block[r, :, r // m, :] -= sign * eye
        diffs.append(k.reduce(mat))
    return CochainComplex(k, dims, diffs)


def bar_subquotients(c: FinCategory, bar: CochainComplex, gens) -> list:
    """H^0 .. H^(len(bar.d) - 1) of the normalized bar complex
    `bar_cochain_complex` built on the abelian group c, as subquotients.
    `gens` are positions generating c; ker d^q is taken on the rows whose
    first entry is one of them (module docstring), the contiguous blocks of
    dims[q] rows at their ranks; im d^(q-1) keeps all its rows.  c is not
    checked again."""
    m = len(c.mor) - 1
    ranks = _ranks(c)[gens]
    out = []
    for q, d in enumerate(bar.d):
        n = bar.dims[q]
        rows = d.reshape(m, n, n)[ranks].reshape(len(ranks) * n, n)
        out.append(subquotient(bar.field, rows, bar.d[q - 1] if q else None))
    return out


def bar_pullback(k: FieldSpec, cx: FinCategory, cy: FinCategory, alpha, phi: np.ndarray,
                 cochains: np.ndarray, q: int) -> np.ndarray:
    """Pull the columns of `cochains`, normalized bar q-cochains of cy with
    values in V, back to cx along the homomorphism g -> alpha[g] of abelian
    groups cx -> cy, on positions, and phi: V -> W: the cochain at a q-tuple
    of cx is phi of the one at its image, and 0 where alpha sends an entry to
    the identity.  The groups are not checked again; `bar_cochain_complex`
    checks them."""
    image = _ranks(cy)[np.asarray(alpha)[_ranks(cx) >= 0]]
    m, at = len(cy.mor) - 1, np.zeros(1, np.int64)  # the image of each q-tuple of cx, or -1
    for _ in range(q):
        at = np.where((at[:, None] < 0) | (image < 0), -1, at[:, None] * m + image).ravel()
    (nw, nv), cols = phi.shape, cochains.shape[1]
    images = k.matmul(phi, cochains.reshape(m ** q, nv, cols))
    images = np.concatenate([images, k.zeros(1, nw, cols)])  # at -1: the zero cochain
    return images[at].reshape(len(at) * nw, cols)


def group_cohomology_dims(c: FinCategory, module: CatModule, max_q: int) -> list:
    return bar_cochain_complex(c, module, max_q).cohomology_dims()


# -- subquotients (cohomology classes with chosen representatives) ------------------

@dataclass(eq=False)
class Subquotient:
    """ker(d_out) / im(d_in) with a fixed representative basis, supporting
    exact projection of cocycles onto class coordinates.

    Row i of `_kernel` (`kernel_basis` of d_out) is the unit vector at column
    `_free[i]` plus entries at earlier columns, so a cocycle v is
    `_kernel`^T v[_free]: v[_free] are its kernel coordinates.  `_coords`
    takes kernel coordinates to class coordinates: it sends every boundary
    to 0 and the representatives to the unit vectors."""

    field: FieldSpec
    reps: np.ndarray  # (ambient, h_dim) columns are class representatives
    _kernel: np.ndarray  # (dim ker, ambient)
    _free: np.ndarray  # the column of each kernel row's unit entry, increasing
    _coords: np.ndarray  # (h_dim, dim ker)

    @property
    def dim(self) -> int:
        return self.reps.shape[1]

    def project(self, vecs: np.ndarray) -> np.ndarray:
        """Class coordinates of cocycle columns; raises if not cocycles."""
        k = self.field
        if vecs.ndim == 1:
            vecs = vecs.reshape(-1, 1)
        vecs = k.reduce(vecs)
        w = vecs[self._free]
        if not k.equal(k.matmul(self._kernel.T, w), vecs):
            raise ValueError("vector is not a cocycle modulo boundaries")
        return k.matmul(self._coords, w)


def subquotient(field: FieldSpec, d_out: np.ndarray, d_in: np.ndarray | None) -> Subquotient:
    """Kernel row j represents a class iff it is not in im d_in plus the rows
    before it, i.e. iff no boundary has its last non-zero kernel coordinate
    at j.  Those are the pivots of d_in[free]^T with its columns reversed."""
    kernel = kernel_basis(Matrix(field, d_out))
    n = len(kernel)
    free = ((kernel != 0) * np.arange(1, d_out.shape[1] + 1)).max(axis=1, initial=0) - 1
    last, red = [], field.zeros(0, n)  # red: a boundary basis, unit at its last coordinate
    if n and d_in is not None:
        red, piv = rref(Matrix(field, d_in[free[::-1]].T))
        last = [n - 1 - c for c in piv]
        red = red[:len(piv), ::-1]
    keep = sorted(set(range(n)) - set(last))
    # w = sum_i w[last_i] red_i + sum_j c_j e_keep_j, so c = w[keep] - red[:, keep]^T w[last]
    coords = field.zeros(len(keep), n)
    coords[np.arange(len(keep)), keep] = field.one
    coords[:, last] = field.reduce(-red[:, keep].T)
    return Subquotient(field, kernel[keep].T, kernel, free, coords)
