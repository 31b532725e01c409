"""Oracles and decoders that the program does not need.

Naive dense Gaussian elimination, the Fraction matrices of the
differential, the per-block assembler the weight chains replaced and
the coboundary built on it; the positional view of the program's
blocks, which the tests read by position, and the primitive solved on
it; the cohomology dimensions at a Fraction weight;
the Fraction definitions that the program decides in integers (the
action with X = A o A and Y = -B o B composed in Fractions, and scaled
by D, the module axiom defect, the Jacobi defect); the stencil rows and
kernels of a module read in its basis, and the joint kernel of several
generators on a slice and the rescaled bracket tables; the
Casimir composed on a module's stencils, and its commutators with A and
B, which the proof of the action's identities reads; the
application of an operator to a function (`reference_apply`), the
contact bracket evaluated with it and the check of the scaled contact
fields against a bracket table; and the decoders of the program's
printed formats (operators, monomials, cochains); the Fraction composition of
operators that the program does in integers, and the realization
oracle's action read back as an operator.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, perm

from ospcoho import linalg
from ospcoho.algebra import (GENS, PAIR_ORDER, PARITY, SL2, StructureTable,
                             adopted_table, canonicalize, monomial_basis,
                             monomial_parity, monomial_weight)
from ospcoho.cochains import (Cochain, _basis, _graded_monomials, _scales,
                              _term2_sign, _weight_chain,
                              zero_cochain)
from ospcoho.superdiff import (DX, ETA, ETABAR, OpPoly,
                               derived_module_action, graded_commutator,
                               vector_field)
from ospcoho.engine import _random_cochain as random_cochain  # noqa: F401
from ospcoho.engine import twice_h_dim
from ospcoho.weightmod import (FAMILY_SHIFT, TWICE_WEIGHT, TruncatedDlm,
                               _compose, vec_add, vec_scale)

# the parity of each family, which the module's slices decide by the
# family shifts (a slice t holds parity t mod 2)
FAMILY_PARITY = {"a": 0, "b": 0, "c": 1, "d": 1}


# --- the Fraction action ----------------------------------------------------

def act_basis(mod, gen, bv):
    """Action of one generator on one basis vector, {bv: Fraction}.

    H, A and B are `scaled_act_basis` divided by D; X = A o A and
    Y = -B o B are composed in Fractions.
    """
    if gen == "X":
        return act(mod, "A", act_basis(mod, "A", bv))
    if gen == "Y":
        return vec_scale(act(mod, "B", act_basis(mod, "B", bv)), -1)
    D = mod._ints[0]
    return {t: Fraction(c, D) for t, c in mod.scaled_act_basis(gen, bv)}


def scaled_act(mod, gen, bv):
    """D * gen.bv as {BasisVector: int} from `act_basis`, less the terms
    at k <= K0 that the quotient D^{<=K}/D^{<=K0} drops, for
    D = action_scale(mod): the Fraction action, scaled, for the tests
    that check the program's stencils and blocks against it."""
    D = mod._ints[0]
    out = {}
    for v, c in act_basis(mod, gen, bv).items():
        if v[2] > mod.K0:
            assert (D * c).denominator == 1, (gen, bv, c)
            out[v] = int(D * c)
    return out


def stencil_image(mod, gen, bv):
    """D * gen.bv read off bv's row of the module's stencil, in the
    basis: the row's slice positions decoded by `list(mod.slice(t))`."""
    t = mod.twice_shifted_weight(bv)
    target = list(mod.slice(t + TWICE_WEIGHT[gen]))
    return {target[i]: x for i, x in mod.stencil(gen, t)[mod.slice(t)[bv]]}


def kernel_vectors(mod, gen, t):
    """`TruncatedDlm.kernel_slice` read in the basis: its vectors at the
    positions of the slice t, decoded by `list(mod.slice(t))`."""
    basis = list(mod.slice(t))
    return [{basis[c]: x for c, x in v.items()}
            for v in mod.kernel_slice(gen, t)]


def act(mod, gen, vec):
    """Linear extension of act_basis to {BasisVector: Fraction}."""
    out = {}
    for bv, c in vec.items():
        vec_add(out, act_basis(mod, gen, bv), c)
    return out


def action_compat_defect(mod, table, u, v, bv):
    """[u,v].w - (u.(v.w) - (-1)^{uv} v.(u.w)) for a basis vector w.

    Zero for all inputs iff the action is a module for `table`.
    """
    w = {bv: Fraction(1)}
    out = {}
    for g, c in table.bracket(u, v).items():
        vec_add(out, act(mod, g, w), c)
    vec_add(out, act(mod, u, act(mod, v, w)), Fraction(-1))
    sign = Fraction(-1 if PARITY[u] and PARITY[v] else 1)
    vec_add(out, act(mod, v, act(mod, u, w)), sign)
    return out


def joint_kernel(mod, gens, t):
    """Integer basis of the joint kernel of `gens` on the slice t: each
    generator's stencil stacked below the one before it, at a row offset
    of that generator's target slice length, and the null space of the
    stacked columns taken in integers, read in the basis. The program
    takes the kernel of one generator at a time
    (`TruncatedDlm.kernel_slice`)."""
    basis = list(mod.slice(t))
    cols = [{} for _ in basis]
    row0 = 0
    for g in gens:
        for col, row in zip(cols, mod.stencil(g, t)):
            for i, x in row:
                col[row0 + i] = x
        row0 += len(mod.slice(t + TWICE_WEIGHT[g]))
    return [{basis[c]: x for c, x in v.items()}
            for v in linalg.int_kernel_basis(cols)[1]]


# --- the Casimir on the module's stencils ----------------------------------

def casimir(mod, t):
    """2 D^2 z on the slice t, as stencil rows, for the Casimir
    z = H^2 + XY + AB/2 - H/2 and D = action_scale(mod).

    XY and AB are composed on the module's stencils by
    `weightmod._compose`, and H acts on the slice by its weight
    (`TruncatedDlm.scaled_weight`).
    """
    st, h = mod.stencil, mod.scaled_weight(t)
    xy = _compose(st("Y", t), st("X", t + TWICE_WEIGHT["Y"]))
    ab = _compose(st("B", t), st("A", t + TWICE_WEIGHT["B"]))
    out = []
    for i, (xy_i, ab_i) in enumerate(zip(xy, ab)):
        row = {i: 2 * h * h - mod._ints[0] * h}
        for k, x in xy_i.items():
            row[k] = row.get(k, 0) + 2 * x
        for k, x in ab_i.items():
            row[k] = row.get(k, 0) + x
        out.append(tuple(sorted((k, x) for k, x in row.items() if x)))
    return tuple(out)


def casimir_commutes(mod, t):
    """z o g = g o z for g = A and B on the slice t, in integers on the
    module's stencils and `casimir`."""
    z = casimir(mod, t)
    for g in ("A", "B"):
        st = mod.stencil(g, t)
        after = casimir(mod, t + TWICE_WEIGHT[g])
        for zg, gz in zip(_compose(st, after), _compose(z, st)):
            if any(zg.get(k, 0) != gz.get(k, 0) for k in {*zg, *gz}):
                return False
    return True


# --- the Fraction Jacobi defect ---------------------------------------------

def combo_add(target, src, coeff=Fraction(1)):
    """target += coeff * src for {generator: Fraction} combinations."""
    for g, v in src.items():
        s = target.get(g, Fraction(0)) + coeff * v
        if s:
            target[g] = s
        else:
            target.pop(g, None)
    return target


def bracket_combo(table, cu, cv):
    out = {}
    for u, a in cu.items():
        for v, b in cv.items():
            combo_add(out, table.bracket(u, v), a * b)
    return out


def jacobi_defect(table, u, v, w):
    """[[u,v],w] + (-1)^{uv} [v,[u,w]] - [u,[v,w]].

    Zero on every triple iff ad_u is a graded derivation for all u,
    i.e. iff the table is a Lie superalgebra.
    """
    sign = Fraction(-1 if PARITY[u] and PARITY[v] else 1)
    out = bracket_combo(table, table.bracket(u, v), {w: Fraction(1)})
    combo_add(out, bracket_combo(table, {v: Fraction(1)},
                                 table.bracket(u, w)), sign)
    combo_add(out, bracket_combo(table, {u: Fraction(1)},
                                 table.bracket(v, w)), Fraction(-1))
    return out


def rescaled_table(base, scales):
    """The table of `base` in the rescaled generators g -> s_g g.

    [u,v] = sum c g becomes sum c s_u s_v / s_g g; the tests use it for
    tables whose brackets have denominators (T > 1).
    """
    rows = {}
    for (u, v) in PAIR_ORDER:
        rows[(u, v)] = {g: c * scales[u] * scales[v] / scales[g]
                        for g, c in base.row((u, v)).items()}
    return StructureTable(rows, "rescaled")


# --- the contact realization ------------------------------------------------

def reference_apply(op, f):
    """The operator op applied to the function f, both by their terms:
    f and the result are {(m, e): Fraction} for x^m theta^e.

    Each term x^m theta^e1 dtheta^e2 dx^k takes x^u theta^v to
    falling(u, k) x^(u-k+m) theta^e1 (dtheta^e2 theta^v), the semantics
    that `OpPoly.compose` and the zeroth-order reading of
    `superdiff.zeroth` are checked against.
    """
    out = {}
    for (m, e1, e2, k), c in op.terms.items():
        for (u, v), cf in f.items():
            if k > u:
                continue
            coeff = c * cf * perm(u, k)
            eps = v
            if e2:
                if not eps:
                    continue
                eps = 0
            eps += e1
            if eps > 1:
                continue
            _reference_dict_add(out, (u - k + m, eps), coeff)
    return out


def as_function(g):
    """The function {(m, e): Fraction} of an operator g of order 0."""
    assert all(not e2 and not k for (_, _, e2, k) in g.terms), g
    return {(m, e): c for (m, e, _, _), c in g.terms.items()}


def as_operator(f):
    """The operator of order 0 that multiplies by the function f."""
    return OpPoly({(m, e, 0, 0): c for (m, e), c in f.items()})


def contact_bracket(f, g):
    """{F,G} = F G' - F' G + 1/2 eta(F) etabar(G) for functions F, G
    given as operators of order 0, evaluated with `reference_apply`:
    F G is F applied to G."""
    def ap(p, h):
        return as_operator(reference_apply(p, as_function(h)))
    out = ap(f, ap(DX, g)) - ap(ap(DX, f), g)
    return out + ap(ap(ETA, f), ap(ETABAR, g)).scale(Fraction(1, 2))


def field(consts, gen):
    return vector_field(consts.symbol(gen))


def fields_match_table(consts, table):
    """All 25 graded commutators of the scaled fields equal the table."""
    fields = {g: field(consts, g) for g in GENS}
    for u, v in itertools.product(GENS, repeat=2):
        rhs = OpPoly()
        for g, c in table.bracket(u, v).items():
            rhs = rhs + fields[g].scale(c)
        if graded_commutator(fields[u], fields[v]) != rhs:
            return False
    return True


def realized(gen, op, lam, mu, consts):
    """The realization oracle's action as an OpPoly: the program's
    `derived_module_action` returns it as (ints, den)."""
    return OpPoly.from_numerators(*derived_module_action(gen, op, lam, mu,
                                                         consts))


# --- the Fraction composition -----------------------------------------------

def _reference_dict_add(target, key, coeff):
    s = target.get(key, Fraction(0)) + coeff
    if s:
        target[key] = s
    else:
        target.pop(key, None)


def reference_compose(p, q):
    """p o q in normal order, term by term in Fractions.

    The program composes in integers over one denominator
    (`superdiff._compose_into`); this is the Fraction loop it replaced,
    with the rewriting rules of the `superdiff` docstring spelled out.
    """
    out = {}
    for (m1, a1, b1, k1), v1 in p.terms.items():
        for (m2, a2, b2, k2), v2 in q.terms.items():
            for j in range(min(k1, m2) + 1):
                c = v1 * v2 * comb(k1, j) * perm(m2, j)
                m = m1 + m2 - j
                k = k1 - j + k2
                # resolve dtheta^b1 against theta^a2, then merge the
                # remaining theta power into theta^a1 and the
                # remaining dtheta power into dtheta^b2
                if b1 and a2:
                    # dtheta theta = 1 - theta dtheta
                    _reference_dict_add(out, (m, a1, b2, k), c)
                    if not a1 and not b2:
                        _reference_dict_add(out, (m, 1, 1, k), -c)
                elif b1:
                    if not b2:
                        _reference_dict_add(out, (m, a1, 1, k), c)
                elif a2:
                    if not a1:
                        _reference_dict_add(out, (m, 1, b2, k), c)
                else:
                    _reference_dict_add(out, (m, a1, b2, k), c)
    return OpPoly(out)


def reference_commutator(p, q):
    """[p, q] = p o q - (-1)^{pq} q o p on `reference_compose`."""
    sign = -1 if p.parity() and q.parity() else 1
    return reference_compose(p, q) - reference_compose(q, p).scale(sign)


# --- superline helpers the program does not call ----------------------------

def op_term(m, e1, e2, k, coeff=1):
    """The single-term operator coeff x^m theta^e1 dtheta^e2 dx^k."""
    return OpPoly({(m, e1, e2, k): Fraction(coeff)})


# --- decoders of the printed formats ----------------------------------------

_ALIASES = {"theta": "θ", "dθ": "∂θ", "dtheta": "∂θ", "dx": "∂x",
            "∂_x": "∂x", "∂_θ": "∂θ"}


def parse_op(text):
    """Parse the grammar emitted by op_str back into an OpPoly."""
    text = text.strip()
    if not text or text == "0":
        return OpPoly()
    text = text.replace(" - ", " + -")
    out = OpPoly()
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        if not chunk:
            continue
        coeff = Fraction(1)
        if chunk.startswith("-"):
            coeff = -coeff
            chunk = chunk[1:]
        m = e1 = e2 = k = 0
        for tok in chunk.split():
            base, _, power = tok.partition("^")
            base = _ALIASES.get(base, base)
            power = int(power) if power else 1
            if base == "x":
                m += power
            elif base == "θ":
                e1 += power
            elif base == "∂θ":
                e2 += power
            elif base == "∂x":
                k += power
            elif base == "1":
                pass
            else:
                coeff *= Fraction(base) ** power
        out = out + op_term(m, e1, e2, k, coeff)
    return out


def parse_monomial(text):
    text = text.strip()
    if text in ("", "1"):
        return ()
    out = []
    for tok in text.split():
        if "^" in tok:
            g, n = tok.split("^")
            out.extend([g] * int(n))
        else:
            out.append(tok)
    for g in out:
        if g not in PARITY:
            raise ValueError(f"unknown generator {g!r}")
    mono, sign = canonicalize(out)
    if sign != 1:
        raise ValueError(f"{text!r} is not a canonical monomial")
    return mono


def vec_from_json(data):
    return {(f, m, k): Fraction(c) for f, m, k, c in data}


def cochain_from_json(data):
    mod = TruncatedDlm(Fraction(data["lambda"]), Fraction(data["mu"]),
                       data["K"])
    universe = SL2 if data.get("universe") == "sl2" else GENS
    vals = {parse_monomial(u): vec_from_json(v)
            for u, v in data["values"].items()}
    return Cochain(mod, data["degree"], data["parity"], vals, universe)


# --- dense matrices ---------------------------------------------------------

class SparseMatrix:
    """Immutable-by-convention sparse rational matrix, row-major."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows, ncols, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            rows = [dict() for _ in range(nrows)]
        self.rows = rows

    @classmethod
    def from_entries(cls, nrows, ncols, entries):
        """entries: iterable of (i, j, value)."""
        m = cls(nrows, ncols)
        for i, j, v in entries:
            v = Fraction(v)
            if v:
                m.rows[i][j] = m.rows[i].get(j, Fraction(0)) + v
                if not m.rows[i][j]:
                    del m.rows[i][j]
        return m

    def entry(self, i, j):
        return self.rows[i].get(j, Fraction(0))

    def column(self, j):
        return {i: r[j] for i, r in enumerate(self.rows) if j in r}

    def mul(self, other):
        """Matrix product self @ other."""
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        out = SparseMatrix(self.nrows, other.ncols)
        for i, row in enumerate(self.rows):
            acc = out.rows[i]
            for j, v in row.items():
                for k, w in other.rows[j].items():
                    s = acc.get(k, Fraction(0)) + v * w
                    if s:
                        acc[k] = s
                    else:
                        del acc[k]
        return out

    def apply(self, vec):
        """Matrix-vector product; vec is {col: Fraction}."""
        out = {}
        for i, row in enumerate(self.rows):
            s = Fraction(0)
            for j, v in row.items():
                if j in vec:
                    s += v * vec[j]
            if s:
                out[i] = s
        return out

    def is_zero(self):
        return all(not r for r in self.rows)

    def nnz(self):
        return sum(len(r) for r in self.rows)

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"



# --- the positional view of the program's blocks ---------------------------
#
# The program indexes a weight block by stride index only (`_basis`).
# The tests that read a block by position read it through this view:
# the block basis in stride order, the chain's columns re-keyed to
# positions, and a cochain's coordinates on that basis.

def basis_weight(mod, bv):
    """The weight k - m - p + shift(family) of a basis vector."""
    f, m, k = bv
    return k - m - mod.p + FAMILY_SHIFT[f]


def h_dim(mod, n, w, universe=GENS):
    """dim H^n at the cochain weight w, split by cochain parity:
    `twice_h_dim` at the int t = 2(w + p) (`twice_shifted`)."""
    return twice_h_dim(mod, n, mod.twice_shifted(w), universe)


def weight_components(f):
    """f split into weight-homogeneous parts: {w: Cochain}, by w."""
    parts = {}
    for u, vec in f.values.items():
        wu = monomial_weight(u)
        for bv, c in vec.items():
            w = basis_weight(f.mod, bv) - wu
            parts.setdefault(w, {}).setdefault(u, {})[bv] = c
    return {w: Cochain(f.mod, f.degree, f.parity, vals, f.universe)
            for w, vals in sorted(parts.items())}


def delta_block(mod, n, w, parity, universe=GENS, skip=()):
    """Integer columns of d: C^n_w -> C^{n+1}_w on one parity component.

    Returns (domain_basis, codomain_basis, cols, scale): cols[c] is a
    {codomain position: int} dict, and cols[c] / scale is column c of
    the exact matrix, the coboundary of the delta cochain at
    domain_basis[c]. The columns at the domain positions in `skip` are
    left empty. The columns are the weight chain's
    (`_WeightChain.block`), re-keyed from stride indices to positions;
    the chain at t = 2(w + p) holds the parity t mod 2, and the other
    parity's block is empty, with the same scale.
    """
    t = mod.twice_shifted(w)
    if t is None or (t - parity) % 2:   # no cochain of this parity here
        T = adopted_table().scaled_brackets()[0]
        return [], [], [], _scales(mod, T)[0]
    dom, cod = _basis(mod, t, n, universe), _basis(mod, t, n + 1, universe)
    cols, scale = _weight_chain(mod, t, universe).block(
        mod, n, {dom[c][0] for c in skip})
    row = {index: r for r, (index, _, _) in enumerate(cod)}
    return ([(u, bv) for _, u, bv in dom], [(u, bv) for _, u, bv in cod],
            [{row[r]: x for r, x in col.items()} for col in cols], scale)


def cochain_coords(f, basis):
    """Coordinates of f on a block basis: {position: Fraction}."""
    out = {}
    for idx, (u, bv) in enumerate(basis):
        vec = f.values.get(u)
        if vec and bv in vec:
            out[idx] = vec[bv]
    return out


def cochain_from_coords(mod, degree, parity, basis, coords, universe=GENS):
    """The cochain with coordinates {position: value} on a block basis."""
    vals = {}
    for idx, c in coords.items():
        u, bv = basis[idx]
        vals.setdefault(u, {})[bv] = c
    return Cochain(mod, degree, parity, vals, universe)


def reference_primitive(f, target=None):
    """`cochains.primitive` on the positional view.

    Per weight of f: its coordinates on the codomain basis, the rows
    whose monomial passes `target` (all when it is None), `linalg.solve`
    on `delta_block`'s columns, and the solution decoded on the domain
    basis. None when some weight has no solution.
    """
    n = f.degree
    g = zero_cochain(f.mod, n - 1, f.parity, f.universe)
    for w, part in weight_components(f).items():
        dom, cod, cols, scale = delta_block(f.mod, n - 1, w, f.parity,
                                            f.universe)
        rhs = cochain_coords(part, cod)
        if target is not None:
            rows = {r for r, (u, _) in enumerate(cod) if target(u)}
            cols = [{r: v for r, v in col.items() if r in rows}
                    for col in cols]
            rhs = {r: c for r, c in rhs.items() if r in rows}
        sol = linalg.solve(cols, scale, rhs)
        if sol is None:
            return None
        g = g.add(cochain_from_coords(f.mod, n - 1, f.parity, dom, sol,
                                      f.universe))
    return g


# --- dense matrices of the differential -------------------------------------

def delta_matrix(mod, n, w, parity, universe=GENS):
    """Exact matrix of d: C^n_w -> C^{n+1}_w on one parity component.

    Returns (domain_basis, codomain_basis, SparseMatrix); column c of
    the matrix is the coboundary of the delta cochain at domain_basis[c].
    It is `delta_block` divided by its scale, the Fraction view of the
    program's integer blocks.
    """
    dom, cod, cols, scale = delta_block(mod, n, w, parity, universe)
    rows = [dict() for _ in cod]
    for c, col in enumerate(cols):
        for r, v in col.items():
            rows[r][c] = Fraction(v, scale)
    return dom, cod, SparseMatrix(len(cod), len(dom), rows)


def dense_rank(m):
    return len(dense_rref(m))


def dense_rref(m):
    """Nonzero rows of the reduced row echelon form, as {col: Fraction}."""
    rows = [[m.entry(i, j) for j in range(m.ncols)] for i in range(m.nrows)]
    rank = 0
    col = 0
    while rank < len(rows) and col < m.ncols:
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [v / pv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return [{j: v for j, v in enumerate(row) if v} for row in rows[:rank]]


def int_columns(m):
    """(cols, scale): integer {row: int} columns with cols / scale == m."""
    scale = lcm(*(v.denominator for row in m.rows for v in row.values()))
    cols = [dict() for _ in range(m.ncols)]
    for i, row in enumerate(m.rows):
        for j, v in row.items():
            cols[j][i] = int(v * scale)
    return cols, scale


# --- the weight-block assembler as it was before the weight chains ----------
#
# Kept (names prefixed) as the oracle for the chains' blocks, read
# through `delta_block`: per-block bases, per-target Koszul sums and
# accumulating writes. The bases filter each slice by family parity, so
# they do not assume that a slice holds one parity.

@lru_cache(maxsize=64)
def reference_koszul_terms(n, q, universe, table):
    """The two sums of the differential on n-cochains of parity q.

    Returns (T, terms), T being the lcm of the table's bracket
    denominators (`StructureTable.scaled_brackets`), with one entry per
    target monomial of degree n+1 in terms:
    (target, [(gen, source monomial, sign)], [(source monomial, coeff)]),
    so that (df)(target) = sum sign * gen.f(source)
    + sum (coeff / T) * f(source), every coeff an int. The bracket terms
    of one source monomial are already added up.
    """
    T, scaled = table.scaled_brackets()
    out = []
    for target in monomial_basis(n + 1, universe):
        parities = [PARITY[g] for g in target]
        prefix = [0]
        for p in parities:
            prefix.append(prefix[-1] + p)
        # gen.f(source) carries (-1)^i (-1)^{|gen| (q + |target[:i]|)}:
        # gen passes f, of parity q, and the generators before it
        acts = tuple((gen, target[:i] + target[i + 1:],
                      (-1) ** (i + parities[i] * (q + prefix[i])))
                     for i, gen in enumerate(target))
        brackets = {}
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                rest = target[:i] + target[i + 1:j] + target[j + 1:]
                sgn = _term2_sign(i, j, parities, prefix)
                for g, cg in scaled[(target[i], target[j])]:
                    mono, s = canonicalize((g,) + rest)
                    if s:
                        brackets[mono] = brackets.get(mono, 0) + sgn * s * cg
        out.append((target, acts,
                    tuple((m, c) for m, c in brackets.items() if c)))
    return T, tuple(out)


def reference_block_basis(mod, n, w, parity, universe=GENS):
    """Ordered basis [(monomial, BasisVector)] of the weight-w part of C^n.

    A delta cochain u -> bv has cochain parity parity(u) + parity(bv);
    the `parity` argument filters to one homogeneous component, by the
    family parity of bv, scanned on every slice.
    """
    t = 2 * (Fraction(w) + mod.p)
    if t.denominator != 1:      # twice a monomial weight is an integer
        return []
    t = t.numerator
    out = []
    for u, (_, u_weight2) in _graded_monomials(n, universe).items():
        for bv in mod.twice_weight_basis(t + u_weight2):
            if parity is None or (FAMILY_PARITY[bv[0]] - parity
                                  - monomial_parity(u)) % 2 == 0:
                out.append((u, bv))
    return out


def reference_delta_block(mod, n, w, parity, universe=GENS, skip=()):
    """Integer columns of d: C^n_w -> C^{n+1}_w on one parity component.

    Returns (domain_basis, codomain_basis, cols, scale): cols[c] is a
    {codomain index: int} dict, and cols[c] / scale is column c of the
    exact matrix, the coboundary of the delta cochain at
    domain_basis[c]. The columns whose domain index is in `skip` are
    left empty and never assembled. The
    scale is the lcm of the module's action scale (`action_scale`)
    and the denominators of the bracket coefficients. The action terms
    are the tests' own Fraction action, scaled (`scaled_act`), so the
    reference shares no stencil with the program's blocks.
    """
    w = Fraction(w)
    dom = reference_block_basis(mod, n, w, parity, universe)
    cod = reference_block_basis(mod, n + 1, w, parity, universe)
    cols = [dict() for _ in dom]
    T, terms = reference_koszul_terms(n, parity if parity is not None else 0,
                             universe, adopted_table())
    scale, act_factor, bracket_factor = _scales(mod, T)
    if not dom or not cod:
        return dom, cod, cols, scale
    skip = frozenset(skip)
    dom_slice = {}
    for c, (u, bv) in enumerate(dom):
        if c not in skip:
            dom_slice.setdefault(u, []).append((bv, cols[c]))
    cod_index = {pair: r for r, pair in enumerate(cod)}
    for target, acts, brackets in terms:
        for gen, sub, sgn in acts:
            entries = dom_slice.get(sub)
            if not entries:
                continue
            sgn *= act_factor
            for bv, col in entries:
                for tbv, c in scaled_act(mod, gen, bv).items():
                    r = cod_index[(target, tbv)]
                    v = col.get(r, 0) + sgn * c
                    if v:
                        col[r] = v
                    else:
                        del col[r]
        for mono, coeff in brackets:
            entries = dom_slice.get(mono)
            if not entries:
                continue
            coeff *= bracket_factor
            for bv, col in entries:
                r = cod_index[(target, bv)]
                v = col.get(r, 0) + coeff
                if v:
                    col[r] = v
                else:
                    del col[r]
    return dom, cod, cols, scale


def reference_block_coboundary(f):
    """The coboundary of f from the per-block reference assembler.

    Each weight component of f, as coordinates on `reference_block_basis`,
    is multiplied by the columns of `reference_delta_block`; the images
    of all the components are added into one cochain value by value.
    """
    out = {}
    for w, part in weight_components(f).items():
        dom, cod, cols, scale = reference_delta_block(
            f.mod, f.degree, w, f.parity, f.universe)
        index = {pair: c for c, pair in enumerate(dom)}
        image = {}
        for u, vec in part.values.items():
            for bv, c in vec.items():
                for r, x in cols[index[(u, bv)]].items():
                    image[r] = image.get(r, 0) + c * x
        for r, v in image.items():
            u, bv = cod[r]
            if v:
                vec_add(out.setdefault(u, {}), {bv: Fraction(v) / scale})
    return Cochain(f.mod, f.degree + 1, f.parity, out, f.universe)
