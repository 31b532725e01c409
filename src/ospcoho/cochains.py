"""Cochains of osp(1|2) and the graded Chevalley-Eilenberg differential.

A degree-n cochain stores one module value per canonical monomial;
evaluation on arbitrary generator tuples goes through `canonicalize`, so
the graded antisymmetry never has to be re-derived. The coboundary is
the two-sum Koszul formula

  (df)(U_0..U_n) =
      sum_i (-1)^i (-1)^{U_i(f + U_0+..+U_{i-1})} U_i f(.. ^i ..)
    + sum_{i<j} (-1)^{i+j} (-1)^{U_i(U_0+..+U_{i-1})}
                (-1)^{U_j(U_0+..+^i+..+U_{j-1})} f([U_i,U_j], .. ^i ^j ..)

with generator parities in the exponents. Restricting the generator
universe to (X, H, Y) turns the same formula into the classical sl(2)
differential (all parity exponents vanish).

The weight blocks d_n: C^n_w -> C^{n+1}_w are assembled per weight
chain (`_WeightChain`), kept in the module's `chains`. A row or column
has the stride index i(u) * S + pos (`_basis`): the monomial's place in
`monomial_basis`, the vector's position in its module slice, and the
module's stride S, the most vectors a slice holds (`stride`). A chain
is keyed by t = 2(w + p) and the universe: the module's slice t holds
one parity, t mod 2, and so does C^n_w. That parity enters only the
Koszul terms, built once per (degree, t mod 2, universe), source-major
(`_koszul_skeleton`), and resolved once per degree, per source, against
the module's integer stencils (`_WeightChain.sources`). A column is
built from its source's terms with one write per matrix entry
(`_column`). That per-column builder is the one evaluator of the
formula: the blocks are built with it, and `coboundary` applies a
block's integer columns to a cochain's coordinates at their stride
indices, one weight component at a time.

The stride index is the one coordinate system of a weight block. A
cochain is split by weight and given coordinates by `_coords` alone,
and `_from_coords` is its inverse: the ranks, the coboundary, the
solves for primitives and the kernels all read and write blocks at
stride indices, and nothing maps them to positions.

The bracket table is a constant of this layer, the adopted one; the
self-test's `audit-finds-repaired-V` ties it to the audit's result.

Reduction to cochains vanishing on A-monomials is done by an exact
linear solve per cochain weight instead of the inductive construction;
the solve is guaranteed to succeed, and the output is verified.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import Mismatch, linalg
from .algebra import (GENS, PARITY, SL2, adopted_table, canonicalize,
                      monomial_basis, monomial_parity, monomial_str,
                      monomial_weight)
from .weightmod import (FAMILY_PARITY, TruncatedDlm, TruncationViolation,
                        from_oppoly, to_oppoly, vec_add, vec_scale,
                        vec_to_json)


class SolveFailed(Mismatch):
    """An exact solve that the theory guarantees has failed."""


class NoCocycle(Mismatch):
    """A cocycle template could not be realized; conventions are broken."""


class TypeMismatch(TypeError):
    """Cup-product factors with incompatible density weights."""


class Cochain:
    """Parity-homogeneous n-cochain with values in a truncated module, on
    the monomials of monomial_basis(degree, universe) (ValueError else)."""

    __slots__ = ("mod", "degree", "parity", "values", "universe")

    def __init__(self, mod, degree, parity, values=None, universe=GENS):
        self.mod = mod
        self.degree = degree
        self.parity = parity
        self.universe = tuple(universe)
        self.values = {}
        graded = _graded_monomials(degree, self.universe)
        for mono, vec in (values or {}).items():
            mono = tuple(mono)
            if mono not in graded:
                raise ValueError(f"monomial {mono} is not in monomial_basis"
                                 f"({degree}, {self.universe})")
            vec = {bv: c if type(c) is Fraction else Fraction(c)
                   for bv, c in vec.items() if c}
            if not vec:
                continue
            want = (parity + monomial_parity(mono)) % 2
            for bv in vec:
                if FAMILY_PARITY[bv[0]] != want:
                    raise ValueError(
                        f"value {bv} on {monomial_str(mono)} breaks "
                        f"parity {parity} homogeneity")
            self.values[mono] = vec

    def evaluate(self, args):
        """Value on an arbitrary generator tuple (canonicalize + sign)."""
        if len(args) != self.degree:
            raise ValueError("tuple length must equal the cochain degree")
        mono, sign = canonicalize(args)
        if sign == 0:
            return {}
        vec = self.values.get(mono)
        if not vec:
            return {}
        return vec_scale(vec, sign)

    def is_zero(self):
        return not self.values

    def scale(self, c):
        return Cochain(self.mod, self.degree, self.parity,
                       {u: vec_scale(v, c) for u, v in self.values.items()},
                       self.universe)

    def add(self, other, coeff=Fraction(1)):
        vals = {u: dict(v) for u, v in self.values.items()}
        for u, v in other.values.items():
            vec_add(vals.setdefault(u, {}), v, coeff)
        return Cochain(self.mod, self.degree, self.parity, vals,
                       self.universe)

    def sub(self, other):
        return self.add(other, Fraction(-1))

    def __eq__(self, other):
        return (isinstance(other, Cochain)
                and self.degree == other.degree
                and self.mod == other.mod
                and self.universe == other.universe
                and self.values == other.values)

    def __repr__(self):
        slots = ", ".join(monomial_str(u) for u in sorted(self.values))
        return (f"Cochain(deg={self.degree}, parity={self.parity}, "
                f"support=[{slots}])")


def zero_cochain(mod, degree, parity, universe=GENS):
    return Cochain(mod, degree, parity, {}, universe)


def _term1_sign(i, parities, prefix, q):
    s = -1 if i % 2 else 1
    if parities[i] and (q + prefix[i]) % 2:
        s = -s
    return s


def _term2_sign(i, j, parities, prefix):
    s = -1 if (i + j) % 2 else 1
    if parities[i] and prefix[i] % 2:
        s = -s
    if parities[j] and (prefix[j] - parities[i]) % 2:
        s = -s
    return s


@lru_cache(maxsize=64)
def _koszul_skeleton(n, q, universe):
    """The differential on n-cochains of parity q, source-major.

    Returns (T, skeleton): T is the lcm of the adopted table's bracket
    denominators (`StructureTable.scaled_brackets`), and per source in
    `monomial_basis(n, universe)`, the skeleton holds (2 weight,
    ((target index, gen, sign, coeff), ...)) by increasing index in
    `monomial_basis(n + 1, universe)`: (df)(target) sums
    sign * gen.f(source) + (coeff / T) * f(source). gen = target -
    source, a single generator, or None when that is not one or its
    summed sign is 0; a bracket term meets such a source only for gen = H.
    q, read off the chain's weight (t mod 2), enters only as
    (-1)^{gen q}: q = 1 flips the signs of odd gens."""
    if q:
        T, even = _koszul_skeleton(n, 0, universe)
        return T, tuple((w2, tuple((j, g, -s if PARITY.get(g) else s, b)
                                   for j, g, s, b in targets))
                        for w2, targets in even)
    T, scaled = adopted_table().scaled_brackets()
    graded = _graded_monomials(n, universe)
    by_source = {u: [] for u in graded}
    for j, target in enumerate(monomial_basis(n + 1, universe)):
        parities = [PARITY[g] for g in target]
        prefix = [0]
        for p in parities:
            prefix.append(prefix[-1] + p)
        groups = {}     # source -> [gen, sign, coeff]
        for i, gen in enumerate(target):
            group = groups.setdefault(target[:i] + target[i + 1:],
                                      [gen, 0, 0])
            group[1] += _term1_sign(i, parities, prefix, q)
        for i in range(n + 1):
            for k in range(i + 1, n + 1):
                rest = target[:i] + target[i + 1:k] + target[k + 1:]
                sgn = _term2_sign(i, k, parities, prefix)
                for g, cg in scaled[(target[i], target[k])]:
                    mono, s = canonicalize((g,) + rest)
                    if s:
                        groups.setdefault(mono, [None, 0, 0])[2] += \
                            sgn * s * cg
        for src, (gen, sign, coeff) in groups.items():
            if sign or coeff:
                by_source[src].append((j, gen if sign else None, sign,
                                       coeff))
    return T, tuple((w2, tuple(by_source[u]))
                    for u, (_, w2) in graded.items())


def _scales(mod, T):
    """(scale, act factor, bracket factor) of one integer evaluation.

    scale = lcm(D, T) for the module's action scale D and the bracket
    denominator T; the factors lift D * gen.bv and T * [u, v] to it.
    """
    D = mod._ints[0]
    scale = lcm(D, T)
    return scale, scale // D, scale // T


def coboundary(f):
    """The differential of f; degree n+1, same parity, same weight.

    Applied per weight chain: f's coordinates on C^n_w (`_coords`), for
    each weight w it has, are scaled to integers Q * f (Q the lcm of
    their denominators), the block's integer columns at their stride
    indices (`_column`, on `_WeightChain.sources`, resolved once per
    degree) are applied to them, and each entry of the image, read off
    `_basis` of C^{n+1}_w, is divided once by Q * scale. So the
    coboundary is the one assembler of the blocks, and builds only the
    columns f reads.
    """
    mod, n, S = f.mod, f.degree, f.mod.stride
    out = {}
    for t, coords in _coords(f).items():
        scale, sources = _weight_chain(mod, t, f.universe).sources(mod, n)
        terms = {col0: terms for col0, _, terms in sources}
        Q = lcm(*(c.denominator for c in coords.values()))
        acc = {}
        for index, c in coords.items():
            pos, c = index % S, c.numerator * (Q // c.denominator)
            for r, x in _column(terms[index - pos], pos).items():
                acc[r] = acc.get(r, 0) + c * x
        den = Q * scale
        for index, u, bv in _basis(mod, t, n + 1, f.universe):
            if v := acc.get(index):
                out.setdefault(u, {})[bv] = Fraction(v, den)
    return Cochain(mod, n + 1, f.parity, out, f.universe)


# --- weight blocks of the differential -------------------------------------

@lru_cache(maxsize=32)
def _graded_monomials(n, universe):
    """{monomial: (its index in monomial_basis(n, universe), twice its
    weight)}, in that order."""
    return {u: (i, int(2 * monomial_weight(u)))
            for i, u in enumerate(monomial_basis(n, universe))}


def _basis(mod, t, n, universe):
    """[(stride index, monomial, BasisVector)] of C^n_w at the int
    t = 2(w + p), by increasing index; each cochain in it has parity
    t mod 2 (u reads the slice t + 2 wt(u))."""
    out, S = [], mod.stride
    for u, (i, w2) in _graded_monomials(n, universe).items():
        for bv, pos in mod.slice(t + w2).items():
            out.append((i * S + pos, u, bv))
    return out


def block_basis(mod, n, w, parity, universe=GENS):
    """Ordered basis [(monomial, BasisVector)] of the weight-w part of C^n
    on one parity component (0 or 1, empty unless t = 2(w + p) has it),
    by increasing stride index. Its only reader is the benchmark's rank
    sum, which takes its length."""
    t = mod.twice_shifted(w)
    if t is None or (t - parity) % 2:
        return []
    return [(u, bv) for _, u, bv in _basis(mod, t, n, universe)]


def _coords(f):
    """f's coordinates per weight chain: {t: {stride index: Fraction}},
    t = 2(w + p) for each weight w of f (`_basis`). A value on a vector
    that is not in f's module raises TruncationViolation."""
    mod, S = f.mod, f.mod.stride
    graded = _graded_monomials(f.degree, f.universe)
    out = {}
    for u, vec in f.values.items():
        i, w2 = graded[u]
        for bv, c in vec.items():
            tb = mod.twice_shifted_weight(bv)
            pos = mod.slice(tb).get(bv)
            if pos is None:
                raise TruncationViolation(f"{bv} is not a vector of {mod}")
            out.setdefault(tb - w2, {})[i * S + pos] = c
    return out


def _from_coords(mod, n, t, coords, universe):
    """The n-cochain with coordinates {stride index: value} on C^n_w at
    t = 2(w + p), of parity t mod 2: the inverse of `_coords` at one t."""
    vals = {}
    for index, u, bv in _basis(mod, t, n, universe):
        if index in coords:
            vals.setdefault(u, {})[bv] = coords[index]
    return Cochain(mod, n, t % 2, vals, universe)


class _WeightChain:
    """The blocks d_n: C^n_w -> C^{n+1}_w of one weight (parity t mod 2).

    A chain is kept in its module's `chains` and refers to no module:
    every method takes the module it is read on. Rows and columns carry
    stride indices (`_basis`), so C^n_w is indexed alike as the codomain
    of d_{n-1} and the domain of d_n, and d_n is written from the
    module's integer stencils (`TruncatedDlm.stencil`) without hashing a
    basis vector. `sources` resolves the Koszul skeleton once per
    degree, per source monomial whose slice is nonempty: target minus
    source is one generator, so each entry of a column is written once.
    H acts on a slice by its weight (`TruncatedDlm.scaled_weight`), so
    an H term, which alone meets the bracket term, is one int written on
    the diagonal with no stencil. `ranks` belongs to `engine`, which
    files (rank, columns, pivots) there.
    """

    __slots__ = ("t", "universe", "_sources", "ranks")

    def __init__(self, t, universe):
        self.t, self.universe, self._sources, self.ranks = t, universe, {}, {}

    def sources(self, mod, n):
        """(scale, ((col0, length, terms), ...)): d_n per source u with a
        nonempty slice, col0 = i(u) * stride, resolved once per degree. A
        term is (row0, int, stencil) by increasing row0 = i(target) *
        stride: the stencil's entries times the int, or, for None, the
        int on the diagonal."""
        hit = self._sources.get(n)
        if hit is None:
            T, skeleton = _koszul_skeleton(n, self.t % 2, self.universe)
            scale, act_factor, bracket_factor = _scales(mod, T)
            weight, stencil, S = mod.scaled_weight, mod.stencil, mod.stride
            out = []
            for i, (w2, targets) in enumerate(skeleton):
                tk = self.t + w2    # the source's slice
                length = len(mod.slice(tk))
                if not length:
                    continue
                terms = []
                for j, gen, s, b in targets:
                    if gen == "H":  # H acts on the slice by its weight
                        v = b * bracket_factor + s * act_factor * weight(tk)
                        if v:
                            terms.append((j * S, v, None))
                    elif gen:
                        terms.append((j * S, s * act_factor,
                                      stencil(gen, tk)))
                    elif b:
                        terms.append((j * S, b * bracket_factor, None))
                out.append((i * S, length, tuple(terms)))
            hit = self._sources[n] = (scale, tuple(out))
        return hit

    def block(self, mod, n, skip):
        """(cols, scale) of d_n, a column per domain vector by increasing
        index, those at the indices in `skip` left empty and unbuilt."""
        scale, sources = self.sources(mod, n)
        cols = []
        for col0, length, terms in sources:
            for i in range(length):
                cols.append({} if col0 + i in skip else _column(terms, i))
        return cols, scale


def _column(terms, i):
    """Column i of a source's resolved terms (`_WeightChain.sources`)."""
    col = {}
    for row0, v, st in terms:
        if st is None:
            col[row0 + i] = v
        else:
            for pos, x in st[i]:
                col[row0 + pos] = v * x
    return col


def _weight_chain(mod, t, universe):
    """The weight chain of `mod` at the int t = 2(w + p) (`twice_shifted`)."""
    key = (t, universe)
    chains = mod.chains
    if key not in chains:
        chains[key] = _WeightChain(*key)
    return chains[key]


def _kernel_cochains(mod, n, t, universe, skip):
    """Integer kernel of d_n at t = 2(w + p) on the columns whose stride
    index is outside `skip`, as Cochains: only those columns are
    assembled, and each kernel vector (`linalg.int_kernel_basis`) is
    divided by its lead."""
    cols = _weight_chain(mod, t, universe).block(mod, n, skip)[0]
    keep = [(index, col) for (index, _, _), col
            in zip(_basis(mod, t, n, universe), cols)
            if index not in skip]
    out = []
    for vec in linalg.int_kernel_basis([col for _, col in keep]):
        lead = vec[min(vec)]
        out.append(_from_coords(mod, n, t, {
            keep[i][0]: Fraction(v, lead) for i, v in vec.items()},
            universe))
    return out


# --- reduction --------------------------------------------------------------

def _a_monomial(u):
    # the reducible slots: A present, every entry in {A, H, B, Y}
    return "A" in u and "X" not in u


def is_reduced(f):
    """True iff f vanishes on every monomial A U_2..U_n, U_i in {A,H,B,Y}.

    Monomials containing both A and X are exempt: no coboundary can kill
    them in general. For cocycles they are pinned anyway: values on
    X-monomials die through [A,A] = 2X and values on A-and-X monomials
    through the weight equations.
    """
    return not any(_a_monomial(u) for u in f.values)


def primitive(f, target=None):
    """Some g of degree n-1 with (dg)(u) = f(u) on the target monomials.

    Solved per weight w of f, at t = 2(w + p), on f's coordinates
    (`_coords`) and the integer columns of d_{n-1}: C^{n-1}_w -> C^n_w
    (`_WeightChain.block`), keeping only the rows whose monomial,
    monomial_basis(n)[r // stride] for the stride index r, passes
    `target` (every row when it is None). Returns None when some weight
    has no solution.
    """
    mod, n, S = f.mod, f.degree, f.mod.stride
    monomials = monomial_basis(n, f.universe)

    def targeted(vec):
        if target is None:
            return vec
        return {r: x for r, x in vec.items() if target(monomials[r // S])}

    g = zero_cochain(mod, n - 1, f.parity, f.universe)
    for t, rhs in sorted(_coords(f).items()):
        cols, scale = _weight_chain(mod, t, f.universe).block(mod, n - 1, ())
        sol = linalg.solve([targeted(col) for col in cols], scale,
                           targeted(rhs))
        if sol is None:
            return None
        dom = _basis(mod, t, n - 1, f.universe)
        g = g.add(_from_coords(mod, n - 1, t, {
            dom[c][0]: x for c, x in sol.items()}, f.universe))
    return g


def reduce_cochain(f):
    """Return (g, f_red) with f_red = f - dg reduced.

    g is solved per cochain weight from the linear system
    (dg)(A-monomials) = f(A-monomials) (`primitive`); solvability is
    guaranteed, so a failed solve raises SolveFailed.
    """
    n = f.degree
    if n == 0 or is_reduced(f):
        return zero_cochain(f.mod, max(n - 1, 0), f.parity, f.universe), f
    g = primitive(f, _a_monomial)
    if g is None:
        raise SolveFailed("reduction solve failed; sign conventions are "
                          "inconsistent")
    f_red = f.sub(coboundary(g))
    if not is_reduced(f_red):
        raise SolveFailed("reduction produced a non-reduced cochain")
    return g, f_red


# --- sl(2) restriction ------------------------------------------------------

def restrict_sl2(f):
    """Drop every monomial containing an odd generator."""
    vals = {u: v for u, v in f.values.items()
            if all(g in SL2 for g in u)}
    return Cochain(f.mod, f.degree, f.parity, vals, SL2)


# --- cup product ------------------------------------------------------------

def _slot_op(f, gen):
    vec = f.values.get((gen,))
    return to_oppoly(vec) if vec else to_oppoly({})


def cup(f, h):
    """Operator-composition cup product of two 1-cochains.

    f maps into operators from lam2- to mu-densities, h into operators
    from lam1- to lam2-densities; the product is the 2-cochain
    (U,V) -> f(U) o h(V) - (-1)^{UV} f(V) o h(U) into the lam1-to-mu
    module, with the printed sign. h must be even: for an even h the
    Koszul signs weighted by the cochain parities are these same
    signs, so there is one convention. When both factors are cocycles
    the product is checked to be one (NoCocycle otherwise).
    """
    if f.degree != 1 or h.degree != 1:
        raise ValueError("cup factors must be 1-cochains")
    if h.parity:
        raise ValueError("the second cup factor must be even")
    if h.mod.mu != f.mod.lam:
        raise TypeMismatch(
            f"factor modules do not compose: {h.mod} then {f.mod}")
    ops = {}
    max_k = 0
    for mono in monomial_basis(2):
        u, v = mono
        fu_hv = _slot_op(f, u).compose(_slot_op(h, v))
        fv_hu = _slot_op(f, v).compose(_slot_op(h, u))
        op = fu_hv + fv_hu if PARITY[u] * PARITY[v] else fu_hv - fv_hu
        if not op.is_zero():
            ops[mono] = op
            max_k = max(max_k, op.max_dx_order() + 1)
    mod_out = TruncatedDlm(h.mod.lam, f.mod.mu, max(3, max_k))
    vals = {mono: from_oppoly(op, mod_out) for mono, op in ops.items()}
    result = Cochain(mod_out, 2, f.parity, vals)
    if (coboundary(f).is_zero() and coboundary(h).is_zero()
            and not coboundary(result).is_zero()):
        raise NoCocycle("the cup product of two cocycles is not a cocycle")
    return result


# --- explicit cocycle constructors ------------------------------------------

def _reduced_cocycle_space(mod, slots):
    """Weight-0 cocycles supported on the given 1-slots, as Cochains."""
    t = mod.twice_shifted(0)
    skip = {index for index, u, _ in _basis(mod, t, 1, GENS)
            if u[0] not in slots}
    return _kernel_cochains(mod, 1, t, GENS, skip)


def _normalized(f, slot, bv):
    vec = f.values.get((slot,), {})
    lead = vec.get(bv)
    if not lead:
        raise NoCocycle(f"expected a {bv} term on the {slot} slot")
    return f.scale(1 / lead)


def slot_ratios(f, template):
    """Per-slot factors r with f(slot) = r * template(slot), exactly.

    Raises NoCocycle when some slot is not proportional to the template
    or the supports differ.
    """
    ratios = {}
    slots = set(template) | {u[0] for u in f.values}
    for slot in sorted(slots):
        have = f.values.get((slot,), {})
        want = template.get(slot, {})
        if not want:
            if have:
                raise NoCocycle(f"unexpected support on slot {slot}")
            continue
        if set(have) != set(want):
            raise NoCocycle(f"slot {slot} support differs from template")
        vals = {have[bv] / want[bv] for bv in want}
        if len(vals) != 1:
            raise NoCocycle(f"slot {slot} not proportional to template")
        ratios[slot] = vals.pop()
    return ratios


def h_lambda_template():
    """Reference slots of the lam = mu generating 1-cocycle."""
    return {
        "H": {("a", 0, 0): Fraction(-1)},
        "B": {("c", 0, 0): Fraction(1)},
        "Y": {("a", 1, 0): Fraction(-2)},
    }


def f_k_template(k):
    return {
        "H": {("d", 0, k): Fraction(1)},
        "B": {("b", 0, k): Fraction(1)},
        "Y": {("d", 1, k): Fraction(2)},
    }


def ftilde_k_template(k):
    y_slot = {("c", 0, k): Fraction(2)}
    if k:
        y_slot[("d", 0, k - 1)] = Fraction(-2 * k)
    return {
        "B": {("a", 0, k): Fraction(1)},
        "Y": y_slot,
    }


def make_h_lambda(lam):
    """The reduced generating 1-cocycle of D_{lam,lam}, on K = 3.

    Slot support matches the reference template (zero on X and A, the
    H/B/Y slots proportional to id, theta, x); coefficients are solved
    from the cocycle equations and normalized so the B slot equals the
    reference. Returns (cochain, per-slot ratios to the reference).
    """
    mod = TruncatedDlm(lam, lam, 3)
    space = _reduced_cocycle_space(mod, ("H", "B", "Y"))
    if len(space) != 1:
        raise NoCocycle(
            f"expected a single reduced cocycle, found {len(space)}")
    f = _normalized(space[0], "B", ("c", 0, 0))
    return f, slot_ratios(f, h_lambda_template())


def _special_module(k):
    """D_{-k/2,(k+1)/2} on K = max(3, k + 1)."""
    return TruncatedDlm(Fraction(-k, 2), Fraction(k + 1, 2), max(3, k + 1))


def make_f_k(k):
    """The odd reduced 1-cocycle with nonzero H slot of D_{-k/2,(k+1)/2}."""
    mod = _special_module(k)
    space = _reduced_cocycle_space(mod, ("H", "B", "Y"))
    if len(space) != 2:
        raise NoCocycle(
            f"expected a 2-dimensional cocycle space, found {len(space)}")
    v1, v2 = space
    a1 = v1.values.get(("B",), {}).get(("a", 0, k), Fraction(0))
    a2 = v2.values.get(("B",), {}).get(("a", 0, k), Fraction(0))
    if a1 == 0 and a2 == 0:
        raise NoCocycle("cannot separate the two cocycle classes")
    if a1 == 0:
        f = v1
    elif a2 == 0:
        f = v2
    else:
        f = v2.add(v1, -a2 / a1)
    f = _normalized(f, "B", ("b", 0, k))
    return f, slot_ratios(f, f_k_template(k))


def make_ftilde_k(k):
    """The odd reduced 1-cocycle with zero H slot of D_{-k/2,(k+1)/2}."""
    mod = _special_module(k)
    space = _reduced_cocycle_space(mod, ("B", "Y"))
    if len(space) != 1:
        raise NoCocycle(
            f"expected a single H-free cocycle, found {len(space)}")
    f = _normalized(space[0], "B", ("a", 0, k))
    return f, slot_ratios(f, ftilde_k_template(k))


# --- serialization ----------------------------------------------------------

def cochain_to_json(f):
    return {
        "degree": f.degree,
        "parity": f.parity,
        "universe": "sl2" if tuple(f.universe) == SL2 else "osp",
        "lambda": str(f.mod.lam),
        "mu": str(f.mod.mu),
        "K": f.mod.K,
        "values": {monomial_str(u): vec_to_json(v)
                   for u, v in sorted(f.values.items())},
    }
