"""The truncated weight module of differential operators on densities.

Basis operators, with p = mu - lambda:

    a_{m,k} = x^m dx^k                    (even, weight k-m-p)
    b_{m,k} = x^m theta dtheta dx^k       (even, weight k-m-p)
    c_{m,k} = x^m theta dx^k              (odd,  weight k-m-p-1/2)
    d_{m,k} = x^m dtheta dx^k - x^m theta dx^{k+1}
                                          (odd,  weight k-m-p+1/2)

The H, A and B actions are the tabulated first-order rows;
X and Y act through the odd generators as X = A o A and Y = -B o B,
which are forced by [A,A] = 2X and [B,B] = -2Y and keep the module
axiom an identity instead of a separate assumption. No row ever
increases k, so cutting at k <= K yields a genuine submodule on which H
is diagonal and A is onto, and D^{<=K}/D^{<=K0} is a module too.

Weight slices are finite (at most `stride` = 2(K - max(K0, -1)) vectors)
because fixing the weight pins m as a function of k within each family.
A slice is keyed by the int t = 2(alpha + p) (`twice_shifted`) alone:
the family shifts put a, b at even t and c, d at odd t, so a slice holds
one parity, t mod 2 (`twice_weight_basis`), and no other layer decides it.

The first-order rows are tabulated once, in integers:
`TruncatedDlm.scaled_act_basis` gives D * g.bv for g in H, A and B as
(BasisVector, int) pairs, with D = `action_scale`. Its entries are
built from the integers D, D * 2lam and D * 2p, which are exact
because den(2lam) and den(2p) divide L; H acts on the slice t by
D * alpha = (D t - D 2p) / 2 (`scaled_weight`). This table is the one
definition of the action; a module with another action overrides it.

A module keeps, in its own slots, everything its blocks read: the
weight slices, the weight chains built on them (`cochains`, which files
each degree's ranks with its chain), the integer stencils of the action
on the slices, and the images read back off them. Nothing of it is
shared between modules, so nothing in it is keyed by more than the
slice, and it is freed with the module. A stencil holds a generator's
images on one slice by slice positions; for H, A and B it is read off
the table, and X and Y are composed on the A and B stencils, in
integers on slice positions:

    D * X.bv =  (A_D o A_D)(bv) / D,    D * Y.bv = -(B_D o B_D)(bv) / D,

with g_D = D * g. The numerators are D^2 * X.bv and D^2 * Y.bv, so each
division is exact as soon as D * X.bv and D * Y.bv are integer vectors.
For D_{lambda,mu} that holds with D = 2 L^2 (`action_scale`): A's
coefficients are integers and B's lie in (1/L)Z, so B o B needs only L^2.
Every quotient is still checked with divmod, and a remainder raises
NonIntegralScale, as does a table entry that is not an int; nothing is
rounded. The composition uses nothing but the odd action, so it serves
any osp(1|2) module that tabulates H, A and B. `image` reads it back,
and the self-test compares those images, scale included, with the
realization oracle (`superdiff.derived_module_action`), the independent
check of the table, so the oracle sees exactly the entries the blocks
use.

The stencil composition (`_compose`) is the only composition of the
action in the program: X and Y are built on it, and so is
`module_axiom_holds`, which checks the module axiom one slice at a time
on the stencils, each defect scaled by T * D^2, with T the lcm of the
bracket table's denominators, so that it is an integer vector.
`kernel_slice` and `check_a_onto`, which the closed-form predictions
read, rank the same stencils in integers on the int-keyed slices, and
the Casimir 2 D^2 z (`casimir`) is composed on them too, once per slice,
and kept with them.
"""

from fractions import Fraction
from math import lcm

from . import Mismatch, linalg
from .algebra import GENS, PARITY, WEIGHT
from .superdiff import OpPoly

FAMILIES = ("a", "b", "c", "d")
FAMILY_PARITY = {"a": 0, "b": 0, "c": 1, "d": 1}
# weight(family_{m,k}) = k - m - p + FAMILY_SHIFT[family]
FAMILY_SHIFT = {
    "a": Fraction(0),
    "b": Fraction(0),
    "c": Fraction(-1, 2),
    "d": Fraction(1, 2),
}
_SHIFT2 = {f: int(2 * s) for f, s in FAMILY_SHIFT.items()}


class TruncationViolation(ValueError):
    pass


class NonIntegralScale(Mismatch):
    """A scaled action coefficient is not an integer; nothing is rounded."""


def vec_add(target, src, coeff=Fraction(1)):
    """target += coeff * src for {BasisVector: Fraction} dicts."""
    if not coeff:
        return target
    for bv, v in src.items():
        s = target.get(bv, Fraction(0)) + coeff * v
        if s:
            target[bv] = s
        else:
            del target[bv]
    return target


def vec_scale(src, coeff):
    if not coeff:
        return {}
    coeff = Fraction(coeff)
    return {bv: coeff * v for bv, v in src.items()}


def vec_to_json(vec):
    """[["a", m, k, "num/den"], ...] in deterministic order."""
    out = []
    for bv in sorted(vec, key=lambda t: (FAMILIES.index(t[0]), t[1], t[2])):
        f, m, k = bv
        out.append([f, m, k, str(vec[bv])])
    return out


class TruncatedDlm:
    """D_{lambda,mu} truncated to dx-order k <= K, and for K0 >= 0 its
    quotient by D^{<=K0}: the basis is K0 < k <= K, and the action terms
    that land at k <= K0 are dropped (`stencil`).

    The module keeps everything its blocks read, built on first use: its
    weight slices (`slice`, filed in `slices`), the integer stencils of
    the action on them (`stencil`), the images read back off those
    (`image`), and the weight chains that `cochains` files in `chains`.
    Nothing of it is shared with another module, and nothing in it
    refers back to the module, so it goes with the module.
    """

    __slots__ = ("lam", "mu", "K", "K0", "p", "_ints", "stride", "slices",
                 "chains", "_stencils", "_images")

    def __init__(self, lam, mu, K, K0=-1):
        self.lam = Fraction(lam)
        self.mu = Fraction(mu)
        self.K, self.K0 = int(K), int(K0)
        self.p = self.mu - self.lam
        self.stride = 2 * (self.K - max(self.K0, -1))
        # D, D * 2lam and D * 2p: integers, as den(2lam) and den(2p)
        # divide L (see action_scale)
        D = action_scale(self)
        self._ints = (D, (D * 2 * self.lam).numerator,
                      (D * 2 * self.p).numerator)
        self.slices, self.chains, self._stencils, self._images = \
            {}, {}, {}, {}

    def __repr__(self):
        cut = f", K0={self.K0}" if self.K0 >= 0 else ""
        return f"TruncatedDlm(lam={self.lam}, mu={self.mu}, K={self.K}{cut})"

    def __eq__(self, other):
        # exact types: a subclass may override the action
        return (type(other) is type(self)
                and (self.lam, self.mu, self.K, self.K0)
                == (other.lam, other.mu, other.K, other.K0))

    def __hash__(self):
        return hash((self.lam, self.mu, self.K, self.K0))

    def scaled_act_basis(self, gen, bv):
        """D * gen.bv for gen in H, A and B, as (BasisVector, int) pairs.

        D = action_scale(self). This table is the one definition of the
        action, and `stencil` reads it directly; X and Y are composed on
        its stencils (`_square_stencil`). A module with another action
        overrides it.
        """
        f, m, k = bv
        if k > self.K:
            raise TruncationViolation(f"{bv} exceeds K={self.K}")
        D, lam2, p2 = self._ints
        if gen == "H":
            w = self.scaled_weight(self.twice_shifted_weight(bv))
            return ((bv, w),) if w else ()
        if gen == "A":
            if f == "a":
                return ((("c", m - 1, k), D * m),) if m else ()
            if f == "b":
                return ((("d", m, k), D),)
            if f == "c":
                return ((("a", m, k), D),)
            return ((("b", m - 1, k), D * m),) if m else ()
        if gen != "B":
            raise ValueError(f"no first-order row for generator {gen!r}")
        out = []
        if f == "a":
            c1 = D * (m - 2 * k) + p2
            if c1:
                out.append((("c", m, k), c1))
            if k:
                out.append((("d", m, k - 1), -D * k))
        elif f == "b":
            out.append((("d", m + 1, k), D))
            c1 = lam2 + D * k
            if c1:
                out.append((("c", m, k), -c1))
        elif f == "c":
            out.append((("a", m + 1, k), D))
            if k:
                out.append((("b", m, k - 1), D * k))
        else:
            c1 = D * (m - 2 * k - 1) + p2
            if c1:
                out.append((("b", m, k), c1))
            c2 = lam2 + D * k
            if c2:
                out.append((("a", m, k), c2))
        return tuple(out)

    def scaled_weight(self, t):
        """D * alpha for the weight alpha of the slice t = 2(alpha + p).

        H acts on that slice as alpha times the identity. D * t and
        D * 2p are even (D = 2L^2), so the halving is exact.
        """
        D, _, p2 = self._ints
        return (D * t - p2) // 2

    def twice_shifted(self, alpha):
        """t = 2(alpha + p) as an int, or None when no vector has weight
        alpha."""
        t = 2 * (alpha + self.p)
        return t.numerator if t.denominator == 1 else None

    def weight_basis(self, alpha, parity=None):
        """All basis vectors of weight alpha with k <= K, family-major;
        [] for a parity other than the one the slice holds."""
        t = self.twice_shifted(alpha)
        held = t is not None and parity in (None, t % 2)
        return self.twice_weight_basis(t) if held else []

    def twice_shifted_weight(self, bv):
        """The int t = 2(weight(bv) + p) of the slice holding bv, the
        inverse of `twice_weight_basis`."""
        f, m, k = bv
        return 2 * (k - m) + _SHIFT2[f]

    def twice_weight_basis(self, t):
        """weight_basis(alpha) for the int t = 2(alpha + p): the even
        families at even t, the odd ones at odd t (the family shifts)."""
        out = []
        for f in FAMILIES:
            s, odd = divmod(t - _SHIFT2[f], 2)   # s = k - m
            if odd:
                continue
            for k in range(max(0, s, self.K0 + 1), self.K + 1):
                out.append((f, k - s, k))
        return out

    def slice(self, t):
        """{BasisVector: position} of twice_weight_basis(t), at most
        `stride` long (TruncationViolation otherwise)."""
        hit = self.slices.get(t)
        if hit is None:
            basis = self.twice_weight_basis(t)
            if len(basis) > self.stride:
                raise TruncationViolation(f"slice {t} is longer than the "
                                          f"stride {self.stride}")
            hit = self.slices[t] = {bv: i for i, bv in enumerate(basis)}
        return hit

    def stencil(self, gen, t):
        """D * gen's images on the slice t, one tuple per vector, of
        (position in the slice t + 2 wt(gen), int) pairs by increasing
        position: the table (`scaled_act_basis`) for H, A and B, less the
        terms at k <= K0, composed on the A and B stencils for X and Y
        (`_square_stencil`), and 2 D^2 z (`casimir`) for gen = "z"."""
        hit = self._stencils.get((gen, t))
        if hit is None:
            if gen == "z":
                hit = casimir(self, t)
            elif gen in _SQUARES:
                hit = self._square_stencil(gen, t)
            else:
                pos = self.slice(t + TWICE_WEIGHT[gen])
                rows = []
                for bv in self.slice(t):
                    row = []
                    for tbv, x in self.scaled_act_basis(gen, bv):
                        if tbv[2] <= self.K0:
                            continue
                        if type(x) is not int:
                            raise NonIntegralScale(
                                f"{gen}.{bv} has scaled coefficient "
                                f"{x!r}, not an int")
                        row.append((pos[tbv], x))
                    row.sort()
                    rows.append(tuple(row))
                hit = tuple(rows)
            self._stencils[(gen, t)] = hit
        return hit

    def image(self, gen, bv):
        """D * gen.bv as (BasisVector, int) pairs, read back off the
        stencil of bv's slice (for the whole slice at once)."""
        img = self._images.get((gen, bv))
        if img is None:
            t = self.twice_shifted_weight(bv)
            source = self.slice(t)
            if bv not in source:
                raise TruncationViolation(f"{bv} is not a vector of {self}")
            target = tuple(self.slice(t + TWICE_WEIGHT[gen]))
            for b, row in zip(source, self.stencil(gen, t)):
                self._images[(gen, b)] = tuple((target[i], x)
                                               for i, x in row)
            img = self._images[(gen, bv)]
        return img

    def _square_stencil(self, gen, t):
        # D * gen.bv = sign * (odd_D o odd_D)(bv) / D on the slice, in
        # integers on slice positions
        odd, sign = _SQUARES[gen]
        D = self._ints[0]
        first = self.stencil(odd, t)
        second = self.stencil(odd, t + TWICE_WEIGHT[odd])
        out = []
        for i, acc in enumerate(_compose(first, second)):
            img = []
            for k, v in sorted(acc.items()):
                q, r = divmod(sign * v, D)
                if r:
                    bv = list(self.slice(t))[i]
                    tbv = list(self.slice(t + TWICE_WEIGHT[gen]))[k]
                    c = Fraction(sign * v, D ** 2)
                    raise NonIntegralScale(
                        f"{gen}.{bv} has coefficient {c} at {tbv}, not "
                        f"in (1/{D})Z")
                if q:
                    img.append((k, q))
            out.append(tuple(img))
        return tuple(out)

    def kernel_slice(self, gens, t):
        """Integer basis of the joint kernel of `gens` on the slice t.

        t = 2(alpha + p) is an int (`twice_shifted`). The stencils of
        `gens` on the slice give each basis vector one integer column (a
        row per generator and target position), and the null space of
        those columns is taken in integers (`linalg.int_kernel_basis`);
        the scale D changes no kernel. Returns {BasisVector: int} vectors,
        one per free column of the unique reduced echelon form.
        """
        basis = list(self.slice(t))
        cols = [{} for _ in basis]
        row0 = 0
        for g in gens:
            for col, row in zip(cols, self.stencil(g, t)):
                for i, x in row:
                    col[row0 + i] = x
            row0 += len(self.slice(t + TWICE_WEIGHT[g]))
        return [{basis[c]: x for c, x in v.items()}
                for v in linalg.int_kernel_basis(cols)]

    def kernel_weights(self):
        """The slices t = 2(alpha + p) that hold m = 0 vectors (k <= K),
        increasing.

        Kernels of the raising/odd generators consist of m = 0 vectors
        only (every action row on an m > 0 vector keeps an m >= 1 tail
        with a nonzero coefficient m), so scanning these slices sees
        every kernel element.
        """
        return sorted({2 * k + s for s in _SHIFT2.values()
                       for k in range(self.K + 1)})

    def check_a_onto(self):
        """rank(A : M^t -> M^{t+1}) == dim M^{t+1} on the kernel slices.

        Ranked in integers on the A stencils.
        """
        for t in self.kernel_weights():
            rows = [dict(row) for row in self.stencil("A", t)]
            if len(linalg.int_pivots(rows)) != len(self.slice(t + 1)):
                return False
        return True


def action_scale(mod):
    """A common denominator of every action coefficient of `mod`.

    With L = lcm(den 2lam, den 2p): B's coefficients lie in (1/L)Z, so
    Y = -B o B needs L^2, and H's weights k - m - p + shift need 2L.
    """
    L = lcm((2 * mod.lam).denominator, (2 * mod.p).denominator)
    return 2 * L * L


def _compose(first, second):
    """The rows of second o first on one slice, as {position: int} dicts.

    `first` holds one generator's stencil on a slice and `second`
    another's on the slice the first maps into; row i is
    sum_j x_ij * second[j], by position in the slice the second maps
    into. X and Y are built on it, and so is the module-axiom check.
    """
    out = []
    for row in first:
        acc = {}
        for j, x in row:
            for k, y in second[j]:
                acc[k] = acc.get(k, 0) + x * y
        out.append(acc)
    return out


# X = A o A and Y = -B o B: (odd generator, sign)
_SQUARES = {"X": ("A", 1), "Y": ("B", -1)}
TWICE_WEIGHT = {g: int(2 * w) for g, w in WEIGHT.items()}


def casimir(mod, t):
    """2 D^2 z on the slice t, as stencil rows, for the Casimir
    z = H^2 + XY + AB/2 - H/2 and D = action_scale(mod).

    XY and AB are composed on the module's stencils by `_compose`, and H
    acts on the slice by its weight (`TruncatedDlm.scaled_weight`). The
    module keeps the result as the stencil of "z", so each slice
    composes it once.
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
    module's stencils of z (`casimir`)."""
    z = mod.stencil("z", t)
    for g in ("A", "B"):
        st = mod.stencil(g, t)
        after = mod.stencil("z", t + TWICE_WEIGHT[g])
        for zg, gz in zip(_compose(st, after), _compose(z, st)):
            if any(zg.get(k, 0) != gz.get(k, 0) for k in {*zg, *gz}):
                return False
    return True


def module_axiom_holds(mod, table):
    """Check the module axiom on all generator pairs and every vector of
    the slices t in [-2K-1, 2K+1].

    The defect of (u, v, w) is [u,v].w - (u.(v.w) - (-1)^{uv} v.(u.w));
    the predicate is "every defect over these inputs is zero", which
    the tests also evaluate in Fractions (`action_compat_defect` in
    tests_support_dense). The slices are those that hold the vectors
    with m <= K: t = 2(k - m) + shift lies in [-2K-1, 2K+1] for them.
    A table fills [v,u] in by graded antisymmetry, so the defect of
    (v, u) is -(-1)^{uv} times that of (u, v), and the pairs u <= v in
    GENS order decide it; on an even diagonal it is 0.

    It is decided in integers, one slice at a time, on the module's
    stencils: with D = action_scale(mod) (a stencil holds D * g)
    and T the lcm of the denominators of the table's bracket
    coefficients, T * D^2 * defect is an integer row, zero iff the
    defect is. D * u o D * v is composed on a slice's stencils by
    `_compose`, on which X and Y are built too. A bracket term whose
    weight is not wt(u) + wt(v) (only a table that breaks weight
    additivity has one) maps into a slice that nothing else reaches, so
    there the defect is zero only if that term's images are.
    """
    T, brackets = table.scaled_brackets()
    pairs = [(u, v) for i, u in enumerate(GENS) for v in GENS[i:]
             if u != v or PARITY[u]]
    for t in range(-2 * mod.K - 1, 2 * mod.K + 2):
        rows = {g: mod.stencil(g, t) for g in GENS}

        def twice(u, v):
            # D^2 * u.(v.bv) for every vector bv of the slice
            return _compose(rows[v], mod.stencil(u, t + TWICE_WEIGHT[v]))

        for u, v in pairs:
            # T * D * [u,v], so that its terms meet D * g.bv
            bracket = []
            for g, c in brackets[(u, v)]:
                if TWICE_WEIGHT[g] == TWICE_WEIGHT[u] + TWICE_WEIGHT[v]:
                    bracket.append((rows[g], c * mod._ints[0]))
                elif any(rows[g]):
                    return False
            sign = -T if PARITY[u] and PARITY[v] else T
            for i, (uv, vu) in enumerate(zip(twice(u, v), twice(v, u))):
                defect = {k: -T * x for k, x in uv.items()}
                for k, x in vu.items():
                    defect[k] = defect.get(k, 0) + sign * x
                for stencil, c in bracket:
                    for k, x in stencil[i]:
                        defect[k] = defect.get(k, 0) + c * x
                if any(defect.values()):
                    return False
    return True


# --- conversions to and from operator polynomials -------------------------

def to_oppoly(vec):
    """ModuleVector -> normal-ordered operator polynomial."""
    terms = {}
    for (f, m, k), c in vec.items():
        if f == "a":
            contrib = (((m, 0, 0, k), c),)
        elif f == "b":
            contrib = (((m, 1, 1, k), c),)
        elif f == "c":
            contrib = (((m, 1, 0, k), c),)
        else:
            contrib = (((m, 0, 1, k), c), ((m, 1, 0, k + 1), -c))
        for key, val in contrib:
            s = terms.get(key, Fraction(0)) + val
            if s:
                terms[key] = s
            else:
                del terms[key]
    return OpPoly(terms)


def from_oppoly(op, mod):
    """Operator polynomial -> ModuleVector in the a/b/c/d basis.

    The dtheta monomials are resolved as (m,0,1,k) = d_{m,k} + c_{m,k+1}.
    Raises TruncationViolation when a required k exceeds mod.K.
    """
    vec = {}
    for (m, e1, e2, k), c in op.terms.items():
        if e1 and e2:
            vec_add(vec, {("b", m, k): c})
        elif e2:
            vec_add(vec, {("d", m, k): c, ("c", m, k + 1): c})
        elif e1:
            vec_add(vec, {("c", m, k): c})
        else:
            vec_add(vec, {("a", m, k): c})
    for (f, m, k) in vec:
        if k > mod.K:
            raise TruncationViolation(
                f"operator needs {f}[{m},{k}] beyond K={mod.K}")
    return vec
