"""Differential-Galois obstruction engine for y'' = r y over C(z).

Implements the pieces the nonintegrability pipeline needs: the rational
Riccati (case I) search specialized to Fuchsian equations, the case-II
algorithm (candidate exponent sets, Theta, the auxiliary polynomial P),
the case-III rationality screen, the product-of-solutions exclusion
through the second symmetric power, and the final classification of the
identity component.

Case I, case II and the product test each look for a polynomial P of
known degree killed by a linear operator, and one builder makes all
three: Kovacic's recursion (operator), at n = 1 for case I and at n = 2
for the other two.  The product test needs no operator of its own: for
v = P b with b'/b = Theta, the symmetric square of v applied and divided
by b is case II's operator on P, whose order-0 coefficient is Xi.  Theta
depends only on the finite exponents e_c (a base b has e_c = 2 s_c), so
the normal form keeps one n = 2 recursion table per tuple
(case2_operator) for case II and the product test together.  All three
find P by one elimination from infinity (_solve_P).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .exactfield import TowerContext, TowerScalar
from .linode import NormalFormODE, SingularitySpectrum, SingularPoint
from .ratcalc import (Poly, RatFunc, _log_sum, clear_denominators,
                      simple_pole_sum, split_off)


class KovacicError(Exception):
    pass


# ---------------------------------------------------------------------------
# Step 1: candidate integer sets E_c
# ---------------------------------------------------------------------------


def e_sets(spec: SingularitySpectrum) -> list[tuple[SingularPoint, tuple[int, ...]]]:
    """The finite integer menu at every singular point, infinity last."""
    return [(pt, _e_set(pt)) for pt in spec.finite_points + (spec.infinity,)]


def _e_set(pt: SingularPoint) -> tuple[int, ...]:
    if pt.order == 2:
        return tuple(sorted(_delta_menu(pt, 2)))
    if pt.is_infinity:
        return (0, 2, 4) if pt.order <= 1 else (4 - pt.order,)
    return (4,) if pt.order == 1 else (pt.order,)


def _delta_menu(pt: SingularPoint, scale: int) -> set[int]:
    """scale together with the integers among scale (1 +- delta) at an
    order-2 point with rational delta."""
    vals = {scale}
    if pt.delta_rational is not None:
        for s in (1, -1):
            cand = scale * (1 + s * pt.delta_rational)
            if cand.denominator == 1:
                vals.add(int(cand))
    return vals


# ---------------------------------------------------------------------------
# Step 2: admissible assignments with d(e) a nonnegative integer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ECandidate:
    finite: tuple[tuple[TowerScalar, int], ...]   # (location, e_c)
    e_infinity: int
    d: Fraction

    def render(self) -> str:
        es = ", ".join(str(e) for _, e in self.finite)
        return f"e = ({es}; {self.e_infinity}), d = {self.d}"


def candidates(esets: Sequence[tuple[SingularPoint, tuple[int, ...]]]) -> list[ECandidate]:
    """Cartesian enumeration filtered to d(e) = (e_inf - sum e_c)/2 in Z>=0."""
    finite = [(pt, menu) for pt, menu in esets if not pt.is_infinity]
    inf_menu = next(menu for pt, menu in esets if pt.is_infinity)
    out = []
    for choice in itertools.product(*(menu for _, menu in finite)):
        total = sum(choice)
        for e_inf in inf_menu:
            d = Fraction(e_inf - total, 2)
            if d >= 0 and d.denominator == 1:
                out.append(ECandidate(
                    tuple((pt.location, e) for (pt, _), e in zip(finite, choice)),
                    e_inf, d))
    out.sort(key=lambda c: (c.e_infinity, tuple(e for _, e in c.finite)))
    return out


# ---------------------------------------------------------------------------
# Step 3: Theta, Kovacic's operator and the auxiliary polynomial
# ---------------------------------------------------------------------------


def theta(ctx: TowerContext, e: ECandidate) -> RatFunc:
    """Theta = 1/2 sum e_c / (z - c) over the finite singular points."""
    return _theta(ctx, e.finite)


def _theta(ctx: TowerContext, finite) -> RatFunc:
    return simple_pole_sum(ctx, {loc: Fraction(ec, 2) for loc, ec in finite})


def operator(normal: NormalFormODE, th: RatFunc, n: int, d: int,
             rows: Optional[list[list[RatFunc]]] = None) -> list[RatFunc]:
    """a_0 ... a_m, m = min(d, n + 1), of Kovacic's monic operator
    L(P) = sum a_j P^(j) for n and theta = th: as much of L as a P of
    degree d feels.

    Kovacic's recursion P_n = -P, P_(i-1) = -P_i' - th P_i -
    (n - i)(i + 1) r P_(i+1) ends in P_(-1) = (-1)^n L(P).  n = 1 at
    th = phi gives case I's P'' + 2 phi P' + (phi' + phi^2 - r) P, and
    n = 2 at th = Theta case II's P''' + 3 Th P'' + (3 Th^2 + 3 Th' - 4 r) P'
    + Xi P.  rows[k] holds P_(n-1-k), from P_(n-1) = P' + th P on, as its
    coefficients of P, P', ... (its columns); P_n stays implicit.  Column j
    of P_(i-1) reads only columns j - 1 and j of P_i and P_(i+1), so the
    table grows one column at a time, in place when rows is given."""
    r = normal.r
    ctx = r.ctx
    m = min(d, n + 1)
    if rows is None:
        rows = [[] for _ in range(n + 1)]
    for j in range(len(rows[0]), m + 1):
        rows[0].append(th if j == 0 else RatFunc.constant(ctx, int(j == 1)))
        for i in range(n - 1, -1, -1):
            row = rows[n - 1 - i]
            out = -(row[j].derivative() + th * row[j])
            if j:
                out = out - row[j - 1]
            up = rows[n - 2 - i][j] if i < n - 1 else RatFunc.constant(ctx, -int(j == 0))
            rows[n - i].append(out - RatFunc.constant(ctx, (n - i) * (i + 1)) * r * up)
    coeffs = rows[n][:m + 1]
    return [-a for a in coeffs] if n % 2 else coeffs


def xi(normal: NormalFormODE, th: RatFunc) -> RatFunc:
    """Xi = Theta'' + 3 Theta Theta' + Theta^3 - 4 r Theta - 2 r', the
    order-0 coefficient of case II's operator."""
    return operator(normal, th, 2, 0)[0]


def case2_operator(normal: NormalFormODE, finite: tuple[tuple[TowerScalar, int], ...],
                   d: int) -> list[RatFunc]:
    """Case II's operator at Theta of the finite exponents ((c, e_c), ...),
    as much of it as a P of degree d feels.  Neither depends on e_infinity,
    so normal.memo keeps one (Theta, recursion table) per tuple, its table
    grown in place when a later d needs more columns."""
    if finite not in normal.memo:
        normal.memo[finite] = _theta(normal.r.ctx, finite), [[] for _ in range(3)]
    th, rows = normal.memo[finite]
    return operator(normal, th, 2, d, rows)


@dataclass(frozen=True)
class Case2Solution:
    e: ECandidate
    P: Poly


def _solve_P(coeffs: Sequence[RatFunc], d: int,
             unique: bool = False) -> Optional[Poly]:
    """Monic P = sum p_k z^k of degree d with L(P) = sum_j a_j P^(j) = 0,
    a_j = coeffs[j], or None (also None when unique is set and the
    solution is not unique).

    The a_j are cleared over their common denominator D, D a_j = N_j, and
    D L(P) = sum_k p_k sum_j k!/(k-j)! N_j z^(k-j) = 0 is read into one row
    per power of z, a dict of coefficients by k (p_d = 1 is known); orders
    j > d never contribute.  The rows are eliminated from infinity down, as
    the recurrence for a polynomial solution runs (Abramov, Bronstein and
    Petkovsek, ISSAC 1995): each is reduced by the pivots found so far,
    then pivots on its highest remaining unknown p_k or, with none left,
    must vanish.  At most one p_k per root below d of the indicial
    polynomial at infinity is left without a pivot; such free p_k are set
    to 0, and the solution is unique exactly when none is left."""
    ctx = coeffs[0].ctx
    rows: dict[int, dict] = {}
    for j, n in enumerate(clear_denominators(coeffs[:d + 1])):
        cs = n.coeffs
        for k in range(j, d + 1):
            scale = ctx.from_rational(math.perm(k, j))
            for m, c in enumerate(cs, k - j):
                row = rows.setdefault(m, {})
                row[k] = row[k] + scale * c if k in row else scale * c
    pivots: dict[int, dict] = {}    # p_k = -sum a_i p_i over {i: a_i}, i < k or d
    for m in sorted(rows, reverse=True):
        row = rows[m]
        while (k := max((i for i, v in row.items() if i < d and not v.is_zero()),
                        default=None)) in pivots:
            f = row.pop(k)
            for i, a in pivots[k].items():
                row[i] = row[i] - f * a if i in row else -(f * a)
        if k is None:
            if not row.get(d, ctx.zero).is_zero():     # a nonzero multiple of p_d = 1
                return None
        else:
            inv = row.pop(k).inverse()
            pivots[k] = {i: v * inv for i, v in row.items() if not v.is_zero()}
    if unique and len(pivots) < d:
        return None
    p = [ctx.zero] * d + [ctx.one]
    for k in sorted(pivots):
        p[k] = -sum((a * p[i] for i, a in pivots[k].items()), ctx.zero)
    return Poly(ctx, p)


def search_P(normal: NormalFormODE, e: ECandidate) -> Optional[Case2Solution]:
    """Monic P of degree d(e) solving
    P''' + 3 Th P'' + (3 Th^2 + 3 Th' - 4 r) P' + Xi P = 0, or None."""
    if e.d < 0 or e.d.denominator != 1:
        return None
    d = int(e.d)
    p_poly = _solve_P(case2_operator(normal, e.finite, d), d)
    return None if p_poly is None else Case2Solution(e, p_poly)


# ---------------------------------------------------------------------------
# Case I: rational Riccati solutions via the Fuchsian exponent ansatz
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiccatiSolution:
    """y1 = P prod (z - c)^rho_c, a solution of y'' = r y with omega =
    y1'/y1 rational, held as its exponent map and the cofactor Q of P.

    ``poles`` maps each finite singular point c where y1 has a non-zero
    exponent to w_c = rho_c + k_c, k_c the multiplicity of c as a root of
    P, and Q = P / prod (z - c)^k_c.  y1 has only simple zeros at ordinary
    points, so Q is squarefree, and omega = sum w_c/(z - c) + Q'/Q is
    (T Q + S Q') / (S Q) for (S, T) = _log_sum(poles) in lowest terms: at
    a root c of S the numerator is T(c) Q(c) != 0, at a root of Q it is
    S Q' != 0.  Q's roots are not known, so omega is never a RatFunc."""
    exponent_choices: tuple[tuple[TowerScalar, Fraction], ...]
    infinity_exponent: Fraction
    P: Poly
    poles: tuple[tuple[TowerScalar, Fraction], ...] = field(init=False)
    Q: Poly = field(init=False)

    def __post_init__(self):
        moved, q = split_off(self.P, [c for c, _ in self.exponent_choices])
        poles = tuple((c, rho + moved.get(c, 0)) for c, rho in self.exponent_choices
                      if rho + moved.get(c, 0))
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "Q", q)

    def denominator_lcm(self) -> int:
        """Smallest m with m * (every chosen exponent) integral."""
        return math.lcm(self.infinity_exponent.denominator,
                        *(rho.denominator for _, rho in self.exponent_choices))

    def omega(self) -> tuple[Poly, Poly]:
        """(num, den) of omega in lowest terms, den monic."""
        q = self.Q
        s, t = _log_sum(q.ctx, dict(self.poles))
        return t * q + s * q.derivative(), s * q

    def render_omega(self) -> str:
        """omega as RatFunc.render writes a rational function."""
        num, den = self.omega()
        return f"({num.render()}) / ({den.render()})"


def case1_search(normal: NormalFormODE,
                 spec: SingularitySpectrum) -> list[RiccatiSolution]:
    """All solutions y = P(z) prod (z-c)^rho_c with rational exponents.

    A singular point whose exponent pair is not rational prunes the whole
    search: every candidate solution must realize an exponent there.
    Assignments whose linear system is underdetermined are skipped; such
    families are spanned by the solutions of other assignments.  Each
    omega is returned once: two solutions have the same omega exactly when
    they have the same exponent map and Q.
    """
    ctx = normal.r.ctx
    finite = spec.finite_points
    for pt in list(finite) + [spec.infinity]:
        if pt.exponents is None:
            return []
    solutions: list[RiccatiSolution] = []
    menus = [pt.exponents for pt in finite]
    for rho_choice in itertools.product(*menus) if menus else [()]:
        total = sum(rho_choice, Fraction(0))
        for sigma in spec.infinity.exponents:
            n = -sigma - total
            if n < 0 or n.denominator != 1:
                continue
            choices = tuple((pt.location, rho) for pt, rho in zip(finite, rho_choice))
            phi = simple_pole_sum(ctx, dict(choices))
            coeffs = operator(normal, phi, 1, int(n))
            p_poly = _solve_P(coeffs, int(n), unique=True)
            if p_poly is None:
                continue
            residual, dp = RatFunc.constant(ctx, 0), p_poly
            for a in coeffs:
                residual, dp = residual + a * RatFunc(dp), dp.derivative()
            if not residual.is_zero():
                raise KovacicError("internal: found P fails the case-I equation")
            sol = RiccatiSolution(choices, sigma, p_poly)
            # repeated-exponent menus (delta = 0) revisit the same solution
            if not any((prev.poles, prev.Q) == (sol.poles, sol.Q) for prev in solutions):
                solutions.append(sol)
    return solutions


# ---------------------------------------------------------------------------
# two-independent-solutions exclusion via the second symmetric power
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductCandidate:
    base_exponents: tuple[tuple[TowerScalar, int], ...]
    poly_degree: int
    solvable: bool
    residual_num_degree: Optional[int]        # for the rigid (degree-0) candidates
    residual_leading: Optional[TowerScalar]


@dataclass(frozen=True)
class PairExclusion:
    candidates: tuple[ProductCandidate, ...]
    excluded: bool                            # no rational y1*y2 exists


def _integer_sums(pt: SingularPoint) -> list[int]:
    """Integer options for the order of v = y1 y2 at a singular point."""
    if pt.order == 1:
        return [0, 1, 2]
    if pt.order == 2:
        return sorted(_delta_menu(pt, 1))
    return [1] if pt.order >= 1 else [0]


def pair_exclusion(normal: NormalFormODE, spec: SingularitySpectrum) -> PairExclusion:
    """Decide whether two independent rational-log-derivative solutions can
    exist: their product v = y1 y2 would be a rational function with
    constrained orders at the singular points and constrained growth at
    infinity; every admissible shape v = P b, b = prod (z - c)^s, is tested
    against the second symmetric power L(v) = v''' - 4 r v' - 2 r' v.

    L(P b)/b is case II's operator on P at Theta = b'/b, the Theta of e_c =
    2 s, so each base reads it from case2_operator.  A rigid candidate
    (P = 1) is solvable iff Xi = 0, and its residual is L(b) = b Xi."""
    ctx = normal.r.ctx
    finite = spec.finite_points
    menus = [_integer_sums(pt) for pt in finite]
    inf_pt = spec.infinity
    if inf_pt.exponents is not None:
        s1, s2 = inf_pt.exponents
        growth_options = sorted({int(g) for g in (-2 * s1, -s1 - s2, -2 * s2)
                                 if g.denominator == 1})
    else:
        # exponent sum at infinity is -1 regardless, so the mixed product
        # always grows like z; individual doubles are not rational here
        growth_options = [1]
    found: list[ProductCandidate] = []
    any_solvable = False
    for s_choice in itertools.product(*menus) if menus else [()]:
        orders = tuple((pt.location, s) for pt, s in zip(finite, s_choice))
        base = tuple((c, 2 * s) for c, s in orders)
        base_deg = sum(s_choice)
        for g in growth_options:
            n = g - base_deg
            if n < 0:
                continue
            coeffs = case2_operator(normal, base, n)
            res_deg = res_lead = None
            if n == 0:
                solvable = coeffs[0].is_zero()
                if not solvable:
                    res = coeffs[0] * RatFunc.over(
                        Poly.from_roots(ctx, [(c, s) for c, s in orders if s > 0]),
                        {c: -s for c, s in orders if s < 0})
                    res_deg, res_lead = res.num.degree(), res.num.leading()
            else:
                solvable = _solve_P(coeffs, n) is not None
            any_solvable = any_solvable or solvable
            found.append(ProductCandidate(orders, n, solvable, res_deg, res_lead))
    return PairExclusion(tuple(found), not any_solvable)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


class Classification(Enum):
    FULL_TRIANGULAR_NONABELIAN = "FullTriangular_NonAbelian"
    DIAGONAL_OR_SMALLER_ABELIAN = "DiagonalOrSmaller_Abelian"
    SL2_NONABELIAN = "SL2_NonAbelian"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class GaloisVerdict:
    classification: Classification
    identity_component_abelian: Optional[bool]   # None = undetermined
    notes: tuple[str, ...]


def _point_nonreal_exponents(pt: SingularPoint) -> bool:
    """The exponents (1 +- delta)/2 are non-real exactly when the rational
    delta^2 is negative; any other delta^2 is refused, not screened."""
    q = pt.delta_squared.is_real_rational()
    if q is None:
        raise KovacicError("exponent reality undecided: delta^2 is not rational")
    return q < 0


def case3_possible(spec: SingularitySpectrum) -> bool:
    """Case III needs every exponent rational (algebraic solutions)."""
    return spec.all_deltas_rational()


def classify(normal: NormalFormODE, spec: SingularitySpectrum,
             case1: Sequence[RiccatiSolution],
             case2: Optional[Case2Solution],
             case_three: bool,
             pair_excluded: Optional[bool] = None) -> GaloisVerdict:
    """Decision table combining the collected evidence; G is the
    differential Galois group in SL2, G0 its identity component.

    - Two case-I solutions (case1_search's omegas are pairwise distinct):
      G fixes the two lines of y1 and y2, so G is diagonal and abelian.
    - One, at a point with non-real exponents: G fixes the line of y1 and
      no other (that would be a second case-I solution), so G is
      triangular and not diagonal, and a non-real exponent makes y1
      transcendental, so G0 is the full triangular group, not abelian.
      case1_search returns [] once an exponent is not rational, so this
      branch waits for a case I over the algebraic closure.
    - One, with every exponent rational: y1^m is rational for m the lcm of
      the exponent denominators, so G acts on y1 by m-th roots of unity and
      G0 lies in the unipotent group, which is abelian, whatever m is.
    - A case-II solution: G lies in the infinite dihedral group, so G0
      lies in the diagonal torus, abelian.
    - Case III possible (every exponent rational): G may be finite, and
      nothing is decided.
    - Otherwise SL2 needs the product test (pair_excluded) on top of an
      empty rational case-I search: without it a diagonal group with
      irrational exponent pairs is not excluded.  With it no case applies,
      so G = SL2, not abelian.
    """
    n1 = len(case1)
    if n1 >= 2:
        return GaloisVerdict(Classification.DIAGONAL_OR_SMALLER_ABELIAN, True, (
            "two independent solutions with rational log derivative",))
    if n1 == 1:
        if any(_point_nonreal_exponents(pt) for pt in spec.finite_points):
            return GaloisVerdict(Classification.FULL_TRIANGULAR_NONABELIAN, False, (
                "single rational-log-derivative solution and non-real exponents",))
        m = case1[0].denominator_lcm()
        return GaloisVerdict(Classification.INCONCLUSIVE, True, (
            f"y1^{m} is rational: proper triangular subgroup, "
            "abelian identity component",))
    if case2 is not None:
        return GaloisVerdict(Classification.INCONCLUSIVE, True, (
            "case II solution found: identity component inside the "
            "diagonal group, abelian",))
    if case_three:
        return GaloisVerdict(Classification.INCONCLUSIVE, None, (
            "all exponents rational: a finite group is not excluded",))
    if pair_excluded:
        return GaloisVerdict(Classification.SL2_NONABELIAN, False, (
            "no rational case-I solution, product test excludes a "
            "diagonalizable pair, case II empty, case III impossible",))
    return GaloisVerdict(Classification.INCONCLUSIVE, None, (
        "no obstruction evidence is complete without the product test",))
