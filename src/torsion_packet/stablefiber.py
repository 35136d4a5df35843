"""Nodal limit fibers and their differentials, certified by exact linear algebra.

A stable limit fiber here is a projective line with two pairs of points
identified; the limit of the holomorphic 1-form is a rational differential
sum(c_i/(z - p_i)) dz with simple poles at the node preimages.  This
module sets up the linear conditions on the residue coefficients c_i --
total residue zero, matching at nodes, prescribed vanishing orders at
marked points -- and computes the dimension of their solutions exactly,
as a rank over a cyclotomic field or over Q that divides no entry.  A
closed form is the generator of a one-dimensional space when it satisfies
every condition and its last residue is 1.  Claims over the fraction
field Q(x, y), where the node positions are symbolic, are certified by
specialization on a grid of integers (see ``certify_stratum2``).

Residue convention at a node (p, q): Res(p) + Res(q) = 0.  The displayed
limit differentials satisfy this anti-symmetric matching (their residues
at a node's two branches are opposite); only the ratio of residues feeds
the downstream exclusion argument, so the orientation convention is
recorded in reports rather than debated.

Vanishing orders at infinity are read off in the coordinate w = 1/z:
regularity requires sum(c_i) = 0 and each further vanishing order adds
one moment condition sum(c_i * p_i^j) = 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from .errors import ArithmeticInconsistencyError
from .exactnum import CyclotomicElem, QuadraticElem, i_tan, inv_one_minus_zeta, sign_of_real, tan_conductor


class _AtInfinity:
    """Marker for the point at infinity on the projective line; its one
    instance is ``INFINITY``, and every check is ``is INFINITY``."""

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _AtInfinity()

# Points compare with ==: CyclotomicElem, Fraction and the INFINITY
# singleton each answer correctly against the other two.
Point = Union[CyclotomicElem, Fraction, _AtInfinity]


class NodalConfig:
    """A projective line with identified point pairs and marked points.

    ``nodes`` lists the identified pairs; ``marked`` labels distinguished
    points (zeros of the limit differential, Weierstrass limits, ...);
    ``zero_orders`` maps marked labels to required vanishing orders of
    the limit differential; ``involution`` optionally names a symmetry
    ("negation" for z -> -z, "inversion" for z -> 1/z) that must map the
    configuration to itself.  Instances are immutable.
    """

    __slots__ = ("nodes", "marked", "zero_orders", "involution")

    def __init__(
        self,
        nodes: Iterable[tuple[Point, Point]],
        marked: Iterable[tuple[str, Point]],
        zero_orders: Mapping[str, int],
        involution: Optional[str],
    ):
        object.__setattr__(self, "nodes", tuple((p, q) for p, q in nodes))
        object.__setattr__(self, "marked", tuple((str(l), p) for l, p in marked))
        object.__setattr__(self, "zero_orders", tuple(sorted((str(l), int(k)) for l, k in zero_orders.items())))
        object.__setattr__(self, "involution", involution)
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("NodalConfig is immutable")

    # -- derived views ----------------------------------------------------

    @property
    def poles(self) -> tuple[Point, ...]:
        return tuple(p for node in self.nodes for p in node)

    def all_points(self) -> list[Point]:
        return list(self.poles) + [p for _, p in self.marked]

    # -- validation --------------------------------------------------------

    def _validate(self):
        if not self.nodes:
            raise ValueError("a nodal configuration needs at least one node")
        if self.involution not in (None, "negation", "inversion"):
            raise ValueError(f"unknown involution {self.involution!r}")
        labels = [l for l, _ in self.marked]
        if len(set(labels)) != len(labels):
            raise ValueError("marked labels must be distinct")
        unknown = [l for l, _ in self.zero_orders if l not in labels]
        if unknown:
            raise ValueError(f"zero orders given for unmarked labels {unknown}")
        if any(k < 1 for _, k in self.zero_orders):
            raise ValueError("vanishing orders must be positive")
        pts = self.all_points()
        for p in pts:
            if not (p is INFINITY or isinstance(p, (CyclotomicElem, Fraction))):
                raise TypeError(f"configuration point {p!r} is not a CyclotomicElem, Fraction or INFINITY")
        for i, p in enumerate(pts):
            if p in pts[i + 1 :]:
                raise ValueError(
                    f"configuration points must be pairwise distinct; {p!r} appears twice"
                )
        if self.involution is not None:
            self._check_involution()

    def _maps(self, p: Point, q: Point) -> bool:
        """Whether the involution maps ``p`` to ``q``: p + q = 0 under
        negation, p*q = 1 under inversion, which also pairs 0 with INFINITY."""
        negation = self.involution == "negation"
        if p is INFINITY or q is INFINITY:
            return p is q if negation else (q if p is INFINITY else p) == 0
        return p + q == 0 if negation else p * q == 1

    def _check_involution(self):
        for pair in self.nodes:
            p, q = pair
            if not any(self._maps(p, a) and self._maps(q, b) for node in self.nodes for a, b in (node, node[::-1])):
                raise ValueError(f"involution does not preserve the node pair {pair!r}")
        marked_pts = [p for _, p in self.marked]
        for p in marked_pts:
            if not any(self._maps(p, q) for q in marked_pts):
                raise ValueError(f"involution does not preserve the marked point {p!r}")


def config_to_json_dict(
    config: NodalConfig, names: Optional[Mapping[Point, str]] = None
) -> dict[str, Any]:
    """Report record of the node pairs, marked points and zero orders.

    Points are left as they are, for the report encoder.  ``names``
    displays the points it maps by name instead of by value, as for a
    configuration over Q(x, y) specialized at one point.
    """
    name = (names or {}).get
    return {
        "nodes": [[name(p, p), name(q, q)] for p, q in config.nodes],
        "marked": [{"label": l, "point": name(p, p)} for l, p in config.marked],
        "zero_orders": {l: k for l, k in config.zero_orders},
        "involution": config.involution,
    }


def differential_to_json_dict(pairs: Iterable[tuple[Any, Any]]) -> dict[str, Any]:
    """Report record of a limit differential given by its (residue, pole) pairs."""
    return {"terms": [{"residue": c, "pole": p} for c, p in pairs]}


# --------------------------------------------------------------------------
# The linear systems


def _rank(rows: list[list], ncols: int) -> int:
    """Rank of ``rows`` over a field, by fraction-free elimination: each row
    below the pivot row r becomes a*row - b*row_r, a the pivot and b the
    row's entry in the pivot column.  a is nonzero, so the rank is kept, and
    no entry is ever divided.  ``rows`` may mix the integers 0 and 1 with
    elements of one field."""
    mat = [list(r) for r in rows]
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        a = mat[rank][c]
        for i in range(rank + 1, len(mat)):
            b = mat[i][c]
            if b:
                mat[i] = [a * v - b * w for v, w in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _unknowns(config: NodalConfig) -> tuple[Point, ...]:
    """The node points, in the order of the unknown residues."""
    poles = config.poles
    if any(p is INFINITY for p in poles):
        raise ValueError("nodes at infinity are not supported")
    return poles


# The residue convention that _residue_rows encodes, as both limit
# differential reports state it.
RESIDUE_CONVENTION = "opposite residues at the two branches of each node (sum zero)"


def _residue_rows(config: NodalConfig, poles: Sequence[Point]) -> list[list[int]]:
    """Node matching Res(p) + Res(q) = 0 at each node, then total residue
    zero (regularity at infinity), as rows of the integers 0 and 1."""
    rows = []
    for i in range(len(config.nodes)):
        row = [0] * len(poles)
        row[2 * i] = row[2 * i + 1] = 1
        rows.append(row)
    rows.append([1] * len(poles))
    return rows


def _zero_order_rows(config: NodalConfig, poles: Sequence[Point]) -> list[list]:
    """One moment condition per prescribed vanishing order j = 1, ..., k at
    a marked point: sum(c_i * p_i^j) = 0 at infinity, and at a finite point
    pt, sum(c_i/(pt - p_i)^j) = 0 multiplied by D^j, D = prod(pt - p_i).
    The points are pairwise distinct, so D is nonzero and the scaled row has
    the same solutions; its entries prod_{q != p_i}(pt - q)^j divide nothing."""
    orders = dict(config.zero_orders)
    return [
        [p**j if pt is INFINITY else math.prod(pt - q for q in poles if q != p) ** j for p in poles]
        for label, pt in config.marked
        for j in range(1, orders.get(label, 0) + 1)
    ]


def differential_space(config: NodalConfig) -> int:
    """Dimension of the differentials satisfying all exact conditions.

    Unknowns are the residue coefficients at the node preimages; the
    conditions are the residue rows (node matching, total residue zero) and
    the zero-order rows (one linear condition per prescribed vanishing
    order, with infinity handled in the coordinate w = 1/z).  The dimension
    is the number of unknowns less the rank of the rows.
    """
    poles = _unknowns(config)
    return len(poles) - _rank(_residue_rows(config, poles) + _zero_order_rows(config, poles), len(poles))


def _satisfies(rows_of, residues: Sequence, config: NodalConfig, poles: Sequence) -> bool:
    """Whether ``residues``, one per pole in ``poles``, satisfy the condition
    rows that ``rows_of`` builds for ``differential_space`` from ``config``
    with those poles."""
    if len(residues) != len(poles):
        raise ValueError(f"{len(residues)} residues for {len(poles)} node points")
    return not any(sum(a * c for a, c in zip(row, residues)) for row in rows_of(config, poles))


def verify_residue_constraints(residues: Sequence[Point], config: NodalConfig) -> bool:
    """Exact check of total residue zero and node matching Res(p) + Res(q) = 0."""
    return _satisfies(_residue_rows, residues, config, _unknowns(config))


def verify_zero_orders(residues: Sequence[Point], config: NodalConfig) -> bool:
    """Exact check of the prescribed vanishing orders at the marked points."""
    return _satisfies(_zero_order_rows, residues, config, _unknowns(config))


# --------------------------------------------------------------------------
# The two concrete configurations


def _stratum2_nodes(x: Union[Point, int], y: Union[Point, int]) -> tuple[tuple, tuple]:
    """The node pairs of ``stratum2_config(x, y)``, for points or integers."""
    return (x, -x), (y, -y)


def stratum2_config(x: Point, y: Point) -> NodalConfig:
    """Nodes (x, -x), (y, -y) and a double zero at infinity: the vertical
    degeneration of an L-shaped surface at node coordinates x and y."""
    return NodalConfig(
        nodes=_stratum2_nodes(x, y),
        marked=(("omega_zero", INFINITY),),
        zero_orders={"omega_zero": 2},
        involution="negation",
    )


# The generator of the stratum-2 differential space over Q(x, y), RREF
# normalised, as (residue, pole) entries, and its height ratio
# Res(x)/Res(-y).  Reports display these strings and certify_stratum2
# evaluates the same strings, so a report cannot show a form other than the
# one checked.
STRATUM2_CLOSED_FORM = (("y/x", "x"), ("-y/x", "-x"), ("-1", "y"), ("1", "-y"))
STRATUM2_HEIGHT_RATIO = "y/x"


def _cleared_xy(entries: Iterable[str], a: int, b: int) -> list[int]:
    """x*y times each closed-form entry ``[-]t`` or ``[-]t/u``, t in {1, x, y}
    and u in {x, y}, at the integers (a, b): t times x*y/u, a polynomial."""
    atom = {"1": 1, "x": a, "y": b}
    over = {"": a * b, "x": b, "y": a}
    values = []
    for entry in entries:
        t, _, u = entry.removeprefix("-").partition("/")
        if t not in atom or u not in over:
            raise ValueError(f"closed-form entry {entry!r} is not [-]t or [-]t/u, t in 1, x, y, u in x, y")
        values.append(-atom[t] * over[u] if entry.startswith("-") else atom[t] * over[u])
    return values


def symbolic_xy() -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The grid S x T of rational specializations of (x, y) that certifies
    the stratum-2 claims over Q(x, y) (see ``certify_stratum2``).

    At every grid point x, -x, y and -y are pairwise distinct and nonzero.
    """
    return tuple(Fraction(a) for a in range(1, 6)), tuple(Fraction(b) for b in range(6, 11))


# Cleared of denominators, every identity certify_stratum2 checks is a
# polynomial of degree at most 4 in each variable: an entry c = t/u times
# x*y has degree at most 2 in each variable, so the second moment
# sum(c_i * p_i^2) at infinity times x*y, and Res(x) - ratio * Res(-y)
# times x^2*y^2, reach degree 4.  The grid needs more points than that on
# each axis.
_CERTIFIED_DEGREE = 4


def certify_stratum2() -> list[dict[str, Any]]:
    """Certify over Q(x, y) that the differential space of
    ``stratum2_config(x, y)`` is the line spanned by
    ``STRATUM2_CLOSED_FORM``, whose height ratio Res(x)/Res(-y) is
    ``STRATUM2_HEIGHT_RATIO``, and return the four stage records of the
    ``stratum2`` report:

    * ``differential_space``: the configuration at the first grid point,
      its points named x, -x, y, -y; the kernel dimension there, only an
      upper bound over Q(x, y), and ``ok`` when it is 1; the closed form as
      the generator, or None unless ``matches_closed_form_generator``
      holds; and the grid;
    * ``residue_constraints``: the closed form satisfies the residue and
      vanishing-order conditions at every grid point;
    * ``matches_closed_form_generator``: it is the RREF generator (below);
    * ``height_ratio``: the ratio, and whether it held at every grid point.

    At the first point of the grid S x T from ``symbolic_xy`` this computes
    the rank of the specialized system once and checks that its kernel has
    dimension 1 there.  At every point (a, b) of the grid it checks, by
    evaluation alone and in integers, that the closed form satisfies the
    residue and vanishing-order conditions, that its poles are x, -x, y,
    -y, and that its height ratio equals the stated one.
    Each of these identities is evaluated multiplied by x*y, the height
    ratio's Res(x) - ratio * Res(-y) = 0 by x^2*y^2, which clears every
    denominator.  Passing every check proves the claims over Q(x, y):

    * upper bound: the conditions are polynomials in x and y, so the rank
      over Q(x, y) is at least the rank at any specialization, and
      dimension 1 at one grid point gives dimension at most 1;
    * lower bound: each condition on the closed form times x*y, and the
      height-ratio identity times x^2*y^2, is a polynomial of degree at
      most 4 in each variable.  A polynomial of degree at most d in each
      variable that vanishes on S x T with |S|, |T| > d is zero
      (product-grid Schwartz-Zippel), so the closed form, which is
      nonzero, lies in the kernel identically, the dimension is exactly 1,
      and the height ratio holds identically;
    * generator: in a one-dimensional kernel whose vector has a nonzero
      last entry, the pivots of the reduced row echelon form sit in the
      first n - 1 columns, so its generator is that vector scaled to 1 in
      its last entry.  ``matches_closed_form_generator`` requires
      dimension 1, the lower bound and a last residue of "1", so the closed
      form is that generator over Q(x, y).  A form scaled by x fails it,
      though it agrees with the generator at the solved point, where x = 1.

    The condition rows at each grid point are the rows whose rank
    ``differential_space`` computes, built from the solved configuration
    with that point's poles: its one marked point is at infinity, where
    the rows are powers of the poles, so nothing else moves with the point.
    """
    xs, ys = symbolic_xy()
    if min(len(set(xs)), len(set(ys))) <= _CERTIFIED_DEGREE or any(v.denominator != 1 for v in xs + ys):
        raise ArithmeticInconsistencyError(
            f"a {len(xs)}x{len(ys)} grid cannot certify polynomials of degree {_CERTIFIED_DEGREE}:"
            f" each axis needs more than {_CERTIFIED_DEGREE} distinct integers"
        )
    closed_form, ratio = STRATUM2_CLOSED_FORM, STRATUM2_HEIGHT_RATIO
    config = stratum2_config(xs[0], ys[0])
    residues, poles = zip(*closed_form)
    kernel_ok = ratio_ok = True
    for x in xs:
        for y in ys:
            a, b = x.numerator, y.numerator
            points = sum(_stratum2_nodes(a, b), ())
            if _cleared_xy(poles, a, b) != [a * b * p for p in points]:
                raise ValueError(f"closed-form poles {list(poles)} are not x, -x, y, -y")
            form = _cleared_xy(residues, a, b)
            kernel_ok = (
                kernel_ok
                and _satisfies(_residue_rows, form, config, points)
                and _satisfies(_zero_order_rows, form, config, points)
            )
            # Res(x) = ratio * Res(-y), x and -y being the first and last pole.
            ratio_ok = ratio_ok and form[0] * a * b == _cleared_xy([ratio], a, b)[0] * form[3]
    dimension = differential_space(config)
    generator_ok = kernel_ok and closed_form[-1][0] == "1" and dimension == 1
    # The grid has shown that the closed form's poles are the configuration's, in order.
    names = dict(zip(config.poles, poles))
    return [
        {
            "stage": "differential_space",
            "configuration": config_to_json_dict(config, names),
            "dimension": dimension,
            "ok": dimension == 1,
            "generator": differential_to_json_dict(closed_form) if generator_ok else None,
            "certified_on_grid": {"x": xs, "y": ys},
        },
        {"stage": "residue_constraints", "ok": kernel_ok},
        {"stage": "matches_closed_form_generator", "ok": generator_ok},
        {"stage": "height_ratio", "value": ratio, "ok": ratio_ok},
    ]


# Geometry of the decagon representative (unit square plus golden-ratio
# square, crossing parameter sqrt(5)/5), which every decagon report cites.
# Shipped for provenance only: the certificates use just tenth roots of
# unity.
DECAGON_GEOMETRY = {
    "square_side_lengths": ["1", str(QuadraticElem(Fraction(-1, 2), Fraction(1, 2), 5))],
    "crossing_parameter": str(QuadraticElem(0, Fraction(1, 5), 5)),
}


def decagon_config() -> NodalConfig:
    """Nodes (x, 1/x), (y, 1/y) at x = zeta_5 = zeta_10^2, y = zeta_5^2 =
    zeta_10^4, simple zeros at 0 and infinity, Weierstrass limits at -1 and
    1, hyperelliptic involution z -> 1/z."""
    z = CyclotomicElem.zeta
    zero = CyclotomicElem.from_rational(10, 0)
    return NodalConfig(
        nodes=((z(10, 2), z(10, -2)), (z(10, 4), z(10, -4))),
        marked=(
            ("omega_zero_0", zero),
            ("omega_zero_inf", INFINITY),
            ("weierstrass_-1", zero - 1),
            ("weierstrass_+1", zero + 1),
        ),
        zero_orders={"omega_zero_0": 1, "omega_zero_inf": 1},
        involution="inversion",
    )


def decagon_limit_differential() -> tuple[CyclotomicElem, ...]:
    """The closed-form generator, RREF normalised: residues (r, -r, -1, 1)
    at (x, 1/x, y, 1/y), r = (y - 1/y)/(x - 1/x).  With z = zeta_10,
    z^j - z^-j = 2i*sin(pi*j/5), so r = sin(4*pi/5)/sin(2*pi/5)."""
    r = _sin_ratio(4, 2)
    one = CyclotomicElem.one(10)
    return r, -r, -one, one


def certify_decagon() -> list[dict[str, Any]]:
    """Certify over Q(zeta_10) that the differential space of
    ``decagon_config()`` is the line spanned by
    ``decagon_limit_differential()``, and return the four check records of
    the ``decagon differential`` report:

    * ``dimension``: the kernel dimension, ``ok`` when it is 1, with the
      configuration and the closed form as the generator, or None unless
      ``matches_closed_form_generator`` holds;
    * ``matches_closed_form_generator``: it is the RREF generator, by the
      rule that ``certify_stratum2`` proves: dimension 1, the residue and
      vanishing-order conditions, and a last residue of 1;
    * ``residue_constraints``: it satisfies the residue conditions;
    * ``simple_zeros_at_0_and_infinity``: and the vanishing orders.

    The node coordinates are elements of Q(zeta_10), not symbols, so the
    rank computed there gives the dimension outright.
    """
    config = decagon_config()
    dimension = differential_space(config)
    form = decagon_limit_differential()
    residues_ok = verify_residue_constraints(form, config)
    zeros_ok = verify_zero_orders(form, config)
    generator_ok = dimension == 1 and residues_ok and zeros_ok and form[-1] == 1
    return [
        {
            "check": "dimension",
            "value": dimension,
            "ok": dimension == 1,
            "configuration": config_to_json_dict(config),
            "generator": differential_to_json_dict(zip(form, config.poles)) if generator_ok else None,
        },
        {"check": "matches_closed_form_generator", "ok": generator_ok},
        {"check": "residue_constraints", "ok": residues_ok},
        {"check": "simple_zeros_at_0_and_infinity", "ok": zeros_ok},
    ]


# --------------------------------------------------------------------------
# Torsion well-definedness


def solve_torsion_pairs(order: int) -> tuple[int, ...]:
    """The indices A, -N/2 < A < N/2, ascending, of the solutions
    x_A = i*tan(A*pi/N) of (x-1)^N = (-x-1)^N, certified exactly.

    In Q(zeta_m), m = ``tan_conductor(N)``, x_A is ``i_tan(m, e)`` for e = (m/N)*A,
    the Cayley form (w - 1)/(w + 1) of w = zeta_m^e = zeta_N^A.  With
    u_A = -zeta_m^(-e) = zeta_m^c, c = m/2 - e, x_A - 1 = u_A*(x_A + 1) and
    u_A^N = (-1)^N give (x-1)^N = u^N (x+1)^N = (-x-1)^N.  u_A^N = (-1)^N
    holds for every A, as (c - m/2)*N = -(m/N)*A*N = -m*A = 0 (mod m); the
    product is checked once per Galois orbit, on x_g for g = 0 and for each
    divisor g < N/2 of N:

    * Transport.  Any other A has g = gcd(A, N) among them, and a unit k
      mod m with k*g = A (mod N), as A/g is a unit mod N/g and the units
      mod m reduce onto those mod N/g.  Then sigma_k(x_g) = x_A, and, k
      being odd, sigma_k(u_g) = u_A.  sigma_k is a field automorphism, so
      the identity that holds for x_g also holds for x_A.
    * Distinctness.  Distinct A in (-N/2, N/2) give distinct zeta_N^A, and
      the Cayley map w -> (w - 1)/(w + 1) is injective.

    The list is complete: the x^N terms cancel for even N and add for odd N,
    so the equation has degree N for odd N and N - 1 for even N (its
    x^(N-1) coefficient is then -2N), which is exactly the number of indices.
    """
    n = order
    if n < 2:
        raise ValueError(f"torsion order must be at least 2, got {n}")
    m = tan_conductor(n)
    amax = (n - 1) // 2  # A < N/2 keeps clear of the pole
    for g in (0, *(g for g in range(1, amax + 1) if n % g == 0)):
        e = (m // n) * g
        x = i_tan(m, e)
        if x - 1 != CyclotomicElem.zeta(m, m // 2 - e) * (x + 1):  # u_g = zeta^c, c = m/2 - e
            raise ArithmeticInconsistencyError(f"i*tan({g}*pi/{n}) fails the defining equation")
    return tuple(range(-amax, amax + 1))


# --------------------------------------------------------------------------
# The decagon analysis


def decagon_node_condition(j: int) -> bool:
    """Whether the node pair (z, 1/z) for z = zeta_10^j admits both
    z^5 = (1/z)^5 and (z+1)^5 = (1/z+1)^5."""
    if j % 10 in (0, 5):
        raise ValueError("node coordinates +-1 are excluded")
    p = CyclotomicElem.zeta(10, j)
    q = CyclotomicElem.zeta(10, -j)
    return p**5 == q**5 and (p + 1) ** 5 == (q + 1) ** 5


def decagon_admissible_assignments() -> tuple[set[tuple[int, int]], set[tuple[int, int]]]:
    """(accepted, expected) ordered assignments (j_x, j_y) of tenth-root
    exponents for the two nodes.

    Accepted means: both node pairs satisfy the fifth-power conditions
    and the pairs are disjoint.  Expected is the symmetry class of
    (zeta_5, zeta_5^2) under inverting either coordinate and swapping.
    """
    passing = {j for j in range(1, 10) if j != 5 and decagon_node_condition(j)}
    accepted = {(jx, jy) for jx in passing for jy in passing if jy not in (jx, 10 - jx)}
    expected = {(a, b) for a in (2, 8) for b in (4, 6)}
    expected |= {(b, a) for a, b in expected}
    return accepted, expected


def _sin_ratio(u: int, k: int) -> CyclotomicElem:
    """sin(pi*u/5)/sin(pi*k/5) in Q(zeta_10), for k not a multiple of 5.

    With z = zeta_10, sin(pi*j/5) = (z^j - z^-j)/(2i), and
    z^k - z^-k = -z^-k (1 - z^(2k)), so the ratio is
    (z^u - z^-u) * (-z^k) / (1 - z^(2k)), the last factor the binomial
    inverse ``inv_one_minus_zeta(10, 2k)``.
    """
    z = CyclotomicElem.zeta
    return (z(10, u) - z(10, -u)) * -z(10, k) * inv_one_minus_zeta(10, 2 * k)


def decagon_r_sets() -> tuple[list[CyclotomicElem], list[CyclotomicElem], list[CyclotomicElem]]:
    """(R_x, R_y, R_x intersect R_y) for x = zeta_5, y = zeta_5^2 in Q(zeta_10).

    R_p is the set of real r such that p - r is a positive real multiple
    t*d of a direction d = exp(i*phi), phi = pi*k/5.  For p = exp(i*theta),
    theta = 2*pi*a/5 with a = 1 or 2, the imaginary and real parts of
    p - r = t*d give sin(theta) = t*sin(phi) and cos(theta) - r = t*cos(phi).
    The real directions k = 0, 5 have no solution, as sin(theta) != 0; each
    of the other eight gives t = sin(theta)/sin(phi) and
    r = sin(phi - theta)/sin(phi), both ``_sin_ratio``s.  A hit is kept
    when the exact sign of t is positive.  r = cos(theta) - sin(theta)*cot(phi)
    strictly increases in phi on (0, pi), where t > 0, so the hits of each
    set are distinct and come in increasing order of k.
    """
    sets = []
    for a in (1, 2):
        hits = []
        for k in (1, 2, 3, 4, 6, 7, 8, 9):
            s = sign_of_real(_sin_ratio(2 * a, k))
            if s == 0:
                raise ArithmeticInconsistencyError("degenerate ray multiple t = 0")
            if s > 0:
                hits.append(_sin_ratio(k - 2 * a, k))
        sets.append(hits)
    r_x, r_y = sets
    return r_x, r_y, [r for r in r_x if r in r_y]
