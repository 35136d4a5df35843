"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are stored in the power basis 1, zeta, ..., zeta^(phi(m)-1)
reduced modulo the m-th cyclotomic polynomial, as integers: a tuple
``nums`` of numerators over one common denominator ``den > 0``, with
gcd(den, *nums) = 1 and zero stored as all zeros over 1 (the layout
``QuadraticElem`` uses).  The form is canonical, so two elements are
equal iff their ``(nums, den)`` match, and arithmetic and Galois images
run in integers without building a ``Fraction``.  The
rational coordinates ``coeffs`` are a derived, read-only property for
display.

Galois automorphisms sigma_k : zeta -> zeta^k for gcd(k, m) = 1 act by
permuting power-basis exponents and re-reducing.  Tangent ratios count
their degree as the index of a stabilizer (see ``tanratio``).
:func:`minimal_polynomial` uses no Galois action: it reads the traces of
an element's powers and applies Newton's identities; ``tanratio`` calls it
once per orbit of angle pairs.

Every exact tangent is built here, as :func:`i_tan`'s Cayley form of
i*tan(pi*e/m), one closed-form binomial inverse (:func:`inv_one_minus_zeta`)
in the field that :func:`tan_conductor` gives both the tangent ratios and
the torsion solver.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Sequence, Union

from ..errors import ArithmeticInconsistencyError
from .polynomial import cyclotomic_int_coeffs

Scalar = Union[int, Fraction]


class _Conductor:
    """Cached per-conductor data: reduction table and unit group."""

    __slots__ = ("m", "degree", "power_table", "units")

    def __init__(self, m: int):
        self.m = m
        phi = cyclotomic_int_coeffs(m)
        d = len(phi) - 1
        self.degree = d
        # power_table[j] = the nonzero coordinates of zeta^j as sparse
        # (index, coefficient) pairs; products of two reduced elements need
        # exponents up to 2d-2, Galois images need up to m-1.
        size = max(m, 2 * d - 1)
        table = []
        cur = [0] * d
        cur[0] = 1
        for j in range(size):
            if j:
                high = cur[d - 1]
                cur = [0] + cur[: d - 1]
                if high:
                    for i in range(d):
                        if phi[i]:
                            cur[i] -= high * phi[i]
            table.append(tuple((i, c) for i, c in enumerate(cur) if c))
        self.power_table = tuple(table)
        self.units = tuple(k for k in range(1, m + 1) if math.gcd(k, m) == 1)


@lru_cache(maxsize=None)
def _conductor(m: int) -> _Conductor:
    if m < 1:
        raise ValueError(f"conductor must be a positive integer, got {m}")
    return _Conductor(m)


@lru_cache(maxsize=None)
def _trace_row(m: int) -> tuple[int, ...]:
    """Tr(zeta_m^i) over Q for i < phi(m): mu(n)*phi(m)/phi(n), n = m/gcd(i, m),
    read off Phi_n = x^phi(n) - mu(n)*x^(phi(n) - 1) + ..., built once per n."""
    phi = _conductor(m).degree
    ns = [m // math.gcd(i, m) for i in range(phi)]
    cyc = {n: cyclotomic_int_coeffs(n) for n in set(ns)}
    return tuple(-cyc[n][-2] * (phi // (len(cyc[n]) - 1)) for n in ns)


def _power_sum(ctx: _Conductor, weights: Iterable[int], k: int) -> list[int]:
    """Integer coordinates of sum_j weights[j] * zeta_m^(j*k), m = ctx.m."""
    m, table = ctx.m, ctx.power_table
    acc = [0] * ctx.degree
    for j, w in enumerate(weights):
        if w:
            for i, c in table[(j * k) % m]:
                acc[i] += w * c
    return acc


def _pack(poly: Sequence[int], bits: int) -> int:
    """sum_j poly[j] * 2^(bits*j)."""
    acc = 0
    for n in reversed(poly):
        acc = (acc << bits) + n
    return acc


def _poly_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product of two integer polynomials of length d,
    by Kronecker substitution: one big-integer product at x = 2^bits.

    Each product coefficient is a sum of at most d terms a_i*b_j, so its
    absolute value is below 2^(bits - 1) and the signed base-2^bits digits
    of the packed product are exactly the coefficients.
    """
    bits = (
        max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length() + len(a).bit_length() + 1
    )
    c = _pack(a, bits) * _pack(b, bits)
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    out = []
    for _ in range(len(a) + len(b) - 1):
        low = c & mask
        c >>= bits
        if low >= half:
            low -= mask + 1
            c += 1
        out.append(low)
    if c:
        raise ArithmeticInconsistencyError("Kronecker product overflowed its digit width")
    return out


def _reduce_product(vec: list[int], ctx: _Conductor) -> list[int]:
    d = ctx.degree
    table = ctx.power_table
    for j in range(len(vec) - 1, d - 1, -1):
        vj = vec[j]
        if vj:
            for i, c in table[j]:
                vec[i] += vj * c
    return vec[:d]


class CyclotomicElem:
    """sum_j nums[j] zeta_m^j / den in the reduced power basis, with
    den > 0 and gcd(den, *nums) = 1.

    Instances are immutable; all operations return new elements.
    Arithmetic between elements requires matching conductors; an element
    of Q(zeta_m) is the sum of nums[j]/den * zeta(m2, j*m2/m) in any
    multiple m2 of m.
    """

    __slots__ = ("m", "nums", "den")

    def __init__(self, m: int, coeffs: Iterable[Scalar]):
        ctx = _conductor(m)
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        if len(cs) != ctx.degree:
            raise ValueError(
                f"conductor {m} needs {ctx.degree} coordinates, got {len(cs)}"
            )
        # With every coordinate in lowest terms, scaling all of them to the
        # lcm of their denominators leaves gcd(den, *nums) = 1.
        den = math.lcm(*(c.denominator for c in cs))
        _set_m(self, m)
        _set_nums(self, tuple(c.numerator * (den // c.denominator) for c in cs))
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicElem is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coordinates nums[j]/den, for display."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    # ----- constructors -------------------------------------------------

    @classmethod
    def one(cls, m: int) -> CyclotomicElem:
        return cls.from_rational(m, 1)

    @classmethod
    def from_rational(cls, m: int, value: Scalar) -> CyclotomicElem:
        q = value if isinstance(value, (int, Fraction)) else Fraction(value)
        return _make(m, (q.numerator,) + (0,) * (_conductor(m).degree - 1), q.denominator)

    @classmethod
    def zeta(cls, m: int, power: int = 1) -> CyclotomicElem:
        """zeta_m^power as a reduced element."""
        ctx = _conductor(m)
        nums = [0] * ctx.degree
        for i, c in ctx.power_table[power % m]:
            nums[i] = c
        return _make(m, nums, 1)

    # ----- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.nums[0], self.den)

    def is_real(self) -> bool:
        """Whether the element is fixed by complex conjugation."""
        return self.conjugate() == self

    def conjugate(self) -> CyclotomicElem:
        """Image under complex conjugation zeta -> zeta^(-1)."""
        return galois_apply(self, -1)

    # ----- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CyclotomicElem):
            if other.m != self.m:
                raise ValueError(
                    f"conductor mismatch ({self.m} vs {other.m}); embed both in a common field first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicElem.from_rational(self.m, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self, 1, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self, -1, other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _combine(other, -1, self)

    def __neg__(self) -> CyclotomicElem:
        return _make(self.m, [-n for n in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _scaled(self, other.numerator, other.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_rational():
            return _scaled(other, self.nums[0], self.den)
        if other.is_rational():
            return _scaled(self, other.nums[0], other.den)
        out = _poly_product(self.nums, other.nums)
        return _make(self.m, _reduce_product(out, _conductor(self.m)), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> CyclotomicElem:
        """Multiplicative inverse: the product of the other Galois conjugates
        over the norm, e^(-1) = prod_{k != 1} sigma_k(e) / N(e)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if self.is_rational():
            return CyclotomicElem.from_rational(self.m, 1 / self.to_rational())
        cofactor = CyclotomicElem.one(self.m)
        for k in conductor_units(self.m)[1:]:
            cofactor = cofactor * galois_apply(self, k)
        norm = cofactor * self
        if not norm.is_rational():
            raise ArithmeticInconsistencyError(f"the Galois norm of {self!r} is not rational")
        result = cofactor * (1 / norm.to_rational())
        if not (result * self == 1):
            raise ArithmeticInconsistencyError("inverse verification failed")
        return result

    def __pow__(self, n: int) -> CyclotomicElem:
        if n < 0:
            raise ValueError(f"negative exponent {n}: take inverse() first")
        result = CyclotomicElem.one(self.m)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, CyclotomicElem):
            if self.m != other.m:
                # A rational equals its value in every conductor, as its hash says.
                return self.is_rational() and other == self.to_rational()
            return self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            return (
                self.is_rational()
                and self.nums[0] == other.numerator
                and self.den == other.denominator
            )
        return NotImplemented

    def __hash__(self) -> int:
        # A rational element equals the int or Fraction of its value, so it
        # must hash like it.
        if self.is_rational():
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.m, self.nums, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        terms = [
            str(c) if j == 0 else f"{c}*z" if j == 1 else f"{c}*z^{j}"
            for j, c in enumerate(self.coeffs)
            if c
        ]
        return f"CyclotomicElem(m={self.m}, {' + '.join(terms) or '0'})"


_new = object.__new__
_set_m = CyclotomicElem.m.__set__
_set_nums = CyclotomicElem.nums.__set__
_set_den = CyclotomicElem.den.__set__


def _make(m: int, nums: Sequence[int], den: int) -> CyclotomicElem:
    """sum_j nums[j] zeta_m^j / den for den > 0, reduced by the gcd; the
    length of ``nums`` is taken to be phi(m) (it is not checked again)."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
    elem = _new(CyclotomicElem)
    _set_m(elem, m)
    _set_nums(elem, tuple(nums))
    _set_den(elem, den)
    return elem


def _combine(x: CyclotomicElem, sign: int, y: CyclotomicElem) -> CyclotomicElem:
    """x + sign*y for sign = +-1, over the lcm of the two denominators."""
    dx, dy = x.den, y.den
    if dx == dy:
        return _make(x.m, [a + sign * b for a, b in zip(x.nums, y.nums)], dx)
    g = math.gcd(dx, dy)
    fx, fy = dy // g, sign * (dx // g)
    return _make(x.m, [a * fx + b * fy for a, b in zip(x.nums, y.nums)], dx * fx)


def _scaled(x: CyclotomicElem, p: int, q: int) -> CyclotomicElem:
    """x * p/q for integers p and q > 0."""
    return _make(x.m, [n * p for n in x.nums], x.den * q)


def galois_apply(e: CyclotomicElem, k: int) -> CyclotomicElem:
    """Apply the automorphism sigma_k : zeta -> zeta^k, for gcd(k, m) = 1.

    sigma_1 is the identity and sigma_k . sigma_l = sigma_(k*l mod m);
    sigma_(-1) is complex conjugation.
    """
    m = e.m
    if math.gcd(k, m) != 1:
        raise ValueError(f"k = {k} is not coprime to the conductor {m}")
    kk = k % m
    if m == 1 or kk == 1:
        return e
    return _make(m, _power_sum(_conductor(m), e.nums, kk), e.den)


def conductor_units(m: int) -> tuple[int, ...]:
    """Representatives of (Z/m)^*, ascending."""
    return _conductor(m).units


def inv_one_minus_zeta(m: int, c: int) -> CyclotomicElem:
    """Closed-form inverse of 1 - zeta_m^c for c not divisible by m.

    For any m-th root of unity z != 1 one has
    1/(1 - z) = sum_{j=0}^{m-1} (m - 1 - 2j)/(2m) * z^j,
    which avoids the Euclidean algorithm entirely.
    """
    cc = c % m
    if cc == 0:
        raise ZeroDivisionError("1 - zeta^c is zero when m divides c")
    # The weights m - 1 - 2j for j = 0, ..., m - 1.
    return _make(m, _power_sum(_conductor(m), range(m - 1, -m, -2), cc), 2 * m)


def tan_conductor(*denominators: int) -> int:
    """lcm(2, *denominators): the one conductor rule of ``i_tan`` for these q."""
    return math.lcm(2, *denominators)


def i_tan(m: int, e: int) -> CyclotomicElem:
    """i*tan(pi*e/m) in Q(zeta_m), m even, in Cayley form 1 - 2/(1 - zeta_m^(e + m/2)).

    With w = zeta_m^e, i*tan(pi*e/m) = (w - 1)/(w + 1), and zeta_m^(m/2)
    = -1 turns 1/(w + 1) into the binomial inverse 1/(1 - zeta_m^(e + m/2)).
    e = m/2 mod m, a pole, raises ZeroDivisionError.  At e + m/2 this is
    1/(i*tan(pi*e/m)), since tan(x + pi/2) = -1/tan(x).
    """
    return 1 - 2 * inv_one_minus_zeta(m, e + m // 2)


class MinPoly:
    """A monic irreducible polynomial over Q, as ``minimal_polynomial`` builds it.

    Coefficients are stored constant-term first; the leading coefficient
    is always 1.  ``trace`` and ``norm`` are the usual sum and product of
    the roots.  Instances are immutable and compare by their coefficients.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = tuple(Fraction(c) for c in coeffs)
        if not cs or cs[-1] != 1:
            raise ValueError("MinPoly requires monic coefficients, constant term first")
        if len(cs) < 2:
            raise ValueError("MinPoly must have positive degree")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("MinPoly is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, MinPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self) -> str:
        return f"MinPoly(coeffs=({', '.join(map(str, self.coeffs))}))"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def trace(self) -> Fraction:
        return -self.coeffs[-2]

    @property
    def norm(self) -> Fraction:
        sign = -1 if self.degree % 2 else 1
        return sign * self.coeffs[0]

    @property
    def is_unit(self) -> bool:
        """Whether the root is an algebraic unit: integer coefficients and
        constant term +-1 (so both the root and its inverse are algebraic
        integers)."""
        return all(c.denominator == 1 for c in self.coeffs) and abs(self.coeffs[0]) == 1


def minimal_polynomial(e: CyclotomicElem) -> MinPoly:
    """Minimal polynomial of ``e`` over Q, by Newton's identities on the
    traces of the powers of the algebraic integer N = den*e.

    If N has degree d, each of its d conjugates is the image of phi(m)/d of
    the phi(m) embeddings, so their power sums are p_j = Tr(N^j)*d/phi(m),
    and k*c_(d-k) = -(p_k + c_(d-1)*p_(k-1) + ... + c_(d-k+1)*p_1) gives
    the monic integer coefficients c_i.  The divisors d of phi(m) are tried
    in ascending order, and the first polynomial with N as a root has
    degree deg N, as no rational polynomial of lower degree has N as a root
    (so the inexact divisions of a smaller d do no harm).  It gives the
    coefficients c_i/den^(d-i) of the result.  The characteristic
    polynomial, at d = phi(m), has N as a root, so finding none is an
    arithmetic bug.
    """
    m, nums = e.m, e.nums
    ctx = _conductor(m)
    phi, row = ctx.degree, _trace_row(m)
    powers = [(1,) + (0,) * (phi - 1), nums]  # N^j
    traces = [phi, sum(map(mul, nums, row))]  # Tr(N^j)
    for d in range(1, phi + 1):
        if phi % d:
            continue
        while len(powers) <= d:
            powers.append(_reduce_product(_poly_product(powers[-1], nums), ctx))
            traces.append(sum(map(mul, powers[-1], row)))
        p = [t * d // phi for t in traces]
        c = [0] * d + [1]
        for k in range(1, d + 1):
            c[d - k] = -sum(c[d - i] * p[k - i] for i in range(k)) // k
        if not any(sum(map(mul, col, c)) for col in zip(*powers)):
            return MinPoly(Fraction(g, e.den ** (d - i)) for i, g in enumerate(c))
    raise ArithmeticInconsistencyError(f"no divisor of phi({m}) gives a polynomial with root {e!r}")
