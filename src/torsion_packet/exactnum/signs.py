"""Sign determination for real cyclotomic values, in integer ball arithmetic.

Zero is decided exactly: the reduced power basis is canonical, so an
element is zero iff its coordinate vector is.  A nonzero sign is then
found by evaluating the defining embedding zeta_m -> exp(2*pi*i/m) as a
ball: an integer midpoint and an integer radius at a scale of 2^bits,
with a proven bound on every truncation and floor error.  The working
precision doubles until the ball excludes zero, up to an a-priori
ceiling at which a nonzero element must already be separated (see
``_precision_ceiling``); failing that raises.

The kernel, ``cos_sin_ball``, is also what the tangent table of
``tanratio`` is built from: one call per row q, for exp(i*pi/q) with guard
bits, whose powers in fixed point give balls (c, s) +- 2 at 96 bits for
every angle pi*r/q, r < q/2.  An entry is s/c, and the enclosure
[(s - 2)/(c + 2), (s + 2)/(c - 2)] of the tangent is checked to have
relative width at most 2^-60.  The kernel holds no state beyond a cache of
pi per precision, so concurrent calls share nothing they could change.
"""

from __future__ import annotations

from functools import lru_cache

from ..errors import ArithmeticInconsistencyError
from .cyclotomic import CyclotomicElem

# Initial ball precision.  It only sets how many refinement rounds are
# needed, never the result.
_DEFAULT_BITS = 128


def _guard_bits(bits: int) -> int:
    return bits.bit_length() + 8


@lru_cache(maxsize=64)
def _pi_ball(bits: int) -> tuple[int, int]:
    """(mid, rad) with |pi * 2^bits - mid| <= rad, and rad <= 2.

    Machin's formula pi = 16 atan(1/5) - 4 atan(1/239), summed at
    w = bits + g bits, g = _guard_bits(bits).  The k-th term of
    atan(1/x) * 2^w is floor(floor(2^w / x^(2k+1)) / (2k+1)), which is the
    floor of the exact term (nested floors by positive integers compose),
    so it is off by less than 1.  The series stops at the first power
    that is 0; the exact tail from there is alternating with decreasing
    terms, so below its first term, which is below 1.  With n5 and n239
    the numbers of terms summed, the weighted sum is off by at most
    err = 16 (n5 + 1) + 4 (n239 + 1) units of 2^-w.  Dropping the g guard
    bits with a floor adds less than 1 unit of 2^-bits, so
    rad = ceil(err / 2^g) + 1.  As n5 <= w/4.6 + 1 and n239 <= w/15.8 + 1,
    err <= 3.7 w + 48 <= 2^g, so rad <= 2.
    """
    g = _guard_bits(bits)
    w = bits + g
    total = 0
    err = 0
    for x, weight in ((5, 16), (239, -4)):
        power = (1 << w) // x
        x2 = x * x
        k = 0
        while power:
            term = power // (2 * k + 1)
            total += weight * term if k % 2 == 0 else -weight * term
            power //= x2
            k += 1
        err += abs(weight) * (k + 1)
    return total >> g, -(-err >> g) + 1


def cos_sin_ball(p: int, q: int, bits: int) -> tuple[int, int, int]:
    """(c, s, rad) with |cos(pi p/q) 2^bits - c| <= rad, |sin(pi p/q) 2^bits - s| <= rad.

    Requires 0 <= p/q <= 1/2; rad is at most 2.
    """
    if not (q > 0 and 0 <= 2 * p <= q and bits > 0):
        raise ValueError(f"need 0 <= {p}/{q} <= 1/2 and positive bits, got {bits}")
    if 4 * p > q:
        # cos(pi p/q) = sin(pi (q - 2p)/(2q)) and the converse, exactly.
        c, s, rad = cos_sin_ball(q - 2 * p, 2 * q, bits)
        return s, c, rad
    # Error bound, in units of 2^-w at w = bits + g working bits, for
    # 0 <= p/q <= 1/4:
    # * Argument.  x = floor(pi_mid p / q) with |pi_mid - pi 2^w| <= pi_rad,
    #   so y = x / 2^w is within delta = pi_rad + 1 units of pi p/q.  cos
    #   and sin are 1-Lipschitz, so evaluating them at y instead costs at
    #   most delta.  Also y <= pi/4 + 2^-w < 0.8.
    # * Terms.  t_0 = 2^w and t_n = floor(t_(n-1) x / (n 2^w)) (nested
    #   floors by positive integers compose), against the exact
    #   T_n = 2^w y^n / n!.  t_1 = x = T_1 exactly, and since y/n <= 0.4
    #   for n >= 2, |t_n - T_n| <= |t_(n-1) - T_(n-1)| y/n + 1 <= 2 by
    #   induction.
    # * Truncation.  Let t_M be the first term that is 0; all later ones
    #   are 0 too.  The Lagrange remainder of either series after the
    #   terms n < M is at most y^M / M! = T_M / 2^w <= t_M + 2 = 2 units.
    # The loop stops at a multiple n >= M of four, so each of cos and sin
    # is off by at most err = delta + 2 (M - 2) + 2 <= delta + 2 n.  Floors
    # only shrink the terms, so t_n <= T_n < 2^w (0.8e/n)^n < 2^(w-n) for
    # n >= 5; hence M <= w, n <= w + 3 and, with pi_rad <= 2,
    # err <= 2 w + 9 <= 2^g for g = bitlen(bits) + 8.  Dropping the g
    # guard bits with a floor adds less than 1 unit of 2^-bits, so
    # rad = ceil(err / 2^g) + 1 <= 2.
    g = _guard_bits(bits)
    w = bits + g
    pi_mid, pi_rad = _pi_ball(w)
    x = pi_mid * p // q
    t = 1 << w
    cos, sin = t, 0
    n = 0
    while t:
        t = (t * x >> w) // (n + 1)
        sin += t
        t = (t * x >> w) // (n + 2)
        cos -= t
        t = (t * x >> w) // (n + 3)
        sin -= t
        t = (t * x >> w) // (n + 4)
        cos += t
        n += 4
    err = pi_rad + 1 + 2 * n
    return cos >> g, sin >> g, -(-err >> g) + 1


def _cos_ball(j: int, m: int, bits: int) -> tuple[int, int]:
    """(mid, rad) of cos(2 pi j/m) 2^bits, by symmetry from [0, pi/2]."""
    t = 2 * j % (2 * m)  # the angle is pi t/m, t in [0, 2m)
    if t > m:
        t = 2 * m - t
    if 2 * t > m:
        c, _, rad = cos_sin_ball(m - t, m, bits)
        return -c, rad
    c, _, rad = cos_sin_ball(t, m, bits)
    return c, rad


def _real_part_ball(nums: list[int], m: int, bits: int) -> tuple[int, int]:
    """(mid, rad) with |sum_j nums[j] cos(2 pi j/m) 2^bits - mid| <= rad."""
    mid = rad = 0
    for j, n in enumerate(nums):
        if n:
            c, r = _cos_ball(j, m, bits)
            mid += n * c
            rad += abs(n) * r
    return mid, rad


def _precision_ceiling(nums: list[int]) -> int:
    """Bits at which the ball of a nonzero sum_j nums[j] zeta^j must exclude zero.

    a = sum_j nums[j] zeta^j is a nonzero algebraic integer of Q(zeta_m),
    phi = len(nums) = [Q(zeta_m):Q], so its norm, the product of its phi
    conjugates, is a nonzero integer and has absolute value at least 1.  Each
    conjugate is a sum of the same coefficients times roots of unity, so
    at most L = sum |nums[j]| in absolute value; hence
    |a| >= 1 / L^(phi - 1).  At b bits the ball of a * 2^b has radius
    R <= 2L (each cosine's radius is at most 2), and it excludes zero once
    |a| 2^b > 2R, which holds when 2^b >= 4 L^phi, in particular for
    b >= phi * bitlen(L) + 2.
    """
    total = sum(abs(n) for n in nums)
    return len(nums) * total.bit_length() + 2


def sign_of_real(e: CyclotomicElem, initial_bits: int = _DEFAULT_BITS) -> int:
    """Exact sign (-1, 0, +1) of a conjugation-fixed cyclotomic element.

    Raises ValueError if the element is not fixed by complex conjugation
    (its embedding would not be a real number), and
    ArithmeticInconsistencyError if the ball still straddles zero at the
    precision ceiling, which for a correct kernel cannot happen.
    """
    if not e.is_real():
        raise ValueError(f"{e!r} is not fixed by complex conjugation")
    if e.is_zero():
        return 0
    bits = initial_bits
    # For a real element the embedding equals its real part, the sum of
    # c_j cos(2 pi j/m); scaling by the common denominator den > 0 keeps
    # the sign and leaves the integer numerators.
    nums = e.nums
    ceiling = _precision_ceiling(nums)
    while True:
        mid, rad = _real_part_ball(nums, e.m, bits)
        if abs(mid) > rad:
            return 1 if mid > 0 else -1
        if bits >= ceiling:
            raise ArithmeticInconsistencyError(
                f"ball refinement failed to separate {e!r} from zero at {bits} bits, "
                f"above its precision ceiling of {ceiling} bits"
            )
        bits = min(2 * bits, ceiling)
