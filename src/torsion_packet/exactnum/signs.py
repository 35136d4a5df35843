"""Sign determination for real cyclotomic values, in integer ball arithmetic.

Zero is decided exactly: the reduced power basis is canonical, so an
element is zero iff its coordinate vector is.  A nonzero sign is then
found by evaluating the defining embedding zeta_m -> exp(2*pi*i/m) as a
ball: an integer midpoint and an integer radius at a scale of 2^bits,
with a proven bound on every truncation and floor error.  The working
precision doubles until the ball excludes zero, up to an a-priori
ceiling at which a nonzero element must already be separated (see
``_precision_ceiling``); failing that raises.

Every cosine and sine ball comes from one generator, ``rotation_balls``:
one ``cos_sin_ball`` of exp(i*pi/q) with guard bits, whose powers in fixed
point give balls (c, s) +- 2 of exp(i*pi*r/q) for r = 1, 2, ...  A sign
round reads one such walk over the element's coordinates, and the tangent
table of ``tanratio`` reads one per row q.  The kernel holds no state
beyond a cache of pi per precision, so concurrent calls share nothing
they could change.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from typing import Iterator

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


def rotation_balls(q: int, count: int, bits: int) -> Iterator[tuple[int, int]]:
    """(c, s) of exp(i*pi*r/q) for r = 1, ..., count, with
    |cos(pi*r/q) 2^bits - c| <= 2 and |sin(pi*r/q) 2^bits - s| <= 2.

    Requires q >= 2 and bits >= 2.  With g = bitlen(5 max(q, count)) guard
    bits and w = bits + g, z_1 = c1 + i*s1 is the ``cos_sin_ball`` of
    exp(i*pi/q) at w bits, each part within 2, and z_(r+1) = z_r*z_1 / 2^w
    with each part floored: (c, s) <- ((c*c1 - s*s1) >> w, (s*c1 + c*s1) >> w),
    from z_0 = 2^w, which gives z_1 exactly.  Let Z_r = 2^w exp(i*pi*r/q)
    and E_r = |z_r - Z_r|, so E_1 <= 2 sqrt 2.  As
    z_r z_1 - Z_r Z_1 = (z_r - Z_r) z_1 + Z_r (z_1 - Z_1), |Z_r| = 2^w,
    |z_1| <= 2^w + E_1 and the two floors cost less than sqrt 2,
    E_(r+1) <= E_r (1 + eps) + 3 sqrt 2 with eps = E_1 / 2^w.  By induction
    E_r <= 3 sqrt 2 r (1 + eps)^(r-1) <= 3 sqrt 2 r e^(r eps).  As
    r <= count < 2^g / 5, r eps < 2 sqrt 2 / (5 * 2^bits), and
    3 sqrt 2 e^(2 sqrt 2 / 20) < 4.9 for bits >= 2, so E_r < 5r.  Dropping
    the g guard bits with a floor leaves each of c and s off by less than
    1 + 5r / 2^g < 2 units of 2^-bits.
    """
    g = (5 * max(q, count)).bit_length()
    w = bits + g
    c1, s1, _ = cos_sin_ball(1, q, w)
    c, s = 1 << w, 0
    for _ in range(count):
        c, s = (c * c1 - s * s1) >> w, (s * c1 + c * s1) >> w
        yield c >> g, s >> g


def _real_part_ball(nums: list[int], m: int, bits: int) -> tuple[int, int]:
    """(mid, rad) with |sum_j nums[j] cos(2 pi j/m) 2^bits - mid| <= rad.

    cos 0 = 1 is exact; the other cosines, each of radius 2, are read from
    one rotation up to the last nonzero coordinate: by exp(2 pi i/m) =
    exp(i pi/(m/2)) for even m, and as the even powers of exp(i pi/m) for
    odd m.
    """
    last = max((j for j, n in enumerate(nums) if n), default=0)
    step = 1 + m % 2
    balls = islice(rotation_balls(m * step // 2, step * last, bits), step - 1, None, step)
    mid = nums[0] << bits
    # zip reads nums first, so a rational element starts no rotation.
    for n, (c, _) in zip(nums[1 : last + 1], balls):
        mid += n * c
    return mid, 2 * sum(map(abs, nums[1:]))


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

    Raises ValueError if ``initial_bits`` is below 2, the least precision
    whose balls ``rotation_balls`` bounds (and doubling from 0 would never
    rise), or if the element is not fixed by complex conjugation (its
    embedding would not be a real number); and raises
    ArithmeticInconsistencyError if the ball still straddles zero at the
    precision ceiling, which for a correct kernel cannot happen.
    """
    if initial_bits < 2:
        raise ValueError(f"initial precision must be at least 2 bits, got {initial_bits}")
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
