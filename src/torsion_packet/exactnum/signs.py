"""Sign determination for real cyclotomic values.

Zero is decided exactly: the reduced power basis is canonical, so an
element is zero iff its coordinate vector is.  A nonzero sign is then
found by evaluating the defining embedding zeta_m -> exp(2*pi*i/m) in
interval arithmetic, doubling the working precision until the enclosing
interval excludes zero.  Termination is guaranteed because zero has
already been excluded symbolically.

Each thread evaluates in its own mpmath interval context, so concurrent
calls never share (or change) a working precision.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator

from mpmath.ctx_iv import MPIntervalContext

from ..errors import ArithmeticInconsistencyError
from .cyclotomic import CyclotomicElem

PRECISION_ENV = "TORSION_PACKET_PRECISION_BITS"
_DEFAULT_BITS = 128
_MAX_DOUBLINGS = 24


def default_precision_bits() -> int:
    """Initial interval precision, from TORSION_PACKET_PRECISION_BITS.

    The value only affects how many refinement rounds are needed, never
    the result.
    """
    raw = os.environ.get(PRECISION_ENV)
    if not raw:
        return _DEFAULT_BITS
    try:
        bits = int(raw)
    except ValueError as exc:
        raise ValueError(f"{PRECISION_ENV} must be an integer, got {raw!r}") from exc
    if bits < 8:
        raise ValueError(f"{PRECISION_ENV} must be at least 8, got {bits}")
    return bits


_local = threading.local()


@contextmanager
def interval_context(bits: int) -> Iterator[MPIntervalContext]:
    """This thread's private mpmath interval context, working at ``bits``.

    The context is created on the thread's first call and reused after
    (creating one costs about as much as a whole sign evaluation).  No
    other thread and not the global ``mpmath.iv`` ever sees its precision,
    which is restored on exit, so nested use within one thread is safe.
    """
    ctx = getattr(_local, "ctx", None)
    if ctx is None:
        ctx = _local.ctx = MPIntervalContext()
    old = ctx.prec
    ctx.prec = bits
    try:
        yield ctx
    finally:
        ctx.prec = old


def _interval_sign(e: CyclotomicElem, bits: int) -> int | None:
    # Real part of the embedding: sum of c_j * cos(2*pi*j/m).  For an
    # element fixed by conjugation this equals the element itself.
    with interval_context(bits) as iv:
        total = iv.mpf(0)
        m = e.m
        for j, c in enumerate(e.coeffs):
            if c:
                term = iv.cos(2 * iv.pi * j / m)
                total += term * iv.mpf(c.numerator) / iv.mpf(c.denominator)
        if total.a > 0:
            return 1
        if total.b < 0:
            return -1
        return None


def sign_of_real(e: CyclotomicElem, initial_bits: int | None = None) -> int:
    """Exact sign (-1, 0, +1) of a conjugation-fixed cyclotomic element.

    Raises ValueError if the element is not fixed by complex conjugation
    (its embedding would not be a real number).
    """
    if not e.is_real():
        raise ValueError(f"{e!r} is not fixed by complex conjugation")
    if e.is_zero():
        return 0
    bits = initial_bits if initial_bits is not None else default_precision_bits()
    for _ in range(_MAX_DOUBLINGS):
        result = _interval_sign(e, bits)
        if result is not None:
            return result
        bits *= 2
    raise ArithmeticInconsistencyError(
        f"interval refinement failed to separate {e!r} from zero at {bits} bits"
    )
