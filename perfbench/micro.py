"""Seeded micro-benchmarks of the exactnum layer, in their own process.

Usage: python micro.py SEED

Prints one JSON object mapping metric name to the median time of one
operation in microseconds.  Operands are random elements drawn from SEED;
each conductor's cached tables are built before any timing starts.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from fractions import Fraction

from torsion_packet.exactnum import CyclotomicElem, QuadraticElem, galois_apply, sign_of_real
from torsion_packet.exactnum.cyclotomic import _conductor

OPERANDS = 8  # distinct operands per case; every timed round uses all of them
ROUNDS = 7  # the median round is reported


def _dense(rng: random.Random, m: int) -> CyclotomicElem:
    """Random small rational coordinates, like the products the degree scan forms."""
    return CyclotomicElem(
        m, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(_conductor(m).degree)]
    )


def _binomial(rng: random.Random, m: int) -> CyclotomicElem:
    """zeta^i + c*zeta^j, the shape of the tangent denominators that get inverted.
    Dense operands would time coefficient blow-up in the Euclidean inverse."""
    while True:
        i, j = rng.randrange(m), rng.randrange(m)
        e = CyclotomicElem.zeta(m, i) + rng.choice((-2, -1, 1, 2)) * CyclotomicElem.zeta(m, j)
        if not e.is_rational():
            return e


def _per_op_us(op, operands) -> float:
    rounds = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for args in operands:
            op(*args)
        rounds.append((time.perf_counter() - start) / len(operands))
    return statistics.median(rounds) * 1e6


def run(seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    out = {}
    for m in (24, 120, 240):
        _conductor(m)
        pairs = [(_dense(rng, m), _dense(rng, m)) for _ in range(OPERANDS)]
        out[f"exactnum.cyclotomic.mul_us.m{m}"] = _per_op_us(lambda a, b: a * b, pairs)
        singles = [(_binomial(rng, m),) for _ in range(OPERANDS)]
        out[f"exactnum.cyclotomic.inverse_us.m{m}"] = _per_op_us(lambda a: a.inverse(), singles)
    m = 120
    units = _conductor(m).units
    galois = [(_dense(rng, m), rng.choice(units[1:])) for _ in range(OPERANDS)]
    out["exactnum.cyclotomic.galois_us.m120"] = _per_op_us(galois_apply, galois)

    d = rng.choice((2, 3, 5, 6, 7, 10, 11, 13))
    quads = [
        tuple(
            QuadraticElem(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-9, 9), d)
            for _ in range(2)
        )
        for _ in range(OPERANDS)
    ]
    out["exactnum.quadratic.mul_us"] = _per_op_us(lambda a, b: a * b, quads)

    m = 20
    _conductor(m)
    reals = []
    while len(reals) < OPERANDS:
        x = _binomial(rng, m)
        r = x + x.conjugate()
        if not r.is_zero():
            reals.append((r,))
    out["exactnum.signs.sign_us.m20"] = _per_op_us(sign_of_real, reals)
    return out


if __name__ == "__main__":
    print(json.dumps(run(int(sys.argv[1]))))
