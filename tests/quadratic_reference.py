"""A reference model of Q(sqrt(d)) over pairs of Fractions, for the tests.

The package's ``QuadraticElem`` carries only what the exclusion argument
needs (negation, inverse, trace, norm, display, and the product); the
tests that need addition, conjugates or signs as an oracle use this model.
"""

from fractions import Fraction as F

from torsion_packet.exactnum import QuadraticElem


class RefQuadratic:
    """Reference a + b*sqrt(d) over a pair of Fractions, for checking the
    integer-numerator QuadraticElem against plain rational arithmetic."""

    def __init__(self, a, b, d):
        self.a, self.b, self.d = F(a), F(b), d

    @classmethod
    def of(cls, q: QuadraticElem) -> "RefQuadratic":
        """The value of ``q``, read from its integers."""
        return cls.of_parts(q.an, q.bn, q.den, q.d)

    @classmethod
    def of_parts(cls, an, bn, den, d) -> "RefQuadratic":
        """The value of (an + bn*sqrt(d))/den."""
        return cls(F(an, den), F(bn, den), d)

    def __eq__(self, o):
        # A rational's radicand is a formality, as in QuadraticElem.
        return (self.a, self.b) == (o.a, o.b) and (self.b == 0 or self.d == o.d)

    def _radicand(self, o):
        """The field of a sum or product: a rational operand takes the
        other's radicand."""
        if self.b == 0:
            return o.d
        assert o.b == 0 or o.d == self.d, "radicand mismatch"
        return self.d

    def __add__(self, o):
        return RefQuadratic(self.a + o.a, self.b + o.b, self._radicand(o))

    def __sub__(self, o):
        return RefQuadratic(self.a - o.a, self.b - o.b, self._radicand(o))

    def __neg__(self):
        return RefQuadratic(-self.a, -self.b, self.d)

    def __mul__(self, o):
        d = self._radicand(o)
        return RefQuadratic(self.a * o.a + d * self.b * o.b, self.a * o.b + self.b * o.a, d)

    def conjugate(self):
        return RefQuadratic(self.a, -self.b, self.d)

    def norm(self):
        return self.a * self.a - self.d * self.b * self.b

    def trace(self):
        return 2 * self.a

    def inverse(self):
        n = self.norm()
        return RefQuadratic(self.a / n, -self.b / n, self.d)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, n):
        base = self.inverse() if n < 0 else self
        result = RefQuadratic(1, 0, self.d)
        for _ in range(abs(n)):
            result = result * base
        return result

    def sign(self):
        """The exact sign under sqrt(d) -> the positive real root."""
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sa == sb or sa == 0 or sb == 0:
            return sa or sb
        # Opposite signs: the term of larger absolute value wins.
        return sa if self.a * self.a > self.d * self.b * self.b else sb

    def __str__(self):
        # The display format of the Fraction-based implementation.
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.d})"
        if self.b == 1:
            tail = root
        elif self.b == -1:
            tail = f"-{root}"
        else:
            tail = f"{self.b}*{root}"
        if self.a == 0:
            return tail
        op = "-" if self.b < 0 else "+"
        return f"{self.a} {op} {tail.lstrip('-')}"
