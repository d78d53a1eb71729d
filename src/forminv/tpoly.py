"""Univariate polynomials in a deformation parameter, over exact rationals.

Used for strict order polynomials of rooted trees and for presenting flow
coefficients.  Coefficients are stored dense in ascending degree with
trailing zeros trimmed.
"""

from __future__ import annotations

from .rat import ONE, Rat, ZERO, rat_to_str


def _trim(coeffs):
    i = len(coeffs)
    while i > 0 and not coeffs[i - 1]:
        i -= 1
    return tuple(coeffs[:i])


class TPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim([Rat(c) for c in coeffs])

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def interpolate(cls, points):
        """Unique polynomial of degree < len(points) through (x_i, y_i),
        by Lagrange basis expansion with exact arithmetic."""
        xs = [Rat(x) for x, _ in points]
        if len(set(xs)) != len(xs):
            raise ValueError("interpolation nodes must be distinct")
        total = cls.zero()
        for i, (_, y) in enumerate(points):
            yi = Rat(y)
            if not yi:
                continue
            basis = cls.const(ONE)
            denom = ONE
            for j, xj in enumerate(xs):
                if j == i:
                    continue
                basis = basis * cls((-xj, ONE))
                denom = denom * (xs[i] - xj)
            total = total + basis.scale(yi / denom)
        return total

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return TPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, TPoly):
            return self.scale(other)
        if not self.coeffs or not other.coeffs:
            return TPoly.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return TPoly(out)

    __rmul__ = __mul__

    def scale(self, c):
        c = Rat(c)
        return TPoly([a * c for a in self.coeffs])

    def __call__(self, x):
        x = Rat(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- inspection ------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, TPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TPoly({self})"

    def __str__(self):
        return self.format()

    def format(self, name: str = "t") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for j in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[j]
            if not c:
                continue
            if j == 0:
                mono = rat_to_str(abs(c))
            else:
                var = name if j == 1 else f"{name}^{j}"
                mono = var if abs(c) == 1 else f"{rat_to_str(abs(c))}*{var}"
            if not parts:
                parts.append(mono if c > 0 else f"-{mono}")
            else:
                parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
        return " ".join(parts)
