"""Integral long Weierstrass models and their standard invariants."""

from __future__ import annotations

from typing import NamedTuple, Tuple

__all__ = ["WeierstrassModel"]


class WeierstrassModel(NamedTuple):
    """y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 over the integers."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def b_invariants(self) -> Tuple[int, int, int, int]:
        """(b2, b4, b6, b8); they satisfy 4*b8 = b2*b6 - b4**2."""
        a1, a2, a3, a4, a6 = self
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def c_invariants(self) -> Tuple[int, int]:
        """(c4, c6); they satisfy c4**3 - c6**2 = 1728 * discriminant."""
        b2, b4, b6, _ = self.b_invariants()
        return b2 * b2 - 24 * b4, -(b2**3) + 36 * b2 * b4 - 216 * b6

    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def require_nonsingular(self) -> int:
        """The discriminant, checked to be non-zero."""
        disc = self.discriminant()
        if disc == 0:
            raise ValueError("singular model (discriminant is zero)")
        return disc

    def translated(self, r: int = 0, s: int = 0, t: int = 0) -> "WeierstrassModel":
        """Integral change of variables x -> x + r, y -> y + s*x + t.

        Preserves the discriminant and the c-invariants.
        """
        a1, a2, a3, a4, a6 = self
        return WeierstrassModel(
            a1 + 2 * s,
            a2 - s * a1 + 3 * r - s * s,
            a3 + r * a1 + 2 * t,
            a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
            a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
        )

    def rescaled_down(self, u: int) -> "WeierstrassModel":
        """(x, y) -> (u^2*x, u^3*y), i.e. a_i -> a_i / u^i; u^i must divide a_i.

        Divides the discriminant by u^12.
        """
        coeffs = []
        for a_i, weight in zip(self, (1, 2, 3, 4, 6)):
            q, rem = divmod(a_i, u**weight)
            if rem:
                raise ValueError("model is not divisible for rescaling by %d" % u)
            coeffs.append(q)
        return WeierstrassModel(*coeffs)
