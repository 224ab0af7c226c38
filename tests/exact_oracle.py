"""Exact correlations and deviations of a stored float device.

Every float64 entry of a device is a dyadic rational, so each correlation
<psi| A (x) B |psi> of the stored device has an exact value: sums of
products of ``fractions.Fraction`` entries, with no rounding.  The
deviations compare those sums against 2 sqrt(2) (CHSH) and against
(1, 0, 1/sqrt(2)) (Mayers-Yao); sqrt(2) is irrational, so it is taken to
``DIGITS`` significant digits with ``decimal``, far below any float
difference.  The library computes the same quantities as float sums, so its
distance from these values is its rounding error on that stored device.
Standard library only, so the oracle adds no dependency.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

from singlet_selftest.device import MY_PAIRS, DeviceStack

DIGITS = 50

with localcontext() as _ctx:
    _ctx.prec = DIGITS
    SQRT2 = Decimal(2).sqrt()
    # The Mayers-Yao ideal correlations, in ``MY_PAIRS`` order.
    MY_IDEAL = (Decimal(1), Decimal(0), 1 / SQRT2, Decimal(0), Decimal(1), 1 / SQRT2)


def _exact(matrix) -> list[list[tuple[Fraction, Fraction]]]:
    """A complex float matrix as rows of exact (real, imaginary) pairs."""
    return [[(Fraction(float(z.real)), Fraction(float(z.imag))) for z in row] for row in matrix]


def _product(a, b):
    """The exact product of two matrices of (real, imaginary) pairs."""
    return [[(sum(x[0] * y[0] - x[1] * y[1] for x, y in zip(row, column)),
              sum(x[0] * y[1] + x[1] * y[0] for x, y in zip(row, column)))
             for column in zip(*b)] for row in a]


def correlation(device: DeviceStack, alice: str, bob: str) -> Fraction:
    """<psi| A (x) B |psi> of the n = 1 stack, exactly: the real part of the
    sum of conj(Psi) * (A Psi B^T) over the (dA, dB) state matrix Psi."""
    psi = _exact(device.state[0].reshape(device.dims))
    applied = _product(_product(_exact(device.alice_obs[alice][0]), psi),
                       _exact(device.bob_obs[bob][0].T))
    return sum(p[0] * q[0] + p[1] * q[1]
               for row_p, row_q in zip(psi, applied) for p, q in zip(row_p, row_q))


def _decimal(value: Fraction) -> Decimal:
    """``value`` to ``DIGITS`` significant digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return Decimal(value.numerator) / Decimal(value.denominator)


def chsh(device: DeviceStack) -> tuple[Decimal, Decimal]:
    """The CHSH value <A0B0> + <A0B1> + <A1B0> - <A1B1> and its epsilon,
    2 sqrt(2) minus the value, unclamped: negative on a stored device whose
    exact value lies above Tsirelson's bound."""
    c = {(a, b): correlation(device, a, b) for a in ("A0", "A1") for b in ("B0", "B1")}
    value = _decimal(c["A0", "B0"] + c["A0", "B1"] + c["A1", "B0"] - c["A1", "B1"])
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return value, 2 * SQRT2 - value


def my_epsilon(device: DeviceStack) -> Decimal:
    """The worst |<A B> - ideal| over the Mayers-Yao pairs, exactly up to the
    ``DIGITS`` of sqrt(2)."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return max(abs(_decimal(correlation(device, a, b)) - ideal)
                   for (a, b), ideal in zip(MY_PAIRS, MY_IDEAL))
