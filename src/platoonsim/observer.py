"""Per-carriage state-fault observer gains, placed in closed form.

Position and velocity are measured; acceleration and the fault state are
not.  The observer copies the composite dynamics plus an internal model of
the fault generator, driven by four correction inputs built from the
measured channels.  In the coordinates (e_v, zeta, e_f) with
zeta = e_w + mu2 - k2*e_v the estimation-error dynamics are exactly linear
and autonomous: xi' = (A + K C) xi with

    A = [[0, 1, 0], [0, 0, (u, 0, n)], [0, 0, S(omega)]],   C = e_1,

where u = upsilon/m and n = nu*omega/m are the fault-to-jerk row of the
carriage and S(omega) = [[0, 0, 0], [0, 0, omega], [0, -omega, 0]] is the
fault generator (a zero row for the constant mode, a rotation at omega).
Placing eig(A + K C), plus the decoupled position-error gain k1, makes the
estimation converge whatever the control.

Every pair has this structure, so it is given by its three numbers
(u, n, omega) and placed by formulas, not by a generic solver.  With
K = (k2, k3, k4[0], k4[1], k4[2]),

    det(sI - A - KC) = s^5 - k2 s^4 + (omega^2 - k3) s^3
                       - (k2 omega^2 + u k4[0] + n k4[2]) s^2
                       + (n omega k4[1] - k3 omega^2) s - u omega^2 k4[0].

Matching it with the desired s^5 + a1 s^4 + a2 s^3 + a3 s^2 + a4 s + a5
gives the gains one coefficient at a time (:func:`synthesize_gains`):

    s^4:  k2    = -a1
    s^3:  k3    = omega^2 - a2
    s^0:  k4[0] = -a5 / (u omega^2)
    s^1:  k4[1] = (a4 + k3 omega^2) / (n omega)
    s^2:  k4[2] = (a1 omega^2 + a5 / omega^2 - a3) / n

The observability matrix O = (C; CA; ...; CA^4) is triangular, with rows
e_1, e_2, (0, 0, u, 0, n), (0, 0, 0, -n omega, 0) and
(0, 0, 0, 0, -n omega^2), so its Frobenius condition number is a closed
form too (:func:`observability_condition`).  The placed polynomial is
verified in exact integer arithmetic on the floats the gains and the pair
hold: re-evaluating the five formulas in floats would not be a check, and
at large omega the s^1 coefficient cancels terms of size omega^4.  The
desired polynomial is multiplied out from its roots in Python complex
arithmetic, so placement runs no numpy routine and pages in none of numpy's
or LAPACK's code.

:mod:`platoonsim.simulator` applies the corrections to every carriage at
once.  The per-carriage correction inputs and observer dynamics, the linear
error system the estimation errors follow, and the generic (A, C) placement
(Ackermann's formula) are kept in the test suite (``tests/oracle.py``) as
its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PlacementError

# a pair is observable when cond_F(O) * OBSERVABILITY_RTOL < 1
OBSERVABILITY_RTOL = 1e-8
# each placed coefficient is within PLACEMENT_RTOL of max(|desired|, 1)
PLACEMENT_RTOL = 1e-6


@dataclass(frozen=True)
class ObserverGains:
    """Position-error gain ``k1`` and the stacked gain ``k`` = (k2, k3, k4[0:3])."""

    k1: float
    k: tuple

    def __post_init__(self):
        if len(self.k) != 5:
            raise PlacementError("stacked gain must have 5 entries")

    @property
    def k2(self):
        return self.k[0]

    @property
    def k3(self):
        return self.k[1]

    @property
    def k4(self):
        return np.asarray(self.k[2:5])


def observability_condition(u, n, omega):
    """Frobenius condition number ``|O|_F |O^-1|_F`` of the pair's observability matrix.

    O's entries besides the two unit rows are u, n, -n omega and
    -n omega**2; O^-1's are 1/u, 1/(u omega**2), -1/(n omega) and
    -1/(n omega**2).  A singular O (u, n or omega zero, or a product of
    them that underflows) reads infinite, and a non-finite entry infinite or
    NaN.  With 5 rows cond_F lies between the 2-norm condition number and 5
    times that.
    """
    w2 = omega * omega
    u_w2, n_w, n_w2 = u * w2, n * omega, n * w2
    if not (u and u_w2 and n_w and n_w2):
        return math.inf
    norm2 = 2.0 + u * u + n * n + n_w * n_w + n_w2 * n_w2
    inv2 = 2.0 + sum((1.0 / x) * (1.0 / x) for x in (u, u_w2, n_w, n_w2))
    return math.sqrt(norm2) * math.sqrt(inv2)


def synthesize_gains(u, n, omega, desired_eigenvalues, k1=3.0):
    """Stacked observer gain placing eig(A + K C) at ``desired_eigenvalues``.

    ``(u, n, omega)`` is the pair: the fault row (u, 0, n) and the
    generator frequency.  The gains solve the five coefficient equations
    one at a time, so a fully repeated spectrum needs no special care; the
    placed polynomial is then verified against the desired one in exact
    arithmetic.  The divisors u omega**2, n omega, omega**2 and n are the
    products :func:`observability_condition` has found nonzero.

    Raises
    ------
    PlacementError
        If a desired eigenvalue is missing or has nonnegative real part, the
        pair is unobservable, the eigenvalues are not closed under
        conjugation, or the verification fails.
    """
    u, n, omega = float(u), float(n), float(omega)
    desired = [complex(lam) for lam in desired_eigenvalues]
    if len(desired) != 5:
        raise PlacementError(f"need 5 desired eigenvalues, got {len(desired)}")
    if any(lam.real >= 0 for lam in desired):
        raise PlacementError("desired eigenvalues must have negative real parts")
    if not observability_condition(u, n, omega) * OBSERVABILITY_RTOL < 1.0:
        raise PlacementError("augmented pair is unobservable; cannot place eigenvalues")
    coeffs = [1.0 + 0.0j]   # prod (s - lam), highest power first
    for lam in desired:
        coeffs = [a - lam * b for a, b in zip(coeffs + [0.0], [0.0] + coeffs)]
    # real, to a relative 1e-9, when the eigenvalues are closed under conjugation
    if max(abs(a.imag) for a in coeffs) > 1e-9 * max(1.0, *(abs(a.real) for a in coeffs)):
        raise PlacementError("desired eigenvalues are not closed under conjugation")
    want = [a.real for a in coeffs[1:]]
    a1, a2, a3, a4, a5 = want

    w2 = omega * omega
    k3 = w2 - a2
    k = (-a1, k3, -a5 / (u * w2), (a4 + k3 * w2) / (n * omega), (a1 * w2 + a5 / w2 - a3) / n)
    err = _coefficient_error(u, n, omega, k, want)
    if not err <= PLACEMENT_RTOL:
        raise PlacementError(f"placement verification failed: coefficient error {err:.3e}")
    return ObserverGains(k1=float(k1), k=k)


def _coefficient_error(u, n, omega, k, want):
    """Largest ``|got - want| / max(|want|, 1)`` over the placed coefficients, exactly.

    ``got`` are the coefficients of det(sI - A - KC) for the floats the pair
    and the gains hold.  Every finite float is a whole multiple of 2**-bits
    for some bits, so each coefficient, a sum of products of up to four
    of them, is an integer at scale 2**(4 bits); only the final ratio is
    rounded.  A non-finite value, or a ratio past the float range, reads
    infinite.
    """
    values = (u, n, omega, *k, *want)
    if not all(map(math.isfinite, values)):
        return math.inf
    ratios = [x.as_integer_ratio() for x in values]
    bits = max(q.bit_length() for _, q in ratios) - 1
    uu, nn, ww, k2, k3, k41, k42, k43, *aa = [(p << bits) // q for p, q in ratios]

    def scaled(*factors):
        return math.prod(factors) << (bits * (4 - len(factors)))

    got = (-scaled(k2),
           scaled(ww, ww) - scaled(k3),
           -(scaled(k2, ww, ww) + scaled(uu, k41) + scaled(nn, k43)),
           scaled(nn, ww, k42) - scaled(k3, ww, ww),
           -scaled(uu, ww, ww, k41))
    one = 1 << (4 * bits)
    try:
        return max(abs(g - scaled(a)) / max(abs(scaled(a)), one) for g, a in zip(got, aa))
    except OverflowError:
        return math.inf
