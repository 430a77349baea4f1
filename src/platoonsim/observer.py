"""Per-carriage state-fault observer.

Position and velocity are measured; acceleration and the fault state are
not.  The observer copies the composite dynamics plus an internal model of
the fault generator, driven by four correction inputs built from the
measured channels.  In the coordinates (e_v, zeta, e_f) with
zeta = e_w + mu2 - k2*e_v the estimation-error dynamics are exactly linear
and autonomous, governed by the augmented pair assembled below; placing its
closed-loop eigenvalues (plus the decoupled position-error gain k1) makes
the estimation converge regardless of the control input.

This module builds that pair and synthesizes the gains.  Its checks call
no SVD and no eigenvalue solver, whose LAPACK code numpy pages in on first
use (up to about 1 MB of resident memory each): observability is a Frobenius
condition number from one LU inverse, and the placement is verified on the
characteristic polynomial from Faddeev-LeVerrier's matrix products.  The LU
solver is the one the gain computation needs anyway.
:mod:`platoonsim.simulator` applies the corrections to every carriage at
once.  The per-carriage correction inputs and observer dynamics, and the
linear error system the estimation errors follow, are kept in the test
suite (``tests/oracle.py``) as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PlacementError


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

    @property
    def column(self):
        return np.asarray(self.k, dtype=float).reshape(5, 1)


# ---------------------------------------------------------------------------
# gain synthesis
# ---------------------------------------------------------------------------

def build_augmented_pair(c_row, s_matrix):
    """Augmented (A, C) of the error dynamics in (e_v, zeta, e_f) coordinates.

    A = [[0, 1, 0], [0, 0, C_row], [0, 0, S]] with the 1x3 fault-to-jerk row
    ``c_row`` and the 3x3 generator ``s_matrix``; C selects the velocity
    error, the only corrected channel.
    """
    c_row = np.asarray(c_row, dtype=float).reshape(3)
    s_matrix = np.asarray(s_matrix, dtype=float).reshape(3, 3)
    a = np.zeros((5, 5))
    a[0, 1] = 1.0
    a[1, 2:] = c_row
    a[2:, 2:] = s_matrix
    c = np.zeros((1, 5))
    c[0, 0] = 1.0
    return a, c


def observability_matrix(a, c):
    rows = [np.asarray(c, dtype=float).reshape(1, -1)]
    for _ in range(a.shape[0] - 1):
        rows.append(rows[-1] @ a)
    return np.vstack(rows)


def check_observability(a, c, rel_tol=1e-8):
    """Full numerical rank of the observability matrix O: ``cond_F(O) * rel_tol < 1``.

    ``cond_F(O) = |O|_F |O^-1|_F`` is the Frobenius-norm condition number,
    from one LU inverse; a singular, overflowing or non-finite O has none
    (it reads infinite or NaN) and fails.  With n rows it lies between the
    2-norm condition number ``sigma_max / sigma_min`` and n times that, so
    the test is the singular-value threshold ``sigma_min > rel_tol *
    sigma_max`` made up to n times stricter: every pair it passes has
    ``cond_2 < 1 / rel_tol``, and every pair with ``cond_2 < 1 / (n *
    rel_tol)`` passes it.
    """
    return bool(np.linalg.cond(observability_matrix(a, c), "fro") * rel_tol < 1.0)


def characteristic_coefficients(matrix):
    """Monic characteristic polynomial coefficients, highest power first.

    Faddeev-LeVerrier: n matrix products, with the traces giving the
    coefficients one power at a time.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    coeffs = np.ones(n + 1)
    m = np.zeros_like(matrix)
    diag = np.arange(n)
    for k in range(1, n + 1):
        m[diag, diag] += coeffs[k - 1]
        m = matrix @ m
        coeffs[k] = -m.trace() / k
    return coeffs


def synthesize_gains(a, c, desired_eigenvalues, k1=3.0):
    """Stacked observer gain placing eig(A + K C) at ``desired_eigenvalues``.

    Works through the transposed (controllable) pair so a fully repeated
    spectrum is handled exactly: the gain comes from evaluating the desired
    characteristic polynomial on the transposed matrix (Ackermann), and the
    result is verified by comparing characteristic-polynomial coefficients,
    which stay well conditioned where individual eigenvalues of a defective
    matrix do not.

    Raises
    ------
    PlacementError
        If the pair is unobservable, a desired eigenvalue has nonnegative
        real part, or the verification fails.
    """
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float).reshape(1, -1)
    n = a.shape[0]
    desired = [complex(lam) for lam in desired_eigenvalues]
    if len(desired) != n:
        raise PlacementError(f"need {n} desired eigenvalues, got {len(desired)}")
    if any(lam.real >= 0 for lam in desired):
        raise PlacementError("desired eigenvalues must have negative real parts")
    if not check_observability(a, c):
        raise PlacementError("augmented pair is unobservable; cannot place eigenvalues")

    a_t = a.T
    b_t = c.T
    ctrb = np.hstack([np.linalg.matrix_power(a_t, i) @ b_t for i in range(n)])
    poly_at = np.eye(n, dtype=complex)
    for lam in desired:
        poly_at = poly_at @ (a_t - lam * np.eye(n))
    # real, to a relative 1e-9, when the eigenvalues are closed under conjugation
    if np.abs(poly_at.imag).max() > 1e-9 * max(1.0, np.abs(poly_at.real).max()):
        raise PlacementError("desired eigenvalues are not closed under conjugation")
    last_row = np.zeros(n)
    last_row[-1] = 1.0
    try:
        row = np.linalg.solve(ctrb.T, last_row)
    except np.linalg.LinAlgError as exc:
        raise PlacementError("controllability matrix is singular") from exc
    k = -(row @ poly_at.real)

    gains = ObserverGains(k1=float(k1), k=tuple(float(v) for v in k))
    _verify_placement(a, c, gains, desired)
    return gains


def _verify_placement(a, c, gains, desired, rel_tol=1e-6):
    got = characteristic_coefficients(closed_loop_matrix(a, c, gains))
    want = np.real(np.poly(np.asarray(desired, dtype=complex)))
    scale = np.maximum(np.abs(want), 1.0)
    err = np.abs(got - want) / scale
    if err.max() > rel_tol:
        raise PlacementError(
            f"placement verification failed: coefficient error {err.max():.3e}")


def closed_loop_matrix(a, c, gains):
    """A + K C for the synthesized stacked gain."""
    return np.asarray(a, dtype=float) + gains.column @ np.asarray(c, dtype=float).reshape(1, -1)
