"""Distributed fault-tolerant control laws.

Followers (every non-head carriage) run a three-step backstepping design on
the estimated states of themselves and the carriage ahead, cancelling the
estimated coupling, fault and observer-correction terms.  Head carriages
run a barrier-transformed tracking law against the tail of the train in
front (or the virtual lead profile for the first train) that keeps the
inter-train gap and a gap/velocity error combination inside prescribed open
intervals for all time, not just asymptotically.

The laws evaluate on floats and on numpy arrays with one entry per carriage
or per train pair, each in one closed form.  alpha2 is affine, so the
follower command alpha3 is five constant weights (:func:`alpha3_coefficients`)
on a follower's differences to its predecessor plus the predecessor's
estimated jerk; the simulator applies the weights once per derivative
evaluation.  The head law runs once per train pair on floats: the pure clamp
:func:`clamp_pair_errors` for a pair outside the barrier domain, then one
:func:`head_pair` call, which gives the barrier composite beta1, its
closed-form partials and the closed-loop term, with its constants built once
by :func:`head_constants`.  The tests keep the scalar follower chain
alpha1 -> alpha2 -> alpha3, a recording clamp and the array/dual forms of
the head law in ``tests/oracle.py`` as references, and check the closed
forms with forward-mode dual numbers (:mod:`platoonsim.autodiff`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import gradient  # noqa: F401  (the benchmark patches controller.gradient)
from .errors import BarrierDomainError, ConfigurationError, Violation

_SATURATION_MARGIN = 1e-9  # distance to the boundary used when clamping


# ---------------------------------------------------------------------------
# gain and constraint records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FollowerGains:
    """Backstepping gains of the non-head carriages (all 1/s scale)."""

    l1: float
    l2: float
    l3: float


@dataclass(frozen=True)
class HeadGains:
    """Gains of the barrier-transformed head-carriage law."""

    ell1: float
    ell2: float
    ell3: float
    ell4: float


@dataclass(frozen=True)
class ConstraintSpec:
    """Inter-train distance and velocity-difference constraints.

    ``gamma1`` is the maximum communication radius, ``gamma2`` the emergency
    braking distance, ``d_s`` the service braking distance the gap should
    settle at; ``sigma1``/``sigma2`` bound the velocity difference.
    """

    gamma1: float
    gamma2: float
    d_s: float
    sigma1: float
    sigma2: float

    def __post_init__(self):
        if not (self.gamma2 < self.d_s < self.gamma1):
            raise ConfigurationError(
                f"need gamma2 < d_s < gamma1, got {self.gamma2}, {self.d_s}, {self.gamma1}")

    @property
    def rho1(self):
        """Upper bound on the gap error (m)."""
        return self.gamma1 - self.d_s

    @property
    def rho2(self):
        """Magnitude of the lower bound on the gap error (m)."""
        return self.d_s - self.gamma2

    def varrho(self, ell1):
        """Bounds (varrho1, varrho2) of the combined error q = vtilde + ell1*xtilde."""
        return (-ell1 * self.rho2 + self.sigma1, -ell1 * self.rho1 + self.sigma2)


@dataclass
class TrainPairErrors:
    """Gap and velocity errors between a train's head and the tail ahead of it."""

    epsilon: float   # inter-train distance, m
    x_tilde: float   # epsilon - d_s, m
    v_tilde: float   # velocity difference, m/s
    q_tilde: float   # v_tilde + ell1 * x_tilde, m/s

    @classmethod
    def from_states(cls, x_front_tail, v_front_tail, x_head, v_head, d_s, ell1):
        eps = x_front_tail - x_head
        xt = eps - d_s
        vt = v_front_tail - v_head
        return cls(epsilon=eps, x_tilde=xt, v_tilde=vt, q_tilde=vt + ell1 * xt)


# ---------------------------------------------------------------------------
# follower backstepping
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def alpha3_coefficients(gains):
    """alpha3 as five constant weights on the differences to the predecessor.

    With ``whdot_prev = 0``, alpha3 is linear in
    ``D = (xhat - xhat_prev + d_p, vhat - vhat_prev, what - what_prev,
    xhdot - xhdot_prev, vhdot - vhdot_prev)``; the weights, in that order,
    are its constant partials.  With c = l1 + 1 and k = l2 + 1 + c^2 (the
    z2 weight of alpha2):
    z1 = D0, z2 = D1 + c*D0, z3 = D2 + (k + c)*D1 + (k*c + 1)*D0, and the
    alpha2 partials are -(k*c + 1) on xhat and -(k + c) on vhat.
    """
    c = gains.l1 + 1.0
    k = gains.l2 + 1.0 + c * c
    return np.array([-(gains.l3 * (k * c + 1.0) + c),
                     -(gains.l3 * (k + c) + 1.0),
                     -gains.l3,
                     -(k * c + 1.0),
                     -(k + c)])


def follower_control(xhat, vhat, what, xhat_prev, vhat_prev, what_prev, what_next,
                     xhdot, vhdot, xhdot_prev, vhdot_prev, whdot_prev,
                     b1, b2, b3, cf_hat, mu3, gains, d_p):
    """Control input of a non-head carriage.

    Cancels the estimated acceleration coupling (own, preceding and, unless
    this is the tail, following carriage), the estimated fault jerk and the
    observer correction, then applies the backstepping command alpha3: the
    :func:`alpha3_coefficients` weights on the differences to the carriage
    ahead, plus ``whdot_prev``, which enters with weight 1.  Evaluates on
    floats or arrays.  ``what_next`` may be ``None`` at the tail where
    ``b3`` is structurally zero.
    """
    c_x, c_v, c_w, c_xd, c_vd = alpha3_coefficients(gains)
    a3 = (c_x * (xhat - xhat_prev + d_p) + c_v * (vhat - vhat_prev)
          + c_w * (what - what_prev) + c_xd * (xhdot - xhdot_prev)
          + c_vd * (vhdot - vhdot_prev) + whdot_prev)
    coupling = b1 * what + b2 * what_prev + cf_hat + mu3
    if what_next is not None:
        coupling += b3 * what_next
    return -coupling + a3


# ---------------------------------------------------------------------------
# barrier transforms and head-carriage law
# ---------------------------------------------------------------------------

def _clamp_to_domain(value, upper, lower, saturate):
    if -lower < value < upper:
        return value
    if not saturate:
        raise BarrierDomainError(value, -lower, upper)
    if value >= upper:
        return upper - _SATURATION_MARGIN
    return -lower + _SATURATION_MARGIN


def _log(x):
    if type(x) is float:
        return math.log(x)   # np.log takes about 1 us longer on a Python float
    return np.log(x)         # arrays, numpy scalars, and duals through Dual.log


def _barrier(arg, upper, lower):
    """Transform, slope and curvature on (-lower, upper); floats, arrays or duals.

    The transform is a difference of two logarithms, each of a product with
    the distance to one boundary; that distance is exact near its boundary,
    so the value keeps full precision at the saturation clamp, a margin
    inside either end.
    """
    near_lo = lower + arg
    near_hi = upper - arg
    phi = _log(upper * near_lo) - _log(lower * near_hi)
    inv_lo = 1.0 / near_lo
    inv_hi = 1.0 / near_hi
    slope = inv_lo + inv_hi
    return phi, slope, (inv_hi - inv_lo) * slope


def barrier_phi(x_tilde, rho1, rho2, saturate=False):
    """Logarithmic gap-error transform and its derivative on (-rho2, rho1).

    Diverges to +/- infinity at the interval ends; the derivative uses the
    partial-fraction form, which stays accurate near the boundaries.
    Raises :class:`BarrierDomainError` outside the open interval unless
    ``saturate`` pulls the argument back to just inside the boundary.
    """
    x = _clamp_to_domain(x_tilde, rho1, rho2, saturate)
    return _barrier(x, rho1, rho2)[:2]


def barrier_psi(q_tilde, varrho1, varrho2, saturate=False):
    """Same transform for the combined error on (-varrho2, varrho1)."""
    q = _clamp_to_domain(q_tilde, varrho1, varrho2, saturate)
    return _barrier(q, varrho1, varrho2)[:2]


def clamp_pair_errors(x_tilde, v_tilde, ell1, rho1, rho2, varrho1, varrho2,
                      saturate=False):
    """Gap error and combined error of one train pair, inside the barrier domain.

    The gap error is clamped first; the combined error q = v + ell1*x formed
    with it is then clamped to its own interval.  Returns the clamped
    ``(x_tilde, q_tilde)``; without ``saturate`` an argument outside its
    interval raises :class:`BarrierDomainError`.
    """
    xt = _clamp_to_domain(x_tilde, rho1, rho2, saturate)
    return xt, _clamp_to_domain(v_tilde + ell1 * xt, varrho1, varrho2, saturate)


def head_constants(gains, rho1, rho2, varrho1, varrho2):
    """The constants :func:`head_pair` reads, built once from the gains and bounds.

    ``(ell1, ell2, ell3, ell1**2 - ell4, rho1, rho2, varrho1, varrho2)``.
    """
    return (gains.ell1, gains.ell2, gains.ell3, gains.ell1 ** 2 - gains.ell4,
            rho1, rho2, varrho1, varrho2)


def head_pair(x_tilde, q_tilde, v_tilde, what_tilde, q_formed, constants):
    """beta1, its partials and the closed-loop term of one train pair's head law, on floats.

    ``x_tilde`` and ``q_tilde`` are the gap and combined errors inside the
    barrier domain (clamped by :func:`clamp_pair_errors` when they were
    outside), ``q_formed`` the combined error v_tilde + ell1*x_tilde as
    formed, and ``constants`` is :func:`head_constants`.  With the barrier
    transform phi (psi), slope Phi (Psi) and curvature Phi' (Psi') of each
    error on its interval (see :func:`barrier_phi`):
    beta1 = -phi*Phi - ell2*q - ell3*psi*Psi,
    d(beta1)/dv = -ell2 - ell3*(Psi^2 + psi*Psi'),
    d(beta1)/dx = -(Phi^2 + phi*Phi') + ell1*d(beta1)/dv, and with
    beta2 = what_tilde + ell1*v_tilde - beta1 the head input is
    u = g_front - own + feedback, where feedback =
    ell1*w + ell1^2*beta2 - pbx*v - pbv*w + pbv^2*beta2 + q - ell4*beta2,
    with the what_tilde and beta2 terms collected.  Returns
    ``(beta1, d(beta1)/dx, d(beta1)/dv, feedback)``.
    """
    ell1, ell2, ell3, ell1_sq_less_ell4, rho1, rho2, varrho1, varrho2 = constants
    near_lo = rho2 + x_tilde
    near_hi = rho1 - x_tilde
    phi = math.log(rho1 * near_lo) - math.log(rho2 * near_hi)
    inv_lo = 1.0 / near_lo
    inv_hi = 1.0 / near_hi
    big_phi = inv_lo + inv_hi
    d_big_phi = (inv_hi - inv_lo) * big_phi
    near_lo = varrho2 + q_tilde
    near_hi = varrho1 - q_tilde
    psi = math.log(varrho1 * near_lo) - math.log(varrho2 * near_hi)
    inv_lo = 1.0 / near_lo
    inv_hi = 1.0 / near_hi
    big_psi = inv_lo + inv_hi
    d_big_psi = (inv_hi - inv_lo) * big_psi
    value = -phi * big_phi - ell2 * q_tilde - ell3 * psi * big_psi
    d_v = -ell2 - ell3 * (big_psi * big_psi + psi * d_big_psi)
    d_x = -(big_phi * big_phi + phi * d_big_phi) + ell1 * d_v
    beta2 = what_tilde + ell1 * v_tilde - value
    return value, d_x, d_v, ((ell1 - d_v) * what_tilde
                             + (d_v * d_v + ell1_sq_less_ell4) * beta2
                             - d_x * v_tilde + q_formed)


def beta_functions(x_tilde, v_tilde, what_tilde, gains, rho1, rho2,
                   varrho1, varrho2, saturate=False):
    """beta1, beta2 and the partials of beta1 w.r.t. the gap/velocity errors.

    When ``saturate`` is set, out-of-domain arguments are pulled back to just
    inside the boundary (see :func:`clamp_pair_errors`) so integration stays
    defined.
    """
    xt, qt = clamp_pair_errors(x_tilde, v_tilde, gains.ell1, rho1, rho2,
                               varrho1, varrho2, saturate)
    val, d_x, d_v, _ = head_pair(xt, qt, v_tilde, what_tilde, qt,
                                 head_constants(gains, rho1, rho2, varrho1, varrho2))
    return val, what_tilde + gains.ell1 * v_tilde - val, d_x, d_v


def head_control(g_front, b1, b3, what, what_next, cf_hat, mu3,
                 x_tilde, v_tilde, what_tilde, gains, rho1, rho2,
                 varrho1, varrho2, saturate=False):
    """Control input of a head carriage.

    ``g_front`` is the estimated-acceleration derivative of the tail ahead
    (the virtual lead's jerk for the first train); ``what_tilde`` the
    estimated acceleration difference across the gap.  The remaining terms
    cancel this carriage's own estimated coupling/fault/correction and close
    the loop on the barrier-transformed errors (:func:`head_pair`).
    """
    xt, qt = clamp_pair_errors(x_tilde, v_tilde, gains.ell1, rho1, rho2,
                               varrho1, varrho2, saturate)
    feedback = head_pair(xt, qt, v_tilde, what_tilde, v_tilde + gains.ell1 * x_tilde,
                         head_constants(gains, rho1, rho2, varrho1, varrho2))[3]
    own = b1 * what + cf_hat + mu3
    if what_next is not None:
        own += b3 * what_next
    return g_front - own + feedback


# ---------------------------------------------------------------------------
# feasibility validation
# ---------------------------------------------------------------------------

def validate_parameters(follower, head, constraints):
    """Check every gain inequality; returns the violations (empty list if feasible)."""
    out = []
    for name, value in (("l1 > 0", follower.l1),
                        ("l2 > 0", follower.l2),
                        ("l3 > 0", follower.l3)):
        if not value > 0.0:
            out.append(Violation(name=name, value=value, bound=0.0, subject="follower gains"))
    if not head.ell1 > 0.0:
        out.append(Violation(name="ell1 > 0", value=head.ell1, bound=0.0, subject="head gains"))
    ell1_cap = min(constraints.sigma2 / constraints.rho1,
                   constraints.sigma1 / constraints.rho2)
    if not head.ell1 < ell1_cap:
        out.append(Violation(name="ell1 < min(sigma2/rho1, sigma1/rho2)",
                             value=head.ell1, bound=ell1_cap, subject="head gains"))
    if not head.ell2 > 2.0:
        out.append(Violation(name="ell2 > 2", value=head.ell2, bound=2.0, subject="head gains"))
    ell3_floor = 2.0 + head.ell2 * head.ell2 / 2.0   # ** raises OverflowError at 1e300
    if not head.ell3 > ell3_floor:
        out.append(Violation(name="ell3 > 2 + ell2^2/2", value=head.ell3,
                             bound=ell3_floor, subject="head gains"))
    if not head.ell4 > 0.5:
        out.append(Violation(name="ell4 > 1/2", value=head.ell4, bound=0.5, subject="head gains"))
    varrho1, varrho2 = constraints.varrho(head.ell1)
    if not varrho1 > 0.0:
        out.append(Violation(name="varrho1 > 0", value=varrho1, bound=0.0, subject="constraints"))
    if not varrho2 > 0.0:
        out.append(Violation(name="varrho2 > 0", value=varrho2, bound=0.0, subject="constraints"))
    return out


def validate_initial(pair_errors, constraints, ell1):
    """Check the strict initial-feasibility intervals for every train pair.

    ``pair_errors`` maps each train index (1-based; pair 1 is against the
    virtual lead) to its :class:`TrainPairErrors` at t=0.
    """
    out = []
    rho1, rho2 = constraints.rho1, constraints.rho2
    varrho1, varrho2 = constraints.varrho(ell1)
    for i, err in pair_errors.items():
        subject = f"train pair {i}"
        if not (-rho2 < err.x_tilde < rho1):
            bound = rho1 if err.x_tilde >= rho1 else -rho2
            out.append(Violation(name=f"xtilde_{i}(0) in (-rho2, rho1)",
                                 value=err.x_tilde, bound=bound, subject=subject))
        if not (-varrho2 < err.q_tilde < varrho1):
            bound = varrho1 if err.q_tilde >= varrho1 else -varrho2
            out.append(Violation(name=f"qtilde_{i}(0) in (-varrho2, varrho1)",
                                 value=err.q_tilde, bound=bound, subject=subject))
    return out
