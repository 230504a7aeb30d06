"""Positive-definite kernels built from positively-supported distributions.

A distribution F on (0, inf) defines the even function

    k(r) = integral over x > |r| of (1 - |r|/x) dF(x),

a mixture of triangular bumps. It satisfies k(0) = 1, is convex and
nonincreasing on [0, inf), and is positive definite on the line; products
of one-dimensional evaluations extend it to vectors. A scale rho > 0
evaluates at rho * r. The Fourier transform of the kernel is a nonnegative
even function whose value at zero equals the mean of F divided by rho, and
the generating cdf can be recovered from the kernel and its one-sided
derivative: F(x) = 1 - k(x) + x * k'(x).

Closed forms come from the tilt decomposition of F (constant C, tilted law
G): k(r) = S_F(r) - r C S_G(r) with survival functions S, and the
transform is 2 C (1 - Re phi_G(a)) / a^2 with G's characteristic function
phi_G. Every continuous catalog law is a generalized gamma law (shape a,
scale b, power p), and C is infinite where a <= 1/p: gamma shapes s <= 1
(with the exponential and chi-square with nu <= 2), Weibull exponents
alpha <= 1, and the half-normal law (with chi nu = 1 and Nakagami m = 1/2).
There the tail is one incomplete gamma function,
T(r) = Gamma(a - 1/p, (r / b)^p) / (b Gamma(a)), and the transform of a
law with a closed Im phi_F (power 1, or the half-normal law) comes from the
spectral identity FT(a) = (2 / a^2) * integral_0^a Im phi_F(u) du: one
quadrature of a smooth, non-oscillating integrand. Quadrature remains for
the kernels of Weibull exponents at most 1/2 and of shapes with
-1e-4 < a - 1/p < 0 (gamma shapes within 1e-4 below one), for the
transforms of Weibull exponents other than 1 or 2, and as the oracle of
every closed form. It is two helpers: ``_law_integral``, the integral of
g(x) dF(x) (in w = log x, or by QUADPACK's cosine rule QAWO when weighted
by cos(ax)), and ``_kernel_cos_integral``, the integral of k(r) cos(ar)
over r > 0 by QAWO between the kernel's knots. The numeric transform takes
both, as (2 / a^2) E[(1 - cos aX) / X] and as twice the cosine integral.
"""

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from scipy.special import exp1, gammaincc

from . import distributions as dists
from .errors import (
    InfiniteTiltError,
    ParseError,
    QuadratureError,
    SpectralMismatchError,
)

_LOG_MAX = math.log(sys.float_info.max)

# Agreement demanded between the two independent spectral routes.
SPECTRAL_AGREEMENT = 1e-6


@dataclass(frozen=True)
class KernelSpec:
    """A generating distribution plus an evaluation scale.

    Exactly one of rho (direct scale) or tau (target whole-line area under
    the scaled kernel; rho = mean / tau) may be given; neither means
    rho = 1.
    """

    dist: dists.Distribution
    rho: float = None
    tau: float = None

    def __post_init__(self):
        if not isinstance(self.dist, dists.Distribution):
            raise ValueError(f"dist must be a catalog distribution, got {self.dist!r}")
        if self.tau is not None:
            if self.rho is not None:
                raise ValueError("give rho or tau, not both")
            tau = float(self.tau)
            if not (math.isfinite(tau) and tau > 0.0):
                raise ValueError(f"tau must be positive and finite, got {self.tau}")
            object.__setattr__(self, "tau", tau)
            object.__setattr__(self, "rho", self.dist.mean() / tau)
        elif self.rho is None:
            object.__setattr__(self, "rho", 1.0)
        rho = float(self.rho)
        if not (math.isfinite(rho) and rho > 0.0):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class SpectralValue:
    """One point of a kernel's Fourier transform; never negative."""

    t: float
    value: float

    def __post_init__(self):
        if not self.value >= 0.0:
            raise ValueError(f"spectral value must be nonnegative, got {self.value}")


def _quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200, **weight):
    """Adaptive quadrature with warnings silenced; accuracy is checked by
    the caller through the returned error estimate."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, **weight)
    return val, err


def _unit_floor(r):
    """Floor that snaps values a hair below an integer up to it, so scaled
    inputs that should land exactly on a knot take the right branch."""
    n = math.floor(r)
    if r - n > 1.0 - 1e-12:
        n += 1
    return int(n)


# ---------------------------------------------------------------------------
# Closed forms from the tilt decomposition. With C and the tilted law G of
# d.decompose(), the tilted tail T(r) = integral over x > r of f(x)/x dx
# equals C S_G(r), and for r > 0
#
#     k(r) = S_F(r) - r T(r),   k'(r) = -T(r),   FT(a) = 2 C (1 - Re phi_G(a)) / a^2.
#
# Where C diverges, the generalized gamma law (a, b, p) has a' = a - 1/p <= 0
# and, with x = (r / b)^p,
#
#     T(r) = Gamma(a', x) / (b Gamma(a)),
#
# which is E1(x) / (b Gamma(a)) at a' = 0, and for -1 < a' < 0 follows from
# the recurrence Gamma(a', x) = (x^a' e^-x - Gamma(a' + 1, x)) / (-a'). The
# transforms of these laws follow from the spectral identity
#
#     FT(a) = 2 E[(1 - cos aX) / X] / a^2 = (2 / a^2) integral_0^a Im phi_F(u) du,
#
# since the derivative of E[(1 - cos aX) / X] in a is E sin(aX).

# Upper shapes a' + 1 of the recurrence in (this, 1) lose the closed tail to
# cancellation (relative error about 1e-16 / -a') and use quadrature instead,
# as do shapes a' <= -1 (Weibull exponents 1/2 and below).
_GAMMA_TAIL_MAX_SHAPE = 1.0 - 1e-4


def _tilt(d):
    try:
        return d.decompose()
    except InfiniteTiltError:
        return None


def _recurrence_shape(a, p):
    """a' + 1 = a + 1 - 1/p, written so that it is exactly a at p = 1."""
    return a + (1.0 - 1.0 / p)


def _tilted_tail(d, r):
    """T(r) at r > 0 in closed form, or None; inf where it overflows."""
    t = _tilt(d)
    if t is not None:
        return t.c * t.tilted.sf(r)
    a, b, p = d.triple()
    x = dists.pow_or_inf(r / b, p)
    upper = _recurrence_shape(a, p)
    if upper == 1.0:
        return float(exp1(x)) / (b * math.gamma(a))
    if not 0.0 < upper <= _GAMMA_TAIL_MAX_SHAPE:
        return None
    lead = (upper - 1.0) * math.log(x) - x - math.lgamma(a) if x > 0.0 else math.inf
    if lead > _LOG_MAX:
        return math.inf
    q = float(gammaincc(upper, x)) * (math.gamma(upper) / math.gamma(a))
    return (math.exp(lead) - q) / ((1.0 - upper) * b)


def _overflowed_tail_moment(d, r):
    """r T(r) where T(r) overflows. At subnormal r for a' < 0, where x^a'
    overflows,

        r T(r) = (x^a e^-x - x^(1/p) Gamma(a' + 1, x)) / (-a' Gamma(a))

    is finite and need not be small; where x = (r / b)^p underflows to 0,
    x^a comes from log x = p (log r - log b). At a' = 0, r T(r) -> 0 there."""
    a, b, p = d.triple()
    x = dists.pow_or_inf(r / b, p)
    upper = _recurrence_shape(a, p)
    root = dists.pow_or_inf(x, 1.0 / p)
    if upper == 1.0:
        return root * float(exp1(x)) / math.gamma(a) if x > 0.0 else 0.0
    log_x = math.log(x) if x > 0.0 else p * (math.log(r) - math.log(b))
    lead = math.exp(a * log_x - x - math.lgamma(a))
    q = root * float(gammaincc(upper, x)) * (math.gamma(upper) / math.gamma(a))
    return (lead - q) / (1.0 - upper)


def _tilt_kernel(d, r):
    """(k(r), r k'(r)) at r > 0 in closed form, or None. A count law is read
    at the knot at or below r, so a scaled input a hair below a knot takes
    the slope of the segment that starts there."""
    x = float(_unit_floor(r)) if d.discrete else r
    tail = _tilted_tail(d, x)
    if tail is None:
        return None
    moment = r * tail if tail < math.inf else _overflowed_tail_moment(d, r)
    return d.sf(x) - moment, -moment


def _spectral_identity(law, a):
    """(2 / a^2) integral_0^a Im phi(u) du for a law with closed im_cf.

    Up to u0 = min(a, 1 / mean) the integrand is about u E X, so the
    integral runs over [0, 1] in v = u / u0 and keeps its relative accuracy
    as a -> 0. Beyond u0 it decays like a power of u, which is smooth in
    w = log(u / u0)."""
    u0 = min(a, 1.0 / law.mean())
    total, err = _quad(lambda v: law.im_cf(u0 * v), 0.0, 1.0, epsrel=1e-12)
    if a > u0:
        def f(w):
            g = math.exp(w)
            return law.im_cf(u0 * g) * g

        more, more_err = _quad(f, 0.0, math.log(a / u0), epsrel=1e-12)
        total += more
        err += more_err
    if err > 1e-10 * total:
        raise QuadratureError(
            f"spectral identity quadrature error {err:.2e} too large at t={a} for {law!r}"
        )
    return 2.0 * u0 * total / a / a


def _tilt_ft(d, a):
    """Transform at frequency a > 0 for the unscaled law in closed form (by
    the spectral identity where C is infinite), or None."""
    t = _tilt(d)
    if t is not None:
        gap = t.tilted.one_minus_re_cf(a)
        return None if gap is None else 2.0 * t.c * gap / (a * a)
    return None if d.im_cf(a) is None else _spectral_identity(d, a)


# ---------------------------------------------------------------------------
# Numeric integrals, each returned with its summed quadrature error estimate.
# Every one leaves out an upper-tail mass below _TAIL.

_TAIL = 1e-16


def _law_integral(d, g, lo, hi=None, cos=None):
    """Integral of g(x) dF(x), times cos(cos x) if cos is given, over
    lo < x <= hi; hi=None runs to where the upper tail falls below _TAIL.

    A count law sums over its atoms. A continuous law integrates in
    w = log x, where the density's x^(ap - 1) near zero becomes the smooth
    x^(ap), and from w = -inf at lo = 0, since for small ap much of the mass
    can lie where x = e^w underflows (g must then accept x = 0); with
    cos = a it takes QAWO in x instead, on geometric pieces from lo > 0."""
    cutoff = d.upper_tail_cutoff(_TAIL)
    if d.discrete:
        last = int(cutoff) + 1 if hi is None else min(int(cutoff) + 1, _unit_floor(hi))
        total = 0.0
        for k in range(_unit_floor(lo) + 1, last + 1):
            x = float(k)
            weight = 1.0 if cos is None else math.cos(cos * x)
            total += g(x) * weight * d.density(x)
        return total, 0.0
    hi = cutoff if hi is None else min(hi, cutoff)
    if hi <= lo:
        return 0.0, 0.0
    if cos is None:
        return _quad(lambda w: g(math.exp(w)) * d.density_of_log(w),
                     math.log(lo) if lo > 0.0 else -math.inf, math.log(hi))
    return _cos_pieces(lambda x: g(x) * d.density(x), _doublings(lo, hi), cos)


def _kernel_cos_integral(d, a):
    """Integral over r > 0 of k(r) cos(a r) dr for a >= 0 (half the area
    under the kernel at a = 0), on pieces between the kernel's knots: the
    integers for a count law, and for a continuous law 0, then
    x1 = min(pi / a, mean) doubling up to the cutoff."""
    spec = KernelSpec(d)
    cutoff = d.upper_tail_cutoff(_TAIL)
    if d.discrete:
        knots = [float(n) for n in range(int(cutoff) + 2)]
    else:
        knots = [0.0] + _doublings(min(math.pi / a, d.mean()) if a > 0.0 else d.mean(), cutoff)
    return _cos_pieces(lambda r: eval_kernel(spec, r), knots, a)


def _doublings(lo, hi):
    """lo, 2 lo, 4 lo, ... and hi: pieces over which a power of x changes by
    a bounded factor."""
    knots = [lo]
    while knots[-1] < hi:
        knots.append(min(2.0 * knots[-1], hi))
    return knots


def _cos_pieces(f, knots, a):
    """Integral of f(x) cos(a x) between consecutive knots by QUADPACK's
    cosine rule (QAWO), which needs no piece per period. Pieces after the
    first stop at an absolute error of 1e-13 times the first, which is the
    largest piece of a kernel."""
    total = err = floor = 0.0
    for lo, hi in zip(knots, knots[1:]):
        v, e = _quad(f, lo, hi, epsabs=floor, weight="cos", wvar=a)
        total += v
        err += e
        floor = floor or 1e-13 * abs(v)
    return total, err


def _checked(value, err, tol, what, d, at):
    """value, unless the quadrature error estimate err exceeds tol."""
    if not err <= tol:
        raise QuadratureError(f"{what} quadrature error {err:.2e} too large at {at} for {d!r}")
    return value


# ---------------------------------------------------------------------------
# Public evaluation API


def eval_kernel(spec, r):
    """Kernel value k(rho * |r|); always within [0, 1]."""
    r = float(r)
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r}")
    u = spec.rho * abs(r)
    if u == 0.0:
        return 1.0
    closed = _tilt_kernel(spec.dist, u)
    v = eval_kernel_numeric(spec.dist, u) if closed is None else closed[0]
    return min(1.0, max(0.0, v))


def eval_kernel_numeric(d, r):
    """k(|r|) = E (1 - |r| / X)+ by direct quadrature/summation of the
    mixture integral.

    Independent of every closed form; serves as the oracle they are
    validated against. Absolute accuracy well below 1e-9.
    """
    r = abs(float(r))
    value, err = _law_integral(d, lambda x: 1.0 - r / x if x else 1.0, r)
    return _checked(value, err, 1e-9, "kernel", d, f"r={r}")


def eval_ft(spec, t):
    """Fourier transform of the scaled kernel at frequency t."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    a = abs(t) / spec.rho
    if a * a < sys.float_info.min:
        # the a^2 term of the transform is below double precision, and the
        # closed forms would divide by an underflowed a^2
        return SpectralValue(t, spec.dist.mean() / spec.rho)
    v = _tilt_ft(spec.dist, a)
    if v is None:
        v = eval_ft_numeric(spec.dist, a)
    return SpectralValue(t, _nonneg(v) / spec.rho)


def _nonneg(v):
    if v < -1e-9:
        raise QuadratureError(f"spectral evaluation came out negative: {v}")
    return max(0.0, v)


def eval_ft_numeric(d, t):
    """Transform at t != 0 by two independent numeric routes.

    Route one integrates (2 - 2 cos(x t)) / (x t^2) against the generating
    law; route two is the direct cosine transform of the kernel. Both are
    computed every call and must agree within SPECTRAL_AGREEMENT, else
    SpectralMismatchError is raised. Returns the first route's value.
    """
    t = float(t)
    if t == 0.0 or not math.isfinite(t):
        raise ValueError(f"t must be nonzero and finite, got {t}")
    a = abs(t)
    first = _ft_from_law(d, a)
    second = _ft_from_kernel(d, a)
    if abs(first - second) > SPECTRAL_AGREEMENT:
        raise SpectralMismatchError(
            f"spectral routes disagree at t={t} for {d!r}", first, second
        )
    return first


def _ft_from_law(d, a):
    """(2 / a^2) E[(1 - cos aX) / X]: directly up to x0 = pi / a, where the
    integrand x (sin(h) / h)^2, h = a x / 2, does not oscillate; beyond x0
    as the 1/X moment minus its cosine transform."""
    def g(x):
        h = 0.5 * a * x
        sinc = math.sin(h) / h if h > 0.0 else 1.0
        return x * sinc * sinc

    x0 = math.pi / a
    near, near_err = _law_integral(d, g, 0.0, x0)
    moment, moment_err = _law_integral(d, lambda x: 1.0 / x, x0)
    wave, wave_err = _law_integral(d, lambda x: 1.0 / x, x0, cos=a)
    scale = 2.0 / (a * a)
    value = near + scale * (moment - wave)
    err = near_err + scale * (moment_err + wave_err)
    return _checked(value, err, 1e-9 * value, "spectral", d, f"t={a}")


def _ft_from_kernel(d, a):
    """2 integral over r > 0 of k(r) cos(a r) dr. Its pieces of size 1/a
    cancel to a value of size 1/a^2, so its error estimate is held to the
    absolute SPECTRAL_AGREEMENT the two routes are compared at."""
    value, err = _kernel_cos_integral(d, a)
    return _checked(2.0 * value, 2.0 * err, SPECTRAL_AGREEMENT, "spectral", d, f"t={a}")


def kernel_to_cdf(spec, x):
    """Recover the generating cdf at x from the kernel alone:
    F(x) = 1 - k(u) + u k'(u) with u = rho x, using the closed derivative
    when available and quadrature of the exact derivative otherwise."""
    x = float(x)
    if x <= 0.0:
        return 0.0
    u = spec.rho * x
    d = spec.dist
    closed = _tilt_kernel(d, u)
    if closed is None:
        # the moment u k'(u) = -E[u / X; X > u] is bounded by one
        moment, err = _law_integral(d, lambda v: u / v, u)
        moment = _checked(moment, err, 1e-9, "derivative", d, f"u={u}")
        closed = eval_kernel_numeric(d, u), -moment
    kv, moment = closed
    return min(1.0, max(0.0, 1.0 - kv + moment))


def area_under_curve(spec):
    """Integral of the scaled kernel over the whole line; equals mean / rho
    (and the transform's value at frequency zero)."""
    half, err = _kernel_cos_integral(spec.dist, 0.0)
    return _checked(2.0 * half, 2.0 * err, 1e-9 * half, "area", spec.dist, "t=0") / spec.rho


def tensor_eval(spec, x, xp):
    """Product of one-dimensional kernel values over coordinates."""
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    if x.shape != xp.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {xp.shape}")
    total = 1.0
    for a, b in zip(np.ravel(x), np.ravel(xp)):
        total *= eval_kernel(spec, a - b)
    return total


# ---------------------------------------------------------------------------
# Text form: "<distribution-spec>[;tau=V|;rho=V]"


def parse_kernel_spec(text):
    """Parse a kernel description like "gamma:s=2,theta=1;tau=0.5"."""
    parts = [p.strip() for p in str(text).strip().split(";")]
    d = dists.parse_distribution(parts[0])
    rho = None
    tau = None
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise ParseError(f"expected key=value after ';', got {part!r}")
        key = key.strip()
        try:
            num = float(value.strip())
        except ValueError:
            raise ParseError(f"scale value is not a number: {value.strip()!r}") from None
        if key == "rho":
            if rho is not None:
                raise ParseError("duplicate rho clause")
            rho = num
        elif key == "tau":
            if tau is not None:
                raise ParseError("duplicate tau clause")
            tau = num
        else:
            raise ParseError(f"unknown scale key {key!r} (expected rho or tau)")
    if rho is not None and tau is not None:
        raise ParseError("give rho or tau, not both")
    return KernelSpec(d, rho=rho, tau=tau)


def format_kernel_spec(spec):
    """Inverse of parse_kernel_spec."""
    base = spec.dist.spec_string()
    if spec.tau is not None:
        return f"{base};tau={spec.tau!r}"
    if spec.rho != 1.0:
        return f"{base};rho={spec.rho!r}"
    return base
