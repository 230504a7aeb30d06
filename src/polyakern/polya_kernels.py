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
quadrature of a smooth, non-oscillating integrand. Direct quadrature of
the mixture integral remains for the kernels of Weibull exponents at most
1/2 and of shapes with -1e-4 < a - 1/p < 0 (gamma shapes within 1e-4
below one), and for the transforms of Weibull exponents other than 1 or 2.
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
    ConvergenceError,
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


def _quad(f, a, b, epsabs=1e-12, epsrel=1e-10, limit=200):
    """Adaptive quadrature with warnings silenced; accuracy is checked by
    the caller through the returned error estimate."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)
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
    """r T(r) where T(r) overflows. Where x = (r / b)^p underflows to 0,
    r T(r) -> 0. At subnormal r for a' < 0, where x^a' overflows,

        r T(r) = (x^a e^-x - x^(1/p) Gamma(a' + 1, x)) / (-a' Gamma(a))

    is finite and need not be small."""
    a, b, p = d.triple()
    x = dists.pow_or_inf(r / b, p)
    if x == 0.0:
        return 0.0
    upper = _recurrence_shape(a, p)
    root = dists.pow_or_inf(x, 1.0 / p)
    if upper == 1.0:
        return root * float(exp1(x)) / math.gamma(a)
    lead = math.exp(a * math.log(x) - x - math.lgamma(a))
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
    total, err = _quad(lambda v: law.im_cf(u0 * v), 0.0, 1.0, epsabs=0.0, epsrel=1e-12)
    if a > u0:
        def f(w):
            g = math.exp(w)
            return law.im_cf(u0 * g) * g

        more, more_err = _quad(f, 0.0, math.log(a / u0), epsabs=0.0, epsrel=1e-12)
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
    """k(|r|) by direct quadrature/summation of the mixture integral.

    Independent of every closed form; serves as the oracle they are
    validated against. Absolute accuracy well below 1e-9.
    """
    r = abs(float(r))
    if d.discrete:
        total = 0.0
        k = max(_unit_floor(r) + 1, 1)
        top = int(d.upper_tail_cutoff(1e-16)) + 1
        while k <= top:
            total += (1.0 - r / k) * d.density(float(k))
            k += 1
        return total
    cutoff = d.upper_tail_cutoff(1e-15)
    if r >= cutoff:
        return 0.0

    def f(x):
        return (1.0 - r / x) * d.density(x)

    mid = min(cutoff, max(d.mean(), 1.5 * r))
    total = 0.0
    err = 0.0
    lo = r
    for hi in sorted({mid, cutoff}):
        if hi <= lo:
            continue
        v, e = _quad(f, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=300)
        total += v
        err += e
        lo = hi
    if err > 1e-9:
        raise QuadratureError(
            f"kernel quadrature error {err:.2e} too large at r={r} for {d!r}"
        )
    return total


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
    if d.discrete:
        total = 0.0
        top = int(d.upper_tail_cutoff(1e-16)) + 1
        for k in range(1, top + 1):
            sn = math.sin(0.5 * a * k)
            total += 4.0 * sn * sn / (k * a * a) * d.density(float(k))
        return total

    def h(x):
        if x <= 0.0:
            return 0.0
        sn = math.sin(0.5 * a * x)
        return 4.0 * sn * sn * d.density(x) / (x * a * a)

    cutoff = d.upper_tail_cutoff(1e-15)
    return _panel_sum(h, cutoff, a)


def _ft_from_kernel(d, a):
    spec = KernelSpec(d)

    def f(r):
        return eval_kernel(spec, r) * math.cos(a * r)

    cutoff = d.upper_tail_cutoff(1e-14)
    return 2.0 * _panel_sum(f, cutoff, a)


def _panel_sum(f, cutoff, a):
    """Integrate f over [0, cutoff] in half-period panels of the frequency."""
    width = math.pi / a
    npanels = int(math.ceil(cutoff / width))
    if npanels > 20000:
        raise QuadratureError(
            f"too many oscillation panels ({npanels}); frequency {a} too high"
        )
    total = 0.0
    lo = 0.0
    for _ in range(npanels):
        hi = min(cutoff, lo + width)
        if hi <= lo:
            break
        v, _ = _quad(f, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=150)
        total += v
        lo = hi
    return total


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
        closed = eval_kernel_numeric(d, u), u * _kernel_deriv_numeric(d, u)
    kv, moment = closed
    return min(1.0, max(0.0, 1.0 - kv + moment))


def _kernel_deriv_numeric(d, u):
    """Right derivative of the kernel by quadrature of its exact form,
    k'(r) = -integral of density(x)/x over x > r; only continuous laws lack
    a closed slope."""
    cutoff = d.upper_tail_cutoff(1e-16)
    mid = min(cutoff, max(d.mean(), 1.5 * u))
    total = 0.0
    lo = u
    for hi in sorted({mid, cutoff}):
        if hi <= lo:
            continue
        value, err = _quad(lambda x: d.density(x) / x, lo, hi)
        if err > 1e-9:
            raise QuadratureError(
                f"derivative quadrature error {err:.2e} for {d!r} at {u}"
            )
        total += value
        lo = hi
    return -total


def area_under_curve(spec):
    """Integral of the scaled kernel over the whole line; equals mean / rho
    (and the transform's value at frequency zero)."""
    d = spec.dist
    unit = KernelSpec(d)
    if d.discrete:
        # exact trapezoid over the unit segments of the piecewise-linear kernel
        total = 0.0
        prev = 1.0
        for n in range(1, 10 ** 6):
            cur = eval_kernel(unit, float(n))
            total += 0.5 * (prev + cur)
            if cur < 1e-15:
                return 2.0 * total / spec.rho
            prev = cur
        raise ConvergenceError(f"kernel of {d!r} did not decay")
    cutoff = d.upper_tail_cutoff(1e-14)
    mid = min(d.mean(), cutoff)
    total = 0.0
    lo = 0.0
    for hi in sorted({mid, cutoff}):
        if hi <= lo:
            continue
        v, _ = _quad(lambda r: eval_kernel(unit, r), lo, hi, epsabs=1e-10,
                     epsrel=1e-10, limit=300)
        total += v
        lo = hi
    return 2.0 * total / spec.rho


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
