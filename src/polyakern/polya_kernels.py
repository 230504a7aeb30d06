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
T(r) = Gamma(a - 1/p, (r / b)^p) / (b Gamma(a)), whose moment r T(r) is
finite even where T(r) overflows. It is closed where a = 1/p and where
-1 < a - 1/p <= -1e-4; for Weibull exponents at most 1/2 and gamma shapes
within 1e-4 below one it is one cumulative Gauss-Legendre quadrature per law,
``_cumulative_moment``, so k(r) = S_F(r) - r T(r) is the one kernel formula
of every law. The transform of a power-1 law (gamma s <= 1) is the tilt
formula continued to the tilted shape s - 1 <= 0,
FT(a) = 2 (Re (1 - i b a)^(1 - s) - 1) / (b (1 - s) a^2), which is
log1p((b a)^2) / (b a^2) at s = 1. That of the half-normal law comes from the
spectral identity FT(a) = (2 / a^2) * integral_0^a Im phi_F(u) du: one
quadrature of a smooth, non-oscillating integrand. QUADPACK remains for that
identity, for the transforms of Weibull exponents other than 1 or 2, for the
area under the kernel, and as the kernel's oracle, ``eval_kernel_numeric``.
It is two helpers: ``_law_integral``, the integral of
g(x) dF(x) (in w = log x, or by QUADPACK's cosine rule QAWO when weighted
by cos(ax)), and ``_kernel_cos_integral``, the integral of k(r) cos(ar)
over r > 0 by QAWO between the kernel's knots. The numeric transform takes
both, as (2 / a^2) E[(1 - cos aX) / X] and as twice the cosine integral,
each on the unit-scale law through FT_b(a) = b FT_1(ab). ``_quad`` imports
QUADPACK (``scipy.integrate``) at the first quadrature, so commands that never
integrate, such as binning or Fourier fit, predict and cv, any kernel
evaluation, or the transform of a gamma law, start without it. eval_kernel
and kernel_to_cdf take arrays (one path with masks for branches); eval_ft one t.
"""

import math
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import exp1, gammaincc, roots_legendre

from . import distributions as dists
from .errors import InfiniteTiltError, QuadratureError, SpectralMismatchError

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

    def kernel(self, r):  # the one-dimensional kernel, as on the frequency laws
        return eval_kernel(self, r)


def _quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200, **weight):
    """Adaptive quadrature with warnings silenced; accuracy is checked by
    the caller through the returned error estimate."""
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, **weight)
    return val, err


def _unit_floor(r):
    """Floor, elementwise, that snaps values a hair below an integer up to it,
    so scaled inputs that should land exactly on a knot take the right branch."""
    n = np.floor(r)
    return n + (r - n > 1.0 - 1e-12)


# ---------------------------------------------------------------------------
# Closed forms from the tilt decomposition, elementwise on arrays with their
# branches as masks. With C and the tilted law G of _tilt(d), the tilted tail
# T(r) = integral over x > r of f(x)/x dx equals C S_G(r), and for r > 0
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
# kernel needs only r T(r), which ``_tail_moment`` takes as one expression, or
# where that has none, ``_cumulative_moment`` as one quadrature. The transform
# of a power-1 law continues the tilt formula to its tilted shape s - 1 <= 0
# (``_continued_tilt_ft``); that of the half-normal law follows from the
# spectral identity
#
#     FT(a) = 2 E[(1 - cos aX) / X] / a^2 = (2 / a^2) integral_0^a Im phi_F(u) du,
#
# since the derivative of E[(1 - cos aX) / X] in a is E sin(aX).

# Upper shapes a' + 1 of the recurrence in (this, 1) lose the closed tail to
# cancellation (relative error about 1e-16 / -a') and take the cumulative
# quadrature instead, as do shapes a' <= -1 (Weibull exponents 1/2 and below).
_GAMMA_TAIL_MAX_SHAPE = 1.0 - 1e-4


@lru_cache(maxsize=64)
def _tilt(d):
    try:
        return d.decompose()
    except InfiniteTiltError:
        return None


def _recurrence_shape(a, p):
    """a' + 1 = a + 1 - 1/p, written so that it is exactly a at p = 1."""
    return a + (1.0 - 1.0 / p)


def _tail_moment(d, r, x):
    """r T(x) at x >= 0. Where C is infinite, x = r and, with
    y = (r / b)^p, the recurrence gives

        r T(r) = (y^a e^-y - y^(1/p) Gamma(a' + 1, y)) / (-a' Gamma(a)),

    which is y^(1/p) E1(y) / Gamma(a) at a' = 0. It is finite wherever T(r)
    overflows; y^a comes from log y = p (log r - log b), which holds where
    y underflows to 0, and the moment is 0 at r = 0 and where y overflows.
    Shapes with no closed tail take ``_cumulative_moment``."""
    t = _tilt(d)
    if t is not None:
        return r * (t.c * t.tilted.sf(x))
    a, b, p = d.triple()
    upper = _recurrence_shape(a, p)
    if not (upper == 1.0 or 0.0 < upper <= _GAMMA_TAIL_MAX_SHAPE):
        return _cumulative_moment(d, r)
    root = dists.quotient(r, b)  # y^(1/p)
    y = dists.power(root, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        if upper == 1.0:
            moment = root * exp1(y) / math.gamma(a)
            keep = (y > 0.0) & (y < math.inf)
        else:
            lead = np.exp(a * (p * (np.log(r) - math.log(b))) - y - math.lgamma(a))
            q = root * gammaincc(upper, y) * (math.gamma(upper) / math.gamma(a))
            moment = (lead - q) / (1.0 - upper)
            keep = y < math.inf
    return moment if np.count_nonzero(keep) == np.size(keep) else np.where(keep, moment, 0.0)


def _tilt_kernel(d, r):
    """(k(r), r k'(r)) = (S_F(x) - r T(x), -r T(x)) at r >= 0, elementwise,
    for every law: x = r, except that a count law is read at the knot x at
    or below r, so a scaled input a hair below a knot takes the slope of
    the segment that starts there."""
    x = _unit_floor(r) if d.discrete else r
    moment = _tail_moment(d, r, x)
    return d.sf(x) - moment, -moment


# ---------------------------------------------------------------------------
# The tail with no closed form. With a' = a - 1/p < 0 and y = (r / b)^p,
#
#     r T(r) = (r / b) Gamma(a', y) / Gamma(a),
#     Gamma(a', y) = integral over s > log y of e^(a' s - e^s) ds,
#
# summed on a fixed ladder of knots in s per law, to which each value adds
# the piece from its own log y to the next knot.

@lru_cache(maxsize=1)
def _rules():
    """The 20-point Gauss-Legendre rule on [0, 1] that each piece takes, and
    the 10-point rule whose relative gap from it is the piece's error
    estimate, as (nodes, weights), built at the first use: their eigenvalue
    solve touches LAPACK, which would cost every command 1 MB at import."""
    return [(0.5 * (x + 1.0), 0.5 * w) for x, w in map(roots_legendre, (20, 10))]


#: y at the top of the ladder: past it r T(r) ~ y^(a - 1) e^-y, for the
#: shapes a <= 1 without a closed tail, is below the least double.
_LADDER_TOP = 750

#: Values per pass of ``_cumulative_moment``, so that its nodes take a few MB.
_CHUNK = 2 ** 14


def _pieces(a1, lo, hi):
    """(log I, relative error estimate) of I = integral over lo < s < hi of
    e^(a1 s - e^s) ds, elementwise, by the two ``_rules``. As a1 < 0 the
    integrand is largest at lo, and it is summed relative to its value
    there, so e^(a1 s) may overflow."""
    lo, width = lo[:, None], (hi - lo)[:, None]
    top = a1 * lo - np.exp(lo)
    sums = []
    for nodes, weights in _rules():
        s = lo + width * nodes
        sums.append(np.sum(weights * np.exp(a1 * s - np.exp(s) - top), axis=-1))
    fine, coarse = sums
    return top[:, 0] + np.log(width[:, 0] * fine), np.abs(fine - coarse) / fine


@lru_cache(maxsize=64)
def _ladder(d):
    """(knots, log rest, worst) of the law d: knots in s = log y, the log
    of the integral from each knot up, and the largest error estimate of
    the pieces above each knot. The knots are the doublings of x from below
    the least double, p log 2 apart in s, up to y = max(1, 1 / (p log 2)),
    where a unit step of y gets narrower in s than a doubling, then unit
    steps of y up to _LADDER_TOP. Across each piece a' s - e^s then changes
    by at most (1 - a p) log 2 + 1 < 2, which the 10-point rule already
    integrates to double precision."""
    a, b, p = d.triple()
    step = p * math.log(2.0)
    doublings = np.arange(-max(0, math.ceil(math.log2(b)) + 1075),
                          max(0, math.ceil(-math.log(step) / step)) + 1) * step
    units = np.arange(math.floor(math.exp(doublings[-1])) + 1.0, _LADDER_TOP + 1.0)
    knots = np.concatenate([doublings, np.log(units)])
    log_piece, err = _pieces(a - 1.0 / p, knots[:-1], knots[1:])
    log_rest = np.append(np.logaddexp.accumulate(log_piece[::-1])[::-1], -np.inf)
    worst = np.append(np.maximum.accumulate(err[::-1])[::-1], 0.0)
    return knots, log_rest, worst


def _cumulative_moment(d, r):
    """r T(r) at r >= 0, elementwise, for a law with no closed tail: the
    ladder's sum above the first knot past log y plus the piece up to it,
    taken in logs, as e^(a' s) overflows at subnormal r for Weibull
    exponents below 0.05 while r T(r) does not. No value depends on another,
    so an array gives the bits of its scalar calls. The error is absolute,
    like the oracle's: k = S_F - r T keeps about 1e-16 S_F(r). A relative
    error estimate above 1e-9, which bounds r T(r) <= 1 to 1e-9 absolute,
    raises QuadratureError."""
    a, b, p = d.triple()
    knots, log_rest, worst = _ladder(d)
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):  # log 0 at r = 0 and on empty pieces
        log_ratio = np.log(r) - math.log(b)
        s = np.clip(p * log_ratio, knots[0], knots[-1]).ravel()
        j = np.minimum(np.searchsorted(knots, s, side="right"), knots.size - 1)
        log_tail, err = np.empty_like(s), np.empty_like(s)
        for i in range(0, s.size, _CHUNK):
            part = slice(i, i + _CHUNK)
            log_tail[part], err[part] = _pieces(a - 1.0 / p, s[part], knots[j[part]])
    if err.size:
        i = np.argmax(np.maximum(err, worst[j], out=err))  # the first NaN, or the largest
        _checked(None, err[i], 1e-9, "kernel", d, f"r={float(r.flat[i])!r}")
    log_tail = np.logaddexp(log_tail, log_rest[j]) - math.lgamma(a)
    return np.exp(log_ratio + log_tail.reshape(r.shape))


def _continued_tilt_ft(s, b, a):
    """Transform at a > 0 of the power-1 law of shape s <= 1 and scale b: the
    tilt formula continued to the tilted shape s - 1 <= 0,

        FT(a) = 2 V / (b eps a^2),   V = Re (1 - ix)^eps - 1,   x = b a,  eps = 1 - s,

    which is log1p(x^2) / (b a^2) at s = 1. With L = log |1 - ix| and
    psi = atan x, V = e^(eps L) cos(eps psi) - 1 is taken in one of two forms
    whose terms do not cancel as s -> 0 or s -> 1: for s < 1/2,
    V = x Im phi - (1 - Re phi) with phi = (1 - ix)^-s, both terms O(s); for
    s >= 1/2, V = expm1(eps L) - 2 e^(eps L) sin^2(eps psi / 2), whose
    e^(eps L) <= (1 + x^2)^(1/4) stays finite. FT is 2 (V / x) / (eps a),
    and L is log x past x = 1e150, from log b + log a where x overflows, so
    neither x^2 nor x need be finite. Below x = 2^-27 the transform is the
    mean b s to double precision (the next term of its series is
    -(1 + s)(2 + s) x^2 / 12 of it), where the forms would meet subnormals."""
    x = b * a
    if x < 2.0 ** -27:
        return b * s
    if x < 1e150:
        L = 0.5 * math.log1p(x * x)
    else:
        L = math.log(x) if x < math.inf else math.log(b) + math.log(a)
    psi, eps = math.atan(x), 1.0 - s
    if s < 0.5:
        # |phi| = e^(-s L), arg phi = s psi,
        # 1 - Re phi = -expm1(-s L) + 2 |phi| sin^2(s psi / 2)
        m, h = math.exp(-s * L), math.sin(0.5 * s * psi)
        ratio = (m * math.sin(s * psi) - (2.0 * m * h * h - math.expm1(-s * L)) / x) / eps
    else:
        h = math.sin(0.5 * eps * psi)
        v = L if eps == 0.0 else (math.expm1(eps * L) - 2.0 * math.exp(eps * L) * h * h) / eps
        ratio = v / x if x < math.inf else math.exp(math.log(v) - L)
    return 2.0 * ratio / a


#: The w = log(u / u0) past which ``_spectral_identity`` takes Im phi(u) as
#: c / u: there b u > e^300 / E[X / b], where the relative error of c / u is
#: below 1e-100 and b u squared is still a finite double.
_SPECTRAL_HEAD = 300.0


def _spectral_identity(law, a):
    """(2 / a^2) integral_0^a Im phi(u) du for the half-normal law, whose
    Im phi(u) is Dawson's integral.

    Up to u0 = min(a, 1 / mean) the integrand is about u E X, so the
    integral runs over [0, 1] in v = u / u0 and keeps its relative accuracy
    as a -> 0. Beyond u0 it decays like 1 / u, which is smooth in
    w = log(u / u0). Past w = _SPECTRAL_HEAD, Im phi(u) is c / u to double
    precision, so the rest of the integral is its value there times the
    length of the rest in w; it is summed in logs, as e^w and a / u0 can
    overflow where the transform does not."""
    u0 = min(a, 1.0 / law.mean())
    total, err = _quad(lambda v: law.im_cf(u0 * v), 0.0, 1.0, epsrel=1e-12)

    def f(w):
        g = math.exp(w)
        return law.im_cf(u0 * g) * g

    span = math.log(a / u0)
    if span > 0.0:
        more, more_err = _quad(f, 0.0, min(span, _SPECTRAL_HEAD), epsrel=1e-12)
        total += more
        err += more_err
    if err > 1e-10 * total:
        raise QuadratureError(
            f"spectral identity quadrature error {err:.2e} too large at t={a} for {law!r}"
        )
    if span <= _SPECTRAL_HEAD:
        return 2.0 * u0 * total / a / a
    rest = math.log(a) - math.log(u0) - _SPECTRAL_HEAD
    log_total = float(np.logaddexp(math.log(f(_SPECTRAL_HEAD)) + math.log(rest), math.log(total)))
    return math.exp(math.log(2.0 * u0) - 2.0 * math.log(a) + log_total)


def _tilt_ft(d, a):
    """Transform at frequency a > 0 for the unscaled law in closed form, or
    None. Where C is infinite, a power-1 law takes the continued tilt
    formula and the half-normal law the spectral identity."""
    t = _tilt(d)
    if t is not None:
        gap = t.tilted.one_minus_re_cf(a)
        return None if gap is None else 2.0 * t.c * gap / (a * a)
    shape, b, power = d.triple()
    if power == 1.0:
        return _continued_tilt_ft(shape, b, a)
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
        last = int(cutoff) + 1 if hi is None else min(int(cutoff) + 1, int(_unit_floor(hi)))
        total = 0.0
        for k in range(int(_unit_floor(lo)) + 1, last + 1):
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


def _kernel_cos_integral(d, a, reach=math.inf, tol=0.0):
    """Integral over r > 0 of k(r) cos(a r) dr for a >= 0 (half the area
    under the kernel at a = 0), on pieces between the kernel's knots: the
    integers for a count law, and for a continuous law 0, then
    x1 = min(pi / a, mean) doubling up to the cutoff.

    From the first knot L past reach at which it is within tol, the rest is
    taken by parts instead: it is -k(L) sin(a L) / a minus (1 / a) times
    the integral of k'(r) sin(a r) dr, and as k is convex, k' is monotone,
    so the latter is at most 2 |k'(L)| / a^2, which joins the error
    estimate."""
    cutoff = d.upper_tail_cutoff(_TAIL)
    if d.discrete:
        knots = [float(n) for n in range(int(cutoff) + 2)]
    else:
        knots = [0.0] + _doublings(min(math.pi / a, d.mean()) if a > 0.0 else d.mean(), cutoff)
    rest = rest_err = 0.0
    for i, last in enumerate(knots[1:], 1):
        if last > reach:
            k, moment = _tilt_kernel(d, last)
            bound = 2.0 * abs(moment) / (last * a) / a
            if bound <= tol:
                knots, rest, rest_err = knots[:i + 1], -k * math.sin(a * last) / a, bound
                break
    total, err = _cos_pieces(lambda r: _kernel(d, r), knots, a)
    return total + rest, err + rest_err


def _doublings(lo, hi):
    """lo, 2 lo, 4 lo, ... and hi: pieces over which a power of x changes by
    a bounded factor."""
    knots = [lo]
    while knots[-1] < hi:
        knots.append(min(2.0 * knots[-1], hi))
    return knots


# Past this phase a x, rounding x to a double moves a x by half a radian,
# so cos(a x) is no longer a function of the double x.
_PHASE_LIMIT = 2.0 ** 52


def _cos_pieces(f, knots, a):
    """Integral of f(x) cos(a x) between consecutive knots by QUADPACK's
    cosine rule (QAWO), which needs no piece per period. Pieces after the
    first stop at an absolute error of 1e-13 times the first, which is the
    largest piece of a kernel.

    The rest from the first knot past the phase _PHASE_LIMIT is not
    integrated: by parts it is at most (|f| at both ends plus the variation
    of f) / a, the variation read from f at the remaining knots, and that
    bound joins the error estimate."""
    total = err = floor = 0.0
    for i, (lo, hi) in enumerate(zip(knots, knots[1:])):
        if a * lo > _PHASE_LIMIT:
            fs = [f(x) for x in knots[i:]]
            variation = sum(abs(q - p) for p, q in zip(fs, fs[1:]))
            err += (abs(fs[0]) + abs(fs[-1]) + variation) / a
            break
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


def _scaled(name, v, rho):
    """rho |v| for the float array v, capped below overflow; non-finite v errs."""
    a, cap = np.abs(v), 0.5 * sys.float_info.max / rho
    if np.count_nonzero(a <= cap) < a.size:
        bad = v[~np.isfinite(v)]
        if bad.size:
            raise ValueError(f"{name} must be finite, got {bad.flat[0]}")
        a = np.minimum(a, cap)
    return rho * a


def eval_kernel(spec, r):
    """Kernel value k(rho |r|) within [0, 1], elementwise on a float (a float
    in gives a float out) or an array; rho |r| is capped as ``_scaled`` says."""
    r = np.asarray(r, dtype=float)
    k = _kernel(spec.dist, _scaled("r", r, spec.rho))
    return float(k) if r.ndim == 0 else k


def _kernel(d, u):
    """k(u) elementwise at u >= 0, within [0, 1]: k(u) = S_F(u) - u T(u) is
    at most S_F(u) <= 1, and only its rounding can take it below 0."""
    return np.maximum(_tilt_kernel(d, u)[0], 0.0)


def eval_kernel_numeric(d, r):
    """k(|r|) = E (1 - |r| / X)+ by direct quadrature/summation of the
    mixture integral, one QUADPACK run per value.

    The oracle of ``eval_kernel``: independent of every closed form and of
    the cumulative tail, and called by no path of the package. Absolute
    accuracy well below 1e-9.
    """
    r = abs(float(r))
    value, err = _law_integral(d, lambda x: 1.0 - r / x if x else 1.0, r)
    return _checked(value, err, 1e-9, "kernel", d, f"r={r}")


def eval_ft(spec, t):
    """Fourier transform of the scaled kernel at frequency t, a float that
    is never negative."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    a = abs(t) / spec.rho
    if _below_resolution(spec.dist, a):
        return spec.dist.mean() / spec.rho
    d, b = spec.dist, 1.0
    if a * a < sys.float_info.min:
        # the closed forms would divide by an underflowed a^2, so a law of
        # large scale b is taken at unit scale: FT_b(a) = b FT_1(a b)
        shape, b, power = d.triple()
        d = dists.GeneralizedGamma(shape, 1.0, power)
    v = _tilt_ft(d, a * b)
    if v is None:
        v = eval_ft_numeric(d, a * b)
    return b * _nonneg(v) / spec.rho


def _below_resolution(d, a):
    """Whether (a b)^2 is below double precision for a law of scale b (b = 1
    for a count law): then 1 - cos(aX) = (aX)^2 / 2 and the transform at
    a is the mean."""
    scaled = a if d.discrete else a * d.triple()[1]
    return scaled * scaled < sys.float_info.min


def _nonneg(v):
    if not v >= -1e-9:  # NaN fails too
        raise QuadratureError(f"spectral evaluation came out negative or NaN: {v}")
    return max(0.0, v)


def eval_ft_numeric(d, t):
    """Transform at t != 0 by two independent numeric routes.

    Route one integrates (2 - 2 cos(x t)) / (x t^2) against the generating
    law; route two is the direct cosine transform of the kernel. Both run
    on the unit-scale law, through FT_b(t) = b FT_1(b t) for a law of scale
    b (X = b Y), and are computed every call; they must agree within
    SPECTRAL_AGREEMENT, else SpectralMismatchError is raised. A
    QuadratureError of a route run on the unit-scale law is raised again
    naming d and t. Returns the first route's value.
    """
    t = float(t)
    if t == 0.0 or not math.isfinite(t):
        raise ValueError(f"t must be nonzero and finite, got {t}")
    a = abs(t)
    if _below_resolution(d, a):
        return d.mean()
    unit, b = _unit_law(d, a)
    try:
        first = _ft_from_law(unit, a * b, b)
        second = _ft_from_kernel(unit, a * b, b)
    except QuadratureError as exc:
        if unit is d:
            raise
        raise QuadratureError(f"{exc}, in the transform of {d!r} at t={t}") from None
    if abs(first - second) > SPECTRAL_AGREEMENT:
        raise SpectralMismatchError(
            f"spectral routes disagree at t={t} for {d!r}", first, second
        )
    return first


def _unit_law(d, a):
    """(Y, b) with X = b Y, so that FT_X(a) = b FT_Y(a b): the law at unit
    scale, for (a b)^2 a normal double. A count law, a law of scale one,
    and a law for which a (a b) leaves the normal doubles, so that the law
    route's factor 2 / (a (a b)) would overflow or vanish, are their own
    unit law."""
    if not d.discrete:
        shape, b, power = d.triple()
        if b != 1.0 and sys.float_info.min <= a * (a * b) < math.inf:
            return dists.GeneralizedGamma(shape, 1.0, power), b
    return d, 1.0


def _ft_from_law(d, a, b=1.0):
    """b (2 / a^2) E[(1 - cos aX) / X]: directly up to x0 = pi / a, where
    the integrand b x (sin(h) / h)^2, h = a x / 2, does not oscillate;
    beyond x0 as the 1/X moment minus its cosine transform, times
    b 2 / a^2 = 2 / (a / b a), which stays finite where a^2 overflows."""
    def g(x):
        h = 0.5 * a * x
        sinc = math.sin(h) / h if h > 0.0 else 1.0
        return b * x * sinc * sinc

    x0 = math.pi / a
    near, near_err = _law_integral(d, g, 0.0, x0)
    moment, moment_err = _law_integral(d, lambda x: 1.0 / x, x0)
    wave, wave_err = _law_integral(d, lambda x: 1.0 / x, x0, cos=a)
    scale = 2.0 / (a / b * a)
    value = near + scale * (moment - wave)
    err = near_err + scale * (moment_err + wave_err)
    return _checked(value, err, 1e-9 * value, "spectral", d, f"t={a}")


def _ft_from_kernel(d, a, b=1.0):
    """b times 2 integral over r > 0 of k(r) cos(a r) dr. Its pieces of
    size b / a cancel to a value of size b / a^2, so its error estimate is
    held to the absolute SPECTRAL_AGREEMENT the two routes are compared
    at. QUADPACK's rounding of the phase a r costs a piece near r about
    b r 2^-52, an eighth of that agreement at r = SPECTRAL_AGREEMENT 2^49 / b;
    past it, the rest is taken by parts where its bound is within that
    eighth too."""
    tol = SPECTRAL_AGREEMENT / 16.0 / b
    value, err = _kernel_cos_integral(d, a, tol * 2.0 ** 53, tol)
    return _checked(2.0 * (b * value), 2.0 * (b * err), SPECTRAL_AGREEMENT, "spectral", d, f"t={a}")


def kernel_to_cdf(spec, x):
    """Recover the generating cdf at x from the kernel alone, elementwise as in
    eval_kernel: F(x) = 1 - k(u) + u k'(u) with u = rho x (0 where u <= 0),
    with k and u k'(u) = -u T(u) from the one kernel formula.

    The sum is taken in doubles, so its accuracy is absolute, about one ulp
    of 1: a small F keeps few digits, and Gamma(0.1, 1) at u = 1e-300,
    where F = 1.05e-30, reads 0.0."""
    x = np.asarray(x, dtype=float)
    kv, moment = _tilt_kernel(spec.dist, _scaled("x", x, spec.rho) * (x > 0.0))
    cdf = np.minimum(1.0, np.maximum(0.0, 1.0 - kv + moment))
    return float(cdf) if x.ndim == 0 else cdf


def area_under_curve(spec):
    """Integral of the scaled kernel over the whole line; equals mean / rho
    (and the transform's value at frequency zero)."""
    half, err = _kernel_cos_integral(spec.dist, 0.0)
    return _checked(2.0 * half, 2.0 * err, 1e-9 * half, "area", spec.dist, "t=0") / spec.rho


# ---------------------------------------------------------------------------
# Text form: "<distribution-spec>[;tau=V|;rho=V]"


def parse_kernel_spec(text):
    """Parse a kernel description like "gamma:s=2,theta=1;tau=0.5": a
    catalog law, then an optional scale clause read by the catalog's own
    parameter reader."""
    base, sep, clause = str(text).partition(";")
    scale = {} if not sep else dists.parse_parameters(
        clause, ("rho", "tau"), text, "a kernel scale")
    return KernelSpec(dists.parse_distribution(base), **scale)


def format_kernel_spec(spec):
    """Inverse of parse_kernel_spec."""
    base = dists.format_distribution(spec.dist)
    if spec.tau is not None:
        return f"{base};tau={spec.tau!r}"
    if spec.rho != 1.0:
        return f"{base};rho={spec.rho!r}"
    return base
