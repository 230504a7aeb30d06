"""Catalog of positively supported distributions that generate kernels.

Every continuous family in the catalog is one generalized gamma law
(Stacy 1962): X = scale * Y**(1/power) with Y ~ Gamma(shape, 1). Each
family only maps its own parameters to that (shape a, scale b, power p)
triple, and the shared base ``GeneralizedGamma`` gives the density, cdf,
survival function (sf), mean, a vectorized inverse ppf(u) of the survival
function, and - where the reciprocal-moment integral C = int f(x)/x dx
converges, that is a > 1/p - the decomposition into (C, tilted law) with
tilted density f(x)/(C x): C = Gamma(a - 1/p) / (b Gamma(a)), and the
tilted law is the generalized gamma law (a - 1/p, b, p). The one count
family, ShiftedPoisson, tilts to a plain Poisson law.

The closed characteristic-function forms are one_minus_re_cf(t) =
1 - E cos(tX) for powers 1 and 2, written so that it keeps its relative
accuracy as t -> 0 (expm1 and sin^2 forms, a Kummer series at small
argument), and im_cf(t) = E sin(tX) for power 1 and for the half-normal
law (a = 1/2, p = 2), the laws with C = infinity that have one. Any other
power has neither. Special functions come from ``math`` and
``scipy.special``; cdf and sf work elementwise on arrays, the rest on floats.

ppf(u) is the point with upper-tail mass u, sf(ppf(u)) = u (for the count
law the least k with sf(k) <= u), so ppf of uniforms strictly inside (0, 1)
draws from the law. Reading u as upper-tail mass keeps full relative
resolution in the right tail: the generalized gamma laws invert the upper
incomplete gamma function (``gammainccinv``), and the count law searches a
table of its sf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import (
    dawsn, erf, erfc, gammainc, gammaincc, gammainccinv, gammaln, hyp1f1, poch, rgamma,
)

from .errors import ConvergenceError, InfiniteTiltError, ParseError

_SQRT_2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# 1 - E cos(aX) without cancellation at small a


def _damped_cos_gap(u, w):
    """1 - e^u cos(w) for u <= 0, as (1 - e^u) + e^u 2 sin^2(w/2)."""
    h = math.sin(0.5 * w)
    return -math.expm1(u) + 2.0 * math.exp(u) * h * h


def _kummer_gap(m, z):
    """1 - M(m, 1/2, -z) for z >= 0.

    While z and m z are at most 1/2 the Kummer series terms fall by a
    factor of three or more from the first, 2 m z, and alternate, so the
    sum keeps full relative accuracy; beyond that 1 - M is not small.  From
    z = 60 + 6 m on, M is its large-z expansion (``_kummer_tail``): scipy's
    ``hyp1f1`` there slows down with z where 1/2 - m is a non-positive
    integer and returns NaN once z passes about 1e19.
    """
    if z >= 60.0 + 6.0 * m:
        return 1.0 - _kummer_tail(m, z)
    if z > 0.5 or m * z > 0.5:
        return 1.0 - float(hyp1f1(m, 0.5, -z))
    term = total = 2.0 * m * z
    for k in range(1, 60):
        term *= -(m + k) * z / ((k + 0.5) * (k + 1))
        total += term
        if abs(term) <= 1e-17 * total:
            break
    return total


def _kummer_tail(m, z):
    """M(m, 1/2, -z) for m > 0 and z >= 60 + 6 m, by DLMF 13.7.2:
    Gamma(1/2) / Gamma(1/2 - m) z^-m sum_k (m)_k (m + 1/2)_k / (k! z^k).

    The sum's terms, all positive, fall below 1e-17 of it before they
    would grow again, and the term e^-z z^(m - 1/2) Gamma(1/2) / Gamma(m)
    the expansion leaves out is below double precision: within 5e-15 of
    mpmath for 1 - M with m in [0.01, 1000].  Where 1/2 - m is a
    non-positive integer, 1/Gamma(1/2 - m) = 0 and so is M; at z = inf M
    is 0 too."""
    inverse = float(rgamma(0.5 - m))
    if inverse == 0.0:
        return 0.0
    term = total = 1.0
    k = 0
    while term > 1e-17 * total:
        term *= (m + k) * (m + k + 0.5) / ((k + 1) * z)
        total += term
        k += 1
    # in logs, as 1/Gamma(1/2 - m) overflows past m = 171 and z^-m underflows
    lead = math.exp(-float(gammaln(0.5 - m)) - m * math.log(z))
    return math.copysign(_SQRT_PI * lead * total, inverse)


# ---------------------------------------------------------------------------
# Regularized incomplete gamma functions of z = y^p


def power(y, p):
    """y^p elementwise for y >= 0, inf where it overflows. Only p > 1 can
    overflow, and one value below 1e300^(1/p) skips numpy's error state."""
    if p == 1.0:
        return y
    if p < 1.0 or (isinstance(y, float) and y < 1e300 ** (1.0 / p)):
        return np.power(y, p)
    with np.errstate(over="ignore"):
        return np.power(y, p)


def quotient(x, b):
    """x / b elementwise for x >= 0 and b > 0, inf where it overflows. Only
    b < 1 can overflow, and one value at most 1e300 b skips numpy's error
    state."""
    if b >= 1.0 or (isinstance(x, float) and x <= 1e300 * b):
        return x / b
    with np.errstate(over="ignore"):
        return x / b


def _regularized_gamma(a, b, p, x, lower=False):
    """Q(a, z), or P(a, z) if lower, at z = (x / b)^p, elementwise for x >= 0.

    Power 1 is the gamma law and always takes scipy's regularized
    functions. Other powers take the elementary forms of the two elementary
    shapes, Q(1, z) = e^-z (P = -expm1(-z)) and Q(1/2, y^2) = erfc(y)
    (P = erf(y)); erfc reads y = x / b itself, so y^2 is never rounded.
    Where z underflows to zero, P(a, z) = z^a / Gamma(a + 1) from
    log z = p (log x - log b), which is not small for tiny shapes a.
    """
    y = quotient(x, b)
    if a == 0.5 and p == 2.0:
        return erf(y) if lower else erfc(y)
    z = power(y, p)
    if a == 1.0 and p != 1.0:
        return -np.expm1(-z) if lower else np.exp(-z)
    value = (gammainc if lower else gammaincc)(a, z)
    under = z == 0.0
    if np.count_nonzero(under):
        with np.errstate(divide="ignore", over="ignore"):
            low = np.exp(a * p * (np.log(x) - math.log(b)) - math.lgamma(a + 1.0))
        value = np.where(under, low if lower else 1.0 - low, value)
    return value


def _inverse_upper_gamma(a, p, u):
    """z with Q(a, z) = u, elementwise; -log u for shape 1 off power 1."""
    if a == 1.0 and p != 1.0:
        return -np.log(u)
    return gammainccinv(a, u)


# ---------------------------------------------------------------------------
# Support types

@dataclass(frozen=True)
class TiltDecomposition:
    """Constant C and the law of the tilted variable with density f(x)/(Cx)."""

    c: float
    tilted: object


@dataclass(frozen=True)
class Poisson:
    """Plain count law on {0, 1, 2, ...}.

    Only produced as the tilted half of a shifted-count decomposition; it is
    not a kernel source itself because of the atom at zero.
    """

    mu: float
    discrete = True

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValueError(f"Poisson requires mu > 0, got {self.mu}")

    def density(self, x):
        k = round(float(x))
        if abs(x - k) > 1e-9 or k < 0:
            return 0.0
        return math.exp(-self.mu + k * math.log(self.mu) - math.lgamma(k + 1.0))

    def cdf(self, x):
        return np.where(x < 0.0, 0.0, gammaincc(np.floor(x) + 1.0, self.mu))

    def sf(self, x):
        return np.where(x < 0.0, 1.0, gammainc(np.floor(x) + 1.0, self.mu))

    def one_minus_re_cf(self, a):
        # E cos(aX) = e^u cos(w), u = mu (cos a - 1) = -2 mu sin^2(a/2), w = mu sin a
        h = math.sin(0.5 * a)
        return _damped_cos_gap(-2.0 * self.mu * h * h, self.mu * math.sin(a))

    def mean(self):
        return self.mu


# ---------------------------------------------------------------------------
# Shared machinery

class Distribution:
    """Base for catalog laws. Every catalog family is a frozen dataclass."""

    discrete = False
    family = "?"

    @lru_cache(maxsize=64)
    def upper_tail_cutoff(self, eps=1e-13):
        """Point with no more than eps upper-tail mass, found by doubling."""
        x = max(self.mean(), 1.0)
        for _ in range(200):
            if self.sf(x) < eps:
                return x
            x *= 2.0
        raise ConvergenceError(f"{self!r}: tail cutoff search did not terminate")


class GeneralizedGamma(Distribution):
    """Law of scale * Y**(1/power) with Y ~ Gamma(shape, 1).

    Catalog families subclass it and map their own parameters to the triple
    (shape, scale, power) in ``triple()``; built directly, it is the tilted
    half of a decomposition.
    """

    def __init__(self, shape, scale, power):
        self._triple = (shape, scale, power)

    def __repr__(self):
        return "GeneralizedGamma(shape=%r, scale=%r, power=%r)" % self.triple()

    def triple(self):
        """(shape a, scale b, power p)."""
        return self._triple

    def density(self, x):
        a, b, p = self.triple()
        if x < 0.0:
            return 0.0
        if x == 0.0:  # f(x) ~ p x^(ap - 1) / (b^(ap) Gamma(a)) near zero
            if a * p > 1.0:
                return 0.0
            return p / (b * math.gamma(a)) if a * p == 1.0 else math.inf
        return self.density_of_log(math.log(x)) / x

    def density_of_log(self, w):
        """Density of log X at w, x f(x) at x = e^w: p y^a e^-y / Gamma(a)
        with y = (x / b)^p, finite where f(x) overflows near zero."""
        a, log_b, p, lgamma_a, log_p = self._log_terms
        v = p * (w - log_b)
        try:
            y = math.exp(v)
        except OverflowError:  # y past the largest double, where e^-y is 0
            return 0.0
        return math.exp(a * v - y - lgamma_a + log_p)

    @cached_property
    def _log_terms(self):
        """(a, log b, p, log Gamma(a), log p), taken once per law."""
        a, b, p = self.triple()
        return a, math.log(b), p, math.lgamma(a), math.log(p)

    def cdf(self, x):
        return _regularized_gamma(*self.triple(), np.maximum(x, 0.0), lower=True)

    def sf(self, x):
        return _regularized_gamma(*self.triple(), np.maximum(x, 0.0))

    def mean(self):
        a, b, p = self.triple()
        return b * float(poch(a, 1.0 / p))

    def ppf(self, u):
        a, b, p = self.triple()
        return b * _inverse_upper_gamma(a, p, u) ** (1.0 / p)

    def decompose(self):
        """C = Gamma(a - 1/p) / (b Gamma(a)) and the law (a - 1/p, b, p)."""
        a, b, p = self.triple()
        shape = a - 1.0 / p
        if shape <= 0.0:
            raise InfiniteTiltError(
                f"{self!r}: tilting requires shape > 1/power (density at zero kills 1/x)"
            )
        return TiltDecomposition(1.0 / (b * float(poch(shape, 1.0 / p))),
                                 GeneralizedGamma(shape, b, p))

    def one_minus_re_cf(self, t):
        """1 - E cos(tX) in closed form for powers 1 and 2; None otherwise."""
        a, b, p = self.triple()
        x = b * t
        if p == 1.0:
            # E cos(tX) = (1 + x^2)^(-a/2) cos(a atan x)
            return _damped_cos_gap(-0.5 * a * math.log1p(x * x), a * math.atan(x))
        if p == 2.0:
            return _kummer_gap(a, 0.25 * x * x)
        return None

    def im_cf(self, t):
        """E sin(tX) in closed form for power 1, (1 + x^2)^(-a/2) sin(a atan x)
        with x = b t, and for the half-normal law, (2 / sqrt(pi)) D(b t / 2)
        with Dawson's integral D; None otherwise."""
        a, b, p = self.triple()
        x = b * t
        if p == 1.0:
            return math.exp(-0.5 * a * math.log1p(x * x)) * math.sin(a * math.atan(x))
        if p == 2.0 and a == 0.5:
            return 2.0 / _SQRT_PI * float(dawsn(0.5 * x))
        return None


def _positive(name, value):
    if not value > 0.0 or not math.isfinite(value):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _integer_at_least_one(name, value):
    v = float(value)
    if not v.is_integer() or v < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value}")
    return int(v)


# ---------------------------------------------------------------------------
# Families

@dataclass(frozen=True)
class ShiftedPoisson(Distribution):
    """Count law on {1, 2, ...}: one plus a Poisson variable."""

    mu: float
    discrete = True
    family = "shifted_poisson"

    def __post_init__(self):
        _positive("mu", self.mu)

    def density(self, x):
        return Poisson(self.mu).density(x - 1.0)

    def cdf(self, x):
        return Poisson(self.mu).cdf(x - 1.0)

    def sf(self, x):
        return Poisson(self.mu).sf(x - 1.0)

    def mean(self):
        return self.mu + 1.0

    def ppf(self, u):
        """The least k with sf(k) <= u, from a table of sf(k) = P(k, mu)
        long enough to fall to the smallest u."""
        u = np.asarray(u)
        n = int(self.mu + 10.0 * math.sqrt(self.mu)) + 10
        while (sf := gammainc(np.arange(1.0, n + 1.0), self.mu))[-1] > u.min():
            n *= 2
        return 1.0 + np.searchsorted(-sf, -u)

    def decompose(self):
        return TiltDecomposition(1.0 / self.mu, Poisson(self.mu))


@dataclass(frozen=True)
class Gamma(GeneralizedGamma):
    s: float
    theta: float
    family = "gamma"

    def __post_init__(self):
        _positive("s", self.s)
        _positive("theta", self.theta)

    def triple(self):
        return self.s, self.theta, 1.0


@dataclass(frozen=True)
class Exponential(GeneralizedGamma):
    theta: float
    family = "exponential"

    def __post_init__(self):
        _positive("theta", self.theta)

    def triple(self):
        return 1.0, self.theta, 1.0


@dataclass(frozen=True)
class Weibull(GeneralizedGamma):
    theta: float
    alpha: float
    family = "weibull"

    def __post_init__(self):
        _positive("theta", self.theta)
        _positive("alpha", self.alpha)

    def triple(self):
        return 1.0, self.theta, self.alpha


@dataclass(frozen=True)
class ChiSquare(GeneralizedGamma):
    nu: int
    family = "chi_square"

    def __post_init__(self):
        object.__setattr__(self, "nu", _integer_at_least_one("nu", self.nu))

    def triple(self):
        return self.nu / 2.0, 2.0, 1.0


@dataclass(frozen=True)
class Chi(GeneralizedGamma):
    nu: int
    family = "chi"

    def __post_init__(self):
        object.__setattr__(self, "nu", _integer_at_least_one("nu", self.nu))

    def triple(self):
        return self.nu / 2.0, _SQRT_2, 2.0


@dataclass(frozen=True)
class HalfNormal(GeneralizedGamma):
    sigma: float
    family = "half_normal"

    def __post_init__(self):
        _positive("sigma", self.sigma)

    def triple(self):
        return 0.5, self.sigma * _SQRT_2, 2.0


@dataclass(frozen=True)
class Rayleigh(GeneralizedGamma):
    sigma: float
    family = "rayleigh"

    def __post_init__(self):
        _positive("sigma", self.sigma)

    def triple(self):
        return 1.0, self.sigma * _SQRT_2, 2.0


@dataclass(frozen=True)
class Nakagami(GeneralizedGamma):
    m: float
    omega: float
    family = "nakagami"

    def __post_init__(self):
        if not (self.m >= 0.5 and math.isfinite(self.m)):
            raise ValueError(f"m must be >= 1/2, got {self.m}")
        _positive("omega", self.omega)

    def triple(self):
        return self.m, math.sqrt(self.omega / self.m), 2.0


# ---------------------------------------------------------------------------
# Textual spec form: "family:key=value,key=value"

FAMILIES = {
    cls.family: cls
    for cls in (
        ShiftedPoisson,
        Gamma,
        Exponential,
        Weibull,
        ChiSquare,
        Chi,
        HalfNormal,
        Rayleigh,
        Nakagami,
    )
}

# shorthand accepted on input
_FAMILY_ALIASES = {"exp": "exponential"}


def format_distribution(d):
    parts = ",".join(f"{f.name}={getattr(d, f.name)!r}" for f in fields(d))
    return f"{d.family}:{parts}"


def parse_parameters(text, names, where, owner):
    """The "key=value,..." list ``text`` as a dict of numbers, each key one
    of ``names`` and given once; messages quote ``where``, the whole text,
    and name ``owner``, whose parameters they are."""
    kv = {}
    for part in text.split(","):
        key, eq, raw = part.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not eq or not key or not raw:
            raise ParseError(f"malformed parameter {part!r} in {where!r}")
        if key not in names:
            raise ParseError(f"unknown parameter {key!r} for {owner}")
        if key in kv:
            raise ParseError(f"duplicate parameter {key!r} in {where!r}")
        try:
            kv[key] = float(raw)
        except ValueError:
            raise ParseError(f"parameter {key!r} is not a number: {raw!r}") from None
    return kv


def parse_distribution(text, families=FAMILIES):
    """Parse "family:key=value,..." into a law of ``families``, a table of
    dataclasses by their ``family`` name (the catalog by default)."""
    t = text.strip()
    fam, sep, rest = t.partition(":")
    fam = fam.strip().lower()
    fam = _FAMILY_ALIASES.get(fam, fam)
    if not sep or not rest.strip():
        raise ParseError(
            f"expected 'family:key=value,...', got {text!r}"
        )
    cls = families.get(fam)
    if cls is None:
        raise ParseError(f"unknown family {fam!r} (known: {sorted(families)})")
    names = [f.name for f in fields(cls)]
    kv = parse_parameters(rest, names, text, f"family {fam!r}")
    missing = [n for n in names if n not in kv]
    if missing:
        raise ParseError(f"family {fam!r} is missing parameters {missing}")
    return cls(**kv)
