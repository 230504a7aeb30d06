"""Catalog of positively supported distributions that generate kernels.

Each family carries closed-form density, cdf, survival function (sf) and
mean, a vectorized inverse ppf(u) of the survival function, and - where
the reciprocal-moment integral C = int f(x)/x dx converges - a
decomposition into (C, tilted law) with tilted density f(x)/(C x). The
tilted law is a catalog member when the family is closed under tilting, a
plain Poisson for shifted counts, and a generalized gamma law otherwise
(Weibull, and Nakagami with m < 1). Every tilted law has a closed sf and,
except a tilted Weibull law with exponent other than 2, a closed
one_minus_re_cf(a) = 1 - E cos(aX), written so that it keeps its relative
accuracy as a -> 0 (expm1 and sin^2 forms, a Kummer series at small
argument).
The gamma and half-normal laws, whose decomposition constant is infinite
for gamma shapes s <= 1, also give im_cf(a) = E sin(aX) in closed form.
Special functions come from ``math`` and ``scipy.special``; values are
returned as Python floats, except from ppf.

ppf(u) is the point with upper-tail mass u, sf(ppf(u)) = u (for the count
law the least k with sf(k) <= u), so ppf of uniforms strictly inside (0, 1)
draws from the law. Reading u as upper-tail mass keeps full relative
resolution in the right tail: the gamma-type laws invert the upper
incomplete gamma function (``gammainccinv``), the exponential, Weibull and
Rayleigh laws invert their closed sf, and the count law searches a table
of its sf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import dawsn, gammainc, gammaincc, gammainccinv, hyp1f1

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
    sum keeps full relative accuracy; beyond that 1 - M is not small.
    """
    if z > 0.5 or m * z > 0.5:
        return 1.0 - float(hyp1f1(m, 0.5, -z))
    term = total = 2.0 * m * z
    for k in range(1, 60):
        term *= -(m + k) * z / ((k + 0.5) * (k + 1))
        total += term
        if abs(term) <= 1e-17 * total:
            break
    return total


# ---------------------------------------------------------------------------
# Support types

@dataclass(frozen=True)
class TiltDecomposition:
    """Constant C and the law of the tilted variable with density f(x)/(Cx)."""

    c: float
    tilted: object


@dataclass(frozen=True)
class GeneralizedGamma:
    """Law of scale * Y**(1/power) with Y ~ Gamma(shape, 1).

    Only produced as the tilted half of a Weibull law (power alpha) and of a
    Nakagami law with 1/2 < m < 1 (power 2), whose tilted shapes leave their
    own families.
    """

    shape: float
    scale: float
    power: float

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        return float(gammainc(self.shape, (x / self.scale) ** self.power))

    def sf(self, x):
        if x <= 0.0:
            return 1.0
        return float(gammaincc(self.shape, (x / self.scale) ** self.power))

    def one_minus_re_cf(self, a):
        """1 - E cos(aX), in closed form for power 2 only (a Nakagami law
        with m = shape); None otherwise."""
        if self.power != 2.0:
            return None
        return _kummer_gap(self.shape, 0.25 * (self.scale * a) ** 2)


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
        if x < 0.0:
            return 0.0
        return float(gammaincc(math.floor(x) + 1.0, self.mu))

    def sf(self, x):
        if x < 0.0:
            return 1.0
        return float(gammainc(math.floor(x) + 1.0, self.mu))

    def one_minus_re_cf(self, a):
        # E cos(aX) = e^u cos(w), u = mu (cos a - 1) = -2 mu sin^2(a/2), w = mu sin a
        h = math.sin(0.5 * a)
        return _damped_cos_gap(-2.0 * self.mu * h * h, self.mu * math.sin(a))

    def mean(self):
        return self.mu


# ---------------------------------------------------------------------------
# Shared machinery

class Distribution:
    """Base for catalog families. Subclasses are frozen dataclasses."""

    discrete = False
    family = "?"

    def decompose(self):
        raise InfiniteTiltError(
            f"{self!r}: the reciprocal-moment integral diverges"
        )

    def upper_tail_cutoff(self, eps=1e-13):
        """Point with no more than eps upper-tail mass, found by doubling."""
        x = max(self.mean(), 1.0)
        for _ in range(200):
            if 1.0 - self.cdf(x) < eps:
                return x
            x *= 2.0
        raise ConvergenceError(f"{self!r}: tail cutoff search did not terminate")

    def spec_string(self):
        return format_distribution(self)


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
        k = round(float(x))
        if abs(x - k) > 1e-9 or k < 1:
            return 0.0
        return math.exp(-self.mu + (k - 1) * math.log(self.mu) - math.lgamma(float(k)))

    def cdf(self, x):
        if x < 1.0:
            return 0.0
        return float(gammaincc(math.floor(x), self.mu))

    def sf(self, x):
        if x < 1.0:
            return 1.0
        return float(gammainc(math.floor(x), self.mu))

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
class Gamma(Distribution):
    s: float
    theta: float
    family = "gamma"

    def __post_init__(self):
        _positive("s", self.s)
        _positive("theta", self.theta)

    def density(self, x):
        if x < 0.0:
            return 0.0
        if x == 0.0:
            if self.s > 1.0:
                return 0.0
            if self.s == 1.0:
                return 1.0 / self.theta
            return math.inf
        return math.exp(
            (self.s - 1.0) * math.log(x)
            - x / self.theta
            - math.lgamma(self.s)
            - self.s * math.log(self.theta)
        )

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        return float(gammainc(self.s, x / self.theta))

    def sf(self, x):
        if x <= 0.0:
            return 1.0
        return float(gammaincc(self.s, x / self.theta))

    def one_minus_re_cf(self, a):
        # E cos(aX) = (1 + x^2)^(-s/2) cos(s atan x) with x = theta a
        x = self.theta * a
        return _damped_cos_gap(-0.5 * self.s * math.log1p(x * x), self.s * math.atan(x))

    def im_cf(self, a):
        """E sin(aX) = (1 + x^2)^(-s/2) sin(s atan x) with x = theta a."""
        x = self.theta * a
        return math.exp(-0.5 * self.s * math.log1p(x * x)) * math.sin(self.s * math.atan(x))

    def mean(self):
        return self.s * self.theta

    def ppf(self, u):
        return self.theta * gammainccinv(self.s, u)

    def decompose(self):
        if self.s <= 1.0:
            raise InfiniteTiltError(
                f"{self!r}: tilting requires shape s > 1 (density at zero kills 1/x)"
            )
        return TiltDecomposition(
            1.0 / ((self.s - 1.0) * self.theta), Gamma(self.s - 1.0, self.theta)
        )


@dataclass(frozen=True)
class Exponential(Distribution):
    theta: float
    family = "exponential"

    def __post_init__(self):
        _positive("theta", self.theta)

    def density(self, x):
        if x < 0.0:
            return 0.0
        return math.exp(-x / self.theta) / self.theta

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        return -math.expm1(-x / self.theta)

    def sf(self, x):
        if x <= 0.0:
            return 1.0
        return math.exp(-x / self.theta)

    def mean(self):
        return self.theta

    def ppf(self, u):
        return -self.theta * np.log(u)


@dataclass(frozen=True)
class Weibull(Distribution):
    theta: float
    alpha: float
    family = "weibull"

    def __post_init__(self):
        _positive("theta", self.theta)
        _positive("alpha", self.alpha)

    def density(self, x):
        if x < 0.0:
            return 0.0
        if x == 0.0:
            if self.alpha > 1.0:
                return 0.0
            if self.alpha == 1.0:
                return 1.0 / self.theta
            return math.inf
        z = x / self.theta
        return (self.alpha / self.theta) * z ** (self.alpha - 1.0) * math.exp(-(z ** self.alpha))

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        return -math.expm1(-((x / self.theta) ** self.alpha))

    def sf(self, x):
        if x <= 0.0:
            return 1.0
        return math.exp(-((x / self.theta) ** self.alpha))

    def mean(self):
        return self.theta * math.gamma(1.0 + 1.0 / self.alpha)

    def ppf(self, u):
        return self.theta * (-np.log(u)) ** (1.0 / self.alpha)

    def decompose(self):
        if self.alpha <= 1.0:
            raise InfiniteTiltError(
                f"{self!r}: tilting requires alpha > 1 (density at zero kills 1/x)"
            )
        shape = 1.0 - 1.0 / self.alpha
        return TiltDecomposition(
            math.gamma(shape) / self.theta, GeneralizedGamma(shape, self.theta, self.alpha)
        )


@dataclass(frozen=True)
class ChiSquare(Distribution):
    nu: int
    family = "chi_square"

    def __post_init__(self):
        object.__setattr__(self, "nu", _integer_at_least_one("nu", self.nu))

    def _as_gamma(self):
        return Gamma(self.nu / 2.0, 2.0)

    def density(self, x):
        return self._as_gamma().density(x)

    def cdf(self, x):
        return self._as_gamma().cdf(x)

    def sf(self, x):
        return self._as_gamma().sf(x)

    def mean(self):
        return float(self.nu)

    def ppf(self, u):
        return self._as_gamma().ppf(u)

    def decompose(self):
        if self.nu <= 2:
            raise InfiniteTiltError(f"{self!r}: tilting requires nu > 2")
        return self._as_gamma().decompose()


@dataclass(frozen=True)
class Chi(Distribution):
    nu: int
    family = "chi"

    def __post_init__(self):
        object.__setattr__(self, "nu", _integer_at_least_one("nu", self.nu))

    def density(self, x):
        if x < 0.0:
            return 0.0
        if x == 0.0:
            return math.sqrt(2.0 / math.pi) if self.nu == 1 else 0.0
        return math.exp(
            (1.0 - self.nu / 2.0) * math.log(2.0)
            + (self.nu - 1.0) * math.log(x)
            - x * x / 2.0
            - math.lgamma(self.nu / 2.0)
        )

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        return float(gammainc(self.nu / 2.0, x * x / 2.0))

    def sf(self, x):
        if x <= 0.0:
            return 1.0
        return float(gammaincc(self.nu / 2.0, x * x / 2.0))

    def one_minus_re_cf(self, a):
        return _kummer_gap(self.nu / 2.0, 0.5 * a * a)

    def mean(self):
        return _SQRT_2 * math.exp(math.lgamma((self.nu + 1.0) / 2.0) - math.lgamma(self.nu / 2.0))

    def ppf(self, u):
        return np.sqrt(2.0 * gammainccinv(self.nu / 2.0, u))

    def decompose(self):
        if self.nu < 2:
            raise InfiniteTiltError(f"{self!r}: tilting requires nu >= 2")
        c = math.exp(math.lgamma((self.nu - 1.0) / 2.0) - math.lgamma(self.nu / 2.0)) / _SQRT_2
        return TiltDecomposition(c, Chi(self.nu - 1))


@dataclass(frozen=True)
class HalfNormal(Distribution):
    sigma: float
    family = "half_normal"

    def __post_init__(self):
        _positive("sigma", self.sigma)

    def density(self, x):
        if x < 0.0:
            return 0.0
        return (_SQRT_2 / (self.sigma * _SQRT_PI)) * math.exp(
            -x * x / (2.0 * self.sigma * self.sigma)
        )

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        return math.erf(x / (self.sigma * _SQRT_2))

    def sf(self, x):
        if x <= 0.0:
            return 1.0
        return math.erfc(x / (self.sigma * _SQRT_2))

    def one_minus_re_cf(self, a):
        x = self.sigma * a
        return -math.expm1(-0.5 * x * x)

    def im_cf(self, a):
        """E sin(aX) = (2 / sqrt(pi)) D(sigma a / sqrt(2)), D Dawson's integral."""
        return 2.0 / _SQRT_PI * float(dawsn(self.sigma * a / _SQRT_2))

    def mean(self):
        return self.sigma * _SQRT_2 / _SQRT_PI

    def ppf(self, u):
        return self.sigma * np.sqrt(2.0 * gammainccinv(0.5, u))


@dataclass(frozen=True)
class Rayleigh(Distribution):
    sigma: float
    family = "rayleigh"

    def __post_init__(self):
        _positive("sigma", self.sigma)

    def density(self, x):
        if x < 0.0:
            return 0.0
        ss = self.sigma * self.sigma
        return (x / ss) * math.exp(-x * x / (2.0 * ss))

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        return -math.expm1(-x * x / (2.0 * self.sigma * self.sigma))

    def sf(self, x):
        if x <= 0.0:
            return 1.0
        return math.exp(-x * x / (2.0 * self.sigma * self.sigma))

    def mean(self):
        return self.sigma * math.sqrt(math.pi / 2.0)

    def ppf(self, u):
        return self.sigma * np.sqrt(-2.0 * np.log(u))

    def decompose(self):
        return TiltDecomposition(
            math.sqrt(math.pi / 2.0) / self.sigma, HalfNormal(self.sigma)
        )


@dataclass(frozen=True)
class Nakagami(Distribution):
    m: float
    omega: float
    family = "nakagami"

    def __post_init__(self):
        if not (self.m >= 0.5 and math.isfinite(self.m)):
            raise ValueError(f"m must be >= 1/2, got {self.m}")
        _positive("omega", self.omega)

    def density(self, x):
        if x < 0.0:
            return 0.0
        if x == 0.0:
            if self.m == 0.5:
                return math.sqrt(2.0 / (math.pi * self.omega))
            return 0.0
        return 2.0 * math.exp(
            self.m * math.log(self.m)
            + (2.0 * self.m - 1.0) * math.log(x)
            - self.m * x * x / self.omega
            - math.lgamma(self.m)
            - self.m * math.log(self.omega)
        )

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        return float(gammainc(self.m, self.m * x * x / self.omega))

    def sf(self, x):
        if x <= 0.0:
            return 1.0
        return float(gammaincc(self.m, self.m * x * x / self.omega))

    def one_minus_re_cf(self, a):
        return _kummer_gap(self.m, self.omega * a * a / (4.0 * self.m))

    def mean(self):
        return math.exp(math.lgamma(self.m + 0.5) - math.lgamma(self.m)) * math.sqrt(
            self.omega / self.m
        )

    def ppf(self, u):
        return np.sqrt((self.omega / self.m) * gammainccinv(self.m, u))

    def decompose(self):
        if self.m <= 0.5:
            raise InfiniteTiltError(f"{self!r}: tilting requires m > 1/2")
        c = math.sqrt(self.m / self.omega) * math.exp(
            math.lgamma(self.m - 0.5) - math.lgamma(self.m)
        )
        m2 = self.m - 0.5
        if m2 < 0.5:  # below the family's bound: X^2 is still gamma-distributed
            return TiltDecomposition(
                c, GeneralizedGamma(m2, math.sqrt(self.omega / self.m), 2.0)
            )
        return TiltDecomposition(c, Nakagami(m2, self.omega * m2 / self.m))


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


def parse_distribution(text):
    t = text.strip()
    fam, sep, rest = t.partition(":")
    fam = fam.strip().lower()
    fam = _FAMILY_ALIASES.get(fam, fam)
    if not sep or not rest.strip():
        raise ParseError(
            f"expected 'family:key=value,...', got {text!r}"
        )
    cls = FAMILIES.get(fam)
    if cls is None:
        raise ParseError(f"unknown family {fam!r} (known: {sorted(FAMILIES)})")
    names = [f.name for f in fields(cls)]
    kv = {}
    for part in rest.split(","):
        key, eq, raw = part.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not eq or not key or not raw:
            raise ParseError(f"malformed parameter {part!r} in {text!r}")
        if key not in names:
            raise ParseError(f"unknown parameter {key!r} for family {fam!r}")
        if key in kv:
            raise ParseError(f"duplicate parameter {key!r} in {text!r}")
        try:
            kv[key] = float(raw)
        except ValueError:
            raise ParseError(f"parameter {key!r} is not a number: {raw!r}") from None
    missing = [n for n in names if n not in kv]
    if missing:
        raise ParseError(f"family {fam!r} is missing parameters {missing}")
    return cls(**kv)
