"""Student's t from the standard library, df = math.inf being the normal:
both models' Wald tests reject when |beta_hat|/se exceeds _t_crit(df,
alpha), at df = N - lines - 1 for the mixed ANOVA and df = inf for frailty."""

from __future__ import annotations

import math
from functools import lru_cache
from statistics import NormalDist

from .types import _check_alpha

# the continued fraction's stop, and its floor against a zero denominator
_CF_TOL = 1e-15
_CF_TINY = 1e-300
_CF_MAX_TERMS = 10_000
# Newton's error after a step of this relative size is below 1e-13
_CRIT_TOL = 1e-7


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of the regularized incomplete beta I_x(a, b),
    by the modified Lentz method (Numerical Recipes, 3rd ed., 6.4), which
    converges fast for x < (a + 1)/(a + b + 2)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_TERMS):
        m2 = 2 * m
        for coef in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                     -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + coef / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            h *= d * c
        if abs(d * c - 1.0) <= _CF_TOL:
            break
    return h


def _t_tail(df: float, t: float) -> float:
    """Two-sided tail P(|T| > |t|) of Student's t with df degrees of freedom.

    At df = inf it is the normal tail erfc(|t|/sqrt 2). Otherwise it is
    I_x(df/2, 1/2) at x = df/(df + t^2), from the continued fraction of
    whichever of I_x(a, b) and 1 - I_(1-x)(b, a) converges fast, with
    x and 1 - x formed from u = t^2/df so neither cancels. nan gives nan.
    """
    if df == math.inf:
        return math.erfc(abs(t) / math.sqrt(2.0))
    u = t * t / df
    if not 0.0 < u < math.inf:
        return 1.0 if u == 0.0 else 0.0 if u == math.inf else math.nan
    a, b = 0.5 * df, 0.5
    log1pu = math.log1p(u)
    # log of x^a (1 - x)^b / B(a, b)
    front = math.exp(-a * log1pu + b * (math.log(u) - log1pu)
                     + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    x = 1.0 / (1.0 + u)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, u / (1.0 + u)) / b


def _t_density(df: float, t: float) -> float:
    """Student's t density with df degrees of freedom at t."""
    return math.exp(math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df)
                    - 0.5 * math.log(df * math.pi) - 0.5 * (df + 1.0) * math.log1p(t * t / df))


@lru_cache(maxsize=1024)
def _t_crit(df: float, alpha: float) -> float:
    """The two-sided critical value c with P(|T| > c) = alpha, so that
    |t| > c exactly where _t_tail(df, t) < alpha; an alpha outside (0, 1)
    raises ValidationError. At df = inf c is -z(alpha/2), taken in the
    lower tail since 1 - alpha/2 rounds to 1 for a tiny alpha. At a finite
    df it starts Newton steps on log tail against log c, near a line from
    the normal body to the power-law far tail, which stop after a step
    below 1e-7 of c: five at most for df 1 to 500, alpha 1e-100 to 0.99.
    """
    _check_alpha(alpha)
    c = -NormalDist().inv_cdf(0.5 * alpha)
    if df == math.inf:
        return c
    log_alpha = math.log(alpha)
    for _ in range(50):
        tail = _t_tail(df, c)
        step = (math.log(tail) - log_alpha) * tail / (2.0 * c * _t_density(df, c))
        c *= math.exp(step)
        if abs(step) <= _CRIT_TOL:
            return c
    raise ArithmeticError(f"no critical value found for df = {df}, alpha = {alpha}")
