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
    # a finite t whose square overflows still has a tail, formed from log |t|
    if not 0.0 < u or abs(t) == math.inf:
        return 1.0 if u == 0.0 else 0.0 if u == math.inf else math.nan
    a, b = 0.5 * df, 0.5
    log_u, log1pu = _log_u(df, t)
    # log of x^a (1 - x)^b / B(a, b)
    front = math.exp(-a * log1pu + b * (log_u - log1pu)
                     + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    x = 1.0 / (1.0 + u)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, u / (1.0 + u)) / b


def _log_u(df: float, t: float) -> tuple[float, float]:
    """log u and log(1 + u) for u = t^2/df > 0. Where t^2 overflows both
    come from log |t|: 1/u is then below 1e-308, so log(1 + u) = log u."""
    u = t * t / df
    if u < math.inf:
        return math.log(u), math.log1p(u)
    log_u = 2.0 * math.log(abs(t)) - math.log(df)
    return log_u, log_u


def _log_t_density(df: float, t: float) -> float:
    """Log of Student's t density with df degrees of freedom at t != 0."""
    return (math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df)
            - 0.5 * math.log(df * math.pi) - 0.5 * (df + 1.0) * _log_u(df, t)[1])


@lru_cache(maxsize=1024)
def _t_crit(df: float, alpha: float) -> float:
    """The two-sided critical value c with P(|T| > c) = alpha, so that
    |t| > c exactly where _t_tail(df, t) < alpha; an alpha outside (0, 1)
    raises ValidationError. At df = inf c is -z(alpha/2), taken in the
    lower tail since 1 - alpha/2 rounds to 1 for a tiny alpha. At a finite
    df it starts Newton steps on log tail against log c, near a line from
    the normal body to the power-law far tail, which stop after a step
    below 1e-7 of c: five at most for df 1 to 500, alpha 1e-100 to 0.99.
    No step goes past the c where the far tail's power law,
    2 K c^-df / df for the density's K c^-(df + 1), equals alpha: that
    law bounds the tail from above, so this c bounds the root, and from a
    tiny alpha's normal quantile the first step would otherwise overflow.
    """
    _check_alpha(alpha)
    c = -NormalDist().inv_cdf(0.5 * alpha)
    if df == math.inf:
        return c
    log_alpha = math.log(alpha)
    # log K: the density at t = 1 is K (df + 1)^-(df + 1)/2
    log_k = _log_t_density(df, 1.0) + 0.5 * (df + 1.0) * math.log1p(df)
    log_far = (math.log(2.0 / df) + log_k - log_alpha) / df
    for _ in range(50):
        log_tail = math.log(_t_tail(df, c))
        # the Newton step in log c: (log tail - log alpha) * tail / (2 c density)
        step = (log_tail - log_alpha) * math.exp(
            log_tail - math.log(2.0 * c) - _log_t_density(df, c))
        if step < log_far - math.log(c):
            c *= math.exp(step)
        else:
            c = math.exp(log_far)
        if abs(step) <= _CRIT_TOL:
            return c
    raise ArithmeticError(f"no critical value found for df = {df}, alpha = {alpha}")
