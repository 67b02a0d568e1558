"""The quadrature reference for the cap's extra selling rate, shared by the tests.

    extra_rate = (1 / 2 lam) int_0^tau G(tau - u) / G(tau) theta(u) du,

written in u = w^2 from the closed-form lookback thetas with math only,
independently of liqzone.signals; G(s) = beta cosh(beta s) + (big_gamma /
lam) sinh(beta s).
"""

import math

from scipy.integrate import quad

from liqzone import CappedBlackScholes


def extra_integrand(model, costs, tau, k, m):
    """2 w theta(w^2) G(tau - w^2) / G(tau), the integrand in u = w^2, at moneyness k, level m."""
    sig, lam = model.sigma, costs.lam
    beta, g_ratio = math.sqrt(costs.gamma / lam), costs.big_gamma / lam

    def g(s):
        return beta * math.cosh(beta * s) + g_ratio * math.sinh(beta * s)

    def pdf(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    def integrand(w):
        if w == 0.0:
            return 0.0
        if isinstance(model, CappedBlackScholes):
            f = 0.5 * sig * w - math.log1p(k / m) / (sig * w)
            theta_2w = m * (2.0 * sig * pdf(f) + sig * sig * w * 0.5 * math.erfc(-f / math.sqrt(2.0)))
        else:
            theta_2w = 2.0 * sig * pdf(k / (sig * w))
        return theta_2w * g(tau - w * w) / g(tau)

    return integrand


def quad_extra(model, costs, tau, k, m):
    """The extra rate at time to go tau, moneyness k = p_bar - p and level m, by adaptive quad.

    phi(z / y) switches on at w ~ e = log1p(k / m) / sigma (k / sigma for
    Bachelier).  quad runs on pieces that double in width away from that
    layer, [0, e / 64], [e / 64, e / 32], ... up to sqrt(tau), split at
    w = 1 / beta as well.  One quad with a few breakpoints at the layer
    missed it by up to 1e-7 for z ~ 1e-7 at beta T = 31.6, and said
    nothing.  At k = 0 the layer is gone and only the split at 1 / beta
    remains.
    """
    top = math.sqrt(tau)
    edge = (math.log1p(k / m) if isinstance(model, CappedBlackScholes) else k) / model.sigma
    cuts = [0.0] + [edge * 2.0 ** j for j in range(-6, 60) if 0.0 < edge * 2.0 ** j < top]
    cuts += sorted(c for c in (math.sqrt(costs.lam / costs.gamma), top) if cuts[-1] < c <= top)
    f = extra_integrand(model, costs, tau, k, m)
    val = sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
              for a, b in zip(cuts, cuts[1:]))
    return val / (2.0 * costs.lam)
