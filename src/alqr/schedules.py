"""Scalar schedules and constants: lambda_t, p_bar_t, phi_bar(delta), G(phi),
epsilon targets, warm-up duration, update criteria, and the adaptive beta rule.

Theory-mode constants involve kappa^10 factors and tau_* towers that overflow
doubles, so everything on that path is carried in log10; practical mode swaps
in user scale factors with the same schedule shapes.  One table holds the two
(a1, a2) constant sets (base and relaxed-sequential), and both modes compute
the epsilon targets through one log10 route.  All logs are natural unless a
name says log10.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ConfigurationError, ScheduleError
from .linalg import eigvalsh, sym
log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Interval:
    """The reals from lo to hi, lo included when ``closed`` and hi never, so
    that nan and the infinities lie in no interval."""

    lo: float = -math.inf
    hi: float = math.inf
    closed: bool = False

    def __contains__(self, value):
        return (self.lo <= value if self.closed else self.lo < value) and value < self.hi

    def __str__(self):
        return f"{'[' if self.closed else '('}{self.lo:g}, {self.hi:g})"


# The value set or range of each schedule option: ``build_schedule``,
# ``warmup_duration``, ``estimation.confidence_radius`` and the experiment
# config's fields check their values against these.
DOMAINS = {
    "criterion": ("det_double", "fixed_beta", "adaptive_beta", "relaxed_sequential"),
    "constants_mode": ("theory", "practical"),
    "mu_mode": ("paper", "lemma"),
    "radius_variant": ("anchored", "unanchored"),
    "tau_star_form": ("proof", "statement"),
    "delta": Interval(0, 1),
    "chi": Interval(0, 1, closed=True),
    "lambda_scale": Interval(0),
    "noise_scale": Interval(0, closed=True),
    "beta": Interval(0),
    "eps_target": Interval(0),
}


def check_domain(name: str, value) -> None:
    """Refuse a value outside ``DOMAINS[name]``, naming the field."""
    if value not in DOMAINS[name]:
        raise ConfigurationError(f"{name} must be in {DOMAINS[name]}, got {value!r}", field=name)


LN10 = math.log(10.0)
_EPS = float(np.finfo(float).eps)


def _log10_ln1p_pow10(e: float) -> float:
    """log10(ln(1 + 10^e)), stable across the whole exponent range."""
    if e < -12.0:
        return e  # ln(1+x) ~ x
    if e > 300.0:
        return math.log10(e * LN10)
    return math.log10(math.log1p(10.0**e))


def phi_bar(delta: float) -> float:
    """Largest phi with (log(1/delta)/log(t/delta))^phi sqrt(t) > 1 for t >= 1.

    That is the infimum over t > 1 of h(t) = (ln t / 2) / ln(ln(t/delta)/ln(1/delta)),
    less a 1e-6 margin.  With v = ln t / ln(1/delta), h = (ln(1/delta)/2) v/ln(1+v),
    and v/ln(1+v) increases on v > 0, so the infimum is the t -> 1 limit ln(1/delta)/2.
    """
    check_domain("delta", delta)
    return 0.5 * math.log(1.0 / delta) - 1e-6


def _exp10(x: float) -> float:
    """10^x, or inf from x = 300 on, short of a double's overflow."""
    return 10.0**x if x < 300 else math.inf


def _log_powers(steps, delta: float, power: float, scale=1.0, base=1.0):
    """scale * (log(k/delta) / base)^power at each step k of an iterable, the
    form of both p_bar and lambda_t, with one Python ``math.log`` and ``**``
    per value: numpy's log and power can differ from them in the last bit.
    ``1.0 * v``, ``v / 1.0`` and ``v ** 1.0`` are exact, so each form keeps
    its own formula's bits."""
    return (scale * (math.log(k / delta) / base) ** power for k in steps)


@functools.lru_cache(maxsize=8)
def _log_power_prefix(T: int, delta: float, power: float, scale=1.0, base=1.0) -> np.ndarray:
    """``_log_powers`` at k = 1..T, computed once per argument tuple and
    shared read-only."""
    vals = np.fromiter(_log_powers(range(1, T + 1), delta, power, scale, base),
                       dtype=float, count=T)
    vals.flags.writeable = False
    return vals


def p_bar(t, delta: float, phi: float):
    """(log(t/delta)/log(1/delta))^phi, the perturbation-growth factor.

    ``t`` is one step, giving a float, or an array of steps, giving an array
    with the same bits per step.  The steps 1..T, which every runner draws
    its perturbation for, give one read-only array shared by all calls with
    the same (T, delta, phi).
    """
    base = math.log(1.0 / delta)
    if np.ndim(t) == 0:
        if t < 1:
            raise ConfigurationError("t must be >= 1", field="t")
        return next(_log_powers((t,), delta, phi, base=base))
    steps = np.asarray(t)
    if steps.size and steps.min() < 1:
        raise ConfigurationError("t must be >= 1", field="t")
    if np.array_equal(steps, np.arange(1, steps.size + 1)):
        return _log_power_prefix(steps.size, delta, phi, base=base)
    return np.fromiter(_log_powers(steps.tolist(), delta, phi, base=base), dtype=float,
                       count=steps.size)


@dataclass
class GFixedPoint:
    log10_G: float
    log10_branch1: float
    log10_tau_star: float
    residual: float            # |G - RHS(G)| / G, via the log-space gap


@dataclass
class GSpec:
    """The self-referential inequality G >= max(branch1(tau_*(G)), branch2(G)).

    branch1 = (sigma^2/40) sqrt(tau_*) (ln(tau_*/delta))^{phi-1} / (ln(1/delta))^phi
    branch2 = coef * 8 n^2 (n+m) ln(1 + alpha_bar/G)

    tau_star_form="proof" uses tau_* = delta (1+alpha_bar/G)^{l_*} with
    l_* = a1 ln(1/delta) sqrt(8 alpha_bar n^2 (n+m)) / (2 sigma (phi-1));
    "statement" uses tau_* = delta 10^{l_*^{1/(phi-1)}} with
    l_* = a1 sqrt(4 alpha_bar n^2 (n+m)) (ln(1/delta))^phi / sigma.
    """

    delta: float
    phi: float
    sigma_w: float
    n: int
    m: int
    alpha_bar: float
    log10_a1: float
    log10_coef: float
    tau_star_form: str = "proof"

    def branches(self, L):
        lnd = math.log(1.0 / self.delta)
        d_tot = self.n * self.n * (self.n + self.m)
        ll = _log10_ln1p_pow10(math.log10(self.alpha_bar) - L)
        if self.tau_star_form == "proof":
            log10_lstar = (self.log10_a1 + math.log10(lnd)
                           + 0.5 * math.log10(8 * self.alpha_bar * d_tot)
                           - math.log10(2 * self.sigma_w * (self.phi - 1)))
            log10_ln_ts = log10_lstar + ll
            # l_* log10(1+abar/G), itself handled in logs
            t1 = log10_lstar + ll - math.log10(LN10)
            log10_tau = math.log10(self.delta) + _exp10(t1)
        else:
            log10_ls = (self.log10_a1 + 0.5 * math.log10(4 * self.alpha_bar * d_tot)
                        + self.phi * math.log10(lnd) - math.log10(self.sigma_w))
            log10_expo = log10_ls / (self.phi - 1)
            expo = _exp10(log10_expo)
            log10_tau = math.log10(self.delta) + expo
            log10_ln_ts = math.log10(LN10) + math.log10(expo)
        b1 = (math.log10(self.sigma_w**2 / 40.0) + 0.5 * log10_tau
              + (self.phi - 1) * log10_ln_ts - self.phi * math.log10(lnd))
        b2 = self.log10_coef + math.log10(8 * d_tot) + ll
        return b1, b2, log10_tau

    def rhs_log10(self, L):
        b1, b2, _ = self.branches(L)
        return max(b1, b2)


def _g_fixed_point(spec: GSpec) -> GFixedPoint:
    """Minimal G with G >= RHS(G), i.e. the root of the strictly decreasing
    map RHS(G) - G, found by bracketing bisection in log10 space.

    Near the root the map's slope can be far below -1 (the tau_* tower), so
    plain or damped fixed-point iteration diverges; bisection on the
    monotone gap is the robust resolution.
    """
    if spec.phi <= 1:
        raise ScheduleError("G(phi) requires phi > 1")
    lo = math.log10(spec.alpha_bar)
    while spec.rhs_log10(lo) <= lo:
        lo -= 50.0
        if lo < -5000:
            raise ScheduleError("G(phi) bracketing failed from below")
    hi = max(lo + 1.0, 1.0)
    while spec.rhs_log10(hi) > hi:
        hi = hi * 2.0 if hi > 1 else hi + 10.0
        if hi > 1e301:
            raise ScheduleError("G(phi) bracketing failed from above")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if spec.rhs_log10(mid) > mid:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, abs(hi)):
            break
    L = hi  # the minimal valid G lies at the crossing; hi satisfies G >= RHS
    b1, b2, log10_tau = spec.branches(L)
    dL = max(b1, b2) - L
    residual = abs(10.0**dL - 1.0) if abs(dL) < 1.0 else math.inf
    return GFixedPoint(
        log10_G=L,
        log10_branch1=b1,
        log10_tau_star=log10_tau,
        residual=residual,
    )


def _log10_a(params: "ScheduleParams", star: bool):
    """log10 (a1, a2) = log10 (c1, c2) kappa^p theta_bound: (10240, 256, 10) is the
    base constant set and (1280, 32, 2) the relaxed-sequential one (star)."""
    c1, c2, p = (1280.0, 32.0, 2) if star else (10240.0, 256.0, 10)
    log10_kap, log10_tb = math.log10(params.kappa), math.log10(params.theta_bound)
    return (math.log10(c1) + p * log10_kap + log10_tb,
            math.log10(c2) + p * log10_kap + log10_tb)


def g_spec(params: "ScheduleParams", star: bool = False) -> GSpec:
    """GSpec for the base constants, or the relaxed-sequential ones (star)."""
    log10_a1, log10_a2 = _log10_a(params, star)
    return GSpec(
        delta=params.delta, phi=params.phi, sigma_w=params.sigma_w,
        n=params.n, m=params.m,
        alpha_bar=params.alpha_under if star else params.alpha_bar,
        log10_a1=log10_a1,
        log10_coef=2 * (log10_a2 + math.log10(params.sigma_w)),
        tau_star_form=params.tau_star_form,
    )


def _log10_eps_target(params: "ScheduleParams", alpha: float, log10_G: float,
                      star: bool) -> float:
    """log10 of an anchor-quality target min(b1, b2, 2 theta_bound), where
    b1 = sigma sqrt(alpha 4 n^2 (n+m) / G) and
    b2 = (1 + sigma^2/(40 G ln(1/delta))) / a2.
    """
    sig, n, m = params.sigma_w, params.n, params.m
    b1 = math.log10(sig) + 0.5 * math.log10(alpha * 4 * n * n * (n + m)) - 0.5 * log10_G
    x = math.log10(sig**2 / (40.0 * math.log(1.0 / params.delta))) - log10_G
    b2 = -_log10_a(params, star)[1] + (x if x >= 300 else math.log1p(10.0**x) / LN10)
    return min(b1, b2, math.log10(2 * params.theta_bound))


@dataclass
class ScheduleParams:
    """All scalar schedule inputs of one run; immutable after construction.

    ``build_schedule`` gives every field without a default; the defaulted
    ones are derived after, and log10_tau_star stays nan under practical
    constants."""

    delta: float
    phi: float
    phi_bar: float
    n: int
    m: int
    sigma_w: float
    theta_bound: float
    alpha0: float
    alpha1: float
    nu: float
    kappa: float
    gamma: float
    alpha_bar: float
    criterion: str
    constants_mode: str
    lambda_scale: float
    noise_scale: float
    beta: float
    chi: float
    zeta: float
    mu_mode: str
    radius_variant: str
    mu_clamp: bool
    tau_star_form: str
    kappa0: float
    gamma0: float
    alpha_under: float = math.nan
    G_phi: float = math.nan
    G_star: float = math.nan
    log10_G: float = math.nan
    log10_G_star: float = math.nan
    log10_tau_star: float = math.nan
    eps_bar: float = math.nan
    eps_under: float = math.nan
    log10_eps_bar: float = math.nan
    log10_eps_under: float = math.nan


def _alpha_bar(kappa, gamma, sigma_w, n, m, theta_bound):
    # state-norm parameter alpha set to kappa (its minimal admissible value)
    a2 = kappa**2
    return (40.0 * (1 + a2) / gamma**2) * a2 * sigma_w**2 * (n + m * a2 * theta_bound**2) \
        + 20.0 * sigma_w**2 * a2 * m


def _alpha_under(kappa, gamma, sigma_w, n, m, theta_bound, chi, lambda1):
    """t-free constant bounding |z_t|^2 / (log(t/delta))^{1/(1-chi)}.

    The published form carries a stray log(t/delta) inside; the derivation's
    t-free constant is used here.
    """
    e_chi = 1.0 / (1.0 - chi)
    kap_star = ((2 * kappa**2 * math.e * chi) / (lambda1 * gamma)) ** chi \
        * math.exp(gamma * (1.0 - math.e * chi / gamma)) if chi > 0 else math.exp(gamma)
    alpha2 = max(kappa, kap_star)
    lead = (alpha2 / gamma + 2 * alpha2 * kappa**2 * (1 - gamma) / (gamma**2 * lambda1))
    base = 10.0 * sigma_w**2 * (n + m * kappa**2 * theta_bound**2)
    return lead ** (2.0 * e_chi) * base**e_chi + 10.0 * sigma_w**2 * kappa**2 * m


def build_schedule(model, nu=None, cert0=None, delta=0.1, phi=None,
                   criterion="det_double", constants_mode="practical",
                   lambda_scale=1.0, noise_scale=None, beta=1.0, chi=0.0,
                   mu_mode="lemma", radius_variant="anchored", mu_clamp=True,
                   tau_star_form="proof") -> ScheduleParams:
    """Assemble ScheduleParams from a model plus either nu or an initial cert.

    ``phi=None`` means phi_bar(delta); a larger phi is clipped to it.
    """
    from .lqr import kappa_gamma, nu_bound

    for name, value in (("criterion", criterion), ("delta", delta), ("chi", chi),
                        ("lambda_scale", lambda_scale), ("noise_scale", noise_scale),
                        ("beta", beta), ("constants_mode", constants_mode),
                        ("mu_mode", mu_mode), ("radius_variant", radius_variant),
                        ("tau_star_form", tau_star_form)):
        if value is not None or name != "noise_scale":  # None: the mode's default
            check_domain(name, value)
    if nu is None:
        if cert0 is None:
            raise ConfigurationError("need nu or an initial certificate", field="nu")
        nu = nu_bound(model, cert0)
    kappa, gamma = kappa_gamma(nu, model.alpha0, model.sigma_w)
    pb = phi_bar(delta)
    if phi is None:
        phi = pb
    elif phi > pb:
        log.warning("phi=%.4g clipped to phi_bar(delta)=%.6g", phi, pb)
        phi = pb
    lo = 1.0 / (1.0 - chi) if criterion == "relaxed_sequential" else 1.0
    if not lo < phi <= pb:
        raise ConfigurationError(
            f"phi must satisfy {lo:.4g} < phi <= phi_bar={pb:.4g}", field="phi")
    ab = _alpha_bar(kappa, gamma, model.sigma_w, model.n, model.m, model.theta_bound)
    if noise_scale is None:  # the mode's default
        noise_scale = 1.0 if constants_mode == "theory" else 1.0 / kappa**2
    params = ScheduleParams(
        delta=delta, phi=phi, phi_bar=pb, n=model.n, m=model.m,
        sigma_w=model.sigma_w, theta_bound=model.theta_bound,
        alpha0=model.alpha0, alpha1=model.alpha1, nu=nu, kappa=kappa,
        gamma=gamma, alpha_bar=ab, criterion=criterion,
        constants_mode=constants_mode, lambda_scale=lambda_scale, noise_scale=noise_scale,
        beta=1.0 if criterion == "det_double" else beta, chi=chi,
        zeta=kappa**2 / (4.0 * gamma), mu_mode=mu_mode,
        radius_variant=radius_variant, mu_clamp=mu_clamp,
        tau_star_form=tau_star_form,
        kappa0=cert0.kappa if cert0 is not None else math.nan,
        gamma0=cert0.gamma if cert0 is not None else math.nan,
    )
    sig, tb, n, m = model.sigma_w, model.theta_bound, model.n, model.m
    log_power1 = math.log(1 / delta) ** (1.0 / (1.0 - chi))  # relaxed-sequential lambda_1 / G*
    if constants_mode == "theory":
        fp = _g_fixed_point(g_spec(params, star=False))
        log10_G = fp.log10_G
        # relaxed-sequential constants: joint fixed point of G_* and alpha_under
        au = ab
        log10_Gs = log10_G
        for _ in range(60):
            au_new = _alpha_under(kappa, gamma, sig, n, m, tb, chi, _exp10(log10_Gs) * log_power1)
            fps = _g_fixed_point(g_spec(replace(params, alpha_under=au_new), star=True))
            moved = abs(fps.log10_G - log10_Gs)
            log10_Gs = fps.log10_G
            au = au_new
            if moved <= 1e-9 * max(1.0, abs(log10_Gs)):
                break
        params = replace(
            params, log10_G=log10_G, G_phi=_exp10(log10_G),
            log10_G_star=log10_Gs, G_star=_exp10(log10_Gs),
            log10_tau_star=fp.log10_tau_star, alpha_under=au,
        )
    else:
        G = lambda_scale
        params = replace(
            params, G_phi=G, G_star=G, log10_G=math.log10(G),
            log10_G_star=math.log10(G),
            alpha_under=_alpha_under(kappa, gamma, sig, n, m, tb, chi, G * log_power1),
        )
    leb = _log10_eps_target(params, params.alpha_bar, params.log10_G, star=False)
    leu = _log10_eps_target(params, params.alpha_under, params.log10_G_star, star=True)
    return replace(params, log10_eps_bar=leb, log10_eps_under=leu,
                   eps_bar=10.0**leb if leb > -300 else 0.0,
                   eps_under=10.0**leu if leu > -300 else 0.0)


def _lambda_form(params: ScheduleParams):
    """(G, log10 G, power) of lambda_t = G log(t/delta)^power: power
    1/(1-chi) on G* under relaxed_sequential, 1 on G(phi) otherwise."""
    if params.criterion == "relaxed_sequential":
        return params.G_star, params.log10_G_star, 1.0 / (1.0 - params.chi)
    return params.G_phi, params.log10_G, 1.0


def lambda_t(t: float, params: ScheduleParams) -> float:
    """Regularizer at time t; relaxed_sequential raises the log power to 1/(1-chi)."""
    if t < 1:
        raise ConfigurationError("t must be >= 1", field="t")
    G, _, power = _lambda_form(params)
    return next(_log_powers((t,), params.delta, power, scale=G))


def lambda_steps(T: int, params: ScheduleParams) -> np.ndarray:
    """lambda_1..lambda_T, each value with ``lambda_t``'s bits, as one
    read-only float64 array shared by all calls with the same (T, G, power,
    delta)."""
    G, _, power = _lambda_form(params)
    return _log_power_prefix(T, params.delta, power, scale=G)


def warmup_duration(eps_target: float, params: ScheduleParams,
                    kappa0: float | None = None, gamma0: float | None = None) -> int:
    """Smallest t whose warm-up estimation-error bound drops below eps_target."""
    check_domain("eps_target", eps_target)
    k0 = params.kappa0 if kappa0 is None else kappa0
    g0 = params.gamma0 if gamma0 is None else gamma0
    if not (math.isfinite(k0) and math.isfinite(g0)):
        raise ConfigurationError("warm-up duration needs (kappa0, gamma0)", field="kappa0")
    sig, tb, n, delta = params.sigma_w, params.theta_bound, params.n, params.delta
    coef = 300.0 * sig**2 * k0**4 / g0**2 * (n + tb**2 * k0**2)

    def bound(t):
        inner = math.log(n / delta) + math.log1p(coef * math.log(t / delta))
        return (80.0 / (sig**2 * t)) * (sig * math.sqrt(2 * n * inner) + sig) ** 2

    target = eps_target**2
    hi = 1
    while bound(hi) > target:
        hi *= 2
        if hi > 10**15:
            raise ScheduleError("warm-up bound never reached the target")
    lo = max(1, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if bound(mid) <= target:
            hi = mid
        else:
            lo = mid + 1
    t0 = hi
    while t0 > 1 and bound(t0 - 1) <= target:
        t0 -= 1  # guard against non-monotone pockets
    return t0


def should_update(logdet_t: float, logdet_tau: float, beta: float) -> bool:
    """det(V_t) > (1+beta) det(V_tau), compared in log space, strictly."""
    if not (math.isfinite(logdet_t) and math.isfinite(logdet_tau)):
        raise ConfigurationError("log-determinants must be finite", field="logdet_t")
    return logdet_t > math.log1p(beta) + logdet_tau


def adaptive_beta(tau: float, r_tau: float, params: ScheduleParams) -> float:
    """Exploration-exploitation trade-off beta at an update time tau."""
    if tau < 1:
        raise ConfigurationError("tau must be >= 1", field="tau")
    if r_tau <= 0:
        raise ConfigurationError("r_tau must be > 0", field="r_tau")
    delta = params.delta
    ratio = params.alpha_bar / params.G_phi
    g_plus = params.G_phi + params.alpha_bar * tau
    inner = (1.0 + ratio * tau) * math.log(1.0 / delta) * math.log(tau / delta)
    if inner <= 1.0:
        raise ScheduleError("adaptive beta log argument <= 1")
    denom = 4.0 * params.nu * (params.n + params.m) * (1.0 + ratio) * (
        r_tau + 2.0 * params.theta_bound * math.sqrt(g_plus)
        * math.sqrt(r_tau * math.log(tau / delta))
    )
    return float(math.sqrt(2.0 * math.log(inner) / denom))


def anynum_condition(mu_t, V_t, kappa: float, lam=None, terms=0):
    """mu_t |V_t^{-1}| <= 1/(16 kappa^10), evaluated in logs to dodge overflow.

    For one matrix V_t returns a bool; for a stack of them (``mu_t`` a value
    per matrix or one for all) returns a bool array, one flag per matrix.

    Each flag compares log mu - log w with the rhs, w the least eigenvalue
    ``eigvalsh`` returns.  Given ``lam``, the regularizer of each V_t =
    lam I + S with S a step-order sum of at most ``terms`` outer products,
    most flags are screened from bounds instead: w lies in [lam - slack,
    min diag V_t + slack], where slack = 4 (terms + 8p) eps tr V_t covers the
    rounding of the Gram sum and of ``eigvalsh``, and a flag that both ends
    decide, by a margin for ``np.log`` against ``math.log``, is final.  The
    rest go through ``eigvalsh`` and ``math.log`` per value, as every matrix
    does without ``lam``, so the flags and the ConfigurationError for a
    non-PD V_t are the same either way.  On a bench-2x2 det2 run the screen
    decides every flag, in about 55 us per 256 4x4 matrices against 480 us.
    """
    V_t = np.atleast_2d(np.asarray(V_t, dtype=float))
    V = V_t.reshape(-1, *V_t.shape[-2:])
    mu = np.broadcast_to(np.asarray(mu_t, dtype=float), V_t.shape[:-2]).ravel()
    rhs = -math.log(16.0) - 10.0 * math.log(kappa)
    if lam is None:
        flags = _exact_flags(mu, V, rhs)
    else:
        diag = np.einsum("kii->ki", V)
        slack = 4.0 * (np.ravel(terms) + 8 * V.shape[-1]) * _EPS * diag.sum(axis=1)
        w_lo = np.ravel(lam) - slack
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_mu, log_lo = np.log(mu), np.log(w_lo)
            log_hi = np.log(diag.min(axis=1) + slack)
            margin = 16.0 * _EPS * (abs(log_mu) + abs(log_lo) + abs(log_hi) + abs(rhs))
            yes = (mu <= 0) | (log_mu - log_lo <= rhs - margin)
            no = ~yes & (log_mu - log_hi > rhs + margin)
        exact = ~(w_lo > 0) | ~(yes | no)  # not shown PD, or undecided
        flags = yes
        if exact.any():
            flags[exact] = _exact_flags(mu[exact], V[exact], rhs)
    return bool(flags[0]) if V_t.ndim == 2 else np.asarray(flags, dtype=bool)


def _exact_flags(mu, V, rhs):
    """The flags from ``eigvalsh`` and ``math.log`` per value: np.log may
    differ from math.log in the last bit."""
    w = eigvalsh(sym(V))[:, 0]
    if np.any(w <= 0):
        raise ConfigurationError("V_t must be PD", field="V_t")
    return [m <= 0 or math.log(m) - math.log(w_min) <= rhs
            for m, w_min in zip(mu.tolist(), w.tolist())]


# The ScheduleParams fields ``constants_report`` lists, in its order.
_REPORTED = ("delta", "phi", "phi_bar", "constants_mode", "criterion", "nu", "kappa", "gamma",
             "zeta", "chi", "beta", "alpha_bar", "alpha_under", "log10_G", "log10_G_star",
             "log10_tau_star", "log10_eps_bar", "log10_eps_under", "eps_bar", "eps_under",
             "lambda_scale", "noise_scale")


def constants_report(params: ScheduleParams) -> dict:
    """Structured key-value dump of the schedule constants (log10 where
    needed), with the derived log10 of the beta floor."""
    report = {name: getattr(params, name) for name in _REPORTED}
    report["log10_beta_floor"] = (params.n + params.m) * math.log10(1.0 + params.zeta)
    return report
