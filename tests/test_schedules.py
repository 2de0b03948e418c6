import math
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alqr import schedules
from alqr.estimation import step_covariances
from alqr.exceptions import ConfigurationError
from alqr.harness import ExperimentConfig, shared_setup
from alqr.lqr import SystemModel, stability_certificate
from alqr.schedules import (
    _g_fixed_point,
    adaptive_beta,
    anynum_condition,
    build_schedule,
    constants_report,
    g_spec,
    lambda_steps,
    lambda_t,
    p_bar,
    phi_bar,
    should_update,
    warmup_duration,
)


def beta_floor(kappa: float, gamma: float, n: int, m: int) -> float:
    """(1+zeta)^{n+m} - 1 with zeta = kappa^2/(4 gamma)."""
    zeta = kappa**2 / (4.0 * gamma)
    log_term = (n + m) * math.log1p(zeta)
    if log_term > 700:
        return math.inf
    return math.expm1(log_term)


def eps_targets(params):
    """(eps_bar, eps_under) in linear arithmetic: min(b1, b2, 2 theta_bound) with
    b1 = sigma sqrt(alpha 4 n^2 (n+m)) / sqrt(G) and
    b2 = (1/a2) (1 + sigma^2/(40 G ln(1/delta))), a2 = 256 theta kappa^10 for
    eps_bar and 32 theta kappa^2 for eps_under."""
    sig, tb, n, m = params.sigma_w, params.theta_bound, params.n, params.m
    lnd = math.log(1.0 / params.delta)

    def target(alpha, G, a2):
        b1 = sig * math.sqrt(alpha * 4 * n * n * (n + m)) / math.sqrt(G)
        b2 = (1.0 / a2) * (1.0 + sig**2 / (40.0 * G * lnd))
        return min(b1, b2, 2.0 * tb)

    eb = target(params.alpha_bar, params.G_phi, 256.0 * tb * params.kappa**10)
    eu = target(params.alpha_under, params.G_star, 32.0 * tb * params.kappa**2)
    return eb, eu


def small_theory_params():
    """Scalar model with a tiny nu so kappa^10 stays benign."""
    m = SystemModel(A=[[0.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                    sigma_w=1.0, theta_bound=1.2)
    return build_schedule(m, nu=0.75, delta=0.1, phi=1.1, constants_mode="theory")


class TestPhiBar:
    def test_defining_inequality_on_dense_grid(self):
        delta = 0.1
        pb = phi_bar(delta)
        L = math.log(1 / delta)
        ts = np.exp(np.linspace(np.log(1 + 1e-6), np.log(1e12), 100_000))
        lhs = pb * np.log(np.log(ts / delta) / L)
        assert np.all(lhs < 0.5 * np.log(ts))

    def test_greater_than_one_at_tenth(self):
        assert phi_bar(0.1) > 1.0

    def test_nondecreasing_as_delta_shrinks(self):
        vals = [phi_bar(d) for d in (0.2, 0.1, 0.05)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_domain(self):
        with pytest.raises(ConfigurationError):
            phi_bar(1.5)


class TestPBar:
    def test_unit_at_t1(self):
        assert p_bar(1, 0.1, 1.5) == pytest.approx(1.0)

    def test_direct_arithmetic(self):
        assert p_bar(10, 0.1, 1.0) == pytest.approx(2.0)

    def test_bounded_by_sqrt_t(self):
        delta = 0.1
        pb = phi_bar(delta)
        ts = np.exp(np.linspace(np.log(1 + 1e-6), np.log(1e12), 20_000))
        vals = np.array([p_bar(t, delta, pb) for t in ts])
        assert np.all(vals / np.sqrt(ts) < 1.0)

    @pytest.mark.parametrize("delta, phi", [(0.1, 1.0), (0.05, 1.7), (0.3, 2.4)])
    def test_array_bits_equal_the_formula_per_value(self, delta, phi):
        formula = [(math.log(t / delta) / math.log(1.0 / delta)) ** phi
                   for t in range(1, 3001)]
        prefix = p_bar(np.arange(1, 3001), delta, phi)
        assert np.array_equal(prefix, formula)
        # steps that are not 1..T take the same formula value by value
        steps = np.array([7, 3, 2999, 1, 40])
        assert np.array_equal(p_bar(steps, delta, phi), [formula[t - 1] for t in steps])
        assert np.array_equal(p_bar(np.arange(2, 3001), delta, phi), formula[1:])
        assert [p_bar(t, delta, phi) for t in (1, 2, 3000)] == [formula[0], formula[1],
                                                               formula[2999]]

    def test_steps_one_to_T_share_one_read_only_array(self):
        a = p_bar(np.arange(1, 501), 0.1, 1.3)
        assert p_bar(np.arange(1, 501), 0.1, 1.3) is a
        assert p_bar(np.arange(1, 501), 0.1, 1.4) is not a
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 2.0


class TestGOfPhi:
    def test_practical_returns_scale(self, bench2x2_params):
        assert bench2x2_params.G_phi == bench2x2_params.lambda_scale

    def test_fixed_point_residual(self):
        params = small_theory_params()
        fp = _g_fixed_point(g_spec(params))
        assert fp.residual <= 1e-6

    def test_rhs_decreasing_in_G(self):
        params = small_theory_params()
        spec = g_spec(params)
        Ls = np.linspace(spec.rhs_log10(0.0) * 0.2, spec.rhs_log10(0.0), 8)
        vals = [spec.rhs_log10(L) for L in Ls]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_tau_star_branch_against_mpmath(self):
        import mpmath as mp

        params = small_theory_params()
        spec = g_spec(params)
        fp = _g_fixed_point(spec)
        mp.mp.dps = 80
        delta = mp.mpf(params.delta)
        sigma = mp.mpf(params.sigma_w)
        phi = mp.mpf(params.phi)
        abar = mp.mpf(params.alpha_bar)
        G = mp.mpf(10) ** mp.mpf(fp.log10_G)
        lstar = (mp.mpf(10) ** mp.mpf(spec.log10_a1) * mp.log(1 / delta)
                 * mp.sqrt(8 * abar * params.n**2 * (params.n + params.m))
                 / (2 * sigma * (phi - 1)))
        tau = delta * (1 + abar / G) ** lstar
        b1 = (mp.log10(sigma**2 / 40) + mp.mpf(0.5) * mp.log10(tau)
              + (phi - 1) * mp.log10(mp.log(tau / delta))
              - phi * mp.log10(mp.log(1 / delta)))
        assert abs(float(b1) - fp.log10_branch1) <= 1e-6
        assert abs(float(mp.log10(tau)) - fp.log10_tau_star) <= 1e-6

    def test_statement_form_also_solves(self):
        m = SystemModel(A=[[0.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                        sigma_w=1.0, theta_bound=1.2)
        params = build_schedule(m, nu=0.75, delta=0.1, phi=1.1,
                                constants_mode="theory", tau_star_form="statement")
        assert math.isfinite(params.log10_G)
        fp = _g_fixed_point(g_spec(params))
        assert fp.log10_G >= fp.log10_branch1 - 1e-6


class TestLambdaT:
    def test_initial_value(self, bench2x2_params):
        p = bench2x2_params
        assert lambda_t(1, p) == pytest.approx(p.G_phi * math.log(1 / p.delta))

    def test_monotone(self, bench2x2_params):
        ts = np.unique(np.logspace(0, 6, 200).astype(int))
        vals = [lambda_t(int(t), bench2x2_params) for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_relaxed_with_chi_zero_matches_base(self, bench2x2, bench2x2_gain):
        cert0 = stability_certificate(bench2x2, bench2x2_gain)
        base = build_schedule(bench2x2, cert0=cert0, constants_mode="practical")
        relaxed = build_schedule(bench2x2, cert0=cert0, constants_mode="practical",
                                 criterion="relaxed_sequential", chi=0.0, beta=3.0)
        for t in (1, 7, 190, 4096):
            assert lambda_t(t, relaxed) == pytest.approx(lambda_t(t, base))

    @pytest.mark.parametrize("criterion, chi", [("det_double", 0.0),
                                                ("relaxed_sequential", 0.3)])
    def test_steps_have_lambda_t_bits(self, bench2x2_params, criterion, chi):
        p = replace(bench2x2_params, criterion=criterion, chi=chi, G_star=1.7)
        lam = lambda_steps(5000, p)
        assert lam.dtype == np.float64 and lam.shape == (5000,)
        assert lam.tolist() == [lambda_t(t, p) for t in range(1, 5001)]
        if criterion == "relaxed_sequential":
            expect = [1.7 * math.log(t / p.delta) ** (1.0 / 0.7) for t in range(1, 5001)]
        else:
            expect = [p.G_phi * math.log(t / p.delta) for t in range(1, 5001)]
        assert lam.tolist() == expect

    @pytest.mark.parametrize("criterion, chi", [("det2", 0.0), ("relaxed-seq", 0.1)])
    def test_steps_of_a_built_schedule_have_lambda_t_bits(self, criterion, chi):
        params = shared_setup(ExperimentConfig(criterion=criterion, chi=chi)).params
        lam = lambda_steps(3000, params)
        assert lam.tolist() == [lambda_t(t, params) for t in range(1, 3001)]

    def test_one_schedule_shares_one_read_only_array(self, bench2x2_params):
        lam = lambda_steps(400, bench2x2_params)
        assert lambda_steps(400, replace(bench2x2_params)) is lam
        assert lambda_steps(401, bench2x2_params) is not lam
        assert not lam.flags.writeable
        with pytest.raises(ValueError):
            lam[0] = 2.0


class TestEpsTargets:
    def test_positive(self, bench2x2_params):
        assert bench2x2_params.eps_bar > 0 and bench2x2_params.eps_under > 0

    def test_relaxed_needs_looser_neighborhood(self, bench2x2_params):
        assert bench2x2_params.eps_under >= bench2x2_params.eps_bar

    def test_clamped_at_twice_theta_bound(self):
        m = SystemModel(A=[[0.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                        sigma_w=1.0, theta_bound=1.2)
        params = build_schedule(m, nu=0.6, delta=0.1, phi=1.1,
                                constants_mode="practical", lambda_scale=1e-6)
        assert params.eps_bar <= 2 * m.theta_bound + 1e-12
        assert params.eps_under <= 2 * m.theta_bound + 1e-12

    @pytest.mark.parametrize("plant", ["scalar-golden", "bench-2x2", "bench-3x2"])
    def test_practical_targets_match_linear_formula(self, plant):
        params = shared_setup(ExperimentConfig(benchmark=plant)).params
        eb, eu = eps_targets(params)
        assert params.eps_bar == pytest.approx(eb, rel=1e-12, abs=0)
        assert params.eps_under == pytest.approx(eu, rel=1e-12, abs=0)
        assert params.log10_eps_bar == pytest.approx(math.log10(eb), rel=0, abs=1e-13)
        assert params.log10_eps_under == pytest.approx(math.log10(eu), rel=0, abs=1e-13)


class TestWarmupDuration:
    def test_monotone_in_target(self, bench2x2_params):
        t_loose = warmup_duration(1.0, bench2x2_params)
        t_tight = warmup_duration(0.5, bench2x2_params)
        assert t_tight >= t_loose

    def test_minimality(self, bench2x2_params):
        params = bench2x2_params
        T0 = warmup_duration(0.8, params)
        k0, g0 = params.kappa0, params.gamma0
        sig, tb, n, delta = params.sigma_w, params.theta_bound, params.n, params.delta
        coef = 300 * sig**2 * k0**4 / g0**2 * (n + tb**2 * k0**2)

        def bound(t):
            inner = math.log(n / delta) + math.log1p(coef * math.log(t / delta))
            return (80 / (sig**2 * t)) * (sig * math.sqrt(2 * n * inner) + sig) ** 2

        assert bound(T0) <= 0.64
        if T0 > 1:
            assert bound(T0 - 1) > 0.64

    def test_brute_force_scan_oracle(self):
        # sigma=1, n=m=1, kappa0=2, gamma0=0.25, theta=2, delta=0.1, eps=0.5
        m = SystemModel(A=[[0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                        sigma_w=1.0, theta_bound=2.0)
        params = build_schedule(m, nu=8.0, delta=0.1, phi=1.1,
                                constants_mode="practical")
        coef = 300 * 1.0 * 2**4 / 0.25**2 * (1 + 4 * 4)
        t, target = 1, 0.25
        while True:
            inner = math.log(1 / 0.1) + math.log1p(coef * math.log(t / 0.1))
            if (80 / t) * (math.sqrt(2 * inner) + 1.0) ** 2 <= target:
                break
            t += 1
        assert warmup_duration(0.5, params, kappa0=2.0, gamma0=0.25) == t


class TestShouldUpdate:
    def test_doubling_fires(self):
        # V_tau = I (2x2), V_t = 2I, beta = 1: 2 ln 2 > ln 2
        assert should_update(2 * math.log(2), 0.0, 1.0)

    def test_equal_dets_never_fire(self):
        assert not should_update(1.234, 1.234, 0.5)

    def test_boundary_not_strict(self):
        # beta = 3, V_t = 2I (2x2), V_tau = I: ln 4 vs ln 4
        assert not should_update(2 * math.log(2), 0.0, 3.0)


class TestAdaptiveBeta:
    def test_positive(self, bench2x2_params):
        for tau in (1, 10, 1000):
            r = 2 * math.log(max(tau, 2) / 0.1)
            assert adaptive_beta(tau, r, bench2x2_params) > 0

    def test_monotone_decreasing(self, bench2x2_params):
        taus = np.unique(np.logspace(1, 6, 60).astype(int))
        vals = [adaptive_beta(int(t), 2 * math.log(t / 0.1), bench2x2_params)
                for t in taus]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_guard(self, bench2x2_params):
        with pytest.raises(ConfigurationError):
            adaptive_beta(0, 1.0, bench2x2_params)

    def test_overflowed_G_gives_zero(self):
        # theory-mode G past 1e300 is stored as inf: abar/G = 0 and sqrt(G + abar tau) = inf
        params = replace(small_theory_params(), G_phi=math.inf, log10_G=400.0)
        assert adaptive_beta(100, 5.0, params) == 0.0


class TestBetaFloor:
    def test_direct(self):
        assert beta_floor(1.0, 0.5, 1, 1) == pytest.approx(1.25)

    def test_zero_zeta(self):
        assert beta_floor(0.0, 1.0, 2, 2) == 0.0

    def test_chi_below_one_iff_beta_above_floor(self):
        kappa, gamma, n, m = 1.3, 0.4, 2, 1
        floor = beta_floor(kappa, gamma, n, m)
        zeta = kappa**2 / (4 * gamma)
        for beta in (floor * 1.01, floor * 2, floor * 10):
            chi = math.log((1 + zeta) ** (n + m)) / math.log(1 + beta)
            assert chi < 1
        chi_at = math.log((1 + zeta) ** (n + m)) / math.log(1 + floor * 0.99)
        assert chi_at > 1


class TestAnynumCondition:
    def test_zero_mu(self):
        assert anynum_condition(0.0, np.eye(2), 2.0)

    def test_unit_counterexample(self):
        assert not anynum_condition(1.0, np.eye(2), 1.0)

    def test_large_kappa_in_logs(self):
        assert not anynum_condition(1e-12, np.eye(2), 50.0)

    def test_stack_equals_per_matrix(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((400, 3, 3))
        V = A @ A.swapaxes(-1, -2) + 1e-3 * np.eye(3)
        mu = np.exp(rng.uniform(-12.0, 0.0, 400))
        mu[::50] = 0.0
        flags = anynum_condition(mu, V, 2.0)
        expect = [anynum_condition(float(m), v, 2.0) for m, v in zip(mu, V)]
        assert flags.dtype == bool
        assert flags.tolist() == expect
        assert 0 < sum(expect) < len(expect)
        one_mu = [anynum_condition(1e-6, v, 2.0) for v in V]
        assert anynum_condition(1e-6, V, 2.0).tolist() == one_mu

    def test_non_pd_anywhere_in_stack_raises(self):
        V = np.stack([np.eye(2)] * 5)
        V[3] = -np.eye(2)
        with pytest.raises(ConfigurationError):
            anynum_condition(1.0, V[3], 2.0)
        with pytest.raises(ConfigurationError):
            anynum_condition(1.0, V, 2.0)


def gram_stack(seed, k, p, scale, lam, carry_rows):
    """k covariances lam_j I + S_j from step_covariances, S summed over
    carry_rows earlier rows and the rows before each; returns (V, lam, terms).
    The rows are correlated, so min diag V can lie far above its least
    eigenvalue."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    mix = scale * (10.0 ** rng.uniform(-3.0, 0.0, p))[:, None] * Q
    _, carry = step_covariances(rng.standard_normal((carry_rows + 1, p)) @ mix,
                                np.ones(carry_rows + 1), np.zeros((p, p)))
    lams = lam * rng.choice([1.0, 1.0, 1.5, 2.0], size=k)
    V, _ = step_covariances(rng.standard_normal((k, p)) @ mix, lams, carry)
    return V, lams, carry_rows + 1 + k


class TestAnynumScreen:
    """Flags screened from bounds on the least eigenvalue equal the flags of
    the eigvalsh path, element for element, and raise where it raises."""

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 300), p=st.integers(1, 5),
           scale=st.sampled_from([0.0, 1e-9, 1e-3, 0.3, 1.0, 40.0, 1e4]),
           lam=st.one_of(st.just(1.0), st.floats(0.5, 2.0), st.floats(1e-3, 1e3)),
           kappa=st.floats(1.0, 60.0),
           carry_rows=st.sampled_from([0, 3, 50, 3000]))
    @settings(max_examples=80, deadline=None)
    # V = I + S with S tiny: w_min and mu tie within the rounding of eigvalsh
    @example(seed=0, k=18, p=3, scale=1e-9, lam=1.0, kappa=1.0, carry_rows=0)
    def test_screened_flags_equal_eigvalsh_path(self, seed, k, p, scale, lam, kappa,
                                                carry_rows):
        V, lams, terms = gram_stack(seed, k, p, scale, lam, carry_rows)
        rng = np.random.default_rng(seed + 1)
        # mu within a few ulps of 1/(16 kappa^10), where w_min near 1 ties,
        # far from it on either side, or zero
        guard = 1.0 / (16.0 * kappa**10)
        near = guard * (1.0 + np.finfo(float).eps * rng.integers(-4, 5, size=k))
        far = guard * 10.0 ** rng.uniform(-30.0, 30.0, size=k)
        mu = np.where(rng.random(k) < 0.5, near, far)
        mu[rng.random(k) < 0.05] = 0.0
        screened = anynum_condition(mu, V, kappa, lam=lams, terms=terms)
        assert screened.dtype == bool
        assert screened.tolist() == anynum_condition(mu, V, kappa).tolist()
        assert anynum_condition(mu[0], V[0], kappa, lam=lams[0], terms=terms) \
            == anynum_condition(mu[0], V[0], kappa)

    def test_non_pd_in_stack_raises(self):
        V, lams, terms = gram_stack(0, 40, 3, 1e-3, 1.0, 10)
        # V[17] = -I + S with S small: not PD
        V[17] += (-1.0 - lams[17]) * np.eye(3)
        lams[17] = -1.0
        with pytest.raises(ConfigurationError):
            anynum_condition(1e-6, V, 2.0)
        with pytest.raises(ConfigurationError):
            anynum_condition(1e-6, V, 2.0, lam=lams, terms=terms)
        with pytest.raises(ConfigurationError):
            anynum_condition(0.0, V[17], 2.0, lam=lams[17], terms=terms)


class TestBuildSchedule:
    @pytest.mark.parametrize("constants_mode", ["practical", "theory"])
    def test_params_keep_no_default_it_overrides(self, monkeypatch, bench2x2, bench2x2_gain,
                                                 constants_mode):
        # build_schedule constructs ScheduleParams once, and gives no field that has a default
        made, real = [], schedules.ScheduleParams
        monkeypatch.setattr(schedules, "ScheduleParams", lambda **kw: made.append(kw) or real(**kw))
        build_schedule(bench2x2, cert0=stability_certificate(bench2x2, bench2x2_gain),
                       constants_mode=constants_mode)
        defaulted = {f.name for f in fields(real) if f.default is not MISSING}
        assert len(made) == 1 and not defaulted & set(made[0])

    def test_criterion_validation(self, bench2x2):
        with pytest.raises(ConfigurationError):
            build_schedule(bench2x2, nu=100.0, criterion="bogus")

    def test_relaxed_needs_room_for_phi(self, bench2x2):
        with pytest.raises(ConfigurationError):
            # 1/(1-chi) above phi_bar(0.1) leaves no admissible phi
            build_schedule(bench2x2, nu=100.0, criterion="relaxed_sequential",
                           chi=0.2)

    @pytest.mark.parametrize("field, value", [
        ("chi", 1.0), ("chi", -0.1), ("lambda_scale", 0.0), ("lambda_scale", -1.0),
        ("lambda_scale", math.nan), ("noise_scale", -1.0), ("mu_mode", "Lemma"),
        ("radius_variant", "anchor"), ("tau_star_form", "stmt"),
        ("constants_mode", "Theory"), ("beta", 0.0), ("beta", math.nan), ("delta", 1.0),
        ("lambda_scale", math.inf), ("noise_scale", math.inf),
    ])
    def test_out_of_domain_value_names_field(self, bench2x2, field, value):
        with pytest.raises(ConfigurationError) as exc:
            build_schedule(bench2x2, nu=100.0, **{field: value})
        assert exc.value.field == field

    def test_det_double_forces_beta_one(self, bench2x2_params):
        assert bench2x2_params.beta == 1.0

    def test_constants_report_keys(self, bench2x2_params):
        rep = constants_report(bench2x2_params)
        for key in ("log10_G", "nu", "kappa", "gamma", "alpha_bar",
                    "log10_beta_floor", "eps_bar"):
            assert key in rep

    def test_theory_constants_in_log_space(self):
        params = small_theory_params()
        assert math.isfinite(params.log10_G)
        assert math.isfinite(params.log10_G_star)
        assert math.isfinite(params.log10_tau_star)
        assert params.log10_eps_bar <= math.log10(2 * params.theta_bound)
