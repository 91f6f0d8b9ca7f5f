"""Physics: closed-form values, field oracles, symplectic map, integration."""

import signal

import numpy as np
import pytest

from hamlearn import physics as P
from oracle import graph as G

RNG = np.random.default_rng


def random_system(rng, system=None):
    system = system or rng.choice(P.SYSTEMS)
    if system == "spring_mass":
        par = P.PhysicalParams(system, {"m": rng.uniform(0.5, 5),
                                        "k": rng.uniform(0.5, 5),
                                        "q0": rng.uniform(-5, 5)})
        x = rng.uniform(-10, 10, 2)
    elif system == "pendulum":
        par = P.PhysicalParams(system, {"m": rng.uniform(0.5, 5),
                                        "l": rng.uniform(0.5, 5),
                                        "q0": rng.uniform(-np.pi, np.pi)})
        x = np.array([rng.uniform(-2 * np.pi, 2 * np.pi), rng.uniform(-20, 20)])
    else:
        par = P.PhysicalParams(system, {"M": rng.uniform(0.5, 2.5),
                                        "m": rng.uniform(0.5, 2.5),
                                        "q0x": rng.uniform(-2.5, 2.5),
                                        "q0y": rng.uniform(-2.5, 2.5)})
        while True:
            x = rng.uniform(-5, 5, 4)
            if np.hypot(x[0] - par.values["q0x"],
                        x[1] - par.values["q0y"]) >= P.KEPLER_MIN_SEP_SAMPLE:
                break
    return par, x


def test_hamiltonian_closed_form_values():
    spring = P.PhysicalParams("spring_mass", {"m": 2, "k": 2, "q0": 0})
    assert P.hamiltonian_many(spring, [1.0, 2.0])[0] == pytest.approx(2.0,
                                                            abs=1e-15)
    pend = P.PhysicalParams("pendulum", {"m": 1, "l": 1, "q0": 0})
    assert P.hamiltonian_many(pend, [0.0, 0.0])[0] == 0.0
    kep = P.PhysicalParams("kepler", {"M": 1, "m": 1, "q0x": 0, "q0y": 0})
    assert P.hamiltonian_many(kep, [1, 0, 0, 1])[0] == pytest.approx(-0.5,
                                                            abs=1e-15)


def test_true_field_closed_form_values():
    spring = P.PhysicalParams("spring_mass", {"m": 1, "k": 1, "q0": 0})
    np.testing.assert_allclose(P.true_field_many(spring, [1.0, 0.0])[0],
                               [0.0, -1.0], atol=1e-15)
    pend = P.PhysicalParams("pendulum", {"m": 1, "l": 1, "q0": 0})
    np.testing.assert_allclose(P.true_field_many(pend, [np.pi / 2, 0.0])[0],
                               [0.0, -1.0], atol=1e-15)


def test_field_matches_fd_of_hamiltonian():
    rng = RNG(0)
    h = 1e-6
    for _ in range(60):
        par, x = random_system(rng)
        d = x.size
        grad = np.empty(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            grad[i] = (P.hamiltonian_many(par, x + e)[0]
                       - P.hamiltonian_many(par, x - e)[0]) / (2 * h)
        want = P.omega_apply(grad)
        got = P.true_field_many(par, x[None])[0]
        rel = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert rel.max() < 1e-7


def test_field_matches_tape_route():
    # two independent implementations of the same formulas must agree
    rng = RNG(1)
    for _ in range(150):
        par, x = random_system(rng)
        a = P.true_field_many(par, x[None])[0]
        b = G.graph_field(par, x)
        rel = np.abs(a - b) / np.maximum(1e-9, np.abs(a))
        assert rel.max() < 1e-12


def test_omega_properties():
    rng = RNG(2)
    for n in (1, 2, 5):
        v = rng.normal(0, 3, 2 * n)
        np.testing.assert_array_equal(P.omega_apply(P.omega_apply(v)), -v)
        assert np.dot(v, P.omega_apply(v)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        P.omega_apply(np.zeros(3))


def test_physical_params_validation():
    with pytest.raises(ValueError):
        P.PhysicalParams("spring_mass", {"m": -1, "k": 1, "q0": 0})
    with pytest.raises(ValueError):
        P.PhysicalParams("spring_mass", {"m": 1, "k": 1})
    with pytest.raises(ValueError):
        P.PhysicalParams("lorenz", {"m": 1})
    par = P.PhysicalParams.from_vector("kepler", [1, 2, 0.5, -0.5])
    assert par.values == {"M": 1.0, "m": 2.0, "q0x": 0.5, "q0y": -0.5}
    np.testing.assert_array_equal(par.as_vector(), [1, 2, 0.5, -0.5])


def test_integrate_zero_field_constant():
    x0 = np.array([1.0, -2.0])
    t, X = P.integrate(lambda x: np.zeros_like(x), x0, 5.0, 10)
    np.testing.assert_array_equal(t, np.arange(1, 11) * 0.5)
    assert np.all(np.abs(X - x0) < 1e-12)


def test_integrate_harmonic_oscillator_analytic():
    par = P.PhysicalParams("spring_mass", {"m": 1, "k": 1, "q0": 0})
    t, X = P.integrate(P.field_fn(par), np.array([1.0, 0.0]), np.pi, 4)
    np.testing.assert_allclose(X[-1], [-1.0, 0.0], atol=1e-6)
    np.testing.assert_allclose(X[:, 0], np.cos(t), atol=1e-6)
    np.testing.assert_allclose(X[:, 1], -np.sin(t), atol=1e-6)


@pytest.mark.parametrize("system", P.SYSTEMS)
def test_energy_conservation_along_true_field(system):
    rng = RNG(hash(system) % 2**32)
    for _ in range(3):
        par, x0 = random_system(rng, system)
        if system == "kepler" and P.hamiltonian_many(par, x0)[0] > -0.05:
            continue  # unbound orbit may legitimately escape the region
        try:
            t, X = P.integrate(P.field_fn(par), x0, 20.0, 50)
        except P.IntegrationError:
            assert system == "kepler"  # near-singular passes can stall
            continue
        H0 = P.hamiltonian_many(par, x0)[0]
        drift = np.abs(P.hamiltonian_many(par, X) - H0) / max(1.0, abs(H0))
        assert drift.max() < 1e-6


def test_time_reversal():
    rng = RNG(3)
    par, x0 = random_system(rng, "pendulum")
    rtol, atol = 1e-8, 1e-10
    f = P.field_fn(par)
    _, X = P.integrate(f, x0, 7.0, 1, rtol=rtol, atol=atol)
    _, back = P.integrate(lambda x: -f(x), X[-1], 7.0, 1, rtol=rtol, atol=atol)
    tol = 10 * (rtol * np.linalg.norm(x0) + atol)
    assert np.linalg.norm(back[-1] - x0) <= tol


def test_kepler_guard_and_integration_error():
    par = P.PhysicalParams("kepler", {"M": 2, "m": 1, "q0x": 0, "q0y": 0})
    # inside the guard H and the force (pdot) are NaN, row by row
    assert np.isnan(P.hamiltonian_many(par, [0.05, 0.0, 0.0, 0.0])).all()
    F = P.true_field_many(par, np.array([[0.03, 0, 0, 0]]))
    assert np.isnan(F[:, 2:]).all()
    F = P.true_field_many(par, np.array([[0.03, 0, 0, 0], [1.0, 0, 0, 0]]))
    assert np.isnan(F[0, 2:]).all() and np.isfinite(F[1]).all()
    # radial infall: hits the guard, surfaces as IntegrationError with a time
    with pytest.raises(P.IntegrationError) as ei:
        P.integrate(P.field_fn(par), np.array([0.6, 0.0, -0.5, 0.0]), 10.0, 10)
    assert 0.0 <= ei.value.t_failure <= 10.0


def test_integrate_non_finite_field_raises():
    # RK45 alone spins forever on a NaN derivative; the alarm bounds a
    # regression to a failure instead of a hung suite
    def timeout(signum, frame):
        raise TimeoutError("integrate did not return")

    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(20)
    try:
        with pytest.raises(P.IntegrationError) as ei:
            P.integrate(lambda x: np.full(2, np.nan), [1.0, 0.5], 20.0, 200)
        assert ei.value.t_failure == 0.0
        # a field that turns infinite at q = 2, reached at t = 1
        field = lambda x: np.array([1.0 if x[0] < 2 else np.inf, 0.0])
        with pytest.raises(P.IntegrationError) as ei:
            P.integrate(field, [1.0, 0.0], 20.0, 200)
        assert 0.5 < ei.value.t_failure < 2.0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_integrate_rejects_a_non_finite_x0():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            P.integrate(lambda x: -x, [bad, 0.5], 1.0, 4)


def test_integrate_reaches_a_last_sample_past_T():
    times = P.sample_times(3.0, 187)
    assert times[-1] > 3.0  # k * (T / L) overshoots T by one ULP
    t, X = P.integrate(lambda x: np.array([x[1], -x[0]]), [1.0, 0.0], 3.0, 187)
    assert X.shape == (187, 2)
    np.testing.assert_array_equal(t, times)


def _rk45_oracle(field, x0, T_span, samples, rtol, atol):
    """(times, states) from scipy's RK45, or (message, t_failure) where
    `integrate` must raise IntegrationError."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    times = P.sample_times(T_span, samples)
    res = solve_ivp(lambda t, y: field(y), (0.0, max(T_span, times[-1])),
                    x0, method="RK45", t_eval=times, rtol=rtol, atol=atol)
    if not res.success:
        t_fail = float(res.t[-1]) if len(res.t) else 0.0
        return (f"integration stalled at t = {t_fail:.6g}: {res.message}",
                t_fail)
    return times, res.y.T


@pytest.mark.parametrize("rtol", [1e-8, 1e-6, 1e-3])
def test_integrate_matches_scipy_rk45_bit_for_bit(rtol):
    rng = RNG(round(-np.log10(rtol)))
    for _ in range(20):
        n = int(rng.choice([2, 4]))
        M, b = rng.normal(size=(n, n)), rng.normal(size=n)
        field = lambda x, M=M, b=b: M @ x + np.sin(x) + b
        x0 = rng.normal(size=n)
        T_span = float(rng.choice([0.5, 1.0, 3.0, 5.0]))
        samples = int(rng.integers(1, 200))
        t, X = P.integrate(field, x0, T_span, samples, rtol=rtol,
                           atol=rtol / 100)
        want_t, want_X = _rk45_oracle(field, x0, T_span, samples, rtol,
                                      rtol / 100)
        np.testing.assert_array_equal(t, want_t)
        assert X.shape == want_X.shape
        assert X.tobytes() == want_X.tobytes()


def test_integrate_blow_up_fails_like_scipy_rk45():
    # xdot = x^2 blows up at t = 1 / x0; the last x0 before the first sample
    for x0 in (0.2, 0.5, 1.0, 3.0, 50.0):
        with pytest.raises(P.IntegrationError) as ei:
            P.integrate(lambda x: x * x, [x0], 10.0, 40)
        message, t_fail = _rk45_oracle(lambda x: x * x, [x0], 10.0, 40,
                                       1e-8, 1e-10)
        assert str(ei.value) == message
        assert ei.value.t_failure == t_fail


def test_integration_error_carries_the_reached_samples():
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    times = P.sample_times(10.0, 40)
    for x0 in (0.2, 0.5, 3.0, 50.0):  # stalls; 50 before the first sample
        with pytest.raises(P.IntegrationError) as ei:
            P.integrate(lambda x: x * x, [x0], 10.0, 40)
        res = solve_ivp(lambda t, y: y * y, (0.0, 10.0), [x0], method="RK45",
                        t_eval=times, rtol=1e-8, atol=1e-10)
        k = len(res.t)
        want = np.asarray(res.y, np.float64).reshape(1, k).T
        np.testing.assert_array_equal(ei.value.times, times[:k])
        assert ei.value.states.shape == (k, 1)
        assert ei.value.states.tobytes() == want.tobytes()
        with pytest.raises(P.IntegrationError) as ei0:
            P.integrate(lambda x: x * x, [x0], 10.0, 40)
        np.testing.assert_array_equal(np.concatenate([[0.0], ei0.value.times]),
                                      np.concatenate([[0.0], times[:k]]))
        assert np.vstack([[x0], ei0.value.states]).tobytes() == \
            np.vstack([[x0], want]).tobytes()
    # a non-finite derivative at q = 2, reached at t = 1
    field = lambda x: np.array([1.0 if x[0] < 2 else np.inf, 0.0])
    with pytest.raises(P.IntegrationError) as ei:
        P.integrate(field, [1.0, 0.0], 20.0, 200)
    err = ei.value
    assert 0 < err.times.size < 200 and err.times[-1] < err.t_failure
    np.testing.assert_array_equal(err.times, P.sample_times(20.0, 200)[
        : err.times.size])
    np.testing.assert_allclose(err.states[:, 0], 1.0 + err.times, rtol=1e-12)


def test_integrate_zero_field_with_initial_row_matches_scipy_rk45():
    x0 = np.array([1.0, -2.0])
    zero = lambda x: np.zeros_like(x)
    t, X = P.integrate(zero, x0, 5.0, 10)
    t, X = np.concatenate([[0.0], t]), np.vstack([x0, X])
    want_t, want_X = _rk45_oracle(zero, x0, 5.0, 10, 1e-8, 1e-10)
    np.testing.assert_array_equal(t, np.concatenate([[0.0], want_t]))
    assert X.tobytes() == np.vstack([x0, want_X]).tobytes()


def test_sample_times_convention():
    np.testing.assert_allclose(P.sample_times(1.0, 5), [0.2, 0.4, 0.6, 0.8, 1.0])
    with pytest.raises(ValueError):
        P.sample_times(1.0, 0)
