"""Ground-truth systems: Hamiltonians, analytic fields, ODE integration.

Three closed-form systems over canonical coordinates x = (q, p):

  spring_mass  H = p^2/(2m) + k (q - q0)^2 / 2                (n = 1)
  pendulum     H = p^2/(2 m l^2) + m g l (1 - cos(q - q0)),  g = 1
  kepler       H = |p|^2/(2m) - G M m / |q - q0|,            G = 1, n = 2

Each system provides the energy and its analytic symplectic gradient
xdot = Omega dH/dx.  The tests cross-check the analytic field against
autodiff of the same H built on a scalar tape.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from . import DOF, SYSTEMS

PARAM_NAMES = {
    "spring_mass": ("m", "k", "q0"),
    "pendulum": ("m", "l", "q0"),
    "kepler": ("M", "m", "q0x", "q0y"),
}

GRAV_ACC = 1.0   # pendulum g
GRAV_CONST = 1.0  # Kepler G

# Kepler separation guards: sampling keeps |q - q0| >= 0.5 by rejection;
# below 0.1, H and the force (pdot) are NaN, since the bare 1/r blow-up
# would otherwise destroy training and integration.  `integrate` and the
# rollout read a non-finite value as the end of what can be scored.
KEPLER_MIN_SEP_SAMPLE = 0.5
KEPLER_MIN_SEP_EVAL = 0.1


@dataclass(frozen=True)
class PhysicalParams:
    system: str
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}")
        names = PARAM_NAMES[self.system]
        if set(self.values) != set(names):
            raise ValueError(f"{self.system} needs parameters {names}, "
                             f"got {tuple(self.values)}")
        vals = {k: float(v) for k, v in self.values.items()}
        for name in ("m", "M", "k", "l"):
            if name in vals and vals[name] <= 0:
                raise ValueError(f"{name} must be strictly positive")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return DOF[self.system]

    def as_vector(self) -> np.ndarray:
        return np.array([self.values[k] for k in PARAM_NAMES[self.system]])

    @classmethod
    def from_vector(cls, system: str, vec) -> "PhysicalParams":
        names = PARAM_NAMES[system]
        vec = np.asarray(vec, np.float64).ravel()
        if vec.shape[0] != len(names):
            raise ValueError(f"{system} expects {len(names)} parameter values")
        return cls(system, dict(zip(names, (float(v) for v in vec))))


def kepler_separation(params: PhysicalParams, Q: np.ndarray) -> np.ndarray:
    """|q - q0| per row of Kepler positions Q, NaN inside the evaluation
    guard: a NaN fails every comparison, so a `>=` test refuses it."""
    q0 = np.array([params.values["q0x"], params.values["q0y"]])
    d = Q - q0
    r = np.sqrt(np.sum(d * d, axis=-1))
    return np.where(r < KEPLER_MIN_SEP_EVAL, np.nan, r)


def hamiltonian_many(params: PhysicalParams, X) -> np.ndarray:
    """Energies for a batch of flat states X (B, 2n); a Kepler state inside
    the evaluation guard has energy NaN."""
    X = np.atleast_2d(np.asarray(X, np.float64))
    n = params.n
    if X.shape[1] != 2 * n:
        raise ValueError("state width mismatch")
    v = params.values
    Q, P = X[:, :n], X[:, n:]
    if params.system == "spring_mass":
        return P[:, 0] ** 2 / (2 * v["m"]) + v["k"] * (Q[:, 0] - v["q0"]) ** 2 / 2
    if params.system == "pendulum":
        ml2 = v["m"] * v["l"] ** 2
        return (P[:, 0] ** 2 / (2 * ml2)
                + v["m"] * GRAV_ACC * v["l"] * (1 - np.cos(Q[:, 0] - v["q0"])))
    r = kepler_separation(params, Q)
    return (np.sum(P * P, axis=1) / (2 * v["m"])
            - GRAV_CONST * v["M"] * v["m"] / r)


def true_field_many(params: PhysicalParams, X) -> np.ndarray:
    """Analytic xdot = Omega dH/dx for a batch of flat states; the Kepler
    force (pdot) is NaN inside the evaluation guard."""
    X = np.atleast_2d(np.asarray(X, np.float64))
    n = params.n
    if X.shape[1] != 2 * n:
        raise ValueError("state width mismatch")
    v = params.values
    Q, P = X[:, :n], X[:, n:]
    out = np.empty_like(X)
    if params.system == "spring_mass":
        out[:, 0] = P[:, 0] / v["m"]
        out[:, 1] = -v["k"] * (Q[:, 0] - v["q0"])
    elif params.system == "pendulum":
        out[:, 0] = P[:, 0] / (v["m"] * v["l"] ** 2)
        out[:, 1] = -v["m"] * GRAV_ACC * v["l"] * np.sin(Q[:, 0] - v["q0"])
    else:
        r = kepler_separation(params, Q)
        q0 = np.array([v["q0x"], v["q0y"]])
        out[:, :n] = P / v["m"]
        out[:, n:] = -GRAV_CONST * v["M"] * v["m"] * (Q - q0) / r[:, None] ** 3
    return out


def field_fn(params: PhysicalParams):
    """The analytic field as a callable on one flat state (for `integrate`).

    It repeats `true_field_many`'s arithmetic operation for operation on the
    state's Python floats, so each row is bit for bit the same, without the
    batch checks and slicing that cost more than the arithmetic at one row.
    The one exception is Kepler's r^3: numpy's power and libm's can differ
    by an ULP, so it stays numpy's."""
    v = params.values
    if params.system == "spring_mass":
        m, neg_k, q0 = v["m"], -v["k"], v["q0"]

        def f(x: np.ndarray) -> np.ndarray:
            q, p = x.tolist()
            return np.array([p / m, neg_k * (q - q0)])
    elif params.system == "pendulum":
        ml2, q0 = v["m"] * v["l"] ** 2, v["q0"]
        neg_mgl = -v["m"] * GRAV_ACC * v["l"]

        def f(x: np.ndarray) -> np.ndarray:
            q, p = x.tolist()
            return np.array([p / ml2, neg_mgl * math.sin(q - q0)])
    else:
        m, q0x, q0y = v["m"], v["q0x"], v["q0y"]
        neg_gmm = -GRAV_CONST * v["M"] * v["m"]

        def f(x: np.ndarray) -> np.ndarray:
            qx, qy, px, py = x.tolist()
            dx, dy = qx - q0x, qy - q0y
            r = math.sqrt(dx * dx + dy * dy)
            r3 = np.power(r if r >= KEPLER_MIN_SEP_EVAL else math.nan, 3)
            return np.array([px / m, py / m, neg_gmm * dx / r3,
                             neg_gmm * dy / r3])
    return f


# -- symplectic form ----------------------------------------------------------


def omega_apply(vec) -> np.ndarray:
    """Apply Omega = [[0, I], [-I, 0]] along the last axis."""
    vec = np.asarray(vec, np.float64)
    if vec.shape[-1] % 2:
        raise ValueError("phase vector length must be even")
    n = vec.shape[-1] // 2
    out = np.empty_like(vec, order="A")  # a transpose keeps its layout
    out[..., :n] = vec[..., n:]
    out[..., n:] = -vec[..., :n]
    return out


# -- integration ---------------------------------------------------------------


def sample_times(T_span: float, samples: int) -> np.ndarray:
    """The convention used everywhere: t_k = k * T / L for k = 1..L."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return np.arange(1, samples + 1) * (T_span / samples)


# Dormand-Prince 5(4) (Dormand & Prince 1980, J. Comput. Appl. Math. 6(1))
# with Shampine's dense output (Math. Comp. 46(173), 1986).  The tableau,
# step control and dense output repeat scipy.integrate's RK45 operation for
# operation, so the samples match `solve_ivp(method="RK45", t_eval=...)`
# bit for bit; tests/test_physics.py checks that against scipy.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
               1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / 5
# stage s: its row of _A, cut to the s stages before it, and its node
_STAGES = [(s, _A[s, :s], float(_C[s])) for s in range(1, len(_C))]


def _rms(x: np.ndarray):
    # np.linalg.norm's own arithmetic for a vector, without its dispatch; a
    # numpy float, so that a division by it cannot raise ZeroDivisionError
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(fun, y0, f0, t_bound, rtol, atol):
    """Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4, from t = 0."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    f1 = fun(h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_bound)


def _dopri45(fun, y0, t_bound, t_eval, rtol, atol, out):
    """Step from t = 0 to t_bound, appending the dense output at the sorted
    times t_eval (all in (0, t_bound]) to the list out, as blocks of rows.
    Returns the number of rows appended; fewer than len(t_eval) means the
    step size fell below the floor.  If `fun` raises, out keeps the rows
    appended before."""
    t, y = 0.0, y0
    f = fun(t, y)
    h_abs = _initial_step(fun, y, f, t_bound, rtol, atol)
    K = np.empty((len(_C) + 1, y.size))
    t_list = t_eval.tolist()
    done = 0
    while True:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return done
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s, a, c in _STAGES:
                dy = np.dot(K[:s].T, a) * h
                K[s] = fun(t + c * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR,
                                 _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        reached = bisect.bisect_right(t_list, t)
        if reached > done:
            Q = K.T.dot(_P)
            x = (t_eval[done:reached] - t_old) / h
            p = np.cumprod(x[None].repeat(Q.shape[1], axis=0), axis=0)
            ys = h * np.dot(Q, p)
            ys += y_old[:, None]
            out.append(ys.T)
            done = reached
        if t - t_bound >= 0:
            return done


class _NonFinite(Exception):
    """A non-finite derivative at time args[0]; only `integrate` catches it."""


def integrate(field, x0, T_span: float, samples: int,
              rtol: float = 1e-8, atol: float = 1e-10):
    """Integrate xdot = field(x) with adaptive Dormand-Prince 5(4).

    The method is Dormand & Prince's 5(4) pair with Shampine's dense
    output, as in scipy's RK45, whose samples this reproduces bit for bit.
    field maps a flat state (2n,) to its derivative (2n,).  Returns
    (states, t_failure): states[k] is the dense-output solution at
    t_k = sample_times(T, L)[k], for each sample reached.  t_failure is
    None when all L were reached, else the time at which `field` was
    called when the derivative is non-finite (as the true field is outside
    its domain), or the last sample time reached (0.0 if none) when the
    step size falls below the spacing of floats.  An empty or non-finite
    x0, or a T that is not finite and positive, raises ValueError.
    """
    x0 = np.asarray(x0, np.float64).ravel()
    if not 0 < T_span < np.inf:  # NaN or inf T would step forever
        raise ValueError("T must be finite and positive")
    if x0.size == 0 or not np.isfinite(x0).all():
        raise ValueError("x0 must be a non-empty finite vector")
    times = sample_times(T_span, samples)

    def rhs(t, y):
        d = np.asarray(field(y), np.float64)
        # a NaN derivative makes the step size NaN, and the step loop then
        # never ends
        if not all(map(math.isfinite, d.tolist())):
            raise _NonFinite(t)
        return d

    blocks = []
    # k * (T / L) can overshoot T by one ULP: integrate to the last sample
    t_end = max(float(T_span), float(times[-1]))
    try:
        reached = _dopri45(rhs, x0, t_end, times, rtol, atol, blocks)
    except _NonFinite as stop:
        t_failure = float(stop.args[0])
    else:
        t_failure = (None if reached == samples else
                     float(times[reached - 1]) if reached else 0.0)
    states = np.vstack(blocks) if blocks else np.empty((0, x0.size))
    return states, t_failure
