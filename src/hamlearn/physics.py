"""Ground-truth systems: Hamiltonians, analytic fields, ODE integration.

Three closed-form systems over canonical coordinates x = (q, p):

  spring_mass  H = p^2/(2m) + k (q - q0)^2 / 2                (n = 1)
  pendulum     H = p^2/(2 m l^2) + m g l (1 - cos(q - q0)),  g = 1
  kepler       H = |p|^2/(2m) - G M m / |q - q0|,            G = 1, n = 2

Each system provides the energy, its analytic symplectic gradient
xdot = Omega dH/dx, and a tape-built copy of H so the analytic field can
be cross-checked against autodiff (two independent code paths).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tape as T
from .tape import DomainError

SYSTEMS = ("spring_mass", "pendulum", "kepler")

PARAM_NAMES = {
    "spring_mass": ("m", "k", "q0"),
    "pendulum": ("m", "l", "q0"),
    "kepler": ("M", "m", "q0x", "q0y"),
}

DOF = {"spring_mass": 1, "pendulum": 1, "kepler": 2}

GRAV_ACC = 1.0   # pendulum g
GRAV_CONST = 1.0  # Kepler G

# Kepler separation guards: sampling keeps |q - q0| >= 0.5 by rejection;
# evaluating H or the field below 0.1 is a domain error (the bare 1/r
# blow-up otherwise destroys training and integration).
KEPLER_MIN_SEP_SAMPLE = 0.5
KEPLER_MIN_SEP_EVAL = 0.1


class IntegrationError(RuntimeError):
    """Adaptive integration failed; `t_failure` is the last reached time."""

    def __init__(self, message: str, t_failure: float):
        super().__init__(message)
        self.t_failure = float(t_failure)


@dataclass(frozen=True)
class PhaseState:
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, np.float64))
        p = np.atleast_1d(np.asarray(self.p, np.float64))
        if q.shape != p.shape or q.ndim != 1:
            raise ValueError("q and p must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise ValueError("phase-state components must be finite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.q, self.p])

    @classmethod
    def from_array(cls, x) -> "PhaseState":
        x = np.asarray(x, np.float64).ravel()
        if x.shape[0] % 2:
            raise ValueError("flat phase vector must have even length")
        n = x.shape[0] // 2
        return cls(x[:n], x[n:])


@dataclass(frozen=True)
class PhasePoint:
    """Time derivative (qdot, pdot) at a phase-space point."""
    qdot: np.ndarray
    pdot: np.ndarray

    def __post_init__(self):
        qd = np.atleast_1d(np.asarray(self.qdot, np.float64))
        pd = np.atleast_1d(np.asarray(self.pdot, np.float64))
        if qd.shape != pd.shape or qd.ndim != 1:
            raise ValueError("qdot and pdot must be 1-d arrays of equal length")
        object.__setattr__(self, "qdot", qd)
        object.__setattr__(self, "pdot", pd)

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.qdot, self.pdot])


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


def _flat_state(params: PhysicalParams, x) -> np.ndarray:
    if isinstance(x, PhaseState):
        x = x.as_array()
    x = np.asarray(x, np.float64).ravel()
    if x.shape[0] != 2 * params.n:
        raise ValueError(f"state length {x.shape[0]} != 2n = {2 * params.n}")
    return x


def _kepler_sep(params: PhysicalParams, Q: np.ndarray) -> np.ndarray:
    q0 = np.array([params.values["q0x"], params.values["q0y"]])
    d = Q - q0
    r = np.sqrt(np.sum(d * d, axis=-1))
    if np.any(r < KEPLER_MIN_SEP_EVAL):
        raise DomainError(
            f"kepler separation {float(np.min(r)):.4g} below "
            f"{KEPLER_MIN_SEP_EVAL} (near-singular)")
    return r


def hamiltonian_many(params: PhysicalParams, X) -> np.ndarray:
    """Energies for a batch of flat states X (B, 2n)."""
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
    r = _kepler_sep(params, Q)
    return (np.sum(P * P, axis=1) / (2 * v["m"])
            - GRAV_CONST * v["M"] * v["m"] / r)


def true_field_many(params: PhysicalParams, X) -> np.ndarray:
    """Analytic xdot = Omega dH/dx for a batch of flat states."""
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
        r = _kepler_sep(params, Q)
        q0 = np.array([v["q0x"], v["q0y"]])
        out[:, :n] = P / v["m"]
        out[:, n:] = -GRAV_CONST * v["M"] * v["m"] * (Q - q0) / r[:, None] ** 3
    return out


def hamiltonian(params: PhysicalParams, x) -> float:
    """Energy at one state (PhaseState or flat array)."""
    return float(hamiltonian_many(params, _flat_state(params, x)[None])[0])


def true_field(params: PhysicalParams, x):
    """Analytic field at one state; mirrors the input type."""
    flat = true_field_many(params, _flat_state(params, x)[None])[0]
    if isinstance(x, PhaseState):
        n = params.n
        return PhasePoint(flat[:n], flat[n:])
    return flat


def field_fn(params: PhysicalParams):
    """The analytic field as a flat-array callable (for `integrate`)."""
    def f(x: np.ndarray) -> np.ndarray:
        return true_field_many(params, x[None])[0]
    return f


# -- symplectic form ----------------------------------------------------------


def omega_apply(vec) -> np.ndarray:
    """Apply Omega = [[0, I], [-I, 0]] along the last axis."""
    vec = np.asarray(vec, np.float64)
    if vec.shape[-1] % 2:
        raise ValueError("phase vector length must be even")
    n = vec.shape[-1] // 2
    out = np.empty_like(vec)
    out[..., :n] = vec[..., n:]
    out[..., n:] = -vec[..., :n]
    return out


# -- tape-built Hamiltonians (independent route for cross-checks) -------------


def hamiltonian_graph(g: T.Graph, params: PhysicalParams, x_ids) -> int:
    """Build the closed-form H on the tape; returns the output node id.

    x_ids are 2n node ids [q..., p...].  This duplicates the formulas in
    `hamiltonian_many` using tape ops only, so Omega * backward() of this
    node can be compared against `true_field_many`.
    """
    x_ids = np.asarray(x_ids, np.int64).ravel()
    n = params.n
    if x_ids.shape[0] != 2 * n:
        raise ValueError("state id count mismatch")
    v = params.values
    q_ids, p_ids = x_ids[:n], x_ids[n:]
    if params.system == "spring_mass":
        kin = g.apply(T.DIV, g.apply(T.SQUARE, int(p_ids[0])),
                      g.constant(2 * v["m"]))
        d = g.apply(T.SUB, int(q_ids[0]), g.constant(v["q0"]))
        pot = g.apply(T.MUL, g.constant(v["k"] / 2), g.apply(T.SQUARE, d))
        return g.apply(T.ADD, kin, pot)
    if params.system == "pendulum":
        kin = g.apply(T.DIV, g.apply(T.SQUARE, int(p_ids[0])),
                      g.constant(2 * v["m"] * v["l"] ** 2))
        d = g.apply(T.SUB, int(q_ids[0]), g.constant(v["q0"]))
        one_minus_cos = g.apply(T.SUB, g.constant(1.0), g.apply(T.COS, d))
        pot = g.apply(T.MUL, g.constant(v["m"] * GRAV_ACC * v["l"]), one_minus_cos)
        return g.apply(T.ADD, kin, pot)
    # kepler: |q - q0| via exp(log(.)/2) since the op set has no sqrt
    p2 = g.apply(T.ADD, g.apply(T.SQUARE, int(p_ids[0])),
                 g.apply(T.SQUARE, int(p_ids[1])))
    kin = g.apply(T.DIV, p2, g.constant(2 * v["m"]))
    dx = g.apply(T.SUB, int(q_ids[0]), g.constant(v["q0x"]))
    dy = g.apply(T.SUB, int(q_ids[1]), g.constant(v["q0y"]))
    r2 = g.apply(T.ADD, g.apply(T.SQUARE, dx), g.apply(T.SQUARE, dy))
    r = g.apply(T.EXP, g.apply(T.MUL, g.constant(0.5), g.apply(T.LOG, r2)))
    pot = g.apply(T.DIV, g.constant(GRAV_CONST * v["M"] * v["m"]), r)
    return g.apply(T.SUB, kin, pot)


def graph_field(params: PhysicalParams, x) -> np.ndarray:
    """Omega * (tape gradient of the tape-built H); cross-check route."""
    x = _flat_state(params, x)
    g = T.Graph()
    x_ids = g.leaf_many(x)
    h = hamiltonian_graph(g, params, x_ids)
    grad = g.values(g.backward(h, x_ids))
    return omega_apply(grad)


# -- integration ---------------------------------------------------------------


def sample_times(T_span: float, samples: int) -> np.ndarray:
    """The convention used everywhere: t_k = k * T / L for k = 1..L."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return np.arange(1, samples + 1) * (T_span / samples)


def integrate(field, x0, T_span: float, samples: int,
              rtol: float = 1e-8, atol: float = 1e-10,
              include_initial: bool = False):
    """Integrate xdot = field(x) with adaptive Dormand-Prince 5(4).

    field maps a flat state (2n,) to its derivative (2n,).  Returns
    (times, states) with states[k] the dense-output solution at
    t_k = k*T/L; `include_initial` prepends the t = 0 row.  Failure to
    reach T (blow-up, a non-finite derivative, a domain error inside
    `field`) raises IntegrationError carrying the last reached time.
    """
    # scipy.integrate takes most of the package's import time; only the
    # commands that integrate should pay for it
    from scipy.integrate import solve_ivp

    if isinstance(x0, PhaseState):
        x0 = x0.as_array()
    x0 = np.asarray(x0, np.float64).ravel()
    if T_span <= 0:
        raise ValueError("T must be positive")
    times = sample_times(T_span, samples)
    last_t = [0.0]

    def rhs(t, y):
        last_t[0] = t
        d = field(y)
        # a NaN derivative makes RK45's step size NaN, and its step loop
        # then never ends
        if not np.isfinite(d).all():
            raise IntegrationError(
                f"non-finite derivative at t = {t:.6g}", t)
        return d

    try:
        res = solve_ivp(rhs, (0.0, float(T_span)), x0, method="RK45",
                        t_eval=times, rtol=rtol, atol=atol, dense_output=False)
    except DomainError as exc:
        raise IntegrationError(
            f"field raised a domain error near t = {last_t[0]:.6g}: {exc}",
            last_t[0]) from exc
    if not res.success:
        t_fail = float(res.t[-1]) if res.t.size else 0.0
        raise IntegrationError(
            f"integration stalled at t = {t_fail:.6g}: {res.message}", t_fail)
    states = res.y.T.copy()
    if include_initial:
        times = np.concatenate([[0.0], times])
        states = np.vstack([x0, states])
    return times, states
