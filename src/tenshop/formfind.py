"""Locked-actuator equilibrium search.

Conjugate gradient descent with Polak-Ribiere direction updates (clipped to
keep descent directions) and a bracket/parabolic-interpolation line search.
Each search starts at the step that repeats the previous iteration's
first-order decrease (Nocedal & Wright, Numerical Optimization, 2nd ed.,
eq. 3.60), reuses the energy already known at the current point, and, once
energy differences fall below float resolution, finishes with one secant
step on the directional derivative.  Dynamic relaxation is provided as a
slow cross-check oracle.

Gravity is excluded by default: the free-floating lattice has no gravity
equilibrium, so form-finding minimizes the elastic energy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (DiscretizedSystem, SystemState, elastic_energy,
                    energy_gradient)


class LineSearchError(RuntimeError):
    pass


class UnstableIntegrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class LineSearchConfig:
    bracket_growth: float = 2.0
    max_expansions: int = 60
    max_refinements: int = 20
    alpha_tolerance: float = 1e-12
    width_shrink: float = 1e-3       # stop when bracket narrows by this factor
    energy_tolerance: float = 1e-12

    def __post_init__(self):
        if not self.bracket_growth > 1.0:
            raise ValueError("bracket growth factor must exceed 1")


@dataclass(frozen=True)
class CgConfig:
    gradient_tolerance: float = 1e-3   # max-abs gradient component (N)
    max_iterations: int = 5000
    slope_threshold: float = 1e-4      # epsilon_slope for the direction reset
    line_search: LineSearchConfig = field(default_factory=LineSearchConfig)
    stall_limit: int = 8               # consecutive no-progress iterations

    def __post_init__(self):
        if not (self.gradient_tolerance > 0 and self.slope_threshold > 0):
            raise ValueError("tolerances must be positive")


@dataclass
class Bracket:
    """Three step scalars a0 < a1 < a2 with the middle energy lowest."""
    a0: float
    a1: float
    a2: float
    e0: float
    e1: float
    e2: float

    def valid(self) -> bool:
        return self.a0 < self.a1 < self.a2 and self.e1 < self.e0 and self.e1 < self.e2

    @property
    def width(self) -> float:
        return self.a2 - self.a0


@dataclass
class MinimizeResult:
    x: np.ndarray
    energy: float
    gradient_norm: float
    converged: bool
    iterations: int
    energy_evaluations: int
    gradient_evaluations: int

    def report(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "energy_evaluations": self.energy_evaluations,
            "gradient_evaluations": self.gradient_evaluations,
            "final_gradient_norm": self.gradient_norm,
            "final_energy": self.energy,
        }


def polak_ribiere_beta(g_now: np.ndarray, g_prev: np.ndarray) -> float:
    """Clipped Polak-Ribiere coefficient max(beta, 0)."""
    denom = float(np.dot(g_prev.ravel(), g_prev.ravel()))
    if denom == 0.0:
        raise ZeroDivisionError("previous gradient is zero; restart with steepest descent")
    beta = float(np.dot(g_now.ravel(), (g_now - g_prev).ravel())) / denom
    return max(beta, 0.0)


def conjugate_direction(g_now: np.ndarray, c_prev: np.ndarray, beta: float,
                        slope_threshold: float = 1e-4) -> np.ndarray:
    """New conjugate direction, reset to steepest descent on a bad slope."""
    c = -g_now + beta * c_prev
    slope = float(np.dot(c.ravel(), g_now.ravel()))
    bound = -slope_threshold * np.linalg.norm(c) * np.linalg.norm(g_now)
    if slope > bound:
        return -g_now
    return c


def bracket_minimum(energy_line, initial_step: float,
                    config: LineSearchConfig,
                    e_start: float | None = None) -> Bracket:
    """Bracket a line minimum by geometric expansion from alpha = 0.

    Shrinks the first trial step when it immediately increases the energy;
    raises LineSearchError when no enclosing triple is found.  `e_start`,
    when given, is the known energy at alpha = 0, which is then not
    evaluated.
    """
    if e_start is None:
        e_start = energy_line(0.0)
    t = initial_step
    e_t = energy_line(t)
    shrinks = 0
    e_above = None
    while e_t >= e_start:
        e_above = e_t
        t /= config.bracket_growth
        e_t = energy_line(t)
        shrinks += 1
        if shrinks > config.max_expansions:
            raise LineSearchError(
                "no descent along the search direction (slope may be nonnegative)")
    if e_above is not None:
        return Bracket(0.0, t, t * config.bracket_growth, e_start, e_t, e_above)

    a_prev, e_prev = 0.0, e_start
    a_mid, e_mid = t, e_t
    for _ in range(config.max_expansions):
        a_next = a_mid * config.bracket_growth
        e_next = energy_line(a_next)
        if e_next > e_mid:
            return Bracket(a_prev, a_mid, a_next, e_prev, e_mid, e_next)
        a_prev, e_prev = a_mid, e_mid
        a_mid, e_mid = a_next, e_next
    raise LineSearchError("energy decreases monotonically; no bracket found")


def parabola_vertex(bracket: Bracket) -> float:
    """Minimizer abscissa of the parabola through the bracket points.

    Falls back to bisecting the larger sub-interval when the three points
    are (numerically) collinear.
    """
    a0, a1, a2 = bracket.a0, bracket.a1, bracket.a2
    e0, e1, e2 = bracket.e0, bracket.e1, bracket.e2
    p = (a1 - a0) ** 2 * (e1 - e2) - (a1 - a2) ** 2 * (e1 - e0)
    q = (a1 - a0) * (e1 - e2) - (a1 - a2) * (e1 - e0)
    scale = max(abs(e0), abs(e1), abs(e2), 1.0) * bracket.width
    if abs(q) <= 1e-15 * scale:
        return _bisect_larger(bracket)
    am = a1 - 0.5 * p / q
    if not (a0 < am < a2):
        return _bisect_larger(bracket)
    return am


def _bisect_larger(bracket: Bracket) -> float:
    if bracket.a2 - bracket.a1 > bracket.a1 - bracket.a0:
        return 0.5 * (bracket.a1 + bracket.a2)
    return 0.5 * (bracket.a0 + bracket.a1)


def update_bracket(bracket: Bracket, am: float, em: float) -> Bracket:
    """Narrow the bracket with the probe (am, em).

    Four cases depending on which side of a1 the probe fell and whether its
    energy beats e1; a tie em == e1 counts as an improvement.
    """
    if not bracket.a0 < am < bracket.a2:
        raise ValueError("probe point outside the bracket")
    if am == bracket.a1:
        raise ValueError("probe point coincides with the bracket midpoint")
    if am < bracket.a1:
        if em <= bracket.e1:
            new = Bracket(bracket.a0, am, bracket.a1, bracket.e0, em, bracket.e1)
        else:
            new = Bracket(am, bracket.a1, bracket.a2, em, bracket.e1, bracket.e2)
    else:
        if em <= bracket.e1:
            new = Bracket(bracket.a1, am, bracket.a2, bracket.e1, em, bracket.e2)
        else:
            new = Bracket(bracket.a0, bracket.a1, am, bracket.e0, bracket.e1, em)
    return new


def line_search(energy_line, initial_step: float,
                config: LineSearchConfig | None = None,
                e_start: float | None = None) -> tuple[float, float, int]:
    """Minimize along a ray; returns (alpha, energy, evaluation count).

    `e_start` is the energy at alpha = 0 if the caller already has it.
    """
    config = config or LineSearchConfig()
    evals = 0

    def counted(a):
        nonlocal evals
        evals += 1
        return energy_line(a)

    bracket = bracket_minimum(counted, initial_step, config, e_start)
    width0 = bracket.width
    for _ in range(config.max_refinements):
        am = parabola_vertex(bracket)
        if abs(am - bracket.a1) <= config.alpha_tolerance * max(1.0, abs(bracket.a1)):
            break
        em = counted(am)
        prev_e1 = bracket.e1
        bracket = update_bracket(bracket, am, em)
        if bracket.width < config.width_shrink * width0:
            break
        if abs(prev_e1 - bracket.e1) < config.energy_tolerance:
            break
    return bracket.a1, bracket.e1, evals


def _max_abs(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


def secant_root(t1: float, d0: float, d1: float) -> float:
    """Zero of the line through (0, d0) and (t1, d1), the slopes of a ray at
    steps 0 and t1; 0.0 unless it lies ahead of a descending start."""
    if d1 == d0:
        return 0.0
    t = t1 * d0 / (d0 - d1)
    return t if 0.0 < t < np.inf else 0.0


def minimize_cg(energy, gradient, x0: np.ndarray,
                config: CgConfig | None = None) -> MinimizeResult:
    """Nonlinear CG minimization of a smooth scalar function.

    `energy`/`gradient` act on arrays shaped like x0.  Terminates when the
    max-abs gradient component drops below the tolerance.

    Each line search starts at the step alpha_{k-1} (g_{k-1}.c_{k-1}) /
    (g_k.c_k), which repeats the previous first-order decrease, and at
    1/|c| on the first iteration and after a failed or rejected search.
    The search is handed the energy at the current point.  When a search
    makes no resolvable energy progress, one secant step on the slope
    g(x + t c).c is tried and kept only if it lowers max|g|.
    """
    config = config or CgConfig()
    e_tol = config.line_search.energy_tolerance
    x = np.array(x0, dtype=float)
    n_energy = 0
    n_grad = 0

    def e_of(p):
        nonlocal n_energy
        n_energy += 1
        return float(energy(p))

    def g_of(p):
        nonlocal n_grad
        n_grad += 1
        return gradient(p)

    g = g_of(x)
    e = e_of(x)
    gmax = _max_abs(g)
    c = -g
    decrease = None  # alpha * (g.c) of the last accepted step
    iteration = 0
    stalls = 0
    while iteration < config.max_iterations:
        if gmax <= config.gradient_tolerance:
            return MinimizeResult(x, e, gmax, True, iteration, n_energy, n_grad)
        cnorm = float(np.linalg.norm(c))
        if cnorm == 0.0:
            break
        slope = float(np.vdot(g, c))
        step0 = 1.0 / cnorm if decrease is None else decrease / slope
        try:
            alpha, e_new, _ = line_search(
                lambda a: e_of(x + a * c), step0, config.line_search, e_start=e)
        except LineSearchError:
            decrease = None
            stalls += 1
            if stalls > config.stall_limit:
                break
            c = -g  # retry along steepest descent
            iteration += 1
            continue
        if e_new > e:
            alpha, e_new = 0.0, e
        x_new = x + alpha * c
        g_new = g_of(x_new)
        gmax_new = _max_abs(g_new)
        progress = e - e_new > e_tol * max(1.0, abs(e))
        if not progress:
            # Energy differences are below float resolution here; the
            # slope is not, so aim for its zero along c instead.
            t1 = alpha if alpha > 0.0 else step0
            g1 = g_new if alpha > 0.0 else g_of(x + t1 * c)
            t = secant_root(t1, slope, float(np.vdot(g1, c)))
            if t > 0.0:
                g_t = g_of(x + t * c)
                gmax_t = _max_abs(g_t)
                if gmax_t < gmax_new:
                    alpha, x_new, g_new, gmax_new = t, x + t * c, g_t, gmax_t
                    e_new = e_of(x_new)
                    progress = True
        decrease = alpha * slope if alpha > 0.0 else None
        x, e = x_new, e_new
        if progress:
            stalls = 0
        else:
            stalls += 1
            if stalls > config.stall_limit:
                g, gmax = g_new, gmax_new
                break
        try:
            beta = polak_ribiere_beta(g_new, g)
        except ZeroDivisionError:
            beta = 0.0
        c = conjugate_direction(g_new, c, beta, config.slope_threshold)
        g, gmax = g_new, gmax_new
        iteration += 1

    return MinimizeResult(x, e, gmax, gmax <= config.gradient_tolerance,
                          iteration, n_energy, n_grad)


def cg_minimize(state: SystemState, system: DiscretizedSystem, controls,
                config: CgConfig | None = None,
                gravity: float = 0.0) -> tuple[SystemState, MinimizeResult]:
    """Find the locked-actuator equilibrium from the given state."""
    shape = state.positions.shape

    def energy(flat):
        p = flat.reshape(shape)
        e = elastic_energy(p, system, controls).elastic
        if gravity:
            e += gravity * float(np.sum(system.mass * p[:, 2]))
        return e

    def gradient(flat):
        return energy_gradient(flat.reshape(shape), system, controls,
                               gravity=gravity).ravel()

    result = minimize_cg(energy, gradient, state.positions.ravel(), config)
    eq = SystemState(result.x.reshape(shape), np.zeros(shape))
    return eq, result


def dynamic_relaxation(state: SystemState, system: DiscretizedSystem, controls,
                       damping: float = 0.05, dt: float | None = None,
                       tolerance: float = 1e-4, max_steps: int = 2_000_000,
                       gravity: float = 0.0,
                       divergence_window: int = 2000) -> tuple[SystemState, dict]:
    """Damped-dynamics equilibrium search (the slow oracle).

    Integrates semi-implicit Euler with per-step velocity damping until the
    largest residual force component drops below `tolerance`.
    """
    from .dynamics import stable_dt  # local import to avoid a cycle

    if dt is None:
        dt = stable_dt(system, safety=0.2)
    pos = state.positions.copy()
    vel = np.zeros_like(pos)
    inv_m = 1.0 / system.mass[:, None]

    force_evals = 0
    last_window_res = np.inf
    for step in range(max_steps):
        f = -energy_gradient(pos, system, controls, gravity=gravity)
        force_evals += 1
        res = float(np.max(np.abs(f)))
        if res <= tolerance:
            return (SystemState(pos, np.zeros_like(pos)),
                    {"steps": step, "force_evaluations": force_evals,
                     "residual": res, "converged": True})
        if step and step % divergence_window == 0:
            if not np.isfinite(res) or res > 10.0 * last_window_res:
                raise UnstableIntegrationError(
                    f"dynamic relaxation diverging at step {step} (residual {res:g})")
            last_window_res = min(last_window_res, res)
        vel = (vel + dt * f * inv_m) * (1.0 - damping)
        pos = pos + dt * vel

    return (SystemState(pos, np.zeros_like(pos)),
            {"steps": max_steps, "force_evaluations": force_evals,
             "residual": float(np.max(np.abs(
                 energy_gradient(pos, system, controls, gravity=gravity)))),
             "converged": False})
