"""Line search primitives and conjugate gradient minimization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenshop.formfind import (Bracket, CgConfig, LineSearchConfig,
                              LineSearchError, bracket_minimum, cg_minimize,
                              conjugate_direction, line_search, minimize_cg,
                              parabola_vertex, polak_ribiere_beta,
                              secant_root, update_bracket)
from tenshop.model import controls_from_stretches, initial_state


def quadratic_bracket(a0, a1, a2, vertex, curvature=1.0, offset=0.0):
    def f(a):
        return curvature * (a - vertex) ** 2 + offset
    return Bracket(a0, a1, a2, f(a0), f(a1), f(a2))


def test_parabola_vertex_exact_on_quadratics(rng):
    for _ in range(200):
        a0, a1, a2 = np.sort(rng.uniform(-5.0, 5.0, 3))
        if a2 - a0 < 1e-3 or a1 - a0 < 1e-6 or a2 - a1 < 1e-6:
            continue
        vertex = rng.uniform(a0, a2)
        curvature = rng.uniform(0.1, 10.0)
        br = quadratic_bracket(a0, a1, a2, vertex, curvature,
                               rng.uniform(-3.0, 3.0))
        assert abs(parabola_vertex(br) - vertex) < 1e-10 * max(1.0, abs(vertex))


def test_parabola_vertex_collinear_falls_back_to_bisection():
    br = Bracket(0.0, 1.0, 3.0, 2.0, 2.0, 2.0)
    # Larger sub-interval is [1, 3]; its midpoint is the fallback probe.
    assert parabola_vertex(br) == 2.0


def test_parabola_vertex_stays_inside_bracket():
    # Near-degenerate energies push the raw vertex outside [a0, a2].
    br = Bracket(0.0, 1.0, 2.0, 1.0 + 1e-16, 1.0, 1.0 + 3e-16)
    am = parabola_vertex(br)
    assert br.a0 < am < br.a2


@given(
    a=st.floats(-10.0, 10.0),
    gap1=st.floats(1e-6, 10.0),
    gap2=st.floats(1e-6, 10.0),
    frac=st.floats(1e-6, 1.0 - 1e-6),
    e1=st.floats(-1e6, 1e6),
    rise0=st.floats(1e-9, 1e6),
    rise2=st.floats(1e-9, 1e6),
    em_delta=st.floats(-1e6, 1e6),
)
@settings(max_examples=1_000, deadline=None)
def test_update_bracket_preserves_enclosure(a, gap1, gap2, frac, e1,
                                            rise0, rise2, em_delta):
    br = Bracket(a, a + gap1, a + gap1 + gap2, e1 + rise0, e1, e1 + rise2)
    am = br.a0 + frac * br.width
    if am == br.a1 or not br.a0 < am < br.a2:
        return
    new = update_bracket(br, am, e1 + em_delta)
    assert new.a0 < new.a1 < new.a2
    assert new.e1 <= new.e0 and new.e1 <= new.e2
    assert br.a0 <= new.a0 and new.a2 <= br.a2
    assert new.width < br.width
    assert new.e1 <= br.e1


def test_update_bracket_rejects_bad_probes():
    br = Bracket(0.0, 1.0, 2.0, 3.0, 1.0, 4.0)
    with pytest.raises(ValueError):
        update_bracket(br, 2.5, 0.0)
    with pytest.raises(ValueError):
        update_bracket(br, 1.0, 0.0)


def test_bracket_minimum_encloses_quadratic():
    f = lambda a: (a - 3.7) ** 2
    br = bracket_minimum(f, 0.5, LineSearchConfig())
    assert br.valid()
    assert br.a0 <= 3.7 <= br.a2


def test_bracket_minimum_shrinks_overlong_first_step():
    # First trial lands past the minimum with higher energy; the routine
    # must shrink until it finds a descent point.
    f = lambda a: (a - 0.01) ** 2
    br = bracket_minimum(f, 10.0, LineSearchConfig())
    assert br.valid()
    assert br.a0 <= 0.01 <= br.a2


def test_bracket_minimum_raises_on_ascent():
    with pytest.raises(LineSearchError):
        bracket_minimum(lambda a: a ** 2 + 1.0, 1.0,
                        LineSearchConfig(max_expansions=20))


def test_line_search_finds_quadratic_minimum():
    alpha, energy, evals = line_search(lambda a: 2.0 * (a - 1.25) ** 2 + 7.0,
                                       0.3)
    assert abs(alpha - 1.25) < 1e-6
    assert abs(energy - 7.0) < 1e-10
    assert evals >= 3


def test_polak_ribiere_beta_clips_negative():
    g_prev = np.array([1.0, 0.0])
    g_now = np.array([0.1, 0.0])
    assert polak_ribiere_beta(g_now, g_prev) == 0.0
    with pytest.raises(ZeroDivisionError):
        polak_ribiere_beta(g_now, np.zeros(2))


def test_polak_ribiere_beta_matches_formula(rng):
    g_prev = rng.standard_normal(8)
    g_now = rng.standard_normal(8)
    expected = max(g_now @ (g_now - g_prev) / (g_prev @ g_prev), 0.0)
    np.testing.assert_allclose(polak_ribiere_beta(g_now, g_prev), expected)


def test_conjugate_direction_resets_on_bad_slope():
    g = np.array([1.0, 0.0])
    c_prev = np.array([100.0, 0.0])  # beta * c_prev overwhelms -g: ascent
    c = conjugate_direction(g, c_prev, beta=1.0)
    np.testing.assert_array_equal(c, -g)


def test_line_search_with_known_start_energy_skips_alpha_zero():
    probes = []

    def energy_line(a):
        probes.append(a)
        return 2.0 * (a - 1.25) ** 2 + 7.0

    alpha, energy, evals = line_search(energy_line, 0.3,
                                       e_start=energy_line(0.0))
    assert probes.count(0.0) == 1
    assert evals == len(probes) - 1
    assert abs(alpha - 1.25) < 1e-6
    # the same search from scratch evaluates alpha = 0 itself, once
    probes.clear()
    assert line_search(energy_line, 0.3)[:2] == (alpha, energy)
    assert probes.count(0.0) == 1 and evals == len(probes) - 1


def test_secant_root():
    # slopes of 2 (a - 1.25) at 0 and 0.5: the zero is at 1.25
    assert secant_root(0.5, -2.5, -1.5) == pytest.approx(1.25)
    assert secant_root(0.5, -2.5, -2.5) == 0.0   # no curvature
    assert secant_root(0.5, -2.5, -3.0) == 0.0   # zero lies behind the start


def check_spd_quadratic(rng):
    # 0.5 x'Ax - b'x with SPD A; the oracle is the linear solve.
    n = 12
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    b = rng.standard_normal(n)
    x_star = np.linalg.solve(a, b)

    energy = lambda x: 0.5 * x @ a @ x - b @ x
    gradient = lambda x: a @ x - b
    result = minimize_cg(energy, gradient, np.zeros(n),
                         CgConfig(gradient_tolerance=1e-8))
    assert result.converged
    np.testing.assert_allclose(result.x, x_star, atol=1e-7)
    assert result.energy_evaluations > 0
    assert result.gradient_evaluations > 0


def test_minimize_cg_solves_spd_quadratic(rng):
    check_spd_quadratic(rng)


@pytest.mark.parametrize("seed", range(20))
def test_minimize_cg_solves_spd_quadratic_on_every_seed(seed):
    # At this tolerance energy differences fall below float resolution, so
    # the slope finish has to carry the last iterations.
    check_spd_quadratic(np.random.default_rng(seed))


def test_form_finding_needs_few_energy_probes_per_iteration(system_2x2):
    # The first benchmark tuple.  Searches that start at a 1-m move spend
    # about 16 probes per iteration halving down to the step.
    stretches = np.random.default_rng([0, 0]).uniform(0.2, 0.8, 4)
    _, result = cg_minimize(initial_state(system_2x2), system_2x2,
                            controls_from_stretches(stretches), CgConfig())
    assert result.converged
    assert result.energy_evaluations <= 7 * result.iterations


def test_minimize_cg_rosenbrock():
    energy = lambda x: (1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
    gradient = lambda x: np.array([
        -2.0 * (1 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
        200.0 * (x[1] - x[0] ** 2)])
    result = minimize_cg(energy, gradient, np.array([-1.2, 1.0]),
                         CgConfig(gradient_tolerance=1e-8,
                                  max_iterations=20_000))
    np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-5)


def test_minimize_cg_already_converged():
    result = minimize_cg(lambda x: float(x @ x), lambda x: 2.0 * x,
                         np.zeros(3))
    assert result.converged
    assert result.iterations == 0


def test_config_validation():
    with pytest.raises(ValueError):
        LineSearchConfig(bracket_growth=1.0)
    with pytest.raises(ValueError):
        CgConfig(gradient_tolerance=0.0)
