import math

import numpy as np
import pytest
from scipy.optimize import minimize

from coplan import _qp
from coplan._qp import CutSet, maximize_cut_model, project_capped


def model_value(offsets, grads, center, rho, x):
    return float(np.min(offsets + grads @ x) - 0.5 * rho * np.sum((x - center) ** 2))


def assert_certified(offsets, grads, center, rho, cap, x, val):
    """x is feasible and ``val`` is its dual certificate: an upper bound on
    the model's maximum that meets the model value at x up to rounding."""
    assert np.all(x >= 0.0)
    if cap < math.inf:
        assert x.sum() <= cap + 1e-7
    scale = 1.0 + np.abs(offsets).max() + np.abs(grads @ x).max()
    gap = val - model_value(offsets, grads, center, rho, x)
    assert -1e-12 * scale <= gap <= 1e-9 * scale


def slsqp_best(offsets, grads, center, rho, cap, rng, starts=4):
    """Best of a few SLSQP runs on the model from perturbed feasible starts."""
    n = center.size

    def neg(xt):
        return -model_value(offsets, grads, center, rho, xt)

    cons = [] if cap == math.inf else [{"type": "ineq", "fun": lambda xt: cap - xt.sum()}]
    best = -np.inf
    for _ in range(starts):
        x0 = project_capped(center + rng.normal(scale=3.0, size=n), cap)
        res = minimize(neg, x0, bounds=[(0, None)] * n, constraints=cons, method="SLSQP",
                       options={"maxiter": 300, "ftol": 1e-12})
        best = max(best, -res.fun)
    return best


def test_single_cut_closed_form():
    offsets = np.array([3.0])
    grads = np.array([[2.0, -1.0]])
    center = np.array([1.0, 0.3])
    rho = 2.0
    x, val = maximize_cut_model(CutSet(offsets, grads), center, rho, math.inf)
    expected = np.maximum(center + grads[0] / rho, 0.0)
    assert np.allclose(x, expected, atol=1e-9)
    assert val == pytest.approx(model_value(offsets, grads, center, rho, expected), abs=1e-9)


def test_projection_capped_matches_bruteforce():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        x = rng.normal(scale=10, size=n)
        cap = float(rng.uniform(0, 15))
        y = project_capped(x, cap)
        assert np.all(y >= -1e-12)
        assert y.sum() <= cap + 1e-9
        # KKT spot check against a fine candidate set
        grid = [project_capped(x + rng.normal(scale=0.1, size=n), cap) for _ in range(30)]
        dist = np.sum((y - x) ** 2)
        assert all(np.sum((g - x) ** 2) >= dist - 1e-9 for g in grid)


def test_matches_dense_grid_in_2d():
    rng = np.random.default_rng(17)
    for _ in range(25):
        K = int(rng.integers(1, 8))
        offsets = rng.normal(scale=50, size=K)
        grads = rng.normal(scale=rng.choice([1, 10, 100]), size=(K, 2))
        center = rng.uniform(-5, 30, size=2)
        rho = float(rng.choice([0.5, 1.0, 4.0]))
        cap = float(rng.uniform(5, 40)) if rng.random() < 0.5 else math.inf
        x, val = maximize_cut_model(CutSet(offsets, grads), center, rho, total_cap=cap)
        # feasibility
        assert np.all(x >= -1e-9)
        if cap < math.inf:
            assert x.sum() <= cap + 1e-8
        # dominance over a dense feasible grid
        pts = np.stack(np.meshgrid(np.linspace(0, 40, 161), np.linspace(0, 40, 161)), axis=-1).reshape(-1, 2)
        if cap < math.inf:
            pts = pts[pts.sum(axis=1) <= cap]
        grid_vals = np.min(offsets[None, :] + pts @ grads.T, axis=1) - 0.5 * rho * np.sum((pts - center) ** 2, axis=1)
        assert val >= grid_vals.max() - 1e-6
        assert val == pytest.approx(model_value(offsets, grads, center, rho, x), abs=1e-8)


def test_matches_slsqp_in_higher_dims():
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        K = int(rng.integers(1, 12))
        offsets = rng.normal(scale=100, size=K)
        grads = rng.normal(scale=20, size=(K, n))
        center = rng.uniform(-2, 25, size=n)
        rho = float(rng.choice([0.5, 1.0, 2.0]))
        cap = float(rng.uniform(10, 60)) if rng.random() < 0.5 else math.inf
        x, val = maximize_cut_model(CutSet(offsets, grads), center, rho, total_cap=cap)
        assert_certified(offsets, grads, center, rho, cap, x, val)
        best = slsqp_best(offsets, grads, center, rho, cap, rng)
        assert val >= best - 1e-5 * (1 + abs(best))


# Consensus calls on which a primal active-set master cycled until its
# iteration budget ran out: a steep lost-sales cut beside a flat one under a
# binding cap, and a call of a 10-node run (size sweep, draw 10).
CAPTURED_CALLS = [
    ([-32010.000000000004, 659.9999999999997],
     [[991.0, 990.0, 996.0], [1.0, -0.0, 6.0]],
     [30.44140625000026, 14.749999999999972, 30.44140625000004], 33.0),
    ([-498417.99999999994, 10268.0, 10510.0],
     [[994.0, 996.0, 993.0, 994.0, 995.0, 997.0, 994.0, 994.0, 994.0, 994.0],
      [1.0, -0.0, -0.0, 1.0, 2.0, 4.0, 1.0, 1.0, 1.0, 1.0],
      [-0.0, 2.0, -0.0, -0.0, 1.0, 3.0, -0.0, -0.0, -0.0, -0.0]],
     [44.78040816327277, 109.1113911328437, 15.953670634920687, 81.28040816327197,
      120.97990551775037, 16.728873771710916, 213.7804081632719, 50.079349962216696,
      9.951851851851673, 15.953670634922506], 512.0),
]


@pytest.mark.parametrize("offsets, grads, center, cap", CAPTURED_CALLS)
def test_badly_scaled_consensus_calls(offsets, grads, center, cap):
    offsets, grads, center = np.array(offsets), np.array(grads), np.array(center)
    x, val = maximize_cut_model(CutSet(offsets, grads), center, 1.0, total_cap=cap)
    assert_certified(offsets, grads, center, 1.0, cap, x, val)
    best = slsqp_best(offsets, grads, center, 1.0, cap, np.random.default_rng(4))
    assert val >= best - 1e-7 * (1 + abs(best))


def test_duplicate_cuts_are_harmless():
    offsets = np.array([10.0, 10.0, 4.0])
    grads = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    center = np.array([2.0, 2.0])
    x, val = maximize_cut_model(CutSet(offsets, grads), center, rho=1.0, total_cap=math.inf)
    pts = np.stack(np.meshgrid(np.linspace(0, 15, 301), np.linspace(0, 15, 301)), axis=-1).reshape(-1, 2)
    grid_vals = np.min(offsets[None, :] + pts @ grads.T, axis=1) - 0.5 * np.sum((pts - center) ** 2, axis=1)
    assert val >= grid_vals.max() - 1e-6


def test_degenerate_duplicate_cut_instance_terminates():
    # regression: this instance (note the duplicated first cut) once cycled
    # forever between adding and dropping the same blocking cut at a
    # degenerate vertex
    offsets = np.array([
        755.1090181487456, 755.1090181487456, -100.26889753165128,
        -284.6162398823422, 1060.934515223903, -1273.2015683217269,
        -351.05628593356107, -163.15009390521004, -750.9319846504362,
        -895.6771727539115, 692.299572973558, -840.8590637912631,
        -683.6341015800441])
    grads = np.array([
        [-282.53809559418426, 43.46055609355971, 54.989312941648826, -1212.3081923570514, -654.9563966070125],
        [-282.53809559418426, 43.46055609355971, 54.989312941648826, -1212.3081923570514, -654.9563966070125],
        [170.12404777818125, 410.0461818323216, 1066.2751841637123, 405.4210471506956, 426.5051816972281],
        [1202.8375416371666, 709.3264232403966, 279.35302294747424, 516.107833768628, 279.1983294117041],
        [90.54338119837846, -509.0167620868733, 812.8179683791476, -205.85235189083178, 164.81681021049337],
        [344.89205279373783, 47.98387737219847, 28.837739646655322, -1097.0416632098095, 502.79297224992195],
        [-225.79942579452126, -692.3010019872064, 312.43015313213914, 207.84705310283513, -393.08837877328637],
        [241.39009626519146, 15.246126746865613, -834.222382539662, -93.60027970117713, -1061.8846826698627],
        [406.2491966527714, -11.420995807194856, 890.009651143006, -226.49651236005408, -507.9090978290084],
        [-361.121083722247, 139.333296552477, 827.7994554033996, 500.2498771900735, -173.45745424484306],
        [-199.97504171998742, 385.9639728885405, 213.6359069188242, -173.25259914925707, -547.9610667239937],
        [-1036.8769674468988, -121.67932563799381, -169.81305290005685, -150.03467864981394, 549.4712204390456],
        [-297.3048375051137, 785.4298985163945, -763.6031722372509, -290.53376427731524, 1055.9597910298976]])
    center = np.array([13.756250993802603, -0.7165014904415976, 21.903496600516277,
                       25.259538065268366, 18.221426579466872])
    cap = 18.461898608734856
    x, _ = maximize_cut_model(CutSet(offsets, grads), center, rho=0.2, total_cap=cap)
    assert np.all(x >= -1e-8)
    assert x.sum() <= cap + 1e-7


def random_instance(rng):
    n = int(rng.integers(1, 7))
    K = int(rng.integers(1, 14))
    scale = float(rng.choice([1.0, 1000.0]))
    offsets = rng.normal(scale=scale, size=K)
    grads = rng.normal(scale=scale / 2, size=(K, n))
    if K > 1 and rng.random() < 0.4:
        grads[1] = grads[0]
        offsets[1] = offsets[0]
    center = rng.uniform(-10, 50, size=n)
    cap = float(rng.uniform(1, 80)) if rng.random() < 0.5 else math.inf
    return offsets, grads, center, float(rng.choice([0.2, 5.0])), cap


def nearly_parallel_instance(rng):
    """A retailer's bundle at 10 nodes: steep lost-sales cuts (offsets near
    -5.9e5, slopes near 1e3 that differ by at most 5 per coordinate) beside a
    few flat ones, at rho down to 1/256."""
    n = int(rng.integers(2, 11))
    steep, flat = int(rng.integers(1, 6)), int(rng.integers(0, 3))
    base = rng.integers(990, 999, size=n)
    grads = np.vstack([base + rng.integers(0, 6, size=(steep, n)),
                       rng.integers(0, 8, size=(flat, n))]).astype(float)
    offsets = np.concatenate([-5.9e5 + rng.integers(-1000, 1000, size=steep),
                              rng.integers(5000, 15000, size=flat)]).astype(float)
    center = rng.uniform(0.0, 250.0, size=n)
    rho = float(rng.choice([1 / 256, 1 / 16, 0.25, 1.0, 4.0]))
    cap = float(rng.integers(100, 600)) if rng.random() < 0.8 else math.inf
    return offsets, grads, center, rho, cap


def test_master_never_stalls_on_adversarial_instances():
    for draw, seed in ((random_instance, 321), (nearly_parallel_instance, 11)):
        rng = np.random.default_rng(seed)
        for _ in range(400):
            offsets, grads, center, rho, cap = draw(rng)
            x, val = maximize_cut_model(CutSet(offsets, grads), center, rho, total_cap=cap)
            assert_certified(offsets, grads, center, rho, cap, x, val)


def test_cut_set_keeps_the_first_of_identical_cuts_in_order():
    cuts = CutSet([1.0, 2.0, 1.0, -0.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    cuts.add(0.0, np.array([0.5, 0.5]))      # equal to the -0.0 row
    cuts.add(2.0, [0.0, 1.5])
    assert len(cuts) == 4
    offsets, grads = cuts.offsets, cuts.grads
    assert offsets.tolist() == [1.0, 2.0, -0.0, 2.0]
    assert np.signbit(offsets[2])
    assert grads.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.0, 1.5]]
    cuts.keep_last(2)
    cuts.add(1.0, [1.0, 0.0])                # dropped, so it comes back
    offsets, grads = cuts.offsets, cuts.grads
    assert offsets.tolist() == [-0.0, 2.0, 1.0]
    assert grads.tolist() == [[0.5, 0.5], [0.0, 1.5], [1.0, 0.0]]


@pytest.fixture
def warm_starts(monkeypatch):
    """Each master call's warm start, as True (taken: every multiplier of the
    last free set's optimum positive) or False (tried and left for a cold
    start); a call that tries none records nothing."""
    seen = []
    free_optimum = _qp._free_optimum

    def spy(cols, q_free, center, rho, kkt=None):
        step = free_optimum(cols, q_free, center, rho, kkt)
        if kkt is not None:  # only the warm start passes the kept KKT matrix
            seen.append(step is not None and step[1].min() > 0.0)
        return step
    monkeypatch.setattr(_qp, "_free_optimum", spy)
    return seen


def cold_call(cuts, center, rho, cap):
    return maximize_cut_model(CutSet(cuts.offsets, cuts.grads), center, rho, total_cap=cap)


def test_warm_started_calls_answer_as_cold_ones_within_the_certificate(warm_starts):
    # consensus-like sequences over one cut set: small moves of the center,
    # now and then a jump, a penalty halved or doubled, a new cut
    rng = np.random.default_rng(83)
    calls = 0
    for draw in (random_instance, nearly_parallel_instance) * 20:
        offsets, grads, center, rho, cap = draw(rng)
        cuts = CutSet(offsets, grads)
        for _ in range(15):
            roll = rng.random()
            if roll < 0.1:
                center = center + rng.normal(scale=20.0, size=center.size)
            elif roll < 0.2:
                rho *= float(rng.choice([0.5, 2.0]))
            elif roll < 0.3:
                cuts.add(float(rng.normal(scale=100.0)), rng.normal(scale=50.0, size=center.size))
            else:
                center = center + rng.normal(scale=0.01, size=center.size)
            x, val = maximize_cut_model(cuts, center, rho, total_cap=cap)
            assert_certified(cuts.offsets, cuts.grads, center, rho, cap, x, val)
            _, cold = cold_call(cuts, center, rho, cap)
            scale = 1.0 + np.abs(cuts.offsets).max() + np.abs(cuts.grads @ x).max()
            assert abs(val - cold) <= 1e-9 * scale
            calls += 1
    assert sum(warm_starts) > 0.5 * calls


def test_a_dropped_free_cut_starts_cold(warm_starts):
    # the flat cut is the model at the center; once keep_last drops it, the
    # free set it kept is gone and the next call starts cold
    cuts = CutSet([5.0, 50.0], [[0.0, 0.0], [1.0, 1.0]])
    center = np.array([2.0, 3.0])
    x, _ = maximize_cut_model(cuts, center, 1.0, math.inf)
    assert x.tolist() == center.tolist()
    cuts.add(60.0, [-1.0, 2.0])
    cuts.keep_last(2)
    x, val = maximize_cut_model(cuts, center, 1.0, math.inf)
    assert warm_starts == []
    cold_x, cold_val = cold_call(cuts, center, 1.0, math.inf)
    assert (x.tolist(), val) == (cold_x.tolist(), cold_val)
    assert_certified(cuts.offsets, cuts.grads, center, 1.0, math.inf, x, val)
    # the cuts still held keep their place in the free set
    maximize_cut_model(cuts, center + 0.01, 1.0, math.inf)
    assert warm_starts == [True]


def test_a_penalty_change_that_empties_a_bound_multiplier_starts_cold(warm_starts):
    # at rho = 2 the bound x >= 0 binds with multiplier -(rho * center + g) = 1;
    # at rho = 0.5 that multiplier would be -0.5, so the call starts cold
    cuts = CutSet([3.0], [[1.0]])
    center = np.array([-1.0])
    x, _ = maximize_cut_model(cuts, center, 2.0, math.inf)
    assert x.tolist() == [0.0]
    x, val = maximize_cut_model(cuts, center, 0.5, math.inf)
    assert warm_starts == [False]
    assert x.tolist() == [1.0]
    cold_x, cold_val = cold_call(cuts, center, 0.5, math.inf)
    assert (x.tolist(), val) == (cold_x.tolist(), cold_val)


def test_penalty_changes_fall_back_cold_and_certify(warm_starts):
    # rho halved or doubled, as adapt_rho does: a free set whose optimum turns
    # a multiplier nonpositive is left, and the call is the cold call
    rng = np.random.default_rng(89)
    fallbacks = 0
    for _ in range(200):
        offsets, grads, center, rho, cap = nearly_parallel_instance(rng)
        cuts = CutSet(offsets, grads)
        maximize_cut_model(cuts, center, rho, total_cap=cap)
        rho *= float(rng.choice([0.5, 2.0]))
        del warm_starts[:]
        x, val = maximize_cut_model(cuts, center, rho, total_cap=cap)
        assert_certified(cuts.offsets, cuts.grads, center, rho, cap, x, val)
        if warm_starts == [False]:
            fallbacks += 1
            cold_x, cold_val = cold_call(cuts, center, rho, cap)
            assert (x.tolist(), val) == (cold_x.tolist(), cold_val)
    assert fallbacks >= 10


def test_a_free_set_of_bounds_only_starts_cold(warm_starts):
    # a free set without a cut column has no simplex row to meet: cold
    cuts = CutSet([4.0, 7.0], [[1.0, -2.0], [-1.0, 0.5]])
    center = np.array([0.5, -0.25])
    cuts._remember([2, 3])  # the two bound columns follow the two cuts
    x, val = maximize_cut_model(cuts, center, 1.5, total_cap=3.0)
    assert warm_starts == []
    cold_x, cold_val = cold_call(cuts, center, 1.5, 3.0)
    assert (x.tolist(), val) == (cold_x.tolist(), cold_val)
    assert_certified(cuts.offsets, cuts.grads, center, 1.5, 3.0, x, val)


def with_free_set_of(cuts):
    """A fresh :class:`CutSet` of the same cuts that remembers the same free
    set, so that it builds that set's KKT matrix anew on its next call."""
    fresh = CutSet(cuts.offsets, cuts.grads)
    K, first = len(cuts), cuts._next_id - len(cuts)
    free = [key - first if key >= 0 else K - 1 - key for key in cuts._free]
    if free and min(free) >= 0:  # else a free cut is gone and both start cold
        fresh._remember(free)
    return fresh


def test_a_kept_kkt_matrix_answers_as_one_built_anew(warm_starts):
    # the penalty changes, the free set changes and keep_last drops cuts
    # around a free set that survives; each call gives the bits of a call
    # that builds its KKT matrix from scratch
    rng = np.random.default_rng(101)
    events = {"rho": 0, "free set": 0, "keep_last": 0}
    for draw in (random_instance, nearly_parallel_instance) * 20:
        offsets, grads, center, rho, cap = draw(rng)
        cuts = CutSet(offsets, grads)
        maximize_cut_model(cuts, center, rho, total_cap=cap)
        for _ in range(15):
            roll = rng.random()
            if roll < 0.2:
                rho *= float(rng.choice([0.5, 2.0]))
                events["rho"] += 1
            elif roll < 0.45:
                for _ in range(3):
                    cuts.add(float(rng.normal(scale=100.0)),
                             rng.normal(scale=50.0, size=center.size))
                had_kkt = cuts._free_kkt[0] is not None
                cuts.keep_last(len(cuts) - 1)
                first = cuts._next_id - len(cuts)
                events["keep_last"] += had_kkt and all(k >= first for k in cuts._free if k >= 0)
            center = center + rng.normal(scale=float(rng.choice([0.01, 5.0])), size=center.size)
            fresh = with_free_set_of(cuts)
            free_before = cuts._free
            x, val = maximize_cut_model(cuts, center, rho, total_cap=cap)
            want_x, want_val = maximize_cut_model(fresh, center, rho, total_cap=cap)
            assert (x.tobytes(), val) == (want_x.tobytes(), want_val)
            events["free set"] += cuts._free != free_before
    assert min(events.values()) >= 20, events
    assert sum(warm_starts) > 100


# Calls on which a bound column looked violated only through rounding in x:
# the free set's optimum with it gave it no weight, and the step taken
# instead left the dual's simplex, so the master answered a wrong plan with
# a value below the model's maximum.  The first is a call of the `wire`
# benchmark round (seed 101, item 37), warm-started on the free set {cut 0}:
# it answered (36, 0), worth 720, with the bound 744.75, where (58, 0) is
# worth 962.  The others start cold.
ROUNDING_CALLS = [
    ([0.0, 280.0000000000002], [[22.0, 12.0], [18.0, 12.0]], [35.99999999999983, -12.0],
     1.0, 85.0, [0]),
    ([-3.0], [[-3.0, 1.0]], [-2.0, -2.0], 0.5, 1.0, []),
    ([4.0], [[2.0, 1.0]], [2.0, 3.0], 1.0, 0.0, []),
    ([5.0, 1.0, 3.0], [[-3.0, -1.0, 3.0], [3.0, 3.0, 1.0], [3.0, 2.0, -1.0]],
     [0.0, 2.0, -1.0], 3.0, math.inf, []),
    ([3.0, -4.0, -2.0, -2.0], [[-1.0, 3.0], [2.0, 3.0], [1.0, 2.0], [2.0, 1.0]],
     [0.0, 3.0], 1.0, 2.0, []),
]


@pytest.mark.parametrize("offsets, grads, center, rho, cap, free", ROUNDING_CALLS,
                         ids=["wire-item-37", "one-cut", "zero-cap", "three-cuts", "four-cuts"])
def test_a_bound_violated_only_by_rounding_keeps_the_certificate(offsets, grads, center, rho,
                                                                 cap, free):
    offsets, grads, center = np.array(offsets), np.array(grads), np.array(center)
    cuts = CutSet(offsets, grads)
    cuts._remember(free)
    x, val = maximize_cut_model(cuts, center, rho, total_cap=cap)
    assert_certified(offsets, grads, center, rho, cap, x, val)
    best = slsqp_best(offsets, grads, center, rho, cap, np.random.default_rng(4))
    assert val >= best - 1e-7 * (1 + abs(best))


def test_certificates_hold_on_small_integer_instances():
    # small integer data make exactly zero multipliers and exactly dependent
    # columns common; about 2 calls in 1000 of these met the rounding fault
    rng = np.random.default_rng(7)
    for _ in range(3000):
        n, K = int(rng.integers(1, 4)), int(rng.integers(1, 7))
        grads = rng.integers(-3, 4, size=(K, n)).astype(float)
        offsets = rng.integers(-5, 6, size=K).astype(float)
        cap = math.inf if rng.random() < 0.5 else float(rng.integers(0, 6))
        center = rng.integers(-4, 6, size=n).astype(float)
        rho = float(rng.choice([1.0, 3.0, 0.5, 2.0]))
        cuts = CutSet(offsets, grads)
        x, val = maximize_cut_model(cuts, center, rho, total_cap=cap)
        assert_certified(cuts.offsets, cuts.grads, center, rho, cap, x, val)


def test_a_singular_free_set_still_answers_with_a_sound_bound():
    # cuts with slopes of 1e8 under a zero cap at rho = 1e-6: the master's
    # last free set has a singular KKT system, and the loop ends on it
    offsets = np.array([0.4, -0.2, -0.4, 0.4, 0.2, -0.4, 0.30000000000000004])
    grads = 1e8 * np.array([[1.0, 1.0, 0.0], [0.0, 0.0, -1.0], [-1.0, 0.0, -1.0],
                            [-1.0, 1.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                            [1.0, -1.0, -1.0]])
    center, rho = np.array([2.0, 0.0, 0.0]), 1e-6
    cuts = CutSet(offsets, grads)
    x, val = maximize_cut_model(cuts, center, rho, total_cap=0.0)
    free, cols, kkt = cuts._last_free(rho)
    assert _qp._free_optimum(cols, cuts._q[free], center, rho, kkt) is None
    # the cap leaves x = 0 alone feasible, worth min(offsets) - rho/2 |center|^2
    assert np.array_equal(x, np.zeros(3))
    assert val >= model_value(offsets, grads, center, rho, x)
