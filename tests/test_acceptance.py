"""Acceptance gate: seven criteria, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines inline;
without -s they still appear in captured output on failure.  The suite
retrains the stage-1 policy from scratch, so it takes a few minutes.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from croprow.bench import (
    Planner,
    generate_instances,
    run_benchmark,
    scaling_sweep,
)
from croprow.dqn import (
    CurriculumStage,
    QNetwork,
    ReplayBuffer,
    TrainConfig,
    bellman_loss_and_grads,
    evaluate,
    plan_dqn,
    train_stage,
)
from croprow.planners import (
    PlannerId,
    PlanRequest,
    dedup,
    plan_astar,
    plan_heuristic,
)
from croprow.waypoints import FieldGeometry, Phase, compile_route, expand_macro_legs
from croprow.world import (
    Action,
    FieldSpec,
    GoalSpec,
    IllegalActionError,
    RobotState,
    is_goal,
    oracle_shortest,
    sample_goal,
    step,
)
from poses import all_states, sample_pose

SEED = 20260822
HEURISTIC = Planner(PlannerId.HEURISTIC, plan_heuristic)
ASTAR = Planner(PlannerId.GRAPH_ASTAR, plan_astar)

# Stage-1 training configuration for the desk-scale criterion.  The network
# is sized for the 5-row task and the optimizer for a 60k-step budget.  The
# low discount is deliberate: no-op actions (clamped boundary moves, switching
# to the current corridor) trail the best real move by a value gap of roughly
# (1 - gamma) * state value, so gamma near 1 leaves the gap inside the
# network's approximation noise and greedy rollouts stall in place.  At
# gamma = 0.9 the gap is an order of magnitude wider and the stall mode
# disappears; path preferences are unchanged since every step costs the same.
STAGE1_SEED = 7
STAGE1_STEPS = 60_000
STAGE1_CONFIG = TrainConfig(
    gamma=0.90,
    learning_rate=5e-4,
    train_frequency=2,
    buffer_capacity=20_000,
    hidden_sizes=(256, 256),
)


def relu_margin(net: QNetwork, obs: np.ndarray) -> float:
    """Distance of the closest preactivation to a ReLU kink, where finite
    differences stop approximating the (sub)gradient."""
    margin = np.inf
    h = obs
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        z = h @ W + b
        margin = min(margin, float(np.abs(z).min()))
        h = np.maximum(z, 0.0)
    return margin


def report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {verdict} - {detail}", flush=True)
    assert ok, f"acceptance criterion {criterion} failed: {detail}"


@pytest.fixture(scope="session")
def optimality_suite():
    field = FieldSpec(65, 10)
    t0 = time.perf_counter()
    instances = generate_instances(field, 10_000, SEED)
    records = run_benchmark([HEURISTIC, ASTAR], instances)
    oracles = {
        inst.instance_id: oracle_shortest(inst.field, inst.start, inst.goal)
        for inst in instances
    }
    elapsed = time.perf_counter() - t0
    return records, oracles, elapsed


@pytest.fixture(scope="session")
def stage1_net():
    stage = CurriculumStage(
        num_rows=5, steps=STAGE1_STEPS, corridor_len=10
    )
    t0 = time.perf_counter()
    net, _ = train_stage(stage, STAGE1_CONFIG, STAGE1_SEED)
    return net, time.perf_counter() - t0


def test_criterion_1_optimal_on_field_scale_suite(optimality_suite):
    records, oracles, elapsed = optimality_suite
    failures = [r for r in records if not r.success]
    mismatches = [
        r for r in records if r.path_length_units != oracles[r.instance_id]
    ]
    ok = not failures and not mismatches and elapsed < 120.0
    report(
        1,
        ok,
        f"heuristic+astar on 10000 instances (65 rows): "
        f"failures={len(failures)}/20000 plans, "
        f"non-optimal lengths={len(mismatches)}, suite {elapsed:.0f}s (< 120s)",
    )


def test_criterion_2_timing_order(optimality_suite):
    records, _, _ = optimality_suite
    times = {}
    for planner_id in (PlannerId.HEURISTIC, PlannerId.GRAPH_ASTAR):
        times[planner_id] = np.mean(
            [r.planning_time_ns for r in records if r.planner_id == planner_id]
        )
    heuristic_ms = times[PlannerId.HEURISTIC] / 1e6
    astar_ms = times[PlannerId.GRAPH_ASTAR] / 1e6
    ok = heuristic_ms < astar_ms and heuristic_ms < 1.0
    report(
        2,
        ok,
        f"mean planning time heuristic {heuristic_ms:.4f} ms < "
        f"astar {astar_ms:.4f} ms, and < 1 ms",
    )


def test_criterion_3_scaling_shape():
    sizes = [10, 65, 200]
    heuristic = scaling_sweep(
        HEURISTIC, sizes, seed=SEED, instances_per_size=1000, repetitions=3
    )
    astar = scaling_sweep(
        ASTAR, sizes, seed=SEED, instances_per_size=1000, repetitions=3
    )
    h_means = [r.mean_time_ns for r in heuristic]
    a_means = [r.mean_time_ns for r in astar]
    spread = max(h_means) / min(h_means)
    nondecreasing = all(b >= a for a, b in zip(a_means, a_means[1:]))
    ok = spread <= 2.0 and nondecreasing
    report(
        3,
        ok,
        f"heuristic means {[f'{m / 1e3:.1f}us' for m in h_means]} spread "
        f"{spread:.2f}x (<= 2x); astar means "
        f"{[f'{m / 1e3:.1f}us' for m in a_means]} weakly increasing: "
        f"{nondecreasing}",
    )


def test_criterion_3_astar_node_counts_increase():
    """The count behind criterion 3's A* timing: mean nodes expanded on the
    same instances, which a loaded machine cannot move."""
    sizes = [10, 65, 200]
    counts: dict[int, list[int]] = {}

    def counting(request):
        result = plan_astar(request)
        counts.setdefault(request.field.num_rows, []).append(result.nodes_expanded)
        return result

    astar = Planner(PlannerId.GRAPH_ASTAR, counting)
    scaling_sweep(astar, sizes, seed=SEED, instances_per_size=1000, repetitions=1)
    means = [sum(counts[size]) / len(counts[size]) for size in sizes]
    print(f"\nastar mean nodes expanded {[f'{m:.1f}' for m in means]} at rows {sizes}")
    assert all(b >= a for a, b in zip(means, means[1:])), means


def test_criterion_4_stage1_training(stage1_net):
    net, train_time = stage1_net
    t0 = time.perf_counter()
    rate = evaluate(net, FieldSpec(5, 10), episodes=500, seed=1234)
    total = train_time + (time.perf_counter() - t0)
    ok = rate >= 0.90 and total < 900.0
    report(
        4,
        ok,
        f"stage-1 policy ({STAGE1_STEPS} steps, seed {STAGE1_SEED}): "
        f"held-out greedy success {rate:.1%} (>= 90%), "
        f"train+eval {total:.0f}s (< 900s)",
    )


def test_criterion_5_dqn_slower_than_astar(stage1_net):
    net, _ = stage1_net
    dqn = Planner(PlannerId.DQN, lambda request: plan_dqn(request, net))
    instances = generate_instances(FieldSpec(5, 10), 200, SEED + 1)
    records = run_benchmark([ASTAR, dqn], instances, repetitions=3)
    means = {}
    for planner_id in (PlannerId.GRAPH_ASTAR, PlannerId.DQN):
        means[planner_id] = np.mean(
            [r.planning_time_ns for r in records if r.planner_id == planner_id]
        )
    ok = means[PlannerId.DQN] > means[PlannerId.GRAPH_ASTAR]
    report(
        5,
        ok,
        f"mean planning time dqn {means[PlannerId.DQN] / 1e3:.1f}us > "
        f"astar {means[PlannerId.GRAPH_ASTAR] / 1e3:.1f}us on matched instances",
    )


def test_criterion_6_property_suites():
    # exhaustive optimality on every start x goal of nine small fields
    checked = 0
    for num_rows in (2, 3, 4):
        for corridor_len in (1, 2, 3):
            field = FieldSpec(num_rows, corridor_len)
            for start in all_states(field):
                for row in range(field.num_rows):
                    for goal_y in range(field.corridor_len):
                        goal = GoalSpec(row, goal_y)
                        optimal = (
                            0.0
                            if is_goal(field, start, goal)
                            else oracle_shortest(field, start, goal)
                        )
                        request = PlanRequest(field, start, goal)
                        for planner in (plan_heuristic, plan_astar):
                            assert planner(request).path_length == optimal
                        checked += 1

    # reward accounting identity over 100k random legal steps
    rng = np.random.default_rng(SEED)
    fields = [FieldSpec(int(r), int(c)) for r, c in rng.integers(2, 9, (20, 2))]
    identity_steps = 0
    while identity_steps < 100_000:
        field = fields[rng.integers(len(fields))]
        state = sample_pose(field, rng)
        goal = sample_goal(field, rng)
        action = Action(int(rng.integers(2)), int(rng.integers(field.num_rows + 1)))
        prev = int(rng.integers(-1, 2))
        try:
            out = step(state, action, field, goal, prev_displacement=prev)
        except IllegalActionError:
            continue
        parts = out.reward_parts
        total = (
            parts.step_penalty
            + parts.switch_penalty
            + parts.turn_penalty
            + parts.oscillation_penalty
            + parts.goal_reward
            + parts.closer_corridor_bonus
        )
        assert out.reward == parts.total() == total
        assert out.done == is_goal(field, out.next_state, goal)
        identity_steps += 1

    # gradient check on 20 random small networks
    grad_nets = 0
    net_seed = 0
    while grad_nets < 20:
        net_seed += 1
        net = QNetwork(6, (8, 8), rng=np.random.default_rng(net_seed), dtype=np.float64)
        obs = rng.uniform(0.0, 1.0, (4, 5))
        if relu_margin(net, obs) < 1e-4:
            continue
        actions = rng.integers(0, 6, 4)
        targets = rng.normal(0.0, 3.0, 4)
        _, dW, db = bellman_loss_and_grads(net, obs, actions, targets)
        h = 1e-6
        worst = 0.0
        for p, g in zip([*net.weights, *net.biases], [*dW, *db]):
            for idx in np.ndindex(p.shape):
                orig = p[idx]
                p[idx] = orig + h
                q = net.forward(obs)
                up = float(np.mean((q[np.arange(4), actions] - targets) ** 2))
                p[idx] = orig - h
                q = net.forward(obs)
                down = float(np.mean((q[np.arange(4), actions] - targets) ** 2))
                p[idx] = orig
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(g[idx]), 1e-8)
                worst = max(worst, abs(fd - g[idx]) / denom)
        assert worst <= 1e-4
        grad_nets += 1

    # replay-buffer eviction and target-sync invariants under random stress
    for trial in range(30):
        trial_rng = np.random.default_rng(1000 + trial)
        capacity = int(trial_rng.integers(4, 50))
        extra = int(trial_rng.integers(1, 60))
        buffer = ReplayBuffer(capacity, num_actions=6)
        total = capacity + extra
        for k in range(total):
            buffer.push(
                np.full(5, float(k), dtype=np.float32),
                int(trial_rng.integers(6)),
                float(k),
                np.zeros(5, dtype=np.float32),
                False,
                np.ones(6, dtype=bool),
            )
        assert len(buffer) == capacity
        kept = set(buffer.rewards[: len(buffer)].tolist())
        assert kept == set(float(k) for k in range(extra, total))

        online = QNetwork(6, (8, 8), rng=trial_rng, dtype=np.float64)
        target = online.copy()
        for w in online.weights:
            w += trial_rng.normal(0.0, 0.1, w.shape)
        target.load_from(online)
        for wo, wt in zip(online.weights, target.weights):
            assert np.array_equal(wo, wt)
        assert all(
            wo is not wt for wo, wt in zip(online.weights, target.weights)
        )

    report(
        6,
        True,
        f"exhaustive small-field optimality ({checked} instances), reward "
        f"identity on {identity_steps} steps, {grad_nets} gradient checks, "
        "30 buffer/sync stress trials",
    )


def test_criterion_7_deployment_format():
    field = FieldSpec(10, 10)
    start = RobotState(0.5, 3, 0)
    goal = GoalSpec(6, 4)
    macros = (Action(0, 0), Action(1, 7), Action(1, 0))
    raw = expand_macro_legs(field, start, macros, goal=goal)[0]
    deduped = dedup(raw)
    printed = [[a.orientation, a.move] for a in deduped]
    round_trip_ok = printed == [[0, 0], [1, 7], [1, 0]]

    path = compile_route(
        macros, start, field, FieldGeometry(0.76, 20.0), goal=goal
    )
    phase_order = list(dict.fromkeys(p.phase for p in path.points))
    phases_ok = phase_order == [Phase.EXIT, Phase.SWITCH, Phase.ENTER]
    ok = round_trip_ok and phases_ok
    report(
        7,
        ok,
        f"dedup(unit expansion) == {printed}; compiled phases "
        f"{[p.value for p in phase_order]} (three-phase)",
    )
