"""Value-network tests.

The backward pass is checked against central finite differences computed
here from the forward pass alone, so the analytic gradients never validate
themselves.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from croprow.bench import generate_instances
from croprow.dqn import (
    Adam,
    CurriculumStage,
    QNetwork,
    ReplayBuffer,
    TrainConfig,
    action_space_size,
    action_to_index,
    bellman_loss_and_grads,
    clip_gradients,
    curriculum_stages,
    epsilon_at,
    evaluate,
    index_to_action,
    load_checkpoint,
    plan_dqn,
    save_checkpoint,
    select_action,
    td_targets,
    train_stage,
    train_step,
    valid_action_mask,
)
from croprow.planners import PlanRequest
from croprow.world import DOWN, UP, Action, FieldSpec, RobotState, GoalSpec, simulate


def toy_net(seed: int, output_dim: int = 8, dtype=np.float64) -> QNetwork:
    return QNetwork(
        output_dim,
        hidden_sizes=(4, 4),
        rng=np.random.default_rng(seed),
        dtype=dtype,
    )


def td_loss(net: QNetwork, obs, actions, targets, huber_delta=None) -> float:
    q = net.forward(obs)
    err = q[np.arange(len(actions)), actions] - targets
    if huber_delta is None:
        return float(np.mean(err**2))
    abs_err = np.abs(err)
    per_sample = np.where(
        abs_err <= huber_delta,
        0.5 * err**2,
        huber_delta * (abs_err - 0.5 * huber_delta),
    )
    return float(np.mean(per_sample))


class TestActionCoding:
    def test_round_trip(self):
        max_rows = 65
        assert action_space_size(max_rows) == 132
        for idx in range(action_space_size(max_rows)):
            assert action_to_index(index_to_action(idx, max_rows), max_rows) == idx

    def test_layout(self):
        assert index_to_action(0, 65) == Action(UP, 0)
        assert index_to_action(66, 65) == Action(DOWN, 0)
        assert index_to_action(67, 65) == Action(DOWN, 1)


class TestMask:
    field = FieldSpec(5, 10)

    def test_interior_masks_switches(self):
        mask = valid_action_mask(self.field, RobotState(0.5, 3, UP), 65)
        on = {index_to_action(i, 65) for i in np.flatnonzero(mask)}
        assert on == {Action(0, 0), Action(0, 1), Action(1, 0), Action(1, 1)}

    def test_headland_unmasks_field_switches_only(self):
        mask = valid_action_mask(self.field, RobotState(0.5, -1, UP), 65)
        moves = {a.move for a in (index_to_action(i, 65) for i in np.flatnonzero(mask))}
        # switches up to this field's width; the padded tail stays masked
        assert moves == {0, 1, 2, 3, 4, 5}

    def test_mask_at_native_width(self):
        mask = valid_action_mask(self.field, RobotState(0.5, 10, DOWN), 5)
        assert mask.all()


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


class TestGradients:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(99)
        checked = 0
        seed = 1000
        while checked < 20:
            seed += 1
            net = toy_net(seed=seed)
            batch = 6
            obs = rng.uniform(0.0, 1.0, size=(batch, 5))
            if relu_margin(net, obs) < 1e-4:
                continue  # FD is invalid at a kink; draw another instance
            checked += 1
            actions = rng.integers(0, net.output_dim, size=batch)
            targets = rng.normal(0.0, 5.0, size=batch)
            _, dW, db = bellman_loss_and_grads(net, obs, actions, targets)
            analytic = [*dW, *db]
            params = [*net.weights, *net.biases]
            h = 1e-6
            for p, g in zip(params, analytic):
                for idx in np.ndindex(p.shape):
                    orig = p[idx]
                    p[idx] = orig + h
                    up = td_loss(net, obs, actions, targets)
                    p[idx] = orig - h
                    down = td_loss(net, obs, actions, targets)
                    p[idx] = orig
                    fd = (up - down) / (2 * h)
                    denom = max(abs(fd), abs(g[idx]), 1e-8)
                    assert abs(fd - g[idx]) / denom <= 1e-4

    def test_huber_frozen_values(self):
        net = toy_net(seed=1, dtype=np.float64)
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
        net.biases[-1][:4] = [1.0, 5.0, 3.0, 0.0]
        obs = np.zeros((2, 5))
        actions = np.array([0, 1])
        targets = np.array([0.5, 7.0])  # errors 0.5 (quadratic) and -2 (linear)
        loss, dW, db = bellman_loss_and_grads(
            net, obs, actions, targets, huber_delta=1.0
        )
        assert loss == pytest.approx((0.5 * 0.25 + 1.0 * (2.0 - 0.5)) / 2)
        assert db[-1][0] == pytest.approx(0.25)
        assert db[-1][1] == pytest.approx(-0.5)
        assert np.all(db[-1][2:] == 0.0)

    def test_huber_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        delta = 0.7
        checked = 0
        seed = 3000
        while checked < 10:
            seed += 1
            net = toy_net(seed=seed)
            obs = rng.uniform(0.0, 1.0, size=(6, 5))
            if relu_margin(net, obs) < 1e-4:
                continue
            actions = rng.integers(0, net.output_dim, size=6)
            targets = rng.normal(0.0, 5.0, size=6)
            q = net.forward(obs)
            err = q[np.arange(6), actions] - targets
            if np.any(np.abs(np.abs(err) - delta) < 1e-4):
                continue  # FD is invalid at the Huber kink too
            checked += 1
            _, dW, db = bellman_loss_and_grads(
                net, obs, actions, targets, huber_delta=delta
            )
            h = 1e-6
            for p, g in zip([*net.weights, *net.biases], [*dW, *db]):
                for idx in np.ndindex(p.shape):
                    orig = p[idx]
                    p[idx] = orig + h
                    up = td_loss(net, obs, actions, targets, huber_delta=delta)
                    p[idx] = orig - h
                    down = td_loss(net, obs, actions, targets, huber_delta=delta)
                    p[idx] = orig
                    fd = (up - down) / (2 * h)
                    denom = max(abs(fd), abs(g[idx]), 1e-8)
                    assert abs(fd - g[idx]) / denom <= 1e-4


class TestSelectAction:
    def test_full_exploration_is_uniform_over_valid(self):
        net = toy_net(0)
        rng = np.random.default_rng(7)
        mask = np.zeros(8, dtype=bool)
        mask[[1, 3, 4, 6]] = True
        obs = np.full(5, 0.5)
        draws = [select_action(net, obs, 1.0, mask, rng) for _ in range(8000)]
        counts = [draws.count(i) for i in (1, 3, 4, 6)]
        assert sum(counts) == 8000  # never an invalid action
        assert stats.chisquare(counts).pvalue > 1e-3

    def test_greedy_respects_mask_and_breaks_ties_low(self):
        net = toy_net(0)
        for W in net.weights:
            W[:] = 0.0
        mask = np.zeros(8, dtype=bool)
        mask[[3, 5]] = True
        # all Q equal: the lowest valid index wins
        assert select_action(net, np.full(5, 0.5), 0.0, mask, None) == 3

    def test_greedy_picks_masked_argmax(self):
        net = toy_net(0)
        for W in net.weights:
            W[:] = 0.0
        net.biases[-1][:] = np.arange(8, dtype=np.float64)
        mask = np.ones(8, dtype=bool)
        mask[7] = False
        assert select_action(net, np.full(5, 0.5), 0.0, mask, None) == 6


class TestTdTargets:
    def test_terminal_and_bootstrap(self):
        net = toy_net(0)
        for W in net.weights:
            W[:] = 0.0
        net.biases[-1][:] = np.array([1.0, 5.0, 3.0, 0, 0, 0, 0, 2.0])
        rewards = np.array([1.0, 1.0], dtype=np.float32)
        next_obs = np.full((2, 5), 0.5)
        dones = np.array([True, False])
        masks = np.ones((2, 8), dtype=bool)
        masks[1, 1] = False  # best valid is then q=3 at index 2
        out = td_targets(net, rewards, next_obs, dones, masks, gamma=0.5)
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(1.0 + 0.5 * 3.0)


class TestReplayBuffer:
    def test_ring_eviction(self):
        buf = ReplayBuffer(50, 5, 8)
        mask = np.ones(8, dtype=bool)
        for i in range(150):
            buf.push(np.full(5, 0.1), 0, float(i), np.full(5, 0.2), False, mask)
        assert len(buf) == 50
        assert set(buf.rewards.astype(int)) == set(range(100, 150))

    def test_sample_shapes_and_determinism(self):
        buf = ReplayBuffer(100, 5, 8)
        mask = np.ones(8, dtype=bool)
        for i in range(40):
            buf.push(np.full(5, i / 40), i % 8, float(i), np.full(5, 0.2), i % 2, mask)
        a = buf.sample(16, np.random.default_rng(3))
        b = buf.sample(16, np.random.default_rng(3))
        assert a[0].shape == (16, 5) and a[5].shape == (16, 8)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestTraining:
    def test_regression_to_fixed_targets(self):
        # terminal-only transitions make the targets constant: plain supervised
        # regression the optimizer must be able to drive down
        net = toy_net(5, dtype=np.float32)
        target = net.copy()
        buf = ReplayBuffer(256, 5, 8)
        rng = np.random.default_rng(11)
        mask = np.ones(8, dtype=bool)
        for _ in range(256):
            obs = rng.uniform(0, 1, 5).astype(np.float32)
            buf.push(
                obs,
                int(rng.integers(8)),
                float(3.0 * obs[0] - 2.0 * obs[1]),
                np.zeros(5, dtype=np.float32),
                True,
                mask,
            )
        cfg = TrainConfig(learning_rate=3e-3, batch_size=64, hidden_sizes=(4, 4))
        opt = Adam(net, cfg.learning_rate)
        losses = [train_step(net, target, buf, cfg, opt, rng) for _ in range(1500)]
        assert losses[-1] < losses[0] * 0.1

    def test_train_step_noop_until_batch_available(self):
        net = toy_net(5, dtype=np.float32)
        buf = ReplayBuffer(64, 5, 8)
        cfg = TrainConfig(batch_size=32, hidden_sizes=(4, 4))
        opt = Adam(net, cfg.learning_rate)
        assert train_step(net, net.copy(), buf, cfg, opt, np.random.default_rng(0)) is None

    def test_gradient_clipping(self):
        dW = [np.full((2, 2), 100.0)]
        db = [np.full(2, 100.0)]
        norm = clip_gradients(dW, db, 1.0)
        assert norm > 1.0
        total = np.sum(np.square(dW[0])) + np.sum(np.square(db[0]))
        assert np.sqrt(total) == pytest.approx(1.0)

    def test_target_sync_is_bitwise_and_unaliased(self):
        net = toy_net(1, dtype=np.float32)
        target = net.copy()
        net.weights[0] += 1.0
        assert not np.array_equal(net.weights[0], target.weights[0])
        target.load_from(net)
        for W, T in zip(net.weights, target.weights):
            assert np.array_equal(W, T)
        net.weights[0] += 1.0
        assert not np.array_equal(net.weights[0], target.weights[0])

    def test_stage_training_is_deterministic(self):
        stage = CurriculumStage(num_rows=5, steps=1200, corridor_len=5)
        cfg = TrainConfig(
            batch_size=16,
            buffer_capacity=2000,
            learning_starts=100,
            target_sync_interval=200,
            train_frequency=2,
            hidden_sizes=(16, 16),
        )
        net_a, log_a = train_stage(stage, cfg, seed=42)
        net_b, log_b = train_stage(stage, cfg, seed=42)
        assert log_a == log_b
        for W, V in zip(net_a.parameters(), net_b.parameters()):
            assert np.array_equal(W, V)
        net_c, log_c = train_stage(stage, cfg, seed=43)
        assert log_a != log_c


class TestSchedule:
    def test_epsilon_endpoints(self):
        cfg = TrainConfig()
        assert epsilon_at(0, 1000, cfg) == 1.0
        assert epsilon_at(500, 1000, cfg) == pytest.approx(0.05)
        assert epsilon_at(999, 1000, cfg) == pytest.approx(0.05)
        assert epsilon_at(250, 1000, cfg) == pytest.approx(0.525)

    def test_default_curriculum_shape(self):
        stages = curriculum_stages(steps_per_stage=1000)
        assert [s.num_rows for s in stages] == list(range(5, 66, 5))
        assert all(s.corridor_len == 10 for s in stages)
        assert action_space_size(stages[-1].num_rows) == 132


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = toy_net(3, dtype=np.float32)
        cfg = TrainConfig(hidden_sizes=(4, 4))
        path = tmp_path / "model.npz"
        save_checkpoint(path, net, cfg, stage_rows=5, seed=42)
        loaded, meta = load_checkpoint(path)
        assert meta["format_version"] == 1
        assert meta["stage_rows"] == 5
        assert meta["seed"] == 42
        assert meta["train_config"]["hidden_sizes"] == (4, 4)
        assert loaded.hidden_sizes == net.hidden_sizes
        for W, V in zip(net.parameters(), loaded.parameters()):
            assert np.array_equal(W, V)
        obs = np.full(5, 0.3)
        mask = np.ones(net.output_dim, dtype=bool)
        assert select_action(loaded, obs, 0.0, mask, None) == select_action(
            net, obs, 0.0, mask, None
        )

    def test_rejects_arrays_that_disagree_with_meta(self, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(path, toy_net(3), TrainConfig(hidden_sizes=(4, 4)), 5, 42)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["W1"] = arrays["W1"][:, :3]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="layer 1"):
            load_checkpoint(path)


class TestPlanDqn:
    def test_terminal_start_succeeds_immediately(self):
        net = toy_net(0, dtype=np.float32)
        request = PlanRequest(FieldSpec(3, 5), RobotState(1.5, 2, DOWN), GoalSpec(2, 2))
        result = plan_dqn(request, net)
        assert result.success
        assert result.raw_actions == ()
        assert result.path_length == 0.0

    def test_untrained_net_terminates_cleanly(self):
        net = toy_net(0, dtype=np.float32)  # max_rows 3
        request = PlanRequest(FieldSpec(3, 4), RobotState(0.5, 1, UP), GoalSpec(2, 2))
        result = plan_dqn(request, net)
        assert len(result.raw_actions) <= request.field.max_steps
        replay = simulate(request.field, request.start, request.goal, list(result.raw_actions))
        # every emitted action was legal, whatever the outcome
        assert replay.failure_reason is None or "illegal" not in replay.failure_reason
        assert replay.success == result.success

    def test_rejects_field_wider_than_head(self):
        net = toy_net(0, dtype=np.float32)  # max_rows 3
        request = PlanRequest(FieldSpec(6, 4), RobotState(0.5, 1, UP), GoalSpec(2, 2))
        with pytest.raises(ValueError):
            plan_dqn(request, net)


def test_evaluate_runs_greedy_rollouts():
    net = toy_net(0, dtype=np.float32)
    field = FieldSpec(3, 3)
    rate = evaluate(net, field, episodes=20, seed=5)
    # the success rate of plan_dqn on the instances generate_instances draws
    instances = generate_instances(field, 20, seed=5)
    assert rate == sum(plan_dqn(i.request(), net).success for i in instances) / 20
