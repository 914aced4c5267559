"""Value-network tests.

The backward pass is checked against central finite differences computed
here from the forward pass alone, so the analytic gradients never validate
themselves.
"""

from __future__ import annotations

import gc
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from croprow.bench import generate_instances
from croprow.cli import _widths
from croprow.dqn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    BATCH_SIZE,
    GRAD_CLIP_NORM,
    Adam,
    CurriculumStage,
    QNetwork,
    ReplayBuffer,
    TrainConfig,
    action_masks,
    action_space_size,
    bellman_loss_and_grads,
    clip_gradients,
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
)
from croprow.planners import PlanRequest
from croprow.world import DOWN, UP, Action, FieldSpec, RobotState, GoalSpec, at_headland, simulate
from poses import all_states


def toy_net(seed: int, output_dim: int = 8, dtype=np.float64) -> QNetwork:
    return QNetwork(
        output_dim,
        hidden_sizes=(4, 4),
        rng=np.random.default_rng(seed),
        dtype=dtype,
    )


def td_loss(net: QNetwork, obs, actions, targets) -> float:
    q = net.forward(obs)
    err = q[np.arange(len(actions)), actions] - targets
    return float(np.mean(err**2))


class TestActionCoding:
    def test_round_trip(self):
        max_rows = 65
        assert action_space_size(max_rows) == 132
        for idx in range(action_space_size(max_rows)):
            action = index_to_action(idx, max_rows)
            assert action.orientation * (max_rows + 1) + action.move == idx

    def test_layout(self):
        assert index_to_action(0, 65) == Action(UP, 0)
        assert index_to_action(66, 65) == Action(DOWN, 0)
        assert index_to_action(67, 65) == Action(DOWN, 1)


class TestMask:
    field = FieldSpec(5, 10)

    def test_interior_masks_switches(self):
        state = RobotState(0.5, 3, UP)
        mask = action_masks(self.field, 65)[int(at_headland(self.field, state.y))]
        on = {index_to_action(i, 65) for i in np.flatnonzero(mask)}
        assert on == {Action(0, 0), Action(0, 1), Action(1, 0), Action(1, 1)}

    def test_headland_unmasks_field_switches_only(self):
        state = RobotState(0.5, -1, UP)
        mask = action_masks(self.field, 65)[int(at_headland(self.field, state.y))]
        moves = {a.move for a in (index_to_action(i, 65) for i in np.flatnonzero(mask))}
        # switches up to this field's width; the padded tail stays masked
        assert moves == {0, 1, 2, 3, 4, 5}

    def test_mask_at_native_width(self):
        state = RobotState(0.5, 10, DOWN)
        mask = action_masks(self.field, 5)[int(at_headland(self.field, state.y))]
        assert mask.all()

    def test_every_pose_reads_its_places_row(self):
        # every pose of the fields with 2-8 rows and lengths 1 and 3, under heads up to 9 rows wide
        for num_rows in range(2, 9):
            for length in (1, 3):
                field = FieldSpec(num_rows, length)
                for max_rows in range(num_rows, 10):
                    masks = action_masks(field, max_rows)
                    assert masks.dtype == bool and masks.shape == (2, action_space_size(max_rows))
                    for state in all_states(field):
                        mask = masks[int(at_headland(field, state.y))]
                        on = {index_to_action(i, max_rows) for i in np.flatnonzero(mask)}
                        # forward and backward everywhere; on a headland also a switch to each
                        # of this field's corridors, moves 2..num_rows; the padded tail never
                        moves = range(num_rows + 1) if state.y in (-1, length) else range(2)
                        assert on == {Action(o, m) for o in (UP, DOWN) for m in moves}


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
        buf = ReplayBuffer(50, np.ones((1, 8), dtype=bool))
        for i in range(150):
            buf.push(np.full(5, 0.1), 0, float(i), np.full(5, 0.2), False, 0)
        assert len(buf) == 50
        assert set(buf.rewards.astype(int)) == set(range(100, 150))

    def test_sample_shapes_and_determinism(self):
        masks = np.ones((2, 8), dtype=bool)
        masks[1, 2:] = False
        buf = ReplayBuffer(100, masks)
        for i in range(40):
            buf.push(np.full(5, i / 40), i % 8, float(i), np.full(5, 0.2), i % 2, i % 2)
        a = buf.sample(16, np.random.default_rng(3))
        b = buf.sample(16, np.random.default_rng(3))
        assert a[0].shape == (16, 5) and a[5].shape == (16, 8) and a[5].dtype == bool
        assert np.array_equal(a[5], masks[a[1] % 2])  # each transition's own row
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestTraining:
    def test_regression_to_fixed_targets(self):
        # terminal-only transitions make the targets constant: plain supervised
        # regression the optimizer must be able to drive down
        net = toy_net(5, dtype=np.float32)
        target = net.copy()
        buf = ReplayBuffer(256, np.ones((1, 8), dtype=bool))
        rng = np.random.default_rng(11)
        for _ in range(256):
            obs = rng.uniform(0, 1, 5).astype(np.float32)
            buf.push(
                obs,
                int(rng.integers(8)),
                float(3.0 * obs[0] - 2.0 * obs[1]),
                np.zeros(5, dtype=np.float32),
                True,
                0,
            )
        cfg = TrainConfig(learning_rate=3e-3, hidden_sizes=(4, 4))
        opt = Adam(net, cfg.learning_rate)
        losses = [train_step(net, target, buf, cfg, opt, rng) for _ in range(1500)]
        assert losses[-1] < losses[0] * 0.1

    def test_train_step_noop_until_batch_available(self):
        net = toy_net(5, dtype=np.float32)
        buf = ReplayBuffer(BATCH_SIZE, np.ones((1, 8), dtype=bool))
        cfg = TrainConfig(hidden_sizes=(4, 4))
        opt = Adam(net, cfg.learning_rate)
        rng = np.random.default_rng(0)
        obs = np.zeros(5, dtype=np.float32)
        for _ in range(BATCH_SIZE - 1):
            buf.push(obs, 0, 1.0, obs, True, 0)
        assert train_step(net, net.copy(), buf, cfg, opt, rng) is None
        buf.push(obs, 0, 1.0, obs, True, 0)
        assert isinstance(train_step(net, net.copy(), buf, cfg, opt, rng), float)

    def test_gradient_clipping(self):
        for dtype in (np.float32, np.float64):
            grad = np.full(6, 100.0, dtype=dtype)
            norm = clip_gradients(grad, 1.0)
            assert norm == pytest.approx(100.0 * np.sqrt(6.0))
            assert grad.dtype == dtype
            assert np.sqrt(np.sum(np.square(grad, dtype=np.float64))) == pytest.approx(1.0)

    def test_gradient_clipping_past_float32_overflow(self):
        # the float32 dot overflows to inf; the norm is taken again in float64
        grad = np.full(4, 1e19, dtype=np.float32)
        with np.errstate(over="ignore"):
            norm = clip_gradients(grad, 10.0)
        assert norm == pytest.approx(2e19)
        assert grad.dtype == np.float32
        assert np.array_equal(grad, np.full(4, 5.0, dtype=np.float32))

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
        # updates start at LEARNING_STARTS; 2,200 steps also update after
        # the second target sync
        stage = CurriculumStage(num_rows=5, steps=2200, corridor_len=5)
        cfg = TrainConfig(buffer_capacity=2000, train_frequency=2, hidden_sizes=(16, 16))
        net_a, log_a = train_stage(stage, cfg, seed=42)
        net_b, log_b = train_stage(stage, cfg, seed=42)
        assert log_a == log_b
        for W, V in zip(net_a.weights + net_a.biases, net_b.weights + net_b.biases):
            assert np.array_equal(W, V)
        net_c, log_c = train_stage(stage, cfg, seed=43)
        assert log_a != log_c


# The update path as it was before it wrote into preallocated arrays: every
# temporary is a new array.  The library must reproduce it bit for bit.
def ref_forward_cached(net: QNetwork, x):
    acts = [np.asarray(x, dtype=net.weights[0].dtype)]
    h = acts[0]
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        h = np.maximum(h @ W + b, 0.0)
        acts.append(h)
    return h @ net.weights[-1] + net.biases[-1], acts


def ref_backward(net: QNetwork, acts, dout):
    dW = [np.empty(0)] * len(net.weights)
    db = [np.empty(0)] * len(net.biases)
    delta = np.asarray(dout, dtype=net.weights[0].dtype)
    for i in range(len(net.weights) - 1, -1, -1):
        dW[i] = acts[i].T @ delta
        db[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i].T) * (acts[i] > 0)
    return dW, db


def ref_clip_gradients(dW, db, max_norm: float) -> float:
    flat = np.concatenate([g.ravel() for g in (*dW, *db)])
    norm = math.sqrt(float(np.dot(flat, flat)))
    if norm > max_norm:
        scale = max_norm / norm
        for g in (*dW, *db):
            g *= scale
    return norm


class RefAdam:
    def __init__(self, net: QNetwork, lr: float) -> None:
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in net.weights + net.biases]
        self.v = [np.zeros_like(p) for p in net.weights + net.biases]

    def step(self, net: QNetwork, dW, db) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for p, g, m, v in zip(net.weights + net.biases, dW + db, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * np.square(g)
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def ref_train_step(net, target_net, buffer, cfg, optimizer, rng) -> float:
    obs, actions, rewards, next_obs, dones, next_masks = buffer.sample(BATCH_SIZE, rng)
    q_next = np.where(next_masks, ref_forward_cached(target_net, next_obs)[0], -np.inf)
    best = q_next.max(axis=1)
    targets = np.where(dones, rewards, rewards + cfg.gamma * best).astype(np.float32)
    q, acts = ref_forward_cached(net, obs)
    rows = np.arange(q.shape[0])
    err = q[rows, actions] - np.asarray(targets, dtype=q.dtype)
    dq = np.zeros_like(q)
    dq[rows, actions] = 2.0 * err / q.shape[0]
    dW, db = ref_backward(net, acts, dq)
    norm = ref_clip_gradients(dW, db, GRAD_CLIP_NORM)
    optimizer.step(net, dW, db)
    return norm


def random_buffer(seed: int, num_actions: int, reward_scale: float = 30.0) -> ReplayBuffer:
    """Random transitions, each with its own random row of the mask table; large
    rewards make updates exceed the clip bound."""
    rng = np.random.default_rng(seed)
    masks = np.zeros((512, num_actions), dtype=bool)
    buf = ReplayBuffer(512, masks)
    for k in range(512):
        masks[k] = rng.random(num_actions) < 0.7
        masks[k, 0] = True
        buf.push(
            rng.uniform(0, 1, 5),
            int(rng.integers(num_actions)),
            float(rng.normal(0.0, reward_scale)),
            rng.uniform(0, 1, 5),
            bool(rng.random() < 0.2),
            k,
        )
    return buf


def same_bits(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(
        x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a, b)
    )


class TestUpdatePath:
    @pytest.mark.parametrize(
        "make_net, reward_scale",
        [
            (lambda: toy_net(21, dtype=np.float32), 30.0),
            (lambda: toy_net(21, dtype=np.float64), 30.0),
            (lambda: QNetwork(8, (48, 40), np.random.default_rng(22)), 6.0),
        ],
        ids=["toy-float32", "toy-float64", "48x40-float32"],
    )
    def test_matches_the_allocating_reference_bit_for_bit(self, make_net, reward_scale):
        cfg = TrainConfig(gamma=0.9, learning_rate=1e-2)
        buf = random_buffer(7, 8, reward_scale)
        net, ref = make_net(), make_net()
        target, ref_target = net.copy(), ref.copy()
        opt, ref_opt = Adam(net, cfg.learning_rate), RefAdam(ref, cfg.learning_rate)
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        clipped = 0
        for i in range(200):
            train_step(net, target, buf, cfg, opt, rng)
            clipped += ref_train_step(ref, ref_target, buf, cfg, ref_opt, ref_rng) > GRAD_CLIP_NORM
            if (i + 1) % 50 == 0:
                target.load_from(net)
                ref_target.load_from(ref)
        assert 0 < clipped < 200  # both branches of the clip ran
        assert same_bits(net.weights + net.biases, ref.weights + ref.biases)
        assert same_bits(sum(net.split(opt.m), []), ref_opt.m)
        assert same_bits(sum(net.split(opt.v), []), ref_opt.v)
        assert opt.t == ref_opt.t == 200

    def test_parameters_are_one_vector_of_weights_then_biases(self):
        net = QNetwork(8, (48, 40), np.random.default_rng(61))
        layers = net.weights + net.biases
        net.params[:] = np.arange(net.params.size)
        assert net.params.ndim == 1
        assert same_bits([np.concatenate([p.ravel() for p in layers])], [net.params])
        assert all(np.shares_memory(p, net.params) for p in layers)
        other = np.arange(net.params.size, dtype=np.float64)
        assert same_bits(sum(net.split(other), []), [p.astype(np.float64) for p in layers])
        copy = QNetwork.from_parameters(net.weights, net.biases)
        assert same_bits(copy.weights + copy.biases, layers)
        assert not np.shares_memory(copy.params, net.params)
        opt = Adam(net, 1e-3)
        for x in (*opt.scratch, opt.grad, opt.m, opt.v):
            assert not np.shares_memory(x, net.params)

    def test_forward_and_backward_match_the_reference(self):
        net = QNetwork(8, (48, 40), np.random.default_rng(5))
        obs = np.random.default_rng(6).uniform(0, 1, (BATCH_SIZE, 5))
        q, acts = net.forward_cached(obs)
        ref_q, ref_acts = ref_forward_cached(net, obs)
        assert same_bits([q, *acts], [ref_q, *ref_acts])
        dout = np.random.default_rng(7).normal(size=q.shape).astype(q.dtype)
        dW, db = net.backward(acts, dout)
        assert same_bits(dW + db, sum(ref_backward(net, ref_acts, dout), []))

    def test_optimizers_share_no_scratch(self):
        cfg = TrainConfig(gamma=0.9, learning_rate=1e-2, hidden_sizes=(4, 4))
        base = toy_net(31, dtype=np.float32)
        data = {"a": (random_buffer(1, 8), 11), "b": (random_buffer(2, 8), 12)}

        def grads(net, opt, buf, rng):
            obs, actions, rewards, next_obs, dones, masks = buf.sample(BATCH_SIZE, rng)
            targets = td_targets(net, rewards, next_obs, dones, masks, cfg.gamma)
            bellman_loss_and_grads(net, obs, actions, targets, opt.grad)

        def start(name):
            net = base.copy()
            return net, Adam(net, cfg.learning_rate), np.random.default_rng(data[name][1])

        alone = {}
        for name in data:
            net, opt, rng = start(name)
            for _ in range(60):
                grads(net, opt, data[name][0], rng)
                clip_gradients(opt.grad, GRAD_CLIP_NORM)
                opt.step(net, opt.grad)
            alone[name] = (net, opt)

        runs = {name: start(name) for name in data}
        for _ in range(60):
            # every stage of one update runs for both before the next stage
            for name, run in runs.items():
                grads(*run[:2], data[name][0], run[2])
            for _, opt, _ in runs.values():
                clip_gradients(opt.grad, GRAD_CLIP_NORM)
            for name, (net, opt, _) in runs.items():
                opt.step(net, opt.grad)
        for name, (net, opt, _) in runs.items():
            ref_net, ref_opt = alone[name]
            assert same_bits(net.weights + net.biases, ref_net.weights + ref_net.biases)
            assert same_bits([opt.m, opt.v], [ref_opt.m, ref_opt.v])
        a, b = runs["a"][1], runs["b"][1]
        for x in (*a.scratch, a.grad, a.m, a.v):
            for y in (*b.scratch, b.grad, b.m, b.v):
                assert not np.shares_memory(x, y)

    def test_clip_below_its_bound_leaves_gradients_bit_unchanged(self):
        # also at exactly the bound: only a norm above it scales
        for dtype in (np.float32, np.float64):
            net = toy_net(41, dtype=dtype)
            obs = np.random.default_rng(8).uniform(0, 1, (BATCH_SIZE, 5))
            actions = np.arange(BATCH_SIZE) % net.output_dim
            grad = np.empty_like(net.params)
            _, dW, db = bellman_loss_and_grads(net, obs, actions, np.ones(BATCH_SIZE), grad)
            before = grad.copy()
            reference = ref_clip_gradients(dW, db, np.inf)
            for bound in (2.0 * reference, reference):
                assert clip_gradients(grad, bound) == reference
                assert same_bits([grad], [before])

    def test_adam_zeroes_subnormal_first_moments_at_update_32(self):
        net, ref = toy_net(51, dtype=np.float32), toy_net(51, dtype=np.float32)
        opt, ref_opt = Adam(net, 1e-3), RefAdam(ref, 1e-3)
        tiny = np.finfo(np.float32).tiny
        # after 32 updates at 0.9 the first is still subnormal, the second normal
        opt.m[:2] = ref_opt.m[0].flat[:2] = tiny / 2**10, tiny * 2**6
        rng = np.random.default_rng(52)
        for t in range(1, 33):
            grads = [rng.normal(size=p.shape).astype(np.float32) for p in net.weights + net.biases]
            grads[0].flat[:2] = 0.0  # dead units' weights
            dW, db = grads[: len(net.weights)], grads[len(net.weights) :]
            opt.step(net, np.concatenate([g.ravel() for g in grads]))
            ref_opt.step(ref, dW, db)
            assert 0 < ref_opt.m[0].flat[0] < tiny <= ref_opt.m[0].flat[1]
            assert opt.m[0] == (0.0 if t == 32 else ref_opt.m[0].flat[0])
            ref_m0 = ref_opt.m[0].copy()
            ref_m0.flat[0] = opt.m[0]
            assert same_bits([ref_m0, *ref_opt.m[1:]], sum(net.split(opt.m), []))
            assert same_bits(sum(net.split(opt.v), []), ref_opt.v)
            assert same_bits(net.weights + net.biases, ref.weights + ref.biases)


class TestSchedule:
    def test_epsilon_endpoints(self):
        assert epsilon_at(0, 1000) == 1.0
        assert epsilon_at(500, 1000) == pytest.approx(0.05)
        assert epsilon_at(999, 1000) == pytest.approx(0.05)
        assert epsilon_at(250, 1000) == pytest.approx(0.525)

    def test_default_curriculum_shape(self):
        stages = [CurriculumStage(rows, 1000) for rows in _widths("5..65:5")]
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
        assert [W.shape for W in loaded.weights] == [W.shape for W in net.weights]
        for W, V in zip(net.weights + net.biases, loaded.weights + loaded.biases):
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

    @pytest.mark.parametrize("keep", ["first-half", "first-10-bytes"])
    def test_truncated_archive_closes_its_file(self, tmp_path, keep):
        path = tmp_path / "model.npz"
        save_checkpoint(path, toy_net(3), TrainConfig(hidden_sizes=(4, 4)), 5, 42)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2] if keep == "first-half" else raw[:10])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="npz archive"):
                load_checkpoint(path)
            gc.collect()  # an unclosed handle warns when it is collected
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


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
        message = "field has 6 rows but the network covers 3"  # croprow plan prints it too
        with pytest.raises(ValueError, match=message):
            plan_dqn(request, net)
        with pytest.raises(ValueError, match=message):  # training follows the same rule
            train_stage(CurriculumStage(6, 10, corridor_len=4), TrainConfig(hidden_sizes=(4, 4)), 0, net)


def test_evaluate_runs_greedy_rollouts():
    net = toy_net(0, dtype=np.float32)
    field = FieldSpec(3, 3)
    rate = evaluate(net, field, episodes=20, seed=5)
    # the success rate of plan_dqn on the instances generate_instances draws
    instances = generate_instances(field, 20, seed=5)
    assert rate == sum(plan_dqn(i.request(), net).success for i in instances) / 20
