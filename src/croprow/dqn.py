"""Value-network planner trained with Q-learning, implemented on numpy alone.

The network is a fully-connected ReLU net (5 inputs, three hidden layers of
1024 units by default) whose output head covers the action space of the
widest field the curriculum will reach: 2 orientations x (2 vertical moves +
one switch target per corridor).  Narrower fields, and states away from a
headland, mask invalid entries to -inf during both action selection and
Bellman backups.  Forward, backward, and the Adam update are written out
here so the training loop has no dependencies beyond numpy.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from croprow.planners import PlanRequest, PlanResult, PlannerId, dedup
from croprow.world import (
    Action,
    Episode,
    FieldSpec,
    RobotState,
    at_headland,
    observe,
    sample_instance,
)

CHECKPOINT_VERSION = 1
OBS_DIM = 5


def action_space_size(max_rows: int) -> int:
    """2 orientations x (forward, backward, switch to each of max_rows-1 corridors)."""
    return 2 * (max_rows + 1)


def action_to_index(action: Action, max_rows: int) -> int:
    return action.orientation * (max_rows + 1) + action.move


def index_to_action(index: int, max_rows: int) -> Action:
    span = max_rows + 1
    return Action(index // span, index % span)


def valid_action_mask(field: FieldSpec, state: RobotState, max_rows: int) -> np.ndarray:
    """Mask over the padded action space: vertical moves are always legal,
    switches only on a headland and only to corridors this field has."""
    span = max_rows + 1
    mask = np.zeros(2 * span, dtype=bool)
    for orientation in (0, 1):
        base = orientation * span
        mask[base] = True
        mask[base + 1] = True
        if at_headland(field, state.y):
            mask[base + 2 : base + field.num_rows + 1] = True
    return mask


class QNetwork:
    """Fully-connected ReLU network with explicit forward and backward passes."""

    def __init__(
        self,
        output_dim: int,
        hidden_sizes: tuple[int, ...] = (1024, 1024, 1024),
        input_dim: int = OBS_DIM,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ) -> None:
        if rng is None:
            rng = np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_sizes = tuple(hidden_sizes)
        self.output_dim = output_dim
        self.dtype = dtype
        sizes = (input_dim, *hidden_sizes, output_dim)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(
                rng.normal(0.0, scale, size=(fan_in, fan_out)).astype(dtype)
            )
            self.biases.append(np.zeros(fan_out, dtype=dtype))

    @property
    def max_rows(self) -> int:
        return self.output_dim // 2 - 1

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = np.asarray(x, dtype=self.dtype)
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ W + b, 0.0)
        return h @ self.weights[-1] + self.biases[-1]

    def forward_cached(self, x: np.ndarray):
        """Forward pass keeping layer activations for backprop."""
        acts = [np.asarray(x, dtype=self.dtype)]
        h = acts[0]
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ W + b, 0.0)
            acts.append(h)
        out = h @ self.weights[-1] + self.biases[-1]
        return out, acts

    def backward(self, acts: list[np.ndarray], dout: np.ndarray):
        """Gradients of a scalar loss given d(loss)/d(output).

        Returns (dweights, dbiases) matching the layer lists.
        """
        dW = [np.empty(0)] * len(self.weights)
        db = [np.empty(0)] * len(self.biases)
        delta = np.asarray(dout, dtype=self.dtype)
        for i in range(len(self.weights) - 1, -1, -1):
            dW[i] = acts[i].T @ delta
            db[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * (acts[i] > 0)
        return dW, db

    def parameters(self) -> list[np.ndarray]:
        out = []
        for W, b in zip(self.weights, self.biases):
            out.append(W)
            out.append(b)
        return out

    @classmethod
    def from_parameters(
        cls, weights: list[np.ndarray], biases: list[np.ndarray]
    ) -> QNetwork:
        """Network over the given layer arrays, which it takes without
        copying; the layer sizes and dtype are read from the arrays."""
        net = cls.__new__(cls)
        net.weights = list(weights)
        net.biases = list(biases)
        net.input_dim = net.weights[0].shape[0]
        net.hidden_sizes = tuple(W.shape[1] for W in net.weights[:-1])
        net.output_dim = net.weights[-1].shape[1]
        net.dtype = net.weights[0].dtype.type
        return net

    def copy(self) -> QNetwork:
        return QNetwork.from_parameters(
            [W.copy() for W in self.weights], [b.copy() for b in self.biases]
        )

    def load_from(self, other: QNetwork) -> None:
        """Bitwise parameter copy (target-network sync)."""
        for mine, theirs in zip(self.weights, other.weights):
            np.copyto(mine, theirs)
        for mine, theirs in zip(self.biases, other.biases):
            np.copyto(mine, theirs)


def bellman_loss_and_grads(
    net: QNetwork,
    obs: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
    huber_delta: float | None = None,
):
    """Mean TD-error loss over a batch, with gradients for every parameter.

    Squared error by default; with huber_delta set, the Huber loss, which
    bounds the per-sample gradient and keeps large early TD errors from
    destabilizing training.
    """
    q, acts = net.forward_cached(obs)
    rows = np.arange(q.shape[0])
    err = q[rows, actions] - np.asarray(targets, dtype=q.dtype)
    dq = np.zeros_like(q)
    if huber_delta is None:
        loss = float(np.mean(err**2))
        dq[rows, actions] = 2.0 * err / q.shape[0]
    else:
        delta = q.dtype.type(huber_delta)
        abs_err = np.abs(err)
        quadratic = abs_err <= delta
        per_sample = np.where(
            quadratic, 0.5 * err**2, delta * (abs_err - 0.5 * delta)
        )
        loss = float(np.mean(per_sample))
        dq[rows, actions] = np.clip(err, -delta, delta) / q.shape[0]
    dW, db = net.backward(acts, dq)
    return loss, dW, db


class Adam:
    """Adam optimizer over a QNetwork's parameter lists."""

    def __init__(self, net: QNetwork, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        params = net.parameters()
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, net: QNetwork, dW: list[np.ndarray], db: list[np.ndarray]) -> None:
        self.t += 1
        grads = []
        for gw, gb in zip(dW, db):
            grads.append(gw)
            grads.append(gb)
        params = net.parameters()
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def clip_gradients(dW: list[np.ndarray], db: list[np.ndarray], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for g in (*dW, *db):
        total += float(np.sum(np.square(g, dtype=np.float64)))
    norm = float(np.sqrt(total))
    if norm > max_norm > 0:
        scale = max_norm / norm
        for g in (*dW, *db):
            g *= scale
    return norm


class ReplayBuffer:
    """Fixed-capacity ring of transitions with the next state's action mask."""

    def __init__(self, capacity: int, obs_dim: int, num_actions: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim), dtype=np.float32)
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity, dtype=np.float32)
        self.next_obs = np.zeros((capacity, obs_dim), dtype=np.float32)
        self.dones = np.zeros(capacity, dtype=bool)
        self.next_masks = np.zeros((capacity, num_actions), dtype=bool)
        self.size = 0
        self.pos = 0

    def __len__(self) -> int:
        return self.size

    def push(self, obs, action, reward, next_obs, done, next_mask) -> None:
        i = self.pos
        self.obs[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.dones[i] = done
        self.next_masks[i] = next_mask
        self.pos = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        idx = rng.integers(0, self.size, size=batch_size)
        return (
            self.obs[idx],
            self.actions[idx],
            self.rewards[idx],
            self.next_obs[idx],
            self.dones[idx],
            self.next_masks[idx],
        )


@dataclass(frozen=True)
class TrainConfig:
    """Every training knob in one place."""

    gamma: float = 0.99
    learning_rate: float = 1e-4
    batch_size: int = 64
    buffer_capacity: int = 100_000
    target_sync_interval: int = 1_000
    epsilon_start: float = 1.0
    epsilon_final: float = 0.05
    epsilon_decay_fraction: float = 0.5  # of the stage's steps
    train_frequency: int = 4
    learning_starts: int = 1_000
    grad_clip_norm: float = 10.0
    huber_delta: float | None = None  # None trains on squared error
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    hidden_sizes: tuple[int, ...] = (1024, 1024, 1024)


@dataclass(frozen=True)
class CurriculumStage:
    num_rows: int
    steps: int
    corridor_len: int = 10


@dataclass(frozen=True)
class EpisodeLog:
    episode: int
    steps: int
    ret: float
    success: bool
    epsilon: float


def curriculum_stages(
    steps_per_stage: int,
    first_rows: int = 5,
    last_rows: int = 65,
    rows_step: int = 5,
    corridor_len: int = 10,
) -> list[CurriculumStage]:
    """Default schedule: field width grows from 5 to 65 rows in steps of 5."""
    return [
        CurriculumStage(rows, steps_per_stage, corridor_len)
        for rows in range(first_rows, last_rows + 1, rows_step)
    ]


def epsilon_at(step: int, total_steps: int, cfg: TrainConfig) -> float:
    horizon = max(1, int(total_steps * cfg.epsilon_decay_fraction))
    frac = min(1.0, step / horizon)
    return cfg.epsilon_start + frac * (cfg.epsilon_final - cfg.epsilon_start)


def select_action(
    net: QNetwork,
    obs: np.ndarray,
    epsilon: float,
    valid_mask: np.ndarray,
    rng: np.random.Generator | None,
) -> int:
    """Masked epsilon-greedy: explore uniformly over valid actions, exploit
    the masked argmax (ties resolve to the lowest index)."""
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("epsilon > 0 requires an rng")
        if rng.random() < epsilon:
            valid = np.flatnonzero(valid_mask)
            return int(valid[rng.integers(len(valid))])
    q = net.forward(obs[None, :])[0]
    q = np.where(valid_mask, q, -np.inf)
    return int(np.argmax(q))


def td_targets(
    target_net: QNetwork,
    rewards: np.ndarray,
    next_obs: np.ndarray,
    dones: np.ndarray,
    next_masks: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """r for terminal transitions, else r + gamma * max over valid next actions."""
    q_next = target_net.forward(next_obs)
    q_next = np.where(next_masks, q_next, -np.inf)
    best = q_next.max(axis=1)
    return np.where(dones, rewards, rewards + gamma * best).astype(np.float32)


def train_step(
    net: QNetwork,
    target_net: QNetwork,
    buffer: ReplayBuffer,
    cfg: TrainConfig,
    optimizer: Adam,
    rng: np.random.Generator,
) -> float | None:
    """One gradient update from a uniform batch; no-op while the buffer is
    shorter than a batch."""
    if len(buffer) < cfg.batch_size:
        return None
    obs, actions, rewards, next_obs, dones, next_masks = buffer.sample(
        cfg.batch_size, rng
    )
    targets = td_targets(target_net, rewards, next_obs, dones, next_masks, cfg.gamma)
    loss, dW, db = bellman_loss_and_grads(
        net, obs, actions, targets, huber_delta=cfg.huber_delta
    )
    clip_gradients(dW, db, cfg.grad_clip_norm)
    optimizer.step(net, dW, db)
    return loss


def train_stage(
    stage: CurriculumStage,
    cfg: TrainConfig,
    seed: int,
    net: QNetwork | None = None,
) -> tuple[QNetwork, list[EpisodeLog]]:
    """Run one curriculum stage; returns the trained network and episode log.

    Rollouts and updates interleave: the exploration rate decays linearly over
    the first half of the stage, a gradient step runs every
    ``cfg.train_frequency`` environment steps once ``cfg.learning_starts``
    transitions are buffered, and the target network re-syncs every
    ``cfg.target_sync_interval`` steps.  Identical seeds give identical logs
    and weights.
    """
    rng = np.random.default_rng(seed)
    field = FieldSpec(stage.num_rows, stage.corridor_len)
    if net is None:
        net = QNetwork(
            action_space_size(stage.num_rows), cfg.hidden_sizes, rng=rng
        )
    if stage.num_rows > net.max_rows:
        raise ValueError(
            f"stage has {stage.num_rows} rows but the network covers {net.max_rows}"
        )
    max_rows = net.max_rows
    target_net = net.copy()
    optimizer = Adam(net, cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    buffer = ReplayBuffer(cfg.buffer_capacity, OBS_DIM, net.output_dim)

    logs: list[EpisodeLog] = []
    start, goal = sample_instance(field, rng)
    episode = Episode(field, start, goal)
    obs = observe(episode.state, goal, field).astype(np.float32)
    ep_return = 0.0
    ep_index = 0
    epsilon = cfg.epsilon_start

    for step_i in range(stage.steps):
        epsilon = epsilon_at(step_i, stage.steps, cfg)
        mask = valid_action_mask(field, episode.state, max_rows)
        action_idx = select_action(net, obs, epsilon, mask, rng)
        out = episode.step(index_to_action(action_idx, max_rows))
        next_obs = observe(out.next_state, goal, field).astype(np.float32)
        next_mask = valid_action_mask(field, out.next_state, max_rows)
        buffer.push(obs, action_idx, out.reward, next_obs, out.done, next_mask)
        ep_return += out.reward

        if out.done or episode.steps >= field.max_steps:
            logs.append(
                EpisodeLog(ep_index, episode.steps, ep_return, out.done, epsilon)
            )
            ep_index += 1
            start, goal = sample_instance(field, rng)
            episode = Episode(field, start, goal)
            obs = observe(episode.state, goal, field).astype(np.float32)
            ep_return = 0.0
        else:
            obs = next_obs

        if len(buffer) >= cfg.learning_starts and (step_i + 1) % cfg.train_frequency == 0:
            train_step(net, target_net, buffer, cfg, optimizer, rng)
        if (step_i + 1) % cfg.target_sync_interval == 0:
            target_net.load_from(net)

    return net, logs


def run_curriculum(
    stages: list[CurriculumStage],
    cfg: TrainConfig,
    seed: int,
) -> tuple[QNetwork, dict[int, list[EpisodeLog]]]:
    """Train through the stage list, warm-starting each stage from the last.

    The network's head is sized for the widest stage so later stages only
    unmask actions the earlier ones could not use.
    """
    if not stages:
        raise ValueError("curriculum needs at least one stage")
    if any(b.num_rows <= a.num_rows for a, b in zip(stages, stages[1:])):
        raise ValueError("stage widths must be strictly increasing")
    master = np.random.default_rng(seed)
    net = QNetwork(
        action_space_size(stages[-1].num_rows), cfg.hidden_sizes, rng=master
    )
    logs: dict[int, list[EpisodeLog]] = {}
    for stage in stages:
        stage_seed = int(master.integers(2**63))
        net, logs[stage.num_rows] = train_stage(stage, cfg, stage_seed, net)
    return net, logs


def evaluate(
    net: QNetwork, field: FieldSpec, episodes: int, seed: int
) -> float:
    """Success rate of :func:`plan_dqn` over freshly sampled instances."""
    rng = np.random.default_rng(seed)
    wins = 0
    for _ in range(episodes):
        start, goal = sample_instance(field, rng)
        wins += plan_dqn(PlanRequest(field, start, goal), net).success
    return wins / episodes


def plan_dqn(request: PlanRequest, net: QNetwork) -> PlanResult:
    """Greedy rollout of the value network; a budget overrun is a failure
    result, not an error."""
    field = request.field
    if field.num_rows > net.max_rows:
        raise ValueError(
            f"field has {field.num_rows} rows but the network covers {net.max_rows}"
        )
    episode = Episode(field, request.start, request.goal)
    raw: list[Action] = []
    while not episode.done and episode.steps < field.max_steps:
        obs = observe(episode.state, request.goal, field).astype(np.float32)
        mask = valid_action_mask(field, episode.state, net.max_rows)
        idx = select_action(net, obs, 0.0, mask, None)
        raw.append(index_to_action(idx, net.max_rows))
        episode.step(raw[-1])
    success = episode.done
    return PlanResult(
        raw_actions=tuple(raw),
        macro_actions=dedup(raw),
        path_length=episode.total_distance,
        planner_id=PlannerId.DQN,
        success=success,
        failure_reason=None if success else "step budget exhausted",
    )


def save_checkpoint(
    path,
    net: QNetwork,
    cfg: TrainConfig,
    stage_rows: int,
    seed: int,
) -> None:
    """Write a portable .npz checkpoint.

    Layout: one `W{i}`/`b{i}` array pair per layer plus a `meta` JSON string
    holding format_version, layer sizes, training config, the last completed
    curriculum stage (num_rows), and the training seed.
    """
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "input_dim": net.input_dim,
        "hidden_sizes": list(net.hidden_sizes),
        "output_dim": net.output_dim,
        "stage_rows": stage_rows,
        "seed": seed,
        "train_config": asdict(cfg),
    }
    arrays = {}
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        arrays[f"W{i}"] = W
        arrays[f"b{i}"] = b
    np.savez(path, meta=np.array(json.dumps(meta)), **arrays)


def load_checkpoint(path) -> tuple[QNetwork, dict]:
    """Read a checkpoint written by :func:`save_checkpoint`; raises
    ValueError when an array's shape disagrees with the layer sizes in meta."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta["format_version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['format_version']}")
        sizes = (meta["input_dim"], *meta["hidden_sizes"], meta["output_dim"])
        weights, biases = [], []
        for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
            W, b = data[f"W{i}"], data[f"b{i}"]
            if W.shape != (fan_in, fan_out) or b.shape != (fan_out,):
                raise ValueError(
                    f"checkpoint layer {i} has W{i} {W.shape} and b{i} {b.shape}, "
                    f"but meta gives ({fan_in}, {fan_out})"
                )
            weights.append(W)
            biases.append(b)
    net = QNetwork.from_parameters(weights, biases)
    meta["train_config"]["hidden_sizes"] = tuple(meta["train_config"]["hidden_sizes"])
    return net, meta
