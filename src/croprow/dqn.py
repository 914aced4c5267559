"""Value-network planner trained with Q-learning, implemented on numpy alone.

The network is a fully-connected ReLU net (5 inputs, three hidden layers of
1024 units by default) whose output head covers the action space of the
widest field the curriculum will reach: 2 orientations x (2 vertical moves +
one switch target per corridor).  Narrower fields, and states away from a
headland, mask invalid entries to -inf during both action selection and
Bellman backups.  Forward, backward, and the Adam update are written out
here so the training loop has no dependencies beyond numpy.  The parameters
are one flat vector that the layer arrays view.  An update writes into
vectors of that layout with ``out=`` ufuncs, takes the gradient's global norm
as one dot product in its dtype, and does Kingma & Ba's Adam arithmetic in
its written order over the whole vector, so one command writes byte-identical
checkpoints on the same machine.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from croprow.bench import generate_instances
from croprow.planners import PlanRequest, PlanResult, PlannerId, dedup
from croprow.world import (
    Action,
    Episode,
    FieldSpec,
    at_headland,
    observe,
    sample_instances,
)

CHECKPOINT_VERSION = 1
OBS_DIM = 5
# exploration decays linearly from EPSILON_START to EPSILON_FINAL over the
# first EPSILON_DECAY_FRACTION of a stage's steps, then stays there
EPSILON_START = 1.0
EPSILON_FINAL = 0.05
EPSILON_DECAY_FRACTION = 0.5
GRAD_CLIP_NORM = 10.0  # global L2 norm of one update's gradients
BATCH_SIZE = 64
LEARNING_STARTS = 1_000  # buffered transitions before the first update
TARGET_SYNC_INTERVAL = 1_000  # environment steps between target-network syncs
# Adam's moment rates and denominator term (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def action_space_size(max_rows: int) -> int:
    """2 orientations x (forward, backward, switch to each of max_rows-1 corridors)."""
    return 2 * (max_rows + 1)


def index_to_action(index: int, max_rows: int) -> Action:
    span = max_rows + 1
    return Action(index // span, index % span)


def action_masks(field: FieldSpec, max_rows: int) -> np.ndarray:
    """Valid actions over the padded action space: row 0, inside a corridor, holds the vertical
    moves, and row 1, on a headland, adds switches to this field's corridors.  A pose reads
    row ``int(at_headland(field, y))``: numpy takes a bool index as a mask and adds an axis."""
    moves = np.arange(max_rows + 1)  # one orientation's: forward, backward, then switches
    return np.tile(np.stack([moves < 2, moves <= field.num_rows]), 2)


class QNetwork:
    """Fully-connected ReLU network with explicit forward and backward passes.
    Its parameters are one vector, ``params``, of every weight then every bias;
    ``weights`` and ``biases`` are views of it that give the layer sizes and dtype."""

    def __init__(
        self,
        output_dim: int,
        hidden_sizes: tuple[int, ...],
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ) -> None:
        if rng is None:
            rng = np.random.default_rng(0)
        sizes = (OBS_DIM, *hidden_sizes, output_dim)
        self._shapes = [*zip(sizes, sizes[1:]), *((fan_out,) for fan_out in sizes[1:])]
        self.params = np.zeros(sum(map(math.prod, self._shapes)), dtype=dtype)
        self.weights, self.biases = self.split(self.params)
        for W in self.weights:
            W[...] = rng.normal(0.0, np.sqrt(2.0 / W.shape[0]), size=W.shape)

    def split(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Views of a vector laid out like ``params``: (weights, biases)."""
        views, stop = [], 0
        for shape in self._shapes:
            start, stop = stop, stop + math.prod(shape)
            views.append(flat[start:stop].reshape(shape))
        return views[: len(views) // 2], views[len(views) // 2 :]

    @property
    def output_dim(self) -> int:
        return self.biases[-1].shape[0]

    @property
    def max_rows(self) -> int:
        return self.output_dim // 2 - 1

    def max_rows_for(self, num_rows: int) -> int:
        """``max_rows``; ValueError if a ``num_rows`` field is wider than the head's switches reach."""
        if num_rows > self.max_rows:
            raise ValueError(f"field has {num_rows} rows but the network covers {self.max_rows}")
        return self.max_rows

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_cached(x)[0]

    def forward_cached(self, x: np.ndarray):
        """Forward pass keeping layer activations for backprop."""
        acts = [np.asarray(x, dtype=self.params.dtype)]
        h = acts[0]
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ W
            h += b
            np.maximum(h, 0.0, out=h)
            acts.append(h)
        out = h @ self.weights[-1] + self.biases[-1]
        return out, acts

    def backward(self, acts: list[np.ndarray], dout: np.ndarray, grad=None):
        """Gradients of a scalar loss given d(loss)/d(output), written into
        ``grad`` (laid out like ``params``; new if None); returns its views."""
        dW, db = self.split(np.empty_like(self.params) if grad is None else grad)
        delta = np.asarray(dout, dtype=self.params.dtype)
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(acts[i].T, delta, out=dW[i])
            np.sum(delta, axis=0, out=db[i])
            if i > 0:
                delta = delta @ self.weights[i].T
                np.multiply(delta, acts[i] > 0, out=delta)
        return dW, db

    @classmethod
    def from_parameters(
        cls, weights: list[np.ndarray], biases: list[np.ndarray]
    ) -> QNetwork:
        """Network over a copy of the given layer arrays."""
        net = cls.__new__(cls)
        net._shapes = [p.shape for p in (*weights, *biases)]
        net.params = np.concatenate([p.ravel() for p in (*weights, *biases)])
        net.weights, net.biases = net.split(net.params)
        return net

    def copy(self) -> QNetwork:
        return QNetwork.from_parameters(self.weights, self.biases)

    def load_from(self, other: QNetwork) -> None:
        """Bitwise parameter copy (target-network sync)."""
        np.copyto(self.params, other.params)


def bellman_loss_and_grads(
    net: QNetwork, obs: np.ndarray, actions: np.ndarray, targets: np.ndarray, grad=None
):
    """Mean squared TD error over a batch, with gradients for every parameter
    (written into ``grad`` when it is given, as in :meth:`QNetwork.backward`)."""
    q, acts = net.forward_cached(obs)
    rows = np.arange(q.shape[0])
    err = q[rows, actions] - np.asarray(targets, dtype=q.dtype)
    loss = float(np.mean(err**2))
    q.fill(0.0)  # q is spent; its array becomes d(loss)/dq
    q[rows, actions] = 2.0 * err / q.shape[0]
    dW, db = net.backward(acts, q, grad)
    return loss, dW, db


class Adam:
    """Adam optimizer over a QNetwork's parameter vector, with the fixed
    ADAM_* moment rates.  Next to the moments it keeps the vectors an update
    writes into, laid out like ``params``: the gradient and two scratch
    vectors for its step.  Every 32 updates, first moments below the dtype's
    smallest normal become 0."""

    def __init__(self, net: QNetwork, lr: float) -> None:
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(net.params)
        self.v = np.zeros_like(net.params)
        self.grad = np.empty_like(net.params)
        self.scratch = (np.empty_like(net.params), np.empty_like(net.params))

    def step(self, net: QNetwork, grad: np.ndarray) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        m, v, (s, u) = self.m, self.v, self.scratch
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, grad, out=s)
        v *= ADAM_BETA2
        v += np.multiply(1.0 - ADAM_BETA2, np.square(grad, out=s), out=s)
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), one operation at a time
        np.multiply(self.lr, np.divide(m, bc1, out=s), out=s)
        np.add(np.sqrt(np.divide(v, bc2, out=u), out=u), ADAM_EPS, out=u)
        net.params -= np.divide(s, u, out=s)
        if self.t % 32 == 0:  # dead units' m decays through slow subnormals
            np.copyto(m, 0.0, where=np.abs(m, out=s) < np.finfo(m.dtype).tiny)


def clip_gradients(grad: np.ndarray, max_norm: float) -> float:
    """Scale a flat gradient in place so its L2 norm is at most max_norm (> 0);
    returns the norm, one dot product in the gradient's dtype, taken again in
    float64 only when that overflows (in float32, norms above about 1.8e19)."""
    norm = math.sqrt(float(np.dot(grad, grad)))
    if math.isinf(norm):
        norm = float(np.linalg.norm(grad.astype(np.float64)))
    if norm > max_norm:
        grad *= max_norm / norm
    return norm


class ReplayBuffer:
    """Fixed-capacity ring of transitions, each with its next state's row of ``masks``."""

    def __init__(self, capacity: int, masks: np.ndarray) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.obs = np.zeros((capacity, OBS_DIM), dtype=np.float32)
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity, dtype=np.float32)
        self.next_obs = np.zeros((capacity, OBS_DIM), dtype=np.float32)
        self.dones = np.zeros(capacity, dtype=bool)
        self.masks = masks
        self.next_rows = np.zeros(capacity, dtype=np.intp)
        self.size = 0
        self.pos = 0

    def __len__(self) -> int:
        return self.size

    def push(self, obs, action, reward, next_obs, done, next_row) -> None:
        i = self.pos
        self.obs[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.dones[i] = done
        self.next_rows[i] = next_row
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
            self.masks[self.next_rows[idx]],
        )


@dataclass(frozen=True)
class TrainConfig:
    """The training settings callers choose; the exploration schedule, the
    gradient clip, Adam's moment rates, the batch size, the warm-up and the
    target-sync interval are fixed."""

    gamma: float = 0.99
    learning_rate: float = 1e-4
    buffer_capacity: int = 100_000
    train_frequency: int = 4
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


def epsilon_at(step: int, total_steps: int) -> float:
    horizon = max(1, int(total_steps * EPSILON_DECAY_FRACTION))
    frac = min(1.0, step / horizon)
    return EPSILON_START + frac * (EPSILON_FINAL - EPSILON_START)


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
    if len(buffer) < BATCH_SIZE:
        return None
    obs, actions, rewards, next_obs, dones, next_masks = buffer.sample(BATCH_SIZE, rng)
    targets = td_targets(target_net, rewards, next_obs, dones, next_masks, cfg.gamma)
    loss = bellman_loss_and_grads(net, obs, actions, targets, optimizer.grad)[0]
    clip_gradients(optimizer.grad, GRAD_CLIP_NORM)
    optimizer.step(net, optimizer.grad)
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
    ``cfg.train_frequency`` environment steps once ``LEARNING_STARTS``
    transitions are buffered, and the target network re-syncs every
    ``TARGET_SYNC_INTERVAL`` steps.  Identical seeds give identical logs
    and weights.
    """
    rng = np.random.default_rng(seed)
    field = FieldSpec(stage.num_rows, stage.corridor_len)
    if net is None:
        net = QNetwork(
            action_space_size(stage.num_rows), cfg.hidden_sizes, rng=rng
        )
    max_rows = net.max_rows_for(stage.num_rows)
    masks = action_masks(field, max_rows)
    target_net = net.copy()
    optimizer = Adam(net, cfg.learning_rate)
    buffer = ReplayBuffer(cfg.buffer_capacity, masks)

    logs: list[EpisodeLog] = []

    def reset() -> tuple[Episode, np.ndarray, int]:
        ((start, goal),) = sample_instances(field, rng, 1)
        episode = Episode(field, start, goal)
        return episode, observe(start, goal, field), int(at_headland(field, start.y))

    episode, obs, row = reset()
    for step_i in range(stage.steps):
        epsilon = epsilon_at(step_i, stage.steps)
        action_idx = select_action(net, obs, epsilon, masks[row], rng)
        out = episode.step(index_to_action(action_idx, max_rows))
        next_obs = observe(out.next_state, episode.goal, field)
        next_row = int(at_headland(field, out.next_state.y))
        buffer.push(obs, action_idx, out.reward, next_obs, out.done, next_row)

        if out.done or episode.steps >= field.max_steps:
            logs.append(
                EpisodeLog(len(logs), episode.steps, episode.total_reward, out.done, epsilon)
            )
            # before this step's update: both draw from rng, in this order
            episode, obs, row = reset()
        else:
            obs, row = next_obs, next_row

        if len(buffer) >= LEARNING_STARTS and (step_i + 1) % cfg.train_frequency == 0:
            train_step(net, target_net, buffer, cfg, optimizer, rng)
        if (step_i + 1) % TARGET_SYNC_INTERVAL == 0:
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
    """Success rate of :func:`plan_dqn` over ``generate_instances(field, episodes, seed)``."""
    instances = generate_instances(field, episodes, seed)
    return sum(plan_dqn(i.request(), net).success for i in instances) / episodes


def plan_dqn(request: PlanRequest, net: QNetwork) -> PlanResult:
    """Greedy rollout of the value network; a budget overrun is a failure
    result, not an error."""
    field = request.field
    max_rows = net.max_rows_for(field.num_rows)
    masks = action_masks(field, max_rows)
    episode = Episode(field, request.start, request.goal)
    raw: list[Action] = []
    while not episode.done and episode.steps < field.max_steps:
        obs = observe(episode.state, request.goal, field)
        idx = select_action(net, obs, 0.0, masks[int(at_headland(field, episode.state.y))], None)
        raw.append(index_to_action(idx, max_rows))
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
        "input_dim": net.weights[0].shape[0],
        "hidden_sizes": [W.shape[1] for W in net.weights[:-1]],
        "output_dim": net.output_dim,
        "stage_rows": stage_rows,
        "seed": seed,
        "train_config": asdict(cfg),
    }
    arrays = {}
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        arrays[f"W{i}"] = W
        arrays[f"b{i}"] = b
    with open(path, "wb") as fh:  # np.savez would add .npz to a bare path
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


def _archive_array(data, name: str) -> np.ndarray:
    if name not in data.files:
        raise ValueError(f"checkpoint has no {name} array")
    return data[name]


def load_checkpoint(path) -> tuple[QNetwork, dict]:
    """Read a checkpoint written by :func:`save_checkpoint`; raises
    ValueError when the file is not a readable .npz archive, meta or a layer's
    array is missing, meta is malformed or lacks a key, an array's shape
    disagrees with the layer sizes in meta, or the arrays do not share one
    real floating dtype."""
    try:
        with open(path, "rb") as handle:  # closed even when the archive is unreadable
            data = np.load(handle, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError(f"{path} holds one array, not an .npz archive")
            with data:
                meta = json.loads(str(_archive_array(data, "meta")))
                try:
                    if meta["format_version"] != CHECKPOINT_VERSION:
                        raise ValueError(f"unsupported checkpoint version {meta['format_version']}")
                    sizes = (meta["input_dim"], *meta["hidden_sizes"], meta["output_dim"])
                    meta["train_config"]["hidden_sizes"] = tuple(meta["train_config"]["hidden_sizes"])
                except TypeError as exc:
                    raise ValueError(f"malformed checkpoint meta: {exc}") from exc
                except KeyError as exc:
                    raise ValueError(f"malformed checkpoint meta: no key {exc}") from exc
                weights, biases = [], []
                for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
                    W, b = _archive_array(data, f"W{i}"), _archive_array(data, f"b{i}")
                    if W.shape != (fan_in, fan_out) or b.shape != (fan_out,):
                        raise ValueError(
                            f"checkpoint layer {i} has W{i} {W.shape} and b{i} {b.shape}, "
                            f"but meta gives ({fan_in}, {fan_out})"
                        )
                    dtype = weights[0].dtype if weights else W.dtype
                    if not (np.issubdtype(dtype, np.floating) and W.dtype == b.dtype == dtype):
                        raise ValueError(
                            f"checkpoint layer {i} has W{i} {W.dtype} and b{i} {b.dtype}, "
                            f"but every layer needs one real floating dtype (W0 has {dtype})"
                        )
                    weights.append(W)
                    biases.append(b)
    except (EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path} is not a readable .npz archive: {exc}") from exc
    return QNetwork.from_parameters(weights, biases), meta
