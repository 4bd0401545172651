"""Closed-loop episode execution: sense, communicate, predict, plan, actuate.

Tick pipeline (barrier-synchronized, all cross-agent reads on the snapshot
taken at the top of the tick):

  1. sense: every agent's position, with zero-mean Gaussian noise; snapshot
     every agent's previous plan on this tick's horizon
  2. deliver messages encoded at the end of the previous tick (period/loss)
  3. predict each comm-graph neighbor's plan for this tick
  4. solve every agent's DMPC, commit plans
  5. advance each plant one tick, tracking its just-committed plan
  6. on communication ticks, encode the just-committed plans, shifted onto
     the next tick's horizon, for the next tick

BasisBundle.shifted owns the shift of a plan onto the next tick's horizon.
The snapshot is bundle.shifted times each previous plan, taken before any
agent plans: the agent loop overwrites the previous plans one by one. Oracle
mode shares the snapshot with every neighbor, the perfect-communication
baseline; a VAE message carries the same trajectory, so a fresh message
describes the sender's plan on the receiver's horizon, as the oracle does.
In the learned modes each agent's TrajectoryPredictor keeps and ages its
belief about every neighbor's plan (TrajectoryPredictor.predict and hold).
"""

import itertools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg

from ..dmpc import AgentState, BasisBundle, ControllerConfig, hold_position_plan, plan
from ..geometry import (
    BezierPlan,
    derivative_plan,
    eval_bezier,
    point_surface_distance,
    scaled_distance,
)
from .scenario import Scenario


class RunMode(Enum):
    ORACLE = "oracle"
    CONSTANT_VELOCITY = "constant-velocity-baseline"
    EG = "eg"
    VAE = "vae"
    EG_VAE = "eg+vae"

    @classmethod
    def parse(cls, name: str) -> "RunMode":
        # kkt-trained variants run the same pipeline as their base mode; the
        # difference lives in the checkpoint they load
        aliases = {
            "oracle": cls.ORACLE,
            "constant-velocity-baseline": cls.CONSTANT_VELOCITY,
            "cv": cls.CONSTANT_VELOCITY,
            "eg": cls.EG,
            "vae": cls.VAE,
            "eg+vae": cls.EG_VAE,
            "vae+eg": cls.EG_VAE,
            "eg+kkt": cls.EG,
            "vae+kkt": cls.VAE,
            "vae+eg+kkt": cls.EG_VAE,
            "eg+vae+kkt": cls.EG_VAE,
        }
        try:
            return aliases[name.lower()]
        except KeyError:
            raise ValueError(f"unknown run mode {name!r}") from None

    @property
    def needs_checkpoint(self):
        return self in (RunMode.EG, RunMode.VAE, RunMode.EG_VAE)

    @property
    def uses_messages(self):
        return self in (RunMode.VAE, RunMode.EG_VAE)


@dataclass
class ChannelConfig:
    f_comm: float = 5.0
    p_loss: float = 0.0
    comm_range: float = 5.0
    max_neighbors: int = 4
    dt: float = 0.2

    def __post_init__(self):
        period = 1.0 / (self.f_comm * self.dt)
        if abs(period - round(period)) > 1e-9:
            raise ValueError(
                f"f_comm={self.f_comm} Hz does not divide the tick rate 1/{self.dt}")
        if not 0.0 <= self.p_loss <= 1.0:
            raise ValueError("packet loss probability must lie in [0, 1]")

    @property
    def period_ticks(self):
        return int(round(1.0 / (self.f_comm * self.dt)))


@dataclass
class DynamicsModel:
    """A is the one-tick transition of the tracking error (x - r)."""

    A: np.ndarray
    dt: float

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float).reshape(6, 6)
        radius = np.max(np.abs(np.linalg.eigvals(self.A)))
        if radius > 1.0 + 1e-9:
            raise ValueError(f"closed-loop dynamics unstable (spectral radius {radius})")


def make_default_dynamics(dt=0.2, natural_freq=12.0) -> DynamicsModel:
    """Double integrator under a critically damped PD position loop.

    natural_freq is in rad/s; 12 puts the 90% step rise time near 0.32 s, in
    the band of a quadrotor position loop. Discretized exactly with the
    matrix exponential.
    """
    kp, kd = natural_freq**2, 2.0 * natural_freq
    a_cont = np.zeros((6, 6))
    a_cont[:3, 3:] = np.eye(3)
    a_cont[3:, :3] = -kp * np.eye(3)
    a_cont[3:, 3:] = -kd * np.eye(3)
    return DynamicsModel(scipy.linalg.expm(a_cont * dt), dt)


def step_dynamics(state: AgentState, reference: BezierPlan, model: DynamicsModel) -> AgentState:
    """Advance the PD-servoed plant by one tick of length model.dt.

    The loop tracks the plan `reference` with velocity and acceleration
    feed-forward. Along the plan r(t) = (position, velocity) the tracking
    error x - r obeys the unforced loop, so x(dt) = r(dt) + A (x(0) - r(0))
    exactly. A held setpoint s is the plan hold_position_plan(s), r = (s, 0).
    """
    x = np.concatenate([state.position, state.velocity])
    velocity = derivative_plan(reference, 1)
    r0, r1 = (np.concatenate([eval_bezier(reference, t), eval_bezier(velocity, t)])
              for t in (0.0, model.dt))
    x_next = r1 + model.A @ (x - r0)
    return AgentState(x_next[:3], x_next[3:])


def comm_graph(positions, comm_range=5.0, max_neighbors=4) -> np.ndarray:
    """Nearest-<=4-within-range adjacency, symmetrized by union."""
    pos = np.asarray(positions, dtype=float)
    n = pos.shape[0]
    adj = np.zeros((n, n))
    for i in range(n):
        dists = np.linalg.norm(pos - pos[i], axis=1)
        dists[i] = np.inf
        order = np.argsort(dists, kind="stable")
        picked = 0
        for j in order:
            if picked >= max_neighbors or dists[j] > comm_range:
                break
            adj[i, j] = 1.0
            picked += 1
    return np.maximum(adj, adj.T)


def channel_deliver(outbox: dict, tick: int, adjacency, cfg: ChannelConfig, rng):
    """Per-link delivery of ``outbox`` along comm-graph edges.

    Messages only exist on ticks aligned with the communication period; each
    surviving link drops independently with probability p_loss. Returns
    (inboxes: recipient -> {sender: message}, delivered edge list).
    """
    n = adjacency.shape[0]
    inboxes = {i: {} for i in range(n)}
    delivered = []
    if tick % cfg.period_ticks != 0:
        return inboxes, delivered
    for sender, msg in outbox.items():
        for recipient in range(n):
            if recipient == sender or not adjacency[sender, recipient]:
                continue
            if cfg.p_loss > 0.0 and rng.random() < cfg.p_loss:
                continue
            inboxes[recipient][sender] = msg
            delivered.append((sender, recipient))
    return inboxes, delivered


@dataclass
class EpisodeTrace:
    scenario: Scenario
    mode: RunMode
    seed: int
    noise_std: float
    controller: ControllerConfig
    channel: ChannelConfig
    true_states: list = field(default_factory=list)       # (n, 6) per tick
    measured_states: list = field(default_factory=list)   # (n, 6) per tick
    plans: list = field(default_factory=list)             # (n, 3P) per tick
    predictions: list = field(default_factory=list)       # {(ego, target): 3P}
    costs: list = field(default_factory=list)             # list of n dicts
    adjacency: list = field(default_factory=list)
    messages_sent: list = field(default_factory=list)     # sender ids per tick
    deliveries: list = field(default_factory=list)        # (sender, recipient)
    fallback_flags: list = field(default_factory=list)    # agent ids per tick

    @property
    def ticks(self):
        return len(self.true_states)

    @property
    def n(self):
        return self.scenario.n

    def pairwise_scaled_distances(self, shape_matrix=None):
        """(ticks, n, n) symmetric matrix of scaled inter-agent distances."""
        e = np.eye(3) if shape_matrix is None else shape_matrix
        out = np.zeros((self.ticks, self.n, self.n))
        for t, states in enumerate(self.true_states):
            for i, j in itertools.combinations(range(self.n), 2):
                d = scaled_distance(states[i, :3], states[j, :3], e)
                out[t, i, j] = out[t, j, i] = d
        return out

    def obstacle_distances(self):
        """(ticks, n) minimum surface distance over the obstacles, in the agent norm.

        Exact outside the obstacles, a lower bound inside (point_surface_distance).
        """
        out = np.full((self.ticks, self.n), np.inf)
        e = self.controller.agent_shape
        for t, states in enumerate(self.true_states):
            d = point_surface_distance(self.scenario.obstacles, states[:, :3], e)[0]
            out[t] = d.min(axis=0, initial=np.inf)
        return out


def _cv_prediction(measured_state, horizon, dt):
    p, v = measured_state[:3], measured_state[3:]
    steps = (np.arange(1, horizon + 1) * dt)[:, None]
    return (p + steps * v).reshape(-1)


def run_episode(scenario: Scenario, mode: RunMode | str = RunMode.ORACLE,
                controller: ControllerConfig | None = None,
                channel: ChannelConfig | None = None,
                noise_std: float = 0.004, ticks: int = 150, seed: int = 0,
                predictor_factory=None, bundle: BasisBundle | None = None,
                dynamics: DynamicsModel | None = None) -> EpisodeTrace:
    """Run one closed-loop episode; deterministic in (scenario, seed, configs).

    predictor_factory() must build a fresh TrajectoryPredictor per agent for
    the learned modes: it predicts the agent's neighbors and encodes the
    agent's messages. The oracle and constant-velocity modes need none.
    """
    mode = RunMode.parse(mode) if isinstance(mode, str) else mode
    cfg = controller or ControllerConfig()
    channel = channel or ChannelConfig(dt=cfg.dt)
    if channel.dt != cfg.dt:
        raise ValueError("channel and controller disagree on the tick length")
    bundle = bundle or BasisBundle(cfg)
    if bundle.cfg != cfg:
        raise ValueError("the basis bundle was built from a different ControllerConfig")
    dynamics = dynamics or make_default_dynamics(cfg.dt)
    if dynamics.dt != cfg.dt:
        raise ValueError("dynamics and controller disagree on the tick length")
    if mode.needs_checkpoint and predictor_factory is None:
        raise ValueError(f"mode {mode.value} needs a predictor_factory")

    n = scenario.n
    seed_seq = np.random.SeedSequence(seed)
    rng_noise, rng_channel, rng_codec = (np.random.default_rng(s)
                                         for s in seed_seq.spawn(3))

    states = list(scenario.agents)
    prev_plans = [hold_position_plan(a.position, cfg) for a in scenario.agents]
    obstacle_centers = np.array([o.center for o in scenario.obstacles])

    predictors = [predictor_factory() for _ in range(n)] if mode.needs_checkpoint else []
    if any(p.cfg.horizon != cfg.horizon for p in predictors):
        raise ValueError("predictor and controller disagree on the horizon")

    trace = EpisodeTrace(scenario, mode, seed, noise_std, cfg, channel)
    hints = [None] * n
    outbox = {}

    for tick in range(ticks):
        true_arr = np.array([np.concatenate([s.position, s.velocity]) for s in states])
        noise = rng_noise.normal(0.0, noise_std, size=(n, 3)) if noise_std > 0 else np.zeros((n, 3))
        measured_arr = true_arr.copy()
        measured_arr[:, :3] += noise
        positions = measured_arr[:, :3]
        shifted_plans = [bundle.shifted @ p.flatten() for p in prev_plans]

        adjacency = comm_graph(positions, channel.comm_range, channel.max_neighbors)

        inboxes, delivered = channel_deliver(outbox, tick, adjacency, channel, rng_channel)

        tick_plans = np.zeros((n, 3 * cfg.horizon))
        tick_costs = []
        tick_preds = {}
        tick_fallbacks = []
        neighbor_sets = [sorted(np.flatnonzero(adjacency[i])) for i in range(n)]

        for i in range(n):
            if mode in (RunMode.EG, RunMode.EG_VAE):
                # one batched prior per ego, inside the ego's own tick
                preds = predictors[i].predict(neighbor_sets[i], inboxes[i], positions,
                                              adjacency, obstacle_centers, tick)
            elif mode is RunMode.VAE:
                preds = predictors[i].hold(neighbor_sets[i], inboxes[i], positions, tick)
            elif mode is RunMode.ORACLE:
                preds = {j: shifted_plans[j] for j in neighbor_sets[i]}
            else:
                preds = {j: _cv_prediction(measured_arr[j], cfg.horizon, cfg.dt)
                         for j in neighbor_sets[i]}
            tick_preds.update(((i, j), pred) for j, pred in preds.items())

            state_i = AgentState(measured_arr[i, :3], measured_arr[i, 3:])
            result = plan(state_i, prev_plans[i], preds, scenario.obstacles,
                          scenario.p_mig, bundle, hint_labels=hints[i])
            if result.fallback:
                tick_fallbacks.append(i)
            tick_plans[i] = result.trajectory
            tick_costs.append(result.costs)
            hints[i] = result.active_labels
            prev_plans[i] = result.plan

        # actuate along the committed plans, then log
        for i in range(n):
            states[i] = step_dynamics(states[i], prev_plans[i], dynamics)
        trace.true_states.append(true_arr)
        trace.measured_states.append(measured_arr)
        trace.plans.append(tick_plans)
        trace.predictions.append(tick_preds)
        trace.costs.append(tick_costs)
        trace.adjacency.append(adjacency)
        trace.deliveries.append(delivered)
        trace.fallback_flags.append(tick_fallbacks)

        outbox = {}
        if mode.uses_messages and (tick + 1) % channel.period_ticks == 0:
            outbox = {j: predictors[j].encode(bundle.shifted @ prev_plans[j].flatten(),
                                              tick=tick + 1, sender=j, mode="sample",
                                              rng=rng_codec)
                      for j in range(n)}
        trace.messages_sent.append(list(outbox))

    return trace
