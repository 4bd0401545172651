"""Scenario sampling: two ellipsoid obstacles forming a funnel, Poisson-disk starts.

Axis lengths are treated as semi-axes; the inter-obstacle gap is the true
Euclidean surface distance, accepted only inside the configured band.
geometry.ellipsoid_gap certifies it: the value never exceeds the true gap
and lies within 1e-12 * max(1, gap) of it, and a pair that overlaps returns
exactly 0.0 and is rejected. Agent
starts must additionally clear both obstacles in the scaled surface distance
||E(p - C)|| - 1, otherwise episodes could begin in collision; a scaled
clearance c guarantees a Euclidean clearance of at least c times the shortest
semi-axis. The migration point must clear both obstacles in the exact
Euclidean surface distance.
"""

from dataclasses import dataclass

import numpy as np

from ..dmpc import AgentState
from ..geometry import Ellipsoid, ellipsoid_gap, point_surface_distance, surface_distance


class ScenarioError(RuntimeError):
    pass


@dataclass
class ScenarioConfig:
    n_min: int = 6
    n_max: int = 14
    start_box: tuple = ((0.0, 3.0), (-4.0, 4.0), (-1.0, 1.0))
    min_spacing: float = 0.7
    obstacle_center_boxes: tuple = (
        ((10.0, 14.0), (3.5, 4.5), (-2.0, 2.0)),
        ((10.0, 14.0), (-4.5, -3.5), (-2.0, 2.0)),
    )
    semi_axis_ranges: tuple = ((4.0, 8.0), (3.0, 4.0), (4.0, 8.0))
    gap_range: tuple = (0.6, 1.2)
    p_mig: tuple = (20.0, 0.0, 0.0)
    start_clearance: float = 0.15   # scaled surface clearance ||E(p - C)|| - 1 of agent starts
    goal_clearance: float = 0.35    # exact Euclidean surface clearance of p_mig
    rejection_cap: int = 10_000


@dataclass
class Scenario:
    seed: int
    agents: list          # AgentState
    obstacles: list       # Ellipsoid
    p_mig: np.ndarray
    accepted_gap: float | None = None

    def __post_init__(self):
        self.p_mig = np.asarray(self.p_mig, dtype=float).reshape(3)

    @property
    def n(self):
        return len(self.agents)

    def positions(self):
        return np.array([a.position for a in self.agents])


def _uniform_box(rng, box):
    return np.array([rng.uniform(lo, hi) for lo, hi in box])


def _sample_obstacles(rng, cfg: ScenarioConfig):
    obstacles = []
    for box in cfg.obstacle_center_boxes:
        center = _uniform_box(rng, box)
        semis = np.array([rng.uniform(lo, hi) for lo, hi in cfg.semi_axis_ranges])
        obstacles.append(Ellipsoid.axis_aligned(center, semis))
    return obstacles


def _starts_clear(point, obstacles, clearance):
    return all(surface_distance(obs, point) >= clearance for obs in obstacles)


def _goal_clear(point, obstacles, clearance):
    return bool(np.all(point_surface_distance(obstacles, point)[0] >= clearance))


def _norm3(v):
    """|v| of a 3-vector, elementwise: np.linalg.norm goes through BLAS ddot,
    whose rounding depends on the OpenBLAS kernel."""
    return np.hypot(np.hypot(v[0], v[1]), v[2])


def poisson_disk_box(rng, box, radius, count, accept=None):
    """Bridson-style Poisson disk sampling in a 3-D box, stopping at `count`.

    `accept` is an extra point predicate (obstacle clearance). The first
    point takes up to 10 000 uniform draws, and each active point up to
    Bridson's k = 30 candidates. Returns None when the active list exhausts
    before `count` points are placed.
    """
    lows = np.array([lo for lo, _ in box])
    highs = np.array([hi for _, hi in box])
    cell = radius / np.sqrt(3.0)
    grid = {}

    def grid_key(p):
        return tuple(((p - lows) // cell).astype(int))

    def fits(p):
        if np.any(p < lows) or np.any(p > highs):
            return False
        if accept is not None and not accept(p):
            return False
        key = grid_key(p)
        for dx in range(-2, 3):
            for dy in range(-2, 3):
                for dz in range(-2, 3):
                    other = grid.get((key[0] + dx, key[1] + dy, key[2] + dz))
                    if other is not None and _norm3(p - other) < radius:
                        return False
        return True

    points, active = [], []
    for _ in range(10_000):
        seed_pt = lows + rng.uniform(size=3) * (highs - lows)
        if fits(seed_pt):
            points.append(seed_pt)
            active.append(seed_pt)
            grid[grid_key(seed_pt)] = seed_pt
            break
    else:
        return None

    while active and len(points) < count:
        idx = int(rng.integers(len(active)))
        base = active[idx]
        for _ in range(30):
            direction = rng.normal(size=3)
            direction /= _norm3(direction)
            candidate = base + direction * rng.uniform(radius, 2 * radius)
            if fits(candidate):
                points.append(candidate)
                active.append(candidate)
                grid[grid_key(candidate)] = candidate
                break
        else:
            active.pop(idx)
    return points if len(points) == count else None


def sample_scenario(seed, config: ScenarioConfig | None = None) -> Scenario:
    """Draw one scenario; deterministic in the seed."""
    cfg = config or ScenarioConfig()
    rng = np.random.default_rng(seed)
    p_mig = np.asarray(cfg.p_mig, dtype=float)
    attempts = 0
    while attempts < cfg.rejection_cap:
        attempts += 1
        obstacles = _sample_obstacles(rng, cfg)
        gap = ellipsoid_gap(obstacles[0], obstacles[1])
        if not (cfg.gap_range[0] <= gap <= cfg.gap_range[1]):
            continue
        if not _goal_clear(p_mig, obstacles, cfg.goal_clearance):
            continue
        n = int(rng.integers(cfg.n_min, cfg.n_max + 1))
        points = poisson_disk_box(
            rng, cfg.start_box, cfg.min_spacing, n,
            accept=lambda p: _starts_clear(p, obstacles, cfg.start_clearance))
        if points is None:
            continue
        agents = [AgentState(p, np.zeros(3)) for p in points]
        return Scenario(int(seed), agents, obstacles, p_mig, accepted_gap=gap)
    raise ScenarioError(f"scenario rejection cap ({cfg.rejection_cap}) exceeded")


def validate_scenario(sc: Scenario, config: ScenarioConfig | None = None) -> list:
    """Invariant check; returns a list of human-readable violations."""
    cfg = config or ScenarioConfig()
    problems = []
    if not (cfg.n_min <= sc.n <= cfg.n_max):
        problems.append(f"agent count {sc.n} outside [{cfg.n_min}, {cfg.n_max}]")
    pos = sc.positions()
    for i in range(sc.n):
        for j in range(i + 1, sc.n):
            d = np.linalg.norm(pos[i] - pos[j])
            if d < cfg.min_spacing - 1e-9:
                problems.append(f"agents {i},{j} start {d:.3f} m apart")
    if len(sc.obstacles) != 2:
        problems.append(f"expected 2 obstacles, found {len(sc.obstacles)}")
    else:
        gap = ellipsoid_gap(sc.obstacles[0], sc.obstacles[1])
        if not (cfg.gap_range[0] - 1e-6 <= gap <= cfg.gap_range[1] + 1e-6):
            problems.append(f"obstacle gap {gap:.3f} m outside {cfg.gap_range}")
    for idx, a in enumerate(sc.agents):
        if not _starts_clear(a.position, sc.obstacles, cfg.start_clearance - 1e-9):
            problems.append(f"agent {idx} starts inside obstacle clearance")
    if not _goal_clear(sc.p_mig, sc.obstacles, cfg.goal_clearance - 1e-9):
        problems.append("migration point inside obstacle clearance")
    return problems
