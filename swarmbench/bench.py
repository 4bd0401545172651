"""Closed-loop swarm benchmark: workloads, clock hooks, layer tracer, output checks.

Every measurement goes through the public ``swarmsim.run_episode``. Timing is
taken by temporarily replacing functions at the module attributes the episode
loop and the controller resolve them through (``swarmsim.episode.plan``,
``dmpc.build_qp``, ``dmpc.solve``, ...); every replacement is undone when the
measurement ends, and nothing in the package itself is instrumented.

Import this module only after the BLAS thread count is pinned (``run.py``
does that before numpy loads): the closed-loop trajectory depends on it.
"""

import contextlib
import dataclasses
import itertools
import logging
import os
import platform
import resource
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from swarmcoord import dmpc, geometry, predictor, qpcore  # noqa: E402
from swarmcoord.nn import tensor as nn_tensor  # noqa: E402
from swarmcoord.swarmsim import (  # noqa: E402
    ScenarioConfig,
    episode,
    make_default_dynamics,
    prediction_error_per_step,
    run_episode,
    sample_scenario,
)

# (agent, tick) pairs whose true Euclidean clearance is below this collide;
# the same r_coll as swarmsim.metrics
R_COLL = 0.07
KKT_TOL = max(qpcore.TOL_STAT, qpcore.TOL_EQ, qpcore.TOL_INEQ, qpcore.TOL_CS)
# set-ups timed in one block at the start of a run; setup_s is their median
SETUP_REPEATS = 25
# Repeats of a one-tick episode, one before each closed-loop repeat and the
# rest after the loop, until this many agent-ticks. At tick 0 no agent has a
# warm hint, so every plan solves from scratch, with ADMM iteration counts that
# barely move with the seed. The cold solves inside an episode do move: which
# ones miss the hint, and how hard they are, follow the trajectory.
COLD_START_SAMPLES = 48

# The reference slice: fixed work that uses nothing from the package, run at
# every tick boundary and after every set-up, outside the clock. Other tenants
# of the shared machine slow everything on it by up to 1.9x for seconds to
# minutes; the slice slows with the program, so a time divided by the slices
# run nearest to it no longer depends on the machine's state. Reported times
# are scaled to a machine state on which one slice takes REF_SLICE_MS.
REF_SLICE_MS = 2.5
REF_LU_DIM = 200
REF_LU_REPEATS = 2
REF_LOOP = 10_000
# a time is scaled by the median of the slices that started within this many
# seconds of its midpoint, or of the REF_NEAREST nearest ones if there are fewer
REF_WINDOW_S = 2.5
REF_NEAREST = 11
_ref_rng = np.random.default_rng(0)
REF_MATRIX = _ref_rng.standard_normal((REF_LU_DIM, REF_LU_DIM)) + REF_LU_DIM * np.eye(REF_LU_DIM)
REF_RHS = _ref_rng.standard_normal(REF_LU_DIM)


class CheckFailed(RuntimeError):
    """An output check failed; the run must not report numbers."""


@dataclass(frozen=True)
class Workload:
    name: str
    scenario_seed: int
    scenario: ScenarioConfig
    mode: str
    ticks: int
    # a run repeats its episode at least this often, and more while time allows
    min_repeats: int


DESK = ScenarioConfig(n_min=4, n_max=5, p_mig=(18.0, 0.0, 0.0))

WORKLOADS = {
    # 4 agents through the funnel: cold solves and max-iter fallbacks make the
    # tail; the predictor is bypassed
    "desk-oracle": Workload("desk-oracle", 0, DESK, "oracle", 120, 1),
    # 13 agents before the funnel: many neighbour rows per QP, warm
    # hint-polish solves, full-size O(n^2) simulator loops
    "swarm13-oracle": Workload("swarm13-oracle", 3, ScenarioConfig(), "oracle", 30, 2),
    # DESK with the EvolveGCN prior at seeded random weights; short episodes
    # keep the untrained prior from turning every solve cold
    "desk-eg": Workload("desk-eg", 0, DESK, "eg", 15, 2),
}


def episode_seed(seed, k):
    """Sensor-noise seed of a run's closed-loop (k=0) or cold-start (k=1) episode."""
    return 1000 * seed + k


@dataclass
class Setup:
    scenario: object
    controller: dmpc.ControllerConfig
    bundle: dmpc.BasisBundle
    dynamics: object
    predictor_factory: object


def set_up(wl: Workload) -> Setup:
    """Everything built before tick 0: scenario, basis bundle, plant, predictor params."""
    scenario = sample_scenario(wl.scenario_seed, wl.scenario)
    cfg = dmpc.ControllerConfig()
    bundle = dmpc.BasisBundle(cfg)
    dynamics = make_default_dynamics(cfg.dt)
    factory = None
    if wl.mode == "eg":
        pcfg = predictor.PredictorConfig()
        params = predictor.init_predictor_params(np.random.default_rng(0), pcfg)

        def factory():
            return predictor.TrajectoryPredictor(params, pcfg)
    return Setup(scenario, cfg, bundle, dynamics, factory)


class Reference:
    """The reference slices of a run, with the time each started."""

    def __init__(self):
        self.starts = []
        self.seconds = []

    def run_slice(self):
        """Run the fixed reference work once (dense LU and a Python loop)."""
        t0 = perf_counter()
        for _ in range(REF_LU_REPEATS):
            scipy.linalg.lu_solve(scipy.linalg.lu_factor(REF_MATRIX), REF_RHS)
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i % 7
        self.starts.append(t0)
        self.seconds.append(perf_counter() - t0)

    def scaled_ms(self, times, at):
        """Seconds `times[i]`, with midpoint `at[i]`, in ms at the reference
        machine state: scaled by the median of the slices run around `at[i]`."""
        starts, seconds = np.asarray(self.starts), np.asarray(self.seconds)
        out = np.empty(len(times))
        for i, (t, when) in enumerate(zip(times, at)):
            lo, hi = np.searchsorted(starts, [when - REF_WINDOW_S, when + REF_WINDOW_S])
            if hi - lo >= REF_NEAREST:
                around = seconds[lo:hi]
            else:
                around = seconds[np.argsort(np.abs(starts - when))[:REF_NEAREST]]
            out[i] = t * REF_SLICE_MS / float(np.median(around))
        return out


def timed_set_up(wl: Workload, ref: Reference):
    """Set up SETUP_REPEATS times, a reference slice after each; returns
    (last Setup, set-up times in ms at the reference machine state)."""
    times, at = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        setup = set_up(wl)
        times.append(perf_counter() - t0)
        at.append(t0 + times[-1] / 2)
        ref.run_slice()
    return setup, ref.scaled_ms(times, at)


def run_one(wl: Workload, setup: Setup, seed: int):
    return run_episode(setup.scenario, wl.mode, controller=setup.controller,
                       ticks=wl.ticks, seed=seed,
                       predictor_factory=setup.predictor_factory,
                       bundle=setup.bundle, dynamics=setup.dynamics)


@contextlib.contextmanager
def replaced(*patches):
    """Temporarily set (owner, attribute, value) triples; always restores."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def solve_path(sol):
    """How a QP was solved, read from the returned ``QpSolution``."""
    if sol.status is qpcore.SolveStatus.OPTIMAL:
        return "hint" if sol.iterations == 0 else "admm"
    return "max_iter" if sol.status is qpcore.SolveStatus.MAX_ITER else "infeasible"


class TickClock:
    """The untraced run's hooks: two clock reads, and the output check on each solve.

    One read when the once-per-tick ``comm_graph`` returns, one when each
    ``plan`` returns. Agent i's sample runs from the previous read to the
    return of its plan, so it covers its neighbour predictions and its QP.
    Each ``solve`` is checked against the KKT contract as it returns, and a
    reference slice runs when ``comm_graph`` returns; the previous read moves
    forward by the time of both, so no sample contains them.
    ``paths[i]`` is the solve path behind ``samples[i]``, and ``mids[i]`` the
    time of its midpoint.
    """

    def __init__(self, ref: Reference):
        self.ref = ref
        self.samples = []
        self.paths = []
        self.mids = []
        self.ticks = 0
        self.solves = 0
        self.kkt_res_max = 0.0
        self.excluded_s = 0.0
        self._boundary = None
        self._path = None

    def patches(self):
        real_graph, real_plan, real_solve = episode.comm_graph, episode.plan, dmpc.solve

        def comm_graph(*args, **kwargs):
            out = real_graph(*args, **kwargs)
            t0 = perf_counter()
            self.ref.run_slice()
            self.ticks += 1
            self._boundary = perf_counter()
            self.excluded_s += self._boundary - t0
            return out

        def solve(qp, *args, **kwargs):
            sol = real_solve(qp, *args, **kwargs)
            t0 = perf_counter()
            self.solves += 1
            self._path = solve_path(sol)
            if sol.status is qpcore.SolveStatus.OPTIMAL:
                self.kkt_res_max = max(self.kkt_res_max,
                                       *qpcore.kkt_residuals(qp, sol).values())
            spent = perf_counter() - t0
            self._boundary += spent
            self.excluded_s += spent
            return sol

        def plan(*args, **kwargs):
            out = real_plan(*args, **kwargs)
            now = perf_counter()
            self.samples.append(now - self._boundary)
            self.paths.append(self._path)
            self.mids.append((now + self._boundary) / 2)
            self._boundary, self._path = now, None
            return out

        return [(episode, "comm_graph", comm_graph), (episode, "plan", plan),
                (dmpc, "solve", solve)]

    def samples_ms(self, path=None):
        """Agent-tick samples in ms at the reference machine state, all of
        them or those whose solve took `path`."""
        scaled = self.ref.scaled_ms(self.samples, self.mids)
        return np.array([s for s, p in zip(scaled, self.paths) if path in (None, p)])

    def raw_p50_ms(self):
        return 1e3 * float(np.median(self.samples))


class _Proxy:
    """Attribute proxy: the overrides, else whatever the real object has."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class LayerTracer:
    """Spans and counts around the calls into each layer.

    A span's time excludes the benchmark's own bookkeeping inside it (path
    classification and the KKT check after each solve). Top-level spans, those
    opened with no other span open, add up to the tick time the layers account
    for; the rest of the tick is simulator glue.
    """

    def __init__(self):
        self.durations = defaultdict(list)
        self.counts = Counter()
        self.kkt_res_max = 0.0
        self.qp_vars = []
        self.qp_rows = []
        self.top_level_s = 0.0
        self.excluded_s = 0.0
        self._depth = 0

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            top = self._depth == 0
            self._depth += 1
            excluded0 = self.excluded_s
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0 - (self.excluded_s - excluded0)
                self._depth -= 1
                self.durations[name].append(dt)
                if top:
                    self.top_level_s += dt
        return wrapper

    def patches(self):
        plan_span = self.span("dmpc.plan", episode.plan)
        solve_span = self.span("qpcore.solve", dmpc.solve)
        lu_factor_span = self.span("qpcore.lu_factor", scipy.linalg.lu_factor)
        real_lu_solve = scipy.linalg.lu_solve
        real_tensor_init = nn_tensor.Tensor.__init__

        def plan(*args, **kwargs):
            result = plan_span(*args, **kwargs)
            self.counts["dmpc.fallback"] += bool(result.fallback)
            return result

        def solve(qp, *args, **kwargs):
            sol = solve_span(qp, *args, **kwargs)
            t0 = perf_counter()
            self._after_solve(qp, sol, kwargs.get("active_set_hint"))
            self.excluded_s += perf_counter() - t0
            return sol

        def lu_factor(a, *args, **kwargs):
            self.counts["qpcore.lu_gflop"] += 2.0 / 3.0 * a.shape[0] ** 3 / 1e9
            return lu_factor_span(a, *args, **kwargs)

        def lu_solve(*args, **kwargs):
            self.counts["qpcore.lu_solve"] += 1
            return real_lu_solve(*args, **kwargs)

        def tensor_init(tensor, *args, **kwargs):
            self.counts["nn.tensors"] += 1
            real_tensor_init(tensor, *args, **kwargs)

        linalg = _Proxy(scipy.linalg, lu_factor=lu_factor, lu_solve=lu_solve)
        prior = predictor.TrajectoryPredictor.predict_prior
        return [
            (episode, "plan", plan),
            (episode, "comm_graph", self.span("swarmsim.comm_graph", episode.comm_graph)),
            (episode, "step_dynamics",
             self.span("swarmsim.step_dynamics", episode.step_dynamics)),
            (dmpc, "build_qp", self.span("dmpc.build_qp", dmpc.build_qp)),
            (dmpc, "QpInstance", self.span("qpcore.validate", dmpc.QpInstance)),
            (dmpc, "solve", solve),
            (dmpc, "point_surface_distance",
             self.span("geometry.point_surface_distance", dmpc.point_surface_distance)),
            (dmpc, "eval_bezier", self.span("geometry.eval_bezier", dmpc.eval_bezier)),
            (qpcore, "scipy", _Proxy(scipy, linalg=linalg)),
            (predictor.TrajectoryPredictor, "predict_prior",
             self.span("predictor.prior", prior)),
            (predictor, "lstm_step", self.span("nn.lstm_step", predictor.lstm_step)),
            (predictor, "gcn_layer", self.span("nn.gcn_layer", predictor.gcn_layer)),
            (predictor, "eg_step", self.span("nn.eg_step", predictor.eg_step)),
            (nn_tensor.Tensor, "__init__", tensor_init),
        ]

    def _after_solve(self, qp, sol, hint):
        self.qp_vars.append(qp.num_vars)
        self.qp_rows.append(qp.num_ineq)
        self.counts["qpcore.admm_iters"] += sol.iterations
        if hint is not None and len(hint) == qp.num_ineq:
            self.counts["qpcore.hint_attempted"] += 1
        path = solve_path(sol)
        if path == "admm" and sol.polished:
            path = "admm_polish"
        elif path in ("max_iter", "infeasible"):
            path = "fail"
        self.counts[f"qpcore.path.{path}"] += 1
        if path != "fail":
            res = qpcore.kkt_residuals(qp, sol)
            self.kkt_res_max = max(self.kkt_res_max, *res.values())

    def calls(self, name):
        return len(self.durations.get(name, ()))

    def total_ms(self, name):
        return 1e3 * sum(self.durations.get(name, ()))

    def pct_ms(self, name, q):
        values = self.durations.get(name)
        return 1e3 * float(np.percentile(values, q)) if values else 0.0


# spans that must fire on every workload, and those only a learned mode runs
CORE_SPANS = ("dmpc.plan", "dmpc.build_qp", "qpcore.validate", "qpcore.solve",
              "qpcore.lu_factor", "swarmsim.comm_graph", "swarmsim.step_dynamics",
              "geometry.point_surface_distance", "geometry.eval_bezier")
PREDICTOR_SPANS = ("predictor.prior", "nn.lstm_step", "nn.gcn_layer", "nn.eg_step")


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def check_kkt(kkt_res_max, wl: Workload):
    check(kkt_res_max <= KKT_TOL,
          f"{wl.name}: an OPTIMAL solve has KKT residual {kkt_res_max:.3g} > {KKT_TOL:g}")


def check_trace(trace, wl: Workload):
    """Trace lengths equal the tick count; every plan and state is finite."""
    for field_name in ("true_states", "measured_states", "plans", "predictions",
                       "costs", "adjacency", "deliveries", "fallback_flags",
                       "messages_sent"):
        length = len(getattr(trace, field_name))
        check(length == wl.ticks,
              f"{wl.name}: trace.{field_name} has {length} entries, expected {wl.ticks}")
    check(all(np.all(np.isfinite(p)) for p in trace.plans),
          f"{wl.name}: a plan trajectory is not finite")
    check(all(np.all(np.isfinite(s)) for s in trace.true_states),
          f"{wl.name}: a true state is not finite")


def euclidean_clearances(trace):
    """(ticks, n) true Euclidean clearance to the nearest obstacle or agent.

    Obstacle clearance uses the exact Euclidean projection onto the solid
    ellipsoid, 0 inside it. The package's own metrics() uses the radial
    projection, which overestimates clearance near elongated ellipsoids.
    """
    out = np.full((trace.ticks, trace.n), np.inf)
    for t, states in enumerate(trace.true_states):
        pos = states[:, :3]
        for i, p in enumerate(pos):
            for obs in trace.scenario.obstacles:
                nearest = geometry.euclidean_project_ellipsoid(obs, p)
                out[t, i] = min(out[t, i], float(np.linalg.norm(p - nearest)))
        for i, j in itertools.combinations(range(trace.n), 2):
            d = float(np.linalg.norm(pos[i] - pos[j]))
            out[t, i] = min(out[t, i], d)
            out[t, j] = min(out[t, j], d)
    return out


def episode_quality(trace):
    """Deterministic outcome of one episode (same seed, same values)."""
    errors = prediction_error_per_step(trace)
    check(errors is not None, "episode made no neighbour predictions")
    final = trace.true_states[-1][:, :3]
    return {
        "agents": trace.n,
        "plan_calls": trace.n * trace.ticks,
        "fallbacks": sum(len(f) for f in trace.fallback_flags),
        "collision_agent_ticks": int(np.sum(euclidean_clearances(trace) < R_COLL)),
        "goal_dist_m": float(np.mean(np.linalg.norm(final - trace.scenario.p_mig, axis=1))),
        "pred_err_m": float(np.mean(errors)),
        "predictions": sum(len(p) for p in trace.predictions),
    }


@dataclass
class EpisodeTiming:
    agent_ticks: int
    wall_s: float


def run_clocked(wl: Workload, setup: Setup, seed_k: int, clock: TickClock):
    """One episode under the active `clock`, with its output checks; returns (trace, timing)."""
    samples0, ticks0, solves0 = len(clock.samples), clock.ticks, clock.solves
    excluded0 = clock.excluded_s
    t0 = perf_counter()
    trace = run_one(wl, setup, seed_k)
    wall = perf_counter() - t0 - (clock.excluded_s - excluded0)
    check_trace(trace, wl)
    check_kkt(clock.kkt_res_max, wl)
    expected = trace.n * wl.ticks
    for hook, fired, want in (("comm_graph", clock.ticks - ticks0, wl.ticks),
                              ("plan", len(clock.samples) - samples0, expected),
                              ("solve", clock.solves - solves0, expected)):
        check(fired == want, f"{wl.name}: {hook} hook fired {fired} times, expected {want}")
    return trace, EpisodeTiming(expected, wall)


@dataclass
class Measurement:
    """An untraced run: the closed-loop and cold-start repeats, each with its clock.

    `attempted` and `failed` count the distinct plan calls of the run, those of
    one closed-loop and one cold-start episode, and the ones that fell back.
    Repeats redo the same calls, so both are fixed by the seed.
    """
    loop: TickClock
    timings: list
    cold: TickClock
    quality: dict
    rss_mb: float
    attempted: int
    failed: int


def same_outcome(trace, first):
    return all(np.array_equal(a, b) for a, b in zip(trace.true_states, first.true_states))


def measure(wl: Workload, setup: Setup, seed: int, seconds: float,
            ref: Reference) -> Measurement:
    """Untraced run: closed-loop and cold-start repeats, within `seconds`.

    The closed-loop episode runs `wl.min_repeats` times, then again while the
    next repeat, at the mean pace so far, would end within `seconds`. A
    cold-start repeat runs before each closed-loop repeat until there are
    COLD_START_SAMPLES cold-start agent-ticks; after the loop, cold-start
    repeats run until there are that many and while the next one would end
    within `seconds`. Every repeat must reproduce the first exactly. Quality
    and peak RSS are taken after the first closed-loop repeat.
    """
    one_tick = dataclasses.replace(wl, ticks=1)
    cold, loop = TickClock(ref), TickClock(ref)
    firsts = {}

    def repeat(w, seed_k, clock):
        with replaced(*clock.patches()):
            trace, timing = run_clocked(w, setup, seed_k, clock)
        first = firsts.setdefault(seed_k, trace)
        check(same_outcome(trace, first), f"{wl.name}: a repeated episode diverged")
        return trace, timing

    cold_s = []

    def cold_start():
        t0 = perf_counter()
        repeat(one_tick, episode_seed(seed, 1), cold)
        cold_s.append(perf_counter() - t0)

    timings = []
    start = perf_counter()
    for k in itertools.count():
        elapsed = perf_counter() - start
        if k >= wl.min_repeats and elapsed + elapsed / k > seconds:
            break
        if len(cold.samples) < COLD_START_SAMPLES:
            cold_start()
        trace, timing = repeat(wl, episode_seed(seed, 0), loop)
        timings.append(timing)
        if k == 0:
            quality, rss_mb = episode_quality(trace), peak_rss_mb()
    while (len(cold.samples) < COLD_START_SAMPLES
           or perf_counter() - start + statistics.fmean(cold_s) <= seconds):
        cold_start()
    cold_trace = firsts[episode_seed(seed, 1)]
    attempted = quality["plan_calls"] + cold_trace.n
    failed = quality["fallbacks"] + sum(len(f) for f in cold_trace.fallback_flags)
    return Measurement(loop, timings, cold, quality, rss_mb, attempted, failed)


def traced_pass(wl: Workload, setup: Setup, seed: int):
    """One closed-loop episode under the layer tracer; returns (tracer, timing)."""
    tracer = LayerTracer()
    with replaced(*tracer.patches()):
        t0 = perf_counter()
        trace = run_one(wl, setup, episode_seed(seed, 0))
        wall = perf_counter() - t0 - tracer.excluded_s
    check_trace(trace, wl)
    check_kkt(tracer.kkt_res_max, wl)
    learned = wl.mode != "oracle"
    expected = dict.fromkeys(CORE_SPANS + ("qpcore.lu_solve",), True)
    expected.update(dict.fromkeys(PREDICTOR_SPANS + ("nn.tensors",), learned))
    for name, want in expected.items():
        fired = tracer.calls(name) + tracer.counts[name]
        check((fired > 0) == want, f"{wl.name}: hook {name} fired {fired} times")
    agent_ticks = trace.n * wl.ticks
    check(tracer.calls("dmpc.plan") == agent_ticks,
          f"{wl.name}: plan span count disagrees with the agent-tick count")
    return tracer, EpisodeTiming(agent_ticks, wall)


def throughput(timings):
    return sum(t.agent_ticks for t in timings) / sum(t.wall_s for t in timings)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_ms, m: Measurement):
    """The end-to-end metrics of an untraced run, with their sample counts.

    The times are medians over the whole run at the reference machine state.
    """
    q = m.quality
    values = {
        "setup_s": float(np.median(setup_ms)) / 1e3,
        "agent_tick_ms_p50": float(np.median(m.loop.samples_ms())),
        "cold_start_tick_ms_p50": float(np.median(m.cold.samples_ms())),
        "goal_dist_m": q["goal_dist_m"],
        "pred_err_m": q["pred_err_m"],
        "peak_rss_mb": m.rss_mb,
    }
    counts = {
        "setup_s": len(setup_ms),
        "agent_tick_ms_p50": len(m.loop.samples),
        "cold_start_tick_ms_p50": len(m.cold.samples),
        "goal_dist_m": q["agents"],
        "pred_err_m": q["predictions"],
        "peak_rss_mb": 1,
    }
    return values, counts


def per_layer(tracer: LayerTracer, traced, m: Measurement):
    """The per-layer metrics of a traced run, with their sample counts."""
    t, timings, clock, q = tracer, m.timings, m.loop, m.quality
    plan_calls = t.calls("dmpc.plan")
    build_calls = t.calls("dmpc.build_qp")
    ticks = t.calls("swarmsim.comm_graph")
    samples_ms, admm_ms = clock.samples_ms(), clock.samples_ms("admm")
    max_iter_ms = clock.samples_ms("max_iter")
    values = {
        "dmpc.plan_calls": plan_calls,
        "dmpc.plan_ms_p50": t.pct_ms("dmpc.plan", 50),
        "dmpc.plan_ms_p90": t.pct_ms("dmpc.plan", 90),
        "dmpc.fallback_count": t.counts["dmpc.fallback"],
        "dmpc.build_qp_self_ms":
            (t.total_ms("dmpc.build_qp") - t.total_ms("qpcore.validate")) / build_calls,
        "dmpc.qp_vars_mean": statistics.fmean(t.qp_vars),
        "dmpc.qp_ineq_rows_mean": statistics.fmean(t.qp_rows),
        "qpcore.validate_ms": t.total_ms("qpcore.validate") / t.calls("qpcore.validate"),
        "qpcore.solve_ms_p50": t.pct_ms("qpcore.solve", 50),
        "qpcore.solve_ms_p90": t.pct_ms("qpcore.solve", 90),
        "qpcore.admm_iters_total": t.counts["qpcore.admm_iters"],
        "qpcore.path.hint": t.counts["qpcore.path.hint"],
        "qpcore.path.admm_polish": t.counts["qpcore.path.admm_polish"],
        "qpcore.path.admm": t.counts["qpcore.path.admm"],
        "qpcore.path.fail": t.counts["qpcore.path.fail"],
        "qpcore.hint_hit_frac":
            t.counts["qpcore.path.hint"] / max(t.counts["qpcore.hint_attempted"], 1),
        "qpcore.lu_factor_calls": t.calls("qpcore.lu_factor"),
        "qpcore.lu_factor_ms": t.total_ms("qpcore.lu_factor"),
        "qpcore.lu_gflop_computed": t.counts["qpcore.lu_gflop"],
        "qpcore.lu_solve_calls": t.counts["qpcore.lu_solve"],
        "qpcore.kkt_res_max": t.kkt_res_max,
        "predictor.prior_calls": t.calls("predictor.prior"),
        "predictor.prior_ms_p50": t.pct_ms("predictor.prior", 50),
        "predictor.prior_ms_total": t.total_ms("predictor.prior"),
        "nn.lstm_step_calls": t.calls("nn.lstm_step"),
        "nn.gcn_layer_calls": t.calls("nn.gcn_layer"),
        "nn.eg_step_calls": t.calls("nn.eg_step"),
        "nn.tensors_created": t.counts["nn.tensors"],
        "nn.lstm_step_ms_total": t.total_ms("nn.lstm_step"),
        "nn.gcn_layer_ms_total": t.total_ms("nn.gcn_layer"),
        "geometry.point_surface_distance_calls": t.calls("geometry.point_surface_distance"),
        "geometry.point_surface_distance_ms_total":
            t.total_ms("geometry.point_surface_distance"),
        "geometry.eval_bezier_calls": t.calls("geometry.eval_bezier"),
        "geometry.eval_bezier_ms_total": t.total_ms("geometry.eval_bezier"),
        "swarmsim.comm_graph_ms_total": t.total_ms("swarmsim.comm_graph"),
        "swarmsim.step_dynamics_ms_total": t.total_ms("swarmsim.step_dynamics"),
        "swarmsim.tick_glue_ms": 1e3 * (traced.wall_s - t.top_level_s) / ticks,
        "bench.trace_overhead_frac": 1.0 - throughput([traced]) / throughput(timings),
        "agent_ticks_per_s": throughput(timings),
        "agent_tick_ms_p75": float(np.percentile(samples_ms, 75)),
        "agent_tick_ms_p90": float(np.percentile(samples_ms, 90)),
        "agent_tick_ms_cold_p50": float(np.percentile(admm_ms, 50)) if len(admm_ms) else 0.0,
        "agent_tick_ms_max_iter_p50":
            float(np.percentile(max_iter_ms, 50)) if len(max_iter_ms) else 0.0,
        "plan_fallback_frac": q["fallbacks"] / q["plan_calls"],
        "collision_agent_ticks": q["collision_agent_ticks"],
        "agent_tick_ms_p50_raw": clock.raw_p50_ms(),
        "cold_start_tick_ms_p50_raw": m.cold.raw_p50_ms(),
        "bench.ref_slice_ms": 1e3 * float(np.median(clock.ref.seconds)),
    }
    # a span's metrics count its calls; the other traced metrics count plan calls
    counts = {name: plan_calls for name in values}
    for span in t.durations:
        counts.update({name: t.calls(span) for name in values
                       if name.startswith(span + "_")})
    counts.update({
        "swarmsim.tick_glue_ms": ticks,
        "agent_ticks_per_s": sum(tm.agent_ticks for tm in timings),
        "agent_tick_ms_p75": len(samples_ms),
        "agent_tick_ms_p90": len(samples_ms),
        "agent_tick_ms_cold_p50": len(admm_ms),
        "agent_tick_ms_max_iter_p50": len(max_iter_ms),
        "plan_fallback_frac": q["plan_calls"],
        "collision_agent_ticks": q["plan_calls"],
        "bench.trace_overhead_frac": 1 + len(timings),
        "agent_tick_ms_p50_raw": len(clock.samples),
        "cold_start_tick_ms_p50_raw": len(m.cold.samples),
        "bench.ref_slice_ms": len(clock.ref.seconds),
    })
    return values, counts


def machine_info():
    """What a result depends on besides the code: machine, BLAS threads, versions."""
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def blas_version(lib):
        try:
            return lib.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(np),
        "scipy_openblas": blas_version(scipy),
    }


def quiet_fallback_warnings():
    """A fallback is counted, not printed: keep dmpc's warning off stdout/stderr."""
    logging.getLogger(dmpc.__name__).setLevel(logging.ERROR)
