"""Dump DESK episodes of every run mode, or compare two dumps array by array.

    python3 tests/episode_digest.py --out FILE.npz
    python3 tests/episode_digest.py --compare A.npz B.npz

--out runs the desk-oracle and desk-eg episodes 1000, 1001 and 2000 (the
closed-loop and cold-start sensor seeds of benchmark seeds 1 and 2) through
swarmbench's set_up/run_one, with one BLAS thread. On the same DESK scenario
it also runs a 20-tick episode 1000 in each mode no workload runs (cv, vae
and eg+vae), the message modes over ChannelConfig(p_loss=0.3), with the
default PredictorConfig's parameters at default_rng(0) and a codec
calibration of 100. It writes their plans, true states and predictions, and
the name of the OpenBLAS kernel numpy ran them on. Run it once per commit
from that commit's checkout; the episodes come from the checkout the script
sits in.

--compare prints the two dumps' kernels when either records one, and says
when both do and they differ: the episodes' bits depend on the kernel. It
then prints, per episode, the largest absolute difference over those arrays
and whether the two dumps are bitwise equal. It exits non-zero when they
are not, or when their episodes or array shapes differ.
"""

import argparse
import ctypes
import os
import sys
from pathlib import Path

# The closed-loop trajectory depends on the BLAS thread count; a run pins it
# the way swarmbench/run.py does, before numpy loads. An import (the tests
# import compare) leaves the environment alone.
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

WORKLOADS = ("desk-oracle", "desk-eg")
EPISODE_SEEDS = (1000, 1001, 2000)
# the modes no workload runs: (mode, episode seed, ticks)
MODE_EPISODES = (("cv", 1000, 20), ("vae", 1000, 20), ("eg+vae", 1000, 20))
FIELDS = ("plans", "true_states", "pred_keys", "pred_values")
CORE_KEY = "openblas_core"


def openblas_core():
    """The name of the kernel numpy's bundled OpenBLAS selected for this CPU
    (scipy_openblas_get_corename64_), or None when numpy bundles none."""
    libs = sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    if not libs:
        return None
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def episode_arrays(trace):
    """The plans (ticks, n, 3P), true states (ticks, n, 6) and predictions of
    a trace; predictions as (tick, ego, target) keys and their values, in
    tick order and then key order."""
    keys = [(t, *k) for t, preds in enumerate(trace.predictions) for k in sorted(preds)]
    values = [trace.predictions[t][(ego, j)] for t, ego, j in keys]
    width = trace.plans[0].shape[1]
    return {"plans": np.array(trace.plans), "true_states": np.array(trace.true_states),
            "pred_keys": np.array(keys, dtype=np.int64).reshape(-1, 3),
            "pred_values": np.array(values, dtype=np.float64).reshape(-1, width)}


def dump(path):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "swarmbench"))
    import bench

    from swarmcoord.predictor import (
        CodecCalibration,
        PredictorConfig,
        TrajectoryPredictor,
        init_predictor_params,
    )
    from swarmcoord.swarmsim import ChannelConfig, RunMode, run_episode

    bench.quiet_fallback_warnings()
    out = {}

    def add(name, seed, trace):
        arrays = episode_arrays(trace)
        out.update({f"{name}.{seed}.{field}": a for field, a in arrays.items()})
        print(f"{name} {seed}: {len(arrays['plans'])} ticks", flush=True)

    for name in WORKLOADS:
        wl = bench.WORKLOADS[name]
        setup = bench.set_up(wl)
        for seed in EPISODE_SEEDS:
            add(name, seed, bench.run_one(wl, setup, seed))
    setup = bench.set_up(bench.WORKLOADS["desk-oracle"])
    pcfg = PredictorConfig()
    params = init_predictor_params(np.random.default_rng(0), pcfg)
    calibration = CodecCalibration(np.full(pcfg.traj_dim, 100.0))
    for mode, seed, ticks in MODE_EPISODES:
        channel = ChannelConfig(p_loss=0.3) if RunMode.parse(mode).uses_messages else None
        add(f"desk-{mode}", seed, run_episode(
            setup.scenario, mode, controller=setup.controller, channel=channel,
            ticks=ticks, seed=seed, bundle=setup.bundle, dynamics=setup.dynamics,
            predictor_factory=lambda: TrajectoryPredictor(params, pcfg,
                                                          calibration=calibration)))
    core = openblas_core()
    if core is not None:
        out[CORE_KEY] = np.array(core)
    np.savez(path, **out)


def recorded_core(path):
    """The OpenBLAS kernel a dump records, or None."""
    with np.load(path) as f:
        return str(f[CORE_KEY]) if CORE_KEY in f else None


def differences(path_a, path_b):
    """{episode: (largest absolute difference, bitwise equal)} over the
    episodes of either dump; (None, False) for an episode that is missing
    from one of them or whose array shapes differ."""
    with np.load(path_a) as fa, np.load(path_b) as fb:
        a, b = dict(fa), dict(fb)
    for arrays in (a, b):
        arrays.pop(CORE_KEY, None)
    episodes = sorted({k.rsplit(".", 1)[0] for k in a} | {k.rsplit(".", 1)[0] for k in b})
    out = {}
    for ep in episodes:
        names = [f"{ep}.{field}" for field in FIELDS]
        if not all(k in a and k in b and a[k].shape == b[k].shape for k in names):
            out[ep] = (None, False)
            continue
        equal = all(np.array_equal(a[k], b[k]) for k in names)
        worst = max((float(np.max(np.abs(a[k] - b[k]), initial=0.0)) for k in names
                     if a[k].dtype.kind == "f"), default=0.0)
        out[ep] = (worst, equal)
    return out


def compare(path_a, path_b, out=sys.stdout):
    """Print the kernels, then one line per episode; True when every array
    is bitwise equal."""
    cores = [recorded_core(p) for p in (path_a, path_b)]
    if any(cores):
        differ = all(cores) and cores[0] != cores[1]
        print(f"OpenBLAS kernel: {cores[0] or 'unrecorded'} and {cores[1] or 'unrecorded'}"
              + (", DIFFERENT: the kernel alone can move the episodes' bits" if differ
                 else ""), file=out)
    all_equal = True
    for ep, (worst, equal) in differences(path_a, path_b).items():
        if worst is None:
            print(f"{ep}: missing from one file or shapes differ", file=out)
        else:
            print(f"{ep}: max abs diff {worst:.3g}, "
                  f"{'bitwise equal' if equal else 'DIFFERENT'}", file=out)
        all_equal &= equal
    return all_equal


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", metavar="FILE.npz")
    group.add_argument("--compare", nargs=2, metavar=("A.npz", "B.npz"))
    args = parser.parse_args(argv)
    if args.out:
        dump(args.out)
        return 0
    return 0 if compare(*args.compare) else 1


if __name__ == "__main__":
    sys.exit(main())
