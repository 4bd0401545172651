import io

import numpy as np

import episode_digest


def write_digest(path, plans, core=None):
    """A one-episode digest in the layout episode_digest.dump writes, with
    `core` as its OpenBLAS kernel when given."""
    rng = np.random.default_rng(3)
    kernel = {} if core is None else {episode_digest.CORE_KEY: np.array(core)}
    np.savez(path, **kernel, **{
        "desk-oracle.1000.plans": plans,
        "desk-oracle.1000.true_states": rng.normal(size=(2, 4, 6)),
        "desk-oracle.1000.pred_keys": np.array([[0, 0, 1], [1, 1, 0]], dtype=np.int64),
        "desk-oracle.1000.pred_values": rng.normal(size=(2, 48)),
    })


class TestCompare:
    def test_equal_then_one_ulp_apart(self, tmp_path):
        plans = np.random.default_rng(4).normal(size=(2, 4, 48))
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        write_digest(a, plans)
        write_digest(b, plans.copy())
        out = io.StringIO()
        assert episode_digest.compare(a, b, out=out)
        assert out.getvalue() == "desk-oracle.1000: max abs diff 0, bitwise equal\n"

        moved = plans.copy()
        moved[1, 2, 7] = np.nextafter(moved[1, 2, 7], np.inf)
        write_digest(b, moved)
        out = io.StringIO()
        assert not episode_digest.compare(a, b, out=out)
        ulp = abs(moved[1, 2, 7] - plans[1, 2, 7])
        assert ulp > 0
        assert out.getvalue() == f"desk-oracle.1000: max abs diff {ulp:.3g}, DIFFERENT\n"
        assert episode_digest.main(["--compare", str(a), str(b)]) == 1

    def test_prints_both_kernels_and_says_when_they_differ(self, tmp_path):
        plans = np.random.default_rng(4).normal(size=(2, 4, 48))
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        episode = "desk-oracle.1000: max abs diff 0, bitwise equal\n"
        write_digest(a, plans, core="SkylakeX")
        write_digest(b, plans, core="SkylakeX")
        out = io.StringIO()
        assert episode_digest.compare(a, b, out=out)
        assert out.getvalue() == "OpenBLAS kernel: SkylakeX and SkylakeX\n" + episode

        write_digest(b, plans, core="Haswell")
        out = io.StringIO()
        assert episode_digest.compare(a, b, out=out)
        assert out.getvalue() == ("OpenBLAS kernel: SkylakeX and Haswell, DIFFERENT: the "
                                  "kernel alone can move the episodes' bits\n" + episode)

        write_digest(b, plans)
        out = io.StringIO()
        assert episode_digest.compare(a, b, out=out)
        assert out.getvalue() == "OpenBLAS kernel: SkylakeX and unrecorded\n" + episode
        assert episode_digest.differences(a, b) == {"desk-oracle.1000": (0.0, True)}


def test_openblas_core_names_the_running_kernel():
    # numpy's wheels bundle scipy-openblas; a build without it records none
    core = episode_digest.openblas_core()
    assert core is None or (isinstance(core, str) and core)
