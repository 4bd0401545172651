import io

import numpy as np

import episode_digest


def write_digest(path, plans):
    """A one-episode digest in the layout episode_digest.dump writes."""
    rng = np.random.default_rng(3)
    np.savez(path, **{
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
