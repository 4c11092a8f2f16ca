"""Pinned sha256 digests of outputs that the random streams and the metric
estimators feed.

A speed change must leave these bytes as they are.  A change that re-rolls a
random stream on purpose updates the pins and says so in CHANGES.md.  The
chains evaluate `math.exp` and `math.log`, whose last bits can differ between
C libraries, so another platform may need its own pins.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

import boltzsphere as bs
from boltzsphere import cli, dsmc
from boltzsphere.conditioned import ConditionedLaw, sample_conditioned_batch
from boltzsphere.dsmc import CollisionKernel, ConditionedInitial

SEED = 20240901


def test_metrics_selftest_csv_is_pinned(tmp_path):
    argv = ["metrics-selftest", "--samples", "4000", "--seed", str(SEED), "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    digest = hashlib.sha256((tmp_path / "metrics-selftest.csv").read_bytes()).hexdigest()
    assert digest == "d1a2c4d689dd07b59d6d266ae455218ec6e6e61955299a93467e9a853b5af8ab"


# the four (density, move) cases of the montecarlo benchmark workload, each
# seeded SEED + its position as there
CHAINS = [
    ("uniform", 1, 64, "2df885ba452be82d67fc6a23d6e74d4c619324e25969cac99bb1b8c730a48282"),
    ("mixture", 3, 64, "38b41ff4b05e584638825b5f8127980578d1ae4787d1f3a16620c96a6d6371e1"),
    ("gaussian", 1, 16, "999f81b2f6ff3f050d2ae5073fe4ae621c629452277fcf248a2ed244bda2da76"),
    ("gaussian", 2, 16, "09f256016418fa03455b2d7f1a9e58627d5adafccae62a15af53921113a87dc4"),
]


@pytest.mark.parametrize("k", range(len(CHAINS)), ids=[f"{c[0]}-d{c[1]}" for c in CHAINS])
def test_chain_states_are_pinned(k):
    density, d, N, want = CHAINS[k]
    law = ConditionedLaw(f=bs.get_density(density, d), spec=bs.SphereSpec.boltzmann(d, N))
    states = sample_conditioned_batch(law, SEED + k, 200)
    assert states.shape == (200, N, d)
    assert hashlib.sha256(states.tobytes()).hexdigest() == want


def test_collision_run_is_pinned():
    # each 620-mean-free-time interval at N = 32 expects about 9,900 events,
    # so every replica's walk runs over several kernel blocks
    states = []

    def snapshot(v):
        states.append(v.copy())
        return float(v[0, 0])

    res = dsmc.run(ConditionedInitial("mixture", 3, 32), CollisionKernel.uniform(3), t_end=1240.0,
                   n_replicas=2, observables=("m2", "m4", snapshot), seed=SEED, n_times=3)
    rows = hashlib.sha256(repr(res.rows()).encode()).hexdigest()
    assert rows == "daa03933614e0ae701959629c0638684abbd5c19ac09316046afbdc88e7f0c90"
    finals = np.stack(states[2::3])  # each replica's velocities at t_end
    assert hashlib.sha256(finals.tobytes()).hexdigest() == (
        "3d546e60e40dc77fe011861eaf00ec707f6b171805979e33431d6bde240785b1"
    )


# the stream and size of the dsmc subcommand's drift check, over 20,000 events
WALKS = [
    (2, "7e90e939de1e60caff14b39a66e5afce966845c7836f6496c5b6e478d39cb50a", 0.9872839701116183),
    (3, "84f3e51176e058f71715e6da4638e039f829636b80d09bd1d4223537fe0686b4", 0.9819003744764648),
]


@pytest.mark.parametrize("d, want, next_draw", WALKS, ids=[f"d{w[0]}" for w in WALKS])
def test_collision_walk_is_pinned(d, want, next_draw):
    kernel = CollisionKernel.uniform(d)
    gen = bs.stream(SEED, "dsmc-drift")
    v = bs.uniform.sample_uniform(bs.SphereSpec.boltzmann(d, 256), gen)
    target = 20_000 / kernel.rate(256)
    assert dsmc._advance(v, 0.0, target, kernel, gen) == target
    assert hashlib.sha256(v.tobytes()).hexdigest() == want
    assert gen.random() == next_draw  # the walk drew as many numbers as before
