"""Pinned sha256 digests of each subcommand's exit code, stdout and files.

Each of the ten subcommands runs in-process at one seed: the four spectral
commands and `dsmc` at the small sizes of the benchmark's `tiny` pass, the
two Monte Carlo self-tests at small sample counts, and the other three at
their defaults.  The four spectral CSVs are pinned once more as the
benchmark's `full` pass makes them: in one process, in that pass's order,
at their default N lists and the default 2048x2048 grid.  A change to how
the command line loads, runs or reports an experiment, or to how a grid is
built, must leave every one of these bytes as it is.  The chains and
grids evaluate `math.exp`, `math.log` and FFTs, whose last bits can differ
between C libraries, so another platform may need its own pins.
"""

import contextlib
import hashlib
import io

import pytest

from boltzsphere import cli

SEED = 20240901

# (argv before --seed and --out, exit code, {file name or "stdout": sha256})
RUNS = [
    (["geometry-selftest"], 0, {
        "geometry-selftest.csv": "bd90cda4bfe9a8c79f9717e32f92881c23b4713915eb2b5731662856b1bc5a83",
        "geometry-selftest.json": "8c308bac5fbd4b564c2dacdade600895faa5cafb5d68c4c2f61f6a3ff388aea4",
        "stdout": "773658d3569dd9a4187fa4199e367a2eafa287fb885d1df3f354957cf3af7604",
    }),
    (["uniform-marginal"], 0, {
        "uniform-marginal.csv": "b15d9ff021eac6b28f593c71931b78cb16f356eb5a4698411587a70697b14b62",
        "uniform-marginal.json": "0398b020bba2be707015e95116a3aeb79398530fdce3ff38320614af67d85958",
        "stdout": "9c9b5160cfe40ad1bc16e12ae4413427c0cb733f1fb04803c035165f74803ee3",
    }),
    (["l1-gap"], 0, {
        "l1-gap.csv": "41bb1b18250ae32eaaca51d6ccf8e676e5cba35e369d49ef1fb01d69236dfd33",
        "l1-gap.json": "72720c3946ffef1f30dd19f604a34fa644cb6e12a7ebebf1667ca1f845c69c23",
        "l1-gap.svg": "703b6465e3e910bbaf048a5a4b6526db2998add164741e87410907a541c7f0b1",
        "stdout": "4e8123115bcbbed9028e71dd275a7714c08c5d1ca186d2739715ce49fa65c98e",
    }),
    (["zprime", "--density", "uniform", "--n-list", "8,16", "--grid-shape", "512x512"], 0, {
        "zprime.csv": "d4309ada8531c5aa93c90f143b241833f2498b98a00336ec35ea7e6b9abc20a5",
        "zprime.json": "de178dc46ca4bc8b15d5a1f59ade02cc0b5153834d79c6ed589c0c2e1ecbc93b",
        "stdout": "f406d289ca0d0b89c9733ed5c0ae1b804e61b59243066761c5a5905a6144cc77",
    }),
    (["berry-esseen", "--n-list", "2,4,8"], 0, {
        "berry-esseen.csv": "33e99c77b23f81a93244dd293c67922c8060338e19c2b2f27c992a8611723a60",
        "berry-esseen.json": "ebacbe374d8841aac2f2ffaa705620673cd08cedaba75d38c2910e1bb9f72be7",
        "berry-esseen.svg": "40150494aa3ae90db272a56857a2578a9a5dd0c98a2d7dfc29c3297329ef6ff1",
        "stdout": "422166d9dfde05a60e574b501094897e4af28b39471c14a9d4f441a9c82fd4b3",
    }),
    (["w1-rate", "--n-list", "8,16", "--grid-shape", "512x512"], 0, {
        "w1-rate.csv": "d13ab237b45a08c7dfe25da662d9e6100e15493d9adaee4028998a92610ff296",
        "w1-rate.json": "bd552e97f1faa6114ea06fac5d4c90b684cb5b273b3d19e740760a1d40cc982e",
        "w1-rate.svg": "d0bffdfc1d09478100c0b75eb7b5a6978920036afb5c67810bf46b4684fc5969",
        "stdout": "d65d84941dd467b2599ebe705e724d44b393ce8a3b04d88c06da4aed943671ec",
    }),
    (["entropy-rate", "--n-list", "16,32", "--grid-shape", "512x512"], 0, {
        "entropy-rate.csv": "ca3db9242c987a97dba4b268a03e405b8587b1ff6bf503d8082e5763375ffc5b",
        "entropy-rate.json": "18d591b0dcc909f378019afcc1217fa4f8cfad9d49e6464f81f7ebeaccba20be",
        "entropy-rate.svg": "f0a61eabe193a0054313161ab5cf19f8f44787a2a550482c5a216bf785827dc7",
        "stdout": "c4a09b1be244344e2b7b977875ce5efe5b738e8b6547b03d133b6a7dbce89581",
    }),
    (["dsmc", "--replicas", "2", "--n-list", "16"], 0, {
        "dsmc.csv": "6377ecdd89bd9f7c4794a9216d229fac3cb51770d169270850b8148e52ea6689",
        "dsmc.json": "c5014ffa369470e3b1dbcb0f697fe017f93072910af5e8ea0c6d322e66bb1c0d",
        "stdout": "4ae9a53efcf367339ea6c083ea37f2bf426a769475f28bd2f8a0ae8a339fcfcd",
    }),
    (["ipp-check", "--samples", "200"], 0, {
        "ipp-check.csv": "f2e20a483e1fb84757f70f9597b5b8cbf6489ec718643bc2fc6407e443e7ef19",
        "ipp-check.json": "1a187da07144078999ad125735c27f510182885190feeb2f908c4f34036bc26e",
        "stdout": "872d83bb00faac320017190dd0699f1622e9b11da20e2e16e360eb0951a0519a",
    }),
    (["metrics-selftest", "--samples", "4000"], 0, {
        "metrics-selftest.csv": "d1a2c4d689dd07b59d6d266ae455218ec6e6e61955299a93467e9a853b5af8ab",
        "metrics-selftest.json": "0ed8847cbdbf8592ea675ecae20dbafccbbfc124df1a92f8b6f37bc990d60147",
        "stdout": "8c8e548769c4bfe10a67f9ffd58ea993b5251d7518e296d8b448f93d21cfe3ad",
    }),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv, code, want", RUNS, ids=[run[0][0] for run in RUNS])
def test_subcommand_outputs_are_pinned(tmp_path, argv, code, want):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv + ["--seed", str(SEED), "--out", str(tmp_path)]) == code
    got = {path.name: _sha(path.read_bytes()) for path in tmp_path.iterdir()}
    got["stdout"] = _sha(buf.getvalue().encode())
    assert got == want


# the spectral subcommands of the benchmark's full pass (perfbench/workloads.py)
DEFAULT_SPECTRAL = [
    (["w1-rate"], "f6afeb5829223f43b1d81796d2b7ac735bdad3b6bc30d6e177c61db2049bf885"),
    (["entropy-rate"], "4040090cb88b4c321eab112ad6fb8b6ce5f5e949fa6305fb4ae82e1220785be2"),
    (["zprime", "--density", "uniform"], "f89edac8f26b78d959e3a2c20f1297cb234df0933ac9e44037dd7894b988b9e7"),
    (["berry-esseen"], "7c73cd8b4e9d16459bd89f7881144c6c5bc558a4e83b815da0ca3c7317e82e9b"),
]


def test_default_shape_spectral_csvs_are_pinned(tmp_path):
    got = {}
    for argv, _ in DEFAULT_SPECTRAL:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["--seed", str(SEED), "--out", str(tmp_path), "--jobs", "1"]) == 0
        got[argv[0]] = _sha((tmp_path / f"{argv[0]}.csv").read_bytes())
    assert got == {argv[0]: want for argv, want in DEFAULT_SPECTRAL}
