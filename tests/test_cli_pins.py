"""Pinned sha256 digests of each subcommand's exit code, stdout and files.

Each of the ten subcommands runs in-process at one seed: the four spectral
commands and `dsmc` at the small sizes of the benchmark's `tiny` pass, the
two Monte Carlo self-tests at small sample counts, and the other three at
their defaults; `l1-gap` runs once more at `--d 3`.  The four spectral CSVs
are pinned once more as the benchmark's `full` pass makes them: in one
process, in that pass's order, at their default N lists and the default
2048x2048 grid.  A change to how
the command line loads, runs or reports an experiment, or to how a grid is
built, must leave every one of these bytes as it is.  The chains and
grids evaluate `math.exp`, `math.log` and FFTs, whose last bits can differ
between C libraries, so another platform may need its own pins.

The `.csv` and `.json` digests of `l1-gap` (both runs), `berry-esseen`,
`w1-rate` and `entropy-rate`, and the four default-shape CSVs, were
re-pinned when the rate CSVs lost their all-zero `stderr` columns (and
`w1-rate` its `metric_name` column, `entropy-rate` its two rows per N) and
every rate JSON gained its slope window; `zprime`'s, when its leading-order
Z'_N took r^2 = dN itself.  Their stdout and `.svg` digests did not move,
and `test_rate_fits_and_values_are_pinned` holds the fit bits and every
value of the rate runs as they were before.  `berry-esseen`'s stdout and
`.json` were re-pinned when its C/sqrt(N) bound took `w1-rate`'s form,
calibrated at the first N and checked as max sqrt(N) value / C <= 1, and
its JSON gained that bound's `bound` key.
"""

import contextlib
import hashlib
import io
import json
import re

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
        "l1-gap.csv": "330218633fbf8f5da4e1b05fcc09b659b5a605999ca880a4b1e1abd0522c88f8",
        "l1-gap.json": "79cf621ac715300d1a44e20e31f1f60a9525029e185ed26d7a1c941d251223ec",
        "l1-gap.svg": "703b6465e3e910bbaf048a5a4b6526db2998add164741e87410907a541c7f0b1",
        "stdout": "4e8123115bcbbed9028e71dd275a7714c08c5d1ca186d2739715ce49fa65c98e",
    }),
    (["zprime", "--density", "uniform", "--n-list", "8,16", "--grid-shape", "512x512"], 0, {
        "zprime.csv": "d32057e4b43ab2f1aa62aa9fc43954380dced2dd6b5b10e8602d8917a35e62fc",
        "zprime.json": "de178dc46ca4bc8b15d5a1f59ade02cc0b5153834d79c6ed589c0c2e1ecbc93b",
        "stdout": "f406d289ca0d0b89c9733ed5c0ae1b804e61b59243066761c5a5905a6144cc77",
    }),
    (["berry-esseen", "--n-list", "2,4,8"], 0, {
        "berry-esseen.csv": "3e410893285c0b80b557c63d59f081beaf37fbb2bc01ba2c3e566fcc6e1b00f3",
        "berry-esseen.json": "8490028bc1f659336d3945c6c8792e60f0cc7762f2f70e0a60df03872bf10ef7",
        "berry-esseen.svg": "40150494aa3ae90db272a56857a2578a9a5dd0c98a2d7dfc29c3297329ef6ff1",
        "stdout": "9683a8df3a9cde7687bc7623e416c91b0f3d97965329f1eb30b600c019e8f93e",
    }),
    (["w1-rate", "--n-list", "8,16", "--grid-shape", "512x512"], 0, {
        "w1-rate.csv": "4796677d3820778a9ead93e0af5fc08a32fb01287529759755739771a8afbca8",
        "w1-rate.json": "377a370f244641cb47dfd3506d9e0060aa4371954821d5cafe507f7d694e9fc4",
        "w1-rate.svg": "d0bffdfc1d09478100c0b75eb7b5a6978920036afb5c67810bf46b4684fc5969",
        "stdout": "d65d84941dd467b2599ebe705e724d44b393ce8a3b04d88c06da4aed943671ec",
    }),
    (["entropy-rate", "--n-list", "16,32", "--grid-shape", "512x512"], 0, {
        "entropy-rate.csv": "65a56cc5e9fe74ffe9f8489f17bb7f6610f423c0eb65f8578f36bdce96ba5f18",
        "entropy-rate.json": "0d07b1e41cf521c4f9417225a18893e3cb963c84c93431b018704917da87c499",
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


def _run(tmp_path, argv, code, seed=SEED) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv + ["--seed", str(seed), "--out", str(tmp_path)]) == code
    got = {path.name: _sha(path.read_bytes()) for path in tmp_path.iterdir()}
    got["stdout"] = _sha(buf.getvalue().encode())
    return got


@pytest.mark.parametrize("argv, code, want", RUNS, ids=[run[0][0] for run in RUNS])
def test_subcommand_outputs_are_pinned(tmp_path, argv, code, want):
    assert _run(tmp_path, argv, code) == want


def test_l1_gap_at_d3_is_pinned(tmp_path):
    assert _run(tmp_path, ["l1-gap", "--d", "3"], 0) == {
        "l1-gap.csv": "e2f3853b1ac0416171d0e2f97f228994471c45a37a85ae387905a495064f1b8c",
        "l1-gap.json": "51f1fe6966d1a46486a9a707803912f584c87154c24778c0711e4f626efd0052",
        "l1-gap.svg": "3ca5063f61266d1c8a9452eebb72a3e845af9d8f943f891606147d187fa938e1",
        "stdout": "bc3b4db3f4350720f6e015aa0f7c0bb1c6eaec947e57120b837940b9b4087774",
    }


def test_l1_gap_values_do_not_depend_on_the_seed(tmp_path):
    # the gap is a closed form: only the header's config hash moves
    csv = {}
    for seed in (1, 2):
        _run(tmp_path / str(seed), ["l1-gap", "--d", "3"], 0, seed=seed)
        csv[seed] = (tmp_path / str(seed) / "l1-gap.csv").read_text().splitlines()
    assert csv[1][1:] == csv[2][1:]
    assert csv[1][0] != csv[2][0]
    assert re.sub("config_hash=[0-9a-f]+", "", csv[1][0]) == re.sub("config_hash=[0-9a-f]+", "", csv[2][0])


# the spectral subcommands of the benchmark's full pass (perfbench/workloads.py)
DEFAULT_SPECTRAL = [
    (["w1-rate"], "b328399c664c45bb64f57d9e64992cf7fb573ac549ac0cb91504afc259d8fbf8"),
    (["entropy-rate"], "ab1e6d6b83d9cbcfa5ceb4f6bd08ae8abf02439f9444dfacf9bf90a112f7a809"),
    (["zprime", "--density", "uniform"], "50f5a92989ae1bf2ac06b4420ba2e7aa996ba560e5ada15bb60e2a826e7649c3"),
    (["berry-esseen"], "d403db5dd37677583ffa4e4f5180e0b56d377cc1a56042ebe45b5333bec7d5bc"),
]


def test_default_shape_spectral_csvs_are_pinned(tmp_path):
    got = {}
    for argv, _ in DEFAULT_SPECTRAL:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["--seed", str(SEED), "--out", str(tmp_path), "--jobs", "1"]) == 0
        got[argv[0]] = _sha((tmp_path / f"{argv[0]}.csv").read_bytes())
    assert got == {argv[0]: want for argv, want in DEFAULT_SPECTRAL}


def _values_by_n(csv_text: str) -> dict:
    """{N: [repr of each value]} of a rate CSV, in row and then column order.

    N, stderr and metric_name columns are not values, so a CSV that keeps
    each value's bits and its order within one N reads the same whether it
    writes one value per row or one N per row.
    """
    header, *lines = csv_text.splitlines()[1:]
    columns = header.split(",")
    out = {}
    for line in lines:
        cells = dict(zip(columns, line.split(",")))
        n = int(cells.pop("N"))
        out.setdefault(n, []).extend(
            repr(float(v)) for k, v in cells.items() if k not in ("stderr", "metric_name")
        )
    return out


def _fit_bits(fit):
    if fit is None:
        return None
    return [float.hex(x) for x in (fit["slope"], fit["intercept"], *fit["ci95"])]


# (argv before --seed and --out, float.hex of the fit's slope, intercept and
# ci95 bounds or None for a Gaussian fixed point, {N: value reprs})
RATE_VALUES = [
    (["l1-gap"],
     ["-0x1.184ed6b494e5fp+0", "0x1.3fd619486dcc0p-4",
      "-0x1.23ca38dc58246p+0", "-0x1.0cd3748cd1a78p+0"],
     {
         10: ["0.08961908933132778", "2.0"],
         20: ["0.03923984462144503", "0.6666666666666666"],
         50: ["0.014629562094838677", "0.2222222222222222"],
         100: ["0.007154356508441095", "0.10526315789473684"],
     }),
    (["l1-gap", "--d", "3"],
     ["-0x1.12c06a6cc950bp+0", "-0x1.9e32c3d20e220p-3",
      "-0x1.1b5571f648f05p+0", "-0x1.0a2b62e349b11p+0"],
     {
         10: ["0.07062152441145209", "1.1578947368421053"],
         20: ["0.03193472949021636", "0.4489795918367347"],
         50: ["0.01208756977102765", "0.15827338129496402"],
         100: ["0.005937908246990364", "0.07612456747404844"],
     }),
    (["berry-esseen", "--n-list", "2,4,8"],
     ["-0x1.04fd34666fee2p+0", "-0x1.65d749df0a610p+1",
      "-0x1.289116de50d4dp+0", "-0x1.c2d2a3dd1e0eep-1"],
     {
         2: ["0.030995521672931126"],
         4: ["0.014042100990208028"],
         8: ["0.007542332156291354"],
     }),
    (["w1-rate", "--n-list", "8,16", "--grid-shape", "512x512"],
     ["-0x1.129d048b0080fp+0", "-0x1.fe412613dc2d0p+0",
      "-0x1.129d048b00817p+0", "-0x1.129d048b00807p+0"],
     {
         8: ["0.014642661341593918"],
         16: ["0.006961496559549793"],
     }),
    (["entropy-rate", "--n-list", "16,32", "--grid-shape", "512x512"],
     ["-0x1.08bbde8e96839p+0", "-0x1.4bb8672a4c504p-1",
      "-0x1.08bbde8e96839p+0", "-0x1.08bbde8e96839p+0"],
     {
         16: ["0.029745677717919083", "0.1467395305927534"],
         32: ["0.01452525397708293", "0.16195995433358956"],
     }),
    (["berry-esseen", "--n-list", "2,4", "--density", "gaussian"],
     None,
     {
         2: ["2.7865793006398576e-10"],
         4: ["5.573160266614252e-10"],
     }),
    (["entropy-rate", "--n-list", "16,32", "--density", "gaussian"],
     None,
     {
         16: ["0.0", "0.0"],
         32: ["0.0", "0.0"],
     }),
]


@pytest.mark.parametrize("argv, fit, values", RATE_VALUES, ids=[" ".join(r[0]) for r in RATE_VALUES])
def test_rate_fits_and_values_are_pinned(tmp_path, argv, fit, values):
    _run(tmp_path, argv, 0)
    report = json.loads((tmp_path / f"{argv[0]}.json").read_text())
    assert _fit_bits(report["fit"]) == fit
    assert _values_by_n((tmp_path / f"{argv[0]}.csv").read_text()) == values


@pytest.mark.parametrize("name", [name for name, row in cli.EXPERIMENTS.items() if row.rate is not None])
def test_rate_json_fits_the_csv_first_two_columns(tmp_path, name):
    argv = next(argv for argv, _, _ in RUNS if argv[0] == name)
    _run(tmp_path, argv, 0)
    header, *lines = (tmp_path / f"{name}.csv").read_text().splitlines()[1:]
    assert "stderr" not in header.split(",")
    fit = json.loads((tmp_path / f"{name}.json").read_text())["fit"]
    assert [(r["N"], r["value"]) for r in fit["rows"]] == [
        (int(n), float(v)) for n, v, *_ in (line.split(",") for line in lines)
    ]
    assert fit["tolerance"] == [None, cli.EXPERIMENTS[name].rate.hi] and fit["passed"] is True
