import argparse
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from boltzsphere import cli, geometry, lifted
from boltzsphere.errors import ParameterError
from boltzsphere.geometry import SphereSpec
from boltzsphere.uniform import UniformMarginal, marginal_moment


def run_cli(argv):
    return cli.main(argv)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestConfigHandling:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_density_is_config_error(self, tmp_path):
        code = run_cli(["l1-gap", "--density", "gaussian", "--out", str(tmp_path)])
        assert code == 0  # valid density accepted
        with pytest.raises(SystemExit):
            run_cli(["l1-gap", "--density", "cauchy", "--out", str(tmp_path)])

    def test_config_file_parsing(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("n_list = 10,20\nseed = 7  # comment\n")
        code = run_cli(["l1-gap", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert code == 0
        data = json.loads(read(tmp_path / "l1-gap.json"))
        assert data["config"]["seed"] == 7
        assert data["config"]["n_list"] == "10,20"

    def test_malformed_config_exits_3(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("this line has no equals\n")
        code = run_cli(["l1-gap", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    def test_unknown_config_key_exits_3(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("banana = 3\n")
        code = run_cli(["l1-gap", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    def test_unknown_tolerance_profile_in_file_exits_3(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("tolerance_profile = strcit\n")
        code = run_cli(["l1-gap", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    def test_experiment_key_in_file_exits_3(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("experiment = banana\n")
        code = run_cli(["l1-gap", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    def test_non_increasing_n_list_exits_3(self, tmp_path):
        code = run_cli(["l1-gap", "--n-list", "20,10", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    def test_w1_rate_single_n_is_config_error(self, tmp_path):
        code = run_cli(["w1-rate", "--n-list", "8", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["berry-esseen", "--n-list", "2"],
        ["berry-esseen", "--n-list", "2", "--density", "gaussian"],
        ["berry-esseen", "--n-list", "2", "--density", "mixture"],
        ["entropy-rate", "--n-list", "16", "--grid-shape", "512x512"],
        ["l1-gap", "--n-list", "10"],
    ])
    def test_rate_experiment_single_n_is_config_error(self, tmp_path, capsys, argv):
        # one N has no rate to plot; the check runs before any grid or lattice
        assert run_cli(argv + ["--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {argv[0]} needs at least two values of N to plot a rate\n"
        )
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, config", [
        (["zprime", "--grid-shape", "0x0"], ""),
        (["zprime", "--grid-shape", "512x-4"], ""),
        (["ipp-check", "--samples", "-1"], ""),
        (["ipp-check", "--samples", "0"], ""),
        (["dsmc", "--replicas", "0"], ""),
        (["dsmc", "--jobs", "0"], ""),
        (["dsmc", "--t-end", "-1"], ""),
        (["dsmc", "--t-end", "0"], ""),
        (["dsmc"], "n_times = 0\n"),
        (["berry-esseen"], "be_cells = 0\n"),
        (["zprime", "--n-list=-4,8"], ""),
        (["berry-esseen", "--n-list", "0,2"], ""),
        (["dsmc", "--t-end", "inf"], ""),
        (["l1-gap", "--d", "0"], ""),
        (["dsmc", "--d", "-1"], ""),
        (["zprime", "--grid-shape", "3x64", "--n-list", "8"], ""),
    ])
    def test_impossible_sizes_exit_3(self, tmp_path, capsys, argv, config):
        if config:
            cfgfile = tmp_path / "sizes.cfg"
            cfgfile.write_text(config)
            argv = argv + ["--config", str(cfgfile)]
        assert run_cli(argv + ["--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("cells", [1001, (1 << 18) + 1])
    def test_odd_berry_esseen_lattice_exits_3(self, tmp_path, capsys, cells):
        # an odd lattice has no node at the origin, so every convolution
        # would shift the result by half a cell
        cfgfile = tmp_path / "cells.cfg"
        cfgfile.write_text(f"be_cells = {cells}\n")
        out = tmp_path / "out"
        assert run_cli(["berry-esseen", "--config", str(cfgfile), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: be_cells must be even (origin on the lattice), got {cells}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["w1-rate", "entropy-rate", "zprime", "berry-esseen", "uniform-marginal"]
    )
    def test_d1_experiment_rejects_other_d(self, tmp_path, capsys, command):
        # these run the d = 1 grid, lattice or marginal; a --d 2 run would be
        # a d = 1 run with "d": 2 in its report
        assert run_cli([command, "--d", "2", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {command} runs at d = 1 only, got d = 2\n"
        assert not list(tmp_path.iterdir())

    def test_ipp_check_one_sample_is_not_enough(self, tmp_path, capsys):
        # one sample has no standard error, so no z-test can be run on it
        assert run_cli(["ipp-check", "--samples", "1", "--out", str(tmp_path)]) == cli.EXIT_RUNTIME
        assert "not enough samples" in capsys.readouterr().err

    def test_dsmc_takes_exactly_one_n(self, tmp_path, capsys):
        # dsmc simulates one N; a longer list would run its last N only and
        # record the whole list in its report
        argv = ["dsmc", "--n-list", "8,16", "--replicas", "2", "--t-end", "2"]
        out = tmp_path / "out"
        assert run_cli(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: dsmc runs one N; n_list has 2 values\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--replicas", "1"], "dsmc needs at least two replicas for error bars, got 1"),
        (["--d", "1"], "dsmc collides pairs in d >= 2, got d = 1"),
        (["--n-list", "2"], "dsmc needs N >= 3 (the d >= 2 conditioned chain of its start), got N = 2"),
        (["--n-list", "1"], "dsmc needs N >= 3 (the d >= 2 conditioned chain of its start), got N = 1"),
    ])
    def test_dsmc_rejects_impossible_settings_before_running(self, tmp_path, capsys, argv, message):
        # rejected before the drift check runs and before the output
        # directory is made
        out = tmp_path / "out"
        assert run_cli(["dsmc"] + argv + ["--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["uniform-marginal", "--n-list", "2,4"],
         "uniform-marginal needs N >= 3 (at N = 2 the sphere is two points), got N = 2"),
        (["l1-gap", "--n-list", "4,10"],
         "l1-gap needs N >= 6 at d = 1 (the chaos regime d <= d(N - 2) - 3), got N = 4"),
        (["l1-gap", "--d", "2", "--n-list", "4,10"],
         "l1-gap needs N >= 5 at d = 2 (the chaos regime d <= d(N - 2) - 3), got N = 4"),
        (["l1-gap", "--d", "3", "--n-list", "3,10"],
         "l1-gap needs N >= 4 at d = 3 (the chaos regime d <= d(N - 2) - 3), got N = 3"),
        (["w1-rate", "--n-list", "2,8"], "w1-rate needs N >= 4 (the d = 1 conditioned law), got N = 2"),
        (["entropy-rate", "--n-list", "3,8"],
         "entropy-rate needs N >= 4 (the d = 1 conditioned law), got N = 3"),
    ])
    def test_n_below_the_experiment_minimum_is_config_error(self, tmp_path, capsys, argv, message):
        # each would fail in its first computation, after the output
        # directory is made, with a message about the library call
        out = tmp_path / "out"
        assert run_cli(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["l1-gap", "--n-list", "6,10"],
        ["l1-gap", "--d", "2", "--n-list", "5,10"],
        ["l1-gap", "--d", "3", "--n-list", "4,10"],
    ])
    def test_l1_gap_runs_at_its_smallest_n(self, tmp_path, argv):
        assert run_cli(argv + ["--out", str(tmp_path)]) == cli.EXIT_OK

    def test_l1_gap_rejects_n_past_its_closed_form_range(self, tmp_path, capsys):
        # at N = 10^7 the difference of the two shell masses is 1% off
        out = tmp_path / "out"
        assert run_cli(["l1-gap", "--n-list", "10,10000000", "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: l1-gap needs N <= 10^6, where its closed form is within 1e-5 "
            "(it loses digits beyond: 1e-2 at N = 10^7), got N = 10000000\n"
        )
        assert not out.exists()

    def test_l1_gap_runs_at_its_largest_n(self, tmp_path):
        assert run_cli(["l1-gap", "--n-list", "10,1000000", "--out", str(tmp_path)]) == cli.EXIT_OK

    def test_zprime_rejects_one_particle_before_running(self, tmp_path, capsys):
        # the N = 1 worker would fail only after the other worker's grid
        out = tmp_path / "out"
        assert run_cli(["zprime", "--n-list", "1,2", "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: zprime needs N >= 2 (Z'_1 is a point mass), got N = 1\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command", [
        "uniform-marginal", "l1-gap", "zprime", "berry-esseen", "w1-rate", "entropy-rate", "dsmc",
    ])
    def test_empty_n_list_is_config_error(self, tmp_path, capsys, command, source):
        # an empty list would check no N, or fail on its first N with a traceback
        out = tmp_path / "out"
        if source == "flag":
            argv = ["--n-list", ""]
        else:
            cfgfile = tmp_path / "empty.cfg"
            cfgfile.write_text("n_list =\n")
            argv = ["--config", str(cfgfile)]
        assert run_cli([command] + argv + ["--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {command} needs at least one N; n_list is empty\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, want", [
        ("geometry-selftest", "b39b3f6dd412"),
        ("uniform-marginal", "0db5c4c013d8"),
        ("l1-gap", "60e50fa13a94"),
        ("zprime", "bbe328b644b5"),
        ("berry-esseen", "89d416c0da35"),
        ("w1-rate", "79a0fbb13674"),
        ("entropy-rate", "81bd66105136"),
        ("dsmc", "c7b9563eddcf"),
        ("ipp-check", "870e3efbb759"),
        ("metrics-selftest", "97d7762122e4"),
    ])
    def test_default_config_hash_is_pinned(self, tmp_path, command, want):
        # the hash heads every CSV; a schema change that moves it moves a
        # byte of every report.  The config is loaded from the experiment's
        # row of the table and not run.
        args = cli.build_parser().parse_args([command, "--out", str(tmp_path)])
        assert cli._load_config(args, command).hash() == want

    @pytest.mark.parametrize("flag, value", [
        ("--density", "gaussian"), ("--n-list", "8"), ("--d", "2"), ("--samples", "100"),
        ("--replicas", "2"), ("--grid-shape", "64x64"), ("--t-end", "1"),
    ])
    def test_report_rejects_experiment_flags(self, flag, value):
        # report runs every experiment at its defaults and would ignore them
        cli.build_parser().parse_args(["dsmc", flag, value])  # valid on an experiment
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["report", flag, value])
        assert exc.value.code == 2

    def test_consecutive_mains_see_only_their_own_flags(self, monkeypatch):
        # the parser is built once per process and parses every call afresh
        built, seen = [], []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        monkeypatch.setattr(cli, "run_experiment", lambda name, args: seen.append(vars(args)) or 0)
        cli._parser.cache_clear()
        try:
            assert cli.main(["zprime", "--density", "uniform", "--n-list", "8,16", "--seed", "3"]) == 0
            assert cli.main(["dsmc", "--replicas", "4", "--t-end", "2.5", "--out", "o"]) == 0
        finally:
            cli._parser.cache_clear()
        assert built == [1]
        unset = dict.fromkeys(["config", "seed", "out", "jobs", "tolerance_profile", "density",
                               "n_list", "d", "samples", "replicas", "grid_shape", "t_end"])
        assert seen == [
            {**unset, "command": "zprime", "density": "uniform", "n_list": "8,16", "seed": 3},
            {**unset, "command": "dsmc", "replicas": 4, "t_end": 2.5, "out": "o"},
        ]


class TestReport:
    def test_report_records_every_experiment_past_errors(self, monkeypatch, tmp_path, capsys):
        # every row shrunk as below: at a 128 x 128 grid w1-rate's Z'_64 is
        # off (runtime error, exit 5), and dsmc runs one N (config error,
        # exit 3); the rest still run
        small = {"grid_shape": "128x128", "n_list": "8,64", "be_cells": "4096", "samples": "200"}
        for name, row in list(cli.EXPERIMENTS.items()):
            shrunk = dataclasses.replace(row, defaults={**row.defaults, **small})
            monkeypatch.setitem(cli.EXPERIMENTS, name, shrunk)
        out = tmp_path / "out"
        assert run_cli(["report", "--out", str(out)]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert "config error: dsmc runs one N; n_list has 2 values" in err
        assert any(line.startswith("error: log Z'_64") for line in err)
        summary = json.loads(read(out / "report.json"))
        codes = {name: info["exit_code"] for name, info in summary["experiments"].items()}
        assert sorted(codes) == sorted(cli.EXPERIMENTS)
        assert codes["w1-rate"] == cli.EXIT_RUNTIME and codes["dsmc"] == cli.EXIT_CONFIG
        assert codes["metrics-selftest"] == cli.EXIT_OK and summary["passed"] is False
        rows = read(out / "report.csv").decode().splitlines()[2:]
        assert rows == [f"{name},{codes[name]},{int(codes[name] == 0)}" for name in sorted(codes)]
        assert (out / "metrics-selftest.csv").exists() and not (out / "w1-rate.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("density", "gaussian"), ("n_list", "8,64"), ("d", "2"), ("samples", "100"),
        ("replicas", "2"), ("grid_shape", "64x64"), ("t_end", "1"), ("be_cells", "4096"),
        ("n_times", "3"), ("experiment", "dsmc"), ("banana", "1"),
    ])
    def test_report_config_refuses_what_its_flags_refuse(self, monkeypatch, tmp_path, capsys, key, value):
        # the file would apply the key to all ten experiments; it is refused
        # once, before any experiment runs or any directory is made
        ran = []
        monkeypatch.setattr(cli, "run_experiment", lambda name, args: ran.append(name) or cli.EXIT_OK)
        cfgfile = tmp_path / "report.cfg"
        cfgfile.write_text(f"seed = 5\n{key} = {value}\n")
        out = tmp_path / "out"
        assert run_cli(["report", "--config", str(cfgfile), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: report runs every experiment at its defaults; its config may set only "
            f"jobs, out, seed, tolerance_profile, got {key}\n"
        )
        assert ran == [] and not out.exists()

    def test_report_config_reaches_every_experiment_and_the_bundle(self, monkeypatch, tmp_path):
        # the file's out sends the experiments and report.json to one place;
        # a flag still beats the file
        seen = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda name, args: seen.append(cli._load_config(args, name)) or cli.EXIT_OK)
        out = tmp_path / "elsewhere"
        cfgfile = tmp_path / "report.cfg"
        cfgfile.write_text(f"out = {out}\nseed = 5\njobs = 2\n")
        monkeypatch.chdir(tmp_path)
        assert run_cli(["report", "--config", str(cfgfile), "--jobs", "1"]) == cli.EXIT_OK
        assert [(c.out, c.seed, c.jobs) for c in seen] == [(str(out), 5, 1)] * len(cli.EXPERIMENTS)
        assert sorted(p.name for p in out.iterdir()) == ["report.csv", "report.json"]
        assert not (tmp_path / "out").exists()

    def test_one_list_of_experiments(self, monkeypatch, tmp_path):
        # the table, the parser, README's command block and the experiments
        # that report runs name the same ten subcommands, in one order
        table = list(cli.EXPERIMENTS)
        assert len(table) == 10
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == table + ["report"]
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        assert [line.split()[1] for line in block.splitlines() if line.strip()] == table + ["report"]
        ran = []
        monkeypatch.setattr(cli, "run_experiment", lambda name, args: ran.append(name) or cli.EXIT_OK)
        assert run_cli(["report", "--out", str(tmp_path)]) == cli.EXIT_OK
        assert ran == table


class TestOutputs:
    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli(["uniform-marginal", "--seed", "5", "--out", str(out)]) == 0
        assert read(out_a / "uniform-marginal.csv") == read(out_b / "uniform-marginal.csv")
        assert read(out_a / "uniform-marginal.json") == read(out_b / "uniform-marginal.json")

    def test_csv_header_has_units_and_hash(self, tmp_path):
        assert run_cli(["uniform-marginal", "--out", str(tmp_path)]) == 0
        first = read(tmp_path / "uniform-marginal.csv").decode().splitlines()[0]
        assert first.startswith("#")
        assert "config_hash=" in first
        assert "units=" in first

    def test_json_carries_config_hash(self, tmp_path):
        assert run_cli(["uniform-marginal", "--out", str(tmp_path)]) == 0
        data = json.loads(read(tmp_path / "uniform-marginal.json"))
        assert len(data["config_hash"]) == 12
        assert data["passed"] is True

    def test_svg_emitted_for_rate_fit(self, tmp_path):
        assert run_cli(["l1-gap", "--out", str(tmp_path)]) == 0
        svg = read(tmp_path / "l1-gap.svg").decode()
        assert svg.startswith("<svg") and "polyline" in svg


@pytest.mark.parametrize("d, N", [(3, 256), (3, 32), (2, 12), (2, 64)])
def test_dsmc_m4_target_is_the_uniform_marginal_moment(d, N):
    # |v1|^2 / M is Beta(d/2, (M-d)/2) with M = d(N-1), so E|v1|^4 = d(d+2) M/(M+2)
    M = d * (N - 1)
    got = marginal_moment(UniformMarginal(SphereSpec.boltzmann(d, N), 1), 4)
    assert got == pytest.approx(d * (d + 2) * M / (M + 2), rel=1e-12)


class TestSmallExperiments:
    def test_geometry_selftest(self, tmp_path):
        assert run_cli(["geometry-selftest", "--out", str(tmp_path)]) == 0

    def test_zprime_small(self, tmp_path):
        code = run_cli([
            "zprime", "--density", "gaussian", "--n-list", "8,16",
            "--grid-shape", "1024x1024", "--out", str(tmp_path),
        ])
        assert code == 0

    def test_berry_esseen_small(self, tmp_path):
        cfgfile = tmp_path / "be.cfg"
        cfgfile.write_text("be_cells = 65536\nn_list = 2,4,8\n")
        code = run_cli(["berry-esseen", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert code == 0

    def test_berry_esseen_calibrates_its_bound_at_the_first_n(self, tmp_path, capsys):
        # the bound is checked whether or not N = 2 is in the list
        assert run_cli(["berry-esseen", "--n-list", "4,8,16", "--out", str(tmp_path)]) == 0
        assert "C calibrated at N=4" in capsys.readouterr().out
        bound = json.loads(read(tmp_path / "berry-esseen.json"))["bound"]
        assert bound["rule"] == "sup gap <= C/sqrt(N)" and bound["calibrated_at_N"] == 4

    def test_berry_esseen_from_n1_calibrates_at_the_base_density(self, tmp_path):
        # N = 1, the base density itself, sets C rather than being held to C/1
        assert run_cli(["berry-esseen", "--n-list", "1,2,4", "--out", str(tmp_path)]) == 0

    def test_berry_esseen_reuses_the_zprime_gaps(self, monkeypatch, tmp_path):
        # zprime --density uniform takes the gaps at N = 8 ... 128, five of
        # berry-esseen's eight; the grid shape does not enter a gap
        monkeypatch.setattr(lifted, "_GAPS", {})
        built = []
        gap = lifted._lattice_gap
        monkeypatch.setattr(lifted, "_lattice_gap", lambda g, N, n: built.append(N) or gap(g, N, n))
        assert run_cli(["berry-esseen", "--out", str(tmp_path / "alone")]) == 0
        assert len(built) == 8
        lifted._GAPS.clear()
        run_cli(["zprime", "--density", "uniform", "--grid-shape", "512x512",
                 "--out", str(tmp_path / "zprime")])
        built.clear()
        assert run_cli(["berry-esseen", "--out", str(tmp_path / "after")]) == 0
        assert sorted(built) == [2, 4, 256]
        assert read(tmp_path / "after" / "berry-esseen.csv") == read(
            tmp_path / "alone" / "berry-esseen.csv"
        )

    def test_berry_esseen_gaussian_fixed_point(self, tmp_path):
        # the Gaussian's gap is lattice error only, so it has no decay to fit
        argv = ["berry-esseen", "--n-list", "2,4", "--density", "gaussian", "--out", str(tmp_path)]
        assert run_cli(argv) == 0
        assert json.loads(read(tmp_path / "berry-esseen.json"))["fit"] is None
        assert b"<line" not in read(tmp_path / "berry-esseen.svg")

    def test_entropy_rate_gaussian_fixed_point(self, tmp_path):
        # the Gaussian's entropy per particle is exactly its limit, 0, at
        # every N, so there is no rate to fit and no positive gap to plot
        argv = ["entropy-rate", "--n-list", "16,32", "--density", "gaussian", "--out", str(tmp_path)]
        assert run_cli(argv) == 0
        report = json.loads(read(tmp_path / "entropy-rate.json"))
        assert report["fit"] is None and report["passed"] is True
        svg = read(tmp_path / "entropy-rate.svg")
        assert b"<line" not in svg and b"<polyline" not in svg and b"nothing to plot" in svg

    def test_ipp_small(self, tmp_path):
        code = run_cli(["ipp-check", "--samples", "4000", "--out", str(tmp_path)])
        assert code == 0

    def test_dsmc_small_jobs_deterministic(self, tmp_path, monkeypatch, capsys):
        # the worker (the drift check and the last replicas) runs inline on
        # one usable CPU and in a forked child on two; both paths give the
        # same bytes at either --jobs.  The first config gives the worker no
        # replica (k = R), the second 4 of 60 (k = 56), and that split gives
        # the same bytes as all 60 replicas run in the calling process
        for size, k in ((["--n-list", "32", "--replicas", "8"], 8),
                        (["--n-list", "128", "--replicas", "60"], 56)):
            argv = ["dsmc", *size, "--t-end", "4", "--samples", "100000", "--seed", "3"]
            assert dsmc_split(argv) == k
            split = assert_same_bytes_inline_and_forked(argv, 4, tmp_path / str(k), monkeypatch, capsys)
        monkeypatch.setattr(cli, "_dsmc_split", lambda cfg: cfg.replicas)
        assert cli_bytes(argv, tmp_path / "unsplit", capsys) == split

    def test_metrics_selftest_small_deterministic(self, tmp_path, monkeypatch, capsys):
        # part of the interpolation pairs goes to a forked worker on two
        # usable CPUs, whatever --jobs is
        argv = ["metrics-selftest", "--samples", "4000"]
        assert_same_bytes_inline_and_forked(argv, 6, tmp_path, monkeypatch, capsys)


def cli_bytes(argv, out, capsys):
    """(exit code, stdout, CSV, JSON) of argv run into the directory out."""
    code = run_cli(argv + ["--out", str(out)])
    return code, capsys.readouterr().out, read(out / f"{argv[0]}.csv"), read(out / f"{argv[0]}.json")


def assert_same_bytes_inline_and_forked(argv, n_checks, tmp_path, monkeypatch, capsys):
    """argv gives the same stdout, CSV and JSON on one and two usable CPUs
    (inline and forked), at --jobs 1 and 2, and prints n_checks lines;
    returns what the runs give."""
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(lifted, "_usable_cpus", lambda n=cpus: n)
        for jobs in ("1", "2"):
            runs.append(cli_bytes(argv + ["--jobs", jobs], tmp_path / f"cpus{cpus}-jobs{jobs}", capsys))
    assert runs[0][0] == cli.EXIT_OK and len(runs[0][1].splitlines()) == n_checks
    assert all(run == runs[0] for run in runs[1:])
    return runs[0]


TINY_DSMC = ["dsmc", "--n-list", "16", "--replicas", "2", "--t-end", "2", "--samples", "1000"]


def dsmc_split(argv):
    """How many of the replicas the calling process of `argv` runs."""
    return cli._dsmc_split(cli._load_config(cli._parser().parse_args(argv), "dsmc"))


def test_the_collision_workload_gives_the_worker_no_replica():
    # perfbench's collision pass: the default physics (N = 256, d = 3,
    # t_end = 20) with 8 replicas.  A replica there is 40,960 events, so the
    # 10^6-event drift walk alone outweighs all 8, and the worker runs none
    assert dsmc_split(["dsmc", "--replicas", "8"]) == 8
    assert dsmc_split(["dsmc"]) == 44  # of the default 64


def assert_one_child_reaped(pids):
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


def slow_child(*args):
    time.sleep(60)
    return 0.0, 0.0


class TestDsmcDriftChild:
    def test_a_pass_reaps_the_child(self, forked_children, tmp_path, capsys):
        assert run_cli(TINY_DSMC + ["--out", str(tmp_path)]) == cli.EXIT_OK
        assert_one_child_reaped(forked_children)
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines] == ["momentum", "energy", "E|v1|^4", "KS"]

    def test_one_child_whatever_jobs_is(self, forked_children, tmp_path, capsys):
        # --jobs is accepted and checked but selects nothing: one forked
        # worker, reaped, and the same bytes at every value
        runs = []
        for jobs in ("1", "2", "4"):
            runs.append(cli_bytes(TINY_DSMC + ["--jobs", jobs], tmp_path / jobs, capsys))
            assert_one_child_reaped(forked_children)
            forked_children.clear()
        assert runs[0][0] == cli.EXIT_OK and runs[1] == runs[0] and runs[2] == runs[0]

    def test_a_failed_check_reaps_the_child_and_keeps_the_line_order(
            self, forked_children, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "_conservation_drift", lambda *args: (1.0, 2.0))
        assert run_cli(TINY_DSMC + ["--out", str(tmp_path)]) == cli.EXIT_TOLERANCE
        assert_one_child_reaped(forked_children)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "FAIL  momentum drift 1.00e+00 <= 1e-9 over ~1000000 collisions"
        assert lines[1] == "FAIL  energy drift 2.00e+00 <= 1e-9"
        assert lines[2].startswith("PASS  E|v1|^4") and lines[3].startswith("PASS  KS")
        drift = json.loads((tmp_path / "dsmc.json").read_text())["drift"]
        assert drift == {"momentum": 1.0, "energy": 2.0}

    def test_a_package_error_in_the_child_is_exit_5(self, forked_children, monkeypatch, tmp_path, capsys):
        def broken(*args):
            raise ParameterError("no drift at this size")

        monkeypatch.setattr(cli, "_conservation_drift", broken)
        assert run_cli(TINY_DSMC + ["--out", str(tmp_path)]) == cli.EXIT_RUNTIME
        assert capsys.readouterr().err == "error: no drift at this size\n"
        assert_one_child_reaped(forked_children)

    def test_another_error_in_the_child_keeps_its_type_and_message(self, forked_children, monkeypatch, tmp_path):
        def broken(*args):
            raise KeyError("velocities")

        monkeypatch.setattr(cli, "_conservation_drift", broken)
        with pytest.raises(KeyError, match="velocities"):
            run_cli(TINY_DSMC + ["--out", str(tmp_path)])
        assert_one_child_reaped(forked_children)

    def test_a_child_that_dies_without_a_result_is_exit_5(self, forked_children, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "_conservation_drift", lambda *args: os._exit(3))
        assert run_cli(TINY_DSMC + ["--out", str(tmp_path)]) == cli.EXIT_RUNTIME
        assert capsys.readouterr().err == "error: worker process ended with code 3 and no result\n"
        assert_one_child_reaped(forked_children)

    @pytest.mark.parametrize("error, code", [(ParameterError("replicas"), cli.EXIT_RUNTIME),
                                             (RuntimeError("replicas"), None)],
                             ids=["package-error", "other-error"])
    def test_an_error_in_the_parent_kills_and_reaps_the_child(
            self, forked_children, monkeypatch, tmp_path, error, code):
        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "_conservation_drift", slow_child)
        monkeypatch.setattr(cli, "replica_series", broken)
        t0 = time.perf_counter()
        if code is None:
            with pytest.raises(type(error), match="replicas"):
                run_cli(TINY_DSMC + ["--out", str(tmp_path)])
        else:
            assert run_cli(TINY_DSMC + ["--out", str(tmp_path)]) == code
        assert time.perf_counter() - t0 < 30.0  # killed, not waited for
        assert_one_child_reaped(forked_children)


class TestMetricsSelftestWorker:
    def test_a_pass_reaps_the_worker(self, forked_children, tmp_path, capsys):
        argv = ["metrics-selftest", "--samples", "4000", "--out", str(tmp_path)]
        assert run_cli(argv) == cli.EXIT_OK
        assert_one_child_reaped(forked_children)
        assert capsys.readouterr().out.splitlines()[-1] == (
            "PASS  interpolation inequality on 100 random pairs (100 passed)")

    def test_an_error_in_the_parent_kills_and_reaps_the_worker(
            self, forked_children, monkeypatch, tmp_path, capsys):
        # the entropy estimate refuses 5 samples while the worker still runs
        monkeypatch.setattr(cli, "_pairs_passing", slow_child)
        t0 = time.perf_counter()
        argv = ["metrics-selftest", "--samples", "5", "--out", str(tmp_path)]
        assert run_cli(argv) == cli.EXIT_RUNTIME
        assert time.perf_counter() - t0 < 30.0  # killed, not waited for
        assert capsys.readouterr().err == "error: not enough samples\n"
        assert_one_child_reaped(forked_children)


# a two-chain batch, whose second chain runs in a forked worker
SAMPLER_CALL = (
    "import boltzsphere as bs\n"
    "law = bs.ConditionedLaw(bs.get_density('mixture', 3), bs.SphereSpec.boltzmann(3, 8))\n"
    "print(bs.sample_conditioned_batch(law, 1, 8).shape)\n"
)


@pytest.mark.parametrize("call, n_lines", [
    (TINY_DSMC, 4),
    (["metrics-selftest", "--samples", "4000"], 6),
    (SAMPLER_CALL, 1),
], ids=["dsmc", "metrics-selftest", "sampler"])
def test_a_line_printed_before_a_fork_appears_once_on_a_pipe(tmp_path, call, n_lines):
    if isinstance(call, list):  # a subcommand's argv
        call = f"raise SystemExit(cli.main({call + ['--out', str(tmp_path)]!r}))\n"
    code = (
        "from boltzsphere import cli, lifted\n"
        "lifted._usable_cpus = lambda: 2\n"
        "print('before the fork')\n"
        + call
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)  # so the line waits in the pipe's buffer
    proc = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                          text=True, timeout=300)
    assert proc.returncode == cli.EXIT_OK
    lines = proc.stdout.splitlines()
    assert lines[0] == "before the fork" and len(lines) == 1 + n_lines
    assert proc.stdout.count("before the fork") == 1


class TestIppPointwise:
    def test_cancelling_pair_is_marked_where_it_is_defined(self):
        for d, N in ((2, 4), (3, 3), (2, 10)):
            assert [c for _, _, c in cli._ipp_fields(d, N)] == [False, True, False]

    def test_pointwise_bound_fails_on_a_mutated_integrand(self, monkeypatch, tmp_path, capsys):
        argv = ["ipp-check", "--samples", "200", "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().out.count("pair 1: pointwise") == 3
        terms = geometry._ipp_terms

        def no_inverse_n(F, Phi, V, spec):
            # the hyperplane coefficient c = (d(N-1)-1)/(dN) without its 1/N
            out = terms(F, Phi, V, spec)
            out[:, 2] *= spec.N
            return out

        monkeypatch.setattr(geometry, "_ipp_terms", no_inverse_n)
        assert cli.main(argv) == cli.EXIT_TOLERANCE
        lines = capsys.readouterr().out.splitlines()
        pair1 = [line for line in lines if "pair 1:" in line]
        assert len(pair1) == 3 and all(line.startswith("FAIL") for line in pair1)
