import json
import math

import numpy as np
import pytest

import boltzsphere as bs
from boltzsphere.reporting import config_hash, fit_loglog, svg_line_plot, write_csv, write_json


class TestFit:
    def test_exact_power_law(self):
        rows = [(n, 3.0 / n**0.5) for n in (8, 16, 32, 64)]
        rep = fit_loglog(rows)
        assert rep.slope == pytest.approx(-0.5, abs=1e-12)
        assert math.exp(rep.intercept) == pytest.approx(3.0, rel=1e-12)
        assert rep.ci95[0] <= rep.slope <= rep.ci95[1]

    def test_nonpositive_rows_dropped(self):
        rep = fit_loglog([(8, 1.0), (16, 0.5), (32, 0.0)])
        assert len(rep.rows) == 3
        assert rep.slope == pytest.approx(-1.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(bs.ParameterError):
            fit_loglog([(8, 1.0)])

    def test_check_sets_tolerance(self):
        rep = fit_loglog([(8, 1.0), (64, 0.125)]).check(-0.9)
        assert rep.passed
        assert rep.to_dict()["tolerance"] == [None, -0.9]
        assert not rep.check(-1.1).passed

    def test_check_open_below(self):
        rep = fit_loglog([(8, 1.0), (64, 0.125)])
        assert rep.check(-0.35).passed
        assert rep.to_dict()["tolerance"] == [None, -0.35]
        assert not rep.check(-1.1).passed


class TestEmission:
    def test_config_hash_stable_and_order_free(self):
        a = config_hash({"x": 1, "y": "b"})
        b = config_hash({"y": "b", "x": 1})
        assert a == b and len(a) == 12
        assert config_hash({"x": 2, "y": "b"}) != a

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("N", "value"), [(8, 0.5), (16, 0.25)], "demo units=things")
        lines = path.read_text().splitlines()
        assert lines[0] == "# demo units=things"
        assert lines[1] == "N,value"
        assert lines[2] == "8,0.5"

    def test_json_sorted_keys(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"b": 1, "a": 2})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": 2, "b": 1}

    def test_svg_plot(self, tmp_path):
        path = tmp_path / "t.svg"
        x = np.array([8, 16, 32, 64])
        y = 2.0 / x
        svg_line_plot(path, x, y, "demo", fit=(-1.0, math.log(2.0)))
        text = path.read_text()
        assert text.startswith("<svg")
        assert "circle" in text and "line" in text
