"""Rate reports, log-log fits, and deterministic CSV/JSON/SVG emission."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError

__all__ = [
    "RateReport",
    "fit_loglog",
    "config_hash",
    "write_csv",
    "write_json",
    "svg_line_plot",
]


@dataclass
class RateReport:
    """Measured (N, value, stderr) rows with a fitted log-log slope.

    The fit is weighted least squares on log N vs log value over rows with
    positive value; weights are (value/stderr)^2 by the delta method, or
    uniform when no standard errors are available.  The 95% interval uses
    the normal quantile on the WLS slope variance.
    """

    rows: list
    slope: float
    intercept: float
    ci95: tuple
    tolerance: Optional[tuple] = None  # (lo, hi) allowed slope window
    passed: Optional[bool] = None
    meta: dict = field(default_factory=dict)

    def check(self, lo: Optional[float], hi: float) -> "RateReport":
        """Record the allowed slope window; lo=None leaves it open below."""
        self.tolerance = (lo, hi)
        self.passed = bool((lo is None or lo <= self.slope) and self.slope <= hi)
        return self

    def to_dict(self) -> dict:
        return {
            "rows": [
                {"N": int(n), "value": v, "stderr": s} for (n, v, s) in self.rows
            ],
            "slope": self.slope,
            "intercept": self.intercept,
            "ci95": list(self.ci95),
            "tolerance": list(self.tolerance) if self.tolerance else None,
            "passed": self.passed,
            "meta": self.meta,
        }


def fit_loglog(rows: Sequence[tuple]) -> RateReport:
    """Fit log(value) = slope * log(N) + intercept over rows (N, value, stderr)."""
    rows = [(int(n), float(v), float(s)) for (n, v, s) in rows]
    usable = [(n, v, s) for (n, v, s) in rows if v > 0.0 and math.isfinite(v)]
    if len(usable) < 2:
        raise ParameterError("need at least two positive values to fit a slope")
    x = np.log([n for n, _, _ in usable])
    y = np.log([v for _, v, _ in usable])
    se = np.array([s / v if s > 0.0 else 0.0 for _, v, s in usable])
    w = 1.0 / np.where(se > 0.0, se, np.nan) ** 2
    if np.all(np.isnan(w)):
        w = np.ones_like(x)
    else:
        w = np.where(np.isnan(w), np.nanmax(w), w)
    W = np.sum(w)
    xbar = np.sum(w * x) / W
    ybar = np.sum(w * y) / W
    sxx = np.sum(w * (x - xbar) ** 2)
    slope = float(np.sum(w * (x - xbar) * (y - ybar)) / sxx)
    intercept = float(ybar - slope * xbar)
    resid = y - slope * x - intercept
    dof = max(len(usable) - 2, 1)
    s2 = float(np.sum(w * resid**2) / dof)
    slope_sd = math.sqrt(s2 / sxx)
    ci = (slope - 1.96 * slope_sd, slope + 1.96 * slope_sd)
    return RateReport(rows=rows, slope=slope, intercept=intercept, ci95=ci)


def config_hash(config: dict) -> str:
    """Stable short hash of a flat configuration mapping."""
    canon = "\n".join(f"{k}={config[k]}" for k in sorted(config))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def write_csv(path, columns: Sequence[str], rows: Sequence[Sequence], header: str) -> None:
    """CSV with a leading comment row naming units and the config hash."""
    lines = [f"# {header}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, obj: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def svg_line_plot(path, x, y, title: str, fit: Optional[tuple] = None) -> None:
    """Minimal static log-log line plot (points plus an optional fitted line).

    With fewer than two positive points, such as a gap that is exactly 0 at
    every N, the plot holds its title and a note that it has nothing to draw.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ok = (x > 0) & (y > 0)
    lx, ly = np.log10(x[ok]), np.log10(y[ok])
    W, H, pad = 480, 320, 40

    def sx(v):
        return pad + (v - lx.min()) / max(np.ptp(lx), 1e-9) * (W - 2 * pad)

    def sy(v):
        return H - pad - (v - ly.min()) / max(np.ptp(ly), 1e-9) * (H - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2}" y="20" text-anchor="middle" font-size="13">{title}</text>',
    ]
    if lx.size < 2:
        parts.append(f'<text x="{W / 2}" y="{H / 2}" text-anchor="middle" font-size="12">'
                     "fewer than two positive values: nothing to plot on log-log axes</text>")
    else:
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(lx, ly))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1.5"/>')
        for a, b in zip(lx, ly):
            parts.append(f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="3" fill="steelblue"/>')
        if fit is not None:
            slope, intercept = fit
            fy0 = (slope * lx.min() * math.log(10) + intercept) / math.log(10)
            fy1 = (slope * lx.max() * math.log(10) + intercept) / math.log(10)
            parts.append(
                f'<line x1="{sx(lx.min()):.2f}" y1="{sy(fy0):.2f}" '
                f'x2="{sx(lx.max()):.2f}" y2="{sy(fy1):.2f}" stroke="crimson" stroke-dasharray="4"/>'
            )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
