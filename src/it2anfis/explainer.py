"""Three-level uncertainty reporting over a trained rule base.

Feature level: the area enclosed between the upper and lower membership
curves of each antecedent (a scalar footprint-of-uncertainty size).
Rule level: per-rule aggregates of those areas plus a consequent-norm
diagnostic.  Instance level: for a batch of rows, the prediction
intervals in original target units, equal bit for bit to
``predict_arrays``'s, with the rules that drove each one.

Also renders per-rule membership plots as standalone SVG documents and
dumps the rule base as readable IF-THEN text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import IT2Antecedent, RuleBase, _as_rows, chunk_rows, forward
from .dataset import FeatureScaler, TargetScaler
from .kernels import gaussian, membership_offsets

DEFAULT_FOU_POINTS = 256


@dataclass
class FeatureUncertainty:
    """FOU size of one antecedent."""

    rule_index: int
    feature_index: int
    fou_area: float
    interval_width: float


@dataclass
class RuleUncertainty:
    """Per-rule aggregate of feature-level FOU areas."""

    rule_index: int
    mean_fou_area: float
    max_fou_area: float
    consequent_l1_norm: float


@dataclass
class UncertaintyReport:
    """Feature- and rule-level entries, optionally instance-level."""

    per_feature: list[FeatureUncertainty]
    per_rule: list[RuleUncertainty]
    #: (y_lower, y_upper, y_pred) arrays in target units, one entry per
    #: instance row; the endpoints need not be ordered
    per_instance: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def as_dict(self) -> dict:
        doc: dict = {
            "per_feature": [vars(f).copy() for f in self.per_feature],
            "per_rule": [vars(r).copy() for r in self.per_rule],
        }
        if self.per_instance is not None:
            y_l, y_u, y_p = self.per_instance
            columns = (y_l, y_u, y_p, np.minimum(y_l, y_u),
                       np.maximum(y_l, y_u))
            doc["per_instance"] = [
                {"index": i, "y_lower": lower, "y_upper": upper,
                 "y_pred": pred, "interval": [lo, hi], "width": hi - lo}
                for i, (lower, upper, pred, lo, hi)
                in enumerate(zip(*(c.tolist() for c in columns)))]
        return doc


def _bounds(x, c1, c2, sigma):
    """(mu_L, mu_U) of x, elementwise and broadcasting."""
    d_l, d_u = membership_offsets(x, c1, c2)
    return gaussian(d_l, sigma), gaussian(d_u, sigma)


def _fou_areas(c1, c2, sigma, lo, hi, n_points):
    """Trapezoidal areas between the membership bounds over [lo, hi].

    Elementwise over equally shaped antecedent parameters and window
    ends; the n_points grid of each window runs along a new last axis.
    """
    xs = np.linspace(lo, hi, n_points, axis=-1)
    mu_l, mu_u = _bounds(xs, *(np.expand_dims(a, -1) for a in (c1, c2, sigma)))
    gap = mu_u - mu_l
    step = (np.asarray(hi) - lo) / (n_points - 1)
    return ((gap[..., 0] + gap[..., -1] + 2.0 * gap[..., 1:-1].sum(axis=-1))
            * 0.5 * step)


def fou_area(ant: IT2Antecedent, window: tuple[float, float] | None = None,
             n_points: int = DEFAULT_FOU_POINTS) -> float:
    """Trapezoidal area between the membership bounds.

    The default window spans three spreads beyond the uncertain-mean
    interval on each side, which captures effectively all of both
    Gaussian tails.
    """
    if n_points < 16:
        raise ValueError("n_points must be >= 16")
    if window is None:
        window = (ant.c1 - 3.0 * ant.sigma, ant.c2 + 3.0 * ant.sigma)
    lo, hi = window
    if not lo < hi:
        raise ValueError(f"window must be increasing, got {window}")
    return float(_fou_areas(ant.c1, ant.c2, ant.sigma, lo, hi, n_points))


def explain_model(rb: RuleBase) -> UncertaintyReport:
    """Feature- and rule-level uncertainty for every antecedent.

    Each area is ``fou_area`` over its default window.
    """
    areas = _fou_areas(rb.c1, rb.c2, rb.sigma, rb.c1 - 3.0 * rb.sigma,
                       rb.c2 + 3.0 * rb.sigma, DEFAULT_FOU_POINTS)
    widths = rb.c2 - rb.c1
    l1 = np.abs(rb.w).sum(axis=1) + np.abs(rb.b)
    per_feature = [FeatureUncertainty(
        rule_index=j, feature_index=f, fou_area=float(areas[j, f]),
        interval_width=float(widths[j, f]))
        for j in range(rb.n_rules) for f in range(rb.n_features)]
    per_rule = [RuleUncertainty(
        rule_index=j, mean_fou_area=float(areas[j].mean()),
        max_fou_area=float(areas[j].max()), consequent_l1_norm=float(l1[j]))
        for j in range(rb.n_rules)]
    return UncertaintyReport(per_feature=per_feature, per_rule=per_rule)


def explain_instance(rb: RuleBase, X: np.ndarray,
                     target_scaler: TargetScaler):
    """Interval predictions in original units plus rule attribution.

    X is an (N, F) batch of rows.  Returns (y_lower, y_upper, y_pred,
    ranking): three (N,) arrays in target units, and an (N, R) array
    whose row n lists the rule indices by the mean of the two normalized
    strengths of row n, strongest first, ties in index order.
    ``forward`` runs once over each of ``predict_arrays``'s row chunks,
    so the intervals equal its output bit for bit.
    """
    X = _as_rows(rb, X)
    rows = chunk_rows(rb)
    y = np.empty((3, X.shape[0]))
    ranking = np.empty((X.shape[0], rb.n_rules), dtype=np.intp)
    for lo in range(0, X.shape[0], rows):
        red = forward(rb, X[lo:lo + rows])
        y[:, lo:lo + rows] = red.y_l, red.y_u, red.y_p
        ranking[lo:lo + rows] = np.argsort(-0.5 * (red.f_l + red.f_u),
                                           axis=1, kind="stable")
    y_l, y_u, y_p = target_scaler.inverse(y)
    return y_l, y_u, y_p, ranking


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def export_rules_text(rb: RuleBase, feature_names: list[str],
                      feature_scalers: list[FeatureScaler] | None = None,
                      target_scaler: TargetScaler | None = None) -> str:
    """Readable IF-THEN dump of every rule.

    Antecedents print the uncertain-mean interval and spread in
    normalized units; when scalers are supplied the original-unit
    values are appended alongside.
    """
    if len(feature_names) != rb.n_features:
        raise ValueError("feature_names arity does not match the rule base")
    lines: list[str] = []
    for j in range(rb.n_rules):
        lines.append(f"Rule {j + 1}:")
        for f, name in enumerate(feature_names):
            ant = rb.antecedent(j, f)
            clause = (f"  {'IF ' if f == 0 else 'AND'} {name} is "
                      f"Gaussian(mean in [{_fmt(ant.c1)}, {_fmt(ant.c2)}], "
                      f"sigma {_fmt(ant.sigma)})")
            if feature_scalers is not None:
                sc = feature_scalers[f]
                lo = sc.inverse(np.float64(ant.c1))
                hi = sc.inverse(np.float64(ant.c2))
                sd = ant.sigma * (sc.max - sc.min)
                clause += (f"  [orig: mean in [{_fmt(float(lo))}, "
                           f"{_fmt(float(hi))}], sigma {_fmt(float(sd))}]")
            lines.append(clause)
        terms = " + ".join(f"{_fmt(rb.w[j, f])}*{name}"
                           for f, name in enumerate(feature_names))
        lines.append(f"  THEN y = {terms} + {_fmt(float(rb.b[j]))}")
        if target_scaler is not None:
            lines.append(f"       (y in standardized units; "
                         f"{target_scaler.name} = y * "
                         f"{_fmt(target_scaler.std)} + "
                         f"{_fmt(target_scaler.mean)})")
        lines.append("")
    return "\n".join(lines)


def _svg_path(xs: np.ndarray, ys: np.ndarray, x0: float, y0: float,
              width: float, height: float, lo: float, hi: float) -> str:
    px = x0 + (xs - lo) / (hi - lo) * width
    py = y0 + height - ys * height
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))


def render_rule_svg(rb: RuleBase, rule_index: int,
                    feature_names: list[str],
                    n_points: int = 200) -> str:
    """Standalone SVG showing each feature's membership bounds.

    One panel per feature: upper and lower curves with the enclosed
    footprint shaded.
    """
    if not 0 <= rule_index < rb.n_rules:
        raise ValueError(f"rule_index out of range: {rule_index}")
    panel_w, panel_h, pad = 300.0, 110.0, 34.0
    total_w = panel_w + 2 * pad
    total_h = (panel_h + pad) * rb.n_features + pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{total_w:.0f}" height="{total_h:.0f}" '
        f'viewBox="0 0 {total_w:.0f} {total_h:.0f}">',
        f'<text x="{pad}" y="{pad * 0.6:.1f}" font-size="13" '
        f'font-family="sans-serif">Rule {rule_index + 1} membership '
        f'functions</text>',
    ]
    c1, c2, sigma = rb.c1[rule_index], rb.c2[rule_index], rb.sigma[rule_index]
    los = c1 - 3.0 * sigma
    his = c2 + 3.0 * sigma
    grid = np.linspace(los, his, n_points, axis=-1)
    mu_l, mu_u = _bounds(grid, c1[:, None], c2[:, None], sigma[:, None])
    for f, name in enumerate(feature_names):
        lo, hi, xs = los[f], his[f], grid[f]
        y0 = pad + f * (panel_h + pad)
        upper = _svg_path(xs, mu_u[f], pad, y0, panel_w, panel_h, lo, hi)
        lower = _svg_path(xs, mu_l[f], pad, y0, panel_w, panel_h, lo, hi)
        reversed_lower = _svg_path(xs[::-1], mu_l[f, ::-1], pad, y0,
                                   panel_w, panel_h, lo, hi)
        parts.extend([
            f'<rect x="{pad}" y="{y0:.1f}" width="{panel_w}" '
            f'height="{panel_h}" fill="none" stroke="#999"/>',
            f'<polygon points="{upper} {reversed_lower}" fill="#4477aa" '
            f'fill-opacity="0.25" stroke="none"/>',
            f'<polyline points="{upper}" fill="none" stroke="#4477aa" '
            f'stroke-width="1.5"/>',
            f'<polyline points="{lower}" fill="none" stroke="#aa3344" '
            f'stroke-width="1.5"/>',
            f'<text x="{pad}" y="{y0 + panel_h + pad * 0.55:.1f}" '
            f'font-size="11" font-family="sans-serif">{name} '
            f'(c1 {_fmt(c1[f])}, c2 {_fmt(c2[f])}, '
            f'sigma {_fmt(sigma[f])})</text>',
        ])
    parts.append("</svg>")
    return "\n".join(parts)
