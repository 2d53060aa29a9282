"""Three-level uncertainty reporting over a trained rule base.

Feature level: the area enclosed between the upper and lower membership
curves of each antecedent over the whole real line, in closed form (a
scalar footprint-of-uncertainty size).
Rule level: per-rule aggregates of those areas plus a consequent-norm
diagnostic.  Instance level: for a batch of rows, ``predict_arrays``'s
prediction intervals in original target units.

Also renders per-rule membership plots as standalone SVG documents and
dumps the rule base as readable IF-THEN text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RuleBase, predict_arrays
from .dataset import FeatureScaler, TargetScaler, inverse_target
from .kernels import gaussian, membership_offsets

#: ``math.erf`` over arrays (numpy has no erf)
_erf = np.vectorize(math.erf, otypes=[float])


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


def fou_area(c1, c2, sigma):
    """Area between the membership bounds over the whole real line.

    Elementwise over broadcasting antecedent parameters, c1 <= c2.  The
    upper bound integrates to d + sigma*sqrt(2*pi), with d = c2 - c1;
    the lower bound to two Gaussian halves that meet at the midpoint.
    Their difference is d + sigma*sqrt(2*pi)*erf(d / (2*sqrt(2)*sigma)),
    exactly 0.0 on a collapsed interval.
    """
    d = np.subtract(c2, c1)
    return d + sigma * math.sqrt(2.0 * math.pi) * _erf(
        d / (2.0 * math.sqrt(2.0) * sigma))


def explain_model(rb: RuleBase) -> UncertaintyReport:
    """Feature- and rule-level uncertainty for every antecedent."""
    areas = fou_area(rb.c1, rb.c2, rb.sigma)
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
                     target_scaler: TargetScaler
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interval predictions of the (N, F) rows X in original units.

    Returns the (N,) y_lower, y_upper and y_pred of ``predict_arrays``,
    each mapped through the target scaler's inverse.
    """
    return tuple(inverse_target(y, target_scaler)
                 for y in predict_arrays(rb, X))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def export_rules_text(rb: RuleBase, feature_scalers: list[FeatureScaler],
                      target_scaler: TargetScaler) -> str:
    """Readable IF-THEN dump of every rule.

    Antecedents print the uncertain-mean interval and spread in
    normalized units, then the original-unit values of each feature's
    scaler, which also names the feature.
    """
    if len(feature_scalers) != rb.n_features:
        raise ValueError("feature_scalers arity does not match the rule base")
    target_note = (f"       (y in standardized units; {target_scaler.name}"
                   f" = y * {_fmt(target_scaler.std)} + "
                   f"{_fmt(target_scaler.mean)})")
    lines: list[str] = []
    for j in range(rb.n_rules):
        lines.append(f"Rule {j + 1}:")
        for f, sc in enumerate(feature_scalers):
            c1, c2, sigma = rb.c1[j, f], rb.c2[j, f], rb.sigma[j, f]
            lo, hi = sc.inverse(c1), sc.inverse(c2)
            sd = sigma * (sc.max - sc.min)
            lines.append(
                f"  {'IF ' if f == 0 else 'AND'} {sc.name} is "
                f"Gaussian(mean in [{_fmt(c1)}, {_fmt(c2)}], "
                f"sigma {_fmt(sigma)})"
                f"  [orig: mean in [{_fmt(float(lo))}, "
                f"{_fmt(float(hi))}], sigma {_fmt(float(sd))}]")
        terms = " + ".join(f"{_fmt(rb.w[j, f])}*{sc.name}"
                           for f, sc in enumerate(feature_scalers))
        lines += [f"  THEN y = {terms} + {_fmt(float(rb.b[j]))}",
                  target_note, ""]
    return "\n".join(lines)


def _svg_path(xs: np.ndarray, ys: np.ndarray, x0: float, y0: float,
              width: float, height: float, lo: float, hi: float) -> str:
    px = x0 + (xs - lo) / (hi - lo) * width
    py = y0 + height - ys * height
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))


def render_rule_svg(rb: RuleBase, rule_index: int,
                    feature_names: list[str]) -> str:
    """Standalone SVG showing each feature's membership bounds.

    One panel per feature: upper and lower curves with the enclosed
    footprint shaded.
    """
    # imported here, not at module level: xml.sax.saxutils pulls in
    # urllib.request, several MB of RSS that only SVG output needs
    from xml.sax.saxutils import escape

    if not 0 <= rule_index < rb.n_rules:
        raise ValueError(f"rule_index out of range: {rule_index}")
    if len(feature_names) != rb.n_features:
        raise ValueError("feature_names arity does not match the rule base")
    panel_w, panel_h, pad, n_points = 300.0, 110.0, 34.0, 200
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
    d_l, d_u = membership_offsets(grid, c1[:, None], c2[:, None])
    mu_l, mu_u = gaussian(d_l, sigma[:, None]), gaussian(d_u, sigma[:, None])
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
            f'font-size="11" font-family="sans-serif">{escape(name)} '
            f'(c1 {_fmt(c1[f])}, c2 {_fmt(c2[f])}, '
            f'sigma {_fmt(sigma[f])})</text>',
        ])
    parts.append("</svg>")
    return "\n".join(parts)
