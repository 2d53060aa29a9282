"""Uncertainty reports, FOU areas, rule text, and SVG output."""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from it2anfis import core, kernels
from it2anfis.core import Mode, RuleBase, predict_arrays
from it2anfis.dataset import FeatureScaler, TargetScaler, inverse_target
from it2anfis.explainer import (UncertaintyReport, explain_instance,
                                explain_model, export_rules_text, fou_area,
                                render_rule_svg)

from conftest import random_rulebase, ref_membership


def closed_form_area(c1: float, c2: float, sigma: float) -> float:
    """Exact area between the bounds over the whole real line.

    Integrating the upper curve gives sigma*sqrt(2*pi) plus the plateau
    width d; the lower curve integrates to two Gaussian tails split at
    the midpoint.  The difference reduces to
    sigma*sqrt(2*pi)*erf(d / (2*sqrt(2)*sigma)) + d.
    """
    d = c2 - c1
    return sigma * math.sqrt(2.0 * math.pi) * \
        math.erf(d / (2.0 * math.sqrt(2.0) * sigma)) + d


def dense_trapezoid(c1: float, c2: float, sigma: float, lo: float,
                    hi: float, n: int) -> float:
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    gaps = []
    for x in xs:
        mu_l, mu_u = ref_membership(c1, c2, sigma, x)
        gaps.append(mu_u - mu_l)
    step = (hi - lo) / (n - 1)
    return (gaps[0] + gaps[-1] + 2.0 * sum(gaps[1:-1])) * 0.5 * step


class TestFouArea:
    def test_collapsed_interval_is_exactly_zero(self):
        assert fou_area(0.4, 0.4, 0.2) == 0.0
        np.testing.assert_array_equal(
            fou_area(np.full((2, 3), 0.4), np.full((2, 3), 0.4), 0.2), 0.0)

    @pytest.mark.parametrize("c1,c2,sigma", [
        (0.2, 0.5, 0.15),
        (0.0, 0.1, 0.3),
        (-1.0, 1.0, 0.5),
        (0.45, 0.55, 0.2),
    ])
    def test_matches_dense_quadrature(self, c1, c2, sigma):
        # beyond 8 sigma the dropped tail is below 1e-10, so the oracle
        # measures the full-line area
        oracle = dense_trapezoid(c1, c2, sigma, c1 - 8.0 * sigma,
                                 c2 + 8.0 * sigma, 10_001)
        assert fou_area(c1, c2, sigma) == pytest.approx(oracle, abs=1e-4)

    @pytest.mark.parametrize("c1,c2,sigma", [
        (0.2, 0.5, 0.15),
        (0.0, 0.1, 0.3),
        (-1.0, 1.0, 0.5),
    ])
    def test_matches_closed_form_on_wide_window(self, c1, c2, sigma):
        # a fine trapezoid over c1 - 8 sigma .. c2 + 8 sigma reaches the
        # closed form to 1e-6 and agrees with fou_area to the same
        oracle = dense_trapezoid(c1, c2, sigma, c1 - 8.0 * sigma,
                                 c2 + 8.0 * sigma, 20_001)
        assert oracle == pytest.approx(closed_form_area(c1, c2, sigma),
                                       rel=1e-6)
        assert fou_area(c1, c2, sigma) == pytest.approx(oracle, rel=1e-6)

    @given(c=st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)),
           sigma=st.floats(0.05, 0.6))
    @settings(max_examples=200, deadline=None)
    def test_matches_closed_form(self, c, sigma):
        c1, c2 = sorted(c)
        assert fou_area(c1, c2, sigma) == pytest.approx(
            closed_form_area(c1, c2, sigma), rel=1e-12)

    @given(sigma=st.floats(0.05, 0.5), d=st.floats(0.0, 0.8),
           delta=st.floats(0.05, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_wider_interval_strictly_larger_area(self, sigma, d, delta):
        assert fou_area(0.0, d + delta, sigma) > fou_area(0.0, d, sigma)


class TestExplainModel:
    def test_entry_counts_and_indices(self, rng):
        rb = random_rulebase(rng, 4, 3)
        report = explain_model(rb)
        assert len(report.per_feature) == 12
        assert len(report.per_rule) == 4
        pairs = [(e.rule_index, e.feature_index) for e in report.per_feature]
        assert pairs == [(j, f) for j in range(4) for f in range(3)]
        assert [r.rule_index for r in report.per_rule] == [0, 1, 2, 3]

    def test_rule_aggregates_consistent(self, rng):
        rb = random_rulebase(rng, 3, 4)
        report = explain_model(rb)
        for rule in report.per_rule:
            areas = [e.fou_area for e in report.per_feature
                     if e.rule_index == rule.rule_index]
            assert rule.mean_fou_area == pytest.approx(np.mean(areas))
            assert rule.max_fou_area == pytest.approx(np.max(areas))
            assert rule.max_fou_area >= rule.mean_fou_area
            j = rule.rule_index
            expected_l1 = np.abs(rb.w[j]).sum() + abs(rb.b[j])
            assert rule.consequent_l1_norm == pytest.approx(expected_l1)

    def test_areas_match_fou_area(self, rng):
        rb = random_rulebase(rng, 5, 4)
        for e in explain_model(rb).per_feature:
            j, f = e.rule_index, e.feature_index
            assert e.fou_area == fou_area(rb.c1[j, f], rb.c2[j, f],
                                          rb.sigma[j, f])

    def test_interval_widths_reported(self, rng):
        rb = random_rulebase(rng, 2, 2)
        report = explain_model(rb)
        for e in report.per_feature:
            assert e.interval_width == pytest.approx(
                rb.c2[e.rule_index, e.feature_index]
                - rb.c1[e.rule_index, e.feature_index])

    def test_collapsed_model_reports_zero_uncertainty(self, rng):
        rb = random_rulebase(rng, 3, 2, mode=Mode.TYPE1_ORDER1)
        report = explain_model(rb)
        assert all(e.fou_area == 0.0 for e in report.per_feature)
        assert all(r.mean_fou_area == 0.0 for r in report.per_rule)

    def test_deterministic(self, rng):
        rb = random_rulebase(rng, 3, 2)
        assert explain_model(rb).as_dict() == explain_model(rb).as_dict()

    def test_as_dict_shape(self, rng):
        rb = random_rulebase(rng, 2, 2)
        doc = explain_model(rb).as_dict()
        assert set(doc) == {"per_feature", "per_rule"}
        assert set(doc["per_feature"][0]) == {
            "rule_index", "feature_index", "fou_area", "interval_width"}
        assert set(doc["per_rule"][0]) == {
            "rule_index", "mean_fou_area", "max_fou_area",
            "consequent_l1_norm"}


class TestExplainInstance:
    def test_single_rule_attribution(self, rng, toy_scalers):
        _, target = toy_scalers
        rb = random_rulebase(rng, 1, 2)
        X = np.array([[0.4, 0.6]])
        _, _, y_p = explain_instance(rb, X, target)
        raw = predict_arrays(rb, X)[2]
        assert y_p[0] == pytest.approx(raw[0] * target.std + target.mean,
                                       rel=1e-12)

    def test_width_scales_by_target_std(self, rng, toy_scalers):
        _, target = toy_scalers
        rb = random_rulebase(rng, 4, 2)
        X = np.array([[0.3, 0.7]])
        y_l, y_u, _ = explain_instance(rb, X, target)
        raw_l, raw_u, _ = predict_arrays(rb, X)
        assert abs(y_u[0] - y_l[0]) == pytest.approx(
            target.std * abs(raw_u[0] - raw_l[0]), rel=1e-9, abs=1e-12)

    def test_collapsed_instance_interval_is_degenerate(self, rng,
                                                       toy_scalers):
        _, target = toy_scalers
        rb = random_rulebase(rng, 3, 2, mode=Mode.TYPE1_ORDER0)
        y_l, y_u, y_p = explain_instance(rb, np.array([[0.2, 0.9]]), target)
        assert y_l[0] == y_p[0] == y_u[0]

    def test_equals_predict_arrays_across_chunks(self, rng, toy_scalers):
        # 2.5 chunks at R=50, F=13, with fallback rows on both sides of
        # the first chunk boundary and opening the third chunk
        _, target = toy_scalers
        rb = random_rulebase(rng, 50, 13)
        rows = core.chunk_rows(rb)
        X = rng.uniform(0.0, 1.0, (int(2.5 * rows), 13))
        far = [rows - 1, rows, 2 * rows]
        X[far] = np.resize([80.0, -75.0, 60.0], 13)
        assert (kernels.fire(X[far], rb.c1, rb.c2, rb.sigma)[0]
                .sum(axis=1) < kernels.STRENGTH_FLOOR).all()
        got = explain_instance(rb, X, target)
        assert len(got) == 3
        for mine, theirs in zip(got, predict_arrays(rb, X)):
            np.testing.assert_array_equal(mine,
                                          inverse_target(theirs, target))

    def test_empty_and_duplicate_rows(self, rng, toy_scalers):
        _, target = toy_scalers
        rb = random_rulebase(rng, 3, 2)
        y_l, y_u, y_p = explain_instance(rb, np.empty((0, 2)), target)
        assert y_l.shape == y_u.shape == y_p.shape == (0,)
        x = rng.random(2)
        for out in explain_instance(rb, np.stack([x, x]), target):
            np.testing.assert_array_equal(out[0], out[1])

    def test_arity_names_the_whole_input(self, rng, toy_scalers):
        _, target = toy_scalers
        rb = random_rulebase(rng, 2, 3)
        n = core.chunk_rows(rb) + 5
        with pytest.raises(ValueError, match=rf"\(N, 3\), got shape "
                                             rf"\({n}, 2\)"):
            explain_instance(rb, np.zeros((n, 2)), target)

    def test_report_orders_crossed_interval(self, toy_scalers):
        _, target = toy_scalers
        rb = RuleBase(c1=np.array([[1.0], [0.4]]),
                      c2=np.array([[1.6], [0.71715729]]),
                      sigma=np.full((2, 1), 0.1),
                      w=np.array([[1.0], [2.0]]), b=np.zeros(2))
        y_l, y_u, y_p = explain_instance(rb, np.array([[1.0]]), target)
        assert y_u[0] < y_p[0] < y_l[0]
        report = UncertaintyReport(per_feature=[], per_rule=[],
                                   per_instance=(y_l, y_u, y_p))
        (entry,) = report.as_dict()["per_instance"]
        assert entry == {"index": 0, "y_lower": y_l[0], "y_upper": y_u[0],
                         "y_pred": y_p[0], "interval": [y_u[0], y_l[0]],
                         "width": y_l[0] - y_u[0]}


class TestExportRulesText:
    def test_structure(self, rng, toy_scalers):
        _, target = toy_scalers
        features = [FeatureScaler(name=n, min=0.0, max=1.0)
                    for n in ("temp", "humidity")]
        rb = random_rulebase(rng, 2, 2)
        text = export_rules_text(rb, features, target)
        assert text.count("Rule ") == 2
        assert text.count("THEN y =") == 2
        assert text.count("IF ") == 2
        assert text.count("AND") == 2
        assert text.count("  IF  temp is Gaussian(") == 2
        assert text.count("  AND humidity is Gaussian(") == 2
        assert text.count("*temp + ") == 2

    def test_original_units_appended(self, rng, toy_scalers):
        features, target = toy_scalers
        rb = random_rulebase(rng, 2, 2)
        text = export_rules_text(rb, features, target)
        assert text.count("orig:") == 4
        assert text.count("energy_mwh") == 2
        assert "* 40 + 260" in text

    def test_values_match_parameters(self, rng, toy_scalers):
        _, target = toy_scalers
        sc = FeatureScaler(name="x1", min=10.0, max=30.0)
        rb = random_rulebase(rng, 1, 1)
        text = export_rules_text(rb, [sc], target)
        c1, c2, sigma = rb.c1[0, 0], rb.c2[0, 0], rb.sigma[0, 0]
        assert f"mean in [{c1:.6g}, {c2:.6g}], sigma {sigma:.6g})" in text
        assert (f"[orig: mean in [{float(sc.inverse(c1)):.6g}, "
                f"{float(sc.inverse(c2)):.6g}], "
                f"sigma {float(sigma * 20.0):.6g}]") in text
        assert f"{rb.b[0]:.6g}" in text

    def test_arity_mismatch(self, rng, toy_scalers):
        features, target = toy_scalers
        rb = random_rulebase(rng, 2, 2)
        with pytest.raises(ValueError, match="feature_scalers arity"):
            export_rules_text(rb, features[:1], target)


def _tag_counts(svg_text: str) -> dict[str, int]:
    root = ET.fromstring(svg_text)
    counts: dict[str, int] = {}
    for el in root.iter():
        tag = el.tag.rsplit("}", 1)[-1]
        counts[tag] = counts.get(tag, 0) + 1
    return counts


class TestRenderRuleSvg:
    def test_wellformed_with_expected_elements(self, rng):
        rb = random_rulebase(rng, 3, 2)
        counts = _tag_counts(render_rule_svg(rb, 1, ["a", "b"]))
        assert counts["svg"] == 1
        assert counts["rect"] == 2
        assert counts["polygon"] == 2
        assert counts["polyline"] == 4
        assert counts["text"] == 3

    def test_collapsed_rule_still_renders(self, rng):
        rb = random_rulebase(rng, 2, 2, mode=Mode.TYPE1_ORDER1)
        counts = _tag_counts(render_rule_svg(rb, 0, ["a", "b"]))
        assert counts["polygon"] == 2

    def test_rule_index_bounds(self, rng):
        rb = random_rulebase(rng, 2, 2)
        with pytest.raises(ValueError, match="rule_index"):
            render_rule_svg(rb, 2, ["a", "b"])
        with pytest.raises(ValueError, match="rule_index"):
            render_rule_svg(rb, -1, ["a", "b"])

    @pytest.mark.parametrize("names", [["a"], ["a", "b", "c"]])
    def test_arity_mismatch(self, rng, names):
        # one panel per feature: too few names drew too few panels, too
        # many ran off the parameter rows
        rb = random_rulebase(rng, 2, 2)
        with pytest.raises(ValueError, match="arity"):
            render_rule_svg(rb, 0, names)

    def test_markup_in_feature_names_is_escaped(self, rng):
        # CSV headers are free text; each name must reach its <text>
        # node as character data, not as markup
        rb = random_rulebase(rng, 2, 3)
        names = ["P&N", "flow<m3/d>", "a"]
        svg = render_rule_svg(rb, 1, names)
        labels = [el.text for el in ET.fromstring(svg).iter()
                  if el.tag.endswith("}text")][1:]
        assert [label.split(" (c1 ", 1)[0] for label in labels] == names
        assert ">a (c1 " in svg
