"""The benchmark's own test: its numpy output checks accept the program's
reports and reject reports whose Δ, predicate or responsibility was altered.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/test_perfbench_checks.py -q
"""

from __future__ import annotations

import copy
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import Rows, check_fd, check_fig6, check_report, check_view  # noqa: E402
from inputs import FIG6, raw_rows  # noqa: E402

SPECS = [
    FIG6,
    {"s1": {"Carrier": "B6"}, "s2": {"Carrier": "DL"}, "measure": "DelayMinute", "agg": "SUM"},
    {"s1": {"Hour": "evening"}, "s2": {"Hour": "morning"}, "measure": "DelayMinute", "agg": "COUNT"},
    # Δ < 0 as written: the program answers the swapped (oriented) query.
    {"s1": {"Month": "Nov"}, "s2": {"Month": "May"}, "measure": "Humidity", "agg": "AVG"},
]
VIEW = {"by": ["Carrier"], "measure": "DelayMinute", "agg": "AVG"}


@pytest.fixture(scope="module")
def served():
    from repro import ExplainSession, fit_model
    from repro.core.reporting import report_to_dict
    from repro.data.query import query_from_spec
    from repro.datasets import generate_flight

    table = generate_flight(n_rows=20_000, seed=0)
    model = fit_model(table)
    session = ExplainSession(model, table)
    rows = Rows(raw_rows(table), model.to_dict()["bin_specs"])
    reports = [
        report_to_dict(session.explain(query_from_spec(spec, table))) for spec in SPECS
    ]
    summary = session.explain_view(VIEW, orientation="pairwise").to_dict()
    return rows, reports, summary


def test_program_reports_pass(served):
    rows, reports, summary = served
    for spec, report in zip(SPECS, reports):
        assert report["explanations"], spec
        assert check_report(rows, spec, report) == []
    assert check_fig6(reports[0]) == []
    assert check_view(rows, VIEW, summary) == []
    assert check_fd(rows, "Month", "Quarter") == []


def test_altered_delta_is_rejected(served):
    rows, reports, _ = served
    for spec, report in zip(SPECS, reports):
        bad = copy.deepcopy(report)
        bad["delta"] += 1e-3 * abs(bad["delta"]) + 1e-3
        assert check_report(rows, spec, bad), spec


def test_swapped_orientation_is_rejected(served):
    rows, reports, _ = served
    bad = copy.deepcopy(reports[0])
    bad["query"]["s1"], bad["query"]["s2"] = bad["query"]["s2"], bad["query"]["s1"]
    assert check_report(rows, SPECS[0], bad)


def test_altered_predicate_is_rejected(served):
    rows, reports, _ = served
    swapped = 0
    for spec, report in zip(SPECS, reports):
        for i, explanation in enumerate(report["explanations"]):
            # A predicate that selects no rows explains nothing.
            bad = copy.deepcopy(report)
            bad["explanations"][i]["predicate"]["values"] = ["<altered>"]
            assert check_report(rows, spec, bad), (spec, explanation)
            # The complement of P (outside Γ) usually fails Def. 3.4 too;
            # for May vs Nov both Rain values are counterfactual causes.
            predicate = explanation["predicate"]
            taken = set(predicate["values"])
            if explanation["contingency"]:
                taken |= set(explanation["contingency"]["values"])
            rest = sorted(set(rows.code_of[predicate["dimension"]]) - taken)
            if rest:
                bad["explanations"][i]["predicate"]["values"] = rest
                swapped += bool(check_report(rows, spec, bad))
    assert swapped >= 3


def test_altered_responsibility_is_rejected(served):
    rows, reports, _ = served
    for spec, report in zip(SPECS, reports):
        for i, explanation in enumerate(report["explanations"]):
            bad = copy.deepcopy(report)
            rho = explanation["responsibility"]
            bad["explanations"][i]["responsibility"] = rho - 0.01 if rho > 0.5 else rho + 0.01
            assert check_report(rows, spec, bad), (spec, explanation)


def test_fig6_wants_rain_on_top(served):
    _, reports, _ = served
    bad = copy.deepcopy(reports[0])
    causal = [e for e in bad["explanations"] if e["type"] == "causal"]
    causal[0]["attribute"] = "Visibility"
    assert check_fig6(bad)


def test_altered_view_is_rejected(served):
    rows, _, summary = served
    missing = copy.deepcopy(summary)
    missing["pairs"].pop()
    assert check_view(rows, VIEW, missing)
    shifted = copy.deepcopy(summary)
    shifted["pairs"][0]["gap"] += 0.5
    assert check_view(rows, VIEW, shifted)


def test_broken_fd_is_rejected(served):
    rows, _, _ = served
    columns = dict(rows.columns)
    quarter = columns["Quarter"].copy()
    month = columns["Month"]
    first_may = int(np.flatnonzero(month == "May")[0])
    quarter[first_may] = "Q4"
    columns["Quarter"] = quarter
    assert check_fd(Rows(columns), "Month", "Quarter")
