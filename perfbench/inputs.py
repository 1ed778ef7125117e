"""Seeded inputs: the FLIGHT table, the Why Query streams and the charts.

Everything is a pure function of the workload seed.  Query streams leave
out sibling pairs whose numpy Δ is 0: for those the program's typed
"nothing to explain" error is the correct answer, not a failure.
"""

from __future__ import annotations

import itertools

import numpy as np

from checks import Rows, aggregate, delta_of

#: Rows of the FLIGHT table every workload fits and serves.
ROWS = 100_000
#: Distinct queries in the cold stream.  The lone HTTP explains take the
#: last COLD_HTTP of them and the TCP loop the rest, so neither front
#: re-asks a query the other just warmed; each slice's cycle, with the
#: other front's traffic in between, outruns the session's 256-entry
#: workspace cache.
COLD_QUERIES = 640
COLD_HTTP = 128
#: The paper's Fig. 6 query.
FIG6 = {
    "s1": {"Month": "May"},
    "s2": {"Month": "Nov"},
    "measure": "DelayMinute",
    "agg": "AVG",
}
#: The hot set: the same queries on every seed, so the mix of search paths
#: (AVG greedy, SUM/COUNT canonical, with and without a background) is fixed.
HOT = [
    FIG6,
    {"s1": {"Carrier": "B6"}, "s2": {"Carrier": "DL"}, "measure": "DelayMinute", "agg": "AVG"},
    {"s1": {"Hour": "evening"}, "s2": {"Hour": "morning"}, "measure": "DelayMinute", "agg": "SUM"},
    {"s1": {"DayOfWeek": "Fri", "Rain": "Yes"}, "s2": {"DayOfWeek": "Mon", "Rain": "Yes"},
     "measure": "DelayMinute", "agg": "COUNT"},
    {"s1": {"Visibility": "low"}, "s2": {"Visibility": "high"}, "measure": "Humidity", "agg": "AVG"},
    {"s1": {"Month": "Jan", "Carrier": "AA"}, "s2": {"Month": "Jul", "Carrier": "AA"},
     "measure": "Temperature", "agg": "SUM"},
]

_FOREGROUNDS = ("Month", "DayOfWeek", "Carrier", "Hour", "Visibility")
_BACKGROUNDS = (None, "Hour", "Carrier", "Rain", "DayOfWeek")
_MEASURES = ("DelayMinute", "Humidity", "Temperature")
_AGGS = ("AVG", "SUM", "COUNT")
COLD_CHART_DIM = "DayOfWeek"
HOT_CHART = {"by": ["Carrier"], "measure": "DelayMinute", "agg": "AVG"}


class Cycle:
    """Endless iteration over a fixed list, remembering its position."""

    def __init__(self, items: list) -> None:
        self.items = items
        self.position = 0

    def take(self, n: int) -> list:
        out = [self.items[(self.position + i) % len(self.items)] for i in range(n)]
        self.position += n
        return out


def make_table(seed: int):
    from repro.datasets import generate_flight

    return generate_flight(n_rows=ROWS, seed=seed)


def raw_rows(table) -> dict:
    """Column name → numpy array of the table's raw values."""
    out = {}
    for name in table.dimensions:
        out[name] = np.asarray(table.values(name), dtype=str)
    for name in table.measures:
        out[name] = np.asarray(table.values(name), dtype=np.float64)
    return out


def _candidates(rows: Rows) -> list[dict]:
    """Every sibling pair over the foreground/background/measure/agg grid."""
    values = {
        d: sorted(np.unique(rows.columns[d]).tolist())
        for d in set(_FOREGROUNDS) | {b for b in _BACKGROUNDS if b}
    }
    out = []
    for fg in _FOREGROUNDS:
        for bg in _BACKGROUNDS:
            if bg == fg:
                continue
            contexts = [{}] if bg is None else [{bg: v} for v in values[bg]]
            for context, (a, b) in itertools.product(
                contexts, itertools.combinations(values[fg], 2)
            ):
                for measure, agg in itertools.product(_MEASURES, _AGGS):
                    if agg == "COUNT" and measure != "DelayMinute":
                        continue  # COUNT ignores the measure
                    out.append(
                        {
                            "s1": {fg: a, **context},
                            "s2": {fg: b, **context},
                            "measure": measure,
                            "agg": agg,
                        }
                    )
    return out


def _explainable(rows: Rows, spec: dict) -> bool:
    return abs(delta_of(rows, spec)) > 1e-9


def cold_stream(rows: Rows, seed: int) -> list[dict]:
    """Fig. 6 plus COLD_QUERIES − 1 distinct seeded queries with Δ ≠ 0.

    Queries are taken from each (foreground, measure, aggregate) group in
    turn, so every window of the stream has the same mix of search paths;
    the seed picks the values and backgrounds within each group."""
    rng = np.random.default_rng(seed)
    groups: dict[tuple, list[dict]] = {}
    for spec in _candidates(rows):
        key = (next(iter(spec["s1"])), spec["measure"], spec["agg"])
        groups.setdefault(key, []).append(spec)
    queues = [[group[i] for i in rng.permutation(len(group))] for group in groups.values()]
    out = [FIG6]
    turn = 0
    while len(out) < COLD_QUERIES:
        spec = queues[turn % len(queues)].pop()
        turn += 1
        if spec != FIG6 and _explainable(rows, spec):
            out.append(spec)
    return out


def hot_stream(rows: Rows, seed: int) -> list[dict]:
    """The fixed hot set (Fig. 6 first); the seed changes only the rows."""
    return [spec for spec in HOT if _explainable(rows, spec)]


def _chart_ok(rows: Rows, chart: dict) -> bool:
    """No two bars tie, so no pair of the view has Δ = 0."""
    (dimension,) = chart["by"]
    column = rows.columns[dimension]
    measure = rows.columns[chart["measure"]]
    bars = [
        aggregate(measure[column == v], chart["agg"]) for v in np.unique(column)
    ]
    return len(set(bars)) == len(bars)


def cold_charts(rows: Rows, seed: int) -> list[dict]:
    """AVG charts by DayOfWeek (7 bars, 21 pairs each), one per measure, in
    a seeded order.  A round shows each once, so every round has the same
    mix and the latency median cannot hop between the costs of different
    search paths (a SUM/AVG mix spread view_ms by 0.19 over ten runs).  The
    cold TCP and HTTP traffic between two showings evicts a chart's pairs
    from the workspace cache."""
    rng = np.random.default_rng(seed)
    charts = [{"by": [COLD_CHART_DIM], "measure": m, "agg": "AVG"} for m in _MEASURES]
    return [charts[i] for i in rng.permutation(len(charts)) if _chart_ok(rows, charts[i])]


def hot_charts(rows: Rows, seed: int) -> list[dict]:
    return [HOT_CHART]
