"""Output checks computed apart from the program, in numpy on the raw rows.

Nothing here imports ``repro``: every expected value is recomputed from the
raw column arrays (and, for binned measures, from the bin edges stored in the
saved artifact's JSON), so a fault in the program's kernels cannot hide
behind the same fault in the check.

Each ``check_*`` function returns a list of violation strings; empty means
the output passed.
"""

from __future__ import annotations

import numpy as np

#: Def. 3.4's counterfactual threshold: ε = EPSILON_FRACTION · Δ(D).
EPSILON_FRACTION = 0.05
#: Def. 3.5 tolerance on ρ (reports round ρ to 6 decimals).
RHO_TOLERANCE = 1e-5


class Rows:
    """Raw rows as numpy arrays, plus the artifact's bin columns.

    ``columns`` maps a column name to its values (strings for dimensions,
    float64 for measures).  ``bin_specs`` is the ``bin_specs`` object of a
    saved model's JSON; each spec adds a derived label column computed here
    with ``np.digitize`` over the stored edges.  String columns are also
    kept as integer codes, so row masks are integer compares.
    """

    def __init__(self, columns: dict, bin_specs: dict | None = None) -> None:
        self.columns = dict(columns)
        for spec in (bin_specs or {}).values():
            self.columns[spec["column"]] = bin_labels(
                self.columns[spec["measure"]], spec
            )
        self.n = len(next(iter(self.columns.values())))
        self.codes: dict[str, np.ndarray] = {}
        self.code_of: dict[str, dict[str, int]] = {}
        for name, values in self.columns.items():
            if values.dtype.kind == "U":
                cats, codes = np.unique(values, return_inverse=True)
                self.codes[name] = codes
                self.code_of[name] = {c: i for i, c in enumerate(cats.tolist())}

    def mask(self, subspace: dict) -> np.ndarray:
        out = np.ones(self.n, dtype=bool)
        for dimension, value in subspace.items():
            out &= self.codes[dimension] == self.code_of[dimension].get(str(value), -1)
        return out

    def codes_for(self, dimension: str, values) -> np.ndarray:
        known = self.code_of[dimension]
        return np.array([known.get(str(v), -1) for v in values])


def bin_labels(values: np.ndarray, spec: dict) -> np.ndarray:
    """Label of each value under a stored bin spec (``[low, high)`` text)."""
    bins = spec["bins"]
    if spec["method"] == "singleton":
        cats = np.array([low for low, _ in bins])
        idx = np.abs(values[:, None] - cats[None, :]).argmin(axis=1)
        labels = np.array([f"={c:.4g}" for c in cats])
        return labels[idx]
    edges = np.array([low for low, _ in bins] + [bins[-1][1]])
    idx = np.digitize(values, edges[1:-1], right=False)
    labels = np.array([f"[{low:.4g}, {high:.4g})" for low, high in bins])
    return labels[idx]


def aggregate(values: np.ndarray, agg: str) -> float:
    """SUM / AVG / COUNT of a vector; AVG of no rows is 0."""
    if agg == "COUNT":
        return float(values.size)
    if values.size == 0:
        return 0.0
    if agg == "SUM":
        return float(values.sum())
    return float(values.mean())


class QueryRows:
    """The two sibling slices of one Why Query, for repeated Δ probes."""

    def __init__(self, rows: Rows, spec: dict) -> None:
        self.rows = rows
        self.agg = spec["agg"]
        values = rows.columns[spec["measure"]]
        self.m1 = rows.mask(spec["s1"])
        self.m2 = rows.mask(spec["s2"])
        self.v1 = values[self.m1]
        self.v2 = values[self.m2]

    def delta(self, removed1=None, removed2=None) -> float:
        """Δ(D − D_X) given the removed-row flags of each sibling slice."""
        v1 = self.v1 if removed1 is None else self.v1[~removed1]
        v2 = self.v2 if removed2 is None else self.v2[~removed2]
        return aggregate(v1, self.agg) - aggregate(v2, self.agg)

    def flags(self, dimension: str, values) -> tuple[np.ndarray, np.ndarray]:
        """Which rows of each sibling slice fall in a predicate's values."""
        codes = self.rows.codes[dimension]
        wanted = self.rows.codes_for(dimension, values)
        return np.isin(codes[self.m1], wanted), np.isin(codes[self.m2], wanted)


def delta_of(rows: Rows, spec: dict) -> float:
    """Δ(D) of a query spec ``{s1, s2, measure, agg}``."""
    return QueryRows(rows, spec).delta()


def _close(a: float, b: float, abs_tol: float = 1e-6) -> bool:
    return abs(a - b) <= abs_tol + 1e-9 * max(abs(a), abs(b))


def check_report(rows: Rows, spec: dict, report: dict) -> list[str]:
    """Δ, orientation, Def. 3.4 and Def. 3.5 for one report dict."""
    problems: list[str] = []
    q = QueryRows(rows, spec)
    delta = q.delta()
    if delta < 0:  # the program answers the oriented query (Δ ≥ 0)
        spec = {**spec, "s1": spec["s2"], "s2": spec["s1"]}
        q = QueryRows(rows, spec)
        delta = q.delta()
    query = report["query"]
    sides = {k: {d: str(v) for d, v in spec[k].items()} for k in ("s1", "s2")}
    if (
        query["s1"] != sides["s1"]
        or query["s2"] != sides["s2"]
        or query["measure"] != spec["measure"]
        or query["aggregate"] != spec["agg"]
    ):
        problems.append(f"report answers {query}, expected {spec}")
        return problems
    if not _close(report["delta"], delta):
        problems.append(f"{spec}: Δ {report['delta']} != numpy {delta}")
    epsilon = EPSILON_FRACTION * delta
    slack = 1e-9 * abs(delta) + 1e-9
    for e in report["explanations"]:
        name = f"{spec}: {e['attribute']}={e['predicate']['values']}"
        p1, p2 = q.flags(e["predicate"]["dimension"], e["predicate"]["values"])
        gamma = e["contingency"]
        if gamma is None:
            g1, g2 = np.zeros_like(p1), np.zeros_like(p2)
        else:
            if gamma["dimension"] != e["predicate"]["dimension"]:
                problems.append(f"{name}: Γ on another attribute")
                continue
            g1, g2 = q.flags(gamma["dimension"], gamma["values"])
            if (p1 & g1).any() or (p2 & g2).any():
                problems.append(f"{name}: P and Γ overlap")
            if q.delta(g1, g2) <= epsilon - slack:
                problems.append(f"{name}: Δ(D−D_Γ) ≤ ε (Def. 3.4)")
        without_both = q.delta(p1 | g1, p2 | g2)
        if without_both > epsilon + slack:
            problems.append(
                f"{name}: Δ(D−D_P−D_Γ) = {without_both:.6g} > ε = "
                f"{epsilon:.6g} (Def. 3.4)"
            )
        weight = max((q.delta(p1, p2) - without_both) / delta, 0.0)
        rho = 1.0 / (1.0 + weight)
        if abs(rho - e["responsibility"]) > RHO_TOLERANCE:
            problems.append(
                f"{name}: ρ {e['responsibility']} != 1/(1+|Γ|_W) = {rho:.6f} "
                "(Def. 3.5)"
            )
    return problems


def check_fig6(report: dict) -> list[str]:
    """May vs Nov AVG(DelayMinute): the top causal explanation is on Rain."""
    causal = [e for e in report["explanations"] if e["type"] == "causal"]
    if not causal or causal[0]["attribute"] != "Rain":
        top = causal[0]["attribute"] if causal else None
        return [f"May vs Nov: top causal explanation on {top!r}, not 'Rain'"]
    return []


def check_view(rows: Rows, view: dict, summary: dict) -> list[str]:
    """A pairwise view of n groups holds n(n−1)/2 pairs, each with the
    numpy Δ of its two bars (and each bar the numpy aggregate)."""
    problems: list[str] = []
    (dimension,) = view["by"]
    groups = summary["view"]["groups"]
    n = len(groups)
    pairs = summary["pairs"]
    if len(pairs) != n * (n - 1) // 2:
        problems.append(f"{view}: {len(pairs)} pairs for {n} groups")
    values = rows.columns[view["measure"]]
    for group in groups:
        mask = rows.mask({dimension: group["key"][0]})
        if not _close(group["value"], aggregate(values[mask], view["agg"])):
            problems.append(f"{view}: bar {group['key']} = {group['value']}")
    for pair in pairs:
        if pair["error"] is not None or pair["report"] is None:
            problems.append(f"{view}: pair {pair['index']} failed: {pair['error']}")
            continue
        spec = {
            "s1": {dimension: pair["s1_key"][0]},
            "s2": {dimension: pair["s2_key"][0]},
            "measure": view["measure"],
            "agg": view["agg"],
        }
        delta = delta_of(rows, spec)
        if not (_close(pair["gap"], delta) and _close(pair["report"]["delta"], delta)):
            problems.append(
                f"{view}: pair {pair['s1_key']}/{pair['s2_key']} gap "
                f"{pair['gap']} Δ {pair['report']['delta']} != numpy {delta}"
            )
    return problems


def check_fd(rows: Rows, lhs: str, rhs: str) -> list[str]:
    """``lhs → rhs`` holds in the rows: each lhs value has one rhs value."""
    pairs = np.unique(np.stack([rows.codes[lhs], rows.codes[rhs]]), axis=1)
    if pairs.shape[1] != len(rows.code_of[lhs]):
        return [f"{lhs} → {rhs} does not hold in the rows"]
    return []
