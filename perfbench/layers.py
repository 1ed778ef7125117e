"""The traced pass: per-layer costs, timed from outside the program.

Every number here is this file's own timer around a call into one layer's
public functions (or a count the layer already exports); nothing inside
``src/`` is instrumented.  The probes run between the timed rounds of a
``--trace 1`` run, one probe per round in a fixed cycle, so the rounds'
end-to-end figures stay comparable with an untraced run: their difference
is the tracing overhead.

Layers are the repo's modules: ``data``, ``fd``, ``independence``,
``discovery``, ``graph``, ``core`` and ``serve``.  ``repro.parallel`` is
never driven (every workload runs serially).
"""

from __future__ import annotations

import asyncio
import json
import statistics
import subprocess
import sys
import threading
import time
from collections import OrderedDict, defaultdict

#: Per-layer metric → unit.  The README maps each one to the end-to-end
#: metric and workload it should move.
UNITS = {
    "data.discretize_ms": "ms",
    "fd.detect_ms": "ms",
    "independence.encode_ms": "ms",
    "discovery.skeleton_ms": "ms",
    "discovery.pds_ms": "ms",
    "discovery.orient_ms": "ms",
    "independence.ci_tests": "count",
    "independence.ci_cache_hit_ratio": "share",
    "serve.import_s": "s",
    "data.store_attach_ms": "ms",
    "core.session_build_ms": "ms",
    "data.workspace_ms": "ms",
    "core.workspace_hit_ratio": "share",
    "core.translate_ms": "ms",
    "graph.homogeneity_ms": "ms",
    "core.search_ms": "ms",
    "core.explain_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.service_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.batch_size": "count",
    "serve.dedup_ratio": "share",
    "serve.tcp_wire_ms": "ms",
    "serve.http_wire_ms": "ms",
    "serve.http_p90_ms": "ms",
    "core.view_enumerate_ms": "ms",
    "core.view_merge_ms": "ms",
    "core.view_pairs": "count",
}
#: Requests of the workload's stream replayed in-process per online probe.
REPLAY = 24
#: Lone requests per wire probe.
LONE = 16
#: The session's workspace cache size, mirrored by the replay.
WORKSPACE_CACHE = 256

_IMPORT = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t)"
)


def _ms(started: float) -> float:
    return (time.perf_counter() - started) * 1e3


def _spans(node: dict, name: str):
    """Every span called ``name`` in a trace snapshot's span tree."""
    if node.get("name") == name:
        yield node
    for child in node.get("children", ()):
        yield from _spans(child, name)


class Tracer:
    """Per-layer probes over one :class:`run.Run`."""

    def __init__(self, run) -> None:
        from inputs import FIG6, Cycle
        from repro.data.query import query_from_spec
        from repro.serve import ExplanationService

        self.run = run
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.tasks = [self._offline, self._online, self._wire, self._view, self._boot]
        self.done: set = set()
        self.turn = 0
        self.fig6 = FIG6
        self.fig6_query = query_from_spec(FIG6, run.table)
        # In-process replay state, mirroring the session's memo tables.
        self.stream = Cycle(run.stream)
        self.charts = Cycle(run.charts)
        self.workspaces: OrderedDict = OrderedDict()
        self.translations: dict = {}
        self.homogeneity: dict = {}
        self.workspace_ms = 0.0
        self.replayed = 0
        # An in-process service on its own event loop thread, for the
        # service and wire shares of a lone request.
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()

        async def start():
            return await ExplanationService(run.model, run.table, workers=1).start()

        self.service = self._await(start())

    def _await(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(120)

    def probe(self, tcp, http) -> None:
        """Run the next probe of the cycle."""
        task = self.tasks[self.turn % len(self.tasks)]
        self.turn += 1
        task(tcp, http)
        self.done.add(task)

    def finish(self, tcp) -> None:
        """Run any probe a short run skipped, then read the server's own
        counters for the whole run."""
        for task in self.tasks:
            if task not in self.done:
                task(tcp, None)
        stats = tcp.request({"op": "stats"})["stats"]
        self.samples["serve.batch_size"].append(stats["completed"] / max(stats["batches"], 1))
        self.samples["serve.dedup_ratio"].append(stats["deduped"] / max(stats["submitted"], 1))
        cache = stats["cache"]
        looked_up = cache["workspace_hits"] + cache["workspace_misses"]
        self.samples["core.workspace_hit_ratio"].append(cache["workspace_hits"] / max(looked_up, 1))

    def metrics(self) -> dict:
        out = {}
        for name, unit in UNITS.items():
            series = self.samples.get(name)
            value = statistics.median(series) if series else 0.0
            out[name] = {"value": value, "unit": unit}
        return out

    def close(self) -> None:
        self._await(self.service.stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()

    # ------------------------------------------------------------------
    # Offline: data (discretize), fd, independence, discovery
    # ------------------------------------------------------------------

    def _offline(self, tcp, http) -> None:
        from repro.core.model import fit_offline
        from repro.data.discretize import fit_bins
        from repro.discovery.fci import default_ci_test
        from repro.fd.graph import fd_graph_from_table

        table, model, s = self.run.table, self.run.model, self.samples
        started = time.perf_counter()
        graph_table = table
        for measure in table.measures:
            spec = fit_bins(table, measure, n_bins=model.measure_bins)
            graph_table = spec.apply(graph_table)
        s["data.discretize_ms"].append(_ms(started))
        started = time.perf_counter()
        fd_graph_from_table(graph_table, graph_table.dimensions)
        s["fd.detect_ms"].append(_ms(started))
        started = time.perf_counter()
        default_ci_test(graph_table, alpha=model.alpha)
        s["independence.encode_ms"].append(_ms(started))

        fitted, _learner, ci_test, _ = fit_offline(table)
        (fci,) = [p for p in fitted.fit_profile["phases"] if p["name"] == "fci"]
        phases = {p["name"]: p["seconds"] * 1e3 for p in fci["phases"]}
        s["discovery.skeleton_ms"].append(phases["skeleton"])
        s["discovery.pds_ms"].append(phases["possible_d_sep"])
        s["discovery.orient_ms"].append(phases["orientation"])
        s["independence.ci_tests"].append(ci_test.calls)
        s["independence.ci_cache_hit_ratio"].append(ci_test.hits / max(ci_test.calls, 1))

    # ------------------------------------------------------------------
    # Server boot: import, store attach, session build
    # ------------------------------------------------------------------

    def _boot(self, tcp, http) -> None:
        from repro import ExplainSession, Table

        run, s = self.run, self.samples
        env = dict(run.server.env)
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        s["serve.import_s"].append(float(out.stdout.strip()))
        started = time.perf_counter()
        table = Table.from_store(run.store)
        s["data.store_attach_ms"].append(_ms(started))
        started = time.perf_counter()
        ExplainSession(run.model, table)
        s["core.session_build_ms"].append(_ms(started))

    # ------------------------------------------------------------------
    # Online: replay the workload's own stream in-process
    # ------------------------------------------------------------------

    def _online(self, tcp, http) -> None:
        from repro.core.reporting import report_to_dict
        from repro.core.xplainer import explain_attribute
        from repro.core.xtranslator import XDASemantics, translate
        from repro.data.query import QueryWorkspace, query_from_spec
        from repro.graph import m_separated

        session, s = self.run.session, self.samples
        model, graph, table = session.model, session.graph, session.graph_table
        for spec in self.stream.take(REPLAY):
            query = query_from_spec(spec, self.run.table)

            started = time.perf_counter()
            report = session.explain(query)
            s["core.explain_ms"].append(_ms(started))
            started = time.perf_counter()
            json.dumps(report_to_dict(report), separators=(",", ":"))
            s["serve.encode_ms"].append(_ms(started))

            self.replayed += 1
            workspace = self.workspaces.get(query)
            if workspace is not None:
                self.workspaces.move_to_end(query)
            else:
                started = time.perf_counter()
                workspace = QueryWorkspace(table, query).oriented()
                self.workspace_ms += _ms(started)
            oriented = workspace.query
            ctx = oriented.context
            key = (oriented.measure, ctx.foreground, tuple(ctx.background))
            translations = self.translations.get(key)
            if translations is None:
                candidates = session.candidates_for(oriented)
                started = time.perf_counter()
                translations = translate(
                    graph, measure=oriented.measure, context=ctx,
                    variables=candidates, aliases=model.aliases,
                )
                s["core.translate_ms"].append(_ms(started))
                self.translations[key] = translations
            explainable = [
                (model.node_of(variable), verdict)
                for variable, verdict in translations.items()
                if verdict.semantics is not XDASemantics.NO_EXPLAINABILITY
            ]
            homogeneous = {}
            node_f = model.node_of(ctx.foreground)
            background = frozenset(
                model.node_of(b) for b in ctx.background
                if graph.has_node(model.node_of(b))
            )
            for node, _ in explainable:
                pair = (node, node_f, background)
                if pair not in self.homogeneity:
                    started = time.perf_counter()
                    self.homogeneity[pair] = m_separated(
                        graph, node, node_f, background, definite=False
                    )
                    s["graph.homogeneity_ms"].append(_ms(started))
                homogeneous[node] = self.homogeneity[pair]
            if query not in self.workspaces:
                started = time.perf_counter()
                workspace.build_profiles([node for node, _ in explainable])
                self.workspace_ms += _ms(started)
                self.workspaces[query] = workspace
                while len(self.workspaces) > WORKSPACE_CACHE:
                    self.workspaces.popitem(last=False)
            started = time.perf_counter()
            for node, _ in explainable:
                explain_attribute(
                    table, oriented, node, homogeneous=homogeneous[node],
                    workspace=workspace,
                )
            s["core.search_ms"].append(_ms(started))
        s["data.workspace_ms"] = [self.workspace_ms / self.replayed]

    # ------------------------------------------------------------------
    # Serving: service, queue, wire
    # ------------------------------------------------------------------

    def _wire(self, tcp, http) -> None:
        """Lone warm requests of the Fig. 6 query down every path; the
        differences give the service's and each wire front's share."""
        s, session, query = self.samples, self.run.session, self.fig6_query
        session.explain(query)
        self._await(self.service.explain(query))
        tcp_rtt, http_rtt, service, explain = [], [], [], []
        for _ in range(LONE):
            started = time.perf_counter()
            tcp.request({"op": "explain", "query": self.fig6})
            tcp_rtt.append(_ms(started))
            if http is not None:
                started = time.perf_counter()
                http.call("POST", "explain", {"query": self.fig6})
                http_rtt.append(_ms(started))
            started = time.perf_counter()
            self._await(self.service.explain(query))
            service.append(_ms(started))
            started = time.perf_counter()
            session.explain(query)
            explain.append(_ms(started))
        service_ms = statistics.median(service)
        s["serve.service_ms"].append(service_ms - statistics.median(explain))
        s["serve.tcp_wire_ms"].append(statistics.median(tcp_rtt) - service_ms)
        if http_rtt:
            s["serve.http_wire_ms"].append(statistics.median(http_rtt) - service_ms)
        traces = tcp.request({"op": "traces"})["traces"]
        lone = (2 if http_rtt else 1) * LONE
        for trace in traces[:lone]:
            root = trace.get("root", trace)
            for span in _spans(root, "queue"):
                s["serve.queue_wait_ms"].append(span["duration_ms"])

    # ------------------------------------------------------------------
    # Views: enumerate and merge
    # ------------------------------------------------------------------

    def _view(self, tcp, http) -> None:
        from repro.core.view import enumerate_view_queries, summarize_view, view_from_spec

        s, session = self.samples, self.run.session
        (chart,) = self.charts.take(1)
        view = view_from_spec(chart, self.run.table)
        started = time.perf_counter()
        specs = enumerate_view_queries(view, "pairwise")
        s["core.view_enumerate_ms"].append(_ms(started))
        reports = [session.explain(spec.query) for spec in specs]
        started = time.perf_counter()
        summarize_view(view, specs, reports)
        s["core.view_merge_ms"].append(_ms(started))
        s["core.view_pairs"].append(len(specs))
