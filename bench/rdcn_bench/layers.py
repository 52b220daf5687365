"""Where the benchmark traces the package, and how spans become layer metrics.

Each per-layer metric is named after the module that does the work and says
which end-to-end metric, on which workload, it should move.
"""

from __future__ import annotations

from dataclasses import dataclass

from rdcn_throughput import cli, demand, evaluation, flowlp, topology

from .spans import Instrument


def _linprog_attrs(args, kwargs, res):
    a_ub, a_eq = kwargs.get("A_ub"), kwargs.get("A_eq")
    mats = [m for m in (a_ub, a_eq) if m is not None]
    return {
        "vars": len(args[0]),
        "rows": sum(m.shape[0] for m in mats),
        "nnz": sum(m.nnz for m in mats),
        "nit": int(res.nit),
    }


def instruments() -> tuple:
    """Every traced call across a module boundary, with each attribute it is reached by."""
    return (
        Instrument("cli.reproduce", ((cli.reproduce, "callback"),)),
        Instrument("evaluation.sweep_degree", ((evaluation, "sweep_degree"),),
                   lambda a, k, r: {"rows": len(r.rows)}),
        Instrument("evaluation.sweep_matrices", ((evaluation, "sweep_matrices"),),
                   lambda a, k, r: {"rows": len(r.rows)}),
        Instrument("evaluation.cell", ((evaluation, "_evaluate_cell"),), cell=True),
        Instrument("evaluation.throughput_demand_aware",
                   ((evaluation, "throughput_demand_aware"),),
                   lambda a, k, r: {"solves": len(r[1].iter_values)}),
        Instrument("flowlp.solve_max_throughput", ((evaluation, "solve_max_throughput"),)),
        Instrument("flowlp.linprog", ((flowlp, "linprog"),), _linprog_attrs),
        Instrument("flowlp.verify_solution", ((evaluation, "verify_solution"),),
                   lambda a, k, r: {"violations": len(r.violations)}),
        Instrument("topology.build_demand_aware_periodic",
                   ((evaluation, "build_demand_aware_periodic"),
                    (topology, "build_demand_aware_periodic"))),
        Instrument("topology.build_demand_aware_static",
                   ((evaluation, "build_demand_aware_static"),)),
        Instrument("topology.build_static_expander", ((evaluation, "build_static_expander"),)),
        Instrument("topology.build_oblivious_equivalent",
                   ((evaluation, "build_oblivious_equivalent"),)),
        Instrument("decomposition.edge_color_regular", ((topology, "edge_color_regular"),),
                   lambda a, k, r: {"matchings": len(r)}),
        Instrument("decomposition.random_regular_digraph",
                   ((topology, "random_regular_digraph"),)),
        Instrument("demand.generate", ((evaluation, "generate"), (demand, "generate"))),
        Instrument("demand.validate_hose", ((topology, "validate_hose"),)),
        Instrument("demand.decompose_integer_residual",
                   ((topology, "decompose_integer_residual"),)),
    )


_SPAN_FIELDS = {"id", "name", "parent", "cell", "pid", "start", "end", "self"}


class SpanSummary:
    """Per span name: call count, summed self time, and summed/max attributes."""

    def __init__(self, spans):
        self.calls, self.self_s, self.sums, self.maxima = {}, {}, {}, {}
        for record in spans:
            name = record["name"]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + record["self"]
            for key in record.keys() - _SPAN_FIELDS:  # counts added by Instrument.attrs
                self.sums[name, key] = self.sums.get((name, key), 0) + record[key]
                self.maxima[name, key] = max(self.maxima.get((name, key), 0), record[key])

    def count(self, name):
        return self.calls.get(name, 0)

    def self_time(self, *prefixes):
        return sum(v for k, v in self.self_s.items() if k.startswith(prefixes))

    def total(self, name, key):
        return self.sums.get((name, key), 0)

    def peak(self, name, key):
        return self.maxima.get((name, key), 0)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    moves: str  # the end-to-end metric and workload this layer should move
    value: object  # SpanSummary -> number


_SCAN = "scan-chessboard-n16"
_LP = "flowlp.linprog"
_SOLVE = "flowlp.solve_max_throughput"
_DA = "evaluation.throughput_demand_aware"
_BUILDS = "topology.build_"

LAYER_METRICS = (
    LayerMetric("flowlp.highs_s", "s", f"wall_ref, cpu_ref on {_SCAN}",
                lambda s: s.self_time(_LP)),
    LayerMetric("flowlp.highs_calls", "count", f"wall_ref, cpu_ref on {_SCAN}",
                lambda s: s.count(_LP)),
    LayerMetric("flowlp.highs_nit", "count", f"wall_ref, cpu_ref on {_SCAN}",
                lambda s: s.total(_LP, "nit")),
    LayerMetric("flowlp.fallbacks", "count", f"wall_ref, cpu_ref on {_SCAN}",
                lambda s: s.count(_LP) - s.count(_SOLVE)),
    LayerMetric("flowlp.assemble_s", "s", "wall_ref on sweep-n8",
                lambda s: s.self_time(_SOLVE)),
    LayerMetric("flowlp.verify_s", "s", "wall_ref on sweep-n8",
                lambda s: s.self_time("flowlp.verify_solution")),
    LayerMetric("flowlp.verify_violations", "count", "wall_ref on sweep-n8",
                lambda s: s.total("flowlp.verify_solution", "violations")),
    LayerMetric("flowlp.lp_vars_max", "count", f"flowlp.highs_s, peak_rss_mb on {_SCAN}",
                lambda s: s.peak(_LP, "vars")),
    LayerMetric("flowlp.lp_rows_max", "count", f"flowlp.highs_s, peak_rss_mb on {_SCAN}",
                lambda s: s.peak(_LP, "rows")),
    LayerMetric("flowlp.lp_nnz_max", "count", f"flowlp.highs_s, peak_rss_mb on {_SCAN}",
                lambda s: s.peak(_LP, "nnz")),
    LayerMetric("evaluation.cells_planned", "count", "wall_ref on sweep-n8 (dedup)",
                lambda s: s.total("evaluation.sweep_degree", "rows")
                + s.total("evaluation.sweep_matrices", "rows")),
    LayerMetric("evaluation.cells_solved", "count", "wall_ref on sweep-n8 (dedup, pool)",
                lambda s: s.count("evaluation.cell")),
    LayerMetric("evaluation.scan_solves", "count", f"wall_ref on {_SCAN} and sweep-n8",
                lambda s: s.total(_DA, "solves")),
    LayerMetric("evaluation.scan_solves_max", "count", f"wall_ref on {_SCAN}",
                lambda s: s.peak(_DA, "solves")),
    LayerMetric("evaluation.self_s", "s", f"wall_ref on {_SCAN} and sweep-n8",
                lambda s: s.self_time("evaluation.")),
    LayerMetric("topology.builds", "count", f"wall_ref on synth-n64, not on {_SCAN}",
                lambda s: sum(n for k, n in s.calls.items() if k.startswith(_BUILDS))),
    LayerMetric("topology.build_self_s", "s", f"wall_ref on synth-n64, not on {_SCAN}",
                lambda s: s.self_time(_BUILDS)),
    LayerMetric("decomposition.edge_color_s", "s", f"wall_ref on synth-n64, not on {_SCAN}",
                lambda s: s.self_time("decomposition.edge_color_regular")),
    LayerMetric("decomposition.matchings", "count", f"wall_ref on synth-n64, not on {_SCAN}",
                lambda s: s.total("decomposition.edge_color_regular", "matchings")),
    LayerMetric("decomposition.rrg_s", "s", f"wall_ref on synth-n64, not on {_SCAN}",
                lambda s: s.self_time("decomposition.random_regular_digraph")),
    LayerMetric("demand.generate_s", "s", "setup_s on all; wall_ref on synth-n64",
                lambda s: s.self_time("demand.generate")),
    LayerMetric("demand.hose_s", "s", "setup_s on all; wall_ref on synth-n64",
                lambda s: s.self_time("demand.validate_hose")),
    LayerMetric("demand.decompose_s", "s", "setup_s on all; wall_ref on synth-n64",
                lambda s: s.self_time("demand.decompose_integer_residual")),
    LayerMetric("cli.self_s", "s", "wall_ref on sweep-n8",
                lambda s: s.self_time("cli.")),
)
