"""Per-layer metrics from the traced run, and the end-to-end metric each should move.

The layers are the package modules.  ``trace_runner.py`` writes one span
tree per operation process; ``compute`` turns the trees of one pass into
the metrics below.  Times are totals over the pass's operations except
``cli.import_s`` and ``cli.overhead_s``, which are medians per operation.
A layer's self time is its spans' duration minus the time their child
spans cover.
"""

from __future__ import annotations

import statistics

LAYERS = ("cli", "stepmodel", "exact", "asym", "presets", "detlab", "verify")
SUITES = ("oracle", "det", "schur", "selberg", "dsin", "signs", "consistency")

DETLAB_GROUPS = {
    "exact": {"det_exact", "det_cofactor", "check_typeC_det_identity",
              "schur_orthogonal_identity_check", "quotient_identity_check",
              "mixed_vandermonde_det"},
    "numeric": {"dsin_leading_ratio", "gaussian_kernel_det_ratio", "sin_det_shift_residual"},
    "selberg": {"selberg_closed_form", "selberg_mc_check"},
}

# name -> (unit, better, end-to-end metric it should move, workload, what it measures)
METRICS: dict[str, tuple[str, str, str, str, str]] = {
    "cli.import_s": ("s", "lower", "setup_s; wall_s, op_p50_s", "all; short-ops",
                     "import chamberwalk.cli in a fresh interpreter, median per process"),
    "cli.overhead_s": ("s", "lower", "wall_s, op_p50_s", "short-ops",
                       "process wall time minus its top-level layer spans, median per op"),
    "exact.kernel_s": ("s", "lower", "wall_s, peak_rss_mb", "reflection-deep (not dp-oracle)",
                       "cold count_unconstrained probe per reflection op, own process"),
    "exact.reflection_s": ("s", "lower", "wall_s", "reflection-deep, signed-sum-wide",
                           "spans of count_reflection and count_reflection_free"),
    "exact.signed_sum_terms": ("count", "lower", "wall_s", "signed-sum-wide",
                               "items yielded by signed_permutations"),
    "exact.free_endpoint_calls": ("count", "lower", "wall_s", "signed-sum-wide",
                                  "count_reflection calls made by count_reflection_free"),
    "exact.free_endpoint_nonzero_ratio": ("ratio", "higher", "wall_s", "signed-sum-wide",
                                          "share of those calls with a nonzero count"),
    "exact.dp_s": ("s", "lower", "wall_s", "dp-oracle (not reflection-deep)",
                   "spans of count_confined and count_confined_free"),
    "exact.dp_step_s": ("s", "lower", "wall_s", "dp-oracle (not reflection-deep)",
                        "exact.dp_s per composite step"),
    "exact.result_bits": ("count", "lower", "none (work size)", "all",
                          "bit length of the counts returned out of exact"),
    "asym.eval_s": ("s", "lower", "wall_s, op_p50_s", "short-ops",
                    "spans of asym_fixed and asym_free"),
    "asym.compare_self_s": ("s", "lower", "wall_s, op_p50_s", "short-ops",
                            "compare_series minus its exact child spans"),
    "stepmodel.maximal_points_s": ("s", "lower", "wall_s, op_p50_s", "short-ops",
                                   "spans of maximal_points, every binding"),
    "presets.asym_s": ("s", "lower", "wall_s, op_p50_s", "short-ops", "spans of preset_asym"),
    "detlab.exact_s": ("s", "lower", "wall_s, op_p50_s", "short-ops", "exact determinant checks"),
    "detlab.numeric_s": ("s", "lower", "wall_s, op_p50_s", "short-ops",
                         "numeric determinant checks"),
    "detlab.selberg_s": ("s", "lower", "wall_s, op_p50_s, peak_rss_mb", "short-ops",
                         "Selberg closed forms and Monte Carlo"),
    **{f"verify.{suite}_s": ("s", "lower", "wall_s, op_p50_s", "short-ops",
                             f"run_suite('{suite}')") for suite in SUITES},
    "verify.checks": ("count", "higher", "error_rate", "short-ops", "records the suites returned"),
    "verify.failed_checks": ("count", "lower", "error_rate", "short-ops",
                             "records with pass false"),
    **{f"{layer}.self_s": ("s", "lower", "wall_s", "all", f"self time of the {layer} layer")
       for layer in LAYERS},
    **{f"{layer}.calls": ("count", "lower", "error_rate", "all",
                          f"calls into {layer} from another layer")
       for layer in LAYERS},
    **{f"{layer}.errors": ("count", "lower", "error_rate", "all",
                           f"exceptions raised out of {layer}")
       for layer in LAYERS},
    "trace.overhead_ratio": ("ratio", "lower", "none", "all",
                             "traced pass wall time over untraced pass wall time"),
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class _Tree:
    """One operation's coalesced spans: [name, parent, start, end, total, calls, errors, attrs]."""

    def __init__(self, nodes: list[list]):
        self.nodes = nodes
        self.children: list[list[int]] = [[] for _ in nodes]
        for idx, node in enumerate(nodes):
            if node[1] >= 0:
                self.children[node[1]].append(idx)

    def ancestors(self, idx: int):
        parent = self.nodes[idx][1]
        while parent >= 0:
            yield self.nodes[parent]
            parent = self.nodes[parent][1]

    def outermost(self, names: set[str]) -> list[list]:
        """Nodes named in ``names`` with no ancestor named in ``names``."""
        return [node for idx, node in enumerate(self.nodes)
                if node[0] in names and not any(a[0] in names for a in self.ancestors(idx))]

    def self_time(self, idx: int) -> float:
        return self.nodes[idx][4] - sum(self.nodes[c][4] for c in self.children[idx])

    def boundary(self, idx: int) -> bool:
        parent = self.nodes[idx][1]
        return parent < 0 or _layer(self.nodes[parent][0]) != _layer(self.nodes[idx][0])


def _total(nodes) -> float:
    return sum(node[4] for node in nodes)


def compute(traces: list[dict], walls: list[float], kernel_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass: one span tree and wall time per operation."""
    m = {name: 0.0 for name in METRICS}
    trees = [_Tree(t["nodes"]) for t in traces]
    overheads = []
    free_nonzero = 0
    dp_steps = 0
    for tree, wall in zip(trees, walls):
        overheads.append(wall - _total(tree.nodes[c] for c in tree.children[0]))
        for idx, node in enumerate(tree.nodes):
            layer = _layer(node[0])
            m[f"{layer}.self_s"] += tree.self_time(idx)
            if tree.boundary(idx):
                m[f"{layer}.calls"] += node[5]
                m[f"{layer}.errors"] += node[6]
            attrs = node[7]
            m["exact.signed_sum_terms"] += attrs.get("items", 0)
            m["verify.checks"] += attrs.get("checks", 0)
            m["verify.failed_checks"] += attrs.get("failed_checks", 0)
            if "result_bits" in attrs and _layer(tree.nodes[node[1]][0]) != "exact":
                m["exact.result_bits"] += attrs["result_bits"]
            if node[0] == "exact.count_reflection" \
                    and tree.nodes[node[1]][0] == "exact.count_reflection_free":
                m["exact.free_endpoint_calls"] += node[5]
                free_nonzero += attrs.get("nonzero", 0)
            if node[0].startswith("verify.run_suite["):
                m[f"verify.{node[0][len('verify.run_suite['):-1]}_s"] += node[4]
            if node[0] == "asym.compare_series":
                m["asym.compare_self_s"] += node[4] - _total(
                    tree.nodes[c] for c in tree.children[idx]
                    if _layer(tree.nodes[c][0]) == "exact")
        m["exact.reflection_s"] += _total(tree.outermost(
            {"exact.count_reflection", "exact.count_reflection_free"}))
        dp = tree.outermost({"exact.count_confined", "exact.count_confined_free"})
        m["exact.dp_s"] += _total(dp)
        dp_steps += sum(node[7].get("steps", 0) for node in dp)
        m["asym.eval_s"] += _total(tree.outermost({"asym.asym_fixed", "asym.asym_free"}))
        m["stepmodel.maximal_points_s"] += _total(tree.outermost({"stepmodel.maximal_points"}))
        m["presets.asym_s"] += _total(tree.outermost({"presets.preset_asym"}))
        for group, funcs in DETLAB_GROUPS.items():
            m[f"detlab.{group}_s"] += _total(tree.outermost({f"detlab.{f}" for f in funcs}))
    m["cli.import_s"] = statistics.median(t["import_s"] for t in traces)
    m["cli.overhead_s"] = statistics.median(overheads)
    m["exact.kernel_s"] = kernel_s
    m["exact.dp_step_s"] = m["exact.dp_s"] / dp_steps if dp_steps else 0.0
    calls = m["exact.free_endpoint_calls"]
    m["exact.free_endpoint_nonzero_ratio"] = free_nonzero / calls if calls else 0.0
    return m


def full_signed_sums(traces: list[dict]) -> int:
    """Sum of k! 2^k over the count_reflection calls: what the terms count must equal."""
    return sum(node[7].get("full_signed_sums", 0) for trace in traces for node in trace["nodes"])
