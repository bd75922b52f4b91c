"""Random-instance benchmark suites with built-in verification.

Every datapoint is re-verified (exact GF(2) equality, exact sum-over-paths
round-trip, or dense unitary comparison at small wire counts) before it is
counted; failed trials are excluded from the means and tallied in the CSV
footer.  All suites are deterministic given (config, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .circuits import Angle, Circuit, Gate, NAMED_ANGLES, cnot, h, rz
from .cnot_synth import expand_templates, pmh_synthesize, synthesize_constrained
from .gf2 import BinaryMatrix, random_invertible, simulate_cnot_circuit
from .graphs import (
    ConnectivityGraph,
    builtin_architecture,
    complete_graph,
    random_connected_graph,
)
from .optimizer import cancel_pass
from .phase_synth import PhasePolynomial, SumOverPaths, extract_sum_over_paths, synthesize_cnot_rz
from .universal import route_universal
from .verify import edge_legal, verify_equivalence

DEFAULT_GATE_PROBS = {"cnot": 0.95, "s": 0.01, "t": 0.01, "sdg": 0.01, "tdg": 0.01, "h": 0.01}


@dataclass
class BenchConfig:
    n: int = 20
    trials: int = 20
    seed: int = 1
    sparseness_values: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    gate_count: int = 1000
    gate_probs: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_GATE_PROBS))
    mode: str = "cnot"  # "cnot" or "cnot_rz"
    support_terms: int = 20

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        total = sum(self.gate_probs.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"gate probabilities sum to {total}, not 1")


def _instance_seed(base: int, bucket: int, trial: int) -> int:
    return base * 1_000_003 + bucket * 1_009 + trial


def random_phase_instance(n: int, num_terms: int, seed: int) -> SumOverPaths:
    """Random sum-over-paths instance: distinct nonzero parities with
    eighth-turn angles, plus a random invertible linear part."""
    rng = random.Random(seed)
    terms: dict[int, Angle] = {}
    while len(terms) < min(num_terms, 2**n - 1):
        mask = rng.getrandbits(n)
        if mask == 0 or mask in terms:
            continue
        terms[mask] = Angle(rng.randrange(1, 8), 8)
    linear = random_invertible(n, rng.randrange(2**30))
    return SumOverPaths(PhasePolynomial(n, terms), linear)


def random_universal_circuit(
    n: int, gate_count: int, probs: dict[str, float], seed: int
) -> Circuit:
    """Random circuit over {CNOT, S, T, Sdg, Tdg, H}; wires drawn uniformly."""
    rng = random.Random(seed)
    kinds = sorted(probs)
    weights = [probs[k] for k in kinds]
    gates: list[Gate] = []
    for _ in range(gate_count):
        kind = rng.choices(kinds, weights)[0]
        if kind == "cnot":
            c, t = rng.sample(range(n), 2)
            gates.append(cnot(c, t))
        elif kind == "h":
            gates.append(h(rng.randrange(n)))
        else:
            gates.append(rz(NAMED_ANGLES[kind], rng.randrange(n)))
    return Circuit(n, tuple(gates))


def prefix_subgraph(g: ConnectivityGraph, k: int) -> ConnectivityGraph:
    """Induced subgraph on nodes 0..k-1 (architecture files are ordered so
    that every prefix stays connected)."""
    edges = frozenset(e for e in g.edges if e[0] < k and e[1] < k)
    return ConnectivityGraph(k, edges, name=f"{g.name}[0:{k}]")


def _sop_equal(a: SumOverPaths, b: SumOverPaths) -> bool:
    return a.phase == b.phase and a.linear == b.linear


def baseline_pmh_templates(
    a: BinaryMatrix, g: ConnectivityGraph, cleanup: bool = True
) -> Circuit:
    """Strongest synthesize-then-route baseline: partitioned elimination,
    template expansion, cleanup; the section width is chosen against the
    final routed gate count."""
    import math

    best = None
    for width in range(2, max(3, int(math.log2(a.dim)) + 1)):
        c = expand_templates(pmh_synthesize(a, partition=True, section=width), g)
        if cleanup:
            c = cancel_pass(c)
        if best is None or c.cnot_count < best.cnot_count:
            best = c
    return best


def _synth_pair_cnot(
    a: BinaryMatrix, g: ConnectivityGraph, cleanup: bool
) -> tuple[int, int, bool]:
    """(constrained count, baseline count, verified) for one CNOT instance."""
    ours, _ = synthesize_constrained(a, g)
    if cleanup:
        ours = cancel_pass(ours)
    base = baseline_pmh_templates(a, g, cleanup)
    ok = (
        simulate_cnot_circuit(ours) == a
        and simulate_cnot_circuit(base) == a
        and edge_legal(ours, g)
        and edge_legal(base, g)
    )
    return ours.cnot_count, base.cnot_count, ok


def _synth_pair_cnot_rz(
    s: SumOverPaths, g: ConnectivityGraph, cleanup: bool
) -> tuple[int, int, bool]:
    ours, _ = synthesize_cnot_rz(s, g)
    unconstrained, _ = synthesize_cnot_rz(s, complete_graph(g.node_count))
    base = expand_templates(unconstrained, g)
    if cleanup:
        ours, base = cancel_pass(ours), cancel_pass(base)
    ok = (
        _sop_equal(extract_sum_over_paths(ours), s)
        and _sop_equal(extract_sum_over_paths(base), s)
        and edge_legal(ours, g)
        and edge_legal(base, g)
    )
    return ours.cnot_count, base.cnot_count, ok


def _finish_csv(
    header: str,
    rows: list[str],
    means: list[tuple[str, list[int], list[int]]],
    excluded: int,
) -> str:
    lines = [header] + rows
    for label, ours, base in means:
        if ours:
            mo = sum(ours) / len(ours)
            mb = sum(base) / len(base)
            adv = (mb - mo) / mb if mb else 0.0
            lines.append(
                f"# mean {label} constrained={mo:.2f} baseline={mb:.2f} advantage={adv:.4f}"
            )
        else:
            lines.append(f"# mean {label} (no verified trials)")
    lines.append(f"# excluded_unverified {excluded}")
    return "\n".join(lines) + "\n"


def bench_sparseness(cfg: BenchConfig, cleanup: bool = True) -> str:
    """Constrained vs synthesize-then-template on random connected graphs of
    varying edge density; CSV with one row per trial plus mean footers."""
    rows: list[str] = []
    means = []
    excluded = 0
    for bi, sp in enumerate(cfg.sparseness_values):
        ours_counts: list[int] = []
        base_counts: list[int] = []
        for trial in range(cfg.trials):
            seed = _instance_seed(cfg.seed, bi, trial)
            g = random_connected_graph(cfg.n, sp, seed)
            if cfg.mode == "cnot":
                a = random_invertible(cfg.n, seed + 1)
                ours, base, ok = _synth_pair_cnot(a, g, cleanup)
            else:
                s = random_phase_instance(cfg.n, cfg.support_terms, seed + 1)
                ours, base, ok = _synth_pair_cnot_rz(s, g, cleanup)
            rows.append(f"{sp},{trial},{seed},{ours},{base},{int(ok)}")
            if ok:
                ours_counts.append(ours)
                base_counts.append(base)
            else:
                excluded += 1
        means.append((f"sparseness={sp}", ours_counts, base_counts))
    return _finish_csv(
        "sparseness,trial,seed,constrained_cnots,baseline_cnots,verified",
        rows,
        means,
        excluded,
    )


def bench_architecture(
    arch: str,
    sizes: list[int],
    trials: int,
    seed: int,
    mode: str = "cnot",
    cleanup: bool = True,
    support_terms: int | None = None,
) -> str:
    """Both methods on prefix subgraphs of a named architecture."""
    full = builtin_architecture(arch)
    rows: list[str] = []
    means = []
    excluded = 0
    for bi, size in enumerate(sizes):
        if not 2 <= size <= full.node_count:
            raise ValueError(f"size {size} out of range for {arch}")
        g = prefix_subgraph(full, size)
        ours_counts: list[int] = []
        base_counts: list[int] = []
        for trial in range(trials):
            iseed = _instance_seed(seed, bi, trial)
            if mode == "cnot":
                a = random_invertible(size, iseed)
                ours, base, ok = _synth_pair_cnot(a, g, cleanup)
            else:
                terms = support_terms if support_terms else size
                s = random_phase_instance(size, terms, iseed)
                ours, base, ok = _synth_pair_cnot_rz(s, g, cleanup)
            rows.append(f"{size},{trial},{iseed},{ours},{base},{int(ok)}")
            if ok:
                ours_counts.append(ours)
                base_counts.append(base)
            else:
                excluded += 1
        means.append((f"size={size}", ours_counts, base_counts))
    return _finish_csv(
        "size,trial,seed,constrained_cnots,baseline_cnots,verified", rows, means, excluded
    )


def bench_h_ratio(
    cfg: BenchConfig,
    graph: ConnectivityGraph,
    h_values: tuple[float, ...] = (0.0, 0.02, 0.05, 0.07, 0.1, 0.15, 0.2),
    cleanup: bool = True,
) -> str:
    """Universal-pipeline routing vs raw template expansion as the share of
    Hadamard gates grows.  Unitary verification runs when the wire count is
    within the dense cap; larger instances get only the edge-legality check,
    are marked "skip" in the verified column and counted in an
    "# unverified_skip" footer, and still enter the means."""
    rows: list[str] = []
    means = []
    excluded = skipped = 0
    for bi, p_h in enumerate(h_values):
        probs = dict(cfg.gate_probs)
        probs.pop("h", None)
        non_cnot = sum(v for k, v in probs.items() if k != "cnot")
        probs["h"] = p_h
        probs["cnot"] = 1.0 - non_cnot - p_h
        ours_counts: list[int] = []
        base_counts: list[int] = []
        for trial in range(cfg.trials):
            seed = _instance_seed(cfg.seed, bi, trial)
            c = random_universal_circuit(graph.node_count, cfg.gate_count, probs, seed)
            ours, _ = route_universal(c, graph)
            base = expand_templates(c, graph)
            if cleanup:
                ours, base = cancel_pass(ours), cancel_pass(base)
            if graph.node_count <= 6:
                ok = (
                    verify_equivalence(c, ours, "unitary").equivalent
                    and verify_equivalence(c, base, "unitary").equivalent
                    and edge_legal(ours, graph)
                    and edge_legal(base, graph)
                )
                verified = int(ok)
            else:
                ok = edge_legal(ours, graph) and edge_legal(base, graph)
                verified = "skip" if ok else "0"
                skipped += ok
            rows.append(
                f"{p_h},{trial},{seed},{ours.cnot_count},{base.cnot_count},{verified}"
            )
            if ok:
                ours_counts.append(ours.cnot_count)
                base_counts.append(base.cnot_count)
            else:
                excluded += 1
        means.append((f"p_h={p_h}", ours_counts, base_counts))
    text = _finish_csv(
        "p_h,trial,seed,routed_cnots,baseline_cnots,verified", rows, means, excluded
    )
    return text + f"# unverified_skip {skipped}\n"
