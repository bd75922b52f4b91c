"""Random-instance benchmark suites: constrained synthesis vs a
synthesize-then-route baseline.

Both sides of every trial come out of `pipeline.run` (the matrix baseline,
`baseline_pmh_templates`, is certified by `verify.certify`), so each
datapoint carries the same certificate: exact GF(2) or sum-over-paths
equality, or for a routed circuit a dense unitary comparison up to
UNITARY_QUBIT_CAP wires.  Failed trials are excluded from the means and
tallied in the CSV footer.  All suites are deterministic given (config, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import pipeline
from .circuits import Angle, Circuit, Gate, NAMED_ANGLES, cnot, h, rz
from .cnot_synth import expand_templates, pmh_synthesize, section_widths
from .gf2 import BinaryMatrix, random_invertible
from .graphs import ConnectivityGraph, builtin_architecture, random_connected_graph
from .optimizer import cancel_pass
from .phase_synth import PhasePolynomial, SumOverPaths
from .verify import certify

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
        if self.gate_count < 0:
            raise ValueError("gate count must be >= 0")
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


def baseline_pmh_templates(
    a: BinaryMatrix, g: ConnectivityGraph, cleanup: bool = True
) -> Circuit:
    """Strongest synthesize-then-route baseline: partitioned elimination,
    template expansion, cleanup; the section width is chosen against the
    final routed gate count."""
    best = None
    for width in section_widths(a.dim):
        c = expand_templates(pmh_synthesize(a, partition=True, section=width), g)
        if cleanup:
            c = cancel_pass(c)
        if best is None or c.cnot_count < best.cnot_count:
            best = c
    return best


def _compare(task, g: ConnectivityGraph, cleanup: bool) -> tuple[int, int, str]:
    """Constrained and baseline CNOT counts for one task, and the verified
    cell: "1" when both outputs are certified, "skip" when both passed an
    edge-legality check only, "0" when either failed."""
    ours, _, cert = pipeline.run(task, g, cleanup=cleanup)
    if isinstance(task, BinaryMatrix):
        base = baseline_pmh_templates(task, g, cleanup)
        base_cert = certify(task, base, g)
    else:
        base, _, base_cert = pipeline.run(task, g, "templates", cleanup)
    if not (cert.ok and base_cert.ok):
        verified = "0"
    else:
        verified = "skip" if "edges" in (cert.mode, base_cert.mode) else "1"
    return ours.cnot_count, base.cnot_count, verified


def _suite(header: str, buckets, cleanup: bool, skip_footer: bool = False) -> str:
    """Run every trial of every bucket and write the CSV.

    `buckets` yields (key, trials) with each trial a (trial, seed, task,
    graph) tuple; the header's first column names the key.  Rows that fail
    their certificate are excluded from the means and counted in the
    footer; rows checked for edge legality only enter the means and, with
    `skip_footer`, are counted in a second footer.
    """
    label = header.split(",")[0]
    rows, footer = [header], []
    excluded = skipped = 0
    for key, trials in buckets:
        ours_counts: list[int] = []
        base_counts: list[int] = []
        for trial, seed, task, g in trials:
            ours, base, verified = _compare(task, g, cleanup)
            rows.append(f"{key},{trial},{seed},{ours},{base},{verified}")
            if verified == "0":
                excluded += 1
                continue
            skipped += verified == "skip"
            ours_counts.append(ours)
            base_counts.append(base)
        if ours_counts:
            mo = sum(ours_counts) / len(ours_counts)
            mb = sum(base_counts) / len(base_counts)
            adv = (mb - mo) / mb if mb else 0.0
            footer.append(
                f"# mean {label}={key} constrained={mo:.2f} baseline={mb:.2f} advantage={adv:.4f}"
            )
        else:
            footer.append(f"# mean {label}={key} (no verified trials)")
    footer.append(f"# excluded_unverified {excluded}")
    if skip_footer:
        footer.append(f"# unverified_skip {skipped}")
    return "\n".join(rows + footer) + "\n"


def bench_sparseness(cfg: BenchConfig, cleanup: bool = True) -> str:
    """Constrained vs synthesize-then-template on random connected graphs of
    varying edge density; CSV with one row per trial plus mean footers."""

    def trials(bi: int):
        for trial in range(cfg.trials):
            seed = _instance_seed(cfg.seed, bi, trial)
            g = random_connected_graph(cfg.n, cfg.sparseness_values[bi], seed)
            if cfg.mode == "cnot":
                task = random_invertible(cfg.n, seed + 1)
            else:
                task = random_phase_instance(cfg.n, cfg.support_terms, seed + 1)
            yield trial, seed, task, g

    buckets = ((sp, trials(bi)) for bi, sp in enumerate(cfg.sparseness_values))
    return _suite(
        "sparseness,trial,seed,constrained_cnots,baseline_cnots,verified", buckets, cleanup
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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    full = builtin_architecture(arch)

    def bucket(bi: int, size: int):
        if not 2 <= size <= full.node_count:
            raise ValueError(f"size {size} out of range for {arch}")
        g = prefix_subgraph(full, size)
        for trial in range(trials):
            iseed = _instance_seed(seed, bi, trial)
            if mode == "cnot":
                task = random_invertible(size, iseed)
            else:
                task = random_phase_instance(size, support_terms or size, iseed)
            yield trial, iseed, task, g

    buckets = ((size, bucket(bi, size)) for bi, size in enumerate(sizes))
    return _suite("size,trial,seed,constrained_cnots,baseline_cnots,verified", buckets, cleanup)


def bench_h_ratio(
    cfg: BenchConfig,
    graph: ConnectivityGraph,
    h_values: tuple[float, ...] = (0.0, 0.02, 0.05, 0.07, 0.1, 0.15, 0.2),
    cleanup: bool = True,
) -> str:
    """Universal-pipeline routing vs raw template expansion as the share of
    Hadamard gates grows.  Unitary verification runs up to
    UNITARY_QUBIT_CAP wires; larger instances get only the edge-legality
    check, are marked "skip" in the verified column and counted in an
    "# unverified_skip" footer, and still enter the means."""

    def trials(bi: int, p_h: float):
        probs = dict(cfg.gate_probs)
        probs.pop("h", None)
        non_cnot = sum(v for k, v in probs.items() if k != "cnot")
        probs["h"] = p_h
        probs["cnot"] = 1.0 - non_cnot - p_h
        for trial in range(cfg.trials):
            seed = _instance_seed(cfg.seed, bi, trial)
            c = random_universal_circuit(graph.node_count, cfg.gate_count, probs, seed)
            yield trial, seed, c, graph

    buckets = ((p_h, trials(bi, p_h)) for bi, p_h in enumerate(h_values))
    return _suite(
        "p_h,trial,seed,routed_cnots,baseline_cnots,verified", buckets, cleanup, skip_footer=True
    )
