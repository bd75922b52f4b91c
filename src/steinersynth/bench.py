"""Random-instance benchmark suites: constrained synthesis vs a
synthesize-then-route baseline.

Both sides of every trial are `pipeline.run` calls, so each datapoint
carries the same certificate: exact GF(2) or sum-over-paths equality, or
for a routed circuit a path-sum proof at any width, with a dense unitary
comparison up to UNITARY_QUBIT_CAP wires where the path sums do not
prove it.  Failed trials are excluded from the means and tallied in the
CSV footer.  All suites are deterministic given their arguments.
"""

from __future__ import annotations

import random

from . import pipeline
from .circuits import Angle, Circuit, Gate, NAMED_ANGLES, cnot, h, rz
from .gf2 import BinaryMatrix, random_invertible
from .graphs import ConnectivityGraph, builtin_architecture, random_connected_graph
from .phase_synth import PhasePolynomial, SumOverPaths
from .pipeline import baseline_pmh_templates  # noqa: F401  (part of the bench API)

DEFAULT_GATE_PROBS = {"cnot": 0.95, "s": 0.01, "t": 0.01, "sdg": 0.01, "tdg": 0.01, "h": 0.01}


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


def _check_mode(mode: str) -> None:
    if mode not in ("cnot", "cnot_rz"):
        raise ValueError("mode must be 'cnot' or 'cnot_rz'")


def _compare(task, g: ConnectivityGraph, cleanup: bool) -> tuple[int, int, str]:
    """Constrained and baseline CNOT counts for one task, and the verified
    cell: "1" when both outputs are certified, "skip" when both passed and
    either was checked for edge legality only, "0" when either failed."""
    ours, _, cert = pipeline.run(task, g, cleanup=cleanup)
    baseline = "pmh" if isinstance(task, BinaryMatrix) else "templates"
    base, _, base_cert = pipeline.run(task, g, baseline, cleanup)
    if not (cert.ok and base_cert.ok):
        verified = "0"
    else:
        verified = "skip" if "edges" in (cert.mode, base_cert.mode) else "1"
    return ours.cnot_count, base.cnot_count, verified


def _suite(header: str, keys, trials: int, seed: int, instance, cleanup: bool,
           skip_footer: bool = False) -> str:
    """Run `trials` trials for every key and write the CSV.

    `instance(key, iseed)` gives the (task, graph) of one trial; the
    header's first column names the key.  Rows that fail their certificate
    are excluded from the means and counted in the footer; rows checked for
    edge legality only enter the means and, with `skip_footer`, are counted
    in a second footer.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    label = header.split(",")[0]
    rows, footer = [header], []
    excluded = skipped = 0
    for bi, key in enumerate(keys):
        ours_counts: list[int] = []
        base_counts: list[int] = []
        for trial in range(trials):
            iseed = _instance_seed(seed, bi, trial)
            ours, base, verified = _compare(*instance(key, iseed), cleanup)
            rows.append(f"{key},{trial},{iseed},{ours},{base},{verified}")
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


def bench_sparseness(
    n: int = 20,
    trials: int = 20,
    seed: int = 1,
    mode: str = "cnot",
    sparseness_values: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    support_terms: int = 20,
    cleanup: bool = True,
) -> str:
    """Constrained vs synthesize-then-template on random connected graphs of
    varying edge density; CSV with one row per trial plus mean footers.
    `mode` is "cnot" (random matrices) or "cnot_rz" (random sum-over-paths
    instances with `support_terms` phase terms)."""
    _check_mode(mode)

    def instance(sparseness: float, iseed: int):
        g = random_connected_graph(n, sparseness, iseed)
        if mode == "cnot":
            return random_invertible(n, iseed + 1), g
        return random_phase_instance(n, support_terms, iseed + 1), g

    header = "sparseness,trial,seed,constrained_cnots,baseline_cnots,verified"
    return _suite(header, sparseness_values, trials, seed, instance, cleanup)


def bench_architecture(
    arch: str, sizes: list[int] | None, trials: int, seed: int, mode: str = "cnot",
    cleanup: bool = True,
) -> str:
    """Both methods on prefix subgraphs of a named architecture, of each of
    `sizes` nodes (None: the full device); a cnot_rz instance on k nodes has
    k phase terms.  Every size is checked before any trial runs, and none
    may be given twice."""
    _check_mode(mode)
    full = builtin_architecture(arch)
    if sizes is None:
        sizes = [full.node_count]
    graphs = {}
    for size in sizes:
        if not 2 <= size <= full.node_count:
            raise ValueError(f"size {size} out of range for {arch}")
        if size in graphs:
            raise ValueError(f"size {size} is given twice")
        graphs[size] = prefix_subgraph(full, size)

    def instance(size: int, iseed: int):
        if mode == "cnot":
            return random_invertible(size, iseed), graphs[size]
        return random_phase_instance(size, size, iseed), graphs[size]

    header = "size,trial,seed,constrained_cnots,baseline_cnots,verified"
    return _suite(header, sizes, trials, seed, instance, cleanup)


def bench_h_ratio(
    graph: ConnectivityGraph,
    trials: int = 20,
    seed: int = 1,
    gate_count: int = 1000,
    h_values: tuple[float, ...] = (0.0, 0.02, 0.05, 0.07, 0.1, 0.15, 0.2),
    cleanup: bool = True,
) -> str:
    """Universal-pipeline routing vs raw template expansion as the share of
    Hadamard gates grows; the other gates keep their DEFAULT_GATE_PROBS
    shares and CNOTs fill the rest, so every H share must lie in
    [0, 1 - rotation shares]; all are checked before any trial runs, and
    so is the graph, which needs two nodes for a CNOT.
    Each row is proven by path sum at any width, or, where the path sums
    do not prove it, as dense unitaries up to UNITARY_QUBIT_CAP wires.  A
    row neither proves gets only the edge-legality check: it is marked
    "skip" in the verified column, counted in an "# unverified_skip"
    footer, and still enters the means."""
    if gate_count < 0:
        raise ValueError("gate count must be >= 0")
    if graph.node_count < 2:
        raise ValueError(f"the graph has {graph.node_count} node, and a CNOT needs 2")
    rotations = sum(v for k, v in DEFAULT_GATE_PROBS.items() if k not in ("cnot", "h"))
    for p_h in h_values:
        if not 0 <= p_h <= 1 - rotations:
            raise ValueError(f"H share {p_h} is outside [0, {1 - rotations:g}]")

    def instance(p_h: float, iseed: int):
        probs = {**DEFAULT_GATE_PROBS, "h": p_h, "cnot": 1.0 - rotations - p_h}
        return random_universal_circuit(graph.node_count, gate_count, probs, iseed), graph

    header = "p_h,trial,seed,routed_cnots,baseline_cnots,verified"
    return _suite(header, h_values, trials, seed, instance, cleanup, skip_footer=True)
