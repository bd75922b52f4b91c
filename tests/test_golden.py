"""Golden digests of the CLI synthesis commands, the bench suites and the
two synthesizers.

Each case pins the sha256 of the `--out` circuit text and of the `--report`
JSON with its `elapsed_ms` line removed (the only field that varies between
runs), or of a small bench CSV.  They were recorded before the commands and
suites were routed through one pipeline, and pin that the routing changed
no output byte.  The synthesizer digests pin the emitted circuits of
`synthesize_constrained` and `synthesize_cnot_rz` on every oracle graph;
they were recorded before the Steiner-Gauss column loop dropped its
per-operation objects.  The report digests were re-recorded when the
never-set `seed` field left the report, and the 7-wire h-ratio CSV when
7- and 8-wire routes came to be checked as dense unitaries (its `skip` rows
read `1`); no circuit digest moved.  The two `route` digests were
re-recorded when each CNOT+RZ segment came to keep its own gates, expanded
into ladders, whenever that needs fewer CNOTs than its resynthesis: the
line(6) route went from 301 to 300 CNOTs and the tokyo20 one from 629 to
456.  The tokyo20 synth-cnot and synth-phase digests, the sparseness and
arch bench CSVs and the synthesizer digests of every graph but line(20)
and the complete random graphs were re-recorded when the first elimination
pass came to keep each Steiner tree inside the unfinished rows, in a label
order whose every suffix is connected: the tokyo20 synth-cnot went from
330 to 320 CNOTs (334 to 322 uncleaned) and its synth-phase from 961 to
955.  The line and complete graph circuits did not move, and
`ORDER_FREE_GOLDEN` pins that on more of them.  The synth-phase and route
digests, the CNOT+RZ and h-ratio bench CSVs and every CNOT+RZ digest were
re-recorded when the CNOT+RZ linear fixup moved to RowCol elimination: the
tokyo20 synth-phase went from 955 to 876 CNOTs and its route from 456 to
409, the line(6) synth-phase from 82 to 70 and its route from 300 to 289.
No matrix digest moved.  The two `route` digests and the h-ratio CSVs were
re-recorded when routes came to carry the linear residual across H runs,
each segment's fixup clearing only the next H run's wires: the line(6)
route went from 289 to 212 CNOTs and the tokyo20 one from 409 to 402.
They were re-recorded again when a partial fixup came to free each qubit
of the next H run on a pivot wire of its choosing, and each H to run on
that wire: the line(6) route went from 212 to 218 CNOTs, the tokyo20 one
stayed at 402, and the h-ratio mean at p_h 0.1 went from 36.5 to 38.5 on
5 wires and from 95.5 to 93.0 on 7.  The synth-phase and route digests,
the CNOT+RZ and h-ratio bench CSVs and every CNOT+RZ digest were
re-recorded when the parity network became lazy Steiner folds: the
tokyo20 synth-phase went from 876 to 704 CNOTs and its route from 402 to
407, the line(6) synth-phase from 70 to 81 and its route from 218 to 176.
No matrix digest moved.  The tokyo20 route's circuit digest was
re-recorded when segment growth came to run backward first and then
forward, each pass over the current block order: its gates moved, its
report (407 CNOTs, depth 203) did not.  The tokyo20 synth-phase and
route digests, the CNOT+RZ sparseness and arch CSVs and the CNOT+RZ
digests of every graph but the complete ones were re-recorded when the
parity network came to fold the term with the lowest fold-cost estimate
first: the tokyo20 synth-phase went from 704 to 672 CNOTs and its route
from 407 to 398.  The line(6) circuits, the complete graph circuits and
every matrix digest did not move.
"""

import hashlib
import random

import pytest
from click.testing import CliRunner

from conftest import oracle_graphs
from steinersynth import (
    emit_circuit,
    emit_matrix,
    random_invertible,
    synthesize_cnot_rz,
    synthesize_constrained,
)
from steinersynth.bench import (
    bench_architecture,
    bench_h_ratio,
    bench_sparseness,
    random_phase_instance,
    random_universal_circuit,
)
from steinersynth.cli import main
from steinersynth.graphs import complete_graph, line_graph
from steinersynth.phase_synth import parity_to_bits

ARCHS = {"line(6)": 6, "tokyo20": 20}
PROBS = {"cnot": 0.7, "t": 0.1, "s": 0.05, "sdg": 0.0, "tdg": 0.05, "h": 0.1}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def write_inputs(tmp_path, n: int) -> dict[str, str]:
    """Seeded matrix, phase file and {CNOT, RZ, H} circuit on n wires."""
    rng = random.Random(n)
    phase = {rng.randrange(1, 2**n): f"{rng.randrange(1, 8)}/8" for _ in range(2 * n)}
    files = {
        "matrix": emit_matrix(random_invertible(n, 40 + n)),
        "phase": "".join(f"{parity_to_bits(m, n)} {a}\n" for m, a in sorted(phase.items())),
        "circuit": emit_circuit(random_universal_circuit(n, 120, PROBS, 60 + n)),
    }
    paths = {}
    for name, text in files.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def cli_digests(tmp_path, arch: str, case: str) -> tuple[str, str]:
    paths = write_inputs(tmp_path, ARCHS[arch])
    command, *extra = case.split()
    args = {
        "synth-cnot": ["--matrix", paths["matrix"]],
        "synth-phase": ["--phase", paths["phase"], "--matrix", paths["matrix"]],
        "route": ["--circuit", paths["circuit"]],
    }[command]
    out, report = tmp_path / "out.txt", tmp_path / "report.json"
    res = CliRunner().invoke(
        main,
        [command, *args, "--arch", arch, *extra, "--out", str(out), "--report", str(report)],
    )
    assert res.exit_code == 0, res.output
    kept = [ln for ln in report.read_text().splitlines(True) if '"elapsed_ms"' not in ln]
    return sha(out.read_text()), sha("".join(kept))


CLI_GOLDEN = {
    ("line(6)", "synth-cnot"): (
        "114c7d422e26436b2b94ea5b59846fb3822ca42d5672b22521282591e9d17f00",
        "3b8b9c424ad2354570907e42a0082e781fb2b9ab20f979015db1fa9741767574",
    ),
    ("line(6)", "synth-cnot --baseline pmh"): (
        "99ee960c959231b9d0b692d9556b2b41d21f45b2ae295c12897bc2794b4cc9d1",
        "fa7c7579c0d5901035f138956de525df0e12cf1dc5a4c76c2d68ac1830676051",
    ),
    ("line(6)", "synth-cnot --baseline templates"): (
        "bc4a0ca19f0bf428e6a6d0c3b7d6ef16a2bc395e863c1408c7e18850bf03114f",
        "1c90a4fb5577a1c6654048efcf19875f1932b125379c719597a9743cd668267d",
    ),
    ("line(6)", "synth-cnot --no-cleanup"): (
        "114c7d422e26436b2b94ea5b59846fb3822ca42d5672b22521282591e9d17f00",
        "3b8b9c424ad2354570907e42a0082e781fb2b9ab20f979015db1fa9741767574",
    ),
    ("line(6)", "synth-phase"): (
        "2da45db24cc8662c1b8d15b40e9c414e28fada925eac14b5554429006fdf1e93",
        "d5b330793ec42cb5a1cac93c44c8b2c5c9b7db63995e66d5e0df3ae6f50e33c7",
    ),
    ("line(6)", "route"): (
        "afdbe6c5ea46b92ce8f2b670eb8f75532b1e89041de74c9db2c9d07e93747dc1",
        "fb8f9896fa998f7b243b26499dcbbfc83748b108c60b9e61d4d94342815be300",
    ),
    ("tokyo20", "synth-cnot"): (
        "3b347b4f897c355aa0dae98774f6051b72920a0814ca503a066021453a66b04f",
        "8c5075975ae8608a331e03609beed97fda9956f5af71b3fca92323fc5d418213",
    ),
    ("tokyo20", "synth-cnot --baseline pmh"): (
        "8ebaaf467d9cdd76238840ccb028ec7707c9133a5ba9ee82393c08263d249e23",
        "82b9d6cd6c9eed7c9fe0aaceac3decc8f0aee4aadd3505c287f28123b79e8929",
    ),
    ("tokyo20", "synth-cnot --baseline templates"): (
        "3337d00584d44800f1101dad0e0742d13f2001256e59f3884e34d1966280d5b6",
        "097a2812061ce86fe05d6c77195578c6d88c640397f4708d8faeae027e2984b2",
    ),
    ("tokyo20", "synth-cnot --no-cleanup"): (
        "b7eb8301b4267b75d6cb7f98f79ab4fb5776f5b8e6598affd7f30925741ad085",
        "ff2735e1bd026182d3c1fc809023f67e30df0670dcfe6ff5b70f3ffc75d78872",
    ),
    ("tokyo20", "synth-phase"): (
        "d724b04e4b64446d909e4c9abe01ee1d9a27c3a07994e4cdfdc8b9c222153f2b",
        "c1dde7044fd168222ba0073577c9785c81d26bccca45dade0a652af481978669",
    ),
    ("tokyo20", "route"): (
        "13626220522dd729fdbd0cced3a12165e49a67c5f698624c9a4769091771a51a",
        "bf0f828c6c9de26c2f3d2d1b0ee3329bd291c8b12edde3096b3dec17cb7f796b",
    ),
}


@pytest.mark.parametrize("arch,case", sorted(CLI_GOLDEN))
def test_cli_golden(tmp_path, arch, case):
    assert cli_digests(tmp_path, arch, case) == CLI_GOLDEN[arch, case]


def bench_csv(case: str) -> str:
    if case.startswith("sparseness"):
        mode = case.split()[1]
        return bench_sparseness(n=6, trials=2, seed=3, sparseness_values=(0.3, 1.0), mode=mode,
                                support_terms=6)
    if case.startswith("arch"):
        return bench_architecture("tokyo20", [5, 8], trials=2, seed=4, mode=case.split()[1])
    n = int(case.split()[1])
    return bench_h_ratio(line_graph(n), trials=2, seed=7, gate_count=40, h_values=(0.0, 0.1))


BENCH_GOLDEN = {
    "sparseness cnot": "16b353c4412872c845181bac90450ee159e845994e450d407de97eabe5ddee69",
    "sparseness cnot_rz": "29232033d2ff8a0d2b6841d65c5badcc53ad69e377289c7f08038688a3711d69",
    "arch cnot": "8f96acdf55f9b514e09d61cade679a7a36714f1004a14aebdf4109d5fcfb0ab9",
    "arch cnot_rz": "04d2335514e5bc251f5cd20adc11fe87ba3d661fe641d04c14e9c507c425105b",
    "h-ratio 5": "b3386b96c38c5d4de15a94cfbf0ccdc571a98ba7cca48619639b1c7804e16f5a",
    "h-ratio 7": "38384c83ba79fb9874a9177ecea17355e2fe27e9e4f49a9a4cf2461c52562f14",
}


@pytest.mark.parametrize("case", sorted(BENCH_GOLDEN))
def test_bench_golden(case):
    assert sha(bench_csv(case)) == BENCH_GOLDEN[case]


def synthesizer_digests(g) -> tuple[str, str]:
    """Digests of three seeded matrices through `synthesize_constrained` and
    two seeded phase instances (2n terms) through `synthesize_cnot_rz`."""
    n = g.node_count
    matrices = [random_invertible(n, 100 * n + k) for k in range(3)]
    phases = [random_phase_instance(n, 2 * n, 200 * n + k) for k in range(2)]
    cnot = "".join(emit_circuit(synthesize_constrained(a, g)[0]) for a in matrices)
    cnot_rz = "".join(emit_circuit(synthesize_cnot_rz(s, g)[0]) for s in phases)
    return sha(cnot), sha(cnot_rz)


SYNTH_GOLDEN = {
    "tokyo20": (
        "69d79473953006b08d2900ee0f21faea69077052e82c75f55f7865189e0d87e2",
        "d8e638eb735ac5b93e8772b64075aeb0e4ab29af26e936f639d62082e8d8654b",
    ),
    "bristlecone72": (
        "e84947985f14a9b70f18683d64d17ada60f1363c54fad6d3fffc961db2892431",
        "2314af50747173a28d9251ffe7fc294ad83e817a34e298518d58428f7300411c",
    ),
    "acorn19": (
        "4dcf42917de3a3e640087b64ffedfaa7df5c57eada5e86e26aa7090c5658bde8",
        "e98392de351f872604ca0d976a685255d514283c717cdd0bf6fa0c7793a6a146",
    ),
    "grid(5,4)": (
        "7b850501e921748cd4580e1001cb0e9064f6489d50812df42203e591b892e71b",
        "aad3b2386a2fc373203a508eb5ed7ebc9b1b5c1df12ea846326b4f502d0325b6",
    ),
    "line(20)": (
        "7f9eca87633d4ea8cf2cc81a9a19ac82ab44fef06d25c104970e9518a4ead36a",
        "a99d0d2881666b3959c871e3e86ef7982a6e3208855c5a01b538b238afa09d88",
    ),
    "grid(8,9)": (
        "eab90b6e8673b4b575aa23f85628155c375bb43baf0e21b1f3089f337a3b6528",
        "c2948b454c4d51ef7b750e220679078e33b53fa71486e1910ab37ebcb9c2232c",
    ),
    "random(n=20,s=0.1,seed=1)": (
        "dd7c43b7ef36fd15a71bcd0c847890a0fabdfcc8ba9d197e732c55af19f6491c",
        "3693dcc6595d2823491d2c2a7a0da1afd2cdc3ff2010388599d34d47abd6822e",
    ),
    "random(n=12,s=0.1,seed=2)": (
        "b777df64b91f9e9ae4487f8e71b1c7c0be1b3b097cbe158932267e273752e1a6",
        "797bded2222c88120dabeb6358cf53246b060c6834eeda6a6392b45d3e64736f",
    ),
    "random(n=20,s=0.3,seed=1)": (
        "205985bca55b35f152579156efc76a34f3b65b777e9f2022839cee00214d99b7",
        "3d7f2004eec2a4d6d9b550971424aaa183bbade918a342802f82e05b27a1797d",
    ),
    "random(n=12,s=0.3,seed=2)": (
        "ff7f8791a142488c0d95e54a885385ecd8ec0367596cd154092fd7e7847fe6c7",
        "aa32eba98947005fad16f8fc222ab9ce7ae320c3768db3e865cc27539abfea02",
    ),
    "random(n=20,s=1.0,seed=1)": (
        "eb1015ea7b1dd6dd2cf79629bd40778ddbc5999876c4d65609f31f37fb418a03",
        "13d8225828f01805b68af23b8d2a4a7a7d8ca85e33074ec38ea1d1d8461e6036",
    ),
    "random(n=12,s=1.0,seed=2)": (
        "7fddf800a36074ecf2bcea960463dd1e153b84224afaeedf50ca4c50d98896f6",
        "71f0823fb435226f76938ca7c4f932ad6489f28305a6895e90186619bd4d4309",
    ),
}


@pytest.mark.parametrize("g", oracle_graphs(), ids=lambda g: g.name)
def test_synthesizer_golden(g):
    assert synthesizer_digests(g) == SYNTH_GOLDEN[g.name]


def order_free_digests(g) -> tuple[str, str]:
    """Digests of 40 seeded matrices through `synthesize_constrained` and of
    10 seeded phase instances (n terms) through `synthesize_cnot_rz`."""
    n = g.node_count
    cnot = "".join(emit_circuit(synthesize_constrained(random_invertible(n, s), g)[0])
                   for s in range(40))
    cnot_rz = "".join(emit_circuit(synthesize_cnot_rz(random_phase_instance(n, n, 500 + s), g)[0])
                      for s in range(10))
    return sha(cnot), sha(cnot_rz)


# On a line or a complete graph every suffix of the labels is connected and
# no first-pass tree ever leaves it, so flooring the trees at the pivot
# changes no matrix circuit: the matrix digests equal those of the code from
# before the trees were floored.  The CNOT+RZ digests were re-recorded when
# the linear fixup moved to RowCol elimination, when the parity network
# became lazy Steiner folds, and when it came to fold the term with the
# lowest fold-cost estimate first (line(9) 1677 to 1569 CNOTs, line(20)
# 10231 to 10097); the complete graph ones did not move.
ORDER_FREE_GOLDEN = {
    "line(9)": (
        "816fe0fc36896ca602ef381f9414d02a94271bc81de63254b874dde3f0c69815",
        "1d94c1d4e94a360a2e774f018beb1785ba01521de807c9a7a7998a33f6f3d409",
    ),
    "line(20)": (
        "383dacac67c6e41ccb302942f77ba380a527e2d128b9874880ef0b256db11d9b",
        "c2fc92b155363392195cc064a80076ce68286f9e9056342973a2a3959fa94c64",
    ),
    "complete(7)": (
        "add5a28db14d5f8930cf7eaacaf29874442ac41153afb07d66c677ecc401bd67",
        "88858372e265b95471f78827080866081e6df542c70406271ee984303788a1da",
    ),
    "complete(20)": (
        "e6e8762153248290fdd7ee006f5fc30f5b1bb91dcc79db41be1ba44af2f47e16",
        "aa58fc2ad60d6e4d48da8f7bb6634dfd777745c87f3273357522755b2ff713b8",
    ),
}


@pytest.mark.parametrize("g", [line_graph(9), line_graph(20), complete_graph(7), complete_graph(20)],
                         ids=lambda g: g.name)
def test_line_and_complete_circuits_predate_floored_trees(g):
    assert order_free_digests(g) == ORDER_FREE_GOLDEN[g.name]
