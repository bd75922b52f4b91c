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
`ORDER_FREE_GOLDEN` pins that on more of them.
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
        "dd7b5c52f6b4ae1e525136a9278badc6c6ba5938939ca2f23108cc499b85c7e0",
        "9b138fc036a54634ce8d7ae9f25e63837a28cd6ecaa94ced19a908f2bc2f510c",
    ),
    ("line(6)", "route"): (
        "ff5b865f04bfc8553d82aa7c0685058b25e7985ae9fe52fe315f1cd5d6e1053b",
        "531575d88b0827953a9149d35e047e10a003094de6e2cafffd8661eefa0d120b",
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
        "3469fe640bc725f589155f03d61ab3a93e6143d6fbdf0e005672d0935f2d3f39",
        "7976596188c9dbe2c642898a418bfd2e38ce7e9613599ee2c5cdb153fd6c65ac",
    ),
    ("tokyo20", "route"): (
        "5be64e9273ad45bd539fabc0d1bf2911449a679f7e0b8bbeadfcbe610ee80886",
        "4f7bd919ab520dc9350876cfe4ebd82bfa3d7e5a3552b0c5597cfabbe2221bcc",
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
    "sparseness cnot_rz": "c0bcdd4e4aadf322b2748cfcf18124b6ea7cbf5a99d8381de4d68cc8adeee66b",
    "arch cnot": "8f96acdf55f9b514e09d61cade679a7a36714f1004a14aebdf4109d5fcfb0ab9",
    "arch cnot_rz": "c87fd4456fcd3c2d09911f3d5d43a894d438eb961d88d5731258630f83afa799",
    "h-ratio 5": "759c40785bbeaf4591ad0ea76ce605c651bd06fcb3a18ae630eb8db56e570540",
    "h-ratio 7": "122bac540f3883ce3ed656dcd94b356455da8500544eb28b1adee9f1a7ee68ee",
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
        "029e859d740d1d13c0193e5d31bcae00a7ed10a3f74d99d31e6e113042a98586",
    ),
    "bristlecone72": (
        "e84947985f14a9b70f18683d64d17ada60f1363c54fad6d3fffc961db2892431",
        "ab15376f59e2dc566f8b66b9d7260fd6ae6a116cce98c0ceb95c02a6009c4716",
    ),
    "acorn19": (
        "4dcf42917de3a3e640087b64ffedfaa7df5c57eada5e86e26aa7090c5658bde8",
        "71afe1726e325ecce1a68ea865fb3e81366a97df215dd20899a5d0dcfe467ea8",
    ),
    "grid(5,4)": (
        "7b850501e921748cd4580e1001cb0e9064f6489d50812df42203e591b892e71b",
        "de09ac6d4e91e043fbaa123e72e3addd0f9cbb7821715b6a2c2ec1f7e20165be",
    ),
    "line(20)": (
        "7f9eca87633d4ea8cf2cc81a9a19ac82ab44fef06d25c104970e9518a4ead36a",
        "598ed6fbaf63a2bcf80649b08b7e41efe01d71d5b9a71902b876cbdefa60522d",
    ),
    "grid(8,9)": (
        "eab90b6e8673b4b575aa23f85628155c375bb43baf0e21b1f3089f337a3b6528",
        "35a6e8a9241d1cc6171d38506dcbd6131efcbb7b4a658a919856ffa49be24d4d",
    ),
    "random(n=20,s=0.1,seed=1)": (
        "dd7c43b7ef36fd15a71bcd0c847890a0fabdfcc8ba9d197e732c55af19f6491c",
        "d10c9a5b394e21b7e13b9c69455dcf1d3c05b9184be28bed0c591a92957ba5a2",
    ),
    "random(n=12,s=0.1,seed=2)": (
        "b777df64b91f9e9ae4487f8e71b1c7c0be1b3b097cbe158932267e273752e1a6",
        "ab17077dba1fde9b85572e2ae21e9db31b8eae27cb023815867b9de60c34ad77",
    ),
    "random(n=20,s=0.3,seed=1)": (
        "205985bca55b35f152579156efc76a34f3b65b777e9f2022839cee00214d99b7",
        "82ca3b224a0a23219b5a80987ddf350080d554ffbbb1b942c32c5d11b4f58338",
    ),
    "random(n=12,s=0.3,seed=2)": (
        "ff7f8791a142488c0d95e54a885385ecd8ec0367596cd154092fd7e7847fe6c7",
        "540a412225da9d12c36a3551ee8cbb28e3ebc5b9358b112a53686adc7d3f2a4c",
    ),
    "random(n=20,s=1.0,seed=1)": (
        "eb1015ea7b1dd6dd2cf79629bd40778ddbc5999876c4d65609f31f37fb418a03",
        "58522a1bdbc9f136ab60b3dfaf32fc6b0faf41ce2ed9ac1cfbdb52e680e2378e",
    ),
    "random(n=12,s=1.0,seed=2)": (
        "7fddf800a36074ecf2bcea960463dd1e153b84224afaeedf50ca4c50d98896f6",
        "0037b024c280f0b912a140ee7129929dd22ef3af600918bff96eb6bf437e9143",
    ),
}


@pytest.mark.parametrize("g", oracle_graphs(), ids=lambda g: g.name)
def test_synthesizer_golden(g):
    assert synthesizer_digests(g) == SYNTH_GOLDEN[g.name]


def order_free_digest(g) -> str:
    """Digest of 40 seeded matrices through `synthesize_constrained` and 10
    seeded phase instances (n terms) through `synthesize_cnot_rz`."""
    n = g.node_count
    text = "".join(emit_circuit(synthesize_constrained(random_invertible(n, s), g)[0])
                   for s in range(40))
    text += "".join(emit_circuit(synthesize_cnot_rz(random_phase_instance(n, n, 500 + s), g)[0])
                    for s in range(10))
    return sha(text)


# On a line or a complete graph every suffix of the labels is connected and
# no first-pass tree ever leaves it, so flooring the trees at the pivot
# changes no circuit: these were recorded before the trees were floored.
ORDER_FREE_GOLDEN = {
    "line(9)": "df328e1fc285835f7dce2cf4d7b96e43667cc762db62f1cd4c84a7a700672fb3",
    "line(20)": "b9ce881e17a14069f05a5319179ade47e0c26a1781a57089b4b03f7c3fdc3318",
    "complete(7)": "d56a2243a885603361df84b684ede1988b652fc366c7e9d15a31720cabb0c3bf",
    "complete(20)": "37ec974ab60c1e9dc63f02cd42e05ce04a5ecc701db9ded2573d72d03a2be051",
}


@pytest.mark.parametrize("g", [line_graph(9), line_graph(20), complete_graph(7), complete_graph(20)],
                         ids=lambda g: g.name)
def test_line_and_complete_circuits_predate_floored_trees(g):
    assert order_free_digest(g) == ORDER_FREE_GOLDEN[g.name]
