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
456.
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
from steinersynth.graphs import line_graph
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
        "608e282225a4f67277457789ed71462fd74322c14a09cd54023474eee0547185",
        "8d0fc157e45c830f4138eb4e8fc3c702da778fc6f38a34970030e25afcec009a",
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
        "a868dac61268a9bb639625c79a9c61d9ce2b261eb06ccea38de6fda89765760d",
        "a2b1b2fad2600a78d0c3b4693e980abb62d690c099a8900e2b5728e61c4c1962",
    ),
    ("tokyo20", "synth-phase"): (
        "c64acc5df66099f88e5c96ebba15e5f3ec89ce4df53aae1385d649957b208024",
        "97d265bdfe6366b9ba700dddd74f9ead298b5492320c022d82b878102a9517ea",
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
    "sparseness cnot": "c58f3d3a3b6d5427462ec638abcc3cb7e65cd0d883c4bc51984a8396ff306de8",
    "sparseness cnot_rz": "565a8513f5937da00794204cb8586b60dbd44c5a4c63b1fb2b35d8376f0e297e",
    "arch cnot": "5462e1ccdd6e952824a16d78d91d2398b8a021da001c13973c2aba06be35db06",
    "arch cnot_rz": "a8f2f6b13f99c70c88bd2052948e99bd6bf5148a53c63aee5d15afdab7f90e46",
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
        "99fc9225b3397c1066994a200ceda193213f606bc4e340407590b22e7c22acf8",
        "fff653168c19a217f06aecbecc3726795afd0b8fa895838589c1ade1073f5efb",
    ),
    "bristlecone72": (
        "0d2c8b6961876be67a110af92796446492064eef83a2b0898de130651caad9ef",
        "527c92c0b63248b5adb07d0359f463e122d2d34cb91a0d7e7ecaccf185249be4",
    ),
    "acorn19": (
        "447dd3c3cefeb73e06936bf4afae96ab337f0fed89d5e09246c7dfb7add797e1",
        "f36149b2a2f60c1e7e86073b00fbe27cef89554d12e443e6273c522419fba3f3",
    ),
    "grid(5,4)": (
        "f17cae18a7c6b44d29753376d47e27f25012c7292bd1331ce9a8fd5e6622ed3a",
        "53c445aa0c772fc0478b9b8cd7071c1c42f844e940f8ab0133f0a876247d465e",
    ),
    "line(20)": (
        "7f9eca87633d4ea8cf2cc81a9a19ac82ab44fef06d25c104970e9518a4ead36a",
        "598ed6fbaf63a2bcf80649b08b7e41efe01d71d5b9a71902b876cbdefa60522d",
    ),
    "grid(8,9)": (
        "6ee0410a79c79a8579d8aae6ed771578c19845e04a672c34a0d3dc851716fdd2",
        "bef7ce61d7a6e7b62f76f2413136b3ef61c5ae00da776af789a180f8e449a79b",
    ),
    "random(n=20,s=0.1,seed=1)": (
        "f390800573da4a5d40944a8b71cd8b86f35f0b91548b38f846457e076b86e922",
        "2d73806b58ece698a0bcc96ecf78075c40e28037a4fe7bbdf424f2a75ea3748b",
    ),
    "random(n=12,s=0.1,seed=2)": (
        "60721d3160bec69a47dbf15f0f1c6f23d9732ffa6dd5aed2badd52cc19b96273",
        "5e84b1c9835994f54a2e3c92b535f046724d9e743fda50905fcd8f361ca74371",
    ),
    "random(n=20,s=0.3,seed=1)": (
        "305066b7416a63af4cf7a8e33bc8182db06187536973d9c9fd13136f96f4f7be",
        "b4dcbad179ab9bf6d1434a5baf419d2b285fa97017c48b1c3dc091996785941f",
    ),
    "random(n=12,s=0.3,seed=2)": (
        "b68ef2c8dc25067ccecc92c2bee9aa2b83169f23ba1853e1ed4fdf58fd43d17d",
        "d675a705f927f4b477224895a4ad5d7d41194b6f66358afaf48c84b1e9021258",
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
