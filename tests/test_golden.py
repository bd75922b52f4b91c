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
5 wires and from 95.5 to 93.0 on 7.
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
        "21636ad11809e90052f02284e6e374b92a1a7d04f5b787133afd3de0c1d606d8",
        "846461fd87d7930919bcd86e11f3d283ed274910f7a51235a89a98e358d7fc3c",
    ),
    ("line(6)", "route"): (
        "79c99101b5c68fe2d3612bd65be06a09b9b49af1e0906210ba545a6a3bcdf0c2",
        "f79de3bf363a4eb18f5c02863cde4084871215f85525e2e114263ad3c301df7b",
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
        "bd5f6ffb5a78f8823d229ded5814b17d77a3f6dca3696339fef2f89761711c77",
        "316dfe02a45e8afd49431a59f07d510f3e7cedb1475bdec11d28fa866e9bebdf",
    ),
    ("tokyo20", "route"): (
        "f939290d8882d34cb7a0b0c97ea0dbb76bd0906689c985f73496676b7ce268e9",
        "1de18a4ea6f096a2a84ea50c2d9ca368512ab2a146742421c3cd530b0f680a5e",
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
    "sparseness cnot_rz": "73871a494a871feba22c2886c6edb251aa23f06ff967a5ba31cf8007c4218959",
    "arch cnot": "8f96acdf55f9b514e09d61cade679a7a36714f1004a14aebdf4109d5fcfb0ab9",
    "arch cnot_rz": "12a026c53f858ebd6bb99b8de16580303d9f9c2ea249179727aac112a82c69e4",
    "h-ratio 5": "94fd0026dffdbbd102096f637348168bb39b257c6b01df81321a92c512762678",
    "h-ratio 7": "ee742330c5d7ff77f8eab2df8088b7f5ee788b6ed64591a88f72bc8fcd2ee550",
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
        "e1e1b708041e72635ed4a86024d824a2d98bb014ace4c9c975de6b0a210a7fea",
    ),
    "bristlecone72": (
        "e84947985f14a9b70f18683d64d17ada60f1363c54fad6d3fffc961db2892431",
        "3a28417599e0321fd0847745ffa7bdf4882110cfc39422210621f9860e0b7eec",
    ),
    "acorn19": (
        "4dcf42917de3a3e640087b64ffedfaa7df5c57eada5e86e26aa7090c5658bde8",
        "3e9f9acb6f084353cbf7dc93f4101c2c4c254044b4210fb858af6ca20aaa3639",
    ),
    "grid(5,4)": (
        "7b850501e921748cd4580e1001cb0e9064f6489d50812df42203e591b892e71b",
        "544190b8ec4973e06912c689134aee95830df48103b339c9a119abbcda0a826c",
    ),
    "line(20)": (
        "7f9eca87633d4ea8cf2cc81a9a19ac82ab44fef06d25c104970e9518a4ead36a",
        "0e4235cd1b33eae03cd16571aa69d54763c44968e6d9192b174d096d1ba2049f",
    ),
    "grid(8,9)": (
        "eab90b6e8673b4b575aa23f85628155c375bb43baf0e21b1f3089f337a3b6528",
        "5820bdc07891312eea98ea819707f5bbe3594edd2c9a54bfd4acbdd877d45aba",
    ),
    "random(n=20,s=0.1,seed=1)": (
        "dd7c43b7ef36fd15a71bcd0c847890a0fabdfcc8ba9d197e732c55af19f6491c",
        "edfb8a656f3b5bfa584e8e2d9bf68d3b71a14eff4526f251f5a6d8e33df45f8f",
    ),
    "random(n=12,s=0.1,seed=2)": (
        "b777df64b91f9e9ae4487f8e71b1c7c0be1b3b097cbe158932267e273752e1a6",
        "52f8dab973c8d018f98a374cca3606003f120b73dc277fb12cb897df3d05b0c5",
    ),
    "random(n=20,s=0.3,seed=1)": (
        "205985bca55b35f152579156efc76a34f3b65b777e9f2022839cee00214d99b7",
        "04591c70f33f27d63200e5d9e02fff29d131a0f3e817fbfa6902042094f105ed",
    ),
    "random(n=12,s=0.3,seed=2)": (
        "ff7f8791a142488c0d95e54a885385ecd8ec0367596cd154092fd7e7847fe6c7",
        "611e192c29d3ea2ef5093de1b3cd3d96e589c6c9b7ffaa61e6b2d74cb1678ef4",
    ),
    "random(n=20,s=1.0,seed=1)": (
        "eb1015ea7b1dd6dd2cf79629bd40778ddbc5999876c4d65609f31f37fb418a03",
        "bfcca4b1d857dda30a995fba33bd55b5365da38e23c674a5b512ae21e4fbc9b0",
    ),
    "random(n=12,s=1.0,seed=2)": (
        "7fddf800a36074ecf2bcea960463dd1e153b84224afaeedf50ca4c50d98896f6",
        "ef42f6c7ff02da03f36cbf28b30f3e4715a7cb957d6ddd7e1b7103c97fd9a918",
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
# the linear fixup moved to RowCol elimination.
ORDER_FREE_GOLDEN = {
    "line(9)": (
        "816fe0fc36896ca602ef381f9414d02a94271bc81de63254b874dde3f0c69815",
        "a78c4c0e10773c40d68178f67d5bec2f39ddaa67165d9a01edeea2135a4a8fb6",
    ),
    "line(20)": (
        "383dacac67c6e41ccb302942f77ba380a527e2d128b9874880ef0b256db11d9b",
        "7df8583fa14dd483d0b0ac400daccddd51a27df0c1caffa4e3e4be9427e2fa64",
    ),
    "complete(7)": (
        "add5a28db14d5f8930cf7eaacaf29874442ac41153afb07d66c677ecc401bd67",
        "eb235d6549a693de7b04cee8d6dd728685cffb803f0961238545e58617c04a97",
    ),
    "complete(20)": (
        "e6e8762153248290fdd7ee006f5fc30f5b1bb91dcc79db41be1ba44af2f47e16",
        "c51cacba0eb78f77eff7477ee29a0c3a703b72c8d1eb9cae322a2246d57dcf6e",
    ),
}


@pytest.mark.parametrize("g", [line_graph(9), line_graph(20), complete_graph(7), complete_graph(20)],
                         ids=lambda g: g.name)
def test_line_and_complete_circuits_predate_floored_trees(g):
    assert order_free_digests(g) == ORDER_FREE_GOLDEN[g.name]
