"""Golden digests of the CLI synthesis commands and the bench suites.

Each case pins the sha256 of the `--out` circuit text and of the `--report`
JSON with its `elapsed_ms` line removed (the only field that varies between
runs), or of a small bench CSV.  They were recorded before the commands and
suites were routed through one pipeline, and pin that the routing changed
no output byte.
"""

import hashlib
import random

import pytest
from click.testing import CliRunner

from steinersynth import emit_circuit, emit_matrix, random_invertible
from steinersynth.bench import (
    BenchConfig,
    bench_architecture,
    bench_h_ratio,
    bench_sparseness,
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
        "ca67852f61b5d09fd499d0e2b6945f9399425eda507b1b79031c68c880fec340",
    ),
    ("line(6)", "synth-cnot --baseline pmh"): (
        "99ee960c959231b9d0b692d9556b2b41d21f45b2ae295c12897bc2794b4cc9d1",
        "9862e176808e002c6d0e98fc790dfeccb7100aa529d1f2a921974facd249c5d9",
    ),
    ("line(6)", "synth-cnot --baseline templates"): (
        "bc4a0ca19f0bf428e6a6d0c3b7d6ef16a2bc395e863c1408c7e18850bf03114f",
        "5fffd8fa410a1e006784e93514156dc3a9d281cc6de5b6620a261c63b8990f44",
    ),
    ("line(6)", "synth-cnot --no-cleanup"): (
        "114c7d422e26436b2b94ea5b59846fb3822ca42d5672b22521282591e9d17f00",
        "ca67852f61b5d09fd499d0e2b6945f9399425eda507b1b79031c68c880fec340",
    ),
    ("line(6)", "synth-phase"): (
        "dd7b5c52f6b4ae1e525136a9278badc6c6ba5938939ca2f23108cc499b85c7e0",
        "8b5206819d4acb1b12c8c5ac8031fbf2d2e36d785fc5bca9e5715eff98469c6e",
    ),
    ("line(6)", "route"): (
        "dd379361cef025370cf86cced07231bddc428e71fb950bb4c2331c536e015257",
        "59a26d473134fc3db6043de8398a73d6fe65b9f54392b9091265c840b1356f82",
    ),
    ("tokyo20", "synth-cnot"): (
        "608e282225a4f67277457789ed71462fd74322c14a09cd54023474eee0547185",
        "455bae837bb6309ed0a370afd2585b19206f0f1de435e4255cd2090c34a9d912",
    ),
    ("tokyo20", "synth-cnot --baseline pmh"): (
        "8ebaaf467d9cdd76238840ccb028ec7707c9133a5ba9ee82393c08263d249e23",
        "91fadd37fa7a827e7c3a4d40965a527fb1337bce6f4396bf9aeaa0abcf313bda",
    ),
    ("tokyo20", "synth-cnot --baseline templates"): (
        "3337d00584d44800f1101dad0e0742d13f2001256e59f3884e34d1966280d5b6",
        "b48241ec24b43f514d271b7a8f3a9f2cf6d000cb669a78f899f871db408c1580",
    ),
    ("tokyo20", "synth-cnot --no-cleanup"): (
        "a868dac61268a9bb639625c79a9c61d9ce2b261eb06ccea38de6fda89765760d",
        "65821cc279844d5d62c83665988ddf90931e7823041373a946c00499b6c0adfd",
    ),
    ("tokyo20", "synth-phase"): (
        "c64acc5df66099f88e5c96ebba15e5f3ec89ce4df53aae1385d649957b208024",
        "64fd2fbe5e41fdc96e26aad6eab8c5c15a837157f90e2b73c2b888cee88f1f36",
    ),
    ("tokyo20", "route"): (
        "db36406ba1a1a1cc652e143633271c84360499e7a3d8bf6b6ba5fff4f4b62efd",
        "a57e58e2417ffe9291ed1ec875904f1bc66b9b7ae5b5f598fa1f5e42c68edf8a",
    ),
}


@pytest.mark.parametrize("arch,case", sorted(CLI_GOLDEN))
def test_cli_golden(tmp_path, arch, case):
    assert cli_digests(tmp_path, arch, case) == CLI_GOLDEN[arch, case]


def bench_csv(case: str) -> str:
    if case.startswith("sparseness"):
        mode = case.split()[1]
        cfg = BenchConfig(n=6, trials=2, seed=3, sparseness_values=(0.3, 1.0), mode=mode,
                          support_terms=6)
        return bench_sparseness(cfg)
    if case.startswith("arch"):
        return bench_architecture("tokyo20", [5, 8], trials=2, seed=4, mode=case.split()[1])
    n = int(case.split()[1])
    cfg = BenchConfig(n=n, trials=2, seed=7, gate_count=40)
    return bench_h_ratio(cfg, line_graph(n), h_values=(0.0, 0.1))


BENCH_GOLDEN = {
    "sparseness cnot": "c58f3d3a3b6d5427462ec638abcc3cb7e65cd0d883c4bc51984a8396ff306de8",
    "sparseness cnot_rz": "565a8513f5937da00794204cb8586b60dbd44c5a4c63b1fb2b35d8376f0e297e",
    "arch cnot": "5462e1ccdd6e952824a16d78d91d2398b8a021da001c13973c2aba06be35db06",
    "arch cnot_rz": "a8f2f6b13f99c70c88bd2052948e99bd6bf5148a53c63aee5d15afdab7f90e46",
    "h-ratio 5": "759c40785bbeaf4591ad0ea76ce605c651bd06fcb3a18ae630eb8db56e570540",
    "h-ratio 7": "803cd8df9c56f433f096c2b6edc4dfa0cae9f199acf82f8c58b5b17047e9e978",
}


@pytest.mark.parametrize("case", sorted(BENCH_GOLDEN))
def test_bench_golden(case):
    assert sha(bench_csv(case)) == BENCH_GOLDEN[case]
