"""End-to-end command line runs through subprocesses."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from steerlab import (
    DensityMatrix,
    EnsembleState,
    basis_ket,
    lc4_mixed,
    save_protocol,
    save_state,
    tensor_protocol,
    two_qubit_theta_state,
)


def run_cli(*args, env_extra=None):
    import os

    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "steerlab", *args],
        capture_output=True, text=True, env=env,
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {}

    def dump(name, doc):
        p = root / name
        p.write_text(json.dumps(doc))
        paths[name] = str(p)

    dump("lc4.json", save_state(lc4_mixed(np.pi / 4)))
    dump("zzyx.json", save_protocol(tensor_protocol("zz", "yx", n_qubits=4)))
    dump("tq.json", save_state(two_qubit_theta_state(np.pi / 4)))
    dump("zx.json", save_protocol(tensor_protocol("z", "x", n_qubits=2)))
    mix = EnsembleState(2, (0.5, 0.5), (basis_ket(2, 0), basis_ket(2, 3)))
    dump("mix.json", save_state(mix))
    dump("bad.json", {"n_qubits": "two"})
    paths["root"] = str(root)
    return paths


class TestDemo:
    def test_two_qubit_paradox_line(self):
        r = run_cli("demo", "two-qubit")
        assert r.returncode == 0
        assert "verdict: PARADOX" in r.stdout
        assert "quantum=2.000000 lhs=1.000000" in r.stdout

    def test_lc4_with_theta(self):
        r = run_cli("demo", "lc4", "--theta", "0.5")
        assert r.returncode == 0
        assert "verdict: PARADOX" in r.stdout

    def test_product_no_paradox_still_exit_zero(self):
        r = run_cli("demo", "product")
        assert r.returncode == 0
        assert "NO_PARADOX_CROSS_DUPLICATE" in r.stdout
        assert "lhs=not-forced" in r.stdout

    def test_unknown_demo_usage_error(self):
        r = run_cli("demo", "nosuch")
        assert r.returncode == 2

    def test_json_format_parses(self):
        r = run_cli("demo", "two-qubit", "--format", "json", "--lp")
        doc = json.loads(r.stdout)
        assert doc["verdict"] == "PARADOX"
        assert doc["lp_verdict"] == "infeasible"


class TestCheck:
    def test_lc4_files_with_lp(self, files):
        r = run_cli("check", "--state", files["lc4.json"],
                    "--protocol", files["zzyx.json"], "--lp", "--format", "json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["verdict"] == "PARADOX"
        assert doc["lp_verdict"] == "infeasible"

    def test_byte_identical_json(self, files):
        args = ("check", "--state", files["lc4.json"],
                "--protocol", files["zzyx.json"], "--format", "json")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_readme_example_files(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        state, protocol = re.findall(r"```json\n(.*?)```", readme, re.S)
        (tmp_path / "st.json").write_text(state)
        (tmp_path / "pr.json").write_text(protocol)
        r = run_cli("check", "--state", str(tmp_path / "st.json"),
                    "--protocol", str(tmp_path / "pr.json"))
        assert r.returncode == 0, r.stderr
        assert "verdict: PARADOX" in r.stdout

    def test_mismatched_sizes_exit_2(self, files):
        r = run_cli("check", "--state", files["tq.json"], "--protocol", files["zzyx.json"])
        assert r.returncode == 2
        assert "error:" in r.stderr

    def test_schema_violation_exit_2_with_path(self, files):
        r = run_cli("check", "--state", files["bad.json"], "--protocol", files["zx.json"])
        assert r.returncode == 2
        assert "n_qubits" in r.stderr

    def test_missing_file_exit_2(self, files):
        r = run_cli("check", "--state", files["root"] + "/absent.json",
                    "--protocol", files["zx.json"])
        assert r.returncode == 2

    def test_loosened_tolerance_same_verdict(self, files):
        r = run_cli("check", "--state", files["tq.json"], "--protocol", files["zx.json"],
                    "--tolerance", "1e-6")
        assert r.returncode == 0
        assert "verdict: PARADOX" in r.stdout

    def test_dump_lp_writes_problem(self, files):
        out = files["root"] + "/dump.json"
        r = run_cli("check", "--state", files["mix.json"], "--protocol", files["zx.json"],
                    "--dump-lp", out)
        assert r.returncode == 0
        doc = json.loads(open(out).read())
        assert {"a_eq", "b_eq", "candidates", "relative"} <= set(doc)

    @pytest.mark.parametrize("setting, where", [
        ({"type": "bell_like", "beta": 0.3, "m_qubits": 40}, "setting_1.m_qubits"),
        ({"type": "tensor_pauli", "axes": "z" * 13}, "setting_1.axes"),
    ])
    def test_protocol_past_the_cap_exit_2_with_path(self, files, tmp_path, setting, where):
        m = setting.get("m_qubits", 13)
        protocol = tmp_path / "big.json"
        protocol.write_text(json.dumps({"alice_qubits": m, "setting_1": setting,
                                        "setting_2": setting}))
        r = run_cli("check", "--state", files["tq.json"], "--protocol", str(protocol))
        assert r.returncode == 2
        assert f"{where}: {m} qubits exceed the configured dimension cap" in r.stderr

    def test_near_psd_density_accepted(self, files, tmp_path):
        # within PSD_TOL of positive, as DensityMatrix accepts it
        rho = DensityMatrix(2, np.diag([0.5 + 5e-10, 0.5, 0.0, -5e-10]))
        state = tmp_path / "near_psd.json"
        state.write_text(json.dumps(save_state(rho)))
        r = run_cli("check", "--state", str(state), "--protocol", files["zx.json"])
        assert r.returncode == 0, r.stderr
        assert "verdict: NO_PARADOX_PURITY" in r.stdout

    def test_dimension_cap_env(self, files):
        r = run_cli("check", "--state", files["lc4.json"], "--protocol", files["zzyx.json"],
                    env_extra={"STEERLAB_MAX_DIM": "2"})
        assert r.returncode == 2


class TestToleranceRejection:
    @pytest.mark.parametrize("value", ["0", "-1e-6", "nan"])
    def test_non_positive_tolerance_exit_2(self, files, value, capsys):
        from steerlab import cli

        pair = ["--state", files["tq.json"], "--protocol", files["zx.json"]]
        for args in (["demo", "two-qubit"], ["check", *pair], ["sweep", "--count", "1"],
                     ["lhs", *pair]):
            assert cli.main([*args, f"--tolerance={value}"]) == 2, args
            assert "tolerance" in capsys.readouterr().err, args


class TestAmplitudeInput:
    def test_check_dump_lp_and_lhs_build_no_density(self, files, tmp_path, monkeypatch, capsys):
        from steerlab import DensityMatrix, cli

        def dense_build(*args, **kwargs):
            raise AssertionError("the CLI built the dense density operator")

        monkeypatch.setattr(DensityMatrix, "__post_init__", dense_build)
        dump = tmp_path / "lp.json"
        assert cli.main(["check", "--state", files["tq.json"], "--protocol", files["zx.json"],
                         "--lp", "--dump-lp", str(dump)]) == 0
        assert json.loads(dump.read_text())["relative"] is False
        assert "lhs-lp: infeasible" in capsys.readouterr().out
        assert cli.main(["lhs", "--state", files["lc4.json"], "--protocol", files["zzyx.json"]]) == 0
        assert capsys.readouterr().out.startswith("lhs-lp: infeasible")


class TestOnePass:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of the contraction, the assembly and the solve during one run."""
        from steerlab import lhs_lp, steering

        calls = {"_unvalidated_states": 0, "build_lp": 0, "solve_feasibility": 0}
        for module, name in ((steering, "_unvalidated_states"), (lhs_lp, "build_lp"),
                             (lhs_lp, "solve_feasibility")):
            original = getattr(module, name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        return calls

    def test_check_lp_dump_lp_assembles_once(self, files, tmp_path, calls, capsys):
        """The dumped program is the one the report's LP verdict came from."""
        from steerlab import cli

        dump = tmp_path / "lp.json"
        assert cli.main(["check", "--state", files["lc4.json"], "--protocol", files["zzyx.json"],
                         "--lp", "--dump-lp", str(dump)]) == 0
        assert calls == {"_unvalidated_states": 1, "build_lp": 1, "solve_feasibility": 1}
        assert json.loads(dump.read_text())["relative"] is False
        assert "lhs-lp: infeasible" in capsys.readouterr().out

    def test_check_dump_lp_without_lp_solves_nothing(self, files, tmp_path, calls):
        """Without --lp the program is assembled once, not solved, and dumped unchanged."""
        from steerlab import cli

        pair = ["--state", files["lc4.json"], "--protocol", files["zzyx.json"]]
        alone, solved = tmp_path / "alone.json", tmp_path / "solved.json"
        assert cli.main(["check", *pair, "--dump-lp", str(alone)]) == 0
        assert calls == {"_unvalidated_states": 1, "build_lp": 1, "solve_feasibility": 0}
        assert cli.main(["check", *pair, "--lp", "--dump-lp", str(solved)]) == 0
        assert alone.read_bytes() == solved.read_bytes()

    def test_lhs_dump_lp_assembles_once(self, files, tmp_path, calls):
        from steerlab import cli

        assert cli.main(["lhs", "--state", files["lc4.json"], "--protocol", files["zzyx.json"],
                         "--dump-lp", str(tmp_path / "lp.json")]) == 0
        assert calls == {"_unvalidated_states": 1, "build_lp": 1, "solve_feasibility": 1}

    def test_lhs_reads_the_evidence_without_a_verdict(self, files, monkeypatch):
        """``lhs`` builds the pair's evidence alone: no duplicate report, no verdict."""
        from steerlab import cli, steering

        duplicates = []
        original = steering._duplicates
        monkeypatch.setattr(steering, "_duplicates",
                            lambda evidence: duplicates.append(1) or original(evidence))
        pair = ["--state", files["lc4.json"], "--protocol", files["zzyx.json"]]
        assert cli.main(["lhs", *pair]) == 0
        assert duplicates == []
        assert cli.main(["check", *pair]) == 0
        assert duplicates == [1]


class TestSolverGivesUp:
    @pytest.mark.parametrize("command", ["check", "lhs", "demo"])
    def test_exit_3_keeps_the_dump(self, files, tmp_path, command, monkeypatch, capsys):
        """A solver that decides nothing exits 3; the program was dumped before the solve."""
        from steerlab import SolverLimitError, cli, lhs_lp

        pair = ["--state", files["lc4.json"], "--protocol", files["zzyx.json"]]
        argv = {"check": ["check", *pair, "--lp"], "lhs": ["lhs", *pair],
                "demo": ["demo", "lc4", "--lp"]}[command]
        dumps = command != "demo"
        if dumps:
            assert cli.main([*argv, "--dump-lp", str(tmp_path / "decided.json")]) == 0
            argv += ["--dump-lp", str(tmp_path / "undecided.json")]
        capsys.readouterr()

        def give_up(problem, max_iter=None):
            raise SolverLimitError("NNLS gave up")

        monkeypatch.setattr(lhs_lp, "solve_feasibility", give_up)
        assert cli.main(argv) == 3
        assert capsys.readouterr() == ("", "error: NNLS gave up\n")
        if dumps:
            decided = (tmp_path / "decided.json").read_bytes()
            assert (tmp_path / "undecided.json").read_bytes() == decided


class TestEmptyBob:
    @pytest.mark.parametrize("command", ["check", "lhs", "sweep"])
    def test_alice_covering_the_state_exit_2(self, files, command, capsys):
        from steerlab import cli

        if command == "sweep":
            args = ["sweep", "--n-qubits", "2", "--alice-qubits", "2", "--count", "1"]
        else:
            args = [command, "--state", files["tq.json"], "--protocol", files["zzyx.json"]]
        assert cli.main(args) == 2
        assert capsys.readouterr().err == "error: alice_qubits=2 leaves Bob empty for n=2\n"


class TestLhs:
    def test_feasible_mixture(self, files):
        r = run_cli("lhs", "--state", files["mix.json"], "--protocol", files["zx.json"],
                    "--format", "json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["lp_verdict"] == "feasible"
        assert doc["verify_residual"] <= 1e-8
        assert doc["residual"] <= 1e-9
        assert doc["certificate_margin"] is None

    def test_infeasible_paradox_state(self, files):
        r = run_cli("lhs", "--state", files["tq.json"], "--protocol", files["zx.json"])
        assert r.returncode == 0
        assert "lhs-lp: infeasible (residual " in r.stdout
        assert "certificate margin: " in r.stdout
        r = run_cli("lhs", "--state", files["tq.json"], "--protocol", files["zx.json"],
                    "--format", "json")
        doc = json.loads(r.stdout)
        assert doc["lp_verdict"] == "infeasible"
        assert doc["residual"] > 0.1
        assert doc["certificate_margin"] > 1 - 1e-9
        assert doc["verify_residual"] is None


class TestSweep:
    def test_rank2_never_paradox(self):
        r = run_cli("sweep", "--n-qubits", "2", "--alice-qubits", "1", "--rank", "2",
                    "--count", "25", "--seed", "3", "--format", "json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["verdict_counts"]["PARADOX"] == 0
        assert len(doc["samples"]) == 25

    def test_rank1_fixed_protocol_all_paradox(self, files):
        r = run_cli("sweep", "--n-qubits", "2", "--alice-qubits", "1", "--rank", "1",
                    "--count", "25", "--seed", "3", "--protocol", files["zx.json"],
                    "--format", "json")
        doc = json.loads(r.stdout)
        assert doc["verdict_counts"]["PARADOX"] == 25

    def test_deterministic_given_seed(self):
        args = ("sweep", "--count", "10", "--seed", "12", "--rank", "2", "--format", "json")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_past_the_cap_exit_2(self):
        r = run_cli("sweep", "--n-qubits", "40", "--count", "1")
        assert r.returncode == 2
        assert "40 qubits exceed the configured dimension cap" in r.stderr

    def test_invalid_count_exit_2(self):
        r = run_cli("sweep", "--count", "0")
        assert r.returncode == 2
