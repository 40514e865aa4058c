"""Command-line interface tests: exit codes, file outputs, report shape."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from hisim.cli import main
from hisim.statevec import load_state, simulate_flat
from hisim import bench


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- exit codes -------------------------------------------------------------


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "run", "bell", "--frobnicate")
    assert code == 1


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("partition", "bv_6", "--strategy", "dfs", "--trials", "0"),
        ("run", "bv_6", "--mode", "hierarchical", "--strategy", "dfs",
         "--trials", "0"),
        ("run", "bv_6", "--mode", "distributed", "--p", "-1"),
        ("oracle-gap", "--circuits", "bell", "--truncate", "-3"),
    ],
)
def test_flag_out_of_range_is_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "is below" in err


def test_verify_beyond_its_qubit_cap_is_usage_error(capsys):
    """``--verify`` on more than 16 qubits is refused with exit 1 before
    anything runs."""
    code, out, err = run_cli(capsys, "run", "bv_30", "--verify")
    assert code == 1
    assert out == ""
    assert "--verify supports up to 16 qubits, circuit has 30" in err


def test_rank_bits_beyond_the_circuit_is_input_error(capsys):
    """Whether ``--p`` fits depends on the circuit, so it is an input
    error, not a usage error."""
    code, _, err = run_cli(capsys, "run", "bv_6", "--mode", "distributed",
                           "--p", "7")
    assert code == 2
    assert "rank bits 7 outside 0..6" in err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["--mode", "flat"], id="flat"),
        pytest.param(["--mode", "hierarchical"], id="hierarchical"),
        pytest.param(["--mode", "hierarchical", "--l2", "1"], id="multilevel"),
        pytest.param(["--mode", "distributed"], id="distributed"),
    ],
)
def test_gate_free_circuit_runs_in_every_mode(tmp_path, capsys, argv):
    path = tmp_path / "empty.qasm"
    path.write_text("OPENQASM 2.0;\nqreg q[3];\n")
    code, out, _ = run_cli(capsys, "run", str(path), *argv, "--verify")
    assert code == 0
    report = json.loads(out)
    assert report["max_abs_delta"] == 0.0
    assert report["probabilities"] == {"000": 1.0}
    if "distributed" in argv:
        assert report["comm"]["parts"] == 0
        assert report["comm"]["switches"] == []


def test_a_directory_does_not_hide_a_bundled_name(tmp_path, monkeypatch, capsys):
    """``bell`` names the bundled circuit even beside a ``bell/``
    directory: only a file is read as a path."""
    (tmp_path / "bell").mkdir()
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "run", "bell", "--mode", "hierarchical",
                           "--verify")
    assert code == 0
    report = json.loads(out)
    assert report["circuit"]["name"] == "bell"
    assert report["probabilities"] == {"00": 0.5, "11": 0.5}


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "run", "/nonexistent/circuit.qasm")
    assert code == 2
    assert err.strip() != ""


def test_unparseable_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 2.0;\nqreg q[2];\nh q[0]\n")
    code, _, _ = run_cli(capsys, "run", str(bad))
    assert code == 2


def test_infeasible_limit_is_input_error(capsys):
    code, _, _ = run_cli(
        capsys, "run", "bv_6", "--mode", "hierarchical", "--limit", "0"
    )
    assert code == 2


def test_oversized_circuit_is_input_error(capsys):
    # bv_30 is 30 qubits; a flat run would need 16 GiB, which the default
    # cap refuses.
    code, _, _ = run_cli(capsys, "run", "bv_30", "--mode", "flat")
    assert code == 2


def test_verification_failure_is_exit_three(capsys, monkeypatch):
    # A valid partition always verifies, so corrupt the executor.
    import hisim.cli as cli_mod

    real = cli_mod.execute_hierarchical

    def corrupted(circuit, partition, **kwargs):
        out = real(circuit, partition, **kwargs)
        state = out[0] if isinstance(out, tuple) else out
        state.data[0] += 0.5
        return out

    monkeypatch.setattr(cli_mod, "execute_hierarchical", corrupted)
    code, _, err = run_cli(
        capsys, "run", "bv_6", "--mode", "hierarchical", "--verify"
    )
    assert code == 3
    assert "delta" in err


def _strict_json(text):
    """Parse JSON, refusing the ``NaN``/``Infinity`` tokens that Python's
    encoder writes but JSON does not have."""
    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def test_nan_amplitude_fails_verification(capsys, monkeypatch, tmp_path):
    # every comparison with NaN is False, so "not below the tolerance"
    # must be how a delta fails
    import hisim.cli as cli_mod

    real = cli_mod.execute_hierarchical

    def corrupted(circuit, partition, **kwargs):
        state = real(circuit, partition, **kwargs)
        state.data[0] = np.nan
        return state

    monkeypatch.setattr(cli_mod, "execute_hierarchical", corrupted)
    argv = ("run", "bv_6", "--mode", "hierarchical", "--verify")
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert "nan" in err
    path = tmp_path / "r.json"
    dump = tmp_path / "s.bin"
    code, _, err = run_cli(capsys, *argv, "--report", str(path), "--out", str(dump))
    assert code == 3
    assert "nan" in err
    # both reports are strict JSON: the NaN delta is null and the NaN
    # probability is left out
    for report in (_strict_json(out), _strict_json(path.read_text())):
        assert report["max_abs_delta"] is None
        assert report["probabilities"] == {"011111": 0.5, "111111": 0.5}
    # so is the state dump's sidecar: the NaN norm is null, and the dump
    # still reads back
    sidecar = _strict_json((tmp_path / "s.bin.json").read_text())
    assert sidecar == {"num_qubits": 6, "norm": None}
    state = load_state(dump)
    assert state.num_qubits == 6
    assert np.isnan(state.data[0])


@pytest.mark.parametrize("delta", [float("nan"), 1.0])
def test_cli_and_verify_against_flat_fail_alike(capsys, monkeypatch, delta):
    """With the deviation stubbed, ``hisim run --verify`` prints the delta,
    then fails with the message ``verify_against_flat`` raises."""
    import hisim.cli as cli_mod
    from hisim import hier
    from hisim.errors import VerificationError

    monkeypatch.setattr(cli_mod, "max_deviation_from_flat", lambda c, s: delta)
    monkeypatch.setattr(hier, "max_deviation_from_flat", lambda c, s: delta)
    circuit = bench.build("bv_6")
    with pytest.raises(VerificationError) as raised:
        hier.verify_against_flat(circuit, simulate_flat(circuit))
    argv = ("run", "bv_6", "--mode", "hierarchical", "--verify")
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    lines = err.splitlines()
    assert lines[0] == f"verify: max |delta| = {delta:.3e}"
    assert lines[1].endswith(f"verification failed: {raised.value}")


# --- run reports ------------------------------------------------------------

REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "circuit",
        "mode",
        "num_parts",
        "parts",
        "wall_time_s",
    ],
    "properties": {
        "circuit": {
            "type": "object",
            "required": ["name", "num_qubits", "num_gates"],
            "properties": {
                "name": {"type": "string"},
                "num_qubits": {"type": "integer", "minimum": 1},
                "num_gates": {"type": "integer", "minimum": 0},
            },
        },
        "mode": {
            "enum": ["flat", "hierarchical", "distributed"]
        },
        "num_parts": {"type": ["integer", "null"]},
        "parts": {
            "type": ["array", "null"],
            "items": {
                "type": "object",
                "required": ["id", "gates", "working_set"],
            },
        },
        "wall_time_s": {"type": "number", "minimum": 0},
        "max_abs_delta": {"type": ["number", "null"]},
        "probabilities": {"type": ["object", "null"]},
    },
}


def test_run_report_on_stdout_is_valid(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "bv_6",
        "--mode",
        "hierarchical",
        "--strategy",
        "dagp",
        "--limit",
        "4",
        "--verify",
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["circuit"] == {"name": "bv_6", "num_qubits": 6, "num_gates": 17}
    assert report["mode"] == "hierarchical"
    assert report["strategy"] == "dagp"
    assert report["limit"] == 4
    assert report["num_parts"] == 2
    assert report["max_abs_delta"] < 1e-10


def test_bell_probabilities(capsys):
    code, out, _ = run_cli(capsys, "run", "bell", "--mode", "flat")
    assert code == 0
    report = json.loads(out)
    probs = report["probabilities"]
    assert set(probs.keys()) == {"00", "11"}
    assert probs["00"] == pytest.approx(0.5, abs=1e-12)
    assert probs["11"] == pytest.approx(0.5, abs=1e-12)


def test_report_file_and_summary(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "run", "bv_6", "--report", str(report_path)
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    # With --report the JSON goes to the file, not stdout.
    assert not out.strip().startswith("{")


def test_distributed_run_reports_comm(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "ising_8",
        "--mode",
        "distributed",
        "--p",
        "2",
        "--verify",
    )
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "distributed"
    assert report["num_rank_bits"] == 2
    comm = report["comm"]
    assert comm["num_ranks"] == 4
    assert comm["totals"]["switches"] == len(comm["switches"])
    assert report["max_abs_delta"] < 1e-10


def test_multilevel_run(capsys):
    """``--l2`` makes a hierarchical run partition in two levels, dagp at
    ``--limit`` and at ``--l2``; the report reads the limits off the
    partition."""
    code, out, _ = run_cli(
        capsys,
        "run",
        "qft_12",
        "--mode",
        "hierarchical",
        "--limit",
        "8",
        "--l2",
        "4",
        "--verify",
    )
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "hierarchical"
    assert report["strategy"] == "multilevel"
    assert report["limit"] is None
    assert report["limit1"] == 8
    assert report["limit2"] == 4
    assert report["max_abs_delta"] < 1e-10


def test_explicit_l2_above_l1_is_usage_error(capsys):
    """An ``--l2`` above the level-1 limit, ``--limit`` or its default, is
    refused, not clamped, by either command in any partitioned mode; an
    ``--l2`` equal to it is two levels at one limit."""
    for argv, limit in (
        (("run", "qft_12", "--mode", "hierarchical", "--limit", "3"), 3),
        (("run", "qft_12", "--mode", "distributed", "--limit", "3"), 3),
        (("partition", "qft_12", "--limit", "3"), 3),
        (("run", "qft_12", "--mode", "hierarchical"), 6),
        (("partition", "qft_12"), 6),
    ):
        code, out, err = run_cli(capsys, *argv, "--l2", str(limit + 2))
        assert code == 1
        assert out == ""
        assert f"--l2 {limit + 2} exceeds the level-1 limit {limit}" in err
    code, out, _ = run_cli(capsys, "run", "qft_12", "--mode", "hierarchical",
                           "--l2", "6")
    assert code == 0
    report = json.loads(out)
    assert (report["limit1"], report["limit2"]) == (6, 6)


@pytest.mark.parametrize(
    "argv",
    [
        ("--mode", "flat", "--l2", "3"),
        ("--mode", "hierarchical", "--partition", "ML", "--l2", "3"),
        ("--mode", "hierarchical", "--partition", "FLAT", "--l2", "3"),
        ("--mode", "distributed", "--partition", "ML", "--l2", "3"),
        ("--mode", "distributed", "--partition", "FLAT", "--l2", "3"),
        ("--mode", "flat", "--l2", "3", "--strategy", "nat"),
        ("--mode", "flat", "--l2", "3", "--p", "0"),
        ("--mode", "hierarchical", "--partition", "ML", "--l2", "3",
         "--p", "3"),
    ],
)
def test_ignored_level_limits_are_usage_errors(tmp_path, capsys, argv):
    """``--l2`` wherever the run does not partition (``--mode flat``, or a
    loaded partition of either kind) is refused with exit 1, not silently
    dropped, and before the flags listed after it."""
    paths = {"ML": tmp_path / "ml.json", "FLAT": tmp_path / "flat.json"}
    for levels, path in ((("--l2", "3"), paths["ML"]), ((), paths["FLAT"])):
        code, _, _ = run_cli(capsys, "partition", "qft_12", "--limit", "5",
                             *levels, "--out", str(path))
        assert code == 0
    argv = [str(paths[a]) if a in paths else a for a in argv]
    code, out, err = run_cli(capsys, "run", "qft_12", *argv)
    assert code == 1
    assert out == ""
    assert "--l2 applies only to a run that partitions" in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("--mode", "flat", "--partition", "PART"), "--partition"),
        (("--mode", "flat", "--limit", "4"), "--limit"),
        (("--mode", "hierarchical", "--partition", "PART", "--limit", "2"),
         "--limit"),
        (("--mode", "distributed", "--partition", "PART", "--limit", "2"),
         "--limit"),
        (("--mode", "flat", "--limit", "4", "--l2", "2"), "--limit"),
        (("--mode", "distributed", "--partition", "PART", "--limit", "4",
          "--l2", "2"), "--limit"),
        (("--mode", "flat", "--strategy", "nat", "--seed", "3"), "--strategy"),
        (("--mode", "hierarchical", "--p", "3"), "--p"),
        (("--mode", "hierarchical", "--l2", "2", "--strategy", "nat"),
         "--strategy"),
        (("--mode", "hierarchical", "--trials", "4"), "--trials"),
        (("--mode", "hierarchical", "--strategy", "nat", "--seed", "3"),
         "--seed"),
        (("--mode", "distributed", "--partition", "PART", "--strategy", "dfs"),
         "--strategy"),
        (("--mode", "distributed", "--l2", "2", "--strategy", "dagp"),
         "--strategy"),
        (("--mode", "flat", "--p", "0"), "--p"),
    ],
)
def test_ignored_partition_and_limit_are_usage_errors(tmp_path, capsys, argv, flag):
    """``--partition`` or ``--limit`` under ``--mode flat``, and ``--limit``
    alongside ``--partition``, are refused with exit 1, not silently
    dropped. So are ``--strategy`` where the run does not partition in one
    level (beside ``--l2`` too, even ``dagp``, which level 1 always is),
    ``--seed`` and ``--trials`` where it does not partition with dfs, and
    ``--p`` outside a distributed run."""
    part_path = tmp_path / "parts.json"
    code, _, _ = run_cli(capsys, "partition", "bv_6", "--limit", "4",
                         "--out", str(part_path))
    assert code == 0
    argv = [str(part_path) if a == "PART" else a for a in argv]
    code, out, err = run_cli(capsys, "run", "bv_6", *argv)
    assert code == 1
    assert out == ""
    assert f"{flag} applies only to" in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("--strategy", "dagp", "--l2", "3"), "--strategy applies"),
        (("--strategy", "dfs", "--l2", "3", "--seed", "1"),
         "--strategy applies"),
        (("--l2", "3", "--trials", "4"), "--trials applies"),
        (("--strategy", "nat", "--seed", "3"), "--seed applies"),
        (("--trials", "4"), "--trials applies"),
        (("--limit", "5", "--l2", "3", "--seed", "1"), "--seed applies"),
    ],
)
def test_ignored_partition_flags_are_usage_errors(capsys, argv, flag):
    """``hisim partition`` refuses ``--strategy`` beside ``--l2``, whose
    level 1 is always dagp, and ``--seed`` or ``--trials`` outside dfs,
    with exit 1 and nothing on stdout."""
    code, out, err = run_cli(capsys, "partition", "bv_6", *argv)
    assert code == 1
    assert out == ""
    assert f"{flag} only to" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("partition", "bv_6", "--strategy", "dfs", "--seed", "3", "--trials", "2"),
        ("partition", "bv_6", "--limit", "4", "--l2", "2"),
        ("run", "bv_6", "--mode", "distributed", "--strategy", "dfs", "--seed",
         "2", "--trials", "3", "--p", "2"),
        ("run", "bv_6", "--mode", "hierarchical", "--strategy", "nat"),
    ],
)
def test_flags_that_are_read_are_accepted(capsys, argv):
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0


def test_distributed_level_limits_partition_in_two_levels(capsys):
    """``--mode distributed`` with ``--l2`` runs a two-level partition at
    ``--limit`` and ``--l2``."""
    code, out, _ = run_cli(capsys, "run", "qft_12", "--mode", "distributed",
                           "--p", "1", "--limit", "5", "--l2", "3", "--verify")
    assert code == 0
    report = json.loads(out)
    assert report["strategy"] == "multilevel"
    assert (report["limit1"], report["limit2"]) == (5, 3)
    assert report["max_abs_delta"] < 1e-10


def test_state_output_matches_flat(tmp_path, capsys):
    out_path = tmp_path / "state.npz"
    code, _, _ = run_cli(capsys, "run", "bv_6", "--out", str(out_path))
    assert code == 0
    state = load_state(out_path)
    expect = simulate_flat(bench.build("bv_6"))
    assert np.max(np.abs(state.data - expect.data)) < 1e-10


def test_trace_file_has_one_row_per_executed_part(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(
        capsys,
        "run",
        "bv_6",
        "--mode",
        "hierarchical",
        "--strategy",
        "nat",
        "--limit",
        "4",
        "--trace",
        str(trace_path),
    )
    assert code == 0
    rows = [json.loads(s) for s in trace_path.read_text().splitlines()]
    assert len(rows) == 5
    for row in rows:
        assert set(row) == {"part_id", "w", "iterations", "gates"}
        assert row["iterations"] == 1 << (6 - row["w"])


def test_multilevel_trace_log_is_its_level1_log(tmp_path, capsys, monkeypatch):
    """A two-level run at 5/3 and a one-level run at limit 5 write the same
    trace log, byte for byte, each one row per ``run_part`` call: a
    two-level part runs as its level-1 part."""
    from hisim import hier

    calls = []
    real = hier.run_part

    def record(data, exe):
        calls.append(exe)
        real(data, exe)

    monkeypatch.setattr(hier, "run_part", record)
    logs = []
    for argv in (["--limit", "5", "--l2", "3"], ["--limit", "5"]):
        calls.clear()
        path = tmp_path / f"trace{len(logs)}.jsonl"
        code, _, _ = run_cli(capsys, "run", "qft_12", "--mode", "hierarchical",
                             *argv, "--trace", str(path))
        assert code == 0
        logs.append(path.read_bytes())
        assert len(logs[-1].splitlines()) == len(calls) > 1
    assert logs[0] == logs[1]


def test_every_partitioned_run_writes_its_trace(tmp_path, capsys):
    """``--trace`` writes the same log under ``--mode distributed`` as
    under ``--mode hierarchical``: a trace row depends on the partition
    alone. Under ``--mode flat``, which runs no part, it is refused with
    exit 1 and writes nothing."""
    logs = []
    for mode in (["--mode", "hierarchical"], ["--mode", "distributed", "--p", "2"]):
        path = tmp_path / f"trace{len(logs)}.jsonl"
        code, _, err = run_cli(capsys, "run", "qft_12", *mode, "--verify",
                               "--trace", str(path))
        assert code == 0, err
        logs.append(path.read_bytes())
    assert logs[0] == logs[1]
    assert len(logs[0].splitlines()) > 1
    path = tmp_path / "flat.jsonl"
    code, out, err = run_cli(capsys, "run", "qft_12", "--mode", "flat",
                             "--trace", str(path))
    assert code == 1
    assert out == ""
    assert ("--trace applies only to a partitioned run (any --mode but flat)"
            in err)
    assert not path.exists()


def test_gate_free_run_writes_an_empty_trace(tmp_path, capsys):
    """Every trace row ends in a newline, so a run with no gates, and so no
    parts, writes an empty trace file, which parses line by line to no
    rows; a run with parts writes its trace's JSON lines and one final
    newline."""
    source = tmp_path / "empty.qasm"
    source.write_text("OPENQASM 2.0;\nqreg q[1];\n")
    path = tmp_path / "empty.jsonl"
    code, _, err = run_cli(capsys, "run", str(source), "--mode",
                           "hierarchical", "--trace", str(path))
    assert code == 0, err
    assert path.read_bytes() == b""
    assert [json.loads(s) for s in path.read_text().splitlines()] == []
    code, _, err = run_cli(capsys, "run", "bv_6", "--mode", "hierarchical",
                           "--strategy", "nat", "--limit", "4",
                           "--trace", str(path))
    assert code == 0, err
    text = path.read_text()
    rows = [json.loads(s) for s in text.splitlines()]
    assert len(rows) == 5
    assert text == "\n".join(json.dumps(row) for row in rows) + "\n"


# --- partition subcommand ---------------------------------------------------


def test_partition_writes_valid_document(tmp_path, capsys):
    out_path = tmp_path / "parts.json"
    code, out, err = run_cli(
        capsys,
        "partition",
        "bv_6",
        "--strategy",
        "dagp",
        "--limit",
        "4",
        "--out",
        str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["strategy"] == "dagp"
    assert doc["num_parts"] == 2
    assert "bv_6" in out  # summary goes to stdout when the JSON goes to a file
    assert err == ""


def test_partition_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "partition", "bv_6", "--limit", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["num_parts"] >= 1


def test_partition_multilevel_document(capsys):
    code, out, _ = run_cli(
        capsys,
        "partition",
        "bv_6",
        "--limit",
        "4",
        "--l2",
        "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["strategy"] == "multilevel"
    assert len(doc["sublevels"]) == doc["level1"]["num_parts"]


def test_partition_dag_exports(tmp_path, capsys):
    dot_path = tmp_path / "dag.dot"
    code, _, _ = run_cli(
        capsys, "partition", "bell", "--dag", str(dot_path)
    )
    assert code == 0
    assert dot_path.read_text().startswith("digraph")
    json_path = tmp_path / "dag.json"
    code, _, _ = run_cli(
        capsys, "partition", "bell", "--dag", str(json_path)
    )
    assert code == 0
    doc = json.loads(json_path.read_text())
    assert doc["num_qubits"] == 2


def test_saved_partition_replays(tmp_path, capsys):
    parts_path = tmp_path / "parts.json"
    code, _, _ = run_cli(
        capsys,
        "partition",
        "bv_6",
        "--strategy",
        "dfs",
        "--limit",
        "4",
        "--out",
        str(parts_path),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        "run",
        "bv_6",
        "--mode",
        "hierarchical",
        "--partition",
        str(parts_path),
        "--verify",
    )
    assert code == 0
    report = json.loads(out)
    assert report["strategy"] == "dfs"
    assert report["max_abs_delta"] < 1e-10


def test_saved_multilevel_partition_replays(tmp_path, capsys):
    """A two-level document replays under either partitioned mode."""
    parts_path = tmp_path / "ml.json"
    code, _, _ = run_cli(
        capsys, "partition", "qft_12", "--limit", "8", "--l2", "4",
        "--out", str(parts_path),
    )
    assert code == 0
    for mode in (["--mode", "hierarchical"],
                 ["--mode", "distributed", "--p", "1"]):
        code, out, _ = run_cli(
            capsys, "run", "qft_12", *mode, "--partition", str(parts_path),
            "--verify",
        )
        assert code == 0
        report = json.loads(out)
        assert report["strategy"] == "multilevel"
        assert (report["limit1"], report["limit2"]) == (8, 4)
        assert report["max_abs_delta"] < 1e-10
    # level-2 parts out of dependency order would run, in the wrong order,
    # and parts that share an id would share their trace rows
    text = parts_path.read_text()
    backwards, shared = json.loads(text), json.loads(text)
    backwards["sublevels"][0]["parts"].reverse()
    for part, sub in zip(shared["level1"]["parts"], shared["sublevels"]):
        part["id"] = sub["parent"] = 7
    bad_path = tmp_path / "bad.json"
    for doc, message in ((backwards, "not topologically ordered"),
                         (shared, "part id 7 repeats in 0..")):
        bad_path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "run", "qft_12", "--mode", "hierarchical",
            "--partition", str(bad_path),
        )
        assert code == 2
        assert message in err


def test_replayed_part_listed_backwards_is_rejected(tmp_path, capsys):
    """A part whose gates are listed out of program order would run them in
    that order; replay refuses it."""
    circuit = tmp_path / "chain.qasm"
    circuit.write_text(
        "OPENQASM 2.0;\nqreg q[3];\nh q[0];\nx q[0];\ncx q[0],q[1];\n"
        "h q[2];\n"
    )
    parts_path = tmp_path / "parts.json"
    code, _, _ = run_cli(
        capsys, "partition", str(circuit), "--strategy", "nat",
        "--limit", "2", "--out", str(parts_path),
    )
    assert code == 0
    doc = json.loads(parts_path.read_text())
    assert doc["parts"][0]["gate_indices"] == [0, 1, 2]
    doc["parts"][0]["gate_indices"].reverse()
    parts_path.write_text(json.dumps(doc))
    code, _, err = run_cli(
        capsys, "run", str(circuit), "--mode", "hierarchical",
        "--partition", str(parts_path), "--verify",
    )
    assert code == 2
    assert "not ascending" in err


def test_replayed_empty_part_is_an_input_error(tmp_path, capsys):
    """A partition document with a part that holds no gate exits 2,
    naming the part."""
    parts_path = tmp_path / "parts.json"
    code, _, _ = run_cli(capsys, "partition", "bv_6", "--limit", "4",
                         "--out", str(parts_path))
    assert code == 0
    doc = json.loads(parts_path.read_text())
    doc["parts"].insert(
        0, {"id": 9, "gate_indices": [], "qubits": [], "working_set": 0}
    )
    parts_path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "run", "bv_6", "--mode", "hierarchical",
                           "--partition", str(parts_path))
    assert code == 2
    assert "part 9 is empty" in err


def test_replayed_partition_with_float_qubits_is_an_input_error(
    tmp_path, capsys
):
    """A partition document whose qubits are JSON floats (``0.0 == 0``
    passes every structural check) exits 2 with a message, not a
    traceback from execution."""
    parts_path = tmp_path / "parts.json"
    code, _, _ = run_cli(capsys, "partition", "bell", "--out", str(parts_path))
    assert code == 0
    doc = json.loads(parts_path.read_text())
    doc["parts"][0]["qubits"] = [float(q) for q in doc["parts"][0]["qubits"]]
    parts_path.write_text(json.dumps(doc))
    code, _, err = run_cli(
        capsys, "run", "bell", "--mode", "hierarchical",
        "--partition", str(parts_path),
    )
    assert code == 2
    assert "is not an integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("strategy", [["x"], "x", None],
                         ids=["list", "string", "null"])
def test_replayed_partition_with_unknown_strategy_is_an_input_error(
    tmp_path, capsys, strategy
):
    """A document whose strategy, or whose level 1's strategy in a
    two-level document, names no partitioner exits 2 with a message, not a
    run that reports the strategy it was given."""
    flat, nested = tmp_path / "flat.json", tmp_path / "nested.json"
    assert run_cli(capsys, "partition", "bell", "--out", str(flat))[0] == 0
    assert run_cli(capsys, "partition", "bell", "--l2", "2",
                   "--out", str(nested))[0] == 0
    for path, mode in ((flat, "hierarchical"), (nested, "distributed")):
        doc = json.loads(path.read_text())
        doc.get("level1", doc)["strategy"] = strategy
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "run", "bell", "--mode", mode, "--partition", str(path),
        )
        assert code == 2
        assert "names no one-level partitioner" in err
        assert "Traceback" not in err
        assert out == ""


def test_replayed_partition_is_parsed_once(tmp_path, capsys, monkeypatch):
    """``hisim run --partition`` parses its document once, in the reader
    that tells a two-level document from a flat one."""
    path = tmp_path / "ml.json"
    assert run_cli(capsys, "partition", "bell", "--l2", "2",
                   "--out", str(path))[0] == 0
    parsed = []
    loads = json.loads

    def spy(text, *args, **kwargs):
        parsed.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", spy)
    code, _, _ = run_cli(
        capsys, "run", "bell", "--mode", "hierarchical", "--partition", str(path),
    )
    assert code == 0
    assert parsed == [path.read_text()]


def test_replayed_partition_must_match_circuit(tmp_path, capsys):
    parts_path = tmp_path / "parts.json"
    run_cli(capsys, "partition", "bv_6", "--out", str(parts_path))
    code, _, _ = run_cli(
        capsys,
        "run",
        "qaoa_8",
        "--mode",
        "hierarchical",
        "--partition",
        str(parts_path),
    )
    assert code == 2


# --- oracle-gap subcommand --------------------------------------------------


def test_oracle_gap_small_subset(tmp_path, capsys):
    out_path = tmp_path / "gap.json"
    code, out, _ = run_cli(
        capsys,
        "oracle-gap",
        "--circuits",
        "bv_6",
        "cat_state_6",
        "--limits",
        "3",
        "4",
        "--out",
        str(out_path),
    )
    assert code == 0
    rows = json.loads(out_path.read_text())
    assert len(rows) == 4
    for row in rows:
        assert row["gap"] == row["dagp"] - row["optimal"]
        assert row["gap"] >= 0
    assert "combinations optimal" in out


def test_oracle_gap_notes_the_rows_it_cannot_score(tmp_path, capsys):
    """``--truncate 0`` keeps every gate, so qft_12's 150 are past the
    exact search: each row keeps its dagp count and a note instead of an
    optimum, and no summary line is printed."""
    out_path = tmp_path / "gap.json"
    code, out, _ = run_cli(capsys, "oracle-gap", "--circuits", "qft_12",
                           "--truncate", "0", "--limits", "4",
                           "--out", str(out_path))
    assert code == 0
    note = "150 gates exceeds the exact-search guard of 20"
    [row] = json.loads(out_path.read_text())
    assert row["num_gates"] == 150
    assert row["dagp"] == 20
    assert (row["optimal"], row["gap"], row["note"]) == (None, None, note)
    assert f"qft_12           150     4 -- {note}" in out
    assert "combinations optimal" not in out


# --- README -----------------------------------------------------------------


def test_readme_quick_start_runs(tmp_path, capsys, monkeypatch):
    """Every ``hisim`` line of README's Quick start exits 0, in order, in
    one directory, so the partitions it writes are there to replay."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Quick start\n\n```sh\n(.*?)```", readme, re.S)
    lines = [ln for ln in block.group(1).splitlines() if ln.startswith("hisim ")]
    assert len(lines) >= 8
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code, _, err = run_cli(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)
