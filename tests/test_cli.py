import csv
import hashlib
import json

import qbp
from qbp.bp import HEURISTICS
from qbp.cli import _HEURISTIC_FLAGS, _decode_config, build_parser, main

from conftest import tanner_rows


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_and_inspect(tmp_path, capsys):
    out = tmp_path / "b.code"
    code, stdout, _ = run_cli(capsys, "generate", "--bicycle", "20,10,6", "--seed", "4", "--out", str(out))
    assert code == 0 and "wrote" in stdout
    assert out.exists()
    assert (tmp_path / "b.code.h").exists()
    loaded = qbp.StabilizerCode.load(out)
    assert (loaded.n, loaded.m) == (20, 10)
    h_lines = [l for l in (tmp_path / "b.code.h").read_text().splitlines() if not l.startswith("#")]
    assert len(h_lines) == 5
    for c, line in enumerate(h_lines):
        assert [int(x) for x in line.split()] == [q for q, _ in tanner_rows(loaded)[c]]

    code, stdout, _ = run_cli(capsys, "inspect", "--code", str(out))
    assert code == 0
    fields = dict(line.split(" ", 1) for line in stdout.splitlines() if " " in line)
    assert fields["n"] == "20" and fields["m"] == "10" and fields["k"] == "10"
    assert fields["rate"] == "0.5"


def test_generate_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.code", tmp_path / "b.code"
    assert run_cli(capsys, "generate", "--bicycle", "28,12,6", "--seed", "9", "--out", str(a))[0] == 0
    assert run_cli(capsys, "generate", "--bicycle", "28,12,6", "--seed", "9", "--out", str(b))[0] == 0
    assert a.read_text() == b.read_text()


def test_generate_usage_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "generate", "--bicycle", "7,4,2", "--out", str(tmp_path / "x"))
    assert code == 1 and err.startswith("usage: qbp generate")
    code, _, err = run_cli(capsys, "generate", "--bicycle", "20,10", "--out", str(tmp_path / "x"))
    assert code == 1 and err.startswith("usage: qbp generate")


def test_inspect_builtin_and_dot(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    code, stdout, _ = run_cli(capsys, "inspect", "--builtin", "five_qubit", "--dot", str(dot))
    assert code == 0
    fields = dict(line.split(" ", 1) for line in stdout.splitlines() if " " in line)
    assert fields["n"] == "5" and fields["m"] == "4" and fields["k"] == "1"
    assert int(fields["four_loops"]) >= 1
    assert dot.read_text().count("--") == 16

    code, stdout, _ = run_cli(capsys, "inspect", "--builtin", "two_qubit_toy")
    fields = dict(line.split(" ", 1) for line in stdout.splitlines() if " " in line)
    assert fields["k"] == "0" and fields["four_loops"] == "1"


def test_inspect_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_text("2 2\nXI\nZI\n")
    code, _, err = run_cli(capsys, "inspect", "--code", str(bad))
    assert code == 2 and "error" in err


def test_decode_inject_detected(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, stdout, _ = run_cli(
        capsys, "decode", "--builtin", "two_qubit_toy", "--inject", "IX", "--trace", str(trace),
    )
    assert code == 0
    fields = dict(line.split(" ", 1) for line in stdout.splitlines() if " " in line)
    assert fields["syndrome"] == "+-"
    assert fields["correction"] == "II"
    assert fields["converged"] == "false"
    assert fields["classification"] == "detected"
    rows = [r for r in csv.DictReader(l for l in trace.read_text().splitlines() if not l.startswith("#"))]
    assert len(rows) == 2 * 90
    for it in (1, 45, 90):
        pair = [r for r in rows if r["iteration"] == str(it)]
        assert pair[0]["b_I"] == pair[1]["b_I"]
        bq = [float(pair[0][k]) for k in ("b_I", "b_X", "b_Y", "b_Z")]
        assert bq[0] == max(bq)


def test_decode_freeze_success(capsys):
    code, stdout, _ = run_cli(
        capsys, "decode", "--builtin", "two_qubit_toy", "--inject", "IX",
        "--heuristic", "freeze", "--seed", "3",
    )
    assert code == 0
    fields = dict(line.split(" ", 1) for line in stdout.splitlines() if " " in line)
    assert fields["converged"] == "true"
    assert fields["classification"] == "success"
    assert fields["correction"] in {"XI", "IX", "YZ", "ZY"}
    assert any(line.startswith("event kind=freeze") for line in stdout.splitlines())


def test_decode_trivial_syndrome(capsys):
    code, stdout, _ = run_cli(capsys, "decode", "--builtin", "five_qubit", "--syndrome", "++++")
    fields = dict(line.split(" ", 1) for line in stdout.splitlines() if " " in line)
    assert code == 0 and fields["correction"] == "IIIII" and fields["iterations"] == "1"


def test_non_finite_delta_is_usage_error(capsys):
    decode = ["decode", "--builtin", "two_qubit_toy", "--syndrome", "+-", "--heuristic", "perturb", "--t-pert", "2"]
    simulate = ["simulate", "--builtin", "two_qubit_toy", "--epsilon", "0.1", "--trials", "5",
                "--heuristic", "perturb"]
    for base, bad in ((decode, "inf"), (simulate, "nan")):
        code, stdout, err = run_cli(capsys, *base, "--delta", bad)
        assert code == 1 and stdout == ""
        assert err.startswith(f"usage: qbp {base[0]} ") and "delta" in err and "Traceback" not in err


def test_negative_seed_is_usage_error(tmp_path, capsys):
    # numpy rejected these at decode or sweep time, as data errors (exit 2)
    runs = [["decode", "--builtin", "two_qubit_toy", "--syndrome", "+-", "--heuristic", "freeze"],
            ["simulate", "--builtin", "two_qubit_toy", "--epsilon", "0.1", "--trials", "5"],
            ["simulate", "--bicycle", "20,10,6", "--epsilon", "0.1", "--trials", "5"],
            ["generate", "--bicycle", "20,10,6", "--out", str(tmp_path / "x")]]
    for base in runs:
        code, stdout, err = run_cli(capsys, *base, "--seed", "-1")
        assert code == 1 and stdout == "", base
        assert err.startswith(f"usage: qbp {base[0]} ") and "seed" in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_decode_syndrome_length_mismatch(capsys):
    code, _, err = run_cli(capsys, "decode", "--builtin", "five_qubit", "--syndrome", "+-")
    assert code == 2


def test_simulate_csv(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--builtin", "five_qubit", "--epsilon", "0.0", "--epsilon", "0.05",
        "--trials", "40", "--seed", "1", "--out", str(out),
    )
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0].startswith("epsilon,")
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[2] == "0"  # zero failures at eps 0


def test_simulate_max_failures(capsys):
    args = ["simulate", "--builtin", "two_qubit_toy", "--epsilon", "0.3", "--trials", "20"]
    code, _, err = run_cli(capsys, *args, "--max-failures", "-3")
    assert code == 1 and "--max-failures" in err and err.startswith("usage: qbp simulate ")
    code, stdout, _ = run_cli(capsys, *args, "--max-failures", "0")
    assert code == 0
    row = [l for l in stdout.splitlines() if not l.startswith("#")][1].split(",")
    assert row[1] == "20"  # 0 disables the early stop: every trial runs


def test_simulate_jobs_below_one(capsys):
    args = ["simulate", "--builtin", "two_qubit_toy", "--epsilon", "0.3", "--trials", "20"]
    code, _, err = run_cli(capsys, *args, "--jobs", "-2")
    assert code == 1 and "--jobs" in err and err.startswith("usage: qbp simulate ")


def test_simulate_epsilon_out_of_range(capsys):
    base = ["simulate", "--builtin", "two_qubit_toy", "--trials", "20"]
    code, stdout, err = run_cli(capsys, *base, "--epsilon", "0.1", "--epsilon", "1.5")
    assert code == 1 and "--epsilon" in err and stdout == "" and err.startswith("usage: qbp simulate ")
    code, stdout, err = run_cli(capsys, *base, "--epsilon", "-0.1")
    assert code == 1 and "--epsilon" in err
    # the sweep's top point is checked too
    code, stdout, err = run_cli(capsys, *base, "--epsilon-sweep", "0.5:1.5:3")
    assert code == 1 and "--epsilon-sweep" in err and stdout == ""
    assert run_cli(capsys, *base, "--epsilon", "0.0", "--epsilon", "1.0")[0] == 0


def test_trials_below_one_rejected(capsys):
    for base in (["simulate", "--builtin", "two_qubit_toy", "--epsilon", "0.3"],
                 ["oracle-check", "--builtin", "five_qubit", "--epsilon", "0.1"]):
        for bad in ("0", "-3"):
            code, stdout, err = run_cli(capsys, *base, "--trials", bad)
            assert code == 1 and "--trials" in err and stdout == "" and err.startswith(f"usage: qbp {base[0]} ")
        assert run_cli(capsys, *base, "--trials", "1")[0] == 0


def test_decode_and_oracle_check_epsilon_out_of_range(capsys):
    for base in (["decode", "--builtin", "two_qubit_toy", "--syndrome", "+-"],
                 ["oracle-check", "--builtin", "two_qubit_toy", "--trials", "2"]):
        for bad in ("1.5", "-0.1", "nan"):
            code, stdout, err = run_cli(capsys, *base, "--epsilon", bad)
            assert code == 1 and "--epsilon" in err and stdout == "" and err.startswith(f"usage: qbp {base[0]} ")
        assert run_cli(capsys, *base, "--epsilon", "1.0")[0] == 0


def test_heuristic_flags_match_heuristics():
    # every --heuristic choice names one member of HEURISTICS, and every member has a choice
    assert sorted(_HEURISTIC_FLAGS) == ["collision-freeze", "collision-perturb", "freeze", "none", "perturb"]
    assert sorted(_HEURISTIC_FLAGS.values()) == sorted(HEURISTICS)
    parser = build_parser()
    for flag, heuristic in _HEURISTIC_FLAGS.items():
        args = parser.parse_args(["decode", "--builtin", "two_qubit_toy", "--syndrome", "++", "--heuristic", flag])
        assert _decode_config(parser, args).heuristic == heuristic


def test_simulate_rerun_identical(tmp_path, capsys):
    args = [
        "simulate", "--bicycle", "20,10,6", "--seed", "5", "--epsilon", "0.08",
        "--trials", "60", "--jobs", "2",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, *args, "--out", str(a), "--json", str(ja))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b), "--json", str(jb))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(ja.read_text()) == json.loads(jb.read_text())


def test_simulate_sweep_parsing(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--builtin", "two_qubit_toy", "--epsilon-sweep", "0.01:0.04:3",
        "--trials", "10", "--seed", "0", "--out", str(out),
    )
    assert code == 0
    rows = [l.split(",")[0] for l in out.read_text().splitlines()[3:]]
    eps = [float(x) for x in rows]
    assert len(eps) == 3 and abs(eps[0] - 0.01) < 1e-12 and abs(eps[-1] - 0.04) < 1e-12
    assert abs(eps[1] - (0.01 * 0.04) ** 0.5) < 1e-9  # log-spaced midpoint

    assert run_cli(capsys, "simulate", "--builtin", "two_qubit_toy", "--epsilon-sweep", "bad",
                   "--trials", "5")[0] == 1
    assert run_cli(capsys, "simulate", "--builtin", "two_qubit_toy", "--trials", "5")[0] == 1
    # both is a usage error, where --epsilon used to be dropped for the sweep with exit 0
    code, stdout, err = run_cli(capsys, "simulate", "--builtin", "two_qubit_toy", "--epsilon", "0.3",
                                "--epsilon-sweep", "0.01:0.02:2", "--trials", "5", "--out", str(out))
    assert code == 1 and stdout == "" and "not allowed with argument" in err
    assert err.startswith("usage: qbp simulate ")


def test_oracle_check_single_check_code(tmp_path, capsys):
    path = tmp_path / "c.code"
    qbp.StabilizerCode(["ZZZZ"]).save(path)
    out = tmp_path / "oc.csv"
    code, stdout, _ = run_cli(
        capsys, "oracle-check", "--code", str(path), "--epsilon", "0.1", "--trials", "10",
        "--seed", "2", "--out", str(out),
    )
    assert code == 0
    worst = float(stdout.splitlines()[-1].split()[-1])
    assert worst <= 1e-10
    # every belief, marginal and difference is a plain float literal
    rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
    assert len(rows) == 10 * 4 * 4
    for row in rows:
        belief, exact, diff = map(float, row[3:])
        assert diff == abs(belief - exact) <= worst
    # the header and rows, byte for byte
    body = "\n".join(out.read_text().splitlines()[2:])
    assert hashlib.sha256(body.encode()).hexdigest() == "04b53602c0675e2c0411e8b617b8ec276d1ce8b7815370f548f902d006614eca"


def test_oracle_check_size_guard(tmp_path, capsys):
    path = tmp_path / "wide.code"
    qbp.StabilizerCode(["Z" * 13]).save(path)
    code, _, err = run_cli(
        capsys, "oracle-check", "--code", str(path),
        "--epsilon", "0.05", "--trials", "2",
    )
    assert code == 2 and "12" in err


def test_usage_exit_codes(capsys):
    assert run_cli(capsys)[0] == 1
    assert run_cli(capsys, "decode", "--builtin", "two_qubit_toy")[0] == 1  # no syndrome/inject
    assert run_cli(capsys, "inspect")[0] == 1  # no code source
    assert run_cli(capsys, "inspect", "--builtin", "unknown_code")[0] == 1


def test_version(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
