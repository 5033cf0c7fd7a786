"""End-to-end command-line runs: schemas, pinned values, exit codes, bytes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sievelab
from sievelab.cli import main


def _csv_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# --- tradeoff ----------------------------------------------------------------


def test_tradeoff_t5_sweep(tmp_path):
    out = tmp_path / "t5.csv"
    rc = main([
        "tradeoff", "--model", "t5", "--gamma-min", "1.0",
        "--gamma-max", "1.07122", "--steps", "100", "--out", str(out),
    ])
    assert rc == 0
    rows = _csv_rows(out)
    assert len(rows) == 100
    assert float(rows[-1]["time_rate"]) == pytest.approx(0.2571, abs=1e-3)
    assert float(rows[0]["time_rate"]) == pytest.approx(0.292481, abs=1e-4)


def test_tradeoff_lower_is_clamped_line(tmp_path):
    out = tmp_path / "lower.csv"
    assert main(["tradeoff", "--model", "lower", "--steps", "32", "--out", str(out)]) == 0
    rows = _csv_rows(out)
    anchor = 0.5 * math.log2(1.5)
    for row in rows:
        s = float(row["s_rate"])
        assert float(row["time_rate"]) == pytest.approx(max(0.0, anchor - 2.0 * s), abs=1e-9)
    assert float(rows[-1]["time_rate"]) == 0.0


def test_tradeoff_t2_single_step(tmp_path):
    out = tmp_path / "t2.csv"
    assert main(["tradeoff", "--model", "t2", "--steps", "1", "--out", str(out)]) == 0
    (row,) = _csv_rows(out)
    assert float(row["gamma"]) == 1.0
    assert float(row["time_rate"]) == pytest.approx(0.29248, abs=1e-4)


def test_tradeoff_symkey_rows(tmp_path):
    out = tmp_path / "sk.csv"
    assert main([
        "tradeoff", "--model", "symkey-collision", "--n", "16",
        "--steps", "3", "--trials", "6", "--out", str(out),
    ]) == 0
    rows = _csv_rows(out)
    assert len(rows) == 3
    for row in rows:
        gap = float(row["T_bits_emulated"]) - float(row["T_bits_formula"])
        assert abs(gap) <= 1.0
        assert float(row["mem_bits"]) == pytest.approx(float(row["l"]))


def test_tradeoff_usage_errors(capsys):
    assert main(["tradeoff", "--model", "bogus"]) == 2
    assert "usage" in capsys.readouterr().err
    assert main(["tradeoff"]) == 2
    assert "usage" in capsys.readouterr().err
    assert main(["tradeoff", "--model", "t2", "--steps", "0"]) == 2
    assert main(["tradeoff", "--model", "t2", "--gamma-min", "0.5"]) == 2


# --- output contracts ----------------------------------------------------------


def test_byte_identical_reruns(tmp_path, monkeypatch):
    args = ["tradeoff", "--model", "noqram", "--steps", "10"]
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    monkeypatch.setenv("SIEVELAB_THREADS", "4")
    assert main(args + ["--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_csv_shape(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["tradeoff", "--model", "bkz", "--steps", "5", "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    rows = _csv_rows(out)
    assert len(rows) == 5
    assert float(rows[0]["k"]) == 70.0
    assert rows[0]["seed"] == str(0x5EED)  # default seed echoed


def test_json_shape(capsys):
    assert main(["tradeoff", "--model", "t3", "--steps", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"config", "results"}
    assert doc["config"]["seed"] == 0x5EED
    assert doc["config"]["model"] == "t3"
    assert len(doc["results"]) == 3


# --- sieve ---------------------------------------------------------------------


def test_sieve_report(tmp_path):
    out = tmp_path / "run.json"
    rc = main(["sieve", "--d", "12", "--n", "200", "--seed", "1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    (rep,) = doc["results"]
    assert rep["recall"] >= 0.85
    assert rep["pairs_found"] <= rep["pairs_brute"]
    assert 0.5 <= rep["ratio_inner_products"] <= 2.0
    assert rep["t"] == math.ceil(3.0 / rep["wedge_estimate"])


def test_sieve_methods_agree(capsys):
    counts = []
    for method in ("query", "fas"):
        rc = main([
            "sieve", "--d", "12", "--n", "150", "--seed", "5",
            "--method", method, "--t", "400",
        ])
        assert rc == 0
        (rep,) = json.loads(capsys.readouterr().out)["results"]
        counts.append(rep["pairs_found"])
    assert counts[0] == counts[1] > 0


def test_sieve_t_defaults_to_the_wedge_quadrature(capsys):
    from sievelab.geometry import wedge_volume_quad

    args = ["sieve", "--d", "12", "--n", "100", "--seed", "2", "--alpha", "0.45",
            "--beta", "0.55", "--theta", "1.1"]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    (rep,) = doc["results"]
    w = wedge_volume_quad(12, 0.45, 0.55, 1.1)
    assert rep["wedge_estimate"] == w
    assert rep["t"] == math.ceil(3.0 / w)
    assert doc["config"]["wedge_samples"] is None


def test_sieve_wedge_samples_opts_into_monte_carlo(capsys):
    from sievelab.geometry import wedge_volume_mc
    from sievelab.rng import derive_seed

    assert main(["sieve", "--d", "12", "--n", "100", "--seed", "2",
                 "--wedge-samples", "5000"]) == 0
    (rep,) = json.loads(capsys.readouterr().out)["results"]
    cos = math.cos(math.pi / 3)  # the default alpha and beta
    est = wedge_volume_mc(12, cos, cos, math.pi / 3, 5000, derive_seed(2, 2))
    assert rep["wedge_estimate"] == est.estimate
    assert rep["t"] == math.ceil(3.0 / est.estimate)


def test_sieve_input_errors_exit_2(capsys):
    assert main(["sieve", "--d", "24", "--n", "-3"]) == 2
    assert "--n" in capsys.readouterr().err
    assert main(["sieve", "--d", "1", "--n", "10"]) == 2
    assert main(["sieve", "--d", "12", "--n", "10", "--theta", "0"]) == 2
    assert main(["sieve", "--d", "12", "--n", "10", "--wedge-samples", "0"]) == 2
    capsys.readouterr()


def test_sieve_empty_and_guards(capsys):
    assert main(["sieve", "--d", "24", "--n", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == []
    assert main(["sieve", "--d", "100", "--n", "10"]) == 3
    assert main(["sieve", "--d", "24", "--n", "200000"]) == 3
    capsys.readouterr()


# --- thin wrappers ---------------------------------------------------------------


def test_qsearch_blocked_acceptance_row(capsys):
    rc = main([
        "qsearch", "--experiment", "blocked", "--M", "256", "--S", "16",
        "--trials", "300", "--seed", "7",
    ])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    row = dict(zip(out[0].split(","), out[1].split(",")))
    assert float(row["success_rate"]) >= 0.99
    assert row["seed"] == "7"


def test_qsearch_pair_and_minfind(capsys):
    rc = main([
        "qsearch", "--experiment", "pair", "--M1", "64", "--M2", "64",
        "--K", "16", "--S", "32,8", "--trials", "5",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3  # one row per S
    rc = main(["qsearch", "--experiment", "minfind", "--size", "64", "--trials", "40"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    row = dict(zip(out[0].split(","), out[1].split(",")))
    assert float(row["success_rate"]) >= 0.5


def test_qsearch_bad_list(capsys):
    assert main(["qsearch", "--experiment", "blocked", "--S", "1,x"]) == 2
    capsys.readouterr()


BAD_INPUTS = [
    "qsearch --experiment blocked --trials 2 --p 0",  # hung: no instance gets a mark
    "qsearch --experiment blocked --trials 2 --p -0.5",
    "qsearch --experiment blocked --trials 2 --p nan",
    "qsearch --experiment blocked --trials 2 --p 1.5",
    "qsearch --experiment blocked --trials 2 --M 0",
    "qsearch --experiment blocked --trials 2 --S ,,",
    "qsearch --experiment pair --trials 2 --S ,,",
    "qsearch --experiment minfind --trials 2 --size -1",
    "circuit --buckets 1,2 --d 0",
    "circuit --buckets 1,2 --d -3",
]


@pytest.mark.parametrize("command", BAD_INPUTS)
def test_invalid_input_exits_2(command):
    # a subprocess with a timeout, so an input that hangs fails the test
    # instead of stalling the suite
    src = Path(sievelab.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from sievelab.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *command.split()],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(b"error: ")


def test_import_loads_cli():
    # code that looks sievelab.cli up in sys.modules after a plain
    # ``import sievelab`` (bench/tracer.py does) finds it there
    src = Path(sievelab.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, sievelab; sys.exit('sievelab.cli' not in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_circuit_cost_row(capsys):
    assert main(["circuit", "--buckets", "3,5,2,0"]) == 0
    out = capsys.readouterr().out.splitlines()
    row = dict(zip(out[0].split(","), out[1].split(",")))
    assert (row["depth"], row["size"], row["width"]) == ("6", "10", "4")
    assert row["buckets"] == "3;5;2;0"
    assert main(["circuit", "--buckets", ""]) == 2
    capsys.readouterr()


def test_geom_cap_exact_arc(capsys):
    assert main(["geom", "--cap", "--d", "2", "--alpha", "0.5", "--exact"]) == 0
    out = capsys.readouterr().out.splitlines()
    row = dict(zip(out[0].split(","), out[1].split(",")))
    assert row["value"] == "0.333333333333"
    assert row["stderr"] == ""


def test_geom_wedge_mc_and_exact_rejection(capsys):
    rc = main([
        "geom", "--wedge", "--d", "8", "--alpha", "0.4", "--beta", "0.5",
        "--samples", "20000",
    ])
    assert rc == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    value, stderr = float(row[6]), float(row[7])
    assert value > 0 and stderr > 0
    assert main(["geom", "--wedge", "--d", "8", "--alpha", "0.4", "--exact"]) == 2
    capsys.readouterr()


def test_symkey_wrapper_rows(capsys):
    assert main(["symkey", "--kind", "collision", "--n", "16", "--trials", "8"]) == 0
    out = capsys.readouterr().out.splitlines()
    row = dict(zip(out[0].split(","), out[1].split(",")))
    assert abs(float(row["T_bits_emulated"]) - float(row["T_bits_formula"])) <= 1.0
    assert row["t"] == ""
    assert main([
        "symkey", "--kind", "mtps", "--n", "21", "--t", "6", "--gamma", "3",
        "--trials", "8",
    ]) == 0
    out = capsys.readouterr().out.splitlines()
    row = dict(zip(out[0].split(","), out[1].split(",")))
    assert float(row["t"]) == 6.0
    assert main(["symkey", "--kind", "collision", "--n", "30"]) == 3  # guard
    capsys.readouterr()
