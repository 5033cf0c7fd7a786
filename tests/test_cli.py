"""End-to-end command-line runs: schemas, pinned values, exit codes, bytes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sievelab
from sievelab import exponents, sieve
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


def test_tradeoff_symkey_mtps_default_sweep_reaches_n_over_3(tmp_path):
    # the sweep ends at gamma = n/3, where 3n/7 - 2 gamma/7 equals gamma in
    # the reals but can round an ulp below it; the saturated t then stops
    # at gamma, with no prefix left
    out = tmp_path / "mtps.csv"
    for quarters in range(1, 89):
        n = quarters / 4
        assert main(["tradeoff", "--model", "symkey-mtps", "--n", str(n),
                     "--out", str(out)]) == 0, n
        last = _csv_rows(out)[-1]
        assert float(last["gamma"]) == pytest.approx(n / 3.0)
        assert float(last["r"]) == pytest.approx(0.0, abs=1e-12)


def test_tradeoff_usage_errors(capsys):
    assert main(["tradeoff", "--model", "bogus"]) == 2
    assert "usage" in capsys.readouterr().err
    assert main(["tradeoff"]) == 2
    assert "usage" in capsys.readouterr().err
    assert main(["tradeoff", "--model", "t2", "--steps", "0"]) == 2
    assert main(["tradeoff", "--model", "t2", "--gamma-min", "0.5"]) == 2
    assert "--gamma-min 0.5" in capsys.readouterr().err


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


def test_sieve_t_does_not_depend_on_the_last_ulp_of_the_wedge(capsys):
    # each cap misses about 3e-26 of the sphere, so W is 1 to double
    # precision; the quadrature gives 0.9999999999999999, where ceil(3 / W)
    # would be 4
    c = "-0.9622884380027782"
    assert main(["sieve", "--d", "44", "--n", "10", "--alpha", c, "--beta", c,
                 "--theta", "2.86608947062977"]) == 0
    (rep,) = json.loads(capsys.readouterr().out)["results"]
    assert rep["wedge_estimate"] <= 1.0
    assert rep["t"] == 3


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
    for t in ((), ("--t", "5")):  # the wedge needs theta < pi, so the flag does too
        assert main(["sieve", "--d", "12", "--n", "10", "--theta", str(math.pi), *t]) == 2
        assert capsys.readouterr().err == f"error: --theta must lie in (0, pi), got {math.pi}\n"


@pytest.mark.parametrize("method", ["query", "fas"])
def test_sieve_reports_beta_before_alpha(capsys, method):
    # the threshold check names the flag at fault; beta is checked first
    argv = ["sieve", "--t", "50", "--n", "20", "--d", "8", "--method", method]
    for flags, name, shown in ((["--beta", "1.5"], "beta", "1.5"),
                               (["--alpha", "1.5"], "alpha", "1.5"),
                               (["--alpha", "1.5", "--beta", "-1.5"], "beta", "-1.5"),
                               (["--alpha", "-2", "--beta", "1.5"], "beta", "1.5")):
        assert main(argv + flags) == 2
        assert capsys.readouterr().err == f"error: {name} must lie in [-1, 1), got {shown}\n"


def test_sieve_names_theta_when_a_threshold_defaults_to_its_cosine(capsys):
    # the message named beta, which the user never set
    argv = ["sieve", "--d", "3", "--n", "5", "--theta", "1e-9"]
    for flags, name in (([], "beta"), (["--beta", "0.5"], "alpha")):
        assert main(argv + flags) == 2
        assert capsys.readouterr().err == (
            f"error: {name} defaults to cos(--theta) = 1.0, outside [-1, 1): "
            "--theta 1e-09 is too small\n")
    assert main(argv + ["--alpha", "0.4", "--beta", "0.5"]) == 0
    capsys.readouterr()


def test_sieve_with_no_forecast_reports_a_null_ratio(capsys):
    # both caps underflow to 0.0 at d = 64, so expected_inner_products is 0;
    # the ratio was a division by zero (exit 4)
    argv = ["sieve", "--d", "64", "--n", "10", "--t", "5",
            "--alpha", "0.99999999999", "--beta", "0.99999999999"]
    assert main(argv) == 0
    (rep,) = json.loads(capsys.readouterr().out)["results"]
    assert rep["expected_inner_products"] == 0.0 and rep["ratio_inner_products"] is None
    assert main(argv + ["--format", "csv"]) == 0
    header, values = capsys.readouterr().out.splitlines()
    row = dict(zip(header.split(","), values.split(",")))
    assert row["ratio_inner_products"] == "" and row["wedge_estimate"] == ""


def test_sieve_empty_and_guards(capsys):
    assert main(["sieve", "--d", "24", "--n", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == []
    # the empty CSV is the header alone, SieveRun's fields, the same one a run
    # with rows prints; the library call has no report
    assert main(["sieve", "--d", "24", "--n", "0", "--format", "csv"]) == 0
    empty = capsys.readouterr().out
    assert empty == ",".join(f.name for f in dataclasses.fields(sieve.SieveRun)) + "\n"
    assert sieve.run(24, 0, 1, "query", math.pi / 3, None, None, None, None) is None
    assert main(["sieve", "--d", "12", "--n", "20", "--t", "40", "--format", "csv"]) == 0
    assert empty.count("\n") == 1
    assert capsys.readouterr().out.startswith(empty)
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


GAMMA_MAX_BELOW_1 = [
    "tradeoff --model t2 --gamma-max 0 --steps 2",
    "tradeoff --model t3 --gamma-max -1 --steps 3",
    "tradeoff --model t2 --steps 1 --gamma-max 0",
]

BAD_INPUTS = [
    "qsearch --experiment blocked --trials 2 --p 0",  # hung: no instance gets a mark
    "qsearch --experiment blocked --trials 2 --p -0.5",
    "qsearch --experiment blocked --trials 2 --p nan",
    "qsearch --experiment blocked --trials 2 --p 1.5",
    "qsearch --experiment blocked --trials 2 --M 0",
    "qsearch --experiment blocked --trials 2 --S ,,",
    "qsearch --experiment pair --trials 2 --S ,,",
    # exit 0: an empty list item was dropped
    "circuit --buckets 1,,2",
    "circuit --buckets 1,2,",
    "qsearch --experiment blocked --M 16 --S 1,,4 --trials 2",
    "qsearch --experiment minfind --trials 2 --size -1",
    "sieve --d 24 --n 10 --theta inf",  # exit 4: math domain error in the cosine
    "sieve --d 24 --n 10 --theta=-inf",
    "circuit --buckets 1,2 --d 0",
    "circuit --buckets 1,2 --d -3",
    "geom --cap --d 0 --alpha 0.3 --mc",  # exit 4: index 0 is out of bounds
    "geom --cap --d -1 --alpha 0.3 --mc",
    "symkey --kind collision --l 3 --r nan",  # exit 4: NaN passed the range checks
    "symkey --kind collision --n nan --l 1 --r 1",
    "symkey --kind mtps --r nan",
    # hung: a mark is too rare for the rejection loop to find one
    "qsearch --experiment blocked --M 16 --S 1,4 --trials 2 --p 1e-300",
    "qsearch --experiment blocked --M 1 --S 1 --p 1e-10",
    "qsearch --experiment blocked --M 1000 --S 4 --p 1e-9",
    # exit 4: padding one (1, S) block ran out of memory; the window exceeds the list
    "qsearch --experiment blocked --M 256 --S 100000000000 --trials 1",
    # exit 4: an unwritable --out raised Errno 2 and Errno 21 past the handler
    "circuit --buckets 3,2 --out /nonexistent_sievelab_dir/x.csv",
    "circuit --buckets 3,2 --out .",
    # exit 3: a threshold of 1 emptied the wedge before the range check
    "sieve --d 24 --n 10 --alpha 1.0",
    "sieve --d 24 --n 10 --beta 1.0",
    # exit 0: an empty list returned before the other flags were checked
    "sieve --d 24 --n 0 --theta 5",
    "sieve --d 24 --n 0 --alpha 2",
    "sieve --d 24 --n 0 --t 0",
    "sieve --d 24 --n 0 --wedge-samples 0",
    "sieve --d 1 --n 0",
    # the message named cap_volume_exact or wedge_volume_quad, not --d
    "sieve --d 1 --n 10 --t 2",
    "sieve --d -3 --n 10",
    # theta = pi: the wedge refused it under its own name, and with --t the
    # run exited 0
    "sieve --d 24 --n 10 --theta 3.141592653589793",
    "sieve --d 24 --n 10 --t 5 --theta 3.141592653589793",
    # a tiny theta rounds the default thresholds cos(theta) to 1
    "sieve --d 3 --n 5 --theta 1e-9",
    # exit 4 (math domain error), and exit 0 for one step, which never reached --gamma-max
    *GAMMA_MAX_BELOW_1,
    # exit 0: the seed was read mod 2**64, so these ran seeds 2**64 - 1 and
    # 99999999999999999999999 mod 2**64 while echoing the seed as given
    "qsearch --experiment minfind --size 5 --trials 2 --seed -1",
    "qsearch --experiment minfind --size 5 --trials 2 --seed 99999999999999999999999",
]


def _run_cli(command):
    # a subprocess with a timeout, so an input that hangs fails the test
    # instead of stalling the suite
    src = Path(sievelab.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-c", "import sys; from sievelab.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *command.split()],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, timeout=60,
    )


@pytest.mark.parametrize("command", BAD_INPUTS)
def test_invalid_input_exits_2(command):
    proc = _run_cli(command)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(b"error: ")


def test_seed_range_ends_at_2_to_the_64(capsys):
    args = ["qsearch", "--experiment", "minfind", "--size", "5", "--trials", "2", "--seed"]
    assert main([*args, str(2**64 - 1)]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(f",{2**64 - 1}")
    assert main([*args, str(2**64)]) == 2
    assert "--seed must lie in [0, 2**64)" in capsys.readouterr().err


@pytest.mark.parametrize("command", GAMMA_MAX_BELOW_1 + ["tradeoff --model t5 --gamma-max 0.5"])
def test_tradeoff_names_a_gamma_max_below_1(capsys, command):
    # --gamma-max 0.5 exited 2 naming gamma_rate, which the user never set
    assert main(command.split()) == 2
    err = capsys.readouterr().err
    assert "--gamma-max" in err and "gamma_rate" not in err


def test_qsearch_names_a_window_past_M(capsys):
    # the message named blocked_search and its M, not the flags the user passed
    for flag, bad in (("1,300", 300), ("0", 0)):
        assert main(["qsearch", "--experiment", "blocked", "--M", "256", "--S", flag]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --S windows must lie in 1 <= S <= --M = 256, got S={bad}\n"


def test_sieve_small_d_names_the_flag(capsys):
    # the geometry call that came first used to name itself instead
    for d, t in (("1", ()), ("1", ("--t", "2")), ("-3", ()), ("-3", ("--t", "2"))):
        for n in ("0", "10"):
            assert main(["sieve", "--d", d, "--n", n, *t]) == 2
            assert capsys.readouterr().err == f"error: --d must be >= 2, got {d}\n"


def test_empty_wedge_exits_3():
    # thresholds inside [-1, 1) whose wedge really is empty
    proc = _run_cli("sieve --d 24 --n 10 --alpha 0.9999999 --beta 0.9999999")
    assert proc.returncode == 3, proc.stderr
    assert b"wedge estimate vanished" in proc.stderr


# exit 4: lists this long ran out of memory; the size guard refuses them
OVERSIZED_INPUTS = [
    "qsearch --experiment blocked --M 100000000000",
    "qsearch --experiment minfind --size 100000000000",
    # the pair search ran past a 10 s timeout: 10^11 block pairs, then a 1.7e8 budget
    "qsearch --experiment pair --M1 100000000000 --M2 1 --K 1 --S 1 --trials 1",
    "qsearch --experiment pair --M1 100000 --M2 100000 --K 1000000 --S 100000 --trials 1",
    # these exited 4, out of memory: a 10^14-point curve and 2^16 x 10^11 normals
    "tradeoff --model lower --steps 100000000000000",
    "geom --cap --d 100000000000 --alpha 0.5 --mc --samples 10",
    # these ran past a timeout: 1.5M sample shards, or 10^9 trials
    "geom --cap --d 24 --alpha 0.5 --mc --samples 100000000000",
    "geom --wedge --d 24 --alpha 0.5 --mc --samples 100000000000",
    "sieve --d 12 --n 10 --wedge-samples 100000000000",
    "qsearch --experiment pair --M1 64 --M2 64 --K 16 --S 8 --trials 1000000000",
    "qsearch --experiment blocked --M 256 --S 4 --trials 1000000000",
    "qsearch --experiment minfind --trials 1000000000",
    # one or two units a trial passed the run guard, yet each would run for
    # 30 to 90 minutes; a trial is now charged at least QSEARCH_TRIAL_FLOOR
    "qsearch --experiment minfind --size 1 --trials 100000000",
    "qsearch --experiment blocked --M 1 --S 1 --trials 100000000",
    "qsearch --experiment pair --M1 1 --M2 1 --K 0 --S 1 --trials 50000000",
    # each would hold a 10^9-entry list of trial counts
    "symkey --kind collision --trials 1000000000",
    "tradeoff --model symkey-collision --steps 2 --trials 1000000000",
    # under a 3 GB address-space cap these exited 4, out of memory: 3.3e9
    # close pairs at d = 2, and two 2e9-entry masks
    "sieve --d 2 --n 100000 --t 5 --seed 1",
    "sieve --d 4 --n 20000 --t 100000 --alpha -1 --beta -1 --seed 1",
    # exit 0: an empty list returned before the family guard, and before
    # the Monte-Carlo sample guard
    "sieve --d 24 --n 0 --t 2000000",
    "sieve --d 24 --n 0 --wedge-samples 100000000000",
    # the list-size and dimension guards
    "sieve --d 24 --n 100001",
    "sieve --d 65 --n 10 --t 5",
]


@pytest.mark.parametrize("command", OVERSIZED_INPUTS)
def test_oversized_input_exits_3(command):
    proc = _run_cli(command)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(b"error: ") and b"guard" in proc.stderr


# NaN or inf sweep bounds printed nan/inf rows with exit 0
BAD_SWEEP_BOUNDS = [
    "tradeoff --model t2 --steps 3 --gamma-min nan",
    "tradeoff --model t2 --steps 3 --gamma-min inf",
    "tradeoff --model t3 --steps 2 --gamma-max inf",
    "tradeoff --model t5 --steps 2 --gamma-max nan",
    "tradeoff --model lower --steps 3 --s-max nan",
    "tradeoff --model lower --steps 2 --s-min inf",
    "tradeoff --model bkz --steps 3 --k-min nan",
    "tradeoff --model bkz --steps 2 --k-max inf",
]


@pytest.mark.parametrize("command", BAD_SWEEP_BOUNDS)
def test_non_finite_sweep_bound_exits_2(command):
    test_invalid_input_exits_2(command)


def test_python_m_sievelab_runs_the_cli(capsys):
    args = ["tradeoff", "--model", "t2", "--steps", "2"]
    src = Path(sievelab.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "sievelab", *args],
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert main(args) == 0
    assert proc.stdout.decode() == capsys.readouterr().out


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
    assert row["buckets"] == "3;5;2;0" and row["t"] == "4"
    assert main(["circuit", "--buckets", ""]) == 2
    capsys.readouterr()


def test_circuit_cost_at_huge_d(capsys):
    # the cost needs only the bucket sizes; d = 10^9 once asked for
    # 14.9 GiB, and a d past numpy's shape limit exited 4
    for d in ("1000000000", "99999999999999999999"):
        assert main(["circuit", "--buckets", "1,2", "--d", d]) == 0
        out = capsys.readouterr().out.splitlines()
        row = dict(zip(out[0].split(","), out[1].split(",")))
        assert (row["d"], row["t"], row["depth"], row["size"], row["width"]) == (d, "2", "2", "2", "2")


def test_symkey_collision_with_explicit_l_and_r(capsys):
    # gamma = 6 is past the optimizer's n/3 bound but valid for l = 7, r = 2
    argv = ["symkey", "--kind", "collision", "--n", "16", "--gamma", "6", "--l", "7", "--r", "2"]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    row = dict(zip(out[0].split(","), out[1].split(",")))
    assert (row["l"], row["r"]) == ("7", "2")
    assert float(row["T_bits_formula"]) == pytest.approx(exponents.collision_cost(16, 7, 2, 6), abs=1e-10)
    assert main(argv[:6]) == 2  # without l and r the optimizer's bound applies
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


@pytest.mark.parametrize("command, value", [
    ("geom --cap --d 8 --alpha 1.0 --exact", "0"),
    ("geom --cap --d 8 --alpha -1.0 --mc --samples 10", "1"),
    ("geom --wedge --d 8 --alpha 1.0 --beta 0.5 --mc", "0"),
])
def test_geom_volume_without_a_rate(capsys, command, value):
    # |alpha| = 1 or |beta| = 1: the volume is defined, its exponent is not
    assert main(command.split()) == 0
    out = capsys.readouterr().out.splitlines()
    row = dict(zip(out[0].split(","), out[1].split(",")))
    assert (row["value"], row["rate"]) == (value, "")


@pytest.mark.parametrize("command", [
    "geom --cap --d 8 --alpha 1.5 --exact",
    "geom --cap --d 8 --alpha nan --exact",
    "geom --cap --d 1 --alpha 1.0 --exact",
    "geom --wedge --d 8 --alpha 1.0 --beta 1.5 --mc",
    "geom --wedge --d 8 --alpha 1.0 --beta 0.5 --theta 4 --mc",
])
def test_geom_other_domain_errors_still_exit_2(capsys, command):
    assert main(command.split()) == 2
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


def test_import_loads_neither_scipy_optimize_nor_integrate():
    # nor any other scipy module: the engine's masks are plain arrays and the
    # wedge's incomplete beta is geometry's own; scipy loads only for the wedge
    # Monte Carlo sampler. sievelab.cli still loads with the package
    src = Path(sievelab.__file__).resolve().parent.parent
    code = ("import sys, sievelab; "
            "bad = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')); "
            "sys.exit(repr(bad) if bad or 'sievelab.cli' not in sys.modules else 0)")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
