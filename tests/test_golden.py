"""Golden bytes: fixed CLI commands whose output must never move.

Each hash is the sha256 of the command's output file.  The sieve rows
pass --wedge-samples explicitly because the config block echoes every
flag; with --t given the value is unused, and the pinned bytes cover
the bucket engine, the ledgers and the pair counts.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sievelab
from sievelab.cli import main

GOLDEN = [
    ("d9dbc87deb25b4bb733a55b8e49cbcd33f651cf17f9d90a4a183a9d9c64cc127",
     "sieve --d 24 --n 2000 --t 3000 --seed 2 --alpha 0.45 --beta 0.55 --theta 1.1"
     " --wedge-samples 1000000"),
    ("8639c060f37e9f4c7de0629064a417b6762ff0d20dcbd1c59c5741bffe9e95c1",
     "sieve --d 24 --n 2000 --t 3000 --seed 2 --alpha 0.45 --beta 0.55 --theta 1.1"
     " --method fas --wedge-samples 1000000"),
    ("38ee113671a6b6dcb1f94e3605ecf9c368c46be6c8b967bb9c04fb43d3e5493e",
     "sieve --d 12 --n 300 --t 400 --seed 3 --wedge-samples 1000000"),
    ("258c4c9f1f4d3e0944512e89b62e4dc656fee6cf28c439cdab578581deefabf6",
     "sieve --d 12 --n 300 --t 400 --seed 3 --method fas --wedge-samples 1000000"),
    ("8e1e777a574d2af23fd2fbc43cd7f703f0bd3c154bd52806a3f9e851c5e852e6",
     "sieve --d 12 --n 300 --seed 1 --wedge-samples 20000"),
    ("c0758a529259e1c47b41558ee273519926e4f69734d7d7ce38dfdd4058dbbad9",
     "qsearch --experiment blocked --M 64 --S 1,4,16 --trials 20 --seed 7"),
    ("d32f67c0dd6da84b23ca0960b79478efed453f52a54926cdc24d0084598d731d",
     "tradeoff --model t2 --steps 5"),
    ("7bb5b8ef1cf9a0c2c08bb3524a759490b0c732b58ed38f7c9e6557ef7d37c31d",
     "geom --wedge --mc --d 8 --alpha 0.4 --beta 0.5 --samples 20000"),
    ("07ad0011c545adf0d0c83696bc433b0e5a49b3707c15d8913f845bcd551ace7c",
     "tradeoff --model t3 --steps 5"),
    ("75fdcbee9dd13ecb7b9ba89f89cd812dd65d13f752b817c5107817f553ad3ff5",
     "tradeoff --model t5 --steps 5"),
    ("a9d7439951f0d9a782c48d1a172bbc4a0c7ccb640a20ad909e5ea2a744a3387b",
     "tradeoff --model noqram --steps 5"),
    ("a35671a9ae1920a4e0c6a0f65b7d1254928febd7af5b651c3ba65f6528314ce3",
     "tradeoff --model classical --steps 2"),
    ("87af168c5b556c3cf70fe659a949f7e1adcd1d60d618a71f2297366956965bfa",
     "tradeoff --model t1 --steps 2"),
    ("82c784c00e960a8369588d1ec6cc6512630bb90c078b050263ea586a14b3a339",
     "tradeoff --model t4 --steps 2"),
    ("6a724f466b02a4cd8db1374d61bda4bea35980585b66ec72583938aabb081286",
     "qsearch --experiment pair --M1 32 --M2 32 --K 8 --S 16,4 --trials 20 --seed 7"),
    ("86eecd061d4a1cab5be03ec6ab09b8c6f2dc01c6544bab995f9af0f9842de957",
     "qsearch --experiment minfind --size 64 --trials 30 --seed 7"),
]


# longer rate-calculus curves, which run optimize() and noqram_point()
# over many budgets; their ids name the model and the flags
GOLDEN_CURVES = [
    ("3231e63c03dc47fe246268ae55014759595e4beca23c76b940ddbd543cce8e62",
     "tradeoff --model t2 --steps 20 --gamma-min 1.02"),
    ("56344fd15b35b13adfc26bce6621f8c4f19c9871b971e31db6131f11ed4af32f",
     "tradeoff --model noqram --steps 40"),
    ("4406b388ed9c712eb549087919b1c621a8b64a42e6c511bc7b9e4c132e04e001",
     "tradeoff --model t5 --steps 100"),
]


def _golden_ids(rows):
    """Test ids: the subcommand, plus its --model or --experiment value
    after the first row of that subcommand (pytest numbers any repeats)."""
    seen, ids = set(), []
    for _, command in rows:
        words = command.split()
        name = words[0]
        if name in seen and words[1] in ("--model", "--experiment"):
            name += "-" + words[2]
        seen.add(words[0])
        ids.append(name)
    return ids


@pytest.mark.parametrize("digest, command", GOLDEN, ids=_golden_ids(GOLDEN))
def test_golden_bytes(tmp_path, digest, command):
    out = tmp_path / "out"
    assert main(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("digest, command", GOLDEN_CURVES,
                         ids=["t2-gamma-min-1.02", "noqram-40", "t5-100"])
def test_golden_curve_bytes(tmp_path, digest, command):
    test_golden_bytes(tmp_path, digest, command)


def test_sieve_bytes_do_not_depend_on_blas_threads():
    src = Path(sievelab.__file__).resolve().parent.parent
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from sievelab.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "sieve", "--d", "24", "--n", "2000", "--seed", "4"],
            env=env, capture_output=True, timeout=300, check=True,
        )
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    assert b'"pairs_found"' in runs[0]
