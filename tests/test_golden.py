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
]


@pytest.mark.parametrize("digest, command", GOLDEN, ids=[c.split(" --")[0] for _, c in GOLDEN])
def test_golden_bytes(tmp_path, digest, command):
    out = tmp_path / "out"
    assert main(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
