"""Golden bytes: fixed CLI commands whose output must never move.

Each hash is the sha256 of the command's output file.  The sieve rows
pass --wedge-samples explicitly because the config block echoes every
flag; with --t given the value is unused, and the pinned bytes cover
the bucket engine, the ledgers and the pair counts.  The blocked and
pair qsearch rows were re-recorded when a search with no mark stopped
drawing: later windows read the words it used to read, so the bytes
moved while the law of every reported statistic stayed as it was.
"""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sievelab
from sievelab import qsearch, rpc, sieve
from sievelab.cli import main

GOLDEN = [
    ("ca66f7a19e89fde7b1efb936b53be1a65e38822099e25203a2ae2cbb2c38b010",
     "sieve --d 24 --n 2000 --t 3000 --seed 2 --alpha 0.45 --beta 0.55 --theta 1.1"
     " --wedge-samples 1000000"),
    ("8acbbea488a47e4273c43bc9fb19a31ed406f557afb3a1af3339f056f466b556",
     "sieve --d 24 --n 2000 --t 3000 --seed 2 --alpha 0.45 --beta 0.55 --theta 1.1"
     " --method fas --wedge-samples 1000000"),
    ("356c9c62cd7e56f1f8ae65a37878ff8006bedfcef5310951c0b24b5e3b727a49",
     "sieve --d 12 --n 300 --t 400 --seed 3 --wedge-samples 1000000"),
    ("19fe4167a54895d771d1927ede05bdc8cd4df467ceec5efc6f8011c08dd9e97c",
     "sieve --d 12 --n 300 --t 400 --seed 3 --method fas --wedge-samples 1000000"),
    ("84e197b4d40593582a8541bf1d391b01c671930c938ea2e4ea456d2a827c016e",
     "sieve --d 12 --n 300 --seed 1 --wedge-samples 20000"),
    ("77ba1a5fc8ea66139b44c0f2cdc91464a7e5fd86d42397e52d06663e2f13d5c7",
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
    ("de22b444668092b7e2e6800b74f16bb81af4eedefe52255e8a328fde013fadf9",
     "qsearch --experiment pair --M1 32 --M2 32 --K 8 --S 16,4 --trials 20 --seed 7"),
    ("86eecd061d4a1cab5be03ec6ab09b8c6f2dc01c6544bab995f9af0f9842de957",
     "qsearch --experiment minfind --size 64 --trials 30 --seed 7"),
    # S = 1 next to windows that leave a ragged tail (10 = 3·3 + 1 = 2·4 + 2 = 7 + 3)
    ("fd0766991f537e772fdc01a33140a8acf89fa00481f29a050d2c6aa9a81a753d",
     "qsearch --experiment blocked --M 10 --S 1,3,4,7 --trials 50 --seed 3"),
    # block pairs of spaces past 10^6: S = 1100 probes entry 863 of a
    # 1.21e6 space's hit row (sparse), S = 2500 runs BBHT on 6.25e6 (dense)
    ("d537ba74cb47d5cfe04218b66e772315af79e13bbd787c3f51c361e4e7cee31f",
     "qsearch --experiment pair --M1 3000 --M2 3000 --K 2 --S 1100,2500 --trials 20 --seed 7"),
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
    ("40eef45ff1997f50889c5bf8087fd7deee1f323621dc815aa0c8d65c3bc26ed0",
     "tradeoff --model t3 --steps 100"),
]


# the default sieve path, where t comes from wedge_volume_quad: the
# README run, a d = 2 step cross-section, an obtuse theta whose interval
# starts above 0, and two wedges whose interval splits where the
# cross-section becomes the whole sphere (one of them a fas run); plus a
# noqram curve from a small t, and a d = 40 run whose t = 299,813 centers
# are scanned in tiles.  The cross-section's incomplete beta is geometry's
# own array form since it replaced scipy's betainc: four of these rows and
# the Monte-Carlo sieve row above were re-recorded then, and only their
# wedge_estimate moved, by at most 1.2e-14 relative
GOLDEN_QUAD = [
    ("b0c38e0ee76550225a4149f8d2ecbb91355e1ce724f0083664be5a3e0be21957",
     "sieve --d 24 --n 4000 --seed 1"),
    # W = 0.16666666666666655 for the exact 1/6: 3 / W = 18.000000000000014
    # is taken as t = 18, not ceil's 19
    ("8d9c7d230d75a23d3fe889698dc347ef51bab8e5478c74b7dca3cb8f7f2581a7",
     "sieve --d 2 --n 200 --seed 3"),
    ("b67a28ba96314fcbcfc446f721ba94dd185671b359ccc08ec9fe9bc12ae36dfc",
     "sieve --d 16 --n 500 --seed 5 --theta 2.2 --alpha -0.3 --beta 0.6"),
    ("89b08338ea3b56cdcda03799cd961bce3b2cf77509060165b9ec7a19c13e9c2f",
     "sieve --d 40 --n 300 --seed 6 --theta 1.3 --alpha 0.2 --beta 0.25 --method fas"),
    ("37ae09cabd8c64cd9c862dd3e9277f5a27705863788cc87eb567d32f913e8e75",
     "sieve --d 6 --n 300 --seed 2 --theta 0.7 --alpha 0.9 --beta 0.6"),
    ("ecabe72fa1f5dcf2bc21508c34c8b5db56505bd7a82d20f5152525c13bf36f7f",
     "tradeoff --model noqram --steps 13 --t-min 0.01 --seed 9"),
    ("87bef78d5c4b00038e6ce8ba52bc5ab8bd7c3ec4207ea596ff055d3cd0b97c18",
     "sieve --d 40 --n 2000 --seed 1"),
]


# the README's CLI commands not pinned above, and two Monte-Carlo runs
# of three shards (2 x 2^16 samples and one more)
GOLDEN_README = [
    ("12995d87ef993ab63776ea840680e27c0104b974e00fba4068185569b420d840",
     "tradeoff --model t2 --steps 100"),
    ("5448beb3e5bd0eddeaa1d940d758978c2a2515b82c05ed6c67f84429d732bcdd",
     "tradeoff --model lower --s-max 0.155"),
    ("c977e39a4465ca8e1112834d6c1dcc6e01c877f4d45e759ab11e4ef91c07620e",
     "sieve --d 12 --n 150 --t 400 --method fas"),
    ("f91160524503acab753696b34a731d2fdfd52cb672d4863c3742a8b50c9f6e0b",
     "qsearch --experiment blocked --M 256 --S 1,4,16,64,256 --trials 300"),
    ("ea17848bd4d937a1ac60ff2e8c2a5406841a16fd16bf704d99066a441812e71a",
     "qsearch --experiment pair --M1 64 --M2 64 --K 16 --S 32,8"),
    ("f7de001c378b913ba5cc07aaa53b8130a2fbcdcbbbb2441052b22478d4bb4782",
     "circuit --buckets 3,5,2,0 --d 4"),
    ("598b57471e62f3f5c6975dbeec026f7032d4d87f9957343078dcb0fc769dce16",
     "geom --cap --d 24 --alpha 0.5 --exact"),
    ("2dcb4f8d8660253bc77bc61a78c445fe82cbcc868794c189bc11a3844ff67930",
     "geom --wedge --d 24 --alpha 0.5 --mc --samples 1000000"),
    ("ab09b42307f1ce2a7ac476eba234902fc9612f176e0bc12b9999164fb8c65c8a",
     "tradeoff --model symkey-collision --n 16 --steps 4"),
    ("ca18d0992c66d7c744b31f39b21fe61c40975b7622ecfb424458da350ed9d196",
     "symkey --kind mtps --n 21 --t 6 --gamma 3"),
    ("5b26d3db3258089438695ad4809f5dd8139dbeca94f0ec713f1cf775b2d796bf",
     "geom --cap --d 24 --alpha 0.5 --mc --samples 131073"),
    ("b41737455e010fa7c3b4f5fa2226895fdf688e272dd5333024c0458a3406f1ac",
     "geom --wedge --d 8 --alpha 0.4 --beta 0.5 --mc --samples 131073"),
]


# the symkey trade-off points: the optimizer's defaults, a given (l, r)
# past the optimizer's gamma bound, the saturation t, a t past saturation
# used as given, and three preimage sweeps
GOLDEN_SYMKEY = [
    ("e6e3f7f530e9de5a8e3ed94d4d84623a0f9fee9904c66140fbd59c739bcf240d",
     "symkey --kind collision"),
    ("21a0a7fc123f6ff40aaa7d0d4c73454d5d26b6bc3a50388dba5dad5a0eca0bbb",
     "symkey --kind collision --n 16 --gamma 6 --l 7 --r 2"),
    ("d50a9aa6b46972227858494e44a8a8451bb2cbb64f706d94a508b7c79c22fc03",
     "symkey --kind mtps"),
    ("58523c4676b85ba9b8853410962c7e0145d75de753f71bc22af3b469d439ca01",
     "symkey --kind mtps --n 20 --t 19 --gamma 2"),
    ("082b9a602d849e52209216c3bf5f2dcc1392b57705aa2d2e7b465d0976ea1a59",
     "tradeoff --model symkey-mtps --steps 5"),
    ("029ad0e5dab0abcebfc85a1d94c0c1d4619096c8082751c984f03e4111ccfa75",
     "tradeoff --model symkey-mtps --n 21 --t 7 --steps 6 --seed 3"),
    # it ends at gamma = n/3 = 20/3, where 3n/7 - 2 gamma/7 rounds an ulp
    # below gamma: the last row holds t at gamma, with r = 0
    ("cad2878c3902a6f85d720067b21ab98ef8ba44d92caecc49c9b3f43542218430",
     "tradeoff --model symkey-mtps --n 20 --steps 3"),
]


# rows that reach the budget clamp, where qram_rate falls below gamma_rate
# once the t3 and t5 curves saturate, and the sparse pair probe at S = 1,
# whose 1 x 1 block pairs are either empty or all marked (k = S^2)
GOLDEN_CLAMPS = [
    ("7a788b5cd7b61cfa22fbd54333bb809c7ac607588232bab2ecea3b74ed36f0b4",
     "tradeoff --model t3 --gamma-max 1.2 --steps 4"),
    ("044a00eb8e5a71f640493b22c6bdc2b56ba5951579a60e389176f90661632927",
     "tradeoff --model t5 --gamma-max 1.2 --steps 4"),
    ("9d7d04c1a51cc287cbaa5759f2e0ae0b7d77874da145e05337ddb122f6879d29",
     "qsearch --experiment pair --M1 8 --M2 8 --K 4 --S 1,2,4 --trials 50"),
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


@pytest.mark.parametrize("command", [
    "sieve --d 12 --n 300 --t 400 --seed 3 --wedge-samples 1000000",
    "sieve --d 12 --n 300 --seed 1 --wedge-samples 20000",
], ids=["t-given", "wedge-mc"])
def test_sieve_run_is_the_golden_row(capsys, command):
    # two GOLDEN rows; sieve.run takes the parsed flags, defaults included
    assert main(command.split()) == 0
    doc = json.loads(capsys.readouterr().out)
    c = doc["config"]
    run = sieve.run(c["d"], c["n"], c["seed"], c["method"], c["theta"], c["alpha"], c["beta"],
                    c["t"], c["wedge_samples"])
    assert dataclasses.asdict(run) == doc["results"][0]


@pytest.mark.parametrize("route", ["re-score", "exact-tile"])
def test_golden_sieve_row_through_each_screen_route(tmp_path, monkeypatch, route):
    # the float32 screen's slow routes alone give the row's bytes: an infinite
    # margin sends every score to the float64 re-score, and an infinite tie
    # bound then sends every one on to the float64 tile
    bounds = rpc._screen_bounds
    tie = math.inf if route == "exact-tile" else None
    monkeypatch.setattr(rpc, "_screen_bounds",
                        lambda d, norm: (math.inf, tie or bounds(d, norm)[1]))
    tiles = []
    exact_tile = rpc._exact_tile
    monkeypatch.setattr(rpc, "_exact_tile", lambda a, b: tiles.append(1) or exact_tile(a, b))
    test_golden_bytes(tmp_path, "356c9c62cd7e56f1f8ae65a37878ff8006bedfcef5310951c0b24b5e3b727a49",
                      "sieve --d 12 --n 300 --t 400 --seed 3 --wedge-samples 1000000")
    assert (len(tiles) > 0) == (route == "exact-tile")


def test_golden_sieve_csv_keeps_its_column_order(tmp_path):
    # the JSON rows sort their keys; only CSV shows the SieveRun field order
    test_golden_bytes(tmp_path, "690bb863d648ec129753379e9e13fa20c37488b802f4b0b250468f0000843d8e",
                      "sieve --d 12 --n 150 --t 400 --method fas --format csv")


def test_golden_minfind_through_hit_cache_eviction(tmp_path):
    # recorded before the BBHT loop cached its hit tables: forty descents
    # over 65,536 values meet more (size, marked count) keys than it keeps
    qsearch._hit_table.cache_clear()
    test_golden_bytes(tmp_path, "500be1b1d7cdf219d4d3a0188e6648b7b9f22287dd10d6b0efd4ffff5341acde",
                      "qsearch --experiment minfind --size 65536 --trials 40 --seed 3")
    info = qsearch._hit_table.cache_info()
    assert info.misses > info.maxsize


@pytest.mark.parametrize("digest, command", GOLDEN_CURVES,
                         ids=["t2-gamma-min-1.02", "noqram-40", "t5-100", "t3-100"])
def test_golden_curve_bytes(tmp_path, digest, command):
    test_golden_bytes(tmp_path, digest, command)


@pytest.mark.parametrize("digest, command", GOLDEN_QUAD,
                         ids=["quad-readme", "quad-d2-step", "quad-obtuse", "quad-split-fas",
                              "quad-split-d6", "noqram-t-min-0.01", "quad-d40-tiled"])
def test_golden_quad_bytes(tmp_path, digest, command):
    test_golden_bytes(tmp_path, digest, command)


@pytest.mark.parametrize("digest, command", GOLDEN_README,
                         ids=["readme-t2-100", "readme-lower", "readme-sieve-fas",
                              "readme-blocked", "readme-pair", "readme-circuit",
                              "readme-cap-exact", "readme-wedge-mc", "readme-symkey-collision",
                              "readme-mtps", "cap-mc-3-shards", "wedge-mc-3-shards"])
def test_golden_readme_bytes(tmp_path, digest, command):
    test_golden_bytes(tmp_path, digest, command)


@pytest.mark.parametrize("digest, command", GOLDEN_SYMKEY,
                         ids=["collision-default", "collision-given-l-r", "mtps-saturation",
                              "mtps-t-past-saturation", "mtps-sweep", "mtps-sweep-t7",
                              "mtps-sweep-n20-endpoint"])
def test_golden_symkey_bytes(tmp_path, digest, command):
    test_golden_bytes(tmp_path, digest, command)


@pytest.mark.parametrize("digest, command", GOLDEN_CLAMPS,
                         ids=["t3-past-saturation", "t5-past-saturation", "pair-full-1x1-blocks"])
def test_golden_clamp_bytes(tmp_path, digest, command):
    test_golden_bytes(tmp_path, digest, command)


def _blas_thread_runs(args):
    """A sieve command's stdout at one and at two BLAS threads."""
    src = Path(sievelab.__file__).resolve().parent.parent
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from sievelab.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *args.split()],
            env=env, capture_output=True, timeout=300, check=True,
        )
        runs.append(proc.stdout)
    assert b'"pairs_found"' in runs[0]
    return runs


def test_sieve_bytes_do_not_depend_on_blas_threads():
    one, two = _blas_thread_runs("sieve --d 24 --n 2000 --seed 4")
    assert one == two


def test_tiled_sieve_bytes_do_not_depend_on_blas_threads():
    # 300,000 centers exceed the score budget, so the center scan runs in tiles
    one, two = _blas_thread_runs("sieve --d 16 --n 300 --t 300000 --seed 2")
    assert one == two
    assert hashlib.sha256(one).hexdigest() == (
        "b8cbc36f27697817a9e0e50f3367f1ff6b8e3a1c3ffa84a6e4a5c2d783f5434d")
