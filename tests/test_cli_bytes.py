"""Pinned CLI bytes: the sha256 of (exit code, stdout, stderr) of every
subcommand variant on specs covering all five models, exact and float,
exact weights with mixed denominators on every word model, overwriting with
T = 1, a reducible chain and an invalid spec.

A change that claims the same outputs keeps every digest here. To pin a new
spec or variant, print `digest(argv)` for it and add the first 16 hex digits.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from jugglemc import chain
from jugglemc.cli import build_parser, main

SPECS = {
    "msjmc-211": ["--model", "msjmc", "--counts", "2,1,1", "--z", "1/2,1/4,1/8,1/16,1/16"],
    "msjmc-111-float": ["--model", "msjmc", "--counts", "1,1,1", "--z", "0.5,0.2,0.2,0.1"],
    "add_drop-32": ["--model", "add_drop", "--n", "3", "--T", "2",
                    "--z", "1/4,1/4,1/4,1/4", "--activities", "1,2"],
    "add_drop-23-float": ["--model", "add_drop", "--n", "2", "--T", "3",
                          "--z", "0.5,0.25,0.25", "--activities", "1,0.5,2"],
    "annihilation-23": ["--model", "annihilation", "--n", "2", "--T", "3",
                        "--z", "1/2,1/3,1/6"],
    "annihilation-23-y1-zero": ["--model", "annihilation", "--n", "2", "--T", "3",
                                "--z", "0,0,1"],
    "annihilation-32-float": ["--model", "annihilation", "--n", "3", "--T", "2",
                              "--z", "0.4,0.3,0.2,0.1"],
    "overwriting-23": ["--model", "overwriting", "--n", "2", "--T", "3",
                       "--z", "1/6,1/3,1/2"],
    "overwriting-31": ["--model", "overwriting", "--n", "3", "--T", "1",
                       "--z", "1/4,1/4,1/4,1/4"],
    "overwriting-22-reducible": ["--model", "overwriting", "--n", "2", "--T", "2",
                                 "--z", "1,0,0"],
    "overwriting-22-float": ["--model", "overwriting", "--n", "2", "--T", "2",
                             "--z", "0.25,0.25,0.5"],
    "jugglers-222": ["--model", "several_jugglers", "--r", "2", "--c", "2", "--balls", "2"],
    "jugglers-232-float": ["--model", "several_jugglers", "--r", "2", "--c", "3",
                           "--balls", "2", "--backend", "float"],
    "invalid-msjmc": ["--model", "msjmc", "--counts", "1,1", "--z", "1/2,1/2"],
    # weights whose denominators differ, so the integer scaling is not trivial
    "msjmc-2111-mixed": ["--model", "msjmc", "--counts", "2,1,1,1",
                         "--z", "2/3,1/7,5/9,3/11,1/13,4/5"],
    "add_drop-33-mixed": ["--model", "add_drop", "--n", "3", "--T", "3",
                          "--z", "2/3,1/7,5/9,3/11", "--activities", "3/4,5/2,1/6"],
    "annihilation-33-mixed": ["--model", "annihilation", "--n", "3", "--T", "3",
                              "--z", "1/3,1/5,2/7,19/105"],
    "overwriting-33-mixed": ["--model", "overwriting", "--n", "3", "--T", "3",
                             "--z", "1/3,1/5,2/7,19/105"],
}

VARIANTS = {
    "enumerate": ["enumerate"],
    "matrix-json": ["matrix", "--format", "json"],
    "matrix-csv": ["matrix", "--format", "csv"],
    "matrix-dot": ["matrix", "--format", "dot"],
    "formula": ["stationary", "--method", "formula"],
    "solve": ["stationary", "--method", "solve"],
    "both": ["stationary", "--method", "both"],
    "lumping": ["verify", "--suite", "lumping"],
    "ultrafast": ["verify", "--suite", "ultrafast"],
    "spectrum": ["verify", "--suite", "spectrum"],
    "marginals": ["verify", "--suite", "marginals"],
    "all": ["verify", "--suite", "all"],
    "trajectory": ["simulate", "--steps", "300", "--seed", "5"],
    "replicas": ["simulate", "--replicas", "40", "--seed", "3"],
}

# first 16 hex digits of each digest, in the order of VARIANTS
PINNED = {
    "msjmc-211": (
        "ca1f094c71e81485", "7a296fa8c69e3eb3", "8841f1e4a094553b", "c8639e4943fa0405",
        "94d61dfcceab1fe9", "50c3c07aa9ecb773", "56b6f969d1c7cd44", "be3c9b4677ac1501",
        "bbced2d484aa13cf", "5f3a2ef7a10d5f32", "2c8a38c5e2f7d375", "be3c9b4677ac1501",
        "44506a50b9998da5", "1b6074a1a49ced61",
    ),
    "msjmc-111-float": (
        "6ce632a265f2293a", "dec0069d221fe0aa", "bf27b6c1bc74b50c", "6fba99b661761eb9",
        "48864e83f41b3a0e", "84710ae824cf13ca", "73dfdb3f41506b91", "6527ccbc455f9dfc",
        "6527ccbc455f9dfc", "6527ccbc455f9dfc", "6527ccbc455f9dfc", "6527ccbc455f9dfc",
        "e33be6a5f5d83f98", "743640567ba6d23d",
    ),
    "add_drop-32": (
        "ab97b5d265fa8087", "a4871f8e4041abab", "9400bcaccd9718f0", "208a8b703216ddd6",
        "f4428e4a78553081", "c843cbc2e85214f3", "c3038fdf5f77e443", "be3c9b4677ac1501",
        "495fd3a85886f5d7", "a64acb7cc80f46ce", "8700b40a64de7bc0", "be3c9b4677ac1501",
        "c2e5a564a1f3c1b2", "b6f02a987154b631",
    ),
    "add_drop-23-float": (
        "25227eedc79efa91", "14c558c45987b708", "2dae4b8c43c30415", "f4464886e5cf0c99",
        "0d5e6d2be7787bd8", "fc35ddf89c18fb28", "23e3ce664609001a", "6527ccbc455f9dfc",
        "6527ccbc455f9dfc", "6527ccbc455f9dfc", "6527ccbc455f9dfc", "6527ccbc455f9dfc",
        "032d2ad12dadacab", "a0d83de0074d509a",
    ),
    "annihilation-23": (
        "25227eedc79efa91", "6b6e1795287611a2", "2ac421f0f5aa7d5d", "1d72dc0b654288bc",
        "325d692704bf4e68", "416576a3492b6b57", "a4ac41e28fd96316", "be3c9b4677ac1501",
        "caee5bed91fcf822", "8e9bcc366754673a", "d798e7c0a435503c", "be3c9b4677ac1501",
        "88dd6c28f29899f7", "91748f4147fe9a06",
    ),
    "annihilation-23-y1-zero": (
        "25227eedc79efa91", "a5ec9aa63911212b", "a5ec9aa63911212b", "a5ec9aa63911212b",
        "a5ec9aa63911212b", "a5ec9aa63911212b", "a5ec9aa63911212b", "a5ec9aa63911212b",
        "a5ec9aa63911212b", "a5ec9aa63911212b", "d798e7c0a435503c", "a5ec9aa63911212b",
        "a5ec9aa63911212b", "a5ec9aa63911212b",
    ),
    "annihilation-32-float": (
        "ab97b5d265fa8087", "a14712b729cd2549", "e46303e1f7f56a21", "5e1504a424a4df4b",
        "ca0294bc0b6e52cb", "4c97b9723975ddb8", "75b0d641e74d185c", "6527ccbc455f9dfc",
        "6527ccbc455f9dfc", "6527ccbc455f9dfc", "6527ccbc455f9dfc", "6527ccbc455f9dfc",
        "d4d01eb903ed2b58", "d56864fba51c2a5b",
    ),
    "overwriting-23": (
        "25227eedc79efa91", "c2bcd4cbb7f580fb", "885ca03587e46e4d", "09622789004d199e",
        "1ada5e4350b5a668", "a5d45cd06055e1d3", "98d317d4313e1aaf", "aaa68d057ed0a364",
        "c6d834368fd6a027", "8dde08e67c2bb8fe", "9f688427ec7038ad", "0f529758cc349ae2",
        "599984fd3714671d", "d1cf67d348e805c1",
    ),
    "overwriting-31": (
        "1d2dd71c569c00f9", "31114b82aa88b1d5", "35d1020f1c1bce98", "332670d5ac62ba48",
        "1f050d4c90f2cd71", "3c38d0d2dff10b8d", "3cdf8445d77cddb9", "03205a2fbed6d5bf",
        "88a56d389a01a19a", "3f066b2ffa693abb", "9f688427ec7038ad", "03205a2fbed6d5bf",
        "24abb1d6bcf6134d", "9162ada53390c568",
    ),
    "overwriting-22-reducible": (
        "e918112d45eaf5ad", "6641e46e9a92b7e0", "3f555f2707d48844", "17114a5bdcafeb69",
        "a75cfce06e62e2ee", "0c710c3c8d0feda0", "0c710c3c8d0feda0", "5c3b9eb7b36c9919",
        "1d67845c42bed901", "210068ec3c2d0165", "49f2fdc41ff0dd27", "cd3e8e7036ea9068",
        "a386da5d3ec4b733", "55d76a4c98d84385",
    ),
    "overwriting-22-float": (
        "e918112d45eaf5ad", "c818a84c06f105d8", "bcaf9334f8c23a81", "7d4f61a2dbf00fb9",
        "2024fa22b3561273", "ef54e4bc38c7e2be", "d3000e0e33555ed1", "6527ccbc455f9dfc",
        "6527ccbc455f9dfc", "6527ccbc455f9dfc", "6527ccbc455f9dfc", "6527ccbc455f9dfc",
        "4cf08e5ca6048390", "7dfd8005ad676acf",
    ),
    "jugglers-222": (
        "2a87fa17f3b88aac", "6239a1800669722d", "b09fb424c61f734a", "ee64121ee6b1c5dc",
        "0119e3acf40969e6", "673e52bff9c59855", "e323d1043db561d6", "80ad4c3746790b8c",
        "caee5bed91fcf822", "8e9bcc366754673a", "c8648477fc9f94f3", "eb231c962f4e1535",
        "67d72e9c684f02a6", "3a50950fc71c5d02",
    ),
    "jugglers-232-float": (
        "afae43c3c39fdf91", "d3d75e7738d04daa", "adbf700a97631340", "6ee0081770de2a41",
        "3166e152515887c2", "e29c3fbba0b64428", "632240213ec02ec4", "6527ccbc455f9dfc",
        "6527ccbc455f9dfc", "6527ccbc455f9dfc", "6527ccbc455f9dfc", "6527ccbc455f9dfc",
        "60c31fc3fdccb4c4", "bf3cb293a7661e06",
    ),
    "invalid-msjmc": (
        "00a1c0d0a44d715d", "00a1c0d0a44d715d", "00a1c0d0a44d715d", "00a1c0d0a44d715d",
        "00a1c0d0a44d715d", "00a1c0d0a44d715d", "00a1c0d0a44d715d", "00a1c0d0a44d715d",
        "00a1c0d0a44d715d", "00a1c0d0a44d715d", "00a1c0d0a44d715d", "00a1c0d0a44d715d",
        "00a1c0d0a44d715d", "00a1c0d0a44d715d",
    ),
    "msjmc-2111-mixed": (
        "0c0e11dbb68fbf2f", "5cea9586599e96a9", "a908d4036ce56d68", "b6a7f6ef8adce83a",
        "0e61379ae0e1bf14", "c059877404c50d0b", "85f5609ce636801f", "be3c9b4677ac1501",
        "d66e1853b21d881b", "5dc63b1e02f4474c", "2c8a38c5e2f7d375", "be3c9b4677ac1501",
        "1bc3d382df5ead2e", "8e3892bfe503139f",
    ),
    "add_drop-33-mixed": (
        "64e9ee1e9fb11b46", "2db339822674440d", "ec0bbb57538b66d7", "dfaacfa1dbc82917",
        "347a375d7f53621d", "2af33580f4e73e64", "b5ea160ecc75bfb6", "be3c9b4677ac1501",
        "495fd3a85886f5d7", "a64acb7cc80f46ce", "8700b40a64de7bc0", "be3c9b4677ac1501",
        "d681ce52d7634e68", "807dd4a4b3dea634",
    ),
    "annihilation-33-mixed": (
        "64e9ee1e9fb11b46", "c943d725298d7a24", "b4f33b5935bb6949", "5696229b4578cb40",
        "272c09a07bd4735b", "fa8b02449afd0518", "3c40939014ffafee", "be3c9b4677ac1501",
        "495fd3a85886f5d7", "a64acb7cc80f46ce", "d798e7c0a435503c", "be3c9b4677ac1501",
        "1ff9557589bb60cb", "35020392e4c3d6c3",
    ),
    "overwriting-33-mixed": (
        "64e9ee1e9fb11b46", "94337de2af653e1b", "6eb5e3bffb8713e8", "035540c75f146bcd",
        "2416918550c76839", "c7e197041ecd5c8c", "8ab836158741162c", "aaa68d057ed0a364",
        "5c17b5b2517a9aea", "3f066b2ffa693abb", "9f688427ec7038ad", "4c735a0405849411",
        "61fe683a03d0f5a6", "7d8b95bbdce19bc0",
    ),
}


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_cli_bytes_are_pinned(spec, variant):
    want = PINNED[spec][list(VARIANTS).index(variant)]
    assert digest(VARIANTS[variant] + SPECS[spec]) == want


def test_cached_parser_keeps_bytes():
    """One parser serves every main call in a process: a usage error and
    --help leave nothing behind that changes a later call's bytes."""
    assert build_parser() is build_parser()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit) as usage:
            main(["verify", "--suite", "nope"] + SPECS["overwriting-23"])
        with pytest.raises(SystemExit) as help_:
            main(["verify", "--help"])
    assert (usage.value.code, help_.value.code) == (1, 0)
    variant = list(VARIANTS).index("all")
    assert digest(VARIANTS["all"] + SPECS["overwriting-23"]) == PINNED["overwriting-23"][variant]


def test_overwriting_33_law_needs_no_elimination(monkeypatch):
    """Overwriting (3,3) lumps 27 -> 9 -> 3 -> 1 by equal rows, so
    `stationary --method both` runs no elimination; digest pinned from a
    build that eliminated all 27 states."""
    solve, calls = chain._solve_modulo, []

    def spy(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(chain, "_solve_modulo", spy)
    argv = ["stationary", "--method", "both", "--model", "overwriting", "--n", "3", "--T", "3"]
    assert digest(argv + ["--z", "1/6,1/3,1/4,1/4"]) == "7f108b65bd586c5a"
    assert digest(argv + ["--z", "2/9,1/9,1/3,1/3"]) == "889eef8f3f74bed7"
    assert calls == []


# `stationary --method both` at the sizes of the benchmark's `solve` jobs,
# with weights whose denominators differ
BENCHMARK_SIZED = {
    "f30dd580604d6366": ["--model", "add_drop", "--n", "5", "--T", "3",
                         "--z", "2/3,1/7,5/9,3/11,1/13,4/5", "--activities", "3/4,5/2,1/6"],
    "45b5d163749b2916": ["--model", "annihilation", "--n", "4", "--T", "4",
                         "--z", "1/3,1/5,1/7,2/9,32/315"],
    "a32f0d209fb0ff89": ["--model", "msjmc", "--counts", "2,2,1,1",
                         "--z", "2/3,1/7,5/9,3/11,1/13,4/5,7/6"],
}


@pytest.mark.parametrize("want", BENCHMARK_SIZED)
def test_both_bytes_at_benchmark_size(want):
    assert digest(["stationary", "--method", "both"] + BENCHMARK_SIZED[want]) == want


# float weights on chains whose cascades run three to four bumps deep, so
# the float products are taken over many factors in a fixed order
FLOAT_CASCADES = {
    "msjmc-2111-float": ["--model", "msjmc", "--counts", "2,1,1,1",
                         "--z", "0.31,0.17,0.12,0.2,0.13,0.07"],
    "add_drop-43-float": ["--model", "add_drop", "--n", "4", "--T", "3",
                          "--z", "0.3,0.1,0.25,0.2,0.15", "--activities", "0.7,1.3,0.45"],
    "annihilation-43-float": ["--model", "annihilation", "--n", "4", "--T", "3",
                              "--z", "0.35,0.1,0.3,0.15,0.1"],
}
FLOAT_VARIANTS = {
    "matrix-json": ["matrix", "--format", "json"],
    "solve": ["stationary", "--method", "solve"],
    "trajectory": ["simulate", "--steps", "300", "--seed", "5"],
}
# first 16 hex digits of each digest, in the order of FLOAT_VARIANTS
FLOAT_PINNED = {
    "msjmc-2111-float": ("0daac323dca5e0e7", "684ffb24d6c5161a", "6acd8f6f92dda4f5"),
    "add_drop-43-float": ("63f1b11ea72f8840", "6cef69c4137da44b", "50d5b8cea15cc94e"),
    "annihilation-43-float": ("d4b4112aea96abfe", "80c4f04a0b701b02", "23993fda4cdeab3b"),
}


@pytest.mark.parametrize("spec", FLOAT_CASCADES)
@pytest.mark.parametrize("variant", FLOAT_VARIANTS)
def test_float_cascade_bytes_are_pinned(spec, variant):
    want = FLOAT_PINNED[spec][list(FLOAT_VARIANTS).index(variant)]
    assert digest(FLOAT_VARIANTS[variant] + FLOAT_CASCADES[spec]) == want


# float weights on overwriting chains deeper than (2, 2), so each move's
# float product runs over several failure and throw factors in walk order
FLOAT_OVERWRITING = {
    "overwriting-33-float": ["--model", "overwriting", "--n", "3", "--T", "3",
                             "--z", "0.35,0.15,0.3,0.2"],
    "overwriting-42-float": ["--model", "overwriting", "--n", "4", "--T", "2",
                             "--z", "0.3,0.1,0.25,0.2,0.15"],
}
FLOAT_OVERWRITING_VARIANTS = {
    "matrix-json": ["matrix", "--format", "json"],
    "solve": ["stationary", "--method", "solve"],
    "replicas": ["simulate", "--replicas", "200", "--seed", "5"],
}
# first 16 hex digits of each digest, in the order of FLOAT_OVERWRITING_VARIANTS
FLOAT_OVERWRITING_PINNED = {
    "overwriting-33-float": ("ba53fa661c07963c", "97342d33e4540ced", "73b4d53553af4f10"),
    "overwriting-42-float": ("2ea2cb68a768c935", "c255fd0cd3da14ca", "82e98319f07c7c83"),
}


@pytest.mark.parametrize("spec", FLOAT_OVERWRITING)
@pytest.mark.parametrize("variant", FLOAT_OVERWRITING_VARIANTS)
def test_float_overwriting_bytes_are_pinned(spec, variant):
    want = FLOAT_OVERWRITING_PINNED[spec][list(FLOAT_OVERWRITING_VARIANTS).index(variant)]
    assert digest(FLOAT_OVERWRITING_VARIANTS[variant] + FLOAT_OVERWRITING[spec]) == want
