import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import fatpt
from fatpt import cli, errors, linsys, splitting
from fatpt.cli import run
from fatpt.cokernel import MuVerdict
from fatpt.errors import InputError
from fatpt.lattice import canonical_class, format_class, intersect, parse_class, selfint
from fatpt.splitting import SplittingType, compute_splittings
from fatpt.weyl import is_exceptional


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_hilbert_json(capsys):
    code, rep = run_json(
        capsys, ["hilbert", "--mults", "77x7,44,11,11,11", "--deg", "208..211"]
    )
    assert code == 0
    assert rep["command"] == "hilbert"
    assert rep["prime"] == 31991
    assert rep["alpha"] == 209
    assert rep["conjectural"] is True
    assert [(r["degree"], r["value"]) for r in rep["rows"]] == [
        (208, 0),
        (209, 1),
        (210, 157),
        (211, 369),
    ]
    fixed209 = rep["rows"][1]["fixed"]
    assert fixed209 == [
        {"class": "19;7,7,7,7,7,7,7,4,1,1,1", "multiplicity": 11}
    ]


def test_hilbert_tsv(capsys):
    code = run(
        ["hilbert", "--mults", "77x7,44,11,11,11", "--deg", "208..209", "--format", "tsv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degree\tvalue\tfixed"
    assert lines[1] == "208\t0\t-"
    assert lines[2] == "209\t1\t11*(19;7,7,7,7,7,7,7,4,1,1,1)"


def test_resolution_json(capsys):
    code, rep = run_json(capsys, ["resolution", "--mults", "48,33x3,32x3,24,16"])
    assert code == 0
    assert rep["alpha"] == 98
    assert rep["regularity"] == 98
    assert rep["alpha_plus_one_path"] == "decomposition"
    table = {r["degree"]: (r["generators"], r["syzygies"], r["flag"]) for r in rep["rows"]}
    assert table == {
        98: (71, 0, "Exact"),
        99: (2, 44, "Exact"),
        100: (0, 28, "Exact"),
    }


def test_reduce_json(capsys):
    code, rep = run_json(
        capsys, ["reduce", "--class", "209;77,77,77,77,77,77,77,44,11,11,11"]
    )
    assert code == 0
    assert rep["status"] == "InChamber"
    assert rep["reduced"] == "0;0,0,0,0,0,0,0,0,0,0,-11"
    assert rep["word_length"] == len(rep["word"].split())


def test_decompose_json(capsys):
    code, rep = run_json(capsys, ["decompose", "--class", "3;2,2,-2"])
    assert code == 0
    assert rep["effective"] is True
    assert rep["free_part"] == "2;1,1,0"
    assert rep["components"] == [
        {"class": "1;1,1,0", "multiplicity": 1},
        {"class": "0;0,0,-1", "multiplicity": 2},
    ]

    code, rep = run_json(capsys, ["decompose", "--class", "1;2,0,0"])
    assert code == 0
    assert rep["effective"] is False
    assert rep["status"] == "NegLine"


def test_split_forced(capsys):
    code, rep = run_json(capsys, ["split", "--class", "3;2,1,1,1,1,1,1"])
    assert code == 0
    assert (rep["a"], rep["b"]) == (1, 2)
    assert rep["forced"] is True
    assert rep["provisional"] == []


def test_split_pipeline(capsys):
    cls = "13;5,5,5,5,5,5,4,1,1,1,1"
    code, rep = run_json(capsys, ["split", "--class", cls])
    assert code == 0
    assert (rep["a"], rep["b"]) == (5, 8)
    assert rep["forced"] is False
    assert rep["provisional"] == [cls]
    assert rep["candidates"] == [[5, 8], [6, 7]]


def test_predict_split(capsys):
    code, rep = run_json(capsys, ["predict-split", "--class", "12;5,5,5,4,4,4,4,2"])
    assert code == 0
    assert rep["type"] == [5, 7]
    assert rep["defect"] == 21
    assert rep["rejected"] == [{"type": [6, 6], "score": 20}]


def test_verify_cokernel_both_methods(capsys):
    code, rep = run_json(
        capsys,
        ["verify-cokernel", "--class", "3;2,1,1,1,1,1,1", "--m", "3", "--method", "both"],
    )
    assert code == 0
    assert rep["match"] is True
    assert rep["splitting"] == [1, 2]
    assert {r["method"]: r["computed"] for r in rep["results"]} == {
        "formula": 1,
        "oracle": 1,
    }


@pytest.mark.parametrize(
    "method, prime, code",
    [("oracle", "3", 2), ("oracle", "7", 2), ("formula", "5", 0), ("oracle", None, 0)],
)
def test_verify_cokernel_needs_prime_above_matrix_degree(capsys, method, prime, code):
    # For the cubic at m = 3 the oracle interpolates in degree m d + 2 = 11
    # and the formula route in t' = 4. At p <= 11 the oracle's partials lose
    # falling-factorial coefficients mod p: p = 3 used to print a computed
    # cokernel of -33 (exit 3), p = 7 a false violation.
    argv = ["verify-cokernel", "--class", "3;2,1,1,1,1,1,1", "--m", "3", "--method", method]
    assert run(argv + (["--prime", prime] if prime else [])) == code
    out, err = capsys.readouterr()
    if code:
        assert out == ""
        assert f"prime {prime}" in err and "degree 11" in err
    else:
        assert json.loads(out)["results"] == [
            {"computed": 1, "match": True, "method": method, "predicted": 1}
        ]


def test_verify_cokernel_mismatch_exits_3(capsys, monkeypatch):
    def fake(e, m, p, seed, method, ceiling, splitting):
        return MuVerdict(SplittingType(1, 2), 1, 2)

    monkeypatch.setattr("fatpt.cli.cok_dimension", fake)
    code = run(["verify-cokernel", "--class", "3;2,1,1,1,1,1,1", "--m", "3"])
    capsys.readouterr()
    assert code == 3


def test_verify_cokernel_infeasible_exits_1(capsys):
    code = run(
        [
            "verify-cokernel",
            "--class",
            "19;7,7,7,7,7,7,7,4,1,1,1",
            "--m",
            "2",
            "--ceiling",
            "10",
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("infeasible:")


def test_split_infeasible_counts_rejections_by_reason(capsys):
    # At p = 29 most draws of this class put a point on a Cremona center,
    # and all 10 attempts of the first trial are rejected.
    code = run(["split", "--class", "8;3,3,3,3,3,3,3,1,1", "--prime", "29"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("infeasible: no nondegenerate configuration in 10 attempts")
    counts = dict(part.rsplit(": ", 1) for part in err.rstrip()[:-1].split(" (", 1)[1].split("; "))
    assert "point collides with a Cremona center" in counts
    assert sum(int(k) for k in counts.values()) == 10


def test_enumerate_exceptional(capsys):
    code, rep = run_json(capsys, ["enumerate-exceptional", "--max-degree", "3"])
    assert code == 0
    assert rep["count"] == 3
    assert [r["class"] for r in rep["rows"]] == [
        "1;1,1",
        "2;1,1,1,1,1",
        "3;2,1,1,1,1,1,1",
    ]
    assert [r["forced"] for r in rep["rows"]] == [[0, 1], [1, 1], [1, 2]]


@pytest.mark.parametrize("max_degree", [-1, 0, 1, 3, 8, 14])
def test_enumerate_writer_matches_json_dumps(capsys, monkeypatch, max_degree):
    # The fixed-shape row writer gives the bytes of the indenting encoder,
    # for empty rows, rows with and without a forced type, and many rows.
    argv = ["enumerate-exceptional", "--max-degree", str(max_degree)]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    monkeypatch.setattr(cli, "_enumerate_json", lambda r: json.dumps(r, indent=2, sort_keys=True))
    assert run(argv) == 0
    assert capsys.readouterr().out == out


def test_sweep_small_all_guaranteed(capsys):
    code, rep = run_json(capsys, ["sweep", "--max-degree", "3"])
    assert code == 0
    assert rep["total"] == 3
    assert rep["guaranteed"] == 3
    assert rep["escapes"] == []


def test_sweep_verify_progress_lines(capsys):
    # Degree 15 has three escapes; each verified one gets a stderr line, in
    # report order.
    assert run(["sweep", "--max-degree", "15", "--verify"]) == 0
    out, err = capsys.readouterr()
    escapes = [r["class"] for r in json.loads(out)["escapes"]]
    assert len(escapes) == 3
    assert err.splitlines() == [f"verified {k}/3: {c}" for k, c in enumerate(escapes, 1)]


def _count_splittings(monkeypatch):
    """A list that gets one (class, trials) entry per class drawn, and the
    list of each call's classes."""
    calls, batches = [], []
    original = splitting.compute_splittings

    def counted(classes, p, seed, trials):
        calls.extend((e, trials) for e in classes)
        batches.append(list(classes))
        return original(classes, p, seed, trials)

    monkeypatch.setattr(splitting, "compute_splittings", counted)
    return calls, batches


def test_sweep_verify_splits_each_class_once(capsys, monkeypatch):
    # The classification draws every provisional class once, all in one
    # call, and the verification predicts with the types it found.
    calls, batches = _count_splittings(monkeypatch)
    code, rep = run_json(
        capsys, ["sweep", "--max-degree", "15", "--trials", "1", "--verify"]
    )
    assert code == 0
    assert rep["verification"]
    assert [format_class(e) for e, _ in calls] == rep["provisional"]
    assert {trials for _, trials in calls} == {1}
    assert len(batches) == 1


def test_each_request_draws_its_own_classes(capsys, monkeypatch):
    calls, _ = _count_splittings(monkeypatch)
    argv = ["split", "--class", "13;5,5,5,5,5,5,4,1,1,1,1"]
    _, first = run_json(capsys, argv)
    assert len(calls) == 1
    _, second = run_json(capsys, argv)
    assert len(calls) == 2
    assert first == second


def test_verify_cokernel_both_methods_draw_the_class_once(capsys, monkeypatch):
    # The oracle predicts with the type the formula verdict holds.
    calls, batches = _count_splittings(monkeypatch)
    argv = ["verify-cokernel", "--class", "8;3,3,3,3,3,3,3,1,1", "--m", "1", "--method", "both"]
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert [r["method"] for r in rep["results"]] == ["formula", "oracle"]
    assert rep["provisional"] == ["8;3,3,3,3,3,3,3,1,1"]
    assert batches == [[parse_class("8;3,3,3,3,3,3,3,1,1")]]


def test_alpha_memo_cleared_per_request(capsys):
    argv = ["resolution", "--mults", "48,33x3,32x3,24,16"]
    _, first = run_json(capsys, argv)
    info = linsys.alpha_degree.cache_info()
    assert info.misses == 1 and info.hits > 0  # one alpha per request
    _, second = run_json(capsys, argv)
    assert linsys.alpha_degree.cache_info() == info
    assert first == second


def test_parser_survives_a_failed_parse(capsys, monkeypatch):
    good = ["hilbert", "--mults", "5,5,4x3", "--format", "tsv"]
    alone = run(good)
    alone_out = capsys.readouterr().out

    def rebuilt():
        raise AssertionError("the parser is built once per process")

    monkeypatch.setattr(cli, "_build_parser", rebuilt)
    for bad in (["hilbert"], ["hilbert", "--mults", "5,5", "--bogus"], ["nosuch"]):
        assert run(bad) == 2
        capsys.readouterr()
        assert run(good) == alone
        assert capsys.readouterr().out == alone_out


def test_reports_byte_identical(capsys):
    argv = ["resolution", "--mults", "50,50,38,38,26,26,22,18,14,14"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


# sha256 of each report's stdout (of stderr for a nonzero exit). A change
# meant to leave reports byte-identical keeps these. The cases cover every
# subcommand, JSON and TSV for the row-shaped ones, a non-default prime and
# seed, and one rejected input.
GOLDEN_REPORTS = [
    ('hilbert --mults 5,5,4x3', 0, "dae019fdce309314f2cb82d1a63ea45f30977dff5811bc64d815bf61c7f11b20"),
    ('hilbert --mults 5,5,4x3 --deg 5', 0, "00d04bb01525d42df1d40b83bb7a2d7a16183aca44edf9f0935cb05863e5c7e0"),
    ('hilbert --mults 77x7,44,11,11,11 --deg 208..211 --format tsv', 0, "e63f62ad0fd23e81fe5d063c72c399a97529778937025dfaafa5bb9ff5f4d3ae"),
    ('resolution --mults 48,33x3,32x3,24,16', 0, "fd6f4942e06422890b2053fed8070fbfd891e7939b7683a63df95e66f82a2101"),
    ('resolution --mults 3,3,2,1,1', 0, "5afc7543c90d8656553d3117c3f6e09c56b308121b0b136413f7108abb959201"),
    ('resolution --mults 50,50,38,38,26,26,22,18,14,14 --format tsv', 0, "83d142d55553164e494c5952a96d5a91a0da76b56b9e2f2a65ee4c3e9745b6bc"),
    # An interval cell (lo..hi, a [lo, hi] array in JSON) and an unknown
    # cell (?, null in JSON).
    ('resolution --mults 30,28,20,18,18,14,11,9,5,4,2 --format tsv', 0, "cf1bdd8bb2fea1608404824af4dc5642de2f772fb14ab9b41e0dc6ae9fbb8db8"),
    ('resolution --mults 30,28,20,18,18,14,11,9,5,4,2', 0, "880ec462212669ce0fcd2fdb37cf157b7b08fae465ed4b256bf9cffb67affb06"),
    ('resolution --mults 30,20,19,18,12,5 --format tsv', 0, "9071fc075bc0b4905860d514d9e7de5c68b1c16c81a3ff59dce020b54185efff"),
    ('resolution --mults 30,20,19,18,12,5', 0, "0ffe2c0b3bcfdc607b806b826087d571d72e9c654e1a795f1724c85970dc1a1b"),
    ('reduce --class 209;77,77,77,77,77,77,77,44,11,11,11', 0, "2e67846b2d98da24e90edfba185763c239710fbe5a48569d4d5361b493d2fae4"),
    ('decompose --class 3;2,2,-2', 0, "54713c39fe905b602ca119b61e0f5f7c3160a62e67bbfd88cc388c0ba6dd3514"),
    ('split --class 13;5,5,5,5,5,5,4,1,1,1,1 --prime 1009 --seed 7', 0, "ed6ad48ce45b54ece8ab1d55f9741e4a96c24882fab05d6202dbd7ff5f3ebfbf"),
    ('predict-split --class 12;5,5,5,4,4,4,4,2', 0, "00abe9c2acbbaa5d4284bca9e72d36c9fe8d0f231ba8dae3e09238f51cf2eb57"),
    ('verify-cokernel --class 3;2,1,1,1,1,1,1 --m 3 --method both', 0, "a2212972539d89542e9e4be263161383987756cd87f3edccc751f2b388f28809"),
    ('enumerate-exceptional --max-degree 6', 0, "cc57d768cedeeb0c2f03a8c3359eb8999ae439279700944c1cb606c29b33c94b"),
    ('enumerate-exceptional --max-degree 6 --format tsv', 0, "7ed0208a657c27030b64c2c6e7610e28210af917a695b9b0d549bb311f48995c"),
    ('enumerate-exceptional --max-degree 0', 0, "86f277074674ca90ad890be84f4bbb598c44edc0fdb692d30d370a82bccb0a83"),
    ('enumerate-exceptional --max-degree 16', 0, "6bc82ad64a22fa3bb83fcd673f634f4a0a0dc760f3397e5ae32729908f31aa50"),
    # The first two random schemes of the benchmark's lattice workload.
    ('resolution --mults 78,75,74,67,65,56,47,8,5', 0, "e54b7bc0e45aab54d583fca0334649e40d15c9caf0298d7ae81a2315a0d98c85"),
    ('hilbert --mults 65,34,30,26,23,20,18,16,14,6,3', 0, "f500afe8ffe538314820847aef2d1793317e92df0330e85057699a0ce4ee57e0"),
    ('sweep --max-degree 13 --verify --prime 2147483647', 0, "bf0606d77f29b163cc0ba6f83c4a5a1535ccf5bbe4a65eb999758b14dc2e8af5"),
    ('sweep --max-degree 13 --trials 1 --format tsv', 0, "aff9b5ddfe7d1a36794161d2f939a59969cf3f8885b31d2301fbd1361494dc32"),
    # Small primes: 21 draws of the first are rejected and drawn again (5
    # Cremona collisions, 16 second-rank mismatches); the second exits at
    # the first class whose trial runs out of attempts, with its rejections.
    ('sweep --max-degree 16 --prime 211', 0, "1ac37e79c993f0a584a11efa04805f2cc354e61cbd58314e3f71b95764eb4475"),
    ('sweep --max-degree 13 --verify --prime 29', 1, "30f692375979a573f63346d73dc967cf0c50ac5afdc56687e594ec13f5edc947"),
    ('sweep --max-degree 3 --trials 0 --ceiling 0', 2, "6586cc37c3893c0277612e0e351f615794a825c28f65b7db9f84a24416c643eb"),
    # Reports whose provisional list is not empty: a conjugate point class
    # that is drawn, a drawn cokernel class, and a drawn Betti component.
    ('predict-split --class 13;5,5,5,5,5,5,4,1,1,1,1', 0, "72dd8e731ef4dbb88d3adc7f2269157a813bac7b57983e539d69164fc0036ee1"),
    ('verify-cokernel --class 8;3,3,3,3,3,3,3,1,1 --m 5', 0, "a900ee1ab7a4d5e936e09ffbf65ba439d95ad42b1bff4a6c04880773ba5d31bf"),
    ('resolution --mults 77x7,44,11x3', 0, "033feb27f6332872147d134cea137c6a6f241d749259653dfc53ebb5a8058f44"),
    # A verified sweep as TSV (the status column), and a class whose type
    # is forced, through split and through predict-split's companion branch.
    ('sweep --max-degree 14 --verify --format tsv', 0, "467c80dccd519a913c7812f619268d3d4cefb1bb32f2c396c698bb069a0166fa"),
    ('split --class 3;2,1,1,1,1,1,1', 0, "3686f37fc4cab38e45474d8041dd1427fc1102ba1955dba865914c98db78cccb"),
    ('predict-split --class 3;2,1,1,1,1,1,1', 0, "751b631864b228c28f6903ebb5893f98b6d67e9692b3679557b2545924e5047e"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN_REPORTS, ids=[a for a, _, _ in GOLDEN_REPORTS])
def test_golden_report_digests(capsys, argv, code, digest):
    assert run(argv.split()) == code
    out, err = capsys.readouterr()
    if code:
        assert out == ""
    text = out if code == 0 else err
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.extended
@pytest.mark.parametrize(
    "degree, total, escapes, digest",
    [
        (28, 17382, 397, "71c50e432a77b9e09b1699f415de680fa77275d915679568c5e61077235944e0"),
        (32, 43891, 1231, "6176d4edbf0ad65bc8a3c7c7749d2dcf47e5ff84ab8c6ce97ba5ef9169a0df18"),
    ],
    ids=["28", "32"],
)
def test_verified_census_digest(capsys, degree, total, escapes, digest):
    # The large censuses, the paper's appendix check carried further: every
    # escape up to the degree verified at the default prime and seed, none
    # violating or skipped, report pinned.
    assert run(["sweep", "--max-degree", str(degree), "--verify"]) == 0
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert (rep["total"], len(rep["escapes"]), rep["violations"]) == (total, escapes, 0)
    assert len(rep["verification"]) == escapes
    assert not any("skipped" in row for row in rep["verification"])
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_env_prime_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("FATPT_PRIME", "101")
    _, rep = run_json(capsys, ["reduce", "--class", "1;1,1"])
    assert rep["prime"] == 101
    _, rep = run_json(capsys, ["reduce", "--class", "1;1,1", "--prime", "31991"])
    assert rep["prime"] == 31991


def test_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("FATPT_SEED", "777")
    _, rep = run_json(capsys, ["reduce", "--class", "1;1,1"])
    assert rep["seed"] == 777


def test_invalid_env_prime(capsys, monkeypatch):
    monkeypatch.setenv("FATPT_PRIME", "10")
    code = run(["reduce", "--class", "1;1,1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "FATPT_PRIME" in err


def test_invalid_inputs_exit_2(capsys):
    assert run(["hilbert", "--mults", "5,x"]) == 2
    assert "x" in capsys.readouterr().err
    assert run(["reduce", "--class", "garbage"]) == 2
    capsys.readouterr()
    assert run(["hilbert", "--mults", "3,2", "--deg", "5..1"]) == 2
    assert "empty range" in capsys.readouterr().err
    assert run(["split", "--class", "2;1,1"]) == 2
    capsys.readouterr()


def test_every_error_maps_to_its_documented_exit_code(capsys, monkeypatch):
    # Each exception class that fatpt.errors defines, raised by a handler,
    # ends in the exit code the errors docstring gives it, with its message
    # on stderr, and never in a traceback.
    documented = {getattr(errors, name): int(code) for name, code in re.findall(r"(\w+) -> (\d)", errors.__doc__)}
    defined = [v for v in vars(errors).values() if isinstance(v, type) and v.__module__ == errors.__name__]
    codes = {}
    for cls in defined:

        def handler(args, cls=cls):
            raise cls(f"raised {cls.__name__}")

        monkeypatch.setitem(cli._HANDLERS, "reduce", handler)
        codes[cls] = run(["reduce", "--class", "1;1,1"])
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(f"raised {cls.__name__}\n")
    assert codes == documented == {errors.InputError: 2, errors.InfeasibleError: 1, errors.ConjectureViolation: 3}


@pytest.mark.parametrize(
    "argv",
    [["split"], ["predict-split"], ["verify-cokernel", "--m", "3", "--method", "both"]],
    ids=["split", "predict-split", "verify-cokernel"],
)
def test_forced_degree_non_exceptional_class_exits_2(capsys, argv):
    # E.E = -1 and K.E = -1, and the degree forces a type (5 <= 2*3 + 1),
    # but the reduction does not end at a point: the class is not
    # exceptional. splittings_of would hand it the forced (2, 3) unchecked,
    # so the commands that take a class reject it first.
    cls = "5;3,3,1,1,1,1,1,1,1,1"
    e = parse_class(cls)
    assert selfint(e) == -1 == intersect(canonical_class(e.n), e) and not is_exceptional(e)
    with pytest.raises(InputError, match="is not an exceptional class"):
        compute_splittings([e])
    assert run([argv[0], "--class", cls, *argv[1:]]) == 2
    out, err = capsys.readouterr()
    if argv[0] == "predict-split":
        assert err == f"error: prediction needs c.c = 1 or an exceptional class, got {cls}\n"
    else:
        assert err == f"error: {cls} is not an exceptional class\n"
    assert out == ""


def test_argparse_failures_exit_2(capsys):
    assert run([]) == 2
    assert run(["reduce", "--class", "1;1,1", "--format", "tsv"]) == 2
    capsys.readouterr()


def test_progress_stays_on_stderr(capsys):
    code = run(["sweep", "--max-degree", "3", "--verify"])
    out, err = capsys.readouterr()
    assert code == 0
    json.loads(out)  # stdout is a clean report even with --verify progress


@pytest.mark.parametrize("trials", ["-1", "0"])
@pytest.mark.parametrize(
    "argv",
    [["split", "--class", "8;3,3,3,3,3,3,3,1,1"], ["sweep", "--max-degree", "10"]],
    ids=["split", "sweep"],
)
def test_rejects_trials_below_one(argv, trials):
    src = os.path.dirname(os.path.dirname(fatpt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "fatpt", *argv, "--trials", trials],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--trials" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("ceiling", ["-1", "0"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify-cokernel", "--class", "8;3,3,3,3,3,3,3,1,1", "--m", "5"],
        ["sweep", "--max-degree", "13", "--verify"],
    ],
    ids=["verify-cokernel", "sweep"],
)
def test_rejects_ceiling_below_one(argv, ceiling):
    # verify-cokernel used to report these as infeasible (exit 1), and sweep
    # as exit 0 with every escape skipped.
    src = os.path.dirname(os.path.dirname(fatpt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "fatpt", *argv, "--ceiling", ceiling],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--ceiling" in proc.stderr
    assert "Traceback" not in proc.stderr
