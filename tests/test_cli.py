import json
import os
import subprocess
import sys

import pytest

import fatpt
from fatpt import splitting
from fatpt.cli import run
from fatpt.cokernel import MuVerdict
from fatpt.lattice import format_class, parse_class
from fatpt.splitting import SplittingType


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


def test_verify_cokernel_mismatch_exits_3(capsys, monkeypatch):
    def fake(e, m, p, seed, method, ceiling):
        return MuVerdict(e, m, p, seed, SplittingType(1, 2), False, 1, 2, method)

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


def test_sweep_small_all_guaranteed(capsys):
    code, rep = run_json(capsys, ["sweep", "--max-degree", "3"])
    assert code == 0
    assert rep["total"] == 3
    assert rep["guaranteed"] == 3
    assert rep["escapes"] == []


def test_sweep_deterministic_across_jobs(capsys):
    # Degree 15 has three escapes, so --verify runs them through the pool.
    argv = ["sweep", "--max-degree", "15", "--verify"]
    assert run(argv + ["--jobs", "1"]) == 0
    first = capsys.readouterr().out
    assert len(json.loads(first)["verification"]) == 3
    assert run(argv + ["--jobs", "4"]) == 0
    second = capsys.readouterr().out
    assert first == second


def _count_splittings(monkeypatch):
    calls = []
    original = splitting.compute_splitting

    def counted(e, p, seed, trials):
        calls.append((e, trials))
        return original(e, p, seed, trials)

    monkeypatch.setattr(splitting, "compute_splitting", counted)
    return calls


def test_sweep_verify_splits_each_class_once(capsys, monkeypatch):
    calls = _count_splittings(monkeypatch)
    code, rep = run_json(
        capsys, ["sweep", "--max-degree", "15", "--trials", "1", "--verify"]
    )
    assert code == 0
    assert rep["verification"]
    assert sorted(format_class(e) for e, _ in calls) == sorted(rep["provisional"])
    assert {trials for _, trials in calls} == {1}


def test_splitting_memo_cleared_per_request(capsys, monkeypatch):
    calls = _count_splittings(monkeypatch)
    argv = ["split", "--class", "13;5,5,5,5,5,5,4,1,1,1,1"]
    _, first = run_json(capsys, argv)
    assert len(calls) == 1
    _, second = run_json(capsys, argv)
    assert len(calls) == 2
    assert first == second


def test_reports_byte_identical(capsys):
    argv = ["resolution", "--mults", "50,50,38,38,26,26,22,18,14,14"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


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


def test_argparse_failures_exit_2(capsys):
    assert run([]) == 2
    assert run(["reduce", "--class", "1;1,1", "--format", "tsv"]) == 2
    capsys.readouterr()


def test_progress_stays_on_stderr(capsys):
    code = run(["sweep", "--max-degree", "3", "--verify"])
    out, err = capsys.readouterr()
    assert code == 0
    json.loads(out)  # stdout is a clean report even with --verify progress


@pytest.mark.parametrize("jobs", ["-1", "0"])
def test_sweep_rejects_jobs_below_one(jobs):
    src = os.path.dirname(os.path.dirname(fatpt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "fatpt", "sweep", "--max-degree", "3", "--jobs", jobs],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--jobs" in proc.stderr
    assert "Traceback" not in proc.stderr


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
