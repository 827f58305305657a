import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from debruijn_arrays import cli, search
from debruijn_arrays.cli import main
from debruijn_arrays.construct import construct_l_array
from debruijn_arrays.grid import DigitGrid
from debruijn_arrays.search import SearchConfig, enumerate_l_arrays
from debruijn_arrays.verify import verify_l_array


SRC = Path(__file__).resolve().parent.parent / "src"
# address-space cap for each CLI child and the pool workers it forks
CHILD_MEMORY_CAP = 1 << 30


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_CAP, CHILD_MEMORY_CAP))


def run_child(argv, cwd, timeout=60.0):
    """Run the CLI in a fresh interpreter under the memory cap, with an empty
    stdin; on a timeout, kill it and its pool workers and fail."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "debruijn_arrays.cli", *argv], cwd=cwd,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=child_env(), preexec_fn=_cap_memory,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{argv} ran over {timeout} s")
    return proc.returncode, out, err


class TestConstruct:
    def test_k2_text(self, capsys):
        code, out, _ = run(capsys, "construct", "--k", "2")
        assert code == 0
        assert out == "2\n0 0 1 1\n0 1 1 0\n"

    def test_k1_rejected(self, capsys):
        code, _, err = run(capsys, "construct", "--k", "1")
        assert code == 2
        assert err

    def test_oversized_grid_exit_2(self, capsys):
        code, out, err = run(capsys, "construct", "--k", "3000")
        assert code == 2 and not out
        assert "error:" in err

    def test_k3_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "construct", "--k", "3", "--format", "json")
        assert code == 0
        assert DigitGrid.from_json(out) == construct_l_array(3)

    def test_output_reverifies(self, tmp_path, capsys):
        code, out, _ = run(capsys, "construct", "--k", "4")
        path = tmp_path / "g.txt"
        path.write_text(out)
        code, _, _ = run(capsys, "verify", "--k", "4", "--shape", "l-array", str(path))
        assert code == 0


class TestVerify:
    def test_torus_fixture(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("2\n0 0 1 0\n1 1 1 0\n0 1 1 1\n0 1 0 0\n")
        code, out, _ = run(capsys, "verify", "--k", "2",
                           "--shape", "torus", "2", "2", str(path))
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_invalid_grid_exit_1(self, tmp_path, capsys):
        path = tmp_path / "z.txt"
        path.write_text("2\n0 0 0 0\n0 0 0 0\n")
        code, out, _ = run(capsys, "verify", "--k", "2", "--shape", "l-array", str(path))
        assert code == 1
        report = json.loads(out)
        assert report["duplicated"] == [[[0, 0, 0], 8]]
        assert len(report["missing"]) == 7

    def test_truncated_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 0 1 1\n")
        code, _, err = run(capsys, "verify", "--k", "2", "--shape", "l-array", str(path))
        assert code == 2
        assert err

    def test_sequence_shape(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("00010111\n")
        code, out, _ = run(capsys, "verify", "--k", "2",
                           "--shape", "sequence", "3", str(path))
        assert code == 0

    def test_k_mismatch_exit_2(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("3\n" + "0 " * 8 + "0\n" + "0 " * 8 + "0\n" + "0 " * 8 + "0\n")
        code, _, err = run(capsys, "verify", "--k", "2", "--shape", "l-array", str(path))
        assert code == 2

    def test_json_input(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(construct_l_array(3).to_json())
        code, _, _ = run(capsys, "verify", "--k", "3", "--shape", "l-array",
                         "--format", "json", str(path))
        assert code == 0

    @pytest.mark.parametrize("shape", [["l-array"], ["torus", "1", "3"],
                                       ["sequence", "3"]])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_undecodable_file_exit_2(self, tmp_path, shape, fmt):
        # a byte that is not UTF-8 is malformed input, as it is on stdin
        (tmp_path / "bad.txt").write_bytes(b"2\n0 0 \xff 1\n0 1 1 0\n")
        code, out, err = run_child(["verify", "--k", "2", "--shape", *shape,
                                    "--format", fmt, "bad.txt"], tmp_path)
        assert code == 2 and out == b""
        assert err.startswith(b"error:") and b"Traceback" not in err

    @pytest.mark.parametrize("shape", [["l-array"], ["torus", "1", "3"]])
    def test_json_booleans_are_not_digits(self, tmp_path, capsys, shape):
        # the construction's k=2 grid, written as false/true
        path = tmp_path / "g.json"
        path.write_text('{"k": 2, "rows": [[false, false, true, true], '
                        '[false, true, true, false]]}')
        code, out, err = run(capsys, "verify", "--k", "2", "--shape", *shape,
                             "--format", "json", str(path))
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_dimension_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("2\n0 1\n1 0\n")
        code, _, err = run(capsys, "verify", "--k", "2",
                           "--shape", "torus", "2", "2", str(path))
        assert code == 2

    @pytest.mark.parametrize("shape", [
        ["cube"],                   # unknown kind
        ["l-array", "5", "6"],      # extra tokens beside the input path
        ["torus", "2"],             # missing a window dim
        ["torus", "2", "x"],        # non-integer window dim
        ["sequence"],               # missing the window length
        ["sequence", "3", "4"],     # one token too many
    ])
    def test_malformed_shape_exit_2(self, tmp_path, capsys, shape):
        path = tmp_path / "t.txt"
        path.write_text("2\n0 0 1 0\n1 1 1 0\n0 1 1 1\n0 1 0 0\n")
        code, out, err = run(capsys, "verify", "--k", "2", "--shape", *shape,
                             str(path))
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_torus_k_mismatch_exit_2(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("3\n0 0 1 0\n1 1 1 0\n0 1 1 1\n0 1 0 0\n")
        code, out, err = run(capsys, "verify", "--k", "2",
                             "--shape", "torus", "2", "2", str(path))
        assert code == 2
        assert out == "" and "declares k=3" in err


class TestSequenceAndCount:
    def test_sequence_verifies(self, tmp_path, capsys):
        code, out, _ = run(capsys, "sequence", "--k", "2", "--n", "3")
        assert code == 0
        path = tmp_path / "w.txt"
        path.write_text(out)
        code, _, _ = run(capsys, "verify", "--k", "2",
                         "--shape", "sequence", "3", str(path))
        assert code == 0

    @pytest.mark.parametrize("k,n", [("1", "3"), ("2", "0")])
    def test_sequence_greedy_domain_exit_2(self, capsys, k, n):
        code, out, err = run(capsys, "sequence", "--k", k, "--n", n,
                             "--method", "greedy")
        assert code == 2
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("method", ["euler", "greedy"])
    def test_sequence_over_budget_exit_2(self, capsys, method):
        code, out, err = run(capsys, "sequence", "--k", "2", "--n", "40",
                             "--method", method)
        assert code == 2
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("method,k,n,expected", [
        ("formula", "2", "3", "2"),
        ("brute", "3", "2", "24"),
        ("best", "2", "4", "16"),
    ])
    def test_counts(self, capsys, method, k, n, expected):
        code, out, _ = run(capsys, "count", "--k", k, "--n", n, "--method", method)
        assert code == 0
        assert out.strip() == expected

    def test_count_all_consistent(self, capsys):
        code, out, _ = run(capsys, "count", "--k", "2", "--n", "3", "--method", "all")
        assert code == 0
        assert out.strip() == "2"

    def test_count_methods_disagree_exit_4(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "count_brute", lambda k, n: 3)
        code, out, err = run(capsys, "count", "--k", "2", "--n", "3",
                             "--method", "all")
        assert code == cli.EXIT_INCONSISTENT
        assert out == "" and err.startswith("error: count methods disagree")

    def test_brute_over_budget_exit_2(self, capsys):
        code, _, err = run(capsys, "count", "--k", "2", "--n", "5", "--method", "brute")
        assert code == 2
        assert err

    @pytest.mark.parametrize("method", ["formula", "best", "all"])
    @pytest.mark.parametrize("k,n", [("2", "15"), ("4", "7"), ("2", "40"),
                                     ("60", "2")])
    def test_count_over_digit_limit_exit_2(self, capsys, method, k, n):
        # each count has over 4 300 decimal digits, more than CPython prints
        start = time.monotonic()
        code, out, err = run(capsys, "count", "--k", k, "--n", n,
                             "--method", method)
        assert time.monotonic() - start < 1.0
        assert code == 2
        assert out == "" and "error:" in err and "Traceback" not in err
        if method == "all":
            assert err.count("note:") == 3  # every method skipped

    def test_count_at_the_digit_limit_prints(self, capsys):
        code, out, _ = run(capsys, "count", "--k", "2", "--n", "14",
                           "--method", "all")
        assert code == 0
        assert int(out) == 2 ** (2 ** 13 - 14)

    def test_best_over_budget_exit_2_at_once(self, capsys):
        start = time.monotonic()
        code, out, err = run(capsys, "count", "--k", "2", "--n", "40",
                             "--method", "best")
        assert time.monotonic() - start < 1.0
        assert code == 2
        assert out == "" and err.startswith("error:")


class TestEnumerate:
    def test_k2_complete(self, capsys):
        code, out, err = run(capsys, "enumerate", "--k", "2")
        assert code == 0
        report = json.loads(err.strip().splitlines()[-1])
        assert report["complete"] is True
        assert report["raw_count"] == 16
        blocks = out.strip().split("\n\n")
        assert len(blocks) == 16
        for block in blocks:
            DigitGrid.from_text(block + "\n")

    def test_limit_truncates_exit_3(self, capsys):
        code, out, err = run(capsys, "enumerate", "--k", "3", "--limit", "2")
        assert code == 3
        report = json.loads(err.strip().splitlines()[-1])
        assert report["complete"] is False
        assert report["raw_count"] == 2
        assert len(out.strip().split("\n\n")) == 2

    @pytest.mark.parametrize("k,limit", [(2, None), (3, 2000), (4, 3)])
    def test_text_format_is_to_text(self, capsys, k, limit):
        # 256 grids go to each write call: 2 000 k=3 grids cross several
        # call boundaries
        argv = ["enumerate", "--k", str(k)]
        if limit is not None:
            argv += ["--limit", str(limit)]
        _, out, _ = run(capsys, *argv)
        grids, _ = enumerate_l_arrays(SearchConfig(k=k, limit=limit))
        assert out == "\n".join(g.to_text() for g in grids)

    def test_grid_failing_verification_exit_4(self, monkeypatch, capsys):
        # the search's output is verified before it is expanded or written
        flat = construct_l_array(2).cells
        bad = flat[:-1] + (1 - flat[-1],)
        monkeypatch.setattr(search, "_run_shards",
                            lambda *args: ([bad], 0, True))
        code, out, err = run(capsys, "enumerate", "--k", "2")
        assert code == cli.EXIT_INCONSISTENT
        assert out == "" and err.startswith("error: ")
        assert "Traceback" not in err

    def test_json_format(self, capsys):
        code, out, err = run(capsys, "enumerate", "--k", "2", "--format", "json")
        assert code == 0
        arr = json.loads(out)
        assert len(arr) == 16
        assert all(a["k"] == 2 for a in arr)
        grids, _ = enumerate_l_arrays(SearchConfig(k=2))
        assert out == "[" + ", ".join(g.to_json() for g in grids) + "]\n"
        # the same bytes as one json.dumps of the whole list
        assert out == json.dumps([json.loads(g.to_json()) for g in grids],
                                 separators=(", ", ": ")) + "\n"

    def test_report_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, _, err = run(capsys, "enumerate", "--k", "2",
                           "--report-file", str(path))
        assert code == 0
        report = json.loads(path.read_text())
        assert report["raw_count"] == 16
        assert err == ""

    def test_bad_flags_exit_2(self, capsys):
        code, _, err = run(capsys, "enumerate", "--k", "1")
        assert code == 2

    @pytest.mark.parametrize("budget", ["nan", "inf", "-inf"])
    def test_non_finite_budget_exit_2(self, capsys, budget):
        code, out, err = run(capsys, "enumerate", "--k", "4", "--limit", "1",
                             f"--time-budget={budget}")
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_unwritable_report_file_exit_2_before_search(self, monkeypatch,
                                                          tmp_path, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the search must not run")
        monkeypatch.setattr(cli, "enumerate_l_arrays", refuse)
        code, out, err = run(capsys, "enumerate", "--k", "2", "--report-file",
                             str(tmp_path / "missing" / "report.json"))
        assert code == 2
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, capsys, workers):
        code, out, err = run(capsys, "enumerate", "--k", "2",
                             "--workers", workers)
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_import_leaves_the_process_pool_unloaded(self):
        # the pool is imported only where a run starts one
        out = subprocess.run(
            [sys.executable, "-S", "-c", "import sys, debruijn_arrays.cli; "
             "print('concurrent.futures.process' in sys.modules)"],
            capture_output=True, text=True, env=child_env(), check=True).stdout
        assert out == "False\n"

    def test_k4_limit_1_emits_a_grid_at_once(self, capsys):
        start = time.monotonic()
        code, out, err = run(capsys, "enumerate", "--k", "4", "--limit", "1")
        assert time.monotonic() - start < 1.0
        assert code == 3
        assert json.loads(err.strip().splitlines()[-1])["raw_count"] == 1
        blocks = out.strip().split("\n\n")
        assert len(blocks) == 1
        assert verify_l_array(DigitGrid.from_text(blocks[0] + "\n")).valid

    @pytest.mark.parametrize("k", ["9", "10", "200", "2000"])
    def test_orbit_too_large_exit_2(self, capsys, k):
        # the guard holds whether or not a solution limit bounds the run
        for limit in ([], ["--limit", "1"]):
            start = time.monotonic()
            code, out, err = run(capsys, "enumerate", "--k", k,
                                 "--time-budget", "1", *limit)
            assert time.monotonic() - start < 1.0
            assert code == 2
            assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("k,symmetry", [("8", "translations"),
                                            ("7", "translations+relabel")])
    def test_quotient_orbit_too_large_exit_2(self, capsys, k, symmetry):
        start = time.monotonic()
        code, out, err = run(capsys, "enumerate", "--k", k, "--symmetry",
                             symmetry, "--time-budget", "1")
        assert time.monotonic() - start < 1.0
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_closed_stdout_exits_141_without_traceback(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "debruijn_arrays.cli", "enumerate",
             "--k", "3", "--symmetry", "translations"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        try:
            assert proc.stdout.readline() == b"3\n"
            proc.stdout.close()  # like `| head -1`
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE
        finally:
            proc.kill()
            proc.wait()
        assert b"Traceback" not in err


# stdout sha256 of enumerate runs; the k=3 searches take seconds each
GOLDEN = [
    ("--k 2",
     "b251817dcce43ce8150ed031f9539bcfc49a3e8b50dfc319f5523fb400cb533a"),
    ("--k 2 --symmetry translations",
     "b92e7c54a963d5f34e5d1c1acd31d143ff51cbf8f0446c3789ccda908c8c892e"),
    # every k=2 translation orbit is its own relabel image's orbit
    ("--k 2 --symmetry translations+relabel",
     "b92e7c54a963d5f34e5d1c1acd31d143ff51cbf8f0446c3789ccda908c8c892e"),
    pytest.param(
        "--k 3",
        "5d0c90dd0c5fe5d5d62486174a65390ff81199901a74f8dc5fb806f99b23616e",
        marks=pytest.mark.slow),
    pytest.param(
        "--k 3 --workers 2",
        "5d0c90dd0c5fe5d5d62486174a65390ff81199901a74f8dc5fb806f99b23616e",
        marks=pytest.mark.slow),
    pytest.param(
        "--k 3 --symmetry translations",
        "55175650c53085e0fb096bd7c4a1d45ce3824d72ff0b711da2ab85d727f1535e",
        marks=pytest.mark.slow),
    pytest.param(
        "--k 3 --symmetry translations+relabel",
        "15d6c2e5e8e8c17dd46348df96ba7528ccf709bf1a9f5f1601190f07ca0c6a6c",
        marks=pytest.mark.slow),
    pytest.param(
        "--k 3 --limit 5",
        "5f44a059255d22bf0f703ee07b21b9d0887820547059f67b751a61eb7917f105",
        marks=pytest.mark.slow),
    ("--k 4 --limit 3 --symmetry translations+relabel",
     "e957344e45d6daee05b3538a19931c96797a2b5025a1225c0067798914c4defa"),
    # the JSON array is written in batches, like the text
    pytest.param(
        "--k 3 --format json",
        "15cef1e325a90d6292acb4538a88e5b14006314c807e5099d29eb585eb829314",
        marks=pytest.mark.slow),
    ("--k 4 --limit 3 --symmetry translations+relabel --format json",
     "4908b27b0dfe6439bf3c1c95fa564b6d763638f4494eabb9a0ce2a5424a2f0b9"),
]


@pytest.mark.parametrize("args,digest", GOLDEN)
def test_enumerate_golden_stdout(tmp_path, args, digest):
    code, out, err = run_child(["enumerate", *args.split()], tmp_path,
                               timeout=300.0)
    assert code in (0, 3), err
    assert hashlib.sha256(out).hexdigest() == digest


class TestUsage:
    def test_no_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--bogus"])
        assert exc.value.code == 2


# boundary alphabet sizes, and numbers that are bad for most options
K_VALUES = ["-1", "0", "1", "2", "3", "4", "5", "8", "200", "1000000000"]
BAD_NUMBERS = ["x", "nan", "inf", "0", "-1", "1e-9"]


@st.composite
def cli_argv(draw, paths):
    """argv from a small grammar of the five subcommands.  Enumerations
    use one or two workers; at k >= 3 each gets a time budget of at most
    0.5 s or a limit of at most 5 grids, and none runs at k = 7, whose
    single orbit costs seconds and hundreds of MB."""
    command = draw(st.sampled_from(
        ["construct", "verify", "sequence", "count", "enumerate"]))
    k = draw(st.sampled_from(K_VALUES))
    number = st.sampled_from(K_VALUES) | st.sampled_from(BAD_NUMBERS)
    argv = [command, "--k", k]
    if command == "construct":
        argv += ["--format", draw(st.sampled_from(["text", "json"]))]
    elif command == "sequence":
        argv += ["--n", draw(number),
                 "--method", draw(st.sampled_from(["euler", "greedy"]))]
    elif command == "count":
        argv += ["--n", draw(number), "--method",
                 draw(st.sampled_from(["formula", "best", "brute", "all"]))]
    elif command == "verify" and draw(st.booleans()):  # well-formed
        argv = ["verify", *draw(st.sampled_from(paths["requests"]))]
    elif command == "verify":
        argv += ["--shape", *draw(st.one_of(
            st.just(["l-array"]),
            st.tuples(st.just("torus"), number, number).map(list),
            st.tuples(st.just("sequence"), number).map(list)))]
        argv += ["--format", draw(st.sampled_from(["text", "json"])),
                 draw(st.sampled_from(paths["inputs"]))]
    else:
        argv += ["--workers", draw(st.sampled_from(["1", "2"])),
                 "--symmetry", draw(st.sampled_from(
                     ["none", "translations", "translations+relabel"])),
                 "--format", draw(st.sampled_from(["text", "json"]))]
        bounds = {"--limit": draw(st.sampled_from([None, "1", "5"])),
                  "--time-budget": draw(st.sampled_from([None, "0.1", "0.5"]))}
        if int(k) >= 3 and bounds == {"--limit": None, "--time-budget": None}:
            bounds["--time-budget"] = "0.5"
        # every bad number is refused or is a budget below 0.5 s
        bad = draw(st.sampled_from([None, None, "--limit", "--time-budget"]))
        if bad is not None:
            bounds[bad] = draw(st.sampled_from(BAD_NUMBERS))
        for flag, value in bounds.items():
            if value is not None:
                argv += [flag, value]
        report = draw(st.none() | st.sampled_from(paths["reports"]))
        if report is not None:
            argv += ["--report-file", report]
    return argv


@pytest.mark.slow
def test_cli_contract_on_drawn_argv(tmp_path):
    """Every drawn command line ends in a documented exit code without a
    traceback, and exit 1 only reports an invalid input to verify."""
    (tmp_path / "l2.txt").write_text(construct_l_array(2).to_text())
    (tmp_path / "l3.json").write_text(construct_l_array(3).to_json())
    (tmp_path / "zeros.txt").write_text("2\n0 0 0 0\n0 0 0 0\n")
    (tmp_path / "word.txt").write_text("00010111\n")
    (tmp_path / "junk.txt").write_text("not a grid\n")
    (tmp_path / "bad.txt").write_bytes(b"2\n0 0 \xff 1\n0 1 1 0\n")
    (tmp_path / "dir").mkdir()
    paths = {"inputs": ["l2.txt", "l3.json", "zeros.txt", "word.txt",
                        "junk.txt", "bad.txt", "missing.txt", "dir", "-"],
             "reports": ["report.json", "dir", "missing/report.json"],
             "requests": [
                 ["--k", "2", "--shape", "l-array", "l2.txt"],
                 ["--k", "3", "--shape", "l-array", "--format", "json",
                  "l3.json"],
                 ["--k", "2", "--shape", "l-array", "zeros.txt"],
                 ["--k", "2", "--shape", "torus", "1", "3", "zeros.txt"],
                 ["--k", "2", "--shape", "sequence", "3", "word.txt"],
                 ["--k", "2", "--shape", "sequence", "2", "word.txt"],
                 ["--k", "3", "--shape", "sequence", "2", "word.txt"]]}

    @settings(max_examples=100, derandomize=True, database=None,
              deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cli_argv(paths))
    def check(argv):
        code, out, err = run_child(argv, tmp_path)
        assert code in {0, 1, 2, 3, 4, 141}, (argv, code, err)
        assert b"Traceback" not in err, (argv, err)
        if code == 1:
            assert argv[0] == "verify", (argv, err)
            assert json.loads(out)["valid"] is False
    check()
