"""Command-line interface: exit codes, output shapes, determinism, and
the JSON / CSV writers."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import hyperharmonic.cli as cli
from hyperharmonic import REGISTRY
from hyperharmonic.cli import BROKEN_PIPE, USAGE_ERROR, main
from report_digest import ARGV, OUTPUT_DIGESTS, REPORT_DIGEST, digest


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("HYPERHARMONIC_SEED", raising=False)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestList:
    def test_lists_whole_registry(self, capsys):
        rc, out, err = run_cli(capsys, "list")
        lines = out.strip().splitlines()
        assert rc == 0 and not err
        assert len(lines) == len(REGISTRY)
        assert lines[0].startswith("THM-A1")
        assert all(" tol " in line for line in lines)


class TestVerify:
    def test_single_id_passes(self, capsys):
        rc, out, err = run_cli(capsys, "verify", "--ids", "EX-1")
        assert rc == 0 and not err
        assert out.splitlines()[0].startswith("EX-1")
        assert "PASS" in out
        assert "1 checked: 1 passed, 0 failed, 0 errors" in out

    def test_quiet_suppresses_point_lines(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--ids", "COR-A1", "--quiet")
        assert rc == 0
        assert len(out.strip().splitlines()) == 2  # status + summary
        assert "|lhs-rhs|" not in out

    def test_multiple_ids_report_in_order(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--ids", "EX-2", "EX-1",
                             "--quiet")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("EX-2")
        assert lines[1].startswith("EX-1")

    def test_perturbation_fails_with_exit_2(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--ids", "EX-1",
                             "--perturb", "EX-1=1e-6")
        assert rc == 2
        assert "FAIL" in out and "MISMATCH" in out
        assert "1 checked: 0 passed, 1 failed, 0 errors" in out

    def test_perturbation_of_a_series_rhs_fails_with_exit_2(self, capsys):
        # THM-A1's right-hand side is one series and no closed form
        rc, out, _ = run_cli(capsys, "verify", "--ids", "THM-A1",
                             "--perturb", "THM-A1=1e-3")
        assert rc == 2
        assert "FAIL" in out and "MISMATCH" in out

    def test_negligible_perturbation_still_passes(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--ids", "EX-1",
                             "--perturb", "EX-1=1e-13", "--quiet")
        assert rc == 0 and "PASS" in out

    def test_tol_override(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--ids", "EX-1",
                             "--tol", "1e-2", "--perturb", "EX-1=1e-4",
                             "--quiet")
        assert rc == 0  # loose tolerance absorbs the fault

    def test_same_seed_is_byte_identical(self, capsys):
        args = ("verify", "--ids", "TR-2.11.2", "--seed", "77")
        rc1, out1, _ = run_cli(capsys, *args)
        rc2, out2, _ = run_cli(capsys, *args)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_seed_changes_sample_points(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--ids", "TR-2.11.2",
                             "--seed", "77")
        _, out2, _ = run_cli(capsys, "verify", "--ids", "TR-2.11.2",
                             "--seed", "78")
        assert out1 != out2

    def test_env_seed_wins(self, capsys, monkeypatch):
        _, baseline, _ = run_cli(capsys, "verify", "--ids", "TR-2.11.2",
                                 "--seed", "90")
        monkeypatch.setenv("HYPERHARMONIC_SEED", "90")
        _, out, _ = run_cli(capsys, "verify", "--ids", "TR-2.11.2",
                            "--seed", "12345")
        assert out == baseline

    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERHARMONIC_SEED", "not-a-number")
        rc, _, err = run_cli(capsys, "verify", "--ids", "EX-1")
        assert rc == USAGE_ERROR and "HYPERHARMONIC_SEED" in err

    def test_usage_errors(self, capsys, tmp_path):
        cases = [
            ("verify",),                                   # no ids, no --all
            ("verify", "--ids", "NOPE"),                   # unknown id
            ("verify", "--ids", "EX-1", "--jobs", "0"),    # unknown option
            ("verify", "--ids", "EX-1", "--perturb", "EX-1"),      # no '='
            ("verify", "--ids", "EX-1", "--perturb", "EX-1=abc"),  # bad eps
            ("verify", "--ids", "EX-1", "--perturb", "NOPE=1e-6"),
            ("frobnicate",),                               # unknown command
            # numbers that cannot be valid: an infinite perturbation wrote
            # inf and nan into the JSON report, a nan tolerance failed
            # every check
            ("verify", "--ids", "EX-1", "--perturb", "EX-1=inf",
             "--json", "-"),
            ("verify", "--ids", "EX-1", "--perturb", "EX-1=nan"),
            ("verify", "--ids", "EX-1", "--tol", "nan"),
            ("verify", "--ids", "EX-1", "--tol", "inf"),
            ("verify", "--ids", "EX-1", "--tol", "0"),
            ("verify", "--ids", "EX-1", "--tol", "-1e-9"),
            # report files that cannot be written
            ("verify", "--ids", "EX-1", "--json", str(tmp_path / "no" / "r.json")),
            ("verify", "--ids", "EX-1", "--json", str(tmp_path)),
        ]
        for argv in cases:
            rc, _, err = run_cli(capsys, *argv)
            assert rc == USAGE_ERROR, argv
            assert err, argv


class TestVerifyJson:
    def test_seeded_report_keeps_its_pinned_digest(self, capsys):
        # the same digest on every supported interpreter: the smoke job
        # runs tests/report_digest.py on the others
        rc, out, err = run_cli(capsys, *ARGV)
        assert rc == 0 and not err
        assert '"timestamp": "' in out
        assert digest(out) == REPORT_DIGEST

    @pytest.mark.parametrize("argv, expected", OUTPUT_DIGESTS,
                             ids=[" ".join(a[:3]) for a, _ in OUTPUT_DIGESTS])
    def test_other_outputs_keep_their_pinned_digests(self, capsys, argv,
                                                     expected):
        # the listing, a quiet report and CSV sweeps, which the seeded
        # report does not print
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 0 and not err
        assert digest(out) == expected

    def test_stdout_payload(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--ids", "EX-1", "--quiet",
                             "--json", "-")
        assert rc == 0
        start = out.index("{")
        payload = json.loads(out[start:])
        assert payload["run"]["command"] == "verify"
        assert payload["run"]["seed"] == 101
        assert payload["run"]["ids"] == ["EX-1"]
        assert payload["run"]["tol_override"] is None
        (result,) = payload["results"]
        assert result["id"] == "EX-1"
        assert result["kind"] == "identity"
        assert result["passed"] is True
        (check,) = result["checks"]
        assert set(check["lhs"]) == {"re", "im"}
        assert check["method"] == "direct"
        assert check["terms_used"] > 0
        assert check["rel_err"] <= 1e-9

    def test_method_of_each_check(self, capsys):
        # a check reads the rule of its sums: "anchored" where they took
        # the anchored tail at r*x = 1 and none took the ladder
        rc, out, _ = run_cli(capsys, "verify", "--ids", "SUM-2.8.46",
                             "THM-A1", "SUM-GAUSSD", "EX-1", "--quiet",
                             "--json", "-")
        assert rc == 0
        payload = json.loads(out[out.index("{"):])
        methods = {result["id"]: {c["method"] for c in result["checks"]}
                   for result in payload["results"]}
        assert methods == {"SUM-2.8.46": {"anchored"}, "THM-A1": {"anchored"},
                           "SUM-GAUSSD": {"extrapolated"}, "EX-1": {"direct"}}
        rc, out, _ = run_cli(capsys, "verify", "--ids", "SUM-2.8.46")
        assert rc == 0 and "128 terms, anchored) ok" in out

    def test_file_payload_full_precision(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        rc, _, _ = run_cli(capsys, "verify", "--ids", "VAL-ALG", "--quiet",
                           "--json", str(path))
        assert rc == 0
        text = path.read_text()
        payload = json.loads(text)
        (result,) = payload["results"]
        assert len(result["checks"]) == 2
        # %.17g round-trips doubles exactly
        lhs = result["checks"][0]["lhs"]["re"]
        import hyperharmonic
        want = hyperharmonic.eval_lhs("VAL-ALG",
                                      **result["checks"][0]["params"])
        assert lhs == want.real

    def test_complex_params_encoded(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--ids", "SUM-CHOI", "--quiet",
                             "--json", "-")
        assert rc == 0
        payload = json.loads(out[out.index("{"):])
        params = [c["params"] for c in payload["results"][0]["checks"]]
        assert any(isinstance(p["a"], dict) and set(p["a"]) == {"re", "im"}
                   for p in params)

    def test_perturbation_recorded(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--ids", "EX-1", "--quiet",
                             "--perturb", "EX-1=1e-6", "--json", "-")
        assert rc == 2
        payload = json.loads(out[out.index("{"):])
        assert payload["run"]["perturb"] == {"EX-1": 1e-6}
        assert payload["results"][0]["passed"] is False

    def test_non_finite_side_is_an_error_entry(self, capsys):
        # a rhs scaled past the largest float wrote inf and nan tokens
        rc, out, err = run_cli(capsys, "verify", "--ids", "COR-A1",
                               "--perturb", "COR-A1=1e308", "--json", "-")
        assert rc == 3
        payload = json.loads(out[out.index("{"):])
        (result,) = payload["results"]
        assert result["error"] == ("DomainError: COR-A1 at {'a': 0.7}, rhs "
                                   "expression: value (inf+0j) is not finite")
        assert err == f"COR-A1  ERROR  {result['error']}\n"


def _reference_json_write(obj, out, indent):
    """The report writer as first written, one write per token: the
    reference for the bytes of cli._json_text."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        for i, (key, val) in enumerate(obj.items()):
            out.write(f'{pad}  "{key}": ')
            _reference_json_write(val, out, indent + 1)
            out.write(",\n" if i < len(obj) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.write("[]")
            return
        out.write("[\n")
        for i, val in enumerate(obj):
            out.write(pad + "  ")
            _reference_json_write(val, out, indent + 1)
            out.write(",\n" if i < len(obj) - 1 else "\n")
        out.write(pad + "]")
    elif isinstance(obj, str):
        out.write('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, complex):
        out.write('{"re": %.17g, "im": %.17g}' % (obj.real, obj.imag))
    elif obj is None:
        out.write("null")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif isinstance(obj, int):
        out.write(str(obj))
    elif isinstance(obj, float):
        out.write("%.17g" % obj)
    else:
        raise TypeError(f"unexpected scalar {type(obj)!r}")


def _reference_json(obj) -> str:
    out = io.StringIO()
    _reference_json_write(obj, out, 0)
    return out.getvalue()


class TestJsonWriter:
    def test_report_bytes_match_the_reference(self, capsys, monkeypatch):
        payloads = []
        text = cli._json_text

        def recording(obj):
            payloads.append(obj)
            return text(obj)

        monkeypatch.setattr(cli, "_json_text", recording)
        direct = [i for i, ident in REGISTRY.items() if not ident.accel]
        rc, out, _ = run_cli(capsys, "verify", "--seed", "7", "--quiet",
                             "--json", "-", "--ids", *direct)
        assert rc == 0
        (payload,) = payloads
        assert len(payload["results"]) == len(direct)
        assert out[out.index("{"):] == _reference_json(payload) + "\n"

    @pytest.mark.parametrize("obj", [
        {}, [], (), {"a": {}}, {"a": []}, [[]], [{}],
        [[1, [2.5, [], [[-0.0]]]], {"k": [None]}],
        'say "hi" \\ then \\"',
        {'q"uote': 'a"b\\c', "nested": {"deeper": {"x": ("t", 1)}}},
        [complex(1.5, -2.0), 0.1 + 0j, complex(-1e-300, 1e300)],
        [None, True, False, 0, -7, 10 ** 20, 1.0, 1e-310, 2.0 ** 60],
        {"run": {"seed": 7, "ok": True, "tol": None}, "rows": [1, 2.0, 3j]},
        None, True, 42, 3.25, 1 + 1j,
    ], ids=repr)
    def test_edge_payloads_match_the_reference(self, obj):
        assert cli._json_text(obj) == _reference_json(obj)

    def test_unknown_scalar_raises(self):
        with pytest.raises(TypeError):
            cli._json_text({"set": {1}})


class TestParserReuse:
    """main() builds its parser once per process; no call leaves state
    behind for the next."""

    def test_nothing_carries_over_between_calls(self, capsys, monkeypatch):
        cli._build_parser.cache_clear()
        rc, out, _ = run_cli(capsys, "verify", "--ids", "EX-1",
                             "--perturb", "EX-1=1e-6")
        assert rc == 2 and "MISMATCH" in out
        rc, out, _ = run_cli(capsys, "verify", "--ids", "EX-1")
        assert rc == 0 and "1 checked: 1 passed, 0 failed, 0 errors" in out

        sweep = ("sweep", "--id", "THM-B", "--param", "x", "--from", "0.3",
                 "--to", "0.6", "--steps", "2")
        rc, out, _ = run_cli(capsys, *sweep, "--fixed", "a=0.25")
        assert rc == 0 and "2 points swept: 2 passed, 0 failed" in out
        rc, _, err = run_cli(capsys, *sweep)
        assert rc == USAGE_ERROR and "unpinned: a" in err

        rc, _, err = run_cli(capsys, "verify", "--ids", "EX-1", "--jobs", "0")
        assert rc == USAGE_ERROR and err
        rc, out, err = run_cli(capsys, "verify", "--ids", "EX-1", "--quiet")
        assert (rc, err) == (0, "") and "PASS" in out

        args = ("verify", "--ids", "TR-2.11.2", "--seed", "12345")
        outs = {}
        for seed in ("77", "78"):
            outs[seed] = run_cli(capsys, "verify", "--ids", "TR-2.11.2",
                                 "--seed", seed)[1]
            monkeypatch.setenv("HYPERHARMONIC_SEED", seed)
            assert run_cli(capsys, *args)[1] == outs[seed]
            monkeypatch.delenv("HYPERHARMONIC_SEED")
        assert outs["77"] != outs["78"]

        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 9)


class TestSweep:
    def test_text_rows(self, capsys):
        rc, out, _ = run_cli(capsys, "sweep", "--id", "COR-A1", "--param", "a",
                             "--from", "0.2", "--to", "0.4", "--steps", "3")
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert all(line.endswith("ok") for line in lines[:3])
        assert lines[3] == "3 points swept: 3 passed, 0 failed"

    def test_csv_stdout(self, capsys):
        rc, out, _ = run_cli(capsys, "sweep", "--id", "COR-A1", "--param", "a",
                             "--from", "0.2", "--to", "0.4", "--steps", "3",
                             "--csv", "-")
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["a", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
                           "abs_err", "rel_err", "passed"]
        assert len(rows) == 4  # header + 3 points, no summary line
        grid = [0.2 + 0.2 * j / 2 for j in range(3)]
        assert [r[0] for r in rows[1:]] == ["%.17g" % v for v in grid]
        assert all(r[-1] == "true" for r in rows[1:])
        assert float(rows[1][5]) <= 1e-9

    def test_csv_file(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        rc, out, _ = run_cli(capsys, "sweep", "--id", "EQ-H3N", "--param", "x",
                             "--from", "0.1", "--to", "0.5", "--steps", "5",
                             "--csv", str(path))
        assert rc == 0
        assert "5 points swept: 5 passed, 0 failed" in out
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 6

    def test_fixed_parameters(self, capsys):
        rc, out, _ = run_cli(capsys, "sweep", "--id", "THM-B", "--param", "x",
                             "--from", "0.3", "--to", "0.6", "--steps", "2",
                             "--fixed", "a=0.25")
        assert rc == 0
        assert "2 points swept: 2 passed, 0 failed" in out

    def test_divergent_endpoint_is_evaluation_error(self, capsys):
        rc, _, err = run_cli(capsys, "sweep", "--id", "GF-K1", "--param", "k",
                             "--from", "0.5", "--to", "1.0", "--steps", "2")
        assert rc == 3
        assert "evaluation error" in err

    def test_overflowing_closed_form_is_evaluation_error(self, capsys):
        # Gamma((a+1)/2) overflows at a = 400.3; the OverflowError used
        # to escape main as a traceback
        rc, out, err = run_cli(capsys, "sweep", "--id", "COR-A2",
                               "--param", "a", "--from", "0.1",
                               "--to", "400.3", "--steps", "3")
        assert (rc, out) == (3, "")
        assert err == ("evaluation error: DomainError: COR-A2 at "
                       "{'a': 400.3}, rhs expression: math range error\n")

    def test_closed_form_pole_is_evaluation_error(self, capsys):
        rc, _, err = run_cli(capsys, "sweep", "--id", "THM-C", "--param", "a",
                             "--from", "0.1", "--to", "0.5", "--steps", "2",
                             "--fixed", "b=0.15")
        assert rc == 3
        assert "evaluation error" in err

    def test_reads_the_package_registry(self, capsys, monkeypatch):
        # the grid replaces the seeded points, so no registry is built and
        # the seed does not change the output
        import hyperharmonic.cli as cli
        from hyperharmonic import catalog
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "build_registry", counted(cli.build_registry))
        monkeypatch.setattr(catalog, "_rng_for", counted(catalog._rng_for))
        argv = ("sweep", "--id", "THM-A1", "--param", "a", "--from", "0.1",
                "--to", "0.3", "--steps", "3", "--fixed", "b=0.2")
        rc, out, err = run_cli(capsys, *argv, "--seed", "7")
        assert (rc, err, calls) == (0, "", [])
        monkeypatch.setenv("HYPERHARMONIC_SEED", "202")
        assert run_cli(capsys, *argv) == (rc, out, err)
        assert calls == []
        # the counters see a command that does build one
        run_cli(capsys, "list", "--seed", "7")
        assert {"build_registry", "_rng_for"} <= set(calls)

    def test_usage_errors(self, capsys, tmp_path):
        cases = [
            ("sweep", "--id", "NOPE", "--param", "a",
             "--from", "0", "--to", "1", "--steps", "3"),
            ("sweep", "--id", "COR-A1", "--param", "q",
             "--from", "0", "--to", "1", "--steps", "3"),
            ("sweep", "--id", "COR-A1", "--param", "a",
             "--from", "0", "--to", "1", "--steps", "1"),
            ("sweep", "--id", "THM-B", "--param", "x",
             "--from", "0", "--to", "1", "--steps", "3"),  # 'a' unpinned
            ("sweep", "--id", "COR-A1", "--param", "a",
             "--from", "0.2", "--to", "0.4", "--steps", "3",
             "--fixed", "zz=1"),
            ("sweep", "--id", "COR-A1", "--param", "a",
             "--from", "0.2", "--to", "0.4", "--steps", "3",
             "--fixed", "a"),
            # non-finite grid ends and pins, and invalid tolerances
            ("sweep", "--id", "GF-K1", "--param", "k",
             "--from", "nan", "--to", "0.5", "--steps", "3"),
            ("sweep", "--id", "GF-K1", "--param", "k",
             "--from", "0.1", "--to", "inf", "--steps", "3"),
            ("sweep", "--id", "THM-B", "--param", "x",
             "--from", "0.1", "--to", "0.5", "--steps", "3",
             "--fixed", "a=nan"),
            ("sweep", "--id", "THM-B", "--param", "x",
             "--from", "0.1", "--to", "0.5", "--steps", "3",
             "--fixed", "a=0.5+infj"),
            ("sweep", "--id", "GF-K1", "--param", "k",
             "--from", "0.1", "--to", "0.5", "--steps", "3", "--tol", "nan"),
            ("sweep", "--id", "GF-K1", "--param", "k",
             "--from", "0.1", "--to", "0.5", "--steps", "3", "--tol", "0"),
            # the swept parameter pinned as well
            ("sweep", "--id", "THM-B", "--param", "x",
             "--from", "0.1", "--to", "0.9", "--steps", "3",
             "--fixed", "a=0.25", "--fixed", "x=0.5"),
            # CSV files that cannot be written
            ("sweep", "--id", "GF-K1", "--param", "k", "--from", "0.1",
             "--to", "0.5", "--steps", "3", "--csv", str(tmp_path / "no" / "x.csv")),
            ("sweep", "--id", "GF-K1", "--param", "k", "--from", "0.1",
             "--to", "0.5", "--steps", "3", "--csv", str(tmp_path)),
        ]
        for argv in cases:
            rc, _, err = run_cli(capsys, *argv)
            assert rc == USAGE_ERROR, argv
            assert err, argv


@pytest.mark.parametrize("argv", [
    ("verify", "--ids", "EX-1", "--json"),
    ("sweep", "--id", "GF-K1", "--param", "k", "--from", "0.1",
     "--to", "0.5", "--steps", "3", "--csv"),
])
def test_unwritable_output_fails_before_evaluation(capsys, monkeypatch,
                                                   tmp_path, argv):
    import hyperharmonic.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("evaluated before the output was checked")

    monkeypatch.setattr(cli, "verify", never)
    path = tmp_path / "no" / "out"
    rc, out, err = run_cli(capsys, *argv, str(path))
    assert rc == USAGE_ERROR and out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"


class TestEntryPoint:
    def test_module_invocation(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "hyperharmonic.cli", "list"],
            env=child_env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) == len(REGISTRY)

    def test_console_script_verify(self, child_env):
        # an uninstalled source tree has no console script; the module
        # entry point runs the same main()
        import shutil
        exe = shutil.which("hyperharmonic")
        cmd = [exe] if exe else [sys.executable, "-m", "hyperharmonic.cli"]
        proc = subprocess.run(
            cmd + ["verify", "--ids", "EX-4", "--quiet"],
            env=child_env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_closed_stdout_exits_quietly(self, child_env):
        # the pipe's read end is closed before the child starts, so its
        # first write to stdout fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hyperharmonic.cli", "verify",
                 "--ids", "EX-1", "--json", "-"],
                env=child_env, stdout=write_end, stderr=subprocess.PIPE,
                timeout=120)
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == BROKEN_PIPE


def test_runtime_imports_only_the_standard_library(child_env):
    # the package and its CLI need nothing outside the standard library
    code = ("import sys; before = set(sys.modules); import hyperharmonic.cli; "
            "print(*sorted({m.partition('.')[0] for m in sys.modules} "
            "- {m.partition('.')[0] for m in before}))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "hyperharmonic" in loaded
    assert [m for m in loaded if m != "hyperharmonic"
            and m not in sys.stdlib_module_names] == []
