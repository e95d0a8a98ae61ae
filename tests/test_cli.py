import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schwinger_su3
from schwinger_su3 import cli, poly, verify
from schwinger_su3.basis import traceless_project
from schwinger_su3.poly import Polynomial, poly_from_records, poly_to_records
from schwinger_su3.scalars import Qsqrt3


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim(capsys):
    code, out, _ = _run(capsys, "dim", "1", "1")
    assert code == 0 and out.strip() == "8"


def test_spectrum_csv(capsys):
    code, out, _ = _run(capsys, "spectrum", "1", "0", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("p,q,r,s,I2,Y3,I,Y,size")
    assert len(lines) == 3
    assert "0,-2/3" in lines[1]  # (r,s) = (0,0): I = 0, Y = -2/3
    assert "1/2,1/3" in lines[2]  # (r,s) = (1,0): I = 1/2, Y = 1/3


def test_spectrum_json(capsys):
    code, out, _ = _run(capsys, "spectrum", "1", "1", "--format", "json")
    rows = json.loads(out)
    assert code == 0 and len(rows) == 4
    assert sum(r["size"] for r in rows) == 8


def test_cg_text(capsys):
    code, out, _ = _run(capsys, "cg", "1", "1")
    assert code == 0
    assert "(1,1) + (0,0)" in out


def _csv_rows(capsys, *argv):
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    header, *rows = [line.split(",") for line in out.splitlines()]
    return [dict(zip(header, row)) for row in rows]


def test_single_irrep_commands_match_tables(capsys):
    """`spectrum p q` and `cg p q` print the (p, q) rows of the default tables."""
    tables = {kind: _csv_rows(capsys, "table", kind, "--format", "csv")
              for kind in ("spectra", "cg")}
    for p in range(4):
        for q in range(4):
            def table_rows(kind):
                return [r for r in tables[kind] if (r["p"], r["q"]) == (str(p), str(q))]

            spectrum = _csv_rows(capsys, "spectrum", str(p), str(q), "--format", "csv")
            for row in spectrum:
                del row["I"], row["Y"]
            assert spectrum and spectrum == table_rows("spectra")
            cg = _csv_rows(capsys, "cg", str(p), str(q), "--format", "csv")
            assert cg and cg == table_rows("cg")


def test_mult(capsys):
    code, out, _ = _run(capsys, "mult", "U2", "2", "2")
    assert code == 0 and out.strip() == "1"
    code, out, _ = _run(capsys, "mult", "U2", "2", "1")
    assert code == 0 and out.strip() == "0"


def test_state_text(capsys):
    code, out, _ = _run(
        capsys, "state", "1", "0", "--I", "1/2", "--M=-1/2", "--Y", "1/3",
        "--m", "2",
    )
    assert code == 0
    assert "exps=[0, 1, 0, 0, 0, 0]" in out
    assert "norm_sq = 1" in out


def test_negative_fractions_need_the_equals_form(capsys):
    # argparse reads "-1/3" after "--Y" as an option, so a negative value
    # must be attached: --Y=-1/3
    head = ["state", "0", "1", "--I", "1/2", "--M=-1/2"]
    code, out, _ = _run(capsys, *head, "--Y=-1/3", "--m", "2", "--json")
    assert code == 0 and json.loads(out)["key"]["Y3"] == -1
    code, out, err = _run(capsys, *head, "--Y", "-1/3", "--m", "2", "--json")
    assert code == 2 and out == "" and "Traceback" not in err


def test_state_json_round_trip(capsys):
    args = ["state", "1", "1", "--I", "0", "--M", "0", "--Y", "0", "--m", "5/2",
            "--json"]
    code, out, _ = _run(capsys, *args)
    assert code == 0
    parsed = json.loads(out)
    assert cli._dump_json(parsed) == out.strip()  # byte-identical re-serialization
    assert parsed["norm_sq"] == {"num": "6", "den": "1"}


def test_state_latex(capsys):
    code, out, _ = _run(
        capsys, "state", "1", "0", "--I", "1/2", "--M", "1/2", "--Y", "1/3",
        "--m", "2", "--latex",
    )
    assert code == 0 and "z_1" in out and "\\sqrt" in out
    # integer coefficients in plain digits, an exponent 1 unwritten
    code, out, _ = _run(capsys, "state", "1", "1", "--I", "0", "--M", "0", "--Y", "0",
                        "--m", "5/2", "--latex")
    assert out.strip() == "\\frac{1}{\\sqrt{6/1}}\\left(2 z_3w_3 - 1 z_2w_2 - 1 z_1w_1\\right)"
    code, out, _ = _run(capsys, "state", "2", "0", "--I", "1", "--M", "1", "--Y", "2/3",
                        "--m", "5/2", "--latex")
    assert out.strip() == "\\frac{1}{\\sqrt{2/1}}\\left(1 z_1^{2}\\right)"


def test_state_invalid_weight_exits_2(capsys):
    code, _, err = _run(
        capsys, "state", "1", "0", "--I", "1", "--M", "0", "--Y", "0", "--m", "2",
    )
    assert code == 2 and "error" in err


def test_state_bad_fraction_exits_2(capsys):
    code, _, err = _run(
        capsys, "state", "1", "0", "--I", "1/3", "--M", "0", "--Y", "0", "--m", "2",
    )
    assert code == 2 and "error" in err


def test_state_unparsable_fraction_exits_2(capsys):
    code, out, err = _run(
        capsys, "state", "1", "1", "--I", "abc", "--M", "0", "--Y", "0", "--m", "5/2",
    )
    assert code == 2 and out == "" and err.startswith("error: cannot parse I='abc'")


def _feed_stdin(monkeypatch, poly):
    text = json.dumps(poly_to_records(poly))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))


def test_project_stdin(capsys, monkeypatch):
    z1w1 = Polynomial.monomial((1, 0, 0, 1, 0, 0))
    _feed_stdin(monkeypatch, z1w1)
    code, out, _ = _run(capsys, "project", "--input", "-")
    assert code == 0
    got = poly_from_records(json.loads(out))
    zw = (
        Polynomial.monomial((1, 0, 0, 1, 0, 0))
        + Polynomial.monomial((0, 1, 0, 0, 1, 0))
        + Polynomial.monomial((0, 0, 1, 0, 0, 1))
    )
    from fractions import Fraction

    assert got == z1w1 - zw.scale(Fraction(1, 3))


def test_map_stdin(capsys, monkeypatch):
    _feed_stdin(monkeypatch, Polynomial.variable(1))
    code, out, _ = _run(capsys, "map", "--input", "-")
    assert code == 0
    parsed = json.loads(out)
    (chan,) = parsed["channels"]
    assert (chan["p"], chan["q"]) == (1, 0)
    assert chan["scale_sq_num"] == "6" and chan["scale_sq_den"] == "1"


def test_map_rejects_traceful_input(capsys, monkeypatch):
    zw = (
        Polynomial.monomial((1, 0, 0, 1, 0, 0))
        + Polynomial.monomial((0, 1, 0, 0, 1, 0))
        + Polynomial.monomial((0, 0, 1, 0, 0, 1))
    )
    _feed_stdin(monkeypatch, zw)
    code, _, err = _run(capsys, "map", "--input", "-")
    assert code == 2 and "error" in err


def test_bad_poly_json_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("not json"))
    code, _, err = _run(capsys, "project", "--input", "-")
    assert code == 2 and "error" in err


def test_table_dims(capsys):
    code, out, _ = _run(capsys, "table", "dims", "--max-p", "2", "--max-q", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10  # header + 9 rows
    assert lines[-1] == "2,2,27,7"
    # the ranges start at 0, and 0 is a valid bound
    code, out, _ = _run(capsys, "table", "dims", "--max-p", "0", "--max-q", "0")
    assert code == 0 and out == "p,q,dim,k2\n0,0,1,3\n"


def test_table_rejects_negative_range(capsys):
    for argv in (("dims", "--max-p", "-1"), ("cg", "--max-q", "-2")):
        code, out, err = _run(capsys, "table", *argv)
        assert code == 2 and out == "" and err.startswith("error:")
        assert len(err.splitlines()) == 1


def test_table_mult_u2_diagonal(capsys):
    code, out, _ = _run(
        capsys, "table", "mult", "--subgroup", "U2", "--max-p", "3", "--max-q", "3",
        "--format", "json",
    )
    rows = json.loads(out)
    assert code == 0
    for row in rows:
        assert row["mult"] == (1 if row["p"] == row["q"] else 0)


def test_verify_small(capsys):
    start = time.perf_counter()
    code, out, _ = _run(
        capsys, "verify", "--max-pq", "1", "--degree", "2", "--samples", "2",
    )
    elapsed = time.perf_counter() - start
    parsed = json.loads(out)
    assert code == 0
    assert parsed["pass"] is True
    names = [s["name"] for s in parsed["suites"]]
    assert names == sorted(names)
    assert all(s["checks"] > 0 for s in parsed["suites"])
    # the whole run covers every suite, each rounded to 1e-4 s, and the
    # shared states that no suite times, reported by name
    assert 0 < parsed["build_states_seconds"] <= parsed["seconds"]
    covered = parsed["build_states_seconds"] + sum(s["seconds"] for s in parsed["suites"])
    assert parsed["seconds"] >= covered - 1e-3
    assert parsed["seconds"] <= elapsed


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        verify, "run_all",
        lambda **kwargs: [{"name": "stub", "passed": False}],
    )
    code, out, _ = _run(capsys, "verify")
    assert code == 1
    assert json.loads(out)["pass"] is False


COMMANDS = ("dim", "spectrum", "cg", "mult", "state", "project", "map", "table", "verify")


def test_unknown_command_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2
    # the full parser reports it, naming every command
    err = capsys.readouterr().err
    assert "invalid choice: 'frobnicate'" in err
    listed = err.split("choose from", 1)[1]
    assert all(f"'{name}'" in listed for name in COMMANDS), err


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: schwinger-su3")
    assert "{" + ",".join(COMMANDS) + "}" in out
    assert all(f"\n    {name} " in out for name in COMMANDS), out


# per command: a usage error that its own subparser reports (a missing or
# non-integer positional, or an option without its value)
_USAGE_ERRORS = {
    "dim": ["dim", "x", "1"],
    "spectrum": ["spectrum", "1"],
    "cg": ["cg", "1", "x"],
    "mult": ["mult", "SU2", "1"],
    "state": ["state", "1", "x", "--I", "0", "--M", "0", "--Y", "0", "--m", "5/2"],
    "project": ["project", "--input"],
    "map": ["map", "--input"],
    "table": ["table"],
    "verify": ["verify", "--max-pq", "x"],
}


def _full_parser_run(capsys, argv):
    """(exit code, stdout, stderr) of the full parser on argv, which must exit."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_prints_what_the_full_parser_prints(capsys, command):
    # main builds the invoked command's subparser only; its help, its own
    # usage errors and the unknown options that the top level reports (with
    # the usage line of every command) read byte for byte as the full parser's
    for argv in ([command, "-h"], _USAGE_ERRORS[command], [command, "--bogus"]):
        want = _full_parser_run(capsys, argv)
        assert want[0] in (0, 2)
        assert _run(capsys, *argv) == want, argv


def test_no_command_prints_what_the_full_parser_prints(capsys):
    for argv in ([], ["frobnicate"], ["-h", "dim"]):
        assert _run(capsys, *argv) == _full_parser_run(capsys, argv), argv


def test_option_defaults():
    # the sizes README's commands and the measured default runs rely on
    parse = cli.build_parser().parse_args
    table = parse(["table", "dims"])
    assert (table.max_p, table.max_q) == (3, 3)
    run = parse(["verify"])
    assert (run.max_pq, run.degree, run.samples, run.seed, run.numeric,
            run.numeric_samples) == (3, 4, 20, 0, False, 20)


def _run_stdin(text, *argv):
    """Run the CLI in-process on ``text`` as stdin; returns (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_malformed_poly_records_exit_2():
    x = [1, 0, 0, 1, 0, 0]
    for doc in (
        [{"exps": x, "num": "1", "den": "0"}],
        [{"exps": 5, "num": "1", "den": "1"}],
        {"a": 1},
        # only ASCII -?[0-9]+ strings, although int() takes the first three
        *([{"exps": x, "num": n, "den": "1"}] for n in (" 7 ", "1_000", "\u0663", "9" * 5000)),
        [{"exps": x, "num": "0", "den": "1"}, {"exps": x, "num": "1", "den": "1"}],
    ):
        for command in ("project", "map"):
            code, out, err = _run_stdin(json.dumps(doc), command)
            assert code == 2 and out == ""
            assert err.startswith("error: bad polynomial JSON") and err.count("\n") == 1


def test_unreadable_input_file_exits_2(capsys, tmp_path):
    code, out, err = _run(capsys, "project", "--input", str(tmp_path / "missing.json"))
    assert code == 2 and out == "" and err.startswith("error: cannot read")


def _one_error_line(code, out, err, prefix):
    return code == 2 and out == "" and err.startswith(prefix) and err.count("\n") == 1


def test_undecodable_input_file_exits_2(tmp_path):
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\xff\xfe[]")
    for command in ("project", "map"):
        result = _run_stdin("", command, "--input", str(path))
        assert _one_error_line(*result, f"error: cannot read {path}: 'utf-8' codec"), result


def test_undecodable_stdin_exits_2():
    # a strictly decoding stdin, as PYTHONIOENCODING=utf-8:strict gives
    for command in ("project", "map"):
        out, err = io.StringIO(), io.StringIO()
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe[]"), encoding="utf-8", errors="strict")
        with mock.patch.object(sys, "stdin", stdin), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command])
        result = code, out.getvalue(), err.getvalue()
        assert _one_error_line(*result, "error: cannot read standard input: 'utf-8' codec")


def test_deeply_nested_json_exits_2():
    for command in ("project", "map"):
        result = _run_stdin("[" * 100000 + "]" * 100000, command)
        assert _one_error_line(*result, "error: bad polynomial JSON: maximum recursion depth")


def test_json_number_too_long_to_convert_exits_2():
    # a bare JSON number, where the string form would be a record error
    doc = '[{"exps":[1,0,0,1,0,0],"num":' + "9" * 5000 + ',"den":"1"}]'
    for command in ("project", "map"):
        result = _run_stdin(doc, command)
        assert _one_error_line(*result, "error: bad polynomial JSON: Exceeds the limit")


_EXPS = [1, 0, 0, 1, 0, 0]


@pytest.mark.parametrize("record, field", [
    ({"exps": _EXPS, "num": "9" * 200000 + "x", "den": "1"}, "num"),
    ({"exps": "e" * 50000, "num": "1", "den": "1"}, "exps"),
    ({"exps": _EXPS, "num": json.loads("[" * 800 + "7" + "]" * 800), "den": "1"}, "num"),
], ids=["long-num", "long-exps", "deep-num"])
def test_bad_field_error_line_is_short(record, field):
    # the value is echoed cut to 60 characters, not whole
    for command in ("project", "map"):
        code, out, err = _run_stdin(json.dumps([record]), command)
        assert _one_error_line(code, out, err, f"error: bad polynomial JSON: {field} must be")
        assert len(err.encode()) < 200, err


@pytest.mark.parametrize("flag, value, prefix", [
    ("--I", "a" * 100000, "error: cannot parse I='" + "a" * 12 + "..." + "a" * 13 + "'\n"),
    ("--M", "1/" + "3" * 5000, "error: cannot parse M='1/333"),
    ("--Y", "1/" + "3" * 4000, "error: Y='1/333"),
    ("--m", "5/" + "\x00" * 1000, "error: cannot parse m='5/\\x00"),
    # values that parse, echoed cut by the weight and key checks
    ("--I", "9" * 4000, "error: (r,s)=(999999999999999999...9999999999999999999,"),
    ("--M", "9" * 4000, "error: M2=199999999999999999...9999999999999999998 invalid"),
    ("--m", "9" * 4000, "error: m2=199999999999999999...9999999999999999998 invalid"),
    # 10^5000 has more digits than the interpreter prints; like the same value
    # written in digits, it does not parse
    ("--I", "1e5000", "error: cannot parse I='1e5000'\n"),
    ("--M", "1e5000", "error: cannot parse M='1e5000'\n"),
    ("--m", "1e5000", "error: cannot parse m='1e5000'\n"),
], ids=["letters", "too-many-digits", "not-a-multiple", "escaped", "huge-integral", "huge-M",
        "huge-m", "exponent-I", "exponent-M", "exponent-m"])
def test_bad_quantum_number_error_line_is_short(capsys, flag, value, prefix):
    # each value is echoed once, cut to 60 characters
    options = {"--I": "0", "--M": "0", "--Y": "0", "--m": "5/2", flag: value}
    argv = [x for option in options.items() for x in option]
    code, out, err = _run(capsys, "state", "1", "1", *argv)
    assert _one_error_line(code, out, err, prefix)
    assert len(err.encode()) < 200, err


def test_exponent_past_the_digit_limit_is_refused_before_it_is_expanded(capsys, monkeypatch):
    # Fraction would expand 10^(10^7) first, for seconds; both signs are refused
    # at once, and a smaller exponent is a value like any other
    def state(I="0", M="0", m="5/2"):
        return _run(capsys, "state", "1", "1", "--I", I, "--M", M, "--Y", "0", "--m", m)

    for flag, value in (("I", "1e10000000"), ("m", "1e-10000000")):
        start = time.perf_counter()
        result = state(**{flag: value})
        assert time.perf_counter() - start < 2
        assert _one_error_line(*result, f"error: cannot parse {flag}='{value}'\n")
    assert _one_error_line(*state(I="1e3"), "error: (r,s)=(1000,1000) outside")
    assert state(m="25e-1")[0] == 0
    # the exponent may reach the limit, not pass it; a limit of 0 is none
    limit = sys.get_int_max_str_digits()
    assert state(M=f"0e{limit}")[0] == 0
    assert _one_error_line(*state(M=f"0e{limit + 1}"), f"error: cannot parse M='0e{limit + 1}'")
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    assert state(M=f"0e{limit + 1}")[0] == 0


def test_state_level_above_the_bound_exits_2(capsys):
    # basis_state multiplies by z.w once per level m - k; level 1000 is refused
    # before any is built, level MAX_LEVEL is built
    head = ["state", "0", "0", "--I", "0", "--M", "0", "--Y", "0", "--m"]
    start = time.perf_counter()
    code, out, err = _run(capsys, *head, "2001/2")
    assert time.perf_counter() - start < 2
    assert _one_error_line(code, out, err, "error: --m='2001/2': the level m - k is above 100\n")
    top = f"{2 * cli.MAX_LEVEL + 3}/2"
    assert _run(capsys, *head, top)[0] == 0
    code, out, err = _run(capsys, *head, f"{2 * cli.MAX_LEVEL + 5}/2")
    assert _one_error_line(code, out, err, "error: --m=")


def test_verify_rejects_bad_sizes(capsys):
    for argv in (
        ("--max-pq", "-1", "--samples", "-3"),
        ("--max-pq", "-1"),
        ("--degree", "-1"),
        ("--degree", "0"),
        ("--samples", "0"),
        ("--numeric-samples", "0"),
        ("--seed", "-1"),
    ):
        code, out, err = _run(capsys, "verify", *argv)
        assert code == 2 and out == "" and err.startswith("error:")


_STARTUP_PROBE = textwrap.dedent("""
    import contextlib, io, json, sys
    import schwinger_su3
    root = sorted(m for m in sys.modules if m.startswith("schwinger_su3."))
    from schwinger_su3 import cli

    argv, stdin = json.loads(sys.argv[1])
    sys.stdin = io.StringIO(stdin)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    loaded = sorted(m.removeprefix("schwinger_su3.") for m in sys.modules
                    if m.startswith("schwinger_su3."))
    print(json.dumps({"root": root, "code": code, "out": out.getvalue(), "loaded": loaded,
                      "numpy": "numpy" in sys.modules,
                      "dataclasses": "dataclasses" in sys.modules}))
""")


def _fresh_run(*argv, stdin=""):
    """Run the CLI on argv in a fresh interpreter; what it printed and loaded."""
    src = str(Path(schwinger_su3.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE, json.dumps([argv, stdin])],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert run["root"] == []  # the package root imports no submodule
    assert run["code"] == 0 and run["out"], (argv, run)
    assert not run["dataclasses"], argv
    return run


def test_startup_loads_verify_only_on_demand_and_never_numpy():
    # each command in its own interpreter, so each sees only what it loaded
    state = ["state", "1", "1", "--I", "1/2", "--Y", "1", "--m", "5/2"]
    small = ["--max-pq", "0", "--degree", "1", "--samples", "1"]
    z1w1 = '[{"exps": [1, 0, 0, 1, 0, 0], "num": "1", "den": "1"}]'
    z1w2 = '[{"exps": [1, 0, 0, 0, 1, 0], "num": "1", "den": "1"}]'  # trace-free
    for argv in (["dim", "1", "1"], ["table", "dims"], ["cg", "1", "1"],
                 ["spectrum", "1", "1"], ["mult", "SO3", "2", "2"]):
        run = _fresh_run(*argv)
        assert run["loaded"] == ["catalog", "cli"], argv
        assert not run["numpy"]
    project = _fresh_run("project", stdin=z1w1)
    assert project["loaded"] == ["catalog", "cli", "poly", "scalars"]
    top = _fresh_run(*state, "--M", "1/2")
    lowered = _fresh_run(*state, "--M=-1/2")
    assert "operators" not in top["loaded"] and "operators" in lowered["loaded"]
    mapped = _fresh_run("map", stdin=z1w2)
    assert mapped["loaded"] == ["catalog", "cli", "induced", "poly", "scalars"]
    exact = _fresh_run("verify", *small)
    assert json.loads(exact["out"])["pass"] is True and "verify" in exact["loaded"]
    numeric = _fresh_run("verify", "--numeric", *small, "--numeric-samples", "1")
    assert json.loads(numeric["out"])["pass"] is True
    assert "numeric_equivariance" in numeric["out"] and "numeric" in numeric["loaded"]
    for run in (project, top, lowered, mapped, exact, numeric):
        assert not run["numpy"], run["loaded"]


def _blocked_run(blocked, *argv, stdin=None):
    """Run the CLI on argv in a fresh interpreter in which importing any of the
    named modules raises ImportError."""
    src = str(Path(schwinger_su3.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ('import sys\n'
            'for name in sys.argv[1].split(): sys.modules[name] = None\n'
            'from schwinger_su3 import cli\n'
            'sys.exit(cli.main(sys.argv[2:]))')
    return subprocess.run([sys.executable, "-c", code, " ".join(blocked), *argv], input=stdin,
                          env=env, capture_output=True, text=True, timeout=300)


def test_numeric_verify_passes_with_numpy_blocked():
    proc = _blocked_run(["numpy"], "verify", "--max-pq", "0", "--degree", "1",
                        "--samples", "1", "--numeric", "--numeric-samples", "2")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    numeric = [s for s in doc["suites"] if s["name"] == "numeric_equivariance"]
    assert doc["pass"] is True and numeric and numeric[0]["checks"] > 0


def test_map_prints_the_same_bytes_with_basis_and_operators_blocked():
    # the trace-free test runs on poly's kernel, so map needs neither module
    blocked = ["schwinger_su3.basis", "schwinger_su3.operators"]
    two_channels = ('[{"exps":[1,0,0,0,1,0],"num":"3","den":"7"},{"exps":[0,0,1,0,0,0],'
                    '"num":"-2","den":"5","surd_num":"1","surd_den":"3"}]')
    traceful = '[{"exps":[1,0,0,1,0,0],"num":"1","den":"1"}]'
    for stdin, rc in ((two_channels, 0), (traceful, 2)):
        free, held = (_blocked_run(b, "map", stdin=stdin) for b in ([], blocked))
        assert (held.returncode, held.stdout, held.stderr) == (free.returncode, free.stdout,
                                                               free.stderr)
        assert free.returncode == rc and (free.stdout if rc == 0 else free.stderr)


@pytest.mark.parametrize("argv", [
    ("dim", "1", "1"),  # fits the buffer: the guard's flush meets the closed pipe
    ("table", "dims", "--max-p", "30", "--max-q", "30"),  # print meets it first
])
def test_closed_stdout_exits_141_without_a_traceback(argv):
    # the parent holds the only read end and closes it before the child can
    # have written, so every write meets a pipe without a reader
    src = str(Path(schwinger_su3.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "schwinger_su3.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141, err
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_negative_irrep_labels_exit_2(capsys):
    for argv in (
        ("dim", "-1", "1"),
        ("spectrum", "-1", "0"),
        ("cg", "1", "-1"),
        ("mult", "SU2", "-1", "0"),
        ("state", "-1", "0", "--I", "0", "--M", "0", "--Y", "0", "--m", "2"),
        ("dim", "-" + "9" * 4000, "1"),  # echoed cut to 60 characters
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")
        assert len(err.splitlines()) == 1 and len(err.encode()) < 200


def test_library_value_error_is_not_a_usage_error(capsys, monkeypatch):
    # only validation failures map to exit 2; a library fault must surface
    def broken(f):
        raise ValueError("library fault")

    monkeypatch.setattr(poly, "traceless_project", broken)
    _feed_stdin(monkeypatch, Polynomial.variable(1))
    with pytest.raises(ValueError, match="library fault"):
        cli.main(["project", "--input", "-"])


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
small_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
small_polys = st.dictionaries(
    st.tuples(*([st.integers(0, 2)] * 6)),
    st.builds(Qsqrt3, small_coeffs, small_coeffs | st.just(0)),
    max_size=4,
).map(Polynomial)
record_fields = st.sampled_from(["exps", "num", "den", "surd_num", "surd_den"])


@st.composite
def wire_docs(draw):
    """(polynomial, JSON document): a valid document for the polynomial, or
    (None, a document) with one record field replaced or dropped, or any JSON
    value at all."""
    f = draw(small_polys)
    recs = poly_to_records(f)
    kind = draw(st.sampled_from(("valid", "mutated", "random")))
    if kind == "valid":
        return f, recs
    if kind == "random" or not recs:
        return None, draw(json_values)
    rec = recs[draw(st.integers(0, len(recs) - 1))]
    field = draw(record_fields)
    if draw(st.booleans()):
        rec[field] = draw(json_values)
    else:
        del rec[field]
    return None, recs


@settings(max_examples=200, deadline=None)
@given(wire_docs(), st.sampled_from(("project", "map")))
def test_project_and_map_never_crash(case, command):
    f, doc = case
    code, out, err = _run_stdin(json.dumps(doc), command)
    assert "Traceback" not in err
    assert code in (0, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    if f is not None and command == "project":
        assert code == 0
        want = Polynomial.zero()
        for part in f.bidegree_split().values():
            want = want + traceless_project(part)
        assert poly_from_records(json.loads(out)) == want
