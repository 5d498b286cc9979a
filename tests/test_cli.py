import hashlib
import io
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from lammu.cli import main

PEIRCE = "|- \\x.mu a.[a](x (\\y.mu b.[a] y)) : ((A -> B) -> A) -> A |"
DNE = "|- \\y.mu a.['b](y (\\x.mu d.[a] x)) : ((A -> bot) -> bot) -> A | 'b:bot"


class TestFmt:
    def test_round_trip(self, capsys):
        assert main(["fmt", "(\\x.x)(y z)"]) == 0
        assert capsys.readouterr().out.strip() == "(\\x.x) (y z)"

    def test_parse_error(self, capsys):
        assert main(["fmt", "\\x."]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("\\x.x"))
        assert main(["fmt", "-"]) == 0
        assert capsys.readouterr().out.strip() == "\\x.x"


class TestReduce:
    def test_normal_form(self, capsys):
        assert main(["reduce", "(\\x.x) y"]) == 0
        assert capsys.readouterr().out.strip() == "y"

    def test_trace(self, capsys):
        assert main(["reduce", "--trace", "(\\x.x) y"]) == 0
        out = capsys.readouterr().out
        assert "- start ~>" in out and "beta ~> y" in out

    def test_fuel_exhaustion(self, capsys):
        assert main(["reduce", "--fuel", "3", "(\\x.x x) (\\x.x x)"]) == 3

    def test_fuel_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["reduce", "--fuel", "0", "x"])
        assert e.value.code == 2
        assert "--fuel" in capsys.readouterr().err

    def test_unknown_rule(self):
        assert main(["reduce", "--rules", "zeta", "x"]) == 2

    def test_erasing_is_opt_in(self, capsys):
        assert main(["reduce", "mu a.[a] x"]) == 0
        assert capsys.readouterr().out.strip() == "mu a.[a] x"
        assert main(["reduce", "--rules", "erasing", "mu a.[a] x"]) == 0
        assert capsys.readouterr().out.strip() == "x"


class TestCheckers:
    def test_check_iu_pruned_miss_is_undecided(self, capsys):
        unused = ", ".join(f"w{i}:C{i}" for i in range(40))
        text = unused + ", z:K, x:K -> B |- (\\y.y z) x : B |"
        assert main(["check-iu", text]) == 3
        assert "budget exhausted" in capsys.readouterr().err

    def test_check_simple_valid(self, capsys):
        assert main(["check-simple", PEIRCE]) == 0
        assert "valid" in capsys.readouterr().out

    def test_check_simple_invalid(self, capsys):
        assert main(["check-simple", "x:A |- x : B |"]) == 1
        assert "invalid" in capsys.readouterr().err

    def test_check_simple_rejects_iu_types(self):
        assert main(["check-simple", "x:A /\\ B |- x : A |"]) == 2

    def test_infer_simple(self, capsys):
        assert main(["infer-simple", "\\x.\\y.x"]) == 0
        assert capsys.readouterr().out.strip() == "|- \\x.\\y.x : A -> B -> A |"

    def test_infer_untypable(self):
        assert main(["infer-simple", "\\x.x x"]) == 1

    def test_check_iu_found(self, capsys):
        assert main(["check-iu", "x:A /\\ B |- x : A |"]) == 0
        assert "found" in capsys.readouterr().out

    @pytest.mark.parametrize("delta", ["'b:A/\\B", "'b:top"])
    def test_check_iu_non_strict_right_environment(self, delta, capsys):
        assert main(["check-iu", f"x:A |- x : A | {delta}"]) == 1
        assert "found" not in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["|- x : A | ) ) (",
                                      "x:A |- x : A | a:A b c"])
    def test_check_iu_rejects_input_after_the_judgment(self, text):
        assert main(["check-iu", text]) == 2

    @pytest.mark.parametrize("command", ["check-simple", "check-iu"])
    @pytest.mark.parametrize("text", ["x:A, x:B |- x : B |",
                                      "|- x : A | 'b:A, 'b:B"])
    def test_a_name_bound_twice_is_a_parse_error(self, command, text, capsys):
        assert main([command, text]) == 2
        captured = capsys.readouterr()
        assert "is bound twice" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["check-iu", "--depth", "-1", "x:A |- x : A |"],
        ["metatheory", "--suite", "term-subst", "--cases", "-1"],
        ["metatheory", "--suite", "term-subst", "--depth", "-1"],
    ], ids=["check-iu-depth", "metatheory-cases", "metatheory-depth"])
    def test_negative_budgets_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert "must be at least 0" in capsys.readouterr().err

    def test_check_iu_not_found(self):
        assert main(["check-iu", "x:A |- x : B |"]) in (1, 3)


class TestCertificates:
    def test_emit_and_verify(self, capsys, tmp_path):
        cert = tmp_path / "peirce.json"
        assert main(["check-simple", "--cert", str(cert), PEIRCE]) == 0
        capsys.readouterr()
        assert main(["verify", str(cert)]) == 0
        assert "valid" in capsys.readouterr().out

    @pytest.mark.parametrize("name, judgment", [("peirce", PEIRCE), ("dne", DNE)])
    def test_check_simple_writes_the_bundled_bytes(self, name, judgment,
                                                   capsys, tmp_path):
        cert = tmp_path / "out.json"
        assert main(["check-simple", "--cert", str(cert), judgment]) == 0
        bundled = resources.files("lammu").joinpath(f"certs/{name}.json")
        assert cert.read_bytes() == bundled.read_bytes()

    @pytest.mark.parametrize("text, field", [
        ('{"rule": "InterE"}', "'judgment'"),
        ('{"judgment": "x:A |- x : A |"}', "'rule'"),
        ('{"rule": "InterI", "judgment": "x:A |- x : A |",'
         ' "premises": [{"rule": "InterE"}]}', "'judgment'"),
        ('{"rule": 1, "judgment": "x:A |- x : A |"}', "'rule'"),
        ('{"rule": "InterE", "judgment": ["x:A |- x : A |"]}', "'judgment'"),
        ('{"rule": "InterE", "judgment": "x:A |- x : A |", "premises": {}}',
         "'premises'"),
        ("[1]", "object"),
    ])
    def test_verify_rejects_malformed_certificates(self, text, field, capsys,
                                                   monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["verify", "-"]) == 2
        err = capsys.readouterr().err
        assert "malformed certificate" in err and field in err

    def test_verify_rejects_input_after_a_judgment(self, monkeypatch):
        text = '{"rule": "InterE", "judgment": "x:A |- x : A | ) ("}'
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["verify", "-"]) == 2

    def test_verify_rejects_tampering(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        assert main(["check-iu", "--cert", str(cert),
                     "x:A /\\ B |- x : A |"]) == 0
        capsys.readouterr()
        text = cert.read_text().replace("x : A", "x : C")
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["verify", str(bad)]) == 1

    def test_verify_from_stdin(self, capsys, monkeypatch, tmp_path):
        cert = tmp_path / "cert.json"
        assert main(["check-iu", "--cert", str(cert),
                     "x:A /\\ B |- x : A |"]) == 0
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO(cert.read_text()))
        assert main(["verify", "-"]) == 0

    def test_missing_file(self):
        assert main(["verify", "/no/such/file.json"]) == 2

    def test_file_that_is_not_utf8_is_a_parse_error(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_bytes(b"\xff")
        assert main(["verify", str(cert)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("parse error:")
        assert "Traceback" not in captured.err


class TestDeepInput:
    """Terms parse and print at any depth.  A certificate nested past the
    recursion limit, or a substitution into a term nested as deep, leaves the
    verdict undecided (exit 3), never a definite "invalid"."""

    def test_verify_deep_certificate(self, monkeypatch):
        text = '{"rule": "InterE", "judgment": "x:A |- x : A |"}'
        for _ in range(900):
            text = ('{"rule": "Thin", "judgment": "x:A |- x : A |",'
                    ' "premises": [' + text + ']}')
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["verify", "-"]) in (0, 3)

    def test_fmt_deep_application_chain(self, capsys):
        text = "f (" * 599 + "f x" + ")" * 599
        assert main(["fmt", text]) == 0
        assert capsys.readouterr().out == text + "\n"

    def test_reduce_deep_substitution(self):
        # the substitution walk recurses once per level of the body
        body = "f (" * 2999 + "f z" + ")" * 2999
        assert main(["reduce", f"(\\z.{body}) y"]) in (0, 3)

    def test_reduce_church_40_times_40(self, capsys):
        def numeral(n):
            return "(\\f.\\x." + "f (" * n + "x" + ")" * n + ")"

        mul = "(\\m.\\n.\\f.m (n f))"
        assert main(["reduce", f"{mul} {numeral(40)} {numeral(40)}"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "\\f.\\x." + "f (" * 1599 + "f x" + ")" * 1599


def _lammu_into_pipe(*args: str) -> subprocess.Popen:
    """``python -m lammu.cli *args`` with pipes for its standard streams,
    and its stdout buffered, as it is in a shell by default."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"),
        os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "lammu.cli", *args],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)


class TestClosedPipe:
    """A reader that closes the output pipe early ends the run silently
    with exit 1."""

    def test_trace_into_a_closed_pipe(self):
        # the trace of Church 30 x 30 is about 285 kB, more than a pipe holds
        thirty = "(\\f.\\x." + "f (" * 30 + "x" + ")" * 30 + ")"
        proc = _lammu_into_pipe("reduce", "--trace",
                                f"(\\m.\\n.\\f.m (n f)) {thirty} {thirty}")
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, b"")

    def test_short_output_into_a_closed_pipe(self):
        # the output fits the buffer, so the closed pipe shows only when it
        # is flushed; the term comes from stdin after the pipe is closed
        proc = _lammu_into_pipe("fmt", "-")
        proc.stdout.close()
        _, err = proc.communicate(b"x", timeout=120)
        assert (proc.returncode, err) == (1, b"")

    def test_closed_stdout_in_process(self, capsys, monkeypatch):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", Closed())
        assert main(["examples", "peirce", "--cert"]) == 1
        assert capsys.readouterr().err == ""


class TestExamplesAndSuites:
    @pytest.mark.parametrize("name", ["peirce", "dne", "no-choice", "erasing"])
    def test_examples(self, name, capsys):
        assert main(["examples", name]) == 0
        out = capsys.readouterr().out
        assert "valid" in out or "not derivable" in out

    def test_metatheory_command(self, capsys):
        assert main(["metatheory", "--suite", "term-subst", "--cases", "10"]) == 0
        assert "SUITE term-subst RUN 10 FAIL 0" in capsys.readouterr().out


# Every README command line, then one failing case of each kind.  File
# names are relative to a temporary working directory.
PINNED_RUNS = [
    ["fmt", "(\\x.x)(y z)"],
    ["reduce", "--trace", "(mu a.[a] x) y z"],
    ["check-simple", PEIRCE],
    ["check-simple", "--cert", "-", "|- \\x.\\y.x : A -> B -> A |"],
    ["infer-simple", "\\x.\\y.x"],
    ["check-iu", "--depth", "6",
     "|- mu d.[d](\\x.mu b.[d] x) : A \\/ (A -> B) |"],
    ["check-iu", "--cert", "out.json", "x:A /\\ B |- x : A |"],
    ["verify", "out.json"],
    ["metatheory", "--suite", "subject-reduction", "--cases", "10",
     "--seed", "0"],
    *(["examples", name, *flag]
      for name in ("peirce", "dne", "no-choice", "erasing")
      for flag in ([], ["--cert"])),
    ["check-simple", "x:A |- x : B |"],
    ["verify", "bad.json"],
    ["check-iu", "x:A |- x : B |"],
    ["check-iu", ", ".join(f"w{i}:C{i}" for i in range(40))
     + ", z:K, x:K -> B |- (\\y.y z) x : B |"],
    ["infer-simple", "\\x.x x"],
    ["reduce", "--fuel", "3", "(\\x.x x) (\\x.x x)"],
    ["fmt", "\\x."],
    ["reduce", "--rules", "zeta", "x"],
    ["reduce", "--fuel", "x", "y"],
]


def test_output_is_pinned(capsys, monkeypatch, tmp_path):
    """The argv, exit code, stdout and stderr of every run in
    ``PINNED_RUNS``, hashed.  For a usage error only argparse's last line
    counts: its usage layout is argparse's, not lammu's."""
    monkeypatch.delenv("LAMMU_COLOR", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(
        '{"rule": "InterE", "judgment": "x:A /\\\\ B |- x : C |"}')
    digest = hashlib.sha256()
    for argv in PINNED_RUNS:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        if code == 2 and err.startswith("usage:"):
            err = err.splitlines()[-1]
        digest.update(repr((argv, code, out, err)).encode())
    assert digest.hexdigest() == (
        "087e42459f6dbcddfe5ce71aded3182bc8c01fb14039d2f2f9de88064cf0d828")
