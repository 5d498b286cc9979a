import hashlib
import io
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from lammu.cli import main
from lammu.grammar import parse_judgment
from lammu.iu import Derivation, Judgment, derivation_to_json, under
from lammu.syntax import Abs, Var
from lammu.typelang import Arrow, TVar

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

    @pytest.mark.parametrize("rules, named", [
        ("beta,", "''"), ("", "''"), ("beta, mu", "' mu'"),
        ("zeta,beta,", "'', zeta")])
    def test_unknown_rule_is_named_even_when_empty(self, capsys, rules, named):
        assert main(["reduce", "--rules", rules, "x"]) == 2
        assert capsys.readouterr().err == f"unknown rules: {named}\n"

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

    @pytest.mark.parametrize("command, judgment", [
        ("check-iu", "x:A |- x : A |"), ("check-simple", PEIRCE)])
    def test_an_unwritable_cert_path_gives_no_verdict(self, command, judgment,
                                                      capsys, tmp_path):
        path = tmp_path / "missing" / "cert.json"
        assert main([command, "--cert", str(path), judgment]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert str(path) in err and not path.exists()

    @pytest.mark.parametrize("text, field", [
        ('{"nodes": [["InterE", 0]]}', "'judgment'"),
        ('{"judgment": "x:A |- x : A |"}', "'nodes'"),
        ('{"judgment": 1, "nodes": [["InterE", 0]]}', "'judgment'"),
        ('{"judgment": "x:A |- x : A |", "nodes": {}}', "'nodes'"),
        ('{"judgment": "x:A |- x : A |", "nodes": [["InterE"]]}',
         "[rule, count]"),
        ('{"judgment": "x:A |- x : A |", "nodes": [[1, 0]]}', "rule"),
        ('{"judgment": "x:A |- x : A |", "nodes": [["InterE", -1]]}', "count"),
        ('{"judgment": "x:A |- x : A |", "nodes": [["InterE", 0], []]}',
         "past the end"),
        ("[1]", "object"),
    ])
    def test_verify_rejects_malformed_certificates(self, text, field, capsys,
                                                   monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["verify", "-"]) == 2
        err = capsys.readouterr().err
        assert "malformed certificate" in err and field in err

    def test_verify_refuses_an_old_certificate(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(
            '{"rule": "InterE", "judgment": "x:A |- x : A |", "premises": []}'))
        assert main(["verify", "-"]) == 2
        assert capsys.readouterr().err == (
            "malformed certificate: certificate node at root: old format, "
            "with a judgment per node; re-create it with check-iu --cert\n")

    def test_verify_rejects_input_after_a_judgment(self, monkeypatch):
        text = '{"judgment": "x:A |- x : A | ) (", "nodes": [["InterE", 0]]}'
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

    def test_verify_and_check_iu_agree_on_a_union_weakening(self, capsys,
                                                             monkeypatch):
        """x:A lies below x:A \\/ B, but no lookup of x:A gives A \\/ B: the
        search misses the judgment, and a lookup may not conclude it."""
        judgment = "x:A |- x : A \\/ B |"
        monkeypatch.setattr("sys.stdin", io.StringIO(
            '{"judgment": "x:A |- x : A \\\\/ B |", "nodes": [["InterE", 0]]}'))
        assert main(["verify", "-"]) == 1
        assert "not a component" in capsys.readouterr().err
        assert main(["check-iu", judgment]) == 1
        assert capsys.readouterr().err == "not found\n"

    def test_verify_looks_up_a_component_up_to_equivalence(self, capsys,
                                                          monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(
            '{"judgment": "x:B \\\\/ A |- x : A \\\\/ B |",'
            ' "nodes": [["InterE", 0]]}'))
        assert main(["verify", "-"]) == 0
        assert capsys.readouterr().out == "valid: x:B \\/ A |- x : A \\/ B |\n"

    @pytest.mark.parametrize("rule", ["Thin", "Weaken"])
    def test_verify_knows_no_wrapper_rule(self, rule, capsys, monkeypatch):
        # thinning and weakening are admissible, not rules of a derivation
        monkeypatch.setattr("sys.stdin", io.StringIO(
            '{"judgment": "x:A |- x : A |",'
            f' "nodes": [["{rule}", 1], ["InterE", 0, "A"]]}}'))
        assert main(["verify", "-"]) == 1
        assert f"unknown rule {rule!r}" in capsys.readouterr().err

    def test_verify_from_stdin(self, capsys, monkeypatch, tmp_path):
        cert = tmp_path / "cert.json"
        assert main(["check-iu", "--cert", str(cert),
                     "x:A /\\ B |- x : A |"]) == 0
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO(cert.read_text()))
        assert main(["verify", "-"]) == 0

    @pytest.mark.parametrize("command, judgment", [
        ("check-iu", "x:A /\\ B |- x : A |"),
        ("check-simple", "|- \\x.\\y.x : A -> B -> A |"),
    ])
    def test_cert_to_stdout_pipes_into_verify(self, command, judgment, capsys,
                                              monkeypatch):
        assert main([command, "--cert", "-", judgment]) == 0
        out, err = capsys.readouterr()
        assert err.endswith(f"{judgment}\n")
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        assert main(["verify", "-"]) == 0
        assert capsys.readouterr().out == f"valid: {judgment}\n"

    @pytest.mark.parametrize("judgment", [
        "x:B \\/ A |- x : A \\/ B |",
        "|- mu d.[d](\\x.mu b.[d] x) : A \\/ (A -> B) |",
    ])
    def test_check_iu_prints_the_judgment_its_certificate_proves(
            self, judgment, capsys, monkeypatch):
        # the search works on canonical types, so the judgment it proves
        # may print otherwise than the one given
        assert main(["check-iu", "--cert", "-", judgment]) == 0
        out, err = capsys.readouterr()
        assert err.startswith("found: ")
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        assert main(["verify", "-"]) == 0
        valid = capsys.readouterr().out
        assert valid.startswith("valid: ")
        assert err[len("found: "):] == valid[len("valid: "):]

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
    """Terms parse, print and reduce at any depth, and derivations check at
    any depth.  A certificate whose types nest past the recursion limit
    leaves the verdict undecided (exit 3), never a definite "invalid"."""

    def test_verify_deep_certificate(self, monkeypatch):
        # 2,000 intersection introductions of x : A /\ A, each over the next
        # and a lookup of x : A
        leaf = Derivation("InterE", Judgment(*parse_judgment("x:A |- x : A |")))
        j = Judgment(*parse_judgment("x:A |- x : A /\\ A |"))
        d = leaf
        for _ in range(2000):
            d = Derivation("InterI", j, (d, leaf))
        monkeypatch.setattr("sys.stdin", io.StringIO(derivation_to_json(d)))
        assert main(["verify", "-"]) == 0

    def test_verify_a_type_400_arrows_deep(self, capsys, tmp_path):
        # y:A |- \x1. ... \x400.y : A -> ... -> A |: the type and the term
        # nest 400 levels; the cached text of a printed type must not lower
        # the depth that verifies
        a = TVar("A")
        d = Derivation("InterE", Judgment({}, Var("y"), a, {}))
        for k in range(400, 0, -1):
            j = d.conclusion
            d = Derivation("ArrowI", Judgment({}, Abs(f"x{k}", j.term),
                                              Arrow(a, j.ty), {}), (d,))
        cert = tmp_path / "arrows.json"
        cert.write_text(derivation_to_json(under(d, {"y": a}, {})))
        assert main(["verify", str(cert)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("valid: y:A |- \\x1.\\x2.")
        assert out.count(" -> ") == 400

    def test_fmt_deep_application_chain(self, capsys):
        text = "f (" * 599 + "f x" + ")" * 599
        assert main(["fmt", text]) == 0
        assert capsys.readouterr().out == text + "\n"

    def test_reduce_deep_substitution(self, capsys):
        body = "f (" * 2999 + "f z" + ")" * 2999
        assert main(["reduce", f"(\\z.{body}) y"]) == 0
        assert capsys.readouterr().out == body.replace("z", "y") + "\n"

    def test_reduce_deep_substitution_under_a_capturing_binder(self, capsys):
        # y is free in the argument, so \y is renamed; that takes the free
        # variables of the whole argument
        arg = "f (" * 2999 + "f y" + ")" * 2999
        assert main(["reduce", f"(\\x.\\y.x) ({arg})"]) == 0
        assert capsys.readouterr().out == f"\\y'.{arg}\n"

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
        '{"judgment": "x:A /\\\\ B |- x : C |", "nodes": [["InterE", 0]]}')
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
        "5d73a3bd8aa97f7e18ee90d9c528eaa5cdfda9f3e72370480882522582f1c4ef")
