import argparse
import dataclasses
import json
import re

import numpy as np
import pytest

from qglab import catalog, checks, cli, duality, harmonic, hopf, lattice
from qglab.errors import CriteriaDisagree, NotPositive
from conftest import named_group


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def s3_file(tmp_path):
    path = tmp_path / "c_s3.json"
    path.write_text(hopf.save(catalog.builtin("c_s3")) + "\n")
    return str(path)


@pytest.fixture()
def z2_file(tmp_path):
    path = tmp_path / "c_z2.json"
    path.write_text(hopf.save(catalog.builtin("c_z2")) + "\n")
    return str(path)


def test_examples_writes_valid_file(tmp_path, capsys):
    out = tmp_path / "group.json"
    code, _, err = run(capsys, "examples", "cg_z4", "--out", str(out))
    assert code == 0
    assert "wrote" in err
    loaded = hopf.load_path(out)
    assert hopf.validate(loaded).passed


def test_validate_pass(s3_file, capsys):
    code, out, _ = run(capsys, "validate", s3_file)
    assert code == 0
    assert "overall: pass" in out


def test_validate_json_format(s3_file, capsys):
    code, out, _ = run(capsys, "validate", s3_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["tol"] == 1e-12


def test_validate_broken_file_names_axiom(tmp_path, capsys):
    doc = json.loads(hopf.save(catalog.builtin("c_z2")))
    doc["mult"][0][0][0] = [1.001, 0.0]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "validation failed" in err
    assert "NO" in out


def test_dual_of_broken_file_is_input_error(tmp_path, capsys):
    doc = json.loads(hopf.save(catalog.builtin("c_z2")))
    doc["mult"][0][0][0] = [1.001, 0.0]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "dual", str(path))
    assert code == 2
    assert "unit-law" in err
    assert out == ""


@pytest.mark.parametrize("command", ["idempotents", "lattice", "check"])
def test_commands_reject_a_file_failing_an_axiom(tmp_path, capsys, command):
    # a bumped coproduct entry breaks the counit law; the pipeline's failure
    # on it is reported as bad input that names the axiom, not as a bug
    doc = json.loads(hopf.save(catalog.builtin("c_s3")))
    doc["comult"][1][0][1] = [1.001, 0.0]
    path = tmp_path / "bumped.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert "counit-law fails" in err
    assert out == ""


@pytest.mark.parametrize("command", ["validate", "check"])
@pytest.mark.parametrize("value", ["NaN", "Infinity"])
@pytest.mark.parametrize("field, index", [
    ("mult", (1, 0, 1)), ("comult", (1, 0, 1)), ("antipode", (2, 1)),
    ("haar", (3,)),
])
def test_commands_reject_non_finite_entry(tmp_path, capsys, command, value,
                                           field, index):
    # json reads the NaN and Infinity tokens; the load names the entry
    doc = json.loads(hopf.save(catalog.builtin("c_s3")))
    entry = doc[field]
    for i in index[:-1]:
        entry = entry[i]
    entry[index[-1]] = ["__leaf__", 0.0]
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc).replace('"__leaf__"', value))
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    where = field + "".join(f"[{i}]" for i in index)
    assert f"error: {where}: entry" in err and "is not finite" in err
    assert out == ""


def test_validate_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/file.json")
    assert code == 2
    assert "error" in err


def test_validate_parse_error_is_input_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{\"dim\": 2}")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "mult" in err


def _z2_with_labels(labels):
    doc = json.loads(hopf.save(catalog.builtin("c_z2")))
    doc["labels"] = labels
    return json.dumps(doc)


@pytest.mark.parametrize("text, message", [
    ("[]", "top level: expected a JSON object"),
    ("{}", "missing field: dim"),
    (_z2_with_labels(["e"]), "labels: expected a list of 2 strings"),
], ids=["list", "no-dim", "short-labels"])
def test_malformed_document_names_its_fault(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(capsys, "validate", str(path)) == (
        cli.EXIT_INPUT_ERROR, "", f"error: {message}\n")


def test_catalog_strategy_needs_a_recognized_built_in(tmp_path, capsys):
    path = tmp_path / "c_d4.json"
    path.write_text(hopf.save(named_group("c_d4")) + "\n")
    assert run(capsys, "idempotents", "--strategy", "catalog", str(path)) == (
        cli.EXIT_INPUT_ERROR, "",
        "error: catalog strategy requires a recognized built-in\n")


@pytest.mark.parametrize("command", ["idempotents", "lattice"])
def test_haar_type_is_decided_at_the_tol_flag(s3_file, capsys, monkeypatch, command):
    seen = []
    real = harmonic.haar_type_test

    def recorded(phi, tol=harmonic.DEFAULT_TOL):
        seen.append(tol)
        return real(phi, tol)

    monkeypatch.setattr(harmonic, "haar_type_test", recorded)
    code, _, _ = run(capsys, command, s3_file, "--tol", "3e-8", "--format", "json")
    assert code == cli.EXIT_OK
    assert len(seen) == 6 and set(seen) == {3e-8}


def test_idempotents_json(s3_file, capsys):
    code, out, _ = run(capsys, "idempotents", s3_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["states"]) == 6
    assert doc["report"]["strategy"] == "catalog"
    for state in doc["states"]:
        assert state["haar_type"] is True
        assert set(state) == {"name", "coeffs", "q_perp", "coideal_dim",
                              "haar_type"}


def test_idempotents_deterministic_bytes(s3_file, capsys):
    args = ("idempotents", s3_file, "--format", "json", "--strategy",
            "generated")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_lattice_json_and_dot(s3_file, capsys):
    code, out, _ = run(capsys, "lattice", s3_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["states"]) == 6
    assert len(doc["order"]) == 6
    assert doc["dot"].startswith("digraph")

    code, out, _ = run(capsys, "lattice", s3_file, "--format", "dot")
    assert code == 0
    node = re.compile(r'^  "[^"]+" \[label="[^"]+"\];$')
    edge = re.compile(r'^  "[^"]+" -> "[^"]+";$')
    body = out.strip().splitlines()[1:-1]
    assert all(node.match(x) or edge.match(x) for x in body)


def test_idempotents_and_lattice_run_no_convolution_loop(s3_file, capsys,
                                                         monkeypatch):
    calls = []
    monkeypatch.setattr(lattice, "join_with_diagnostics",
                        lambda *args, **kwargs: calls.append(args))
    for command in ("idempotents", "lattice"):
        code, _, _ = run(capsys, command, s3_file, "--format", "json")
        assert code == 0
    assert calls == []


def test_idempotents_and_lattice_default_to_text(s3_file, capsys):
    code, out, _ = run(capsys, "idempotents", s3_file)
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "6 idempotent states (catalog, coverage: catalog)"
    assert len(lines) == 7
    assert all(re.match(r"^  \S+ +coideal dim \d+  haar-type (yes|no)$", x)
               for x in lines[1:])

    code, out, _ = run(capsys, "lattice", s3_file)
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert re.match(r"^6 states, (\d+) cover edges$", lines[0])
    edges = int(lines[0].split()[2])
    assert len(lines) == 1 + edges
    assert all(re.match(r"^  \S+ < \S+$", x) for x in lines[1:])


def test_dual_text_without_out_ends_with_the_dual_group(s3_file, capsys):
    code, out, _ = run(capsys, "dual", s3_file)
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "convention: coproduct-first-factor"
    assert all(re.match(r"^  \S+ +\d\.\d\de[-+]\d+$", x) for x in lines[1:-1])
    dual_group = hopf.loads(lines[-1])
    assert np.allclose(dual_group.mult, catalog.builtin("cg_s3").mult)


def test_lattice_out_file(s3_file, tmp_path, capsys):
    target = tmp_path / "lat.dot"
    code, out, _ = run(capsys, "lattice", s3_file, "--format", "dot",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("digraph")


def test_dual_roundtrip(s3_file, tmp_path, capsys):
    target = tmp_path / "dual.json"
    code, out, _ = run(capsys, "dual", s3_file, "--out", str(target))
    assert code == 0
    assert out.startswith("convention: coproduct-first-factor\n")
    dual_group = hopf.load_path(target)
    assert hopf.validate(dual_group).passed
    assert np.allclose(dual_group.mult, catalog.builtin("cg_s3").mult)


def test_dual_json_includes_w(z2_file, capsys):
    code, out, _ = run(capsys, "dual", z2_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"w_kind", "residuals", "w", "dual_group"}
    assert doc["w_kind"] == "coproduct-first-factor"
    assert len(doc["w"]) == 4 and len(doc["w"][0]) == 4
    assert "dual_group" in doc


def test_check_z2_passes(z2_file, capsys):
    code, out, _ = run(capsys, "check", z2_file)
    assert code == 0
    assert "overall: pass" in out


def test_check_trivial_group_passes(tmp_path, capsys):
    # on C(e) the counit is the Haar state, the only idempotent state
    path = tmp_path / "c_e.json"
    path.write_text(hopf.save(hopf.function_algebra([[0]])) + "\n")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "overall: pass" in out


def test_check_json_format(z2_file, capsys):
    code, out, _ = run(capsys, "check", z2_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert all(entry["passed"] for entry in doc)
    keys = {entry["key"] for entry in doc}
    assert {"axioms", "pentagon", "support-reconstruction",
            "duality-exchange", "modular-law"} <= keys


def test_unknown_example_name_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main(["examples", "nope"])


def test_nonpositive_tolerance_is_input_error(z2_file, capsys):
    # argparse's usage error: exit 2 before any command runs.  From 0.01 up
    # the gap bound 100 * tol reaches 1, the least distance between two
    # orthogonal projections of different rank
    for command in ("validate", "idempotents", "lattice", "dual", "check"):
        for flag in ("--tol", "--axiom-tol"):
            for value in ("-1", "0", "nan", "abc", "0.01", "0.5", "1e300", "inf"):
                with pytest.raises(SystemExit) as exc:
                    cli.main([command, z2_file, flag, value])
                assert exc.value.code == cli.EXIT_INPUT_ERROR
                err = capsys.readouterr().err
                assert (f"argument {flag}: must be a positive number below 0.01, "
                        f"got '{value}'") in err


@pytest.mark.parametrize("tol", ["8e-3", "9.99e-3"])
@pytest.mark.parametrize("name", list(catalog.BUILTIN_NAMES) + [
    "kp", "c_d4", "c_d5", "c_d6", "cg_d4", "cg_d5", "cg_d6"])
def test_check_passes_just_below_the_tolerance_bound(tmp_path, capsys, name, tol):
    # on these inputs each distance compared with the gap bound 100 * tol is
    # 0 or at least 1 (measured, not proved), and containment is a
    # dimension count, so every criterion stays decided up to the 0.01 bound
    path = tmp_path / f"{name}.json"
    path.write_text(hopf.save(named_group(name)) + "\n")
    code, _, err = run(capsys, "check", str(path), "--tol", tol)
    assert code == cli.EXIT_OK, err


def test_internal_inconsistency_maps_to_exit_3(z2_file, capsys, monkeypatch):
    from qglab import checks as checks_module
    from qglab.errors import CriteriaDisagree

    def boom(*args, **kwargs):
        raise CriteriaDisagree("forced for the exit-code contract")

    monkeypatch.setattr(checks_module, "run_all_checks", boom)
    code, _, err = run(capsys, "check", z2_file)
    assert code == 3
    assert "internal inconsistency" in err


def test_dual_failing_its_battery_exits_3(s3_file, capsys, monkeypatch):
    # the dual is built once, with no other candidate to fall back on, so a
    # battery failure on a valid file is a bug, not bad input
    real = duality.build_dual_tensors

    def doubled_star(group):
        out = real(group)
        return dataclasses.replace(out, star=2 * out.star)

    monkeypatch.setattr(duality, "build_dual_tensors", doubled_star)
    duality.dual.cache_clear()
    code, out, err = run(capsys, "dual", s3_file)
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert "internal inconsistency: the dual fails its battery" in err


@pytest.mark.parametrize("error, code", [
    (CriteriaDisagree, 3),   # a check's own criteria disagree: internal
    (NotPositive, 1),        # any other error inside a check: it fails
])
def test_check_exit_code_follows_the_failure_kind(z2_file, capsys, monkeypatch,
                                                  error, code):
    def boom(*args, **kwargs):
        raise error("forced inside one check")

    monkeypatch.setattr(lattice, "commutation_table", boom)
    got, out, err = run(capsys, "check", z2_file)
    assert got == code
    assert "commutation-equivalences" in err
    assert "FAIL (commutation-equivalences)" in out


@pytest.mark.parametrize("command", ["validate", "check"])
@pytest.mark.parametrize("leaf", ["[true, false]", "[true, 0.0]", "[0.0, false]"])
def test_commands_reject_boolean_entry(tmp_path, capsys, command, leaf):
    doc = json.loads(hopf.save(catalog.builtin("c_s3")))
    doc["comult"][0][0][0] = "__leaf__"
    path = tmp_path / "boolean.json"
    path.write_text(json.dumps(doc).replace('"__leaf__"', leaf))
    code, out, err = run(capsys, command, str(path))
    assert code == cli.EXIT_INPUT_ERROR
    assert "error: comult[0][0][0]: expected [re, im] pair" in err
    assert out == ""


def test_haar_less_file_works(tmp_path, capsys):
    doc = json.loads(hopf.save(catalog.builtin("c_s3")))
    del doc["haar"]
    path = tmp_path / "nohaar.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0 and "overall: pass" in out
    code, out, _ = run(capsys, "idempotents", str(path), "--format", "json")
    assert code == 0 and len(json.loads(out)["states"]) == 6


@pytest.mark.parametrize("name", ["c_s3", "cg_s3", "kp"])
@pytest.mark.parametrize("command", ["validate", "idempotents", "lattice", "dual", "check"])
def test_json_reports_are_the_standard_indented_encoding(tmp_path, capsys, name, command):
    group = named_group(name)
    path = tmp_path / f"{name}.json"
    path.write_text(hopf.save(group) + "\n")
    code, out, _ = run(capsys, command, "--format", "json", str(path))
    assert code == cli.EXIT_OK
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------------------
# --seed and --restarts on idempotents and --restarts on check, and the
# same keywords of enumerate_idempotents and run_all_checks, are accepted
# and unused
# ----------------------------------------------------------------------

@pytest.mark.parametrize("strategy", ["auto", "generated"])
def test_enumeration_ignores_restarts_and_seed(c_s3, strategy):
    plain = lattice.enumerate_idempotents(c_s3, strategy=strategy)
    shimmed = lattice.enumerate_idempotents(c_s3, strategy=strategy,
                                            restarts=200, seed=3)
    assert plain.report == shimmed.report
    assert [s.coeffs.tolist() for s in plain] == [s.coeffs.tolist() for s in shimmed]


def test_suite_ignores_restarts(c_z2):
    assert (checks.run_all_checks(c_z2, seed=1, restarts=200)
            == checks.run_all_checks(c_z2, seed=1))


@pytest.mark.parametrize("command", ["check", "idempotents"])
def test_restarts_flag_changes_no_byte(z2_file, capsys, command):
    plain = run(capsys, command, "--format", "json", "--seed", "5", z2_file)
    shimmed = run(capsys, command, "--format", "json", "--seed", "5",
                  "--restarts", "200", z2_file)
    assert plain[0] == cli.EXIT_OK
    assert plain == shimmed


def test_search_is_not_a_strategy(z2_file, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["idempotents", "--strategy", "search", z2_file])
    assert exc.value.code == cli.EXIT_INPUT_ERROR
    assert "invalid choice: 'search'" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the per-command parser against the parser that builds every subcommand
# ----------------------------------------------------------------------

def every_subcommand_parser(argv=None):
    # the parser as it was before each command line built only its own
    # subcommand
    parser = argparse.ArgumentParser(
        prog="qglab",
        description="idempotent states, coideal lattices and duality "
                    "on finite quantum groups")
    commands = parser.add_subparsers(dest="command", required=True)
    p = commands.add_parser("validate", help="check the structural axioms")
    cli._add_common(p)
    p = commands.add_parser("examples", help="write a built-in example as JSON")
    p.add_argument("name", choices=catalog.BUILTIN_NAMES)
    p.add_argument("--out", default=None)
    p = commands.add_parser("idempotents", help="enumerate idempotent states")
    cli._add_common(p)
    p.add_argument("--strategy", choices=lattice.STRATEGIES, default="auto")
    p.add_argument("--seed", type=int, help="accepted and unused")
    p.add_argument("--restarts", type=int, help="accepted and unused")
    p = commands.add_parser("lattice", help="order, tables and Hasse diagram")
    cli._add_common(p)
    p.add_argument("--strategy", choices=lattice.STRATEGIES, default="auto")
    p = commands.add_parser("dual", help="construct the dual quantum group")
    cli._add_common(p)
    p = commands.add_parser("check", help="run the full property suite")
    cli._add_common(p)
    p.add_argument("--seed", type=int, default=checks.DEFAULT_SEED,
                   help="seed of the suite's random probes")
    p.add_argument("--restarts", type=int, help="accepted and unused")
    return parser


def outcome(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["--help"], [], ["-h", "check"], ["search", "x.json"],
    *([name, "--help"] for name in cli._COMMANDS),
    ["check", "no-such-file.json"], ["check", "x.json", "--tol", "0"],
    ["examples", "c_q8"], ["idempotents", "x.json", "--strategy", "search"],
    ["lattice", "x.json", "--seed", "1"], ["dual", "x.json", "extra"],
    ["validate", "x.json", "--bogus"]])
def test_per_command_parser_prints_what_the_full_parser_prints(argv, capsys, monkeypatch):
    # help, usage errors and exit codes, byte for byte, at a fixed width
    monkeypatch.setenv("COLUMNS", "80")
    got = outcome(capsys, argv)
    monkeypatch.setattr(cli, "build_parser", every_subcommand_parser)
    assert got == outcome(capsys, argv)
    assert got[0] in (0, 2)


def test_only_the_named_subcommand_gets_its_arguments():
    def subparsers(parser):
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    for name in cli._COMMANDS:
        named = subparsers(cli.build_parser([name, "x.json"]))
        assert list(named) == [name] and len(named[name]._actions) > 1
    for argv in (["--help"], ["no-command"], [], None):
        every = subparsers(cli.build_parser(argv))
        assert list(every) == list(cli._COMMANDS)
        assert all(len(p._actions) > 1 for p in every.values())
