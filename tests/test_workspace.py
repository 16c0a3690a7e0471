import os
import re
import subprocess
import sys
import time

import pytest

from tldforge import cli
from tldforge.cli import main
from tldforge.parser import MAX_NESTING, parse_tlds
from tldforge.semantics import MAX_DEPTH, check_agreement, check_equivalence
from tldforge.transform import simplify_description
from tldforge.workspace import (builtin_specs, load_workspace, run_oracle,
                                run_pipeline, suggest_skeleton)
from util import NESTINGS


def write_workspace(tmp_path, types="", spec="", tld="", manifest=None):
    (tmp_path / "w.types").write_text(types)
    (tmp_path / "w.spec").write_text(spec)
    (tmp_path / "w.tld").write_text(tld)
    text = manifest or "types w.types\nspec w.spec\ntld w.tld\n"
    path = tmp_path / "manifest.txt"
    path.write_text(text)
    return path


def test_fixture_workspace_loads_cleanly(maxprefix_dir):
    result = load_workspace(maxprefix_dir / "manifest.txt")
    assert result.ok
    assert not result.diagnostics
    ws = result.workspace
    assert {"max_prefix", "max_prefix_gen"} <= set(ws.tlds)
    assert "plus" in ws.specs  # builtin preamble is pre-registered


def test_loads_share_the_builtin_specs(maxprefix_dir):
    # the built-in preamble is parsed once per process, not once per load
    first, second = (load_workspace(maxprefix_dir / "manifest.txt").workspace
                     for _ in range(2))
    assert first.specs is not second.specs
    assert first.specs["plus"] is second.specs["plus"]
    builtins = builtin_specs()
    assert isinstance(builtins, tuple)
    assert all(first.specs[s.name] is s and second.specs[s.name] is s
               for s in builtins)


def test_missing_file_reported_with_path(tmp_path):
    # at the manifest line that names it
    path = write_workspace(tmp_path, manifest="types w.types\n\ntypes gone.types\n")
    result = load_workspace(path)
    assert not result.ok
    assert [d.format() for d in result.diagnostics] == [
        f"{path}:3:1: error[missing-file]: file not found: {tmp_path / 'gone.types'}"]


NAT_WORKSPACE = {
    "types": "nat ::= zero | s(nat).\n",
    "spec": "procedure p(X).\ntype X : nat.\ndir (ground) : <0-1>.\n",
    "tld": "p(X: nat) <=> X = zero.\n",
    "manifest": "types w.types\nspec w.spec\ntld w.tld\n"}


INTEGER_WORKSPACE = {
    "spec": "procedure p(X).\ntype X : integer.\ndir (ground) : <0-1>.\n",
    "manifest": "spec w.spec\ntld w.tld\n"}


def test_cli_integer_literal_too_long_to_convert_is_a_positioned_error(tmp_path, capsys):
    path = write_workspace(tmp_path, **INTEGER_WORKSPACE,
                           tld=f"p(X: integer) <=> plus(X, {'9' * 5000}, 3).\n")
    assert main(["oracle", "equiv", "--pred", "p", "--manifest", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"{tmp_path / 'w.tld'}:1:27: error[number-too-long]: "
                            "integer literal longer than 4300 digits\n")


def test_cli_builtin_solution_too_long_to_print_is_outside_every_type(tmp_path, capsys):
    # times(A, A, Y) solves Y to an integer of 6000 digits
    big = "9" * 3000
    path = write_workspace(tmp_path, **INTEGER_WORKSPACE, tld=(
        f"p(X: integer) <=> exists Y: integer . times({big}, {big}, Y) /\\ X = 1.\n"))
    assert main(["oracle", "equiv", "--pred", "p", "--manifest", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "checked 42 bindings (37 outside the types, 5 inside)" in captured.out
    assert "violations: 0, inconclusive: 0" in captured.out


@pytest.mark.parametrize("out", ["outfile", "outfile/sub"])
@pytest.mark.parametrize("command", [["check"], ["gen", "prolog"], ["gen", "mercury"]])
def test_cli_out_path_under_a_file_is_a_positioned_error(tmp_path, capsys, command, out):
    path = write_workspace(tmp_path, **{**NAT_WORKSPACE,
                                        "manifest": NAT_WORKSPACE["manifest"] + f"out {out}\n"})
    (tmp_path / "outfile").write_text("")
    assert main(command + ["--manifest", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}:4:1: error[out-dir]: not a directory: {tmp_path / 'outfile'}\n"


def test_cli_file_that_cannot_be_written_is_one_error(tmp_path, capsys):
    path = write_workspace(tmp_path, **{**NAT_WORKSPACE,
                                        "manifest": NAT_WORKSPACE["manifest"] + "out gen/out\n"})
    assert main(["gen", "prolog", "--manifest", str(path)]) == 0
    assert (tmp_path / "gen" / "out" / "p.pl").read_text() == capsys.readouterr().out
    (tmp_path / "gen" / "out" / "p.pl").unlink()
    (tmp_path / "gen" / "out" / "p.pl").mkdir()  # where the file goes
    assert main(["gen", "prolog", "--manifest", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write {tmp_path / 'gen' / 'out' / 'p.pl'}: "
                            "Is a directory\n")


@pytest.mark.parametrize("kind", ["manifest", "types", "spec", "tld"])
def test_cli_input_that_is_not_utf8_is_a_positioned_error(tmp_path, capsys, kind):
    path = write_workspace(tmp_path, **NAT_WORKSPACE)
    name = path if kind == "manifest" else tmp_path / f"w.{kind}"
    # an appended comment line whose eighth character is the byte 0xff
    name.write_bytes(NAT_WORKSPACE[kind].encode() + "# café ".encode() + b"\xff\n")
    line = NAT_WORKSPACE[kind].count("\n") + 1
    assert main(["check", "--manifest", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"{name}:{line}:8: error[encoding]: byte 0xff is not UTF-8\n")


def test_utf8_text_loads_whatever_the_locale_encoding(tmp_path):
    path = write_workspace(tmp_path, **NAT_WORKSPACE)
    path.write_bytes("# café\n".encode() + path.read_bytes())
    (tmp_path / "w.tld").write_bytes("# ∀ X\n".encode() + (tmp_path / "w.tld").read_bytes())
    result = subprocess.run([sys.executable, "-m", "tldforge.cli", "check", "--manifest",
                             str(path)], capture_output=True, text=True,
                            env={**os.environ, "PYTHONUTF8": "0", "LC_ALL": "C",
                                 "PYTHONCOERCECLOCALE": "0"})
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.startswith("ok: 1 descriptions")


def test_mutual_recursion_surfaces_with_position(tmp_path):
    path = write_workspace(tmp_path, types="t1 == t2.\nt2 ::= c | wrap(t1).\n")
    result = load_workspace(path)
    assert not result.ok
    bad = [d for d in result.diagnostics if d.code == "mutual-recursion"]
    assert bad and bad[0].pos is not None
    assert bad[0].pos.file.endswith("w.types")
    assert bad[0].pos.line >= 1


def test_unknown_callee_rejected_at_load(tmp_path):
    path = write_workspace(
        tmp_path,
        spec="procedure p(X).\ntype X : term.\ndir (ground) : <0-1>.\n",
        tld="p(X: term) <=> mystery(X).\n")
    result = load_workspace(path)
    assert not result.ok
    assert any("mystery" in d.message for d in result.diagnostics)


UNKNOWN_QUANTIFIER_TYPE = {
    "types": "nat ::= zero | s(nat).\n",
    "spec": "procedure p(X, Y).\ntype X : nat.\ntype Y : nat.\ndir (ground, ground) : <0-1>.\n",
    "tld": "p(X: nat, Y: nat) <=> exists Z: nosuch . X = Z /\\ Y = zero.\n"}


def test_quantifier_over_an_unknown_type_rejected_at_load(tmp_path):
    result = load_workspace(write_workspace(tmp_path, **UNKNOWN_QUANTIFIER_TYPE))
    assert not result.ok
    assert [d.format() for d in result.diagnostics] == [
        f"{tmp_path / 'w.tld'}:1:23: error[unknown-type]: "
        "p: unknown quantifier type nosuch for Z"]


@pytest.mark.parametrize("command", [
    ["check"], ["gen", "prolog"], ["gen", "mercury"], ["analyze"], ["derive"],
    ["transform"], ["oracle", "equiv", "--pred", "p"]])
def test_cli_quantifier_over_an_unknown_type_fails_every_command(tmp_path, capsys,
                                                                  command):
    path = write_workspace(tmp_path, **UNKNOWN_QUANTIFIER_TYPE)
    assert main(command + ["--manifest", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"{tmp_path / 'w.tld'}:1:23: error[unknown-type]: "
                            "p: unknown quantifier type nosuch for Z\n")


def test_description_without_specification_rejected(tmp_path):
    path = write_workspace(tmp_path, tld="p(X: term) <=> X = a.\n")
    result = load_workspace(path)
    assert not result.ok


def test_mismatched_call_site_annotation_warns(tmp_path):
    path = write_workspace(
        tmp_path,
        types="nat ::= zero | s(nat).\nfruit ::= enum {orange}.\n",
        spec=("procedure q(X).\ntype X : nat.\ndir (ground) : <0-1>.\n"
              "procedure p(Y).\ntype Y : fruit.\ndir (ground) : <0-1>.\n"),
        tld="q(X: nat) <=> X = zero.\np(Y: fruit) <=> q(Y).\n")
    result = load_workspace(path)
    assert result.ok  # a warning, not an error
    warnings = [d for d in result.diagnostics if d.code == "call-site-type"]
    assert warnings and "declares nat" in warnings[0].message


def test_universal_annotations_do_not_warn(maxprefix_dir):
    # re-fed untyped dumps annotate everything at the universal type
    result = load_workspace(maxprefix_dir / "manifest.txt")
    assert not [d for d in result.diagnostics if d.code == "call-site-type"]


MISMATCH_SPEC = ("procedure p(X, Y).\ntype X : nat.\ntype Y : nat.\n"
                 "dir (ground, var -> ground) : <0-1>.\n")
MISMATCH_TYPES = "nat ::= zero | s(nat).\nletter ::= a | b.\nnumber == nat.\n"


def test_cli_description_parameters_named_apart_from_the_spec_are_an_error(tmp_path,
                                                                          capsys):
    # elimination trusts the spec's parameter names: with A, B the trusted
    # check nat(A) was kept, with X, Y it is removed
    path = write_workspace(tmp_path, types=MISMATCH_TYPES, spec=MISMATCH_SPEC,
                           tld="p(A: nat, B: nat) <=> B = s(A).\n")
    for command in (["check"], ["gen", "prolog"]):
        assert main([*command, "--manifest", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"{tmp_path / 'w.tld'}:1:1: error[spec-mismatch]: p: "
                                "description parameters (A, B) differ from the "
                                "specification's (X, Y)\n")


@pytest.mark.parametrize("params, warned", [
    ("X: letter, Y: nat", "parameter X is letter in the description but nat in "
                          "the specification"),
    ("X: nat, Y: number", None),  # an alias of the spec's type
    ("X: term, Y: nat", None),  # as in a re-fed untyped dump
])
def test_description_parameter_types_are_checked_against_the_spec(tmp_path, params,
                                                                  warned):
    path = write_workspace(tmp_path, types=MISMATCH_TYPES, spec=MISMATCH_SPEC,
                           tld=f"p({params}) <=> Y = s(X).\n")
    result = load_workspace(path)
    assert result.ok
    assert [d.format() for d in result.diagnostics] == (
        [f"{tmp_path / 'w.tld'}:1:1: warning[spec-mismatch]: p: {warned}"] if warned else [])


# each case: the files that differ from NAT_WORKSPACE, and the first line
# of stderr with ``{dir}`` for the workspace directory; x.types, beside them,
# is listed only by the dup-type case
LOAD_ERRORS = {
    "malformed-manifest-line": (
        {"manifest": "types w.types\nspec\nspec w.spec\ntld w.tld\n"},
        "{dir}/manifest.txt:2:1: error[manifest]: malformed manifest line: 'spec'"),
    "unknown-declaration": (
        {"manifest": "types w.types\nspecs w.spec\ntld w.tld\n"},
        "{dir}/manifest.txt:2:1: error[manifest]: unknown declaration 'specs'"),
    "dup-type-across-files": (
        {"manifest": "types w.types\ntypes x.types\nspec w.spec\ntld w.tld\n"},
        "{dir}/x.types:2:1: error[dup-type]: type nat already defined in {dir}/w.types"),
    "dup-spec": (
        {"spec": NAT_WORKSPACE["spec"] + "procedure p(Y).\ntype Y : nat.\n"},
        "{dir}/w.spec:4:1: error[dup-spec]: procedure p is specified twice"),
    "dup-tld": (
        {"tld": "p(X: nat) <=> X = zero.\np(X: nat) <=> X = s(zero).\n"},
        "{dir}/w.tld:2:1: error[dup-tld]: p is described twice"),
    "unknown-spec-parameter-type": (
        {"spec": "procedure p(X).\ntype X : nosuch.\ndir (ground) : <0-1>.\n"},
        "{dir}/w.spec:1:1: error[unknown-type]: p: unknown parameter type nosuch"),
    "unknown-description-parameter-type": (
        {"tld": "p(X: nosuch) <=> X = zero.\n"},
        "{dir}/w.tld:1:1: error[unknown-type]: p: unknown parameter type nosuch"),
    "spec-description-arity": (
        {"tld": "p(X: nat, Y: nat) <=> X = Y.\n"},
        "{dir}/w.tld:1:1: error[unresolved-ref]: p: specification arity 1 but "
        "description arity 2"),
    "callee-arity": (
        {"spec": NAT_WORKSPACE["spec"] + "procedure q(Y).\ntype Y : nat.\n",
         "tld": "p(X: nat) <=> q(X, X).\n"},
        "{dir}/w.tld:1:1: error[unresolved-ref]: p calls q/2, but its specification "
        "has arity 1"),
}


@pytest.mark.parametrize("case", LOAD_ERRORS)
def test_cli_load_error_is_a_positioned_diagnostic(tmp_path, capsys, case):
    files, first = LOAD_ERRORS[case]
    write_workspace(tmp_path, **{**NAT_WORKSPACE, **files})
    (tmp_path / "x.types").write_text("letter ::= a.\nnat ::= zero.\n")
    assert main(["check", "--manifest", str(tmp_path / "manifest.txt")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[0] == first.format(dir=tmp_path)


def test_pipeline_failure_carries_both_suggestions(tmp_path):
    path = write_workspace(
        tmp_path,
        spec="procedure q(X).\ntype X : term.\ndir (var -> var) : <0-1>.\n",
        tld="q(X: term) <=> ~(X = a).\n")
    result = load_workspace(path)
    assert result.ok
    out = run_pipeline(result.workspace, "q")
    assert not out.ok
    assert "separate versions of the procedure" in out.failure
    assert "adapting the directionalities" in out.failure


def test_stage_dumps_are_observable(maxprefix_ws):
    r = run_pipeline(maxprefix_ws, "max_prefix_gen", stage="untyped")
    assert r.code.startswith("max_prefix_gen(L: term, M: term, A: term) <=>")
    for stage in ("tld", "simplified", "normalized", "derived", "ordered",
                  "eliminated"):
        dump = run_pipeline(maxprefix_ws, "max_prefix_gen", stage=stage)
        assert dump.code.strip()


def test_refeeding_the_untyped_dump_resumes_identically(maxprefix_ws, tmp_path):
    final = run_pipeline(maxprefix_ws, "max_prefix_gen", target="prolog")
    dump = run_pipeline(maxprefix_ws, "max_prefix_gen", stage="simplified").code
    src = maxprefix_ws.manifest.parent
    (tmp_path / "types.types").write_text((src / "types.types").read_text())
    (tmp_path / "maxprefix.spec").write_text((src / "maxprefix.spec").read_text())
    resumed_tld = dump + "\n" + "max_prefix(L: integer_list, M: integer) <=>\n" \
        "    max_prefix_gen(L, M, -infinite).\n"
    (tmp_path / "maxprefix.tld").write_text(resumed_tld)
    (tmp_path / "manifest.txt").write_text(
        "types types.types\nspec maxprefix.spec\ntld maxprefix.tld\n")
    reloaded = load_workspace(tmp_path / "manifest.txt")
    assert reloaded.ok, [d.format() for d in reloaded.diagnostics]
    resumed = run_pipeline(reloaded.workspace, "max_prefix_gen", target="prolog")
    assert resumed.code == final.code


def test_oracle_runner(maxprefix_ws):
    rep = run_oracle(maxprefix_ws, "max_prefix_gen", depth=2)
    assert rep.ok and rep.total == len(
        maxprefix_ws.env.enumerate_type("term", 2)) ** 3


def test_oracle_vacuous_forall_over_an_empty_domain(tmp_path, capsys):
    # deep has no term of depth 2, so the typed side is true for every X
    path = write_workspace(
        tmp_path,
        types="nat ::= zero | s(nat).\npair ::= p(nat, nat).\ndeep ::= d(pair).\n",
        spec="procedure vac(X).\ntype X : nat.\ndir (ground) : <0-1>.\n",
        tld="vac(X: nat) <=> forall Y: deep . forall Z: nat . Z = X.\n")
    rep = run_oracle(load_workspace(path).workspace, "vac", depth=2)
    assert rep.ok and rep.inside_agree == rep.inside == 2, rep.describe()
    assert main(["oracle", "equiv", "--manifest", str(path), "--pred", "vac",
                 "--depth", "2"]) == 0
    assert "violations: 0," in capsys.readouterr().out


def test_oracle_with_a_parameter_type_empty_at_the_depth(tmp_path, capsys):
    # pair has no term of depth 1: the guard pair(X) settles every binding
    path = write_workspace(
        tmp_path,
        types="nat ::= zero | s(nat).\npair ::= p(nat, nat).\n",
        spec="procedure fst(P, X).\ntype P : pair.\ntype X : nat.\n"
             "dir (ground, ground) : <0-1>.\n",
        tld="fst(P: pair, X: nat) <=> exists Y: nat . P = p(X, Y).\n")
    assert main(["oracle", "equiv", "--manifest", str(path), "--pred", "fst",
                 "--depth", "1"]) == 0
    out = capsys.readouterr().out
    assert ", 0 inside)" in out and "violations: 0," in out, out


def test_skeleton_for_the_induction_parameter(maxprefix_ws):
    text = suggest_skeleton(maxprefix_ws, "max_prefix_gen", "L")
    assert "L = [] /\\ #hole" in text
    assert "exists H: integer . exists T: integer_list . L = [H | T] /\\ #hole" in text
    filled = text.replace("#hole", "M = A")
    tlds, diags = parse_tlds("\n".join(
        line for line in filled.splitlines() if not line.startswith("#")))
    assert not diags and tlds[0].predicate == "max_prefix_gen"


def test_skeleton_for_nat_parameter(tmp_path):
    path = write_workspace(
        tmp_path,
        types="nat ::= zero | s(nat).\n",
        spec="procedure p(X).\ntype X : nat.\ndir (ground) : <0-1>.\n",
        tld="p(X: nat) <=> X = zero.\n")
    ws = load_workspace(path).workspace
    text = suggest_skeleton(ws, "p", "X")
    assert "X = zero /\\ #hole" in text
    assert "exists N: nat . X = s(N) /\\ #hole" in text


def test_skeleton_rejects_builtin_typed_parameters(maxprefix_ws):
    from tldforge.errors import NotStructuralError
    with pytest.raises(NotStructuralError):
        suggest_skeleton(maxprefix_ws, "max_prefix_gen", "M")


# -- command line ------------------------------------------------------------------

def test_cli_check_ok(maxprefix_dir, capsys):
    assert main(["check", "--manifest", str(maxprefix_dir / "manifest.txt")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok:")


def test_cli_check_errors_exit_one(tmp_path, capsys):
    path = write_workspace(tmp_path, types="t1 == t2.\nt2 ::= c | wrap(t1).\n")
    assert main(["check", "--manifest", str(path)]) == 1
    err = capsys.readouterr().err
    assert "mutual-recursion" in err
    assert "w.types:" in err


def test_cli_usage_error_exits_two():
    # analyze reports every directionality; only gen picks one
    for argv in (["gen", "ada", "--manifest", "x"],
                 ["analyze", "--manifest", "x", "--dir-index", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_cli_gen_matches_golden(maxprefix_dir, golden_dir, capsys):
    assert main(["gen", "prolog", "--manifest",
                 str(maxprefix_dir / "manifest.txt")]) == 0
    out = capsys.readouterr().out
    assert out == (golden_dir / "max_prefix.pl").read_text()


def test_cli_reorder_failure_exits_nonzero(tmp_path, capsys):
    path = write_workspace(
        tmp_path,
        spec="procedure q(X).\ntype X : term.\ndir (var -> var) : <0-1>.\n",
        tld="q(X: term) <=> ~(X = a).\n")
    code = main(["gen", "prolog", "--manifest", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert ("no literal permutation satisfies the directionality (disjunct 1 of 1)"
            in captured.err)
    assert "separate versions of the procedure" in captured.err
    assert "adapting the directionalities" in captured.err


def test_reorder_failure_names_the_blocked_literal_and_its_position(tmp_path, capsys):
    path = write_workspace(
        tmp_path, types="nat ::= zero | s(nat).\n",
        spec="procedure p(X, Y).\ntype X : nat.\ntype Y : nat.\n"
             "dir (ground, var -> ground) : <0-1>.\n\n"
             "procedure r(Y).\ntype Y : nat.\ndir (ground) : <0-1>.\n",
        tld="p(X: nat, Y: nat) <=> X = zero /\\ r(Y).\nr(Y: nat) <=> Y = zero.\n")
    assert main(["gen", "prolog", "--manifest", str(path), "--pred", "p"]) == 1
    err = capsys.readouterr().err
    assert "no literal permutation satisfies the directionality (disjunct 1 of 1)" in err
    assert (f"r(Y) at {tmp_path / 'w.tld'}:1:35 never became callable: "
            "no directionality of r/1 accepts argument modes (var)") in err


def test_reorder_failure_names_the_unreached_out_mode(tmp_path, capsys):
    # every literal runs in any order and none binds Y
    path = write_workspace(
        tmp_path,
        spec="procedure nofix(X, Y).\ntype X : integer.\ntype Y : term.\n"
             "dir (ground, var -> ground) : <0-*>.\n",
        tld="nofix(X: integer, Y: term) <=> gt(X, 1) /\\ plus(X, 2, V) /\\ lt(X, 9).\n")
    assert main(["analyze", "--manifest", str(path)]) == 1
    captured = capsys.readouterr()
    why = "every literal ran, but head parameter Y ends var where its out-mode is ground"
    assert (f"no literal permutation satisfies the directionality (disjunct 1 of 1); {why}"
            in captured.out)
    assert why in captured.err


def test_a_monotone_clause_without_an_order_is_decided_by_one_pass(maxprefix_dir, capsys):
    # 40 generators and a t(Z) that never runs: the search took seconds at 10
    fixture = maxprefix_dir.parent / "reorder_probe"
    assert main(["analyze", "--manifest", str(fixture / "manifest.txt"), "--pred", "p"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert (f"t(Z) at {fixture / 'probe.tld'}:85:5 never became callable: "
            "no directionality of t/1 accepts argument modes (var)") in err


def test_a_search_past_its_limit_is_one_positioned_error(maxprefix_dir, capsys):
    fixture = maxprefix_dir.parent / "reorder_limit"
    assert main(["analyze", "--manifest", str(fixture / "manifest.txt")]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: reorder-limit: the clause of p (disjunct 1 of 1) has no literal order "
        "for (var -> ground) : <0-*> within 10000 dead ends of the search; it is "
        f"searched because these are not monotone: src(V, Y) at {fixture / 'probe.tld'}:40:5\n")
    # the other procedures are still analysed
    assert captured.out.startswith("procedure r/1\n")


def test_a_long_clause_past_the_limit_is_one_positioned_error(maxprefix_dir, capsys):
    # src(X, Y), callable only while Y is free, 1,200 tests gt(X, c) and a
    # t(Z) that never runs: the search backtracks from 1,201 literals deep
    # and stops at its limit
    fixture = maxprefix_dir.parent / "reorder_deep"
    assert main(["analyze", "--manifest", str(fixture / "manifest.txt")]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: reorder-limit: the clause of p (disjunct 1 of 1) has no literal order "
        "for (ground, var -> ground) : <0-*> within 10000 dead ends of the search; it "
        f"is searched because these are not monotone: src(X, Y) at {fixture / 'probe.tld'}:7:5\n")
    assert captured.out.startswith("procedure t/1\n")


def test_a_unification_of_two_free_variables_waits_for_a_bound_side(maxprefix_dir, capsys):
    # p(X, Y) is "X equals Y" through A = B.  Run while A and B are both
    # free, A = B would alias them, and the modes would take B = Y for the
    # binding of a free B: one answer, where p(1, 2) has none
    manifest = str(maxprefix_dir.parent / "free_unify" / "manifest.txt")
    for pred, order in (("p", "A = X, integer(A), A = B, integer(B), B = Y"),
                        ("pt", "A = X, A = B, B = Y")):
        assert main(["analyze", "--manifest", manifest, "--pred", pred]) == 0
        out = capsys.readouterr().out
        assert f"    order (clause 1): {order}\n" in out
        assert "    computed multiplicity: <0-1> (declared <0-1>) [ok]\n" in out
    assert main(["gen", "mercury", "--manifest", manifest]) == 0
    out = capsys.readouterr().out
    for pred in ("p", "pt", "chain"):
        assert f":- mode {pred}(in, in) is semidet.\n" in out


def test_a_chain_of_variable_unifications_takes_the_greedy_pass(maxprefix_dir, capsys,
                                                                 monkeypatch):
    # each link runs once one of its sides is bound, and then grounds the
    # other: the 50 links are monotone, so the greedy pass orders them with
    # no search step, where the search used to pass its limit
    import tldforge.analysis as analysis
    monkeypatch.setattr(analysis, "MAX_REORDER_STEPS", 0)
    manifest = str(maxprefix_dir.parent / "free_unify" / "manifest.txt")
    start = time.perf_counter()
    assert main(["analyze", "--manifest", manifest, "--pred", "chain"]) == 0
    assert time.perf_counter() - start < 0.2
    out = capsys.readouterr().out
    order = ["Y = V49", "integer(V49)"]
    for i in range(49, 0, -1):
        order += [f"V{i} = V{i - 1}", f"integer(V{i - 1})"]
    assert f"    order (clause 1): {', '.join(order)}, V0 = X\n" in out
    assert "    computed multiplicity: <0-1> (declared <0-1>) [ok]\n" in out


def test_an_internal_error_is_one_line_and_exit_3(maxprefix_dir, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("a defect\nover two lines")

    monkeypatch.setattr(cli, "_run", broken)
    assert main(["check", "--manifest", str(maxprefix_dir / "manifest.txt")]) == 3
    assert capsys.readouterr().err == (
        "internal error: RuntimeError('a defect\\nover two lines')\n")


def test_cli_parser_is_built_once_and_reused(maxprefix_dir, capsys):
    manifest = str(maxprefix_dir / "manifest.txt")
    argv = ["gen", "prolog", "--manifest", manifest]
    outcomes = []
    for _ in range(2):
        outcomes.append((main(argv), capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--manifest", manifest])  # no target
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["check", "--manifest", manifest]) == 0
    assert capsys.readouterr().out.startswith("ok:")
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    # each subcommand keeps its own --emit-stage default, in any order
    for command, stage in ((["transform"], "simplified"), (["gen", "prolog"], None),
                           (["derive"], "derived"), (["transform"], "simplified")):
        args = parser.parse_args(command + ["--manifest", manifest])
        assert args.emit_stage == stage


def test_eval_context_builds_untyped_descriptions_on_lookup(maxprefix_ws, monkeypatch):
    import tldforge.workspace as workspace
    built = []
    original = workspace.transform_tld

    def counting(tld):
        built.append(tld.predicate)
        return original(tld)

    monkeypatch.setattr(workspace, "transform_tld", counting)
    preds = maxprefix_ws.eval_context().predicates
    assert "max_prefix" in preds and "nothing" not in preds
    assert list(preds) == list(maxprefix_ws.tlds) and len(preds) == len(maxprefix_ws.tlds)
    assert built == []
    tld, ld = preds["max_prefix"]
    assert preds.get("max_prefix") is preds["max_prefix"]
    assert preds.get("nothing") is None
    assert tld is maxprefix_ws.tlds["max_prefix"]
    assert ld == simplify_description(original(tld))
    assert built == ["max_prefix"]


def test_cli_analyze_matches_golden(maxprefix_dir, golden_dir, capsys):
    assert main(["analyze", "--manifest", str(maxprefix_dir / "manifest.txt")]) == 0
    out = capsys.readouterr().out
    assert out == (golden_dir / "max_prefix.analyze").read_text()


@pytest.mark.parametrize("command, golden", [
    (["gen", "prolog"], "dnf6.pl"),
    (["gen", "mercury"], "dnf6.m"),
    (["analyze"], "dnf6.analyze"),
])
def test_cli_dnf_matches_golden(golden_dir, capsys, command, golden):
    # 2**6 clauses sharing each derived literal, the binder V among them
    manifest = golden_dir.parent / "dnf" / "manifest.txt"
    assert main(command + ["--manifest", str(manifest)]) == 0
    assert capsys.readouterr().out == (golden_dir / golden).read_text()


@pytest.mark.parametrize("workspace, golden", [
    ("dnf", "dnf6"), ("maxprefix", "max_prefix")])
@pytest.mark.parametrize("stage", ["tld", "untyped", "normalized", "derived"])
def test_cli_stage_dumps_match_golden(golden_dir, capsys, workspace, golden, stage):
    manifest = golden_dir.parent / workspace / "manifest.txt"
    assert main(["derive", "--emit-stage", stage, "--manifest", str(manifest)]) == 0
    assert capsys.readouterr().out == (golden_dir / f"{golden}.{stage}").read_text()


def test_cli_analyze_reports_orders_the_emitter_would_refuse(tmp_path, capsys):
    # each directionality needs its own order, which a single Prolog
    # procedure cannot have; the analysis itself succeeds
    path = write_workspace(
        tmp_path,
        types="fruit ::= enum {orange, apple, banana}.\n",
        spec="procedure code(C, K).\ntype C : fruit.\ntype K : integer.\n"
             "dir (ground, var -> ground) : <0-*>.\n"
             "dir (var -> ground, ground) : <0-*>.\n",
        tld="code(C: fruit, K: integer) <=> C = orange /\\ K = 1 \\/ C = apple /\\ K = 2.\n")
    code = main(["analyze", "--manifest", str(path)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    # K = 1 and C = orange build members of the checked types, so the
    # checks after them are gone
    assert "order (clause 1): fruit(C), C = orange, K = 1\n" in captured.out
    assert "order (clause 1): integer(K), C = orange, K = 1\n" in captured.out
    assert captured.err == ""
    # the emitter refuses, naming the directionality and where it is declared
    assert main(["gen", "prolog", "--manifest", str(path)]) == 1
    err = capsys.readouterr().err
    assert re.search(r"directionality \(var -> ground, ground\) : <0-\*> at \S+w\.spec:5:1; "
                     "generate separate versions", err), err


def test_cli_one_failing_procedure_does_not_abort_the_others(tmp_path, capsys):
    path = write_workspace(
        tmp_path,
        types="nat ::= zero | s(nat).\n",
        spec="procedure bad(X).\ntype X : nat.\ndir (ground) : <0-1>.\n\n"
             "procedure good(X).\ntype X : nat.\ndir (ground) : <0-1>.\n",
        tld="bad(X: nat) <=> forall Y: nat . ~(X = s(Y)).\n"
            "good(X: nat) <=> X = zero.\n")
    for command in (["gen", "prolog"], ["analyze"]):
        code = main(command + ["--manifest", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert re.search(r"^error: .* at \S+w\.tld:1:\d+$", captured.err, re.M), captured.err
        assert "good" in captured.out


def test_cli_mercury_existential_in_a_conjunction_is_a_positioned_error(golden_dir,
                                                                       capsys):
    # gen prolog accepts it; gen mercury reports p and still prints q
    manifest = golden_dir.parent / "mercury_exists" / "manifest.txt"
    assert main(["gen", "prolog", "--manifest", str(manifest)]) == 0
    capsys.readouterr()
    assert main(["gen", "mercury", "--manifest", str(manifest)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith(":- pred q(nat).")
    assert captured.err == ("error: p: the Mercury backend cannot print the existential "
                            f"over Z at {manifest.parent / 'exists.tld'}:2:36\n")


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_cli_oracle_depth_below_one_is_a_usage_error(maxprefix_dir, depth, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "equiv", "--manifest", str(maxprefix_dir / "manifest.txt"),
              "--pred", "max_prefix", "--depth", depth])
    assert exc.value.code == 2
    assert "--depth" in capsys.readouterr().err


def test_cli_oracle_equiv(maxprefix_dir, capsys):
    code = main(["oracle", "equiv", "--manifest",
                 str(maxprefix_dir / "manifest.txt"),
                 "--pred", "max_prefix", "--depth", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "violations: 0" in out


def test_cli_oracle_settles_a_pinned_term_parameter(golden_dir, capsys):
    # p(X: term) <=> X = zero: the 16,317,567 values at depth 4 are counted,
    # and only zero is evaluated
    manifest = golden_dir.parent / "pinned" / "manifest.txt"
    assert main(["oracle", "equiv", "--manifest", str(manifest), "--pred", "p",
                 "--depth", "4"]) == 0
    out = capsys.readouterr().out
    assert "checked 16317567 bindings (0 outside the types, 16317567 inside)" in out
    assert "violations: 0, inconclusive: 0" in out


def test_cli_writes_output_files_when_out_declared(tmp_path, capsys):
    src = write_workspace(
        tmp_path,
        types="letter ::= a | b.\n",
        spec="procedure p(X).\ntype X : letter.\ndir (ground) : <0-1>.\n",
        tld="p(X: letter) <=> X = a.\n",
        manifest="types w.types\nspec w.spec\ntld w.tld\nout generated\n")
    assert main(["gen", "prolog", "--manifest", str(src)]) == 0
    capsys.readouterr()
    assert (tmp_path / "generated" / "p.pl").is_file()


def test_cli_level_none_keeps_all_checks(maxprefix_dir, capsys):
    code = main(["gen", "prolog", "--manifest",
                 str(maxprefix_dir / "manifest.txt"), "--level", "none",
                 "--pred", "max_prefix_gen"])
    captured = capsys.readouterr()
    assert code == 0
    assert "integer_list(L)" in captured.out
    assert "integer(A)" in captured.out


def test_cli_clause_blowup_is_a_positioned_error(tmp_path, capsys):
    body = " /\\ ".join(f"(lt(X, {i}) \\/ ge(X, {i}))" for i in range(13))
    path = write_workspace(
        tmp_path,
        spec="procedure p(X).\ntype X : integer.\ndir (ground) : <0-*>.\n",
        tld=f"p(X: integer) <=> {body}.\n")
    assert main(["gen", "prolog", "--manifest", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: derive-blowup: the conjunction at {tmp_path / 'w.tld'}:1:1 "
                   "distributes into 8192 clauses, more than the limit of 4096\n")


@pytest.mark.parametrize("index", ["0", "-1"])
def test_cli_dir_index_below_one_is_a_usage_error(maxprefix_dir, capsys, index):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "prolog", "--manifest", str(maxprefix_dir / "manifest.txt"),
              "--dir-index", index])
    assert exc.value.code == 2
    assert "--dir-index: must be at least 1" in capsys.readouterr().err


ONE_NAT = {"types": "nat ::= zero | s(nat).\n",
           "spec": "procedure p(X).\ntype X : nat.\ndir (ground) : <0-1>.\n"}


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 14, 50, 400])
def test_cli_depth_past_the_limit_is_a_usage_error(tmp_path, capsys, depth):
    path = write_workspace(tmp_path, **ONE_NAT, tld="p(X: nat) <=> X = zero.\n")
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "equiv", "--pred", "p", "--manifest", str(path),
              "--depth", str(depth)])
    assert exc.value.code == 2
    assert (f"--depth: must be at most {MAX_DEPTH}, got {depth}"
            in capsys.readouterr().err)


def test_cli_depth_at_the_limit_runs(tmp_path, capsys):
    path = write_workspace(tmp_path, **ONE_NAT, tld="p(X: nat) <=> X = zero.\n")
    assert main(["oracle", "equiv", "--pred", "p", "--manifest", str(path),
                 "--depth", str(MAX_DEPTH)]) == 0
    assert capsys.readouterr().out.startswith(f"depth {MAX_DEPTH}: checked ")


HUGE = "9" * 5000


@pytest.mark.parametrize("option, value, message", [
    ("--depth", HUGE, f"must be at most {MAX_DEPTH}, got {'9' * 20}..."),
    ("--depth", "-" + HUGE, f"must be at least 1, got -{'9' * 19}..."),
    ("--depth", "x" * 5000, f"not an integer: '{'x' * 20}...'"),
    ("--dir-index", HUGE, f"too large: {'9' * 20}..."),
    ("--dir-index", " 0 ", "must be at least 1, got 0"),
], ids=["depth-huge", "depth-huge-negative", "depth-long-text", "dir-index-huge",
        "dir-index-zero"])
def test_cli_integer_argument_error_echoes_a_short_argument(tmp_path, capsys, option,
                                                           value, message):
    path = write_workspace(tmp_path, **ONE_NAT, tld="p(X: nat) <=> X = zero.\n")
    command = (["oracle", "equiv", "--pred", "p"] if option == "--depth"
               else ["gen", "prolog"])
    with pytest.raises(SystemExit) as exc:
        main([*command, "--manifest", str(path), f"{option}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(f"error: argument {option}: {message}")
    assert len(err) < 400


def test_cli_unsatisfiable_procedure_fails_in_prolog(tmp_path, capsys):
    path = write_workspace(tmp_path, **ONE_NAT, tld="p(X: nat) <=> false.\n")
    assert main(["gen", "prolog", "--manifest", str(path)]) == 0
    assert capsys.readouterr().out == ("% p/1 has no clauses: the definition is "
                                       "unsatisfiable.\np(_) :- fail.\n")


def test_api_depth_is_bounded_where_the_context_is_built(tmp_path):
    path = write_workspace(tmp_path, **ONE_NAT, tld="p(X: nat) <=> X = zero.\n")
    ws = load_workspace(path).workspace
    ctx = ws.eval_context()
    typed, untyped = ws.tlds["p"].definition, ctx.predicates["p"][1].definition
    for depth in (MAX_DEPTH + 1, 14):
        with pytest.raises(ValueError, match=f"^universe depth {depth} is over the "
                           f"limit of {MAX_DEPTH}$"):
            run_oracle(ws, "p", depth=depth)
        with pytest.raises(ValueError, match=f"limit of {MAX_DEPTH}"):
            check_equivalence(ctx, typed, untyped, [("X", "nat")], depth=depth)
        with pytest.raises(ValueError, match=f"limit of {MAX_DEPTH}"):
            check_agreement(ctx, typed, typed, [("X", "nat")], depth=depth)
        with pytest.raises(ValueError, match=f"limit of {MAX_DEPTH}"):
            ws.eval_context(universe_depth=depth)
    report = run_oracle(ws, "p", depth=MAX_DEPTH)
    assert report.ok and report.describe().startswith(f"depth {MAX_DEPTH}: checked ")
    assert check_equivalence(ctx, typed, untyped, [("X", "nat")], depth=MAX_DEPTH).ok
    assert check_agreement(ctx, typed, typed, [("X", "nat")], depth=MAX_DEPTH).ok


@pytest.mark.parametrize("command", [["check"], ["transform"], ["derive"], ["analyze"],
                                     ["gen", "prolog"], ["oracle", "equiv", "--pred", "p"]])
def test_cli_long_list_literal_is_diagnosed(tmp_path, capsys, command):
    # item 101 of a 350-item list opens the level past the limit
    head = "p(X: nat) <=> X = zero /\\ Y = ["
    tld = head + ", ".join(["1"] * 350) + "].\n"
    path = write_workspace(tmp_path, **ONE_NAT, tld=tld)
    assert main([*command, "--manifest", str(path)]) == 1
    col = len(head) + len("1, ") * MAX_NESTING + 1
    assert capsys.readouterr().err == (f"{tmp_path / 'w.tld'}:1:{col}: "
                                       "error[nesting-too-deep]: nesting deeper than "
                                       f"{MAX_NESTING} levels\n")


def test_cli_dir_index_two_demands_splitting(maxprefix_dir, capsys):
    # the second directionality's order starts with integer(M), which the
    # first directionality cannot execute, so a single order is refused
    code = main(["gen", "prolog", "--manifest",
                 str(maxprefix_dir / "manifest.txt"), "--dir-index", "2",
                 "--pred", "max_prefix_gen"])
    captured = capsys.readouterr()
    assert code == 1
    assert "separate versions" in captured.err
    code = main(["gen", "prolog", "--manifest",
                 str(maxprefix_dir / "manifest.txt"), "--dir-index", "2",
                 "--split", "--pred", "max_prefix_gen"])
    captured = capsys.readouterr()
    assert code == 0
    clauses = captured.out.split("\n\n")
    assert clauses[0].splitlines()[1].strip() == "integer(M),"
    assert "max_prefix_gen__d1" in captured.out
    # the recursive call leaves M1 free, so it picks directionality 1, which
    # the unsuffixed procedure does not emit here
    assert "    max_prefix_gen__d1(T, M1, A1)," in clauses[1].splitlines()
    assert "max_prefix_gen(T, M1, A1)" not in captured.out


def test_cli_split_calls_name_the_version_the_analysis_picked(maxprefix_dir, capsys):
    code = main(["gen", "prolog", "--manifest", str(maxprefix_dir / "manifest.txt"),
                 "--split"])
    out = capsys.readouterr().out
    assert code == 0
    clauses = out.split("\n\n")
    # max(...) and plus(...) are builtins: never suffixed
    assert clauses[1].splitlines()[3:] == ["    max_prefix_gen(T, M1, A1),",
                                           "    max(A1, M1, M)."]
    assert clauses[3].splitlines()[4] == "    max_prefix_gen(T, M1, A1),"
    assert clauses[4:] == [
        "max_prefix(L, M) :-\n    max_prefix_gen(L, M, -infinite).",
        "max_prefix__d2(L, M) :-\n    integer(M),\n"
        "    max_prefix_gen__d2(L, M, -infinite).\n"]


SWITCH_WORKSPACE = {
    "types": "nat ::= zero | s(nat).\n",
    "spec": "procedure sw(X, Y).\ntype X : nat.\ntype Y : nat.\n"
            "dir (ground, var -> ground) : <0-1>.\ndir (ground, ground) : <0-1>.\n",
    "tld": "sw(X: nat, Y: nat) <=> X = zero /\\ Y = zero\n"
           "    \\/ exists Z: nat . X = s(Z) /\\ Y = s(zero).\n"}


def test_cli_split_cuts_every_version(tmp_path, capsys):
    # each directionality verifies its own switch on X
    path = write_workspace(tmp_path, **SWITCH_WORKSPACE)
    assert main(["gen", "prolog", "--manifest", str(path), "--split", "--cuts"]) == 0
    assert capsys.readouterr().out == (
        "sw(X, Y) :-\n    X = zero,\n    !,\n    Y = zero.\n\n"
        "sw(X, Y) :-\n    X = s(Z),\n    Y = s(zero).\n\n"
        "sw__d2(X, Y) :-\n    nat(Y),\n    X = zero,\n    !,\n    Y = zero.\n\n"
        "sw__d2(X, Y) :-\n    nat(Y),\n    X = s(Z),\n    Y = s(zero).\n")


def test_cli_an_output_built_of_its_type_is_det(golden_dir, capsys):
    # Y = zero and Y = s(zero) build nats, so no nat(Y) is left to fail
    manifest = golden_dir.parent / "built_outputs" / "manifest.txt"
    assert main(["analyze", "--manifest", str(manifest), "--pred", "sw"]) == 0
    captured = capsys.readouterr()
    assert ("    order (clause 1): X = zero, Y = zero\n"
            "    order (clause 2): X = s(Z), Y = s(zero)\n") in captured.out
    assert "computed multiplicity: <1-1> (declared <1-1>) [ok]\n" in captured.out
    assert captured.err == ""
    assert main(["gen", "mercury", "--manifest", str(manifest), "--pred", "sw"]) == 0
    captured = capsys.readouterr()
    assert ":- mode sw(in, out) is det.\n" in captured.out
    assert captured.err == ""
    assert main(["gen", "prolog", "--manifest", str(manifest), "--pred", "dbl"]) == 0
    assert capsys.readouterr().out == (
        "dbl(X, Y) :-\n    X = zero,\n    Y = zero.\n\n"
        "dbl(X, Y) :-\n    X = s(X1),\n    dbl(X1, Y1),\n    Y = s(s(Y1)).\n")


def test_cli_a_call_widens_and_a_repeated_constructor_keeps_its_check(golden_dir, capsys):
    # q(f(Y)) may bind Y, as a unification with f(Y) may, so r, which needs
    # Y free, runs first; f is t's constructor twice, so X = f(Y) does not
    # make Y a nat, and pick(f(yes), Y) fails at the kept nat(Y)
    manifest = str(golden_dir.parent / "rule_copies" / "manifest.txt")
    assert main(["analyze", "--manifest", manifest]) == 0
    captured = capsys.readouterr()
    assert "    order (clause 1): r(Y), q(f(Y)), X = Y\n" in captured.out
    assert ("procedure pick/2\n  directionality 1: (ground, var -> ground) : <0-1>\n"
            "    order (clause 1): X = f(Y), nat(Y)\n"
            "    removed checks: clause 1: t(X)\n"
            "    computed multiplicity: <0-1> (declared <0-1>) [ok]\n") in captured.out
    assert captured.err.endswith(
        "probes.types:5:1: warning[dup-case]: type t repeats a constructor; "
        "check elimination does not decompose a term built by it\n")
    assert main(["gen", "prolog", "--manifest", manifest, "--pred", "pick"]) == 0
    assert capsys.readouterr().out == "pick(X, Y) :-\n    X = f(Y),\n    nat(Y).\n"


def test_cli_every_fact_source_counts_for_determinism(golden_dir, capsys):
    # fold's integer(S) follows S = A1, an integer by plus's success; code's
    # fruit(C) is kept, C being var in the second directionality, but C is
    # a ground fruit in the first
    manifest = str(golden_dir.parent / "fact_sources" / "manifest.txt")
    assert main(["analyze", "--manifest", manifest]) == 0
    captured = capsys.readouterr()
    assert re.findall(r"computed multiplicity: (.*)\n", captured.out) == [
        "<1-1> (declared <1-1>) [ok]", "<1-1> (declared <1-1>) [ok]",
        "<0-1> (declared <0-1>) [ok]"]
    assert captured.err == ""
    assert main(["gen", "mercury", "--manifest", manifest]) == 0
    captured = capsys.readouterr()
    assert ":- mode fold(in, out) is det.\n" in captured.out
    assert ":- mode code(in, out) is det.\n" in captured.out
    assert captured.err == ""
    # check elimination reads no variable-variable unification
    assert main(["gen", "prolog", "--manifest", manifest, "--pred", "fold"]) == 0
    assert capsys.readouterr().out.endswith("    S = A1,\n    integer(S).\n")


@pytest.mark.parametrize("t", ["term", "nat"])
def test_cli_a_free_free_unification_counts_as_a_test(tmp_path, capsys, t):
    # C = A joins a free C with A, bound to a partial term, so the later
    # C = s(D) can fail: <0-1>, whatever the facts shared by C and A
    quantified = "".join(f"exists {v}: {t} . " for v in "ABCD")
    path = write_workspace(
        tmp_path, types="nat ::= zero | s(nat).\n",
        spec=f"procedure p(X, Y).\ntype X : {t}.\ntype Y : {t}.\n"
             "dir (ground, ground) : <0-1>.\n",
        tld=f"p(X: {t}, Y: {t}) <=> {quantified}"
            "A = s(B) /\\ C = A /\\ C = s(D) /\\ B = X /\\ D = Y.\n")
    assert main(["analyze", "--manifest", str(path)]) == 0
    out = capsys.readouterr().out
    assert "computed multiplicity: <0-1> (declared <0-1>) [ok]\n" in out
    if t == "term":
        assert "    order (clause 1): A = s(B), C = A, C = s(D), B = X, D = Y\n" \
            "    removed checks: none\n" in out
    assert main(["gen", "mercury", "--manifest", str(path)]) == 0
    assert ":- mode p(in, in) is semidet.\n" in capsys.readouterr().out


@pytest.mark.parametrize("k", ["1", "2", "3"])
def test_cli_split_emits_every_version_its_calls_name(golden_dir, capsys, k):
    # p has three directionalities and calls q, which has two: at
    # --dir-index 3, q's versions are both suffixed, and both emitted; r
    # has one, always emitted unsuffixed
    manifest = golden_dir.parent / "split_versions" / "manifest.txt"
    assert main(["gen", "prolog", "--manifest", str(manifest), "--split",
                 "--dir-index", k]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    # a clause head starts a line, and each body literal is a line of its own
    defined = set(re.findall(r"^([a-z]\w*)\(", captured.out, re.M))
    called = set(re.findall(r"^    ([a-z]\w*)\(", captured.out, re.M))
    ws = load_workspace(manifest).workspace
    assert "q" in {c.split("__")[0] for c in called}
    assert called - set(ws.env.defs) <= defined, captured.out
    assert {"p", "p__d1", "p__d2", "p__d3"} - {f"p__d{k}"} == {
        d for d in defined if d.startswith("p")}
    assert "r" in defined


def test_cli_split_outputs_match_their_goldens(golden_dir, capsys):
    # every version, every call's suffix and every kept check, byte for byte
    for workspace, k, golden in (("maxprefix", "1", "max_prefix.split1.pl"),
                                 ("maxprefix", "2", "max_prefix.split2.pl"),
                                 ("split_versions", "3", "split_versions.split3.pl")):
        manifest = golden_dir.parent / workspace / "manifest.txt"
        assert main(["gen", "prolog", "--manifest", str(manifest), "--split",
                     "--dir-index", k]) == 0
        assert capsys.readouterr() == ((golden_dir / golden).read_text(), ""), golden


# p has two directionalities and calls ext, which has a specification only
EXTERNAL_WORKSPACE = {
    "types": "nat ::= zero | s(nat).\n",
    "spec": "procedure p(X, Y).\ntype X : nat.\ntype Y : nat.\n"
            "dir (ground, var -> ground) : <1-1>.\ndir (ground, ground) : <0-1>.\n"
            "procedure ext(X, Y).\ntype X : nat.\ntype Y : nat.\n"
            'external "ext_impl".\n'
            "dir (ground, var -> ground) : <1-1>.\ndir (ground, ground) : <0-1>.\n",
    "tld": "p(X: nat, Y: nat) <=> ext(X, Y).\n"}


SKELETON = ("# skeleton for p; replace each #hole with the case's formula\n"
            "p(X: nat, Y: nat) <=>\n"
            "       X = zero /\\ #hole\n"
            "    \\/ exists N: nat . X = s(N) /\\ #hole\n"
            "    .\n")


MERCURY_DIR_INDEX = ("tld-forge gen: error: argument --dir-index: gen mercury declares "
                     "every directionality\n")


@pytest.mark.parametrize("argv, manifest, code, out, err", [
    (["skeleton", "--pred", "p", "X"], None, 0, SKELETON, ""),
    # ext has no description: its calls are never suffixed
    (["gen", "prolog", "--split"], None, 0,
     "p(X, Y) :-\n    ext(X, Y).\n\np__d2(X, Y) :-\n    nat(Y),\n    ext(X, Y).\n", ""),
    (["oracle", "equiv", "--pred", "ext"], None, 1, "", "error: no description for ext\n"),
    (["gen", "prolog", "--dir-index", "3"], None, 1, "", "error: p has no directionality 3\n"),
    (["skeleton", "--pred", "q", "X"], None, 1, "", "error: no specification for q\n"),
    (["skeleton", "--pred", "p", "Z"], None, 1, "", "error: p has no parameter Z\n"),
    (["analyze"], "types w.types\nspec w.spec\n", 1, "",
     "nothing to do: the workspace has no descriptions\n"),
    # Mercury declares every directionality: --dir-index only picks the
    # order an ordered or eliminated dump shows
    (["gen", "mercury", "--dir-index", "3"], None, 2, "", MERCURY_DIR_INDEX),
    (["gen", "mercury", "--dir-index", "1"], None, 2, "", MERCURY_DIR_INDEX),
    (["gen", "mercury", "--dir-index", "1", "--emit-stage", "derived"], None, 2, "",
     MERCURY_DIR_INDEX),
    (["gen", "mercury", "--dir-index", "2", "--emit-stage", "eliminated"], None, 0,
     "p(X, Y) :-\n    nat(Y),\n    ext(X, Y).\n", ""),
    (["gen", "mercury", "--dir-index", "3", "--emit-stage", "ordered"], None, 1, "",
     "error: p has no directionality 3\n"),
])
def test_cli_command_paths(tmp_path, capsys, argv, manifest, code, out, err):
    path = write_workspace(tmp_path, **EXTERNAL_WORKSPACE, manifest=manifest)
    assert main([*argv, "--manifest", str(path)]) == code
    assert capsys.readouterr() == (out, err)


def test_cli_entry_point_runs_as_module(maxprefix_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "tldforge.cli", "check",
         "--manifest", str(maxprefix_dir / "manifest.txt")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("ok:")


STAGE_MODULES = {"analysis", "codegen", "derive", "semantics", "transform"}

# runs its arguments as a command line, then prints the exit code and the
# tldforge modules loaded
_LOADED_PROBE = """
import sys
from tldforge.cli import main
code = main(sys.argv[1:])
print(code, *sorted(m.removeprefix("tldforge.") for m in sys.modules
                  if m.startswith("tldforge.")))
"""


def _fresh_interpreter(code: str, *args) -> list:
    """The last line a fresh interpreter prints running ``code``, split."""
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1].split()


def test_check_starts_without_the_stage_modules(maxprefix_dir):
    manifest = str(maxprefix_dir / "manifest.txt")
    code, *loaded = _fresh_interpreter(_LOADED_PROBE, "check", "--manifest", manifest)
    assert code == "0"
    assert set(loaded) == {"ast", "cli", "diagnostics", "errors", "modes", "parser",
                           "printer", "typesys", "workspace"}
    code, *loaded = _fresh_interpreter(_LOADED_PROBE, "gen", "prolog", "--manifest", manifest)
    assert code == "0" and STAGE_MODULES <= set(loaded)
    # the package's names resolve on first access, from a fresh start too
    names = _fresh_interpreter("from tldforge import reorder, EvalContext\n"
                               "print(reorder.__module__, EvalContext.__module__)")
    assert names == ["tldforge.analysis", "tldforge.semantics"]
    import tldforge
    assert tldforge.__all__ == [
        "And", "Atom", "Call", "Clause", "Eq", "Exists", "FALSE", "FalseF",
        "Forall", "Formula", "Iff", "Implies", "LogicDescription", "NafNot",
        "Not", "Or", "Program", "Struct", "Term", "TRUE", "TrueF", "TypeCheck",
        "TypedLogicDescription", "Unify", "Var", "free_variables", "substitute",
        "AbstractState", "Registry", "ReorderFailure", "abstract_step",
        "analyze_determinism", "analyze_procedure", "eliminate_checks", "reorder",
        "emit_mercury", "emit_prolog", "flatten_arithmetic",
        "mult_to_mercury_determinism", "NormalizedBody", "derive_clauses",
        "normalize", "Directionality", "Mode", "Multiplicity", "Spec",
        "check_directionality", "parse_formula", "parse_spec", "parse_specs",
        "parse_term", "parse_tld", "parse_tlds", "parse_types", "EvalContext",
        "Truth", "check_agreement", "check_equivalence", "evaluate",
        "evaluate_reference", "check_of", "simplify_checks", "transform_formula",
        "transform_tld", "TypeDef", "TypeEnv", "check_env", "Workspace",
        "load_workspace", "run_oracle", "run_pipeline", "suggest_skeleton",
    ]
    assert all(getattr(tldforge, name) is not None for name in tldforge.__all__)


def test_a_stage_name_bound_before_the_stages_load_is_kept(maxprefix_dir):
    # a tracer or a test may replace a stage function before any stage ran
    code = """
import sys
import tldforge.workspace as workspace
calls = []
def counting(*args):
    calls.append(args)
    return sys.modules["tldforge.derive"].normalize(*args)
workspace.normalize = counting
ws = workspace.load_workspace(sys.argv[1]).workspace
workspace.run_pipeline(ws, "max_prefix", stage="normalized")
print(len(calls), workspace.normalize is counting, workspace.derive_clauses.__module__)
"""
    assert _fresh_interpreter(code, str(maxprefix_dir / "manifest.txt")) == [
        "1", "True", "tldforge.derive"]


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_cli_nesting_at_the_limit_runs_and_past_it_is_diagnosed(kind, tmp_path, capsys):
    nest, _ = NESTINGS[kind]
    spec = "procedure p(X).\ntype X : nat.\ndir (ground) : <0-1>.\n"
    commands = (["check"], ["transform"], ["derive"], ["analyze"], ["gen", "prolog"],
                ["gen", "mercury"], ["oracle", "equiv", "--pred", "p"])
    path = write_workspace(tmp_path, types="nat ::= zero | s(nat).\n", spec=spec,
                           tld=f"p(X: nat) <=> {nest(MAX_NESTING)}.\n")
    for command in commands:
        assert main([*command, "--manifest", str(path)]) == 0, command
    capsys.readouterr()
    path = write_workspace(tmp_path, types="nat ::= zero | s(nat).\n", spec=spec,
                           tld=f"p(X: nat) <=> {nest(MAX_NESTING + 1)}.\n")
    for command in commands:
        assert main([*command, "--manifest", str(path)]) == 1, command
        err = capsys.readouterr().err
        assert re.search(r"w\.tld:1:\d+: error\[nesting-too-deep\]", err), err


def test_cli_closed_pipe_exits_one_quietly(maxprefix_dir):
    proc = subprocess.Popen(
        [sys.executable, "-m", "tldforge.cli", "gen", "prolog",
         "--manifest", str(maxprefix_dir / "manifest.txt")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # before the interpreter has started, let alone written
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""
