"""Seeded random inputs: every parser returns diagnostics instead of raising,
and every command ends with exit 0, 1 or 2 instead of a traceback."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, seed, settings, strategies as st

from tldforge.cli import main
from tldforge.parser import MAX_NESTING, parse_specs, parse_tlds, parse_type_defs
from tldforge.semantics import MAX_DEPTH

# a list literal with far more items than a formula may nest levels: enough
# to overflow a recursive walk of its term also while hypothesis runs the
# test, which raises the recursion limit
LONG_LIST = "[" + ", ".join(["1"] * 50 * MAX_NESTING) + "]"

_TOKENS = st.sampled_from(
    ["nat", "zero", "s", "fruit", "integer", "term", "p", "q", "X", "Y", "Z", "_",
     "::=", "==", "|", "enum", "{", "}", "(", ")", "[", "]", ",", ".", ":", "=",
     "<=>", "=>", "/\\", "\\/", "~", "exists", "forall", "+", "-", "*", "0", "1",
     "-3", "2.5", "procedure", "type", "dir", "relation", "external", '"text"',
     "ground", "var", "ngv", "any", "->", "<", ">", "<0-1>", "inf", "#", "\n",
     LONG_LIST])


@seed(11)
@settings(max_examples=200, deadline=None)
@given(st.lists(_TOKENS, max_size=30).map(" ".join))
def test_parsers_return_diagnostics_on_random_tokens(text):
    for parse in (parse_type_defs, parse_specs, parse_tlds):
        items, diags = parse(text, "random")
        assert isinstance(items, list) and isinstance(diags, list)
        for d in diags:
            assert d.pos is not None


_LEAVES = st.sampled_from(
    ["X = zero", "Y = s(X)", "nat(X)", "X = Y", "true", "false", "p(X, Y)",
     "q(Y)", "plus(X, 1, Y)", "lt(X, 2)", "Y = [X | Z]", "Y = [1, 2, X]",
     "X = apple", "fruit(Y)", f"Y = {LONG_LIST}"])


def _formulas(leaf):
    return st.recursive(leaf, lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from([" /\\ ", " \\/ ", " => ", " <=> "]), sub)
        .map(lambda t: f"({''.join(t)})"),
        sub.map(lambda f: f"~({f})"),
        st.tuples(st.sampled_from(["exists", "forall"]), st.sampled_from(["nat", "term"]),
                  sub).map(lambda t: f"({t[0]} Z: {t[1]} . {t[2]})")), max_leaves=6)


_MODES = st.sampled_from(["ground", "var", "any", "var -> ground", "ngv", "gv -> ground"])


@st.composite
def workspaces(draw):
    types = "nat ::= zero | s(nat).\nfruit ::= enum {apple, banana}.\n"
    ytype = draw(st.sampled_from(["nat", "term", "integer", "fruit", "list"]))
    dirs = "dir (ground, ground) : <0-*>.\n" + "".join(
        f"dir ({draw(_MODES)}, {draw(_MODES)}) : "
        f"<{draw(st.sampled_from(['0-1', '1-1', '0-*', '1-0']))}>.\n"
        for _ in range(draw(st.integers(0, 1))))
    spec = (f"procedure p(X, Y).\ntype X : nat.\ntype Y : {ytype}.\n{dirs}"
            "procedure q(Y).\ntype Y : term.\ndir (ground) : <0-1>.\n")
    # mostly formulas, sometimes a random token string
    body = draw(st.lists(_TOKENS, max_size=12).map(" ".join) if draw(st.integers(0, 4)) == 4
                else _formulas(_LEAVES))
    if draw(st.booleans()):
        body = f"{body} /\\ W = {LONG_LIST}"
    tld = f"p(X: nat, Y: {ytype}) <=> {body}.\nq(Y: term) <=> Y = zero.\n"
    return types, spec, tld


_COMMANDS = st.sampled_from([["check"], ["transform"], ["derive"], ["analyze"],
                             ["gen", "prolog"], ["gen", "mercury"],
                             ["oracle", "equiv", "--pred", "p"]])


@seed(12)
@settings(max_examples=200, deadline=None)
@given(workspaces(), _COMMANDS,
       st.sampled_from(["1", "2", str(MAX_DEPTH + 1), "50", "400"]))
def test_commands_end_in_an_exit_code_on_random_workspaces(files, command, depth):
    if command[0] == "oracle":
        command = [*command, "--depth", depth]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in zip(("w.types", "w.spec", "w.tld"), files):
            (root / name).write_text(text)
        (root / "manifest.txt").write_text("types w.types\nspec w.spec\ntld w.tld\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main([*command, "--manifest", str(root / "manifest.txt")])
            except SystemExit as e:  # a usage error
                code = e.code
    assert code in (0, 1, 2), (command, files)
    assert "Traceback" not in err.getvalue()
