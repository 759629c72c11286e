import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import tauforms
from tauforms import _kernels, expr, forms, lseries
from tauforms.arith import Rat
from tauforms.cli import main
from tauforms.forms import delta, eisenstein


# -- parsing -------------------------------------------------------------------


def test_parse_bracket_node():
    node = expr.parse("RC(E4,E6,1)")
    assert isinstance(node, expr.Call)
    assert node.name == "RC"
    assert node.args[0] == expr.Atom("E4")
    assert node.args[2] == expr.Num(Rat(1))


def test_parse_sum_with_scalar():
    node = expr.parse("Serre(E10,1) + 5/6*E12")
    assert expr.annotate(node).weight == 12


def test_parse_weight_mismatch():
    with pytest.raises(expr.ExprError, match="weight mismatch 4 vs 6"):
        expr.annotate(expr.parse("E4 + E6"))


def test_parse_unknown_identifier_with_position():
    with pytest.raises(expr.ExprError, match="column 6"):
        expr.parse("E4 + Q9")


def test_parse_syntax_error_position():
    with pytest.raises(expr.ExprError):
        expr.parse("RC(E4,,E6)")
    with pytest.raises(expr.ExprError):
        expr.parse("E4 )")


def test_precedence_weights():
    # ^ binds over *, * over +, left association
    with pytest.raises(expr.ExprError, match="weight mismatch 8 vs 6"):
        expr.annotate(expr.parse("2*E4^2 + E6*E2^0"))
    assert expr.annotate(expr.parse("2*E4^3 + E6^2")).weight == 12


def test_roundtrip_printing():
    corpus = [
        "RC(E4, E6, 1)",
        "Serre(E10,1) + 5/6*E12",
        "D(E2) - 1/12*(E2^2 - E4)",
        "Ppoly(12, E4)",
        "-3456*Delta",
        "Ek(16) - E4*E12",
        "D(E4, 3)",
    ]
    for text in corpus:
        once = expr.to_text(expr.parse(text))
        twice = expr.to_text(expr.parse(once))
        assert once == twice
        assert expr.parse(once) == expr.parse(twice)


# -- static weights and rejection ------------------------------------------------


def test_quasimodular_rejection_in_rc_and_serre():
    with pytest.raises(expr.ExprError, match="modular"):
        expr.annotate(expr.parse("RC(E2, E4, 1)"))
    with pytest.raises(expr.ExprError, match="modular"):
        expr.annotate(expr.parse("RC(D(E4), E6, 1)"))
    with pytest.raises(expr.ExprError, match="modular"):
        expr.annotate(expr.parse("Serre(E2, 1)"))
    with pytest.raises(expr.ExprError, match="modular"):
        expr.annotate(expr.parse("Ppoly(12, E2)"))
    # D(f, 0) keeps modularity
    assert expr.annotate(expr.parse("RC(D(E4, 0), E6, 1)")).weight == 12


def test_ppoly_weight_gap():
    with pytest.raises(expr.ExprError, match="too small"):
        expr.annotate(expr.parse("Ppoly(12, Delta)"))
    with pytest.raises(expr.ExprError, match=r"is odd \(at column 1\)"):
        expr.annotate(expr.parse("Ppoly(13, E4)"))


# -- evaluation -------------------------------------------------------------------


def test_eval_bracket():
    form = expr.evaluate(expr.parse("RC(E4,E6,1)"), 10)
    assert form.series == delta(10).series.scale(-3456)


def test_eval_average():
    form = expr.evaluate(expr.parse("Ppoly(12, E4)"), 10)
    e = eisenstein(4, 10) * eisenstein(8, 10)
    assert form.series == e.series


def test_eval_ramanujan_zero():
    form = expr.evaluate(expr.parse("D(E2) - 1/12*(E2^2 - E4)"), 50)
    assert form.series.is_zero()


def test_eval_ek_and_neg():
    form = expr.evaluate(expr.parse("Ek(4) - E4"), 10)
    assert form.series.is_zero()
    form = expr.evaluate(expr.parse("-(E4) + E4"), 10)
    assert form.series.is_zero()


# Expressions of every node kind and function, with small literals; most draws
# are well formed, and the test keeps only those.
_SMALL = st.sampled_from(["0", "1", "2"])
_CANDIDATE = st.recursive(
    st.sampled_from([*expr._ATOMS, "0", "1", "2", "1/2", "5/6", "Ek(4)", "Ek(6)"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        inner.map(lambda e: f"-{e}"),
        st.tuples(inner, _SMALL).map(lambda t: f"({t[0]})^{t[1]}"),
        inner.map(lambda e: f"D({e})"),
        st.tuples(inner, _SMALL).map(lambda t: f"D({t[0]}, {t[1]})"),
        st.tuples(inner, inner, _SMALL).map(lambda t: f"RC({t[0]}, {t[1]}, {t[2]})"),
        st.tuples(inner, _SMALL).map(lambda t: f"Serre({t[0]}, {t[1]})"),
        st.tuples(st.sampled_from(["4", "8", "12", "16"]), inner).map(lambda t: f"Ppoly({t[0]}, {t[1]})"),
    ),
    max_leaves=4,
)


def _subtrees(node):
    yield node
    for child in (getattr(node, "operand", None), getattr(node, "left", None), getattr(node, "right", None)):
        if child is not None:
            yield from _subtrees(child)
    for arg in getattr(node, "args", ()):
        yield from _subtrees(arg)


@given(text=_CANDIDATE, prec=st.integers(2, 12))
def test_static_weight_is_the_built_forms_weight(text, prec):
    # expand prints its [weight ...] tag from the built form; this is why it may.
    node = expr.parse(text)
    try:
        info = expr.annotate(node)
    except expr.ExprError:
        assume(False)
    if any(expr.annotate(sub) == expr.WeightInfo(2, False) for sub in _subtrees(node)):
        # RC or Serre of constants somewhere: the static check passes, and Form
        # refuses a weight-2 form without E2 content.
        with pytest.raises(ValueError, match="weight 2 carries no modular forms"):
            expr.evaluate(node, prec)
        return
    form = expr.evaluate(node, prec)
    assert info == expr.WeightInfo(form.weight, form.quasimodular)


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("RC(E4, E6, 1) + E4", "weight mismatch 12 vs 4"),
        ("Serre(E10, 1) * RC(E2, E4, 1)", "RC requires modular operands"),
        ("Ppoly(12, RC(E4, E6, 1) * E4)", "too small for a weight-16 seed"),
    ],
)
def test_an_ill_typed_expression_makes_no_series(text, message, fresh_tables, products):
    # The fault is in the last operand, and the whole tree is checked before
    # any operand is built.
    with pytest.raises(expr.ExprError, match=message):
        expr.evaluate(expr.parse(text), 12)
    assert fresh_tables == [] and products == [] and forms._tables == {}


# -- CLI ---------------------------------------------------------------------------


def test_cli_expand_json(capsys):
    code = main(["expand", "Serre(E10,1)", "--prec", "5", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["prec"] == 5
    assert out["coeffs"][0] == "-5/6"
    assert out["coeffs"][1] == "-24"
    assert out["weight"] == 12


def test_cli_expand_text(capsys):
    code = main(["expand", "E4", "--prec", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "q^1: 240" in out


def test_cli_basis(capsys):
    code = main(["basis", "RC(E4,E6,1)", "--prec", "12", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["weight"] == 12
    coeffs = {(t["a"], t["b"]): t["coeff"] for t in out["terms"]}
    assert coeffs[(3, 0)] == "-2"
    assert coeffs[(0, 2)] == "2"


def test_cli_output_does_not_depend_on_request_order(capsys, fresh_tables):
    # One process asks for 50, 10, then 80 coefficients from one store; each
    # answer must equal the same command's in a fresh process.
    src = str(Path(tauforms.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for prec in ("50", "10", "80"):
        for argv in (["expand", "E4^3 + Delta", "--prec", prec], ["basis", "RC(E4,E6,1)", "--prec", prec]):
            assert main(argv) == 0
            fresh = subprocess.run(
                [sys.executable, "-m", "tauforms.cli", *argv], env=env, capture_output=True, text=True, check=True
            )
            assert capsys.readouterr().out == fresh.stdout, argv


_PROBED = ("numpy.fft", "tau words", "json", "csv", "dataclasses")

_EXACT_PATH_PROBE = """
import contextlib, io, sys
import tauforms, tauforms.cli
from tauforms import cli, forms, poincare
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in {argvs!r}]
    {extra}
loaded = [forms._tables if name == "tau words" else sys.modules for name in {probed!r}]
print(*codes, "|", *(name in where for name, where in zip({probed!r}, loaded)))
"""


def _probe_exact_path(argvs, extra="pass"):
    """Run ``argvs`` through the CLI in a fresh process: the exit codes, and which of
    ``_PROBED`` are then loaded (the tau words in the store, the others in ``sys.modules``)."""
    src = str(Path(tauforms.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = _EXACT_PATH_PROBE.format(argvs=argvs, extra=extra, probed=_PROBED)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    codes, flags = out.stdout.split("|")
    return [int(c) for c in codes.split()], dict(zip(_PROBED, (f == "True" for f in flags.split())))


def test_exact_commands_never_load_the_fft_kernel():
    argvs = [["selftest", "--prec", "200"], ["basis", "RC(E4,E6,2)", "--prec", "150"], ["expand", "E4^3"]]
    codes, loaded = _probe_exact_path(argvs, extra='poincare.derive_identity("kumar", 5, cutoff=300)')
    assert codes == [0, 0, 0]
    assert loaded == dict.fromkeys(_PROBED, False)
    codes, loaded = _probe_exact_path([["expand", "Delta", "--prec", "20"]])
    assert codes == [0]
    assert loaded == {"numpy.fft": True, "tau words": True, "json": False, "csv": False, "dataclasses": False}


def test_json_and_csv_load_only_for_json_and_csv_output(tmp_path):
    # The import alone generates no record code and loads neither writer.
    assert _probe_exact_path([]) == ([], dict.fromkeys(_PROBED, False))
    verify = ["verify-tau", "--id", "kumar", "--m-from", "1", "--m-to", "1", "--cutoff", "300"]
    # At this short cutoff the verdict is FAIL (exit 1); the text lines need neither writer.
    codes, loaded = _probe_exact_path([verify])
    assert codes == [1]
    assert loaded == {"numpy.fft": True, "tau words": True, "json": False, "csv": False, "dataclasses": False}
    codes, loaded = _probe_exact_path([verify + ["--json"], ["expand", "E4", "--prec", "5", "--json"]])
    assert codes == [1, 0]
    assert loaded["json"] and not loaded["csv"] and not loaded["dataclasses"]
    codes, loaded = _probe_exact_path([verify + ["--csv", str(tmp_path / "out.csv")]])
    assert codes == [1]
    assert loaded["csv"] and not loaded["json"] and not loaded["dataclasses"]


def test_cli_basis_rejects_e2(capsys):
    code = main(["basis", "E2", "--prec", "12"])
    assert code == 1
    assert "not modular" in capsys.readouterr().err


def test_cli_tau(capsys):
    code = main(["tau", "10"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "-115920"


def test_cli_parse_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expand", "E4 +", "--prec", "3"])
    assert exc.value.code == 2


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify-tau", "--id", "bogus", "--m-from", "1", "--m-to", "1"])
    assert exc.value.code == 2


def test_cli_verify_tau_small(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text("stale rows that the new ones must replace\n" * 50)
    code = main(
        [
            "verify-tau",
            "--id",
            "kumar",
            "--m-from",
            "1",
            "--m-to",
            "2",
            "--cutoff",
            "800",
            "--tol",
            "1e-6",
            "--csv",
            str(csv_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 2
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "identity_id,m,a,s,cutoff,partial_sum,tail_estimate,rigorous,lhs,rel_err,verdict"
    assert len(lines) == 3 and lines[1].startswith("kumar,1,")


def test_cli_verify_tau_fail_exit(capsys):
    # sigma_3 identity at a hopeless tolerance: rows print FAIL, exit 1
    code = main(
        ["verify-tau", "--id", "herrero", "--m-from", "5", "--m-to", "5", "--cutoff", "300", "--tol", "1e-12"]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_selftest(capsys):
    code = main(["selftest", "--prec", "60"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 9
    assert "FAIL" not in out


def test_cli_lvalues_small_cutoff(capsys):
    code = main(["lvalues", "--cutoff", "3000", "--json"])
    rows = json.loads(capsys.readouterr().out)
    assert code in (0, 1)  # small cutoff may miss the 3-decimal targets
    assert len(rows) == 6
    assert {"a", "s", "numeric", "predicted", "constant", "printed", "verdict"} <= set(rows[0])



def test_cli_verify_tau_builds_the_tau_table_once(capsys, fresh_tables):
    main(["verify-tau", "--id", "kumar", "--m-from", "1", "--m-to", "3", "--cutoff", "2000"])
    assert [n for kind, n in fresh_tables if kind == "tau"] == [2003]


def test_cli_lvalues_builds_each_table_once(capsys, fresh_tables, monkeypatch):
    monkeypatch.setattr(lseries, "TIERS", {11: (100, 0.0), 10: (1000, 0.0), 9: (1000, 0.0), 8: (3000, 0.0)})
    main(["lvalues"])
    assert len(fresh_tables) == 3 and set(fresh_tables) == {("tau", 3000), (1, 3000), (3, 1000)}


def test_cli_petersson_json_prints_only_json(capsys, monkeypatch):
    monkeypatch.setattr(lseries, "TIERS", {11: (100, 0.0), 10: (1000, 0.0), 9: (1000, 0.0), 8: (3000, 0.0)})
    main(["petersson", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["reference"] == lseries.PETERSSON_REF
    assert [(e["a"], e["s"]) for e in payload["estimates"]] == list(lseries.M0_CONSTANTS)


def _verify_tau(m_from, m_to, *extra):
    return ["verify-tau", "--id", "kumar", "--m-from", str(m_from), "--m-to", str(m_to), *extra]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(_verify_tau(1, 1, "--cutoff", "100"), id="verify-tau"),
        pytest.param(["lvalues", "--cutoff", "100"], id="lvalues"),
    ],
)
def test_cli_csv_to_a_missing_directory_exits_2_with_one_line(argv, capsys, tmp_path, fresh_tables):
    path = tmp_path / "missing" / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--csv", str(path)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert not path.exists()
    assert fresh_tables == []  # the path is refused before any table is built


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(_verify_tau(1, 1, "--cutoff", "0"), id="verify-tau"),
        pytest.param(["lvalues", "--cutoff", "0"], id="lvalues"),
    ],
)
def test_cli_usage_error_leaves_an_existing_csv_intact(argv, capsys, tmp_path):
    # An existing file keeps its bytes; a path that did not exist is not left behind.
    for name, old in (("x.csv", "old\n"), ("new.csv", None)):
        path = tmp_path / name
        if old is not None:
            path.write_text(old)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--csv", str(path)])
        assert exc.value.code == 2
        assert (path.read_text() if path.exists() else None) == old


@pytest.mark.parametrize(
    ("argv", "prec_env"),
    [
        pytest.param(["tau", "2000000"], None, id="tau-beyond-limit"),
        pytest.param(["lvalues", "--cutoff", "10"], "abc", id="prec-env-not-int"),
        pytest.param(["lvalues", "--cutoff", "10"], "8", id="prec-env-too-small"),
        pytest.param(["petersson", "--prec-bits", "0"], None, id="prec-bits-zero"),
        pytest.param(["lvalues", "--cutoff", "0"], None, id="lvalues-cutoff-0"),
        pytest.param(["lvalues", "--cutoff", "2000000"], None, id="lvalues-cutoff-beyond-limit"),
        pytest.param(
            ["verify-tau", "--id", "kumar", "--m-from", "1", "--m-to", "2000000"], None, id="verify-m-beyond-limit"
        ),
        pytest.param(
            ["verify-tau", "--id", "kumar", "--m-from", "1", "--m-to", "1", "--cutoff", "0"], None, id="verify-cutoff-0"
        ),
        # m + cutoff = 1000001: the tau table would pass the kernel's limit
        pytest.param(_verify_tau(2, 2, "--cutoff", "999999"), None, id="verify-tau-table-beyond-limit"),
        pytest.param(["expand", "E4", "--prec", "-5"], None, id="expand-prec-negative"),
        pytest.param(["expand", "E4", "--prec", "0"], None, id="expand-prec-0"),
        pytest.param(["expand", "2/3", "--prec", "0"], None, id="expand-constant-prec-0"),
        pytest.param(["basis", "E4", "--prec", "-3"], None, id="basis-prec-negative"),
        pytest.param(["expand", "E4", "--prec", "1000000000000"], None, id="expand-prec-beyond-limit"),
        pytest.param(["expand", "E4 +"], None, id="expand-parse-error"),
        pytest.param(["tau", "0"], None, id="tau-0"),
        pytest.param(["verify-tau", "--id", "kumar", "--m-from", "3", "--m-to", "2"], None, id="verify-m-to-below-m-from"),
        pytest.param(_verify_tau(1, 1, "--cutoff", "100", "--tol", "inf"), None, id="verify-tol-inf"),
        pytest.param(_verify_tau(1, 1, "--cutoff", "100", "--tol", "nan"), None, id="verify-tol-nan"),
        pytest.param(_verify_tau(1, 1, "--cutoff", "100", "--tol", "-1"), None, id="verify-tol--1"),
        pytest.param(_verify_tau(1, 1, "--cutoff", "100", "--tol", "0"), None, id="verify-tol-0"),
        pytest.param(["tau", "abc"], None, id="tau-not-int"),
        pytest.param(["verify-tau", "--m-from", "1", "--m-to", "2"], None, id="verify-without-id"),
        pytest.param(["nosuch"], None, id="unknown-command"),
        pytest.param([], None, id="no-command"),
        pytest.param(["expand", "E4", "--prec", "x"], None, id="expand-prec-not-int"),
        pytest.param(["expand", "-E4"], None, id="expand-expr-read-as-option"),
    ],
)
def test_cli_input_contract_exits_2_with_one_line(argv, prec_env, capsys, monkeypatch):
    if prec_env is None:
        monkeypatch.delenv("TAUFORMS_PREC_BITS", raising=False)
    else:
        monkeypatch.setenv("TAUFORMS_PREC_BITS", prec_env)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["expand", "-E4"], ["basis", "--prec", "20", "-E4*E6"]])
def test_cli_expression_read_as_option_names_the_dashdash_form(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2 and len(err.strip().splitlines()) == 1
    stray = argv[-1]
    assert err.startswith(f"error: {stray} was read as an option")
    assert f"tauforms {argv[0]} -- {stray}" in err
    main([argv[0], *argv[1:-1], "--", stray])  # the form it names parses and runs
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", [["-h"], ["expand", "-h"]])
def test_cli_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tauforms")


# Tokens of the expression grammar, with small integers only, so that a draw
# that happens to be well formed still evaluates quickly.
_EXPR_TOKENS = st.sampled_from(
    [*expr._ATOMS, *(f"{name}(" for name in sorted(expr._FUNCTIONS)), "Q9", "f("]
    + ["0", "1", "2", "3", "4", "12", "1/2", "5/6", "2/0", "/"]
    + ["+", "-", "*", "^", "(", ")", ",", " ", "$"]
)
_MALFORMED_EXPR = st.lists(_EXPR_TOKENS, min_size=0, max_size=12).map("".join)


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["expand", "basis"]), text=_MALFORMED_EXPR)
def test_cli_malformed_expressions_exit_cleanly(command, text, capsys):
    try:
        code = main([command, text, "--prec", "12"])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


# Out of range: <= 0, or a table beyond the kernel's limit, so no draw builds a table.
_NOT_POSITIVE = st.integers(-(10**12), 0)
_OUT_OF_RANGE = _NOT_POSITIVE | st.integers(_kernels._MAX_PREC + 1, 10**12)
# A tolerance must be positive and finite; "--tol=X" keeps "-inf" from reading as an option.
_BAD_TOL = st.floats(max_value=0.0) | st.sampled_from([math.inf, math.nan])


_OUT_OF_RANGE_ARGV = st.one_of(
    _OUT_OF_RANGE.map(lambda n: ["tau", str(n)]),
    _OUT_OF_RANGE.map(lambda n: ["lvalues", "--cutoff", str(n)]),
    _OUT_OF_RANGE.map(lambda n: _verify_tau(n, n)),
    _OUT_OF_RANGE.map(lambda n: _verify_tau(1, n)),
    _OUT_OF_RANGE.map(lambda n: _verify_tau(n, 1)),
    _OUT_OF_RANGE.map(lambda n: _verify_tau(1, 1, "--cutoff", str(n))),
    st.tuples(st.sampled_from(["expand", "basis"]), _OUT_OF_RANGE).map(lambda c: [c[0], "E4", "--prec", str(c[1])]),
    _BAD_TOL.map(lambda t: _verify_tau(1, 1, f"--tol={t}")),
)


@settings(suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(argv=_OUT_OF_RANGE_ARGV)
def test_cli_out_of_range_integers_exit_2_with_one_line(argv, capsys, monkeypatch, fresh_tables):
    monkeypatch.delenv("TAUFORMS_PREC_BITS", raising=False)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert fresh_tables == []
