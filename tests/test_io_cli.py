"""CSV round trips, CLI exit codes, reproducible outputs."""
import csv
import hashlib
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import duplicated_item_matrix

import fairrec.io
from fairrec import cli, lp
from fairrec.core import UtilityMatrix
from fairrec.io import (
    MatrixFormatError,
    load_utility_csv,
    provenance_lines,
    save_utility_csv,
    write_rows_csv,
)
from fairrec.lp import LPSolverError, LPStatus
from fairrec.optimizer import reduce_by_types
from fairrec.populations import gen_misestimation


def test_matrix_round_trip_preserves_values_and_labels(tmp_path):
    rng = np.random.default_rng(0)
    w = UtilityMatrix(
        rng.uniform(0.001, 123.0, size=(5, 4)),
        # Only a user label may not start with '#'.
        user_labels=("a", "b#", "c", "d", "e"),
        item_labels=("#w", "x", "y", "z"),
    )
    path = tmp_path / "m.csv"
    save_utility_csv(path, w, provenance_lines("test", {"users": 5}))
    back = load_utility_csv(path)
    assert np.allclose(back.values, w.values, rtol=1e-11, atol=0)
    assert back.user_labels == w.user_labels
    assert back.item_labels == w.item_labels


def test_loader_reports_cell_coordinates(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("user_id,i0,i1\nu0,1.0,-3\n")
    with pytest.raises(MatrixFormatError) as err:
        load_utility_csv(path)
    assert "u0" in str(err.value) and "i1" in str(err.value)
    path.write_text("user_id,i0,i1\nu0,1.0,abc\n")
    with pytest.raises(MatrixFormatError) as err:
        load_utility_csv(path)
    assert "abc" in str(err.value)


def test_loader_names_the_first_user_row_of_an_infinite_cell(tmp_path):
    # Rows are checked once per type; the message still names the first user.
    path = tmp_path / "inf.csv"
    path.write_text("user_id,a,b\nu0,1,2\nu1,2,1\nu2,1,inf\nu3,1,inf\n")
    with pytest.raises(MatrixFormatError) as err:
        load_utility_csv(path)
    assert str(err.value) == f"{path}: cell (user 'u2', item 'b') must be finite, got inf"


def test_loader_rejects_malformed_shapes(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,i0\nu0,1.0\n")
    with pytest.raises(MatrixFormatError):
        load_utility_csv(path)
    path.write_text("user_id,i0,i1\nu0,1.0\n")
    with pytest.raises(MatrixFormatError):
        load_utility_csv(path)
    path.write_text("user_id,i0,i1\n")
    with pytest.raises(MatrixFormatError):
        load_utility_csv(path)
    path.write_text("")
    with pytest.raises(MatrixFormatError):
        load_utility_csv(path)


GOOD_ROW = "1.5,2.25,3"
REPEATS = 200


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("late,1.5,-2,3", "cell (user 'late', item 'b') must be strictly positive, got -2"),
        ("late,1.5,abc,3", "cell (user 'late', item 'b') is not a number: 'abc'"),
        ("late,1.5,inf,3", "cell (user 'late', item 'b') must be finite, got inf"),
        ("late,1.5,2.25", f"line {REPEATS + 2} has 2 values, expected 3"),
        ("late", f"line {REPEATS + 2} has 0 values, expected 3"),
    ],
    ids=["bad-cell", "non-numeric", "infinite", "short", "no-comma"],
)
def test_loader_names_first_bad_line_after_repeated_rows(tmp_path, bad_line, message):
    # The loader checks each distinct line tail once; a bad one must still
    # be reported at its first line, however many good repeats precede it.
    path = tmp_path / "bad.csv"
    good = "".join(f"u{i},{GOOD_ROW}\n" for i in range(REPEATS))
    again = bad_line.replace("late", "again", 1)
    path.write_text(f"user_id,a,b,c\n{good}{bad_line}\n{again}\nu{REPEATS},{GOOD_ROW}\n")
    with pytest.raises(MatrixFormatError) as err:
        load_utility_csv(path)
    assert str(err.value) == f"{path}: {message}"


def _per_row_csv(w, provenance) -> str:
    users = w.user_labels or [f"u{i}" for i in range(w.m)]
    items = w.item_labels or [f"i{j}" for j in range(w.n)]
    lines = [*provenance, "user_id," + ",".join(items)]
    lines += [users[i] + "," + ",".join(f"{v:.12g}" for v in w.values[i]) for i in range(w.m)]
    return "".join(line + "\n" for line in lines)


def _writer_cases(rng):
    """(rows, type_of) pairs the writer must format as a per-row pass would,
    an untyped matrix of the rows where type_of is None: repeated and
    distinct rows without types, type rows whose ids are not in
    first-occurrence order, two ids sharing one row, and random rows."""
    types = rng.uniform(0.001, 123.0, size=(3, 4))
    values = np.vstack([types[rng.integers(0, 3, size=40)], rng.uniform(0.5, 2.0, size=(6, 4))])
    yield values[rng.permutation(values.shape[0])], None
    type_of = np.concatenate([[2, 0, 1], rng.integers(0, 3, size=43)])
    yield types, type_of
    yield types[[0, 1, 0]], type_of
    yield rng.uniform(0.001, 123.0, size=(46, 4)), None


@pytest.mark.parametrize("labelled", [False, True])
def test_writer_matches_per_row_reference(tmp_path, monkeypatch, labelled):
    # A small block puts most rows past the first block and ends on a partial one.
    monkeypatch.setattr(fairrec.io, "WRITE_BLOCK", 7)
    labels = {"user_labels": tuple(f"usér-{i}" for i in range(46)), "item_labels": ("w", "x", "y", "ž")}
    prov = provenance_lines("test", {"users": 46})
    path = tmp_path / "m.csv"
    for rows, type_of in _writer_cases(np.random.default_rng(11)):
        kwargs = labels if labelled else {}
        w = UtilityMatrix(rows, type_of=type_of, **kwargs)
        save_utility_csv(path, w, prov)
        assert path.read_bytes() == _per_row_csv(w, prov).encode()


def test_loaded_types_reduce_as_the_rows_do(tmp_path):
    # Types 1 and 3 share a row, and ids are drawn in no particular order.
    rows = np.random.default_rng(3).uniform(0.5, 2.0, size=(4, 3))
    rows[3] = rows[1]
    w = UtilityMatrix(rows, type_of=np.random.default_rng(4).integers(0, 4, size=200))
    path = tmp_path / "m.csv"
    save_utility_csv(path, w)
    # Two tails that parse to one row share its type.
    (tmp_path / "tails.csv").write_text("user_id,a,b\nu0,1.5,2\nu1,1.50,2\nu2,2,1\nu3,1.5,2.0\n")
    for name in ("m.csv", "tails.csv"):
        typed = load_utility_csv(tmp_path / name)
        by_rows = UtilityMatrix(typed.values)
        assert np.array_equal(typed.rows, by_rows.rows)
        assert np.array_equal(reduce_by_types(typed), reduce_by_types(by_rows))
        assert np.array_equal(typed.type_of, by_rows.type_of)
    assert load_utility_csv(tmp_path / "tails.csv").type_of.tolist() == [0, 0, 1, 0]


@pytest.mark.parametrize(
    "kind, label", [("user", "#x"), ("user", "a,b"), ("user", "a\nb"), ("user", "a\rb"), ("item", "x,y"), ("item", "y\nz")]
)
def test_saver_refuses_labels_that_would_not_load_back(tmp_path, kind, label):
    path = tmp_path / "m.csv"
    path.write_text("kept\n")
    labels = {"user_labels": ("u0", label, "u2")} if kind == "user" else {"item_labels": ("x", label)}
    w = UtilityMatrix(np.array([[1.0, 2.0], [2.0, 1.0], [1.5, 1.5]]), **labels)
    with pytest.raises(MatrixFormatError) as err:
        save_utility_csv(path, w)
    assert f"{kind} label {label!r} would not load back" in str(err.value)
    assert path.read_text() == "kept\n"


def test_cli_tradeoff_matrix_sha256_is_the_digest_of_the_untyped_matrix(tmp_path, monkeypatch):
    # Three blocks of users, the last one partial.
    monkeypatch.setattr(cli, "WRITE_BLOCK", 7)
    rng = np.random.default_rng(8)
    rows, type_of = np.round(rng.uniform(0.5, 2.0, size=(3, 4)), 3), rng.integers(0, 3, size=17)
    matrix, out = tmp_path / "m.csv", tmp_path / "t.csv"
    save_utility_csv(matrix, UtilityMatrix(rows, type_of=type_of))
    assert run(["tradeoff", "--matrix", str(matrix), "--gammas", "3", "--out", str(out)]) == 0
    config = next(ln for ln in out.read_text().splitlines() if ln.startswith("# config:"))
    untyped = UtilityMatrix(rows[type_of])
    assert f"matrix_sha256={hashlib.sha256(untyped.values.data).hexdigest()[:16]} " in config


def test_save_load_save_is_byte_idempotent(tmp_path):
    v = np.sort(np.random.default_rng(2).uniform(1.0, 10.0, 12))[::-1]
    data = gen_misestimation(v, 0.3, 2_000, seed=5)
    prov = provenance_lines("generate misest", {"users": 2_000}, 5)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    save_utility_csv(first, data.w_hat, prov)
    save_utility_csv(second, load_utility_csv(first), prov)
    assert first.read_bytes() == second.read_bytes()


def test_loader_skips_comment_lines(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# a comment\nuser_id,i0\n# mid comment\nu0,2.5\n")
    w = load_utility_csv(path)
    assert w.values[0, 0] == 2.5


def test_row_writer_uses_twelve_significant_digits(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows_csv(path, ["x"], [[1.0 / 3.0]])
    assert path.read_text() == "x\n0.333333333333\n"


def test_gamma_grid_parsing():
    assert cli.parse_gamma_grid("3") == [0.0, 0.5, 1.0]
    assert cli.parse_gamma_grid("0.3,0.1,1") == [0.1, 0.3, 1.0]
    assert cli.parse_gamma_grid("0.25") == [0.25]
    with pytest.raises(ValueError):
        cli.parse_gamma_grid("1")
    with pytest.raises(ValueError):
        cli.parse_gamma_grid("0.5,1.5")
    with pytest.raises(ValueError):
        cli.parse_gamma_grid("a,b")


def test_alpha_grid_parsing():
    assert np.allclose(cli.parse_alpha_grid("9"), np.arange(1, 10) / 10.0)
    assert cli.parse_alpha_grid("0.3") == [0.3]
    with pytest.raises(ValueError):
        cli.parse_alpha_grid("0.0,0.5")


def run(args):
    return cli.main(args)


def test_cli_generate_and_tradeoff_round_trip(tmp_path):
    matrix = tmp_path / "m.csv"
    assert run(["generate", "two-type", "--values", "3,2,1", "--alpha", "0.5",
                "--users", "10", "--out", str(matrix)]) == 0
    out = tmp_path / "curve.csv"
    svg = tmp_path / "curve.svg"
    assert run(["tradeoff", "--matrix", str(matrix), "--gammas", "3",
                "--out", str(out), "--svg", str(svg)]) == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "gamma,if_star,if_target,uf_achieved,if_achieved,status,solve_ms"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert abs(float(first[3]) - 1.0) < 1e-9
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    assert any(child.tag.endswith("polyline") for child in root.iter())


def test_cli_sum_k_1_on_a_single_item_is_trivially_fair(tmp_path):
    # One item makes the IF* lift's item rows a single row.
    matrix, out = tmp_path / "m.csv", tmp_path / "t.csv"
    save_utility_csv(matrix, UtilityMatrix(np.array([[1.0], [2.0]])))
    assert run(["tradeoff", "--matrix", str(matrix), "--measure", "sumkmin", "--k", "1", "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert {row["if_star"] for row in csv.DictReader(lines)} == {"1"}


def test_cli_outputs_are_reproducible_except_timing(tmp_path):
    matrix = tmp_path / "m.csv"
    run(["generate", "two-type", "--values", "3,2,1", "--alpha", "0.5",
         "--users", "10", "--out", str(matrix)])
    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    run(["tradeoff", "--matrix", str(matrix), "--gammas", "5", "--out", str(out1)])
    run(["tradeoff", "--matrix", str(matrix), "--gammas", "5", "--out", str(out2)])

    def strip_timing(path):
        kept = []
        for ln in path.read_text().splitlines():
            if ln.startswith("#") or ln.startswith("gamma"):
                kept.append(ln)
            else:
                kept.append(ln.rsplit(",", 1)[0])
        return kept

    assert strip_timing(out1) == strip_timing(out2)
    # the matrix generator output itself is byte-stable
    again = tmp_path / "m2.csv"
    run(["generate", "two-type", "--values", "3,2,1", "--alpha", "0.5",
         "--users", "10", "--out", str(again)])
    assert again.read_text() == matrix.read_text()


@pytest.mark.parametrize("command", ["tradeoff", "pof"])
def test_cli_recipe_flags_beside_a_matrix_leave_the_output_unchanged(tmp_path, command):
    # --matrix overrides the recipe flags, so the provenance must not record them.
    matrix = tmp_path / "m.csv"
    run(["generate", "two-type", "--values", "3,2,1", "--alpha", "0.5", "--users", "10", "--out", str(matrix)])
    outs = tmp_path / "plain.csv", tmp_path / "recipe.csv"
    for out, extra in zip(outs, ([], ["--values", "9,8", "--alpha", "0.3", "--beta", "0.2", "--users", "5"])):
        assert run([command, "--matrix", str(matrix), *extra, "--out", str(out)]) == 0

    def without_timing(path):
        text = path.read_text()
        return text if command == "pof" else [ln.rsplit(",", 1)[0] for ln in text.splitlines()]

    assert without_timing(outs[0]) == without_timing(outs[1])


def test_cli_misest_generation_writes_coupled_files(tmp_path):
    base = tmp_path / "pop.csv"
    assert run(["generate", "misest", "--values", "3,2,1", "--beta", "0.4",
                "--users", "10", "--seed", "7", "--out", str(base)]) == 0
    w = load_utility_csv(tmp_path / "pop.true.csv")
    w_hat = load_utility_csv(tmp_path / "pop.hat.csv")
    assert w.values.shape == w_hat.values.shape == (10, 3)
    diff = np.any(w.values != w_hat.values, axis=1)
    assert diff.sum() == 2


def test_cli_misest_prices_match_known_values(tmp_path, capsys):
    out = tmp_path / "pom.csv"
    assert run(["misest", "--values", "3,2,1", "--beta", "0.4", "--users", "10",
                "--gammas", "0,1", "--scope", "misest-group",
                "--tie-break", "canonical", "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if not ln.startswith("#") and not ln.startswith("gamma")]
    assert abs(float(rows[0][1]) - 1.0 / 3.0) < 1e-9
    assert abs(float(rows[1][1]) - 2.0 / 9.0) < 1e-6


def test_cli_pof_reports_worked_value(tmp_path, capsys, monkeypatch):
    # Without --out a failure would write error.json to the working directory.
    monkeypatch.chdir(tmp_path)
    assert run(["pof", "--values", "3,2,1", "--alpha", "0.5", "--users", "10"]) == 0
    printed = capsys.readouterr().out
    assert "pof = 0.142857143" in printed


def test_cli_pof_full_fairness_equals_the_tradeoff_gamma_1_row(tmp_path, worked_instance):
    from fairrec.optimizer import Problem, price_of_fairness, tradeoff_sweep

    uf1 = price_of_fairness(Problem(worked_instance))[1]
    assert uf1 == tradeoff_sweep(worked_instance, cli.parse_gamma_grid("11")).rows[-1].uf_achieved
    flags = ["--values", "3,2,1", "--alpha", "0.5", "--users", "10", "--out"]
    assert run(["pof", *flags, str(tmp_path / "pof.csv")]) == 0
    assert run(["tradeoff", *flags, str(tmp_path / "t.csv")]) == 0

    def rows(name):
        lines = [ln for ln in (tmp_path / name).read_text().splitlines() if not ln.startswith("#")]
        return list(csv.DictReader(lines))

    assert rows("pof.csv")[0]["uf_full_fairness"] == rows("t.csv")[-1]["uf_achieved"]


def test_cli_validate_closed_form_passes(tmp_path):
    out = tmp_path / "report.csv"
    assert run(["validate-closed-form", "--values", "5,2,1.5,1", "--alpha", "9",
                "--users", "20", "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert len(lines) == 10


@pytest.mark.parametrize("command", ["validate-closed-form", "sweep-alpha"])
def test_cli_empty_alpha_grid_exits_with_config_error(tmp_path, command):
    out = tmp_path / "a.csv"
    assert run([command, "--values", "3,2,1", "--alpha", ",", "--out", str(out)]) == 2
    assert not out.exists()
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert "empty alpha grid" in record["message"]


def test_cli_sweep_alpha_writes_curve(tmp_path):
    out = tmp_path / "curve.csv"
    svg = tmp_path / "curve.svg"
    assert run(["sweep-alpha", "--values", "3,2,1", "--alpha", "19",
                "--out", str(out), "--svg", str(svg)]) == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "alpha,pivot,if_star,uf1,pof"
    assert len(lines) == 20
    assert svg.exists()


def test_cli_nash_pof_exits_before_any_solve(tmp_path, monkeypatch):
    import fairrec.optimizer as opt

    def solved(*args, **kwargs):
        raise AssertionError("the Nash price of fairness was solved")

    monkeypatch.setattr(opt, "compute_uf_star", solved)
    monkeypatch.setattr(opt, "nash_concave_solve", solved)
    code = run(["pof", "--values", "3,2,1", "--alpha", "0.5", "--users", "10",
                "--measure", "nash", "--out", str(tmp_path / "pof.csv")])
    assert code == 2
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert "Nash" in record["message"]


def test_cli_nash_misest_exits_with_config_error(tmp_path):
    out = tmp_path / "pom.csv"
    code = run(["misest", "--values", "3,2,1", "--beta", "0.3", "--users", "10", "--scope", "all",
                "--measure", "nash", "--gammas", "0.5,1", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert "Nash" in record["message"]


def test_cli_sum_k_above_the_group_exits_before_any_solve(tmp_path, monkeypatch):
    import fairrec.optimizer as opt

    def solved(*args, **kwargs):
        raise AssertionError("a misestimation price was solved")

    monkeypatch.setattr(lp, "solve_lp", solved)
    monkeypatch.setattr(opt, "compute_uf_star", solved)
    out = tmp_path / "pom.csv"
    code = run(["misest", "--values", "3,2,1", "--beta", "0.4", "--users", "10", "--measure", "sumkmin",
                "--k", "3", "--scope", "misest-group", "--gammas", "11", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert "misest-group" in record["message"] and "2 users" in record["message"]


def test_cli_pof_solves_only_full_fairness_on_one_program(tmp_path, monkeypatch, highs_models):
    # UF*(0) is the measure of all-ones user utilities, so no program is built for it.
    import fairrec.optimizer as opt

    real, gammas = opt.compute_uf_star, []

    def recorded(problem, gamma, *args, **kwargs):
        gammas.append(gamma)
        return real(problem, gamma, *args, **kwargs)

    monkeypatch.setattr(opt, "compute_uf_star", recorded)
    assert run(["pof", "--values", "3,2,1", "--alpha", "0.5", "--users", "10",
                "--out", str(tmp_path / "pof.csv")]) == 0
    assert gammas == [1.0]
    # IF*'s cold model, then the one warm program on its optimal face.
    assert [solver for solver, _, _ in highs_models] == ["ipm", "simplex"]


def test_cli_config_error_exit_and_record(tmp_path):
    out = tmp_path / "c.csv"
    # An alpha outside [0, 1], and a tie-break the Nash measure does not support.
    for flags in (["--alpha", "1.5"], ["--alpha", "0.5", "--measure", "nash", "--tie-break", "canonical"]):
        code = run(["tradeoff", "--values", "3,2,1", *flags, "--users", "10", "--out", str(out)])
        assert code == 2
        record = json.loads((tmp_path / "error.json").read_text())
        assert record["exit_code"] == 2
        assert record["error"] == "ValueError"


def test_cli_io_error_exit_and_record(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["tradeoff", "--matrix", str(tmp_path / "missing.csv"),
                "--out", str(out)]) == 4
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["exit_code"] == 4
    bad = tmp_path / "bad.csv"
    bad.write_text("user_id,i0\nu0,0\n")
    assert run(["tradeoff", "--matrix", str(bad), "--out", str(out)]) == 4


@pytest.mark.parametrize(
    "cell, rule",
    [pytest.param(cell, rule, id=cell)
     for cell, rule in (("nan", "finite"), ("inf", "finite"), ("-inf", "strictly positive"), ("1e400", "finite"))],
)
def test_cli_non_finite_cell_exits_with_io_error(tmp_path, cell, rule):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"user_id,i0,i1\nu0,1,{cell}\n")
    assert run(["tradeoff", "--matrix", str(bad), "--out", str(tmp_path / "c.csv")]) == 4
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["error"] == "MatrixFormatError"
    assert "cell (user 'u0', item 'i1')" in record["message"]
    assert f"must be {rule}, got {cell}" in record["message"]


def test_cli_io_error_in_a_missing_out_directory_records_in_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["pof", "--values", "3,2,1", "--alpha", "0.5", "--users", "10",
                "--out", "nodir/pof.csv"]) == 4
    assert json.loads((tmp_path / "error.json").read_text())["exit_code"] == 4


def test_cli_validate_closed_form_builds_one_program_per_alpha(highs_models):
    # Only UF*(1) is reported, so only IF*'s and its face program are built, not UF*(0)'s.
    assert run(["validate-closed-form", "--alpha", "3", "--users", "10"]) == 0
    assert [solver for solver, _, _ in highs_models] == ["ipm", "simplex"] * 3


def test_cli_solver_error_exit_and_record(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise LPSolverError(LPStatus.FAILED, "injected")

    monkeypatch.setattr(cli, "tradeoff_sweep", boom)
    out = tmp_path / "c.csv"
    code = run(["tradeoff", "--values", "3,2,1", "--alpha", "0.5",
                "--users", "10", "--out", str(out)])
    assert code == 3
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["error"] == "LPSolverError"


def test_cli_failed_validation_exit_and_record(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "VALIDATE_TOL", -1.0)
    out = tmp_path / "report.csv"
    code = run(["validate-closed-form", "--values", "3,2,1", "--alpha", "1",
                "--users", "10", "--out", str(out)])
    assert code == 3
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["exit_code"] == 3
    assert record["error"] == "LPSolverError"


def test_cli_rising_sweep_exit_and_record(tmp_path, monkeypatch):
    import dataclasses

    import fairrec.optimizer as opt

    real = opt.compute_uf_star

    def rising(problem, gamma, *args, **kwargs):
        return dataclasses.replace(real(problem, gamma, *args, **kwargs), value=1.0 + gamma)

    monkeypatch.setattr(opt, "compute_uf_star", rising)
    out = tmp_path / "c.csv"
    code = run(["tradeoff", "--values", "3,2,1", "--alpha", "0.5",
                "--users", "10", "--out", str(out)])
    assert code == 3
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["exit_code"] == 3
    assert record["error"] == "LPSolverError"
    assert "increased along the sweep" in record["message"]


def test_cli_failed_sweep_rows_exit_and_record(tmp_path, monkeypatch):
    import fairrec.optimizer as opt

    real = opt.compute_uf_star

    def flaky(problem, gamma, *args, **kwargs):
        if gamma == 0.5:
            raise LPSolverError(LPStatus.FAILED, "injected failure")
        return real(problem, gamma, *args, **kwargs)

    monkeypatch.setattr(opt, "compute_uf_star", flaky)
    out = tmp_path / "c.csv"
    code = run(["tradeoff", "--values", "3,2,1", "--alpha", "0.5", "--users", "10",
                "--gammas", "0,0.5,1", "--out", str(out)])
    assert code == 3
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert [row["status"][:6] for row in csv.DictReader(lines)] == ["ok", "error:", "ok"]
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["exit_code"] == 3
    assert record["error"] == "LPSolverError"
    assert "gamma = 0.5" in record["message"]


def test_cli_failed_sweep_with_a_chart_exits_as_without_one(tmp_path, monkeypatch):
    import fairrec.optimizer as opt

    def failed(*args, **kwargs):
        raise LPSolverError(LPStatus.FAILED, "injected failure")

    monkeypatch.setattr(opt, "compute_uf_star", failed)
    svg = tmp_path / "c.svg"
    code = run(["tradeoff", "--values", "3,2,1", "--alpha", "0.5", "--users", "10",
                "--gammas", "0,0.5,1", "--out", str(tmp_path / "c.csv"), "--svg", str(svg)])
    assert code == 3
    assert not svg.exists()
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["error"] == "LPSolverError"
    assert "gamma = 0, 0.5, 1" in record["message"]


def test_cli_nash_tradeoff_chart_skips_non_finite_points(tmp_path):
    # The gamma = 0 row starves the middle item, so its Nash item fairness is -inf.
    out, svg = tmp_path / "t.csv", tmp_path / "t.svg"
    assert run(["tradeoff", "--values", "3,2,1", "--alpha", "0.5", "--users", "10", "--measure", "nash",
                "--gammas", "0,0.5,1", "--out", str(out), "--svg", str(svg)]) == 0
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert next(csv.DictReader(lines))["if_achieved"] == "-inf"
    text = svg.read_text()
    assert ET.fromstring(text).tag.endswith("svg")
    assert "nan" not in text and "inf" not in text


def test_cli_uncertified_canonical_point_exit_and_record(tmp_path, monkeypatch):
    def not_optimal(*args):
        return lp.LPSolution(LPStatus.FAILED, message="injected"), float("inf")

    monkeypatch.setattr(lp, "solve_qp", not_optimal)
    matrix = tmp_path / "m.csv"
    save_utility_csv(matrix, UtilityMatrix(duplicated_item_matrix(0)))
    out = tmp_path / "c.csv"
    code = run(["tradeoff", "--matrix", str(matrix), "--gammas", "0,0.2,1",
                "--tie-break", "canonical", "--out", str(out)])
    assert code == 3
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert [row["status"][:6] for row in csv.DictReader(lines)] == ["ok", "error:", "ok"]
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["exit_code"] == 3
    assert record["error"] == "LPSolverError"
    assert "gamma = 0.2" in record["message"]


def test_misest_demo_writes_the_canonical_prices(tmp_path, capsys):
    import importlib.util
    from pathlib import Path

    from fairrec.optimizer import Scope, TieBreak, price_of_misestimation

    path = Path(__file__).resolve().parent.parent / "scripts" / "run_misest_demo.py"
    spec = importlib.util.spec_from_file_location("run_misest_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main(["--out", str(tmp_path / "demo")])
    data = gen_misestimation(np.array([3.0, 2.0, 1.0]), 0.4, 10, seed=0)
    gammas = np.linspace(0.0, 1.0, 11)
    poms = price_of_misestimation(
        data.w, data.w_hat, gammas, Scope.MISESTIMATED_GROUP, tie_break=TieBreak.CANONICAL
    )
    write_rows_csv(tmp_path / "direct.csv", ["gamma", "pom"], [[g, pom] for g, pom in zip(gammas, poms)])

    def data_lines(path):
        return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]

    written = data_lines(tmp_path / "demo" / "misest_price.csv")
    assert len(written) == 1 + 11
    assert written == data_lines(tmp_path / "direct.csv")
    assert (tmp_path / "demo" / "misest_price.svg").exists()


GOLDEN_VALUES = "9.5,8,6.25,5,3.75,3,2.5,2,1.5,1.25"
# SHA-256 of every output of the population pipeline below, as written
# before its steps moved to type space; pom.csv and tradeoff.csv re-recorded
# when UF*(1) moved onto IF*'s optimal face, which changed only their
# gamma = 1 rows.  The tradeoff CSV is hashed without its timing column and
# its "# config:" line, which holds the matrix path.
GOLDEN_DIGESTS = {
    "pom.csv": "6dc272c38d62684f292bd6f4f0ec8610bb3ba38cbee678309d3382c1c09968a1",
    "pom.svg": "d07b7f2c6237de99cf8462047a6686a847cd2fb4e288cfe1a06df3d17374f4e6",
    "pop.hat.csv": "bc9381dce8ada645b46a86c7e9e31e3a28917c0401e698a93abf619786e4d211",
    "pop.true.csv": "62d28015b23047e151c58f4771d7a529191752742b8c22393f50db7ba075239c",
    "tradeoff.csv": "feb11e6cf4893af095ac2f02722f7eda5be92ab90ceb7aeb7894d545d3c95a43",
    "tradeoff.svg": "5da6b9f59a23ca2b6245b211c474f609e6a5e84c19fef92beb7ccd6f55d9ca4e",
}


def _without_timing(lines) -> bytes:
    return "\n".join(ln if ln.startswith("#") else ln.rsplit(",", 1)[0] for ln in lines).encode()


def _golden_digest(path) -> str:
    data = path.read_bytes()
    if path.name == "tradeoff.csv":
        data = _without_timing(ln for ln in data.decode().splitlines() if not ln.startswith("# config:"))
    return hashlib.sha256(data).hexdigest()


def test_population_pipeline_outputs_match_recorded_digests(tmp_path):
    common = ["--values", GOLDEN_VALUES, "--beta", "0.3", "--users", "2000", "--seed", "7"]
    d = f"{tmp_path}/"
    assert run(["generate", "misest", *common, "--out", d + "pop.csv"]) == 0
    assert run(["misest", *common, "--scope", "misest-group", "--gammas", "11",
                "--out", d + "pom.csv", "--svg", d + "pom.svg"]) == 0
    assert run(["tradeoff", "--matrix", d + "pop.hat.csv", "--gammas", "11",
                "--out", d + "tradeoff.csv", "--svg", d + "tradeoff.svg"]) == 0
    assert {p.name: _golden_digest(p) for p in tmp_path.iterdir()} == GOLDEN_DIGESTS


WORKED = ["--values", "3,2,1", "--alpha", "0.5", "--users", "10"]
# One run of every CLI command and output option.  "{d}" is the run's
# directory; each file name is relative to it.
CLI_RUNS = {
    "generate-two-type": ["generate", "two-type", *WORKED, "--out", "{d}m.csv"],
    "generate-homogeneous": ["generate", "homogeneous", "--values", "3,2,1", "--alpha", "0.5",
                             "--users", "10", "--out", "{d}m.csv"],
    "tradeoff-svg": ["tradeoff", *WORKED, "--out", "{d}t.csv", "--svg", "{d}t.svg"],
    "tradeoff-canonical": ["tradeoff", *WORKED, "--tie-break", "canonical", "--gammas", "21",
                           "--out", "{d}t.csv"],
    "pof-maxmin": ["pof", *WORKED, "--out", "{d}pof.csv"],
    "pof-sumkmin": ["pof", *WORKED, "--measure", "sumkmin", "--k", "3", "--out", "{d}pof.csv"],
    "misest": ["misest", "--values", "3,2,1", "--beta", "0.4", "--users", "10",
               "--scope", "misest-group", "--out", "{d}pom.csv", "--svg", "{d}pom.svg"],
    "validate-closed-form": ["validate-closed-form", "--out", "{d}v.csv"],
    "sweep-alpha": ["sweep-alpha", "--values", "3,2,1", "--out", "{d}a.csv", "--svg", "{d}a.svg"],
}
# SHA-256 of each run's stdout, with its directory written as "{d}", and of
# every file it writes; t.csv (a tradeoff CSV) is hashed without its timing
# column.  Recorded before the commands shared their CSV and chart helpers.
CLI_GOLDEN = {
    "generate-homogeneous": {
        "stdout": "b1d4bc494c7c49c183c18a23b77ab8bc398ac54dc42e43a8145bb4eac8d314d7",
        "m.csv": "044e239492c0065d8b7e118d8ef0980418a47a3c89c28bb5312a84b321aa8db1",
    },
    "generate-two-type": {
        "stdout": "9b0637de905cb6669b92b91280db943ecf4dc4442ca67bcb02204f9b5bb4bc14",
        "m.csv": "cbfede14f4b7f50b5dde228d568ba49fd135da8b4aa1da83b6d05c5e4c0d855d",
    },
    "misest": {
        "stdout": "e851232933aec901142bac7c1542d6c08e221cd4c8c6e2d2f284d1584c361f81",
        "pom.csv": "f431d3ecbf20669bb07e65c89d5a9c4d4a0a47b9152f3230c6a7274ed6c0bdd5",
        "pom.svg": "238eedbbd67bf2e00f1145b1859a448ca25b0b5c20e10b8ed0b3a2d3c846b318",
    },
    "pof-maxmin": {
        "stdout": "4777c1237543e68a3e94a4407b6fb29aa299808c521e64dd30239c57ec152cb9",
        "pof.csv": "377600e915137823980dc78f412ef109e18ee5bc529b873981b7d19c2883c40a",
    },
    "pof-sumkmin": {
        "stdout": "fe3b75a8712258ea2607f7baf4389ac9d2376f70a147ff9880912cd11b05cd43",
        "pof.csv": "d60bc00b99c78d78f29098f3b2ddc75ba2db1f6a6f5e5cd436b3a2cb32a83284",
    },
    "sweep-alpha": {
        "stdout": "79429abf0a3e3dd74e912e78100e30da3ba21c65bd584a46f584ee61b110af02",
        "a.csv": "facd8d2566d635a7a75909ef851d6c6cf2197fc59a2b48836928c8852b14a74b",
        "a.svg": "958c49d82cf8dd4163a74e7c66c8322f5055c6e565a5a7c61ffa07781ca6fa08",
    },
    "tradeoff-canonical": {
        "stdout": "e2eda98ff04abadd3d1aef758a2b513ccbd0d5c9185a839cda833f384583cc9d",
        "t.csv": "4ebceeaa5e4cb712d8c98a7a25e871bd1b06e5715ce895d7ef57070576733beb",
    },
    "tradeoff-svg": {
        "stdout": "db5bad1fc1aca73f487cde54ec0890240ec650c4b97d5716a4f01a60fd8e9ee0",
        "t.csv": "cbb3401953482c9eb4dc52dfc655ff3911eaf7d0700d59c7713dd6a321acbcbd",
        "t.svg": "9dd807f30fde6cbc3c49d55c39a55b1c4d3b6aefc9a84ee81c4eb9dd2b7c8e64",
    },
    "validate-closed-form": {
        "stdout": "b0b6a47ad6d1b50dfbc13e118a4ce2057e814646a9aa87cae73f6ed692ca3c56",
        "v.csv": "4eaddca9bbfd27bdabc1a87fbcedf81a79e02300a1fa2982b52df1da722aab3d",
    },
}


def _cli_outputs(tmp_path, capsys, argv) -> dict:
    d = f"{tmp_path}/"
    assert run([a.replace("{d}", d) for a in argv]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    digests = {"stdout": hashlib.sha256(out.replace(d, "{d}").encode()).hexdigest()}
    for p in sorted(tmp_path.iterdir()):
        data = p.read_bytes()
        if p.name == "t.csv":
            data = _without_timing(data.decode().splitlines())
        digests[p.name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_outputs_match_recorded_digests(tmp_path, capsys, name):
    assert _cli_outputs(tmp_path, capsys, CLI_RUNS[name]) == CLI_GOLDEN[name]


@pytest.mark.parametrize("argv", [
    ["tradeoff", *WORKED, "--out", "{d}t.csv"],
    ["tradeoff", *WORKED, "--measure", "nash", "--out", "{d}t.csv"],
    ["pof", *WORKED, "--out", "{d}pof.csv"],
    ["misest", "--values", "3,2,1", "--beta", "0.4", "--users", "10", "--scope", "all", "--out", "{d}pom.csv"],
])
def test_cli_k_that_the_measure_ignores_leaves_no_trace(tmp_path, capsys, argv):
    # Max-min and Nash solve k = 1 whatever --k says, so --k 3 writes what --k 1 writes.
    outputs = []
    for k in ("1", "3"):
        (tmp_path / k).mkdir()
        outputs.append(_cli_outputs(tmp_path / k, capsys, [*argv, "--k", k]))
    assert outputs[0] == outputs[1]


def test_cli_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as err:
        run(["frobnicate"])
    assert err.value.code == 2


def test_cli_pof_has_no_tie_break_flag():
    # The price does not depend on which optimum is returned.
    with pytest.raises(SystemExit) as err:
        run(["pof", "--values", "3,2,1", "--alpha", "0.5", "--users", "10", "--tie-break", "canonical"])
    assert err.value.code == 2


def test_cli_misest_requires_scope():
    with pytest.raises(SystemExit) as err:
        run(["misest", "--values", "3,2,1", "--beta", "0.4", "--users", "10"])
    assert err.value.code == 2
