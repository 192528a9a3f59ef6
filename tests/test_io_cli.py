"""CSV round trips, CLI exit codes, reproducible outputs."""
import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import duplicated_item_matrix

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
from fairrec.populations import gen_misestimation


def test_matrix_round_trip_preserves_values_and_labels(tmp_path):
    rng = np.random.default_rng(0)
    w = UtilityMatrix(
        rng.uniform(0.001, 123.0, size=(5, 4)),
        user_labels=("a", "b", "c", "d", "e"),
        item_labels=("w", "x", "y", "z"),
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
        ("late,1.5,2.25", f"line {REPEATS + 2} has 2 values, expected 3"),
        ("late", f"line {REPEATS + 2} has 0 values, expected 3"),
    ],
    ids=["bad-cell", "non-numeric", "short", "no-comma"],
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


@pytest.mark.parametrize("labelled", [False, True])
def test_writer_matches_per_row_reference(tmp_path, labelled):
    rng = np.random.default_rng(11)
    types = rng.uniform(0.001, 123.0, size=(3, 4))
    values = np.vstack([types[rng.integers(0, 3, size=40)], rng.uniform(0.5, 2.0, size=(6, 4))])
    values = values[rng.permutation(values.shape[0])]
    labels = {"user_labels": tuple(f"user-{i}" for i in range(46)), "item_labels": tuple("wxyz")}
    w = UtilityMatrix(values, **(labels if labelled else {}))
    prov = provenance_lines("test", {"users": 46})
    path = tmp_path / "m.csv"
    save_utility_csv(path, w, prov)
    assert path.read_bytes() == _per_row_csv(w, prov).encode()


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


def test_cli_pof_reports_worked_value(tmp_path, capsys):
    assert run(["pof", "--values", "3,2,1", "--alpha", "0.5", "--users", "10"]) == 0
    printed = capsys.readouterr().out
    assert "pof = 0.142857143" in printed


def test_cli_pof_full_fairness_equals_the_tradeoff_gamma_1_row(tmp_path, worked_instance):
    from fairrec.optimizer import Problem, price_of_fairness_terms, tradeoff_sweep

    uf1 = price_of_fairness_terms(Problem(worked_instance))[1]
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


def test_cli_pof_checks_unconstrained_optimum_before_full_fairness(tmp_path, monkeypatch):
    import dataclasses

    import fairrec.optimizer as opt

    real = opt.compute_uf_star
    gammas = []

    def zero_at_gamma_0(w, gamma, *args, **kwargs):
        gammas.append(gamma)
        return dataclasses.replace(real(w, gamma, *args, **kwargs), value=0.0)

    monkeypatch.setattr(opt, "compute_uf_star", zero_at_gamma_0)
    code = run(["pof", "--values", "3,2,1", "--alpha", "0.5", "--users", "10",
                "--out", str(tmp_path / "pof.csv")])
    assert code == 2
    assert gammas == [0.0]


def test_cli_config_error_exit_and_record(tmp_path):
    out = tmp_path / "c.csv"
    code = run(["tradeoff", "--values", "3,2,1", "--alpha", "1.5",
                "--users", "10", "--out", str(out)])
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

    def rising(w, gamma, *args, **kwargs):
        return dataclasses.replace(real(w, gamma, *args, **kwargs), value=1.0 + gamma)

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

    def flaky(w, gamma, *args, **kwargs):
        if gamma == 0.5:
            raise LPSolverError(LPStatus.FAILED, "injected failure")
        return real(w, gamma, *args, **kwargs)

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


def test_cli_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as err:
        run(["frobnicate"])
    assert err.value.code == 2


def test_cli_misest_requires_scope():
    with pytest.raises(SystemExit) as err:
        run(["misest", "--values", "3,2,1", "--beta", "0.4", "--users", "10"])
    assert err.value.code == 2
